//! The `experiments` binary: regenerates every table and figure of the
//! paper's evaluation and prints them in a form directly comparable with
//! the numbers reported in EXPERIMENTS.md.
//!
//! Usage:
//!
//! ```text
//! experiments [fig6a|fig6b|fig6c|table6|arx|headline|sharded|wire|hetero|planner|service|pipeline|employee|all]
//!             [--scale <f64>] [--shards <n>] [--latency <sec>] [--bandwidth <mbps>]
//!             [--workers <n>] [--owners <n>] [--trace <out.jsonl>]
//! experiments trace-report <trace.jsonl> [--gate-pct <f64>]
//! experiments obs-overhead [--budget-pct <f64>]
//! ```
//!
//! `--scale` shrinks the generated datasets (default 0.01 of the paper's
//! sizes) so the full suite completes in seconds on a laptop; it must be a
//! finite value strictly greater than zero.  `--shards` sets the shard
//! count of the sharded experiments (default 8 for `sharded`, 4 for
//! `hetero`, 2 for `service` and `pipeline`; `headline` adds a sharded
//! retrieval section when it is greater than 1; `wire` sweeps {1, N};
//! `hetero` and `pipeline` refuse fewer than 2).  `--latency` (seconds,
//! finite, >= 0) and `--bandwidth` (Mbps, finite, > 0) pin the `wire`
//! experiment's simulated link instead of its default latency x bandwidth
//! sweep.  `--workers` (>= 1) pins the `service` experiment's daemon
//! worker-pool size instead of its default {1, 2, 4} sweep, and
//! `--owners` (>= 1) sets its number of concurrent tenant owners
//! (default 8).  `--trace` records every span of the run to a JSON-lines
//! file that `trace-report` aggregates and gates (`--gate-pct`, default
//! 5); `obs-overhead` gates the projected cost of disabled tracing
//! (`--budget-pct`, default 3).
//!
//! A section that errors or fails its gate prints why to stderr; the
//! process exits 1 once every requested section has printed.

use pds_bench::{
    attacks, fig6a, fig6b, fig6c, hetero, pipeline, planner, service, sharded, table6, wire,
};

const KNOWN: [&str; 14] = [
    "all", "fig6a", "fig6b", "fig6c", "table6", "arx", "headline", "sharded", "wire", "hetero",
    "planner", "service", "pipeline", "employee",
];

fn usage_exit(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: experiments [{}] [--scale <f64>] [--shards <n>] \
         [--latency <sec>] [--bandwidth <mbps>] [--workers <n>] [--owners <n>] \
         [--trace <out.jsonl>]\n\
         \x20      experiments trace-report <trace.jsonl> [--gate-pct <f64>]\n\
         \x20      experiments obs-overhead [--budget-pct <f64>]",
        KNOWN.join("|")
    );
    std::process::exit(2);
}

/// Parses the value of a `--flag`, exiting with usage when the flag is
/// present but its value is missing or unparsable.
fn parse_flag<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    let i = args.iter().position(|a| a == flag)?;
    let Some(raw) = args.get(i + 1) else {
        usage_exit(&format!("{flag} requires a value"));
    };
    match raw.parse::<T>() {
        Ok(v) => Some(v),
        Err(_) => usage_exit(&format!("invalid {flag} value {raw:?}")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The experiment name is the sole positional argument and may appear
    // before or after the flags; omitting it runs `all`.
    let mut positionals: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        if arg == "--scale"
            || arg == "--shards"
            || arg == "--latency"
            || arg == "--bandwidth"
            || arg == "--workers"
            || arg == "--owners"
            || arg == "--trace"
            || arg == "--gate-pct"
            || arg == "--budget-pct"
        {
            i += 2; // skip the flag and its value (validated below)
            continue;
        }
        if arg.starts_with("--") {
            usage_exit(&format!("unknown flag {arg:?}"));
        }
        positionals.push(arg);
        i += 1;
    }

    // Observability subcommands take their own positionals and exit early.
    let gate_pct = parse_flag::<f64>(&args, "--gate-pct").unwrap_or(5.0);
    if !gate_pct.is_finite() || gate_pct <= 0.0 {
        usage_exit(&format!(
            "--gate-pct must be a finite value > 0, got {gate_pct}"
        ));
    }
    let budget_pct = parse_flag::<f64>(&args, "--budget-pct").unwrap_or(3.0);
    if !budget_pct.is_finite() || budget_pct <= 0.0 {
        usage_exit(&format!(
            "--budget-pct must be a finite value > 0, got {budget_pct}"
        ));
    }
    if positionals.first() == Some(&"trace-report") {
        let file = match positionals.as_slice() {
            ["trace-report", file] => *file,
            _ => usage_exit("trace-report takes exactly one trace file"),
        };
        std::process::exit(run_trace_report(file, gate_pct));
    }
    if positionals.first() == Some(&"obs-overhead") {
        if positionals.len() != 1 {
            usage_exit("obs-overhead takes no positional arguments");
        }
        std::process::exit(run_obs_overhead(budget_pct));
    }

    let which = match positionals.as_slice() {
        [] => "all",
        [one] => one,
        more => usage_exit(&format!("expected one experiment name, got {more:?}")),
    }
    .to_string();

    // Validate once at parse time; the experiments themselves no longer
    // clamp (they used to disagree: `.max(0.01)` here, `.max(0.05)` there).
    let scale = parse_flag::<f64>(&args, "--scale").unwrap_or(0.01);
    if !scale.is_finite() || scale <= 0.0 {
        usage_exit(&format!("--scale must be a finite value > 0, got {scale}"));
    }
    let shards = parse_flag::<usize>(&args, "--shards");
    if shards == Some(0) {
        usage_exit("--shards must be at least 1");
    }
    let latency = parse_flag::<f64>(&args, "--latency");
    if let Some(l) = latency {
        if !l.is_finite() || l < 0.0 {
            usage_exit(&format!("--latency must be a finite value >= 0, got {l}"));
        }
    }
    let bandwidth = parse_flag::<f64>(&args, "--bandwidth");
    if let Some(b) = bandwidth {
        if !b.is_finite() || b <= 0.0 {
            usage_exit(&format!("--bandwidth must be a finite value > 0, got {b}"));
        }
    }
    let workers = parse_flag::<usize>(&args, "--workers");
    if workers == Some(0) {
        usage_exit("--workers must be at least 1");
    }
    let owners = parse_flag::<usize>(&args, "--owners");
    if owners == Some(0) {
        usage_exit("--owners must be at least 1");
    }

    if !KNOWN.contains(&which.as_str()) {
        usage_exit(&format!("unknown experiment {which:?}"));
    }
    // Per-experiment constraints, rejected at parse time like every other
    // flag (silently clamping an explicit request would run a different
    // configuration than the one asked for).
    if which == "hetero" && shards.is_some_and(|s| s < 2) {
        usage_exit("hetero needs --shards >= 2 (one engine per shard, at least two kinds)");
    }
    if which == "pipeline" && shards.is_some_and(|s| s < 2) {
        usage_exit(
            "pipeline needs --shards >= 2 (its gate compares fan-outs over several daemons)",
        );
    }

    // `--trace out.jsonl`: record spans for the whole run, bracketed by one
    // root span whose duration is also measured as the wall-clock the
    // `trace-report` coverage gate compares against.
    let trace_path = parse_flag::<String>(&args, "--trace");
    if trace_path.is_some() {
        pds_obs::set_tracing(true);
        let _ = pds_obs::drain(); // fresh epoch: nothing stale in the file
    }
    let trace_start = std::time::Instant::now();
    let trace_root = pds_obs::obs_span("experiment.run");

    let run_all = which == "all";
    // A failed section fails the process, but only after every requested
    // section has printed, so a partial `all` stays readable.
    let mut sections_ok = true;
    if run_all || which == "fig6a" {
        print_fig6a();
    }
    if run_all || which == "fig6b" {
        sections_ok &= print_fig6b(scale);
    }
    if run_all || which == "fig6c" {
        sections_ok &= print_fig6c(scale);
    }
    if run_all || which == "table6" {
        sections_ok &= print_table6(scale);
    }
    if run_all || which == "arx" {
        sections_ok &= print_arx(scale);
    }
    if run_all || which == "headline" {
        sections_ok &= print_headline(shards.unwrap_or(1), scale);
    }
    if run_all || which == "sharded" {
        sections_ok &= print_sharded(shards.unwrap_or(8), scale);
    }
    if run_all || which == "wire" {
        sections_ok &= print_wire(scale, shards, latency, bandwidth);
    }
    if run_all || which == "hetero" {
        sections_ok &= print_hetero(shards.unwrap_or(4), scale);
    }
    if run_all || which == "planner" {
        sections_ok &= print_planner(scale);
    }
    if run_all || which == "service" {
        sections_ok &= print_service(shards.unwrap_or(2), workers, owners.unwrap_or(8));
    }
    if run_all || which == "pipeline" {
        sections_ok &= print_pipeline(shards.unwrap_or(2));
    }
    if run_all || which == "employee" {
        sections_ok &= print_employee();
    }

    drop(trace_root);
    if let Some(path) = trace_path {
        pds_obs::set_tracing(false);
        let wall_ns = trace_start.elapsed().as_nanos() as f64;
        if let Err(e) = write_trace(&path, wall_ns) {
            eprintln!("failed to write trace to {path}: {e}");
            std::process::exit(1);
        }
    }

    if !sections_ok {
        std::process::exit(1);
    }
}

/// Drains every span recorded since tracing was enabled and writes them
/// as JSON lines, closed by `wall_clock_ns` / `dropped` meta lines.
fn write_trace(path: &str, wall_ns: f64) -> std::io::Result<()> {
    use std::io::Write as _;
    let drained = pds_obs::drain();
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    for ev in &drained.events {
        writeln!(out, "{}", ev.to_json_line())?;
    }
    writeln!(
        out,
        "{}",
        pds_obs::trace::meta_line("wall_clock_ns", wall_ns)
    )?;
    writeln!(
        out,
        "{}",
        pds_obs::trace::meta_line("dropped", drained.dropped as f64)
    )?;
    out.flush()?;
    println!(
        "trace: {} spans ({} dropped) -> {path}",
        drained.events.len(),
        drained.dropped
    );
    Ok(())
}

/// `experiments trace-report <file>`: aggregate a recorded trace into
/// per-phase self-time totals and a critical path, gating main-thread
/// root-span coverage against the recorded wall-clock.
fn run_trace_report(path: &str, gate_pct: f64) -> i32 {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return 2;
        }
    };
    let report = match pds_obs::analyze_trace(content.lines()) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("trace-report failed: {e}");
            return 2;
        }
    };
    print!("{}", pds_obs::render_report(&report));
    if report.dropped > 0 {
        eprintln!(
            "trace-report gate FAILED: {} spans were dropped, totals are incomplete",
            report.dropped
        );
        return 1;
    }
    if report.wall_clock_ns.is_some() {
        let deviation = (report.coverage_pct - 100.0).abs();
        if deviation > gate_pct {
            eprintln!(
                "trace-report gate FAILED: main-thread root spans cover {:.2}% of \
                 wall-clock (allowed 100% +/- {gate_pct}%)",
                report.coverage_pct
            );
            return 1;
        }
        println!(
            "trace-report gate OK: {:.2}% coverage (within +/- {gate_pct}%)",
            report.coverage_pct
        );
    } else {
        println!("no wall_clock_ns meta line: coverage gate skipped");
    }
    0
}

/// `experiments obs-overhead`: gate the projected cost of *disabled*
/// tracing on the service smoke workload.
///
/// Overhead is projected, not differenced: two timed service runs differ
/// by scheduler noise far larger than a relaxed atomic load, so instead we
/// measure (a) the real per-call cost of a disabled `obs_span` and (b) the
/// number of span call sites one smoke run actually exercises (counted by
/// a traced run), and bound their product against the untraced wall-clock.
fn run_obs_overhead(budget_pct: f64) -> i32 {
    pds_obs::set_tracing(false);

    // (a) Disabled-path cost per call, amortised over enough iterations
    // that the clock reads at the ends vanish.
    let iters: u64 = 4_000_000;
    let t = std::time::Instant::now();
    for _ in 0..iters {
        std::hint::black_box(pds_obs::obs_span("obs.overhead_probe"));
    }
    let per_call_ns = t.elapsed().as_nanos() as f64 / iters as f64;

    // (b) Untraced smoke workload wall-clock.
    let t = std::time::Instant::now();
    let baseline = service::run(2, &[2], 2, 42);
    let wall_disabled_ns = t.elapsed().as_nanos() as f64;
    if let Err(e) = baseline {
        eprintln!("obs-overhead baseline service run failed: {e}");
        return 2;
    }

    // (c) Span count of the identical workload with tracing enabled.
    let _ = pds_obs::drain();
    pds_obs::set_tracing(true);
    let traced = service::run(2, &[2], 2, 42);
    pds_obs::set_tracing(false);
    let drained = pds_obs::drain();
    if let Err(e) = traced {
        eprintln!("obs-overhead traced service run failed: {e}");
        return 2;
    }

    let spans = drained.events.len() as f64;
    let projected_pct = 100.0 * spans * per_call_ns / wall_disabled_ns.max(1.0);
    println!(
        "obs-overhead: disabled obs_span {per_call_ns:.2} ns/call, {spans} spans per \
         smoke run, untraced wall {:.1} ms",
        wall_disabled_ns / 1e6
    );
    println!(
        "obs-overhead: projected tracing-disabled overhead {projected_pct:.4}% \
         (budget {budget_pct}%)"
    );
    if projected_pct > budget_pct {
        eprintln!("obs-overhead gate FAILED: {projected_pct:.4}% > {budget_pct}%");
        return 1;
    }
    println!("obs-overhead gate OK");
    0
}

fn print_fig6a() {
    println!("== Figure 6a: analytical eta = alpha + rho(|SB|+|NSB|)/gamma (rho = 10%) ==");
    println!("{:>10} {:>10} {:>10}", "alpha", "gamma", "eta");
    for p in fig6a::paper_series() {
        println!("{:>10.2} {:>10.0} {:>10.4}", p.alpha, p.gamma, p.eta);
    }
    println!();
}

/// Prints Figure 6b; returns whether the run completed.
fn print_fig6b(scale: f64) -> bool {
    println!("== Figure 6b: measured eta vs alpha for three dataset sizes (scale {scale}) ==");
    println!(
        "{:>10} {:>8} {:>14} {:>14} {:>8}",
        "tuples", "alpha", "qb s/query", "full s/query", "eta"
    );
    let ok = print_rows("fig6b", fig6b::paper_run(scale, 42), |p| {
        println!(
            "{:>10} {:>8.2} {:>14.6} {:>14.6} {:>8.4}",
            p.tuples, p.alpha, p.qb_sec, p.full_sec, p.eta
        )
    });
    println!();
    ok
}

/// Prints Figure 6c; returns whether the run completed.
fn print_fig6c(scale: f64) -> bool {
    let tuples = ((40_000.0 * scale) as usize).max(2_000);
    println!("== Figure 6c: per-query time vs bin-size imbalance ({tuples} tuples) ==");
    println!(
        "{:>8} {:>12} {:>16} {:>16}",
        "SB bins", "||SB|-|NSB||", "sim s/query", "wall s/query"
    );
    let ok = print_rows("fig6c", fig6c::paper_run(tuples, 42), |p| {
        println!(
            "{:>8} {:>12} {:>16.6} {:>16.6}",
            p.sensitive_bins, p.imbalance, p.per_query_sec, p.wall_clock_sec
        )
    });
    println!();
    ok
}

/// Prints Table VI; returns whether the run completed.
fn print_table6(scale: f64) -> bool {
    let tuples = ((60_000.0 * scale) as usize).max(2_000);
    println!(
        "== Table VI: QB + Opaque / QB + Jana at 1-60% sensitivity ({tuples} generated tuples,"
    );
    println!("   costs scaled to the paper's 6M (Opaque) / 1M (Jana) tuple datasets) ==");
    println!(
        "{:>12} {:>8} {:>14} {:>16}",
        "backend", "alpha", "QB sec", "without QB sec"
    );
    let cells = table6::run(tuples, &table6::paper_alphas(), 3, 42);
    let ok = print_rows("table6", cells, |c| {
        println!(
            "{:>12} {:>8.2} {:>14.1} {:>16.1}",
            c.backend, c.alpha, c.qb_sec, c.without_qb_sec
        )
    });
    println!();
    ok
}

/// Prints the Arx hardening comparison; returns whether both runs
/// completed.
fn print_arx(scale: f64) -> bool {
    let tuples = ((20_000.0 * scale) as usize).max(1_500);
    println!(
        "== Section VI: Arx hardening — attacks with and without QB ({tuples} tuples, skewed) =="
    );
    println!(
        "{:>10} {:>16} {:>18} {:>14} {:>14} {:>10}",
        "mode",
        "size exact rate",
        "size disting. rate",
        "skew hit rate",
        "anonymity set",
        "secure?"
    );
    let mut ok = true;
    for (label, result) in [
        ("arx-alone", attacks::arx_without_qb(tuples, 150, 0.4, 42)),
        ("arx+QB", attacks::arx_with_qb(tuples, 150, 0.4, 42)),
    ] {
        ok &= print_rows(label, result.map(|o| [o]), |o| {
            println!(
                "{:>10} {:>16.3} {:>18.3} {:>14.3} {:>14.2} {:>10}",
                label,
                o.size_attack_exact_rate,
                o.size_distinguishable_rate,
                o.skew_attack_hit_rate,
                o.skew_anonymity_set,
                o.partitioned_security_holds
            )
        });
    }
    println!();
    ok
}

/// Prints each row of a paper section's result with `print_row`, or the
/// section's error to stderr; returns whether the run completed.
fn print_rows<T, E: std::fmt::Display>(
    name: &str,
    result: Result<impl IntoIterator<Item = T>, E>,
    print_row: impl FnMut(T),
) -> bool {
    match result {
        Ok(rows) => {
            rows.into_iter().for_each(print_row);
            true
        }
        Err(e) => {
            eprintln!("{name} failed: {e}");
            false
        }
    }
}

fn print_headline(shards: usize, scale: f64) -> bool {
    println!("== Headline single-selection costs without QB (Section I / V calibration) ==");
    println!("{:>18} {:>12} {:>14}", "technique", "tuples", "seconds");
    for row in attacks::headline() {
        println!(
            "{:>18} {:>12} {:>14.4}",
            row.technique, row.tuples, row.seconds
        );
    }
    println!();
    if shards > 1 {
        // Smoke-sized sharded comparison so CI exercises the sharded path.
        let tuples = ((20_000.0 * scale) as usize).max(1_600);
        print_shard_table("Headline QB retrieval, sharded", tuples, &[1, shards], 24)
    } else {
        true
    }
}

fn print_sharded(shards: usize, scale: f64) -> bool {
    let tuples = ((40_000.0 * scale) as usize).max(2_000);
    print_shard_table(
        "Shard scaling: same workload over 1..N bin-routed shards",
        tuples,
        &sharded::shard_count_sweep(shards),
        48,
    )
}

/// Prints one shard-scaling table; returns whether the run succeeded so
/// `main` can turn a sharded failure into a nonzero exit (the CI smoke step
/// relies on that).
///
/// Two wall-clock columns are printed side by side: `parallel s` is the
/// *modelled* max-over-shards estimate from simulated per-shard costs;
/// `measured s` is the *observed* elapsed time of the same workload with
/// per-shard fetches fanned out on OS threads.  The absolute scales differ
/// (simulated seconds model a WAN and slow back-ends; measured seconds are
/// this machine's real crypto + scan work), but both must fall as shards
/// are added.
fn print_shard_table(title: &str, tuples: usize, counts: &[usize], queries: usize) -> bool {
    println!("== {title} ({tuples} tuples, {queries} queries) ==");
    println!(
        "{:>8} {:>16} {:>16} {:>18} {:>16} {:>14}",
        "shards", "aggregate s", "parallel s", "parallel s/query", "measured s", "sim net s"
    );
    let ok = match sharded::run(tuples, counts, queries, 42) {
        Ok(points) => {
            let measured_scales = points.len() < 2
                || points.last().expect("nonempty").measured_sec < points[0].measured_sec;
            for p in &points {
                println!(
                    "{:>8} {:>16.6} {:>16.6} {:>18.6} {:>16.6} {:>14.6}",
                    p.shards,
                    p.aggregate_sec,
                    p.parallel_sec,
                    p.parallel_per_query_sec(),
                    p.measured_sec,
                    p.sim_net_sec
                );
            }
            if !measured_scales {
                eprintln!(
                    "measured wall-clock did not drop from {} to {} shards",
                    points[0].shards,
                    points.last().expect("nonempty").shards
                );
            }
            measured_scales
        }
        Err(e) => {
            eprintln!("sharded run failed: {e}");
            false
        }
    };
    println!();
    ok
}

/// Prints the wire-protocol sweep; returns whether every cell's answers
/// matched the same workload over the paper's WAN link byte-for-byte,
/// security held, and the simulated clock genuinely overlapped per-shard
/// latency (any failure is a correctness bug in the wire stack, so it
/// fails the process like a sharded failure).
fn print_wire(
    scale: f64,
    shards: Option<usize>,
    latency: Option<f64>,
    bandwidth: Option<f64>,
) -> bool {
    let tuples = ((16_000.0 * scale) as usize).max(1_200);
    let latencies = latency.map_or_else(wire::default_latencies, |l| vec![l]);
    let bandwidths = bandwidth.map_or_else(wire::default_bandwidths, |b| vec![b]);
    let shard_counts = shards.map_or_else(wire::default_shards, |n| {
        if n > 1 {
            vec![1, n]
        } else {
            vec![1]
        }
    });
    println!(
        "== Wire protocol: byte-accurate traffic x simulated per-shard links ({tuples} tuples, \
         exhaustive workload) =="
    );
    println!(
        "{:>12} {:>10} {:>8} {:>8} {:>12} {:>8} {:>12} {:>7} {:>8}",
        "latency s",
        "Mbps",
        "shards",
        "queries",
        "wire bytes",
        "frames",
        "sim wall s",
        "exact?",
        "secure?"
    );
    let sweep_ok = match wire::run(tuples, &latencies, &bandwidths, &shard_counts, 42) {
        Ok(points) => {
            let mut all_ok = true;
            for p in &points {
                println!(
                    "{:>12.4} {:>10.0} {:>8} {:>8} {:>12} {:>8} {:>12.6} {:>7} {:>8}",
                    p.latency_sec,
                    p.bandwidth_mbps,
                    p.shards,
                    p.queries,
                    p.wire_bytes,
                    p.wire_frames,
                    p.sim_wall_sec,
                    p.exact,
                    p.secure
                );
                all_ok &= p.exact && p.secure;
            }
            if !all_ok {
                eprintln!("wire answers diverged from the WAN-link baseline or security broke");
            }
            let overlaps = wire::overlap_holds(&points);
            if !overlaps {
                eprintln!("simulated network failed to overlap per-shard latency");
            }
            println!();
            all_ok && overlaps
        }
        Err(e) => {
            eprintln!("wire run failed: {e}");
            println!();
            false
        }
    };

    // Composed vs fine-grained: the same exhaustive workload over identical
    // deterministic-index deployments, once forced multi-round and once on
    // the live composed path (one FetchBinRequest per episode).
    println!("== Composed vs fine-grained episodes ({tuples} tuples, exhaustive workload) ==");
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>12} {:>12} {:>8} {:>8} {:>7} {:>8}",
        "shards",
        "queries",
        "rounds f",
        "rounds c",
        "bytes f",
        "bytes c",
        "FBR f",
        "FBR c",
        "exact?",
        "secure?"
    );
    let rounds_ok = match wire::rounds_drop(tuples, &shard_counts, 42) {
        Ok(points) => {
            for p in &points {
                println!(
                    "{:>8} {:>8} {:>10} {:>10} {:>12} {:>12} {:>8} {:>8} {:>7} {:>8}",
                    p.shards,
                    p.queries,
                    p.rounds_fine,
                    p.rounds_composed,
                    p.bytes_fine,
                    p.bytes_composed,
                    p.requests_fine,
                    p.requests_composed,
                    p.exact,
                    p.secure
                );
            }
            let ok = wire::rounds_gate_holds(&points);
            if !ok {
                eprintln!(
                    "composed path failed its gate (needs strictly fewer rounds, <= 1.1x bytes, \
                     identical answers, one request frame per composed episode)"
                );
            }
            println!();
            ok
        }
        Err(e) => {
            eprintln!("rounds comparison failed: {e}");
            println!();
            false
        }
    };
    sweep_ok && rounds_ok
}

/// Prints the heterogeneous-shard run; returns whether the gate held
/// (exact answers, per-shard + composed security, >= 2 distinct engines,
/// one `FetchBinRequest` per episode after no locating round or one).
fn print_hetero(shards: usize, scale: f64) -> bool {
    // `all --shards 1` still runs the other sharded sections at 1 shard;
    // hetero needs two engines, so the shared flag is floored here (an
    // explicit `hetero --shards 1` was already rejected at parse time).
    let shards = shards.max(2);
    let tuples = ((16_000.0 * scale) as usize).max(1_200);
    println!("== Heterogeneous shards: a different back-end per shard ({tuples} tuples) ==");
    match hetero::run(tuples, shards, 42) {
        Ok(outcome) => {
            println!(
                "{:>6} {:>14} {:>10} {:>8} {:>14} {:>12} {:>12}",
                "shard", "engine", "episodes", "rounds", "locate frames", "FBR frames", "bytes"
            );
            for s in &outcome.per_shard {
                println!(
                    "{:>6} {:>14} {:>10} {:>8} {:>14} {:>12} {:>12}",
                    s.shard,
                    s.engine,
                    s.episodes,
                    s.rounds,
                    s.locate_frames,
                    s.fetch_frames,
                    s.bytes
                );
            }
            println!(
                "{} queries ({} served from their batch's bins) over {} shards, {} distinct \
                 engines; exact: {}, secure: {}, paths consistent: {}",
                outcome.queries,
                outcome.batch_served,
                outcome.shards,
                outcome.distinct_engines,
                outcome.exact,
                outcome.secure,
                outcome.paths_consistent
            );
            if !outcome.holds() {
                eprintln!("heterogeneous deployment failed its gate");
            }
            println!();
            outcome.holds()
        }
        Err(e) => {
            eprintln!("hetero run failed: {e}");
            println!();
            false
        }
    }
}

/// Prints the cost-based planner run — the chosen per-(scenario, shard)
/// plan and the suite totals against every homogeneous deployment — and
/// returns whether the gate held (planner secure + byte-exact, and it
/// beats every homogeneous deployment offering equal attack-checked
/// security on rounds, bytes, modelled seconds and wall-clock).
fn print_planner(scale: f64) -> bool {
    let tuples = ((8_000.0 * scale) as usize).max(600);
    println!(
        "== Cost-based planner: engine per shard, pushdown, counted-work cost model ({tuples} tuples) =="
    );
    match planner::run(tuples, 42) {
        Ok(outcome) => {
            println!(
                "{:>14} {:>6} {:>10} {:>8} {:>16} {:>10} {:>12}",
                "scenario", "shard", "advantage", "obliv?", "engine", "pushdown", "est (s)"
            );
            for p in &outcome.plans {
                println!(
                    "{:>14} {:>6} {:>10.3} {:>8} {:>16} {:>10} {:>12.6}",
                    p.scenario,
                    p.shard,
                    p.advantage,
                    p.oblivious_required,
                    p.engine,
                    p.pushdown,
                    p.estimated_sec
                );
            }
            println!(
                "{:>16} {:>8} {:>12} {:>14} {:>12} {:>8} {:>7} {:>7}",
                "deployment",
                "rounds",
                "bytes",
                "modelled (s)",
                "wall (s)",
                "secure?",
                "exact?",
                "beaten?"
            );
            for h in std::iter::once(&outcome.planner).chain(&outcome.homogeneous) {
                println!(
                    "{:>16} {:>8} {:>12} {:>14.6} {:>12.6} {:>8} {:>7} {:>7}",
                    h.engine,
                    h.rounds,
                    h.bytes,
                    h.modelled_sec,
                    h.measured_wall_sec,
                    h.secure,
                    h.exact,
                    if std::ptr::eq(h, &outcome.planner) {
                        "-".to_string()
                    } else if !h.secure {
                        "n/a".to_string()
                    } else {
                        outcome.beats(h).to_string()
                    }
                );
            }
            println!(
                "advantage threshold {:.2}; wall-clock slack {:.1}x",
                outcome.advantage_threshold,
                planner::WALL_SLACK
            );
            if !outcome.holds() {
                eprintln!("planner failed its gate: it must beat every equally-secure homogeneous deployment");
            }
            println!();
            outcome.holds()
        }
        Err(e) => {
            eprintln!("planner run failed: {e}");
            println!();
            false
        }
    }
}

fn print_service(shards: usize, workers: Option<usize>, owners: usize) -> bool {
    let pools = workers.map_or_else(service::default_workers, |w| vec![w]);
    println!(
        "== TCP service: {owners} concurrent tenant owners over {shards} loopback shard \
         daemons, closed loop =="
    );
    println!(
        "{:>8} {:>8} {:>8} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "workers", "owners", "ops", "ops/sec", "p50 ms", "p99 ms", "exact?", "secure?"
    );
    match service::run(shards, &pools, owners, 42) {
        Ok(points) => {
            let mut ok = true;
            for p in &points {
                println!(
                    "{:>8} {:>8} {:>8} {:>12.1} {:>10.3} {:>10.3} {:>8} {:>8}",
                    p.workers,
                    p.owners,
                    p.ops,
                    p.throughput(),
                    p.p50_ms,
                    p.p99_ms,
                    p.exact,
                    p.secure
                );
                ok &= p.exact && p.secure && p.throughput() > 0.0;
            }
            if !ok {
                eprintln!("service run failed its gate (exact answers, security, throughput)");
            }
            println!();
            ok
        }
        Err(e) => {
            eprintln!("service run failed: {e}");
            println!();
            false
        }
    }
}

/// Prints the pipelined-vs-lock-step comparison and the experiment's own
/// metrics registry (buffer-pool reuse counters); returns whether the
/// gate held (strictly faster, blocked-read self-time shrank, identical
/// answers, security intact, pool hits nonzero).
fn print_pipeline(shards: usize) -> bool {
    // `all --shards 1` still runs the other sharded sections at 1 shard;
    // the gate needs two daemons, so the shared flag is floored here (an
    // explicit `pipeline --shards 1` was already rejected at parse time).
    let shards = shards.max(2);
    println!(
        "== Pipelined wire dispatch vs lock-step over {shards} loopback shard daemons \
         (LINEITEM, one tuple per value) =="
    );
    match pipeline::run(
        shards,
        pipeline::TUPLES,
        pds_core::DEFAULT_PIPELINE_WINDOW,
        3,
        42,
    ) {
        Ok(o) => {
            println!(
                "{:>8} {:>8} {:>9} {:>8} {:>14} {:>14} {:>9} {:>7} {:>8}",
                "shards",
                "queries",
                "episodes",
                "window",
                "lock-step s",
                "pipelined s",
                "speedup",
                "exact?",
                "secure?"
            );
            println!(
                "{:>8} {:>8} {:>9} {:>8} {:>14.6} {:>14.6} {:>8.2}x {:>7} {:>8}",
                o.shards,
                o.queries,
                o.episodes,
                o.window,
                o.lock_step_sec,
                o.pipelined_sec,
                o.speedup(),
                o.exact,
                o.secure
            );
            println!(
                "wire.call self-time (client blocked on response reads, {} reps): \
                 lock-step {:.3} ms -> pipelined {:.3} ms",
                o.reps,
                o.wire_call_lock_ns as f64 / 1e6,
                o.wire_call_pipe_ns as f64 / 1e6
            );
            let registry = pds_obs::Registry::new();
            o.flush_pool_metrics(&registry);
            print!("{}", registry.render(pds_obs::StatsScope::All));
            if !o.holds() {
                eprintln!(
                    "pipeline failed its gate (needs strictly faster wall-clock, shrinking \
                     wire.call self-time, identical answers, security, pool hits)"
                );
            }
            println!();
            o.holds()
        }
        Err(e) => {
            eprintln!("pipeline run failed: {e}");
            println!();
            false
        }
    }
}

/// Prints the Employee example's adversarial views without and with QB
/// (Tables II and III); returns whether, after the exhaustive workload,
/// the naive view fails partitioned data security and the QB view
/// satisfies it, as the paper's tables show.
fn print_employee() -> bool {
    println!("== Tables II & III: adversarial views for the Employee example ==");
    match employee_views() {
        Ok((false, true)) => true,
        Ok((naive_secure, qb_secure)) => {
            eprintln!(
                "employee failed its gate (needs the naive view insecure and the QB view \
                 secure; got {naive_secure} and {qb_secure})"
            );
            false
        }
        Err(e) => {
            eprintln!("employee failed: {e}");
            false
        }
    }
}

/// Runs the Employee example through the naive executor (Table II) and
/// through QB (Table III), printing each view, and returns whether each
/// view satisfies partitioned data security after the exhaustive workload.
fn employee_views() -> pds_common::Result<(bool, bool)> {
    use pds_cloud::{CloudServer, DbOwner, NetworkModel};
    use pds_core::executor::NaivePartitionedExecutor;
    use pds_core::{BinningConfig, QbExecutor, QueryBinning};
    use pds_storage::Partitioner;
    use pds_systems::NonDetScanEngine;
    use pds_workload::{employee_relation, employee_sensitivity_policy};

    let rel = employee_relation();
    let policy = employee_sensitivity_policy(&rel)?;
    let parts = Partitioner::new(policy).split(&rel)?;

    // Table II: naive partitioned execution.
    let mut naive = NaivePartitionedExecutor::new("EId", NonDetScanEngine::new());
    let mut owner = DbOwner::new(3);
    let mut cloud = CloudServer::new(NetworkModel::paper_wan());
    naive.outsource(&mut owner, &mut cloud, &parts)?;
    for eid in ["E259", "E101", "E199"] {
        naive.select(&mut owner, &mut cloud, &eid.into())?;
    }
    println!("-- without QB (Table II) --");
    print!("{}", cloud.adversarial_view().render_table());
    // Let the adversary observe queries for every value before judging.
    for eid in ["E101", "E152", "E159", "E254"] {
        naive.select(&mut owner, &mut cloud, &eid.into())?;
    }
    let naive_secure =
        pds_adversary::check_partitioned_security(cloud.adversarial_view()).is_secure();
    println!("partitioned data security holds (after exhaustive workload): {naive_secure}\n");

    // Table III: the same queries through QB.
    let binning = QueryBinning::build(&parts, "EId", BinningConfig::default())?;
    let mut qb = QbExecutor::new(binning, NonDetScanEngine::new());
    let mut owner = DbOwner::new(3);
    let mut cloud = CloudServer::new(NetworkModel::paper_wan());
    qb.outsource(&mut owner, &mut cloud, &parts)?;
    for eid in ["E259", "E101", "E199"] {
        qb.select(&mut owner, &mut cloud, &eid.into())?;
    }
    println!("-- with QB (Table III) --");
    print!("{}", cloud.adversarial_view().render_table());
    for eid in ["E101", "E152", "E159", "E254"] {
        qb.select(&mut owner, &mut cloud, &eid.into())?;
    }
    let qb_secure = pds_adversary::check_partitioned_security(cloud.adversarial_view()).is_secure();
    println!("partitioned data security holds (after exhaustive workload): {qb_secure}\n");
    Ok((naive_secure, qb_secure))
}
