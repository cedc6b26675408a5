//! `qbbench` — the benchmark of the Query Binning service.
//!
//! ```text
//! qbbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! qbbench all [--seed <n>] [--seconds <s>]
//! qbbench compare <A.jsonl> <B.jsonl>
//! ```
//!
//! `run` measures one workload and prints two JSON lines: a record with
//! every metric's unit and sample count, then the result line (`correct`,
//! `attempted`, `failed`, `metrics`). With `--trace 0` the metrics are the
//! end-to-end ones of `BENCHMARK.json`, with `--trace 1` the per-layer
//! ones. It exits 1 on a wrong answer, an insecure view or a dropped span,
//! and 2 on bad arguments.
//!
//! `all` runs every (workload, pass) in its own child process, prints their
//! records on stdout and a table on stderr. `compare` judges two files of
//! such records against the bounds in `BENCHMARK.json`.

#![forbid(unsafe_code)]

mod bench;
mod compare;
mod json;
mod spec;
mod stats;

use std::process::{Command, ExitCode, Stdio};

use bench::{Outcome, Workload, WORKLOADS};
use json::Json;

const DEFAULT_SEED: u64 = 42;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| cmd_run(&f)),
        Some("all") => parse_flags(&args[1..]).and_then(|f| cmd_all(&f)),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]),
        _ => Err(Usage("expected `run`, `all` or `compare`".into())),
    };
    match result {
        Ok(code) => code,
        Err(Usage(msg)) => {
            eprintln!("qbbench: {msg}");
            eprintln!(
                "usage: qbbench run --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       \
                 qbbench all [--seed <n>] [--seconds <s>]\n       \
                 qbbench compare <A.jsonl> <B.jsonl>"
            );
            ExitCode::from(2)
        }
    }
}

/// A command-line mistake: reported with the usage text, exit code 2.
pub struct Usage(pub String);

struct Flags {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_flags(args: &[String]) -> Result<Flags, Usage> {
    let mut flags = Flags {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: spec::spec().map_err(Usage)?.run_seconds,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| Usage(format!("{flag} needs a value")))?;
        let bad = || Usage(format!("bad value for {flag}: {value:?}"));
        match flag.as_str() {
            "--workload" => {
                flags.workload = Some(bench::workload(value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    Usage(format!(
                        "unknown workload {value:?}; one of {}",
                        names.join(", ")
                    ))
                })?)
            }
            "--seed" => flags.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                flags.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                flags.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(Usage(format!("unknown flag {flag}"))),
        }
    }
    Ok(flags)
}

fn cmd_run(flags: &Flags) -> Result<ExitCode, Usage> {
    let w = flags
        .workload
        .ok_or_else(|| Usage("run needs --workload".into()))?;
    let spec = spec::spec().map_err(Usage)?;
    let wanted = if flags.trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    let calls = ((flags.seconds * w.calls_per_second).round() as usize).max(1);
    let outcome = bench::run(w, flags.seed, calls, flags.trace)
        .map_err(|e| e.to_string())
        .and_then(|o| spec::check(&o.metrics, wanted).map(|()| o));
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("qbbench: {} failed: {e}", w.name);
            return Ok(ExitCode::FAILURE);
        }
    };
    for problem in &outcome.problems {
        eprintln!("qbbench: {}: {problem}", w.name);
    }
    println!("{}", record(w.name, flags.seed, flags.trace, &outcome));
    println!("{}", result_line(&outcome));
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The detailed record of one run: what `all` collects and `compare` reads.
fn record(workload: &str, seed: u64, trace: bool, o: &Outcome) -> String {
    let head = format!(
        "\"workload\":{},\"seed\":{seed},\"trace\":{},",
        json::string(workload),
        u8::from(trace)
    );
    outcome_json(&head, o, true)
}

/// The last line of `run`'s output: the verdict, the op counts, and each
/// metric's value and unit.
fn result_line(o: &Outcome) -> String {
    outcome_json("", o, false)
}

/// `{<head>"correct":..,"attempted":..,"failed":..,"metrics":{..}}`, each
/// metric with its value and unit, and with `samples` its sample count.
fn outcome_json(head: &str, o: &Outcome, samples: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            let count = if samples {
                format!(",\"samples\":{}", m.samples)
            } else {
                String::new()
            };
            format!(
                "{}:{{\"value\":{},\"unit\":{}{count}}}",
                json::string(&m.name),
                json::num(m.value),
                json::string(m.unit)
            )
        })
        .collect();
    format!(
        "{{{head}\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// Runs every (workload, pass) in a child process of this same binary, so
/// no run inherits another's heap, threads or peak RSS.
fn cmd_all(flags: &Flags) -> Result<ExitCode, Usage> {
    if flags.workload.is_some() {
        return Err(Usage("all runs every workload; drop --workload".into()));
    }
    let exe = std::env::current_exe()
        .map_err(|e| Usage(format!("cannot locate this executable: {e}")))?;
    let mut ok = true;
    let mut records: Vec<(bool, String, Json)> = Vec::new();
    for trace in [false, true] {
        for w in &WORKLOADS {
            let out = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &flags.seed.to_string()])
                .args(["--seconds", &flags.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output();
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("qbbench: cannot start {}: {e}", w.name);
                    ok = false;
                    continue;
                }
            };
            ok &= out.status.success();
            let stdout = String::from_utf8_lossy(&out.stdout);
            let Some(line) = stdout.lines().find(|l| l.starts_with("{\"workload\"")) else {
                eprintln!("qbbench: {} printed no record", w.name);
                ok = false;
                continue;
            };
            println!("{line}");
            if let Ok(parsed) = Json::parse(line) {
                records.push((trace, w.name.to_string(), parsed));
            }
        }
    }
    for trace in [false, true] {
        let pass: Vec<(&str, &Json)> = records
            .iter()
            .filter(|(t, _, _)| *t == trace)
            .map(|(_, name, rec)| (name.as_str(), rec))
            .collect();
        eprintln!("{}", table(&pass));
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Metric rows × workload columns, each cell `value (samples)`.
fn table(records: &[(&str, &Json)]) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    for (_, rec) in records {
        for (name, m) in rec.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            if !rows.iter().any(|(n, _)| n == name) {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                rows.push((name.clone(), unit.to_string()));
            }
        }
    }
    let width = rows
        .iter()
        .map(|(n, u)| n.len() + u.len() + 3)
        .max()
        .unwrap_or(6);
    let mut out = format!("{:width$}", "metric");
    for (name, _) in records {
        out.push_str(&format!(" {name:>22}"));
    }
    for (name, unit) in &rows {
        out.push_str(&format!("\n{:width$}", format!("{name} [{unit}]")));
        for (_, rec) in records {
            let m = rec.get("metrics").and_then(|ms| ms.get(name));
            let value = m.and_then(|m| m.get("value")).and_then(Json::as_f64);
            let samples = m.and_then(|m| m.get("samples")).and_then(Json::as_f64);
            let cell = match (value, samples) {
                (Some(v), Some(n)) => format!("{v:.4} ({n})"),
                _ => "-".to_string(),
            };
            out.push_str(&format!(" {cell:>22}"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload at 64 ops: exact answers, secure views, no dropped
    /// span, and exactly the metrics `BENCHMARK.json` names, with its units.
    #[test]
    fn every_workload_runs_exact_and_secure_with_every_metric() {
        let spec = spec::spec().expect("BENCHMARK.json parses");
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(spec.workloads, names);
        for w in &WORKLOADS {
            let calls = (64 / w.queries_per_call).max(2);
            for (trace, wanted) in [(false, &spec.end_to_end), (true, &spec.per_layer)] {
                let o = bench::run(w, 7, calls, trace).expect("run completes");
                assert!(o.correct, "{}: {:?}", w.name, o.problems);
                assert_eq!(o.failed, 0, "{}", w.name);
                assert!(o.attempted >= 64, "{}: {} ops", w.name, o.attempted);
                spec::check(&o.metrics, wanted).expect("the metrics BENCHMARK.json names");
                assert!(o.metrics.iter().all(|m| m.value.is_finite()));
                // Both output lines parse back as JSON.
                let line = record(w.name, 7, trace, &o);
                assert!(Json::parse(&line).is_ok(), "{line}");
                assert!(Json::parse(&result_line(&o)).is_ok());
            }
        }
    }
}
