//! The four workloads and the closed loop that measures them.
//!
//! Every run builds one deployment from `--seed` through the layers'
//! public APIs (pseudo-TPC-H LINEITEM → value-level sensitivity →
//! `Partitioner::split` → `QueryBinning::build` → `outsource_with_engines`
//! over 2 shards for tenant 1), warms it with one query per distinct
//! value, and then drives a fixed, seed-determined sequence of calls from
//! one client thread, each issued only after the previous one returned.
//! Every answer is checked against the generated relation, and every pass
//! ends with the partitioned-security check over the servers' views.

use std::collections::HashMap;
use std::time::Instant;

use pds_adversary::check_sharded_partitioned_security;
use pds_cloud::{
    BinRoutedCloud, BinTransport, DbOwner, NetworkModel, ServiceConfig, ShardDaemon, ShardRouter,
    TcpCloudClient,
};
use pds_common::rng::{derive_seed, seeded_rng, shuffle};
use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use pds_core::extensions::{InsertPlan, InsertPlanner};
use pds_core::{BinningConfig, QbExecutor, QueryBinning};
use pds_obs::TraceEvent;
use pds_proto::{InsertRequest, WireMessage};
use pds_storage::{
    PartitionedRelation, Partitioner, Predicate, Relation, SensitivityPolicy, Tuple,
};
use pds_systems::{DeterministicIndexEngine, SecretSharingEngine, SecureSelectionEngine};
use pds_workload::{QueryWorkload, TpchConfig, TpchGenerator, Zipf};
use rand::Rng;

use crate::stats;

const TENANT: u64 = 1;
const SHARDS: usize = 2;
const SEARCH_ATTR: &str = "L_PARTKEY";
/// Share of the distinct `L_PARTKEY` values made sensitive, with every tuple
/// that holds them. A count of values, not of tuples: the bin shape is a
/// function of the two sides' value counts, and a tuple share let it jump
/// between 14×13, 15×12 and 16×11 from seed to seed, which moved bytes per
/// op by up to 13% and peak RSS by up to 25%.
const SENSITIVE_SHARE: f64 = 0.3;
/// The timed phase of the untraced pass runs in this many equal segments,
/// and one spare set-up build runs between each two, untimed by it: with
/// the build that serves the run, `SEGMENTS` builds spread over the run,
/// and `setup_s` is their median. A build takes about 10 ms, and a shared
/// machine's speed swings by up to 1.6× for seconds at a time. Over two
/// sets of ten runs the median of 7 consecutive builds moved by up to 26%,
/// the median of 21 spread over the run by under 6%.
const SEGMENTS: usize = 21;
const DAEMON_WORKERS: usize = 2;
/// A Zipf workload's hot set moves this many times per run, so its cost per
/// op averages over many hot sets instead of hanging on which few bins one
/// seed makes hot (one ranking per run moved bytes per op by ±7% across
/// seeds).
const ZIPF_EPOCHS: usize = 64;
/// The traced pass drains the span rings at least this often (in point
/// queries plus inserts): draining once per run overflows the 2^16-event
/// per-thread rings on the batch workloads.
const DRAIN_EVERY_OPS: usize = 1_000;

/// Every span name the program emits; the traced pass reports self time
/// and count per operation for each.
pub const SPAN_NAMES: [&str; 18] = [
    "plan.compile",
    "episode.execute",
    "episode.execute_remote",
    "episode.pipelined",
    "engine.call",
    "engine.fine_grained",
    "cache.get_pair",
    "cache.store_pair",
    "frame.encode",
    "frame.decode",
    "wire.call",
    "wire.flush",
    "cloud.dispatch",
    "daemon.accept",
    "daemon.read",
    "daemon.queue",
    "daemon.worker",
    "daemon.dispatch",
];

/// Which secure back-end runs on each of the two shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engines {
    /// The deterministic index on both shards: one composed round per
    /// episode, and the only kind of engine that travels over TCP.
    DetIndex,
    /// Det-index on shard 0 and (3,5) secret sharing on shard 1, whose
    /// episodes take several rounds.
    Mixed,
}

/// What the timed calls do.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Point queries drawn uniformly over the distinct values.
    Uniform,
    /// Point queries with Zipf(`exponent`) popularity, and a
    /// `write_share` of calls that insert one non-sensitive tuple instead.
    ZipfReadWrite { exponent: f64, write_share: f64 },
}

/// One workload: a data size, a deployment, and a traffic mix. Why each
/// exists is recorded next to its name in `BENCHMARK.json`.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// LINEITEM tuples; `L_PARTKEY` has an eighth as many distinct values.
    pub tuples: usize,
    pub engines: Engines,
    /// Shards behind loopback `ShardDaemon`s (else in-process, threaded).
    pub tcp: bool,
    /// Point queries per read call.
    pub queries_per_call: usize,
    /// Owner-side `BinCache` capacity in bins (0 = off).
    pub cache_bins: usize,
    pub mix: Mix,
    /// Calls per second of `--seconds`: the op count is fixed by the seed
    /// and run length, not by how fast the program is, so both sides of a
    /// comparison do the same work and retain the same state. Calibrated
    /// so a run measures about `--seconds` on a 2-core machine.
    pub calls_per_second: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "point-tcp",
        tuples: 2_000,
        engines: Engines::DetIndex,
        tcp: true,
        queries_per_call: 1,
        cache_bins: 0,
        mix: Mix::Uniform,
        calls_per_second: 1_200.0,
    },
    Workload {
        name: "batch-tcp",
        tuples: 2_000,
        engines: Engines::DetIndex,
        tcp: true,
        queries_per_call: 32,
        cache_bins: 0,
        mix: Mix::Uniform,
        calls_per_second: 120.0,
    },
    Workload {
        name: "batch-local-mixed",
        tuples: 4_000,
        engines: Engines::Mixed,
        tcp: false,
        queries_per_call: 16,
        cache_bins: 0,
        mix: Mix::Uniform,
        calls_per_second: 100.0,
    },
    Workload {
        name: "zipf-rw-tcp",
        tuples: 2_000,
        engines: Engines::DetIndex,
        tcp: true,
        queries_per_call: 1,
        cache_bins: 8,
        mix: Mix::ZipfReadWrite {
            exponent: 1.1,
            write_share: 0.1,
        },
        calls_per_second: 1_200.0,
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind the value (calls timed, builds, ops divided by).
    pub samples: u64,
}

/// The result of one `run`: the metrics of its pass and its verdict.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Every answer exact, every view secure, no span dropped.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Why `correct` is false, for the operator.
    pub problems: Vec<String>,
}

/// Runs `workload` for `calls` timed calls. The untraced pass yields the
/// end-to-end metrics; with `trace` the same calls are then replayed on a
/// fresh deployment with spans on, and the per-layer metrics of both
/// passes are reported instead.
pub fn run(w: &Workload, seed: u64, calls: usize, trace: bool) -> Result<Outcome> {
    match w.engines {
        Engines::DetIndex => run_with(w, seed, calls, trace, || {
            (0..SHARDS)
                .map(|_| DeterministicIndexEngine::new())
                .collect()
        }),
        Engines::Mixed => run_with(w, seed, calls, trace, || {
            vec![
                Box::new(DeterministicIndexEngine::new()) as Box<dyn SecureSelectionEngine>,
                Box::new(SecretSharingEngine::new(3, 5)),
            ]
        }),
    }
}

fn run_with<E: SecureSelectionEngine>(
    w: &Workload,
    seed: u64,
    calls: usize,
    trace: bool,
    engines: impl Fn() -> Vec<E>,
) -> Result<Outcome> {
    let data = Data::generate(w, seed)?;
    let mut setup = SetupTimes::default();
    let dep = data.build(w, &engines, &mut setup)?;
    let ops = data.ops(w, &dep, calls)?;
    let mut spare_build = || data.build(w, &engines, &mut setup).map(drop);
    let main = pass(w, &data, dep, &ops, false, &mut spare_build)?;
    let mut out = Outcome {
        metrics: Vec::new(),
        correct: true,
        attempted: main.phase.attempted,
        failed: main.phase.failed,
        problems: Vec::new(),
    };
    main.verdict("untraced pass", &mut out);
    if trace {
        let dep = data.build(w, &engines, &mut SetupTimes::default())?;
        let traced = pass(w, &data, dep, &ops, true, &mut || Ok(()))?;
        traced.verdict("traced pass", &mut out);
        out.attempted += traced.phase.attempted;
        out.failed += traced.phase.failed;
        out.metrics = per_layer(&setup, &main, &traced);
    } else {
        out.metrics = end_to_end(&setup, &main);
    }
    Ok(out)
}

// ----- inputs and set-up ----------------------------------------------------

struct Data {
    seed: u64,
    relation: Relation,
    partitioner: Partitioner,
    attr: AttrId,
}

#[derive(Default)]
struct SetupTimes {
    split_ms: Vec<f64>,
    binning_ms: Vec<f64>,
    outsource_ms: Vec<f64>,
    total_s: Vec<f64>,
}

struct Deployment<E: SecureSelectionEngine> {
    owner: DbOwner,
    router: ShardRouter,
    executor: QbExecutor<E>,
    parts: PartitionedRelation,
}

/// One call of the timed phase.
enum Op {
    Read(Vec<Value>),
    Insert(Tuple),
}

impl Op {
    /// Point queries plus inserts this call performs.
    fn len(&self) -> usize {
        match self {
            Op::Read(values) => values.len(),
            Op::Insert(_) => 1,
        }
    }
}

impl Data {
    fn generate(w: &Workload, seed: u64) -> Result<Data> {
        let relation = TpchGenerator::new(TpchConfig {
            lineitem_tuples: w.tuples,
            distinct_partkeys: w.tuples / 8,
            distinct_suppkeys: (w.tuples / 150).max(5),
            skew: 0.0,
            seed: derive_seed(seed, "tpch"),
        })
        .lineitem();
        let attr = relation.schema().attr_id(SEARCH_ATTR)?;
        let mut values = relation.distinct_values(attr);
        shuffle(
            &mut values,
            &mut seeded_rng(derive_seed(seed, "sensitivity")),
        );
        values.truncate((SENSITIVE_SHARE * values.len() as f64).round() as usize);
        let policy = SensitivityPolicy::rows(Predicate::InSet { attr, values });
        Ok(Data {
            seed,
            relation,
            partitioner: Partitioner::new(policy),
            attr,
        })
    }

    /// One timed build: split, binning, and outsourcing to fresh shards.
    fn build<E: SecureSelectionEngine>(
        &self,
        w: &Workload,
        engines: &impl Fn() -> Vec<E>,
        times: &mut SetupTimes,
    ) -> Result<Deployment<E>> {
        let t = Instant::now();
        let parts = self.partitioner.split(&self.relation)?;
        let split = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let binning = QueryBinning::build(&parts, SEARCH_ATTR, BinningConfig::default())?;
        let bin = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let engines = engines();
        let prototype = engines
            .first()
            .ok_or_else(|| PdsError::Config("a deployment needs an engine".into()))?
            .fork();
        let mut executor = QbExecutor::new(binning, prototype)
            .with_tenant(TENANT)
            .with_cache_capacity(w.cache_bins);
        let mut owner = DbOwner::new(derive_seed(self.seed, "owner"));
        let mut router = ShardRouter::new(
            SHARDS,
            NetworkModel::paper_wan(),
            derive_seed(self.seed, "placement"),
        )?;
        executor.outsource_with_engines(&mut owner, &mut router, &parts, engines)?;
        let outsource = t.elapsed().as_secs_f64();

        times.split_ms.push(split * 1e3);
        times.binning_ms.push(bin * 1e3);
        times.outsource_ms.push(outsource * 1e3);
        times.total_s.push(split + bin + outsource);
        Ok(Deployment {
            owner,
            router,
            executor,
            parts,
        })
    }

    /// The timed calls, fixed by the seed. Uniform workloads draw their
    /// reads with `QueryWorkload::uniform`. A Zipf workload's popularity
    /// ranking is reshuffled every 1/[`ZIPF_EPOCHS`] of the run, and its
    /// inserts follow the same ranking over the values that have a
    /// non-sensitive bin: each is a fresh copy of an existing tuple of that
    /// value, with an id above every real and fake tuple id.
    fn ops<E: SecureSelectionEngine>(
        &self,
        w: &Workload,
        dep: &Deployment<E>,
        calls: usize,
    ) -> Result<Vec<Op>> {
        let Mix::ZipfReadWrite {
            exponent,
            write_share,
        } = w.mix
        else {
            let reads =
                QueryWorkload::uniform(&self.relation, self.attr, derive_seed(self.seed, "reads"))?
                    .draw(calls * w.queries_per_call);
            return Ok(reads
                .chunks(w.queries_per_call)
                .map(|c| Op::Read(c.to_vec()))
                .collect());
        };

        let mut templates: HashMap<&Value, &Tuple> = HashMap::new();
        for t in dep.parts.nonsensitive.tuples() {
            templates.entry(t.value(self.attr)).or_insert(t);
        }
        let planner = InsertPlanner::new(dep.executor.binning());
        if let Some(v) = templates.keys().find(|v| {
            !matches!(
                planner.plan(v, false),
                InsertPlan::ExistingAssignment { .. }
            )
        }) {
            return Err(PdsError::Config(format!(
                "{v:?} has no non-sensitive bin to insert into"
            )));
        }
        let mut next_id = self
            .relation
            .tuples()
            .iter()
            .map(|t| t.id.raw())
            .chain(dep.executor.fake_tuple_ids().iter().map(|id| id.raw()))
            .max()
            .unwrap_or(0)
            + 1;

        let mut ranking = self.relation.distinct_values(self.attr);
        let read_zipf = Zipf::new(ranking.len(), exponent)?;
        let write_zipf = Zipf::new(templates.len(), exponent)?;
        let mut insertable: Vec<&Tuple> = Vec::new();
        let mut rng = seeded_rng(derive_seed(self.seed, "calls"));
        let epoch = calls.div_ceil(ZIPF_EPOCHS).max(1);
        let mut ops = Vec::with_capacity(calls);
        for i in 0..calls {
            if i % epoch == 0 {
                shuffle(&mut ranking, &mut rng);
                insertable = ranking
                    .iter()
                    .filter_map(|v| templates.get(v).copied())
                    .collect();
            }
            if rng.gen::<f64>() < write_share {
                let template = insertable[write_zipf.sample(&mut rng)];
                ops.push(Op::Insert(Tuple::new(
                    TupleId::new(next_id),
                    template.values.clone(),
                )));
                next_id += 1;
            } else {
                let read = (0..w.queries_per_call)
                    .map(|_| ranking[read_zipf.sample(&mut rng)].clone())
                    .collect();
                ops.push(Op::Read(read));
            }
        }
        Ok(ops)
    }
}

// ----- one pass -------------------------------------------------------------

/// The expected answer of every value: the generated relation's tuples with
/// that value plus the tuples inserted so far, as sorted `Tuple::encode`
/// bytes. It never consults the system under test.
struct Oracle {
    attr: AttrId,
    expected: HashMap<Value, Vec<Vec<u8>>>,
}

impl Oracle {
    fn new(relation: &Relation, attr: AttrId) -> Oracle {
        let mut expected: HashMap<Value, Vec<Vec<u8>>> = HashMap::new();
        for t in relation.tuples() {
            expected
                .entry(t.value(attr).clone())
                .or_default()
                .push(t.encode());
        }
        for tuples in expected.values_mut() {
            tuples.sort_unstable();
        }
        Oracle { attr, expected }
    }

    fn matches(&self, value: &Value, answer: &[Tuple]) -> bool {
        let mut got: Vec<Vec<u8>> = answer.iter().map(Tuple::encode).collect();
        got.sort_unstable();
        got.as_slice() == self.expected.get(value).map_or(&[][..], Vec::as_slice)
    }

    fn insert(&mut self, tuple: &Tuple) {
        let list = self
            .expected
            .entry(tuple.value(self.attr).clone())
            .or_default();
        let enc = tuple.encode();
        let at = list.binary_search(&enc).unwrap_or_else(|at| at);
        list.insert(at, enc);
    }
}

struct Service {
    daemons: Vec<ShardDaemon>,
    client: TcpCloudClient,
}

/// Work counters, keyed by the daemons' registry names (the in-process
/// router's `Metrics` are mapped onto the same names).
type Counters = HashMap<String, f64>;

#[derive(Default)]
struct Phase {
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    read_ms: Vec<f64>,
    write_ms: Vec<f64>,
    queries: u64,
    inserts: u64,
    attempted: u64,
    failed: u64,
    wrong: u64,
    rounds: u64,
    check_s: f64,
    insert_call_s: f64,
    insert_calls: u64,
    invalidate_s: f64,
    counters: Counters,
    events: Vec<TraceEvent>,
    dropped_spans: u64,
    first_error: Option<String>,
}

impl Phase {
    /// Completed point queries plus inserts.
    fn ops(&self) -> u64 {
        self.queries + self.inserts
    }

    fn ops_per_s(&self) -> f64 {
        ratio(self.ops() as f64, self.wall_s)
    }
}

struct Pass {
    phase: Phase,
    warmup_wrong: u64,
    spawn_ms: Option<f64>,
    shutdown_ms: Option<f64>,
    check_ms: f64,
    secure: bool,
    episodes: u64,
}

impl Pass {
    fn verdict(&self, label: &str, out: &mut Outcome) {
        let p = &self.phase;
        let mut problems = Vec::new();
        if self.warmup_wrong + p.wrong > 0 {
            problems.push(format!("{} wrong answers", self.warmup_wrong + p.wrong));
        }
        if !self.secure {
            problems.push("an adversarial view is insecure".to_string());
        }
        if p.dropped_spans > 0 {
            problems.push(format!("{} spans dropped", p.dropped_spans));
        }
        // The owner's and the cloud's round counts must reconcile (a failed
        // call may have been served without being counted).
        let served = p.counters.get("pds_round_trips_total").copied();
        if p.failed == 0 && served != Some(p.rounds as f64) {
            problems.push(format!(
                "the cloud served {served:?} round trips, the owner counted {}",
                p.rounds
            ));
        }
        if let Some(e) = &p.first_error {
            out.problems
                .push(format!("{label}: first failed call: {e}"));
        }
        out.correct &= problems.is_empty();
        out.problems
            .extend(problems.into_iter().map(|p| format!("{label}: {p}")));
    }
}

/// Serves one deployment: daemons up (TCP workloads), warm-up, the timed
/// calls, daemons down, and the security check over the reclaimed views.
fn pass<E: SecureSelectionEngine>(
    w: &Workload,
    data: &Data,
    mut dep: Deployment<E>,
    ops: &[Op],
    trace: bool,
    between_segments: &mut dyn FnMut() -> Result<()>,
) -> Result<Pass> {
    let mut service = None;
    let mut spawn_ms = None;
    if w.tcp {
        let t = Instant::now();
        let daemons = dep
            .router
            .shards_mut()
            .iter_mut()
            .enumerate()
            .map(|(s, server)| {
                ShardDaemon::spawn(
                    vec![(TENANT, std::mem::take(server))],
                    ServiceConfig::with_workers(DAEMON_WORKERS).with_shard(s as u64),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        spawn_ms = Some(t.elapsed().as_secs_f64() * 1e3);
        let client = TcpCloudClient::new(TENANT, daemons.iter().map(ShardDaemon::addr).collect());
        service = Some(Service { daemons, client });
    }
    let transport = match &service {
        Some(s) => BinTransport::Tcp(s.client.clone()),
        None => BinTransport::Threaded,
    };
    let mut oracle = Oracle::new(&data.relation, data.attr);

    // One query per distinct value before timing: the security check needs
    // the complete bin co-occurrence graph this produces, and pools and
    // caches fill.
    let mut warmup_wrong = 0;
    let exhaustive =
        QueryWorkload::uniform(&data.relation, data.attr, derive_seed(data.seed, "warm-up"))?
            .exhaustive();
    for values in exhaustive.chunks(w.queries_per_call) {
        let run = dep.executor.run_workload_transported(
            &mut dep.owner,
            &mut dep.router,
            values,
            &transport,
        )?;
        if !answers_match(&oracle, values, &run.answers) {
            warmup_wrong += 1;
        }
    }

    let mut phase = timed(
        &mut dep,
        service.as_ref(),
        &transport,
        &mut oracle,
        ops,
        trace,
        between_segments,
    )?;

    let mut shutdown_ms = None;
    if let Some(service) = service {
        let t = Instant::now();
        for (s, daemon) in service.daemons.into_iter().enumerate() {
            let mut servers = daemon.shutdown();
            let at = servers
                .iter()
                .position(|(id, _)| *id == TENANT)
                .ok_or_else(|| PdsError::Cloud(format!("shard {s} lost tenant {TENANT}")))?;
            dep.router.shards_mut()[s] = servers.swap_remove(at).1;
        }
        shutdown_ms = Some(t.elapsed().as_secs_f64() * 1e3);
    }
    if trace {
        // Daemon spans still open at the last answer close during shutdown.
        let rest = pds_obs::drain();
        phase.events.extend(rest.events);
        phase.dropped_spans += rest.dropped;
    }

    let t = Instant::now();
    let views = dep.router.adversarial_views();
    let secure = check_sharded_partitioned_security(&views).is_secure();
    let check_ms = t.elapsed().as_secs_f64() * 1e3;
    let episodes = views.iter().map(|v| v.len() as u64).sum();
    Ok(Pass {
        phase,
        warmup_wrong,
        spawn_ms,
        shutdown_ms,
        check_ms,
        secure,
        episodes,
    })
}

fn answers_match(oracle: &Oracle, values: &[Value], answers: &[Vec<Tuple>]) -> bool {
    values.len() == answers.len()
        && values
            .iter()
            .zip(answers)
            .all(|(v, a)| oracle.matches(v, a))
}

/// The timed calls of one pass, with counters snapshotted around them.
/// They run in [`SEGMENTS`] equal segments, and `between_segments`
/// runs, untimed, between each two.
fn timed<E: SecureSelectionEngine>(
    dep: &mut Deployment<E>,
    service: Option<&Service>,
    transport: &BinTransport,
    oracle: &mut Oracle,
    ops: &[Op],
    trace: bool,
    between_segments: &mut dyn FnMut() -> Result<()>,
) -> Result<Phase> {
    let mut p = Phase::default();
    let before = counters(dep, service)?;
    if trace {
        let _ = pds_obs::drain();
        pds_obs::set_tracing(true);
    }
    let mut undrained = 0;
    let segment = ops.len().div_ceil(SEGMENTS).max(1);
    for (i, chunk) in ops.chunks(segment).enumerate() {
        if i > 0 {
            between_segments()?;
        }
        let cpu_before = cpu_seconds()?;
        let start = Instant::now();
        for op in chunk {
            if trace && undrained + op.len() > DRAIN_EVERY_OPS {
                let d = pds_obs::drain();
                p.events.extend(d.events);
                p.dropped_spans += d.dropped;
                undrained = 0;
            }
            undrained += op.len();
            call(dep, service, transport, oracle, op, &mut p);
        }
        p.wall_s += start.elapsed().as_secs_f64();
        p.cpu_s += cpu_seconds()? - cpu_before;
    }
    // Before shutdown and the security check, which clones every view.
    p.rss_mb = peak_rss_mb()?;
    if trace {
        pds_obs::set_tracing(false);
    }
    let after = counters(dep, service)?;
    p.counters = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect();
    Ok(p)
}

/// Performs and checks one call, recording it in `p`.
fn call<E: SecureSelectionEngine>(
    dep: &mut Deployment<E>,
    service: Option<&Service>,
    transport: &BinTransport,
    oracle: &mut Oracle,
    op: &Op,
    p: &mut Phase,
) {
    p.attempted += op.len() as u64;
    match op {
        Op::Read(values) => {
            let t = Instant::now();
            let run = dep.executor.run_workload_transported(
                &mut dep.owner,
                &mut dep.router,
                values,
                transport,
            );
            let ms = t.elapsed().as_secs_f64() * 1e3;
            match run {
                Ok(run) => {
                    p.read_ms.push(ms);
                    p.queries += values.len() as u64;
                    p.rounds += run.rounds;
                    let t = Instant::now();
                    if !answers_match(oracle, values, &run.answers) {
                        p.wrong += 1;
                    }
                    p.check_s += t.elapsed().as_secs_f64();
                }
                Err(e) => {
                    p.failed += values.len() as u64;
                    p.first_error.get_or_insert(e.to_string());
                }
            }
        }
        Op::Insert(tuple) => {
            let t = Instant::now();
            match insert_everywhere(service, tuple, p) {
                Ok(()) => {
                    p.write_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    p.inserts += 1;
                    let t = Instant::now();
                    dep.executor
                        .invalidate_cache_on_insert(tuple.value(oracle.attr), false);
                    p.invalidate_s += t.elapsed().as_secs_f64();
                    oracle.insert(tuple);
                }
                Err(e) => {
                    p.failed += 1;
                    p.first_error.get_or_insert(e.to_string());
                }
            }
        }
    }
}

/// Sends one `InsertRequest` to every shard and waits for each `Ack`.
fn insert_everywhere(service: Option<&Service>, tuple: &Tuple, p: &mut Phase) -> Result<()> {
    let service = service.ok_or_else(|| PdsError::Config("inserts need the TCP service".into()))?;
    let msg = WireMessage::InsertRequest(InsertRequest {
        plain_tuples: vec![tuple.clone()],
        encrypted_rows: Vec::new(),
    });
    for s in 0..service.daemons.len() {
        let mut conn = service.client.checkout(s)?;
        let t = Instant::now();
        let resp = conn.call(&msg);
        p.insert_call_s += t.elapsed().as_secs_f64();
        p.insert_calls += 1;
        match resp? {
            WireMessage::Ack(ack) if ack.items == 1 => service.client.checkin(s, conn),
            WireMessage::Error(e) => return Err(e.into_error()),
            other => {
                return Err(PdsError::Wire(format!(
                    "insert on shard {s} answered with {}",
                    other.name()
                )))
            }
        }
    }
    Ok(())
}

/// Snapshots the cloud's work counters (from each daemon's tenant-scoped
/// stats, or the in-process router) plus the owner's, the cache's, the
/// frame-buffer pool's and the client's.
fn counters<E: SecureSelectionEngine>(
    dep: &Deployment<E>,
    service: Option<&Service>,
) -> Result<Counters> {
    let mut c = Counters::new();
    match service {
        Some(service) => {
            for s in 0..service.daemons.len() {
                for line in service.client.fetch_stats(s)?.lines() {
                    if let Some((name, value)) = prometheus_sample(line) {
                        *c.entry(name.to_string()).or_default() += value;
                    }
                }
            }
            c.insert("tcp_reconnects".into(), service.client.reconnects() as f64);
        }
        None => {
            let m = dep.router.metrics();
            for (name, value) in [
                ("pds_wire_bytes_uploaded_total", m.bytes_uploaded),
                ("pds_wire_bytes_downloaded_total", m.bytes_downloaded),
                ("pds_wire_frames_total", m.wire_frames),
                ("pds_round_trips_total", m.round_trips),
                ("pds_tuples_returned_total", m.tuples_returned),
                ("pds_fake_tuples_returned_total", m.fake_tuples_returned),
                (
                    "pds_plaintext_tuples_scanned_total",
                    m.plaintext_tuples_scanned,
                ),
                (
                    "pds_encrypted_tuples_scanned_total",
                    m.encrypted_tuples_scanned,
                ),
            ] {
                c.insert(name.into(), value as f64);
            }
        }
    }
    let cache = dep.executor.cache_stats();
    let pool = pds_proto::pool_stats();
    for (name, value) in [
        ("owner_decryptions", dep.owner.metrics().owner_decryptions),
        ("cache_hits", cache.hits),
        ("cache_misses", cache.misses),
        ("pool_hits", pool.hits),
        ("pool_misses", pool.misses),
        ("pool_reader_grows", pool.reader_grows),
    ] {
        c.insert(name.into(), value as f64);
    }
    Ok(c)
}

/// `name{labels} value` → (name, value); comments and blanks → `None`.
fn prometheus_sample(line: &str) -> Option<(&str, f64)> {
    if line.starts_with('#') {
        return None;
    }
    let name_end = line.find(['{', ' '])?;
    let value = line.rsplit(' ').next()?.parse().ok()?;
    Some((&line[..name_end], value))
}

/// User plus system CPU seconds of the whole process (owner, executor
/// fan-out and daemons alike), from fields 14 and 15 of `/proc/self/stat`.
fn cpu_seconds() -> Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| PdsError::Config(format!("cannot read /proc/self/stat: {e}")))?;
    // The fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        // Linux reports these in USER_HZ, which is 100.
        (Some(user), Some(system)) => Ok((user + system) / 100.0),
        _ => Err(PdsError::Config("malformed /proc/self/stat".into())),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| PdsError::Config(format!("cannot read /proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| PdsError::Config("no VmHWM in /proc/self/status".into()))
}

// ----- metrics --------------------------------------------------------------

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metric(name: &str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
        samples,
    }
}

/// Nearest-rank percentile in the sample unit, or 0 when the sample set is
/// too small to support it (see [`stats::MIN_SAMPLES_BEYOND`]).
fn percentile(name: &str, samples: &[f64], p: f64) -> Metric {
    let mut sorted = samples.to_vec();
    stats::sort(&mut sorted);
    let value = stats::nearest_rank(&sorted, p).unwrap_or(0.0);
    metric(name, "ms", value, samples.len() as u64)
}

/// What a user pays per operation: set-up time, bytes and rounds over the
/// WAN, and the daemons' memory. Wall-clock rates and latencies are
/// per-layer: on a shared 2-core machine they do not repeat within 10%
/// from one run to the next.
fn end_to_end(setup: &SetupTimes, main: &Pass) -> Vec<Metric> {
    let p = &main.phase;
    let ops = p.ops();
    let bytes = p
        .counters
        .get("pds_wire_bytes_uploaded_total")
        .copied()
        .unwrap_or(0.0)
        + p.counters
            .get("pds_wire_bytes_downloaded_total")
            .copied()
            .unwrap_or(0.0);
    vec![
        metric(
            "setup_s",
            "s",
            stats::median(&setup.total_s),
            setup.total_s.len() as u64,
        ),
        metric("wire_bytes_per_op", "B", ratio(bytes, ops as f64), ops),
        metric(
            "rounds_per_query",
            "rounds",
            ratio(p.rounds as f64, p.queries as f64),
            p.queries,
        ),
        metric("rss_peak_mb", "MiB", p.rss_mb, 1),
    ]
}

fn per_layer(setup: &SetupTimes, main: &Pass, traced: &Pass) -> Vec<Metric> {
    let p = &main.phase;
    let q = p.queries;
    let count = |name: &str| p.counters.get(name).copied().unwrap_or(0.0);
    let per_query = |name: &str| ratio(count(name), q as f64);
    let builds = setup.total_s.len() as u64;
    let ops = p.ops();
    let mut m = vec![
        metric("ops_per_s", "ops/s", p.ops_per_s(), ops),
        percentile("p50_ms", &p.read_ms, 50.0),
        percentile("p99_ms", &p.read_ms, 99.0),
        metric("cpu_ms_per_op", "ms", ratio(p.cpu_s * 1e3, ops as f64), ops),
        percentile("write_p50_ms", &p.write_ms, 50.0),
        percentile("write_p99_ms", &p.write_ms, 99.0),
        metric(
            "failed_frac",
            "ratio",
            ratio(p.failed as f64, p.attempted as f64),
            p.attempted,
        ),
        metric(
            "storage.split_ms",
            "ms",
            stats::median(&setup.split_ms),
            builds,
        ),
        metric(
            "binning.build_ms",
            "ms",
            stats::median(&setup.binning_ms),
            builds,
        ),
        metric(
            "executor.outsource_ms",
            "ms",
            stats::median(&setup.outsource_ms),
            builds,
        ),
        metric(
            "service.spawn_ms",
            "ms",
            main.spawn_ms.unwrap_or(0.0),
            u64::from(main.spawn_ms.is_some()),
        ),
        metric(
            "tcp.insert_call_us",
            "us",
            ratio(p.insert_call_s * 1e6, p.insert_calls as f64),
            p.insert_calls,
        ),
        metric(
            "cache.invalidate_us",
            "us",
            ratio(p.invalidate_s * 1e6, p.inserts as f64),
            p.inserts,
        ),
        metric(
            "bench.check_pct",
            "%",
            ratio(p.check_s * 100.0, p.wall_s),
            q,
        ),
        metric(
            "service.shutdown_ms",
            "ms",
            main.shutdown_ms.unwrap_or(0.0),
            u64::from(main.shutdown_ms.is_some()),
        ),
        metric("adversary.check_ms", "ms", main.check_ms, 1),
        metric(
            "adversary.episodes_retained",
            "count",
            main.episodes as f64,
            1,
        ),
    ];
    for (name, source) in [
        ("cloud.frames_per_query", "pds_wire_frames_total"),
        (
            "cloud.tuples_returned_per_query",
            "pds_tuples_returned_total",
        ),
        (
            "cloud.fake_tuples_returned_per_query",
            "pds_fake_tuples_returned_total",
        ),
        ("cloud.round_trips_per_query", "pds_round_trips_total"),
        (
            "cloud.encrypted_tuples_scanned_per_query",
            "pds_encrypted_tuples_scanned_total",
        ),
        (
            "cloud.plaintext_tuples_scanned_per_query",
            "pds_plaintext_tuples_scanned_total",
        ),
        ("owner.decryptions_per_query", "owner_decryptions"),
    ] {
        m.push(metric(name, "1/query", per_query(source), q));
    }
    let lookups = count("cache_hits") + count("cache_misses");
    let checkouts = count("pool_hits") + count("pool_misses");
    m.extend([
        metric(
            "cache.hit_rate",
            "ratio",
            ratio(count("cache_hits"), lookups),
            lookups as u64,
        ),
        metric(
            "proto.pool_hit_rate",
            "ratio",
            ratio(count("pool_hits"), checkouts),
            checkouts as u64,
        ),
        metric("proto.reader_grows", "count", count("pool_reader_grows"), 1),
        metric("tcp.reconnects", "count", count("tcp_reconnects"), 1),
        metric(
            "daemon.request_errors",
            "count",
            count("pds_daemon_request_errors_total"),
            1,
        ),
        metric(
            "daemon.handler_panics",
            "count",
            count("pds_daemon_handler_panics_total"),
            1,
        ),
    ]);

    let t = &traced.phase;
    let traced_ops = t.ops();
    let spans = span_totals(&t.events);
    let frames = t
        .counters
        .get("pds_wire_frames_total")
        .copied()
        .unwrap_or(0.0);
    let encodes = spans.get("frame.encode").map_or(0, |&(count, _)| count);
    m.push(metric(
        "frame.encodes_per_frame",
        "ratio",
        ratio(encodes as f64, frames),
        frames as u64,
    ));
    for name in SPAN_NAMES {
        let (count, self_ns) = spans.get(name).copied().unwrap_or((0, 0));
        m.push(metric(
            &format!("span.{name}.self_us_per_op"),
            "us/op",
            ratio(self_ns as f64 / 1e3, traced_ops as f64),
            count,
        ));
        m.push(metric(
            &format!("span.{name}.count_per_op"),
            "1/op",
            ratio(count as f64, traced_ops as f64),
            traced_ops,
        ));
    }
    m.push(metric(
        "obs.tracing_overhead_pct",
        "%",
        100.0 * ratio(p.ops_per_s() - t.ops_per_s(), p.ops_per_s()),
        traced_ops,
    ));
    m.push(metric(
        "obs.dropped_spans",
        "count",
        t.dropped_spans as f64,
        1,
    ));
    m
}

/// Span count and self time by name, through `pds_obs::analyze_trace`.
fn span_totals(events: &[TraceEvent]) -> HashMap<String, (u64, u64)> {
    let lines: Vec<String> = events.iter().map(TraceEvent::to_json_line).collect();
    match pds_obs::analyze_trace(lines.iter().map(String::as_str)) {
        Ok(report) => report
            .names
            .into_iter()
            .map(|t| (t.name, (t.count, t.self_ns)))
            .collect(),
        Err(_) => HashMap::new(),
    }
}
