//! Cost-based planner experiment: choose the engine per shard, don't obey it.
//!
//! Every earlier experiment *obeyed* its deployment: whichever engine a
//! shard was outsourced through served every episode.  This experiment runs
//! the optimizer end to end over a mixed suite — the paper's Employee
//! relation (exhaustive workload), a uniform pseudo-TPC-H workload, and a
//! Zipf-skewed one — and gates on the planner *earning* its keep:
//!
//! 1. every one of the six homogeneous deployments runs the suite with the
//!    residual applied owner-side (pushdown off); their per-(engine, shard)
//!    work deltas are what a [`pds_core::CostModel`] prices each candidate
//!    on, so the choice never reads a clock;
//! 2. a per-value pilot mounts the workload-skew attack against every
//!    shard's episode stream, yielding the per-shard linkage advantage;
//! 3. [`pds_core::choose_engines`] picks each shard's back-end — oblivious
//!    where the advantage exceeds the threshold, the cheapest estimated
//!    engine elsewhere — and the planner deployment runs the same suite
//!    with the residual pushed below the bin fetch;
//! 4. the gate: planner answers are **byte-identical** to the homogeneous
//!    baselines', partitioned data security holds per shard and composed,
//!    and against every homogeneous deployment meeting the same security
//!    bar the planner wins on rounds (≤), bytes (<), modelled seconds (<)
//!    and measured wall-clock (within [`WALL_SLACK`], each deployment's
//!    fastest of [`WALL_RUNS`] runs taken in rounds alongside the others).
//!
//! A homogeneous deployment whose back-end does not hide the access
//! pattern is **disqualified** (not a fair competitor) on suites where any
//! shard's measured linkage advantage exceeds the threshold: the planner
//! only races deployments offering equal attack-checked security.

use std::collections::BTreeMap;

use pds_adversary::{check_sharded_partitioned_security, WorkloadSkewAttack};
use pds_cloud::{BinTransport, Metrics, NetworkModel};
use pds_common::{PdsError, Result, Value};
use pds_core::planner::ADVANTAGE_THRESHOLD;
use pds_core::{choose_engines, CostModel, EngineCandidate, PlannerConfig};
use pds_storage::{PartitionedRelation, Partitioner, Predicate};
use pds_systems::{
    oblivious, ArxEngine, DeterministicIndexEngine, DpfEngine, NonDetScanEngine,
    SecretSharingEngine, SecureSelectionEngine,
};
use pds_workload::{employee_relation, employee_sensitivity_policy, QueryWorkload};

use crate::deploy::{
    answer_bytes, hetero_qb_deployment_over, lineitem, partition_at_alpha, ShardedQbDeployment,
    SEARCH_ATTR,
};

/// The six homogeneous deployments the planner must beat.
pub const HOMOGENEOUS: [&str; 6] = [
    "det-index",
    "nondet-scan",
    "arx-index",
    "secret-sharing",
    "dpf",
    "opaque-sim",
];

/// Measured wall-clock slack the planner is allowed over each baseline.
/// The modelled axes (rounds, bytes, simulated seconds) are exact and
/// gated strictly; the measured fan-out of these micro-batches sits in the
/// tens of microseconds on a debug build, where scheduler noise swamps the
/// signal, so the wall-clock gate only rejects pathological slowdowns.
pub const WALL_SLACK: f64 = 2.0;

/// Timed runs of each deployment's workload, after an untimed first run:
/// the wall-clock gate reads a deployment's fastest run, taken in rounds
/// that run every deployment once, so a busy stretch of the machine slows
/// the deployments it compares alike instead of flipping the comparison.
/// Debug builds, whose timings say little about an optimised build, time
/// once.
pub const WALL_RUNS: usize = if cfg!(debug_assertions) { 1 } else { 5 };

/// Nominal owner↔cloud round-trip latency the cost model charges per
/// round when ranking back-ends (10 ms — a WAN figure).  The paper's
/// communication model prices bytes only, but round-trip latency is
/// exactly why composed one-round episodes exist, so the planner must see
/// it to prefer them over cheap-but-chatty fine-grained procedures.
pub const ROUND_TRIP_SEC: f64 = 0.010;

/// One suite scenario: a partitioned relation, its searchable attribute,
/// the query batch, and the residual predicate constraining every query.
struct Scenario {
    name: &'static str,
    parts: PartitionedRelation,
    attr: &'static str,
    shards: usize,
    workload: Vec<Value>,
    residual: Predicate,
}

/// The planner's decision for one (scenario, shard), as printed by
/// `experiments planner`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedShard {
    /// Scenario the decision belongs to.
    pub scenario: &'static str,
    /// Shard index within the scenario.
    pub shard: usize,
    /// Measured workload-skew linkage advantage against this shard.
    pub advantage: f64,
    /// Whether the advantage forced the oblivious pool.
    pub oblivious_required: bool,
    /// The chosen back-end.
    pub engine: String,
    /// Whether the residual rides the wire to this shard.
    pub pushdown: bool,
    /// The cost estimate the choice minimised, seconds.
    pub estimated_sec: f64,
}

/// Suite-total cost of one deployment (planner or homogeneous).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeploymentCost {
    /// Engine name, or `"planner"` for the optimized deployment.
    pub engine: String,
    /// Owner↔cloud rounds over the whole suite.
    pub rounds: u64,
    /// Bytes moved over the whole suite (measured frame lengths).
    pub bytes: u64,
    /// Modelled seconds (computation under the per-shard engine profiles
    /// plus simulated communication) over the whole suite.
    pub modelled_sec: f64,
    /// Measured wall-clock seconds of the shard fan-outs: per scenario,
    /// the fastest of [`WALL_RUNS`] runs taken in rounds alongside the
    /// other deployments.
    pub measured_wall_sec: f64,
    /// Whether partitioned data security held per shard and composed on
    /// every scenario **and** the back-end meets the suite's advantage
    /// bar (hides the access pattern wherever advantage > threshold).
    pub secure: bool,
    /// Whether every answer was byte-identical to the reference.
    pub exact: bool,
}

/// The outcome `experiments planner` prints and gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerOutcome {
    /// Per-(scenario, shard) planner decisions.
    pub plans: Vec<PlannedShard>,
    /// Suite totals of the planner deployment.
    pub planner: DeploymentCost,
    /// Suite totals of the six homogeneous deployments.
    pub homogeneous: Vec<DeploymentCost>,
}

impl PlannerOutcome {
    /// Whether the planner beat one specific homogeneous deployment on
    /// every cost axis.
    pub fn beats(&self, h: &DeploymentCost) -> bool {
        self.planner.rounds <= h.rounds
            && self.planner.bytes < h.bytes
            && self.planner.modelled_sec < h.modelled_sec
            && self.planner.measured_wall_sec <= h.measured_wall_sec * WALL_SLACK
    }

    /// The gate `experiments planner` enforces: the planner deployment is
    /// secure and exact, at least one homogeneous competitor met the same
    /// security bar, and the planner beats every one that did.
    pub fn holds(&self) -> bool {
        self.planner.secure
            && self.planner.exact
            && self.homogeneous.iter().any(|h| h.secure)
            && self
                .homogeneous
                .iter()
                .all(|h| h.exact && (!h.secure || self.beats(h)))
    }
}

/// One back-end by its [`SecureSelectionEngine::name`].
fn engine_named(name: &str, seed: u64) -> Result<Box<dyn SecureSelectionEngine>> {
    Ok(match name {
        "det-index" => Box::new(DeterministicIndexEngine::new()),
        "nondet-scan" => Box::new(NonDetScanEngine::new()),
        "arx-index" => Box::new(ArxEngine::new()),
        "secret-sharing" => Box::new(SecretSharingEngine::new(3, 5)),
        "dpf" => Box::new(DpfEngine::new(seed)),
        "opaque-sim" => Box::new(oblivious::opaque_sim()),
        other => {
            return Err(PdsError::Config(format!(
                "unknown planner engine {other:?}"
            )))
        }
    })
}

/// The union of both partitions' distinct values of `attr`.
fn distinct_union(parts: &PartitionedRelation, attr: &str) -> Result<Vec<Value>> {
    let id = parts.nonsensitive.schema().attr_id(attr)?;
    let mut all = parts.nonsensitive.distinct_values(id);
    for v in parts.sensitive.distinct_values(id) {
        if !all.contains(&v) {
            all.push(v);
        }
    }
    Ok(all)
}

/// The mixed suite: Employee (exhaustive), TPC-H uniform, TPC-H Zipf.
fn scenarios(tuples: usize, seed: u64) -> Result<Vec<Scenario>> {
    let employee = employee_relation();
    let policy = employee_sensitivity_policy(&employee)?;
    let employee_parts = Partitioner::new(policy).split(&employee)?;
    let employee_workload =
        QueryWorkload::explicit(distinct_union(&employee_parts, "EId")?, seed)?.exhaustive();
    // Offices 1–3 keep most of both streams but drop tuples on each side,
    // so pushdown genuinely filters the clear-text stream *and* the owner
    // genuinely filters the sensitive one.
    let employee_residual = Predicate::range(employee.schema(), "Office", 1i64, 3i64)?;

    let relation = lineitem(tuples, seed);
    let tpch_parts = partition_at_alpha(&relation, 0.3, seed)?;
    let attr = relation.schema().attr_id(SEARCH_ATTR)?;
    // Both TPC-H workloads cover every distinct value: the adversary's
    // association-indistinguishability check needs the full bin overlap
    // structure exercised, and a partial draw is (rightly) flagged as
    // distinguishable.  The Zipf scenario layers skewed repeats *on top*
    // of the exhaustive pass, so hot values repeat while coverage holds.
    let uniform =
        QueryWorkload::explicit(distinct_union(&tpch_parts, SEARCH_ATTR)?, seed)?.exhaustive();
    let mut zipf = QueryWorkload::explicit(
        distinct_union(&tpch_parts, SEARCH_ATTR)?,
        seed.wrapping_add(2),
    )?
    .exhaustive();
    zipf.extend(QueryWorkload::zipf(&relation, attr, 1.2, seed.wrapping_add(3))?.draw(tuples / 25));
    // L_QUANTITY is uniform on 1..=50, so the residual halves each answer.
    let tpch_residual = Predicate::range(relation.schema(), "L_QUANTITY", 1i64, 25i64)?;

    Ok(vec![
        Scenario {
            name: "employee",
            parts: employee_parts,
            attr: "EId",
            shards: 2,
            workload: employee_workload,
            residual: employee_residual,
        },
        Scenario {
            name: "tpch-uniform",
            parts: tpch_parts.clone(),
            attr: SEARCH_ATTR,
            shards: 4,
            workload: uniform,
            residual: tpch_residual.clone(),
        },
        Scenario {
            name: "tpch-zipf",
            parts: tpch_parts,
            attr: SEARCH_ATTR,
            shards: 4,
            workload: zipf,
            residual: tpch_residual,
        },
    ])
}

/// A deployment with one boxed back-end per shard.
type Deployment = ShardedQbDeployment<Box<dyn SecureSelectionEngine>>;

/// Builds a deployment of `engines` over a scenario with the given planner
/// configuration installed.
fn deploy(
    sc: &Scenario,
    engines: Vec<Box<dyn SecureSelectionEngine>>,
    config: PlannerConfig,
    seed: u64,
) -> Result<Deployment> {
    let mut dep = hetero_qb_deployment_over(
        sc.parts.clone(),
        sc.attr,
        engines,
        NetworkModel::paper_wan(),
        seed,
    )?;
    dep.executor.set_planner(config)?;
    Ok(dep)
}

/// One measured suite-scenario run of a deployment (its wall-clock is
/// timed apart, by [`fastest_walls`]).
struct RunMeasure {
    rounds: u64,
    bytes: u64,
    modelled_sec: f64,
    pds_secure: bool,
    answers: Vec<Vec<Vec<u8>>>,
    per_shard_delta: Vec<Metrics>,
}

/// The first run of `workload` on `dep`: its rounds, bytes, answers,
/// security and per-shard work deltas.
fn measure(dep: &mut Deployment, workload: &[Value]) -> Result<RunMeasure> {
    let before = dep.router.shard_metrics();
    let (breakdown, answers) = dep.run_and_cost_answers(workload, BinTransport::Sequential)?;
    let per_shard_delta: Vec<Metrics> = dep
        .router
        .shards()
        .iter()
        .enumerate()
        .map(|(idx, shard)| shard.metrics().delta_since(&before[idx]))
        .collect();
    let bytes = per_shard_delta.iter().map(Metrics::total_bytes).sum();
    let pds_secure =
        check_sharded_partitioned_security(&dep.router.adversarial_views()).is_secure();
    Ok(RunMeasure {
        rounds: breakdown.rounds,
        bytes,
        modelled_sec: breakdown.aggregate.total_sec(),
        pds_secure,
        answers: answer_bytes(&answers),
        per_shard_delta,
    })
}

/// Each deployment's fastest of [`WALL_RUNS`] timed runs of `workload`,
/// taken in rounds that run every deployment of `deps` once.
fn fastest_walls(deps: &mut [&mut Deployment], workload: &[Value]) -> Result<Vec<f64>> {
    let mut fastest = vec![f64::INFINITY; deps.len()];
    for _ in 0..WALL_RUNS {
        for (dep, best) in deps.iter_mut().zip(&mut fastest) {
            let (run, _) = dep.run_and_cost_answers(workload, BinTransport::Sequential)?;
            *best = best.min(run.measured_wall_sec);
        }
    }
    Ok(fastest)
}

/// Mounts the workload-skew attack against every shard of a pilot
/// deployment run value-by-value (one episode per query, so per-shard
/// ground truth is exact), returning each shard's linkage advantage.
fn shard_advantages(sc: &Scenario, seed: u64) -> Result<Vec<f64>> {
    let engines: Vec<Box<dyn SecureSelectionEngine>> = (0..sc.shards)
        .map(|_| engine_named("det-index", seed))
        .collect::<Result<_>>()?;
    let mut dep = deploy(sc, engines, PlannerConfig::default(), seed)?;
    let mut truth: Vec<Vec<Value>> = vec![Vec::new(); sc.shards];
    let mut seen: Vec<usize> = vec![0; sc.shards];
    for value in &sc.workload {
        dep.executor
            .select(&mut dep.owner, &mut dep.router, value)?;
        for (idx, shard) in dep.router.shards().iter().enumerate() {
            let len = shard.adversarial_view().len();
            if len > seen[idx] {
                truth[idx].push(value.clone());
                seen[idx] = len;
            }
        }
    }
    let mut advantages = Vec::with_capacity(sc.shards);
    for (idx, shard) in dep.router.shards().iter().enumerate() {
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        for v in &truth[idx] {
            *counts.entry(v.clone()).or_insert(0) += 1;
        }
        let mut ranked: Vec<(Value, usize)> = counts.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let popularity: Vec<Value> = ranked.into_iter().map(|(v, _)| v).collect();
        let outcome = WorkloadSkewAttack::run(shard.adversarial_view(), &popularity, &truth[idx]);
        advantages.push(outcome.advantage());
    }
    Ok(advantages)
}

impl DeploymentCost {
    fn absorb(&mut self, m: &RunMeasure, wall_sec: f64, advantage_ok: bool, exact: bool) {
        self.rounds += m.rounds;
        self.bytes += m.bytes;
        self.modelled_sec += m.modelled_sec;
        self.measured_wall_sec += wall_sec;
        self.secure &= m.pds_secure && advantage_ok;
        self.exact &= exact;
    }
}

/// Runs the full planner experiment over the mixed suite.
pub fn run(tuples: usize, seed: u64) -> Result<PlannerOutcome> {
    let suite = scenarios(tuples, seed)?;

    let mut plans_out = Vec::new();
    let mut planner_total = DeploymentCost {
        engine: "planner".into(),
        secure: true,
        exact: true,
        ..DeploymentCost::default()
    };
    let mut homo_totals: Vec<DeploymentCost> = HOMOGENEOUS
        .iter()
        .map(|name| DeploymentCost {
            engine: (*name).to_string(),
            secure: true,
            exact: true,
            ..DeploymentCost::default()
        })
        .collect();

    for sc in &suite {
        let advantages = shard_advantages(sc, seed)?;
        let hot = advantages.iter().any(|&a| a > ADVANTAGE_THRESHOLD);

        // Homogeneous baselines: residual owner-side, no pushdown.  Their
        // first runs' per-(engine, shard) work deltas price the candidates.
        let baseline_config = PlannerConfig {
            residual: Some(sc.residual.clone()),
            pushdown: false,
        };
        let mut model = CostModel::default();
        model.set_round_trip_cost(ROUND_TRIP_SEC);
        let mut candidates = Vec::with_capacity(HOMOGENEOUS.len());
        let mut baselines = Vec::with_capacity(HOMOGENEOUS.len());
        let mut measures = Vec::with_capacity(HOMOGENEOUS.len());
        for name in HOMOGENEOUS {
            let engines: Vec<Box<dyn SecureSelectionEngine>> = (0..sc.shards)
                .map(|_| engine_named(name, seed))
                .collect::<Result<_>>()?;
            model.seed_engine(engines[0].name(), engines[0].cost_profile());
            candidates.push(EngineCandidate::of(engines[0].as_ref()));
            let mut dep = deploy(sc, engines, baseline_config.clone(), seed)?;
            let m = measure(&mut dep, &sc.workload)?;
            for (shard, delta) in m.per_shard_delta.iter().enumerate() {
                model.observe(name, shard, delta);
            }
            measures.push(m);
            baselines.push(dep);
        }

        // The optimizer's choice, deployed with pushdown on.
        let plans = choose_engines(&model, &candidates, &advantages, ADVANTAGE_THRESHOLD)?;
        let engines: Vec<Box<dyn SecureSelectionEngine>> = plans
            .iter()
            .map(|p| engine_named(&p.engine, seed))
            .collect::<Result<_>>()?;
        let planner_config = PlannerConfig {
            residual: Some(sc.residual.clone()),
            pushdown: true,
        };
        let mut dep = deploy(sc, engines, planner_config, seed)?;
        for plan in &plans {
            plans_out.push(PlannedShard {
                scenario: sc.name,
                shard: plan.shard,
                advantage: advantages[plan.shard],
                oblivious_required: plan.oblivious_required,
                engine: plan.engine.clone(),
                pushdown: true,
                estimated_sec: plan.estimated_sec,
            });
        }
        let m = measure(&mut dep, &sc.workload)?;

        // The gate's wall-clocks: the planner and every baseline timed in
        // shared rounds.
        let mut timed: Vec<&mut Deployment> = std::iter::once(&mut dep)
            .chain(baselines.iter_mut())
            .collect();
        let walls = fastest_walls(&mut timed, &sc.workload)?;
        let reference = &measures[0].answers;
        planner_total.absorb(&m, walls[0], true, m.answers == *reference);
        for (((total, b), wall_sec), candidate) in homo_totals
            .iter_mut()
            .zip(&measures)
            .zip(&walls[1..])
            .zip(&candidates)
        {
            // Non-hiding back-ends are not fair competitors on a suite
            // whose measured advantage demands oblivious service.
            let advantage_ok = candidate.hides_access_pattern || !hot;
            total.absorb(b, *wall_sec, advantage_ok, b.answers == *reference);
        }
    }

    Ok(PlannerOutcome {
        plans: plans_out,
        planner: planner_total,
        homogeneous: homo_totals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planner_beats_every_secure_homogeneous_deployment() {
        let outcome = run(600, 42).unwrap();
        assert!(outcome.planner.secure, "{outcome:?}");
        assert!(outcome.planner.exact, "{outcome:?}");
        // Decisions cover every (scenario, shard) of the suite.
        assert_eq!(outcome.plans.len(), 2 + 4 + 4);
        // Every baseline answered identically — the residual semantics are
        // engine-independent.
        assert!(outcome.homogeneous.iter().all(|h| h.exact), "{outcome:?}");
        // The oblivious baseline is always a fair (secure) competitor.
        assert!(
            outcome
                .homogeneous
                .iter()
                .any(|h| h.engine == "opaque-sim" && h.secure),
            "{outcome:?}"
        );
        assert!(outcome.holds(), "{outcome:?}");
        // Pushdown strictly shrinks the downlink against the cheapest
        // homogeneous index deployment, without extra rounds.
        let det = outcome
            .homogeneous
            .iter()
            .find(|h| h.engine == "det-index")
            .unwrap();
        assert!(
            outcome.planner.bytes < det.bytes,
            "pushdown must shrink the downlink: {} vs {}",
            outcome.planner.bytes,
            det.bytes
        );
        assert!(outcome.planner.rounds <= det.rounds);
    }

    #[test]
    fn unknown_engine_name_is_rejected() {
        assert!(engine_named("no-such-engine", 1).is_err());
    }
}
