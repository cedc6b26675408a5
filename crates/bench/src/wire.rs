//! Wire-protocol experiment: byte-accurate bytes moved and a
//! simulated-network wall-clock, swept over latency × bandwidth × shards.
//!
//! Every owner↔cloud interaction is charged the length of the `pds-proto`
//! frame that carries it (frame headers, CRC trailers and all), counted by
//! running the codec's own writers, so the bytes column is what the wire
//! carries, not an estimate.  Each cell's deployment charges its frames to
//! the cell's link: every shard adds `latency + bytes/bandwidth` per
//! exchange to its own clock, and the timing column is the busiest
//! shard's ([`pds_cloud::ShardRouter::parallel_comm_time`]).  Shards are
//! independent links, so per-shard latency overlaps — simulated time for
//! `N` shards stays well below `N ×` the single-shard time at fixed
//! latency, which the thread-based transport could never show for the
//! *network* component (threads only overlap compute).
//!
//! Each cell's answers are compared byte-for-byte with the identical
//! workload on an identical deployment over the paper's WAN link, and
//! partitioned data security is checked per shard and composed — the wire
//! format and the link are pure accounting and must change nothing
//! observable.

use pds_adversary::check_sharded_partitioned_security;
use pds_cloud::{BinTransport, NetworkModel};
use pds_common::{Result, Value};
use pds_core::PlanMode;
use pds_storage::Tuple;
use pds_systems::{DeterministicIndexEngine, NonDetScanEngine};

use crate::deploy::{lineitem, sharded_qb_deployment, ShardedQbDeployment};

/// One cell of the latency × bandwidth × shard-count sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePoint {
    /// One-way-fixed round-trip latency of the simulated links, in seconds.
    pub latency_sec: f64,
    /// Bandwidth of the simulated links, in megabits per second.
    pub bandwidth_mbps: f64,
    /// Shards the deployment ran over.
    pub shards: usize,
    /// Queries executed (the exhaustive workload, one per distinct value).
    pub queries: usize,
    /// Bytes moved between owner and cloud — frame lengths summed over
    /// every exchange of the workload.
    pub wire_bytes: u64,
    /// Wire frames moved (each request and each response is one frame).
    pub wire_frames: u64,
    /// Simulated-network wall-clock of the workload's fan-out: the busiest
    /// shard's communication time, with per-shard links overlapping.
    pub sim_wall_sec: f64,
    /// Whether every answer was byte-identical to the same workload on an
    /// identical deployment over the paper's WAN link.
    pub exact: bool,
    /// Whether partitioned data security held on every shard's view and on
    /// the composed view after the exhaustive workload.
    pub secure: bool,
}

/// Per-query answers as sorted encoded tuples, for byte-level comparison.
type EncodedAnswers = Vec<Vec<Vec<u8>>>;

/// One cell's run outcome: answers, simulated network clock, and the wire
/// traffic the run moved.
struct CellRun {
    answers: EncodedAnswers,
    sim_wall_sec: f64,
    wire_bytes: u64,
    wire_frames: u64,
}

/// Answers as sorted encoded tuples, for byte-level comparison.
fn answer_bytes(answers: &[Vec<Tuple>]) -> EncodedAnswers {
    answers
        .iter()
        .map(|ts| {
            let mut out: Vec<Vec<u8>> = ts.iter().map(Tuple::encode).collect();
            out.sort();
            out
        })
        .collect()
}

fn deployment(
    relation: &pds_storage::Relation,
    shards: usize,
    link: NetworkModel,
    seed: u64,
) -> Result<ShardedQbDeployment<NonDetScanEngine>> {
    sharded_qb_deployment(relation, 0.3, shards, NonDetScanEngine::new(), link, seed)
}

/// Runs the exhaustive workload over one freshly built deployment, whose
/// clocks were reset after outsourcing, so the busiest shard's clock is
/// this run's simulated network time.
fn run_cell(
    dep: &mut ShardedQbDeployment<NonDetScanEngine>,
    workload: &[Value],
) -> Result<CellRun> {
    let before = dep.router.metrics();
    let run = dep.executor.run_workload_transported(
        &mut dep.owner,
        &mut dep.router,
        workload,
        &BinTransport::Sequential,
    )?;
    let delta = dep.router.metrics().delta_since(&before);
    Ok(CellRun {
        answers: answer_bytes(&run.answers),
        sim_wall_sec: dep.router.parallel_comm_time(),
        wire_bytes: delta.total_bytes(),
        wire_frames: delta.wire_frames,
    })
}

/// Sweeps `latencies_sec` × `bandwidths_mbps` × `shard_counts` over a
/// `tuples`-row pseudo-TPC-H relation, running the exhaustive point-query
/// workload (one query per distinct search value) in each cell.
pub fn run(
    tuples: usize,
    latencies_sec: &[f64],
    bandwidths_mbps: &[f64],
    shard_counts: &[usize],
    seed: u64,
) -> Result<Vec<WirePoint>> {
    let relation = lineitem(tuples, seed);
    // The baseline answers depend only on (relation, shards, seed) — never
    // on the simulated link — so run them once per shard count, outside
    // the latency x bandwidth sweep.
    let mut baselines: Vec<(usize, Vec<Value>, EncodedAnswers)> =
        Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let mut baseline = deployment(&relation, shards, NetworkModel::paper_wan(), seed)?;
        let workload = baseline.workload(seed.wrapping_add(1))?.exhaustive();
        let expected = run_cell(&mut baseline, &workload)?;
        baselines.push((shards, workload, expected.answers));
    }
    let mut out =
        Vec::with_capacity(latencies_sec.len() * bandwidths_mbps.len() * shard_counts.len());
    for &latency_sec in latencies_sec {
        for &bandwidth_mbps in bandwidths_mbps {
            let link = NetworkModel {
                bandwidth_bytes_per_sec: bandwidth_mbps * 1e6 / 8.0,
                latency_sec,
            };
            for (shards, workload, expected) in &baselines {
                let shards = *shards;
                // The same deployment over this cell's link: answers must
                // be byte-identical to the baseline.
                let mut dep = deployment(&relation, shards, link, seed)?;
                let cell = run_cell(&mut dep, workload)?;
                let exact = &cell.answers == expected;

                // Partitioned data security after the exhaustive workload,
                // per shard and composed.
                let secure =
                    check_sharded_partitioned_security(&dep.router.adversarial_views()).is_secure();

                out.push(WirePoint {
                    latency_sec,
                    bandwidth_mbps,
                    shards,
                    queries: workload.len(),
                    wire_bytes: cell.wire_bytes,
                    wire_frames: cell.wire_frames,
                    sim_wall_sec: cell.sim_wall_sec,
                    exact,
                    secure,
                });
            }
        }
    }
    Ok(out)
}

/// One row of the composed-vs-fine-grained comparison: the identical
/// exhaustive workload over two identical deployments of a tag back-end,
/// once with every episode forced onto the fine-grained multi-round path
/// and once on the live composed path, where each episode is one
/// `FetchBinRequest`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundsPoint {
    /// Shards the deployments ran over.
    pub shards: usize,
    /// Queries executed per run.
    pub queries: usize,
    /// Owner↔cloud rounds of the fine-grained run.
    pub rounds_fine: u64,
    /// Owner↔cloud rounds of the composed run.
    pub rounds_composed: u64,
    /// Bytes moved by the fine-grained run (measured frame lengths).
    pub bytes_fine: u64,
    /// Bytes moved by the composed run.
    pub bytes_composed: u64,
    /// Episodes each run executed (both modes run the same plan).
    pub episodes: u64,
    /// `FetchBinRequest` frames the fine-grained run moved (more than one
    /// per episode: the clear-text and the sensitive fetch travel apart).
    pub requests_fine: u64,
    /// `FetchBinRequest` frames the composed run moved (exactly one per
    /// episode — the metrics-only proof the composed path is live).
    pub requests_composed: u64,
    /// Whether both runs' answers were byte-identical.
    pub exact: bool,
    /// Whether partitioned data security held (per shard and composed) on
    /// both deployments after the exhaustive workload.
    pub secure: bool,
}

fn det_deployment(
    relation: &pds_storage::Relation,
    shards: usize,
    seed: u64,
    mode: PlanMode,
) -> Result<ShardedQbDeployment<DeterministicIndexEngine>> {
    let mut dep = sharded_qb_deployment(
        relation,
        0.3,
        shards,
        DeterministicIndexEngine::new(),
        NetworkModel::paper_wan(),
        seed,
    )?;
    dep.executor.set_plan_mode(mode);
    Ok(dep)
}

/// Runs the composed-vs-fine-grained comparison for each shard count: the
/// same exhaustive workload over identical deterministic-index deployments
/// in both plan modes, reporting rounds, bytes, per-type frame counts, and
/// the exactness/security checks the gate enforces.
pub fn rounds_drop(tuples: usize, shard_counts: &[usize], seed: u64) -> Result<Vec<RoundsPoint>> {
    let relation = lineitem(tuples, seed);
    let mut out = Vec::with_capacity(shard_counts.len());
    for &shards in shard_counts {
        let mut cells = Vec::with_capacity(2);
        let mut episodes = 0;
        for mode in [PlanMode::FineGrained, PlanMode::Composed] {
            let mut dep = det_deployment(&relation, shards, seed, mode)?;
            let workload = dep.workload(seed.wrapping_add(1))?.exhaustive();
            let before = dep.router.metrics();
            let run = dep.executor.run_workload_transported(
                &mut dep.owner,
                &mut dep.router,
                &workload,
                &BinTransport::Sequential,
            )?;
            let delta = dep.router.metrics().delta_since(&before);
            let views = dep.router.adversarial_views();
            let secure = check_sharded_partitioned_security(&views).is_secure();
            // Both modes run the same plan, so either run's views count
            // its episodes.
            episodes = views.iter().map(|v| v.len() as u64).sum();
            cells.push((
                workload.len(),
                run.rounds,
                delta.total_bytes(),
                delta.frames_of_type(pds_cloud::msg_tag::FETCH_BIN_REQUEST),
                answer_bytes(&run.answers),
                secure,
            ));
        }
        let (queries, rounds_fine, bytes_fine, requests_fine, answers_fine, secure_fine) =
            cells.swap_remove(0);
        let (_, rounds_composed, bytes_composed, requests_composed, answers_composed, secure_comp) =
            cells.swap_remove(0);
        out.push(RoundsPoint {
            shards,
            queries,
            rounds_fine,
            rounds_composed,
            bytes_fine,
            bytes_composed,
            episodes,
            requests_fine,
            requests_composed,
            exact: answers_fine == answers_composed,
            secure: secure_fine && secure_comp,
        });
    }
    Ok(out)
}

/// The gate `experiments wire` enforces on the composed path: byte-identical
/// answers, security preserved, **strictly fewer rounds** than the
/// fine-grained path, no more than `1.1×` its bytes, and — provable from
/// metrics alone — exactly one request frame per composed episode, and
/// more in fine-grained mode.
pub fn rounds_gate_holds(points: &[RoundsPoint]) -> bool {
    !points.is_empty()
        && points.iter().all(|p| {
            p.exact
                && p.secure
                && p.rounds_composed < p.rounds_fine
                && (p.bytes_composed as f64) <= 1.1 * p.bytes_fine as f64
                && p.episodes > 0
                && p.requests_composed == p.episodes
                && p.requests_fine > p.episodes
        })
}

/// Checks the latency-overlap property the network clock must exhibit:
/// within every (latency, bandwidth) group, the simulated time at `N > 1`
/// shards must stay below `N ×` the single-shard simulated time
/// (independent links overlap; a serial network could only match the
/// product).
pub fn overlap_holds(points: &[WirePoint]) -> bool {
    points.iter().filter(|p| p.shards > 1).all(|p| {
        let single = points.iter().find(|q| {
            q.shards == 1 && q.latency_sec == p.latency_sec && q.bandwidth_mbps == p.bandwidth_mbps
        });
        match single {
            Some(s) => p.sim_wall_sec < p.shards as f64 * s.sim_wall_sec,
            None => true,
        }
    })
}

/// The round-trip latencies the experiment sweeps by default, in seconds.
pub fn default_latencies() -> Vec<f64> {
    vec![0.002, 0.020]
}

/// The link bandwidths the experiment sweeps by default, in Mbps (the
/// paper's 30 Mbps WAN plus a datacenter-class 1 Gbps link).
pub fn default_bandwidths() -> Vec<f64> {
    vec![30.0, 1000.0]
}

/// The shard counts the experiment sweeps by default.
pub fn default_shards() -> Vec<usize> {
    vec![1, 4]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_cells_are_exact_secure_and_overlapping() {
        let points = run(1_200, &[0.01], &[30.0], &[1, 4], 42).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.exact, "answers diverged: {p:?}");
            assert!(p.secure, "security violated: {p:?}");
            assert!(p.wire_bytes > 0 && p.wire_frames > 0);
            assert!(p.sim_wall_sec > 0.0);
            assert!(p.queries > 0);
        }
        assert!(overlap_holds(&points), "{points:?}");
        // Latency must genuinely overlap: 4 shards moving the same total
        // workload finish far sooner than 4x the single-shard clock.
        assert!(
            points[1].sim_wall_sec < 4.0 * points[0].sim_wall_sec,
            "sim(4 shards) {} !< 4 x sim(1 shard) {}",
            points[1].sim_wall_sec,
            points[0].sim_wall_sec
        );
    }

    #[test]
    fn higher_latency_slows_the_simulated_clock() {
        let points = run(1_200, &[0.001, 0.050], &[100.0], &[2], 42).unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[0].sim_wall_sec < points[1].sim_wall_sec,
            "50ms links must be slower than 1ms links: {points:?}"
        );
        // Same deployment, same workload: identical bytes on the wire.
        assert_eq!(points[0].wire_bytes, points[1].wire_bytes);
        assert_eq!(points[0].wire_frames, points[1].wire_frames);
    }

    #[test]
    fn more_bandwidth_speeds_the_simulated_clock() {
        let points = run(1_200, &[0.0], &[10.0, 1000.0], &[2], 42).unwrap();
        assert!(
            points[0].sim_wall_sec > points[1].sim_wall_sec,
            "10 Mbps must be slower than 1 Gbps: {points:?}"
        );
    }

    #[test]
    fn default_sweeps_are_nonempty() {
        assert_eq!(default_latencies().len(), 2);
        assert_eq!(default_bandwidths().len(), 2);
        assert_eq!(default_shards(), vec![1, 4]);
    }

    #[test]
    fn composed_path_drops_rounds_at_identical_answers() {
        let points = rounds_drop(1_200, &[1, 4], 42).unwrap();
        assert_eq!(points.len(), 2);
        for p in &points {
            assert!(p.exact, "answers diverged: {p:?}");
            assert!(p.secure, "security violated: {p:?}");
            assert!(
                p.rounds_composed < p.rounds_fine,
                "composed must use strictly fewer rounds: {p:?}"
            );
            assert!(
                p.bytes_composed as f64 <= 1.1 * p.bytes_fine as f64,
                "composed bytes blew past 1.1x the baseline: {p:?}"
            );
            // Provable from metrics alone: every composed episode moved one
            // request frame; every fine-grained episode moved two.
            assert_eq!(p.episodes as usize, p.queries);
            assert_eq!(p.requests_composed, p.episodes);
            assert_eq!(p.requests_fine, 2 * p.episodes);
            // det-index episodes are 2 fine-grained rounds (tag select +
            // plaintext select) vs exactly 1 composed round per query.
            assert_eq!(p.rounds_composed as usize, p.queries);
            assert_eq!(p.rounds_fine as usize, 2 * p.queries);
        }
        assert!(rounds_gate_holds(&points));
        assert!(!rounds_gate_holds(&[]));
        let mut broken = points.clone();
        broken[0].rounds_composed = broken[0].rounds_fine;
        assert!(!rounds_gate_holds(&broken), "gate must catch a non-drop");
        let mut split = points.clone();
        split[0].requests_composed += 1;
        assert!(
            !rounds_gate_holds(&split),
            "gate must catch a composed episode sending two requests"
        );
    }
}
