//! The pipelined-dispatch experiment: an in-flight window of 1
//! (lock-step) vs a deeper window over identical loopback shard daemons.
//!
//! Both arms run the identical multi-pass Employee workload through the
//! same tenant deployment against the same daemons and the same episode
//! loop, `pds_core::execute_shard_pipelined`; only
//! [`QbExecutor::set_pipeline_window`] differs.  With a window of 1 the
//! loop writes one episode's `FetchBinRequest` and blocks for its answer before
//! writing the next; with a deeper window it enqueues a whole window of
//! correlated requests per shard (vectored writes, one flush), then
//! demuxes the responses by correlation id in whatever order the daemon's
//! workers finish them.
//!
//! The gate (`experiments pipeline`) requires, at `>= 2` shards:
//!
//! * **strictly faster** — pipelined wall-clock below lock-step;
//! * **shrinking blocked time** — the `wire.call` span (client blocked
//!   on a response read) must have *less self-time* in the pipelined
//!   arm, proving the win comes from overlapping round trips rather
//!   than moving the wait elsewhere;
//! * **byte-identical answers** — both arms equal the in-process
//!   threaded reference;
//! * **security intact** — per-shard and composed partitioned-security
//!   checks pass after the daemons hand their servers back;
//! * **hot-path reuse** — the `pds-proto` buffer pool served codec
//!   buffers from its free list (`pds_wire_buf_reuse_total` hits > 0).
//!
//! Pool counters are flushed into the *experiment's own* metrics
//! [`Registry`] — never the daemons' (their stats snapshots are gated
//! byte-stable across identical runs, and pool reuse depends on thread
//! scheduling).

use std::net::SocketAddr;
use std::time::Instant;

use pds_adversary::check_sharded_partitioned_security;
use pds_cloud::{
    BinRoutedCloud, BinTransport, CloudServer, DbOwner, NetworkModel, ServiceConfig, ShardDaemon,
    ShardRouter, TcpCloudClient,
};
use pds_common::{PdsError, Result, Value};
use pds_core::{BinningConfig, QbExecutor, QueryBinning};
use pds_obs::Registry;
use pds_proto::{pool_stats, PoolStats};
use pds_storage::{Partitioner, Tuple};
use pds_systems::DeterministicIndexEngine;
use pds_workload::{employee_relation, employee_sensitivity_policy};

/// Everything `experiments pipeline` prints and gates on.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Shard daemons both arms fanned out over.
    pub shards: usize,
    /// Point queries per arm run.
    pub queries: usize,
    /// In-flight window of the pipelined arm.
    pub window: usize,
    /// Timed runs per arm (each arm reports its fastest).
    pub reps: usize,
    /// Best lock-step wall-clock over the reps, in seconds.
    pub lock_step_sec: f64,
    /// Best pipelined wall-clock over the reps, in seconds.
    pub pipelined_sec: f64,
    /// Best (lowest) per-rep `wire.call` self-time (client blocked on a
    /// response read) over the lock-step reps, in nanoseconds.
    pub wire_call_lock_ns: u64,
    /// Best per-rep `wire.call` self-time over the pipelined reps.
    pub wire_call_pipe_ns: u64,
    /// Buffer-pool counter deltas over the whole experiment.
    pub pool: PoolStats,
    /// Whether every arm's every answer equalled the threaded reference.
    pub exact: bool,
    /// Whether per-shard and composed security held afterwards.
    pub secure: bool,
}

impl PipelineOutcome {
    /// Lock-step wall-clock over pipelined wall-clock.
    pub fn speedup(&self) -> f64 {
        if self.pipelined_sec > 0.0 {
            self.lock_step_sec / self.pipelined_sec
        } else {
            0.0
        }
    }

    /// The full `experiments pipeline` gate.
    pub fn holds(&self) -> bool {
        self.shards >= 2
            && self.exact
            && self.secure
            && self.pipelined_sec < self.lock_step_sec
            && self.wire_call_pipe_ns < self.wire_call_lock_ns
            && self.pool.hits > 0
    }

    /// Flushes the pool counter deltas as `pds_wire_buf_reuse_total`
    /// series into `registry` (the experiment's own — daemon registries
    /// must stay byte-stable across identical runs).
    pub fn flush_pool_metrics(&self, registry: &Registry) {
        for (event, value) in [
            ("hit", self.pool.hits),
            ("miss", self.pool.misses),
            ("return", self.pool.returns),
            ("reader_grow", self.pool.reader_grows),
        ] {
            registry.counter_set("pds_wire_buf_reuse_total", &[("event", event)], value);
        }
    }
}

struct Deployment {
    owner: DbOwner,
    router: ShardRouter,
    executor: QbExecutor<DeterministicIndexEngine>,
    workload: Vec<Value>,
    reference: Vec<Vec<Tuple>>,
}

/// One tenant over the Employee workload, repeated `passes` times, with
/// its in-process threaded reference answers recorded.  Cache capacity
/// stays 0 so every repeat pays a full wire round trip in both arms.
fn deployment(shards: usize, passes: usize, seed: u64) -> Result<Deployment> {
    let relation = employee_relation();
    let policy = employee_sensitivity_policy(&relation)?;
    let parts = Partitioner::new(policy).split(&relation)?;
    let attr = parts.sensitive.schema().attr_id("EId")?;
    let mut values = parts.sensitive.distinct_values(attr);
    for v in parts.nonsensitive.distinct_values(attr) {
        if !values.contains(&v) {
            values.push(v);
        }
    }
    let workload: Vec<Value> = values
        .iter()
        .cycle()
        .take(values.len() * passes.max(1))
        .cloned()
        .collect();
    let binning = QueryBinning::build(&parts, "EId", BinningConfig::default())?;
    let mut executor = QbExecutor::new(binning, DeterministicIndexEngine::new()).with_tenant(1);
    let mut owner = DbOwner::new(seed.wrapping_add(1));
    let mut router = ShardRouter::new(shards, NetworkModel::paper_wan(), seed.wrapping_mul(31))?;
    executor.outsource(&mut owner, &mut router, &parts)?;
    let reference = executor
        .run_workload_transported(&mut owner, &mut router, &workload, &BinTransport::Threaded)?
        .answers;
    Ok(Deployment {
        owner,
        router,
        executor,
        workload,
        reference,
    })
}

/// `wire.call` self-time (duration minus direct children) summed over
/// the drained spans of one timed run.
fn wire_call_self_ns(events: &[pds_obs::TraceEvent]) -> u64 {
    use std::collections::HashMap;
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for e in events {
        if e.parent != 0 {
            *child_ns.entry(e.parent).or_insert(0) += e.end_ns.saturating_sub(e.start_ns);
        }
    }
    events
        .iter()
        .filter(|e| e.name == "wire.call")
        .map(|e| {
            let total = e.end_ns.saturating_sub(e.start_ns);
            total.saturating_sub(child_ns.get(&e.id).copied().unwrap_or(0))
        })
        .sum()
}

/// Runs both wire disciplines `reps` times each (alternating, so drift
/// in machine load hits both arms equally) over `shards` daemons and
/// returns the gated outcome.
pub fn run(
    shards: usize,
    passes: usize,
    window: usize,
    reps: usize,
    seed: u64,
) -> Result<PipelineOutcome> {
    let reps = reps.max(1);
    let mut dep = deployment(shards, passes, seed)?;
    let pool_before = pool_stats();

    // Lift the tenant's shard servers into one daemon per shard; two
    // workers so responses can complete out of order without the extra
    // threads contending on the single tenant's server mutex.
    let mut hosted: Vec<Vec<(u64, CloudServer)>> = (0..shards).map(|_| Vec::new()).collect();
    for (s, server) in dep.router.shards_mut().iter_mut().enumerate() {
        hosted[s].push((1, std::mem::take(server)));
    }
    let daemons: Vec<ShardDaemon> = hosted
        .into_iter()
        .enumerate()
        .map(|(s, servers)| {
            ShardDaemon::spawn(servers, ServiceConfig::with_workers(2).with_shard(s as u64))
        })
        .collect::<Result<_>>()?;
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    let transport = BinTransport::Tcp(TcpCloudClient::new(1, addrs));

    let was_tracing = pds_obs::tracing_enabled();
    pds_obs::set_tracing(true);
    let mut exact = true;
    let mut lock_step_sec = f64::INFINITY;
    let mut pipelined_sec = f64::INFINITY;
    let mut wire_call_lock_ns = u64::MAX;
    let mut wire_call_pipe_ns = u64::MAX;
    let arm = |dep: &mut Deployment, window: usize| -> Result<(f64, u64, bool)> {
        dep.executor.set_pipeline_window(window);
        let _ = pds_obs::drain();
        let start = Instant::now();
        let run = dep.executor.run_workload_transported(
            &mut dep.owner,
            &mut dep.router,
            &dep.workload.clone(),
            &transport,
        )?;
        let wall = start.elapsed().as_secs_f64();
        let blocked = wire_call_self_ns(&pds_obs::drain().events);
        Ok((wall, blocked, run.answers == dep.reference))
    };
    let result = (|| -> Result<()> {
        for _ in 0..reps {
            let (wall, blocked, ok) = arm(&mut dep, 1)?;
            lock_step_sec = lock_step_sec.min(wall);
            wire_call_lock_ns = wire_call_lock_ns.min(blocked);
            exact &= ok;
            let (wall, blocked, ok) = arm(&mut dep, window)?;
            pipelined_sec = pipelined_sec.min(wall);
            wire_call_pipe_ns = wire_call_pipe_ns.min(blocked);
            exact &= ok;
        }
        Ok(())
    })();
    pds_obs::set_tracing(was_tracing);
    result?;

    // Hand the servers back (with everything the daemons recorded) and
    // check per-shard + composed security over both arms' traffic.
    let mut returned: Vec<Vec<(u64, CloudServer)>> =
        daemons.into_iter().map(ShardDaemon::shutdown).collect();
    for (s, servers) in returned.iter_mut().enumerate() {
        let pos = servers.iter().position(|(id, _)| *id == 1).ok_or_else(|| {
            PdsError::Wire(format!("shard {s} daemon did not return tenant 1's server"))
        })?;
        dep.router.shards_mut()[s] = servers.swap_remove(pos).1;
    }
    let secure = check_sharded_partitioned_security(&dep.router.adversarial_views()).is_secure();

    let pool_after = pool_stats();
    Ok(PipelineOutcome {
        shards,
        queries: dep.workload.len(),
        window,
        reps,
        lock_step_sec,
        pipelined_sec,
        wire_call_lock_ns,
        wire_call_pipe_ns,
        pool: PoolStats {
            hits: pool_after.hits - pool_before.hits,
            misses: pool_after.misses - pool_before.misses,
            returns: pool_after.returns - pool_before.returns,
            reader_grows: pool_after.reader_grows - pool_before.reader_grows,
        },
        exact,
        secure,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_core::DEFAULT_PIPELINE_WINDOW;

    #[test]
    fn pipeline_gate_holds_on_a_smoke_run() {
        // The correctness gates must hold on every attempt; the two
        // timing gates get two fresh re-runs because this test executes
        // in debug mode alongside the whole parallel suite, where a
        // scheduler hiccup can invert a close race.  The release-mode
        // `experiments pipeline` gate stays one-shot strict.
        let mut outcome = run(2, 4, DEFAULT_PIPELINE_WINDOW, 3, 42).unwrap();
        for _ in 0..2 {
            assert!(outcome.exact, "answers diverged: {outcome:?}");
            assert!(outcome.secure, "security broke: {outcome:?}");
            assert!(outcome.pool.hits > 0, "pool never hit: {:?}", outcome.pool);
            if outcome.holds() {
                break;
            }
            outcome = run(2, 4, DEFAULT_PIPELINE_WINDOW, 3, 42).unwrap();
        }
        assert!(outcome.exact, "answers diverged: {outcome:?}");
        assert!(outcome.secure, "security broke: {outcome:?}");
        assert!(outcome.pool.hits > 0, "pool never hit: {:?}", outcome.pool);
        assert!(
            outcome.pipelined_sec < outcome.lock_step_sec,
            "pipelined {:.6}s !< lock-step {:.6}s",
            outcome.pipelined_sec,
            outcome.lock_step_sec
        );
        assert!(
            outcome.wire_call_pipe_ns < outcome.wire_call_lock_ns,
            "blocked-read self-time must shrink: {} !< {}",
            outcome.wire_call_pipe_ns,
            outcome.wire_call_lock_ns
        );
        assert!(outcome.holds());

        let registry = Registry::new();
        outcome.flush_pool_metrics(&registry);
        let rendered = registry.render(pds_obs::StatsScope::All);
        assert!(rendered.contains("pds_wire_buf_reuse_total"), "{rendered}");
    }
}
