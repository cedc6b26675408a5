//! The pipelined-dispatch experiment: an in-flight window of 1
//! (lock-step) vs a deeper window over identical loopback shard daemons.
//!
//! Both arms run the identical batch — every value of a LINEITEM whose
//! tuples each have a search value of their own — through the same tenant
//! deployment against the same daemons and the same episode loop,
//! `pds_core::execute_shard_pipelined`; only
//! [`pds_core::QbExecutor::set_pipeline_window`] differs.  Each arm run
//! starts from a fresh record of co-observed pairs
//! ([`pds_core::QbExecutor::set_cache_capacity`]), so it fetches each of
//! the batch's distinct bin pairs once: many light episodes.  With a window
//! of 1 the loop writes one episode's `FetchBinRequest` and blocks for its
//! answer before writing the next; with a deeper window it enqueues a
//! whole window of correlated requests per shard (vectored writes, one
//! flush), then demuxes the responses by correlation id in whatever order
//! the daemon's workers finish them.
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
//! The two timing gates hold only in a release build on an unloaded
//! machine: the overlap needs idle CPU, so other work on a 2-CPU machine
//! can flip them at any commit.
//!
//! Pool counters are flushed into the *experiment's own* metrics
//! [`Registry`] — never the daemons' (their stats snapshots are gated
//! byte-stable across identical runs, and pool reuse depends on thread
//! scheduling).

use std::net::SocketAddr;
use std::time::Instant;

use pds_adversary::check_sharded_partitioned_security;
use pds_cloud::{BinTransport, ShardDaemon, TcpCloudClient};
use pds_common::Result;
use pds_obs::Registry;
use pds_proto::{pool_stats, PoolStats};

use crate::deploy::{host_on_daemons, lineitem_tenant, reclaim_from_daemons, DaemonTenant};

/// LINEITEM tuples of the tenant, one per search value, so one arm run
/// fetches every distinct bin pair of the 300-value batch once.  An arm
/// must last long enough that one scheduler hiccup cannot flip its
/// best-of-reps wall-clock or `wire.call` self-time, and its episodes must
/// stay light: on an unloaded 2-CPU machine the gate passed 10 of 10
/// release runs at 300 tuples, 7 of 10 at 400, and 3 of 10 at 1,200
/// tuples with 8 per value, failing on `wire.call` self-time.
pub const TUPLES: usize = 300;

/// Everything `experiments pipeline` prints and gates on.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Shard daemons both arms fanned out over.
    pub shards: usize,
    /// Point queries per arm run.
    pub queries: usize,
    /// Episodes (distinct bin pairs) each arm run fetched.
    pub episodes: usize,
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
/// in machine load hits both arms equally) over `shards` daemons hosting a
/// `tuples`-row LINEITEM tenant and returns the gated outcome.
pub fn run(
    shards: usize,
    tuples: usize,
    window: usize,
    reps: usize,
    seed: u64,
) -> Result<PipelineOutcome> {
    let reps = reps.max(1);
    // One tenant, every value once per arm run.  Two workers per daemon,
    // so responses can complete out of order without the extra threads
    // contending on the single tenant's server mutex.
    let mut tenants = [lineitem_tenant(1, shards, tuples, seed)?];
    let pool_before = pool_stats();
    let daemons = host_on_daemons(&mut tenants, 2)?;
    let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
    let transport = BinTransport::Tcp(TcpCloudClient::new(1, addrs));

    let was_tracing = pds_obs::tracing_enabled();
    pds_obs::set_tracing(true);
    let mut exact = true;
    let mut lock_step_sec = f64::INFINITY;
    let mut pipelined_sec = f64::INFINITY;
    let mut wire_call_lock_ns = u64::MAX;
    let mut wire_call_pipe_ns = u64::MAX;
    let mut episodes = 0;
    let mut arm = |dep: &mut DaemonTenant, window: usize| -> Result<(f64, u64, bool)> {
        dep.executor.set_pipeline_window(window);
        dep.executor.set_cache_capacity(0);
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
        episodes = run.cache_misses;
        Ok((wall, blocked, run.answers == dep.reference))
    };
    let result = (|| -> Result<()> {
        for _ in 0..reps {
            let (wall, blocked, ok) = arm(&mut tenants[0], 1)?;
            lock_step_sec = lock_step_sec.min(wall);
            wire_call_lock_ns = wire_call_lock_ns.min(blocked);
            exact &= ok;
            let (wall, blocked, ok) = arm(&mut tenants[0], window)?;
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
    reclaim_from_daemons(daemons, &mut tenants)?;
    let [dep] = tenants;
    let secure = check_sharded_partitioned_security(&dep.router.adversarial_views()).is_secure();

    let pool_after = pool_stats();
    Ok(PipelineOutcome {
        shards,
        queries: dep.workload.len(),
        episodes,
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
