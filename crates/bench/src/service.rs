//! The TCP service experiment: concurrent multi-tenant owners against
//! real loopback shard daemons.
//!
//! A **closed-loop** load generator — every owner thread issues its next
//! point query only after the previous answer arrived — drives N tenant
//! owners against one [`ShardDaemon`] per shard, sweeping the daemon's
//! worker-pool size.  Each point reports measured throughput (queries per
//! second across all owners) and the p50/p99 per-query latency, and is
//! gated on three correctness checks:
//!
//! * **exact** — every tenant's TCP answers equal its in-process
//!   [`BinTransport::Threaded`] reference answers;
//! * **secure** — after the daemons hand their per-tenant servers back,
//!   every tenant's composed adversarial view still satisfies partitioned
//!   security;
//! * **throughput > 0** — enforced by the caller (`experiments service`),
//!   which fails the process otherwise.

use std::net::SocketAddr;
use std::time::Instant;

use pds_adversary::check_sharded_partitioned_security;
use pds_cloud::{BinTransport, ShardDaemon, TcpCloudClient};
use pds_common::Result;
use pds_obs::LatencySummary;

use crate::deploy::{employee_tenant, host_on_daemons, reclaim_from_daemons, DaemonTenant};

/// One cell of the sweep: a worker-pool size under a fixed owner count.
#[derive(Debug, Clone)]
pub struct ServicePoint {
    /// Worker threads per shard daemon.
    pub workers: usize,
    /// Concurrent tenant owners in the closed loop.
    pub owners: usize,
    /// Point queries completed across all owners.
    pub ops: usize,
    /// Wall-clock seconds of the concurrent phase.
    pub wall_clock_sec: f64,
    /// Median per-query latency in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-query latency in milliseconds.
    pub p99_ms: f64,
    /// Whether every tenant's TCP answers equalled the threaded reference.
    pub exact: bool,
    /// Whether every tenant's composed view stayed secure afterwards.
    pub secure: bool,
}

impl ServicePoint {
    /// Queries per second across all owners.
    pub fn throughput(&self) -> f64 {
        if self.wall_clock_sec > 0.0 {
            self.ops as f64 / self.wall_clock_sec
        } else {
            0.0
        }
    }
}

/// The default worker-pool sweep.
pub fn default_workers() -> Vec<usize> {
    vec![1, 2, 4]
}

/// Sweeps the daemon worker-pool size with `owners` concurrent tenants
/// over `shards` loopback daemons.  The same tenant deployments are
/// reused across the sweep: each round lifts their shard servers into
/// fresh daemons and reclaims them (with everything the daemons recorded)
/// afterwards.
pub fn run(
    shards: usize,
    workers: &[usize],
    owners: usize,
    seed: u64,
) -> Result<Vec<ServicePoint>> {
    // Four passes over the exhaustive values: with caching off every
    // repeat pays a full round trip, giving the percentiles real samples.
    let mut tenants: Vec<DaemonTenant> = (1..=owners as u64)
        .map(|id| employee_tenant(id, shards, 4, seed))
        .collect::<Result<_>>()?;

    let mut points = Vec::with_capacity(workers.len());
    for &pool in workers {
        let daemons = host_on_daemons(&mut tenants, pool)?;
        let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();

        // The closed loop: one thread per owner, each issuing its queries
        // one at a time and timing every round trip.
        let start = Instant::now();
        let per_owner: Vec<(Vec<f64>, bool)> = std::thread::scope(|scope| {
            let handles: Vec<_> = tenants
                .iter_mut()
                .map(|t| {
                    let addrs = addrs.clone();
                    scope.spawn(move || {
                        let transport = BinTransport::Tcp(TcpCloudClient::new(t.id, addrs));
                        let mut latencies = Vec::with_capacity(t.workload.len());
                        let mut exact = true;
                        for (value, want) in t.workload.clone().iter().zip(&t.reference) {
                            let op = Instant::now();
                            let run = t.executor.run_workload_transported(
                                &mut t.owner,
                                &mut t.router,
                                std::slice::from_ref(value),
                                &transport,
                            );
                            latencies.push(op.elapsed().as_secs_f64() * 1e3);
                            exact &= matches!(&run, Ok(r) if r.answers.len() == 1
                                && &r.answers[0] == want);
                        }
                        (latencies, exact)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("owner thread panicked"))
                .collect()
        });
        let wall_clock_sec = start.elapsed().as_secs_f64();

        // Reclaim every tenant's servers so the composed security check
        // sees the daemon-served episodes.
        reclaim_from_daemons(daemons, &mut tenants)?;
        let secure = tenants
            .iter()
            .all(|t| check_sharded_partitioned_security(&t.router.adversarial_views()).is_secure());

        // Latency percentiles come from the shared pds-obs log-bucketed
        // histogram (the one replacement for the old per-experiment
        // sorted-vector percentile code); the regression test in
        // `tests/latency_summary.rs` pins it to the old method within one
        // bucket width.
        let mut summary = LatencySummary::new();
        let mut exact = true;
        for (lats, ok) in per_owner {
            for ms in lats {
                summary.observe_ms(ms);
            }
            exact &= ok;
        }
        points.push(ServicePoint {
            workers: pool,
            owners,
            ops: summary.count() as usize,
            wall_clock_sec,
            p50_ms: summary.percentile_ms(50.0),
            p99_ms: summary.percentile_ms(99.0),
            exact,
            secure,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_is_exact_secure_and_nonzero() {
        let points = run(2, &[2], 4, 42).unwrap();
        assert_eq!(points.len(), 1);
        let p = &points[0];
        assert!(p.exact, "TCP answers must match the threaded reference");
        assert!(p.secure, "composed views must stay secure");
        assert!(p.ops > 0 && p.throughput() > 0.0);
        assert!(p.p50_ms > 0.0 && p.p99_ms >= p.p50_ms);
    }
}
