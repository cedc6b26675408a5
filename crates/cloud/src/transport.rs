//! Dispatch of per-shard bin fetches — sequential or on real OS threads.
//!
//! The [`crate::ShardRouter`]'s `parallel_comm_time` is a *model*: the
//! max-over-shards simulated network seconds a workload would take if the
//! shards were independent machines, whatever transport ran it.
//! [`BinTransport`] adds a *measurement*: each shard's stream of bin
//! fetches runs as one task with exclusive access to its shard slot, and
//! [`BinTransport::Threaded`] fans the tasks out on scoped `std::thread`s
//! so genuinely overlapped work can be timed with a wall clock.
//!
//! The dispatcher is deliberately engine-agnostic: tasks are plain `Send`
//! closures over `&mut CloudServer`, so `pds-core` can capture each shard's
//! forked engine and a forked owner without this crate knowing either type.
//! Shard slots are handed out via disjoint `&mut` borrows (one per task),
//! which is exactly the "per-shard mutable state behind the router's shard
//! slots" layout the rest of the workspace already maintains — no locks, no
//! shared mutability.

use std::time::Instant;

use crate::server::CloudServer;
use crate::tcp::TcpCloudClient;

/// How per-shard work is dispatched to the shards of a deployment.
#[derive(Debug, Clone, Default)]
pub enum BinTransport {
    /// One shard after another on the calling thread.  Useful as a
    /// baseline and for deterministic debugging.
    Sequential,
    /// One scoped OS thread per shard that has work: fetches genuinely
    /// overlap, so the measured wall-clock reflects real parallelism.
    #[default]
    Threaded,
    /// Real sockets: every episode travels as `pds-proto` frames to the
    /// per-shard [`crate::service::ShardDaemon`]s behind this pooled
    /// client.  The shards live in the daemons' address space, so this
    /// variant is executed by `QbExecutor::run_workload_transported`'s
    /// remote fan-out, not by [`BinTransport::dispatch`] (which needs the
    /// shards in-process and panics on this variant).
    Tcp(TcpCloudClient),
}

impl PartialEq for BinTransport {
    fn eq(&self, other: &BinTransport) -> bool {
        match (self, other) {
            (BinTransport::Sequential, BinTransport::Sequential) => true,
            (BinTransport::Threaded, BinTransport::Threaded) => true,
            // Client handles are equal when they share the same pools.
            (BinTransport::Tcp(a), BinTransport::Tcp(b)) => a.same_client(b),
            _ => false,
        }
    }
}

/// The outcome of one fan-out: per-shard task outputs (`None` for shards
/// that had no task) plus the measured wall-clock of the whole dispatch.
#[derive(Debug)]
pub struct DispatchReport<T> {
    /// One slot per shard, aligned with the shard slice passed in.
    pub per_shard: Vec<Option<T>>,
    /// Measured wall-clock seconds from first spawn to last join.
    pub wall_clock_sec: f64,
    /// Owner↔cloud rounds each shard served during the dispatch (the
    /// `round_trips` delta of that shard's metrics), aligned with the
    /// shard slice.  The cost model charges `rounds × latency`, so the
    /// executor threads these up into its run-level reporting.
    pub rounds_per_shard: Vec<u64>,
}

impl<T> DispatchReport<T> {
    /// Total owner↔cloud rounds over every shard of the dispatch.
    pub fn total_rounds(&self) -> u64 {
        self.rounds_per_shard.iter().sum()
    }
}

impl BinTransport {
    /// Runs at most one task per shard, each with exclusive `&mut` access
    /// to its shard slot, and measures the elapsed wall-clock.
    ///
    /// `tasks` must be no longer than `shards`; missing trailing entries
    /// are treated as `None`.  A panicking task propagates the panic after
    /// all other tasks have joined (scoped threads guarantee the join).
    pub fn dispatch<T, F>(
        &self,
        shards: &mut [CloudServer],
        tasks: Vec<Option<F>>,
    ) -> DispatchReport<T>
    where
        F: FnOnce(&mut CloudServer) -> T + Send,
        T: Send,
    {
        assert!(
            tasks.len() <= shards.len(),
            "got {} tasks for {} shards",
            tasks.len(),
            shards.len()
        );
        let shard_count = shards.len();
        let rounds_before: Vec<u64> = shards.iter().map(|s| s.metrics().round_trips).collect();
        let start = Instant::now();
        let mut per_shard: Vec<Option<T>> = match self {
            BinTransport::Sequential => shards
                .iter_mut()
                .zip(tasks)
                .map(|(shard, task)| task.map(|f| f(shard)))
                .collect(),
            BinTransport::Threaded => std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .zip(tasks)
                    .map(|(shard, task)| task.map(|f| scope.spawn(move || f(shard))))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.map(|h| h.join().expect("shard task panicked")))
                    .collect()
            }),
            BinTransport::Tcp(_) => panic!(
                "BinTransport::Tcp episodes are executed by \
                 QbExecutor::run_workload_transported's remote fan-out; \
                 dispatch() needs the shards in this process"
            ),
        };
        per_shard.resize_with(shard_count, || None);
        let rounds_per_shard: Vec<u64> = shards
            .iter()
            .zip(&rounds_before)
            .map(|(s, &before)| s.metrics().round_trips - before)
            .collect();
        DispatchReport {
            per_shard,
            wall_clock_sec: start.elapsed().as_secs_f64(),
            rounds_per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::store::EncryptedRow;
    use pds_common::TupleId;
    use pds_crypto::NonDetCipher;

    fn shards(n: usize) -> Vec<CloudServer> {
        (0..n)
            .map(|_| CloudServer::new(NetworkModel::paper_wan()))
            .collect()
    }

    fn rows(base: u64, n: u64) -> Vec<EncryptedRow> {
        let cipher = NonDetCipher::from_seed(3);
        let mut rng = pds_common::rng::seeded_rng(base);
        (0..n)
            .map(|i| EncryptedRow {
                id: TupleId::new(base + i),
                attr_ct: cipher.encrypt(b"attr", &mut rng),
                tuple_ct: cipher.encrypt(b"tuple", &mut rng),
                search_tags: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn both_transports_mutate_their_own_shard_slot() {
        for transport in [BinTransport::Sequential, BinTransport::Threaded] {
            let mut servers = shards(3);
            let tasks: Vec<Option<_>> = (0..3u64)
                .map(|i| {
                    Some(move |shard: &mut CloudServer| {
                        shard.upload_encrypted(rows(i * 100, i + 1)).unwrap();
                        shard.encrypted_len()
                    })
                })
                .collect();
            let report = transport.dispatch(&mut servers, tasks);
            assert_eq!(report.per_shard, vec![Some(1), Some(2), Some(3)]);
            for (i, shard) in servers.iter().enumerate() {
                assert_eq!(shard.encrypted_len(), i + 1, "{transport:?}");
            }
            assert!(report.wall_clock_sec >= 0.0);
        }
    }

    type BoxedTask = Box<dyn FnOnce(&mut CloudServer) -> usize + Send>;

    #[test]
    fn shards_without_tasks_are_untouched() {
        let mut servers = shards(4);
        // Only shard 1 gets work; trailing shards get implicit None.
        let tasks: Vec<Option<BoxedTask>> = vec![
            None,
            Some(Box::new(|shard: &mut CloudServer| {
                shard.upload_encrypted(rows(0, 2)).unwrap();
                2
            })),
        ];
        let report = BinTransport::Threaded.dispatch(&mut servers, tasks);
        assert_eq!(report.per_shard, vec![None, Some(2), None, None]);
        assert_eq!(servers[0].encrypted_len(), 0);
        assert_eq!(servers[1].encrypted_len(), 2);
    }

    #[test]
    fn threaded_overlap_beats_or_matches_sequential_on_sleeps() {
        // Four tasks sleeping 20ms each: sequential needs ~80ms, threaded
        // ~20ms per batch (on a single-core box the threads still overlap
        // their sleeps).  Generous bounds keep this robust under CI noise.
        let sleep_task =
            |_: &mut CloudServer| std::thread::sleep(std::time::Duration::from_millis(20));
        let mut servers = shards(4);
        let seq = BinTransport::Sequential
            .dispatch(&mut servers, (0..4).map(|_| Some(sleep_task)).collect());
        let thr = BinTransport::Threaded
            .dispatch(&mut servers, (0..4).map(|_| Some(sleep_task)).collect());
        assert!(seq.wall_clock_sec >= 0.079, "{}", seq.wall_clock_sec);
        assert!(
            thr.wall_clock_sec < seq.wall_clock_sec,
            "threaded {} must overlap the sleeps, sequential was {}",
            thr.wall_clock_sec,
            seq.wall_clock_sec
        );
    }

    #[test]
    fn dispatch_reports_per_shard_rounds() {
        for transport in [BinTransport::Sequential, BinTransport::Threaded] {
            let mut servers = shards(3);
            for (i, s) in servers.iter_mut().enumerate() {
                s.upload_encrypted(rows(i as u64 * 100, 2)).unwrap();
            }
            // Shard 0: two round trips; shard 1: one; shard 2: none.
            let tasks: Vec<Option<BoxedTask>> = vec![
                Some(Box::new(|shard: &mut CloudServer| {
                    shard.fetch_encrypted(&[TupleId::new(0)]).unwrap();
                    shard.fetch_encrypted(&[TupleId::new(1)]).unwrap();
                    0
                })),
                Some(Box::new(|shard: &mut CloudServer| {
                    shard.fetch_encrypted(&[TupleId::new(100)]).unwrap();
                    0
                })),
                None,
            ];
            let report = transport.dispatch(&mut servers, tasks);
            assert_eq!(report.rounds_per_shard, vec![2, 1, 0], "{transport:?}");
            assert_eq!(report.total_rounds(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "tasks for")]
    fn more_tasks_than_shards_is_a_bug() {
        let mut servers = shards(1);
        let tasks: Vec<Option<fn(&mut CloudServer)>> = vec![Some(|_| {}), Some(|_| {})];
        let _ = BinTransport::Sequential.dispatch(&mut servers, tasks);
    }
}
