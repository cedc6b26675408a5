//! The one fan-out of per-shard work — sequential, or on real OS threads.
//!
//! The [`crate::ShardRouter`]'s `parallel_comm_time` is a *model*: the
//! max-over-shards simulated network seconds a workload would take if the
//! shards were independent machines, whatever transport ran it.
//! [`BinTransport`] adds a *measurement*: each shard's stream of bin-pair
//! episodes runs as one task, and [`BinTransport::Threaded`] and
//! [`BinTransport::Tcp`] fan the tasks out over the calling thread and
//! scoped `std::thread`s so genuinely overlapped work can be timed with a
//! wall clock.
//!
//! The dispatcher is deliberately engine- and shard-agnostic: a task is a
//! plain `Send` closure that captures whatever its shard needs, so
//! `pds-core` can hand each one its shard's engine, a forked owner and
//! either the disjoint `&mut` of its in-process shard slot
//! ([`crate::BinRoutedCloud::shards_mut`]) or the daemon client, without
//! this crate knowing any of those types — no locks, no shared
//! mutability.

use std::time::Instant;

use crate::tcp::TcpCloudClient;

/// How per-shard work is dispatched to the shards of a deployment.
#[derive(Debug, Clone)]
pub enum BinTransport {
    /// One shard after another on the calling thread: the serial
    /// wall-clock the planner's calibration prices, and a deterministic
    /// baseline for debugging.
    Sequential,
    /// Every shard that has work runs at once, the last on the calling
    /// thread and each other one on a scoped OS thread: fetches genuinely
    /// overlap, so the measured wall-clock reflects real parallelism.
    Threaded,
    /// Real sockets: every episode travels as `pds-proto` frames to the
    /// per-shard [`crate::service::ShardDaemon`]s behind this pooled
    /// client.  Shard tasks fan out exactly as under
    /// [`BinTransport::Threaded`]; each drives its daemon connection
    /// instead of an in-process shard slot.
    Tcp(TcpCloudClient),
}

impl BinTransport {
    /// Runs one optional task per shard and measures the elapsed
    /// wall-clock.  Returns each task's output, aligned with `tasks`
    /// (`None` where a shard had no task), and the seconds from the first
    /// task's start to the last task's end.
    ///
    /// [`BinTransport::Sequential`] runs the tasks in shard order on the
    /// calling thread.  The other variants spawn a scoped thread for every
    /// task but the last present one, which runs on the calling thread
    /// meanwhile: a single-shard fan-out, such as a point query, starts no
    /// thread, and its task keeps the caller's thread-local buffer pool
    /// warm.  A panicking task's panic resumes on the calling thread once
    /// every other task has finished (scoped threads guarantee the join).
    pub fn dispatch<T, F>(&self, mut tasks: Vec<Option<F>>) -> (Vec<Option<T>>, f64)
    where
        F: FnOnce() -> T + Send,
        T: Send,
    {
        let start = Instant::now();
        let outputs = match self {
            BinTransport::Sequential => tasks.into_iter().map(|task| task.map(|f| f())).collect(),
            BinTransport::Threaded | BinTransport::Tcp(_) => {
                let last = tasks.iter().rposition(Option::is_some);
                let local = last.and_then(|i| tasks[i].take());
                std::thread::scope(|scope| {
                    let handles: Vec<_> = tasks
                        .into_iter()
                        .map(|task| task.map(|f| scope.spawn(f)))
                        .collect();
                    let local = local.map(|f| f());
                    let mut outputs: Vec<Option<T>> = handles
                        .into_iter()
                        .map(|h| {
                            h.map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        })
                        .collect();
                    if let Some(i) = last {
                        outputs[i] = local;
                    }
                    outputs
                })
            }
        };
        (outputs, start.elapsed().as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkModel;
    use crate::server::CloudServer;
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
                attr_ct: Some(cipher.encrypt(b"attr", &mut rng)),
                tuple_ct: cipher.encrypt(b"tuple", &mut rng),
                search_tags: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn both_transports_mutate_their_own_shard_slot() {
        for transport in [BinTransport::Sequential, BinTransport::Threaded] {
            let mut servers = shards(3);
            let tasks: Vec<Option<_>> = servers
                .iter_mut()
                .zip(0..3u64)
                .map(|(shard, i)| {
                    Some(move || {
                        shard.upload_encrypted(rows(i * 100, i + 1)).unwrap();
                        shard.encrypted_len()
                    })
                })
                .collect();
            let (outputs, wall_clock_sec) = transport.dispatch(tasks);
            assert_eq!(outputs, vec![Some(1), Some(2), Some(3)]);
            for (i, shard) in servers.iter().enumerate() {
                assert_eq!(shard.encrypted_len(), i + 1, "{transport:?}");
            }
            assert!(wall_clock_sec >= 0.0);
        }
    }

    #[test]
    fn shards_without_tasks_are_untouched() {
        let mut servers = shards(4);
        // Only shard 1 gets work.
        let tasks: Vec<Option<_>> = servers
            .iter_mut()
            .enumerate()
            .map(|(i, shard)| {
                (i == 1).then_some(move || {
                    shard.upload_encrypted(rows(0, 2)).unwrap();
                    2
                })
            })
            .collect();
        let (outputs, _) = BinTransport::Threaded.dispatch(tasks);
        assert_eq!(outputs, vec![None, Some(2), None, None]);
        assert_eq!(servers[0].encrypted_len(), 0);
        assert_eq!(servers[1].encrypted_len(), 2);
    }

    #[test]
    fn threaded_overlap_beats_or_matches_sequential_on_sleeps() {
        // Four tasks sleeping 20ms each: sequential needs ~80ms, threaded
        // ~20ms per batch (on a single-core box the threads still overlap
        // their sleeps).  Generous bounds keep this robust under CI noise.
        let sleep_task = || std::thread::sleep(std::time::Duration::from_millis(20));
        let (_, seq) =
            BinTransport::Sequential.dispatch((0..4).map(|_| Some(sleep_task)).collect());
        let (_, thr) = BinTransport::Threaded.dispatch((0..4).map(|_| Some(sleep_task)).collect());
        assert!(seq >= 0.079, "{seq}");
        assert!(
            thr < seq,
            "threaded {thr} must overlap the sleeps, sequential was {seq}"
        );
    }

    #[test]
    fn the_last_task_runs_on_the_caller_and_the_others_do_not() {
        let caller = std::thread::current().id();
        // Shard 3 has no task, so shard 2's is the last present one.
        let tasks: Vec<Option<_>> = (0..4)
            .map(|i| (i != 3).then_some(move || (i, std::thread::current().id())))
            .collect();
        let (outputs, _) = BinTransport::Threaded.dispatch(tasks);
        assert_eq!(outputs[3], None);
        for (i, output) in outputs.iter().take(3).enumerate() {
            let (shard, thread) = output.expect("shards 0-2 had tasks");
            assert_eq!(shard, i, "outputs stay in shard order");
            assert_eq!(thread == caller, i == 2, "shard {i} ran on {thread:?}");
        }
        // Sequential runs every task on the caller.
        let tasks: Vec<Option<_>> = (0..3)
            .map(|_| Some(|| std::thread::current().id()))
            .collect();
        let (outputs, _) = BinTransport::Sequential.dispatch(tasks);
        assert!(outputs.iter().all(|t| *t == Some(caller)));
    }

    #[test]
    #[should_panic(expected = "shard task failed")]
    fn a_task_panic_resumes_on_the_caller() {
        let tasks: Vec<Option<fn()>> = vec![Some(|| {}), Some(|| panic!("shard task failed"))];
        let _ = BinTransport::Threaded.dispatch(tasks);
    }
}
