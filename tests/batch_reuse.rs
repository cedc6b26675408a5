//! Property test for in-batch bin reuse: a batch fetches a minimum cover
//! of the bins its queries need — every pair the cloud has not seen
//! fetched as it stands, the other bins covered by pairs it has — and
//! answers every query from the fetched streams of its two bins.
//!
//! Random batches with repeats over the Employee relation and a small
//! LINEITEM, at cache capacities 0 and 8, over the sequential and threaded
//! in-process transports and over loopback det-index daemons with windows
//! 1 and 8, are compared with the same deployment answering one value per
//! call ([`QbExecutor::select`]).  Each case runs three batches: a random
//! one straight after outsourcing, the exhaustive workload (after which
//! every pair the workload can name is co-observed) and a second random
//! one.  Then
//!
//! 1. answers are byte-identical to one value per call;
//! 2. each shard's view holds the same distinct observations, in no more
//!    episodes;
//! 3. the sharded security verdict is the same;
//! 4. the batches' rounds equal the cloud's round-trip delta;
//! 5. the first batch after outsourcing fetches exactly its distinct
//!    pairs;
//! 6. the last batch, all of whose pairs are co-observed, fetches at most
//!    (distinct sensitive bins + distinct non-sensitive bins − 1) pairs;
//! 7. each batch whose pairs the cache does not serve span at most 8 bins a
//!    side fetches exactly the fewest pairs covering those bins, found by
//!    exhaustive search over the allowed pairs (those pairs themselves and
//!    co-observed pairs inside their bins, the never co-observed ones
//!    always included); when every pair inside those bins is co-observed,
//!    that is the larger of the two bin counts.
//!
//! Failures replay from `PROPTEST_SEED`.

use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;

use proptest::prelude::*;

use partitioned_data_security::cloud::{
    BinKey, EpisodeObservation, ServiceConfig, ShardDaemon, TcpCloudClient,
};
use partitioned_data_security::prelude::*;
use partitioned_data_security::storage::PartitionedRelation;

mod common;
use common::{answer_bytes, employee_setup};

const SHARDS: usize = 2;

/// A small LINEITEM split at sensitivity 0.3, with its exhaustive
/// `L_PARTKEY` values.
fn lineitem_setup() -> (PartitionedRelation, Vec<Value>) {
    let relation = TpchGenerator::new(TpchConfig {
        lineitem_tuples: 240,
        distinct_partkeys: 60,
        distinct_suppkeys: 4,
        skew: 0.0,
        seed: 3,
    })
    .lineitem();
    let attr = relation.schema().attr_id("L_PARTKEY").unwrap();
    let policy = SensitivityAssigner::new(3)
        .by_value_fraction(&relation, attr, 0.3)
        .unwrap();
    let parts = Partitioner::new(policy).split(&relation).unwrap();
    let mut values = parts.sensitive.distinct_values(attr);
    for v in parts.nonsensitive.distinct_values(attr) {
        if !values.contains(&v) {
            values.push(v);
        }
    }
    (parts, values)
}

/// One deployment of the parts over `SHARDS` in-process shard servers.
struct Deployment {
    owner: DbOwner,
    router: ShardRouter,
    executor: QbExecutor<Box<dyn SecureSelectionEngine>>,
}

fn deploy(
    parts: &PartitionedRelation,
    attr: &str,
    engine: Box<dyn SecureSelectionEngine>,
    capacity: usize,
) -> Deployment {
    let binning = QueryBinning::build(parts, attr, BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, engine).with_cache_capacity(capacity);
    let mut owner = DbOwner::new(17);
    let mut router = ShardRouter::new(SHARDS, NetworkModel::paper_wan(), 5).unwrap();
    executor.outsource(&mut owner, &mut router, parts).unwrap();
    Deployment {
        owner,
        router,
        executor,
    }
}

/// Each shard's distinct observations and its episode count.
fn shard_views(router: &ShardRouter) -> Vec<(HashSet<EpisodeObservation>, usize)> {
    router
        .adversarial_views()
        .iter()
        .map(|view| {
            let distinct = view
                .episodes()
                .iter()
                .map(|ep| (*ep.observed).clone())
                .collect();
            (distinct, view.len())
        })
        .collect()
}

/// What check 7 expects of one batch.
struct Fewest {
    /// The fewest allowed pairs covering the bins of the batch's pairs the
    /// cache does not serve.
    fetches: usize,
    /// The larger side's bin count, when every pair inside those bins is
    /// co-observed.
    full_grid: Option<usize>,
}

/// Check 7's expectation for `batch`, run next on `executor`, or `None`
/// when its pairs span more than 8 bins a side.  `co_observed` holds every
/// pair fetched so far and gains the batch's own pairs, which a batch
/// fetches or has fetched before.
fn fewest_fetches(
    executor: &QbExecutor<Box<dyn SecureSelectionEngine>>,
    batch: &[Value],
    co_observed: &mut HashSet<(usize, usize)>,
) -> Option<Fewest> {
    let cache = executor.cache();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for v in batch {
        let Some(p) = executor.binning().retrieve(v) else {
            continue;
        };
        let pair = (p.sensitive_bin, p.nonsensitive_bin);
        // The cache serves a co-observed pair whose two bins it holds.
        let served = co_observed.contains(&pair)
            && cache.contains(BinKey::sensitive(pair.0))
            && cache.contains(BinKey::nonsensitive(pair.1));
        if !served && !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    let mut sensitive: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let mut nonsensitive: Vec<usize> = pairs.iter().map(|p| p.1).collect();
    for bins in [&mut sensitive, &mut nonsensitive] {
        bins.sort_unstable();
        bins.dedup();
    }
    // The allowed pairs: the batch's own, which must be fetched when never
    // co-observed, and co-observed pairs inside its bins.
    let forced: Vec<(usize, usize)> = pairs
        .iter()
        .copied()
        .filter(|p| !co_observed.contains(p))
        .collect();
    let optional: Vec<(usize, usize)> = sensitive
        .iter()
        .flat_map(|&s| nonsensitive.iter().map(move |&ns| (s, ns)))
        .filter(|p| co_observed.contains(p))
        .collect();
    let full_grid = (optional.len() == sensitive.len() * nonsensitive.len())
        .then(|| sensitive.len().max(nonsensitive.len()));
    co_observed.extend(pairs.iter().copied());
    if sensitive.len() > 8 || nonsensitive.len() > 8 {
        return None;
    }

    // Each bin is one bit; a pair covers its two bins.
    let bits = |&(s, ns): &(usize, usize)| -> u32 {
        let s = sensitive.iter().position(|&b| b == s).unwrap();
        let ns = nonsensitive.iter().position(|&b| b == ns).unwrap();
        (1 << s) | (1 << (8 + ns))
    };
    let all: u32 = (0..sensitive.len())
        .chain((0..nonsensitive.len()).map(|k| 8 + k))
        .fold(0, |mask, bit| mask | (1 << bit));
    let optional: Vec<u32> = optional.iter().map(bits).collect();
    let start = forced.iter().fold(0, |mask, p| mask | bits(p));
    Some(Fewest {
        fetches: forced.len() + fewest_covering(start, all, &optional, &mut HashMap::new()),
        full_grid,
    })
}

/// The fewest of `pairs` (bit masks) whose union with `covered` is `all`:
/// some pair must cover the lowest uncovered bin, so try each in turn.
fn fewest_covering(covered: u32, all: u32, pairs: &[u32], memo: &mut HashMap<u32, usize>) -> usize {
    if covered == all {
        return 0;
    }
    if let Some(&known) = memo.get(&covered) {
        return known;
    }
    let lowest = 1 << (all & !covered).trailing_zeros();
    let fewest = pairs
        .iter()
        .filter(|&&pair| pair & lowest != 0)
        .map(|&pair| 1 + fewest_covering(covered | pair, all, pairs, memo))
        .min()
        .unwrap_or(usize::MAX / 2);
    memo.insert(covered, fewest);
    fewest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn batches_reuse_their_bins_and_match_one_value_per_call(
        lineitem in any::<bool>(),
        capacity in 0usize..2,
        via in 0usize..4,
        nondet in any::<bool>(),
        first in prop::collection::vec(0usize..16, 1..24),
        last in prop::collection::vec(0usize..16, 1..24),
    ) {
        let capacity = [0, 8][capacity];
        let (parts, values) = if lineitem { lineitem_setup() } else { employee_setup() };
        let attr = if lineitem { "L_PARTKEY" } else { "EId" };
        // Slots 0 and 1 run in process, 2 and 3 over daemons with window
        // 1 and 8; only det-index travels over TCP.
        let tcp_window = [None, None, Some(1), Some(8)][via];
        let engine = || -> Box<dyn SecureSelectionEngine> {
            if nondet && tcp_window.is_none() {
                Box::new(NonDetScanEngine::new())
            } else {
                Box::new(DeterministicIndexEngine::new())
            }
        };
        // At most 16 distinct values spread over the workload, so batches
        // repeat values and pairs.
        let pick = |draws: &[usize]| -> Vec<Value> {
            draws.iter().map(|d| values[(d * 7_919) % values.len()].clone()).collect()
        };
        let batches = [pick(&first), values.clone(), pick(&last)];

        // The reference: the same deployment, one value per call.
        let mut reference = deploy(&parts, attr, engine(), capacity);
        let mut want: Vec<Vec<Vec<Vec<u8>>>> = Vec::new();
        for batch in &batches {
            want.push(
                batch
                    .iter()
                    .map(|v| {
                        let answer = reference
                            .executor
                            .select(&mut reference.owner, &mut reference.router, v)
                            .unwrap();
                        answer_bytes(&answer)
                    })
                    .collect(),
            );
        }

        let mut dep = deploy(&parts, attr, engine(), capacity);
        let rounds_before = dep.router.metrics().round_trips;
        let daemons: Vec<ShardDaemon> = match tcp_window {
            Some(window) => {
                dep.executor.set_pipeline_window(window);
                dep.router
                    .shards_mut()
                    .iter_mut()
                    .enumerate()
                    .map(|(s, server)| {
                        let hosted = vec![(0, std::mem::take(server))];
                        ShardDaemon::spawn(hosted, ServiceConfig::with_workers(2).with_shard(s as u64))
                            .unwrap()
                    })
                    .collect()
            }
            None => Vec::new(),
        };
        let addrs: Vec<SocketAddr> = daemons.iter().map(ShardDaemon::addr).collect();
        let transport = match (tcp_window, via) {
            (Some(_), _) => BinTransport::Tcp(TcpCloudClient::new(0, addrs)),
            (None, 0) => BinTransport::Sequential,
            (None, _) => BinTransport::Threaded,
        };

        let mut runs = Vec::new();
        let mut fewest = Vec::new();
        let mut co_observed = HashSet::new();
        for batch in &batches {
            fewest.push(fewest_fetches(&dep.executor, batch, &mut co_observed));
            runs.push(
                dep.executor
                    .run_workload_transported(&mut dep.owner, &mut dep.router, batch, &transport)
                    .unwrap(),
            );
        }
        for (s, daemon) in daemons.into_iter().enumerate() {
            let (_, server) = daemon.shutdown().pop().unwrap();
            dep.router.shards_mut()[s] = server;
        }
        let case = format!("{attr}, capacity {capacity}, {transport:?}, nondet {nondet}");

        // 1. Byte-identical answers.
        for (b, (run, want)) in runs.iter().zip(&want).enumerate() {
            let got: Vec<_> = run.answers.iter().map(|answer| answer_bytes(answer)).collect();
            prop_assert!(got == *want, "{}: batch {} answers", case, b);
            prop_assert_eq!(run.cache_hits + run.cache_misses, batches[b].len());
        }

        // 2. The same distinct observations on every shard, in no more
        // episodes; every fetched pair is one episode.
        let got_views = shard_views(&dep.router);
        let want_views = shard_views(&reference.router);
        for (s, (got, want)) in got_views.iter().zip(&want_views).enumerate() {
            prop_assert!(got.0 == want.0, "{}: shard {} observations", case, s);
            prop_assert!(got.1 <= want.1, "{}: shard {} episodes {} > {}", case, s, got.1, want.1);
        }
        let episodes: usize = got_views.iter().map(|(_, len)| len).sum();
        let fetched: usize = runs.iter().map(|run| run.cache_misses).sum();
        prop_assert!(episodes == fetched, "{}: {} episodes, {} fetched", case, episodes, fetched);

        // 3. The same security verdict.
        let secure = |router: &ShardRouter| {
            check_sharded_partitioned_security(&router.adversarial_views()).is_secure()
        };
        prop_assert!(secure(&dep.router) == secure(&reference.router), "{}: verdict", case);

        // 4. The batches' rounds are the cloud's.
        let rounds: u64 = runs.iter().map(|run| run.rounds).sum();
        let cloud_rounds = dep.router.metrics().round_trips - rounds_before;
        prop_assert!(rounds == cloud_rounds, "{}: {} rounds, cloud {}", case, rounds, cloud_rounds);

        let binning = dep.executor.binning();
        let pairs = |batch: &[Value]| -> Vec<(usize, usize)> {
            batch
                .iter()
                .filter_map(|v| binning.retrieve(v))
                .map(|p| (p.sensitive_bin, p.nonsensitive_bin))
                .collect()
        };

        // 5. Nothing is co-observed straight after outsourcing, so the first
        // batch fetches each of its distinct pairs once.
        let distinct: HashSet<_> = pairs(&batches[0]).into_iter().collect();
        prop_assert!(
            runs[0].cache_misses == distinct.len(),
            "{}: first batch fetched {} of {} distinct pairs",
            case, runs[0].cache_misses, distinct.len()
        );

        // 6. After the exhaustive batch every pair is co-observed: each
        // fetch of the last batch brings at least one bin no earlier fetch
        // of the batch brought.
        let last_pairs = pairs(&batches[2]);
        let sensitive: HashSet<_> = last_pairs.iter().map(|p| p.0).collect();
        let nonsensitive: HashSet<_> = last_pairs.iter().map(|p| p.1).collect();
        prop_assert!(
            runs[2].cache_misses < sensitive.len() + nonsensitive.len(),
            "{}: last batch fetched {} pairs over {} + {} bins",
            case, runs[2].cache_misses, sensitive.len(), nonsensitive.len()
        );

        // 7. A small batch fetches exactly the fewest allowed pairs covering
        // its bins, the larger bin count once all of them are co-observed.
        for (b, (run, want)) in runs.iter().zip(&fewest).enumerate() {
            let Some(want) = want else { continue };
            prop_assert!(
                run.cache_misses == want.fetches,
                "{}: batch {} fetched {} pairs, the fewest is {}",
                case, b, run.cache_misses, want.fetches
            );
            if let Some(larger) = want.full_grid {
                prop_assert!(want.fetches == larger, "{}: batch {} full grid", case, b);
            }
        }
    }
}
