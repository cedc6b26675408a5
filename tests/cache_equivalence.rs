//! Property-based integration tests for the owner-side hot-bin cache:
//! whatever the workload and the cache capacity (0 included), a cached
//! deployment must be **observationally identical** to the uncached one —
//! byte-identical answers per query — while partitioned data security keeps
//! holding on what the cloud actually observed, and the cache's accounting
//! must balance (`hits + misses == fetches`).
//!
//! Workloads are random multisets over the full Employee value domain: a
//! shuffled exhaustive pass (so every bin pair is touched and the security
//! check has a complete co-occurrence graph to verify) followed by a random
//! tail of repeats, which is where the cache earns its hits.

use proptest::prelude::*;

use partitioned_data_security::prelude::*;

mod common;
use common::{answer_bytes, employee_setup};

fn executor(
    parts: &pds_storage::PartitionedRelation,
    capacity: usize,
) -> (DbOwner, CloudServer, QbExecutor<NonDetScanEngine>) {
    let binning = QueryBinning::build(parts, "EId", BinningConfig::default()).unwrap();
    let mut exec = QbExecutor::new(binning, NonDetScanEngine::new()).with_cache_capacity(capacity);
    let mut owner = DbOwner::new(5);
    let mut cloud = CloudServer::new(NetworkModel::paper_wan());
    exec.outsource(&mut owner, &mut cloud, parts).unwrap();
    (owner, cloud, exec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every cache capacity (including 0 = disabled) and random query
    /// tail, the cached deployment answers byte-identically to the uncached
    /// one, the cloud's view still satisfies partitioned data security, and
    /// the cache accounting balances.
    #[test]
    fn cached_answers_equal_uncached_and_stay_secure(
        capacity in 0usize..=24,
        shuffle_seed in 0u64..1_000,
        tail in proptest::collection::vec(0usize..64, 0..40),
    ) {
        let (parts, values) = employee_setup();

        // Shuffled exhaustive pass + random repeat tail.
        let mut workload = values.clone();
        let mut rng = pds_common::rng::seeded_rng(shuffle_seed);
        pds_common::rng::shuffle(&mut workload, &mut rng);
        for pick in &tail {
            workload.push(values[pick % values.len()].clone());
        }

        let (mut base_owner, mut base_cloud, mut uncached) = executor(&parts, 0);
        let (mut owner, mut cloud, mut cached) = executor(&parts, capacity);

        for value in &workload {
            let expect = answer_bytes(
                &uncached.select(&mut base_owner, &mut base_cloud, value).unwrap(),
            );
            let run = cached
                .run_workload_transported(
                    &mut owner,
                    &mut cloud,
                    std::slice::from_ref(value),
                    &BinTransport::Sequential,
                )
                .unwrap();
            let got = answer_bytes(&run.answers[0]);
            prop_assert!(got == expect, "answers diverge for {value} at capacity {capacity}");
            prop_assert_eq!(run.cache_hits + run.cache_misses, 1);
        }

        // The cloud's view of the cached run is secure (hits only removed
        // episodes; every bin pair was still observed by the exhaustive
        // prefix, so the co-occurrence graph stays complete).
        let report = check_partitioned_security(cloud.adversarial_view());
        prop_assert!(report.is_secure(), "capacity {}: {:?}", capacity, report);

        // Accounting: one pair fetch per query, hits + misses == fetches.
        let stats = cached.cache_stats();
        prop_assert_eq!(stats.fetches(), workload.len() as u64);
        prop_assert_eq!(stats.hits + stats.misses, stats.fetches());
        prop_assert_eq!(owner.metrics().bin_cache_hits, stats.hits);
        prop_assert_eq!(owner.metrics().bin_cache_misses, stats.misses);
        // Capacity 0 never hits; the cloud then saw exactly one episode per
        // query, and in general one episode per miss.
        if capacity == 0 {
            prop_assert_eq!(stats.hits, 0);
        }
        prop_assert_eq!(cloud.adversarial_view().len() as u64, stats.misses);
        // The cache never outgrows its capacity.
        prop_assert!(cached.cache().len() <= capacity);
    }
}
