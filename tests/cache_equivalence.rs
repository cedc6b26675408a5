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
//!
//! Writes: with `invalidate_cache_on_insert` after every insert, a cached
//! deployment keeps answering like an uncached replay of the same reads
//! and writes, while a cached deployment that skips it serves stale bins.

use proptest::prelude::*;

use partitioned_data_security::common::TupleId;
use partitioned_data_security::core::extensions::InsertPlan;
use partitioned_data_security::prelude::*;

mod common;
use common::{answer_bytes, employee_setup};

/// An owner, its cloud and its executor: one deployment of the Employee
/// relation on nondet-scan.
type Arm = (DbOwner, CloudServer, QbExecutor<NonDetScanEngine>);

fn executor(parts: &pds_storage::PartitionedRelation, capacity: usize) -> Arm {
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

/// Reads every value on each arm: `[cached, uncached, control]`.  Asserts
/// that the cached arm answers like the uncached one, and returns the
/// cached arm's hits and fetches over the pass and whether the control
/// arm answered any read differently.
fn read_pass(values: &[Value], arms: &mut [Arm; 3]) -> (u64, u64, bool) {
    let before = arms[0].2.cache_stats();
    let mut stale = false;
    for value in values {
        let answers: Vec<_> = arms
            .iter_mut()
            .map(|(owner, cloud, exec)| answer_bytes(&exec.select(owner, cloud, value).unwrap()))
            .collect();
        assert!(
            answers[0] == answers[1],
            "the cached answer for {value} differs from the uncached replay"
        );
        stale |= answers[2] != answers[1];
    }
    let after = arms[0].2.cache_stats();
    (
        after.hits - before.hits,
        after.fetches() - before.fetches(),
        stale,
    )
}

/// A sensitive insert of an already-binned value (which clears the whole
/// cache), then a non-sensitive one (which drops one bin), each followed by
/// a read pass, after two warm passes.  The values keep their bin, so no
/// rebuild happens mid-run.
#[test]
fn inserts_with_invalidation_keep_cached_answers_fresh() {
    let (parts, values) = employee_setup();
    let attr = parts.sensitive.schema().attr_id("EId").unwrap();
    let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
    let planner = InsertPlanner::new(&binning);
    let binned = |side: &Relation, sensitive: bool| {
        side.distinct_values(attr)
            .into_iter()
            .find(|v| {
                matches!(
                    planner.plan(v, sensitive),
                    InsertPlan::ExistingAssignment { .. }
                )
            })
            .unwrap()
    };
    let writes = [
        (binned(&parts.sensitive, true), true, 50_000_000),
        (binned(&parts.nonsensitive, false), false, 60_000_000),
    ];

    // The system under test, its uncached replay, and a control arm whose
    // writes skip invalidation.
    let mut arms = [
        executor(&parts, 32),
        executor(&parts, 0),
        executor(&parts, 32),
    ];
    read_pass(&values, &mut arms);
    let (warm_hits, warm_fetches, _) = read_pass(&values, &mut arms);
    assert_eq!(
        warm_hits, warm_fetches,
        "the last warm pass must be all hits"
    );

    let mut stale = false;
    let mut after_first_write = None;
    for (value, sensitive, id) in writes {
        let mut row = vec![Value::Null; parts.sensitive.schema().arity()];
        row[attr.index()] = value.clone();
        let tuple = Tuple::new(TupleId::new(id), row);
        for ((owner, cloud, exec), invalidate) in arms.iter_mut().zip([true, true, false]) {
            if sensitive {
                let row = owner.encrypt_row(&tuple, Some(attr), Vec::new());
                cloud.upload_encrypted(vec![row]).unwrap();
            } else {
                cloud.insert_plaintext(tuple.clone()).unwrap();
            }
            if invalidate {
                exec.invalidate_cache_on_insert(&value, sensitive);
            }
        }
        let (hits, fetches, diverged) = read_pass(&values, &mut arms);
        after_first_write.get_or_insert((hits, fetches));
        stale |= diverged;
    }
    assert!(
        stale,
        "the control arm must serve a stale answer, or the check shows nothing"
    );
    let (hits, fetches) = after_first_write.unwrap();
    assert!(
        (hits as f64 / fetches as f64) < (warm_hits as f64 / warm_fetches as f64),
        "invalidation must cost hits: {hits}/{fetches} after the write, \
         {warm_hits}/{warm_fetches} warm"
    );
}
