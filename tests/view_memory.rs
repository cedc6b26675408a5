//! Bounded adversarial-view memory under a long Query Binning session.
//!
//! Every QB query fetches one whole (sensitive bin, non-sensitive bin)
//! pair, so however long a session runs each shard observes at most
//! |SB|·|NSB| distinct things.  The view keeps every episode (with its own
//! id, in order) but must store each distinct observation once, so its
//! memory grows by one id and one pointer per episode.

use partitioned_data_security::prelude::*;

const EPISODES: usize = 20_000;
const SHARDS: usize = 2;

#[test]
fn repeated_qb_episodes_share_one_observation_per_bin_pair() {
    let relation = employee_relation();
    let policy = employee_sensitivity_policy(&relation).unwrap();
    let parts = Partitioner::new(policy).split(&relation).unwrap();
    let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
    let bin_pairs = binning.sensitive_bin_count() * binning.nonsensitive_bin_count();
    let values = binning.all_values().to_vec();
    let mut executor = QbExecutor::new(binning, DeterministicIndexEngine::new());
    let mut owner = DbOwner::new(7);
    let mut router = ShardRouter::new(SHARDS, NetworkModel::paper_wan(), 3).unwrap();
    executor.outsource(&mut owner, &mut router, &parts).unwrap();

    let workload: Vec<Value> = values.iter().cycle().take(EPISODES).cloned().collect();
    executor
        .run_workload(&mut owner, &mut router, &workload)
        .unwrap();

    let views = router.adversarial_views();
    let episodes: usize = views.iter().map(|v| v.len()).sum();
    assert_eq!(episodes, EPISODES, "every episode is kept");
    for (shard, view) in views.iter().enumerate() {
        assert!(
            view.distinct_observations() <= bin_pairs,
            "shard {shard}: {} distinct observations over {} episodes, \
             at most {bin_pairs} bin pairs",
            view.distinct_observations(),
            view.len(),
        );
        assert_eq!(view.sensitive_loads().episodes, view.len() as u64);
    }
    assert!(check_sharded_partitioned_security(&views).is_secure());
}
