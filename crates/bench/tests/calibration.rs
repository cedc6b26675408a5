//! Regression test for the planner's cost model: the work profile it
//! prices must be deterministic across identical runs, so an estimate —
//! and therefore a plan — is a function of the workload and the
//! deployment alone.

use pds_bench::deploy::{hetero_qb_deployment_over, lineitem, partition_at_alpha, SEARCH_ATTR};
use pds_bench::planner::HOMOGENEOUS;
use pds_cloud::{BinTransport, Metrics, NetworkModel};
use pds_common::Value;
use pds_core::CostModel;
use pds_storage::PartitionedRelation;
use pds_systems::{
    oblivious, ArxEngine, DeterministicIndexEngine, DpfEngine, NonDetScanEngine,
    SecretSharingEngine, SecureSelectionEngine,
};

fn engine(name: &str) -> Box<dyn SecureSelectionEngine> {
    match name {
        "det-index" => Box::new(DeterministicIndexEngine::new()),
        "nondet-scan" => Box::new(NonDetScanEngine::new()),
        "arx-index" => Box::new(ArxEngine::new()),
        "secret-sharing" => Box::new(SecretSharingEngine::new(3, 5)),
        "dpf" => Box::new(DpfEngine::new(7)),
        "opaque-sim" => Box::new(oblivious::opaque_sim()),
        other => panic!("unknown engine {other:?}"),
    }
}

/// Every distinct value of the searchable attribute on either side.
fn exhaustive_workload(parts: &PartitionedRelation) -> Vec<Value> {
    let id = parts.nonsensitive.schema().attr_id(SEARCH_ATTR).unwrap();
    let mut all = parts.nonsensitive.distinct_values(id);
    let sid = parts.sensitive.schema().attr_id(SEARCH_ATTR).unwrap();
    for v in parts.sensitive.distinct_values(sid) {
        if !all.contains(&v) {
            all.push(v);
        }
    }
    all
}

/// Runs the exhaustive workload once on a fresh single-shard deployment of
/// `name`, returning the shard's work delta.
fn counted_run(parts: &PartitionedRelation, workload: &[Value], name: &str) -> Metrics {
    let mut dep = hetero_qb_deployment_over(
        parts.clone(),
        SEARCH_ATTR,
        vec![engine(name)],
        NetworkModel::paper_wan(),
        7,
    )
    .unwrap();
    let before = dep.router.shard_metrics();
    dep.run_and_cost_answers(workload, BinTransport::Sequential)
        .unwrap();
    dep.router.shards()[0].metrics().delta_since(&before[0])
}

#[test]
fn work_profiles_and_estimates_are_deterministic_on_the_exhaustive_workload() {
    let relation = lineitem(600, 7);
    let parts = partition_at_alpha(&relation, 0.3, 7).unwrap();
    let workload = exhaustive_workload(&parts);
    // lineitem(600) carves 75 distinct partkeys; exhaustive covers them all.
    assert!(
        workload.len() >= 75,
        "exhaustive workload unexpectedly small"
    );

    for name in HOMOGENEOUS {
        let mut model = CostModel::default();
        let backend = engine(name);
        model.seed_engine(backend.name(), backend.cost_profile());
        let first = counted_run(&parts, &workload, name);
        let second = counted_run(&parts, &workload, name);

        // Identical deployments do identical work...
        assert_eq!(first, second, "{name}: work profile diverged between runs");
        let modelled = model.modelled(name, &first).unwrap();
        assert!(modelled > 0.0, "{name}: modelled cost must be positive");

        // ...so the estimate observed on one run prices the other exactly.
        model.observe(name, 0, &first);
        assert_eq!(
            model.estimate_observed(name, 0),
            model.estimate(name, &second),
            "{name}: the estimate depends on more than the counted work"
        );
    }
}
