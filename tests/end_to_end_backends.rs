//! End-to-end correctness of Query Binning over every secure back-end in
//! the workspace: the answers returned through QB must equal the answers a
//! direct scan of the original relation would give, for every back-end and
//! for a mixed sensitive/non-sensitive workload.

use std::collections::BTreeSet;

use partitioned_data_security::prelude::*;

/// Every row's ship mode holds the text `__PDS_FAKE__`.  A real row whose
/// content looks like a padding marker must still be answered: the owner
/// recognises fakes by tuple id, never by content.
fn test_relation() -> Relation {
    let generated = TpchGenerator::new(TpchConfig {
        lineitem_tuples: 600,
        distinct_partkeys: 60,
        distinct_suppkeys: 12,
        skew: 0.6,
        seed: 77,
    })
    .lineitem();
    let mode = generated.schema().attr_id("L_SHIPMODE").unwrap();
    let mut relation = Relation::new(generated.name(), generated.schema().clone());
    for t in generated.tuples() {
        let mut values = t.values.clone();
        values[mode.index()] = Value::from("__PDS_FAKE__");
        relation.insert_with_id(t.id, values).unwrap();
    }
    relation
}

fn ground_truth(relation: &Relation, value: &Value) -> BTreeSet<u64> {
    let attr = relation.schema().attr_id("L_PARTKEY").unwrap();
    relation
        .tuples()
        .iter()
        .filter(|t| t.value(attr) == value)
        .map(|t| t.id.raw())
        .collect()
}

fn check_backend<E: SecureSelectionEngine>(engine: E, seed: u64) {
    let relation = test_relation();
    let attr = relation.schema().attr_id("L_PARTKEY").unwrap();
    let policy = SensitivityAssigner::new(seed)
        .by_value_fraction(&relation, attr, 0.35)
        .unwrap();
    let parts = Partitioner::new(policy).split(&relation).unwrap();
    let binning = QueryBinning::build(&parts, "L_PARTKEY", BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, engine);
    let mut owner = DbOwner::new(seed);
    let mut cloud = CloudServer::new(NetworkModel::paper_wan());
    executor.outsource(&mut owner, &mut cloud, &parts).unwrap();

    // Query a mix of values: some sensitive, some non-sensitive, one absent.
    let mut values = relation.distinct_values(attr);
    values.truncate(12);
    values.push(Value::Int(9_999_999));
    for value in &values {
        let expected = ground_truth(&relation, value);
        let got: BTreeSet<u64> = executor
            .select(&mut owner, &mut cloud, value)
            .unwrap()
            .iter()
            .map(|t| t.id.raw())
            .collect();
        assert_eq!(
            got, expected,
            "answer mismatch for {value} under {:?}",
            executor
        );
    }
}

#[test]
fn qb_over_nondet_scan_is_exact() {
    check_backend(NonDetScanEngine::new(), 1);
}

#[test]
fn qb_over_deterministic_index_is_exact() {
    check_backend(DeterministicIndexEngine::new(), 2);
}

#[test]
fn qb_over_arx_index_is_exact() {
    check_backend(ArxEngine::new(), 3);
}

#[test]
fn qb_over_secret_sharing_is_exact() {
    check_backend(SecretSharingEngine::default_deployment(), 4);
}

#[test]
fn qb_over_dpf_is_exact() {
    check_backend(DpfEngine::new(99), 5);
}

#[test]
fn qb_over_opaque_simulator_is_exact() {
    check_backend(
        partitioned_data_security::systems::oblivious::opaque_sim(),
        6,
    );
}

#[test]
fn qb_over_jana_simulator_is_exact() {
    check_backend(JanaSimEngine::new(), 7);
}

/// Whatever the back-end, the adversary never observes varying sensitive
/// output sizes under QB (condition 2 of the security definition).
#[test]
fn all_backends_return_uniform_output_sizes() {
    for seed in 1..=3u64 {
        let relation = test_relation();
        let attr = relation.schema().attr_id("L_PARTKEY").unwrap();
        let policy = SensitivityAssigner::new(seed)
            .by_value_fraction(&relation, attr, 0.4)
            .unwrap();
        let parts = Partitioner::new(policy).split(&relation).unwrap();
        let binning = QueryBinning::build(&parts, "L_PARTKEY", BinningConfig::default()).unwrap();
        let mut executor = QbExecutor::new(binning, ArxEngine::new());
        let mut owner = DbOwner::new(seed);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        executor.outsource(&mut owner, &mut cloud, &parts).unwrap();
        for value in relation.distinct_values(attr).into_iter().take(20) {
            executor.select(&mut owner, &mut cloud, &value).unwrap();
        }
        let sizes: BTreeSet<usize> = cloud
            .adversarial_view()
            .episodes()
            .iter()
            .map(|ep| ep.sensitive_output_size())
            .collect();
        assert!(
            sizes.len() <= 1,
            "sensitive output sizes must be uniform, got {sizes:?}"
        );
    }
}
