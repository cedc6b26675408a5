//! Fake padding rows must not be told apart by ciphertext length.
//!
//! Query Binning's general case pads each sensitive bin with fake tuples,
//! so the cloud sees every bin return the same number of rows.  A fake
//! holds a real searchable value and `NULL` everywhere else, so its
//! unpadded plaintext is shorter than a real row's.  If its ciphertext
//! were shorter too, the cloud could drop the fakes from each answer and
//! read every sensitive bin's true size.  The owner therefore pads every
//! tuple plaintext to the widest tuple of the augmented relation, and each
//! shard's store holds exactly one `tuple_ct` length.

use std::collections::BTreeSet;

use partitioned_data_security::common::TupleId;
use partitioned_data_security::prelude::*;
use partitioned_data_security::storage::PartitionedRelation;

mod common;
use common::{answer_bytes, employee_setup};

const SHARDS: usize = 2;

/// Outsources `parts` to a fresh two-shard det-index deployment.
fn outsource(
    parts: &PartitionedRelation,
    attr: &str,
) -> (QbExecutor<DeterministicIndexEngine>, DbOwner, ShardRouter) {
    let binning = QueryBinning::build(parts, attr, BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, DeterministicIndexEngine::new());
    let mut owner = DbOwner::new(42);
    let mut router = ShardRouter::new(SHARDS, NetworkModel::paper_wan(), 42).unwrap();
    executor.outsource(&mut owner, &mut router, parts).unwrap();
    (executor, owner, router)
}

/// Outsources `parts`, checks that every shard stores one `tuple_ct`
/// length and that answers still decrypt exactly, and returns how many
/// fakes the binning added.
fn assert_one_ciphertext_length_per_shard(parts: &PartitionedRelation, attr: &str) -> usize {
    let (mut executor, mut owner, mut router) = outsource(parts, attr);
    let values = executor.binning().all_values().to_vec();

    for (shard, server) in router.shards().iter().enumerate() {
        let lengths: BTreeSet<usize> = server
            .encrypted_store()
            .rows()
            .iter()
            .map(|row| row.tuple_ct.len())
            .collect();
        assert_eq!(
            lengths.len(),
            1,
            "{} shard {shard}: tuple_ct lengths {lengths:?} tell rows apart",
            parts.sensitive.name()
        );
    }

    // Padding is stripped on decryption: answers equal a direct scan.
    let a = parts.sensitive.schema().attr_id(attr).unwrap();
    for value in values.iter().take(40) {
        let got = answer_bytes(&executor.select(&mut owner, &mut router, value).unwrap());
        let want: Vec<Tuple> = parts
            .sensitive
            .tuples()
            .iter()
            .chain(parts.nonsensitive.tuples())
            .filter(|t| t.value(a) == value)
            .cloned()
            .collect();
        assert_eq!(got, answer_bytes(&want), "answer for {value}");
    }
    executor.fake_tuple_ids().len()
}

/// A LINEITEM relation split like the benchmark's: 2,000 tuples over 250
/// part keys, 30% of which are sensitive.
fn benchmark_shaped_lineitem() -> PartitionedRelation {
    let lineitem = TpchGenerator::new(TpchConfig {
        lineitem_tuples: 2_000,
        distinct_partkeys: 250,
        distinct_suppkeys: 13,
        skew: 0.0,
        seed: 42,
    })
    .lineitem();
    let attr = lineitem.schema().attr_id("L_PARTKEY").unwrap();
    let keys: Vec<Value> = lineitem
        .distinct_values(attr)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| i % 10 < 3)
        .map(|(_, v)| v)
        .collect();
    let policy = SensitivityPolicy::rows(Predicate::InSet { attr, values: keys });
    Partitioner::new(policy).split(&lineitem).unwrap()
}

#[test]
fn every_shard_stores_one_tuple_ciphertext_length() {
    // Employee rows differ in length by their text columns alone.
    let (employee, _) = employee_setup();
    assert_one_ciphertext_length_per_shard(&employee, "EId");

    let fakes = assert_one_ciphertext_length_per_shard(&benchmark_shaped_lineitem(), "L_PARTKEY");
    assert!(fakes > 0, "the LINEITEM binning pads its bins with fakes");
}

/// Every stored LINEITEM ciphertext, fake rows included, is an 8-byte
/// nonce, a 63-byte plaintext and a 16-byte tag.  The plaintext is the
/// widest row: an 8-byte id, a 1-byte arity, five integers of 9 bytes
/// with their tags, and the 7-byte ship mode `REG AIR` with its tag and
/// 1-byte length.
#[test]
fn every_lineitem_ciphertext_is_87_bytes() {
    let parts = benchmark_shaped_lineitem();
    let (executor, _, router) = outsource(&parts, "L_PARTKEY");
    let fakes: BTreeSet<TupleId> = executor.fake_tuple_ids().iter().copied().collect();
    let mut stored = 0;
    let mut stored_fakes = 0;
    for server in router.shards() {
        for row in server.encrypted_store().rows() {
            assert_eq!(row.tuple_ct.len(), 87, "row {:?}", row.id);
            stored += 1;
            stored_fakes += usize::from(fakes.contains(&row.id));
        }
    }
    assert_eq!(stored, parts.sensitive.len() + fakes.len());
    assert!(stored_fakes > 0 && stored_fakes == fakes.len());
}
