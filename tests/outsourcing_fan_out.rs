//! Set-up fans out: every shard encrypts and uploads its sensitive bins
//! concurrently, each through its own fork of the owner.
//!
//! The forks are taken in shard order before any task starts, so what a
//! shard stores is a function of the seeds alone.  These tests pin the
//! consequences: no CTR nonce repeats across forks, two deployments built
//! from the same seeds store byte-identical rows at every shard count, the
//! owner's counters fold in every fork's work (even when a shard fails),
//! and only the column-scanning back-end stores an attribute ciphertext.

use std::collections::HashSet;

use partitioned_data_security::crypto::ctr::NONCE_LEN;
use partitioned_data_security::prelude::*;
use partitioned_data_security::storage::PartitionedRelation;
use partitioned_data_security::systems::oblivious;

/// A LINEITEM relation with 30% of its part keys sensitive, split.
fn lineitem_parts() -> PartitionedRelation {
    let lineitem = TpchGenerator::new(TpchConfig {
        lineitem_tuples: 1_200,
        distinct_partkeys: 150,
        distinct_suppkeys: 8,
        skew: 0.0,
        seed: 7,
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

/// Outsources `parts` over `shards` shards, one `engine()` per shard.
fn deploy(
    parts: &PartitionedRelation,
    shards: usize,
    engine: fn() -> Box<dyn SecureSelectionEngine>,
) -> (
    DbOwner,
    ShardRouter,
    QbExecutor<Box<dyn SecureSelectionEngine>>,
) {
    let binning = QueryBinning::build(parts, "L_PARTKEY", BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, engine());
    let mut owner = DbOwner::new(11);
    let mut router = ShardRouter::new(shards, NetworkModel::paper_wan(), 13).unwrap();
    executor.outsource(&mut owner, &mut router, parts).unwrap();
    (owner, router, executor)
}

fn det_index() -> Box<dyn SecureSelectionEngine> {
    Box::new(DeterministicIndexEngine::new())
}

fn nondet_scan() -> Box<dyn SecureSelectionEngine> {
    Box::new(NonDetScanEngine::new())
}

#[test]
fn no_ctr_nonce_repeats_across_shard_forks() {
    let parts = lineitem_parts();
    for (engine, with_column) in [(det_index as fn() -> _, false), (nondet_scan, true)] {
        let (_, router, _) = deploy(&parts, 4, engine);
        let mut nonces = HashSet::new();
        let mut ciphertexts = 0;
        for server in router.shards() {
            for row in server.encrypted_store().rows() {
                assert_eq!(row.attr_ct.is_some(), with_column, "row {}", row.id);
                for ct in std::iter::once(&row.tuple_ct).chain(&row.attr_ct) {
                    ciphertexts += 1;
                    assert!(
                        nonces.insert(ct.as_bytes()[..NONCE_LEN].to_vec()),
                        "a CTR nonce repeats across the shards (row {})",
                        row.id
                    );
                }
            }
        }
        let rows = parts.sensitive.len();
        assert!(ciphertexts >= rows * (1 + usize::from(with_column)));
        assert!(router.shards().iter().all(|s| s.encrypted_len() > 0));
    }
}

#[test]
fn stored_rows_do_not_depend_on_thread_scheduling() {
    let parts = lineitem_parts();
    for engine in [det_index as fn() -> _, nondet_scan] {
        for shards in [1, 2, 4] {
            let (_, a, _) = deploy(&parts, shards, engine);
            let (_, b, _) = deploy(&parts, shards, engine);
            for (shard, (a, b)) in a.shards().iter().zip(b.shards()).enumerate() {
                assert_eq!(
                    a.encrypted_store().rows(),
                    b.encrypted_store().rows(),
                    "{} shards, shard {shard}",
                    shards
                );
            }
        }
    }
}

/// Owner encryptions one stored row accounts for: its tuple ciphertext,
/// its attribute ciphertext if stored, and one per search tag.
fn encryptions_stored(router: &ShardRouter) -> u64 {
    router
        .shards()
        .iter()
        .flat_map(|s| s.encrypted_store().rows())
        .map(|row| 1 + u64::from(row.attr_ct.is_some()) + row.search_tags.len() as u64)
        .sum()
}

#[test]
fn the_owner_counts_every_forks_work() {
    let parts = lineitem_parts();
    let engines: [fn() -> Box<dyn SecureSelectionEngine>; 6] = [
        det_index,
        nondet_scan,
        || Box::new(ArxEngine::new()),
        || Box::new(SecretSharingEngine::default_deployment()),
        || Box::new(DpfEngine::new(5)),
        || Box::new(oblivious::opaque_sim()),
    ];
    for engine in engines {
        let (owner, router, executor) = deploy(&parts, 4, engine);
        let name = executor.engine().name();
        assert_eq!(
            owner.metrics().owner_encryptions,
            encryptions_stored(&router),
            "{name}"
        );
        assert_eq!(owner.metrics().owner_decryptions, 0, "{name}");
        // Only the column scan stores the attribute ciphertext.
        let with_column = name == "nondet-scan";
        assert!(
            router
                .shards()
                .iter()
                .flat_map(|s| s.encrypted_store().rows())
                .all(|row| row.attr_ct.is_some() == with_column),
            "{name}"
        );
    }
}

#[test]
fn a_failing_shard_surfaces_its_error_after_every_fork_is_counted() {
    let parts = lineitem_parts();
    let binning = QueryBinning::build(&parts, "L_PARTKEY", BinningConfig::default()).unwrap();
    let mut executor = QbExecutor::new(binning, det_index());
    let mut owner = DbOwner::new(11);
    let mut router = ShardRouter::new(3, NetworkModel::paper_wan(), 13).unwrap();
    // Shard 1's threshold exceeds its server count; shards 0 and 2 succeed.
    let engines: Vec<Box<dyn SecureSelectionEngine>> = vec![
        det_index(),
        Box::new(SecretSharingEngine::new(5, 3)),
        nondet_scan(),
    ];
    let err = executor
        .outsource_with_engines(&mut owner, &mut router, &parts, engines)
        .unwrap_err();
    assert!(matches!(err, PdsError::Config(_)), "{err}");
    assert_eq!(router.shards()[1].encrypted_len(), 0);
    assert!(router.shards()[0].encrypted_len() > 0);
    assert!(router.shards()[2].encrypted_len() > 0);
    assert_eq!(
        owner.metrics().owner_encryptions,
        encryptions_stored(&router),
        "the succeeding shards' work is counted"
    );
}

#[test]
fn a_det_index_store_refuses_the_attribute_column_download() {
    let parts = lineitem_parts();
    let (_, mut router, _) = deploy(&parts, 1, det_index);
    let server = &mut router.shards_mut()[0];
    let (before, clock, episodes) = (
        *server.metrics(),
        server.comm_time(),
        server.adversarial_view().len(),
    );
    assert!(matches!(
        server.download_encrypted_attr_column(),
        Err(PdsError::Cloud(_))
    ));
    assert_eq!(*server.metrics(), before, "the refusal charges nothing");
    assert_eq!(server.comm_time(), clock);
    assert_eq!(server.adversarial_view().len(), episodes);
}
