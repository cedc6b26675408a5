//! Set-up fans out: every shard encrypts and uploads its sensitive bins
//! concurrently, each through its own fork of the owner.
//!
//! The forks are taken in shard order before any task starts, so what a
//! shard stores is a function of the seeds alone.  These tests pin the
//! consequences: no CTR nonce repeats across forks, two deployments built
//! from the same seeds store byte-identical rows at every shard count, the
//! owner's counters fold in every fork's work (even when a shard fails),
//! only the column-scanning back-end stores an attribute ciphertext, and
//! every back-end's stored rows match digests pinned at fixed seeds.

use std::collections::HashSet;

use partitioned_data_security::crypto::ctr::NONCE_LEN;
use partitioned_data_security::crypto::sha256::Sha256;
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

/// The six back-ends, each built behind a trait object.
fn all_engines() -> [fn() -> Box<dyn SecureSelectionEngine>; 6] {
    [
        det_index,
        nondet_scan,
        || Box::new(ArxEngine::new()),
        || Box::new(SecretSharingEngine::default_deployment()),
        || Box::new(DpfEngine::new(5)),
        || Box::new(oblivious::opaque_sim()),
    ]
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
                assert_eq!(!row.attr_ct.is_empty(), with_column, "row {}", row.id);
                for ct in [&row.tuple_ct, &row.attr_ct]
                    .into_iter()
                    .filter(|ct| !ct.is_empty())
                {
                    ciphertexts += 1;
                    assert!(
                        nonces.insert(ct[..NONCE_LEN].to_vec()),
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
        .map(|row| 1 + u64::from(!row.attr_ct.is_empty()) + row.search_tags.len() as u64)
        .sum()
}

#[test]
fn the_owner_counts_every_forks_work() {
    let parts = lineitem_parts();
    for engine in all_engines() {
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
                .all(|row| row.attr_ct.is_empty() != with_column),
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

/// SHA-256 of one shard's stored rows in store order: each row's address,
/// attribute ciphertext, tuple ciphertext and search tags, every byte
/// string length-prefixed.
fn store_digest(server: &CloudServer) -> String {
    let mut hasher = Sha256::new();
    let mut field = |bytes: &[u8]| {
        hasher.update(&(bytes.len() as u64).to_be_bytes());
        hasher.update(bytes);
    };
    for row in server.encrypted_store().rows() {
        field(&row.id.to_be_bytes());
        field(&row.attr_ct);
        field(&row.tuple_ct);
        field(&(row.search_tags.len() as u64).to_be_bytes());
        for tag in &row.search_tags {
            field(tag);
        }
    }
    hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// Every byte each back-end stores over two shards, pinned at fixed seeds:
/// a change to how rows are built, addressed, tagged, ordered or uploaded
/// shows here.  Re-record the digests only with a change that means to
/// alter what the cloud stores, and say why.  DPF and the enclave
/// simulator store the same bytes: neither tags its rows nor draws
/// randomness while indexing.
#[test]
fn every_backend_stores_the_pinned_rows() {
    const PINNED: [(&str, [&str; 2]); 6] = [
        (
            "det-index",
            [
                "ae5599168829986e795e3998be7e2080cda22265fb3da7e9d37710fa5fc069a7",
                "f5378b3760a6231b7b7e977c5c8692ba10b44d9d244a42aeadba3d7448bc13a0",
            ],
        ),
        (
            "nondet-scan",
            [
                "ae968ced22bb7895bca28cfafaa8aa663874e6237ae61747035124680f5db3d3",
                "85147178abd793518ce1588ef5bebf1aaa24eb5a0a20bff39734f950a09cbdbe",
            ],
        ),
        (
            "arx-index",
            [
                "449f123d47f0d31036500f58efb876fbe624802421773ee5ca84f1479ffe60e2",
                "999160eae205d50481a35ecb7ba06403e105af3e2b469ad76da233b1bd9be864",
            ],
        ),
        (
            "secret-sharing",
            [
                "b96514911f819d2bc7fd2e3988e7275ba337ab9f244cba31ff018cef98e0d253",
                "9cb657630a58400ca2ef94366000b6216b38f3ddb557129475fb35d096ee58c7",
            ],
        ),
        (
            "dpf",
            [
                "46e5def707b7df3ffdecc9a64b84aa63d93a9d4747ba97675ab18ae64fe0f72a",
                "b3288e28d823063e18d54d6eb51bad80649786a12953d6a53ecd83a5eca111d7",
            ],
        ),
        (
            "opaque-sim",
            [
                "46e5def707b7df3ffdecc9a64b84aa63d93a9d4747ba97675ab18ae64fe0f72a",
                "b3288e28d823063e18d54d6eb51bad80649786a12953d6a53ecd83a5eca111d7",
            ],
        ),
    ];
    let parts = lineitem_parts();
    let stored: Vec<(&str, Vec<String>)> = all_engines()
        .into_iter()
        .map(|engine| {
            let (_, router, executor) = deploy(&parts, 2, engine);
            let digests = router.shards().iter().map(store_digest).collect();
            (executor.engine().name(), digests)
        })
        .collect();
    let pinned: Vec<(&str, Vec<String>)> = PINNED
        .iter()
        .map(|(name, digests)| (*name, digests.map(String::from).to_vec()))
        .collect();
    assert_eq!(stored, pinned);
}
