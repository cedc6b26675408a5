//! The shard server the daemon test targets share.

use pds_cloud::{CloudServer, NetworkModel, WireRow};
use pds_common::Value;
use pds_crypto::NonDetCipher;
use pds_storage::{DataType, Relation, Schema};

/// A deterministic shard server: three clear-text employees plus three
/// encrypted rows.  Two calls with the same seed build byte-identical
/// servers, which is what lets the tests compare daemon answers against a
/// local in-process reference.
pub fn server(seed: u64) -> CloudServer {
    let schema = Schema::from_pairs(&[("EId", DataType::Text), ("Dept", DataType::Text)]).unwrap();
    let mut r = Relation::new("Employee", schema);
    for (e, d) in [("E259", "Design"), ("E199", "Design"), ("E254", "Sales")] {
        r.insert(vec![Value::from(e), Value::from(d)]).unwrap();
    }
    let mut s = CloudServer::new(NetworkModel::paper_wan());
    s.upload_plaintext(r, "EId").unwrap();
    let cipher = NonDetCipher::from_seed(seed);
    let mut rng = pds_common::rng::seeded_rng(seed);
    let rows: Vec<WireRow> = (0..3u64)
        .map(|i| WireRow {
            id: 100 + i,
            attr_ct: cipher.encrypt(format!("v{i}").as_bytes(), &mut rng).0,
            tuple_ct: cipher.encrypt(format!("tuple{i}").as_bytes(), &mut rng).0,
            search_tags: vec![vec![i as u8]],
        })
        .collect();
    s.upload_encrypted(rows).unwrap();
    s
}
