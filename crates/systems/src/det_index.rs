//! CryptDB-style deterministic-encryption index.
//!
//! Every tuple's searchable value is stored with a deterministic equality
//! tag that the cloud indexes.  Queries send the tags of the requested
//! values and the cloud answers from its index without decrypting anything.
//! This is fast (β ≈ 1) but leaks the frequency histogram of the searchable
//! attribute — which is precisely the leakage the frequency-count attack in
//! `pds-adversary` exploits, and which QB removes (§VI of the paper).

use pds_cloud::{CloudServer, DbOwner};
use pds_common::{AttrId, Result, Value};
use pds_storage::Relation;

use crate::cost::CostProfile;
use crate::engine::{not_outsourced, SecureSelectionEngine};

/// Deterministic-tag index back-end (CryptDB-like).
#[derive(Debug, Default)]
pub struct DeterministicIndexEngine {
    attr: Option<AttrId>,
}

impl DeterministicIndexEngine {
    /// Creates a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SecureSelectionEngine for DeterministicIndexEngine {
    fn name(&self) -> &'static str {
        "det-index"
    }

    fn outsource(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        relation: &Relation,
        attr: AttrId,
    ) -> Result<()> {
        let rows = relation
            .tuples()
            .iter()
            .map(|t| {
                let tag = owner.det_tag(t.value(attr));
                owner.encrypt_row(t, attr, vec![tag])
            })
            .collect();
        cloud.upload_encrypted(rows)?;
        self.attr = Some(attr);
        Ok(())
    }

    fn searchable_attr(&self) -> Result<AttrId> {
        self.attr.ok_or_else(not_outsourced)
    }

    /// One deterministic tag per value: the cloud answers from its index
    /// without decrypting anything, so a composed episode — these tags
    /// next to the clear-text non-sensitive values in one
    /// `FetchBinRequest` — is a single round.
    fn tags(&mut self, owner: &mut DbOwner, values: &[Value]) -> Result<Option<Vec<Vec<u8>>>> {
        self.searchable_attr()?;
        Ok(Some(values.iter().map(|v| owner.det_tag(v)).collect()))
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::det_index()
    }

    fn fork(&self) -> Self {
        Self::new()
    }

    fn fork_boxed(&self) -> Box<dyn SecureSelectionEngine> {
        Box::new(self.fork())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_cloud::NetworkModel;
    use pds_storage::{DataType, Schema};

    fn sample_relation() -> Relation {
        let schema = Schema::from_pairs(&[("K", DataType::Int), ("P", DataType::Text)]).unwrap();
        let mut r = Relation::new("T", schema);
        for (k, p) in [(5, "a"), (1, "b"), (5, "c"), (3, "d"), (5, "e")] {
            r.insert(vec![Value::Int(k), Value::from(p)]).unwrap();
        }
        r
    }

    fn setup() -> (DbOwner, CloudServer, DeterministicIndexEngine) {
        let mut owner = DbOwner::new(21);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        let mut engine = DeterministicIndexEngine::new();
        let rel = sample_relation();
        let attr = rel.schema().attr_id("K").unwrap();
        engine
            .outsource(&mut owner, &mut cloud, &rel, attr)
            .unwrap();
        (owner, cloud, engine)
    }

    #[test]
    fn select_by_tag_is_exact() {
        let (mut owner, mut cloud, mut engine) = setup();
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(5)])
            .unwrap();
        assert_eq!(out.len(), 3);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(1), Value::Int(3)])
            .unwrap();
        assert_eq!(out.len(), 2);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(99)])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn no_full_scan_is_performed() {
        let (mut owner, mut cloud, mut engine) = setup();
        let before = *cloud.metrics();
        engine
            .select(&mut owner, &mut cloud, &[Value::Int(5)])
            .unwrap();
        let delta = cloud.metrics().delta_since(&before);
        assert_eq!(
            delta.encrypted_tuples_scanned, 0,
            "index answers without scanning"
        );
        assert_eq!(delta.tuples_returned, 3);
    }

    #[test]
    fn identical_values_share_tags_leaking_frequency() {
        // The leakage that makes deterministic encryption weak: the three
        // tuples with K=5 carry identical search tags, visible to the cloud.
        let mut owner = DbOwner::new(21);
        let rel = sample_relation();
        let attr = rel.schema().attr_id("K").unwrap();
        let tags: Vec<Vec<u8>> = rel
            .tuples()
            .iter()
            .map(|t| owner.det_tag(t.value(attr)))
            .collect();
        let equal_pairs = tags
            .iter()
            .enumerate()
            .flat_map(|(i, a)| tags.iter().skip(i + 1).map(move |b| (a == b) as u32))
            .sum::<u32>();
        assert_eq!(equal_pairs, 3, "three equal pairs among the K=5 tuples");
    }

    #[test]
    fn select_before_outsource_errors() {
        let mut owner = DbOwner::new(1);
        let mut cloud = CloudServer::default();
        let mut engine = DeterministicIndexEngine::new();
        assert!(engine
            .select(&mut owner, &mut cloud, &[Value::Int(1)])
            .is_err());
        assert_eq!(engine.name(), "det-index");
    }
}
