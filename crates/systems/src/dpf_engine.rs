//! Two-server DPF back-end (Gilboa–Ishai \[6\]).
//!
//! The distinct values of the searchable attribute form the DPF domain.  The
//! two simulated non-colluding servers each hold, per tuple, the index of
//! its value in that domain (this is public structure, not the value
//! itself in any linkable form, because the domain order is a secret
//! permutation known only to the owner).  To select value `w` the owner
//! generates a DPF key pair for the point `index(w)`; each server evaluates
//! its key at every tuple's value index and returns the share vector; XORing
//! the two vectors yields the indicator of matching tuples, which the owner
//! then fetches from the encrypted store.  The evaluation is this engine's
//! [`SecureSelectionEngine::locate`] round; in a Query Binning episode the
//! fetch by address also carries the clear-text bin, so an episode takes
//! two rounds.
//!
//! The per-query work is linear in the number of tuples on *both* servers —
//! the expensive scan QB avoids performing over non-sensitive data.

use std::collections::HashMap;

use pds_cloud::{CloudServer, DbOwner};
use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use pds_crypto::dpf::{self, DpfKey};
use pds_crypto::FeistelPrp;
use pds_crypto::Key128;
use pds_storage::Relation;

use crate::cost::CostProfile;
use crate::engine::{not_outsourced, SecureSelectionEngine};

/// One simulated DPF evaluation server.
#[derive(Debug, Clone, Default)]
struct DpfServer {
    /// For every stored tuple: (tuple id, index of its value in the domain).
    tuple_value_index: Vec<(TupleId, usize)>,
}

impl DpfServer {
    /// Evaluates a DPF key over every stored tuple, returning one share per
    /// tuple.
    fn evaluate(&self, key: &DpfKey) -> Result<Vec<(TupleId, u64)>> {
        self.tuple_value_index
            .iter()
            .map(|&(id, idx)| dpf::eval(key, idx).map(|v| (id, v)))
            .collect()
    }
}

/// DPF-based selection engine.
pub struct DpfEngine {
    servers: [DpfServer; 2],
    /// Owner-side: value → index in the (permuted) DPF domain.
    domain: HashMap<Value, usize>,
    domain_size: usize,
    attr: Option<AttrId>,
    seed: u64,
}

impl DpfEngine {
    /// Creates an engine whose secret domain permutation derives from `seed`.
    pub fn new(seed: u64) -> Self {
        DpfEngine {
            servers: [DpfServer::default(), DpfServer::default()],
            domain: HashMap::new(),
            domain_size: 0,
            attr: None,
            seed,
        }
    }

    /// Number of distinct values in the DPF domain.
    pub fn domain_size(&self) -> usize {
        self.domain_size
    }
}

impl SecureSelectionEngine for DpfEngine {
    fn name(&self) -> &'static str {
        "dpf"
    }

    fn outsource(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        relation: &Relation,
        attr: AttrId,
    ) -> Result<()> {
        // Build the secret-permuted domain of distinct values.
        let distinct = relation.distinct_values(attr);
        self.domain_size = distinct.len().max(1);
        let prp = FeistelPrp::new(
            Key128::derive(self.seed, "dpf-domain"),
            self.domain_size as u64,
        );
        for (i, v) in distinct.into_iter().enumerate() {
            self.domain.insert(v, prp.permute(i as u64) as usize);
        }
        // Each server stores each tuple's value index.
        for t in relation.tuples() {
            let idx = *self
                .domain
                .get(t.value(attr))
                .ok_or_else(|| PdsError::Query("value missing from DPF domain".into()))?;
            self.servers[0].tuple_value_index.push((t.id, idx));
            self.servers[1].tuple_value_index.push((t.id, idx));
        }
        // The encrypted payload tuples live on the cloud.
        let rows = owner.encrypt_relation(relation, attr);
        cloud.upload_encrypted(rows)?;
        self.attr = Some(attr);
        Ok(())
    }

    fn searchable_attr(&self) -> Result<AttrId> {
        self.attr.ok_or_else(not_outsourced)
    }

    /// The two servers' evaluation: one DPF key pair per requested value in
    /// the domain, each key evaluated at every stored row.
    fn locate(
        &mut self,
        _owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<TupleId>> {
        self.searchable_attr()?;
        let mut rng = pds_common::rng::seeded_rng(pds_common::rng::derive_seed(self.seed, "dpf-q"));

        // One DPF key pair per requested value that exists in the domain.
        let mut matching: Vec<TupleId> = Vec::new();
        let mut keys_generated = 0usize;
        for value in values {
            let Some(&alpha) = self.domain.get(value) else {
                continue;
            };
            let (k0, k1) = dpf::generate(self.domain_size, alpha, 1, &mut rng)?;
            keys_generated += 1;
            let e0 = self.servers[0].evaluate(&k0)?;
            let e1 = self.servers[1].evaluate(&k1)?;
            for ((id0, s0), (id1, s1)) in e0.iter().zip(e1.iter()) {
                debug_assert_eq!(id0, id1);
                if s0 ^ s1 == 1 {
                    matching.push(*id0);
                }
            }
        }
        matching.sort_unstable();
        matching.dedup();
        let rows = self.servers[0].tuple_value_index.len();
        cloud.note_encrypted_request(
            keys_generated,
            keys_generated * self.domain_size * 8,
            keys_generated * rows,
        );
        Ok(matching)
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::dpf()
    }

    fn hides_access_pattern(&self) -> bool {
        false
    }

    fn fork(&self) -> Self {
        Self::new(self.seed)
    }

    fn fork_boxed(&self) -> Box<dyn SecureSelectionEngine> {
        Box::new(self.fork())
    }
}

impl std::fmt::Debug for DpfEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DpfEngine")
            .field("domain_size", &self.domain_size)
            .field("outsourced", &self.attr.is_some())
            .finish_non_exhaustive()
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
        for (k, p) in [
            (10, "a"),
            (20, "b"),
            (10, "c"),
            (30, "d"),
            (20, "e"),
            (40, "f"),
        ] {
            r.insert(vec![Value::Int(k), Value::from(p)]).unwrap();
        }
        r
    }

    fn setup() -> (DbOwner, CloudServer, DpfEngine) {
        let mut owner = DbOwner::new(51);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        let mut engine = DpfEngine::new(99);
        let rel = sample_relation();
        let attr = rel.schema().attr_id("K").unwrap();
        engine
            .outsource(&mut owner, &mut cloud, &rel, attr)
            .unwrap();
        (owner, cloud, engine)
    }

    #[test]
    fn select_correctness() {
        let (mut owner, mut cloud, mut engine) = setup();
        assert_eq!(engine.domain_size(), 4);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(10)])
            .unwrap();
        assert_eq!(out.len(), 2);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(20), Value::Int(40)])
            .unwrap();
        assert_eq!(out.len(), 3);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(77)])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn unknown_values_generate_no_keys() {
        let (mut owner, mut cloud, mut engine) = setup();
        let before = *cloud.metrics();
        engine
            .select(&mut owner, &mut cloud, &[Value::Int(77)])
            .unwrap();
        let delta = cloud.metrics().delta_since(&before);
        // Only the note_encrypted_request round trip, no fetch.
        assert_eq!(delta.tuples_returned, 0);
        assert_eq!(delta.round_trips, 1);
        assert_eq!(
            delta.encrypted_tuples_scanned, 0,
            "no key, nothing evaluated"
        );
    }

    #[test]
    fn every_stored_row_is_evaluated_per_key() {
        let (mut owner, mut cloud, mut engine) = setup();
        let before = *cloud.metrics();
        engine
            .select(
                &mut owner,
                &mut cloud,
                &[Value::Int(10), Value::Int(20), Value::Int(77)],
            )
            .unwrap();
        let delta = cloud.metrics().delta_since(&before);
        // Two keys (77 is not in the domain), each evaluated at six rows.
        assert_eq!(delta.encrypted_tuples_scanned, 12);
    }

    #[test]
    fn select_before_outsource_errors() {
        let mut owner = DbOwner::new(1);
        let mut cloud = CloudServer::default();
        let mut engine = DpfEngine::new(1);
        assert!(engine
            .select(&mut owner, &mut cloud, &[Value::Int(1)])
            .is_err());
        assert_eq!(engine.name(), "dpf");
    }

    #[test]
    fn debug_does_not_leak_domain() {
        let (_, _, engine) = setup();
        let dbg = format!("{engine:?}");
        assert!(dbg.contains("domain_size"));
        assert!(!dbg.contains("Int(10)"));
    }
}
