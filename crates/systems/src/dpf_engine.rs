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
//! then fetches from the encrypted store.  The owner generates the keys
//! ([`DbOwner::dpf_keys`]) from its own randomness stream, so every query's
//! random shares are fresh: keys generated from one fixed seed would hand
//! server 1 the XOR of two queries' shares, the indicator of both points.
//! The evaluation is this engine's [`SecureSelectionEngine::locate`] round;
//! in a Query Binning episode the fetch by address also carries the
//! clear-text bin, so an episode takes two rounds.
//!
//! The per-query work is linear in the number of tuples on *both* servers —
//! the expensive scan QB avoids performing over non-sensitive data.

use std::collections::{HashMap, HashSet};

use pds_cloud::{CloudServer, DbOwner};
use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use pds_crypto::dpf::{self, DpfKey};
use pds_crypto::FeistelPrp;
use pds_crypto::Key128;

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

    /// One DPF key pair per requested value that exists in the domain,
    /// generated by the owner with fresh randomness.
    fn query_keys(&self, owner: &mut DbOwner, values: &[Value]) -> Result<Vec<(DpfKey, DpfKey)>> {
        values
            .iter()
            .filter_map(|value| self.domain.get(value))
            .map(|&alpha| owner.dpf_keys(self.domain_size, alpha))
            .collect()
    }
}

impl SecureSelectionEngine for DpfEngine {
    fn name(&self) -> &'static str {
        "dpf"
    }

    /// The secret-permuted domain of the rows' distinct values, taken in
    /// first-occurrence order, and each row's value index on both servers;
    /// the rows themselves carry no tags.
    fn index(
        &mut self,
        _owner: &mut DbOwner,
        attr: AttrId,
        rows: &[(TupleId, &Value)],
    ) -> Result<Vec<Vec<Vec<u8>>>> {
        let mut seen = HashSet::new();
        let distinct: Vec<&Value> = rows
            .iter()
            .map(|&(_, value)| value)
            .filter(|value| seen.insert(*value))
            .collect();
        self.domain_size = distinct.len().max(1);
        let prp = FeistelPrp::new(
            Key128::derive(self.seed, "dpf-domain"),
            self.domain_size as u64,
        );
        for (i, v) in distinct.into_iter().enumerate() {
            self.domain
                .insert(v.clone(), prp.permute(i as u64) as usize);
        }
        for &(id, value) in rows {
            let idx = *self
                .domain
                .get(value)
                .ok_or_else(|| PdsError::Query("value missing from DPF domain".into()))?;
            self.servers[0].tuple_value_index.push((id, idx));
            self.servers[1].tuple_value_index.push((id, idx));
        }
        self.attr = Some(attr);
        Ok(vec![Vec::new(); rows.len()])
    }

    fn searchable_attr(&self) -> Result<AttrId> {
        self.attr.ok_or_else(not_outsourced)
    }

    /// The two servers' evaluation: one DPF key pair per requested value in
    /// the domain, each key evaluated at every stored row.
    fn locate(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<TupleId>> {
        self.searchable_attr()?;
        let keys = self.query_keys(owner, values)?;
        let mut matching: Vec<TupleId> = Vec::new();
        for (k0, k1) in &keys {
            let e0 = self.servers[0].evaluate(k0)?;
            let e1 = self.servers[1].evaluate(k1)?;
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
            keys.len(),
            keys.len() * self.domain_size * 8,
            keys.len() * rows,
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
    use pds_storage::{DataType, Relation, Schema};

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
    fn every_query_draws_fresh_key_randomness() {
        let (mut owner, _, engine) = setup();
        let value = [Value::Int(10)];
        let first = engine.query_keys(&mut owner, &value).unwrap();
        let second = engine.query_keys(&mut owner, &value).unwrap();
        // Server 1 must not see the same shares twice: XORing two queries'
        // shares would otherwise give it the indicator of both points.
        let server1 = |keys: &[(DpfKey, DpfKey)]| engine.servers[1].evaluate(&keys[0].1).unwrap();
        assert_ne!(server1(&first), server1(&second));
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
