//! Secret-sharing back-end (Shamir \[4\] / Emekçi et al. \[5\]).
//!
//! The searchable attribute of every tuple is Shamir-shared across `n`
//! simulated non-colluding servers.  Answering a selection requires touching
//! every shared value (a linear scan — this is what makes the technique
//! strong but slow; the paper quotes ≈10 ms per predicate search), after
//! which the matching tuples are fetched from the encrypted store and
//! decrypted by the owner.  The scan is this engine's
//! [`SecureSelectionEngine::locate`] round, charged as one request and
//! one scanned share row per stored tuple; in a Query Binning episode the
//! fetch by address also carries the clear-text bin, so an episode takes
//! two rounds.
//!
//! The `n` share servers are held inside the engine (they are logically
//! separate parties; the single [`CloudServer`] models the party that stores
//! the encrypted payload tuples).  The share values of the searchable
//! attribute genuinely go through `pds_crypto::shamir`, so the cost model's
//! per-tuple work corresponds to real field arithmetic performed here.

use pds_cloud::{CloudServer, DbOwner};
use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use pds_crypto::shamir::{self, Share};
use pds_storage::Relation;

use crate::cost::CostProfile;
use crate::engine::{not_outsourced, SecureSelectionEngine};

/// Converts a value into a field element for sharing (hash of the encoding,
/// so text values work too).
fn field_encode(value: &Value) -> u64 {
    let digest = pds_crypto::sha256::sha256(&value.encode());
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes")) % shamir::MODULUS
}

/// One simulated share server: it stores, for every tuple, its share of the
/// searchable attribute value.
#[derive(Debug, Clone, Default)]
struct ShareServer {
    shares: Vec<(TupleId, Share)>,
}

/// Secret-sharing based selection engine.
#[derive(Debug)]
pub struct SecretSharingEngine {
    threshold: usize,
    servers: Vec<ShareServer>,
    attr: Option<AttrId>,
}

impl SecretSharingEngine {
    /// Creates an engine with `n` share servers and reconstruction threshold
    /// `k` (the usual deployment in \[5\] is small `n`, e.g. 3-of-5).
    pub fn new(k: usize, n: usize) -> Self {
        SecretSharingEngine {
            threshold: k,
            servers: vec![ShareServer::default(); n],
            attr: None,
        }
    }

    /// Default 2-of-3 deployment.
    pub fn default_deployment() -> Self {
        Self::new(2, 3)
    }

    /// Number of share servers.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }
}

impl SecureSelectionEngine for SecretSharingEngine {
    fn name(&self) -> &'static str {
        "secret-sharing"
    }

    fn outsource(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        relation: &Relation,
        attr: AttrId,
    ) -> Result<()> {
        if self.threshold == 0 || self.threshold > self.servers.len() {
            return Err(PdsError::Config("invalid secret sharing threshold".into()));
        }
        // Shares of the searchable attribute go to the share servers...
        let mut rng = pds_common::rng::seeded_rng(0x5ec7);
        for t in relation.tuples() {
            let secret = field_encode(t.value(attr));
            let shares = shamir::share(secret, self.threshold, self.servers.len(), &mut rng)?;
            for (server, share) in self.servers.iter_mut().zip(shares) {
                server.shares.push((t.id, share));
            }
        }
        // ...and the encrypted payload tuples go to the cloud.
        let rows = owner.encrypt_relation(relation, attr);
        cloud.upload_encrypted(rows)?;
        self.attr = Some(attr);
        Ok(())
    }

    fn searchable_attr(&self) -> Result<AttrId> {
        self.attr.ok_or_else(not_outsourced)
    }

    /// The share servers' scan: every share row is reconstructed and
    /// compared against the requested values.
    fn locate(
        &mut self,
        _owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<TupleId>> {
        self.searchable_attr()?;
        let targets: Vec<u64> = values.iter().map(field_encode).collect();

        // Linear scan: reconstruct every shared value from `threshold`
        // servers and compare against the targets.  (A real deployment
        // compares under sharing; reconstructing at the owner touches the
        // same number of values and keeps the simulation simple.)
        let tuple_count = self.servers[0].shares.len();
        let mut matching: Vec<TupleId> = Vec::new();
        for i in 0..tuple_count {
            let id = self.servers[0].shares[i].0;
            let shares: Vec<Share> = self.servers[..self.threshold]
                .iter()
                .map(|s| s.shares[i].1)
                .collect();
            let secret = shamir::reconstruct(&shares)?;
            if targets.contains(&secret) {
                matching.push(id);
            }
        }
        // Account the scan as encrypted-tuple work on the cloud side: one
        // share row per stored tuple.
        cloud.note_encrypted_request(
            values.len(),
            values.iter().map(Value::size_bytes).sum(),
            tuple_count,
        );
        Ok(matching)
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::secret_sharing()
    }

    fn hides_access_pattern(&self) -> bool {
        // The share-server scan itself is access-pattern free; the final
        // payload fetch is not. Consistent with the paper's observation that
        // QB does not need (but composes with) access-pattern hiding.
        false
    }

    fn fork(&self) -> Self {
        Self::new(self.threshold, self.servers.len())
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
        let schema = Schema::from_pairs(&[("K", DataType::Text), ("P", DataType::Int)]).unwrap();
        let mut r = Relation::new("T", schema);
        for (k, p) in [("a", 1), ("b", 2), ("a", 3), ("c", 4)] {
            r.insert(vec![Value::from(k), Value::Int(p)]).unwrap();
        }
        r
    }

    fn setup() -> (DbOwner, CloudServer, SecretSharingEngine) {
        let mut owner = DbOwner::new(41);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        let mut engine = SecretSharingEngine::default_deployment();
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
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::from("a")])
            .unwrap();
        assert_eq!(out.len(), 2);
        let out = engine
            .select(
                &mut owner,
                &mut cloud,
                &[Value::from("b"), Value::from("c")],
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::from("zzz")])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn every_share_row_is_scanned_every_query() {
        let (mut owner, mut cloud, mut engine) = setup();
        let before = *cloud.metrics();
        engine
            .select(&mut owner, &mut cloud, &[Value::from("a")])
            .unwrap();
        let delta = cloud.metrics().delta_since(&before);
        assert_eq!(delta.encrypted_tuples_scanned, 4);
        assert_eq!(delta.round_trips, 2, "the scan, then the fetch");
    }

    #[test]
    fn shares_alone_do_not_equal_field_encoding() {
        // A single server's share of a value should not (in general) equal
        // the field encoding of the value: individual shares hide the value.
        let (_, _, engine) = setup();
        let encoded = field_encode(&Value::from("a"));
        let equal = engine.servers[0]
            .shares
            .iter()
            .filter(|(_, s)| s.y == encoded)
            .count();
        assert!(equal < engine.servers[0].shares.len());
    }

    #[test]
    fn invalid_threshold_rejected() {
        let mut owner = DbOwner::new(1);
        let mut cloud = CloudServer::default();
        let mut engine = SecretSharingEngine::new(5, 3);
        let rel = sample_relation();
        let attr = rel.schema().attr_id("K").unwrap();
        assert!(engine
            .outsource(&mut owner, &mut cloud, &rel, attr)
            .is_err());
    }

    #[test]
    fn select_before_outsource_errors() {
        let mut owner = DbOwner::new(1);
        let mut cloud = CloudServer::default();
        let mut engine = SecretSharingEngine::default_deployment();
        assert!(engine
            .select(&mut owner, &mut cloud, &[Value::Int(1)])
            .is_err());
        assert_eq!(engine.name(), "secret-sharing");
        assert_eq!(engine.server_count(), 3);
    }
}
