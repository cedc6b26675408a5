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

    /// Shares of each row's searchable value go to the share servers,
    /// each polynomial drawn from the owner's randomness; the rows
    /// themselves carry no tags.
    fn index(
        &mut self,
        owner: &mut DbOwner,
        attr: AttrId,
        rows: &[(TupleId, &Value)],
    ) -> Result<Vec<Vec<Vec<u8>>>> {
        if self.threshold == 0 || self.threshold > self.servers.len() {
            return Err(PdsError::Config("invalid secret sharing threshold".into()));
        }
        for &(id, value) in rows {
            let shares =
                owner.shamir_shares(field_encode(value), self.threshold, self.servers.len())?;
            for (server, share) in self.servers.iter_mut().zip(shares) {
                server.shares.push((id, share));
            }
        }
        self.attr = Some(attr);
        Ok(vec![Vec::new(); rows.len()])
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
        // same number of values and keeps the simulation simple.)  Server
        // `j` holds every value's share at the point `j + 1`, so the
        // Lagrange weights are computed once and each row is one weighted
        // sum.
        let servers = &self.servers[..self.threshold];
        let points: Vec<u64> = (1..=servers.len() as u64).collect();
        let weights = shamir::lagrange_weights(&points)?;
        let tuple_count = self.servers[0].shares.len();
        let mut matching: Vec<TupleId> = Vec::new();
        for i in 0..tuple_count {
            debug_assert!(servers
                .iter()
                .zip(&points)
                .all(|(s, &x)| s.shares[i].1.x == x));
            let secret = shamir::weighted_sum(&weights, servers.iter().map(|s| s.shares[i].1.y));
            if targets.contains(&secret) {
                matching.push(self.servers[0].shares[i].0);
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
    use pds_storage::{DataType, Relation, Schema};

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

    /// The shares depend on the owner's secret randomness: one relation
    /// outsourced under two owner seeds leaves no share equal on any
    /// server, so a server cannot subtract two deployments' shares into
    /// the difference of the values, and both still answer alike.
    #[test]
    fn shares_are_drawn_from_the_owner_and_differ_across_owner_seeds() {
        let rel = sample_relation();
        let attr = rel.schema().attr_id("K").unwrap();
        let mut deployments: Vec<_> = [41, 42]
            .into_iter()
            .map(|seed| {
                let mut owner = DbOwner::new(seed);
                let mut cloud = CloudServer::default();
                let mut engine = SecretSharingEngine::default_deployment();
                engine
                    .outsource(&mut owner, &mut cloud, &rel, attr)
                    .unwrap();
                (owner, cloud, engine)
            })
            .collect();
        let [a, b] = &deployments[..] else {
            unreachable!()
        };
        for (server_a, server_b) in a.2.servers.iter().zip(&b.2.servers) {
            assert_eq!(server_a.shares.len(), rel.len());
            for ((id_a, share_a), (id_b, share_b)) in server_a.shares.iter().zip(&server_b.shares) {
                assert_eq!(id_a, id_b);
                assert_ne!(
                    share_a.y, share_b.y,
                    "row {id_a} shared alike under both seeds"
                );
            }
        }
        let answers: Vec<Vec<_>> = deployments
            .iter_mut()
            .map(|(owner, cloud, engine)| {
                let mut ids: Vec<_> = engine
                    .select(owner, cloud, &[Value::from("a"), Value::from("c")])
                    .unwrap()
                    .into_iter()
                    .map(|t| t.id)
                    .collect();
                ids.sort();
                ids
            })
            .collect();
        assert_eq!(answers[0].len(), 3);
        assert_eq!(answers[0], answers[1]);
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
