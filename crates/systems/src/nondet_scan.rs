//! The "No-Ind" back-end of §V-B: owner-side search over non-deterministic
//! encryption.
//!
//! Neither commercial system the paper evaluates can search inside
//! non-deterministically encrypted columns, so the paper implements search
//! as: *"retrieve the searching attribute of a sensitive relation at the DB
//! owner side, decrypt the attributes, and search for records that match
//! |SB|. It then retrieves full tuples corresponding to |SB| predicates'
//! addresses."*  This module reproduces exactly that procedure: its
//! [`SecureSelectionEngine::locate`] is the column download and owner-side
//! decrypt (one round), and the fetch by address is the next round.  In a
//! Query Binning episode that fetch also carries the clear-text bin, so an
//! episode takes two rounds.

use pds_cloud::{CloudServer, DbOwner};
use pds_common::{AttrId, Result, TupleId, Value};
use pds_crypto::Ciphertext;

use crate::cost::CostProfile;
use crate::engine::{not_outsourced, SecureSelectionEngine};

/// Owner-side decrypt-and-filter over non-deterministically encrypted rows.
#[derive(Debug, Default)]
pub struct NonDetScanEngine {
    attr: Option<AttrId>,
}

impl NonDetScanEngine {
    /// Creates a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SecureSelectionEngine for NonDetScanEngine {
    fn name(&self) -> &'static str {
        "nondet-scan"
    }

    /// No search state: every query downloads the attribute column.
    fn index(
        &mut self,
        _owner: &mut DbOwner,
        attr: AttrId,
        rows: &[(TupleId, &Value)],
    ) -> Result<Vec<Vec<Vec<u8>>>> {
        self.attr = Some(attr);
        Ok(vec![Vec::new(); rows.len()])
    }

    /// The one back-end that downloads the attribute column stores it.
    fn stores_attr_column(&self) -> bool {
        true
    }

    fn searchable_attr(&self) -> Result<AttrId> {
        self.attr.ok_or_else(not_outsourced)
    }

    /// Downloads the encrypted searchable-attribute column, decrypts it
    /// owner-side and keeps the addresses whose value was requested.
    fn locate(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        values: &[Value],
    ) -> Result<Vec<TupleId>> {
        self.searchable_attr()?;
        let mut matching = Vec::new();
        for row in cloud.download_encrypted_attr_column()? {
            if values.contains(&owner.decrypt_value(&Ciphertext(row.attr_ct))?) {
                matching.push(TupleId::new(row.id));
            }
        }
        Ok(matching)
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::nondet_scan()
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
    use pds_storage::{DataType, Relation, Schema};

    fn sample_relation() -> Relation {
        let schema =
            Schema::from_pairs(&[("EId", DataType::Text), ("Office", DataType::Int)]).unwrap();
        let mut r = Relation::new("Employee2", schema);
        for (e, o) in [("E101", 1), ("E259", 6), ("E152", 1), ("E159", 2)] {
            r.insert(vec![Value::from(e), Value::Int(o)]).unwrap();
        }
        r
    }

    fn setup() -> (DbOwner, CloudServer, NonDetScanEngine, AttrId) {
        let mut owner = DbOwner::new(11);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        let mut engine = NonDetScanEngine::new();
        let rel = sample_relation();
        let attr = rel.schema().attr_id("EId").unwrap();
        engine
            .outsource(&mut owner, &mut cloud, &rel, attr)
            .unwrap();
        (owner, cloud, engine, attr)
    }

    #[test]
    fn select_finds_matching_tuples() {
        let (mut owner, mut cloud, mut engine, attr) = setup();
        cloud.begin_query();
        let out = engine
            .select(
                &mut owner,
                &mut cloud,
                &[Value::from("E259"), Value::from("E101")],
            )
            .unwrap();
        cloud.end_query();
        assert_eq!(out.len(), 2);
        let values: Vec<&Value> = out.iter().map(|t| t.value(attr)).collect();
        assert!(values.contains(&&Value::from("E259")));
        assert!(values.contains(&&Value::from("E101")));
    }

    #[test]
    fn select_empty_result() {
        let (mut owner, mut cloud, mut engine, _) = setup();
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::from("E999")])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn select_before_outsource_errors() {
        let mut owner = DbOwner::new(1);
        let mut cloud = CloudServer::default();
        let mut engine = NonDetScanEngine::new();
        assert!(engine
            .select(&mut owner, &mut cloud, &[Value::Int(1)])
            .is_err());
    }

    #[test]
    fn whole_column_is_scanned_every_query() {
        let (mut owner, mut cloud, mut engine, _) = setup();
        let before = *cloud.metrics();
        engine
            .select(&mut owner, &mut cloud, &[Value::from("E101")])
            .unwrap();
        let delta = cloud.metrics().delta_since(&before);
        assert_eq!(delta.encrypted_tuples_scanned, 4);
    }

    /// A Query Binning episode takes the column download plus one fetch
    /// that carries the addresses (and, when there is one, the clear-text
    /// bin), and answers what the fine-grained selection answers.
    #[test]
    fn a_composed_episode_fetches_by_address_in_its_second_round() {
        use pds_cloud::{msg_tag, BinEpisodeRequest};
        let (mut owner, mut cloud, mut engine, _) = setup();
        let values = vec![Value::from("E259"), Value::from("E101")];
        let request = BinEpisodeRequest {
            sensitive_values: values.clone(),
            ..BinEpisodeRequest::default()
        };
        let before = *cloud.metrics();
        cloud.begin_query();
        let outcome = engine
            .select_bin_episode(&mut owner, &mut cloud, &request)
            .unwrap();
        cloud.end_query();
        let d = cloud.metrics().delta_since(&before);
        assert_eq!(d.round_trips, 2);
        assert_eq!(d.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 1);
        assert_eq!(d.encrypted_tuples_scanned, 4);
        let direct = engine.select(&mut owner, &mut cloud, &values).unwrap();
        assert_eq!(outcome.sensitive, direct);
        assert!(outcome.nonsensitive.is_empty());
    }

    #[test]
    fn access_pattern_is_recorded_in_view() {
        let (mut owner, mut cloud, mut engine, _) = setup();
        cloud.begin_query();
        engine
            .select(&mut owner, &mut cloud, &[Value::from("E152")])
            .unwrap();
        cloud.end_query();
        let ep = &cloud.adversarial_view().episodes()[0];
        assert_eq!(ep.sensitive_returned.len(), 1);
        assert!(!engine.hides_access_pattern());
    }

    #[test]
    fn cost_profile_is_nondet() {
        let engine = NonDetScanEngine::new();
        assert_eq!(engine.cost_profile(), CostProfile::nondet_scan());
        assert_eq!(engine.name(), "nondet-scan");
    }
}
