//! Oblivious full-scan engines: Opaque (SGX) and Jana (MPC) simulators.
//!
//! The paper's Table VI composes QB with Opaque \[16\] and with Jana \[37\].
//! Neither system is available here (Opaque requires SGX hardware, Jana is a
//! closed MPC engine), so both are modelled as **oblivious full-scan
//! engines**: a selection touches every encrypted tuple, the output is
//! padded to a fixed size (Opaque's output-size protection), and the
//! per-tuple cost constants in [`CostProfile::opaque`] /
//! [`CostProfile::jana`] are calibrated to the end-to-end numbers the paper
//! reports (89 s over 700 MB, 1051 s over 116 MB).  The functional behaviour
//! (which tuples are returned) is exact; only wall-clock time is simulated.
//! `DESIGN.md` §5 documents this substitution.

use pds_cloud::{BinEpisodeRequest, CloudServer, DbOwner};
use pds_common::{AttrId, Result, TupleId, Value};

use crate::cost::CostProfile;
use crate::engine::{finish_episode, not_outsourced, BinEpisodeOutcome, SecureSelectionEngine};

/// Which oblivious system is being simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObliviousKind {
    /// Opaque: SGX-based oblivious analytics (NSDI'17).
    Opaque,
    /// Jana: MPC-based relational engine.
    Jana,
}

/// An oblivious full-scan engine (the generic machinery behind both
/// [`OpaqueSimEngine`] and [`JanaSimEngine`]).
///
/// The secure execution environment (enclave / MPC committee) is modelled
/// by an engine-internal copy of the searchable column: the environment can
/// decrypt inside itself, scans every tuple per query (that is what makes
/// these systems slow), and only the matching tuples travel back to the
/// owner.
#[derive(Debug)]
pub struct ObliviousScanEngine {
    kind: ObliviousKind,
    attr: Option<AttrId>,
    /// The enclave's view of the searchable column: (tuple id, value).
    enclave_column: Vec<(TupleId, Value)>,
}

impl ObliviousScanEngine {
    /// Creates an engine of the given kind.
    pub fn new(kind: ObliviousKind) -> Self {
        ObliviousScanEngine {
            kind,
            attr: None,
            enclave_column: Vec::new(),
        }
    }

    /// The simulated system kind.
    pub fn kind(&self) -> ObliviousKind {
        self.kind
    }

    /// The enclave's scan: addresses of the rows whose value is in
    /// `values`, found by touching every row of the column.
    fn enclave_matches(&self, values: &[Value]) -> Vec<TupleId> {
        self.enclave_column
            .iter()
            .filter(|(_, v)| values.contains(v))
            .map(|(id, _)| *id)
            .collect()
    }
}

impl SecureSelectionEngine for ObliviousScanEngine {
    fn name(&self) -> &'static str {
        match self.kind {
            ObliviousKind::Opaque => "opaque-sim",
            ObliviousKind::Jana => "jana-sim",
        }
    }

    /// The enclave's copy of the searchable column; the rows carry no
    /// tags.
    fn index(
        &mut self,
        _owner: &mut DbOwner,
        attr: AttrId,
        rows: &[(TupleId, &Value)],
    ) -> Result<Vec<Vec<Vec<u8>>>> {
        self.enclave_column = rows.iter().map(|&(id, v)| (id, v.clone())).collect();
        self.attr = Some(attr);
        Ok(vec![Vec::new(); rows.len()])
    }

    fn searchable_attr(&self) -> Result<AttrId> {
        self.attr.ok_or_else(not_outsourced)
    }

    fn cost_profile(&self) -> CostProfile {
        match self.kind {
            ObliviousKind::Opaque => CostProfile::opaque(),
            ObliviousKind::Jana => CostProfile::jana(),
        }
    }

    fn hides_access_pattern(&self) -> bool {
        true
    }

    fn fork(&self) -> Self {
        Self::new(self.kind)
    }

    fn fork_boxed(&self) -> Box<dyn SecureSelectionEngine> {
        Box::new(self.fork())
    }

    /// Oblivious execution in one round: the sensitive bin's values
    /// travel as opaque encrypted tokens in the tags of the episode's
    /// `FetchBinRequest` (only the enclave / MPC committee can read them),
    /// the secure environment scans every encrypted tuple cloud-side, and
    /// the matching rows come back in the same payload as the clear-text
    /// non-sensitive tuples ([`CloudServer::fetch_bin_oblivious`]).  A
    /// standalone selection is the same round with no clear-text bin.
    fn select_bin_episode(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        request: &BinEpisodeRequest,
    ) -> Result<BinEpisodeOutcome> {
        let attr = self.searchable_attr()?;
        let tokens: Vec<Vec<u8>> = request
            .sensitive_values
            .iter()
            .map(|v| owner.encrypt_value(v).as_bytes().to_vec())
            .collect();
        let matching = self.enclave_matches(&request.sensitive_values);
        let scanned = self.enclave_column.len();
        let answer =
            cloud.fetch_bin_oblivious(&request.to_wire(tokens, &[]), &matching, scanned)?;
        finish_episode(owner, attr, request, answer)
    }
}

/// Opaque (SGX) simulator.
pub type OpaqueSimEngine = ObliviousScanEngine;

/// Convenience constructor for the Opaque simulator.
pub fn opaque_sim() -> ObliviousScanEngine {
    ObliviousScanEngine::new(ObliviousKind::Opaque)
}

/// Jana (MPC) simulator.
pub struct JanaSimEngine;

impl JanaSimEngine {
    /// Convenience constructor for the Jana simulator.
    // `JanaSimEngine` is a facade name; the working type is the shared
    // oblivious-scan engine parameterized by kind.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> ObliviousScanEngine {
        ObliviousScanEngine::new(ObliviousKind::Jana)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::computation_time;
    use pds_cloud::{msg_tag, NetworkModel};
    use pds_storage::{DataType, Relation, Schema};

    fn sample_relation(n: i64) -> Relation {
        let schema = Schema::from_pairs(&[("K", DataType::Int), ("P", DataType::Int)]).unwrap();
        let mut r = Relation::new("T", schema);
        for i in 0..n {
            r.insert(vec![Value::Int(i % 10), Value::Int(i)]).unwrap();
        }
        r
    }

    #[test]
    fn oblivious_scan_touches_every_tuple() {
        let mut owner = DbOwner::new(61);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        let mut engine = opaque_sim();
        let rel = sample_relation(50);
        let attr = rel.schema().attr_id("K").unwrap();
        engine
            .outsource(&mut owner, &mut cloud, &rel, attr)
            .unwrap();
        let before = *cloud.metrics();
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(3)])
            .unwrap();
        let delta = cloud.metrics().delta_since(&before);
        assert_eq!(out.len(), 5);
        assert_eq!(delta.encrypted_tuples_scanned, 50);
        assert!(engine.hides_access_pattern());
        // The enclave's tokens ride one request: one round, one fetch, and
        // no separate scan request.
        assert_eq!(delta.round_trips, 1);
        assert_eq!(delta.frames_of_type(msg_tag::FETCH_BIN_REQUEST), 1);
        assert_eq!(delta.frames_of_type(msg_tag::OPAQUE), 0);
    }

    #[test]
    fn the_scan_request_shows_its_value_count() {
        let mut owner = DbOwner::new(61);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        let mut engine = opaque_sim();
        let rel = sample_relation(20);
        let attr = rel.schema().attr_id("K").unwrap();
        engine
            .outsource(&mut owner, &mut cloud, &rel, attr)
            .unwrap();
        cloud.begin_query();
        engine
            .select(&mut owner, &mut cloud, &[Value::Int(3), Value::Int(4)])
            .unwrap();
        cloud.end_query();
        let ep = &cloud.adversarial_view().episodes()[0];
        assert_eq!(ep.encrypted_request_size, 2);
        assert_eq!(ep.sensitive_returned.len(), 4);
    }

    #[test]
    fn jana_slower_than_opaque_for_same_work() {
        let m = pds_cloud::Metrics {
            encrypted_tuples_scanned: 10_000,
            round_trips: 1,
            ..Default::default()
        };
        let opaque_t = computation_time(&m, &CostProfile::opaque());
        let jana_t = computation_time(&m, &CostProfile::jana());
        assert!(jana_t > opaque_t);
    }

    #[test]
    fn names_and_kinds() {
        assert_eq!(opaque_sim().name(), "opaque-sim");
        assert_eq!(JanaSimEngine::new().name(), "jana-sim");
        assert_eq!(opaque_sim().kind(), ObliviousKind::Opaque);
        assert_eq!(opaque_sim().cost_profile(), CostProfile::opaque());
        assert_eq!(JanaSimEngine::new().cost_profile(), CostProfile::jana());
    }

    #[test]
    fn select_before_outsource_errors() {
        let mut owner = DbOwner::new(1);
        let mut cloud = CloudServer::default();
        let mut engine = JanaSimEngine::new();
        assert!(engine
            .select(&mut owner, &mut cloud, &[Value::Int(1)])
            .is_err());
    }
}
