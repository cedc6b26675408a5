//! Arx-style counter-token index (\[9\] in the paper, discussed in §VI).
//!
//! Arx encrypts the *i*-th occurrence of a value `v` as a token of the pair
//! `(v, i)`, so no two occurrences share a ciphertext and the index is still
//! searchable: to query `v` the owner, who keeps the per-value occurrence
//! histogram, generates the tokens `(v, 0), (v, 1), …, (v, count(v)-1)` and
//! the cloud looks each one up.
//!
//! By itself Arx is "susceptible to the size, frequency-count,
//! workload-skew, and access-pattern attacks" — the number of tokens sent
//! per query reveals the frequency of the queried value.  §VI shows QB makes
//! it resilient to all but the access-pattern attack; the attack tests in
//! `pds-adversary` and `tests/attack_resistance.rs` reproduce both sides.

use std::collections::HashMap;

use pds_cloud::DbOwner;
use pds_common::{AttrId, Result, TupleId, Value};

use crate::cost::CostProfile;
use crate::engine::{not_outsourced, SecureSelectionEngine};

/// Arx-like per-occurrence counter-token index.
#[derive(Debug, Default)]
pub struct ArxEngine {
    attr: Option<AttrId>,
    /// Owner-side histogram: value → number of occurrences outsourced.
    histogram: HashMap<Value, u64>,
}

impl ArxEngine {
    /// Creates a fresh engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// The owner-side occurrence histogram (exposed for tests/attacks).
    pub fn histogram(&self) -> &HashMap<Value, u64> {
        &self.histogram
    }

    /// Every occurrence token of every value in `values`.
    fn occurrence_tokens(&self, owner: &mut DbOwner, values: &[Value]) -> Vec<Vec<u8>> {
        let mut tokens = Vec::new();
        for v in values {
            let count = self.histogram.get(v).copied().unwrap_or(0);
            for i in 0..count {
                tokens.push(owner.counter_tag(v, i));
            }
        }
        tokens
    }
}

impl SecureSelectionEngine for ArxEngine {
    fn name(&self) -> &'static str {
        "arx-index"
    }

    /// Each row's one tag: the token of its value's next occurrence,
    /// counted in the owner-side histogram.
    fn index(
        &mut self,
        owner: &mut DbOwner,
        attr: AttrId,
        rows: &[(TupleId, &Value)],
    ) -> Result<Vec<Vec<Vec<u8>>>> {
        self.attr = Some(attr);
        Ok(rows
            .iter()
            .map(|&(_, value)| {
                let occurrence = self.histogram.entry(value.clone()).or_insert(0);
                let token = owner.counter_tag(value, *occurrence);
                *occurrence += 1;
                vec![token]
            })
            .collect())
    }

    fn searchable_attr(&self) -> Result<AttrId> {
        self.attr.ok_or_else(not_outsourced)
    }

    /// Every occurrence token of every value: the cloud matches them
    /// against its counter-token index, so a composed episode — these
    /// tokens next to the clear-text non-sensitive values in one
    /// `FetchBinRequest` — is a single round.
    fn tags(&mut self, owner: &mut DbOwner, values: &[Value]) -> Result<Option<Vec<Vec<u8>>>> {
        self.searchable_attr()?;
        Ok(Some(self.occurrence_tokens(owner, values)))
    }

    fn cost_profile(&self) -> CostProfile {
        CostProfile::arx()
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
    use pds_cloud::{CloudServer, NetworkModel};
    use pds_storage::{DataType, Relation, Schema};

    fn skewed_relation() -> Relation {
        let schema =
            Schema::from_pairs(&[("Salary", DataType::Int), ("Name", DataType::Text)]).unwrap();
        let mut r = Relation::new("Payroll", schema);
        // Salary 100 appears 5 times, 200 twice, 300 once.
        for (s, n) in [
            (100, "a"),
            (100, "b"),
            (100, "c"),
            (100, "d"),
            (100, "e"),
            (200, "f"),
            (200, "g"),
            (300, "h"),
        ] {
            r.insert(vec![Value::Int(s), Value::from(n)]).unwrap();
        }
        r
    }

    fn setup() -> (DbOwner, CloudServer, ArxEngine) {
        let mut owner = DbOwner::new(31);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        let mut engine = ArxEngine::new();
        let rel = skewed_relation();
        let attr = rel.schema().attr_id("Salary").unwrap();
        engine
            .outsource(&mut owner, &mut cloud, &rel, attr)
            .unwrap();
        (owner, cloud, engine)
    }

    #[test]
    fn ciphertexts_of_equal_values_differ() {
        let (_, cloud, _) = setup();
        // All search tags must be pairwise distinct (per-occurrence tokens).
        let mut tags: Vec<Vec<u8>> = Vec::new();
        for ep in cloud.adversarial_view().episodes() {
            let _ = ep; // no queries yet
        }
        // Inspect via a fresh outsource instead.
        let mut owner = DbOwner::new(31);
        let rel = skewed_relation();
        let attr = rel.schema().attr_id("Salary").unwrap();
        let mut engine = ArxEngine::new();
        let mut cloud2 = CloudServer::new(NetworkModel::paper_wan());
        engine
            .outsource(&mut owner, &mut cloud2, &rel, attr)
            .unwrap();
        for (v, c) in engine.histogram() {
            for i in 0..*c {
                tags.push(owner.counter_tag(v, i));
            }
        }
        let before = tags.len();
        tags.sort();
        tags.dedup();
        assert_eq!(tags.len(), before, "all occurrence tokens are distinct");
    }

    #[test]
    fn select_returns_all_occurrences() {
        let (mut owner, mut cloud, mut engine) = setup();
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(100)])
            .unwrap();
        assert_eq!(out.len(), 5);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(300), Value::Int(200)])
            .unwrap();
        assert_eq!(out.len(), 3);
        let out = engine
            .select(&mut owner, &mut cloud, &[Value::Int(999)])
            .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn token_count_leaks_frequency_without_qb() {
        // The adversarial view records the number of tokens sent; querying a
        // heavy hitter sends visibly more tokens — the leakage §VI discusses.
        let (mut owner, mut cloud, mut engine) = setup();
        cloud.begin_query();
        engine
            .select(&mut owner, &mut cloud, &[Value::Int(100)])
            .unwrap();
        cloud.end_query();
        cloud.begin_query();
        engine
            .select(&mut owner, &mut cloud, &[Value::Int(300)])
            .unwrap();
        cloud.end_query();
        let eps = cloud.adversarial_view().episodes();
        assert_eq!(eps[0].encrypted_request_size, 5);
        assert_eq!(eps[1].encrypted_request_size, 1);
        assert!(eps[0].encrypted_request_size > eps[1].encrypted_request_size);
    }

    #[test]
    fn histogram_tracks_counts() {
        let (_, _, engine) = setup();
        assert_eq!(engine.histogram()[&Value::Int(100)], 5);
        assert_eq!(engine.histogram()[&Value::Int(300)], 1);
    }

    #[test]
    fn select_before_outsource_errors() {
        let mut owner = DbOwner::new(1);
        let mut cloud = CloudServer::default();
        let mut engine = ArxEngine::new();
        assert!(engine
            .select(&mut owner, &mut cloud, &[Value::Int(1)])
            .is_err());
        assert_eq!(engine.name(), "arx-index");
    }
}
