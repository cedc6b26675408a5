//! Surviving-matches analysis (§IV, Figure 4 of the paper).
//!
//! Before any query executes, the adversary considers every association
//! between an encrypted sensitive tuple and a clear-text non-sensitive value
//! possible (a complete bipartite graph).  Observing query episodes lets the
//! adversary *drop* candidate associations: a sensitive tuple returned only
//! ever alongside a particular group of non-sensitive values can only be
//! associated with values the owner has requested together with it.
//!
//! Query Binning is secure exactly when no candidate is ever dropped: after
//! queries for every value have been observed, each retrieved sensitive
//! group must have co-occurred with each retrieved non-sensitive group
//! (Figure 4a); a scheme that pairs bins arbitrarily drops edges
//! (Figure 4b) and leaks.

use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

use pds_cloud::AdversarialView;
use pds_common::{TupleId, Value};

/// A sensitive-side retrieval group: the set of encrypted tuple ids returned
/// together in at least one episode (i.e. one sensitive bin as the adversary
/// perceives it).
pub type SensitiveGroup = BTreeSet<TupleId>;

/// A non-sensitive-side retrieval group: the set of clear-text values
/// requested together in at least one episode (one non-sensitive bin).
pub type NonSensitiveGroup = BTreeSet<Value>;

/// The adversary's surviving-matches state after observing a view.
///
/// A tuple's candidates are the values of every non-sensitive group one of
/// its sensitive groups co-occurred with, so they are kept per sensitive
/// group, not per tuple: each group holds the union of its co-occurring
/// non-sensitive groups, and each tuple the indices of the groups it was
/// returned in.  Under Query Binning every tuple lies in one group (its
/// bin) and reads that group's set; a tuple returned in several groups
/// takes the union of theirs.
#[derive(Debug, Clone)]
pub struct SurvivingMatches {
    sensitive_groups: Vec<SensitiveGroup>,
    nonsensitive_groups: Vec<NonSensitiveGroup>,
    /// Edges between group indices that were observed co-retrieved.
    edges: BTreeSet<(usize, usize)>,
    /// For every sensitive group: the non-sensitive values that remain
    /// candidate associations of its tuples.
    group_candidates: Vec<BTreeSet<Value>>,
    /// For every returned sensitive tuple id: the indices of the sensitive
    /// groups it was returned in, ascending.
    tuple_groups: BTreeMap<TupleId, Vec<usize>>,
    /// Every clear-text value the adversary has seen requested.
    all_nonsensitive_values: BTreeSet<Value>,
}

impl SurvivingMatches {
    /// Builds the analysis from an adversarial view.
    ///
    /// Every update below is an idempotent set insert that reads only an
    /// episode's request and sensitive ids, so each distinct (request,
    /// sensitive ids) pair is folded in once.  The view interns its lists,
    /// so two of them are one allocation exactly when they are equal, and
    /// the pair is keyed by its two pointers: the cost grows with the bin
    /// pairs observed, not with the episodes or with how many clear-text
    /// results inserts made of each pair.  Candidates are then filled once
    /// per edge, not once per returned tuple.
    pub fn from_view(view: &AdversarialView) -> Self {
        let mut sensitive_groups: Vec<SensitiveGroup> = Vec::new();
        let mut nonsensitive_groups: Vec<NonSensitiveGroup> = Vec::new();
        let mut edges = BTreeSet::new();
        let mut all_ns_values: BTreeSet<Value> = BTreeSet::new();
        let mut folded: HashSet<(*const [Value], *const [TupleId])> = HashSet::new();

        for ep in view.episodes() {
            let pair = (
                Arc::as_ptr(&ep.plaintext_request),
                Arc::as_ptr(&ep.sensitive_returned),
            );
            if !folded.insert(pair) {
                continue;
            }
            let s_group: SensitiveGroup = ep.sensitive_returned.iter().copied().collect();
            let ns_group: NonSensitiveGroup = ep.plaintext_request.iter().cloned().collect();
            all_ns_values.extend(ns_group.iter().cloned());
            if s_group.is_empty() && ns_group.is_empty() {
                continue;
            }
            let s_idx = Self::intern(&mut sensitive_groups, s_group);
            let ns_idx = Self::intern(&mut nonsensitive_groups, ns_group);
            edges.insert((s_idx, ns_idx));
        }

        let mut group_candidates = vec![BTreeSet::new(); sensitive_groups.len()];
        for &(s, ns) in &edges {
            group_candidates[s].extend(nonsensitive_groups[ns].iter().cloned());
        }
        let mut tuple_groups: BTreeMap<TupleId, Vec<usize>> = BTreeMap::new();
        for (s, group) in sensitive_groups.iter().enumerate() {
            for &tid in group {
                tuple_groups.entry(tid).or_default().push(s);
            }
        }

        SurvivingMatches {
            sensitive_groups,
            nonsensitive_groups,
            edges,
            group_candidates,
            tuple_groups,
            all_nonsensitive_values: all_ns_values,
        }
    }

    fn intern<T: PartialEq>(groups: &mut Vec<T>, group: T) -> usize {
        if let Some(pos) = groups.iter().position(|g| *g == group) {
            pos
        } else {
            groups.push(group);
            groups.len() - 1
        }
    }

    /// The distinct sensitive retrieval groups observed.
    pub fn sensitive_groups(&self) -> &[SensitiveGroup] {
        &self.sensitive_groups
    }

    /// The distinct non-sensitive retrieval groups observed.
    pub fn nonsensitive_groups(&self) -> &[NonSensitiveGroup] {
        &self.nonsensitive_groups
    }

    /// Number of co-occurrence edges observed between groups.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Whether a particular pair of groups has been observed together.
    pub fn has_edge(&self, sensitive_idx: usize, nonsensitive_idx: usize) -> bool {
        self.edges.contains(&(sensitive_idx, nonsensitive_idx))
    }

    /// Whether the observed bipartite graph is complete: every sensitive
    /// group co-occurred with every non-sensitive group.  This is the
    /// paper's "all surviving matches of the bins are preserved" condition
    /// (Figure 4a).  Vacuously true when either side is empty.
    pub fn is_complete(&self) -> bool {
        self.edges.len() == self.sensitive_groups.len() * self.nonsensitive_groups.len()
    }

    /// Pairs of groups that were *never* observed together — each missing
    /// edge is a dropped surviving match, i.e. information the adversary has
    /// gained (Figure 4b / Example 4 of the paper).
    pub fn dropped_edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for s in 0..self.sensitive_groups.len() {
            for ns in 0..self.nonsensitive_groups.len() {
                if !self.edges.contains(&(s, ns)) {
                    out.push((s, ns));
                }
            }
        }
        out
    }

    /// The candidate non-sensitive values still associable with a given
    /// encrypted tuple (empty set when the tuple was never returned).
    pub fn candidates(&self, id: TupleId) -> BTreeSet<Value> {
        match self.tuple_groups.get(&id).map(Vec::as_slice) {
            None => BTreeSet::new(),
            Some([group]) => self.group_candidates[*group].clone(),
            Some(groups) => groups
                .iter()
                .flat_map(|&g| self.group_candidates[g].iter().cloned())
                .collect(),
        }
    }

    /// How many candidates [`SurvivingMatches::candidates`] holds for `id`,
    /// read without copying a value.
    fn candidate_count(&self, id: TupleId) -> usize {
        match self.tuple_groups.get(&id).map(Vec::as_slice) {
            None => 0,
            Some([group]) => self.group_candidates[*group].len(),
            Some(groups) => groups
                .iter()
                .flat_map(|&g| &self.group_candidates[g])
                .collect::<BTreeSet<&Value>>()
                .len(),
        }
    }

    /// The *association ambiguity* of an encrypted tuple: the fraction of
    /// all observed non-sensitive values that remain candidates.  1.0 means
    /// the adversary learned nothing (every association still possible);
    /// values close to `1/|NS|` mean the tuple is pinned down.
    pub fn ambiguity(&self, id: TupleId) -> f64 {
        if self.all_nonsensitive_values.is_empty() {
            return 1.0;
        }
        self.candidate_count(id) as f64 / self.all_nonsensitive_values.len() as f64
    }

    /// The minimum ambiguity across all returned sensitive tuples — the
    /// adversary's best (most pinned-down) target. 1.0 = no leakage.
    pub fn min_ambiguity(&self) -> f64 {
        self.tuple_groups
            .keys()
            .map(|&id| self.ambiguity(id))
            .fold(1.0_f64, f64::min)
    }

    /// All clear-text values the adversary has observed being requested.
    pub fn observed_nonsensitive_values(&self) -> &BTreeSet<Value> {
        &self.all_nonsensitive_values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_cloud::AdversarialView;
    use proptest::prelude::*;

    /// Builds a view with the given episodes: (sensitive ids, requested ns values).
    fn view(episodes: &[(&[u64], &[&str])]) -> AdversarialView {
        let mut av = AdversarialView::new();
        for (sids, nsvals) in episodes {
            av.begin_episode();
            let values: Vec<Value> = nsvals.iter().map(|&v| Value::from(v)).collect();
            av.observe_plaintext_request(&values);
            let ids: Vec<TupleId> = sids.iter().map(|&i| TupleId::new(i)).collect();
            av.observe_sensitive_result(&ids);
            // Returned non-sensitive tuples are not needed for this analysis.
            av.end_episode();
        }
        av
    }

    #[test]
    fn complete_graph_when_bins_rotate() {
        // Two sensitive groups, two non-sensitive groups, all four pairs seen.
        let av = view(&[
            (&[1, 2], &["a", "b"]),
            (&[1, 2], &["c", "d"]),
            (&[3, 4], &["a", "b"]),
            (&[3, 4], &["c", "d"]),
        ]);
        let sm = SurvivingMatches::from_view(&av);
        assert_eq!(sm.sensitive_groups().len(), 2);
        assert_eq!(sm.nonsensitive_groups().len(), 2);
        assert_eq!(sm.edge_count(), 4);
        assert!(sm.is_complete());
        assert!(sm.dropped_edges().is_empty());
        // Every sensitive tuple keeps every ns value as a candidate.
        assert_eq!(sm.candidates(TupleId::new(1)).len(), 4);
        assert!((sm.min_ambiguity() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dropped_edges_detected_for_fixed_pairing() {
        // SB{1,2} only ever retrieved with {a,b}; SB{3,4} only with {c,d}:
        // the adversary rules out cross associations (Example 4).
        let av = view(&[(&[1, 2], &["a", "b"]), (&[3, 4], &["c", "d"])]);
        let sm = SurvivingMatches::from_view(&av);
        assert!(!sm.is_complete());
        assert_eq!(sm.dropped_edges().len(), 2);
        assert_eq!(sm.candidates(TupleId::new(1)).len(), 2);
        assert!(sm.min_ambiguity() < 1.0);
    }

    #[test]
    fn naive_execution_pins_down_association() {
        // Without binning, a query returns exactly the matching tuple and
        // the matching value: ambiguity collapses to 1/|NS|.
        let av = view(&[(&[7], &["E259"]), (&[8], &["E101"]), (&[], &["E199"])]);
        let sm = SurvivingMatches::from_view(&av);
        assert_eq!(sm.candidates(TupleId::new(7)).len(), 1);
        assert!(sm.ambiguity(TupleId::new(7)) < 0.5);
    }

    #[test]
    fn empty_view_is_vacuously_complete() {
        let sm = SurvivingMatches::from_view(&AdversarialView::new());
        assert!(sm.is_complete());
        assert_eq!(sm.edge_count(), 0);
        assert_eq!(sm.ambiguity(TupleId::new(0)), 1.0);
    }

    #[test]
    fn never_returned_tuple_has_empty_candidates() {
        let av = view(&[(&[1], &["a"])]);
        let sm = SurvivingMatches::from_view(&av);
        assert!(sm.candidates(TupleId::new(99)).is_empty());
    }

    #[test]
    fn observed_values_accumulate() {
        let av = view(&[(&[1], &["a", "b"]), (&[2], &["b", "c"])]);
        let sm = SurvivingMatches::from_view(&av);
        assert_eq!(sm.observed_nonsensitive_values().len(), 3);
    }

    /// The per-tuple formulation the group form replaced, as the oracle:
    /// a returned tuple's candidates are the union of the requests of every
    /// episode that returned it, and the graph is complete when every
    /// distinct sensitive set co-occurred with every distinct request set.
    struct Reference {
        candidates: BTreeMap<TupleId, BTreeSet<Value>>,
        all_values: BTreeSet<Value>,
        complete: bool,
    }

    impl Reference {
        fn of(view: &AdversarialView) -> Self {
            let mut candidates: BTreeMap<TupleId, BTreeSet<Value>> = BTreeMap::new();
            let mut all_values = BTreeSet::new();
            let (mut s_sets, mut ns_sets, mut pairs) =
                (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
            for ep in view.episodes() {
                let s: BTreeSet<TupleId> = ep.sensitive_returned.iter().copied().collect();
                let ns: BTreeSet<Value> = ep.plaintext_request.iter().cloned().collect();
                all_values.extend(ns.iter().cloned());
                for &tid in &s {
                    candidates
                        .entry(tid)
                        .or_default()
                        .extend(ns.iter().cloned());
                }
                if !(s.is_empty() && ns.is_empty()) {
                    s_sets.insert(s.clone());
                    ns_sets.insert(ns.clone());
                    pairs.insert((s, ns));
                }
            }
            Reference {
                candidates,
                all_values,
                complete: pairs.len() == s_sets.len() * ns_sets.len(),
            }
        }

        fn ambiguity(&self, id: TupleId) -> f64 {
            if self.all_values.is_empty() {
                return 1.0;
            }
            self.candidates.get(&id).map_or(0, BTreeSet::len) as f64 / self.all_values.len() as f64
        }
    }

    proptest! {
        /// Random views, with tuples returned in several groups and empty
        /// groups on either side: the group form answers exactly as the
        /// per-tuple oracle does.
        #[test]
        fn group_candidates_equal_the_per_tuple_formulation(
            episodes in proptest::collection::vec(
                (
                    proptest::collection::btree_set(0u64..8, 0..4),
                    proptest::collection::btree_set(0i64..6, 0..4),
                ),
                0..12,
            )
        ) {
            let mut av = AdversarialView::new();
            for (ids, values) in &episodes {
                av.begin_episode();
                let values: Vec<Value> = values.iter().map(|&v| Value::Int(v)).collect();
                av.observe_plaintext_request(&values);
                let ids: Vec<TupleId> = ids.iter().map(|&i| TupleId::new(i)).collect();
                av.observe_sensitive_result(&ids);
                av.end_episode();
            }
            let sm = SurvivingMatches::from_view(&av);
            let reference = Reference::of(&av);
            for id in (0..8).chain([99]).map(TupleId::new) {
                prop_assert_eq!(
                    sm.candidates(id),
                    reference.candidates.get(&id).cloned().unwrap_or_default()
                );
                prop_assert_eq!(sm.ambiguity(id), reference.ambiguity(id));
            }
            let min = reference
                .candidates
                .keys()
                .map(|&id| reference.ambiguity(id))
                .fold(1.0_f64, f64::min);
            prop_assert_eq!(sm.min_ambiguity(), min);
            prop_assert_eq!(sm.is_complete(), reference.complete);
            prop_assert_eq!(sm.observed_nonsensitive_values(), &reference.all_values);
        }
    }
}
