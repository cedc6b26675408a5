//! The interned adversarial view must record exactly what a naive recorder
//! keeping an owned copy of every episode records: the same episodes in the
//! same order, with the same ids and every observed field, the same
//! rendered table and the same load summary — whatever mix of begin /
//! observe / end / absorb calls (dangling episodes included) produced it.
//! And within one view, equal lists are one allocation even when the
//! observations holding them differ, and a clear-text result is stored as
//! an extension of the result last observed for its request exactly when
//! it extends that result.
//!
//! Replay a failing case with `PROPTEST_SEED=<seed>`.

use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::sync::Arc;

use pds_cloud::{AdversarialView, EpisodeLoads, ResultList, ResultPair};
use pds_common::{QueryId, TupleId, Value};
use proptest::prelude::*;

/// One episode as the naive recorder keeps it.
#[derive(Debug, Clone, PartialEq)]
struct NaiveEpisode {
    id: QueryId,
    plaintext_request: Vec<Value>,
    encrypted_request_size: usize,
    nonsensitive_returned: Vec<TupleId>,
    nonsensitive_values: Vec<Value>,
    sensitive_returned: Vec<TupleId>,
}

impl NaiveEpisode {
    fn new(id: QueryId) -> Self {
        NaiveEpisode {
            id,
            plaintext_request: Vec::new(),
            encrypted_request_size: 0,
            nonsensitive_returned: Vec::new(),
            nonsensitive_values: Vec::new(),
            sensitive_returned: Vec::new(),
        }
    }

    /// Everything but the id, as a hashable key.
    fn observation(&self) -> (Vec<Value>, usize, Vec<TupleId>, Vec<Value>, Vec<TupleId>) {
        (
            self.plaintext_request.clone(),
            self.encrypted_request_size,
            self.nonsensitive_returned.clone(),
            self.nonsensitive_values.clone(),
            self.sensitive_returned.clone(),
        )
    }

    /// The clear-text result as (id, value) pairs.
    fn result(&self) -> Vec<ResultPair> {
        self.nonsensitive_returned
            .iter()
            .copied()
            .zip(self.nonsensitive_values.iter().cloned())
            .collect()
    }
}

/// The reference recorder: a fresh owned copy of every episode, kept
/// forever, with the view's numbering and dangling-episode rules.  It
/// also models the view's storage rule for clear-text results: a result
/// first seen when it strictly extends the result last observed for the
/// same request is stored as an extension; an absorbed one keeps the
/// shape it had in its own view.
#[derive(Default)]
struct NaiveView {
    episodes: Vec<NaiveEpisode>,
    in_progress: Option<NaiveEpisode>,
    next_id: u64,
    /// Per request, the result last observed for it.
    last: HashMap<Vec<Value>, Vec<ResultPair>>,
    /// Per distinct result, whether it is stored as an extension.
    extends: HashMap<Vec<ResultPair>, bool>,
}

impl NaiveView {
    fn fresh_id(&mut self) -> QueryId {
        let id = QueryId::new(self.next_id);
        self.next_id += 1;
        id
    }

    fn begin(&mut self) -> QueryId {
        self.end();
        let id = self.fresh_id();
        self.in_progress = Some(NaiveEpisode::new(id));
        id
    }

    fn end(&mut self) {
        if let Some(ep) = self.in_progress.take() {
            let result = ep.result();
            let last = self.last.get(&ep.plaintext_request);
            let extends =
                last.is_some_and(|last| last.len() < result.len() && result.starts_with(last));
            self.extends.entry(result.clone()).or_insert(extends);
            self.last.insert(ep.plaintext_request.clone(), result);
            self.episodes.push(ep);
        }
    }

    fn current(&mut self) -> &mut NaiveEpisode {
        if self.in_progress.is_none() {
            let id = self.fresh_id();
            self.in_progress = Some(NaiveEpisode::new(id));
        }
        self.in_progress.as_mut().unwrap()
    }

    fn absorb(&mut self, other: &NaiveView) {
        for ep in &other.episodes {
            let mut ep = ep.clone();
            ep.id = self.fresh_id();
            let result = ep.result();
            self.extends
                .entry(result.clone())
                .or_insert(other.extends[&result]);
            self.last.insert(ep.plaintext_request.clone(), result);
            self.episodes.push(ep);
        }
    }

    fn render_table(&self) -> String {
        let mut out = String::new();
        for ep in &self.episodes {
            let enc: Vec<String> = ep
                .sensitive_returned
                .iter()
                .map(|t| format!("E({t})"))
                .collect();
            let ns: Vec<String> = ep
                .nonsensitive_values
                .iter()
                .map(|v| v.to_string())
                .collect();
            let req: Vec<String> = ep.plaintext_request.iter().map(|v| v.to_string()).collect();
            let side = |items: Vec<String>| {
                if items.is_empty() {
                    "null".to_string()
                } else {
                    items.join(", ")
                }
            };
            out.push_str(&format!(
                "{}: request[{}] -> sensitive[{}] nonsensitive[{}]\n",
                ep.id,
                req.join(", "),
                side(enc),
                side(ns),
            ));
        }
        out
    }

    fn loads(&self) -> EpisodeLoads {
        let loads: Vec<u64> = self
            .episodes
            .iter()
            .map(|ep| ep.sensitive_returned.len() as u64)
            .collect();
        EpisodeLoads {
            episodes: loads.len() as u64,
            total: loads.iter().sum(),
            max: loads.iter().copied().max().unwrap_or(0),
        }
    }
}

/// Asserts that the view's lists of one kind are interned: two of them
/// are one allocation exactly when they are equal (`same` tells whether
/// two are one allocation), and the view counts one shared list per
/// distinct one.
fn lists_are_shared<L: PartialEq + Debug + ?Sized>(
    lists: &[&L],
    same: impl Fn(&L, &L) -> bool,
    shared: usize,
) -> Result<(), TestCaseError> {
    let mut distinct = 0;
    for (i, &a) in lists.iter().enumerate() {
        if !lists[..i].contains(&a) {
            distinct += 1;
        }
        for &b in &lists[i + 1..] {
            prop_assert!(
                (a == b) == same(a, b),
                "{:?} and {:?} are equal exactly when shared",
                a,
                b
            );
        }
    }
    prop_assert_eq!(distinct, shared);
    Ok(())
}

/// Asserts list interning over every field of every episode of `view`,
/// whether recorded or absorbed: requests, clear-text results and
/// sensitive ids each have their own interner.  Every result stored as an
/// extension extends another of the view's results, and the view's count
/// of retained pairs is what its distinct results store themselves.
fn check_list_sharing(view: &AdversarialView) -> Result<(), TestCaseError> {
    let eps = view.episodes();
    let requests: Vec<_> = eps.iter().map(|ep| &ep.plaintext_request).collect();
    let results: Vec<_> = eps.iter().map(|ep| &ep.nonsensitive_result).collect();
    let ids: Vec<_> = eps.iter().map(|ep| &ep.sensitive_returned).collect();
    lists_are_shared(&requests, Arc::ptr_eq, view.shared_value_lists())?;
    lists_are_shared(&results, ResultList::ptr_eq, view.shared_result_lists())?;
    lists_are_shared(&ids, Arc::ptr_eq, view.shared_id_lists())?;

    let mut distinct: Vec<&ResultList> = Vec::new();
    for &list in &results {
        if !distinct.iter().any(|&d| ResultList::ptr_eq(d, list)) {
            distinct.push(list);
        }
    }
    for &list in &distinct {
        if let Some(base) = list.base() {
            prop_assert!(
                results.iter().any(|&r| ResultList::ptr_eq(r, base)),
                "the base of {:?} is not one of the view's results",
                list
            );
            prop_assert!(base.len() < list.len());
            prop_assert!(list.iter().take(base.len()).eq(base.iter()));
            prop_assert_eq!(list.own_pairs(), list.len() - base.len());
        } else {
            prop_assert_eq!(list.own_pairs(), list.len());
        }
    }
    let retained: usize = distinct.iter().map(|list| list.own_pairs()).sum();
    prop_assert_eq!(view.retained_pairs(), retained);
    Ok(())
}

/// A view under test and its naive twin, driven in lock-step.
#[derive(Default)]
struct Pair {
    view: AdversarialView,
    naive: NaiveView,
}

/// Values and ids come from tiny domains so observations repeat often.
fn values(seed: u64, len: usize) -> Vec<Value> {
    const DOMAIN: [&str; 3] = ["a", "b", "c"];
    (0..len)
        .map(|i| Value::from(DOMAIN[(seed as usize + i) % DOMAIN.len()]))
        .collect()
}

fn ids(seed: u64, len: usize) -> Vec<TupleId> {
    (0..len as u64)
        .map(|i| TupleId::new((seed + i) % 4))
        .collect()
}

/// Ids above every id `ids` draws, as an insert would take.
fn fresh_ids(seed: u64, len: usize) -> Vec<TupleId> {
    (0..len as u64)
        .map(|i| TupleId::new(4 + seed + i))
        .collect()
}

impl Pair {
    fn apply(&mut self, op: u8, seed: u64, len: usize) -> Result<(), TestCaseError> {
        match op {
            0 => {
                let got = self.view.begin_episode();
                prop_assert_eq!(got, self.naive.begin());
            }
            1 => {
                self.view.end_episode();
                self.naive.end();
            }
            2 => {
                let vals = values(seed, len);
                self.view.observe_plaintext_request(&vals);
                self.naive.current().plaintext_request.extend(vals);
            }
            3 => {
                self.view.observe_encrypted_request(len);
                self.naive.current().encrypted_request_size += len;
            }
            4 => {
                let (tids, vals) = (ids(seed, len), values(seed, len));
                self.observe_result(tids, vals);
            }
            5 => {
                let tids = ids(seed, len);
                self.view.observe_sensitive_result(&tids);
                self.naive.current().sensitive_returned.extend(tids);
            }
            _ => {
                // Re-observe an earlier episode's request and result, plus
                // `len` appended pairs: what a read after inserts returns.
                let eps = &self.naive.episodes;
                let Some(earlier) = eps.len().checked_sub(1 + seed as usize % eps.len().max(1))
                else {
                    return Ok(());
                };
                let earlier = eps[earlier].clone();
                self.view
                    .observe_plaintext_request(&earlier.plaintext_request);
                self.naive
                    .current()
                    .plaintext_request
                    .extend(earlier.plaintext_request);
                let mut tids = earlier.nonsensitive_returned;
                let mut vals = earlier.nonsensitive_values;
                tids.extend(fresh_ids(seed, len));
                vals.extend(values(seed, len));
                self.observe_result(tids, vals);
            }
        }
        Ok(())
    }

    fn observe_result(&mut self, tids: Vec<TupleId>, vals: Vec<Value>) {
        self.view.observe_nonsensitive_result(&tids, &vals);
        let ep = self.naive.current();
        ep.nonsensitive_returned.extend(tids);
        ep.nonsensitive_values.extend(vals);
    }

    fn absorb(&mut self, other: &Pair) {
        self.view.absorb(&other.view);
        self.naive.absorb(&other.naive);
    }

    /// Asserts the view matches its naive twin in full.
    fn check(&self) -> Result<(), TestCaseError> {
        let got: Vec<NaiveEpisode> = self
            .view
            .episodes()
            .iter()
            .map(|ep| NaiveEpisode {
                id: ep.id,
                plaintext_request: ep.plaintext_request.to_vec(),
                encrypted_request_size: ep.encrypted_request_size,
                nonsensitive_returned: ep.nonsensitive_ids().collect(),
                nonsensitive_values: ep.nonsensitive_values().cloned().collect(),
                sensitive_returned: ep.sensitive_returned.to_vec(),
            })
            .collect();
        prop_assert_eq!(&got, &self.naive.episodes);
        // Each result is stored as an extension exactly when the model
        // says so.
        for (ep, naive) in self.view.episodes().iter().zip(&self.naive.episodes) {
            prop_assert!(
                ep.nonsensitive_result.base().is_some() == self.naive.extends[&naive.result()],
                "episode {}: {:?}",
                naive.id,
                ep.nonsensitive_result
            );
        }
        prop_assert_eq!(self.view.len(), self.naive.episodes.len());
        prop_assert_eq!(self.view.render_table(), self.naive.render_table());
        prop_assert_eq!(self.view.sensitive_loads(), self.naive.loads());

        // Interned: one allocation per distinct observation, shared by
        // every episode that observed it.
        let distinct: HashSet<_> = self
            .naive
            .episodes
            .iter()
            .map(NaiveEpisode::observation)
            .collect();
        prop_assert_eq!(self.view.distinct_observations(), distinct.len());
        let eps = self.view.episodes();
        for (i, a) in eps.iter().enumerate() {
            for b in &eps[i + 1..] {
                prop_assert_eq!(
                    a.observed == b.observed,
                    Arc::ptr_eq(&a.observed, &b.observed)
                );
            }
        }
        check_list_sharing(&self.view)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random begin / observe / end / absorb sequences leave the interned
    /// view identical to the naive recorder, with equal lists shared even
    /// across differing observations. Ops with `target == 1` build a
    /// side view that `op == 6` absorbs into the main one (possibly while
    /// the main view has an episode open); `op == 7` re-observes an
    /// earlier episode's result with pairs appended.
    #[test]
    fn interned_view_matches_naive_recorder(
        ops in prop::collection::vec((0u8..8, 0u8..2, 0u64..4, 0usize..3), 0..80),
    ) {
        let mut main = Pair::default();
        let mut side = Pair::default();
        for (op, target, seed, len) in ops {
            if op == 6 {
                main.absorb(&side);
            } else if target == 0 {
                main.apply(op, seed, len)?;
            } else {
                side.apply(op, seed, len)?;
            }
        }
        main.check()?;
        side.check()?;
        // Committing whatever was left open keeps them equal.
        main.apply(1, 0, 0)?;
        side.apply(1, 0, 0)?;
        main.check()?;
        side.check()?;
        // Composing two views re-interns their lists into one.
        let mut composed = AdversarialView::new();
        composed.absorb(&main.view);
        composed.absorb(&side.view);
        check_list_sharing(&composed)?;
    }
}
