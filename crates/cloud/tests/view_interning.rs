//! The interned adversarial view must record exactly what a naive recorder
//! keeping an owned copy of every episode records: the same episodes in the
//! same order, with the same ids and every observed field, the same
//! rendered table and the same load summary — whatever mix of begin /
//! observe / end / absorb calls (dangling episodes included) produced it.
//! And within one view, equal lists are one allocation even when the
//! observations holding them differ.
//!
//! Replay a failing case with `PROPTEST_SEED=<seed>`.

use std::collections::HashSet;
use std::sync::Arc;

use pds_cloud::{AdversarialView, EpisodeLoads};
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
}

/// The reference recorder: a fresh owned copy of every episode, kept
/// forever, with the view's numbering and dangling-episode rules.
#[derive(Default)]
struct NaiveView {
    episodes: Vec<NaiveEpisode>,
    in_progress: Option<NaiveEpisode>,
    next_id: u64,
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
/// are one allocation exactly when they are equal, and the view counts one
/// shared list per distinct one.
fn lists_are_shared<T: PartialEq + std::fmt::Debug>(
    lists: &[&Arc<[T]>],
    shared: usize,
) -> Result<(), TestCaseError> {
    let mut distinct = 0;
    for (i, a) in lists.iter().enumerate() {
        if !lists[..i].iter().any(|b| a[..] == b[..]) {
            distinct += 1;
        }
        for b in &lists[i + 1..] {
            prop_assert!(
                (a[..] == b[..]) == Arc::ptr_eq(a, b),
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
/// whether recorded or absorbed: request and returned values share one
/// interner, returned non-sensitive and sensitive ids the other.
fn check_list_sharing(view: &AdversarialView) -> Result<(), TestCaseError> {
    let eps = view.episodes();
    let values: Vec<_> = eps
        .iter()
        .flat_map(|ep| [&ep.plaintext_request, &ep.nonsensitive_values])
        .collect();
    let ids: Vec<_> = eps
        .iter()
        .flat_map(|ep| [&ep.nonsensitive_returned, &ep.sensitive_returned])
        .collect();
    lists_are_shared(&values, view.shared_value_lists())?;
    lists_are_shared(&ids, view.shared_id_lists())
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
                self.view.observe_nonsensitive_result(&tids, &vals);
                let ep = self.naive.current();
                ep.nonsensitive_returned.extend(tids);
                ep.nonsensitive_values.extend(vals);
            }
            _ => {
                let tids = ids(seed, len);
                self.view.observe_sensitive_result(&tids);
                self.naive.current().sensitive_returned.extend(tids);
            }
        }
        Ok(())
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
                nonsensitive_returned: ep.nonsensitive_returned.to_vec(),
                nonsensitive_values: ep.nonsensitive_values.to_vec(),
                sensitive_returned: ep.sensitive_returned.to_vec(),
            })
            .collect();
        prop_assert_eq!(&got, &self.naive.episodes);
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
    /// the main view has an episode open).
    #[test]
    fn interned_view_matches_naive_recorder(
        ops in prop::collection::vec((0u8..7, 0u8..2, 0u64..4, 0usize..3), 0..80),
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
