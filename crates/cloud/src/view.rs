//! The adversarial view (§II of the paper).
//!
//! "When executing a query, an adversary knows which encrypted sensitive
//! tuples and cleartext non-sensitive tuples are sent in response to a query.
//! We refer this as the adversarial view, AV = Inc ∪ Opc."
//!
//! Every query the DB owner runs against the [`crate::CloudServer`] produces
//! one [`QueryEpisode`]: what arrived at the cloud (the clear-text
//! non-sensitive request and the *number* of opaque encrypted request
//! values) and what was returned (ids of encrypted tuples, and the
//! non-sensitive tuples as (id, clear-text searchable value) pairs).  The
//! adversary crate mounts all of its attacks on this structure alone.
//!
//! Under Query Binning every query fetches one whole (sensitive bin,
//! non-sensitive bin) pair, so a long session repeats the same few lists
//! over and over.  The view therefore *interns* at two levels when an
//! episode completes:
//!
//! - each observed list (request values, clear-text result, sensitive ids)
//!   is looked up in the view's list interners, so equal lists are one
//!   allocation whichever episodes and fields hold them;
//! - the [`EpisodeObservation`] built from those lists (three shared lists
//!   and a count) is interned too, so episodes with equal observations
//!   share one allocation.
//!
//! A clear-text result that extends the result last observed for the same
//! request (the earlier pairs, then more) is stored as a [`ResultList`]
//! holding only the appended pairs, behind an `Arc` to that earlier list.
//! Any other new result is stored whole, so the view records every input
//! exactly.
//!
//! The log costs one id plus one pointer per episode while still holding
//! every episode, in order.  A shard observes one sensitive-id list per
//! sensitive bin it hosts and, per non-sensitive bin, one request list and
//! one result list.  So however long a read-only session runs, a shard
//! holds at most `|SB|·|NSB|` observations built from at most
//! `|SB| + 2·|NSB| + 3` lists (the 3 are the empty request, result and id
//! lists), and its result lists retain each returned clear-text tuple's
//! pair once.  Writes are what still grow it: the first read of a bin
//! after a write into it returns a new list for that bin only.
//!
//! - A non-sensitive tuple whose value is already binned takes an id above
//!   every stored one, so it lands at the end of its bin's result (the
//!   cloud returns clear-text ids sorted).  It costs one result list
//!   holding the inserted pair: `|SB| + 2·|NSB| + 3 + inserts` lists for a
//!   session of such inserts, and one retained pair each.  The request
//!   list and the sensitive ids stay shared with every earlier episode of
//!   the pair.
//! - A non-sensitive value the binning does not hold is never requested,
//!   so it costs nothing until the binning places it.  Placed in a spare
//!   slot, it changes its bin's request list, so that bin's result is
//!   stored whole once: at most three lists.  A rebuild re-bins every
//!   value and can add a whole new `|SB| + 2·|NSB| + 3`.
//! - An encrypted row, real or a padding fake, changes its sensitive bin's
//!   returned ids: at most one list per shard.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

use pds_common::{QueryId, TupleId, Value};
use serde::{Deserialize, Serialize};

/// One returned non-sensitive tuple as the adversary records it: its id
/// and its clear-text searchable value.
pub type ResultPair = (TupleId, Value);

/// An episode's clear-text result: the returned non-sensitive tuples as
/// (id, searchable value) pairs, in the order the cloud returned them.
///
/// Equality and hashing are by content.  Within one view, equal results
/// are one allocation; a result stored as an extension of an earlier one
/// ([`Self::base`]) holds only its appended pairs.
#[derive(Clone)]
pub struct ResultList(Arc<ResultNode>);

struct ResultNode {
    /// The earlier result this one extends, if it is stored that way.
    base: Option<ResultList>,
    /// The pairs after `base`'s (every pair when there is no base).
    tail: Box<[ResultPair]>,
    /// Number of pairs, the base's included.
    len: usize,
    /// [`content_hash`] of every pair, the base's included.
    hash: u64,
}

impl Drop for ResultNode {
    /// Unlinks a chain of extensions one node at a time: a long chain
    /// dropped recursively could overflow the stack.
    fn drop(&mut self) {
        let mut base = self.base.take();
        while let Some(ResultList(node)) = base {
            base = Arc::try_unwrap(node).ok().and_then(|mut n| n.base.take());
        }
    }
}

/// The hash of a result's content, the same whatever its shape: equal
/// results hash equally across views.
fn content_hash<'a>(pairs: impl Iterator<Item = &'a ResultPair>) -> u64 {
    let mut h = DefaultHasher::new();
    for pair in pairs {
        pair.hash(&mut h);
    }
    h.finish()
}

impl ResultList {
    fn new(base: Option<ResultList>, tail: Vec<ResultPair>, hash: u64) -> Self {
        let len = base.as_ref().map_or(0, ResultList::len) + tail.len();
        ResultList(Arc::new(ResultNode {
            base,
            tail: tail.into_boxed_slice(),
            len,
            hash,
        }))
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether no tuple was returned.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// The pairs, in the order returned.
    pub fn iter(&self) -> impl Iterator<Item = &ResultPair> {
        let mut parts = Vec::new();
        let mut node = Some(self);
        while let Some(list) = node {
            parts.push(&*list.0.tail);
            node = list.0.base.as_ref();
        }
        parts.into_iter().rev().flatten()
    }

    /// The earlier result this one is stored as an extension of: its
    /// pairs are this list's first ones.  `None` for a list stored whole.
    pub fn base(&self) -> Option<&ResultList> {
        self.0.base.as_ref()
    }

    /// The pairs this list stores itself, its base's not counted.
    pub fn own_pairs(&self) -> usize {
        self.0.tail.len()
    }

    /// Whether `a` and `b` are one allocation.
    pub fn ptr_eq(a: &ResultList, b: &ResultList) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Whether this list holds exactly `pairs`, compared part by part
    /// from the end so no chain is walked twice.
    fn matches(&self, pairs: &[ResultPair]) -> bool {
        if self.len() != pairs.len() {
            return false;
        }
        let mut end = pairs.len();
        let mut node = Some(self);
        while let Some(list) = node {
            let start = end - list.0.tail.len();
            if *list.0.tail != pairs[start..end] {
                return false;
            }
            end = start;
            node = list.0.base.as_ref();
        }
        true
    }
}

impl PartialEq for ResultList {
    fn eq(&self, other: &Self) -> bool {
        ResultList::ptr_eq(self, other)
            || (self.0.len == other.0.len
                && self.0.hash == other.0.hash
                && self.iter().eq(other.iter()))
    }
}

impl Eq for ResultList {}

impl Hash for ResultList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.0.hash);
    }
}

impl fmt::Debug for ResultList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// What the honest-but-curious cloud observes for a single query, apart
/// from the episode's id.  Every list is shared: within one view, equal
/// lists are one allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EpisodeObservation {
    /// Clear-text values requested on the non-sensitive relation
    /// (`q(Wns)(Rns)` — visible to the adversary in full).
    pub plaintext_request: Arc<[Value]>,
    /// Number of encrypted values requested on the sensitive relation
    /// (`|Ws|`); the values themselves are ciphertexts and carry no content.
    pub encrypted_request_size: usize,
    /// Non-sensitive tuples returned: their ids with their clear-text
    /// searchable-attribute values (the adversary sees the full tuples;
    /// the searchable value is what the attacks need).
    pub nonsensitive_result: ResultList,
    /// Ids (storage addresses) of encrypted sensitive tuples returned.
    pub sensitive_returned: Arc<[TupleId]>,
}

impl EpisodeObservation {
    /// Total number of tuples (both kinds) returned in this episode — the
    /// quantity a size attack observes.
    pub fn output_size(&self) -> usize {
        self.nonsensitive_result.len() + self.sensitive_returned.len()
    }

    /// Number of sensitive tuples returned.
    pub fn sensitive_output_size(&self) -> usize {
        self.sensitive_returned.len()
    }

    /// Number of non-sensitive tuples returned.
    pub fn nonsensitive_output_size(&self) -> usize {
        self.nonsensitive_result.len()
    }

    /// Ids of the non-sensitive tuples returned, in order.
    pub fn nonsensitive_ids(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.nonsensitive_result.iter().map(|(id, _)| *id)
    }

    /// Clear-text searchable values of the non-sensitive tuples returned,
    /// in order.
    pub fn nonsensitive_values(&self) -> impl Iterator<Item = &Value> {
        self.nonsensitive_result.iter().map(|(_, value)| value)
    }
}

/// What the open episode has observed so far, in buffers that keep their
/// capacity from one episode to the next.
#[derive(Debug, Clone, Default, PartialEq)]
struct Building {
    plaintext_request: Vec<Value>,
    encrypted_request_size: usize,
    nonsensitive_result: Vec<ResultPair>,
    sensitive_returned: Vec<TupleId>,
}

/// Everything the honest-but-curious cloud observes for a single query:
/// the episode's own id plus its (possibly shared) observation.  Field
/// access goes through [`Deref`], so `ep.sensitive_returned` reads the
/// observation directly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryEpisode {
    /// Identifier of the query episode.
    pub id: QueryId,
    /// What was observed; episodes with equal observations in one view
    /// point at the same allocation.
    pub observed: Arc<EpisodeObservation>,
}

impl Deref for QueryEpisode {
    type Target = EpisodeObservation;

    fn deref(&self) -> &EpisodeObservation {
        &self.observed
    }
}

/// Running summary of the encrypted result loads (`|sensitive_returned|`)
/// of a view's completed episodes: all a load-uniformity gauge needs, so
/// reading it never walks the episode log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EpisodeLoads {
    /// Number of completed episodes.
    pub episodes: u64,
    /// Sum of the per-episode sensitive loads.
    pub total: u64,
    /// Largest per-episode sensitive load.
    pub max: u64,
}

impl EpisodeLoads {
    fn record(&mut self, load: usize) {
        let load = load as u64;
        self.episodes += 1;
        self.total += load;
        self.max = self.max.max(load);
    }
}

/// The view's shared copy of the list in `buf`, which is left empty with
/// its capacity kept.  Only a list not seen before gets an allocation.
fn intern<T: Eq + Hash>(lists: &mut HashSet<Arc<[T]>>, buf: &mut Vec<T>) -> Arc<[T]> {
    if let Some(shared) = lists.get(buf.as_slice()) {
        let shared = Arc::clone(shared);
        buf.clear();
        return shared;
    }
    let fresh: Arc<[T]> = buf.drain(..).collect();
    lists.insert(Arc::clone(&fresh));
    fresh
}

/// The view's shared copy of another view's `list`; a list not seen before
/// is shared with that view rather than copied.
fn share<T: Eq + Hash>(lists: &mut HashSet<Arc<[T]>>, list: &Arc<[T]>) -> Arc<[T]> {
    if let Some(shared) = lists.get(&**list) {
        return Arc::clone(shared);
    }
    lists.insert(Arc::clone(list));
    Arc::clone(list)
}

/// The view's clear-text results: one allocation per distinct list, each
/// extension's base among them, and a running count of the pairs they
/// store.
#[derive(Debug, Clone, Default, PartialEq)]
struct ResultLists {
    /// Lists by content hash.
    by_hash: HashMap<u64, ResultList>,
    /// Lists whose content hash another list already holds.
    collided: Vec<ResultList>,
    /// Sum of every list's own pairs: what the view retains.
    pairs: usize,
}

impl ResultLists {
    fn len(&self) -> usize {
        self.by_hash.len() + self.collided.len()
    }

    fn find(&self, hash: u64, equal: impl Fn(&ResultList) -> bool) -> Option<&ResultList> {
        self.by_hash
            .get(&hash)
            .filter(|list| equal(list))
            .or_else(|| {
                self.collided
                    .iter()
                    .find(|list| list.0.hash == hash && equal(list))
            })
    }

    fn insert(&mut self, list: &ResultList) {
        self.pairs += list.own_pairs();
        match self.by_hash.entry(list.0.hash) {
            Entry::Vacant(slot) => {
                slot.insert(list.clone());
            }
            Entry::Occupied(_) => self.collided.push(list.clone()),
        }
    }

    /// The shared copy of the result in `buf`, which is left empty with
    /// its capacity kept.  A result not seen before that extends `last`
    /// stores only the pairs after `last`'s.
    fn intern(&mut self, buf: &mut Vec<ResultPair>, last: Option<&ResultList>) -> ResultList {
        // A repeated read finds its last result without hashing.
        if let Some(last) = last.filter(|last| last.matches(buf)) {
            buf.clear();
            return last.clone();
        }
        let hash = content_hash(buf.iter());
        if let Some(shared) = self.find(hash, |list| list.matches(buf)) {
            let shared = shared.clone();
            buf.clear();
            return shared;
        }
        let base = last.filter(|last| last.len() < buf.len() && last.matches(&buf[..last.len()]));
        let tail = buf.drain(base.map_or(0, ResultList::len)..).collect();
        buf.clear();
        let fresh = ResultList::new(base.cloned(), tail, hash);
        self.insert(&fresh);
        fresh
    }

    /// The shared copy of another view's `list`.  A list not seen before
    /// is shared with that view when its base is this view's too;
    /// otherwise its own pairs are copied onto this view's copy of the
    /// base.  A base belongs to an earlier episode than its extension, so
    /// absorbing episodes in order has always shared it already.
    fn share(&mut self, list: &ResultList) -> ResultList {
        if let Some(shared) = self.find(list.0.hash, |own| own == list) {
            return shared.clone();
        }
        let fresh = match list.base() {
            Some(base) => {
                let own = self.share(base);
                if ResultList::ptr_eq(&own, base) {
                    list.clone()
                } else {
                    ResultList::new(Some(own), list.0.tail.to_vec(), list.0.hash)
                }
            }
            None => list.clone(),
        };
        self.insert(&fresh);
        fresh
    }
}

/// The accumulated adversarial view across all queries of a session.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdversarialView {
    episodes: Vec<QueryEpisode>,
    /// Id of the episode being recorded, if one is open.
    in_progress: Option<QueryId>,
    /// What the open episode has observed so far (empty when none is open).
    building: Building,
    /// One shared allocation per distinct completed observation.
    interned: HashSet<Arc<EpisodeObservation>>,
    /// One shared allocation per distinct request list, mapped to the
    /// result last observed for it.
    requests: HashMap<Arc<[Value]>, ResultList>,
    /// One shared allocation per distinct clear-text result.
    results: ResultLists,
    /// One shared allocation per distinct sensitive id list.
    id_lists: HashSet<Arc<[TupleId]>>,
    loads: EpisodeLoads,
    next_id: u64,
}

impl AdversarialView {
    /// Creates an empty view.
    pub fn new() -> Self {
        Self::default()
    }

    fn fresh_id(next_id: &mut u64) -> QueryId {
        let id = QueryId::new(*next_id);
        *next_id += 1;
        id
    }

    /// Starts recording a new query episode and returns its id.
    pub fn begin_episode(&mut self) -> QueryId {
        // A dangling in-progress episode (owner never called `end`) is
        // committed first so nothing observed is ever dropped.
        self.end_episode();
        let id = Self::fresh_id(&mut self.next_id);
        self.in_progress = Some(id);
        id
    }

    /// Finishes the episode in progress (no-op when none is active).
    pub fn end_episode(&mut self) {
        let Some(id) = self.in_progress.take() else {
            return;
        };
        // Each list is looked up once in its interner; a repeated episode
        // finds every list and its observation already interned and
        // allocates nothing.  The request's entry holds the result last
        // observed for it, which a grown result is stored as extending.
        let b = &mut self.building;
        let (plaintext_request, last) = match self.requests.get_key_value(&*b.plaintext_request) {
            Some((request, last)) => (Arc::clone(request), Some(last.clone())),
            None => (b.plaintext_request.drain(..).collect(), None),
        };
        b.plaintext_request.clear();
        let nonsensitive_result = self
            .results
            .intern(&mut b.nonsensitive_result, last.as_ref());
        if !last.is_some_and(|last| ResultList::ptr_eq(&last, &nonsensitive_result)) {
            self.requests
                .insert(Arc::clone(&plaintext_request), nonsensitive_result.clone());
        }
        let observed = EpisodeObservation {
            plaintext_request,
            encrypted_request_size: std::mem::take(&mut b.encrypted_request_size),
            nonsensitive_result,
            sensitive_returned: intern(&mut self.id_lists, &mut b.sensitive_returned),
        };
        let observed = match self.interned.get(&observed) {
            Some(shared) => Arc::clone(shared),
            None => {
                let fresh = Arc::new(observed);
                self.interned.insert(Arc::clone(&fresh));
                fresh
            }
        };
        self.push(id, observed);
    }

    fn push(&mut self, id: QueryId, observed: Arc<EpisodeObservation>) {
        self.loads.record(observed.sensitive_returned.len());
        self.episodes.push(QueryEpisode { id, observed });
    }

    fn current(&mut self) -> &mut Building {
        // Observations outside an explicit episode still get recorded.
        let next_id = &mut self.next_id;
        self.in_progress
            .get_or_insert_with(|| Self::fresh_id(next_id));
        &mut self.building
    }

    /// Records the clear-text request values observed on the plaintext side.
    pub fn observe_plaintext_request(&mut self, values: &[Value]) {
        self.current().plaintext_request.extend_from_slice(values);
    }

    /// Records the number of opaque encrypted request values observed.
    pub fn observe_encrypted_request(&mut self, count: usize) {
        self.current().encrypted_request_size += count;
    }

    /// Records non-sensitive tuples returned to the owner: `ids[i]` is the
    /// id of the tuple whose searchable value is `values[i]`.
    pub fn observe_nonsensitive_result(&mut self, ids: &[TupleId], values: &[Value]) {
        debug_assert_eq!(ids.len(), values.len(), "one value per returned id");
        let pairs = ids.iter().copied().zip(values.iter().cloned());
        self.current().nonsensitive_result.extend(pairs);
    }

    /// Records encrypted sensitive tuples returned to the owner.
    pub fn observe_sensitive_result(&mut self, ids: &[TupleId]) {
        self.current().sensitive_returned.extend_from_slice(ids);
    }

    /// Appends another view's completed episodes, re-numbered so episode
    /// ids stay unique.  Used to compose several shards' views into the
    /// joint view a coalition of shard-adversaries would hold.  Lists and
    /// observations are shared, not copied: each distinct one is interned
    /// into this view once.
    pub fn absorb(&mut self, other: &AdversarialView) {
        let mut resolved: HashMap<*const EpisodeObservation, Arc<EpisodeObservation>> =
            HashMap::new();
        // Per request list, the observation of its last absorbed episode.
        let mut last: HashMap<*const [Value], Arc<EpisodeObservation>> = HashMap::new();
        for ep in other.episodes() {
            let observed = match resolved.entry(Arc::as_ptr(&ep.observed)) {
                Entry::Occupied(known) => Arc::clone(known.get()),
                Entry::Vacant(slot) => {
                    Arc::clone(slot.insert(self.share_observation(&ep.observed)))
                }
            };
            last.insert(
                Arc::as_ptr(&observed.plaintext_request),
                Arc::clone(&observed),
            );
            let id = Self::fresh_id(&mut self.next_id);
            self.push(id, observed);
        }
        for observed in last.into_values() {
            self.requests.insert(
                Arc::clone(&observed.plaintext_request),
                observed.nonsensitive_result.clone(),
            );
        }
    }

    /// This view's shared copy of another view's observation.  A new one
    /// has its lists re-interned here; when every list it holds is then
    /// this view's, the observation itself is shared rather than rebuilt.
    fn share_observation(&mut self, o: &Arc<EpisodeObservation>) -> Arc<EpisodeObservation> {
        if let Some(shared) = self.interned.get(&**o) {
            return Arc::clone(shared);
        }
        let nonsensitive_result = self.results.share(&o.nonsensitive_result);
        let plaintext_request = match self.requests.get_key_value(&*o.plaintext_request) {
            Some((request, _)) => Arc::clone(request),
            None => {
                let request = Arc::clone(&o.plaintext_request);
                self.requests
                    .insert(Arc::clone(&request), nonsensitive_result.clone());
                request
            }
        };
        let own = EpisodeObservation {
            plaintext_request,
            encrypted_request_size: o.encrypted_request_size,
            nonsensitive_result,
            sensitive_returned: share(&mut self.id_lists, &o.sensitive_returned),
        };
        let fresh = if Arc::ptr_eq(&own.plaintext_request, &o.plaintext_request)
            && ResultList::ptr_eq(&own.nonsensitive_result, &o.nonsensitive_result)
            && Arc::ptr_eq(&own.sensitive_returned, &o.sensitive_returned)
        {
            Arc::clone(o)
        } else {
            Arc::new(own)
        };
        self.interned.insert(Arc::clone(&fresh));
        fresh
    }

    /// All completed episodes, in order.
    pub fn episodes(&self) -> &[QueryEpisode] {
        &self.episodes
    }

    /// Number of completed episodes.
    pub fn len(&self) -> usize {
        self.episodes.len()
    }

    /// Whether no episode has completed yet.
    pub fn is_empty(&self) -> bool {
        self.episodes.is_empty()
    }

    /// Number of distinct observations among the completed episodes (the
    /// allocations the episode log shares).
    pub fn distinct_observations(&self) -> usize {
        self.interned.len()
    }

    /// Number of distinct request value lists the completed episodes
    /// share.
    pub fn shared_value_lists(&self) -> usize {
        self.requests.len()
    }

    /// Number of distinct sensitive id lists the completed episodes share.
    pub fn shared_id_lists(&self) -> usize {
        self.id_lists.len()
    }

    /// Number of distinct clear-text results the completed episodes share.
    pub fn shared_result_lists(&self) -> usize {
        self.results.len()
    }

    /// Number of (id, value) pairs the shared clear-text results store
    /// themselves: an extension counts only its appended pairs.  Kept as a
    /// running count, so reading it is O(1).
    pub fn retained_pairs(&self) -> usize {
        self.results.pairs
    }

    /// Count, sum and maximum of the completed episodes' sensitive loads.
    pub fn sensitive_loads(&self) -> EpisodeLoads {
        self.loads
    }

    /// Renders the view as the paper renders its tables (one row per query):
    /// `query -> {encrypted ids} | {clear-text values}`.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for ep in &self.episodes {
            let enc: Vec<String> = ep
                .sensitive_returned
                .iter()
                .map(|t| format!("E({t})"))
                .collect();
            let ns: Vec<String> = ep.nonsensitive_values().map(|v| v.to_string()).collect();
            let req: Vec<String> = ep.plaintext_request.iter().map(|v| v.to_string()).collect();
            out.push_str(&format!(
                "{}: request[{}] -> sensitive[{}] nonsensitive[{}]\n",
                ep.id,
                req.join(", "),
                if enc.is_empty() {
                    "null".to_string()
                } else {
                    enc.join(", ")
                },
                if ns.is_empty() {
                    "null".to_string()
                } else {
                    ns.join(", ")
                },
            ));
        }
        out
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    fn record(av: &mut AdversarialView, request: &str, sensitive: u64) {
        av.begin_episode();
        av.observe_plaintext_request(&[Value::from(request)]);
        av.observe_sensitive_result(&[TupleId::new(sensitive)]);
        av.end_episode();
    }

    /// One episode of request `request` returning the clear-text tuples
    /// `ids`, each with the value `request`.
    fn read(av: &mut AdversarialView, request: &str, ids: &[u64]) -> ResultList {
        let ids: Vec<TupleId> = ids.iter().map(|&id| TupleId::new(id)).collect();
        av.begin_episode();
        av.observe_plaintext_request(&[Value::from(request)]);
        av.observe_nonsensitive_result(&ids, &vec![Value::from(request); ids.len()]);
        av.end_episode();
        av.episodes().last().unwrap().nonsensitive_result.clone()
    }

    #[test]
    fn episode_lifecycle() {
        let mut av = AdversarialView::new();
        assert!(av.is_empty());
        let q0 = av.begin_episode();
        av.observe_plaintext_request(&[Value::from("E259")]);
        av.observe_encrypted_request(2);
        av.observe_nonsensitive_result(&[TupleId::new(2)], &[Value::from("E259")]);
        av.observe_sensitive_result(&[TupleId::new(4)]);
        av.end_episode();
        assert_eq!(av.len(), 1);
        let ep = &av.episodes()[0];
        assert_eq!(ep.id, q0);
        assert_eq!(ep.output_size(), 2);
        assert_eq!(ep.sensitive_output_size(), 1);
        assert_eq!(ep.nonsensitive_output_size(), 1);
        assert_eq!(ep.encrypted_request_size, 2);
    }

    #[test]
    fn dangling_episode_is_committed_on_next_begin() {
        let mut av = AdversarialView::new();
        av.begin_episode();
        av.observe_sensitive_result(&[TupleId::new(1)]);
        // No end_episode; the next begin flushes it.
        av.begin_episode();
        av.end_episode();
        assert_eq!(av.len(), 2);
        assert_eq!(av.episodes()[0].sensitive_returned.len(), 1);
    }

    #[test]
    fn observations_without_episode_are_not_lost() {
        let mut av = AdversarialView::new();
        av.observe_plaintext_request(&[Value::from("x")]);
        av.end_episode();
        assert_eq!(av.len(), 1);
        assert_eq!(av.episodes()[0].plaintext_request.len(), 1);
    }

    #[test]
    fn render_table_mentions_null_for_empty_sides() {
        let mut av = AdversarialView::new();
        av.begin_episode();
        av.observe_plaintext_request(&[Value::from("E199")]);
        av.observe_nonsensitive_result(&[TupleId::new(3)], &[Value::from("E199")]);
        av.end_episode();
        let table = av.render_table();
        assert!(table.contains("sensitive[null]"));
        assert!(table.contains("E199"));
    }

    #[test]
    fn episode_ids_are_unique_and_increasing() {
        let mut av = AdversarialView::new();
        let a = av.begin_episode();
        av.end_episode();
        let b = av.begin_episode();
        av.end_episode();
        assert!(b > a);
    }

    #[test]
    fn a_grown_result_stores_only_its_appended_pairs() {
        let mut av = AdversarialView::new();
        let first = read(&mut av, "a", &[1, 2]);
        let grown = read(&mut av, "a", &[1, 2, 5, 6]);
        assert!(ResultList::ptr_eq(grown.base().unwrap(), &first));
        assert_eq!(grown.own_pairs(), 2);
        let ids: Vec<u64> = grown.iter().map(|(id, _)| id.raw()).collect();
        assert_eq!(ids, [1, 2, 5, 6]);
        assert_eq!(av.shared_result_lists(), 2);
        assert_eq!(av.retained_pairs(), 4);
        // Re-reading either result allocates nothing.
        assert!(ResultList::ptr_eq(
            &read(&mut av, "a", &[1, 2, 5, 6]),
            &grown
        ));
        assert!(ResultList::ptr_eq(&read(&mut av, "a", &[1, 2]), &first));
        assert_eq!((av.shared_result_lists(), av.retained_pairs()), (2, 4));
        // The last result of "a" is now `first` again, so growing it
        // differently extends `first` too.
        let other = read(&mut av, "a", &[1, 2, 7]);
        assert!(ResultList::ptr_eq(other.base().unwrap(), &first));
        assert_eq!(av.retained_pairs(), 5);
    }

    #[test]
    fn other_results_are_stored_whole_and_equal_ones_shared() {
        let mut av = AdversarialView::new();
        read(&mut av, "a", &[1, 2]);
        // Not an extension: a pair changed.
        let changed = read(&mut av, "a", &[1, 3, 4]);
        assert!(changed.base().is_none());
        // Not the same request: "b" has no last result.
        let b = read(&mut av, "b", &[1, 2, 9]);
        assert!(b.base().is_none());
        assert_eq!(av.retained_pairs(), 8);
        // An equal result under another request is the same allocation.
        let mut again = AdversarialView::new();
        again.begin_episode();
        again.observe_plaintext_request(&[Value::from("x")]);
        again.observe_nonsensitive_result(
            &[TupleId::new(1), TupleId::new(3), TupleId::new(4)],
            &vec![Value::from("a"); 3],
        );
        again.end_episode();
        av.absorb(&again);
        let absorbed = &av.episodes().last().unwrap().nonsensitive_result;
        assert!(ResultList::ptr_eq(absorbed, &changed));
        assert_eq!(av.retained_pairs(), 8);
    }

    #[test]
    fn absorb_keeps_extensions_on_this_views_bases() {
        let mut shard = AdversarialView::new();
        let first = read(&mut shard, "a", &[1]);
        let grown = read(&mut shard, "a", &[1, 2]);
        // The composed view already holds an equal copy of `first`.
        let mut composed = AdversarialView::new();
        let own_first = read(&mut composed, "a", &[1]);
        composed.absorb(&shard);
        let eps = composed.episodes();
        assert!(ResultList::ptr_eq(&eps[1].nonsensitive_result, &own_first));
        let own_grown = &eps[2].nonsensitive_result;
        assert_eq!(own_grown, &grown);
        assert!(ResultList::ptr_eq(own_grown.base().unwrap(), &own_first));
        assert_eq!(composed.retained_pairs(), 2);
        // Into an empty view the chain is shared, not copied.
        let mut fresh = AdversarialView::new();
        fresh.absorb(&shard);
        assert!(ResultList::ptr_eq(
            &fresh.episodes()[1].nonsensitive_result,
            &grown
        ));
        assert!(ResultList::ptr_eq(
            &fresh.episodes()[0].nonsensitive_result,
            &first
        ));
        // A later read of "a" extends the last absorbed result.
        let more = read(&mut fresh, "a", &[1, 2, 3]);
        assert!(ResultList::ptr_eq(more.base().unwrap(), &grown));
    }

    #[test]
    fn a_long_chain_of_extensions_drops_without_recursing() {
        let mut list = ResultList::new(None, vec![(TupleId::new(0), Value::Null)], 0);
        for _ in 0..200_000 {
            list = ResultList::new(Some(list), Vec::new(), 0);
        }
        assert_eq!(list.len(), 1);
        assert_eq!(list.iter().count(), 1);
        drop(list);
    }

    #[test]
    fn an_episode_costs_an_id_and_a_pointer() {
        assert_eq!(std::mem::size_of::<QueryEpisode>(), 16);
    }

    #[test]
    fn absorb_shares_observations_instead_of_copying() {
        let mut shard0 = AdversarialView::new();
        record(&mut shard0, "a", 1);
        record(&mut shard0, "a", 1);
        let mut shard1 = AdversarialView::new();
        record(&mut shard1, "a", 1);
        record(&mut shard1, "b", 2);
        let mut composed = AdversarialView::new();
        composed.absorb(&shard0);
        composed.absorb(&shard1);
        assert_eq!(composed.len(), 4);
        assert_eq!(composed.distinct_observations(), 2);
        let eps = composed.episodes();
        assert!(Arc::ptr_eq(
            &eps[0].observed,
            &shard0.episodes()[0].observed
        ));
        assert!(Arc::ptr_eq(
            &eps[0].plaintext_request,
            &shard0.episodes()[0].plaintext_request
        ));
        assert!(Arc::ptr_eq(&eps[2].observed, &eps[0].observed));
    }
}
