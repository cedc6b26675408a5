//! The adversarial view (§II of the paper).
//!
//! "When executing a query, an adversary knows which encrypted sensitive
//! tuples and cleartext non-sensitive tuples are sent in response to a query.
//! We refer this as the adversarial view, AV = Inc ∪ Opc."
//!
//! Every query the DB owner runs against the [`crate::CloudServer`] produces
//! one [`QueryEpisode`]: what arrived at the cloud (the clear-text
//! non-sensitive request and the *number* of opaque encrypted request
//! values) and what was returned (ids of encrypted tuples, and ids plus
//! clear-text searchable values of non-sensitive tuples).  The adversary
//! crate mounts all of its attacks on this structure alone.
//!
//! Under Query Binning every query fetches one whole (sensitive bin,
//! non-sensitive bin) pair, so a long session repeats the same few lists
//! over and over.  The view therefore *interns* at two levels when an
//! episode completes:
//!
//! - each observed list (request values, returned ids, returned values) is
//!   looked up in the view's list interners, so equal lists are one
//!   allocation whichever episodes and fields hold them;
//! - the [`EpisodeObservation`] built from those lists (four shared lists
//!   and a count) is interned too, so episodes with equal observations
//!   share one allocation.
//!
//! The log costs one id plus one pointer per episode while still holding
//! every episode, in order.  A shard observes one sensitive-id list per
//! sensitive bin it hosts and, per non-sensitive bin, one request list,
//! one returned id list and one returned value list.  So however long a
//! read-only session runs, a shard holds at most `|SB|·|NSB|` observations
//! built from at most `|SB| + 3·|NSB| + 2` lists (the 2 are the empty value
//! and id lists).  Writes are what still grow it: the first read of a bin
//! after a write into it returns new lists for that bin only.
//!
//! - A non-sensitive tuple whose value is already binned costs a new
//!   returned id list and value list: at most two bin-sized lists per
//!   shard, so `|SB| + 3·|NSB| + 2·inserts + 2` for a session of such
//!   inserts.  The request list and the sensitive ids stay shared with
//!   every earlier episode of the pair.
//! - A non-sensitive value the binning does not hold is never requested,
//!   so it costs nothing until the binning places it.  Placed in a spare
//!   slot, it changes its bin's request list too: at most three lists.  A
//!   rebuild re-bins every value and can add a whole new `|SB| + 3·|NSB|`.
//! - An encrypted row, real or a padding fake, changes its sensitive bin's
//!   returned ids: at most one list per shard.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::ops::Deref;
use std::sync::Arc;

use pds_common::{QueryId, TupleId, Value};
use serde::{Deserialize, Serialize};

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
    /// Ids of non-sensitive tuples returned.
    pub nonsensitive_returned: Arc<[TupleId]>,
    /// Clear-text searchable-attribute values of the returned non-sensitive
    /// tuples (the adversary sees the full tuples; the searchable value is
    /// what the attacks need).
    pub nonsensitive_values: Arc<[Value]>,
    /// Ids (storage addresses) of encrypted sensitive tuples returned.
    pub sensitive_returned: Arc<[TupleId]>,
}

impl EpisodeObservation {
    /// Total number of tuples (both kinds) returned in this episode — the
    /// quantity a size attack observes.
    pub fn output_size(&self) -> usize {
        self.nonsensitive_returned.len() + self.sensitive_returned.len()
    }

    /// Number of sensitive tuples returned.
    pub fn sensitive_output_size(&self) -> usize {
        self.sensitive_returned.len()
    }

    /// Number of non-sensitive tuples returned.
    pub fn nonsensitive_output_size(&self) -> usize {
        self.nonsensitive_returned.len()
    }
}

/// What the open episode has observed so far, in buffers that keep their
/// capacity from one episode to the next.
#[derive(Debug, Clone, Default, PartialEq)]
struct Building {
    plaintext_request: Vec<Value>,
    encrypted_request_size: usize,
    nonsensitive_returned: Vec<TupleId>,
    nonsensitive_values: Vec<Value>,
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
    /// One shared allocation per distinct observed value list.
    value_lists: HashSet<Arc<[Value]>>,
    /// One shared allocation per distinct observed id list.
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
        // allocates nothing.
        let b = &mut self.building;
        let observed = EpisodeObservation {
            plaintext_request: intern(&mut self.value_lists, &mut b.plaintext_request),
            encrypted_request_size: std::mem::take(&mut b.encrypted_request_size),
            nonsensitive_returned: intern(&mut self.id_lists, &mut b.nonsensitive_returned),
            nonsensitive_values: intern(&mut self.value_lists, &mut b.nonsensitive_values),
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

    /// Records non-sensitive tuples returned to the owner.
    pub fn observe_nonsensitive_result(&mut self, ids: &[TupleId], values: &[Value]) {
        let ep = self.current();
        ep.nonsensitive_returned.extend_from_slice(ids);
        ep.nonsensitive_values.extend_from_slice(values);
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
        for ep in other.episodes() {
            let observed = match resolved.entry(Arc::as_ptr(&ep.observed)) {
                Entry::Occupied(known) => Arc::clone(known.get()),
                Entry::Vacant(slot) => {
                    Arc::clone(slot.insert(self.share_observation(&ep.observed)))
                }
            };
            let id = Self::fresh_id(&mut self.next_id);
            self.push(id, observed);
        }
    }

    /// This view's shared copy of another view's observation.  A new one
    /// has its lists re-interned here; when every list it holds is then
    /// this view's, the observation itself is shared rather than rebuilt.
    fn share_observation(&mut self, o: &Arc<EpisodeObservation>) -> Arc<EpisodeObservation> {
        if let Some(shared) = self.interned.get(&**o) {
            return Arc::clone(shared);
        }
        let own = EpisodeObservation {
            plaintext_request: share(&mut self.value_lists, &o.plaintext_request),
            encrypted_request_size: o.encrypted_request_size,
            nonsensitive_returned: share(&mut self.id_lists, &o.nonsensitive_returned),
            nonsensitive_values: share(&mut self.value_lists, &o.nonsensitive_values),
            sensitive_returned: share(&mut self.id_lists, &o.sensitive_returned),
        };
        let fresh = if Arc::ptr_eq(&own.plaintext_request, &o.plaintext_request)
            && Arc::ptr_eq(&own.nonsensitive_returned, &o.nonsensitive_returned)
            && Arc::ptr_eq(&own.nonsensitive_values, &o.nonsensitive_values)
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

    /// Number of distinct value lists (requests and returned searchable
    /// values) the completed episodes share.
    pub fn shared_value_lists(&self) -> usize {
        self.value_lists.len()
    }

    /// Number of distinct tuple-id lists (returned non-sensitive and
    /// sensitive ids) the completed episodes share.
    pub fn shared_id_lists(&self) -> usize {
        self.id_lists.len()
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
            let ns: Vec<String> = ep
                .nonsensitive_values
                .iter()
                .map(|v| v.to_string())
                .collect();
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
