//! Owner-side hot-bin cache.
//!
//! Query Binning always retrieves *whole bins*: the same sensitive bin is
//! fetched (and decrypted) again for every value it contains, and popular
//! values under a skewed workload hammer the same bin pair over and over.
//! [`BinCache`] is a small bounded LRU the **trusted owner** keeps over
//! already-retrieved, already-decrypted bin contents, keyed by
//! [`BinKey`] — `(bin kind, bin index)`.  Each executor owns its cache, so
//! no cache is shared between tenants and a key needs no tenant.
//!
//! ## Security
//!
//! The cache lives entirely owner-side, so it never *adds* data to the
//! cloud's view — the cloud only ever sees *fewer* episodes.  Two shape
//! constraints keep what it *does* see indistinguishable from an uncached
//! execution:
//!
//! 1. A query is served from cache only when **both** bins of its pair are
//!    cached.  Serving half a pair would make the cloud fetch a lone bin,
//!    producing an episode whose sensitive output size differs from every
//!    other episode's and breaking count indistinguishability (§III
//!    condition 2).
//! 2. The pair must have been **observed together** by the cloud at least
//!    once ([`BinCache::get_pair`] checks the seen-pair set filled by
//!    [`BinCache::store_pair`]).  Bins are shared across pairs — pair
//!    `(i, j)` could assemble from `(i, j')`'s sensitive bin and
//!    `(i', j)`'s non-sensitive bin — but serving a never-co-observed pair
//!    would permanently *remove* that edge from the cloud's co-occurrence
//!    graph, and an incomplete bipartite graph is exactly the Figure 4b
//!    shape `check_partitioned_security` rejects.  With no writes, requiring
//!    one joint observation first makes the cached view a subsequence of
//!    the uncached one that keeps each distinct episode's first
//!    occurrence: same distinct episodes, lower multiplicities, identical
//!    security verdict.
//!
//!    The rule checks that the pair was *ever* observed, not that it is
//!    [`BinCache::fresh`].  After a write into one of its bins, once
//!    another pair has re-fetched that bin, the pair is served from the
//!    refreshed bins although the cloud never saw the pair's post-write
//!    result.  With writes, the cached view can therefore lack an
//!    observation the uncached view holds.  Requiring freshness here would
//!    close that gap, at the cost of hits (and so rounds) on read-write
//!    workloads.
//!
//! The same rules govern in-batch reuse at any capacity, capacity 0
//! included.  A batch needs the bins of its pairs, and every query is
//! answered from the streams its batch fetches, so the executor fetches a
//! minimum set of pairs that covers those bins, built from two kinds of
//! pair:
//!
//! * every batch pair that is not [`BinCache::fresh`] — never observed, or
//!   written into since — is fetched as it stands, so the cloud sees its
//!   current result exactly as one query per call would show it;
//! * the bins those leave uncovered are covered by fresh pairs inside the
//!   batch's bins: a maximum matching plus one pair per unmatched bin.
//!   Re-fetching a fresh pair shows the cloud a result it already holds,
//!   so the view gains no observation one query per call would not leave.
//!
//! That is why the seen-pair record is kept at every capacity, while bin
//! contents are kept only above 0.
//!
//! ## Consistency
//!
//! Cached entries are snapshots; an insert into a bin makes its entry
//! stale and its pairs' last observations out of date.
//! [`BinCache::invalidate`] drops one bin and marks every pair through it
//! not fresh, [`BinCache::clear`] does so for the lot, and
//! [`BinCache::store_pair`] makes a fetched pair fresh again.
//! Invalidation is **not** automatic: the insert path lives outside the
//! executor (`InsertPlanner` only plans; the caller uploads the new row),
//! so whoever applies an insert plan must call
//! `QbExecutor::invalidate_cache_on_insert` before the next select, or
//! cached bins will serve answers missing the new tuple.

use std::cell::Cell;
use std::collections::HashMap;

use pds_storage::Tuple;

/// Which side of the deployment a cached bin belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinKind {
    /// A sensitive bin: decrypted real-and-fake tuples as the engine
    /// returned them (fakes are filtered by the executor, not the cache).
    Sensitive,
    /// A non-sensitive bin: clear-text tuples as the cloud returned them.
    NonSensitive,
}

/// Cache key: one bin of one side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BinKey {
    /// The side the bin belongs to.
    pub kind: BinKind,
    /// The bin index on that side.
    pub index: usize,
}

impl BinKey {
    /// Key of a sensitive bin.
    pub fn sensitive(index: usize) -> Self {
        BinKey {
            kind: BinKind::Sensitive,
            index,
        }
    }

    /// Key of a non-sensitive bin.
    pub fn nonsensitive(index: usize) -> Self {
        BinKey {
            kind: BinKind::NonSensitive,
            index,
        }
    }
}

/// Cumulative hit/miss accounting of a [`BinCache`].
///
/// One *fetch* is one whole bin-pair lookup (`hits + misses == fetches`
/// always holds); a *hit* means both bins of the pair were cached and no
/// cloud interaction happened at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BinCacheStats {
    /// Pair lookups answered entirely from cache.
    pub hits: u64,
    /// Pair lookups that had to go to the cloud.
    pub misses: u64,
}

impl BinCacheStats {
    /// Total pair lookups performed.
    pub fn fetches(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of pair lookups served from cache (0.0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        if self.fetches() == 0 {
            0.0
        } else {
            self.hits as f64 / self.fetches() as f64
        }
    }
}

/// A bounded LRU over retrieved bin contents, keyed by [`BinKey`].
///
/// Capacity is counted in *bins* (entries), not tuples; capacity 0 caches
/// no contents (every lookup is a miss, and a store only records that the
/// pair was co-observed), which keeps cross-call answers on the uncached
/// code path for tests and baselines.
#[derive(Debug, Clone, Default)]
pub struct BinCache {
    capacity: usize,
    /// Each bin's recency stamp and contents.  The stamp is a `Cell` so a
    /// hit can refresh both bins of its pair from one lookup each.
    entries: HashMap<BinKey, (Cell<u64>, Vec<Tuple>)>,
    /// Bin pairs the cloud has observed co-retrieved at least once — the
    /// precondition for serving that pair from cache (module docs, rule
    /// 2) — each with whether it is fresh: no write into either bin since
    /// its last observation.  Kept at every capacity; unbounded but tiny:
    /// at most `sensitive bins × non-sensitive bins`.
    seen_pairs: HashMap<(usize, usize), bool>,
    clock: u64,
    stats: BinCacheStats,
}

impl BinCache {
    /// Creates a cache holding at most `capacity` bins.
    pub fn new(capacity: usize) -> Self {
        BinCache {
            capacity,
            entries: HashMap::new(),
            seen_pairs: HashMap::new(),
            clock: 0,
            stats: BinCacheStats::default(),
        }
    }

    /// Maximum number of bins retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of bins currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cumulative hit/miss counters.
    pub fn stats(&self) -> BinCacheStats {
        self.stats
    }

    /// Looks up a whole bin pair.  Returns `(sensitive, nonsensitive)`
    /// tuple streams only when **both** bins are cached *and* the pair has
    /// been co-observed by the cloud at some point, fresh or not (see the
    /// module docs for why neither half-pairs nor never-co-observed pairs
    /// are ever served, and for what serving a stale pair misses),
    /// counting one hit; otherwise counts one miss and returns `None`.
    pub fn get_pair(
        &mut self,
        sensitive_bin: usize,
        nonsensitive_bin: usize,
    ) -> Option<(Vec<Tuple>, Vec<Tuple>)> {
        let _span = pds_obs::obs_span("cache.get_pair");
        let entries = &self.entries;
        let pair = self
            .seen_pairs
            .contains_key(&(sensitive_bin, nonsensitive_bin))
            .then(|| {
                let s = entries.get(&BinKey::sensitive(sensitive_bin))?;
                let ns = entries.get(&BinKey::nonsensitive(nonsensitive_bin))?;
                Some((s, ns))
            })
            .flatten();
        let Some((s, ns)) = pair else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        for (stamp, _) in [s, ns] {
            self.clock += 1;
            stamp.set(self.clock);
        }
        Some((s.1.clone(), ns.1.clone()))
    }

    /// Records one completed pair fetch: the cloud has now co-observed the
    /// pair's current contents (making it eligible for future hits, and
    /// fresh for in-batch reuse), and
    /// above capacity 0 copies of both bins' contents are cached
    /// individually — so they remain reusable by *other* pairs sharing one
    /// of the bins, once those pairs have been co-observed too.
    pub fn store_pair(
        &mut self,
        sensitive_bin: usize,
        sensitive_tuples: &[Tuple],
        nonsensitive_bin: usize,
        nonsensitive_tuples: &[Tuple],
    ) {
        self.seen_pairs
            .insert((sensitive_bin, nonsensitive_bin), true);
        if self.capacity == 0 {
            return;
        }
        let _span = pds_obs::obs_span("cache.store_pair");
        self.store(BinKey::sensitive(sensitive_bin), sensitive_tuples);
        self.store(BinKey::nonsensitive(nonsensitive_bin), nonsensitive_tuples);
    }

    /// Whether the cloud has observed this bin pair fetched together, with
    /// no write into either bin since ([`BinCache::invalidate`],
    /// [`BinCache::clear`]): fetching it again shows the cloud a result it
    /// already holds.  Neither counts a lookup nor touches recency.
    pub fn fresh(&self, sensitive_bin: usize, nonsensitive_bin: usize) -> bool {
        self.seen_pairs
            .get(&(sensitive_bin, nonsensitive_bin))
            .is_some_and(|&fresh| fresh)
    }

    /// Stores (or refreshes) a copy of one bin, evicting the
    /// least-recently-used entry when the cache is full.
    fn store(&mut self, key: BinKey, tuples: &[Tuple]) {
        self.clock += 1;
        let entry = (Cell::new(self.clock), tuples.to_vec());
        if let Some(old) = self.entries.get_mut(&key) {
            *old = entry;
            return;
        }
        if self.entries.len() >= self.capacity {
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, (stamp, _))| stamp.get())
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
            }
        }
        self.entries.insert(key, entry);
    }

    /// Records a write into one bin: drops its entry (if present) and
    /// marks every pair through it not fresh.  Returns whether it was
    /// cached.
    pub fn invalidate(&mut self, key: BinKey) -> bool {
        for (&(sensitive_bin, nonsensitive_bin), fresh) in &mut self.seen_pairs {
            let bin = match key.kind {
                BinKind::Sensitive => sensitive_bin,
                BinKind::NonSensitive => nonsensitive_bin,
            };
            if bin == key.index {
                *fresh = false;
            }
        }
        self.entries.remove(&key).is_some()
    }

    /// Records a write that may touch any bin: drops every cached bin and
    /// marks every pair not fresh.  Counters are kept (they describe the
    /// session) and so is the seen-pair record: the cloud's past
    /// observations do not un-happen, and serving a re-fetched pair later
    /// is still sound — only the stale *contents* must go.
    pub fn clear(&mut self) {
        self.entries.clear();
        for fresh in self.seen_pairs.values_mut() {
            *fresh = false;
        }
    }

    /// Whether one bin is currently cached (does not touch recency or
    /// counters; for tests and introspection).
    pub fn contains(&self, key: BinKey) -> bool {
        self.entries.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::{TupleId, Value};

    fn tuples(base: u64, n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(TupleId::new(base + i), vec![Value::Int((base + i) as i64)]))
            .collect()
    }

    #[test]
    fn pair_hit_requires_a_completed_pair_fetch() {
        let mut c = BinCache::new(4);
        assert!(c.get_pair(0, 0).is_none(), "cold cache misses");
        c.store_pair(0, &tuples(10, 2), 0, &tuples(20, 3));
        let (s, ns) = c.get_pair(0, 0).expect("completed pair serves");
        assert_eq!(s.len(), 2);
        assert_eq!(ns.len(), 3);
        let stats = c.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.fetches(), 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_co_observed_pair_is_not_served_from_shared_bins() {
        // Pairs (0,0) and (1,1) were fetched, so all four bins are cached —
        // but the cross pairs (0,1)/(1,0) were never co-observed by the
        // cloud.  Serving them would drop the cross edges from the cloud's
        // co-occurrence graph forever (Figure 4b), so they must miss until
        // fetched once.
        let mut c = BinCache::new(8);
        c.store_pair(0, &tuples(0, 1), 0, &tuples(10, 1));
        c.store_pair(1, &tuples(20, 1), 1, &tuples(30, 1));
        assert!(c.contains(BinKey::sensitive(0)));
        assert!(c.contains(BinKey::nonsensitive(1)));
        assert!(c.get_pair(0, 1).is_none(), "cross pair never co-observed");
        assert!(c.get_pair(1, 0).is_none(), "cross pair never co-observed");
        // Once fetched once, the cross pair becomes servable — and bin
        // contents are genuinely shared across pairs.
        c.store_pair(0, &tuples(0, 1), 1, &tuples(30, 1));
        assert!(c.get_pair(0, 1).is_some());
        assert!(c.get_pair(0, 0).is_some(), "original pair still serves");
    }

    #[test]
    fn sensitive_and_nonsensitive_indices_do_not_collide() {
        let mut c = BinCache::new(4);
        c.store_pair(1, &tuples(1, 1), 1, &tuples(2, 2));
        assert!(c.contains(BinKey::sensitive(1)));
        assert!(c.contains(BinKey::nonsensitive(1)));
        let (s, ns) = c.get_pair(1, 1).unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(ns.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_bin() {
        let mut c = BinCache::new(2);
        c.store_pair(0, &tuples(0, 1), 0, &tuples(10, 1));
        // Touch the pair so both entries are warm, then add another pair
        // (capacity 2, so both of its bins push out the older pair's).
        assert!(c.get_pair(0, 0).is_some());
        c.store_pair(9, &tuples(90, 1), 9, &tuples(91, 1));
        assert_eq!(c.len(), 2);
        assert!(!c.contains(BinKey::sensitive(0)));
        assert!(!c.contains(BinKey::nonsensitive(0)));
        assert!(c.contains(BinKey::sensitive(9)));
        assert!(c.contains(BinKey::nonsensitive(9)));
        assert!(
            c.get_pair(0, 0).is_none(),
            "evicted pair misses even though it was co-observed"
        );
    }

    #[test]
    fn capacity_zero_caches_no_contents_but_records_co_observation() {
        let mut c = BinCache::new(0);
        assert!(!c.fresh(0, 0));
        c.store_pair(0, &tuples(0, 5), 0, &tuples(5, 5));
        assert!(c.is_empty());
        assert!(c.fresh(0, 0), "the cloud saw the pair fetched");
        assert!(!c.fresh(0, 1) && !c.fresh(1, 0));
        assert!(c.get_pair(0, 0).is_none());
        assert_eq!(c.stats().hits, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn writes_make_pairs_stale_until_fetched_again() {
        let mut c = BinCache::new(0);
        c.store_pair(0, &[], 0, &[]);
        c.store_pair(1, &[], 0, &[]);
        c.store_pair(1, &[], 1, &[]);
        c.invalidate(BinKey::nonsensitive(0));
        assert!(!c.fresh(0, 0) && !c.fresh(1, 0), "pairs through the bin");
        assert!(c.fresh(1, 1), "a pair through other bins stays fresh");
        c.store_pair(0, &[], 0, &[]);
        assert!(c.fresh(0, 0), "a fetch makes the pair fresh again");
        c.invalidate(BinKey::sensitive(1));
        assert!(!c.fresh(1, 1) && c.fresh(0, 0));
        c.clear();
        assert!(!c.fresh(0, 0), "a write anywhere makes every pair stale");
    }

    #[test]
    fn invalidate_and_clear() {
        let mut c = BinCache::new(4);
        c.store_pair(0, &tuples(0, 1), 0, &tuples(1, 1));
        assert!(c.invalidate(BinKey::sensitive(0)));
        assert!(!c.invalidate(BinKey::sensitive(0)), "already gone");
        assert!(c.get_pair(0, 0).is_none(), "invalidated bin forces a miss");
        // Re-fetching restores servability (the pair stays co-observed).
        c.store_pair(0, &tuples(0, 1), 0, &tuples(1, 1));
        assert!(c.get_pair(0, 0).is_some());
        c.clear();
        assert!(c.is_empty());
        assert!(c.get_pair(0, 0).is_none(), "cleared contents cannot serve");
        assert!(c.stats().fetches() > 0, "counters survive clear");
    }

    #[test]
    fn store_pair_refreshes_existing_entries_without_eviction() {
        let mut c = BinCache::new(2);
        c.store_pair(0, &tuples(0, 1), 0, &tuples(1, 1));
        c.store_pair(0, &tuples(2, 3), 0, &tuples(1, 1));
        assert_eq!(c.len(), 2);
        let (s, _) = c.get_pair(0, 0).unwrap();
        assert_eq!(s.len(), 3, "refreshed contents are served");
    }
}
