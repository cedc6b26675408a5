//! End-to-end partitioned query execution with Query Binning.
//!
//! [`QbExecutor`] glues everything together:
//!
//! 1. **Outsourcing** — the non-sensitive part `Rns` is uploaded in
//!    clear-text; the sensitive part `Rs` and the fake tuples the general
//!    case requires (so every sensitive bin answers with the same number
//!    of tuples) are dealt into one relation per shard, which the shard's
//!    [`SecureSelectionEngine::outsource`] indexes, encrypts and uploads.
//! 2. **Planning** — a batch of queries is compiled into a
//!    [`crate::plan::QueryPlan`]: Algorithm 2 rewrites each value into one
//!    bin pair, the owner-side hot-bin cache serves what it can, and the
//!    batch fetches a minimum cover of the remaining pairs' bins
//!    ([`crate::planner::bin_cover`]).  The episodes — one per fetched
//!    pair — are grouped by the shard hosting their sensitive bin, each
//!    marked composed (the clear-text bin rides the sensitive side's last
//!    exchange) or fine-grained according to the plan mode.
//! 3. **Execution** — the planned episodes fan out per shard through one
//!    [`BinTransport::dispatch`], one task per shard with work holding
//!    that shard's engine, its steps and a fresh owner fork.  Every
//!    episode runs as one adversarial-view episode on its shard: in
//!    process on the shard's [`CloudServer`]
//!    ([`crate::plan::execute_episode`]), or over TCP through
//!    [`crate::plan::execute_shard_pipelined`]'s correlated window.  A
//!    batch's rounds are the sum of its episodes' measured rounds on every
//!    transport.  Every query then reads the fetched streams of its two
//!    bins: the owner drops fake tuples and false positives and merges the
//!    two streams (`qmerge` of §II).
//!
//! All entry points — [`QbExecutor::select`],
//! [`QbExecutor::run_workload_transported`] and the range, aggregate and
//! join extensions — run one batch of bin pairs through this one
//! plan→execute code path (a point query is a batch of one over
//! [`BinTransport::Sequential`]), so cache bookkeeping, co-observation
//! tracking and security-view recording behave identically however a
//! query arrives.

use std::collections::{HashMap, HashSet};

use pds_cloud::{
    BinCache, BinCacheStats, BinEpisodeRequest, BinKey, BinRoutedCloud, BinTransport, CloudServer,
    DbOwner,
};
use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use pds_storage::{PartitionedRelation, Predicate, Relation, Tuple};
use pds_systems::{fine_grained_bin_episode, BinEpisodeOutcome, SecureSelectionEngine};

use crate::binning::{BinPair, QueryBinning};
use crate::plan::{
    execute_episode, execute_shard_pipelined, CacheServed, EpisodeResult, EpisodeStep, PlanMode,
    QueryPlan,
};
use crate::planner::{bin_cover, reorder_for_locality, PlannerConfig};

/// Default in-flight window per shard connection over
/// [`BinTransport::Tcp`]: deep enough to keep a multi-worker daemon busy,
/// small enough that a torn connection never has more than a handful of
/// idempotent episodes to replay.
pub const DEFAULT_PIPELINE_WINDOW: usize = 8;

/// Executed episodes: each one's bin pair and result.
type Episodes = Vec<(BinPair, EpisodeResult)>;

/// The end-to-end Query Binning executor over a chosen secure back-end.
///
/// The executor runs against any [`BinRoutedCloud`] — a single
/// [`CloudServer`] or a [`pds_cloud::ShardRouter`] over many — with the same
/// code path: at outsourcing time each sensitive bin's tuples go to the
/// shard its placement assigns (one forked engine per shard keeps the
/// outsourced state isolated), and at query time the whole episode for a
/// bin pair runs against that single shard.
pub struct QbExecutor<E: SecureSelectionEngine> {
    binning: QueryBinning,
    engine: E,
    /// One engine per shard, installed at outsourcing time; all outsourced
    /// state lives here (the `engine` field stays a prototype).  Usually
    /// forks of the prototype, but [`QbExecutor::outsource_with_engines`]
    /// accepts a *different* back-end per shard (`E` is then typically
    /// `Box<dyn SecureSelectionEngine>`).
    shard_engines: Vec<E>,
    /// How episodes are shaped on the wire (composed vs fine-grained).
    plan_mode: PlanMode,
    /// Maximum unanswered episode requests per shard connection over a
    /// TCP transport (1 is lock-step).
    pipeline_window: usize,
    /// The cost-based planner's per-batch behaviour: the residual
    /// predicate, and whether it pushes down the wire.
    planner: PlannerConfig,
    sensitive_attr: Option<AttrId>,
    nonsensitive_attr: Option<AttrId>,
    outsourced: bool,
    /// Ids of the padding fakes, built once at outsourcing time so the
    /// per-query merge never rebuilds it (`qmerge` is on the hot path).
    fake_id_set: HashSet<TupleId>,
    /// Owner-side hot-bin cache over already-retrieved, already-decrypted
    /// bins, with the record of pairs the cloud has seen fetched together.
    /// Capacity 0 (the default) caches no contents but keeps the record.
    cache: BinCache,
    /// The tenant this executor acts for in a multi-tenant deployment:
    /// it must match the tenant a [`BinTransport::Tcp`] client
    /// authenticates as.
    tenant: u64,
}

impl<E: SecureSelectionEngine> QbExecutor<E> {
    /// Creates an executor from a binning and a back-end engine (hot-bin
    /// caching disabled; see [`QbExecutor::with_cache_capacity`]).
    pub fn new(binning: QueryBinning, engine: E) -> Self {
        QbExecutor {
            binning,
            engine,
            shard_engines: Vec::new(),
            plan_mode: PlanMode::default(),
            pipeline_window: DEFAULT_PIPELINE_WINDOW,
            planner: PlannerConfig::default(),
            sensitive_attr: None,
            nonsensitive_attr: None,
            outsourced: false,
            fake_id_set: HashSet::new(),
            cache: BinCache::new(0),
            tenant: 0,
        }
    }

    /// Enables the owner-side hot-bin cache with room for `capacity` bins.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.set_cache_capacity(capacity);
        self
    }

    /// Sets the tenant this executor acts for (builder form).
    pub fn with_tenant(mut self, tenant: u64) -> Self {
        self.set_tenant(tenant);
        self
    }

    /// The tenant this executor acts for (0 in single-tenant deployments).
    pub fn tenant(&self) -> u64 {
        self.tenant
    }

    /// Sets the tenant this executor acts for.
    /// [`QbExecutor::run_workload_transported`] over [`BinTransport::Tcp`]
    /// refuses a client authenticated as a *different* tenant — the daemon
    /// would silently serve the other tenant's bins otherwise.
    pub fn set_tenant(&mut self, tenant: u64) {
        self.tenant = tenant;
    }

    /// Sets how episodes are shaped on the wire (builder form).
    pub fn with_plan_mode(mut self, mode: PlanMode) -> Self {
        self.plan_mode = mode;
        self
    }

    /// Sets how episodes are shaped on the wire: [`PlanMode::Composed`]
    /// (the default — the clear-text bin rides the sensitive side's last
    /// exchange) or [`PlanMode::FineGrained`] (separate messages, one
    /// round more, for baseline comparisons).
    pub fn set_plan_mode(&mut self, mode: PlanMode) {
        self.plan_mode = mode;
    }

    /// Sets how many episode requests each shard connection keeps in
    /// flight over a [`BinTransport::Tcp`] transport (default
    /// [`DEFAULT_PIPELINE_WINDOW`]; 0 counts as 1).  A window of 1 is
    /// lock-step — one request on the socket, then its answer — which the
    /// equivalence tests and the `experiments pipeline` gate compare with
    /// deeper windows on identical deployments.  Frames, bytes, rounds and
    /// answers do not depend on the window.
    pub fn set_pipeline_window(&mut self, window: usize) {
        self.pipeline_window = window;
    }

    /// Installs a planner configuration.  Fails if the residual predicate
    /// mentions the searchable attribute on either side — a residual on
    /// the binned attribute would travel in clear-text inside the episode
    /// request and leak exactly what binning hides.  Changing the residual
    /// drops the hot-bin cache: cached non-sensitive bins hold the
    /// *filtered* stream of whatever residual fetched them, so they are
    /// only valid while that residual stays in force.
    pub fn set_planner(&mut self, config: PlannerConfig) -> Result<()> {
        Self::validate_residual(
            config.residual.as_ref(),
            self.sensitive_attr,
            self.nonsensitive_attr,
        )?;
        if config.residual != self.planner.residual {
            self.cache.clear();
        }
        self.planner = config;
        Ok(())
    }

    /// Rejects residual predicates that mention a searchable attribute.
    /// Called both when a planner config is installed and again at
    /// outsourcing time, when the searchable attribute ids first become
    /// known.
    fn validate_residual(
        residual: Option<&Predicate>,
        sensitive_attr: Option<AttrId>,
        nonsensitive_attr: Option<AttrId>,
    ) -> Result<()> {
        let Some(residual) = residual else {
            return Ok(());
        };
        let attrs = residual.attrs();
        for searchable in [sensitive_attr, nonsensitive_attr].into_iter().flatten() {
            if attrs.contains(&searchable) {
                return Err(PdsError::Config(format!(
                    "residual predicate mentions searchable attribute {searchable:?}; \
                     selections on the binned attribute must go through Query Binning, \
                     not ride the wire in clear-text"
                )));
            }
        }
        Ok(())
    }

    /// Replaces the hot-bin cache with a fresh one holding at most
    /// `capacity` bins (entries, counters and the record of co-observed
    /// pairs are reset, so the next batch fetches each of its distinct
    /// pairs once).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache = BinCache::new(capacity);
    }

    /// Cumulative hit/miss counters of the hot-bin cache
    /// (`hits + misses == fetches` over every pair retrieval attempted).
    pub fn cache_stats(&self) -> BinCacheStats {
        self.cache.stats()
    }

    /// The hot-bin cache itself (for introspection in tests/experiments).
    pub fn cache(&self) -> &BinCache {
        &self.cache
    }

    /// The binning metadata in force.
    pub fn binning(&self) -> &QueryBinning {
        &self.binning
    }

    /// The prototype back-end engine (per-shard forks hold the outsourced
    /// state once [`QbExecutor::outsource`] has run).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The forked engines serving each shard (empty before outsourcing).
    pub fn shard_engines(&self) -> &[E] {
        &self.shard_engines
    }

    /// Ids of the fake tuples added during outsourcing.
    pub fn fake_tuple_ids(&self) -> &HashSet<TupleId> {
        &self.fake_id_set
    }

    /// The searchable attribute's position in the partitioned schemas
    /// (available once outsourced).
    pub fn searchable_attr(&self) -> Option<AttrId> {
        self.sensitive_attr
    }

    /// Outsources the partitioned relation: `Rns` in clear-text (replicated
    /// to every shard), `Rs` and its padding fakes through one forked
    /// engine per shard, each shard receiving exactly the sensitive bins the
    /// placement assigns to it.  The shards encrypt and upload concurrently,
    /// each through its own fork of `owner`, whose counters fold back into
    /// `owner`.
    pub fn outsource<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        partitioned: &PartitionedRelation,
    ) -> Result<()> {
        let engines = (0..cloud.shard_count())
            .map(|_| self.engine.fork())
            .collect();
        self.outsource_with_engines(owner, cloud, partitioned, engines)
    }

    /// Outsources with an explicit engine per shard instead of forking the
    /// prototype — a **heterogeneous** deployment when `E` is
    /// `Box<dyn SecureSelectionEngine>` and the boxes hold different
    /// back-ends.  Each shard's episodes run through its own engine, so
    /// one-round and two-round back-ends mix freely in one deployment.
    pub fn outsource_with_engines<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        partitioned: &PartitionedRelation,
        engines: Vec<E>,
    ) -> Result<()> {
        if engines.len() != cloud.shard_count() {
            return Err(PdsError::Config(format!(
                "{} engines for {} shards",
                engines.len(),
                cloud.shard_count()
            )));
        }
        let attr_name = self.binning.attr_name().to_string();
        let s_attr = partitioned.sensitive.schema().attr_id(&attr_name)?;
        self.sensitive_attr = Some(s_attr);

        cloud.prepare_routing(self.binning.sensitive_bin_count())?;

        // Clear-text non-sensitive side with its cloud-side index.
        cloud.upload_plaintext(partitioned.nonsensitive.clone(), &attr_name)?;
        self.nonsensitive_attr = cloud.shard(0).plain_searchable_attr();

        // A residual installed before outsourcing could not be checked
        // against the searchable attributes; re-validate now they exist.
        Self::validate_residual(
            self.planner.residual.as_ref(),
            self.sensitive_attr,
            self.nonsensitive_attr,
        )?;

        // A re-outsource starts a fresh cache epoch: bin numbering may
        // change with the new binning, so neither cached contents nor the
        // seen-pair history may carry over.
        self.cache = BinCache::new(self.cache.capacity());

        // Sensitive side: the real tuples and the fakes each bin needs,
        // dealt into one sub-relation per shard (a sensitive bin lives on
        // one shard).
        let fakes = self.augment_with_fakes(&partitioned.sensitive, s_attr);
        let per_shard = self.split_by_shard(cloud, &partitioned.sensitive, fakes, s_attr)?;
        owner.pad_tuples_to_widest(per_shard.iter().flat_map(Relation::tuples));
        self.shard_engines = engines;

        // Every shard encrypts and uploads its sub-relation at once, one
        // task per shard on the fan-out queries use.  The owner forks are
        // taken here, in shard order, after the padding width is fixed, so
        // what each shard stores does not depend on thread scheduling.
        let tasks: Vec<Option<_>> = self
            .shard_engines
            .iter_mut()
            .zip(cloud.shards_mut())
            .zip(&per_shard)
            .map(|((engine, slot), relation)| {
                let mut fork = owner.fork();
                Some(move || {
                    let outcome = engine.outsource(&mut fork, slot, relation, s_attr);
                    (*fork.metrics(), outcome)
                })
            })
            .collect();
        let (outputs, _) = BinTransport::Threaded.dispatch(tasks);
        // Every fork's work counts, even when a shard failed; the first
        // failure in shard order is the one reported.
        let mut outcome = Ok(());
        for (fork_metrics, shard_outcome) in outputs.into_iter().flatten() {
            owner.absorb_metrics(&fork_metrics);
            outcome = outcome.and(shard_outcome);
        }
        outcome?;
        self.outsourced = true;
        Ok(())
    }

    /// Deals the real sensitive tuples (cloned once) and then the fakes
    /// into one sub-relation per shard, following the cloud's bin routing.
    fn split_by_shard<C: BinRoutedCloud>(
        &self,
        cloud: &C,
        sensitive: &Relation,
        fakes: Vec<Tuple>,
        attr: AttrId,
    ) -> Result<Vec<Relation>> {
        let mut per_shard: Vec<Relation> = (0..cloud.shard_count())
            .map(|s| {
                Relation::new(
                    format!("{}@shard{s}", sensitive.name()),
                    sensitive.schema().clone(),
                )
            })
            .collect();
        for t in sensitive.tuples().iter().cloned().chain(fakes) {
            let assignment = self
                .binning
                .sensitive_assignment(t.value(attr))
                .ok_or_else(|| {
                    PdsError::Query(format!(
                        "sensitive value {} has no bin assignment",
                        t.value(attr)
                    ))
                })?;
            let shard = cloud.route_sensitive_bin(assignment.bin);
            per_shard[shard].insert_with_id(t.id, t.values)?;
        }
        Ok(per_shard)
    }

    /// The fake tuples the general case prescribes for `sensitive`, bin by
    /// bin (each fake carries a value of its bin so the cloud returns it
    /// whenever that bin is queried).
    ///
    /// Every non-searchable attribute of a fake tuple is `NULL`.  The owner
    /// pads every tuple plaintext to the widest sensitive tuple or fake
    /// before encrypting it ([`DbOwner::pad_tuples_to_widest`]), so to the
    /// cloud a fake is indistinguishable from a real row, even by
    /// ciphertext length.  The owner recognises fakes by their tuple ids
    /// (tracked in [`QbExecutor::fake_tuple_ids`]).
    fn augment_with_fakes(&mut self, sensitive: &Relation, attr: AttrId) -> Vec<Tuple> {
        let arity = sensitive.schema().arity();
        let mut next_id = sensitive
            .tuples()
            .iter()
            .map(|t| t.id.raw())
            .max()
            .map_or(1_000_000, |m| m + 1_000_000);
        let mut fakes = Vec::new();
        self.fake_id_set.clear();
        for bin in 0..self.binning.sensitive_bin_count() {
            let budget = self.binning.fake_tuples_per_bin()[bin];
            if budget == 0 {
                continue;
            }
            let bin_values = self.binning.sensitive_bin(bin);
            if bin_values.is_empty() {
                continue;
            }
            for k in 0..budget {
                // Spread fakes across the bin's values round-robin so no
                // single value's padded count looks anomalous.
                let value = &bin_values[(k as usize) % bin_values.len()];
                let id = TupleId::new(next_id);
                next_id += 1;
                let mut values = vec![Value::Null; arity];
                values[attr.index()] = value.clone();
                fakes.push(Tuple::new(id, values));
                self.fake_id_set.insert(id);
            }
        }
        fakes
    }

    /// Compiles the episode step retrieving one bin pair: routed to the
    /// shard hosting the sensitive bin, composed iff the plan mode is
    /// [`PlanMode::Composed`].
    // pds-allow: plaintext-egress(BinEpisodeRequest is the owner-side episode description, not a wire frame: sensitive_values leave only as pds_crypto search tags or located addresses when the engine builds the episode's FetchBinRequest, and set_planner rejects residuals mentioning sensitive or searchable attributes before wire_residual will release one)
    fn compile_step<C: BinRoutedCloud>(&self, cloud: &C, pair: BinPair) -> EpisodeStep {
        EpisodeStep {
            pair,
            shard: cloud.route_sensitive_bin(pair.sensitive_bin),
            composed: self.plan_mode == PlanMode::Composed,
            request: BinEpisodeRequest {
                sensitive_values: self.binning.sensitive_bin(pair.sensitive_bin).to_vec(),
                nonsensitive_values: self.binning.nonsensitive_bin(pair.nonsensitive_bin),
                pushdown: self.planner.wire_residual().cloned(),
            },
        }
    }

    /// Runs a QB selection for a single value: a one-value
    /// [`QbExecutor::run_workload_transported`] over
    /// [`BinTransport::Sequential`].
    pub fn select<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        value: &Value,
    ) -> Result<Vec<Tuple>> {
        let run = self.run_workload_transported(
            owner,
            cloud,
            std::slice::from_ref(value),
            &BinTransport::Sequential,
        )?;
        Ok(run.answers.into_iter().flatten().collect())
    }

    /// Invalidates the hot-bin cache for a planned insert of `value` on the
    /// given side (see `pds_core::extensions::InsertPlanner`): cached bin
    /// snapshots would otherwise serve stale contents after the insert, and
    /// a batch could otherwise fetch a pair through the written bin for
    /// its bins alone, showing the cloud a result no query asked for.
    ///
    /// A sensitive-side insert conservatively treats *every* bin as written
    /// — the general case may add padding fakes to any sensitive bin to
    /// keep tuple counts balanced.  A non-sensitive insert of a known value
    /// only writes that value's clear-text bin; an unknown value (which
    /// forces a slot assignment or a rebuild) also writes everything.
    pub fn invalidate_cache_on_insert(&mut self, value: &Value, sensitive: bool) {
        if sensitive {
            self.cache.clear();
            return;
        }
        match self.binning.nonsensitive_assignment(value) {
            Some(assign) => {
                self.cache.invalidate(BinKey::nonsensitive(assign.bin));
            }
            None => self.cache.clear(),
        }
    }

    /// Runs a batch of point queries with the bin fetches of different
    /// shards dispatched through `transport` — with
    /// [`BinTransport::Threaded`], the shards' episode streams run at once
    /// (the last on the calling thread, each other one on an OS thread of
    /// its own), so [`TransportedRun::wall_clock_sec`] is a *measured*
    /// parallel wall-clock rather than the router's max-over-shards model.
    ///
    /// Answers are byte-identical to running [`QbExecutor::select`] per
    /// value: hot-bin cache hits are answered owner-side before the
    /// fan-out, the batch fetches a minimum cover of the other queries'
    /// bins ([`crate::planner::bin_cover`]) grouped by home shard, every
    /// per-shard engine/owner fork's counters are folded back afterwards,
    /// and each query is answered from the fetched streams of its two
    /// bins.  A pair the cloud has not seen fetched since its bins last
    /// changed is fetched as it stands, and every other fetched pair is one
    /// the cloud holds the current result of (`pds_cloud::cache`), so every
    /// shard's view holds the same distinct observations as one query per
    /// call would leave, in fewer episodes.
    ///
    /// Every transport runs the batch through the same fan-out
    /// ([`BinTransport::dispatch`]), and [`TransportedRun::rounds`] is the
    /// sum of the episodes' measured rounds on all of them.  With
    /// [`BinTransport::Tcp`], the shards live in per-shard
    /// [`pds_cloud::ShardDaemon`] processes behind the transport's pooled
    /// client: the shards' episode streams fan out as under
    /// [`BinTransport::Threaded`], each through
    /// [`execute_shard_pipelined`], with the window set by
    /// [`QbExecutor::set_pipeline_window`] in flight per connection.  The
    /// local `cloud` then only provides the bin→shard routing; its
    /// in-process shard state is never touched.  The client must
    /// authenticate as this executor's tenant.
    pub fn run_workload_transported<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        values: &[Value],
        transport: &BinTransport,
    ) -> Result<TransportedRun> {
        let pairs: Vec<Option<BinPair>> = values.iter().map(|v| self.binning.retrieve(v)).collect();
        self.run_pairs(owner, cloud, &pairs, transport, |slot, v| {
            v == &values[slot]
        })
    }

    /// The pair-level batch behind every query: retrieves `pairs` (one
    /// answer slot each; `None` for a value that occurs nowhere, which
    /// needs nothing retrieved — Algorithm 2's final case) through
    /// `transport` and answers each slot with the real tuples of its two
    /// bins whose searchable value `wanted(slot, value)` accepts (and the
    /// residual, when one is in force).
    ///
    /// It checks a TCP client against the deployment, compiles the plan —
    /// cache hits are captured owner-side right away, and the batch's
    /// minimum bin cover becomes episode steps grouped by the shard hosting
    /// their sensitive bin — runs the steps through
    /// [`QbExecutor::run_steps`], records every fetched pair in the
    /// hot-bin cache, then answers every other slot by borrowing the
    /// fetched streams of its two bins.  A non-sensitive bin may come from
    /// another shard's episode: the clear-text relation is replicated to
    /// every shard.
    pub(crate) fn run_pairs<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        pairs: &[Option<BinPair>],
        transport: &BinTransport,
        wanted: impl Fn(usize, &Value) -> bool,
    ) -> Result<TransportedRun> {
        if !self.outsourced {
            return Err(PdsError::Query("deployment not outsourced yet".into()));
        }
        let (s_attr, ns_attr) = self.searchable_attrs()?;
        let shard_count = cloud.shard_count();
        if let BinTransport::Tcp(client) = transport {
            if client.shard_count() != shard_count {
                return Err(PdsError::Config(format!(
                    "TCP client spans {} shard daemons but the deployment routes {shard_count} shards",
                    client.shard_count()
                )));
            }
            if client.tenant() != self.tenant {
                return Err(PdsError::Config(format!(
                    "TCP client authenticates as tenant {} but this executor acts \
                     for tenant {}",
                    client.tenant(),
                    self.tenant
                )));
            }
        }

        let plan = self.plan_workload(cloud, pairs);
        let cache_misses = plan.step_count();
        let cache_hits = plan.cache_served.len() + plan.waiters.len() - cache_misses;
        let (episodes, wall_clock_sec) = self.run_steps(owner, cloud, transport, plan.per_shard)?;
        let rounds: u64 = episodes.iter().map(|(_, res)| res.rounds).sum();
        // The episode holding each bin the batch fetched.
        let mut sensitive_from: HashMap<usize, usize> = HashMap::new();
        let mut nonsensitive_from: HashMap<usize, usize> = HashMap::new();
        for (k, (pair, res)) in episodes.iter().enumerate() {
            let BinEpisodeOutcome {
                nonsensitive,
                sensitive,
            } = &res.outcome;
            self.cache.store_pair(
                pair.sensitive_bin,
                sensitive,
                pair.nonsensitive_bin,
                nonsensitive,
            );
            sensitive_from.entry(pair.sensitive_bin).or_insert(k);
            nonsensitive_from.entry(pair.nonsensitive_bin).or_insert(k);
        }
        let merge = |slot: usize, nonsensitive: &[Tuple], sensitive: &[Tuple]| {
            merge_point_answer(
                &self.fake_id_set,
                (s_attr, ns_attr),
                self.planner.residual.as_ref(),
                |v| wanted(slot, v),
                nonsensitive,
                sensitive,
            )
        };
        let mut answers = vec![Vec::new(); pairs.len()];
        for served in &plan.cache_served {
            answers[served.index] = merge(served.index, &served.nonsensitive, &served.sensitive);
        }
        for &(slot, pair) in &plan.waiters {
            let (Some(&s), Some(&ns)) = (
                sensitive_from.get(&pair.sensitive_bin),
                nonsensitive_from.get(&pair.nonsensitive_bin),
            ) else {
                return Err(PdsError::Query(format!(
                    "the batch fetched no episode holding both bins of slot {slot}'s pair {pair:?}"
                )));
            };
            answers[slot] = merge(
                slot,
                &episodes[ns].1.outcome.nonsensitive,
                &episodes[s].1.outcome.sensitive,
            );
        }
        Ok(TransportedRun {
            answers,
            wall_clock_sec,
            cache_hits,
            cache_misses,
            rounds,
        })
    }

    /// Runs planned episode steps, grouped by home shard, through
    /// `transport`'s one fan-out ([`BinTransport::dispatch`]).  Returns
    /// every episode's bin pair and result — shard by shard,
    /// each shard's in the order it finished them — and the measured
    /// wall-clock of the fan-out.
    ///
    /// Each shard with work becomes one task that holds the shard's engine,
    /// its steps and a fresh owner fork (same keys; its own randomness and
    /// counters), so the task is `Send` as a whole.  In process the task
    /// runs [`execute_episode`] for each step on its shard slot; over
    /// [`BinTransport::Tcp`] it runs [`execute_shard_pipelined`] on the
    /// daemon client with the pipeline window, and `cloud` contributes only
    /// its shard slots' count.  Every fork's counters are folded back into
    /// `owner` before the first error (in shard order) surfaces, so a
    /// failed shard's work is still accounted for.
    fn run_steps<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        transport: &BinTransport,
        per_shard: Vec<Vec<EpisodeStep>>,
    ) -> Result<(Episodes, f64)> {
        if self.shard_engines.len() < per_shard.len() {
            return Err(PdsError::Query(format!(
                "{} engines for {} shards",
                self.shard_engines.len(),
                per_shard.len()
            )));
        }
        let client = match transport {
            BinTransport::Tcp(client) => Some(client),
            BinTransport::Sequential | BinTransport::Threaded => None,
        };
        let window = self.pipeline_window;
        let tasks: Vec<Option<_>> = self
            .shard_engines
            .iter_mut()
            .zip(cloud.shards_mut())
            .zip(per_shard)
            .enumerate()
            .map(|(shard, ((engine, slot), steps))| {
                if steps.is_empty() {
                    return None;
                }
                let mut fork = owner.fork();
                Some(move || {
                    let episodes = match client {
                        Some(client) => execute_shard_pipelined(
                            &mut fork, client, shard, engine, &steps, window,
                        ),
                        None => steps
                            .iter()
                            .map(|step| {
                                execute_episode(&mut fork, slot, engine, step)
                                    .map(|result| (step.pair, result))
                            })
                            .collect(),
                    };
                    (*fork.metrics(), episodes)
                })
            })
            .collect();
        let (outputs, wall_clock_sec) = transport.dispatch(tasks);
        let outcomes: Vec<Result<Episodes>> = outputs
            .into_iter()
            .flatten()
            .map(|(fork_metrics, outcome)| {
                owner.absorb_metrics(&fork_metrics);
                outcome
            })
            .collect();
        let episodes: Episodes = outcomes
            .into_iter()
            .collect::<Result<Vec<_>>>()?
            .into_iter()
            .flatten()
            .collect();
        Ok((episodes, wall_clock_sec))
    }

    /// The searchable attribute's position on the sensitive and on the
    /// non-sensitive side, which every point-query merge needs.
    fn searchable_attrs(&self) -> Result<(AttrId, AttrId)> {
        let s_attr = self
            .sensitive_attr
            .ok_or_else(|| PdsError::Query("deployment not outsourced yet".into()))?;
        let ns_attr = self
            .nonsensitive_attr
            .ok_or_else(|| PdsError::Cloud("plaintext relation missing".into()))?;
        Ok((s_attr, ns_attr))
    }

    /// Compiles a batch into its [`QueryPlan`] **without executing it** —
    /// the introspection entry point the plan-equivalence suite replays:
    /// an identically-built deployment with the same planner configuration
    /// and workload must compile to a byte-identical plan
    /// (`format!("{plan:?}")`).  Cache lookups are performed (and counted
    /// in [`QbExecutor::cache_stats`]) exactly as the executing path would,
    /// but nothing is fetched and the cache is never populated.
    pub fn compile_workload<C: BinRoutedCloud>(
        &mut self,
        cloud: &C,
        values: &[Value],
    ) -> QueryPlan {
        let pairs: Vec<Option<BinPair>> = values.iter().map(|v| self.binning.retrieve(v)).collect();
        self.plan_workload(cloud, &pairs)
    }

    /// Compiles one batch of bin pairs (one per answer slot; `None` slots
    /// need nothing) into a [`QueryPlan`].  Slot by slot in batch order,
    /// the first slot of each distinct pair asks the owner-side cache,
    /// which serves it when it can; every other slot waits for the
    /// batch's fetches.  The pairs the cache does not serve then yield the
    /// batch's minimum bin cover ([`bin_cover`], over the cache's record of
    /// fresh pairs), one episode step per fetched pair, grouped by home
    /// shard in the plan mode's composed or fine-grained shape.  No hash
    /// order decides anything, so a batch always compiles to the same
    /// plan.
    fn plan_workload<C: BinRoutedCloud>(
        &mut self,
        cloud: &C,
        pairs: &[Option<BinPair>],
    ) -> QueryPlan {
        let _span = pds_obs::obs_span("plan.compile");
        let mut plan = QueryPlan::new(cloud.shard_count());
        // The batch's distinct pairs the cache does not serve, in batch
        // order.
        let mut batch: Vec<BinPair> = Vec::new();
        let mut in_batch: HashSet<(usize, usize)> = HashSet::new();
        for (idx, &pair) in pairs.iter().enumerate() {
            let Some(pair) = pair else {
                continue;
            };
            let pair_key = (pair.sensitive_bin, pair.nonsensitive_bin);
            if !in_batch.contains(&pair_key) {
                if let Some((s_tuples, ns_tuples)) = self.cache.get_pair(pair_key.0, pair_key.1) {
                    plan.cache_served.push(CacheServed {
                        index: idx,
                        pair,
                        nonsensitive: ns_tuples,
                        sensitive: s_tuples,
                    });
                    continue;
                }
                in_batch.insert(pair_key);
                batch.push(pair);
            }
            plan.waiters.push((idx, pair));
        }
        for pair in bin_cover(&batch, |s, ns| self.cache.fresh(s, ns)) {
            let step = self.compile_step(cloud, pair);
            plan.per_shard[step.shard].push(step);
        }
        // The optimizer pass: per-shard episodes settle into deterministic
        // bin-major order.
        reorder_for_locality(&mut plan);
        plan
    }
}

/// The outcome of [`QbExecutor::run_workload_transported`].
#[derive(Debug)]
pub struct TransportedRun {
    /// Per-query answers, aligned with the input values.
    pub answers: Vec<Vec<Tuple>>,
    /// Measured wall-clock seconds of the shard fan-out (excludes
    /// owner-side cache serving and the final merge).
    pub wall_clock_sec: f64,
    /// Answered queries beyond the batch's episodes: `cache_hits +
    /// cache_misses` is the number of queries whose value some bin pair
    /// holds (every query but Algorithm 2's empty case).  Queries served
    /// from the owner-side hot-bin cache count here, and so does every
    /// query of a fetched pair beyond one per episode (see
    /// [`QbExecutor::run_workload_transported`]).
    pub cache_hits: usize,
    /// The batch's episodes: the bin pairs it fetched from the shards, one
    /// episode each.
    pub cache_misses: usize,
    /// Total owner↔cloud rounds over every episode of the batch, measured
    /// as each episode's shard's `round_trips` delta (over TCP, one per
    /// episode).  Cache hits contribute none.  A composed episode takes 1
    /// round on det-index, arx and the enclave/MPC simulators and 2 on
    /// nondet-scan, secret sharing and DPF; a fine-grained one takes one
    /// more.
    pub rounds: u64,
}

/// `qmerge` of §II for one answer slot: drop fakes (by id), keep only
/// tuples whose searchable value the slot wants (the queried value, or a
/// range's interval) — and that match the residual predicate, when one is
/// in force — then concatenate both streams, cloning only what is kept.
///
/// The residual is applied owner-side *unconditionally*: on the sensitive
/// stream the cloud can never evaluate it (the tuples are encrypted), and
/// on the non-sensitive stream re-applying what pushdown already filtered
/// is idempotent — which is exactly what makes answers byte-identical
/// whether the residual rode the wire or not.
fn merge_point_answer(
    fake_ids: &HashSet<TupleId>,
    (s_attr, ns_attr): (AttrId, AttrId),
    residual: Option<&Predicate>,
    wanted: impl Fn(&Value) -> bool,
    ns_tuples: &[Tuple],
    s_tuples: &[Tuple],
) -> Vec<Tuple> {
    let keep = |t: &Tuple| residual.map_or(true, |p| p.matches(t));
    let sensitive = s_tuples
        .iter()
        .filter(|t| !fake_ids.contains(&t.id) && wanted(t.value(s_attr)) && keep(t));
    let nonsensitive = ns_tuples
        .iter()
        .filter(|t| wanted(t.value(ns_attr)) && keep(t));
    sensitive.chain(nonsensitive).cloned().collect()
}

impl<E: SecureSelectionEngine> std::fmt::Debug for QbExecutor<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QbExecutor")
            .field("engine", &self.engine.name())
            .field("outsourced", &self.outsourced)
            .field("fake_tuples", &self.fake_id_set.len())
            .finish_non_exhaustive()
    }
}

/// A non-QB ("naive partitioned") executor used as the insecure baseline in
/// tests, examples and attack demonstrations: each query is sent as-is to
/// both sides, which is exactly the leaky execution of Example 2.
pub struct NaivePartitionedExecutor<E: SecureSelectionEngine> {
    engine: E,
    attr_name: String,
    outsourced: bool,
}

impl<E: SecureSelectionEngine> NaivePartitionedExecutor<E> {
    /// Creates the naive executor for a searchable attribute.
    pub fn new(attr_name: impl Into<String>, engine: E) -> Self {
        NaivePartitionedExecutor {
            engine,
            attr_name: attr_name.into(),
            outsourced: false,
        }
    }

    /// Outsources both parts without any binning or padding.
    pub fn outsource(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        partitioned: &PartitionedRelation,
    ) -> Result<()> {
        let s_attr = partitioned.sensitive.schema().attr_id(&self.attr_name)?;
        cloud.upload_plaintext(partitioned.nonsensitive.clone(), &self.attr_name)?;
        self.engine
            .outsource(owner, cloud, &partitioned.sensitive, s_attr)?;
        self.outsourced = true;
        Ok(())
    }

    /// Runs a naive partitioned selection: the exact value goes to both
    /// sides in a single episode, the fine-grained episode of the pair
    /// ({v}, {v}).  The episode ends whether or not it succeeded.
    pub fn select(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut CloudServer,
        value: &Value,
    ) -> Result<Vec<Tuple>> {
        if !self.outsourced {
            return Err(PdsError::Query("deployment not outsourced yet".into()));
        }
        let request = BinEpisodeRequest {
            sensitive_values: vec![value.clone()],
            nonsensitive_values: vec![value.clone()],
            pushdown: None,
        };
        cloud.begin_query();
        let outcome = fine_grained_bin_episode(&mut self.engine, owner, cloud, &request);
        cloud.end_query();
        let BinEpisodeOutcome {
            nonsensitive,
            mut sensitive,
        } = outcome?;
        sensitive.extend(nonsensitive);
        Ok(sensitive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinningConfig;
    use pds_adversary::check_partitioned_security;
    use pds_cloud::NetworkModel;
    use pds_storage::Partitioner;
    use pds_systems::NonDetScanEngine;
    use pds_workload::{employee_relation, employee_sensitivity_policy};

    fn employee_parts() -> PartitionedRelation {
        let rel = employee_relation();
        let policy = employee_sensitivity_policy(&rel).unwrap();
        Partitioner::new(policy).split(&rel).unwrap()
    }

    fn qb_setup() -> (
        DbOwner,
        CloudServer,
        QbExecutor<NonDetScanEngine>,
        PartitionedRelation,
    ) {
        let parts = employee_parts();
        let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
        let mut executor = QbExecutor::new(binning, NonDetScanEngine::new());
        let mut owner = DbOwner::new(5);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        executor.outsource(&mut owner, &mut cloud, &parts).unwrap();
        (owner, cloud, executor, parts)
    }

    #[test]
    fn qb_answers_match_direct_execution() {
        let (mut owner, mut cloud, mut executor, parts) = qb_setup();
        let attr = parts.sensitive.schema().attr_id("EId").unwrap();
        // Ground truth: run the selection directly over the original parts.
        for eid in ["E259", "E101", "E199", "E152", "E254", "E159"] {
            let value = Value::from(eid);
            let expected: usize = parts
                .sensitive
                .tuples()
                .iter()
                .chain(parts.nonsensitive.tuples())
                .filter(|t| t.value(attr) == &value)
                .count();
            let got = executor.select(&mut owner, &mut cloud, &value).unwrap();
            assert_eq!(got.len(), expected, "answer size for {eid}");
            assert!(got.iter().all(|t| t.value(attr) == &value));
            assert!(got
                .iter()
                .all(|t| !executor.fake_tuple_ids().contains(&t.id)));
        }
    }

    #[test]
    fn unknown_value_returns_empty_without_touching_cloud() {
        let (mut owner, mut cloud, mut executor, _) = qb_setup();
        let before = cloud.adversarial_view().len();
        let got = executor
            .select(&mut owner, &mut cloud, &Value::from("E999"))
            .unwrap();
        assert!(got.is_empty());
        assert_eq!(
            cloud.adversarial_view().len(),
            before,
            "no episode recorded"
        );
    }

    #[test]
    fn qb_execution_satisfies_partitioned_security() {
        let (mut owner, mut cloud, mut executor, parts) = qb_setup();
        let attr = parts.sensitive.schema().attr_id("EId").unwrap();
        // Query every value on either side (the exhaustive workload).
        let mut all_values = parts.sensitive.distinct_values(attr);
        for v in parts.nonsensitive.distinct_values(attr) {
            if !all_values.contains(&v) {
                all_values.push(v);
            }
        }
        for v in &all_values {
            executor.select(&mut owner, &mut cloud, v).unwrap();
        }
        let report = check_partitioned_security(cloud.adversarial_view());
        assert!(report.is_secure(), "{report:?}");
    }

    #[test]
    fn naive_execution_violates_partitioned_security() {
        let parts = employee_parts();
        let mut naive = NaivePartitionedExecutor::new("EId", NonDetScanEngine::new());
        let mut owner = DbOwner::new(6);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        naive.outsource(&mut owner, &mut cloud, &parts).unwrap();
        for eid in ["E259", "E101", "E199"] {
            naive
                .select(&mut owner, &mut cloud, &Value::from(eid))
                .unwrap();
        }
        let report = check_partitioned_security(cloud.adversarial_view());
        assert!(
            !report.is_secure(),
            "naive partitioned execution must leak: {report:?}"
        );
    }

    #[test]
    fn sharded_deployment_answers_match_single_server() {
        use pds_cloud::ShardRouter;

        let parts = employee_parts();
        let attr = parts.sensitive.schema().attr_id("EId").unwrap();
        let mut all_values = parts.sensitive.distinct_values(attr);
        for v in parts.nonsensitive.distinct_values(attr) {
            if !all_values.contains(&v) {
                all_values.push(v);
            }
        }

        let (mut owner, mut cloud, mut single, _) = qb_setup();
        let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
        let mut sharded = QbExecutor::new(binning, NonDetScanEngine::new());
        let mut sharded_owner = DbOwner::new(5);
        let mut router = ShardRouter::new(3, NetworkModel::paper_wan(), 11).unwrap();
        sharded
            .outsource(&mut sharded_owner, &mut router, &parts)
            .unwrap();
        assert_eq!(sharded.shard_engines().len(), 3);
        // Sensitive data is sharded (no replication); plaintext is replicated.
        assert_eq!(router.encrypted_len(), cloud.encrypted_len());
        assert_eq!(router.plain_len(), cloud.plain_len());

        for v in &all_values {
            let mut expect: Vec<u64> = single
                .select(&mut owner, &mut cloud, v)
                .unwrap()
                .iter()
                .map(|t| t.id.raw())
                .collect();
            let mut got: Vec<u64> = sharded
                .select(&mut sharded_owner, &mut router, v)
                .unwrap()
                .iter()
                .map(|t| t.id.raw())
                .collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "answer for {v}");
        }

        // Each episode stayed on one shard, and all shards together saw the
        // whole workload.
        let episodes: usize = router
            .adversarial_views()
            .iter()
            .map(|view| view.len())
            .sum();
        assert_eq!(episodes, all_values.len());
        let report = check_partitioned_security(&router.composed_view());
        assert!(report.is_secure(), "{report:?}");
    }

    #[test]
    fn cached_selects_are_identical_and_skip_the_cloud() {
        let parts = employee_parts();
        let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
        let mut cached = QbExecutor::new(binning, NonDetScanEngine::new()).with_cache_capacity(16);
        let mut owner = DbOwner::new(5);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        cached.outsource(&mut owner, &mut cloud, &parts).unwrap();

        let value = [Value::from("E259")];
        let first = cached
            .run_workload_transported(&mut owner, &mut cloud, &value, &BinTransport::Sequential)
            .unwrap();
        assert_eq!(first.cache_misses, 1);
        let episodes_after_first = cloud.adversarial_view().len();
        let bytes_after_first = cloud.metrics().total_bytes();

        let second = cached
            .run_workload_transported(&mut owner, &mut cloud, &value, &BinTransport::Sequential)
            .unwrap();
        assert_eq!(second.cache_hits, 1, "{:?}", cached.cache_stats());
        assert_eq!(
            first.answers, second.answers,
            "cached answer is byte-identical"
        );
        assert_eq!(
            cloud.adversarial_view().len(),
            episodes_after_first,
            "a cache hit records no new episode"
        );
        assert_eq!(
            cloud.metrics().total_bytes(),
            bytes_after_first,
            "a cache hit moves no bytes"
        );
        let stats = cached.cache_stats();
        assert_eq!(stats.hits + stats.misses, stats.fetches());
        assert_eq!(stats.hits, 1);
        assert!(stats.misses >= 1);
    }

    #[test]
    fn exhaustive_warmup_makes_every_later_select_a_hit() {
        // After one pass over every value, every bin pair has been
        // co-observed and every bin is cached (capacity exceeds the bin
        // count), so a second pass must be served entirely owner-side.
        let (_, _, executor, parts) = qb_setup();
        let binning = executor.binning().clone();
        let attr = parts.sensitive.schema().attr_id("EId").unwrap();
        let mut values = parts.sensitive.distinct_values(attr);
        for v in parts.nonsensitive.distinct_values(attr) {
            if !values.contains(&v) {
                values.push(v);
            }
        }
        let mut exec = QbExecutor::new(binning, NonDetScanEngine::new()).with_cache_capacity(64);
        let mut owner = DbOwner::new(5);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        exec.outsource(&mut owner, &mut cloud, &parts).unwrap();
        for v in &values {
            exec.select(&mut owner, &mut cloud, v).unwrap();
        }
        // Every bin is now cached; re-querying anything is a pure hit.
        let misses_after_warmup = exec.cache_stats().misses;
        for v in &values {
            let run = exec
                .run_workload_transported(
                    &mut owner,
                    &mut cloud,
                    std::slice::from_ref(v),
                    &BinTransport::Sequential,
                )
                .unwrap();
            assert_eq!(run.cache_hits, 1, "warm cache serves {v}");
        }
        assert_eq!(exec.cache_stats().misses, misses_after_warmup);
    }

    #[test]
    fn insert_invalidation_drops_affected_bins() {
        let parts = employee_parts();
        let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
        let mut exec = QbExecutor::new(binning, NonDetScanEngine::new()).with_cache_capacity(16);
        let mut owner = DbOwner::new(5);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        exec.outsource(&mut owner, &mut cloud, &parts).unwrap();
        let value = Value::from("E259");
        exec.select(&mut owner, &mut cloud, &value).unwrap();
        assert!(!exec.cache().is_empty());

        // Non-sensitive insert of a known value: only its bin is dropped.
        let ns_value = exec
            .binning()
            .nonsensitive_bin(0)
            .first()
            .cloned()
            .expect("bin 0 has a value");
        let ns_bin = exec
            .binning()
            .nonsensitive_assignment(&ns_value)
            .unwrap()
            .bin;
        exec.select(&mut owner, &mut cloud, &ns_value).unwrap();
        assert!(exec
            .cache()
            .contains(pds_cloud::BinKey::nonsensitive(ns_bin)));
        exec.invalidate_cache_on_insert(&ns_value, false);
        assert!(!exec
            .cache()
            .contains(pds_cloud::BinKey::nonsensitive(ns_bin)));
        assert!(!exec.cache().is_empty(), "other bins survive");

        // Sensitive insert: conservative full clear (padding may touch any bin).
        exec.invalidate_cache_on_insert(&value, true);
        assert!(exec.cache().is_empty());

        // Unknown value: full clear as well.
        exec.select(&mut owner, &mut cloud, &value).unwrap();
        assert!(!exec.cache().is_empty());
        exec.invalidate_cache_on_insert(&Value::from("E000-new"), false);
        assert!(exec.cache().is_empty());
    }

    #[test]
    fn after_an_insert_a_batch_fetches_no_non_batch_pair_through_the_written_bin() {
        use pds_storage::{DataType, Schema};
        // Keys 0..16 sensitive, 16..48 clear-text: a grid of bins larger
        // than Employee's 2 × 2.
        let schema = Schema::from_pairs(&[("K", DataType::Int)]).unwrap();
        let mut relation = Relation::new("T", schema);
        for k in 0..48 {
            relation.insert(vec![Value::Int(k)]).unwrap();
        }
        let sensitive = Predicate::range(relation.schema(), "K", 0, 15).unwrap();
        let parts = Partitioner::row_level(sensitive).split(&relation).unwrap();
        let binning = QueryBinning::build(&parts, "K", BinningConfig::default()).unwrap();
        let mut exec = QbExecutor::new(binning, NonDetScanEngine::new());
        let mut owner = DbOwner::new(5);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        exec.outsource(&mut owner, &mut cloud, &parts).unwrap();
        let values = exec.binning().all_values().to_vec();
        exec.run_workload_transported(&mut owner, &mut cloud, &values, &BinTransport::Sequential)
            .unwrap();
        // Every pair the workload names is now co-observed.  Find values
        // asking for (a, 0), (b, k) and (c, k) with a < b < c and k > 0:
        // with every pair fresh, a cover of their bins in index order
        // fetches (b, 0) and (c, 0), pairs no query asks for.
        let mut by_pair: std::collections::BTreeMap<(usize, usize), Value> = Default::default();
        for v in &values {
            let p = exec.binning().retrieve(v).unwrap();
            by_pair
                .entry((p.sensitive_bin, p.nonsensitive_bin))
                .or_insert_with(|| v.clone());
        }
        let keys: Vec<(usize, usize)> = by_pair.keys().copied().collect();
        let triple = keys
            .iter()
            .filter(|&&(_, ns)| ns == 0)
            .flat_map(|&(a, _)| keys.iter().map(move |&b| (a, b)))
            .flat_map(|(a, (b, k))| keys.iter().map(move |&c| (a, b, c, k)))
            .find(|&(a, b, (c, kc), k)| k > 0 && kc == k && a < b && b < c)
            .expect("the grid has such a triple");
        let (a, b, (c, _), k) = triple;
        let batch_pairs = [(a, 0), (b, k), (c, k)];
        let batch: Vec<Value> = batch_pairs.iter().map(|p| by_pair[p].clone()).collect();

        // A non-sensitive insert into bin 0.
        let attr = parts.nonsensitive.schema().attr_id("K").unwrap();
        let template = parts
            .nonsensitive
            .tuples()
            .iter()
            .find(|t| {
                exec.binning()
                    .nonsensitive_assignment(t.value(attr))
                    .is_some_and(|assign| assign.bin == 0)
            })
            .unwrap();
        cloud
            .insert_plaintext(Tuple::new(TupleId::new(99_999), template.values.clone()))
            .unwrap();
        exec.invalidate_cache_on_insert(template.value(attr), false);

        let plan = exec.compile_workload(&cloud, &batch);
        let fetched: Vec<(usize, usize)> = plan
            .per_shard
            .iter()
            .flatten()
            .map(|step| (step.pair.sensitive_bin, step.pair.nonsensitive_bin))
            .collect();
        for pair in &fetched {
            assert!(
                pair.1 != 0 || batch_pairs.contains(pair),
                "{pair:?} runs through the written bin but no query asks for it: {fetched:?}"
            );
        }
        assert_eq!(
            fetched.len(),
            3,
            "(a, 0) as it stands, then a cover of b, c, k"
        );

        // A sensitive insert writes every bin: each batch pair is fetched
        // as it stands.
        exec.invalidate_cache_on_insert(&batch[0], true);
        let plan = exec.compile_workload(&cloud, &batch);
        let mut fetched: Vec<(usize, usize)> = plan
            .per_shard
            .iter()
            .flatten()
            .map(|step| (step.pair.sensitive_bin, step.pair.nonsensitive_bin))
            .collect();
        fetched.sort_unstable();
        let mut want = batch_pairs.to_vec();
        want.sort_unstable();
        assert_eq!(fetched, want);
    }

    #[test]
    fn transported_run_matches_sequential_selects() {
        use pds_cloud::{BinTransport, ShardRouter};

        let parts = employee_parts();
        let attr = parts.sensitive.schema().attr_id("EId").unwrap();
        let mut workload = parts.sensitive.distinct_values(attr);
        for v in parts.nonsensitive.distinct_values(attr) {
            if !workload.contains(&v) {
                workload.push(v);
            }
        }
        // Repeat the workload so the cache sees hits on the second pass.
        let doubled: Vec<Value> = workload.iter().chain(workload.iter()).cloned().collect();
        // Plus one value that exists nowhere (empty answer slot).
        let mut with_unknown = doubled.clone();
        with_unknown.push(Value::from("E999"));

        let (mut owner, mut cloud, mut sequential, _) = qb_setup();
        let expected: Vec<Vec<u64>> = with_unknown
            .iter()
            .map(|v| {
                let mut ids: Vec<u64> = sequential
                    .select(&mut owner, &mut cloud, v)
                    .unwrap()
                    .iter()
                    .map(|t| t.id.raw())
                    .collect();
                ids.sort_unstable();
                ids
            })
            .collect();

        for transport in [BinTransport::Sequential, BinTransport::Threaded] {
            let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
            let mut exec =
                QbExecutor::new(binning, NonDetScanEngine::new()).with_cache_capacity(32);
            let mut t_owner = DbOwner::new(5);
            let mut router = ShardRouter::new(3, NetworkModel::paper_wan(), 11).unwrap();
            exec.outsource(&mut t_owner, &mut router, &parts).unwrap();
            let rounds_before = router.metrics().round_trips;
            let run = exec
                .run_workload_transported(&mut t_owner, &mut router, &with_unknown, &transport)
                .unwrap();
            assert_eq!(
                run.rounds,
                router.metrics().round_trips - rounds_before,
                "{transport:?}: the batch's rounds are the cloud's"
            );
            assert_eq!(run.answers.len(), with_unknown.len());
            let got: Vec<Vec<u64>> = run
                .answers
                .iter()
                .map(|ts| {
                    let mut ids: Vec<u64> = ts.iter().map(|t| t.id.raw()).collect();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            assert_eq!(got, expected, "{transport:?}");
            assert!(run.wall_clock_sec > 0.0);
            // The doubled workload repeats every pair within the one batch:
            // repeats wait for the first occurrence's fetch and count as
            // hits, so at least half the batch is served owner-side — and a
            // second batch must then hit fully.
            assert_eq!(run.cache_hits + run.cache_misses, with_unknown.len() - 1);
            assert!(
                run.cache_hits >= workload.len(),
                "{transport:?}: in-batch repeats must hit ({} hits)",
                run.cache_hits
            );
            let rounds_before = router.metrics().round_trips;
            let rerun = exec
                .run_workload_transported(&mut t_owner, &mut router, &workload, &transport)
                .unwrap();
            assert_eq!(rerun.rounds, 0, "warm cache: {transport:?}");
            assert_eq!(router.metrics().round_trips, rounds_before);
            assert_eq!(rerun.cache_misses, 0, "warm cache: {transport:?}");
            assert_eq!(rerun.cache_hits, workload.len());
            // Security still holds on every shard and composed.
            let report =
                pds_adversary::check_sharded_partitioned_security(&router.adversarial_views());
            assert!(report.is_secure(), "{transport:?}: {report:?}");
        }
    }

    #[test]
    fn select_before_outsource_errors() {
        let parts = employee_parts();
        let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
        let mut executor = QbExecutor::new(binning, NonDetScanEngine::new());
        let mut owner = DbOwner::new(5);
        let mut cloud = CloudServer::default();
        assert!(executor
            .select(&mut owner, &mut cloud, &Value::from("E259"))
            .is_err());
        let mut naive = NaivePartitionedExecutor::new("EId", NonDetScanEngine::new());
        assert!(naive
            .select(&mut owner, &mut cloud, &Value::from("E259"))
            .is_err());
    }

    #[test]
    fn debug_renders_engine_name() {
        let (_, _, executor, _) = qb_setup();
        assert!(format!("{executor:?}").contains("nondet-scan"));
    }
}
