//! End-to-end partitioned query execution with Query Binning.
//!
//! [`QbExecutor`] glues everything together:
//!
//! 1. **Outsourcing** — the non-sensitive part `Rns` is uploaded in
//!    clear-text; the sensitive part `Rs` is augmented with the fake tuples
//!    the general case requires (so every sensitive bin answers with the
//!    same number of tuples) and handed to the configured
//!    [`SecureSelectionEngine`] for encryption/upload.
//! 2. **Planning** — a batch of queries is compiled into a
//!    [`crate::plan::QueryPlan`]: Algorithm 2 rewrites each value into one
//!    bin pair, the owner-side hot-bin cache serves what it can, and the
//!    remaining episodes are grouped by the shard hosting their sensitive
//!    bin, each marked composed (the clear-text bin rides the sensitive
//!    side's last exchange) or fine-grained according to the plan mode.
//! 3. **Execution** — the planned episodes fan out per shard through one
//!    [`BinTransport::dispatch`], one task per shard with work holding
//!    that shard's engine, its steps and a fresh owner fork.  Every
//!    episode runs as one adversarial-view episode on its shard: in
//!    process on the shard's [`CloudServer`]
//!    ([`crate::plan::execute_episode`]), or over TCP through
//!    [`crate::plan::execute_shard_pipelined`]'s correlated window.  A
//!    batch's rounds are the sum of its episodes' measured rounds on every
//!    transport.  The owner decrypts, drops fake tuples and false
//!    positives, and merges the two result streams (`qmerge` of §II).
//!
//! All entry points — [`QbExecutor::select`], [`QbExecutor::fetch_bin_pair`]
//! and [`QbExecutor::run_workload_transported`] — run one batch of bin
//! pairs through this one plan→execute code path (a point query is a batch
//! of one over [`BinTransport::Sequential`]), so cache bookkeeping,
//! co-observation tracking and security-view recording behave identically
//! however a query arrives.

use std::collections::HashSet;

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
use crate::planner::{reorder_for_locality, PlannerConfig};

/// Default in-flight window per shard connection over
/// [`BinTransport::Tcp`]: deep enough to keep a multi-worker daemon busy,
/// small enough that a torn connection never has more than a handful of
/// idempotent episodes to replay.
pub const DEFAULT_PIPELINE_WINDOW: usize = 8;

/// Executed episodes: each one's workload slot, bin pair and result.
type Episodes = Vec<(usize, BinPair, EpisodeResult)>;

/// A batch's raw result streams before `qmerge`: each retrieved slot with
/// its non-sensitive and its sensitive stream.
type Streams = Vec<(usize, Vec<Tuple>, Vec<Tuple>)>;

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
    fake_tuple_ids: Vec<TupleId>,
    /// The same ids as a set, built once at outsourcing time so the
    /// per-query merge never rebuilds it (`qmerge` is on the hot path).
    fake_id_set: HashSet<TupleId>,
    /// Owner-side hot-bin cache over already-retrieved, already-decrypted
    /// bins.  Capacity 0 (the default) disables it entirely.
    cache: BinCache,
    /// The tenant this executor acts for in a multi-tenant deployment.
    /// Namespaces the hot-bin cache keys and must match the tenant a
    /// [`BinTransport::Tcp`] client authenticates as.
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
            fake_tuple_ids: Vec::new(),
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

    /// Sets the tenant this executor acts for.  Cache keys are namespaced
    /// by tenant, and [`QbExecutor::run_workload_transported`] over
    /// [`BinTransport::Tcp`] refuses a client authenticated as a
    /// *different* tenant — the daemon would silently serve the other
    /// tenant's bins otherwise.
    pub fn set_tenant(&mut self, tenant: u64) {
        self.tenant = tenant;
        self.cache.set_tenant(tenant);
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
    /// `capacity` bins (entries and counters are reset).
    pub fn set_cache_capacity(&mut self, capacity: usize) {
        self.cache = BinCache::new(capacity);
        self.cache.set_tenant(self.tenant);
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
    pub fn fake_tuple_ids(&self) -> &[TupleId] {
        &self.fake_tuple_ids
    }

    /// The searchable attribute's position in the partitioned schemas
    /// (available once outsourced).
    pub fn searchable_attr(&self) -> Option<AttrId> {
        self.sensitive_attr
    }

    /// Outsources the partitioned relation: `Rns` in clear-text (replicated
    /// to every shard), `Rs` (augmented with fake tuples) through one forked
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
        self.cache.set_tenant(self.tenant);

        // Sensitive side: clone, append fake tuples per bin, then move the
        // tuples into one sub-relation per shard (a sensitive bin lives on
        // one shard).
        let augmented = self.augment_with_fakes(&partitioned.sensitive, s_attr)?;
        owner.pad_tuples_to_widest(&augmented);
        let per_shard = self.split_by_shard(cloud, augmented, s_attr)?;
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

    /// Moves the augmented sensitive relation's tuples into one
    /// sub-relation per shard, following the cloud's bin routing.
    fn split_by_shard<C: BinRoutedCloud>(
        &self,
        cloud: &C,
        augmented: Relation,
        attr: AttrId,
    ) -> Result<Vec<Relation>> {
        let mut per_shard: Vec<Relation> = (0..cloud.shard_count())
            .map(|s| {
                Relation::new(
                    format!("{}@shard{s}", augmented.name()),
                    augmented.schema().clone(),
                )
            })
            .collect();
        for t in augmented.into_tuples() {
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

    /// Builds the augmented sensitive relation containing the fake tuples
    /// the general case prescribes (each fake carries a value of its bin so
    /// the cloud returns it whenever that bin is queried).
    ///
    /// Every non-searchable attribute of a fake tuple is `NULL`.  The owner
    /// pads every tuple plaintext to the widest tuple of the augmented
    /// relation before encrypting it ([`DbOwner::pad_tuples_to_widest`]),
    /// so to the cloud a fake is indistinguishable from a real row, even by
    /// ciphertext length.  The owner recognises fakes by their tuple ids
    /// (tracked in [`QbExecutor::fake_tuple_ids`]).
    fn augment_with_fakes(&mut self, sensitive: &Relation, attr: AttrId) -> Result<Relation> {
        let mut augmented = sensitive.clone();
        let arity = sensitive.schema().arity();
        let mut next_id = sensitive
            .tuples()
            .iter()
            .map(|t| t.id.raw())
            .max()
            .map_or(1_000_000, |m| m + 1_000_000);
        self.fake_tuple_ids.clear();
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
                augmented.insert_with_id(id, values)?;
                self.fake_tuple_ids.push(id);
                self.fake_id_set.insert(id);
            }
        }
        Ok(augmented)
    }

    /// Compiles the episode step retrieving one bin pair: routed to the
    /// shard hosting the sensitive bin, composed iff the plan mode is
    /// [`PlanMode::Composed`].
    // pds-allow: plaintext-egress(BinEpisodeRequest is the owner-side episode description, not a wire frame: sensitive_values leave only as pds_crypto search tags or located addresses when the engine builds the episode's FetchBinRequest, and set_planner rejects residuals mentioning sensitive or searchable attributes before wire_residual will release one)
    fn compile_step<C: BinRoutedCloud>(
        &self,
        cloud: &C,
        index: usize,
        pair: BinPair,
    ) -> EpisodeStep {
        EpisodeStep {
            index,
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

    /// Fetches (or serves from cache) the raw result streams of one bin
    /// pair, executing a single-step plan on a miss: how an in-batch waiter
    /// resolves once the batch's fan-out has populated the cache.  A
    /// **hit** requires both bins cached *and* the pair previously
    /// co-observed by the cloud — anything weaker distorts the cloud's view
    /// (lone-bin episodes break count indistinguishability; serving a
    /// never-co-observed pair erases a co-occurrence edge); see
    /// `pds_cloud::cache`.  On a miss the
    /// fetched bins are cached individually, so a pair sharing one bin with
    /// this one reuses its contents once that pair has been observed once
    /// itself.  The miss episode runs as a one-step plan through
    /// [`QbExecutor::run_steps`], so it takes the same fan-out as a batch
    /// on every transport: over [`BinTransport::Tcp`] it travels to the
    /// daemon hosting the sensitive bin, with the local `cloud` consulted
    /// only for routing.  Returns `(nonsensitive, sensitive, cached,
    /// rounds)`.
    fn retrieve_pair<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        transport: &BinTransport,
        pair: BinPair,
    ) -> Result<(Vec<Tuple>, Vec<Tuple>, bool, u64)> {
        if let Some((s_tuples, ns_tuples)) = self
            .cache
            .get_pair(pair.sensitive_bin, pair.nonsensitive_bin)
        {
            owner.note_bin_cache(true);
            return Ok((ns_tuples, s_tuples, true, 0));
        }
        owner.note_bin_cache(false);
        let step = self.compile_step(cloud, 0, pair);
        let mut per_shard = vec![Vec::new(); cloud.shard_count()];
        per_shard[step.shard].push(step);
        let (mut episodes, _) = self.run_steps(owner, cloud, transport, per_shard)?;
        let (_, _, result) = episodes
            .pop()
            .ok_or_else(|| PdsError::Query("a one-step plan returned no episode".into()))?;
        Ok((
            result.outcome.nonsensitive,
            result.outcome.sensitive,
            false,
            result.rounds,
        ))
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

    /// Retrieves one bin pair exactly as a point query would (same plan,
    /// same adversarial view, same costs) and returns *all* real tuples of
    /// both bins without filtering to a particular value.  The range,
    /// aggregate and join extensions build on this.
    pub fn fetch_bin_pair<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        pair: BinPair,
    ) -> Result<Vec<Tuple>> {
        let (streams, _) =
            self.run_pairs(owner, cloud, &[Some(pair)], &BinTransport::Sequential)?;
        let residual = self.planner.residual.as_ref();
        let keep = |t: &Tuple| residual.map_or(true, |p| p.matches(t));
        let mut out: Vec<Tuple> = Vec::new();
        for (_, ns, s) in streams {
            out.extend(
                s.into_iter()
                    .filter(|t| !self.fake_id_set.contains(&t.id) && keep(t)),
            );
            out.extend(ns.into_iter().filter(|t| keep(t)));
        }
        Ok(out)
    }

    /// Invalidates the hot-bin cache for a planned insert of `value` on the
    /// given side (see `pds_core::extensions::InsertPlanner`): cached bin
    /// snapshots would otherwise serve stale contents after the insert.
    ///
    /// A sensitive-side insert conservatively drops *every* cached bin —
    /// the general case may add padding fakes to any sensitive bin to keep
    /// tuple counts balanced.  A non-sensitive insert of a known value only
    /// drops that value's clear-text bin; an unknown value (which forces a
    /// slot assignment or a rebuild) also clears everything.
    pub fn invalidate_cache_on_insert(&mut self, value: &Value, sensitive: bool) {
        if sensitive {
            self.cache.clear();
            return;
        }
        match self.binning.nonsensitive_assignment(value) {
            Some(assign) => {
                self.cache
                    .invalidate(BinKey::nonsensitive(assign.bin).for_tenant(self.tenant));
            }
            None => self.cache.clear(),
        }
    }

    /// Runs a whole workload of point queries, returning the per-query
    /// answer sizes (used by experiments that only need cardinalities).
    pub fn run_workload<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        values: &[Value],
    ) -> Result<Vec<usize>> {
        values
            .iter()
            .map(|v| self.select(owner, cloud, v).map(|ts| ts.len()))
            .collect()
    }

    /// Runs a batch of point queries with the bin fetches of different
    /// shards dispatched through `transport` — with
    /// [`BinTransport::Threaded`], the shards' episode streams run at once
    /// (the last on the calling thread, each other one on an OS thread of
    /// its own), so [`TransportedRun::wall_clock_sec`] is a *measured*
    /// parallel wall-clock rather than the router's max-over-shards model.
    ///
    /// Answers are byte-identical to running [`QbExecutor::select`] per
    /// value: queries are grouped by home shard (episode order within a
    /// shard is preserved), hot-bin cache hits are answered owner-side
    /// before the fan-out — repeat occurrences of a pair within the batch
    /// wait for the first occurrence's fetch and hit afterwards, just as
    /// they would sequentially — and every per-shard engine/owner fork's
    /// counters are folded back afterwards.
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
        let (s_attr, ns_attr) = self.searchable_attrs()?;
        let pairs: Vec<Option<BinPair>> = values.iter().map(|v| self.binning.retrieve(v)).collect();
        let (streams, mut run) = self.run_pairs(owner, cloud, &pairs, transport)?;
        for (idx, ns_tuples, s_tuples) in streams {
            run.answers[idx] = merge_point_answer(
                &self.fake_id_set,
                s_attr,
                ns_attr,
                &values[idx],
                self.planner.residual.as_ref(),
                ns_tuples,
                s_tuples,
            );
        }
        Ok(run)
    }

    /// The pair-level batch behind both merges: retrieves `pairs` (one
    /// answer slot each; `None` for a value that occurs nowhere, which
    /// needs nothing retrieved — Algorithm 2's final case) through
    /// `transport` and returns every retrieved slot's raw streams, with
    /// the batch's counters in a [`TransportedRun`] whose answers the
    /// caller's merge fills in.
    ///
    /// It checks a TCP client against the deployment, compiles the plan —
    /// cache hits are captured owner-side right away, misses become
    /// episode steps grouped by the shard hosting their sensitive bin —
    /// runs the steps through [`QbExecutor::run_steps`], then resolves the
    /// waiters.  With caching enabled, repeat occurrences of a pair already
    /// pending in this batch are deferred as waiters instead of fetched
    /// again, matching one-at-a-time retrieval, where every occurrence
    /// after the first is a hit.
    fn run_pairs<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &mut C,
        pairs: &[Option<BinPair>],
        transport: &BinTransport,
    ) -> Result<(Streams, TransportedRun)> {
        if !self.outsourced {
            return Err(PdsError::Query("deployment not outsourced yet".into()));
        }
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
                    "TCP client authenticates as tenant {} but this executor is \
                     namespaced to tenant {}",
                    client.tenant(),
                    self.tenant
                )));
            }
        }

        let plan = self.plan_workload(owner, cloud, pairs);
        let mut cache_hits = plan.cache_served.len();
        let mut cache_misses = plan.step_count();
        let mut streams: Streams = plan
            .cache_served
            .into_iter()
            .map(|served| (served.index, served.nonsensitive, served.sensitive))
            .collect();
        let (episodes, wall_clock_sec) = self.run_steps(owner, cloud, transport, plan.per_shard)?;
        let mut rounds: u64 = episodes.iter().map(|(_, _, res)| res.rounds).sum();
        for (idx, _, res) in episodes {
            streams.push((idx, res.outcome.nonsensitive, res.outcome.sensitive));
        }

        // Waiters look the cache up now that the fan-out has populated it.
        // A waiter can still miss when a later store in the same batch
        // evicted its bins (tiny capacities); it then fetches on its own.
        for (idx, pair) in plan.waiters {
            let (ns_tuples, s_tuples, cached, waiter_rounds) =
                self.retrieve_pair(owner, cloud, transport, pair)?;
            if cached {
                cache_hits += 1;
            } else {
                cache_misses += 1;
                rounds += waiter_rounds;
            }
            streams.push((idx, ns_tuples, s_tuples));
        }
        let run = TransportedRun {
            answers: vec![Vec::new(); pairs.len()],
            wall_clock_sec,
            cache_hits,
            cache_misses,
            rounds,
        };
        Ok((streams, run))
    }

    /// Runs planned episode steps, grouped by home shard, through
    /// `transport`'s one fan-out ([`BinTransport::dispatch`]).  Returns
    /// every episode's workload slot, bin pair and result — shard by shard,
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
    /// failed shard's work is still accounted for.  Each fetched pair is
    /// then stored in the hot-bin cache, when it is enabled.
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
                                    .map(|result| (step.index, step.pair, result))
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
        if self.cache.capacity() > 0 {
            for (_, pair, result) in &episodes {
                self.cache.store_pair(
                    pair.sensitive_bin,
                    result.outcome.sensitive.clone(),
                    pair.nonsensitive_bin,
                    result.outcome.nonsensitive.clone(),
                );
            }
        }
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
    /// (`format!("{plan:?}")`).  Cache lookups are performed (and counted)
    /// exactly as the executing path would, but nothing is fetched and the
    /// cache is never populated.
    pub fn compile_workload<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &C,
        values: &[Value],
    ) -> QueryPlan {
        let pairs: Vec<Option<BinPair>> = values.iter().map(|v| self.binning.retrieve(v)).collect();
        self.plan_workload(owner, cloud, &pairs)
    }

    /// Compiles one batch of bin pairs (one per answer slot; `None` slots
    /// need nothing) into a [`QueryPlan`]: serves what the owner-side cache
    /// can, defers in-batch repeats as waiters, and groups the remaining
    /// episodes by home shard in the plan mode's composed or fine-grained
    /// shape.
    fn plan_workload<C: BinRoutedCloud>(
        &mut self,
        owner: &mut DbOwner,
        cloud: &C,
        pairs: &[Option<BinPair>],
    ) -> QueryPlan {
        let _span = pds_obs::obs_span("plan.compile");
        let mut plan = QueryPlan::new(cloud.shard_count());
        let mut pending_pairs: HashSet<(usize, usize)> = HashSet::new();
        for (idx, &pair) in pairs.iter().enumerate() {
            let Some(pair) = pair else {
                continue;
            };
            let pair_key = (pair.sensitive_bin, pair.nonsensitive_bin);
            if self.cache.capacity() > 0 && pending_pairs.contains(&pair_key) {
                plan.waiters.push((idx, pair));
                continue;
            }
            if let Some((s_tuples, ns_tuples)) = self
                .cache
                .get_pair(pair.sensitive_bin, pair.nonsensitive_bin)
            {
                owner.note_bin_cache(true);
                plan.cache_served.push(CacheServed {
                    index: idx,
                    pair,
                    nonsensitive: ns_tuples,
                    sensitive: s_tuples,
                });
                continue;
            }
            owner.note_bin_cache(false);
            pending_pairs.insert(pair_key);
            let step = self.compile_step(cloud, idx, pair);
            plan.per_shard[step.shard].push(step);
        }
        // The optimizer pass: per-shard episodes settle into deterministic
        // bin-major order (results are keyed by `EpisodeStep::index`, so
        // answer alignment is order-independent).
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
    /// Queries answered from the owner-side hot-bin cache.
    pub cache_hits: usize,
    /// Queries that fetched their bin pair from a shard.
    pub cache_misses: usize,
    /// Total owner↔cloud rounds over every episode of the batch, measured
    /// as each episode's shard's `round_trips` delta (over TCP, one per
    /// episode).  Cache hits contribute none.  A composed episode takes 1
    /// round on det-index, arx and the enclave/MPC simulators and 2 on
    /// nondet-scan, secret sharing and DPF; a fine-grained one takes one
    /// more.
    pub rounds: u64,
}

/// `qmerge` of §II for a point query: drop fakes (by id), keep only
/// tuples matching the queried value — and the residual
/// predicate, when one is in force — then concatenate both streams.
///
/// The residual is applied owner-side *unconditionally*: on the sensitive
/// stream the cloud can never evaluate it (the tuples are encrypted), and
/// on the non-sensitive stream re-applying what pushdown already filtered
/// is idempotent — which is exactly what makes answers byte-identical
/// whether the residual rode the wire or not.
fn merge_point_answer(
    fake_ids: &HashSet<TupleId>,
    s_attr: AttrId,
    ns_attr: AttrId,
    value: &Value,
    residual: Option<&Predicate>,
    ns_tuples: Vec<Tuple>,
    s_tuples: Vec<Tuple>,
) -> Vec<Tuple> {
    let keep = |t: &Tuple| residual.map_or(true, |p| p.matches(t));
    let mut answer: Vec<Tuple> = Vec::new();
    for t in s_tuples {
        if !fake_ids.contains(&t.id) && t.value(s_attr) == value && keep(&t) {
            answer.push(t);
        }
    }
    for t in ns_tuples {
        if t.value(ns_attr) == value && keep(&t) {
            answer.push(t);
        }
    }
    answer
}

impl<E: SecureSelectionEngine> std::fmt::Debug for QbExecutor<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QbExecutor")
            .field("engine", &self.engine.name())
            .field("outsourced", &self.outsourced)
            .field("fake_tuples", &self.fake_tuple_ids.len())
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
        assert_eq!(owner.metrics().bin_cache_hits, 1);
        assert!(owner.metrics().bin_cache_misses >= 1);
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
    fn run_workload_returns_answer_sizes() {
        let (mut owner, mut cloud, mut executor, _) = qb_setup();
        let sizes = executor
            .run_workload(
                &mut owner,
                &mut cloud,
                &[
                    Value::from("E259"),
                    Value::from("E199"),
                    Value::from("nope"),
                ],
            )
            .unwrap();
        assert_eq!(sizes, vec![2, 1, 0]);
    }

    #[test]
    fn debug_renders_engine_name() {
        let (_, _, executor, _) = qb_setup();
        assert!(format!("{executor:?}").contains("nondet-scan"));
    }
}
