//! Shared experiment machinery: deployments, workloads, cost accounting,
//! byte-level answers, and the tenants that the `service` and `pipeline`
//! experiments move onto loopback shard daemons.

use pds_cloud::{
    BinRoutedCloud, BinTransport, CloudServer, DbOwner, Metrics, NetworkModel, ServiceConfig,
    ShardDaemon, ShardRouter,
};
use pds_common::{PdsError, Result, Value};
use pds_core::{BinningConfig, QbExecutor, QueryBinning};
use pds_storage::{PartitionedRelation, Partitioner, Relation, Tuple};
use pds_systems::{DeterministicIndexEngine, SecureSelectionEngine};
use pds_workload::{
    employee_relation, employee_sensitivity_policy, QueryWorkload, SensitivityAssigner, TpchConfig,
    TpchGenerator,
};

/// The searchable attribute every TPC-H-style experiment uses.
pub const SEARCH_ATTR: &str = "L_PARTKEY";

/// Cost of a query (or a batch of queries), split by origin.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostBreakdown {
    /// Simulated computation seconds (crypto + plaintext + owner work).
    pub computation_sec: f64,
    /// Simulated communication seconds (bytes over the network model).
    pub communication_sec: f64,
    /// Number of queries the cost covers.
    pub queries: usize,
}

impl CostBreakdown {
    /// Total simulated seconds.
    pub fn total_sec(&self) -> f64 {
        self.computation_sec + self.communication_sec
    }

    /// Average simulated seconds per query.
    pub fn per_query_sec(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.total_sec() / self.queries as f64
        }
    }
}

/// Combines the cloud's and the owner's work counters into one object.
pub fn combined_metrics(cloud: &CloudServer, owner: &DbOwner) -> Metrics {
    let mut m = *cloud.metrics();
    m.absorb(owner.metrics());
    m
}

/// Generates the standard experiment relation: a pseudo-TPC-H LINEITEM.
pub fn lineitem(tuples: usize, seed: u64) -> Relation {
    TpchGenerator::new(TpchConfig {
        lineitem_tuples: tuples,
        distinct_partkeys: (tuples / 8).max(16),
        distinct_suppkeys: (tuples / 150).max(4),
        skew: 0.0,
        seed,
    })
    .lineitem()
}

/// Splits a relation at sensitivity ratio `alpha` over [`SEARCH_ATTR`].
pub fn partition_at_alpha(
    relation: &Relation,
    alpha: f64,
    seed: u64,
) -> Result<PartitionedRelation> {
    let attr = relation.schema().attr_id(SEARCH_ATTR)?;
    let policy = SensitivityAssigner::new(seed).by_value_fraction(relation, attr, alpha)?;
    Partitioner::new(policy).split(relation)
}

/// A fully wired QB deployment ready to answer queries.
pub struct QbDeployment<E: SecureSelectionEngine> {
    /// The trusted owner.
    pub owner: DbOwner,
    /// The untrusted cloud.
    pub cloud: CloudServer,
    /// The QB executor.
    pub executor: QbExecutor<E>,
    /// The partitioned relation it serves.
    pub parts: PartitionedRelation,
}

/// Builds and outsources a QB deployment over `relation` at sensitivity
/// `alpha` using the given back-end engine.
pub fn qb_deployment<E: SecureSelectionEngine>(
    relation: &Relation,
    alpha: f64,
    engine: E,
    network: NetworkModel,
    seed: u64,
) -> Result<QbDeployment<E>> {
    let parts = partition_at_alpha(relation, alpha, seed)?;
    let binning = QueryBinning::build(&parts, SEARCH_ATTR, BinningConfig::default())?;
    let mut executor = QbExecutor::new(binning, engine);
    let mut owner = DbOwner::new(seed.wrapping_add(7));
    let mut cloud = CloudServer::new(network);
    executor.outsource(&mut owner, &mut cloud, &parts)?;
    // Outsourcing costs are not part of per-query measurements.
    cloud.reset_metrics();
    owner.reset_metrics();
    Ok(QbDeployment {
        owner,
        cloud,
        executor,
        parts,
    })
}

impl<E: SecureSelectionEngine> QbDeployment<E> {
    /// Runs a workload of point queries and returns its cost under the
    /// engine's cost profile.
    pub fn run_and_cost(&mut self, queries: &[Value]) -> Result<CostBreakdown> {
        let before_metrics = combined_metrics(&self.cloud, &self.owner);
        let before_comm = self.cloud.comm_time();
        for q in queries {
            self.executor.select(&mut self.owner, &mut self.cloud, q)?;
        }
        let delta = combined_metrics(&self.cloud, &self.owner).delta_since(&before_metrics);
        let profile = self.executor.engine().cost_profile();
        Ok(CostBreakdown {
            computation_sec: pds_systems::cost::computation_time_for_queries(
                &delta,
                &profile,
                queries.len() as u64,
            ),
            communication_sec: self.cloud.comm_time() - before_comm,
            queries: queries.len(),
        })
    }

    /// A uniform workload over the distinct values of the search attribute
    /// (the union of both sides' values).
    pub fn workload(&self, seed: u64) -> Result<QueryWorkload> {
        workload_over(&self.parts, seed)
    }
}

/// Cost of a workload over a sharded deployment: the aggregate (sum over
/// shards, as if one machine did everything) plus the parallel wall-clock
/// estimate (shards are independent machines; the workload finishes when the
/// busiest shard does).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ShardedCostBreakdown {
    /// Total cost summed over every shard and the owner.
    pub aggregate: CostBreakdown,
    /// Max-over-shards simulated seconds (per-shard computation from that
    /// shard's counters plus that shard's communication time) — the
    /// *modelled* parallel wall-clock.
    pub parallel_sec: f64,
    /// *Measured* wall-clock seconds of the shard fan-out — real elapsed
    /// time of the dispatched bin fetches (threaded: genuinely overlapped
    /// OS threads; sequential: one shard after another).
    pub measured_wall_sec: f64,
    /// Simulated-network wall-clock of the workload's wire traffic: the
    /// largest per-shard growth of [`CloudServer::comm_time`] over the run.
    /// Each shard is its own link, so shards overlap and the workload's
    /// network time is its busiest shard's.
    pub sim_wall_sec: f64,
    /// Queries answered from the owner-side hot-bin cache (0 unless the
    /// deployment enabled one).
    pub cache_hits: usize,
    /// Owner↔cloud rounds over every episode of the workload (what the
    /// paper's cost model charges as `rounds × latency`): one per composed
    /// episode of a back-end whose tokens the cloud resolves, two per
    /// composed episode of one that locates its rows by address first.
    pub rounds: u64,
    /// Number of shards the workload ran over.
    pub shards: usize,
}

/// A fully wired sharded QB deployment ready to answer queries.
///
/// Deliberately a sibling of [`QbDeployment`] rather than a generalisation:
/// construction is shared (`partition_at_alpha`, `workload_over`), but the
/// cost accounting differs in kind — per-shard metric deltas and a
/// max-over-shards parallel estimate instead of one server's counters.
pub struct ShardedQbDeployment<E: SecureSelectionEngine> {
    /// The trusted owner.
    pub owner: DbOwner,
    /// The untrusted shards behind their bin router.
    pub router: ShardRouter,
    /// The QB executor (one forked engine per shard).
    pub executor: QbExecutor<E>,
    /// The partitioned relation it serves.
    pub parts: PartitionedRelation,
}

/// Builds and outsources a QB deployment over `relation` at sensitivity
/// `alpha`, sharded over `shards` cloud servers.
pub fn sharded_qb_deployment<E: SecureSelectionEngine>(
    relation: &Relation,
    alpha: f64,
    shards: usize,
    engine: E,
    network: NetworkModel,
    seed: u64,
) -> Result<ShardedQbDeployment<E>> {
    let parts = partition_at_alpha(relation, alpha, seed)?;
    let binning = QueryBinning::build(&parts, SEARCH_ATTR, BinningConfig::default())?;
    let mut executor = QbExecutor::new(binning, engine);
    let mut owner = DbOwner::new(seed.wrapping_add(7));
    let mut router = ShardRouter::new(shards, network, seed)?;
    executor.outsource(&mut owner, &mut router, &parts)?;
    // Outsourcing costs are not part of per-query measurements.
    router.reset_metrics();
    owner.reset_metrics();
    Ok(ShardedQbDeployment {
        owner,
        router,
        executor,
        parts,
    })
}

/// Builds and outsources a **heterogeneous** sharded QB deployment: one
/// explicit boxed engine per shard (shard count = `engines.len()`), so
/// different secure back-ends serve different shards of the same
/// deployment.  Each shard's episodes run through its own engine and
/// each ends in one `FetchBinRequest`: alone on the one-round back-ends
/// (values and tags), after their locating round on back-ends that locate
/// rows by address (values and ids), side by side in one workload.
pub fn hetero_qb_deployment(
    relation: &Relation,
    alpha: f64,
    engines: Vec<Box<dyn SecureSelectionEngine>>,
    network: NetworkModel,
    seed: u64,
) -> Result<ShardedQbDeployment<Box<dyn SecureSelectionEngine>>> {
    let parts = partition_at_alpha(relation, alpha, seed)?;
    hetero_qb_deployment_over(parts, SEARCH_ATTR, engines, network, seed)
}

/// The general form of [`hetero_qb_deployment`]: an explicit boxed engine
/// per shard over an **already-partitioned** relation and an explicit
/// searchable attribute, so experiments can deploy schemas beyond the
/// TPC-H default (the planner experiment runs the paper's Employee
/// relation through it).
pub fn hetero_qb_deployment_over(
    parts: PartitionedRelation,
    attr: &str,
    engines: Vec<Box<dyn SecureSelectionEngine>>,
    network: NetworkModel,
    seed: u64,
) -> Result<ShardedQbDeployment<Box<dyn SecureSelectionEngine>>> {
    let prototype = engines
        .first()
        .ok_or_else(|| pds_common::PdsError::Config("at least one engine required".into()))?
        .fork();
    let shards = engines.len();
    let binning = QueryBinning::build(&parts, attr, BinningConfig::default())?;
    let mut executor = QbExecutor::new(binning, prototype);
    let mut owner = DbOwner::new(seed.wrapping_add(7));
    let mut router = ShardRouter::new(shards, network, seed)?;
    executor.outsource_with_engines(&mut owner, &mut router, &parts, engines)?;
    // Outsourcing costs are not part of per-query measurements.
    router.reset_metrics();
    owner.reset_metrics();
    Ok(ShardedQbDeployment {
        owner,
        router,
        executor,
        parts,
    })
}

impl<E: SecureSelectionEngine> ShardedQbDeployment<E> {
    /// Runs a workload of point queries sequentially and returns its
    /// aggregate cost plus the max-over-shards parallel estimate.
    pub fn run_and_cost(&mut self, queries: &[Value]) -> Result<ShardedCostBreakdown> {
        self.run_and_cost_with(queries, BinTransport::Sequential)
    }

    /// Runs a workload with the per-shard bin fetches dispatched through
    /// `transport` and returns the modelled costs **plus the measured
    /// wall-clock** of the fan-out ([`BinTransport::Threaded`] overlaps the
    /// shards on real OS threads, so `measured_wall_sec` is an observation,
    /// not an estimate).  The modelled numbers are identical to
    /// [`ShardedQbDeployment::run_and_cost`] — same episodes, same
    /// counters — whatever the transport.
    pub fn run_and_cost_with(
        &mut self,
        queries: &[Value],
        transport: BinTransport,
    ) -> Result<ShardedCostBreakdown> {
        Ok(self.run_and_cost_answers(queries, transport)?.0)
    }

    /// Like [`ShardedQbDeployment::run_and_cost_with`], but also returns the
    /// per-query answers so callers comparing cost **and** correctness (the
    /// planner experiment's byte-identity gate) measure both on the same
    /// run.
    pub fn run_and_cost_answers(
        &mut self,
        queries: &[Value],
        transport: BinTransport,
    ) -> Result<(ShardedCostBreakdown, Vec<Vec<pds_storage::Tuple>>)> {
        let shards = self.router.shard_count();
        let before_owner = *self.owner.metrics();
        let before_shards = self.router.shard_metrics();
        let before_comm: Vec<f64> = self.router.shards().iter().map(|s| s.comm_time()).collect();
        let before_episodes: Vec<usize> = self
            .router
            .shards()
            .iter()
            .map(|s| s.adversarial_view().len())
            .collect();
        let run = self.executor.run_workload_transported(
            &mut self.owner,
            &mut self.router,
            queries,
            &transport,
        )?;
        let profile = self.executor.engine().cost_profile();

        let mut aggregate_computation = 0.0;
        let mut parallel_sec = 0.0_f64;
        let mut sim_wall_sec = 0.0_f64;
        for (idx, shard) in self.router.shards().iter().enumerate() {
            let delta = shard.metrics().delta_since(&before_shards[idx]);
            let shard_queries = (shard.adversarial_view().len() - before_episodes[idx]) as u64;
            // Heterogeneous deployments run a different back-end per shard:
            // each shard's counters are priced under its own engine's cost
            // profile (identical to the prototype's in the homogeneous
            // case).
            let shard_profile = self
                .executor
                .shard_engines()
                .get(idx)
                .map_or(profile, SecureSelectionEngine::cost_profile);
            let computation = pds_systems::cost::computation_time_for_queries(
                &delta,
                &shard_profile,
                shard_queries,
            );
            let comm = shard.comm_time() - before_comm[idx];
            aggregate_computation += computation;
            parallel_sec = parallel_sec.max(computation + comm);
            sim_wall_sec = sim_wall_sec.max(comm);
        }
        // Owner-side work (decryption, token generation) is central, not
        // sharded; it counts toward the aggregate only.
        let owner_delta = self.owner.metrics().delta_since(&before_owner);
        aggregate_computation += pds_systems::cost::computation_time(&owner_delta, &profile);
        let communication_sec = self.router.comm_time() - before_comm.iter().sum::<f64>();

        Ok((
            ShardedCostBreakdown {
                aggregate: CostBreakdown {
                    computation_sec: aggregate_computation,
                    communication_sec,
                    queries: queries.len(),
                },
                parallel_sec,
                measured_wall_sec: run.wall_clock_sec,
                sim_wall_sec,
                cache_hits: run.cache_hits,
                rounds: run.rounds,
                shards,
            },
            run.answers,
        ))
    }

    /// A uniform workload over the distinct values of the search attribute.
    pub fn workload(&self, seed: u64) -> Result<QueryWorkload> {
        workload_over(&self.parts, seed)
    }
}

/// A uniform workload over the union of both partitions' distinct values of
/// the search attribute.
fn workload_over(parts: &PartitionedRelation, seed: u64) -> Result<QueryWorkload> {
    let attr = parts.nonsensitive.schema().attr_id(SEARCH_ATTR)?;
    let mut all = parts.nonsensitive.distinct_values(attr);
    for v in parts.sensitive.distinct_values(attr) {
        if !all.contains(&v) {
            all.push(v);
        }
    }
    QueryWorkload::explicit(all, seed)
}

/// A fully-encrypted baseline deployment: the *entire* relation goes through
/// the engine (this is the `Cost_crypt(1, D)` denominator of the η model).
pub struct FullEncryptionDeployment<E: SecureSelectionEngine> {
    /// The trusted owner.
    pub owner: DbOwner,
    /// The untrusted cloud.
    pub cloud: CloudServer,
    engine: E,
}

/// Builds and outsources the fully encrypted baseline.
pub fn full_encryption_deployment<E: SecureSelectionEngine>(
    relation: &Relation,
    mut engine: E,
    network: NetworkModel,
    seed: u64,
) -> Result<FullEncryptionDeployment<E>> {
    let attr = relation.schema().attr_id(SEARCH_ATTR)?;
    let mut owner = DbOwner::new(seed.wrapping_add(13));
    let mut cloud = CloudServer::new(network);
    engine.outsource(&mut owner, &mut cloud, relation, attr)?;
    cloud.reset_metrics();
    owner.reset_metrics();
    Ok(FullEncryptionDeployment {
        owner,
        cloud,
        engine,
    })
}

impl<E: SecureSelectionEngine> FullEncryptionDeployment<E> {
    /// Runs point queries (one value each) over the fully encrypted data and
    /// returns their cost under the engine's profile.
    pub fn run_and_cost(&mut self, queries: &[Value]) -> Result<CostBreakdown> {
        let before_metrics = combined_metrics(&self.cloud, &self.owner);
        let before_comm = self.cloud.comm_time();
        for q in queries {
            self.engine
                .select(&mut self.owner, &mut self.cloud, std::slice::from_ref(q))?;
        }
        let delta = combined_metrics(&self.cloud, &self.owner).delta_since(&before_metrics);
        let profile = self.engine.cost_profile();
        Ok(CostBreakdown {
            computation_sec: pds_systems::cost::computation_time_for_queries(
                &delta,
                &profile,
                queries.len() as u64,
            ),
            communication_sec: self.cloud.comm_time() - before_comm,
            queries: queries.len(),
        })
    }
}

/// Scales a measured cost from an `actual`-tuple dataset to a `modelled`
/// dataset size, assuming the dominant costs scale linearly with the number
/// of tuples processed (true for every full-scan back-end).
pub fn scale_cost(
    cost: CostBreakdown,
    actual_tuples: usize,
    modelled_tuples: usize,
) -> CostBreakdown {
    if actual_tuples == 0 {
        return cost;
    }
    let f = modelled_tuples as f64 / actual_tuples as f64;
    CostBreakdown {
        computation_sec: cost.computation_sec * f,
        communication_sec: cost.communication_sec * f,
        queries: cost.queries,
    }
}

/// Per-query answers as sorted encoded tuples, for byte-level comparison.
pub type EncodedAnswers = Vec<Vec<Vec<u8>>>;

/// Encodes per-query answers as [`EncodedAnswers`].
pub fn answer_bytes(answers: &[Vec<Tuple>]) -> EncodedAnswers {
    answers
        .iter()
        .map(|ts| {
            let mut out: Vec<Vec<u8>> = ts.iter().map(Tuple::encode).collect();
            out.sort();
            out
        })
        .collect()
}

/// One tenant of the loopback-daemon experiments: a det-index deployment
/// behind a router of local shard servers, its workload, and the
/// workload's in-process threaded reference answers.
pub struct DaemonTenant {
    /// The tenant id its executor, client and daemons key it by.
    pub id: u64,
    /// The tenant's trusted owner.
    pub owner: DbOwner,
    /// The tenant's shard servers (empty slots while a daemon hosts them).
    pub router: ShardRouter,
    /// The tenant's QB executor (cache capacity 0, so no bin contents are
    /// kept across calls).
    pub executor: QbExecutor<DeterministicIndexEngine>,
    /// The values the tenant queries.
    pub workload: Vec<Value>,
    /// The [`BinTransport::Threaded`] answers to `workload`.
    pub reference: Vec<Vec<Tuple>>,
}

/// Builds tenant `id` over `shards` servers with the exhaustive Employee
/// workload repeated `passes` times, and records its threaded reference.
pub fn employee_tenant(id: u64, shards: usize, passes: usize, seed: u64) -> Result<DaemonTenant> {
    let relation = employee_relation();
    let policy = employee_sensitivity_policy(&relation)?;
    let parts = Partitioner::new(policy).split(&relation)?;
    let values = exhaustive_values(&parts, "EId")?;
    let workload: Vec<Value> = values
        .iter()
        .cycle()
        .take(values.len() * passes)
        .cloned()
        .collect();
    daemon_tenant(id, shards, parts, "EId", workload, seed)
}

/// Builds tenant `id` over `shards` servers on a `tuples`-row LINEITEM in
/// which every tuple has an [`SEARCH_ATTR`] value of its own, split at
/// sensitivity 0.3, with every value once as its workload, and records its
/// threaded reference.  Each bin holds few tuples, so every episode is
/// light, and the workload spreads over many distinct bin pairs.
pub fn lineitem_tenant(id: u64, shards: usize, tuples: usize, seed: u64) -> Result<DaemonTenant> {
    let generated = lineitem(tuples, seed);
    let attr = generated.schema().attr_id(SEARCH_ATTR)?;
    let mut relation = Relation::new(generated.name(), generated.schema().clone());
    for (key, tuple) in generated.tuples().iter().enumerate() {
        let mut values = tuple.values.clone();
        values[attr.index()] = Value::Int(key as i64 + 1);
        relation.insert(values)?;
    }
    let parts = partition_at_alpha(&relation, 0.3, seed)?;
    let workload = exhaustive_values(&parts, SEARCH_ATTR)?;
    daemon_tenant(id, shards, parts, SEARCH_ATTR, workload, seed)
}

/// Every distinct value of `attr` on either side of `parts`, sensitive
/// side first.
fn exhaustive_values(parts: &PartitionedRelation, attr: &str) -> Result<Vec<Value>> {
    let attr = parts.sensitive.schema().attr_id(attr)?;
    let mut values = parts.sensitive.distinct_values(attr);
    for v in parts.nonsensitive.distinct_values(attr) {
        if !values.contains(&v) {
            values.push(v);
        }
    }
    Ok(values)
}

/// Outsources `parts` for tenant `id` over `shards` det-index servers and
/// records the threaded reference answers to `workload`.
fn daemon_tenant(
    id: u64,
    shards: usize,
    parts: PartitionedRelation,
    attr: &str,
    workload: Vec<Value>,
    seed: u64,
) -> Result<DaemonTenant> {
    let binning = QueryBinning::build(&parts, attr, BinningConfig::default())?;
    let mut executor = QbExecutor::new(binning, DeterministicIndexEngine::new()).with_tenant(id);
    let mut owner = DbOwner::new(seed.wrapping_add(id));
    let mut router = ShardRouter::new(
        shards,
        NetworkModel::paper_wan(),
        seed.wrapping_mul(31).wrapping_add(id),
    )?;
    executor.outsource(&mut owner, &mut router, &parts)?;
    let reference = executor
        .run_workload_transported(&mut owner, &mut router, &workload, &BinTransport::Threaded)?
        .answers;
    Ok(DaemonTenant {
        id,
        owner,
        router,
        executor,
        workload,
        reference,
    })
}

/// Moves every tenant's shard servers into one loopback daemon per shard,
/// each with `workers` worker threads; the daemons come back in shard
/// order.
pub fn host_on_daemons(tenants: &mut [DaemonTenant], workers: usize) -> Result<Vec<ShardDaemon>> {
    let mut hosted: Vec<Vec<(u64, CloudServer)>> = Vec::new();
    for t in tenants.iter_mut() {
        let shards = t.router.shards_mut();
        if hosted.len() < shards.len() {
            hosted.resize_with(shards.len(), Vec::new);
        }
        for (s, server) in shards.iter_mut().enumerate() {
            hosted[s].push((t.id, std::mem::take(server)));
        }
    }
    hosted
        .into_iter()
        .enumerate()
        .map(|(s, servers)| {
            ShardDaemon::spawn(
                servers,
                ServiceConfig::with_workers(workers).with_shard(s as u64),
            )
        })
        .collect()
}

/// Shuts the daemons down and hands every tenant back its shard servers,
/// with every episode the daemons recorded, so a security check sees the
/// daemon-served traffic.
pub fn reclaim_from_daemons(daemons: Vec<ShardDaemon>, tenants: &mut [DaemonTenant]) -> Result<()> {
    let mut returned: Vec<Vec<(u64, CloudServer)>> =
        daemons.into_iter().map(ShardDaemon::shutdown).collect();
    for t in tenants.iter_mut() {
        let shards = t.router.shards_mut().iter_mut().zip(&mut returned);
        for (s, (server, servers)) in shards.enumerate() {
            let pos = servers
                .iter()
                .position(|(id, _)| *id == t.id)
                .ok_or_else(|| {
                    PdsError::Wire(format!(
                        "shard {s} daemon did not return tenant {}'s server",
                        t.id
                    ))
                })?;
            *server = servers.swap_remove(pos).1;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_systems::NonDetScanEngine;

    #[test]
    fn qb_deployment_answers_queries_and_costs_them() {
        let rel = lineitem(2_000, 3);
        let mut dep = qb_deployment(
            &rel,
            0.3,
            NonDetScanEngine::new(),
            NetworkModel::paper_wan(),
            1,
        )
        .unwrap();
        let queries = dep.workload(5).unwrap().draw(10);
        let cost = dep.run_and_cost(&queries).unwrap();
        assert!(cost.total_sec() > 0.0);
        assert!(cost.per_query_sec() > 0.0);
        assert_eq!(cost.queries, 10);
    }

    #[test]
    fn full_encryption_costs_more_than_qb_at_low_alpha() {
        let rel = lineitem(2_000, 4);
        let queries: Vec<Value> = {
            let attr = rel.schema().attr_id(SEARCH_ATTR).unwrap();
            rel.distinct_values(attr).into_iter().take(5).collect()
        };
        let mut qb = qb_deployment(
            &rel,
            0.1,
            NonDetScanEngine::new(),
            NetworkModel::paper_wan(),
            2,
        )
        .unwrap();
        let qb_cost = qb.run_and_cost(&queries).unwrap();
        let mut full =
            full_encryption_deployment(&rel, NonDetScanEngine::new(), NetworkModel::paper_wan(), 2)
                .unwrap();
        let full_cost = full.run_and_cost(&queries).unwrap();
        assert!(
            qb_cost.computation_sec < full_cost.computation_sec,
            "QB at α=0.1 should compute less than full encryption: {} vs {}",
            qb_cost.computation_sec,
            full_cost.computation_sec
        );
    }

    #[test]
    fn sharded_deployment_matches_single_server_answers() {
        let rel = lineitem(1_200, 9);
        let mut single = qb_deployment(
            &rel,
            0.3,
            NonDetScanEngine::new(),
            NetworkModel::paper_wan(),
            1,
        )
        .unwrap();
        let mut sharded = sharded_qb_deployment(
            &rel,
            0.3,
            4,
            NonDetScanEngine::new(),
            NetworkModel::paper_wan(),
            1,
        )
        .unwrap();
        let queries = single.workload(5).unwrap().draw(12);
        for q in &queries {
            let mut a: Vec<u64> = single
                .executor
                .select(&mut single.owner, &mut single.cloud, q)
                .unwrap()
                .iter()
                .map(|t| t.id.raw())
                .collect();
            let mut b: Vec<u64> = sharded
                .executor
                .select(&mut sharded.owner, &mut sharded.router, q)
                .unwrap()
                .iter()
                .map(|t| t.id.raw())
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "answers diverge for {q}");
        }
    }

    #[test]
    fn sharded_cost_parallel_bounded_by_aggregate() {
        let rel = lineitem(1_200, 10);
        let mut dep = sharded_qb_deployment(
            &rel,
            0.3,
            4,
            NonDetScanEngine::new(),
            NetworkModel::paper_wan(),
            2,
        )
        .unwrap();
        let queries = dep.workload(6).unwrap().draw(16);
        let cost = dep.run_and_cost(&queries).unwrap();
        assert_eq!(cost.shards, 4);
        assert_eq!(cost.aggregate.queries, 16);
        assert!(cost.parallel_sec > 0.0);
        assert!(
            cost.parallel_sec <= cost.aggregate.total_sec() + 1e-9,
            "parallel estimate {} must not exceed aggregate {}",
            cost.parallel_sec,
            cost.aggregate.total_sec()
        );
        assert!(cost.measured_wall_sec > 0.0, "sequential run is timed too");
        assert!(
            cost.sim_wall_sec > 0.0,
            "the run's frames must advance the sim clock"
        );
    }

    #[test]
    fn threaded_transport_reports_same_model_and_a_measured_wall_clock() {
        let rel = lineitem(1_200, 10);
        let build = || {
            sharded_qb_deployment(
                &rel,
                0.3,
                4,
                NonDetScanEngine::new(),
                NetworkModel::paper_wan(),
                2,
            )
            .unwrap()
        };
        let mut seq_dep = build();
        let queries = seq_dep.workload(6).unwrap().draw(16);
        let seq = seq_dep
            .run_and_cost_with(&queries, BinTransport::Sequential)
            .unwrap();
        let mut thr_dep = build();
        let thr = thr_dep
            .run_and_cost_with(&queries, BinTransport::Threaded)
            .unwrap();
        // The modelled costs are transport-independent (same episodes, same
        // counters); only the measured wall-clock differs.
        assert!((seq.parallel_sec - thr.parallel_sec).abs() < 1e-12);
        assert!((seq.aggregate.total_sec() - thr.aggregate.total_sec()).abs() < 1e-12);
        assert!(thr.measured_wall_sec > 0.0);
        // The simulated-network clock charges the same per-shard frames
        // whatever the transport, so it is transport-independent too
        // (frame lengths depend only on the outsourced data and the query
        // stream, both identical across the two deployments).
        assert!(
            (seq.sim_wall_sec - thr.sim_wall_sec).abs() < 1e-12,
            "sim clock diverged: {} vs {}",
            seq.sim_wall_sec,
            thr.sim_wall_sec
        );
    }

    #[test]
    fn scale_cost_is_linear() {
        let c = CostBreakdown {
            computation_sec: 1.0,
            communication_sec: 0.5,
            queries: 1,
        };
        let scaled = scale_cost(c, 100, 1000);
        assert!((scaled.computation_sec - 10.0).abs() < 1e-9);
        assert!((scaled.communication_sec - 5.0).abs() < 1e-9);
        assert_eq!(scale_cost(c, 0, 10), c);
    }
}
