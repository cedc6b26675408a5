//! Sharded multi-server cloud deployments with bin routing.
//!
//! One [`crate::CloudServer`] per deployment caps the system at a single
//! simulated machine.  A [`ShardRouter`] lifts that limit: it owns `N`
//! independent `CloudServer` shards and routes every Query Binning episode —
//! one (sensitive-bin, non-sensitive-bin) pair — to exactly one shard, so a
//! workload's episodes spread across shards and the per-query encrypted work
//! shrinks with the shard count (each shard stores only its own sensitive
//! bins).
//!
//! ## Placement and security
//!
//! The [`BinPlacement`] map is deterministic and seeded: sensitive bins are
//! secretly shuffled and dealt round-robin over the shards, and a pair
//! `(sensitive bin i, non-sensitive bin j)` is routed to the shard hosting
//! `i`.  The placement deliberately depends **only on the sensitive bin**:
//! each shard is itself an honest-but-curious adversary observing its own
//! [`AdversarialView`], and partitioned data security must hold on every
//! shard's view as well as on the composed view.  Routing by sensitive bin
//! means shard `s` observes the complete bipartite sub-view
//! `{bins on s} × {all non-sensitive bins}` once a workload covers every
//! value — no surviving match is dropped on any shard.  A placement that
//! split a sensitive bin's episodes across shards by non-sensitive bin would
//! instead show each shard an *incomplete* pairing (a Figure 4b view) and
//! leak associations to that shard.
//!
//! The clear-text non-sensitive relation is replicated to every shard (it is
//! non-sensitive by definition, and replication keeps every episode local to
//! one shard).  In process the replicas are one copy: the router indexes
//! the relation once and every shard holds that clear-text side behind an
//! `Arc`, copying it only if it takes an insert.  Each shard is still
//! charged its own upload exchange, as separate machines would be.
//! Encrypted sensitive data is never replicated: each sensitive bin lives
//! on exactly one shard.
//!
//! [`BinRoutedCloud`] abstracts over "one server" and "many shards" so the
//! Query Binning executor (`pds-core`) works unchanged against either.

use std::sync::Arc;

use pds_common::{PdsError, Result};
use pds_storage::Relation;

use crate::metrics::Metrics;
use crate::network::NetworkModel;
use crate::server::{CloudServer, PlainSide};
use crate::view::AdversarialView;

/// Deterministic seeded assignment of sensitive bins to shards.
///
/// Built once per deployment (the executor installs it at outsourcing time,
/// when the sensitive bin count is known).  Bins are secretly shuffled with
/// the placement seed and dealt round-robin, so shard loads differ by at
/// most one bin and the layout is reproducible from `(seed, bins, shards)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinPlacement {
    shard_of_bin: Vec<usize>,
}

impl BinPlacement {
    /// Builds the placement map for `sensitive_bins` bins over `shards`
    /// shards from `seed`.
    pub fn build(sensitive_bins: usize, shards: usize, seed: u64) -> Result<Self> {
        if shards == 0 {
            return Err(PdsError::Config("shard count must be at least 1".into()));
        }
        let mut order: Vec<usize> = (0..sensitive_bins).collect();
        let mut rng =
            pds_common::rng::seeded_rng(pds_common::rng::derive_seed(seed, "bin-placement"));
        pds_common::rng::shuffle(&mut order, &mut rng);
        let mut shard_of_bin = vec![0usize; sensitive_bins];
        for (i, bin) in order.into_iter().enumerate() {
            shard_of_bin[bin] = i % shards;
        }
        Ok(BinPlacement { shard_of_bin })
    }

    /// The shard hosting a sensitive bin.
    pub fn shard_of_sensitive_bin(&self, bin: usize) -> usize {
        self.shard_of_bin.get(bin).copied().unwrap_or(0)
    }
}

/// A cloud deployment the QB executor can outsource to and select through:
/// either a single [`CloudServer`] or a [`ShardRouter`] over many.
///
/// The executor drives the trait in three steps: [`prepare_routing`] with
/// the sensitive bin count, [`upload_plaintext`] for the clear-text side,
/// then per-shard engine outsourcing via [`shard_mut`]; at query time it
/// routes each bin pair with [`route_sensitive_bin`] and runs the whole
/// episode against that one shard.
///
/// [`prepare_routing`]: BinRoutedCloud::prepare_routing
/// [`upload_plaintext`]: BinRoutedCloud::upload_plaintext
/// [`shard_mut`]: BinRoutedCloud::shard_mut
/// [`route_sensitive_bin`]: BinRoutedCloud::route_sensitive_bin
pub trait BinRoutedCloud {
    /// Number of shards in the deployment (1 for a single server).
    fn shard_count(&self) -> usize;

    /// Installs the bin-to-shard placement for a deployment of
    /// `sensitive_bins` bins (no-op on a single server).
    fn prepare_routing(&mut self, sensitive_bins: usize) -> Result<()>;

    /// The shard hosting a sensitive bin (always 0 on a single server).
    fn route_sensitive_bin(&self, sensitive_bin: usize) -> usize;

    /// Shared read access to one shard.
    fn shard(&self, idx: usize) -> &CloudServer;

    /// Exclusive access to one shard (engines outsource/select through it).
    fn shard_mut(&mut self, idx: usize) -> &mut CloudServer;

    /// Exclusive access to **all** shard slots at once, in shard order.
    /// Each in-process task handed to [`crate::BinTransport::dispatch`]
    /// captures the disjoint `&mut` borrow of its own slot, so shards can
    /// be driven from separate OS threads without locks.
    fn shards_mut(&mut self) -> &mut [CloudServer];

    /// Uploads the clear-text non-sensitive relation (replicated to every
    /// shard in a sharded deployment).
    fn upload_plaintext(&mut self, relation: Relation, searchable_attr: &str) -> Result<()>;
}

impl BinRoutedCloud for CloudServer {
    fn shard_count(&self) -> usize {
        1
    }

    fn prepare_routing(&mut self, _sensitive_bins: usize) -> Result<()> {
        Ok(())
    }

    fn route_sensitive_bin(&self, _sensitive_bin: usize) -> usize {
        0
    }

    fn shard(&self, _idx: usize) -> &CloudServer {
        self
    }

    fn shard_mut(&mut self, _idx: usize) -> &mut CloudServer {
        self
    }

    fn shards_mut(&mut self) -> &mut [CloudServer] {
        std::slice::from_mut(self)
    }

    fn upload_plaintext(&mut self, relation: Relation, searchable_attr: &str) -> Result<()> {
        CloudServer::upload_plaintext(self, relation, searchable_attr)
    }
}

/// A multi-server cloud: `N` independent [`CloudServer`] shards plus the
/// seeded [`BinPlacement`] routing bin pairs across them.
///
/// The router exposes the same upload / adversarial-view / metrics surface
/// as a single server, aggregated over shards, plus per-shard
/// accessors and a max-over-shards parallel wall-clock estimate (shards are
/// independent machines, so a workload's communication time is bounded by
/// its busiest shard, not by the sum).
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: Vec<CloudServer>,
    placement: Option<BinPlacement>,
    seed: u64,
}

impl ShardRouter {
    /// Creates a router over `shard_count` fresh shards, all using the same
    /// network model; `seed` drives the bin placement.
    pub fn new(shard_count: usize, network: NetworkModel, seed: u64) -> Result<Self> {
        if shard_count == 0 {
            return Err(PdsError::Config("shard count must be at least 1".into()));
        }
        Ok(ShardRouter {
            shards: (0..shard_count)
                .map(|_| CloudServer::new(network))
                .collect(),
            placement: None,
            seed,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// All shards, in index order.
    pub fn shards(&self) -> &[CloudServer] {
        &self.shards
    }

    /// Installs (or re-installs) the placement map for `sensitive_bins`.
    pub fn install_placement(&mut self, sensitive_bins: usize) -> Result<()> {
        self.placement = Some(BinPlacement::build(
            sensitive_bins,
            self.shards.len(),
            self.seed,
        )?);
        Ok(())
    }

    /// Uploads the clear-text non-sensitive relation, replicated to every
    /// shard so any episode can run locally on its shard.  The relation is
    /// indexed once and shared; every shard is charged one upload.
    pub fn upload_plaintext(&mut self, relation: Relation, searchable_attr: &str) -> Result<()> {
        let (side, upload) = PlainSide::build(relation, searchable_attr)?;
        for shard in &mut self.shards {
            shard.share_plaintext(Arc::clone(&side), upload);
        }
        Ok(())
    }

    fn route_bin(&self, sensitive_bin: usize) -> usize {
        self.placement
            .as_ref()
            .map_or(0, |p| p.shard_of_sensitive_bin(sensitive_bin))
    }

    // ----- observability ----------------------------------------------------

    /// Per-shard adversarial views (what each shard-adversary observed).
    pub fn adversarial_views(&self) -> Vec<&AdversarialView> {
        self.shards
            .iter()
            .map(CloudServer::adversarial_view)
            .collect()
    }

    /// The composed adversarial view: every shard's episodes merged, i.e.
    /// what a coalition of all shard-adversaries observes jointly.
    pub fn composed_view(&self) -> AdversarialView {
        let mut composed = AdversarialView::new();
        for shard in &self.shards {
            composed.absorb(shard.adversarial_view());
        }
        composed
    }

    /// Aggregated work counters over all shards.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        for shard in &self.shards {
            m.absorb(shard.metrics());
        }
        m
    }

    /// Per-shard work counters, in shard order.
    pub fn shard_metrics(&self) -> Vec<Metrics> {
        self.shards.iter().map(|s| *s.metrics()).collect()
    }

    /// Total simulated communication seconds summed over shards (the
    /// sequential / total-bytes view).
    pub fn comm_time(&self) -> f64 {
        self.shards.iter().map(CloudServer::comm_time).sum()
    }

    /// Max-over-shards communication seconds: the parallel wall-clock
    /// estimate when the shards are independent machines serving disjoint
    /// episode streams concurrently.
    pub fn parallel_comm_time(&self) -> f64 {
        self.shards
            .iter()
            .map(CloudServer::comm_time)
            .fold(0.0_f64, f64::max)
    }

    /// Total encrypted rows stored across shards.
    pub fn encrypted_len(&self) -> usize {
        self.shards.iter().map(CloudServer::encrypted_len).sum()
    }

    /// Plaintext tuples stored per replica (every shard holds the same
    /// clear-text relation).
    pub fn plain_len(&self) -> usize {
        self.shards.first().map_or(0, CloudServer::plain_len)
    }

    /// Resets metrics and communication time on every shard (adversarial
    /// views are kept — the adversaries never forget).
    pub fn reset_metrics(&mut self) {
        for shard in &mut self.shards {
            shard.reset_metrics();
        }
    }
}

impl BinRoutedCloud for ShardRouter {
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn prepare_routing(&mut self, sensitive_bins: usize) -> Result<()> {
        self.install_placement(sensitive_bins)
    }

    fn route_sensitive_bin(&self, sensitive_bin: usize) -> usize {
        self.route_bin(sensitive_bin)
    }

    fn shard(&self, idx: usize) -> &CloudServer {
        &self.shards[idx]
    }

    fn shard_mut(&mut self, idx: usize) -> &mut CloudServer {
        &mut self.shards[idx]
    }

    fn shards_mut(&mut self) -> &mut [CloudServer] {
        &mut self.shards
    }

    fn upload_plaintext(&mut self, relation: Relation, searchable_attr: &str) -> Result<()> {
        ShardRouter::upload_plaintext(self, relation, searchable_attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::Value;
    use pds_crypto::NonDetCipher;
    use pds_proto::{FetchBinRequest, WireRow};
    use pds_storage::{DataType, Schema};

    fn plain_relation() -> Relation {
        let schema =
            Schema::from_pairs(&[("EId", DataType::Text), ("Dept", DataType::Text)]).unwrap();
        let mut r = Relation::new("Employee", schema);
        for (e, d) in [("E259", "Design"), ("E199", "Design"), ("E254", "Sales")] {
            r.insert(vec![Value::from(e), Value::from(d)]).unwrap();
        }
        r
    }

    fn encrypted_rows(base: u64, n: u64) -> Vec<WireRow> {
        let cipher = NonDetCipher::from_seed(9);
        let mut rng = pds_common::rng::seeded_rng(1);
        (0..n)
            .map(|i| WireRow {
                id: base + i,
                attr_ct: cipher.encrypt(format!("v{i}").as_bytes(), &mut rng).0,
                tuple_ct: cipher.encrypt(format!("tuple{i}").as_bytes(), &mut rng).0,
                search_tags: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn placement_is_deterministic_and_balanced() {
        let a = BinPlacement::build(10, 4, 7).unwrap();
        let b = BinPlacement::build(10, 4, 7).unwrap();
        for bin in 0..10 {
            assert_eq!(
                a.shard_of_sensitive_bin(bin),
                b.shard_of_sensitive_bin(bin),
                "same seed reproduces the placement"
            );
        }
        let mut loads = [0usize; 4];
        for bin in 0..10 {
            loads[a.shard_of_sensitive_bin(bin)] += 1;
        }
        assert!(loads.iter().all(|&l| l == 2 || l == 3), "{loads:?}");
    }

    #[test]
    fn placement_depends_on_seed() {
        let a = BinPlacement::build(32, 4, 1).unwrap();
        let b = BinPlacement::build(32, 4, 2).unwrap();
        let layout = |p: &BinPlacement| {
            (0..32)
                .map(|i| p.shard_of_sensitive_bin(i))
                .collect::<Vec<_>>()
        };
        assert_ne!(layout(&a), layout(&b));
    }

    #[test]
    fn zero_shards_is_rejected() {
        assert!(BinPlacement::build(4, 0, 1).is_err());
        assert!(ShardRouter::new(0, NetworkModel::paper_wan(), 1).is_err());
    }

    #[test]
    fn router_replicates_plaintext_and_routes_selects() {
        let mut router = ShardRouter::new(3, NetworkModel::paper_wan(), 5).unwrap();
        router.install_placement(6).unwrap();
        router.upload_plaintext(plain_relation(), "EId").unwrap();
        assert_eq!(router.plain_len(), 3);
        for shard in router.shards() {
            assert_eq!(shard.plain_len(), 3, "every shard holds the replica");
        }
        let shard = BinRoutedCloud::route_sensitive_bin(&router, 2);
        let out = router
            .shard_mut(shard)
            .fetch_bin(&FetchBinRequest {
                values: vec![Value::from("E259")],
                ..FetchBinRequest::default()
            })
            .unwrap()
            .plain_tuples;
        assert_eq!(out.len(), 1);
        // Exactly one shard observed the request (the other views are empty).
        let views = router.adversarial_views();
        assert_eq!(views.len(), 3);
    }

    #[test]
    fn router_aggregates_metrics_and_comm_time() {
        // The LAN link charges latency per exchange as well as bytes.
        for network in [NetworkModel::paper_wan(), NetworkModel::lan()] {
            let mut router = ShardRouter::new(2, network, 5).unwrap();
            router
                .shard_mut(0)
                .upload_encrypted(encrypted_rows(100, 4))
                .unwrap();
            router
                .shard_mut(1)
                .upload_encrypted(encrypted_rows(200, 2))
                .unwrap();
            assert_eq!(router.encrypted_len(), 6);
            assert_eq!(router.shard(0).encrypted_len(), 4);
            assert_eq!(router.shard(1).encrypted_len(), 2);
            let total = router.metrics();
            assert!(total.bytes_uploaded > 0);
            // Both shards are busy, so the overlapped fan-out (the busiest
            // shard's clock) finishes strictly before the serial sum.
            let busiest = router
                .shards()
                .iter()
                .map(CloudServer::comm_time)
                .fold(0.0_f64, f64::max);
            assert_eq!(router.parallel_comm_time(), busiest, "{network:?}");
            assert!(
                router.parallel_comm_time() < router.comm_time(),
                "{network:?}: parallel {} must be below serial {}",
                router.parallel_comm_time(),
                router.comm_time()
            );
            assert!(router.parallel_comm_time() > 0.0);
            router.reset_metrics();
            assert_eq!(router.metrics().total_bytes(), 0);
            assert_eq!(router.comm_time(), 0.0);
        }
    }

    #[test]
    fn composed_view_merges_all_shards() {
        let mut router = ShardRouter::new(2, NetworkModel::paper_wan(), 5).unwrap();
        router.install_placement(2).unwrap();
        router.upload_plaintext(plain_relation(), "EId").unwrap();
        for bin in 0..2 {
            let shard = BinRoutedCloud::route_sensitive_bin(&router, bin);
            router.shard_mut(shard).begin_query();
            router
                .shard_mut(shard)
                .fetch_bin(&FetchBinRequest {
                    values: vec![Value::from("E199")],
                    ..FetchBinRequest::default()
                })
                .unwrap();
            router.shard_mut(shard).end_query();
        }
        let composed = router.composed_view();
        assert_eq!(composed.len(), 2);
        // Episode ids in the composed view are unique.
        let mut ids: Vec<_> = composed.episodes().iter().map(|e| e.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 2);
    }

    #[test]
    fn single_server_implements_the_trait_trivially() {
        let mut server = CloudServer::new(NetworkModel::paper_wan());
        assert_eq!(BinRoutedCloud::shard_count(&server), 1);
        BinRoutedCloud::prepare_routing(&mut server, 99).unwrap();
        assert_eq!(BinRoutedCloud::route_sensitive_bin(&server, 42), 0);
        BinRoutedCloud::upload_plaintext(&mut server, plain_relation(), "EId").unwrap();
        assert_eq!(BinRoutedCloud::shard(&server, 0).plain_len(), 3);
        assert_eq!(BinRoutedCloud::shard_mut(&mut server, 0).plain_len(), 3);
        assert_eq!(BinRoutedCloud::shards_mut(&mut server).len(), 1);
    }

    #[test]
    fn shards_mut_exposes_every_slot_in_order() {
        let mut router = ShardRouter::new(3, NetworkModel::paper_wan(), 5).unwrap();
        router
            .shard_mut(2)
            .upload_encrypted(encrypted_rows(500, 1))
            .unwrap();
        let slots = BinRoutedCloud::shards_mut(&mut router);
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[2].encrypted_len(), 1);
        assert_eq!(slots[0].encrypted_len(), 0);
    }
}
