//! Cost-based query planning: choose the engine per shard, don't obey it.
//!
//! The PR-5 pipeline compiled batches into [`QueryPlan`]s but *obeyed* the
//! deployment: whatever engine a shard had been outsourced through served
//! every episode, in workload arrival order.  This module turns that
//! pipeline into a real optimizer with four decisions:
//!
//! 1. **Engine choice per shard** ([`choose_engines`]) — a [`CostModel`]
//!    prices the work each back-end was observed to do on each shard (the
//!    counted `Metrics` delta of a pilot run) under the back-end's static
//!    [`pds_systems::cost::CostProfile`], and picks the cheapest engine
//!    for each shard's expected workload.  Counted work is deterministic,
//!    so the choice never depends on the machine's clock.  Security is a
//!    constraint, not an objective: where the
//!    workload-skew attack reports linkage advantage above the configured
//!    threshold, only access-pattern-hiding back-ends are eligible;
//!    everywhere else the cheap deterministic index wins on cost.
//! 2. **Predicate pushdown** ([`PlannerConfig::residual`]) — a residual
//!    predicate over non-searchable, non-sensitive attributes rides the
//!    episode request so the cloud filters the clear-text stream *before*
//!    the downlink.  The owner re-applies the residual during `qmerge`
//!    (idempotent on the pre-filtered stream, required on the sensitive
//!    stream the cloud can never filter), so answers are byte-identical
//!    with pushdown on or off.
//! 3. **A minimum bin cover per batch** ([`bin_cover`]) — a batch
//!    fetches the fewest bin pairs that bring every bin its queries need,
//!    using only pairs whose fetch shows the cloud nothing one query per
//!    call would not show it.
//! 4. **Episode reordering** ([`reorder_for_locality`]) — each shard's
//!    episode steps are sorted into bin-major order, so episodes touching
//!    the same sensitive bin pipeline back-to-back and the plan a batch
//!    compiles to is a deterministic function of its *set* of bin pairs
//!    rather than of workload arrival order.  Every query reads its bins
//!    after the fan-out, and the cloud's security views are set-based, so
//!    reordering changes neither answers nor the adversary's view.

use std::collections::{BTreeMap, BTreeSet};

use pds_cloud::Metrics;
use pds_common::{PdsError, Result};
use pds_storage::Predicate;
use pds_systems::cost::{computation_time_for_queries, CostProfile};
use pds_systems::SecureSelectionEngine;

use crate::binning::BinPair;
use crate::plan::QueryPlan;

/// Workload-skew linkage advantage above which a shard must be served by
/// an access-pattern-hiding back-end
/// (see `pds_adversary::WorkloadSkewOutcome::advantage`).
///
/// A naive deployment links values perfectly at advantage 1.0.  QB's
/// bin-level anonymity keeps measured advantage at or below this on every
/// suite workload, but not always well below it: `experiments planner
/// --scale 0.01` measures exactly 0.500 on employee shard 1, which stays on
/// a non-oblivious engine only because [`choose_engines`] requires strictly
/// more than the threshold.  Oblivious engines are forced only where
/// linkage is demonstrably stronger than that.
pub const ADVANTAGE_THRESHOLD: f64 = 0.5;

/// How the executor's planner behaves for every compiled episode.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Residual predicate constraining the query beyond the searchable
    /// attribute.  Must only mention non-searchable attributes; the
    /// executor rejects residuals touching the binned attribute.
    pub residual: Option<Predicate>,
    /// Whether the residual rides the wire for cloud-side evaluation
    /// (`true`) or is only applied owner-side after full-bin retrieval
    /// (`false` — the baseline the equivalence tests compare against).
    pub pushdown: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            residual: None,
            pushdown: true,
        }
    }
}

/// The residual the planner would attach to a compiled episode: `None`
/// when pushdown is disabled even if a residual constrains the merge.
impl PlannerConfig {
    /// The predicate to push below the bin fetch, if any.
    pub fn wire_residual(&self) -> Option<&Predicate> {
        if self.pushdown {
            self.residual.as_ref()
        } else {
            None
        }
    }
}

/// A cost model over back-ends: static seed profiles priced on the work
/// each (engine, shard) was observed to do.
///
/// An estimate is the seed profile's modelled seconds on the counted work
/// plus a per-round latency charge.  [`CostModel::observe`] records each
/// (engine, shard)'s work profile, which is what lets [`choose_engines`]
/// price every candidate on the counters *it* exhibited — a scan back-end
/// touches every tuple of a bin where an index back-end touches only
/// matches, so pricing both on one shared counter vector would bias the
/// choice.  No wall-clock enters an estimate, and all maps are
/// `BTreeMap`s, so planning is a deterministic function of the observed
/// work.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    seeds: BTreeMap<String, CostProfile>,
    observed: BTreeMap<(String, usize), Metrics>,
    round_trip_sec: f64,
}

impl CostModel {
    /// Seeds (or replaces) one engine's profile: an engine seeds its own,
    /// `model.seed_engine(engine.name(), engine.cost_profile())`.  Engines
    /// without a seed have no estimate, and [`choose_engines`] never picks
    /// them.
    pub fn seed_engine(&mut self, name: &str, profile: CostProfile) {
        self.seeds.insert(name.to_string(), profile);
    }

    /// The seed profile for an engine, if known.
    pub fn seed(&self, engine: &str) -> Option<&CostProfile> {
        self.seeds.get(engine)
    }

    /// The work counters' cost in seconds under the engine's seed
    /// profile, without the per-round latency.  Per-query fixed costs are
    /// charged once per round trip: exact for composed one-round back-ends
    /// (one round per episode) and an upper bound for multi-round ones, so
    /// a batch profile never hides an enclave's per-query setup cost behind
    /// a single fixed charge.
    pub fn modelled(&self, engine: &str, work: &Metrics) -> Option<f64> {
        self.seeds
            .get(engine)
            .map(|p| computation_time_for_queries(work, p, work.round_trips))
    }

    /// Records the work `engine` did on `shard` as its expected workload
    /// there.  Engines without a seed profile are ignored.
    pub fn observe(&mut self, engine: &str, shard: usize, work: &Metrics) {
        if self.seeds.contains_key(engine) {
            self.observed.insert((engine.to_string(), shard), *work);
        }
    }

    /// The observed work profile of an (engine, shard), if any.
    pub fn observed_work(&self, engine: &str, shard: usize) -> Option<&Metrics> {
        self.observed.get(&(engine.to_string(), shard))
    }

    /// Sets the nominal owner↔cloud round-trip latency charged per round
    /// when estimating (0 by default).  This is what makes a composed
    /// one-round back-end beat an otherwise-cheaper multi-round one on a
    /// latency-bound link — the reason composed episodes exist.
    pub fn set_round_trip_cost(&mut self, sec: f64) {
        self.round_trip_sec = sec;
    }

    /// The cost estimate for running `work` through `engine`, in seconds:
    /// modelled computation plus the per-round latency charge; `None` for
    /// engines the model has no seed for.
    pub fn estimate(&self, engine: &str, work: &Metrics) -> Option<f64> {
        self.modelled(engine, work)
            .map(|t| t + work.round_trips as f64 * self.round_trip_sec)
    }

    /// The estimate of an (engine, shard) on its *own* observed work
    /// profile — what [`choose_engines`] ranks candidates by.  `None`
    /// until the pair has been observed (an engine the planner has never
    /// profiled cannot be chosen).
    pub fn estimate_observed(&self, engine: &str, shard: usize) -> Option<f64> {
        let work = self.observed_work(engine, shard)?;
        self.estimate(engine, work)
    }
}

/// One back-end the planner may deploy on a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineCandidate {
    /// The engine's [`SecureSelectionEngine::name`].
    pub name: String,
    /// Whether it hides the cloud-side access pattern (enclave/MPC-class).
    pub hides_access_pattern: bool,
}

impl EngineCandidate {
    /// The candidate describing a concrete engine.
    pub fn of(engine: &dyn SecureSelectionEngine) -> EngineCandidate {
        EngineCandidate {
            name: engine.name().to_string(),
            hides_access_pattern: engine.hides_access_pattern(),
        }
    }
}

/// The planner's decision for one shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardPlan {
    /// The shard this decision covers.
    pub shard: usize,
    /// The chosen engine's name.
    pub engine: String,
    /// Whether the security constraint restricted the pool to
    /// access-pattern-hiding engines on this shard.
    pub oblivious_required: bool,
    /// The cost estimate of the shard's expected workload under the
    /// chosen engine, seconds.
    pub estimated_sec: f64,
}

/// Picks the cheapest eligible engine for every shard.
///
/// `advantage[s]` is the workload-skew linkage advantage the adversary
/// achieves against shard `s`'s episode stream (one entry per shard), and
/// each candidate is priced on the per-(engine, shard) work profile the
/// model observed for it — typically from a pilot run — so a scan back-end
/// pays for the full bins it touches while an index back-end pays only for
/// its matches.  Where `advantage[s] > threshold`, only candidates with
/// `hides_access_pattern` are eligible; picking then minimises the
/// estimate with a deterministic name tie-break.  Candidates
/// the model has never observed on a shard are not eligible there.
pub fn choose_engines(
    model: &CostModel,
    candidates: &[EngineCandidate],
    advantage: &[f64],
    threshold: f64,
) -> Result<Vec<ShardPlan>> {
    let mut plans = Vec::with_capacity(advantage.len());
    for (shard, &adv) in advantage.iter().enumerate() {
        let oblivious_required = adv > threshold;
        let mut best: Option<(f64, &EngineCandidate)> = None;
        for cand in candidates {
            if oblivious_required && !cand.hides_access_pattern {
                continue;
            }
            let Some(est) = model.estimate_observed(&cand.name, shard) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some((best_est, best_cand)) => {
                    est < *best_est || (est == *best_est && cand.name < best_cand.name)
                }
            };
            if better {
                best = Some((est, cand));
            }
        }
        let Some((estimated_sec, cand)) = best else {
            return Err(PdsError::Config(format!(
                "no eligible engine for shard {shard} (advantage {adv:.3} \
                 {} threshold {threshold:.3}, {} candidates)",
                if oblivious_required { ">" } else { "<=" },
                candidates.len()
            )));
        };
        plans.push(ShardPlan {
            shard,
            engine: cand.name.clone(),
            oblivious_required,
            estimated_sec,
        });
    }
    Ok(plans)
}

/// The bin pairs a batch fetches, given `batch` — its distinct pairs the
/// owner-side cache does not serve — and whether the cloud holds a pair's
/// current result (`fresh`, `pds_cloud::BinCache::fresh`).  Every query
/// of the batch is then answered from the fetched streams of its two bins.
///
/// * Each batch pair that is not fresh is fetched as it stands.
/// * The bins those leave uncovered (U) are covered by a maximum matching
///   over fresh pairs (Kuhn's algorithm, sensitive bins tried in index
///   order, each trying its partners in index order), plus one pair per
///   unmatched bin to its lowest-index fresh partner among the batch's
///   bins.
///
/// The cover takes |forced| + |U| − ν(U) pairs, the fewest that cover U
/// (Gallai's identity); once every pair inside the batch's bins is fresh,
/// that is the larger of its two bin counts.  Every pair is a batch pair
/// or fresh, so the fetches show the cloud no result one query per call
/// would not show it.  The cover depends only on the batch's set of pairs
/// and `fresh`, never on arrival order or hash order.  Every bin of U has
/// a fresh partner (the batch pair through it); were one missing, its
/// queries would fail with a typed error when they read their bins.
pub fn bin_cover(batch: &[BinPair], fresh: impl Fn(usize, usize) -> bool) -> Vec<BinPair> {
    let pair = |sensitive_bin, nonsensitive_bin| BinPair {
        sensitive_bin,
        nonsensitive_bin,
    };
    let sensitive: BTreeSet<usize> = batch.iter().map(|p| p.sensitive_bin).collect();
    let nonsensitive: BTreeSet<usize> = batch.iter().map(|p| p.nonsensitive_bin).collect();
    let mut cover: Vec<BinPair> = batch
        .iter()
        .filter(|p| !fresh(p.sensitive_bin, p.nonsensitive_bin))
        .copied()
        .collect();
    let covered_s: BTreeSet<usize> = cover.iter().map(|p| p.sensitive_bin).collect();
    let covered_ns: BTreeSet<usize> = cover.iter().map(|p| p.nonsensitive_bin).collect();
    let uncovered_s: Vec<usize> = sensitive.difference(&covered_s).copied().collect();
    let uncovered_ns: Vec<usize> = nonsensitive.difference(&covered_ns).copied().collect();

    // Kuhn's algorithm over the fresh pairs inside U; `matched[k]` is the
    // position in `uncovered_s` matched to `uncovered_ns[k]`.
    let partners: Vec<Vec<usize>> = uncovered_s
        .iter()
        .map(|&s| {
            (0..uncovered_ns.len())
                .filter(|&k| fresh(s, uncovered_ns[k]))
                .collect()
        })
        .collect();
    let mut matched: Vec<Option<usize>> = vec![None; uncovered_ns.len()];
    for i in 0..uncovered_s.len() {
        augment(
            i,
            &partners,
            &mut matched,
            &mut vec![false; uncovered_ns.len()],
        );
    }
    let mut s_matched = vec![false; uncovered_s.len()];
    for (k, i) in matched.iter().enumerate() {
        if let Some(i) = *i {
            s_matched[i] = true;
            cover.push(pair(uncovered_s[i], uncovered_ns[k]));
        }
    }

    // One pair per unmatched bin.  Its partner is covered already: two
    // unmatched bins of U joined by a fresh pair would extend the matching.
    for (&s, _) in uncovered_s.iter().zip(&s_matched).filter(|(_, m)| !**m) {
        if let Some(&ns) = nonsensitive.iter().find(|&&ns| fresh(s, ns)) {
            cover.push(pair(s, ns));
        }
    }
    for (&ns, _) in uncovered_ns
        .iter()
        .zip(&matched)
        .filter(|(_, m)| m.is_none())
    {
        if let Some(&s) = sensitive.iter().find(|&&s| fresh(s, ns)) {
            cover.push(pair(s, ns));
        }
    }
    cover
}

/// One augmenting-path search of Kuhn's algorithm: matches position `i`
/// of the uncovered sensitive bins, re-matching earlier ones along an
/// alternating path when its partners are taken.  Returns whether it did.
fn augment(
    i: usize,
    partners: &[Vec<usize>],
    matched: &mut [Option<usize>],
    visited: &mut [bool],
) -> bool {
    for &k in &partners[i] {
        if std::mem::replace(&mut visited[k], true) {
            continue;
        }
        if matched[k].map_or(true, |other| augment(other, partners, matched, visited)) {
            matched[k] = Some(i);
            return true;
        }
    }
    false
}

/// Sorts every shard's episode steps into bin-major order
/// (`(sensitive_bin, nonsensitive_bin)` ascending).  Episodes touching the
/// same sensitive bin run back-to-back, and the per-shard step order
/// becomes a function of the batch's bin-pair set rather than of workload
/// arrival order — which is what makes compiled plans replayable across
/// shuffled workloads.  Safe because every query reads its bins after the
/// fan-out, whichever step fetched them.
pub fn reorder_for_locality(plan: &mut QueryPlan) {
    for steps in &mut plan.per_shard {
        steps.sort_by_key(|s| (s.pair.sensitive_bin, s.pair.nonsensitive_bin));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinPair;
    use crate::plan::EpisodeStep;
    use pds_cloud::BinEpisodeRequest;

    fn point_work(encrypted: u64, plaintext: u64) -> Metrics {
        Metrics {
            encrypted_tuples_scanned: encrypted,
            plaintext_tuples_scanned: plaintext,
            plaintext_index_lookups: 1,
            owner_decryptions: encrypted,
            round_trips: 1,
            ..Default::default()
        }
    }

    fn suite_candidates() -> Vec<EngineCandidate> {
        [
            ("det-index", false),
            ("nondet-scan", false),
            ("secret-sharing", false),
            ("dpf", false),
            ("opaque-sim", true),
            ("jana-sim", true),
        ]
        .into_iter()
        .map(|(name, hides)| EngineCandidate {
            name: name.to_string(),
            hides_access_pattern: hides,
        })
        .collect()
    }

    /// A model seeded by the suite's engines themselves.
    fn suite_model() -> CostModel {
        let engines: [Box<dyn SecureSelectionEngine>; 6] = [
            Box::new(pds_systems::DeterministicIndexEngine::new()),
            Box::new(pds_systems::NonDetScanEngine::new()),
            Box::new(pds_systems::SecretSharingEngine::new(3, 5)),
            Box::new(pds_systems::DpfEngine::new(7)),
            Box::new(pds_systems::oblivious::opaque_sim()),
            Box::new(pds_systems::JanaSimEngine::new()),
        ];
        let mut model = CostModel::default();
        for engine in &engines {
            model.seed_engine(engine.name(), engine.cost_profile());
        }
        model
    }

    /// Installs the same pilot work profile for every (candidate, shard).
    fn profile_all(
        model: &mut CostModel,
        candidates: &[EngineCandidate],
        shards: usize,
        work: &Metrics,
    ) {
        for cand in candidates {
            for shard in 0..shards {
                model.observe(&cand.name, shard, work);
            }
        }
    }

    #[test]
    fn benign_shards_get_the_cheap_index() {
        let mut model = suite_model();
        let candidates = suite_candidates();
        profile_all(&mut model, &candidates, 2, &point_work(64, 64));
        let plans = choose_engines(&model, &candidates, &[0.0, 0.1], 0.5).unwrap();
        for plan in &plans {
            assert_eq!(plan.engine, "det-index");
            assert!(!plan.oblivious_required);
        }
    }

    #[test]
    fn hot_shards_are_forced_oblivious() {
        let mut model = suite_model();
        let candidates = suite_candidates();
        profile_all(&mut model, &candidates, 2, &point_work(64, 64));
        let plans = choose_engines(&model, &candidates, &[0.9, 0.1], 0.5).unwrap();
        assert!(plans[0].oblivious_required);
        // Opaque's fixed cost (0.5 s) undercuts Jana's (1.0 s).
        assert_eq!(plans[0].engine, "opaque-sim");
        assert_eq!(plans[1].engine, "det-index");
        assert!(plans[0].estimated_sec > plans[1].estimated_sec);
    }

    #[test]
    fn index_work_profile_beats_scan_work_profile() {
        // The index back-end is priced on its own (small) observed profile
        // and the scan back-end on its own (bin-wide) one — per-candidate
        // profiles are the point of `estimate_observed`.
        let mut model = suite_model();
        let candidates: Vec<EngineCandidate> = suite_candidates()
            .into_iter()
            .filter(|c| c.name == "det-index" || c.name == "nondet-scan")
            .collect();
        model.observe("det-index", 0, &point_work(4, 4));
        model.observe("nondet-scan", 0, &point_work(4096, 4096));
        let plans = choose_engines(&model, &candidates, &[0.0], 0.5).unwrap();
        assert_eq!(plans[0].engine, "det-index");
    }

    /// Only an advantage strictly above the threshold forces an oblivious
    /// engine.  The suite's plan table rests on this boundary: employee
    /// shard 1 measures exactly 0.5.
    #[test]
    fn an_advantage_equal_to_the_threshold_does_not_force_oblivious() {
        let mut model = suite_model();
        let candidates = suite_candidates();
        profile_all(&mut model, &candidates, 2, &point_work(64, 64));
        let advantage = [ADVANTAGE_THRESHOLD, ADVANTAGE_THRESHOLD + 1e-3];
        let plans = choose_engines(&model, &candidates, &advantage, ADVANTAGE_THRESHOLD).unwrap();
        assert!(!plans[0].oblivious_required);
        assert_eq!(plans[0].engine, "det-index");
        assert!(plans[1].oblivious_required);
    }

    #[test]
    fn no_eligible_engine_is_a_config_error() {
        let mut model = suite_model();
        let candidates: Vec<EngineCandidate> = suite_candidates()
            .into_iter()
            .filter(|c| !c.hides_access_pattern)
            .collect();
        profile_all(&mut model, &candidates, 1, &point_work(8, 8));
        let err = choose_engines(&model, &candidates, &[1.0], 0.5);
        assert!(err.is_err());
    }

    #[test]
    fn unobserved_engines_are_not_eligible() {
        let mut model = suite_model();
        // No observations at all: nothing can be chosen anywhere.
        let err = choose_engines(&model, &suite_candidates(), &[0.0], 0.5);
        assert!(err.is_err());
        // Unknown engines have no estimate, and observing one records
        // nothing, so they never win planning.
        let work = point_work(1000, 1000);
        assert_eq!(model.estimate("no-such-engine", &work), None);
        model.observe("no-such-engine", 0, &work);
        assert_eq!(model.observed_work("no-such-engine", 0), None);
        assert_eq!(model.estimate_observed("no-such-engine", 0), None);
    }

    #[test]
    fn equal_cost_ties_break_by_name() {
        let mut model = CostModel::default();
        let profile = CostProfile::det_index();
        model.seed_engine("zeta", profile);
        model.seed_engine("alpha", profile);
        let candidates = vec![
            EngineCandidate {
                name: "zeta".into(),
                hides_access_pattern: false,
            },
            EngineCandidate {
                name: "alpha".into(),
                hides_access_pattern: false,
            },
        ];
        let work = point_work(4, 4);
        model.observe("zeta", 0, &work);
        model.observe("alpha", 0, &work);
        let plans = choose_engines(&model, &candidates, &[0.0], 0.5).unwrap();
        assert_eq!(plans[0].engine, "alpha");
    }

    #[test]
    fn round_trip_cost_penalises_multi_round_backends() {
        let mut model = CostModel::default();
        let profile = CostProfile::det_index();
        model.seed_engine("one-round", profile);
        model.seed_engine("five-round", profile);
        let mut one = point_work(4, 4);
        one.round_trips = 8;
        let mut five = point_work(4, 4);
        five.round_trips = 40;
        model.observe("one-round", 0, &one);
        model.observe("five-round", 0, &five);
        model.set_round_trip_cost(0.01);
        let candidates = vec![
            EngineCandidate {
                name: "five-round".into(),
                hides_access_pattern: false,
            },
            EngineCandidate {
                name: "one-round".into(),
                hides_access_pattern: false,
            },
        ];
        let plans = choose_engines(&model, &candidates, &[0.0], 0.5).unwrap();
        assert_eq!(plans[0].engine, "one-round");
        // The estimate carries the full latency charge for its rounds.
        assert!(plans[0].estimated_sec >= 8.0 * 0.01);
    }

    #[test]
    fn reorder_is_bin_major_and_idempotent() {
        let step = |s: usize, ns: usize| EpisodeStep {
            pair: BinPair {
                sensitive_bin: s,
                nonsensitive_bin: ns,
            },
            shard: 0,
            composed: true,
            request: BinEpisodeRequest::default(),
        };
        let mut plan = QueryPlan::new(1);
        plan.per_shard[0] = vec![step(3, 1), step(1, 2), step(3, 0), step(1, 0)];
        reorder_for_locality(&mut plan);
        let order: Vec<(usize, usize)> = plan.per_shard[0]
            .iter()
            .map(|s| (s.pair.sensitive_bin, s.pair.nonsensitive_bin))
            .collect();
        assert_eq!(order, vec![(1, 0), (1, 2), (3, 0), (3, 1)]);
        let again = format!("{:?}", plan.per_shard[0]);
        reorder_for_locality(&mut plan);
        assert_eq!(format!("{:?}", plan.per_shard[0]), again);
    }

    fn pairs(list: &[(usize, usize)]) -> Vec<BinPair> {
        list.iter()
            .map(|&(sensitive_bin, nonsensitive_bin)| BinPair {
                sensitive_bin,
                nonsensitive_bin,
            })
            .collect()
    }

    fn sorted(cover: Vec<BinPair>) -> Vec<(usize, usize)> {
        let mut out: Vec<_> = cover
            .iter()
            .map(|p| (p.sensitive_bin, p.nonsensitive_bin))
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn cover_fetches_unobserved_pairs_as_they_stand() {
        let batch = pairs(&[(0, 1), (2, 0), (0, 0)]);
        assert_eq!(
            sorted(bin_cover(&batch, |_, _| false)),
            vec![(0, 0), (0, 1), (2, 0)],
            "nothing observed: every distinct pair"
        );
    }

    #[test]
    fn cover_of_fresh_pairs_takes_the_larger_side() {
        // Four sensitive and two non-sensitive bins, every pair fresh: a
        // slot-by-slot rule in batch order takes 5 fetches (each slot but
        // the first brings a new bin), a cover takes 4.  The matching
        // depends on the bins alone, so fetched pairs need not be batch
        // pairs: (0, 1) and (2, 0) are not.
        let batch = pairs(&[(0, 0), (1, 0), (1, 1), (2, 1), (3, 0)]);
        let cover = sorted(bin_cover(&batch, |_, _| true));
        assert_eq!(cover, vec![(0, 1), (1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn cover_uses_a_non_batch_pair_only_when_fresh() {
        // Bin 0 (non-sensitive) was written: its pairs are stale, so the
        // batch pair (0, 0) is fetched as it stands and the unmatched
        // sensitive bin 2 takes its partner 1, not the lower-index 0.
        let batch = pairs(&[(0, 0), (1, 1), (2, 1)]);
        let cover = sorted(bin_cover(&batch, |_, ns| ns != 0));
        assert_eq!(cover, vec![(0, 0), (1, 1), (2, 1)]);
        // Were every pair fresh, two non-batch pairs through bin 0 would be.
        let all_fresh = sorted(bin_cover(&batch, |_, _| true));
        assert_eq!(all_fresh, vec![(0, 1), (1, 0), (2, 0)]);
    }

    #[test]
    fn wire_residual_respects_the_pushdown_switch() {
        let mut cfg = PlannerConfig {
            residual: Some(Predicate::True),
            ..PlannerConfig::default()
        };
        assert!(cfg.wire_residual().is_some());
        cfg.pushdown = false;
        assert!(cfg.wire_residual().is_none());
    }
}
