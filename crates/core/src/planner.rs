//! Cost-based query planning: choose the engine per shard, don't obey it.
//!
//! The PR-5 pipeline compiled batches into [`QueryPlan`]s but *obeyed* the
//! deployment: whatever engine a shard had been outsourced through served
//! every episode, in workload arrival order.  This module turns that
//! pipeline into a real optimizer with three decisions:
//!
//! 1. **Engine choice per shard** ([`choose_engines`]) — a [`CostModel`]
//!    seeded from each back-end's static
//!    [`pds_systems::cost::CostProfile`] and *calibrated* against measured
//!    executions (scale factors learned from `Metrics`-delta vs wall-clock
//!    observations) picks the cheapest engine for each shard's expected
//!    workload.  Security is a constraint, not an objective: where the
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
//! 3. **Episode reordering** ([`reorder_for_locality`]) — each shard's
//!    episode steps are stably reordered into bin-major order, so episodes
//!    touching the same sensitive bin pipeline back-to-back and the plan a
//!    batch compiles to is a deterministic function of its *set* of bin
//!    pairs rather than of workload arrival order.  Results are keyed by
//!    query index, and the cloud's security views are set-based, so
//!    reordering changes neither answers nor the adversary's view.

use std::collections::BTreeMap;

use pds_cloud::Metrics;
use pds_common::{PdsError, Result};
use pds_storage::Predicate;
use pds_systems::cost::{computation_time_for_queries, CostProfile};
use pds_systems::SecureSelectionEngine;

use crate::plan::QueryPlan;

/// Calibration scales are clamped to this band: a single noisy pilot
/// measurement (debug builds, loaded CI machines) must not be able to
/// invert the ordering between back-ends whose modelled costs differ by
/// orders of magnitude.
const SCALE_CLAMP: (f64, f64) = (0.1, 10.0);

/// How the executor's planner behaves for every compiled episode.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannerConfig {
    /// Workload-skew linkage advantage above which a shard must be served
    /// by an access-pattern-hiding back-end
    /// (see `pds_adversary::WorkloadSkewOutcome::advantage`).
    pub advantage_threshold: f64,
    /// Stably reorder each shard's episodes into bin-major order.
    pub reorder: bool,
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
            // A naive deployment links values perfectly at advantage 1.0;
            // QB's bin-level anonymity keeps measured advantage well under
            // this on every suite workload, so the default only forces
            // oblivious engines where linkage is demonstrably strong.
            advantage_threshold: 0.5,
            reorder: true,
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

/// One measured per-(engine, shard) observation: the work profile the
/// engine exhibited on that shard plus the calibration scale learned from
/// the accompanying wall-clock measurement.
#[derive(Debug, Clone)]
struct Calibration {
    work: Metrics,
    scale: f64,
}

/// A cost model over back-ends: static seed profiles refined by measured
/// per-(engine, shard) work profiles and calibration scales.
///
/// Estimates are `seed_modelled_seconds × scale(engine, shard)` where the
/// scale starts at 1.0 and is learned by [`CostModel::observe`] from pairs
/// of (counted work, measured seconds).  `observe` also records the work
/// profile itself, which is what lets [`choose_engines`] price every
/// candidate on the counters *it* exhibited — a scan back-end touches
/// every tuple of a bin where an index back-end touches only matches, so
/// pricing both on one shared counter vector would bias the choice.  All
/// maps are `BTreeMap`s so iteration — and therefore planning — is
/// deterministic.
#[derive(Debug, Clone, Default)]
pub struct CostModel {
    seeds: BTreeMap<String, CostProfile>,
    calib: BTreeMap<(String, usize), Calibration>,
    round_trip_sec: f64,
}

impl CostModel {
    /// A model seeded with the named engines' static profiles.  Names
    /// without a shipped profile are skipped (estimates for them return
    /// `None`, and [`choose_engines`] will never pick them).
    pub fn seeded(names: &[&str]) -> CostModel {
        let mut model = CostModel::default();
        for name in names {
            if let Some(profile) = CostProfile::for_engine(name) {
                model.seeds.insert((*name).to_string(), profile);
            }
        }
        model
    }

    /// Seeds (or replaces) one engine's profile explicitly.
    pub fn seed_engine(&mut self, name: &str, profile: CostProfile) {
        self.seeds.insert(name.to_string(), profile);
    }

    /// The seed profile for an engine, if known.
    pub fn seed(&self, engine: &str) -> Option<&CostProfile> {
        self.seeds.get(engine)
    }

    /// The work counters' cost in seconds under the engine's *seed*
    /// profile, before calibration.  Per-query fixed costs are charged
    /// once per round trip: exact for composed one-round back-ends (one
    /// round per episode) and an upper bound for multi-round ones, so a
    /// batch profile never hides an enclave's per-query setup cost behind
    /// a single fixed charge.
    pub fn modelled(&self, engine: &str, work: &Metrics) -> Option<f64> {
        self.seeds
            .get(engine)
            .map(|p| computation_time_for_queries(work, p, work.round_trips))
    }

    /// Records one measured execution of `engine` on `shard`: the work
    /// profile is kept as the engine's expected workload there, and the
    /// calibration scale becomes `measured / modelled`, clamped to one
    /// order of magnitude each way.  Engines without a seed profile are
    /// ignored; a degenerate measurement (non-positive, non-finite, or
    /// negligible modelled cost) still records the work profile but leaves
    /// the scale at 1.0 — it carries no timing signal, only division
    /// noise.
    pub fn observe(&mut self, engine: &str, shard: usize, work: &Metrics, measured_sec: f64) {
        let Some(modelled) = self.modelled(engine, work) else {
            return;
        };
        let scale = if modelled <= f64::EPSILON || !measured_sec.is_finite() || measured_sec <= 0.0
        {
            1.0
        } else {
            (measured_sec / modelled).clamp(SCALE_CLAMP.0, SCALE_CLAMP.1)
        };
        self.calib.insert(
            (engine.to_string(), shard),
            Calibration { work: *work, scale },
        );
    }

    /// The calibration scale in force for an (engine, shard): 1.0 until
    /// [`CostModel::observe`] has seen a measurement for it.
    pub fn scale(&self, engine: &str, shard: usize) -> f64 {
        self.calib
            .get(&(engine.to_string(), shard))
            .map_or(1.0, |c| c.scale)
    }

    /// The measured work profile of an (engine, shard), if observed.
    pub fn observed_work(&self, engine: &str, shard: usize) -> Option<&Metrics> {
        self.calib
            .get(&(engine.to_string(), shard))
            .map(|c| &c.work)
    }

    /// Sets the nominal owner↔cloud round-trip latency charged per round
    /// when estimating (0 by default).  This is what makes a composed
    /// one-round back-end beat an otherwise-cheaper multi-round one on a
    /// latency-bound link — the reason composed episodes exist.
    pub fn set_round_trip_cost(&mut self, sec: f64) {
        self.round_trip_sec = sec;
    }

    /// The per-round latency charge in force.
    pub fn round_trip_cost(&self) -> f64 {
        self.round_trip_sec
    }

    /// The calibrated cost estimate for running `work` on `shard` through
    /// `engine`, in seconds: calibrated computation plus the per-round
    /// latency charge; `None` for engines the model has no seed for.
    pub fn estimate(&self, engine: &str, shard: usize, work: &Metrics) -> Option<f64> {
        self.modelled(engine, work)
            .map(|t| t * self.scale(engine, shard) + work.round_trips as f64 * self.round_trip_sec)
    }

    /// The calibrated estimate of an (engine, shard) on its *own* observed
    /// work profile — what [`choose_engines`] ranks candidates by.  `None`
    /// until the pair has been observed (an engine the planner has never
    /// profiled cannot be chosen).
    pub fn estimate_observed(&self, engine: &str, shard: usize) -> Option<f64> {
        let work = self.observed_work(engine, shard)?;
        self.estimate(engine, shard, work)
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
    /// The calibrated cost estimate of the shard's expected workload under
    /// the chosen engine, seconds.
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
/// calibrated estimate with a deterministic name tie-break.  Candidates
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

/// Stably reorders every shard's episode steps into bin-major order
/// (`(sensitive_bin, nonsensitive_bin)` ascending).  Episodes touching the
/// same sensitive bin run back-to-back, and the per-shard step order
/// becomes a function of the batch's bin-pair set rather than of workload
/// arrival order — which is what makes compiled plans replayable across
/// shuffled workloads.  Safe because every step carries the query index
/// its result answers.
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

    fn suite_model() -> CostModel {
        CostModel::seeded(&[
            "det-index",
            "nondet-scan",
            "secret-sharing",
            "dpf",
            "opaque-sim",
            "jana-sim",
        ])
    }

    /// Installs the same pilot work profile for every (candidate, shard)
    /// with measured == modelled, i.e. scale 1.0 everywhere.
    fn profile_all(
        model: &mut CostModel,
        candidates: &[EngineCandidate],
        shards: usize,
        work: &Metrics,
    ) {
        for cand in candidates {
            for shard in 0..shards {
                let measured = model.modelled(&cand.name, work).unwrap_or(0.0);
                model.observe(&cand.name, shard, work, measured);
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
        model.observe("det-index", 0, &point_work(4, 4), 0.0);
        model.observe("nondet-scan", 0, &point_work(4096, 4096), 0.0);
        let plans = choose_engines(&model, &candidates, &[0.0], 0.5).unwrap();
        assert_eq!(plans[0].engine, "det-index");
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
        let model = suite_model();
        // No observations at all: nothing can be chosen anywhere.
        let err = choose_engines(&model, &suite_candidates(), &[0.0], 0.5);
        assert!(err.is_err());
    }

    #[test]
    fn calibration_moves_estimates_and_is_clamped() {
        let mut model = suite_model();
        let work = point_work(1000, 1000);
        let base = model.estimate("det-index", 0, &work).unwrap();
        model.observe("det-index", 0, &work, base * 3.0);
        let calibrated = model.estimate("det-index", 0, &work).unwrap();
        assert!((calibrated - base * 3.0).abs() < base * 1e-6);
        // Other shards stay at the seed.
        assert_eq!(model.estimate("det-index", 1, &work), Some(base));
        // A wild measurement cannot move the scale past one decade.
        model.observe("det-index", 0, &work, base * 1e6);
        assert!((model.scale("det-index", 0) - 10.0).abs() < 1e-12);
        // Unknown engines have no estimate and never win planning.
        assert_eq!(model.estimate("no-such-engine", 0, &work), None);
        model.observe("no-such-engine", 0, &work, 1.0);
        assert_eq!(model.scale("no-such-engine", 0), 1.0);
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
        model.observe("zeta", 0, &work, 0.0);
        model.observe("alpha", 0, &work, 0.0);
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
        model.observe("one-round", 0, &one, 0.0);
        model.observe("five-round", 0, &five, 0.0);
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
    fn reorder_is_bin_major_stable_and_index_preserving() {
        let step = |index: usize, s: usize, ns: usize| EpisodeStep {
            index,
            pair: BinPair {
                sensitive_bin: s,
                nonsensitive_bin: ns,
            },
            shard: 0,
            composed: true,
            request: BinEpisodeRequest::default(),
        };
        let mut plan = QueryPlan::new(1);
        plan.per_shard[0] = vec![step(0, 3, 1), step(1, 1, 2), step(2, 3, 0), step(3, 1, 2)];
        reorder_for_locality(&mut plan);
        let order: Vec<(usize, usize, usize)> = plan.per_shard[0]
            .iter()
            .map(|s| (s.pair.sensitive_bin, s.pair.nonsensitive_bin, s.index))
            .collect();
        // Bin-major; the two (1,2) steps keep their relative (stable) order.
        assert_eq!(order, vec![(1, 2, 1), (1, 2, 3), (3, 0, 2), (3, 1, 0)]);
        let again = format!("{:?}", plan.per_shard[0]);
        reorder_for_locality(&mut plan);
        assert_eq!(format!("{:?}", plan.per_shard[0]), again);
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
