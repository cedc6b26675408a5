//! Heterogeneous-shard experiment: a different secure back-end per shard.
//!
//! The sharded deployments of earlier experiments fork one engine kind
//! across every shard.  This experiment runs a genuinely **mixed** fleet —
//! by default deterministic-index, No-Ind scan, Arx counter tokens and the
//! Opaque simulator, cycled over the shards — against the exhaustive
//! workload, and checks end to end that heterogeneity is invisible to the
//! application and to the security definition:
//!
//! * answers are **byte-identical** to a homogeneous single-server
//!   baseline;
//! * partitioned data security holds on **every shard's own view** and on
//!   the **composed** coalition view;
//! * every episode crosses the wire in the shape its shard's back-end
//!   needs, visible in the per-shard frame counters: one `FetchBinRequest`
//!   per episode on every shard, in one round where the cloud resolves
//!   the tokens (det-index, arx, the Opaque simulator), and on the No-Ind
//!   shard after a column download whose request is one `Opaque` frame.

use pds_adversary::check_sharded_partitioned_security;
use pds_cloud::{msg_tag, BinTransport, NetworkModel};
use pds_common::{PdsError, Result};
use pds_systems::{
    oblivious, ArxEngine, DeterministicIndexEngine, NonDetScanEngine, SecureSelectionEngine,
};

use crate::deploy::{answer_bytes, hetero_qb_deployment, lineitem, qb_deployment};

/// Per-shard observations of one heterogeneous run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroShard {
    /// Shard index.
    pub shard: usize,
    /// Name of the back-end serving this shard.
    pub engine: &'static str,
    /// Episodes this shard served.
    pub episodes: usize,
    /// Owner↔cloud rounds this shard served.
    pub rounds: u64,
    /// `Opaque` request frames of locating rounds this shard saw (the
    /// No-Ind column download; none where one request is the episode).
    pub locate_frames: u64,
    /// `FetchBinRequest` frames this shard saw.
    pub fetch_frames: u64,
    /// Bytes this shard moved (measured frame lengths).
    pub bytes: u64,
}

/// The outcome of one heterogeneous-shard run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeteroOutcome {
    /// Shards in the deployment.
    pub shards: usize,
    /// Queries executed (exhaustive workload).
    pub queries: usize,
    /// Queries answered beyond one per episode: the batch fetches a
    /// minimum cover of its queries' bins, and every query reads its two
    /// bins from the fetched streams.
    pub batch_served: usize,
    /// Distinct back-end kinds deployed.
    pub distinct_engines: usize,
    /// Per-shard observations.
    pub per_shard: Vec<HeteroShard>,
    /// Whether every answer was byte-identical to the homogeneous
    /// single-server baseline.
    pub exact: bool,
    /// Whether partitioned data security held per shard and composed.
    pub secure: bool,
    /// Whether every shard served each episode with exactly one
    /// `FetchBinRequest`, after no locating round or after exactly one per
    /// episode.
    pub paths_consistent: bool,
}

impl HeteroOutcome {
    /// The gate `experiments hetero` enforces.
    pub fn holds(&self) -> bool {
        self.exact && self.secure && self.paths_consistent && self.distinct_engines >= 2
    }
}

/// The default mixed fleet, cycled over `shards` shards: det-index, No-Ind
/// scan, Arx and the Opaque simulator — three one-round back-ends and one
/// that locates its rows by address first.
pub fn default_engines(shards: usize) -> Vec<Box<dyn SecureSelectionEngine>> {
    (0..shards)
        .map(|i| -> Box<dyn SecureSelectionEngine> {
            match i % 4 {
                0 => Box::new(DeterministicIndexEngine::new()),
                1 => Box::new(NonDetScanEngine::new()),
                2 => Box::new(ArxEngine::new()),
                _ => Box::new(oblivious::opaque_sim()),
            }
        })
        .collect()
}

/// Runs the mixed-engine deployment over `shards` shards of a
/// `tuples`-row pseudo-TPC-H relation on the exhaustive workload and
/// compares it end to end against a homogeneous single-server baseline.
pub fn run(tuples: usize, shards: usize, seed: u64) -> Result<HeteroOutcome> {
    if shards < 2 {
        return Err(PdsError::Config(
            "a heterogeneous deployment needs at least 2 shards".into(),
        ));
    }
    let relation = lineitem(tuples, seed);

    // Homogeneous single-server baseline for the reference answers.
    let mut baseline = qb_deployment(
        &relation,
        0.3,
        NonDetScanEngine::new(),
        NetworkModel::paper_wan(),
        seed,
    )?;
    let workload = baseline.workload(seed.wrapping_add(1))?.exhaustive();
    let expected = answer_bytes(
        &workload
            .iter()
            .map(|v| {
                baseline
                    .executor
                    .select(&mut baseline.owner, &mut baseline.cloud, v)
            })
            .collect::<Result<Vec<_>>>()?,
    );

    // The heterogeneous deployment under test.
    let mut dep = hetero_qb_deployment(
        &relation,
        0.3,
        default_engines(shards),
        NetworkModel::paper_wan(),
        seed,
    )?;
    let before = dep.router.shard_metrics();
    let run = dep.executor.run_workload_transported(
        &mut dep.owner,
        &mut dep.router,
        &workload,
        &BinTransport::Sequential,
    )?;
    let exact = answer_bytes(&run.answers) == expected;
    let secure = check_sharded_partitioned_security(&dep.router.adversarial_views()).is_secure();

    let mut per_shard = Vec::with_capacity(shards);
    let mut paths_consistent = true;
    for (idx, shard) in dep.router.shards().iter().enumerate() {
        let engine = &dep.executor.shard_engines()[idx];
        let delta = shard.metrics().delta_since(&before[idx]);
        let episodes = shard.adversarial_view().len() as u64;
        let locate_frames = delta.frames_of_type(msg_tag::OPAQUE);
        let fetch_frames = delta.frames_of_type(msg_tag::FETCH_BIN_REQUEST);
        // Every episode ends in exactly one combined request, after no
        // locating round or after one: rounds are the requests plus the
        // locating frames.
        paths_consistent &= fetch_frames == episodes
            && (locate_frames == 0 || locate_frames == episodes)
            && delta.round_trips == episodes + locate_frames;
        per_shard.push(HeteroShard {
            shard: idx,
            engine: engine.name(),
            episodes: episodes as usize,
            rounds: delta.round_trips,
            locate_frames,
            fetch_frames,
            bytes: delta.total_bytes(),
        });
    }
    let mut names: Vec<&'static str> = per_shard.iter().map(|s| s.engine).collect();
    names.sort_unstable();
    names.dedup();

    Ok(HeteroOutcome {
        shards,
        queries: workload.len(),
        batch_served: run.cache_hits,
        distinct_engines: names.len(),
        per_shard,
        exact,
        secure,
        paths_consistent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_fleet_is_exact_secure_and_splits_paths() {
        let outcome = run(1_200, 4, 42).unwrap();
        assert_eq!(outcome.shards, 4);
        assert_eq!(outcome.per_shard.len(), 4);
        assert!(outcome.queries > 0);
        assert!(outcome.exact, "{outcome:?}");
        assert!(outcome.secure, "{outcome:?}");
        assert!(outcome.paths_consistent, "{outcome:?}");
        assert_eq!(outcome.distinct_engines, 4);
        assert!(outcome.holds());
        // The default fleet cycles det-index, nondet-scan, arx, opaque-sim.
        let names: Vec<&str> = outcome.per_shard.iter().map(|s| s.engine).collect();
        assert_eq!(
            names,
            vec!["det-index", "nondet-scan", "arx-index", "opaque-sim"]
        );
        // The whole workload is accounted for: the episodes plus the
        // queries answered beyond one per episode.
        let episodes: usize = outcome.per_shard.iter().map(|s| s.episodes).sum();
        assert_eq!(episodes + outcome.batch_served, outcome.queries);
        // Every shard sends one FetchBinRequest per episode: in one round
        // on the tag and enclave shards, after a column download on the
        // No-Ind shard.
        for s in &outcome.per_shard {
            let locating = if s.engine == "nondet-scan" {
                s.episodes
            } else {
                0
            };
            assert_eq!(s.locate_frames as usize, locating, "{s:?}");
            assert_eq!(s.fetch_frames as usize, s.episodes, "{s:?}");
            assert_eq!(s.rounds as usize, s.episodes + locating, "{s:?}");
        }
    }

    #[test]
    fn single_shard_is_rejected() {
        assert!(run(800, 1, 42).is_err());
    }

    #[test]
    fn default_fleet_cycles_and_mixes() {
        let names: Vec<&str> = default_engines(6).iter().map(|e| e.name()).collect();
        // Three one-round back-ends and the two-round No-Ind scan, cycled.
        assert_eq!(
            names,
            [
                "det-index",
                "nondet-scan",
                "arx-index",
                "opaque-sim",
                "det-index",
                "nondet-scan"
            ]
        );
    }
}
