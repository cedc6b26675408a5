//! The owner-side hot-bin cache under Zipf-skewed query popularity.
//!
//! The paper's η model assumes uniform query popularity; real workloads
//! are skewed, and skew is where an owner-side [`pds_cloud::BinCache`]
//! pays off: the hot values hammer the same bin pairs, so whole
//! decrypted bins served from the owner's cache skip the cloud round
//! trip.  Per skew exponent and cache capacity, the cached answers must
//! equal an uncached run of the same query sequence byte for byte, the
//! hit rate must grow with skew at fixed capacity, and the bytes moved
//! between owner and cloud must shrink.

use pds_bench::deploy::{
    answer_bytes, lineitem, qb_deployment, EncodedAnswers, QbDeployment, SEARCH_ATTR,
};
use pds_cloud::NetworkModel;
use pds_common::{Result, Value};
use pds_storage::{Relation, Tuple};
use pds_systems::NonDetScanEngine;
use pds_workload::QueryWorkload;

/// One (skew, capacity) cell: the cache counters, the traffic, and
/// whether the answers matched the uncached baseline.
#[derive(Debug)]
struct ZipfCachePoint {
    /// Queries executed.
    queries: usize,
    /// Pair retrievals served from the owner-side cache.
    cache_hits: u64,
    /// Pair retrievals that fetched from the cloud.
    cache_misses: u64,
    /// Total bytes moved between owner and cloud over the workload.
    total_bytes: u64,
    /// Query episodes the cloud observed (cache hits record none).
    episodes: usize,
    /// Whether every answer matched the uncached baseline byte for byte.
    matches_uncached: bool,
}

impl ZipfCachePoint {
    /// Fraction of pair retrievals served from cache.
    fn hit_rate(&self) -> f64 {
        self.cache_hits as f64 / (self.cache_hits + self.cache_misses).max(1) as f64
    }
}

/// Answers `queries` on a fresh nondet-scan deployment of `relation` with
/// a `cache_bins`-bin cache; returns the deployment and the encoded
/// answers.
fn answer_cell(
    relation: &Relation,
    cache_bins: usize,
    queries: &[Value],
    seed: u64,
) -> Result<(QbDeployment<NonDetScanEngine>, EncodedAnswers)> {
    let mut dep = qb_deployment(
        relation,
        0.3,
        NonDetScanEngine::new(),
        NetworkModel::paper_wan(),
        seed,
    )?;
    dep.executor.set_cache_capacity(cache_bins);
    let answers: Vec<Vec<Tuple>> = queries
        .iter()
        .map(|q| dep.executor.select(&mut dep.owner, &mut dep.cloud, q))
        .collect::<Result<_>>()?;
    Ok((dep, answer_bytes(&answers)))
}

/// Sweeps `skews` × `capacities` over a `tuples`-row LINEITEM relation,
/// `queries` point queries per cell, comparing every cell with an
/// uncached run of the same skew's query sequence.
fn run(
    tuples: usize,
    skews: &[f64],
    capacities: &[usize],
    queries: usize,
    seed: u64,
) -> Result<Vec<ZipfCachePoint>> {
    let relation = lineitem(tuples, seed);
    let attr = relation.schema().attr_id(SEARCH_ATTR)?;
    let mut out = Vec::with_capacity(skews.len() * capacities.len());
    for &skew in skews {
        let sequence =
            QueryWorkload::zipf(&relation, attr, skew, seed.wrapping_add(1))?.draw(queries);
        let (_, baseline) = answer_cell(&relation, 0, &sequence, seed)?;
        for &cache_bins in capacities {
            let (dep, answers) = answer_cell(&relation, cache_bins, &sequence, seed)?;
            let stats = dep.executor.cache_stats();
            out.push(ZipfCachePoint {
                queries: sequence.len(),
                cache_hits: stats.hits,
                cache_misses: stats.misses,
                total_bytes: dep.cloud.metrics().total_bytes(),
                episodes: dep.cloud.adversarial_view().len(),
                matches_uncached: answers == baseline,
            });
        }
    }
    Ok(out)
}

#[test]
fn hit_rate_grows_with_skew_and_answers_match() {
    let points = run(1_600, &[0.0, 0.8, 1.1], &[6], 96, 42).unwrap();
    assert_eq!(points.len(), 3);
    assert!(
        points.iter().all(|p| p.matches_uncached),
        "cached answers diverged: {points:?}"
    );
    assert!(
        points[0].hit_rate() < points[1].hit_rate() && points[1].hit_rate() < points[2].hit_rate(),
        "hit rate must grow monotonically with skew: {:?}",
        points
            .iter()
            .map(ZipfCachePoint::hit_rate)
            .collect::<Vec<_>>()
    );
    assert!(
        points[0].total_bytes > points[1].total_bytes
            && points[1].total_bytes > points[2].total_bytes,
        "bytes moved must shrink with skew: {points:?}"
    );
    for p in &points {
        assert_eq!(p.cache_hits + p.cache_misses, p.queries as u64);
        assert_eq!(p.episodes as u64, p.cache_misses, "one episode per miss");
    }
}

#[test]
fn capacity_zero_never_hits() {
    let points = run(1_600, &[1.1], &[0, 16], 48, 42).unwrap();
    assert_eq!(points[0].cache_hits, 0);
    assert_eq!(points[0].cache_misses, 48);
    assert!(points[1].cache_hits > 0, "warm cache must hit at s=1.1");
    assert!(points[1].total_bytes < points[0].total_bytes);
}
