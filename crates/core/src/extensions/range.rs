//! Range queries over a QB deployment.
//!
//! A range `[lo, hi]` is answered by (1) looking up, in the owner-side
//! metadata, which known values of the searchable attribute fall inside the
//! range, (2) collecting the distinct bin pairs Algorithm 2 assigns to those
//! values, and (3) retrieving them as one batch, which fetches a minimum
//! cover of their bins.  Every retrieval is indistinguishable from a point
//! query, so the adversarial view of a range query is a sequence of
//! point-query episodes — the leakage is bounded by the bin pairs touched,
//! never by the individual values.

use std::collections::HashSet;

use pds_cloud::{BinRoutedCloud, BinTransport, DbOwner};
use pds_common::{Result, Value};
use pds_storage::Tuple;
use pds_systems::SecureSelectionEngine;

use crate::binning::BinPair;
use crate::executor::QbExecutor;

/// Answers `lo <= attr <= hi` over a QB deployment (single-server or
/// sharded — each bin pair is fetched from the shard hosting it) in one
/// batch over [`BinTransport::Sequential`].  A first range fetches each of
/// its distinct pairs; once they have all been fetched, a range over every
/// value takes as many episodes as the larger side has bins.
pub fn select_range<E: SecureSelectionEngine, C: BinRoutedCloud>(
    executor: &mut QbExecutor<E>,
    owner: &mut DbOwner,
    cloud: &mut C,
    lo: &Value,
    hi: &Value,
) -> Result<Vec<Tuple>> {
    // Values of the searchable attribute inside the range, straight off the
    // owner-side metadata's memoized sorted domain (no cloud interaction and
    // no per-query clone-and-sort).  Collect their distinct bin pairs.
    let mut pairs: Vec<Option<BinPair>> = Vec::new();
    for v in executor.binning().all_values() {
        if v < lo || v > hi {
            continue;
        }
        let pair = executor.binning().retrieve(v);
        if pair.is_some() && !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }

    // One batch; each pair's answer is filtered owner-side to the range,
    // and a tuple two pairs share is kept once.
    let run = executor.run_pairs(owner, cloud, &pairs, &BinTransport::Sequential, |_, v| {
        v >= lo && v <= hi
    })?;
    let mut seen = HashSet::new();
    Ok(run
        .answers
        .into_iter()
        .flatten()
        .filter(|t| seen.insert(t.id))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::{BinningConfig, QueryBinning};
    use pds_cloud::{CloudServer, NetworkModel};
    use pds_storage::{DataType, Partitioner, Predicate, Relation, Schema};
    use pds_systems::NonDetScanEngine;

    fn salary_relation() -> Relation {
        let schema =
            Schema::from_pairs(&[("Salary", DataType::Int), ("Name", DataType::Text)]).unwrap();
        let mut r = Relation::new("Payroll", schema);
        for i in 0..40i64 {
            r.insert(vec![Value::Int(i * 10), Value::from(format!("emp{i}"))])
                .unwrap();
        }
        r
    }

    fn setup() -> (DbOwner, CloudServer, QbExecutor<NonDetScanEngine>) {
        let rel = salary_relation();
        // Salaries below 200 are sensitive.
        let pred = Predicate::range(rel.schema(), "Salary", 0, 190).unwrap();
        let parts = Partitioner::row_level(pred).split(&rel).unwrap();
        let binning = QueryBinning::build(&parts, "Salary", BinningConfig::default()).unwrap();
        let mut exec = QbExecutor::new(binning, NonDetScanEngine::new());
        let mut owner = DbOwner::new(91);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        exec.outsource(&mut owner, &mut cloud, &parts).unwrap();
        (owner, cloud, exec)
    }

    #[test]
    fn range_spanning_both_partitions() {
        let (mut owner, mut cloud, mut exec) = setup();
        // [150, 250] covers sensitive salaries 150..190 and non-sensitive 200..250.
        let out = select_range(
            &mut exec,
            &mut owner,
            &mut cloud,
            &Value::Int(150),
            &Value::Int(250),
        )
        .unwrap();
        let mut salaries: Vec<i64> = out.iter().map(|t| t.values[0].as_int().unwrap()).collect();
        salaries.sort_unstable();
        assert_eq!(
            salaries,
            vec![150, 160, 170, 180, 190, 200, 210, 220, 230, 240, 250]
        );
    }

    #[test]
    fn empty_range_returns_nothing() {
        let (mut owner, mut cloud, mut exec) = setup();
        let out = select_range(
            &mut exec,
            &mut owner,
            &mut cloud,
            &Value::Int(10_000),
            &Value::Int(20_000),
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn range_results_have_no_duplicates() {
        let (mut owner, mut cloud, mut exec) = setup();
        let out = select_range(
            &mut exec,
            &mut owner,
            &mut cloud,
            &Value::Int(0),
            &Value::Int(390),
        )
        .unwrap();
        assert_eq!(out.len(), 40);
        let ids: std::collections::HashSet<_> = out.iter().map(|t| t.id).collect();
        assert_eq!(ids.len(), 40);
    }

    #[test]
    fn consecutive_range_queries_reuse_the_sorted_domain() {
        // Regression: `select_range` used to call `all_values()` per query,
        // which cloned and re-sorted the entire value domain each time.  The
        // domain is now memoized at binning build time, so two consecutive
        // range queries observe the identical buffer through the cached
        // accessor (a fresh sort would allocate anew on every call).
        let (mut owner, mut cloud, mut exec) = setup();
        let before = exec.binning().all_values().as_ptr();
        for _ in 0..2 {
            select_range(
                &mut exec,
                &mut owner,
                &mut cloud,
                &Value::Int(100),
                &Value::Int(200),
            )
            .unwrap();
            assert!(
                std::ptr::eq(before, exec.binning().all_values().as_ptr()),
                "range execution must not rebuild the sorted domain"
            );
        }
    }

    #[test]
    fn range_episodes_look_like_point_queries() {
        let (mut owner, mut cloud, mut exec) = setup();
        let before = cloud.adversarial_view().len();
        select_range(
            &mut exec,
            &mut owner,
            &mut cloud,
            &Value::Int(100),
            &Value::Int(160),
        )
        .unwrap();
        let after = cloud.adversarial_view().len();
        // One episode per distinct bin pair, each shaped like a point query.
        assert!(after > before);
        for ep in &cloud.adversarial_view().episodes()[before..] {
            assert!(ep.plaintext_request.len() <= exec.binning().shape().nonsensitive_bin_capacity);
        }
    }
}
