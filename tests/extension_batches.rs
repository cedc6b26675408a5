//! The range, aggregate and join extensions each run as one batch.
//!
//! Over a two-shard det-index deployment of a small LINEITEM, each
//! extension's answers must equal, byte for byte, what one point query per
//! value returns on an identical deployment.  And a batch fetches a
//! minimum cover of its bins: a first range over every value fetches each
//! distinct bin pair once, and once the cloud has seen every pair of
//! S × NS fetched, the same range takes max(|SB|, |NSB|) episodes, not one
//! per pair.

use std::collections::{BTreeMap, HashSet};

use partitioned_data_security::core::extensions::GroupAggregate;
use partitioned_data_security::prelude::*;
use partitioned_data_security::storage::PartitionedRelation;

#[allow(dead_code)]
mod common;
use common::answer_bytes;

const SHARDS: usize = 2;

/// A LINEITEM split on `L_PARTKEY` at sensitivity 0.3.
fn lineitem(seed: u64) -> PartitionedRelation {
    let relation = TpchGenerator::new(TpchConfig {
        lineitem_tuples: 240,
        distinct_partkeys: 60,
        distinct_suppkeys: 4,
        skew: 0.0,
        seed,
    })
    .lineitem();
    let attr = relation.schema().attr_id("L_PARTKEY").unwrap();
    let policy = SensitivityAssigner::new(seed)
        .by_value_fraction(&relation, attr, 0.3)
        .unwrap();
    Partitioner::new(policy).split(&relation).unwrap()
}

struct Deployment {
    owner: DbOwner,
    router: ShardRouter,
    executor: QbExecutor<DeterministicIndexEngine>,
}

impl Deployment {
    fn new(parts: &PartitionedRelation) -> Self {
        let binning = QueryBinning::build(parts, "L_PARTKEY", BinningConfig::default()).unwrap();
        let mut executor = QbExecutor::new(binning, DeterministicIndexEngine::new());
        let mut owner = DbOwner::new(23);
        let mut router = ShardRouter::new(SHARDS, NetworkModel::paper_wan(), 9).unwrap();
        executor.outsource(&mut owner, &mut router, parts).unwrap();
        Deployment {
            owner,
            router,
            executor,
        }
    }

    /// One point query per value, one call each.
    fn per_value(&mut self, values: &[Value]) -> Vec<Vec<Tuple>> {
        values
            .iter()
            .map(|v| {
                self.executor
                    .select(&mut self.owner, &mut self.router, v)
                    .unwrap()
            })
            .collect()
    }

    fn range(&mut self, lo: &Value, hi: &Value) -> Vec<Tuple> {
        select_range(
            &mut self.executor,
            &mut self.owner,
            &mut self.router,
            lo,
            hi,
        )
        .unwrap()
    }

    /// Episodes recorded on every shard so far.
    fn episodes(&self) -> usize {
        self.router
            .adversarial_views()
            .iter()
            .map(|view| view.len())
            .sum()
    }
}

#[test]
fn extension_answers_equal_one_point_query_per_value() {
    let parts = lineitem(3);
    let values = QueryBinning::build(&parts, "L_PARTKEY", BinningConfig::default())
        .unwrap()
        .all_values()
        .to_vec();
    let (lo, hi) = (&values[values.len() / 4], &values[3 * values.len() / 4]);
    let inside: Vec<Value> = values
        .iter()
        .filter(|v| *v >= lo && *v <= hi)
        .cloned()
        .collect();

    // Range.
    let mut reference = Deployment::new(&parts);
    let want: Vec<Tuple> = reference.per_value(&inside).into_iter().flatten().collect();
    let got = Deployment::new(&parts).range(lo, hi);
    assert!(!got.is_empty());
    assert_eq!(answer_bytes(&got), answer_bytes(&want), "range");

    // Aggregate, over groups with a repeat and a value held nowhere; the
    // repeated group counts once, as `WHERE group IN (…)` does.
    let quantity = parts.sensitive.schema().attr_id("L_QUANTITY").unwrap();
    let mut groups: Vec<Value> = values.iter().step_by(3).cloned().collect();
    groups.push(groups[0].clone());
    groups.push(Value::Int(1_000_000));
    let mut want: BTreeMap<Value, GroupAggregate> = BTreeMap::new();
    for (group, tuples) in groups
        .iter()
        .zip(Deployment::new(&parts).per_value(&groups))
    {
        if want.contains_key(group) {
            continue;
        }
        let entry = want.entry(group.clone()).or_default();
        for t in tuples {
            let x = t.value(quantity).as_int().unwrap();
            entry.count += 1;
            entry.sum += x;
            entry.min = Some(entry.min.map_or(x, |m| m.min(x)));
            entry.max = Some(entry.max.map_or(x, |m| m.max(x)));
        }
    }
    let mut dep = Deployment::new(&parts);
    let got = group_by_aggregate(
        &mut dep.executor,
        &mut dep.owner,
        &mut dep.router,
        &groups,
        quantity,
    )
    .unwrap();
    assert_eq!(got, want, "aggregate");

    // Join with a second LINEITEM whose part keys partly overlap.
    let right_parts = lineitem(4);
    let join_values: Vec<Value> = values.iter().step_by(2).cloned().collect();
    let (mut left_ref, mut right_ref) = (Deployment::new(&parts), Deployment::new(&right_parts));
    let mut want: Vec<(Tuple, Tuple)> = Vec::new();
    for v in &join_values {
        let l = left_ref.per_value(std::slice::from_ref(v)).remove(0);
        if l.is_empty() {
            continue;
        }
        let r = right_ref.per_value(std::slice::from_ref(v)).remove(0);
        for lt in &l {
            for rt in &r {
                want.push((lt.clone(), rt.clone()));
            }
        }
    }
    let (mut left, mut right) = (Deployment::new(&parts), Deployment::new(&right_parts));
    let got = equi_join(
        &mut left.executor,
        &mut left.owner,
        &mut left.router,
        &mut right.executor,
        &mut right.owner,
        &mut right.router,
        &join_values,
    )
    .unwrap();
    assert!(!got.is_empty());
    let bytes = |pairs: &[(Tuple, Tuple)]| -> Vec<(Vec<u8>, Vec<u8>)> {
        pairs
            .iter()
            .map(|(l, r)| (l.encode(), r.encode()))
            .collect()
    };
    assert_eq!(bytes(&got), bytes(&want), "join, in join-value order");
}

#[test]
fn a_range_over_a_co_observed_grid_takes_the_larger_bin_count() {
    let parts = lineitem(3);
    let mut dep = Deployment::new(&parts);
    let binning = dep.executor.binning();
    let (sb, nsb) = (
        binning.sensitive_bin_count(),
        binning.nonsensitive_bin_count(),
    );
    let values = binning.all_values().to_vec();
    let pairs: HashSet<(usize, usize)> = values
        .iter()
        .filter_map(|v| binning.retrieve(v))
        .map(|p| (p.sensitive_bin, p.nonsensitive_bin))
        .collect();
    assert_eq!(
        pairs.len(),
        sb * nsb,
        "the values name every pair of S × NS"
    );
    let (lo, hi) = (values.first().unwrap(), values.last().unwrap());

    // A first range has seen nothing fetched: one episode per pair.
    let want = dep.range(lo, hi);
    assert_eq!(dep.episodes(), sb * nsb);

    // Every pair is now co-observed: a minimum cover of the grid.
    let before = dep.episodes();
    let got = dep.range(lo, hi);
    assert_eq!(dep.episodes() - before, sb.max(nsb), "{sb} × {nsb} bins");
    assert_eq!(answer_bytes(&got), answer_bytes(&want));
    let report = check_sharded_partitioned_security(&dep.router.adversarial_views());
    assert!(report.is_secure(), "{report:?}");
}
