//! Owner-side group-by aggregation over QB selections.
//!
//! The paper notes QB "can also be extended to support group-by aggregation
//! queries".  The owner already receives every tuple matching a bin pair, so
//! grouping and aggregating are pure owner-side post-processing: the
//! requested group values run as one batch of point queries (point-query-
//! shaped episodes fetching a minimum cover of their bins), and each
//! group's matching tuples fold into `COUNT` / `SUM` / `MIN` / `MAX` over a
//! chosen aggregate attribute.

use std::collections::BTreeMap;

use pds_cloud::{BinRoutedCloud, BinTransport, DbOwner};
use pds_common::{AttrId, Result, Value};
use pds_systems::SecureSelectionEngine;

use crate::executor::QbExecutor;

/// Aggregates of one group.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupAggregate {
    /// Number of tuples in the group.
    pub count: u64,
    /// Sum of the aggregate attribute over the group (integer attributes
    /// only; non-integer values are ignored).
    pub sum: i64,
    /// Minimum of the aggregate attribute, when any integer value exists.
    pub min: Option<i64>,
    /// Maximum of the aggregate attribute, when any integer value exists.
    pub max: Option<i64>,
}

/// Computes `SELECT group, COUNT(*), SUM(agg), MIN(agg), MAX(agg) ... WHERE
/// group IN (groups) GROUP BY group` over a QB deployment, in one
/// [`QbExecutor::run_workload_transported`] batch over
/// [`BinTransport::Sequential`].  A group listed twice is aggregated once,
/// as `IN` counts each tuple once.
pub fn group_by_aggregate<E: SecureSelectionEngine, C: BinRoutedCloud>(
    executor: &mut QbExecutor<E>,
    owner: &mut DbOwner,
    cloud: &mut C,
    groups: &[Value],
    aggregate_attr: AttrId,
) -> Result<BTreeMap<Value, GroupAggregate>> {
    let run = executor.run_workload_transported(owner, cloud, groups, &BinTransport::Sequential)?;
    let mut out: BTreeMap<Value, GroupAggregate> = BTreeMap::new();
    for (group, tuples) in groups.iter().zip(run.answers) {
        if out.contains_key(group) {
            continue;
        }
        let entry = out.entry(group.clone()).or_default();
        for t in tuples {
            entry.count += 1;
            if let Some(x) = t.value(aggregate_attr).as_int() {
                entry.sum += x;
                entry.min = Some(entry.min.map_or(x, |m| m.min(x)));
                entry.max = Some(entry.max.map_or(x, |m| m.max(x)));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::{BinningConfig, QueryBinning};
    use pds_cloud::{CloudServer, NetworkModel};
    use pds_storage::{DataType, Partitioner, Predicate, Relation, Schema};
    use pds_systems::NonDetScanEngine;

    fn orders() -> Relation {
        let schema =
            Schema::from_pairs(&[("Region", DataType::Text), ("Amount", DataType::Int)]).unwrap();
        let mut r = Relation::new("Orders", schema);
        for (region, amount) in [
            ("east", 10),
            ("east", 30),
            ("west", 5),
            ("west", 15),
            ("west", 25),
            ("north", 100),
            ("south", 7),
        ] {
            r.insert(vec![Value::from(region), Value::Int(amount)])
                .unwrap();
        }
        r
    }

    fn setup() -> (DbOwner, CloudServer, QbExecutor<NonDetScanEngine>, AttrId) {
        let rel = orders();
        let amount = rel.schema().attr_id("Amount").unwrap();
        // Regions "east" and "north" are sensitive.
        let pred = Predicate::in_set(
            rel.schema(),
            "Region",
            vec![Value::from("east"), Value::from("north")],
        )
        .unwrap();
        let parts = Partitioner::row_level(pred).split(&rel).unwrap();
        let binning = QueryBinning::build(&parts, "Region", BinningConfig::default()).unwrap();
        let mut exec = QbExecutor::new(binning, NonDetScanEngine::new());
        let mut owner = DbOwner::new(17);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        exec.outsource(&mut owner, &mut cloud, &parts).unwrap();
        (owner, cloud, exec, amount)
    }

    #[test]
    fn aggregates_span_both_partitions() {
        let (mut owner, mut cloud, mut exec, amount) = setup();
        let groups = vec![
            Value::from("east"),
            Value::from("west"),
            Value::from("north"),
            Value::from("south"),
        ];
        let result =
            group_by_aggregate(&mut exec, &mut owner, &mut cloud, &groups, amount).unwrap();
        assert_eq!(result[&Value::from("east")].count, 2);
        assert_eq!(result[&Value::from("east")].sum, 40);
        assert_eq!(result[&Value::from("west")].count, 3);
        assert_eq!(result[&Value::from("west")].sum, 45);
        assert_eq!(result[&Value::from("west")].min, Some(5));
        assert_eq!(result[&Value::from("west")].max, Some(25));
        assert_eq!(result[&Value::from("north")].sum, 100);
        assert_eq!(result[&Value::from("south")].count, 1);
    }

    #[test]
    fn a_repeated_group_is_aggregated_once() {
        let (mut owner, mut cloud, mut exec, amount) = setup();
        let east = Value::from("east");
        let once = group_by_aggregate(
            &mut exec,
            &mut owner,
            &mut cloud,
            std::slice::from_ref(&east),
            amount,
        )
        .unwrap();
        let twice = group_by_aggregate(
            &mut exec,
            &mut owner,
            &mut cloud,
            &[east.clone(), east.clone()],
            amount,
        )
        .unwrap();
        assert_eq!(twice, once);
        assert_eq!(twice[&east].count, 2);
        assert_eq!(twice[&east].sum, 40);
    }

    #[test]
    fn unknown_group_yields_zero_aggregate() {
        let (mut owner, mut cloud, mut exec, amount) = setup();
        let result = group_by_aggregate(
            &mut exec,
            &mut owner,
            &mut cloud,
            &[Value::from("atlantis")],
            amount,
        )
        .unwrap();
        let agg = &result[&Value::from("atlantis")];
        assert_eq!(agg.count, 0);
        assert_eq!(agg.min, None);
    }
}
