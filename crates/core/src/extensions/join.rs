//! Owner-side equi-joins across two QB deployments.
//!
//! The paper defers joins to the full version and notes that cryptographic
//! joins (bilinear maps, SGX joins) are far from practical.  Under
//! partitioned computing the natural strategy is: retrieve the join values'
//! bin pairs on each deployment (point-query-shaped episodes on both
//! clouds) and join the decrypted results at the owner.  The leakage per
//! episode is identical to that of point queries, so QB's security argument
//! carries over; each deployment answers its values in one batch, which
//! fetches a minimum cover of their bins.

use pds_cloud::{BinRoutedCloud, BinTransport, DbOwner};
use pds_common::{Result, Value};
use pds_storage::Tuple;
use pds_systems::SecureSelectionEngine;

use crate::executor::QbExecutor;

/// Joins two QB deployments on their searchable attributes for the given
/// set of join values, returning matched tuple pairs `(left, right)`.
/// Either deployment may be single-server or sharded.  The left side
/// answers every join value in one batch, the right side the values whose
/// left answer is non-empty in another, each over
/// [`BinTransport::Sequential`].
pub fn equi_join<L, R, CL, CR>(
    left: &mut QbExecutor<L>,
    left_owner: &mut DbOwner,
    left_cloud: &mut CL,
    right: &mut QbExecutor<R>,
    right_owner: &mut DbOwner,
    right_cloud: &mut CR,
    join_values: &[Value],
) -> Result<Vec<(Tuple, Tuple)>>
where
    L: SecureSelectionEngine,
    R: SecureSelectionEngine,
    CL: BinRoutedCloud,
    CR: BinRoutedCloud,
{
    let transport = BinTransport::Sequential;
    let left_run =
        left.run_workload_transported(left_owner, left_cloud, join_values, &transport)?;
    let (matched, left_answers): (Vec<Value>, Vec<Vec<Tuple>>) = join_values
        .iter()
        .zip(left_run.answers)
        .filter(|(_, l)| !l.is_empty())
        .map(|(v, l)| (v.clone(), l))
        .unzip();
    if matched.is_empty() {
        return Ok(Vec::new());
    }
    let right_run =
        right.run_workload_transported(right_owner, right_cloud, &matched, &transport)?;
    let mut out = Vec::new();
    for (l, r) in left_answers.iter().zip(&right_run.answers) {
        for lt in l {
            for rt in r {
                out.push((lt.clone(), rt.clone()));
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
    use pds_storage::{DataType, PartitionedRelation, Partitioner, Predicate, Relation, Schema};
    use pds_systems::NonDetScanEngine;

    fn employees() -> Relation {
        let schema =
            Schema::from_pairs(&[("Dept", DataType::Text), ("Name", DataType::Text)]).unwrap();
        let mut r = Relation::new("Employees", schema);
        for (d, n) in [
            ("sales", "ann"),
            ("sales", "bob"),
            ("eng", "cat"),
            ("hr", "dan"),
        ] {
            r.insert(vec![Value::from(d), Value::from(n)]).unwrap();
        }
        r
    }

    fn budgets() -> Relation {
        let schema =
            Schema::from_pairs(&[("Dept", DataType::Text), ("Budget", DataType::Int)]).unwrap();
        let mut r = Relation::new("Budgets", schema);
        for (d, b) in [("sales", 100), ("eng", 250), ("legal", 70)] {
            r.insert(vec![Value::from(d), Value::Int(b)]).unwrap();
        }
        r
    }

    fn deploy(
        rel: &Relation,
        sensitive_dept: &str,
        seed: u64,
    ) -> (
        DbOwner,
        CloudServer,
        QbExecutor<NonDetScanEngine>,
        PartitionedRelation,
    ) {
        let pred = Predicate::eq(rel.schema(), "Dept", sensitive_dept).unwrap();
        let parts = Partitioner::row_level(pred).split(rel).unwrap();
        let binning = QueryBinning::build(&parts, "Dept", BinningConfig::default()).unwrap();
        let mut exec = QbExecutor::new(binning, NonDetScanEngine::new());
        let mut owner = DbOwner::new(seed);
        let mut cloud = CloudServer::new(NetworkModel::paper_wan());
        exec.outsource(&mut owner, &mut cloud, &parts).unwrap();
        (owner, cloud, exec, parts)
    }

    #[test]
    fn join_matches_expected_pairs() {
        let emp = employees();
        let bud = budgets();
        let (mut lo, mut lc, mut le, _) = deploy(&emp, "eng", 1);
        let (mut ro, mut rc, mut re, _) = deploy(&bud, "sales", 2);
        let values: Vec<Value> = ["sales", "eng", "hr", "legal"]
            .iter()
            .map(|&v| Value::from(v))
            .collect();
        let joined = equi_join(
            &mut le, &mut lo, &mut lc, &mut re, &mut ro, &mut rc, &values,
        )
        .unwrap();
        // sales: 2 employees × 1 budget = 2; eng: 1 × 1 = 1; hr/legal: no match.
        assert_eq!(joined.len(), 3);
        for (l, r) in &joined {
            assert_eq!(l.values[0], r.values[0], "join attribute matches");
        }
    }

    #[test]
    fn join_on_absent_values_is_empty() {
        let emp = employees();
        let bud = budgets();
        let (mut lo, mut lc, mut le, _) = deploy(&emp, "eng", 3);
        let (mut ro, mut rc, mut re, _) = deploy(&bud, "sales", 4);
        let joined = equi_join(
            &mut le,
            &mut lo,
            &mut lc,
            &mut re,
            &mut ro,
            &mut rc,
            &[Value::from("marketing")],
        )
        .unwrap();
        assert!(joined.is_empty());
    }
}
