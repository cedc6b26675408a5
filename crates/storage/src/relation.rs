//! Relations: named collections of tuples conforming to a schema.
//!
//! A [`Relation`] keeps an id → position map next to its tuples, so
//! [`Relation::get`], [`Relation::delete`] and the duplicate check of
//! [`Relation::insert_with_id`] take O(1) time: building a relation of `n`
//! tuples is one linear pass, whatever their ids.
//!
//! [`Relation::tuples`] lists tuples in insertion order until the first
//! delete.  A delete moves the last tuple into the freed slot, so after it
//! the order is insertion order with that one move applied.

use std::collections::HashMap;

use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use serde::{Deserialize, Serialize};

use crate::schema::Schema;
use crate::stats::AttributeStats;
use crate::tuple::Tuple;

/// An in-memory relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Relation {
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
    /// Position of every tuple in `tuples`, by id.
    positions: HashMap<TupleId, usize>,
    next_id: u64,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
            positions: HashMap::new(),
            next_id: 0,
        }
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// All tuples, in insertion order until the first
    /// [`Relation::delete`] (see the module docs).
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Inserts a row, assigning it a fresh tuple id; returns the id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<TupleId> {
        self.schema.validate_row(&values)?;
        let id = TupleId::new(self.next_id);
        self.next_id += 1;
        self.push(Tuple::new(id, values));
        Ok(id)
    }

    /// Inserts a row with an explicit tuple id (used when partitioning, so
    /// the sensitive/non-sensitive parts keep the original ids).  A
    /// duplicate id is a [`PdsError::Schema`] error, found in O(1).
    pub fn insert_with_id(&mut self, id: TupleId, values: Vec<Value>) -> Result<()> {
        self.schema.validate_row(&values)?;
        if self.positions.contains_key(&id) {
            return Err(PdsError::Schema(format!("duplicate tuple id {id}")));
        }
        self.next_id = self.next_id.max(id.raw() + 1);
        self.push(Tuple::new(id, values));
        Ok(())
    }

    /// Appends a tuple whose id is known to be new.
    fn push(&mut self, tuple: Tuple) {
        self.positions.insert(tuple.id, self.tuples.len());
        self.tuples.push(tuple);
    }

    /// Bulk insert of many rows; returns the assigned ids.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) -> Result<Vec<TupleId>> {
        let mut ids = Vec::with_capacity(rows.len());
        for row in rows {
            ids.push(self.insert(row)?);
        }
        Ok(ids)
    }

    /// Fetches a tuple by id, in O(1).
    pub fn get(&self, id: TupleId) -> Option<&Tuple> {
        self.positions.get(&id).map(|&at| &self.tuples[at])
    }

    /// Deletes a tuple by id in O(1); returns whether a tuple was removed.
    /// The last tuple takes the deleted one's place in
    /// [`Relation::tuples`].
    pub fn delete(&mut self, id: TupleId) -> bool {
        let Some(at) = self.positions.remove(&id) else {
            return false;
        };
        self.tuples.swap_remove(at);
        if let Some(moved) = self.tuples.get(at) {
            self.positions.insert(moved.id, at);
        }
        true
    }

    /// Computes per-value frequency statistics for an attribute.
    pub fn attribute_stats(&self, attr: AttrId) -> AttributeStats {
        let mut counts: HashMap<Value, u64> = HashMap::new();
        for t in &self.tuples {
            *counts.entry(t.value(attr).clone()).or_insert(0) += 1;
        }
        AttributeStats::from_counts(counts)
    }

    /// The distinct values of an attribute, in first-appearance order.
    pub fn distinct_values(&self, attr: AttrId) -> Vec<Value> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for t in &self.tuples {
            let v = t.value(attr);
            if seen.insert(v.clone()) {
                out.push(v.clone());
            }
        }
        out
    }

    /// Total approximate payload size in bytes (the sum of
    /// [`Tuple::size_bytes`]).
    pub fn size_bytes(&self) -> usize {
        self.tuples.iter().map(Tuple::size_bytes).sum()
    }

    /// Average tuple size in bytes (0 when empty).
    pub fn avg_tuple_bytes(&self) -> usize {
        if self.tuples.is_empty() {
            0
        } else {
            self.size_bytes() / self.tuples.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    fn people() -> Relation {
        let schema =
            Schema::from_pairs(&[("EId", DataType::Text), ("Office", DataType::Int)]).unwrap();
        let mut r = Relation::new("People", schema);
        r.insert(vec![Value::from("E101"), Value::Int(1)]).unwrap();
        r.insert(vec![Value::from("E259"), Value::Int(2)]).unwrap();
        r.insert(vec![Value::from("E259"), Value::Int(6)]).unwrap();
        r.insert(vec![Value::from("E152"), Value::Int(3)]).unwrap();
        r
    }

    #[test]
    fn insert_assigns_sequential_ids() {
        let r = people();
        assert_eq!(r.len(), 4);
        let ids: Vec<u64> = r.tuples().iter().map(|t| t.id.raw()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn insert_validates_schema() {
        let mut r = people();
        assert!(r.insert(vec![Value::Int(5), Value::Int(1)]).is_err());
        assert!(r.insert(vec![Value::from("E1")]).is_err());
    }

    #[test]
    fn insert_with_explicit_id() {
        let schema = Schema::from_pairs(&[("A", DataType::Int)]).unwrap();
        let mut r = Relation::new("T", schema);
        r.insert_with_id(TupleId::new(7), vec![Value::Int(1)])
            .unwrap();
        assert!(r
            .insert_with_id(TupleId::new(7), vec![Value::Int(2)])
            .is_err());
        // Fresh inserts continue after the explicit id.
        let id = r.insert(vec![Value::Int(3)]).unwrap();
        assert_eq!(id.raw(), 8);
    }

    #[test]
    fn get_and_delete() {
        let mut r = people();
        let id = TupleId::new(1);
        assert!(r.get(id).is_some());
        assert!(r.delete(id));
        assert!(r.get(id).is_none());
        assert!(!r.delete(id));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn stats_and_distinct() {
        let r = people();
        let attr = r.schema().attr_id("EId").unwrap();
        let stats = r.attribute_stats(attr);
        assert_eq!(stats.count(&Value::from("E259")), 2);
        assert_eq!(stats.count(&Value::from("E101")), 1);
        assert_eq!(stats.count(&Value::from("nope")), 0);
        assert_eq!(stats.distinct(), 3);
        assert_eq!(stats.total(), 4);
        let distinct = r.distinct_values(attr);
        assert_eq!(distinct.len(), 3);
        assert_eq!(distinct[0], Value::from("E101"));
    }

    #[test]
    fn sizes() {
        let r = people();
        assert!(r.size_bytes() > 0);
        assert!(r.avg_tuple_bytes() > 0);
        let empty = Relation::new("E", Schema::from_pairs(&[("A", DataType::Int)]).unwrap());
        assert_eq!(empty.avg_tuple_bytes(), 0);
    }

    #[test]
    fn delete_moves_the_last_tuple_into_the_gap() {
        let mut r = people();
        assert!(r.delete(TupleId::new(1)));
        let ids: Vec<u64> = r.tuples().iter().map(|t| t.id.raw()).collect();
        assert_eq!(ids, vec![0, 3, 2]);
        assert_eq!(r.get(TupleId::new(3)).unwrap().values[1], Value::Int(3));
        assert!(r.delete(TupleId::new(2)), "the last slot deletes cleanly");
        assert_eq!(r.get(TupleId::new(3)).unwrap().id, TupleId::new(3));
        assert_eq!(r.len(), 2);
    }

    /// The reference [`Relation`] is checked against: a `Vec` it scans.
    #[derive(Default)]
    struct ScanModel {
        tuples: Vec<Tuple>,
        next_id: u64,
    }

    impl ScanModel {
        fn get(&self, id: TupleId) -> Option<&Tuple> {
            self.tuples.iter().find(|t| t.id == id)
        }

        fn insert_with_id(&mut self, id: TupleId, values: Vec<Value>) -> bool {
            if self.get(id).is_some() {
                return false;
            }
            self.next_id = self.next_id.max(id.raw() + 1);
            self.tuples.push(Tuple::new(id, values));
            true
        }

        fn delete(&mut self, id: TupleId) -> bool {
            let before = self.tuples.len();
            self.tuples.retain(|t| t.id != id);
            before != self.tuples.len()
        }
    }

    fn sorted(tuples: &[Tuple]) -> Vec<Tuple> {
        let mut out = tuples.to_vec();
        out.sort_by_key(|t| t.id);
        out
    }

    proptest::proptest! {
        /// Random sequences of inserts (fresh and explicit ids, repeats
        /// included), deletes (first, middle, last, absent) and gets leave
        /// the relation equal to the linear-scan model after every step.
        #[test]
        fn relation_matches_a_linear_scan_model(
            ops in proptest::collection::vec((0u8..8, 0u64..16, -3i64..3), 0..64)
        ) {
            let schema = Schema::from_pairs(&[("A", DataType::Int)]).unwrap();
            let mut r = Relation::new("T", schema);
            let mut model = ScanModel::default();
            for (kind, id, v) in ops {
                let row = vec![Value::Int(v)];
                let at = |pos: usize| r.tuples().get(pos).map(|t| t.id);
                match kind {
                    0 => {
                        let fresh = r.insert(row.clone()).unwrap();
                        proptest::prop_assert_eq!(fresh.raw(), model.next_id);
                        model.insert_with_id(fresh, row);
                    }
                    1 | 2 => {
                        let id = TupleId::new(id);
                        let stored = r.insert_with_id(id, row.clone()).is_ok();
                        proptest::prop_assert_eq!(stored, model.insert_with_id(id, row));
                    }
                    3..=6 => {
                        let len = r.len();
                        let target = match kind {
                            3 => at(0),
                            4 => at(len / 2),
                            5 => len.checked_sub(1).and_then(at),
                            _ => Some(TupleId::new(1_000 + id)),
                        };
                        if let Some(target) = target {
                            proptest::prop_assert_eq!(r.delete(target), model.delete(target));
                        }
                    }
                    _ => {
                        let id = TupleId::new(id);
                        proptest::prop_assert_eq!(r.get(id), model.get(id));
                    }
                }
                proptest::prop_assert_eq!(r.len(), model.tuples.len());
                proptest::prop_assert_eq!(sorted(r.tuples()), sorted(&model.tuples));
                for raw in 0..model.next_id + 2 {
                    let id = TupleId::new(raw);
                    proptest::prop_assert_eq!(r.get(id), model.get(id));
                }
                let mut probe = r.clone();
                proptest::prop_assert_eq!(probe.insert(vec![Value::Int(0)]).unwrap().raw(), model.next_id);
            }
        }
    }
}
