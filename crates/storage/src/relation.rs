//! Relations: named collections of tuples conforming to a schema.

use std::collections::HashMap;

use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use serde::{Deserialize, Serialize};

use crate::predicate::SelectionQuery;
use crate::schema::Schema;
use crate::stats::AttributeStats;
use crate::tuple::Tuple;

/// An in-memory relation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Relation {
    name: String,
    schema: Schema,
    tuples: Vec<Tuple>,
    next_id: u64,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Relation {
            name: name.into(),
            schema,
            tuples: Vec::new(),
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

    /// All tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Inserts a row, assigning it a fresh tuple id; returns the id.
    pub fn insert(&mut self, values: Vec<Value>) -> Result<TupleId> {
        self.schema.validate_row(&values)?;
        let id = TupleId::new(self.next_id);
        self.next_id += 1;
        self.tuples.push(Tuple::new(id, values));
        Ok(id)
    }

    /// Inserts a row with an explicit tuple id (used when partitioning, so
    /// the sensitive/non-sensitive parts keep the original ids).
    pub fn insert_with_id(&mut self, id: TupleId, values: Vec<Value>) -> Result<()> {
        self.schema.validate_row(&values)?;
        if self.tuples.iter().any(|t| t.id == id) {
            return Err(PdsError::Schema(format!("duplicate tuple id {id}")));
        }
        self.next_id = self.next_id.max(id.raw() + 1);
        self.tuples.push(Tuple::new(id, values));
        Ok(())
    }

    /// Bulk insert of many rows; returns the assigned ids.
    pub fn insert_many(&mut self, rows: Vec<Vec<Value>>) -> Result<Vec<TupleId>> {
        let mut ids = Vec::with_capacity(rows.len());
        for row in rows {
            ids.push(self.insert(row)?);
        }
        Ok(ids)
    }

    /// Fetches a tuple by id.
    pub fn get(&self, id: TupleId) -> Option<&Tuple> {
        self.tuples.iter().find(|t| t.id == id)
    }

    /// Deletes a tuple by id; returns whether a tuple was removed.
    pub fn delete(&mut self, id: TupleId) -> bool {
        let before = self.tuples.len();
        self.tuples.retain(|t| t.id != id);
        before != self.tuples.len()
    }

    /// Runs a selection query with a full scan, returning matching tuples
    /// (projected if the query requests it).
    pub fn select(&self, query: &SelectionQuery) -> Vec<Tuple> {
        self.tuples
            .iter()
            .filter(|t| query.predicate.matches(t))
            .map(|t| match &query.projection {
                None => t.clone(),
                Some(attrs) => Tuple::new(t.id, t.project(attrs)),
            })
            .collect()
    }

    /// Shortcut: ids of tuples whose `attr` equals `value`.
    pub fn matching_ids(&self, attr: AttrId, value: &Value) -> Vec<TupleId> {
        self.tuples
            .iter()
            .filter(|t| t.value(attr) == value)
            .map(|t| t.id)
            .collect()
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
    use crate::predicate::Predicate;
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
    fn select_point_query() {
        let r = people();
        let q = SelectionQuery::point(r.schema(), "EId", "E259").unwrap();
        let out = r.select(&q);
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|t| t.value(AttrId::new(0)) == &Value::from("E259")));
    }

    #[test]
    fn select_with_projection() {
        let r = people();
        let q = SelectionQuery::point(r.schema(), "EId", "E101")
            .unwrap()
            .with_projection(r.schema(), &["Office"])
            .unwrap();
        let out = r.select(&q);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values, vec![Value::Int(1)]);
    }

    #[test]
    fn select_true_returns_all() {
        let r = people();
        let q = SelectionQuery::new(Predicate::True);
        assert_eq!(r.select(&q).len(), 4);
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
    fn matching_ids_shortcut() {
        let r = people();
        let attr = r.schema().attr_id("EId").unwrap();
        assert_eq!(r.matching_ids(attr, &Value::from("E259")).len(), 2);
        assert!(r.matching_ids(attr, &Value::from("E000")).is_empty());
    }
}
