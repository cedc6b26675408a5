//! Secondary indexes over a relation attribute.
//!
//! The cloud-side back-ends use these: the plaintext (non-sensitive) side is
//! indexed directly on attribute values, while indexable cryptographic
//! techniques (CryptDB-style deterministic tags, Arx-style counter tokens)
//! index ciphertext tags.  Both a hash index (point/IN lookups) and an
//! ordered index (range lookups) are provided.
//!
//! An index holds only its postings, so it is `Sync`: the clear-text side
//! of a sharded deployment (relation and [`HashIndex`]) is built once and
//! shared read-only between shards.  Callers that count lookups do so
//! themselves (the cloud charges them to its own metrics).

use std::collections::{BTreeMap, HashMap};

use pds_common::{AttrId, TupleId, Value};

use crate::relation::Relation;

/// A hash index mapping attribute values to the tuple ids holding them.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    map: HashMap<Value, Vec<TupleId>>,
}

impl HashIndex {
    /// Builds the index over `attr` of `relation`.
    pub fn build(relation: &Relation, attr: AttrId) -> Self {
        let mut map: HashMap<Value, Vec<TupleId>> = HashMap::new();
        for t in relation.tuples() {
            map.entry(t.value(attr).clone()).or_default().push(t.id);
        }
        HashIndex { map }
    }

    /// Inserts a posting (used for incremental maintenance on insert).
    pub fn insert(&mut self, value: Value, id: TupleId) {
        self.map.entry(value).or_default().push(id);
    }

    /// Removes a posting (used on delete); returns whether it was present.
    pub fn remove(&mut self, value: &Value, id: TupleId) -> bool {
        if let Some(ids) = self.map.get_mut(value) {
            let before = ids.len();
            ids.retain(|&i| i != id);
            let removed = ids.len() != before;
            if ids.is_empty() {
                self.map.remove(value);
            }
            removed
        } else {
            false
        }
    }

    /// Tuple ids whose indexed attribute equals `value`.
    pub fn lookup(&self, value: &Value) -> &[TupleId] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Tuple ids matching any of `values`, deduplicated, in index order.
    pub fn lookup_many(&self, values: &[Value]) -> Vec<TupleId> {
        let mut out = Vec::new();
        for v in values {
            out.extend_from_slice(self.lookup(v));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }
}

/// An ordered index supporting range scans.
#[derive(Debug, Clone, Default)]
pub struct OrderedIndex {
    map: BTreeMap<Value, Vec<TupleId>>,
}

impl OrderedIndex {
    /// Builds the index over `attr` of `relation`.
    pub fn build(relation: &Relation, attr: AttrId) -> Self {
        let mut map: BTreeMap<Value, Vec<TupleId>> = BTreeMap::new();
        for t in relation.tuples() {
            map.entry(t.value(attr).clone()).or_default().push(t.id);
        }
        OrderedIndex { map }
    }

    /// Inserts a posting.
    pub fn insert(&mut self, value: Value, id: TupleId) {
        self.map.entry(value).or_default().push(id);
    }

    /// Tuple ids whose value equals `value`.
    pub fn lookup(&self, value: &Value) -> &[TupleId] {
        self.map.get(value).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Tuple ids whose value lies in `[lo, hi]` (inclusive).
    pub fn range(&self, lo: &Value, hi: &Value) -> Vec<TupleId> {
        self.map
            .range(lo.clone()..=hi.clone())
            .flat_map(|(_, ids)| ids.iter().copied())
            .collect()
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> usize {
        self.map.len()
    }

    /// Iterates over `(value, ids)` pairs in value order.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, &Vec<TupleId>)> {
        self.map.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{DataType, Schema};

    fn rel() -> Relation {
        let schema = Schema::from_pairs(&[("K", DataType::Int), ("P", DataType::Text)]).unwrap();
        let mut r = Relation::new("T", schema);
        for (k, p) in [(5, "a"), (1, "b"), (5, "c"), (3, "d"), (9, "e")] {
            r.insert(vec![Value::Int(k), Value::from(p)]).unwrap();
        }
        r
    }

    #[test]
    fn hash_index_lookup() {
        let r = rel();
        let idx = HashIndex::build(&r, AttrId::new(0));
        assert_eq!(idx.lookup(&Value::Int(5)).len(), 2);
        assert_eq!(idx.lookup(&Value::Int(2)).len(), 0);
        assert_eq!(idx.distinct(), 4);
    }

    #[test]
    fn hash_index_lookup_many_dedups() {
        let r = rel();
        let idx = HashIndex::build(&r, AttrId::new(0));
        let ids = idx.lookup_many(&[Value::Int(5), Value::Int(5), Value::Int(1)]);
        assert_eq!(ids.len(), 3);
    }

    #[test]
    fn hash_index_insert_remove() {
        let r = rel();
        let mut idx = HashIndex::build(&r, AttrId::new(0));
        idx.insert(Value::Int(7), TupleId::new(99));
        assert_eq!(idx.lookup(&Value::Int(7)), &[TupleId::new(99)]);
        assert!(idx.remove(&Value::Int(7), TupleId::new(99)));
        assert!(!idx.remove(&Value::Int(7), TupleId::new(99)));
        assert_eq!(idx.lookup(&Value::Int(7)).len(), 0);
    }

    #[test]
    fn ordered_index_range() {
        let r = rel();
        let idx = OrderedIndex::build(&r, AttrId::new(0));
        let ids = idx.range(&Value::Int(2), &Value::Int(6));
        // keys 3 and 5 (twice) fall in range
        assert_eq!(ids.len(), 3);
        assert_eq!(idx.lookup(&Value::Int(9)).len(), 1);
        assert_eq!(idx.distinct(), 4);
    }

    #[test]
    fn an_empty_ordered_index_has_an_empty_range() {
        let idx = OrderedIndex::default();
        assert_eq!(idx.distinct(), 0);
        assert!(idx.range(&Value::Int(0), &Value::Int(10)).is_empty());
    }
}
