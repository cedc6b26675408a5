//! Selection predicates and queries.
//!
//! The paper focuses on single-attribute selection queries (`q(w)` for a
//! predicate value `w`), which Query Binning rewrites into *set* queries
//! (`q(W)` for a bin of values).  Range and conjunctive predicates are also
//! provided because the QB extensions (range queries, §IV of the full
//! version) need them.

use std::collections::HashSet;

use pds_common::{AttrId, Result, Value};
use serde::{Deserialize, Serialize};

use crate::schema::Schema;
use crate::tuple::Tuple;

/// A boolean predicate over a tuple.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Predicate {
    /// `attr = value`
    Eq {
        /// Attribute position.
        attr: AttrId,
        /// Value to compare against.
        value: Value,
    },
    /// `attr IN (values)` — this is the shape QB produces: one query for a
    /// whole bin of values.
    InSet {
        /// Attribute position.
        attr: AttrId,
        /// Set of values; a tuple matches if its attribute equals any of them.
        values: Vec<Value>,
    },
    /// `lo <= attr <= hi` (both bounds inclusive).
    Range {
        /// Attribute position.
        attr: AttrId,
        /// Lower inclusive bound.
        lo: Value,
        /// Upper inclusive bound.
        hi: Value,
    },
    /// Conjunction of predicates.
    And(Vec<Predicate>),
    /// Disjunction of predicates.
    Or(Vec<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
    /// Matches every tuple.
    True,
}

impl Predicate {
    /// Convenience constructor for an equality predicate by attribute name.
    pub fn eq(schema: &Schema, attr: &str, value: impl Into<Value>) -> Result<Predicate> {
        Ok(Predicate::Eq {
            attr: schema.attr_id(attr)?,
            value: value.into(),
        })
    }

    /// Convenience constructor for an `IN` predicate by attribute name.
    pub fn in_set(schema: &Schema, attr: &str, values: Vec<Value>) -> Result<Predicate> {
        Ok(Predicate::InSet {
            attr: schema.attr_id(attr)?,
            values,
        })
    }

    /// Convenience constructor for a range predicate by attribute name.
    pub fn range(
        schema: &Schema,
        attr: &str,
        lo: impl Into<Value>,
        hi: impl Into<Value>,
    ) -> Result<Predicate> {
        Ok(Predicate::Range {
            attr: schema.attr_id(attr)?,
            lo: lo.into(),
            hi: hi.into(),
        })
    }

    /// Evaluates the predicate on a tuple.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        match self {
            Predicate::Eq { attr, value } => tuple.value(*attr) == value,
            Predicate::InSet { attr, values } => values.contains(tuple.value(*attr)),
            Predicate::Range { attr, lo, hi } => {
                let v = tuple.value(*attr);
                !v.is_null() && v >= lo && v <= hi
            }
            Predicate::And(ps) => ps.iter().all(|p| p.matches(tuple)),
            Predicate::Or(ps) => ps.iter().any(|p| p.matches(tuple)),
            Predicate::Not(p) => !p.matches(tuple),
            Predicate::True => true,
        }
    }

    /// Every attribute position the predicate mentions, sorted and deduped.
    ///
    /// The predicate-pushdown path uses this to enforce its security
    /// invariant owner-side: a predicate travelling in clear inside a wire
    /// frame must only reference non-sensitive attributes, and in
    /// particular never the searchable attribute whose per-value access
    /// pattern Query Binning exists to hide.
    pub fn attrs(&self) -> Vec<AttrId> {
        fn walk(p: &Predicate, out: &mut Vec<AttrId>) {
            match p {
                Predicate::Eq { attr, .. }
                | Predicate::InSet { attr, .. }
                | Predicate::Range { attr, .. } => out.push(*attr),
                Predicate::And(ps) | Predicate::Or(ps) => {
                    for child in ps {
                        walk(child, out);
                    }
                }
                Predicate::Not(child) => walk(child, out),
                Predicate::True => {}
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// A [`Predicate`] compiled for evaluation over many tuples: every
/// `InSet` node's values are hashed once, so testing a tuple costs O(1)
/// per node however large the set.  [`Predicate::matches`] stays the
/// reference it must agree with.
#[derive(Debug)]
pub(crate) enum CompiledPredicate<'a> {
    Eq(AttrId, &'a Value),
    InSet(AttrId, HashSet<&'a Value>),
    Range(AttrId, &'a Value, &'a Value),
    And(Vec<CompiledPredicate<'a>>),
    Or(Vec<CompiledPredicate<'a>>),
    Not(Box<CompiledPredicate<'a>>),
    True,
}

impl<'a> CompiledPredicate<'a> {
    /// Compiles `p`, borrowing its values.
    pub(crate) fn new(p: &'a Predicate) -> Self {
        match p {
            Predicate::Eq { attr, value } => Self::Eq(*attr, value),
            Predicate::InSet { attr, values } => Self::InSet(*attr, values.iter().collect()),
            Predicate::Range { attr, lo, hi } => Self::Range(*attr, lo, hi),
            Predicate::And(ps) => Self::And(ps.iter().map(Self::new).collect()),
            Predicate::Or(ps) => Self::Or(ps.iter().map(Self::new).collect()),
            Predicate::Not(child) => Self::Not(Box::new(Self::new(child))),
            Predicate::True => Self::True,
        }
    }

    /// Evaluates the predicate on a tuple, as [`Predicate::matches`] does.
    pub(crate) fn matches(&self, tuple: &Tuple) -> bool {
        match self {
            Self::Eq(attr, value) => tuple.value(*attr) == *value,
            Self::InSet(attr, values) => values.contains(tuple.value(*attr)),
            Self::Range(attr, lo, hi) => {
                let v = tuple.value(*attr);
                !v.is_null() && v >= *lo && v <= *hi
            }
            Self::And(ps) => ps.iter().all(|p| p.matches(tuple)),
            Self::Or(ps) => ps.iter().any(|p| p.matches(tuple)),
            Self::Not(p) => !p.matches(tuple),
            Self::True => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;
    use pds_common::TupleId;
    use proptest::prelude::*;

    fn schema() -> Schema {
        Schema::from_pairs(&[("EId", DataType::Text), ("Office", DataType::Int)]).unwrap()
    }

    fn tuple(eid: &str, office: i64) -> Tuple {
        Tuple::new(TupleId::new(0), vec![Value::from(eid), Value::Int(office)])
    }

    #[test]
    fn eq_and_in_set() {
        let s = schema();
        let p = Predicate::eq(&s, "EId", "E259").unwrap();
        assert!(p.matches(&tuple("E259", 2)));
        assert!(!p.matches(&tuple("E101", 2)));

        let p =
            Predicate::in_set(&s, "EId", vec![Value::from("E101"), Value::from("E259")]).unwrap();
        assert!(p.matches(&tuple("E259", 2)));
        assert!(!p.matches(&tuple("E777", 2)));
    }

    #[test]
    fn range_predicate() {
        let s = schema();
        let p = Predicate::range(&s, "Office", 2, 4).unwrap();
        assert!(p.matches(&tuple("x", 2)));
        assert!(p.matches(&tuple("x", 4)));
        assert!(!p.matches(&tuple("x", 5)));
        assert!(!p.matches(&tuple("x", 1)));
    }

    #[test]
    fn null_never_matches_range() {
        let s = schema();
        let p = Predicate::range(&s, "Office", 0, 100).unwrap();
        let t = Tuple::new(TupleId::new(0), vec![Value::from("x"), Value::Null]);
        assert!(!p.matches(&t));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let a = Predicate::eq(&s, "EId", "E259").unwrap();
        let b = Predicate::range(&s, "Office", 0, 3).unwrap();
        assert!(Predicate::And(vec![a.clone(), b.clone()]).matches(&tuple("E259", 2)));
        assert!(!Predicate::And(vec![a.clone(), b.clone()]).matches(&tuple("E259", 9)));
        assert!(Predicate::Or(vec![a.clone(), b.clone()]).matches(&tuple("E999", 1)));
        assert!(Predicate::Not(Box::new(a)).matches(&tuple("E999", 1)));
        assert!(Predicate::True.matches(&tuple("anything", 0)));
    }

    /// A value from a small mixed domain, so equality, set and range
    /// nodes both hit and miss.
    fn small_value(rng: &mut TestRng) -> Value {
        match (0u8..4).sample(rng) {
            0 => Value::Null,
            1 => Value::Int((-2i64..4).sample(rng)),
            2 => Value::from(["a", "b", "c"][(0usize..3).sample(rng)]),
            _ => Value::Bool((0u8..2).sample(rng) == 1),
        }
    }

    fn random_predicate(rng: &mut TestRng, depth: usize) -> Predicate {
        let attr = AttrId::new((0u64..2).sample(rng));
        match (0u8..if depth >= 3 { 4 } else { 7 }).sample(rng) {
            0 => Predicate::True,
            1 => Predicate::Eq {
                attr,
                value: small_value(rng),
            },
            2 => Predicate::InSet {
                attr,
                values: (0..(0usize..6).sample(rng))
                    .map(|_| small_value(rng))
                    .collect(),
            },
            3 => Predicate::Range {
                attr,
                lo: small_value(rng),
                hi: small_value(rng),
            },
            4 => Predicate::Not(Box::new(random_predicate(rng, depth + 1))),
            kind => {
                let children = (0..(0usize..4).sample(rng))
                    .map(|_| random_predicate(rng, depth + 1))
                    .collect();
                if kind == 5 {
                    Predicate::And(children)
                } else {
                    Predicate::Or(children)
                }
            }
        }
    }

    /// A random predicate over two attributes and tuples to test it on.
    struct PredicateCases;

    impl Strategy for PredicateCases {
        type Value = (Predicate, Vec<Tuple>);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let p = random_predicate(rng, 0);
            let tuples = (0..32)
                .map(|_| Tuple::new(TupleId::new(0), vec![small_value(rng), small_value(rng)]))
                .collect();
            (p, tuples)
        }
    }

    proptest! {
        #[test]
        fn compiled_predicates_agree_with_matches(case in PredicateCases) {
            let (p, tuples) = case;
            let compiled = CompiledPredicate::new(&p);
            for t in &tuples {
                prop_assert_eq!(compiled.matches(t), p.matches(t));
            }
        }
    }
}
