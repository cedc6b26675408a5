//! Sensitivity partitioning: splitting a relation into sensitive and
//! non-sensitive parts (§II of the paper).
//!
//! The paper assumes the DB owner classifies data *before* outsourcing:
//! * **row-level** sensitivity — whole tuples are sensitive (e.g. every
//!   employee of the Defense department), producing `Rs` and `Rns`;
//! * **column-level** sensitivity — some attributes (e.g. `SSN`) are
//!   sensitive for every tuple and are carved out into their own sensitive
//!   relation keyed by a join attribute (Employee1 in Example 1).
//!
//! How the classification is *derived* (inference detection, user-defined
//! rules, ...) is outside the paper's scope and ours; the policy here simply
//! expresses the result of the classification.
//!
//! [`Partitioner::split`] is one linear pass: the row predicate is
//! compiled once per split (each `IN` set hashed, so a tuple costs O(1)
//! per set however many values the policy lists), the attribute ids of
//! both splits are resolved once, and every tuple is copied once into its
//! part.

use pds_common::{PdsError, Result, Value};

use crate::predicate::{CompiledPredicate, Predicate};
use crate::relation::Relation;
use crate::schema::Schema;

/// A sensitivity classification policy.
#[derive(Debug, Clone)]
pub struct SensitivityPolicy {
    /// Rows matching this predicate are sensitive.
    pub row_predicate: Predicate,
    /// Attributes that are sensitive for *every* row (vertical split).
    pub sensitive_attributes: Vec<String>,
    /// The key attribute used to link the vertical split back to the rows.
    pub key_attribute: Option<String>,
}

impl SensitivityPolicy {
    /// Policy with only row-level sensitivity.
    pub fn rows(predicate: Predicate) -> Self {
        SensitivityPolicy {
            row_predicate: predicate,
            sensitive_attributes: Vec::new(),
            key_attribute: None,
        }
    }

    /// Policy that marks no row sensitive (useful as a baseline).
    pub fn nothing_sensitive() -> Self {
        Self::rows(Predicate::Not(Box::new(Predicate::True)))
    }

    /// Policy that marks every row sensitive (the "full encryption" corner).
    pub fn everything_sensitive() -> Self {
        Self::rows(Predicate::True)
    }

    /// Adds a vertical (column-level) split.
    pub fn with_sensitive_attributes(
        mut self,
        key_attribute: impl Into<String>,
        attributes: Vec<String>,
    ) -> Self {
        self.key_attribute = Some(key_attribute.into());
        self.sensitive_attributes = attributes;
        self
    }
}

/// The result of partitioning a relation.
#[derive(Debug, Clone)]
pub struct PartitionedRelation {
    /// `Rs`: the sensitive rows (schema excludes vertically-split columns).
    pub sensitive: Relation,
    /// `Rns`: the non-sensitive rows (same schema as `sensitive`).
    pub nonsensitive: Relation,
    /// The vertical split (e.g. Employee1 with `EId, SSN`), when requested.
    pub sensitive_columns: Option<Relation>,
}

impl PartitionedRelation {
    /// The sensitivity ratio α = |Rs| / (|Rs| + |Rns|) measured in tuples.
    pub fn alpha(&self) -> f64 {
        let s = self.sensitive.len() as f64;
        let ns = self.nonsensitive.len() as f64;
        if s + ns == 0.0 {
            0.0
        } else {
            s / (s + ns)
        }
    }

    /// Total number of tuples across both horizontal parts.
    pub fn total_tuples(&self) -> usize {
        self.sensitive.len() + self.nonsensitive.len()
    }
}

/// Splits relations according to a [`SensitivityPolicy`].
#[derive(Debug, Clone)]
pub struct Partitioner {
    policy: SensitivityPolicy,
}

impl Partitioner {
    /// Creates a partitioner for the given policy.
    pub fn new(policy: SensitivityPolicy) -> Self {
        Partitioner { policy }
    }

    /// Shorthand for a row-level-only partitioner.
    pub fn row_level(predicate: Predicate) -> Self {
        Self::new(SensitivityPolicy::rows(predicate))
    }

    /// Splits `relation` into its sensitive and non-sensitive parts.
    ///
    /// Tuple ids are preserved so that the adversarial view of the original
    /// relation and of the partitioned relations coincide.
    pub fn split(&self, relation: &Relation) -> Result<PartitionedRelation> {
        let schema = relation.schema();

        // Vertical split: project out sensitive attributes (plus the key).
        let (kept_schema, kept_names, vertical) = self.vertical_schemas(schema)?;

        let mut sensitive = Relation::new(format!("{}_s", relation.name()), kept_schema.clone());
        let mut nonsensitive =
            Relation::new(format!("{}_ns", relation.name()), kept_schema.clone());
        let mut sensitive_columns = vertical
            .as_ref()
            .map(|vschema| Relation::new(format!("{}_cols", relation.name()), vschema.clone()));

        let kept_ids = kept_names
            .iter()
            .map(|n| schema.attr_id(n))
            .collect::<Result<Vec<_>>>()?;
        // The vertical split's columns: the key, then each sensitive
        // attribute.
        let column_ids = match (&sensitive_columns, &self.policy.key_attribute) {
            (Some(_), Some(key)) => std::iter::once(key)
                .chain(&self.policy.sensitive_attributes)
                .map(|n| schema.attr_id(n))
                .collect::<Result<Vec<_>>>()?,
            _ => Vec::new(),
        };
        let is_sensitive = CompiledPredicate::new(&self.policy.row_predicate);

        for tuple in relation.tuples() {
            let project =
                |ids: &[_]| -> Vec<Value> { ids.iter().map(|&a| tuple.value(a).clone()).collect() };
            if is_sensitive.matches(tuple) {
                sensitive.insert_with_id(tuple.id, project(&kept_ids))?;
            } else {
                nonsensitive.insert_with_id(tuple.id, project(&kept_ids))?;
            }
            if let Some(cols_rel) = sensitive_columns.as_mut() {
                cols_rel.insert_with_id(tuple.id, project(&column_ids))?;
            }
        }

        Ok(PartitionedRelation {
            sensitive,
            nonsensitive,
            sensitive_columns,
        })
    }

    /// Computes the horizontal schema (original minus vertically-split
    /// attributes) and, when requested, the vertical schema (key + sensitive
    /// attributes).
    fn vertical_schemas(&self, schema: &Schema) -> Result<(Schema, Vec<String>, Option<Schema>)> {
        if self.policy.sensitive_attributes.is_empty() {
            let names: Vec<String> = schema.attributes().iter().map(|a| a.name.clone()).collect();
            return Ok((schema.clone(), names, None));
        }
        let key = self.policy.key_attribute.as_ref().ok_or_else(|| {
            PdsError::Config("column-level sensitivity requires a key attribute".into())
        })?;
        // Horizontal schema keeps everything except the sensitive attributes.
        let kept: Vec<String> = schema
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .filter(|n| !self.policy.sensitive_attributes.contains(n))
            .collect();
        if !kept.contains(key) {
            return Err(PdsError::Config(format!(
                "key attribute '{key}' must not itself be a sensitive attribute"
            )));
        }
        let kept_refs: Vec<&str> = kept.iter().map(String::as_str).collect();
        let kept_schema = schema.project(&kept_refs)?;

        let mut vertical_names = vec![key.as_str()];
        for n in &self.policy.sensitive_attributes {
            // Ensure it exists.
            schema.attr_id(n)?;
            vertical_names.push(n.as_str());
        }
        let vertical_schema = schema.project(&vertical_names)?;
        Ok((kept_schema, kept, Some(vertical_schema)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DataType;

    /// Builds the Employee relation of Figure 1 of the paper.
    pub fn employee_relation() -> Relation {
        let schema = Schema::from_pairs(&[
            ("EId", DataType::Text),
            ("FirstName", DataType::Text),
            ("LastName", DataType::Text),
            ("SSN", DataType::Int),
            ("Office", DataType::Int),
            ("Dept", DataType::Text),
        ])
        .unwrap();
        let mut r = Relation::new("Employee", schema);
        let rows: Vec<(&str, &str, &str, i64, i64, &str)> = vec![
            ("E101", "Adam", "Smith", 111, 1, "Defense"),
            ("E259", "John", "Williams", 222, 2, "Design"),
            ("E199", "Eve", "Smith", 333, 2, "Design"),
            ("E259", "John", "Williams", 222, 6, "Defense"),
            ("E152", "Clark", "Cook", 444, 1, "Defense"),
            ("E254", "David", "Watts", 555, 4, "Design"),
            ("E159", "Lisa", "Ross", 666, 2, "Defense"),
            ("E152", "Clark", "Cook", 444, 3, "Design"),
        ];
        for (eid, fname, lname, ssn, office, dept) in rows {
            r.insert(vec![
                Value::from(eid),
                Value::from(fname),
                Value::from(lname),
                Value::Int(ssn),
                Value::Int(office),
                Value::from(dept),
            ])
            .unwrap();
        }
        r
    }

    #[test]
    fn employee_example_partition() {
        let r = employee_relation();
        let policy = SensitivityPolicy::rows(Predicate::eq(r.schema(), "Dept", "Defense").unwrap())
            .with_sensitive_attributes("EId", vec!["SSN".to_string()]);
        let parts = Partitioner::new(policy).split(&r).unwrap();

        // Employee2: 4 Defense tuples (t1, t4, t5, t7 → ids 0, 3, 4, 6).
        assert_eq!(parts.sensitive.len(), 4);
        let sens_ids: Vec<u64> = parts
            .sensitive
            .tuples()
            .iter()
            .map(|t| t.id.raw())
            .collect();
        assert_eq!(sens_ids, vec![0, 3, 4, 6]);

        // Employee3: 4 Design tuples.
        assert_eq!(parts.nonsensitive.len(), 4);

        // SSN column no longer present in the horizontal parts.
        assert!(parts.sensitive.schema().attr_id("SSN").is_err());
        assert!(parts.nonsensitive.schema().attr_id("SSN").is_err());

        // Employee1: EId + SSN for every tuple.
        let cols = parts.sensitive_columns.as_ref().unwrap();
        assert_eq!(cols.len(), 8);
        assert_eq!(cols.schema().arity(), 2);

        // α = 4/8.
        assert!((parts.alpha() - 0.5).abs() < 1e-12);
        assert_eq!(parts.total_tuples(), 8);
    }

    #[test]
    fn row_level_only_keeps_schema() {
        let r = employee_relation();
        let parts = Partitioner::row_level(Predicate::eq(r.schema(), "Dept", "Defense").unwrap())
            .split(&r)
            .unwrap();
        assert_eq!(parts.sensitive.schema().arity(), 6);
        assert!(parts.sensitive_columns.is_none());
    }

    #[test]
    fn extreme_policies() {
        let r = employee_relation();
        let all = Partitioner::new(SensitivityPolicy::everything_sensitive())
            .split(&r)
            .unwrap();
        assert_eq!(all.sensitive.len(), 8);
        assert_eq!(all.nonsensitive.len(), 0);
        assert!((all.alpha() - 1.0).abs() < 1e-12);

        let none = Partitioner::new(SensitivityPolicy::nothing_sensitive())
            .split(&r)
            .unwrap();
        assert_eq!(none.sensitive.len(), 0);
        assert!((none.alpha()).abs() < 1e-12);
    }

    #[test]
    fn column_policy_requires_key() {
        let r = employee_relation();
        let mut policy =
            SensitivityPolicy::rows(Predicate::eq(r.schema(), "Dept", "Defense").unwrap());
        policy.sensitive_attributes = vec!["SSN".to_string()];
        // key_attribute not set.
        assert!(Partitioner::new(policy).split(&r).is_err());
    }

    #[test]
    fn key_cannot_be_sensitive_attribute() {
        let r = employee_relation();
        let policy = SensitivityPolicy::rows(Predicate::True)
            .with_sensitive_attributes("SSN", vec!["SSN".to_string()]);
        assert!(Partitioner::new(policy).split(&r).is_err());
    }

    #[test]
    fn unknown_sensitive_attribute_errors() {
        let r = employee_relation();
        let policy = SensitivityPolicy::rows(Predicate::True)
            .with_sensitive_attributes("EId", vec!["Nope".to_string()]);
        assert!(Partitioner::new(policy).split(&r).is_err());
    }

    #[test]
    fn alpha_of_empty_relation_is_zero() {
        let schema = Schema::from_pairs(&[("A", DataType::Int)]).unwrap();
        let r = Relation::new("Empty", schema);
        let parts = Partitioner::new(SensitivityPolicy::everything_sensitive())
            .split(&r)
            .unwrap();
        assert_eq!(parts.alpha(), 0.0);
    }
}
