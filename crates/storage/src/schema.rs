//! Relation schemas: attribute names, types and domains.

use pds_common::{AttrId, Domain, PdsError, Result, Value};
use serde::{Deserialize, Serialize};

/// The declared type of an attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit integers.
    Int,
    /// UTF-8 text.
    Text,
    /// Raw bytes (ciphertexts, opaque payloads).
    Bytes,
    /// Booleans.
    Bool,
}

impl DataType {
    /// Whether a value is admissible for this type (NULL is always allowed).
    pub fn admits(&self, value: &Value) -> bool {
        matches!(
            (self, value),
            (_, Value::Null)
                | (DataType::Int, Value::Int(_))
                | (DataType::Text, Value::Text(_))
                | (DataType::Bytes, Value::Bytes(_))
                | (DataType::Bool, Value::Bool(_))
        )
    }
}

/// A named, typed attribute with an optional declared domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    /// Attribute name (case-sensitive).
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// Declared domain; defaults to [`Domain::Open`].
    pub domain: Domain,
}

impl Attribute {
    /// Creates an attribute with an open domain.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Attribute {
            name: name.into(),
            data_type,
            domain: Domain::Open,
        }
    }
}

/// An ordered collection of attributes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schema {
    attributes: Vec<Attribute>,
}

impl Schema {
    /// Creates a schema from a list of attributes.
    ///
    /// # Errors
    /// Fails if two attributes share a name.
    pub fn new(attributes: Vec<Attribute>) -> Result<Self> {
        for i in 0..attributes.len() {
            for j in i + 1..attributes.len() {
                if attributes[i].name == attributes[j].name {
                    return Err(PdsError::Schema(format!(
                        "duplicate attribute name '{}'",
                        attributes[i].name
                    )));
                }
            }
        }
        Ok(Schema { attributes })
    }

    /// Convenience constructor from `(name, type)` pairs.
    pub fn from_pairs(pairs: &[(&str, DataType)]) -> Result<Self> {
        Self::new(pairs.iter().map(|(n, t)| Attribute::new(*n, *t)).collect())
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// The attributes in declaration order.
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Looks up an attribute position by name.
    pub fn attr_id(&self, name: &str) -> Result<AttrId> {
        self.attributes
            .iter()
            .position(|a| a.name == name)
            .map(AttrId::from)
            .ok_or_else(|| PdsError::Schema(format!("unknown attribute '{name}'")))
    }

    /// The attribute at a given position.
    pub fn attribute(&self, id: AttrId) -> Result<&Attribute> {
        self.attributes
            .get(id.index())
            .ok_or_else(|| PdsError::Schema(format!("attribute index {id} out of range")))
    }

    /// Returns a new schema containing only the named attributes, in the
    /// order given (projection).
    pub fn project(&self, names: &[&str]) -> Result<Schema> {
        let mut attrs = Vec::with_capacity(names.len());
        for name in names {
            let id = self.attr_id(name)?;
            attrs.push(self.attributes[id.index()].clone());
        }
        Schema::new(attrs)
    }

    /// Validates that a row of values conforms to the schema (arity and
    /// types).
    pub fn validate_row(&self, values: &[Value]) -> Result<()> {
        if values.len() != self.arity() {
            return Err(PdsError::Schema(format!(
                "row arity {} does not match schema arity {}",
                values.len(),
                self.arity()
            )));
        }
        for (attr, value) in self.attributes.iter().zip(values.iter()) {
            if !attr.data_type.admits(value) {
                return Err(PdsError::Schema(format!(
                    "value {value} not admissible for attribute '{}' of type {:?}",
                    attr.name, attr.data_type
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn employee_schema() -> Schema {
        Schema::from_pairs(&[
            ("EId", DataType::Text),
            ("FirstName", DataType::Text),
            ("LastName", DataType::Text),
            ("SSN", DataType::Int),
            ("Office", DataType::Int),
            ("Dept", DataType::Text),
        ])
        .unwrap()
    }

    #[test]
    fn attr_lookup() {
        let s = employee_schema();
        assert_eq!(s.arity(), 6);
        assert_eq!(s.attr_id("SSN").unwrap().index(), 3);
        assert!(s.attr_id("Missing").is_err());
        assert_eq!(s.attribute(AttrId::new(5)).unwrap().name, "Dept");
        assert!(s.attribute(AttrId::new(6)).is_err());
    }

    #[test]
    fn duplicate_names_rejected() {
        assert!(Schema::from_pairs(&[("A", DataType::Int), ("A", DataType::Text)]).is_err());
    }

    #[test]
    fn projection() {
        let s = employee_schema();
        let p = s.project(&["Dept", "EId"]).unwrap();
        assert_eq!(p.arity(), 2);
        assert_eq!(p.attributes()[0].name, "Dept");
        assert!(s.project(&["Nope"]).is_err());
    }

    #[test]
    fn row_validation() {
        let s = Schema::from_pairs(&[("A", DataType::Int), ("B", DataType::Text)]).unwrap();
        assert!(s.validate_row(&[Value::Int(1), Value::from("x")]).is_ok());
        assert!(s.validate_row(&[Value::Int(1), Value::Null]).is_ok());
        assert!(s
            .validate_row(&[Value::from("x"), Value::from("y")])
            .is_err());
        assert!(s.validate_row(&[Value::Int(1)]).is_err());
    }

    #[test]
    fn datatype_admits() {
        assert!(DataType::Int.admits(&Value::Int(3)));
        assert!(!DataType::Int.admits(&Value::from("3")));
        assert!(DataType::Bytes.admits(&Value::Bytes(vec![1])));
        assert!(DataType::Bool.admits(&Value::Bool(true)));
        assert!(DataType::Text.admits(&Value::Null));
    }
}
