//! # pds-storage
//!
//! A compact in-memory relational storage engine: schemas, tuples, relations,
//! equality/range predicates, hash and ordered indexes, per-attribute value
//! statistics, and — the part specific to this paper — **row-level
//! sensitivity partitioning** that splits a relation `R` into a sensitive
//! part `Rs` and a non-sensitive part `Rns` (§II of the paper).
//!
//! Everything the cloud simulator (`pds-cloud`), the secure back-ends
//! (`pds-systems`) and Query Binning itself (`pds-core`) manipulate is built
//! from the types in this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod index;
pub mod partition;
pub mod predicate;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod tuple;

pub use index::{HashIndex, OrderedIndex};
pub use partition::{PartitionedRelation, Partitioner, SensitivityPolicy};
pub use predicate::Predicate;
pub use relation::Relation;
pub use schema::{Attribute, DataType, Schema};
pub use stats::AttributeStats;
pub use tuple::Tuple;
