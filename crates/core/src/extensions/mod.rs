//! Extensions of Query Binning beyond single-value selections.
//!
//! The conference paper develops QB for point selection queries and defers
//! several extensions to the full version: range queries, inserts,
//! group-by aggregation and joins.  This module implements practical
//! versions of each on top of the point-selection machinery:
//!
//! * [`range`] — a range query retrieves the bin pairs of every known
//!   value inside the range as one batch (each episode looks exactly like
//!   a point query to the adversary);
//! * [`insert`] — planning where a newly inserted value lands (existing
//!   assignment, a spare slot, or a rebuild of the binning);
//! * [`aggregate`] — owner-side group-by `COUNT`/`SUM` over one batch of
//!   QB selections;
//! * [`join`] — owner-side equi-join of two QB deployments on their
//!   searchable attributes, one batch per deployment.

pub mod aggregate;
pub mod insert;
pub mod join;
pub mod range;

pub use aggregate::{group_by_aggregate, GroupAggregate};
pub use insert::{InsertPlan, InsertPlanner};
pub use join::equi_join;
pub use range::select_range;
