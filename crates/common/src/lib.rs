//! # pds-common
//!
//! Shared building blocks for the *Partitioned Data Security* (ICDE 2019)
//! reproduction: attribute values, the byte codec every encoded layout is
//! written and read with, error types, identifiers and deterministic
//! random-number helpers used across every other crate in the workspace.
//!
//! The crate is intentionally dependency-light: everything that touches
//! relations, encryption or the cloud simulator lives in the more specific
//! crates (`pds-storage`, `pds-crypto`, `pds-cloud`, ...).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod error;
pub mod ids;
pub mod lockcheck;
pub mod rng;
pub mod value;

pub use error::{PdsError, Result};
pub use ids::{AttrId, BinId, QueryId, TupleId};
pub use lockcheck::{OrderedGuard, OrderedMutex};
pub use value::Value;
