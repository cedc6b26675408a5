//! # pds-systems
//!
//! The secure selection **back-ends** the paper builds on, compares against
//! and composes with Query Binning:
//!
//! | Module | Paper counterpart | Category |
//! |---|---|---|
//! | [`nondet_scan`] | the "No-Ind(A)/No-Ind(B)" procedure of §V-B on two commercial DBMSs | non-deterministic encryption, owner-side search |
//! | [`det_index`] | CryptDB-style deterministic encryption with a cloud-side index | weak (leaks frequency) but fast |
//! | [`arx`] | Arx \[9\]: per-occurrence counter tokens over non-deterministic encryption | indexable, β ≈ 1.4–2.5 |
//! | [`secret_sharing`] | Emekçi et al. \[5\] / Shamir \[4\] | strong, linear scan, ≈10 ms per predicate |
//! | [`dpf_engine`] | Gilboa–Ishai DPF \[6\] | strong, two-server, linear scan |
//! | [`oblivious`] | Opaque \[16\] (SGX) and Jana \[37\] (MPC) cost simulators | strong, oblivious full scan |
//!
//! Every back-end implements [`SecureSelectionEngine`]: it outsources a
//! relation through the [`pds_cloud::DbOwner`] onto a
//! [`pds_cloud::CloudServer`] and answers `IN`-set selection queries over the
//! encrypted data.  Query Binning (`pds-core`) drives whichever engine it is
//! configured with for the sensitive side of a partitioned deployment; the
//! same engine over the *whole* relation is the "full encryption" baseline of
//! the paper's η analysis.
//!
//! [`cost`] converts the work counters recorded by the cloud and the owner
//! into simulated wall-clock seconds using per-back-end cost profiles
//! calibrated to the numbers the paper reports (Opaque: 89 s for a selection
//! over 700 MB; Jana: 1051 s over 116 MB; secret sharing: ≈10 ms per
//! predicate search; Arx: β ≈ 1.4–2.5; cleartext: ≈0.2 ms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arx;
pub mod cost;
pub mod det_index;
pub mod dpf_engine;
pub mod engine;
pub mod nondet_scan;
pub mod oblivious;
pub mod secret_sharing;

pub use arx::ArxEngine;
pub use cost::{computation_time, CostProfile};
pub use det_index::DeterministicIndexEngine;
pub use dpf_engine::DpfEngine;
pub use engine::{
    fine_grained_bin_episode, finish_episode, BinEpisodeOutcome, SecureSelectionEngine,
};
pub use nondet_scan::NonDetScanEngine;
pub use oblivious::{JanaSimEngine, ObliviousScanEngine, OpaqueSimEngine};
pub use secret_sharing::SecretSharingEngine;
