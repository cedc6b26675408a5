//! # pds-core — Query Binning
//!
//! The primary contribution of *Partitioned Data Security on Outsourced
//! Sensitive and Non-sensitive Data* (Mehrotra, Sharma, Ullman, Mishra —
//! ICDE 2019): the **Query Binning (QB)** technique.
//!
//! A relation is partitioned (by `pds-storage`) into a sensitive part `Rs`
//! (outsourced encrypted through any [`pds_systems::SecureSelectionEngine`])
//! and a non-sensitive part `Rns` (outsourced in clear-text).  QB maps a
//! selection query for one value `w` into
//!
//! * one **sensitive bin** — a set of values searched over `Rs` in encrypted
//!   form, and
//! * one **non-sensitive bin** — a set of values searched over `Rns` in
//!   clear-text,
//!
//! chosen so that the joint processing of the two requests leaks nothing
//! about which value was queried, which encrypted tuple is associated with
//! which clear-text tuple, or how many sensitive tuples any value has
//! (the *partitioned data security* definition of §III, checked empirically
//! by `pds-adversary`).
//!
//! Crate layout:
//!
//! * [`shape`] — approximately-square factorisation and the near-square
//!   extension (§IV-A "a simple extension of the base case");
//! * [`binning`] — Algorithm 1 (bin creation) for the base 1:1 case and the
//!   general multi-tuple case with greedy packing and fake-tuple padding
//!   (§IV-B), plus Algorithm 2 (bin retrieval, rules R1/R2);
//! * [`executor`] — the end-to-end partitioned execution: outsourcing both
//!   parts, rewriting each query into its bin pair, running the encrypted
//!   and clear-text sub-queries, and merging/filtering at the owner;
//! * [`plan`] — the plan→episode pipeline: batches compile into
//!   [`plan::QueryPlan`]s of per-shard episode steps (composed: the
//!   clear-text bin rides the sensitive side's last exchange, one round
//!   or two by back-end; fine-grained: separate requests), each executed
//!   as one adversarial-view episode whose every exchange is one
//!   `FetchBinRequest` served by [`pds_cloud::CloudServer::fetch_bin`];
//! * [`planner`] — the cost-based optimizer over that pipeline: a
//!   calibrated [`planner::CostModel`] picks each shard's back-end under a
//!   workload-skew security constraint, residual predicates push below the
//!   bin fetch for cloud-side filtering, and per-shard episodes reorder
//!   into deterministic bin-major order;
//! * [`cost`] — the analytical performance model η of §V-A;
//! * [`extensions`] — range queries, inserts, group-by aggregation and
//!   equi-joins on top of QB (the full-version extensions).
//!
//! ```no_run
//! use pds_cloud::{CloudServer, DbOwner, NetworkModel};
//! use pds_core::{BinningConfig, QbExecutor, QueryBinning};
//! use pds_storage::{Partitioner, Predicate};
//! use pds_systems::NonDetScanEngine;
//! use pds_workload::employee_relation;
//!
//! let relation = employee_relation();
//! let policy = Predicate::eq(relation.schema(), "Dept", "Defense").unwrap();
//! let parts = Partitioner::row_level(policy).split(&relation).unwrap();
//!
//! let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
//! let mut executor = QbExecutor::new(binning, NonDetScanEngine::new());
//! let mut owner = DbOwner::new(7);
//! let mut cloud = CloudServer::new(NetworkModel::paper_wan());
//! executor.outsource(&mut owner, &mut cloud, &parts).unwrap();
//! let answer = executor.select(&mut owner, &mut cloud, &"E259".into()).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod cost;
pub mod executor;
pub mod extensions;
pub mod plan;
pub mod planner;
pub mod shape;

pub use binning::{BinAssignment, BinPair, BinningConfig, QueryBinning};
pub use cost::EtaModel;
pub use executor::{QbExecutor, TransportedRun, DEFAULT_PIPELINE_WINDOW};
pub use plan::{execute_shard_pipelined, EpisodeStep, PlanMode, QueryPlan};
pub use planner::{choose_engines, CostModel, EngineCandidate, PlannerConfig, ShardPlan};
pub use shape::BinShape;
