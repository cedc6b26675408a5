//! # pds-bench
//!
//! Experiment drivers regenerating every table and figure of the paper's
//! evaluation (§V, §VI), shared between the `experiments` binary (which
//! prints the same rows/series the paper reports) and the Criterion
//! benchmarks under `benches/`.
//!
//! | Driver | Paper artifact |
//! |---|---|
//! | [`fig6a`] | Figure 6a — analytical η vs γ for several sensitivity ratios |
//! | [`fig6b`] | Figure 6b — measured η vs α for three dataset sizes |
//! | [`fig6c`] | Figure 6c — retrieval time vs bin-size imbalance |
//! | [`table6`] | Table VI — QB composed with Opaque and Jana at 1–60 % sensitivity |
//! | [`attacks`] | §VI — Arx hardening (size / frequency / workload-skew attacks with and without QB) and the §I/§V headline numbers |
//! | [`sharded`] | beyond the paper — shard-scaling: the same workload over 1/2/4/8 bin-routed cloud shards, modelled *and* measured (threaded fan-out) |
//! | [`zipf`] | beyond the paper — Zipf-skewed workloads × owner-side hot-bin cache sizes: hit rate and bytes moved vs skew |
//! | [`wire`] | beyond the paper — wire-protocol sweep: byte-accurate bytes moved and the simulated network wall-clock (busiest shard's clock) over latency × bandwidth × shards, plus the composed-vs-fine-grained rounds gate |
//! | [`hetero`] | beyond the paper — heterogeneous shards: a different secure back-end per shard, exact answers and per-shard + composed security |
//! | [`planner`] | beyond the paper — the cost-based optimizer: back-ends priced on their counted work, per-shard engine choice under the workload-skew advantage constraint, residual pushdown; gated on beating every equally-secure homogeneous deployment |
//! | [`rwmix`] | beyond the paper — read/write mixes over the Employee workload driving cache invalidation on insert under load |
//! | [`service`] | beyond the paper — real TCP shard daemons: concurrent multi-tenant owners in a closed loop, throughput vs worker-pool size with p50/p99 latency, gated on exact answers and composed security |
//! | [`pipeline`] | beyond the paper — pipelined wire dispatch vs lock-step over the same daemons: correlated in-flight windows, gated on strictly faster wall-clock, shrinking blocked-read self-time, identical answers, intact security and buffer-pool reuse |
//!
//! [`deploy`] holds the shared machinery: building a partitioned TPC-H-like
//! deployment (single-server or sharded) at a target sensitivity ratio,
//! running workloads, and converting work counters into simulated seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attacks;
pub mod deploy;
pub mod fig6a;
pub mod fig6b;
pub mod fig6c;
pub mod hetero;
pub mod pipeline;
pub mod planner;
pub mod rwmix;
pub mod service;
pub mod sharded;
pub mod table6;
pub mod wire;
pub mod zipf;
