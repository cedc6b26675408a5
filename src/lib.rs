//! # partitioned-data-security
//!
//! A from-scratch Rust reproduction of *Partitioned Data Security on
//! Outsourced Sensitive and Non-sensitive Data* (S. Mehrotra, S. Sharma,
//! J. D. Ullman, A. Mishra — ICDE 2019): the **Query Binning (QB)**
//! technique for securely and efficiently running selection queries over a
//! relation split into an encrypted sensitive part and a clear-text
//! non-sensitive part, both hosted on an untrusted public cloud.
//!
//! This crate is a facade: it re-exports the workspace crates so examples
//! and downstream users can depend on a single package.
//!
//! | Re-export | Contents |
//! |---|---|
//! | [`common`] | values, domains, identifiers, errors |
//! | [`crypto`] | AES-128, SHA-256, HMAC, PRF/PRP, non-deterministic & deterministic encryption, OPE, Shamir secret sharing, DPF |
//! | [`storage`] | in-memory relational engine, indexes, statistics, sensitivity partitioning |
//! | [`cloud`] | untrusted cloud simulator, adversarial view, network model, the trusted DB owner |
//! | [`systems`] | secure selection back-ends (non-deterministic scan, CryptDB-style, Arx-style, secret sharing, DPF, Opaque/Jana simulators) |
//! | [`adversary`] | surviving-matches analysis, size / frequency / workload-skew attacks, the partitioned-data-security checker |
//! | [`core`] | **Query Binning**: bin creation, bin retrieval, the end-to-end executor, the η cost model and the range/insert/aggregate/join extensions |
//! | [`workload`] | the paper's Employee example, pseudo-TPC-H generators, Zipf workloads, sensitivity assigners |
//!
//! ## Quickstart
//!
//! ```
//! use partitioned_data_security::prelude::*;
//!
//! // 1. The paper's Employee relation, partitioned by the Example-1 policy.
//! let relation = employee_relation();
//! let policy = employee_sensitivity_policy(&relation).unwrap();
//! let parts = Partitioner::new(policy).split(&relation).unwrap();
//!
//! // 2. Build Query Binning over the searchable attribute and outsource.
//! let binning = QueryBinning::build(&parts, "EId", BinningConfig::default()).unwrap();
//! let mut executor = QbExecutor::new(binning, NonDetScanEngine::new());
//! let mut owner = DbOwner::new(42);
//! let mut cloud = CloudServer::new(NetworkModel::paper_wan());
//! executor.outsource(&mut owner, &mut cloud, &parts).unwrap();
//!
//! // 3. Query; the answer spans the encrypted and the clear-text part.
//! let answer = executor.select(&mut owner, &mut cloud, &"E259".into()).unwrap();
//! assert_eq!(answer.len(), 2);
//!
//! // 4. The recorded adversarial view satisfies partitioned data security.
//! let report = check_partitioned_security(cloud.adversarial_view());
//! assert!(report.counts_indistinguishable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pds_adversary as adversary;
pub use pds_cloud as cloud;
pub use pds_common as common;
pub use pds_core as core;
pub use pds_crypto as crypto;
pub use pds_storage as storage;
pub use pds_systems as systems;
pub use pds_workload as workload;

/// The most commonly used items, importable with a single `use`.
pub mod prelude {
    pub use pds_adversary::{
        check_partitioned_security, check_sharded_partitioned_security, SecurityReport,
        ShardedSecurityReport, SurvivingMatches,
    };
    pub use pds_cloud::{
        AdversarialView, BinCache, BinCacheStats, BinEpisodeRequest, BinKey, BinKind, BinPlacement,
        BinRoutedCloud, BinTransport, CloudServer, DbOwner, Metrics, NetworkModel, ShardRouter,
    };
    pub use pds_common::{Domain, PdsError, Result, Value};
    pub use pds_core::executor::NaivePartitionedExecutor;
    pub use pds_core::extensions::{equi_join, group_by_aggregate, select_range, InsertPlanner};
    pub use pds_core::{
        choose_engines, BinShape, BinningConfig, CostModel, EngineCandidate, EtaModel, PlanMode,
        PlannerConfig, QbExecutor, QueryBinning, QueryPlan, ShardPlan, TransportedRun,
    };
    pub use pds_storage::{
        Attribute, DataType, Partitioner, Predicate, Relation, Schema, SelectionQuery,
        SensitivityPolicy, Tuple,
    };
    pub use pds_systems::{
        ArxEngine, DeterministicIndexEngine, DpfEngine, JanaSimEngine, NonDetScanEngine,
        SecretSharingEngine, SecureSelectionEngine,
    };
    pub use pds_workload::{
        employee_relation, employee_sensitivity_policy, QueryWorkload, SensitivityAssigner,
        TpchConfig, TpchGenerator,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_are_usable() {
        let relation = employee_relation();
        assert_eq!(relation.len(), 8);
        let shape = BinShape::for_counts(10, 10).unwrap();
        assert_eq!(shape.sensitive_bins, 5);
        let model = EtaModel::new(0.3, 0.01, 1000.0, 100.0, 10, 10, 1000);
        assert!(model.eta_simplified() < 1.0);
    }
}
