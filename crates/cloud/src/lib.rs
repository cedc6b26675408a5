//! # pds-cloud
//!
//! The simulated **untrusted public cloud** of the paper's system model
//! (§II), together with the trusted **DB owner** client.
//!
//! The cloud stores two things for a partitioned relation:
//!
//! * the non-sensitive part `Rns` in clear-text (a [`pds_storage::Relation`]
//!   plus a hash index on the searchable attribute), and
//! * the sensitive part `Rs` as non-deterministically encrypted tuples
//!   (an [`store::EncryptedStore`]), optionally with cloud-side searchable
//!   tags for the indexable back-ends (CryptDB-style deterministic tags,
//!   Arx-style counter tokens).
//!
//! Every request the owner sends and every tuple the cloud returns is
//! recorded in an [`view::AdversarialView`], which is exactly the information
//! the honest-but-curious adversary of §II observes.  The adversary crate
//! (`pds-adversary`) and the security tests consume that view.
//!
//! The crate also provides:
//!
//! * [`network::NetworkModel`] — the communication cost model (the `Ccom`
//!   of the paper's §V-A analysis): every exchange adds
//!   `latency + bytes/bandwidth` of its measured frame bytes to the
//!   serving shard's [`CloudServer::comm_time`], the one network clock,
//! * [`metrics::Metrics`] — counters of plaintext work, cryptographic work
//!   and bytes moved, from which the experiment harness derives simulated
//!   wall-clock times for back-ends (Opaque, Jana) that would be too slow to
//!   run for real, and
//! * [`shard::ShardRouter`] — a sharded multi-server deployment: `N`
//!   independent `CloudServer` shards behind a seeded bin-to-shard placement
//!   map, with per-shard *and* composed adversarial views,
//! * [`transport::BinTransport`] — the one fan-out of per-shard episode
//!   streams, in process or over TCP: sequentially on the calling thread,
//!   or at once, the last task on the calling thread and the others on
//!   scoped OS threads (measured overlap); each task captures its
//!   own shard.  The simulated network time of an overlapped fan-out is
//!   the busiest shard's [`CloudServer::comm_time`]
//!   ([`shard::ShardRouter::parallel_comm_time`]), and
//! * [`cache::BinCache`] — the owner-side hot-bin LRU: whole decrypted bins
//!   cached at the trusted owner, so repeated (skewed) queries skip the
//!   cloud round-trip entirely, and
//! * [`service::ShardDaemon`] / [`tcp::TcpCloudClient`] — the server behind
//!   a real loopback TCP socket: a per-shard daemon (acceptor + reader
//!   threads + worker pool) serving concurrent multi-tenant owners through
//!   [`CloudServer::serve`], and the pooled client that writes composed
//!   episodes in a correlated in-flight window and demultiplexes their
//!   answers ([`transport::BinTransport::Tcp`], whose shard tasks fan out
//!   through the same [`transport::BinTransport::dispatch`]).  Engines
//!   never see the socket: they split a composed episode into the tags
//!   that ride the request and the post-processing of its answer, and
//!   only back-ends that split this way travel over TCP.
//!
//! Every query, in process or over TCP, is one [`FetchBinRequest`] served
//! by one handler, [`CloudServer::fetch_bin`]: the clear-text bin with its
//! pushed-down residual, storage addresses and search tags in one
//! exchange.  Engines run their episodes on `&mut CloudServer` directly,
//! from the owner-side [`BinEpisodeRequest`] the executor plans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod network;
pub mod owner;
pub mod server;
pub mod service;
pub mod shard;
pub mod store;
pub mod tcp;
pub mod transport;
pub mod view;

pub use cache::{BinCache, BinCacheStats, BinKey, BinKind};
pub use metrics::Metrics;
pub use network::NetworkModel;
pub use owner::DbOwner;
pub use pds_proto::{msg_tag, FetchBinRequest};
pub use server::{BinEpisodeRequest, BinPairResult, CloudServer};
pub use service::{ServiceConfig, ShardDaemon};
pub use shard::{BinPlacement, BinRoutedCloud, ShardRouter};
pub use store::{EncryptedRow, EncryptedStore};
pub use tcp::{CorrelationWindow, TcpCloudClient, TcpShardConn};
pub use transport::BinTransport;
pub use view::{
    AdversarialView, EpisodeLoads, EpisodeObservation, QueryEpisode, ResultList, ResultPair,
};
