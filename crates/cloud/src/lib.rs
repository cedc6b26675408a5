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
//! * [`network::NetworkModel`] — a byte-accurate communication cost model
//!   (the `Ccom` of the paper's §V-A analysis),
//! * [`metrics::Metrics`] — counters of plaintext work, cryptographic work
//!   and bytes moved, from which the experiment harness derives simulated
//!   wall-clock times for back-ends (Opaque, Jana) that would be too slow to
//!   run for real, and
//! * [`shard::ShardRouter`] — a sharded multi-server deployment: `N`
//!   independent `CloudServer` shards behind a seeded bin-to-shard placement
//!   map, with per-shard *and* composed adversarial views,
//! * [`transport::BinTransport`] — dispatch of per-shard bin fetches
//!   sequentially, on scoped OS threads (measured compute overlap), or
//!   through [`pds_proto::NetSim`]'s event loop
//!   ([`transport::BinTransport::Simulated`]): the wire frames each shard
//!   moved are replayed over per-shard links so the reported makespan shows
//!   network latency genuinely overlapping, and
//! * [`cache::BinCache`] — the owner-side hot-bin LRU: whole decrypted bins
//!   cached at the trusted owner, so repeated (skewed) queries skip the
//!   cloud round-trip entirely, and
//! * [`session::CloudSession`] — the typed-message session layer: per-episode
//!   round counting, composed one-round `BinPairRequest` episodes, and
//!   `WireMessage` dispatch onto the server (the live execution path of the
//!   plan→session pipeline in `pds-core`), and
//! * [`service::ShardDaemon`] / [`tcp::TcpCloudClient`] — the same dispatch
//!   seam behind a real loopback TCP socket: a per-shard daemon (acceptor +
//!   reader threads + worker pool) serving concurrent multi-tenant owners,
//!   and the pooled client whose [`tcp::RemoteSession`] implements
//!   [`session::EpisodeChannel`] so engines run unchanged on either side of
//!   the wire ([`transport::BinTransport::Tcp`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod network;
pub mod owner;
pub mod server;
pub mod service;
pub mod session;
pub mod shard;
pub mod store;
pub mod tcp;
pub mod transport;
pub mod view;

pub use cache::{BinCache, BinCacheStats, BinKey, BinKind};
pub use metrics::Metrics;
pub use network::NetworkModel;
pub use owner::DbOwner;
pub use pds_proto::{msg_tag, LinkSpec, RoundTrip, SimReport};
pub use server::{BinPairResult, CloudServer};
pub use service::{ServiceConfig, ShardDaemon};
pub use session::{BinEpisodeRequest, CloudSession, EpisodeChannel};
pub use shard::{BinPlacement, BinRoutedCloud, ShardRouter};
pub use store::{EncryptedRow, EncryptedStore};
pub use tcp::{CorrelationWindow, RemoteSession, TcpCloudClient, TcpShardConn};
pub use transport::{simulate_wire_traffic, BinTransport, DispatchReport};
pub use view::{AdversarialView, EpisodeLoads, EpisodeObservation, QueryEpisode};
