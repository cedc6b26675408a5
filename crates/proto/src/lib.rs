//! # pds-proto
//!
//! The **byte-accurate owner↔cloud wire protocol**.
//!
//! Until this crate existed, every `bytes_uploaded` / `bytes_downloaded`
//! number in the workspace was an *estimate* (`Value::size_bytes` sums) —
//! the serde derives are no-ops and nothing ever serialised.  `pds-proto`
//! closes that gap:
//!
//! * [`frame`] — a versioned, length-delimited, CRC-checked frame layout.
//!   Decoding is total: truncated or corrupted input yields
//!   `Err(PdsError::Wire(..))`, never a panic.
//! * [`messages`] — the typed protocol messages: one query message
//!   ([`FetchBinRequest`], by clear-text values, storage addresses and
//!   search tags at once) answered by one [`BinPayload`], plus
//!   [`InsertRequest`], [`Ack`], [`ErrorFrame`], the [`Hello`] handshake,
//!   the stats exchange, and an [`WireMessage::Opaque`] escape hatch for
//!   engine-specific token sets.  `pds-cloud` encodes the *actual* traffic
//!   of every owner↔cloud interaction through these and charges the
//!   encoded frame lengths to its metrics and its network clock
//!   (`latency + bytes/bandwidth` per exchange), so bytes moved and
//!   communication time are measured off the wire.
//! * [`pool`] — a thread-local reusable buffer pool backing both codec
//!   directions, so steady-state wire traffic allocates nothing per frame
//!   (reuse counters feed the `pds_wire_buf_reuse_total` metrics).
//!
//! Layering: this crate depends only on `pds-common` (values, errors) and
//! `pds-storage` (tuples).  Ciphertexts travel as opaque byte strings
//! ([`WireRow`]), so no crypto types leak into the protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod messages;
pub mod pool;

pub use frame::{
    crc32, decode_frame, decode_frame_corr, encode_frame, encode_frame_corr, encoded_len,
    read_frame, FrameReader, ReadFrame, FRAME_OVERHEAD, HEADER_LEN, HEADER_LEN_V1, MAX_PAYLOAD_LEN,
    TRAILER_LEN, VERSION, VERSION_V1,
};
pub use messages::{
    error_frame, msg_tag, Ack, BinPayload, ErrorFrame, FetchBinRequest, Hello, InsertRequest,
    WireMessage, WireRow,
};
pub use pool::{pool_stats, thread_pool_stats, PoolStats, PooledBuf};
