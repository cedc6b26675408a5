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
//!   engine-specific token sets.  `pds-cloud` charges every owner↔cloud
//!   interaction the frame length of the message it represents to its
//!   metrics and its network clock (`latency + bytes/bandwidth` per
//!   exchange), so bytes moved and communication time are what the wire
//!   would carry.  The length is the encoder's own output counted
//!   instead of stored ([`WireMessage::encoded_len`], and
//!   [`fetch_frame_len`], [`rows_frame_len`] and [`ack_frame_len`] over
//!   borrowed fields, the rows as the [`WireRow`]s a cloud stores): one
//!   writer per wire item both sizes and encodes.
//! * [`pool`] — a thread-local reusable buffer pool backing both codec
//!   directions, so steady-state wire traffic allocates nothing per frame
//!   (reuse counters feed the `pds_wire_buf_reuse_total` metrics).
//!
//! Layering: this crate depends only on `pds-common` (values, errors) and
//! `pds-storage` (tuples).  Ciphertexts travel as opaque byte strings
//! ([`WireRow`], also the row type the cloud stores and answers with), so
//! no crypto types leak into the protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
pub mod messages;
pub mod pool;

pub use frame::{
    crc32, decode_frame, decode_frame_corr, encode_frame, encode_frame_corr, encoded_len,
    read_frame, FrameReader, ReadFrame, FRAME_OVERHEAD, HEADER_LEN, MAX_PAYLOAD_LEN, TRAILER_LEN,
    VERSION,
};
pub use messages::{
    ack_frame_len, error_frame, fetch_frame_len, msg_tag, rows_frame_len, Ack, BinPayload,
    ErrorFrame, FetchBinRequest, Hello, InsertRequest, WireMessage, WireRow,
};
pub use pool::{pool_stats, thread_pool_stats, PoolStats, PooledBuf};
