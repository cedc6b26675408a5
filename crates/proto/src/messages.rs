//! The typed owner↔cloud messages carried inside wire frames.
//!
//! Each variant of [`WireMessage`] has a stable one-byte type tag and a
//! self-delimiting payload.  Payloads follow one compact rule:
//!
//! | field | encoding |
//! |---|---|
//! | integer: count, byte-string length, tuple/row id, attribute id, `Ack` items, `Hello` tenant | unsigned LEB128 varint (7 bits per byte, low group first, high bit set on every byte but the last; 1–10 bytes) |
//! | byte string (ciphertext, search tag, text) | varint length, then the bytes |
//! | clear-text [`Value`] | tag byte (`0` Null, `1` Int, `2` Text, `3` Bytes, `4` Bool), then nothing for Null, a zigzag varint for Int, a byte string for Text/Bytes, one `0`/`1` byte for Bool |
//! | clear-text [`Tuple`] | varint id, varint arity, then each value |
//! | [`WireRow`] | varint id, byte strings `attr_ct` and `tuple_ct`, varint tag count, then each tag as a byte string |
//! | optional predicate | presence byte `0`/`1`, then a structure tag and its operands (varint attribute ids, values, varint child counts) |
//!
//! Clear-text values and tuples are written straight into the pooled frame
//! buffer, so encoding allocates nothing per value or per tuple.  A small
//! integer costs one or two bytes instead of a tag plus eight.
//!
//! **The encrypted forms stay fixed-width.**  [`Value::encode`] and
//! [`Tuple::encode`] — the plaintext that `pds-crypto` encrypts and tags,
//! and the byte form owners compare — keep their big-endian fixed-width
//! integers.  A varint there would make a ciphertext's length depend on
//! the magnitude of a sensitive integer.  The compact rule applies only to
//! what the cloud already holds in clear (the non-sensitive rows and
//! values), whose encoded length reveals nothing new, and to framing
//! around opaque byte strings.
//!
//! **One writer per item sizes and encodes.**  Every writer (varint, byte
//! string, list, value, tuple, row, predicate) writes into a
//! [`pds_common::codec`] byte sink: the frame buffer when encoding, or a
//! counter that keeps only the number of bytes.
//! [`WireMessage::encoded_len`] runs the payload writer into the counter,
//! and the borrowed entry points [`fetch_frame_len`], [`rows_frame_len`]
//! and [`ack_frame_len`] run the query, rows and acknowledgement writers
//! over slices and counts, so an accounting layer charges exactly the
//! bytes a frame carries without building the message, and the two
//! lengths agree by construction.
//!
//! Decoding is total: every read goes through the shared bounds-checked
//! [`Reader`], and malformed payloads yield `Err(PdsError::Wire(..))`,
//! never a panic.  Overlong or non-canonical varints, varints past `u64`,
//! unknown tags, invalid UTF-8 and trailing bytes are all rejected, and a
//! peer's declared counts reserve a bounded number of items up front.  The
//! frame layer's CRC already rejects corrupted-in-flight bytes; the
//! payload decoders defend against malformed-but-checksummed input (a
//! buggy or malicious peer).

use pds_common::codec::{counted, value_tag, write_bytes, write_varint, Counter, Reader, Sink};
use pds_common::{AttrId, PdsError, Result, TupleId, Value};
use pds_storage::{Predicate, Tuple};

use crate::frame::{begin_frame, checked_frame_len, decode_frame_corr, encoded_len, finish_frame};
use crate::pool::{self, PooledBuf};

/// One encrypted row: how the cloud stores a sensitive tuple, and how the
/// tuple travels over the wire.
///
/// Ciphertexts are opaque byte strings at this layer, keeping the protocol
/// crate free of crypto types.  `pds-cloud` stores these rows as they
/// arrive and answers fetches with rows that carry only the fields the
/// answer needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireRow {
    /// Storage address / tuple id.
    pub id: u64,
    /// Ciphertext of the searchable attribute value; empty when the
    /// message only carries full-tuple ciphertexts, or the row has no
    /// attribute ciphertext (every back-end but the No-Ind column scan).
    /// A well-formed ciphertext is never empty, so the two cannot be
    /// confused.
    pub attr_ct: Vec<u8>,
    /// Ciphertext of the full tuple; empty in a column download, which
    /// carries only attribute ciphertexts.
    pub tuple_ct: Vec<u8>,
    /// Cloud-side searchable tags.
    pub search_tags: Vec<Vec<u8>>,
}

impl WireRow {
    fn write(&self, out: &mut impl Sink) {
        write_varint(out, self.id);
        write_bytes(out, &self.attr_ct);
        write_bytes(out, &self.tuple_ct);
        write_list(out, &self.search_tags, |out, tag| write_bytes(out, tag));
    }

    fn read(r: &mut Reader<'_>) -> Result<Self> {
        let id = r.varint()?;
        let attr_ct = r.blob()?;
        let tuple_ct = r.blob()?;
        let search_tags = r.list(Reader::blob)?;
        Ok(WireRow {
            id,
            attr_ct,
            tuple_ct,
            search_tags,
        })
    }
}

/// Owner → cloud: the one query message.  It fetches tuples by clear-text
/// values, by storage address and by opaque searchable tags, in any
/// combination, and one [`BinPayload`] answers all three.
///
/// A composed Query Binning episode ends in exactly one of these: the
/// clear-text values of the non-sensitive bin next to the sensitive side,
/// which travels as the search tags of the sensitive bin (det-index, arx,
/// or the tokens an enclave resolves) or as the storage addresses a
/// back-end located in rounds of its own (nondet-scan, secret sharing,
/// DPF).  A fine-grained episode sends the clear-text selection and the
/// sensitive fetch as two of them.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FetchBinRequest {
    /// Clear-text values of one non-sensitive bin (`IN` selection).
    pub values: Vec<Value>,
    /// Storage addresses of encrypted tuples to return.
    pub ids: Vec<u64>,
    /// Opaque searchable tags (deterministic tags / Arx counter tokens).
    pub tags: Vec<Vec<u8>>,
    /// Optional residual predicate pushed below the bin fetch: the cloud
    /// evaluates it on the *clear-text* (non-sensitive) result stream before
    /// the downlink, so non-matching tuples never travel.  The owner must
    /// only place predicates over non-sensitive, non-searchable attributes
    /// here — anything else would leak plaintext structure on the wire.
    pub predicate: Option<Predicate>,
}

/// Cloud → owner: the result stream of a retrieval — clear-text tuples from
/// the non-sensitive side and/or encrypted rows from the sensitive side.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BinPayload {
    /// Clear-text matching tuples.
    pub plain_tuples: Vec<Tuple>,
    /// Encrypted rows (ciphertexts opaque at this layer).
    pub encrypted_rows: Vec<WireRow>,
}

/// Owner → cloud: outsource clear-text tuples and/or encrypted rows.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InsertRequest {
    /// Clear-text tuples of the non-sensitive relation.
    pub plain_tuples: Vec<Tuple>,
    /// Encrypted rows of the sensitive relation.
    pub encrypted_rows: Vec<WireRow>,
}

/// Cloud → owner: positive acknowledgement, carrying the number of items
/// the request affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ack {
    /// Items (tuples, rows, tokens) the acknowledged request covered.
    pub items: u64,
}

/// Either direction: a transported error (the wire form of [`PdsError`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ErrorFrame {
    /// Machine-readable category (mirrors [`PdsError::category`]).
    pub category: String,
    /// Human-readable message.
    pub message: String,
}

impl ErrorFrame {
    /// Converts the transported error back into a typed [`PdsError`],
    /// inverting [`error_frame`] (unknown categories become `Wire` errors).
    pub fn into_error(self) -> PdsError {
        match self.category.as_str() {
            "schema" => PdsError::Schema(self.message),
            "query" => PdsError::Query(self.message),
            "crypto" => PdsError::Crypto(self.message),
            "binning" => PdsError::Binning(self.message),
            "cloud" => PdsError::Cloud(self.message),
            "security" => PdsError::Security(self.message),
            "config" => PdsError::Config(self.message),
            _ => PdsError::Wire(self.message),
        }
    }
}

/// Owner → cloud: the first message of every service connection — names the
/// tenant whose keyspace and bin namespace the connection operates in.  The
/// daemon validates the tenant and echoes the `Hello` back; any other first
/// message (or an unknown tenant) is answered with a typed `Error` frame
/// and a closed connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hello {
    /// Tenant identifier (one per concurrent `DbOwner`).
    pub tenant: u64,
}

/// The stable one-byte type tags of the wire protocol, as module-level
/// constants so metrics layers can index per-type counters without having a
/// message instance at hand.
pub mod msg_tag {
    /// [`super::FetchBinRequest`].
    pub const FETCH_BIN_REQUEST: u8 = 1;
    // Tag 2 is retired: it carried a second query message, whose work
    // `FetchBinRequest` now does.  A frame carrying it is refused as an
    // unknown type, and no other tag took its number.
    /// [`super::BinPayload`].
    pub const BIN_PAYLOAD: u8 = 3;
    /// [`super::InsertRequest`].
    pub const INSERT_REQUEST: u8 = 4;
    /// [`super::Ack`].
    pub const ACK: u8 = 5;
    /// [`super::ErrorFrame`].
    pub const ERROR: u8 = 6;
    /// [`super::WireMessage::Opaque`].
    pub const OPAQUE: u8 = 7;
    /// [`super::Hello`].
    pub const HELLO: u8 = 8;
    /// [`super::WireMessage::StatsRequest`].
    pub const STATS_REQUEST: u8 = 9;
    /// [`super::WireMessage::StatsSnapshot`].
    pub const STATS_SNAPSHOT: u8 = 10;
    /// The highest tag in use: tags are `1..=COUNT`, tag 2 among them
    /// retired, and per-type counters are sized to it.
    pub const COUNT: usize = 10;

    /// Short human-readable name of a type tag (for experiment output).
    pub fn name(tag: u8) -> &'static str {
        match tag {
            FETCH_BIN_REQUEST => "FetchBinRequest",
            BIN_PAYLOAD => "BinPayload",
            INSERT_REQUEST => "InsertRequest",
            ACK => "Ack",
            ERROR => "Error",
            OPAQUE => "Opaque",
            HELLO => "Hello",
            STATS_REQUEST => "StatsRequest",
            STATS_SNAPSHOT => "StatsSnapshot",
            _ => "unknown",
        }
    }
}

/// Every message of the owner↔cloud protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireMessage {
    /// The query: fetch by values, addresses and tags.
    FetchBinRequest(FetchBinRequest),
    /// Result stream of a retrieval.
    BinPayload(BinPayload),
    /// Outsourcing upload.
    InsertRequest(InsertRequest),
    /// Positive acknowledgement.
    Ack(Ack),
    /// Transported error.
    Error(ErrorFrame),
    /// An opaque body whose structure the protocol does not interpret
    /// (engine-specific token sets such as DPF key shares; the frame still
    /// contributes its real length to the byte accounting).
    Opaque(Vec<u8>),
    /// Tenant handshake (first message of every service connection).
    Hello(Hello),
    /// Ask the shard daemon for a metrics snapshot scoped to the
    /// connection's tenant (own series plus global shard health).
    StatsRequest,
    /// Prometheus-text-format metrics snapshot answering a
    /// [`WireMessage::StatsRequest`].
    StatsSnapshot(String),
}

impl WireMessage {
    /// The one-byte frame tag of this message type.
    pub fn msg_type(&self) -> u8 {
        match self {
            WireMessage::FetchBinRequest(_) => msg_tag::FETCH_BIN_REQUEST,
            WireMessage::BinPayload(_) => msg_tag::BIN_PAYLOAD,
            WireMessage::InsertRequest(_) => msg_tag::INSERT_REQUEST,
            WireMessage::Ack(_) => msg_tag::ACK,
            WireMessage::Error(_) => msg_tag::ERROR,
            WireMessage::Opaque(_) => msg_tag::OPAQUE,
            WireMessage::Hello(_) => msg_tag::HELLO,
            WireMessage::StatsRequest => msg_tag::STATS_REQUEST,
            WireMessage::StatsSnapshot(_) => msg_tag::STATS_SNAPSHOT,
        }
    }

    /// Short human-readable name of this message type.
    pub fn name(&self) -> &'static str {
        msg_tag::name(self.msg_type())
    }

    /// Encodes the message into one complete wire frame
    /// (header + payload + CRC trailer) with correlation id 0.
    pub fn encode(&self) -> Result<Vec<u8>> {
        self.encode_framed(0).map(PooledBuf::into_vec)
    }

    /// Encodes the message into one complete wire frame carrying `corr`,
    /// in a pooled buffer: header, payload, and trailer are written into a
    /// single recycled `Vec`, so a warm thread encodes a frame with zero
    /// allocations.  Dropping the returned buffer (e.g. after the bytes
    /// are on the socket) returns it to the pool.
    pub fn encode_framed(&self, corr: u64) -> Result<PooledBuf> {
        let _span = pds_obs::obs_span("frame.encode");
        let mut frame = pool::take_buf();
        begin_frame(&mut frame, self.msg_type(), corr);
        self.write_payload(&mut *frame)?;
        finish_frame(&mut frame)?;
        Ok(frame)
    }

    /// Writes this message's payload into `out`: after the frame header
    /// when called from [`Self::encode_framed`], into a [`Counter`] when
    /// called from [`Self::encoded_len`].
    fn write_payload(&self, out: &mut impl Sink) -> Result<()> {
        match self {
            WireMessage::FetchBinRequest(m) => {
                write_fetch(out, &m.values, &m.ids, &m.tags, m.predicate.as_ref())?;
            }
            WireMessage::BinPayload(BinPayload {
                plain_tuples,
                encrypted_rows,
            })
            | WireMessage::InsertRequest(InsertRequest {
                plain_tuples,
                encrypted_rows,
            }) => write_rows(out, plain_tuples, encrypted_rows),
            WireMessage::Ack(m) => write_varint(out, m.items),
            WireMessage::Error(m) => {
                write_bytes(out, m.category.as_bytes());
                write_bytes(out, m.message.as_bytes());
            }
            WireMessage::Opaque(body) => out.put_slice(body),
            WireMessage::Hello(m) => write_varint(out, m.tenant),
            WireMessage::StatsRequest => {}
            WireMessage::StatsSnapshot(text) => write_bytes(out, text.as_bytes()),
        }
        Ok(())
    }

    /// Decodes one complete wire frame back into a message, discarding the
    /// correlation id (lock-step callers pair request and response by
    /// position, so the id is redundant for them).
    pub fn decode(frame: &[u8]) -> Result<WireMessage> {
        Self::decode_corr(frame).map(|(_, msg)| msg)
    }

    /// Decodes one complete wire frame back into a message plus the
    /// correlation id its header carried (0 for an uncorrelated frame).
    pub fn decode_corr(frame: &[u8]) -> Result<(u64, WireMessage)> {
        let (msg_type, corr, payload) = decode_frame_corr(frame)?;
        let mut r = Reader::new(payload);
        let msg = match msg_type {
            msg_tag::FETCH_BIN_REQUEST => WireMessage::FetchBinRequest(FetchBinRequest {
                values: r.list(read_value)?,
                ids: r.list(Reader::varint)?,
                tags: r.list(Reader::blob)?,
                predicate: read_opt_predicate(&mut r)?,
            }),
            msg_tag::BIN_PAYLOAD => WireMessage::BinPayload(BinPayload {
                plain_tuples: r.list(read_tuple)?,
                encrypted_rows: r.list(WireRow::read)?,
            }),
            msg_tag::INSERT_REQUEST => WireMessage::InsertRequest(InsertRequest {
                plain_tuples: r.list(read_tuple)?,
                encrypted_rows: r.list(WireRow::read)?,
            }),
            msg_tag::ACK => WireMessage::Ack(Ack { items: r.varint()? }),
            msg_tag::ERROR => WireMessage::Error(ErrorFrame {
                category: r.string()?,
                message: r.string()?,
            }),
            msg_tag::OPAQUE => WireMessage::Opaque(r.rest().to_vec()),
            msg_tag::HELLO => WireMessage::Hello(Hello {
                tenant: r.varint()?,
            }),
            msg_tag::STATS_REQUEST => WireMessage::StatsRequest,
            msg_tag::STATS_SNAPSHOT => WireMessage::StatsSnapshot(r.string()?),
            other => {
                return Err(PdsError::Wire(format!("unknown message type tag {other}")));
            }
        };
        r.finish()?;
        Ok((corr, msg))
    }

    /// The encoded frame length of this message in bytes: the payload
    /// writer's output counted, not stored.  It fails exactly where
    /// [`WireMessage::encode`] fails: a predicate past the depth cap, or a
    /// payload past [`crate::MAX_PAYLOAD_LEN`].
    pub fn encoded_len(&self) -> Result<usize> {
        counted_frame_len(|out| self.write_payload(out))
    }
}

/// The frame length of a [`FetchBinRequest`] with these fields, counted
/// without building or encoding it.  Fails where encoding would.
pub fn fetch_frame_len(
    values: &[Value],
    ids: &[u64],
    tags: &[Vec<u8>],
    predicate: Option<&Predicate>,
) -> Result<usize> {
    counted_frame_len(|out| write_fetch(out, values, ids, tags, predicate))
}

/// The frame length of a [`BinPayload`] or an [`InsertRequest`] (the two
/// share one layout) carrying `plain_tuples` and `rows`, counted without
/// building or encoding it.  Fails where encoding would.
pub fn rows_frame_len(plain_tuples: &[Tuple], rows: &[WireRow]) -> Result<usize> {
    counted_frame_len(|out| {
        write_rows(out, plain_tuples, rows);
        Ok(())
    })
}

/// The frame length of an [`Ack`] carrying `items`.
pub fn ack_frame_len(items: u64) -> usize {
    encoded_len(counted(|out| write_varint(out, items)))
}

/// Writes a [`FetchBinRequest`]'s fields: the values, the storage
/// addresses, the tags, then the optional predicate.
fn write_fetch(
    out: &mut impl Sink,
    values: &[Value],
    ids: &[u64],
    tags: &[Vec<u8>],
    predicate: Option<&Predicate>,
) -> Result<()> {
    write_list(out, values, write_value);
    write_list(out, ids, |out, id| write_varint(out, *id));
    write_list(out, tags, |out, tag| write_bytes(out, tag));
    write_opt_predicate(out, predicate)
}

/// Writes the layout [`BinPayload`] and [`InsertRequest`] share: the
/// clear-text tuples as a list, then the encrypted rows as a list.
fn write_rows(out: &mut impl Sink, plain_tuples: &[Tuple], rows: &[WireRow]) {
    write_list(out, plain_tuples, write_tuple);
    write_list(out, rows, |out, row| row.write(out));
}

/// Builds the wire form of a [`PdsError`].
pub fn error_frame(err: &PdsError) -> ErrorFrame {
    ErrorFrame {
        category: err.category().to_string(),
        message: err.message().to_string(),
    }
}

/// Maximum nesting depth of a wire predicate, bounding decode recursion
/// against adversarial deeply-nested `Not(Not(Not(..)))` payloads.  The
/// same cap is enforced on encode so both directions agree on what is
/// representable.
const PREDICATE_DEPTH_CAP: usize = 16;

/// One-byte structure tags of the predicate encoding (distinct from the
/// frame-level `msg_tag`s; these only appear inside a request payload).
mod pred_tag {
    pub const EQ: u8 = 1;
    pub const IN_SET: u8 = 2;
    pub const RANGE: u8 = 3;
    pub const AND: u8 = 4;
    pub const OR: u8 = 5;
    pub const NOT: u8 = 6;
    pub const TRUE: u8 = 7;
}

/// Writes an `Option<Predicate>` as a presence byte plus, when present, the
/// recursive tagged encoding.  Predicates travel in clear by design — they
/// may only reference non-sensitive attributes (the planner enforces this
/// owner-side; `pds-analyze`'s egress lint watches the call sites).
fn write_opt_predicate(out: &mut impl Sink, p: Option<&Predicate>) -> Result<()> {
    match p {
        None => {
            out.put_byte(0);
            Ok(())
        }
        Some(p) => {
            out.put_byte(1);
            write_predicate(out, p, 0)
        }
    }
}

/// Refuses a predicate node at `depth` past [`PREDICATE_DEPTH_CAP`] (the
/// writer and the reader share the check).
fn check_depth(depth: usize) -> Result<()> {
    if depth >= PREDICATE_DEPTH_CAP {
        return Err(PdsError::Wire(format!(
            "predicate nesting exceeds the wire depth cap of {PREDICATE_DEPTH_CAP}"
        )));
    }
    Ok(())
}

fn write_predicate(out: &mut impl Sink, p: &Predicate, depth: usize) -> Result<()> {
    check_depth(depth)?;
    match p {
        Predicate::Eq { attr, value } => {
            out.put_byte(pred_tag::EQ);
            write_varint(out, attr.raw());
            write_value(out, value);
        }
        Predicate::InSet { attr, values } => {
            out.put_byte(pred_tag::IN_SET);
            write_varint(out, attr.raw());
            write_list(out, values, write_value);
        }
        Predicate::Range { attr, lo, hi } => {
            out.put_byte(pred_tag::RANGE);
            write_varint(out, attr.raw());
            write_value(out, lo);
            write_value(out, hi);
        }
        Predicate::And(ps) | Predicate::Or(ps) => {
            out.put_byte(if matches!(p, Predicate::And(_)) {
                pred_tag::AND
            } else {
                pred_tag::OR
            });
            write_varint(out, ps.len() as u64);
            for child in ps {
                write_predicate(out, child, depth + 1)?;
            }
        }
        Predicate::Not(child) => {
            out.put_byte(pred_tag::NOT);
            write_predicate(out, child, depth + 1)?;
        }
        Predicate::True => out.put_byte(pred_tag::TRUE),
    }
    Ok(())
}

fn read_opt_predicate(r: &mut Reader<'_>) -> Result<Option<Predicate>> {
    match r.byte()? {
        0 => Ok(None),
        1 => Ok(Some(read_predicate(r, 0)?)),
        other => Err(PdsError::Wire(format!(
            "invalid predicate presence byte {other}"
        ))),
    }
}

fn read_predicate(r: &mut Reader<'_>, depth: usize) -> Result<Predicate> {
    check_depth(depth)?;
    let tag = r.byte()?;
    match tag {
        pred_tag::EQ => Ok(Predicate::Eq {
            attr: AttrId::new(r.varint()?),
            value: read_value(r)?,
        }),
        pred_tag::IN_SET => Ok(Predicate::InSet {
            attr: AttrId::new(r.varint()?),
            values: r.list(read_value)?,
        }),
        pred_tag::RANGE => Ok(Predicate::Range {
            attr: AttrId::new(r.varint()?),
            lo: read_value(r)?,
            hi: read_value(r)?,
        }),
        pred_tag::AND | pred_tag::OR => {
            let children = r.list(|r| read_predicate(r, depth + 1))?;
            Ok(if tag == pred_tag::AND {
                Predicate::And(children)
            } else {
                Predicate::Or(children)
            })
        }
        pred_tag::NOT => Ok(Predicate::Not(Box::new(read_predicate(r, depth + 1)?))),
        pred_tag::TRUE => Ok(Predicate::True),
        other => Err(PdsError::Wire(format!(
            "unknown predicate structure tag {other}"
        ))),
    }
}

/// The frame length of the payload `write` writes, counted, or the error
/// the writer or the frame limit gives where encoding would give it.
fn counted_frame_len(write: impl FnOnce(&mut Counter) -> Result<()>) -> Result<usize> {
    let mut written = Ok(());
    let len = counted(|out| written = write(out));
    written.and_then(|()| checked_frame_len(len))
}

/// Appends a varint item count, then each item.
fn write_list<S: Sink, T>(out: &mut S, items: &[T], mut write: impl FnMut(&mut S, &T)) {
    write_varint(out, items.len() as u64);
    for item in items {
        write(out, item);
    }
}

/// Zigzag-maps a signed integer so small magnitudes of either sign get
/// short varints: 0 → 0, −1 → 1, 1 → 2, −2 → 3, ...
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes one clear-text value straight into the frame buffer (see the
/// module docs for the layout).
fn write_value(out: &mut impl Sink, v: &Value) {
    match v {
        Value::Null => out.put_byte(value_tag::NULL),
        Value::Int(i) => {
            out.put_byte(value_tag::INT);
            write_varint(out, zigzag(*i));
        }
        Value::Text(s) => {
            out.put_byte(value_tag::TEXT);
            write_bytes(out, s.as_bytes());
        }
        Value::Bytes(b) => {
            out.put_byte(value_tag::BYTES);
            write_bytes(out, b);
        }
        Value::Bool(b) => {
            out.put_byte(value_tag::BOOL);
            out.put_byte(u8::from(*b));
        }
    }
}

/// Writes one clear-text tuple straight into the frame buffer: varint id,
/// varint arity, then each value.
fn write_tuple(out: &mut impl Sink, t: &Tuple) {
    write_varint(out, t.id.raw());
    write_list(out, &t.values, write_value);
}

/// Reads one clear-text value [`write_value`] wrote.
fn read_value(r: &mut Reader<'_>) -> Result<Value> {
    match r.byte()? {
        value_tag::NULL => Ok(Value::Null),
        value_tag::INT => Ok(Value::Int(unzigzag(r.varint()?))),
        value_tag::TEXT => Ok(Value::Text(r.string()?)),
        value_tag::BYTES => Ok(Value::Bytes(r.blob()?)),
        value_tag::BOOL => Ok(Value::Bool(r.bool()?)),
        other => Err(PdsError::Wire(format!("unknown value tag {other}"))),
    }
}

/// Reads one clear-text tuple [`write_tuple`] wrote.
fn read_tuple(r: &mut Reader<'_>) -> Result<Tuple> {
    let id = TupleId::new(r.varint()?);
    Ok(Tuple::new(id, r.list(read_value)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::TupleId;

    /// Frames `payload` under `msg_type` and asserts it decodes to a typed
    /// wire error.
    fn assert_wire_error(msg_type: u8, payload: &[u8]) {
        let frame = crate::frame::encode_frame(msg_type, payload).unwrap();
        match WireMessage::decode(&frame) {
            Err(PdsError::Wire(_)) => {}
            other => panic!("payload {payload:02x?} gave {other:?}"),
        }
    }

    fn sample_tuple(id: u64) -> Tuple {
        Tuple::new(
            TupleId::new(id),
            vec![Value::from("E259"), Value::Int(6), Value::Bool(true)],
        )
    }

    fn sample_predicate() -> Predicate {
        Predicate::And(vec![
            Predicate::Range {
                attr: AttrId::new(2),
                lo: Value::Int(1),
                hi: Value::Int(4),
            },
            Predicate::Not(Box::new(Predicate::Eq {
                attr: AttrId::new(3),
                value: Value::from("closed"),
            })),
            Predicate::Or(vec![
                Predicate::InSet {
                    attr: AttrId::new(4),
                    values: vec![Value::Bool(true), Value::Null],
                },
                Predicate::True,
            ]),
        ])
    }

    fn sample_messages() -> Vec<WireMessage> {
        vec![
            WireMessage::FetchBinRequest(FetchBinRequest {
                values: vec![Value::from("E259"), Value::Int(-4), Value::Null],
                ids: vec![0, u64::MAX],
                tags: vec![vec![], vec![1, 2, 3]],
                predicate: Some(sample_predicate()),
            }),
            WireMessage::BinPayload(BinPayload {
                plain_tuples: vec![sample_tuple(1), sample_tuple(2)],
                encrypted_rows: vec![WireRow {
                    id: 42,
                    attr_ct: vec![1; 37],
                    tuple_ct: vec![2; 90],
                    search_tags: vec![vec![3; 16]],
                }],
            }),
            WireMessage::InsertRequest(InsertRequest {
                plain_tuples: vec![sample_tuple(9)],
                encrypted_rows: vec![WireRow::default()],
            }),
            WireMessage::Ack(Ack { items: 12 }),
            WireMessage::Error(error_frame(&PdsError::Cloud("no such shard".into()))),
            WireMessage::Opaque(vec![0xAB; 33]),
            WireMessage::Hello(Hello { tenant: u64::MAX }),
            WireMessage::StatsRequest,
            WireMessage::StatsSnapshot(
                "# TYPE pds_requests_total counter\npds_requests_total{tenant=\"1\"} 4\n"
                    .to_string(),
            ),
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for msg in sample_messages() {
            let frame = msg.encode().unwrap();
            let back = WireMessage::decode(&frame).unwrap();
            assert_eq!(back, msg, "{} roundtrip", msg.name());
            assert_eq!(frame.len(), msg.encoded_len().unwrap());
        }
    }

    #[test]
    fn ack_frame_len_counts_the_encoded_ack() {
        for items in [0, 0x7f, 0x80, u64::MAX] {
            let ack = WireMessage::Ack(Ack { items });
            assert_eq!(ack_frame_len(items), ack.encode().unwrap().len());
        }
    }

    #[test]
    fn correlated_encode_roundtrips_and_matches_uncorrelated_payload() {
        for (i, msg) in sample_messages().into_iter().enumerate() {
            let corr = (i as u64) * 7 + 1;
            let framed = msg.encode_framed(corr).unwrap();
            let (got_corr, back) = WireMessage::decode_corr(&framed).unwrap();
            assert_eq!(got_corr, corr, "{} correlation id", msg.name());
            assert_eq!(back, msg, "{} roundtrip", msg.name());
            // The correlation id lives in the header only: the payload (and
            // total length) are identical to the uncorrelated encoding.
            assert_eq!(framed.len(), msg.encode().unwrap().len());
        }
    }

    #[test]
    fn message_types_are_distinct() {
        let mut tags: Vec<u8> = sample_messages()
            .iter()
            .map(WireMessage::msg_type)
            .collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), sample_messages().len());
    }

    #[test]
    fn unknown_type_tag_is_an_error() {
        let frame = crate::frame::encode_frame(200, b"").unwrap();
        assert!(WireMessage::decode(&frame).is_err());
        // The retired tag 2 is unknown too, whatever its payload.
        assert_wire_error(2, &[3, 7, 0, 0, 0]);
        assert_eq!(msg_tag::name(2), "unknown");
    }

    #[test]
    fn trailing_payload_bytes_are_an_error() {
        let mut payload = Vec::new();
        write_varint(&mut payload, 7);
        payload.push(0); // one byte too many for an Ack
        assert_wire_error(msg_tag::ACK, &payload);
    }

    #[test]
    fn forged_count_fields_fail_without_large_allocs() {
        // An Ack-sized payload relabelled as a BinPayload with a huge tuple
        // count: the first item read fails, no allocation explosion.
        let mut payload = Vec::new();
        write_varint(&mut payload, u64::MAX);
        assert_wire_error(msg_tag::BIN_PAYLOAD, &payload);
    }

    #[test]
    fn error_frame_mirrors_pds_error() {
        let ef = error_frame(&PdsError::Query("bad bin".into()));
        assert_eq!(ef.category, "query");
        assert_eq!(ef.message, "bad bin");
    }

    #[test]
    fn error_frame_into_error_inverts_every_category() {
        for err in [
            PdsError::Schema("a".into()),
            PdsError::Query("b".into()),
            PdsError::Crypto("c".into()),
            PdsError::Binning("d".into()),
            PdsError::Cloud("e".into()),
            PdsError::Security("f".into()),
            PdsError::Config("g".into()),
            PdsError::Wire("h".into()),
        ] {
            let back = error_frame(&err).into_error();
            assert_eq!(back.category(), err.category());
            assert_eq!(back.message(), err.message());
        }
        // Unknown categories degrade to Wire rather than panicking.
        let odd = ErrorFrame {
            category: "martian".into(),
            message: "m".into(),
        };
        assert_eq!(odd.into_error().category(), "wire");
    }

    #[test]
    fn predicate_roundtrips_on_the_query_message() {
        let deep = Predicate::Not(Box::new(sample_predicate()));
        for tags in [Vec::new(), vec![vec![7u8; 16]]] {
            let msg = WireMessage::FetchBinRequest(FetchBinRequest {
                values: vec![Value::from("a")],
                tags,
                predicate: Some(deep.clone()),
                ..FetchBinRequest::default()
            });
            let frame = msg.encode().unwrap();
            assert_eq!(WireMessage::decode(&frame).unwrap(), msg);
        }
    }

    #[test]
    fn predicate_depth_cap_rejects_towers_both_ways() {
        // A Not-tower deeper than the cap must fail to encode...
        let mut tower = Predicate::True;
        for _ in 0..(PREDICATE_DEPTH_CAP + 1) {
            tower = Predicate::Not(Box::new(tower));
        }
        let msg = WireMessage::FetchBinRequest(FetchBinRequest {
            predicate: Some(tower),
            ..FetchBinRequest::default()
        });
        assert!(msg.encode().is_err());
        assert!(
            msg.encoded_len().is_err(),
            "sizing fails where encoding does"
        );

        // ...and a hand-forged payload of NOT tags must fail to decode
        // before recursing past the cap.
        let mut payload = vec![0, 0, 0]; // no values, ids or tags
        payload.push(1); // predicate present
        payload.extend(std::iter::repeat(pred_tag::NOT).take(64));
        payload.push(pred_tag::TRUE);
        let frame = crate::frame::encode_frame(msg_tag::FETCH_BIN_REQUEST, &payload).unwrap();
        assert!(WireMessage::decode(&frame).is_err());
    }

    #[test]
    fn invalid_predicate_presence_byte_is_an_error() {
        let mut payload = vec![0, 0, 0];
        payload.push(9); // neither 0 nor 1
        let frame = crate::frame::encode_frame(msg_tag::FETCH_BIN_REQUEST, &payload).unwrap();
        assert!(WireMessage::decode(&frame).is_err());
    }

    #[test]
    fn newest_tag_is_the_count() {
        // The stats snapshot is the newest message: its tag must close
        // the 1..=COUNT range the metrics layer sizes its counters from.
        assert_eq!(msg_tag::STATS_SNAPSHOT as usize, msg_tag::COUNT);
        assert_eq!(msg_tag::name(msg_tag::STATS_SNAPSHOT), "StatsSnapshot");
        let msg = WireMessage::StatsSnapshot(String::new());
        assert_eq!(msg.msg_type(), msg_tag::STATS_SNAPSHOT);
        assert_eq!(msg.name(), "StatsSnapshot");
        assert_eq!(msg_tag::name(msg_tag::STATS_REQUEST), "StatsRequest");
        assert_eq!(WireMessage::StatsRequest.msg_type(), msg_tag::STATS_REQUEST);
    }

    #[test]
    fn zigzag_roundtrips_at_the_extremes() {
        for v in [0, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!(zigzag(-1), 1, "small negatives stay one byte");
        assert_eq!(zigzag(i64::MIN), u64::MAX);
    }

    #[test]
    fn overlong_and_non_canonical_varints_are_wire_errors() {
        // Zero padded with a redundant trailing group.
        assert_wire_error(msg_tag::ACK, &[0x80, 0x00]);
        assert_wire_error(msg_tag::ACK, &[0xff, 0x80, 0x00]);
        // Eleven bytes: longer than any u64 needs.
        let mut eleven = vec![0x80; 10];
        eleven.push(0x01);
        assert_wire_error(msg_tag::ACK, &eleven);
        // A continuation bit on the last byte of the payload.
        assert_wire_error(msg_tag::HELLO, &[0x80]);
    }

    #[test]
    fn a_varint_past_u64_is_a_wire_error() {
        let mut past = vec![0xff; 9];
        past.push(0x02); // bit 64
        assert_wire_error(msg_tag::ACK, &past);
        let mut max = vec![0xff; 9];
        max.push(0x01);
        let frame = crate::frame::encode_frame(msg_tag::ACK, &max).unwrap();
        assert_eq!(
            WireMessage::decode(&frame).unwrap(),
            WireMessage::Ack(Ack { items: u64::MAX })
        );
    }

    #[test]
    fn invalid_utf8_is_a_wire_error() {
        // An error frame whose category is not UTF-8.
        assert_wire_error(msg_tag::ERROR, &[1, 0xff, 0]);
        // A clear-text Text value (truncated multi-byte sequence) inside a
        // fetch request.
        assert_wire_error(
            msg_tag::FETCH_BIN_REQUEST,
            &[1, value_tag::TEXT, 1, 0xc3, 0, 0, 0],
        );
        // A stats snapshot.
        assert_wire_error(msg_tag::STATS_SNAPSHOT, &[2, 0xed, 0xa0]);
    }

    #[test]
    fn unknown_value_tags_and_bool_bytes_are_wire_errors() {
        assert_wire_error(msg_tag::FETCH_BIN_REQUEST, &[1, 9, 0, 0, 0]);
        assert_wire_error(
            msg_tag::FETCH_BIN_REQUEST,
            &[1, value_tag::BOOL, 2, 0, 0, 0],
        );
    }

    #[test]
    fn clear_text_rows_use_the_compact_layout() {
        // One clear-text tuple: id 300, (Int -3, Text "ab", Null, Bool).
        let msg = WireMessage::BinPayload(BinPayload {
            plain_tuples: vec![Tuple::new(
                TupleId::new(300),
                vec![
                    Value::Int(-3),
                    Value::from("ab"),
                    Value::Null,
                    Value::Bool(true),
                ],
            )],
            encrypted_rows: vec![WireRow {
                id: 5,
                attr_ct: Vec::new(),
                tuple_ct: vec![0xaa; 3],
                search_tags: Vec::new(),
            }],
        });
        let frame = msg.encode().unwrap();
        let payload = &frame[crate::HEADER_LEN..frame.len() - crate::TRAILER_LEN];
        let expected = [
            &[1][..],                          // one tuple
            &[0xac, 0x02, 4],                  // id 300, arity 4
            &[value_tag::INT, 5],              // zigzag(-3)
            &[value_tag::TEXT, 2, b'a', b'b'], // length-prefixed text
            &[value_tag::NULL],
            &[value_tag::BOOL, 1],
            &[1, 5, 0, 3, 0xaa, 0xaa, 0xaa, 0], // one row: id, attr_ct, tuple_ct, tags
        ]
        .concat();
        assert_eq!(payload, expected.as_slice());
    }
}
