//! The one byte codec of the workspace.
//!
//! Three layouts are written with it: [`Value::encode`](crate::Value::encode)
//! (the plaintext of value ciphertexts and deterministic tags),
//! `pds_storage::Tuple::encode` (the plaintext of sensitive-tuple
//! ciphertexts) and `pds_proto`'s message payloads.  They lay integers out
//! differently (fixed-width big-endian in the two plaintexts, zigzag
//! varints on the wire), but share everything here:
//!
//! * the one-byte [`value_tag`]s;
//! * the byte [`Sink`]: a `Vec<u8>` when encoding, a [`Counter`] when
//!   sizing, so a length counted by [`counted`] is the encoded length;
//! * the unsigned LEB128 varint ([`write_varint`]: seven bits per byte, low
//!   group first, high bit set on every byte but the last) and the byte
//!   string ([`write_bytes`]: varint length, then the bytes);
//! * one bounds-checked [`Reader`].  It never panics: a truncated input, a
//!   non-canonical varint, invalid UTF-8 or trailing bytes give
//!   `Err(PdsError::Wire(..))`, and a declared item count reserves at most
//!   `PREALLOC_CAP` items before the items are read.

use crate::{PdsError, Result};

/// One-byte tags of a value, the same in every layout; only the bytes
/// after the tag differ.
pub mod value_tag {
    /// [`crate::Value::Null`].
    pub const NULL: u8 = 0;
    /// [`crate::Value::Int`].
    pub const INT: u8 = 1;
    /// [`crate::Value::Text`].
    pub const TEXT: u8 = 2;
    /// [`crate::Value::Bytes`].
    pub const BYTES: u8 = 3;
    /// [`crate::Value::Bool`].
    pub const BOOL: u8 = 4;
}

/// Longest canonical LEB128 encoding of a `u64`: ten 7-bit groups.
const MAX_VARINT_LEN: usize = 10;

/// Cap on the capacity [`Reader::list`] reserves from an untrusted count: a
/// forged count fails on its first missing item instead of forcing a large
/// allocation.
const PREALLOC_CAP: usize = 1024;

/// Where the writers put their bytes: a buffer (`Vec<u8>`) when encoding,
/// or a [`Counter`] when sizing.  Sizing runs the very writers that encode,
/// so a counted length is the encoded length.
pub trait Sink {
    /// Appends one byte.
    fn put_byte(&mut self, byte: u8);
    /// Appends a run of bytes.
    fn put_slice(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put_byte(&mut self, byte: u8) {
        self.push(byte);
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A [`Sink`] that keeps only the number of bytes written to it.
#[derive(Default)]
pub struct Counter(usize);

impl Sink for Counter {
    fn put_byte(&mut self, _: u8) {
        self.0 += 1;
    }

    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

/// The number of bytes `write` writes, counted without storing them.
pub fn counted(write: impl FnOnce(&mut Counter)) -> usize {
    let mut counter = Counter::default();
    write(&mut counter);
    counter.0
}

/// Appends `v` as an unsigned LEB128 varint.
pub fn write_varint(out: &mut impl Sink, mut v: u64) {
    while v >= 0x80 {
        out.put_byte((v & 0x7f) as u8 | 0x80);
        v >>= 7;
    }
    out.put_byte(v as u8);
}

/// Appends a byte string: varint length, then the bytes.
pub fn write_bytes(out: &mut impl Sink, bytes: &[u8]) {
    write_varint(out, bytes.len() as u64);
    out.put_slice(bytes);
}

/// Bounds-checked sequential reader over an encoded input.
pub struct Reader<'a> {
    data: &'a [u8],
    /// Bytes consumed so far; never past `data.len()`.
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| PdsError::Wire("input length overflows".into()))?;
        let out = self.data.get(self.pos..end).ok_or_else(|| {
            PdsError::Wire(format!(
                "input truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ))
        })?;
        self.pos = end;
        Ok(out)
    }

    /// The next `N` bytes, as an array.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        self.take(N)?
            .try_into()
            .map_err(|_| PdsError::Wire(format!("expected {N} bytes")))
    }

    /// The next byte.
    pub fn byte(&mut self) -> Result<u8> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A boolean byte: `0` or `1`, anything else refused.
    pub fn bool(&mut self) -> Result<bool> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(PdsError::Wire(format!("invalid bool byte {other}"))),
        }
    }

    /// One canonical LEB128 varint.  Rejects encodings longer than ten
    /// bytes, a tenth byte carrying bits past `u64`, and a redundant
    /// trailing zero group, so every value has exactly one encoding.
    pub fn varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        for i in 0..MAX_VARINT_LEN {
            let byte = self.byte()?;
            // The tenth group holds only bit 63.
            if i == MAX_VARINT_LEN - 1 && byte & 0x7f > 1 {
                return Err(PdsError::Wire("varint overflows u64".into()));
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if byte == 0 && i > 0 {
                    return Err(PdsError::Wire(
                        "non-canonical varint: redundant trailing zero group".into(),
                    ));
                }
                return Ok(value);
            }
        }
        Err(PdsError::Wire(format!(
            "overlong varint: more than {MAX_VARINT_LEN} bytes"
        )))
    }

    /// A varint count or length, as a `usize`.
    pub fn count(&mut self) -> Result<usize> {
        let n = self.varint()?;
        usize::try_from(n).map_err(|_| PdsError::Wire(format!("count {n} overflows usize")))
    }

    /// A varint item count, then that many items.  The capacity reserved
    /// up front is capped at `PREALLOC_CAP`.
    pub fn list<T>(&mut self, mut read: impl FnMut(&mut Self) -> Result<T>) -> Result<Vec<T>> {
        let count = self.count()?;
        let mut items = Vec::with_capacity(count.min(PREALLOC_CAP));
        for _ in 0..count {
            items.push(read(self)?);
        }
        Ok(items)
    }

    /// A byte string, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.count()?;
        self.take(len)
    }

    /// A byte string, copied out.
    pub fn blob(&mut self) -> Result<Vec<u8>> {
        Ok(self.bytes()?.to_vec())
    }

    /// A byte string that must be UTF-8.
    pub fn string(&mut self) -> Result<String> {
        std::str::from_utf8(self.bytes()?)
            .map(str::to_owned)
            .map_err(|_| PdsError::Wire("string field is not valid UTF-8".into()))
    }

    /// Everything not read yet.
    pub fn rest(&mut self) -> &'a [u8] {
        let rest = self.data.get(self.pos..).unwrap_or_default();
        self.pos = self.data.len();
        rest
    }

    /// The number of bytes read so far.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The number of bytes not read yet.
    pub fn remaining(&self) -> usize {
        self.data.len().saturating_sub(self.pos)
    }

    /// Ends the read, refusing trailing bytes: an input must be consumed
    /// exactly.
    pub fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(PdsError::Wire(format!("{n} unconsumed trailing bytes"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varints_roundtrip_at_every_group_boundary() {
        for v in [
            0,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u64::from(u32::MAX),
            1 << 32,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let groups = (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
            assert_eq!(out.len(), groups, "{v:#x} takes one byte per 7-bit group");
            let mut r = Reader::new(&out);
            assert_eq!(r.varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    proptest! {
        /// Any byte string either fails to read as a varint, or the prefix
        /// it read is exactly what the writer writes for the value: the
        /// reader accepts the canonical encoding and nothing else.  Runs
        /// of continuation bytes reach the ten-byte limit, the bits past
        /// `u64` and the redundant zero group far more often than uniform
        /// bytes do.
        #[test]
        fn a_varint_read_is_the_writers_encoding(
            raw in proptest::collection::vec(any::<u8>(), 0..12),
            continued in proptest::collection::vec(0x80u8..=0xff, 0..11),
            last in 0u8..4,
        ) {
            let long = [&continued[..], &[last]].concat();
            for bytes in [&raw, &long] {
                let mut r = Reader::new(bytes);
                if let Ok(v) = r.varint() {
                    let mut canonical = Vec::new();
                    write_varint(&mut canonical, v);
                    prop_assert_eq!(&bytes[..r.position()], canonical.as_slice());
                    prop_assert_eq!(counted(|c| write_varint(c, v)), r.position());
                }
            }
        }
    }
}
