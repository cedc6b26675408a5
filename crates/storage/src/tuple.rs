//! Tuples (rows) of a relation, and the byte layout a sensitive tuple's
//! ciphertext holds, written and read with [`pds_common::codec`].

use pds_common::codec::{counted, value_tag, write_bytes, write_varint, Reader, Sink};
use pds_common::{AttrId, TupleId, Value};
use serde::{Deserialize, Serialize};

/// A tuple: a stable identifier plus one value per attribute of the owning
/// relation's schema.
///
/// The identifier is preserved across partitioning (sensitive tuples keep the
/// id they had in the original relation), because the paper's adversarial
/// view is phrased in terms of *which* encrypted tuples the cloud returns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Tuple {
    /// Stable identifier of the tuple.
    pub id: TupleId,
    /// Attribute values, in schema order.
    pub values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(id: TupleId, values: Vec<Value>) -> Self {
        Tuple { id, values }
    }

    /// The value of the attribute at `attr`.
    pub fn value(&self, attr: AttrId) -> &Value {
        &self.values[attr.index()]
    }

    /// Mutable access to the value of the attribute at `attr`.
    pub fn value_mut(&mut self, attr: AttrId) -> &mut Value {
        &mut self.values[attr.index()]
    }

    /// Approximate payload size in bytes: the id plus each value's
    /// [`Value::size_bytes`].  Feeds size statistics such as
    /// [`crate::Relation::avg_tuple_bytes`]; wire traffic is measured from
    /// encoded frames instead.
    pub fn size_bytes(&self) -> usize {
        8 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// Exact length of [`Tuple::encode`]'s output: the writer's bytes
    /// counted, not stored.
    pub fn encoded_len(&self) -> usize {
        counted(|out| self.encode_into(out))
    }

    /// Stable, self-delimiting byte encoding of the whole tuple: the
    /// plaintext a sensitive tuple's ciphertext holds.
    ///
    /// The layout is the 8-byte big-endian id (the owner recognises fake
    /// padding rows by it), the arity as a LEB128 varint, then each value
    /// as its [`Value::encode`] tag followed by
    ///
    /// * nothing, for `Null`;
    /// * the 8-byte big-endian integer, for `Int`;
    /// * one 0/1 byte, for `Bool`;
    /// * a varint length and the bytes, for `Text` and `Bytes`.
    ///
    /// Integers stay fixed-width rather than varints, so the length of an
    /// encoding, and of any ciphertext over it, depends on the schema and
    /// the text and byte values only, never on a sensitive integer's
    /// magnitude.  A LINEITEM row (five integers and a ship mode of at
    /// most 7 bytes) takes at most 63 bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Tuple::encode`]'s bytes to `out`, written in place with
    /// no allocation per value.
    pub fn encode_into(&self, out: &mut impl Sink) {
        out.put_slice(&self.id.raw().to_be_bytes());
        write_varint(out, self.values.len() as u64);
        for v in &self.values {
            match v {
                Value::Text(s) => {
                    out.put_byte(value_tag::TEXT);
                    write_bytes(out, s.as_bytes());
                }
                Value::Bytes(b) => {
                    out.put_byte(value_tag::BYTES);
                    write_bytes(out, b);
                }
                Value::Null | Value::Int(_) | Value::Bool(_) => v.encode_into(out),
            }
        }
    }

    /// Decodes a tuple previously produced by [`Tuple::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Tuple> {
        match Self::decode_prefix(bytes)? {
            (tuple, used) if used == bytes.len() => Some(tuple),
            _ => None,
        }
    }

    /// Decodes the tuple [`Tuple::encode`] wrote at the front of `bytes`,
    /// returning it with the number of bytes it occupied.  Whatever
    /// follows (such as padding) is left to the caller.
    ///
    /// Only what [`Tuple::encode`] writes decodes: minimal varints, known
    /// tags, 0/1 booleans and UTF-8 text, so an accepted prefix re-encodes
    /// to exactly itself.  Every value takes at least its tag byte, so an
    /// arity above the bytes left fails before anything is reserved, and
    /// the reservation never exceeds the input.
    pub fn decode_prefix(bytes: &[u8]) -> Option<(Tuple, usize)> {
        let mut r = Reader::new(bytes);
        let id = TupleId::new(u64::from_be_bytes(r.array().ok()?));
        let count = r.count().ok()?;
        if count > r.remaining() {
            return None;
        }
        let mut values = Vec::with_capacity(count);
        for _ in 0..count {
            values.push(match r.byte().ok()? {
                value_tag::NULL => Value::Null,
                value_tag::INT => Value::Int(i64::from_be_bytes(r.array().ok()?)),
                value_tag::BOOL => Value::Bool(r.bool().ok()?),
                value_tag::TEXT => Value::Text(r.string().ok()?),
                value_tag::BYTES => Value::Bytes(r.blob().ok()?),
                _ => return None,
            });
        }
        Some((Tuple { id, values }, r.position()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Tuple {
        Tuple::new(
            TupleId::new(4),
            vec![
                Value::from("E259"),
                Value::from("John"),
                Value::Int(222),
                Value::Null,
            ],
        )
    }

    #[test]
    fn value_access() {
        let t = sample();
        assert_eq!(t.value(AttrId::new(0)), &Value::from("E259"));
        assert_eq!(t.value(AttrId::new(2)), &Value::Int(222));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = sample();
        assert_eq!(Tuple::decode(&t.encode()), Some(t));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Tuple::decode(&[]), None);
        assert_eq!(Tuple::decode(&[0u8; 11]), None);
        let mut enc = sample().encode();
        enc.push(0); // trailing junk
        assert_eq!(Tuple::decode(&enc), None);
    }

    #[test]
    fn encoded_len_is_exact_and_prefix_decoding_leaves_the_tail() {
        let t = sample();
        let mut enc = t.encode();
        assert_eq!(enc.len(), t.encoded_len());
        let used = enc.len();
        enc.extend_from_slice(&[0, 0, 0]);
        assert_eq!(Tuple::decode_prefix(&enc), Some((t, used)));
        assert_eq!(Tuple::decode(&enc), None);
    }

    /// The encrypted form of a tuple is fixed: this is the plaintext every
    /// stored ciphertext holds, so a change here would make old rows
    /// undecryptable, and a varint integer would make a ciphertext's length
    /// depend on a sensitive integer's magnitude.
    #[test]
    fn encoding_matches_the_fixed_vector() {
        let t = Tuple::new(
            TupleId::new(0x0102),
            vec![
                Value::Int(5),
                Value::from("ab"),
                Value::Null,
                Value::Int(-1),
            ],
        );
        let want: Vec<u8> = [
            &[0, 0, 0, 0, 0, 0, 1, 2][..], // id
            &[4],                          // arity
            &[1, 0, 0, 0, 0, 0, 0, 0, 5],
            &[2, 2, b'a', b'b'],
            &[0],
            &[1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff],
        ]
        .concat();
        assert_eq!(t.encode(), want);
        assert_eq!(t.encoded_len(), want.len());
        let mut out = vec![9];
        t.encode_into(&mut out);
        assert_eq!(out[1..], want[..]);
        // An integer's magnitude never changes the length.
        let big = Tuple::new(TupleId::new(u64::MAX), vec![Value::Int(i64::MAX)]);
        let small = Tuple::new(TupleId::new(0), vec![Value::Int(0)]);
        assert_eq!(big.encode().len(), small.encode().len());
    }

    /// The variants the fixed vector above leaves out, and a length that
    /// takes a second varint byte.
    #[test]
    fn bool_bytes_and_long_text_match_their_fixed_bytes() {
        let long = "x".repeat(200);
        let t = Tuple::new(
            TupleId::new(7),
            vec![
                Value::Bool(true),
                Value::Bytes(vec![9, 8]),
                Value::from(long.as_str()),
            ],
        );
        let want: Vec<u8> = [
            &[0, 0, 0, 0, 0, 0, 0, 7, 3][..],
            &[4, 1],
            &[3, 2, 9, 8],
            &[2, 0xc8, 0x01],
            long.as_bytes(),
        ]
        .concat();
        assert_eq!(t.encode(), want);
        assert_eq!(t.encoded_len(), want.len());
        assert_eq!(Tuple::decode(&want), Some(t));
    }

    #[test]
    fn non_canonical_encodings_are_rejected() {
        let id = [0u8; 8];
        let decode = |rest: &[u8]| Tuple::decode(&[&id[..], rest].concat());
        assert_eq!(decode(&[0]), Some(Tuple::new(TupleId::new(0), vec![])));
        // A redundant trailing zero group in the arity or in a length.
        assert_eq!(decode(&[0x80, 0x00]), None);
        assert_eq!(decode(&[1, 3, 0x80, 0x00]), None);
        // A Bool byte other than 0 or 1, an unknown tag, invalid UTF-8.
        assert_eq!(decode(&[1, 4, 2]), None);
        assert_eq!(decode(&[1, 5]), None);
        assert_eq!(decode(&[1, 2, 1, 0xff]), None);
        // An arity past u64, and a varint longer than ten bytes.
        let past_u64 = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02];
        assert_eq!(decode(&past_u64), None);
        assert_eq!(decode(&[0x80; 11]), None);
        // An arity above the bytes left fails before any value is read.
        assert_eq!(decode(&[3, 0, 0]), None);
    }

    #[test]
    fn size_accounts_for_values() {
        let t = sample();
        assert!(t.size_bytes() > 8 + 4 + 4 + 8);
    }

    proptest! {
        #[test]
        fn roundtrip_property(id in any::<u64>(),
                              ints in proptest::collection::vec(any::<i64>(), 0..8),
                              texts in proptest::collection::vec(".{0,12}", 0..8)) {
            let mut values: Vec<Value> = ints.into_iter().map(Value::Int).collect();
            values.extend(texts.into_iter().map(Value::Text));
            let t = Tuple::new(TupleId::new(id), values);
            prop_assert_eq!(Tuple::decode(&t.encode()), Some(t));
        }

        /// A tuple of every variant, padded with zeros as the owner pads a
        /// plaintext before encrypting it, decodes back exactly and leaves
        /// the padding.  Integers include both extremes, and text and
        /// byte lengths of 127, 128 and 300 take one and two varint bytes.
        #[test]
        fn padded_tuples_decode_exactly(id in any::<u64>(),
                                        cells in proptest::collection::vec(
                                            (0u8..5, any::<i64>(), 0usize..4, any::<u8>()), 0..10),
                                        zeros in 0usize..96) {
            let values: Vec<Value> = cells
                .into_iter()
                .map(|(kind, int, len, byte)| {
                    let len = [0, 127, 128, 300][len];
                    match kind {
                        0 => Value::Null,
                        1 => Value::Int([i64::MIN, i64::MAX, 0, int][usize::from(byte % 4)]),
                        2 => Value::Bool(byte % 2 == 1),
                        3 => Value::Bytes(vec![byte; len]),
                        // Two-byte characters, then ASCII up to `len` bytes.
                        _ => Value::Text("é".repeat(len / 2) + &"a".repeat(len % 2)),
                    }
                })
                .collect();
            let t = Tuple::new(TupleId::new(id), values);
            let mut bytes = t.encode();
            prop_assert_eq!(bytes.len(), t.encoded_len());
            bytes.resize(bytes.len() + zeros, 0);
            prop_assert_eq!(Tuple::decode_prefix(&bytes), Some((t.clone(), t.encoded_len())));
        }

        /// Any byte string decodes to `None` or to a tuple that re-encodes
        /// to exactly the bytes it used; bytes drawn from the tags' range
        /// reach the value decoders far more often than uniform ones.  An
        /// arity forged above the bytes that follow it fails: reserving it
        /// would overflow `Vec`'s capacity for almost every `u64` drawn.
        #[test]
        fn any_bytes_decode_to_none_or_their_canonical_tuple(
            raw in proptest::collection::vec(any::<u8>(), 0..64),
            near_tags in proptest::collection::vec(0u8..6, 0..64),
            arity in any::<u64>(),
        ) {
            for bytes in [&raw, &near_tags] {
                if let Some((t, used)) = Tuple::decode_prefix(bytes) {
                    prop_assert!(t.values.capacity() <= bytes.len());
                    prop_assert_eq!(t.encode(), bytes[..used].to_vec());
                }
            }
            let mut forged = vec![0u8; 8];
            write_varint(&mut forged, arity.max(raw.len() as u64 + 1));
            forged.extend_from_slice(&raw);
            prop_assert_eq!(Tuple::decode_prefix(&forged), None);
        }
    }
}
