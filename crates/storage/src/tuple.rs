//! Tuples (rows) of a relation.

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

    /// Projects the tuple onto the given attribute positions.
    pub fn project(&self, attrs: &[AttrId]) -> Vec<Value> {
        attrs
            .iter()
            .map(|a| self.values[a.index()].clone())
            .collect()
    }

    /// Approximate payload size in bytes: the id plus each value's
    /// [`Value::size_bytes`].  Feeds size statistics such as
    /// [`crate::Relation::avg_tuple_bytes`]; wire traffic is measured from
    /// encoded frames instead.
    pub fn size_bytes(&self) -> usize {
        8 + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }

    /// Exact length of [`Tuple::encode`]'s output, computed without
    /// encoding.
    pub fn encoded_len(&self) -> usize {
        12 + self
            .values
            .iter()
            .map(|v| 4 + v.encoded_len())
            .sum::<usize>()
    }

    /// Stable byte encoding of the whole tuple (what gets encrypted when a
    /// sensitive tuple is outsourced).  Integers are fixed-width big-endian,
    /// so the length depends on the schema and the text/byte values only.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends [`Tuple::encode`]'s bytes to `out`: the id, the arity, then
    /// each value's length and [`Value::encode_into`] bytes, written in
    /// place with no allocation per value.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.id.raw().to_be_bytes());
        out.extend_from_slice(&(self.values.len() as u32).to_be_bytes());
        for v in &self.values {
            out.extend_from_slice(&(v.encoded_len() as u32).to_be_bytes());
            v.encode_into(out);
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
    pub fn decode_prefix(bytes: &[u8]) -> Option<(Tuple, usize)> {
        if bytes.len() < 12 {
            return None;
        }
        let id = TupleId::new(u64::from_be_bytes(bytes[..8].try_into().ok()?));
        let count = u32::from_be_bytes(bytes[8..12].try_into().ok()?) as usize;
        let mut values = Vec::with_capacity(count);
        let mut offset = 12;
        for _ in 0..count {
            if bytes.len() < offset + 4 {
                return None;
            }
            let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().ok()?) as usize;
            offset += 4;
            if bytes.len() < offset + len {
                return None;
            }
            values.push(Value::decode(&bytes[offset..offset + len])?);
            offset += len;
        }
        Some((Tuple { id, values }, offset))
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
    fn value_access_and_projection() {
        let t = sample();
        assert_eq!(t.value(AttrId::new(0)), &Value::from("E259"));
        assert_eq!(
            t.project(&[AttrId::new(2), AttrId::new(0)]),
            vec![Value::Int(222), Value::from("E259")]
        );
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
            &[0, 0, 0, 4],                 // arity
            &[0, 0, 0, 9, 1, 0, 0, 0, 0, 0, 0, 0, 5],
            &[0, 0, 0, 3, 2, b'a', b'b'],
            &[0, 0, 0, 1, 0],
            &[
                0, 0, 0, 9, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
            ],
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
    }
}
