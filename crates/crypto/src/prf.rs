//! Keyed pseudo-random function built on HMAC-SHA-256.
//!
//! Used for deterministic equality tags (`pds-crypto::det`), the Arx-style
//! counter tokens and anywhere a keyed, unpredictable-but-repeatable mapping
//! from values to byte strings is needed.

use crate::hmac::HmacKey;
use crate::Key128;

/// A pseudo-random function keyed by a [`Key128`].
///
/// The HMAC key schedule (pad midstates) is expanded once at construction,
/// not per evaluation — a tag-generation loop over a bin's values pays only
/// the data hashing.
#[derive(Clone)]
pub struct Prf {
    key: HmacKey,
}

impl Prf {
    /// Creates a PRF instance from a key.
    pub fn new(key: Key128) -> Self {
        Prf {
            key: HmacKey::new(key.bytes()),
        }
    }

    /// Evaluates the PRF on arbitrary input, returning 32 bytes.
    pub fn eval(&self, input: &[u8]) -> [u8; 32] {
        self.key.mac(input)
    }

    /// Evaluates the PRF and truncates the result to a `u64`.
    pub fn eval_u64(&self, input: &[u8]) -> u64 {
        let out = self.eval(input);
        u64::from_be_bytes(out[..8].try_into().expect("8 bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let prf = Prf::new(Key128::derive(1, "prf"));
        assert_eq!(prf.eval(b"hello"), prf.eval(b"hello"));
        assert_ne!(prf.eval(b"hello"), prf.eval(b"world"));
    }

    #[test]
    fn key_separation() {
        let a = Prf::new(Key128::derive(1, "prf"));
        let b = Prf::new(Key128::derive(2, "prf"));
        assert_ne!(a.eval(b"x"), b.eval(b"x"));
    }

    #[test]
    fn eval_u64_consistent_with_eval() {
        let prf = Prf::new(Key128::derive(5, "prf"));
        let full = prf.eval(b"abc");
        let short = prf.eval_u64(b"abc");
        assert_eq!(short, u64::from_be_bytes(full[..8].try_into().unwrap()));
    }
}
