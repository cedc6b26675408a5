//! A toy order-preserving encoding (OPE).
//!
//! The paper cites Naveed et al. \[11\] and Kellaris et al. \[12\]: deterministic
//! and order-preserving encryption leak enough for frequency/ordering attacks
//! on low-entropy columns.  This module provides a deliberately simple
//! stateful OPE (random monotone mapping into a larger integer domain) so the
//! adversary crate can demonstrate those attacks against an OPE baseline and
//! contrast them with QB-protected execution.

use std::collections::BTreeMap;

use pds_common::{PdsError, Result};
use rand::Rng;

/// A mutable order-preserving encoder over `i64` plaintexts.
///
/// Plaintexts are mapped to ciphertexts such that `p1 < p2` implies
/// `enc(p1) < enc(p2)`.  The mapping is built lazily: when a new plaintext is
/// encoded it receives a ciphertext drawn uniformly from the gap between its
/// neighbours' ciphertexts.  If a gap is exhausted encoding fails (real
/// mutable OPE schemes rebalance; the toy version simply reports the error,
/// which is fine for the domain sizes used in experiments).
#[derive(Debug, Clone)]
pub struct OpeEncoder {
    mapping: BTreeMap<i64, i64>,
    ciphertext_space: (i64, i64),
}

impl OpeEncoder {
    /// Creates an encoder with the given ciphertext space.
    pub fn new(ciphertext_lo: i64, ciphertext_hi: i64) -> Self {
        OpeEncoder {
            mapping: BTreeMap::new(),
            ciphertext_space: (ciphertext_lo, ciphertext_hi),
        }
    }

    /// Creates an encoder with a comfortably large default ciphertext space.
    pub fn with_default_space() -> Self {
        Self::new(0, i64::MAX / 2)
    }

    /// Number of distinct plaintexts encoded so far.
    pub fn len(&self) -> usize {
        self.mapping.len()
    }

    /// Whether no plaintext has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.mapping.is_empty()
    }

    /// Encodes a plaintext, inserting it into the mapping if new.
    pub fn encode<R: Rng>(&mut self, plaintext: i64, rng: &mut R) -> Result<i64> {
        if let Some(&ct) = self.mapping.get(&plaintext) {
            return Ok(ct);
        }
        let lower = self
            .mapping
            .range(..plaintext)
            .next_back()
            .map(|(_, &ct)| ct)
            .unwrap_or(self.ciphertext_space.0);
        let upper = self
            .mapping
            .range(plaintext..)
            .next()
            .map(|(_, &ct)| ct)
            .unwrap_or(self.ciphertext_space.1);
        if upper - lower < 2 {
            return Err(PdsError::Crypto(format!(
                "OPE ciphertext space exhausted between {lower} and {upper}"
            )));
        }
        let ct = rng.gen_range(lower + 1..upper);
        self.mapping.insert(plaintext, ct);
        Ok(ct)
    }

    /// Looks up the ciphertext of an already-encoded plaintext.
    pub fn lookup(&self, plaintext: i64) -> Option<i64> {
        self.mapping.get(&plaintext).copied()
    }

    /// Decodes a ciphertext by reverse lookup (the owner keeps the mapping).
    pub fn decode(&self, ciphertext: i64) -> Option<i64> {
        self.mapping
            .iter()
            .find(|(_, &ct)| ct == ciphertext)
            .map(|(&pt, _)| pt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::rng::seeded_rng;

    #[test]
    fn preserves_order() {
        let mut enc = OpeEncoder::with_default_space();
        let mut rng = seeded_rng(1);
        let plaintexts = [50i64, 10, 30, 20, 40, 60, 5];
        let cts: Vec<(i64, i64)> = plaintexts
            .iter()
            .map(|&p| (p, enc.encode(p, &mut rng).unwrap()))
            .collect();
        for (p1, c1) in &cts {
            for (p2, c2) in &cts {
                assert_eq!(p1 < p2, c1 < c2, "order must be preserved");
            }
        }
    }

    #[test]
    fn deterministic_for_repeated_plaintexts() {
        let mut enc = OpeEncoder::with_default_space();
        let mut rng = seeded_rng(1);
        let a = enc.encode(42, &mut rng).unwrap();
        let b = enc.encode(42, &mut rng).unwrap();
        assert_eq!(a, b);
        assert_eq!(enc.len(), 1);
    }

    #[test]
    fn decode_reverses_encode() {
        let mut enc = OpeEncoder::with_default_space();
        let mut rng = seeded_rng(2);
        let ct = enc.encode(7, &mut rng).unwrap();
        assert_eq!(enc.decode(ct), Some(7));
        assert_eq!(enc.decode(ct + 1), None);
        assert_eq!(enc.lookup(7), Some(ct));
        assert_eq!(enc.lookup(8), None);
    }

    #[test]
    fn space_exhaustion_reported() {
        let mut enc = OpeEncoder::new(0, 4);
        let mut rng = seeded_rng(3);
        // Only 3 interior ciphertexts exist (1,2,3); the 4th insert between
        // existing neighbours must eventually fail.
        let mut failures = 0;
        for p in 0..10 {
            if enc.encode(p, &mut rng).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0);
    }
}
