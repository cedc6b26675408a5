//! Small-domain pseudo-random permutations.
//!
//! Algorithm 1 of the paper *permutes all sensitive values* before assigning
//! them to bins, and keeps the permutation secret from the adversary (the
//! footnote explains this stops the adversary re-deriving the bin layout from
//! ordered identifiers).  [`FeistelPrp`] provides a keyed permutation over an
//! arbitrary domain `0..n` using a balanced Feistel network with cycle
//! walking.

use crate::prf::Prf;
use crate::Key128;

/// A keyed pseudo-random permutation over the domain `0..domain_size`.
///
/// Construction: 4-round balanced Feistel over `2k`-bit strings where
/// `2k >= ceil(log2(domain_size))`, with cycle-walking to stay inside the
/// domain. Inversion runs the rounds backwards.
#[derive(Clone)]
pub struct FeistelPrp {
    prf: Prf,
    domain_size: u64,
    half_bits: u32,
}

const ROUNDS: u64 = 4;

impl FeistelPrp {
    /// Creates a PRP over `0..domain_size` keyed by `key`.
    ///
    /// # Panics
    /// Panics if `domain_size == 0`.
    pub fn new(key: Key128, domain_size: u64) -> Self {
        assert!(domain_size > 0, "PRP domain must be non-empty");
        let bits = 64 - (domain_size - 1).leading_zeros();
        // Feistel needs an even split; at least 1 bit per half.
        let half_bits = bits.div_ceil(2).max(1);
        FeistelPrp {
            prf: Prf::new(key),
            domain_size,
            half_bits,
        }
    }

    /// The number of values in the permutation's domain.
    pub fn domain_size(&self) -> u64 {
        self.domain_size
    }

    fn round(&self, round: u64, right: u64) -> u64 {
        let mut input = [0u8; 16];
        input[..8].copy_from_slice(&round.to_be_bytes());
        input[8..].copy_from_slice(&right.to_be_bytes());
        self.prf.eval_u64(&input) & ((1u64 << self.half_bits) - 1)
    }

    fn feistel_forward(&self, x: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = (x >> self.half_bits) & mask;
        let mut right = x & mask;
        for r in 0..ROUNDS {
            let new_left = right;
            let new_right = left ^ self.round(r, right);
            left = new_left;
            right = new_right;
        }
        (left << self.half_bits) | right
    }

    fn feistel_backward(&self, y: u64) -> u64 {
        let mask = (1u64 << self.half_bits) - 1;
        let mut left = (y >> self.half_bits) & mask;
        let mut right = y & mask;
        for r in (0..ROUNDS).rev() {
            let prev_right = left;
            let prev_left = right ^ self.round(r, prev_right);
            left = prev_left;
            right = prev_right;
        }
        (left << self.half_bits) | right
    }

    /// Applies the permutation to `x`.
    ///
    /// # Panics
    /// Panics if `x >= domain_size`.
    pub fn permute(&self, x: u64) -> u64 {
        assert!(x < self.domain_size, "value outside PRP domain");
        // Cycle walking: keep applying the Feistel permutation over the
        // enclosing power-of-two domain until we land inside the domain.
        let mut y = self.feistel_forward(x);
        while y >= self.domain_size {
            y = self.feistel_forward(y);
        }
        y
    }

    /// Inverts the permutation.
    ///
    /// # Panics
    /// Panics if `y >= domain_size`.
    pub fn invert(&self, y: u64) -> u64 {
        assert!(y < self.domain_size, "value outside PRP domain");
        let mut x = self.feistel_backward(y);
        while x >= self.domain_size {
            x = self.feistel_backward(x);
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn is_a_permutation_small_domains() {
        for n in [1u64, 2, 3, 7, 16, 41, 100, 257] {
            let prp = FeistelPrp::new(Key128::derive(n, "prp"), n);
            let image: HashSet<u64> = (0..n).map(|i| prp.permute(i)).collect();
            assert_eq!(image.len() as u64, n, "domain {n}");
            assert!(image.iter().all(|&y| y < n));
        }
    }

    #[test]
    fn invert_roundtrip() {
        let n = 1000;
        let prp = FeistelPrp::new(Key128::derive(9, "prp"), n);
        for x in 0..n {
            assert_eq!(prp.invert(prp.permute(x)), x);
        }
    }

    #[test]
    fn different_keys_different_permutations() {
        let n = 64;
        let a = FeistelPrp::new(Key128::derive(1, "prp"), n);
        let b = FeistelPrp::new(Key128::derive(2, "prp"), n);
        let image = |prp: &FeistelPrp| (0..n).map(|i| prp.permute(i)).collect::<Vec<_>>();
        assert_ne!(image(&a), image(&b));
    }

    #[test]
    #[should_panic(expected = "outside PRP domain")]
    fn rejects_out_of_domain() {
        let prp = FeistelPrp::new(Key128::derive(1, "prp"), 10);
        let _ = prp.permute(10);
    }

    proptest! {
        #[test]
        fn permute_invert_property(seed in any::<u64>(), n in 1u64..10_000, x in any::<u64>()) {
            let x = x % n;
            let prp = FeistelPrp::new(Key128::derive(seed, "prp"), n);
            let y = prp.permute(x);
            prop_assert!(y < n);
            prop_assert_eq!(prp.invert(y), x);
        }
    }
}
