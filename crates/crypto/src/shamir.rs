//! Shamir secret sharing over the Mersenne prime field GF(2^61 − 1).
//!
//! The paper's "strong but slow" category includes secret-sharing-based
//! techniques (Shamir \[4\], Emekçi et al. \[5\]).  The secret-sharing back-end
//! in `pds-systems` shares every attribute value across `n` simulated
//! non-colluding servers; a selection query is answered by reconstructing
//! from `k` shares at the owner.  This module supplies share/reconstruct and
//! the finite-field arithmetic they need.

use pds_common::{PdsError, Result};
use rand::Rng;

/// The field modulus: the Mersenne prime 2^61 − 1.
pub const MODULUS: u64 = (1u64 << 61) - 1;

/// Reduces an arbitrary u128 product into the field.
fn reduce128(x: u128) -> u64 {
    // Fast reduction modulo 2^61-1: fold the high bits down twice.
    let lo = (x & (MODULUS as u128)) as u64;
    let hi = (x >> 61) as u64;
    let mut r = lo.wrapping_add(hi);
    if r >= MODULUS {
        r -= MODULUS;
    }
    // One more fold covers the carry case.
    if r >= MODULUS {
        r -= MODULUS;
    }
    r
}

/// Addition in GF(2^61−1).
pub fn add(a: u64, b: u64) -> u64 {
    let s = a as u128 + b as u128;
    reduce128(s)
}

/// Subtraction in GF(2^61−1).
pub fn sub(a: u64, b: u64) -> u64 {
    add(a, MODULUS - (b % MODULUS))
}

/// Multiplication in GF(2^61−1).
pub fn mul(a: u64, b: u64) -> u64 {
    reduce128(a as u128 * b as u128)
}

/// Exponentiation by squaring.
pub fn pow(mut base: u64, mut exp: u64) -> u64 {
    let mut acc = 1u64;
    base %= MODULUS;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul(acc, base);
        }
        base = mul(base, base);
        exp >>= 1;
    }
    acc
}

/// Multiplicative inverse via Fermat's little theorem.
pub fn inv(a: u64) -> Result<u64> {
    if a % MODULUS == 0 {
        return Err(PdsError::Crypto("division by zero in GF(2^61-1)".into()));
    }
    Ok(pow(a, MODULUS - 2))
}

/// A single Shamir share: the evaluation point `x` and the value `y = f(x)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Evaluation point (server index, 1-based).
    pub x: u64,
    /// Share value.
    pub y: u64,
}

/// Splits `secret` into `n` shares with reconstruction threshold `k`.
pub fn share<R: Rng>(secret: u64, k: usize, n: usize, rng: &mut R) -> Result<Vec<Share>> {
    if k == 0 || n == 0 || k > n {
        return Err(PdsError::Config(format!(
            "invalid sharing parameters k={k}, n={n}"
        )));
    }
    if n as u64 >= MODULUS {
        return Err(PdsError::Config("too many shares for field size".into()));
    }
    // Random polynomial of degree k-1 with constant term = secret.
    let mut coeffs = Vec::with_capacity(k);
    coeffs.push(secret % MODULUS);
    for _ in 1..k {
        coeffs.push(rng.gen_range(0..MODULUS));
    }
    let shares = (1..=n as u64)
        .map(|x| {
            // Horner evaluation.
            let mut y = 0u64;
            for &c in coeffs.iter().rev() {
                y = add(mul(y, x), c);
            }
            Share { x, y }
        })
        .collect();
    Ok(shares)
}

/// Reconstructs the secret from at least `k` shares using Lagrange
/// interpolation at zero.
pub fn reconstruct(shares: &[Share]) -> Result<u64> {
    if shares.is_empty() {
        return Err(PdsError::Crypto("no shares provided".into()));
    }
    // Check for duplicate evaluation points.
    for i in 0..shares.len() {
        for j in i + 1..shares.len() {
            if shares[i].x == shares[j].x {
                return Err(PdsError::Crypto("duplicate share points".into()));
            }
        }
    }
    let mut secret = 0u64;
    for (i, si) in shares.iter().enumerate() {
        let mut num = 1u64;
        let mut den = 1u64;
        for (j, sj) in shares.iter().enumerate() {
            if i == j {
                continue;
            }
            num = mul(num, sj.x % MODULUS);
            den = mul(den, sub(sj.x, si.x));
        }
        let lagrange = mul(num, inv(den)?);
        secret = add(secret, mul(si.y, lagrange));
    }
    Ok(secret)
}

/// The Lagrange weights at zero of the evaluation points `xs`: the secret
/// behind shares `(xs[i], y_i)` is `Σ weights[i]·y_i` ([`weighted_sum`]).
///
/// A scan over many values shared at the same points computes these once
/// instead of running [`reconstruct`], with its inversions, per value.
pub fn lagrange_weights(xs: &[u64]) -> Result<Vec<u64>> {
    if xs.is_empty() {
        return Err(PdsError::Crypto("no shares provided".into()));
    }
    for (i, x) in xs.iter().enumerate() {
        if xs[i + 1..].contains(x) {
            return Err(PdsError::Crypto("duplicate share points".into()));
        }
    }
    xs.iter()
        .enumerate()
        .map(|(i, &xi)| {
            let mut num = 1u64;
            let mut den = 1u64;
            for (j, &xj) in xs.iter().enumerate() {
                if i != j {
                    num = mul(num, xj % MODULUS);
                    den = mul(den, sub(xj, xi));
                }
            }
            Ok(mul(num, inv(den)?))
        })
        .collect()
}

/// `Σ weights[i]·ys[i]`: with [`lagrange_weights`] of the shares'
/// evaluation points, the secret behind share values `ys`.
pub fn weighted_sum(weights: &[u64], ys: impl IntoIterator<Item = u64>) -> u64 {
    weights
        .iter()
        .zip(ys)
        .fold(0, |acc, (&w, y)| add(acc, mul(w, y)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::rng::seeded_rng;
    use proptest::prelude::*;

    #[test]
    fn field_arithmetic_basics() {
        assert_eq!(add(MODULUS - 1, 1), 0);
        assert_eq!(sub(0, 1), MODULUS - 1);
        assert_eq!(mul(2, 3), 6);
        assert_eq!(mul(inv(7).unwrap(), 7), 1);
        // 2^61 ≡ 1 (mod 2^61 - 1).
        assert_eq!(pow(2, 61), 1);
    }

    #[test]
    fn pow_identity() {
        // Fermat: a^(p-1) = 1 for a != 0.
        for a in [1u64, 2, 3, 12345, MODULUS - 1] {
            assert_eq!(pow(a, MODULUS - 1), 1, "a={a}");
        }
    }

    #[test]
    fn share_and_reconstruct() {
        let mut rng = seeded_rng(1);
        let secret = 123_456_789;
        let shares = share(secret, 3, 5, &mut rng).unwrap();
        assert_eq!(shares.len(), 5);
        // Any 3 shares reconstruct.
        assert_eq!(reconstruct(&shares[0..3]).unwrap(), secret);
        assert_eq!(reconstruct(&shares[2..5]).unwrap(), secret);
        assert_eq!(
            reconstruct(&[shares[0], shares[2], shares[4]]).unwrap(),
            secret
        );
        // All 5 also reconstruct.
        assert_eq!(reconstruct(&shares).unwrap(), secret);
    }

    #[test]
    fn fewer_than_threshold_shares_do_not_determine_secret() {
        // With k=2, a single share is consistent with every possible secret;
        // we verify the weaker (but testable) property that reconstructing
        // from one share does not generally yield the secret.
        let mut rng = seeded_rng(2);
        let secret = 42;
        let mut mismatches = 0;
        for _ in 0..20 {
            let shares = share(secret, 2, 3, &mut rng).unwrap();
            if reconstruct(&shares[0..1]).unwrap() != secret {
                mismatches += 1;
            }
        }
        assert!(mismatches > 0);
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut rng = seeded_rng(3);
        assert!(share(1, 0, 3, &mut rng).is_err());
        assert!(share(1, 4, 3, &mut rng).is_err());
        assert!(reconstruct(&[]).is_err());
        assert!(reconstruct(&[Share { x: 1, y: 2 }, Share { x: 1, y: 3 }]).is_err());
        assert!(inv(0).is_err());
        assert!(lagrange_weights(&[]).is_err());
        assert!(lagrange_weights(&[2, 5, 2]).is_err());
    }

    proptest! {
        #[test]
        fn reconstruct_property(secret in 0u64..MODULUS, seed in any::<u64>(),
                                k in 1usize..6, extra in 0usize..4) {
            let n = k + extra;
            let mut rng = seeded_rng(seed);
            let shares = share(secret, k, n, &mut rng).unwrap();
            prop_assert_eq!(reconstruct(&shares[..k]).unwrap(), secret);
        }

        /// The weighted sum equals `reconstruct` for any distinct points
        /// and any share values, not only consistent shares.
        #[test]
        fn weighted_sum_equals_reconstruct(seed in any::<u64>(), k in 1usize..7) {
            let mut rng = seeded_rng(seed);
            let mut shares: Vec<Share> = Vec::new();
            while shares.len() < k {
                let x = rng.gen_range(1..MODULUS);
                if shares.iter().all(|s| s.x != x) {
                    shares.push(Share { x, y: rng.gen_range(0..MODULUS) });
                }
            }
            let xs: Vec<u64> = shares.iter().map(|s| s.x).collect();
            let weights = lagrange_weights(&xs).unwrap();
            prop_assert_eq!(
                weighted_sum(&weights, shares.iter().map(|s| s.y)),
                reconstruct(&shares).unwrap()
            );
            // The fixed server points 1..=k, as the secret-sharing scan uses.
            let fixed = share(seed % MODULUS, k, k, &mut rng).unwrap();
            let xs: Vec<u64> = (1..=k as u64).collect();
            prop_assert_eq!(
                weighted_sum(&lagrange_weights(&xs).unwrap(), fixed.iter().map(|s| s.y)),
                reconstruct(&fixed).unwrap()
            );
        }

        #[test]
        fn mul_commutes_and_associates(a in 0u64..MODULUS, b in 0u64..MODULUS, c in 0u64..MODULUS) {
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            prop_assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
        }
    }
}
