//! Two-server distributed point functions (DPF).
//!
//! Gilboa–Ishai DPFs (\[6\] in the paper) let a client split a point function
//! `f_{a,b}(x) = b if x == a else 0` into two keys such that each key alone
//! reveals nothing about `a`, yet each server can evaluate its key on every
//! domain point and the XOR of the two evaluations equals `f_{a,b}`.  The
//! servers therefore answer "which tuples match value `a`" without learning
//! `a` — at the cost of a full scan, which is exactly the expensive, strongly
//! secure back-end QB is designed to speed up.
//!
//! For the simulated cloud the *asymptotic key size* of the real
//! tree-based construction does not matter (the experiments only measure
//! per-tuple evaluation work and bytes transferred for results), so the keys
//! here are XOR shares of the point-function truth table over the queried
//! domain.  Functionally this is a correct and secure 2-server DPF; it is
//! simply not succinct.  `DESIGN.md` §5 records this substitution.

use pds_common::{PdsError, Result};
use rand::Rng;

/// One server's DPF key: a share of the truth table of the point function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DpfKey {
    /// Which server the key belongs to (0 or 1).
    pub server: u8,
    /// Truth-table share: `share[x]` is this server's share of `f(x)`.
    pub share: Vec<u64>,
}

impl DpfKey {
    /// Size of the key in bytes (what would travel to the server).
    pub fn size_bytes(&self) -> usize {
        self.share.len() * 8 + 1
    }
}

/// Generates a pair of DPF keys for the point function that maps
/// `alpha ↦ beta` and every other point of `0..domain_size` to zero.
pub fn generate<R: Rng>(
    domain_size: usize,
    alpha: usize,
    beta: u64,
    rng: &mut R,
) -> Result<(DpfKey, DpfKey)> {
    if alpha >= domain_size {
        return Err(PdsError::Config(format!(
            "DPF point {alpha} outside domain of size {domain_size}"
        )));
    }
    let mut share0 = Vec::with_capacity(domain_size);
    let mut share1 = Vec::with_capacity(domain_size);
    for x in 0..domain_size {
        let r: u64 = rng.gen();
        let value = if x == alpha { beta } else { 0 };
        share0.push(r);
        share1.push(r ^ value);
    }
    Ok((
        DpfKey {
            server: 0,
            share: share0,
        },
        DpfKey {
            server: 1,
            share: share1,
        },
    ))
}

/// Evaluates a single server's key on one domain point.
pub fn eval(key: &DpfKey, x: usize) -> Result<u64> {
    key.share
        .get(x)
        .copied()
        .ok_or_else(|| PdsError::Config(format!("DPF evaluation point {x} outside key domain")))
}

/// Evaluates a server's key on the full domain (the "full-domain evaluation"
/// servers perform to filter every tuple).
pub fn eval_full(key: &DpfKey) -> Vec<u64> {
    key.share.clone()
}

/// Combines the two servers' evaluations back into the point function.
pub fn combine(eval0: &[u64], eval1: &[u64]) -> Result<Vec<u64>> {
    if eval0.len() != eval1.len() {
        return Err(PdsError::Crypto("mismatched DPF evaluation lengths".into()));
    }
    Ok(eval0.iter().zip(eval1.iter()).map(|(a, b)| a ^ b).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::rng::seeded_rng;
    use proptest::prelude::*;

    #[test]
    fn point_function_reconstructs() {
        let mut rng = seeded_rng(1);
        let (k0, k1) = generate(16, 5, 0xdead_beef, &mut rng).unwrap();
        let combined = combine(&eval_full(&k0), &eval_full(&k1)).unwrap();
        for (x, v) in combined.iter().enumerate() {
            if x == 5 {
                assert_eq!(*v, 0xdead_beef);
            } else {
                assert_eq!(*v, 0);
            }
        }
    }

    #[test]
    fn single_key_share_looks_random() {
        // A single key must not reveal alpha: its share at alpha should not
        // be special (here: not systematically equal to beta).
        let mut rng = seeded_rng(2);
        let mut hits = 0;
        for _ in 0..50 {
            let (k0, _k1) = generate(8, 3, 1, &mut rng).unwrap();
            if k0.share[3] == 1 {
                hits += 1;
            }
        }
        assert!(
            hits < 50,
            "share at alpha must not deterministically equal beta"
        );
    }

    #[test]
    fn out_of_domain_rejected() {
        let mut rng = seeded_rng(3);
        assert!(generate(4, 4, 1, &mut rng).is_err());
        let (k0, _) = generate(4, 1, 1, &mut rng).unwrap();
        assert!(eval(&k0, 4).is_err());
        assert!(eval(&k0, 3).is_ok());
    }

    #[test]
    fn combine_length_mismatch_rejected() {
        assert!(combine(&[1, 2], &[3]).is_err());
    }

    #[test]
    fn key_size_accounts_domain() {
        let mut rng = seeded_rng(4);
        let (k0, _) = generate(100, 0, 1, &mut rng).unwrap();
        assert_eq!(k0.size_bytes(), 801);
    }

    proptest! {
        #[test]
        fn reconstruction_property(domain in 1usize..256, beta in any::<u64>(),
                                   seed in any::<u64>(), alpha_raw in any::<usize>()) {
            let alpha = alpha_raw % domain;
            let mut rng = seeded_rng(seed);
            let (k0, k1) = generate(domain, alpha, beta, &mut rng).unwrap();
            let combined = combine(&eval_full(&k0), &eval_full(&k1)).unwrap();
            for (x, v) in combined.iter().enumerate() {
                if x == alpha {
                    prop_assert_eq!(*v, beta);
                } else {
                    prop_assert_eq!(*v, 0);
                }
            }
        }
    }
}
