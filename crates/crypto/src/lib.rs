//! # pds-crypto
//!
//! The cryptographic substrate for the *Partitioned Data Security* (ICDE
//! 2019) reproduction, written from scratch so the workspace has no external
//! crypto dependencies.
//!
//! The paper treats the underlying cryptographic technique as a pluggable
//! component ("QB can be built on top of any cryptographic technique").  This
//! crate supplies every primitive the rest of the workspace composes with:
//!
//! * [`aes`] — AES-128 block cipher (FIPS-197), verified against the standard
//!   test vectors.
//! * [`ctr`] — counter mode over the block cipher.
//! * [`sha256`] / [`hmac`] — SHA-256 (FIPS-180-4) and HMAC-SHA-256.
//! * [`prf`] / [`prp`] — a keyed PRF and a small-domain Feistel PRP (used for
//!   the secret permutation of sensitive values in Algorithm 1).
//! * [`nondet`] — the non-deterministic (IND-CPA style, randomised)
//!   authenticated encryption the paper assumes for sensitive tuples.
//! * [`det`] — deterministic encryption / equality tags, used by the
//!   CryptDB-style baseline that QB is shown to strengthen.
//! * [`ope`] — a toy mutable order-preserving encoding, used only to
//!   demonstrate the frequency/ordering attacks of \[11\], \[12\].
//! * [`shamir`] — Shamir secret sharing over a 61-bit prime field, the basis
//!   of the secret-sharing back-end (\[5\] in the paper).
//! * [`dpf`] — two-server distributed point functions (\[6\] in the paper),
//!   implemented as XOR shares of the point-function truth table (functionally
//!   equivalent to DPF for the simulated cloud; succinctness is not required
//!   by any experiment).
//!
//! None of this code is meant for production use — it exists to make the
//! reproduction self-contained and to give the cost models real work to
//! measure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ctr;
pub mod det;
pub mod dpf;
pub mod hmac;
pub mod nondet;
pub mod ope;
pub mod prf;
pub mod prp;
pub mod sha256;
pub mod shamir;

pub use aes::Aes128;
pub use det::DeterministicTagger;
pub use nondet::{Ciphertext, NonDetCipher};
pub use prf::Prf;
pub use prp::FeistelPrp;

/// A 128-bit symmetric key shared by the owner-side primitives.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Key128(pub [u8; 16]);

impl Key128 {
    /// Derives a key deterministically from a seed and a domain-separation
    /// label (e.g. `"enc"`, `"mac"`, `"prp"`).
    pub fn derive(seed: u64, label: &str) -> Self {
        let mut input = Vec::with_capacity(8 + label.len());
        input.extend_from_slice(&seed.to_be_bytes());
        input.extend_from_slice(label.as_bytes());
        let digest = sha256::sha256(&input);
        let mut k = [0u8; 16];
        k.copy_from_slice(&digest[..16]);
        Key128(k)
    }

    /// Generates a random key from the provided RNG.
    pub fn random<R: rand::Rng>(rng: &mut R) -> Self {
        let mut k = [0u8; 16];
        rng.fill(&mut k);
        Key128(k)
    }

    /// Raw key bytes.
    pub fn bytes(&self) -> &[u8; 16] {
        &self.0
    }
}

impl std::fmt::Debug for Key128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        write!(f, "Key128(****)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_label_separated() {
        let a = Key128::derive(7, "enc");
        let b = Key128::derive(7, "enc");
        let c = Key128::derive(7, "mac");
        let d = Key128::derive(8, "enc");
        assert_eq!(a, b);
        assert_ne!(a.0, c.0);
        assert_ne!(a.0, d.0);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let k = Key128::derive(1, "enc");
        assert_eq!(format!("{k:?}"), "Key128(****)");
    }

    #[test]
    fn random_keys_differ() {
        let mut rng = pds_common::rng::seeded_rng(3);
        let a = Key128::random(&mut rng);
        let b = Key128::random(&mut rng);
        assert_ne!(a.0, b.0);
    }
}
