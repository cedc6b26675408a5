//! Non-deterministic (randomised) authenticated encryption.
//!
//! The paper assumes sensitive tuples are encrypted with a
//! *non-deterministic* scheme achieving ciphertext indistinguishability, so
//! that two tuples with the same plaintext (e.g. the two occurrences of
//! `E152` in the Employee example) produce different ciphertexts.
//! [`NonDetCipher`] is AES-128-CTR with a fresh random nonce per message plus
//! an HMAC-SHA-256 tag (encrypt-then-MAC).

use pds_common::{PdsError, Result};
use rand::Rng;

use crate::aes::Aes128;
use crate::ctr::{ctr_transform, ctr_xor, NONCE_LEN};
use crate::hmac::{self, HmacKey};
use crate::Key128;

/// Length of the authentication tag stored with each ciphertext.
pub const TAG_LEN: usize = 16;

/// A ciphertext: nonce ‖ body ‖ truncated MAC.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ciphertext(pub Vec<u8>);

impl Ciphertext {
    /// Total size in bytes (what travels over the simulated network).
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the ciphertext is empty (never true for well-formed data).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Randomised authenticated encryption (encrypt-then-MAC over AES-CTR).
///
/// Both key schedules are expanded once at construction: the AES round keys
/// inside [`Aes128`] and the HMAC pad midstates inside [`HmacKey`].  Per
/// bin operation the cipher only runs the block and compression functions —
/// no per-call key expansion.
#[derive(Clone)]
pub struct NonDetCipher {
    aes: Aes128,
    mac: HmacKey,
}

impl NonDetCipher {
    /// Builds the cipher from independent encryption and MAC keys.
    pub fn new(enc_key: Key128, mac_key: Key128) -> Self {
        NonDetCipher {
            aes: Aes128::new(&enc_key),
            mac: HmacKey::new(mac_key.bytes()),
        }
    }

    /// Builds the cipher from a single master seed, deriving sub-keys.
    pub fn from_seed(seed: u64) -> Self {
        Self::new(
            Key128::derive(seed, "nondet-enc"),
            Key128::derive(seed, "nondet-mac"),
        )
    }

    /// Encrypts a plaintext with a fresh random nonce drawn from `rng`.
    pub fn encrypt<R: Rng>(&self, plaintext: &[u8], rng: &mut R) -> Ciphertext {
        self.encrypt_with(plaintext.len(), |out| out.extend_from_slice(plaintext), rng)
    }

    /// Encrypts the plaintext that `write` appends to the buffer, zero-padded
    /// to at least `padded_len` bytes, under a fresh random nonce drawn from
    /// `rng`.
    ///
    /// The ciphertext is built in one buffer of its final size: the nonce,
    /// then the plaintext written straight after it (a tuple or value
    /// encoder writes in place, with no intermediate copy), CTR applied in
    /// place, then the tag appended.  A `write` longer than `padded_len` is
    /// encrypted whole, at the cost of one reallocation.
    pub fn encrypt_with<R: Rng>(
        &self,
        padded_len: usize,
        write: impl FnOnce(&mut Vec<u8>),
        rng: &mut R,
    ) -> Ciphertext {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill(&mut nonce);
        let mut out = Vec::with_capacity(Self::ciphertext_len(padded_len));
        out.extend_from_slice(&nonce);
        write(&mut out);
        if out.len() < NONCE_LEN + padded_len {
            out.resize(NONCE_LEN + padded_len, 0);
        }
        ctr_xor(&self.aes, &nonce, &mut out[NONCE_LEN..]);
        let tag = self.mac.mac(&out);
        out.extend_from_slice(&tag[..TAG_LEN]);
        Ciphertext(out)
    }

    /// Decrypts and authenticates a ciphertext.
    pub fn decrypt(&self, ct: &Ciphertext) -> Result<Vec<u8>> {
        let data = &ct.0;
        if data.len() < NONCE_LEN + TAG_LEN {
            return Err(PdsError::Crypto("ciphertext too short".into()));
        }
        let (payload, tag) = data.split_at(data.len() - TAG_LEN);
        let expected = self.mac.mac(payload);
        if !hmac::verify(tag, &expected[..TAG_LEN]) {
            return Err(PdsError::Crypto("authentication tag mismatch".into()));
        }
        let nonce: [u8; NONCE_LEN] = payload[..NONCE_LEN].try_into().expect("nonce length");
        Ok(ctr_transform(&self.aes, &nonce, &payload[NONCE_LEN..]))
    }

    /// The ciphertext expansion in bytes for a plaintext of length `n`.
    pub fn ciphertext_len(plaintext_len: usize) -> usize {
        NONCE_LEN + plaintext_len + TAG_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_common::rng::seeded_rng;
    use proptest::prelude::*;

    #[test]
    fn roundtrip() {
        let cipher = NonDetCipher::from_seed(1);
        let mut rng = seeded_rng(2);
        let pt = b"SELECT * FROM Employee WHERE EId = E259";
        let ct = cipher.encrypt(pt, &mut rng);
        assert_eq!(cipher.decrypt(&ct).unwrap(), pt);
        assert_eq!(ct.len(), NonDetCipher::ciphertext_len(pt.len()));
    }

    #[test]
    fn same_plaintext_different_ciphertexts() {
        // Ciphertext indistinguishability in the sense the paper needs: two
        // encryptions of the same value must not be linkable by equality.
        let cipher = NonDetCipher::from_seed(1);
        let mut rng = seeded_rng(2);
        let a = cipher.encrypt(b"E152", &mut rng);
        let b = cipher.encrypt(b"E152", &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn tampering_detected() {
        let cipher = NonDetCipher::from_seed(1);
        let mut rng = seeded_rng(2);
        let mut ct = cipher.encrypt(b"payload", &mut rng);
        let mid = ct.0.len() / 2;
        ct.0[mid] ^= 0xff;
        assert!(cipher.decrypt(&ct).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let cipher = NonDetCipher::from_seed(1);
        let other = NonDetCipher::from_seed(2);
        let mut rng = seeded_rng(2);
        let ct = cipher.encrypt(b"payload", &mut rng);
        assert!(other.decrypt(&ct).is_err());
    }

    #[test]
    fn too_short_ciphertext_rejected() {
        let cipher = NonDetCipher::from_seed(1);
        assert!(cipher.decrypt(&Ciphertext(vec![0u8; 5])).is_err());
    }

    #[test]
    fn empty_plaintext_roundtrips() {
        let cipher = NonDetCipher::from_seed(3);
        let mut rng = seeded_rng(4);
        let ct = cipher.encrypt(b"", &mut rng);
        assert_eq!(cipher.decrypt(&ct).unwrap(), Vec::<u8>::new());
    }

    /// The in-place writer builds exactly the encrypt-then-MAC ciphertext
    /// of the zero-padded plaintext: nonce ‖ CTR body ‖ truncated tag.
    #[test]
    fn in_place_encryption_matches_the_reference_construction() {
        let cipher = NonDetCipher::from_seed(5);
        for (pt, padded_len) in [(&b""[..], 0), (b"abc", 3), (b"abc", 40), (b"abcdefgh", 4)] {
            let ct = cipher.encrypt_with(
                padded_len,
                |out| out.extend_from_slice(pt),
                &mut seeded_rng(9),
            );
            let mut plaintext = pt.to_vec();
            if plaintext.len() < padded_len {
                plaintext.resize(padded_len, 0);
            }
            let mut nonce = [0u8; NONCE_LEN];
            seeded_rng(9).fill(&mut nonce);
            let mut want = nonce.to_vec();
            want.extend_from_slice(&ctr_transform(&cipher.aes, &nonce, &plaintext));
            let tag = cipher.mac.mac(&want);
            want.extend_from_slice(&tag[..TAG_LEN]);
            assert_eq!(ct.0, want, "{pt:?} padded to {padded_len}");
            assert_eq!(ct.len(), NonDetCipher::ciphertext_len(plaintext.len()));
            assert_eq!(cipher.decrypt(&ct).unwrap(), plaintext);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_property(data in proptest::collection::vec(any::<u8>(), 0..200),
                              seed in any::<u64>(), rng_seed in any::<u64>()) {
            let cipher = NonDetCipher::from_seed(seed);
            let mut rng = seeded_rng(rng_seed);
            let ct = cipher.encrypt(&data, &mut rng);
            prop_assert_eq!(cipher.decrypt(&ct).unwrap(), data);
        }
    }
}
