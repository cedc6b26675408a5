//! HMAC-SHA-256 (RFC 2104 / FIPS-198), with a precomputed-key form.
//!
//! [`hmac_sha256`] re-derives the padded key block and absorbs both pads on
//! every call — fine for one-off MACs, but the ciphers and PRFs run one MAC
//! per bin operation under a key that never changes.  [`HmacKey`] hoists
//! that key schedule: it absorbs `ipad` and `opad` into two SHA-256
//! midstates once, and each [`HmacKey::mac`] just clones the midstates and
//! hashes the data (the compression function is run over the pads zero
//! times per call instead of twice).

use crate::sha256::{sha256, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// A precomputed HMAC-SHA-256 key schedule: the inner and outer SHA-256
/// midstates with their key pads already absorbed.  Build once per key,
/// then [`Self::mac`] per message.
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Derives the padded key block and absorbs both pads.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = sha256(key);
            key_block[..DIGEST_LEN].copy_from_slice(&digest);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// HMAC-SHA-256 of `data` under this precomputed key.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        inner.update(data);
        let inner_digest = inner.finalize();
        let mut outer = self.outer.clone();
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Computes HMAC-SHA-256 of `data` under `key` (one-shot form).
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(data)
}

/// Constant-time tag comparison: whether `tag` equals `expected`.  The
/// lengths are public; the bytes are compared without a data-dependent
/// branch or early exit, so the time taken does not reveal how many
/// leading bytes of a forged tag were right.
pub fn verify(tag: &[u8], expected: &[u8]) -> bool {
    if tag.len() != expected.len() {
        return false;
    }
    let diff = tag
        .iter()
        .zip(expected)
        .fold(0u8, |acc, (a, b)| acc | (a ^ b));
    std::hint::black_box(diff) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3 (0xaa key, 0xdd data).
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// RFC 4231 test case 6 (key longer than a block).
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn precomputed_key_matches_one_shot_for_all_key_shapes() {
        for key in [
            b"".as_slice(),
            b"Jefe".as_slice(),
            &[0xaau8; 64],
            &[0x0bu8; 131], // longer than a block: hashed first
        ] {
            let schedule = HmacKey::new(key);
            for data in [b"".as_slice(), b"Hi There", &[0xddu8; 200]] {
                assert_eq!(schedule.mac(data), hmac_sha256(key, data));
            }
            // A reused schedule is stateless across calls.
            assert_eq!(schedule.mac(b"twice"), schedule.mac(b"twice"));
        }
    }

    #[test]
    fn verify_accepts_correct_and_rejects_wrong() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify(&tag, &tag));
        let mut wrong = tag;
        wrong[0] ^= 1;
        assert!(!verify(&wrong, &tag));
        let mut last = tag;
        last[31] ^= 0x80;
        assert!(!verify(&last, &tag));
        assert!(!verify(&tag[..31], &tag));
        assert!(verify(&tag[..16], &tag[..16]));
        assert!(verify(&[], &[]));
    }
}
