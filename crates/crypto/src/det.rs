//! Deterministic encryption / equality tags.
//!
//! Deterministic encryption lets the cloud index and match ciphertexts by
//! equality, which is exactly why it leaks frequency information (Naveed et
//! al. \[11\] in the paper).  The CryptDB-style baseline in `pds-systems` uses
//! [`DeterministicTagger`] so the adversary crate can mount the
//! frequency-count attack against it and we can show that QB removes the
//! leakage.

use crate::prf::Prf;
use crate::Key128;

/// Length of a deterministic equality tag in bytes.
pub const DET_TAG_LEN: usize = 16;

/// Produces deterministic, keyed equality tags for attribute values.
#[derive(Clone)]
pub struct DeterministicTagger {
    prf: Prf,
}

impl DeterministicTagger {
    /// Creates a tagger keyed by `key`.
    pub fn new(key: Key128) -> Self {
        DeterministicTagger { prf: Prf::new(key) }
    }

    /// Creates a tagger from a master seed.
    pub fn from_seed(seed: u64) -> Self {
        Self::new(Key128::derive(seed, "det-tag"))
    }

    /// The deterministic tag of a plaintext value encoding.
    pub fn tag(&self, plaintext: &[u8]) -> [u8; DET_TAG_LEN] {
        let full = self.prf.eval(plaintext);
        let mut out = [0u8; DET_TAG_LEN];
        out.copy_from_slice(&full[..DET_TAG_LEN]);
        out
    }

    /// Tag as a `Vec<u8>` for storing in [`pds_common::Value::Bytes`].
    pub fn tag_vec(&self, plaintext: &[u8]) -> Vec<u8> {
        self.tag(plaintext).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_equal_inputs_equal_tags() {
        let t = DeterministicTagger::from_seed(1);
        assert_eq!(t.tag(b"E259"), t.tag(b"E259"));
        assert_ne!(t.tag(b"E259"), t.tag(b"E101"));
    }

    #[test]
    fn keyed_tags_differ_across_keys() {
        let a = DeterministicTagger::from_seed(1);
        let b = DeterministicTagger::from_seed(2);
        assert_ne!(a.tag(b"E259"), b.tag(b"E259"));
    }

    #[test]
    fn tag_vec_matches_tag() {
        let t = DeterministicTagger::from_seed(7);
        assert_eq!(t.tag_vec(b"x"), t.tag(b"x").to_vec());
        assert_eq!(t.tag_vec(b"x").len(), DET_TAG_LEN);
    }
}
