//! Deterministic randomness helpers.
//!
//! Experiments must be reproducible run-to-run, so every component that needs
//! randomness (key generation, the secret permutation of sensitive values in
//! Algorithm 1, workload generators, ...) derives its random stream from an
//! explicit seed through these helpers instead of reaching for OS entropy.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a seeded RNG. The same seed always produces the same stream.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a child seed from a parent seed and a label, so independent
/// components can share one experiment-level seed without correlating their
/// streams. Uses an FNV-1a style mix which is plenty for seeding purposes.
pub fn derive_seed(parent: u64, label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ parent.rotate_left(17);
    for &b in label.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h ^= parent;
    h = h.wrapping_mul(0x0000_0100_0000_01b3);
    h
}

/// Fisher–Yates shuffle driven by an explicit RNG.
pub fn shuffle<T, R: Rng>(items: &mut [T], rng: &mut R) {
    if items.len() < 2 {
        return;
    }
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let xs: Vec<u32> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let xs: Vec<u32> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u32> = (0..16).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn derive_seed_depends_on_label_and_parent() {
        assert_ne!(derive_seed(1, "keys"), derive_seed(1, "perm"));
        assert_ne!(derive_seed(1, "keys"), derive_seed(2, "keys"));
        assert_eq!(derive_seed(1, "keys"), derive_seed(1, "keys"));
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = seeded_rng(9);
        let mut xs: Vec<u32> = (0..50).collect();
        shuffle(&mut xs, &mut rng);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
