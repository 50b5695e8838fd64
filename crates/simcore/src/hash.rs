//! A seedless multiplicative hasher for maps keyed by dense integers.
//!
//! The standard library's SipHash is keyed per instance and costs tens of
//! nanoseconds per lookup; the simulator's hot maps (physical pages, live
//! objects, spilled HOT state) are keyed by frame numbers, object ids and
//! small tuples, where one multiply spreads the keys well enough. The hash
//! is a fixed function of the key, so it adds no run-to-run variation.

use std::hash::{BuildHasherDefault, Hasher};

/// Fx-style hasher: each integer is folded in with a rotate, xor and
/// multiply by an odd constant. `finish` rotates the well-mixed high bits
/// down, so keys that share their low bits (strided frame numbers) still
/// spread over the table's buckets.
#[derive(Clone, Copy, Default, Debug)]
pub struct IntHasher(u64);

impl IntHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `BuildHasher` for [`IntHasher`]: `HashMap<K, V, BuildIntHasher>`.
pub type BuildIntHasher = BuildHasherDefault<IntHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        BuildIntHasher::default().hash_one(value)
    }

    #[test]
    fn fixed_function_of_the_key() {
        assert_eq!(hash_of(42u64), hash_of(42u64));
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((0usize, 1u8)), hash_of((1usize, 0u8)));
    }

    #[test]
    fn strided_keys_spread_over_low_bits() {
        let buckets: std::collections::BTreeSet<u64> =
            (0..256u64).map(|m| hash_of(m << 9) & 255).collect();
        assert!(buckets.len() > 128, "only {} of 256 buckets", buckets.len());
    }
}
