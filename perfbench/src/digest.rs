//! FNV-1a over 64-bit words: a stable hash of simulated outputs, so a
//! change that should only speed the simulator up can show that every
//! simulated result stayed byte-identical.

/// A running FNV-1a hash.
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `words` in, little-endian byte by byte.
    pub fn words(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}
