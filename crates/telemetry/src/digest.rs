//! Byte-wise FNV-1a, the workspace's one digest function.
//!
//! Every determinism gate that compares runs by a 64-bit fingerprint (the
//! telemetry ledger digest, the full-stack completion digest, the
//! conformance payload hashes, the example digests) and the seed splitter
//! fold their input through this hasher, so "equal digest" means the same
//! thing everywhere.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running FNV-1a hash. Feed bytes (or `u64`s as their 8 little-endian
/// bytes) and read the value with [`finish`](Fnv1a::finish). Every method
/// is `#[inline]` because callers in other crates hash inside hot loops
/// (`split_seed` runs once per generated payload word).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    #[inline]
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    #[inline]
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in `bytes`, one byte at a time.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
        self
    }

    /// Fold in `v` as its 8 little-endian bytes.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte slice.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv1a::new().bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.bytes(b"foo").bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        assert_eq!(Fnv1a::new().u64(7).finish(), fnv1a(&7u64.to_le_bytes()));
    }
}
