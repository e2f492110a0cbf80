//! Seedable randomness plumbing.
//!
//! Every stochastic element of an experiment (noise draws, laggard selection)
//! derives from one root seed through stable stream splitting, so a run is
//! reproducible from `(root_seed, experiment parameters)` alone.

use partix_telemetry::digest::Fnv1a;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Derive a child seed for a named stream. Uses an FNV-1a mix so that
/// distinct `(seed, stream, index)` triples map to well-spread seeds without
/// pulling in a hashing dependency.
pub fn split_seed(root: u64, stream: &str, index: u64) -> u64 {
    let mut z = Fnv1a::new()
        .u64(root)
        .bytes(stream.as_bytes())
        .u64(index)
        .finish();
    // Final avalanche (splitmix64 finaliser).
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic RNG for the given stream of an experiment.
pub fn stream_rng(root: u64, stream: &str, index: u64) -> StdRng {
    StdRng::seed_from_u64(split_seed(root, stream, index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn split_is_deterministic() {
        assert_eq!(split_seed(1, "noise", 0), split_seed(1, "noise", 0));
    }

    #[test]
    fn split_separates_streams() {
        let a = split_seed(1, "noise", 0);
        let b = split_seed(1, "laggard", 0);
        let c = split_seed(1, "noise", 1);
        let d = split_seed(2, "noise", 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn rngs_reproduce() {
        let mut r1 = stream_rng(42, "x", 7);
        let mut r2 = stream_rng(42, "x", 7);
        let a: [u64; 4] = std::array::from_fn(|_| r1.random());
        let b: [u64; 4] = std::array::from_fn(|_| r2.random());
        assert_eq!(a, b);
    }
}
