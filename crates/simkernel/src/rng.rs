//! Deterministic random-number utilities.
//!
//! Every stochastic component in the workspace (arrival processes, runtime
//! distributions, estimate models, ...) draws from its own stream derived
//! from a single experiment seed. Streams are derived with a SplitMix64
//! finaliser over `(seed, stream id)`, so
//!
//! * the same experiment seed always reproduces the same workload, and
//! * adding a new stream (e.g. a new distribution) never perturbs the
//!   existing ones.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 finaliser. Maps a 64-bit state to a well-mixed 64-bit output;
/// used to derive independent stream seeds from `(seed, stream id)` pairs.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed of sub-stream `stream` from the master `seed`.
///
/// Distinct `(seed, stream)` pairs map to distinct (well-mixed) outputs with
/// overwhelming probability, so sub-streams behave as independent RNGs.
#[inline]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ splitmix64(stream.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Creates the RNG for sub-stream `stream` of master `seed`.
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(seed, stream))
}

/// Well-known stream identifiers, so the derivations are documented in one
/// place rather than scattered as magic numbers.
pub mod streams {
    /// Inter-arrival time process.
    pub const ARRIVALS: u64 = 1;
    /// Job size (processor count) distribution.
    pub const SIZES: u64 = 2;
    /// Job runtime distribution.
    pub const RUNTIMES: u64 = 3;
    /// User runtime-estimate (requested time) model.
    pub const ESTIMATES: u64 = 4;
    /// Per-job β (frequency-sensitivity) distribution.
    pub const BETA: u64 = 5;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_eq!(splitmix64(42), splitmix64(42));
        assert_ne!(splitmix64(0), splitmix64(1));
    }

    #[test]
    fn derive_seed_separates_streams() {
        let a = derive_seed(7, streams::ARRIVALS);
        let b = derive_seed(7, streams::SIZES);
        let c = derive_seed(8, streams::ARRIVALS);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn stream_rng_reproducible() {
        let mut r1 = stream_rng(123, 1);
        let mut r2 = stream_rng(123, 1);
        let xs: Vec<u64> = (0..16).map(|_| r1.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| r2.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn different_streams_differ() {
        let mut r1 = stream_rng(123, 1);
        let mut r2 = stream_rng(123, 2);
        let xs: Vec<u64> = (0..16).map(|_| r1.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| r2.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn stream_constants_are_distinct() {
        let ids = [
            streams::ARRIVALS,
            streams::SIZES,
            streams::RUNTIMES,
            streams::ESTIMATES,
            streams::BETA,
        ];
        for (i, a) in ids.iter().enumerate() {
            for b in ids.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }
}
