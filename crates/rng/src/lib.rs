//! A small, dependency-free deterministic PRNG for the workspace.
//!
//! Everything in `pstrace` that needs randomness — arbitration and channel
//! latencies in the SoC simulator, random stimuli for the gate-level
//! substrate, the annealing baseline selector — is *seeded* randomness:
//! the same seed must reproduce the same run bit for bit, forever. None of
//! it needs cryptographic quality, and none of it should force a registry
//! dependency on `rand` just to draw uniform integers. This crate provides
//! the one generator the workspace uses instead.
//!
//! The generator is [SplitMix64](https://prng.di.unimi.it/splitmix64.c)
//! (Steele, Lea, Flood — *Fast Splittable Pseudorandom Number
//! Generators*, OOPSLA 2014): a 64-bit state advanced by a Weyl sequence
//! and finalized with an avalanche mix. It passes BigCrush when used as a
//! 64-bit generator, is trivially seedable from a single `u64` (unlike
//! xorshift it has no all-zero fixed point), and every draw is two shifts
//! and two multiplies.
//!
//! # Examples
//!
//! ```
//! use pstrace_rng::Rng64;
//!
//! let mut rng = Rng64::seed_from_u64(7);
//! let a = rng.gen_range_u64(1, 24);
//! assert!((1..=24).contains(&a));
//! // Same seed, same stream.
//! let mut again = Rng64::seed_from_u64(7);
//! assert_eq!(again.gen_range_u64(1, 24), a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

/// SplitMix64's increment: 2^64 divided by the golden ratio, made odd.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 output function of `x`: one golden-ratio increment,
/// then the finalizer's two xor-shift-multiply rounds. A bijection on
/// `u64`; [`Rng64`] draws it over a counting state, and every other
/// seeded hash in the workspace (payload values, epochs, trace ids)
/// calls this one copy.
#[inline]
#[must_use]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic 64-bit PRNG (SplitMix64).
///
/// The full generator state is one `u64`; cloning snapshots the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Creates a generator whose stream is a pure function of `seed`.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// The next raw 64-bit draw: [`splitmix64`] of the current state,
    /// which then advances by the golden-ratio increment.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        out
    }

    /// Uniform draw in `lo..=hi` (inclusive bounds).
    ///
    /// Uses Lemire-style rejection to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn gen_range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let span = span + 1;
        // Rejection sampling over the largest multiple of `span`.
        let zone = u64::MAX - (u64::MAX - span + 1) % span;
        loop {
            let raw = self.next_u64();
            if raw <= zone {
                return lo + raw % span;
            }
        }
    }

    /// Uniform draw in `0..n` (exclusive upper bound), for indexing.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty index range");
        usize::try_from(self.gen_range_u64(0, n as u64 - 1)).expect("index fits usize")
    }

    /// A uniformly random `bool`.
    pub fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// A uniform `f64` in `[0, 1)`, using the top 53 bits of one draw.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Derives an independent generator for a labeled sub-stream.
    ///
    /// Useful for giving each test case / each worker its own stream that
    /// is still a pure function of `(parent seed, label)`.
    #[must_use]
    pub fn fork(&self, label: u64) -> Rng64 {
        let mut child = Rng64 {
            state: self.state ^ label.wrapping_mul(0xa076_1d64_78bd_642f),
        };
        child.next_u64();
        child
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::seed_from_u64(42);
        let mut b = Rng64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng64::seed_from_u64(1);
        let mut b = Rng64::seed_from_u64(2);
        let same = (0..10).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_bounds_are_inclusive_and_respected() {
        let mut rng = Rng64::seed_from_u64(3);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = rng.gen_range_u64(5, 8);
            assert!((5..=8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi, "all range values are reachable");
    }

    #[test]
    fn degenerate_range_is_constant() {
        let mut rng = Rng64::seed_from_u64(9);
        for _ in 0..10 {
            assert_eq!(rng.gen_range_u64(7, 7), 7);
        }
    }

    #[test]
    fn full_range_does_not_loop_forever() {
        let mut rng = Rng64::seed_from_u64(11);
        let _ = rng.gen_range_u64(0, u64::MAX);
    }

    #[test]
    fn index_covers_all_slots() {
        let mut rng = Rng64::seed_from_u64(5);
        let mut hits = [0usize; 4];
        for _ in 0..4000 {
            hits[rng.gen_index(4)] += 1;
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!(h > 500, "slot {i} drawn {h} times of 4000");
        }
    }

    #[test]
    fn f64_is_in_unit_interval() {
        let mut rng = Rng64::seed_from_u64(6);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 1000.0;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean} far from 1/2");
    }

    #[test]
    fn bool_is_roughly_fair() {
        let mut rng = Rng64::seed_from_u64(8);
        let trues = (0..1000).filter(|_| rng.gen_bool()).count();
        assert!((400..=600).contains(&trues), "{trues} of 1000");
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let parent = Rng64::seed_from_u64(13);
        let mut a1 = parent.fork(1);
        let mut a2 = parent.fork(1);
        let mut b = parent.fork(2);
        assert_eq!(a1.next_u64(), a2.next_u64());
        assert_ne!(a1.next_u64(), b.next_u64());
    }
}
