//! Deterministic fault injection for exercising the parity/SECDED paths.
//!
//! The crate's failure-handling tests use this module to flip bits in stored words with a seeded RNG, then
//! verify that the CWF early-wake protocol degrades exactly as the paper
//! describes: parity-visible errors defer the wake to the SECDED check,
//! parity-invisible multi-bit errors commit and are fail-stopped by SECDED
//! a few cycles later.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded source of bit-flip faults.
#[derive(Debug)]
pub struct FaultInjector {
    rng: StdRng,
    /// Probability that a given word access suffers at least one flip.
    pub word_error_rate: f64,
    /// Probability that an error event flips a second bit as well.
    pub double_bit_rate: f64,
}

impl FaultInjector {
    /// Create an injector with the given seed and error rates.
    ///
    /// # Panics
    ///
    /// Panics if either rate is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, word_error_rate: f64, double_bit_rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&word_error_rate), "word_error_rate must be a probability");
        assert!((0.0..=1.0).contains(&double_bit_rate), "double_bit_rate must be a probability");
        Self { rng: StdRng::seed_from_u64(seed), word_error_rate, double_bit_rate }
    }

    /// Possibly corrupt `word`, returning the (maybe flipped) value and the
    /// number of bits flipped (0, 1 or 2).
    pub fn corrupt(&mut self, word: u64) -> (u64, u32) {
        if !self.rng.random_bool(self.word_error_rate) {
            return (word, 0);
        }
        let first = self.rng.random_range(0..64u32);
        let mut out = word ^ (1u64 << first);
        let mut flips = 1;
        if self.rng.random_bool(self.double_bit_rate) {
            let mut second = self.rng.random_range(0..64u32);
            if second == first {
                second = (second + 1) % 64;
            }
            out ^= 1u64 << second;
            flips = 2;
        }
        (out, flips)
    }

    /// Flip exactly `n` distinct bits of `word` (for directed tests).
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn flip_exact(&mut self, word: u64, n: u32) -> u64 {
        assert!(n <= 64, "cannot flip more than 64 distinct bits");
        let mut flipped = 0u64;
        let mut out = word;
        let mut remaining = n;
        while remaining > 0 {
            let bit = self.rng.random_range(0..64u32);
            if flipped & (1u64 << bit) == 0 {
                flipped |= 1u64 << bit;
                out ^= 1u64 << bit;
                remaining -= 1;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secded::{decode, encode, Decoded};

    #[test]
    fn zero_rate_never_corrupts() {
        let mut inj = FaultInjector::new(1, 0.0, 0.0);
        for i in 0..1000u64 {
            assert_eq!(inj.corrupt(i), (i, 0));
        }
    }

    #[test]
    fn unit_rate_always_corrupts() {
        let mut inj = FaultInjector::new(2, 1.0, 0.0);
        for i in 0..1000u64 {
            let (w, flips) = inj.corrupt(i);
            assert_eq!(flips, 1);
            assert_eq!((w ^ i).count_ones(), 1);
        }
    }

    #[test]
    fn flip_exact_flips_exactly_n() {
        let mut inj = FaultInjector::new(3, 1.0, 1.0);
        for n in 0..=8 {
            let out = inj.flip_exact(0, n);
            assert_eq!(out.count_ones(), n);
        }
    }

    #[test]
    fn injected_singles_always_corrected_by_secded() {
        let mut inj = FaultInjector::new(4, 1.0, 0.0);
        for i in 0..200u64 {
            let w = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let code = encode(w);
            let (bad, _) = inj.corrupt(w);
            assert_eq!(decode(bad, code), Decoded::Corrected(w));
        }
    }

    #[test]
    fn injected_doubles_always_detected_by_secded() {
        let mut inj = FaultInjector::new(5, 1.0, 1.0);
        for i in 0..200u64 {
            let w = i.wrapping_mul(0xD134_2543_DE82_EF95);
            let code = encode(w);
            let bad = inj.flip_exact(w, 2);
            assert_eq!(decode(bad, code), Decoded::DoubleError);
        }
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let mut a = FaultInjector::new(7, 0.5, 0.5);
        let mut b = FaultInjector::new(7, 0.5, 0.5);
        for i in 0..100u64 {
            assert_eq!(a.corrupt(i), b.corrupt(i));
        }
    }
}
