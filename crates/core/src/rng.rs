//! Vendored deterministic random number generation.
//!
//! The sandbox this workspace builds in has no registry access, so the
//! default feature set must compile with zero external dependencies. This
//! module vendors two tiny, well-studied generators — enough for every
//! stochastic generator in `cloudsched-workload` and `cloudsched-cloud`:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. One multiply and a
//!   few xor-shifts per output; primarily used to expand a user seed into
//!   stream state for other generators.
//! * [`Pcg32`] — O'Neill's PCG-XSH-RR 64/32. The workspace default: small
//!   state, excellent statistical quality, and a fixed, documented output
//!   sequence so seeded experiments stay reproducible across releases.
//!
//! Both implement the minimal [`Rng`] trait, which mirrors the narrow slice
//! of the `rand` API the workspace actually uses: raw 64-bit words, unit
//! uniforms and bounded indices. Every sampler in the workspace is an
//! inverse transform over these three primitives.
//!
//! Determinism contract: for a fixed seed the output sequence of each
//! generator is stable — it is part of the public API and is pinned by unit
//! tests below. Do not change the constants.

/// Seed stream for the Table I sweep (`cloudsched repro --experiment table1`).
pub const SEED_STREAM_TABLE1: u64 = 0x5EED_0000;

/// Seed stream for the ablation sweep (`cloudsched repro --experiment ablation`).
pub const SEED_STREAM_ABLATION: u64 = 0xAB1A7E;

/// Seed stream for the underloaded-regime sweep (`cloudsched repro --experiment
/// underloaded`).
pub const SEED_STREAM_UNDERLOADED: u64 = 0xAB1E;

/// Seed stream for the stretch-transformation validation (`cloudsched repro
/// --experiment transform`). Value matches the literal base seed it used before
/// seed derivation was centralised here, so its output is unchanged:
/// `derive_seed(SEED_STREAM_TRANSFORM, 0.0, i) == 0x57E7C4 + i` exactly.
pub const SEED_STREAM_TRANSFORM: u64 = 0x57E7C4;

/// Seed stream for the multi-machine fleet suite (`bench --suite fleet` and
/// the `cloudsched fleet` subcommand). Instance generation uses run slots
/// `0..runs`; the power-of-two-choices dispatcher draws its own seed from
/// run slot [`FLEET_DISPATCH_RUN_OFFSET`]` + run` so the dispatch coin flips
/// never alias the workload draws.
pub const SEED_STREAM_FLEET: u64 = 0xF1EE7;

/// Run-slot offset separating fleet dispatch seeds from fleet instance
/// seeds on [`SEED_STREAM_FLEET`] (far above any realistic run count).
pub const FLEET_DISPATCH_RUN_OFFSET: usize = 1_000_000;

/// Derives the RNG seed for run `run` of a sweep on `stream`, with `lambda`
/// folded in for sweeps that vary the arrival rate (pass `0.0` otherwise).
///
/// This is the one formula behind every experiment binary:
/// `stream + (lambda * 1000) as u64 * 1_000_003 + run`, in wrapping
/// arithmetic. The constants are frozen — all checked-in experiment outputs
/// (Table I numbers, golden traces, `BENCH_*.json`) were recorded under
/// them, so changing this function shifts every recorded result. A unit
/// test below pins the streams pairwise collision-free over the sweep grids
/// actually in use.
#[inline]
pub fn derive_seed(stream: u64, lambda: f64, run: usize) -> u64 {
    // `f64_to_u64_saturating` is exactly `as u64` (truncate toward zero,
    // saturate, NaN → 0) — the helper keeps the recorded bit pattern while
    // making the truncation explicit (lint rule L010).
    stream
        .wrapping_add(
            crate::numeric::f64_to_u64_saturating(lambda * 1000.0).wrapping_mul(1_000_003),
        )
        .wrapping_add(run as u64)
}

/// Minimal uniform random source.
///
/// The trait is object-safe and implemented for `&mut R` like `rand::Rng`,
/// so generator functions take `rng: &mut R` with `R: Rng + ?Sized`.
pub trait Rng {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // Take the 53 high bits: every representable multiple of 2^-53 in
        // [0, 1) is equally likely.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform index in `0..n`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased.
    ///
    /// # Panics
    /// If `n == 0`.
    #[inline]
    // Multiply-shift keeps the low and the high word of the 128-bit product,
    // both by truncation.
    #[allow(clippy::cast_possible_truncation)]
    fn next_index(&mut self, n: usize) -> usize {
        assert!(n > 0, "next_index needs a non-empty range");
        let n = n as u64;
        // Widening multiply keeps the low word for rejection.
        let threshold = n.wrapping_neg() % n;
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            if (m as u64) >= threshold {
                return (m >> 64) as usize;
            }
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators", OOPSLA 2014). A fixed-increment Weyl sequence through a
/// 64-bit finalizer; passes BigCrush, period 2^64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator whose sequence is fully determined by `seed`.
    #[inline]
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }
}

impl Rng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// PCG-XSH-RR 64/32 (O'Neill, "PCG: a family of simple fast space-efficient
/// statistically good algorithms for random number generation", 2014).
///
/// 64-bit LCG state with a 32-bit xorshift-high/random-rotation output.
/// [`Rng::next_u64`] concatenates two 32-bit outputs, low word first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    /// Stream selector; must be odd.
    inc: u64,
}

const PCG_MULTIPLIER: u64 = 6_364_136_223_846_793_005;
const PCG_DEFAULT_STREAM: u64 = 1_442_695_040_888_963_407;

impl Pcg32 {
    /// Creates the default-stream generator for `seed`.
    ///
    /// The seed is pre-mixed through [`SplitMix64`] so that small consecutive
    /// seeds (0, 1, 2, …) — the common experiment pattern — land in
    /// decorrelated regions of the state space.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::seed_from_u64(seed);
        Self::with_stream(mix.next_u64(), PCG_DEFAULT_STREAM)
    }

    /// Creates a generator on an explicit stream (`stream` may be any value;
    /// it is forced odd internally).
    pub fn with_stream(state_seed: u64, stream: u64) -> Self {
        let inc = (stream << 1) | 1;
        let mut rng = Pcg32 { state: 0, inc };
        rng.step();
        rng.state = rng.state.wrapping_add(state_seed);
        rng.step();
        rng
    }

    #[inline]
    fn step(&mut self) {
        self.state = self
            .state
            .wrapping_mul(PCG_MULTIPLIER)
            .wrapping_add(self.inc);
    }

    /// The next 32-bit output word.
    #[inline]
    // PCG's XSH-RR output function truncates the shifted state to 32 bits.
    #[allow(clippy::cast_possible_truncation)]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.step();
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }
}

impl Rng for Pcg32 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_sequence() {
        // Reference vector from the public-domain C implementation
        // (seed = 1234567).
        let mut rng = SplitMix64::seed_from_u64(1234567);
        let expect = [
            6_457_827_717_110_365_317u64,
            3_203_168_211_198_807_973,
            9_817_491_932_198_370_423,
            4_593_380_528_125_082_431,
            16_408_922_859_458_223_821,
        ];
        for &e in &expect {
            assert_eq!(rng.next_u64(), e);
        }
    }

    #[test]
    fn pcg_streams_differ_and_are_deterministic() {
        let a: Vec<u64> = {
            let mut r = Pcg32::seed_from_u64(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Pcg32::seed_from_u64(9);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Pcg32::seed_from_u64(10);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b, "same seed must reproduce the same stream");
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn unit_uniform_is_in_range_and_well_spread() {
        let mut rng = Pcg32::seed_from_u64(42);
        let n = 100_000;
        let mut sum = 0.0;
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..n {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "{x} out of [0,1)");
            sum += x;
            min = min.min(x);
            max = max.max(x);
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} should be ~0.5");
        assert!(
            min < 0.001 && max > 0.999,
            "range [{min}, {max}] too narrow"
        );
    }

    #[test]
    fn next_index_is_unbiased_over_small_ranges() {
        let mut rng = Pcg32::seed_from_u64(7);
        let mut counts = [0usize; 5];
        let n = 50_000;
        for _ in 0..n {
            counts[rng.next_index(5)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let frac = c as f64 / n as f64;
            assert!(
                (frac - 0.2).abs() < 0.02,
                "bucket {i} frequency {frac} should be ~0.2"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty range")]
    fn next_index_rejects_empty_range() {
        Pcg32::seed_from_u64(0).next_index(0);
    }

    #[test]
    fn trait_object_and_reference_forwarding() {
        let mut rng = Pcg32::seed_from_u64(5);
        let reference = Pcg32::seed_from_u64(5).next_u64();
        fn first<R: Rng + ?Sized>(r: &mut R) -> u64 {
            r.next_u64()
        }
        // &mut R path.
        assert_eq!(first(&mut rng), reference);
        // dyn path.
        let mut rng2 = Pcg32::seed_from_u64(5);
        let dyn_rng: &mut dyn Rng = &mut rng2;
        assert_eq!(first(dyn_rng), reference);
    }

    #[test]
    // The historical inline formula, casts and all.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn derive_seed_reproduces_the_historical_formulas() {
        // These are the exact inline expressions the experiment binaries
        // used before centralization; recorded results depend on them.
        for &lambda in &[4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0] {
            for run in [0usize, 1, 799] {
                assert_eq!(
                    derive_seed(SEED_STREAM_TABLE1, lambda, run),
                    0x5EED_0000 + (lambda * 1000.0) as u64 * 1_000_003 + run as u64
                );
            }
        }
        assert_eq!(derive_seed(SEED_STREAM_ABLATION, 0.0, 17), 0xAB1A7E + 17);
        assert_eq!(derive_seed(SEED_STREAM_UNDERLOADED, 0.0, 17), 0xAB1E + 17);
    }

    #[test]
    fn derive_seed_is_collision_free_over_the_sweep_grids() {
        // Union of every (stream, lambda, run) triple the experiment
        // binaries actually generate: Table I's 7x800 grid plus the
        // lambda-independent ablation and underloaded sweeps.
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0usize;
        for &lambda in &[4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0] {
            for run in 0..800 {
                assert!(seen.insert(derive_seed(SEED_STREAM_TABLE1, lambda, run)));
                total += 1;
            }
        }
        for run in 0..800 {
            assert!(seen.insert(derive_seed(SEED_STREAM_ABLATION, 0.0, run)));
            assert!(seen.insert(derive_seed(SEED_STREAM_UNDERLOADED, 0.0, run)));
            total += 2;
        }
        // Fleet instance and dispatch slots, over the bench lambda.
        for run in 0..800 {
            assert!(seen.insert(derive_seed(SEED_STREAM_FLEET, 8.0, run)));
            assert!(seen.insert(derive_seed(
                SEED_STREAM_FLEET,
                8.0,
                FLEET_DISPATCH_RUN_OFFSET + run
            )));
            total += 2;
        }
        assert_eq!(seen.len(), total);
    }

    #[test]
    fn splitmix_seeds_decorrelate_pcg() {
        // Consecutive seeds must not produce correlated first outputs.
        let outs: Vec<u64> = (0..16)
            .map(|s| Pcg32::seed_from_u64(s).next_u64())
            .collect();
        let mut sorted = outs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), outs.len(), "collisions across seeds");
    }
}
