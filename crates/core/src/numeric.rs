//! Tolerance-based floating point comparisons.
//!
//! The simulator integrates piecewise-constant capacity exactly, but chained
//! additions and subtractions of `f64` still accumulate rounding on the order
//! of a few ulps. Every "has this job finished?", "did this deadline pass?"
//! style predicate in the workspace goes through the helpers here so the
//! tolerance policy lives in one place.
//!
//! The policy is a standard mixed absolute/relative test:
//! `|a - b| <= EPS_ABS + EPS_REL * max(|a|, |b|)`.

// The checked and saturating conversions below are the sanctioned spelling
// of a lossy cast (L010); their bodies are the casts themselves.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

/// Absolute comparison tolerance.
///
/// Chosen so that workloads/times on the order of `1e-3 ..= 1e6` (the ranges
/// exercised by the paper's experiments) compare robustly.
pub const EPS_ABS: f64 = 1e-9;

/// Relative comparison tolerance (a few hundred ulps at scale 1.0).
pub const EPS_REL: f64 = 1e-12;

/// Returns `true` if `a` and `b` are equal up to the workspace tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    if a == b {
        return true; // handles infinities of the same sign
    }
    if a.is_infinite() || b.is_infinite() {
        return false; // an infinity is close only to itself
    }
    let diff = (a - b).abs();
    diff <= EPS_ABS + EPS_REL * a.abs().max(b.abs())
}

/// Returns `true` if `a >= b` up to the workspace tolerance.
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    a >= b || approx_eq(a, b)
}

/// Returns `true` if `a <= b` up to the workspace tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b || approx_eq(a, b)
}

/// Returns `true` if `a` is zero up to the absolute tolerance.
#[inline]
pub fn approx_zero(a: f64) -> bool {
    a.abs() <= EPS_ABS
}

/// Converts `x` to `u64` with Rust's `as`-cast semantics made explicit:
/// truncation toward zero, saturation at the type bounds, NaN → 0.
///
/// This is the sanctioned spelling of `x as u64` on a float quantity
/// (lint rule L010): the call site documents that truncation/saturation is
/// intended, and the frozen `derive_seed` formula keeps its exact bit
/// pattern by delegating here.
#[inline]
pub fn f64_to_u64_saturating(x: f64) -> u64 {
    x as u64
}

/// Checked `f64 → u64`: `Some(x as u64)` (truncating toward zero) only when
/// `x` is finite, non-negative, and below `2^64`; `None` otherwise.
///
/// Use this when an out-of-range value indicates a logic error upstream —
/// unlike [`f64_to_u64_saturating`], nothing is silently clamped.
#[inline]
pub fn checked_u64_from_f64(x: f64) -> Option<u64> {
    // `u64::MAX as f64` rounds up to exactly 2^64, so `<` is the right
    // exclusive bound for every representable in-range value.
    if x.is_finite() && x >= 0.0 && x < u64::MAX as f64 {
        Some(x as u64)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_equality() {
        assert!(approx_eq(1.0, 1.0));
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn near_equality_within_tolerance() {
        assert!(approx_eq(1.0, 1.0 + 1e-13));
        assert!(approx_eq(1e6, 1e6 + 1e-7));
        assert!(!approx_eq(1.0, 1.0 + 1e-6));
    }

    #[test]
    fn absolute_floor_near_zero() {
        assert!(approx_eq(0.0, 1e-10));
        assert!(!approx_eq(0.0, 1e-8));
    }

    #[test]
    fn ordering_helpers() {
        assert!(approx_ge(1.0, 1.0 + 1e-13));
        assert!(approx_ge(2.0, 1.0));
        assert!(!approx_ge(1.0, 2.0));
        assert!(approx_le(1.0 + 1e-13, 1.0));
        assert!(approx_le(1.0, 2.0));
        assert!(!approx_le(2.0, 1.0));
    }

    #[test]
    fn zero_test() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(-1e-12));
        assert!(!approx_zero(1e-3));
    }

    #[test]
    fn infinities_are_not_close_to_finite() {
        assert!(!approx_eq(f64::INFINITY, 1e300));
        assert!(approx_ge(f64::INFINITY, 1e300));
        assert!(!approx_le(f64::INFINITY, 1e300));
    }

    #[test]
    fn nan_is_never_equal() {
        assert!(!approx_eq(f64::NAN, f64::NAN));
        assert!(!approx_ge(f64::NAN, 0.0));
        assert!(!approx_le(f64::NAN, 0.0));
    }
}
