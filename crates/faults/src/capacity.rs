//! Capacity-SLA violations: carving a below-`c_lo` dip into a physical
//! capacity trace while the *declared* class bounds keep promising the
//! original `C(c_lo, c_hi)`.
//!
//! This is the one fault that attacks the physics rather than the
//! monitoring plane: jobs genuinely run slower during the dip, Thm. 2's
//! premises genuinely fail, and the watchdog's re-estimation of the running
//! `c_lo` is the intended recovery path.

use crate::config::CapacityFaultConfig;
use cloudsched_capacity::{CapacityProfile, PiecewiseConstant, Segment};
use cloudsched_core::{CoreError, Time};

/// Rewrites `profile` so that the rate on `[dip_start, dip_end)` is
/// `dip_rate`, keeping the original declared bounds as a (now false) SLA
/// claim.
///
/// Segment boundaries outside the dip window are preserved exactly, so the
/// fault-free prefix of a dipped run is event-for-event identical to the
/// clean run.
///
/// # Errors
/// If the window is empty/backwards, `dip_rate` is not positive and finite,
/// or the rewritten profile fails validation.
pub fn inject_dip(
    profile: &PiecewiseConstant,
    dip_start: f64,
    dip_end: f64,
    dip_rate: f64,
) -> Result<PiecewiseConstant, CoreError> {
    // NaN guard: the negated comparison also rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(dip_start >= 0.0) || !(dip_end > dip_start) || !dip_rate.is_finite() || !(dip_rate > 0.0) {
        return Err(CoreError::InvalidCapacityProfile {
            reason: format!("invalid dip: [{dip_start}, {dip_end}) at rate {dip_rate}"),
        });
    }
    let (declared_lo, declared_hi) = profile.bounds();
    // Boundary set: original starts plus the dip edges, deduplicated.
    let mut starts: Vec<f64> = profile.segments().map(|s| s.start.as_f64()).collect();
    starts.push(dip_start);
    starts.push(dip_end);
    starts.sort_by(f64::total_cmp);
    starts.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
    let segments: Vec<Segment> = starts
        .into_iter()
        .map(|s| {
            let in_dip = s.total_cmp(&dip_start) != std::cmp::Ordering::Less
                && s.total_cmp(&dip_end) == std::cmp::Ordering::Less;
            Segment {
                start: Time::new(s),
                rate: if in_dip {
                    dip_rate
                } else {
                    profile.rate_at(Time::new(s))
                },
            }
        })
        .collect();
    PiecewiseConstant::new(segments)?.with_asserted_bounds(declared_lo, declared_hi)
}

/// Applies `cfg` to `profile` over `[0, horizon)`: the dip covers
/// `[dip_start_frac, dip_start_frac + dip_len_frac) · horizon` at rate
/// `dip_depth · c_lo` (declared). Returns the profile unchanged when the
/// config is inactive.
///
/// # Errors
/// Propagates [`inject_dip`] failures for degenerate configs.
pub fn apply_capacity_faults(
    profile: &PiecewiseConstant,
    cfg: &CapacityFaultConfig,
    horizon: f64,
) -> Result<PiecewiseConstant, CoreError> {
    if !cfg.active() {
        return Ok(profile.clone());
    }
    let (declared_lo, _) = profile.bounds();
    let dip_start = cfg.dip_start_frac * horizon;
    let dip_end = dip_start + cfg.dip_len_frac * horizon;
    inject_dip(profile, dip_start, dip_end, cfg.dip_depth * declared_lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> PiecewiseConstant {
        PiecewiseConstant::from_durations(&[(10.0, 1.0), (10.0, 4.0), (10.0, 1.0)])
            .unwrap()
            .with_declared_bounds(1.0, 4.0)
            .unwrap()
    }

    #[test]
    fn dip_lowers_the_rate_but_keeps_the_declared_claim() {
        let dipped = inject_dip(&base(), 12.0, 18.0, 0.4).unwrap();
        assert_eq!(
            dipped.bounds(),
            (1.0, 4.0),
            "SLA claim must survive the dip"
        );
        assert_eq!(dipped.rate_at(Time::new(11.0)), 4.0);
        assert_eq!(dipped.rate_at(Time::new(12.0)), 0.4);
        assert_eq!(dipped.rate_at(Time::new(17.9)), 0.4);
        assert_eq!(dipped.rate_at(Time::new(18.0)), 4.0);
        let (obs_lo, _) = dipped.observed_bounds();
        assert_eq!(obs_lo, 0.4);
    }

    #[test]
    fn boundaries_outside_the_dip_are_preserved() {
        let dipped = inject_dip(&base(), 12.0, 18.0, 0.4).unwrap();
        let starts: Vec<f64> = dipped.segments().map(|s| s.start.as_f64()).collect();
        assert_eq!(starts, vec![0.0, 10.0, 12.0, 18.0, 20.0]);
    }

    #[test]
    fn dip_aligned_with_existing_boundaries_does_not_duplicate_them() {
        let dipped = inject_dip(&base(), 10.0, 20.0, 0.5).unwrap();
        let starts: Vec<f64> = dipped.segments().map(|s| s.start.as_f64()).collect();
        assert_eq!(starts, vec![0.0, 10.0, 20.0]);
        assert_eq!(dipped.rate_at(Time::new(15.0)), 0.5);
    }

    #[test]
    fn inactive_config_is_identity() {
        let p = base();
        let out = apply_capacity_faults(&p, &CapacityFaultConfig::none(), 30.0).unwrap();
        assert_eq!(out, p);
    }

    #[test]
    fn config_fractions_scale_with_the_horizon() {
        let cfg = CapacityFaultConfig {
            dip_start_frac: 0.5,
            dip_len_frac: 0.1,
            dip_depth: 0.4,
        };
        let out = apply_capacity_faults(&base(), &cfg, 30.0).unwrap();
        // Dip on [15, 18) at 0.4 * declared c_lo (= 1.0).
        assert_eq!(out.rate_at(Time::new(16.0)), 0.4);
        assert_eq!(out.rate_at(Time::new(14.9)), 4.0);
        assert_eq!(out.rate_at(Time::new(18.1)), 4.0);
        assert_eq!(out.rate_at(Time::new(21.0)), 1.0);
    }

    #[test]
    fn degenerate_windows_are_rejected() {
        assert!(inject_dip(&base(), 5.0, 5.0, 0.4).is_err());
        assert!(inject_dip(&base(), 8.0, 5.0, 0.4).is_err());
        assert!(inject_dip(&base(), 5.0, 8.0, 0.0).is_err());
        assert!(inject_dip(&base(), 5.0, 8.0, f64::NAN).is_err());
    }
}
