//! Piecewise-constant capacity profiles.
//!
//! Every capacity process in this workspace — including the paper's two-state
//! continuous-time Markov capacity (§IV) and the primary-load-induced traces
//! of `cloudsched-cloud` — is materialised as a [`PiecewiseConstant`] profile.
//! Prefix integrals are precomputed so that workload integration and the
//! inverse "completion time" query are both `O(log n)` and *exact* (rectangle
//! areas, no quadrature).

use crate::profile::CapacityProfile;
use cloudsched_core::{CoreError, Time};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One segment of a piecewise-constant profile: rate `rate` from `start`
/// until the next segment's start (the last segment extends to `+∞`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Segment start time.
    pub start: Time,
    /// Capacity on the segment.
    pub rate: f64,
}

/// A piecewise-constant capacity profile on `[0, ∞)`.
///
/// Invariants: segment starts strictly increase beginning at `0`; every rate
/// is finite and `> 0`; the last segment's rate extends forever.
///
/// Segment lookups keep a memoized cursor (the last segment returned): the
/// kernel's queries march forward in event-time and the stretch transform
/// walks `cum` monotonically, so the common case is "same segment or the
/// next one" and resolves without a binary search. The cursor is a pure
/// performance memo — it never changes a result (a stale hint falls back to
/// the exact `partition_point` search) and is excluded from equality and
/// debug formatting.
pub struct PiecewiseConstant {
    /// Segment start times; `starts[0] == 0.0`, strictly increasing.
    starts: Vec<f64>,
    /// `rates[i]` holds on `[starts[i], starts[i+1])`.
    rates: Vec<f64>,
    /// Prefix integrals: `cum[i] = ∫_0^{starts[i]} c(τ)dτ`.
    cum: Vec<f64>,
    /// Declared class bounds `(c_lo, c_hi)`; default: observed min/max rate.
    declared: (f64, f64),
    /// Last segment index returned by a time-keyed lookup.
    seg_hint: AtomicUsize,
    /// Last segment index returned by an area-keyed (`inverse_integral`) lookup.
    inv_hint: AtomicUsize,
}

impl Clone for PiecewiseConstant {
    fn clone(&self) -> Self {
        PiecewiseConstant {
            starts: self.starts.clone(),
            rates: self.rates.clone(),
            cum: self.cum.clone(),
            declared: self.declared,
            seg_hint: AtomicUsize::new(self.seg_hint.load(Ordering::Relaxed)),
            inv_hint: AtomicUsize::new(self.inv_hint.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for PiecewiseConstant {
    fn eq(&self, other: &Self) -> bool {
        self.starts == other.starts
            && self.rates == other.rates
            && self.cum == other.cum
            && self.declared == other.declared
    }
}

impl std::fmt::Debug for PiecewiseConstant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PiecewiseConstant")
            .field("starts", &self.starts)
            .field("rates", &self.rates)
            .field("cum", &self.cum)
            .field("declared", &self.declared)
            .finish()
    }
}

impl PiecewiseConstant {
    /// Builds a profile from `(start, rate)` segments.
    ///
    /// # Errors
    /// If the list is empty, does not start at time 0, is not strictly
    /// increasing, or contains a non-positive/non-finite rate.
    pub fn new(segments: Vec<Segment>) -> Result<Self, CoreError> {
        if segments.is_empty() {
            return Err(CoreError::InvalidCapacityProfile {
                reason: "profile needs at least one segment".into(),
            });
        }
        if segments[0].start != Time::ZERO {
            return Err(CoreError::InvalidCapacityProfile {
                reason: format!("first segment must start at 0, got {}", segments[0].start),
            });
        }
        let mut starts = Vec::with_capacity(segments.len());
        let mut rates = Vec::with_capacity(segments.len());
        for (i, s) in segments.iter().enumerate() {
            // NaN guard: the negated comparison also rejects NaN.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(s.rate > 0.0) || !s.rate.is_finite() {
                return Err(CoreError::InvalidCapacityProfile {
                    reason: format!(
                        "segment {i} rate must be positive and finite, got {}",
                        s.rate
                    ),
                });
            }
            if !s.start.is_finite() {
                return Err(CoreError::InvalidCapacityProfile {
                    reason: format!("segment {i} start must be finite"),
                });
            }
            // lint: allow(L001) — exact strict-ordering validation
            if i > 0 && s.start.as_f64() <= starts[i - 1] {
                return Err(CoreError::InvalidCapacityProfile {
                    reason: format!(
                        "segment starts must strictly increase: segment {i} starts at {} after {}",
                        s.start.as_f64(),
                        starts[i - 1]
                    ),
                });
            }
            starts.push(s.start.as_f64());
            rates.push(s.rate);
        }
        let mut cum = Vec::with_capacity(starts.len());
        cum.push(0.0);
        for i in 1..starts.len() {
            let area = rates[i - 1] * (starts[i] - starts[i - 1]);
            cum.push(cum[i - 1] + area);
        }
        let lo = rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rates.iter().cloned().fold(0.0f64, f64::max);
        Ok(PiecewiseConstant {
            starts,
            rates,
            cum,
            declared: (lo, hi),
            seg_hint: AtomicUsize::new(0),
            inv_hint: AtomicUsize::new(0),
        })
    }

    /// Builds a profile from consecutive `(duration, rate)` pairs starting at
    /// time 0. The final rate extends forever.
    ///
    /// ```
    /// use cloudsched_capacity::{CapacityProfile, PiecewiseConstant};
    /// use cloudsched_core::Time;
    /// // 1 unit/s for 2 s, then 4 units/s.
    /// let c = PiecewiseConstant::from_durations(&[(2.0, 1.0), (1.0, 4.0)]).unwrap();
    /// assert_eq!(c.integrate(Time::new(0.0), Time::new(3.0)), 6.0);
    /// assert_eq!(c.time_to_complete(Time::new(0.0), 6.0), Time::new(3.0));
    /// ```
    pub fn from_durations(pairs: &[(f64, f64)]) -> Result<Self, CoreError> {
        if pairs.is_empty() {
            return Err(CoreError::InvalidCapacityProfile {
                reason: "profile needs at least one (duration, rate) pair".into(),
            });
        }
        let mut t = 0.0;
        let mut segments = Vec::with_capacity(pairs.len());
        for &(dur, rate) in pairs {
            // NaN guard: the negated comparison also rejects NaN.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(dur > 0.0) || !dur.is_finite() {
                return Err(CoreError::InvalidCapacityProfile {
                    reason: format!("segment duration must be positive and finite, got {dur}"),
                });
            }
            segments.push(Segment {
                start: Time::new(t),
                rate,
            });
            t += dur;
        }
        PiecewiseConstant::new(segments)
    }

    /// Wraps a single constant rate.
    pub fn constant(rate: f64) -> Result<Self, CoreError> {
        PiecewiseConstant::new(vec![Segment {
            start: Time::ZERO,
            rate,
        }])
    }

    /// Overrides the declared class bounds `(c_lo, c_hi)`.
    ///
    /// Useful when a stochastic generator draws from a class wider than one
    /// realised trace (e.g. a CTMC trace that happens never to visit the high
    /// state still belongs to `C(1, 35)`). Schedulers read the *declared*
    /// bounds, not the realised extremes.
    ///
    /// # Errors
    /// If the declared interval does not contain every realised rate.
    pub fn with_declared_bounds(mut self, c_lo: f64, c_hi: f64) -> Result<Self, CoreError> {
        // NaN guard: the negated comparison also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(c_lo > 0.0) || c_hi < c_lo {
            return Err(CoreError::InvalidCapacityProfile {
                reason: format!("invalid declared bounds ({c_lo}, {c_hi})"),
            });
        }
        let (lo, hi) = self.observed_bounds();
        if c_lo > lo + 1e-12 || c_hi < hi - 1e-12 {
            return Err(CoreError::InvalidCapacityProfile {
                reason: format!(
                    "declared bounds ({c_lo}, {c_hi}) do not contain observed rates ({lo}, {hi})"
                ),
            });
        }
        self.declared = (c_lo, c_hi);
        Ok(self)
    }

    /// Overrides the declared class bounds *without* the containment check
    /// of [`with_declared_bounds`](Self::with_declared_bounds): the realised
    /// trace is allowed to violate the declared `(c_lo, c_hi)`.
    ///
    /// This is the sanctioned seam for **fault injection**: a profile that
    /// *claims* class `C(c_lo, c_hi)` while its realised rate dips below
    /// `c_lo` models a broken capacity SLA (the scenario
    /// `cloudsched-faults` exercises and the degradation watchdog detects).
    /// Everything downstream of the declaration — conservative laxities,
    /// V-Dover's β — trusts the lie exactly as a real scheduler would.
    ///
    /// # Errors
    /// If the bounds are not an interval with `0 < c_lo ≤ c_hi`.
    pub fn with_asserted_bounds(mut self, c_lo: f64, c_hi: f64) -> Result<Self, CoreError> {
        // NaN guard: the negated comparison also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(c_lo > 0.0) || !c_hi.is_finite() || c_hi < c_lo {
            return Err(CoreError::InvalidCapacityProfile {
                reason: format!("invalid asserted bounds ({c_lo}, {c_hi})"),
            });
        }
        self.declared = (c_lo, c_hi);
        Ok(self)
    }

    /// Observed `(min, max)` over realised segment rates.
    pub fn observed_bounds(&self) -> (f64, f64) {
        let lo = self.rates.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = self.rates.iter().cloned().fold(0.0f64, f64::max);
        (lo, hi)
    }

    /// Number of segments.
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.starts.len()
    }

    /// The segments in time order.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.starts.iter().zip(&self.rates).map(|(&s, &r)| Segment {
            start: Time::new(s),
            rate: r,
        })
    }

    /// Index of the segment containing `t` (largest `i` with `starts[i] <= t`).
    ///
    /// Checks the memoized cursor (and its successor) before falling back to
    /// a binary search; every path reproduces `partition_point(|s| s <= t) - 1`
    /// exactly, so results are bit-identical with or without the memo.
    #[inline]
    fn seg_index(&self, t: f64) -> usize {
        debug_assert!(t >= 0.0, "profile queried before time 0");
        let n = self.starts.len();
        let h = self.seg_hint.load(Ordering::Relaxed).min(n - 1);
        let i = if self.starts[h] <= t {
            if h + 1 == n || self.starts[h + 1] > t {
                h
            } else if h + 2 == n || self.starts[h + 2] > t {
                h + 1
            } else {
                // partition_point returns the first index with starts[i] > t.
                self.starts.partition_point(|&s| s <= t).saturating_sub(1)
            }
        } else {
            self.starts.partition_point(|&s| s <= t).saturating_sub(1)
        };
        self.seg_hint.store(i, Ordering::Relaxed);
        i
    }

    /// Exact prefix integral `∫_0^t c(τ)dτ`.
    #[inline]
    pub fn integral_to(&self, t: Time) -> f64 {
        let tf = t.as_f64();
        let i = self.seg_index(tf);
        self.cum[i] + self.rates[i] * (tf - self.starts[i])
    }

    /// Inverse of [`integral_to`](Self::integral_to): the earliest `t` with
    /// `∫_0^t c = area`.
    pub fn inverse_integral(&self, area: f64) -> Time {
        // lint: allow(L001) — exact non-positive-area guard
        if area <= 0.0 {
            return Time::ZERO;
        }
        // Memoized cursor over `cum` (strictly increasing, since every
        // segment has positive rate and duration); same bit-exact contract
        // as `seg_index`: first index with cum[i] > area, minus one.
        let n = self.cum.len();
        let h = self.inv_hint.load(Ordering::Relaxed).min(n - 1);
        let i = if self.cum[h] <= area {
            if h + 1 == n || self.cum[h + 1] > area {
                h
            } else if h + 2 == n || self.cum[h + 2] > area {
                h + 1
            } else {
                self.cum.partition_point(|&c| c <= area).saturating_sub(1)
            }
        } else {
            self.cum.partition_point(|&c| c <= area).saturating_sub(1)
        };
        self.inv_hint.store(i, Ordering::Relaxed);
        Time::new(self.starts[i] + (area - self.cum[i]) / self.rates[i])
    }
}

impl CapacityProfile for PiecewiseConstant {
    #[inline]
    fn rate_at(&self, t: Time) -> f64 {
        self.rates[self.seg_index(t.as_f64())]
    }

    #[inline]
    fn integrate(&self, a: Time, b: Time) -> f64 {
        debug_assert!(a <= b, "integrate requires a <= b");
        self.integral_to(b) - self.integral_to(a)
    }

    fn time_to_complete(&self, from: Time, workload: f64) -> Time {
        // lint: allow(L001) — exact non-positive-workload guard
        if workload <= 0.0 {
            return from;
        }
        self.inverse_integral(self.integral_to(from) + workload)
    }

    #[inline]
    fn bounds(&self) -> (f64, f64) {
        self.declared
    }

    fn next_change_after(&self, t: Time) -> Time {
        let tf = t.as_f64();
        let i = self.starts.partition_point(|&s| s <= tf);
        if i < self.starts.len() {
            Time::new(self.starts[i])
        } else {
            Time::NEVER
        }
    }
}

/// Incremental builder used by trace generators: append `(rate, duration)`
/// runs and finish with an open-ended tail rate.
#[derive(Debug, Clone)]
pub struct PiecewiseConstantBuilder {
    t: f64,
    segments: Vec<Segment>,
}

impl PiecewiseConstantBuilder {
    /// Starts an empty builder at time 0.
    pub fn new() -> Self {
        PiecewiseConstantBuilder {
            t: 0.0,
            segments: Vec::new(),
        }
    }

    /// Appends a run of `rate` lasting `duration`.
    pub fn push_run(&mut self, rate: f64, duration: f64) -> &mut Self {
        // Coalesce equal-rate neighbours to keep profiles small.
        if let Some(last) = self.segments.last() {
            // lint: allow(L001) — coalesce only bit-identical rates
            if last.rate == rate {
                self.t += duration;
                return self;
            }
        }
        self.segments.push(Segment {
            start: Time::new(self.t),
            rate,
        });
        self.t += duration;
        self
    }

    /// Current end time of the accumulated runs.
    pub fn elapsed(&self) -> f64 {
        self.t
    }

    /// Finishes the profile; `tail_rate` extends from the last run to `+∞`.
    pub fn finish(mut self, tail_rate: f64) -> Result<PiecewiseConstant, CoreError> {
        let need_tail = match self.segments.last() {
            Some(last) => last.rate != tail_rate, // lint: allow(L001) — tail only skipped for bit-identical rates
            None => true,
        };
        if need_tail {
            self.segments.push(Segment {
                start: Time::new(self.t),
                rate: tail_rate,
            });
        }
        PiecewiseConstant::new(self.segments)
    }
}

impl Default for PiecewiseConstantBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::approx_eq;

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    /// rate 2 on [0,1), rate 1 on [1,3), rate 4 on [3,∞)
    fn profile() -> PiecewiseConstant {
        PiecewiseConstant::from_durations(&[(1.0, 2.0), (2.0, 1.0), (1.0, 4.0)]).unwrap()
    }

    #[test]
    fn validation_rejects_bad_inputs() {
        assert!(PiecewiseConstant::new(vec![]).is_err());
        assert!(PiecewiseConstant::new(vec![Segment {
            start: t(1.0),
            rate: 1.0
        }])
        .is_err());
        assert!(PiecewiseConstant::new(vec![
            Segment {
                start: t(0.0),
                rate: 1.0
            },
            Segment {
                start: t(0.0),
                rate: 2.0
            }
        ])
        .is_err());
        assert!(PiecewiseConstant::new(vec![Segment {
            start: t(0.0),
            rate: 0.0
        }])
        .is_err());
        assert!(PiecewiseConstant::from_durations(&[(0.0, 1.0)]).is_err());
        assert!(PiecewiseConstant::from_durations(&[]).is_err());
    }

    #[test]
    fn rate_lookup_is_right_continuous() {
        let p = profile();
        assert_eq!(p.rate_at(t(0.0)), 2.0);
        assert_eq!(p.rate_at(t(0.999)), 2.0);
        assert_eq!(p.rate_at(t(1.0)), 1.0);
        assert_eq!(p.rate_at(t(3.0)), 4.0);
        assert_eq!(p.rate_at(t(1000.0)), 4.0);
    }

    #[test]
    fn prefix_integral_and_integrate() {
        let p = profile();
        assert_eq!(p.integral_to(t(0.0)), 0.0);
        assert_eq!(p.integral_to(t(1.0)), 2.0);
        assert_eq!(p.integral_to(t(3.0)), 4.0);
        assert_eq!(p.integral_to(t(5.0)), 12.0);
        assert_eq!(p.integrate(t(0.5), t(2.0)), 1.0 + 1.0);
        assert_eq!(p.integrate(t(2.0), t(4.0)), 1.0 + 4.0);
        assert_eq!(p.integrate(t(2.0), t(2.0)), 0.0);
    }

    #[test]
    fn inverse_integral_round_trips() {
        let p = profile();
        for &x in &[0.0, 0.3, 1.0, 1.7, 2.999, 3.0, 7.25, 100.0] {
            let area = p.integral_to(t(x));
            let back = p.inverse_integral(area);
            assert!(
                approx_eq(back.as_f64(), x),
                "round trip failed at {x}: got {back}"
            );
        }
        assert_eq!(p.inverse_integral(-1.0), Time::ZERO);
    }

    #[test]
    fn time_to_complete_crosses_breakpoints() {
        let p = profile();
        // From t=0.5: 1 unit in [0.5,1) at rate 2, then 2 more on [1,3) at
        // rate 1 => workload 3 completes exactly at t=3.
        assert!(p.time_to_complete(t(0.5), 3.0).approx_eq(t(3.0)));
        // Another 2 units at rate 4 => 0.5s more.
        assert!(p.time_to_complete(t(0.5), 5.0).approx_eq(t(3.5)));
        assert_eq!(p.time_to_complete(t(2.0), 0.0), t(2.0));
    }

    #[test]
    fn next_change_after_walks_breakpoints() {
        let p = profile();
        assert_eq!(p.next_change_after(t(0.0)), t(1.0));
        assert_eq!(p.next_change_after(t(1.0)), t(3.0));
        assert_eq!(p.next_change_after(t(2.5)), t(3.0));
        assert_eq!(p.next_change_after(t(3.0)), Time::NEVER);
    }

    #[test]
    fn bounds_observed_and_declared() {
        let p = profile();
        assert_eq!(p.bounds(), (1.0, 4.0));
        assert_eq!(p.delta(), 4.0);
        let p2 = p.clone().with_declared_bounds(0.5, 10.0).unwrap();
        assert_eq!(p2.bounds(), (0.5, 10.0));
        assert_eq!(p2.observed_bounds(), (1.0, 4.0));
        // Declared bounds must contain observed rates.
        assert!(p.clone().with_declared_bounds(2.0, 10.0).is_err());
        assert!(p.clone().with_declared_bounds(0.5, 3.0).is_err());
        assert!(p.with_declared_bounds(-1.0, 3.0).is_err());
    }

    #[test]
    fn asserted_bounds_may_violate_observed_rates() {
        // Observed rates are (1, 4); an SLA claiming C(2, 10) is a lie the
        // fault-injection seam must be able to state.
        let p = profile().with_asserted_bounds(2.0, 10.0).unwrap();
        assert_eq!(p.bounds(), (2.0, 10.0));
        assert_eq!(p.observed_bounds(), (1.0, 4.0));
        assert!(profile().with_asserted_bounds(0.0, 1.0).is_err());
        assert!(profile().with_asserted_bounds(2.0, 1.0).is_err());
        assert!(profile().with_asserted_bounds(1.0, f64::INFINITY).is_err());
    }

    #[test]
    fn constant_helper() {
        let p = PiecewiseConstant::constant(3.0).unwrap();
        assert_eq!(p.segment_count(), 1);
        assert_eq!(p.integrate(t(1.0), t(4.0)), 9.0);
        assert_eq!(p.next_change_after(t(0.0)), Time::NEVER);
    }

    #[test]
    fn builder_coalesces_and_finishes() {
        let mut b = PiecewiseConstantBuilder::new();
        b.push_run(1.0, 2.0).push_run(1.0, 3.0).push_run(5.0, 1.0);
        assert_eq!(b.elapsed(), 6.0);
        let p = b.finish(1.0).unwrap();
        // Segments: rate 1 on [0,5), 5 on [5,6), 1 on [6,∞).
        assert_eq!(p.segment_count(), 3);
        assert_eq!(p.rate_at(t(4.9)), 1.0);
        assert_eq!(p.rate_at(t(5.5)), 5.0);
        assert_eq!(p.rate_at(t(6.5)), 1.0);
        // Tail equal to last run's rate adds no segment.
        let mut b = PiecewiseConstantBuilder::new();
        b.push_run(2.0, 1.0);
        let p = b.finish(2.0).unwrap();
        assert_eq!(p.segment_count(), 1);
        // Empty builder still yields a valid constant profile.
        let p = PiecewiseConstantBuilder::new().finish(3.0).unwrap();
        assert_eq!(p.rate_at(t(0.0)), 3.0);
    }

    #[test]
    fn segments_iterator_round_trips() {
        let p = profile();
        let segs: Vec<Segment> = p.segments().collect();
        let q = PiecewiseConstant::new(segs).unwrap();
        assert_eq!(p, q);
    }

    /// The memoized cursor must never change an answer: random
    /// back-and-forth queries (worst case for a stale hint) agree with a
    /// plain binary search over the same segment table.
    #[test]
    fn memoized_cursor_matches_binary_search() {
        let pairs: Vec<(f64, f64)> = (0..257)
            .map(|i| (0.25 + (i % 7) as f64 * 0.125, 1.0 + (i % 5) as f64))
            .collect();
        let p = PiecewiseConstant::from_durations(&pairs).unwrap();
        let segs: Vec<Segment> = p.segments().collect();
        let starts: Vec<f64> = segs.iter().map(|s| s.start.as_f64()).collect();
        let mut cum = vec![0.0];
        for i in 1..starts.len() {
            cum.push(cum[i - 1] + segs[i - 1].rate * (starts[i] - starts[i - 1]));
        }
        let span = starts.last().unwrap() + 5.0;
        let total = p.integral_to(t(span));
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut rng = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for _ in 0..2000 {
            let q = rng() * span;
            let i = starts.partition_point(|&s| s <= q).saturating_sub(1);
            assert_eq!(p.rate_at(t(q)), segs[i].rate, "rate diverged at {q}");
            let expect = cum[i] + segs[i].rate * (q - starts[i]);
            assert_eq!(p.integral_to(t(q)), expect, "integral diverged at {q}");
            let a = rng() * total;
            let j = cum.partition_point(|&c| c <= a).saturating_sub(1);
            let expect = starts[j] + (a - cum[j]) / segs[j].rate;
            assert_eq!(
                p.inverse_integral(a),
                Time::new(expect),
                "inverse diverged at area {a}"
            );
        }
    }

    #[test]
    fn many_segments_binary_search() {
        // 10_000 alternating segments; check integral consistency.
        let pairs: Vec<(f64, f64)> = (0..10_000)
            .map(|i| (0.5, if i % 2 == 0 { 1.0 } else { 3.0 }))
            .collect();
        let p = PiecewiseConstant::from_durations(&pairs).unwrap();
        // Average rate 2 over a whole period of 1.0.
        assert!(approx_eq(p.integrate(t(0.0), t(5000.0)), 10000.0));
        let s = p.time_to_complete(t(0.0), 10000.0);
        assert!(s.approx_eq(t(5000.0)));
    }
}
