//! Continuous-time Markov capacity processes.
//!
//! The paper's §IV capacity is the two-state case: `c(t) ∈ {1, 35}` with
//! exponentially distributed sojourns of mean `H/4` in each state. The
//! general builder here supports any finite state set with per-state mean
//! sojourns and uniform next-state selection (for two states this is exactly
//! the paper's process).

use crate::dist::exponential;
use cloudsched_capacity::{PiecewiseConstant, PiecewiseConstantBuilder};
use cloudsched_core::rng::Rng;
use cloudsched_core::CoreError;

/// One state of the capacity chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtmcState {
    /// Capacity while in this state.
    pub rate: f64,
    /// Mean sojourn time (exponential).
    pub mean_sojourn: f64,
}

/// A finite-state CTMC capacity generator.
#[derive(Debug, Clone)]
pub struct CtmcCapacity {
    states: Vec<CtmcState>,
    /// Declared class bounds; defaults to min/max state rate.
    c_lo: f64,
    c_hi: f64,
}

impl CtmcCapacity {
    /// Builds a chain over the given states.
    ///
    /// # Errors
    /// If fewer than one state, or any rate/sojourn is non-positive.
    pub fn new(states: Vec<CtmcState>) -> Result<Self, CoreError> {
        if states.is_empty() {
            return Err(CoreError::InvalidCapacityProfile {
                reason: "CTMC needs at least one state".into(),
            });
        }
        for (i, s) in states.iter().enumerate() {
            // NaN guard: the negated comparison also rejects NaN.
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            if !(s.rate > 0.0) || !(s.mean_sojourn > 0.0) {
                return Err(CoreError::InvalidCapacityProfile {
                    reason: format!("CTMC state {i} invalid: {s:?}"),
                });
            }
        }
        let c_lo = states.iter().map(|s| s.rate).fold(f64::INFINITY, f64::min);
        let c_hi = states.iter().map(|s| s.rate).fold(0.0f64, f64::max);
        Ok(CtmcCapacity { states, c_lo, c_hi })
    }

    /// The paper's two-state process: rates `{c_lo, c_hi}`, both with mean
    /// sojourn `mean_sojourn`.
    pub fn two_state(c_lo: f64, c_hi: f64, mean_sojourn: f64) -> Result<Self, CoreError> {
        if c_hi < c_lo {
            return Err(CoreError::InvalidCapacityProfile {
                reason: format!("two-state rates inverted: ({c_lo}, {c_hi})"),
            });
        }
        CtmcCapacity::new(vec![
            CtmcState {
                rate: c_lo,
                mean_sojourn,
            },
            CtmcState {
                rate: c_hi,
                mean_sojourn,
            },
        ])
    }

    /// Declared class bounds `(c_lo, c_hi)`.
    pub fn bounds(&self) -> (f64, f64) {
        (self.c_lo, self.c_hi)
    }

    /// Samples a trace covering `[0, horizon)`; the state holding at the
    /// horizon extends to infinity. The initial state is chosen uniformly.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        horizon: f64,
    ) -> Result<PiecewiseConstant, CoreError> {
        assert!(horizon > 0.0, "horizon must be positive");
        let mut state = rng.next_index(self.states.len());
        let mut b = PiecewiseConstantBuilder::new();
        while b.elapsed() < horizon {
            let s = self.states[state];
            let sojourn = exponential(rng, 1.0 / s.mean_sojourn);
            // Truncate the final sojourn at the horizon; the tail rate below
            // extends it to infinity anyway.
            let dur = sojourn.min(horizon - b.elapsed()).max(1e-12);
            b.push_run(s.rate, dur);
            if self.states.len() > 1 {
                // Uniform among the *other* states (for two states: toggle).
                let mut next = rng.next_index(self.states.len() - 1);
                if next >= state {
                    next += 1;
                }
                state = next;
            }
        }
        let tail = self.states[state].rate;
        b.finish(tail)?.with_declared_bounds(self.c_lo, self.c_hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::CapacityProfile;
    use cloudsched_core::rng::Pcg32;
    use cloudsched_core::Time;

    #[test]
    fn two_state_rates_only() {
        let c = CtmcCapacity::two_state(1.0, 35.0, 10.0).unwrap();
        let mut rng = Pcg32::seed_from_u64(5);
        let p = c.sample(&mut rng, 200.0).unwrap();
        for seg in p.segments() {
            assert!(seg.rate == 1.0 || seg.rate == 35.0, "rate {}", seg.rate);
        }
        assert_eq!(p.bounds(), (1.0, 35.0));
    }

    #[test]
    fn sojourn_mean_roughly_matches() {
        let c = CtmcCapacity::two_state(1.0, 2.0, 5.0).unwrap();
        let mut rng = Pcg32::seed_from_u64(6);
        // Long horizon, measure mean segment length (excluding the truncated
        // last one).
        let p = c.sample(&mut rng, 50_000.0).unwrap();
        let segs: Vec<_> = p.segments().collect();
        let mut lens = Vec::new();
        for w in segs.windows(2) {
            lens.push((w[1].start - w[0].start).as_f64());
        }
        let mean = lens.iter().sum::<f64>() / lens.len() as f64;
        assert!(
            (mean - 5.0).abs() < 0.5,
            "mean sojourn {mean} should be ~5 over {} segments",
            lens.len()
        );
    }

    #[test]
    fn alternation_in_two_state_chain() {
        let c = CtmcCapacity::two_state(1.0, 3.0, 1.0).unwrap();
        let mut rng = Pcg32::seed_from_u64(7);
        let p = c.sample(&mut rng, 100.0).unwrap();
        let segs: Vec<_> = p.segments().collect();
        for w in segs.windows(2) {
            assert_ne!(w[0].rate, w[1].rate, "adjacent segments must differ");
        }
    }

    #[test]
    fn single_state_degenerates_to_constant() {
        let c = CtmcCapacity::new(vec![CtmcState {
            rate: 2.0,
            mean_sojourn: 1.0,
        }])
        .unwrap();
        let mut rng = Pcg32::seed_from_u64(8);
        let p = c.sample(&mut rng, 10.0).unwrap();
        assert_eq!(p.rate_at(Time::new(0.0)), 2.0);
        assert_eq!(p.rate_at(Time::new(100.0)), 2.0);
        assert_eq!(p.segment_count(), 1);
    }

    #[test]
    fn validation() {
        assert!(CtmcCapacity::new(vec![]).is_err());
        assert!(CtmcCapacity::new(vec![CtmcState {
            rate: 0.0,
            mean_sojourn: 1.0
        }])
        .is_err());
        assert!(CtmcCapacity::new(vec![CtmcState {
            rate: 1.0,
            mean_sojourn: 0.0
        }])
        .is_err());
        assert!(CtmcCapacity::two_state(3.0, 1.0, 1.0).is_err());
    }

    #[test]
    fn trace_extends_past_horizon() {
        let c = CtmcCapacity::two_state(1.0, 4.0, 2.0).unwrap();
        let mut rng = Pcg32::seed_from_u64(9);
        let p = c.sample(&mut rng, 10.0).unwrap();
        // Queries far beyond the horizon are valid (tail rate).
        let r = p.rate_at(Time::new(1e6));
        assert!(r == 1.0 || r == 4.0);
    }
}
