//! Constant capacity — the classical scheduling model.

use crate::profile::CapacityProfile;
use cloudsched_core::{CoreError, Duration, Time};

/// The constant profile `c(t) = c` for all `t` (the setting of Theorem 1,
/// Dover, EDF/LLF classics). Also what the stretch transformation of §III-A
/// produces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    rate: f64,
}

impl Constant {
    /// Creates a constant profile with rate `c > 0`.
    pub fn new(rate: f64) -> Result<Self, CoreError> {
        // NaN guard: the negated comparison also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(rate > 0.0) || !rate.is_finite() {
            return Err(CoreError::InvalidCapacityProfile {
                reason: format!("constant rate must be positive and finite, got {rate}"),
            });
        }
        Ok(Constant { rate })
    }

    /// The unit-capacity profile `c(t) = 1`.
    pub fn unit() -> Self {
        Constant { rate: 1.0 }
    }

    /// The constant rate.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl CapacityProfile for Constant {
    #[inline]
    fn rate_at(&self, _t: Time) -> f64 {
        self.rate
    }

    #[inline]
    fn integrate(&self, a: Time, b: Time) -> f64 {
        debug_assert!(a <= b, "integrate requires a <= b");
        (b - a).as_f64() * self.rate
    }

    #[inline]
    fn time_to_complete(&self, from: Time, workload: f64) -> Time {
        // lint: allow(L001) — exact non-positive-workload guard
        if workload <= 0.0 {
            return from;
        }
        from + Duration::new(workload / self.rate)
    }

    #[inline]
    fn bounds(&self) -> (f64, f64) {
        (self.rate, self.rate)
    }

    #[inline]
    fn next_change_after(&self, _t: Time) -> Time {
        Time::NEVER
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_rate() {
        assert!(Constant::new(0.0).is_err());
        assert!(Constant::new(-1.0).is_err());
        assert!(Constant::new(f64::INFINITY).is_err());
        assert!(Constant::new(f64::NAN).is_err());
        assert_eq!(Constant::new(2.5).unwrap().rate(), 2.5);
        assert_eq!(Constant::unit().rate(), 1.0);
    }

    #[test]
    fn integration_is_linear() {
        let c = Constant::new(2.0).unwrap();
        assert_eq!(c.integrate(Time::new(1.0), Time::new(4.0)), 6.0);
        assert_eq!(c.integrate(Time::new(3.0), Time::new(3.0)), 0.0);
    }

    #[test]
    fn inverse_query() {
        let c = Constant::new(2.0).unwrap();
        assert_eq!(c.time_to_complete(Time::new(1.0), 6.0), Time::new(4.0));
        assert_eq!(c.time_to_complete(Time::new(1.0), 0.0), Time::new(1.0));
        assert_eq!(c.time_to_complete(Time::new(1.0), -1.0), Time::new(1.0));
    }

    #[test]
    fn bounds_and_delta() {
        let c = Constant::new(3.0).unwrap();
        assert_eq!(c.bounds(), (3.0, 3.0));
        assert_eq!(c.delta(), 1.0);
        assert_eq!(c.c_lo(), 3.0);
        assert_eq!(c.next_change_after(Time::ZERO), Time::NEVER);
    }

    #[test]
    fn trait_object_via_reference() {
        let c = Constant::unit();
        let r: &dyn CapacityProfile = &c;
        assert_eq!(r.rate_at(Time::ZERO), 1.0);
        assert_eq!(c.integrate(Time::ZERO, Time::new(2.0)), 2.0);
    }
}
