//! Continuous simulation time.
//!
//! [`Time`] is a newtype over `f64` representing an instant on the continuous
//! time line of the model in §II-A of the paper. It is totally ordered
//! (`f64::total_cmp` with `-0.0` and `+0.0` identified, so `==`, `<` and
//! `cmp` agree), supports `+∞` as a sentinel ("never"), and rejects NaN
//! at construction. [`Duration`] is the corresponding length type; the two are
//! kept distinct so that `Time + Time` does not type-check.

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::numeric::approx_eq;

/// An instant on the continuous simulation time line.
///
/// Invariants: never NaN. May be `+∞` (the "never happens" sentinel used for
/// event horizons) but not `-∞`.
#[derive(Clone, Copy)]
pub struct Time(f64);

/// A (possibly negative) length of simulation time.
///
/// Negative durations arise naturally as laxities of late jobs, so unlike
/// `std::time::Duration` this type is signed. Never NaN.
#[derive(Clone, Copy)]
pub struct Duration(f64);

impl Time {
    /// The time origin. Job release times are all `>= ZERO`.
    pub const ZERO: Time = Time(0.0);
    /// The "never" sentinel, later than every finite instant.
    pub const NEVER: Time = Time(f64::INFINITY);

    /// Creates a time from seconds.
    ///
    /// # Panics
    /// Panics if `t` is NaN or `-∞`.
    #[inline]
    pub fn new(t: f64) -> Self {
        assert!(!t.is_nan(), "Time cannot be NaN");
        assert!(t != f64::NEG_INFINITY, "Time cannot be -infinity"); // lint: allow(L001) — exact sentinel check
        Time(t)
    }

    /// Raw seconds since the origin.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// `true` for every value except the `NEVER` sentinel.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// Tolerance-based equality (see [`crate::numeric`]).
    #[inline]
    pub fn approx_eq(self, other: Time) -> bool {
        approx_eq(self.0, other.0)
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0.0);
    /// An unbounded duration (used for "infinite slack").
    pub const INFINITE: Duration = Duration(f64::INFINITY);

    /// Creates a duration from seconds (may be negative).
    ///
    /// # Panics
    /// Panics if `d` is NaN.
    #[inline]
    pub fn new(d: f64) -> Self {
        assert!(!d.is_nan(), "Duration cannot be NaN");
        Duration(d)
    }

    /// Raw length in seconds.
    #[inline]
    pub fn as_f64(self) -> f64 {
        self.0
    }

    /// `true` if the duration is not `±∞`.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.0.is_finite()
    }

    /// `true` if strictly negative beyond tolerance.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 < -crate::numeric::EPS_ABS
    }

    /// Tolerance-based equality.
    #[inline]
    pub fn approx_eq(self, other: Duration) -> bool {
        approx_eq(self.0, other.0)
    }

    /// The smaller of two durations.
    #[inline]
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

// ---- total order ------------------------------------------------------

/// Derives `==`, `partial_cmp` and `cmp` from one total order, so the
/// `Eq` / `Ord` contract every `BTreeMap` and heap keyed by these types
/// relies on holds. Adding `+0.0` maps `-0.0` to `+0.0` and leaves every
/// other non-NaN value alone: the two zeros compare equal, as IEEE `==`
/// has them.
macro_rules! total_order {
    ($ty:ty) => {
        impl Ord for $ty {
            #[inline]
            fn cmp(&self, other: &Self) -> Ordering {
                (self.0 + 0.0).total_cmp(&(other.0 + 0.0))
            }
        }
        impl PartialOrd for $ty {
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl PartialEq for $ty {
            #[inline]
            fn eq(&self, other: &Self) -> bool {
                self.cmp(other) == Ordering::Equal
            }
        }
        impl Eq for $ty {}
    };
}
total_order!(Time);
total_order!(Duration);

// ---- arithmetic --------------------------------------------------------

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time::new(self.0 + rhs.0)
    }
}
impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time::new(self.0 - rhs.0)
    }
}
impl Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration::new(self.0 - rhs.0)
    }
}
impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration::new(self.0 + rhs.0)
    }
}
impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}
impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration::new(self.0 - rhs.0)
    }
}
impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        *self = *self - rhs;
    }
}
impl Neg for Duration {
    type Output = Duration;
    #[inline]
    fn neg(self) -> Duration {
        Duration::new(-self.0)
    }
}
impl Mul<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: f64) -> Duration {
        Duration::new(self.0 * rhs)
    }
}
impl Div<f64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: f64) -> Duration {
        Duration::new(self.0 / rhs)
    }
}

// ---- formatting --------------------------------------------------------

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "t=never")
        } else {
            write!(f, "t={:.6}", self.0)
        }
    }
}
impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_infinite() {
            write!(f, "never")
        } else {
            write!(f, "{:.6}", self.0)
        }
    }
}
impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Δ{:.6}", self.0)
    }
}
impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl From<f64> for Time {
    #[inline]
    fn from(t: f64) -> Self {
        Time::new(t)
    }
}
impl From<f64> for Duration {
    #[inline]
    fn from(d: f64) -> Self {
        Duration::new(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let t = Time::new(2.5);
        assert_eq!(t.as_f64(), 2.5);
        assert!(t.is_finite());
        assert!(!Time::NEVER.is_finite());
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_time_rejected() {
        let _ = Time::new(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "-infinity")]
    fn negative_infinity_rejected() {
        let _ = Time::new(f64::NEG_INFINITY);
    }

    #[test]
    fn ordering_is_total_and_never_is_latest() {
        let a = Time::new(1.0);
        let b = Time::new(2.0);
        assert!(a < b);
        assert!(b < Time::NEVER);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Time::NEVER.min(a), a);
    }

    #[test]
    fn signed_zero_orders_consistently() {
        use std::cmp::Ordering::{Equal, Greater, Less};
        // `==`, `partial_cmp` and `cmp` must agree on every non-NaN value,
        // signed zeros included.
        assert_eq!(Time::new(-0.0).cmp(&Time::ZERO), Equal);
        assert_eq!((-Duration::ZERO).cmp(&Duration::ZERO), Equal);
        let times = [-1.0, -0.0, 0.0, 1e-300, 2.5, f64::INFINITY];
        for &a in &times {
            for &b in &times {
                let (x, y) = (Time::new(a), Time::new(b));
                let want = a.partial_cmp(&b).expect("no NaN in the sample");
                assert_eq!(x.cmp(&y), want, "{a} vs {b}");
                assert_eq!(x.partial_cmp(&y), Some(want), "{a} vs {b}");
                assert_eq!(x == y, want == Equal, "{a} vs {b}");
                let (u, v) = (Duration::new(a), Duration::new(b));
                assert_eq!(u.cmp(&v), want, "{a} vs {b}");
                assert_eq!(u == v, want == Equal, "{a} vs {b}");
            }
        }
        let d = Duration::new(f64::NEG_INFINITY);
        assert_eq!(d.cmp(&-Duration::ZERO), Less);
        assert_eq!(Duration::INFINITE.cmp(&d), Greater);
    }

    #[test]
    fn time_duration_arithmetic() {
        let t = Time::new(3.0);
        let d = Duration::new(1.5);
        assert_eq!((t + d).as_f64(), 4.5);
        assert_eq!((t - d).as_f64(), 1.5);
        assert_eq!((t - Time::new(1.0)).as_f64(), 2.0);
        let mut u = t;
        u += d;
        assert_eq!(u.as_f64(), 4.5);
    }

    #[test]
    fn duration_arithmetic_and_sign() {
        let d = Duration::new(-2.0);
        assert!(d.is_negative());
        assert!(!Duration::ZERO.is_negative());
        assert_eq!((-d).as_f64(), 2.0);
        assert_eq!((d * 3.0).as_f64(), -6.0);
        assert_eq!((d / 2.0).as_f64(), -1.0);
        assert_eq!((d + Duration::new(5.0)).as_f64(), 3.0);
        assert_eq!(Duration::new(1.0).max(d).as_f64(), 1.0);
        assert_eq!(Duration::new(1.0).min(d).as_f64(), -2.0);
    }

    #[test]
    fn infinite_slack_behaves() {
        let inf = Duration::INFINITE;
        assert!(!inf.is_finite());
        assert!(Duration::new(1e12) < inf);
        let t = Time::ZERO + inf;
        assert_eq!(t, Time::NEVER);
    }

    #[test]
    fn approx_helpers() {
        assert!(Time::new(1.0).approx_eq(Time::new(1.0 + 1e-13)));
        assert!(Duration::new(0.0).approx_eq(Duration::new(1e-12)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Time::new(1.25)), "1.250000");
        assert_eq!(format!("{}", Time::NEVER), "never");
        assert_eq!(format!("{:?}", Duration::new(0.5)), "Δ0.500000");
    }
}
