//! # cloudsched-capacity
//!
//! Time-varying processor capacity, exactly as modelled in §II-A of
//! *Secondary Job Scheduling in the Cloud with Deadlines*:
//!
//! > the input capacity function belongs to
//! > `C(c_lo, c_hi) = { c(t) | c integrable, c_lo <= c(t) <= c_hi }`
//! > and the workload finished in `[t1, t2]` is `∫ c(τ) dτ`.
//!
//! The crate provides:
//!
//! * the [`CapacityProfile`] trait — rate queries, *exact* workload
//!   integration, and the inverse query "when will `w` units of workload be
//!   done" that the event-driven simulator relies on;
//! * [`Constant`] and [`PiecewiseConstant`] profiles (the latter is what all
//!   generators produce — including the paper's two-state Markov capacity);
//! * the **stretch transformation** of §III-A ([`StretchMap`]) which reduces
//!   the varying-capacity problem to the classical constant-capacity one, for
//!   jobs *and* whole schedules, in both directions;
//! * [`Instance`] — a job set paired with a capacity profile, the paper's
//!   complete input instance `I`.

// L010: no lossy `as` casts in the kernel; the few deliberate ones carry a
// site-level allow that gives the reason.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(missing_docs)]

pub mod constant;
pub mod instance;
pub mod patterns;
pub mod piecewise;
pub mod profile;
pub mod stretch;

pub use constant::Constant;
pub use instance::Instance;
pub use piecewise::{PiecewiseConstant, PiecewiseConstantBuilder, Segment};
pub use profile::CapacityProfile;
pub use stretch::StretchMap;
