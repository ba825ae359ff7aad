//! # cloudsched-offline
//!
//! Offline (clairvoyant) scheduling under time-varying capacity:
//!
//! * [`feasibility`] — the EDF feasibility test: a job set is preemptively
//!   schedulable on one processor iff EDF schedules it, a fact that carries
//!   over to varying capacity via the paper's §III-A stretch transformation;
//! * [`exact`] — the exact optimal offline value by branch-and-bound over
//!   feasible subsets (the problem is NP-hard [Dertouzos & Mok], so this is
//!   exponential worst-case; fine for the instance sizes where exact
//!   competitive ratios are measured);
//! * [`fractional`] — the LP relaxation solved exactly (density-greedy on
//!   the service polymatroid with max-flow reallocation): a tight,
//!   polynomial-time upper bound used to normalise large experiments;
//! * [`greedy`] — polynomial add-if-feasible approximations (by value and by
//!   value density);
//! * [`bounds`] — cheap upper bounds on the optimal value;
//! * [`reduction`] — the §III-A pipeline made executable: solve the
//!   transformed constant-capacity problem and map the answer back.

// L010: no lossy `as` casts in the kernel; the few deliberate ones carry a
// site-level allow that gives the reason.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(missing_docs)]

pub mod bounds;
pub mod exact;
pub mod feasibility;
pub mod fractional;
pub mod greedy;
pub mod reduction;

pub use exact::optimal_value;
pub use feasibility::edf_feasible;
pub use fractional::fractional_optimal;
pub use greedy::{greedy_by_density, greedy_by_value};
