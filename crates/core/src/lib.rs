//! # cloudsched-core
//!
//! Core domain types for *secondary job scheduling in the cloud with deadlines*
//! (Chen, He, Wong, Lee, Tong — IPDPS 2011).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Time`] — a totally ordered instant on the continuous simulation time
//!   line (finite or `+∞`),
//! * [`Job`] — a secondary job `(r, d, p, v)` with firm deadline and value,
//! * [`JobSet`] — a released-job collection with derived quantities such as the
//!   importance ratio `k`,
//! * [`Schedule`] / [`ExecutionSlice`] — an explicit record of which job ran
//!   when, used both by offline algorithms and by the simulator's audit layer,
//! * [`Outcome`] — per-job success/failure bookkeeping,
//! * [`rng`] — vendored deterministic RNGs ([`SplitMix64`], [`Pcg32`]) so the
//!   stochastic generators build with zero external dependencies.
//!
//! The crate is dependency-free and free of unsafe code; all numeric
//! subtleties (total order on `f64`, tolerance-based comparisons) are
//! concentrated here so downstream crates can stay simple.

// L010: no lossy `as` casts in the kernel; the few deliberate ones carry a
// site-level allow that gives the reason.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(missing_docs)]

pub mod error;
pub mod job;
pub mod jobset;
pub mod numeric;
pub mod outcome;
pub mod par;
pub mod rng;
pub mod schedule;
pub mod time;

pub use error::CoreError;
pub use job::{Job, JobBuilder, JobId};
pub use jobset::JobSet;
pub use numeric::{approx_eq, approx_ge, approx_le, approx_zero, EPS_ABS, EPS_REL};
pub use outcome::{JobOutcome, Outcome};
pub use par::{default_threads, parallel_map, parallel_map_with};
pub use rng::{derive_seed, Pcg32, Rng, SplitMix64};
pub use schedule::{ExecutionSlice, Schedule};
pub use time::{Duration, Time};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::error::CoreError;
    pub use crate::job::{Job, JobBuilder, JobId};
    pub use crate::jobset::JobSet;
    pub use crate::outcome::{JobOutcome, Outcome};
    pub use crate::schedule::{ExecutionSlice, Schedule};
    pub use crate::time::{Duration, Time};
}
