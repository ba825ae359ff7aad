//! # cloudsched-sched
//!
//! Online scheduling algorithms for firm-deadline jobs under time-varying
//! capacity — the algorithmic heart of *Secondary Job Scheduling in the
//! Cloud with Deadlines*:
//!
//! * [`Edf`] — preemptive earliest-deadline-first; 1-competitive for
//!   underloaded systems even under time-varying capacity (Theorem 2);
//! * [`Llf`] — least-laxity-first with a capacity estimate (the paper notes
//!   exact LLF does not generalise because true laxity is unknowable online);
//! * [`Fifo`] — non-preemptive first-in-first-out, the naive baseline;
//! * [`Greedy`] — preemptive highest-value / highest-value-density first
//!   (the policies Locke showed collapse under overload);
//! * [`Dover`] — Koren & Shasha's optimal constant-capacity overload
//!   scheduler, parameterised by a capacity estimate `ĉ` exactly as the
//!   paper's §IV evaluation does;
//! * [`VDover`] — the paper's algorithm (procedures A–D): Dover's structure
//!   with (i) *conservative laxity* computed from the class bound `c_lo` and
//!   (ii) a *supplement queue* that rescues conservatively-abandoned jobs
//!   when the realised capacity runs high.
//!
//! All schedulers implement [`cloudsched_sim::Scheduler`] and are driven by
//! the kernel's release / completion-or-failure / timer interrupts.

// L010: no lossy `as` casts in the kernel; the few deliberate ones carry a
// site-level allow that gives the reason.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(missing_docs)]

pub mod dispatch;
pub mod dover;
pub mod edf;
pub mod factory;
pub mod fifo;
pub mod greedy;
pub mod llf;
pub mod ready;
pub mod vdover;

pub use dispatch::{DispatchPolicy, LeastLaxityFit, PowerOfTwo, RoundRobin, DISPATCH_NAMES};
pub use dover::Dover;
pub use edf::Edf;
pub use factory::{by_name, SCHEDULER_NAMES};
pub use fifo::Fifo;
pub use greedy::{Greedy, GreedyKey};
pub use llf::Llf;
pub use vdover::{VDover, VDoverConfig};
