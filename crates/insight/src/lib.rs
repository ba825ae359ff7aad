//! # cloudsched-insight
//!
//! Deterministic trace analytics over the typed event streams that
//! `cloudsched-sim` emits (`DESIGN.md` §13):
//!
//! * [`ledger`] — the value-loss ledger: folds a trace into a
//!   conservation-checked attribution of every unit of arrived value to
//!   realized / expired-in-queue / preempted-never-rescued / quarantined /
//!   corrupt-rejected buckets;
//! * [`timeline`] — per-job event timelines and queue-depth time series
//!   with deterministic ASCII sparklines;
//! * [`ratio`] — the empirical competitive ratio of one run against the
//!   exact (branch-and-bound) or fractional (LP) offline optimum, printed
//!   next to the paper's Theorem 3(2) guarantee.
//!
//! Everything here is a pure function from parsed trace events to values
//! and rendered text: no filesystem, no clock, no hashing iteration — the
//! same inputs produce byte-identical output on any platform and at any
//! thread count. File I/O stays at the `cli` boundary.

#![warn(missing_docs)]

pub mod ledger;
pub mod ratio;
pub mod timeline;

pub use ledger::{Bucket, LedgerEntry, LedgerReport, ValueLedger};
pub use ratio::{measure_ratio, RatioReport, EXACT_JOB_LIMIT};
pub use timeline::{job_timeline, queue_depth_series, render_job_timeline, render_queue_depths};
