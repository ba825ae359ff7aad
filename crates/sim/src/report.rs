//! Run results.

use cloudsched_core::{Outcome, Schedule};

/// One point of the cumulative value-versus-time curve (the paper's Fig. 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryPoint {
    /// Completion instant.
    pub time: f64,
    /// Total value accrued up to and including this instant.
    pub cumulative_value: f64,
}

/// Everything a simulation run produces.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Name of the scheduler that produced this run.
    pub scheduler: String,
    /// Per-job outcomes.
    pub outcome: Outcome,
    /// Total value earned (sum over completed jobs).
    pub value: f64,
    /// `value / total generated value` — the paper's Table I metric.
    pub value_fraction: f64,
    /// Number of completed jobs.
    pub completed: usize,
    /// Number of deadline misses — always `expired + abandoned`.
    pub missed: usize,
    /// Misses whose deadline passed with work left and no abandonment
    /// decision (the job simply ran out of time).
    pub expired: usize,
    /// Total value lost to passive expiry.
    pub expired_value: f64,
    /// Misses the scheduler explicitly gave up on before the deadline
    /// (`SimContext::abandon`, e.g. Dover's procedure D without a
    /// supplement queue).
    pub abandoned: usize,
    /// Total value forfeited by explicit abandonment.
    pub abandoned_value: f64,
    /// Number of preemptions (a running job displaced before finishing).
    pub preemptions: usize,
    /// Number of dispatches (context switches onto the processor).
    pub dispatches: usize,
    /// Number of kernel events processed: releases, deadlines, timers and
    /// one completion per dispatch, counted when it is delivered or
    /// superseded. Capacity markers do not count.
    pub events: usize,
    /// The full execution schedule, if recording was enabled.
    pub schedule: Option<Schedule>,
    /// The value-vs-time curve, if recording was enabled.
    pub trajectory: Option<Vec<TrajectoryPoint>>,
}
