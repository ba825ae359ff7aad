//! Run results.

use cloudsched_core::{JobSet, Outcome, Schedule};
use cloudsched_obs::MetricsSnapshot;

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
    /// Number of kernel events processed.
    pub events: usize,
    /// The full execution schedule, if recording was enabled.
    pub schedule: Option<Schedule>,
    /// The value-vs-time curve, if recording was enabled.
    pub trajectory: Option<Vec<TrajectoryPoint>>,
    /// Metrics snapshot, when the caller ran with a
    /// [`cloudsched_obs::MetricsRegistry`] sink and attached its snapshot
    /// (as `cloudsched::run_traced` does). The kernel never sets it.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunReport {
    /// Recomputes the value fraction against a job set (useful after
    /// normalising values).
    pub fn value_fraction_of(&self, jobs: &JobSet) -> f64 {
        let total = jobs.total_value();
        // lint: allow(L001) — exact zero guard before division
        if total == 0.0 {
            0.0
        } else {
            self.value / total
        }
    }

    /// Completion ratio `completed / (completed + missed)`.
    pub fn completion_ratio(&self) -> f64 {
        let n = self.completed + self.missed;
        if n == 0 {
            0.0
        } else {
            self.completed as f64 / n as f64
        }
    }

    /// Response times (completion − release) of all completed jobs, in job-id
    /// order.
    pub fn response_times(&self, jobs: &JobSet) -> Vec<f64> {
        self.outcome
            .completed()
            .map(|id| match self.outcome.get(id) {
                cloudsched_core::JobOutcome::Completed { at } => {
                    (at - jobs.get(id).release).as_f64()
                }
                _ => unreachable!("completed() yields completed jobs"),
            })
            .collect()
    }

    /// Mean response time of completed jobs (`None` if nothing completed).
    pub fn mean_response_time(&self, jobs: &JobSet) -> Option<f64> {
        let rts = self.response_times(jobs);
        if rts.is_empty() {
            None
        } else {
            Some(rts.iter().sum::<f64>() / rts.len() as f64)
        }
    }

    /// Fraction of the wall-clock span `[first release, last deadline]` the
    /// processor spent executing. Requires a recorded schedule.
    pub fn busy_fraction(&self, jobs: &JobSet) -> Option<f64> {
        let schedule = self.schedule.as_ref()?;
        let span = (jobs.last_deadline() - jobs.first_release()).as_f64();
        // lint: allow(L001) — exact degenerate-span guard
        if span <= 0.0 {
            return Some(0.0);
        }
        Some(schedule.busy_time() / span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::{JobId, JobOutcome, Time};

    #[test]
    fn derived_ratios() {
        let jobs = JobSet::from_tuples(&[(0.0, 1.0, 1.0, 4.0), (0.0, 1.0, 1.0, 6.0)]).unwrap();
        let mut outcome = Outcome::new(2);
        outcome.set(JobId(0), JobOutcome::Completed { at: Time::new(0.5) });
        outcome.set(
            JobId(1),
            JobOutcome::Missed {
                remaining_workload: 0.1,
            },
        );
        let r = RunReport {
            scheduler: "test".into(),
            outcome,
            value: 4.0,
            value_fraction: 0.4,
            completed: 1,
            missed: 1,
            expired: 1,
            expired_value: 6.0,
            abandoned: 0,
            abandoned_value: 0.0,
            preemptions: 0,
            dispatches: 1,
            events: 4,
            schedule: None,
            trajectory: None,
            metrics: None,
        };
        assert_eq!(r.completion_ratio(), 0.5);
        assert!((r.value_fraction_of(&jobs) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn response_time_and_busy_metrics() {
        use cloudsched_core::{ExecutionSlice, Schedule};
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 4.0), (2.0, 10.0, 1.0, 6.0)]).unwrap();
        let mut outcome = Outcome::new(2);
        outcome.set(JobId(0), JobOutcome::Completed { at: Time::new(1.0) });
        outcome.set(JobId(1), JobOutcome::Completed { at: Time::new(5.0) });
        let schedule = Schedule::from_slices(vec![
            ExecutionSlice::new(JobId(0), Time::new(0.0), Time::new(1.0)).unwrap(),
            ExecutionSlice::new(JobId(1), Time::new(4.0), Time::new(5.0)).unwrap(),
        ])
        .unwrap();
        let r = RunReport {
            scheduler: "test".into(),
            outcome,
            value: 10.0,
            value_fraction: 1.0,
            completed: 2,
            missed: 0,
            expired: 0,
            expired_value: 0.0,
            abandoned: 0,
            abandoned_value: 0.0,
            preemptions: 0,
            dispatches: 2,
            events: 6,
            schedule: Some(schedule),
            trajectory: None,
            metrics: None,
        };
        assert_eq!(r.response_times(&jobs), vec![1.0, 3.0]);
        assert_eq!(r.mean_response_time(&jobs), Some(2.0));
        // Busy 2 over span 10.
        assert!((r.busy_fraction(&jobs).unwrap() - 0.2).abs() < 1e-12);
        // No schedule -> no busy fraction.
        let lean = RunReport {
            schedule: None,
            ..r.clone()
        };
        assert_eq!(lean.busy_fraction(&jobs), None);
    }

    #[test]
    fn empty_run_ratios_are_zero() {
        let jobs = JobSet::new(vec![]).unwrap();
        let r = RunReport {
            scheduler: "test".into(),
            outcome: Outcome::new(0),
            value: 0.0,
            value_fraction: 0.0,
            completed: 0,
            missed: 0,
            expired: 0,
            expired_value: 0.0,
            abandoned: 0,
            abandoned_value: 0.0,
            preemptions: 0,
            dispatches: 0,
            events: 0,
            schedule: None,
            trajectory: None,
            metrics: None,
        };
        assert_eq!(r.completion_ratio(), 0.0);
        assert_eq!(r.value_fraction_of(&jobs), 0.0);
    }
}
