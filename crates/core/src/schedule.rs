//! Explicit schedules: who ran when.
//!
//! A [`Schedule`] is a sequence of [`ExecutionSlice`]s — half-open intervals
//! `[start, end)` during which one job executes on the (single) processor.
//! Offline algorithms produce schedules directly; the simulator records one as
//! it runs so that the audit layer can re-check every invariant after the
//! fact.

use crate::error::CoreError;
use crate::job::JobId;
use crate::time::Time;

/// One maximal period of uninterrupted execution of a single job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutionSlice {
    /// The executing job.
    pub job: JobId,
    /// Slice start (inclusive).
    pub start: Time,
    /// Slice end (exclusive).
    pub end: Time,
}

impl ExecutionSlice {
    /// Creates a slice; `start < end` is required.
    pub fn new(job: JobId, start: Time, end: Time) -> Result<Self, CoreError> {
        if end <= start {
            return Err(CoreError::InvalidSchedule {
                reason: format!("slice for {job} has end {end} <= start {start}"),
            });
        }
        Ok(ExecutionSlice { job, start, end })
    }

    /// Wall-clock length of the slice.
    #[inline]
    pub fn wall_time(&self) -> f64 {
        self.end.as_f64() - self.start.as_f64()
    }
}

/// A time-ordered, non-overlapping sequence of execution slices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    slices: Vec<ExecutionSlice>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule { slices: Vec::new() }
    }

    /// Creates a schedule from slices, validating ordering and disjointness.
    pub fn from_slices(slices: Vec<ExecutionSlice>) -> Result<Self, CoreError> {
        for w in slices.windows(2) {
            // Tolerate exact adjacency; reject genuine overlap.
            if w[1].start < w[0].end && !w[1].start.approx_eq(w[0].end) {
                return Err(CoreError::InvalidSchedule {
                    reason: format!(
                        "slices overlap: {:?} then {:?}",
                        (w[0].job, w[0].start, w[0].end),
                        (w[1].job, w[1].start, w[1].end)
                    ),
                });
            }
        }
        Ok(Schedule { slices })
    }

    /// Appends a slice at the end of the schedule.
    ///
    /// # Errors
    /// If the slice is empty/inverted or starts before the last recorded end.
    pub fn push(&mut self, job: JobId, start: Time, end: Time) -> Result<(), CoreError> {
        let slice = ExecutionSlice::new(job, start, end)?;
        if let Some(last) = self.slices.last() {
            if slice.start < last.end && !slice.start.approx_eq(last.end) {
                return Err(CoreError::InvalidSchedule {
                    reason: format!(
                        "slice for {} starting at {} overlaps previous slice ending at {}",
                        job, slice.start, last.end
                    ),
                });
            }
        }
        // Merge with previous slice if it is a seamless continuation.
        if let Some(last) = self.slices.last_mut() {
            if last.job == job && slice.start.approx_eq(last.end) {
                last.end = slice.end;
                return Ok(());
            }
        }
        self.slices.push(slice);
        Ok(())
    }

    /// The recorded slices in time order.
    #[inline]
    pub fn slices(&self) -> &[ExecutionSlice] {
        &self.slices
    }

    /// Number of slices.
    #[inline]
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// `true` if nothing was ever executed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// All slices belonging to one job, in time order.
    pub fn slices_of(&self, job: JobId) -> impl Iterator<Item = &ExecutionSlice> {
        self.slices.iter().filter(move |s| s.job == job)
    }

    /// Total wall-clock time during which `job` executes.
    pub fn wall_time_of(&self, job: JobId) -> f64 {
        self.slices_of(job).map(|s| s.wall_time()).sum()
    }

    /// Total busy wall-clock time.
    pub fn busy_time(&self) -> f64 {
        self.slices.iter().map(|s| s.wall_time()).sum()
    }

    /// Applies a strictly-increasing time map to every slice boundary
    /// (used by the stretch transformation of §III-A).
    pub fn map_time<F: Fn(Time) -> Time>(&self, f: F) -> Result<Schedule, CoreError> {
        let slices = self
            .slices
            .iter()
            .map(|s| ExecutionSlice::new(s.job, f(s.start), f(s.end)))
            .collect::<Result<Vec<_>, _>>()?;
        Schedule::from_slices(slices)
    }
}

impl std::fmt::Display for Schedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for s in &self.slices {
            writeln!(f, "[{}, {}) {}", s.start, s.end, s.job)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    #[test]
    fn slice_rejects_inverted_interval() {
        assert!(ExecutionSlice::new(JobId(0), t(2.0), t(1.0)).is_err());
        assert!(ExecutionSlice::new(JobId(0), t(1.0), t(1.0)).is_err());
        let s = ExecutionSlice::new(JobId(0), t(1.0), t(3.0)).unwrap();
        assert_eq!(s.wall_time(), 2.0);
    }

    #[test]
    fn push_enforces_time_order() {
        let mut sched = Schedule::new();
        sched.push(JobId(0), t(0.0), t(1.0)).unwrap();
        sched.push(JobId(1), t(1.0), t(2.0)).unwrap();
        // Going back in time is rejected.
        assert!(sched.push(JobId(2), t(1.5), t(3.0)).is_err());
        // Gap is fine.
        sched.push(JobId(2), t(5.0), t(6.0)).unwrap();
        assert_eq!(sched.len(), 3);
    }

    #[test]
    fn seamless_continuation_merges() {
        let mut sched = Schedule::new();
        sched.push(JobId(0), t(0.0), t(1.0)).unwrap();
        sched.push(JobId(0), t(1.0), t(2.0)).unwrap();
        assert_eq!(sched.len(), 1);
        assert_eq!(sched.slices()[0].end, t(2.0));
    }

    #[test]
    fn per_job_accounting() {
        let mut sched = Schedule::new();
        sched.push(JobId(0), t(0.0), t(1.0)).unwrap();
        sched.push(JobId(1), t(1.0), t(3.0)).unwrap();
        sched.push(JobId(0), t(3.0), t(4.0)).unwrap();
        assert_eq!(sched.wall_time_of(JobId(0)), 2.0);
        assert_eq!(sched.wall_time_of(JobId(1)), 2.0);
        assert_eq!(sched.busy_time(), 4.0);
        assert_eq!(sched.slices_of(JobId(0)).count(), 2);
    }

    #[test]
    fn from_slices_validates_overlap() {
        let a = ExecutionSlice::new(JobId(0), t(0.0), t(2.0)).unwrap();
        let b = ExecutionSlice::new(JobId(1), t(1.0), t(3.0)).unwrap();
        assert!(Schedule::from_slices(vec![a, b]).is_err());
        let c = ExecutionSlice::new(JobId(1), t(2.0), t(3.0)).unwrap();
        assert!(Schedule::from_slices(vec![a, c]).is_ok());
    }

    #[test]
    fn time_map_scales_schedule() {
        let mut sched = Schedule::new();
        sched.push(JobId(0), t(0.0), t(1.0)).unwrap();
        sched.push(JobId(1), t(2.0), t(3.0)).unwrap();
        let doubled = sched.map_time(|x| Time::new(x.as_f64() * 2.0)).unwrap();
        assert_eq!(doubled.slices()[1].start, t(4.0));
        assert_eq!(doubled.busy_time(), 4.0);
    }

    #[test]
    fn display_lists_slices() {
        let mut sched = Schedule::new();
        sched.push(JobId(0), t(0.0), t(1.0)).unwrap();
        let out = sched.to_string();
        assert!(out.contains("T0"));
    }

    #[test]
    fn empty_schedule_properties() {
        let sched = Schedule::new();
        assert!(sched.is_empty());
        assert_eq!(sched.busy_time(), 0.0);
    }
}
