//! Secondary jobs.
//!
//! A job `T_i` in the paper's model (§II-A) is a tuple `(p_i, r_i, d_i, v_i)`:
//! workload, release time, firm deadline and value. Workload is measured in
//! capacity-seconds: executing the job for wall time `[t1, t2]` on a processor
//! with capacity `c(t)` performs `∫ c(τ)dτ` units of workload.

use crate::error::CoreError;
use crate::time::{Duration, Time};

/// Identifier of a job within one instance. Dense, starting at 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl JobId {
    /// The raw index.
    #[inline]
    // Ids are dense indices into in-memory job tables, so they fit a usize.
    #[allow(clippy::cast_possible_truncation)]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// A secondary job with firm deadline.
///
/// Invariants (enforced by [`Job::new`] / [`JobBuilder`]):
/// `workload > 0`, `value >= 0`, `0 <= release < deadline < ∞`.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Identifier, unique within a [`crate::JobSet`].
    pub id: JobId,
    /// Release time `r_i`: the job is unknown to online schedulers before it.
    pub release: Time,
    /// Firm deadline `d_i`: completing after it yields zero value.
    pub deadline: Time,
    /// Workload `p_i` in capacity-seconds.
    pub workload: f64,
    /// Value `v_i` obtained iff the job completes by its deadline.
    pub value: f64,
}

impl Job {
    /// Creates a validated job.
    pub fn new(
        id: JobId,
        release: Time,
        deadline: Time,
        workload: f64,
        value: f64,
    ) -> Result<Self, CoreError> {
        // NaN guard: the negated comparison also rejects NaN.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(workload > 0.0) || !workload.is_finite() {
            return Err(CoreError::NonPositiveWorkload { workload });
        }
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        // lint: allow(L001) — exact sign check; !(x >= 0) also rejects NaN
        if !(value >= 0.0) || !value.is_finite() {
            return Err(CoreError::NegativeValue { value });
        }
        if release.as_f64() < 0.0 {
            return Err(CoreError::NegativeRelease {
                release: release.as_f64(),
            });
        }
        if !deadline.is_finite() {
            return Err(CoreError::NonFiniteDeadline);
        }
        if deadline <= release {
            return Err(CoreError::DeadlineNotAfterRelease {
                release: release.as_f64(),
                deadline: deadline.as_f64(),
            });
        }
        Ok(Job {
            id,
            release,
            deadline,
            workload,
            value,
        })
    }

    /// Value density `v_i / p_i` (Definition 3).
    #[inline]
    pub fn value_density(&self) -> f64 {
        self.value / self.workload
    }

    /// Relative deadline `d_i - r_i`.
    #[inline]
    pub fn relative_deadline(&self) -> Duration {
        self.deadline - self.release
    }

    /// Individual admissibility (Definition 4): the job can always complete
    /// by its deadline under the worst-case capacity `c_lo`, i.e.
    /// `d_i - r_i >= p_i / c_lo`.
    #[inline]
    pub fn individually_admissible(&self, c_lo: f64) -> bool {
        debug_assert!(c_lo > 0.0);
        crate::numeric::approx_ge(self.relative_deadline().as_f64(), self.workload / c_lo)
    }

    /// Laxity at time `t` given remaining workload and an assumed constant
    /// future capacity `c` (Definition 2 generalised; Definition 5 with
    /// `c = c_lo` is the *conservative laxity*).
    #[inline]
    pub fn laxity_with(&self, t: Time, remaining_workload: f64, c: f64) -> Duration {
        debug_assert!(c > 0.0);
        (self.deadline - t) - Duration::new(remaining_workload / c)
    }
}

/// Fluent builder for [`Job`], convenient in tests and generators.
///
/// ```
/// use cloudsched_core::{JobBuilder, JobId};
/// let job = JobBuilder::new(JobId(0))
///     .release(1.0)
///     .deadline(5.0)
///     .workload(2.0)
///     .value(3.0)
///     .build()
///     .unwrap();
/// assert_eq!(job.value_density(), 1.5);
/// ```
#[derive(Debug, Clone)]
pub struct JobBuilder {
    id: JobId,
    release: f64,
    deadline: f64,
    workload: f64,
    value: f64,
}

impl JobBuilder {
    /// Starts a builder; defaults: release 0, deadline 1, workload 1, value 1.
    pub fn new(id: JobId) -> Self {
        JobBuilder {
            id,
            release: 0.0,
            deadline: 1.0,
            workload: 1.0,
            value: 1.0,
        }
    }

    /// Sets the release time (seconds).
    pub fn release(mut self, r: f64) -> Self {
        self.release = r;
        self
    }

    /// Sets the absolute deadline (seconds).
    pub fn deadline(mut self, d: f64) -> Self {
        self.deadline = d;
        self
    }

    /// Sets the workload (capacity-seconds).
    pub fn workload(mut self, p: f64) -> Self {
        self.workload = p;
        self
    }

    /// Sets the value.
    pub fn value(mut self, v: f64) -> Self {
        self.value = v;
        self
    }

    /// Validates and builds the job.
    pub fn build(self) -> Result<Job, CoreError> {
        Job::new(
            self.id,
            Time::new(self.release),
            Time::new(self.deadline),
            self.workload,
            self.value,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(r: f64, d: f64, p: f64, v: f64) -> Job {
        Job::new(JobId(0), Time::new(r), Time::new(d), p, v).unwrap()
    }

    #[test]
    fn valid_job_constructs() {
        let j = job(0.0, 10.0, 4.0, 8.0);
        assert_eq!(j.value_density(), 2.0);
        assert_eq!(j.relative_deadline().as_f64(), 10.0);
    }

    #[test]
    fn rejects_bad_parameters() {
        assert!(matches!(
            Job::new(JobId(0), Time::new(0.0), Time::new(1.0), 0.0, 1.0),
            Err(CoreError::NonPositiveWorkload { .. })
        ));
        assert!(matches!(
            Job::new(JobId(0), Time::new(0.0), Time::new(1.0), -2.0, 1.0),
            Err(CoreError::NonPositiveWorkload { .. })
        ));
        assert!(matches!(
            Job::new(JobId(0), Time::new(0.0), Time::new(1.0), 1.0, -1.0),
            Err(CoreError::NegativeValue { .. })
        ));
        assert!(matches!(
            Job::new(JobId(0), Time::new(2.0), Time::new(2.0), 1.0, 1.0),
            Err(CoreError::DeadlineNotAfterRelease { .. })
        ));
        assert!(matches!(
            Job::new(JobId(0), Time::new(-1.0), Time::new(2.0), 1.0, 1.0),
            Err(CoreError::NegativeRelease { .. })
        ));
        assert!(matches!(
            Job::new(JobId(0), Time::new(0.0), Time::NEVER, 1.0, 1.0),
            Err(CoreError::NonFiniteDeadline)
        ));
        assert!(matches!(
            Job::new(JobId(0), Time::new(0.0), Time::new(1.0), f64::INFINITY, 1.0),
            Err(CoreError::NonPositiveWorkload { .. })
        ));
    }

    #[test]
    fn zero_value_is_allowed() {
        // Jobs of zero value are legal (they just never help the objective).
        let j = job(0.0, 1.0, 1.0, 0.0);
        assert_eq!(j.value_density(), 0.0);
    }

    #[test]
    fn admissibility_matches_definition_4() {
        // d - r = 4, p = 2 => admissible iff p / c_lo <= 4 iff c_lo >= 0.5.
        let j = job(1.0, 5.0, 2.0, 1.0);
        assert!(j.individually_admissible(0.5));
        assert!(j.individually_admissible(1.0));
        assert!(!j.individually_admissible(0.4));
    }

    #[test]
    fn admissibility_boundary_uses_tolerance() {
        // Exactly zero conservative laxity (the paper's simulation setup):
        // d - r = p / c_lo precisely => admissible.
        let j = job(0.0, 2.0, 2.0, 1.0);
        assert!(j.individually_admissible(1.0));
    }

    #[test]
    fn laxity_with_constant_capacity() {
        let j = job(0.0, 10.0, 4.0, 1.0);
        // At t=2 with remaining workload 4 and c=1: laxity = 10 - 2 - 4 = 4.
        assert_eq!(j.laxity_with(Time::new(2.0), 4.0, 1.0).as_f64(), 4.0);
        // With c=2 the remaining processing time halves: 10 - 2 - 2 = 6.
        assert_eq!(j.laxity_with(Time::new(2.0), 4.0, 2.0).as_f64(), 6.0);
        // Late job => negative laxity.
        assert!(j.laxity_with(Time::new(9.0), 4.0, 1.0).is_negative());
    }

    #[test]
    fn builder_defaults_and_overrides() {
        let j = JobBuilder::new(JobId(7)).build().unwrap();
        assert_eq!(j.id, JobId(7));
        assert_eq!(j.workload, 1.0);
        let j = JobBuilder::new(JobId(1))
            .release(2.0)
            .deadline(8.0)
            .workload(3.0)
            .value(6.0)
            .build()
            .unwrap();
        assert_eq!(j.relative_deadline().as_f64(), 6.0);
        assert_eq!(j.value_density(), 2.0);
    }

    #[test]
    fn job_id_display_and_index() {
        assert_eq!(JobId(3).to_string(), "T3");
        assert_eq!(JobId(3).index(), 3);
    }
}
