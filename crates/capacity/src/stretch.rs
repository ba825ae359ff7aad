//! The time-stretch transformation of §III-A.
//!
//! The paper's offline insight: define `T(t) = (1/c_ref) ∫_0^t c(τ)dτ`. Under
//! `T` the varying-capacity system becomes a *constant*-capacity system with
//! rate `c_ref`, workloads and values are unchanged, and a job completes by
//! its deadline in the original system iff the stretched job completes by the
//! stretched deadline in the transformed system. `T` is a bijection between
//! schedules of the two systems, so any constant-capacity offline algorithm
//! (exact or approximate) can be applied to the varying-capacity problem.
//!
//! The paper uses `c_ref = c_lo`, and so does [`StretchMap::new`].

use crate::constant::Constant;
use crate::piecewise::PiecewiseConstant;
use crate::profile::CapacityProfile;
use cloudsched_core::{CoreError, Job, JobSet, Schedule, Time};

/// A concrete stretch transformation for one piecewise-constant profile.
#[derive(Debug, Clone)]
pub struct StretchMap {
    profile: PiecewiseConstant,
    c_ref: f64,
}

impl StretchMap {
    /// Builds the stretch map with the paper's reference rate `c_ref = c_lo`.
    ///
    /// ```
    /// use cloudsched_capacity::{PiecewiseConstant, StretchMap};
    /// use cloudsched_core::Time;
    /// // Rate 1 for 2 s then rate 3: the fast region is stretched 3×.
    /// let cap = PiecewiseConstant::from_durations(&[(2.0, 1.0), (2.0, 3.0)]).unwrap();
    /// let map = StretchMap::new(cap);
    /// assert_eq!(map.forward(Time::new(2.0)), Time::new(2.0));
    /// assert_eq!(map.forward(Time::new(4.0)), Time::new(8.0));
    /// assert_eq!(map.inverse(Time::new(8.0)), Time::new(4.0));
    /// ```
    pub fn new(profile: PiecewiseConstant) -> Self {
        let c_ref = profile.c_lo();
        StretchMap { profile, c_ref }
    }

    /// The reference (post-transformation) constant rate.
    #[inline]
    pub fn c_ref(&self) -> f64 {
        self.c_ref
    }

    /// The original (pre-transformation) profile.
    #[inline]
    pub fn profile(&self) -> &PiecewiseConstant {
        &self.profile
    }

    /// The transformed system's constant profile `c'(t') = c_ref`.
    pub fn transformed_profile(&self) -> Constant {
        Constant::new(self.c_ref).expect("invariant: a profile's c_lo is positive and finite")
    }

    /// Forward map `t' = T(t) = (1/c_ref) ∫_0^t c`.
    #[inline]
    pub fn forward(&self, t: Time) -> Time {
        Time::new(self.profile.integral_to(t) / self.c_ref)
    }

    /// Inverse map `t = T⁻¹(t')`.
    #[inline]
    pub fn inverse(&self, t_stretched: Time) -> Time {
        if !t_stretched.is_finite() {
            return Time::NEVER;
        }
        self.profile
            .inverse_integral(t_stretched.as_f64() * self.c_ref)
    }

    /// Maps a job into the transformed system: `r' = T(r)`, `d' = T(d)`,
    /// workload and value unchanged.
    pub fn stretch_job(&self, job: &Job) -> Result<Job, CoreError> {
        Job::new(
            job.id,
            self.forward(job.release),
            self.forward(job.deadline),
            job.workload,
            job.value,
        )
    }

    /// Maps a whole job set into the transformed system.
    pub fn stretch_jobs(&self, jobs: &JobSet) -> Result<JobSet, CoreError> {
        let stretched = jobs
            .iter()
            .map(|j| self.stretch_job(j))
            .collect::<Result<Vec<_>, _>>()?;
        JobSet::new(stretched)
    }

    /// Maps a schedule of the *original* system to the equivalent schedule of
    /// the transformed system (the paper's schedule bijection, forward
    /// direction). Workload executed per slice is preserved exactly.
    pub fn stretch_schedule(&self, schedule: &Schedule) -> Result<Schedule, CoreError> {
        schedule.map_time(|t| self.forward(t))
    }

    /// Maps a schedule of the *transformed* system back to the original
    /// system (the bijection, reverse direction).
    pub fn unstretch_schedule(&self, schedule: &Schedule) -> Result<Schedule, CoreError> {
        schedule.map_time(|t| self.inverse(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::{approx_eq, JobId};

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    /// rate 1 on [0,2), rate 3 on [2,4), rate 2 on [4,∞); c_lo = 1.
    fn profile() -> PiecewiseConstant {
        PiecewiseConstant::from_durations(&[(2.0, 1.0), (2.0, 3.0), (1.0, 2.0)]).unwrap()
    }

    #[test]
    fn forward_is_workload_scaled_time() {
        let m = StretchMap::new(profile());
        assert_eq!(m.c_ref(), 1.0);
        assert_eq!(m.forward(t(0.0)), t(0.0));
        assert_eq!(m.forward(t(2.0)), t(2.0)); // ∫ = 2
        assert_eq!(m.forward(t(4.0)), t(8.0)); // ∫ = 2 + 6
        assert_eq!(m.forward(t(5.0)), t(10.0)); // + 2
    }

    #[test]
    fn forward_inverse_round_trip() {
        let m = StretchMap::new(profile());
        for &x in &[0.0, 0.5, 2.0, 3.25, 4.0, 9.75] {
            let fwd = m.forward(t(x));
            assert!(approx_eq(m.inverse(fwd).as_f64(), x), "round trip at {x}");
        }
        for &y in &[0.0, 1.0, 2.5, 8.0, 20.0] {
            let inv = m.inverse(t(y));
            assert!(approx_eq(m.forward(inv).as_f64(), y), "round trip' at {y}");
        }
        assert_eq!(m.inverse(Time::NEVER), Time::NEVER);
    }

    #[test]
    fn forward_is_strictly_increasing() {
        let m = StretchMap::new(profile());
        let xs = [0.0, 0.1, 1.9, 2.0, 2.1, 3.999, 4.0, 7.0];
        for w in xs.windows(2) {
            assert!(m.forward(t(w[0])) < m.forward(t(w[1])));
        }
    }

    #[test]
    fn workload_is_preserved_between_epochs() {
        // The defining property: ∫_s^t c = c_ref * (T(t) - T(s)).
        let m = StretchMap::new(profile());
        let p = profile();
        for &(s, e) in &[(0.0, 1.0), (1.5, 2.5), (2.0, 4.0), (3.0, 6.0)] {
            let orig = p.integrate(t(s), t(e));
            let stretched = (m.forward(t(e)) - m.forward(t(s))).as_f64() * m.c_ref();
            assert!(
                approx_eq(orig, stretched),
                "({s},{e}): {orig} vs {stretched}"
            );
        }
    }

    #[test]
    fn stretch_job_maps_times_keeps_rest() {
        let m = StretchMap::new(profile());
        let j = Job::new(JobId(3), t(1.0), t(5.0), 2.5, 7.0).unwrap();
        let sj = m.stretch_job(&j).unwrap();
        assert_eq!(sj.id, JobId(3));
        assert_eq!(sj.release, m.forward(t(1.0)));
        assert_eq!(sj.deadline, m.forward(t(5.0)));
        assert_eq!(sj.workload, 2.5);
        assert_eq!(sj.value, 7.0);
    }

    #[test]
    fn feasibility_is_preserved() {
        // A job exactly schedulable in the original system maps to a job
        // exactly schedulable in the transformed system: available workload
        // in [r, d] equals c_ref * (d' - r').
        let m = StretchMap::new(profile());
        let p = profile();
        let avail = p.integrate(t(1.0), t(5.0));
        let j = Job::new(JobId(0), t(1.0), t(5.0), avail, 1.0).unwrap();
        let sj = m.stretch_job(&j).unwrap();
        let avail_stretched = (sj.deadline - sj.release).as_f64() * m.c_ref();
        assert!(approx_eq(avail, avail_stretched));
        assert!(approx_eq(sj.workload, avail_stretched));
    }

    #[test]
    fn schedule_bijection_round_trips() {
        let m = StretchMap::new(profile());
        let mut sched = Schedule::new();
        sched.push(JobId(0), t(0.0), t(1.5)).unwrap();
        sched.push(JobId(1), t(1.5), t(3.0)).unwrap();
        sched.push(JobId(0), t(4.5), t(5.0)).unwrap();
        let fwd = m.stretch_schedule(&sched).unwrap();
        // Slice workloads preserved: slice [1.5, 3.0) has ∫ = 0.5*1 + 1*3 = 3.5.
        let s1 = fwd.slices()[1];
        assert!(approx_eq(
            (s1.end - s1.start).as_f64() * m.c_ref(),
            profile().integrate(t(1.5), t(3.0))
        ));
        let back = m.unstretch_schedule(&fwd).unwrap();
        for (a, b) in sched.slices().iter().zip(back.slices()) {
            assert_eq!(a.job, b.job);
            assert!(a.start.approx_eq(b.start));
            assert!(a.end.approx_eq(b.end));
        }
    }

    #[test]
    fn stretch_jobs_maps_whole_set() {
        let m = StretchMap::new(profile());
        let js = JobSet::from_tuples(&[(0.0, 2.0, 1.0, 1.0), (2.0, 4.0, 3.0, 2.0)]).unwrap();
        let sjs = m.stretch_jobs(&js).unwrap();
        assert_eq!(sjs.len(), 2);
        assert_eq!(sjs.get(JobId(1)).release, t(2.0));
        assert_eq!(sjs.get(JobId(1)).deadline, t(8.0));
        assert_eq!(sjs.total_value(), js.total_value());
        assert_eq!(sjs.total_workload(), js.total_workload());
    }

    #[test]
    fn constant_profile_stretch_is_identity_with_cref_equal_rate() {
        let p = PiecewiseConstant::constant(2.0).unwrap();
        let m = StretchMap::new(p);
        // c_lo = 2 = rate, so T(t) = t.
        for &x in &[0.0, 1.0, 5.5] {
            assert!(approx_eq(m.forward(t(x)).as_f64(), x));
        }
    }
}
