//! Collections of jobs with derived instance-level quantities.

use crate::error::CoreError;
use crate::job::{Job, JobId};
use crate::time::Time;

/// A validated collection of jobs forming the job part of an input
/// instance `I` (§II-A).
///
/// Jobs are stored indexed by [`JobId`] (dense ids `0..n`) and the set also
/// keeps a release-ordered index for simulators. A set only grows, one
/// release-ordered job at a time ([`JobSet::push`]), so a streaming caller
/// extends it in O(1) instead of rebuilding it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobSet {
    jobs: Vec<Job>,
    /// Job ids sorted by (release, id).
    by_release: Vec<JobId>,
}

impl JobSet {
    /// Builds a job set from jobs with dense ids `0..n` (any order).
    ///
    /// # Errors
    /// [`CoreError::DuplicateJob`] / [`CoreError::UnknownJob`] if the ids are
    /// not exactly `0..n`.
    pub fn new(mut jobs: Vec<Job>) -> Result<Self, CoreError> {
        jobs.sort_by_key(|j| j.id);
        for (i, j) in jobs.iter().enumerate() {
            if j.id.index() < i {
                return Err(CoreError::DuplicateJob { id: j.id.0 });
            }
            if j.id.index() > i {
                return Err(CoreError::UnknownJob { id: i as u64 });
            }
        }
        let mut by_release: Vec<JobId> = jobs.iter().map(|j| j.id).collect();
        by_release.sort_by(|&a, &b| {
            let (ja, jb) = (&jobs[a.index()], &jobs[b.index()]);
            ja.release.cmp(&jb.release).then(a.cmp(&b))
        });
        Ok(JobSet { jobs, by_release })
    }

    /// Builds a job set from `(release, deadline, workload, value)` tuples,
    /// assigning ids in order.
    pub fn from_tuples(tuples: &[(f64, f64, f64, f64)]) -> Result<Self, CoreError> {
        let jobs = tuples
            .iter()
            .enumerate()
            .map(|(i, &(r, d, p, v))| Job::new(JobId(i as u64), Time::new(r), Time::new(d), p, v))
            .collect::<Result<Vec<_>, _>>()?;
        JobSet::new(jobs)
    }

    /// Appends the next job of a release-ordered stream in O(1) amortised.
    ///
    /// # Errors
    /// [`CoreError::UnknownJob`] if `job.id` is not the next dense id
    /// (`len()`); [`CoreError::InvalidParameter`] if `job.release` precedes
    /// the latest release already in the set. Under those two rules both
    /// the id table and the release index stay sorted by appending.
    pub fn push(&mut self, job: Job) -> Result<(), CoreError> {
        if job.id.index() != self.jobs.len() {
            return Err(CoreError::UnknownJob { id: job.id.0 });
        }
        let last = self.last_release();
        if job.release < last {
            return Err(CoreError::InvalidParameter {
                name: "release".to_string(),
                value: job.release.as_f64(),
                reason: format!(
                    "job {} precedes the latest release {} in the set",
                    job.id.0,
                    last.as_f64()
                ),
            });
        }
        self.by_release.push(job.id);
        self.jobs.push(job);
        Ok(())
    }

    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// `true` if there are no jobs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Looks a job up by id.
    #[inline]
    pub fn get(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Iterates jobs in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Iterates jobs in release order (ties broken by id).
    pub fn iter_by_release(&self) -> impl Iterator<Item = &Job> + '_ {
        self.by_release.iter().map(move |&id| self.get(id))
    }

    /// All jobs as a slice, indexed by `JobId`.
    #[inline]
    pub fn as_slice(&self) -> &[Job] {
        &self.jobs
    }

    /// Sum of all job values: the normaliser used by the paper's Table I
    /// ("we normalize the online value with the value of all jobs generated").
    pub fn total_value(&self) -> f64 {
        self.jobs.iter().map(|j| j.value).sum()
    }

    /// Sum of all workloads.
    pub fn total_workload(&self) -> f64 {
        self.jobs.iter().map(|j| j.workload).sum()
    }

    /// Earliest release time, or `Time::ZERO` for an empty set.
    pub fn first_release(&self) -> Time {
        self.by_release
            .first()
            .map(|&id| self.get(id).release)
            .unwrap_or(Time::ZERO)
    }

    /// Latest release time, or `Time::ZERO` for an empty set.
    pub fn last_release(&self) -> Time {
        self.by_release
            .last()
            .map(|&id| self.get(id).release)
            .unwrap_or(Time::ZERO)
    }

    /// Latest deadline, or `Time::ZERO` for an empty set.
    pub fn last_deadline(&self) -> Time {
        self.jobs
            .iter()
            .map(|j| j.deadline)
            .max()
            .unwrap_or(Time::ZERO)
    }

    /// Importance ratio `k_I` (Definition 3): max value density over min value
    /// density. Returns `None` for an empty set or if some job has zero value
    /// (density 0 would make the ratio infinite).
    pub fn importance_ratio(&self) -> Option<f64> {
        let mut min = f64::INFINITY;
        let mut max: f64 = 0.0;
        for j in &self.jobs {
            let rho = j.value_density();
            // lint: allow(L001) — exact sign guard
            if rho <= 0.0 {
                return None;
            }
            min = min.min(rho);
            max = max.max(rho);
        }
        if self.jobs.is_empty() {
            None
        } else {
            Some(max / min)
        }
    }

    /// `true` iff every job is individually admissible w.r.t. `c_lo`
    /// (Definition 4).
    pub fn all_individually_admissible(&self, c_lo: f64) -> bool {
        self.jobs.iter().all(|j| j.individually_admissible(c_lo))
    }
}

impl std::ops::Index<JobId> for JobSet {
    type Output = Job;
    #[inline]
    fn index(&self, id: JobId) -> &Job {
        self.get(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set() -> JobSet {
        // (r, d, p, v)
        JobSet::from_tuples(&[
            (2.0, 6.0, 2.0, 2.0), // density 1
            (0.0, 4.0, 1.0, 3.0), // density 3
            (1.0, 9.0, 4.0, 8.0), // density 2
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_lookup() {
        let s = set();
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.get(JobId(1)).value, 3.0);
        assert_eq!(s[JobId(2)].workload, 4.0);
    }

    #[test]
    fn release_order_iteration() {
        let s = set();
        let order: Vec<u64> = s.iter_by_release().map(|j| j.id.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
        assert_eq!(s.first_release(), Time::ZERO);
        assert_eq!(s.last_deadline(), Time::new(9.0));
    }

    #[test]
    fn aggregates() {
        let s = set();
        assert_eq!(s.total_value(), 13.0);
        assert_eq!(s.total_workload(), 7.0);
        assert_eq!(s.importance_ratio(), Some(3.0));
    }

    #[test]
    fn duplicate_and_missing_ids_rejected() {
        let j = |id| Job::new(JobId(id), Time::ZERO, Time::new(1.0), 1.0, 1.0).unwrap();
        assert!(matches!(
            JobSet::new(vec![j(0), j(0)]),
            Err(CoreError::DuplicateJob { id: 0 })
        ));
        assert!(matches!(
            JobSet::new(vec![j(0), j(2)]),
            Err(CoreError::UnknownJob { id: 1 })
        ));
    }

    #[test]
    fn out_of_order_ids_are_sorted() {
        let j = |id, v| Job::new(JobId(id), Time::ZERO, Time::new(1.0), 1.0, v).unwrap();
        let s = JobSet::new(vec![j(2, 30.0), j(0, 10.0), j(1, 20.0)]).unwrap();
        assert_eq!(s.get(JobId(0)).value, 10.0);
        assert_eq!(s.get(JobId(2)).value, 30.0);
    }

    #[test]
    fn empty_set_aggregates() {
        let s = JobSet::new(vec![]).unwrap();
        assert!(s.is_empty());
        assert_eq!(s.total_value(), 0.0);
        assert_eq!(s.importance_ratio(), None);
        assert_eq!(s.first_release(), Time::ZERO);
    }

    #[test]
    fn push_matches_batch_construction() {
        // (r, d, p, v), release-ordered with a tie at r = 1.
        let tuples = [
            (0.0, 4.0, 1.0, 3.0),
            (1.0, 9.0, 4.0, 8.0),
            (1.0, 5.0, 2.0, 1.0),
            (2.0, 6.0, 2.0, 2.0),
        ];
        let batch = JobSet::from_tuples(&tuples).unwrap();
        let mut grown = JobSet::new(vec![]).unwrap();
        for j in batch.iter() {
            grown.push(j.clone()).unwrap();
        }
        assert_eq!(grown, batch);
        let ids = |s: &JobSet| s.iter_by_release().map(|j| j.id.0).collect::<Vec<_>>();
        assert_eq!(ids(&grown), vec![0, 1, 2, 3]);
        assert_eq!(ids(&grown), ids(&batch));
        assert_eq!(grown.first_release(), batch.first_release());
        assert_eq!(grown.last_release(), Time::new(2.0));
        assert_eq!(grown.last_deadline(), batch.last_deadline());
        assert_eq!(grown.total_value(), batch.total_value());
    }

    #[test]
    fn push_rejects_id_gaps_and_backwards_releases() {
        let j = |id, r| Job::new(JobId(id), Time::new(r), Time::new(9.0), 1.0, 1.0).unwrap();
        let mut s = JobSet::new(vec![j(0, 2.0)]).unwrap();
        assert!(matches!(
            s.push(j(2, 3.0)),
            Err(CoreError::UnknownJob { id: 2 })
        ));
        assert!(matches!(
            s.push(j(0, 3.0)),
            Err(CoreError::UnknownJob { id: 0 })
        ));
        assert!(matches!(
            s.push(j(1, 1.0)),
            Err(CoreError::InvalidParameter { .. })
        ));
        // Rejected pushes leave the set untouched.
        assert_eq!(s.len(), 1);
        s.push(j(1, 2.0)).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn zero_value_job_voids_importance_ratio() {
        let s = JobSet::from_tuples(&[(0.0, 1.0, 1.0, 0.0), (0.0, 1.0, 1.0, 1.0)]).unwrap();
        assert_eq!(s.importance_ratio(), None);
    }

    #[test]
    fn admissibility_of_whole_set() {
        let s = set();
        // Tightest job: id 0 with d-r = 4, p = 2 => needs c_lo >= 0.5.
        assert!(s.all_individually_admissible(0.5));
        assert!(!s.all_individually_admissible(0.3));
    }
}
