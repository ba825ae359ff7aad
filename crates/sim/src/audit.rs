//! Post-run verification of model invariants.
//!
//! Given a recorded schedule and outcome, the audit re-derives everything from
//! first principles (§II-A) and checks:
//!
//! 1. slices are time-ordered and non-overlapping — one job at a time;
//! 2. no job executes outside its `[release, deadline]` window;
//! 3. executed workload per job (exact capacity integral over its slices)
//!    equals its total workload for completed jobs, and is strictly less for
//!    missed jobs;
//! 4. completion instants respect deadlines;
//! 5. the reported value equals the sum of completed jobs' values.
//!
//! The audit is independent of the kernel's internal bookkeeping: it uses
//! only the schedule, the job set and the capacity profile, so a kernel bug
//! that corrupted progress accounting would be caught here.

use crate::context::{Decision, SimContext};
use crate::engine::{simulate, RunOptions};
use crate::report::RunReport;
use crate::scheduler::Scheduler;
use cloudsched_capacity::{CapacityProfile, PiecewiseConstant, StretchMap};
use cloudsched_core::{approx_eq, approx_le, JobId, JobOutcome, JobSet, Time};

/// A list of human-readable invariant violations (empty = clean).
pub type AuditErrors = Vec<String>;

/// Audits a run report against the model. Requires the report to carry a
/// recorded schedule ([`crate::RunOptions::record_schedule`]).
pub fn audit_report<P: CapacityProfile>(
    jobs: &JobSet,
    capacity: &P,
    report: &RunReport,
) -> Result<(), AuditErrors> {
    let mut errors = AuditErrors::new();
    let schedule = match &report.schedule {
        Some(s) => s,
        None => {
            return Err(vec![
                "audit requires a recorded schedule (RunOptions::record_schedule)".into(),
            ])
        }
    };

    // 1. Ordering / disjointness.
    let slices = schedule.slices();
    for w in slices.windows(2) {
        if w[1].start < w[0].end && !w[1].start.approx_eq(w[0].end) {
            errors.push(format!(
                "slices overlap: {} ends {} but {} starts {}",
                w[0].job, w[0].end, w[1].job, w[1].start
            ));
        }
    }

    // 2. Execution windows.
    for s in slices {
        let job = jobs.get(s.job);
        if s.start < job.release && !s.start.approx_eq(job.release) {
            errors.push(format!(
                "{} executes at {} before release {}",
                s.job, s.start, job.release
            ));
        }
        if s.end > job.deadline && !s.end.approx_eq(job.deadline) {
            errors.push(format!(
                "{} executes until {} after deadline {}",
                s.job, s.end, job.deadline
            ));
        }
    }

    // 3. Workload accounting per job, via exact integration.
    for job in jobs.iter() {
        let executed: f64 = schedule
            .slices_of(job.id)
            .map(|s| capacity.integrate(s.start, s.end))
            .sum();
        match report.outcome.get(job.id) {
            JobOutcome::Completed { at } => {
                if !approx_eq(executed, job.workload) {
                    errors.push(format!(
                        "{} completed but executed {executed} of workload {}",
                        job.id, job.workload
                    ));
                }
                if at > job.deadline && !at.approx_eq(job.deadline) {
                    errors.push(format!(
                        "{} reported completed at {} after deadline {}",
                        job.id, at, job.deadline
                    ));
                }
            }
            JobOutcome::Missed { remaining_workload } => {
                if executed >= job.workload && !approx_eq(executed, job.workload) {
                    errors.push(format!(
                        "{} missed but executed {executed} >= workload {}",
                        job.id, job.workload
                    ));
                }
                if !approx_eq(executed + remaining_workload, job.workload) {
                    errors.push(format!(
                        "{} missed: executed {executed} + remaining {remaining_workload} != workload {}",
                        job.id, job.workload
                    ));
                }
            }
            JobOutcome::NotReleased => {
                if executed > 0.0 {
                    errors.push(format!("{} never released but executed {executed}", job.id));
                }
            }
        }
    }

    // 5. Value consistency.
    let expected_value: f64 = report
        .outcome
        .completed()
        .map(|id| jobs.get(id).value)
        .sum();
    if !approx_eq(expected_value, report.value) {
        errors.push(format!(
            "reported value {} != sum of completed values {expected_value}",
            report.value
        ));
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

// ---------------------------------------------------------------------------
// Theorem-level certification
// ---------------------------------------------------------------------------

/// Outcome of checking one of the paper's theorems against a concrete
/// instance.
///
/// Distinguishing [`Certificate::Inapplicable`] from
/// [`Certificate::Violated`] matters: a theorem whose hypothesis fails tells
/// you nothing, while a hypothesis that holds with a failed conclusion is a
/// genuine bug in the implementation (or a counterexample to the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The hypothesis holds and the conclusion was verified.
    Certified {
        /// What was established, in human-readable form.
        detail: String,
    },
    /// The instance does not satisfy the theorem's hypothesis.
    Inapplicable {
        /// Which precondition failed and where.
        reason: String,
    },
    /// The hypothesis holds but the conclusion failed.
    Violated {
        /// The concrete violations.
        errors: Vec<String>,
    },
}

impl Certificate {
    /// Did the conclusion verify?
    pub fn is_certified(&self) -> bool {
        matches!(self, Certificate::Certified { .. })
    }

    /// Did the conclusion fail despite the hypothesis holding?
    pub fn is_violated(&self) -> bool {
        matches!(self, Certificate::Violated { .. })
    }
}

impl std::fmt::Display for Certificate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Certificate::Certified { detail } => write!(f, "certified: {detail}"),
            Certificate::Inapplicable { reason } => write!(f, "inapplicable: {reason}"),
            Certificate::Violated { errors } => {
                // Cap the rendering: a violated certificate over a large
                // instance can carry thousands of per-job errors.
                const SHOWN: usize = 8;
                writeln!(f, "VIOLATED ({} error(s)):", errors.len())?;
                for e in errors.iter().take(SHOWN) {
                    writeln!(f, "  - {e}")?;
                }
                if errors.len() > SHOWN {
                    writeln!(f, "  … and {} more", errors.len() - SHOWN)?;
                }
                Ok(())
            }
        }
    }
}

/// A minimal preemptive EDF used internally by the certifier.
///
/// `cloudsched-sched` depends on this crate, so the certifier cannot use its
/// `Edf`; this private copy keeps the dependency graph acyclic and doubles
/// as an independent implementation — a bug common to both is less likely.
struct CertEdf {
    ready: Vec<(Time, JobId)>,
}

impl CertEdf {
    fn new() -> Self {
        CertEdf { ready: Vec::new() }
    }

    fn pop_earliest(&mut self) -> Decision {
        if self.ready.is_empty() {
            return Decision::Idle;
        }
        let mut best = 0;
        for i in 1..self.ready.len() {
            if self.ready[i] < self.ready[best] {
                best = i;
            }
        }
        Decision::Run(self.ready.swap_remove(best).1)
    }
}

impl Scheduler for CertEdf {
    fn name(&self) -> String {
        "certifier-EDF".into()
    }

    fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        let d_new = ctx.job(job).deadline;
        match ctx.running() {
            None => Decision::Run(job),
            Some(cur) => {
                let d_cur = ctx.job(cur).deadline;
                if (d_new, job) < (d_cur, cur) {
                    self.ready.push((d_cur, cur));
                    Decision::Run(job)
                } else {
                    self.ready.push((d_new, job));
                    Decision::Continue
                }
            }
        }
    }

    fn on_completion(&mut self, ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
        if ctx.running().is_some() {
            return Decision::Continue;
        }
        self.pop_earliest()
    }

    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.ready.retain(|&(_, j)| j != job);
        if ctx.running().is_some() {
            Decision::Continue
        } else {
            self.pop_earliest()
        }
    }
}

/// Certifies Theorem 2: *on an underloaded system, EDF completes every job*.
///
/// The hypothesis ("underloaded", Definition 3: some schedule completes all
/// jobs) is checked by the demand-bound criterion, which is exact on a
/// single preemptive processor: for every release `r_i` and deadline `d_j`,
/// the total workload of jobs whose whole window lies inside `[r_i, d_j]`
/// must not exceed `∫_{r_i}^{d_j} c`. This is independent of any EDF
/// simulation, so the conclusion check (simulate EDF, demand zero misses,
/// audit the schedule) is not circular.
pub fn certify_underloaded_edf<P: CapacityProfile>(jobs: &JobSet, capacity: &P) -> Certificate {
    if jobs.is_empty() {
        return Certificate::Certified {
            detail: "vacuously underloaded: no jobs".into(),
        };
    }
    // Hypothesis: demand ≤ supply on every release–deadline window.
    let releases: Vec<Time> = jobs.iter().map(|j| j.release).collect();
    let deadlines: Vec<Time> = jobs.iter().map(|j| j.deadline).collect();
    let mut windows = 0usize;
    for &r in &releases {
        for &d in &deadlines {
            if d <= r {
                continue;
            }
            windows += 1;
            let demand: f64 = jobs
                .iter()
                .filter(|j| j.release >= r && j.deadline <= d)
                .map(|j| j.workload)
                .sum();
            let supply = capacity.integrate(r, d);
            if !approx_le(demand, supply) {
                return Certificate::Inapplicable {
                    reason: format!(
                        "not underloaded: window [{r}, {d}] demands {demand} \
                         but supplies {supply}"
                    ),
                };
            }
        }
    }
    // Conclusion: EDF completes everything, with an audit-clean schedule.
    let report = simulate(jobs, capacity, &mut CertEdf::new(), RunOptions::default());
    let mut errors = Vec::new();
    for job in jobs.iter() {
        if let JobOutcome::Missed { remaining_workload } = report.outcome.get(job.id) {
            errors.push(format!(
                "{} missed its deadline {} with {remaining_workload} workload left \
                 on an underloaded instance",
                job.id, job.deadline
            ));
        }
    }
    if let Err(audit) = audit_report(jobs, capacity, &report) {
        errors.extend(audit);
    }
    if errors.is_empty() {
        Certificate::Certified {
            detail: format!(
                "demand ≤ supply on all {windows} release–deadline windows and \
                 EDF completed {}/{} jobs with an audit-clean schedule",
                report.completed,
                jobs.len()
            ),
        }
    } else {
        Certificate::Violated { errors }
    }
}

/// Certifies the §III-D admissibility precondition (Definition 4): every
/// job satisfies `d − r ≥ p / c_lo`, i.e. it could finish if run alone from
/// release at the guaranteed minimum capacity.
///
/// Theorem 3's competitive bound for V-Dover assumes this of every job, so
/// the CLI surfaces it as a certifiable input property.
pub fn certify_admissibility(jobs: &JobSet, c_lo: f64) -> Certificate {
    // NaN guard: the negated comparison also rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(c_lo > 0.0) || !c_lo.is_finite() {
        return Certificate::Inapplicable {
            reason: format!("admissibility needs a positive finite c_lo, got {c_lo}"),
        };
    }
    let errors: Vec<String> = jobs
        .iter()
        .filter(|j| !j.individually_admissible(c_lo))
        .map(|j| {
            format!(
                "{} is inadmissible: window {} < workload {} / c_lo {c_lo}",
                j.id,
                (j.deadline - j.release).as_f64(),
                j.workload
            )
        })
        .collect();
    if errors.is_empty() {
        Certificate::Certified {
            detail: format!(
                "all {} jobs satisfy d − r ≥ p/c_lo at c_lo = {c_lo}",
                jobs.len()
            ),
        }
    } else {
        Certificate::Violated { errors }
    }
}

/// Certifies the §III-A stretch bijection on a concrete profile: with
/// `T(t) = (1/c_ref) ∫_0^t c`, the map must be strictly increasing, satisfy
/// its defining integral identity, and round-trip through its inverse at
/// every probe instant.
///
/// Hypothesis: the profile's rate is bounded away from zero (otherwise `T`
/// has flat spots and is not injective).
pub fn certify_stretch_roundtrip(profile: &PiecewiseConstant, probes: &[Time]) -> Certificate {
    let (min_rate, _) = profile.observed_bounds();
    // NaN guard: the negated comparison also rejects NaN.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    if !(min_rate > 0.0) {
        return Certificate::Inapplicable {
            reason: format!(
                "stretch bijection needs rates bounded away from zero, \
                 observed minimum {min_rate}"
            ),
        };
    }
    let map = StretchMap::new(profile.clone());
    let mut errors = Vec::new();
    let mut sorted: Vec<Time> = probes
        .iter()
        .copied()
        .filter(|t| *t >= Time::ZERO)
        .collect();
    sorted.sort_by(|a, b| a.as_f64().total_cmp(&b.as_f64()));
    for w in sorted.windows(2) {
        let (a, b) = (w[0], w[1]);
        if a < b && map.forward(a) >= map.forward(b) && !a.approx_eq(b) {
            errors.push(format!(
                "T not strictly increasing: T({a}) = {} ≥ T({b}) = {}",
                map.forward(a),
                map.forward(b)
            ));
        }
    }
    for &t in &sorted {
        let fwd = map.forward(t);
        let ident = map.c_ref() * fwd.as_f64();
        let integral = profile.integral_to(t);
        if !approx_eq(ident, integral) {
            errors.push(format!(
                "integral identity fails at {t}: c_ref·T(t) = {ident} \
                 but ∫_0^t c = {integral}"
            ));
        }
        let back = map.inverse(fwd);
        if !back.approx_eq(t) {
            errors.push(format!("round-trip fails: T⁻¹(T({t})) = {back}"));
        }
    }
    if errors.is_empty() {
        Certificate::Certified {
            detail: format!(
                "stretch map with c_ref = {} is a bijection on all {} probes",
                map.c_ref(),
                sorted.len()
            ),
        }
    } else {
        Certificate::Violated { errors }
    }
}

pub mod commitments {
    //! The admission-commitment gate of the streaming service.
    //!
    //! An admission journaled by the service is a *commitment*: the run
    //! promises the job a resolution. This audit proves, from the
    //! decisions and the trace alone, that no commitment was reneged —
    //! every admitted, uncorrupted job reaches a terminal event
    //! (complete, expire or abandon), and no rejected job was ever
    //! secretly scheduled. Corrupt admissions (`BestEffort` letting a
    //! flagged arrival through) are exempt: the contract covers clean
    //! work only. A `Strict` abort legitimately strands admitted jobs —
    //! such runs are *expected* to flag here, which is exactly the signal
    //! the gate exists to raise.

    use crate::service::ServiceDecision;
    use cloudsched_core::JobId;
    use cloudsched_obs::TraceEvent;
    use std::collections::BTreeSet;

    /// The gate's verdict.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct CommitmentReport {
        /// Clean admissions under audit.
        pub admitted: usize,
        /// Rejected arrivals (faults and sheds).
        pub rejected: usize,
        /// Corrupt admissions exempt from the contract (`BestEffort`).
        pub exempt: usize,
        /// Admitted, uncorrupted jobs with no terminal event: broken
        /// promises.
        pub reneged: Vec<JobId>,
        /// Rejected jobs the trace shows being scheduled anyway, and any
        /// other contract violations.
        pub violations: Vec<String>,
    }

    impl CommitmentReport {
        /// `true` when every commitment was honoured.
        pub fn ok(&self) -> bool {
            self.reneged.is_empty() && self.violations.is_empty()
        }

        /// Deterministic, fixed-format summary.
        pub fn render(&self) -> String {
            let mut out = String::from("commitment audit\n");
            out.push_str(&format!(
                "  admitted {}  rejected {}  exempt-corrupt {}\n",
                self.admitted, self.rejected, self.exempt
            ));
            if self.ok() {
                out.push_str("  verdict OK: no commitment reneged\n");
            } else {
                out.push_str(&format!(
                    "  verdict FLAGGED: {} reneged, {} violations\n",
                    self.reneged.len(),
                    self.violations.len()
                ));
                for j in &self.reneged {
                    out.push_str(&format!("  - {j}: admitted but never resolved\n"));
                }
                for v in &self.violations {
                    out.push_str(&format!("  - {v}\n"));
                }
            }
            out
        }
    }

    /// Checks every journaled admission decision against the trace.
    pub fn audit_commitments(
        decisions: &[ServiceDecision],
        events: &[TraceEvent],
    ) -> CommitmentReport {
        let mut terminal: BTreeSet<JobId> = BTreeSet::new();
        let mut scheduled: BTreeSet<JobId> = BTreeSet::new();
        for ev in events {
            match *ev {
                TraceEvent::Complete { job, .. }
                | TraceEvent::Expire { job, .. }
                | TraceEvent::Abandon { job, .. } => {
                    terminal.insert(job);
                }
                TraceEvent::Admit { job, .. }
                | TraceEvent::Resume { job, .. }
                | TraceEvent::Preempt { job, .. } => {
                    scheduled.insert(job);
                }
                _ => {}
            }
        }
        let mut report = CommitmentReport {
            admitted: 0,
            rejected: 0,
            exempt: 0,
            reneged: Vec::new(),
            violations: Vec::new(),
        };
        for d in decisions {
            if d.is_corrupt_admission() {
                report.exempt += 1;
                continue;
            }
            if d.admitted {
                report.admitted += 1;
                if !terminal.contains(&d.job) {
                    report.reneged.push(d.job);
                }
            } else {
                report.rejected += 1;
                if scheduled.contains(&d.job) {
                    report.violations.push(format!(
                        "{} was rejected ({}) but the trace shows it scheduled",
                        d.job,
                        d.reason.as_str()
                    ));
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Decision, SimContext};
    use crate::engine::{simulate, RunOptions};
    use crate::scheduler::Scheduler;
    use cloudsched_capacity::{Constant, PiecewiseConstant};
    use cloudsched_core::{JobId, Outcome, Schedule, Time};

    struct Fifo {
        ready: Vec<JobId>,
    }
    impl Scheduler for Fifo {
        fn name(&self) -> String {
            "fifo".into()
        }
        fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            self.ready.push(job);
            if ctx.running().is_none() {
                Decision::Run(self.ready.remove(0))
            } else {
                Decision::Continue
            }
        }
        fn on_completion(&mut self, _ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
            if self.ready.is_empty() {
                Decision::Idle
            } else {
                Decision::Run(self.ready.remove(0))
            }
        }
        fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            self.ready.retain(|&j| j != job);
            if ctx.running().is_none() && !self.ready.is_empty() {
                Decision::Run(self.ready.remove(0))
            } else {
                Decision::Continue
            }
        }
    }

    #[test]
    fn clean_run_passes_audit() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 4.0, 2.0, 1.0),
            (1.0, 8.0, 3.0, 2.0),
            (2.0, 3.0, 5.0, 9.0), // will miss
        ])
        .unwrap();
        let cap = PiecewiseConstant::from_durations(&[(2.0, 1.0), (2.0, 3.0)]).unwrap();
        let r = simulate(&jobs, &cap, &mut Fifo { ready: vec![] }, RunOptions::full());
        audit_report(&jobs, &cap, &r).expect("audit should pass");
    }

    #[test]
    fn audit_requires_schedule() {
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 1.0)]).unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut Fifo { ready: vec![] }, RunOptions::lean());
        let err = audit_report(&jobs, &cap, &r).unwrap_err();
        assert!(err[0].contains("record_schedule"));
    }

    #[test]
    fn audit_detects_fabricated_value() {
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 1.0)]).unwrap();
        let cap = Constant::unit();
        let mut r = simulate(&jobs, &cap, &mut Fifo { ready: vec![] }, RunOptions::full());
        r.value += 1.0;
        let errs = audit_report(&jobs, &cap, &r).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("reported value")));
    }

    #[test]
    fn audit_detects_out_of_window_execution() {
        let jobs = JobSet::from_tuples(&[(1.0, 2.0, 1.0, 1.0)]).unwrap();
        let cap = Constant::unit();
        // Forged schedule: executes before release.
        let mut sched = Schedule::new();
        sched
            .push(JobId(0), Time::new(0.0), Time::new(1.0))
            .unwrap();
        let mut outcome = Outcome::new(1);
        outcome.set(
            JobId(0),
            cloudsched_core::JobOutcome::Completed { at: Time::new(1.0) },
        );
        let r = RunReport {
            scheduler: "forged".into(),
            outcome,
            value: 1.0,
            value_fraction: 1.0,
            completed: 1,
            missed: 0,
            expired: 0,
            expired_value: 0.0,
            abandoned: 0,
            abandoned_value: 0.0,
            preemptions: 0,
            dispatches: 1,
            events: 0,
            schedule: Some(sched),
            trajectory: None,
        };
        let errs = audit_report(&jobs, &cap, &r).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("before release")));
    }

    #[test]
    fn certify_underloaded_instance() {
        // Plenty of slack everywhere: EDF must complete all three.
        let jobs = JobSet::from_tuples(&[
            (0.0, 10.0, 2.0, 1.0),
            (1.0, 12.0, 3.0, 2.0),
            (2.0, 20.0, 1.0, 1.0),
        ])
        .unwrap();
        let cap = PiecewiseConstant::from_durations(&[(5.0, 1.0), (5.0, 2.0)]).unwrap();
        let cert = certify_underloaded_edf(&jobs, &cap);
        assert!(cert.is_certified(), "{cert}");
    }

    #[test]
    fn certify_rejects_overloaded_instance() {
        // Window [0, 2] demands 4 units but supplies 2: hypothesis fails.
        let jobs = JobSet::from_tuples(&[(0.0, 2.0, 2.0, 1.0), (0.0, 2.0, 2.0, 1.0)]).unwrap();
        let cap = Constant::unit();
        match certify_underloaded_edf(&jobs, &cap) {
            Certificate::Inapplicable { reason } => {
                assert!(reason.contains("not underloaded"), "{reason}")
            }
            other => panic!("expected Inapplicable, got {other}"),
        }
    }

    #[test]
    fn certify_empty_jobset_is_vacuous() {
        let jobs = JobSet::new(vec![]).unwrap_or_else(|_| JobSet::from_tuples(&[]).unwrap());
        let cap = Constant::unit();
        assert!(certify_underloaded_edf(&jobs, &cap).is_certified());
    }

    #[test]
    fn certify_admissibility_splits_on_c_lo() {
        // d − r = 4, p = 2: admissible iff c_lo ≥ 0.5.
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 1.0)]).unwrap();
        assert!(certify_admissibility(&jobs, 1.0).is_certified());
        assert!(certify_admissibility(&jobs, 0.5).is_certified());
        assert!(certify_admissibility(&jobs, 0.4).is_violated());
        match certify_admissibility(&jobs, 0.0) {
            Certificate::Inapplicable { reason } => assert!(reason.contains("c_lo")),
            other => panic!("expected Inapplicable, got {other}"),
        }
    }

    #[test]
    fn certify_stretch_roundtrip_on_varying_profile() {
        let cap = PiecewiseConstant::from_durations(&[(1.0, 0.5), (2.0, 3.0), (1.0, 1.0)]).unwrap();
        let probes: Vec<Time> = (0..50).map(|i| Time::new(i as f64 * 0.17)).collect();
        let cert = certify_stretch_roundtrip(&cap, &probes);
        assert!(cert.is_certified(), "{cert}");
    }

    #[test]
    fn audit_detects_incomplete_execution_of_completed_job() {
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 1.0)]).unwrap();
        let cap = Constant::unit();
        let mut sched = Schedule::new();
        // Only one of the two workload units executed.
        sched
            .push(JobId(0), Time::new(0.0), Time::new(1.0))
            .unwrap();
        let mut outcome = Outcome::new(1);
        outcome.set(
            JobId(0),
            cloudsched_core::JobOutcome::Completed { at: Time::new(1.0) },
        );
        let r = RunReport {
            scheduler: "forged".into(),
            outcome,
            value: 1.0,
            value_fraction: 1.0,
            completed: 1,
            missed: 0,
            expired: 0,
            expired_value: 0.0,
            abandoned: 0,
            abandoned_value: 0.0,
            preemptions: 0,
            dispatches: 1,
            events: 0,
            schedule: Some(sched),
            trajectory: None,
        };
        let errs = audit_report(&jobs, &cap, &r).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("executed")));
    }
}
