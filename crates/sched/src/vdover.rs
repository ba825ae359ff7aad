//! V-Dover — the paper's online scheduler for overloaded systems with
//! time-varying capacity (§III-D, procedures A–D).
//!
//! V-Dover is Dover's interrupt structure with two changes (§III-D end):
//!
//! 1. **conservative capacity estimation** — laxities use the class bound
//!    `c_lo` (Definition 5's *conservative laxity*), the only safe constant
//!    estimate when the future capacity is unknown but bounded below;
//! 2. **supplement jobs** — a job whose zero-conservative-laxity interrupt
//!    loses the value comparison is *parked*, not dropped: under conservative
//!    estimation it might be unfinishable, but the realised capacity may
//!    exceed `c_lo` and complete it anyway. Supplement jobs run only when no
//!    regular work exists and are revived latest-deadline-first.
//!
//! With every job individually admissible (Definition 4) V-Dover is
//! `1/((√k + √f(k,δ))² + 1)`-competitive, which is asymptotically optimal
//! (Theorem 3).

use crate::dover::{CapacityEstimate, DoverFamily, FamilyConfig, SupplementOrder};
use cloudsched_analysis::bounds::{dover_beta, optimal_beta};
use cloudsched_core::{CoreError, JobId};
use cloudsched_sim::{Decision, Scheduler, SimContext};

/// Tunable parameters of [`VDover`] (the defaults reproduce the paper).
#[derive(Debug, Clone)]
pub struct VDoverConfig {
    /// Zero-conservative-laxity value threshold `β > 1`. The paper's optimum
    /// is `β* = 1 + √(k/f(k,δ))`.
    pub beta: f64,
    /// Keep the supplement queue (disable for the ablation that degrades
    /// V-Dover back to conservative Dover).
    pub supplement: bool,
    /// Supplement revival order (paper: latest deadline first).
    pub supplement_order: SupplementOrder,
}

impl VDoverConfig {
    /// The paper's configuration for importance bound `k` and capacity
    /// variation `δ`. Falls back to Dover's `β = 1 + √k` when `δ <= 1`
    /// (constant capacity, where `f(k,δ)` is undefined).
    pub fn paper(k: f64, delta: f64) -> Self {
        let beta = if delta > 1.0 {
            optimal_beta(k, delta)
        } else {
            dover_beta(k)
        };
        VDoverConfig {
            beta,
            supplement: true,
            supplement_order: SupplementOrder::LatestDeadline,
        }
    }
}

/// The V-Dover scheduler.
#[derive(Debug, Clone)]
pub struct VDover(DoverFamily);

impl VDover {
    /// V-Dover with the paper's optimal threshold for `(k, δ)`.
    ///
    /// ```
    /// use cloudsched_capacity::PiecewiseConstant;
    /// use cloudsched_core::JobSet;
    /// use cloudsched_sched::VDover;
    /// use cloudsched_sim::{simulate, RunOptions};
    ///
    /// let jobs = JobSet::from_tuples(&[(0.0, 4.0, 4.0, 10.0), (0.0, 4.0, 4.0, 1.0)]).unwrap();
    /// let cap = PiecewiseConstant::constant(4.0).unwrap()
    ///     .with_declared_bounds(1.0, 4.0).unwrap();
    /// // Conservatively both jobs look hopeless (claxity 0 at c_lo = 1),
    /// // but the realised capacity completes both — thanks to Qsupp.
    /// let report = simulate(&jobs, &cap, &mut VDover::new(10.0, 4.0), RunOptions::lean());
    /// assert_eq!(report.completed, 2);
    /// ```
    pub fn new(k: f64, delta: f64) -> Self {
        VDover::from_config(VDoverConfig::paper(k, delta))
    }

    /// V-Dover from an explicit configuration.
    pub fn from_config(cfg: VDoverConfig) -> Self {
        VDover(DoverFamily::from_config(FamilyConfig {
            name: if cfg.supplement {
                "V-Dover".into()
            } else {
                "V-Dover(no-supp)".into()
            },
            estimate: CapacityEstimate::ClassLow,
            beta: cfg.beta,
            supplement: cfg.supplement,
            supplement_order: cfg.supplement_order,
        }))
    }

    /// Access to the underlying engine.
    pub fn family(&self) -> &DoverFamily {
        &self.0
    }
}

impl Scheduler for VDover {
    fn name(&self) -> String {
        self.0.name()
    }
    fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.0.on_release(ctx, job)
    }
    fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.0.on_completion(ctx, job)
    }
    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.0.on_deadline_miss(ctx, job)
    }
    fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        self.0.on_timer(ctx, job, token)
    }
    fn snapshot_state(&self) -> Option<String> {
        self.0.snapshot_state()
    }
    fn restore_state(&mut self, state: &str) -> Result<(), CoreError> {
        self.0.restore_state(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::PiecewiseConstant;
    use cloudsched_core::{approx_eq, JobSet};
    use cloudsched_sim::{audit::audit_report, simulate, RunOptions};

    /// Capacity class C(1, 4): rate 1 until `switch_at`, rate 4 afterwards.
    fn low_then_high(switch_at: f64) -> PiecewiseConstant {
        let p = if switch_at > 0.0 {
            PiecewiseConstant::from_durations(&[(switch_at, 1.0), (1.0, 4.0)]).unwrap()
        } else {
            PiecewiseConstant::constant(4.0).unwrap()
        };
        p.with_declared_bounds(1.0, 4.0).unwrap()
    }

    #[test]
    fn supplement_job_completes_when_capacity_rises() {
        // The V-Dover signature move. Two zero-conservative-laxity jobs
        // compete; the loser is parked as supplement. Capacity then jumps to
        // 4 so the winner finishes early and the supplement still makes it.
        let jobs = JobSet::from_tuples(&[
            (0.0, 8.0, 8.0, 10.0), // wins (scheduled at release)
            (0.0, 8.0, 8.0, 1.0),  // zero claxity, loses, parked
        ])
        .unwrap();
        let cap = low_then_high(0.0); // rate 4 immediately, class C(1,4)
        let r = simulate(&jobs, &cap, &mut VDover::new(10.0, 4.0), RunOptions::full());
        // At rate 4 each job needs 2s: both fit before t=8.
        assert_eq!(r.completed, 2, "supplement must be revived and finish");
        assert!(approx_eq(r.value, 11.0));
        audit_report(&jobs, &cap, &r).unwrap();
    }

    #[test]
    fn dover_equivalence_under_constant_capacity() {
        // With c(t) = c_lo = ĉ and the same β, V-Dover and Dover produce the
        // same outcomes (supplement jobs can never finish: capacity never
        // exceeds the conservative estimate... they may still run, but earn
        // nothing extra). The paper: "V-Dover reduces to Dover under
        // constant capacity".
        let jobs = JobSet::from_tuples(&[
            (0.0, 6.0, 6.0, 5.0),
            (1.0, 4.0, 3.0, 30.0),
            (2.0, 9.0, 2.0, 2.0),
            (3.0, 7.0, 1.0, 1.0),
        ])
        .unwrap();
        let cap = PiecewiseConstant::constant(1.0).unwrap();
        let beta = 3.0;
        let mut vd = VDover::from_config(VDoverConfig {
            beta,
            supplement: true,
            supplement_order: SupplementOrder::LatestDeadline,
        });
        let mut dv = crate::Dover::with_beta(beta, 1.0);
        let rv = simulate(&jobs, &cap, &mut vd, RunOptions::full());
        let rd = simulate(&jobs, &cap, &mut dv, RunOptions::full());
        assert!(
            approx_eq(rv.value, rd.value),
            "{} vs {}",
            rv.value,
            rd.value
        );
        for j in jobs.iter() {
            assert_eq!(
                rv.outcome.get(j.id).is_completed(),
                rd.outcome.get(j.id).is_completed(),
                "outcome of {} differs",
                j.id
            );
        }
    }

    #[test]
    fn conservative_laxity_does_not_abandon_rescuable_jobs() {
        // Same instance where Dover with an optimistic estimate fails but
        // V-Dover succeeds thanks to conservatism + supplements.
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 4.0, 10.0), (0.0, 4.0, 4.0, 9.0)]).unwrap();
        let cap = PiecewiseConstant::constant(4.0)
            .unwrap()
            .with_declared_bounds(1.0, 4.0)
            .unwrap();
        let r = simulate(&jobs, &cap, &mut VDover::new(2.0, 4.0), RunOptions::full());
        // Both complete at the realised rate 4 (2s total work before t=4).
        assert_eq!(r.completed, 2);
        audit_report(&jobs, &cap, &r).unwrap();
    }

    #[test]
    fn regular_jobs_preempt_supplement_jobs() {
        // A supplement job is running; a fresh regular release must preempt
        // it immediately (procedure B lines 13–15).
        let jobs = JobSet::from_tuples(&[
            (0.0, 4.0, 4.0, 10.0), // regular, runs [0, 1) at rate 4
            (0.0, 6.0, 6.0, 1.0),  // parked as supplement, revived at t=1
            (2.0, 6.0, 1.0, 5.0),  // regular arrival while supplement runs
        ])
        .unwrap();
        let cap = low_then_high(0.0);
        let r = simulate(&jobs, &cap, &mut VDover::new(10.0, 4.0), RunOptions::full());
        // Job 0 done at t=1 (rate 4). Supplement job 1 revived at t=1 with
        // 6 units of work. Job 2 arrives at t=2 and preempts it immediately
        // (procedure B supp branch); job 1 resumes at t=2.25 and completes
        // its remaining 2 units by t=2.75 < 6.
        assert!(r.outcome.get(JobId(2)).is_completed());
        assert!(r.outcome.get(JobId(0)).is_completed());
        let sched = r.schedule.unwrap();
        // Supplement job 1 ran both before and after job 2's interval.
        let slices1: Vec<_> = sched.slices_of(JobId(1)).collect();
        assert!(slices1.len() >= 2, "supplement resumed after preemption");
    }

    #[test]
    fn no_supplement_ablation_loses_value() {
        let jobs = JobSet::from_tuples(&[(0.0, 8.0, 8.0, 10.0), (0.0, 8.0, 8.0, 1.0)]).unwrap();
        let cap = low_then_high(0.0);
        let mut without = VDover::from_config(VDoverConfig {
            beta: 2.0,
            supplement: false,
            supplement_order: SupplementOrder::LatestDeadline,
        });
        let mut with = VDover::from_config(VDoverConfig {
            beta: 2.0,
            supplement: true,
            supplement_order: SupplementOrder::LatestDeadline,
        });
        let r_without = simulate(&jobs, &cap, &mut without, RunOptions::default());
        let r_with = simulate(&jobs, &cap, &mut with, RunOptions::default());
        assert!(r_with.value > r_without.value);
        assert_eq!(r_without.scheduler, "V-Dover(no-supp)");
    }

    #[test]
    fn trace_shows_supplement_enqueue_rescue_and_claxity_flip() {
        use cloudsched_obs::{RingTracer, TraceEvent};
        use cloudsched_sim::Run;
        // The signature instance: the zero-conservative-laxity loser is
        // parked (supp_enqueue) and later revived (supp_rescue); the park
        // decision is preceded by the zero-laxity interrupt (claxity_zero).
        let jobs = JobSet::from_tuples(&[(0.0, 8.0, 8.0, 10.0), (0.0, 8.0, 8.0, 1.0)]).unwrap();
        let cap = low_then_high(0.0);
        let mut ring = RingTracer::new(256);
        let r = Run::new(&jobs, &cap, RunOptions::lean())
            .tracer(&mut ring)
            .run(&mut VDover::new(10.0, 4.0));
        assert_eq!(r.completed, 2);
        let enqueues = ring
            .events()
            .filter(|e| matches!(e, TraceEvent::SupplementEnqueue { .. }))
            .count();
        let rescues = ring
            .events()
            .filter(|e| matches!(e, TraceEvent::SupplementRescue { .. }))
            .count();
        let flips = ring
            .events()
            .filter(|e| matches!(e, TraceEvent::ClaxityZero { .. }))
            .count();
        assert!(enqueues >= 1, "loser must be parked");
        assert!(rescues >= 1, "parked job must be revived");
        assert!(rescues <= enqueues, "can only revive what was parked");
        assert!(flips >= 1, "zero-laxity interrupt must be stamped");
        // The parked job is the low-value one.
        assert!(ring
            .events()
            .any(|e| matches!(e, TraceEvent::SupplementEnqueue { job: JobId(1), .. })));
    }

    #[test]
    fn paper_config_beta_matches_formula() {
        let cfg = VDoverConfig::paper(7.0, 35.0);
        assert!(approx_eq(
            cfg.beta,
            cloudsched_analysis::bounds::optimal_beta(7.0, 35.0)
        ));
        // δ = 1 falls back to Dover's threshold.
        let cfg = VDoverConfig::paper(4.0, 1.0);
        assert!(approx_eq(cfg.beta, 3.0));
    }

    #[test]
    fn zero_claxity_storm_is_stable() {
        // Many simultaneous zero-conservative-laxity jobs (the paper's §IV
        // regime): the scheduler must arbitrate without livelock and keep
        // the kernel's invariants intact.
        let mut tuples = Vec::new();
        for i in 0..30 {
            let r = i as f64 * 0.1;
            let p = 1.0 + (i % 5) as f64 * 0.3;
            let v = 1.0 + (i % 7) as f64;
            tuples.push((r, r + p, p, v)); // zero claxity at c_lo = 1
        }
        let jobs = JobSet::from_tuples(&tuples).unwrap();
        let cap = PiecewiseConstant::from_durations(&[(1.5, 1.0), (1.0, 4.0), (1.0, 1.0)])
            .unwrap()
            .with_declared_bounds(1.0, 4.0)
            .unwrap();
        let r = simulate(&jobs, &cap, &mut VDover::new(8.0, 4.0), RunOptions::full());
        audit_report(&jobs, &cap, &r).unwrap();
        assert!(r.completed >= 1);
        assert_eq!(r.completed + r.missed, 30);
    }
}
