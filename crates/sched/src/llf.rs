//! Least-laxity-first with a capacity estimate.
//!
//! True laxity is unknowable under time-varying capacity (the paper: "it is
//! difficult to generalize LLF for our problem because the remaining
//! processing time (or laxity) is not known"). This baseline therefore
//! computes laxity with an assumed constant rate `ĉ` — the same estimation
//! device §IV applies to Dover — and re-evaluates at every interrupt plus at
//! predicted laxity-crossing instants. A small hysteresis stops the classic
//! continuous-time LLF thrashing: a waiting job preempts only once its
//! estimated laxity is smaller than the running job's by `hysteresis`.

use cloudsched_core::JobId;
use cloudsched_sim::{Decision, Scheduler, SimContext};
use std::collections::BTreeSet;

/// Minimum delay of a re-evaluation timer: guarantees the event-driven LLF
/// loop always advances simulated time (no same-instant timer storms).
const MIN_TIMER_STEP: f64 = 1e-3;

/// Least-laxity-first under a constant-rate estimate.
#[derive(Debug, Clone)]
pub struct Llf {
    /// Assumed future capacity used for laxity computation.
    c_est: Option<f64>,
    /// Preemption hysteresis (seconds of laxity difference).
    hysteresis: f64,
    ready: BTreeSet<JobId>,
    /// Timer token generation (stale-crossing detection).
    generation: u64,
}

impl Llf {
    /// LLF computing laxity with the conservative class bound `c_lo`.
    pub fn conservative() -> Self {
        Llf {
            c_est: None,
            hysteresis: 1e-3,
            ready: BTreeSet::new(),
            generation: 0,
        }
    }

    /// LLF with an explicit capacity estimate `ĉ`.
    pub fn with_estimate(c_est: f64) -> Self {
        assert!(c_est > 0.0, "capacity estimate must be positive");
        Llf {
            c_est: Some(c_est),
            hysteresis: 1e-3,
            ready: BTreeSet::new(),
            generation: 0,
        }
    }

    /// Overrides the preemption hysteresis.
    pub fn hysteresis(mut self, h: f64) -> Self {
        assert!(h >= 0.0); // lint: allow(L001) — exact sign precondition
        self.hysteresis = h;
        self
    }

    fn rate(&self, ctx: &SimContext<'_>) -> f64 {
        self.c_est.unwrap_or_else(|| ctx.c_lo())
    }

    fn laxity(&self, ctx: &SimContext<'_>, job: JobId) -> f64 {
        ctx.laxity_with_rate(job, self.rate(ctx)).as_f64()
    }

    /// The ready job with minimal (laxity, deadline, id).
    fn best_waiting(&self, ctx: &SimContext<'_>) -> Option<(f64, JobId)> {
        self.ready
            .iter()
            .map(|&j| (self.laxity(ctx, j), ctx.job(j).deadline, j))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)))
            .map(|(l, _, j)| (l, j))
    }

    /// Re-evaluates the processor assignment; arms a crossing timer if the
    /// running job keeps the processor.
    fn reschedule(&mut self, ctx: &mut SimContext<'_>) -> Decision {
        let best = self.best_waiting(ctx);
        match (ctx.running(), best) {
            (None, None) => Decision::Idle,
            (None, Some((_, j))) => {
                self.ready.remove(&j);
                self.arm_crossing_timer(ctx, j);
                Decision::Run(j)
            }
            (Some(_), None) => Decision::Continue,
            (Some(cur), Some((lw, j))) => {
                let lc = self.laxity(ctx, cur);
                if lw < lc - self.hysteresis {
                    self.ready.remove(&j);
                    self.ready.insert(cur);
                    self.arm_crossing_timer(ctx, j);
                    Decision::Run(j)
                } else {
                    // Predict when the best waiting job's laxity undercuts
                    // the running job's (waiting laxity falls at rate 1,
                    // running laxity is constant under the estimate). The
                    // floor guarantees forward progress when the prediction
                    // lands exactly on the hysteresis boundary.
                    let dt = (lw - lc + self.hysteresis).max(MIN_TIMER_STEP);
                    self.generation += 1;
                    let at = ctx.now() + cloudsched_core::Duration::new(dt);
                    ctx.set_timer(at, j, self.generation);
                    Decision::Continue
                }
            }
        }
    }

    /// After dispatching `job`, predict when the best waiting job will
    /// undercut it and arm a re-evaluation timer.
    fn arm_crossing_timer(&mut self, ctx: &mut SimContext<'_>, dispatched: JobId) {
        if let Some((lw, j)) = self.best_waiting(ctx) {
            let lc = self.laxity(ctx, dispatched);
            let dt = (lw - lc + self.hysteresis).max(MIN_TIMER_STEP);
            self.generation += 1;
            let at = ctx.now() + cloudsched_core::Duration::new(dt);
            ctx.set_timer(at, j, self.generation);
        }
    }
}

impl Scheduler for Llf {
    fn name(&self) -> String {
        match self.c_est {
            Some(c) => format!("LLF(c={c})"),
            None => "LLF(c_lo)".into(),
        }
    }

    fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.ready.insert(job);
        self.reschedule(ctx)
    }

    fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.ready.remove(&job);
        self.reschedule(ctx)
    }

    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.ready.remove(&job);
        self.reschedule(ctx)
    }

    fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        if token != self.generation || !self.ready.contains(&job) {
            return Decision::Continue; // stale crossing prediction
        }
        self.reschedule(ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::Constant;
    use cloudsched_core::JobSet;
    use cloudsched_sim::{audit::audit_report, simulate, RunOptions};

    #[test]
    fn runs_least_laxity_job_first() {
        // Job 0: d=10, p=2 -> laxity 8. Job 1: d=6, p=5 -> laxity 1.
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 2.0, 1.0), (0.0, 6.0, 5.0, 1.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut Llf::with_estimate(1.0),
            RunOptions::full(),
        );
        assert_eq!(r.completed, 2);
        let first = r.schedule.unwrap().slices()[0].job;
        assert_eq!(first, JobId(1));
    }

    #[test]
    fn crossing_preemption_happens() {
        // Job 0: d=20, p=2 (laxity 18, runs first as the only job).
        // Job 1 released at 0: d=6, p=2 -> laxity 4 < 18, so it should win
        // immediately; then job 0 waits, its laxity falls, but job 1 is
        // short, so both complete.
        let jobs = JobSet::from_tuples(&[(0.0, 20.0, 2.0, 1.0), (1.0, 7.0, 2.0, 1.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut Llf::with_estimate(1.0),
            RunOptions::full(),
        );
        assert_eq!(r.completed, 2);
        // Job 1 (laxity 4 at release) preempts job 0 (laxity 18).
        assert!(r.preemptions >= 1);
    }

    #[test]
    fn underloaded_feasible_set_completes() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 4.0, 1.0, 1.0),
            (0.0, 5.0, 2.0, 1.0),
            (1.0, 8.0, 2.0, 1.0),
        ])
        .unwrap();
        let cap = Constant::unit();
        let r = simulate(
            &jobs,
            &cap,
            &mut Llf::with_estimate(1.0),
            RunOptions::full(),
        );
        assert_eq!(r.completed, 3);
        audit_report(&jobs, &cap, &r).unwrap();
    }

    #[test]
    fn conservative_variant_uses_class_bound() {
        let llf = Llf::conservative();
        assert_eq!(llf.name(), "LLF(c_lo)");
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 1.0, 1.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::new(2.0).unwrap(),
            &mut Llf::conservative(),
            RunOptions::default(),
        );
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn hysteresis_bounds_switching() {
        // Two identical jobs: pure LLF would thrash; hysteresis keeps the
        // number of preemptions small.
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 4.0, 1.0), (0.0, 10.0, 4.0, 1.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut Llf::with_estimate(1.0).hysteresis(0.5),
            RunOptions::full(),
        );
        assert_eq!(r.completed, 2);
        assert!(
            r.preemptions < 20,
            "hysteresis must bound context switches, got {}",
            r.preemptions
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_estimate_rejected() {
        let _ = Llf::with_estimate(0.0);
    }
}
