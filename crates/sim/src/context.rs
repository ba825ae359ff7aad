//! The scheduler's window into the simulation.

use cloudsched_core::{Duration, Job, JobId, JobSet, Time};
use cloudsched_obs::{DecisionAction, TraceEvent, Tracer};

/// What the scheduler wants the processor to do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Dispatch this job (preempting the current one if different).
    Run(JobId),
    /// Leave the processor idle (preempting the current job if any).
    Idle,
    /// Keep doing whatever is currently happening.
    Continue,
}

/// A timer registration created by the scheduler during a handler call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimerRequest {
    /// When the timer fires.
    pub at: Time,
    /// The job it concerns.
    pub job: JobId,
    /// Token echoed back in [`crate::Scheduler::on_timer`].
    pub token: u64,
}

/// Read access to everything an *online* scheduler may legitimately observe
/// (§II-A: job parameters at release, the capacity realised so far — hence
/// remaining workloads — and the declared capacity class bounds), plus the
/// ability to request timer interrupts, emit scheduler-level trace events
/// and declare explicit job abandonment.
///
/// The future of the capacity trace is deliberately unreachable.
pub struct SimContext<'a> {
    now: Time,
    jobs: &'a JobSet,
    remaining: &'a [f64],
    running: Option<JobId>,
    c_lo: f64,
    c_hi: f64,
    // Scratch buffers owned by the kernel's workspace and drained by the
    // dispatch loop after each handler call; borrowing them keeps the
    // steady state of a Monte-Carlo sweep allocation-free.
    timer_requests: &'a mut Vec<TimerRequest>,
    abandon_notices: &'a mut Vec<JobId>,
    tracer: &'a mut dyn Tracer,
}

impl std::fmt::Debug for SimContext<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimContext")
            .field("now", &self.now)
            .field("running", &self.running)
            .field("c_lo", &self.c_lo)
            .field("c_hi", &self.c_hi)
            .finish_non_exhaustive()
    }
}

impl<'a> SimContext<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        now: Time,
        jobs: &'a JobSet,
        remaining: &'a [f64],
        running: Option<JobId>,
        c_lo: f64,
        c_hi: f64,
        timer_requests: &'a mut Vec<TimerRequest>,
        abandon_notices: &'a mut Vec<JobId>,
        tracer: &'a mut dyn Tracer,
    ) -> Self {
        debug_assert!(timer_requests.is_empty() && abandon_notices.is_empty());
        SimContext {
            now,
            jobs,
            remaining,
            running,
            c_lo,
            c_hi,
            timer_requests,
            abandon_notices,
            tracer,
        }
    }

    /// Current simulation time (the paper's `now()`).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Parameters of a released job.
    #[inline]
    pub fn job(&self, id: JobId) -> &Job {
        self.jobs.get(id)
    }

    /// Remaining workload `p_r(T_i)` of a job.
    #[inline]
    pub fn remaining(&self, id: JobId) -> f64 {
        self.remaining[id.index()]
    }

    /// The currently executing job, if any. During a handler this reflects
    /// the state *at interrupt delivery* (e.g. in `on_completion` the
    /// completed job is already off the processor).
    #[inline]
    pub fn running(&self) -> Option<JobId> {
        self.running
    }

    /// Declared lower capacity bound `c_lo` of the input class: the
    /// conservative future-capacity estimate available to V-Dover.
    #[inline]
    pub fn c_lo(&self) -> f64 {
        self.c_lo
    }

    /// Declared upper capacity bound `c_hi`.
    #[inline]
    pub fn c_hi(&self) -> f64 {
        self.c_hi
    }

    /// Laxity under an assumed constant future rate: at `rate = c_lo()` it
    /// is the conservative laxity of Definition 5, `d - now - p_r(T)/c_lo`;
    /// the Dover baseline passes its capacity estimate `ĉ`.
    #[inline]
    pub fn laxity_with_rate(&self, id: JobId, rate: f64) -> Duration {
        self.job(id).laxity_with(self.now, self.remaining(id), rate)
    }

    /// Requests a timer interrupt at `at` concerning `job`; `token` is echoed
    /// back so the scheduler can detect stale timers. Timers in the past are
    /// delivered immediately after the current handler returns.
    pub fn set_timer(&mut self, at: Time, job: JobId, token: u64) {
        let at = at.max(self.now);
        self.timer_requests.push(TimerRequest { at, job, token });
    }

    /// Whether a live tracer is attached. Handlers should skip constructing
    /// trace events entirely when this is `false`.
    #[inline]
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Records a scheduler-level trace event (supplement-queue activity,
    /// conservative-laxity flips, queue depths, …) into the run's tracer.
    /// No-op under the default `NoopTracer`.
    #[inline]
    pub fn trace(&mut self, event: TraceEvent) {
        if self.tracer.enabled() {
            self.tracer.record(&event);
        }
    }

    /// Whether the attached sink opted into decision-provenance events.
    /// Provenance stamps (and the laxity/density arithmetic feeding them)
    /// should be skipped entirely when this is `false`, which keeps default
    /// trace streams byte-identical.
    #[inline]
    pub fn provenance_enabled(&self) -> bool {
        self.tracer.enabled() && self.tracer.wants_provenance()
    }

    /// Emits a [`TraceEvent::Decision`] provenance stamp for `job`, filling
    /// in the conservative laxity under `rate` (the estimate the caller's
    /// decision actually used) and the job's value density. No-op unless the
    /// sink opted in via [`SimContext::provenance_enabled`].
    pub fn trace_decision(
        &mut self,
        action: DecisionAction,
        job: JobId,
        rate: f64,
        rank: usize,
        flip: bool,
    ) {
        if !self.provenance_enabled() {
            return;
        }
        let j = self.job(job);
        let laxity = j.laxity_with(self.now, self.remaining(job), rate).as_f64();
        let density = j.value_density();
        let ev = TraceEvent::Decision {
            t: self.now,
            job,
            action,
            laxity,
            density,
            rank,
            flip,
        };
        self.tracer.record(&ev);
    }

    /// Declares that the scheduler has permanently given up on `job` before
    /// its deadline (Dover's procedure D without a supplement queue). The
    /// kernel books the job as *abandoned* rather than *expired* when its
    /// deadline fires, and an `Abandon` trace event is emitted here.
    pub fn abandon(&mut self, job: JobId) {
        if self.tracer.enabled() {
            let ev = TraceEvent::Abandon {
                t: self.now,
                job,
                remaining: self.remaining(job),
                value: self.job(job).value,
            };
            self.tracer.record(&ev);
            // Abandonment happens on the losing side of a zero-laxity
            // arbitration, so the flip state is stamped as already flipped.
            self.trace_decision(DecisionAction::Abandon, job, self.c_lo, 0, true);
        }
        self.abandon_notices.push(job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_obs::{NoopTracer, RingTracer};

    fn jobs() -> JobSet {
        JobSet::from_tuples(&[(0.0, 10.0, 4.0, 1.0), (1.0, 6.0, 2.0, 5.0)]).unwrap()
    }

    #[test]
    fn accessors() {
        let js = jobs();
        let remaining = [4.0, 1.0];
        let mut tracer = NoopTracer;
        let (mut timers, mut abandons) = (Vec::new(), Vec::new());
        let ctx = SimContext::new(
            Time::new(2.0),
            &js,
            &remaining,
            Some(JobId(0)),
            1.0,
            4.0,
            &mut timers,
            &mut abandons,
            &mut tracer,
        );
        assert!(!ctx.tracing_enabled());
        assert_eq!(ctx.now(), Time::new(2.0));
        assert_eq!(ctx.job(JobId(1)).value, 5.0);
        assert_eq!(ctx.remaining(JobId(1)), 1.0);
        assert_eq!(ctx.running(), Some(JobId(0)));
        assert_eq!(ctx.c_lo(), 1.0);
        assert_eq!(ctx.c_hi(), 4.0);
    }

    #[test]
    fn conservative_laxity_matches_definition_5() {
        let js = jobs();
        let remaining = [4.0, 1.0];
        let mut tracer = NoopTracer;
        let (mut timers, mut abandons) = (Vec::new(), Vec::new());
        let ctx = SimContext::new(
            Time::new(2.0),
            &js,
            &remaining,
            None,
            2.0,
            4.0,
            &mut timers,
            &mut abandons,
            &mut tracer,
        );
        // Job 0: d=10, now=2, p_r=4, c_lo=2 => 10-2-2 = 6.
        assert_eq!(ctx.laxity_with_rate(JobId(0), ctx.c_lo()).as_f64(), 6.0);
        // With an optimistic rate estimate laxity grows.
        assert_eq!(ctx.laxity_with_rate(JobId(0), 4.0).as_f64(), 7.0);
    }

    #[test]
    fn timers_clamp_to_now_and_land_in_the_scratch_buffer() {
        let js = jobs();
        let remaining = [4.0, 1.0];
        let mut tracer = NoopTracer;
        let (mut timers, mut abandons) = (Vec::new(), Vec::new());
        let mut ctx = SimContext::new(
            Time::new(5.0),
            &js,
            &remaining,
            None,
            1.0,
            1.0,
            &mut timers,
            &mut abandons,
            &mut tracer,
        );
        ctx.set_timer(Time::new(3.0), JobId(0), 7); // in the past -> clamped
        ctx.set_timer(Time::new(8.0), JobId(1), 9);
        assert_eq!(timers.len(), 2);
        assert_eq!(timers[0].at, Time::new(5.0));
        assert_eq!(timers[0].token, 7);
        assert_eq!(timers[1].at, Time::new(8.0));
        assert!(abandons.is_empty());
    }

    #[test]
    fn abandon_emits_event_and_notice() {
        let js = jobs();
        let remaining = [4.0, 1.5];
        let mut ring = RingTracer::new(8);
        let (mut timers, mut abandons) = (Vec::new(), Vec::new());
        let mut ctx = SimContext::new(
            Time::new(3.0),
            &js,
            &remaining,
            None,
            1.0,
            1.0,
            &mut timers,
            &mut abandons,
            &mut ring,
        );
        assert!(ctx.tracing_enabled());
        ctx.abandon(JobId(1));
        assert_eq!(abandons, vec![JobId(1)]);
        assert!(timers.is_empty());
        let evs: Vec<_> = ring.take();
        assert_eq!(evs.len(), 1);
        match evs[0] {
            TraceEvent::Abandon {
                job,
                remaining,
                value,
                ..
            } => {
                assert_eq!(job, JobId(1));
                assert!((remaining - 1.5).abs() < 1e-12);
                assert!((value - 5.0).abs() < 1e-12);
            }
            ref other => panic!("expected abandon, got {other:?}"),
        }
    }

    #[test]
    fn trace_decision_is_gated_on_provenance_opt_in() {
        use cloudsched_obs::WithProvenance;
        let js = jobs();
        let remaining = [4.0, 1.0];
        let (mut timers, mut abandons) = (Vec::new(), Vec::new());
        // A live but non-opted-in sink records nothing.
        let mut plain = RingTracer::new(8);
        let mut ctx = SimContext::new(
            Time::new(2.0),
            &js,
            &remaining,
            None,
            2.0,
            4.0,
            &mut timers,
            &mut abandons,
            &mut plain,
        );
        assert!(!ctx.provenance_enabled());
        ctx.trace_decision(DecisionAction::Admit, JobId(0), 2.0, 0, false);
        assert!(plain.is_empty());
        // An opted-in sink gets the stamp with laxity/density filled in.
        let mut wrapped = WithProvenance(RingTracer::new(8));
        let mut ctx = SimContext::new(
            Time::new(2.0),
            &js,
            &remaining,
            None,
            2.0,
            4.0,
            &mut timers,
            &mut abandons,
            &mut wrapped,
        );
        assert!(ctx.provenance_enabled());
        ctx.trace_decision(DecisionAction::Reject, JobId(0), 2.0, 3, true);
        let evs = wrapped.0.take();
        assert_eq!(evs.len(), 1);
        match evs[0] {
            TraceEvent::Decision {
                job,
                action,
                laxity,
                density,
                rank,
                flip,
                ..
            } => {
                assert_eq!(job, JobId(0));
                assert_eq!(action, DecisionAction::Reject);
                // d=10, now=2, p_r=4, rate=2 => laxity 6; density 1/4.
                assert!((laxity - 6.0).abs() < 1e-12);
                assert!((density - 0.25).abs() < 1e-12);
                assert_eq!(rank, 3);
                assert!(flip);
            }
            ref other => panic!("expected decision, got {other:?}"),
        }
    }

    #[test]
    fn trace_is_silent_under_noop() {
        let js = jobs();
        let remaining = [4.0, 1.0];
        let mut tracer = NoopTracer;
        let (mut timers, mut abandons) = (Vec::new(), Vec::new());
        let mut ctx = SimContext::new(
            Time::new(1.0),
            &js,
            &remaining,
            None,
            1.0,
            1.0,
            &mut timers,
            &mut abandons,
            &mut tracer,
        );
        ctx.trace(TraceEvent::ClaxityZero {
            t: Time::new(1.0),
            job: JobId(0),
        });
        // Abandon notices still flow even when tracing is off: the kernel's
        // expired/abandoned split must not depend on observability.
        ctx.abandon(JobId(0));
        assert_eq!(abandons, vec![JobId(0)]);
    }
}
