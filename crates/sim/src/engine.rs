//! The event-driven simulation kernel.

use crate::context::{Decision, SimContext};
use crate::degrade::{
    DegradationPolicy, DegradationStats, DegradedOutcome, OracleReading, RateOracle, Watchdog,
    WatchdogConfig,
};
use crate::event::{Event, EventKind, COMPLETION_PRIORITY, DEADLINE_PRIORITY};
use crate::report::{RunReport, TrajectoryPoint};
use crate::scheduler::Scheduler;
use crate::workspace::{flag, SimWorkspace};
use cloudsched_capacity::CapacityProfile;
use cloudsched_core::{CoreError, Job, JobId, JobOutcome, JobSet, Schedule, Time};
use cloudsched_obs::{DecisionAction, FaultKind, NoopTracer, Profiler, TraceEvent, Tracer};

/// Knobs for a single run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Record the full execution schedule (needed by the audit layer).
    pub record_schedule: bool,
    /// Record the cumulative value-vs-time curve (the paper's Fig. 1).
    pub record_trajectory: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            record_schedule: true,
            record_trajectory: false,
        }
    }
}

impl RunOptions {
    /// Cheapest configuration for large Monte-Carlo sweeps.
    pub fn lean() -> Self {
        RunOptions {
            record_schedule: false,
            record_trajectory: false,
        }
    }

    /// Record everything.
    pub fn full() -> Self {
        RunOptions {
            record_schedule: true,
            record_trajectory: true,
        }
    }
}

/// Workload tolerance below which a job counts as finished: absolute dust
/// plus a relative component of its total workload.
#[inline]
pub(crate) fn completion_tolerance(workload: f64) -> f64 {
    1e-9 + 1e-12 * workload
}

/// The mutable run-state of a [`Kernel`], separated from its borrows so a
/// streaming service can suspend a run between arrivals (dropping the kernel
/// view and its borrows) and resume it later — or serialize it into a
/// crash-recovery snapshot ([`crate::snapshot`]).
///
/// Batch runs never see this type: [`Kernel::new`] builds a fresh state and
/// [`Kernel::run`] consumes it. The field semantics are those the kernel
/// documents inline.
#[derive(Debug, Clone)]
pub(crate) struct KernelState {
    pub(crate) now: Time,
    pub(crate) running: Option<JobId>,
    pub(crate) slice_start: Time,
    /// The running job's remaining workload at `slice_start`.
    pub(crate) slice_rem: f64,
    /// The completion slot: when the running job finishes (the queue never
    /// holds a completion). Meaningless while `running` is `None`.
    pub(crate) done_at: Time,
    pub(crate) value: f64,
    pub(crate) preemptions: usize,
    pub(crate) dispatches: usize,
    pub(crate) events_processed: usize,
    pub(crate) expired: usize,
    pub(crate) expired_value: f64,
    pub(crate) abandoned_count: usize,
    pub(crate) abandoned_value: f64,
    /// 0-based index of the capacity segment currently in force (only
    /// maintained while tracing).
    pub(crate) capacity_segment: usize,
    /// Last instant of interest; capacity-segment markers stop here. Grows
    /// whenever [`Kernel::seed_job`] seeds a job with a later deadline.
    pub(crate) horizon: Time,
    /// Whether a capacity-segment marker event is pending in the queue. The
    /// marker chain stops when the next boundary lies past both the horizon
    /// and the current pump's bound; the next pump or seeding re-arms it.
    pub(crate) capacity_armed: bool,
    pub(crate) c_lo: f64,
    pub(crate) c_hi: f64,
    pub(crate) schedule: Option<Schedule>,
    pub(crate) trajectory: Option<Vec<TrajectoryPoint>>,
    /// Set when the `Strict` policy aborts the run.
    pub(crate) aborted: Option<CoreError>,
}

impl KernelState {
    /// A fresh pre-run state for a kernel whose queue starts empty: time
    /// at the origin, nothing running, horizon zero, marker chain unarmed
    /// (seeding the first job arms it).
    pub(crate) fn new(options: RunOptions, c_lo: f64, c_hi: f64) -> Self {
        KernelState {
            now: Time::ZERO,
            running: None,
            slice_start: Time::ZERO,
            slice_rem: 0.0,
            done_at: Time::ZERO,
            value: 0.0,
            preemptions: 0,
            dispatches: 0,
            events_processed: 0,
            expired: 0,
            expired_value: 0.0,
            abandoned_count: 0,
            abandoned_value: 0.0,
            capacity_segment: 0,
            horizon: Time::ZERO,
            capacity_armed: false,
            c_lo,
            c_hi,
            schedule: options.record_schedule.then(Schedule::new),
            trajectory: options.record_trajectory.then(|| {
                vec![TrajectoryPoint {
                    time: 0.0,
                    cumulative_value: 0.0,
                }]
            }),
            aborted: None,
        }
    }
}

pub(crate) struct Kernel<'a, P: CapacityProfile, T: Tracer> {
    jobs: &'a JobSet,
    capacity: &'a P,
    /// Every per-run buffer lives here: the event queue, the per-job
    /// remaining/released/resolved/started/abandoned/quarantined tables,
    /// the outcome table and the handler scratch vectors. Borrowing them
    /// from a caller-owned arena is what lets Monte-Carlo sweeps run
    /// allocation-free after warm-up; field semantics are documented on
    /// [`SimWorkspace`].
    ws: &'a mut SimWorkspace,
    st: KernelState,
    tracer: &'a mut T,
    profiler: Option<&'a Profiler>,
    /// Online precondition checker; `None` for plain (non-degraded) runs.
    watchdog: Option<Watchdog>,
    /// Monitoring-plane channel for capacity measurements. Job progress
    /// always integrates the physical profile; only the watchdog sees the
    /// oracle's (possibly faulty) view.
    oracle: Option<&'a mut dyn RateOracle>,
    /// Bound of the last [`Kernel::pump_ready`]; the marker chain reaches up
    /// to it. Not part of [`KernelState`], so snapshots never carry it.
    pump_until: Time,
}

impl<'a, P: CapacityProfile, T: Tracer> Kernel<'a, P, T> {
    /// Opens a fresh batch run of `run`'s instance in `ws`, borrowing the
    /// run's tracer, profiler and oracle and arming its watchdog. The
    /// per-job tables are sized for every job up front (batch ids need not
    /// follow release order); the event queue starts empty, and
    /// [`Kernel::run`] seeds it one job at a time.
    pub(crate) fn new(ws: &'a mut SimWorkspace, run: &'a mut Run<'_, P, T>) -> Self {
        let (jobs, capacity) = (run.jobs, run.capacity);
        let (c_lo, c_hi) = capacity.bounds();
        let watchdog = run
            .watchdog
            .map(|(policy, cfg)| Watchdog::new(policy, c_lo, c_hi, cfg));
        let tracer = &mut run.tracer;
        ws.begin(jobs.len());
        ws.remaining.extend(jobs.iter().map(|j| j.workload));
        if tracer.enabled() && !jobs.is_empty() {
            // The initial capacity segment; later boundaries are stamped by
            // the marker chain that seeding arms.
            tracer.record(&TraceEvent::CapacityChange {
                t: Time::ZERO,
                rate: capacity.rate_at(Time::ZERO),
                segment: 0,
            });
        }
        Kernel {
            jobs,
            capacity,
            ws,
            st: KernelState::new(run.options, c_lo, c_hi),
            tracer,
            profiler: run.profiler,
            watchdog,
            // Re-borrow rather than `as_deref_mut`: the trait object's
            // lifetime has to shrink from the run's to the kernel's.
            oracle: match &mut run.oracle {
                Some(o) => Some(&mut **o),
                None => None,
            },
            pump_until: Time::ZERO,
        }
    }

    /// Re-attaches a kernel view over a suspended run: the workspace carries
    /// the live event queue and per-job tables exactly as [`Kernel::suspend`]
    /// (or a snapshot restore) left them, `st` the scalar run-state. No
    /// buffer is reset and nothing is seeded — the streaming service drives
    /// seeding explicitly through [`Kernel::seed_job`].
    pub(crate) fn resume(
        ws: &'a mut SimWorkspace,
        jobs: &'a JobSet,
        capacity: &'a P,
        tracer: &'a mut T,
        st: KernelState,
    ) -> Self {
        Kernel {
            jobs,
            capacity,
            ws,
            st,
            tracer,
            profiler: None,
            watchdog: None,
            oracle: None,
            pump_until: Time::ZERO,
        }
    }

    /// Detaches the kernel view, returning the scalar run-state. The borrowed
    /// workspace keeps the event queue and tables; `resume` re-attaches.
    pub(crate) fn suspend(self) -> KernelState {
        self.st
    }

    /// Grows the per-job tables by one slot for `job` without scheduling any
    /// events — rejected arrivals occupy an id slot (keeping table indexes
    /// aligned with the growing job set) but never release.
    pub(crate) fn register_job(&mut self, job: &Job) {
        debug_assert_eq!(
            job.id.index(),
            self.ws.remaining.len(),
            "streaming jobs must seed in id order"
        );
        self.ws.grow_one(job.workload);
    }

    /// Whether the job with this id has resolved (completed or missed).
    pub(crate) fn resolved(&self, job: JobId) -> bool {
        self.ws.resolved(job.index())
    }

    /// Seeds `job` into the run and releases it: schedules its deadline,
    /// extends the horizon to it (re-arming the capacity-marker chain if
    /// it had run out), moves the clock to the release and delivers the
    /// release interrupt. The one place a job is released; every run shape
    /// calls it right after pumping to the job's release. After a `Strict`
    /// abort it seeds nothing.
    pub(crate) fn seed_job<S: Scheduler + ?Sized>(&mut self, scheduler: &mut S, job: &Job) {
        if self.st.aborted.is_some() {
            return;
        }
        self.ws
            .queue
            .push(job.deadline, EventKind::Deadline { job: job.id });
        if job.deadline > self.st.horizon {
            self.st.horizon = job.deadline;
        }
        self.arm_capacity();
        self.advance_to(job.release);
        self.st.events_processed += 1;
        self.release(scheduler, job.id);
    }

    /// The one arming rule of the capacity-marker chain: when the tracer
    /// wants boundaries stamped or the watchdog probes the oracle at them,
    /// and no marker is pending, push one at the next boundary if it lies
    /// within the horizon or the current pump's bound.
    fn arm_capacity(&mut self) {
        if !(self.tracer.enabled() || self.watchdog.is_some()) || self.st.capacity_armed {
            return;
        }
        let next = self.capacity.next_change_after(self.st.now);
        if next > self.st.now && next <= self.st.horizon.max(self.pump_until) {
            self.ws.queue.push(next, EventKind::CapacityChange);
            self.st.capacity_armed = true;
        }
    }

    /// Moves the clock to `t`. The running job's progress is the capacity
    /// integral over its slice so far (§III-A), so it does not depend on
    /// which instants the loop visits in between.
    fn advance_to(&mut self, t: Time) {
        debug_assert!(t >= self.st.now, "kernel time went backwards");
        if let Some(j) = self.st.running {
            let done = self.capacity.integrate(self.st.slice_start, t);
            debug_assert!(
                done.is_finite() && done >= 0.0,
                "capacity integral over [{}, {t}] is {done}",
                self.st.slice_start
            );
            self.ws.remaining[j.index()] = (self.st.slice_rem - done).max(0.0);
        }
        self.st.now = t;
    }

    /// Removes the running job from the processor, recording its slice.
    fn vacate(&mut self) {
        if let Some(j) = self.st.running.take() {
            if self.st.now > self.st.slice_start {
                if let Some(s) = self.st.schedule.as_mut() {
                    s.push(j, self.st.slice_start, self.st.now).expect(
                        "invariant: slice_start <= now, so kernel slices stay time-ordered",
                    );
                }
            }
        }
    }

    /// Vacates the running job before its completion came due; the
    /// superseded completion counts as one processed event.
    fn supersede(&mut self) {
        self.st.events_processed += 1;
        self.vacate();
    }

    /// Marks `job` completed at the current instant and accrues its value.
    fn complete(&mut self, job: JobId) {
        debug_assert!(!self.ws.resolved(job.index()));
        debug_assert!(
            self.ws.remaining[job.index()] <= completion_tolerance(self.jobs.get(job).workload),
            "{job} declared complete with {} workload left",
            self.ws.remaining[job.index()]
        );
        self.ws.remaining[job.index()] = 0.0;
        self.ws.set_flag(job.index(), flag::RESOLVED, true);
        self.ws
            .outcome
            .set(job, JobOutcome::Completed { at: self.st.now });
        self.st.value += self.jobs.get(job).value;
        if self.tracer.enabled() {
            self.tracer.record(&TraceEvent::Complete {
                t: self.st.now,
                job,
                value: self.jobs.get(job).value,
            });
        }
        if let Some(traj) = self.st.trajectory.as_mut() {
            traj.push(TrajectoryPoint {
                time: self.st.now.as_f64(),
                cumulative_value: self.st.value,
            });
        }
    }

    fn dispatch_handler<S, F>(&mut self, scheduler: &mut S, f: F)
    where
        S: Scheduler + ?Sized,
        F: FnOnce(&mut S, &mut SimContext<'_>) -> Decision,
    {
        // The context borrows disjoint workspace fields: the remaining
        // table read-only, the two scratch vectors mutably. Draining the
        // scratch in place (instead of mem::take into fresh vectors) is
        // what keeps the handler path allocation-free in the steady state.
        let ws = &mut *self.ws;
        let mut ctx = SimContext::new(
            self.st.now,
            self.jobs,
            &ws.remaining,
            self.st.running,
            self.st.c_lo,
            self.st.c_hi,
            &mut ws.timer_scratch,
            &mut ws.abandon_scratch,
            &mut *self.tracer,
        );
        let decision = {
            let _span = self.profiler.map(|p| p.span("kernel.dispatch"));
            f(scheduler, &mut ctx)
        };
        for i in 0..ws.timer_scratch.len() {
            let t = ws.timer_scratch[i];
            ws.queue.push(
                t.at,
                EventKind::Timer {
                    job: t.job,
                    token: t.token,
                },
            );
        }
        ws.timer_scratch.clear();
        for i in 0..ws.abandon_scratch.len() {
            let j = ws.abandon_scratch[i];
            ws.set_flag(j.index(), flag::ABANDONED, true);
        }
        ws.abandon_scratch.clear();
        self.apply(decision);
    }

    /// Takes the running job, if any, off the processor on a scheduler's
    /// decision, counting and stamping the preemption.
    fn preempt(&mut self) {
        let Some(cur) = self.st.running else { return };
        self.st.preemptions += 1;
        if self.tracer.enabled() {
            self.tracer.record(&TraceEvent::Preempt {
                t: self.st.now,
                job: cur,
                remaining: self.ws.remaining[cur.index()],
            });
            self.trace_provenance(DecisionAction::Preempt, cur, 0);
        }
        self.supersede();
    }

    /// Stamps a kernel-side decision-provenance event, filling in the
    /// conservative laxity (Definition 5, against the effective `c_lo`) and
    /// value density at the decision instant. Emitted only when the attached
    /// sink opted in via `Tracer::wants_provenance`, so default trace
    /// streams stay byte-identical.
    fn trace_provenance(&mut self, action: DecisionAction, job: JobId, rank: usize) {
        if !(self.tracer.enabled() && self.tracer.wants_provenance()) {
            return;
        }
        let j = self.jobs.get(job);
        let laxity = j
            .laxity_with(self.st.now, self.ws.remaining[job.index()], self.st.c_lo)
            .as_f64();
        self.tracer.record(&TraceEvent::Decision {
            t: self.st.now,
            job,
            action,
            laxity,
            density: j.value_density(),
            rank,
            flip: laxity < 0.0,
        });
    }

    /// Records a `Strict`-policy abort: stamps the trace and arms the main
    /// loop's stop condition.
    fn abort(&mut self, fault: FaultKind, err: CoreError) {
        if self.tracer.enabled() {
            self.tracer.record(&TraceEvent::PolicyAbort {
                t: self.st.now,
                fault,
            });
        }
        self.st.aborted = Some(err);
    }

    /// Probes the capacity oracle and folds the reading into the watchdog:
    /// oracle liveness, the `c(t) >= c_lo` SLA, `c_lo` re-estimation under
    /// `Degrade`, and re-admission of quarantined jobs once the observed
    /// capacity is back at the declared bound. Called at t = 0 and at every
    /// capacity-segment boundary; a no-op for plain (non-degraded) runs.
    fn watch_capacity<S: Scheduler + ?Sized>(&mut self, scheduler: &mut S) {
        if self.watchdog.is_none() {
            return;
        }
        let true_rate = self.capacity.rate_at(self.st.now);
        let reading = match self.oracle.as_deref_mut() {
            Some(o) => o.read(self.st.now, true_rate),
            None => OracleReading::Rate(true_rate),
        };
        let (assessment, policy, declared_lo) = match self.watchdog.as_mut() {
            Some(w) => (
                w.observe_rate(self.st.now, reading),
                w.policy(),
                w.declared_lo(),
            ),
            None => return,
        };
        if let Some(down_for) = assessment.recovered_after {
            if self.tracer.enabled() {
                self.tracer.record(&TraceEvent::OracleRecover {
                    t: self.st.now,
                    down_for,
                });
            }
        }
        if let Some(misses) = assessment.declared_dead {
            if self.tracer.enabled() {
                self.tracer.record(&TraceEvent::OracleDropout {
                    t: self.st.now,
                    misses: misses as usize,
                });
            }
            if policy == DegradationPolicy::Strict {
                self.abort(
                    FaultKind::OracleDown,
                    CoreError::OracleDown {
                        at: self.st.now.as_f64(),
                        retries: misses,
                    },
                );
                return;
            }
        }
        if let Some(rate) = assessment.sla_violation {
            if self.tracer.enabled() {
                self.tracer.record(&TraceEvent::SlaViolation {
                    t: self.st.now,
                    rate,
                    c_lo: declared_lo,
                });
            }
            if policy == DegradationPolicy::Strict {
                self.abort(
                    FaultKind::SlaDip,
                    CoreError::CapacitySlaViolation {
                        at: self.st.now.as_f64(),
                        rate,
                        c_lo: declared_lo,
                    },
                );
                return;
            }
        }
        if let Some((from, to)) = assessment.reestimate {
            if self.tracer.enabled() {
                self.tracer.record(&TraceEvent::CloReestimate {
                    t: self.st.now,
                    from,
                    to,
                });
            }
            // Schedulers read `c_lo` live from the SimContext, so V-Dover's
            // conservative laxities (Definition 5) recompute against the
            // re-estimated bound from the next dispatch on.
            self.st.c_lo = to;
        }
        let pending = self.watchdog.as_ref().map_or(0, |w| w.quarantine_pending());
        if assessment.capacity_ok && pending > 0 {
            // Capacity is back at the declared bound: re-admit quarantined
            // jobs (in id order) that are still live. V-Dover parks any
            // zero-conservative-laxity re-admissions in its supplement
            // queue, the paper's mechanism for late-feasible jobs. The
            // pending index iterates ascending, matching the full scan it
            // replaced; the snapshot is taken up front because re-admission
            // dispatches into the scheduler.
            let ready: Vec<usize> = self.ws.quarantine_pending.iter().copied().collect();
            for i in ready {
                self.ws.quarantine_pending.remove(&i);
                if !self.ws.quarantined(i) || self.ws.resolved(i) {
                    continue;
                }
                let job = JobId(i as u64);
                self.ws.set_flag(i, flag::QUARANTINED, false);
                if let Some(w) = self.watchdog.as_mut() {
                    w.note_readmit();
                }
                if self.tracer.enabled() {
                    self.tracer.record(&TraceEvent::Readmit {
                        t: self.st.now,
                        job,
                    });
                }
                self.dispatch_handler(scheduler, |s, ctx| s.on_release(ctx, job));
            }
        }
    }

    fn apply(&mut self, decision: Decision) {
        match decision {
            Decision::Continue => {}
            Decision::Idle => self.preempt(),
            Decision::Run(j) => {
                if self.st.running == Some(j) {
                    return;
                }
                let i = j.index();
                assert!(self.ws.released(i), "scheduler dispatched unreleased {j}");
                assert!(!self.ws.resolved(i), "scheduler dispatched resolved {j}");
                self.preempt();
                if self.tracer.enabled() {
                    let ev = if self.ws.started(i) {
                        TraceEvent::Resume {
                            t: self.st.now,
                            job: j,
                        }
                    } else {
                        TraceEvent::Admit {
                            t: self.st.now,
                            job: j,
                        }
                    };
                    self.tracer.record(&ev);
                    self.trace_provenance(DecisionAction::Admit, j, 0);
                }
                self.ws.set_flag(i, flag::STARTED, true);
                self.st.running = Some(j);
                self.st.slice_start = self.st.now;
                self.st.slice_rem = self.ws.remaining[i];
                self.st.done_at = self
                    .capacity
                    .time_to_complete(self.st.now, self.st.slice_rem);
                self.st.dispatches += 1;
            }
        }
    }

    /// Processes the earlier of the queue head and the completion slot if
    /// it ranks before a deadline at `until`; returns `false` when neither
    /// does. The single code path behind both the batch drain and the
    /// streaming service's bounded pumps — which is what makes an
    /// interleaved (pump/seed/pump) run produce the same event sequence as
    /// a batch run over the same admitted job set.
    fn step_next<S: Scheduler + ?Sized>(&mut self, scheduler: &mut S, until: Time) -> bool {
        let done = self.st.running.filter(|_| self.st.done_at <= until);
        let cut = match done {
            Some(_) => (self.st.done_at, COMPLETION_PRIORITY),
            None => (until, DEADLINE_PRIORITY),
        };
        if let Some(ev) = self
            .ws
            .queue
            .pop_if(cut.0, |ev| (ev.time, ev.kind.priority()) < cut)
        {
            self.step(scheduler, ev);
        } else if let Some(job) = done {
            self.advance_to(self.st.done_at);
            self.st.events_processed += 1;
            self.vacate();
            self.complete(job);
            self.dispatch_handler(scheduler, |s, ctx| s.on_completion(ctx, job));
        } else {
            return false;
        }
        true
    }

    /// Processes one popped event: advances the clock, counts it, and
    /// executes its arm.
    fn step<S: Scheduler + ?Sized>(&mut self, scheduler: &mut S, ev: Event) {
        self.advance_to(ev.time);
        // Capacity-segment markers are trace bookkeeping, not kernel
        // events: the processed-event count stays identical whether or
        // not a tracer is attached.
        if !matches!(ev.kind, EventKind::CapacityChange) {
            self.st.events_processed += 1;
        }
        match ev.kind {
            EventKind::CapacityChange => {
                self.st.capacity_segment += 1;
                if self.tracer.enabled() {
                    self.tracer.record(&TraceEvent::CapacityChange {
                        t: self.st.now,
                        rate: self.capacity.rate_at(self.st.now),
                        segment: self.st.capacity_segment,
                    });
                }
                self.st.capacity_armed = false;
                self.arm_capacity();
                self.watch_capacity(scheduler);
            }
            EventKind::Timer { job, token } => {
                if self.ws.resolved(job.index()) || !self.ws.released(job.index()) {
                    return;
                }
                self.dispatch_handler(scheduler, |s, ctx| s.on_timer(ctx, job, token));
            }
            EventKind::Deadline { job } => {
                if self.ws.resolved(job.index()) {
                    return;
                }
                if self.st.running == Some(job) {
                    self.supersede();
                }
                let i = job.index();
                // A still-quarantined job is invisible to the scheduler
                // (it never saw on_release), so its resolution must not
                // reach the scheduler's handlers either.
                let hidden = self.ws.quarantined(i);
                if hidden {
                    self.ws.quarantine_pending.remove(&i);
                    if let Some(w) = self.watchdog.as_mut() {
                        w.note_quarantine_expired();
                    }
                }
                if self.ws.remaining[i] <= completion_tolerance(self.jobs.get(job).workload) {
                    // Finished exactly at the deadline (within rounding):
                    // "completing a job by its deadline" succeeds.
                    self.complete(job);
                    if !hidden {
                        self.dispatch_handler(scheduler, |s, ctx| s.on_completion(ctx, job));
                    }
                } else {
                    self.ws.set_flag(i, flag::RESOLVED, true);
                    self.ws.outcome.set(
                        job,
                        JobOutcome::Missed {
                            remaining_workload: self.ws.remaining[i],
                        },
                    );
                    let value = self.jobs.get(job).value;
                    if self.ws.abandoned(i) {
                        // The scheduler already gave this job up (and
                        // its Abandon trace event was emitted then):
                        // book it separately from passive expiry.
                        self.st.abandoned_count += 1;
                        self.st.abandoned_value += value;
                    } else {
                        self.st.expired += 1;
                        self.st.expired_value += value;
                        if self.tracer.enabled() {
                            self.tracer.record(&TraceEvent::Expire {
                                t: self.st.now,
                                job,
                                remaining: self.ws.remaining[i],
                                value,
                            });
                            self.trace_provenance(DecisionAction::Expire, job, 0);
                        }
                    }
                    if !hidden {
                        self.dispatch_handler(scheduler, |s, ctx| s.on_deadline_miss(ctx, job));
                    }
                }
            }
        }
    }

    /// The release interrupt (V-Dover's procedure A): stamps the arrival,
    /// lets the watchdog vet the job and hands it to the scheduler.
    fn release<S: Scheduler + ?Sized>(&mut self, scheduler: &mut S, job: JobId) {
        self.ws.set_flag(job.index(), flag::RELEASED, true);
        if self.tracer.enabled() {
            let j = self.jobs.get(job);
            self.tracer.record(&TraceEvent::Arrival {
                t: self.st.now,
                job,
                laxity: j
                    .laxity_with(self.st.now, self.ws.remaining[job.index()], self.st.c_lo)
                    .as_f64(),
            });
        }
        // The watchdog vets the release against the paper's input-stream
        // assumptions before the scheduler sees it.
        let fault = match self.watchdog.as_mut() {
            Some(w) => w.inspect_release(self.jobs.get(job)),
            None => None,
        };
        match fault {
            None => {
                self.dispatch_handler(scheduler, |s, ctx| s.on_release(ctx, job));
            }
            Some(f) => {
                if self.tracer.enabled() {
                    self.tracer.record(&TraceEvent::FaultDetected {
                        t: self.st.now,
                        job,
                        fault: f.kind,
                    });
                }
                let policy = self
                    .watchdog
                    .as_ref()
                    .map_or(DegradationPolicy::BestEffort, |w| w.policy());
                match policy {
                    DegradationPolicy::Strict => {
                        self.abort(f.kind, f.error);
                    }
                    DegradationPolicy::Degrade => {
                        // Quarantine: the scheduler never sees this job
                        // unless capacity recovery re-admits it.
                        self.ws.set_flag(job.index(), flag::QUARANTINED, true);
                        self.ws.quarantine_pending.insert(job.index());
                        if let Some(w) = self.watchdog.as_mut() {
                            w.note_quarantine();
                        }
                        if self.tracer.enabled() {
                            self.tracer.record(&TraceEvent::Quarantine {
                                t: self.st.now,
                                job,
                                fault: f.kind,
                            });
                        }
                    }
                    DegradationPolicy::BestEffort => {
                        self.dispatch_handler(scheduler, |s, ctx| s.on_release(ctx, job));
                    }
                }
            }
        }
    }

    /// Processes every event strictly before `until`, plus the co-timed
    /// events that rank before a deadline at `until`: capacity markers, the
    /// running job's completion and timers. Every run shape pumps to a
    /// job's release and then seeds the job, which releases it at once:
    /// co-timed deadlines come after the release, and the queue never
    /// needs a job's events before its release instant.
    ///
    /// The pump first arms the capacity-marker chain up to `until`: the
    /// horizon does not yet cover the job about to be seeded, and without
    /// markers a timer could carry the clock across an idle-gap boundary
    /// that would then be neither stamped nor probed.
    pub(crate) fn pump_ready<S: Scheduler + ?Sized>(&mut self, scheduler: &mut S, until: Time) {
        self.pump_until = until;
        self.arm_capacity();
        while self.st.aborted.is_none() && self.step_next(scheduler, until) {}
    }

    /// Runs the event loop to completion (or abort).
    fn drain<S: Scheduler + ?Sized>(&mut self, scheduler: &mut S) {
        while self.st.aborted.is_none() && self.step_next(scheduler, Time::NEVER) {}
    }

    /// Drains all remaining events and builds the final report.
    pub(crate) fn finish<S: Scheduler + ?Sized>(
        mut self,
        scheduler: &mut S,
    ) -> (RunReport, Option<CoreError>, Option<DegradationStats>) {
        self.drain(scheduler);
        // Close the slice a `Strict` abort leaves open; its completion never
        // came due, so it does not count as processed.
        self.vacate();
        let total_value = self.jobs.total_value();
        // The outcome table moves into the report; the workspace's slot is
        // left empty until the caller hands the report to
        // `SimWorkspace::recycle` (sweeps that want full reuse do).
        let outcome = std::mem::take(&mut self.ws.outcome);
        let missed = outcome.missed().count();
        debug_assert_eq!(
            missed,
            self.st.expired + self.st.abandoned_count,
            "every miss is booked as exactly one of expired / abandoned"
        );
        let report = RunReport {
            scheduler: scheduler.name(),
            value: self.st.value,
            value_fraction: if total_value > 0.0 {
                self.st.value / total_value
            } else {
                0.0
            },
            completed: outcome.completed_count(),
            missed,
            expired: self.st.expired,
            expired_value: self.st.expired_value,
            abandoned: self.st.abandoned_count,
            abandoned_value: self.st.abandoned_value,
            preemptions: self.st.preemptions,
            dispatches: self.st.dispatches,
            events: self.st.events_processed,
            outcome,
            schedule: self.st.schedule,
            trajectory: self.st.trajectory,
        };
        let stats = self.watchdog.as_ref().map(|w| w.stats());
        (report, self.st.aborted, stats)
    }

    /// Runs a batch instance through the calls the streaming service makes
    /// for a stream: the monitoring plane's t = 0 oracle probe, then for
    /// each job in release order a pump to its release and the seeding of
    /// the job, then a drain. The queue holds only the live set.
    fn run<S: Scheduler + ?Sized>(
        mut self,
        scheduler: &mut S,
    ) -> (RunReport, Option<CoreError>, Option<DegradationStats>) {
        self.watch_capacity(scheduler);
        let jobs = self.jobs;
        for job in jobs.iter_by_release() {
            self.pump_ready(scheduler, job.release);
            self.seed_job(scheduler, job);
        }
        self.finish(scheduler)
    }
}

/// One kernel run: the instance, the recording options and the optional
/// attachments, consumed by [`Run::run`] (a [`RunReport`]) or, for a run
/// under a watchdog, [`Run::run_degraded`] (a [`DegradedOutcome`]), e.g.
/// `Run::new(&jobs, &cap, options).tracer(&mut sink).run(&mut sched)`.
///
/// The kernel delivers release, completion-or-failure and timer interrupts
/// in deterministic order (time, then kind, then job id for deadlines and
/// FIFO otherwise). A job's progress is the capacity integral over its
/// slice, taken from the slice's two ends, so it does not depend on which
/// instants the loop visits in between. No attachment but the watchdog
/// changes the run: a reused workspace, a trace sink or a profiler leave
/// the report bit-identical to a bare run.
pub struct Run<'a, P, T = NoopTracer> {
    jobs: &'a JobSet,
    capacity: &'a P,
    options: RunOptions,
    workspace: Option<&'a mut SimWorkspace>,
    tracer: T,
    profiler: Option<&'a Profiler>,
    watchdog: Option<(DegradationPolicy, WatchdogConfig)>,
    oracle: Option<&'a mut dyn RateOracle>,
}

impl<'a, P: CapacityProfile> Run<'a, P> {
    /// A bare run of `jobs` under `capacity`: a fresh workspace, no trace
    /// sink (instrumentation compiles away behind [`NoopTracer`]), no
    /// profiler, no watchdog.
    pub fn new(jobs: &'a JobSet, capacity: &'a P, options: RunOptions) -> Self {
        Run {
            jobs,
            capacity,
            options,
            workspace: None,
            tracer: NoopTracer,
            profiler: None,
            watchdog: None,
            oracle: None,
        }
    }
}

impl<'a, P: CapacityProfile, T: Tracer> Run<'a, P, T> {
    /// Runs in a caller-owned workspace instead of a fresh one, so a sweep
    /// allocates only until the buffers reach its high-water size. Results
    /// and trace bytes are identical to a fresh-workspace run:
    /// `SimWorkspace::begin` resets every piece of run state, including the
    /// event queue's FIFO tie-break counter.
    pub fn workspace(mut self, ws: &'a mut SimWorkspace) -> Self {
        self.workspace = Some(ws);
        self
    }

    /// Streams every kernel- and scheduler-level [`TraceEvent`] of the run
    /// into `tracer`, in deterministic order. Pass a sink by `&mut` to read
    /// it after the run.
    pub fn tracer<U: Tracer>(self, tracer: U) -> Run<'a, P, U> {
        Run {
            jobs: self.jobs,
            capacity: self.capacity,
            options: self.options,
            workspace: self.workspace,
            tracer,
            profiler: self.profiler,
            watchdog: self.watchdog,
            oracle: self.oracle,
        }
    }

    /// Brackets every scheduler handler call in a `kernel.dispatch` span.
    pub fn profiler(mut self, profiler: &'a Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Runs under a degradation policy: a [`Watchdog`] re-checks the
    /// paper's preconditions online (Definition 4 admissibility, duplicate
    /// releases, value spikes, the `c(t) >= c_lo` capacity SLA), `oracle`
    /// (the physical profile when `None`) mediates every capacity
    /// measurement the watchdog makes, and `policy` decides whether a
    /// detected fault aborts the run (`Strict`), quarantines the offender
    /// and degrades conservatively (`Degrade`), or is merely recorded
    /// (`BestEffort`). See [`crate::degrade`] for the model.
    ///
    /// Job progress always integrates the *physical* capacity profile — a
    /// faulty oracle distorts what the watchdog believes, never what the
    /// processor does. Collect the result with [`Run::run_degraded`].
    pub fn watchdog(
        mut self,
        policy: DegradationPolicy,
        cfg: WatchdogConfig,
        oracle: Option<&'a mut dyn RateOracle>,
    ) -> Self {
        self.watchdog = Some((policy, cfg));
        self.oracle = oracle;
        self
    }

    /// Runs `scheduler` to completion and reports the results.
    pub fn run<S: Scheduler + ?Sized>(self, scheduler: &mut S) -> RunReport {
        self.execute(scheduler).0
    }

    /// Runs `scheduler` under the attached watchdog. When the run completes
    /// (not aborted) with a recorded schedule, the post-hoc auditor
    /// ([`crate::audit::audit_report`]) runs over the result and its
    /// findings land in [`DegradedOutcome::audit_errors`].
    ///
    /// # Panics
    /// If no watchdog was attached with [`Run::watchdog`].
    pub fn run_degraded<S: Scheduler + ?Sized>(self, scheduler: &mut S) -> DegradedOutcome {
        assert!(
            self.watchdog.is_some(),
            "Run::run_degraded needs a watchdog attached with Run::watchdog"
        );
        let (jobs, capacity) = (self.jobs, self.capacity);
        let (report, aborted, stats) = self.execute(scheduler);
        let stats = stats.expect("invariant: a run with a watchdog returns degradation stats");
        let mut audit_errors = Vec::new();
        if aborted.is_none() && report.schedule.is_some() {
            if let Err(errors) = crate::audit::audit_report(jobs, capacity, &report) {
                audit_errors = errors;
            }
        }
        DegradedOutcome {
            report,
            aborted,
            stats,
            audit_errors,
        }
    }

    fn execute<S: Scheduler + ?Sized>(
        mut self,
        scheduler: &mut S,
    ) -> (RunReport, Option<CoreError>, Option<DegradationStats>) {
        let mut fresh = None;
        let ws = match self.workspace.take() {
            Some(ws) => ws,
            None => fresh.insert(SimWorkspace::new()),
        };
        Kernel::new(ws, &mut self).run(scheduler)
    }
}

/// Runs `scheduler` on `jobs` under `capacity` and reports the results: the
/// one-line form of `Run::new(jobs, capacity, options).run(scheduler)`.
/// Attach a workspace, trace sink, profiler or watchdog through [`Run`].
pub fn simulate<P, S>(
    jobs: &JobSet,
    capacity: &P,
    scheduler: &mut S,
    options: RunOptions,
) -> RunReport
where
    P: CapacityProfile,
    S: Scheduler + ?Sized,
{
    Run::new(jobs, capacity, options).run(scheduler)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_capacity::{Constant, PiecewiseConstant};
    use cloudsched_core::approx_eq;

    /// Minimal work-conserving FIFO used to exercise the kernel: runs the
    /// earliest-released ready job, never preempts voluntarily.
    struct TestFifo {
        ready: Vec<JobId>,
    }
    impl TestFifo {
        fn new() -> Self {
            TestFifo { ready: Vec::new() }
        }
        fn next_decision(&mut self, ctx: &SimContext<'_>) -> Decision {
            if ctx.running().is_some() {
                return Decision::Continue;
            }
            match self.ready.first().copied() {
                Some(j) => {
                    self.ready.remove(0);
                    Decision::Run(j)
                }
                None => Decision::Idle,
            }
        }
    }
    impl Scheduler for TestFifo {
        fn name(&self) -> String {
            "test-fifo".into()
        }
        fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            self.ready.push(job);
            self.next_decision(ctx)
        }
        fn on_completion(&mut self, ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
            self.next_decision(ctx)
        }
        fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            self.ready.retain(|&j| j != job);
            self.next_decision(ctx)
        }
    }

    /// Always runs the most recently released job (forces preemptions).
    struct TestLifoPreempt;
    impl Scheduler for TestLifoPreempt {
        fn name(&self) -> String {
            "test-lifo".into()
        }
        fn on_release(&mut self, _ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            Decision::Run(job)
        }
        fn on_completion(&mut self, _ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
            Decision::Continue
        }
        fn on_deadline_miss(&mut self, _ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
            Decision::Continue
        }
    }

    #[test]
    fn single_job_completes_with_exact_value() {
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 4.0, 7.0)]).unwrap();
        let cap = Constant::new(2.0).unwrap();
        let r = simulate(&jobs, &cap, &mut TestFifo::new(), RunOptions::full());
        assert_eq!(r.completed, 1);
        assert_eq!(r.missed, 0);
        assert_eq!(r.value, 7.0);
        assert_eq!(r.value_fraction, 1.0);
        match r.outcome.get(JobId(0)) {
            JobOutcome::Completed { at } => assert!(at.approx_eq(Time::new(2.0))),
            other => panic!("expected completion, got {other:?}"),
        }
        let sched = r.schedule.unwrap();
        assert_eq!(sched.len(), 1);
        assert!(approx_eq(sched.busy_time(), 2.0));
    }

    #[test]
    fn job_misses_when_capacity_too_low() {
        let jobs = JobSet::from_tuples(&[(0.0, 2.0, 10.0, 5.0)]).unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut TestFifo::new(), RunOptions::default());
        assert_eq!(r.completed, 0);
        assert_eq!(r.missed, 1);
        assert_eq!(r.value, 0.0);
        match r.outcome.get(JobId(0)) {
            JobOutcome::Missed { remaining_workload } => {
                assert!(approx_eq(remaining_workload, 8.0))
            }
            other => panic!("expected miss, got {other:?}"),
        }
    }

    #[test]
    fn zero_laxity_job_completes_exactly_at_deadline() {
        // d - r = p / c exactly: must count as completed (tolerance path).
        let jobs = JobSet::from_tuples(&[(0.0, 3.0, 3.0, 1.0)]).unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut TestFifo::new(), RunOptions::default());
        assert_eq!(r.completed, 1, "zero-laxity job must complete at deadline");
    }

    #[test]
    fn progress_integrates_across_capacity_changes() {
        // rate 1 on [0,2), rate 3 on [2,∞). Job p=5 from t=0: 2 + 3*1 = 5 at t=3.
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 5.0, 1.0)]).unwrap();
        let cap = PiecewiseConstant::from_durations(&[(2.0, 1.0), (1.0, 3.0)]).unwrap();
        let r = simulate(&jobs, &cap, &mut TestFifo::new(), RunOptions::default());
        match r.outcome.get(JobId(0)) {
            JobOutcome::Completed { at } => assert!(at.approx_eq(Time::new(3.0))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn preemption_supersedes_the_completion_and_resumes_correctly() {
        // Job 0 (p=4) starts at 0; job 1 (p=1) released at 1 preempts (LIFO);
        // job 0 is NOT resumed by this scheduler, so it misses; job 1 done at 2.
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 4.0, 1.0), (1.0, 10.0, 1.0, 2.0)]).unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut TestLifoPreempt, RunOptions::full());
        assert_eq!(r.preemptions, 1);
        assert!(r.outcome.get(JobId(1)).is_completed());
        match r.outcome.get(JobId(0)) {
            JobOutcome::Missed { remaining_workload } => {
                // Ran [0,1): 3 units left.
                assert!(approx_eq(remaining_workload, 3.0));
            }
            other => panic!("{other:?}"),
        }
        // Schedule: job0 [0,1), job1 [1,2).
        let slices = r.schedule.unwrap();
        assert_eq!(slices.slices()[0].job, JobId(0));
        assert_eq!(slices.slices()[1].job, JobId(1));
        assert!(slices.slices()[1].end.approx_eq(Time::new(2.0)));
    }

    /// Scheduler that resumes the preempted job on completion.
    struct TestLifoResume {
        stack: Vec<JobId>,
    }
    impl Scheduler for TestLifoResume {
        fn name(&self) -> String {
            "test-lifo-resume".into()
        }
        fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            if let Some(cur) = ctx.running() {
                self.stack.push(cur);
            }
            Decision::Run(job)
        }
        fn on_completion(&mut self, _ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
            match self.stack.pop() {
                Some(j) => Decision::Run(j),
                None => Decision::Idle,
            }
        }
        fn on_deadline_miss(&mut self, _ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            self.stack.retain(|&j| j != job);
            Decision::Continue
        }
    }

    #[test]
    fn preempted_job_resumes_from_point_of_preemption() {
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 4.0, 1.0), (1.0, 10.0, 1.0, 2.0)]).unwrap();
        let cap = Constant::unit();
        let mut s = TestLifoResume { stack: vec![] };
        let r = simulate(&jobs, &cap, &mut s, RunOptions::full());
        assert_eq!(r.completed, 2);
        // Job 0: [0,1) then [2,5): completes at 5.
        match r.outcome.get(JobId(0)) {
            JobOutcome::Completed { at } => assert!(at.approx_eq(Time::new(5.0))),
            other => panic!("{other:?}"),
        }
        assert_eq!(r.dispatches, 3); // job0, job1, job0 again
        let sched = r.schedule.unwrap();
        assert!(approx_eq(sched.wall_time_of(JobId(0)), 4.0));
    }

    /// Scheduler that registers a timer at release and runs the job only when
    /// the timer fires.
    struct TimerStart;
    impl Scheduler for TimerStart {
        fn name(&self) -> String {
            "test-timer".into()
        }
        fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            ctx.set_timer(Time::new(2.0), job, 42);
            Decision::Continue
        }
        fn on_completion(&mut self, _ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
            Decision::Continue
        }
        fn on_deadline_miss(&mut self, _ctx: &mut SimContext<'_>, _job: JobId) -> Decision {
            Decision::Continue
        }
        fn on_timer(&mut self, _ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
            assert_eq!(token, 42);
            Decision::Run(job)
        }
    }

    #[test]
    fn timers_fire_and_tokens_echo() {
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 1.0)]).unwrap();
        let cap = Constant::unit();
        let r = simulate(&jobs, &cap, &mut TimerStart, RunOptions::full());
        match r.outcome.get(JobId(0)) {
            JobOutcome::Completed { at } => assert!(at.approx_eq(Time::new(3.0))),
            other => panic!("{other:?}"),
        }
        let sched = r.schedule.unwrap();
        assert!(sched.slices()[0].start.approx_eq(Time::new(2.0)));
    }

    #[test]
    fn timer_for_resolved_job_is_dropped() {
        struct LateTimer;
        impl Scheduler for LateTimer {
            fn name(&self) -> String {
                "late-timer".into()
            }
            fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
                ctx.set_timer(Time::new(100.0), job, 1);
                Decision::Run(job)
            }
            fn on_completion(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
            fn on_deadline_miss(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
            fn on_timer(&mut self, _c: &mut SimContext<'_>, _j: JobId, _t: u64) -> Decision {
                panic!("timer for a resolved job must not be delivered");
            }
        }
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 1.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut LateTimer,
            RunOptions::default(),
        );
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn trajectory_records_completions() {
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 5.0), (0.0, 10.0, 1.0, 3.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut TestFifo::new(),
            RunOptions::full(),
        );
        let traj = r.trajectory.unwrap();
        assert_eq!(traj.len(), 3); // origin + 2 completions
        assert_eq!(traj[0].cumulative_value, 0.0);
        assert!(approx_eq(traj[1].cumulative_value, 5.0));
        assert!(approx_eq(traj[2].cumulative_value, 8.0));
        assert!(approx_eq(traj[2].time, 2.0));
    }

    #[test]
    fn simultaneous_releases_processed_in_id_order() {
        let jobs = JobSet::from_tuples(&[
            (1.0, 10.0, 1.0, 1.0),
            (1.0, 10.0, 1.0, 1.0),
            (1.0, 10.0, 1.0, 1.0),
        ])
        .unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut TestFifo::new(),
            RunOptions::full(),
        );
        assert_eq!(r.completed, 3);
        let order: Vec<JobId> = r.schedule.unwrap().slices().iter().map(|s| s.job).collect();
        assert_eq!(order, vec![JobId(0), JobId(1), JobId(2)]);
    }

    #[test]
    fn idle_gaps_are_respected() {
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 1.0), (5.0, 10.0, 1.0, 1.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut TestFifo::new(),
            RunOptions::full(),
        );
        let sched = r.schedule.unwrap();
        assert!(approx_eq(sched.busy_time(), 2.0));
        assert!(sched.slices()[1].start.approx_eq(Time::new(5.0)));
        assert_eq!(r.events, 4 + 2); // 2 releases + 2 deadlines + 2 completions
    }

    #[test]
    fn empty_instance_runs_trivially() {
        let jobs = JobSet::new(vec![]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut TestFifo::new(),
            RunOptions::default(),
        );
        assert_eq!(r.completed + r.missed, 0);
        assert_eq!(r.value_fraction, 0.0);
        assert_eq!(r.events, 0);
    }

    #[test]
    #[should_panic(expected = "unreleased")]
    fn dispatching_unreleased_job_panics() {
        struct Evil;
        impl Scheduler for Evil {
            fn name(&self) -> String {
                "evil".into()
            }
            fn on_release(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Run(JobId(1)) // not released yet
            }
            fn on_completion(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
            fn on_deadline_miss(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
        }
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 1.0), (5.0, 10.0, 1.0, 1.0)]).unwrap();
        simulate(&jobs, &Constant::unit(), &mut Evil, RunOptions::default());
    }

    #[test]
    #[should_panic(expected = "needs a watchdog")]
    fn degraded_terminal_requires_a_watchdog() {
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 1.0)]).unwrap();
        Run::new(&jobs, &Constant::unit(), RunOptions::default())
            .run_degraded(&mut TestFifo::new());
    }

    #[test]
    fn traced_run_emits_lifecycle_events_in_order() {
        use cloudsched_obs::RingTracer;
        // LIFO preempt: job0 admitted at 0, preempted at 1 by job1 (done at
        // 2); job0 never resumed -> expires at its deadline.
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 4.0, 1.0), (1.0, 10.0, 1.0, 2.0)]).unwrap();
        let cap = Constant::unit();
        let mut ring = RingTracer::new(64);
        let traced = Run::new(&jobs, &cap, RunOptions::full())
            .tracer(&mut ring)
            .run(&mut TestLifoPreempt);
        let kinds: Vec<&str> = ring.events().map(|e| e.kind()).collect();
        assert_eq!(
            kinds,
            vec![
                "capacity", // initial segment stamp at t=0
                "arrival",  // T0
                "admit",    // T0
                "arrival",  // T1
                "preempt",  // T0 displaced
                "admit",    // T1
                "complete", // T1
                "expire",   // T0 at its deadline
            ]
        );
        assert_eq!(traced.expired, 1);
        assert!(approx_eq(traced.expired_value, 1.0));
        assert_eq!(traced.abandoned, 0);
        // Tracing must not perturb the simulation: the untraced report is
        // identical field-for-field.
        let plain = simulate(&jobs, &cap, &mut TestLifoPreempt, RunOptions::full());
        assert_eq!(plain.events, traced.events);
        assert_eq!(plain.preemptions, traced.preemptions);
        assert_eq!(plain.value, traced.value);
        assert_eq!(plain.completed, traced.completed);
    }

    #[test]
    fn traced_run_stamps_capacity_segments() {
        use cloudsched_obs::{RingTracer, TraceEvent};
        // rate 1 on [0,2), rate 3 afterwards: segments 0 and 1.
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 5.0, 1.0)]).unwrap();
        let cap = PiecewiseConstant::from_durations(&[(2.0, 1.0), (1.0, 3.0)]).unwrap();
        let mut ring = RingTracer::new(64);
        Run::new(&jobs, &cap, RunOptions::default())
            .tracer(&mut ring)
            .run(&mut TestFifo::new());
        let segments: Vec<(f64, f64, usize)> = ring
            .events()
            .filter_map(|e| match *e {
                TraceEvent::CapacityChange { t, rate, segment } => {
                    Some((t.as_f64(), rate, segment))
                }
                _ => None,
            })
            .collect();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].2, 0);
        assert!(approx_eq(segments[0].1, 1.0));
        assert_eq!(segments[1].2, 1);
        assert!(approx_eq(segments[1].0, 2.0));
        assert!(approx_eq(segments[1].1, 3.0));
    }

    #[test]
    fn metrics_registry_folds_the_run() {
        use cloudsched_obs::MetricsRegistry;
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 1.0, 5.0), (0.0, 10.0, 1.0, 3.0)]).unwrap();
        let mut registry = MetricsRegistry::for_sim();
        Run::new(&jobs, &Constant::unit(), RunOptions::default())
            .tracer(&mut registry)
            .run(&mut TestFifo::new());
        let m = registry.snapshot();
        assert_eq!(m.counter("jobs.arrived"), 2);
        assert_eq!(m.counter("jobs.completed"), 2);
        assert!(approx_eq(m.meter("value.completed"), 8.0));
        let hist = m.histogram("laxity.at_release").expect("laxity histogram");
        assert_eq!(hist.total, 2);
    }

    #[test]
    fn abandoned_jobs_are_booked_separately_from_expired() {
        // Scheduler that explicitly gives up on every release and never runs
        // anything: all misses must be abandonments, none passive expiries.
        struct Quitter;
        impl Scheduler for Quitter {
            fn name(&self) -> String {
                "quitter".into()
            }
            fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
                ctx.abandon(job);
                Decision::Continue
            }
            fn on_completion(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
            fn on_deadline_miss(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
        }
        let jobs = JobSet::from_tuples(&[(0.0, 2.0, 1.0, 4.0), (0.0, 3.0, 1.0, 6.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut Quitter,
            RunOptions::default(),
        );
        assert_eq!(r.missed, 2);
        assert_eq!(r.abandoned, 2);
        assert_eq!(r.expired, 0);
        assert!(approx_eq(r.abandoned_value, 10.0));
        assert!(approx_eq(r.expired_value, 0.0));
    }

    #[test]
    fn run_decision_for_already_running_job_is_noop() {
        struct Redispatch;
        impl Scheduler for Redispatch {
            fn name(&self) -> String {
                "redispatch".into()
            }
            fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
                match ctx.running() {
                    Some(cur) => Decision::Run(cur), // re-dispatch current
                    None => Decision::Run(job),
                }
            }
            fn on_completion(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
            fn on_deadline_miss(&mut self, _c: &mut SimContext<'_>, _j: JobId) -> Decision {
                Decision::Continue
            }
        }
        let jobs = JobSet::from_tuples(&[(0.0, 10.0, 2.0, 1.0), (1.0, 10.0, 1.0, 1.0)]).unwrap();
        let r = simulate(
            &jobs,
            &Constant::unit(),
            &mut Redispatch,
            RunOptions::full(),
        );
        // Job 0 keeps running uninterrupted despite the redundant Run(cur):
        // exactly one slice, no preemptions.
        assert_eq!(r.preemptions, 0);
        assert_eq!(r.dispatches, 1);
        assert!(r.outcome.get(JobId(0)).is_completed());
    }

    #[test]
    fn interleaved_pump_and_seed_matches_batch_run() {
        use cloudsched_obs::RingTracer;
        // Feed the same jobs one release at a time through the streaming
        // seam (pump to each release, then admit) and compare against the
        // batch run: traces and reports must be byte-identical. Includes a
        // capacity change and co-timed releases to exercise the pump
        // boundary's priority handling.
        let tuples: &[(f64, f64, f64, f64)] = &[
            (0.0, 6.0, 3.0, 4.0),
            (1.0, 4.0, 2.0, 9.0),
            (1.0, 7.0, 1.0, 2.0),
            (3.0, 9.0, 4.0, 5.0),
        ];
        let jobs = JobSet::from_tuples(tuples).unwrap();
        let cap = PiecewiseConstant::from_durations(&[(2.0, 1.0), (10.0, 2.0)]).unwrap();

        let mut batch_ring = RingTracer::new(256);
        let mut batch_sched = TestLifoResume { stack: vec![] };
        let batch = Run::new(&jobs, &cap, RunOptions::lean())
            .tracer(&mut batch_ring)
            .run(&mut batch_sched);

        let mut stream_ring = RingTracer::new(256);
        let mut stream_sched = TestLifoResume { stack: vec![] };
        let mut ws = SimWorkspace::new();
        ws.begin(0);
        let mut st = {
            let (c_lo, c_hi) = cap.bounds();
            KernelState::new(RunOptions::lean(), c_lo, c_hi)
        };
        // The batch kernel stamps segment 0 up front; the streaming caller
        // owns that stamp (its job table starts empty).
        stream_ring.record(&TraceEvent::CapacityChange {
            t: Time::ZERO,
            rate: cap.rate_at(Time::ZERO),
            segment: 0,
        });
        for job in jobs.iter() {
            let mut k = Kernel::resume(&mut ws, &jobs, &cap, &mut stream_ring, st);
            k.pump_ready(&mut stream_sched, job.release);
            k.register_job(job);
            k.seed_job(&mut stream_sched, job);
            st = k.suspend();
        }
        let k = Kernel::resume(&mut ws, &jobs, &cap, &mut stream_ring, st);
        let (stream, aborted, _) = k.finish(&mut stream_sched);
        assert!(aborted.is_none());

        let batch_events: Vec<String> = batch_ring.events().map(|e| e.to_jsonl()).collect();
        let stream_events: Vec<String> = stream_ring.events().map(|e| e.to_jsonl()).collect();
        assert_eq!(batch_events, stream_events, "trace streams must match");
        assert_eq!(batch.value, stream.value);
        assert_eq!(batch.events, stream.events);
        assert_eq!(batch.preemptions, stream.preemptions);
        assert_eq!(batch.dispatches, stream.dispatches);
        for j in jobs.iter() {
            assert_eq!(batch.outcome.get(j.id), stream.outcome.get(j.id));
        }
    }

    /// Drives `run` as [`Kernel::run`] does, but first pumps to each of the
    /// sorted `extra` instants that lie before the next release.
    fn run_with_extra_pumps<T: Tracer>(
        mut run: Run<'_, PiecewiseConstant, T>,
        scheduler: &mut dyn Scheduler,
        extra: &[Time],
    ) -> RunReport {
        let mut ws = SimWorkspace::new();
        let jobs = run.jobs;
        let mut k = Kernel::new(&mut ws, &mut run);
        k.watch_capacity(scheduler);
        let mut extra = extra.iter().copied().peekable();
        for job in jobs.iter_by_release() {
            while let Some(t) = extra.next_if(|&t| t < job.release) {
                k.pump_ready(scheduler, t);
            }
            k.pump_ready(scheduler, job.release);
            k.seed_job(scheduler, job);
        }
        k.finish(scheduler).0
    }

    /// Pumping to extra instants between releases changes no bit: seeded
    /// instances with co-timed releases on a capacity that switches every
    /// 0.05–0.25 time units, driven by a FIFO and a preempting LIFO, traced
    /// and untraced, match a batch `Run` in every report field and every
    /// trace line.
    #[test]
    fn pumps_to_extra_instants_match_run() {
        use cloudsched_core::rng::{Pcg32, Rng};
        use cloudsched_obs::RingTracer;
        let makers: [fn() -> Box<dyn Scheduler>; 2] = [
            || Box::new(TestFifo::new()),
            || Box::new(TestLifoResume { stack: vec![] }),
        ];
        for seed in 0..24u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let mut release = 0.0;
            let tuples: Vec<(f64, f64, f64, f64)> = (0..12)
                .map(|_| {
                    release += [0.0, 0.25, 0.5, 1.5][rng.next_index(4)];
                    let window = 0.5 + rng.next_index(8) as f64 * 0.25;
                    (
                        release,
                        release + window,
                        0.1 + 2.0 * rng.next_f64(),
                        1.0 + rng.next_f64(),
                    )
                })
                .collect();
            let jobs = JobSet::from_tuples(&tuples).unwrap();
            let segments: Vec<(f64, f64)> = (0..200)
                .map(|i| (0.05 + 0.2 * rng.next_f64(), [1.0, 3.0][i % 2]))
                .collect();
            let cap = PiecewiseConstant::from_durations(&segments).unwrap();
            let mut extra: Vec<Time> = (0..30)
                .map(|_| Time::new(release * rng.next_f64()))
                .collect();
            extra.sort();
            for make in makers {
                let want = Run::new(&jobs, &cap, RunOptions::full()).run(&mut *make());
                let got = run_with_extra_pumps(
                    Run::new(&jobs, &cap, RunOptions::full()),
                    &mut *make(),
                    &extra,
                );
                let mut want_ring = RingTracer::new(1 << 12);
                Run::new(&jobs, &cap, RunOptions::full())
                    .tracer(&mut want_ring)
                    .run(&mut *make());
                let mut got_ring = RingTracer::new(1 << 12);
                let traced = run_with_extra_pumps(
                    Run::new(&jobs, &cap, RunOptions::full()).tracer(&mut got_ring),
                    &mut *make(),
                    &extra,
                );
                let lines = |r: &RingTracer| r.events().map(|e| e.to_jsonl()).collect::<Vec<_>>();
                assert_eq!(lines(&got_ring), lines(&want_ring), "seed {seed}: trace");
                for r in [&got, &traced] {
                    assert_eq!(r.value.to_bits(), want.value.to_bits(), "seed {seed}");
                    assert_eq!(
                        (r.events, r.preemptions, r.dispatches),
                        (want.events, want.preemptions, want.dispatches),
                        "seed {seed}"
                    );
                    assert_eq!(r.schedule, want.schedule, "seed {seed}: schedule");
                    for j in jobs.iter() {
                        assert_eq!(r.outcome.get(j.id), want.outcome.get(j.id), "seed {seed}");
                    }
                }
            }
        }
    }
}
