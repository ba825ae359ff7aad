//! Multi-machine fleet engine (`DESIGN.md` §16).
//!
//! The paper's model is a single processor with time-varying capacity; the
//! fleet engine shards it into `M` capacitated machines, each running its
//! *own* per-machine kernel — its own calendar [`crate::event::EventQueue`],
//! its own [`SimWorkspace`] arena, its own scheduler instance from the
//! caller's factory, its own capacity trace — behind one deterministic
//! dispatch layer. The result is the workload
//! [`cloudsched_core::par::parallel_map`] was built for: `M` independent
//! event loops with an index-ordered join.
//!
//! Determinism contract: [`run_fleet`]'s output is a pure function of
//! `(jobs, machine traces, dispatcher, scheduler factory)` — in particular
//! it is byte-identical at every `threads` value, because
//!
//! 1. the **dispatch phase is serial**: jobs are walked in release order
//!    (ties by job id) through a single [`Dispatch`] policy, against
//!    conservative per-machine backlog estimates drained by each machine's
//!    *observed past* capacity — everything an online dispatcher may know.
//!    Backlogs are kept as drain levels and computed on read, so a tick
//!    costs only the machines the policy reads;
//! 2. **steals resolve in a fixed barrier order**: capacity-recovery points
//!    (instants where a machine's rate steps *up*) are processed in
//!    ascending `(time, machine index)` order, and at each point the
//!    quarantine list is scanned in quarantine (release) order — no part of
//!    the order depends on simulation timing;
//! 3. the **simulation phase is embarrassingly parallel**: per-machine job
//!    subsets and traces are frozen before the fan-out, machines run under
//!    [`parallel_map_with`] (one reusable workspace per worker), and the
//!    join is index-ordered, so aggregate sums fold in machine order.
//!
//! A job whose chosen machine cannot conservatively meet its deadline
//! (negative fit laxity at release) is *quarantined*: it stays owned by
//! that machine but becomes steal-eligible. At every capacity-recovery
//! point the recovering machine scans the quarantine list and claims any
//! job it can now finish in time under its recovered rate (a persistence
//! heuristic — documented, not conservative); the same scan drops claimed
//! and expired entries, so the list holds only jobs a later recovery could
//! still claim. Unstolen quarantined jobs still simulate on their owner;
//! every job runs on exactly one machine, so fleet value accounting is a
//! per-machine partition.

use crate::engine::{Run, RunOptions};
use crate::report::RunReport;
use crate::scheduler::Scheduler;
use crate::workspace::SimWorkspace;
use cloudsched_capacity::{CapacityProfile, PiecewiseConstant};
use cloudsched_core::numeric::approx_ge;
use cloudsched_core::par::parallel_map_with;
use cloudsched_core::{Job, JobId, JobSet, Time};
use std::cmp::Ordering;

/// What a dispatch policy may observe when placing one job: the
/// conservative backlog estimate and declared class floor of every
/// machine, as of the job's release instant.
///
/// The view is strictly *online*: backlogs drain at each machine's
/// observed past capacity, and feasibility below is computed against the
/// declared `c_lo` — the future of any trace is unreachable from here.
///
/// Backlogs are computed on read from per-machine *drain levels*
/// (`DESIGN.md` §16.1): machine `m`'s backlog at `now` is
/// `max(level[m] − I_m(now), 0)` with `I_m` its prefix capacity integral,
/// so one read costs one memoized cursor lookup into that machine's trace
/// and a policy pays only for the machines it actually reads.
#[derive(Debug)]
pub struct FleetLoads<'a> {
    now: f64,
    capacity: &'a [PiecewiseConstant],
    level: &'a [f64],
    c_lo: &'a [f64],
}

impl FleetLoads<'_> {
    /// Number of machines in the fleet.
    pub fn machines(&self) -> usize {
        self.level.len()
    }

    /// The dispatch instant (the job's release time).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Conservative unfinished-workload estimate queued on machine `m`,
    /// in capacity-seconds.
    pub fn backlog(&self, m: usize) -> f64 {
        drained_backlog(self.level[m], &self.capacity[m], self.now)
    }

    /// Declared capacity floor of machine `m`.
    pub fn c_lo(&self, m: usize) -> f64 {
        self.c_lo[m]
    }

    /// Conservative fit laxity of `job` on machine `m`: time to the
    /// deadline minus the worst-case drain time of the machine's backlog
    /// plus this job at the declared floor `c_lo`. Negative means the
    /// machine cannot guarantee the deadline.
    pub fn fit_laxity(&self, m: usize, job: &Job) -> f64 {
        job.deadline.as_f64() - self.now - (self.backlog(m) + job.workload) / self.c_lo[m]
    }
}

/// Backlog left at `now` on a machine whose queued work runs out at prefix
/// integral `level`: the drain level minus the capacity delivered so far,
/// clamped at an empty queue.
fn drained_backlog(level: f64, capacity: &PiecewiseConstant, now: f64) -> f64 {
    (level - capacity.integral_to(Time::new(now))).max(0.0)
}

/// New drain level after queueing `workload` at `now`: an idle machine's
/// level first catches up with the capacity delivered so far.
fn raised_level(level: f64, capacity: &PiecewiseConstant, now: f64, workload: f64) -> f64 {
    level.max(capacity.integral_to(Time::new(now))) + workload
}

/// A deterministic dispatch policy: places each released job on a machine.
///
/// Implementations must be pure functions of their own state and the given
/// view — any hidden clock, map-iteration order, or ambient randomness
/// breaks the fleet's thread-count invariance (the lint scope enforces
/// this for the in-tree policies in `sched::dispatch`).
pub trait Dispatch {
    /// Stable display name (lands in [`FleetReport::dispatcher`]).
    fn name(&self) -> &str;

    /// Chooses the machine for `job`. Must return an index
    /// `< loads.machines()`.
    fn choose(&mut self, job: &Job, loads: &FleetLoads<'_>) -> usize;
}

/// One machine's slice of a fleet run.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Machine index.
    pub machine: usize,
    /// Jobs that ended up assigned (and simulated) here.
    pub jobs: usize,
    /// Quarantined jobs this machine claimed from other machines at its
    /// capacity-recovery points.
    pub steals_in: usize,
    /// The per-machine kernel's full report (dense job ids local to this
    /// machine's subset, in fleet-assignment order).
    pub report: RunReport,
}

/// Aggregate + per-machine outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Name of the dispatch policy that placed the jobs.
    pub dispatcher: String,
    /// Fleet size `M`.
    pub machines: usize,
    /// Per-machine reports, in machine-index order.
    pub per_machine: Vec<MachineReport>,
    /// Final machine of every job, indexed by job id.
    pub assignment: Vec<usize>,
    /// Jobs whose chosen machine could not conservatively meet their
    /// deadline at release (steal-eligible).
    pub quarantined: usize,
    /// Quarantined jobs claimed by a *different* machine at one of its
    /// capacity-recovery points.
    pub steals: usize,
    /// Quarantined jobs re-claimed by their own machine after its capacity
    /// recovered.
    pub readmitted: usize,
    /// Quarantined jobs no recovery point could rescue; they simulate on
    /// their owner anyway (and mostly expire there).
    pub unreclaimed: usize,
    /// Total value earned across the fleet (per-machine values summed in
    /// machine-index order).
    pub value: f64,
    /// `value / total arrived value`.
    pub value_fraction: f64,
    /// Completed jobs across the fleet.
    pub completed: usize,
    /// Deadline misses across the fleet.
    pub missed: usize,
    /// Preemptions across the fleet.
    pub preemptions: usize,
    /// Dispatches (context switches) across the fleet.
    pub dispatches: usize,
    /// Kernel events processed across the fleet.
    pub events: usize,
}

/// One entry of the serial dispatch timeline, processed in ascending
/// `(time, kind, index)` order. At equal times a recovery point resolves
/// *before* a release — the barrier order that makes steals deterministic:
/// capacity recovered at `t` is visible to a job released at `t`.
enum Tick {
    /// Machine `m`'s rate stepped up at this instant.
    Recovery { machine: usize },
    /// The job at this position of the id-sorted job slice enters the
    /// fleet.
    Release { pos: usize },
}

/// The serial dispatch phase's state. Each release touches the machines
/// its policy reads plus the chosen one; each recovery point touches the
/// recovering machine and the owners of the jobs it claims.
struct DispatchState<'a> {
    slice: &'a [Job],
    machines: &'a [PiecewiseConstant],
    c_lo: Vec<f64>,
    /// Drain level per machine, in prefix-integral space: machine `m`'s
    /// backlog at `t` is `max(level[m] − I_m(t), 0)`.
    level: Vec<f64>,
    /// Machine of every job, by slice position (`usize::MAX` until placed).
    assignment: Vec<usize>,
    /// Live quarantine in quarantine (release) order: only entries a later
    /// recovery point could still claim.
    quarantine: Vec<usize>,
    quarantined: usize,
    steals_in: Vec<usize>,
    steals: usize,
    readmitted: usize,
}

impl<'a> DispatchState<'a> {
    fn new(slice: &'a [Job], machines: &'a [PiecewiseConstant]) -> Self {
        let m_count = machines.len();
        DispatchState {
            slice,
            machines,
            c_lo: machines.iter().map(|c| c.bounds().0).collect(),
            level: vec![0.0; m_count],
            assignment: vec![usize::MAX; slice.len()],
            quarantine: Vec::new(),
            quarantined: 0,
            steals_in: vec![0; m_count],
            steals: 0,
            readmitted: 0,
        }
    }

    /// Places the job at slice position `pos`, released at `now`, and
    /// quarantines it if the chosen machine cannot conservatively meet its
    /// deadline.
    fn release(&mut self, pos: usize, now: f64, dispatch: &mut dyn Dispatch) {
        let job = &self.slice[pos];
        let loads = FleetLoads {
            now,
            capacity: self.machines,
            level: &self.level,
            c_lo: &self.c_lo,
        };
        let choice = dispatch.choose(job, &loads);
        assert!(
            choice < loads.machines(),
            "dispatcher `{}` chose machine {choice} of a {}-machine fleet",
            dispatch.name(),
            loads.machines()
        );
        let infeasible = !approx_ge(loads.fit_laxity(choice, job), 0.0);
        self.assignment[pos] = choice;
        let cap = &self.machines[choice];
        self.level[choice] = raised_level(self.level[choice], cap, now, job.workload);
        if infeasible {
            self.quarantine.push(pos);
            self.quarantined += 1;
        }
    }

    /// Machine `machine`'s rate stepped up at `now`: it claims, in
    /// quarantine order, every job its recovered rate — persisting — would
    /// finish in time behind its backlog, and the list is compacted in the
    /// same pass. Claimed entries leave; so do entries whose deadline has
    /// passed, because a steal laxity is at most `deadline − now`, which
    /// only falls as `now` advances — no later recovery could claim them.
    fn recover(&mut self, machine: usize, now: f64) {
        let (slice, cap) = (self.slice, &self.machines[machine]);
        let rate_now = cap.rate_at(Time::new(now));
        let mut quarantine = std::mem::take(&mut self.quarantine);
        quarantine.retain(|&pos| {
            let job = &slice[pos];
            let slack = job.deadline.as_f64() - now;
            let backlog = drained_backlog(self.level[machine], cap, now);
            let steal_laxity = slack - (backlog + job.workload) / rate_now;
            if !approx_ge(steal_laxity, 0.0) {
                return approx_ge(slack, 0.0);
            }
            let owner = self.assignment[pos];
            if owner == machine {
                self.readmitted += 1;
            } else {
                // The owner's clamp at an empty queue happens on read, in
                // `drained_backlog`.
                self.level[owner] -= job.workload;
                self.level[machine] = raised_level(self.level[machine], cap, now, job.workload);
                self.assignment[pos] = machine;
                self.steals += 1;
                self.steals_in[machine] += 1;
            }
            false
        });
        self.quarantine = quarantine;
    }
}

/// Runs one fleet: serial deterministic dispatch, then `M` per-machine
/// kernels fanned out over up to `threads` workers with an index-ordered
/// join. `make_scheduler(m)` is called once per machine (possibly from a
/// worker thread) and must hand out independent instances.
///
/// # Panics
/// If `machines` is empty, or the dispatcher returns an out-of-range
/// machine index.
pub fn run_fleet(
    jobs: &JobSet,
    machines: &[PiecewiseConstant],
    dispatch: &mut dyn Dispatch,
    make_scheduler: &(dyn Fn(usize) -> Box<dyn Scheduler> + Sync),
    options: RunOptions,
    threads: usize,
) -> FleetReport {
    assert!(!machines.is_empty(), "fleet requires at least one machine");
    let m_count = machines.len();
    let slice = jobs.as_slice();

    // --- dispatch phase (serial) -----------------------------------------
    // Timeline: releases in (release, id) order merged with capacity-
    // recovery points in (time, machine) order; recoveries win ties.
    let mut recoveries: Vec<(f64, usize)> = Vec::new();
    for (m, cap) in machines.iter().enumerate() {
        let mut prev = f64::INFINITY;
        for (i, seg) in cap.segments().enumerate() {
            if i > 0 && seg.rate.total_cmp(&prev) == Ordering::Greater {
                recoveries.push((seg.start.as_f64(), m));
            }
            prev = seg.rate;
        }
    }
    recoveries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut state = DispatchState::new(slice, machines);
    let mut rel_iter = jobs.iter_by_release().map(|j| j.id.index()).peekable();
    let mut rec_iter = recoveries.iter().peekable();
    loop {
        // Pick the next tick; recoveries go first on equal times.
        let (now, tick) = match (rel_iter.peek(), rec_iter.peek()) {
            (None, None) => break,
            (Some(&pos), None) => {
                rel_iter.next();
                (slice[pos].release.as_f64(), Tick::Release { pos })
            }
            (None, Some(&&(t, m))) => {
                rec_iter.next();
                (t, Tick::Recovery { machine: m })
            }
            (Some(&pos), Some(&&(t, m))) => {
                let r = slice[pos].release.as_f64();
                if t.total_cmp(&r) != Ordering::Greater {
                    rec_iter.next();
                    (t, Tick::Recovery { machine: m })
                } else {
                    rel_iter.next();
                    (r, Tick::Release { pos })
                }
            }
        };
        match tick {
            Tick::Release { pos } => state.release(pos, now, dispatch),
            Tick::Recovery { machine } => state.recover(machine, now),
        }
    }
    let DispatchState {
        assignment,
        quarantined,
        steals_in,
        steals,
        readmitted,
        ..
    } = state;
    let unreclaimed = quarantined - steals - readmitted;

    // --- simulation phase (parallel fan-out, index-ordered join) ----------
    // Freeze per-machine subsets (job-id order within a machine) with dense
    // re-ids, as the per-machine kernel requires.
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); m_count];
    for (pos, &m) in assignment.iter().enumerate() {
        members[m].push(pos);
    }
    let subsets: Vec<JobSet> = members
        .iter()
        .map(|idxs| {
            let subset: Vec<Job> = idxs
                .iter()
                .enumerate()
                .map(|(new_id, &pos)| {
                    let j = &slice[pos];
                    Job {
                        id: JobId(new_id as u64),
                        ..j.clone()
                    }
                })
                .collect();
            JobSet::new(subset).expect("invariant: re-indexing preserves per-job validity")
        })
        .collect();

    let reports: Vec<RunReport> =
        parallel_map_with(m_count, threads, SimWorkspace::new, |ws, m| {
            let mut scheduler = make_scheduler(m);
            Run::new(&subsets[m], &machines[m], options)
                .workspace(ws)
                .run(scheduler.as_mut())
        });

    // --- accounting (serial, machine-index order) -------------------------
    let mut value = 0.0f64;
    let (mut completed, mut missed) = (0usize, 0usize);
    let (mut preemptions, mut dispatches, mut events) = (0usize, 0usize, 0usize);
    let per_machine: Vec<MachineReport> = reports
        .into_iter()
        .enumerate()
        .map(|(m, report)| {
            value += report.value;
            completed += report.completed;
            missed += report.missed;
            preemptions += report.preemptions;
            dispatches += report.dispatches;
            events += report.events;
            MachineReport {
                machine: m,
                jobs: subsets[m].len(),
                steals_in: steals_in[m],
                report,
            }
        })
        .collect();
    let total = jobs.total_value();
    // lint: allow(L001) — exact zero guard before division
    let value_fraction = if total == 0.0 { 0.0 } else { value / total };

    FleetReport {
        dispatcher: dispatch.name().to_string(),
        machines: m_count,
        per_machine,
        assignment,
        quarantined,
        steals,
        readmitted,
        unreclaimed,
        value,
        value_fraction,
        completed,
        missed,
        preemptions,
        dispatches,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::JobId;

    /// Minimal deterministic test policy: fixed rotation.
    struct TestRoundRobin {
        next: usize,
    }
    impl Dispatch for TestRoundRobin {
        fn name(&self) -> &str {
            "test-rr"
        }
        fn choose(&mut self, _job: &Job, loads: &FleetLoads<'_>) -> usize {
            let m = self.next % loads.machines();
            self.next += 1;
            m
        }
    }

    /// Greedy best-fit: the machine with the largest conservative laxity.
    struct TestBestFit;
    impl Dispatch for TestBestFit {
        fn name(&self) -> &str {
            "test-best-fit"
        }
        fn choose(&mut self, job: &Job, loads: &FleetLoads<'_>) -> usize {
            let mut best = 0usize;
            for m in 1..loads.machines() {
                let better = loads
                    .fit_laxity(m, job)
                    .total_cmp(&loads.fit_laxity(best, job))
                    == Ordering::Greater;
                if better {
                    best = m;
                }
            }
            best
        }
    }

    /// FIFO test scheduler (mirrors the engine's own test scheduler).
    struct TestFifo {
        ready: Vec<JobId>,
    }
    impl TestFifo {
        fn next_decision(&mut self, ctx: &mut crate::SimContext<'_>) -> crate::Decision {
            if ctx.running().is_some() {
                return crate::Decision::Continue;
            }
            match self.ready.first().copied() {
                Some(j) => {
                    self.ready.remove(0);
                    crate::Decision::Run(j)
                }
                None => crate::Decision::Idle,
            }
        }
    }
    impl Scheduler for TestFifo {
        fn name(&self) -> String {
            "test-fifo".into()
        }
        fn on_release(&mut self, ctx: &mut crate::SimContext<'_>, job: JobId) -> crate::Decision {
            self.ready.push(job);
            self.next_decision(ctx)
        }
        fn on_completion(
            &mut self,
            ctx: &mut crate::SimContext<'_>,
            _job: JobId,
        ) -> crate::Decision {
            self.next_decision(ctx)
        }
        fn on_deadline_miss(
            &mut self,
            ctx: &mut crate::SimContext<'_>,
            job: JobId,
        ) -> crate::Decision {
            self.ready.retain(|&j| j != job);
            self.next_decision(ctx)
        }
    }

    fn factory() -> &'static (dyn Fn(usize) -> Box<dyn Scheduler> + Sync) {
        &|_m| Box::new(TestFifo { ready: Vec::new() })
    }

    fn jobs(tuples: &[(f64, f64, f64, f64)]) -> JobSet {
        JobSet::from_tuples(tuples).expect("invariant: test tuples are valid jobs")
    }

    fn flat(rate: f64) -> PiecewiseConstant {
        PiecewiseConstant::constant(rate).expect("invariant: positive test rate")
    }

    /// Rate 1 until `t`, then rate `hi` forever — one recovery point at `t`.
    fn step_up(t: f64, hi: f64) -> PiecewiseConstant {
        PiecewiseConstant::from_durations(&[(t, 1.0), (1.0, hi)])
            .expect("invariant: valid test profile")
    }

    #[test]
    #[should_panic(expected = "at least one machine")]
    fn empty_fleet_panics() {
        let js = jobs(&[(0.0, 1.0, 1.0, 1.0)]);
        let mut d = TestRoundRobin { next: 0 };
        run_fleet(&js, &[], &mut d, factory(), RunOptions::lean(), 1);
    }

    #[test]
    fn round_robin_cycles_and_every_job_is_assigned_once() {
        // (release, deadline, workload, value) tuples, generous deadlines.
        let js = jobs(&[
            (0.0, 10.0, 1.0, 1.0),
            (0.1, 10.0, 1.0, 1.0),
            (0.2, 10.0, 1.0, 1.0),
            (0.3, 10.0, 1.0, 1.0),
            (0.4, 10.0, 1.0, 1.0),
            (0.5, 10.0, 1.0, 1.0),
        ]);
        let machines = vec![flat(2.0), flat(2.0), flat(2.0)];
        let mut d = TestRoundRobin { next: 0 };
        let report = run_fleet(&js, &machines, &mut d, factory(), RunOptions::lean(), 1);
        assert_eq!(report.assignment, vec![0, 1, 2, 0, 1, 2]);
        assert_eq!(report.machines, 3);
        let per: Vec<usize> = report.per_machine.iter().map(|m| m.jobs).collect();
        assert_eq!(per, vec![2, 2, 2]);
        assert_eq!(report.completed, 6);
        assert!(approx_ge(report.value_fraction, 1.0));
    }

    #[test]
    fn fleet_value_is_the_sum_of_machine_values() {
        let js = jobs(&[
            (0.0, 2.0, 1.0, 3.0),
            (0.0, 2.0, 1.0, 5.0),
            (0.5, 4.0, 2.0, 7.0),
            (1.0, 1.5, 0.4, 2.0),
        ]);
        let machines = vec![flat(1.0), flat(1.0)];
        let mut d = TestBestFit;
        let report = run_fleet(&js, &machines, &mut d, factory(), RunOptions::lean(), 1);
        let sum: f64 = report.per_machine.iter().map(|m| m.report.value).sum();
        assert_eq!(report.value.to_bits(), sum.to_bits(), "exact partition");
        let completed: usize = report.per_machine.iter().map(|m| m.report.completed).sum();
        assert_eq!(report.completed, completed);
    }

    #[test]
    fn infeasible_placement_quarantines_and_recovery_steals() {
        // Machine 0 is busy (job 0 fills it); machine 1 is slow now but
        // steps up to rate 10 at t = 1 — job 1's only hope. The dispatcher
        // is forced to place job 1 on the saturated machine 0, where its
        // conservative laxity is negative -> quarantine; machine 1's
        // recovery point at t = 1 claims it (a cross-machine steal).
        let js = jobs(&[
            (0.0, 6.0, 5.0, 1.0), // pins machine 0 until t = 5 (feasible)
            (0.0, 2.5, 4.0, 9.0), // infeasible behind job 0 at release
        ]);
        struct PinToZero;
        impl Dispatch for PinToZero {
            fn name(&self) -> &str {
                "pin-0"
            }
            fn choose(&mut self, _job: &Job, _loads: &FleetLoads<'_>) -> usize {
                0
            }
        }
        let machines = vec![flat(1.0), step_up(1.0, 10.0)];
        let mut d = PinToZero;
        let report = run_fleet(&js, &machines, &mut d, factory(), RunOptions::lean(), 1);
        assert_eq!(
            report.quarantined, 1,
            "only job 1's placement is infeasible"
        );
        assert_eq!(report.steals, 1, "machine 1's recovery claims job 1");
        assert_eq!(
            report.assignment[1], 1,
            "job 1 moved to the recovering machine"
        );
        assert_eq!(report.per_machine[1].steals_in, 1);
        // Stolen onto machine 1 (rate 1, then 10 from t = 1): job 1's 4
        // units finish at t = 1.3 < its deadline 2.5.
        assert_eq!(report.per_machine[1].report.completed, 1);
        assert_eq!(report.unreclaimed, 0);
    }

    /// Places the i-th released job on `script[i]`.
    struct Scripted {
        script: Vec<usize>,
        next: usize,
    }
    impl Dispatch for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn choose(&mut self, _job: &Job, _loads: &FleetLoads<'_>) -> usize {
            self.next += 1;
            self.script[self.next - 1]
        }
    }

    fn scripted(script: &[usize]) -> Scripted {
        Scripted {
            script: script.to_vec(),
            next: 0,
        }
    }

    #[test]
    fn drain_levels_reproduce_eager_aging() {
        // Machine 0: rate 1 on [0, 2), rate 3 after. Job 0 (4 units) at
        // t = 0; at t = 1 one unit has drained; job 1 (2 units) joins; by
        // t = 3 the 5 remaining units meet 1 + 3 = 4 units of capacity.
        let js = jobs(&[(0.0, 9.0, 4.0, 1.0), (1.0, 9.0, 2.0, 1.0)]);
        let machines = vec![step_up(2.0, 3.0)];
        let mut state = DispatchState::new(js.as_slice(), &machines);
        let mut d = scripted(&[0, 0]);
        state.release(0, 0.0, &mut d);
        state.release(1, 1.0, &mut d);
        let at = |now: f64| drained_backlog(state.level[0], &machines[0], now);
        assert_eq!(at(1.0), 5.0);
        assert_eq!(at(3.0), 1.0);
        assert_eq!(at(4.0), 0.0, "an idle machine clamps at an empty queue");
    }

    #[test]
    fn quarantined_job_past_its_deadline_is_dropped_and_unreclaimed() {
        // Job 1 (deadline 2) lands behind job 0 on the saturated machine 0
        // and is quarantined. Machine 1's only recovery is at t = 3, after
        // that deadline: the scan drops the entry without claiming it.
        let js = jobs(&[(0.0, 6.0, 5.0, 1.0), (0.0, 2.0, 1.0, 9.0)]);
        let machines = vec![flat(1.0), step_up(3.0, 10.0)];
        let mut state = DispatchState::new(js.as_slice(), &machines);
        let mut d = scripted(&[0, 0]);
        state.release(0, 0.0, &mut d);
        state.release(1, 0.0, &mut d);
        assert_eq!(state.quarantine, vec![1]);
        state.recover(1, 3.0);
        assert!(state.quarantine.is_empty(), "expired entry compacted away");
        assert_eq!((state.steals, state.readmitted), (0, 0));

        let report = run_fleet(
            &js,
            &machines,
            &mut scripted(&[0, 0]),
            factory(),
            RunOptions::lean(),
            1,
        );
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.unreclaimed, 1);
        assert_eq!(report.assignment, vec![0, 0], "it stays on its owner");
    }

    #[test]
    fn job_due_at_the_recovery_instant_stays_claimable() {
        // Job 1 is due at t = 1, exactly when machines 1 and 2 recover.
        // Machine 1 (backlog 4 after job 2) cannot take it, but its zero
        // slack is `approx_ge` 0, so the entry survives machine 1's scan
        // and machine 2 — empty, recovering at the same instant — claims
        // it: its steal laxity −1e-11 is within tolerance of 0.
        let js = jobs(&[
            (0.0, 6.0, 5.0, 1.0),
            (0.0, 1.0, 1e-10, 9.0),
            (0.0, 9.0, 5.0, 1.0),
        ]);
        let machines = vec![flat(1.0), step_up(1.0, 10.0), step_up(1.0, 10.0)];
        let mut state = DispatchState::new(js.as_slice(), &machines);
        let mut d = scripted(&[0, 0, 1]);
        for pos in 0..3 {
            state.release(pos, 0.0, &mut d);
        }
        assert_eq!(state.quarantine, vec![1]);
        state.recover(1, 1.0);
        assert_eq!(state.quarantine, vec![1], "zero slack is still live");
        state.recover(2, 1.0);
        assert!(state.quarantine.is_empty());
        assert_eq!(state.assignment[1], 2);

        let report = run_fleet(
            &js,
            &machines,
            &mut scripted(&[0, 0, 1]),
            factory(),
            RunOptions::lean(),
            1,
        );
        assert_eq!((report.quarantined, report.steals), (1, 1));
        assert_eq!(report.per_machine[2].steals_in, 1);
        assert_eq!(report.unreclaimed, 0);
    }

    /// A seeded random fleet instance: 60 jobs on four machines whose
    /// rates step between 0.5 and 6.
    fn random_instance(seed: u64) -> (JobSet, Vec<PiecewiseConstant>) {
        use cloudsched_core::rng::{Pcg32, Rng};
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut r = 0.0;
        let tuples: Vec<(f64, f64, f64, f64)> = (0..60)
            .map(|_| {
                r += rng.next_f64() * 0.4;
                let workload = 0.2 + rng.next_f64() * 3.0;
                let deadline = r + workload * (0.3 + rng.next_f64() * 2.0);
                (r, deadline, workload, 1.0 + rng.next_f64() * 6.0)
            })
            .collect();
        let machines = (0..4)
            .map(|_| {
                let pairs: Vec<(f64, f64)> = (0..6)
                    .map(|_| (0.5 + rng.next_f64() * 3.0, 0.5 + rng.next_f64() * 5.5))
                    .collect();
                PiecewiseConstant::from_durations(&pairs).expect("invariant: valid test profile")
            })
            .collect();
        (jobs(&tuples), machines)
    }

    #[test]
    fn output_is_identical_at_every_thread_count() {
        let tuples: Vec<(f64, f64, f64, f64)> = (0..40)
            .map(|i| {
                let r = i as f64 * 0.25;
                (
                    r,
                    r + 1.5 + (i % 3) as f64,
                    0.8 + (i % 5) as f64 * 0.3,
                    1.0 + (i % 7) as f64,
                )
            })
            .collect();
        let fixed = (
            jobs(&tuples),
            vec![step_up(2.0, 8.0), flat(1.0), step_up(4.0, 6.0), flat(3.0)],
        );
        let instances = std::iter::once(fixed).chain((1..=6).map(random_instance));
        let mut quarantined = 0;
        for (i, (js, machines)) in instances.enumerate() {
            let reference = {
                let mut d = TestBestFit;
                run_fleet(&js, &machines, &mut d, factory(), RunOptions::lean(), 1)
            };
            for threads in [2, 3, 8] {
                let mut d = TestBestFit;
                let got = run_fleet(
                    &js,
                    &machines,
                    &mut d,
                    factory(),
                    RunOptions::lean(),
                    threads,
                );
                assert_eq!(
                    format!("{got:?}"),
                    format!("{reference:?}"),
                    "instance {i}: fleet output diverged at threads={threads}"
                );
            }
            for r in [reference, {
                let mut d = TestRoundRobin { next: 0 };
                run_fleet(&js, &machines, &mut d, factory(), RunOptions::lean(), 2)
            }] {
                assert_eq!(
                    r.quarantined,
                    r.steals + r.readmitted + r.unreclaimed,
                    "instance {i} ({}): every quarantined job is stolen, \
                     readmitted or unreclaimed",
                    r.dispatcher
                );
                let steals_in: usize = r.per_machine.iter().map(|m| m.steals_in).sum();
                assert_eq!(steals_in, r.steals, "instance {i} ({})", r.dispatcher);
                quarantined += r.quarantined;
            }
        }
        assert!(quarantined > 0, "the instances exercise the quarantine");
    }
}
