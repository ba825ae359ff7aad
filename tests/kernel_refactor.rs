//! Equivalence oracle for the indexed Dover/V-Dover queue refactor.
//!
//! `reference` reimplements the Dover family exactly as it stood before the
//! hot-path overhaul — `Qedf` as a sorted `Vec` with `remove(0)` front-pops,
//! `Qsupp` as an unordered `Vec` scanned linearly at every revival and
//! `retain`-ed at every removal — with one deliberate difference: supplement
//! revival resolves rank ties in favour of the lowest `JobId`, the
//! normalized rule the indexed queues document. Every test below drives the
//! shipped (indexed) schedulers and this reference through identical
//! workloads and asserts the kernel-visible behaviour is identical:
//!
//! * the full `Decision` sequence on the seed-7 benchmark workload
//!   (regression pin for the `remove(0)`/`retain` replacement), and
//! * complete schedules across 50 seeds × 3 capacity patterns × every
//!   supplement revival order (property sweep).
//!
//! The second half of the file is the oracle for the flat-memory kernel:
//! the bucketed calendar event queue must reproduce, over the same 50 × 3
//! sweep and the whole scheduler roster, the decisions and reports pinned
//! while a reference `BinaryHeap` backend still ran beside it and matched
//! every cell; and a service snapshot taken while the calendar is crowded
//! must restore byte-exactly through the service's serve → crash → recover
//! loop.
//!
//! The last section pins the kernel's entry points. Its digests were
//! recorded when the kernel had seven public entry functions, one per
//! attachment combination; every combination driven through the one `Run`
//! config (workspace, tracer, profiler, watchdog with its oracle) must
//! reproduce them bit for bit. Its `tie/` rows add an integer-grid family
//! whose releases, deadlines, completions and capacity boundaries coincide
//! and whose ids run against release order, so the kernel's tie order
//! (time, kind, then job id for deadlines and FIFO otherwise) is pinned.

mod common;

use cloudsched_analysis::bounds::{dover_beta, optimal_beta};
use cloudsched_capacity::{CapacityProfile, Instance, PiecewiseConstant};
use cloudsched_core::rng::{Pcg32, Rng};
use cloudsched_core::{approx_ge, Job, JobId, JobSet, Time};
use cloudsched_obs::MemJournal;
use cloudsched_sched::dover::SupplementOrder;
use cloudsched_sched::ready::DeadlineQueue;
use cloudsched_sched::vdover::VDoverConfig;
use cloudsched_sched::{by_name, Dover, VDover, SCHEDULER_NAMES};
use cloudsched_sim::{
    journal_header, recover, serve, simulate, Decision, Run, RunOptions, RunReport, Scheduler,
    ServiceConfig, SimContext, SimWorkspace,
};
use cloudsched_workload::dist::{exponential, uniform};
use cloudsched_workload::CtmcCapacity;
use common::{fnv1a_bytes, fnv1a_word, FNV_OFFSET};

mod reference {
    //! The pre-refactor Vec-backed Dover family (see the file-level docs).

    use super::*;

    #[derive(Debug, Clone, Copy)]
    pub enum Estimate {
        ClassLow,
        Fixed(f64),
    }

    impl Estimate {
        fn rate(self, ctx: &SimContext<'_>) -> f64 {
            match self {
                Estimate::ClassLow => ctx.c_lo(),
                Estimate::Fixed(c) => c,
            }
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Flag {
        Idle,
        Reg,
        Supp,
    }

    #[derive(Debug, Clone, Copy)]
    struct EdfEntry {
        job: JobId,
        deadline: Time,
        t_insert: Time,
        cslack_insert: f64,
    }

    /// Vec-backed Dover/V-Dover with the normalized lowest-id tie-break.
    #[derive(Debug, Clone)]
    pub struct VecDover {
        estimate: Estimate,
        beta: f64,
        supplement: bool,
        order: SupplementOrder,
        qedf: Vec<EdfEntry>,
        qother: DeadlineQueue,
        qsupp: Vec<JobId>,
        cslack: f64,
        flag: Flag,
        generation: Vec<u64>,
    }

    impl VecDover {
        pub fn new(
            estimate: Estimate,
            beta: f64,
            supplement: bool,
            order: SupplementOrder,
        ) -> Self {
            assert!(beta > 1.0);
            VecDover {
                estimate,
                beta,
                supplement,
                order,
                qedf: Vec::new(),
                qother: DeadlineQueue::new(),
                qsupp: Vec::new(),
                cslack: f64::INFINITY,
                flag: Flag::Idle,
                generation: Vec::new(),
            }
        }

        fn tc(&self, ctx: &SimContext<'_>, job: JobId) -> f64 {
            ctx.remaining(job) / self.estimate.rate(ctx)
        }

        fn claxity(&self, ctx: &SimContext<'_>, job: JobId) -> f64 {
            (ctx.job(job).deadline - ctx.now()).as_f64() - self.tc(ctx, job)
        }

        fn gen(&self, job: JobId) -> u64 {
            self.generation.get(job.index()).copied().unwrap_or(0)
        }

        fn bump(&mut self, job: JobId) {
            let i = job.index();
            if i >= self.generation.len() {
                self.generation.resize(i + 1, 0);
            }
            self.generation[i] += 1;
        }

        fn insert_qother(&mut self, ctx: &mut SimContext<'_>, job: JobId) {
            let d = ctx.job(job).deadline;
            let t0 = Time::new(d.as_f64() - self.tc(ctx, job));
            self.qother.insert(d, job);
            self.bump(job);
            let token = self.gen(job);
            ctx.set_timer(t0, job, token);
        }

        fn qedf_insert(&mut self, e: EdfEntry) {
            let pos = self
                .qedf
                .partition_point(|x| (x.deadline, x.job) < (e.deadline, e.job));
            self.qedf.insert(pos, e);
        }

        fn qedf_value(&self, ctx: &SimContext<'_>) -> f64 {
            self.qedf.iter().map(|e| ctx.job(e.job).value).sum()
        }

        fn remove_everywhere(&mut self, ctx: &SimContext<'_>, job: JobId) {
            let d = ctx.job(job).deadline;
            self.qother.remove(d, job);
            self.qedf.retain(|e| e.job != job);
            self.qsupp.retain(|&j| j != job);
            self.bump(job);
        }

        /// Linear-scan revival with the normalized tie-break: ties on the
        /// revival rank go to the lowest id, matching `RankedQueue`.
        fn pop_supplement(&mut self, ctx: &SimContext<'_>) -> Option<JobId> {
            if self.qsupp.is_empty() {
                return None;
            }
            let idx = match self.order {
                SupplementOrder::LatestDeadline => self
                    .qsupp
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        let (da, db) = (ctx.job(*a.1).deadline, ctx.job(*b.1).deadline);
                        da.cmp(&db).then(b.1.cmp(a.1))
                    })
                    .map(|(i, _)| i),
                SupplementOrder::EarliestDeadline => self
                    .qsupp
                    .iter()
                    .enumerate()
                    .min_by(|a, b| {
                        let (da, db) = (ctx.job(*a.1).deadline, ctx.job(*b.1).deadline);
                        da.cmp(&db).then(a.1.cmp(b.1))
                    })
                    .map(|(i, _)| i),
                SupplementOrder::HighestValue => self
                    .qsupp
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        let (va, vb) = (ctx.job(*a.1).value, ctx.job(*b.1).value);
                        va.total_cmp(&vb).then(b.1.cmp(a.1))
                    })
                    .map(|(i, _)| i),
            };
            idx.map(|i| self.qsupp.swap_remove(i))
        }

        fn handler_c(&mut self, ctx: &mut SimContext<'_>) -> Decision {
            let now = ctx.now();
            if !self.qedf.is_empty() && !self.qother.is_empty() {
                let e = self.qedf[0];
                let cs = e.cslack_insert - (now - e.t_insert).as_f64();
                let (d_o, o) = self.qother.earliest().expect("qother non-empty");
                if d_o < e.deadline && approx_ge(cs, self.tc(ctx, o)) {
                    self.qother.pop_earliest();
                    self.bump(o);
                    self.cslack = (cs - self.tc(ctx, o)).min(self.claxity(ctx, o));
                    self.flag = Flag::Reg;
                    return Decision::Run(o);
                }
                self.qedf.remove(0);
                self.cslack = cs;
                self.flag = Flag::Reg;
                return Decision::Run(e.job);
            }
            if let Some((_, o)) = self.qother.pop_earliest() {
                self.bump(o);
                self.cslack = self.claxity(ctx, o);
                self.flag = Flag::Reg;
                return Decision::Run(o);
            }
            if !self.qedf.is_empty() {
                let e = self.qedf.remove(0);
                self.cslack = e.cslack_insert - (now - e.t_insert).as_f64();
                self.flag = Flag::Reg;
                return Decision::Run(e.job);
            }
            self.cslack = f64::INFINITY;
            if let Some(s) = self.pop_supplement(ctx) {
                self.flag = Flag::Supp;
                return Decision::Run(s);
            }
            self.flag = Flag::Idle;
            Decision::Idle
        }
    }

    impl Scheduler for VecDover {
        fn name(&self) -> String {
            "VecDover(reference)".into()
        }

        fn on_release(&mut self, ctx: &mut SimContext<'_>, arr: JobId) -> Decision {
            self.bump(arr);
            match (self.flag, ctx.running()) {
                (Flag::Idle, _) | (_, None) => {
                    self.cslack = self.claxity(ctx, arr);
                    self.flag = Flag::Reg;
                    Decision::Run(arr)
                }
                (Flag::Reg, Some(cur)) => {
                    let d_arr = ctx.job(arr).deadline;
                    let d_cur = ctx.job(cur).deadline;
                    if d_arr < d_cur && approx_ge(self.cslack, self.tc(ctx, arr)) {
                        self.qedf_insert(EdfEntry {
                            job: cur,
                            deadline: d_cur,
                            t_insert: ctx.now(),
                            cslack_insert: self.cslack,
                        });
                        self.cslack = (self.cslack - self.tc(ctx, arr)).min(self.claxity(ctx, arr));
                        Decision::Run(arr)
                    } else {
                        self.insert_qother(ctx, arr);
                        Decision::Continue
                    }
                }
                (Flag::Supp, Some(cur)) => {
                    if self.supplement {
                        self.qsupp.push(cur);
                        self.bump(cur);
                    }
                    self.cslack = self.claxity(ctx, arr);
                    self.flag = Flag::Reg;
                    Decision::Run(arr)
                }
            }
        }

        fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            self.remove_everywhere(ctx, job);
            if ctx.running().is_none() {
                self.handler_c(ctx)
            } else {
                Decision::Continue
            }
        }

        fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
            self.remove_everywhere(ctx, job);
            if ctx.running().is_none() {
                self.handler_c(ctx)
            } else {
                Decision::Continue
            }
        }

        fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
            if token != self.gen(job) {
                return Decision::Continue;
            }
            let d = ctx.job(job).deadline;
            if !self.qother.contains(d, job) {
                return Decision::Continue;
            }
            self.qother.remove(d, job);
            self.bump(job);
            let mut protected = self.qedf_value(ctx);
            if self.flag == Flag::Reg {
                if let Some(cur) = ctx.running() {
                    protected += ctx.job(cur).value;
                }
            }
            if ctx.job(job).value > self.beta * protected {
                if let Some(cur) = ctx.running() {
                    match self.flag {
                        Flag::Reg => self.insert_qother(ctx, cur),
                        Flag::Supp => {
                            if self.supplement {
                                self.qsupp.push(cur);
                                self.bump(cur);
                            }
                        }
                        Flag::Idle => {}
                    }
                }
                let displaced: Vec<EdfEntry> = std::mem::take(&mut self.qedf);
                for e in displaced {
                    self.insert_qother(ctx, e.job);
                }
                self.cslack = 0.0;
                self.flag = Flag::Reg;
                Decision::Run(job)
            } else {
                if self.supplement {
                    self.qsupp.push(job);
                } else {
                    ctx.abandon(job);
                }
                Decision::Continue
            }
        }
    }
}

/// Wraps a scheduler and records every kernel callback's `Decision`.
struct Recording<S> {
    inner: S,
    log: Vec<(char, JobId, Decision)>,
}

impl<S: Scheduler> Recording<S> {
    fn new(inner: S) -> Self {
        Recording {
            inner,
            log: Vec::new(),
        }
    }
}

impl<S: Scheduler> Scheduler for Recording<S> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        let d = self.inner.on_release(ctx, job);
        self.log.push(('r', job, d));
        d
    }
    fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        let d = self.inner.on_completion(ctx, job);
        self.log.push(('c', job, d));
        d
    }
    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        let d = self.inner.on_deadline_miss(ctx, job);
        self.log.push(('m', job, d));
        d
    }
    fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        let d = self.inner.on_timer(ctx, job, token);
        self.log.push(('t', job, d));
        d
    }
}

/// Runs both schedulers on the instance and asserts the recorded decision
/// sequences, schedules and accrued values are identical.
fn assert_equivalent<A, B>(instance: &Instance, indexed: A, vec_ref: B, what: &str)
where
    A: Scheduler,
    B: Scheduler,
{
    fn run<S: Scheduler>(
        instance: &Instance,
        scheduler: S,
    ) -> (Vec<(char, JobId, Decision)>, RunReport) {
        let mut rec = Recording::new(scheduler);
        let report = simulate(
            &instance.jobs,
            &instance.capacity,
            &mut rec,
            RunOptions::full(),
        );
        (rec.log, report)
    }
    let (log_a, rep_a) = run(instance, indexed);
    let (log_b, rep_b) = run(instance, vec_ref);
    assert!(!log_a.is_empty(), "{what}: trivial (empty) decision log");
    assert_eq!(log_a, log_b, "{what}: decision sequences diverge");
    assert_eq!(
        rep_a.value.to_bits(),
        rep_b.value.to_bits(),
        "{what}: accrued value diverges"
    );
    assert_eq!(rep_a.completed, rep_b.completed, "{what}: completions");
    assert_eq!(rep_a.preemptions, rep_b.preemptions, "{what}: preemptions");
    let slices = |r: &RunReport| -> Vec<JobId> {
        r.schedule
            .as_ref()
            .expect("full run options build a schedule")
            .slices()
            .iter()
            .map(|s| s.job)
            .collect()
    };
    assert_eq!(slices(&rep_a), slices(&rep_b), "{what}: schedules diverge");
}

fn ref_vdover(k: f64, delta: f64, order: SupplementOrder) -> reference::VecDover {
    reference::VecDover::new(
        reference::Estimate::ClassLow,
        optimal_beta(k, delta),
        true,
        order,
    )
}

fn ref_dover(k: f64, c_estimate: f64) -> reference::VecDover {
    reference::VecDover::new(
        reference::Estimate::Fixed(c_estimate),
        dover_beta(k),
        false,
        SupplementOrder::LatestDeadline,
    )
}

/// Satellite (a): the indexed queues make exactly the decisions the old
/// `remove(0)`/`retain` implementation made on the seed-7 benchmark
/// workload — the overload burst that exercises `Qedf` arbitration,
/// displacement and thousands of supplement parks and rescues.
#[test]
fn indexed_queues_match_reference_decisions_on_seed7() {
    let instance = cloudsched_bench::bench_instance(1_500, 7);
    assert_equivalent(
        &instance,
        VDover::new(7.0, 35.0),
        ref_vdover(7.0, 35.0, SupplementOrder::LatestDeadline),
        "V-Dover seed 7",
    );
    assert_equivalent(
        &instance,
        Dover::new(7.0, 18.0),
        ref_dover(7.0, 18.0),
        "Dover seed 7",
    );
}

/// Burst workload for the property sweep: `n` jobs over a short horizon so
/// the queues actually fill, a 70/30 urgent/loose deadline mix.
fn burst_jobs(n: usize, seed: u64) -> JobSet {
    const H: f64 = 30.0;
    let mut rng = Pcg32::seed_from_u64(seed);
    let lambda = n as f64 / H;
    let mut jobs = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        t += exponential(&mut rng, lambda);
        let workload = exponential(&mut rng, 1.0).max(1e-9);
        let density = uniform(&mut rng, 1.0, 7.0);
        let window = if rng.next_f64() < 0.7 {
            workload + uniform(&mut rng, 0.30, 0.60) * H
        } else {
            workload + uniform(&mut rng, 0.60, 0.90) * H
        };
        jobs.push(
            Job::new(
                JobId(i as u64),
                Time::new(t),
                Time::new(t + window),
                workload,
                density * workload,
            )
            .expect("generated job parameters are positive and ordered"),
        );
    }
    JobSet::new(jobs).expect("generated ids are dense and sorted")
}

/// The three capacity patterns of the sweep: constant with wide declared
/// bounds, a fast two-state CTMC, and a deep-overload CTMC whose `c_lo`
/// makes every urgent job's zero-conservative-laxity timer fire (maximum
/// supplement-queue traffic).
fn capacity_pattern(pattern: usize, seed: u64, span: f64) -> PiecewiseConstant {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xC0FFEE);
    match pattern {
        0 => PiecewiseConstant::constant(6.0)
            .expect("constant capacity is positive")
            .with_declared_bounds(0.5, 35.0)
            .expect("declared bounds bracket the profile"),
        1 => CtmcCapacity::two_state(0.5, 35.0, span / 4.0)
            .expect("CTMC bounds are positive and ordered")
            .sample(&mut rng, span)
            .expect("sampled trace covers the span"),
        _ => CtmcCapacity::two_state(0.01, 20.0, span / 6.0)
            .expect("CTMC bounds are positive and ordered")
            .sample(&mut rng, span)
            .expect("sampled trace covers the span"),
    }
}

/// Satellite (d): across 50 seeds × 3 capacity patterns, the indexed Dover
/// queues and the old Vec implementation produce identical schedules — for
/// Dover and for V-Dover under every supplement revival order.
#[test]
fn property_indexed_and_vec_queues_agree_across_seeds_and_patterns() {
    for seed in 0..50u64 {
        let jobs = burst_jobs(60, seed);
        let span = jobs.last_deadline().as_f64() + 1.0;
        for pattern in 0..3usize {
            let instance = Instance::new(jobs.clone(), capacity_pattern(pattern, seed, span));
            let what = format!("seed {seed} pattern {pattern}");
            assert_equivalent(
                &instance,
                Dover::new(7.0, 6.0),
                ref_dover(7.0, 6.0),
                &format!("{what} Dover"),
            );
            for order in [
                SupplementOrder::LatestDeadline,
                SupplementOrder::EarliestDeadline,
                SupplementOrder::HighestValue,
            ] {
                let cfg = VDoverConfig {
                    beta: optimal_beta(7.0, 35.0),
                    supplement: true,
                    supplement_order: order,
                };
                assert_equivalent(
                    &instance,
                    VDover::from_config(cfg),
                    ref_vdover(7.0, 35.0, order),
                    &format!("{what} V-Dover {order:?}"),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Flat-memory kernel: calendar event queue pinned against the binary heap
// ---------------------------------------------------------------------------

/// One FNV digest per `(capacity pattern, scheduler)` cell of the 50-seed
/// sweep, labelled `pattern{p}/{name}`: every seed's recorded `Decision`
/// log and full report, folded in seed order.
fn queue_cell_digests() -> Vec<(String, u64)> {
    let mut cells: Vec<(String, u64)> = (0..3)
        .flat_map(|p| {
            SCHEDULER_NAMES
                .iter()
                .map(move |name| (format!("pattern{p}/{name}"), FNV_OFFSET))
        })
        .collect();
    for seed in 0..50u64 {
        let jobs = burst_jobs(60, seed);
        let span = jobs.last_deadline().as_f64() + 1.0;
        for pattern in 0..3usize {
            let instance = Instance::new(jobs.clone(), capacity_pattern(pattern, seed, span));
            let (c_lo, c_hi) = instance.capacity.bounds();
            for (i, name) in SCHEDULER_NAMES.iter().enumerate() {
                let mut sched =
                    by_name(name, 7.0, 5.0, c_lo, c_hi).expect("roster scheduler builds");
                let mut rec = Recording::new(sched.as_mut());
                let report =
                    Run::new(&instance.jobs, &instance.capacity, RunOptions::full()).run(&mut rec);
                let h = &mut cells[pattern * SCHEDULER_NAMES.len() + i].1;
                for (callback, job, decision) in &rec.log {
                    *h = fnv1a_bytes(*h, format!("{callback}{job:?}{decision:?}").as_bytes());
                }
                *h = fold_report(*h, &report, &instance.jobs);
            }
        }
    }
    cells
}

/// Renders a pinned table one `("label", 0x…),` row per line, so a single
/// assertion over two renders lists every row that moved.
fn render_rows<L: AsRef<str>>(rows: &[(L, u64)]) -> String {
    rows.iter()
        .map(|(label, h)| format!("({:?}, {h:#018x}),\n", label.as_ref()))
        .collect()
}

/// `(pattern/scheduler, digest)` over seeds 0..50, recorded when a
/// reference `BinaryHeap` event-queue backend produced the same digest for
/// every cell; the CTMC-pattern cells were re-pinned when job progress
/// became a function of the slice's ends.
const QUEUE_PINNED: &[(&str, u64)] = &[
    ("pattern0/vdover", 0x51b850a3aac442ce),
    ("pattern0/dover", 0x7cf3987ae80a279a),
    ("pattern0/dover-lo", 0x7cf3987ae80a279a),
    ("pattern0/dover-hi", 0xc3f25549c8fe2e76),
    ("pattern0/edf", 0xd414db6370a08c69),
    ("pattern0/llf", 0x1e5964e2447230d8),
    ("pattern0/fifo", 0xe6ada83f44ae66c4),
    ("pattern0/greedy", 0x08c5c9dead1876c0),
    ("pattern0/hvdf", 0x26a2cd3d848f3086),
    ("pattern1/vdover", 0x1d337a2017f7324b),
    ("pattern1/dover", 0x739bedd8dddbd3b7),
    ("pattern1/dover-lo", 0x739bedd8dddbd3b7),
    ("pattern1/dover-hi", 0x57553e0f168964b8),
    ("pattern1/edf", 0x35cb7cca1dc8e069),
    ("pattern1/llf", 0xf86261a3a025cafe),
    ("pattern1/fifo", 0x716ae9a742eb1817),
    ("pattern1/greedy", 0x31bcf92a90a39fc8),
    ("pattern1/hvdf", 0x8269b87b91cab51c),
    ("pattern2/vdover", 0x74a2edd461e775c0),
    ("pattern2/dover", 0xf8362aa3137cd0b1),
    ("pattern2/dover-lo", 0xf8362aa3137cd0b1),
    ("pattern2/dover-hi", 0x5c3449e6922fa94b),
    ("pattern2/edf", 0x375f1047ff8ed26f),
    ("pattern2/llf", 0xae30c1db12dd0f8c),
    ("pattern2/fifo", 0x0776dcf8de881cfc),
    ("pattern2/greedy", 0x07bce5866caca867),
    ("pattern2/hvdf", 0x9706131c80457fb7),
];

/// Across 50 seeds × 3 capacity patterns × the whole scheduler roster,
/// the calendar queue reproduces the decisions and reports pinned against
/// the reference heap — the CTMC patterns keep a rotating
/// `CapacityChange` armed and the deep-overload pattern floods the queue
/// with timers, so bucket spills, respreads and the overflow heap all see
/// traffic.
#[test]
fn calendar_queue_digests_match_the_pinned_oracle() {
    assert_eq!(
        render_rows(&queue_cell_digests()),
        render_rows(QUEUE_PINNED),
        "calendar-queue cells drifted from the pinned oracle"
    );
}

/// Renders a job set as the service's JSONL arrival stream, ordered by
/// release time (the admission contract).
fn stream_text(jobs: &JobSet) -> String {
    let mut out = String::new();
    for j in jobs.iter_by_release() {
        out.push_str(&format!(
            "{{\"r\":{},\"d\":{},\"p\":{},\"v\":{}}}\n",
            j.release.as_f64(),
            j.deadline.as_f64(),
            j.workload,
            j.value
        ));
    }
    out
}

/// Tentpole acceptance: a service snapshot serialised mid-run — while the
/// calendar holds a crowd of pending deadline/completion/timer events —
/// restores bit-exactly. The run is served with a seeded crash well past
/// several snapshot points, recovered from the durable journal prefix, and
/// the recovered trace and decisions must match the uninterrupted run byte
/// for byte. The test also opens the snapshot the recovery resumes from and
/// asserts its event-queue section really was populated, so the round trip
/// can't silently degrade to the trivial empty-calendar case.
#[test]
fn snapshot_round_trip_restores_a_populated_calendar() {
    let jobs = burst_jobs(80, 5);
    let span = jobs.last_deadline().as_f64() + 1.0;
    let capacity = capacity_pattern(1, 5, span);
    let (c_lo, c_hi) = capacity.bounds();
    let stream = stream_text(&jobs);
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.snapshot_every = 5;

    let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let golden = serve(&capacity, &cfg, sched.as_mut(), &stream, None).unwrap();
    assert!(!golden.crashed && golden.aborted.is_none());
    let golden_lines: Vec<String> = golden.events.iter().map(|e| e.to_jsonl()).collect();

    // Crash two thirds of the way through the stream, past many snapshots.
    let crash_at = golden.arrivals_applied * 2 / 3;
    assert!(
        crash_at >= 2 * cfg.snapshot_every,
        "crash point must land after several snapshot cadences"
    );
    let mut cfg_crash = cfg.clone();
    cfg_crash.crash_after = Some(crash_at);
    let mut journal = MemJournal::new();
    let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let crashed = serve(
        &capacity,
        &cfg_crash,
        sched.as_mut(),
        &stream,
        Some(&mut journal),
    )
    .unwrap();
    assert!(crashed.crashed);

    // The snapshot recovery resumes from (the last durable one) must carry a
    // populated event queue: snapshot blobs are `;`-separated with the queue
    // as the third section, one comma-separated entry per pending event.
    let tail = journal.synced_lines().join("\n");
    let blob = tail
        .lines()
        .rev()
        .find(|l| l.contains("\"svc\":\"snapshot\""))
        .and_then(|l| l.split("\"blob\":\"").nth(1))
        .and_then(|rest| rest.split('"').next())
        .expect("durable journal holds at least one snapshot");
    let queue_section = blob
        .split(';')
        .nth(2)
        .expect("snapshot blob has an event-queue section");
    let pending = if queue_section.is_empty() {
        0
    } else {
        queue_section.split(',').count()
    };
    assert!(
        pending >= 4,
        "snapshot must checkpoint a populated calendar, got {pending} events"
    );

    let header = journal_header(&tail).unwrap();
    let mut fresh = by_name(&header.scheduler, header.k, 5.0, c_lo, c_hi).unwrap();
    let recovered = recover(&capacity, fresh.as_mut(), &tail, &stream).unwrap();
    assert!(!recovered.crashed && recovered.aborted.is_none());
    let recovered_lines: Vec<String> = recovered.events.iter().map(|e| e.to_jsonl()).collect();
    assert_eq!(
        recovered_lines, golden_lines,
        "recovery through a populated-calendar snapshot must be byte-identical"
    );
    assert_eq!(recovered.decisions, golden.decisions);
}

// ---------------------------------------------------------------------------
// Kernel entry points: pinned digests across every attachment
// ---------------------------------------------------------------------------

/// Folds every field of a report into `h`: the counters and value sums
/// bit for bit, each job's outcome, the schedule and the trajectory.
fn fold_report(mut h: u64, r: &RunReport, jobs: &JobSet) -> u64 {
    h = fnv1a_bytes(h, r.scheduler.as_bytes());
    for word in [
        r.value.to_bits(),
        r.value_fraction.to_bits(),
        r.completed as u64,
        r.missed as u64,
        r.expired as u64,
        r.expired_value.to_bits(),
        r.abandoned as u64,
        r.abandoned_value.to_bits(),
        r.preemptions as u64,
        r.dispatches as u64,
        r.events as u64,
    ] {
        h = fnv1a_word(h, word);
    }
    for j in jobs.iter() {
        h = fnv1a_bytes(h, format!("{:?}", r.outcome.get(j.id)).as_bytes());
    }
    if let Some(schedule) = &r.schedule {
        for s in schedule.slices() {
            h = fnv1a_word(h, s.job.0);
            h = fnv1a_word(h, s.start.as_f64().to_bits());
            h = fnv1a_word(h, s.end.as_f64().to_bits());
        }
    }
    if let Some(trajectory) = &r.trajectory {
        for p in trajectory {
            h = fnv1a_word(h, p.time.to_bits());
            h = fnv1a_word(h, p.cumulative_value.to_bits());
        }
    }
    h
}

/// The attachment combinations of a plain (watchdog-free) run.
const PLAIN_CASES: &[&str] = &[
    "plain",
    "ws-fresh",
    "ws-reused",
    "noop",
    "ring",
    "jsonl",
    "ws-reused-jsonl",
    "profiler-off",
    "profiler-jsonl",
    "metrics",
];

/// Runs `name` on `instance` with the attachments `case` names and hashes
/// the report, the trace bytes (or the metrics snapshot's text) and (with
/// a profiler) the span count. `ws`
/// is one long-lived workspace shared by every `ws-reused*` case.
fn plain_case_digest(instance: &Instance, name: &str, case: &str, ws: &mut SimWorkspace) -> u64 {
    use cloudsched_obs::{
        JsonlTracer, MetricsRegistry, NoopTracer, Profiler, RingTracer, TraceEvent,
    };
    let (c_lo, c_hi) = instance.capacity.bounds();
    let mut sched = by_name(name, 7.0, 5.0, c_lo, c_hi).expect("roster scheduler builds");
    let (jobs, cap, opts) = (&instance.jobs, &instance.capacity, RunOptions::full());
    let jsonl_bytes = |t: JsonlTracer<Vec<u8>>| t.finish().expect("in-memory sink");
    let run = Run::new(jobs, cap, opts);
    let sched = sched.as_mut();
    let (report, trace, spans): (RunReport, Vec<u8>, u64) = match case {
        "plain" => (simulate(jobs, cap, sched, opts), Vec::new(), 0),
        "ws-fresh" => {
            let mut fresh = SimWorkspace::new();
            (run.workspace(&mut fresh).run(sched), Vec::new(), 0)
        }
        "ws-reused" => (run.workspace(ws).run(sched), Vec::new(), 0),
        "noop" => (run.tracer(&mut NoopTracer).run(sched), Vec::new(), 0),
        "ring" => {
            let mut ring = RingTracer::new(1 << 20);
            let r = run.tracer(&mut ring).run(sched);
            let lines: String = ring
                .events()
                .map(|e: &TraceEvent| e.to_jsonl() + "\n")
                .collect();
            (r, lines.into_bytes(), 0)
        }
        "jsonl" => {
            let mut t = JsonlTracer::new(Vec::new());
            let r = run.tracer(&mut t).run(sched);
            (r, jsonl_bytes(t), 0)
        }
        "ws-reused-jsonl" => {
            let mut t = JsonlTracer::new(Vec::new());
            let r = run.workspace(ws).tracer(&mut t).run(sched);
            (r, jsonl_bytes(t), 0)
        }
        "profiler-off" => {
            let profiler = Profiler::disabled();
            let r = run.tracer(NoopTracer).profiler(&profiler).run(sched);
            (r, Vec::new(), 0)
        }
        "profiler-jsonl" => {
            let profiler = Profiler::deterministic();
            let mut t = JsonlTracer::new(Vec::new());
            let r = run.tracer(&mut t).profiler(&profiler).run(sched);
            let spans = profiler.stats("kernel.dispatch").map_or(0, |s| s.count);
            assert!(spans > 0, "the profiler brackets every handler call");
            (r, jsonl_bytes(t), spans)
        }
        "metrics" => {
            // The snapshot's text goes where the trace bytes go: the
            // digest folds it right after the report.
            let mut registry = MetricsRegistry::for_sim();
            let r = run.tracer(&mut registry).run(sched);
            (r, registry.snapshot().render().into_bytes(), 0)
        }
        other => unreachable!("unknown case {other}"),
    };
    let h = fold_report(FNV_OFFSET, &report, jobs);
    fnv1a_word(fnv1a_bytes(h, &trace), spans)
}

/// The oracle a degraded case measures capacity through.
#[derive(Debug, Clone, Copy)]
enum OracleCase {
    Absent,
    True,
    Faulty,
}

/// Runs `name` under a watchdog with `policy` on the harsh-plan faulted
/// instance of `seed`, tracing to JSONL when `traced` (no sink otherwise),
/// and hashes the report, the trace, the degradation stats, the abort cause
/// and the audit findings.
fn degraded_case_digest(
    name: &str,
    seed: u64,
    policy: cloudsched_sim::DegradationPolicy,
    oracle: OracleCase,
    traced: bool,
) -> u64 {
    use cloudsched_faults::{oracle_seed, prepare, FaultPlan, FaultyOracle};
    use cloudsched_obs::JsonlTracer;
    use cloudsched_sim::{RateOracle, TrueOracle, WatchdogConfig};
    let plan = FaultPlan::preset("harsh").expect("harsh preset exists");
    let fi = prepare(&plan, 6.0, seed).expect("faulted instance builds");
    let (c_lo, c_hi) = fi.faulted.capacity.bounds();
    let mut sched = by_name(name, fi.k, fi.delta, c_lo, c_hi).expect("roster scheduler builds");
    let cfg = WatchdogConfig {
        max_retries: 3,
        k_limit: Some(fi.k),
    };
    let mut true_oracle = TrueOracle;
    let mut faulty = FaultyOracle::new(plan.oracle, oracle_seed(seed));
    let oracle: Option<&mut dyn RateOracle> = match oracle {
        OracleCase::Absent => None,
        OracleCase::True => Some(&mut true_oracle),
        OracleCase::Faulty => Some(&mut faulty),
    };
    let run = Run::new(&fi.faulted.jobs, &fi.faulted.capacity, RunOptions::full())
        .watchdog(policy, cfg, oracle);
    let (out, trace) = if traced {
        let mut t = JsonlTracer::new(Vec::new());
        let out = run.tracer(&mut t).run_degraded(sched.as_mut());
        (out, t.finish().expect("in-memory sink"))
    } else {
        (run.run_degraded(sched.as_mut()), Vec::new())
    };
    degraded_digest(&out, &fi.faulted.jobs, &trace)
}

/// Hashes a watchdog run: the report, the trace bytes, the degradation
/// stats, the abort cause and the audit findings.
fn degraded_digest(out: &cloudsched_sim::DegradedOutcome, jobs: &JobSet, trace: &[u8]) -> u64 {
    let mut h = fold_report(FNV_OFFSET, &out.report, jobs);
    h = fnv1a_bytes(h, trace);
    let s = &out.stats;
    for word in [
        s.faults_detected as u64,
        s.sla_violations as u64,
        s.clo_reestimates as u64,
        s.quarantined as u64,
        s.readmitted as u64,
        s.oracle_dropouts as u64,
        s.oracle_recoveries as u64,
        s.min_observed_rate.to_bits(),
        s.effective_c_lo.to_bits(),
    ] {
        h = fnv1a_word(h, word);
    }
    let aborted = out
        .aborted
        .as_ref()
        .map(|e| e.to_string())
        .unwrap_or_default();
    h = fnv1a_bytes(h, aborted.as_bytes());
    for e in &out.audit_errors {
        h = fnv1a_bytes(h, e.as_bytes());
    }
    h
}

/// An instance on a quarter-unit time grid for the tie rows: integer
/// releases, windows and workloads, capacity segments of whole length at
/// rates 1, 2 and 4 (one dip to 0.5 below the asserted `c_lo = 1`), so
/// releases, deadlines, completions and segment boundaries coincide. Job
/// ids are a seeded shuffle of release order, so co-timed deadlines are
/// not in id order; idle gaps let the capacity-marker chain run out and
/// re-arm; about one window in eight is shorter than its workload
/// (inadmissible at `c_lo`), which the watchdog quarantines.
fn tie_instance(seed: u64) -> Instance {
    const N: usize = 48;
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x7165_0000);
    let mut release = 0usize;
    let mut tuples = Vec::with_capacity(N);
    for _ in 0..N {
        release += [0, 0, 1, 1, 2, 9][rng.next_index(6)];
        let workload = 1 + rng.next_index(3);
        let window = if rng.next_index(8) == 0 {
            workload.max(2) - 1
        } else {
            workload + rng.next_index(4)
        };
        let value = workload * (1 + rng.next_index(4));
        tuples.push((release, release + window, workload, value));
    }
    let mut ids: Vec<usize> = (0..N).collect();
    for i in (1..N).rev() {
        ids.swap(i, rng.next_index(i + 1));
    }
    let jobs = tuples
        .iter()
        .zip(&ids)
        .map(|(&(r, d, p, v), &id)| {
            Job::new(
                JobId(id as u64),
                Time::new(r as f64),
                Time::new(d as f64),
                p as f64,
                v as f64,
            )
            .expect("grid jobs have positive workloads and windows")
        })
        .collect();
    let jobs = JobSet::new(jobs).expect("shuffled ids are a permutation of 0..N");
    let span = tuples.iter().map(|t| t.1).max().unwrap_or(0);
    let dip_at = 2 * span / 3;
    let mut segments = Vec::new();
    let mut t = 0;
    while t <= span {
        let (len, rate) = if t == dip_at {
            (2, 0.5)
        } else {
            let len = 1 + rng.next_index(4);
            let len = if t < dip_at { len.min(dip_at - t) } else { len };
            (len, [1.0, 2.0, 4.0][rng.next_index(3)])
        };
        segments.push((len, rate));
        t += len;
    }
    // The family must hold the ties it exists for: co-timed deadlines whose
    // ids run against release order, co-timed releases, and a segment
    // boundary that coincides with a release or a deadline.
    let ranked: Vec<(usize, usize, usize)> = tuples
        .iter()
        .zip(&ids)
        .map(|(&(r, d, _, _), &id)| (r, d, id))
        .collect();
    let pairs = || {
        ranked
            .iter()
            .enumerate()
            .flat_map(|(i, a)| ranked[i + 1..].iter().map(move |b| (a, b)))
    };
    assert!(pairs().any(|(a, b)| a.1 == b.1 && a.0 < b.0 && a.2 > b.2));
    assert!(pairs().any(|(a, b)| a.0 == b.0));
    let boundaries: Vec<usize> = segments
        .iter()
        .scan(0, |t, &(len, _)| {
            *t += len;
            Some(*t)
        })
        .collect();
    assert!(ranked
        .iter()
        .any(|&(r, d, _)| boundaries.contains(&r) || boundaries.contains(&d)));
    let segments: Vec<(f64, f64)> = segments
        .into_iter()
        .map(|(len, rate)| (len as f64, rate))
        .collect();
    let capacity = PiecewiseConstant::from_durations(&segments)
        .expect("grid segments have positive lengths and rates")
        .with_asserted_bounds(1.0, 4.0)
        .expect("asserted bounds are an interval");
    Instance::new(jobs, capacity)
}

/// Runs `name` on `instance` under a watchdog with `policy`, measuring
/// the physical profile and tracing to JSONL.
fn tie_watchdog_digest(
    instance: &Instance,
    name: &str,
    policy: cloudsched_sim::DegradationPolicy,
) -> u64 {
    use cloudsched_obs::JsonlTracer;
    use cloudsched_sim::WatchdogConfig;
    let (c_lo, c_hi) = instance.capacity.bounds();
    let mut sched = by_name(name, 7.0, 5.0, c_lo, c_hi).expect("roster scheduler builds");
    let cfg = WatchdogConfig {
        max_retries: 3,
        k_limit: Some(7.0),
    };
    let mut t = JsonlTracer::new(Vec::new());
    let out = Run::new(&instance.jobs, &instance.capacity, RunOptions::full())
        .watchdog(policy, cfg, None)
        .tracer(&mut t)
        .run_degraded(sched.as_mut());
    let trace = t.finish().expect("in-memory sink");
    degraded_digest(&out, &instance.jobs, &trace)
}

const TIE_SEEDS: [u64; 4] = [0, 1, 2, 3];
const ORACLE_SEEDS: [u64; 3] = [0, 1, 2];
const ORACLE_SCHEDULERS: [&str; 3] = ["edf", "dover", "vdover"];

/// Every `(scheduler, case)` digest, folded over [`ORACLE_SEEDS`] in order.
fn entry_point_digests() -> Vec<(String, u64)> {
    use cloudsched_sim::DegradationPolicy;
    let mut out = Vec::new();
    let mut ws = SimWorkspace::new();
    for name in ORACLE_SCHEDULERS {
        for case in PLAIN_CASES {
            let mut h = FNV_OFFSET;
            for seed in ORACLE_SEEDS {
                let jobs = burst_jobs(120, seed);
                let span = jobs.last_deadline().as_f64() + 1.0;
                let pattern = seed as usize % 3;
                let instance = Instance::new(jobs, capacity_pattern(pattern, seed, span));
                h = fnv1a_word(h, plain_case_digest(&instance, name, case, &mut ws));
            }
            out.push((format!("{name}/{case}"), h));
        }
        for policy in [
            DegradationPolicy::Strict,
            DegradationPolicy::Degrade,
            DegradationPolicy::BestEffort,
        ] {
            for oracle in [OracleCase::Absent, OracleCase::True, OracleCase::Faulty] {
                for (traced, sink) in [(true, "jsonl"), (false, "silent")] {
                    let mut h = FNV_OFFSET;
                    for seed in ORACLE_SEEDS {
                        let d = degraded_case_digest(name, seed, policy, oracle, traced);
                        h = fnv1a_word(h, d);
                    }
                    out.push((format!("{name}/watchdog-{sink}-{policy:?}-{oracle:?}"), h));
                }
            }
        }
    }
    let ties: Vec<Instance> = TIE_SEEDS.iter().map(|&s| tie_instance(s)).collect();
    for name in ORACLE_SCHEDULERS {
        for case in ["plain", "jsonl"] {
            let h = ties.iter().fold(FNV_OFFSET, |h, instance| {
                fnv1a_word(h, plain_case_digest(instance, name, case, &mut ws))
            });
            out.push((format!("tie/{name}/{case}"), h));
        }
        for policy in [
            DegradationPolicy::Strict,
            DegradationPolicy::Degrade,
            DegradationPolicy::BestEffort,
        ] {
            let h = ties.iter().fold(FNV_OFFSET, |h, instance| {
                fnv1a_word(h, tie_watchdog_digest(instance, name, policy))
            });
            out.push((format!("tie/{name}/watchdog-{policy:?}"), h));
        }
    }
    out
}

/// `(scheduler/case, digest)`, recorded on the seven-function kernel API;
/// the `tie/` rows were recorded on the kernel that pushed every job's
/// Release and Deadline before the first pop. The traced rows and the
/// V-Dover watchdog rows were re-pinned when job progress became a
/// function of the slice's ends, and the `Strict` rows when the kernel
/// began to count a superseded completion at once rather than when its
/// stale event was popped: an aborted run never popped the stale events
/// due after the abort.
const ENTRY_POINT_PINNED: &[(&str, u64)] = &[
    ("edf/plain", 0x59472d1938036ad1),
    ("edf/ws-fresh", 0x59472d1938036ad1),
    ("edf/ws-reused", 0x59472d1938036ad1),
    ("edf/noop", 0x59472d1938036ad1),
    ("edf/ring", 0xe1bf7283b8231e2c),
    ("edf/jsonl", 0xe1bf7283b8231e2c),
    ("edf/ws-reused-jsonl", 0xe1bf7283b8231e2c),
    ("edf/profiler-off", 0x59472d1938036ad1),
    ("edf/profiler-jsonl", 0xd237b7ac7069bb12),
    ("edf/metrics", 0x8be840521a788830),
    ("edf/watchdog-jsonl-Strict-Absent", 0x9ccdb936ccc7088d),
    ("edf/watchdog-silent-Strict-Absent", 0x1733187cb555d7e7),
    ("edf/watchdog-jsonl-Strict-True", 0x9ccdb936ccc7088d),
    ("edf/watchdog-silent-Strict-True", 0x1733187cb555d7e7),
    ("edf/watchdog-jsonl-Strict-Faulty", 0x9ba54525ff80c862),
    ("edf/watchdog-silent-Strict-Faulty", 0xc5bc396f9da1e612),
    ("edf/watchdog-jsonl-Degrade-Absent", 0x2ce96458e61b10cc),
    ("edf/watchdog-silent-Degrade-Absent", 0x7cb8fd13f899234d),
    ("edf/watchdog-jsonl-Degrade-True", 0x2ce96458e61b10cc),
    ("edf/watchdog-silent-Degrade-True", 0x7cb8fd13f899234d),
    ("edf/watchdog-jsonl-Degrade-Faulty", 0xbddb6be972aa859f),
    ("edf/watchdog-silent-Degrade-Faulty", 0x1c2553061164216b),
    ("edf/watchdog-jsonl-BestEffort-Absent", 0xf7f0287d4d842675),
    ("edf/watchdog-silent-BestEffort-Absent", 0x7d3dca2fdfea9479),
    ("edf/watchdog-jsonl-BestEffort-True", 0xf7f0287d4d842675),
    ("edf/watchdog-silent-BestEffort-True", 0x7d3dca2fdfea9479),
    ("edf/watchdog-jsonl-BestEffort-Faulty", 0xfea7f18ea646a265),
    ("edf/watchdog-silent-BestEffort-Faulty", 0x9bbd21bcce2e6eb8),
    ("dover/plain", 0xed905c23648bb61f),
    ("dover/ws-fresh", 0xed905c23648bb61f),
    ("dover/ws-reused", 0xed905c23648bb61f),
    ("dover/noop", 0xed905c23648bb61f),
    ("dover/ring", 0xe7368124af7f9b16),
    ("dover/jsonl", 0xe7368124af7f9b16),
    ("dover/ws-reused-jsonl", 0xe7368124af7f9b16),
    ("dover/profiler-off", 0xed905c23648bb61f),
    ("dover/profiler-jsonl", 0x32c422a83f53ea4e),
    ("dover/metrics", 0x2777895f1425b372),
    ("dover/watchdog-jsonl-Strict-Absent", 0x7e9caa2ce1eb90cb),
    ("dover/watchdog-silent-Strict-Absent", 0xa8e5573fa3f45a22),
    ("dover/watchdog-jsonl-Strict-True", 0x7e9caa2ce1eb90cb),
    ("dover/watchdog-silent-Strict-True", 0xa8e5573fa3f45a22),
    ("dover/watchdog-jsonl-Strict-Faulty", 0x60803041ed8739ff),
    ("dover/watchdog-silent-Strict-Faulty", 0xf76677916bc18608),
    ("dover/watchdog-jsonl-Degrade-Absent", 0x7bdcd32e2e890d59),
    ("dover/watchdog-silent-Degrade-Absent", 0x55530a7b32336e0f),
    ("dover/watchdog-jsonl-Degrade-True", 0x7bdcd32e2e890d59),
    ("dover/watchdog-silent-Degrade-True", 0x55530a7b32336e0f),
    ("dover/watchdog-jsonl-Degrade-Faulty", 0xd37ec80ec2448372),
    ("dover/watchdog-silent-Degrade-Faulty", 0x00ea5f5a3ba8f611),
    ("dover/watchdog-jsonl-BestEffort-Absent", 0x74584376490b354a),
    (
        "dover/watchdog-silent-BestEffort-Absent",
        0xd80b3c484902d4e6,
    ),
    ("dover/watchdog-jsonl-BestEffort-True", 0x74584376490b354a),
    ("dover/watchdog-silent-BestEffort-True", 0xd80b3c484902d4e6),
    ("dover/watchdog-jsonl-BestEffort-Faulty", 0x8e3415a2d8d1efde),
    (
        "dover/watchdog-silent-BestEffort-Faulty",
        0xae888600a1ccf7e3,
    ),
    ("vdover/plain", 0x2ba7993e56cb39d3),
    ("vdover/ws-fresh", 0x2ba7993e56cb39d3),
    ("vdover/ws-reused", 0x2ba7993e56cb39d3),
    ("vdover/noop", 0x2ba7993e56cb39d3),
    ("vdover/ring", 0xf13c4dd8ad577308),
    ("vdover/jsonl", 0xf13c4dd8ad577308),
    ("vdover/ws-reused-jsonl", 0xf13c4dd8ad577308),
    ("vdover/profiler-off", 0x2ba7993e56cb39d3),
    ("vdover/profiler-jsonl", 0xbfb334a38848a8cd),
    ("vdover/metrics", 0x1f4c3ebb6c11fa1e),
    ("vdover/watchdog-jsonl-Strict-Absent", 0xe160973aacdc0ebc),
    ("vdover/watchdog-silent-Strict-Absent", 0x644f68345fc3d7d2),
    ("vdover/watchdog-jsonl-Strict-True", 0xe160973aacdc0ebc),
    ("vdover/watchdog-silent-Strict-True", 0x644f68345fc3d7d2),
    ("vdover/watchdog-jsonl-Strict-Faulty", 0x410509e5cef5873e),
    ("vdover/watchdog-silent-Strict-Faulty", 0xce29dca2b3933e98),
    ("vdover/watchdog-jsonl-Degrade-Absent", 0xd793b60972665081),
    ("vdover/watchdog-silent-Degrade-Absent", 0x9de1bdb879f206ff),
    ("vdover/watchdog-jsonl-Degrade-True", 0xd793b60972665081),
    ("vdover/watchdog-silent-Degrade-True", 0x9de1bdb879f206ff),
    ("vdover/watchdog-jsonl-Degrade-Faulty", 0xd9a7018c96e25cdf),
    ("vdover/watchdog-silent-Degrade-Faulty", 0xbe19b29e3b736f67),
    (
        "vdover/watchdog-jsonl-BestEffort-Absent",
        0x23201926a143e9a9,
    ),
    (
        "vdover/watchdog-silent-BestEffort-Absent",
        0x9a726a417ce15ae9,
    ),
    ("vdover/watchdog-jsonl-BestEffort-True", 0x23201926a143e9a9),
    ("vdover/watchdog-silent-BestEffort-True", 0x9a726a417ce15ae9),
    (
        "vdover/watchdog-jsonl-BestEffort-Faulty",
        0x2165e1eea9c48b72,
    ),
    (
        "vdover/watchdog-silent-BestEffort-Faulty",
        0xe1429255f33fc350,
    ),
    ("tie/edf/plain", 0x9a0c9cbf07f47ec2),
    ("tie/edf/jsonl", 0xb15fdca7062fc441),
    ("tie/edf/watchdog-Strict", 0x8cc8f7eff255c334),
    ("tie/edf/watchdog-Degrade", 0xc04474e2e9a5d35f),
    ("tie/edf/watchdog-BestEffort", 0xacdcbc11bdcd6afa),
    ("tie/dover/plain", 0x65a7b55fc6d131d7),
    ("tie/dover/jsonl", 0x317ce05f57d25845),
    ("tie/dover/watchdog-Strict", 0xafca06d894b1d128),
    ("tie/dover/watchdog-Degrade", 0xfbd1565925eda5c9),
    ("tie/dover/watchdog-BestEffort", 0xca619957d5f8f025),
    ("tie/vdover/plain", 0x730fd50bda225848),
    ("tie/vdover/jsonl", 0x102ecd1f8f320b70),
    ("tie/vdover/watchdog-Strict", 0x6edb90464798a060),
    ("tie/vdover/watchdog-Degrade", 0x043dbbab9a828e92),
    ("tie/vdover/watchdog-BestEffort", 0xcc04bc62efa1ca4c),
];

/// Every way of driving the kernel — fresh or reused workspace, no tracer
/// or a ring / JSONL / metrics sink, with or without a profiler, and
/// under a watchdog with each degradation policy and oracle — reproduces
/// the digests pinned on the seven-function API bit for bit, and the
/// co-timed integer-grid family reproduces its rows plain, traced and under
/// each degradation policy.
#[test]
fn entry_point_digests_match_the_pinned_oracle() {
    assert_eq!(
        render_rows(&entry_point_digests()),
        render_rows(ENTRY_POINT_PINNED),
        "entry-point rows drifted from the pinned oracle"
    );
}

// ---------------------------------------------------------------------------
// Extra visits change no bit
// ---------------------------------------------------------------------------

/// An instance on which the set of visited instants matters: releases and
/// windows on a quarter-unit grid (co-timed releases, co-timed deadlines,
/// deadlines on releases), ids a seeded shuffle of release order,
/// off-grid workloads, and a two-state capacity that switches every 0.15
/// time units on average, so most slices span several boundaries.
fn visit_instance(seed: u64) -> Instance {
    const N: usize = 40;
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x0715_17ed);
    let mut release = 0usize;
    let mut tuples = Vec::with_capacity(N);
    for _ in 0..N {
        release += [0, 0, 1, 2, 4][rng.next_index(5)];
        let window = 2 + rng.next_index(12);
        let workload = exponential(&mut rng, 0.8).max(1e-3);
        let value = workload * uniform(&mut rng, 1.0, 7.0);
        tuples.push((release, release + window, workload, value));
    }
    let mut ids: Vec<u64> = (0..N as u64).collect();
    for i in (1..N).rev() {
        ids.swap(i, rng.next_index(i + 1));
    }
    let quarter = |q: usize| Time::new(q as f64 * 0.25);
    let jobs = tuples
        .iter()
        .zip(&ids)
        .map(|(&(r, d, p, v), &id)| {
            Job::new(JobId(id), quarter(r), quarter(d), p, v)
                .expect("grid jobs have positive workloads and windows")
        })
        .collect();
    let jobs = JobSet::new(jobs).expect("shuffled ids are a permutation of 0..N");
    let span = jobs.last_deadline().as_f64() + 1.0;
    let capacity = CtmcCapacity::two_state(1.0, 3.0, 0.15)
        .expect("CTMC bounds are positive and ordered")
        .sample(&mut rng, span)
        .expect("sampled trace covers the span");
    Instance::new(jobs, capacity)
}

/// Extra visits change no bit. A JSONL tracer arms a capacity marker at
/// every boundary, so the traced run visits instants inside the running
/// job's slice that the plain, the profiled and the reused-workspace runs
/// skip. Progress is a function of the slice's two ends, so every report —
/// counters, value sums, per-job outcomes, schedule and trajectory — is
/// bit-identical across the four shapes, for every scheduler.
#[test]
fn extra_visits_change_no_bit() {
    use cloudsched_obs::{JsonlTracer, Profiler};
    let mut ws = SimWorkspace::new();
    for seed in 0..16u64 {
        let instance = visit_instance(seed);
        let (jobs, cap) = (&instance.jobs, &instance.capacity);
        let (c_lo, c_hi) = cap.bounds();
        for name in SCHEDULER_NAMES {
            let sched = || by_name(name, 7.0, 5.0, c_lo, c_hi).expect("roster scheduler builds");
            let run = || Run::new(jobs, cap, RunOptions::full());
            let plain = run().run(sched().as_mut());
            let mut sink = JsonlTracer::new(Vec::new());
            let traced = run().tracer(&mut sink).run(sched().as_mut());
            let trace = String::from_utf8(sink.finish().expect("in-memory sink"))
                .expect("JSONL traces are UTF-8");
            let markers = trace.matches("\"ev\":\"capacity\"").count();
            assert!(markers > 40, "seed {seed}: only {markers} capacity markers");
            let profiler = Profiler::deterministic();
            let profiled = run().profiler(&profiler).run(sched().as_mut());
            let reused = run().workspace(&mut ws).run(sched().as_mut());
            let want = fold_report(FNV_OFFSET, &plain, jobs);
            for (shape, report) in [
                ("jsonl", &traced),
                ("profiled", &profiled),
                ("reused", &reused),
            ] {
                assert_eq!(
                    fold_report(FNV_OFFSET, report, jobs),
                    want,
                    "seed {seed} {name}: the {shape} run differs from the plain run"
                );
            }
        }
    }
}
