//! The cloudsched benchmark: three seeded workloads run against the public
//! API of `sim`, `sched`, `capacity` and `workload`.
//!
//! * An untraced run (`trace = false`) gives the end-to-end metrics.
//! * A traced run (`trace = true`) alternates untraced and traced
//!   repetitions; the traced ones wrap the traits the program takes as
//!   arguments (see [`layers`]) and give the per-layer metrics.
//!
//! Every repetition's output is checked; see each workload module.

#![forbid(unsafe_code)]

pub mod fleet;
pub mod kernel;
pub mod layers;
pub mod report;
pub mod serve;

use cloudsched_core::rng::{Pcg32, Rng};
use cloudsched_core::{Job, JobId, JobSet, Time};
use cloudsched_obs::{Clock, MonotonicClock};
use layers::SpanLog;
use report::{median, RunResult};
use std::collections::BTreeMap;
use std::fmt::Write;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One V-Dover run on the fixed-horizon burst instance.
    KernelBurst,
    /// A 64-machine fleet with power-of-two-choices dispatch.
    FleetP2c64,
    /// The crash-safe admission service over a paper §IV stream.
    ServeWal,
}

impl Workload {
    /// All workloads. `BENCHMARK.json` lists the last two; kernel-burst is
    /// too noisy on a shared box to judge changes by, and is kept for its
    /// per-layer split on deep queues.
    pub const ALL: [Workload; 3] = [
        Workload::KernelBurst,
        Workload::FleetP2c64,
        Workload::ServeWal,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::KernelBurst => "kernel-burst",
            Workload::FleetP2c64 => "fleet-p2c64",
            Workload::ServeWal => "serve-wal",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Seconds of timed repetitions (at least [`MIN_REPS`] run regardless).
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Small inputs, for the benchmark's own tests.
    pub smoke: bool,
}

/// Repetitions every run makes, however short `seconds` is.
pub const MIN_REPS: usize = 2;

/// End-to-end metrics the untraced run reports, with units. `peak_rss_mb`
/// is added by `run.py`, which measures the process from outside.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("jobs_per_s", "jobs/s"),
    ("arrival_p50_us", "us"),
    ("arrival_p99_us", "us"),
    ("value_fraction", "ratio"),
];

/// Per-layer metrics the traced run reports, with units. A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("workload.gen_ms", "ms"),
    ("sim.engine.events", "count"),
    ("sim.engine.self_ms", "ms"),
    ("sim.engine.ns_per_event", "ns"),
    ("sched.on_release.calls", "count"),
    ("sched.on_release.ms", "ms"),
    ("sched.on_completion.calls", "count"),
    ("sched.on_completion.ms", "ms"),
    ("sched.on_deadline_miss.calls", "count"),
    ("sched.on_deadline_miss.ms", "ms"),
    ("sched.on_timer.calls", "count"),
    ("sched.on_timer.ms", "ms"),
    ("sched.ns_per_call", "ns"),
    ("capacity.integrate.calls", "count"),
    ("capacity.integrate.ms", "ms"),
    ("capacity.rate_at.calls", "count"),
    ("capacity.rate_at.ms", "ms"),
    ("capacity.next_change_after.calls", "count"),
    ("capacity.next_change_after.ms", "ms"),
    ("capacity.time_to_complete.calls", "count"),
    ("capacity.time_to_complete.ms", "ms"),
    ("fleet.dispatch_phase_ms", "ms"),
    ("fleet.simulate_phase_ms", "ms"),
    ("fleet.machine_ms_p50", "ms"),
    ("fleet.machine_ms_max", "ms"),
    ("fleet.quarantined", "count"),
    ("fleet.steals", "count"),
    ("fleet.recovery_points", "count"),
    ("dispatch.choose.calls", "count"),
    ("dispatch.choose.ms", "ms"),
    ("service.pump_decide_us_p50", "us"),
    ("service.pump_decide_us_p99", "us"),
    ("service.apply_us_p50", "us"),
    ("service.apply_us_p99", "us"),
    ("service.arrival_us_q1", "us"),
    ("service.arrival_us_q4", "us"),
    ("service.growth", "ratio"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("journal.bytes", "B"),
    ("journal.svc_lines", "count"),
    ("journal.trace_lines", "count"),
    ("journal_bytes_per_arrival", "B"),
    ("snapshot.count", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.encode_ms", "ms"),
    ("recover_s", "s"),
    ("recover.header_ms", "ms"),
    ("recover.replayed_arrivals", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Metric values by name, before they are laid out in table order.
pub type Values = BTreeMap<&'static str, f64>;

/// Output-check bookkeeping: operations attempted and failed, plus a
/// description of each failure.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What failed.
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts `ops` operations, all failed unless `ok`.
    pub fn ops(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.problems.push(what());
        }
    }

    /// A check on the run as a whole rather than one operation.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// What a workload hands back: its checks, metric values and notes (lines
/// printed ahead of the result).
#[derive(Debug, Default)]
pub struct Measured {
    /// Output checks.
    pub checks: Checks,
    /// Metric values.
    pub values: Values,
    /// Human-readable lines (sample counts, digests).
    pub notes: Vec<String>,
}

/// Runs one workload and lays its metrics out in table order.
pub fn run(args: &Args, spans: &mut SpanLog) -> (RunResult, Vec<String>) {
    let clock = MonotonicClock::new();
    let m = match args.workload {
        Workload::KernelBurst => kernel::run(args, clock, spans),
        Workload::FleetP2c64 => fleet::run(args, clock, spans),
        Workload::ServeWal => serve::run(args, clock, spans),
    };
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut result = RunResult {
        correct: m.checks.problems.is_empty() && m.checks.failed == 0,
        attempted: m.checks.attempted,
        failed: m.checks.failed,
        metrics: Vec::new(),
    };
    let mut notes = m.notes;
    for name in m.values.keys() {
        if !table.iter().any(|(n, _)| n == name) {
            result.correct = false;
            notes.push(format!("bug: metric {name} is not in the metric table"));
        }
    }
    for (name, unit) in table {
        result.push(name, m.values.get(name).copied().unwrap_or(0.0), unit);
    }
    notes.extend(
        m.checks
            .problems
            .iter()
            .map(|p| format!("CHECK FAILED: {p}")),
    );
    (result, notes)
}

/// Seconds between two clock readings.
pub fn secs(t0: u64, t1: u64) -> f64 {
    t1.saturating_sub(t0) as f64 / 1e9
}

/// Set-up samples [`repeat_for`] spreads over a run's timed window, on top
/// of the first set-up of every instance.
pub const SETUP_SAMPLES: usize = 20;

/// Times set-ups: everything that precedes one timed call. `setup(seed)`
/// returns the instance and its generation nanoseconds.
pub struct Setups<F> {
    clock: MonotonicClock,
    seeds: Vec<u64>,
    setup: F,
    setup_s: Vec<f64>,
    gen_ms: Vec<f64>,
}

impl<F> Setups<F> {
    /// Set-ups of the instances drawn from `seeds`.
    pub fn new(clock: MonotonicClock, seeds: Vec<u64>, setup: F) -> Self {
        Setups {
            clock,
            seeds,
            setup,
            setup_s: Vec::new(),
            gen_ms: Vec::new(),
        }
    }

    /// Sets up instance `i`, timing it.
    pub fn one<T>(&mut self, i: usize) -> T
    where
        F: FnMut(u64) -> (T, u64),
    {
        let t0 = self.clock.now_ns();
        let (value, gen_ns) = (self.setup)(self.seeds[i]);
        self.setup_s.push(secs(t0, self.clock.now_ns()));
        self.gen_ms.push(gen_ns as f64 / 1e6);
        value
    }

    /// Sets up every instance, timing each.
    pub fn all<T>(&mut self) -> Vec<T>
    where
        F: FnMut(u64) -> (T, u64),
    {
        (0..self.seeds.len()).map(|i| self.one(i)).collect()
    }

    /// Median set-up seconds over every sample.
    pub fn setup_s(&self) -> f64 {
        median(&self.setup_s)
    }

    /// Median generation milliseconds over every sample.
    pub fn gen_ms(&self) -> f64 {
        median(&self.gen_ms)
    }
}

/// Seeds of a run's instances, derived from the workload seed. An untraced
/// run measures several instances, so that one seed's draw (a long spell of
/// low capacity, say) does not set the run's figures; the traced pass
/// measures the first one only.
pub fn instance_seeds(args: &Args, full: usize) -> Vec<u64> {
    let k = match (args.trace, args.smoke) {
        (true, _) => 1,
        (false, true) => 2,
        (false, false) => full,
    };
    let mut rng = Pcg32::seed_from_u64(args.seed);
    (0..k).map(|_| rng.next_u64()).collect()
}

/// The fastest of an instance's calls. On a shared machine other tenants'
/// load arrives in bursts lasting seconds and slows a call by up to ~60%;
/// an instance's fastest call is the one least disturbed, so every
/// end-to-end timing is taken from it.
pub fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Jobs per second over all instances at their fastest calls:
/// Σ jobs ÷ Σ fastest wall.
pub fn throughput(jobs: &[usize], walls: &[Vec<f64>]) -> f64 {
    let work: usize = jobs.iter().sum();
    let time: f64 = walls.iter().map(|w| fastest(w)).sum();
    work as f64 / time
}

/// Per-job wall time of each instance's fastest call, in microseconds.
pub fn per_job_us(jobs: &[usize], walls: &[Vec<f64>]) -> Vec<f64> {
    jobs.iter()
        .zip(walls)
        .map(|(n, w)| fastest(w) * 1e6 / *n as f64)
        .collect()
}

/// Calls `call(rep, i)` for every instance `i` of repetition `rep` = 0,
/// 1, … until `seconds` have passed and every instance ran at least
/// [`MIN_REPS`] times. The clock is read before each call, so a run
/// overshoots by at most one call.
///
/// After a call, once per `seconds / SETUP_SAMPLES`, it also calls
/// `resample(i)`, which sets instance `i` up again. Set-up time is then
/// sampled across the whole window: the machine's speed drifts over
/// seconds, and samples taken in one burst would all share one speed.
pub fn repeat_for(
    clock: MonotonicClock,
    seconds: f64,
    instances: usize,
    mut call: impl FnMut(usize, usize),
    mut resample: impl FnMut(usize),
) {
    let t0 = clock.now_ns();
    let every = seconds / SETUP_SAMPLES as f64;
    let mut next = every;
    for n in 0.. {
        let (rep, i) = (n / instances, n % instances);
        if rep >= MIN_REPS && secs(t0, clock.now_ns()) >= seconds {
            return;
        }
        call(rep, i);
        let at = secs(t0, clock.now_ns());
        if at >= next {
            resample(i);
            next = at + every;
        }
    }
}

/// Encodes jobs as an admission stream: one `{"r":…,"d":…,"p":…,"v":…}`
/// line per job, in the shortest round-trip float form.
pub fn encode_stream<'a>(jobs: impl IntoIterator<Item = &'a Job>) -> String {
    let mut out = String::new();
    for j in jobs {
        // Writing into a String cannot fail.
        let _ = writeln!(
            out,
            "{{\"r\":{},\"d\":{},\"p\":{},\"v\":{}}}",
            j.release.as_f64(),
            j.deadline.as_f64(),
            j.workload,
            j.value
        );
    }
    out
}

/// Parses an admission stream back into a job set with ids in stream order.
pub fn jobs_from_stream(stream: &str) -> Result<JobSet, String> {
    let arrivals = cloudsched_sim::parse_stream(stream).map_err(|e| e.to_string())?;
    let jobs = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| {
            Job::new(
                JobId(i as u64),
                Time::new(a.release),
                Time::new(a.deadline),
                a.workload,
                a.value,
            )
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    JobSet::new(jobs).map_err(|e| e.to_string())
}

/// Digests for the notes, one per instance.
pub fn hex(digests: &[Option<u64>]) -> String {
    let parts: Vec<String> = digests
        .iter()
        .map(|d| format!("{:016x}", d.unwrap_or(0)))
        .collect();
    parts.join(",")
}

/// Per-metric median over repetitions' value maps.
pub fn median_values(reps: &[Values]) -> Values {
    let mut out = Values::new();
    if let Some(first) = reps.first() {
        for name in first.keys() {
            let xs: Vec<f64> = reps.iter().filter_map(|r| r.get(name).copied()).collect();
            out.insert(name, median(&xs));
        }
    }
    out
}

/// The V-Dover configuration every workload runs: `k = 7`, `δ = 35`.
pub fn vdover() -> Box<dyn cloudsched_sim::Scheduler> {
    Box::new(cloudsched_sched::VDover::new(7.0, 35.0))
}

/// Inserts the scheduler-handler metrics of one traced repetition.
pub fn put_sched(v: &mut Values, stats: &[layers::SchedStats]) {
    const NAMES: [[&str; 2]; 4] = [
        ["sched.on_release.calls", "sched.on_release.ms"],
        ["sched.on_completion.calls", "sched.on_completion.ms"],
        ["sched.on_deadline_miss.calls", "sched.on_deadline_miss.ms"],
        ["sched.on_timer.calls", "sched.on_timer.ms"],
    ];
    let mut total = layers::OpStat::default();
    for (h, [calls, ms]) in NAMES.iter().enumerate() {
        let mut s = layers::OpStat::default();
        for st in stats {
            s.merge(st.handlers[h]);
        }
        total.merge(s);
        v.insert(calls, s.calls as f64);
        v.insert(ms, s.ms());
    }
    v.insert(
        "sched.ns_per_call",
        total.ns as f64 / total.calls.max(1) as f64,
    );
}

/// Inserts the capacity metrics of one traced repetition.
pub fn put_capacity(v: &mut Values, ops: [layers::OpStat; 4]) {
    const NAMES: [[&str; 2]; 4] = [
        ["capacity.integrate.calls", "capacity.integrate.ms"],
        ["capacity.rate_at.calls", "capacity.rate_at.ms"],
        [
            "capacity.next_change_after.calls",
            "capacity.next_change_after.ms",
        ],
        [
            "capacity.time_to_complete.calls",
            "capacity.time_to_complete.ms",
        ],
    ];
    for (s, [calls, ms]) in ops.iter().zip(NAMES) {
        v.insert(calls, s.calls as f64);
        v.insert(ms, s.ms());
    }
}

/// Inserts the engine metrics: `self_ns` is the traced call's wall time
/// minus the time inside the wrapped layers.
pub fn put_engine(v: &mut Values, events: usize, self_ns: u64) {
    v.insert("sim.engine.events", events as f64);
    v.insert("sim.engine.self_ms", self_ns as f64 / 1e6);
    v.insert(
        "sim.engine.ns_per_event",
        self_ns as f64 / events.max(1) as f64,
    );
}

/// Span name of an untraced repetition's timed call.
pub const CALL_UNTRACED: &str = "call.untraced";
/// Span name of a traced repetition's timed call.
pub const CALL_TRACED: &str = "call.traced";

/// `trace.overhead_frac` from the call spans: median traced wall ÷ median
/// untraced wall − 1.
pub fn overhead(spans: &SpanLog) -> f64 {
    let walls = |name: &str| -> Vec<f64> {
        spans
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| secs(s.start_ns, s.end_ns))
            .collect()
    };
    median(&walls(CALL_TRACED)) / median(&walls(CALL_UNTRACED)) - 1.0
}
