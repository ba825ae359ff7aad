//! The kernel hot-path benchmark behind `cloudsched bench`: seeded EDF /
//! Dover / V-Dover runs at n ∈ {1e3, 1e4, 1e5, 1e6} jobs, reporting
//! nanoseconds per scheduling decision and total wall time, serialized to
//! `BENCH_kernel.json` at the repository root (rows laid out by
//! [`KERNEL_SCHEMA`]) so the perf trajectory of the project is
//! reproducible and diffable.
//!
//! Timing flows through the [`cloudsched_obs::Clock`] seam
//! ([`MonotonicClock`] — the bench crate is the sanctioned wall-clock user,
//! lint rules L005/L006); the workload generator is fully deterministic in
//! the seed, so two runs on the same machine measure the same instruction
//! stream.

use crate::row::{Row, KERNEL_SCHEMA};
use cloudsched_capacity::Instance;
use cloudsched_core::rng::{Pcg32, Rng};
use cloudsched_core::{Job, JobId, JobSet, Time};
use cloudsched_obs::{Clock, MonotonicClock};
use cloudsched_sched::{SchedulerSpec, VDoverConfig};
use cloudsched_sim::{RunOptions, SimWorkspace};
use cloudsched_workload::dist::{exponential, uniform};
use cloudsched_workload::CtmcCapacity;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct KernelBenchConfig {
    /// Instance sizes to sweep (default `[1_000, 10_000, 100_000, 1_000_000]`).
    pub sizes: Vec<usize>,
    /// Workload seed (default 7, the golden-trace seed).
    pub seed: u64,
    /// Timed repetitions per cell; the fastest run is reported (default 3).
    pub reps: usize,
}

impl Default for KernelBenchConfig {
    fn default() -> Self {
        KernelBenchConfig {
            sizes: vec![1_000, 10_000, 100_000, 1_000_000],
            seed: 7,
            reps: 3,
        }
    }
}

impl KernelBenchConfig {
    /// CI smoke configuration: n = 1e3 only, single repetition.
    pub fn quick() -> Self {
        KernelBenchConfig {
            sizes: vec![1_000],
            seed: 7,
            reps: 1,
        }
    }
}

/// Arrival horizon of the benchmark workload (time units). All `n` jobs
/// are released within `[0, HORIZON]`, so the arrival rate — and with it
/// the instantaneous queue depth — scales linearly with `n`. A fixed-rate
/// generator keeps queue depths at O(λ) no matter how large `n` grows and
/// linear-time queue operations never surface; the fixed-horizon burst is
/// what makes O(n) work inside the event loop visible as a super-linear
/// ns/decision trend across the sweep.
const HORIZON: f64 = 100.0;

/// The schedulers the sweep measures. Dover gets the mid-class capacity
/// estimate the paper's §IV uses against C(1, 35).
fn specs() -> Vec<SchedulerSpec> {
    vec![
        SchedulerSpec::Edf,
        SchedulerSpec::Dover {
            k: 7.0,
            c_estimate: 18.0,
        },
        SchedulerSpec::VDover(VDoverConfig::paper(7.0, 35.0)),
    ]
}

/// Fraction of *urgent* jobs — short windows, negative conservative laxity
/// at `c_lo`, so every one of them runs the zero-laxity arbitration path
/// (the paper's §IV overload regime).
const TIGHT_SHARE: f64 = 0.9;

/// Generates the benchmark instance: exactly `n` jobs released over the
/// fixed `HORIZON` with Exp(n/HORIZON) inter-arrivals, Exp(1) workloads
/// and value densities U[1, 7]; capacity follows the two-state CTMC on
/// {0.01, 35} with mean sojourn a quarter of the horizon (so the run
/// alternates between deep overload and fast drains that exercise the
/// supplement-rescue path). Deadlines are a 90/10 mix: *urgent* jobs get
/// windows of 40–70% of the horizon — under `c_lo = 0.01` the estimated
/// processing time `p/c_lo = 100·p` typically exceeds the window, so their
/// zero-laxity interrupts fire early, the Dover arbitration path runs for
/// every one of them, and the losers dwell in `Qsupp` until their deadline
/// — while *loose* jobs get a batch-style window of 70–95% of the horizon.
/// Because the arrival rate grows with `n`, every queue a scheduler keeps
/// (ready sets, `Qother`, `Qsupp`) holds Θ(n) jobs at the peak, and any
/// linear-time queue operation inside the event loop shows up as a
/// super-linear ns/decision trend across the sweep.
pub fn bench_instance(n: usize, seed: u64) -> Instance {
    let mut rng = Pcg32::seed_from_u64(seed);
    let lambda = n as f64 / HORIZON;
    let mut jobs = Vec::with_capacity(n);
    let mut t = 0.0f64;
    for i in 0..n {
        t += exponential(&mut rng, lambda);
        let workload = exponential(&mut rng, 1.0).max(1e-9);
        let density = uniform(&mut rng, 1.0, 7.0);
        let window = if rng.next_f64() < TIGHT_SHARE {
            workload + uniform(&mut rng, 0.40, 0.70) * HORIZON
        } else {
            workload + uniform(&mut rng, 0.70, 0.95) * HORIZON
        };
        jobs.push(
            Job::new(
                JobId(i as u64),
                Time::new(t),
                Time::new(t + window),
                workload,
                density * workload,
            )
            .expect("invariant: generated job parameters are positive and ordered"),
        );
    }
    let jobs = JobSet::new(jobs).expect("invariant: generated ids are dense and sorted");
    let horizon = (jobs.last_deadline().as_f64() + 1.0).max(1.0);
    let chain = CtmcCapacity::two_state(0.01, 35.0, HORIZON / 4.0)
        .expect("invariant: CTMC bounds are positive and ordered");
    let capacity = chain
        .sample(&mut rng, horizon)
        .expect("invariant: sampled capacity trace covers a positive horizon");
    Instance::new(jobs, capacity)
}

/// Measures one `(instance, spec)` cell: runs the simulation `reps` times
/// and reports the fastest wall time, normalised per kernel decision (the
/// processed-event count, which is independent of wall time). Every
/// repetition gets a fresh workspace, so each one pays the same allocator
/// warm-up.
fn measure(instance: &Instance, spec: &SchedulerSpec, reps: usize, seed: u64) -> Row {
    let clock = MonotonicClock::new();
    let mut best_ns = u64::MAX;
    let mut decisions = 1usize;
    for _ in 0..reps.max(1) {
        let mut ws = SimWorkspace::new();
        let t0 = clock.now_ns();
        let report = crate::run_instance_in(&mut ws, instance, spec, RunOptions::lean());
        let elapsed = clock.now_ns().saturating_sub(t0);
        best_ns = best_ns.min(elapsed.max(1));
        decisions = report.events.max(1);
    }
    Row::new(
        &KERNEL_SCHEMA,
        vec![
            ("n", instance.job_count().into()),
            ("scheduler", spec.name().into()),
            (
                "ns_per_decision",
                (best_ns as f64 / decisions as f64).into(),
            ),
            ("wall_ms", (best_ns as f64 / 1e6).into()),
            ("seed", seed.into()),
        ],
    )
}

/// Runs the full sweep: every scheduler at every size, in deterministic
/// order (sizes ascending, schedulers EDF → Dover → V-Dover). `progress`
/// receives one line per completed cell.
pub fn run_kernel_bench(cfg: &KernelBenchConfig, mut progress: impl FnMut(&Row)) -> Vec<Row> {
    let mut rows = Vec::new();
    for &n in &cfg.sizes {
        let instance = bench_instance(n, cfg.seed);
        for spec in specs() {
            let row = measure(&instance, &spec, cfg.reps, cfg.seed);
            progress(&row);
            rows.push(row);
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{parse_report, render_report};

    #[test]
    fn instance_is_deterministic_and_sized() {
        let a = bench_instance(500, 7);
        let b = bench_instance(500, 7);
        assert_eq!(a.job_count(), 500);
        assert_eq!(b.job_count(), 500);
        for (x, y) in a.jobs.iter().zip(b.jobs.iter()) {
            assert_eq!(x.release, y.release);
            assert_eq!(x.deadline, y.deadline);
        }
        let c = bench_instance(500, 8);
        assert!(a
            .jobs
            .iter()
            .zip(c.jobs.iter())
            .any(|(x, y)| x.release != y.release));
    }

    #[test]
    fn quick_sweep_produces_schema_valid_rows() {
        let cfg = KernelBenchConfig {
            sizes: vec![200],
            seed: 7,
            reps: 1,
        };
        let rows = run_kernel_bench(&cfg, |_| {});
        assert_eq!(rows.len(), 3, "EDF, Dover, V-Dover");
        let json = render_report(&rows);
        let back = parse_report(&json).expect("round trip");
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(back.iter()) {
            assert_eq!(a.text("scheduler"), b.text("scheduler"));
            assert_eq!(a.int("n"), b.int("n"));
            assert_eq!(a.int("seed"), b.int("seed"));
        }
    }

    #[test]
    fn validator_rejects_malformed_reports() {
        assert!(parse_report("").is_err());
        assert!(parse_report("[\n]\n").is_err(), "no rows");
        assert!(parse_report("[\n  {\"bench\":\"kernel\"}\n]\n").is_err());
        assert!(parse_report(
            "[\n  {\"bench\":\"k\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":-1,\"wall_ms\":1,\"seed\":7}\n]\n"
        )
        .is_err(), "negative ns/decision");
        assert!(parse_report(
            "[\n  {\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":-1,\"wall_ms\":1,\"seed\":7}\n]\n"
        )
        .is_err(), "negative ns/decision");
        assert!(parse_report("[\n  {\"n\":1}\n").is_err(), "unclosed array");
        // The suite comes from `bench`: a kernel-shaped row under another
        // name is not a kernel row.
        assert!(parse_report(
            "[\n  {\"bench\":\"k\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":1,\"wall_ms\":1,\"seed\":7}\n]\n"
        ).is_err(), "unknown bench name");
        // Kernel rows have no `queue` field: a row carrying one is
        // malformed, whichever backend it names.
        for queue in ["flat", "heap"] {
            assert!(parse_report(&format!(
                "[\n  {{\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":1,\"wall_ms\":1,\"seed\":7,\"queue\":\"{queue}\"}}\n]\n"
            )).is_err(), "queue field ({queue})");
        }
        assert!(parse_report(
            "[\n  {\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":1,\"wall_ms\":1,\"seed\":7,\"x\":1}\n]\n"
        ).is_err(), "extra field after seed");
        let good = "  {\"bench\":\"kernel\",\"n\":1,\"scheduler\":\"EDF\",\"ns_per_decision\":1,\"wall_ms\":1,\"seed\":7}";
        assert!(parse_report(&format!("[\n{good}\n]\n")).is_ok());
        assert!(
            parse_report(&format!("[\n{good}\n]\n{good}\n")).is_err(),
            "content after `]`"
        );
        let sweep = "  {\"bench\":\"sweep\",\"mode\":\"fresh\",\"threads\":1,\"runs\":2,\"wall_ms\":1.000,\"runs_per_sec\":5.000,\"reuse_hits\":0,\"digest\":\"aaaaaaaaaaaaaaaa\",\"seed\":1}";
        assert!(
            parse_report(&format!("[\n{good},\n{sweep}\n]\n")).is_err(),
            "mixed suites"
        );
    }
}
