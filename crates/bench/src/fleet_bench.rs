//! The fleet-scaling benchmark behind `cloudsched bench --suite fleet`:
//! per-machine kernels fanned out over `core::par` — the first workload
//! where `--threads N` buys real wall-clock speedup (`DESIGN.md` §16).
//!
//! Each `(machines, threads)` cell runs the same Monte-Carlo fleet runs —
//! power-of-two-choices dispatch over V-Dover machines on the fleet Table-I
//! scenario — and times dispatch plus simulation. Each `(machines, run)`
//! instance is generated once, outside the timed window, and reused for
//! every thread count. Rows are paired by `machines`:
//! every thread count must reproduce the *identical* per-run fleet digests
//! (value bits, completed, events, preemptions, dispatches per machine,
//! plus the quarantine/steal counters), and [`run_fleet_bench`] refuses to
//! emit a report whose rows diverge within a pair. Thread-count invariance
//! is a hard output contract, not a statistical observation.
//!
//! Timing flows through the [`cloudsched_obs::Clock`] seam
//! ([`MonotonicClock`] — the bench crate is the sanctioned wall-clock
//! user, lint rules L005/L006).

use crate::row::{fnv1a, Row, Value, FLEET_SCHEMA, FNV_OFFSET};
use cloudsched_core::rng::{derive_seed, FLEET_DISPATCH_RUN_OFFSET, SEED_STREAM_FLEET};
use cloudsched_obs::{Clock, MonotonicClock};
use cloudsched_sched::{DispatchPolicy, SchedulerSpec, VDoverConfig};
use cloudsched_sim::{run_fleet, FleetReport, RunOptions, Scheduler};
use cloudsched_workload::{FleetInstance, FleetScenario};

/// Fleet suite configuration.
#[derive(Debug, Clone)]
pub struct FleetBenchConfig {
    /// Per-machine arrival rate of the fleet Table-I scenario (default 8).
    pub lambda: f64,
    /// Scenario horizon (default 250 — the paper's `2000/λ` at λ = 8,
    /// ≈ 2000 jobs per machine).
    pub horizon: f64,
    /// Fleet sizes to sweep (default `[4, 16, 64]`).
    pub machines: Vec<usize>,
    /// Thread counts to pair per fleet size (default `[1, 2]`).
    pub threads: Vec<usize>,
    /// Monte-Carlo fleet runs per cell (default 4).
    pub runs: usize,
}

impl Default for FleetBenchConfig {
    fn default() -> Self {
        FleetBenchConfig {
            lambda: 8.0,
            horizon: 250.0,
            machines: vec![4, 16, 64],
            threads: vec![1, 2],
            runs: 4,
        }
    }
}

impl FleetBenchConfig {
    /// CI smoke configuration: tiny horizon, fleets of 2 and 4, threads 1
    /// and 2 — fast enough for every commit, still exercising the
    /// serial-vs-threaded digest pairing.
    pub fn quick() -> Self {
        FleetBenchConfig {
            lambda: 6.0,
            horizon: 8.0,
            machines: vec![2, 4],
            threads: vec![1, 2],
            runs: 2,
        }
    }
}

/// Digest of one fleet run: the per-machine observables in machine-index
/// order, then the fleet-level dispatch counters. Everything the digest
/// covers must be a pure function of `(seed, M, policy)`.
pub fn fleet_digest(report: &FleetReport) -> u64 {
    let mut h = FNV_OFFSET;
    for m in &report.per_machine {
        for word in [
            m.report.value.to_bits(),
            m.report.completed as u64,
            m.report.events as u64,
            m.report.preemptions as u64,
            m.report.dispatches as u64,
        ] {
            h = fnv1a(h, word);
        }
    }
    for word in [
        report.quarantined as u64,
        report.steals as u64,
        report.readmitted as u64,
    ] {
        h = fnv1a(h, word);
    }
    h
}

/// The instance of run slot `run` for an `m`-machine fleet.
fn fleet_suite_instance(cfg: &FleetBenchConfig, m: usize, run: usize) -> FleetInstance {
    FleetScenario::table1(cfg.lambda, m)
        .with_horizon(cfg.horizon)
        .generate(derive_seed(SEED_STREAM_FLEET, cfg.lambda, run))
        .expect("fleet scenario generation is infallible for valid configs")
}

/// One Monte-Carlo fleet run of the suite: instance from run slot `run`,
/// p2c dispatch seeded from the offset run slot, V-Dover (k = 7, δ = 35)
/// per machine.
pub fn fleet_suite_run(
    cfg: &FleetBenchConfig,
    m: usize,
    run: usize,
    threads: usize,
) -> FleetReport {
    run_instance(cfg, &fleet_suite_instance(cfg, m, run), run, threads)
}

/// [`fleet_suite_run`] on an already generated instance of run slot `run`.
fn run_instance(
    cfg: &FleetBenchConfig,
    instance: &FleetInstance,
    run: usize,
    threads: usize,
) -> FleetReport {
    let mut dispatch = DispatchPolicy::PowerOfTwo.build(derive_seed(
        SEED_STREAM_FLEET,
        cfg.lambda,
        FLEET_DISPATCH_RUN_OFFSET + run,
    ));
    let spec = SchedulerSpec::VDover(VDoverConfig::paper(7.0, 35.0));
    let factory = move |_m: usize| -> Box<dyn Scheduler> { spec.build() };
    run_fleet(
        &instance.jobs,
        &instance.machines,
        dispatch.as_mut(),
        &factory,
        RunOptions::lean(),
        threads,
    )
}

/// Runs the full fleet suite: for each fleet size, one cell per thread
/// count, every cell replaying the identical run sequence on the same
/// pregenerated instances. `progress` receives one line per completed
/// cell.
///
/// # Panics
/// If the rows break [`FLEET_SCHEMA`]'s agreement rule (one digest and
/// steal count per fleet size) — output that depends on the thread count
/// is a correctness bug, and the bench refuses to report throughput for
/// it.
pub fn run_fleet_bench(cfg: &FleetBenchConfig, mut progress: impl FnMut(&Row)) -> Vec<Row> {
    let clock = MonotonicClock::new();
    let mut rows: Vec<Row> = Vec::new();
    for &m in &cfg.machines {
        let instances: Vec<FleetInstance> = (0..cfg.runs)
            .map(|run| fleet_suite_instance(cfg, m, run))
            .collect();
        for &threads in &cfg.threads {
            let t0 = clock.now_ns();
            let mut h = FNV_OFFSET;
            let mut steals = 0u64;
            for (run, instance) in instances.iter().enumerate() {
                let report = run_instance(cfg, instance, run, threads);
                h = fnv1a(h, fleet_digest(&report));
                steals += report.steals as u64;
            }
            let wall_ns = clock.now_ns().saturating_sub(t0).max(1);
            let row = Row::new(
                &FLEET_SCHEMA,
                vec![
                    ("machines", m.into()),
                    ("threads", threads.into()),
                    ("runs", cfg.runs.into()),
                    ("wall_ms", (wall_ns as f64 / 1e6).into()),
                    (
                        "runs_per_sec",
                        (cfg.runs as f64 / (wall_ns as f64 / 1e9)).into(),
                    ),
                    ("steals", steals.into()),
                    ("digest", Value::digest(h)),
                    ("seed", SEED_STREAM_FLEET.into()),
                ],
            );
            progress(&row);
            rows.push(row);
        }
    }
    FLEET_SCHEMA
        .check_agreement(&rows)
        .expect("fleet output diverged across thread counts — equal bytes are a hard invariant");
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{parse_report, render_report};

    fn tiny() -> FleetBenchConfig {
        FleetBenchConfig {
            lambda: 4.0,
            horizon: 5.0,
            machines: vec![2, 3],
            threads: vec![1, 2],
            runs: 2,
        }
    }

    #[test]
    fn fleet_rows_round_trip_through_the_schema() {
        let rows = run_fleet_bench(&tiny(), |_| {});
        assert_eq!(rows.len(), 4, "2 fleet sizes x 2 thread counts");
        let json = render_report(&rows);
        let back = parse_report(&json).expect("round trip");
        assert_eq!(back.len(), rows.len());
        for (a, b) in rows.iter().zip(back.iter()) {
            assert_eq!(a.int("machines"), b.int("machines"));
            assert_eq!(a.int("threads"), b.int("threads"));
            assert_eq!(a.text("digest"), b.text("digest"));
            assert_eq!(a.int("steals"), b.int("steals"));
        }
    }

    #[test]
    fn digests_pair_within_a_fleet_size_and_differ_across_sizes() {
        let rows = run_fleet_bench(&tiny(), |_| {});
        let d2: Vec<&str> = rows
            .iter()
            .filter(|r| r.int("machines") == 2)
            .map(|r| r.text("digest"))
            .collect();
        let d3: Vec<&str> = rows
            .iter()
            .filter(|r| r.int("machines") == 3)
            .map(|r| r.text("digest"))
            .collect();
        assert!(d2.windows(2).all(|w| w[0] == w[1]));
        assert!(d3.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(d2[0], d3[0], "different fleets, different workloads");
    }

    #[test]
    fn validator_rejects_malformed_fleet_reports() {
        assert!(parse_report("").is_err());
        assert!(parse_report("[\n]\n").is_err(), "no rows");
        assert!(parse_report("[\n  {\"bench\":\"fleet\"}\n]\n").is_err());
        let row = |threads: usize, steals: u64, digest: &str| {
            format!(
                "  {{\"bench\":\"fleet\",\"machines\":4,\"threads\":{threads},\"runs\":2,\"wall_ms\":1.000,\"runs_per_sec\":5.000,\"steals\":{steals},\"digest\":\"{digest}\",\"seed\":1}}"
            )
        };
        let good = format!(
            "[\n{},\n{}\n]\n",
            row(1, 3, &"a".repeat(16)),
            row(2, 3, &"a".repeat(16))
        );
        assert_eq!(parse_report(&good).expect("valid").len(), 2);
        let drift = format!(
            "[\n{},\n{}\n]\n",
            row(1, 3, &"a".repeat(16)),
            row(2, 3, &"b".repeat(16))
        );
        assert!(parse_report(&drift).is_err(), "digest drift");
        let steal_drift = format!(
            "[\n{},\n{}\n]\n",
            row(1, 3, &"a".repeat(16)),
            row(2, 4, &"a".repeat(16))
        );
        assert!(parse_report(&steal_drift).is_err(), "steal drift");
    }
}
