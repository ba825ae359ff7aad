//! The sweep-scale throughput benchmark behind `cloudsched bench --suite
//! sweep`: a Table-I-shaped Monte-Carlo sweep (λ = 8, five policies per
//! seed on the shared instance) timed in two modes — `fresh` (a throwaway
//! [`SimWorkspace`] per run, the allocation baseline) and `reuse` (one
//! workspace per worker, recycled across runs) — at each configured thread
//! count. Results land in `BENCH_sweep.json` at the repository root, rows
//! laid out by [`SWEEP_SCHEMA`].
//!
//! Every row carries an FNV-1a digest of the per-run reports (value bits,
//! completed, events, preemptions, dispatches, folded in run order), and
//! [`run_sweep_bench`] asserts all rows share one digest: whatever the
//! mode or thread count, the sweep produces identical output bytes.
//! Workspace reuse is additionally surfaced through the obs counters
//! `sweep.workspace.runs` / `sweep.workspace.reuse_hits`.
//!
//! Timing flows through the [`cloudsched_obs::Clock`] seam
//! ([`MonotonicClock`] — the bench crate is the sanctioned wall-clock
//! user, lint rules L005/L006).

use crate::harness::{run_instance, run_instance_batch_in};
use crate::row::{fnv1a, Row, Value, FNV_OFFSET, SWEEP_SCHEMA};
use cloudsched_core::par::{parallel_map, parallel_map_with};
use cloudsched_core::rng::{derive_seed, SEED_STREAM_TABLE1};
use cloudsched_obs::{Clock, MetricsRegistry, MetricsSnapshot, MonotonicClock};
use cloudsched_sched::{SchedulerSpec, VDoverConfig};
use cloudsched_sim::{RunOptions, RunReport, SimWorkspace};
use cloudsched_workload::PaperScenario;

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct SweepBenchConfig {
    /// Arrival rate of the Table-I scenario (default 8 — deep overload).
    pub lambda: f64,
    /// Monte-Carlo runs per cell (default 48).
    pub runs: usize,
    /// Thread counts to sweep (default `[1, 4]`).
    pub threads: Vec<usize>,
}

impl Default for SweepBenchConfig {
    fn default() -> Self {
        SweepBenchConfig {
            lambda: 8.0,
            runs: 48,
            threads: vec![1, 4],
        }
    }
}

impl SweepBenchConfig {
    /// CI smoke configuration: 6 runs, threads 1 and 2.
    pub fn quick() -> Self {
        SweepBenchConfig {
            lambda: 8.0,
            runs: 6,
            threads: vec![1, 2],
        }
    }
}

/// The Table-I policy panel every run replays on its shared instance:
/// Dover at ĉ ∈ {1, 10.5, 24.5, 35} plus V-Dover, k = 7, δ = 35.
pub fn sweep_specs() -> Vec<SchedulerSpec> {
    let mut specs: Vec<SchedulerSpec> = [1.0, 10.5, 24.5, 35.0]
        .iter()
        .map(|&c| SchedulerSpec::Dover {
            k: 7.0,
            c_estimate: c,
        })
        .collect();
    specs.push(SchedulerSpec::VDover(VDoverConfig::paper(7.0, 35.0)));
    specs
}

/// Digest of one run's reports: the observable outputs a sweep aggregates
/// (value bits, completed, events, preemptions, dispatches), spec order.
fn run_digest(reports: &[RunReport]) -> u64 {
    let mut h = FNV_OFFSET;
    for r in reports {
        for word in [
            r.value.to_bits(),
            r.completed as u64,
            r.events as u64,
            r.preemptions as u64,
            r.dispatches as u64,
        ] {
            h = fnv1a(h, word);
        }
    }
    h
}

/// Per-run result the workers hand back: the run's digest, its instance
/// size (for the canonical reuse-hit fold) and its physical workspace
/// bookkeeping delta.
struct RunCell {
    digest: u64,
    jobs: usize,
    ws_runs: u64,
}

/// Canonical reuse-hit count: fold the per-run instance sizes in run
/// (index) order through one virtual serial arena — a run hits iff its
/// job count fits the high-water mark of the runs before it. The physical
/// per-workspace counters ([`SimWorkspace::reuse_hits`]) depend on which
/// runs each worker happened to draw, so they drift with the thread count;
/// this fold is a pure function of the seed sequence.
fn canonical_reuse_hits(cells: &[RunCell]) -> u64 {
    let mut high_water = 0usize;
    let mut hits = 0u64;
    for c in cells {
        if c.jobs <= high_water {
            hits += 1;
        }
        high_water = high_water.max(c.jobs);
    }
    hits
}

/// Combines per-run digests in run (index) order — this is what makes the
/// digest thread-count independent: `parallel_map` already returns results
/// in index order regardless of which worker computed them.
fn combine(cells: &[RunCell]) -> u64 {
    cells.iter().fold(FNV_OFFSET, |h, c| fnv1a(h, c.digest))
}

/// Everything `run_sweep_bench` produces: the schema rows plus a metrics
/// snapshot carrying the workspace-reuse counters.
#[derive(Debug, Clone)]
pub struct SweepBenchOutcome {
    /// One row per `(mode, threads)` cell, in sweep order.
    pub rows: Vec<Row>,
    /// Counters `sweep.workspace.runs` (workspace activations — one per
    /// policy simulation) and `sweep.workspace.reuse_hits`, totalled over
    /// every `reuse`-mode cell.
    pub metrics: MetricsSnapshot,
}

/// Runs the full sweep: for each thread count, a `fresh` cell and a
/// `reuse` cell, all on the same derived seed sequence. `progress`
/// receives one line per completed cell.
///
/// # Panics
/// If the rows break [`SWEEP_SCHEMA`]'s agreement rule (one digest for
/// every cell) — a sweep whose output depends on the mode or the thread
/// count is a correctness bug, and the bench refuses to report throughput
/// for it.
pub fn run_sweep_bench(
    cfg: &SweepBenchConfig,
    mut progress: impl FnMut(&Row),
) -> SweepBenchOutcome {
    let scenario = PaperScenario::table1(cfg.lambda);
    let specs = sweep_specs();
    let clock = MonotonicClock::new();
    let mut metrics = MetricsRegistry::new();
    let mut rows: Vec<Row> = Vec::new();

    for &threads in &cfg.threads {
        for mode in ["fresh", "reuse"] {
            let t0 = clock.now_ns();
            let cells: Vec<RunCell> = if mode == "fresh" {
                parallel_map(cfg.runs, threads, |run| {
                    let seed = derive_seed(SEED_STREAM_TABLE1, cfg.lambda, run);
                    let generated = scenario.generate(seed).expect("generation");
                    let reports: Vec<RunReport> = specs
                        .iter()
                        .map(|spec| run_instance(&generated.instance, spec, RunOptions::lean()))
                        .collect();
                    RunCell {
                        digest: run_digest(&reports),
                        jobs: generated.instance.jobs.len(),
                        ws_runs: 0,
                    }
                })
            } else {
                parallel_map_with(cfg.runs, threads, SimWorkspace::new, |ws, run| {
                    let seed = derive_seed(SEED_STREAM_TABLE1, cfg.lambda, run);
                    let generated = scenario.generate(seed).expect("generation");
                    let runs0 = ws.runs();
                    let mut reports =
                        run_instance_batch_in(ws, &generated.instance, &specs, RunOptions::lean());
                    let digest = run_digest(&reports);
                    if let Some(last) = reports.pop() {
                        ws.recycle(last);
                    }
                    RunCell {
                        digest,
                        jobs: generated.instance.jobs.len(),
                        ws_runs: ws.runs() - runs0,
                    }
                })
            };
            let wall_ns = clock.now_ns().saturating_sub(t0).max(1);
            let reuse_hits: u64 = if mode == "reuse" {
                canonical_reuse_hits(&cells)
            } else {
                0
            };
            if mode == "reuse" {
                metrics.incr(
                    "sweep.workspace.runs",
                    cells.iter().map(|c| c.ws_runs).sum(),
                );
                metrics.incr("sweep.workspace.reuse_hits", reuse_hits);
            }
            let row = Row::new(
                &SWEEP_SCHEMA,
                vec![
                    ("mode", mode.into()),
                    ("threads", threads.into()),
                    ("runs", cfg.runs.into()),
                    ("wall_ms", (wall_ns as f64 / 1e6).into()),
                    (
                        "runs_per_sec",
                        (cfg.runs as f64 / (wall_ns as f64 / 1e9)).into(),
                    ),
                    ("reuse_hits", reuse_hits.into()),
                    ("digest", Value::digest(combine(&cells))),
                    ("seed", SEED_STREAM_TABLE1.into()),
                ],
            );
            progress(&row);
            rows.push(row);
        }
    }
    SWEEP_SCHEMA
        .check_agreement(&rows)
        .expect("sweep output diverged — equal bytes are a hard invariant");
    SweepBenchOutcome {
        rows,
        metrics: metrics.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{parse_report, render_report};

    fn tiny() -> SweepBenchConfig {
        SweepBenchConfig {
            lambda: 4.0,
            runs: 3,
            threads: vec![1, 2],
        }
    }

    #[test]
    fn sweep_rows_round_trip_through_the_schema() {
        let outcome = run_sweep_bench(&tiny(), |_| {});
        assert_eq!(outcome.rows.len(), 4, "2 modes x 2 thread counts");
        let json = render_report(&outcome.rows);
        let back = parse_report(&json).expect("round trip");
        assert_eq!(back.len(), outcome.rows.len());
        for (a, b) in outcome.rows.iter().zip(back.iter()) {
            assert_eq!(a.text("mode"), b.text("mode"));
            assert_eq!(a.int("threads"), b.int("threads"));
            assert_eq!(a.text("digest"), b.text("digest"));
            assert_eq!(a.int("reuse_hits"), b.int("reuse_hits"));
        }
    }

    #[test]
    fn all_cells_share_one_digest_and_reuse_hits_accrue() {
        let outcome = run_sweep_bench(&tiny(), |_| {});
        let digest = outcome.rows[0].text("digest");
        assert!(outcome.rows.iter().all(|r| r.text("digest") == digest));
        // Every run after each worker's first recycles warmed buffers. With
        // 3 runs the single-threaded reuse cell must hit at least once.
        let reuse_1 = outcome
            .rows
            .iter()
            .find(|r| r.text("mode") == "reuse" && r.int("threads") == 1)
            .expect("reuse cell at threads=1");
        let hits = reuse_1.int("reuse_hits");
        assert!(hits >= 1, "got {hits}");
        // One workspace activation per policy simulation: 2 reuse cells x
        // 3 runs x the 5-spec panel.
        assert_eq!(outcome.metrics.counter("sweep.workspace.runs"), 30);
        assert_eq!(
            outcome.metrics.counter("sweep.workspace.reuse_hits"),
            outcome
                .rows
                .iter()
                .filter(|r| r.text("mode") == "reuse")
                .map(|r| r.int("reuse_hits"))
                .sum::<u64>()
        );
    }

    #[test]
    fn validator_rejects_malformed_sweep_reports() {
        assert!(parse_report("").is_err());
        assert!(parse_report("[\n]\n").is_err(), "no rows");
        assert!(parse_report("[\n  {\"bench\":\"sweep\"}\n]\n").is_err());
        let row = |mode: &str, digest: &str| {
            format!(
                "  {{\"bench\":\"sweep\",\"mode\":\"{mode}\",\"threads\":1,\"runs\":2,\"wall_ms\":1.000,\"runs_per_sec\":5.000,\"reuse_hits\":0,\"digest\":\"{digest}\",\"seed\":1}}"
            )
        };
        let good = format!("[\n{},\n{}\n]\n", row("fresh", &"a".repeat(16)), {
            let mut r = row("reuse", &"a".repeat(16));
            r = r.replace("\"reuse_hits\":0", "\"reuse_hits\":1");
            r
        });
        assert_eq!(parse_report(&good).expect("valid").len(), 2);
        let drift = format!(
            "[\n{},\n{}\n]\n",
            row("fresh", &"a".repeat(16)),
            row("reuse", &"b".repeat(16))
        );
        assert!(parse_report(&drift).is_err(), "digest drift");
        let hits = format!("[\n{}\n]\n", {
            let mut r = row("fresh", &"a".repeat(16));
            r = r.replace("\"reuse_hits\":0", "\"reuse_hits\":3");
            r
        });
        assert!(parse_report(&hits).is_err(), "fresh mode with hits");
    }
}
