//! Equivalence and determinism pins for the sweep-scale throughput layer:
//! the reusable [`SimWorkspace`], the shared-instance multi-policy batch
//! runner and the work-stealing fan-out.
//!
//! The contract under test: recycling a workspace, batching policies over
//! one instance, or changing the thread count must never change a single
//! output byte — reports, schedules and JSONL traces are identical to the
//! throwaway-allocation, serial path.

use cloudsched::obs::JsonlTracer;
use cloudsched::prelude::*;
use cloudsched::sim::{Run, SimWorkspace};
use cloudsched_bench::{
    parse_report, render_report, run_instance, run_instance_batch_in, run_instance_in,
    run_sweep_bench, SweepBenchConfig,
};
use cloudsched_core::par::parallel_map;
use cloudsched_core::rng::{derive_seed, Pcg32, Rng};
use cloudsched_core::{Job, JobId, Time};
use cloudsched_workload::dist::{exponential, uniform};
use cloudsched_workload::CtmcCapacity;

/// Burst workload: `n` jobs over a short horizon so every queue fills, a
/// 70/30 urgent/loose deadline mix (same shape as the kernel-refactor
/// property sweep).
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
/// bounds, a fast two-state CTMC, and a deep-overload CTMC.
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

fn pattern_instance(pattern: usize, seed: u64) -> Instance {
    let jobs = burst_jobs(60, seed);
    let span = jobs.last_deadline().as_f64() + 1.0;
    Instance::new(jobs.clone(), capacity_pattern(pattern, seed, span))
}

fn panel() -> [SchedulerSpec; 3] {
    [
        SchedulerSpec::Dover {
            k: 7.0,
            c_estimate: 6.0,
        },
        SchedulerSpec::VDover(VDoverConfig::paper(7.0, 35.0)),
        SchedulerSpec::Edf,
    ]
}

/// Satellite (c): across 50 seeds × 3 capacity patterns, the batch runner
/// on one long-lived workspace produces exactly the reports that fresh
/// per-spec `run_instance` calls produce — `RunReport` equality checked on
/// the full Debug rendering (value bits, outcomes, schedules, the lot).
/// One workspace survives the whole 150-instance sweep, so buffer
/// recycling is hammered across changing capacity shapes.
#[test]
fn property_batch_on_a_reused_workspace_equals_fresh_per_spec_runs() {
    let specs = panel();
    let mut ws = SimWorkspace::new();
    for seed in 0..50u64 {
        for pattern in 0..3usize {
            let instance = pattern_instance(pattern, seed);
            let batch = run_instance_batch_in(&mut ws, &instance, &specs, RunOptions::full());
            assert_eq!(batch.len(), specs.len());
            for (spec, got) in specs.iter().zip(batch) {
                let want = run_instance(&instance, spec, RunOptions::full());
                assert_eq!(
                    format!("{want:?}"),
                    format!("{got:?}"),
                    "seed {seed} pattern {pattern} {}: batch run diverged",
                    spec.name()
                );
                ws.recycle(got);
            }
        }
    }
    assert_eq!(ws.runs(), 50 * 3 * 3);
    assert!(
        ws.reuse_hits() > 0,
        "a 450-run sweep over same-sized instances must recycle buffers"
    );
}

/// A warmed workspace must not leak state into traces: the JSONL event
/// stream of a recycled-workspace run is byte-identical to a fresh one —
/// including the kernel's FIFO tie-break sequence numbers.
#[test]
fn reused_workspace_traces_are_byte_identical_to_fresh_ones() {
    let mut ws = SimWorkspace::new();
    // Warm the workspace on a different instance shape first.
    let warm = pattern_instance(2, 99);
    run_instance_in(&mut ws, &warm, &SchedulerSpec::Edf, RunOptions::lean());
    for seed in [0u64, 7, 21] {
        for pattern in 0..3usize {
            let instance = pattern_instance(pattern, seed);
            let mut fresh_sched = VDover::new(7.0, 35.0);
            let mut fresh_tracer = JsonlTracer::new(Vec::new());
            let fresh = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
                .tracer(&mut fresh_tracer)
                .run(&mut fresh_sched);
            let mut reused_sched = VDover::new(7.0, 35.0);
            let mut reused_tracer = JsonlTracer::new(Vec::new());
            let reused = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
                .workspace(&mut ws)
                .tracer(&mut reused_tracer)
                .run(&mut reused_sched);
            assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
            ws.recycle(reused);
            assert_eq!(
                String::from_utf8(fresh_tracer.finish().unwrap()).unwrap(),
                String::from_utf8(reused_tracer.finish().unwrap()).unwrap(),
                "seed {seed} pattern {pattern}: trace bytes diverged"
            );
        }
    }
}

/// Thread-count independence of the fan-out over real simulations: the
/// same derived seeds give bit-identical per-run results at 1, 4 and 16
/// threads (16 ≫ runs exercises the oversubscribed path).
#[test]
fn sweep_results_are_independent_of_the_thread_count() {
    const STREAM: u64 = 0x51EE9;
    let sweep = |threads: usize| -> Vec<(u64, usize, usize)> {
        parallel_map(12, threads, |run| {
            let seed = derive_seed(STREAM, 6.0, run);
            let instance = pattern_instance(run % 3, seed);
            let report = run_instance(
                &instance,
                &SchedulerSpec::VDover(VDoverConfig::paper(7.0, 35.0)),
                RunOptions::lean(),
            );
            (report.value.to_bits(), report.completed, report.events)
        })
    };
    let serial = sweep(1);
    for threads in [4, 16] {
        assert_eq!(
            serial,
            sweep(threads),
            "results drifted at threads={threads}"
        );
    }
}

/// The sweep benchmark's end-to-end contract: every `(mode, threads)` cell
/// reports the same output digest, reuse hits only appear in reuse mode,
/// and the report round-trips through the strict schema validator.
#[test]
fn sweep_bench_cells_agree_and_round_trip_the_schema() {
    let cfg = SweepBenchConfig {
        lambda: 4.0,
        runs: 4,
        threads: vec![1, 3],
    };
    let outcome = run_sweep_bench(&cfg, |_| {});
    assert_eq!(outcome.rows.len(), 4);
    let digest = outcome.rows[0].text("digest");
    for row in &outcome.rows {
        assert_eq!(
            row.text("digest"),
            digest,
            "mode {} threads {}",
            row.text("mode"),
            row.int("threads")
        );
        if row.text("mode") == "fresh" {
            assert_eq!(row.int("reuse_hits"), 0);
        }
    }
    // One workspace activation per policy simulation: 2 reuse cells x
    // 4 runs x the 5-spec Table-I panel.
    assert_eq!(outcome.workspace_runs, 2 * cfg.runs as u64 * 5);
    let json = render_report(&outcome.rows);
    let back = parse_report(&json).expect("schema round trip");
    assert_eq!(back.len(), outcome.rows.len());
}

/// Pin for the thread-count-variant `reuse_hits` bug: the BENCH_sweep
/// report used to count *physical* arena hits, which depend on which runs
/// each worker happened to see first (24 at one thread vs 27 at four on the
/// shipped report). The canonical accounting folds per-run job counts
/// through one virtual serial arena in run-index order — a pure function of
/// the seed stream — so the reuse cell must report the same number at every
/// thread count.
#[test]
fn reuse_hits_are_invariant_across_thread_counts() {
    let cfg = SweepBenchConfig {
        lambda: 4.0,
        runs: 6,
        threads: vec![1, 4],
    };
    let outcome = run_sweep_bench(&cfg, |_| {});
    let reuse: Vec<(u64, u64)> = outcome
        .rows
        .iter()
        .filter(|r| r.text("mode") == "reuse")
        .map(|r| (r.int("threads"), r.int("reuse_hits")))
        .collect();
    assert_eq!(reuse, vec![(1, reuse[0].1), (4, reuse[0].1)]);
    assert!(
        reuse[0].1 > 0,
        "a multi-run reuse sweep over same-shape instances must report hits"
    );
}
