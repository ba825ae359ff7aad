//! Cross-crate integration tests: the full pipeline from the paper's §IV
//! generator through every scheduler, the audit layer, and the offline
//! solvers.

use cloudsched::offline::optimal_value;
use cloudsched::prelude::*;
use cloudsched::sim::audit::audit_report;

fn paper_instance(lambda: f64, seed: u64) -> Instance {
    // Scale the horizon down (200 expected jobs) to keep test time low.
    let mut scenario = PaperScenario::table1(lambda);
    scenario.horizon /= 10.0;
    scenario.mean_sojourn = scenario.horizon / 4.0;
    scenario.generate(seed).expect("generation").instance
}

fn all_schedulers(k: f64, delta: f64) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(VDover::new(k, delta)),
        Box::new(Dover::new(k, 1.0)),
        Box::new(Dover::new(k, 10.5)),
        Box::new(Dover::new(k, 35.0)),
        Box::new(Edf::new()),
        Box::new(Llf::with_estimate(1.0)),
        Box::new(Fifo::new()),
        Box::new(Fifo::skipping_hopeless()),
        Box::new(Greedy::highest_value()),
        Box::new(Greedy::highest_density()),
    ]
}

#[test]
fn every_scheduler_passes_audit_on_paper_workload() {
    for seed in 0..5 {
        let instance = paper_instance(6.0, seed);
        for mut s in all_schedulers(7.0, 35.0) {
            let report = simulate(
                &instance.jobs,
                &instance.capacity,
                &mut *s,
                RunOptions::full(),
            );
            if let Err(errors) = audit_report(&instance.jobs, &instance.capacity, &report) {
                panic!(
                    "audit failed for {} on seed {seed}: {:?}",
                    report.scheduler, errors
                );
            }
            // Accounting sanity.
            assert_eq!(
                report.completed + report.missed,
                instance.job_count(),
                "{}: every released job must resolve",
                report.scheduler
            );
            assert!(report.value_fraction >= 0.0 && report.value_fraction <= 1.0 + 1e-9);
        }
    }
}

#[test]
fn vdover_beats_best_dover_on_average() {
    // Small-scale Table I: with enough seeds the paper's headline result
    // holds — V-Dover ≥ the best Dover estimate.
    let runs = 30;
    let mut vdover_sum = 0.0;
    let mut dover_sums = [0.0; 4];
    let estimates = [1.0, 10.5, 24.5, 35.0];
    for seed in 0..runs {
        let instance = paper_instance(6.0, 1000 + seed);
        let mut vd = VDover::new(7.0, 35.0);
        vdover_sum += simulate(
            &instance.jobs,
            &instance.capacity,
            &mut vd,
            RunOptions::lean(),
        )
        .value_fraction;
        for (i, &c) in estimates.iter().enumerate() {
            let mut d = Dover::new(7.0, c);
            dover_sums[i] += simulate(
                &instance.jobs,
                &instance.capacity,
                &mut d,
                RunOptions::lean(),
            )
            .value_fraction;
        }
    }
    let best_dover = dover_sums.iter().cloned().fold(0.0f64, f64::max);
    assert!(
        vdover_sum > best_dover,
        "V-Dover mean {:.4} should exceed best Dover mean {:.4}",
        vdover_sum / runs as f64,
        best_dover / runs as f64
    );
}

#[test]
fn determinism_same_seed_same_outcome() {
    let a = paper_instance(8.0, 7);
    let b = paper_instance(8.0, 7);
    assert_eq!(a, b);
    let run = |inst: &Instance| {
        let mut s = VDover::new(7.0, 35.0);
        simulate(&inst.jobs, &inst.capacity, &mut s, RunOptions::lean()).value
    };
    assert_eq!(run(&a), run(&b));
}

#[test]
fn trajectory_is_monotone_and_ends_at_final_value() {
    let instance = paper_instance(6.0, 3);
    let mut s = VDover::new(7.0, 35.0);
    let mut opts = RunOptions::lean();
    opts.record_trajectory = true;
    let report = simulate(&instance.jobs, &instance.capacity, &mut s, opts);
    let traj = report.trajectory.expect("recorded");
    assert!(traj.len() >= 2);
    for w in traj.windows(2) {
        assert!(w[0].time <= w[1].time, "times must be non-decreasing");
        assert!(
            w[0].cumulative_value <= w[1].cumulative_value,
            "value must be non-decreasing"
        );
    }
    assert!((traj.last().unwrap().cumulative_value - report.value).abs() < 1e-9);
}

#[test]
fn online_never_beats_offline_optimum() {
    // Small instances so the exact solver stays fast.
    for seed in 0..10u64 {
        let mut scenario = PaperScenario::table1(5.0);
        scenario.horizon = 2.4; // ~12 jobs
        scenario.mean_sojourn = 1.0;
        let instance = scenario.generate(seed).expect("generation").instance;
        if instance.job_count() > 14 {
            continue;
        }
        let (opt, _) = optimal_value(&instance.jobs, &instance.capacity);
        for mut s in all_schedulers(7.0, 35.0) {
            let report = simulate(
                &instance.jobs,
                &instance.capacity,
                &mut *s,
                RunOptions::lean(),
            );
            assert!(
                report.value <= opt + 1e-6,
                "{} got {} > offline optimum {opt} on seed {seed}",
                report.scheduler,
                report.value
            );
        }
    }
}

#[test]
fn stretch_reduction_agrees_with_direct_optimum_end_to_end() {
    for seed in 20..26u64 {
        let mut scenario = PaperScenario::table1(5.0);
        scenario.horizon = 2.0;
        scenario.mean_sojourn = 0.7;
        let instance = scenario.generate(seed).expect("generation").instance;
        if instance.job_count() > 13 {
            continue;
        }
        let (direct, _) = optimal_value(&instance.jobs, &instance.capacity);
        let (via, _) = cloudsched::offline::reduction::solve_via_stretch(&instance).unwrap();
        assert!(
            (direct - via).abs() < 1e-6,
            "seed {seed}: direct {direct} vs via-stretch {via}"
        );
    }
}

#[test]
fn trace_round_trip_preserves_simulation_results() {
    let instance = paper_instance(4.0, 99);
    let text = cloudsched::workload::traces::to_text(&instance);
    let parsed = cloudsched::workload::traces::from_text(&text).expect("parse");
    let run = |inst: &Instance| {
        let mut s = Edf::new();
        simulate(&inst.jobs, &inst.capacity, &mut s, RunOptions::lean()).value
    };
    assert!((run(&instance) - run(&parsed)).abs() < 1e-9);
}
