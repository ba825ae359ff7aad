//! Quickstart: schedule a handful of secondary jobs on a processor whose
//! capacity varies, compare V-Dover against EDF, and audit the run.
//!
//! Run with: `cargo run --release --example quickstart`

use cloudsched::prelude::*;

fn main() {
    // A processor that is busy with primary work early (capacity 1) and
    // mostly free later (capacity 4). Declared class: C(1, 4).
    let capacity = PiecewiseConstant::from_durations(&[(6.0, 1.0), (4.0, 4.0)])
        .unwrap()
        .with_declared_bounds(1.0, 4.0)
        .unwrap();

    // Five secondary jobs: (release, deadline, workload, value). The slow
    // regime is overloaded — 11 units of work demanded where only 6 fit —
    // so somebody has to triage. EDF chases the tight cheap job and loses
    // the premium one; value-aware triage keeps it.
    let jobs = JobSet::from_tuples(&[
        (0.0, 6.0, 6.0, 12.0),  // premium job, zero conservative laxity
        (0.0, 3.0, 3.0, 3.0),   // cheap, tight — EDF bait
        (1.0, 6.0, 2.0, 8.0),   // valuable, moderate
        (6.0, 12.0, 6.0, 9.0),  // lands in the fast regime
        (7.0, 15.0, 8.0, 10.0), // big late job
    ])
    .unwrap();

    println!(
        "Instance: {} jobs, total value {:.1}, capacity class C(1, 4)\n",
        jobs.len(),
        jobs.total_value()
    );

    let k = jobs.importance_ratio().unwrap_or(7.0);
    for mut scheduler in [
        Box::new(VDover::new(k, 4.0)) as Box<dyn Scheduler>,
        Box::new(Edf::new()),
        Box::new(Greedy::highest_value()),
    ] {
        let report = simulate(&jobs, &capacity, &mut *scheduler, RunOptions::full());
        // Every run is re-verified against the model invariants.
        audit_report(&jobs, &capacity, &report).expect("audit clean");
        println!(
            "{:<16} value {:>5.1} ({:>5.1}% of total)  completed {}/{}  preemptions {}",
            report.scheduler,
            report.value,
            report.value_fraction * 100.0,
            report.completed,
            report.completed + report.missed,
            report.preemptions,
        );
        if report.scheduler == "V-Dover" {
            println!("\n  V-Dover execution schedule:");
            for s in report.schedule.as_ref().unwrap().slices() {
                println!(
                    "    [{:>6.2}, {:>6.2})  {}",
                    s.start.as_f64(),
                    s.end.as_f64(),
                    s.job
                );
            }
            println!();
        }
    }

    // The offline clairvoyant optimum for context (exact branch-and-bound).
    let (opt, chosen) = cloudsched::offline::optimal_value(&jobs, &capacity);
    println!(
        "\nOffline optimum: {:.1} by completing {:?}",
        opt,
        chosen.iter().map(ToString::to_string).collect::<Vec<_>>()
    );
}
