//! Batch analytics window: overnight report jobs with a hard morning
//! deadline run on leftover cluster capacity. Workloads are heavy-tailed
//! (bounded Pareto), capacity follows a two-state Markov process (the
//! paper's §IV model), and we sweep the *deadline slack factor* to show how
//! individual admissibility margin changes who wins.
//!
//! Run with: `cargo run --release --example batch_analytics`

use cloudsched::core::{Job, JobId};
use cloudsched::prelude::*;
use cloudsched::workload::ctmc::CtmcCapacity;
use cloudsched::workload::dist::{bounded_pareto, uniform};
use cloudsched_core::rng::{Pcg32, Rng};

fn main() {
    let mut rng = Pcg32::seed_from_u64(88); // lint: allow(L009) — pedagogical demo seed, feeds no recorded artifact
    let night = 480.0; // an 8-hour window, in minutes
    let chain = CtmcCapacity::two_state(1.0, 6.0, 60.0).expect("chain");
    let capacity = chain.sample(&mut rng, night).expect("trace");

    println!("Overnight window: {night} min, capacity class C(1, 6)\n");
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "slack", "V-Dover", "Dover(1)", "EDF", "HVDF"
    );
    for slack in [1.0, 1.5, 2.5, 4.0] {
        // lint: allow(L009) — pedagogical demo seed, feeds no recorded artifact
        let jobs = batch_jobs(&mut Pcg32::seed_from_u64(99), night, slack);
        let k = jobs.importance_ratio().unwrap_or(7.0);
        let mut row = format!("{slack:<8}");
        for mut s in [
            Box::new(VDover::new(k, 6.0)) as Box<dyn Scheduler>,
            Box::new(Dover::new(k, 1.0)),
            Box::new(Edf::new()),
            Box::new(Greedy::highest_density()),
        ] {
            let report = simulate(&jobs, &capacity, &mut *s, RunOptions::lean());
            row.push_str(&format!(" {:>9.1}%", report.value_fraction * 100.0));
        }
        println!("{row}");
    }
    println!(
        "\nWith tight slack (1.0: zero conservative laxity) value-aware triage\n\
         dominates; as slack grows the system approaches underload and the\n\
         deadline-driven schedulers catch up (Theorem 2 territory)."
    );
}

/// Heavy-tailed nightly batch: ~90 reports released through the first half
/// of the night, each due `slack × workload / c_lo` after release, values
/// mixing size and per-team priority.
fn batch_jobs(rng: &mut Pcg32, night: f64, slack: f64) -> JobSet {
    let n = 90;
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let release = rng.next_f64() * night * 0.5;
            let workload = bounded_pareto(rng, 1.3, 1.0, 60.0);
            let deadline = release + slack * workload; // c_lo = 1
            let priority = uniform(rng, 1.0, 7.0);
            Job::new(
                JobId(i as u64),
                Time::new(release),
                Time::new(deadline),
                workload,
                priority * workload,
            )
            .expect("job")
        })
        .collect();
    JobSet::new(jobs).expect("set")
}
