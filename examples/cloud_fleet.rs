//! Cloud-wise scheduling: the paper's sketched extension from one server to
//! a fleet. A dispatcher routes each secondary job to a server at release
//! time; every server runs its own V-Dover on its own surplus-capacity
//! profile (induced by independent primary loads). The fleet engine is
//! `sim::run_fleet` with the in-tree `rr` / `llf` / `p2c` dispatchers.
//!
//! Run with: `cargo run --release --example cloud_fleet`

use cloudsched::cloud::{induced_capacity, PrimaryLoad, Server};
use cloudsched::core::{Job, JobId};
use cloudsched::prelude::*;
use cloudsched::sched::{DispatchPolicy, DISPATCH_NAMES};
use cloudsched::sim::run_fleet;
use cloudsched::workload::dist::{exponential, uniform};
use cloudsched_core::rng::{Pcg32, Rng};

fn main() {
    let mut rng = Pcg32::seed_from_u64(4242); // lint: allow(L009) — pedagogical demo seed, feeds no recorded artifact
    let horizon = 150.0;
    let fleet_size = 4;

    // Four servers with different sizes and different primary loads.
    let mut surpluses = Vec::new();
    for s in 0..fleet_size {
        let capacity = 8.0 + 4.0 * s as f64;
        let server = Server::new(capacity, 1.0);
        let primary = PrimaryLoad::new(0.4 + 0.1 * s as f64, 8.0, (2.0, capacity * 0.6));
        let surplus = induced_capacity(&mut rng, &server, &primary, horizon).expect("surplus");
        println!(
            "server {s}: total capacity {capacity:>4}, surplus class C({}, {}), {} segments",
            surplus.c_lo(),
            surplus.c_hi(),
            surplus.segment_count()
        );
        surpluses.push(surplus);
    }

    // Secondary demand aimed at the whole fleet.
    let jobs = secondary_jobs(&mut rng, horizon, 600);
    let k = jobs.importance_ratio().unwrap_or(7.0);
    println!(
        "\nsecondary demand: {} jobs, total value {:.0}\n",
        jobs.len(),
        jobs.total_value()
    );

    println!(
        "{:<9} {:>9} {:>9} {:>11} {:>7}",
        "dispatch", "value", "value %", "completed", "steals"
    );
    let p2c_seed = rng.next_u64();
    for name in DISPATCH_NAMES {
        let policy = DispatchPolicy::parse(name).expect("in-tree policy name");
        let report = run_fleet(
            &jobs,
            &surpluses,
            policy.build(p2c_seed).as_mut(),
            &|s| {
                let delta = surpluses[s].delta().max(1.0 + 1e-9);
                Box::new(VDover::new(k, delta))
            },
            RunOptions::lean(),
            1,
        );
        println!(
            "{:<9} {:>9.0} {:>8.1}% {:>6}/{} {:>7}",
            name,
            report.value,
            report.value_fraction * 100.0,
            report.completed,
            jobs.len(),
            report.steals
        );
    }
    println!(
        "\nLaxity-aware dispatch (llf, p2c) routes around busy machines;\n\
         round-robin blindly overloads the small ones, and recovering\n\
         machines steal the jobs it stranded."
    );
}

fn secondary_jobs(rng: &mut Pcg32, horizon: f64, n: usize) -> JobSet {
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let release = rng.next_f64() * horizon * 0.9;
            let workload = exponential(rng, 0.5).max(0.05); // mean 2
            let slack = 1.0 + rng.next_f64() * 2.0;
            let density = uniform(rng, 1.0, 7.0);
            Job::new(
                JobId(i as u64),
                Time::new(release),
                Time::new(release + slack * workload), // admissible at c_lo = 1
                workload,
                density * workload,
            )
            .expect("job")
        })
        .collect();
    JobSet::new(jobs).expect("set")
}
