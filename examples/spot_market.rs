//! Spot-market scenario: secondary jobs scheduled on the *surplus* capacity
//! a server has left after serving its primary (on-demand) customers —
//! the EC2-Spot-style setting that motivates the paper.
//!
//! The primary side is an M/G/∞ population of VMs; the surplus profile it
//! induces is the `c(t)` the secondary scheduler sees. Secondary job values
//! scale with a utilisation-driven price proxy, and we compare how much
//! revenue each scheduler extracts.
//!
//! Run with: `cargo run --release --example spot_market`

use cloudsched::cloud::spot::{build_spot_instance, SpotPrice, SpotWorkload};
use cloudsched::cloud::{induced_capacity, PrimaryLoad, Server};
use cloudsched::prelude::*;
use cloudsched_core::rng::Pcg32;

fn main() {
    let mut rng = Pcg32::seed_from_u64(2026); // lint: allow(L009) — pedagogical demo seed, feeds no recorded artifact
    let horizon = 200.0;

    // A 16-unit server; at least 2 units always remain for secondary work.
    let server = Server::new(16.0, 2.0);
    // Primary VMs: 0.5/s arrivals × 6s mean holding × ~4 units ≈ 12 of the
    // 16 units occupied on average — a busy machine whose surplus swings.
    let primary = PrimaryLoad::new(0.5, 6.0, (2.0, 6.0));
    let surplus = induced_capacity(&mut rng, &server, &primary, horizon).expect("surplus");
    let (c_lo, c_hi) = (surplus.c_lo(), surplus.c_hi());
    println!(
        "Induced surplus capacity: class C({c_lo}, {c_hi}), {} segments over {horizon}s",
        surplus.segment_count()
    );

    // Secondary demand: requests worth more when submitted at busy times.
    let price = SpotPrice {
        base: 1.0,
        sensitivity: 3.0,
        server_capacity: server.capacity,
    };
    let workload = SpotWorkload {
        arrival_rate: 2.0,
        mean_workload: 3.0,
        slack: 1.0, // zero conservative laxity — the hardest admissible case
        revenue_rate: 1.0,
    };
    let instance =
        build_spot_instance(&mut rng, surplus, price, workload, horizon).expect("instance");
    println!(
        "Secondary demand: {} jobs, total booked revenue {:.1}\n",
        instance.job_count(),
        instance.jobs.total_value()
    );
    assert!(instance.all_individually_admissible());

    let mut results: Vec<(String, f64)> = Vec::new();
    for name in ["vdover", "dover-lo", "dover-hi", "edf", "fifo", "hvdf"] {
        let mut s = SchedulerSpec::for_instance(name, &instance)
            .expect("roster name")
            .build();
        let report = simulate(
            &instance.jobs,
            &instance.capacity,
            &mut *s,
            RunOptions::lean(),
        );
        results.push((report.scheduler.clone(), report.value));
        println!(
            "{:<16} revenue {:>8.1}  ({:>5.1}% of booked)  completed {}/{}",
            report.scheduler,
            report.value,
            report.value_fraction * 100.0,
            report.completed,
            report.completed + report.missed
        );
    }
    let best = results
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("results");
    println!(
        "\nBest extractor on this sample path: {} ({:.1})",
        best.0, best.1
    );
}
