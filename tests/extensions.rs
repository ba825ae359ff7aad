//! Integration tests for the extension subsystems: the multi-server fleet,
//! MMPP arrivals, deterministic capacity patterns, the fractional LP bound
//! and the empirical-ratio machinery.

use cloudsched::capacity::patterns::{diurnal, sinusoid_steps};
use cloudsched::core::{Job, JobId};
use cloudsched::offline::{fractional_optimal, optimal_value};
use cloudsched::prelude::*;
use cloudsched::sched::{DispatchPolicy, DISPATCH_NAMES};
use cloudsched::sim::{run_fleet, FleetReport};
use cloudsched::workload::Mmpp;
use cloudsched_core::rng::{Pcg32, Rng};

fn random_jobs(rng: &mut Pcg32, n: usize, horizon: f64) -> JobSet {
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            let r = rng.next_f64() * horizon * 0.8;
            let p = 0.2 + rng.next_f64() * 2.0;
            let slack = 1.0 + rng.next_f64() * 2.0;
            let v = p * (1.0 + rng.next_f64() * 6.0);
            Job::new(
                JobId(i as u64),
                Time::new(r),
                Time::new(r + p * slack),
                p,
                v,
            )
            .unwrap()
        })
        .collect();
    JobSet::new(jobs).unwrap()
}

/// Runs `jobs` over `servers` with the named in-tree dispatcher, one fresh
/// scheduler from `make` per server, on one worker thread.
fn fleet(
    jobs: &JobSet,
    servers: &[PiecewiseConstant],
    policy: &str,
    make: &(dyn Fn(usize) -> Box<dyn Scheduler> + Sync),
) -> FleetReport {
    let mut dispatch = DispatchPolicy::parse(policy).unwrap().build(11);
    run_fleet(
        jobs,
        servers,
        dispatch.as_mut(),
        make,
        RunOptions::lean(),
        1,
    )
}

#[test]
fn fleet_with_vdover_on_every_server() {
    let mut rng = Pcg32::seed_from_u64(1);
    let jobs = random_jobs(&mut rng, 120, 40.0);
    let servers: Vec<PiecewiseConstant> = (0..3)
        .map(|i| {
            diurnal(4.0 + i as f64, 5.0, 1.0, 3.0, 6)
                .unwrap()
                .with_declared_bounds(1.0, 4.0 + i as f64)
                .unwrap()
        })
        .collect();
    for policy in DISPATCH_NAMES {
        let report = fleet(&jobs, &servers, policy, &|s| {
            Box::new(VDover::new(7.0, servers[s].delta()))
        });
        // Per-server completions sum to the fleet completions and every job
        // got exactly one assignment.
        let sum: usize = report.per_machine.iter().map(|m| m.report.completed).sum();
        assert_eq!(sum, report.completed, "{policy}");
        assert_eq!(report.assignment.len(), jobs.len());
        assert!(report.assignment.iter().all(|&s| s < servers.len()));
        assert!(report.value_fraction > 0.0 && report.value_fraction <= 1.0);
    }
}

#[test]
fn fleet_dominates_its_worst_single_server() {
    // The whole fleet must earn at least what routing everything onto each
    // single server would earn on that server alone... not true in general
    // for adversarial dispatch, but every in-tree dispatcher on symmetric
    // servers should beat a single server easily.
    let mut rng = Pcg32::seed_from_u64(2);
    let jobs = random_jobs(&mut rng, 150, 30.0);
    let server = PiecewiseConstant::constant(1.5)
        .unwrap()
        .with_declared_bounds(1.5, 1.5)
        .unwrap();
    let servers: Vec<PiecewiseConstant> = vec![server.clone(); 4];
    for policy in DISPATCH_NAMES {
        let single = fleet(&jobs, &servers[..1], policy, &|_| Box::new(Edf::new()));
        let four = fleet(&jobs, &servers, policy, &|_| Box::new(Edf::new()));
        assert!(
            four.value >= single.value,
            "{policy}: 4 servers {} < 1 server {}",
            four.value,
            single.value
        );
    }
}

#[test]
fn mmpp_driven_scenario_runs_clean() {
    let mut rng = Pcg32::seed_from_u64(3);
    let mmpp = Mmpp::bursty(2.0, 12.0, 8.0, 2.0);
    let releases = mmpp.sample(&mut rng, 30.0);
    assert!(!releases.is_empty());
    let jobs: Vec<Job> = releases
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let p = 0.3 + rng.next_f64() * 1.0;
            Job::new(
                JobId(i as u64),
                Time::new(r),
                Time::new(r + p), // zero claxity at c_lo = 1
                p,
                p * (1.0 + rng.next_f64() * 6.0),
            )
            .unwrap()
        })
        .collect();
    let jobs = JobSet::new(jobs).unwrap();
    let cap = sinusoid_steps(4.0, 3.0, 10.0, 8, 4)
        .unwrap()
        .with_declared_bounds(1.0, 7.0)
        .unwrap();
    let mut s = VDover::new(7.0, 7.0);
    let report = simulate(&jobs, &cap, &mut s, RunOptions::full());
    audit_report(&jobs, &cap, &report).expect("clean audit");
    assert_eq!(report.completed + report.missed, jobs.len());
}

#[test]
fn fractional_bound_sandwiches_every_scheduler() {
    let mut rng = Pcg32::seed_from_u64(4);
    let jobs = random_jobs(&mut rng, 40, 15.0);
    let cap = diurnal(5.0, 3.0, 1.0, 2.0, 4)
        .unwrap()
        .with_declared_bounds(1.0, 5.0)
        .unwrap();
    let (frac, fractions) = fractional_optimal(&jobs, &cap);
    assert!(frac <= jobs.total_value() + 1e-9);
    assert!(fractions.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
    for mut s in [
        Box::new(VDover::new(7.0, 5.0)) as Box<dyn Scheduler>,
        Box::new(Edf::new()),
        Box::new(Greedy::highest_density()),
    ] {
        let report = simulate(&jobs, &cap, &mut *s, RunOptions::lean());
        assert!(
            report.value <= frac + 1e-6,
            "{} earned {} above the LP bound {}",
            report.scheduler,
            report.value,
            frac
        );
    }
}

#[test]
fn fractional_dominates_exact_on_small_instances() {
    let mut rng = Pcg32::seed_from_u64(5);
    for _ in 0..10 {
        let jobs = random_jobs(&mut rng, 10, 8.0);
        let cap = PiecewiseConstant::from_durations(&[(3.0, 1.0), (3.0, 3.0)]).unwrap();
        let (frac, _) = fractional_optimal(&jobs, &cap);
        let (exact, _) = optimal_value(&jobs, &cap);
        assert!(frac + 1e-6 >= exact, "LP {frac} < exact {exact}");
    }
}

#[test]
fn patterns_compose_with_stretch_transform() {
    // The stretch map of a diurnal profile linearises it: equal workload in
    // equal stretched time.
    let cap = diurnal(4.0, 2.0, 1.0, 2.0, 5).unwrap();
    let map = StretchMap::new(cap.clone());
    let day_work = cap.integrate(Time::new(0.0), Time::new(2.0));
    let night_work = cap.integrate(Time::new(2.0), Time::new(4.0));
    let day_stretched = (map.forward(Time::new(2.0)) - map.forward(Time::new(0.0))).as_f64();
    let night_stretched = (map.forward(Time::new(4.0)) - map.forward(Time::new(2.0))).as_f64();
    assert!((day_work / night_work - day_stretched / night_stretched).abs() < 1e-9);
}
