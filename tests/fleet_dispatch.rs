//! Oracle for the fleet dispatch engine (`DESIGN.md` §16.1–§16.2).
//!
//! Every case runs `run_fleet` on `FleetScenario::table1(8, M)` at a short
//! horizon and folds the dispatch outcome — the full `assignment` vector,
//! the `quarantined` / `steals` / `readmitted` / `unreclaimed` counters —
//! and, per machine, the value bits, completed, events and preemptions into
//! one FNV-1a digest. The pinned digests were recorded on the eager-aging
//! engine (every machine's backlog integrated on every tick, full
//! quarantine rescan at every recovery point); the drain-level engine with
//! the compacted quarantine must reproduce every one of them bit for bit,
//! at one and at two worker threads.

mod common;

use cloudsched_core::rng::{derive_seed, FLEET_DISPATCH_RUN_OFFSET, SEED_STREAM_FLEET};
use cloudsched_sched::{by_name, DispatchPolicy};
use cloudsched_sim::{run_fleet, FleetReport, RunOptions, Scheduler};
use cloudsched_workload::FleetScenario;
use common::{fnv1a_word, FNV_OFFSET};

const LAMBDA: f64 = 8.0;
const HORIZON: f64 = 10.0;
const SEEDS: [usize; 3] = [0, 1, 2];

/// `(policy, M, seed, digest)` recorded on the eager-aging engine.
const PINNED: &[(&str, usize, usize, u64)] = &[
    ("rr", 1, 0, 0xd4c1647ef87d47bf),
    ("rr", 1, 1, 0x155f83e2a79e8929),
    ("rr", 1, 2, 0xf529a7ab6a2a2e15),
    ("rr", 4, 0, 0x8451c26984512120),
    ("rr", 4, 1, 0x2b72b15156118ba5),
    ("rr", 4, 2, 0x7cedbc494ce97711),
    ("rr", 16, 0, 0xcc36022c66e9459c),
    ("rr", 16, 1, 0x25aa6032eb1a4ca4),
    ("rr", 16, 2, 0x2c620391ed818c0c),
    ("rr", 64, 0, 0xc02339a6ead41f39),
    ("rr", 64, 1, 0xd40dcc62642a937f),
    ("rr", 64, 2, 0x37346e216affb7bf),
    ("llf", 1, 0, 0xd4c1647ef87d47bf),
    ("llf", 1, 1, 0x155f83e2a79e8929),
    ("llf", 1, 2, 0xf529a7ab6a2a2e15),
    ("llf", 4, 0, 0x72bd781448216034),
    ("llf", 4, 1, 0x00d527896a2b3a78),
    ("llf", 4, 2, 0xc31d45ea08e80f84),
    ("llf", 16, 0, 0x4730419a3085a830),
    ("llf", 16, 1, 0x51b72a51edef67e7),
    ("llf", 16, 2, 0x63c731021298f38b),
    ("llf", 64, 0, 0x9e335252aec2b27d),
    ("llf", 64, 1, 0xedae5aae96656ead),
    ("llf", 64, 2, 0x848811876ff57d24),
    ("p2c", 1, 0, 0xd4c1647ef87d47bf),
    ("p2c", 1, 1, 0x155f83e2a79e8929),
    ("p2c", 1, 2, 0xf529a7ab6a2a2e15),
    ("p2c", 4, 0, 0x4e130249bb2712c1),
    ("p2c", 4, 1, 0x5dd8b193da53e0b7),
    ("p2c", 4, 2, 0xcbaf2d854af30251),
    ("p2c", 16, 0, 0x5043120790c20633),
    ("p2c", 16, 1, 0x3bf90cdbf31226d2),
    ("p2c", 16, 2, 0x8c9795d3c7f9a984),
    ("p2c", 64, 0, 0xadf43a364eed8d18),
    ("p2c", 64, 1, 0xeca64b92455b91a9),
    ("p2c", 64, 2, 0xcedb84027af1f321),
];

fn digest(r: &FleetReport) -> u64 {
    let counters = [r.quarantined, r.steals, r.readmitted, r.unreclaimed];
    let per_machine = r.per_machine.iter().flat_map(|m| {
        [
            m.report.value.to_bits(),
            m.report.completed as u64,
            m.report.events as u64,
            m.report.preemptions as u64,
        ]
    });
    r.assignment
        .iter()
        .chain(counters.iter())
        .map(|&x| x as u64)
        .chain(per_machine)
        .fold(FNV_OFFSET, fnv1a_word)
}

fn run_case(policy: &str, machines: usize, run: usize, threads: usize) -> FleetReport {
    let scenario = FleetScenario::table1(LAMBDA, machines).with_horizon(HORIZON);
    let instance = scenario
        .generate(derive_seed(SEED_STREAM_FLEET, LAMBDA, run))
        .expect("invariant: fleet generation is infallible for the fixed scenario");
    let mut dispatch = DispatchPolicy::parse(policy)
        .expect("invariant: in-tree policy name")
        .build(derive_seed(
            SEED_STREAM_FLEET,
            LAMBDA,
            FLEET_DISPATCH_RUN_OFFSET + run,
        ));
    let (k, delta) = (scenario.base.density_hi, scenario.base.c_hi);
    let (c_lo, c_hi) = (scenario.base.c_lo, scenario.base.c_hi);
    let factory = move |_m: usize| -> Box<dyn Scheduler> {
        by_name("vdover", k, delta, c_lo, c_hi).expect("invariant: valid V-Dover parameters")
    };
    run_fleet(
        &instance.jobs,
        &instance.machines,
        dispatch.as_mut(),
        &factory,
        RunOptions::lean(),
        threads,
    )
}

#[test]
fn dispatch_matches_the_eager_aging_oracle() {
    assert_eq!(PINNED.len(), 3 * 4 * SEEDS.len(), "one digest per case");
    for &(policy, machines, run, want) in PINNED {
        for threads in [1usize, 2] {
            let got = digest(&run_case(policy, machines, run, threads));
            assert_eq!(
                got, want,
                "{policy} M={machines} seed={run} threads={threads}: \
                 digest {got:016x}, oracle {want:016x}"
            );
        }
    }
}
