//! # cloudsched-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§IV), plus the extra experiments indexed in
//! `DESIGN.md`:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table I — value percentage, Dover(ĉ) vs V-Dover, relative gain |
//! | `fig1` | Figure 1(a–d) — cumulative value vs time at λ = 6 |
//! | `bounds` | the Theorem 1/3 competitive-ratio curves and β* |
//! | `adversary` | Theorem 3(3) — vanishing ratio without admissibility |
//! | `underloaded` | Theorem 2 — EDF earns 100% on underloaded instances |
//! | `transform` | §III-A — stretch reduction equals direct solving |
//! | `ablation` | design-choice ablations (supplement queue, β, ĉ, Qsupp order) |
//!
//! The library part hosts the parallel Monte-Carlo driver, the scheduler
//! factory, the std-only [`microbench`] timing harness shared by the
//! binaries and the bench targets, and the three checked-in benchmark
//! suites behind `cloudsched bench`: the [`kernel_bench`] hot-path sweep
//! (`BENCH_kernel.json`), the [`sweep_bench`] Monte-Carlo throughput sweep
//! (`BENCH_sweep.json`) and the [`fleet_bench`] fleet-scaling suite
//! (`BENCH_fleet.json`). All three reports share the one [`row`] codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algos;
pub mod fleet_bench;
pub mod harness;
pub mod kernel_bench;
pub mod microbench;
pub mod ratio;
pub mod row;
pub mod sweep_bench;

pub use algos::SchedulerSpec;
pub use fleet_bench::{fleet_digest, fleet_suite_run, run_fleet_bench, FleetBenchConfig};
pub use harness::{
    default_threads, parallel_map, parallel_map_with, run_instance, run_instance_batch,
    run_instance_batch_in, run_instance_in,
};
pub use kernel_bench::{bench_instance, run_kernel_bench, KernelBenchConfig};
pub use microbench::BenchGroup;
pub use ratio::{empirical_ratio, Normalizer};
pub use row::{parse_report, render_report, Row};
pub use sweep_bench::{run_sweep_bench, sweep_specs, SweepBenchConfig, SweepBenchOutcome};
