//! # cloudsched-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§IV), plus the extra experiments indexed in
//! `DESIGN.md`: the [`repro`] module behind `cloudsched repro`.
//!
//! The library also hosts the Monte-Carlo run driver and the three
//! checked-in benchmark suites behind `cloudsched bench`: the
//! [`kernel_bench`] hot-path sweep (`BENCH_kernel.json`), the
//! [`sweep_bench`] Monte-Carlo throughput sweep (`BENCH_sweep.json`) and
//! the [`fleet_bench`] fleet-scaling suite (`BENCH_fleet.json`). All three
//! reports share the one [`row`] codec, and [`benchdiff`] compares two of
//! them (`cloudsched bench-diff`). Schedulers are named by
//! [`cloudsched_sched::SchedulerSpec`].

#![warn(missing_docs)]

pub mod benchdiff;
pub mod fleet_bench;
pub mod harness;
pub mod kernel_bench;
pub mod repro;
pub mod row;
pub mod sweep_bench;

pub use benchdiff::{diff_reports, BenchDiff, MetricDelta};
pub use fleet_bench::{fleet_digest, fleet_suite_run, run_fleet_bench, FleetBenchConfig};
pub use harness::{run_instance, run_instance_batch, run_instance_batch_in, run_instance_in};
pub use kernel_bench::{bench_instance, run_kernel_bench, KernelBenchConfig};
pub use row::{parse_report, render_report, Row};
pub use sweep_bench::{run_sweep_bench, sweep_specs, SweepBenchConfig, SweepBenchOutcome};
