//! Parallel Monte-Carlo driver.
//!
//! The index fan-out lives in [`cloudsched_core::par`] (work-stealing,
//! index-order deterministic, thread-count independent) and is re-exported
//! here so experiment binaries keep a single import point. This module adds
//! the simulation-specific layers on top: per-worker workspace reuse
//! ([`run_instance_in`]) and the shared-instance multi-policy batch runner
//! ([`run_instance_batch`]).

use crate::algos::SchedulerSpec;
use cloudsched_capacity::Instance;
use cloudsched_sim::{Run, RunOptions, RunReport, SimWorkspace};

pub use cloudsched_core::par::{default_threads, parallel_map, parallel_map_with};

/// Simulates one scheduler spec on one instance.
///
/// Convenience form of [`run_instance_in`] with a throwaway workspace —
/// fine for single runs; sweeps should hold a [`SimWorkspace`] per worker
/// (e.g. via [`parallel_map_with`]) and call [`run_instance_in`] or
/// [`run_instance_batch`] instead.
pub fn run_instance(instance: &Instance, spec: &SchedulerSpec, options: RunOptions) -> RunReport {
    run_instance_in(&mut SimWorkspace::new(), instance, spec, options)
}

/// Simulates one scheduler spec on one instance, reusing `ws` for every
/// per-run buffer. Results are byte-identical to [`run_instance`].
pub fn run_instance_in(
    ws: &mut SimWorkspace,
    instance: &Instance,
    spec: &SchedulerSpec,
    options: RunOptions,
) -> RunReport {
    let mut scheduler = spec.build();
    Run::new(&instance.jobs, &instance.capacity, options)
        .workspace(ws)
        .run(&mut *scheduler)
}

/// Runs every spec in `specs` on the same instance and returns the reports
/// in spec order.
///
/// This is the Table I inner loop: the instance (arrival draw + capacity
/// realisation) is built **once** per seed and replayed across all
/// schedulers, instead of regenerating per policy. All runs share one
/// internal workspace, so after the first spec warms it the remaining
/// specs reuse its buffers (every report keeps its own outcome table — the
/// one per-run allocation the batch can't recycle, since it's returned).
/// The reports are exactly what per-spec [`run_instance`] calls would have
/// produced.
pub fn run_instance_batch(
    instance: &Instance,
    specs: &[SchedulerSpec],
    options: RunOptions,
) -> Vec<RunReport> {
    run_instance_batch_in(&mut SimWorkspace::new(), instance, specs, options)
}

/// [`run_instance_batch`] into a caller-owned workspace, for sweeps that
/// batch many seeds per worker.
pub fn run_instance_batch_in(
    ws: &mut SimWorkspace,
    instance: &Instance,
    specs: &[SchedulerSpec],
    options: RunOptions,
) -> Vec<RunReport> {
    specs
        .iter()
        .map(|spec| run_instance_in(ws, instance, spec, options))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::JobSet;

    fn small_instance() -> Instance {
        let jobs = JobSet::from_tuples(&[
            (0.0, 4.0, 2.0, 1.0),
            (0.5, 3.0, 1.0, 5.0),
            (1.0, 9.0, 4.0, 2.0),
        ])
        .unwrap();
        let cap = cloudsched_capacity::PiecewiseConstant::constant(1.0).unwrap();
        Instance::new(jobs, cap)
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(100, 8, |i| i * i);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn parallel_map_edge_cases() {
        assert!(parallel_map(0, 4, |i| i).is_empty());
        assert_eq!(parallel_map(1, 16, |i| i + 1), vec![1]);
    }

    #[test]
    fn run_instance_smoke() {
        let jobs = JobSet::from_tuples(&[(0.0, 4.0, 2.0, 1.0)]).unwrap();
        let cap = cloudsched_capacity::PiecewiseConstant::constant(1.0).unwrap();
        let inst = Instance::new(jobs, cap);
        let r = run_instance(&inst, &SchedulerSpec::Edf, RunOptions::lean());
        assert_eq!(r.completed, 1);
        assert_eq!(r.scheduler, "EDF");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The same indexed tasks give identical results regardless of
        // parallelism.
        let a = parallel_map(50, 1, |i| i as u64 * 7 % 13);
        let b = parallel_map(50, 8, |i| i as u64 * 7 % 13);
        assert_eq!(a, b);
    }

    #[test]
    fn workspace_reuse_matches_fresh_runs() {
        let inst = small_instance();
        let mut ws = SimWorkspace::new();
        let vdover = SchedulerSpec::VDover { k: 5.0, delta: 1.0 };
        for spec in [SchedulerSpec::Edf, vdover] {
            let fresh = run_instance(&inst, &spec, RunOptions::full());
            let reused = run_instance_in(&mut ws, &inst, &spec, RunOptions::full());
            assert_eq!(format!("{fresh:?}"), format!("{reused:?}"));
            ws.recycle(reused);
        }
        assert_eq!(ws.runs(), 2);
    }

    #[test]
    fn batch_equals_per_spec_runs() {
        let inst = small_instance();
        let specs = [
            SchedulerSpec::Edf,
            SchedulerSpec::VDover { k: 5.0, delta: 1.0 },
            SchedulerSpec::Edf,
        ];
        let batch = run_instance_batch(&inst, &specs, RunOptions::full());
        assert_eq!(batch.len(), specs.len());
        for (spec, got) in specs.iter().zip(&batch) {
            let want = run_instance(&inst, spec, RunOptions::full());
            assert_eq!(format!("{want:?}"), format!("{got:?}"));
        }
    }
}
