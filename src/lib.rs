//! # cloudsched
//!
//! A production-quality Rust implementation of *Secondary Job Scheduling in
//! the Cloud with Deadlines* (Chen, He, Wong, Lee, Tong — IPDPS 2011):
//! preemptive scheduling of firm-deadline, valued secondary jobs on a single
//! processor whose capacity varies over time (the surplus left by primary
//! cloud workloads), featuring
//!
//! * the **V-Dover** online scheduler with asymptotically optimal
//!   competitive ratio under individual admissibility,
//! * the classical baselines it is measured against (EDF, LLF, FIFO, greedy,
//!   Koren–Shasha **Dover** with a capacity estimate),
//! * the **offline stretch transformation** reducing varying capacity to the
//!   classical constant-capacity problem, with exact and approximate offline
//!   solvers,
//! * an exact **event-driven simulator**, workload/capacity generators
//!   (including the paper's §IV setup), a cloud substrate that induces
//!   capacity from primary-job load, and the full competitive-ratio theory.
//!
//! This facade crate re-exports the workspace so applications depend on one
//! name:
//!
//! ```
//! use cloudsched::prelude::*;
//!
//! // Two jobs compete for a processor whose capacity doubles at t = 2.
//! let jobs = JobSet::from_tuples(&[
//!     (0.0, 4.0, 4.0, 10.0), // (release, deadline, workload, value)
//!     (0.0, 6.0, 5.0, 6.0),
//! ]).unwrap();
//! let capacity = PiecewiseConstant::from_durations(&[(2.0, 1.0), (2.0, 2.0)])
//!     .unwrap()
//!     .with_declared_bounds(1.0, 2.0)
//!     .unwrap();
//!
//! let mut scheduler = VDover::new(2.0, 2.0); // k = 2, δ = 2
//! let report = simulate(&jobs, &capacity, &mut scheduler, RunOptions::default());
//! assert!(report.value > 0.0);
//! ```

#![warn(missing_docs)]

pub use cloudsched_analysis as analysis;
pub use cloudsched_capacity as capacity;
pub use cloudsched_cloud as cloud;
pub use cloudsched_core as core;
pub use cloudsched_faults as faults;
pub use cloudsched_insight as insight;
pub use cloudsched_obs as obs;
pub use cloudsched_offline as offline;
pub use cloudsched_sched as sched;
pub use cloudsched_sim as sim;
pub use cloudsched_workload as workload;

pub mod trace;

/// The names almost every user needs.
pub mod prelude {
    pub use cloudsched_capacity::{
        CapacityProfile, Constant, Instance, PiecewiseConstant, StretchMap,
    };
    pub use cloudsched_core::prelude::*;
    pub use cloudsched_sched::{Dover, Edf, Fifo, Greedy, Llf, VDover, VDoverConfig};
    pub use cloudsched_sim::{
        audit::audit_report, simulate, Decision, RunOptions, RunReport, Scheduler, SimContext,
    };
    pub use cloudsched_workload::{poisson_arrivals, PaperScenario};
}

pub use trace::{run_traced, run_traced_with_provenance, TracedRun};
