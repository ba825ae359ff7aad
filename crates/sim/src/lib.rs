//! # cloudsched-sim
//!
//! Event-driven simulator for preemptive scheduling of firm-deadline jobs on
//! a single processor with time-varying capacity — the evaluation substrate
//! for *Secondary Job Scheduling in the Cloud with Deadlines* (§II-A, §IV).
//!
//! The authors' simulator was never published; this one implements the
//! paper's mathematical model *exactly*:
//!
//! * continuous time, **no quantisation** — job progress is the exact
//!   integral `∫ c(τ)dτ` over execution slices of a piecewise-constant
//!   capacity profile, and completion instants are closed-form inverse
//!   integrals;
//! * the three interrupt types of the V-Dover skeleton (procedure A) map
//!   one-to-one onto kernel events: *job release*, *job completion or
//!   failure* (deadline), and scheduler-requested *timers* (used for the
//!   zero-conservative-laxity interrupt, and by Dover for latest-start-time
//!   interrupts);
//! * preemption is free and exact, as the model assumes.
//!
//! Schedulers implement the [`Scheduler`] trait: the kernel calls one handler
//! per interrupt and the handler returns a [`Decision`] (run job X / idle /
//! keep going). Everything a legitimate *online* algorithm may observe —
//! job parameters of released jobs, remaining workloads (derivable online
//! from the observed past capacity), the current rate, and the declared
//! capacity class bounds — is exposed through [`SimContext`]; the future of
//! the capacity trace is not reachable from scheduler code.
//!
//! One way drives the kernel: [`Run`] carries an instance, its
//! [`RunOptions`] and the optional attachments (workspace, trace sink,
//! profiler, watchdog with its oracle); [`simulate`] is its one-line form.
//!
//! After a run, [`audit::audit_report`] re-checks the recorded schedule
//! against the model invariants (single job at a time, capacity-respecting
//! progress, firm deadlines, value accounting).
//!
//! When the cloud breaks the model's assumptions instead — capacity-SLA
//! dips, oracle dropouts, corrupt job streams — the [`degrade`] layer keeps
//! the kernel deterministic and honest: a [`Watchdog`] re-checks the paper's
//! preconditions online and a [`DegradationPolicy`] decides between aborting
//! with a typed error, quarantining-and-recovering, or logging and carrying
//! on ([`Run::watchdog`]).

// L010: no lossy `as` casts in the kernel; the few deliberate ones carry a
// site-level allow that gives the reason.
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
#![warn(missing_docs)]

pub mod audit;
pub mod context;
pub mod degrade;
pub mod engine;
pub mod event;
pub mod fleet;
pub mod report;
pub mod scheduler;
pub mod service;
pub mod snapshot;
pub mod workspace;

pub use context::{Decision, SimContext};
pub use degrade::{
    DegradationPolicy, DegradationStats, DegradedOutcome, OracleReading, RateOracle, TrueOracle,
    Watchdog, WatchdogConfig,
};
pub use engine::{simulate, Run, RunOptions};
pub use fleet::{run_fleet, Dispatch, FleetLoads, FleetReport, MachineReport};
pub use report::{RunReport, TrajectoryPoint};
pub use scheduler::Scheduler;
pub use service::{
    journal_header, parse_stream, recover, serve, Arrival, DecisionReason, JournalHeader,
    ServiceConfig, ServiceDecision, ServiceOutcome,
};
pub use workspace::SimWorkspace;
