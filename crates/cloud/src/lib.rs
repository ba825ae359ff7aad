//! # cloudsched-cloud
//!
//! The cloud substrate that *induces* the time-varying capacity the paper
//! schedules against. §I models secondary jobs running on "the time-varying
//! surplus cloud resources left by the execution of the high priority jobs":
//! this crate implements that primary side —
//!
//! * [`PrimaryLoad`] — an M/G/∞-style population of primary jobs (VMs) on a
//!   server, each occupying a fraction of its capacity for a random holding
//!   time;
//! * [`Server`] — a fixed-capacity machine whose *surplus* (total capacity
//!   minus primary occupancy, floored at a reservation) becomes the
//!   secondary capacity profile `c(t)`;
//! * [`spot`] — an EC2-Spot-style scenario: a fleet-level price proxy
//!   derived from utilisation, and helpers to build complete secondary
//!   scheduling instances on the induced capacity.
//!
//! The crate only induces capacity. The paper's sketched *cloud-wise*
//! extension — a dispatcher routing each secondary job to one of many
//! servers, each running its own scheduler — is `cloudsched_sim::run_fleet`
//! with the dispatchers of `cloudsched_sched::dispatch`; feed it the
//! profiles built here (`examples/cloud_fleet.rs`).
//!
//! The paper's own evaluation uses a two-state CTMC capacity
//! (`cloudsched-workload::ctmc`); this crate provides the *realistic*
//! alternative used by the examples, producing exactly the same
//! [`PiecewiseConstant`] profiles the schedulers consume.

#![warn(missing_docs)]

pub mod primary;
pub mod server;
pub mod spot;

pub use primary::{PrimaryJob, PrimaryLoad};
pub use server::Server;

use cloudsched_capacity::PiecewiseConstant;

/// Convenience: a complete induced-capacity pipeline — sample a primary
/// load on a server and return the surplus capacity profile.
pub fn induced_capacity<R: cloudsched_core::rng::Rng + ?Sized>(
    rng: &mut R,
    server: &Server,
    load: &PrimaryLoad,
    horizon: f64,
) -> Result<PiecewiseConstant, cloudsched_core::CoreError> {
    let jobs = load.sample(rng, horizon);
    server.surplus_profile(&jobs, horizon)
}
