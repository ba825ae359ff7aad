//! # cloudsched-workload
//!
//! Stochastic workload and capacity-trace generators, including the exact
//! simulation setup of the paper's §IV:
//!
//! > jobs released by a Poisson process with rate `λ`, workloads Exp(µ=1),
//! > relative deadline equal to workload divided by `c_lo` (zero conservative
//! > laxity), value density uniform on `[1, 7]` (so `k = 7`), horizon
//! > `H = 2000/λ`, and capacity following a two-state continuous-time Markov
//! > process on `{1, 35}` with mean sojourn `H/4`.
//!
//! All distributions are hand-rolled inverse transforms on top of the
//! vendored uniform source in `cloudsched_core::rng`, so the crate builds
//! with zero external dependencies (the sandbox has no registry access).

#![warn(missing_docs)]

pub mod ctmc;
pub mod dist;
pub mod fleet;
pub mod mmpp;
pub mod paper;
pub mod poisson;
pub mod traces;
pub mod underloaded;

pub use ctmc::{CtmcCapacity, CtmcState};
pub use fleet::{FleetInstance, FleetScenario};
pub use mmpp::{Mmpp, MmppState};
pub use paper::{PaperScenario, ScenarioInstance};
pub use poisson::poisson_arrivals;
