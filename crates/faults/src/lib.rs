//! # cloudsched-faults
//!
//! Deterministic fault injection for the cloudsched simulator: the paper's
//! model (*Secondary Job Scheduling in the Cloud with Deadlines*) assumes a
//! capacity class `C(c_lo, c_hi)` that the provider honours, an observable
//! rate, and a job stream satisfying Def. 4 with importance ratio at most
//! `k`. This crate breaks each of those assumptions on purpose — and
//! replayably — so the degradation layer in `cloudsched-sim` can be tested
//! against the failure modes real clouds exhibit:
//!
//! * [`oracle::FaultyOracle`] — bounded measurement noise, stale readings
//!   and dropout blackouts on the monitoring plane;
//! * [`capacity::inject_dip`] — physical capacity-SLA violations: the rate
//!   genuinely dips below the declared `c_lo` while the claim stands;
//! * [`stream::corrupt_stream`] — inadmissible jobs, duplicate releases
//!   and value spikes in the job stream;
//! * [`campaign`] — seed-sweep chaos campaigns comparing degradation
//!   policies (`strict` / `degrade` / `best-effort`) against the
//!   fault-free baseline, with byte-stable JSONL fault traces.
//!
//! Determinism contract: every random choice derives from a caller-provided
//! seed via the workspace PRNGs (`SplitMix64` sub-seeding, per-surface
//! `Pcg32` streams). The same `(plan, seed)` pair always produces the same
//! corrupted instance, the same oracle readings, and — because the kernel's
//! event order is total — the same fault/recovery trace, byte for byte.

#![warn(missing_docs)]

pub mod campaign;
pub mod capacity;
pub mod config;
pub mod oracle;
pub mod stream;

pub use campaign::{
    chaos_trace, oracle_seed, prepare, run_campaign, run_seed, CampaignReport, ChaosConfig,
    FaultedInstance, PolicyOutcome, SeedOutcome,
};
pub use capacity::{apply_capacity_faults, inject_dip};
pub use config::{CapacityFaultConfig, FaultPlan, OracleFaultConfig, StreamFaultConfig};
pub use oracle::FaultyOracle;
pub use stream::{corrupt_stream, InjectedFault};
