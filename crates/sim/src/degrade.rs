//! Graceful degradation: watchdog, policies and the degraded entry point.
//!
//! Every guarantee in the paper leans on assumptions the cloud can break:
//! conservative laxity (Definition 5) is only safe while `c(t) ≥ c_lo`
//! actually holds, and Theorem 3's competitive ratio evaporates when jobs
//! are not individually admissible (Definition 4, §III-D). This module
//! keeps the engine running — deterministically and observably — when those
//! assumptions fail, instead of silently violating the theorems.
//!
//! Three moving parts:
//!
//! * a [`RateOracle`] — the *monitoring plane*. Job progress always
//!   integrates the physical capacity (the kernel cannot mis-execute), but
//!   the watchdog sees capacity only through the oracle, which may add
//!   noise, lag behind, or go dark entirely (`cloudsched-faults` provides a
//!   seeded faulty implementation);
//! * a [`Watchdog`] that re-checks the paper's preconditions online: the
//!   Definition 4 admissibility predicate on every release (the same check
//!   [`crate::audit::certify_admissibility`] certifies post-hoc), duplicate
//!   releases, value spikes breaking the assumed importance ratio `k`, and
//!   the capacity SLA `c(t) ≥ c_lo` on every observed segment;
//! * a [`DegradationPolicy`] deciding what a detected fault does to the
//!   run: `Strict` aborts with a typed [`CoreError`], `Degrade` quarantines
//!   offending jobs and re-estimates a running `c_lo` (conservative
//!   laxities recompute automatically because schedulers read `c_lo` from
//!   the live [`crate::SimContext`]), `BestEffort` logs and continues.
//!
//! Under `Degrade`, quarantined jobs are re-admitted when the observed
//! capacity recovers to the declared `c_lo`; V-Dover then parks any
//! zero-conservative-laxity re-admissions in its supplement queue, which is
//! exactly the paper's mechanism for jobs that became feasible late.
//!
//! Determinism contract: every decision here is a pure function of the
//! event sequence and the oracle's (seeded) readings — same seed and fault
//! configuration, byte-identical trace.

use crate::report::RunReport;
use cloudsched_core::{CoreError, Job, Time};
use cloudsched_obs::FaultKind;
use std::collections::HashMap;

/// What the engine does when the watchdog detects a broken assumption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Abort the run with a typed [`CoreError`] on the first fault.
    Strict,
    /// Quarantine offending jobs, re-estimate a running `c_lo` on SLA dips
    /// and re-admit quarantined work when capacity recovers.
    #[default]
    Degrade,
    /// Record the fault in the trace and metrics, change nothing else.
    BestEffort,
}

impl DegradationPolicy {
    /// Stable command-line name.
    pub fn as_str(self) -> &'static str {
        match self {
            DegradationPolicy::Strict => "strict",
            DegradationPolicy::Degrade => "degrade",
            DegradationPolicy::BestEffort => "best-effort",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "strict" => DegradationPolicy::Strict,
            "degrade" => DegradationPolicy::Degrade,
            "best-effort" | "besteffort" => DegradationPolicy::BestEffort,
            _ => return None,
        })
    }
}

/// One capacity measurement as seen through the monitoring plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OracleReading {
    /// A (possibly noisy or stale) rate measurement.
    Rate(f64),
    /// No reading: the oracle is dark for this probe.
    Down,
}

/// The capacity-measurement channel between the physical profile and the
/// watchdog. Implementations may distort `true_rate` (noise, staleness) or
/// withhold it entirely ([`OracleReading::Down`]).
///
/// Probes happen at deterministic instants (t = 0 and every capacity
/// segment boundary), so a seeded implementation yields a replayable fault
/// sequence.
pub trait RateOracle {
    /// Observes the capacity at `t`, where `true_rate` is the physical rate.
    fn read(&mut self, t: Time, true_rate: f64) -> OracleReading;
}

/// The transparent oracle: reports the physical rate unchanged.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrueOracle;

impl RateOracle for TrueOracle {
    fn read(&mut self, _t: Time, true_rate: f64) -> OracleReading {
        OracleReading::Rate(true_rate)
    }
}

/// Tunables for the [`Watchdog`].
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Consecutive dark probes tolerated (retry budget) before the oracle
    /// is declared dead.
    pub max_retries: u32,
    /// Importance-ratio bound `k` for value-spike detection; `None`
    /// disables the check.
    pub k_limit: Option<f64>,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            max_retries: 3,
            k_limit: None,
        }
    }
}

/// Counters describing what the degradation layer saw and did in one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationStats {
    /// Job-stream faults detected at release time.
    pub faults_detected: usize,
    /// Observed capacity readings below the declared `c_lo`.
    pub sla_violations: usize,
    /// Times the running `c_lo` estimate was lowered.
    pub clo_reestimates: usize,
    /// Jobs quarantined (never more than once each).
    pub quarantined: usize,
    /// Quarantined jobs re-admitted after capacity recovery.
    pub readmitted: usize,
    /// Times the oracle was declared dead.
    pub oracle_dropouts: usize,
    /// Outages that ended with a reading (dead or not).
    pub oracle_recoveries: usize,
    /// Smallest rate the oracle ever reported (`+∞` if it never reported).
    pub min_observed_rate: f64,
    /// Final effective `c_lo` (equals the declared bound unless `Degrade`
    /// re-estimated it downward).
    pub effective_c_lo: f64,
}

/// A job-stream fault: the broken assumption plus its typed error.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamFault {
    /// Which assumption the job violates.
    pub kind: FaultKind,
    /// The typed error `Strict` aborts with.
    pub error: CoreError,
}

/// Everything [`Watchdog::observe_rate`] concluded from one probe. The
/// kernel turns these into trace events, metrics and policy actions.
#[derive(Debug, Clone, Copy, Default)]
pub struct RateAssessment {
    /// The oracle produced a reading after being dark for this long.
    pub recovered_after: Option<f64>,
    /// The oracle exhausted its retry budget on this probe; the payload is
    /// the number of consecutive failed readings.
    pub declared_dead: Option<u32>,
    /// The observed rate undercuts the declared `c_lo` (payload: the rate).
    pub sla_violation: Option<f64>,
    /// `Degrade` lowered the effective `c_lo` (payload: `(from, to)`).
    pub reestimate: Option<(f64, f64)>,
    /// The reading is present and at/above the declared `c_lo` — the
    /// trigger for re-admitting quarantined jobs.
    pub capacity_ok: bool,
}

/// Online checker of the paper's preconditions, with the running `c_lo`
/// estimate and the oracle-liveness bookkeeping.
#[derive(Debug)]
pub struct Watchdog {
    policy: DegradationPolicy,
    declared_lo: f64,
    declared_hi: f64,
    cfg: WatchdogConfig,
    effective_c_lo: f64,
    /// Smallest positive value density seen on clean jobs; spike detection
    /// compares against `k_limit ×` this.
    min_density: f64,
    /// Exact parameter bits of every clean release → first job id.
    seen: HashMap<[u64; 4], u64>,
    consecutive_down: u32,
    down_since: Option<Time>,
    dead: bool,
    pending_quarantine: usize,
    stats: DegradationStats,
}

impl Watchdog {
    /// Creates a watchdog for a run declared to be in class `C(c_lo, c_hi)`.
    pub fn new(policy: DegradationPolicy, c_lo: f64, c_hi: f64, cfg: WatchdogConfig) -> Self {
        Watchdog {
            policy,
            declared_lo: c_lo,
            declared_hi: c_hi,
            cfg,
            effective_c_lo: c_lo,
            min_density: f64::INFINITY,
            seen: HashMap::new(),
            consecutive_down: 0,
            down_since: None,
            dead: false,
            pending_quarantine: 0,
            stats: DegradationStats {
                faults_detected: 0,
                sla_violations: 0,
                clo_reestimates: 0,
                quarantined: 0,
                readmitted: 0,
                oracle_dropouts: 0,
                oracle_recoveries: 0,
                min_observed_rate: f64::INFINITY,
                effective_c_lo: c_lo,
            },
        }
    }

    /// The configured policy.
    pub fn policy(&self) -> DegradationPolicy {
        self.policy
    }

    /// The current running lower capacity estimate: the declared `c_lo`
    /// until an observed SLA dip lowers it (under `Degrade` only).
    pub fn effective_c_lo(&self) -> f64 {
        self.effective_c_lo
    }

    /// The declared lower class bound (the input contract's `c_lo`).
    pub fn declared_lo(&self) -> f64 {
        self.declared_lo
    }

    /// The declared upper class bound (unchanged by degradation).
    pub fn declared_hi(&self) -> f64 {
        self.declared_hi
    }

    /// Quarantined jobs not yet re-admitted.
    pub fn quarantine_pending(&self) -> usize {
        self.pending_quarantine
    }

    /// A copy of the counters (finalised with the current effective `c_lo`).
    pub fn stats(&self) -> DegradationStats {
        let mut s = self.stats;
        s.effective_c_lo = self.effective_c_lo;
        s
    }

    /// Checks one released job against the paper's input-stream assumptions:
    /// duplicate parameters, Definition 4 admissibility (against the
    /// *declared* `c_lo` — the class the input contract names), and value
    /// spikes exceeding the assumed importance ratio.
    ///
    /// Clean jobs update the duplicate and density books; faulty jobs do
    /// not, so one bad job cannot mask the next.
    pub fn inspect_release(&mut self, job: &Job) -> Option<StreamFault> {
        let key = [
            job.release.as_f64().to_bits(),
            job.deadline.as_f64().to_bits(),
            job.workload.to_bits(),
            job.value.to_bits(),
        ];
        if let Some(&of) = self.seen.get(&key) {
            self.stats.faults_detected += 1;
            return Some(StreamFault {
                kind: FaultKind::Duplicate,
                error: CoreError::DuplicateRelease { id: job.id.0, of },
            });
        }
        if !job.individually_admissible(self.declared_lo) {
            self.stats.faults_detected += 1;
            return Some(StreamFault {
                kind: FaultKind::Inadmissible,
                error: CoreError::InadmissibleJob {
                    id: job.id.0,
                    window: (job.deadline - job.release).as_f64(),
                    min_time: job.workload / self.declared_lo,
                },
            });
        }
        let density = job.value / job.workload;
        if let Some(k) = self.cfg.k_limit {
            if density.is_finite() && density > 0.0 && self.min_density.is_finite() {
                let limit = k * self.min_density;
                if density > limit && !cloudsched_core::approx_le(density, limit) {
                    self.stats.faults_detected += 1;
                    return Some(StreamFault {
                        kind: FaultKind::ValueSpike,
                        error: CoreError::ValueSpike {
                            id: job.id.0,
                            density,
                            limit,
                        },
                    });
                }
            }
        }
        self.seen.insert(key, job.id.0);
        if density.is_finite() && density > 0.0 {
            self.min_density = self.min_density.min(density);
        }
        None
    }

    /// Folds one oracle probe into the liveness and SLA bookkeeping.
    pub fn observe_rate(&mut self, t: Time, reading: OracleReading) -> RateAssessment {
        let mut out = RateAssessment::default();
        match reading {
            OracleReading::Down => {
                if self.consecutive_down == 0 {
                    self.down_since = Some(t);
                }
                self.consecutive_down += 1;
                if !self.dead && self.consecutive_down > self.cfg.max_retries {
                    self.dead = true;
                    self.stats.oracle_dropouts += 1;
                    out.declared_dead = Some(self.consecutive_down);
                }
            }
            OracleReading::Rate(rate) => {
                if self.consecutive_down > 0 {
                    let since = self.down_since.take().unwrap_or(t);
                    out.recovered_after = Some((t - since).as_f64());
                    self.consecutive_down = 0;
                    self.dead = false;
                    self.stats.oracle_recoveries += 1;
                }
                self.stats.min_observed_rate = self.stats.min_observed_rate.min(rate);
                if rate < self.declared_lo && !cloudsched_core::approx_eq(rate, self.declared_lo) {
                    self.stats.sla_violations += 1;
                    out.sla_violation = Some(rate);
                    if self.policy == DegradationPolicy::Degrade && rate < self.effective_c_lo {
                        let from = self.effective_c_lo;
                        self.effective_c_lo = rate;
                        self.stats.clo_reestimates += 1;
                        out.reestimate = Some((from, rate));
                    }
                } else {
                    out.capacity_ok = true;
                }
            }
        }
        out
    }

    /// Records that the kernel quarantined a job.
    pub fn note_quarantine(&mut self) {
        self.stats.quarantined += 1;
        self.pending_quarantine += 1;
    }

    /// Records that the kernel re-admitted a quarantined job.
    pub fn note_readmit(&mut self) {
        self.stats.readmitted += 1;
        self.pending_quarantine = self.pending_quarantine.saturating_sub(1);
    }

    /// Records that a quarantined job reached its deadline without ever
    /// being re-admitted (it is no longer pending).
    pub fn note_quarantine_expired(&mut self) {
        self.pending_quarantine = self.pending_quarantine.saturating_sub(1);
    }
}

/// The result of a degraded run: the usual report (partial when `Strict`
/// aborted), the abort cause if any, the degradation counters, and the
/// post-run audit findings.
#[derive(Debug, Clone)]
pub struct DegradedOutcome {
    /// The simulation report. On a `Strict` abort this covers the prefix of
    /// the run up to the abort instant (value accrued so far, outcomes of
    /// resolved jobs), so abort costs are measurable against `Degrade`.
    pub report: RunReport,
    /// `Some` when the run was aborted by the `Strict` policy.
    pub aborted: Option<CoreError>,
    /// What the watchdog saw and did.
    pub stats: DegradationStats,
    /// Findings of [`crate::audit::audit_report`] over the recorded
    /// schedule (empty when clean; also empty when no schedule was
    /// recorded or the run aborted).
    pub audit_errors: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::JobSet;

    fn watchdog(policy: DegradationPolicy, k: Option<f64>) -> Watchdog {
        Watchdog::new(
            policy,
            1.0,
            4.0,
            WatchdogConfig {
                max_retries: 2,
                k_limit: k,
            },
        )
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            DegradationPolicy::Strict,
            DegradationPolicy::Degrade,
            DegradationPolicy::BestEffort,
        ] {
            assert_eq!(DegradationPolicy::parse(p.as_str()), Some(p));
        }
        assert_eq!(DegradationPolicy::parse("yolo"), None);
    }

    #[test]
    fn inspect_flags_inadmissible_and_duplicates() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 4.0, 2.0, 1.0), // clean: window 4 >= 2/1
            (0.0, 1.0, 5.0, 1.0), // inadmissible: 1 < 5
            (0.0, 4.0, 2.0, 1.0), // duplicate of job 0
        ])
        .unwrap();
        let mut w = watchdog(DegradationPolicy::Degrade, None);
        assert!(w
            .inspect_release(jobs.get(cloudsched_core::JobId(0)))
            .is_none());
        let f = w
            .inspect_release(jobs.get(cloudsched_core::JobId(1)))
            .expect("inadmissible");
        assert_eq!(f.kind, FaultKind::Inadmissible);
        let f = w
            .inspect_release(jobs.get(cloudsched_core::JobId(2)))
            .expect("duplicate");
        assert_eq!(f.kind, FaultKind::Duplicate);
        match f.error {
            CoreError::DuplicateRelease { id, of } => {
                assert_eq!((id, of), (2, 0));
            }
            other => panic!("expected DuplicateRelease, got {other}"),
        }
        assert_eq!(w.stats().faults_detected, 2);
    }

    #[test]
    fn inspect_flags_value_spikes_against_k() {
        let jobs = JobSet::from_tuples(&[
            (0.0, 10.0, 1.0, 1.0), // density 1 — sets the floor
            (0.0, 10.0, 1.0, 7.0), // density 7 = k·1: admissible at k = 7
            (0.0, 10.0, 1.0, 7.5), // density 7.5 > 7: spike
        ])
        .unwrap();
        let mut w = watchdog(DegradationPolicy::Strict, Some(7.0));
        assert!(w
            .inspect_release(jobs.get(cloudsched_core::JobId(0)))
            .is_none());
        assert!(w
            .inspect_release(jobs.get(cloudsched_core::JobId(1)))
            .is_none());
        let f = w
            .inspect_release(jobs.get(cloudsched_core::JobId(2)))
            .expect("spike");
        assert_eq!(f.kind, FaultKind::ValueSpike);
    }

    #[test]
    fn faulty_jobs_do_not_update_the_books() {
        // An inadmissible job must not change the density floor.
        let jobs = JobSet::from_tuples(&[
            (0.0, 0.5, 5.0, 500.0), // inadmissible AND density 100
            (0.0, 10.0, 1.0, 1.0),  // clean, density 1
            (0.0, 10.0, 1.0, 6.0),  // density 6 < 7·1: clean
        ])
        .unwrap();
        let mut w = watchdog(DegradationPolicy::Degrade, Some(7.0));
        assert!(w
            .inspect_release(jobs.get(cloudsched_core::JobId(0)))
            .is_some());
        assert!(w
            .inspect_release(jobs.get(cloudsched_core::JobId(1)))
            .is_none());
        assert!(w
            .inspect_release(jobs.get(cloudsched_core::JobId(2)))
            .is_none());
    }

    #[test]
    fn oracle_death_respects_retry_budget() {
        let mut w = watchdog(DegradationPolicy::Degrade, None);
        let t = Time::new(1.0);
        assert!(w
            .observe_rate(t, OracleReading::Down)
            .declared_dead
            .is_none());
        assert!(w
            .observe_rate(Time::new(2.0), OracleReading::Down)
            .declared_dead
            .is_none());
        let a = w.observe_rate(Time::new(3.0), OracleReading::Down);
        assert_eq!(a.declared_dead, Some(3));
        // Recovery reports the outage length since the first dark probe.
        let a = w.observe_rate(Time::new(5.0), OracleReading::Rate(2.0));
        let down_for = a.recovered_after.expect("recovered");
        assert!(cloudsched_core::approx_eq(down_for, 4.0));
        assert_eq!(w.stats().oracle_dropouts, 1);
        assert_eq!(w.stats().oracle_recoveries, 1);
    }

    #[test]
    fn sla_dip_reestimates_only_under_degrade() {
        let t = Time::new(1.0);
        let mut strict = watchdog(DegradationPolicy::Strict, None);
        let a = strict.observe_rate(t, OracleReading::Rate(0.5));
        assert_eq!(a.sla_violation, Some(0.5));
        assert!(a.reestimate.is_none());
        assert!(cloudsched_core::approx_eq(strict.effective_c_lo(), 1.0));

        let mut degrade = watchdog(DegradationPolicy::Degrade, None);
        let a = degrade.observe_rate(t, OracleReading::Rate(0.5));
        assert_eq!(a.reestimate, Some((1.0, 0.5)));
        assert!(cloudsched_core::approx_eq(degrade.effective_c_lo(), 0.5));
        // A second, shallower dip violates the SLA but does not raise the
        // estimate back up.
        let a = degrade.observe_rate(Time::new(2.0), OracleReading::Rate(0.8));
        assert_eq!(a.sla_violation, Some(0.8));
        assert!(a.reestimate.is_none());
        assert!(cloudsched_core::approx_eq(degrade.effective_c_lo(), 0.5));
        // Recovery to the declared bound flips capacity_ok.
        let a = degrade.observe_rate(Time::new(3.0), OracleReading::Rate(1.5));
        assert!(a.capacity_ok);
        assert_eq!(degrade.stats().sla_violations, 2);
        assert_eq!(degrade.stats().clo_reestimates, 1);
    }

    #[test]
    fn quarantine_bookkeeping() {
        let mut w = watchdog(DegradationPolicy::Degrade, None);
        w.note_quarantine();
        w.note_quarantine();
        assert_eq!(w.quarantine_pending(), 2);
        w.note_readmit();
        assert_eq!(w.quarantine_pending(), 1);
        let s = w.stats();
        assert_eq!((s.quarantined, s.readmitted), (2, 1));
    }

    #[test]
    fn true_oracle_is_transparent() {
        let mut o = TrueOracle;
        assert_eq!(o.read(Time::new(1.0), 2.5), OracleReading::Rate(2.5));
    }
}
