//! The typed trace-event taxonomy.
//!
//! Every event is stamped with the *simulation* time at which it occurred —
//! never wall-clock time — so traces are fully deterministic: the same seed
//! and instance produce the identical event sequence, byte for byte, in the
//! JSONL encoding ([`TraceEvent::to_jsonl`] / [`TraceEvent::parse_jsonl`]).
//!
//! Kernel-emitted events (arrival, admit, resume, preempt, complete, expire,
//! capacity) describe what the processor did; scheduler-emitted events
//! (abandon, supplement enqueue/rescue, conservative-laxity zero crossings,
//! queue depths) describe *why* — the paper's procedures B–D made visible.

use crate::jsonl::{split_flat_object, unquote, JsonlWriter};
use cloudsched_core::{JobId, Time};

/// Every key [`TraceEvent::parse_jsonl`] reads, the most frequent first.
#[rustfmt::skip]
const JSONL_KEYS: [&str; 20] = [
    "t", "ev", "job", "value", "remaining", "laxity", "depth", "queue", "act", "density", "rank",
    "flip", "rate", "segment", "fault", "c_lo", "from", "to", "misses", "down_for",
];

/// Which scheduler queue a [`TraceEvent::QueueDepth`] sample refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueKind {
    /// A generic ready queue (EDF, FIFO, greedy).
    Ready,
    /// The Dover family's `Qedf` (recently EDF-preempted regular jobs).
    Edf,
    /// The Dover family's `Qother` (other regular jobs).
    Other,
    /// The V-Dover supplement queue `Qsupp`.
    Supplement,
}

impl QueueKind {
    /// Stable wire name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            QueueKind::Ready => "ready",
            QueueKind::Edf => "edf",
            QueueKind::Other => "other",
            QueueKind::Supplement => "supp",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "ready" => QueueKind::Ready,
            "edf" => QueueKind::Edf,
            "other" => QueueKind::Other,
            "supp" => QueueKind::Supplement,
            _ => return None,
        })
    }
}

/// Which model assumption a detected fault violates. Stamped on the fault
/// and degradation events so a trace names the broken assumption, not just
/// "something went wrong".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The realised capacity dipped below the declared `c_lo` (the SLA
    /// behind Definition 5 / Theorem 3).
    SlaDip,
    /// The capacity oracle exhausted its retry budget and was declared dead.
    OracleDown,
    /// A released job violates individual admissibility (Definition 4).
    Inadmissible,
    /// A released job duplicates the exact parameters of an earlier one.
    Duplicate,
    /// A released job's value density exceeds the assumed importance ratio.
    ValueSpike,
}

impl FaultKind {
    /// Stable wire name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::SlaDip => "sla_dip",
            FaultKind::OracleDown => "oracle_down",
            FaultKind::Inadmissible => "inadmissible",
            FaultKind::Duplicate => "duplicate",
            FaultKind::ValueSpike => "value_spike",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "sla_dip" => FaultKind::SlaDip,
            "oracle_down" => FaultKind::OracleDown,
            "inadmissible" => FaultKind::Inadmissible,
            "duplicate" => FaultKind::Duplicate,
            "value_spike" => FaultKind::ValueSpike,
            _ => return None,
        })
    }
}

/// Which scheduling choice a [`TraceEvent::Decision`] provenance stamp
/// explains. The wire names are the stable JSONL `act` values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionAction {
    /// The job was dispatched onto the processor (first admit or resume).
    Admit,
    /// The job lost an arbitration and was filed in a regular queue
    /// (Dover's `Qother`) instead of running now.
    Reject,
    /// The running job was displaced by a more urgent or more valuable one.
    Preempt,
    /// V-Dover parked a zero-laxity loser in the supplement queue.
    Park,
    /// V-Dover revived a supplement job onto the drained processor.
    Rescue,
    /// The job's firm deadline passed with workload left.
    Expire,
    /// The scheduler explicitly dropped the job (Dover's procedure D with
    /// no supplement queue to park in).
    Abandon,
}

impl DecisionAction {
    /// Stable wire name used in the JSONL encoding.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionAction::Admit => "admit",
            DecisionAction::Reject => "reject",
            DecisionAction::Preempt => "preempt",
            DecisionAction::Park => "park",
            DecisionAction::Rescue => "rescue",
            DecisionAction::Expire => "expire",
            DecisionAction::Abandon => "abandon",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "admit" => DecisionAction::Admit,
            "reject" => DecisionAction::Reject,
            "preempt" => DecisionAction::Preempt,
            "park" => DecisionAction::Park,
            "rescue" => DecisionAction::Rescue,
            "expire" => DecisionAction::Expire,
            "abandon" => DecisionAction::Abandon,
            _ => return None,
        })
    }
}

/// One sim-time-stamped observation of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A job was released and became known to the scheduler. `laxity` is the
    /// conservative laxity (Definition 5) at the release instant.
    Arrival {
        /// Simulation time.
        t: Time,
        /// The released job.
        job: JobId,
        /// Conservative laxity `d − r − p/c_lo` at release.
        laxity: f64,
    },
    /// A job was dispatched onto the processor for the first time.
    Admit {
        /// Simulation time.
        t: Time,
        /// The dispatched job.
        job: JobId,
    },
    /// A previously-preempted job was dispatched again.
    Resume {
        /// Simulation time.
        t: Time,
        /// The resumed job.
        job: JobId,
    },
    /// The running job was displaced before finishing.
    Preempt {
        /// Simulation time.
        t: Time,
        /// The displaced job.
        job: JobId,
        /// Remaining workload at displacement.
        remaining: f64,
    },
    /// A job finished its workload by its deadline and accrued its value.
    Complete {
        /// Simulation time.
        t: Time,
        /// The completed job.
        job: JobId,
        /// Value accrued.
        value: f64,
    },
    /// A job's firm deadline passed with workload left (and the scheduler
    /// had *not* explicitly abandoned it — contrast [`TraceEvent::Abandon`]).
    Expire {
        /// Simulation time.
        t: Time,
        /// The expired job.
        job: JobId,
        /// Workload left at the deadline.
        remaining: f64,
        /// Value lost.
        value: f64,
    },
    /// The scheduler explicitly dropped a job before its deadline (Dover's
    /// procedure D losing a zero-laxity arbitration with no supplement
    /// queue to park in).
    Abandon {
        /// Simulation time.
        t: Time,
        /// The abandoned job.
        job: JobId,
        /// Remaining workload at the abandonment decision.
        remaining: f64,
        /// Value forfeited.
        value: f64,
    },
    /// V-Dover parked a zero-conservative-laxity loser in `Qsupp`.
    SupplementEnqueue {
        /// Simulation time.
        t: Time,
        /// The parked job.
        job: JobId,
        /// Queue depth after the enqueue.
        depth: usize,
    },
    /// V-Dover revived a supplement job onto the drained processor.
    SupplementRescue {
        /// Simulation time.
        t: Time,
        /// The revived job.
        job: JobId,
        /// Queue depth after the removal.
        depth: usize,
    },
    /// A job's conservative laxity reached zero (the procedure-D interrupt
    /// fired): the sign flip from non-negative to negative is imminent.
    ClaxityZero {
        /// Simulation time.
        t: Time,
        /// The job whose laxity crossed zero.
        job: JobId,
    },
    /// A scheduler queue changed size.
    QueueDepth {
        /// Simulation time.
        t: Time,
        /// Which queue.
        queue: QueueKind,
        /// Depth after the change.
        depth: usize,
    },
    /// The capacity profile entered a new constant-rate segment.
    CapacityChange {
        /// Simulation time.
        t: Time,
        /// The new rate `c(t)`.
        rate: f64,
        /// 0-based segment index.
        segment: usize,
    },
    /// The watchdog detected a job-stream fault at release time. What
    /// happens next depends on the degradation policy (quarantine, abort,
    /// or log-and-continue).
    FaultDetected {
        /// Simulation time.
        t: Time,
        /// The offending job.
        job: JobId,
        /// Which assumption it violates.
        fault: FaultKind,
    },
    /// The degradation layer quarantined a faulty job: the scheduler never
    /// sees it unless it is later re-admitted.
    Quarantine {
        /// Simulation time.
        t: Time,
        /// The quarantined job.
        job: JobId,
        /// Why it was quarantined.
        fault: FaultKind,
    },
    /// A quarantined job was re-admitted to the scheduler after capacity
    /// recovered (V-Dover parks late re-admissions in its supplement queue).
    Readmit {
        /// Simulation time.
        t: Time,
        /// The re-admitted job.
        job: JobId,
    },
    /// The observed rate dropped below the declared class bound `c_lo`.
    SlaViolation {
        /// Simulation time.
        t: Time,
        /// The observed (violating) rate.
        rate: f64,
        /// The declared lower class bound it undercuts.
        c_lo: f64,
    },
    /// The degradation layer lowered its running `c_lo` estimate, so
    /// conservative laxities recompute against the new bound.
    CloReestimate {
        /// Simulation time.
        t: Time,
        /// Previous effective `c_lo`.
        from: f64,
        /// New effective `c_lo`.
        to: f64,
    },
    /// The capacity oracle exhausted its retry budget and was declared dead.
    OracleDropout {
        /// Simulation time.
        t: Time,
        /// Consecutive failed readings before declaring death.
        misses: usize,
    },
    /// The capacity oracle produced a reading again after an outage.
    OracleRecover {
        /// Simulation time.
        t: Time,
        /// How long the oracle was dark (simulation seconds).
        down_for: f64,
    },
    /// The `Strict` degradation policy aborted the run on a fault.
    PolicyAbort {
        /// Simulation time.
        t: Time,
        /// The fault that triggered the abort.
        fault: FaultKind,
    },
    /// Decision provenance: the inputs that drove an admit / reject /
    /// preempt / park / rescue / expire / abandon choice. Only emitted when
    /// the active sink opts in (`Tracer::wants_provenance`), so default
    /// traces stay byte-identical.
    Decision {
        /// Simulation time.
        t: Time,
        /// The job the decision concerns.
        job: JobId,
        /// Which choice was made.
        action: DecisionAction,
        /// Conservative laxity (Definition 5) at the decision instant, per
        /// the rate estimate the decision-maker actually used.
        laxity: f64,
        /// Value density `v / p` of the job.
        density: f64,
        /// 0-based rank / depth in the queue relevant to the decision
        /// (0 when no queue is involved).
        rank: usize,
        /// Whether the conservative-laxity sign flip (the procedure-D
        /// interrupt condition) had occurred at the decision instant.
        flip: bool,
    },
}

impl TraceEvent {
    /// The simulation instant the event is stamped with.
    pub fn time(&self) -> Time {
        match *self {
            TraceEvent::Arrival { t, .. }
            | TraceEvent::Admit { t, .. }
            | TraceEvent::Resume { t, .. }
            | TraceEvent::Preempt { t, .. }
            | TraceEvent::Complete { t, .. }
            | TraceEvent::Expire { t, .. }
            | TraceEvent::Abandon { t, .. }
            | TraceEvent::SupplementEnqueue { t, .. }
            | TraceEvent::SupplementRescue { t, .. }
            | TraceEvent::ClaxityZero { t, .. }
            | TraceEvent::QueueDepth { t, .. }
            | TraceEvent::CapacityChange { t, .. }
            | TraceEvent::FaultDetected { t, .. }
            | TraceEvent::Quarantine { t, .. }
            | TraceEvent::Readmit { t, .. }
            | TraceEvent::SlaViolation { t, .. }
            | TraceEvent::CloReestimate { t, .. }
            | TraceEvent::OracleDropout { t, .. }
            | TraceEvent::OracleRecover { t, .. }
            | TraceEvent::PolicyAbort { t, .. }
            | TraceEvent::Decision { t, .. } => t,
        }
    }

    /// The job the event concerns, if any.
    pub fn job(&self) -> Option<JobId> {
        match *self {
            TraceEvent::Arrival { job, .. }
            | TraceEvent::Admit { job, .. }
            | TraceEvent::Resume { job, .. }
            | TraceEvent::Preempt { job, .. }
            | TraceEvent::Complete { job, .. }
            | TraceEvent::Expire { job, .. }
            | TraceEvent::Abandon { job, .. }
            | TraceEvent::SupplementEnqueue { job, .. }
            | TraceEvent::SupplementRescue { job, .. }
            | TraceEvent::ClaxityZero { job, .. }
            | TraceEvent::FaultDetected { job, .. }
            | TraceEvent::Quarantine { job, .. }
            | TraceEvent::Readmit { job, .. }
            | TraceEvent::Decision { job, .. } => Some(job),
            TraceEvent::QueueDepth { .. }
            | TraceEvent::CapacityChange { .. }
            | TraceEvent::SlaViolation { .. }
            | TraceEvent::CloReestimate { .. }
            | TraceEvent::OracleDropout { .. }
            | TraceEvent::OracleRecover { .. }
            | TraceEvent::PolicyAbort { .. } => None,
        }
    }

    /// Stable wire name of the event kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Arrival { .. } => "arrival",
            TraceEvent::Admit { .. } => "admit",
            TraceEvent::Resume { .. } => "resume",
            TraceEvent::Preempt { .. } => "preempt",
            TraceEvent::Complete { .. } => "complete",
            TraceEvent::Expire { .. } => "expire",
            TraceEvent::Abandon { .. } => "abandon",
            TraceEvent::SupplementEnqueue { .. } => "supp_enqueue",
            TraceEvent::SupplementRescue { .. } => "supp_rescue",
            TraceEvent::ClaxityZero { .. } => "claxity_zero",
            TraceEvent::QueueDepth { .. } => "queue_depth",
            TraceEvent::CapacityChange { .. } => "capacity",
            TraceEvent::FaultDetected { .. } => "fault",
            TraceEvent::Quarantine { .. } => "quarantine",
            TraceEvent::Readmit { .. } => "readmit",
            TraceEvent::SlaViolation { .. } => "sla_violation",
            TraceEvent::CloReestimate { .. } => "clo_reestimate",
            TraceEvent::OracleDropout { .. } => "oracle_down",
            TraceEvent::OracleRecover { .. } => "oracle_up",
            TraceEvent::PolicyAbort { .. } => "policy_abort",
            TraceEvent::Decision { .. } => "decision",
        }
    }

    /// Serialises the event as one JSONL line (no trailing newline).
    ///
    /// Key order is fixed per kind and `f64` values use Rust's shortest
    /// round-trip formatting, so the encoding is byte-deterministic. Hot
    /// paths render through a reused [`JsonlWriter`] instead; this is the
    /// same code path with a fresh buffer.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonlWriter::new();
        w.event(self);
        w.into_line()
    }

    /// Parses one JSONL line produced by [`TraceEvent::to_jsonl`].
    ///
    /// This is a parser for the crate's own flat encoding (string values
    /// without escapes, numbers, fixed keys) — not a general JSON parser.
    pub fn parse_jsonl(line: &str) -> Result<TraceEvent, String> {
        let slots = split_flat_object(line)?.slots(JSONL_KEYS)?;
        let get = |key: &str| -> Result<&str, String> {
            JSONL_KEYS
                .iter()
                .position(|&k| k == key)
                .and_then(|i| slots[i])
                .ok_or_else(|| format!("missing key `{key}` in `{line}`"))
        };
        let str_of = |key: &str| -> Result<&str, String> {
            let raw = get(key)?;
            unquote(raw).ok_or_else(|| format!("`{key}` is not a string: `{raw}`"))
        };
        let f64_of = |key: &str| -> Result<f64, String> {
            get(key)?
                .parse::<f64>()
                .map_err(|e| format!("bad number for `{key}`: {e}"))
        };
        let usize_of = |key: &str| -> Result<usize, String> {
            get(key)?
                .parse::<usize>()
                .map_err(|e| format!("bad integer for `{key}`: {e}"))
        };
        let job_of = |key: &str| -> Result<JobId, String> {
            get(key)?
                .parse::<u64>()
                .map(JobId)
                .map_err(|e| format!("bad job id: {e}"))
        };
        let t = Time::new(f64_of("t")?);
        let ev = str_of("ev")?;
        Ok(match ev {
            "arrival" => TraceEvent::Arrival {
                t,
                job: job_of("job")?,
                laxity: f64_of("laxity")?,
            },
            "admit" => TraceEvent::Admit {
                t,
                job: job_of("job")?,
            },
            "resume" => TraceEvent::Resume {
                t,
                job: job_of("job")?,
            },
            "preempt" => TraceEvent::Preempt {
                t,
                job: job_of("job")?,
                remaining: f64_of("remaining")?,
            },
            "complete" => TraceEvent::Complete {
                t,
                job: job_of("job")?,
                value: f64_of("value")?,
            },
            "expire" => TraceEvent::Expire {
                t,
                job: job_of("job")?,
                remaining: f64_of("remaining")?,
                value: f64_of("value")?,
            },
            "abandon" => TraceEvent::Abandon {
                t,
                job: job_of("job")?,
                remaining: f64_of("remaining")?,
                value: f64_of("value")?,
            },
            "supp_enqueue" => TraceEvent::SupplementEnqueue {
                t,
                job: job_of("job")?,
                depth: usize_of("depth")?,
            },
            "supp_rescue" => TraceEvent::SupplementRescue {
                t,
                job: job_of("job")?,
                depth: usize_of("depth")?,
            },
            "claxity_zero" => TraceEvent::ClaxityZero {
                t,
                job: job_of("job")?,
            },
            "queue_depth" => {
                let queue_name = str_of("queue")?;
                TraceEvent::QueueDepth {
                    t,
                    queue: QueueKind::parse(queue_name)
                        .ok_or_else(|| format!("unknown queue `{queue_name}`"))?,
                    depth: usize_of("depth")?,
                }
            }
            "capacity" => TraceEvent::CapacityChange {
                t,
                rate: f64_of("rate")?,
                segment: usize_of("segment")?,
            },
            "fault" | "quarantine" => {
                let fault_name = str_of("fault")?;
                let fault = FaultKind::parse(fault_name)
                    .ok_or_else(|| format!("unknown fault kind `{fault_name}`"))?;
                let job = job_of("job")?;
                if ev == "fault" {
                    TraceEvent::FaultDetected { t, job, fault }
                } else {
                    TraceEvent::Quarantine { t, job, fault }
                }
            }
            "readmit" => TraceEvent::Readmit {
                t,
                job: job_of("job")?,
            },
            "sla_violation" => TraceEvent::SlaViolation {
                t,
                rate: f64_of("rate")?,
                c_lo: f64_of("c_lo")?,
            },
            "clo_reestimate" => TraceEvent::CloReestimate {
                t,
                from: f64_of("from")?,
                to: f64_of("to")?,
            },
            "oracle_down" => TraceEvent::OracleDropout {
                t,
                misses: usize_of("misses")?,
            },
            "oracle_up" => TraceEvent::OracleRecover {
                t,
                down_for: f64_of("down_for")?,
            },
            "policy_abort" => {
                let fault_name = str_of("fault")?;
                TraceEvent::PolicyAbort {
                    t,
                    fault: FaultKind::parse(fault_name)
                        .ok_or_else(|| format!("unknown fault kind `{fault_name}`"))?,
                }
            }
            "decision" => {
                let act_name = str_of("act")?;
                let flip_raw = get("flip")?;
                TraceEvent::Decision {
                    t,
                    job: job_of("job")?,
                    action: DecisionAction::parse(act_name)
                        .ok_or_else(|| format!("unknown decision action `{act_name}`"))?,
                    laxity: f64_of("laxity")?,
                    density: f64_of("density")?,
                    rank: usize_of("rank")?,
                    flip: match flip_raw {
                        "true" => true,
                        "false" => false,
                        other => return Err(format!("bad bool for `flip`: `{other}`")),
                    },
                }
            }
            other => return Err(format!("unknown event kind `{other}`")),
        })
    }

    /// One human-readable line for the trace-replay pretty-printer.
    pub fn pretty(&self) -> String {
        let t = self.time().as_f64();
        let body = match *self {
            TraceEvent::Arrival { job, laxity, .. } => {
                format!("arrival       {job}  claxity={laxity:.3}")
            }
            TraceEvent::Admit { job, .. } => format!("admit         {job}"),
            TraceEvent::Resume { job, .. } => format!("resume        {job}"),
            TraceEvent::Preempt { job, remaining, .. } => {
                format!("preempt       {job}  remaining={remaining:.3}")
            }
            TraceEvent::Complete { job, value, .. } => {
                format!("complete      {job}  value={value:.3}")
            }
            TraceEvent::Expire {
                job,
                remaining,
                value,
                ..
            } => format!("expire        {job}  remaining={remaining:.3} lost={value:.3}"),
            TraceEvent::Abandon {
                job,
                remaining,
                value,
                ..
            } => format!("abandon       {job}  remaining={remaining:.3} lost={value:.3}"),
            TraceEvent::SupplementEnqueue { job, depth, .. } => {
                format!("supp-enqueue  {job}  depth={depth}")
            }
            TraceEvent::SupplementRescue { job, depth, .. } => {
                format!("supp-rescue   {job}  depth={depth}")
            }
            TraceEvent::ClaxityZero { job, .. } => format!("claxity-zero  {job}"),
            TraceEvent::QueueDepth { queue, depth, .. } => {
                format!("queue-depth   {}={depth}", queue.as_str())
            }
            TraceEvent::CapacityChange { rate, segment, .. } => {
                format!("capacity      rate={rate}  segment={segment}")
            }
            TraceEvent::FaultDetected { job, fault, .. } => {
                format!("FAULT         {job}  kind={}", fault.as_str())
            }
            TraceEvent::Quarantine { job, fault, .. } => {
                format!("quarantine    {job}  kind={}", fault.as_str())
            }
            TraceEvent::Readmit { job, .. } => format!("readmit       {job}"),
            TraceEvent::SlaViolation { rate, c_lo, .. } => {
                format!("SLA-VIOLATION rate={rate} < c_lo={c_lo}")
            }
            TraceEvent::CloReestimate { from, to, .. } => {
                format!("clo-reest     {from} -> {to}")
            }
            TraceEvent::OracleDropout { misses, .. } => {
                format!("oracle-down   after {misses} misses")
            }
            TraceEvent::OracleRecover { down_for, .. } => {
                format!("oracle-up     down_for={down_for:.3}")
            }
            TraceEvent::PolicyAbort { fault, .. } => {
                format!("POLICY-ABORT  fault={}", fault.as_str())
            }
            TraceEvent::Decision {
                job,
                action,
                laxity,
                density,
                rank,
                flip,
                ..
            } => format!(
                "decision      {job}  act={} claxity={laxity:.3} density={density:.3} rank={rank} flip={flip}",
                action.as_str()
            ),
        };
        format!("{t:>12.4}  {body}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<TraceEvent> {
        let t = Time::new(1.5);
        let j = JobId(3);
        vec![
            TraceEvent::Arrival {
                t,
                job: j,
                laxity: 2.25,
            },
            TraceEvent::Admit { t, job: j },
            TraceEvent::Resume { t, job: j },
            TraceEvent::Preempt {
                t,
                job: j,
                remaining: 0.5,
            },
            TraceEvent::Complete {
                t,
                job: j,
                value: 7.0,
            },
            TraceEvent::Expire {
                t,
                job: j,
                remaining: 1.0,
                value: 2.0,
            },
            TraceEvent::Abandon {
                t,
                job: j,
                remaining: 4.0,
                value: 1.0,
            },
            TraceEvent::SupplementEnqueue {
                t,
                job: j,
                depth: 2,
            },
            TraceEvent::SupplementRescue {
                t,
                job: j,
                depth: 1,
            },
            TraceEvent::ClaxityZero { t, job: j },
            TraceEvent::QueueDepth {
                t,
                queue: QueueKind::Other,
                depth: 4,
            },
            TraceEvent::CapacityChange {
                t,
                rate: 35.0,
                segment: 2,
            },
            TraceEvent::FaultDetected {
                t,
                job: j,
                fault: FaultKind::Inadmissible,
            },
            TraceEvent::Quarantine {
                t,
                job: j,
                fault: FaultKind::ValueSpike,
            },
            TraceEvent::Readmit { t, job: j },
            TraceEvent::SlaViolation {
                t,
                rate: 0.25,
                c_lo: 1.0,
            },
            TraceEvent::CloReestimate {
                t,
                from: 1.0,
                to: 0.25,
            },
            TraceEvent::OracleDropout { t, misses: 3 },
            TraceEvent::OracleRecover { t, down_for: 2.5 },
            TraceEvent::PolicyAbort {
                t,
                fault: FaultKind::SlaDip,
            },
            TraceEvent::Decision {
                t,
                job: j,
                action: DecisionAction::Reject,
                laxity: -0.5,
                density: 3.0,
                rank: 2,
                flip: true,
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        for ev in all_kinds() {
            let line = ev.to_jsonl();
            let back = TraceEvent::parse_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn jsonl_is_deterministic_text() {
        let ev = TraceEvent::Arrival {
            t: Time::new(0.1),
            job: JobId(0),
            laxity: 0.30000000000000004,
        };
        // Shortest round-trip float formatting: stable across runs.
        assert_eq!(
            ev.to_jsonl(),
            "{\"t\":0.1,\"ev\":\"arrival\",\"job\":0,\"laxity\":0.30000000000000004}"
        );
    }

    #[test]
    fn accessors_cover_every_kind() {
        for ev in all_kinds() {
            assert_eq!(ev.time(), Time::new(1.5));
            assert!(!ev.kind().is_empty());
            match ev {
                TraceEvent::QueueDepth { .. }
                | TraceEvent::CapacityChange { .. }
                | TraceEvent::SlaViolation { .. }
                | TraceEvent::CloReestimate { .. }
                | TraceEvent::OracleDropout { .. }
                | TraceEvent::OracleRecover { .. }
                | TraceEvent::PolicyAbort { .. } => {
                    assert_eq!(ev.job(), None)
                }
                _ => assert_eq!(ev.job(), Some(JobId(3))),
            }
            assert!(ev.pretty().contains(ev.time().as_f64().to_string().trim()));
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceEvent::parse_jsonl("not json").is_err());
        assert!(TraceEvent::parse_jsonl("{\"t\":1}").is_err());
        assert!(TraceEvent::parse_jsonl("{\"t\":1,\"ev\":\"martian\"}").is_err());
        assert!(TraceEvent::parse_jsonl("{\"t\":1,\"ev\":\"admit\",\"job\":\"x\"}").is_err());
        assert!(TraceEvent::parse_jsonl(
            "{\"t\":1,\"ev\":\"queue_depth\",\"queue\":\"q9\",\"depth\":1}"
        )
        .is_err());
    }

    #[test]
    fn queue_kind_wire_names_round_trip() {
        for q in [
            QueueKind::Ready,
            QueueKind::Edf,
            QueueKind::Other,
            QueueKind::Supplement,
        ] {
            assert_eq!(QueueKind::parse(q.as_str()), Some(q));
        }
        assert_eq!(QueueKind::parse("nope"), None);
    }

    #[test]
    fn decision_action_wire_names_round_trip() {
        for a in [
            DecisionAction::Admit,
            DecisionAction::Reject,
            DecisionAction::Preempt,
            DecisionAction::Park,
            DecisionAction::Rescue,
            DecisionAction::Expire,
            DecisionAction::Abandon,
        ] {
            assert_eq!(DecisionAction::parse(a.as_str()), Some(a));
        }
        assert_eq!(DecisionAction::parse("shrug"), None);
        assert!(TraceEvent::parse_jsonl(
            "{\"t\":1,\"ev\":\"decision\",\"job\":0,\"act\":\"x\",\"laxity\":0,\"density\":1,\"rank\":0,\"flip\":false}"
        )
        .is_err());
        assert!(TraceEvent::parse_jsonl(
            "{\"t\":1,\"ev\":\"decision\",\"job\":0,\"act\":\"admit\",\"laxity\":0,\"density\":1,\"rank\":0,\"flip\":2}"
        )
        .is_err());
    }

    #[test]
    fn decision_jsonl_is_deterministic_text() {
        let ev = TraceEvent::Decision {
            t: Time::new(2.5),
            job: JobId(9),
            action: DecisionAction::Park,
            laxity: -0.125,
            density: 3.5,
            rank: 4,
            flip: true,
        };
        assert_eq!(
            ev.to_jsonl(),
            "{\"t\":2.5,\"ev\":\"decision\",\"job\":9,\"act\":\"park\",\"laxity\":-0.125,\"density\":3.5,\"rank\":4,\"flip\":true}"
        );
    }

    #[test]
    fn fault_kind_wire_names_round_trip() {
        for k in [
            FaultKind::SlaDip,
            FaultKind::OracleDown,
            FaultKind::Inadmissible,
            FaultKind::Duplicate,
            FaultKind::ValueSpike,
        ] {
            assert_eq!(FaultKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(FaultKind::parse("gremlin"), None);
        assert!(TraceEvent::parse_jsonl(
            "{\"t\":1,\"ev\":\"quarantine\",\"job\":0,\"fault\":\"x\"}"
        )
        .is_err());
    }
}
