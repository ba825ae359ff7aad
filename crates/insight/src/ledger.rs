//! The value-loss ledger (`DESIGN.md` §13).
//!
//! Folds one trace into a per-job lifecycle, classifies every traced job
//! into exactly one loss bucket, and cross-checks *conservation*: the sum
//! of attributed values, taken in job-id order, must equal the sum of the
//! instance values of the same jobs in the same order — bit for bit. The
//! invariant is a per-job partition (each job's full value lands in exactly
//! one bucket and must match the terminal event's stamped value exactly),
//! so it holds independently of thread count: the fold is serial and the
//! two sums perform the identical float-addition sequence.

use std::collections::BTreeMap;

use cloudsched_core::{JobId, JobSet};
use cloudsched_obs::TraceEvent;

/// Where one traced job's value ended up. Exactly one bucket per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Bucket {
    /// Completed by its deadline: value earned.
    Realized,
    /// Expired without ever being dispatched: lost waiting in a queue.
    ExpiredInQueue,
    /// Dispatched at least once but preempted or abandoned and never
    /// brought back to completion.
    PreemptedNeverRescued,
    /// Quarantined by the degradation layer and never re-admitted.
    Quarantined,
    /// Rejected at release as faulty with no quarantine (the `Strict`
    /// abort path): the scheduler never saw it.
    CorruptRejected,
    /// The trace ended before the job resolved (e.g. a policy abort cut
    /// the run short, or the trace was truncated).
    Unresolved,
}

impl Bucket {
    /// Every bucket, in ledger display order.
    pub const ALL: [Bucket; 6] = [
        Bucket::Realized,
        Bucket::ExpiredInQueue,
        Bucket::PreemptedNeverRescued,
        Bucket::Quarantined,
        Bucket::CorruptRejected,
        Bucket::Unresolved,
    ];

    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            Bucket::Realized => "realized",
            Bucket::ExpiredInQueue => "expired-in-queue",
            Bucket::PreemptedNeverRescued => "preempted-never-rescued",
            Bucket::Quarantined => "quarantined",
            Bucket::CorruptRejected => "corrupt-rejected",
            Bucket::Unresolved => "unresolved",
        }
    }
}

/// What the trace recorded about one job, folded event by event.
#[derive(Debug, Clone, Copy, Default)]
struct Lifecycle {
    admitted: bool,
    quarantined: bool,
    readmitted: bool,
    fault: bool,
    terminal: Option<Terminal>,
}

/// The event that resolved a job, with the value it stamped.
#[derive(Debug, Clone, Copy)]
enum Terminal {
    Completed(f64),
    Expired(f64),
    Abandoned(f64),
}

/// One trace folded into per-job lifecycles, ready for attribution.
#[derive(Debug, Clone, Default)]
pub struct ValueLedger {
    lifecycles: BTreeMap<JobId, Lifecycle>,
    decisions: BTreeMap<&'static str, u64>,
    aborted: bool,
}

impl ValueLedger {
    /// Folds an event stream (in trace order) into a ledger.
    pub fn from_events(events: &[TraceEvent]) -> ValueLedger {
        let mut ledger = ValueLedger::default();
        for ev in events {
            match *ev {
                TraceEvent::Arrival { job, .. } => {
                    ledger.lifecycles.entry(job).or_default();
                }
                TraceEvent::Admit { job, .. } | TraceEvent::Resume { job, .. } => {
                    ledger.lifecycles.entry(job).or_default().admitted = true;
                }
                TraceEvent::Complete { job, value, .. } => {
                    ledger.lifecycles.entry(job).or_default().terminal =
                        Some(Terminal::Completed(value));
                }
                TraceEvent::Expire { job, value, .. } => {
                    let l = ledger.lifecycles.entry(job).or_default();
                    if l.terminal.is_none() {
                        l.terminal = Some(Terminal::Expired(value));
                    }
                }
                TraceEvent::Abandon { job, value, .. } => {
                    let l = ledger.lifecycles.entry(job).or_default();
                    if l.terminal.is_none() {
                        l.terminal = Some(Terminal::Abandoned(value));
                    }
                }
                TraceEvent::FaultDetected { job, .. } => {
                    ledger.lifecycles.entry(job).or_default().fault = true;
                }
                TraceEvent::Quarantine { job, .. } => {
                    ledger.lifecycles.entry(job).or_default().quarantined = true;
                }
                TraceEvent::Readmit { job, .. } => {
                    ledger.lifecycles.entry(job).or_default().readmitted = true;
                }
                TraceEvent::PolicyAbort { .. } => {
                    ledger.aborted = true;
                }
                TraceEvent::Decision { action, .. } => {
                    *ledger.decisions.entry(action.as_str()).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        ledger
    }

    /// Attributes every traced job's instance value to its bucket and
    /// verifies conservation.
    ///
    /// # Errors
    /// * the trace names a job the instance does not have;
    /// * a terminal event's stamped value differs (bit-wise) from the
    ///   instance value — the trace and the instance disagree;
    /// * the id-ordered sum of attributed values differs (bit-wise) from
    ///   the id-ordered sum of the same jobs' instance values.
    pub fn attribute(&self, jobs: &JobSet) -> Result<LedgerReport, String> {
        let mut entries = Vec::with_capacity(self.lifecycles.len());
        for (&job, life) in &self.lifecycles {
            if job.index() >= jobs.len() {
                return Err(format!(
                    "trace names {job} but the instance has only {} jobs",
                    jobs.len()
                ));
            }
            let value = jobs.get(job).value;
            if let Some(term) = life.terminal {
                let (stamped, kind) = match term {
                    Terminal::Completed(v) => (v, "complete"),
                    Terminal::Expired(v) => (v, "expire"),
                    Terminal::Abandoned(v) => (v, "abandon"),
                };
                if stamped.to_bits() != value.to_bits() {
                    return Err(format!(
                        "conservation broken: {kind} event for {job} stamps value \
                         {stamped} but the instance says {value}"
                    ));
                }
            }
            entries.push(LedgerEntry {
                job,
                bucket: classify(life),
                value,
            });
        }
        // Cross-check: both sums walk the same jobs in the same (id) order,
        // so they perform the identical float-addition sequence and must
        // agree bit for bit.
        let attributed: f64 = entries.iter().map(|e| e.value).sum();
        let arrived: f64 = entries.iter().map(|e| jobs.get(e.job).value).sum();
        if attributed.to_bits() != arrived.to_bits() {
            return Err(format!(
                "conservation broken: attributed value {attributed} != arrived value {arrived}"
            ));
        }
        let mut bucket_value = BTreeMap::new();
        let mut bucket_jobs = BTreeMap::new();
        for b in Bucket::ALL {
            bucket_value.insert(b, 0.0f64);
            bucket_jobs.insert(b, 0usize);
        }
        for e in &entries {
            // Entries are in id order, so per-bucket totals are summed in
            // a deterministic order too.
            *bucket_value
                .get_mut(&e.bucket)
                .expect("invariant: every bucket pre-registered") += e.value;
            *bucket_jobs
                .get_mut(&e.bucket)
                .expect("invariant: every bucket pre-registered") += 1;
        }
        Ok(LedgerReport {
            entries,
            total_value: arrived,
            bucket_value,
            bucket_jobs,
            decisions: self.decisions.clone(),
            aborted: self.aborted,
        })
    }
}

/// The classification rules, in precedence order.
fn classify(life: &Lifecycle) -> Bucket {
    match life.terminal {
        Some(Terminal::Completed(_)) => Bucket::Realized,
        // A quarantined job still gets a kernel Expire at its deadline even
        // though the scheduler never saw it: quarantine wins unless the job
        // was re-admitted back into play.
        _ if life.quarantined && !life.readmitted => Bucket::Quarantined,
        Some(_) if life.admitted => Bucket::PreemptedNeverRescued,
        Some(_) => Bucket::ExpiredInQueue,
        None if life.fault && !life.admitted && !life.quarantined => Bucket::CorruptRejected,
        None => Bucket::Unresolved,
    }
}

/// One job's attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// The job.
    pub job: JobId,
    /// Where its value went.
    pub bucket: Bucket,
    /// The instance value attributed (the full job value).
    pub value: f64,
}

/// The conservation-checked attribution of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerReport {
    /// Per-job attributions, in job-id order.
    pub entries: Vec<LedgerEntry>,
    /// Total value of all traced jobs, summed in id order.
    pub total_value: f64,
    /// Per-bucket value totals (display only; the invariant is per-job).
    pub bucket_value: BTreeMap<Bucket, f64>,
    /// Per-bucket job counts.
    pub bucket_jobs: BTreeMap<Bucket, usize>,
    /// Decision-provenance counts per action, when the trace carries
    /// `Decision` events (empty otherwise).
    pub decisions: BTreeMap<&'static str, u64>,
    /// Whether the run was cut short by a `Strict` policy abort.
    pub aborted: bool,
}

impl LedgerReport {
    /// Value in one bucket.
    pub fn value_in(&self, bucket: Bucket) -> f64 {
        self.bucket_value.get(&bucket).copied().unwrap_or(0.0)
    }

    /// Job count in one bucket.
    pub fn jobs_in(&self, bucket: Bucket) -> usize {
        self.bucket_jobs.get(&bucket).copied().unwrap_or(0)
    }

    /// Deterministic fixed-format text summary (the `inspect --summary`
    /// golden format).
    pub fn render(&self) -> String {
        let mut out = String::from("value-loss ledger\n");
        out.push_str(&format!(
            "  {:<24}: {}\n",
            "jobs traced",
            self.entries.len()
        ));
        out.push_str(&format!(
            "  {:<24}: {:.4}\n",
            "arrived value", self.total_value
        ));
        for b in Bucket::ALL {
            let v = self.value_in(b);
            let share = if self.total_value > 0.0 {
                100.0 * v / self.total_value
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:<24}: {:>12.4}  {:>6.2}%  ({} jobs)\n",
                b.as_str(),
                v,
                share,
                self.jobs_in(b)
            ));
        }
        out.push_str(&format!(
            "  {:<24}: exact (per-job partition, bit-identical)\n",
            "conservation"
        ));
        if !self.decisions.is_empty() {
            let parts: Vec<String> = self
                .decisions
                .iter()
                .map(|(act, n)| format!("{act}={n}"))
                .collect();
            out.push_str(&format!("  {:<24}: {}\n", "decisions", parts.join(" ")));
        }
        if self.aborted {
            out.push_str(&format!("  {:<24}: run ended by policy abort\n", "note"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::Time;
    use cloudsched_obs::{DecisionAction, FaultKind};

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    fn jobs3() -> JobSet {
        // (r, d, p, v)
        JobSet::from_tuples(&[
            (0.0, 10.0, 2.0, 5.0),
            (0.0, 2.0, 2.0, 3.0),
            (0.0, 4.0, 4.0, 7.0),
        ])
        .expect("invariant: valid tuples")
    }

    fn arrival(job: u64) -> TraceEvent {
        TraceEvent::Arrival {
            t: t(0.0),
            job: JobId(job),
            laxity: 1.0,
        }
    }

    #[test]
    fn classifies_realized_expired_and_preempted() {
        let events = vec![
            arrival(0),
            arrival(1),
            arrival(2),
            TraceEvent::Admit {
                t: t(0.0),
                job: JobId(0),
            },
            TraceEvent::Complete {
                t: t(2.0),
                job: JobId(0),
                value: 5.0,
            },
            TraceEvent::Expire {
                t: t(2.0),
                job: JobId(1),
                remaining: 2.0,
                value: 3.0,
            },
            TraceEvent::Admit {
                t: t(2.0),
                job: JobId(2),
            },
            TraceEvent::Preempt {
                t: t(3.0),
                job: JobId(2),
                remaining: 3.0,
            },
            TraceEvent::Expire {
                t: t(4.0),
                job: JobId(2),
                remaining: 3.0,
                value: 7.0,
            },
        ];
        let report = ValueLedger::from_events(&events)
            .attribute(&jobs3())
            .expect("invariant: consistent trace");
        assert_eq!(report.entries.len(), 3);
        assert_eq!(report.entries[0].bucket, Bucket::Realized);
        assert_eq!(report.entries[1].bucket, Bucket::ExpiredInQueue);
        assert_eq!(report.entries[2].bucket, Bucket::PreemptedNeverRescued);
        assert_eq!(report.total_value.to_bits(), 15.0f64.to_bits());
        assert_eq!(
            report.value_in(Bucket::Realized).to_bits(),
            5.0f64.to_bits()
        );
        assert_eq!(report.jobs_in(Bucket::Unresolved), 0);
        assert!(!report.aborted);
    }

    #[test]
    fn value_mismatch_breaks_conservation() {
        let events = vec![
            arrival(0),
            TraceEvent::Complete {
                t: t(2.0),
                job: JobId(0),
                value: 4.9, // instance says 5.0
            },
        ];
        let err = ValueLedger::from_events(&events)
            .attribute(&jobs3())
            .expect_err("mismatched value must be rejected");
        assert!(err.contains("conservation broken"), "{err}");
    }

    #[test]
    fn unknown_job_is_rejected() {
        let events = vec![arrival(9)];
        let err = ValueLedger::from_events(&events)
            .attribute(&jobs3())
            .expect_err("job 9 does not exist");
        assert!(err.contains("T9"), "{err}");
    }

    #[test]
    fn quarantine_corrupt_and_unresolved_buckets() {
        let events = vec![
            arrival(0),
            TraceEvent::FaultDetected {
                t: t(0.0),
                job: JobId(0),
                fault: FaultKind::ValueSpike,
            },
            TraceEvent::Quarantine {
                t: t(0.0),
                job: JobId(0),
                fault: FaultKind::ValueSpike,
            },
            // The kernel still expires hidden jobs at their deadline.
            TraceEvent::Expire {
                t: t(10.0),
                job: JobId(0),
                remaining: 2.0,
                value: 5.0,
            },
            arrival(1),
            TraceEvent::FaultDetected {
                t: t(0.0),
                job: JobId(1),
                fault: FaultKind::Inadmissible,
            },
            TraceEvent::PolicyAbort {
                t: t(0.0),
                fault: FaultKind::Inadmissible,
            },
            arrival(2),
        ];
        let report = ValueLedger::from_events(&events)
            .attribute(&jobs3())
            .expect("invariant: consistent trace");
        assert_eq!(report.entries[0].bucket, Bucket::Quarantined);
        assert_eq!(report.entries[1].bucket, Bucket::CorruptRejected);
        assert_eq!(report.entries[2].bucket, Bucket::Unresolved);
        assert!(report.aborted);
        assert!(report.render().contains("policy abort"));
    }

    #[test]
    fn readmitted_quarantine_resolves_by_terminal() {
        let events = vec![
            arrival(0),
            TraceEvent::Quarantine {
                t: t(0.0),
                job: JobId(0),
                fault: FaultKind::SlaDip,
            },
            TraceEvent::Readmit {
                t: t(1.0),
                job: JobId(0),
            },
            TraceEvent::Admit {
                t: t(1.0),
                job: JobId(0),
            },
            TraceEvent::Complete {
                t: t(3.0),
                job: JobId(0),
                value: 5.0,
            },
        ];
        let report = ValueLedger::from_events(&events)
            .attribute(&jobs3())
            .expect("invariant: consistent trace");
        assert_eq!(report.entries[0].bucket, Bucket::Realized);
    }

    #[test]
    fn decision_counts_appear_only_when_present() {
        let plain = ValueLedger::from_events(&[arrival(0)])
            .attribute(&jobs3())
            .expect("invariant: consistent trace");
        assert!(!plain.render().contains("decisions"));
        let events = vec![
            arrival(0),
            TraceEvent::Decision {
                t: t(0.0),
                job: JobId(0),
                action: DecisionAction::Admit,
                laxity: 1.0,
                density: 2.5,
                rank: 0,
                flip: false,
            },
            TraceEvent::Decision {
                t: t(1.0),
                job: JobId(0),
                action: DecisionAction::Admit,
                laxity: 0.5,
                density: 2.5,
                rank: 0,
                flip: false,
            },
        ];
        let with = ValueLedger::from_events(&events)
            .attribute(&jobs3())
            .expect("invariant: consistent trace");
        assert_eq!(with.decisions.get("admit"), Some(&2));
        assert!(with.render().contains("decisions"));
        assert!(with.render().contains("admit=2"));
    }

    #[test]
    fn render_is_fixed_format() {
        let events = vec![
            arrival(0),
            TraceEvent::Admit {
                t: t(0.0),
                job: JobId(0),
            },
            TraceEvent::Complete {
                t: t(2.0),
                job: JobId(0),
                value: 5.0,
            },
        ];
        let report = ValueLedger::from_events(&events)
            .attribute(&jobs3())
            .expect("invariant: consistent trace");
        let text = report.render();
        assert!(text.starts_with("value-loss ledger\n"));
        assert!(text.contains("jobs traced             : 1\n"), "{text}");
        assert!(
            text.contains("realized                :       5.0000  100.00%  (1 jobs)\n"),
            "{text}"
        );
        assert!(text.contains("conservation"));
    }

    #[test]
    fn bucket_names_are_stable() {
        let names: Vec<&str> = Bucket::ALL.iter().map(|b| b.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "realized",
                "expired-in-queue",
                "preempted-never-rescued",
                "quarantined",
                "corrupt-rejected",
                "unresolved"
            ]
        );
    }

    #[test]
    fn empty_trace_is_vacuously_conserved() {
        let report = ValueLedger::from_events(&[])
            .attribute(&jobs3())
            .expect("invariant: empty trace is consistent");
        assert!(report.entries.is_empty());
        assert_eq!(report.total_value, 0.0);
        assert!(report.render().contains("0.0000"));
    }
}
