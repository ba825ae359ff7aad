//! Crash-safe streaming admission service.
//!
//! The batch simulator answers "what value does a policy realise on this
//! instance?"; this module answers the operational question the paper's
//! cloud setting actually poses: jobs *arrive over time*, the scheduler
//! decides admission online, and the process hosting it can die at any
//! instant. The service wraps the streaming kernel seam
//! (`Kernel::resume` / `pump_ready` / `register_job` + `seed_job` /
//! `suspend`) in a classic write-ahead-log discipline so that an
//! admission, once journaled, is a *commitment*: after any crash, snapshot
//! restore plus deterministic journal replay reconstructs a run whose final
//! trace — and hence its value-loss ledger — is byte-identical to the run
//! that never crashed. Seeding an admitted job releases it on the spot, so
//! every arrival, admitted or rejected, reaches the trace with its own
//! decision, in sequence order, before the next arrival is journaled.
//!
//! ## Journal format
//!
//! One JSONL file, two line classes distinguished by their first key:
//!
//! * **Service records** start `{"svc":` — the WAL proper. `open` (the
//!   run's configuration), `arrival` (one job's parameters, committed
//!   *before* any of its effects apply), `decision` (the admission
//!   verdict, committed before the verdict's effects apply) and
//!   `snapshot` (a [`crate::snapshot`] blob at a quiescent point, with
//!   table rows only for the jobs that were live at the previous
//!   snapshot or arrived since).
//! * **Trace events** start `{"t":` — the byte-stable
//!   [`TraceEvent`] JSONL codec from `cloudsched-obs`, appended in
//!   emission order. On recovery, trace lines *before* the last snapshot
//!   record are the authoritative event prefix; trace lines after it are
//!   discarded and regenerated by replay (they may be partial — the
//!   crash window).
//!
//! Every line renders into one reused [`JsonlWriter`] buffer and parses
//! through the borrowing [`split_flat_object`]; without a journal
//! (recovery's replay, or `serve` with no sink) nothing is rendered. So
//! the journal costs a constant number of bytes and allocations per
//! arrival, however long the stream. Reading allocates nothing per line
//! either: [`parse_stream`] drains each line straight into its four
//! `r`/`d`/`p`/`v` slots, and journal replay reuses one field buffer
//! across records.
//!
//! ## Determinism and recovery
//!
//! Every admission decision is a pure function of the arrival sequence
//! (the same checks as [`Watchdog::inspect_release`], plus the
//! backpressure rule), so replaying journaled arrivals recomputes
//! byte-identical decisions — recovery verifies this against the
//! journaled verdicts and treats divergence as corruption. Recovery folds
//! every snapshot record in journal order (later rows win), restores the
//! result and replays the tail after the last one. Snapshots are only
//! taken when the scheduler supports state capture
//! ([`crate::Scheduler::snapshot_state`]); otherwise recovery simply
//! replays from genesis, which is always correct, just slower.
//!
//! ## Backpressure and stream faults
//!
//! The bounded admission queue (`queue_cap` live jobs) and the corrupt-
//! arrival checks share the [`DegradationPolicy`] semantics: `Degrade`
//! sheds/rejects (the job's value is surrendered, visibly, via service-
//! emitted `Arrival` + `Abandon` / `FaultDetected` trace events),
//! `BestEffort` admits anyway (corrupt admissions are exempt from the
//! commitment audit), and `Strict` aborts the run with the typed
//! [`CoreError`] naming the broken assumption.

use crate::degrade::{DegradationPolicy, Watchdog, WatchdogConfig};
use crate::engine::{Kernel, KernelState, RunOptions};
use crate::report::RunReport;
use crate::scheduler::Scheduler;
use crate::snapshot;
use crate::workspace::SimWorkspace;
use cloudsched_capacity::CapacityProfile;
use cloudsched_core::{CoreError, Job, JobId, JobSet, Time};
use cloudsched_obs::jsonl::{push_f64, push_u64};
use cloudsched_obs::{
    split_flat_object, unquote, FaultKind, JournalSink, JsonlWriter, TraceEvent, Tracer,
};
use std::collections::BTreeMap;

/// Tunables of one service run. `c_lo` / `c_hi` are not here — they come
/// from the capacity profile's declared bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Factory name of the scheduling policy (journaled so recovery can
    /// rebuild the same scheduler).
    pub scheduler: String,
    /// Importance ratio `k` (drives the value-spike admission check and
    /// the scheduler construction).
    pub k: f64,
    /// Dover's `δ` slack-fraction parameter.
    pub delta: f64,
    /// Maximum admitted-but-unresolved jobs before backpressure engages.
    pub queue_cap: usize,
    /// Take a snapshot after every N arrivals; `0` disables snapshots.
    pub snapshot_every: u64,
    /// What corrupt arrivals and queue overflow do to the run.
    pub policy: DegradationPolicy,
    /// Seeded crash point: stop abruptly (no drain, no further journal
    /// writes) right after applying the arrival with this 0-based index.
    pub crash_after: Option<u64>,
}

impl ServiceConfig {
    /// A config with conventional defaults: unbounded queue, snapshots
    /// off, `Degrade` policy, no crash point.
    pub fn new(scheduler: &str, k: f64) -> Self {
        ServiceConfig {
            scheduler: scheduler.to_string(),
            k,
            delta: 1.0,
            queue_cap: usize::MAX,
            snapshot_every: 0,
            policy: DegradationPolicy::Degrade,
            crash_after: None,
        }
    }
}

/// One arrival of the admission stream: the four job parameters, in
/// non-decreasing release order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Release time `r`.
    pub release: f64,
    /// Firm deadline `d`.
    pub deadline: f64,
    /// Workload `p`.
    pub workload: f64,
    /// Value `v`.
    pub value: f64,
}

/// Why an arrival was admitted or rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionReason {
    /// Clean arrival within capacity: admitted.
    Admit,
    /// Violates Definition 4 (`d − r < p / c_lo`).
    Inadmissible,
    /// Exact parameter copy of an earlier arrival.
    Duplicate,
    /// Value density exceeds `k ×` the smallest clean density seen.
    ValueSpike,
    /// Backpressure: the bounded admission queue was full.
    Shed,
}

impl DecisionReason {
    /// Stable wire name, used in journal `decision` records.
    pub fn as_str(self) -> &'static str {
        match self {
            DecisionReason::Admit => "admit",
            DecisionReason::Inadmissible => "inadmissible",
            DecisionReason::Duplicate => "duplicate",
            DecisionReason::ValueSpike => "value_spike",
            DecisionReason::Shed => "shed",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "admit" => DecisionReason::Admit,
            "inadmissible" => DecisionReason::Inadmissible,
            "duplicate" => DecisionReason::Duplicate,
            "value_spike" => DecisionReason::ValueSpike,
            "shed" => DecisionReason::Shed,
            _ => return None,
        })
    }

    /// `true` when the reason is a stream-corruption fault (as opposed to
    /// a clean admit or a backpressure shed).
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            DecisionReason::Inadmissible | DecisionReason::Duplicate | DecisionReason::ValueSpike
        )
    }

    fn from_fault(kind: FaultKind) -> Option<Self> {
        Some(match kind {
            FaultKind::Inadmissible => DecisionReason::Inadmissible,
            FaultKind::Duplicate => DecisionReason::Duplicate,
            FaultKind::ValueSpike => DecisionReason::ValueSpike,
            _ => return None,
        })
    }

    fn fault_kind(self) -> Option<FaultKind> {
        Some(match self {
            DecisionReason::Inadmissible => FaultKind::Inadmissible,
            DecisionReason::Duplicate => FaultKind::Duplicate,
            DecisionReason::ValueSpike => FaultKind::ValueSpike,
            _ => return None,
        })
    }
}

/// One journaled admission verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceDecision {
    /// 0-based arrival index.
    pub seq: u64,
    /// The job-id slot the arrival occupies (equal to `seq` — rejected
    /// arrivals keep their slot so tables stay id-aligned).
    pub job: JobId,
    /// Whether the job entered the kernel.
    pub admitted: bool,
    /// Why.
    pub reason: DecisionReason,
}

impl ServiceDecision {
    /// An admitted-but-corrupt decision (`BestEffort` policy): exempt
    /// from the commitment audit.
    pub fn is_corrupt_admission(&self) -> bool {
        self.admitted && self.reason.is_fault()
    }
}

/// Everything a finished (or crashed, or aborted) service run produced.
#[derive(Debug)]
pub struct ServiceOutcome {
    /// The kernel's run report; `None` when the run crashed at a seeded
    /// crash point (a crashed process reports nothing — that is the
    /// point).
    pub report: Option<RunReport>,
    /// The full trace event stream, in emission order.
    pub events: Vec<TraceEvent>,
    /// One verdict per applied arrival.
    pub decisions: Vec<ServiceDecision>,
    /// All arrivals as jobs (admitted and rejected; ids are arrival
    /// order).
    pub jobs: JobSet,
    /// Arrivals whose effects were applied before the run ended.
    pub arrivals_applied: u64,
    /// Arrival records [`recover`] read from the journal; the rest of
    /// `arrivals_applied` came from the stream. Always 0 for [`serve`].
    pub journaled_arrivals: u64,
    /// `true` when a seeded crash point stopped the run.
    pub crashed: bool,
    /// The typed error a `Strict` policy aborted with, if any.
    pub aborted: Option<CoreError>,
    /// `true` when a snapshot cadence was configured but the scheduler
    /// cannot checkpoint (`snapshot_state` returned `None`): recovery of
    /// this run replays the whole journal from genesis.
    pub snapshot_unsupported: bool,
}

/// The parsed `open` record of a journal: enough to rebuild the scheduler
/// and validate the capacity class before [`recover`].
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// Scheduler factory name.
    pub scheduler: String,
    /// Importance ratio `k`.
    pub k: f64,
    /// Dover `δ`.
    pub delta: f64,
    /// Declared lower class bound of the capacity profile.
    pub c_lo: f64,
    /// Declared upper class bound of the capacity profile.
    pub c_hi: f64,
    /// Rate at `t = 0` (informational; lets a CLI rebuild a constant
    /// profile without a second input).
    pub rate: f64,
    /// Backpressure bound.
    pub queue_cap: usize,
    /// Snapshot cadence.
    pub snapshot_every: u64,
    /// Degradation policy.
    pub policy: DegradationPolicy,
}

impl JournalHeader {
    /// The service config this journal was written under (the crash point
    /// is a harness knob, not journaled).
    pub fn config(&self) -> ServiceConfig {
        ServiceConfig {
            scheduler: self.scheduler.clone(),
            k: self.k,
            delta: self.delta,
            queue_cap: self.queue_cap,
            snapshot_every: self.snapshot_every,
            policy: self.policy,
            crash_after: None,
        }
    }
}

fn corrupt(line: usize, reason: impl Into<String>) -> CoreError {
    CoreError::CorruptJournal {
        line,
        reason: reason.into(),
    }
}

// ---------------------------------------------------------------------
// Line codecs (flat JSON, byte-deterministic). Records are built with
// `push_str` and `obs::jsonl`'s fmt-free `push_u64` / `push_f64`, whose
// text is byte-identical to `{}` formatting: the shortest round-trip
// form, so parse ∘ render is the identity. They render into the WAL's
// reused buffer and parse through the borrowing `split_flat_object`,
// into slots or one field buffer reused across lines.
// ---------------------------------------------------------------------

/// The fields of one flat record, borrowed from its line and held in a
/// buffer the caller reuses from line to line.
struct Record<'a, 'b> {
    line: usize,
    what: &'static str,
    fields: &'b [(&'a str, &'a str)],
}

impl<'a, 'b> Record<'a, 'b> {
    fn parse(
        text: &'a str,
        line: usize,
        what: &'static str,
        fields: &'b mut Vec<(&'a str, &'a str)>,
    ) -> Result<Self, CoreError> {
        fields.clear();
        for field in split_flat_object(text).map_err(|e| corrupt(line, e))? {
            fields.push(field.map_err(|e| corrupt(line, e))?);
        }
        Ok(Record { line, what, fields })
    }

    fn raw(&self, key: &str) -> Result<&'a str, CoreError> {
        present(self.find(key), self.line, self.what, key)
    }

    fn find(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    fn text(&self, key: &str) -> Result<&'a str, CoreError> {
        unquote(self.raw(key)?).ok_or_else(|| {
            corrupt(
                self.line,
                format!("{} key {key:?} is not a string", self.what),
            )
        })
    }

    fn num(&self, key: &str) -> Result<f64, CoreError> {
        number(self.find(key), self.line, self.what, key)
    }

    fn uint<T: std::str::FromStr>(&self, key: &str) -> Result<T, CoreError> {
        self.raw(key)?.parse::<T>().map_err(|_| {
            corrupt(
                self.line,
                format!("{} key {key:?} is not an unsigned integer", self.what),
            )
        })
    }

    fn arrival(&self) -> Result<Arrival, CoreError> {
        Ok(Arrival {
            release: self.num("r")?,
            deadline: self.num("d")?,
            workload: self.num("p")?,
            value: self.num("v")?,
        })
    }
}

/// The raw value of `key`, or the error that names it missing.
fn present<'a>(
    raw: Option<&'a str>,
    line: usize,
    what: &str,
    key: &str,
) -> Result<&'a str, CoreError> {
    raw.ok_or_else(|| corrupt(line, format!("{what} is missing key {key:?}")))
}

/// The value of `key` as a number that is not NaN.
fn number(raw: Option<&str>, line: usize, what: &str, key: &str) -> Result<f64, CoreError> {
    present(raw, line, what, key)?
        .parse::<f64>()
        .ok()
        .filter(|v| !v.is_nan())
        .ok_or_else(|| corrupt(line, format!("{what} key {key:?} is not a number")))
}

/// Parses an admission stream: one flat JSON object per line,
/// `{"r":R,"d":D,"p":P,"v":V}`. Blank lines are skipped; other keys are
/// ignored, and of two equal keys the first counts.
pub fn parse_stream(text: &str) -> Result<Vec<Arrival>, CoreError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        let lineno = i + 1;
        let [r, d, p, v] = split_flat_object(line)
            .and_then(|f| f.slots(["r", "d", "p", "v"]))
            .map_err(|e| corrupt(lineno, e))?;
        let num = |raw, key| number(raw, lineno, "arrival", key);
        out.push(Arrival {
            release: num(r, "r")?,
            deadline: num(d, "d")?,
            workload: num(p, "p")?,
            value: num(v, "v")?,
        });
    }
    Ok(out)
}

fn arrival_record(out: &mut String, seq: u64, a: &Arrival) {
    out.push_str("{\"svc\":\"arrival\",\"seq\":");
    push_u64(out, seq);
    out.push_str(",\"r\":");
    push_f64(out, a.release);
    out.push_str(",\"d\":");
    push_f64(out, a.deadline);
    out.push_str(",\"p\":");
    push_f64(out, a.workload);
    out.push_str(",\"v\":");
    push_f64(out, a.value);
    out.push('}');
}

fn decision_record(out: &mut String, d: &ServiceDecision) {
    out.push_str("{\"svc\":\"decision\",\"seq\":");
    push_u64(out, d.seq);
    out.push_str(",\"job\":");
    push_u64(out, d.job.0);
    out.push_str(if d.admitted {
        ",\"admit\":true,\"reason\":\""
    } else {
        ",\"admit\":false,\"reason\":\""
    });
    out.push_str(d.reason.as_str());
    out.push_str("\"}");
}

fn snapshot_unsupported_record(out: &mut String, seq: u64) {
    out.push_str("{\"svc\":\"snapshot-unsupported\",\"seq\":");
    push_u64(out, seq);
    out.push('}');
}

fn open_record(out: &mut String, cfg: &ServiceConfig, c_lo: f64, c_hi: f64, rate: f64) {
    out.push_str("{\"svc\":\"open\",\"version\":1,\"scheduler\":\"");
    out.push_str(&cfg.scheduler);
    out.push_str("\",\"k\":");
    push_f64(out, cfg.k);
    out.push_str(",\"delta\":");
    push_f64(out, cfg.delta);
    out.push_str(",\"c_lo\":");
    push_f64(out, c_lo);
    out.push_str(",\"c_hi\":");
    push_f64(out, c_hi);
    out.push_str(",\"rate\":");
    push_f64(out, rate);
    out.push_str(",\"queue_cap\":");
    push_u64(out, cfg.queue_cap as u64);
    out.push_str(",\"snapshot_every\":");
    push_u64(out, cfg.snapshot_every);
    out.push_str(",\"policy\":\"");
    out.push_str(cfg.policy.as_str());
    out.push_str("\"}");
}

// ---------------------------------------------------------------------
// WAL wrapper: renders every line into one reused buffer and turns the
// first failed append or sync into `JournalWrite` — or does nothing at all
// when recovery (or an in-memory `serve`) runs without a journal. Nothing
// is retried (see `cloudsched_obs::journal`).
// ---------------------------------------------------------------------

struct Wal<'a> {
    sink: Option<&'a mut dyn JournalSink>,
    writer: JsonlWriter,
}

fn journal_write(e: std::io::Error) -> CoreError {
    CoreError::JournalWrite {
        reason: e.to_string(),
    }
}

impl<'a> Wal<'a> {
    fn new(sink: Option<&'a mut dyn JournalSink>) -> Self {
        Wal {
            sink,
            writer: JsonlWriter::new(),
        }
    }

    /// Appends the trace events, one line each, without a sync.
    fn append_events(&mut self, events: &[TraceEvent]) -> Result<(), CoreError> {
        if let Some(j) = &mut self.sink {
            for ev in events {
                j.append(self.writer.event(ev)).map_err(journal_write)?;
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), CoreError> {
        match &mut self.sink {
            Some(j) => j.sync().map_err(journal_write),
            None => Ok(()),
        }
    }

    /// Renders one service record with `render`, appends it and makes it
    /// durable. Without a journal nothing is rendered.
    fn commit(&mut self, render: impl FnOnce(&mut String)) -> Result<(), CoreError> {
        if let Some(j) = &mut self.sink {
            render(self.writer.record());
            j.append(self.writer.line()).map_err(journal_write)?;
        }
        self.sync()
    }
}

/// An unbounded in-memory trace sink: the service keeps every event both
/// for the journal and for the final ledger.
#[derive(Debug, Default)]
struct VecSink {
    events: Vec<TraceEvent>,
}

impl Tracer for VecSink {
    fn record(&mut self, event: &TraceEvent) {
        self.events.push(*event);
    }
}

// ---------------------------------------------------------------------
// The service core: one struct drives both serve and recovery replay, so
// the two code paths cannot diverge.
// ---------------------------------------------------------------------

struct Core<'a, P: CapacityProfile> {
    capacity: &'a P,
    cfg: &'a ServiceConfig,
    c_lo: f64,
    /// Every arrival so far, admitted or not (ids are arrival order). The
    /// kernel borrows it in place; arrivals append.
    jobs: JobSet,
    decisions: Vec<ServiceDecision>,
    /// Admitted jobs not yet known to be resolved: a superset of the live
    /// admissions, pruned against the workspace on each arrival.
    live: Vec<JobId>,
    /// The delta base of the next snapshot: the job count and the live
    /// admissions at the previous one. Only those slots and the ones added
    /// since can have changed, so only they get rows.
    snap_jobs: usize,
    snap_live: Vec<JobId>,
    book: Watchdog,
    ws: SimWorkspace,
    st: Option<KernelState>,
    sink: VecSink,
    flushed: usize,
    crashed: bool,
    aborted: Option<CoreError>,
    snapshot_unsupported: bool,
}

impl<'a, P: CapacityProfile> Core<'a, P> {
    fn new(capacity: &'a P, cfg: &'a ServiceConfig) -> Self {
        let (c_lo, c_hi) = capacity.bounds();
        let mut ws = SimWorkspace::new();
        ws.begin(0);
        let mut sink = VecSink::default();
        // The batch kernel stamps capacity segment 0 up front; the
        // streaming service owns that stamp because its job table starts
        // empty.
        sink.events.push(TraceEvent::CapacityChange {
            t: Time::ZERO,
            rate: capacity.rate_at(Time::ZERO),
            segment: 0,
        });
        Core {
            capacity,
            cfg,
            c_lo,
            jobs: JobSet::default(),
            decisions: Vec::new(),
            live: Vec::new(),
            snap_jobs: 0,
            snap_live: Vec::new(),
            book: Watchdog::new(
                cfg.policy,
                c_lo,
                c_hi,
                WatchdogConfig {
                    max_retries: 0,
                    k_limit: Some(cfg.k),
                },
            ),
            ws,
            st: Some(KernelState::new(RunOptions::lean(), c_lo, c_hi)),
            sink,
            flushed: 0,
            crashed: false,
            aborted: None,
            snapshot_unsupported: false,
        }
    }

    fn flush(&mut self, wal: &mut Wal<'_>) -> Result<(), CoreError> {
        wal.append_events(&self.sink.events[self.flushed..])?;
        self.flushed = self.sink.events.len();
        Ok(())
    }

    /// Applies `(seq, arrival, journaled decision)` triples in order until
    /// they run out, a crash point trips or a `Strict` policy aborts, then
    /// finishes the run. The one arrival loop of `serve` and `recover`.
    fn run<'j>(
        mut self,
        sched: &mut dyn Scheduler,
        wal: &mut Wal<'_>,
        arrivals: impl IntoIterator<Item = (u64, Arrival, Option<&'j (bool, &'j str, usize)>)>,
    ) -> Result<ServiceOutcome, CoreError> {
        for (seq, a, journaled) in arrivals {
            if self.crashed || self.aborted.is_some() {
                break;
            }
            self.apply_arrival(sched, wal, seq, &a, journaled)?;
        }
        self.finish(sched, wal)
    }

    /// Applies one arrival end to end: WAL the arrival, pump the kernel
    /// to its release instant, decide admission, WAL the decision, apply
    /// its effects, then honour crash points and the snapshot cadence.
    ///
    /// `journaled` is the decision a previous life of this run committed
    /// for the same sequence number (recovery passes it); replay must
    /// reproduce it exactly or the journal is declared corrupt.
    fn apply_arrival(
        &mut self,
        sched: &mut dyn Scheduler,
        wal: &mut Wal<'_>,
        seq: u64,
        a: &Arrival,
        journaled: Option<&(bool, &str, usize)>,
    ) -> Result<(), CoreError> {
        let last_release = self.jobs.last_release().as_f64();
        if a.release < last_release {
            return Err(CoreError::InvalidParameter {
                name: "release".to_string(),
                value: a.release,
                reason: format!(
                    "arrival {seq} precedes the previous release {last_release}; the \
                     admission stream must be ordered by release time"
                ),
            });
        }
        let id = JobId(self.jobs.len() as u64);
        debug_assert_eq!(id.0, seq, "arrival sequence and job-id slots stay aligned");
        let job = Job::new(
            id,
            Time::new(a.release),
            Time::new(a.deadline),
            a.workload,
            a.value,
        )?;

        // WAL: the arrival record is durable before any of its effects.
        wal.commit(|out| arrival_record(out, seq, a))?;
        // The set grows before the kernel view opens: seeding an admitted
        // job releases it, and the release reads the job from the set.
        self.jobs.push(job)?;
        let job = self.jobs.get(id);

        // One kernel view per arrival: pump to the arrival instant (events
        // strictly before the release, plus co-timed capacity changes,
        // completions and timers — the batch kernel's boundary), decide,
        // then register the job and, if admitted, seed it, which releases
        // it at once.
        let release = job.release;
        let st = self.st.take().expect("invariant: kernel state parked");
        let mut k = Kernel::resume(&mut self.ws, &self.jobs, self.capacity, &mut self.sink, st);
        k.pump_ready(sched, release);

        // Decide. Pure function of the arrival sequence: replayable.
        let fault = self.book.inspect_release(job);
        self.live.retain(|&j| !k.resolved(j));
        let live = self.live.len();
        let (admitted, reason, abort): (bool, DecisionReason, Option<CoreError>) = match fault {
            Some(f) => {
                let reason = DecisionReason::from_fault(f.kind)
                    .expect("invariant: inspect_release only raises stream-fault kinds");
                match self.cfg.policy {
                    DegradationPolicy::Strict => (false, reason, Some(f.error)),
                    DegradationPolicy::Degrade => (false, reason, None),
                    DegradationPolicy::BestEffort => (true, reason, None),
                }
            }
            None if live >= self.cfg.queue_cap => match self.cfg.policy {
                DegradationPolicy::Strict => (
                    false,
                    DecisionReason::Shed,
                    Some(CoreError::QueueOverflow {
                        seq,
                        live,
                        cap: self.cfg.queue_cap,
                    }),
                ),
                DegradationPolicy::Degrade => (false, DecisionReason::Shed, None),
                DegradationPolicy::BestEffort => (true, DecisionReason::Admit, None),
            },
            None => (true, DecisionReason::Admit, None),
        };
        let decision = ServiceDecision {
            seq,
            job: id,
            admitted,
            reason,
        };
        if let Some((j_admit, j_reason, j_line)) = journaled {
            if *j_admit != admitted || *j_reason != reason.as_str() {
                return Err(corrupt(
                    *j_line,
                    format!(
                        "journaled decision for arrival {seq} ({} {j_reason}) diverges from \
                         deterministic replay ({} {})",
                        if *j_admit { "admit" } else { "reject" },
                        if admitted { "admit" } else { "reject" },
                        reason.as_str()
                    ),
                ));
            }
        }

        // WAL: the verdict is durable before its effects.
        wal.commit(|out| decision_record(out, &decision))?;
        self.decisions.push(decision);

        // Effects.
        k.register_job(job);
        if admitted {
            k.seed_job(sched, job);
            self.live.push(id);
        }
        self.st = Some(k.suspend());
        if !admitted {
            // The kernel never releases a rejected job, so the service
            // stamps its lifecycle: every arrival is visible in the
            // trace, and the surrendered value lands in a ledger bucket
            // (fault → corrupt-rejected, shed → expired-in-queue).
            self.sink.events.push(TraceEvent::Arrival {
                t: release,
                job: id,
                laxity: job.laxity_with(release, job.workload, self.c_lo).as_f64(),
            });
            if let Some(kind) = reason.fault_kind() {
                self.sink.events.push(TraceEvent::FaultDetected {
                    t: release,
                    job: id,
                    fault: kind,
                });
            } else {
                self.sink.events.push(TraceEvent::Abandon {
                    t: release,
                    job: id,
                    remaining: job.workload,
                    value: job.value,
                });
            }
        }
        self.flush(wal)?;

        if let Some(err) = abort {
            if let Some(kind) = reason.fault_kind() {
                self.sink.events.push(TraceEvent::PolicyAbort {
                    t: release,
                    fault: kind,
                });
            }
            self.st
                .as_mut()
                .expect("invariant: kernel state parked")
                .aborted = Some(err.clone());
            self.aborted = Some(err);
            self.flush(wal)?;
            return Ok(());
        }

        // Seeded crash point: stop dead. No snapshot, no drain, no sync —
        // only what the WAL already made durable survives.
        if self.cfg.crash_after == Some(seq) {
            self.crashed = true;
            return Ok(());
        }

        if self.cfg.snapshot_every > 0 && (seq + 1) % self.cfg.snapshot_every == 0 {
            if let Some(blob) = sched.snapshot_state() {
                let st = self.st.as_ref().expect("invariant: kernel state parked");
                let rows = self
                    .snap_live
                    .iter()
                    .map(|j| j.index())
                    .chain(self.snap_jobs..self.jobs.len());
                let ws = &self.ws;
                wal.commit(|out| {
                    out.push_str("{\"svc\":\"snapshot\",\"seq\":");
                    push_u64(out, seq);
                    out.push_str(",\"blob\":\"");
                    snapshot::encode(out, st, ws, rows, &blob);
                    out.push_str("\"}");
                })?;
                self.mark_snapshot();
            } else if !self.snapshot_unsupported {
                // A cadence was requested but the scheduler cannot
                // checkpoint: recovery will replay from genesis. Journal
                // that fact once so operators are not silently misled
                // about recovery cost.
                self.snapshot_unsupported = true;
                wal.commit(|out| snapshot_unsupported_record(out, seq))?;
            }
        }
        Ok(())
    }

    /// Makes the current state the delta base of the next snapshot.
    fn mark_snapshot(&mut self) {
        self.snap_jobs = self.jobs.len();
        self.snap_live.clear();
        let ws = &self.ws;
        self.snap_live
            .extend(self.live.iter().filter(|j| !ws.resolved(j.index())));
    }

    fn finish(
        mut self,
        sched: &mut dyn Scheduler,
        wal: &mut Wal<'_>,
    ) -> Result<ServiceOutcome, CoreError> {
        let arrivals_applied = self.decisions.len() as u64;
        let set = std::mem::take(&mut self.jobs);
        let report = if self.crashed {
            None
        } else {
            let st = self.st.take().expect("invariant: kernel state parked");
            let k = Kernel::resume(&mut self.ws, &set, self.capacity, &mut self.sink, st);
            let (report, kernel_abort, _) = k.finish(sched);
            if self.aborted.is_none() {
                self.aborted = kernel_abort;
            }
            self.flush(wal)?;
            wal.sync()?;
            Some(report)
        };
        Ok(ServiceOutcome {
            report,
            events: self.sink.events,
            decisions: self.decisions,
            jobs: set,
            arrivals_applied,
            journaled_arrivals: 0,
            crashed: self.crashed,
            aborted: self.aborted,
            snapshot_unsupported: self.snapshot_unsupported,
        })
    }
}

/// Runs the streaming admission service over `stream` (JSONL arrivals),
/// journaling every record through `sink` (pass `None` to run without
/// durability — e.g. to produce a golden run in memory).
///
/// Returns the final report, trace, decisions and jobs; a seeded crash
/// point yields `report: None` with everything applied so far.
pub fn serve<P: CapacityProfile>(
    capacity: &P,
    cfg: &ServiceConfig,
    scheduler: &mut dyn Scheduler,
    stream: &str,
    sink: Option<&mut dyn JournalSink>,
) -> Result<ServiceOutcome, CoreError> {
    let arrivals = parse_stream(stream)?;
    let mut wal = Wal::new(sink);
    let (c_lo, c_hi) = capacity.bounds();
    let rate = capacity.rate_at(Time::ZERO);
    wal.commit(|out| open_record(out, cfg, c_lo, c_hi, rate))?;
    let arrivals = (0..).zip(arrivals).map(|(seq, a)| (seq, a, None));
    Core::new(capacity, cfg).run(scheduler, &mut wal, arrivals)
}

// ---------------------------------------------------------------------
// Recovery.
// ---------------------------------------------------------------------

struct ParsedJournal<'a> {
    header: JournalHeader,
    arrivals: BTreeMap<u64, Arrival>,
    /// `seq → (admitted, reason, line)`.
    decisions: BTreeMap<u64, (bool, &'a str, usize)>,
    /// `(line, seq, blob)` of every snapshot record, in journal order.
    snapshots: Vec<(usize, u64, &'a str)>,
    /// Trace events with their 1-based line numbers, in journal order.
    trace: Vec<(usize, TraceEvent)>,
}

fn svc_kind(line: &str, lineno: usize) -> Result<&str, CoreError> {
    line.strip_prefix("{\"svc\":\"")
        .and_then(|rest| rest.split('"').next())
        .ok_or_else(|| corrupt(lineno, "service record has no type tag"))
}

/// Parses one `open` record (the journal's first line as `serve` writes
/// it).
fn parse_open(line: &str, lineno: usize) -> Result<JournalHeader, CoreError> {
    let mut fields = Vec::new();
    let rec = Record::parse(line, lineno, "open record", &mut fields)?;
    if rec.raw("version")? != "1" {
        return Err(corrupt(lineno, "unsupported journal version"));
    }
    Ok(JournalHeader {
        scheduler: rec.text("scheduler")?.to_string(),
        k: rec.num("k")?,
        delta: rec.num("delta")?,
        c_lo: rec.num("c_lo")?,
        c_hi: rec.num("c_hi")?,
        rate: rec.num("rate")?,
        queue_cap: rec.uint("queue_cap")?,
        snapshot_every: rec.uint("snapshot_every")?,
        policy: DegradationPolicy::parse(rec.text("policy")?)
            .ok_or_else(|| corrupt(lineno, "open record names an unknown degradation policy"))?,
    })
}

fn parse_journal(journal: &str) -> Result<ParsedJournal<'_>, CoreError> {
    let mut header: Option<JournalHeader> = None;
    let mut arrivals = BTreeMap::new();
    let mut decisions = BTreeMap::new();
    let mut snapshots = Vec::new();
    let mut trace = Vec::new();
    let mut fields = Vec::new();
    for (i, raw) in journal.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("{\"t\":") {
            let ev = TraceEvent::parse_jsonl(line).map_err(|e| corrupt(lineno, e))?;
            trace.push((lineno, ev));
            continue;
        }
        if !line.starts_with("{\"svc\":") {
            return Err(corrupt(
                lineno,
                "journal line is neither a service record nor a trace event",
            ));
        }
        match svc_kind(line, lineno)? {
            "open" => {
                if header.is_some() {
                    return Err(corrupt(lineno, "journal has more than one open record"));
                }
                header = Some(parse_open(line, lineno)?);
            }
            "arrival" => {
                let rec = Record::parse(line, lineno, "arrival record", &mut fields)?;
                let seq: u64 = rec.uint("seq")?;
                if arrivals.insert(seq, rec.arrival()?).is_some() {
                    return Err(corrupt(
                        lineno,
                        format!("duplicate arrival record for seq {seq}"),
                    ));
                }
            }
            "decision" => {
                let rec = Record::parse(line, lineno, "decision record", &mut fields)?;
                let seq: u64 = rec.uint("seq")?;
                let admit = match rec.raw("admit")? {
                    "true" => true,
                    "false" => false,
                    _ => return Err(corrupt(lineno, "decision record \"admit\" is not a bool")),
                };
                let reason = rec.text("reason")?;
                if decisions.insert(seq, (admit, reason, lineno)).is_some() {
                    return Err(corrupt(
                        lineno,
                        format!("duplicate decision record for seq {seq}"),
                    ));
                }
            }
            "snapshot" => {
                let rec = Record::parse(line, lineno, "snapshot record", &mut fields)?;
                let seq: u64 = rec.uint("seq")?;
                if snapshots.last().is_some_and(|&(_, prev, _)| prev >= seq) {
                    return Err(corrupt(
                        lineno,
                        format!("snapshot record for seq {seq} is out of order"),
                    ));
                }
                snapshots.push((lineno, seq, rec.text("blob")?));
            }
            "snapshot-unsupported" => {
                // Informational: the run's scheduler could not checkpoint,
                // so there is no snapshot to restore — replay handles it.
                Record::parse(line, lineno, "snapshot-unsupported record", &mut fields)?
                    .uint::<u64>("seq")?;
            }
            other => {
                return Err(corrupt(
                    lineno,
                    format!("unknown service record type {other:?}"),
                ));
            }
        }
    }
    Ok(ParsedJournal {
        header: header.ok_or_else(|| corrupt(1, "journal has no open record"))?,
        arrivals,
        decisions,
        snapshots,
        trace,
    })
}

/// Parses just the `open` record of a journal — enough for a caller to
/// rebuild the scheduler (via its factory) and the capacity profile
/// before calling [`recover`]. It stops at the open record, which `serve`
/// writes first, so the cost does not grow with the journal; the rest of
/// the journal is validated by [`recover`].
pub fn journal_header(journal: &str) -> Result<JournalHeader, CoreError> {
    for (i, raw) in journal.lines().enumerate() {
        let line = raw.trim();
        if svc_kind(line, i + 1).ok() == Some("open") {
            return parse_open(line, i + 1);
        }
    }
    Err(corrupt(1, "journal has no open record"))
}

/// Recovers a crashed (or merely stopped) service run: restores the last
/// snapshot if one exists, deterministically replays the journal tail,
/// then continues with any arrivals from `stream` the journal never saw,
/// and finishes the run.
///
/// `scheduler` must be a fresh instance of the journaled policy (see
/// [`journal_header`]); its state is restored from the snapshot blob.
/// The recovered run's final trace — and therefore its value-loss
/// ledger — is byte-identical to the same run uninterrupted.
pub fn recover<P: CapacityProfile>(
    capacity: &P,
    scheduler: &mut dyn Scheduler,
    journal: &str,
    stream: &str,
) -> Result<ServiceOutcome, CoreError> {
    let parsed = parse_journal(journal)?;
    let (c_lo, c_hi) = capacity.bounds();
    // lint: allow(L001) — capacity-class identity is bit-equality, not tolerance
    if parsed.header.c_lo.to_bits() != c_lo.to_bits()
        // lint: allow(L001) — capacity-class identity is bit-equality, not tolerance
        || parsed.header.c_hi.to_bits() != c_hi.to_bits()
    {
        return Err(corrupt(
            1,
            format!(
                "journal was written for capacity class ({}, {}), not ({c_lo}, {c_hi})",
                parsed.header.c_lo, parsed.header.c_hi
            ),
        ));
    }
    let cfg = parsed.header.config();
    let stream_arrivals = parse_stream(stream)?;
    let mut wal = Wal::new(None);
    let mut core = Core::new(capacity, &cfg);

    let start_seq = match parsed.snapshots.last() {
        Some(&(lineno, snap_seq, _)) => {
            // Rebuild the bookkeeping the snapshot deliberately omits by
            // folding the journaled prefix: jobs, verdicts and the
            // admission book are pure functions of the arrival sequence.
            for seq in 0..=snap_seq {
                let a = parsed.arrivals.get(&seq).ok_or_else(|| {
                    corrupt(
                        lineno,
                        format!("snapshot covers arrival {seq} but its record is missing"),
                    )
                })?;
                Job::new(
                    JobId(seq),
                    Time::new(a.release),
                    Time::new(a.deadline),
                    a.workload,
                    a.value,
                )
                .and_then(|job| core.jobs.push(job))
                .map_err(|e| corrupt(lineno, format!("snapshot covers arrival {seq}: {e}")))?;
                let _ = core.book.inspect_release(core.jobs.get(JobId(seq)));
                let &(admit, reason, dline) = parsed.decisions.get(&seq).ok_or_else(|| {
                    corrupt(
                        lineno,
                        format!("snapshot covers arrival {seq} but its decision is missing"),
                    )
                })?;
                core.decisions.push(ServiceDecision {
                    seq,
                    job: JobId(seq),
                    admitted: admit,
                    reason: DecisionReason::parse(reason).ok_or_else(|| {
                        corrupt(dline, format!("unknown decision reason {reason:?}"))
                    })?,
                });
            }
            // Every snapshot record contributes the rows it carries; the
            // last one also supplies the kernel state, queue and scheduler
            // blob.
            let records: Vec<(usize, &str)> =
                parsed.snapshots.iter().map(|&(l, _, b)| (l, b)).collect();
            let image = snapshot::restore(&records, core.jobs.len())?;
            scheduler
                .restore_state(image.sched_blob)
                .map_err(|e| match e {
                    CoreError::CorruptJournal { reason, .. } => corrupt(lineno, reason),
                    other => other,
                })?;
            core.st = Some(image.apply(&mut core.ws));
            core.live = core
                .decisions
                .iter()
                .filter(|d| d.admitted && !core.ws.resolved(d.job.index()))
                .map(|d| d.job)
                .collect();
            core.mark_snapshot();
            // Trace lines before the snapshot record are the final,
            // authoritative event prefix; later ones are regenerated.
            core.sink.events = parsed
                .trace
                .iter()
                .filter(|(l, _)| *l < lineno)
                .map(|(_, e)| *e)
                .collect();
            core.flushed = core.sink.events.len();
            snap_seq + 1
        }
        None => 0,
    };

    // Journaled arrivals first, then the stream's arrivals the journal
    // never saw.
    let journaled_arrivals = parsed.arrivals.len() as u64;
    let arrivals = (start_seq..).map_while(|seq| {
        // Sequence numbers index the in-memory arrival stream.
        #[allow(clippy::cast_possible_truncation)]
        let a = parsed
            .arrivals
            .get(&seq)
            .or_else(|| stream_arrivals.get(seq as usize))?;
        Some((seq, *a, parsed.decisions.get(&seq)))
    });
    let outcome = core.run(scheduler, &mut wal, arrivals)?;
    Ok(ServiceOutcome {
        journaled_arrivals,
        ..outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn render(f: impl FnOnce(&mut String)) -> String {
        let mut out = String::new();
        f(&mut out);
        out
    }

    fn open_line(cfg: &ServiceConfig, c_lo: f64, c_hi: f64, rate: f64) -> String {
        render(|out| open_record(out, cfg, c_lo, c_hi, rate))
    }

    #[test]
    fn stream_parser_round_trips_arrival_lines() {
        let a = Arrival {
            release: 0.5,
            deadline: 3.25,
            workload: 1.0,
            value: 2.0,
        };
        let line = render(|out| arrival_record(out, 7, &a));
        assert_eq!(
            line,
            "{\"svc\":\"arrival\",\"seq\":7,\"r\":0.5,\"d\":3.25,\"p\":1,\"v\":2}"
        );
        // The stream format is the same object minus the svc/seq keys.
        let stream =
            "{\"r\":0.5,\"d\":3.25,\"p\":1,\"v\":2}\n\n{\"r\":1,\"d\":2,\"p\":0.5,\"v\":1}\n";
        let parsed = parse_stream(stream).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0], a);
        assert_eq!(parsed[1].release, 1.0);
    }

    #[test]
    fn malformed_streams_yield_typed_errors() {
        let not_a_number = "arrival key \"r\" is not a number";
        let cases: &[(&str, usize, &str)] = &[
            ("not json", 1, "record is not a flat JSON object"),
            ("{\"r\":0.5,\"d\":3}", 1, "arrival is missing key \"p\""),
            ("{\"r\":x,\"d\":3,\"p\":1,\"v\":2}", 1, not_a_number),
            ("{\"r\":NaN,\"d\":3,\"p\":1,\"v\":2}", 1, not_a_number),
            ("{\"r\":\"1\",\"d\":3,\"p\":1,\"v\":2}", 1, not_a_number),
            (
                "{\"r\":1,\"d\":3,\"p\":1,\"v\":2,}",
                1,
                "field `` has no quoted key",
            ),
            // The first of two equal keys is the one that counts.
            ("{\"r\":x,\"d\":3,\"p\":1,\"v\":2,\"r\":1}", 1, not_a_number),
            // Unicode whitespace is trimmed around tokens, not inside them.
            ("{\"r\":1\u{a0}x,\"d\":3,\"p\":1,\"v\":2}", 1, not_a_number),
            (
                "{\"r\":\"1\"\u{2003}x,\"d\":3,\"p\":1,\"v\":2}",
                1,
                "field `r` is followed by `x,\"d\":3,\"p\":1,\"v\":2`",
            ),
            // Blank lines, CRLF endings included, still count.
            (
                "{\"r\":1,\"d\":3,\"p\":1,\"v\":2}\r\n\r\n \n{\"r\":1,\"d\"}",
                4,
                "field `d` has no key/value colon",
            ),
            (
                "\n\n{\"r\":1,\"d\":\"3}",
                3,
                "field `d` has an unterminated string",
            ),
            ("{\"r\":1,\"\":3}", 1, "record has an empty key"),
            ("{\"r\":1,\"d\": ,\"p\":1}", 1, "field `d` has no value"),
            ("{\"r\":1,\"d\"x:3}", 1, "field `d` has no key/value colon"),
            ("{\"r\":1,d:3}", 1, "field `d:3` has no quoted key"),
            ("{\"r}", 1, "field `\"r` has no quoted key"),
        ];
        for &(bad, at, why) in cases {
            match parse_stream(bad) {
                Err(CoreError::CorruptJournal { line, reason }) => {
                    assert_eq!((line, reason.as_str()), (at, why), "{bad:?}");
                }
                other => panic!("expected a typed parse error for {bad:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn stream_parser_takes_the_first_key_and_trims_unicode_whitespace() {
        let want = Arrival {
            release: 1.0,
            deadline: 3.0,
            workload: 1.0,
            value: 2.0,
        };
        for good in [
            "{\"r\":1,\"d\":3,\"p\":1,\"v\":2,\"r\":5}",
            "{\"r\":1,\"r\":x,\"d\":3,\"p\":1,\"v\":2,\"note\":\"a,b:c\"}",
            "\u{a0}{\u{2003}\"r\"\u{a0}:\u{2003}1\u{a0},\"d\":3\u{2003},\"p\" :1,\"v\":\t2\u{a0}}\u{2003}",
            "\r\n{\"r\":1,\"d\":3,\"p\":1,\"v\":2}\r\n",
        ] {
            assert_eq!(parse_stream(good).unwrap(), vec![want], "{good:?}");
        }
        let crlf = "{\"r\":1,\"d\":3,\"p\":1,\"v\":2}\r\n\r\n{\"r\":1,\"d\":3,\"p\":1,\"v\":2}\r\n";
        assert_eq!(parse_stream(crlf).unwrap(), vec![want, want]);
    }

    #[test]
    fn decision_reasons_round_trip_their_wire_names() {
        for r in [
            DecisionReason::Admit,
            DecisionReason::Inadmissible,
            DecisionReason::Duplicate,
            DecisionReason::ValueSpike,
            DecisionReason::Shed,
        ] {
            assert_eq!(DecisionReason::parse(r.as_str()), Some(r));
        }
        assert_eq!(DecisionReason::parse("bogus"), None);
        assert!(DecisionReason::Duplicate.is_fault());
        assert!(!DecisionReason::Shed.is_fault());
    }

    #[test]
    fn journal_header_round_trips_the_open_record() {
        let mut cfg = ServiceConfig::new("vdover", 7.0);
        cfg.queue_cap = 64;
        cfg.snapshot_every = 8;
        cfg.policy = DegradationPolicy::BestEffort;
        let line = open_line(&cfg, 1.0, 35.0, 1.0);
        let header = journal_header(&line).unwrap();
        assert_eq!(header.scheduler, "vdover");
        assert_eq!(header.k, 7.0);
        assert_eq!(header.c_lo, 1.0);
        assert_eq!(header.c_hi, 35.0);
        assert_eq!(header.queue_cap, 64);
        assert_eq!(header.snapshot_every, 8);
        assert_eq!(header.policy, DegradationPolicy::BestEffort);
        // The header's config reconstructs the journaled knobs (harness
        // knobs reset).
        let rebuilt = header.config();
        assert_eq!(rebuilt.scheduler, cfg.scheduler);
        assert_eq!(rebuilt.queue_cap, cfg.queue_cap);
        assert_eq!(rebuilt.crash_after, None);
    }

    #[test]
    fn journal_parser_flags_corrupt_records() {
        let open = open_line(&ServiceConfig::new("vdover", 7.0), 1.0, 2.0, 1.0);
        let cases: &[(String, usize)] = &[
            ("".into(), 1),                                      // no open record
            (format!("{open}\n{open}"), 2),                      // duplicate open
            (format!("{open}\n{{\"svc\":\"weird\"}}"), 2),       // unknown type
            (format!("{open}\nplain text"), 2),                  // unclassifiable
            (
                format!("{open}\n{{\"svc\":\"decision\",\"seq\":0,\"admit\":\"maybe\",\"reason\":\"admit\"}}"),
                2,
            ),
        ];
        for (journal, at) in cases {
            match parse_journal(journal) {
                Err(CoreError::CorruptJournal { line, .. }) => assert_eq!(line, *at),
                Err(other) => panic!("expected CorruptJournal for {journal:?}, got {other:?}"),
                Ok(_) => panic!("expected CorruptJournal for {journal:?}, got Ok"),
            }
        }
    }

    #[test]
    fn snapshot_records_keep_every_blob_in_journal_order() {
        let open = open_line(&ServiceConfig::new("vdover", 7.0), 1.0, 2.0, 1.0);
        // Blobs carry the flat parser's separators inside their string.
        let first = "csnap2;kernel,with,commas;and:colons;0;1;;;sched|blob";
        let second = "csnap2;more;0;2;;;sched|blob";
        let journal = format!(
            "{open}\n{{\"svc\":\"snapshot\",\"seq\":0,\"blob\":\"{first}\"}}\n\
             {{\"svc\":\"snapshot\",\"seq\":4,\"blob\":\"{second}\"}}"
        );
        let parsed = parse_journal(&journal).unwrap();
        assert_eq!(parsed.snapshots, vec![(2, 0, first), (3, 4, second)]);
        // A snapshot record that goes back in sequence is corrupt.
        let backwards =
            format!("{journal}\n{{\"svc\":\"snapshot\",\"seq\":4,\"blob\":\"{second}\"}}");
        assert!(matches!(
            parse_journal(&backwards),
            Err(CoreError::CorruptJournal { line: 4, .. })
        ));
    }
}
