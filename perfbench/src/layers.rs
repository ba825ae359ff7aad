//! The traced pass's instruments: wrappers around the public traits the
//! simulator takes as arguments, timing each call from outside, and the
//! span log they feed.
//!
//! Every wrapper delegates each call unchanged, so a traced run makes the
//! same decisions as an untraced one; the output checks compare their
//! digests. Timing goes through [`MonotonicClock`], one shared origin per
//! process, so timestamps from fleet worker threads line up with the
//! caller's.

use cloudsched_capacity::CapacityProfile;
use cloudsched_core::{CoreError, Job, JobId, Time};
use cloudsched_obs::{Clock, JournalSink, MonotonicClock};
use cloudsched_sim::{Decision, Dispatch, FleetLoads, Scheduler, SimContext};
use std::cell::Cell;
use std::io;
use std::rc::Rc;
use std::sync::{Arc, Mutex};

/// Calls and busy time of one instrumented operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpStat {
    /// Calls made.
    pub calls: u64,
    /// Wall nanoseconds inside the calls.
    pub ns: u64,
}

impl OpStat {
    fn add(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: OpStat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }
}

/// What one [`TimedScheduler`] saw over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedStats {
    /// Machine index (0 outside a fleet).
    pub machine: usize,
    /// Per-handler tallies: release, completion, deadline miss, timer.
    pub handlers: [OpStat; 4],
    /// Clock reading when the wrapper was built (the fleet factory call).
    pub created_ns: u64,
    /// Clock reading when the last handler returned.
    pub last_return_ns: u64,
}

impl SchedStats {
    /// All handlers together.
    pub fn total(&self) -> OpStat {
        let mut t = OpStat::default();
        for h in self.handlers {
            t.merge(h);
        }
        t
    }
}

/// Collects the stats of every [`TimedScheduler`] when it is dropped — the
/// fleet builds and drops its schedulers inside `run_fleet`.
pub type SchedSink = Arc<Mutex<Vec<SchedStats>>>;

/// The stats of every wrapper dropped so far.
pub fn collected(sink: &SchedSink) -> Vec<SchedStats> {
    sink.lock()
        .expect("invariant: no wrapper panics while holding the stats lock")
        .clone()
}

/// Set while a scheduler handler runs, so capacity time spent inside a
/// handler is not subtracted twice from the engine's self time.
pub type InHandler = Rc<Cell<bool>>;

/// Times every handler of the wrapped scheduler.
pub struct TimedScheduler {
    inner: Box<dyn Scheduler>,
    clock: MonotonicClock,
    stats: SchedStats,
    in_handler: InHandler,
    sink: SchedSink,
}

impl TimedScheduler {
    /// Wraps `inner`; its stats land in `sink` when the wrapper drops.
    pub fn new(
        inner: Box<dyn Scheduler>,
        clock: MonotonicClock,
        machine: usize,
        in_handler: InHandler,
        sink: SchedSink,
    ) -> Self {
        let created_ns = clock.now_ns();
        TimedScheduler {
            inner,
            clock,
            stats: SchedStats {
                machine,
                created_ns,
                last_return_ns: created_ns,
                ..SchedStats::default()
            },
            in_handler,
            sink,
        }
    }

    fn timed(&mut self, h: usize, f: impl FnOnce(&mut dyn Scheduler) -> Decision) -> Decision {
        self.in_handler.set(true);
        let t0 = self.clock.now_ns();
        let d = f(self.inner.as_mut());
        let t1 = self.clock.now_ns();
        self.in_handler.set(false);
        self.stats.handlers[h].add(t1.saturating_sub(t0));
        self.stats.last_return_ns = t1;
        d
    }
}

impl Drop for TimedScheduler {
    fn drop(&mut self) {
        // A poisoned lock means another wrapper panicked; the run is lost
        // anyway, and Drop must not panic on top of it.
        if let Ok(mut all) = self.sink.lock() {
            all.push(self.stats);
        }
    }
}

impl Scheduler for TimedScheduler {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn on_release(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.timed(0, |s| s.on_release(ctx, job))
    }
    fn on_completion(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.timed(1, |s| s.on_completion(ctx, job))
    }
    fn on_deadline_miss(&mut self, ctx: &mut SimContext<'_>, job: JobId) -> Decision {
        self.timed(2, |s| s.on_deadline_miss(ctx, job))
    }
    fn on_timer(&mut self, ctx: &mut SimContext<'_>, job: JobId, token: u64) -> Decision {
        self.timed(3, |s| s.on_timer(ctx, job, token))
    }
    fn snapshot_state(&self) -> Option<String> {
        self.inner.snapshot_state()
    }
    fn restore_state(&mut self, state: &str) -> Result<(), CoreError> {
        self.inner.restore_state(state)
    }
}

/// Times every query against the wrapped capacity profile.
pub struct TimedCapacity<'a, P> {
    inner: &'a P,
    clock: MonotonicClock,
    ops: [Cell<OpStat>; 4],
    nested_ns: Cell<u64>,
    in_handler: InHandler,
}

impl<'a, P: CapacityProfile> TimedCapacity<'a, P> {
    /// Wraps `inner`.
    pub fn new(inner: &'a P, clock: MonotonicClock, in_handler: InHandler) -> Self {
        TimedCapacity {
            inner,
            clock,
            ops: Default::default(),
            nested_ns: Cell::new(0),
            in_handler,
        }
    }

    /// Per-operation tallies: integrate, rate_at, next_change_after,
    /// time_to_complete.
    pub fn ops(&self) -> [OpStat; 4] {
        [0, 1, 2, 3].map(|i| self.ops[i].get())
    }

    /// Capacity time spent inside scheduler handlers (already counted in
    /// the handlers' own time).
    pub fn nested_ns(&self) -> u64 {
        self.nested_ns.get()
    }

    fn timed<R>(&self, op: usize, f: impl FnOnce(&P) -> R) -> R {
        let t0 = self.clock.now_ns();
        let r = f(self.inner);
        let ns = self.clock.now_ns().saturating_sub(t0);
        let mut s = self.ops[op].get();
        s.add(ns);
        self.ops[op].set(s);
        if self.in_handler.get() {
            self.nested_ns.set(self.nested_ns.get() + ns);
        }
        r
    }
}

impl<P: CapacityProfile> CapacityProfile for TimedCapacity<'_, P> {
    fn rate_at(&self, t: Time) -> f64 {
        self.timed(1, |p| p.rate_at(t))
    }
    fn integrate(&self, a: Time, b: Time) -> f64 {
        self.timed(0, |p| p.integrate(a, b))
    }
    fn time_to_complete(&self, from: Time, workload: f64) -> Time {
        self.timed(3, |p| p.time_to_complete(from, workload))
    }
    fn bounds(&self) -> (f64, f64) {
        self.inner.bounds()
    }
    fn next_change_after(&self, t: Time) -> Time {
        self.timed(2, |p| p.next_change_after(t))
    }
}

/// Times the dispatch policy's `choose`.
pub struct TimedDispatch {
    inner: Box<dyn Dispatch>,
    clock: MonotonicClock,
    /// Tally of `choose`.
    pub choose: OpStat,
}

impl TimedDispatch {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Dispatch>, clock: MonotonicClock) -> Self {
        TimedDispatch {
            inner,
            clock,
            choose: OpStat::default(),
        }
    }
}

impl Dispatch for TimedDispatch {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn choose(&mut self, job: &Job, loads: &FleetLoads<'_>) -> usize {
        let t0 = self.clock.now_ns();
        let m = self.inner.choose(job, loads);
        self.choose.add(self.clock.now_ns().saturating_sub(t0));
        m
    }
}

/// The benchmark's in-memory write-ahead journal. It stands in for a disk,
/// so no disk claims are made from it. It always stamps each arrival record
/// (one clock read per arrival, the source of the per-arrival latency);
/// with `stamp_all` it also stamps every other record, for the traced
/// pass's layer split.
pub struct BenchJournal {
    clock: MonotonicClock,
    stamp_all: bool,
    /// The journal text, one record per line.
    pub text: String,
    /// Service-record lines (`{"svc":…`).
    pub svc_lines: u64,
    /// Trace-event lines (`{"t":…`).
    pub trace_lines: u64,
    /// Snapshot records written.
    pub snapshots: u64,
    /// Bytes of snapshot records.
    pub snapshot_bytes: u64,
    /// Clock reading at each arrival record.
    pub arrival_ns: Vec<u64>,
    /// Clock reading at each decision record (`stamp_all` only).
    pub decision_ns: Vec<u64>,
    /// `(previous record, snapshot record)` clock readings (`stamp_all`
    /// only): the interval the snapshot was encoded in.
    pub snapshot_ns: Vec<(u64, u64)>,
    last_ns: u64,
}

impl BenchJournal {
    /// An empty journal.
    pub fn new(clock: MonotonicClock, stamp_all: bool) -> Self {
        BenchJournal {
            clock,
            stamp_all,
            text: String::new(),
            svc_lines: 0,
            trace_lines: 0,
            snapshots: 0,
            snapshot_bytes: 0,
            arrival_ns: Vec::new(),
            decision_ns: Vec::new(),
            snapshot_ns: Vec::new(),
            last_ns: 0,
        }
    }
}

impl JournalSink for BenchJournal {
    fn append(&mut self, line: &str) -> io::Result<()> {
        if let Some(kind) = line.strip_prefix("{\"svc\":\"") {
            self.svc_lines += 1;
            if kind.starts_with("arrival") {
                let now = self.clock.now_ns();
                self.arrival_ns.push(now);
                self.last_ns = now;
            } else if self.stamp_all {
                let now = self.clock.now_ns();
                if kind.starts_with("decision") {
                    self.decision_ns.push(now);
                } else if kind.starts_with("snapshot\"") {
                    self.snapshot_ns.push((self.last_ns, now));
                }
                self.last_ns = now;
            }
            if kind.starts_with("snapshot\"") {
                self.snapshots += 1;
                self.snapshot_bytes += line.len() as u64 + 1;
            }
        } else {
            self.trace_lines += 1;
            if self.stamp_all {
                self.last_ns = self.clock.now_ns();
            }
        }
        self.text.push_str(line);
        self.text.push('\n');
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One timed interval of the traced pass.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `service.apply`.
    pub name: &'static str,
    /// Request id: the arrival seq for serve spans, the machine index for
    /// fleet machine spans, the repetition otherwise.
    pub id: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
    /// Start, clock nanoseconds.
    pub start_ns: u64,
    /// End, clock nanoseconds.
    pub end_ns: u64,
}

/// Spans kept in memory and written out when the run ends.
#[derive(Debug, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Records a span and returns its index (for children's `parent`).
    pub fn push(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span: `{"i":…,"name":…,"id":…,"parent":…,
    /// "start_ns":…,"end_ns":…}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"i\":{i},\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.name, s.id, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
