//! Reusable per-run buffer arena for Monte-Carlo sweeps.
//!
//! A single simulation allocates roughly a dozen buffers (the event
//! calendar, per-job workload/flag tables, the outcome table, scheduler
//! scratch) and throws them away when the run ends. A Table I campaign does
//! this 28,000 times over instances of nearly identical size — the paper's
//! §IV grid is 7 λ-values × 5 algorithms × 800 runs — so the sweep layer
//! keeps one [`SimWorkspace`] per worker thread and routes every run
//! through [`crate::Run::workspace`]. After the first run warms the buffers
//! to the campaign's high-water size, subsequent runs perform **zero heap
//! allocation** in the kernel: every buffer is cleared and reused in place.
//!
//! Per-job state is laid out structure-of-arrays, indexed by `JobId`: the
//! remaining-workload table is one dense `Vec<f64>`, and the five
//! lifecycle flags (released, resolved, started, abandoned, quarantined)
//! are packed into a single byte per job instead of five parallel
//! `Vec<bool>`s — one cache line covers 64 jobs' entire lifecycle state,
//! and the kernel's per-event flag checks touch exactly one table.
//!
//! Reuse never changes results: `SimWorkspace::begin` resets all run
//! state, including the event queue's FIFO tie-break counter, so a recycled
//! workspace is observationally identical to a fresh one — decisions,
//! traces and [`crate::RunReport`]s stay byte-for-byte the same. The
//! batch-runner property tests in `tests/sweep.rs` pin this.

use crate::context::TimerRequest;
use crate::event::EventQueue;
use cloudsched_core::{JobId, Outcome};
use std::collections::BTreeSet;

/// Bit masks of the packed per-job lifecycle byte, which the snapshot
/// codec stores as is.
pub(crate) mod flag {
    /// Release event processed; the scheduler knows the job.
    pub const RELEASED: u8 = 1 << 0;
    /// Lifecycle settled: completed, expired or abandoned.
    pub const RESOLVED: u8 = 1 << 1;
    /// Dispatched at least once (distinguishes Start from Resume traces).
    pub const STARTED: u8 = 1 << 2;
    /// Scheduler surrendered the job before its deadline.
    pub const ABANDONED: u8 = 1 << 3;
    /// Hidden from the scheduler by the degradation layer.
    pub const QUARANTINED: u8 = 1 << 4;
}

/// Arena of every per-run buffer the simulation kernel needs.
///
/// Create one (per worker thread), then attach it with
/// [`crate::Run::workspace`] to each run of a sweep. Return each run's [`crate::RunReport`] to
/// [`SimWorkspace::recycle`] once its numbers have been extracted to also
/// reuse the outcome table's allocation — without it, the outcome buffer
/// (moved into the report) is the one allocation left per run.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    pub(crate) queue: EventQueue,
    pub(crate) remaining: Vec<f64>,
    /// Packed lifecycle flags, one byte per job (see [`flag`]).
    pub(crate) flags: Vec<u8>,
    pub(crate) quarantine_pending: BTreeSet<usize>,
    pub(crate) outcome: Outcome,
    /// Timer registrations drained by the kernel after each handler call.
    pub(crate) timer_scratch: Vec<TimerRequest>,
    /// Abandon notices drained alongside the timers.
    pub(crate) abandon_scratch: Vec<JobId>,
    runs: u64,
    reuse_hits: u64,
}

impl SimWorkspace {
    /// Creates an empty workspace; the first run warms the buffers.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Number of runs started in this workspace.
    #[inline]
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Number of runs that started without any buffer growth — every arena
    /// buffer already had sufficient capacity at `SimWorkspace::begin`.
    /// `runs() - reuse_hits()` is the count of warm-up (allocating) runs;
    /// in a steady-state sweep it stays at the handful of runs that raised
    /// the high-water mark.
    ///
    /// This is the *physical* per-arena count: it depends on the exact run
    /// sequence this workspace saw. Sweep reports use the canonical
    /// run-order accounting in `cloudsched-bench` instead, which is
    /// invariant in the thread count.
    #[inline]
    pub fn reuse_hits(&self) -> u64 {
        self.reuse_hits
    }

    #[inline]
    pub(crate) fn released(&self, i: usize) -> bool {
        self.flags[i] & flag::RELEASED != 0
    }

    #[inline]
    pub(crate) fn resolved(&self, i: usize) -> bool {
        self.flags[i] & flag::RESOLVED != 0
    }

    #[inline]
    pub(crate) fn started(&self, i: usize) -> bool {
        self.flags[i] & flag::STARTED != 0
    }

    #[inline]
    pub(crate) fn abandoned(&self, i: usize) -> bool {
        self.flags[i] & flag::ABANDONED != 0
    }

    #[inline]
    pub(crate) fn quarantined(&self, i: usize) -> bool {
        self.flags[i] & flag::QUARANTINED != 0
    }

    #[inline]
    pub(crate) fn set_flag(&mut self, i: usize, mask: u8, on: bool) {
        if on {
            self.flags[i] |= mask;
        } else {
            self.flags[i] &= !mask;
        }
    }

    /// Resets all run state for an `n`-job instance, keeping allocations.
    pub(crate) fn begin(&mut self, n: usize) {
        // A hit means this reset allocates nothing: every per-job buffer
        // can hold n entries. The event queue is not sized by n: it holds
        // only the live set, whose growth (seeded jobs, completions,
        // timers) reuses capacity once the high-water mark is reached,
        // since buffers are never shrunk.
        let hit = self.remaining.capacity() >= n
            && self.flags.capacity() >= n
            && self.outcome.capacity() >= n;
        self.runs += 1;
        if hit {
            self.reuse_hits += 1;
        }
        self.queue.clear();
        self.remaining.clear();
        self.flags.clear();
        self.flags.resize(n, 0);
        self.quarantine_pending.clear();
        self.outcome.reset(n);
        self.timer_scratch.clear();
        self.abandon_scratch.clear();
    }

    /// Grows every per-job table by one slot for a streaming arrival:
    /// workload `p` in the remaining table, all flags clear, outcome
    /// `NotReleased`. The streaming service calls this (through the kernel's
    /// seeding methods) once per arrival, in job-id order.
    pub(crate) fn grow_one(&mut self, workload: f64) {
        self.remaining.push(workload);
        let n = self.remaining.len();
        self.flags.resize(n, 0);
        self.outcome.grow(n);
    }

    /// Reclaims the outcome table of a finished run's report, closing the
    /// last per-run allocation. Call after extracting whatever the sweep
    /// records (value fraction, counters, …); the report is consumed.
    pub fn recycle(&mut self, report: crate::RunReport) {
        self.outcome = report.outcome;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Mirrors the kernel: every run fills the workload table right after
    /// `begin` — that warm-up is what gives the per-job buffers their
    /// capacity. (The event queue is seeded one job at a time and holds
    /// only the live set, so it plays no part in the hit rule.)
    fn begin_and_seed(ws: &mut SimWorkspace, n: usize) {
        ws.begin(n);
        ws.remaining.extend((0..n).map(|i| i as f64 + 1.0));
    }

    #[test]
    fn begin_counts_hits_only_when_no_buffer_grows() {
        let mut ws = SimWorkspace::new();
        begin_and_seed(&mut ws, 4);
        assert_eq!(ws.runs(), 1);
        assert_eq!(ws.reuse_hits(), 0, "cold buffers cannot hit");
        begin_and_seed(&mut ws, 4);
        assert_eq!(ws.reuse_hits(), 1, "same size reuses everything");
        begin_and_seed(&mut ws, 2);
        assert_eq!(ws.reuse_hits(), 2, "smaller instances fit a fortiori");
        begin_and_seed(&mut ws, 1024);
        assert_eq!(ws.reuse_hits(), 2, "growth is a miss");
        begin_and_seed(&mut ws, 1024);
        assert_eq!(ws.reuse_hits(), 3);
        assert_eq!(ws.runs(), 5);
    }

    #[test]
    fn packed_flags_set_and_clear_one_bit_each() {
        let mut ws = SimWorkspace::new();
        ws.begin(4);
        ws.set_flag(0, flag::RELEASED, true);
        ws.set_flag(1, flag::RESOLVED, true);
        ws.set_flag(1, flag::STARTED, true);
        ws.set_flag(2, flag::ABANDONED, true);
        ws.set_flag(3, flag::QUARANTINED, true);
        ws.set_flag(3, flag::QUARANTINED, false);
        assert!(ws.released(0) && !ws.released(1));
        assert!(ws.resolved(1) && ws.started(1));
        assert!(ws.abandoned(2) && !ws.quarantined(3));
        assert_eq!(
            ws.flags,
            vec![
                flag::RELEASED,
                flag::RESOLVED | flag::STARTED,
                flag::ABANDONED,
                0
            ]
        );
    }

    /// Minimal work-conserving FIFO, just enough to drive a workspace run
    /// through the real kernel for the recycle-accounting tests below.
    struct Fifo {
        ready: Vec<JobId>,
    }
    impl Fifo {
        fn next(&mut self, ctx: &crate::SimContext<'_>) -> crate::Decision {
            if ctx.running().is_some() {
                return crate::Decision::Continue;
            }
            match self.ready.first().copied() {
                Some(j) => {
                    self.ready.remove(0);
                    crate::Decision::Run(j)
                }
                None => crate::Decision::Idle,
            }
        }
    }
    impl crate::Scheduler for Fifo {
        fn name(&self) -> String {
            "ws-fifo".into()
        }
        fn on_release(&mut self, ctx: &mut crate::SimContext<'_>, job: JobId) -> crate::Decision {
            self.ready.push(job);
            self.next(ctx)
        }
        fn on_completion(
            &mut self,
            ctx: &mut crate::SimContext<'_>,
            _job: JobId,
        ) -> crate::Decision {
            self.next(ctx)
        }
        fn on_deadline_miss(
            &mut self,
            ctx: &mut crate::SimContext<'_>,
            job: JobId,
        ) -> crate::Decision {
            self.ready.retain(|&j| j != job);
            self.next(ctx)
        }
    }

    /// A spread-out instance with `n` jobs: unit workloads, generous
    /// deadlines, so every job completes under any work-conserving policy.
    fn instance(n: usize) -> cloudsched_core::JobSet {
        let tuples: Vec<(f64, f64, f64, f64)> = (0..n)
            .map(|i| (i as f64, i as f64 + 4.0, 1.0, 1.0))
            .collect();
        cloudsched_core::JobSet::from_tuples(&tuples).unwrap()
    }

    fn run(ws: &mut SimWorkspace, n: usize) -> crate::RunReport {
        let cap = cloudsched_capacity::Constant::new(1.0).unwrap();
        crate::Run::new(&instance(n), &cap, crate::RunOptions::lean())
            .workspace(ws)
            .run(&mut Fifo { ready: Vec::new() })
    }

    /// The sweep-layer contract: once buffers are warm, shrinking runs hit —
    /// but only if each report is recycled, since the outcome table leaves
    /// the workspace inside the report and `begin` counts its absence as
    /// growth.
    #[test]
    fn recycle_keeps_shrinking_runs_on_the_reuse_path() {
        let mut ws = SimWorkspace::new();
        let warm = run(&mut ws, 8);
        assert_eq!((ws.runs(), ws.reuse_hits()), (1, 0), "first run warms up");
        ws.recycle(warm);

        for (i, n) in [8, 5, 3, 1].into_iter().enumerate() {
            let report = run(&mut ws, n);
            assert_eq!(report.completed, n, "all jobs finish in the {n}-job run");
            assert_eq!(
                (ws.runs(), ws.reuse_hits()),
                (i as u64 + 2, i as u64 + 1),
                "recycled shrinking run #{i} must reuse every buffer"
            );
            ws.recycle(report);
        }
    }

    /// Dropping a report instead of recycling it forfeits the outcome
    /// buffer, so even a smaller follow-up run is a (correct) miss.
    #[test]
    fn unrecycled_reports_break_the_reuse_streak() {
        let mut ws = SimWorkspace::new();
        let report = run(&mut ws, 6);
        drop(report);
        run(&mut ws, 2);
        assert_eq!(ws.runs(), 2);
        assert_eq!(
            ws.reuse_hits(),
            0,
            "outcome table left with the dropped report, so begin reallocates"
        );
    }

    /// `recycle` only restores capacity — it must not leak the previous
    /// run's outcomes into the next report.
    #[test]
    fn recycled_outcome_state_does_not_leak_between_runs() {
        let mut ws = SimWorkspace::new();
        let first = run(&mut ws, 5);
        let first_outcomes: Vec<_> = (0..5).map(|i| first.outcome.get(JobId(i))).collect();
        ws.recycle(first);
        let second = run(&mut ws, 5);
        assert_eq!(ws.reuse_hits(), 1);
        let second_outcomes: Vec<_> = (0..5).map(|i| second.outcome.get(JobId(i))).collect();
        assert_eq!(
            first_outcomes, second_outcomes,
            "identical instance, identical outcomes"
        );
        assert_eq!(second.outcome.len(), 5);
    }

    /// A batch run seeds each job only when the kernel reaches its
    /// release, so on a long instance of short windows the event queue
    /// holds a handful of live jobs, not the 2n events of the whole run.
    #[test]
    fn batch_queue_follows_the_live_set() {
        let mut ws = SimWorkspace::new();
        let n = 50_000;
        let report = run(&mut ws, n);
        assert_eq!(report.completed, n);
        let cap = ws.queue.capacity();
        assert!(cap <= 4096, "queue capacity {cap} for a {n}-job run");
    }

    #[test]
    fn begin_resets_all_run_state() {
        let mut ws = SimWorkspace::new();
        ws.begin(3);
        ws.remaining.extend([1.0, 2.0, 3.0]);
        ws.set_flag(1, flag::RELEASED, true);
        ws.quarantine_pending.insert(2);
        ws.abandon_scratch.push(JobId(0));
        ws.begin(3);
        assert!(ws.remaining.is_empty());
        assert!(!(0..3).any(|i| ws.released(i)));
        assert!(ws.quarantine_pending.is_empty());
        assert!(ws.abandon_scratch.is_empty());
        assert_eq!(ws.outcome.len(), 3);
    }
}
