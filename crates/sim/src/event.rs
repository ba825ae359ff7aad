//! Kernel events and the deterministic event queue.
//!
//! The queue is a *calendar queue* (a bucketed timing wheel with a heap
//! fallback), not a plain binary heap: near-future events live in an array
//! of time buckets scanned by a cursor, far-future and non-finite events
//! wait in an overflow heap. Pops stay byte-identical to a `BinaryHeap`
//! with the same `(time, kind-priority, tie)` total order (the tie is the
//! job id for deadlines, the insertion sequence otherwise) — the bucket
//! boundaries are a pure function of event *time*, so co-timed events can
//! never straddle a bucket edge and ties always resolve inside one bucket
//! by the full [`Ord`] on [`Event`]. The unit tests below check that
//! against a plain `BinaryHeap`.
//!
//! Why not just the heap: a `BinaryHeap<Reverse<Event>>` drop-in is about
//! 280 lines shorter and keeps every pinned digest, but it is slower end to
//! end. Over 6 alternating pairs of 8 s perfbench fleet-p2c64 runs on a
//! 2-core VM, `jobs_per_s` fell from a median of 2.57 M (2.11–2.83 M) to
//! 2.12 M (2.00–2.35 M), −17%, lower in every pair, and arrival p50 rose
//! 21%.

use cloudsched_core::{JobId, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The currently running job (as of epoch `epoch`) finishes its workload.
    Completion {
        /// The job that completes.
        job: JobId,
        /// Dispatch epoch; a mismatch with the kernel's current epoch marks
        /// the event stale (the job was preempted in between).
        epoch: u64,
    },
    /// A scheduler-requested timer (e.g. a zero-conservative-laxity
    /// interrupt) fires for `job`.
    Timer {
        /// The job the timer concerns.
        job: JobId,
        /// Opaque token chosen by the scheduler at registration.
        token: u64,
    },
    /// `job` is released and becomes known to the scheduler.
    Release {
        /// The released job.
        job: JobId,
    },
    /// `job`'s firm deadline passes.
    Deadline {
        /// The job whose deadline expires.
        job: JobId,
    },
    /// The capacity profile enters a new constant-rate segment. Only
    /// scheduled when tracing is live — it exists to stamp
    /// capacity-segment trace events, never to invoke the scheduler.
    CapacityChange,
}

impl EventKind {
    /// Processing priority at equal timestamps. Capacity-segment markers go
    /// first so the trace shows the new rate before any co-timed activity;
    /// completions are handled before deadlines so that a job finishing
    /// *exactly at* its deadline counts as completed ("completing a job
    /// **by** its deadline"), and before releases so queues are in a
    /// settled state when new work arrives.
    fn priority(&self) -> u8 {
        match self {
            EventKind::CapacityChange => 0,
            EventKind::Completion { .. } => 1,
            EventKind::Timer { .. } => 2,
            EventKind::Release { .. } => 3,
            EventKind::Deadline { .. } => 4,
        }
    }
}

/// A scheduled event. Ordering: time, then kind priority, then job id for
/// deadlines and insertion sequence for every other kind — fully
/// deterministic. Each job has one deadline, so co-timed deadlines pop in
/// id order however their jobs were seeded.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// When the event fires.
    pub time: Time,
    /// What fires.
    pub kind: EventKind,
    seq: u64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        self.time
            .cmp(&other.time)
            .then(self.kind.priority().cmp(&other.kind.priority()))
            .then_with(|| match (self.kind, other.kind) {
                (EventKind::Deadline { job: a }, EventKind::Deadline { job: b }) => {
                    a.cmp(&b).then(self.seq.cmp(&other.seq))
                }
                _ => self.seq.cmp(&other.seq),
            })
    }
}

/// Smallest bucket count the calendar ever uses.
const MIN_BUCKETS: usize = 64;
/// A single bucket longer than this triggers a re-spread (window re-fit).
const SPILL_LIMIT: usize = 128;
/// Average per-bucket occupancy a re-spread aims for.
const TARGET_OCCUPANCY: usize = 8;
/// Global average occupancy that triggers a re-spread on push.
const MAX_AVG_OCCUPANCY: usize = 32;
/// How many calendar windows past the dense span still go into buckets;
/// events beyond `origin + FAR_WINDOWS × span` fall back to the heap, and
/// between re-spreads the bucket vector grows to at most this many times
/// its size.
const FAR_WINDOWS: usize = 4;

/// Deterministic event queue: a calendar of time buckets that pops in
/// the exact `(time, kind-priority, tie)` order of a binary heap.
#[derive(Debug)]
pub struct EventQueue {
    calendar: Calendar,
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// The calendar proper. Invariants:
///
/// * every bucketed event has a finite time `< limit`; every overflow
///   event has a non-finite time or a time `>= limit` — so the earliest
///   bucketed event always precedes every overflow event, and co-timed
///   events are always classified the same way;
/// * bucket assignment is monotone in time (`bucket_for`), so bucket `i`
///   holds strictly earlier times than bucket `j > i`;
/// * no non-empty bucket lies before `cursor`;
/// * when `sorted` is set, `buckets[cursor]` is sorted descending, so the
///   minimum is at the back.
#[derive(Debug, Default)]
struct Calendar {
    buckets: Vec<Vec<Event>>,
    /// Index of the first possibly non-empty bucket.
    cursor: usize,
    /// Whether `buckets[cursor]` is currently sorted (descending).
    sorted: bool,
    /// Time at the start of calendar slot 0.
    origin: f64,
    /// Calendar slot of `buckets[0]`: bucket `i` holds the times whose slot
    /// `⌊(t − origin) / width⌋` is `base + i` (earlier times land in bucket
    /// 0). The window slides by raising `base` over drained buckets.
    base: usize,
    /// Bucket width in time units (always positive and finite).
    width: f64,
    /// Times `>= limit` (or non-finite) go to the overflow heap.
    limit: f64,
    /// Events currently held in buckets (not counting overflow).
    in_buckets: usize,
    /// Re-spreads are deferred until the population doubles past this
    /// mark, so degenerate inputs (e.g. thousands of co-timed events the
    /// window cannot split) cost `O(n log n)` total, not `O(n²)`.
    respread_floor: usize,
    overflow: BinaryHeap<std::cmp::Reverse<Event>>,
    /// Scratch buffer reused by re-spreads.
    scratch: Vec<Event>,
}

impl Calendar {
    fn new() -> Self {
        Calendar {
            buckets: Vec::new(),
            cursor: 0,
            sorted: false,
            origin: 0.0,
            base: 0,
            width: 1.0,
            limit: f64::INFINITY,
            in_buckets: 0,
            respread_floor: 0,
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
        }
    }

    /// Bucket index for time `t`, or `None` when `t` belongs in the overflow
    /// heap (non-finite or `>= limit`). Monotone in `t`: times before the
    /// window's first slot clamp into bucket 0, which is all ordering
    /// needs. A time past the last bucket first slides the
    /// window over the drained buckets before the cursor, then grows it, so
    /// a queue fed one job at a time — which never crowds a bucket enough
    /// to re-spread — keeps its events in distinct buckets instead of
    /// sorted-inserting them all into one. A time more than `FAR_WINDOWS`
    /// windows past the start gets `None` and becomes the new `limit`: it,
    /// and everything at or after it, waits in the overflow heap.
    #[inline]
    // `as usize` saturates at 0 for negative values, which is exactly the
    // clamp we want for t < origin; the hot path takes no checked helper.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn bucket_for(&mut self, t: f64) -> Option<usize> {
        if !t.is_finite() || t >= self.limit {
            return None;
        }
        let mut idx = (((t - self.origin) / self.width) as usize).saturating_sub(self.base);
        if idx >= self.buckets.len() && self.cursor > 0 {
            self.buckets.rotate_left(self.cursor);
            self.base += self.cursor;
            idx -= self.cursor;
            self.cursor = 0;
        }
        if idx >= self.buckets.len() {
            if idx >= FAR_WINDOWS * self.buckets.len().max(MIN_BUCKETS) {
                self.limit = t;
                return None;
            }
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        Some(idx)
    }

    #[inline]
    fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    fn insert(&mut self, ev: Event) {
        let Some(idx) = self.bucket_for(ev.time.as_f64()) else {
            self.overflow.push(std::cmp::Reverse(ev));
            // A population outgrowing the window re-spreads, as a crowded
            // bucket does.
            if self.overflow.len() >= SPILL_LIMIT && self.len() >= self.respread_floor {
                self.respread();
            }
            return;
        };
        if idx < self.cursor {
            self.cursor = idx;
            self.sorted = false;
        }
        if idx == self.cursor && self.sorted {
            // Keep the current bucket's descending order so pops stay O(1).
            let b = &mut self.buckets[idx];
            let pos = b.partition_point(|e| *e > ev);
            b.insert(pos, ev);
        } else {
            self.buckets[idx].push(ev);
        }
        self.in_buckets += 1;
        let spilled = self.buckets[idx].len() >= SPILL_LIMIT
            || self.in_buckets > self.buckets.len() * MAX_AVG_OCCUPANCY;
        if spilled && self.in_buckets >= self.respread_floor {
            self.respread();
        }
    }

    /// Re-fits the window to the current population: gathers every event
    /// (buckets *and* overflow), re-derives origin/width/limit from the
    /// dense span, and redistributes. Order is untouched — bucketing is a
    /// pure monotone function of time.
    fn respread(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        for b in &mut self.buckets {
            scratch.append(b);
        }
        scratch.extend(self.overflow.drain().map(|r| r.0));
        self.in_buckets = 0;
        self.respread_floor = (scratch.len() * 2).max(2 * SPILL_LIMIT);

        // Dense span over the finite times; non-finite events go straight
        // back to the overflow heap below.
        let mut tmin = f64::INFINITY;
        let mut tmax = f64::NEG_INFINITY;
        for ev in &scratch {
            let t = ev.time.as_f64();
            if t.is_finite() {
                tmin = tmin.min(t);
                tmax = tmax.max(t);
            }
        }
        if tmin.is_finite() {
            // Every bucket was drained into `scratch` above, so the vector
            // can be resized in either direction: grow for a population
            // spike, shrink back when the live population collapses (a
            // spike would otherwise pin the bucket count — and the cost of
            // every cursor sweep — at its high-water mark forever). Buckets
            // the window can still grow into (up to the heap limit) are
            // kept, so re-anchoring a steady live set does not free and
            // reallocate them each time.
            let nb = (scratch.len() / TARGET_OCCUPANCY).max(MIN_BUCKETS);
            if nb > self.buckets.len() {
                self.buckets.resize_with(nb, Vec::new);
            } else if self.buckets.len() > nb * FAR_WINDOWS {
                self.buckets.truncate(nb);
            }
            let span = tmax - tmin;
            self.origin = tmin;
            self.base = 0;
            self.width = if span > 0.0 && (span / (nb - 1) as f64) > 0.0 {
                span / (nb - 1) as f64
            } else {
                1.0
            };
            // Heap fallback for the far future: anything beyond a few
            // window spans of the dense region waits in the overflow heap
            // instead of growing the bucket vector without bound.
            self.limit = self.origin + self.width * (nb * FAR_WINDOWS) as f64;
        }
        self.cursor = 0;
        self.sorted = false;
        for ev in scratch.drain(..) {
            match self.bucket_for(ev.time.as_f64()) {
                Some(idx) => {
                    self.buckets[idx].push(ev);
                    self.in_buckets += 1;
                }
                None => self.overflow.push(std::cmp::Reverse(ev)),
            }
        }
        self.scratch = scratch;
    }

    /// Advances `cursor` to the first non-empty bucket, if any.
    #[inline]
    fn settle_cursor(&mut self) -> bool {
        while self.cursor < self.buckets.len() {
            if !self.buckets[self.cursor].is_empty() {
                return true;
            }
            self.cursor += 1;
            self.sorted = false;
        }
        false
    }

    /// Removes the earliest event if `ready` accepts it.
    fn pop_if(&mut self, ready: impl FnOnce(&Event) -> bool) -> Option<Event> {
        loop {
            if self.settle_cursor() {
                if !self.sorted {
                    self.buckets[self.cursor].sort_unstable_by(|a, b| b.cmp(a));
                    self.sorted = true;
                }
                // The bucket invariant puts every bucketed event before
                // every overflow event, so the bucket minimum is the queue
                // minimum.
                let bucket = &mut self.buckets[self.cursor];
                if !ready(bucket.last()?) {
                    return None;
                }
                self.in_buckets -= 1;
                return bucket.pop();
            }
            // Window drained: refill from the overflow heap.
            match self.overflow.peek() {
                None => return None,
                Some(r) if !r.0.time.as_f64().is_finite() => {
                    // Only non-finite times remain (the heap minimum is
                    // non-finite): pop straight from the heap.
                    if !ready(&r.0) {
                        return None;
                    }
                    return self.overflow.pop().map(|r| r.0);
                }
                Some(_) => {
                    // Re-anchor the window at the overflow's dense span;
                    // at least its earliest event lands in bucket 0, so
                    // the next iteration pops.
                    self.limit = f64::INFINITY;
                    self.respread();
                }
            }
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.overflow.clear();
        self.cursor = 0;
        self.sorted = false;
        self.origin = 0.0;
        self.base = 0;
        self.limit = f64::INFINITY;
        self.in_buckets = 0;
        self.respread_floor = 0;
        // width and bucket count are kept: they only shape *where* events
        // land, never the pop order, and a recycled run of similar scale
        // re-uses the fitted width.
    }

    fn capacity(&self) -> usize {
        self.buckets.iter().map(Vec::capacity).sum::<usize>() + self.overflow.capacity()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            calendar: Calendar::new(),
            next_seq: 0,
        }
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: Time, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.calendar.insert(Event { time, kind, seq });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.calendar.pop_if(|_| true)
    }

    /// Removes and returns the earliest event if `ready` accepts it, and
    /// leaves the queue untouched otherwise — the kernel's pumps stop at
    /// the first event that does not precede the next release.
    pub fn pop_if(&mut self, ready: impl FnOnce(&Event) -> bool) -> Option<Event> {
        self.calendar.pop_if(ready)
    }

    /// All pending events in pop order plus the live sequence counter — the
    /// snapshot image of the queue. The total `(time, priority, tie)` order
    /// makes the pop sequence a pure function of the event multiset, so
    /// restoring this image reproduces the exact future of the run —
    /// regardless of how the calendar happened to bucket the events.
    pub(crate) fn snapshot(&self) -> (Vec<(Time, EventKind, u64)>, u64) {
        let c = &self.calendar;
        let mut events: Vec<Event> = c.buckets.iter().flatten().copied().collect();
        events.extend(c.overflow.iter().map(|r| r.0));
        events.sort();
        (
            events
                .into_iter()
                .map(|e| (e.time, e.kind, e.seq))
                .collect(),
            self.next_seq,
        )
    }

    /// Rebuilds the queue from a snapshot image. Counterpart of
    /// [`EventQueue::snapshot`]; pops after a restore are byte-identical to
    /// pops of the original queue.
    pub(crate) fn restore(&mut self, events: Vec<(Time, EventKind, u64)>, next_seq: u64) {
        self.clear();
        for (time, kind, seq) in events {
            self.calendar.insert(Event { time, kind, seq });
        }
        self.next_seq = next_seq;
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.calendar.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the queue for reuse, keeping the backing allocations.
    ///
    /// The insertion-sequence counter restarts at 0: seq numbers only
    /// break ties *within* one run, and resetting them is what makes a
    /// recycled queue's tie-breaking byte-identical to a fresh one's.
    pub fn clear(&mut self) {
        self.calendar.clear();
        self.next_seq = 0;
    }

    /// Number of events the queue can hold without reallocating (summed
    /// over the calendar's buckets and overflow heap).
    pub fn capacity(&self) -> usize {
        self.calendar.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    /// The pop-order oracle: a plain binary min-heap over the same total
    /// order on [`Event`].
    type RefHeap = BinaryHeap<Reverse<Event>>;

    /// Pushes `kind` at `time` into the calendar and, under the seq the
    /// calendar assigns it, into the oracle.
    fn push_both(q: &mut EventQueue, heap: &mut RefHeap, time: Time, kind: EventKind) {
        heap.push(Reverse(Event {
            time,
            kind,
            seq: q.next_seq,
        }));
        q.push(time, kind);
    }

    fn pop_ref(heap: &mut RefHeap) -> Option<Event> {
        heap.pop().map(|r| r.0)
    }

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3.0), EventKind::Release { job: JobId(0) });
        q.push(t(1.0), EventKind::Release { job: JobId(1) });
        q.push(t(2.0), EventKind::Release { job: JobId(2) });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_f64())
            .collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_time_orders_by_kind_priority() {
        let mut q = EventQueue::new();
        q.push(t(5.0), EventKind::Deadline { job: JobId(0) });
        q.push(t(5.0), EventKind::Release { job: JobId(1) });
        q.push(
            t(5.0),
            EventKind::Completion {
                job: JobId(2),
                epoch: 0,
            },
        );
        q.push(
            t(5.0),
            EventKind::Timer {
                job: JobId(3),
                token: 0,
            },
        );
        q.push(t(5.0), EventKind::CapacityChange);
        let kinds: Vec<u8> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::CapacityChange => 0,
                EventKind::Completion { .. } => 1,
                EventKind::Timer { .. } => 2,
                EventKind::Release { .. } => 3,
                EventKind::Deadline { .. } => 4,
            })
            .collect();
        assert_eq!(kinds, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn equal_time_and_kind_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.push(t(1.0), EventKind::Release { job: JobId(i) });
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Release { job } => job.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn co_timed_deadlines_pop_in_job_id_order() {
        // A release-order walk seeds co-timed deadlines out of id order;
        // they must still pop by id.
        let mut q = EventQueue::new();
        for id in [3, 0, 2, 1] {
            q.push(t(4.0), EventKind::Deadline { job: JobId(id) });
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Deadline { job } => job.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn clear_restarts_the_fifo_sequence() {
        let mut q = EventQueue::new();
        q.push(t(1.0), EventKind::Release { job: JobId(9) });
        q.push(t(1.0), EventKind::Release { job: JobId(8) });
        q.clear();
        assert!(q.is_empty());
        // After clear, ties must resolve exactly as in a fresh queue:
        // insertion order, counted from zero again.
        for i in 0..3 {
            q.push(t(2.0), EventKind::Release { job: JobId(i) });
        }
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Release { job } => job.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn snapshot_restore_preserves_pop_order_and_fifo_counter() {
        let mut q = EventQueue::new();
        q.push(t(2.0), EventKind::Deadline { job: JobId(0) });
        q.push(t(1.0), EventKind::Release { job: JobId(1) });
        q.push(t(1.0), EventKind::Release { job: JobId(2) });
        q.push(
            t(1.0),
            EventKind::Completion {
                job: JobId(3),
                epoch: 4,
            },
        );
        let (image, next_seq) = q.snapshot();
        assert_eq!(next_seq, 4);
        let mut restored = EventQueue::new();
        restored.restore(image, next_seq);
        // Identical pop sequence...
        let a: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<Event> = std::iter::from_fn(|| restored.pop()).collect();
        assert_eq!(a, b);
        // ...and pushes after the restore continue the original seq stream.
        restored.push(t(9.0), EventKind::CapacityChange);
        let (image, next_seq) = restored.snapshot();
        assert_eq!(next_seq, 5);
        assert_eq!(image[0].2, 4, "new event got the continued seq");
    }

    #[test]
    fn pop_if_rejects_without_consuming() {
        let mut q = EventQueue::new();
        q.push(t(1.0), EventKind::Release { job: JobId(7) });
        assert!(q.pop_if(|e| e.time < t(1.0)).is_none());
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_if(|e| e.time <= t(1.0)).unwrap().time, t(1.0));
        assert!(q.pop_if(|_| true).is_none());
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(t(0.0), EventKind::Release { job: JobId(0) });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    /// Deterministic xorshift, so the fuzz cases below need no RNG dep.
    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    fn arbitrary_kind(r: u64) -> EventKind {
        match r % 5 {
            0 => EventKind::CapacityChange,
            1 => EventKind::Completion {
                job: JobId(r % 11),
                epoch: r % 3,
            },
            2 => EventKind::Timer {
                job: JobId(r % 11),
                token: r % 7,
            },
            3 => EventKind::Release { job: JobId(r % 11) },
            _ => EventKind::Deadline { job: JobId(r % 11) },
        }
    }

    /// The ordering contract: any interleaving of pushes and pops —
    /// including heavy time ties, far-future outliers and non-finite
    /// times — pops identically from the calendar and the reference heap.
    #[test]
    fn calendar_matches_reference_heap_under_fuzz() {
        for seed in 1..=20u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut cal = EventQueue::new();
            let mut heap = RefHeap::new();
            for step in 0..600 {
                let r = xorshift(&mut state);
                if r % 4 == 0 && !cal.is_empty() {
                    let want = pop_ref(&mut heap);
                    assert!(cal.pop_if(|_| false).is_none());
                    let got = cal.pop_if(|e| Some(*e) == want);
                    assert_eq!(got, want, "seed {seed} step {step}");
                } else {
                    let raw = xorshift(&mut state);
                    // Cluster times on a coarse grid for ties; sprinkle
                    // far-future outliers and a few NEVERs.
                    let time = match raw % 16 {
                        0 => Time::NEVER,
                        1 => Time::new(1.0e9 + (raw % 100) as f64),
                        _ => Time::new(((raw >> 8) % 64) as f64 * 0.25),
                    };
                    let kind = arbitrary_kind(xorshift(&mut state));
                    push_both(&mut cal, &mut heap, time, kind);
                }
                assert_eq!(cal.len(), heap.len());
            }
            let a: Vec<Event> = std::iter::from_fn(|| cal.pop()).collect();
            let b: Vec<Event> = std::iter::from_fn(|| pop_ref(&mut heap)).collect();
            assert_eq!(a, b, "drain order diverged for seed {seed}");
        }
    }

    /// Re-spreads must trigger (and stay cheap) when volume concentrates
    /// in one bucket — including the degenerate all-co-timed case.
    #[test]
    fn heavy_single_bucket_load_stays_ordered() {
        let mut q = EventQueue::new();
        for i in 0..2_000u64 {
            q.push(t(5.0), EventKind::Release { job: JobId(i) });
        }
        for want in 0..2_000u64 {
            match q.pop().unwrap().kind {
                EventKind::Release { job } => assert_eq!(job.0, want),
                _ => unreachable!(),
            }
        }
        assert!(q.is_empty());
    }

    /// Far-future events must come back out of the overflow heap in exact
    /// order once the near window drains.
    #[test]
    fn overflow_refill_preserves_order() {
        let mut q = EventQueue::new();
        // Dense near cluster to shape the window...
        for i in 0..512u64 {
            q.push(t(i as f64 * 0.01), EventKind::Release { job: JobId(i) });
        }
        // ...then far-future stragglers and a NEVER deadline.
        q.push(t(1.0e7), EventKind::Deadline { job: JobId(1) });
        q.push(t(1.0e7), EventKind::Release { job: JobId(2) });
        q.push(Time::NEVER, EventKind::Deadline { job: JobId(3) });
        let drained: Vec<Event> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(drained.len(), 515);
        let mut sorted = drained.clone();
        sorted.sort();
        assert_eq!(drained, sorted, "pop order is the total order");
        assert_eq!(drained[514].time, Time::NEVER);
    }

    fn bucket_count(q: &EventQueue) -> usize {
        q.calendar.buckets.len()
    }

    /// A population spike must not pin the bucket count at its high-water
    /// mark: after the spike drains, the next re-spread (here the
    /// overflow-refill path) re-fits the bucket vector *down* to the small
    /// surviving population — and the pop order still matches the
    /// reference heap exactly.
    #[test]
    fn respread_shrinks_buckets_after_population_collapse() {
        let mut q = EventQueue::new();
        let mut heap = RefHeap::new();
        // Phase 1 — grow: 20k spread events force occupancy re-spreads
        // well past MIN_BUCKETS.
        for i in 0..20_000u64 {
            push_both(
                &mut q,
                &mut heap,
                t(i as f64 * 0.005),
                EventKind::Release { job: JobId(i) },
            );
        }
        let grown = bucket_count(&q);
        assert!(
            grown > MIN_BUCKETS,
            "spike must grow the calendar, got {grown} buckets"
        );
        for _ in 0..20_000 {
            assert_eq!(
                q.pop(),
                pop_ref(&mut heap),
                "drain order diverged while grown"
            );
        }
        assert!(q.is_empty());
        assert_eq!(
            bucket_count(&q),
            grown,
            "draining alone must not resize (shrink happens at re-spread)"
        );
        // Phase 2 — collapse: a small near cluster plus far-future
        // stragglers. Draining the near window forces an overflow-refill
        // re-spread over the tiny surviving population, which must shrink
        // the bucket vector back down.
        for i in 0..100u64 {
            push_both(
                &mut q,
                &mut heap,
                t(i as f64 * 0.01),
                EventKind::Release { job: JobId(i) },
            );
        }
        for i in 0..3u64 {
            push_both(
                &mut q,
                &mut heap,
                t(1.0e9 + i as f64),
                EventKind::Deadline { job: JobId(i) },
            );
        }
        loop {
            let (a, b) = (q.pop(), pop_ref(&mut heap));
            assert_eq!(a, b, "drain order diverged across the shrink");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(
            bucket_count(&q),
            MIN_BUCKETS,
            "re-spread over the collapsed population must shrink the calendar"
        );
    }
}
