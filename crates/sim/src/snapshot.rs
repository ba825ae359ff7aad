//! Snapshot codec for the streaming admission service.
//!
//! A snapshot is a byte-deterministic, ASCII-only image of what the kernel
//! needs to resume a streaming run at a *quiescent point* (between
//! arrivals, with the scratch buffers drained): the scalar
//! `KernelState`, the pending event queue (including its FIFO tie-break
//! counter), per-job workspace rows and the scheduler's own opaque state
//! blob. Jobs, admission decisions and the admission book are *not* in the
//! image — recovery rebuilds them by folding the journal's service records,
//! which the WAL discipline guarantees are durable up to the snapshot.
//!
//! ## Delta rows
//!
//! A record carries table rows (remaining workload, lifecycle flags,
//! outcome) only for the job slots the service names: those that were live
//! at the previous snapshot plus every slot added since. A rejected slot
//! never changes after its arrival and a resolved one never changes after
//! its resolution, so the last row written for such a slot is final, and
//! a record costs O(snapshot cadence + live jobs) instead of O(arrivals).
//! `restore` folds every record of a journal in order — later rows win —
//! and refuses a chain that leaves any slot without a row.
//!
//! ## Format
//!
//! Sections joined by `;` — a character that never occurs inside any
//! section (floats are hex bit patterns, the scheduler blob's grammar uses
//! only `|`, `,`, `:`, `-` and alphanumerics):
//!
//! ```text
//! csnap4;<kernel scalars>;<event queue>;<next_seq>;<jobs>;<rows>;<scheduler blob>
//! ```
//!
//! The event queue stays the third section and the scheduler blob the
//! last, recovered with a bounded `splitn` so future scheduler grammars
//! cannot confuse the codec. A queued event is `time:code:a:b:seq` with
//! code `T` (a timer: job and token), `D` (a deadline: job, 0) or `X` (a
//! capacity-segment marker: 0, 0); the queue never holds a release or a
//! completion. The service runs no watchdog, so no job is ever
//! quarantined and the image carries no quarantine list.
//!
//! A row is `slot:remaining:flags:outcome`, rows ascending by slot; the
//! slot is left empty when it is the previous row's plus one. The packed
//! flag byte is in decimal and the outcome is `N`, `C<time>` or
//! `M<workload>` — a bare `M` when the missed workload equals the row's
//! remaining workload. Every `f64` is its bit pattern in lowercase hex
//! without leading zeros, so restore is bit-exact and replay after restore
//! is byte-identical to an uninterrupted run. Other format versions are
//! rejected by name.
//!
//! Every malformed input maps to [`CoreError::CorruptJournal`] with the
//! journal line carrying the snapshot — never a panic: journals cross a
//! crash boundary and must be treated as untrusted input.

use crate::engine::KernelState;
use crate::event::EventKind;
use crate::workspace::SimWorkspace;
use cloudsched_core::{CoreError, JobId, JobOutcome, Time};
use cloudsched_obs::jsonl::push_u64;

/// Magic tag of the snapshot format this build reads and writes.
const MAGIC: &str = "csnap4";
/// Number of `;`-separated sections (scheduler blob last).
const SECTIONS: usize = 7;
/// Scalar fields in the kernel-state section.
const KERNEL_FIELDS: usize = 18;
/// Every lifecycle bit the workspace defines.
const FLAG_BITS: u8 = 0b1_1111;

/// Appends the bit pattern of `x` to `out` in lowercase hex without
/// leading zeros (`0.0` is `0`): exact, and short for the zeros that
/// resolved jobs carry.
fn push_hx(out: &mut String, x: f64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = x.to_bits();
    let nibbles = (16 - bits.leading_zeros() / 4).max(1);
    for shift in (0..nibbles).rev() {
        out.push(char::from(DIGITS[((bits >> (shift * 4)) & 0xf) as usize]));
    }
}

/// One job slot's workspace state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    remaining: f64,
    flags: u8,
    outcome: JobOutcome,
}

/// A decoded snapshot, ready to be applied onto a workspace.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotImage<'a> {
    st: KernelState,
    queue: Vec<(Time, EventKind, u64)>,
    next_seq: u64,
    jobs: usize,
    /// `(slot, row)`, slots ascending. After [`restore`], one per slot.
    rows: Vec<(usize, Row)>,
    /// The scheduler's own state blob, to hand to
    /// [`crate::Scheduler::restore_state`].
    pub(crate) sched_blob: &'a str,
}

impl SnapshotImage<'_> {
    /// Writes the image into `ws` (replacing its contents) and returns the
    /// kernel state to resume from. The image must come from [`restore`],
    /// which guarantees a row for every slot.
    pub(crate) fn apply(self, ws: &mut SimWorkspace) -> KernelState {
        debug_assert!(self
            .rows
            .iter()
            .enumerate()
            .all(|(i, (slot, _))| i == *slot));
        ws.begin(0);
        ws.outcome.reset(self.rows.len());
        for (i, row) in &self.rows {
            ws.remaining.push(row.remaining);
            ws.flags.push(row.flags);
            ws.outcome.set(JobId(*i as u64), row.outcome);
        }
        ws.queue.restore(self.queue, self.next_seq);
        self.st
    }
}

/// Appends the snapshot blob of a quiescent streaming kernel to `out`,
/// with table rows for the job slots `rows` yields (ascending).
///
/// The caller (the service) guarantees quiescence: lean options (no
/// schedule / trajectory recording), no pending abort, no quarantined
/// job, scratch buffers drained.
pub(crate) fn encode(
    out: &mut String,
    st: &KernelState,
    ws: &SimWorkspace,
    rows: impl Iterator<Item = usize>,
    sched_blob: &str,
) {
    debug_assert!(
        st.schedule.is_none()
            && st.trajectory.is_none()
            && st.aborted.is_none()
            && ws.quarantine_pending.is_empty(),
        "snapshots are only taken at quiescent points of lean streaming runs"
    );
    debug_assert!(
        !sched_blob.contains(';'),
        "scheduler blobs must stay out of the section separator's alphabet"
    );
    out.push_str(MAGIC);
    out.push(';');
    for (i, field) in [
        Kernel::Hex(st.now.as_f64()),
        Kernel::Running(st.running),
        Kernel::Hex(st.slice_start.as_f64()),
        Kernel::Hex(st.slice_rem),
        Kernel::Hex(st.done_at.as_f64()),
        Kernel::Hex(st.value),
        Kernel::Int(st.preemptions as u64),
        Kernel::Int(st.dispatches as u64),
        Kernel::Int(st.events_processed as u64),
        Kernel::Int(st.expired as u64),
        Kernel::Hex(st.expired_value),
        Kernel::Int(st.abandoned_count as u64),
        Kernel::Hex(st.abandoned_value),
        Kernel::Int(st.capacity_segment as u64),
        Kernel::Hex(st.horizon.as_f64()),
        Kernel::Int(u64::from(st.capacity_armed)),
        Kernel::Hex(st.c_lo),
        Kernel::Hex(st.c_hi),
    ]
    .into_iter()
    .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        match field {
            Kernel::Hex(x) => push_hx(out, x),
            Kernel::Int(n) => push_u64(out, n),
            Kernel::Running(None) => out.push('-'),
            Kernel::Running(Some(j)) => push_u64(out, j.0),
        }
    }
    out.push(';');

    let (events, next_seq) = ws.queue.snapshot();
    for (i, (t, kind, seq)) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let (code, a, b) = match *kind {
            EventKind::Timer { job, token } => ('T', job.0, token),
            EventKind::Deadline { job } => ('D', job.0, 0),
            EventKind::CapacityChange => ('X', 0, 0),
        };
        push_hx(out, t.as_f64());
        out.push(':');
        out.push(code);
        for n in [a, b, *seq] {
            out.push(':');
            push_u64(out, n);
        }
    }
    out.push(';');
    push_u64(out, next_seq);
    out.push(';');
    push_u64(out, ws.remaining.len() as u64);
    out.push(';');

    let mut prev: Option<usize> = None;
    for i in rows {
        if let Some(p) = prev {
            out.push(',');
            if p + 1 != i {
                push_u64(out, i as u64);
            }
        } else {
            push_u64(out, i as u64);
        }
        prev = Some(i);
        out.push(':');
        push_hx(out, ws.remaining[i]);
        out.push(':');
        push_u64(out, u64::from(ws.flags[i]));
        out.push(':');
        match ws.outcome.get(JobId(i as u64)) {
            JobOutcome::NotReleased => out.push('N'),
            JobOutcome::Completed { at } => {
                out.push('C');
                push_hx(out, at.as_f64());
            }
            JobOutcome::Missed { remaining_workload } => {
                out.push('M');
                // lint: allow(L001) — bit identity decides the shorthand, not tolerance
                if remaining_workload.to_bits() != ws.remaining[i].to_bits() {
                    push_hx(out, remaining_workload);
                }
            }
        }
    }
    out.push(';');
    out.push_str(sched_blob);
}

/// One scalar of the kernel section.
enum Kernel {
    Hex(f64),
    Int(u64),
    Running(Option<JobId>),
}

fn corrupt(line: usize, reason: impl Into<String>) -> CoreError {
    CoreError::CorruptJournal {
        line,
        reason: reason.into(),
    }
}

fn parse_f64(s: &str, what: &str, line: usize) -> Result<f64, CoreError> {
    if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(corrupt(
            line,
            format!("snapshot {what} {s:?} is not a hex bit pattern of 1 to 16 digits"),
        ));
    }
    let bits = u64::from_str_radix(s, 16)
        .map_err(|_| corrupt(line, format!("snapshot {what} is not a hex bit pattern")))?;
    let v = f64::from_bits(bits);
    if v.is_nan() {
        return Err(corrupt(line, format!("snapshot {what} decodes to NaN")));
    }
    Ok(v)
}

fn parse_time(s: &str, what: &str, line: usize) -> Result<Time, CoreError> {
    let v = parse_f64(s, what, line)?;
    // lint: allow(L001) — exact sentinel check, -inf is Time::NEG_INFINITY's bit pattern
    if v == f64::NEG_INFINITY {
        return Err(corrupt(line, format!("snapshot {what} is -infinity")));
    }
    Ok(Time::new(v))
}

fn parse_uint<T: std::str::FromStr>(s: &str, what: &str, line: usize) -> Result<T, CoreError> {
    s.parse::<T>()
        .map_err(|_| corrupt(line, format!("snapshot {what} is not an unsigned integer")))
}

/// Parses one row; an empty slot field means the slot after `prev`.
fn parse_row(
    item: &str,
    prev: Option<usize>,
    jobs: usize,
    line: usize,
) -> Result<(usize, Row), CoreError> {
    let f: Vec<&str> = item.split(':').collect();
    if f.len() != 4 {
        return Err(corrupt(
            line,
            format!("snapshot row {item:?} has {} fields, expected 4", f.len()),
        ));
    }
    let i: usize = match (f[0], prev) {
        ("", Some(p)) => p + 1,
        ("", None) => return Err(corrupt(line, "snapshot's first row names no slot")),
        (slot, _) => parse_uint(slot, "row slot", line)?,
    };
    if prev.is_some_and(|p| p >= i) {
        return Err(corrupt(
            line,
            format!("snapshot row slot {i} is out of ascending order"),
        ));
    }
    if i >= jobs {
        return Err(corrupt(
            line,
            format!("snapshot row slot {i} out of range (jobs: {jobs})"),
        ));
    }
    let remaining = parse_f64(f[1], "remaining workload", line)?;
    let flags: u8 = parse_uint(f[2], "row flags", line)?;
    if flags & !FLAG_BITS != 0 {
        return Err(corrupt(
            line,
            format!("snapshot row flags {flags} set unknown bits"),
        ));
    }
    let o = f[3];
    let outcome = match (o.as_bytes().first(), o.get(1..).unwrap_or_default()) {
        (Some(b'N'), "") => JobOutcome::NotReleased,
        (Some(b'C'), at) => JobOutcome::Completed {
            at: parse_time(at, "completion time", line)?,
        },
        (Some(b'M'), "") => JobOutcome::Missed {
            remaining_workload: remaining,
        },
        (Some(b'M'), left) => JobOutcome::Missed {
            remaining_workload: parse_f64(left, "missed workload", line)?,
        },
        _ => {
            return Err(corrupt(
                line,
                format!("snapshot outcome {o:?} is not N, C<bits>, M or M<bits>"),
            ))
        }
    };
    Ok((
        i,
        Row {
            remaining,
            flags,
            outcome,
        },
    ))
}

/// Decodes one snapshot blob; `line` is the 1-based journal line of the
/// snapshot record, used to contextualise [`CoreError::CorruptJournal`].
/// The rows are the record's delta, not yet a full table.
fn decode(blob: &str, line: usize) -> Result<SnapshotImage<'_>, CoreError> {
    let magic = blob.split(';').next().unwrap_or_default();
    if magic != MAGIC {
        return Err(corrupt(
            line,
            format!("unsupported snapshot version {magic:?}; this build reads {MAGIC:?}"),
        ));
    }
    let sections: Vec<&str> = blob.splitn(SECTIONS, ';').collect();
    if sections.len() != SECTIONS {
        return Err(corrupt(
            line,
            format!(
                "snapshot has {} sections, expected {SECTIONS}",
                sections.len()
            ),
        ));
    }

    let k: Vec<&str> = sections[1].split(',').collect();
    if k.len() != KERNEL_FIELDS {
        return Err(corrupt(
            line,
            format!(
                "snapshot kernel section has {} fields, expected {KERNEL_FIELDS}",
                k.len()
            ),
        ));
    }
    // Fields in `encode`'s order; the struct literal evaluates in source
    // order, so each `f()` takes the next one.
    let mut k = k.into_iter();
    let mut f = || k.next().unwrap_or_default();
    let st = KernelState {
        now: parse_time(f(), "now", line)?,
        running: match f() {
            "-" => None,
            id => Some(JobId(parse_uint(id, "running job id", line)?)),
        },
        slice_start: parse_time(f(), "slice_start", line)?,
        slice_rem: parse_f64(f(), "slice_rem", line)?,
        done_at: parse_time(f(), "done_at", line)?,
        value: parse_f64(f(), "value", line)?,
        preemptions: parse_uint(f(), "preemptions", line)?,
        dispatches: parse_uint(f(), "dispatches", line)?,
        events_processed: parse_uint(f(), "events_processed", line)?,
        expired: parse_uint(f(), "expired", line)?,
        expired_value: parse_f64(f(), "expired_value", line)?,
        abandoned_count: parse_uint(f(), "abandoned_count", line)?,
        abandoned_value: parse_f64(f(), "abandoned_value", line)?,
        capacity_segment: parse_uint(f(), "capacity_segment", line)?,
        horizon: parse_time(f(), "horizon", line)?,
        capacity_armed: match f() {
            "0" => false,
            "1" => true,
            other => {
                return Err(corrupt(
                    line,
                    format!("snapshot capacity_armed is {other:?}, expected 0 or 1"),
                ))
            }
        },
        c_lo: parse_f64(f(), "c_lo", line)?,
        c_hi: parse_f64(f(), "c_hi", line)?,
        schedule: None,
        trajectory: None,
        aborted: None,
    };

    let mut queue = Vec::new();
    if !sections[2].is_empty() {
        for item in sections[2].split(',') {
            let f: Vec<&str> = item.split(':').collect();
            if f.len() != 5 {
                return Err(corrupt(
                    line,
                    format!(
                        "snapshot queue item {item:?} has {} fields, expected 5",
                        f.len()
                    ),
                ));
            }
            let t = parse_time(f[0], "event time", line)?;
            let a: u64 = parse_uint(f[2], "event field", line)?;
            let b: u64 = parse_uint(f[3], "event field", line)?;
            let seq: u64 = parse_uint(f[4], "event seq", line)?;
            let kind = match f[1] {
                "T" => EventKind::Timer {
                    job: JobId(a),
                    token: b,
                },
                "D" => EventKind::Deadline { job: JobId(a) },
                "X" => EventKind::CapacityChange,
                other => {
                    return Err(corrupt(
                        line,
                        format!("snapshot queue item has unknown kind code {other:?}"),
                    ))
                }
            };
            queue.push((t, kind, seq));
        }
    }
    let next_seq: u64 = parse_uint(sections[3], "next_seq", line)?;
    let jobs: usize = parse_uint(sections[4], "job count", line)?;

    let mut rows: Vec<(usize, Row)> = Vec::new();
    if !sections[5].is_empty() {
        for item in sections[5].split(',') {
            let prev = rows.last().map(|(i, _)| *i);
            rows.push(parse_row(item, prev, jobs, line)?);
        }
    }

    if let Some(j) = st.running {
        if j.index() >= jobs {
            return Err(corrupt(
                line,
                format!("snapshot running job {} out of range (jobs: {jobs})", j.0),
            ));
        }
    }

    Ok(SnapshotImage {
        st,
        queue,
        next_seq,
        jobs,
        rows,
        sched_blob: sections[6],
    })
}

/// Folds a journal's snapshot records, `(line, blob)` in journal order,
/// into the image to restore: the last record's kernel state, queue and
/// scheduler blob, with one table row per slot where later rows win.
/// `jobs` is the job count of the journal prefix the last record covers.
///
/// # Errors
/// [`CoreError::CorruptJournal`] when any record is malformed, covers
/// more jobs than `jobs` or fewer than an earlier record, when the last
/// one covers fewer than `jobs`, when `records` is empty, or when the
/// chain leaves a slot without a row.
pub(crate) fn restore<'a>(
    records: &[(usize, &'a str)],
    jobs: usize,
) -> Result<SnapshotImage<'a>, CoreError> {
    let mut table: Vec<Option<Row>> = Vec::new();
    let mut last: Option<(usize, SnapshotImage<'a>)> = None;
    for &(line, blob) in records {
        let mut image = decode(blob, line)?;
        if image.jobs < table.len() || image.jobs > jobs {
            return Err(corrupt(
                line,
                format!(
                    "snapshot covers {} jobs; earlier snapshots cover {} and the journal \
                     prefix has {jobs}",
                    image.jobs,
                    table.len()
                ),
            ));
        }
        table.resize(image.jobs, None);
        for (i, row) in image.rows.drain(..) {
            table[i] = Some(row);
        }
        last = Some((line, image));
    }
    let (line, mut image) = last.ok_or_else(|| corrupt(1, "no snapshot record to restore"))?;
    if image.jobs != jobs {
        return Err(corrupt(
            line,
            format!(
                "snapshot tables cover {} jobs but the journal prefix has {jobs}",
                image.jobs
            ),
        ));
    }
    image.rows = table
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            row.map(|r| (i, r)).ok_or_else(|| {
                corrupt(
                    line,
                    format!("no snapshot up to this one holds a row for job slot {i}"),
                )
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(image)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::flag as wsflag;

    fn populated() -> (KernelState, SimWorkspace) {
        let mut ws = SimWorkspace::new();
        ws.begin(0);
        for (i, p) in [3.0, 2.5, 4.0].iter().enumerate() {
            ws.grow_one(*p);
            ws.queue.push(
                Time::new(i as f64 + 1.0),
                EventKind::Deadline {
                    job: JobId(i as u64),
                },
            );
        }
        ws.queue.push(
            Time::new(1.5),
            EventKind::Timer {
                job: JobId(0),
                token: 42,
            },
        );
        ws.queue.push(Time::new(2.0), EventKind::CapacityChange);
        ws.set_flag(0, wsflag::RELEASED, true);
        ws.set_flag(1, wsflag::RELEASED, true);
        ws.set_flag(0, wsflag::RESOLVED, true);
        ws.set_flag(1, wsflag::STARTED, true);
        ws.set_flag(0, wsflag::ABANDONED, true);
        ws.set_flag(2, wsflag::QUARANTINED, true);
        ws.outcome.set(
            JobId(0),
            JobOutcome::Missed {
                remaining_workload: 1.25,
            },
        );
        let mut st = crate::engine::KernelState::new(crate::RunOptions::lean(), 1.0, 2.0);
        st.now = Time::new(1.25);
        st.running = Some(JobId(1));
        st.slice_start = Time::new(1.0);
        st.slice_rem = 2.75;
        st.done_at = Time::new(1.5);
        st.value = 12.5;
        st.preemptions = 3;
        st.dispatches = 5;
        st.events_processed = 11;
        st.expired = 1;
        st.expired_value = 4.0;
        st.capacity_segment = 1;
        st.horizon = Time::new(9.0);
        st.capacity_armed = true;
        (st, ws)
    }

    fn blob(st: &KernelState, ws: &SimWorkspace, rows: &[usize], sched: &str) -> String {
        let mut out = String::new();
        encode(&mut out, st, ws, rows.iter().copied(), sched);
        out
    }

    #[test]
    fn round_trip_is_byte_identical() {
        let (st, ws) = populated();
        let b = blob(&st, &ws, &[0, 1, 2], "dover2|I|3ff0000000000000||||-");
        let image = restore(&[(1, b.as_str())], 3).expect("fresh blob must decode");
        assert_eq!(image.jobs, 3);
        assert_eq!(image.sched_blob, "dover2|I|3ff0000000000000||||-");
        let mut ws2 = SimWorkspace::new();
        let st2 = image.apply(&mut ws2);
        let b2 = blob(&st2, &ws2, &[0, 1, 2], "dover2|I|3ff0000000000000||||-");
        assert_eq!(b, b2, "encode∘apply∘restore must be the identity");
        assert_eq!(ws2.flags, ws.flags);
        // Spot-check the queue restore preserved pop order and FIFO counter.
        let (q1, s1) = ws.queue.snapshot();
        let (q2, s2) = ws2.queue.snapshot();
        assert_eq!(q1, q2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn later_rows_win_and_every_slot_needs_one() {
        let (st, mut ws) = populated();
        // The first record covers slots 0 and 1; then slot 1 changes and
        // slot 2 arrives, and the second record carries only those two.
        ws.remaining.truncate(2);
        ws.flags.truncate(2);
        let first = blob(&st, &ws, &[0, 1], "s");
        let (_, full) = populated();
        let mut ws = full;
        ws.remaining[1] = 0.5;
        ws.set_flag(1, wsflag::RESOLVED, true);
        let second = blob(&st, &ws, &[1, 2], "s");
        let mut restored = SimWorkspace::new();
        restore(&[(2, first.as_str()), (9, second.as_str())], 3)
            .unwrap()
            .apply(&mut restored);
        assert_eq!(restored.remaining, ws.remaining);
        assert_eq!(restored.flags, ws.flags);
        // Without the first record, slot 0 has no row.
        match restore(&[(9, second.as_str())], 3) {
            Err(CoreError::CorruptJournal { line: 9, reason }) => {
                assert!(reason.contains("slot 0"), "{reason}")
            }
            other => panic!("expected a missing-row error, got {other:?}"),
        }
        // A record covering fewer jobs than an earlier one is corrupt, and
        // so is a chain that does not end at the journal prefix's count.
        assert!(matches!(
            restore(&[(9, second.as_str()), (12, first.as_str())], 3),
            Err(CoreError::CorruptJournal { line: 12, .. })
        ));
        assert!(matches!(
            restore(&[(2, first.as_str()), (9, second.as_str())], 4),
            Err(CoreError::CorruptJournal { line: 9, .. })
        ));
        assert!(matches!(
            restore(&[(2, first.as_str()), (9, second.as_str())], 2),
            Err(CoreError::CorruptJournal { line: 9, .. })
        ));
    }

    #[test]
    fn push_hx_matches_the_formatted_bit_pattern_and_round_trips() {
        for x in [
            0.0,
            -0.0,
            1.5,
            -3.25e-300,
            f64::INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ] {
            let mut out = String::from("x");
            push_hx(&mut out, x);
            assert_eq!(out, format!("x{:x}", x.to_bits()));
            assert_eq!(parse_f64(&out[1..], "x", 1).unwrap().to_bits(), x.to_bits());
        }
        for bad in ["", "+1", "0x1", "10000000000000000", "g"] {
            assert!(parse_f64(bad, "x", 1).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn empty_run_round_trips() {
        let mut ws = SimWorkspace::new();
        ws.begin(0);
        let st = crate::engine::KernelState::new(crate::RunOptions::lean(), 2.0, 2.0);
        let b = blob(&st, &ws, &[], "");
        let mut ws2 = SimWorkspace::new();
        let st2 = restore(&[(3, b.as_str())], 0).unwrap().apply(&mut ws2);
        assert_eq!(blob(&st2, &ws2, &[], ""), b);
        assert_eq!(st2.now, Time::ZERO);
        assert!(ws2.queue.is_empty());
    }

    #[test]
    fn corrupt_blobs_yield_typed_errors() {
        let (st, ws) = populated();
        let b = blob(&st, &ws, &[0, 1, 2], "sched");
        let cases = [
            "garbage".to_string(),
            b.replacen("csnap4", "csnap9", 1),
            b.replacen(":D:", ":Z:", 1), // unknown event kind code
            {
                // truncate the kernel section to 3 fields
                let mut s: Vec<&str> = b.split(';').collect();
                let short = s[1].split(',').take(3).collect::<Vec<_>>().join(",");
                s[1] = &short;
                s.join(";")
            },
            {
                // rows out of order
                let mut s: Vec<&str> = b.split(';').collect();
                let rows: Vec<&str> = s[5].split(',').rev().collect();
                let joined = rows.join(",");
                s[5] = &joined;
                s.join(";")
            },
            {
                // a row slot beyond the job count
                let mut s: Vec<&str> = b.split(';').collect();
                s[4] = "2";
                s.join(";")
            },
        ];
        for bad in &cases {
            match restore(&[(7, bad.as_str())], 3) {
                Err(CoreError::CorruptJournal { line, .. }) => assert_eq!(line, 7),
                other => panic!("expected CorruptJournal for {bad:?}, got {other:?}"),
            }
        }
        // Flipping one hex digit of a float still decodes (bits are bits) —
        // but a NaN pattern must be rejected.
        let nan = b.replacen(
            &format!("{:016x}", st.value.to_bits()),
            "7ff8000000000001",
            1,
        );
        assert!(matches!(
            restore(&[(2, nan.as_str())], 3),
            Err(CoreError::CorruptJournal { line: 2, .. })
        ));
    }

    #[test]
    fn older_snapshot_versions_are_rejected_by_name() {
        // csnap1 carried full tables; csnap2 had no `slice_rem` and queued
        // one completion event per dispatch; csnap3 queued releases and
        // carried a quarantine section.
        let csnap1 = "csnap1;0000000000000000,-,0,0000000000000000,0000000000000000,0,0,0,0,\
                      0000000000000000,0,0000000000000000,0,0000000000000000,0,\
                      3ff0000000000000,3ff0000000000000;;0;;,,,,;;;dover1|I|7ff0000000000000||||";
        let csnap2 = "csnap2;0,-,0,0,0,0,0,0,0,0,0,0,0,0,0,3ff0000000000000,3ff0000000000000;\
                      3ff0000000000000:C:0:1:0;1;1;0:4000000000000000:3:N;;dover2|I|0||||-";
        let csnap3 = "csnap3;0,-,0,0,0,0,0,0,1,0,0,0,0,0,4000000000000000,0,3ff0000000000000,\
                      3ff0000000000000;4000000000000000:D:0:0:1;2;1;0:4000000000000000:1:N;;\
                      dover2|I|0||||-";
        for (old, name) in [
            (csnap1, "\"csnap1\""),
            (csnap2, "\"csnap2\""),
            (csnap3, "\"csnap3\""),
        ] {
            match restore(&[(5, old)], 0) {
                Err(CoreError::CorruptJournal { line: 5, reason }) => {
                    assert!(reason.contains(name), "{reason}");
                    assert!(reason.contains("\"csnap4\""), "{reason}");
                }
                other => panic!("expected a version rejection, got {other:?}"),
            }
        }
    }
}
