//! Snapshot codec for the streaming admission service.
//!
//! A snapshot is a byte-deterministic, ASCII-only image of everything the
//! kernel needs to resume a streaming run at a *quiescent point* (between
//! arrivals, with the scratch buffers drained): the scalar
//! [`KernelState`], the per-job workspace tables, the pending event queue
//! (including its FIFO tie-break counter) and the scheduler's own opaque
//! state blob. Jobs, admission decisions and the admission book are *not*
//! in the image — recovery rebuilds them by folding the journal's service
//! records, which the WAL discipline guarantees are durable up to the
//! snapshot.
//!
//! Format: sections joined by `;` — a character that never occurs inside
//! any section (floats are hex bit patterns, the scheduler blob's grammar
//! uses only `|`, `,`, `:` and alphanumerics). The scheduler blob is the
//! final section so it is recovered with a bounded `splitn`, keeping the
//! codec robust to future scheduler-blob grammars. All `f64` values are
//! encoded as the 16-hex-digit big-endian bit pattern (`{:016x}` of
//! `to_bits`), so restore is bit-exact and replay after restore is
//! byte-identical to an uninterrupted run.
//!
//! Every malformed input maps to [`CoreError::CorruptJournal`] with the
//! journal line carrying the snapshot — never a panic: journals cross a
//! crash boundary and must be treated as untrusted input.

use crate::engine::KernelState;
use crate::event::EventKind;
use crate::workspace::{flag as wsflag, SimWorkspace};
use cloudsched_core::{CoreError, JobId, JobOutcome, Time};

/// Magic tag of snapshot format v1.
const MAGIC: &str = "csnap1";
/// Number of `;`-separated sections (scheduler blob last).
const SECTIONS: usize = 9;
/// Scalar fields in the kernel-state section.
const KERNEL_FIELDS: usize = 17;

fn hx(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Appends `hx(x)` to `out` without an intermediate allocation: the
/// per-job sections hold two floats per job, so this is the encoder's
/// inner loop.
fn push_hx(out: &mut String, x: f64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let bits = x.to_bits();
    for shift in (0..16).rev() {
        out.push(char::from(DIGITS[((bits >> (shift * 4)) & 0xf) as usize]));
    }
}

/// A decoded snapshot, ready to be applied onto a workspace.
#[derive(Debug, Clone)]
pub(crate) struct SnapshotImage {
    st: KernelState,
    queue: Vec<(Time, EventKind, u64)>,
    next_seq: u64,
    remaining: Vec<f64>,
    flags: [Vec<bool>; 5],
    quarantine_pending: Vec<usize>,
    outcome: Vec<JobOutcome>,
    /// The scheduler's own state blob, to hand to
    /// [`crate::Scheduler::restore_state`].
    pub(crate) sched_blob: String,
}

impl SnapshotImage {
    /// Number of job slots in the image.
    pub(crate) fn jobs(&self) -> usize {
        self.remaining.len()
    }

    /// Writes the image into `ws` (replacing its contents) and returns the
    /// kernel state to resume from.
    pub(crate) fn apply(self, ws: &mut SimWorkspace) -> KernelState {
        ws.begin(0);
        ws.remaining.extend_from_slice(&self.remaining);
        let [rel, res, sta, aba, qua] = &self.flags;
        ws.load_flag_columns([rel, res, sta, aba, qua]);
        for i in self.quarantine_pending {
            ws.quarantine_pending.insert(i);
        }
        ws.outcome.reset(self.remaining.len());
        for (i, o) in self.outcome.iter().enumerate() {
            ws.outcome.set(JobId(i as u64), *o);
        }
        ws.queue.restore(self.queue, self.next_seq);
        self.st
    }
}

/// Serialises a quiescent streaming kernel into the snapshot blob.
///
/// The caller (the service) guarantees quiescence: lean options (no
/// schedule / trajectory recording), no pending abort, scratch buffers
/// drained.
pub(crate) fn encode(st: &KernelState, ws: &SimWorkspace, sched_blob: &str) -> String {
    debug_assert!(
        st.schedule.is_none() && st.trajectory.is_none() && st.aborted.is_none(),
        "snapshots are only taken at quiescent points of lean streaming runs"
    );
    debug_assert!(
        !sched_blob.contains(';'),
        "scheduler blobs must stay out of the section separator's alphabet"
    );
    let kernel = [
        hx(st.now.as_f64()),
        st.running.map_or("-".into(), |j| j.0.to_string()),
        st.epoch.to_string(),
        hx(st.slice_start.as_f64()),
        hx(st.value),
        st.preemptions.to_string(),
        st.dispatches.to_string(),
        st.events_processed.to_string(),
        st.expired.to_string(),
        hx(st.expired_value),
        st.abandoned_count.to_string(),
        hx(st.abandoned_value),
        st.capacity_segment.to_string(),
        hx(st.horizon.as_f64()),
        if st.capacity_armed { "1" } else { "0" }.to_string(),
        hx(st.c_lo),
        hx(st.c_hi),
    ]
    .join(",");

    let (events, next_seq) = ws.queue.snapshot();
    let queue = events
        .iter()
        .map(|(t, kind, seq)| {
            let (code, a, b) = match *kind {
                EventKind::Completion { job, epoch } => ('C', job.0, epoch),
                EventKind::Timer { job, token } => ('T', job.0, token),
                EventKind::Release { job } => ('R', job.0, 0),
                EventKind::Deadline { job } => ('D', job.0, 0),
                EventKind::CapacityChange => ('X', 0, 0),
            };
            format!("{}:{code}:{a}:{b}:{seq}", hx(t.as_f64()))
        })
        .collect::<Vec<_>>()
        .join(",");

    let mut remaining = String::with_capacity(17 * ws.remaining.len());
    for (i, r) in ws.remaining.iter().enumerate() {
        if i > 0 {
            remaining.push(',');
        }
        push_hx(&mut remaining, *r);
    }

    // The packed flag byte unpacks into the same five bit-string columns
    // format v1 has always used, so the blob bytes are unchanged.
    let bits = |mask: u8| -> String {
        ws.flag_column(mask)
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    };
    let flags = [
        bits(wsflag::RELEASED),
        bits(wsflag::RESOLVED),
        bits(wsflag::STARTED),
        bits(wsflag::ABANDONED),
        bits(wsflag::QUARANTINED),
    ]
    .join(",");

    let pending = ws
        .quarantine_pending
        .iter()
        .map(|i| i.to_string())
        .collect::<Vec<_>>()
        .join(":");

    let mut outcome = String::with_capacity(18 * ws.remaining.len());
    for i in 0..ws.remaining.len() {
        if i > 0 {
            outcome.push(',');
        }
        match ws.outcome.get(JobId(i as u64)) {
            JobOutcome::NotReleased => outcome.push('N'),
            JobOutcome::Completed { at } => {
                outcome.push('C');
                push_hx(&mut outcome, at.as_f64());
            }
            JobOutcome::Missed { remaining_workload } => {
                outcome.push('M');
                push_hx(&mut outcome, remaining_workload);
            }
        }
    }

    [
        MAGIC.to_string(),
        kernel,
        queue,
        next_seq.to_string(),
        remaining,
        flags,
        pending,
        outcome,
        sched_blob.to_string(),
    ]
    .join(";")
}

fn corrupt(line: usize, reason: impl Into<String>) -> CoreError {
    CoreError::CorruptJournal {
        line,
        reason: reason.into(),
    }
}

fn parse_f64(s: &str, what: &str, line: usize) -> Result<f64, CoreError> {
    let bits = u64::from_str_radix(s, 16)
        .map_err(|_| corrupt(line, format!("snapshot {what} is not a 16-hex bit pattern")))?;
    if s.len() != 16 {
        return Err(corrupt(
            line,
            format!("snapshot {what} must be 16 hex digits"),
        ));
    }
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

/// Decodes a snapshot blob; `line` is the 1-based journal line of the
/// snapshot record, used to contextualise [`CoreError::CorruptJournal`].
pub(crate) fn decode(blob: &str, line: usize) -> Result<SnapshotImage, CoreError> {
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
    if sections[0] != MAGIC {
        return Err(corrupt(
            line,
            format!("snapshot magic is {:?}, expected {MAGIC:?}", sections[0]),
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
    let running = if k[1] == "-" {
        None
    } else {
        Some(JobId(parse_uint::<u64>(k[1], "running job id", line)?))
    };
    let capacity_armed = match k[14] {
        "0" => false,
        "1" => true,
        other => {
            return Err(corrupt(
                line,
                format!("snapshot capacity_armed is {other:?}, expected 0 or 1"),
            ))
        }
    };
    let st = KernelState {
        now: parse_time(k[0], "now", line)?,
        running,
        epoch: parse_uint(k[2], "epoch", line)?,
        slice_start: parse_time(k[3], "slice_start", line)?,
        value: parse_f64(k[4], "value", line)?,
        preemptions: parse_uint(k[5], "preemptions", line)?,
        dispatches: parse_uint(k[6], "dispatches", line)?,
        events_processed: parse_uint(k[7], "events_processed", line)?,
        expired: parse_uint(k[8], "expired", line)?,
        expired_value: parse_f64(k[9], "expired_value", line)?,
        abandoned_count: parse_uint(k[10], "abandoned_count", line)?,
        abandoned_value: parse_f64(k[11], "abandoned_value", line)?,
        capacity_segment: parse_uint(k[12], "capacity_segment", line)?,
        horizon: parse_time(k[13], "horizon", line)?,
        capacity_armed,
        c_lo: parse_f64(k[15], "c_lo", line)?,
        c_hi: parse_f64(k[16], "c_hi", line)?,
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
                "C" => EventKind::Completion {
                    job: JobId(a),
                    epoch: b,
                },
                "T" => EventKind::Timer {
                    job: JobId(a),
                    token: b,
                },
                "R" => EventKind::Release { job: JobId(a) },
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

    let mut remaining = Vec::new();
    if !sections[4].is_empty() {
        for r in sections[4].split(',') {
            remaining.push(parse_f64(r, "remaining workload", line)?);
        }
    }
    let n = remaining.len();

    let flag_strs: Vec<&str> = sections[5].split(',').collect();
    if flag_strs.len() != 5 {
        return Err(corrupt(
            line,
            format!("snapshot has {} flag tables, expected 5", flag_strs.len()),
        ));
    }
    let mut flags: [Vec<bool>; 5] = Default::default();
    for (out, s) in flags.iter_mut().zip(&flag_strs) {
        if s.len() != n {
            return Err(corrupt(
                line,
                format!("snapshot flag table has {} entries, expected {n}", s.len()),
            ));
        }
        for c in s.chars() {
            out.push(match c {
                '0' => false,
                '1' => true,
                other => {
                    return Err(corrupt(
                        line,
                        format!("snapshot flag bit is {other:?}, expected 0 or 1"),
                    ))
                }
            });
        }
    }

    let mut quarantine_pending = Vec::new();
    if !sections[6].is_empty() {
        for s in sections[6].split(':') {
            let i: usize = parse_uint(s, "quarantine index", line)?;
            if i >= n {
                return Err(corrupt(
                    line,
                    format!("snapshot quarantine index {i} out of range (jobs: {n})"),
                ));
            }
            quarantine_pending.push(i);
        }
    }

    let mut outcome = Vec::new();
    if !sections[7].is_empty() {
        for s in sections[7].split(',') {
            outcome.push(match s.as_bytes().first() {
                Some(b'N') if s.len() == 1 => JobOutcome::NotReleased,
                Some(b'C') => JobOutcome::Completed {
                    at: parse_time(&s[1..], "completion time", line)?,
                },
                Some(b'M') => JobOutcome::Missed {
                    remaining_workload: parse_f64(&s[1..], "missed workload", line)?,
                },
                _ => {
                    return Err(corrupt(
                        line,
                        format!("snapshot outcome entry {s:?} is not N/C<bits>/M<bits>"),
                    ))
                }
            });
        }
    }
    if outcome.len() != n {
        return Err(corrupt(
            line,
            format!(
                "snapshot outcome table has {} entries, expected {n}",
                outcome.len()
            ),
        ));
    }
    if let Some(j) = st.running {
        if j.index() >= n {
            return Err(corrupt(
                line,
                format!("snapshot running job {} out of range (jobs: {n})", j.0),
            ));
        }
    }

    Ok(SnapshotImage {
        st,
        queue,
        next_seq,
        remaining,
        flags,
        quarantine_pending,
        outcome,
        sched_blob: sections[8].to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
            EventKind::Completion {
                job: JobId(1),
                epoch: 7,
            },
        );
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
        ws.quarantine_pending.insert(2);
        ws.outcome.set(
            JobId(0),
            JobOutcome::Missed {
                remaining_workload: 1.25,
            },
        );
        let mut st = crate::engine::KernelState::streaming(crate::RunOptions::lean(), 1.0, 2.0);
        st.now = Time::new(1.25);
        st.running = Some(JobId(1));
        st.epoch = 7;
        st.slice_start = Time::new(1.0);
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

    #[test]
    fn round_trip_is_byte_identical() {
        let (st, ws) = populated();
        let blob = encode(&st, &ws, "dover1|I|3ff0000000000000|||");
        let image = decode(&blob, 1).expect("fresh blob must decode");
        assert_eq!(image.jobs(), 3);
        assert_eq!(image.sched_blob, "dover1|I|3ff0000000000000|||");
        let mut ws2 = SimWorkspace::new();
        let st2 = image.apply(&mut ws2);
        let blob2 = encode(&st2, &ws2, "dover1|I|3ff0000000000000|||");
        assert_eq!(blob, blob2, "encode∘apply∘decode must be the identity");
        // Spot-check the queue restore preserved pop order and FIFO counter.
        let (q1, s1) = ws.queue.snapshot();
        let (q2, s2) = ws2.queue.snapshot();
        assert_eq!(q1, q2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn push_hx_matches_the_formatted_bit_pattern() {
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
            assert_eq!(out, format!("x{}", hx(x)));
        }
    }

    #[test]
    fn empty_run_round_trips() {
        let mut ws = SimWorkspace::new();
        ws.begin(0);
        let st = crate::engine::KernelState::streaming(crate::RunOptions::lean(), 2.0, 2.0);
        let blob = encode(&st, &ws, "");
        let mut ws2 = SimWorkspace::new();
        let st2 = decode(&blob, 3).unwrap().apply(&mut ws2);
        assert_eq!(encode(&st2, &ws2, ""), blob);
        assert_eq!(st2.now, Time::ZERO);
        assert!(ws2.queue.is_empty());
    }

    #[test]
    fn corrupt_blobs_yield_typed_errors() {
        let (st, ws) = populated();
        let blob = encode(&st, &ws, "sched");
        let cases = [
            "garbage".to_string(),
            blob.replacen("csnap1", "csnap9", 1),
            blob.replacen(":D:", ":Z:", 1), // unknown event kind code
            {
                // truncate the kernel section to 3 fields
                let mut s: Vec<&str> = blob.split(';').collect();
                let short = s[1].split(',').take(3).collect::<Vec<_>>().join(",");
                s[1] = &short;
                s.join(";")
            },
        ];
        for bad in &cases {
            match decode(bad, 7) {
                Err(CoreError::CorruptJournal { line, .. }) => assert_eq!(line, 7),
                other => panic!("expected CorruptJournal for {bad:?}, got {other:?}"),
            }
        }
        // Flipping one hex digit of a float still decodes (bits are bits) —
        // but a NaN pattern must be rejected.
        let nan = blob.replacen(
            &format!("{:016x}", st.value.to_bits()),
            "7ff8000000000001",
            1,
        );
        assert!(matches!(
            decode(&nan, 2),
            Err(CoreError::CorruptJournal { line: 2, .. })
        ));
    }
}
