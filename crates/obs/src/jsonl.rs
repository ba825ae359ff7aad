//! The flat-JSONL codec: one reusable writer and one borrowing splitter.
//!
//! Every line the workspace writes as JSONL — trace events, the streaming
//! service's journal records, bench rows — is a *flat* object: string keys,
//! values that are numbers, booleans or strings without escapes. That
//! restriction makes both directions cheap:
//!
//! * [`JsonlWriter`] renders a [`TraceEvent`] into one reused `String`
//!   (no allocation per line) and reuses the text of the previous event's
//!   time when the next event is stamped with the same bits — most events
//!   of a simulation share their instant with a neighbour. Callers also
//!   build their own records in the same buffer ([`JsonlWriter::record`]).
//! * [`split_flat_object`] walks a line and yields borrowed
//!   `(key, raw value)` pairs; nothing is copied and nothing is
//!   allocated. It scans bytes: every delimiter is ASCII, and ASCII
//!   whitespace is skipped a byte at a time, while a non-ASCII char hands
//!   the trim to `str::trim_start` / `trim_end`, so Unicode whitespace
//!   such as U+00A0 is trimmed exactly as `str::trim` does.
//!   [`FlatFields::slots`] drains a line into one slot per wanted key, so
//!   a reader needs no `Vec` per line. A seeded fuzz holds the scanner to
//!   the `str`-method splitter it replaced, `Err` text included.
//!
//! Numbers go through [`push_u64`] and [`push_f64`], which write digits
//! without `core::fmt`: digit pairs from a table, and Ryu's shortest
//! round-trip digits laid out exactly as `f64`'s `Display` lays them out
//! (ties rounded up, as std does). The text is byte-identical to
//! `format!("{x}")` — `tests/number_text.rs` and a 1e8-pattern release
//! sweep hold it to that — so `parse(render(x))` is the identity and every
//! golden and digest is unchanged. The service's own records use the two
//! writers directly.

pub use crate::decimal::{push_f64, push_u64};
use crate::event::TraceEvent;
use cloudsched_core::JobId;

/// Renders JSONL lines into one reused buffer. See the module docs.
#[derive(Debug, Default, Clone)]
pub struct JsonlWriter {
    line: String,
    /// Bit pattern of the last rendered event time, and its text.
    t_bits: Option<u64>,
    t_text: String,
}

impl JsonlWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonlWriter::default()
    }

    /// Renders `event` as one JSONL line (no trailing newline) and returns
    /// it. The text is byte-identical to [`TraceEvent::to_jsonl`] and lives
    /// until the writer's next call.
    pub fn event(&mut self, event: &TraceEvent) -> &str {
        let t = event.time().as_f64();
        if self.t_bits != Some(t.to_bits()) {
            self.t_text.clear();
            push_f64(&mut self.t_text, t);
            self.t_bits = Some(t.to_bits());
        }
        let out = &mut self.line;
        out.clear();
        out.push_str("{\"t\":");
        out.push_str(&self.t_text);
        str_field(out, "ev", event.kind());
        match *event {
            TraceEvent::Admit { job, .. }
            | TraceEvent::Resume { job, .. }
            | TraceEvent::ClaxityZero { job, .. }
            | TraceEvent::Readmit { job, .. } => job_field(out, job),
            TraceEvent::Arrival { job, laxity, .. } => {
                job_field(out, job);
                f64_field(out, "laxity", laxity);
            }
            TraceEvent::Preempt { job, remaining, .. } => {
                job_field(out, job);
                f64_field(out, "remaining", remaining);
            }
            TraceEvent::Complete { job, value, .. } => {
                job_field(out, job);
                f64_field(out, "value", value);
            }
            TraceEvent::Expire {
                job,
                remaining,
                value,
                ..
            }
            | TraceEvent::Abandon {
                job,
                remaining,
                value,
                ..
            } => {
                job_field(out, job);
                f64_field(out, "remaining", remaining);
                f64_field(out, "value", value);
            }
            TraceEvent::SupplementEnqueue { job, depth, .. }
            | TraceEvent::SupplementRescue { job, depth, .. } => {
                job_field(out, job);
                uint_field(out, "depth", depth as u64);
            }
            TraceEvent::QueueDepth { queue, depth, .. } => {
                str_field(out, "queue", queue.as_str());
                uint_field(out, "depth", depth as u64);
            }
            TraceEvent::CapacityChange { rate, segment, .. } => {
                f64_field(out, "rate", rate);
                uint_field(out, "segment", segment as u64);
            }
            TraceEvent::FaultDetected { job, fault, .. }
            | TraceEvent::Quarantine { job, fault, .. } => {
                job_field(out, job);
                str_field(out, "fault", fault.as_str());
            }
            TraceEvent::SlaViolation { rate, c_lo, .. } => {
                f64_field(out, "rate", rate);
                f64_field(out, "c_lo", c_lo);
            }
            TraceEvent::CloReestimate { from, to, .. } => {
                f64_field(out, "from", from);
                f64_field(out, "to", to);
            }
            TraceEvent::OracleDropout { misses, .. } => uint_field(out, "misses", misses as u64),
            TraceEvent::OracleRecover { down_for, .. } => f64_field(out, "down_for", down_for),
            TraceEvent::PolicyAbort { fault, .. } => str_field(out, "fault", fault.as_str()),
            TraceEvent::Decision {
                job,
                action,
                laxity,
                density,
                rank,
                flip,
                ..
            } => {
                job_field(out, job);
                str_field(out, "act", action.as_str());
                f64_field(out, "laxity", laxity);
                f64_field(out, "density", density);
                uint_field(out, "rank", rank as u64);
                out.push_str(if flip {
                    ",\"flip\":true"
                } else {
                    ",\"flip\":false"
                });
            }
        }
        out.push('}');
        &self.line
    }

    /// Clears the buffer and hands it out for a caller-built record; read
    /// the result back with [`JsonlWriter::line`].
    pub fn record(&mut self) -> &mut String {
        self.line.clear();
        &mut self.line
    }

    /// The last line rendered or built.
    pub fn line(&self) -> &str {
        &self.line
    }

    /// Consumes the writer, returning the last line.
    pub fn into_line(self) -> String {
        self.line
    }
}

fn key(out: &mut String, key: &str) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
}

fn job_field(out: &mut String, job: JobId) {
    uint_field(out, "job", job.0);
}

fn uint_field(out: &mut String, name: &str, n: u64) {
    key(out, name);
    push_u64(out, n);
}

fn f64_field(out: &mut String, name: &str, x: f64) {
    key(out, name);
    push_f64(out, x);
}

fn str_field(out: &mut String, name: &str, s: &str) {
    key(out, name);
    out.push('"');
    out.push_str(s);
    out.push('"');
}

/// Splits a flat JSON object `{"k":1,"s":"text",…}` into borrowed
/// `(key, raw value)` pairs, in line order.
///
/// Keys must be quoted and come back without their quotes. Values come
/// back as written, whitespace-trimmed: a string keeps its quotes (strip
/// them with [`unquote`]), so a caller can tell `"5"` from `5`. A string
/// may hold commas and colons but no `"` — the encoders never escape.
///
/// # Errors
/// A line that is not wrapped in braces; each malformed field surfaces as
/// an `Err` item, after which the iterator ends.
pub fn split_flat_object(line: &str) -> Result<FlatFields<'_>, String> {
    let line = trim_end(trim_start(line));
    let body = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("record is not a flat JSON object")?;
    Ok(FlatFields {
        rest: body,
        // `{}` is an object with no fields.
        done: trim_start(body).is_empty(),
    })
}

/// The iterator [`split_flat_object`] returns.
#[derive(Debug, Clone)]
pub struct FlatFields<'a> {
    rest: &'a str,
    done: bool,
}

impl<'a> FlatFields<'a> {
    /// Drains the fields into one slot per name in `keys`: slot `i` holds
    /// the raw value of the first field named `keys[i]`, or `None`. Fields
    /// with other names are checked and skipped.
    ///
    /// # Errors
    /// The first malformed field's error, as the iterator yields it.
    pub fn slots<const N: usize>(self, keys: [&str; N]) -> Result<[Option<&'a str>; N], String> {
        let mut slots = [None; N];
        for field in self {
            let (key, value) = field?;
            if let Some(i) = keys.iter().position(|&k| k == key) {
                slots[i].get_or_insert(value);
            }
        }
        Ok(slots)
    }

    /// Scans one field off the front of `s` (already trimmed at its
    /// start). Every delimiter is an ASCII byte, so each index it cuts at
    /// is a char boundary.
    fn field(&mut self, s: &'a str) -> Result<(&'a str, &'a str), String> {
        let key_end = match s.as_bytes().first() {
            Some(b'"') => find(s, 1, b'"'),
            _ => None,
        }
        .ok_or_else(|| format!("field `{s}` has no quoted key"))?;
        let key = &s[1..key_end];
        if key.is_empty() {
            return Err("record has an empty key".into());
        }
        let after = trim_start(&s[key_end + 1..]);
        if after.as_bytes().first() != Some(&b':') {
            return Err(format!("field `{key}` has no key/value colon"));
        }
        let after = trim_start(&after[1..]);
        if after.as_bytes().first() == Some(&b'"') {
            let end = find(after, 1, b'"')
                .ok_or_else(|| format!("field `{key}` has an unterminated string"))?;
            let tail = trim_start(&after[end + 1..]);
            match tail.as_bytes().first() {
                None => self.done = true,
                Some(b',') => self.rest = &tail[1..],
                Some(_) => return Err(format!("field `{key}` is followed by `{tail}`")),
            }
            return Ok((key, &after[..=end]));
        }
        let value = match find(after, 0, b',') {
            Some(comma) => {
                self.rest = &after[comma + 1..];
                &after[..comma]
            }
            None => {
                self.done = true;
                after
            }
        };
        let value = trim_end(value);
        if value.is_empty() {
            return Err(format!("field `{key}` has no value"));
        }
        Ok((key, value))
    }
}

impl<'a> Iterator for FlatFields<'a> {
    type Item = Result<(&'a str, &'a str), String>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let field = self.field(trim_start(self.rest));
        if field.is_err() {
            self.done = true;
        }
        Some(field)
    }
}

/// The index of the first `byte` in `s` at or after `from`.
fn find(s: &str, from: usize, byte: u8) -> Option<usize> {
    s.as_bytes()[from..]
        .iter()
        .position(|&b| b == byte)
        .map(|i| from + i)
}

/// `true` for the ASCII bytes `char::is_whitespace` accepts (tab, line
/// feed, vertical tab, form feed, carriage return and space).
fn is_ascii_space(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// [`str::trim_start`], stepping over ASCII whitespace a byte at a time;
/// a non-ASCII char hands the rest to `str::trim_start`.
fn trim_start(s: &str) -> &str {
    match s.bytes().position(|b| !is_ascii_space(b)) {
        Some(i) if s.as_bytes()[i].is_ascii() => &s[i..],
        Some(i) => s[i..].trim_start(),
        None => "",
    }
}

/// [`str::trim_end`], the mirror of [`trim_start`].
fn trim_end(s: &str) -> &str {
    match s.bytes().rposition(|b| !is_ascii_space(b)) {
        Some(i) if s.as_bytes()[i].is_ascii() => &s[..=i],
        Some(i) => s[..=i].trim_end(),
        None => "",
    }
}

/// The text of a quoted string value from [`split_flat_object`], or `None`
/// when `raw` is not a string.
pub fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DecisionAction, FaultKind, QueueKind};
    use cloudsched_core::rng::Rng;
    use cloudsched_core::Time;

    /// One event of every kind, stamped at `t`.
    fn every_kind(t: Time) -> Vec<TraceEvent> {
        let j = JobId(12);
        vec![
            TraceEvent::Arrival {
                t,
                job: j,
                laxity: -0.0,
            },
            TraceEvent::Admit { t, job: j },
            TraceEvent::Resume { t, job: j },
            TraceEvent::Preempt {
                t,
                job: j,
                remaining: 0.1 + 0.2,
            },
            TraceEvent::Complete {
                t,
                job: j,
                value: 7.0,
            },
            TraceEvent::Expire {
                t,
                job: j,
                remaining: 1e-300,
                value: 2.5,
            },
            TraceEvent::Abandon {
                t,
                job: j,
                remaining: 4.0,
                value: f64::INFINITY,
            },
            TraceEvent::SupplementEnqueue {
                t,
                job: j,
                depth: 2,
            },
            TraceEvent::SupplementRescue {
                t,
                job: j,
                depth: 0,
            },
            TraceEvent::ClaxityZero { t, job: j },
            TraceEvent::QueueDepth {
                t,
                queue: QueueKind::Supplement,
                depth: 40,
            },
            TraceEvent::CapacityChange {
                t,
                rate: 35.0,
                segment: 2,
            },
            TraceEvent::FaultDetected {
                t,
                job: j,
                fault: FaultKind::Duplicate,
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
                job: JobId(u64::MAX),
                action: DecisionAction::Park,
                laxity: -0.5,
                density: 3.0,
                rank: 0,
                flip: false,
            },
        ]
    }

    /// The `format!`-per-line codec the writer replaced, kept as the
    /// byte-identity oracle.
    fn reference(ev: &TraceEvent) -> String {
        let t = ev.time().as_f64();
        match *ev {
            TraceEvent::Arrival { job, laxity, .. } => {
                format!("{{\"t\":{t},\"ev\":\"arrival\",\"job\":{},\"laxity\":{laxity}}}", job.0)
            }
            TraceEvent::Admit { job, .. } => {
                format!("{{\"t\":{t},\"ev\":\"admit\",\"job\":{}}}", job.0)
            }
            TraceEvent::Resume { job, .. } => {
                format!("{{\"t\":{t},\"ev\":\"resume\",\"job\":{}}}", job.0)
            }
            TraceEvent::Preempt { job, remaining, .. } => format!(
                "{{\"t\":{t},\"ev\":\"preempt\",\"job\":{},\"remaining\":{remaining}}}",
                job.0
            ),
            TraceEvent::Complete { job, value, .. } => format!(
                "{{\"t\":{t},\"ev\":\"complete\",\"job\":{},\"value\":{value}}}",
                job.0
            ),
            TraceEvent::Expire {
                job,
                remaining,
                value,
                ..
            } => format!(
                "{{\"t\":{t},\"ev\":\"expire\",\"job\":{},\"remaining\":{remaining},\"value\":{value}}}",
                job.0
            ),
            TraceEvent::Abandon {
                job,
                remaining,
                value,
                ..
            } => format!(
                "{{\"t\":{t},\"ev\":\"abandon\",\"job\":{},\"remaining\":{remaining},\"value\":{value}}}",
                job.0
            ),
            TraceEvent::SupplementEnqueue { job, depth, .. } => format!(
                "{{\"t\":{t},\"ev\":\"supp_enqueue\",\"job\":{},\"depth\":{depth}}}",
                job.0
            ),
            TraceEvent::SupplementRescue { job, depth, .. } => format!(
                "{{\"t\":{t},\"ev\":\"supp_rescue\",\"job\":{},\"depth\":{depth}}}",
                job.0
            ),
            TraceEvent::ClaxityZero { job, .. } => {
                format!("{{\"t\":{t},\"ev\":\"claxity_zero\",\"job\":{}}}", job.0)
            }
            TraceEvent::QueueDepth { queue, depth, .. } => format!(
                "{{\"t\":{t},\"ev\":\"queue_depth\",\"queue\":\"{}\",\"depth\":{depth}}}",
                queue.as_str()
            ),
            TraceEvent::CapacityChange { rate, segment, .. } => format!(
                "{{\"t\":{t},\"ev\":\"capacity\",\"rate\":{rate},\"segment\":{segment}}}"
            ),
            TraceEvent::FaultDetected { job, fault, .. } => format!(
                "{{\"t\":{t},\"ev\":\"fault\",\"job\":{},\"fault\":\"{}\"}}",
                job.0,
                fault.as_str()
            ),
            TraceEvent::Quarantine { job, fault, .. } => format!(
                "{{\"t\":{t},\"ev\":\"quarantine\",\"job\":{},\"fault\":\"{}\"}}",
                job.0,
                fault.as_str()
            ),
            TraceEvent::Readmit { job, .. } => {
                format!("{{\"t\":{t},\"ev\":\"readmit\",\"job\":{}}}", job.0)
            }
            TraceEvent::SlaViolation { rate, c_lo, .. } => format!(
                "{{\"t\":{t},\"ev\":\"sla_violation\",\"rate\":{rate},\"c_lo\":{c_lo}}}"
            ),
            TraceEvent::CloReestimate { from, to, .. } => format!(
                "{{\"t\":{t},\"ev\":\"clo_reestimate\",\"from\":{from},\"to\":{to}}}"
            ),
            TraceEvent::OracleDropout { misses, .. } => {
                format!("{{\"t\":{t},\"ev\":\"oracle_down\",\"misses\":{misses}}}")
            }
            TraceEvent::OracleRecover { down_for, .. } => {
                format!("{{\"t\":{t},\"ev\":\"oracle_up\",\"down_for\":{down_for}}}")
            }
            TraceEvent::PolicyAbort { fault, .. } => format!(
                "{{\"t\":{t},\"ev\":\"policy_abort\",\"fault\":\"{}\"}}",
                fault.as_str()
            ),
            TraceEvent::Decision {
                job,
                action,
                laxity,
                density,
                rank,
                flip,
                ..
            } => format!(
                "{{\"t\":{t},\"ev\":\"decision\",\"job\":{},\"act\":\"{}\",\"laxity\":{laxity},\"density\":{density},\"rank\":{rank},\"flip\":{flip}}}",
                job.0,
                action.as_str()
            ),
        }
    }

    #[test]
    fn writer_matches_to_jsonl_for_every_kind_and_time() {
        // One writer across every time, so each kind is rendered both
        // right after a time change and as part of a co-timed run.
        let times = [0.0, -0.0, f64::INFINITY, 1.5, 0.1 + 0.2, 1e21, -2.0];
        let mut w = JsonlWriter::new();
        for &t in &times {
            for ev in every_kind(Time::new(t)) {
                let line = w.event(&ev).to_string();
                assert_eq!(line, reference(&ev), "{ev:?}");
                assert_eq!(line, ev.to_jsonl(), "{ev:?}");
            }
        }
    }

    #[test]
    fn writer_reuses_co_timed_text_only_for_identical_bits() {
        // Runs of co-timed events, and `0.0` / `-0.0`, which compare equal
        // but differ in bits and in text.
        let mut w = JsonlWriter::new();
        let seq = [
            0.0,
            0.0,
            0.0,
            -0.0,
            -0.0,
            0.0,
            f64::INFINITY,
            f64::INFINITY,
            2.0,
            2.0,
            0.0,
        ];
        for (i, &t) in seq.iter().enumerate() {
            let ev = TraceEvent::Admit {
                t: Time::new(t),
                job: JobId(i as u64),
            };
            let line = w.event(&ev).to_string();
            assert_eq!(line, reference(&ev));
            assert!(line.starts_with(&format!("{{\"t\":{t},")), "{line}");
        }
    }

    #[test]
    fn record_reuses_the_line_buffer() {
        let mut w = JsonlWriter::new();
        w.event(&TraceEvent::Admit {
            t: Time::new(1.0),
            job: JobId(0),
        });
        let out = w.record();
        assert!(out.is_empty());
        out.push_str("{\"svc\":\"x\",\"seq\":");
        push_u64(out, 0);
        out.push('}');
        assert_eq!(w.line(), "{\"svc\":\"x\",\"seq\":0}");
    }

    #[test]
    fn splitter_borrows_keys_and_raw_values() {
        let line = "{ \"svc\" : \"snapshot\",\"seq\":4, \"blob\":\"csnap2;a,b:c;|d\" }";
        let fields: Vec<_> = split_flat_object(line)
            .unwrap()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            fields,
            vec![
                ("svc", "\"snapshot\""),
                ("seq", "4"),
                ("blob", "\"csnap2;a,b:c;|d\"")
            ]
        );
        assert_eq!(unquote(fields[2].1), Some("csnap2;a,b:c;|d"));
        assert_eq!(unquote("4"), None);
        assert_eq!(unquote("\""), None);
        assert_eq!(split_flat_object("{}").unwrap().count(), 0);
    }

    #[test]
    fn splitter_rejects_malformed_objects() {
        assert!(split_flat_object("not json").is_err());
        for bad in [
            "{\"a\":1,}",
            "{a:1}",
            "{\"a\"1}",
            "{\"a\":}",
            "{\"\":1}",
            "{\"a\":\"open}",
            "{\"a\":\"x\"y,\"b\":1}",
        ] {
            let fields: Result<Vec<_>, _> = split_flat_object(bad).unwrap().collect();
            assert!(fields.is_err(), "{bad}");
        }
    }

    #[test]
    fn slots_keep_the_first_value_of_each_named_key() {
        let line = "{\"a\":1,\"skip\":\"x,y\",\"b\":\"s\",\"a\":2}";
        let slots = split_flat_object(line).unwrap().slots(["a", "b", "c"]);
        assert_eq!(slots, Ok([Some("1"), Some("\"s\""), None]));
        // A malformed field after the named ones still fails the line.
        let bad = split_flat_object("{\"a\":1,\"b\":}").unwrap().slots(["a"]);
        assert_eq!(bad, Err("field `b` has no value".to_string()));
    }

    /// The `str`-method splitter the byte scanner replaced, kept as the
    /// equivalence oracle.
    struct OldFields<'a> {
        rest: &'a str,
        done: bool,
    }

    fn old_split_flat_object(line: &str) -> Result<OldFields<'_>, String> {
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("record is not a flat JSON object")?;
        Ok(OldFields {
            rest: body,
            done: body.trim().is_empty(),
        })
    }

    impl<'a> OldFields<'a> {
        fn field(&mut self, s: &'a str) -> Result<(&'a str, &'a str), String> {
            let (key, after) = s
                .strip_prefix('"')
                .and_then(|s| s.split_once('"'))
                .ok_or_else(|| format!("field `{s}` has no quoted key"))?;
            if key.is_empty() {
                return Err("record has an empty key".into());
            }
            let after = after
                .trim_start()
                .strip_prefix(':')
                .ok_or_else(|| format!("field `{key}` has no key/value colon"))?
                .trim_start();
            let (value, tail) = match after.strip_prefix('"') {
                Some(inner) => {
                    let end = inner
                        .find('"')
                        .ok_or_else(|| format!("field `{key}` has an unterminated string"))?;
                    after.split_at(end + 2)
                }
                None => after.split_at(after.find(',').unwrap_or(after.len())),
            };
            let value = value.trim_end();
            if value.is_empty() {
                return Err(format!("field `{key}` has no value"));
            }
            let tail = tail.trim_start();
            if tail.is_empty() {
                self.done = true;
            } else {
                self.rest = tail
                    .strip_prefix(',')
                    .ok_or_else(|| format!("field `{key}` is followed by `{tail}`"))?;
            }
            Ok((key, value))
        }
    }

    impl<'a> Iterator for OldFields<'a> {
        type Item = Result<(&'a str, &'a str), String>;

        fn next(&mut self) -> Option<Self::Item> {
            if self.done {
                return None;
            }
            let field = self.field(self.rest.trim_start());
            if field.is_err() {
                self.done = true;
            }
            Some(field)
        }
    }

    /// Tokens the fuzz inserts: the delimiters, ASCII and Unicode
    /// whitespace (U+0085, U+00A0, U+2003, U+3000), characters that look
    /// like whitespace but are not (U+001C, U+200B), and multibyte letters.
    const ALPHABET: [&str; 26] = [
        "\"", "{", "}", ":", ",", " ", "\t", "\r", "\n", "\u{b}", "\u{c}", "\u{1c}", "\u{85}",
        "\u{a0}", "\u{2003}", "\u{3000}", "\u{200b}", "é", "中", "😀", "a", "1", ".", "-", "\"\"",
        "\":\"",
    ];

    /// Well-formed lines of every shape the workspace writes.
    fn fuzz_seeds() -> Vec<String> {
        let mut seeds: Vec<String> = every_kind(Time::new(2.5))
            .iter()
            .map(TraceEvent::to_jsonl)
            .collect();
        seeds.extend(
            [
                "{\"r\":0.5,\"d\":3.25,\"p\":1,\"v\":2}",
                "{\"svc\":\"arrival\",\"seq\":7,\"r\":0.5,\"d\":3.25,\"p\":1,\"v\":2}",
                "{\"svc\":\"decision\",\"seq\":0,\"job\":0,\"admit\":true,\"reason\":\"admit\"}",
                "{ \"svc\" : \"snapshot\",\"seq\":4, \"blob\":\"csnap2;a,b:c;|d\" }",
                "{\"bench\":\"fleet\",\"machines\":64,\"digest\":\"0123456789abcdef\"}",
                "{}",
                "",
            ]
            .map(String::from),
        );
        seeds
    }

    /// A char boundary of `s` drawn uniformly from its chars' starts and
    /// its end.
    fn boundary(s: &str, rng: &mut impl Rng) -> usize {
        let n = s.chars().count();
        s.char_indices()
            .map(|(i, _)| i)
            .chain([s.len()])
            .nth(rng.next_index(n + 1))
            .unwrap_or(s.len())
    }

    /// One to four random edits of a seed line: insert a token, delete a
    /// char or replace a char with a token.
    fn mutate(seed: &str, rng: &mut impl Rng, out: &mut String) {
        out.clear();
        out.push_str(seed);
        for _ in 0..=rng.next_index(4) {
            let at = boundary(out, rng);
            let token = ALPHABET[rng.next_index(ALPHABET.len())];
            let len = out[at..].chars().next().map_or(0, char::len_utf8);
            match rng.next_index(3) {
                0 => out.insert_str(at, token),
                1 => out.replace_range(at..at + len, ""),
                _ => out.replace_range(at..at + len, token),
            }
        }
    }

    /// Asserts the scanner and the oracle agree on `line`: the same
    /// top-level result, then the same items, errors included, and the
    /// same first-occurrence slots.
    fn assert_same_split(line: &str) {
        let new = split_flat_object(line).map(|f| f.collect::<Vec<_>>());
        let old = old_split_flat_object(line).map(|f| f.collect::<Vec<_>>());
        assert_eq!(new, old, "{line:?}");
        let keys = ["t", "ev", "r", "svc", "a", "é"];
        let slots = split_flat_object(line).and_then(|f| f.slots(keys));
        let old_slots = old_split_flat_object(line).and_then(|f| {
            let mut slots = [None; 6];
            for field in f {
                let (k, v) = field?;
                if let Some(i) = keys.iter().position(|&name| name == k) {
                    slots[i].get_or_insert(v);
                }
            }
            Ok(slots)
        });
        assert_eq!(slots, old_slots, "{line:?}");
    }

    fn fuzz_splitter(seed: u64, lines: u64) {
        use cloudsched_core::rng::Pcg32;
        let seeds = fuzz_seeds();
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut line = String::new();
        for _ in 0..lines {
            mutate(&seeds[rng.next_index(seeds.len())], &mut rng, &mut line);
            assert_same_split(&line);
        }
    }

    #[test]
    fn splitter_matches_the_oracle_on_edge_lines() {
        for seed in fuzz_seeds() {
            assert_same_split(&seed);
        }
        for line in [
            "{",
            "}",
            "{}}",
            "{{}",
            " \u{a0}{ \u{2003}}\u{85}",
            "{\"a\"\u{a0}:\u{2003}1\u{a0}}",
            "{\"a\":1\u{200b}}",
            "{\"a\":1\u{1c}}",
            "{\"a\":\"x\"\u{3000},\u{b}\"b\":2\u{c}}",
            "{\"é\":\"中\",\"😀\":-1.5}",
            "{\"a\":1,}",
            "{\"a\":,\"b\":1}",
            "{\"a\":\"\"}",
            "{\"\":1}",
            "{\"a\":\"open}",
            "{\"a\":\"x\"y}",
        ] {
            assert_same_split(line);
        }
    }

    #[test]
    fn splitter_matches_the_oracle_on_1e5_mutated_lines() {
        fuzz_splitter(0x5eed_f1a7, 100_000);
    }

    /// 1e7 more mutated lines; run with
    /// `cargo test --release -p cloudsched-obs -- --ignored` (≈1 min).
    #[test]
    #[ignore = "release-mode sweep of 1e7 mutated lines"]
    fn splitter_matches_the_oracle_on_1e7_mutated_lines() {
        fuzz_splitter(0x5eed_f1a8, 10_000_000);
    }
}
