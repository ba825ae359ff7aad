//! The one bench row codec behind every checked-in `BENCH_*.json` report.
//!
//! A report is a JSON array with one flat object per line:
//!
//! ```text
//! [
//!   {"bench":"<suite>","<field>":<value>,…},
//!   …
//! ]
//! ```
//!
//! Every row opens with `"bench"` naming its suite; the rest of the row is
//! laid out by that suite's static [`Schema`] — field names, order, types
//! and checks, the key rows are matched on, the metrics `bench-diff`
//! compares and the rule rows must agree on. [`render_report`], the strict
//! [`parse_report`] and `insight::benchdiff` read nothing but the schema,
//! so the kernel, sweep and fleet suites differ only in their measurement
//! code. `DESIGN.md` §10.2 tabulates the three schemas.

use std::fmt;

/// What a field holds, and the check [`parse_report`] applies to it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    /// Free text, e.g. a scheduler display name.
    Text,
    /// One word of a fixed vocabulary.
    OneOf(&'static [&'static str]),
    /// An FNV-1a 64 digest ([`fnv1a`]), written as 16 hex digits.
    Digest,
    /// A positive integer count.
    Count,
    /// Any unsigned integer (seeds, tallies).
    Uint,
    /// A finite, positive measurement, written with 3 decimals.
    Measure,
}

/// One field value: text for a text, vocabulary or digest field, an
/// integer for a count, a real for a measurement. `Display` writes the
/// JSON literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A JSON string.
    Text(String),
    /// A JSON integer.
    Int(u64),
    /// A JSON number with 3 decimals.
    Real(f64),
}

impl Value {
    /// The digest-field value of an FNV-1a state.
    pub(crate) fn digest(h: u64) -> Value {
        Value::Text(format!("{h:016x}"))
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Self {
        Value::Int(n)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Self {
        Value::Int(n as u64)
    }
}

impl From<f64> for Value {
    fn from(x: f64) -> Self {
        Value::Real(x)
    }
}

/// Formats one f64 for a report: fixed 3 decimal places, plenty for
/// nanosecond ratios and milliseconds, and diff-friendly.
fn fmt_f64(x: f64) -> String {
    format!("{x:.3}")
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Text(s) => write!(f, "\"{s}\""),
            Value::Int(n) => write!(f, "{n}"),
            Value::Real(x) => f.write_str(&fmt_f64(*x)),
        }
    }
}

/// FNV-1a 64 offset basis: the initial state of every digest field.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one u64 into an FNV-1a 64 state, byte by byte.
pub(crate) fn fnv1a(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Which direction of a diff metric counts as worse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Worse {
    /// A rise is worse (latency, wall time).
    Up,
    /// A drop is worse (throughput).
    Down,
}

/// The layout of one suite's rows.
pub struct Schema {
    /// Suite name: the `"bench"` value of every row.
    pub suite: &'static str,
    /// The fields after `"bench"`, in file order.
    pub(crate) fields: &'static [(&'static str, Kind)],
    /// The key `bench-diff` matches rows on.
    pub(crate) key: fn(&Row) -> String,
    /// A check across the fields of one row.
    pub(crate) rule: fn(&Row) -> Result<(), String>,
    /// The metrics `bench-diff` compares, in output order.
    pub metrics: &'static [(&'static str, Worse)],
    /// Fields every row must share with the first row of its group…
    pub(crate) agree_on: &'static [&'static str],
    /// …where a group is the rows with equal values of this field (the
    /// whole report when `None`).
    pub(crate) agree_within: Option<&'static str>,
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Schema").field(&self.suite).finish()
    }
}

impl Schema {
    /// Checks the cross-row agreement rule over a whole report.
    ///
    /// # Errors
    /// Names the first row that disagrees and the row it disagrees with.
    pub(crate) fn check_agreement(&self, rows: &[Row]) -> Result<(), String> {
        for r in rows {
            let anchor = rows
                .iter()
                .find(|a| self.agree_within.iter().all(|g| a.get(g) == r.get(g)))
                .expect("invariant: the search includes the row itself");
            if let Some(f) = self.agree_on.iter().find(|f| r.get(f) != anchor.get(f)) {
                return Err(format!(
                    "{f} mismatch: {} disagrees with {}",
                    r.key(),
                    anchor.key()
                ));
            }
        }
        Ok(())
    }
}

/// `BENCH_kernel.json`: one row per `(n, scheduler, queue)` cell.
pub static KERNEL_SCHEMA: Schema = Schema {
    suite: "kernel",
    fields: &[
        ("n", Kind::Count),
        ("scheduler", Kind::Text),
        ("ns_per_decision", Kind::Measure),
        ("wall_ms", Kind::Measure),
        ("seed", Kind::Uint),
        ("queue", Kind::OneOf(&["flat", "heap"])),
    ],
    // Heap rows get their own key, so a comparison report diffs cleanly
    // against a flat-only one (heap rows fall out as only-in-one).
    key: |r| {
        let tag = if r.text("queue") == "heap" {
            " [heap]"
        } else {
            ""
        };
        format!("{} n={}{tag}", r.text("scheduler"), r.int("n"))
    },
    rule: |_| Ok(()),
    metrics: &[("ns_per_decision", Worse::Up), ("wall_ms", Worse::Up)],
    agree_on: &[],
    agree_within: None,
};

/// `BENCH_sweep.json`: one row per `(mode, threads)` cell; every cell
/// replays the same runs, so all rows share one digest.
pub static SWEEP_SCHEMA: Schema = Schema {
    suite: "sweep",
    fields: &[
        ("mode", Kind::OneOf(&["fresh", "reuse"])),
        ("threads", Kind::Count),
        ("runs", Kind::Count),
        ("wall_ms", Kind::Measure),
        ("runs_per_sec", Kind::Measure),
        ("reuse_hits", Kind::Uint),
        ("digest", Kind::Digest),
        ("seed", Kind::Uint),
    ],
    key: |r| format!("{} threads={}", r.text("mode"), r.int("threads")),
    rule: |r| {
        let hits = r.int("reuse_hits");
        if r.text("mode") == "fresh" && hits != 0 {
            return Err(format!("fresh mode cannot report reuse hits, got {hits}"));
        }
        Ok(())
    },
    metrics: &[("runs_per_sec", Worse::Down), ("wall_ms", Worse::Up)],
    agree_on: &["digest"],
    agree_within: None,
};

/// `BENCH_fleet.json`: one row per `(machines, threads)` cell; the thread
/// count never changes a fleet's output, so rows of one fleet size share
/// digest and steal count.
pub static FLEET_SCHEMA: Schema = Schema {
    suite: "fleet",
    fields: &[
        ("machines", Kind::Count),
        ("threads", Kind::Count),
        ("runs", Kind::Count),
        ("wall_ms", Kind::Measure),
        ("runs_per_sec", Kind::Measure),
        ("steals", Kind::Uint),
        ("digest", Kind::Digest),
        ("seed", Kind::Uint),
    ],
    key: |r| format!("M={} threads={}", r.int("machines"), r.int("threads")),
    rule: |_| Ok(()),
    metrics: &[("runs_per_sec", Worse::Down), ("wall_ms", Worse::Up)],
    agree_on: &["digest", "steals"],
    agree_within: Some("machines"),
};

/// Every suite [`parse_report`] recognises.
static SCHEMAS: [&Schema; 3] = [&KERNEL_SCHEMA, &SWEEP_SCHEMA, &FLEET_SCHEMA];

/// One report row: values in schema order.
#[derive(Debug, Clone)]
pub struct Row {
    schema: &'static Schema,
    values: Vec<Value>,
}

impl PartialEq for Row {
    fn eq(&self, other: &Self) -> bool {
        self.schema.suite == other.schema.suite && self.values == other.values
    }
}

impl Row {
    /// Builds a row from `(field, value)` pairs.
    ///
    /// # Panics
    /// If the field names are not exactly the schema's, in its order.
    pub fn new(schema: &'static Schema, fields: Vec<(&str, Value)>) -> Row {
        assert!(
            fields
                .iter()
                .map(|f| f.0)
                .eq(schema.fields.iter().map(|f| f.0)),
            "row fields must follow the {} schema",
            schema.suite
        );
        Row {
            schema,
            values: fields.into_iter().map(|f| f.1).collect(),
        }
    }

    /// The schema the row follows.
    pub fn schema(&self) -> &'static Schema {
        self.schema
    }

    /// The key `bench-diff` matches the row on.
    pub fn key(&self) -> String {
        (self.schema.key)(self)
    }

    /// The value of `field`.
    ///
    /// # Panics
    /// If the schema has no such field.
    pub(crate) fn get(&self, field: &str) -> &Value {
        let i = self.schema.fields.iter().position(|f| f.0 == field);
        &self.values[i.expect("invariant: accessors name a field of the row's schema")]
    }

    /// The text of a text field (see `Row::get`).
    pub fn text(&self, field: &str) -> &str {
        match self.get(field) {
            Value::Text(s) => Some(s.as_str()),
            _ => None,
        }
        .expect("invariant: `text` reads a text field")
    }

    /// The value of an integer field (see `Row::get`).
    pub fn int(&self, field: &str) -> u64 {
        match self.get(field) {
            Value::Int(n) => Some(*n),
            _ => None,
        }
        .expect("invariant: `int` reads an integer field")
    }

    /// The value of a measurement field (see `Row::get`).
    pub fn real(&self, field: &str) -> f64 {
        match self.get(field) {
            Value::Real(x) => Some(*x),
            _ => None,
        }
        .expect("invariant: `real` reads a measurement field")
    }
}

/// Writes rows as a report: a JSON array, one object per line, fields in
/// schema order.
pub fn render_report(rows: &[Row]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!("  {{\"bench\":\"{}\"", r.schema.suite));
        for ((name, _), v) in r.schema.fields.iter().zip(&r.values) {
            out.push_str(&format!(",\"{name}\":{v}"));
        }
        out.push_str(if i + 1 < rows.len() { "},\n" } else { "}\n" });
    }
    out.push_str("]\n");
    out
}

/// Strictly parses a report written by [`render_report`]. The suite comes
/// from the `"bench"` value of the first row; every row must name the same
/// suite and carry exactly its schema's fields, each passing the check of
/// its kind, then the schema's row rule, and the rows together must pass
/// its agreement rule.
///
/// # Errors
/// The first format violation, prefixed with its line number where it has
/// one.
pub fn parse_report(text: &str) -> Result<Vec<Row>, String> {
    let mut lines = text.lines().enumerate();
    let (_, first) = lines.next().ok_or("empty report")?;
    if first.trim() != "[" {
        return Err("line 1: expected `[`".into());
    }
    let mut rows: Vec<Row> = Vec::new();
    let mut closed = false;
    for (idx, line) in lines {
        let t = line.trim();
        if closed && !t.is_empty() {
            return Err(format!("line {}: content after closing `]`", idx + 1));
        }
        if t == "]" {
            closed = true;
        } else if !closed {
            let suite = rows.first().map(Row::schema);
            let row = parse_row(t.trim_end_matches(','), suite)
                .map_err(|e| format!("line {}: {e}", idx + 1))?;
            rows.push(row);
        }
    }
    if !closed {
        return Err("missing closing `]`".into());
    }
    let schema = rows.first().ok_or("report carries no rows")?.schema;
    schema.check_agreement(&rows)?;
    Ok(rows)
}

/// Parses one row object; `suite` is the schema of the report's first row.
fn parse_row(obj: &str, suite: Option<&'static Schema>) -> Result<Row, String> {
    let inner = obj
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or("row is not a JSON object")?;
    let mut fields = split_top_level(inner).into_iter();
    let mut next = |key: &str| -> Result<String, String> {
        let field = fields.next().ok_or(format!("missing field `{key}`"))?;
        let (k, v) = field
            .split_once(':')
            .ok_or(format!("malformed field `{field}`"))?;
        if k.trim() != format!("\"{key}\"") {
            return Err(format!("expected field `{key}`, found `{}`", k.trim()));
        }
        Ok(v.trim().to_string())
    };
    let bench = unquote(&next("bench")?)?;
    let schema = match suite {
        Some(s) if s.suite == bench => s,
        Some(s) => return Err(format!("bench must be `{}`, got `{bench}`", s.suite)),
        None => SCHEMAS
            .into_iter()
            .find(|s| s.suite == bench)
            .ok_or(format!("unknown bench suite `{bench}`"))?,
    };
    let values = schema
        .fields
        .iter()
        .map(|&(name, kind)| parse_value(name, kind, &next(name)?))
        .collect::<Result<Vec<_>, _>>()?;
    if let Some(extra) = fields.next() {
        return Err(format!("unexpected extra field `{extra}`"));
    }
    let row = Row { schema, values };
    (schema.rule)(&row)?;
    Ok(row)
}

/// Parses and checks one field value of the given kind.
fn parse_value(name: &str, kind: Kind, raw: &str) -> Result<Value, String> {
    match kind {
        Kind::Text => Ok(Value::Text(unquote(raw)?)),
        Kind::OneOf(words) => {
            let w = unquote(raw)?;
            if !words.contains(&w.as_str()) {
                let allowed: Vec<String> = words.iter().map(|w| format!("`{w}`")).collect();
                return Err(format!(
                    "{name} must be {}, got `{w}`",
                    allowed.join(" or ")
                ));
            }
            Ok(Value::Text(w))
        }
        Kind::Digest => {
            let d = unquote(raw)?;
            if d.len() != 16 || !d.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(format!("{name} must be 16 hex digits, got `{d}`"));
            }
            Ok(Value::Text(d))
        }
        Kind::Count | Kind::Uint => {
            let n: u64 = raw.parse().map_err(|e| format!("{name}: {e}"))?;
            if n == 0 && matches!(kind, Kind::Count) {
                return Err(format!("{name} must be positive"));
            }
            Ok(Value::Int(n))
        }
        Kind::Measure => {
            let x: f64 = raw.parse().map_err(|e| format!("{name}: {e}"))?;
            if !(x.is_finite() && x > 0.0) {
                return Err(format!("{name} must be positive, got {x}"));
            }
            Ok(Value::Real(x))
        }
    }
}

/// Splits a flat JSON-object body on commas that are not inside strings.
fn split_top_level(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                parts.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur);
    }
    parts
}

fn unquote(s: &str) -> Result<String, String> {
    s.strip_prefix('"')
        .and_then(|x| x.strip_suffix('"'))
        .map(str::to_string)
        .ok_or(format!("expected a JSON string, got `{s}`"))
}
