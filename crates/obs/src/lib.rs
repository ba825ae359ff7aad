//! # cloudsched-obs
//!
//! Deterministic observability for the simulation workspace: the paper's
//! central claims (Theorem 2's EDF 1-competitiveness, Theorem 3's V-Dover
//! bound via conservative laxity and the supplement queue) are claims about
//! *why* jobs are admitted, preempted, rescued or abandoned — this crate
//! makes those decisions visible and measurable without compromising the
//! simulator's determinism. Four pillars:
//!
//! 1. **Structured event tracing** ([`event`], [`tracer`]) — a typed,
//!    sim-time-stamped [`TraceEvent`] taxonomy covering the job lifecycle
//!    (arrival / admit / preempt / resume / complete / expire / abandon),
//!    the V-Dover supplement queue (enqueue / rescue), conservative-laxity
//!    sign flips and capacity segment changes. Events flow through the
//!    [`Tracer`] trait into a bounded in-memory ring ([`RingTracer`]) or a
//!    JSONL sink ([`JsonlTracer`]); the default [`NoopTracer`] reports
//!    `enabled() == false` so instrumented code compiles down to nothing.
//!    The JSONL encoding ([`jsonl`]: one reusable [`JsonlWriter`], one
//!    borrowing [`split_flat_object`]) is byte-deterministic: the same seed
//!    and instance always produce the identical trace file.
//! 2. **Metrics** ([`metrics`]) — a registry of counters, value meters,
//!    gauges and fixed-bucket histograms that folds trace events into
//!    aggregates (preemption counts, queue depths, laxity distributions,
//!    value accrued/expired/abandoned). [`MetricsRegistry`] itself
//!    implements [`Tracer`], so it can tee off the same event stream.
//! 3. **Profiling** ([`clock`], [`profile`]) — span timers driven by a
//!    pluggable [`Clock`]. The deterministic core never touches the wall
//!    clock (lint rules L005/L006); `std::time::Instant` is quarantined in
//!    [`clock::MonotonicClock`], which measurement code (`crates/bench`)
//!    plugs in for real timings while tests use [`clock::ManualClock`].
//! 4. **Durability** ([`journal`]) — the write-ahead-journal seam of the
//!    streaming service. Deterministic code appends and syncs against the
//!    [`JournalSink`] trait; `std::fs` is quarantined in [`FileJournal`]
//!    (the lint L011 carve-out, mirroring the clock), with [`MemJournal`]
//!    as the deterministic, fault-injectable test double.
//!
//! The crate is std-only and depends only on `cloudsched-core`.

#![warn(missing_docs)]

pub mod clock;
mod decimal;
pub mod event;
pub mod journal;
pub mod jsonl;
pub mod metrics;
pub mod profile;
pub mod tracer;

pub use clock::{Clock, ManualClock, MonotonicClock, NullClock};
pub use event::{DecisionAction, FaultKind, QueueKind, TraceEvent};
pub use journal::{FileJournal, JournalSink, MemJournal};
pub use jsonl::{split_flat_object, unquote, FlatFields, JsonlWriter};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use profile::{Profiler, SpanStats};
pub use tracer::{JsonlTracer, NoopTracer, RingTracer, Tee, Tracer, WithProvenance};
