//! Trace sinks: the [`Tracer`] trait and its standard implementations.
//!
//! The kernel and schedulers are generic over `T: Tracer`; the default
//! [`NoopTracer`] reports `enabled() == false`, so every emission site can
//! guard its (possibly costly) event construction and the instrumentation
//! compiles down to nothing on untraced runs.

use crate::event::TraceEvent;
use crate::jsonl::JsonlWriter;
use std::collections::VecDeque;
use std::io::{self, Write};

/// A sink for [`TraceEvent`]s.
pub trait Tracer {
    /// Records one event.
    fn record(&mut self, event: &TraceEvent);

    /// Whether recording is live. Emission sites should skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool {
        true
    }

    /// Whether this sink opts into optional decision-provenance events
    /// ([`TraceEvent::Decision`]). Defaults to `false` so existing
    /// byte-stable trace streams never change shape; wrap a sink in
    /// [`WithProvenance`] to opt in.
    fn wants_provenance(&self) -> bool {
        false
    }
}

impl<T: Tracer + ?Sized> Tracer for &mut T {
    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event);
    }

    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn wants_provenance(&self) -> bool {
        (**self).wants_provenance()
    }
}

/// Opt-in wrapper that requests decision-provenance events on behalf of the
/// wrapped sink. Everything else forwards unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub struct WithProvenance<T>(pub T);

impl<T: Tracer> Tracer for WithProvenance<T> {
    fn record(&mut self, event: &TraceEvent) {
        self.0.record(event);
    }

    fn enabled(&self) -> bool {
        self.0.enabled()
    }

    fn wants_provenance(&self) -> bool {
        true
    }
}

/// The zero-cost default sink: drops everything and reports disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    #[inline(always)]
    fn record(&mut self, _event: &TraceEvent) {}

    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }
}

/// A bounded in-memory ring buffer keeping the most recent events.
#[derive(Debug)]
pub struct RingTracer {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingTracer {
    /// Creates a ring holding at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        RingTracer {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drains the ring, returning the retained events oldest first.
    pub fn take(&mut self) -> Vec<TraceEvent> {
        self.buf.drain(..).collect()
    }
}

impl Tracer for RingTracer {
    fn record(&mut self, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(*event);
    }
}

/// Streams events as JSONL (`TraceEvent::to_jsonl`, one per line) into any
/// [`io::Write`], rendering through one reused [`JsonlWriter`].
///
/// I/O errors are latched rather than panicking mid-simulation: the first
/// error stops further writes and is surfaced by [`JsonlTracer::finish`].
#[derive(Debug)]
pub struct JsonlTracer<W: Write> {
    out: W,
    writer: JsonlWriter,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlTracer<W> {
    /// Wraps a writer.
    pub fn new(out: W) -> Self {
        JsonlTracer {
            out,
            writer: JsonlWriter::new(),
            written: 0,
            error: None,
        }
    }

    /// Number of lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the writer, or the first latched I/O error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }
}

impl<W: Write> Tracer for JsonlTracer<W> {
    fn record(&mut self, event: &TraceEvent) {
        if self.error.is_some() {
            return;
        }
        let line = self.writer.event(event);
        match self
            .out
            .write_all(line.as_bytes())
            .and_then(|()| self.out.write_all(b"\n"))
        {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Fans one event stream out to two sinks (e.g. a JSONL file plus a live
/// [`crate::MetricsRegistry`]).
#[derive(Debug)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: Tracer, B: Tracer> Tracer for Tee<A, B> {
    fn record(&mut self, event: &TraceEvent) {
        self.0.record(event);
        self.1.record(event);
    }

    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn wants_provenance(&self) -> bool {
        self.0.wants_provenance() || self.1.wants_provenance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::{JobId, Time};

    fn admit(t: f64, job: u64) -> TraceEvent {
        TraceEvent::Admit {
            t: Time::new(t),
            job: JobId(job),
        }
    }

    #[test]
    fn noop_is_disabled() {
        let mut tr = NoopTracer;
        assert!(!tr.enabled());
        tr.record(&admit(1.0, 0));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut ring = RingTracer::new(2);
        assert!(ring.is_empty());
        for i in 0..5 {
            ring.record(&admit(i as f64, i));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let kept: Vec<_> = ring.events().filter_map(|e| e.job()).collect();
        assert_eq!(kept, vec![JobId(3), JobId(4)]);
        assert_eq!(ring.take().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_writes_lines() {
        let mut tr = JsonlTracer::new(Vec::new());
        tr.record(&admit(1.0, 7));
        tr.record(&admit(2.0, 8));
        assert_eq!(tr.written(), 2);
        let bytes = tr.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            TraceEvent::parse_jsonl(line).unwrap();
        }
    }

    #[test]
    fn jsonl_latches_first_error() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut tr = JsonlTracer::new(Failing);
        tr.record(&admit(1.0, 0));
        tr.record(&admit(2.0, 1));
        assert_eq!(tr.written(), 0);
        assert!(tr.finish().is_err());
    }

    #[test]
    fn tee_fans_out_and_ors_enabled() {
        let mut tee = Tee(RingTracer::new(8), NoopTracer);
        assert!(tee.enabled());
        tee.record(&admit(1.0, 0));
        assert_eq!(tee.0.len(), 1);
        let both_off = Tee(NoopTracer, NoopTracer);
        assert!(!both_off.enabled());
    }

    #[test]
    fn provenance_is_opt_in() {
        let ring = RingTracer::new(4);
        assert!(!ring.wants_provenance());
        let mut wrapped = WithProvenance(ring);
        assert!(wrapped.wants_provenance());
        assert!(wrapped.enabled());
        wrapped.record(&admit(1.0, 0));
        assert_eq!(wrapped.0.len(), 1);
        // Tee ORs the capability; &mut forwards it.
        let mut tee = Tee(NoopTracer, WithProvenance(NoopTracer));
        assert!(tee.wants_provenance());
        let as_dyn: &mut dyn Tracer = &mut tee;
        assert!(as_dyn.wants_provenance());
        assert!(!Tee(NoopTracer, NoopTracer).wants_provenance());
    }

    #[test]
    fn mut_ref_forwards() {
        let mut ring = RingTracer::new(4);
        {
            let as_dyn: &mut dyn Tracer = &mut ring;
            assert!(as_dyn.enabled());
            as_dyn.record(&admit(0.5, 2));
        }
        assert_eq!(ring.len(), 1);
    }
}
