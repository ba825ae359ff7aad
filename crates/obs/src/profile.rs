//! Span-timer profiling over the pluggable [`Clock`] seam.
//!
//! A [`Profiler`] hands out RAII [`Span`] guards; each guard records its
//! elapsed nanoseconds into per-name [`SpanStats`] when dropped. With
//! [`Profiler::deterministic`] (the [`NullClock`]) every span costs two
//! virtual reads of a constant, so instrumented code paths can stay
//! instrumented in reproducible runs; `crates/bench` constructs one with a
//! [`MonotonicClock`](crate::MonotonicClock) for real timings.

use crate::clock::{Clock, NullClock};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Aggregated timings for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Number of completed spans.
    pub count: u64,
    /// Sum of elapsed nanoseconds.
    pub total_ns: u64,
    /// Shortest span.
    pub min_ns: u64,
    /// Longest span.
    pub max_ns: u64,
}

impl SpanStats {
    fn absorb(&mut self, elapsed_ns: u64) {
        if self.count == 0 {
            self.min_ns = elapsed_ns;
            self.max_ns = elapsed_ns;
        } else {
            self.min_ns = self.min_ns.min(elapsed_ns);
            self.max_ns = self.max_ns.max(elapsed_ns);
        }
        self.count += 1;
        self.total_ns += elapsed_ns;
    }

    /// Mean span duration in nanoseconds (0 when no spans completed).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Collects [`SpanStats`] per span name. Interior-mutable so call sites can
/// share `&Profiler` freely.
pub struct Profiler {
    clock: Box<dyn Clock>,
    spans: RefCell<BTreeMap<&'static str, SpanStats>>,
    enabled: bool,
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.enabled)
            .field("spans", &self.spans.borrow())
            .finish()
    }
}

impl Profiler {
    /// A live profiler reading the given clock.
    pub fn new(clock: Box<dyn Clock>) -> Self {
        Profiler {
            clock,
            spans: RefCell::new(BTreeMap::new()),
            enabled: true,
        }
    }

    /// A profiler on the frozen [`NullClock`]: spans are counted but all
    /// durations are zero, keeping instrumented deterministic runs cheap.
    pub fn deterministic() -> Self {
        Profiler::new(Box::new(NullClock))
    }

    /// A profiler that ignores spans entirely.
    pub fn disabled() -> Self {
        Profiler {
            clock: Box::new(NullClock),
            spans: RefCell::new(BTreeMap::new()),
            enabled: false,
        }
    }

    /// Opens a span; it records into `name`'s stats when dropped.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        Span {
            profiler: self,
            name,
            start_ns: if self.enabled { self.clock.now_ns() } else { 0 },
        }
    }

    /// Stats for one span name, if any spans completed under it.
    pub fn stats(&self, name: &str) -> Option<SpanStats> {
        self.spans.borrow().get(name).copied()
    }

    /// All per-name stats, name-ordered.
    pub fn report(&self) -> Vec<(&'static str, SpanStats)> {
        self.spans.borrow().iter().map(|(k, v)| (*k, *v)).collect()
    }

    /// Renders a fixed-order plain-text table of span stats.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, s) in self.report() {
            out.push_str(&format!(
                "span {name:<24} count={:<8} total={}ns mean={}ns min={}ns max={}ns\n",
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.min_ns,
                s.max_ns
            ));
        }
        out
    }

    fn finish_span(&self, name: &'static str, start_ns: u64) {
        if !self.enabled {
            return;
        }
        let elapsed = self.clock.now_ns().saturating_sub(start_ns);
        self.spans
            .borrow_mut()
            .entry(name)
            .or_default()
            .absorb(elapsed);
    }
}

/// RAII guard returned by [`Profiler::span`]; records on drop.
#[must_use = "a span records its duration when dropped"]
pub struct Span<'a> {
    profiler: &'a Profiler,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.profiler.finish_span(self.name, self.start_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::rc::Rc;

    struct SharedClock(Rc<ManualClock>);
    impl Clock for SharedClock {
        fn now_ns(&self) -> u64 {
            self.0.now_ns()
        }
    }

    #[test]
    fn spans_aggregate_count_total_min_max() {
        let clock = Rc::new(ManualClock::new());
        let p = Profiler::new(Box::new(SharedClock(Rc::clone(&clock))));
        {
            let _s = p.span("work");
            clock.advance(10);
        }
        {
            let _s = p.span("work");
            clock.advance(4);
        }
        let s = p.stats("work").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_ns, 14);
        assert_eq!(s.min_ns, 4);
        assert_eq!(s.max_ns, 10);
        assert_eq!(s.mean_ns(), 7);
    }

    #[test]
    fn nested_spans_both_record() {
        let clock = Rc::new(ManualClock::new());
        let p = Profiler::new(Box::new(SharedClock(Rc::clone(&clock))));
        {
            let _outer = p.span("outer");
            clock.advance(1);
            {
                let _inner = p.span("inner");
                clock.advance(2);
            }
            clock.advance(3);
        }
        assert_eq!(p.stats("outer").unwrap().total_ns, 6);
        assert_eq!(p.stats("inner").unwrap().total_ns, 2);
    }

    #[test]
    fn deterministic_profiler_counts_with_zero_durations() {
        let p = Profiler::deterministic();
        {
            let _s = p.span("dispatch");
        }
        let s = p.stats("dispatch").unwrap();
        assert_eq!(s.count, 1);
        assert_eq!(s.total_ns, 0);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let p = Profiler::disabled();
        {
            let _s = p.span("dispatch");
        }
        assert!(p.stats("dispatch").is_none());
        assert!(p.report().is_empty());
        assert!(p.render().is_empty());
    }

    #[test]
    fn render_contains_span_rows() {
        let p = Profiler::deterministic();
        {
            let _s = p.span("kernel.dispatch");
        }
        let text = p.render();
        assert!(text.contains("span kernel.dispatch"));
        assert!(text.contains("count=1"));
    }
}
