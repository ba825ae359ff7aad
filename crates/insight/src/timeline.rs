//! Per-job timelines and queue-depth time series from one trace.
//!
//! All output is deterministic fixed-format text: the series come out of
//! `BTreeMap`s keyed by the stable queue wire names, and the sparklines use
//! integer bucket math only.

use std::collections::BTreeMap;

use cloudsched_core::JobId;
use cloudsched_obs::TraceEvent;

/// Events concerning one job, in trace order.
pub fn job_timeline(events: &[TraceEvent], job: JobId) -> Vec<&TraceEvent> {
    events.iter().filter(|e| e.job() == Some(job)).collect()
}

/// Renders one job's timeline with the trace pretty-printer, one event per
/// line. Returns a placeholder line when the trace never mentions the job.
pub fn render_job_timeline(events: &[TraceEvent], job: JobId) -> String {
    let rows = job_timeline(events, job);
    if rows.is_empty() {
        return format!("timeline {job}\n  (no events)\n");
    }
    let mut out = format!("timeline {job}\n");
    for e in rows {
        out.push_str(&e.pretty());
        out.push('\n');
    }
    out
}

/// Queue-depth samples per queue, keyed by the stable wire name
/// (`ready`/`edf`/`other`/`supp`). `QueueDepth` events contribute directly;
/// V-Dover's supplement enqueue/rescue events also sample `supp`.
pub fn queue_depth_series(events: &[TraceEvent]) -> BTreeMap<&'static str, Vec<(f64, usize)>> {
    let mut series: BTreeMap<&'static str, Vec<(f64, usize)>> = BTreeMap::new();
    for ev in events {
        let (name, depth) = match *ev {
            TraceEvent::QueueDepth { queue, depth, .. } => (queue.as_str(), depth),
            TraceEvent::SupplementEnqueue { depth, .. }
            | TraceEvent::SupplementRescue { depth, .. } => ("supp", depth),
            _ => continue,
        };
        series
            .entry(name)
            .or_default()
            .push((ev.time().as_f64(), depth));
    }
    series
}

/// The sparkline glyph ladder: index 0 is an empty queue; depths are scaled
/// into the remaining rungs against the series maximum.
const LADDER: [char; 8] = ['.', '1', '2', '3', '4', '5', '6', '#'];

/// Renders a `width`-cell sparkline of one series over `[t0, t1]` with
/// carry-forward between samples.
fn sparkline(samples: &[(f64, usize)], t0: f64, t1: f64, width: usize) -> String {
    let width = width.max(1);
    let max_depth = samples.iter().map(|&(_, d)| d).max().unwrap_or(0);
    let span = t1 - t0;
    let mut cells = String::with_capacity(width);
    let mut last = 0usize;
    let mut i = 0usize;
    for cell in 0..width {
        // A cell covers (t0 + span*cell/width, t0 + span*(cell+1)/width];
        // carry the last sample at or before the cell's end forward.
        let frac = (cell + 1) as f64 / width as f64;
        let cell_end = if span > 0.0 { t0 + span * frac } else { t1 };
        while i < samples.len() && samples[i].0 <= cell_end {
            last = samples[i].1;
            i += 1;
        }
        let glyph = if last == 0 || max_depth == 0 {
            LADDER[0]
        } else {
            LADDER[(last * (LADDER.len() - 1))
                .div_ceil(max_depth)
                .min(LADDER.len() - 1)]
        };
        cells.push(glyph);
    }
    cells
}

/// Renders every queue's depth series: sample count, maximum, final depth
/// and a `width`-cell sparkline spanning the full trace duration.
pub fn render_queue_depths(events: &[TraceEvent], width: usize) -> String {
    let series = queue_depth_series(events);
    if series.is_empty() {
        return String::from("queue depths\n  (no queue samples)\n");
    }
    let t0 = events.first().map(|e| e.time().as_f64()).unwrap_or(0.0);
    let t1 = events.last().map(|e| e.time().as_f64()).unwrap_or(0.0);
    let mut out = String::from("queue depths\n");
    for (name, samples) in &series {
        let max_depth = samples.iter().map(|&(_, d)| d).max().unwrap_or(0);
        let final_depth = samples.last().map(|&(_, d)| d).unwrap_or(0);
        out.push_str(&format!(
            "  {:<6} samples={:<5} max={:<4} final={:<4} |{}|\n",
            name,
            samples.len(),
            max_depth,
            final_depth,
            sparkline(samples, t0, t1, width)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_core::Time;
    use cloudsched_obs::QueueKind;

    fn t(x: f64) -> Time {
        Time::new(x)
    }

    fn trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Arrival {
                t: t(0.0),
                job: JobId(0),
                laxity: 2.0,
            },
            TraceEvent::QueueDepth {
                t: t(0.0),
                queue: QueueKind::Other,
                depth: 1,
            },
            TraceEvent::Arrival {
                t: t(1.0),
                job: JobId(1),
                laxity: 1.0,
            },
            TraceEvent::SupplementEnqueue {
                t: t(2.0),
                job: JobId(1),
                depth: 1,
            },
            TraceEvent::QueueDepth {
                t: t(3.0),
                queue: QueueKind::Other,
                depth: 0,
            },
            TraceEvent::SupplementRescue {
                t: t(4.0),
                job: JobId(1),
                depth: 0,
            },
            TraceEvent::Complete {
                t: t(5.0),
                job: JobId(1),
                value: 2.0,
            },
        ]
    }

    #[test]
    fn timeline_filters_and_preserves_order() {
        let events = trace();
        let rows = job_timeline(&events, JobId(1));
        assert_eq!(rows.len(), 4);
        assert!(matches!(rows[0], TraceEvent::Arrival { .. }));
        assert!(matches!(rows[3], TraceEvent::Complete { .. }));
        let text = render_job_timeline(&events, JobId(1));
        assert!(text.starts_with("timeline T1\n"));
        assert!(text.contains("supp-enqueue"));
        assert!(render_job_timeline(&events, JobId(9)).contains("(no events)"));
    }

    #[test]
    fn queue_series_merges_supplement_events() {
        let events = trace();
        let series = queue_depth_series(&events);
        assert_eq!(
            series.get("other"),
            Some(&vec![(0.0, 1usize), (3.0, 0usize)])
        );
        assert_eq!(
            series.get("supp"),
            Some(&vec![(2.0, 1usize), (4.0, 0usize)])
        );
        assert_eq!(series.get("ready"), None);
    }

    #[test]
    fn sparkline_carries_forward_and_is_deterministic() {
        // Depth 1 from t=2 to t=4, 0 elsewhere over [0, 5] with 10 cells.
        let samples = vec![(2.0, 1usize), (4.0, 0usize)];
        let line = sparkline(&samples, 0.0, 5.0, 10);
        assert_eq!(line, "...####...");
        // Zero-span traces fill every cell with the depth at that instant.
        assert_eq!(sparkline(&samples, 2.0, 2.0, 4), "####");
        assert_eq!(sparkline(&[], 0.0, 5.0, 4), "....");
    }

    #[test]
    fn render_queue_depths_is_fixed_format() {
        let text = render_queue_depths(&trace(), 10);
        assert!(text.starts_with("queue depths\n"));
        assert!(text.contains("other  samples=2"), "{text}");
        assert!(text.contains("supp   samples=2"), "{text}");
        assert!(text.contains('|'));
        assert!(render_queue_depths(&[], 10).contains("no queue samples"));
    }
}
