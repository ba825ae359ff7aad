//! Structural diffs between two benchmark reports.
//!
//! Parses two `BENCH_kernel.json`, `BENCH_sweep.json`, or
//! `BENCH_fleet.json` files with the strict [`crate::row`] codec, matches rows by the suite schema's key, and reports
//! a delta for each of the schema's metrics with a tolerance. Rows present
//! in only one file (e.g. a `--quick` run covers fewer sizes) are listed
//! as informational, never as regressions.

use std::collections::BTreeMap;

use crate::row::{parse_report, Row, Worse};

/// One metric's old-vs-new comparison for one matched row.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Row configuration key (e.g. `V-Dover n=1000` or `reuse threads=4`).
    pub key: String,
    /// Metric name (`ns_per_decision`, `wall_ms`, `runs_per_sec`).
    pub metric: &'static str,
    /// Value in the old report.
    pub old: f64,
    /// Value in the new report.
    pub new: f64,
    /// Percent change relative to old (0 when old is not positive).
    pub delta_pct: f64,
    /// Whether the change crosses the tolerance in the bad direction.
    pub regression: bool,
}

/// The full diff between two reports of the same suite.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDiff {
    /// `"kernel"`, `"sweep"`, or `"fleet"`.
    pub suite: &'static str,
    /// Per-metric deltas for rows present in both reports, in key order.
    pub deltas: Vec<MetricDelta>,
    /// Row keys only the old report has.
    pub only_old: Vec<String>,
    /// Row keys only the new report has.
    pub only_new: Vec<String>,
    /// The tolerance (percent) regressions were judged against.
    pub tol_pct: f64,
}

impl BenchDiff {
    /// Number of metric deltas flagged as regressions.
    pub fn regressions(&self) -> usize {
        self.deltas.iter().filter(|d| d.regression).count()
    }

    /// Deterministic fixed-format text report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "bench-diff ({}) tolerance ±{:.1}%\n",
            self.suite, self.tol_pct
        );
        if self.deltas.is_empty() {
            out.push_str("  (no rows in common)\n");
        }
        for d in &self.deltas {
            out.push_str(&format!(
                "  {:<28} {:<16} {:>14.3} -> {:>14.3}  {:>+7.1}%{}\n",
                d.key,
                d.metric,
                d.old,
                d.new,
                d.delta_pct,
                if d.regression { "  REGRESSION" } else { "" }
            ));
        }
        for k in &self.only_old {
            out.push_str(&format!("  {k:<28} only in old report\n"));
        }
        for k in &self.only_new {
            out.push_str(&format!("  {k:<28} only in new report\n"));
        }
        out.push_str(&format!(
            "  {} matched metric(s), {} regression(s)\n",
            self.deltas.len(),
            self.regressions()
        ));
        out
    }
}

/// Percent change of `new` relative to `old` (0 when `old` is not positive).
fn pct(old: f64, new: f64) -> f64 {
    if old > 0.0 {
        100.0 * (new - old) / old
    } else {
        0.0
    }
}

/// Diffs two benchmark reports of the same suite.
///
/// The suite is the one each report names in its `"bench"` field; both
/// must name the same one.
///
/// # Errors
/// When either text fails the strict parse, or the two name different
/// suites.
pub fn diff_reports(old_text: &str, new_text: &str, tol_pct: f64) -> Result<BenchDiff, String> {
    let tol_pct = tol_pct.abs();
    let old = parse_report(old_text).map_err(|e| format!("old report: {e}"))?;
    let new = parse_report(new_text).map_err(|e| format!("new report: {e}"))?;
    let (schema, new_suite) = (old[0].schema(), new[0].schema().suite);
    if schema.suite != new_suite {
        return Err(format!(
            "cannot diff a {} report against a {new_suite} report",
            schema.suite
        ));
    }
    let keyed = |rows: Vec<Row>| -> BTreeMap<String, Row> {
        rows.into_iter().map(|r| (r.key(), r)).collect()
    };
    let (old, new) = (keyed(old), keyed(new));
    let mut deltas = Vec::new();
    let mut only_old = Vec::new();
    for (key, o) in &old {
        let Some(n) = new.get(key) else {
            only_old.push(key.clone());
            continue;
        };
        for &(metric, worse) in schema.metrics {
            let (was, now) = (o.real(metric), n.real(metric));
            let delta_pct = pct(was, now);
            deltas.push(MetricDelta {
                key: key.clone(),
                metric,
                old: was,
                new: now,
                delta_pct,
                regression: match worse {
                    Worse::Up => delta_pct > tol_pct,
                    Worse::Down => delta_pct < -tol_pct,
                },
            });
        }
    }
    let only_new = new.into_keys().filter(|k| !old.contains_key(k)).collect();
    Ok(BenchDiff {
        suite: schema.suite,
        deltas,
        only_old,
        only_new,
        tol_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::{render_report, FLEET_SCHEMA, KERNEL_SCHEMA, SWEEP_SCHEMA};

    fn kernel_row(scheduler: &str, n: usize, ns: f64, wall: f64) -> Row {
        Row::new(
            &KERNEL_SCHEMA,
            vec![
                ("n", n.into()),
                ("scheduler", scheduler.into()),
                ("ns_per_decision", ns.into()),
                ("wall_ms", wall.into()),
                ("seed", 7u64.into()),
            ],
        )
    }

    fn sweep_row(mode: &str, threads: usize, rps: f64, wall: f64) -> Row {
        Row::new(
            &SWEEP_SCHEMA,
            vec![
                ("mode", mode.into()),
                ("threads", threads.into()),
                ("runs", 64usize.into()),
                ("wall_ms", wall.into()),
                ("runs_per_sec", rps.into()),
                ("reuse_hits", 0u64.into()),
                ("digest", "00000000deadbeef".into()),
                ("seed", 7u64.into()),
            ],
        )
    }

    #[test]
    fn kernel_diff_flags_slowdowns_beyond_tolerance() {
        let old = render_report(&[
            kernel_row("EDF", 1000, 100.0, 1.0),
            kernel_row("V-Dover", 1000, 200.0, 2.0),
            kernel_row("V-Dover", 10000, 250.0, 20.0),
        ]);
        let new = render_report(&[
            kernel_row("EDF", 1000, 105.0, 1.0),
            kernel_row("V-Dover", 1000, 300.0, 2.0),
        ]);
        let diff = diff_reports(&old, &new, 10.0).expect("same suite");
        assert_eq!(diff.suite, "kernel");
        // 2 matched rows x 2 metrics.
        assert_eq!(diff.deltas.len(), 4);
        assert_eq!(diff.regressions(), 1);
        let reg = diff
            .deltas
            .iter()
            .find(|d| d.regression)
            .expect("one regression");
        assert_eq!(reg.key, "V-Dover n=1000");
        assert_eq!(reg.metric, "ns_per_decision");
        assert!((reg.delta_pct - 50.0).abs() < 1e-9);
        assert_eq!(diff.only_old, vec!["V-Dover n=10000".to_string()]);
        assert!(diff.only_new.is_empty());
        let text = diff.render();
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("only in old report"), "{text}");
        assert!(
            text.contains("4 matched metric(s), 1 regression(s)"),
            "{text}"
        );
    }

    #[test]
    fn sweep_diff_flags_throughput_drops() {
        let old = render_report(&[sweep_row("reuse", 4, 1000.0, 64.0)]);
        let new = render_report(&[
            sweep_row("reuse", 4, 800.0, 80.0),
            sweep_row("fresh", 4, 900.0, 70.0),
        ]);
        let diff = diff_reports(&old, &new, 10.0).expect("same suite");
        assert_eq!(diff.suite, "sweep");
        let rps = diff
            .deltas
            .iter()
            .find(|d| d.metric == "runs_per_sec")
            .expect("matched");
        assert!(rps.regression, "20% throughput drop at 10% tolerance");
        assert!((rps.delta_pct + 20.0).abs() < 1e-9);
        assert_eq!(diff.only_new, vec!["fresh threads=4".to_string()]);
    }

    #[test]
    fn improvements_are_not_regressions() {
        let old = render_report(&[kernel_row("EDF", 1000, 100.0, 1.0)]);
        let new = render_report(&[kernel_row("EDF", 1000, 50.0, 0.5)]);
        let diff = diff_reports(&old, &new, 10.0).expect("same suite");
        assert_eq!(diff.regressions(), 0);
        assert!(diff.render().contains("-50.0%"));
    }

    fn fleet_row(machines: usize, threads: usize, rps: f64, wall: f64) -> Row {
        Row::new(
            &FLEET_SCHEMA,
            vec![
                ("machines", machines.into()),
                ("threads", threads.into()),
                ("runs", 4usize.into()),
                ("wall_ms", wall.into()),
                ("runs_per_sec", rps.into()),
                ("steals", 3u64.into()),
                ("digest", "00000000deadbeef".into()),
                ("seed", 7u64.into()),
            ],
        )
    }

    #[test]
    fn fleet_diff_flags_throughput_drops() {
        let old = render_report(&[fleet_row(16, 1, 50.0, 80.0), fleet_row(16, 4, 50.0, 80.0)]);
        let new = render_report(&[fleet_row(16, 1, 40.0, 100.0), fleet_row(16, 4, 50.0, 80.0)]);
        let diff = diff_reports(&old, &new, 10.0).expect("same suite");
        assert_eq!(diff.suite, "fleet");
        assert_eq!(diff.deltas.len(), 4, "2 matched rows x 2 metrics");
        assert_eq!(diff.regressions(), 2, "rps drop and wall rise on M=16 t=1");
        let reg = diff.deltas.iter().find(|d| d.regression).expect("flagged");
        assert_eq!(reg.key, "M=16 threads=1");
    }

    #[test]
    fn fleet_and_sweep_reports_do_not_cross_diff() {
        let fleet = render_report(&[fleet_row(4, 1, 50.0, 80.0)]);
        let sweep = render_report(&[sweep_row("reuse", 4, 1000.0, 64.0)]);
        let err = diff_reports(&sweep, &fleet, 10.0).expect_err("mixed suites");
        assert!(err.contains("sweep report against a fleet report"), "{err}");
        let err = diff_reports(&fleet, &sweep, 10.0).expect_err("mixed suites");
        assert!(err.contains("fleet report against a sweep report"), "{err}");
        let kernel = render_report(&[kernel_row("EDF", 1000, 100.0, 1.0)]);
        let err = diff_reports(&kernel, &fleet, 10.0).expect_err("mixed suites");
        assert!(
            err.contains("kernel report against a fleet report"),
            "{err}"
        );
    }

    #[test]
    fn mixed_suites_are_rejected() {
        let kernel = render_report(&[kernel_row("EDF", 1000, 100.0, 1.0)]);
        let sweep = render_report(&[sweep_row("reuse", 4, 1000.0, 64.0)]);
        let err = diff_reports(&kernel, &sweep, 10.0).expect_err("mixed suites");
        assert!(
            err.contains("kernel report against a sweep report"),
            "{err}"
        );
        let err = diff_reports(&sweep, &kernel, 10.0).expect_err("mixed suites");
        assert!(
            err.contains("sweep report against a kernel report"),
            "{err}"
        );
        assert!(diff_reports("not json", "either", 10.0).is_err());
    }
}
