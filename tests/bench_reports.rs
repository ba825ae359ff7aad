//! The checked-in benchmark reports stay valid: each `BENCH_*.json` at the
//! repository root parses under the strict row codec, renders back to the
//! identical bytes, and diffs cleanly against itself — every row matched,
//! no regression.

use cloudsched_bench::{diff_reports, parse_report, render_report};

const REPORTS: [(&str, &str); 3] = [
    ("kernel", include_str!("../BENCH_kernel.json")),
    ("sweep", include_str!("../BENCH_sweep.json")),
    ("fleet", include_str!("../BENCH_fleet.json")),
];

#[test]
fn checked_in_reports_round_trip_byte_for_byte() {
    for (suite, text) in REPORTS {
        let rows = parse_report(text).unwrap_or_else(|e| panic!("BENCH_{suite}.json: {e}"));
        assert_eq!(rows[0].schema().suite, suite);
        assert_eq!(render_report(&rows), text, "BENCH_{suite}.json re-renders");
    }
}

#[test]
fn checked_in_reports_diff_cleanly_against_themselves() {
    for (suite, text) in REPORTS {
        let rows = parse_report(text).expect("valid report");
        let diff = diff_reports(text, text, 0.0).expect("same suite");
        assert_eq!(diff.suite, suite);
        assert!(
            diff.only_old.is_empty() && diff.only_new.is_empty(),
            "{suite}"
        );
        let metrics = rows[0].schema().metrics.len();
        assert_eq!(
            diff.deltas.len(),
            rows.len() * metrics,
            "every {suite} row matched"
        );
        assert_eq!(diff.regressions(), 0, "{suite}");
    }
}
