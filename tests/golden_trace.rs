//! Golden-trace regression: the checked-in JSONL stream for a fixed
//! overloaded instance must never drift.
//!
//! The golden file was produced by (and CI re-checks with):
//!
//! ```text
//! cloudsched trace --lambda 12 --seed 7 --horizon 6 --scheduler vdover \
//!     --out tests/golden/trace_seed7_vdover.jsonl
//! ```
//!
//! Any change to event ordering, kernel arithmetic, V-Dover's procedures or
//! the JSONL encoding shows up here as a byte diff. If a change is
//! *intentional*, regenerate the golden with the command above and review
//! the diff like any other semantic change.

use cloudsched::obs::TraceEvent;
use cloudsched::prelude::*;
use cloudsched::run_traced;

const GOLDEN: &str = include_str!("golden/trace_seed7_vdover.jsonl");
const GOLDEN_INSPECT: &str = include_str!("golden/inspect_seed7_vdover.txt");

fn golden_instance() -> Instance {
    let mut scenario = PaperScenario::table1(12.0);
    scenario.horizon = 6.0;
    scenario.generate(7).unwrap().instance
}

#[test]
fn vdover_trace_matches_the_checked_in_golden() {
    let run = run_traced(&golden_instance(), "vdover").unwrap();
    if run.jsonl != GOLDEN {
        // Line-level diff first: far more actionable than a byte offset.
        for (idx, (got, want)) in run.jsonl.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(got, want, "first trace divergence at line {}", idx + 1);
        }
        assert_eq!(
            run.jsonl.lines().count(),
            GOLDEN.lines().count(),
            "trace is a strict prefix/extension of the golden"
        );
        panic!("traces differ but no differing line found — check trailing bytes");
    }
}

#[test]
fn golden_trace_parses_and_is_time_ordered() {
    // The golden must stay a valid, monotone event stream — guards against
    // hand edits and encoder drift alike.
    let mut last_t = f64::NEG_INFINITY;
    let mut n = 0usize;
    for line in GOLDEN.lines() {
        let ev = TraceEvent::parse_jsonl(line).expect("golden line parses");
        let t = ev.time().as_f64();
        assert!(t >= last_t, "golden trace goes back in time at event {n}");
        last_t = t;
        n += 1;
    }
    assert!(n > 100, "golden trace suspiciously small ({n} events)");
}

#[test]
fn golden_inspect_summary_matches_the_checked_in_render() {
    // The value-loss ledger folded from the golden trace must render
    // byte-identically to the checked-in summary — this pins the ledger's
    // classification rules and report format alongside the trace encoding.
    // Regenerate with:
    //
    //   cloudsched inspect --lambda 12 --seed 7 --horizon 6 --scheduler vdover \
    //       --in tests/golden/trace_seed7_vdover.jsonl \
    //       > tests/golden/inspect_seed7_vdover.txt
    let events: Vec<TraceEvent> = GOLDEN
        .lines()
        .map(|l| TraceEvent::parse_jsonl(l).expect("golden line parses"))
        .collect();
    let instance = golden_instance();
    let report = cloudsched::insight::ValueLedger::from_events(&events)
        .attribute(&instance.jobs)
        .expect("golden trace conserves value");
    assert_eq!(
        report.render(),
        GOLDEN_INSPECT,
        "ledger summary drifted from tests/golden/inspect_seed7_vdover.txt"
    );
    // The summary's arithmetic must also agree with the instance itself.
    assert_eq!(report.entries.len(), instance.job_count());
    assert_eq!(report.total_value.to_bits(), {
        let mut sum = 0.0f64;
        for job in instance.jobs.iter() {
            sum += job.value;
        }
        sum.to_bits()
    });
}
