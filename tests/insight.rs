//! Tier-1 insight contracts: value conservation and the empirical
//! competitive ratio against the paper's bounds.
//!
//! The value-loss ledger is only trustworthy if it conserves arrived value
//! *exactly* on every trace the kernel can produce — not approximately, and
//! not only on friendly instances. The empirical ratio is only trustworthy
//! if it never contradicts Theorem 3 on the paper's own Table I scenarios.

use cloudsched::insight::{measure_ratio, Bucket, ValueLedger};
use cloudsched::obs::TraceEvent;
use cloudsched::prelude::*;
use cloudsched::run_traced_with_provenance;

fn parse_trace(jsonl: &str) -> Vec<TraceEvent> {
    jsonl
        .lines()
        .map(|l| TraceEvent::parse_jsonl(l).expect("trace line parses"))
        .collect()
}

#[test]
fn ledger_conserves_value_across_schedulers_and_loads() {
    // Every unit of arrived value lands in exactly one bucket, bit-exactly,
    // for every scheduler at every Table I load level — with provenance on,
    // so decision events are in the stream and must not perturb the fold.
    for lambda in [4.0, 8.0, 12.0] {
        for seed in [1, 2] {
            let instance = PaperScenario::table1(lambda)
                .generate(seed)
                .unwrap()
                .instance;
            for scheduler in ["edf", "llf", "fifo", "greedy", "dover-lo", "vdover"] {
                let run = run_traced_with_provenance(&instance, scheduler, true).unwrap();
                let events = parse_trace(&run.jsonl);
                let report = ValueLedger::from_events(&events)
                    .attribute(&instance.jobs)
                    .unwrap_or_else(|e| {
                        panic!("{scheduler} λ={lambda} seed={seed}: conservation broke: {e}")
                    });
                assert_eq!(
                    report.entries.len(),
                    instance.job_count(),
                    "{scheduler} λ={lambda} seed={seed}: every job must be traced"
                );
                // The realized bucket is the run's achieved value, re-derived
                // independently from the trace.
                assert_eq!(
                    report.jobs_in(Bucket::Realized),
                    run.report.completed,
                    "{scheduler} λ={lambda} seed={seed}: realized jobs != completed"
                );
                let realized = report.value_in(Bucket::Realized);
                assert!(
                    (realized - run.report.value).abs() <= 1e-9 * run.report.value.abs().max(1.0),
                    "{scheduler} λ={lambda} seed={seed}: \
                     ledger realized {realized} != report value {}",
                    run.report.value
                );
                assert_eq!(
                    report.jobs_in(Bucket::Unresolved),
                    0,
                    "{scheduler} λ={lambda} seed={seed}: job left without a terminal event"
                );
            }
        }
    }
}

#[test]
fn ledger_fold_is_deterministic() {
    // Two folds of the same trace render byte-identically; the fold is
    // serial over an already-total event order, so thread count cannot
    // enter the picture by construction.
    let instance = PaperScenario::table1(8.0).generate(5).unwrap().instance;
    let run = run_traced_with_provenance(&instance, "vdover", true).unwrap();
    let events = parse_trace(&run.jsonl);
    let a = ValueLedger::from_events(&events)
        .attribute(&instance.jobs)
        .unwrap();
    let b = ValueLedger::from_events(&events)
        .attribute(&instance.jobs)
        .unwrap();
    assert_eq!(a.render(), b.render());
    assert_eq!(a.total_value.to_bits(), b.total_value.to_bits());
}

#[test]
fn empirical_ratio_never_violates_the_paper_bounds_on_table1() {
    // Short-horizon Table I instances stay under the exact-solver job
    // limit, so the denominator is the true optimum and the measured ratio
    // is conclusive: V-Dover must sit in [guarantee, 1].
    for lambda in [4.0, 8.0, 12.0] {
        for seed in 1..4 {
            let mut scenario = PaperScenario::table1(lambda);
            scenario.horizon = 4.0;
            let instance = scenario.generate(seed).unwrap().instance;
            let (c_lo, c_hi) = instance.capacity.bounds();
            let k = instance.importance_ratio().unwrap_or(7.0);
            let delta = instance.delta().max(1.0 + 1e-9);
            for scheduler in ["vdover", "dover-lo", "edf"] {
                let mut s = cloudsched::sched::by_name(scheduler, k, delta, c_lo, c_hi).unwrap();
                let run = simulate(
                    &instance.jobs,
                    &instance.capacity,
                    &mut *s,
                    RunOptions::lean(),
                );
                let report = measure_ratio(&instance, run.value, scheduler);
                assert!(
                    !report.exceeds_opt,
                    "{scheduler} λ={lambda} seed={seed}: online beat the optimum \
                     (ratio {:.6}) — solver or simulator is wrong",
                    report.ratio
                );
                // Only V-Dover carries the Theorem 3 guarantee.
                if scheduler == "vdover" {
                    assert!(
                        !report.violates_bound,
                        "{scheduler} λ={lambda} seed={seed}: ratio {:.6} fell below \
                         the guarantee {:.6}",
                        report.ratio, report.guarantee
                    );
                }
            }
        }
    }
}
