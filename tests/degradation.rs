//! Integration tests for the graceful-degradation layer: corrupt streams,
//! capacity-SLA dips, policy semantics and chaos-campaign determinism.
//!
//! These pin the PR's acceptance criteria:
//!
//! * a `Strict` run aborts on the first detected fault with a typed error;
//! * a `Degrade` run quarantines corruption, survives a below-`c_lo` dip
//!   with no panics and no audit violations, and accrues strictly more
//!   value than the `Strict` abort on the same seed;
//! * the fault-free path through the degraded kernel is byte-identical to
//!   the plain traced kernel.

use cloudsched::analysis::adversary::{CorruptRound, TrapParams};
use cloudsched::faults::{chaos_trace, run_campaign, ChaosConfig, FaultPlan};
use cloudsched::obs::JsonlTracer;
use cloudsched::prelude::*;
use cloudsched::sim::{audit::certify_admissibility, DegradationPolicy, Run, WatchdogConfig};
use cloudsched_core::CoreError;

fn corrupt_round() -> CorruptRound {
    CorruptRound::build(TrapParams {
        k: 7.0,
        delta: 5.0,
        window: 1.0,
        fillers: 10,
    })
    .unwrap()
}

fn degraded(
    jobs: &JobSet,
    capacity: &PiecewiseConstant,
    scheduler: &str,
    policy: DegradationPolicy,
) -> cloudsched::sim::DegradedOutcome {
    let (c_lo, c_hi) = capacity.bounds();
    let mut sched =
        cloudsched::sched::by_name(scheduler, 7.0, (c_hi / c_lo).max(1.0 + 1e-9), c_lo, c_hi)
            .unwrap();
    let options = RunOptions {
        record_schedule: true,
        ..RunOptions::lean()
    };
    let cfg = WatchdogConfig {
        max_retries: 3,
        k_limit: Some(7.0),
    };
    Run::new(jobs, capacity, options)
        .watchdog(policy, cfg, None)
        .run_degraded(&mut *sched)
}

#[test]
fn strict_aborts_on_the_first_corrupt_release_with_a_typed_error() {
    let round = corrupt_round();
    let out = degraded(
        &round.jobs,
        &round.capacity,
        "edf",
        DegradationPolicy::Strict,
    );
    // The bait (id 0) releases first at t = 0 and violates Def. 4.
    match out.aborted {
        Some(CoreError::InadmissibleJob { id, .. }) => assert_eq!(id, 0),
        other => panic!("expected InadmissibleJob abort, got {other:?}"),
    }
    assert!(out.stats.faults_detected >= 1);
    assert_eq!(out.stats.quarantined, 0, "Strict never quarantines");
}

#[test]
fn degrade_quarantines_corruption_and_keeps_the_clean_value() {
    let round = corrupt_round();
    let out = degraded(
        &round.jobs,
        &round.capacity,
        "edf",
        DegradationPolicy::Degrade,
    );
    assert!(
        out.aborted.is_none(),
        "Degrade must not abort: {:?}",
        out.aborted
    );
    assert_eq!(
        out.stats.quarantined,
        round.corrupt_ids.len(),
        "exactly the bait and the duplicate are quarantined"
    );
    assert_eq!(out.stats.faults_detected, round.corrupt_ids.len());
    assert!(
        out.audit_errors.is_empty(),
        "degraded schedule must stay audit-clean: {:?}",
        out.audit_errors
    );
    // The clean fillers all fit at capacity δ; their value is collected.
    assert!(
        (out.report.value - round.clean_value).abs() < 1e-9,
        "clean value {} not recovered (got {})",
        round.clean_value,
        out.report.value
    );
    // The Def-4 certifier agrees with the watchdog's verdict: the full
    // stream is corrupt, the stream minus the corrupt ids is certified.
    assert!(certify_admissibility(&round.jobs, 1.0).is_violated());
    let clean: Vec<(f64, f64, f64, f64)> = round
        .jobs
        .iter()
        .filter(|j| !round.corrupt_ids.contains(&j.id))
        .map(|j| (j.release.as_f64(), j.deadline.as_f64(), j.workload, j.value))
        .collect();
    let clean_set = JobSet::from_tuples(&clean).unwrap();
    assert!(certify_admissibility(&clean_set, 1.0).is_certified());
}

#[test]
fn best_effort_logs_and_schedules_everything() {
    let round = corrupt_round();
    let out = degraded(
        &round.jobs,
        &round.capacity,
        "edf",
        DegradationPolicy::BestEffort,
    );
    assert!(out.aborted.is_none());
    assert_eq!(out.stats.quarantined, 0, "BestEffort never quarantines");
    assert!(
        out.stats.faults_detected >= round.corrupt_ids.len(),
        "faults are still detected and logged"
    );
}

#[test]
fn the_fault_free_path_is_byte_identical_to_the_plain_kernel() {
    let instance = PaperScenario::table1(6.0).generate(11).unwrap().instance;
    let spec = SchedulerSpec::for_instance("vdover", &instance).unwrap();

    let mut plain_sched = spec.build();
    let mut plain_tracer = JsonlTracer::new(Vec::new());
    let plain = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
        .tracer(&mut plain_tracer)
        .run(&mut *plain_sched);

    let mut deg_sched = spec.build();
    let mut deg_tracer = JsonlTracer::new(Vec::new());
    let out = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
        .tracer(&mut deg_tracer)
        .watchdog(DegradationPolicy::Degrade, WatchdogConfig::default(), None)
        .run_degraded(&mut *deg_sched);

    assert!(out.aborted.is_none());
    assert_eq!(out.stats.faults_detected, 0);
    assert_eq!(out.stats.quarantined, 0);
    assert_eq!(out.stats.sla_violations, 0);
    assert_eq!(out.report.value, plain.value);
    assert_eq!(out.report.completed, plain.completed);
    let plain_jsonl = plain_tracer.finish().unwrap();
    let deg_jsonl = deg_tracer.finish().unwrap();
    assert_eq!(
        String::from_utf8(plain_jsonl).unwrap(),
        String::from_utf8(deg_jsonl).unwrap(),
        "a clean run through the degraded kernel must trace identically"
    );
}

/// The PR's headline acceptance test: a below-`c_lo` capacity dip breaks
/// the SLA mid-run. `Strict` aborts at the dip and forfeits everything
/// released after it; `Degrade` re-estimates the floor, keeps scheduling,
/// finishes audit-clean and accrues strictly more value on the same input.
#[test]
fn under_an_sla_dip_degrade_strictly_beats_strict() {
    // J0 completes before the dip under either policy; J1 releases after
    // the dip, which only a surviving kernel can see.
    let jobs = JobSet::from_tuples(&[(0.0, 10.0, 5.0, 5.0), (30.0, 40.0, 5.0, 5.0)]).unwrap();
    // Physical rate dips to 0.5 on [20, 25) while the declared class keeps
    // promising C(1, 1) — a capacity-SLA violation.
    let capacity = PiecewiseConstant::from_durations(&[(20.0, 1.0), (5.0, 0.5), (1.0, 1.0)])
        .unwrap()
        .with_asserted_bounds(1.0, 1.0)
        .unwrap();

    let strict = degraded(&jobs, &capacity, "edf", DegradationPolicy::Strict);
    match strict.aborted {
        Some(CoreError::CapacitySlaViolation { rate, .. }) => {
            assert!((rate - 0.5).abs() < 1e-12)
        }
        other => panic!("expected CapacitySlaViolation abort, got {other:?}"),
    }
    assert!(
        (strict.report.value - 5.0).abs() < 1e-9,
        "Strict keeps only J0"
    );

    let degrade = degraded(&jobs, &capacity, "edf", DegradationPolicy::Degrade);
    assert!(degrade.aborted.is_none(), "Degrade survives the dip");
    assert!(
        degrade.audit_errors.is_empty(),
        "{:?}",
        degrade.audit_errors
    );
    assert!(degrade.stats.sla_violations >= 1);
    assert!(degrade.stats.clo_reestimates >= 1);
    assert!((degrade.stats.effective_c_lo - 0.5).abs() < 1e-12);
    assert!(
        degrade.report.value > strict.report.value,
        "Degrade ({}) must strictly beat Strict ({})",
        degrade.report.value,
        strict.report.value
    );
    assert!(
        (degrade.report.value - 10.0).abs() < 1e-9,
        "both jobs complete"
    );
}

/// Golden chaos-trace regression. The checked-in file was produced by (and
/// CI re-checks with):
///
/// ```text
/// cloudsched chaos --lambda 6 --seed 3 --seeds 1 --plan harsh \
///     --policy degrade --trace-out tests/golden/chaos_seed3_degrade.jsonl
/// ```
///
/// Any drift in fault injection, watchdog decisions, kernel event order or
/// the JSONL encoding shows up as a byte diff. Regenerate deliberately and
/// review the diff if a change is intentional.
#[test]
fn chaos_trace_matches_the_checked_in_golden() {
    const GOLDEN: &str = include_str!("golden/chaos_seed3_degrade.jsonl");
    let cfg = ChaosConfig {
        lambda: 6.0,
        first_seed: 3,
        num_seeds: 1,
        scheduler: "vdover".to_string(),
        plan: FaultPlan::harsh(),
        policies: vec![DegradationPolicy::Degrade],
        threads: 1,
    };
    let trace = chaos_trace(&cfg, 3, DegradationPolicy::Degrade).unwrap();
    if trace != GOLDEN {
        for (idx, (got, want)) in trace.lines().zip(GOLDEN.lines()).enumerate() {
            assert_eq!(
                got,
                want,
                "first chaos-trace divergence at line {}",
                idx + 1
            );
        }
        assert_eq!(
            trace.lines().count(),
            GOLDEN.lines().count(),
            "trace is a strict prefix/extension of the golden"
        );
        panic!("traces differ but no differing line found — check trailing bytes");
    }
    // The golden must actually exercise the fault machinery.
    assert!(GOLDEN.contains("\"ev\":\"fault\""));
    assert!(GOLDEN.contains("\"ev\":\"quarantine\""));
    assert!(GOLDEN.contains("\"ev\":\"oracle_down\""));
}

#[test]
fn chaos_campaigns_and_traces_replay_bit_for_bit() {
    let cfg = ChaosConfig {
        lambda: 4.0,
        first_seed: 3,
        num_seeds: 2,
        scheduler: "vdover".to_string(),
        plan: FaultPlan::harsh(),
        ..ChaosConfig::default()
    };
    let a = run_campaign(&cfg).unwrap();
    let b = run_campaign(&cfg).unwrap();
    assert_eq!(a.render(), b.render());
    assert_eq!(a.audit_errors(), 0, "no degraded run may violate the audit");
    assert!(a.aborts(DegradationPolicy::Strict) > 0);
    assert_eq!(a.aborts(DegradationPolicy::Degrade), 0);
    assert!(
        a.mean_retention(DegradationPolicy::Degrade) >= a.mean_retention(DegradationPolicy::Strict)
    );
    let t1 = chaos_trace(&cfg, 3, DegradationPolicy::Degrade).unwrap();
    let t2 = chaos_trace(&cfg, 3, DegradationPolicy::Degrade).unwrap();
    assert_eq!(t1, t2, "chaos traces must be byte-stable");
}

/// The campaign's `threads` knob is wall-clock only: fanning the seed sweep
/// out over a work-stealing pool must reproduce the serial report bit for
/// bit, including under heavy oversubscription (more threads than seeds).
#[test]
fn threaded_chaos_campaigns_replay_the_serial_report_bit_for_bit() {
    let cfg = ChaosConfig {
        lambda: 4.0,
        first_seed: 3,
        num_seeds: 3,
        ..ChaosConfig::default()
    };
    let serial = run_campaign(&cfg).unwrap();
    for threads in [2, 4, 16] {
        let threaded = run_campaign(&ChaosConfig {
            threads,
            ..cfg.clone()
        })
        .unwrap();
        assert_eq!(
            serial.render(),
            threaded.render(),
            "campaign report drifted at threads={threads}"
        );
    }
}
