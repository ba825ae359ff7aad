//! Integration tests for the crash-safe streaming admission service: the
//! serve/journal/snapshot/recover loop and the commitment audit.
//!
//! These pin the PR's acceptance criteria:
//!
//! * on a clean stream the service run is byte-identical to the batch
//!   kernel (trace and report);
//! * for **every** preset crash point, recovering from the durable journal
//!   prefix yields a final trace — and therefore a value-loss ledger —
//!   byte-identical to the uninterrupted run, with and without snapshots,
//!   and for schedulers that cannot snapshot at all (genesis replay);
//! * the first failed journal write stops the service with a typed
//!   `JournalWrite` error, with no retry;
//! * the commitment audit proves zero reneged admissions across Table I
//!   loads under clean and mildly corrupted streams for every policy that
//!   completes.

mod common;

use cloudsched::faults::{corrupt_stream, StreamFaultConfig};
use cloudsched::insight::ValueLedger;
use cloudsched::obs::MemJournal;
use cloudsched::prelude::*;
use cloudsched::sched::by_name;
use cloudsched::sim::{
    audit::commitments::audit_commitments, journal_header, recover, serve, DecisionReason,
    DegradationPolicy, Run, ServiceConfig, ServiceDecision,
};
use cloudsched_core::rng::{Pcg32, Rng};
use cloudsched_core::CoreError;
use cloudsched_obs::RingTracer;
use common::{fnv1a_bytes, FNV_OFFSET};

/// Renders a job set as the service's JSONL arrival stream, ordered by
/// release time (the admission contract).
fn stream_text(jobs: &JobSet) -> String {
    let mut out = String::new();
    for j in jobs.iter_by_release() {
        out.push_str(&format!(
            "{{\"r\":{},\"d\":{},\"p\":{},\"v\":{}}}\n",
            j.release.as_f64(),
            j.deadline.as_f64(),
            j.workload,
            j.value
        ));
    }
    out
}

/// A small Table I workload: same generating distributions as the paper's
/// §IV setup, with the horizon shortened so tests stay fast.
fn small_table1(lambda: f64, horizon: f64, seed: u64) -> Instance {
    let scenario = PaperScenario {
        horizon,
        ..PaperScenario::table1(lambda)
    };
    scenario.generate(seed).unwrap().instance
}

fn events_jsonl(events: &[cloudsched::obs::TraceEvent]) -> Vec<String> {
    events.iter().map(|e| e.to_jsonl()).collect()
}

fn ledger_render(events: &[cloudsched::obs::TraceEvent], jobs: &JobSet) -> String {
    ValueLedger::from_events(events)
        .attribute(jobs)
        .expect("ledger attribution must conserve value")
        .render()
}

/// A clean stream (every window fits its workload at `c_lo`, no two
/// arrivals alike, value densities within a factor of 2) of overloaded
/// bursts separated by idle gaps of 1–3 time units, on a profile that
/// alternates rate 1 and 2 every half unit. A gap thus spans several
/// capacity boundaries, and the bursts leave stale completions (and LLF
/// timers) past every pending deadline, which carry the clock into it.
fn gapped_clean_instance(seed: u64) -> Instance {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0x6a90_0000);
    let mut tuples = Vec::new();
    let mut start = 0.0;
    for _ in 0..5 {
        let mut end: f64 = start;
        let mut burst: Vec<(f64, f64, f64, f64)> = (0..2 + rng.next_index(3))
            .map(|_| {
                let release = start + rng.next_f64();
                let window = 0.5 + 2.0 * rng.next_f64();
                let workload = window * (0.4 + 0.5 * rng.next_f64());
                let value = workload * (1.0 + rng.next_f64());
                end = end.max(release + window);
                (release, release + window, workload, value)
            })
            .collect();
        burst.sort_by(|a, b| a.0.total_cmp(&b.0));
        tuples.extend(burst);
        start = end + 1.0 + 2.0 * rng.next_f64();
    }
    let segments: Vec<(f64, f64)> = (0..2 * start.ceil() as usize + 2)
        .map(|i| (0.5, [1.0, 2.0][i % 2]))
        .collect();
    Instance::new(
        JobSet::from_tuples(&tuples).unwrap(),
        PiecewiseConstant::from_durations(&segments)
            .unwrap()
            .with_declared_bounds(1.0, 2.0)
            .unwrap(),
    )
}

/// A clean stream on a quarter-unit grid: releases, deadlines and the
/// rate switches (1 and 2, every quarter or half unit) all fall on it, so
/// arrivals share instants with each other, with deadlines and with
/// capacity boundaries. Ids follow release order; workloads and values
/// are off-grid, so no two arrivals are alike.
fn co_timed_clean_instance(seed: u64) -> Instance {
    let mut rng = Pcg32::seed_from_u64(seed ^ 0xc071_0000);
    let mut release = 0.0;
    let tuples: Vec<(f64, f64, f64, f64)> = (0..14)
        .map(|_| {
            release += [0.0, 0.0, 0.25, 0.5][rng.next_index(4)];
            let window = 0.5 + 0.25 * rng.next_index(8) as f64;
            let workload = window * (0.3 + 0.6 * rng.next_f64());
            let value = workload * (1.0 + rng.next_f64());
            (release, release + window, workload, value)
        })
        .collect();
    let segments: Vec<(f64, f64)> = (0..48)
        .map(|i| ([0.25, 0.5][rng.next_index(2)], [1.0, 2.0][i % 2]))
        .collect();
    Instance::new(
        JobSet::from_tuples(&tuples).unwrap(),
        PiecewiseConstant::from_durations(&segments)
            .unwrap()
            .with_declared_bounds(1.0, 2.0)
            .unwrap(),
    )
}

/// `serve` drives the kernel with the calls a batch run makes (pump to a
/// release, then seed the job), so on a clean stream its trace and value
/// are byte-identical to a traced batch run's. The cases: a Table I
/// workload; a stale completion of job 0 at 3.375 that crosses the rate
/// change at 3.25 after the last pending deadline; seeded gapped streams
/// whose idle gaps outlast a capacity segment; and seeded quarter-grid
/// streams with co-timed releases, deadlines and rate switches.
#[test]
fn serve_matches_batch_kernel_on_clean_stream() {
    let stale_completion = Instance::new(
        JobSet::from_tuples(&[
            (0.0, 3.0, 2.0, 2.0),
            (1.0, 2.5, 1.5, 3.0),
            (5.0, 7.0, 1.0, 1.0),
        ])
        .unwrap(),
        PiecewiseConstant::from_durations(&[(3.25, 1.0), (1.0, 2.0)])
            .unwrap()
            .with_declared_bounds(1.0, 2.0)
            .unwrap(),
    );
    let mut cases = vec![
        ("table1".to_string(), small_table1(3.0, 8.0, 11)),
        ("stale-completion".to_string(), stale_completion),
    ];
    cases.extend((0..16).map(|seed| (format!("gapped/{seed}"), gapped_clean_instance(seed))));
    cases.extend((0..8).map(|seed| (format!("co-timed/{seed}"), co_timed_clean_instance(seed))));
    assert!(
        cases[0].1.job_count() >= 8,
        "scenario should be non-trivial"
    );

    for (case, instance) in &cases {
        let (c_lo, c_hi) = instance.capacity.bounds();
        for scheduler in ["edf", "dover", "vdover", "llf"] {
            let mut batch_ring = RingTracer::new(4096);
            let mut batch_sched = by_name(scheduler, 7.0, 5.0, c_lo, c_hi).unwrap();
            let batch = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
                .tracer(&mut batch_ring)
                .run(batch_sched.as_mut());

            let cfg = ServiceConfig::new(scheduler, 7.0);
            let mut sched = by_name(scheduler, 7.0, 5.0, c_lo, c_hi).unwrap();
            let outcome = serve(
                &instance.capacity,
                &cfg,
                sched.as_mut(),
                &stream_text(&instance.jobs),
                None,
            )
            .unwrap();

            assert!(!outcome.crashed);
            assert!(outcome.aborted.is_none());
            assert!(
                outcome.decisions.iter().all(|d| d.admitted),
                "{case}: a clean admissible stream admits everything"
            );
            let report = outcome.report.as_ref().unwrap();
            assert_eq!(
                report.value.to_bits(),
                batch.value.to_bits(),
                "{case}/{scheduler}: value"
            );
            assert_eq!(report.completed, batch.completed, "{case}/{scheduler}");
            let batch_lines: Vec<String> = batch_ring.events().map(|e| e.to_jsonl()).collect();
            assert_eq!(
                events_jsonl(&outcome.events),
                batch_lines,
                "{case}/{scheduler}: streaming admission must be trace-identical to the batch kernel"
            );
        }
    }
}

/// Runs the full crash sweep for one scheduler/cadence combination: for
/// every crash point, the run is served with a seeded crash, then recovered
/// from the durable journal prefix; ledger and trace must match the
/// uninterrupted run byte for byte.
fn crash_sweep(scheduler: &str, snapshot_every: u64) {
    let mut cfg = ServiceConfig::new(scheduler, 7.0);
    cfg.snapshot_every = snapshot_every;
    crash_sweep_on(&small_table1(4.0, 4.0, 23), &cfg);
}

/// The crash sweep over any instance and service config; returns the
/// uninterrupted run's decisions.
fn crash_sweep_on(instance: &Instance, cfg: &ServiceConfig) -> Vec<ServiceDecision> {
    let (scheduler, snapshot_every) = (cfg.scheduler.as_str(), cfg.snapshot_every);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let stream = stream_text(&instance.jobs);

    let mut sched = by_name(scheduler, 7.0, 5.0, c_lo, c_hi).unwrap();
    let golden = serve(&instance.capacity, cfg, sched.as_mut(), &stream, None).unwrap();
    assert!(!golden.crashed && golden.aborted.is_none());
    let golden_lines = events_jsonl(&golden.events);
    let golden_ledger = ledger_render(&golden.events, &golden.jobs);

    let n = golden.arrivals_applied;
    assert!(n >= 6, "sweep needs several crash points, got {n}");
    for crash_at in 0..n {
        let mut cfg = cfg.clone();
        cfg.crash_after = Some(crash_at);
        let mut journal = MemJournal::new();
        let mut sched = by_name(scheduler, 7.0, 5.0, c_lo, c_hi).unwrap();
        let crashed = serve(
            &instance.capacity,
            &cfg,
            sched.as_mut(),
            &stream,
            Some(&mut journal),
        )
        .unwrap();
        assert!(crashed.crashed, "crash point {crash_at} must trip");
        assert!(
            crashed.report.is_none(),
            "a crashed run has no final report"
        );
        assert_eq!(crashed.arrivals_applied, crash_at + 1);

        // Only the durable prefix survives the crash.
        let tail = journal.synced_lines().join("\n");
        let header = journal_header(&tail).unwrap();
        assert_eq!(header.scheduler, scheduler);
        let mut fresh = by_name(&header.scheduler, header.k, 5.0, c_lo, c_hi).unwrap();
        let recovered = recover(&instance.capacity, fresh.as_mut(), &tail, &stream).unwrap();

        assert!(!recovered.crashed && recovered.aborted.is_none());
        assert_eq!(recovered.journaled_arrivals, crash_at + 1);
        assert_eq!(recovered.arrivals_applied, n);
        assert_eq!(
            ledger_render(&recovered.events, &recovered.jobs),
            golden_ledger,
            "{scheduler}/cadence {snapshot_every}: recovered ledger diverges \
             after crash at arrival {crash_at}"
        );
        assert_eq!(
            events_jsonl(&recovered.events),
            golden_lines,
            "{scheduler}/cadence {snapshot_every}: recovered trace diverges \
             after crash at arrival {crash_at}"
        );
        assert_eq!(recovered.decisions, golden.decisions);
    }
    golden.decisions
}

#[test]
fn crash_recovery_is_byte_identical_with_snapshots() {
    crash_sweep("vdover", 2);
}

#[test]
fn crash_recovery_is_byte_identical_without_snapshots() {
    // snapshot_every = 0 disables snapshots entirely: recovery replays the
    // whole journal from genesis.
    crash_sweep("vdover", 0);
}

#[test]
fn crash_recovery_replays_from_genesis_when_scheduler_cannot_snapshot() {
    // EDF keeps no snapshotable state (`snapshot_state` → None), so the
    // cadence degrades to genesis replay — journaled explicitly, see
    // below — and the recovered result must still be byte-identical.
    crash_sweep("edf", 3);
}

#[test]
fn crash_recovery_is_byte_identical_when_backpressure_sheds_after_a_restore() {
    // A bounded queue on a dense stream: recovery must rebuild the set of
    // live admissions from the snapshot, or the first post-restore
    // backpressure verdict diverges from the journaled one.
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.queue_cap = 2;
    cfg.snapshot_every = 2;
    let decisions = crash_sweep_on(&small_table1(12.0, 4.0, 23), &cfg);
    let shed = decisions
        .iter()
        .filter(|d| d.reason == DecisionReason::Shed)
        .count();
    assert!(shed >= 10, "the stream must shed repeatedly, shed {shed}");
}

#[test]
fn unsupported_snapshot_cadence_is_journaled_once_and_flagged() {
    let instance = small_table1(4.0, 4.0, 23);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let stream = stream_text(&instance.jobs);
    let mut cfg = ServiceConfig::new("edf", 7.0);
    cfg.snapshot_every = 2;

    let mut journal = MemJournal::new();
    let mut sched = by_name("edf", 7.0, 5.0, c_lo, c_hi).unwrap();
    let outcome = serve(
        &instance.capacity,
        &cfg,
        sched.as_mut(),
        &stream,
        Some(&mut journal),
    )
    .unwrap();
    assert!(
        outcome.snapshot_unsupported,
        "EDF cannot checkpoint, so a configured cadence must raise the flag"
    );
    let lines = journal.synced_lines();
    let records: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("{\"svc\":\"snapshot-unsupported\""))
        .collect();
    assert_eq!(
        records,
        vec![&"{\"svc\":\"snapshot-unsupported\",\"seq\":1}".to_string()],
        "exactly one record, at the first missed cadence point"
    );
    assert!(
        !lines
            .iter()
            .any(|l| l.starts_with("{\"svc\":\"snapshot\",")),
        "no snapshot blob may be journaled alongside the unsupported record"
    );

    // The journal stays recoverable, and the replayed run re-derives the
    // flag (genesis replay hits the same cadence points).
    let tail = lines.join("\n");
    let mut fresh = by_name("edf", 7.0, 5.0, c_lo, c_hi).unwrap();
    let recovered = recover(&instance.capacity, fresh.as_mut(), &tail, &stream).unwrap();
    assert!(recovered.snapshot_unsupported);
    assert_eq!(
        events_jsonl(&recovered.events),
        events_jsonl(&outcome.events)
    );

    // A snapshot-capable scheduler on the same cadence never raises it.
    let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let mut cfg = cfg.clone();
    cfg.scheduler = "vdover".into();
    let outcome = serve(&instance.capacity, &cfg, sched.as_mut(), &stream, None).unwrap();
    assert!(!outcome.snapshot_unsupported);
}

#[test]
fn recovery_rejects_a_journal_for_a_different_capacity_class() {
    let instance = small_table1(4.0, 3.0, 7);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let stream = stream_text(&instance.jobs);
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.crash_after = Some(1);
    let mut journal = MemJournal::new();
    let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    serve(
        &instance.capacity,
        &cfg,
        sched.as_mut(),
        &stream,
        Some(&mut journal),
    )
    .unwrap();
    let tail = journal.synced_lines().join("\n");

    // Same stream, different declared capacity class: refuse to replay.
    let other = Constant::new(2.0).unwrap();
    let mut fresh = by_name("vdover", 7.0, 5.0, 2.0, 2.0).unwrap();
    match recover(&other, fresh.as_mut(), &tail, &stream) {
        Err(CoreError::CorruptJournal { reason, .. }) => {
            assert!(reason.contains("capacity class"), "got {reason:?}");
        }
        other => panic!("expected CorruptJournal, got {other:?}"),
    }
}

#[test]
fn a_journal_failure_stops_the_service_at_once() {
    let instance = small_table1(4.0, 3.0, 5);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let stream = stream_text(&instance.jobs);
    let cfg = ServiceConfig::new("vdover", 7.0);

    // One injected failure on the first append (the open record) ends the
    // run. A retry would have appended the record on its second attempt.
    let mut journal = MemJournal::new();
    journal.fail_next(1);
    let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    match serve(
        &instance.capacity,
        &cfg,
        sched.as_mut(),
        &stream,
        Some(&mut journal),
    ) {
        Err(CoreError::JournalWrite { reason }) => assert!(reason.contains("injected")),
        other => panic!("expected JournalWrite, got {other:?}"),
    }
    assert!(journal.lines().is_empty(), "{:?}", journal.lines());
}

#[test]
fn strict_policy_aborts_on_the_first_corrupt_arrival() {
    let instance = small_table1(4.0, 3.0, 9);
    let (c_lo, c_hi) = instance.capacity.bounds();
    // Append an exact parameter copy of the last-released job: same
    // release keeps the stream ordered, and an exact (r, d, p, v) copy is
    // the watchdog's duplicate-release fault.
    let last = instance.jobs.iter_by_release().last().unwrap();
    let mut stream = stream_text(&instance.jobs);
    stream.push_str(&format!(
        "{{\"r\":{},\"d\":{},\"p\":{},\"v\":{}}}\n",
        last.release.as_f64(),
        last.deadline.as_f64(),
        last.workload,
        last.value
    ));

    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.policy = DegradationPolicy::Strict;
    let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let outcome = serve(&instance.capacity, &cfg, sched.as_mut(), &stream, None).unwrap();
    let err = outcome.aborted.expect("Strict must abort on corruption");
    assert!(
        matches!(err, CoreError::DuplicateRelease { .. }),
        "got {err:?}"
    );
    let final_decision = outcome.decisions.last().unwrap();
    assert!(!final_decision.admitted && final_decision.reason.is_fault());
    assert!(
        outcome
            .events
            .iter()
            .any(|e| matches!(e, cloudsched::obs::TraceEvent::PolicyAbort { .. })),
        "the abort must be visible in the trace"
    );
}

/// An admitted arrival followed by a co-timed exact duplicate. Seeding
/// releases the admitted job at once, so under `Degrade` every `arrival`
/// reaches the trace in sequence order, and under `Strict` the admitted
/// job's `arrival` precedes the `policy_abort` the duplicate causes.
#[test]
fn a_co_timed_duplicate_follows_the_admitted_arrival_into_the_trace() {
    use cloudsched::obs::TraceEvent;
    let stream = "{\"r\":0,\"d\":4,\"p\":1,\"v\":1}\n\
                  {\"r\":1,\"d\":3,\"p\":1,\"v\":2}\n\
                  {\"r\":1,\"d\":3,\"p\":1,\"v\":2}\n\
                  {\"r\":2,\"d\":5,\"p\":1,\"v\":1}\n";
    let capacity = Constant::new(1.0).unwrap();
    let arrivals = |events: &[TraceEvent]| -> Vec<(usize, u64)> {
        (0..events.len())
            .filter_map(|i| match events[i] {
                TraceEvent::Arrival { job, .. } => Some((i, job.0)),
                _ => None,
            })
            .collect()
    };

    let mut cfg = ServiceConfig::new("vdover", 7.0);
    let mut sched = by_name("vdover", 7.0, 5.0, 1.0, 1.0).unwrap();
    let outcome = serve(&capacity, &cfg, sched.as_mut(), stream, None).unwrap();
    let verdicts: Vec<(bool, DecisionReason)> = outcome
        .decisions
        .iter()
        .map(|d| (d.admitted, d.reason))
        .collect();
    assert_eq!(
        verdicts[1..3],
        [
            (true, DecisionReason::Admit),
            (false, DecisionReason::Duplicate)
        ]
    );
    let order: Vec<u64> = arrivals(&outcome.events).iter().map(|a| a.1).collect();
    assert_eq!(
        order,
        [0, 1, 2, 3],
        "degrade: arrivals out of sequence order"
    );

    cfg.policy = DegradationPolicy::Strict;
    let mut sched = by_name("vdover", 7.0, 5.0, 1.0, 1.0).unwrap();
    let outcome = serve(&capacity, &cfg, sched.as_mut(), stream, None).unwrap();
    assert!(matches!(
        outcome.aborted,
        Some(CoreError::DuplicateRelease { id: 2, of: 1 })
    ));
    let abort = outcome
        .events
        .iter()
        .position(|e| matches!(e, TraceEvent::PolicyAbort { .. }))
        .expect("the abort is in the trace");
    let admitted = arrivals(&outcome.events)
        .into_iter()
        .find(|a| a.1 == 1)
        .expect("strict: the admitted job 1 never reached the trace");
    assert!(
        admitted.0 < abort,
        "strict: job 1's arrival at event {} follows the abort at {abort}",
        admitted.0
    );
}

#[test]
fn backpressure_follows_the_degradation_policy() {
    // Five co-released admissible jobs against queue_cap = 2.
    let jobs = JobSet::from_tuples(&[
        (0.0, 10.0, 2.0, 2.0),
        (0.0, 11.0, 2.0, 3.0),
        (0.0, 12.0, 2.0, 4.0),
        (0.0, 13.0, 2.0, 5.0),
        (0.0, 14.0, 2.0, 6.0),
    ])
    .unwrap();
    let capacity = Constant::new(1.0).unwrap();
    let stream = stream_text(&jobs);
    let mut cfg = ServiceConfig::new("edf", 7.0);
    cfg.queue_cap = 2;

    // Degrade: overflow arrivals are shed (rejected, value surrendered).
    cfg.policy = DegradationPolicy::Degrade;
    let mut sched = by_name("edf", 7.0, 5.0, 1.0, 1.0).unwrap();
    let outcome = serve(&capacity, &cfg, sched.as_mut(), &stream, None).unwrap();
    let shed: Vec<_> = outcome
        .decisions
        .iter()
        .filter(|d| !d.admitted && d.reason == DecisionReason::Shed)
        .collect();
    assert_eq!(shed.len(), 3, "three arrivals exceed the live cap of 2");
    assert!(outcome.aborted.is_none());
    // Shed value lands in the ledger's expired-in-queue bucket and total
    // value is conserved (render would panic internally otherwise).
    let ledger = ledger_render(&outcome.events, &outcome.jobs);
    assert!(ledger.contains("value-loss ledger"));

    // Strict: the first overflow aborts with a typed error.
    cfg.policy = DegradationPolicy::Strict;
    let mut sched = by_name("edf", 7.0, 5.0, 1.0, 1.0).unwrap();
    let outcome = serve(&capacity, &cfg, sched.as_mut(), &stream, None).unwrap();
    match outcome.aborted {
        Some(CoreError::QueueOverflow { seq, live, cap }) => {
            assert_eq!((seq, live, cap), (2, 2, 2));
        }
        other => panic!("expected QueueOverflow, got {other:?}"),
    }

    // BestEffort: everything is admitted regardless of the cap.
    cfg.policy = DegradationPolicy::BestEffort;
    let mut sched = by_name("edf", 7.0, 5.0, 1.0, 1.0).unwrap();
    let outcome = serve(&capacity, &cfg, sched.as_mut(), &stream, None).unwrap();
    assert!(outcome.decisions.iter().all(|d| d.admitted));
    assert!(outcome.aborted.is_none());
}

#[test]
fn commitments_hold_across_table1_loads() {
    // Table I loads (shortened horizon) under clean and mildly corrupted
    // streams: the admission commitment — every admitted clean job reaches
    // a terminal event, no rejected job is ever scheduled — must hold with
    // zero reneged jobs for every policy that completes the run.
    let mild = StreamFaultConfig {
        inadmissible: 2,
        duplicates: 2,
        value_spikes: 1,
        spike_factor: 2.0,
    };
    for lambda in [2.0, 6.0, 14.0] {
        let instance = small_table1(lambda, 60.0 / lambda, 31 + lambda as u64);
        let (c_lo, c_hi) = instance.capacity.bounds();
        let streams = {
            let clean = stream_text(&instance.jobs);
            let (corrupted, injected) =
                corrupt_stream(&instance.jobs, &mild, c_lo, 7.0, 97).unwrap();
            assert!(!injected.is_empty());
            vec![("none", clean), ("mild", stream_text(&corrupted))]
        };
        for (plan, stream) in &streams {
            for policy in [DegradationPolicy::Degrade, DegradationPolicy::BestEffort] {
                let mut cfg = ServiceConfig::new("vdover", 7.0);
                cfg.policy = policy;
                cfg.snapshot_every = 8;
                let mut journal = MemJournal::new();
                let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
                let outcome = serve(
                    &instance.capacity,
                    &cfg,
                    sched.as_mut(),
                    stream,
                    Some(&mut journal),
                )
                .unwrap();
                assert!(outcome.aborted.is_none(), "λ={lambda} {plan} {policy:?}");
                let report = audit_commitments(&outcome.decisions, &outcome.events);
                assert!(
                    report.ok(),
                    "λ={lambda} plan={plan} {policy:?}: {}",
                    report.render()
                );
                assert!(report.reneged.is_empty());
                if *plan == "mild" && policy == DegradationPolicy::Degrade {
                    assert!(
                        outcome.decisions.iter().any(|d| d.reason.is_fault()),
                        "mild plan must surface at least one detected fault"
                    );
                }
            }
        }
    }
}

#[test]
fn recovery_of_an_uncrashed_journal_is_idempotent() {
    // Recovering a journal from a run that finished normally replays to
    // the same outcome: recovery is not only for crashes.
    let instance = small_table1(4.0, 3.0, 41);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let stream = stream_text(&instance.jobs);
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.snapshot_every = 2;
    let mut journal = MemJournal::new();
    let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let golden = serve(
        &instance.capacity,
        &cfg,
        sched.as_mut(),
        &stream,
        Some(&mut journal),
    )
    .unwrap();
    let body = journal.synced_lines().join("\n");
    let mut fresh = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let recovered = recover(&instance.capacity, fresh.as_mut(), &body, &stream).unwrap();
    assert_eq!(
        events_jsonl(&recovered.events),
        events_jsonl(&golden.events)
    );
    assert_eq!(
        ledger_render(&recovered.events, &recovered.jobs),
        ledger_render(&golden.events, &golden.jobs)
    );
}

/// FNV-1a 64 over a sequence of text lines (each followed by `\n`).
fn fnv_lines<'a>(lines: impl IntoIterator<Item = &'a str>) -> u64 {
    lines.into_iter().fold(FNV_OFFSET, |h, line| {
        fnv1a_bytes(fnv1a_bytes(h, line.as_bytes()), b"\n")
    })
}

/// Digest of everything `serve` produced that callers can observe: the
/// verdicts, the trace JSONL, the abort (if any) and the journal lines
/// that `keep` accepts.
fn serve_digest(
    outcome: &cloudsched::sim::ServiceOutcome,
    journal: &MemJournal,
    keep: impl Fn(&str) -> bool,
) -> u64 {
    let decisions: Vec<String> = outcome
        .decisions
        .iter()
        .map(|d| format!("{} {} {} {}", d.seq, d.job.0, d.admitted, d.reason.as_str()))
        .collect();
    let trace = events_jsonl(&outcome.events);
    let abort = format!("{:?}", outcome.aborted);
    fnv_lines(
        decisions
            .iter()
            .chain(trace.iter())
            .chain(std::iter::once(&abort))
            .map(String::as_str)
            .chain(
                journal
                    .lines()
                    .iter()
                    .map(String::as_str)
                    .filter(|l| keep(l)),
            ),
    )
}

/// Serves the corrupted 12-per-second Table I stream once per pinned
/// `(queue_cap, policy)` cell and digests each run with `keep` choosing
/// the journal lines.
fn pinned_cell_digests(
    cells: &[(usize, &'static str, u64)],
    keep: impl Fn(&str) -> bool + Copy,
) -> Vec<(usize, &'static str, u64)> {
    let instance = small_table1(12.0, 4.0, 23);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let mild = StreamFaultConfig {
        inadmissible: 2,
        duplicates: 2,
        value_spikes: 1,
        spike_factor: 2.0,
    };
    let (corrupted, _) = corrupt_stream(&instance.jobs, &mild, c_lo, 7.0, 97).unwrap();
    let stream = stream_text(&corrupted);

    let mut actual = Vec::new();
    for &(queue_cap, policy, _) in cells {
        let mut cfg = ServiceConfig::new("vdover", 7.0);
        cfg.queue_cap = queue_cap;
        cfg.policy = DegradationPolicy::parse(policy).unwrap();
        cfg.snapshot_every = 4;
        let mut journal = MemJournal::new();
        let mut sched = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
        let outcome = serve(
            &instance.capacity,
            &cfg,
            sched.as_mut(),
            &stream,
            Some(&mut journal),
        )
        .unwrap();
        actual.push((queue_cap, policy, serve_digest(&outcome, &journal, keep)));
    }
    actual
}

fn render_cells(rows: &[(usize, &str, u64)]) -> String {
    rows.iter()
        .map(|(cap, policy, h)| format!("({cap}, {policy:?}, {h:#018x}),\n"))
        .collect()
}

/// Everything `serve` writes except the snapshot records — decisions,
/// trace, abort, and the open / arrival / decision / trace journal lines —
/// is pinned to digests, last re-pinned when seeding a job came to release
/// it at once (an admitted job's trace lines now precede the next
/// arrival's records). A snapshot-format change must leave every cell
/// byte-identical.
#[test]
fn serve_outputs_outside_snapshots_match_the_pinned_digests() {
    const PINNED: [(usize, &str, u64); 12] = [
        (1, "strict", 0x765d_8aa0_6731_8ef2),
        (1, "degrade", 0x7352_4e2a_fc59_541c),
        (1, "best-effort", 0x161e_67e8_e361_dee5),
        (2, "strict", 0xccb2_eeac_949a_a7c6),
        (2, "degrade", 0x7140_3ec6_c609_1631),
        (2, "best-effort", 0x7841_3291_7049_f5c2),
        (12, "strict", 0x7155_e035_3543_b367),
        (12, "degrade", 0x0bfb_5e1a_2fd4_798e),
        (12, "best-effort", 0x480e_5f2d_ed1d_833d),
        (usize::MAX, "strict", 0x49d3_f5f7_ef74_2e39),
        (usize::MAX, "degrade", 0x52f3_8608_c303_ef20),
        (usize::MAX, "best-effort", 0x15e3_3738_6dab_9e5b),
    ];
    let actual = pinned_cell_digests(&PINNED, |l| !l.starts_with("{\"svc\":\"snapshot\""));
    assert_eq!(
        render_cells(&actual),
        render_cells(&PINNED),
        "service outputs outside the snapshot records diverge from the pinned digests"
    );
}

/// The admission path's full output, snapshot records included, is pinned
/// to digests (recorded with `csnap4` / `dover2` snapshot blobs). Any
/// change to the service core must keep every `(queue_cap, policy)` cell
/// byte-identical.
#[test]
fn serve_outputs_match_the_pinned_reference_digests() {
    const PINNED: [(usize, &str, u64); 12] = [
        (1, "strict", 0x765d_8aa0_6731_8ef2),
        (1, "degrade", 0x66a4_26b1_4c24_ee82),
        (1, "best-effort", 0x32a0_7843_7d71_70a1),
        (2, "strict", 0xccb2_eeac_949a_a7c6),
        (2, "degrade", 0x1326_bb0b_cb0a_643c),
        (2, "best-effort", 0xefde_d575_40c6_acd2),
        (12, "strict", 0x2f5c_d04a_43b9_ea1b),
        (12, "degrade", 0x942f_71aa_1ef3_d1fb),
        (12, "best-effort", 0xe450_45bb_146a_2409),
        (usize::MAX, "strict", 0xa55c_be2a_d33f_29b1),
        (usize::MAX, "degrade", 0x2993_c700_3b34_8fd9),
        (usize::MAX, "best-effort", 0xfd30_7421_b825_044f),
    ];
    let actual = pinned_cell_digests(&PINNED, |_| true);
    assert_eq!(
        render_cells(&actual),
        render_cells(&PINNED),
        "service outputs diverge from the pinned reference digests"
    );
}

/// Serves `stream` into a fresh in-memory journal, crashing after arrival
/// `crash_after`, and returns the durable journal lines.
fn crashed_journal(instance: &Instance, cfg: &ServiceConfig, crash_after: u64) -> Vec<String> {
    let (c_lo, c_hi) = instance.capacity.bounds();
    let mut cfg = cfg.clone();
    cfg.crash_after = Some(crash_after);
    let mut journal = MemJournal::new();
    let mut sched = by_name(&cfg.scheduler, cfg.k, 5.0, c_lo, c_hi).unwrap();
    let out = serve(
        &instance.capacity,
        &cfg,
        sched.as_mut(),
        &stream_text(&instance.jobs),
        Some(&mut journal),
    )
    .unwrap();
    assert!(out.crashed);
    journal.synced_lines().to_vec()
}

#[test]
fn journal_header_stops_at_the_open_record_and_recover_reports_the_corrupt_tail() {
    let instance = small_table1(4.0, 4.0, 23);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.snapshot_every = 2;
    let mut lines = crashed_journal(&instance, &cfg, 5);
    lines.push("{\"svc\":\"arrival\",\"seq\":6,\"r\":tor".to_string());
    let bad_line = lines.len();
    let journal = lines.join("\n");

    let header = journal_header(&journal).expect("the header precedes the corrupt tail");
    assert_eq!(header.config().snapshot_every, 2);
    assert_eq!(header.scheduler, "vdover");

    let mut fresh = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let stream = stream_text(&instance.jobs);
    match recover(&instance.capacity, fresh.as_mut(), &journal, &stream) {
        Err(CoreError::CorruptJournal { line, .. }) => assert_eq!(line, bad_line),
        other => panic!("expected CorruptJournal at line {bad_line}, got {other:?}"),
    }
}

#[test]
fn an_unordered_release_in_the_snapshot_prefix_is_a_corrupt_journal() {
    let instance = small_table1(4.0, 4.0, 23);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.snapshot_every = 2;
    let mut lines = crashed_journal(&instance, &cfg, 6);
    let snapshot_line = 1 + lines
        .iter()
        .rposition(|l| l.starts_with("{\"svc\":\"snapshot\","))
        .expect("the crashed run took a snapshot");
    // Move arrival 2 back to t = 0, before arrival 1's release; arrival 2
    // lies inside the prefix the last snapshot covers.
    let at = lines
        .iter()
        .position(|l| l.starts_with("{\"svc\":\"arrival\",\"seq\":2,"))
        .expect("arrival 2 is journaled");
    assert!(at + 1 < snapshot_line);
    let (head, rest) = lines[at].split_once("\"r\":").unwrap();
    let (_, tail) = rest.split_once(',').unwrap();
    lines[at] = format!("{head}\"r\":0,{tail}");
    let journal = lines.join("\n");

    let mut fresh = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
    let stream = stream_text(&instance.jobs);
    match recover(&instance.capacity, fresh.as_mut(), &journal, &stream) {
        Err(CoreError::CorruptJournal { line, reason }) => {
            assert_eq!(line, snapshot_line, "{reason}");
            assert!(reason.contains("arrival 2"), "{reason}");
        }
        other => panic!("expected CorruptJournal at line {snapshot_line}, got {other:?}"),
    }
}

/// The blob of a `{"svc":"snapshot",…}` journal line.
fn snapshot_blob(line: &str) -> &str {
    line.split_once("\"blob\":\"")
        .and_then(|(_, rest)| rest.strip_suffix("\"}"))
        .expect("snapshot records end with their blob")
}

/// Serves `stream` with a journal and returns the outcome and every
/// journal line.
fn served_journal(
    instance: &Instance,
    cfg: &ServiceConfig,
    stream: &str,
) -> (cloudsched::sim::ServiceOutcome, Vec<String>) {
    let (c_lo, c_hi) = instance.capacity.bounds();
    let mut journal = MemJournal::new();
    let mut sched = by_name(&cfg.scheduler, cfg.k, 5.0, c_lo, c_hi).unwrap();
    let out = serve(
        &instance.capacity,
        cfg,
        sched.as_mut(),
        stream,
        Some(&mut journal),
    )
    .unwrap();
    (out, journal.lines().to_vec())
}

#[test]
fn snapshot_records_stay_bounded_as_the_stream_grows() {
    // Delta snapshots carry rows only for the slots added since the last
    // one plus the live admissions, so with a fixed cadence and a bounded
    // queue every record is about as large as the first. Snapshots that
    // re-encode every job seen grow linearly instead (≈20× here).
    let instance = small_table1(8.0, 300.0, 5);
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.snapshot_every = 100;
    cfg.queue_cap = 12;
    let (out, lines) = served_journal(&instance, &cfg, &stream_text(&instance.jobs));
    assert!(
        out.arrivals_applied >= 2000,
        "{} arrivals",
        out.arrivals_applied
    );
    let sizes: Vec<usize> = lines
        .iter()
        .filter(|l| l.starts_with("{\"svc\":\"snapshot\","))
        .map(String::len)
        .collect();
    assert!(sizes.len() >= 20, "{} snapshots", sizes.len());
    let largest = *sizes.iter().max().unwrap();
    assert!(
        largest <= 2 * sizes[0],
        "largest snapshot record {largest} B exceeds twice the first ({} B): {sizes:?}",
        sizes[0]
    );
}

#[test]
fn journals_with_older_snapshot_or_scheduler_blob_versions_are_rejected_by_name() {
    let instance = small_table1(4.0, 4.0, 23);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let stream = stream_text(&instance.jobs);
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.snapshot_every = 2;
    let lines = crashed_journal(&instance, &cfg, 6);
    let at = lines
        .iter()
        .rposition(|l| l.starts_with("{\"svc\":\"snapshot\","))
        .expect("the crashed run took a snapshot");
    for (from, to, named) in [
        ("\"blob\":\"csnap4;", "\"blob\":\"csnap3;", "csnap3"),
        ("\"blob\":\"csnap4;", "\"blob\":\"csnap2;", "csnap2"),
        ("\"blob\":\"csnap4;", "\"blob\":\"csnap1;", "csnap1"),
        ("dover2|", "dover1|", "dover1"),
    ] {
        let mut old = lines.clone();
        assert!(old[at].contains(from));
        old[at] = old[at].replacen(from, to, 1);
        let journal = old.join("\n");
        let mut fresh = by_name("vdover", 7.0, 5.0, c_lo, c_hi).unwrap();
        match recover(&instance.capacity, fresh.as_mut(), &journal, &stream) {
            Err(CoreError::CorruptJournal { line, reason }) => {
                assert_eq!(line, at + 1, "{reason}");
                assert!(reason.contains(named), "{reason}");
            }
            other => panic!("expected a {named} rejection, got {other:?}"),
        }
    }
}

/// `(job, generation)` of every job a `dover2` blob holds: its three
/// queues and the running job. A restore gives every other job
/// generation 0.
fn dover_generations(blob: &str) -> Vec<(u64, u64)> {
    let parts: Vec<&str> = blob.split('|').collect();
    assert_eq!(parts[0], "dover2", "{blob}");
    let entry = |e: &str, job_field: usize| -> (u64, u64) {
        let f: Vec<&str> = e.split(':').collect();
        (
            f[job_field].parse().unwrap(),
            f[f.len() - 1].parse().unwrap(),
        )
    };
    let mut held: Vec<(u64, u64)> = parts[3..6]
        .iter()
        .flat_map(|part| part.split(',').filter(|e| !e.is_empty()))
        .map(|e| entry(e, 1))
        .collect();
    if parts[6] != "-" {
        held.push(entry(parts[6], 0));
    }
    held
}

/// `(job, token)` of every zero-laxity timer pending in a snapshot's event
/// queue.
fn pending_timers(blob: &str) -> Vec<(u64, u64)> {
    blob.split(';')
        .nth(2)
        .unwrap()
        .split(',')
        .filter_map(|e| {
            let f: Vec<&str> = e.split(':').collect();
            (f.len() == 5 && f[1] == "T").then(|| (f[2].parse().unwrap(), f[3].parse().unwrap()))
        })
        .collect()
}

#[test]
fn a_crash_right_after_a_dover_abandonment_with_a_stale_timer_pending_recovers_byte_identically() {
    // `dover2` blobs keep timer generations only for the jobs the
    // scheduler still holds, so a restored scheduler must still see every
    // stale timer pending across the snapshot as stale: those of a running
    // job that left `Qother`, and those of any job it no longer holds.
    // V-Dover parks the losers of its zero-laxity arbitrations; its engine
    // run as Dover with the optimistic `c_hi` estimate arms long timers and
    // abandons them instead. Crash right after each snapshot that follows
    // an abandonment while a stale timer is pending, recover, and compare
    // with the run that never crashed.
    let instance = small_table1(12.0, 10.0, 26);
    let (c_lo, c_hi) = instance.capacity.bounds();
    let stream = stream_text(&instance.jobs);
    let mut cfg = ServiceConfig::new("dover-hi", 7.0);
    cfg.snapshot_every = 1;
    let (golden, lines) = served_journal(&instance, &cfg, &stream);
    let golden_lines = events_jsonl(&golden.events);

    let mut points = Vec::new();
    let mut abandoned_since_snapshot = false;
    for line in &lines {
        if line.contains("\"ev\":\"abandon\"") {
            abandoned_since_snapshot = true;
        }
        if !line.starts_with("{\"svc\":\"snapshot\",") {
            continue;
        }
        let blob = snapshot_blob(line);
        let held = dover_generations(blob.rsplit(';').next().unwrap());
        let generation = |job: u64| held.iter().find(|(j, _)| *j == job).map_or(0, |h| h.1);
        let stale = pending_timers(blob)
            .iter()
            .any(|&(job, token)| token != generation(job));
        if abandoned_since_snapshot && stale {
            let seq: u64 = line
                .split("\"seq\":")
                .nth(1)
                .and_then(|s| s.split(',').next())
                .unwrap()
                .parse()
                .unwrap();
            points.push(seq);
        }
        abandoned_since_snapshot = false;
    }
    points.retain(|&seq| seq + 1 < golden.arrivals_applied);
    assert!(
        points.len() >= 5,
        "too few snapshots after an abandonment with a stale timer pending: {points:?}"
    );
    for &seq in &points {
        let tail = crashed_journal(&instance, &cfg, seq + 1).join("\n");
        let mut fresh = by_name("dover-hi", 7.0, 5.0, c_lo, c_hi).unwrap();
        let recovered = recover(&instance.capacity, fresh.as_mut(), &tail, &stream).unwrap();
        assert_eq!(
            events_jsonl(&recovered.events),
            golden_lines,
            "recovery diverges after a crash at arrival {}",
            seq + 1
        );
        assert_eq!(recovered.decisions, golden.decisions);
    }
}
