//! Tier-1 observability contracts: trace determinism and metrics
//! invariants.
//!
//! The tracing layer is only trustworthy if (a) the same instance always
//! produces the same byte stream — otherwise traces can't be diffed or
//! checked into CI — and (b) the folded metrics obey the structural
//! identities of the kernel's job lifecycle.

use cloudsched::obs::{
    JsonlTracer, NoopTracer, RingTracer, Tee, TraceEvent, Tracer, WithProvenance,
};
use cloudsched::prelude::*;
use cloudsched::run_traced;
use cloudsched::sim::Run;
use std::collections::BTreeMap;

/// An overloaded CTMC-capacity instance from the paper's §IV setup.
fn overloaded_instance() -> Instance {
    PaperScenario::table1(12.0).generate(3).unwrap().instance
}

#[test]
fn jsonl_trace_is_byte_identical_across_runs() {
    let instance = overloaded_instance();
    for scheduler in ["edf", "dover-lo", "vdover"] {
        let a = run_traced(&instance, scheduler).unwrap();
        let b = run_traced(&instance, scheduler).unwrap();
        assert!(
            !a.jsonl.is_empty(),
            "{scheduler}: traced run produced no events"
        );
        assert_eq!(
            a.jsonl, b.jsonl,
            "{scheduler}: same seed + instance must trace byte-identically"
        );
        assert_eq!(a.report.value, b.report.value);
    }
}

#[test]
fn traced_report_matches_untraced_report() {
    // Tracing must be a pure observer: the report of a traced run equals
    // the report of an untraced run field-for-field.
    let instance = overloaded_instance();
    for scheduler in ["edf", "dover-lo", "vdover"] {
        let traced = run_traced(&instance, scheduler).unwrap().report;
        let s = SchedulerSpec::for_instance(scheduler, &instance).unwrap();
        let plain = simulate(
            &instance.jobs,
            &instance.capacity,
            &mut *s.build(),
            RunOptions::lean(),
        );
        assert_eq!(traced.value, plain.value, "{scheduler}: value drifted");
        assert_eq!(traced.completed, plain.completed);
        assert_eq!(traced.missed, plain.missed);
        assert_eq!(traced.preemptions, plain.preemptions);
        assert_eq!(
            traced.events, plain.events,
            "{scheduler}: event count drifted"
        );
        assert_eq!(traced.expired, plain.expired);
        assert_eq!(traced.abandoned, plain.abandoned);
    }
}

#[test]
fn metrics_obey_lifecycle_invariants() {
    let instance = overloaded_instance();
    let n = instance.job_count() as u64;
    for scheduler in ["edf", "dover-lo", "vdover"] {
        let run = run_traced(&instance, scheduler).unwrap();
        let m = run.report.metrics.as_ref().expect("metrics snapshot");
        let arrived = m.counter("jobs.arrived");
        let completed = m.counter("jobs.completed");
        let expired = m.counter("jobs.expired");
        let abandoned = m.counter("jobs.abandoned");
        assert_eq!(arrived, n, "{scheduler}: every job arrives exactly once");
        assert_eq!(
            completed + expired + abandoned,
            n,
            "{scheduler}: every job ends exactly one way"
        );
        assert_eq!(
            run.report.missed,
            (expired + abandoned) as usize,
            "{scheduler}: missed = expired + abandoned"
        );
        assert!(
            m.counter("supp.rescued") <= m.counter("supp.enqueued"),
            "{scheduler}: cannot rescue more than was parked"
        );
        let laxity = m.histogram("laxity.at_release").expect("laxity histogram");
        assert_eq!(
            laxity.total, arrived,
            "{scheduler}: one laxity sample per arrival"
        );
    }
}

#[test]
fn preemptions_balance_resumes_per_job() {
    // Every preemption is followed by a resume, an abandonment, or an
    // expiry of that job — checked per job from the raw event stream.
    let instance = overloaded_instance();
    for scheduler in ["edf", "dover-lo", "vdover"] {
        let mut s = SchedulerSpec::for_instance(scheduler, &instance)
            .unwrap()
            .build();
        let mut ring = RingTracer::new(1 << 20);
        let report = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
            .tracer(&mut ring)
            .run(&mut *s);
        let mut preempted: BTreeMap<JobId, i64> = BTreeMap::new();
        let mut dangling = 0u64;
        let mut preempts = 0usize;
        let mut resumes = 0u64;
        for ev in ring.events() {
            match *ev {
                TraceEvent::Preempt { job, .. } => {
                    preempts += 1;
                    *preempted.entry(job).or_insert(0) += 1;
                }
                TraceEvent::Resume { job, .. } => {
                    resumes += 1;
                    let slot = preempted.entry(job).or_insert(0);
                    assert!(*slot > 0, "{scheduler}: job {job:?} resumed while running");
                    *slot -= 1;
                }
                TraceEvent::Abandon { job, .. } | TraceEvent::Expire { job, .. }
                    if preempted.get(&job).copied().unwrap_or(0) > 0 =>
                {
                    dangling += preempted[&job] as u64;
                    preempted.insert(job, 0);
                }
                _ => {}
            }
        }
        let still_parked: i64 = preempted.values().sum();
        assert_eq!(
            preempts as u64,
            resumes + dangling + still_parked as u64,
            "{scheduler}: preemptions must balance resumes + lost jobs"
        );
        assert_eq!(
            report.preemptions, preempts,
            "{scheduler}: report and trace disagree on preemption count"
        );
        assert_eq!(ring.dropped(), 0, "{scheduler}: ring overflowed");
    }
}

/// Runs `scheduler` over the overloaded instance into `sink`.
fn run_into<T: Tracer>(instance: &Instance, scheduler: &str, sink: &mut T) -> RunReport {
    let mut s = SchedulerSpec::for_instance(scheduler, instance)
        .unwrap()
        .build();
    Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
        .tracer(sink)
        .run(&mut *s)
}

#[test]
fn ring_tracer_keeps_the_newest_events_on_wraparound() {
    let instance = overloaded_instance();
    // Reference run: a ring big enough to hold everything.
    let mut full = RingTracer::new(1 << 20);
    run_into(&instance, "vdover", &mut full);
    assert_eq!(full.dropped(), 0, "reference ring must not wrap");
    let all: Vec<TraceEvent> = full.take();
    assert!(all.len() > 64, "overloaded run must emit plenty of events");
    // Same run into a tiny ring: it retains exactly the newest `cap`
    // events in order and accounts for every eviction.
    let cap = 64;
    let mut ring = RingTracer::new(cap);
    run_into(&instance, "vdover", &mut ring);
    assert_eq!(ring.len(), cap, "ring must be full after wraparound");
    assert_eq!(
        ring.dropped() as usize,
        all.len() - cap,
        "every eviction is counted"
    );
    let tail: Vec<TraceEvent> = ring.events().copied().collect();
    assert_eq!(
        tail,
        all[all.len() - cap..],
        "ring holds the newest events, oldest first"
    );
}

#[test]
fn tee_preserves_order_and_ors_provenance() {
    let instance = overloaded_instance();
    // Both arms of a Tee see the identical stream in the identical order:
    // the ring's events re-serialized must equal the JSONL arm's lines.
    let mut tee = Tee(RingTracer::new(1 << 20), JsonlTracer::new(Vec::new()));
    run_into(&instance, "vdover", &mut tee);
    let Tee(mut ring, jsonl) = tee;
    let bytes = jsonl.finish().unwrap();
    let text = String::from_utf8(bytes).unwrap();
    let reserialized: String = ring.take().iter().map(|e| e.to_jsonl() + "\n").collect();
    assert_eq!(
        reserialized, text,
        "Tee arms must observe the same events in the same order"
    );
    // Provenance opt-in is an OR across arms; the ring and JSONL sinks
    // default to off, so only a WithProvenance wrapper flips the Tee.
    assert!(!Tee(RingTracer::new(8), NoopTracer).wants_provenance());
    assert!(Tee(NoopTracer, WithProvenance(RingTracer::new(8))).wants_provenance());
    assert!(Tee(WithProvenance(NoopTracer), RingTracer::new(8)).wants_provenance());
}

#[test]
fn vdover_supplement_traffic_shows_up_under_overload() {
    // λ = 12 with the paper's parameters is well into overload; V-Dover's
    // supplement queue must actually see traffic there, otherwise the
    // tracing sites are dead code.
    let instance = overloaded_instance();
    let run = run_traced(&instance, "vdover").unwrap();
    let m = run.report.metrics.as_ref().unwrap();
    assert!(
        m.counter("supp.enqueued") > 0,
        "overloaded V-Dover run never parked a job in the supplement queue"
    );
}
