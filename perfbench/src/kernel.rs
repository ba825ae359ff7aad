//! `kernel-burst`: one V-Dover run (k = 7, δ = 35) on the fixed-horizon
//! burst instance of the kernel suite (`bench_instance`): all n jobs
//! released in [0, 100], 90% of them urgent, on CTMC capacity {0.01, 35}.
//! Queue depths grow Θ(n), so the ready queues and the event calendar do
//! most of the work; dispatch and the service are not exercised.
//!
//! Checks: every repetition's report digest (value bits, completed, events,
//! preemptions) equals the first one's, traced equals untraced, the job
//! accounting closes, and in the traced run a schedule-recording run passes
//! `audit_report` with the same digest.

use crate::layers::{collected, SchedSink, SpanLog, TimedCapacity, TimedScheduler};
use crate::report::{fnv1a, median, quantile};
use crate::{
    hex, instance_seeds, jobs_from_stream, per_job_us, put_capacity, put_engine, put_sched,
    repeat_for, secs, throughput, vdover, Args, Measured, Setups, Values, CALL_TRACED,
    CALL_UNTRACED,
};
use cloudsched_bench::bench_instance;
use cloudsched_capacity::{Instance, PiecewiseConstant};
use cloudsched_core::JobSet;
use cloudsched_obs::{Clock, MonotonicClock};
use cloudsched_sim::{audit::audit_report, simulate, RunOptions, RunReport};
use std::cell::Cell;
use std::rc::Rc;

/// Jobs in a full-size instance.
pub const JOBS: usize = 100_000;
/// Jobs in a smoke-test instance.
pub const SMOKE_JOBS: usize = 2_000;
/// Instances an untraced run measures.
pub const INSTANCES: usize = 16;

/// The digest the output checks compare.
pub fn digest(r: &RunReport) -> u64 {
    fnv1a([
        r.value.to_bits(),
        r.completed as u64,
        r.events as u64,
        r.preemptions as u64,
    ])
}

struct Input {
    jobs: JobSet,
    capacity: PiecewiseConstant,
    stream_ok: bool,
}

fn setup(n: usize, seed: u64, clock: MonotonicClock) -> (Input, u64) {
    let t0 = clock.now_ns();
    let Instance { jobs, capacity } = bench_instance(n, seed);
    let gen_ns = clock.now_ns().saturating_sub(t0);
    let stream = crate::encode_stream(jobs.iter());
    let parsed = jobs_from_stream(&stream);
    let stream_ok = parsed.as_ref().is_ok_and(|p| *p == jobs);
    let jobs = parsed.unwrap_or(jobs);
    (
        Input {
            jobs,
            capacity,
            stream_ok,
        },
        gen_ns,
    )
}

/// Runs the workload.
pub fn run(args: &Args, clock: MonotonicClock, spans: &mut SpanLog) -> Measured {
    let n = if args.smoke { SMOKE_JOBS } else { JOBS };
    let mut setups = Setups::new(clock, instance_seeds(args, INSTANCES), |s| {
        setup(n, s, clock)
    });
    let inputs: Vec<Input> = setups.all();
    let mut m = Measured::default();
    m.checks.require(inputs.iter().all(|i| i.stream_ok), || {
        "an instance does not survive the stream round trip".into()
    });

    let mut expect: Vec<Option<u64>> = vec![None; inputs.len()];
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut traced: Vec<Values> = Vec::new();
    let (mut value, mut arrived) = (vec![0.0; inputs.len()], vec![0.0; inputs.len()]);
    let resample = |i| drop(setups.one::<Input>(i));
    repeat_for(
        clock,
        args.seconds,
        inputs.len(),
        |rep, i| {
            let input = &inputs[i];
            let jobs = &input.jobs;
            let mut sched = vdover();
            let t0 = clock.now_ns();
            let report = simulate(jobs, &input.capacity, sched.as_mut(), RunOptions::lean());
            let t1 = clock.now_ns();
            spans.push(CALL_UNTRACED, i as u64, None, t0, t1);
            walls[i].push(secs(t0, t1));
            (value[i], arrived[i]) = (report.value, jobs.total_value());
            let d = digest(&report);
            let first = *expect[i].get_or_insert(d);
            // Realised value may exceed the arrived total only by summation
            // rounding.
            let closes = report.completed + report.missed == jobs.len()
                && report.value > 0.0
                && report.value <= arrived[i] * (1.0 + 1e-9);
            m.checks.ops(1, d == first && closes, || {
                format!(
                    "rep {rep} instance {i}: digest {d:016x} (first {first:016x}), \
                 accounting closes: {closes}"
                )
            });

            if args.trace {
                let (v, d) = traced_rep(jobs, &input.capacity, clock, spans, rep);
                m.checks.ops(1, d == first, || {
                    format!("rep {rep}: traced digest {d:016x} differs from untraced {first:016x}")
                });
                traced.push(v);
            }
        },
        resample,
    );

    let jobs: Vec<usize> = inputs.iter().map(|i| i.jobs.len()).collect();
    if args.trace {
        let input = &inputs[0];
        let mut sched = vdover();
        let report = simulate(
            &input.jobs,
            &input.capacity,
            sched.as_mut(),
            RunOptions::default(),
        );
        let audit = audit_report(&input.jobs, &input.capacity, &report);
        let same = Some(digest(&report)) == expect[0];
        m.checks.ops(1, audit.is_ok() && same, || {
            format!(
                "audited run: audit ok {}, digest matches {same}",
                audit.is_ok()
            )
        });
        m.values = crate::median_values(&traced);
        m.values.insert("workload.gen_ms", setups.gen_ms());
        m.values
            .insert("trace.overhead_frac", crate::overhead(spans));
    } else {
        let per_job = per_job_us(&jobs, &walls);
        m.values.insert("setup_s", setups.setup_s());
        m.values.insert("jobs_per_s", throughput(&jobs, &walls));
        m.values.insert("arrival_p50_us", median(&per_job));
        m.values.insert("arrival_p99_us", quantile(&per_job, 0.99));
        m.values.insert(
            "value_fraction",
            value.iter().sum::<f64>() / arrived.iter().sum::<f64>(),
        );
    }
    m.notes.push(format!(
        "kernel-burst: seed={} instances={} jobs={} calls={} digests={}",
        args.seed,
        inputs.len(),
        jobs.iter().sum::<usize>(),
        walls.iter().map(Vec::len).sum::<usize>(),
        hex(&expect)
    ));
    m
}

/// One traced repetition: V-Dover and the capacity profile wrapped.
fn traced_rep(
    jobs: &JobSet,
    capacity: &PiecewiseConstant,
    clock: MonotonicClock,
    spans: &mut SpanLog,
    rep: usize,
) -> (Values, u64) {
    let in_handler = Rc::new(Cell::new(false));
    let sink = SchedSink::default();
    let cap = TimedCapacity::new(capacity, clock, in_handler.clone());
    let mut sched = TimedScheduler::new(vdover(), clock, 0, in_handler, sink.clone());
    let t0 = clock.now_ns();
    let report = simulate(jobs, &cap, &mut sched, RunOptions::lean());
    let t1 = clock.now_ns();
    drop(sched);
    spans.push(CALL_TRACED, rep as u64, None, t0, t1);
    let stats = collected(&sink);
    let sched_ns: u64 = stats.iter().map(|s| s.total().ns).sum();
    let cap_ns: u64 = cap.ops().iter().map(|s| s.ns).sum::<u64>() - cap.nested_ns();
    let mut v = Values::new();
    put_sched(&mut v, &stats);
    put_capacity(&mut v, cap.ops());
    put_engine(
        &mut v,
        report.events,
        (t1 - t0).saturating_sub(sched_ns + cap_ns),
    );
    (v, digest(&report))
}
