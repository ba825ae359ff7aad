//! `fleet-p2c64`: `run_fleet` on `FleetScenario::table1(8, 64)` with
//! horizon 250 (about 128k jobs), power-of-two-choices dispatch, V-Dover on
//! every machine, two worker threads. The serial dispatch phase dominates;
//! per-machine queues are shallow (about 2k jobs per machine). The only
//! workload that exercises `core::par`.
//!
//! Checks: every repetition's fleet digest (per-machine value bits,
//! completed, events, preemptions, plus quarantined and steals) equals the
//! first one's, traced equals untraced, a one-thread run gives the same
//! digest as the two-thread runs, and every job lands on exactly one
//! machine.

use crate::layers::{collected, SchedSink, SpanLog, TimedDispatch, TimedScheduler};
use crate::report::{fnv1a, median, quantile};
use crate::{
    hex, instance_seeds, jobs_from_stream, per_job_us, put_engine, put_sched, repeat_for, secs,
    throughput, vdover, Args, Measured, Setups, Values, CALL_TRACED, CALL_UNTRACED,
};
use cloudsched_capacity::PiecewiseConstant;
use cloudsched_core::JobSet;
use cloudsched_obs::{Clock, MonotonicClock};
use cloudsched_sched::DispatchPolicy;
use cloudsched_sim::{run_fleet, FleetReport, RunOptions, Scheduler};
use cloudsched_workload::{FleetInstance, FleetScenario};
use std::cell::Cell;
use std::rc::Rc;

/// Fleet worker threads (the benchmark box has two cores).
pub const THREADS: usize = 2;
/// Instances an untraced run measures.
pub const INSTANCES: usize = 4;

/// The digest the output checks compare.
pub fn digest(r: &FleetReport) -> u64 {
    let per_machine = r.per_machine.iter().flat_map(|m| {
        [
            m.report.value.to_bits(),
            m.report.completed as u64,
            m.report.events as u64,
            m.report.preemptions as u64,
        ]
    });
    fnv1a(per_machine.chain([r.quarantined as u64, r.steals as u64]))
}

/// Instants where a machine's rate steps up: the fleet's steal points.
pub fn recovery_points(machines: &[PiecewiseConstant]) -> usize {
    machines
        .iter()
        .map(|c| {
            let rates: Vec<f64> = c.segments().map(|s| s.rate).collect();
            rates.windows(2).filter(|w| w[1] > w[0]).count()
        })
        .sum()
}

fn scenario(smoke: bool) -> FleetScenario {
    if smoke {
        FleetScenario::table1(8.0, 8).with_horizon(15.0)
    } else {
        FleetScenario::table1(8.0, 64).with_horizon(250.0)
    }
}

struct Input {
    jobs: JobSet,
    machines: Vec<PiecewiseConstant>,
    dispatch_seed: u64,
    stream_ok: bool,
}

fn setup(s: &FleetScenario, seed: u64, clock: MonotonicClock) -> (Input, u64) {
    let t0 = clock.now_ns();
    let FleetInstance { jobs, machines, .. } = s
        .generate(seed)
        .expect("invariant: fleet generation is infallible for the fixed scenario");
    let gen_ns = clock.now_ns().saturating_sub(t0);
    let stream = crate::encode_stream(jobs.iter());
    let parsed = jobs_from_stream(&stream);
    let stream_ok = parsed.as_ref().is_ok_and(|p| *p == jobs);
    let jobs = parsed.unwrap_or(jobs);
    (
        Input {
            jobs,
            machines,
            // The dispatcher's coin flips get their own stream.
            dispatch_seed: seed ^ 0x9e37_79b9_7f4a_7c15,
            stream_ok,
        },
        gen_ns,
    )
}

fn plain_run(input: &Input, threads: usize) -> FleetReport {
    let mut dispatch = DispatchPolicy::PowerOfTwo.build(input.dispatch_seed);
    let factory = |_m: usize| -> Box<dyn Scheduler> { vdover() };
    run_fleet(
        &input.jobs,
        &input.machines,
        dispatch.as_mut(),
        &factory,
        RunOptions::lean(),
        threads,
    )
}

/// Runs the workload.
pub fn run(args: &Args, clock: MonotonicClock, spans: &mut SpanLog) -> Measured {
    let s = scenario(args.smoke);
    let mut setups = Setups::new(clock, instance_seeds(args, INSTANCES), |seed| {
        setup(&s, seed, clock)
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
            let n = input.jobs.len();
            let t0 = clock.now_ns();
            let report = plain_run(input, THREADS);
            let t1 = clock.now_ns();
            spans.push(CALL_UNTRACED, i as u64, None, t0, t1);
            walls[i].push(secs(t0, t1));
            (value[i], arrived[i]) = (report.value, input.jobs.total_value());
            let d = digest(&report);
            let first = *expect[i].get_or_insert(d);
            let placed: usize = report.per_machine.iter().map(|pm| pm.jobs).sum();
            let closes = placed == n && report.completed + report.missed == n;
            m.checks.ops(1, d == first && closes, || {
                format!(
                    "rep {rep} instance {i}: digest {d:016x} (first {first:016x}), \
                 accounting closes: {closes}"
                )
            });

            if args.trace {
                let (v, d) = traced_rep(input, clock, spans, rep);
                m.checks.ops(1, d == first, || {
                    format!("rep {rep}: traced digest {d:016x} differs from untraced {first:016x}")
                });
                traced.push(v);
            }
        },
        resample,
    );

    let serial = digest(&plain_run(&inputs[0], 1));
    m.checks.ops(1, Some(serial) == expect[0], || {
        format!("threads=1 digest {serial:016x} differs from threads={THREADS}")
    });

    let jobs: Vec<usize> = inputs.iter().map(|i| i.jobs.len()).collect();
    if args.trace {
        m.values = crate::median_values(&traced);
        m.values.insert("workload.gen_ms", setups.gen_ms());
        m.values.insert(
            "fleet.recovery_points",
            recovery_points(&inputs[0].machines) as f64,
        );
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
        "fleet-p2c64: seed={} machines={} threads={THREADS} instances={} jobs={} \
         calls={} digests={}",
        args.seed,
        s.machines,
        inputs.len(),
        jobs.iter().sum::<usize>(),
        walls.iter().map(Vec::len).sum::<usize>(),
        hex(&expect)
    ));
    m
}

/// One traced repetition: the dispatcher and every machine's scheduler
/// wrapped. The capacity profiles cannot be: `run_fleet` takes concrete
/// `PiecewiseConstant` machines.
fn traced_rep(
    input: &Input,
    clock: MonotonicClock,
    spans: &mut SpanLog,
    rep: usize,
) -> (Values, u64) {
    let sink = SchedSink::default();
    let mut dispatch =
        TimedDispatch::new(DispatchPolicy::PowerOfTwo.build(input.dispatch_seed), clock);
    let factory_sink = sink.clone();
    let factory = move |machine: usize| -> Box<dyn Scheduler> {
        Box::new(TimedScheduler::new(
            vdover(),
            clock,
            machine,
            Rc::new(Cell::new(false)),
            factory_sink.clone(),
        ))
    };
    let t0 = clock.now_ns();
    let report = run_fleet(
        &input.jobs,
        &input.machines,
        &mut dispatch,
        &factory,
        RunOptions::lean(),
        THREADS,
    );
    let t1 = clock.now_ns();
    let call = spans.push(CALL_TRACED, rep as u64, None, t0, t1);
    let mut stats = collected(&sink);
    stats.sort_by_key(|s| s.machine);
    let first_factory = stats.iter().map(|s| s.created_ns).min().unwrap_or(t1);
    if rep == 0 {
        spans.push(
            "fleet.dispatch_phase",
            rep as u64,
            Some(call),
            t0,
            first_factory,
        );
        let sim = spans.push(
            "fleet.simulate_phase",
            rep as u64,
            Some(call),
            first_factory,
            t1,
        );
        for s in &stats {
            spans.push(
                "fleet.machine",
                s.machine as u64,
                Some(sim),
                s.created_ns,
                s.last_return_ns,
            );
        }
    }
    let machine_ms: Vec<f64> = stats
        .iter()
        .map(|s| s.last_return_ns.saturating_sub(s.created_ns) as f64 / 1e6)
        .collect();
    let machine_ns: u64 = stats
        .iter()
        .map(|s| s.last_return_ns.saturating_sub(s.created_ns))
        .sum();
    let sched_ns: u64 = stats.iter().map(|s| s.total().ns).sum();

    let mut v = Values::new();
    put_sched(&mut v, &stats);
    // Engine self time here is machine time outside the scheduler, which
    // includes the (unwrappable) capacity queries.
    put_engine(&mut v, report.events, machine_ns.saturating_sub(sched_ns));
    v.insert("fleet.dispatch_phase_ms", (first_factory - t0) as f64 / 1e6);
    v.insert("fleet.simulate_phase_ms", (t1 - first_factory) as f64 / 1e6);
    v.insert("fleet.machine_ms_p50", median(&machine_ms));
    v.insert("fleet.machine_ms_max", quantile(&machine_ms, 1.0));
    v.insert("fleet.quarantined", report.quarantined as f64);
    v.insert("fleet.steals", report.steals as f64);
    v.insert("dispatch.choose.calls", dispatch.choose.calls as f64);
    v.insert("dispatch.choose.ms", dispatch.choose.ms());
    (v, digest(&report))
}
