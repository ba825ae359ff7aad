//! `serve-wal`: `sim::serve` over a paper §IV stream — `PaperScenario::
//! table1(8)` with the horizon lengthened to about 1e4 arrivals, on its
//! CTMC capacity — with V-Dover, the `Degrade` policy, a bounded admission
//! queue and the snapshot cadence on. About 1% each of duplicate,
//! inadmissible and value-spike arrivals, plus the queue bound, make every
//! `DecisionReason` fire. The journal goes to the benchmark's in-memory
//! sink. The same stream, crashed at a fixed arrival, is then recovered.
//!
//! Load model: closed loop with one caller — `serve` applies each arrival
//! as soon as the previous one returns.
//!
//! Checks: no error return, zero reneged commitments and no rejected job
//! scheduled (`audit_commitments`), every decision reason fires, every
//! repetition's digest (report plus decisions) equals the first one's,
//! traced equals untraced, and the recovered run's decisions and trace are
//! byte-identical to the uninterrupted run's.

use crate::layers::{collected, BenchJournal, SchedSink, SpanLog, TimedCapacity, TimedScheduler};
use crate::report::{fnv1a, median, quantile};
use crate::{
    fastest, hex, instance_seeds, put_capacity, put_engine, put_sched, repeat_for, secs,
    throughput, vdover, Args, Measured, Setups, Values, CALL_TRACED, CALL_UNTRACED,
};
use cloudsched_capacity::{CapacityProfile, PiecewiseConstant};
use cloudsched_core::rng::{Pcg32, Rng};
use cloudsched_core::{Job, JobId, Time};
use cloudsched_obs::{Clock, JournalSink, MonotonicClock, TraceEvent};
use cloudsched_sim::audit::commitments::audit_commitments;
use cloudsched_sim::{
    journal_header, parse_stream, recover, serve, DecisionReason, DegradationPolicy, ServiceConfig,
    ServiceOutcome,
};
use cloudsched_workload::PaperScenario;
use std::cell::Cell;
use std::rc::Rc;

/// Stream and service sizing.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// Arrival horizon (λ = 8, so about 8 arrivals per time unit).
    pub horizon: f64,
    /// Snapshot cadence, in arrivals.
    pub snapshot_every: u64,
    /// Admitted-but-unresolved jobs before backpressure sheds.
    pub queue_cap: usize,
}

/// Full size: about 1e4 arrivals.
pub const FULL: Size = Size {
    horizon: 1250.0,
    snapshot_every: 1000,
    queue_cap: 12,
};

/// Smoke-test size: about 300 arrivals.
pub const SMOKE: Size = Size {
    horizon: 40.0,
    snapshot_every: 32,
    queue_cap: 6,
};

/// Streams an untraced run measures.
pub const INSTANCES: usize = 8;

/// Share of clean arrivals followed by each kind of corrupt arrival.
const CORRUPT_SHARE: f64 = 0.01;

const REASONS: [DecisionReason; 5] = [
    DecisionReason::Admit,
    DecisionReason::Inadmissible,
    DecisionReason::Duplicate,
    DecisionReason::ValueSpike,
    DecisionReason::Shed,
];

fn reason_index(r: DecisionReason) -> u64 {
    REASONS
        .iter()
        .position(|x| *x == r)
        .unwrap_or(REASONS.len()) as u64
}

/// The digest the output checks compare: the report's value bits,
/// completed, events and preemptions, then every decision.
pub fn digest(out: &ServiceOutcome) -> u64 {
    let report = out.report.as_ref().map_or([0; 4], |r| {
        [
            r.value.to_bits(),
            r.completed as u64,
            r.events as u64,
            r.preemptions as u64,
        ]
    });
    let decisions = out
        .decisions
        .iter()
        .flat_map(|d| [d.seq, u64::from(d.admitted), reason_index(d.reason)]);
    fnv1a(report.into_iter().chain(decisions))
}

fn config(size: Size) -> ServiceConfig {
    let mut cfg = ServiceConfig::new("vdover", 7.0);
    cfg.delta = 35.0;
    cfg.queue_cap = size.queue_cap;
    cfg.snapshot_every = size.snapshot_every;
    cfg.policy = DegradationPolicy::Degrade;
    cfg
}

/// The 0-based arrival the crash drill stops after: three quarters in,
/// off the snapshot cadence so recovery replays a journal tail.
fn crash_at(arrivals: usize, size: Size) -> u64 {
    (arrivals * 3 / 4) as u64 + size.snapshot_every / 3
}

struct Input {
    stream: String,
    arrivals: usize,
    capacity: PiecewiseConstant,
    stream_ok: bool,
}

/// The paper stream with corrupt arrivals mixed in. Each corrupt arrival
/// shares the release of the clean one before it, so release order holds.
fn arrivals(size: Size, seed: u64) -> (Vec<Job>, PiecewiseConstant) {
    let mut scenario = PaperScenario::table1(8.0);
    scenario.horizon = size.horizon;
    let inst = scenario
        .generate(seed)
        .expect("invariant: paper generation is infallible for the fixed scenario")
        .instance;
    let mut corrupt = Pcg32::seed_from_u64(seed ^ 0xc022_0a77_5eed_0001);
    let mut out: Vec<Job> = Vec::with_capacity(inst.jobs.len() * 21 / 20);
    for j in inst.jobs.iter() {
        let (r, p) = (j.release.as_f64(), j.workload);
        let mut push = |d: f64, v: f64| {
            let id = JobId(out.len() as u64);
            out.push(
                Job::new(id, Time::new(r), Time::new(d), p, v)
                    .expect("invariant: generated parameters are positive and ordered"),
            );
        };
        push(j.deadline.as_f64(), j.value);
        let u = corrupt.next_f64();
        if u < CORRUPT_SHARE {
            // Duplicate: an exact copy of the clean arrival.
            push(j.deadline.as_f64(), j.value);
        } else if u < 2.0 * CORRUPT_SHARE {
            // Inadmissible: half the window Definition 4 requires.
            push(r + 0.5 * p / scenario.c_lo, j.value);
        } else if u < 3.0 * CORRUPT_SHARE {
            // Value spike: density 8× the scenario's densest clean job.
            push(j.deadline.as_f64(), 8.0 * scenario.density_hi * p);
        }
    }
    (out, inst.capacity)
}

fn setup(size: Size, seed: u64, clock: MonotonicClock) -> (Input, u64) {
    let t0 = clock.now_ns();
    let (jobs, capacity) = arrivals(size, seed);
    let gen_ns = clock.now_ns().saturating_sub(t0);
    let stream = crate::encode_stream(&jobs);
    let stream_ok = parse_stream(&stream).is_ok_and(|parsed| {
        parsed.len() == jobs.len()
            && parsed.iter().zip(&jobs).all(|(a, j)| {
                a.release == j.release.as_f64()
                    && a.deadline == j.deadline.as_f64()
                    && a.workload == j.workload
                    && a.value == j.value
            })
    });
    (
        Input {
            stream,
            arrivals: jobs.len(),
            capacity,
            stream_ok,
        },
        gen_ns,
    )
}

/// Checks one finished run; returns the admitted arrivals and the problem
/// found, if any.
fn check_outcome(out: &ServiceOutcome) -> (u64, Option<String>) {
    let audit = audit_commitments(&out.decisions, &out.events);
    let admitted = audit.admitted as u64;
    let reneged = audit.reneged.len();
    let problem = if out.crashed || out.report.is_none() {
        Some("the uninterrupted run reports no result".to_string())
    } else if let Some(e) = &out.aborted {
        Some(format!("the run aborted: {e}"))
    } else if !audit.violations.is_empty() {
        Some(format!("commitment violations: {:?}", audit.violations))
    } else if reneged > 0 {
        Some(format!("{reneged} reneged commitments"))
    } else {
        None
    };
    (admitted, problem)
}

fn trace_text(events: &[TraceEvent]) -> String {
    events.iter().map(|e| e.to_jsonl() + "\n").collect()
}

/// Recovers the crashed journal through the public recipe (header →
/// scheduler factory → `recover`) and compares it with the uninterrupted
/// run. Returns the wall seconds of `recover` and the check's verdict.
fn recover_and_compare(
    input: &Input,
    crashed: &str,
    full: &ServiceOutcome,
    clock: MonotonicClock,
) -> (f64, Result<(), String>) {
    let header = match journal_header(crashed) {
        Ok(h) => h,
        Err(e) => return (0.0, Err(format!("journal header: {e}"))),
    };
    let (c_lo, c_hi) = input.capacity.bounds();
    let mut sched =
        match cloudsched_sched::by_name(&header.scheduler, header.k, header.delta, c_lo, c_hi) {
            Ok(s) => s,
            Err(e) => return (0.0, Err(format!("scheduler from header: {e}"))),
        };
    let t0 = clock.now_ns();
    let rec = recover(&input.capacity, sched.as_mut(), crashed, &input.stream);
    let wall = secs(t0, clock.now_ns());
    let verdict = match rec {
        Err(e) => Err(format!("recover: {e}")),
        Ok(rec) if rec.decisions != full.decisions => {
            Err("recovered decisions differ from the uninterrupted run".into())
        }
        Ok(rec) if trace_text(&rec.events) != trace_text(&full.events) => {
            Err("recovered trace differs from the uninterrupted run".into())
        }
        Ok(_) => Ok(()),
    };
    (wall, verdict)
}

/// Journaled arrivals after the last snapshot: what recovery replays.
fn replayed_arrivals(journal: &str) -> usize {
    let tail = journal
        .rfind("{\"svc\":\"snapshot\"")
        .map_or(journal, |at| &journal[at..]);
    tail.matches("{\"svc\":\"arrival\"").count()
}

/// The crash drill: the same stream served with a crash point. Producing
/// its journal is not timed.
fn crash_drill(input: &Input, cfg: &ServiceConfig, size: Size, clock: MonotonicClock) -> String {
    let mut crash_cfg = cfg.clone();
    crash_cfg.crash_after = Some(crash_at(input.arrivals, size));
    let mut journal = BenchJournal::new(clock, false);
    let mut sched = vdover();
    match serve(
        &input.capacity,
        &crash_cfg,
        sched.as_mut(),
        &input.stream,
        Some(&mut journal as &mut dyn JournalSink),
    ) {
        Ok(out) if out.crashed => journal.text,
        _ => String::new(),
    }
}

/// Runs the workload.
pub fn run(args: &Args, clock: MonotonicClock, spans: &mut SpanLog) -> Measured {
    let size = if args.smoke { SMOKE } else { FULL };
    let cfg = config(size);
    let mut setups = Setups::new(clock, instance_seeds(args, INSTANCES), |s| {
        setup(size, s, clock)
    });
    let inputs: Vec<Input> = setups.all();
    let mut m = Measured::default();
    m.checks.require(inputs.iter().all(|i| i.stream_ok), || {
        "a stream does not survive the encode/parse round trip".into()
    });
    let crashed: Vec<String> = inputs
        .iter()
        .map(|i| crash_drill(i, &cfg, size, clock))
        .collect();
    m.checks.require(crashed.iter().all(|c| !c.is_empty()), || {
        "a crash drill did not crash".into()
    });

    let k = inputs.len();
    let mut expect: Vec<Option<u64>> = vec![None; k];
    let (mut walls, mut recover_walls) = (vec![Vec::new(); k], Vec::new());
    // Per-arrival latencies of each stream's fastest call.
    let mut latency: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut traced: Vec<Values> = Vec::new();
    let (mut value, mut arrived, mut journal_bytes) = (vec![0.0; k], vec![0.0; k], 0usize);
    let mut reasons = [0usize; REASONS.len()];
    let resample = |i| drop(setups.one::<Input>(i));
    repeat_for(
        clock,
        args.seconds,
        inputs.len(),
        |rep, i| {
            let input = &inputs[i];
            let mut journal = BenchJournal::new(clock, false);
            let mut sched = vdover();
            let t0 = clock.now_ns();
            let out = serve(
                &input.capacity,
                &cfg,
                sched.as_mut(),
                &input.stream,
                Some(&mut journal as &mut dyn JournalSink),
            );
            let t1 = clock.now_ns();
            spans.push(CALL_UNTRACED, i as u64, None, t0, t1);
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    m.checks.ops(1, false, || {
                        format!("rep {rep} stream {i}: serve failed: {e}")
                    });
                    return;
                }
            };
            let wall = secs(t0, t1);
            if wall < fastest(&walls[i]) {
                latency[i] = journal
                    .arrival_ns
                    .windows(2)
                    .map(|w| w[1].saturating_sub(w[0]) as f64 / 1e3)
                    .collect();
            }
            walls[i].push(wall);
            if i == 0 {
                journal_bytes = journal.text.len();
            }
            if let Some(r) = &out.report {
                (value[i], arrived[i]) = (r.value, out.jobs.total_value());
            }
            if rep == 0 {
                for (c, r) in reasons.iter_mut().zip(REASONS) {
                    *c += out.decisions.iter().filter(|d| d.reason == r).count();
                }
            }
            let (admitted, problem) = check_outcome(&out);
            let d = digest(&out);
            let first = *expect[i].get_or_insert(d);
            let problem = problem
                .or_else(|| (d != first).then(|| format!("digest {d:016x} (first {first:016x})")));
            // Recovery is deterministic: the untraced pass checks it once
            // per stream; the traced pass times it every repetition.
            let recovered = if rep == 0 || args.trace {
                let (recover_s, recovered) = recover_and_compare(input, &crashed[i], &out, clock);
                recover_walls.push(recover_s);
                recovered
            } else {
                Ok(())
            };
            // Any failed check fails every admitted arrival of the stream.
            m.checks.ops(
                admitted.max(1),
                problem.is_none() && recovered.is_ok(),
                || format!("rep {rep} stream {i}: {problem:?} / recovery: {recovered:?}"),
            );

            if args.trace {
                let (v, d, ops) = traced_rep(input, &cfg, &crashed[i], clock, spans, rep);
                m.checks.ops(ops, d == first, || {
                    format!("rep {rep}: traced digest {d:016x} differs from untraced {first:016x}")
                });
                traced.push(v);
            }
        },
        resample,
    );
    let silent: Vec<&str> = REASONS
        .iter()
        .zip(reasons)
        .filter(|(_, c)| *c == 0)
        .map(|(r, _)| r.as_str())
        .collect();
    m.checks.require(silent.is_empty(), || {
        format!("decision reasons that never fired: {silent:?}")
    });

    let jobs: Vec<usize> = inputs.iter().map(|i| i.arrivals).collect();
    let latency_us = latency.concat();
    let samples = latency_us.len();
    if args.trace {
        m.values = crate::median_values(&traced);
        m.values.insert("workload.gen_ms", setups.gen_ms());
        m.values.insert(
            "journal_bytes_per_arrival",
            journal_bytes as f64 / jobs[0] as f64,
        );
        m.values.insert("recover_s", median(&recover_walls));
        m.values.insert(
            "recover.replayed_arrivals",
            replayed_arrivals(&crashed[0]) as f64,
        );
        m.values
            .insert("trace.overhead_frac", crate::overhead(spans));
    } else {
        m.values.insert("setup_s", setups.setup_s());
        m.values.insert("jobs_per_s", throughput(&jobs, &walls));
        m.values.insert("arrival_p50_us", median(&latency_us));
        m.values
            .insert("arrival_p99_us", quantile(&latency_us, 0.99));
        m.values.insert(
            "value_fraction",
            value.iter().sum::<f64>() / arrived.iter().sum::<f64>(),
        );
    }
    let by_reason: Vec<String> = REASONS
        .iter()
        .zip(reasons)
        .map(|(r, c)| format!("{}={c}", r.as_str()))
        .collect();
    m.notes.push(format!(
        "serve-wal: seed={} streams={k} arrivals={} decisions per pass: {} \
         latency samples={samples} (beyond p99: {}) digests={}",
        args.seed,
        jobs.iter().sum::<usize>(),
        by_reason.join(" "),
        samples / 100,
        hex(&expect)
    ));
    m
}

/// One traced repetition: scheduler and capacity wrapped, every journal
/// record stamped. Returns the layer values, the digest, and the admitted
/// arrivals (the operations it attempted).
fn traced_rep(
    input: &Input,
    cfg: &ServiceConfig,
    crashed: &str,
    clock: MonotonicClock,
    spans: &mut SpanLog,
    rep: usize,
) -> (Values, u64, u64) {
    let in_handler = Rc::new(Cell::new(false));
    let sink = SchedSink::default();
    let cap = TimedCapacity::new(&input.capacity, clock, in_handler.clone());
    let mut sched = TimedScheduler::new(vdover(), clock, 0, in_handler, sink.clone());
    let mut journal = BenchJournal::new(clock, true);
    let t0 = clock.now_ns();
    let out = serve(
        &cap,
        cfg,
        &mut sched,
        &input.stream,
        Some(&mut journal as &mut dyn JournalSink),
    );
    let t1 = clock.now_ns();
    drop(sched);
    let call = spans.push(CALL_TRACED, rep as u64, None, t0, t1);
    let Ok(out) = out else {
        return (Values::new(), 0, 1);
    };

    // Per-arrival split from the journal stamps: arrival → decision is the
    // kernel pump plus the admission decision; decision → next arrival
    // applies the verdict, flushes trace lines and takes any snapshot.
    let a = &journal.arrival_ns;
    let d = &journal.decision_ns;
    let end = |i: usize| a.get(i + 1).copied().unwrap_or(t1);
    let us = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e3;
    let pump: Vec<f64> = a.iter().zip(d).map(|(x, y)| us(*x, *y)).collect();
    let apply: Vec<f64> = (0..d.len().min(a.len().saturating_sub(1)))
        .map(|i| us(d[i], a[i + 1]))
        .collect();
    let per_arrival: Vec<f64> = a.windows(2).map(|w| us(w[0], w[1])).collect();
    let quarter = per_arrival.len() / 4;
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let q1 = mean(&per_arrival[..quarter]);
    let q4 = mean(&per_arrival[per_arrival.len() - quarter..]);
    if rep == 0 {
        let mut arrival_span = Vec::with_capacity(a.len());
        for (i, &start) in a.iter().enumerate() {
            let s = spans.push("service.arrival", i as u64, Some(call), start, end(i));
            arrival_span.push(s);
            if let Some(&dec) = d.get(i) {
                spans.push("service.pump_decide", i as u64, Some(s), start, dec);
                spans.push("service.apply", i as u64, Some(s), dec, end(i));
            }
        }
        for &(from, at) in &journal.snapshot_ns {
            let i = a.partition_point(|&x| x <= at).saturating_sub(1);
            let parent = arrival_span.get(i).copied();
            spans.push("snapshot.encode", i as u64, parent, from, at);
        }
    }

    let stats = collected(&sink);
    let sched_ns: u64 = stats.iter().map(|s| s.total().ns).sum();
    let cap_ns: u64 = cap.ops().iter().map(|s| s.ns).sum::<u64>() - cap.nested_ns();
    let mut v = Values::new();
    put_sched(&mut v, &stats);
    put_capacity(&mut v, cap.ops());
    // Engine self time on this workload also holds the service core.
    let events = out.report.as_ref().map_or(0, |r| r.events);
    put_engine(&mut v, events, (t1 - t0).saturating_sub(sched_ns + cap_ns));
    v.insert("service.pump_decide_us_p50", median(&pump));
    v.insert("service.pump_decide_us_p99", quantile(&pump, 0.99));
    v.insert("service.apply_us_p50", median(&apply));
    v.insert("service.apply_us_p99", quantile(&apply, 0.99));
    v.insert("service.arrival_us_q1", q1);
    v.insert("service.arrival_us_q4", q4);
    v.insert("service.growth", q4 / q1);
    let admitted = out.decisions.iter().filter(|x| x.admitted).count();
    v.insert("service.admitted", admitted as f64);
    v.insert("service.rejected", (out.decisions.len() - admitted) as f64);
    v.insert("journal.bytes", journal.text.len() as f64);
    v.insert("journal.svc_lines", journal.svc_lines as f64);
    v.insert("journal.trace_lines", journal.trace_lines as f64);
    v.insert("snapshot.count", journal.snapshots as f64);
    v.insert("snapshot.bytes", journal.snapshot_bytes as f64);
    let encode_ns: u64 = journal
        .snapshot_ns
        .iter()
        .map(|(from, at)| at.saturating_sub(*from))
        .sum();
    v.insert("snapshot.encode_ms", encode_ns as f64 / 1e6);
    // Only timed here; the untraced pass recovers from the same journal.
    let h0 = clock.now_ns();
    std::hint::black_box(journal_header(crashed).is_ok());
    v.insert("recover.header_ms", secs(h0, clock.now_ns()) * 1e3);
    (v, digest(&out), admitted as u64)
}
