//! Profiling & tracing-overhead experiment.
//!
//! Two questions, answered on the paper's §IV workload:
//!
//! 1. **Where does the time go?** A wall-clock [`Profiler`] (monotonic
//!    clock) wraps kernel dispatch and the stretch transform of a V-Dover
//!    run and prints per-span statistics.
//! 2. **Is the observability layer free when off?** The same simulation is
//!    timed (best of [`REPS`] runs on the monotonic clock) through
//!    `simulate` (the `NoopTracer` default path) and through a `Run` with an
//!    explicit noop tracer, a ring tracer and a metrics registry attached.
//!    The noop rows must be at parity — `Tracer` is a generic kernel
//!    parameter, so the disabled hooks fold away at compile time.
//!
//! ```text
//! cargo run --release -p cloudsched-bench --bin profile
//! ```

use cloudsched_capacity::StretchMap;
use cloudsched_obs::{Clock, MetricsRegistry, MonotonicClock, NoopTracer, Profiler, RingTracer};
use cloudsched_sched::SchedulerSpec;
use cloudsched_sim::{simulate, Run, RunOptions, RunReport};
use cloudsched_workload::PaperScenario;
use std::hint::black_box;

/// Timed repetitions per overhead case; the fastest is reported.
const REPS: usize = 10;

fn main() {
    let generated = PaperScenario::table1(8.0)
        .generate(7)
        .expect("paper scenario generates");
    let instance = &generated.instance;
    let spec = SchedulerSpec::for_instance("vdover", instance).expect("V-Dover parameters");

    // --- 1. span profile of one observed run -----------------------------
    let profiler = Profiler::new(Box::new(MonotonicClock::new()));
    let report = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
        .profiler(&profiler)
        .run(&mut *spec.build());
    let map = StretchMap::new(instance.capacity.clone());
    let stretched = {
        let _span = profiler.span("stretch.forward");
        map.stretch_jobs(&instance.jobs).expect("stretch transform")
    };
    println!(
        "profiled V-Dover run: value {:.2}, {}/{} completed, {} stretched jobs",
        report.value,
        report.completed,
        instance.job_count(),
        stretched.len()
    );
    print!("{}", profiler.render());

    // --- 2. tracing overhead ---------------------------------------------
    let run = || Run::new(&instance.jobs, &instance.capacity, RunOptions::lean());
    let vdover = || spec.build();
    let cases: [(&str, &dyn Fn() -> RunReport); 4] = [
        ("simulate (noop tracer, static)", &|| {
            simulate(
                &instance.jobs,
                &instance.capacity,
                &mut *vdover(),
                RunOptions::lean(),
            )
        }),
        ("Run + noop tracer", &|| {
            run().tracer(NoopTracer).run(&mut *vdover())
        }),
        ("Run + ring tracer", &|| {
            run().tracer(RingTracer::new(1 << 16)).run(&mut *vdover())
        }),
        ("Run + metrics registry", &|| {
            run().tracer(MetricsRegistry::for_sim()).run(&mut *vdover())
        }),
    ];
    let clock = MonotonicClock::new();
    println!("\n== observability overhead (V-Dover, λ=8, seed 7; best of {REPS}) ==");
    println!("{:<40} {:>12}", "case", "best ms");
    for (label, case) in cases {
        let best_ns = (0..REPS)
            .map(|_| {
                let t0 = clock.now_ns();
                black_box(case());
                clock.now_ns().saturating_sub(t0)
            })
            .min()
            .unwrap_or(0);
        println!("{label:<40} {:>12.3}", best_ns as f64 / 1e6);
    }
}
