//! Profiling & tracing-overhead experiment.
//!
//! Two questions, answered on the paper's §IV workload:
//!
//! 1. **Where does the time go?** A wall-clock [`Profiler`] (monotonic
//!    clock) wraps kernel dispatch and the stretch transform of a V-Dover
//!    run and prints per-span statistics.
//! 2. **Is the observability layer free when off?** The same simulation is
//!    micro-benchmarked through `simulate` (the `NoopTracer` default path)
//!    and through a `Run` with an explicit noop tracer, a ring tracer and a
//!    metrics registry attached. The noop rows must be at parity — `Tracer`
//!    is a generic kernel parameter, so the disabled hooks fold away at
//!    compile time.
//!
//! ```text
//! cargo run --release -p cloudsched-bench --bin profile
//! ```

#![forbid(unsafe_code)]

use cloudsched_bench::microbench::BenchGroup;
use cloudsched_capacity::StretchMap;
use cloudsched_obs::{MetricsRegistry, MonotonicClock, NoopTracer, Profiler, RingTracer};
use cloudsched_sched::VDover;
use cloudsched_sim::{simulate, Run, RunOptions};
use cloudsched_workload::PaperScenario;

fn main() {
    let generated = PaperScenario::table1(8.0)
        .generate(7)
        .expect("paper scenario generates");
    let instance = &generated.instance;
    let k = instance.importance_ratio().unwrap_or(7.0);
    let delta = instance.delta().max(1.0 + 1e-9);

    // --- 1. span profile of one observed run -----------------------------
    let profiler = Profiler::new(Box::new(MonotonicClock::new()));
    let mut sched = VDover::new(k, delta);
    let report = Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
        .profiler(&profiler)
        .run(&mut sched);
    let map = StretchMap::new(instance.capacity.clone());
    let stretched = map
        .stretch_jobs_profiled(&instance.jobs, &profiler)
        .expect("stretch transform");
    println!(
        "profiled V-Dover run: value {:.2}, {}/{} completed, {} stretched jobs",
        report.value,
        report.completed,
        instance.job_count(),
        stretched.len()
    );
    print!("{}", profiler.render());

    // --- 2. tracing overhead ---------------------------------------------
    let mut g = BenchGroup::new("observability overhead (V-Dover, λ=8, seed 7)");
    g.bench("simulate (noop tracer, static)", || {
        let mut s = VDover::new(k, delta);
        simulate(
            &instance.jobs,
            &instance.capacity,
            &mut s,
            RunOptions::lean(),
        )
    });
    let run = || Run::new(&instance.jobs, &instance.capacity, RunOptions::lean());
    g.bench("Run + noop tracer", || {
        let mut t = NoopTracer;
        run().tracer(&mut t).run(&mut VDover::new(k, delta))
    });
    g.bench("Run + ring tracer", || {
        let mut t = RingTracer::new(1 << 16);
        run().tracer(&mut t).run(&mut VDover::new(k, delta))
    });
    g.bench("Run + metrics registry", || {
        let mut t = MetricsRegistry::for_sim();
        run().tracer(&mut t).run(&mut VDover::new(k, delta))
    });
    g.report();
}
