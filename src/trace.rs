//! One-call traced simulation used by the `cloudsched trace` / `metrics`
//! subcommands and the golden-trace test.
//!
//! The CLI and the tests must produce byte-identical JSONL for the same
//! instance + scheduler, so the whole pipeline — parameter derivation,
//! scheduler construction, tracing sinks — lives here rather than being
//! re-implemented in each front end. Determinism comes for free: the kernel
//! is event-driven with a total event order, and `f64` `Display` in Rust is
//! the deterministic shortest round-trip form.

use cloudsched_capacity::Instance;
use cloudsched_obs::{JsonlTracer, MetricsRegistry, MetricsSnapshot, Tee, WithProvenance};
use cloudsched_sim::{Run, RunOptions, RunReport};

/// The result of a traced run: the JSONL event stream, the usual report and
/// the metrics folded from the same events.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// One JSONL line per trace event, in emission order.
    pub jsonl: String,
    /// The simulation report.
    pub report: RunReport,
    /// The metrics registry's snapshot after the run.
    pub metrics: MetricsSnapshot,
}

/// Runs `scheduler` (by factory name) over `instance` with a JSONL tracer
/// and a metrics registry tee'd together.
///
/// Scheduler parameters are derived from the instance exactly as
/// `cloudsched run` derives them: `k` is the observed importance ratio
/// (default 7 when undefined), `δ` is the capacity-class width clamped
/// above 1.
///
/// # Errors
/// If `scheduler` is not a recognised factory name, or the tracer's
/// in-memory sink fails (it cannot, in practice).
pub fn run_traced(instance: &Instance, scheduler: &str) -> Result<TracedRun, String> {
    run_traced_with_provenance(instance, scheduler, false)
}

/// [`run_traced`] with decision provenance opt-in.
///
/// With `provenance = false` this is exactly `run_traced`: the JSONL stream
/// stays byte-identical because no sink opts in and the zero-cost noop path
/// stamps nothing. With `provenance = true` the JSONL sink is wrapped in
/// [`WithProvenance`], so the kernel and the schedulers additionally emit
/// `decision` events carrying the inputs that drove each admit / reject /
/// preempt / park / rescue / expire / abandon choice; every other line is
/// unchanged.
///
/// # Errors
/// Same failure modes as [`run_traced`].
pub fn run_traced_with_provenance(
    instance: &Instance,
    scheduler: &str,
    provenance: bool,
) -> Result<TracedRun, String> {
    let mut sched = cloudsched_sched::SchedulerSpec::for_instance(scheduler, instance)
        .map_err(|e| e.to_string())?
        .build();
    let mut metrics = MetricsRegistry::for_sim();
    let mut run = |jsonl_tracer: &mut dyn cloudsched_obs::Tracer| -> RunReport {
        let mut sink = Tee(jsonl_tracer, &mut metrics);
        Run::new(&instance.jobs, &instance.capacity, RunOptions::lean())
            .tracer(&mut sink)
            .run(&mut *sched)
    };
    let (report, finished) = if provenance {
        let mut tracer = WithProvenance(JsonlTracer::new(Vec::new()));
        let report = run(&mut tracer);
        (report, tracer.0.finish())
    } else {
        let mut tracer = JsonlTracer::new(Vec::new());
        let report = run(&mut tracer);
        (report, tracer.finish())
    };
    let bytes = finished.map_err(|e| format!("trace sink: {e}"))?;
    let jsonl = String::from_utf8(bytes).map_err(|e| format!("trace sink: {e}"))?;
    Ok(TracedRun {
        jsonl,
        report,
        metrics: metrics.snapshot(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloudsched_workload::PaperScenario;

    #[test]
    fn traced_run_is_deterministic_and_carries_metrics() {
        let instance = PaperScenario::table1(8.0).generate(42).unwrap().instance;
        let a = run_traced(&instance, "vdover").unwrap();
        let b = run_traced(&instance, "vdover").unwrap();
        assert_eq!(a.jsonl, b.jsonl, "same instance must trace identically");
        assert!(!a.jsonl.is_empty());
        assert_eq!(
            a.metrics.counter("jobs.arrived"),
            instance.job_count() as u64,
            "every job arrives exactly once"
        );
    }

    #[test]
    fn unknown_scheduler_is_an_error() {
        let instance = PaperScenario::table1(4.0).generate(1).unwrap().instance;
        assert!(run_traced(&instance, "bogus").is_err());
    }

    #[test]
    fn provenance_adds_only_decision_lines() {
        let instance = PaperScenario::table1(8.0).generate(42).unwrap().instance;
        let plain = run_traced(&instance, "vdover").unwrap();
        let with = run_traced_with_provenance(&instance, "vdover", true).unwrap();
        assert!(
            with.jsonl
                .lines()
                .any(|l| l.contains("\"ev\":\"decision\"")),
            "provenance run must stamp decision events"
        );
        // Dropping the decision lines recovers the default stream byte for
        // byte: provenance is additive, never perturbing.
        let stripped: String = with
            .jsonl
            .lines()
            .filter(|l| !l.contains("\"ev\":\"decision\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(stripped, plain.jsonl);
        assert_eq!(with.report.value, plain.report.value);
    }

    #[test]
    fn provenance_off_is_run_traced() {
        let instance = PaperScenario::table1(4.0).generate(7).unwrap().instance;
        let a = run_traced(&instance, "dover").unwrap();
        let b = run_traced_with_provenance(&instance, "dover", false).unwrap();
        assert_eq!(a.jsonl, b.jsonl);
    }
}
