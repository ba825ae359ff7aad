//! `cloudsched` — command-line front end for the workspace.
//!
//! ```text
//! cloudsched gen   --lambda 6 --seed 1 [--slack 1.0] --out trace.txt
//! cloudsched run   --trace trace.txt [--scheduler vdover,edf,...] [--audit]
//! cloudsched opt   --trace trace.txt [--method exact|fractional|greedy]
//! cloudsched info  --trace trace.txt
//! cloudsched bounds --k 7 --delta 35
//! cloudsched audit --trace trace.txt [--c-lo F]
//! cloudsched lint  [--root DIR] [--json] [--explain Lxxx] [--write-baseline]
//! cloudsched trace   [--trace FILE | --lambda F --seed N [--slack F] [--horizon F]]
//!                    [--scheduler NAME] [--out FILE]
//! cloudsched metrics [--trace FILE | --lambda F --seed N [--slack F] [--horizon F]]
//!                    [--scheduler NAME]
//! cloudsched replay  --in FILE
//! cloudsched chaos   [--lambda F] [--seed N] [--seeds N] [--scheduler NAME]
//!                    [--plan none|mild|harsh] [--policy strict|degrade|best-effort|all]
//!                    [--threads N] [--trace-out FILE]
//! cloudsched bench   [--suite kernel|sweep|fleet] [--quick] [--compare] [--out FILE]
//! cloudsched fleet   [--machines N] [--lambda F] [--seed N] [--policy rr|llf|p2c]
//!                    [--scheduler NAME] [--threads N] [--horizon F] [--k F] [--delta F]
//! cloudsched inspect [--trace FILE | --lambda F --seed N [--slack F] [--horizon F]]
//!                    [--scheduler NAME] [--in FILE]
//!                    [--summary | --job N | --queues | --ratio [--seeds N]]
//! cloudsched bench-diff --old FILE --new FILE [--tol PCT]
//! cloudsched serve   --in FILE [--journal FILE] [--snapshot-every N] [--scheduler NAME]
//!                    [--rate F] [--k F] [--delta F] [--queue-cap N]
//!                    [--policy strict|degrade|best-effort] [--crash-after N] [--retries N]
//! cloudsched recover --journal FILE --in FILE
//! ```
//!
//! Job traces use the plain-text format of `cloudsched-workload::traces`;
//! `trace` emits (and `replay` pretty-prints) the deterministic JSONL event
//! stream of `cloudsched-obs`. `serve` runs the crash-safe streaming
//! admission service over a JSONL arrival stream, journaling every record;
//! `recover` restores a crashed serve run from its journal and finishes it
//! — printing output byte-identical to the uninterrupted run.
//!
//! Exit codes: 0 success, 1 runtime failure, 2 usage error (unknown
//! command, malformed or unknown flags).

#![forbid(unsafe_code)]

use cloudsched::run_traced;
use cloudsched_analysis::bounds as theory;
use cloudsched_capacity::{CapacityProfile, Instance};
use cloudsched_obs::TraceEvent;
use cloudsched_offline as offline;
use cloudsched_sim::{
    audit::{
        audit_report, certify_admissibility, certify_stretch_roundtrip, certify_underloaded_edf,
        Certificate,
    },
    simulate, RunOptions,
};
use cloudsched_workload::{traces, PaperScenario};
use std::collections::HashMap;
use std::process::ExitCode;

/// CLI failures, split by exit code: usage errors (malformed command
/// lines — exit 2, usage appended) versus runtime errors (exit 1).
#[derive(Debug)]
enum CliError {
    Usage(String),
    Runtime(String),
}

impl From<String> for CliError {
    fn from(e: String) -> Self {
        CliError::Runtime(e)
    }
}

/// Marks an argument error as a usage failure (exit 2).
fn usage_err<T>(flag: &str, reason: &str) -> Result<T, CliError> {
    Err(CliError::Usage(arg_error(flag, reason)))
}

/// Classifies a legacy string error: flag-shaped messages (`--flag: ...`)
/// are usage failures, everything else is a runtime failure.
fn classify(e: String) -> CliError {
    if e.starts_with("--") || e.starts_with("missing --") {
        CliError::Usage(e)
    } else {
        CliError::Runtime(e)
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let flags = match parse_flags(args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result: Result<(), CliError> = match cmd.as_str() {
        "gen" => cmd_gen(&flags).map_err(CliError::Runtime),
        "run" => cmd_run(&flags).map_err(CliError::Runtime),
        "opt" => cmd_opt(&flags).map_err(CliError::Runtime),
        "info" => cmd_info(&flags).map_err(CliError::Runtime),
        "bounds" => cmd_bounds(&flags).map_err(CliError::Runtime),
        "audit" => cmd_audit(&flags).map_err(CliError::Runtime),
        "lint" => cmd_lint(&flags).map_err(CliError::Runtime),
        "trace" => cmd_trace(&flags).map_err(CliError::Runtime),
        "metrics" => cmd_metrics(&flags).map_err(CliError::Runtime),
        "replay" => cmd_replay(&flags).map_err(CliError::Runtime),
        "chaos" => cmd_chaos(&flags).map_err(CliError::Runtime),
        "bench" => cmd_bench(&flags),
        "fleet" => cmd_fleet(&flags),
        "inspect" => cmd_inspect(&flags),
        "bench-diff" => cmd_bench_diff(&flags),
        "serve" => cmd_serve(&flags),
        "recover" => cmd_recover(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command `{other}`"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cloudsched gen    --lambda F [--seed N] [--slack F] [--out FILE]
  cloudsched run    --trace FILE [--scheduler LIST] [--audit]
  cloudsched opt    --trace FILE [--method exact|fractional|greedy]
  cloudsched info   --trace FILE
  cloudsched bounds --k F --delta F
  cloudsched audit  --trace FILE [--c-lo F]
  cloudsched lint   [--root DIR] [--json] [--explain Lxxx] [--write-baseline]
  cloudsched trace   [--trace FILE | --lambda F --seed N [--slack F] [--horizon F]] [--scheduler NAME] [--out FILE]
  cloudsched metrics [--trace FILE | --lambda F --seed N [--slack F] [--horizon F]] [--scheduler NAME]
  cloudsched replay  --in FILE
  cloudsched chaos   [--lambda F] [--seed N] [--seeds N] [--scheduler NAME]
                     [--plan none|mild|harsh] [--policy strict|degrade|best-effort|all]
                     [--threads N] [--trace-out FILE]
  cloudsched bench   [--suite kernel|sweep|fleet] [--quick] [--compare] [--out FILE]
  cloudsched fleet   [--machines N] [--lambda F] [--seed N] [--policy rr|llf|p2c]
                     [--scheduler NAME] [--threads N] [--horizon F] [--k F] [--delta F]
  cloudsched inspect [--trace FILE | --lambda F --seed N [--slack F] [--horizon F]] [--scheduler NAME]
                     [--in FILE] [--summary | --job N | --queues | --ratio [--seeds N]]
  cloudsched bench-diff --old FILE --new FILE [--tol PCT]
  cloudsched serve   --in FILE [--journal FILE] [--snapshot-every N] [--scheduler NAME]
                     [--rate F] [--k F] [--delta F] [--queue-cap N]
                     [--policy strict|degrade|best-effort] [--crash-after N] [--retries N]
  cloudsched recover --journal FILE --in FILE";

/// Rejects flags a command does not understand — a typo like
/// `--scheduler` on `bench-diff` is a usage error (exit 2), not a
/// silently ignored knob.
fn reject_unknown_flags(flags: &HashMap<String, String>, allowed: &[&str]) -> Result<(), CliError> {
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|k| !allowed.contains(k))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        Some(flag) => usage_err(
            flag,
            &format!(
                "unknown flag for this command (expected one of: --{})",
                allowed.join(", --")
            ),
        ),
        None => Ok(()),
    }
}

/// Renders a typed argument error (non-zero exit; `main` appends the usage).
fn arg_error(flag: &str, reason: &str) -> String {
    cloudsched_core::CoreError::InvalidArgument {
        flag: flag.to_string(),
        reason: reason.to_string(),
    }
    .to_string()
}

fn parse_flags(args: impl Iterator<Item = String>) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let Some(key) = flag.strip_prefix("--") else {
            return Err(arg_error(&flag, "expected a `--flag`"));
        };
        if key.is_empty() {
            return Err(arg_error(&flag, "empty flag name"));
        }
        let value = match args.peek() {
            Some(v) if !v.starts_with("--") => args
                .next()
                .ok_or_else(|| arg_error(key, "flag value vanished mid-parse"))?,
            _ => String::from("true"),
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(arg_error(key, "flag given more than once"));
        }
    }
    Ok(flags)
}

fn get_f64(flags: &HashMap<String, String>, key: &str) -> Result<f64, String> {
    flags
        .get(key)
        .ok_or(format!("missing --{key}"))?
        .parse()
        .map_err(|e| format!("--{key}: {e}"))
}

fn load_trace(flags: &HashMap<String, String>) -> Result<Instance, String> {
    let path = flags.get("trace").ok_or("missing --trace FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    traces::from_text(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_gen(flags: &HashMap<String, String>) -> Result<(), String> {
    let lambda = get_f64(flags, "lambda")?;
    let seed = flags
        .get("seed")
        .map(|s| s.parse::<u64>().map_err(|e| e.to_string()))
        .transpose()?
        .unwrap_or(1);
    let mut scenario = PaperScenario::table1(lambda);
    if let Some(s) = flags.get("slack") {
        scenario.slack_factor = s.parse().map_err(|e| format!("--slack: {e}"))?;
    }
    let generated = scenario.generate(seed).map_err(|e| e.to_string())?;
    let text = traces::to_text(&generated.instance);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))?;
            eprintln!(
                "wrote {} jobs / {} capacity segments to {path}",
                generated.instance.job_count(),
                generated.instance.capacity.segment_count()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_run(flags: &HashMap<String, String>) -> Result<(), String> {
    let instance = load_trace(flags)?;
    let (c_lo, c_hi) = instance.capacity.bounds();
    let k = instance.importance_ratio().unwrap_or(7.0);
    let delta = instance.delta().max(1.0 + 1e-9);
    let list = flags
        .get("scheduler")
        .cloned()
        .unwrap_or_else(|| "vdover,dover-lo,edf,hvdf".into());
    let audit = flags.contains_key("audit");
    println!(
        "{:<16} {:>10} {:>8} {:>11} {:>12}",
        "scheduler", "value", "value %", "completed", "preemptions"
    );
    for name in list.split(',') {
        let mut s = cloudsched_sched::by_name(name.trim(), k, delta, c_lo, c_hi)
            .map_err(|e| e.to_string())?;
        let opts = if audit {
            RunOptions::full()
        } else {
            RunOptions::lean()
        };
        let report = simulate(&instance.jobs, &instance.capacity, &mut *s, opts);
        if audit {
            audit_report(&instance.jobs, &instance.capacity, &report)
                .map_err(|e| format!("{}: audit failed: {:?}", report.scheduler, e))?;
        }
        println!(
            "{:<16} {:>10.2} {:>7.2}% {:>6}/{:<4} {:>12}",
            report.scheduler,
            report.value,
            report.value_fraction * 100.0,
            report.completed,
            instance.job_count(),
            report.preemptions
        );
    }
    if audit {
        eprintln!("all runs audited: clean");
    }
    Ok(())
}

fn cmd_opt(flags: &HashMap<String, String>) -> Result<(), String> {
    let instance = load_trace(flags)?;
    let method = flags
        .get("method")
        .map(String::as_str)
        .unwrap_or("fractional");
    match method {
        "exact" => {
            if instance.job_count() > 26 {
                return Err(format!(
                    "exact branch-and-bound is exponential; refusing {} jobs (max 26). \
                     Use --method fractional.",
                    instance.job_count()
                ));
            }
            let (v, ids) = offline::optimal_value(&instance.jobs, &instance.capacity);
            println!("exact optimum: {v:.4} with {} jobs", ids.len());
        }
        "fractional" => {
            let (v, fr) = offline::fractional_optimal(&instance.jobs, &instance.capacity);
            let full = fr.iter().filter(|&&x| x > 1.0 - 1e-9).count();
            println!(
                "fractional (LP) upper bound: {v:.4} ({full} jobs fully served, {} partially)",
                fr.iter().filter(|&&x| x > 1e-9 && x < 1.0 - 1e-9).count()
            );
        }
        "greedy" => {
            let (gv, _) = offline::greedy_by_value(&instance.jobs, &instance.capacity);
            let (gd, _) = offline::greedy_by_density(&instance.jobs, &instance.capacity);
            println!("greedy by value:   {gv:.4}");
            println!("greedy by density: {gd:.4}");
        }
        other => return Err(format!("unknown method `{other}`")),
    }
    Ok(())
}

fn cmd_info(flags: &HashMap<String, String>) -> Result<(), String> {
    let instance = load_trace(flags)?;
    let (c_lo, c_hi) = instance.capacity.bounds();
    println!("jobs:               {}", instance.job_count());
    println!("total workload:     {:.3}", instance.jobs.total_workload());
    println!("total value:        {:.3}", instance.jobs.total_value());
    println!(
        "importance ratio k: {}",
        instance
            .importance_ratio()
            .map(|k| format!("{k:.3}"))
            .unwrap_or_else(|| "undefined (zero-value job)".into())
    );
    println!(
        "capacity class:     C({c_lo}, {c_hi})  δ = {:.3}",
        instance.delta()
    );
    println!("capacity segments:  {}", instance.capacity.segment_count());
    println!(
        "span:               [{}, {}]",
        instance.jobs.first_release(),
        instance.jobs.last_deadline()
    );
    println!(
        "individually admissible: {}",
        if instance.all_individually_admissible() {
            "yes (Theorem 3(2) applies)"
        } else {
            "NO — Theorem 3(3): no positive competitive ratio is guaranteed"
        }
    );
    println!(
        "fluid load check:   {}",
        if instance.workload_fits_span() {
            "workload fits span (possibly underloaded)"
        } else {
            "certified overload"
        }
    );
    Ok(())
}

/// Instance for the observability commands: `--trace FILE` loads a job
/// trace; otherwise one is generated from `--lambda` / `--seed` / `--slack`
/// (defaults 8.0 / 1 / paper), exactly like `cloudsched gen`.
fn resolve_instance(flags: &HashMap<String, String>) -> Result<Instance, String> {
    if flags.contains_key("trace") {
        return load_trace(flags);
    }
    let lambda = match flags.get("lambda") {
        Some(s) => s.parse().map_err(|e| format!("--lambda: {e}"))?,
        None => 8.0,
    };
    let seed = match flags.get("seed") {
        Some(s) => s.parse().map_err(|e| format!("--seed: {e}"))?,
        None => 1,
    };
    let mut scenario = PaperScenario::table1(lambda);
    if let Some(s) = flags.get("slack") {
        scenario.slack_factor = s.parse().map_err(|e| format!("--slack: {e}"))?;
    }
    if let Some(s) = flags.get("horizon") {
        scenario.horizon = s.parse().map_err(|e| format!("--horizon: {e}"))?;
    }
    Ok(scenario.generate(seed).map_err(|e| e.to_string())?.instance)
}

fn cmd_trace(flags: &HashMap<String, String>) -> Result<(), String> {
    let instance = resolve_instance(flags)?;
    let scheduler = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("vdover");
    let run = run_traced(&instance, scheduler)?;
    match flags.get("out") {
        Some(path) => std::fs::write(path, &run.jsonl).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{}", run.jsonl),
    }
    eprintln!(
        "{}: {} events, value {:.2} ({:.2}%), {}/{} completed",
        run.report.scheduler,
        run.jsonl.lines().count(),
        run.report.value,
        run.report.value_fraction * 100.0,
        run.report.completed,
        instance.job_count()
    );
    Ok(())
}

fn cmd_metrics(flags: &HashMap<String, String>) -> Result<(), String> {
    let instance = resolve_instance(flags)?;
    let scheduler = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("vdover");
    let run = run_traced(&instance, scheduler)?;
    let metrics = run
        .report
        .metrics
        .as_ref()
        .ok_or("traced run carried no metrics snapshot")?;
    print!("{}", metrics.render());
    eprintln!(
        "{}: value {:.2} ({:.2}%), {}/{} completed",
        run.report.scheduler,
        run.report.value,
        run.report.value_fraction * 100.0,
        run.report.completed,
        instance.job_count()
    );
    Ok(())
}

/// `cloudsched chaos`: a seed-sweep fault-injection campaign. For every
/// seed the fault-free baseline and each degradation policy run on the
/// *same* corrupted instance; the report compares accrued value and fault
/// bookkeeping. `--threads N` fans the seed sweep out over a work-stealing
/// pool — the report stays bit-identical to a serial run. `--trace-out`
/// additionally writes the byte-stable JSONL fault trace of the first
/// seed (Degrade policy when it is in the sweep).
fn cmd_chaos(flags: &HashMap<String, String>) -> Result<(), String> {
    use cloudsched_faults::{chaos_trace, run_campaign, ChaosConfig, FaultPlan};
    use cloudsched_sim::DegradationPolicy;
    let mut cfg = ChaosConfig::default();
    if let Some(s) = flags.get("lambda") {
        cfg.lambda = s.parse().map_err(|e| format!("--lambda: {e}"))?;
    }
    if let Some(s) = flags.get("seed") {
        cfg.first_seed = s.parse().map_err(|e| format!("--seed: {e}"))?;
    }
    if let Some(s) = flags.get("seeds") {
        cfg.num_seeds = s.parse().map_err(|e| format!("--seeds: {e}"))?;
    }
    if let Some(s) = flags.get("scheduler") {
        cfg.scheduler = s.clone();
    }
    if let Some(s) = flags.get("plan") {
        cfg.plan = FaultPlan::preset(s).ok_or_else(|| {
            arg_error("--plan", &format!("unknown preset `{s}` (none|mild|harsh)"))
        })?;
    }
    if let Some(s) = flags.get("policy") {
        if s != "all" {
            let p = DegradationPolicy::parse(s).ok_or_else(|| {
                arg_error(
                    "--policy",
                    &format!("unknown policy `{s}` (strict|degrade|best-effort|all)"),
                )
            })?;
            cfg.policies = vec![p];
        }
    }
    if let Some(s) = flags.get("threads") {
        cfg.threads = s.parse().map_err(|e| format!("--threads: {e}"))?;
    }
    let report = run_campaign(&cfg).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if let Some(path) = flags.get("trace-out") {
        let policy = cfg
            .policies
            .iter()
            .copied()
            .find(|&p| p == DegradationPolicy::Degrade)
            .or_else(|| cfg.policies.first().copied())
            .ok_or("--policy resolved to an empty policy set")?;
        let trace = chaos_trace(&cfg, cfg.first_seed, policy).map_err(|e| e.to_string())?;
        std::fs::write(path, &trace).map_err(|e| format!("{path}: {e}"))?;
        eprintln!(
            "wrote {} fault-trace events (seed {}, policy {}) to {path}",
            trace.lines().count(),
            cfg.first_seed,
            policy.as_str()
        );
    }
    Ok(())
}

/// `cloudsched bench`: the checked-in benchmark suites. `--suite kernel`
/// (the default) sweeps EDF / Dover / V-Dover hot-path ns/decision over
/// seeded instances (n ∈ {1e3, 1e4, 1e5, 1e6}) into `BENCH_kernel.json`;
/// `--compare` additionally measures every kernel cell on the reference
/// binary-heap event queue, recording paired `flat`/`heap` rows.
/// `--suite sweep` measures Monte-Carlo runs/second of the Table-I panel
/// in fresh vs reused-workspace modes across thread counts into
/// `BENCH_sweep.json`. `--suite fleet` measures multi-machine fleet
/// runs/second across fleet sizes and thread counts into
/// `BENCH_fleet.json`, enforcing bit-identical output at every thread
/// count. `--quick` selects each suite's CI smoke configuration. All
/// timing happens inside `cloudsched-bench` behind the `obs::Clock` seam;
/// the written report is re-parsed through the strict row codec so a
/// malformed report fails the command.
///
/// `--compare` (flat-vs-heap event queues) only exists for the kernel
/// suite; asking for it elsewhere is a usage error (exit 2), not a
/// silently ignored knob.
fn cmd_bench(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use cloudsched_bench::{parse_report, render_report};
    let suite = flags.get("suite").map(String::as_str).unwrap_or("kernel");
    let quick = flags.contains_key("quick");
    if flags.contains_key("compare") && suite != "kernel" {
        return usage_err(
            "--compare",
            &format!(
                "only the kernel suite has a reference event-queue backend \
                 to compare against (got --suite {suite})"
            ),
        );
    }
    let rows = match suite {
        "kernel" => bench_kernel(flags.contains_key("compare"), quick),
        "sweep" => bench_sweep(quick),
        "fleet" => bench_fleet(quick),
        other => {
            return usage_err(
                "--suite",
                &format!("unknown suite `{other}` (kernel|sweep|fleet)"),
            )
        }
    };
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| format!("BENCH_{suite}.json"));
    let json = render_report(&rows);
    parse_report(&json).map_err(|e| format!("generated report failed schema validation: {e}"))?;
    std::fs::write(&out, &json).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("wrote {} rows to {out}", rows.len());
    Ok(())
}

fn bench_kernel(compare: bool, quick: bool) -> Vec<cloudsched_bench::Row> {
    use cloudsched_bench::{run_kernel_bench, KernelBenchConfig};
    let mut cfg = if quick {
        KernelBenchConfig::quick()
    } else {
        KernelBenchConfig::default()
    };
    cfg.compare = compare;
    eprintln!(
        "kernel bench: sizes {:?}, seed {}, {} rep(s){}",
        cfg.sizes,
        cfg.seed,
        cfg.reps,
        if cfg.compare { ", flat-vs-heap" } else { "" }
    );
    run_kernel_bench(&cfg, |row| {
        eprintln!(
            "  {:<14} n={:<7} [{:<4}] {:>10.1} ns/decision  {:>10.3} ms",
            row.text("scheduler"),
            row.int("n"),
            row.text("queue"),
            row.real("ns_per_decision"),
            row.real("wall_ms")
        );
    })
}

fn bench_sweep(quick: bool) -> Vec<cloudsched_bench::Row> {
    use cloudsched_bench::{run_sweep_bench, SweepBenchConfig};
    let cfg = if quick {
        SweepBenchConfig::quick()
    } else {
        SweepBenchConfig::default()
    };
    eprintln!(
        "sweep bench: lambda {}, {} runs/cell, threads {:?}",
        cfg.lambda, cfg.runs, cfg.threads
    );
    let outcome = run_sweep_bench(&cfg, |row| {
        eprintln!(
            "  {:<5} threads={:<2} {:>9.2} runs/s  {:>10.3} ms  reuse_hits={}",
            row.text("mode"),
            row.int("threads"),
            row.real("runs_per_sec"),
            row.real("wall_ms"),
            row.int("reuse_hits")
        );
    });
    eprintln!(
        "workspace counters: runs={} reuse_hits={}",
        outcome.metrics.counter("sweep.workspace.runs"),
        outcome.metrics.counter("sweep.workspace.reuse_hits"),
    );
    outcome.rows
}

fn bench_fleet(quick: bool) -> Vec<cloudsched_bench::Row> {
    use cloudsched_bench::{run_fleet_bench, FleetBenchConfig};
    let cfg = if quick {
        FleetBenchConfig::quick()
    } else {
        FleetBenchConfig::default()
    };
    eprintln!(
        "fleet bench: lambda {}/machine, fleets {:?}, threads {:?}, {} runs/cell",
        cfg.lambda, cfg.machines, cfg.threads, cfg.runs
    );
    run_fleet_bench(&cfg, |row| {
        eprintln!(
            "  M={:<3} threads={:<2} {:>9.2} runs/s  {:>10.3} ms  steals={:<5} digest={}",
            row.int("machines"),
            row.int("threads"),
            row.real("runs_per_sec"),
            row.real("wall_ms"),
            row.int("steals"),
            row.text("digest")
        );
    })
}

/// `cloudsched fleet`: one deterministic multi-machine fleet run
/// (`DESIGN.md` §16). Generates the fleet Table-I scenario for
/// `--machines M` at per-machine rate `--lambda`, dispatches the shared
/// job stream with `--policy` (default p2c), runs one `--scheduler`
/// instance per machine over `--threads` workers, and prints the
/// per-machine value table plus the fleet fold with its conservation
/// check. Output is a pure function of `(seed, M, policy)` — the thread
/// count never changes a byte of it.
fn cmd_fleet(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use cloudsched_core::rng::{derive_seed, FLEET_DISPATCH_RUN_OFFSET, SEED_STREAM_FLEET};
    use cloudsched_insight::{fold_fleet, MachineValue};
    use cloudsched_sched::{by_name, DispatchPolicy};
    use cloudsched_sim::run_fleet;
    use cloudsched_workload::FleetScenario;

    reject_unknown_flags(
        flags,
        &[
            "machines",
            "lambda",
            "seed",
            "policy",
            "scheduler",
            "threads",
            "horizon",
            "k",
            "delta",
        ],
    )?;
    let machines: usize = match flags.get("machines") {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(arg_error("--machines", &format!("{e}"))))?,
        None => 4,
    };
    if machines == 0 {
        return usage_err("--machines", "fleet requires at least one machine");
    }
    let lambda = match flags.get("lambda") {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(arg_error("--lambda", &format!("{e}"))))?,
        None => 8.0,
    };
    let run: usize = match flags.get("seed") {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(arg_error("--seed", &format!("{e}"))))?,
        None => 0,
    };
    let policy = DispatchPolicy::parse(flags.get("policy").map(String::as_str).unwrap_or("p2c"))
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let threads: usize = match flags.get("threads") {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(arg_error("--threads", &format!("{e}"))))?,
        None => 1,
    };
    let mut scenario = FleetScenario::table1(lambda, machines);
    if let Some(v) = flags.get("horizon") {
        let horizon: f64 = v
            .parse()
            .map_err(|e| CliError::Usage(arg_error("--horizon", &format!("{e}"))))?;
        if !(horizon.is_finite() && horizon > 0.0) {
            return usage_err("--horizon", "must be positive and finite");
        }
        scenario = scenario.with_horizon(horizon);
    }
    let name = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("vdover");
    let k = match flags.get("k") {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(arg_error("--k", &format!("{e}"))))?,
        None => scenario.base.density_hi,
    };
    let delta = match flags.get("delta") {
        Some(v) => v
            .parse()
            .map_err(|e| CliError::Usage(arg_error("--delta", &format!("{e}"))))?,
        None => scenario.base.c_hi,
    };
    let c_lo = scenario.base.c_lo;
    let c_hi = scenario.base.c_hi;
    // Validate the scheduler parameters once up front so a typo is a
    // usage error before any work happens; the factory then re-builds the
    // validated configuration per machine.
    by_name(name, k, delta, c_lo, c_hi).map_err(|e| CliError::Usage(e.to_string()))?;
    let seed = derive_seed(SEED_STREAM_FLEET, lambda, run);
    let instance = scenario
        .generate(seed)
        .map_err(|e| CliError::Runtime(e.to_string()))?;
    let mut dispatch = policy.build(derive_seed(
        SEED_STREAM_FLEET,
        lambda,
        FLEET_DISPATCH_RUN_OFFSET + run,
    ));
    let factory = move |_m: usize| {
        by_name(name, k, delta, c_lo, c_hi).expect("invariant: parameters validated above")
    };
    let report = run_fleet(
        &instance.jobs,
        &instance.machines,
        dispatch.as_mut(),
        &factory,
        RunOptions::lean(),
        threads,
    );
    // The thread count goes to stderr, never stdout: stdout is a pure
    // function of (seed, M, policy) and the CI fleet-smoke step diffs it
    // byte-for-byte between serial and threaded runs.
    eprintln!("running {threads} worker(s) over {machines} machine kernels");
    println!(
        "fleet: M={machines} lambda={lambda}/machine scheduler={name} policy={} seed={run}",
        policy.as_str()
    );
    println!(
        "jobs={} quarantined={} steals={} readmitted={} unreclaimed={}",
        instance.jobs.len(),
        report.quarantined,
        report.steals,
        report.readmitted,
        report.unreclaimed
    );
    let rows: Vec<MachineValue> = report
        .per_machine
        .iter()
        .map(|m| MachineValue {
            machine: m.machine,
            jobs: m.jobs,
            steals_in: m.steals_in,
            realized: m.report.value,
            arrived: m.report.value + m.report.expired_value + m.report.abandoned_value,
            completed: m.report.completed,
            missed: m.report.missed,
        })
        .collect();
    let fold = fold_fleet(&rows, report.value);
    print!("{}", fold.render());
    if !fold.conserved {
        return Err(CliError::Runtime(
            "fleet fold failed conservation: per-machine rows disagree with \
             the engine aggregate"
                .into(),
        ));
    }
    Ok(())
}

/// `cloudsched inspect`: trace analytics over one run (`cloudsched-insight`).
///
/// The event stream comes from `--in FILE` (a JSONL trace written by
/// `cloudsched trace`, which must belong to the same instance the other
/// flags resolve) or from simulating the resolved instance with decision
/// provenance enabled. Modes: `--summary` (default) prints the value-loss
/// ledger, `--job N` one job's timeline, `--queues` the queue-depth series,
/// `--ratio` the empirical competitive ratio over `--seeds N` consecutive
/// seeds (an error when an exact-optimum run lands below the Theorem 3(2)
/// guarantee).
fn cmd_inspect(flags: &HashMap<String, String>) -> Result<(), CliError> {
    reject_unknown_flags(
        flags,
        &[
            "trace",
            "lambda",
            "seed",
            "slack",
            "horizon",
            "scheduler",
            "in",
            "summary",
            "job",
            "queues",
            "ratio",
            "seeds",
        ],
    )?;
    let modes: Vec<&str> = ["summary", "job", "queues", "ratio"]
        .into_iter()
        .filter(|m| flags.contains_key(*m))
        .collect();
    if modes.len() > 1 {
        return usage_err(
            modes[1],
            &format!("conflicts with --{}; pick one mode", modes[0]),
        );
    }
    if flags.contains_key("ratio") {
        return cmd_inspect_ratio(flags);
    }
    // Validate the job id before paying for a trace.
    let job_id = match flags.get("job") {
        Some(job) => match job.parse::<u64>() {
            Ok(id) => Some(cloudsched_core::JobId(id)),
            Err(_) => return usage_err("job", &format!("expected a job id, got `{job}`")),
        },
        None => None,
    };
    let instance = resolve_instance(flags).map_err(classify)?;
    let scheduler = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("vdover");
    let jsonl = match flags.get("in") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => cloudsched::run_traced_with_provenance(&instance, scheduler, true)?.jsonl,
    };
    let mut events = Vec::new();
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(TraceEvent::parse_jsonl(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    if let Some(id) = job_id {
        print!("{}", cloudsched_insight::render_job_timeline(&events, id));
        return Ok(());
    }
    if flags.contains_key("queues") {
        print!("{}", cloudsched_insight::render_queue_depths(&events, 48));
        return Ok(());
    }
    let report = cloudsched_insight::ValueLedger::from_events(&events)
        .attribute(&instance.jobs)
        .map_err(|e| format!("ledger: {e}"))?;
    print!("{}", report.render());
    eprintln!(
        "{} events, {} traced jobs, conservation verified",
        events.len(),
        report.entries.len()
    );
    Ok(())
}

/// The `--ratio` mode of `cloudsched inspect`: empirical competitive ratio
/// per seed against the exact (or, for large instances, fractional) offline
/// optimum, next to the paper's guarantee.
fn cmd_inspect_ratio(flags: &HashMap<String, String>) -> Result<(), CliError> {
    let scheduler = flags
        .get("scheduler")
        .map(String::as_str)
        .unwrap_or("vdover");
    let lambda: f64 = match flags.get("lambda") {
        Some(s) => match s.parse::<f64>() {
            Ok(v) => v,
            Err(e) => return usage_err("lambda", &e.to_string()),
        },
        None => 8.0,
    };
    let first_seed: u64 = match flags.get("seed") {
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(e) => return usage_err("seed", &format!("{e}")),
        },
        None => 1,
    };
    let seeds: u64 = match flags.get("seeds") {
        Some(s) => match s.parse() {
            Ok(v) => v,
            Err(e) => return usage_err("seeds", &format!("{e}")),
        },
        None => 1,
    };
    let mut scenario = PaperScenario::table1(lambda);
    if let Some(s) = flags.get("slack") {
        scenario.slack_factor = s.parse().map_err(|e| format!("--slack: {e}"))?;
    }
    if let Some(s) = flags.get("horizon") {
        scenario.horizon = s.parse().map_err(|e| format!("--horizon: {e}"))?;
    }
    let mut violations = 0usize;
    for seed in first_seed..first_seed.saturating_add(seeds) {
        let instance = scenario.generate(seed).map_err(|e| e.to_string())?.instance;
        let (c_lo, c_hi) = instance.capacity.bounds();
        let k = instance.importance_ratio().unwrap_or(7.0);
        let delta = instance.delta().max(1.0 + 1e-9);
        let mut s = cloudsched_sched::by_name(scheduler, k, delta, c_lo, c_hi)
            .map_err(|e| e.to_string())?;
        let run = simulate(
            &instance.jobs,
            &instance.capacity,
            &mut *s,
            RunOptions::lean(),
        );
        let report = cloudsched_insight::measure_ratio(&instance, run.value, &run.scheduler);
        println!("seed {seed}");
        print!("{}", report.render());
        if report.violates_bound || report.exceeds_opt {
            violations += 1;
        }
    }
    if violations > 0 {
        return Err(CliError::Runtime(format!(
            "{violations} run(s) violate the paper's bound — trace and theory disagree"
        )));
    }
    Ok(())
}

/// `cloudsched bench-diff`: compares two benchmark reports of the same
/// suite (`BENCH_kernel.json`, `BENCH_sweep.json` or `BENCH_fleet.json`)
/// row by row. Exits
/// non-zero when any metric regresses beyond `--tol` percent (default 10),
/// so report-only callers append `|| true`.
fn cmd_bench_diff(flags: &HashMap<String, String>) -> Result<(), CliError> {
    reject_unknown_flags(flags, &["old", "new", "tol"])?;
    let Some(old_path) = flags.get("old") else {
        return usage_err("old", "required flag is missing (`--old FILE`)");
    };
    let Some(new_path) = flags.get("new") else {
        return usage_err("new", "required flag is missing (`--new FILE`)");
    };
    let tol: f64 = match flags.get("tol") {
        Some(s) => match s.parse::<f64>().ok().filter(|t| t.is_finite() && *t >= 0.0) {
            Some(t) => t,
            None => {
                return usage_err(
                    "tol",
                    &format!("expected a non-negative percent, got `{s}`"),
                )
            }
        },
        None => 10.0,
    };
    let old = std::fs::read_to_string(old_path).map_err(|e| format!("{old_path}: {e}"))?;
    let new = std::fs::read_to_string(new_path).map_err(|e| format!("{new_path}: {e}"))?;
    let diff = cloudsched_insight::diff_reports(&old, &new, tol)?;
    print!("{}", diff.render());
    let regressions = diff.regressions();
    if regressions > 0 {
        return Err(CliError::Runtime(format!(
            "{regressions} metric(s) regressed beyond ±{tol}%"
        )));
    }
    Ok(())
}

/// The summary both service commands print: the value-loss ledger and the
/// commitment audit. `recover` must reproduce `serve`'s output byte for
/// byte, so there is exactly one renderer.
fn render_service_outcome(outcome: &cloudsched_sim::ServiceOutcome) -> Result<String, String> {
    let ledger = cloudsched_insight::ValueLedger::from_events(&outcome.events)
        .attribute(&outcome.jobs)
        .map_err(|e| format!("ledger: {e}"))?;
    let commitments =
        cloudsched_sim::audit::commitments::audit_commitments(&outcome.decisions, &outcome.events);
    Ok(format!("{}{}", ledger.render(), commitments.render()))
}

/// Prints (or reports) a finished service run; shared by `serve` and
/// `recover`.
fn finish_service_outcome(outcome: &cloudsched_sim::ServiceOutcome) -> Result<(), CliError> {
    print!("{}", render_service_outcome(outcome)?);
    if outcome.snapshot_unsupported {
        eprintln!(
            "warning: snapshot cadence configured but the scheduler cannot checkpoint; \
             recovery will replay the journal from genesis"
        );
    }
    let admitted = outcome.decisions.iter().filter(|d| d.admitted).count();
    eprintln!(
        "{} arrivals: {} admitted, {} rejected; {} trace events",
        outcome.arrivals_applied,
        admitted,
        outcome.decisions.len() - admitted,
        outcome.events.len()
    );
    if let Some(err) = &outcome.aborted {
        return Err(CliError::Runtime(format!("run aborted: {err}")));
    }
    Ok(())
}

/// `cloudsched serve`: the crash-safe streaming admission service. Arrivals
/// are read from `--in` (JSONL `{"r":..,"d":..,"p":..,"v":..}` lines in
/// release order) and fed to the kernel one at a time; every arrival and
/// admission verdict is write-ahead journaled to `--journal` before its
/// effects apply, with a full kernel snapshot every `--snapshot-every`
/// arrivals. `--crash-after N` stops the run dead after arrival N (for
/// drills); `cloudsched recover` then finishes it from the journal.
fn cmd_serve(flags: &HashMap<String, String>) -> Result<(), CliError> {
    use cloudsched_obs::JournalSink;
    reject_unknown_flags(
        flags,
        &[
            "in",
            "journal",
            "snapshot-every",
            "scheduler",
            "rate",
            "k",
            "delta",
            "queue-cap",
            "policy",
            "crash-after",
            "retries",
        ],
    )?;
    let Some(in_path) = flags.get("in") else {
        return usage_err("in", "required flag is missing (`--in FILE`)");
    };
    let mut cfg = cloudsched_sim::ServiceConfig::new(
        flags
            .get("scheduler")
            .map(String::as_str)
            .unwrap_or("vdover"),
        7.0,
    );
    let num = |key: &str, default: f64| -> Result<f64, CliError> {
        match flags.get(key) {
            Some(s) => match s.parse::<f64>().ok().filter(|v| v.is_finite()) {
                Some(v) => Ok(v),
                None => Err(CliError::Usage(arg_error(
                    key,
                    &format!("expected a finite number, got `{s}`"),
                ))),
            },
            None => Ok(default),
        }
    };
    let int = |key: &str, default: u64| -> Result<u64, CliError> {
        match flags.get(key) {
            Some(s) => match s.parse::<u64>() {
                Ok(v) => Ok(v),
                Err(e) => Err(CliError::Usage(arg_error(key, &format!("{e}")))),
            },
            None => Ok(default),
        }
    };
    cfg.k = num("k", 7.0)?;
    cfg.delta = num("delta", 1.0)?;
    cfg.snapshot_every = int("snapshot-every", 0)?;
    cfg.queue_cap = int("queue-cap", u64::MAX)? as usize;
    cfg.journal_attempts = int("retries", 3)? as u32;
    if flags.contains_key("crash-after") {
        cfg.crash_after = Some(int("crash-after", 0)?);
    }
    if let Some(s) = flags.get("policy") {
        cfg.policy = match cloudsched_sim::DegradationPolicy::parse(s) {
            Some(p) => p,
            None => {
                return usage_err(
                    "policy",
                    &format!("unknown policy `{s}` (strict|degrade|best-effort)"),
                )
            }
        };
    }
    let rate = num("rate", 1.0)?;
    let capacity = match cloudsched_capacity::Constant::new(rate) {
        Ok(c) => c,
        Err(e) => return usage_err("rate", &e.to_string()),
    };
    let stream = std::fs::read_to_string(in_path).map_err(|e| format!("{in_path}: {e}"))?;
    let mut scheduler = cloudsched_sched::by_name(&cfg.scheduler, cfg.k, cfg.delta, rate, rate)
        .map_err(|e| CliError::Usage(arg_error("scheduler", &e.to_string())))?;
    let mut journal = match flags.get("journal") {
        Some(path) => Some(
            cloudsched_obs::FileJournal::create(std::path::Path::new(path))
                .map_err(|e| format!("{path}: {e}"))?,
        ),
        None => None,
    };
    let outcome = cloudsched_sim::serve(
        &capacity,
        &cfg,
        scheduler.as_mut(),
        &stream,
        journal.as_mut().map(|j| j as &mut dyn JournalSink),
    )
    .map_err(|e| e.to_string())?;
    if outcome.crashed {
        eprintln!(
            "crashed after arrival {} (seeded drill); run `cloudsched recover` on the journal",
            outcome.arrivals_applied - 1
        );
        return Ok(());
    }
    finish_service_outcome(&outcome)
}

/// `cloudsched recover`: finishes a crashed `serve` run. The journal's
/// `open` record names the scheduler, capacity and admission knobs; the
/// last snapshot (if any) restores the kernel mid-run, the journal tail is
/// deterministically replayed, and any arrivals in `--in` the journal
/// never saw are then served. Output is byte-identical to the run having
/// never crashed.
fn cmd_recover(flags: &HashMap<String, String>) -> Result<(), CliError> {
    reject_unknown_flags(flags, &["journal", "in"])?;
    let Some(journal_path) = flags.get("journal") else {
        return usage_err("journal", "required flag is missing (`--journal FILE`)");
    };
    let Some(in_path) = flags.get("in") else {
        return usage_err("in", "required flag is missing (`--in FILE`)");
    };
    let journal =
        std::fs::read_to_string(journal_path).map_err(|e| format!("{journal_path}: {e}"))?;
    let stream = std::fs::read_to_string(in_path).map_err(|e| format!("{in_path}: {e}"))?;
    let header = cloudsched_sim::journal_header(&journal).map_err(|e| e.to_string())?;
    let capacity = cloudsched_capacity::Constant::new(header.rate).map_err(|e| e.to_string())?;
    let mut scheduler = cloudsched_sched::by_name(
        &header.scheduler,
        header.k,
        header.delta,
        header.c_lo,
        header.c_hi,
    )
    .map_err(|e| e.to_string())?;
    let outcome = cloudsched_sim::recover(&capacity, scheduler.as_mut(), &journal, &stream)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "recovered from {journal_path}: scheduler {}, {} journaled arrivals",
        header.scheduler, outcome.arrivals_applied
    );
    finish_service_outcome(&outcome)
}

fn cmd_replay(flags: &HashMap<String, String>) -> Result<(), String> {
    let path = flags.get("in").ok_or("missing --in FILE")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event =
            TraceEvent::parse_jsonl(line).map_err(|e| format!("{path}:{}: {e}", idx + 1))?;
        println!("{}", event.pretty());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(args: &[&str]) -> HashMap<String, String> {
        parse_flags(args.iter().map(|s| s.to_string())).expect("valid test flags")
    }

    #[test]
    fn flag_parsing_pairs_and_booleans() {
        let f = flags_of(&["--lambda", "6", "--audit", "--seed", "3"]);
        assert_eq!(f.get("lambda").unwrap(), "6");
        assert_eq!(f.get("seed").unwrap(), "3");
        assert_eq!(f.get("audit").unwrap(), "true");
        assert!(f.get("out").is_none());
    }

    #[test]
    fn malformed_argument_lists_are_typed_errors() {
        let parse = |args: &[&str]| parse_flags(args.iter().map(|s| s.to_string()));
        let err = parse(&["run", "--trace", "x"]).unwrap_err();
        assert!(err.contains("expected a `--flag`"), "got: {err}");
        let err = parse(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.contains("more than once"), "got: {err}");
        let err = parse(&["--"]).unwrap_err();
        assert!(err.contains("empty flag name"), "got: {err}");
    }

    #[test]
    fn chaos_command_runs_a_tiny_campaign_and_writes_a_trace() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-chaos.jsonl");
        cmd_chaos(&flags_of(&[
            "--lambda",
            "4",
            "--seeds",
            "1",
            "--plan",
            "mild",
            "--trace-out",
            path.to_str().unwrap(),
        ]))
        .expect("chaos");
        let trace = std::fs::read_to_string(&path).expect("trace file");
        assert!(!trace.is_empty());
        cmd_replay(&flags_of(&["--in", path.to_str().unwrap()])).expect("replay chaos trace");
        std::fs::remove_file(path).ok();
        assert!(cmd_chaos(&flags_of(&["--plan", "apocalyptic"])).is_err());
        assert!(cmd_chaos(&flags_of(&["--policy", "yolo"])).is_err());
    }

    #[test]
    fn bench_command_quick_writes_a_schema_valid_report() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-bench.json");
        cmd_bench(&flags_of(&["--quick", "--out", path.to_str().unwrap()])).expect("bench");
        let text = std::fs::read_to_string(&path).expect("report file");
        let rows = cloudsched_bench::parse_report(&text).expect("schema-valid report");
        assert_eq!(rows[0].schema().suite, "kernel");
        assert_eq!(rows.len(), 3, "EDF, Dover, V-Dover at n = 1e3");
        assert!(rows
            .iter()
            .all(|r| r.int("n") == 1_000 && r.int("seed") == 7));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_sweep_quick_writes_a_schema_valid_report() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-bench-sweep.json");
        cmd_bench(&flags_of(&[
            "--suite",
            "sweep",
            "--quick",
            "--out",
            path.to_str().unwrap(),
        ]))
        .expect("sweep bench");
        let text = std::fs::read_to_string(&path).expect("report file");
        let rows = cloudsched_bench::parse_report(&text).expect("schema-valid report");
        assert_eq!(rows[0].schema().suite, "sweep");
        assert_eq!(rows.len(), 4, "fresh/reuse at threads {{1, 2}}");
        let digest = rows[0].text("digest");
        assert!(rows.iter().all(|r| r.text("digest") == digest));
        std::fs::remove_file(path).ok();
        assert!(cmd_bench(&flags_of(&["--suite", "espresso"])).is_err());
    }

    #[test]
    fn bench_fleet_quick_writes_a_schema_valid_report() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-bench-fleet.json");
        cmd_bench(&flags_of(&[
            "--suite",
            "fleet",
            "--quick",
            "--out",
            path.to_str().unwrap(),
        ]))
        .expect("fleet bench");
        let text = std::fs::read_to_string(&path).expect("report file");
        let rows = cloudsched_bench::parse_report(&text).expect("schema-valid report");
        assert_eq!(rows[0].schema().suite, "fleet");
        assert_eq!(rows.len(), 4, "M in {{2, 4}} x threads in {{1, 2}}");
        for m in [2u64, 4] {
            let group: Vec<_> = rows.iter().filter(|r| r.int("machines") == m).collect();
            assert_eq!(group.len(), 2);
            assert_eq!(
                group[0].text("digest"),
                group[1].text("digest"),
                "thread-count invariance"
            );
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_compare_is_a_usage_error_outside_the_kernel_suite() {
        for suite in ["sweep", "fleet"] {
            match cmd_bench(&flags_of(&["--suite", suite, "--compare"])) {
                Err(CliError::Usage(e)) => {
                    assert!(e.contains("--compare"), "got: {e}");
                    assert!(e.contains(suite), "got: {e}");
                }
                other => panic!("expected usage error for --suite {suite}, got {other:?}"),
            }
        }
        // An unknown suite is likewise a usage error, not a runtime one.
        assert!(matches!(
            cmd_bench(&flags_of(&["--suite", "espresso"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fleet_command_runs_and_rejects_bad_flags() {
        cmd_fleet(&flags_of(&[
            "--machines",
            "3",
            "--lambda",
            "4",
            "--horizon",
            "6",
            "--threads",
            "2",
        ]))
        .expect("fleet run");
        // Every dispatch policy drives the same engine.
        for policy in cloudsched_sched::DISPATCH_NAMES {
            cmd_fleet(&flags_of(&[
                "--machines",
                "2",
                "--lambda",
                "3",
                "--horizon",
                "4",
                "--policy",
                policy,
            ]))
            .expect("fleet run under each policy");
        }
        let usage = |args: &[&str]| matches!(cmd_fleet(&flags_of(args)), Err(CliError::Usage(_)));
        assert!(usage(&["--policy", "bogus"]));
        assert!(usage(&["--machines", "0"]));
        assert!(usage(&["--machines", "x"]));
        assert!(usage(&["--horizon", "-1"]));
        assert!(usage(&["--scheduler", "nonesuch"]));
        assert!(usage(&["--frobnicate", "1"]), "unknown flag is usage");
    }

    #[test]
    fn inspect_summary_timeline_queue_and_ratio_modes() {
        let base = &["--lambda", "4", "--seed", "2", "--horizon", "4"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            flags_of(&v)
        };
        cmd_inspect(&with(&[])).expect("summary mode");
        cmd_inspect(&with(&["--job", "0"])).expect("timeline mode");
        cmd_inspect(&with(&["--queues"])).expect("queue mode");
        cmd_inspect(&with(&["--ratio"])).expect("ratio mode");
        assert!(cmd_inspect(&with(&["--job", "x"])).is_err());
    }

    #[test]
    fn inspect_reads_back_a_written_trace() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-inspect.jsonl");
        let base = &["--lambda", "4", "--seed", "3", "--scheduler", "vdover"];
        let mut trace_flags: Vec<&str> = base.to_vec();
        let path_str = path.to_str().expect("utf-8 temp path");
        trace_flags.extend_from_slice(&["--out", path_str]);
        cmd_trace(&flags_of(&trace_flags)).expect("trace");
        let mut inspect_flags: Vec<&str> = base.to_vec();
        inspect_flags.extend_from_slice(&["--in", path_str]);
        cmd_inspect(&flags_of(&inspect_flags)).expect("inspect --in");
        // A trace from a different instance breaks conservation.
        let mismatched = flags_of(&["--lambda", "8", "--seed", "9", "--in", path_str]);
        assert!(cmd_inspect(&mismatched).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn bench_diff_compares_reports_and_flags_regressions() {
        use cloudsched_bench::row::KERNEL_SCHEMA;
        use cloudsched_bench::{render_report, Row};
        let row = |ns: f64| {
            Row::new(
                &KERNEL_SCHEMA,
                vec![
                    ("n", 1000usize.into()),
                    ("scheduler", "EDF".into()),
                    ("ns_per_decision", ns.into()),
                    ("wall_ms", 1.0.into()),
                    ("seed", 7u64.into()),
                    ("queue", "flat".into()),
                ],
            )
        };
        let dir = std::env::temp_dir();
        let old = dir.join("cloudsched-cli-test-diff-old.json");
        let new = dir.join("cloudsched-cli-test-diff-new.json");
        std::fs::write(&old, render_report(&[row(100.0)])).expect("write old");
        std::fs::write(&new, render_report(&[row(101.0)])).expect("write new");
        let flags = |tol: &str| {
            flags_of(&[
                "--old",
                old.to_str().expect("utf-8 temp path"),
                "--new",
                new.to_str().expect("utf-8 temp path"),
                "--tol",
                tol,
            ])
        };
        cmd_bench_diff(&flags("10")).expect("1% drift within 10% tolerance");
        std::fs::write(&new, render_report(&[row(200.0)])).expect("write new");
        let err = cmd_bench_diff(&flags("10")).expect_err("100% slowdown");
        match &err {
            CliError::Runtime(e) => assert!(e.contains("regressed"), "got: {e}"),
            CliError::Usage(e) => panic!("regression is a runtime error, got usage: {e}"),
        }
        assert!(cmd_bench_diff(&flags_of(&["--old", "/no/file"])).is_err());
        std::fs::remove_file(old).ok();
        std::fs::remove_file(new).ok();
    }

    #[test]
    fn get_f64_reports_missing_and_malformed() {
        let f = flags_of(&["--k", "7", "--delta", "abc"]);
        assert_eq!(get_f64(&f, "k").unwrap(), 7.0);
        assert!(get_f64(&f, "delta").is_err());
        assert!(get_f64(&f, "nope").unwrap_err().contains("--nope"));
    }

    #[test]
    fn default_run_list_resolves_through_the_factory() {
        for name in "vdover,dover-lo,edf,hvdf".split(',') {
            assert!(
                cloudsched_sched::by_name(name, 7.0, 2.0, 1.0, 2.0).is_ok(),
                "factory rejected {name}"
            );
        }
    }

    #[test]
    fn trace_command_round_trips_through_replay() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join("cloudsched-cli-test-events.jsonl");
        cmd_trace(&flags_of(&[
            "--lambda",
            "4",
            "--seed",
            "2",
            "--scheduler",
            "edf",
            "--out",
            jsonl.to_str().unwrap(),
        ]))
        .expect("trace");
        cmd_replay(&flags_of(&["--in", jsonl.to_str().unwrap()])).expect("replay");
        cmd_metrics(&flags_of(&["--lambda", "4", "--seed", "2"])).expect("metrics");
        std::fs::remove_file(jsonl).ok();
    }

    #[test]
    fn gen_and_info_round_trip_through_a_temp_file() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-trace.txt");
        let f = flags_of(&[
            "--lambda",
            "8",
            "--seed",
            "5",
            "--out",
            path.to_str().unwrap(),
        ]);
        cmd_gen(&f).expect("gen");
        let f = flags_of(&["--trace", path.to_str().unwrap()]);
        cmd_info(&f).expect("info");
        cmd_run(&flags_of(&[
            "--trace",
            path.to_str().unwrap(),
            "--scheduler",
            "edf",
        ]))
        .expect("run");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn audit_command_certifies_a_generated_trace() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-audit.txt");
        cmd_gen(&flags_of(&[
            "--lambda",
            "4",
            "--seed",
            "11",
            "--out",
            path.to_str().unwrap(),
        ]))
        .expect("gen");
        cmd_audit(&flags_of(&["--trace", path.to_str().unwrap()])).expect("audit");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_trace_is_an_error() {
        assert!(load_trace(&flags_of(&[])).is_err());
        assert!(load_trace(&flags_of(&["--trace", "/no/such/file"])).is_err());
    }

    #[test]
    fn usage_errors_are_typed_and_distinct_from_runtime_errors() {
        let usage = |r: Result<(), CliError>| matches!(r, Err(CliError::Usage(_)));
        let runtime = |r: Result<(), CliError>| matches!(r, Err(CliError::Runtime(_)));
        // bench-diff: missing required flags, malformed tolerance, unknown
        // flags → usage; unreadable files → runtime.
        assert!(usage(cmd_bench_diff(&flags_of(&["--old", "x"]))));
        assert!(usage(cmd_bench_diff(&flags_of(&[
            "--old", "a", "--new", "b", "--tol", "-1"
        ]))));
        assert!(usage(cmd_bench_diff(&flags_of(&[
            "--old", "a", "--new", "b", "--typo", "1"
        ]))));
        assert!(runtime(cmd_bench_diff(&flags_of(&[
            "--old", "/no/a", "--new", "/no/b"
        ]))));
        // inspect: malformed job id, unknown flag, conflicting modes.
        let base = &["--lambda", "4", "--seed", "2", "--horizon", "4"];
        let with = |extra: &[&str]| {
            let mut v: Vec<&str> = base.to_vec();
            v.extend_from_slice(extra);
            flags_of(&v)
        };
        assert!(usage(cmd_inspect(&with(&["--job", "x"]))));
        assert!(usage(cmd_inspect(&with(&["--frobnicate", "1"]))));
        assert!(usage(cmd_inspect(&with(&["--queues", "--job", "0"]))));
        assert!(usage(cmd_inspect(&with(&["--ratio", "--seeds", "x"]))));
        // serve/recover: missing required flags.
        assert!(usage(cmd_serve(&flags_of(&[]))));
        assert!(usage(cmd_recover(&flags_of(&["--journal", "x"]))));
    }

    #[test]
    fn serve_crash_and_recover_round_trip_through_files() {
        let dir = std::env::temp_dir();
        let stream = dir.join("cloudsched-cli-test-serve-stream.jsonl");
        let journal = dir.join("cloudsched-cli-test-serve-journal.jsonl");
        std::fs::write(
            &stream,
            "{\"r\":0,\"d\":6,\"p\":3,\"v\":4}\n\
             {\"r\":1,\"d\":4,\"p\":2,\"v\":9}\n\
             {\"r\":3,\"d\":9,\"p\":4,\"v\":5}\n\
             {\"r\":4,\"d\":12,\"p\":2,\"v\":6}\n",
        )
        .expect("write stream");
        let stream_s = stream.to_str().expect("utf-8 temp path");
        let journal_s = journal.to_str().expect("utf-8 temp path");
        cmd_serve(&flags_of(&[
            "--in",
            stream_s,
            "--journal",
            journal_s,
            "--snapshot-every",
            "2",
            "--crash-after",
            "1",
        ]))
        .expect("crashed serve still exits cleanly");
        cmd_recover(&flags_of(&["--journal", journal_s, "--in", stream_s]))
            .expect("recover finishes the crashed run");
        // The journal header names the scheduler for recovery.
        let body = std::fs::read_to_string(&journal).expect("journal file");
        let header = cloudsched_sim::journal_header(&body).expect("parsable journal");
        assert_eq!(header.scheduler, "vdover");
        std::fs::remove_file(stream).ok();
        std::fs::remove_file(journal).ok();
    }
}

/// Probe instants for the stretch-bijection certificate: every release and
/// deadline, plus window midpoints and a short tail past the horizon.
fn audit_probes(instance: &Instance) -> Vec<cloudsched_core::Time> {
    let mut probes = Vec::new();
    for j in instance.jobs.iter() {
        probes.push(j.release);
        probes.push(j.deadline);
        probes.push(cloudsched_core::Time::new(
            0.5 * (j.release.as_f64() + j.deadline.as_f64()),
        ));
    }
    let horizon = instance.jobs.last_deadline().as_f64();
    for i in 0..=20 {
        probes.push(cloudsched_core::Time::new(horizon * 1.1 * i as f64 / 20.0));
    }
    probes
}

fn cmd_audit(flags: &HashMap<String, String>) -> Result<(), String> {
    let instance = load_trace(flags)?;
    let c_lo = match flags.get("c-lo") {
        Some(s) => s.parse().map_err(|e| format!("--c-lo: {e}"))?,
        None => instance.capacity.bounds().0,
    };
    let certificates = [
        (
            "Theorem 2 (EDF on underloaded systems)",
            certify_underloaded_edf(&instance.jobs, &instance.capacity),
        ),
        (
            "Definition 4 (individual admissibility)",
            certify_admissibility(&instance.jobs, c_lo),
        ),
        (
            "SIII-A stretch bijection",
            certify_stretch_roundtrip(&instance.capacity, &audit_probes(&instance)),
        ),
    ];
    let mut violated = 0usize;
    for (name, cert) in &certificates {
        println!("{name}: {cert}");
        if matches!(cert, Certificate::Violated { .. }) {
            violated += 1;
        }
    }
    if violated > 0 {
        Err(format!("{violated} certificate(s) violated"))
    } else {
        Ok(())
    }
}

fn cmd_lint(flags: &HashMap<String, String>) -> Result<(), String> {
    if let Some(id) = flags.get("explain") {
        let text = cloudsched_lint::explain(id).ok_or_else(|| {
            arg_error(
                "--explain",
                &format!("unknown rule `{id}` (valid: L001–L011)"),
            )
        })?;
        print!("{text}");
        return Ok(());
    }
    let root = match flags.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            cloudsched_lint::find_workspace_root(&cwd)
                .ok_or("could not locate the workspace root (pass --root DIR)")?
        }
    };
    if flags.contains_key("write-baseline") {
        let n = cloudsched_lint::write_baseline(&root).map_err(|e| e.to_string())?;
        eprintln!("wrote {n} baseline entries to lint.baseline");
        return Ok(());
    }
    let report = cloudsched_lint::run_workspace(&root).map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render());
    }
    if report.is_clean() {
        Ok(())
    } else {
        Err("lint findings present".into())
    }
}

fn cmd_bounds(flags: &HashMap<String, String>) -> Result<(), String> {
    let k = get_f64(flags, "k")?;
    let delta = get_f64(flags, "delta")?;
    if delta > 1.0 {
        println!(
            "f(k, δ)                  = {:.4}",
            theory::f_overload(k, delta)
        );
        println!(
            "optimal β*               = {:.4}",
            theory::optimal_beta(k, delta)
        );
        println!(
            "V-Dover achievable ratio = {:.6}",
            theory::vdover_achievable_ratio(k, delta)
        );
    } else {
        println!("δ = 1: constant capacity (Dover's setting)");
        println!("Dover β                  = {:.4}", theory::dover_beta(k));
    }
    println!(
        "online upper bound       = {:.6}  (1/(1+√k)², Theorem 3(1))",
        theory::vdover_upper_bound(k)
    );
    Ok(())
}
