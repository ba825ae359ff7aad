//! `cloudsched` — command-line front end for the workspace.
//!
//! Every command and flag is declared once, in [`COMMANDS`]; `cloudsched
//! help` renders that table. Job traces use the plain-text format of
//! `cloudsched-workload::traces`; `trace` emits (and `replay` pretty-prints)
//! the deterministic JSONL event stream of `cloudsched-obs`. `serve` runs
//! the crash-safe streaming admission service over a JSONL arrival stream,
//! journaling every record; `recover` restores a crashed serve run from its
//! journal and finishes it — printing output byte-identical to the
//! uninterrupted run. `repro` regenerates the paper's tables and figures.
//!
//! Exit codes: 0 success, 1 runtime failure (I/O, failed audits, violated
//! bounds, lint findings), 2 usage error (unknown command, unknown flag,
//! missing or malformed value).

mod flags;

use cloudsched::run_traced;
use cloudsched_analysis::bounds as theory;
use cloudsched_bench::repro;
use cloudsched_capacity::{CapacityProfile, Instance};
use cloudsched_obs::TraceEvent;
use cloudsched_offline as offline;
use cloudsched_sched::{SchedulerSpec, DISPATCH_NAMES, SCHEDULER_NAMES};
use cloudsched_sim::{
    audit::{
        audit_report, certify_admissibility, certify_stretch_roundtrip, certify_underloaded_edf,
        Certificate,
    },
    simulate, DegradationPolicy, RunOptions,
};
use cloudsched_workload::{traces, PaperScenario};
use flags::Kind::{Bool, ListOf, OneOf, Text, F64, U64};
use flags::{Args, CliError, Flag};
use std::process::ExitCode;

/// One subcommand: its flag table and the function that runs it.
struct Command {
    name: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), CliError>,
}

const TRACE: Flag = Flag::new("trace", Text("FILE"), "job trace").required();
const SCHEDULER: Flag =
    Flag::new("scheduler", OneOf(SCHEDULER_NAMES), "scheduler").default("vdover");
// The paper §IV instance of the observability commands: loaded from
// `--trace`, or generated from the rest exactly like `cloudsched gen`.
const FROM_TRACE: Flag = Flag::new("trace", Text("FILE"), "job trace (generated if absent)");
const LAMBDA: Flag = Flag::new("lambda", F64, "arrival rate").default("8");
const SEED: Flag = Flag::new("seed", U64, "instance seed").default("1");
const SLACK: Flag = Flag::new("slack", F64, "deadline slack factor (paper's if absent)");
const HORIZON: Flag = Flag::new("horizon", F64, "arrival horizon (paper's if absent)");

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "gen", about: "generate a paper §IV job trace", run: cmd_gen, flags: &[
        Flag::new("lambda", F64, "arrival rate").required(),
        SEED,
        SLACK,
        Flag::new("out", Text("FILE"), "write the trace here, not to stdout"),
    ] },
    Command { name: "run", about: "simulate schedulers on a trace", run: cmd_run, flags: &[
        TRACE,
        Flag::new("scheduler", ListOf(SCHEDULER_NAMES), "schedulers to run")
            .default("vdover,dover-lo,edf,hvdf"),
        Flag::new("audit", Bool, "audit every run"),
    ] },
    Command { name: "opt", about: "offline optimum or bound of a trace", run: cmd_opt, flags: &[
        TRACE,
        Flag::new("method", OneOf(&["exact", "fractional", "greedy"]), "solver").default("fractional"),
    ] },
    Command { name: "info", about: "summarise a trace", run: cmd_info, flags: &[TRACE] },
    Command { name: "bounds", about: "competitive-ratio bounds of Theorems 1 and 3", run: cmd_bounds, flags: &[
        Flag::new("k", F64, "importance ratio").required(),
        Flag::new("delta", F64, "capacity variation c_hi/c_lo").required(),
    ] },
    Command { name: "audit", about: "certify a trace against Thm 2, Def 4 and the §III-A bijection", run: cmd_audit, flags: &[
        TRACE,
        Flag::new("c-lo", F64, "capacity lower bound (the trace's if absent)"),
    ] },
    Command { name: "lint", about: "workspace static analysis (exit 1 on findings)", run: cmd_lint, flags: &[
        Flag::new("root", Text("DIR"), "workspace root (found from cwd if absent)"),
        Flag::new("explain", Text("Lxxx"), "print one rule's card"),
    ] },
    Command { name: "trace", about: "JSONL event trace of one run", run: cmd_trace, flags: &[
        FROM_TRACE, LAMBDA, SEED, SLACK, HORIZON, SCHEDULER,
        Flag::new("out", Text("FILE"), "write the trace here, not to stdout"),
    ] },
    Command { name: "metrics", about: "metrics snapshot of one run", run: cmd_metrics, flags: &[
        FROM_TRACE, LAMBDA, SEED, SLACK, HORIZON, SCHEDULER,
    ] },
    Command { name: "replay", about: "pretty-print a JSONL event trace", run: cmd_replay, flags: &[
        Flag::new("in", Text("FILE"), "JSONL trace").required(),
    ] },
    Command { name: "chaos", about: "seeded fault-injection campaign", run: cmd_chaos, flags: &[
        Flag::new("lambda", F64, "arrival rate (campaign default if absent)"),
        Flag::new("seed", U64, "first seed (campaign default if absent)"),
        Flag::new("seeds", U64, "seed count (campaign default if absent)"),
        Flag::new("scheduler", OneOf(SCHEDULER_NAMES), "scheduler (campaign default if absent)"),
        Flag::new("plan", OneOf(&["none", "mild", "harsh"]), "fault plan (campaign default if absent)"),
        Flag::new("policy", OneOf(&["strict", "degrade", "best-effort", "all"]), "policies to compare")
            .default("all"),
        Flag::new("threads", U64, "worker threads (campaign default if absent)"),
        Flag::new("trace-out", Text("FILE"), "write the first seed's fault trace here"),
    ] },
    Command { name: "bench", about: "run a checked-in benchmark suite", run: cmd_bench, flags: &[
        Flag::new("suite", OneOf(&["kernel", "sweep", "fleet"]), "suite").default("kernel"),
        Flag::new("quick", Bool, "the suite's CI smoke configuration"),
        Flag::new("out", Text("FILE"), "report path (BENCH_<suite>.json if absent)"),
    ] },
    Command { name: "fleet", about: "one deterministic multi-machine fleet run", run: cmd_fleet, flags: &[
        Flag::new("machines", U64, "machines (at least 1)").default("4"),
        Flag::new("lambda", F64, "arrival rate per machine").default("8"),
        Flag::new("seed", U64, "run index").default("0"),
        Flag::new("policy", OneOf(DISPATCH_NAMES), "dispatch policy").default("p2c"),
        SCHEDULER,
        Flag::new("threads", U64, "worker threads").default("1"),
        Flag::new("horizon", F64, "arrival horizon, > 0 (scenario's if absent)"),
        Flag::new("k", F64, "importance ratio (scenario's if absent)"),
        Flag::new("delta", F64, "capacity variation (scenario's c_hi if absent)"),
    ] },
    Command { name: "inspect", about: "value-loss ledger, job timeline, queue depths or empirical ratio", run: cmd_inspect, flags: &[
        FROM_TRACE, LAMBDA, SEED, SLACK, HORIZON, SCHEDULER,
        Flag::new("in", Text("FILE"), "JSONL trace of the same instance, instead of simulating"),
        Flag::new("summary", Bool, "value-loss ledger (the default mode)"),
        Flag::new("job", U64, "one job's timeline"),
        Flag::new("queues", Bool, "queue-depth series"),
        Flag::new("ratio", Bool, "empirical competitive ratio per seed"),
        Flag::new("seeds", U64, "seeds for --ratio").default("1"),
    ] },
    Command { name: "bench-diff", about: "compare two benchmark reports (exit 1 on a regression)", run: cmd_bench_diff, flags: &[
        Flag::new("old", Text("FILE"), "baseline report").required(),
        Flag::new("new", Text("FILE"), "candidate report").required(),
        Flag::new("tol", F64, "tolerance in percent, >= 0").default("10"),
    ] },
    Command { name: "serve", about: "crash-safe streaming admission service", run: cmd_serve, flags: &[
        Flag::new("in", Text("FILE"), "JSONL arrival stream").required(),
        Flag::new("journal", Text("FILE"), "write-ahead journal"),
        Flag::new("snapshot-every", U64, "arrivals per snapshot, 0 = off").default("0"),
        SCHEDULER,
        Flag::new("rate", F64, "constant capacity").default("1"),
        Flag::new("k", F64, "importance ratio").default("7"),
        Flag::new("delta", F64, "capacity variation").default("1"),
        Flag::new("queue-cap", U64, "live-queue bound (unbounded if absent)"),
        Flag::new("policy", OneOf(&["strict", "degrade", "best-effort"]), "degradation policy")
            .default("degrade"),
        Flag::new("crash-after", U64, "stop dead after this arrival (drills)"),
        Flag::new("retries", U64, "journal write attempts").default("3"),
    ] },
    Command { name: "recover", about: "finish a crashed serve run from its journal", run: cmd_recover, flags: &[
        Flag::new("journal", Text("FILE"), "journal of the crashed run").required(),
        Flag::new("in", Text("FILE"), "the run's arrival stream").required(),
    ] },
    Command { name: "repro", about: "regenerate the paper's tables and figures (results/*.csv)", run: cmd_repro, flags: &[
        Flag::new("experiment", OneOf(repro::CHOICES), "experiment").default("all"),
        Flag::new("runs", U64, "Monte-Carlo runs or instances (paper counts if absent)"),
        Flag::new("threads", U64, "worker threads (one per core if absent)"),
        Flag::new("out", Text("DIR"), "CSV directory").default("results"),
    ] },
];

fn main() -> ExitCode {
    #[allow(clippy::disallowed_methods)] // the command line is the CLI's input
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        eprint!("{}", help());
        return ExitCode::from(2);
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        print!("{}", help());
        return ExitCode::SUCCESS;
    }
    let Some(command) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("error: unknown command `{name}`\n{}", help());
        return ExitCode::from(2);
    };
    match dispatch(command, argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprint!(
                "error: {e}\nusage:\n{}",
                flags::usage(command.name, command.about, command.flags)
            );
            ExitCode::from(2)
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses the words after the command name against its table and runs it.
fn dispatch(command: &Command, argv: impl IntoIterator<Item = String>) -> Result<(), CliError> {
    (command.run)(&flags::parse(command.flags, argv)?)
}

/// Every command's usage block.
fn help() -> String {
    let mut text = String::from("usage: cloudsched <command> [--flag [value]]...\n\n");
    for c in COMMANDS {
        text.push_str(&flags::usage(c.name, c.about, c.flags));
    }
    text.push_str("\nexit codes: 0 success, 1 runtime failure, 2 usage error\n");
    text
}

// The CLI is the file boundary of the deterministic core (L011): every
// file it reads or writes goes through these two helpers.
#[allow(clippy::disallowed_methods)]
fn read_text(path: impl AsRef<std::path::Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

#[allow(clippy::disallowed_methods)]
fn write_text(path: impl AsRef<std::path::Path>, text: &str) -> Result<(), String> {
    let path = path.as_ref();
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_trace(path: &str) -> Result<Instance, CliError> {
    let text = read_text(path)?;
    Ok(traces::from_text(&text).map_err(|e| format!("{path}: {e}"))?)
}

/// The paper §IV scenario at `--lambda`, with `--slack` and `--horizon`
/// applied when given.
fn scenario(args: &Args) -> PaperScenario {
    let mut scenario = PaperScenario::table1(args.get("lambda"));
    if let Some(slack) = args.opt("slack") {
        scenario.slack_factor = slack;
    }
    if let Some(horizon) = args.opt("horizon") {
        scenario.horizon = horizon;
    }
    scenario
}

/// Instance for the observability commands: `--trace FILE` loads a job
/// trace; otherwise one is generated from `--lambda` / `--seed` / `--slack`
/// / `--horizon`, exactly like `cloudsched gen`.
fn resolve_instance(args: &Args) -> Result<Instance, CliError> {
    match args.opt::<String>("trace") {
        Some(path) => load_trace(&path),
        None => Ok(scenario(args)
            .generate(args.get("seed"))
            .map_err(|e| e.to_string())?
            .instance),
    }
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let generated = scenario(args)
        .generate(args.get("seed"))
        .map_err(|e| e.to_string())?;
    let text = traces::to_text(&generated.instance);
    match args.opt::<String>("out") {
        Some(path) => {
            write_text(&path, &text)?;
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

fn cmd_run(args: &Args) -> Result<(), CliError> {
    let instance = load_trace(&args.get::<String>("trace"))?;
    let audit = args.on("audit");
    println!(
        "{:<16} {:>10} {:>8} {:>11} {:>12}",
        "scheduler", "value", "value %", "completed", "preemptions"
    );
    for name in args.get::<String>("scheduler").split(',') {
        let s = SchedulerSpec::for_instance(name.trim(), &instance).map_err(|e| e.to_string())?;
        let opts = if audit {
            RunOptions::full()
        } else {
            RunOptions::lean()
        };
        let report = simulate(&instance.jobs, &instance.capacity, &mut *s.build(), opts);
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

fn cmd_opt(args: &Args) -> Result<(), CliError> {
    let instance = load_trace(&args.get::<String>("trace"))?;
    match args.get::<String>("method").as_str() {
        "exact" => {
            if instance.job_count() > 26 {
                return Err(format!(
                    "exact branch-and-bound is exponential; refusing {} jobs (max 26). \
                     Use --method fractional.",
                    instance.job_count()
                )
                .into());
            }
            let (v, ids) = offline::optimal_value(&instance.jobs, &instance.capacity);
            println!("exact optimum: {v:.4} with {} jobs", ids.len());
        }
        "greedy" => {
            let (gv, _) = offline::greedy_by_value(&instance.jobs, &instance.capacity);
            let (gd, _) = offline::greedy_by_density(&instance.jobs, &instance.capacity);
            println!("greedy by value:   {gv:.4}");
            println!("greedy by density: {gd:.4}");
        }
        // The table admits only the three methods: this is "fractional".
        _ => {
            let (v, fr) = offline::fractional_optimal(&instance.jobs, &instance.capacity);
            let full = fr.iter().filter(|&&x| x > 1.0 - 1e-9).count();
            println!(
                "fractional (LP) upper bound: {v:.4} ({full} jobs fully served, {} partially)",
                fr.iter().filter(|&&x| x > 1e-9 && x < 1.0 - 1e-9).count()
            );
        }
    }
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), CliError> {
    let instance = load_trace(&args.get::<String>("trace"))?;
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

fn cmd_bounds(args: &Args) -> Result<(), CliError> {
    let k: f64 = args.get("k");
    let delta: f64 = args.get("delta");
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

fn cmd_audit(args: &Args) -> Result<(), CliError> {
    let instance = load_trace(&args.get::<String>("trace"))?;
    let c_lo = args
        .opt("c-lo")
        .unwrap_or_else(|| instance.capacity.bounds().0);
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
        Err(format!("{violated} certificate(s) violated").into())
    } else {
        Ok(())
    }
}

/// `cloudsched lint`: the rules clippy cannot express (L001, L002, L009)
/// and the manifest check L004. Exits 0 when clean, 1 on findings, 2 on a
/// usage error, including an `--explain` id this pass does not check.
fn cmd_lint(args: &Args) -> Result<(), CliError> {
    if let Some(id) = args.opt::<String>("explain") {
        let text = cloudsched_lint::explain(&id).ok_or_else(|| {
            CliError::usage("explain", cloudsched_lint::LintError::UnknownRule { id })
        })?;
        print!("{text}");
        return Ok(());
    }
    let root = match args.opt::<String>("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            #[allow(clippy::disallowed_methods)] // the CLI resolves its own cwd
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            cloudsched_lint::find_workspace_root(&cwd).ok_or_else(|| {
                "could not locate the workspace root (pass --root DIR)".to_string()
            })?
        }
    };
    let report = cloudsched_lint::run_workspace(&root).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if report.is_clean() {
        Ok(())
    } else {
        Err("lint findings present".to_string().into())
    }
}

fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let instance = resolve_instance(args)?;
    let run = run_traced(&instance, &args.get::<String>("scheduler"))?;
    match args.opt::<String>("out") {
        Some(path) => write_text(&path, &run.jsonl)?,
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

fn cmd_metrics(args: &Args) -> Result<(), CliError> {
    let instance = resolve_instance(args)?;
    let run = run_traced(&instance, &args.get::<String>("scheduler"))?;
    let metrics = run
        .report
        .metrics
        .as_ref()
        .ok_or_else(|| "traced run carried no metrics snapshot".to_string())?;
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

fn cmd_replay(args: &Args) -> Result<(), CliError> {
    let path: String = args.get("in");
    let text = read_text(&path)?;
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

/// `cloudsched chaos`: a seed-sweep fault-injection campaign. For every
/// seed the fault-free baseline and each degradation policy run on the
/// *same* corrupted instance; the report compares accrued value and fault
/// bookkeeping. `--threads N` fans the seed sweep out over a work-stealing
/// pool — the report stays bit-identical to a serial run. `--trace-out`
/// additionally writes the byte-stable JSONL fault trace of the first
/// seed (Degrade policy when it is in the sweep).
fn cmd_chaos(args: &Args) -> Result<(), CliError> {
    use cloudsched_faults::{chaos_trace, run_campaign, ChaosConfig, FaultPlan};
    let mut cfg = ChaosConfig::default();
    if let Some(lambda) = args.opt("lambda") {
        cfg.lambda = lambda;
    }
    if let Some(seed) = args.opt("seed") {
        cfg.first_seed = seed;
    }
    if let Some(seeds) = args.opt("seeds") {
        cfg.num_seeds = seeds;
    }
    if let Some(name) = args.opt("scheduler") {
        cfg.scheduler = name;
    }
    if let Some(plan) = args
        .opt::<String>("plan")
        .and_then(|p| FaultPlan::preset(&p))
    {
        cfg.plan = plan;
    }
    // `all` parses to no single policy and keeps the whole sweep.
    if let Some(policy) = DegradationPolicy::parse(&args.get::<String>("policy")) {
        cfg.policies = vec![policy];
    }
    if let Some(threads) = args.opt("threads") {
        cfg.threads = threads;
    }
    let report = run_campaign(&cfg).map_err(|e| e.to_string())?;
    print!("{}", report.render());
    if let Some(path) = args.opt::<String>("trace-out") {
        let policy = cfg
            .policies
            .iter()
            .copied()
            .find(|&p| p == DegradationPolicy::Degrade)
            .or_else(|| cfg.policies.first().copied())
            .ok_or_else(|| "--policy resolved to an empty policy set".to_string())?;
        let trace = chaos_trace(&cfg, cfg.first_seed, policy).map_err(|e| e.to_string())?;
        write_text(&path, &trace)?;
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
/// seeded instances (n ∈ {1e3, 1e4, 1e5, 1e6}) into `BENCH_kernel.json`.
/// `--suite sweep` measures Monte-Carlo runs/second of the Table-I panel
/// in fresh vs reused-workspace modes across thread counts into
/// `BENCH_sweep.json`. `--suite fleet` measures multi-machine fleet
/// runs/second across fleet sizes and thread counts into
/// `BENCH_fleet.json`, enforcing bit-identical output at every thread
/// count. `--quick` selects each suite's CI smoke configuration. All
/// timing happens inside `cloudsched-bench` behind the `obs::Clock` seam;
/// the written report is re-parsed through the strict row codec so a
/// malformed report fails the command.
fn cmd_bench(args: &Args) -> Result<(), CliError> {
    use cloudsched_bench::{parse_report, render_report};
    let suite: String = args.get("suite");
    let quick = args.on("quick");
    let rows = match suite.as_str() {
        "sweep" => bench_sweep(quick),
        "fleet" => bench_fleet(quick),
        // The table admits only the three suites: this is "kernel".
        _ => bench_kernel(quick),
    };
    let out = args
        .opt("out")
        .unwrap_or_else(|| format!("BENCH_{suite}.json"));
    let json = render_report(&rows);
    parse_report(&json).map_err(|e| format!("generated report failed schema validation: {e}"))?;
    write_text(&out, &json)?;
    eprintln!("wrote {} rows to {out}", rows.len());
    Ok(())
}

fn bench_kernel(quick: bool) -> Vec<cloudsched_bench::Row> {
    use cloudsched_bench::{run_kernel_bench, KernelBenchConfig};
    let cfg = if quick {
        KernelBenchConfig::quick()
    } else {
        KernelBenchConfig::default()
    };
    eprintln!(
        "kernel bench: sizes {:?}, seed {}, {} rep(s)",
        cfg.sizes, cfg.seed, cfg.reps
    );
    run_kernel_bench(&cfg, |row| {
        eprintln!(
            "  {:<14} n={:<7} {:>10.1} ns/decision  {:>10.3} ms",
            row.text("scheduler"),
            row.int("n"),
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
fn cmd_fleet(args: &Args) -> Result<(), CliError> {
    use cloudsched_core::rng::{derive_seed, FLEET_DISPATCH_RUN_OFFSET, SEED_STREAM_FLEET};
    use cloudsched_insight::{fold_fleet, MachineValue};
    use cloudsched_sched::DispatchPolicy;
    use cloudsched_sim::{run_fleet, Scheduler};
    use cloudsched_workload::FleetScenario;

    let machines: usize = args.get("machines");
    if machines == 0 {
        return Err(CliError::usage(
            "machines",
            "fleet requires at least one machine",
        ));
    }
    let lambda = args.get("lambda");
    let run: usize = args.get("seed");
    let policy = DispatchPolicy::parse(&args.get::<String>("policy"))
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let threads: usize = args.get("threads");
    let mut scenario = FleetScenario::table1(lambda, machines);
    if let Some(horizon) = args.opt::<f64>("horizon") {
        if horizon <= 0.0 {
            return Err(CliError::usage("horizon", "must be positive and finite"));
        }
        scenario = scenario.with_horizon(horizon);
    }
    let name: String = args.get("scheduler");
    let name = name.as_str();
    let k = args.opt("k").unwrap_or(scenario.base.density_hi);
    let delta = args.opt("delta").unwrap_or(scenario.base.c_hi);
    // Parse the scheduler once up front so a typo is a usage error before
    // any work happens; the factory then builds the spec per machine.
    let spec = SchedulerSpec::parse(name, k, delta, scenario.base.c_lo, scenario.base.c_hi)
        .map_err(|e| CliError::Usage(e.to_string()))?;
    let seed = derive_seed(SEED_STREAM_FLEET, lambda, run);
    let instance = scenario.generate(seed).map_err(|e| e.to_string())?;
    let mut dispatch = policy.build(derive_seed(
        SEED_STREAM_FLEET,
        lambda,
        FLEET_DISPATCH_RUN_OFFSET + run,
    ));
    let factory = move |_m: usize| -> Box<dyn Scheduler> { spec.build() };
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
fn cmd_inspect(args: &Args) -> Result<(), CliError> {
    let modes: Vec<&str> = ["summary", "job", "queues", "ratio"]
        .into_iter()
        .filter(|m| args.on(m))
        .collect();
    if modes.len() > 1 {
        return Err(CliError::usage(
            modes[1],
            format!("conflicts with --{}; pick one mode", modes[0]),
        ));
    }
    if args.on("ratio") {
        return cmd_inspect_ratio(args);
    }
    let instance = resolve_instance(args)?;
    let scheduler: String = args.get("scheduler");
    let jsonl = match args.opt::<String>("in") {
        Some(path) => read_text(&path)?,
        None => cloudsched::run_traced_with_provenance(&instance, &scheduler, true)?.jsonl,
    };
    let mut events = Vec::new();
    for (idx, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(TraceEvent::parse_jsonl(line).map_err(|e| format!("line {}: {e}", idx + 1))?);
    }
    if let Some(id) = args.opt("job") {
        let id = cloudsched_core::JobId(id);
        print!("{}", cloudsched_insight::render_job_timeline(&events, id));
        return Ok(());
    }
    if args.on("queues") {
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
fn cmd_inspect_ratio(args: &Args) -> Result<(), CliError> {
    let scheduler: String = args.get("scheduler");
    let first_seed: u64 = args.get("seed");
    let seeds: u64 = args.get("seeds");
    let scenario = scenario(args);
    let mut violations = 0usize;
    for seed in first_seed..first_seed.saturating_add(seeds) {
        let instance = scenario.generate(seed).map_err(|e| e.to_string())?.instance;
        let s = SchedulerSpec::for_instance(&scheduler, &instance).map_err(|e| e.to_string())?;
        let run = simulate(
            &instance.jobs,
            &instance.capacity,
            &mut *s.build(),
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
fn cmd_bench_diff(args: &Args) -> Result<(), CliError> {
    let old_path: String = args.get("old");
    let new_path: String = args.get("new");
    let tol: f64 = args.get("tol");
    if tol < 0.0 {
        return Err(CliError::usage(
            "tol",
            format!("expected a non-negative percent, got `{tol}`"),
        ));
    }
    let old = read_text(&old_path)?;
    let new = read_text(&new_path)?;
    let diff = cloudsched_bench::diff_reports(&old, &new, tol)?;
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
fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use cloudsched_obs::JournalSink;
    let in_path: String = args.get("in");
    let mut cfg =
        cloudsched_sim::ServiceConfig::new(&args.get::<String>("scheduler"), args.get("k"));
    cfg.delta = args.get("delta");
    cfg.snapshot_every = args.get("snapshot-every");
    cfg.queue_cap = args.opt("queue-cap").unwrap_or(usize::MAX);
    cfg.journal_attempts = u32::try_from(args.get::<u64>("retries")).unwrap_or(u32::MAX);
    cfg.crash_after = args.opt("crash-after");
    if let Some(policy) = DegradationPolicy::parse(&args.get::<String>("policy")) {
        cfg.policy = policy;
    }
    let rate = args.get("rate");
    let capacity =
        cloudsched_capacity::Constant::new(rate).map_err(|e| CliError::usage("rate", e))?;
    let stream = read_text(&in_path)?;
    let mut scheduler = SchedulerSpec::parse(&cfg.scheduler, cfg.k, cfg.delta, rate, rate)
        .map_err(|e| CliError::usage("scheduler", e))?
        .build();
    let mut journal = match args.opt::<String>("journal") {
        Some(path) => Some(
            cloudsched_obs::FileJournal::create(std::path::Path::new(&path))
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
fn cmd_recover(args: &Args) -> Result<(), CliError> {
    let journal_path: String = args.get("journal");
    let in_path: String = args.get("in");
    let journal = read_text(&journal_path)?;
    let stream = read_text(&in_path)?;
    let header = cloudsched_sim::journal_header(&journal).map_err(|e| e.to_string())?;
    let capacity = cloudsched_capacity::Constant::new(header.rate).map_err(|e| e.to_string())?;
    let mut scheduler = SchedulerSpec::parse(
        &header.scheduler,
        header.k,
        header.delta,
        header.c_lo,
        header.c_hi,
    )
    .map_err(|e| e.to_string())?
    .build();
    let outcome = cloudsched_sim::recover(&capacity, scheduler.as_mut(), &journal, &stream)
        .map_err(|e| e.to_string())?;
    eprintln!(
        "recovered from {journal_path}: scheduler {}, {} journaled arrivals",
        header.scheduler, outcome.arrivals_applied
    );
    finish_service_outcome(&outcome)
}

/// `cloudsched repro`: runs the selected `cloudsched_bench::repro`
/// experiments in order, prints each report and writes its CSV files under
/// `--out`. Output does not depend on `--threads`.
fn cmd_repro(args: &Args) -> Result<(), CliError> {
    let choice: String = args.get("experiment");
    let names = repro::selection(&choice)
        .ok_or_else(|| CliError::usage("experiment", format!("unknown experiment `{choice}`")))?;
    let runs: Option<usize> = args.opt("runs");
    if runs == Some(0) {
        return Err(CliError::usage("runs", "must be at least 1"));
    }
    if runs.is_some() && names.iter().all(|n| repro::default_runs(n).is_none()) {
        return Err(CliError::usage(
            "runs",
            format!("`{choice}` has a fixed size and takes no run count"),
        ));
    }
    let threads = args
        .opt("threads")
        .unwrap_or_else(cloudsched_core::par::default_threads);
    let dir = std::path::PathBuf::from(args.get::<String>("out"));
    #[allow(clippy::disallowed_methods)] // the CSV directory, beside write_text
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for name in names {
        eprintln!("repro {name}: {threads} thread(s)");
        let output = repro::run(name, runs, threads).map_err(|e| e.to_string())?;
        print!("{}", output.stdout);
        for (file, csv) in &output.files {
            let path = dir.join(file);
            write_text(&path, csv)?;
            eprintln!("wrote {}", path.display());
        }
    }
    Ok(())
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests stage scratch files in the temp dir
mod tests {
    use super::*;
    use flags::Kind;

    /// Runs one command line (command name first) exactly as `main` does.
    fn cli(words: &[&str]) -> Result<(), CliError> {
        let command = COMMANDS
            .iter()
            .find(|c| c.name == words[0])
            .expect("known command");
        dispatch(command, words[1..].iter().map(|s| s.to_string()))
    }

    fn is_usage(r: Result<(), CliError>) -> bool {
        matches!(r, Err(CliError::Usage(_)))
    }

    /// A valid value for every flag kind, used to fill required flags.
    fn valid_value(kind: Kind) -> &'static str {
        match kind {
            Kind::F64 => "2",
            Kind::U64 => "1",
            Kind::Text(_) => "/no/such/file",
            Kind::Bool => "",
            Kind::OneOf(names) | Kind::ListOf(names) => names[0],
        }
    }

    #[test]
    fn every_command_rejects_typos_bad_values_and_missing_flags_as_usage() {
        for command in COMMANDS {
            let required: Vec<String> = command
                .flags
                .iter()
                .filter(|f| f.required)
                .flat_map(|f| [format!("--{}", f.name), valid_value(f.kind).to_string()])
                .collect();
            let with = |extra: &[&str]| {
                let mut words = vec![command.name.to_string()];
                words.extend(required.iter().cloned());
                words.extend(extra.iter().map(|s| s.to_string()));
                let words: Vec<&str> = words.iter().map(String::as_str).collect();
                cli(&words)
            };
            let name = command.name;
            match with(&["--no-such-flag", "1"]) {
                Err(CliError::Usage(e)) => assert!(e.contains("no-such-flag"), "{name}: {e}"),
                other => panic!("{name}: misspelled flag gave {other:?}"),
            }
            if !required.is_empty() {
                assert!(is_usage(cli(&[name])), "{name}: missing required flag");
            }
            for flag in command.flags {
                let f = format!("--{}", flag.name);
                let bad: &[&str] = match flag.kind {
                    Kind::F64 => &["abc"],
                    Kind::U64 => &["-1"],
                    Kind::OneOf(_) => &["nonesuch"],
                    Kind::ListOf(_) => &["edf,nonesuch"],
                    // A switch takes no value; a text flag needs one.
                    Kind::Bool => &["yes"],
                    Kind::Text(_) => &[],
                };
                let mut extra = vec![f.as_str()];
                extra.extend_from_slice(bad);
                assert!(
                    is_usage(with(&extra)),
                    "{name}: {f} {bad:?} was not a usage error"
                );
            }
        }
    }

    #[test]
    fn domain_checks_on_outside_input_are_usage_errors() {
        for words in [
            &["fleet", "--machines", "0"][..],
            &["fleet", "--horizon", "-1"],
            &["bench-diff", "--old", "a", "--new", "b", "--tol", "-1"],
            &["serve", "--in", "x", "--rate", "0"],
            &["serve", "--in", "x", "--k", "inf"],
            &["lint", "--explain", "L099"],
            &["repro", "--runs", "0"],
            &["repro", "--experiment", "bounds", "--runs", "3"],
        ] {
            assert!(is_usage(cli(words)), "{words:?}");
        }
    }

    #[test]
    fn every_table_default_parses_and_help_lists_every_command() {
        for command in COMMANDS {
            for flag in command.flags {
                if let Some(default) = flag.default {
                    assert!(!flag.required, "{}: --{}", command.name, flag.name);
                    assert!(flag.kind.check(default).is_ok(), "--{}", flag.name);
                }
            }
        }
        let text = help();
        for command in COMMANDS {
            assert!(text.contains(&format!("cloudsched {} ", command.name)));
        }
    }

    #[test]
    fn repro_writes_the_experiment_csvs_and_reports_io_failures() {
        let dir = std::env::temp_dir().join("cloudsched-cli-test-repro");
        let dir_s = dir.to_str().expect("utf-8 temp path");
        cli(&["repro", "--experiment", "bounds", "--out", dir_s]).expect("bounds");
        for file in ["bounds_by_k.csv", "bounds_by_delta.csv"] {
            assert!(dir.join(file).exists(), "{file} missing");
        }
        // A file where the output directory should be is an I/O failure.
        let blocked = dir.join("bounds_by_k.csv");
        let r = cli(&[
            "repro",
            "--experiment",
            "bounds",
            "--out",
            blocked.to_str().expect("utf-8 temp path"),
        ]);
        assert!(matches!(r, Err(CliError::Runtime(_))), "got {r:?}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn lint_exit_contract_clean_findings_and_usage() {
        let dir = std::env::temp_dir().join("cloudsched-cli-test-lint");
        let src = dir.join("crates/sim/src");
        std::fs::create_dir_all(&src).expect("mkdir");
        std::fs::write(dir.join("Cargo.toml"), "[workspace]\n").expect("manifest");
        std::fs::write(src.join("lib.rs"), "pub fn f() {}\n").expect("source");
        let root = dir.to_str().expect("utf-8 temp path");
        // The root manifest does not opt into the workspace lints (L004).
        assert!(matches!(
            cli(&["lint", "--root", root]),
            Err(CliError::Runtime(_))
        ));
        std::fs::write(
            dir.join("Cargo.toml"),
            "[workspace]\n\n[lints]\nworkspace = true\n",
        )
        .expect("manifest");
        cli(&["lint", "--root", root]).expect("clean workspace");
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        )
        .expect("source");
        assert!(matches!(
            cli(&["lint", "--root", root]),
            Err(CliError::Runtime(_))
        ));
        cli(&["lint", "--explain", "L009"]).expect("known rule");
        // Ids clippy enforces are not this pass's to explain.
        assert!(is_usage(cli(&["lint", "--explain", "L007"])));
        assert!(is_usage(cli(&["lint", "--explain", "L099"])));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn chaos_command_runs_a_tiny_campaign_and_writes_a_trace() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-chaos.jsonl");
        let path_s = path.to_str().expect("utf-8 temp path");
        cli(&[
            "chaos",
            "--lambda",
            "4",
            "--seeds",
            "1",
            "--plan",
            "mild",
            "--trace-out",
            path_s,
        ])
        .expect("chaos");
        let trace = std::fs::read_to_string(&path).expect("trace file");
        assert!(!trace.is_empty());
        cli(&["replay", "--in", path_s]).expect("replay chaos trace");
        std::fs::remove_file(path).ok();
        assert!(cli(&["chaos", "--plan", "apocalyptic"]).is_err());
        assert!(cli(&["chaos", "--policy", "yolo"]).is_err());
    }

    #[test]
    fn bench_command_quick_writes_a_schema_valid_report() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-bench.json");
        cli(&["bench", "--quick", "--out", path.to_str().unwrap()]).expect("bench");
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
        cli(&[
            "bench",
            "--suite",
            "sweep",
            "--quick",
            "--out",
            path.to_str().unwrap(),
        ])
        .expect("sweep bench");
        let text = std::fs::read_to_string(&path).expect("report file");
        let rows = cloudsched_bench::parse_report(&text).expect("schema-valid report");
        assert_eq!(rows[0].schema().suite, "sweep");
        assert_eq!(rows.len(), 4, "fresh/reuse at threads {{1, 2}}");
        let digest = rows[0].text("digest");
        assert!(rows.iter().all(|r| r.text("digest") == digest));
        std::fs::remove_file(path).ok();
        assert!(cli(&["bench", "--suite", "espresso"]).is_err());
    }

    #[test]
    fn bench_fleet_quick_writes_a_schema_valid_report() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-bench-fleet.json");
        cli(&[
            "bench",
            "--suite",
            "fleet",
            "--quick",
            "--out",
            path.to_str().unwrap(),
        ])
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
    fn bench_rejects_unknown_flags_for_every_suite() {
        for suite in ["kernel", "sweep", "fleet"] {
            for flag in ["compare", "quik"] {
                match cli(&["bench", "--suite", suite, "--quick", &format!("--{flag}")]) {
                    Err(CliError::Usage(e)) => assert!(e.contains(flag), "got: {e}"),
                    other => panic!("expected usage error for {flag} on {suite}, got {other:?}"),
                }
            }
        }
        // An unknown suite is likewise a usage error, not a runtime one.
        assert!(matches!(
            cli(&["bench", "--suite", "espresso"]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn fleet_command_runs_and_rejects_bad_flags() {
        cli(&[
            "fleet",
            "--machines",
            "3",
            "--lambda",
            "4",
            "--horizon",
            "6",
            "--threads",
            "2",
        ])
        .expect("fleet run");
        // Every dispatch policy drives the same engine.
        for policy in cloudsched_sched::DISPATCH_NAMES {
            cli(&[
                "fleet",
                "--machines",
                "2",
                "--lambda",
                "3",
                "--horizon",
                "4",
                "--policy",
                policy,
            ])
            .expect("fleet run under each policy");
        }
        let usage = |args: &[&str]| {
            let mut words = vec!["fleet"];
            words.extend_from_slice(args);
            is_usage(cli(&words))
        };
        assert!(usage(&["--policy", "bogus"]));
        assert!(usage(&["--machines", "0"]));
        assert!(usage(&["--machines", "x"]));
        assert!(usage(&["--horizon", "-1"]));
        assert!(usage(&["--scheduler", "nonesuch"]));
        assert!(usage(&["--frobnicate", "1"]), "unknown flag is usage");
    }

    /// `inspect` over the small λ = 4 instance with extra flags.
    fn inspect_with(extra: &[&str]) -> Result<(), CliError> {
        let mut words = vec!["inspect", "--lambda", "4", "--seed", "2", "--horizon", "4"];
        words.extend_from_slice(extra);
        cli(&words)
    }

    #[test]
    fn inspect_summary_timeline_queue_and_ratio_modes() {
        inspect_with(&[]).expect("summary mode");
        inspect_with(&["--job", "0"]).expect("timeline mode");
        inspect_with(&["--queues"]).expect("queue mode");
        inspect_with(&["--ratio"]).expect("ratio mode");
        assert!(inspect_with(&["--job", "x"]).is_err());
    }

    #[test]
    fn inspect_reads_back_a_written_trace() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-inspect.jsonl");
        let path_str = path.to_str().expect("utf-8 temp path");
        let base = ["--lambda", "4", "--seed", "3", "--scheduler", "vdover"];
        let mut trace_words = vec!["trace"];
        trace_words.extend_from_slice(&base);
        trace_words.extend_from_slice(&["--out", path_str]);
        cli(&trace_words).expect("trace");
        let mut inspect_words = vec!["inspect"];
        inspect_words.extend_from_slice(&base);
        inspect_words.extend_from_slice(&["--in", path_str]);
        cli(&inspect_words).expect("inspect --in");
        // A trace from a different instance breaks conservation.
        let mismatched = ["inspect", "--lambda", "8", "--seed", "9", "--in", path_str];
        assert!(cli(&mismatched).is_err());
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
                ],
            )
        };
        let dir = std::env::temp_dir();
        let old = dir.join("cloudsched-cli-test-diff-old.json");
        let new = dir.join("cloudsched-cli-test-diff-new.json");
        std::fs::write(&old, render_report(&[row(100.0)])).expect("write old");
        std::fs::write(&new, render_report(&[row(101.0)])).expect("write new");
        let diff = |tol: &str| {
            cli(&[
                "bench-diff",
                "--old",
                old.to_str().expect("utf-8 temp path"),
                "--new",
                new.to_str().expect("utf-8 temp path"),
                "--tol",
                tol,
            ])
        };
        diff("10").expect("1% drift within 10% tolerance");
        std::fs::write(&new, render_report(&[row(200.0)])).expect("write new");
        let err = diff("10").expect_err("100% slowdown");
        match &err {
            CliError::Runtime(e) => assert!(e.contains("regressed"), "got: {e}"),
            CliError::Usage(e) => panic!("regression is a runtime error, got usage: {e}"),
        }
        assert!(cli(&["bench-diff", "--old", "/no/file"]).is_err());
        std::fs::remove_file(old).ok();
        std::fs::remove_file(new).ok();
    }

    #[test]
    fn default_run_list_resolves_through_the_factory() {
        for name in "vdover,dover-lo,edf,hvdf".split(',') {
            assert!(
                SchedulerSpec::parse(name, 7.0, 2.0, 1.0, 2.0).is_ok(),
                "factory rejected {name}"
            );
        }
    }

    #[test]
    fn trace_command_round_trips_through_replay() {
        let dir = std::env::temp_dir();
        let jsonl = dir.join("cloudsched-cli-test-events.jsonl");
        cli(&[
            "trace",
            "--lambda",
            "4",
            "--seed",
            "2",
            "--scheduler",
            "edf",
            "--out",
            jsonl.to_str().unwrap(),
        ])
        .expect("trace");
        cli(&["replay", "--in", jsonl.to_str().unwrap()]).expect("replay");
        cli(&["metrics", "--lambda", "4", "--seed", "2"]).expect("metrics");
        std::fs::remove_file(jsonl).ok();
    }

    #[test]
    fn gen_and_info_round_trip_through_a_temp_file() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-trace.txt");
        let path_s = path.to_str().unwrap();
        cli(&["gen", "--lambda", "8", "--seed", "5", "--out", path_s]).expect("gen");
        cli(&["info", "--trace", path_s]).expect("info");
        cli(&["run", "--trace", path_s, "--scheduler", "edf"]).expect("run");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn audit_command_certifies_a_generated_trace() {
        let path = std::env::temp_dir().join("cloudsched-cli-test-audit.txt");
        let path_s = path.to_str().unwrap();
        cli(&["gen", "--lambda", "4", "--seed", "11", "--out", path_s]).expect("gen");
        cli(&["audit", "--trace", path_s]).expect("audit");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_trace_is_an_error() {
        assert!(cli(&["info"]).is_err());
        assert!(cli(&["info", "--trace", "/no/such/file"]).is_err());
    }

    #[test]
    fn usage_errors_are_typed_and_distinct_from_runtime_errors() {
        let runtime = |r: Result<(), CliError>| matches!(r, Err(CliError::Runtime(_)));
        // bench-diff: missing required flags, malformed tolerance, unknown
        // flags → usage; unreadable files → runtime.
        assert!(is_usage(cli(&["bench-diff", "--old", "x"])));
        assert!(is_usage(cli(&[
            "bench-diff",
            "--old",
            "a",
            "--new",
            "b",
            "--tol",
            "-1"
        ])));
        assert!(is_usage(cli(&[
            "bench-diff",
            "--old",
            "a",
            "--new",
            "b",
            "--typo",
            "1"
        ])));
        assert!(runtime(cli(&[
            "bench-diff",
            "--old",
            "/no/a",
            "--new",
            "/no/b"
        ])));
        // inspect: malformed job id, unknown flag, conflicting modes.
        assert!(is_usage(inspect_with(&["--job", "x"])));
        assert!(is_usage(inspect_with(&["--frobnicate", "1"])));
        assert!(is_usage(inspect_with(&["--queues", "--job", "0"])));
        assert!(is_usage(inspect_with(&["--ratio", "--seeds", "x"])));
        // serve/recover: missing required flags.
        assert!(is_usage(cli(&["serve"])));
        assert!(is_usage(cli(&["recover", "--journal", "x"])));
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
        cli(&[
            "serve",
            "--in",
            stream_s,
            "--journal",
            journal_s,
            "--snapshot-every",
            "2",
            "--crash-after",
            "1",
        ])
        .expect("crashed serve still exits cleanly");
        cli(&["recover", "--journal", journal_s, "--in", stream_s])
            .expect("recover finishes the crashed run");
        // The journal header names the scheduler for recovery.
        let body = std::fs::read_to_string(&journal).expect("journal file");
        let header = cloudsched_sim::journal_header(&body).expect("parsable journal");
        assert_eq!(header.scheduler, "vdover");
        std::fs::remove_file(stream).ok();
        std::fs::remove_file(journal).ok();
    }
}
