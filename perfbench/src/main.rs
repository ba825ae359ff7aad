//! `perfbench --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! [--spans FILE]`
//!
//! Runs one workload and prints notes, then the result line last. Exit
//! code 0 when every output check passed, 1 when one failed, 2 on a usage
//! error. `run.py` wraps this binary: it builds it and adds the process's
//! peak memory.

#![forbid(unsafe_code)]

use cloudsched_perfbench::layers::SpanLog;
use cloudsched_perfbench::{run, Args, Workload};
use std::process::ExitCode;

const USAGE: &str =
    "usage: perfbench --workload kernel-burst|fleet-p2c64|serve-wal --seed N --seconds S \
     --trace 0|1 [--smoke] [--spans FILE]";

fn parse(argv: &[String]) -> Result<(Args, Option<String>), String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut spans) = (false, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--spans" => spans = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    };
    Ok((args, spans))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (args, spans_path) = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut spans = SpanLog::default();
    let (result, notes) = run(&args, &mut spans);
    for n in &notes {
        println!("{n}");
    }
    if let Some(path) = spans_path {
        if let Err(e) = std::fs::write(&path, spans.to_jsonl()) {
            eprintln!("perfbench: writing spans to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    match result.render() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
