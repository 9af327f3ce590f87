//! `jbbench`: run the benchmark's workloads.
//!
//! ```text
//! jbbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//!     one workload once; the last line of standard output is the result
//!     (the form the benchmark driver runs, see BENCHMARK.json)
//! jbbench suite [--seed N] [--seconds S] [--smoke] [--out DIR] [--report FILE]
//!     every workload, untraced and traced; prints every metric and
//!     writes a JSON report with the host and commit it was measured on
//! jbbench --smoke
//!     the suite at about 1/50 size, a few seconds in all
//! jbbench diff <a.json> <b.json>
//!     compare two reports against the benchmark's bounds
//! jbbench benchmark-json
//!     print BENCHMARK.json as the metric registry defines it
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use jbbench::json;
use jbbench::metrics::Workload;
use jbbench::report::{
    benchmark_json, diff, outcome_json, print_diff, print_outcome, result_line, suite_report,
    RUN_SECONDS,
};
use jbbench::suite::{self, RunConfig, Sizes};

const USAGE: &str = "usage:
  jbbench --workload <mem_star|paged_star|remote_highcard|serve_batch> --seed <n> --seconds <s> --trace <0|1> [--out DIR]
  jbbench suite [--seed N] [--seconds S] [--smoke] [--out DIR] [--report FILE]
  jbbench --smoke
  jbbench diff <a.json> <b.json>
  jbbench benchmark-json";

/// Seconds a smoke run measures for: long enough to run every code path.
const SMOKE_SECONDS: f64 = 0.2;

fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        SMOKE_SECONDS
    } else {
        RUN_SECONDS as f64
    }
}

struct Args {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out_dir: PathBuf,
    report: Option<PathBuf>,
    /// Where a child of `suite` leaves its outcome for the parent.
    outcome: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        report: None,
        outcome: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--report" => args.report = Some(PathBuf::from(value("--report")?)),
            "--outcome" => args.outcome = Some(PathBuf::from(value("--outcome")?)),
            "--help" | "-h" => args.command = Some("help".into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            word if args.command.is_none() && args.workload.is_none() => {
                args.command = Some(word.to_string())
            }
            word => args.positional.push(word.to_string()),
        }
    }
    Ok(args)
}

fn sizes(smoke: bool) -> Sizes {
    if smoke {
        Sizes::SMOKE
    } else {
        Sizes::FULL
    }
}

/// Run one workload once in this process, print its metrics and, last,
/// its result line. A run that failed an operation or lacks a metric it
/// owes prints nothing: a failing run has no result.
fn run_one(args: &Args, workload: Workload) -> Result<(), String> {
    let cfg = RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(default_seconds(args.smoke)),
        trace: args.trace,
        sizes: sizes(args.smoke),
        out_dir: args.out_dir.clone(),
    };
    let outcome = suite::run(&cfg)?;
    let line = result_line(&outcome, cfg.trace)?;
    if !outcome.correct {
        return Err(format!(
            "{}: {} of {} operations failed",
            workload.name(),
            outcome.failed,
            outcome.attempted
        ));
    }
    if let Some(path) = &args.outcome {
        std::fs::write(path, outcome_json(&outcome, cfg.trace).to_string())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    print_outcome(workload, &outcome, cfg.trace);
    println!("{line}");
    Ok(())
}

/// One run of the suite, in a process of its own: peak memory is a
/// process-wide high-water mark, and with the allocator told to keep what
/// it has, a workload would inherit the heap of the one before it.
fn run_child(
    args: &Args,
    seconds: f64,
    workload: Workload,
    trace: bool,
) -> Result<json::Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let outcome_path = args.out_dir.join(format!(
        "{}.{}.outcome.json",
        workload.name(),
        if trace { "traced" } else { "plain" }
    ));
    let mut child = std::process::Command::new(exe);
    child
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .arg("--outcome")
        .arg(&outcome_path);
    if args.smoke {
        child.arg("--smoke");
    }
    let status = child.status().map_err(|e| format!("spawn jbbench: {e}"))?;
    if !status.success() {
        return Err(format!(
            "{} (trace {trace}) failed: {status}",
            workload.name()
        ));
    }
    let text = std::fs::read_to_string(&outcome_path)
        .map_err(|e| format!("read {}: {e}", outcome_path.display()))?;
    let _ = std::fs::remove_file(&outcome_path);
    json::parse(&text).map_err(|e| format!("{}: {e}", outcome_path.display()))
}

fn run_suite(args: &Args) -> Result<(), String> {
    let seconds = args.seconds.unwrap_or(default_seconds(args.smoke));
    let mut runs = Vec::new();
    for workload in Workload::ALL {
        let plain = run_child(args, seconds, workload, false)?;
        let traced = run_child(args, seconds, workload, true)?;
        runs.push((workload, plain, traced));
    }
    let report = suite_report(args.seed, seconds, &sizes(args.smoke), &runs);
    let path = args
        .report
        .clone()
        .unwrap_or_else(|| args.out_dir.join("report.json"));
    std::fs::write(&path, report.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn run_diff(args: &Args) -> Result<bool, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("diff takes two report files".into());
    };
    let load = |path: &String| -> Result<json::Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (rows, counts) = diff(&load(a)?, &load(b)?)?;
    Ok(print_diff(&rows, &counts))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result =
        parse_args(&argv).and_then(|args| match (args.command.as_deref(), args.workload) {
            (Some("help"), _) => {
                println!("{USAGE}");
                Ok(false)
            }
            (Some("diff"), _) => run_diff(&args),
            (Some("benchmark-json"), _) => {
                print!("{}", benchmark_json().pretty());
                Ok(false)
            }
            (Some("suite"), _) => run_suite(&args).map(|()| false),
            (None, Some(workload)) => run_one(&args, workload).map(|()| false),
            (None, None) if args.smoke => run_suite(&args).map(|()| false),
            (Some(other), _) => Err(format!("unknown command {other}\n{USAGE}")),
            (None, None) => Err(USAGE.to_string()),
        });
    match result {
        Ok(false) => ExitCode::SUCCESS,
        // `diff` found a regression.
        Ok(true) => ExitCode::from(2),
        Err(e) => {
            eprintln!("jbbench: {e}");
            ExitCode::FAILURE
        }
    }
}
