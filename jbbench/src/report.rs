//! Reports: the one-line result the driver reads, the JSON report of a
//! whole suite run (with the host it ran on and the commit it measured),
//! and `jbbench diff`, which compares two such reports against the
//! benchmark's own bounds.

use std::process::Command;

use crate::json::Json;
use crate::metrics::{Better, MetricDef, Workload, END_TO_END, PER_LAYER};
use crate::suite::{quartiles, Outcome, Sizes};

/// The last line of standard output of a driver-mode run: exactly the
/// keys `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let metrics = outcome
        .owed(trace)?
        .into_iter()
        .map(|(def, value)| (def.name, metric_json(def, value)));
    Ok(Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string())
}

/// Exact counts print as integers, measurements with all their digits.
fn metric_json(def: &MetricDef, value: f64) -> Json {
    let number = if def.exact && value.fract() == 0.0 && value.abs() < 9e15 {
        Json::Int(value as i64)
    } else {
        Json::Num(value)
    };
    Json::obj([("value", number), ("unit", Json::str(def.unit))])
}

/// Seconds of measuring the driver asks of each run (`run_seconds`).
pub const RUN_SECONDS: i64 = 15;

/// `BENCHMARK.json`, written from the registry so the two cannot drift
/// (`jbbench benchmark-json > BENCHMARK.json`).
pub fn benchmark_json() -> Json {
    let strings = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let metric = |def: &MetricDef, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::str(def.name)),
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better.as_str())),
        ];
        if with_bound {
            fields.push(("bound", Json::Num(def.bound)));
        }
        Json::obj(fields)
    };
    Json::obj([
        ("command", strings(&["bash", "jbbench/run.sh"])),
        ("paths", strings(&["jbbench"])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

/// One metric per line, for the human reader.
pub fn print_outcome(workload: Workload, outcome: &Outcome, trace: bool) {
    println!(
        "== {} ({}) ==",
        workload.name(),
        if trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    for note in &outcome.notes {
        println!("   {note}");
    }
    let defs = if trace { PER_LAYER } else { END_TO_END };
    for def in defs {
        let Some(value) = outcome.metrics.get(def.name) else {
            continue;
        };
        let spread = match outcome.samples.get(def.name) {
            Some(s) if s.len() > 1 => {
                let (lo, hi) = min_max(s);
                format!("  (median of {}, {lo:.4} .. {hi:.4})", s.len())
            }
            _ => String::new(),
        };
        println!(
            "   {:<34} {:>16} {}{spread}",
            def.name,
            trim(*value),
            def.unit
        );
    }
}

fn trim(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

fn min_max(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// The host a report was measured on: numbers from two hosts, toolchains
/// or profiles do not compare.
pub fn host_fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let unknown = || "unknown".to_string();
    Json::obj([
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("cpu_model", Json::Str(cpu_model)),
        (
            "kernel",
            Json::Str(command_line("uname", &["-sr"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::Str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release (thin LTO, 1 codegen unit)"
            }),
        ),
    ])
}

/// `git rev-parse HEAD` of the working directory, or `unknown` outside a
/// repository (the driver's checkout is not one).
pub fn git_rev() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

fn sizes_json(s: &Sizes) -> Json {
    Json::obj([
        ("star_rows", Json::Int(s.star_rows as i64)),
        ("star_iters", Json::Int(s.star_iters as i64)),
        ("highcard_rows", Json::Int(s.highcard_rows as i64)),
        ("highcard_card", Json::Int(s.highcard_card)),
        ("highcard_iters", Json::Int(s.highcard_iters as i64)),
        ("job_iters", Json::Int(s.job_iters as i64)),
        ("serve_setups", Json::Int(s.serve_setups as i64)),
        ("predict_discard", Json::Int(s.predict_discard as i64)),
        (
            "train_predict_discard",
            Json::Int(s.train_predict_discard as i64),
        ),
        ("min_reps", Json::Int(s.min_reps as i64)),
    ])
}

/// What one run adds to a suite report: its verdict, its metrics (a
/// median carries the extremes, quartiles and count of its samples) and
/// its notes. The suite runs every workload in a process of its own —
/// peak memory is a process-wide high-water mark — and each child hands
/// this back to the parent through a file.
pub fn outcome_json(outcome: &Outcome, trace: bool) -> Json {
    let defs = if trace { PER_LAYER } else { END_TO_END };
    let metrics = defs.iter().filter_map(|def| {
        let value = *outcome.metrics.get(def.name)?;
        let mut fields = match metric_json(def, value) {
            Json::Obj(f) => f,
            _ => unreachable!("metric_json builds an object"),
        };
        if let Some(samples) = outcome.samples.get(def.name) {
            let (lo, hi) = min_max(samples);
            let (q1, q3) = quartiles(samples);
            for (key, v) in [("min", lo), ("q1", q1), ("q3", q3), ("max", hi)] {
                fields.push((key.into(), Json::Num(v)));
            }
            fields.push(("n".into(), Json::Int(samples.len() as i64)));
        }
        Some((def.name, Json::Obj(fields)))
    });
    Json::obj([
        ("correct", Json::Bool(outcome.correct)),
        ("ops", Json::Int(outcome.attempted as i64)),
        ("ops_failed", Json::Int(outcome.failed as i64)),
        (
            "model_fingerprint",
            Json::Str(format!("{:016x}", outcome.fingerprint)),
        ),
        ("metrics", Json::obj(metrics)),
        (
            "notes",
            Json::Arr(outcome.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
    ])
}

/// The report of a suite run: the host and commit it measured, and for
/// every workload its untraced and its traced [`outcome_json`].
pub fn suite_report(
    seed: u64,
    seconds: f64,
    sizes: &Sizes,
    runs: &[(Workload, Json, Json)],
) -> Json {
    let int = |o: &Json, key: &str| o.get(key).and_then(Json::as_f64).unwrap_or(0.0) as i64;
    let list = |o: &Json, key: &str| o.get(key).and_then(Json::as_arr).unwrap_or(&[]).to_vec();
    let part = |o: &Json, key: &str| o.get(key).cloned().unwrap_or(Json::Null);
    Json::obj([
        ("schema", Json::str("jbbench-report-1")),
        ("host", host_fingerprint()),
        ("git_rev", Json::Str(git_rev())),
        ("seed", Json::Int(seed as i64)),
        ("seconds", Json::Num(seconds)),
        ("sizes", sizes_json(sizes)),
        (
            "workloads",
            Json::obj(runs.iter().map(|(w, plain, traced)| {
                let both = |key: &str| [plain, traced].map(|o| int(o, key)).iter().sum::<i64>();
                let correct = [plain, traced]
                    .iter()
                    .all(|o| o.get("correct") == Some(&Json::Bool(true)));
                let mut notes = list(plain, "notes");
                notes.extend(list(traced, "notes"));
                (
                    w.name(),
                    Json::obj([
                        ("correct", Json::Bool(correct)),
                        ("ops", Json::Int(both("ops"))),
                        ("ops_failed", Json::Int(both("ops_failed"))),
                        ("model_fingerprint", part(plain, "model_fingerprint")),
                        ("end_to_end", part(plain, "metrics")),
                        ("per_layer", part(traced, "metrics")),
                        ("notes", Json::Arr(notes)),
                    ]),
                )
            })),
        ),
    ])
}

/// A verdict of `jbbench diff`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// A report's own interquartile spread exceeds the bound, so the
    /// difference between the two cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of `jbbench diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    /// Share of `a` by which `b` is worse (negative: better).
    pub worse_by: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Relative interquartile spread a report recorded for a metric (0 for
/// a metric reported from a single sample): the measure the benchmark
/// driver judges steadiness by. For three samples the quartiles are the
/// extremes.
fn spread(entry: &Json) -> f64 {
    let (Some(lo), Some(hi), Some(v)) = (
        entry.get("q1").and_then(Json::as_f64),
        entry.get("q3").and_then(Json::as_f64),
        entry.get("value").and_then(Json::as_f64),
    ) else {
        return 0.0;
    };
    if v == 0.0 {
        0.0
    } else {
        (hi - lo) / v.abs()
    }
}

/// Compare report `b` against report `a`: one row per (workload,
/// end-to-end metric), and the exact per-layer counts that differ.
pub fn diff(a: &Json, b: &Json) -> Result<(Vec<DiffRow>, Vec<String>), String> {
    let workloads = |r: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(r.get("workloads")
            .and_then(Json::as_obj)
            .ok_or("report has no \"workloads\" object")?
            .to_vec())
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut rows = Vec::new();
    let mut count_changes = Vec::new();
    for (name, ra) in &wa {
        let Some((_, rb)) = wb.iter().find(|(n, _)| n == name) else {
            count_changes.push(format!("{name}: missing from the second report"));
            continue;
        };
        for def in END_TO_END {
            let entry = |r: &Json| r.get("end_to_end").and_then(|m| m.get(def.name)).cloned();
            let (Some(ea), Some(eb)) = (entry(ra), entry(rb)) else {
                continue;
            };
            let value = |e: &Json| e.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (value(&ea), value(&eb)) else {
                continue;
            };
            let worse_by = match def.better {
                Better::Lower => (vb - va) / va,
                Better::Higher => (va - vb) / va,
            };
            let verdict = if spread(&ea).max(spread(&eb)) > def.bound {
                Verdict::Unresolved
            } else if worse_by > def.bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(DiffRow {
                workload: name.clone(),
                metric: def.name,
                unit: def.unit,
                a: va,
                b: vb,
                worse_by,
                bound: def.bound,
                verdict,
            });
        }
        for def in PER_LAYER.iter().filter(|d| d.exact) {
            let value = |r: &Json| {
                r.get("per_layer")
                    .and_then(|m| m.get(def.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_f64)
            };
            if let (Some(va), Some(vb)) = (value(ra), value(rb)) {
                if va != vb {
                    count_changes.push(format!("{name}: {} {va} -> {vb}", def.name));
                }
            }
        }
    }
    Ok((rows, count_changes))
}

/// Print a diff; returns whether any row regressed.
pub fn print_diff(rows: &[DiffRow], count_changes: &[String]) -> bool {
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<16} {:<16} {:>14} {:>14} {:>8.2}% {:>6.0}%  {}",
            r.workload,
            r.metric,
            format!("{} {}", trim(r.a), r.unit),
            format!("{} {}", trim(r.b), r.unit),
            100.0 * r.worse_by,
            100.0 * r.bound,
            r.verdict.as_str()
        );
    }
    if count_changes.is_empty() {
        println!("every exact per-layer count is identical in the two reports");
    } else {
        println!("exact per-layer counts that differ:");
        for c in count_changes {
            println!("  {c}");
        }
    }
    rows.iter().any(|r| r.verdict == Verdict::Regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn report(train: f64, lo: f64, hi: f64, scores: f64, statements: i64) -> Json {
        parse(&format!(
            r#"{{"workloads": {{"mem_star": {{
                "end_to_end": {{
                    "train_s": {{"value": {train}, "unit": "s", "q1": {lo}, "q3": {hi}, "n": 3}},
                    "scores_per_s": {{"value": {scores}, "unit": "1/s"}}
                }},
                "per_layer": {{"trainer.statements": {{"value": {statements}, "unit": "count"}}}}
            }}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn diff_applies_bounds_directions_and_spread() {
        let bound = |name: &str| END_TO_END.iter().find(|m| m.name == name).unwrap().bound;
        let (train, scores) = (bound("train_s"), bound("scores_per_s"));
        let tight = |v: f64| (v, 0.999 * v, 1.001 * v);
        let a = {
            let (v, lo, hi) = tight(2.0);
            report(v, lo, hi, 1000.0, 500)
        };
        // Slower by 0.8 of the bound: inside it.
        let (v, lo, hi) = tight(2.0 * (1.0 + 0.8 * train));
        let (rows, counts) = diff(&a, &report(v, lo, hi, 1000.0, 500)).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(counts.is_empty());
        // Slower by twice the bound: regressed. Throughput up is better.
        let (v, lo, hi) = tight(2.0 * (1.0 + 2.0 * train));
        let (rows, counts) = diff(&a, &report(v, lo, hi, 2000.0, 501)).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!((rows[0].worse_by - 2.0 * train).abs() < 1e-9);
        assert_eq!(rows[1].verdict, Verdict::Ok);
        assert!(rows[1].worse_by < 0.0);
        assert_eq!(counts, vec!["mem_star: trainer.statements 500 -> 501"]);
        // Throughput down by twice the bound: regressed (higher is better).
        let (v, lo, hi) = tight(2.0);
        let slow = 1000.0 * (1.0 - 2.0 * scores);
        let (rows, _) = diff(&a, &report(v, lo, hi, slow, 500)).unwrap();
        assert_eq!(rows[1].verdict, Verdict::Regressed);
        // A report whose own spread exceeds the bound resolves nothing.
        let v = 2.0 * (1.0 + 2.0 * train);
        let (rows, _) = diff(
            &a,
            &report(v, v * (1.0 - train), v * (1.0 + train), 1000.0, 500),
        )
        .unwrap();
        assert_eq!(rows[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            correct: true,
            attempted: 10,
            ..Outcome::default()
        };
        for def in END_TO_END {
            o.set(def.name, 1.25);
        }
        let line = parse(&result_line(&o, false).unwrap()).unwrap();
        let keys: Vec<&str> = line
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics[0].1,
            parse(r#"{"value": 1.25, "unit": "s"}"#).unwrap()
        );
        // Traced: every per-layer metric, idle layers as 0.
        let traced = parse(&result_line(&o, true).unwrap()).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().unwrap().len(),
            PER_LAYER.len()
        );
        assert!(result_line(&Outcome::default(), false).is_err());
    }
}
