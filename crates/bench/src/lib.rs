//! Experiment harness for the JoinBoost reproduction.
//!
//! `cargo run -p joinboost-bench --release --bin experiments -- <figN|all>`
//! regenerates the series of every table and figure in the paper's
//! evaluation and prints them as tables (DESIGN.md has the experiment
//! index). Recorded performance numbers live in `jbbench/`.

pub mod experiments;
pub mod report;
pub mod synth;

pub use report::Report;

use std::time::{Duration, Instant};

/// Time a closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// Seconds as a compact string.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}
