//! Experiment harness for the JoinBoost reproduction.
//!
//! `cargo run -p joinboost-bench --release --bin experiments -- <name|all>`
//! regenerates the series of the tables and figures in the paper's
//! evaluation and prints them as tables (`experiments help` lists them;
//! DESIGN.md has the index). Nothing here asserts a model: the
//! bit-identity claims are pinned tests (`ci/pinned-tests.txt`), and
//! recorded performance numbers live in `jbbench/`.

pub mod experiments;
pub mod report;

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
