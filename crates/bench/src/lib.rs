//! Experiment harness for the JoinBoost reproduction.
//!
//! `cargo run -p joinboost-bench --release --bin experiments -- <figN|all>`
//! regenerates the series of every table and figure in the paper's
//! evaluation (see DESIGN.md for the experiment index and EXPERIMENTS.md
//! for recorded outputs). Criterion micro-benchmarks live under
//! `benches/`.

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
