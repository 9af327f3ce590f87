//! `jbbench`: the end-to-end benchmark of the JoinBoost reproduction.
//!
//! Four named workloads ([`metrics::Workload`]), eight end-to-end metrics
//! and a set of per-layer metrics ([`metrics`]), measured from outside the
//! program by wrapping its public seams ([`timed`]) and recording spans
//! ([`trace`]). See `README.md` in this directory for what each name
//! means and which end-to-end metric each layer metric should move.

pub mod data;
pub mod json;
pub mod metrics;
pub mod procs;
pub mod report;
pub mod suite;
pub mod timed;
pub mod trace;
