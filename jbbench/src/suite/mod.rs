//! The four workloads. [`run`] executes one of them, untraced (end-to-end
//! metrics) or traced (per-layer metrics), and returns what it measured.
//!
//! Load shape: the reference host has 2 cores. All load comes from this
//! one process with at most 2 client threads; training runs with
//! `TrainParams::threads = 1`; at most 2 `shard_server` children run.
//! Every workload is a closed loop: the trainer and each predict client
//! wait for each reply before sending the next request.

pub mod predict;
pub mod serve;
pub mod store;
pub mod train;

use std::collections::BTreeMap;
use std::path::PathBuf;

use joinboost::GbmModel;

use crate::metrics::{MetricDef, Workload, END_TO_END, PER_LAYER};

/// How much work a workload does. Rows and shapes are the issue's; the
/// iteration counts are cut so that a run with its repetitions, set-ups
/// and reference trainings fits the driver's per-run budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizes {
    /// Fact rows of the Favorita star (`mem_star`, `paged_star`, `serve_batch`).
    pub star_rows: usize,
    /// Boosting iterations of `mem_star` and `paged_star`.
    pub star_iters: usize,
    /// Fact rows and distinct feature values of `remote_highcard`.
    pub highcard_rows: usize,
    pub highcard_card: i64,
    pub highcard_iters: usize,
    /// Boosting iterations of the job `serve_batch` submits.
    pub job_iters: usize,
    /// Set-ups (each followed by a predict window) per `serve_batch` run.
    pub serve_setups: usize,
    /// Predict calls per client discarded before measuring: on
    /// `serve_batch`, and in the short per-repetition windows of the
    /// training workloads.
    pub predict_discard: usize,
    pub train_predict_discard: usize,
    /// Timed repetitions per training run, at least.
    pub min_reps: usize,
    /// Idle round trips timed for `remote.rtt_us_p50`.
    pub rtt_pings: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        star_rows: 100_000,
        star_iters: 6,
        highcard_rows: 200_000,
        highcard_card: 20_000,
        highcard_iters: 5,
        job_iters: 4,
        serve_setups: 4,
        predict_discard: 2_000,
        train_predict_discard: 200,
        min_reps: 3,
        rtt_pings: 500,
    };

    /// Every workload at about 1/50 size: the harness cannot rot unseen,
    /// and the numbers mean nothing.
    pub const SMOKE: Sizes = Sizes {
        star_rows: 2_000,
        star_iters: 2,
        highcard_rows: 4_000,
        highcard_card: 400,
        highcard_iters: 2,
        job_iters: 2,
        serve_setups: 2,
        predict_discard: 20,
        train_predict_discard: 20,
        min_reps: 2,
        rtt_pings: 20,
    };
}

/// One invocation: a workload, a seed, a measuring time, traced or not.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Where scratch stores and trace files go.
    pub out_dir: PathBuf,
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted: `SqlBackend` calls on a training workload,
    /// predict calls on `serve_batch`.
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Metric name → the samples its value is the median of.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Model fingerprint the correctness gate compared.
    pub fingerprint: u64,
    /// Lines for the human reader.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Record a metric as the median of its samples.
    pub fn set_median(&mut self, name: &'static str, samples: Vec<f64>) {
        self.metrics.insert(name, median(&samples));
        self.samples.insert(name, samples);
    }

    /// The metrics this invocation owes: every end-to-end metric
    /// (untraced) or every per-layer metric (traced), in registry order.
    /// A per-layer metric nobody set is a layer that did nothing: 0. An
    /// end-to-end metric that is missing, zero or not finite is an error.
    pub fn owed(&self, trace: bool) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        defs.iter()
            .map(|def| {
                let value = self.metrics.get(def.name).copied();
                match (trace, value) {
                    (true, v) => Ok((def, v.unwrap_or(0.0))),
                    (false, Some(v)) if v.is_finite() && v > 0.0 => Ok((def, v)),
                    (false, v) => Err(format!(
                        "end-to-end metric {} must be measured and positive, got {v:?}",
                        def.name
                    )),
                }
            })
            .collect()
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(v, n=4)` gives them — the driver's measure of
/// spread — extrapolation past the extremes of a tiny sample included.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let at = |k: usize| {
        let rank4 = k * (n + 1);
        let j = (rank4 / 4).clamp(1, n - 1);
        let delta = rank4 as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[((n - 1) as f64 * q).round() as usize],
    }
}

/// Hash of everything that decides a model's predictions, bit for bit:
/// `init_score` and every node's split, links, value and weight. Equal
/// fingerprints are what "the same model" means in the correctness gate
/// (plain `==` on `f64` would accept `0.0 == -0.0`).
pub fn fingerprint(model: &GbmModel) -> u64 {
    use joinboost::SplitCondition;
    // FNV-1a.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(&model.init_score.to_bits().to_le_bytes());
    eat(&model.learning_rate.to_bits().to_le_bytes());
    eat(&(model.trees.len() as u64).to_le_bytes());
    for tree in &model.trees {
        eat(&(tree.nodes.len() as u64).to_le_bytes());
        for node in &tree.nodes {
            match &node.split {
                None => eat(&[0]),
                Some(s) => {
                    eat(&[1, s.default_left as u8]);
                    eat(s.feature.as_bytes());
                    eat(&[0xff]);
                    eat(s.relation.as_bytes());
                    eat(&[0xff]);
                    match &s.cond {
                        SplitCondition::LtEq(v) => {
                            eat(&[1]);
                            eat(&v.to_bits().to_le_bytes());
                        }
                        SplitCondition::EqNum(v) => {
                            eat(&[2]);
                            eat(&v.to_bits().to_le_bytes());
                        }
                        SplitCondition::EqStr(v) => {
                            eat(&[3]);
                            eat(v.as_bytes());
                            eat(&[0xff]);
                        }
                    }
                }
            }
            eat(&(node.left as u64).to_le_bytes());
            eat(&(node.right as u64).to_le_bytes());
            eat(&node.value.to_bits().to_le_bytes());
            eat(&node.weight.to_bits().to_le_bytes());
        }
    }
    h
}

/// Run one workload once.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    match cfg.workload {
        Workload::MemStar => train::run(cfg, store::StoreKind::Mem),
        Workload::PagedStar => train::run(cfg, store::StoreKind::Paged),
        Workload::RemoteHighcard => train::run(cfg, store::StoreKind::Remote),
        Workload::ServeBatch => serve::run(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let sorted: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50.0);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([...], n=4) → [q1, _, q3]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 3.75));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[7.0, 9.0]), (6.5, 9.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn owed_metrics_default_layers_to_zero_and_refuse_a_zero_end_to_end() {
        let mut o = Outcome::default();
        let layers = o.owed(true).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.iter().all(|(_, v)| *v == 0.0));
        assert!(o.owed(false).is_err());
        for def in END_TO_END {
            o.set(def.name, 1.5);
        }
        assert_eq!(o.owed(false).unwrap().len(), END_TO_END.len());
        o.set("disk_amp", 0.0);
        assert!(o.owed(false).unwrap_err().contains("disk_amp"));
    }
}
