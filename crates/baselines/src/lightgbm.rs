//! A LightGBM-like single-table trainer.
//!
//! Reproduces the two properties the paper's comparison hinges on:
//!
//! 1. it consumes a **single denormalized table**, so it pays join
//!    materialization + export + load before training starts
//!    ([`export_join`]);
//! 2. training is a tight in-memory loop over flat arrays — histogram
//!    split finding (with the library's histogram subtraction: only the
//!    smaller child of a split is binned from rows, the larger one's
//!    histograms are its parent's minus its sibling's) and
//!    **multi-threaded residual updates** (a parallel write to a
//!    `Vec<f64>`, the ~0.2 s red line of Figure 5).
//!
//! It also models the library's weakness: everything must fit in memory
//! ([`LgbmParams::memory_limit_bytes`] makes the paper's OOM crossovers
//! reproducible).

use std::io::{BufRead, Write};
use std::time::{Duration, Instant};

use joinboost::predict::materialize_features;
use joinboost::tree::{Split, SplitCondition, Tree, TreeNode};
use joinboost::Dataset;
use joinboost_semiring::variance_reduction;

/// A denormalized in-memory dataset (what the CSV loads into).
#[derive(Debug, Clone, Default)]
pub struct FlatDataset {
    pub feature_names: Vec<String>,
    /// Column-major feature values.
    pub features: Vec<Vec<f64>>,
    pub y: Vec<f64>,
}

impl FlatDataset {
    pub fn num_rows(&self) -> usize {
        self.y.len()
    }

    /// Approximate resident bytes.
    pub fn byte_size(&self) -> usize {
        (self.features.len() + 1) * self.y.len() * 8
    }
}

/// Costs of getting data out of the DBMS and into the library.
#[derive(Debug, Clone, Default)]
pub struct ExportStats {
    pub join_time: Duration,
    pub export_time: Duration,
    pub load_time: Duration,
    pub exported_bytes: u64,
}

impl ExportStats {
    pub fn total(&self) -> Duration {
        self.join_time + self.export_time + self.load_time
    }
}

/// Materialize the join, export it as CSV to a temp file, and load it back
/// — the pipeline every single-table ML library imposes (Section 6,
/// "Methods").
pub fn export_join(set: &Dataset) -> joinboost::Result<(FlatDataset, ExportStats)> {
    let mut stats = ExportStats::default();
    let t0 = Instant::now();
    let table = materialize_features(set)?;
    stats.join_time = t0.elapsed();

    let feature_names: Vec<String> = set.features().into_iter().map(|(f, _)| f).collect();
    let path = std::env::temp_dir().join(format!(
        "jb_export_{}_{}.csv",
        std::process::id(),
        set.fresh_table("export")
    ));
    let t1 = Instant::now();
    {
        let file = std::fs::File::create(&path)
            .map_err(|e| joinboost::TrainError::Engine(format!("export: {e}")))?;
        let mut w = std::io::BufWriter::new(file);
        for i in 0..table.num_rows() {
            let mut line = String::with_capacity(feature_names.len() * 12);
            for f in &feature_names {
                let v = table
                    .column(None, f)
                    .map_err(|e| joinboost::TrainError::Engine(e.to_string()))?
                    .f64_at(i)
                    .unwrap_or(f64::NAN);
                line.push_str(&format!("{v},"));
            }
            let y = table
                .column(None, "jb_target")
                .map_err(|e| joinboost::TrainError::Engine(e.to_string()))?
                .f64_at(i)
                .unwrap_or(f64::NAN);
            line.push_str(&format!("{y}\n"));
            w.write_all(line.as_bytes())
                .map_err(|e| joinboost::TrainError::Engine(format!("export: {e}")))?;
        }
        w.flush()
            .map_err(|e| joinboost::TrainError::Engine(format!("export: {e}")))?;
    }
    stats.export_time = t1.elapsed();
    stats.exported_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);

    let t2 = Instant::now();
    let file = std::fs::File::open(&path)
        .map_err(|e| joinboost::TrainError::Engine(format!("load: {e}")))?;
    let reader = std::io::BufReader::new(file);
    let mut data = FlatDataset {
        feature_names: feature_names.clone(),
        features: vec![Vec::new(); feature_names.len()],
        y: Vec::new(),
    };
    for line in reader.lines() {
        let line = line.map_err(|e| joinboost::TrainError::Engine(format!("load: {e}")))?;
        let mut parts = line.split(',');
        for col in &mut data.features {
            let v: f64 = parts.next().unwrap_or("nan").parse().unwrap_or(f64::NAN);
            col.push(v);
        }
        let y: f64 = parts.next().unwrap_or("nan").parse().unwrap_or(f64::NAN);
        data.y.push(y);
    }
    stats.load_time = t2.elapsed();
    let _ = std::fs::remove_file(&path);
    Ok((data, stats))
}

/// Training parameters (LightGBM naming; L2 objective).
#[derive(Debug, Clone)]
pub struct LgbmParams {
    pub num_iterations: usize,
    pub learning_rate: f64,
    pub num_leaves: usize,
    pub max_bins: usize,
    pub min_data_in_leaf: usize,
    pub bagging_fraction: f64,
    pub feature_fraction: f64,
    pub threads: usize,
    pub seed: u64,
    /// Simulated memory budget; exceeding it aborts with an OOM error
    /// (reproducing the paper's LightGBM failures at high feature counts
    /// and scale factors).
    pub memory_limit_bytes: Option<usize>,
}

impl Default for LgbmParams {
    fn default() -> Self {
        LgbmParams {
            num_iterations: 10,
            learning_rate: 0.1,
            num_leaves: 8,
            max_bins: 1000,
            min_data_in_leaf: 1,
            bagging_fraction: 1.0,
            feature_fraction: 1.0,
            threads: 4,
            seed: 42,
            memory_limit_bytes: None,
        }
    }
}

/// Trained model plus timing breakdown.
#[derive(Debug, Clone)]
pub struct LgbmModel {
    pub init_score: f64,
    pub learning_rate: f64,
    pub trees: Vec<Tree>,
    /// `true` for boosted models (additive), `false` for bagged (averaged).
    pub boosted: bool,
    pub train_time: Duration,
    /// Time in residual updates only.
    pub update_time: Duration,
}

impl LgbmModel {
    pub fn predict_row(&self, row: &dyn joinboost::tree::FeatureRow) -> f64 {
        if self.boosted {
            self.init_score
                + self.learning_rate * self.trees.iter().map(|t| t.predict(row)).sum::<f64>()
        } else if self.trees.is_empty() {
            self.init_score
        } else {
            self.trees.iter().map(|t| t.predict(row)).sum::<f64>() / self.trees.len() as f64
        }
    }

    pub fn predict_table(&self, table: &joinboost_engine::Table) -> Vec<f64> {
        (0..table.num_rows())
            .map(|i| self.predict_row(&joinboost::predict::TableRow { table, index: i }))
            .collect()
    }
}

struct Binned {
    /// Per feature: sorted bin upper-edge values (actual data values).
    edges: Vec<Vec<f64>>,
    /// Per feature: per-row bin codes.
    codes: Vec<Vec<u16>>,
}

fn bin_features(data: &FlatDataset, max_bins: usize) -> Binned {
    let n = data.num_rows();
    let mut edges = Vec::with_capacity(data.features.len());
    let mut codes = Vec::with_capacity(data.features.len());
    for col in &data.features {
        let mut sorted: Vec<f64> = col.iter().copied().filter(|v| !v.is_nan()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        sorted.dedup();
        let e: Vec<f64> = if sorted.len() <= max_bins {
            sorted
        } else {
            // Equal-frequency edges.
            (1..=max_bins)
                .map(|b| sorted[(b * sorted.len() / max_bins).saturating_sub(1)])
                .collect()
        };
        let mut c = Vec::with_capacity(n);
        for &v in col {
            let code = e.partition_point(|&edge| edge < v);
            c.push(code.min(e.len().saturating_sub(1)) as u16);
        }
        edges.push(e);
        codes.push(c);
    }
    Binned { edges, codes }
}

/// Per feature (parallel to `feats`): per-bin row counts and residual sums.
type Histograms = Vec<(Vec<f64>, Vec<f64>)>;

/// Bin one node's rows into per-feature histograms.
fn histograms(binned: &Binned, residuals: &[f64], rows: &[u32], feats: &[usize]) -> Histograms {
    feats
        .iter()
        .map(|&f| {
            let nbins = binned.edges[f].len();
            let mut count = vec![0f64; nbins];
            let mut sum = vec![0f64; nbins];
            let codes = &binned.codes[f];
            for &r in rows {
                let b = codes[r as usize] as usize;
                count[b] += 1.0;
                sum[b] += residuals[r as usize];
            }
            (count, sum)
        })
        .collect()
}

/// Histogram subtraction: a split partitions its node's rows, so the
/// larger child's histograms are the parent's minus the smaller child's.
fn subtract(mut parent: Histograms, sibling: &Histograms) -> Histograms {
    for ((pc, ps), (sc, ss)) in parent.iter_mut().zip(sibling) {
        for (p, s) in pc.iter_mut().zip(sc).chain(ps.iter_mut().zip(ss)) {
            *p -= s;
        }
    }
    parent
}

struct NodeState {
    rows: Vec<u32>,
    sum: f64,
    hist: Histograms,
    depth: usize,
    tree_index: usize,
}

/// Histogram split finding over one node's histograms.
fn best_split(
    binned: &Binned,
    node: &NodeState,
    feats: &[usize],
    min_leaf: usize,
) -> Option<(usize, f64, f64, Vec<bool>)> {
    let c_total = node.rows.len() as f64;
    let s_total = node.sum;
    let mut best: Option<(usize, usize, f64)> = None; // (feat, bin, gain)
    for (&f, (count, sum)) in feats.iter().zip(&node.hist) {
        let nbins = count.len();
        if nbins < 2 {
            continue;
        }
        let mut c_acc = 0.0;
        let mut s_acc = 0.0;
        for b in 0..nbins - 1 {
            c_acc += count[b];
            s_acc += sum[b];
            if c_acc < min_leaf as f64 || c_total - c_acc < min_leaf as f64 {
                continue;
            }
            if let Some(gain) = variance_reduction(c_total, s_total, c_acc, s_acc) {
                if gain > 1e-12 && best.is_none_or(|(_, _, g)| gain > g) {
                    best = Some((f, b, gain));
                }
            }
        }
    }
    let (f, b, gain) = best?;
    let threshold = binned.edges[f][b];
    let mask: Vec<bool> = node
        .rows
        .iter()
        .map(|&r| binned.codes[f][r as usize] as usize <= b)
        .collect();
    Some((f, threshold, gain, mask))
}

fn check_memory(params: &LgbmParams, bytes: usize) -> joinboost::Result<()> {
    if let Some(limit) = params.memory_limit_bytes {
        if bytes > limit {
            return Err(joinboost::TrainError::Invalid(format!(
                "out of memory: needs {bytes} bytes, limit {limit}"
            )));
        }
    }
    Ok(())
}

fn grow_tree(
    binned: &Binned,
    data: &FlatDataset,
    residuals: &[f64],
    rows: Vec<u32>,
    feats: &[usize],
    params: &LgbmParams,
) -> Tree {
    let sum: f64 = rows.iter().map(|&r| residuals[r as usize]).sum();
    let weight = rows.len() as f64;
    let mut tree = Tree::single_leaf(if weight > 0.0 { sum / weight } else { 0.0 }, weight);
    // (gain, node, (feature, threshold, left-mask))
    type Pending = (f64, NodeState, (usize, f64, Vec<bool>));
    let mut heap: Vec<Pending> = Vec::new();
    let root = NodeState {
        hist: histograms(binned, residuals, &rows, feats),
        rows,
        sum,
        depth: 0,
        tree_index: 0,
    };
    if let Some((f, t, g, mask)) = best_split(binned, &root, feats, params.min_data_in_leaf) {
        heap.push((g, root, (f, t, mask)));
    }
    let mut leaves = 1;
    while leaves < params.num_leaves {
        // Best-first: pop max gain.
        let Some(pos) = heap
            .iter()
            .enumerate()
            .max_by(|a, b| {
                a.1 .0
                    .partial_cmp(&b.1 .0)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i)
        else {
            break;
        };
        let (_, node, (f, threshold, mask)) = heap.swap_remove(pos);
        let mut lrows = Vec::new();
        let mut rrows = Vec::new();
        for (&r, &left) in node.rows.iter().zip(&mask) {
            if left {
                lrows.push(r);
            } else {
                rrows.push(r);
            }
        }
        let lsum: f64 = lrows.iter().map(|&r| residuals[r as usize]).sum();
        let rsum = node.sum - lsum;
        let left_id = tree.nodes.len();
        let right_id = left_id + 1;
        tree.nodes.push(TreeNode {
            split: None,
            left: 0,
            right: 0,
            value: lsum / lrows.len().max(1) as f64,
            weight: lrows.len() as f64,
            depth: node.depth + 1,
        });
        tree.nodes.push(TreeNode {
            split: None,
            left: 0,
            right: 0,
            value: rsum / rrows.len().max(1) as f64,
            weight: rrows.len() as f64,
            depth: node.depth + 1,
        });
        tree.nodes[node.tree_index].split = Some(Split {
            feature: data.feature_names[f].clone(),
            relation: "flat".into(),
            cond: SplitCondition::LtEq(threshold),
            default_left: false,
        });
        tree.nodes[node.tree_index].left = left_id;
        tree.nodes[node.tree_index].right = right_id;
        leaves += 1;
        // Children of the last split are never popped: do not evaluate them.
        if leaves >= params.num_leaves {
            break;
        }
        let small_is_left = lrows.len() <= rrows.len();
        let small_hist = histograms(
            binned,
            residuals,
            if small_is_left { &lrows } else { &rrows },
            feats,
        );
        let large_hist = subtract(node.hist, &small_hist);
        let (lhist, rhist) = if small_is_left {
            (small_hist, large_hist)
        } else {
            (large_hist, small_hist)
        };
        // Left then right, so ties between the children pop as before.
        for (rows, sum, hist, idx) in [
            (lrows, lsum, lhist, left_id),
            (rrows, rsum, rhist, right_id),
        ] {
            let child = NodeState {
                rows,
                sum,
                hist,
                depth: node.depth + 1,
                tree_index: idx,
            };
            if let Some((f, t, g, mask)) =
                best_split(binned, &child, feats, params.min_data_in_leaf)
            {
                heap.push((g, child, (f, t, mask)));
            }
        }
    }
    tree
}

/// Assign each row to its leaf value (multi-threaded, like LightGBM's
/// parallel residual update) and subtract `lr · leaf` from the residuals.
fn parallel_residual_update(
    tree: &Tree,
    binned: &Binned,
    data: &FlatDataset,
    residuals: &mut [f64],
    lr: f64,
    threads: usize,
) {
    let _ = binned;
    let n = residuals.len();
    let chunk = n.div_ceil(threads.max(1));
    std::thread::scope(|scope| {
        for (ci, slice) in residuals.chunks_mut(chunk).enumerate() {
            let base = ci * chunk;
            let data = &data;
            scope.spawn(move || {
                for (i, r) in slice.iter_mut().enumerate() {
                    let row = base + i;
                    let v = predict_flat(tree, data, row);
                    *r -= lr * v;
                }
            });
        }
    });
}

fn predict_flat(tree: &Tree, data: &FlatDataset, row: usize) -> f64 {
    let mut i = 0;
    loop {
        let node = &tree.nodes[i];
        match &node.split {
            None => return node.value,
            Some(s) => {
                let f = data
                    .feature_names
                    .iter()
                    .position(|n| n == &s.feature)
                    .expect("known feature");
                let v = data.features[f][row];
                let left = match s.cond {
                    SplitCondition::LtEq(t) => v <= t,
                    SplitCondition::EqNum(t) => v == t,
                    SplitCondition::EqStr(_) => false,
                };
                i = if left && !v.is_nan() {
                    node.left
                } else {
                    node.right
                };
            }
        }
    }
}

/// Train gradient boosting on the flat table (L2).
pub fn train_gbdt(data: &FlatDataset, params: &LgbmParams) -> joinboost::Result<LgbmModel> {
    train_gbdt_cb(data, params, |_, _| {})
}

/// Train with a per-iteration callback.
pub fn train_gbdt_cb(
    data: &FlatDataset,
    params: &LgbmParams,
    mut cb: impl FnMut(usize, &LgbmModel),
) -> joinboost::Result<LgbmModel> {
    let n = data.num_rows();
    if n == 0 {
        return Err(joinboost::TrainError::Invalid("empty dataset".into()));
    }
    // Memory: raw columns + bin codes + residual array.
    check_memory(
        params,
        data.byte_size() + data.features.len() * n * 2 + n * 8,
    )?;
    let t0 = Instant::now();
    let binned = bin_features(data, params.max_bins);
    let init = data.y.iter().sum::<f64>() / n as f64;
    let mut residuals: Vec<f64> = data.y.iter().map(|&y| y - init).collect();
    let feats: Vec<usize> = (0..data.features.len()).collect();
    let all_rows: Vec<u32> = (0..n as u32).collect();
    let mut model = LgbmModel {
        init_score: init,
        learning_rate: params.learning_rate,
        trees: Vec::new(),
        boosted: true,
        train_time: Duration::ZERO,
        update_time: Duration::ZERO,
    };
    for iter in 0..params.num_iterations {
        let tree = grow_tree(&binned, data, &residuals, all_rows.clone(), &feats, params);
        let tu = Instant::now();
        parallel_residual_update(
            &tree,
            &binned,
            data,
            &mut residuals,
            params.learning_rate,
            params.threads,
        );
        model.update_time += tu.elapsed();
        model.trees.push(tree);
        model.train_time = t0.elapsed();
        cb(iter, &model);
    }
    Ok(model)
}

/// Train a random forest on the flat table (bagging + feature sampling,
/// trees in parallel).
pub fn train_rf(data: &FlatDataset, params: &LgbmParams) -> joinboost::Result<LgbmModel> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let n = data.num_rows();
    if n == 0 {
        return Err(joinboost::TrainError::Invalid("empty dataset".into()));
    }
    check_memory(params, data.byte_size() + data.features.len() * n * 2)?;
    let t0 = Instant::now();
    let binned = bin_features(data, params.max_bins);
    let y = &data.y;
    let nf = ((data.features.len() as f64 * params.feature_fraction).ceil() as usize)
        .clamp(1, data.features.len());
    let plans: Vec<(Vec<u32>, Vec<usize>)> = (0..params.num_iterations)
        .map(|t| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed + t as u64);
            let mut rows: Vec<u32> = (0..n as u32).collect();
            rows.shuffle(&mut rng);
            rows.truncate(((n as f64 * params.bagging_fraction).round() as usize).clamp(1, n));
            let mut feats: Vec<usize> = (0..data.features.len()).collect();
            feats.shuffle(&mut rng);
            feats.truncate(nf);
            (rows, feats)
        })
        .collect();
    let trees = std::sync::Mutex::new(vec![None; plans.len()]);
    std::thread::scope(|scope| {
        for worker in 0..params.threads.max(1) {
            let plans = &plans;
            let trees = &trees;
            let binned = &binned;
            scope.spawn(move || {
                for (i, (rows, feats)) in plans.iter().enumerate() {
                    if i % params.threads.max(1) != worker {
                        continue;
                    }
                    let tree = grow_tree(binned, data, y, rows.clone(), feats, params);
                    trees.lock().expect("rf lock")[i] = Some(tree);
                }
            });
        }
    });
    let trees: Vec<Tree> = trees
        .into_inner()
        .expect("rf lock")
        .into_iter()
        .map(|t| t.expect("trained"))
        .collect();
    Ok(LgbmModel {
        init_score: 0.0,
        learning_rate: 1.0,
        trees,
        boosted: false,
        train_time: t0.elapsed(),
        update_time: Duration::ZERO,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_semiring::loss::rmse;

    fn toy() -> FlatDataset {
        // y = 3·a + noiseless step on b.
        let n = 400;
        let a: Vec<f64> = (0..n).map(|i| (i % 20) as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| ((i / 20) % 5) as f64).collect();
        let y: Vec<f64> = a
            .iter()
            .zip(&b)
            .map(|(&a, &b)| 3.0 * a + 10.0 * (b > 2.0) as i64 as f64)
            .collect();
        FlatDataset {
            feature_names: vec!["a".into(), "b".into()],
            features: vec![a, b],
            y,
        }
    }

    #[test]
    fn gbdt_fits_toy_function() {
        let data = toy();
        let params = LgbmParams {
            num_iterations: 60,
            learning_rate: 0.3,
            num_leaves: 16,
            ..Default::default()
        };
        let model = train_gbdt(&data, &params).unwrap();
        let preds: Vec<f64> = (0..data.num_rows())
            .map(|i| {
                model.init_score
                    + model.learning_rate
                        * model
                            .trees
                            .iter()
                            .map(|t| predict_flat(t, &data, i))
                            .sum::<f64>()
            })
            .collect();
        let r = rmse(&data.y, &preds);
        assert!(r < 2.0, "rmse {r}");
        assert!(model.update_time > Duration::ZERO);
    }

    #[test]
    fn rf_reduces_error() {
        let data = toy();
        let params = LgbmParams {
            num_iterations: 12,
            bagging_fraction: 0.6,
            feature_fraction: 1.0,
            num_leaves: 16,
            ..Default::default()
        };
        let model = train_rf(&data, &params).unwrap();
        assert_eq!(model.trees.len(), 12);
        let preds: Vec<f64> = (0..data.num_rows())
            .map(|i| {
                model
                    .trees
                    .iter()
                    .map(|t| predict_flat(t, &data, i))
                    .sum::<f64>()
                    / model.trees.len() as f64
            })
            .collect();
        let mean = data.y.iter().sum::<f64>() / data.y.len() as f64;
        let base = rmse(&data.y, &vec![mean; data.y.len()]);
        assert!(rmse(&data.y, &preds) < base);
    }

    #[test]
    fn subtracted_histograms_equal_the_rebinned_ones() {
        // Integer residuals: every bin sum is exact, so parent − left must
        // equal binning the right child's rows from scratch.
        let data = toy();
        let binned = bin_features(&data, 8);
        let feats = [0, 1];
        let rows: Vec<u32> = (0..data.num_rows() as u32).collect();
        let (left, right): (Vec<u32>, Vec<u32>) = rows.iter().partition(|&&r| r % 3 == 0);
        let parent = histograms(&binned, &data.y, &rows, &feats);
        let left = histograms(&binned, &data.y, &left, &feats);
        assert_eq!(
            subtract(parent, &left),
            histograms(&binned, &data.y, &right, &feats)
        );
    }

    #[test]
    fn memory_limit_aborts() {
        let data = toy();
        let params = LgbmParams {
            memory_limit_bytes: Some(1024),
            ..Default::default()
        };
        let err = train_gbdt(&data, &params).unwrap_err();
        assert!(err.to_string().contains("out of memory"));
    }

    #[test]
    fn binning_respects_max_bins() {
        let data = toy();
        let b = bin_features(&data, 4);
        assert!(b.edges[0].len() <= 4);
        // Codes are within range.
        for &c in &b.codes[0] {
            assert!((c as usize) < b.edges[0].len());
        }
    }
}
