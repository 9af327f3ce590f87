//! Training parameters, mirroring LightGBM's parameter names where they
//! exist (the paper's API-compatibility goal, Section 5.1).

use joinboost_semiring::Objective;

/// Tree growth strategy (Section 3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Growth {
    /// Split the leaf with the largest criteria reduction next
    /// (LightGBM's default; the paper's default).
    BestFirst,
    /// Split the shallowest leaf next.
    DepthWise,
}

/// How gradient-boosting residual updates are executed (Sections 5.3–5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateMethod {
    /// Materialize the update relation `U` and re-create `F ⋈ U` (the
    /// straw man of Section 5.3; >50× slower than LightGBM's update).
    Naive,
    /// `UPDATE F SET s = ... WHERE <semi-join predicates>` per leaf.
    UpdateInPlace,
    /// `CREATE TABLE F' AS SELECT CASE WHEN .. END AS s, <other cols>`
    /// copying the whole fact table.
    CreateTable,
    /// Compute only the new annotation column and `SWAP COLUMN` it into
    /// the fact table (the `D-Swap` backend; needs engine support).
    ColumnSwap,
    /// Fact table lives in external dataframe storage; compute the new
    /// column and replace the array pointer (the `DP` backend).
    Interop,
}

/// Training parameters. Defaults follow the paper's experimental setup:
/// best-first growth, 8 leaves, learning rate 0.1 (Section 6.1).
#[derive(Debug, Clone)]
pub struct TrainParams {
    /// Loss function being optimized (Table 3).
    pub objective: Objective,
    /// Number of boosting iterations / forest trees.
    pub num_iterations: usize,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// Maximum leaves per tree.
    pub num_leaves: usize,
    /// Maximum depth (0 = unlimited).
    pub max_depth: usize,
    /// Tree growth strategy (best-first vs depth-wise).
    pub growth: Growth,
    /// L2 regularization λ on leaf weights (gradient objectives).
    pub reg_lambda: f64,
    /// Minimum criteria reduction to accept a split (the `α` per-leaf
    /// penalty of Appendix B).
    pub min_gain: f64,
    /// Minimum number of (weighted) rows on each side of a split.
    pub min_data_in_leaf: f64,
    /// Fraction of features sampled per tree (random forest).
    pub feature_fraction: f64,
    /// Fraction of rows sampled per tree without replacement (random
    /// forest; paper uses 0.1).
    pub bagging_fraction: f64,
    /// Seed for every random choice (sampling, feature shuffles).
    pub seed: u64,
    /// Histogram bins per numeric feature (0 = exact, no binning).
    pub max_bins: usize,
    /// Build the full-dimensional cuboid and train on it (Appendix D.3);
    /// only sensible with small `max_bins`.
    pub use_cuboid: bool,
    /// Worker threads for inter-query parallelism (1 = sequential).
    pub threads: usize,
    /// Residual update strategy for gradient boosting.
    pub update_method: UpdateMethod,
    /// Round the initial score and every leaf value to multiples of this
    /// grid (0 = off). With a power-of-two grid (e.g. `2⁻¹⁰`) and a dyadic
    /// learning rate, every residual the trainer ever sums stays a dyadic
    /// rational of bounded magnitude, making floating-point `⊕` exactly
    /// associative — so partitioned backends ([`crate::ShardedBackend`])
    /// train **bit-identical** models regardless of how rows are sharded.
    /// This is the standard determinism trick of distributed GBDT systems;
    /// see `DESIGN.md` § Backends for the full argument.
    pub leaf_quantization: f64,
}

impl Default for TrainParams {
    fn default() -> Self {
        TrainParams {
            objective: Objective::SquaredError,
            num_iterations: 10,
            learning_rate: 0.1,
            num_leaves: 8,
            max_depth: 0,
            growth: Growth::BestFirst,
            reg_lambda: 0.0,
            min_gain: 1e-12,
            min_data_in_leaf: 1.0,
            feature_fraction: 1.0,
            bagging_fraction: 1.0,
            seed: 42,
            max_bins: 0,
            use_cuboid: false,
            threads: 1,
            update_method: UpdateMethod::CreateTable,
            leaf_quantization: 0.0,
        }
    }
}

impl TrainParams {
    /// The paper's gradient-boosting setup: 8 leaves, lr 0.1, 100 trees.
    pub fn paper_gbm() -> Self {
        TrainParams {
            num_iterations: 100,
            ..Default::default()
        }
    }

    /// The paper's random-forest setup: 10 % row sample, 80 % features.
    pub fn paper_rf() -> Self {
        TrainParams {
            num_iterations: 100,
            bagging_fraction: 0.1,
            feature_fraction: 0.8,
            ..Default::default()
        }
    }

    /// Reject parameter combinations the trainers cannot honor.
    pub fn validate(&self) -> crate::Result<()> {
        use crate::TrainError;
        if self.num_leaves < 2 {
            return Err(TrainError::Invalid("num_leaves must be >= 2".into()));
        }
        if !(0.0..=1.0).contains(&self.feature_fraction) || self.feature_fraction == 0.0 {
            return Err(TrainError::Invalid(
                "feature_fraction must be in (0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.bagging_fraction) || self.bagging_fraction == 0.0 {
            return Err(TrainError::Invalid(
                "bagging_fraction must be in (0, 1]".into(),
            ));
        }
        if self.learning_rate <= 0.0 {
            return Err(TrainError::Invalid("learning_rate must be positive".into()));
        }
        if self.use_cuboid && (self.max_bins == 0 || self.max_bins > 64) {
            return Err(TrainError::Invalid(
                "use_cuboid requires max_bins in 1..=64 (the cuboid grows exponentially)".into(),
            ));
        }
        if self.leaf_quantization < 0.0 || !self.leaf_quantization.is_finite() {
            return Err(TrainError::Invalid(
                "leaf_quantization must be a finite value >= 0".into(),
            ));
        }
        Ok(())
    }

    /// Round a leaf value (or initial score) to the
    /// [`leaf_quantization`](Self::leaf_quantization) grid; identity when
    /// the grid is 0. With a power-of-two grid the division, rounding and
    /// multiplication are all exact in `f64`.
    pub fn snap_leaf(&self, v: f64) -> f64 {
        if self.leaf_quantization > 0.0 {
            (v / self.leaf_quantization).round() * self.leaf_quantization
        } else {
            v
        }
    }
}

#[cfg(test)]
#[allow(clippy::field_reassign_with_default)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let p = TrainParams::default();
        assert_eq!(p.num_leaves, 8);
        assert_eq!(p.learning_rate, 0.1);
        assert_eq!(p.growth, Growth::BestFirst);
        p.validate().unwrap();
    }

    #[test]
    fn validation_catches_bad_params() {
        let mut p = TrainParams::default();
        p.num_leaves = 1;
        assert!(p.validate().is_err());
        let mut p = TrainParams::default();
        p.bagging_fraction = 0.0;
        assert!(p.validate().is_err());
        let mut p = TrainParams::default();
        p.use_cuboid = true;
        assert!(p.validate().is_err(), "cuboid without bins");
        p.max_bins = 5;
        assert!(p.validate().is_ok());
    }
}
