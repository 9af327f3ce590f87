//! Random forests over joins (Section 5.5.2).
//!
//! Each tree trains on a row sample and a feature sample. For snowflake
//! schemas the fact table is 1-1 with `R⋈`, so sampling the fact table
//! directly is uniform (the paper's minor optimization); otherwise
//! [`crate::sampling::ancestral_sample`] draws join tuples and the tree
//! trains over the materialized sample. Trees are independent, so they
//! train in parallel (the paper's tree-wise inter-query parallelism,
//! −35 % on Favorita).

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use joinboost_graph::{JoinGraph, RelId};
use joinboost_semiring::Objective;

use crate::dataset::Dataset;
use crate::error::{Result, TrainError};
use crate::messages::Factorizer;
use crate::params::TrainParams;
use crate::predict;
use crate::sampling::ancestral_sample;
use crate::scheduler::par_map;
use crate::trainer::{TrainStats, TreeGrower};
use crate::tree::Tree;

/// A trained random forest (predictions are averaged).
#[derive(Debug, Clone)]
pub struct RfModel {
    /// The bagged trees.
    pub trees: Vec<Tree>,
    /// Query counters and timings accumulated over all trees.
    pub stats: TrainStats,
}

impl RfModel {
    /// Averaged prediction for every row of a materialized feature table.
    pub fn predict(&self, table: &joinboost_engine::Table) -> Vec<f64> {
        predict::predict_bagged(&self.trees, table)
    }

    /// Averaged score for one feature row: the single-row entry point.
    pub fn score(&self, row: &dyn crate::tree::FeatureRow) -> f64 {
        if self.trees.is_empty() {
            return 0.0;
        }
        self.trees.iter().map(|t| t.score(row)).sum::<f64>() / self.trees.len() as f64
    }
}

/// Train a random forest over the join graph.
pub fn train_random_forest(set: &Dataset, params: &TrainParams) -> Result<RfModel> {
    params.validate()?;
    if params.objective != Objective::SquaredError {
        return Err(TrainError::Invalid(
            "random forests support the rmse objective".into(),
        ));
    }
    let all_features = set.features();
    if all_features.is_empty() {
        return Err(TrainError::Invalid("no features to train on".into()));
    }
    let n_feat = ((all_features.len() as f64 * params.feature_fraction).ceil() as usize)
        .clamp(1, all_features.len());

    // Per-tree preparation (sampled fact tables) must happen up front so
    // trees can run in parallel afterwards.
    enum TreePlan {
        /// Factorized training: fact relation redirected to a sampled copy.
        Snowflake { fact: RelId, table: String },
        /// Materialized ancestral sample trained as a single wide table.
        Sampled { table: String },
    }
    let fact = set.graph.snowflake_fact();
    let mut plans: Vec<(TreePlan, Vec<(String, RelId)>)> = Vec::new();
    for t in 0..params.num_iterations {
        let mut rng = StdRng::seed_from_u64(params.seed.wrapping_add(t as u64 * 7919));
        // Feature sample.
        let mut feats = all_features.clone();
        feats.shuffle(&mut rng);
        feats.truncate(n_feat);
        // Row sample.
        let plan = match fact {
            Some(f) => {
                // Sample positions first, then gather only those rows —
                // a partitioned backend takes each row from the shard
                // that owns it instead of shipping whole partitions.
                let n = set
                    .db
                    .row_count(set.graph.name(f))
                    .map_err(TrainError::from)?;
                let take = ((n as f64 * params.bagging_fraction).round() as usize).clamp(1, n);
                let mut idx: Vec<u32> = (0..n as u32).collect();
                idx.shuffle(&mut rng);
                idx.truncate(take);
                let sample = set
                    .db
                    .gather_rows(set.graph.name(f), &idx)
                    .map_err(TrainError::from)?;
                let name = set.fresh_table("rf_fact");
                set.db
                    .create_table(&name, sample)
                    .map_err(TrainError::from)?;
                TreePlan::Snowflake {
                    fact: f,
                    table: name,
                }
            }
            None => {
                // General join graphs: ancestral sampling over R⋈.
                let total = estimate_join_size(set)?;
                let take = ((total as f64 * params.bagging_fraction).round() as usize).max(1);
                let sample = ancestral_sample(
                    set.db,
                    &set.graph,
                    set.target_rel(),
                    take,
                    params.seed.wrapping_add(t as u64 * 104729),
                )?;
                let name = set.fresh_table("rf_sample");
                set.db
                    .create_table(&name, sample)
                    .map_err(TrainError::from)?;
                TreePlan::Sampled { table: name }
            }
        };
        plans.push((plan, feats));
    }

    // Train trees (in parallel when params.threads > 1).
    let results = par_map(&plans, params.threads, |(plan, feats)| {
        train_one_tree(set, params, plan, feats)
    });

    let mut model = RfModel {
        trees: Vec::with_capacity(results.len()),
        stats: TrainStats::default(),
    };
    for r in results {
        let (tree, stats) = r?;
        model.trees.push(tree);
        model.stats.merge(&stats);
    }
    // Helper-fn for closures above; see bottom of file.
    #[allow(clippy::items_after_statements)]
    fn train_one_tree(
        set: &Dataset,
        params: &TrainParams,
        plan: &TreePlan,
        feats: &[(String, RelId)],
    ) -> Result<(Tree, TrainStats)> {
        match plan {
            TreePlan::Snowflake { fact, table } => {
                let mut fx = Factorizer::over_target(set);
                fx.set_table(*fact, table.clone());
                let mut grower = TreeGrower::new(&mut fx, params, feats.to_vec());
                let tree = grower.grow()?;
                Ok((tree, grower.stats.clone()))
            }
            TreePlan::Sampled { table } => {
                // Single-relation graph over the materialized sample.
                let mut g1 = JoinGraph::new();
                let names: Vec<String> = feats.iter().map(|(f, _)| f.clone()).collect();
                let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
                g1.add_relation(table, &name_refs)?;
                let sub = Dataset::new(set.db, g1, table, &set.target_column)?;
                let mut fx = Factorizer::over_target(&sub);
                let feats1: Vec<(String, RelId)> =
                    names.iter().map(|f| (f.clone(), 0usize)).collect();
                let mut grower = TreeGrower::new(&mut fx, params, feats1);
                let tree = grower.grow()?;
                Ok((tree, grower.stats.clone()))
            }
        }
    }
    Ok(model)
}

/// `|R⋈|` via one factorized COUNT.
fn estimate_join_size(set: &Dataset) -> Result<usize> {
    let (c, _) = Factorizer::over_target(set)
        .totals(set.target_rel(), &crate::messages::NodeContext::root())?;
    Ok(c as usize)
}
