//! Factorized gradient boosting (Section 4, 5.3, 5.4).
//!
//! Each iteration trains a tree on the residuals (or gradients) of the
//! preceding trees, which requires updating `Y` in the *non-materialized*
//! join result. One loop serves every schema; they differ only in what is
//! lifted. On snowflake schemas the fact table is 1-1 with `R⋈`, so
//! residuals live in an annotation column of a lifted fact table, updated
//! by one of five methods ([`crate::params::UpdateMethod`]). On galaxy
//! schemas individual updates are impossible (view-update side-effects),
//! but the variance semi-ring's addition-to-multiplication-preserving lift
//! lets us update the *aggregates* by `⊗`-ing the tree-cluster fact's
//! annotation with `lift(−p)` — Clustered Predicate Trees keep the join
//! graph acyclic. The histogram cuboid (Appendix D.3) updates per-cell
//! residual sums scaled by the cell count.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use joinboost_engine::Table;
use joinboost_graph::cluster::clusters;
use joinboost_graph::{JoinGraph, RelId};
use joinboost_semiring::Objective;
use joinboost_sql::ast::{Expr, Join, JoinKind, Query, SelectItem, Statement, TableRef};

use crate::dataset::Dataset;
use crate::error::{Result, TrainError};
use crate::messages::{Factorizer, NodeContext, Pred};
use crate::params::{TrainParams, UpdateMethod};
use crate::predict;
use crate::sqlgen::{gradient_sql, hessian_sql, RingKind};
use crate::trainer::{bin_range, TrainStats, TreeGrower};
use crate::tree::{Split, Tree};

/// A trained gradient-boosting model.
#[derive(Debug, Clone)]
pub struct GbmModel {
    /// Loss function the model was trained with.
    pub objective: Objective,
    /// Constant initial prediction (raw score).
    pub init_score: f64,
    /// Shrinkage applied to each tree's contribution.
    pub learning_rate: f64,
    /// The boosted trees, in training order.
    pub trees: Vec<Tree>,
    /// Wall-clock spent finding splits (messages + split queries).
    pub train_time: Duration,
    /// Wall-clock spent on residual/gradient updates.
    pub update_time: Duration,
    /// Query counters and timings accumulated over all iterations.
    pub stats: TrainStats,
}

impl GbmModel {
    /// Raw additive score for a materialized feature table.
    pub fn predict_raw(&self, table: &Table) -> Vec<f64> {
        predict::predict_boosted(&self.trees, self.init_score, self.learning_rate, table)
    }

    /// Transformed predictions (identity / exp / sigmoid per objective).
    pub fn predict(&self, table: &Table) -> Vec<f64> {
        self.predict_raw(table)
            .into_iter()
            .map(|r| self.objective.transform(r))
            .collect()
    }

    /// Raw additive score for one feature row — `init + lr · Σ tree(x)`
    /// in the exact operation order of the batch path, so single-row and
    /// batch scoring are bit-identical.
    pub fn score(&self, row: &dyn crate::tree::FeatureRow) -> f64 {
        let mut s = self.init_score;
        for tree in &self.trees {
            s += self.learning_rate * tree.score(row);
        }
        s
    }
}

/// Does the objective have a constant unit Hessian (so the `h` component
/// never needs materializing — it equals the count)?
fn unit_hessian(obj: &Objective) -> bool {
    matches!(
        obj,
        Objective::SquaredError
            | Objective::AbsoluteError
            | Objective::Huber { .. }
            | Objective::Quantile { .. }
            | Objective::Mape
    )
}

/// Train a gradient boosting model.
pub fn train_gbm(set: &Dataset, params: &TrainParams) -> Result<GbmModel> {
    train_gbm_cb(set, params, |_, _| true)
}

/// Train with a per-iteration callback `(iteration, model-so-far)` —
/// used by the experiment harness to record time/accuracy curves, and by
/// the serving tier's job workers to observe progress. Returning `false`
/// stops training early: the model boosted so far comes back as `Ok`
/// (how job cancellation interrupts a run without poisoning anything).
pub fn train_gbm_cb(
    set: &Dataset,
    params: &TrainParams,
    callback: impl FnMut(usize, &GbmModel) -> bool,
) -> Result<GbmModel> {
    train(set, params, &[], callback)
}

/// Resume an interrupted training run from a partial forest (the
/// serving tier's crash-recovery path: a job persists its trees every k
/// iterations and warm-starts here after a restart).
///
/// The base tables must hold the same data the original run trained on
/// (a recovered WAL-backed engine guarantees this). The initial score is
/// recomputed — deterministic on identical data — the fact is re-lifted,
/// and each stored tree goes through the one update call the boosting loop
/// makes after growing a tree: the replayed statements are the original
/// run's, in order, because the same code issues them. The annotation
/// columns reach the identical bit pattern and every later split matches
/// an uninterrupted run, so under the dyadic `leaf_quantization` recipe
/// the finished model is `to_bits()`-identical to an uncrashed reference.
/// Leaf values round-trip exactly through the wire codec (f64 by bit
/// pattern), so a deserialized forest resumes as faithfully as a live one.
///
/// The callback only fires for *newly trained* iterations. Not supported
/// with the cuboid optimization (`use_cuboid`), whose trees are relabeled
/// to user-facing relations after their update statements run.
pub fn train_gbm_resume(
    set: &Dataset,
    params: &TrainParams,
    prior: &[Tree],
    callback: impl FnMut(usize, &GbmModel) -> bool,
) -> Result<GbmModel> {
    if params.use_cuboid {
        return Err(TrainError::Invalid(
            "resume is not supported with the cuboid optimization".into(),
        ));
    }
    if prior.len() > params.num_iterations {
        return Err(TrainError::Invalid(format!(
            "partial forest has {} trees but the run only asks for {} iterations",
            prior.len(),
            params.num_iterations
        )));
    }
    train(set, params, prior, callback)
}

/// Lift the schema, then boost: the cuboid when asked for, else the
/// snowflake's fact, else the galaxy's CPT cluster facts.
fn train(
    set: &Dataset,
    params: &TrainParams,
    prior: &[Tree],
    callback: impl FnMut(usize, &GbmModel) -> bool,
) -> Result<GbmModel> {
    params.validate()?;
    check_update_capability(set, params)?;
    if params.use_cuboid {
        let cuboid = cuboid_dataset(set, params)?;
        return boost(lift_cuboid(&cuboid, &set.graph, params)?, prior, callback);
    }
    let lifted = match set.graph.snowflake_fact() {
        Some(fact) => lift_snowflake(set, params, fact)?,
        None => lift_galaxy(set, params)?,
    };
    boost(lifted, prior, callback)
}

/// Reject update methods the schema or the backend cannot run: the
/// cuboid rebuilds its cells with `CreateTable` only, a galaxy's cluster
/// facts carry no row ids and live in engine storage, and `ColumnSwap` /
/// `Interop` need the backend's declared capability flag (checked here
/// rather than by a failing trial statement).
fn check_update_capability(set: &Dataset, params: &TrainParams) -> Result<()> {
    let method = params.update_method;
    if params.use_cuboid && method != UpdateMethod::CreateTable {
        return Err(TrainError::Invalid(format!(
            "the cuboid optimization supports only UpdateMethod::CreateTable, not {method:?}"
        )));
    }
    let galaxy = !params.use_cuboid && set.graph.snowflake_fact().is_none();
    let caps = set.db.capabilities();
    match method {
        UpdateMethod::Naive | UpdateMethod::Interop if galaxy => Err(TrainError::Invalid(
            "galaxy training supports UpdateInPlace, CreateTable and ColumnSwap".into(),
        )),
        UpdateMethod::ColumnSwap if !caps.column_swap => Err(TrainError::Invalid(format!(
            "backend {} does not support SWAP COLUMN (UpdateMethod::ColumnSwap)",
            set.db.name()
        ))),
        UpdateMethod::Interop if !caps.external_interop => Err(TrainError::Invalid(format!(
            "backend {} does not support external dataframe storage (UpdateMethod::Interop)",
            set.db.name()
        ))),
        _ => Ok(()),
    }
}

/// What one schema contributes to the boosting loop.
struct Lifted<'a, 'b> {
    /// The factorizer trees grow on, its annotations reading the lifted
    /// tables.
    fx: Factorizer<'a, 'b>,
    /// Constant initial prediction.
    init: f64,
    /// The lifted relations a tree's update rewrites: one per CPT cluster
    /// on a galaxy (in `clusters` order), exactly one on a star or the
    /// cuboid.
    updaters: Vec<Updater>,
    /// CPT cluster members on a galaxy: each tree is confined to one
    /// cluster, and its update rewrites that cluster's fact.
    clusters: Option<Vec<Vec<RelId>>>,
    /// The user-facing graph the cuboid's splits are relabeled onto, so
    /// its trees predict over raw features.
    user_graph: Option<&'b JoinGraph>,
    /// Parameters trees grow and update with (the cuboid's features
    /// arrive binned, so it grows with `max_bins = 0`).
    params: TrainParams,
}

/// The one boosting loop: replay the prior forest, then grow, update and
/// report one tree per remaining iteration. Replay and training make the
/// same [`Lifted::apply`] call, so a resumed run issues the statements an
/// uninterrupted one did.
fn boost(
    mut lifted: Lifted<'_, '_>,
    prior: &[Tree],
    mut callback: impl FnMut(usize, &GbmModel) -> bool,
) -> Result<GbmModel> {
    let mut model = GbmModel {
        objective: lifted.params.objective,
        init_score: lifted.init,
        learning_rate: lifted.params.learning_rate,
        trees: Vec::new(),
        train_time: Duration::ZERO,
        update_time: Duration::ZERO,
        stats: TrainStats::default(),
    };
    for tree in prior {
        lifted.apply(tree)?;
        model.trees.push(tree.clone());
    }
    for iter in prior.len()..lifted.params.num_iterations {
        let t0 = Instant::now();
        let (mut tree, stats) = lifted.grow()?;
        model.stats.merge(&stats);
        model.train_time += t0.elapsed();
        let t1 = Instant::now();
        lifted.apply(&tree)?;
        model.update_time += t1.elapsed();
        lifted.relabel(&mut tree);
        model.trees.push(tree);
        if !callback(iter, &model) {
            break;
        }
    }
    Ok(model)
}

impl Lifted<'_, '_> {
    /// Grow one tree (inside one CPT cluster on a galaxy); percentile
    /// objectives then renew its leaves.
    fn grow(&mut self) -> Result<(Tree, TrainStats)> {
        let features = self.fx.set.features();
        let mut grower = TreeGrower::new(&mut self.fx, &self.params, features);
        grower.cpt_clusters = self.clusters.clone();
        let mut tree = grower.grow()?;
        let active = grower.active_cluster;
        let stats = std::mem::take(&mut grower.stats);
        debug_assert!(active.is_none() || active == self.cluster_of(&tree).ok());
        // Leaf renewal (Table 3): percentile-style objectives re-fit each
        // leaf's prediction on the actual residuals (LightGBM's
        // RenewTreeOutput); gradients only shape the tree structure.
        if let Some(q) = renewal_percentile(&self.params.objective) {
            self.renew_leaves(&mut tree, q)?;
        }
        Ok((tree, stats))
    }

    /// Re-fit each leaf's value to the given percentile of its residuals
    /// `y − p`, read from the lifted fact with the leaf's semi-join
    /// predicate.
    fn renew_leaves(&self, tree: &mut Tree, q: f64) -> Result<()> {
        let u = &self.updaters[self.cluster_of(tree)?];
        for (leaf, path) in tree.leaves_with_paths() {
            let resid = Expr::sub(Expr::col("jb_y"), Expr::col("jb_p"));
            let query = Query {
                items: vec![SelectItem::aliased(resid, "e")],
                from: Some(TableRef::named(&u.table)),
                where_clause: leaf_predicate_on_fact(self.fx.set, u.rel, &path)?,
                ..Default::default()
            };
            let t = self.fx.set.run(&Statement::Select(query))?;
            let mut resid = t.column(None, "e")?.to_f64_vec()?;
            resid.retain(|v| !v.is_nan());
            if resid.is_empty() {
                continue;
            }
            resid.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let pos = (q.clamp(0.0, 1.0) * (resid.len() - 1) as f64).round() as usize;
            tree.nodes[leaf].value = self.params.snap_leaf(resid[pos]);
        }
        Ok(())
    }

    /// Which updater a tree's leaves rewrite: on a galaxy, the CPT cluster
    /// its root split lies in (a stump updates the target's cluster); the
    /// single lifted relation otherwise.
    fn cluster_of(&self, tree: &Tree) -> Result<usize> {
        let Some(clusters) = &self.clusters else {
            return Ok(0);
        };
        let root = match tree.nodes.first().and_then(|n| n.split.as_ref()) {
            Some(split) => Some(self.fx.set.graph.rel_id(&split.relation)?),
            None => None,
        };
        let target = self.fx.set.target_rel();
        Ok(root
            .and_then(|r| clusters.iter().position(|c| c.contains(&r)))
            .or_else(|| clusters.iter().position(|c| c.contains(&target)))
            .unwrap_or(0))
    }

    /// Rewrite the lifted annotation by the tree's leaf values — the one
    /// update call, made for every replayed and every newly grown tree.
    fn apply(&mut self, tree: &Tree) -> Result<()> {
        let u = &self.updaters[self.cluster_of(tree)?];
        let set = self.fx.set;
        let lr = self.params.learning_rate;
        let assignments = match self.fx.ring {
            // `(c, s) ⊗ lift(−lr·p) = (c, s − lr·p·c)`; base rows have c = 1.
            RingKind::Variance => {
                let s = Expr::col("jb_s");
                vec![(
                    "jb_s".to_string(),
                    leaf_case_updates(set, u.rel, tree, lr, s, u.count.clone(), true)?,
                )]
            }
            RingKind::Gradient => {
                let obj = self.params.objective;
                let p = leaf_case_updates(set, u.rel, tree, lr, Expr::col("jb_p"), None, false)?;
                let y = Expr::col("jb_y");
                let mut assigns = vec![("jb_p".to_string(), p.clone())];
                assigns.push(("jb_g".into(), gradient_sql(&obj, y.clone(), p.clone())));
                if !unit_hessian(&obj) {
                    assigns.push(("jb_h".into(), hessian_sql(&obj, y, p)));
                }
                assigns
            }
        };
        u.apply(set, &assignments)?;
        self.fx.bump_epoch(u.rel);
        Ok(())
    }

    /// Point the cuboid's splits back at the user-facing relations that
    /// hold their features.
    fn relabel(&self, tree: &mut Tree) {
        let Some(graph) = self.user_graph else {
            return;
        };
        for split in tree.nodes.iter_mut().filter_map(|n| n.split.as_mut()) {
            if let Some(rel) = graph.relation_of_feature(&split.feature) {
                split.relation = graph.name(rel).to_string();
            }
        }
    }
}

/// Mean of the target over `R⋈`, by one factorized aggregate.
fn mean_target(set: &Dataset) -> Result<f64> {
    let (c, s) = Factorizer::over_target(set).totals(set.target_rel(), &NodeContext::root())?;
    if c == 0.0 {
        return Err(TrainError::Invalid("empty training data".into()));
    }
    Ok(s / c)
}

// ---------------------------------------------------------------------------
// Snowflake schemas (Section 4.1)
// ---------------------------------------------------------------------------

/// Lift the fact table: `(1, y − init)` in the variance ring for rmse;
/// otherwise `y`, the running prediction `p` and the gradient pair.
fn lift_snowflake<'a, 'b>(
    set: &'b Dataset<'a>,
    params: &TrainParams,
    fact: RelId,
) -> Result<Lifted<'a, 'b>> {
    let obj = params.objective;
    let y = Expr::col(set.target_column.clone());
    let init = if obj == Objective::SquaredError {
        mean_target(set)?
    } else {
        // Median/percentile/log-mean need the y values; the fact table is
        // 1-1 with R⋈ so we can read them from the (joined) fact.
        let q = fact_to_target(set, fact, vec![SelectItem::aliased(y.clone(), "jb_y")])?;
        let t = set.run(&Statement::Select(q))?;
        obj.init_score(&t.column(None, "jb_y")?.to_f64_vec()?)
    };
    let init = params.snap_leaf(init);

    let lifted = set.fresh_table("fact");
    let (ring, extras, annotation) = if obj == Objective::SquaredError {
        (
            RingKind::Variance,
            vec![("jb_s", Expr::sub(y, Expr::float(init)))],
            vec![Expr::int(1), Expr::col("jb_s")],
        )
    } else {
        let mut extras = vec![
            ("jb_y", y.clone()),
            ("jb_p", Expr::float(init)),
            ("jb_g", gradient_sql(&obj, y.clone(), Expr::float(init))),
        ];
        let annotation = if unit_hessian(&obj) {
            vec![Expr::int(1), Expr::col("jb_g")]
        } else {
            extras.push(("jb_h", hessian_sql(&obj, y, Expr::float(init))));
            vec![Expr::col("jb_h"), Expr::col("jb_g")]
        };
        (RingKind::Gradient, extras, annotation)
    };
    create_lifted_fact(set, fact, &lifted, &extras, params.update_method)?;

    let mut fx = Factorizer::new(set, ring);
    fx.set_table(fact, lifted.clone());
    fx.set_annotation(fact, annotation);
    Ok(Lifted {
        fx,
        init,
        updaters: vec![Updater::new(set, fact, lifted, params.update_method)?],
        clusters: None,
        user_graph: None,
        params: params.clone(),
    })
}

/// `SELECT <items> FROM fact [JOIN the path to the target relation]`:
/// one row per fact row, 1-1 with `R⋈`.
fn fact_to_target(set: &Dataset, fact: RelId, items: Vec<SelectItem>) -> Result<Query> {
    let g = &set.graph;
    let mut q = Query {
        items,
        from: Some(TableRef::named(g.name(fact))),
        ..Default::default()
    };
    if set.target_rel() != fact {
        let path = g
            .path(fact, set.target_rel())
            .ok_or_else(|| TrainError::Graph("no path from fact to target".into()))?;
        for w in path.windows(2) {
            q.joins.push(Join {
                kind: JoinKind::Inner,
                table: TableRef::named(g.name(w[1])),
                using: g.join_keys(w[0], w[1]).expect("edge").to_vec(),
                on: None,
            });
        }
    }
    Ok(q)
}

/// `CREATE TABLE lifted AS SELECT fact.*, <extras> FROM fact [JOIN path to
/// the target relation]`; `Naive` adds a row id and `Interop` registers
/// the result as external storage.
fn create_lifted_fact(
    set: &Dataset,
    fact: RelId,
    lifted: &str,
    extras: &[(&str, Expr)],
    method: UpdateMethod,
) -> Result<()> {
    let fact_name = set.graph.name(fact);
    let mut items: Vec<SelectItem> = set
        .db
        .column_names(fact_name)?
        .into_iter()
        .map(|c| SelectItem::new(Expr::qcol(fact_name, c)))
        .collect();
    for (alias, e) in extras {
        items.push(SelectItem::aliased(e.clone(), *alias));
    }
    let q = fact_to_target(set, fact, items)?;
    let external = method == UpdateMethod::Interop;
    let with_rid = method == UpdateMethod::Naive;
    if external || with_rid {
        // Build programmatically: run the query, add a row id if needed,
        // then register as internal or external storage.
        let mut t = set.run(&Statement::Select(q))?;
        if with_rid {
            let n = t.num_rows();
            t.push_column(
                joinboost_engine::table::ColumnMeta::new("jb_rid"),
                joinboost_engine::Column::int((0..n as i64).collect()),
            );
        }
        if external {
            set.db.register_external(lifted, &t)?;
        } else {
            set.db.create_table(lifted, t)?;
        }
    } else {
        set.run(&create_table(lifted, q))?;
    }
    Ok(())
}

/// Objectives whose optimal leaf is a residual percentile (Table 3's
/// `median(E)` / `pctl_α(E)` prediction rules).
fn renewal_percentile(obj: &Objective) -> Option<f64> {
    match obj {
        Objective::AbsoluteError | Objective::Mape => Some(0.5),
        Objective::Quantile { alpha } => Some(*alpha),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Galaxy schemas (Section 4.2)
// ---------------------------------------------------------------------------

/// Lift every CPT cluster's fact: the target relation carries
/// `(1, y − init)`, every other cluster fact `(1, s)` with `s` starting
/// at 0 — the update relations the cluster's trees `⊗` into.
fn lift_galaxy<'a, 'b>(set: &'b Dataset<'a>, params: &TrainParams) -> Result<Lifted<'a, 'b>> {
    if !params.objective.supports_galaxy() {
        return Err(TrainError::Invalid(format!(
            "objective {} requires a snowflake schema; only rmse factorizes over galaxy schemas",
            params.objective.name()
        )));
    }
    let cluster_list = clusters(&set.graph);
    if cluster_list.is_empty() {
        return Err(TrainError::Graph("no CPT clusters found".into()));
    }
    let init = params.snap_leaf(mean_target(set)?);

    let mut fx = Factorizer::new(set, RingKind::Variance);
    let target = set.target_rel();
    let resid = Expr::sub(Expr::col(set.target_column.clone()), Expr::float(init));
    let facts = std::iter::once((target, "tgt", resid)).chain(
        cluster_list
            .iter()
            .map(|c| (c.fact, "cf", Expr::float(0.0))),
    );
    let mut lifted_of: HashMap<RelId, String> = HashMap::new();
    for (rel, hint, jb_s) in facts {
        if lifted_of.contains_key(&rel) {
            continue;
        }
        let lifted = set.fresh_table(hint);
        let q = Query {
            items: vec![
                SelectItem::new(Expr::Wildcard),
                SelectItem::aliased(jb_s, "jb_s"),
            ],
            from: Some(TableRef::named(set.graph.name(rel))),
            ..Default::default()
        };
        set.run(&create_table(&lifted, q))?;
        fx.set_table(rel, lifted.clone());
        fx.set_annotation(rel, vec![Expr::int(1), Expr::col("jb_s")]);
        lifted_of.insert(rel, lifted);
    }
    let updaters = cluster_list
        .iter()
        .map(|c| {
            let table = lifted_of[&c.fact].clone();
            Updater::new(set, c.fact, table, params.update_method)
        })
        .collect::<Result<_>>()?;
    Ok(Lifted {
        fx,
        init,
        updaters,
        clusters: Some(cluster_list.into_iter().map(|c| c.members).collect()),
        user_graph: None,
        params: params.clone(),
    })
}

// ---------------------------------------------------------------------------
// Histogram cuboid (Appendix D.3, Figure 20)
// ---------------------------------------------------------------------------

/// Build the full-dimensional data cuboid — `GROUP BY` all (binned)
/// features once, producing a table of per-cell `(count, sum)` semi-ring
/// annotations that can be orders of magnitude smaller than `R⋈` — and
/// return the single-relation dataset over it that training runs on.
fn cuboid_dataset<'a>(set: &Dataset<'a>, params: &TrainParams) -> Result<Dataset<'a>> {
    if params.objective != Objective::SquaredError {
        return Err(TrainError::Invalid(
            "the cuboid optimization supports the rmse objective".into(),
        ));
    }
    // Bin ranges per feature (global MIN/MAX, like LightGBM's binning).
    let mut group_by = Vec::new();
    let mut items: Vec<SelectItem> = Vec::new();
    for (feat, rel) in set.features() {
        let (lo, width) = bin_range(set, &feat, set.graph.name(rel), params.max_bins)?;
        let bin = Expr::func(
            "FLOOR",
            vec![Expr::div(
                Expr::sub(Expr::col(feat.clone()), Expr::float(lo)),
                Expr::float(width),
            )],
        );
        group_by.push(bin);
        // Representative value: the max raw value inside the cell.
        items.push(SelectItem::aliased(
            Expr::func("MAX", vec![Expr::col(feat.clone())]),
            feat.clone(),
        ));
    }
    items.push(SelectItem::aliased(Expr::count_star(), "jb_c"));
    items.push(SelectItem::aliased(
        Expr::sum(Expr::col(set.target_column.clone())),
        "jb_s",
    ));
    // Join shape reused from feature materialization, but aggregated.
    let base = crate::predict::features_query(set);
    let cuboid_q = Query {
        items,
        from: base.from,
        joins: base.joins,
        group_by,
        ..Default::default()
    };
    let cuboid = set.fresh_table("cuboid");
    set.run(&create_table(&cuboid, cuboid_q))?;

    let mut g1 = JoinGraph::new();
    let feats: Vec<String> = set.features().into_iter().map(|(f, _)| f).collect();
    let feat_refs: Vec<&str> = feats.iter().map(String::as_str).collect();
    g1.add_relation(&cuboid, &feat_refs)?;
    Dataset::new(set.db, g1, &cuboid, "jb_s")
}

/// Fold the initial score into the cuboid's residual sums, scaled by the
/// cell counts (`Σ(y − init) = s − init·c`); trees then update `jb_s`
/// scaled by the count `jb_c` too.
fn lift_cuboid<'a, 'b>(
    cuboid: &'b Dataset<'a>,
    user_graph: &'b JoinGraph,
    params: &TrainParams,
) -> Result<Lifted<'a, 'b>> {
    let table = cuboid.target_relation.clone();
    let sum = |c: &str| SelectItem::aliased(Expr::sum(Expr::col(format!("jb_{c}"))), c);
    let totals = cuboid.run(&Statement::Select(Query {
        items: vec![sum("c"), sum("s")],
        from: Some(TableRef::named(&table)),
        ..Default::default()
    }))?;
    let c_all = totals.scalar_f64("c").unwrap_or(0.0);
    let s_all = totals.scalar_f64("s").unwrap_or(0.0);
    if c_all == 0.0 {
        return Err(TrainError::Invalid("empty training data".into()));
    }
    let init = params.snap_leaf(s_all / c_all);
    let folded = Expr::sub(
        Expr::col("jb_s"),
        Expr::mul(Expr::float(init), Expr::col("jb_c")),
    );
    cuboid.run(&update(&table, "jb_s", folded))?;

    let mut fx = Factorizer::new(cuboid, RingKind::Variance);
    fx.set_annotation(0, vec![Expr::col("jb_c"), Expr::col("jb_s")]);
    let updater = Updater {
        count: Some(Expr::col("jb_c")),
        ..Updater::new(cuboid, 0, table, params.update_method)?
    };
    Ok(Lifted {
        fx,
        init,
        updaters: vec![updater],
        clusters: None,
        user_graph: Some(user_graph),
        params: TrainParams {
            use_cuboid: false,
            max_bins: 0, // features are already binned
            ..params.clone()
        },
    })
}

/// Translate one leaf's predicate path into a predicate over the fact
/// table: predicates on the fact apply directly; predicates on other
/// relations become (nested) `IN (SELECT key FROM dim WHERE ..)`
/// semi-join filters along the N-to-1 path (Section 4.1). Conjuncts come
/// in relation-id order, so the statement text is deterministic.
pub fn leaf_predicate_on_fact(
    set: &Dataset,
    fact: RelId,
    path_preds: &[(Split, bool)],
) -> Result<Option<Expr>> {
    let g = &set.graph;
    // Group predicate expressions per relation.
    let mut by_rel: BTreeMap<RelId, Vec<Expr>> = BTreeMap::new();
    for (split, negated) in path_preds {
        let rel = g.rel_id(&split.relation)?;
        by_rel
            .entry(rel)
            .or_default()
            .push(Pred::from_split(split, *negated).expr);
    }
    let mut conjuncts: Vec<Expr> = Vec::new();
    for (rel, exprs) in by_rel {
        let combined = Expr::and_all(exprs).expect("non-empty");
        if rel == fact {
            conjuncts.push(combined);
            continue;
        }
        let path = g
            .path(fact, rel)
            .ok_or_else(|| TrainError::Graph("predicate relation unreachable".into()))?;
        // Build the nested IN from the innermost (predicate) relation out.
        let mut inner = combined;
        for w in path.windows(2).rev() {
            let keys = g.join_keys(w[0], w[1]).expect("edge");
            if keys.len() != 1 {
                return Err(TrainError::Invalid(
                    "semi-join predicate pushdown requires single-column join keys".into(),
                ));
            }
            let key = &keys[0];
            let sub = Query {
                items: vec![SelectItem::new(Expr::col(key.clone()))],
                from: Some(TableRef::named(g.name(w[1]))),
                where_clause: Some(inner),
                ..Default::default()
            };
            inner = Expr::InSubquery {
                expr: Box::new(Expr::col(key.clone())),
                query: Box::new(sub),
                negated: false,
            };
        }
        conjuncts.push(inner);
    }
    Ok(Expr::and_all(conjuncts))
}

/// Build the `CASE WHEN <leaf-1 predicate> THEN base ∓ lr·p₁ ... ELSE
/// base END` expression updating an annotation column for every leaf.
/// `subtract` chooses residual (`s − lr·p`) vs prediction (`p + lr·v`);
/// `scale` is an optional per-row factor (the cell count `c` of
/// pre-aggregated annotations: `s − lr·p·c`).
fn leaf_case_updates(
    set: &Dataset,
    fact: RelId,
    tree: &Tree,
    learning_rate: f64,
    base: Expr,
    scale: Option<Expr>,
    subtract: bool,
) -> Result<Expr> {
    let leaves = tree.leaves_with_paths();
    let mut whens = Vec::new();
    for (leaf, path) in &leaves {
        let delta = learning_rate * tree.nodes[*leaf].value;
        if delta == 0.0 {
            continue;
        }
        let delta_expr = match &scale {
            Some(s) => Expr::mul(Expr::float(delta), s.clone()),
            None => Expr::float(delta),
        };
        let updated = if subtract {
            Expr::sub(base.clone(), delta_expr)
        } else {
            Expr::add(base.clone(), delta_expr)
        };
        match leaf_predicate_on_fact(set, fact, path)? {
            Some(pred) => whens.push((pred, updated)),
            None => {
                // Root-only tree: unconditional update.
                return Ok(updated);
            }
        }
    }
    if whens.is_empty() {
        return Ok(base);
    }
    Ok(Expr::Case {
        whens,
        else_expr: Some(Box::new(base)),
    })
}

/// A lifted relation a tree's update rewrites, and the configured method
/// that rewrites it.
struct Updater {
    /// The relation leaf predicates are rooted at: the star's fact, a CPT
    /// cluster's fact, or the cuboid.
    rel: RelId,
    /// Its lifted table.
    table: String,
    /// The lifted table's columns, in order (the rebuilding methods
    /// re-select every one of them).
    columns: Vec<String>,
    /// Per-row count scaling the residual update (the cuboid's `jb_c`).
    count: Option<Expr>,
    method: UpdateMethod,
}

impl Updater {
    /// Rewrites `table` by `method`, unscaled.
    fn new(set: &Dataset, rel: RelId, table: String, method: UpdateMethod) -> Result<Updater> {
        let columns = set.db.column_names(&table)?;
        Ok(Updater {
            rel,
            table,
            columns,
            count: None,
            method,
        })
    }

    /// Apply `assignments` (column → new-value expression over the current
    /// table) using the configured update method.
    fn apply(&self, set: &Dataset, assignments: &[(String, Expr)]) -> Result<()> {
        let t = &self.table;
        // The new values alone, each aliased `<prefix><column>`.
        let computed = |prefix: &str| -> Vec<SelectItem> {
            assignments
                .iter()
                .map(|(a, e)| SelectItem::aliased(e.clone(), format!("{prefix}{a}")))
                .collect()
        };
        // Every column of the table in order, an assigned one as `assigned`.
        let rebuilt = |assigned: &dyn Fn(&str, &Expr) -> Expr| {
            let item =
                |c: &String| match assignments.iter().find(|(a, _)| a.eq_ignore_ascii_case(c)) {
                    Some((a, e)) => SelectItem::aliased(assigned(a, e), a.clone()),
                    None => SelectItem::new(Expr::col(c.clone())),
                };
            self.columns.iter().map(item).collect::<Vec<_>>()
        };
        let scan = |items: Vec<SelectItem>| Query {
            items,
            from: Some(TableRef::named(t)),
            ..Default::default()
        };
        match self.method {
            UpdateMethod::UpdateInPlace => {
                // The paper's SET variant: per-leaf UPDATE with semi-join
                // predicates for the residual column, full-table UPDATE for
                // derived columns. For simplicity we issue the CASE-typed
                // full-column UPDATE per assignment (same write volume).
                for (col, expr) in assignments {
                    set.run(&update(t, col, expr.clone()))?;
                }
            }
            UpdateMethod::CreateTable => {
                let items = rebuilt(&|_, e| e.clone());
                set.run(&replace_table(t, scan(items)))?;
            }
            UpdateMethod::ColumnSwap => {
                let tmp = set.fresh_table("delta");
                set.run(&create_table(&tmp, scan(computed(""))))?;
                for (a, _) in assignments {
                    set.run(&Statement::SwapColumn {
                        table_a: t.clone(),
                        column_a: a.clone(),
                        table_b: tmp.clone(),
                        column_b: a.clone(),
                    })?;
                }
                set.run(&drop_table(&tmp))?;
            }
            UpdateMethod::Interop => {
                // Compute the new columns through the engine, then swap the
                // array pointers in external storage.
                let new = set.run(&Statement::Select(scan(computed(""))))?;
                let ext = set.db.external(t)?;
                for ((a, _), col) in assignments.iter().zip(new.columns) {
                    ext.replace_column(a, col)?;
                }
            }
            UpdateMethod::Naive => {
                // Materialize the update relation U (row id → new values),
                // then rebuild the fact by joining it back (Section 5.3's
                // straw man).
                let u = set.fresh_table("u");
                let rid = SelectItem::new(Expr::col("jb_rid"));
                let items = std::iter::once(rid).chain(computed("jb_new_")).collect();
                set.run(&create_table(&u, scan(items)))?;
                let mut q = scan(rebuilt(&|a, _| Expr::col(format!("jb_new_{a}"))));
                q.joins.push(Join {
                    kind: JoinKind::Inner,
                    table: TableRef::named(&u),
                    using: vec!["jb_rid".to_string()],
                    on: None,
                });
                set.run(&replace_table(t, q))?;
                set.run(&drop_table(&u))?;
            }
        }
        Ok(())
    }
}

/// `CREATE TABLE name AS query`.
fn create_table(name: &str, query: Query) -> Statement {
    Statement::CreateTableAs {
        name: name.to_string(),
        query,
        or_replace: false,
    }
}

/// `CREATE OR REPLACE TABLE name AS query`.
fn replace_table(name: &str, query: Query) -> Statement {
    Statement::CreateTableAs {
        name: name.to_string(),
        query,
        or_replace: true,
    }
}

/// `UPDATE table SET column = value`, every row.
fn update(table: &str, column: &str, value: Expr) -> Statement {
    Statement::Update {
        table: table.to_string(),
        assignments: vec![(column.to_string(), value)],
        where_clause: None,
    }
}

/// `DROP TABLE name`.
fn drop_table(name: &str) -> Statement {
    Statement::DropTable {
        name: name.to_string(),
        if_exists: false,
    }
}
