//! Decision tree training — Algorithm 1 of the paper.
//!
//! The driver (this Rust code) runs the control flow; the expensive step —
//! evaluating the best split per feature (line 14) — is compiled into one
//! SQL query per feature and executed by the DBMS, in parallel across
//! features (Section 5.5.3). Split statistics come from factorized message
//! passing ([`crate::messages`]); messages are cached and shared between
//! parent and child nodes (Section 5.5.1), and the larger child of each
//! split derives its messages from its parent's and its sibling's.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

use joinboost_engine::Datum;
use joinboost_graph::RelId;
use joinboost_semiring::{second_order_gain, variance_reduction};
use joinboost_sql::ast::{Expr, Query, SelectItem, Statement, TableRef};

use crate::dataset::{Dataset, FeatureKind};
use crate::error::{Result, TrainError};
use crate::messages::{Factorizer, NodeContext, Pred, SiblingOf};
use crate::params::{Growth, TrainParams};
use crate::scheduler::par_map;
use crate::sqlgen::{categorical_split_query, numeric_split_query, NodeTotals, RingKind};
use crate::tree::{Split, SplitCondition, Tree, TreeNode};

/// Query counters and timings of training (drives Figure 9): a
/// [`TreeGrower`]'s split queries plus the messages its [`Factorizer`]
/// materialized.
#[derive(Debug, Clone, Default)]
pub struct TrainStats {
    /// Queries that evaluate the best split of one feature.
    pub split_queries: u64,
    /// Total wall-clock spent in split queries (per node, the batch's
    /// wall-clock, however many ran at once).
    pub split_time: Duration,
    /// Per-split-query latencies, each timed on the thread that ran it.
    pub split_durations: Vec<Duration>,
    /// Materialized message queries (CREATE TABLE ... AS).
    pub message_queries: u64,
    /// Total wall-clock spent materializing messages.
    pub message_time: Duration,
    /// Per-message durations.
    pub message_durations: Vec<Duration>,
    /// Messages served from the cross-node cache.
    pub cache_hits: u64,
    /// Messages dropped by the identity optimization.
    pub identity_drops: u64,
    /// Messages reduced to semi-join key filters.
    pub semi_messages: u64,
}

impl TrainStats {
    /// Accumulate another stats block into this one.
    pub fn merge(&mut self, other: &TrainStats) {
        self.split_queries += other.split_queries;
        self.split_time += other.split_time;
        self.split_durations
            .extend(other.split_durations.iter().copied());
        self.message_queries += other.message_queries;
        self.message_time += other.message_time;
        self.message_durations
            .extend(other.message_durations.iter().copied());
        self.cache_hits += other.cache_hits;
        self.identity_drops += other.identity_drops;
        self.semi_messages += other.semi_messages;
    }
}

/// A candidate split with the aggregates needed to build both children.
#[derive(Debug, Clone)]
pub struct CandidateSplit {
    /// The winning split condition.
    pub split: Split,
    /// Relation the split feature lives in.
    pub rel: RelId,
    /// Exact gain (variance reduction or 0.5·gain − α).
    pub gain: f64,
    /// Left-side totals `(c0, c1)`.
    pub left: NodeTotals,
}

struct PendingNode {
    node: usize,
    depth: usize,
    ctx: NodeContext,
    totals: NodeTotals,
    candidate: CandidateSplit,
}

/// Heap ordering: best-first uses gain; depth-wise uses (shallowest,
/// then gain).
struct HeapItem {
    priority: (i64, f64),
    entry: PendingNode,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority.0.cmp(&other.priority.0).then(
            self.priority
                .1
                .partial_cmp(&other.priority.1)
                .unwrap_or(Ordering::Equal),
        )
    }
}

/// Grows one tree over a prepared factorizer.
pub struct TreeGrower<'a, 'b, 'c> {
    /// The factorizer computing split statistics.
    pub fx: &'c mut Factorizer<'a, 'b>,
    /// Training parameters.
    pub params: &'c TrainParams,
    /// Features allowed for this tree (after sampling / CPT restriction),
    /// as `(feature, relation)` pairs.
    pub features: Vec<(String, RelId)>,
    /// Clustered Predicate Trees (Section 4.2.2): when set, the root may
    /// split on any feature, but once it picks a relation the tree is
    /// confined to the cluster containing that relation.
    pub cpt_clusters: Option<Vec<Vec<RelId>>>,
    /// Index (into `cpt_clusters`) of the cluster chosen by the root
    /// split; readable after [`TreeGrower::grow`].
    pub active_cluster: Option<usize>,
    /// Cached `(lo, width)` histogram ranges per numeric feature.
    bin_ranges: std::collections::HashMap<String, (f64, f64)>,
    /// When false, the message cache is cleared before every node's split
    /// batch — the per-node `Batch` ablation of Figure 16a.
    pub share_messages_across_nodes: bool,
    /// Query counters and timings for this tree.
    pub stats: TrainStats,
}

impl<'a, 'b, 'c> TreeGrower<'a, 'b, 'c> {
    /// Prepare to grow one tree over the given features.
    pub fn new(
        fx: &'c mut Factorizer<'a, 'b>,
        params: &'c TrainParams,
        features: Vec<(String, RelId)>,
    ) -> Self {
        TreeGrower {
            fx,
            params,
            features,
            cpt_clusters: None,
            active_cluster: None,
            bin_ranges: std::collections::HashMap::new(),
            share_messages_across_nodes: true,
            stats: TrainStats::default(),
        }
    }

    fn leaf_value(&self, totals: NodeTotals) -> f64 {
        let v = match self.fx.ring {
            RingKind::Variance => {
                if totals.c0 > 0.0 {
                    totals.c1 / totals.c0
                } else {
                    0.0
                }
            }
            RingKind::Gradient => {
                joinboost_semiring::leaf_weight(totals.c1, totals.c0, self.params.reg_lambda)
            }
        };
        self.params.snap_leaf(v)
    }

    fn exact_gain(&self, totals: NodeTotals, left: NodeTotals) -> Option<f64> {
        match self.fx.ring {
            RingKind::Variance => variance_reduction(totals.c0, totals.c1, left.c0, left.c1),
            RingKind::Gradient => second_order_gain(
                totals.c1,
                totals.c0,
                left.c1,
                left.c0,
                self.params.reg_lambda,
                self.params.min_gain,
            ),
        }
    }

    fn min_gain_threshold(&self) -> f64 {
        match self.fx.ring {
            RingKind::Variance => self.params.min_gain,
            // α already subtracted inside second_order_gain.
            RingKind::Gradient => 0.0,
        }
    }

    /// GetBestSplit (Algorithm 1, lines 11–16): one SQL query per feature,
    /// run in parallel, best gain wins.
    pub fn get_best_split(
        &mut self,
        ctx: &NodeContext,
        totals: NodeTotals,
        allowed: &[(String, RelId)],
    ) -> Result<Option<CandidateSplit>> {
        if totals.c0 < 2.0 * self.params.min_data_in_leaf {
            return Ok(None);
        }
        // Numeric splits need window prefix sums (paper Example 2); refuse
        // early on backends that cannot run them instead of failing deep
        // inside a generated query.
        if !self.fx.set.db.capabilities().window_functions
            && allowed
                .iter()
                .any(|(f, _)| self.fx.set.feature_kind(f) == FeatureKind::Numeric)
        {
            return Err(TrainError::Invalid(
                "backend does not support window functions, which numeric splits require".into(),
            ));
        }
        if !self.share_messages_across_nodes {
            self.fx.clear_cache();
        }
        // Stage 1 (sequential): make sure all messages exist; build the
        // per-feature split queries.
        let mut queries: Vec<(String, RelId, FeatureKind, Statement)> = Vec::new();
        for (feat, rel) in allowed {
            let spec = self.group_spec(feat, *rel)?;
            let absorbed = self.fx.absorb(*rel, Some(&spec), ctx)?;
            let kind = self.fx.set.feature_kind(feat);
            let q = match kind {
                FeatureKind::Numeric => numeric_split_query(
                    absorbed,
                    self.fx.ring,
                    totals,
                    self.params.reg_lambda,
                    self.params.min_data_in_leaf,
                ),
                FeatureKind::Categorical => categorical_split_query(
                    absorbed,
                    self.fx.ring,
                    totals,
                    self.params.reg_lambda,
                    self.params.min_data_in_leaf,
                ),
            };
            queries.push((feat.clone(), *rel, kind, Statement::Select(q)));
        }
        // Stage 2 (parallel): run the split queries, each timed where it
        // runs.
        let set = self.fx.set;
        let start = Instant::now();
        let results = par_map(&queries, self.params.threads, |(.., stmt)| {
            let t0 = Instant::now();
            (set.run(stmt), t0.elapsed())
        });
        self.stats.split_queries += queries.len() as u64;
        self.stats.split_time += start.elapsed();
        self.stats
            .split_durations
            .extend(results.iter().map(|(_, took)| *took));
        // Pick the best candidate by exact gain.
        let [n0, n1] = self.fx.ring.components();
        let mut best: Option<CandidateSplit> = None;
        for ((feat, rel, kind, _), (result, _)) in queries.iter().zip(results) {
            let t = result?;
            if t.num_rows() == 0 {
                continue;
            }
            let val = t.column(None, "val").map_err(TrainError::from)?.get(0);
            let c0 = match t.column(None, n0)?.f64_at(0) {
                Some(v) => v,
                None => continue,
            };
            let c1 = t.column(None, n1)?.f64_at(0).unwrap_or(0.0);
            let left = NodeTotals { c0, c1 };
            let Some(gain) = self.exact_gain(totals, left) else {
                continue;
            };
            if gain <= self.min_gain_threshold() {
                continue;
            }
            let cond = match (kind, &val) {
                (FeatureKind::Numeric, v) => match v.as_f64() {
                    Some(x) => SplitCondition::LtEq(x),
                    None => continue,
                },
                (FeatureKind::Categorical, Datum::Str(s)) => SplitCondition::EqStr(s.clone()),
                (FeatureKind::Categorical, v) => match v.as_f64() {
                    Some(x) => SplitCondition::EqNum(x),
                    None => continue,
                },
            };
            let candidate = CandidateSplit {
                split: Split {
                    feature: feat.clone(),
                    relation: self.fx.set.graph.name(*rel).to_string(),
                    cond,
                    default_left: false,
                },
                rel: *rel,
                gain,
                left,
            };
            if best.as_ref().is_none_or(|b| gain > b.gain) {
                best = Some(candidate);
            }
        }
        Ok(best)
    }

    /// Grouping for a feature's absorption: per-distinct-value, or
    /// histogram bins when `max_bins > 0` (Appendix D.3). Bin ranges come
    /// from a one-off `MIN`/`MAX` query per feature, cached for the tree.
    fn group_spec(&mut self, feat: &str, rel: RelId) -> Result<crate::messages::GroupSpec> {
        use crate::messages::GroupSpec;
        if self.params.max_bins == 0 || self.fx.set.feature_kind(feat) == FeatureKind::Categorical {
            return Ok(GroupSpec::plain(feat));
        }
        if let Some(&(lo, width)) = self.bin_ranges.get(feat) {
            return Ok(GroupSpec::binned(feat, lo, width));
        }
        let (lo, width) = bin_range(
            self.fx.set,
            feat,
            self.fx.table_of(rel),
            self.params.max_bins,
        )?;
        self.bin_ranges.insert(feat.to_string(), (lo, width));
        Ok(GroupSpec::binned(feat, lo, width))
    }

    fn allowed_for(&self, depth: usize) -> Vec<(String, RelId)> {
        let Some(clusters) = &self.cpt_clusters else {
            return self.features.clone();
        };
        // Root split of a CPT tree may use any feature.
        if depth == 0 || self.active_cluster.is_none() {
            return self.features.clone();
        }
        let members = &clusters[self.active_cluster.expect("checked")];
        self.features
            .iter()
            .filter(|(_, r)| members.contains(r))
            .cloned()
            .collect()
    }

    /// Once the root split picks a relation, lock the tree to a cluster
    /// containing it.
    fn lock_cluster(&mut self, root_rel: RelId) {
        if let Some(clusters) = &self.cpt_clusters {
            self.active_cluster = clusters.iter().position(|c| c.contains(&root_rel));
        }
    }

    /// Grow a tree (Algorithm 1) and add what it cost to
    /// [`TreeGrower::stats`].
    pub fn grow(&mut self) -> Result<Tree> {
        // The factorizer may be shared across trees (boosting): it counts
        // this tree's messages from zero, then gets its running total back.
        let outer = std::mem::take(&mut self.fx.stats);
        let tree = self.grow_nodes();
        let cost = std::mem::replace(&mut self.fx.stats, outer);
        self.fx.stats.merge(&cost);
        self.stats.merge(&cost);
        tree
    }

    fn grow_nodes(&mut self) -> Result<Tree> {
        let params = self.params;
        params.validate()?;
        let target = self.fx.set.target_rel();
        let ctx = NodeContext::root();
        let (c0, c1) = self.fx.totals(target, &ctx)?;
        let totals = NodeTotals { c0, c1 };
        let mut tree = Tree::single_leaf(self.leaf_value(totals), totals.c0);
        if totals.c0 == 0.0 {
            return Ok(tree);
        }
        let mut heap: BinaryHeap<HeapItem> = BinaryHeap::new();
        let allowed = self.allowed_for(0);
        if let Some(cand) = self.get_best_split(&ctx, totals, &allowed)? {
            heap.push(self.heap_item(PendingNode {
                node: 0,
                depth: 0,
                ctx,
                totals,
                candidate: cand,
            }));
        }
        let mut num_leaves = 1;
        while num_leaves < params.num_leaves {
            let Some(HeapItem { entry, .. }) = heap.pop() else {
                break;
            };
            let PendingNode {
                node,
                depth,
                ctx,
                totals,
                candidate,
            } = entry;
            let right_totals = NodeTotals {
                c0: totals.c0 - candidate.left.c0,
                c1: totals.c1 - candidate.left.c1,
            };
            // Install the split.
            let left_id = tree.nodes.len();
            let right_id = left_id + 1;
            tree.nodes.push(TreeNode {
                split: None,
                left: 0,
                right: 0,
                value: self.leaf_value(candidate.left),
                weight: candidate.left.c0,
                depth: depth + 1,
            });
            tree.nodes.push(TreeNode {
                split: None,
                left: 0,
                right: 0,
                value: self.leaf_value(right_totals),
                weight: right_totals.c0,
                depth: depth + 1,
            });
            tree.nodes[node].split = Some(candidate.split.clone());
            tree.nodes[node].left = left_id;
            tree.nodes[node].right = right_id;
            num_leaves += 1;
            if node == 0 {
                self.lock_cluster(candidate.rel);
            }
            // Children of the last split are never popped: do not evaluate
            // them. Nor the depth-capped ones.
            if num_leaves >= params.num_leaves
                || (params.max_depth > 0 && depth + 1 >= params.max_depth)
            {
                continue;
            }
            let split_rel = candidate.rel;
            let allowed = self.allowed_for(depth + 1);
            let children = [
                (left_id, candidate.left, false),
                (right_id, right_totals, true),
            ]
            .map(|(id, totals, negated)| {
                let pred = Pred::from_split(&candidate.split, negated);
                (id, totals, ctx.with_pred(split_rel, pred))
            });
            // Sibling subtraction: evaluate the smaller child by scan, then
            // the larger one with its messages derived as parent ⊖ smaller.
            let small = usize::from(right_totals.c0 < candidate.left.c0);
            let large = 1 - small;
            let mut found = [None, None];
            found[small] = self.get_best_split(&children[small].2, children[small].1, &allowed)?;
            self.fx.derive_from(Some(SiblingOf {
                split_rel,
                parent: ctx,
                sibling: children[small].2.clone(),
                node: children[large].2.clone(),
            }));
            let larger = self.get_best_split(&children[large].2, children[large].1, &allowed);
            self.fx.derive_from(None);
            found[large] = larger?;
            // Push left then right, so pop order does not depend on which
            // child was evaluated first.
            for ((child_id, child_totals, child_ctx), cand) in children.into_iter().zip(found) {
                if let Some(cand) = cand {
                    heap.push(self.heap_item(PendingNode {
                        node: child_id,
                        depth: depth + 1,
                        ctx: child_ctx,
                        totals: child_totals,
                        candidate: cand,
                    }));
                }
            }
        }
        Ok(tree)
    }

    fn heap_item(&self, entry: PendingNode) -> HeapItem {
        let priority = match self.params.growth {
            Growth::BestFirst => (0, entry.candidate.gain),
            Growth::DepthWise => (-(entry.depth as i64), entry.candidate.gain),
        };
        HeapItem { priority, entry }
    }
}

/// `(lo, width)` of `max_bins` equal-width histogram bins spanning the
/// feature's `MIN`/`MAX` in `table`.
pub(crate) fn bin_range(
    set: &Dataset,
    feat: &str,
    table: &str,
    max_bins: usize,
) -> Result<(f64, f64)> {
    let bound =
        |f: &str, alias: &str| SelectItem::aliased(Expr::func(f, vec![Expr::col(feat)]), alias);
    let t = set.run(&Statement::Select(Query {
        items: vec![bound("MIN", "lo"), bound("MAX", "hi")],
        from: Some(TableRef::named(table)),
        ..Default::default()
    }))?;
    let lo = t.scalar_f64("lo").unwrap_or(0.0);
    let hi = t.scalar_f64("hi").unwrap_or(0.0);
    Ok((lo, ((hi - lo) / max_bins as f64).max(f64::MIN_POSITIVE)))
}

/// Train a single regression decision tree over the join graph using the
/// variance semi-ring. The returned leaf values are mean target values.
pub fn train_decision_tree(set: &Dataset, params: &TrainParams) -> Result<(Tree, TrainStats)> {
    train_decision_tree_opts(set, params, true)
}

/// As [`train_decision_tree`], with cross-node message sharing optionally
/// disabled (the `Batch` ablation).
pub fn train_decision_tree_opts(
    set: &Dataset,
    params: &TrainParams,
    share_messages: bool,
) -> Result<(Tree, TrainStats)> {
    use joinboost_semiring::Objective;
    if params.objective != Objective::SquaredError {
        return Err(TrainError::Invalid(
            "decision trees use the rmse objective; use train_gbm for other losses".into(),
        ));
    }
    let mut fx = Factorizer::over_target(set);
    let features = set.features();
    let mut grower = TreeGrower::new(&mut fx, params, features);
    grower.share_messages_across_nodes = share_messages;
    let tree = grower.grow()?;
    let stats = grower.stats.clone();
    Ok((tree, stats))
}
