//! The Factorizer: decomposes aggregation queries into message passing and
//! absorption SQL (Sections 3.1, 3.3, 5.2), with three optimizations:
//!
//! * **message caching across tree nodes** (Section 5.5.1): messages are
//!   keyed by `(from, to, subtree-predicate signature, annotation epoch)`;
//!   after a split only the messages on the path from the split relation
//!   to the root are recomputed;
//! * **identity messages** (Appendix D.2): a leaf-ward relation annotated
//!   with `1̄`, with no predicates, joined N-to-1 from its parent, does not
//!   change annotations — its message is dropped entirely;
//! * **semi-join messages** (Appendix D.2): once such a relation gains a
//!   predicate, its message is just the set of surviving join keys, and
//!   the join becomes a semi-join filter;
//! * **sibling subtraction** (LightGBM's histogram subtraction, stated on
//!   message tables): a split partitions its node's rows, so in the
//!   variance ring the larger child's message is the parent's minus the
//!   smaller sibling's — one key-aligned join of two small tables instead
//!   of a fact scan (see [`Factorizer::derive_from`]).

use std::collections::HashMap;
use std::time::Instant;

use joinboost_graph::cache::{signature, MessageCache, MessageKey};
use joinboost_graph::{Multiplicity, RelId};
use joinboost_sql::ast::{BinaryOp, Expr, Join, JoinKind, Query, SelectItem, Statement, TableRef};

use crate::dataset::Dataset;
use crate::error::{Result, TrainError};
use crate::sqlgen::{fold_annotations, identity_annotation, RingKind};
use crate::trainer::TrainStats;
use crate::tree::{Split, SplitCondition};

/// A predicate on one relation: its canonical SQL (for cache signatures)
/// plus the parsed expression.
#[derive(Debug, Clone)]
pub struct Pred {
    /// Canonical SQL rendering (cache signature key).
    pub sql: String,
    /// The parsed predicate expression.
    pub expr: Expr,
}

impl Pred {
    /// Build from a tree split (possibly negated).
    pub fn from_split(split: &Split, negated: bool) -> Pred {
        let col = Expr::col(split.feature.clone());
        use joinboost_sql::ast::BinaryOp::*;
        let expr = match (&split.cond, negated) {
            (SplitCondition::LtEq(v), false) => Expr::binary(LtEq, col, Expr::float(*v)),
            (SplitCondition::LtEq(v), true) => Expr::binary(Gt, col, Expr::float(*v)),
            (SplitCondition::EqNum(v), false) => Expr::binary(Eq, col, Expr::float(*v)),
            (SplitCondition::EqNum(v), true) => Expr::binary(Neq, col, Expr::float(*v)),
            (SplitCondition::EqStr(v), false) => Expr::binary(Eq, col, Expr::str(v.clone())),
            (SplitCondition::EqStr(v), true) => Expr::binary(Neq, col, Expr::str(v.clone())),
        };
        Pred {
            sql: split.to_sql(negated),
            expr,
        }
    }
}

/// Per-tree-node predicate context: the conjunction of split predicates,
/// pushed to the relations that own the split features.
#[derive(Debug, Clone, Default)]
pub struct NodeContext {
    preds: HashMap<RelId, Vec<Pred>>,
}

impl NodeContext {
    /// The empty context of the tree root (no predicates).
    pub fn root() -> NodeContext {
        NodeContext::default()
    }

    /// Extend with one more predicate (returns the child context).
    pub fn with_pred(&self, rel: RelId, pred: Pred) -> NodeContext {
        let mut next = self.clone();
        next.preds.entry(rel).or_default().push(pred);
        next
    }

    /// Predicates pushed to one relation.
    pub fn preds_of(&self, rel: RelId) -> &[Pred] {
        self.preds.get(&rel).map_or(&[], Vec::as_slice)
    }

    fn signature_of(&self, rels: &[RelId], epochs: &HashMap<RelId, u64>) -> String {
        let mut parts: Vec<String> = Vec::new();
        for &r in rels {
            for p in self.preds_of(r) {
                parts.push(format!("{r}:{}", p.sql));
            }
            if let Some(e) = epochs.get(&r) {
                if *e > 0 {
                    parts.push(format!("{r}@{e}"));
                }
            }
        }
        signature(&parts)
    }
}

/// Qualify every bare column reference in an expression with `table`.
fn qualify_expr(e: Expr, table: &str) -> Expr {
    match e {
        Expr::Column { table: None, name } => Expr::Column {
            table: Some(table.to_string()),
            name,
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op,
            left: Box::new(qualify_expr(*left, table)),
            right: Box::new(qualify_expr(*right, table)),
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op,
            expr: Box::new(qualify_expr(*expr, table)),
        },
        Expr::Func { name, args } => Expr::Func {
            name,
            args: args.into_iter().map(|a| qualify_expr(a, table)).collect(),
        },
        other => other,
    }
}

/// How an absorption groups feature values.
#[derive(Debug, Clone)]
pub struct GroupSpec {
    /// The feature column (NULL filtering).
    pub feature: String,
    /// Expression selected as `val` (the raw value, or `MAX(f)` per bin
    /// for histogram training so the split threshold is an actual value).
    pub select: Expr,
    /// Expression grouped by (the raw value, or the bin id).
    pub group: Expr,
}

impl GroupSpec {
    /// Plain per-distinct-value grouping.
    pub fn plain(feature: &str) -> GroupSpec {
        GroupSpec {
            feature: feature.to_string(),
            select: Expr::col(feature),
            group: Expr::col(feature),
        }
    }

    /// Histogram grouping: group by `FLOOR((f − lo)/width)`, select
    /// `MAX(f)` so the returned threshold exactly separates the bins.
    pub fn binned(feature: &str, lo: f64, width: f64) -> GroupSpec {
        let bin = Expr::func(
            "FLOOR",
            vec![Expr::div(
                Expr::sub(Expr::col(feature), Expr::float(lo)),
                Expr::float(width.max(f64::MIN_POSITIVE)),
            )],
        );
        GroupSpec {
            feature: feature.to_string(),
            select: Expr::func("MAX", vec![Expr::col(feature)]),
            group: bin,
        }
    }
}

/// A computed message.
#[derive(Debug, Clone)]
pub enum MsgHandle {
    /// Dropped: joining would not change annotations or counts.
    Identity,
    /// Semi-join filter: `table` holds the surviving join-key values.
    Semi {
        /// Materialized message table name.
        table: String,
        /// Join-key column names.
        keys: Vec<String>,
    },
    /// Full message: `table` holds the keys plus annotation columns.
    Full {
        /// Materialized message table name.
        table: String,
        /// Join-key column names.
        keys: Vec<String>,
    },
}

/// The larger child of a just-installed split, evaluated after its
/// smaller sibling: while set, every message asked for under `node`'s
/// context whose subtree contains `split_rel` and whose parent and
/// sibling versions are cached as full messages is derived as
/// `parent ⊖ sibling`.
#[derive(Debug, Clone)]
pub struct SiblingOf {
    /// Relation owning the split feature.
    pub split_rel: RelId,
    /// The split node's context.
    pub parent: NodeContext,
    /// The smaller child's context (already evaluated).
    pub sibling: NodeContext,
    /// The larger child's context, the only one derived for.
    pub node: NodeContext,
}

/// The factorizer: owns the per-relation annotations and the message cache.
pub struct Factorizer<'a, 'b> {
    /// The dataset being trained on.
    pub set: &'b Dataset<'a>,
    /// Which semi-ring pair the annotations carry.
    pub ring: RingKind,
    /// Annotation expressions per relation, relative to its physical table.
    annotations: HashMap<RelId, Vec<Expr>>,
    /// Physical table override (lifted copies).
    tables: HashMap<RelId, String>,
    /// Bumped whenever a relation's annotation *data* changes (residual
    /// updates), invalidating cached messages that aggregated it.
    epochs: HashMap<RelId, u64>,
    cache: MessageCache<MsgHandle>,
    /// Set while the larger child of a split is evaluated.
    derive_from: Option<SiblingOf>,
    /// Message-passing counters (drives Figure 9); the split fields stay
    /// zero.
    pub stats: TrainStats,
}

impl<'a, 'b> Factorizer<'a, 'b> {
    /// A factorizer with identity annotations and an empty cache.
    pub fn new(set: &'b Dataset<'a>, ring: RingKind) -> Self {
        Factorizer {
            set,
            ring,
            annotations: HashMap::new(),
            tables: HashMap::new(),
            epochs: HashMap::new(),
            cache: MessageCache::new(),
            derive_from: None,
            stats: TrainStats::default(),
        }
    }

    /// A variance-ring factorizer with the target relation annotated
    /// `(1, y)`: the lift every rmse aggregate over `R⋈` starts from.
    pub(crate) fn over_target(set: &'b Dataset<'a>) -> Self {
        let mut fx = Factorizer::new(set, RingKind::Variance);
        fx.set_annotation(
            set.target_rel(),
            vec![Expr::int(1), Expr::col(set.target_column.clone())],
        );
        fx
    }

    /// Set a relation's annotation expressions `[comp0, comp1]` (defaults
    /// to the identity `(1, 0)`).
    pub fn set_annotation(&mut self, rel: RelId, ann: Vec<Expr>) {
        assert_eq!(ann.len(), 2);
        self.annotations.insert(rel, ann);
    }

    /// Redirect a relation to a (lifted/sampled) physical table.
    pub fn set_table(&mut self, rel: RelId, table: String) {
        self.tables.insert(rel, table);
    }

    /// Invalidate cached messages that aggregated `rel`'s annotations
    /// (called after every residual update).
    pub fn bump_epoch(&mut self, rel: RelId) {
        *self.epochs.entry(rel).or_insert(0) += 1;
    }

    /// The physical table a relation currently reads from (lifted copies
    /// override the graph name).
    pub fn table_of(&self, rel: RelId) -> &str {
        self.tables
            .get(&rel)
            .map(String::as_str)
            .unwrap_or_else(|| self.set.graph.name(rel))
    }

    fn annotation_of(&self, rel: RelId) -> Vec<Expr> {
        self.annotations
            .get(&rel)
            .cloned()
            .unwrap_or_else(identity_annotation)
    }

    fn is_identity_annotated(&self, rel: RelId) -> bool {
        self.annotation_of(rel) == identity_annotation()
    }

    /// Derive messages of the node evaluated next from its parent and its
    /// already-evaluated sibling (`None` to stop).
    ///
    /// Exact because a split sends each of its node's rows to exactly one
    /// child — the same partition the trainer relies on when it takes the
    /// right child's totals as `parent − left`. Only the variance ring
    /// derives: its `c` is a row count, so `c > 0` decides exactly which
    /// keys the derived message keeps; a gradient-ring `c` is a Hessian
    /// sum that can be 0 while rows exist.
    pub fn derive_from(&mut self, sibling_of: Option<SiblingOf>) {
        self.derive_from = sibling_of;
    }

    /// Relations in the subtree of `from` when the edge to `to` is removed.
    fn subtree(&self, from: RelId, to: RelId) -> Vec<RelId> {
        let g = &self.set.graph;
        let mut seen = vec![from];
        let mut queue = vec![from];
        while let Some(u) = queue.pop() {
            for (v, _) in g.neighbors(u) {
                if v != to && !seen.contains(&v) {
                    seen.push(v);
                    queue.push(v);
                }
            }
        }
        seen.sort_unstable();
        seen
    }

    /// Compute (or fetch from cache) the message `from → to` under the
    /// node's predicate context.
    pub fn message(&mut self, from: RelId, to: RelId, ctx: &NodeContext) -> Result<MsgHandle> {
        let subtree = self.subtree(from, to);
        let key = MessageKey {
            from,
            to,
            signature: ctx.signature_of(&subtree, &self.epochs),
        };
        if let Some(m) = self.cache.get(&key) {
            self.stats.cache_hits += 1;
            return Ok(m.clone());
        }
        if let Some(handle) = self.subtract_sibling(&key, &subtree)? {
            self.cache.insert(key, handle.clone());
            return Ok(handle);
        }
        // Recursively obtain child messages.
        let g = &self.set.graph;
        let children: Vec<RelId> = g
            .neighbors(from)
            .into_iter()
            .map(|(v, _)| v)
            .filter(|&v| v != to)
            .collect();
        let mut full_children: Vec<(RelId, MsgHandle)> = Vec::new();
        let mut semi_children: Vec<(RelId, MsgHandle)> = Vec::new();
        for c in children {
            match self.message(c, from, ctx)? {
                MsgHandle::Identity => {}
                m @ MsgHandle::Semi { .. } => semi_children.push((c, m)),
                m @ MsgHandle::Full { .. } => full_children.push((c, m)),
            }
        }
        let keys: Vec<String> = self
            .set
            .graph
            .join_keys(from, to)
            .ok_or_else(|| TrainError::Graph(format!("no edge between {from} and {to}")))?
            .to_vec();
        // Joining `to` with `from` preserves row counts iff each `to`-row
        // matches exactly one `from`-row (N-to-1 or 1-to-1 seen from `to`).
        let count_preserving = matches!(
            self.set.graph.multiplicity(to, from),
            Some(Multiplicity::ManyToOne) | Some(Multiplicity::OneToOne)
        );
        let has_preds = !ctx.preds_of(from).is_empty();
        let handle = if self.is_identity_annotated(from)
            && !has_preds
            && full_children.is_empty()
            && semi_children.is_empty()
            && count_preserving
        {
            self.stats.identity_drops += 1;
            MsgHandle::Identity
        } else if self.is_identity_annotated(from) && full_children.is_empty() && count_preserving {
            // Semi-join message: just the surviving key values.
            let table = self.materialize_semi_message(from, &keys, &semi_children, ctx)?;
            self.stats.semi_messages += 1;
            MsgHandle::Semi { table, keys }
        } else {
            let table =
                self.materialize_full_message(from, &keys, &full_children, &semi_children, ctx)?;
            MsgHandle::Full { table, keys }
        };
        self.cache.insert(key, handle.clone());
        Ok(handle)
    }

    /// `parent ⊖ sibling` for the message `from → to`, when
    /// [`Factorizer::derive_from`] is set, the ring is variance, the
    /// subtree contains the split relation and both inputs are cached full
    /// messages:
    ///
    /// ```sql
    /// SELECT keys, p.jb_c − COALESCE(s.jb_c, 0) AS jb_c, p.jb_s − COALESCE(s.jb_s, 0) AS jb_s
    /// FROM p LEFT JOIN s USING (keys) WHERE p.jb_c − COALESCE(s.jb_c, 0) > 0
    /// ```
    ///
    /// Any other context (the parent, a totals query) falls back to a
    /// scan: `key` must carry the larger child's signature, or the
    /// difference would be cached under the wrong key.
    fn subtract_sibling(
        &mut self,
        key: &MessageKey,
        subtree: &[RelId],
    ) -> Result<Option<MsgHandle>> {
        let Some(d) = &self.derive_from else {
            return Ok(None);
        };
        if self.ring != RingKind::Variance
            || !subtree.contains(&d.split_rel)
            || key.signature != d.node.signature_of(subtree, &self.epochs)
        {
            return Ok(None);
        }
        let (from, to) = (key.from, key.to);
        let full = |ctx: &NodeContext| {
            let key = MessageKey {
                from,
                to,
                signature: ctx.signature_of(subtree, &self.epochs),
            };
            match self.cache.get(&key) {
                Some(MsgHandle::Full { table, keys }) => Some((table.clone(), keys.clone())),
                _ => None,
            }
        };
        let (Some((parent, keys)), Some((sibling, _))) = (full(&d.parent), full(&d.sibling)) else {
            return Ok(None);
        };
        let minus = |col: &str, zero: Expr| {
            Expr::sub(
                Expr::qcol(parent.clone(), col),
                Expr::func("COALESCE", vec![Expr::qcol(sibling.clone(), col), zero]),
            )
        };
        let [n0, n1] = self.ring.components();
        let (c, s) = (format!("jb_{n0}"), format!("jb_{n1}"));
        let mut items: Vec<SelectItem> = keys
            .iter()
            .map(|k| SelectItem::new(Expr::col(k.clone())))
            .collect();
        items.push(SelectItem::aliased(minus(&c, Expr::int(0)), c.clone()));
        items.push(SelectItem::aliased(minus(&s, Expr::float(0.0)), s));
        let q = Query {
            items,
            from: Some(TableRef::named(parent.clone())),
            joins: vec![Join {
                kind: JoinKind::Left,
                table: TableRef::named(sibling.clone()),
                using: keys.clone(),
                on: None,
            }],
            where_clause: Some(Expr::binary(
                BinaryOp::Gt,
                minus(&c, Expr::int(0)),
                Expr::int(0),
            )),
            ..Default::default()
        };
        let table = self.run_create(q, "msg")?;
        Ok(Some(MsgHandle::Full { table, keys }))
    }

    fn base_from(&self, rel: RelId) -> TableRef {
        TableRef::Named {
            name: self.table_of(rel).to_string(),
            alias: None,
        }
    }

    fn attach_children(
        &self,
        q: &mut Query,
        full_children: &[(RelId, MsgHandle)],
        semi_children: &[(RelId, MsgHandle)],
    ) {
        for (_, m) in full_children {
            if let MsgHandle::Full { table, keys } = m {
                q.joins.push(Join {
                    kind: JoinKind::Inner,
                    table: TableRef::named(table.clone()),
                    using: keys.clone(),
                    on: None,
                });
            }
        }
        for (_, m) in semi_children {
            if let MsgHandle::Semi { table, keys } = m {
                q.joins.push(Join {
                    kind: JoinKind::Semi,
                    table: TableRef::named(table.clone()),
                    using: keys.clone(),
                    on: None,
                });
            }
        }
    }

    fn where_of(&self, rel: RelId, ctx: &NodeContext) -> Option<Expr> {
        Expr::and_all(ctx.preds_of(rel).iter().map(|p| p.expr.clone()))
    }

    /// Composite annotation of a relation joined with its full child
    /// messages (child components qualified by their message table name).
    fn composed_annotation(&self, rel: RelId, full_children: &[(RelId, MsgHandle)]) -> Vec<Expr> {
        let [n0, n1] = self.ring.components();
        // Qualify the base annotation's bare column refs with the physical
        // table name so they cannot collide with message columns.
        let table = self.table_of(rel).to_string();
        let base: Vec<Expr> = self
            .annotation_of(rel)
            .into_iter()
            .map(|e| qualify_expr(e, &table))
            .collect();
        let mut anns = vec![base];
        for (_, m) in full_children {
            if let MsgHandle::Full { table, .. } = m {
                anns.push(vec![
                    Expr::qcol(table.clone(), format!("jb_{n0}")),
                    Expr::qcol(table.clone(), format!("jb_{n1}")),
                ]);
            }
        }
        fold_annotations(&anns)
    }

    fn materialize_semi_message(
        &mut self,
        from: RelId,
        keys: &[String],
        semi_children: &[(RelId, MsgHandle)],
        ctx: &NodeContext,
    ) -> Result<String> {
        let mut q = Query {
            items: keys
                .iter()
                .map(|k| SelectItem::new(Expr::col(k.clone())))
                .collect(),
            from: Some(self.base_from(from)),
            group_by: keys.iter().map(|k| Expr::col(k.clone())).collect(),
            ..Default::default()
        };
        self.attach_children(&mut q, &[], semi_children);
        q.where_clause = self.where_of(from, ctx);
        self.run_create(q, "semi")
    }

    fn materialize_full_message(
        &mut self,
        from: RelId,
        keys: &[String],
        full_children: &[(RelId, MsgHandle)],
        semi_children: &[(RelId, MsgHandle)],
        ctx: &NodeContext,
    ) -> Result<String> {
        let [n0, n1] = self.ring.components();
        let ann = self.composed_annotation(from, full_children);
        let mut items: Vec<SelectItem> = keys
            .iter()
            .map(|k| SelectItem::new(Expr::col(k.clone())))
            .collect();
        items.push(SelectItem::aliased(
            Expr::sum(ann[0].clone()),
            format!("jb_{n0}"),
        ));
        items.push(SelectItem::aliased(
            Expr::sum(ann[1].clone()),
            format!("jb_{n1}"),
        ));
        let mut q = Query {
            items,
            from: Some(self.base_from(from)),
            group_by: keys.iter().map(|k| Expr::col(k.clone())).collect(),
            ..Default::default()
        };
        self.attach_children(&mut q, full_children, semi_children);
        q.where_clause = self.where_of(from, ctx);
        self.run_create(q, "msg")
    }

    fn run_create(&mut self, q: Query, hint: &str) -> Result<String> {
        let name = self.set.fresh_table(hint);
        let stmt = Statement::CreateTableAs {
            name: name.clone(),
            query: q,
            or_replace: false,
        };
        let start = Instant::now();
        self.set.run(&stmt)?;
        let dt = start.elapsed();
        self.stats.message_queries += 1;
        self.stats.message_time += dt;
        self.stats.message_durations.push(dt);
        Ok(name)
    }

    /// Build the absorption query at `root`: join `root` with all incoming
    /// messages, apply the node predicates, and aggregate the composed
    /// annotation grouped by a feature of `root` (or globally).
    ///
    /// Output columns: `[val,] c0, c1` aliased to the generic component
    /// names expected by the split queries.
    pub fn absorb(
        &mut self,
        root: RelId,
        group: Option<&GroupSpec>,
        ctx: &NodeContext,
    ) -> Result<Query> {
        let g = &self.set.graph;
        let neighbors: Vec<RelId> = g.neighbors(root).into_iter().map(|(v, _)| v).collect();
        let mut full_children = Vec::new();
        let mut semi_children = Vec::new();
        for n in neighbors {
            match self.message(n, root, ctx)? {
                MsgHandle::Identity => {}
                m @ MsgHandle::Semi { .. } => semi_children.push((n, m)),
                m @ MsgHandle::Full { .. } => full_children.push((n, m)),
            }
        }
        let [n0, n1] = self.ring.components();
        let ann = self.composed_annotation(root, &full_children);
        let mut items = Vec::new();
        if let Some(g) = group {
            items.push(SelectItem::aliased(g.select.clone(), "val"));
        }
        items.push(SelectItem::aliased(Expr::sum(ann[0].clone()), n0));
        items.push(SelectItem::aliased(Expr::sum(ann[1].clone()), n1));
        let mut q = Query {
            items,
            from: Some(self.base_from(root)),
            group_by: group.map(|g| vec![g.group.clone()]).unwrap_or_default(),
            ..Default::default()
        };
        self.attach_children(&mut q, &full_children, &semi_children);
        let mut preds: Vec<Expr> = ctx.preds_of(root).iter().map(|p| p.expr.clone()).collect();
        if let Some(g) = group {
            // Missing feature values are excluded from split statistics
            // (they follow the split's default branch at prediction time).
            preds.push(Expr::IsNull {
                expr: Box::new(Expr::col(g.feature.clone())),
                negated: true,
            });
        }
        q.where_clause = Expr::and_all(preds);
        Ok(q)
    }

    /// Execute a global (no group-by) absorption and return the two
    /// aggregate components `(c0, c1)` — the node totals.
    pub fn totals(&mut self, root: RelId, ctx: &NodeContext) -> Result<(f64, f64)> {
        let [n0, n1] = self.ring.components();
        let q = self.absorb(root, None, ctx)?;
        let t = self.set.run(&Statement::Select(q))?;
        if t.num_rows() == 0 {
            return Ok((0.0, 0.0));
        }
        let c0 = t.scalar_f64(n0).unwrap_or(0.0);
        let c1 = t.scalar_f64(n1).unwrap_or(0.0);
        Ok((c0, c1))
    }

    /// Drop every cached message (the `Batch` ablation recomputes messages
    /// per tree node; backing temp tables are cleaned by the dataset).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::{Column, Database, Datum, Table};
    use joinboost_graph::JoinGraph;

    /// Paper Figure 1 data: R(A,B) target B; S(A,C); T(A,D).
    fn figure1(db: &Database) -> JoinGraph {
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2, 2])),
                ("b", Column::float(vec![2.0, 3.0, 1.0, 2.0])),
            ]),
        )
        .unwrap();
        db.create_table(
            "s",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2, 2])),
                ("c", Column::int(vec![2, 1, 3])),
            ]),
        )
        .unwrap();
        db.create_table(
            "t",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2])),
                ("d", Column::int(vec![1, 2, 2])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("r", &[]).unwrap();
        g.add_relation("s", &["c"]).unwrap();
        g.add_relation("t", &["d"]).unwrap();
        g.add_edge_with("r", "s", &["a"], Multiplicity::ManyToMany)
            .unwrap();
        g.add_edge_with("s", "t", &["a"], Multiplicity::ManyToMany)
            .unwrap();
        g
    }

    #[test]
    fn figure1_total_aggregate_is_8_16_36_minus_q() {
        // γ(R ⋈ S ⋈ T) = (8, 16, 36); we track (c, s) = (8, 16).
        let db = Database::in_memory();
        let g = figure1(&db);
        let set = Dataset::new(&db, g, "r", "b").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let target = set.target_rel();
        f.set_annotation(target, vec![Expr::int(1), Expr::col("b")]);
        let (c, s) = f.totals(target, &NodeContext::root()).unwrap();
        assert_eq!((c, s), (8.0, 16.0));
        // M-N chain: both S and T must send full messages (counts change).
        assert_eq!(f.stats.message_queries, 2);
        assert_eq!(f.stats.identity_drops, 0);
    }

    #[test]
    fn figure1c_groupby_c_matches_paper() {
        // γ_C(R⋈): C=1 → (2,3,5), C=2 → (4,10,26), C=3 → (2,3,5).
        let db = Database::in_memory();
        let g = figure1(&db);
        let set = Dataset::new(&db, g, "r", "b").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let target = set.target_rel();
        f.set_annotation(target, vec![Expr::int(1), Expr::col("b")]);
        let s_rel = set.graph.rel_id("s").unwrap();
        let q = f
            .absorb(s_rel, Some(&GroupSpec::plain("c")), &NodeContext::root())
            .unwrap();
        let t = db
            .query(&format!("SELECT * FROM ({q}) AS x ORDER BY val"))
            .unwrap();
        assert_eq!(t.num_rows(), 3);
        let c_col = t.column(None, "c").unwrap();
        let s_col = t.column(None, "s").unwrap();
        assert_eq!(c_col.f64_at(0), Some(2.0));
        assert_eq!(s_col.f64_at(0), Some(3.0));
        assert_eq!(c_col.f64_at(1), Some(4.0));
        assert_eq!(s_col.f64_at(1), Some(10.0));
        assert_eq!(c_col.f64_at(2), Some(2.0));
        assert_eq!(s_col.f64_at(2), Some(3.0));
    }

    /// Star schema: fact(sales) N-1 to two dims.
    fn star(db: &Database) -> JoinGraph {
        star_with(
            db,
            vec![1, 1, 2, 2],
            vec![1, 2, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0],
        )
    }

    /// [`star`] over the given fact rows (`d2` has keys 1..=3).
    fn star_with(db: &Database, k1: Vec<i64>, k2: Vec<i64>, y: Vec<f64>) -> JoinGraph {
        db.create_table(
            "fact",
            Table::from_columns(vec![
                ("k1", Column::int(k1)),
                ("k2", Column::int(k2)),
                ("y", Column::float(y)),
            ]),
        )
        .unwrap();
        db.create_table(
            "d1",
            Table::from_columns(vec![
                ("k1", Column::int(vec![1, 2])),
                ("f1", Column::int(vec![10, 20])),
            ]),
        )
        .unwrap();
        db.create_table(
            "d2",
            Table::from_columns(vec![
                ("k2", Column::int(vec![1, 2, 3])),
                ("f2", Column::int(vec![7, 8, 9])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("fact", &[]).unwrap();
        g.add_relation("d1", &["f1"]).unwrap();
        g.add_relation("d2", &["f2"]).unwrap();
        g.add_edge("fact", "d1", &["k1"]).unwrap();
        g.add_edge("fact", "d2", &["k2"]).unwrap();
        g
    }

    #[test]
    fn star_dims_send_identity_messages() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let (c, s) = f.totals(fact, &NodeContext::root()).unwrap();
        assert_eq!((c, s), (4.0, 10.0));
        // No predicates, identity dims, N-1 edges → zero message queries.
        assert_eq!(f.stats.message_queries, 0);
        assert_eq!(f.stats.identity_drops, 2);
    }

    #[test]
    fn predicate_on_dim_becomes_semijoin_message() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let split = Split {
            feature: "f1".into(),
            relation: "d1".into(),
            cond: SplitCondition::LtEq(10.0),
            default_left: false,
        };
        let ctx = NodeContext::root().with_pred(d1, Pred::from_split(&split, false));
        let (c, s) = f.totals(fact, &ctx).unwrap();
        // f1 <= 10 → k1 = 1 → rows (1,1) and (1,2): c=2, s=3.
        assert_eq!((c, s), (2.0, 3.0));
        assert_eq!(f.stats.semi_messages, 1);
        // The other dim is still identity-dropped.
        assert_eq!(f.stats.identity_drops, 1);
        assert_eq!(
            f.stats.message_queries, 1,
            "only the semi message materializes"
        );
    }

    #[test]
    fn absorb_at_dim_pulls_fact_message() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let q = f
            .absorb(d1, Some(&GroupSpec::plain("f1")), &NodeContext::root())
            .unwrap();
        let t = db
            .query(&format!("SELECT * FROM ({q}) AS x ORDER BY val"))
            .unwrap();
        assert_eq!(t.num_rows(), 2);
        // f1 = 10 → k1 = 1 → (2, 3); f1 = 20 → k1 = 2 → (2, 7).
        assert_eq!(t.column(None, "s").unwrap().f64_at(0), Some(3.0));
        assert_eq!(t.column(None, "s").unwrap().f64_at(1), Some(7.0));
        // The fact's message to d1 is a full message (it carries y sums).
        assert_eq!(f.stats.message_queries, 1);
    }

    #[test]
    fn message_cache_reuses_across_nodes() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let ctx = NodeContext::root();
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        let queries_before = f.stats.message_queries;
        // Same context again (another feature on the same relation):
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        assert_eq!(f.stats.message_queries, queries_before, "cache hit");
        assert!(f.stats.cache_hits >= 1);
        // A predicate on d2 invalidates the fact→d1 message (d2 is in its
        // subtree) but a predicate on d1 itself does not.
        let d2 = set.graph.rel_id("d2").unwrap();
        let split = Split {
            feature: "f2".into(),
            relation: "d2".into(),
            cond: SplitCondition::LtEq(7.0),
            default_left: false,
        };
        let ctx2 = ctx.with_pred(d2, Pred::from_split(&split, false));
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx2).unwrap();
        assert!(f.stats.message_queries > queries_before);
    }

    #[test]
    fn epoch_bump_invalidates_fact_messages() {
        let db = Database::in_memory();
        let g = star(&db);
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let mut f = Factorizer::new(&set, RingKind::Variance);
        let fact = set.target_rel();
        f.set_annotation(fact, vec![Expr::int(1), Expr::col("y")]);
        let d1 = set.graph.rel_id("d1").unwrap();
        let ctx = NodeContext::root();
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        let before = f.stats.message_queries;
        f.bump_epoch(fact);
        let _ = f.absorb(d1, Some(&GroupSpec::plain("f1")), &ctx).unwrap();
        assert!(f.stats.message_queries > before, "epoch forces recompute");
    }

    #[test]
    fn derived_message_equals_the_scanned_one() {
        // Targets on the 1/8 grid: every sum is exact, so `parent ⊖ left`
        // must equal a fresh scan of the right child bit for bit.
        let db = Database::in_memory();
        let g = star_with(
            &db,
            vec![1, 1, 2, 2, 2, 2, 1],
            vec![1, 2, 1, 2, 1, 2, 3],
            vec![0.125, 2.5, 3.75, -1.25, 0.5, 4.0, 1.875],
        );
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let (fact, d1, d2) = (
            set.target_rel(),
            set.graph.rel_id("d1").unwrap(),
            set.graph.rel_id("d2").unwrap(),
        );
        let split = Split {
            feature: "f1".into(),
            relation: "d1".into(),
            cond: SplitCondition::LtEq(10.0),
            default_left: false,
        };
        let root = NodeContext::root();
        // The smaller (left, k1 = 1) child holds every k2 = 3 row.
        let left = root.with_pred(d1, Pred::from_split(&split, false));
        let right = root.with_pred(d1, Pred::from_split(&split, true));
        let table = |h: MsgHandle| match h {
            MsgHandle::Full { table, .. } => db
                .query(&format!("SELECT * FROM {table} ORDER BY k2"))
                .unwrap(),
            other => panic!("expected a full message, got {other:?}"),
        };

        let mut f = Factorizer::over_target(&set);
        f.message(fact, d2, &root).unwrap();
        f.message(fact, d2, &left).unwrap();
        let before = f.stats.message_queries;
        f.derive_from(Some(SiblingOf {
            split_rel: d1,
            parent: root,
            sibling: left,
            node: right.clone(),
        }));
        let derived = table(f.message(fact, d2, &right).unwrap());
        assert_eq!(
            f.stats.message_queries - before,
            1,
            "one subtraction, no rescan of the fact or d1"
        );

        let mut scan = Factorizer::over_target(&set);
        let scanned = table(scan.message(fact, d2, &right).unwrap());
        assert_eq!(derived, scanned);
        let keys = derived.column(None, "k2").unwrap();
        let keys: Vec<_> = (0..derived.num_rows()).map(|i| keys.get(i)).collect();
        assert_eq!(keys, [1i64, 2].map(Datum::Int), "k2 = 3 went left only");
    }

    #[test]
    fn only_the_larger_childs_context_is_derived() {
        // While derivation is set for the right child, a message under any
        // other context must be scanned, not cached as `parent ⊖ left`.
        let db = Database::in_memory();
        let g = star_with(
            &db,
            vec![1, 1, 2, 2, 2, 2, 1],
            vec![1, 2, 1, 2, 1, 2, 3],
            vec![0.125, 2.5, 3.75, -1.25, 0.5, 4.0, 1.875],
        );
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let (fact, d1, d2) = (
            set.target_rel(),
            set.graph.rel_id("d1").unwrap(),
            set.graph.rel_id("d2").unwrap(),
        );
        let split = |t: f64| Split {
            feature: "f1".into(),
            relation: "d1".into(),
            cond: SplitCondition::LtEq(t),
            default_left: false,
        };
        let root = NodeContext::root();
        let left = root.with_pred(d1, Pred::from_split(&split(10.0), false));
        let right = root.with_pred(d1, Pred::from_split(&split(10.0), true));
        // Every row passes `f1 <= 20`: its message is the parent's.
        let other = root.with_pred(d1, Pred::from_split(&split(20.0), false));
        let rows = |h: MsgHandle| match h {
            MsgHandle::Full { table, .. } => db
                .query(&format!("SELECT * FROM {table} ORDER BY k2"))
                .unwrap(),
            other => panic!("expected a full message, got {other:?}"),
        };

        let mut f = Factorizer::over_target(&set);
        f.message(fact, d2, &root).unwrap();
        f.message(fact, d2, &left).unwrap();
        f.derive_from(Some(SiblingOf {
            split_rel: d1,
            parent: root.clone(),
            sibling: left,
            node: right,
        }));
        let got = rows(f.message(fact, d2, &other).unwrap());
        let mut scan = Factorizer::over_target(&set);
        assert_eq!(got, rows(scan.message(fact, d2, &other).unwrap()));
        assert_eq!(got, rows(scan.message(fact, d2, &root).unwrap()));
    }
}
