//! Factorized model serving: compile a trained forest into per-relation
//! **message tables** so scoring a key is k dictionary lookups plus
//! `⊕`-adds — never a join (see `DESIGN.md` § "Serving").
//!
//! Training avoids materializing `R⋈`; this module makes *prediction*
//! avoid it too. For every tree, each relation's split predicates are
//! pushed down to that relation and evaluated once per row, producing a
//! per-key **leaf-compatibility bitmask**: bit `j` is set iff no predicate
//! of leaf `j`'s path that lives on this relation is violated. Because a
//! tree's leaves partition the input space, AND-ing the masks of the fact
//! row and its dimension rows leaves exactly one bit — the leaf
//! [`Tree::predict`] would have reached over the joined tuple. The score
//! is then read from the tree's leaf-value table.
//!
//! Exactness: the evaluator adds leaf values in the exact operation order
//! of the materialized-join path (`score = init; per tree: score +=
//! lr·leaf`), so [`FactorizedScorer`] is unconditionally bit-identical to
//! [`JoinScorer`] on a single node. Sharded evaluation computes shard
//! partials starting from `0.0` and adds the initial score at the
//! coordinator; with the `leaf_quantization` dyadic grid every partial is
//! exact in `f64`, so the regrouping changes nothing — the distributed
//! scores are bit-identical too.
//!
//! Snowflake schemas deeper than one level are folded at compile time:
//! a dimension-of-a-dimension's mask is AND-ed into its parent, so the
//! deployed tables are always the fact message table (hash-partitioned on
//! the predict key) plus one replicated table per fact-adjacent dimension.

use std::collections::HashMap;

use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, Datum, EngineError, Table};
use joinboost_graph::{JoinGraph, RelId};
use joinboost_sql::ast::{Expr, SelectItem, Statement};

use crate::backend::{BackendResult, SqlBackend};
use crate::boosting::GbmModel;
use crate::dataset::Dataset;
use crate::error::{Result, TrainError};
use crate::predict::{features_query, predict_boosted, TableRow};
use crate::tree::Tree;

/// Key column name inside a deployed dimension message table.
pub const DIM_KEY: &str = "jb_key";

/// A compiled, deployable description of a factorized scorer: which
/// message tables hold the per-key masks, and the per-tree leaf values to
/// read once the masks are AND-ed.
///
/// The spec is plain data — it crosses the wire (see
/// [`crate::backend::wire`]) so a `PredictBatch` can name shard-resident
/// tables without shipping them.
#[derive(Debug, Clone, PartialEq)]
pub struct ScorerSpec {
    /// The model's initial score (added once per key).
    pub init_score: f64,
    /// Shrinkage applied to every leaf value.
    pub learning_rate: f64,
    /// `leaf_values[t][j]` = value of leaf slot `j` (in
    /// [`Tree::leaves_with_paths`] order) of tree `t`.
    pub leaf_values: Vec<Vec<f64>>,
    /// Name of the fact message table: `[key, jb_fk*, jb_m*]`, one row per
    /// predict key, hash-partitioned on the key when deployed to shards.
    pub fact_table: String,
    /// The predict-key column inside [`ScorerSpec::fact_table`].
    pub key_column: String,
    /// Replicated per-dimension message tables `[jb_key, jb_m*]`; entry
    /// `d` is looked up through fact column [`fk_column`]`(d)`.
    pub dim_tables: Vec<String>,
}

/// Name of the per-tree mask column `t` (`jb_m{t}`, an `Int` column
/// holding the `u64` bitmask by bit pattern).
pub fn mask_column(t: usize) -> String {
    format!("jb_m{t}")
}

/// Name of the fact message table's foreign-key column into dimension
/// table `d`.
pub fn fk_column(d: usize) -> String {
    format!("jb_fk{d}")
}

impl ScorerSpec {
    /// Every deployed table this spec references, fact first.
    pub fn tables(&self) -> Vec<&str> {
        let mut out = vec![self.fact_table.as_str()];
        out.extend(self.dim_tables.iter().map(String::as_str));
        out
    }
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

/// Per-relation view of one tree: for each leaf slot, the path predicates
/// living on this relation.
struct RelationPredicates {
    /// `(leaf bit, predicates)`; leaves with no predicate here are absent.
    per_leaf: Vec<(usize, Vec<(crate::tree::Split, bool)>)>,
}

fn other(msg: impl Into<String>) -> EngineError {
    EngineError::Other(msg.into())
}

/// The predicates of `tree` that live on relation `rel`.
fn predicates_on(tree: &Tree, graph: &JoinGraph, rel: RelId) -> RelationPredicates {
    let mut per_leaf = Vec::new();
    for (j, (_, path)) in tree.leaves_with_paths().iter().enumerate() {
        let mine: Vec<(crate::tree::Split, bool)> = path
            .iter()
            .filter(|(s, _)| {
                graph
                    .rel_id(&s.relation)
                    .ok()
                    .or_else(|| graph.relation_of_feature(&s.feature))
                    == Some(rel)
            })
            .cloned()
            .collect();
        if !mine.is_empty() {
            per_leaf.push((j, mine));
        }
    }
    RelationPredicates { per_leaf }
}

/// All-ones mask over `n` leaves (`n <= 64` checked by the caller).
fn full_mask(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// Per-row leaf-compatibility masks of `table` for every tree: bit `j` of
/// `masks[row][t]` is cleared iff a predicate of leaf `j`'s path that
/// lives on this relation rejects the row.
fn local_masks(
    table: &Table,
    trees: &[Tree],
    graph: &JoinGraph,
    rel: RelId,
) -> BackendResult<Vec<Vec<u64>>> {
    let mut preds = Vec::with_capacity(trees.len());
    let mut full = Vec::with_capacity(trees.len());
    for tree in trees {
        let n = tree.leaves_with_paths().len();
        if n > 64 {
            return Err(other(format!(
                "factorized serving supports at most 64 leaves per tree, got {n}"
            )));
        }
        preds.push(predicates_on(tree, graph, rel));
        full.push(full_mask(n));
    }
    let n_rows = table.num_rows();
    let mut out = vec![full.clone(); n_rows];
    for (t, p) in preds.iter().enumerate() {
        if p.per_leaf.is_empty() {
            continue;
        }
        for (i, row_masks) in out.iter_mut().enumerate() {
            let row = TableRow { table, index: i };
            for (j, path) in &p.per_leaf {
                for (split, negated) in path {
                    let v = crate::tree::FeatureRow::feature(&row, &split.feature);
                    // The leaf's path takes the left branch iff the
                    // predicate is not negated.
                    if split.goes_left(v.as_ref()) == *negated {
                        row_masks[t] &= !(1u64 << j);
                        break;
                    }
                }
            }
        }
    }
    Ok(out)
}

/// Resolve the single `Int` join-key column between `a` and `b`.
fn single_join_key(graph: &JoinGraph, a: RelId, b: RelId) -> BackendResult<String> {
    let keys = graph
        .join_keys(a, b)
        .ok_or_else(|| other("missing join edge"))?;
    if keys.len() != 1 {
        return Err(other(format!(
            "factorized serving requires single-column join keys; {} ⋈ {} uses {:?}",
            graph.name(a),
            graph.name(b),
            keys
        )));
    }
    Ok(keys[0].clone())
}

/// Key → per-tree masks of a (folded) non-fact relation. `None` values in
/// the map never exist — dead rows (NULL or dangling keys) are dropped,
/// so a lookup miss means "this key never appears in the join".
type DimMap = HashMap<i64, Vec<u64>>;

/// Compile `model` into message tables on `db`, one per fact-adjacent
/// relation plus the fact itself.
///
/// `key_column` must be a unique, non-NULL `Int` column on the graph's
/// snowflake fact relation — it becomes the predict key. `namer` allocates
/// the deployed table names (a [`Dataset`] passes
/// [`Dataset::fresh_table`] so the tables are cleaned up with the
/// dataset; the wire server passes a per-job prefix so they outlive the
/// training job).
pub fn compile_messages(
    db: &dyn SqlBackend,
    graph: &JoinGraph,
    model: &GbmModel,
    key_column: &str,
    namer: &mut dyn FnMut(&str) -> String,
) -> BackendResult<ScorerSpec> {
    let fact = graph
        .snowflake_fact()
        .ok_or_else(|| other("factorized serving requires a snowflake schema"))?;
    let trees = &model.trees;
    let mut leaf_values = Vec::with_capacity(trees.len());
    for tree in trees {
        let vals: Vec<f64> = tree
            .leaves_with_paths()
            .iter()
            .map(|(i, _)| tree.nodes[*i].value)
            .collect();
        if vals.len() > 64 {
            return Err(other(format!(
                "factorized serving supports at most 64 leaves per tree, got {}",
                vals.len()
            )));
        }
        leaf_values.push(vals);
    }

    // BFS from the fact so children are known relative to their parent.
    let n = graph.num_relations();
    let mut parent: Vec<Option<RelId>> = vec![None; n];
    let mut order = vec![fact];
    let mut seen = vec![false; n];
    seen[fact] = true;
    let mut head = 0;
    while head < order.len() {
        let u = order[head];
        head += 1;
        for (v, _) in graph.neighbors(u) {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                order.push(v);
            }
        }
    }

    // Reverse-BFS fold: each relation's masks absorb its children's, so
    // only fact-adjacent relations are deployed.
    let mut folded: HashMap<RelId, DimMap> = HashMap::new();
    for &r in order.iter().skip(1).rev() {
        let table = db.snapshot(graph.name(r))?;
        let mut masks = local_masks(&table, trees, graph, r)?;
        let children: Vec<RelId> = order
            .iter()
            .copied()
            .filter(|&c| parent[c] == Some(r))
            .collect();
        let mut alive = vec![true; table.num_rows()];
        for c in children {
            let key = single_join_key(graph, r, c)?;
            let kidx = table.resolve(None, &key)?;
            let child = folded
                .remove(&c)
                .expect("reverse BFS visits children first");
            for i in 0..table.num_rows() {
                match table.columns[kidx]
                    .get(i)
                    .as_i64()
                    .and_then(|k| child.get(&k))
                {
                    Some(cm) => {
                        for (m, c) in masks[i].iter_mut().zip(cm) {
                            *m &= c;
                        }
                    }
                    // NULL or dangling key: the row never joins, so any
                    // fact row pointing at it is absent from R⋈.
                    None => alive[i] = false,
                }
            }
        }
        let p = parent[r].expect("non-root relation has a parent");
        let key = single_join_key(graph, p, r)?;
        let kidx = table.resolve(None, &key)?;
        let mut map: DimMap = HashMap::new();
        for i in 0..table.num_rows() {
            if !alive[i] {
                continue;
            }
            let Some(k) = table.columns[kidx].get(i).as_i64() else {
                continue; // NULL join key never matches
            };
            if map.insert(k, std::mem::take(&mut masks[i])).is_some() {
                return Err(other(format!(
                    "factorized serving requires unique join keys; {} is duplicated in {}",
                    key,
                    graph.name(r)
                )));
            }
        }
        folded.insert(r, map);
    }

    // Deploy the fact-adjacent dimensions (replicated).
    let dims: Vec<RelId> = order
        .iter()
        .copied()
        .filter(|&r| parent[r] == Some(fact))
        .collect();
    let mut dim_tables = Vec::with_capacity(dims.len());
    for &d in &dims {
        let map = folded.remove(&d).expect("dimension folded");
        let mut keys: Vec<i64> = map.keys().copied().collect();
        keys.sort_unstable();
        let mut t = Table::new();
        t.push_column(ColumnMeta::new(DIM_KEY), Column::int(keys.clone()));
        #[allow(clippy::needless_range_loop)] // `ti` indexes per-key mask vecs, not one slice
        for ti in 0..trees.len() {
            let col: Vec<i64> = keys.iter().map(|k| map[k][ti] as i64).collect();
            t.push_column(ColumnMeta::new(mask_column(ti)), Column::int(col));
        }
        let name = namer(&format!("msg_{}", graph.name(d)));
        db.create_table(&name, t)?;
        dim_tables.push(name);
    }

    // Deploy the fact message table, partitioned on the predict key.
    let fact_snap = db.snapshot(graph.name(fact))?;
    let kidx = fact_snap.resolve(None, key_column)?;
    let masks = local_masks(&fact_snap, trees, graph, fact)?;
    let mut keys: Vec<i64> = Vec::with_capacity(fact_snap.num_rows());
    let mut unique: HashMap<i64, ()> = HashMap::with_capacity(fact_snap.num_rows());
    for i in 0..fact_snap.num_rows() {
        let k = fact_snap.columns[kidx].get(i).as_i64().ok_or_else(|| {
            other(format!(
                "predict key {key_column} must be a non-NULL Int column"
            ))
        })?;
        if unique.insert(k, ()).is_some() {
            return Err(other(format!(
                "predict key {key_column} is not unique: {k} appears twice"
            )));
        }
        keys.push(k);
    }
    let mut t = Table::new();
    t.push_column(ColumnMeta::new(key_column), Column::int(keys));
    for (d, &dim) in dims.iter().enumerate() {
        let key = single_join_key(graph, fact, dim)?;
        let fki = fact_snap.resolve(None, &key)?;
        let vals: Vec<Datum> = (0..fact_snap.num_rows())
            .map(|i| fact_snap.columns[fki].get(i))
            .collect();
        let dtype = fact_snap.columns[fki].dtype();
        t.push_column(
            ColumnMeta::new(fk_column(d)),
            Column::from_datums(dtype, &vals)?,
        );
    }
    for ti in 0..trees.len() {
        let col: Vec<i64> = masks.iter().map(|m| m[ti] as i64).collect();
        t.push_column(ColumnMeta::new(mask_column(ti)), Column::int(col));
    }
    let fact_table = namer("msg_fact");
    db.create_partitioned_table(&fact_table, t, key_column)?;

    Ok(ScorerSpec {
        init_score: model.init_score,
        learning_rate: model.learning_rate,
        leaf_values,
        fact_table,
        key_column: key_column.to_string(),
        dim_tables,
    })
}

// ---------------------------------------------------------------------------
// Evaluation
// ---------------------------------------------------------------------------

/// One fact key's entry in a loaded [`MessageIndex`].
struct FactEntry {
    /// Per-tree local masks of the fact row.
    masks: Vec<u64>,
    /// Foreign keys into each dimension (`None` = NULL, never joins).
    fks: Vec<Option<i64>>,
}

/// An in-memory dictionary view of deployed message tables: the structure
/// every scoring path (local, per-shard partial, wire server) evaluates
/// against.
pub struct MessageIndex {
    learning_rate: f64,
    leaf_values: Vec<Vec<f64>>,
    fact: HashMap<i64, FactEntry>,
    dims: Vec<DimMap>,
}

impl MessageIndex {
    /// Load the spec's tables through `snapshot` (a backend, a shard
    /// transport, or a server-local engine — whoever holds the tables).
    pub fn load(
        spec: &ScorerSpec,
        snapshot: &mut dyn FnMut(&str) -> BackendResult<Table>,
    ) -> BackendResult<MessageIndex> {
        let nt = spec.leaf_values.len();
        let t = snapshot(&spec.fact_table)?;
        let kidx = t.resolve(None, &spec.key_column)?;
        let fk_idx: Vec<usize> = (0..spec.dim_tables.len())
            .map(|d| t.resolve(None, &fk_column(d)))
            .collect::<std::result::Result<_, _>>()?;
        let m_idx: Vec<usize> = (0..nt)
            .map(|ti| t.resolve(None, &mask_column(ti)))
            .collect::<std::result::Result<_, _>>()?;
        let mut fact = HashMap::with_capacity(t.num_rows());
        for i in 0..t.num_rows() {
            let key = t.columns[kidx]
                .get(i)
                .as_i64()
                .ok_or_else(|| other("fact message table key must be Int"))?;
            let masks: Vec<u64> = m_idx
                .iter()
                .map(|&c| {
                    t.columns[c]
                        .get(i)
                        .as_i64()
                        .map(|v| v as u64)
                        .ok_or_else(|| other("fact message table mask must be Int"))
                })
                .collect::<std::result::Result<_, _>>()?;
            let fks: Vec<Option<i64>> = fk_idx
                .iter()
                .map(|&c| t.columns[c].get(i).as_i64())
                .collect();
            fact.insert(key, FactEntry { masks, fks });
        }
        let mut dims = Vec::with_capacity(spec.dim_tables.len());
        for name in &spec.dim_tables {
            let t = snapshot(name)?;
            let kidx = t.resolve(None, DIM_KEY)?;
            let m_idx: Vec<usize> = (0..nt)
                .map(|ti| t.resolve(None, &mask_column(ti)))
                .collect::<std::result::Result<_, _>>()?;
            let mut map: DimMap = HashMap::with_capacity(t.num_rows());
            for i in 0..t.num_rows() {
                let key = t.columns[kidx]
                    .get(i)
                    .as_i64()
                    .ok_or_else(|| other("dimension message table key must be Int"))?;
                let masks: Vec<u64> = m_idx
                    .iter()
                    .map(|&c| {
                        t.columns[c]
                            .get(i)
                            .as_i64()
                            .map(|v| v as u64)
                            .ok_or_else(|| other("dimension message table mask must be Int"))
                    })
                    .collect::<std::result::Result<_, _>>()?;
                map.insert(key, masks);
            }
            dims.push(map);
        }
        Ok(MessageIndex {
            learning_rate: spec.learning_rate,
            leaf_values: spec.leaf_values.clone(),
            fact,
            dims,
        })
    }

    /// Score one key. `(false, 0.0)` means the key is absent from the
    /// fact table or its joined tuple is absent from `R⋈` (dangling or
    /// NULL foreign key). `start` is the running total to add leaf values
    /// onto — the model's `init_score` locally, `0.0` for a shard
    /// partial.
    pub fn eval(&self, key: i64, start: f64) -> BackendResult<(bool, f64)> {
        let Some(entry) = self.fact.get(&key) else {
            return Ok((false, 0.0));
        };
        let mut dim_masks: Vec<&Vec<u64>> = Vec::with_capacity(self.dims.len());
        for (d, dim) in self.dims.iter().enumerate() {
            match entry.fks[d].and_then(|k| dim.get(&k)) {
                Some(m) => dim_masks.push(m),
                None => return Ok((false, 0.0)),
            }
        }
        // Exact op order of `predict_boosted`: one `+= lr·leaf` per tree.
        let mut score = start;
        for (t, leaves) in self.leaf_values.iter().enumerate() {
            let mut mask = entry.masks[t];
            for dm in &dim_masks {
                mask &= dm[t];
            }
            if mask.count_ones() != 1 {
                return Err(other(format!(
                    "message tables inconsistent for key {key}: tree {t} mask \
                     {mask:#x} selects {} leaves",
                    mask.count_ones()
                )));
            }
            let slot = mask.trailing_zeros() as usize;
            let Some(&leaf) = leaves.get(slot) else {
                return Err(other(format!(
                    "scorer spec too short for key {key}: tree {t} selects leaf slot \
                     {slot}, but the spec has {} leaf values for it",
                    leaves.len()
                )));
            };
            score += self.learning_rate * leaf;
        }
        Ok((true, score))
    }

    /// [`MessageIndex::eval`] over a batch of keys.
    pub fn eval_batch(&self, keys: &[i64], start: f64) -> BackendResult<Vec<(bool, f64)>> {
        keys.iter().map(|&k| self.eval(k, start)).collect()
    }
}

// ---------------------------------------------------------------------------
// The Scorer surface
// ---------------------------------------------------------------------------

/// A trained model deployed for per-key scoring — the single prediction
/// surface of the serving tier.
///
/// `None` in the result means the key's tuple is not part of `R⋈` (the
/// key is unknown, or a foreign key dangles), which the materialized and
/// factorized paths agree on by construction.
pub trait Scorer {
    /// Short human-readable name (reports, benchmarks).
    fn name(&self) -> &str;

    /// Scores for a batch of predict keys.
    fn score_batch(&self, keys: &[i64]) -> Result<Vec<Option<f64>>>;
}

/// The materialized baseline: evaluate the model once over `R⋈` (the
/// join this whole crate exists to avoid) and answer lookups from the
/// resulting per-key dictionary. Exists as the oracle the factorized
/// path is asserted bit-identical against.
pub struct JoinScorer {
    scores: HashMap<i64, f64>,
}

impl JoinScorer {
    /// Materialize the join with `key_column` attached, score every row
    /// with the exact `predict_boosted` loop, and index by key.
    pub fn compile(set: &Dataset, model: &GbmModel, key_column: &str) -> Result<JoinScorer> {
        let g = &set.graph;
        let mut q = features_query(set);
        q.items.push(SelectItem::aliased(
            Expr::qcol(g.name(set.target_rel()), key_column.to_string()),
            "jb_serve_key",
        ));
        let t = set.run(&Statement::Select(q))?;
        let scores = predict_boosted(&model.trees, model.init_score, model.learning_rate, &t);
        let kidx = t.resolve(None, "jb_serve_key").map_err(TrainError::from)?;
        let mut map = HashMap::with_capacity(t.num_rows());
        for (i, s) in scores.into_iter().enumerate() {
            let k = t.columns[kidx].get(i).as_i64().ok_or_else(|| {
                TrainError::Invalid(format!("predict key {key_column} must be a non-NULL Int"))
            })?;
            if map.insert(k, s).is_some() {
                return Err(TrainError::Invalid(format!(
                    "predict key {key_column} is not unique in the join: {k} appears twice"
                )));
            }
        }
        Ok(JoinScorer { scores: map })
    }
}

impl Scorer for JoinScorer {
    fn name(&self) -> &str {
        "join"
    }

    fn score_batch(&self, keys: &[i64]) -> Result<Vec<Option<f64>>> {
        Ok(keys.iter().map(|k| self.scores.get(k).copied()).collect())
    }
}

/// The factorized path: message tables deployed on the dataset's backend
/// (partitioned fact + replicated dimensions), scored through
/// [`SqlBackend::predict_batch`] — k dictionary lookups and `⊕`-adds per
/// key, never a join.
pub struct FactorizedScorer<'a> {
    db: &'a dyn SqlBackend,
    spec: ScorerSpec,
}

impl<'a> FactorizedScorer<'a> {
    /// Compile `model` into message tables on the dataset's backend. The
    /// tables are registered as dataset temp tables, so they are dropped
    /// with the dataset.
    pub fn compile(
        set: &Dataset<'a>,
        model: &GbmModel,
        key_column: &str,
    ) -> Result<FactorizedScorer<'a>> {
        let spec = compile_messages(set.db, &set.graph, model, key_column, &mut |hint| {
            set.fresh_table(hint)
        })
        .map_err(TrainError::from)?;
        Ok(FactorizedScorer { db: set.db, spec })
    }

    /// The deployable spec (ship it to remote scorers over the wire).
    pub fn spec(&self) -> &ScorerSpec {
        &self.spec
    }
}

impl Scorer for FactorizedScorer<'_> {
    fn name(&self) -> &str {
        "factorized"
    }

    fn score_batch(&self, keys: &[i64]) -> Result<Vec<Option<f64>>> {
        let partials = self
            .db
            .predict_batch(&self.spec, keys)
            .map_err(TrainError::from)?;
        Ok(partials
            .into_iter()
            .map(|(found, s)| found.then_some(s))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::TrainParams;
    use crate::train_gbm;
    use joinboost_engine::Database;
    use joinboost_graph::JoinGraph;

    fn star_db() -> (Database, JoinGraph) {
        let db = Database::in_memory();
        db.create_table(
            "fact",
            Table::from_columns(vec![
                ("k", Column::int((0..64).collect())),
                ("d_id", Column::int((0..64).map(|i| i % 7).collect())),
                (
                    "y",
                    Column::float((0..64).map(|i| ((i * 5) % 16) as f64 / 8.0).collect()),
                ),
            ]),
        )
        .unwrap();
        db.create_table(
            "dim",
            Table::from_columns(vec![
                // Key 6 is missing: fact rows pointing at it drop from R⋈.
                ("d_id", Column::int(vec![0, 1, 2, 3, 4, 5])),
                ("g", Column::int(vec![3, 1, 4, 1, 5, 9])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("fact", &[]).unwrap();
        g.add_relation("dim", &["g"]).unwrap();
        g.add_edge("fact", "dim", &["d_id"]).unwrap();
        (db, g)
    }

    #[test]
    fn factorized_matches_join_scorer_bit_for_bit() {
        let (db, g) = star_db();
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let params = TrainParams {
            num_iterations: 3,
            learning_rate: 0.5,
            leaf_quantization: (2.0f64).powi(-10),
            ..Default::default()
        };
        let model = train_gbm(&set, &params).unwrap();
        let join = JoinScorer::compile(&set, &model, "k").unwrap();
        let fac = FactorizedScorer::compile(&set, &model, "k").unwrap();
        let keys: Vec<i64> = (0..70).collect(); // includes unknown keys
        let a = join.score_batch(&keys).unwrap();
        let b = fac.score_batch(&keys).unwrap();
        let mut dropped = 0;
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            match (x, y) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits(), "key {i}");
                }
                (None, None) => dropped += 1,
                _ => panic!("key {i}: join={x:?} factorized={y:?}"),
            }
        }
        // Keys ≥ 64 and the d_id=6 rows are absent from the join.
        assert!(dropped > 6, "expected dangling keys, got {dropped}");
    }

    #[test]
    fn compile_rejects_duplicate_predict_keys() {
        let (db, g) = star_db();
        db.execute("UPDATE fact SET k = 0").unwrap();
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let model = train_gbm(
            &set,
            &TrainParams {
                num_iterations: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let err = match FactorizedScorer::compile(&set, &model, "k") {
            Ok(_) => panic!("duplicate keys must be rejected"),
            Err(e) => e,
        };
        assert!(err.to_string().contains("not unique"), "{err}");
    }
}
