//! Ancestral sampling over the join graph (Section 5.5.2).
//!
//! Random forests need uniform, independent samples of the *join result*
//! `R⋈` without materializing it. Naively sampling each relation is
//! neither uniform nor join-safe. Ancestral sampling treats `R⋈` as a
//! probability table (each tuple mass `1/|R⋈|`), samples the root
//! relation by its marginal probability — the number of join tuples each
//! root row extends to, computed by COUNT semi-ring message passing — and
//! walks the join graph sampling each next relation conditionally.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use joinboost_engine::keys::{group_rows, JoinIndex};
use joinboost_engine::table::ColumnMeta;
use joinboost_engine::{Column, Table};
use joinboost_graph::{JoinGraph, RelId};

use crate::backend::{BackendResult, SqlBackend};
use crate::error::{Result, TrainError};

/// Per-relation data prepared for sampling.
struct RelData {
    table: Table,
    /// COUNT-semiring weight per row: the number of `R⋈` tuples this row
    /// extends to within its subtree.
    weights: Vec<f64>,
    /// Children in the sampling tree, each with this relation's rows
    /// indexed against the child's rows on their join keys.
    children: Vec<(RelId, JoinIndex)>,
}

/// A relation's COUNT message to its parent: its distinct join keys and,
/// per key, the summed weights of the rows holding it (added in row order).
struct Message {
    keys: Vec<Column>,
    sums: Vec<f64>,
}

/// The columns of `t` named by the join `keys`.
fn key_columns<'a>(t: &'a Table, keys: &[String]) -> Result<Vec<&'a Column>> {
    Ok(keys
        .iter()
        .map(|k| t.column(None, k))
        .collect::<BackendResult<_>>()?)
}

/// Index `parent`'s rows against `child`'s on the join `keys`: the
/// engine's join, so a key with a NULL component matches nothing.
fn join_index(parent: &Table, child: &Table, keys: &[String]) -> Result<JoinIndex> {
    let (pn, cn) = (parent.num_rows(), child.num_rows());
    Ok(JoinIndex::build(
        &key_columns(parent, keys)?,
        &key_columns(child, keys)?,
        pn,
        cn,
    ))
}

/// `child`'s COUNT message on the join `keys`.
fn message(child: &RelData, keys: &[String]) -> Result<Message> {
    let cols = key_columns(&child.table, keys)?;
    let groups = group_rows(&cols, child.table.num_rows());
    let mut sums = vec![0.0f64; groups.num_groups];
    for (&g, &w) in groups.gids.iter().zip(&child.weights) {
        sums[g as usize] += w;
    }
    Ok(Message {
        keys: cols.iter().map(|c| c.take(&groups.reps)).collect(),
        sums,
    })
}

/// Multiply the weight of every row of `t` by the message sum of the key
/// it joins on `keys` (0 when it joins none).
fn absorb(weights: &mut [f64], t: &Table, keys: &[String], msg: &Message) -> Result<()> {
    let msg_keys: Vec<&Column> = msg.keys.iter().collect();
    let index = JoinIndex::build(
        &key_columns(t, keys)?,
        &msg_keys,
        t.num_rows(),
        msg.sums.len(),
    );
    for (i, w) in weights.iter_mut().enumerate() {
        *w *= index.probe(i).map_or(0.0, |r| msg.sums[r[0] as usize]);
    }
    Ok(())
}

/// Draw one of the child rows a parent row joins, by their weights.
fn draw(rng: &mut StdRng, cands: Option<&[u32]>, child: &RelData) -> Result<u32> {
    let cands =
        cands.ok_or_else(|| TrainError::Invalid("dangling join key during sampling".into()))?;
    let ws: Vec<f64> = cands.iter().map(|&i| child.weights[i as usize]).collect();
    let wtotal: f64 = ws.iter().sum();
    sample_weighted(rng, &ws, wtotal)
        .map(|p| cands[p])
        .ok_or_else(|| TrainError::Invalid("weightless join candidates during sampling".into()))
}

/// Draw `n` tuples of `R⋈` uniformly (with replacement) by ancestral
/// sampling from `root`. Returns a table whose columns are the union of
/// all relations' columns (join keys deduplicated, first occurrence wins).
///
/// The root relation is sampled *per partition* through
/// [`SqlBackend::map_partitions`]: each partition reports its total
/// marginal weight (one row), the per-partition sample counts are drawn
/// from those totals, and each partition then ships only its sampled
/// rows — on a sharded backend the (large) root never crosses the wire,
/// only `n` rows plus one total per shard do. Non-root relations are the
/// small replicated side of the tree and are snapshot as before.
pub fn ancestral_sample(
    db: &dyn SqlBackend,
    graph: &JoinGraph,
    root: RelId,
    n: usize,
    seed: u64,
) -> Result<Table> {
    graph.validate_tree()?;
    let nrel = graph.num_relations();
    // The sampling tree: each relation's parent is the neighbor that
    // precedes it in the BFS order. Children are listed in that order, so
    // a seed fixes the sequence of draws.
    let order = graph.sampling_order(root);
    let mut children_of: Vec<Vec<RelId>> = vec![Vec::new(); nrel];
    for (at, (rel, _)) in order.iter().enumerate().skip(1) {
        let parent = (graph.neighbors(*rel).into_iter())
            .map(|(v, _)| v)
            .find(|v| order[..at].iter().any(|(seen, _)| seen == v))
            .expect("BFS order has a seen parent");
        children_of[parent].push(*rel);
    }
    // Bottom-up COUNT message passing over snapshots of the non-root
    // relations: weight of a row = Π over children of (Σ weights of
    // matching child rows).
    let mut data: Vec<Option<RelData>> = (0..nrel).map(|_| None).collect();
    for (rel, _) in order.iter().rev().filter(|(r, _)| *r != root) {
        let table = db.snapshot(graph.name(*rel))?;
        let mut weights = vec![1.0f64; table.num_rows()];
        let mut children = Vec::new();
        for &c in &children_of[*rel] {
            let child = data[c].as_ref().expect("children processed first");
            let keys = graph.join_keys(*rel, c).expect("edge");
            absorb(&mut weights, &table, keys, &message(child, keys)?)?;
            children.push((c, join_index(&table, &child.table, keys)?));
        }
        data[*rel] = Some(RelData {
            table,
            weights,
            children,
        });
    }
    let prepared = |rel: RelId| data[rel].as_ref().expect("prepared");
    // The root's children's messages, summed once; each root partition
    // joins them for its rows' marginal weights.
    let root_messages: Vec<(&[String], Message)> = (children_of[root].iter())
        .map(|&c| {
            let keys = graph.join_keys(root, c).expect("edge");
            Ok((keys, message(prepared(c), keys)?))
        })
        .collect::<Result<_>>()?;
    let local_weights = |t: &Table| -> Result<Vec<f64>> {
        let mut weights = vec![1.0f64; t.num_rows()];
        for (keys, msg) in &root_messages {
            absorb(&mut weights, t, keys, msg)?;
        }
        Ok(weights)
    };
    let root_name = graph.name(root);
    // Pass 1: each partition reports its total marginal weight (1 row).
    // Totals are indexed by the *partition index* the backend hands the
    // closure — the only ordering `map_partitions` promises.
    let mut totals: Vec<f64> = Vec::new();
    db.map_partitions(root_name, &mut |i, t| {
        let w: f64 = local_weights(t).map_err(engine_err)?.iter().sum();
        if totals.len() <= i {
            totals.resize(i + 1, 0.0);
        }
        totals[i] = w;
        Ok(Table::from_columns(vec![("w", Column::float(vec![w]))]))
    })
    .map_err(TrainError::from)?;
    let total: f64 = totals.iter().sum();
    if total <= 0.0 {
        return Err(TrainError::Invalid("empty join result".into()));
    }
    // Per-partition sample counts: each of the n draws picks a partition
    // by its share of the total weight (zero-weight partitions — an
    // empty shard, say — can never be drawn).
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0usize; totals.len()];
    for _ in 0..n {
        let p = sample_weighted(&mut rng, &totals, total)
            .ok_or_else(|| TrainError::Invalid("no partition carries sampling weight".into()))?;
        counts[p] += 1;
    }
    // Pass 2: each partition draws its count of root rows by local
    // weight and ships exactly those rows.
    let parts: Vec<Table> = {
        let rng = &mut rng;
        let counts = &counts;
        db.map_partitions(root_name, &mut |i, t| {
            let weights = local_weights(t).map_err(engine_err)?;
            let wtotal: f64 = weights.iter().sum();
            let picks: Vec<u32> = (0..counts.get(i).copied().unwrap_or(0))
                .map(|_| {
                    sample_weighted(rng, &weights, wtotal)
                        .map(|p| p as u32)
                        .ok_or_else(|| {
                            joinboost_engine::EngineError::Other(
                                "partition drew samples but carries no weight".into(),
                            )
                        })
                })
                .collect::<BackendResult<_>>()?;
            Ok(t.take(&picks))
        })
        .map_err(TrainError::from)?
    };
    // The sampled root rows: the partitions' picks, one after the other.
    let first = parts.first().ok_or_else(|| {
        TrainError::Invalid("backend reported no partitions for the root relation".into())
    })?;
    let mut sample = Table::new();
    for (ci, m) in first.meta.iter().enumerate() {
        let cols: Vec<&Column> = parts.iter().map(|p| &p.columns[ci]).collect();
        sample.push_column(ColumnMeta::new(m.name.clone()), Column::concat(&cols)?);
    }
    // Walk down the tree from every sampled root row, recording the row
    // drawn from each relation.
    let root_indexes: Vec<JoinIndex> = (children_of[root].iter())
        .map(|&c| {
            join_index(
                &sample,
                &prepared(c).table,
                graph.join_keys(root, c).expect("edge"),
            )
        })
        .collect::<Result<_>>()?;
    let mut picks: Vec<Vec<u32>> = vec![Vec::new(); nrel];
    picks[root] = (0..sample.num_rows() as u32).collect();
    let mut stack: Vec<(RelId, usize)> = Vec::new();
    for row in 0..sample.num_rows() {
        for (&c, index) in children_of[root].iter().zip(&root_indexes) {
            stack.push((c, draw(&mut rng, index.probe(row), prepared(c))? as usize));
        }
        while let Some((rel, at)) = stack.pop() {
            picks[rel].push(at as u32);
            for (c, index) in &prepared(rel).children {
                stack.push((*c, draw(&mut rng, index.probe(at), prepared(*c))? as usize));
            }
        }
    }
    // Output: union of columns, first occurrence per name.
    let mut out = Table::new();
    for (rel, _) in &order {
        let t = if *rel == root {
            &sample
        } else {
            &prepared(*rel).table
        };
        for (m, col) in t.meta.iter().zip(&t.columns) {
            if out
                .meta
                .iter()
                .any(|o| o.name.eq_ignore_ascii_case(&m.name))
            {
                continue;
            }
            out.push_column(ColumnMeta::new(m.name.clone()), col.take(&picks[*rel]));
        }
    }
    Ok(out)
}

/// Map a [`TrainError`] into the engine-error vocabulary the backend
/// partition closures speak.
fn engine_err(e: TrainError) -> joinboost_engine::EngineError {
    joinboost_engine::EngineError::Other(e.to_string())
}

/// Draw an index proportionally to `weights`. Zero-weight entries are
/// never returned (rounding in the running subtraction could otherwise
/// land the draw past the last positive weight); `None` when no entry
/// carries positive weight — including the empty slice.
fn sample_weighted(rng: &mut StdRng, weights: &[f64], total: f64) -> Option<usize> {
    let mut x = rng.random::<f64>() * total;
    let mut last_positive = None;
    for (i, &w) in weights.iter().enumerate() {
        if w > 0.0 {
            last_positive = Some(i);
            x -= w;
            if x <= 0.0 {
                return last_positive;
            }
        }
    }
    last_positive
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::{Column, DataType, Database, Datum};
    use joinboost_graph::Multiplicity;
    use std::collections::HashMap;

    /// R(A,B) — S(A,C): A=1 extends to 1×2=2 join tuples, A=2 to 2×1=2.
    fn setup() -> (Database, JoinGraph) {
        let db = Database::in_memory();
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2, 2])),
                ("b", Column::int(vec![10, 20, 21])),
            ]),
        )
        .unwrap();
        db.create_table(
            "s",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2])),
                ("c", Column::int(vec![100, 101, 102])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("r", &["b"]).unwrap();
        g.add_relation("s", &["c"]).unwrap();
        g.add_edge_with("r", "s", &["a"], Multiplicity::ManyToMany)
            .unwrap();
        (db, g)
    }

    #[test]
    fn sample_rows_are_valid_join_tuples() {
        let (db, g) = setup();
        let t = ancestral_sample(&db, &g, 0, 200, 7).unwrap();
        assert_eq!(t.num_rows(), 200);
        // Valid (b, c) combinations: b=10 with c∈{100,101}; b∈{20,21} with c=102.
        for i in 0..t.num_rows() {
            let b = t.column(None, "b").unwrap().get(i).as_i64().unwrap();
            let c = t.column(None, "c").unwrap().get(i).as_i64().unwrap();
            if b == 10 {
                assert!(c == 100 || c == 101);
            } else {
                assert_eq!(c, 102);
            }
        }
    }

    #[test]
    fn sampling_is_approximately_uniform_over_join_tuples() {
        let (db, g) = setup();
        // |R⋈| = 4 tuples, each probability 1/4.
        let n = 8000;
        let t = ancestral_sample(&db, &g, 0, n, 123).unwrap();
        let mut counts: HashMap<(i64, i64), usize> = HashMap::new();
        for i in 0..t.num_rows() {
            let b = t.column(None, "b").unwrap().get(i).as_i64().unwrap();
            let c = t.column(None, "c").unwrap().get(i).as_i64().unwrap();
            *counts.entry((b, c)).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 4, "all join tuples reachable");
        for (&k, &cnt) in &counts {
            let p = cnt as f64 / n as f64;
            assert!(
                (p - 0.25).abs() < 0.03,
                "tuple {k:?} frequency {p} far from uniform"
            );
        }
    }

    #[test]
    fn sharded_root_ships_samples_not_partitions() {
        use crate::backend::ShardedBackend;
        use joinboost_engine::EngineConfig;
        // Same R(A,B) ⋈ S(A,C) workload, with R hash-partitioned over 3
        // engines: samples must still be valid, uniform join tuples, and
        // the shuffle volume must stay proportional to the sample — the
        // partitions themselves never cross to the coordinator.
        let b = ShardedBackend::new(3, EngineConfig::duckdb_mem(), "r", "b");
        b.create_table(
            "r",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 2, 2])),
                ("b", Column::int(vec![10, 20, 21])),
            ]),
        )
        .unwrap();
        b.create_table(
            "s",
            Table::from_columns(vec![
                ("a", Column::int(vec![1, 1, 2])),
                ("c", Column::int(vec![100, 101, 102])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("r", &["b"]).unwrap();
        g.add_relation("s", &["c"]).unwrap();
        g.add_edge_with("r", "s", &["a"], Multiplicity::ManyToMany)
            .unwrap();
        let n = 8000;
        let before = b.stats().rows_shipped;
        let t = ancestral_sample(&b, &g, 0, n, 11).unwrap();
        let shipped = b.stats().rows_shipped - before;
        assert_eq!(t.num_rows(), n);
        // n sampled rows + one total row per partition pass; the 3-row
        // partitions stay put.
        assert!(
            shipped <= (n + 6) as u64,
            "sampling gathered whole partitions ({shipped} rows)"
        );
        let mut counts: HashMap<(i64, i64), usize> = HashMap::new();
        for i in 0..t.num_rows() {
            let b_ = t.column(None, "b").unwrap().get(i).as_i64().unwrap();
            let c = t.column(None, "c").unwrap().get(i).as_i64().unwrap();
            if b_ == 10 {
                assert!(c == 100 || c == 101);
            } else {
                assert_eq!(c, 102);
            }
            *counts.entry((b_, c)).or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 4, "all join tuples reachable");
        for (&k, &cnt) in &counts {
            let p = cnt as f64 / n as f64;
            assert!((p - 0.25).abs() < 0.03, "tuple {k:?} frequency {p}");
        }
    }

    #[test]
    fn seeded_samples_repeat_on_a_star_of_three_dimensions() {
        // Every dimension holds two rows per key, so each draw below the
        // fact consumes the generator and the draw order shows in the rows.
        let db = Database::in_memory();
        db.create_table(
            "fact",
            Table::from_columns(vec![
                ("k1", Column::int(vec![0, 1, 0, 1])),
                ("k2", Column::int(vec![0, 0, 1, 1])),
                ("k3", Column::int(vec![1, 0, 0, 1])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("fact", &[]).unwrap();
        for (dim, key, attr) in [("d1", "k1", "a"), ("d2", "k2", "b"), ("d3", "k3", "c")] {
            db.create_table(
                dim,
                Table::from_columns(vec![
                    (key, Column::int(vec![0, 0, 1, 1])),
                    (attr, Column::int(vec![10, 11, 12, 13])),
                ]),
            )
            .unwrap();
            g.add_relation(dim, &[attr]).unwrap();
            g.add_edge_with("fact", dim, &[key], Multiplicity::ManyToMany)
                .unwrap();
        }
        let first = ancestral_sample(&db, &g, 0, 50, 9).unwrap();
        for _ in 0..20 {
            assert_eq!(ancestral_sample(&db, &g, 0, 50, 9).unwrap(), first);
        }
    }

    #[test]
    fn null_join_keys_are_never_sampled() {
        // SQL joins no NULL key: `r JOIN s USING (a)` is the one tuple
        // (b=10, c=100), so the NULL-keyed rows can never be drawn.
        let db = Database::in_memory();
        let nullable = |vals: &[Option<i64>]| {
            Column::from_datums(
                DataType::Int,
                &vals
                    .iter()
                    .map(|v| v.map_or(Datum::Null, Datum::Int))
                    .collect::<Vec<_>>(),
            )
            .unwrap()
        };
        db.create_table(
            "r",
            Table::from_columns(vec![
                ("a", nullable(&[Some(1), None])),
                ("b", Column::int(vec![10, 30])),
            ]),
        )
        .unwrap();
        db.create_table(
            "s",
            Table::from_columns(vec![
                ("a", nullable(&[Some(1), None])),
                ("c", Column::int(vec![100, 103])),
            ]),
        )
        .unwrap();
        let joined = db
            .query("SELECT COUNT(*) AS n FROM r JOIN s USING (a)")
            .unwrap();
        assert_eq!(joined.scalar().unwrap(), Datum::Int(1));
        let mut g = JoinGraph::new();
        g.add_relation("r", &["b"]).unwrap();
        g.add_relation("s", &["c"]).unwrap();
        g.add_edge_with("r", "s", &["a"], Multiplicity::ManyToMany)
            .unwrap();
        for root in [0, 1] {
            let t = ancestral_sample(&db, &g, root, 100, 3).unwrap();
            for i in 0..t.num_rows() {
                assert_eq!(t.column(None, "b").unwrap().get(i), Datum::Int(10));
                assert_eq!(t.column(None, "c").unwrap().get(i), Datum::Int(100));
            }
        }
    }

    #[test]
    fn root_choice_does_not_bias() {
        let (db, g) = setup();
        let t = ancestral_sample(&db, &g, 1, 8000, 5).unwrap();
        let mut b10 = 0;
        for i in 0..t.num_rows() {
            if t.column(None, "b").unwrap().get(i).as_i64() == Some(10) {
                b10 += 1;
            }
        }
        // b=10 covers 2 of 4 join tuples → ~0.5.
        let p = b10 as f64 / 8000.0;
        assert!((p - 0.5).abs() < 0.03, "p = {p}");
    }
}
