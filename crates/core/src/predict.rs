//! Applying trained models: feature materialization for evaluation,
//! ensemble prediction, and metrics.
//!
//! Training never materializes the join — but *evaluating* a model on the
//! denormalized data requires the feature values per joined tuple. For
//! tests and accuracy reporting we materialize `R⋈` (or a sample of it)
//! with one SPJA query; real deployments would push prediction into SQL
//! the same way training pushes split evaluation.

use joinboost_engine::{Datum, Table};
use joinboost_sql::ast::{Expr, Join, JoinKind, Query, SelectItem, Statement, TableRef};

use crate::dataset::Dataset;
use crate::error::{Result, TrainError};
use crate::tree::{FeatureRow, Tree};

/// One row of a materialized table viewed as a feature row.
pub struct TableRow<'a> {
    /// The materialized feature table.
    pub table: &'a Table,
    /// Row index within the table.
    pub index: usize,
}

impl FeatureRow for TableRow<'_> {
    fn feature(&self, name: &str) -> Option<Datum> {
        let i = self.table.resolve(None, name).ok()?;
        let v = self.table.columns[i].get(self.index);
        if v.is_null() {
            None
        } else {
            Some(v)
        }
    }
}

/// The SPJA query materializing the full join with all features plus the
/// target column (aliased `jb_target`). Joins follow a BFS order from the
/// target relation so each join key is in scope.
pub fn features_query(set: &Dataset) -> Query {
    let g = &set.graph;
    let root = set.target_rel();
    let order = g.sampling_order(root);
    let mut items: Vec<SelectItem> = Vec::new();
    for (feat, _) in set.features() {
        items.push(SelectItem::new(Expr::col(feat)));
    }
    items.push(SelectItem::aliased(
        Expr::qcol(g.name(root), set.target_column.clone()),
        "jb_target",
    ));
    let mut q = Query {
        items,
        from: Some(TableRef::named(g.name(root))),
        ..Default::default()
    };
    for (rel, keys) in order.iter().skip(1) {
        q.joins.push(Join {
            kind: JoinKind::Inner,
            table: TableRef::named(g.name(*rel)),
            using: keys.clone(),
            on: None,
        });
    }
    q
}

/// Execute [`features_query`], returning the denormalized table.
pub fn materialize_features(set: &Dataset) -> Result<Table> {
    set.run(&Statement::Select(features_query(set)))
}

/// Raw additive prediction of a boosted ensemble for every row of a
/// materialized feature table: `init + lr · Σ tree(x)`.
///
/// Crate-internal: the public entry points are
/// [`GbmModel::score`](crate::boosting::GbmModel::score) (and the
/// [`Scorer`](crate::serve::Scorer) trait for per-key serving).
pub(crate) fn predict_boosted(
    trees: &[Tree],
    init_score: f64,
    learning_rate: f64,
    table: &Table,
) -> Vec<f64> {
    let n = table.num_rows();
    let mut out = vec![init_score; n];
    for tree in trees {
        for (i, o) in out.iter_mut().enumerate() {
            *o += learning_rate * tree.predict(&TableRow { table, index: i });
        }
    }
    out
}

/// Averaged prediction of a bagged ensemble (random forest).
///
/// Crate-internal: the public entry point is
/// [`RfModel::score`](crate::forest::RfModel::score).
pub(crate) fn predict_bagged(trees: &[Tree], table: &Table) -> Vec<f64> {
    let n = table.num_rows();
    let mut out = vec![0.0; n];
    if trees.is_empty() {
        return out;
    }
    for tree in trees {
        for (i, o) in out.iter_mut().enumerate() {
            *o += tree.predict(&TableRow { table, index: i });
        }
    }
    for o in &mut out {
        *o /= trees.len() as f64;
    }
    out
}

/// Extract the target column from a table produced by
/// [`materialize_features`].
pub fn targets(table: &Table) -> Result<Vec<f64>> {
    table
        .column(None, "jb_target")
        .map_err(TrainError::from)?
        .to_f64_vec()
        .map_err(TrainError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_engine::{Column, Database, Table as ETable};
    use joinboost_graph::JoinGraph;

    #[test]
    fn materializes_star_features() {
        let db = Database::in_memory();
        db.create_table(
            "fact",
            ETable::from_columns(vec![
                ("k", Column::int(vec![1, 1, 2])),
                ("y", Column::float(vec![1.0, 2.0, 3.0])),
            ]),
        )
        .unwrap();
        db.create_table(
            "dim",
            ETable::from_columns(vec![
                ("k", Column::int(vec![1, 2])),
                ("f", Column::int(vec![10, 20])),
            ]),
        )
        .unwrap();
        let mut g = JoinGraph::new();
        g.add_relation("fact", &[]).unwrap();
        g.add_relation("dim", &["f"]).unwrap();
        g.add_edge("fact", "dim", &["k"]).unwrap();
        let set = Dataset::new(&db, g, "fact", "y").unwrap();
        let t = materialize_features(&set).unwrap();
        assert_eq!(t.num_rows(), 3);
        let ys = targets(&t).unwrap();
        assert_eq!(ys.iter().sum::<f64>(), 6.0);
        let row = TableRow {
            table: &t,
            index: 2,
        };
        assert_eq!(row.feature("f"), Some(Datum::Int(20)));
    }

    #[test]
    fn boosted_and_bagged_prediction() {
        let t = ETable::from_columns(vec![("f", Column::float(vec![1.0, 5.0]))]);
        let leafy = |v: f64| Tree::single_leaf(v, 1.0);
        let boosted = predict_boosted(&[leafy(1.0), leafy(2.0)], 10.0, 0.5, &t);
        assert_eq!(boosted, vec![11.5, 11.5]);
        let bagged = predict_bagged(&[leafy(1.0), leafy(3.0)], &t);
        assert_eq!(bagged, vec![2.0, 2.0]);
        assert_eq!(predict_bagged(&[], &t), vec![0.0, 0.0]);
    }
}
