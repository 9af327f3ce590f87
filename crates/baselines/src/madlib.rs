//! `MADLib`-like baseline: non-factorized training on a row-oriented
//! engine with tuple-at-a-time execution (Figure 16b).
//!
//! MADLib extends PostgreSQL with UDF-based training over the materialized
//! join: no factorization, row-at-a-time evaluation. We reproduce those
//! properties by (1) materializing the join and (2) training over the wide
//! table on an engine configured for row-oriented execution.

use std::time::Duration;

use joinboost::trainer::TrainStats;
use joinboost::tree::Tree;
use joinboost::{Dataset, TrainParams};
use joinboost_engine::{Database, EngineConfig};

/// Build a row-oriented database preloaded with the given tables
/// (PostgreSQL stand-in).
pub fn row_oriented_db(tables: &[(String, joinboost_engine::Table)]) -> Database {
    let db = Database::new(EngineConfig::dbms_x_row());
    for (name, t) in tables {
        db.create_table(name, t.clone()).expect("fresh database");
    }
    db
}

/// Train a decision tree the MADLib way over a dataset bound to a
/// row-oriented database: materialize the join, then train without
/// factorization, tuple at a time.
pub fn train_madlib_tree(
    set: &Dataset,
    params: &TrainParams,
) -> joinboost::Result<(Tree, TrainStats, Duration)> {
    crate::naive::train_naive_tree(set, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_datagen::{favorita, FavoritaConfig};

    #[test]
    fn madlib_path_trains_same_tree_but_slower_engine() {
        let gen = favorita(&FavoritaConfig {
            fact_rows: 600,
            dim_rows: 8,
            ..Default::default()
        });
        // Columnar reference.
        let col_db = Database::in_memory();
        gen.load_into(&col_db).unwrap();
        let col_set = Dataset::new(&col_db, gen.graph.clone(), "sales", "net_profit").unwrap();
        let params = TrainParams::default();
        let (col_tree, _) = joinboost::train_decision_tree(&col_set, &params).unwrap();

        // Row-oriented MADLib stand-in.
        let row_db = row_oriented_db(&gen.tables);
        let row_set = Dataset::new(&row_db, gen.graph.clone(), "sales", "net_profit").unwrap();
        let (row_tree, _, _) = train_madlib_tree(&row_set, &params).unwrap();
        // Identical structure — the `relation` label differs because the
        // wide table owns every feature after materialization.
        assert_eq!(col_tree.nodes.len(), row_tree.nodes.len());
        for (a, b) in col_tree.nodes.iter().zip(&row_tree.nodes) {
            assert_eq!(
                a.split.as_ref().map(|s| (&s.feature, &s.cond)),
                b.split.as_ref().map(|s| (&s.feature, &s.cond))
            );
            assert!((a.value - b.value).abs() < 1e-9);
            assert_eq!(a.weight, b.weight);
        }
    }
}
