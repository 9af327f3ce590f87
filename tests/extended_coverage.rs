//! Extended coverage: engine join edge cases, theta joins, binary
//! classification through the gradient semi-ring, depth-wise growth, and
//! the missing-join-key extension (Appendix B.1 / D.2).

#![allow(clippy::field_reassign_with_default)]

use joinboost::predict::{materialize_features, targets};
use joinboost::{train_decision_tree, train_gbm, Dataset, Growth, TrainParams};
use joinboost_datagen::{favorita, FavoritaConfig};
use joinboost_engine::{Column, DataType, Database, Datum, Table};
use joinboost_graph::JoinGraph;
use joinboost_semiring::Objective;

fn two_tables() -> Database {
    let db = Database::in_memory();
    db.create_table(
        "l",
        Table::from_columns(vec![
            ("k", Column::int(vec![1, 2, 3])),
            ("x", Column::int(vec![10, 20, 30])),
        ]),
    )
    .unwrap();
    db.create_table(
        "r",
        Table::from_columns(vec![
            ("k", Column::int(vec![2, 3, 4])),
            ("y", Column::int(vec![200, 300, 400])),
        ]),
    )
    .unwrap();
    db
}

#[test]
fn full_outer_join_keeps_both_sides() {
    let db = two_tables();
    let t = db
        .query("SELECT k, x, y FROM l FULL JOIN r USING (k) ORDER BY k")
        .unwrap();
    assert_eq!(t.num_rows(), 4);
    // k=1 has NULL y; k=4 has NULL x but a real merged key.
    assert_eq!(t.column(None, "k").unwrap().get(0), Datum::Int(1));
    assert_eq!(t.column(None, "y").unwrap().get(0), Datum::Null);
    assert_eq!(t.column(None, "k").unwrap().get(3), Datum::Int(4));
    assert_eq!(t.column(None, "x").unwrap().get(3), Datum::Null);
    assert_eq!(t.column(None, "y").unwrap().get(3), Datum::Int(400));
}

#[test]
fn theta_join_on_predicate() {
    let db = two_tables();
    // Inner join with an extra ON predicate (theta-join extension).
    let t = db
        .query("SELECT k, x, y FROM l JOIN r USING (k) ON y > 250 ORDER BY k")
        .unwrap();
    assert_eq!(t.num_rows(), 1);
    assert_eq!(t.column(None, "k").unwrap().get(0), Datum::Int(3));
}

#[test]
fn cross_product_via_bare_inner_join() {
    let db = two_tables();
    let t = db
        .query("SELECT COUNT(*) AS n FROM l JOIN r ON x + y > 0")
        .unwrap();
    assert_eq!(t.scalar_f64("n").unwrap(), 9.0, "3 x 3 nested-loop pairs");
}

#[test]
fn aggregates_ignore_nulls_and_count_star_does_not() {
    let db = Database::in_memory();
    db.create_table(
        "t",
        Table::from_columns(vec![(
            "v",
            Column::from_datums(
                DataType::Float,
                &[Datum::Float(1.0), Datum::Null, Datum::Float(3.0)],
            )
            .unwrap(),
        )]),
    )
    .unwrap();
    let r = db
        .query("SELECT COUNT(*) AS all_rows, COUNT(v) AS non_null, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi FROM t")
        .unwrap();
    assert_eq!(r.scalar_f64("all_rows").unwrap(), 3.0);
    assert_eq!(r.scalar_f64("non_null").unwrap(), 2.0);
    assert_eq!(r.scalar_f64("s").unwrap(), 4.0);
    assert_eq!(r.scalar_f64("a").unwrap(), 2.0);
    assert_eq!(r.scalar_f64("lo").unwrap(), 1.0);
    assert_eq!(r.scalar_f64("hi").unwrap(), 3.0);
}

#[test]
fn binary_classification_via_logistic_gbm() {
    // A separable binary target over a star schema: train with the
    // logistic objective (gradient semi-ring); accuracy must beat the
    // base rate.
    let db = Database::in_memory();
    let n = 2000;
    let keys: Vec<i64> = (0..n).map(|i| (i % 50) as i64).collect();
    let dim_f: Vec<i64> = (0..50).map(|d| d % 10).collect();
    let labels: Vec<f64> = keys
        .iter()
        .map(|&k| ((dim_f[k as usize] >= 5) as i64) as f64)
        .collect();
    db.create_table(
        "fact",
        Table::from_columns(vec![
            ("k", Column::int(keys)),
            ("label", Column::float(labels)),
        ]),
    )
    .unwrap();
    db.create_table(
        "dim",
        Table::from_columns(vec![
            ("k", Column::int((0..50).collect())),
            ("f", Column::int(dim_f)),
        ]),
    )
    .unwrap();
    let mut g = JoinGraph::new();
    g.add_relation("fact", &[]).unwrap();
    g.add_relation("dim", &["f"]).unwrap();
    g.add_edge("fact", "dim", &["k"]).unwrap();
    let set = Dataset::new(&db, g, "fact", "label").unwrap();
    let mut params = TrainParams::default();
    params.objective = Objective::Logistic;
    params.num_iterations = 20;
    params.learning_rate = 0.5;
    params.num_leaves = 4;
    let model = train_gbm(&set, &params).unwrap();
    let eval = materialize_features(&set).unwrap();
    let ys = targets(&eval).unwrap();
    let probs = model.predict(&eval);
    let correct = ys
        .iter()
        .zip(&probs)
        .filter(|(&y, &p)| (p >= 0.5) == (y >= 0.5))
        .count();
    let acc = correct as f64 / ys.len() as f64;
    assert!(acc > 0.95, "logistic GBM accuracy {acc}");
    // Probabilities are actual probabilities.
    assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
}

#[test]
fn depth_wise_growth_builds_balanced_trees() {
    let gen = favorita(&FavoritaConfig {
        fact_rows: 2000,
        dim_rows: 30,
        ..Default::default()
    });
    let db = Database::in_memory();
    gen.load_into(&db).unwrap();
    let set = Dataset::new(&db, gen.graph.clone(), "sales", "net_profit").unwrap();
    let mut params = TrainParams::default();
    params.growth = Growth::DepthWise;
    params.num_leaves = 8;
    let (tree, _) = train_decision_tree(&set, &params).unwrap();
    // Depth-wise with 8 leaves on rich data: depth stays at 3 (balanced),
    // while best-first may go deeper.
    assert!(tree.num_leaves() <= 8);
    assert!(
        tree.max_depth() <= 3,
        "depth-wise must stay balanced, got depth {}",
        tree.max_depth()
    );
}

#[test]
fn missing_join_keys_with_left_outer_materialization() {
    // A fact row referencing a missing dimension key: the engine's LEFT
    // JOIN keeps it with NULL features, and prediction routes it through
    // the split's default branch.
    let db = Database::in_memory();
    db.create_table(
        "fact",
        Table::from_columns(vec![
            ("k", Column::int(vec![1, 2, 99])), // 99 missing in dim
            ("y", Column::float(vec![1.0, 2.0, 3.0])),
        ]),
    )
    .unwrap();
    db.create_table(
        "dim",
        Table::from_columns(vec![
            ("k", Column::int(vec![1, 2])),
            ("f", Column::int(vec![10, 20])),
        ]),
    )
    .unwrap();
    let t = db
        .query("SELECT f, y FROM fact LEFT JOIN dim USING (k) ORDER BY y")
        .unwrap();
    assert_eq!(t.num_rows(), 3);
    assert_eq!(t.column(None, "f").unwrap().get(2), Datum::Null);
    // Training applies the identity-message optimization, which assumes
    // no missing join keys (paper footnote 2): the dangling fact row is
    // still counted (as if the dimension were left-outer-joined with NULL
    // features), so leaf weights cover all 3 rows.
    let mut g = JoinGraph::new();
    g.add_relation("fact", &[]).unwrap();
    g.add_relation("dim", &["f"]).unwrap();
    g.add_edge("fact", "dim", &["k"]).unwrap();
    let set = Dataset::new(&db, g, "fact", "y").unwrap();
    let (tree, _) = train_decision_tree(&set, &TrainParams::default()).unwrap();
    let leaf_weight: f64 = tree
        .nodes
        .iter()
        .filter(|n| n.split.is_none())
        .map(|n| n.weight)
        .sum();
    assert_eq!(
        leaf_weight, 3.0,
        "identity optimization keeps dangling rows (FK-integrity assumption)"
    );
}

#[test]
fn string_categorical_features_split_by_equality() {
    let db = Database::in_memory();
    db.create_table(
        "fact",
        Table::from_columns(vec![
            ("k", Column::int(vec![0, 0, 1, 1, 2, 2])),
            ("y", Column::float(vec![1.0, 1.2, 8.0, 8.2, 1.1, 0.9])),
        ]),
    )
    .unwrap();
    db.create_table(
        "dim",
        Table::from_columns(vec![
            ("k", Column::int(vec![0, 1, 2])),
            (
                "color",
                Column::str(vec!["red".into(), "green".into(), "blue".into()]),
            ),
        ]),
    )
    .unwrap();
    let mut g = JoinGraph::new();
    g.add_relation("fact", &[]).unwrap();
    g.add_relation("dim", &["color"]).unwrap();
    g.add_edge("fact", "dim", &["k"]).unwrap();
    let set = Dataset::new(&db, g, "fact", "y").unwrap();
    let mut params = TrainParams::default();
    params.num_leaves = 2;
    let (tree, _) = train_decision_tree(&set, &params).unwrap();
    let split = tree.nodes[0].split.as_ref().expect("must split");
    assert_eq!(split.feature, "color");
    assert_eq!(
        split.cond,
        joinboost::SplitCondition::EqStr("green".into()),
        "the green group (y≈8) separates best"
    );
    // Left leaf mean ≈ 8.1.
    let left = &tree.nodes[tree.nodes[0].left];
    assert!((left.value - 8.1).abs() < 1e-9);
}

#[test]
fn quoted_identifiers_and_case_insensitivity() {
    let db = Database::in_memory();
    db.create_table(
        "weird",
        Table::from_columns(vec![("My Col", Column::int(vec![1, 2]))]),
    )
    .unwrap();
    let t = db.query("SELECT SUM(\"My Col\") AS s FROM WEIRD").unwrap();
    assert_eq!(t.scalar_f64("s").unwrap(), 3.0);
}
