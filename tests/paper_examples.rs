//! The paper's worked examples, end to end across crates.

use joinboost::messages::{Factorizer, NodeContext, Pred};
use joinboost::sqlgen::RingKind;
use joinboost::tree::{Split, SplitCondition};
use joinboost::Dataset;
use joinboost_engine::{Column, Database, Datum, Table};
use joinboost_graph::{JoinGraph, Multiplicity};
use joinboost_semiring::{ring::SemiRing, VarianceRing};
use joinboost_sql::ast::Expr;

/// Figure 1's relations: R(A,B) with target B, S(A,C), T(A,D).
fn figure1_db() -> (Database, JoinGraph) {
    let db = Database::in_memory();
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
    (db, g)
}

#[test]
fn example_1_variance_is_4_without_materializing() {
    // Naive path: materialize R⋈ (8 rows) and compute the variance.
    let (db, g) = figure1_db();
    let joined = db
        .query("SELECT b FROM r JOIN s USING (a) JOIN t USING (a)")
        .unwrap();
    assert_eq!(joined.num_rows(), 8, "Figure 1b join has 8 tuples");
    let agg = db
        .query(
            "SELECT COUNT(*) AS c, SUM(b) AS s, SUM(b * b) AS q \
             FROM r JOIN s USING (a) JOIN t USING (a)",
        )
        .unwrap();
    let (c, s, q) = (
        agg.scalar_f64("c").unwrap(),
        agg.scalar_f64("s").unwrap(),
        agg.scalar_f64("q").unwrap(),
    );
    assert_eq!((c, s, q), (8.0, 16.0, 36.0), "γ(R⋈) = (8, 16, 36)");
    assert_eq!(q - s * s / c, 4.0, "variance = Q − S²/C = 4");

    // Factorized path: message passing computes (8, 16) with no join.
    let set = Dataset::new(&db, g, "r", "b").unwrap();
    let mut fx = Factorizer::new(&set, RingKind::Variance);
    fx.set_annotation(set.target_rel(), vec![Expr::int(1), Expr::col("b")]);
    let (fc, fs) = fx.totals(set.target_rel(), &NodeContext::root()).unwrap();
    assert_eq!((fc, fs), (8.0, 16.0));
}

#[test]
fn example_4_update_relation_via_add_to_mul() {
    // Figure 2: the tree (σ_{D≤1}, p=2.5), (σ_{D>1 ∧ C≤1}, p=1.5),
    // (σ_{D>1 ∧ C>1}, p=2). The residual-lifted annotations of the
    // materialized join must equal lift(y) ⊗ lift(−p), leaf by leaf.
    let ring = VarianceRing;
    type LeafPred = fn(i64, i64) -> bool;
    let leaves: [(f64, LeafPred); 3] = [
        (2.5, |_c, d| d <= 1),
        (1.5, |c, d| d > 1 && c <= 1),
        (2.0, |c, d| d > 1 && c > 1),
    ];
    let (db, _) = figure1_db();
    let joined = db
        .query("SELECT b, c, d FROM r JOIN s USING (a) JOIN t USING (a)")
        .unwrap();
    for i in 0..joined.num_rows() {
        let y = joined.column(None, "b").unwrap().f64_at(i).unwrap();
        let c = joined.column(None, "c").unwrap().get(i).as_i64().unwrap();
        let d = joined.column(None, "d").unwrap().get(i).as_i64().unwrap();
        let p = leaves.iter().find(|(_, m)| m(c, d)).expect("exhaustive").0;
        // Naive: lift the materialized residual.
        let naive = ring.lift(y - p);
        // Factorized: lift(y) ⊗ lift(−p) (Proposition 4.1).
        let fact = ring.mul(&ring.lift(y), &ring.lift(-p));
        for (a, b) in naive.iter().zip(&fact) {
            assert!((a - b).abs() < 1e-9, "row {i}: {naive:?} != {fact:?}");
        }
    }
}

#[test]
fn example_3_and_7_message_sharing_between_queries_and_nodes() {
    // γ_C and γ_D share the message m_{R→S}; after a split on D (in T),
    // messages from R's side are reused by both children.
    let (db, g) = figure1_db();
    let set = Dataset::new(&db, g, "r", "b").unwrap();
    let mut fx = Factorizer::new(&set, RingKind::Variance);
    fx.set_annotation(set.target_rel(), vec![Expr::int(1), Expr::col("b")]);
    let s_rel = set.graph.rel_id("s").unwrap();
    let t_rel = set.graph.rel_id("t").unwrap();
    let ctx = NodeContext::root();
    let _gc = fx.absorb(s_rel, None, &ctx).unwrap();
    let after_c = fx.stats.message_queries;
    let _gd = fx.absorb(t_rel, None, &ctx).unwrap();
    let after_d = fx.stats.message_queries;
    // γ_D needed m_{S→T}, but reused m_{R→S} from γ_C: exactly one new
    // message (Example 3's reusable message m1).
    assert_eq!(after_d - after_c, 1);

    // Example 7: a split's predicate invalidates exactly the messages on
    // the path from its relation to the root T. On D (in T) both R→S and
    // S→T flow *away* from it and hit the cache; on C (in S) only S→T is
    // recomputed; on B (in R) both are.
    let r_rel = set.graph.rel_id("r").unwrap();
    let edges = [(r_rel, s_rel), (s_rel, t_rel)];
    let handles = |fx: &mut Factorizer, ctx: &NodeContext| {
        edges.map(|(from, to)| format!("{:?}", fx.message(from, to, ctx).unwrap()))
    };
    let at_root = handles(&mut fx, &ctx);
    for (rel, feature, recomputed) in [
        ("t", "d", [false, false]),
        ("s", "c", [false, true]),
        ("r", "b", [true, true]),
    ] {
        let split = Split {
            feature: feature.into(),
            relation: rel.into(),
            cond: SplitCondition::LtEq(1.0),
            default_left: false,
        };
        let child = ctx.with_pred(
            set.graph.rel_id(rel).unwrap(),
            Pred::from_split(&split, false),
        );
        let before = fx.stats.message_queries;
        let _ = fx.absorb(t_rel, None, &child).unwrap();
        let new_msgs = fx.stats.message_queries - before;
        let in_child = handles(&mut fx, &child);
        let changed = [0, 1].map(|i| in_child[i] != at_root[i]);
        assert_eq!(changed, recomputed, "split on {rel}.{feature}");
        let want = recomputed.iter().filter(|&&r| r).count() as u64;
        assert_eq!(new_msgs, want, "split on {rel}.{feature}");
    }
    assert!(fx.stats.cache_hits > 0);
}

#[test]
fn engine_backends_agree_on_query_results() {
    // Same SQL on columnar, row, compressed and disk-backed engines.
    use joinboost_engine::EngineConfig;
    let queries = [
        "SELECT a, SUM(b) AS s, COUNT(*) AS c FROM r GROUP BY a ORDER BY a",
        "SELECT c, SUM(b) AS s FROM r JOIN s USING (a) GROUP BY c ORDER BY c",
        "SELECT COUNT(*) AS n FROM r JOIN s USING (a) JOIN t USING (a) WHERE d > 1",
        "SELECT a FROM r WHERE b IN (2.0, 3.0) GROUP BY a ORDER BY a",
    ];
    let configs = [
        EngineConfig::duckdb_mem(),
        EngineConfig::dbms_x_row(),
        EngineConfig::duckdb_disk(),
        EngineConfig::d_swap(),
    ];
    let mut reference: Vec<Option<Vec<Vec<Datum>>>> = vec![None; queries.len()];
    for config in configs {
        let db = Database::new(config);
        let (src, _) = figure1_db();
        for name in ["r", "s", "t"] {
            db.create_table(name, src.snapshot(name).unwrap()).unwrap();
        }
        for (qi, q) in queries.iter().enumerate() {
            let t = db.query(q).unwrap();
            let rows: Vec<Vec<Datum>> = (0..t.num_rows()).map(|i| t.row(i)).collect();
            match &reference[qi] {
                None => reference[qi] = Some(rows),
                Some(r) => {
                    assert_eq!(r.len(), rows.len(), "query {q}");
                    for (a, b) in r.iter().zip(&rows) {
                        for (x, y) in a.iter().zip(b) {
                            assert_eq!(x.as_f64(), y.as_f64(), "query {q}");
                        }
                    }
                }
            }
        }
    }
}
