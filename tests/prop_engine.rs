//! Property tests on the engine: row mode, compression, WAL, and the
//! factorized totals must never change query answers.

use proptest::prelude::*;

use joinboost::messages::{Factorizer, NodeContext};
use joinboost::sqlgen::RingKind;
use joinboost::Dataset;
use joinboost_engine::{Column, DataType, Database, EngineConfig, Table};
use joinboost_graph::JoinGraph;
use joinboost_sql::ast::Expr;

/// A random star: fact(k, y) with a dim(k, f).
#[derive(Debug, Clone)]
struct StarData {
    fact_keys: Vec<i64>,
    ys: Vec<f64>,
    dim_f: Vec<i64>,
}

fn arb_star() -> impl Strategy<Value = StarData> {
    (1usize..8).prop_flat_map(|dim_n| {
        (
            prop::collection::vec(0..dim_n as i64, 1..60),
            prop::collection::vec(-50.0f64..50.0, 60),
            prop::collection::vec(0i64..5, dim_n),
        )
            .prop_map(|(fact_keys, ys, dim_f)| {
                let n = fact_keys.len();
                StarData {
                    fact_keys,
                    ys: ys[..n].to_vec(),
                    dim_f,
                }
            })
    })
}

fn load_star(db: &Database, data: &StarData) {
    db.create_table(
        "fact",
        Table::from_columns(vec![
            ("k", Column::int(data.fact_keys.clone())),
            ("y", Column::float(data.ys.clone())),
        ]),
    )
    .unwrap();
    db.create_table(
        "dim",
        Table::from_columns(vec![
            ("k", Column::int((0..data.dim_f.len() as i64).collect())),
            ("f", Column::int(data.dim_f.clone())),
        ]),
    )
    .unwrap();
}

/// Rows for randomized grouped queries: NULL-able int key, NULL-able
/// string key, float value. Sizes include the empty table.
#[derive(Debug, Clone)]
struct GroupedData {
    rows: Vec<(Option<i64>, Option<u8>, f64)>,
}

fn arb_grouped() -> impl Strategy<Value = GroupedData> {
    prop::collection::vec(
        (
            prop::option::of(-3i64..3),
            prop::option::of(0u8..4),
            -100.0f64..100.0,
        ),
        0..50,
    )
    .prop_map(|rows| GroupedData { rows })
}

fn load_grouped(db: &Database, data: &GroupedData) {
    use joinboost_engine::Datum;
    let k: Vec<Datum> = data
        .rows
        .iter()
        .map(|(k, _, _)| k.map_or(Datum::Null, Datum::Int))
        .collect();
    let ks: Vec<Datum> = data
        .rows
        .iter()
        .map(|(_, s, _)| s.map_or(Datum::Null, |v| Datum::Str(format!("s{v}"))))
        .collect();
    let v: Vec<Datum> = data.rows.iter().map(|(_, _, v)| Datum::Float(*v)).collect();
    db.create_table(
        "t",
        Table::from_columns(vec![
            ("k", Column::from_datums(DataType::Int, &k).unwrap()),
            ("ks", Column::from_datums(DataType::Str, &ks).unwrap()),
            ("v", Column::from_datums(DataType::Float, &v).unwrap()),
        ]),
    )
    .unwrap();
}

fn star_graph() -> JoinGraph {
    let mut g = JoinGraph::new();
    g.add_relation("fact", &[]).unwrap();
    g.add_relation("dim", &["f"]).unwrap();
    g.add_edge("fact", "dim", &["k"]).unwrap();
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Factorized totals equal the aggregate over the materialized join,
    /// for every random star instance.
    #[test]
    fn factorized_totals_match_naive_join(data in arb_star()) {
        let db = Database::in_memory();
        load_star(&db, &data);
        let naive = db
            .query("SELECT COUNT(*) AS c, SUM(y) AS s FROM fact JOIN dim USING (k)")
            .unwrap();
        let nc = naive.scalar_f64("c").unwrap_or(0.0);
        let ns = naive.scalar_f64("s").unwrap_or(0.0);
        let set = Dataset::new(&db, star_graph(), "fact", "y").unwrap();
        let mut fx = Factorizer::new(&set, RingKind::Variance);
        fx.set_annotation(set.target_rel(), vec![Expr::int(1), Expr::col("y")]);
        let (fc, fs) = fx.totals(set.target_rel(), &NodeContext::root()).unwrap();
        prop_assert!((fc - nc).abs() < 1e-9);
        prop_assert!((fs - ns).abs() < 1e-6 * (1.0 + ns.abs()));
    }

    /// Row-mode execution and every storage configuration return the same
    /// aggregate answers, in columns of the same types, as the default
    /// columnar engine.
    #[test]
    fn engine_configurations_agree(data in arb_star()) {
        let sqls = [
            "SELECT f, COUNT(*) AS c, SUM(y) AS s FROM fact JOIN dim USING (k) GROUP BY f ORDER BY f",
            "SELECT COUNT(*) AS c FROM fact WHERE y > 0.0",
        ];
        let mut reference: Vec<Option<Vec<Vec<Option<f64>>>>> = vec![None; sqls.len()];
        let mut reference_types: Vec<Option<Vec<DataType>>> = vec![None; sqls.len()];
        for config in [
            EngineConfig::duckdb_mem(),
            EngineConfig::dbms_x_row(),
            EngineConfig {
                compression: false,
                ..EngineConfig::duckdb_mem()
            },
            EngineConfig::duckdb_disk(),
        ] {
            let db = Database::new(config);
            load_star(&db, &data);
            for (qi, sql) in sqls.iter().enumerate() {
                let t = db.query(sql).unwrap();
                let types = t.columns.iter().map(Column::dtype).collect();
                match &reference_types[qi] {
                    None => reference_types[qi] = Some(types),
                    Some(r) => prop_assert_eq!(r, &types, "{}", sql),
                }
                let rows: Vec<Vec<Option<f64>>> = (0..t.num_rows())
                    .map(|i| t.columns.iter().map(|c| c.f64_at(i)).collect())
                    .collect();
                match &reference[qi] {
                    None => reference[qi] = Some(rows),
                    Some(r) => {
                        prop_assert_eq!(r.len(), rows.len());
                        for (a, b) in r.iter().zip(&rows) {
                            for (x, y) in a.iter().zip(b) {
                                match (x, y) {
                                    (Some(x), Some(y)) => prop_assert!((x - y).abs() < 1e-9),
                                    (a, b) => prop_assert_eq!(a, b),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Randomized grouped queries (NULL-able int keys, string keys,
    /// ORDER BY + LIMIT, empty inputs): columnar vs row execution must
    /// agree on every column's type and values, and uncompressed columnar
    /// storage must match compressed bit for bit.
    #[test]
    fn grouped_queries_agree_across_modes(data in arb_grouped()) {
        let sqls = [
            // The sqlgen shape: one SUM per ring component over two keys.
            "SELECT k, ks, COUNT(*) AS c, SUM(v) AS s, SUM(v * v) AS q \
             FROM t GROUP BY k, ks ORDER BY k, ks",
            // MIN/MAX and AVG share the fused pass.
            "SELECT ks, MIN(v) AS lo, MAX(v) AS hi, AVG(v) AS m \
             FROM t GROUP BY ks ORDER BY ks",
            // Top-k pushdown (split-query winner selection).
            "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC LIMIT 1",
            // LIMIT 0 and prefix-truncation LIMIT without ORDER BY.
            "SELECT k, v FROM t LIMIT 0",
            "SELECT k, v FROM t LIMIT 3",
        ];
        let reference = Database::new(EngineConfig::duckdb_mem());
        load_grouped(&reference, &data);
        for (config, exact) in [
            (EngineConfig::dbms_x_row(), false),
            (EngineConfig { compression: false, ..EngineConfig::duckdb_mem() }, true),
        ] {
            let db = Database::new(config);
            load_grouped(&db, &data);
            for sql in sqls {
                let want = reference.query(sql).unwrap();
                let got = db.query(sql).unwrap();
                prop_assert_eq!(want.num_rows(), got.num_rows(), "{}", sql);
                prop_assert_eq!(want.num_columns(), got.num_columns(), "{}", sql);
                for col in 0..want.num_columns() {
                    let types = (want.columns[col].dtype(), got.columns[col].dtype());
                    prop_assert_eq!(types.0, types.1, "{} col {}", sql, col);
                    for row in 0..want.num_rows() {
                        let (a, b) = (want.columns[col].get(row), got.columns[col].get(row));
                        match (a, b) {
                            (joinboost_engine::Datum::Float(x), joinboost_engine::Datum::Float(y))
                                if exact =>
                            {
                                prop_assert_eq!(
                                    x.to_bits(), y.to_bits(),
                                    "{} col {} row {}: {} vs {}", sql, col, row, x, y
                                );
                            }
                            (joinboost_engine::Datum::Float(x), joinboost_engine::Datum::Float(y)) => {
                                prop_assert!((x - y).abs() < 1e-9, "{} col {} row {}", sql, col, row);
                            }
                            (a, b) => prop_assert_eq!(a, b, "{} col {} row {}", sql, col, row),
                        }
                    }
                }
            }
        }
    }

    /// UPDATE must agree with a recomputed CREATE TABLE projection.
    #[test]
    fn update_equals_projection(data in arb_star(), delta in -5.0f64..5.0) {
        let db = Database::in_memory();
        load_star(&db, &data);
        db.execute(&format!(
            "CREATE TABLE want AS SELECT k, CASE WHEN k <= 2 THEN y - {delta} ELSE y END AS y FROM fact"
        ))
        .unwrap();
        db.execute(&format!("UPDATE fact SET y = y - {delta} WHERE k <= 2"))
            .unwrap();
        let got = db.query("SELECT SUM(y) AS s FROM fact").unwrap();
        let want = db.query("SELECT SUM(y) AS s FROM want").unwrap();
        let (g, w) = (
            got.scalar_f64("s").unwrap_or(0.0),
            want.scalar_f64("s").unwrap_or(0.0),
        );
        prop_assert!((g - w).abs() < 1e-6 * (1.0 + w.abs()));
    }
}

// ---------------------------------------------------------------------------
// Differential test: generated queries against a naive row-at-a-time oracle
// ---------------------------------------------------------------------------
//
// The queries are the shapes `sqlgen` emits (message, residual update,
// split source) plus the ones a column-pruned, selection-vector executor
// could get wrong: the same column name on both join sides qualified and
// unqualified, aliases, `SELECT *`, `FROM (subquery)`, NULL keys on either
// side of a `SEMI JOIN`, string and float keys, int key ranges one bit
// either side of the direct-address limit, empty and full selections,
// `NOT IN`, `IN` subqueries that return NULLs, all six comparisons on
// NULL-able and `-0.0`-bearing columns (against literals of either numeric
// type and against columns), and `WHERE`s nesting `AND`/`OR`/`NOT`. The
// oracle below reads full `snapshot()`s, loops over rows and evaluates
// predicates in three-valued logic; it shares no code with the engine's
// operators.

use joinboost_engine::Datum;

/// Int key values whose spread decides whether a key set over them is a
/// direct-address bitmap (span + NULL code within 16 bits) or hashed.
const BIGS: [i64; 6] = [0, 1, (1 << 16) - 3, (1 << 16) - 2, (1 << 16) - 1, 1 << 16];
const XS: [f64; 5] = [0.0, -0.0, 0.5, 1.5, -2.25];
const SS: [&str; 4] = ["a", "b", "c", "d"];

/// `f(k, big, s, x, v, pad_i, pad_s)` and `d(k, big, s, x, g, v)`: every
/// key column exists on both sides under the same name, `v` too; the pads
/// are never referenced. Values (`v`, in quarters) are dyadic, so every
/// sum is exact and personalities can be compared for equality.
/// The key columns of one row: `k`, and indexes into `BIGS`, `SS`, `XS`.
type Keys = (Option<i64>, usize, Option<usize>, usize);

#[derive(Debug, Clone)]
struct DiffData {
    /// `(keys, v)` per row of `f`.
    f: Vec<(Keys, i8)>,
    /// `(keys, g, v)` per row of `d`.
    d: Vec<(Keys, Option<i64>, i8)>,
    picks: Vec<u32>,
}

fn arb_diff() -> impl Strategy<Value = DiffData> {
    let keys = || {
        (
            prop::option::of(0i64..6),
            0usize..BIGS.len(),
            prop::option::of(0usize..SS.len()),
            0usize..XS.len(),
        )
    };
    (
        prop::collection::vec((keys(), -32i8..32), 0..40),
        prop::collection::vec((keys(), prop::option::of(0i64..5), -32i8..32), 0..12),
        prop::collection::vec(0u32..1_000_000, 64),
    )
        .prop_map(|(f, d, picks)| DiffData { f, d, picks })
}

fn diff_tables(data: &DiffData) -> (Table, Table) {
    use DataType::{Float, Int, Str};
    let int = |v: Option<i64>| v.map_or(Datum::Null, Datum::Int);
    let col = |dtype: DataType, vals: Vec<Datum>| Column::from_datums(dtype, &vals).unwrap();
    let key_cols = |keys: Vec<Keys>| -> Vec<(&'static str, Column)> {
        let str = |v: Option<usize>| v.map_or(Datum::Null, |i| Datum::Str(SS[i].to_string()));
        vec![
            ("k", col(Int, keys.iter().map(|r| int(r.0)).collect())),
            (
                "big",
                col(Int, keys.iter().map(|r| Datum::Int(BIGS[r.1])).collect()),
            ),
            ("s", col(Str, keys.iter().map(|r| str(r.2)).collect())),
            (
                "x",
                col(Float, keys.iter().map(|r| Datum::Float(XS[r.3])).collect()),
            ),
        ]
    };
    let quarters = |v: i8| Datum::Float(v as f64 * 0.25);
    let n = data.f.len();
    let mut f = key_cols(data.f.iter().map(|r| r.0).collect());
    f.push((
        "v",
        col(Float, data.f.iter().map(|r| quarters(r.1)).collect()),
    ));
    f.push((
        "pad_i",
        col(Int, (0..n).map(|i| Datum::Int(i as i64 * 7)).collect()),
    ));
    f.push((
        "pad_s",
        col(
            Str,
            (0..n).map(|i| Datum::Str(format!("p{}", i % 3))).collect(),
        ),
    ));
    let mut d = key_cols(data.d.iter().map(|r| r.0).collect());
    d.push(("g", col(Int, data.d.iter().map(|r| int(r.1)).collect())));
    d.push((
        "v",
        col(Float, data.d.iter().map(|r| quarters(r.2)).collect()),
    ));
    (Table::from_columns(f), Table::from_columns(d))
}

#[derive(Debug, Clone, Copy)]
enum Key {
    K,
    Big,
    S,
    X,
    KAndS,
}

impl Key {
    fn cols(self) -> &'static [&'static str] {
        match self {
            Key::K => &["k"],
            Key::Big => &["big"],
            Key::S => &["s"],
            Key::X => &["x"],
            Key::KAndS => &["k", "s"],
        }
    }
}

/// Right side of a `SEMI JOIN`: `d`, or the `d` rows with `g <= t` as a
/// derived table.
#[derive(Debug, Clone, Copy)]
enum Right {
    Dim,
    DimWhere(i64),
}

#[derive(Debug, Clone)]
enum Pred {
    VGt(i8),
    KNotNull,
    KIn(Vec<i64>, bool),
    SIn(Vec<usize>),
    /// Keeps every row / no row.
    Const(bool),
    /// `<col> [NOT] IN (SELECT <col> FROM d WHERE g <= t)`; `d`'s key
    /// columns are NULL-able, so the subquery returns NULLs.
    InSub(&'static str, i64, bool),
    /// `<lhs> <op> <rhs>`, `op` an index into `CMP_OPS`.
    Cmp(usize, Side, Side),
    Not(Box<Pred>),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
}

/// A comparison operand: a column of `f` or a literal.
#[derive(Debug, Clone, Copy)]
enum Side {
    Col(&'static str),
    Int(i64),
    Float(f64),
}

const CMP_OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

#[derive(Debug, Clone)]
enum Shape {
    /// `SELECT g, SUM(1), COUNT(*), SUM(v) FROM f SEMI JOIN .. GROUP BY g`.
    Message { group: Key, alias: bool },
    /// `SELECT * FROM f SEMI JOIN ..`.
    Star,
    /// The residual update's projection: a `CASE` of `IN (SELECT ..)`s,
    /// one of them spelled out twice.
    Residual { t: [i64; 3] },
    /// `FROM (subquery) AS q SEMI JOIN ..`.
    Derived { c: i8 },
    /// `f JOIN d USING (k)` reading `v` from both sides by qualifier.
    Inner { aliased: bool, agg: bool },
}

#[derive(Debug, Clone)]
struct Spec {
    shape: Shape,
    semis: Vec<(Key, Right)>,
    pred: Option<Pred>,
}

struct Picks<'a>(std::slice::Iter<'a, u32>);

impl Picks<'_> {
    fn below(&mut self, n: u32) -> u32 {
        self.0.next().copied().unwrap_or(0) % n
    }

    fn flip(&mut self) -> bool {
        self.below(2) == 1
    }

    fn key(&mut self, multi: bool) -> Key {
        let all = [Key::K, Key::Big, Key::S, Key::X, Key::KAndS];
        all[self.below(if multi { 5 } else { 4 }) as usize]
    }

    fn semis(&mut self) -> Vec<(Key, Right)> {
        (0..self.below(3))
            .map(|_| {
                let right = match self.flip() {
                    true => Right::Dim,
                    false => Right::DimWhere(self.below(5) as i64),
                };
                (self.key(true), right)
            })
            .collect()
    }

    fn pred(&mut self) -> Option<Pred> {
        match self.below(10) {
            0 => None,
            _ => Some(self.pred_at(2)),
        }
    }

    /// A predicate nested at most `depth` deep in `AND`/`OR`/`NOT`.
    fn pred_at(&mut self, depth: u32) -> Pred {
        let boxed = |p: &mut Self| Box::new(p.pred_at(depth - 1));
        match self.below(if depth == 0 { 11 } else { 14 }) {
            0 => Pred::VGt(self.below(64) as i8 - 32),
            1 => Pred::KNotNull,
            2 => Pred::KIn(vec![1, 3, self.below(6) as i64], self.flip()),
            3 => Pred::SIn(vec![self.below(4) as usize, 0]),
            4 => Pred::Const(self.flip()),
            5 => Pred::InSub("k", self.below(5) as i64, self.flip()),
            6 => Pred::InSub("big", self.below(5) as i64, self.flip()),
            7 => Pred::InSub("s", self.below(5) as i64, self.flip()),
            8..=10 => self.cmp(),
            11 => Pred::Not(boxed(self)),
            12 => Pred::And(boxed(self), boxed(self)),
            _ => Pred::Or(boxed(self), boxed(self)),
        }
    }

    /// A comparison under any of the six operators: nullable `k` and
    /// float `x` (which holds `-0.0`) against literals of their own type,
    /// `Int` columns against `Float` literals, columns against columns,
    /// and a literal on the left.
    fn cmp(&mut self) -> Pred {
        let op = self.below(6) as usize;
        let (lhs, rhs) = match self.below(7) {
            0 => (Side::Col("k"), Side::Int(self.below(7) as i64 - 1)),
            1 => (Side::Col("x"), Side::Float(XS[self.below(5) as usize])),
            2 => (
                Side::Col("k"),
                Side::Float([-0.0, 1.5, 3.0, 4.5][self.below(4) as usize]),
            ),
            3 => (Side::Col("big"), Side::Float(65533.5)),
            4 => (Side::Col("k"), Side::Col("x")),
            5 => (Side::Col("x"), Side::Col("v")),
            _ => (Side::Int(self.below(6) as i64), Side::Col("k")),
        };
        Pred::Cmp(op, lhs, rhs)
    }
}

/// One query of every shape, parameters drawn from `picks`.
fn specs(picks: &[u32]) -> Vec<Spec> {
    let mut p = Picks(picks.iter());
    let mut out = Vec::new();
    for shape in 0..5 {
        let shape = match shape {
            0 => Shape::Message {
                group: p.key(false),
                alias: p.flip(),
            },
            1 => Shape::Star,
            2 => Shape::Residual {
                t: [p.below(5) as i64, p.below(5) as i64, p.below(5) as i64],
            },
            3 => Shape::Derived {
                c: p.below(64) as i8 - 32,
            },
            _ => Shape::Inner {
                aliased: p.flip(),
                agg: p.flip(),
            },
        };
        let semis = match shape {
            Shape::Residual { .. } | Shape::Inner { .. } => Vec::new(),
            _ => p.semis(),
        };
        let pred = match shape {
            Shape::Inner { .. } | Shape::Derived { .. } => None,
            _ => p.pred(),
        };
        out.push(Spec { shape, semis, pred });
    }
    out
}

fn quarters(c: i8) -> String {
    format!("{:?}", c as f64 * 0.25)
}

impl Pred {
    fn sql(&self) -> String {
        let not = |neg: &bool| if *neg { "NOT " } else { "" };
        match self {
            Pred::VGt(c) => format!("v > {}", quarters(*c)),
            Pred::KNotNull => "k IS NOT NULL".into(),
            Pred::KIn(list, neg) => {
                let items: Vec<String> = list.iter().map(i64::to_string).collect();
                format!("k {}IN ({})", not(neg), items.join(", "))
            }
            Pred::SIn(list) => {
                let items: Vec<String> = list.iter().map(|&i| format!("'{}'", SS[i])).collect();
                format!("s IN ({})", items.join(", "))
            }
            Pred::Const(true) => "v >= -100.0".into(),
            Pred::Const(false) => "v > 100.0".into(),
            Pred::InSub(col, t, neg) => {
                format!("{col} {}IN (SELECT {col} FROM d WHERE g <= {t})", not(neg))
            }
            Pred::Cmp(op, l, r) => format!("{} {} {}", l.sql(), CMP_OPS[*op], r.sql()),
            Pred::Not(p) => format!("NOT ({})", p.sql()),
            Pred::And(p, q) => format!("({}) AND ({})", p.sql(), q.sql()),
            Pred::Or(p, q) => format!("({}) OR ({})", p.sql(), q.sql()),
        }
    }
}

impl Side {
    fn sql(self) -> String {
        match self {
            Side::Col(c) => c.to_string(),
            Side::Int(v) => v.to_string(),
            Side::Float(v) => format!("{v:?}"),
        }
    }
}

impl Spec {
    fn sql(&self) -> String {
        let semis: String = (self.semis.iter().enumerate())
            .map(|(i, (key, right))| {
                let cols = key.cols().join(", ");
                match right {
                    Right::Dim => format!(" SEMI JOIN d USING ({cols})"),
                    Right::DimWhere(t) => format!(
                        " SEMI JOIN (SELECT {cols} FROM d WHERE g <= {t}) AS r{i} USING ({cols})"
                    ),
                }
            })
            .collect();
        let filter = (self.pred.as_ref()).map_or(String::new(), |p| format!(" WHERE {}", p.sql()));
        match &self.shape {
            Shape::Message { group, alias } => {
                let g = group.cols()[0];
                let (from, q) = if *alias { ("f AS a", "a.") } else { ("f", "") };
                format!(
                    "SELECT {q}{g}, SUM(1) AS c, COUNT(*) AS n, SUM({q}v) AS sv \
                     FROM {from}{semis}{filter} GROUP BY {q}{g} ORDER BY {q}{g}"
                )
            }
            Shape::Star => format!("SELECT * FROM f{semis}{filter}"),
            Shape::Residual { t } => format!(
                "SELECT k, big, CASE \
                 WHEN k IN (SELECT k FROM d WHERE g <= {0}) \
                      AND big IN (SELECT big FROM d WHERE g <= {1}) THEN v - 1.5 \
                 WHEN s NOT IN (SELECT s FROM d WHERE g <= {2}) THEN v + 0.25 \
                 WHEN k IN (SELECT k FROM d WHERE g <= {0}) THEN v * 2.0 \
                 ELSE v END AS r FROM f{filter}",
                t[0], t[1], t[2]
            ),
            Shape::Derived { c } => format!(
                "SELECT q.k, SUM(q.v) AS sv, SUM(2) AS c2 \
                 FROM (SELECT k, big, s, x, v FROM f WHERE v > {}) AS q{semis} \
                 GROUP BY q.k ORDER BY q.k",
                quarters(*c)
            ),
            Shape::Inner { aliased, agg } => {
                let (from, l, r) = match aliased {
                    true => ("f AS a JOIN d AS b USING (k)", "a", "b"),
                    false => ("f JOIN d USING (k)", "f", "d"),
                };
                match agg {
                    true => format!(
                        "SELECT g, SUM({l}.v) AS sv, COUNT(*) AS n FROM {from} GROUP BY g ORDER BY g"
                    ),
                    false => format!(
                        "SELECT {l}.v AS fv, {r}.v AS dv, k, g FROM {from} WHERE {l}.v > {r}.v"
                    ),
                }
            }
        }
    }

    /// Does row order carry meaning (a projection), or is the result a
    /// set of groups?
    fn ordered(&self) -> bool {
        match self.shape {
            Shape::Star | Shape::Residual { .. } => true,
            Shape::Inner { agg, .. } => !agg,
            Shape::Message { .. } | Shape::Derived { .. } => false,
        }
    }
}

/// A snapshot as rows.
struct Rel {
    names: Vec<String>,
    rows: Vec<Vec<Datum>>,
}

impl Rel {
    fn of(t: &Table) -> Rel {
        Rel {
            names: t.column_names().iter().map(|s| s.to_string()).collect(),
            rows: (0..t.num_rows()).map(|i| t.row(i)).collect(),
        }
    }

    fn col(&self, name: &str) -> usize {
        self.names.iter().position(|n| n == name).expect(name)
    }
}

/// The engine's key equality: same type, same value, NULL equals nothing.
fn key_eq(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => x == y,
        (Datum::Float(x), Datum::Float(y)) => x == y,
        (Datum::Str(x), Datum::Str(y)) => x == y,
        _ => false,
    }
}

fn g_at_most(d: &Rel, row: &[Datum], t: i64) -> bool {
    matches!(row[d.col("g")], Datum::Int(g) if g <= t)
}

/// `value IN (SELECT col FROM d WHERE g <= t)`.
fn in_sub(value: &Datum, d: &Rel, col: &str, t: i64) -> bool {
    (d.rows.iter()).any(|r| g_at_most(d, r, t) && key_eq(value, &r[d.col(col)]))
}

fn num(d: &Datum) -> f64 {
    d.as_f64().expect("a non-NULL number")
}

struct Oracle {
    f: Rel,
    d: Rel,
}

impl Oracle {
    /// The predicate's truth value on `row` in three-valued logic:
    /// `None` is NULL.
    fn truth(&self, pred: &Pred, row: &[Datum]) -> Option<bool> {
        let f = &self.f;
        match pred {
            Pred::VGt(c) => Some(num(&row[f.col("v")]) > *c as f64 * 0.25),
            Pred::KNotNull => Some(!row[f.col("k")].is_null()),
            Pred::KIn(list, neg) => match &row[f.col("k")] {
                Datum::Int(k) => Some(list.contains(k) != *neg),
                _ => None,
            },
            Pred::SIn(list) => match &row[f.col("s")] {
                Datum::Str(s) => Some(list.iter().any(|&i| SS[i] == s)),
                _ => None,
            },
            Pred::Const(keep) => Some(*keep),
            Pred::InSub(col, t, neg) => {
                let v = &row[f.col(col)];
                (!v.is_null()).then(|| in_sub(v, &self.d, col, *t) != *neg)
            }
            Pred::Cmp(op, l, r) => {
                let side = |s: &Side| match *s {
                    Side::Col(c) => row[f.col(c)].clone(),
                    Side::Int(v) => Datum::Int(v),
                    Side::Float(v) => Datum::Float(v),
                };
                let ord = match (side(l), side(r)) {
                    (Datum::Null, _) | (_, Datum::Null) => return None,
                    // Two ints compare exactly; any other pair as f64,
                    // where -0.0 = 0.0.
                    (Datum::Int(a), Datum::Int(b)) => a.cmp(&b),
                    (a, b) => num(&a).partial_cmp(&num(&b)).expect("no NaN here"),
                };
                Some(match CMP_OPS[*op] {
                    "=" => ord.is_eq(),
                    "<>" => ord.is_ne(),
                    "<" => ord.is_lt(),
                    "<=" => ord.is_le(),
                    ">" => ord.is_gt(),
                    _ => ord.is_ge(),
                })
            }
            Pred::Not(p) => self.truth(p, row).map(|b| !b),
            Pred::And(p, q) => match (self.truth(p, row), self.truth(q, row)) {
                (Some(false), _) | (_, Some(false)) => Some(false),
                (Some(true), Some(true)) => Some(true),
                _ => None,
            },
            Pred::Or(p, q) => match (self.truth(p, row), self.truth(q, row)) {
                (Some(true), _) | (_, Some(true)) => Some(true),
                (Some(false), Some(false)) => Some(false),
                _ => None,
            },
        }
    }

    fn semi(&self, names: &[String], row: &[Datum], key: Key, right: Right) -> bool {
        self.d.rows.iter().any(|dr| {
            let visible = match right {
                Right::Dim => true,
                Right::DimWhere(t) => g_at_most(&self.d, dr, t),
            };
            visible
                && key.cols().iter().all(|c| {
                    let l = names.iter().position(|n| n == c).expect(c);
                    key_eq(&row[l], &dr[self.d.col(c)])
                })
        })
    }

    /// Rows of `input` (with `f`'s column names, or a prefix of them)
    /// that pass the spec's semi joins and predicate, in order.
    fn survivors<'r>(
        &self,
        spec: &Spec,
        names: &[String],
        input: &'r [Vec<Datum>],
    ) -> Vec<&'r Vec<Datum>> {
        (input.iter())
            .filter(|row| {
                (spec.semis.iter()).all(|&(key, right)| self.semi(names, row, key, right))
                    && (spec.pred.as_ref()).is_none_or(|p| self.truth(p, row) == Some(true))
            })
            .collect()
    }

    /// Group `rows` by the value at `key` (NULLs together, first
    /// occurrence first) and emit `key, then finish(group rows)`.
    fn grouped(
        rows: &[Vec<Datum>],
        key: usize,
        finish: impl Fn(&[&Vec<Datum>]) -> Vec<Datum>,
    ) -> Vec<Vec<Datum>> {
        let mut groups: Vec<(Datum, Vec<&Vec<Datum>>)> = Vec::new();
        for row in rows {
            let same = |g: &Datum| key_eq(g, &row[key]) || (g.is_null() && row[key].is_null());
            match groups.iter_mut().find(|(g, _)| same(g)) {
                Some((_, members)) => members.push(row),
                None => groups.push((row[key].clone(), vec![row])),
            }
        }
        (groups.into_iter())
            .map(|(g, members)| {
                let mut out = vec![g];
                out.extend(finish(&members));
                out
            })
            .collect()
    }

    fn expect(&self, spec: &Spec) -> Vec<Vec<Datum>> {
        let (f, d) = (&self.f, &self.d);
        let sum = |rows: &[&Vec<Datum>], col: usize| -> Datum {
            Datum::Float(rows.iter().map(|r| num(&r[col])).sum())
        };
        let count = |rows: &[&Vec<Datum>], times: i64| Datum::Int(times * rows.len() as i64);
        match &spec.shape {
            Shape::Message { group, .. } => {
                let kept: Vec<Vec<Datum>> = (self.survivors(spec, &f.names, &f.rows))
                    .into_iter()
                    .cloned()
                    .collect();
                let v = f.col("v");
                Self::grouped(&kept, f.col(group.cols()[0]), |rows| {
                    vec![count(rows, 1), count(rows, 1), sum(rows, v)]
                })
            }
            Shape::Star => (self.survivors(spec, &f.names, &f.rows))
                .into_iter()
                .cloned()
                .collect(),
            Shape::Residual { t } => (self.survivors(spec, &f.names, &f.rows))
                .into_iter()
                .map(|row| {
                    let (k, big, s) = (&row[f.col("k")], &row[f.col("big")], &row[f.col("s")]);
                    let v = num(&row[f.col("v")]);
                    let r = if in_sub(k, d, "k", t[0]) && in_sub(big, d, "big", t[1]) {
                        v - 1.5
                    } else if !s.is_null() && !in_sub(s, d, "s", t[2]) {
                        v + 0.25
                    } else if in_sub(k, d, "k", t[0]) {
                        v * 2.0
                    } else {
                        v
                    };
                    vec![k.clone(), big.clone(), Datum::Float(r)]
                })
                .collect(),
            Shape::Derived { c } => {
                // The derived table keeps f's first five columns.
                let names = &f.names[..5];
                let q: Vec<Vec<Datum>> = (f.rows.iter())
                    .filter(|row| num(&row[f.col("v")]) > *c as f64 * 0.25)
                    .map(|row| row[..5].to_vec())
                    .collect();
                let kept: Vec<Vec<Datum>> = (self.survivors(spec, names, &q))
                    .into_iter()
                    .cloned()
                    .collect();
                Self::grouped(&kept, 0, |rows| vec![sum(rows, 4), count(rows, 2)])
            }
            Shape::Inner { agg, .. } => {
                // One row per (f row, matching d row): f order, then d order.
                let joined: Vec<Vec<Datum>> = (f.rows.iter())
                    .flat_map(|fr| {
                        (d.rows.iter())
                            .filter(|dr| key_eq(&fr[f.col("k")], &dr[d.col("k")]))
                            .map(|dr| {
                                vec![
                                    fr[f.col("v")].clone(),
                                    dr[d.col("v")].clone(),
                                    fr[f.col("k")].clone(),
                                    dr[d.col("g")].clone(),
                                ]
                            })
                    })
                    .collect();
                match agg {
                    true => Self::grouped(&joined, 3, |rows| vec![sum(rows, 0), count(rows, 1)]),
                    false => (joined.into_iter())
                        .filter(|r| num(&r[0]) > num(&r[1]))
                        .collect(),
                }
            }
        }
    }
}

/// Result cells compared by value: ints and floats of one value are the
/// same answer (the naive oracle does not type its values; the
/// personalities' column types are compared among themselves), `-0.0`
/// is `0.0`.
fn cells(rows: Vec<Vec<Datum>>, ordered: bool) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = (rows.into_iter())
        .map(|row| {
            (row.into_iter())
                .map(|d| match d {
                    Datum::Null => "NULL".to_string(),
                    Datum::Str(s) => format!("'{s}'"),
                    n => format!("{:?}", num(&n) + 0.0),
                })
                .collect()
        })
        .collect();
    if !ordered {
        out.sort();
    }
    out
}

/// Every engine personality, `f` loaded (or registered as external
/// storage) and `d` loaded. Paged ones live under `scratch`.
fn diff_personalities(
    scratch: &std::path::Path,
    f: &Table,
    d: &Table,
) -> Vec<(&'static str, Database)> {
    let mem = EngineConfig::duckdb_mem;
    let configs = [
        ("mem", mem(), false),
        (
            "plain",
            EngineConfig {
                compression: false,
                ..mem()
            },
            false,
        ),
        ("row", EngineConfig::dbms_x_row(), false),
        ("external", mem(), true),
        (
            "paged-256",
            EngineConfig::paged(scratch.join("p256")),
            false,
        ),
        (
            "paged-8",
            EngineConfig {
                bufferpool_pages: 8,
                ..EngineConfig::paged(scratch.join("p8"))
            },
            false,
        ),
    ];
    (configs.into_iter())
        .map(|(name, config, external)| {
            let db = Database::new(config);
            match external {
                true => db.register_external("f", f),
                false => db.create_table("f", f.clone()).unwrap(),
            }
            db.create_table("d", d.clone()).unwrap();
            (name, db)
        })
        .collect()
}

static DIFF_CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every personality answers every generated query as the naive
    /// oracle does, in columns of the types the first personality gives
    /// them, and stores the same rows and types when it creates a table
    /// as that query.
    #[test]
    fn generated_queries_match_a_naive_oracle_on_every_personality(data in arb_diff()) {
        let case = DIFF_CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let scratch = std::env::temp_dir()
            .join(format!("jb_diff_{}_{case}", std::process::id()));
        let _ = std::fs::remove_dir_all(&scratch);
        let (f, d) = diff_tables(&data);
        let dbs = diff_personalities(&scratch, &f, &d);
        let oracle = {
            let (_, mem) = &dbs[0];
            Oracle {
                f: Rel::of(&mem.snapshot("f").unwrap()),
                d: Rel::of(&mem.snapshot("d").unwrap()),
            }
        };
        let types = |t: &Table| t.columns.iter().map(Column::dtype).collect::<Vec<_>>();
        for spec in specs(&data.picks) {
            let sql = spec.sql();
            let want = cells(oracle.expect(&spec), spec.ordered());
            let mut want_types = None;
            for (name, db) in &dbs {
                let got = db.query(&sql).unwrap_or_else(|e| panic!("{name}: {sql}: {e}"));
                let got_types = types(&got);
                let want_types = want_types.get_or_insert_with(|| got_types.clone());
                prop_assert_eq!(&got_types, want_types, "{} types {}", name, sql);
                let got = cells((0..got.num_rows()).map(|i| got.row(i)).collect(), spec.ordered());
                prop_assert_eq!(&got, &want, "{} answers {}", name, sql);
                let create = format!("CREATE OR REPLACE TABLE ctas AS {sql}");
                db.execute(&create).unwrap_or_else(|e| panic!("{name}: {create}: {e}"));
                let t = db.snapshot("ctas").unwrap();
                prop_assert_eq!(&types(&t), want_types, "{} stores the types of {}", name, sql);
                let stored = cells((0..t.num_rows()).map(|i| t.row(i)).collect(), spec.ordered());
                prop_assert_eq!(&stored, &want, "{} stores {}", name, sql);
            }
        }
        drop(dbs);
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
