//! Binding: [`bind`] turns a parsed statement into the one plan the
//! executor ([`crate::exec`]) runs and [`Database::explain`] prints, making
//! every choice that depends on the statement alone. A query block runs as
//! **bind → pruned scan → select → gather once → aggregate/project**:
//!
//! 1. *scan*: a base table is scanned ([`Database::scan`]) for the columns
//!    the block names anywhere ([`Query::visit_columns`]) only.
//! 2. *select*: `SEMI JOIN`s and `WHERE` narrow one selection vector over
//!    the scan; a semi join probes a `KeySet` and copies nothing. Other
//!    joins gather their left input and run on tables.
//! 3. *gather*: the surviving rows of the columns the output reads are
//!    copied once — not at all when nothing was filtered.
//!
//! A selection vector is ascending, so every operator downstream sees the
//! surviving rows in scan order: pruning and selection change which bytes
//! are read, never the order a fold consumes rows. What depends on the
//! data stays at run time: the key codec, spilling aggregation state, and
//! a top-k over no more than `k` rows, which is the sort.

use std::fmt;

use joinboost_sql::ast::{BinaryOp, Expr, JoinKind, OrderByItem, Query, Statement, TableRef};

use crate::db::Database;
use crate::error::{EngineError, Result};
use crate::expr::Slots;

/// Largest `LIMIT` the bounded top-k selection handles; larger limits run
/// the full sort (insertion into the winner set is O(k) per improving row).
const TOP_K_MAX: usize = 64;

/// A bound statement: what it does, and the slots of its `IN (SELECT ..)`
/// subqueries and windows.
pub struct Plan<'s> {
    /// What the statement does.
    pub op: Op<'s>,
    /// The slots of its `IN (SELECT ..)` subqueries and windows.
    pub slots: Slots<'s>,
}

/// What a bound statement does.
pub enum Op<'s> {
    /// A `SELECT`.
    Query(QueryPlan<'s>),
    /// `CREATE [OR REPLACE] TABLE name AS query`: name, `OR REPLACE`, query.
    CreateAs(&'s str, bool, QueryPlan<'s>),
    /// `UPDATE table SET column = expr, .. [WHERE pred]`.
    UpdateColumn(&'s str, &'s [(String, Expr)], Option<&'s Expr>),
    /// `DROP TABLE [IF EXISTS] name`: name, `IF EXISTS`.
    Drop(&'s str, bool),
    /// `SWAP COLUMN a.x WITH b.y`: (a, x), (b, y).
    SwapColumn((&'s str, &'s str), (&'s str, &'s str)),
}

/// A bound query block: its source, the joins and filters that narrow it
/// in order, one output node over the surviving rows, then order and limit.
pub struct QueryPlan<'s> {
    /// Where the rows come from.
    pub source: Source<'s>,
    /// The joins and filters, in the order they narrow the rows.
    pub steps: Vec<Step<'s>>,
    /// What the surviving rows become.
    pub output: Output<'s>,
    /// The columns the output and `ORDER BY` read of the surviving rows
    /// (`None`: all, under `SELECT *`).
    pub reads: Option<Vec<&'s str>>,
    /// The `ORDER BY` keys.
    pub order: &'s [OrderByItem],
    /// `LIMIT k` taken by a top-k over `order`, rather than a full sort.
    pub top_k: Option<usize>,
    /// A prefix truncation, where no top-k took the limit.
    pub limit: Option<usize>,
}

/// Where a block's rows come from.
pub enum Source<'s> {
    /// A base table scanned for some columns (`None`: all): table, the
    /// binding that qualifies its columns, columns.
    Scan(&'s str, &'s str, Option<Vec<&'s str>>),
    /// A `FROM` subquery, a block of its own kept whole, and its alias.
    Subquery(Box<QueryPlan<'s>>, Option<&'s str>),
    /// The one row a `SELECT` without `FROM` runs over.
    OneRow,
}

/// A join or filter over a block's rows.
pub enum Step<'s> {
    /// Keep the rows where each conjunct is TRUE, evaluated in turn over
    /// the rows the ones before it kept, reading the columns it names.
    Filter(Vec<(&'s Expr, Vec<&'s str>)>),
    /// `SEMI JOIN .. USING`: keep the rows whose key the right side holds.
    SemiProbe(Source<'s>, &'s [String]),
    /// Inner, left or full `JOIN .. USING` through a `JoinIndex`.
    HashJoin(Source<'s>, JoinKind, &'s [String]),
    /// An inner `JOIN` without keys: every pair of rows.
    NestedLoop(Source<'s>),
}

/// The node that turns a block's surviving rows into its result.
pub enum Output<'s> {
    /// One named column per select item (`*`: each column not named `__*`).
    Project(Vec<(String, &'s Expr)>),
    /// Group by the keys and fold the distinct aggregate calls; the named
    /// outputs are the select items over `__key{i}`/`__agg{i}`.
    Aggregate(&'s [Expr], Vec<&'s Expr>, Vec<(String, Expr)>),
}

/// Bind a statement for `db`.
pub fn bind<'s>(stmt: &'s Statement, db: &Database) -> Result<Plan<'s>> {
    let mut slots = Slots::default();
    let op = match stmt {
        Statement::Select(q) => Op::Query(bind_query(q, &mut slots)?),
        Statement::CreateTableAs {
            name,
            query,
            or_replace,
        } => Op::CreateAs(name, *or_replace, bind_query(query, &mut slots)?),
        Statement::Update {
            table,
            assignments,
            where_clause,
        } => {
            slots.bind(assignments.iter().map(|(_, e)| e).chain(where_clause));
            Op::UpdateColumn(table, assignments, where_clause.as_ref())
        }
        Statement::DropTable { name, if_exists } => Op::Drop(name, *if_exists),
        Statement::SwapColumn { .. } if !db.config().allow_swap => {
            return Err(other(
                "column swap is not supported by this backend configuration",
            ))
        }
        Statement::SwapColumn {
            table_a,
            column_a,
            table_b,
            column_b,
        } => Op::SwapColumn((table_a, column_a), (table_b, column_b)),
    };
    Ok(Plan { op, slots })
}

/// Bind one query block, its `FROM` subqueries, and the slots of its
/// expressions.
pub fn bind_query<'s>(q: &'s Query, slots: &mut Slots<'s>) -> Result<QueryPlan<'s>> {
    slots.bind(q.exprs());
    let wildcard = q.items.iter().any(|it| matches!(it.expr, Expr::Wildcard));
    let cols = (!wildcard).then(|| {
        let mut cols = Vec::new();
        q.visit_columns(&mut |c| push_new(&mut cols, c));
        cols
    });
    let mut source = |t: &'s TableRef| -> Result<Source<'s>> {
        Ok(match t {
            TableRef::Named { name, alias } => {
                Source::Scan(name, alias.as_deref().unwrap_or(name), cols.clone())
            }
            TableRef::Subquery { query, alias } => {
                Source::Subquery(Box::new(bind_query(query, slots)?), alias.as_deref())
            }
        })
    };
    let from = q.from.as_ref().map(&mut source).transpose()?;
    let mut steps = Vec::new();
    for j in &q.joins {
        let right = source(&j.table)?;
        steps.push(match (j.kind, j.using.is_empty()) {
            (JoinKind::Semi, false) => Step::SemiProbe(right, &j.using),
            (kind, false) => Step::HashJoin(right, kind, &j.using),
            (JoinKind::Inner, true) => Step::NestedLoop(right),
            _ => return Err(other("only inner joins may omit USING keys")),
        });
        if let Some(on) = &j.on {
            if !matches!(j.kind, JoinKind::Inner | JoinKind::Semi) {
                return Err(other(
                    "ON predicates are only supported on inner/semi joins",
                ));
            }
            steps.push(filter(on));
        }
    }
    steps.extend(q.where_clause.as_ref().map(filter));
    let names = (q.items.iter().enumerate()).map(|(i, it)| match (&it.alias, &it.expr) {
        (Some(a), _) => a.clone(),
        (None, Expr::Column { name, .. }) => name.clone(),
        _ => format!("col{i}"),
    });
    let output = if q.group_by.is_empty() && !q.items.iter().any(|it| it.expr.contains_aggregate())
    {
        Output::Project(names.zip(q.items.iter().map(|it| &it.expr)).collect())
    } else {
        let mut aggs = Vec::new();
        for it in &q.items {
            it.expr.walk(&mut |e| {
                if e.is_aggregate() {
                    push_new(&mut aggs, e);
                }
                !e.is_aggregate()
            });
        }
        let outputs = (names.zip(&q.items))
            .map(|(name, it)| Ok((name, rewrite_post_agg(&it.expr, &q.group_by, &aggs)?)))
            .collect::<Result<_>>()?;
        Output::Aggregate(&q.group_by, aggs, outputs)
    };
    let read = (q.items.iter().map(|it| &it.expr))
        .chain(&q.group_by)
        .chain(q.order_by.iter().map(|o| &o.expr));
    let limit = q.limit.map(|l| l as usize);
    let top_k = limit.filter(|&k| k <= TOP_K_MAX && !q.order_by.is_empty());
    Ok(QueryPlan {
        source: from.unwrap_or(Source::OneRow),
        steps,
        output,
        reads: (!wildcard).then(|| names_read(read)),
        order: &q.order_by,
        top_k,
        limit: limit.filter(|_| top_k.is_none()),
    })
}

fn other(msg: &str) -> EngineError {
    EngineError::Other(msg.into())
}

fn push_new<T: PartialEq>(v: &mut Vec<T>, x: T) {
    if !v.contains(&x) {
        v.push(x);
    }
}

/// The column names `exprs` read, each once.
pub(crate) fn names_read<'s>(exprs: impl IntoIterator<Item = &'s Expr>) -> Vec<&'s str> {
    let mut names = Vec::new();
    for e in exprs {
        e.visit_columns(&mut |c| push_new(&mut names, c));
    }
    names
}

/// `WHERE`/`ON`: the operands of a tree of `AND`s, left to right.
fn filter(pred: &Expr) -> Step<'_> {
    let mut conjuncts = Vec::new();
    pred.walk(&mut |e| match e {
        Expr::Binary {
            op: BinaryOp::And, ..
        } => true,
        e => {
            conjuncts.push((e, names_read([e])));
            false
        }
    });
    Step::Filter(conjuncts)
}

/// Rewrite a post-aggregation expression: group-by expressions become
/// `__key{i}` references, aggregate calls become `__agg{i}` references.
fn rewrite_post_agg(e: &Expr, keys: &[Expr], aggs: &[&Expr]) -> Result<Expr> {
    if let Some(i) = keys.iter().position(|k| k == e) {
        return Ok(Expr::col(format!("__key{i}")));
    }
    if let Some(i) = aggs.iter().position(|a| *a == e) {
        return Ok(Expr::col(format!("__agg{i}")));
    }
    let re = |e: &Expr| rewrite_post_agg(e, keys, aggs);
    let bx = |e: &Expr| re(e).map(Box::new);
    Ok(match e {
        Expr::Literal(_) => e.clone(),
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: bx(left)?,
            right: bx(right)?,
        },
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: bx(expr)?,
        },
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args.iter().map(re).collect::<Result<_>>()?,
        },
        Expr::Case { whens, else_expr } => Expr::Case {
            whens: (whens.iter())
                .map(|(c, t)| Ok((re(c)?, re(t)?)))
                .collect::<Result<_>>()?,
            else_expr: else_expr.as_deref().map(bx).transpose()?,
        },
        Expr::Column { .. } => {
            return Err(EngineError::Other(format!(
                "column {e} must appear in GROUP BY or inside an aggregate"
            )))
        }
        other => {
            return Err(EngineError::Other(format!(
                "unsupported post-aggregation expression {other}"
            )))
        }
    })
}

// ---- explain ----------------------------------------------------------------

/// One node per line in the order they run, a join's right side and a
/// `FROM` subquery indented below it; then the subquery slots.
impl fmt::Display for Plan<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.op {
            Op::Query(q) => q.write(f, 0)?,
            Op::CreateAs(name, or_replace, q) => {
                q.write(f, 0)?;
                writeln!(f, "CreateAs {name} or_replace={or_replace}")?
            }
            Op::UpdateColumn(table, set, pred) => {
                let set = list(set.iter().map(|(c, e)| format!("{c} = {e}")));
                let pred = pred.map_or(String::new(), |p| format!(" WHERE {p}"));
                writeln!(f, "UpdateColumn {table} SET {set}{pred}")?
            }
            Op::Drop(name, if_exists) => writeln!(f, "Drop {name} if_exists={if_exists}")?,
            Op::SwapColumn(a, b) => writeln!(f, "SwapColumn {}.{} {}.{}", a.0, a.1, b.0, b.1)?,
        }
        for (i, q) in self.slots.subqueries.iter().enumerate() {
            writeln!(f, "subquery ${i}: {q}")?;
        }
        Ok(())
    }
}

/// `xs` displayed, comma-separated.
fn list<T: fmt::Display>(xs: impl IntoIterator<Item = T>) -> String {
    let xs: Vec<String> = xs.into_iter().map(|x| x.to_string()).collect();
    xs.join(", ")
}

/// `e`, and the name it is given where that is not how it prints.
fn named(name: &str, e: &impl fmt::Display) -> String {
    match e.to_string() {
        s if s == name => s,
        s => format!("{s} AS {name}"),
    }
}

impl QueryPlan<'_> {
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        self.source.write(f, depth)?;
        for step in &self.steps {
            let (node, right) = match step {
                Step::Filter(cs) => {
                    writeln!(f, "{pad}Filter [{}]", list(cs.iter().map(|c| c.0)))?;
                    continue;
                }
                Step::SemiProbe(right, using) => {
                    (format!("SemiProbe USING ({})", using.join(", ")), right)
                }
                Step::HashJoin(right, kind, using) => (
                    format!("HashJoin {kind:?} USING ({})", using.join(", ")),
                    right,
                ),
                Step::NestedLoop(right) => ("NestedLoop".into(), right),
            };
            writeln!(f, "{pad}{node}")?;
            right.write(f, depth + 1)?;
        }
        let reads = self.reads.as_ref().map_or("*".into(), list);
        match &self.output {
            Output::Project(items) => {
                let items = list(items.iter().map(|(n, e)| named(n, e)));
                writeln!(f, "{pad}Project [{items}] reads [{reads}]")?
            }
            Output::Aggregate(keys, aggs, outputs) => {
                let (keys, aggs) = (list(keys.iter()), list(aggs));
                let outputs = list(outputs.iter().map(|(n, e)| named(n, e)));
                writeln!(
                    f,
                    "{pad}Aggregate [{keys}] [{aggs}] -> [{outputs}] reads [{reads}]"
                )?
            }
        }
        match (self.top_k, list(self.order)) {
            (_, keys) if keys.is_empty() => {}
            (Some(k), keys) => writeln!(f, "{pad}TopK {k} [{keys}]")?,
            (None, keys) => writeln!(f, "{pad}Sort [{keys}]")?,
        }
        self.limit.map_or(Ok(()), |k| writeln!(f, "{pad}Limit {k}"))
    }
}

impl Source<'_> {
    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        let pad = "  ".repeat(depth);
        match self {
            Source::Scan(table, binding, cols) => {
                let cols = cols.as_ref().map_or("*".into(), list);
                writeln!(f, "{pad}Scan {} [{cols}]", named(binding, table))
            }
            Source::Subquery(plan, alias) => {
                writeln!(f, "{pad}Subquery {}", alias.unwrap_or(""))?;
                plan.write(f, depth + 1)
            }
            Source::OneRow => writeln!(f, "{pad}OneRow"),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Column, Database, Table};

    fn db() -> Database {
        let db = Database::in_memory();
        let t = Table::from_columns(vec![
            ("k", Column::int(vec![1, 2, 3])),
            ("v", Column::float(vec![0.5, 1.5, 2.5])),
        ]);
        db.create_table("t", t).unwrap();
        db
    }

    #[test]
    fn bind_decides_order_limit_and_what_a_block_reads() {
        let db = db();
        let plan = |sql: &str| db.explain(sql).unwrap();
        // A LIMIT within the top-k bound is a top-k; a larger one sorts and
        // truncates; without ORDER BY it only truncates.
        assert!(plan("SELECT k FROM t ORDER BY v LIMIT 64").contains("TopK 64 [v]"));
        let big = plan("SELECT k FROM t ORDER BY v DESC LIMIT 65");
        assert!(big.ends_with("Sort [v DESC]\nLimit 65\n"), "{big}");
        assert!(plan("SELECT k FROM t LIMIT 2").ends_with("Limit 2\n"));
        // `SELECT *` scans and reads every column; no FROM is one row.
        assert_eq!(
            plan("SELECT * FROM t"),
            "Scan t [*]\nProject [* AS col0] reads [*]\n"
        );
        assert_eq!(
            plan("SELECT 1 AS one"),
            "OneRow\nProject [1 AS one] reads []\n"
        );
        // An UPDATE's IN subqueries get their slots at bind time too.
        assert_eq!(
            plan("UPDATE t SET v = v + 1 WHERE k IN (SELECT k FROM t WHERE v > 1.0)"),
            "UpdateColumn t SET v = v + 1 WHERE k IN (SELECT k FROM t WHERE v > 1.0)\n\
             subquery $0: SELECT k FROM t WHERE v > 1.0\n"
        );
        assert_eq!(plan("DROP TABLE IF EXISTS t"), "Drop t if_exists=true\n");
    }

    #[test]
    fn bind_rejects_what_no_run_could_execute() {
        let db = db();
        for (sql, why) in [
            (
                "SELECT k FROM t LEFT JOIN t AS u ON k > 1",
                "only inner joins",
            ),
            (
                "SELECT k FROM t LEFT JOIN t AS u USING (k) ON k > 1",
                "ON predicates",
            ),
            ("SELECT k, SUM(v) FROM t", "must appear in GROUP BY"),
            ("SWAP COLUMN t.v WITH t.k", "column swap is not supported"),
        ] {
            let err = db.explain(sql).unwrap_err().to_string();
            assert!(err.contains(why), "{sql}: {err}");
        }
    }
}
