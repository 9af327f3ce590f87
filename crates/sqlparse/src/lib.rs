//! SQL subset for JoinBoost.
//!
//! JoinBoost (VLDB 2023) compiles tree-model training into "standard
//! non-nested SPJA queries with simple algebra expressions" so that it is
//! portable to any DBMS. This crate defines exactly that subset:
//!
//! * `SELECT` with projections, scalar expressions and aggregates,
//! * `FROM` over base tables or one level of derived tables,
//! * `JOIN` (inner, left outer, semi) with `USING`/`ON` conditions,
//! * `WHERE`, `GROUP BY` (zero or one grouping key in generated queries,
//!   though the grammar allows more), `ORDER BY`, `LIMIT`,
//! * window prefix sums `SUM(x) OVER (ORDER BY a)` used for numeric splits,
//! * `CASE WHEN`, `IN (SELECT ..)` semi-join predicates,
//! * `CREATE TABLE .. AS`, `UPDATE .. SET`, `DROP TABLE`,
//! * a `SWAP COLUMN` statement modelling the <100-LOC column-swap extension
//!   the paper adds to DuckDB for O(1) residual updates.
//!
//! The crate provides a tokenizer ([`token`]), an AST ([`ast`]), a
//! recursive-descent / Pratt parser ([`parser`]) and a printer (`Display`
//! impls on the AST) such that `parse(print(q)) == q`.

pub mod ast;
pub mod parser;
pub mod token;

pub use ast::{
    BinaryOp, Expr, Join, JoinKind, OrderByItem, Query, SelectItem, Statement, TablePosition,
    TableRef, UnaryOp, Value,
};
pub use parser::{parse_expr, parse_query, parse_statement, ParseError};

/// Convenience: parse a single statement from a SQL string.
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    parse_statement(sql)
}
