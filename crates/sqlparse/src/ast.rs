//! Abstract syntax tree for the JoinBoost SQL subset, with a printer.
//!
//! The printer (`Display`) emits portable, vendor-neutral SQL. The parser in
//! [`crate::parser`] accepts everything the printer emits (round-trip
//! property: `parse(print(q)) == q`).

use std::fmt;

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Str(String),
    Null,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() && v.abs() < 1e15 {
                    // Keep a decimal point so the literal re-parses as float.
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Null => f.write_str("NULL"),
        }
    }
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    Neq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
}

impl BinaryOp {
    /// Parser precedence (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::Neq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 3,
            BinaryOp::Add | BinaryOp::Sub => 4,
            BinaryOp::Mul | BinaryOp::Div => 5,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::Neq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Scalar / aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Possibly-qualified column reference.
    Column {
        table: Option<String>,
        name: String,
    },
    Literal(Value),
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    /// Function call: scalar (`ABS`, `LOG`, ...) or aggregate (`SUM`,
    /// `COUNT`, ...). `COUNT(*)` is represented with a single
    /// [`Expr::Wildcard`] argument.
    Func {
        name: String,
        args: Vec<Expr>,
    },
    /// `*` — only valid inside `COUNT(*)` or as a lone select item.
    Wildcard,
    /// `SUM(expr) OVER (ORDER BY key)` running prefix sum
    /// (`ROWS UNBOUNDED PRECEDING` semantics; JoinBoost only applies it
    /// after a `GROUP BY key`, so keys are distinct and RANGE == ROWS).
    WindowSum {
        arg: Box<Expr>,
        order_by: Box<Expr>,
    },
    Case {
        whens: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// `expr [NOT] IN (SELECT ...)` — the semi-join predicate used to push
    /// leaf predicates to the fact table.
    InSubquery {
        expr: Box<Expr>,
        query: Box<Query>,
        negated: bool,
    },
    /// `expr [NOT] IN (v1, v2, ...)`.
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
}

#[allow(clippy::should_implement_trait)] // builder helpers, not operator impls
impl Expr {
    /// Unqualified column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column {
            table: None,
            name: name.into(),
        }
    }

    /// Qualified column reference.
    pub fn qcol(table: impl Into<String>, name: impl Into<String>) -> Expr {
        Expr::Column {
            table: Some(table.into()),
            name: name.into(),
        }
    }

    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    pub fn float(v: f64) -> Expr {
        Expr::Literal(Value::Float(v))
    }

    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Value::Str(v.into()))
    }

    pub fn null() -> Expr {
        Expr::Literal(Value::Null)
    }

    pub fn func(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Func {
            name: name.into(),
            args,
        }
    }

    pub fn sum(arg: Expr) -> Expr {
        Expr::func("SUM", vec![arg])
    }

    pub fn count_star() -> Expr {
        Expr::func("COUNT", vec![Expr::Wildcard])
    }

    pub fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    pub fn eq(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Eq, left, right)
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::And, left, right)
    }

    /// Fold a list of predicates with `AND`; `None` if empty.
    pub fn and_all(preds: impl IntoIterator<Item = Expr>) -> Option<Expr> {
        preds.into_iter().reduce(Expr::and)
    }

    pub fn neg(expr: Expr) -> Expr {
        Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(expr),
        }
    }

    pub fn not(expr: Expr) -> Expr {
        Expr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(expr),
        }
    }

    pub fn add(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Add, left, right)
    }

    pub fn sub(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Sub, left, right)
    }

    pub fn mul(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Mul, left, right)
    }

    pub fn div(left: Expr, right: Expr) -> Expr {
        Expr::binary(BinaryOp::Div, left, right)
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::Binary { op, .. } => op.precedence(),
            // NOT binds between AND and the comparisons.
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => 2,
            Expr::Unary { .. } => 6,
            Expr::InSubquery { .. } | Expr::InList { .. } | Expr::IsNull { .. } => 3,
            _ => 7,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column { table, name } => match table {
                Some(t) => write!(f, "{t}.{name}"),
                None => write!(f, "{name}"),
            },
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, left, right } => {
                let p = op.precedence();
                fmt_child(f, left, p, false)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand needs parens at equal precedence for the
                // non-associative cases (a - (b - c), a / (b / c)).
                fmt_child(f, right, p, true)
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => {
                    f.write_str("-")?;
                    fmt_child(f, expr, 6, true)
                }
                // Parenthesize unconditionally: NOT binds looser than the
                // comparisons, so `NOT a = b` would re-parse differently.
                UnaryOp::Not => write!(f, "NOT ({expr})"),
            },
            Expr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            Expr::Wildcard => f.write_str("*"),
            Expr::WindowSum { arg, order_by } => {
                write!(f, "SUM({arg}) OVER (ORDER BY {order_by})")
            }
            Expr::Case { whens, else_expr } => {
                f.write_str("CASE")?;
                for (cond, then) in whens {
                    write!(f, " WHEN {cond} THEN {then}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " ELSE {e}")?;
                }
                f.write_str(" END")
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                fmt_child(f, expr, 3, false)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                write!(f, " IN ({query})")
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                fmt_child(f, expr, 3, false)?;
                if *negated {
                    f.write_str(" NOT")?;
                }
                f.write_str(" IN (")?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str(")")
            }
            Expr::IsNull { expr, negated } => {
                fmt_child(f, expr, 3, false)?;
                if *negated {
                    f.write_str(" IS NOT NULL")
                } else {
                    f.write_str(" IS NULL")
                }
            }
        }
    }
}

fn fmt_child(
    f: &mut fmt::Formatter<'_>,
    child: &Expr,
    parent_prec: u8,
    right: bool,
) -> fmt::Result {
    let cp = child.precedence();
    if cp < parent_prec || (right && cp == parent_prec) {
        write!(f, "({child})")
    } else {
        write!(f, "{child}")
    }
}

/// One item of the `SELECT` list.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl SelectItem {
    pub fn new(expr: Expr) -> Self {
        SelectItem { expr, alias: None }
    }

    pub fn aliased(expr: Expr, alias: impl Into<String>) -> Self {
        SelectItem {
            expr,
            alias: Some(alias.into()),
        }
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if let Some(a) = &self.alias {
            write!(f, " AS {a}")?;
        }
        Ok(())
    }
}

/// A table reference in `FROM` / `JOIN`.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Named {
        name: String,
        alias: Option<String>,
    },
    Subquery {
        query: Box<Query>,
        alias: Option<String>,
    },
}

impl TableRef {
    pub fn named(name: impl Into<String>) -> Self {
        TableRef::Named {
            name: name.into(),
            alias: None,
        }
    }

    pub fn aliased(name: impl Into<String>, alias: impl Into<String>) -> Self {
        TableRef::Named {
            name: name.into(),
            alias: Some(alias.into()),
        }
    }

    pub fn subquery(query: Query) -> Self {
        TableRef::Subquery {
            query: Box::new(query),
            alias: None,
        }
    }

    /// The name this reference binds in scope (alias if present).
    pub fn binding(&self) -> Option<&str> {
        match self {
            TableRef::Named { name, alias } => Some(alias.as_deref().unwrap_or(name)),
            TableRef::Subquery { alias, .. } => alias.as_deref(),
        }
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableRef::Named { name, alias } => {
                write!(f, "{name}")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
            TableRef::Subquery { query, alias } => {
                write!(f, "({query})")?;
                if let Some(a) = alias {
                    write!(f, " AS {a}")?;
                }
                Ok(())
            }
        }
    }
}

/// Join kind. `Semi` is printed as `SEMI JOIN` (the engine understands it;
/// on other DBMSes JoinBoost prints the equivalent `IN (SELECT ..)` form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    Left,
    /// Left semi join: filter left rows by match existence; annotations of
    /// the left side are unchanged (paper, footnote 3).
    Semi,
    /// Full outer join: used for the missing-join-key extension
    /// (Appendix D.2).
    Full,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinKind::Inner => f.write_str("JOIN"),
            JoinKind::Left => f.write_str("LEFT JOIN"),
            JoinKind::Semi => f.write_str("SEMI JOIN"),
            JoinKind::Full => f.write_str("FULL JOIN"),
        }
    }
}

/// One `JOIN` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub kind: JoinKind,
    pub table: TableRef,
    /// `USING (k1, k2, ...)` — JoinBoost always joins on shared key names.
    pub using: Vec<String>,
    /// Optional extra `ON` predicate (theta-join extension, Appendix B.1).
    pub on: Option<Expr>,
}

impl fmt::Display for Join {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.kind, self.table)?;
        if !self.using.is_empty() {
            write!(f, " USING ({})", self.using.join(", "))?;
        }
        if let Some(on) = &self.on {
            write!(f, " ON {on}")?;
        }
        Ok(())
    }
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

impl fmt::Display for OrderByItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.expr)?;
        if self.desc {
            f.write_str(" DESC")?;
        }
        Ok(())
    }
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    pub items: Vec<SelectItem>,
    pub from: Option<TableRef>,
    pub joins: Vec<Join>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SELECT ")?;
        for (i, item) in self.items.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{item}")?;
        }
        if let Some(from) = &self.from {
            write!(f, " FROM {from}")?;
        }
        for j in &self.joins {
            write!(f, " {j}")?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            f.write_str(" GROUP BY ")?;
            for (i, g) in self.group_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{g}")?;
            }
        }
        if !self.order_by.is_empty() {
            f.write_str(" ORDER BY ")?;
            for (i, o) in self.order_by.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{o}")?;
            }
        }
        if let Some(l) = self.limit {
            write!(f, " LIMIT {l}")?;
        }
        Ok(())
    }
}

/// Where in a query a table name appears — see [`Query::visit_tables`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TablePosition {
    /// In the `FROM`/`JOIN` closure, through nested `FROM`-subqueries.
    From,
    /// Inside an expression subquery (`IN (SELECT ..)`), in any clause.
    Expr,
}

impl Query {
    /// The expressions of this query block: the select list, `WHERE`,
    /// `GROUP BY`, `ORDER BY` and each join's `ON` predicate.
    pub fn exprs(&self) -> impl Iterator<Item = &Expr> {
        (self.items.iter().map(|i| &i.expr))
            .chain(&self.where_clause)
            .chain(&self.group_by)
            .chain(self.order_by.iter().map(|o| &o.expr))
            .chain(self.joins.iter().filter_map(|j| j.on.as_ref()))
    }

    /// Call `f` with every table name this query references and the
    /// position it is referenced from. A table anywhere inside an
    /// expression subquery — its own `FROM` included — is at
    /// [`TablePosition::Expr`].
    pub fn visit_tables(&self, f: &mut impl FnMut(&str, TablePosition)) {
        self.visit_tables_at(TablePosition::From, f);
    }

    fn visit_tables_at(&self, pos: TablePosition, f: &mut impl FnMut(&str, TablePosition)) {
        for t in self.from.iter().chain(self.joins.iter().map(|j| &j.table)) {
            match t {
                TableRef::Named { name, .. } => f(name, pos),
                TableRef::Subquery { query, .. } => query.visit_tables_at(pos, f),
            }
        }
        for e in self.exprs() {
            e.visit_tables(f);
        }
    }

    /// Call `f` with the name of every column *this query block*
    /// references: the select list, `WHERE`, `GROUP BY`, `ORDER BY`, and
    /// each join's `USING` keys and `ON` predicate. Qualifiers are
    /// dropped (`t.c` reports `c`), so a consumer that prunes by name
    /// keeps a same-named column of every table in scope. Subqueries —
    /// in `FROM` or under `IN` — are blocks of their own and are not
    /// entered; a lone `*` item references every column and is the
    /// caller's to check, as it reports no name.
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        for j in &self.joins {
            j.using.iter().for_each(|k| f(k));
        }
        for e in self.exprs() {
            e.visit_columns(f);
        }
    }
}

impl Expr {
    /// Call `f` with every table referenced by a subquery of this
    /// expression (always at [`TablePosition::Expr`]).
    pub fn visit_tables(&self, f: &mut impl FnMut(&str, TablePosition)) {
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.visit_tables(f),
            Expr::Binary { left, right, .. } => {
                left.visit_tables(f);
                right.visit_tables(f);
            }
            Expr::WindowSum { arg, order_by } => {
                arg.visit_tables(f);
                order_by.visit_tables(f);
            }
            Expr::Func { args, .. } => args.iter().for_each(|a| a.visit_tables(f)),
            Expr::Case { whens, else_expr } => {
                for (c, t) in whens {
                    c.visit_tables(f);
                    t.visit_tables(f);
                }
                if let Some(e) = else_expr {
                    e.visit_tables(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.visit_tables(f);
                list.iter().for_each(|i| i.visit_tables(f));
            }
            Expr::InSubquery { expr, query, .. } => {
                expr.visit_tables(f);
                query.visit_tables_at(TablePosition::Expr, f);
            }
        }
    }

    /// Visit this expression and its subexpressions in pre-order, entering
    /// the children of a node only where `f` returns `true` for it:
    /// `CASE` branches, function and window arguments, and the probe side
    /// of `IN`. The subquery of an `IN (SELECT ..)` is a block of its own
    /// and is not entered.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr) -> bool) {
        if !f(self) {
            return;
        }
        match self {
            Expr::Column { .. } | Expr::Literal(_) | Expr::Wildcard => {}
            Expr::Unary { expr, .. }
            | Expr::IsNull { expr, .. }
            | Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Binary {
                left: a, right: b, ..
            }
            | Expr::WindowSum {
                arg: a,
                order_by: b,
            } => {
                a.walk(f);
                b.walk(f);
            }
            Expr::Func { args, .. } => args.iter().for_each(|a| a.walk(f)),
            Expr::Case { whens, else_expr } => {
                for (c, t) in whens {
                    c.walk(f);
                    t.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                list.iter().for_each(|i| i.walk(f));
            }
        }
    }

    /// Call `f` with the name of every column this expression reads from
    /// the row it is evaluated on (see [`Expr::walk`] for what is entered);
    /// the subquery of an `IN (SELECT ..)` reads its own tables, not this row.
    pub fn visit_columns<'a>(&'a self, f: &mut impl FnMut(&'a str)) {
        self.walk(&mut |e| {
            if let Expr::Column { name, .. } = e {
                f(name);
            }
            true
        });
    }

    /// Is this a call of an aggregate function: `SUM`, `COUNT`, `AVG`,
    /// `MIN` or `MAX`? (A window `SUM(..) OVER (..)` is not one.)
    pub fn is_aggregate(&self) -> bool {
        matches!(self, Expr::Func { name, .. }
            if matches!(name.as_str(), "SUM" | "COUNT" | "AVG" | "MIN" | "MAX"))
    }

    /// Does this expression call an aggregate function anywhere
    /// [`Expr::walk`] goes?
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            found |= e.is_aggregate();
            !found
        });
        found
    }
}

/// Top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(Query),
    /// `CREATE [OR REPLACE] TABLE name AS query`.
    CreateTableAs {
        name: String,
        query: Query,
        or_replace: bool,
    },
    /// `UPDATE table SET col = expr, ... [WHERE pred]`.
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    /// `DROP TABLE [IF EXISTS] name`.
    DropTable {
        name: String,
        if_exists: bool,
    },
    /// `SWAP COLUMN t1.c1 WITH t2.c2` — the column-swap extension
    /// (Section 5.4): a schema-level pointer swap between two tables.
    SwapColumn {
        table_a: String,
        column_a: String,
        table_b: String,
        column_b: String,
    },
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Select(q) => write!(f, "{q}"),
            Statement::CreateTableAs {
                name,
                query,
                or_replace,
            } => {
                if *or_replace {
                    write!(f, "CREATE OR REPLACE TABLE {name} AS {query}")
                } else {
                    write!(f, "CREATE TABLE {name} AS {query}")
                }
            }
            Statement::Update {
                table,
                assignments,
                where_clause,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, (c, e)) in assignments.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{c} = {e}")?;
                }
                if let Some(w) = where_clause {
                    write!(f, " WHERE {w}")?;
                }
                Ok(())
            }
            Statement::DropTable { name, if_exists } => {
                if *if_exists {
                    write!(f, "DROP TABLE IF EXISTS {name}")
                } else {
                    write!(f, "DROP TABLE {name}")
                }
            }
            Statement::SwapColumn {
                table_a,
                column_a,
                table_b,
                column_b,
            } => write!(
                f,
                "SWAP COLUMN {table_a}.{column_a} WITH {table_b}.{column_b}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prints_arithmetic_with_parens() {
        // (a + b) * c must keep parens; a + b * c must not add them.
        let e = Expr::mul(Expr::add(Expr::col("a"), Expr::col("b")), Expr::col("c"));
        assert_eq!(e.to_string(), "(a + b) * c");
        let e = Expr::add(Expr::col("a"), Expr::mul(Expr::col("b"), Expr::col("c")));
        assert_eq!(e.to_string(), "a + b * c");
    }

    #[test]
    fn prints_non_associative_right_parens() {
        let e = Expr::sub(Expr::col("a"), Expr::sub(Expr::col("b"), Expr::col("c")));
        assert_eq!(e.to_string(), "a - (b - c)");
        let e = Expr::sub(Expr::sub(Expr::col("a"), Expr::col("b")), Expr::col("c"));
        assert_eq!(e.to_string(), "a - b - c");
    }

    #[test]
    fn prints_window_sum() {
        let e = Expr::WindowSum {
            arg: Box::new(Expr::col("c")),
            order_by: Box::new(Expr::col("a")),
        };
        assert_eq!(e.to_string(), "SUM(c) OVER (ORDER BY a)");
    }

    #[test]
    fn prints_case() {
        let e = Expr::Case {
            whens: vec![(Expr::eq(Expr::col("a"), Expr::int(1)), Expr::float(2.5))],
            else_expr: Some(Box::new(Expr::int(0))),
        };
        assert_eq!(e.to_string(), "CASE WHEN a = 1 THEN 2.5 ELSE 0 END");
    }

    #[test]
    fn prints_full_query() {
        let q = Query {
            items: vec![
                SelectItem::new(Expr::col("a")),
                SelectItem::aliased(Expr::sum(Expr::col("s")), "s"),
            ],
            from: Some(TableRef::named("r")),
            joins: vec![Join {
                kind: JoinKind::Inner,
                table: TableRef::named("t"),
                using: vec!["a".into()],
                on: None,
            }],
            where_clause: Some(Expr::binary(BinaryOp::Gt, Expr::col("d"), Expr::int(1))),
            group_by: vec![Expr::col("a")],
            order_by: vec![OrderByItem {
                expr: Expr::col("s"),
                desc: true,
            }],
            limit: Some(1),
        };
        assert_eq!(
            q.to_string(),
            "SELECT a, SUM(s) AS s FROM r JOIN t USING (a) WHERE d > 1 GROUP BY a ORDER BY s DESC LIMIT 1"
        );
    }

    #[test]
    fn prints_statements() {
        let s = Statement::SwapColumn {
            table_a: "f".into(),
            column_a: "s".into(),
            table_b: "f_new".into(),
            column_b: "s".into(),
        };
        assert_eq!(s.to_string(), "SWAP COLUMN f.s WITH f_new.s");
        let s = Statement::DropTable {
            name: "m1".into(),
            if_exists: true,
        };
        assert_eq!(s.to_string(), "DROP TABLE IF EXISTS m1");
    }

    #[test]
    fn string_literal_escaping() {
        assert_eq!(Expr::str("it's").to_string(), "'it''s'");
    }

    #[test]
    fn float_literal_keeps_point() {
        assert_eq!(Expr::float(2.0).to_string(), "2.0");
    }

    /// `(FROM-position names, expression-position names)` of a query.
    fn tables_of(sql: &str) -> (Vec<String>, Vec<String>) {
        let q = crate::parse_query(sql).unwrap();
        let (mut from, mut expr) = (Vec::new(), Vec::new());
        q.visit_tables(&mut |name, pos| match pos {
            TablePosition::From => from.push(name.to_string()),
            TablePosition::Expr => expr.push(name.to_string()),
        });
        (from, expr)
    }

    #[test]
    fn visit_tables_walks_nested_from_subqueries_as_from_position() {
        let (from, expr) = tables_of(
            "SELECT a FROM (SELECT a FROM (SELECT a FROM inner_t) AS x JOIN j1 USING (a)) AS y \
             LEFT JOIN (SELECT a FROM j2) AS z USING (a)",
        );
        assert_eq!(from, ["inner_t", "j1", "j2"]);
        assert!(expr.is_empty());
    }

    #[test]
    fn visit_tables_reports_in_subqueries_in_where_and_on_as_expr_position() {
        let (from, expr) = tables_of(
            "SELECT a FROM f JOIN d ON f.k IN (SELECT k FROM on_t) \
             WHERE a IN (SELECT a FROM w1 WHERE b NOT IN (SELECT b FROM w2 JOIN w3 USING (b)))",
        );
        assert_eq!(from, ["f", "d"]);
        // Everything inside an expression subquery is Expr — its own
        // FROM/JOIN closure and deeper subqueries included.
        assert_eq!(expr, ["w1", "w2", "w3", "on_t"]);
        // An Expr-position subquery nested under a FROM-subquery keeps
        // its position; the derived table's own source stays From.
        let (from, expr) =
            tables_of("SELECT a FROM (SELECT a FROM t WHERE a IN (SELECT a FROM u)) AS s");
        assert_eq!((from, expr), (vec!["t".to_string()], vec!["u".to_string()]));
    }

    #[test]
    fn visit_tables_reaches_window_and_case_arguments() {
        let (from, expr) = tables_of(
            "SELECT SUM(CASE WHEN a IN (SELECT a FROM c1) THEN 1 ELSE 0 END) \
                 OVER (ORDER BY CASE WHEN b IN (SELECT b FROM c2) THEN b ELSE 0 END) AS s, \
             ABS(-(CASE WHEN c IS NULL THEN 0 WHEN c IN (1, 2) THEN 1 \
                   ELSE CASE WHEN c IN (SELECT c FROM c3) THEN 2 ELSE 3 END END)) AS t \
             FROM f GROUP BY a IN (SELECT a FROM g1) ORDER BY b IN (SELECT b FROM o1)",
        );
        assert_eq!(from, ["f"]);
        assert_eq!(expr, ["c1", "c2", "c3", "g1", "o1"]);
        // Expressions outside a query (UPDATE assignments) walk the same way.
        let e = crate::parse_expr("CASE WHEN x IN (SELECT x FROM u1) THEN 1 ELSE 0 END").unwrap();
        let mut seen = Vec::new();
        e.visit_tables(&mut |name, pos| seen.push((name.to_string(), pos)));
        assert_eq!(seen, [("u1".to_string(), TablePosition::Expr)]);
    }

    fn columns_of(sql: &str) -> Vec<String> {
        let q = crate::parse_query(sql).unwrap();
        let mut seen = Vec::new();
        q.visit_columns(&mut |name| seen.push(name.to_string()));
        seen
    }

    #[test]
    fn visit_columns_covers_every_clause_of_the_block_and_drops_qualifiers() {
        assert_eq!(
            columns_of(
                "SELECT f.a, SUM(b * c) AS s FROM f JOIN d USING (k1, k2) \
                 SEMI JOIN e USING (k3) ON f.on_c > 1 \
                 WHERE w1 IS NOT NULL AND -w2 < 3 GROUP BY f.a, g ORDER BY o DESC, s"
            ),
            ["k1", "k2", "k3", "a", "b", "c", "w1", "w2", "a", "g", "o", "s", "on_c"]
        );
        // COUNT(*) and a lone * report no name.
        assert!(columns_of("SELECT COUNT(*) AS c FROM f").is_empty());
        assert!(columns_of("SELECT * FROM f").is_empty());
    }

    #[test]
    fn visit_columns_reaches_nested_case_window_and_in_arguments() {
        assert_eq!(
            columns_of(
                "SELECT SUM(CASE WHEN a IN (SELECT x FROM c1 WHERE y > 0) THEN b ELSE 0 END) \
                     OVER (ORDER BY CASE WHEN c NOT IN (1, d) THEN e ELSE 0 END) AS s, \
                 ABS(-(CASE WHEN g IS NULL THEN 0 \
                       ELSE CASE WHEN h IN (SELECT z FROM c3) THEN i ELSE j END END)) AS t \
                 FROM f"
            ),
            // The probe side of IN is this block's; x, y and z are not.
            ["a", "b", "c", "d", "e", "g", "h", "i", "j"]
        );
    }

    #[test]
    fn visit_columns_does_not_enter_from_subqueries() {
        assert_eq!(
            columns_of("SELECT outer_c FROM (SELECT inner_c AS outer_c FROM t WHERE w > 0) AS s"),
            ["outer_c"]
        );
    }

    #[test]
    fn and_all_folds() {
        assert_eq!(Expr::and_all(vec![]), None);
        let e = Expr::and_all(vec![Expr::col("a"), Expr::col("b"), Expr::col("c")]).unwrap();
        assert_eq!(e.to_string(), "a AND b AND c");
    }
}
