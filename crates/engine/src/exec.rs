//! Query execution: joins, filters, grouping/aggregation, window functions,
//! ordering — late-materialized, the way the columnar DBMSes the paper
//! runs on execute the SPJA statements JoinBoost emits.
//!
//! A query block runs as **bind → pruned scan → select → gather once →
//! aggregate/project**:
//!
//! 1. *bind*: [`Query::visit_columns`] names every column the block
//!    references; a base table is scanned for those columns only
//!    ([`Database::scan`]).
//! 2. *select*: `SEMI JOIN`s and `WHERE` narrow one selection vector over
//!    the scanned input; a semi join probes a [`KeySet`] and copies
//!    nothing. Other joins gather their left input and run on tables.
//! 3. *gather*: the surviving rows of only the columns the aggregate or
//!    projection reads are copied out once — and not at all when nothing
//!    was filtered.
//!
//! A selection vector is ascending, so every operator downstream sees the
//! surviving rows in scan order: pruning and selection change which bytes
//! are read, never the order a fold consumes rows.

use std::borrow::Cow;

use joinboost_sql::ast::{BinaryOp, Expr, Join, JoinKind, Query, TableRef, Value};

use crate::agg::PreparedAgg;
use crate::column::Column;
use crate::db::{Database, ExecMode};
use crate::error::{EngineError, Result};
use crate::expr::{eval, eval_mask, eval_rows, EvalContext, SubqueryRunner};
use crate::keys::{group_rows, JoinIndex, KeySet, SortKeys};
use crate::mask::Mask;
use crate::table::{ColumnMeta, Table};

/// Aggregate function names.
const AGGS: [&str; 5] = ["SUM", "COUNT", "AVG", "MIN", "MAX"];

/// Executes queries against a [`Database`].
pub struct Executor<'a> {
    /// The database whose catalog the query reads.
    pub db: &'a Database,
    /// Columnar vs row evaluation (from the database config).
    pub mode: ExecMode,
}

impl SubqueryRunner for Executor<'_> {
    fn run_subquery(&self, q: &Query) -> Result<Table> {
        self.query(q)
    }
}

/// The column names a set of expressions reads; `None` when a lone `*`
/// among them reads every column.
fn columns_read<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> Option<Vec<&'e str>> {
    let mut names = Vec::new();
    for e in exprs {
        if matches!(e, Expr::Wildcard) {
            return None;
        }
        e.visit_columns(&mut |name| names.push(name));
    }
    Some(names)
}

/// Bind: the column names a query block references anywhere, by which
/// every base table it scans is pruned; `None` under `SELECT *`.
fn columns_named(q: &Query) -> Option<Vec<&str>> {
    if q.items.iter().any(|it| matches!(it.expr, Expr::Wildcard)) {
        return None;
    }
    let mut names = Vec::new();
    q.visit_columns(&mut |name| names.push(name));
    Some(names)
}

/// The scanned `FROM`/`JOIN` input of a query block and the rows of it
/// that survive the block's filters so far.
struct Selected {
    table: Table,
    /// Surviving row ids, ascending; `None` = every row.
    sel: Option<Vec<u32>>,
}

impl Selected {
    fn all(table: Table) -> Selected {
        Selected { table, sel: None }
    }

    /// Install a narrower selection. A filter that dropped nothing
    /// leaves none behind, so nothing is gathered on its account.
    fn narrow(&mut self, kept: Vec<u32>) {
        if self.sel.is_some() || kept.len() < self.table.num_rows() {
            self.sel = Some(kept);
        }
    }

    /// The surviving rows of the columns named in `names` (`None`: all
    /// columns) — the one place rows are copied. Borrows the scan when
    /// every row survives. At least one column is always present, since a
    /// table's row count is its columns' length.
    fn view(&self, names: Option<&[&str]>) -> Cow<'_, Table> {
        let Some(sel) = &self.sel else {
            return Cow::Borrowed(&self.table);
        };
        let mut out = Table::new();
        for (m, c) in self.table.meta.iter().zip(&self.table.columns) {
            if m.named_in(names) {
                out.push_column(m.clone(), c.take(sel));
            }
        }
        if out.num_columns() == 0 {
            if let (Some(m), Some(c)) = (self.table.meta.first(), self.table.columns.first()) {
                out.push_column(m.clone(), c.take(sel));
            }
        }
        Cow::Owned(out)
    }

    /// All columns of the surviving rows.
    fn into_table(self) -> Table {
        match self.view(None) {
            Cow::Owned(t) => t,
            Cow::Borrowed(_) => self.table,
        }
    }
}

impl<'a> Executor<'a> {
    /// An executor in the database's configured execution mode.
    pub fn new(db: &'a Database) -> Self {
        let mode = db.config().exec;
        Executor { db, mode }
    }

    /// Execute a `SELECT` query to a materialized table.
    pub fn query(&self, q: &Query) -> Result<Table> {
        let ctx = EvalContext::new(self);
        self.query_with_ctx(q, &ctx)
    }

    /// Evaluate `expr` over every row of `table` in the configured mode.
    pub(crate) fn eval(&self, expr: &Expr, table: &Table, ctx: &EvalContext) -> Result<Column> {
        match self.mode {
            ExecMode::Columnar => eval(expr, table, ctx),
            ExecMode::Row => eval_rows(expr, table, ctx),
        }
    }

    /// Evaluate the predicate `pred` over every row of `table` in the
    /// configured mode.
    pub(crate) fn predicate(&self, pred: &Expr, table: &Table, ctx: &EvalContext) -> Result<Mask> {
        match self.mode {
            ExecMode::Columnar => eval_mask(pred, table, ctx),
            ExecMode::Row => Ok(Mask::truthy(&eval_rows(pred, table, ctx)?)),
        }
    }

    fn query_with_ctx(&self, q: &Query, ctx: &EvalContext) -> Result<Table> {
        let scanned = columns_named(q);
        let scanned = scanned.as_deref();
        // FROM + JOINs.
        let mut input = Selected::all(match &q.from {
            Some(tref) => self.table_ref(tref, scanned)?,
            None => dummy_table(),
        });
        for j in &q.joins {
            input = self.join(input, j, scanned, ctx)?;
        }
        // WHERE.
        if let Some(pred) = &q.where_clause {
            self.filter(&mut input, pred, ctx)?;
        }
        // Aggregation or plain projection, over the surviving rows of the
        // columns it reads (ORDER BY may fall back on the input's too).
        let has_agg =
            !q.group_by.is_empty() || q.items.iter().any(|it| contains_aggregate(&it.expr));
        let read = columns_read(
            (q.items.iter().map(|it| &it.expr))
                .chain(&q.group_by)
                .chain(q.order_by.iter().map(|o| &o.expr)),
        );
        let input = input.view(read.as_deref());
        let input: &Table = &input;
        let mut output = if has_agg {
            self.aggregate(q, input, ctx)?
        } else {
            self.project(q, input, ctx)?
        };
        // ORDER BY (resolved against the projection first, then the input).
        // Sort keys are extracted once into a comparable form (dict ranks
        // for strings, f64 for numerics) — no Datum materialization or
        // String clone per comparison.
        let mut limit_applied = false;
        if !q.order_by.is_empty() {
            let n = output.num_rows();
            let mut sort_cols: Vec<Column> = Vec::with_capacity(q.order_by.len());
            for item in &q.order_by {
                let col = match eval(&item.expr, &output, ctx) {
                    Ok(c) => c,
                    Err(_) if !has_agg => eval(&item.expr, input, ctx)?,
                    Err(e) => return Err(e),
                };
                if col.len() != n {
                    return Err(EngineError::Other("ORDER BY arity mismatch".into()));
                }
                sort_cols.push(col);
            }
            let descs: Vec<bool> = q.order_by.iter().map(|o| o.desc).collect();
            let keys = SortKeys::new(sort_cols, &descs);
            match q.limit {
                // Top-k pushdown: ORDER BY + LIMIT k selects the k winners
                // with a bounded insertion set — O(n log k) instead of a
                // full O(n log n) sort (sqlgen's split queries use k = 1).
                Some(l) if (l as usize) < n && (l as usize) <= TOP_K_MAX => {
                    let winners = keys.top_k(n, l as usize);
                    output = output.take(&winners);
                    limit_applied = true;
                }
                _ => {
                    let perm = keys.sort_permutation(n);
                    output = output.take(&perm);
                }
            }
        }
        // LIMIT (cheap prefix truncation; no index vector + gather).
        if let Some(l) = q.limit {
            if !limit_applied {
                let keep = (l as usize).min(output.num_rows());
                if keep < output.num_rows() {
                    output = output.head(keep);
                }
            }
        }
        Ok(output)
    }

    /// Scan a base table for the columns named in `columns` (`None`: all),
    /// or run a `FROM` subquery — a block of its own, kept whole.
    fn table_ref(&self, tref: &TableRef, columns: Option<&[&str]>) -> Result<Table> {
        match tref {
            TableRef::Named { name, alias } => {
                let t = self.db.scan(name, columns)?;
                let binding = alias.as_deref().unwrap_or(name);
                Ok(t.with_qualifier(binding))
            }
            TableRef::Subquery { query, alias } => {
                let t = self.query(query)?;
                match alias {
                    Some(a) => Ok(t.unqualified().with_qualifier(a)),
                    None => Ok(t.unqualified()),
                }
            }
        }
    }

    /// Narrow `input` to the surviving rows where `pred` is TRUE, one
    /// conjunct at a time: each is evaluated over the rows the ones before
    /// it kept, reading only the columns it names.
    fn filter(&self, input: &mut Selected, pred: &Expr, ctx: &EvalContext) -> Result<()> {
        for conjunct in conjuncts(pred) {
            let view = input.view(columns_read([conjunct]).as_deref());
            let mask = self.predicate(conjunct, &view, ctx)?;
            drop(view);
            // `mask` is positional over the surviving rows.
            input.narrow(mask.select(input.sel.as_deref()));
        }
        Ok(())
    }

    // ---- joins -----------------------------------------------------------

    fn join(
        &self,
        left: Selected,
        join: &Join,
        columns: Option<&[&str]>,
        ctx: &EvalContext,
    ) -> Result<Selected> {
        let right = self.table_ref(&join.table, columns)?;
        if join.using.is_empty() {
            return self.nested_loop_join(left.into_table(), right, join, ctx);
        }
        let rkeys: Vec<usize> = join
            .using
            .iter()
            .map(|k| right.resolve(None, k))
            .collect::<Result<_>>()?;
        let rkey_cols: Vec<&Column> = rkeys.iter().map(|&k| &right.columns[k]).collect();
        if join.kind == JoinKind::Semi {
            return self.semi_join(left, join, &rkey_cols, right.num_rows(), ctx);
        }
        let left = left.into_table();
        let lkeys: Vec<usize> = join
            .using
            .iter()
            .map(|k| left.resolve(None, k))
            .collect::<Result<_>>()?;
        // Build a hash index on the right side over flat encoded keys
        // (u64 fast path for int keys, byte-packed fallback otherwise) —
        // no per-row Vec<HKey> or String clone on either side.
        let rn = right.num_rows();
        let ln = left.num_rows();
        let lkey_cols: Vec<&Column> = lkeys.iter().map(|&k| &left.columns[k]).collect();
        let index = JoinIndex::build(&lkey_cols, &rkey_cols, ln, rn);
        let mut lidx: Vec<u32> = Vec::with_capacity(ln);
        let mut ridx: Vec<Option<u32>> = Vec::with_capacity(ln);
        let mut rmatched = vec![false; rn];
        for i in 0..ln {
            match index.probe(i) {
                Some(rows) => {
                    for &r in rows {
                        lidx.push(i as u32);
                        ridx.push(Some(r));
                        rmatched[r as usize] = true;
                    }
                }
                None if join.kind == JoinKind::Inner => {}
                None => {
                    lidx.push(i as u32);
                    ridx.push(None);
                }
            }
        }
        let mut out = assemble_join(&left, &right, &join.using, &lkeys, &rkeys, &lidx, &ridx);
        if join.kind == JoinKind::Full {
            // Append unmatched right rows (left side NULL).
            let extra: Vec<u32> = (0..rn as u32).filter(|&r| !rmatched[r as usize]).collect();
            if !extra.is_empty() {
                let extra_tbl = assemble_right_only(&left, &right, &join.using, &rkeys, &extra);
                for (c, e) in out.columns.iter_mut().zip(&extra_tbl.columns) {
                    *c = Column::concat(&[c, e]);
                }
            }
        }
        let mut out = Selected::all(out);
        if let Some(on) = &join.on {
            if join.kind != JoinKind::Inner {
                return Err(EngineError::Other(
                    "ON predicates are only supported on inner/semi joins".into(),
                ));
            }
            self.filter(&mut out, on, ctx)?;
        }
        Ok(out)
    }

    /// Semi join: narrow the left selection to the rows whose key the
    /// right side holds. Left columns only, annotations unchanged — and
    /// no row copied.
    fn semi_join(
        &self,
        mut left: Selected,
        join: &Join,
        rkey_cols: &[&Column],
        rn: usize,
        ctx: &EvalContext,
    ) -> Result<Selected> {
        let set = KeySet::build(rkey_cols, rn);
        let lkey_cols: Vec<&Column> = join
            .using
            .iter()
            .map(|k| left.table.column(None, k))
            .collect::<Result<_>>()?;
        let kept = (set.probe(&lkey_cols)).select(left.sel.as_deref(), left.table.num_rows());
        left.narrow(kept);
        if let Some(on) = &join.on {
            self.filter(&mut left, on, ctx)?;
        }
        Ok(left)
    }

    fn nested_loop_join(
        &self,
        left: Table,
        right: Table,
        join: &Join,
        ctx: &EvalContext,
    ) -> Result<Selected> {
        if join.kind != JoinKind::Inner {
            return Err(EngineError::Other(
                "only inner joins may omit USING keys".into(),
            ));
        }
        let (ln, rn) = (left.num_rows(), right.num_rows());
        let mut lidx = Vec::with_capacity(ln * rn.min(4));
        let mut ridx = Vec::with_capacity(ln * rn.min(4));
        for i in 0..ln as u32 {
            for j in 0..rn as u32 {
                lidx.push(i);
                ridx.push(Some(j));
            }
        }
        let mut out = Selected::all(assemble_join(&left, &right, &[], &[], &[], &lidx, &ridx));
        if let Some(on) = &join.on {
            self.filter(&mut out, on, ctx)?;
        }
        Ok(out)
    }

    // ---- projection / aggregation -----------------------------------------

    fn project(&self, q: &Query, input: &Table, ctx: &EvalContext) -> Result<Table> {
        let mut out = Table::new();
        for (i, item) in q.items.iter().enumerate() {
            if matches!(item.expr, Expr::Wildcard) {
                for (m, c) in input.meta.iter().zip(&input.columns) {
                    if m.name.starts_with("__") {
                        continue;
                    }
                    out.push_column(ColumnMeta::new(m.name.clone()), c.clone());
                }
                continue;
            }
            let col = self.eval(&item.expr, input, ctx)?;
            out.push_column(ColumnMeta::new(item_name(item, i)), col);
        }
        Ok(out)
    }

    fn aggregate(&self, q: &Query, input: &Table, ctx: &EvalContext) -> Result<Table> {
        let n = input.num_rows();
        // 1. Group ids (vectorized: keys packed into a u64 or a flat byte
        // buffer — no per-row Vec<HKey> allocation).
        let key_cols: Vec<Column> = q
            .group_by
            .iter()
            .map(|e| eval(e, input, ctx))
            .collect::<Result<_>>()?;
        let (gids, num_groups, rep_rows, sizes) = if key_cols.is_empty() {
            (vec![0u32; n], 1usize, vec![0u32], vec![n as u32])
        } else {
            let refs: Vec<&Column> = key_cols.iter().collect();
            let g = group_rows(&refs, n);
            (g.gids, g.num_groups, g.reps, g.sizes)
        };
        // 2. Collect unique aggregate calls from the select list.
        let mut aggs: Vec<Expr> = Vec::new();
        for item in &q.items {
            collect_aggregates(&item.expr, &mut aggs);
        }
        // 3. Evaluate every aggregate's argument once, then fill all
        // accumulator banks in a single fused pass (optionally in
        // parallel — see `agg` module docs for the determinism argument).
        let mut prepared: Vec<PreparedAgg> = Vec::with_capacity(aggs.len());
        for agg in &aggs {
            prepared.push(self.prepare_aggregate(agg, input, ctx)?);
        }
        // Paged engines spill accumulator banks that exceed the configured
        // budget, slicing the group-id space (bit-identical; see `agg`).
        let spill = self.db.spill_target().filter(|&(_, budget)| {
            num_groups > 1 && crate::agg::bank_bytes(&prepared, num_groups) > budget
        });
        let agg_cols = match spill {
            Some((store, budget)) => crate::agg::compute_grouped_spilled(
                &prepared,
                &gids,
                num_groups,
                Some(&sizes),
                self.db.config().agg_threads,
                store,
                budget,
            )?,
            None => crate::agg::compute_grouped(
                &prepared,
                &gids,
                num_groups,
                Some(&sizes),
                self.db.config().agg_threads,
            ),
        };
        // 4. Synthetic table: group keys (named __key{i}) + aggregates.
        let mut synth = Table::new();
        for (i, kc) in key_cols.iter().enumerate() {
            synth.push_column(ColumnMeta::new(format!("__key{i}")), kc.take(&rep_rows));
        }
        for (i, ac) in agg_cols.into_iter().enumerate() {
            synth.push_column(ColumnMeta::new(format!("__agg{i}")), ac);
        }
        // 5. Rewrite select items over the synthetic table and evaluate.
        let mut out = Table::new();
        for (i, item) in q.items.iter().enumerate() {
            let rewritten = rewrite_post_agg(&item.expr, &q.group_by, &aggs)?;
            let col = eval(&rewritten, &synth, ctx)?;
            out.push_column(ColumnMeta::new(item_name(item, i)), col);
        }
        Ok(out)
    }

    /// Evaluate one aggregate's argument (once) into the typed form the
    /// fused accumulator pass consumes.
    fn prepare_aggregate(
        &self,
        agg: &Expr,
        input: &Table,
        ctx: &EvalContext,
    ) -> Result<PreparedAgg> {
        let Expr::Func { name, args } = agg else {
            return Err(EngineError::Other("not an aggregate".into()));
        };
        let arg = match args.first() {
            Some(Expr::Wildcard) if name == "COUNT" => return PreparedAgg::new(name, None),
            // `SUM(1) AS jb_c` rides on every message: k × the group's
            // size, while that stays exact in the f64 the sum would have
            // been accumulated in.
            Some(Expr::Literal(Value::Int(k)))
                if name == "SUM"
                    && (k.unsigned_abs() as u128) * (input.num_rows() as u128) < 1 << 53 =>
            {
                return Ok(PreparedAgg::SumOfInt(*k));
            }
            Some(a) => a,
            None => {
                return Err(EngineError::Other(format!(
                    "aggregate {name} requires an argument"
                )))
            }
        };
        PreparedAgg::new(name, Some(self.eval(arg, input, ctx)?))
    }
}

/// The operands of a tree of `AND`s, left to right.
fn conjuncts(e: &Expr) -> Vec<&Expr> {
    match e {
        Expr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            let mut out = conjuncts(left);
            out.extend(conjuncts(right));
            out
        }
        other => vec![other],
    }
}

/// Largest `LIMIT` the bounded top-k selection handles; larger limits run
/// the full sort (insertion into the winner set is O(k) per improving row).
const TOP_K_MAX: usize = 64;

/// `true` if the expression contains an aggregate function call.
pub fn contains_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Func { name, args } => {
            AGGS.contains(&name.as_str()) || args.iter().any(contains_aggregate)
        }
        Expr::Binary { left, right, .. } => contains_aggregate(left) || contains_aggregate(right),
        Expr::Unary { expr, .. } => contains_aggregate(expr),
        Expr::Case { whens, else_expr } => {
            whens
                .iter()
                .any(|(c, t)| contains_aggregate(c) || contains_aggregate(t))
                || else_expr.as_deref().is_some_and(contains_aggregate)
        }
        Expr::InList { expr, list, .. } => {
            contains_aggregate(expr) || list.iter().any(contains_aggregate)
        }
        Expr::IsNull { expr, .. } => contains_aggregate(expr),
        Expr::InSubquery { expr, .. } => contains_aggregate(expr),
        _ => false,
    }
}

fn collect_aggregates(e: &Expr, out: &mut Vec<Expr>) {
    match e {
        Expr::Func { name, args } if AGGS.contains(&name.as_str()) => {
            if !out.contains(e) {
                out.push(e.clone());
            }
            // Aggregates cannot nest; no need to recurse into args.
            let _ = args;
        }
        Expr::Func { args, .. } => {
            for a in args {
                collect_aggregates(a, out);
            }
        }
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out);
            collect_aggregates(right, out);
        }
        Expr::Unary { expr, .. } => collect_aggregates(expr, out),
        Expr::Case { whens, else_expr } => {
            for (c, t) in whens {
                collect_aggregates(c, out);
                collect_aggregates(t, out);
            }
            if let Some(e) = else_expr {
                collect_aggregates(e, out);
            }
        }
        Expr::InList { expr, list, .. } => {
            collect_aggregates(expr, out);
            for i in list {
                collect_aggregates(i, out);
            }
        }
        Expr::IsNull { expr, .. } => collect_aggregates(expr, out),
        _ => {}
    }
}

/// Rewrite a post-aggregation expression: group-by expressions become
/// `__key{i}` references, aggregate calls become `__agg{i}` references.
fn rewrite_post_agg(e: &Expr, keys: &[Expr], aggs: &[Expr]) -> Result<Expr> {
    if let Some(i) = keys.iter().position(|k| k == e) {
        return Ok(Expr::col(format!("__key{i}")));
    }
    if let Some(i) = aggs.iter().position(|a| a == e) {
        return Ok(Expr::col(format!("__agg{i}")));
    }
    match e {
        Expr::Literal(_) => Ok(e.clone()),
        Expr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(rewrite_post_agg(left, keys, aggs)?),
            right: Box::new(rewrite_post_agg(right, keys, aggs)?),
        }),
        Expr::Unary { op, expr } => Ok(Expr::Unary {
            op: *op,
            expr: Box::new(rewrite_post_agg(expr, keys, aggs)?),
        }),
        Expr::Func { name, args } => Ok(Expr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_post_agg(a, keys, aggs))
                .collect::<Result<_>>()?,
        }),
        Expr::Case { whens, else_expr } => Ok(Expr::Case {
            whens: whens
                .iter()
                .map(|(c, t)| {
                    Ok((
                        rewrite_post_agg(c, keys, aggs)?,
                        rewrite_post_agg(t, keys, aggs)?,
                    ))
                })
                .collect::<Result<_>>()?,
            else_expr: match else_expr {
                Some(e) => Some(Box::new(rewrite_post_agg(e, keys, aggs)?)),
                None => None,
            },
        }),
        Expr::Column { .. } => Err(EngineError::Other(format!(
            "column {e} must appear in GROUP BY or inside an aggregate"
        ))),
        other => Err(EngineError::Other(format!(
            "unsupported post-aggregation expression {other}"
        ))),
    }
}

fn item_name(item: &joinboost_sql::ast::SelectItem, index: usize) -> String {
    if let Some(a) = &item.alias {
        return a.clone();
    }
    match &item.expr {
        Expr::Column { name, .. } => name.clone(),
        _ => format!("col{index}"),
    }
}

fn dummy_table() -> Table {
    Table::from_columns(vec![("__dummy", Column::int(vec![0]))])
}

/// Assemble a join result: all left columns, merged USING keys, and right
/// columns minus the key columns.
fn assemble_join(
    left: &Table,
    right: &Table,
    using: &[String],
    lkeys: &[usize],
    rkeys: &[usize],
    lidx: &[u32],
    ridx: &[Option<u32>],
) -> Table {
    let _ = using;
    let mut out = Table::new();
    for (ci, (m, c)) in left.meta.iter().zip(&left.columns).enumerate() {
        if lkeys.contains(&ci) {
            // Merged key column: take from left (NULL rows only arise in
            // FULL-join right-extension, handled separately).
            out.push_column(m.clone(), c.take(lidx));
        } else {
            out.push_column(m.clone(), c.take(lidx));
        }
    }
    for (ci, (m, c)) in right.meta.iter().zip(&right.columns).enumerate() {
        if rkeys.contains(&ci) {
            continue; // USING merges key columns
        }
        out.push_column(m.clone(), c.take_nullable(ridx));
    }
    out
}

/// Rows of a FULL join that exist only on the right: left columns are NULL
/// except the merged key columns, which take the right values.
fn assemble_right_only(
    left: &Table,
    right: &Table,
    using: &[String],
    rkeys: &[usize],
    extra: &[u32],
) -> Table {
    let mut out = Table::new();
    let nulls: Vec<Option<u32>> = vec![None; extra.len()];
    for (ci, (m, c)) in left.meta.iter().zip(&left.columns).enumerate() {
        let key_pos = using
            .iter()
            .position(|k| m.name.eq_ignore_ascii_case(k))
            .filter(|_| {
                // Only the actual key column instance merges.
                left.resolve(None, &m.name)
                    .map(|r| r == ci)
                    .unwrap_or(false)
            });
        match key_pos {
            Some(kp) => {
                let rc = &right.columns[rkeys[kp]];
                out.push_column(m.clone(), rc.take(extra));
            }
            None => out.push_column(m.clone(), c.take_nullable(&nulls)),
        }
    }
    for (ci, (m, c)) in right.meta.iter().zip(&right.columns).enumerate() {
        if rkeys.contains(&ci) {
            continue;
        }
        out.push_column(m.clone(), c.take(extra));
    }
    out
}
