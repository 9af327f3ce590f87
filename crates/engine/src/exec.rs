//! Query execution: joins, filters, grouping/aggregation, window functions,
//! ordering — late-materialized, the way the columnar DBMSes the paper
//! runs on execute the SPJA statements JoinBoost emits. The executor runs
//! the plan `plan::bind` made and decides only what depends on
//! the data.

use std::borrow::Cow;

use joinboost_sql::ast::{Expr, JoinKind, Query, Value};

use crate::agg::{self, PreparedAgg};
use crate::column::Column;
use crate::db::{Database, ExecMode};
use crate::error::{EngineError, Result};
use crate::expr::{eval, eval_all, eval_mask, eval_rows, EvalContext, Slots, SubqueryRunner};
use crate::keys::{group_rows, JoinIndex, KeySet, SortKeys};
use crate::mask::Mask;
use crate::plan::{bind_query, names_read, Output, QueryPlan, Source, Step};
use crate::table::{ColumnMeta, Table};

/// An `IN (SELECT ..)` subquery is a statement of its own.
impl SubqueryRunner for Database {
    fn run_subquery(&self, q: &Query) -> Result<Table> {
        let mut slots = Slots::default();
        self.run_query(&bind_query(q, &mut slots)?, slots)
    }
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

/// The columns of `t` named `using`, in order.
fn key_columns<'t>(t: &'t Table, using: &[String]) -> Result<Vec<&'t Column>> {
    using.iter().map(|k| t.column(None, k)).collect()
}

impl Database {
    /// Run a bound query block with the slots of its statement.
    pub(crate) fn run_query(&self, plan: &QueryPlan, slots: Slots) -> Result<Table> {
        self.block(plan, &EvalContext::bound(self, slots))
    }

    /// `e` over every row of `t`, in the configured execution mode.
    pub(crate) fn eval<'p>(&self, e: &'p Expr, t: &Table, ctx: &EvalContext<'p>) -> Result<Column> {
        match self.config().exec {
            ExecMode::Columnar => eval(e, t, ctx),
            ExecMode::Row => eval_rows(e, t, ctx),
        }
    }

    /// The predicate `p` over every row of `t`, in the configured mode.
    pub(crate) fn predicate<'p>(
        &self,
        p: &'p Expr,
        t: &Table,
        ctx: &EvalContext<'p>,
    ) -> Result<Mask> {
        match self.config().exec {
            ExecMode::Columnar => eval_mask(p, t, ctx),
            ExecMode::Row => Ok(Mask::truthy(&eval_rows(p, t, ctx)?)),
        }
    }

    fn block<'p>(&self, q: &'p QueryPlan<'p>, ctx: &EvalContext<'p>) -> Result<Table> {
        let input = Selected::all(self.source(&q.source, ctx)?);
        let input = (q.steps.iter()).try_fold(input, |input, step| self.step(input, step, ctx))?;
        // The output, over the surviving rows of the columns it reads
        // (ORDER BY may fall back on a projection's input too).
        let input = input.view(q.reads.as_deref());
        let input: &Table = &input;
        let (mut output, fallback) = match &q.output {
            Output::Project(items) => (self.project(items, input, ctx)?, Some(input)),
            Output::Aggregate(keys, aggs, outputs) => {
                (self.aggregate(keys, aggs, outputs, input, ctx)?, None)
            }
        };
        // ORDER BY, resolved against the output first; keys are extracted
        // once (dict ranks for strings, f64 for numerics).
        if !q.order.is_empty() {
            let n = output.num_rows();
            let mut sort_cols: Vec<Column> = Vec::with_capacity(q.order.len());
            for item in q.order {
                let col = match (eval(&item.expr, &output, ctx), fallback) {
                    (Ok(c), _) => c,
                    (Err(_), Some(input)) => eval(&item.expr, input, ctx)?,
                    (Err(e), None) => return Err(e),
                };
                if col.len() != n {
                    return Err(EngineError::Other("ORDER BY arity mismatch".into()));
                }
                sort_cols.push(col);
            }
            let descs: Vec<bool> = q.order.iter().map(|o| o.desc).collect();
            let keys = SortKeys::new(sort_cols, &descs);
            let perm = match q.top_k {
                // The k winners by a bounded insertion set, O(n log k) (split
                // queries use k = 1); over no more than k rows, the sort.
                Some(k) if k < n => keys.top_k(n, k),
                _ => keys.sort_permutation(n),
            };
            output = output.take(&perm);
        }
        match q.limit {
            Some(k) if k < output.num_rows() => Ok(output.head(k)),
            _ => Ok(output),
        }
    }

    /// The `items` of a column-only projection ([`QueryPlan::pass_through`])
    /// over the rows of `scanned`, its source, that survive its steps; and
    /// those rows (`None`: every row).
    pub(crate) fn project_selected<'p>(
        &self,
        q: &'p QueryPlan<'p>,
        scanned: Table,
        items: &[(String, &'p Expr)],
        ctx: &EvalContext<'p>,
    ) -> Result<(Table, Option<Vec<u32>>)> {
        let input = Selected::all(scanned);
        let input = (q.steps.iter()).try_fold(input, |input, step| self.step(input, step, ctx))?;
        let reads = names_read(items.iter().map(|(_, e)| *e));
        let output = self.project(items, &input.view(Some(&reads)), ctx)?;
        Ok((output, input.sel))
    }

    fn source<'p>(&self, source: &'p Source<'p>, ctx: &EvalContext<'p>) -> Result<Table> {
        match source {
            Source::Scan(table, binding, cols) => {
                Ok(self.scan(table, cols.as_deref())?.with_qualifier(binding))
            }
            Source::Subquery(plan, alias) => {
                let t = self.block(plan, ctx)?.unqualified();
                Ok(match *alias {
                    Some(a) => t.with_qualifier(a),
                    None => t,
                })
            }
            Source::OneRow => Ok(Table::from_columns(vec![("__dummy", Column::int(vec![0]))])),
        }
    }

    fn step<'p>(
        &self,
        mut input: Selected,
        step: &'p Step<'p>,
        ctx: &EvalContext<'p>,
    ) -> Result<Selected> {
        match step {
            // `mask` is positional over the surviving rows of the columns
            // each conjunct reads.
            Step::Filter(conjuncts) => {
                for (conjunct, reads) in conjuncts {
                    let mask = self.predicate(conjunct, &input.view(Some(reads)), ctx)?;
                    input.narrow(mask.select(input.sel.as_deref()));
                }
            }
            // Keep the left rows whose key the right side holds: left columns
            // only, annotations unchanged, no row copied.
            Step::SemiProbe(right, using) => {
                let right = self.source(right, ctx)?;
                let set = KeySet::build(&key_columns(&right, using)?, right.num_rows());
                let probe = key_columns(&input.table, using)?;
                let kept = (set.probe(&probe)).select(input.sel.as_deref(), input.table.num_rows());
                input.narrow(kept);
            }
            Step::HashJoin(right, kind, using) => {
                let right = self.source(right, ctx)?;
                return hash_join(input.into_table(), right, *kind, using);
            }
            // Every pair of rows: all of them share the empty key.
            Step::NestedLoop(right) => {
                let right = self.source(right, ctx)?;
                return hash_join(input.into_table(), right, JoinKind::Inner, &[]);
            }
        }
        Ok(input)
    }

    // ---- projection / aggregation -----------------------------------------

    fn project<'p>(
        &self,
        items: &[(String, &'p Expr)],
        input: &Table,
        ctx: &EvalContext<'p>,
    ) -> Result<Table> {
        // Every item is evaluated in one scope, so window nodes over one
        // `ORDER BY` key share its sort.
        let exprs: Vec<&Expr> = (items.iter())
            .map(|(_, e)| *e)
            .filter(|e| !matches!(e, Expr::Wildcard))
            .collect();
        let mut cols = eval_all(&exprs, input, ctx, self.config().exec)?.into_iter();
        let mut out = Table::new();
        for (name, e) in items {
            if matches!(e, Expr::Wildcard) {
                let columns = input.meta.iter().zip(&input.columns);
                for (m, c) in columns.filter(|(m, _)| !m.name.starts_with("__")) {
                    out.push_column(ColumnMeta::new(m.name.clone()), c.clone());
                }
                continue;
            }
            let col = cols.next().expect("one column per expression item");
            out.push_column(ColumnMeta::new(name.clone()), col);
        }
        Ok(out)
    }

    fn aggregate<'p>(
        &self,
        keys: &'p [Expr],
        aggs: &'p [&'p Expr],
        outputs: &'p [(String, Expr)],
        input: &Table,
        ctx: &EvalContext<'p>,
    ) -> Result<Table> {
        let n = input.num_rows();
        // 1. Group ids, over keys packed into a u64 or a flat byte buffer.
        let key_cols: Vec<Column> = (keys.iter())
            .map(|e| eval(e, input, ctx))
            .collect::<Result<_>>()?;
        let (gids, num_groups, rep_rows, sizes) = if key_cols.is_empty() {
            (vec![0u32; n], 1usize, vec![0u32], vec![n as u32])
        } else {
            let refs: Vec<&Column> = key_cols.iter().collect();
            let g = group_rows(&refs, n);
            (g.gids, g.num_groups, g.reps, g.sizes)
        };
        // 2. Every aggregate's argument evaluated once, then all banks filled
        // in one fused pass.
        let mut prepared: Vec<PreparedAgg> = Vec::with_capacity(aggs.len());
        for agg in aggs {
            prepared.push(self.prepare_aggregate(agg, input, ctx)?);
        }
        let agg_cols = agg::compute_grouped(&prepared, &gids, num_groups, &sizes)?;
        // 3. Synthetic table: group keys (named __key{i}) + aggregates.
        let mut synth = Table::new();
        for (i, kc) in key_cols.iter().enumerate() {
            synth.push_column(ColumnMeta::new(format!("__key{i}")), kc.take(&rep_rows));
        }
        for (i, ac) in agg_cols.into_iter().enumerate() {
            synth.push_column(ColumnMeta::new(format!("__agg{i}")), ac);
        }
        // 4. The select items, rewritten over the synthetic table.
        let mut out = Table::new();
        for (name, e) in outputs {
            out.push_column(ColumnMeta::new(name.clone()), eval(e, &synth, ctx)?);
        }
        Ok(out)
    }

    /// Evaluate one aggregate's argument (once) into the typed form the
    /// fused accumulator pass consumes.
    fn prepare_aggregate<'p>(
        &self,
        agg: &'p Expr,
        input: &Table,
        ctx: &EvalContext<'p>,
    ) -> Result<PreparedAgg> {
        let Expr::Func { name, args } = agg else {
            return Err(EngineError::Other("not an aggregate".into()));
        };
        let arg = match args.first() {
            Some(Expr::Wildcard) if name == "COUNT" => return PreparedAgg::new(name, None),
            // `SUM(1) AS jb_c` rides on every message: k × the group's size.
            Some(Expr::Literal(Value::Int(k))) if name == "SUM" => {
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

/// An inner, left or full join on the `using` keys, through a hash index
/// over the right side's flat encoded keys (u64 fast path for int keys,
/// byte-packed fallback otherwise).
fn hash_join(left: Table, right: Table, kind: JoinKind, using: &[String]) -> Result<Selected> {
    let keys = |t: &Table| {
        using
            .iter()
            .map(|k| t.resolve(None, k))
            .collect::<Result<Vec<_>>>()
    };
    let (rkeys, lkeys) = (keys(&right)?, keys(&left)?);
    let (ln, rn) = (left.num_rows(), right.num_rows());
    let index = JoinIndex::build(
        &key_columns(&left, using)?,
        &key_columns(&right, using)?,
        ln,
        rn,
    );
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
            None if kind == JoinKind::Inner => {}
            None => {
                lidx.push(i as u32);
                ridx.push(None);
            }
        }
    }
    let mut out = assemble_join(&left, &right, &rkeys, &lidx, &ridx);
    if kind == JoinKind::Full {
        let extra: Vec<u32> = (0..rn as u32).filter(|&r| !rmatched[r as usize]).collect();
        if !extra.is_empty() {
            let extra_tbl = assemble_right_only(&left, &right, &lkeys, &rkeys, &extra);
            for (c, e) in out.columns.iter_mut().zip(&extra_tbl.columns) {
                *c = Column::concat(&[c, e])?;
            }
        }
    }
    Ok(Selected::all(out))
}

/// Assemble a join result: all left columns — the merged USING keys
/// among them, whose NULL rows only arise in a FULL join's right-only
/// rows, assembled separately — and the right columns but its keys.
fn assemble_join(
    left: &Table,
    right: &Table,
    rkeys: &[usize],
    lidx: &[u32],
    ridx: &[Option<u32>],
) -> Table {
    let mut out = Table::new();
    for (m, c) in left.meta.iter().zip(&left.columns) {
        out.push_column(m.clone(), c.take(lidx));
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
    lkeys: &[usize],
    rkeys: &[usize],
    extra: &[u32],
) -> Table {
    let mut out = Table::new();
    let nulls: Vec<Option<u32>> = vec![None; extra.len()];
    for (ci, (m, c)) in left.meta.iter().zip(&left.columns).enumerate() {
        out.push_column(
            m.clone(),
            match lkeys.iter().position(|&k| k == ci) {
                Some(kp) => right.columns[rkeys[kp]].take(extra),
                None => c.take_nullable(&nulls),
            },
        );
    }
    for (ci, (m, c)) in right.meta.iter().zip(&right.columns).enumerate() {
        if !rkeys.contains(&ci) {
            out.push_column(m.clone(), c.take(extra));
        }
    }
    out
}
