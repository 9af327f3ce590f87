//! Expression evaluation: vectorized (columnar) and tuple-at-a-time (row
//! mode, used to model row-oriented engines like `X-row` in the paper).

use std::cell::RefCell;
use std::rc::Rc;

use joinboost_sql::ast::{BinaryOp, Expr, Query, UnaryOp, Value};

use crate::column::{Column, ColumnData};
use crate::datum::Datum;
use crate::error::{EngineError, Result};
use crate::keys::KeySet;
use crate::table::Table;

/// Something that can execute a subquery (implemented by the executor;
/// needed for `IN (SELECT ..)` predicates).
pub trait SubqueryRunner {
    /// Execute a subquery to a materialized table.
    fn run_subquery(&self, q: &Query) -> Result<Table>;
}

/// Evaluation context of one query block: the subquery runner plus the
/// key sets of its `IN (SELECT ..)` subqueries, each computed once.
pub struct EvalContext<'a> {
    /// Executes `IN (SELECT ..)` subqueries.
    pub runner: &'a dyn SubqueryRunner,
    /// Keyed by the subquery itself: the residual update's `CASE` spells
    /// the same dimension predicate out once per leaf it applies to.
    subquery_sets: RefCell<Vec<(Query, Rc<KeySet>)>>,
}

impl<'a> EvalContext<'a> {
    /// A fresh context with no subquery evaluated yet.
    pub fn new(runner: &'a dyn SubqueryRunner) -> Self {
        EvalContext {
            runner,
            subquery_sets: RefCell::new(Vec::new()),
        }
    }

    fn subquery_set(&self, q: &Query) -> Result<Rc<KeySet>> {
        if let Some((_, set)) = self.subquery_sets.borrow().iter().find(|(k, _)| k == q) {
            return Ok(Rc::clone(set));
        }
        let t = self.runner.run_subquery(q)?;
        if t.num_columns() != 1 {
            return Err(EngineError::Other(
                "IN subquery must return exactly one column".into(),
            ));
        }
        let set = Rc::new(KeySet::build(&[&t.columns[0]], t.num_rows()));
        self.subquery_sets
            .borrow_mut()
            .push((q.clone(), Rc::clone(&set)));
        Ok(set)
    }
}

/// One evaluation over one table. Subexpressions whose value depends on
/// the whole table — window prefix sums, `IN (SELECT ..)` masks — are
/// computed once per scope and found again by their structure, so a
/// repeated `(probe, subquery)` pair costs one probe pass and row mode
/// builds a window column once, not once per row.
struct Scope<'a> {
    table: &'a Table,
    ctx: &'a EvalContext<'a>,
    windows: Memo<'a, Rc<Column>>,
    /// One bit per row: the residual update holds a dozen of these over
    /// the fact table until its `CASE` ends, and as 8-byte-per-row
    /// columns they would push the statement's working set out of cache.
    in_masks: Memo<'a, Rc<Vec<u64>>>,
}

/// Values remembered by the expression node they were computed for,
/// compared by structure (never by address).
type Memo<'a, T> = RefCell<Vec<(&'a Expr, T)>>;

fn memoized<'a, T: Clone>(
    memo: &Memo<'a, T>,
    expr: &'a Expr,
    compute: impl FnOnce() -> Result<T>,
) -> Result<T> {
    if let Some((_, v)) = memo.borrow().iter().find(|(k, _)| *k == expr) {
        return Ok(v.clone());
    }
    let v = compute()?;
    memo.borrow_mut().push((expr, v.clone()));
    Ok(v)
}

impl<'a> Scope<'a> {
    fn new(table: &'a Table, ctx: &'a EvalContext<'a>) -> Self {
        Scope {
            table,
            ctx,
            windows: RefCell::new(Vec::new()),
            in_masks: RefCell::new(Vec::new()),
        }
    }

    fn window_column(&self, expr: &'a Expr) -> Result<Rc<Column>> {
        let Expr::WindowSum { arg, order_by } = expr else {
            return Err(EngineError::Other("not a window expression".into()));
        };
        memoized(&self.windows, expr, || {
            let vals = self.eval(arg)?.to_f64_vec()?;
            let keys = self.eval(order_by)?;
            let n = vals.len();
            let mut perm: Vec<u32> = (0..n as u32).collect();
            perm.sort_by(|&a, &b| keys.get(a as usize).sql_cmp(&keys.get(b as usize)));
            let mut out = vec![0.0f64; n];
            let mut acc = 0.0;
            for &i in &perm {
                let v = vals[i as usize];
                if !v.is_nan() {
                    acc += v;
                }
                out[i as usize] = acc;
            }
            Ok(Rc::new(Column::float(out)))
        })
    }
}

/// Vectorized evaluation of `expr` over all rows of `table`.
pub fn eval(expr: &Expr, table: &Table, ctx: &EvalContext) -> Result<Column> {
    Scope::new(table, ctx).eval(expr)
}

/// Tuple-at-a-time evaluation of `expr` over all rows of `table` (the
/// row-oriented engine mode). Semantically identical to [`eval`] but
/// dispatches once per row through [`Datum`] values, which is what makes
/// row engines slower on analytical scans.
pub fn eval_rows(expr: &Expr, table: &Table, ctx: &EvalContext) -> Result<Column> {
    let scope = Scope::new(table, ctx);
    let mut vals = Vec::with_capacity(table.num_rows());
    for row in 0..table.num_rows() {
        vals.push(scope.eval_row(expr, row)?);
    }
    Ok(Column::from_datums(&vals))
}

impl<'a> Scope<'a> {
    fn eval(&self, expr: &'a Expr) -> Result<Column> {
        let n = self.table.num_rows();
        match expr {
            Expr::Column { table: q, name } => Ok(self.table.column(q.as_deref(), name)?.clone()),
            Expr::Literal(v) => Ok(broadcast_literal(v, n)),
            Expr::Binary { op, left, right } => {
                let l = self.eval(left)?;
                let r = self.eval(right)?;
                eval_binary(*op, &l, &r)
            }
            Expr::Unary { op, expr } => {
                let c = self.eval(expr)?;
                eval_unary(*op, &c)
            }
            Expr::Func { name, args } => {
                let cols: Vec<Column> = args.iter().map(|a| self.eval(a)).collect::<Result<_>>()?;
                eval_scalar_func(name, &cols, n)
            }
            Expr::Wildcard => Err(EngineError::Other(
                "* is only valid in COUNT(*) or as a select item".into(),
            )),
            Expr::WindowSum { .. } => Ok((*self.window_column(expr)?).clone()),
            Expr::Case { whens, else_expr } => {
                let default = else_expr.as_deref().map(|e| self.eval(e)).transpose()?;
                let mut merge = CaseMerge::new(default, n);
                for (cond, then) in whens {
                    merge.branch(&self.eval(cond)?, &self.eval(then)?);
                }
                Ok(merge.finish())
            }
            Expr::InSubquery {
                expr: probe,
                query,
                negated,
            } => {
                let mask = memoized(&self.in_masks, expr, || {
                    let set = self.ctx.subquery_set(query)?;
                    Ok(Rc::new(membership(&set, &self.eval(probe)?, *negated)))
                })?;
                Ok(mask_column(&mask, n))
            }
            Expr::InList {
                expr: probe,
                list,
                negated,
            } => {
                let c = self.eval(probe)?;
                // Values of another type than the probe's can never match
                // it, so the set holds the probe-typed items only.
                let mut items = Vec::with_capacity(list.len());
                for item in list {
                    let lc = self.eval(item)?;
                    if lc.len() != n && lc.len() != 1 {
                        return Err(EngineError::Other("IN list item arity".into()));
                    }
                    if !lc.is_empty() && lc.is_valid(0) && lc.dtype() == c.dtype() {
                        items.push(lc.get(0));
                    }
                }
                let items = Column::from_datums(&items);
                let set = KeySet::build(&[&items], items.len());
                Ok(mask_column(&membership(&set, &c, *negated), n))
            }
            Expr::IsNull { expr, negated } => {
                let c = self.eval(expr)?;
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push((c.is_valid(i) == *negated) as i64);
                }
                Ok(Column::int(out))
            }
        }
    }
}

/// `[NOT] IN` over a key set, one bit per probe row: set where the value
/// is (not) a member; a NULL probe value is unset either way.
fn membership(set: &KeySet, probe: &Column, negated: bool) -> Vec<u64> {
    let cols = [probe];
    let mut p = set.probe(&cols);
    let mut bits = vec![0u64; probe.len().div_ceil(64)];
    for i in 0..probe.len() {
        let hit = probe.is_valid(i) && p.contains(i) != negated;
        bits[i >> 6] |= (hit as u64) << (i & 63);
    }
    bits
}

/// The 0/1 column of a one-bit-per-row mask over `n` rows.
fn mask_column(bits: &[u64], n: usize) -> Column {
    Column::int(
        (0..n)
            .map(|i| (bits[i >> 6] >> (i & 63) & 1) as i64)
            .collect(),
    )
}

/// First-match-wins merge of `CASE` branches (and of an `UPDATE`'s new
/// values into the old). Stays on typed slices while the default and
/// every branch so far are NULL-free columns of one numeric type — the
/// residual update's shape — and falls back to per-row [`Datum`]s, with
/// the result's type inferred from the values that won, otherwise. Both
/// produce the same column.
pub(crate) struct CaseMerge {
    out: Merged,
    decided: Vec<bool>,
}

enum Merged {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Datums(Vec<Datum>),
}

impl CaseMerge {
    /// Start from the `ELSE` column (`None`: NULL) over `n` rows.
    pub(crate) fn new(default: Option<Column>, n: usize) -> CaseMerge {
        let out = match default {
            None => Merged::Datums(vec![Datum::Null; n]),
            // (An empty result has no values to infer a type from.)
            Some(c) => match (c.data, c.validity) {
                (ColumnData::Int(v), None) if n > 0 => Merged::Int(v),
                (ColumnData::Float(v), None) if n > 0 => Merged::Float(v),
                (data, validity) => {
                    let c = Column { data, validity };
                    Merged::Datums((0..n).map(|i| c.get(i)).collect())
                }
            },
        };
        CaseMerge {
            out,
            decided: vec![false; n],
        }
    }

    /// Rows where `cond` is true and no earlier branch was take `then`.
    pub(crate) fn branch(&mut self, cond: &Column, then: &Column) {
        fn take<T: Copy>(out: &mut [T], decided: &mut [bool], cond: &Column, then: &[T]) {
            cond.for_each_truthy(|i| {
                if !decided[i] {
                    out[i] = then[i];
                    decided[i] = true;
                }
            });
        }
        match (&mut self.out, &then.data, &then.validity) {
            (Merged::Int(out), ColumnData::Int(t), None) => take(out, &mut self.decided, cond, t),
            (Merged::Float(out), ColumnData::Float(t), None) => {
                take(out, &mut self.decided, cond, t)
            }
            (out, _, _) => {
                let (out, decided) = (out.datums(), &mut self.decided);
                cond.for_each_truthy(|i| {
                    if !decided[i] {
                        out[i] = then.get(i);
                        decided[i] = true;
                    }
                });
            }
        }
    }

    /// The merged column.
    pub(crate) fn finish(self) -> Column {
        match self.out {
            Merged::Int(v) => Column::int(v),
            Merged::Float(v) => Column::float(v),
            Merged::Datums(d) => Column::from_datums(&d),
        }
    }
}

impl Merged {
    /// The per-row form, converting typed values first.
    fn datums(&mut self) -> &mut Vec<Datum> {
        match self {
            Merged::Int(v) => *self = Merged::Datums(v.iter().map(|&x| Datum::Int(x)).collect()),
            Merged::Float(v) => {
                *self = Merged::Datums(v.iter().map(|&x| Datum::Float(x)).collect())
            }
            Merged::Datums(_) => {}
        }
        let Merged::Datums(d) = self else {
            unreachable!("converted above")
        };
        d
    }
}

fn broadcast_literal(v: &Value, n: usize) -> Column {
    match v {
        Value::Int(x) => Column::int(vec![*x; n]),
        Value::Float(x) => Column::float(vec![*x; n]),
        Value::Str(s) => Column::str(vec![s.clone(); n]),
        Value::Null => Column {
            data: ColumnData::Float(vec![0.0; n]),
            validity: Some(vec![false; n]),
        },
    }
}

fn eval_unary(op: UnaryOp, c: &Column) -> Result<Column> {
    let n = c.len();
    match op {
        UnaryOp::Neg => match (&c.data, &c.validity) {
            (ColumnData::Int(v), None) => Ok(Column::int(v.iter().map(|x| -x).collect())),
            (ColumnData::Float(v), None) => Ok(Column::float(v.iter().map(|x| -x).collect())),
            _ => {
                let mut out = Vec::with_capacity(n);
                for i in 0..n {
                    out.push(match c.get(i) {
                        Datum::Int(x) => Datum::Int(-x),
                        Datum::Float(x) => Datum::Float(-x),
                        Datum::Null => Datum::Null,
                        Datum::Str(_) => {
                            return Err(EngineError::TypeMismatch("negate string".into()))
                        }
                    });
                }
                Ok(Column::from_datums(&out))
            }
        },
        UnaryOp::Not => Ok(Column::int(
            (0..n).map(|i| !c.is_truthy(i) as i64).collect(),
        )),
    }
}

fn eval_binary(op: BinaryOp, l: &Column, r: &Column) -> Result<Column> {
    use BinaryOp::*;
    let n = l.len().max(r.len());
    // Fast path: dense numeric arithmetic over f64.
    if matches!(op, Add | Sub | Mul | Div) {
        // Integer-preserving path for Int ⊕ Int (except Div).
        if let (Some(a), Some(b)) = (l.as_i64_slice(), r.as_i64_slice()) {
            if op != Div {
                let out: Vec<i64> = a
                    .iter()
                    .zip(b)
                    .map(|(&x, &y)| match op {
                        Add => x.wrapping_add(y),
                        Sub => x.wrapping_sub(y),
                        Mul => x.wrapping_mul(y),
                        _ => unreachable!(),
                    })
                    .collect();
                return Ok(Column::int(out));
            }
        }
        if l.validity.is_none()
            && r.validity.is_none()
            && !matches!(l.data, ColumnData::Str { .. })
            && !matches!(r.data, ColumnData::Str { .. })
            && op != Div
        {
            // Operate on the typed slices directly — no intermediate
            // to_f64_vec materialization of either operand.
            let apply = |x: f64, y: f64| match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                _ => unreachable!(),
            };
            let out: Vec<f64> = match (&l.data, &r.data) {
                (ColumnData::Float(a), ColumnData::Float(b)) => {
                    a.iter().zip(b).map(|(&x, &y)| apply(x, y)).collect()
                }
                (ColumnData::Float(a), ColumnData::Int(b)) => {
                    a.iter().zip(b).map(|(&x, &y)| apply(x, y as f64)).collect()
                }
                (ColumnData::Int(a), ColumnData::Float(b)) => {
                    a.iter().zip(b).map(|(&x, &y)| apply(x as f64, y)).collect()
                }
                // Int/Int took the integer-preserving path above; strings
                // are excluded by the guard.
                _ => unreachable!("int/int and string operands handled earlier"),
            };
            return Ok(Column::float(out));
        }
        // General arithmetic with NULL propagation; division by zero → NULL.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = l.f64_at(i.min(l.len() - 1));
            let b = r.f64_at(i.min(r.len() - 1));
            out.push(match (a, b) {
                (Some(x), Some(y)) => match op {
                    Add => Datum::Float(x + y),
                    Sub => Datum::Float(x - y),
                    Mul => Datum::Float(x * y),
                    Div => {
                        if y == 0.0 {
                            Datum::Null
                        } else {
                            Datum::Float(x / y)
                        }
                    }
                    _ => unreachable!(),
                },
                _ => Datum::Null,
            });
        }
        return Ok(Column::from_datums(&out));
    }
    if matches!(op, And | Or) {
        let combine = |a: bool, b: bool| match op {
            And => (a && b) as i64,
            _ => (a || b) as i64,
        };
        // Comparisons and IN masks are NULL-free ints: combine the slices.
        let out = match (l.as_i64_slice(), r.as_i64_slice()) {
            (Some(a), Some(b)) => (a.iter().zip(b))
                .map(|(&x, &y)| combine(x != 0, y != 0))
                .collect(),
            _ => (0..n)
                .map(|i| combine(l.is_truthy(i), r.is_truthy(i)))
                .collect(),
        };
        return Ok(Column::int(out));
    }
    // Comparisons.
    let mut out = Vec::with_capacity(n);
    let str_l = matches!(l.data, ColumnData::Str { .. });
    let str_r = matches!(r.data, ColumnData::Str { .. });
    for i in 0..n {
        let li = i.min(l.len() - 1);
        let ri = i.min(r.len() - 1);
        if !l.is_valid(li) || !r.is_valid(ri) {
            out.push(Datum::Null);
            continue;
        }
        let ord = if str_l && str_r {
            l.get(li).as_str().unwrap().cmp(r.get(ri).as_str().unwrap())
        } else if str_l || str_r {
            return Err(EngineError::TypeMismatch(
                "cannot compare string with number".into(),
            ));
        } else {
            let x = l.f64_at(li).expect("valid numeric");
            let y = r.f64_at(ri).expect("valid numeric");
            x.partial_cmp(&y).unwrap_or(std::cmp::Ordering::Equal)
        };
        use std::cmp::Ordering::*;
        let b = match op {
            Eq => ord == Equal,
            Neq => ord != Equal,
            Lt => ord == Less,
            LtEq => ord != Greater,
            Gt => ord == Greater,
            GtEq => ord != Less,
            _ => unreachable!(),
        };
        out.push(Datum::Int(b as i64));
    }
    Ok(Column::from_datums(&out))
}

fn eval_scalar_func(name: &str, args: &[Column], n: usize) -> Result<Column> {
    let unary_math = |f: fn(f64) -> f64| -> Result<Column> {
        let c = &args[0];
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(match c.f64_at(i) {
                Some(x) => {
                    let y = f(x);
                    if y.is_finite() {
                        Datum::Float(y)
                    } else {
                        Datum::Null
                    }
                }
                None => Datum::Null,
            });
        }
        Ok(Column::from_datums(&out))
    };
    match name {
        "ABS" => unary_math(f64::abs),
        "LOG" | "LN" => unary_math(f64::ln),
        "EXP" => unary_math(f64::exp),
        "SQRT" => unary_math(f64::sqrt),
        "FLOOR" => unary_math(f64::floor),
        "CEIL" => unary_math(f64::ceil),
        "SIGN" => unary_math(f64::signum),
        "POW" | "POWER" => {
            if args.len() != 2 {
                return Err(EngineError::Other("POW takes 2 arguments".into()));
            }
            let (a, b) = (&args[0], &args[1]);
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                out.push(match (a.f64_at(i), b.f64_at(i)) {
                    (Some(x), Some(y)) => Datum::Float(x.powf(y)),
                    _ => Datum::Null,
                });
            }
            Ok(Column::from_datums(&out))
        }
        "LEAST" | "GREATEST" => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let mut acc: Option<f64> = None;
                for c in args {
                    if let Some(x) = c.f64_at(i) {
                        acc = Some(match acc {
                            None => x,
                            Some(a) => {
                                if name == "LEAST" {
                                    a.min(x)
                                } else {
                                    a.max(x)
                                }
                            }
                        });
                    }
                }
                out.push(acc.map_or(Datum::Null, Datum::Float));
            }
            Ok(Column::from_datums(&out))
        }
        "COALESCE" => {
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let mut v = Datum::Null;
                for c in args {
                    if c.is_valid(i.min(c.len().saturating_sub(1))) {
                        v = c.get(i.min(c.len() - 1));
                        break;
                    }
                }
                out.push(v);
            }
            Ok(Column::from_datums(&out))
        }
        "SUM" | "COUNT" | "AVG" | "MIN" | "MAX" => Err(EngineError::Other(format!(
            "aggregate {name} in scalar context (missing GROUP BY rewrite?)"
        ))),
        other => Err(EngineError::Other(format!("unknown function {other}"))),
    }
}

impl<'a> Scope<'a> {
    fn eval_row(&self, expr: &'a Expr, row: usize) -> Result<Datum> {
        match expr {
            Expr::Column { table: q, name } => Ok(self.table.column(q.as_deref(), name)?.get(row)),
            Expr::Literal(v) => Ok(match v {
                Value::Int(x) => Datum::Int(*x),
                Value::Float(x) => Datum::Float(*x),
                Value::Str(s) => Datum::Str(s.clone()),
                Value::Null => Datum::Null,
            }),
            Expr::Binary { op, left, right } => {
                let l = self.eval_row(left, row)?;
                let r = self.eval_row(right, row)?;
                datum_binary(*op, &l, &r)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_row(expr, row)?;
                match op {
                    UnaryOp::Neg => match v {
                        Datum::Int(x) => Ok(Datum::Int(-x)),
                        Datum::Float(x) => Ok(Datum::Float(-x)),
                        Datum::Null => Ok(Datum::Null),
                        Datum::Str(_) => Err(EngineError::TypeMismatch("negate string".into())),
                    },
                    UnaryOp::Not => Ok(Datum::Int((!v.is_truthy()) as i64)),
                }
            }
            Expr::Func { name, args } => {
                let vals: Vec<Datum> = args
                    .iter()
                    .map(|a| self.eval_row(a, row))
                    .collect::<Result<_>>()?;
                let cols: Vec<Column> = vals
                    .iter()
                    .map(|v| Column::from_datums(std::slice::from_ref(v)))
                    .collect();
                let c = eval_scalar_func(name, &cols, 1)?;
                Ok(c.get(0))
            }
            Expr::WindowSum { .. } => Ok(self.window_column(expr)?.get(row)),
            Expr::Case { whens, else_expr } => {
                for (cond, then) in whens {
                    if self.eval_row(cond, row)?.is_truthy() {
                        return self.eval_row(then, row);
                    }
                }
                match else_expr {
                    Some(e) => self.eval_row(e, row),
                    None => Ok(Datum::Null),
                }
            }
            Expr::InSubquery {
                expr,
                query,
                negated,
            } => {
                let set = self.ctx.subquery_set(query)?;
                let v = self.eval_row(expr, row)?;
                if v.is_null() {
                    return Ok(Datum::Int(0));
                }
                // The same set the columnar mode probes, asked one value at
                // a time.
                let probe = Column::from_datums(std::slice::from_ref(&v));
                let hit = set.probe(&[&probe]).contains(0);
                Ok(Datum::Int((hit != *negated) as i64))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval_row(expr, row)?;
                if v.is_null() {
                    return Ok(Datum::Int(0));
                }
                let mut hit = false;
                for item in list {
                    let w = self.eval_row(item, row)?;
                    if v.sql_cmp(&w) == std::cmp::Ordering::Equal && !w.is_null() {
                        hit = true;
                        break;
                    }
                }
                Ok(Datum::Int((hit != *negated) as i64))
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval_row(expr, row)?;
                Ok(Datum::Int((v.is_null() != *negated) as i64))
            }
            Expr::Wildcard => Err(EngineError::Other("* in scalar context".into())),
        }
    }
}

fn datum_binary(op: BinaryOp, l: &Datum, r: &Datum) -> Result<Datum> {
    use BinaryOp::*;
    match op {
        And => Ok(Datum::Int((l.is_truthy() && r.is_truthy()) as i64)),
        Or => Ok(Datum::Int((l.is_truthy() || r.is_truthy()) as i64)),
        Add | Sub | Mul | Div => {
            if let (Datum::Int(a), Datum::Int(b)) = (l, r) {
                if op != Div {
                    return Ok(Datum::Int(match op {
                        Add => a.wrapping_add(*b),
                        Sub => a.wrapping_sub(*b),
                        Mul => a.wrapping_mul(*b),
                        _ => unreachable!(),
                    }));
                }
            }
            match (l.as_f64(), r.as_f64()) {
                (Some(x), Some(y)) => Ok(match op {
                    Add => Datum::Float(x + y),
                    Sub => Datum::Float(x - y),
                    Mul => Datum::Float(x * y),
                    Div => {
                        if y == 0.0 {
                            Datum::Null
                        } else {
                            Datum::Float(x / y)
                        }
                    }
                    _ => unreachable!(),
                }),
                _ => Ok(Datum::Null),
            }
        }
        Eq | Neq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Datum::Null);
            }
            use std::cmp::Ordering::*;
            let ord = match (l, r) {
                (Datum::Str(a), Datum::Str(b)) => a.cmp(b),
                (Datum::Str(_), _) | (_, Datum::Str(_)) => {
                    return Err(EngineError::TypeMismatch(
                        "cannot compare string with number".into(),
                    ))
                }
                _ => l.sql_cmp(r),
            };
            let b = match op {
                Eq => ord == Equal,
                Neq => ord != Equal,
                Lt => ord == Less,
                LtEq => ord != Greater,
                Gt => ord == Greater,
                GtEq => ord != Less,
                _ => unreachable!(),
            };
            Ok(Datum::Int(b as i64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinboost_sql::parse_expr;

    struct NoSubqueries;
    impl SubqueryRunner for NoSubqueries {
        fn run_subquery(&self, _q: &Query) -> Result<Table> {
            Err(EngineError::Other("no subqueries in this test".into()))
        }
    }

    fn t1() -> Table {
        Table::from_columns(vec![
            ("a", Column::int(vec![1, 2, 3, 4])),
            ("b", Column::float(vec![0.5, 1.5, 2.5, 3.5])),
        ])
    }

    fn eval_str(sql: &str, table: &Table) -> Column {
        let e = parse_expr(sql).unwrap();
        let runner = NoSubqueries;
        let ctx = EvalContext::new(&runner);
        eval(&e, table, &ctx).unwrap()
    }

    #[test]
    fn arithmetic_int_preserving() {
        let c = eval_str("a * 2 + 1", &t1());
        assert_eq!(c.as_i64_slice().unwrap(), &[3, 5, 7, 9]);
    }

    #[test]
    fn division_is_float_and_zero_is_null() {
        let c = eval_str("a / 2", &t1());
        assert_eq!(c.get(0), Datum::Float(0.5));
        let c = eval_str("a / 0", &t1());
        assert_eq!(c.get(0), Datum::Null);
    }

    #[test]
    fn comparisons_and_logic() {
        let c = eval_str("a > 2 AND b < 3.0", &t1());
        assert_eq!(c.as_i64_slice().unwrap(), &[0, 0, 1, 0]);
        let c = eval_str("NOT a = 1", &t1());
        assert_eq!(c.get(0), Datum::Int(0));
    }

    #[test]
    fn case_expression() {
        let c = eval_str("CASE WHEN a <= 2 THEN 10 ELSE 20 END", &t1());
        assert_eq!(c.as_i64_slice().unwrap(), &[10, 10, 20, 20]);
    }

    #[test]
    fn in_list() {
        let c = eval_str("a IN (1, 3)", &t1());
        assert_eq!(c.as_i64_slice().unwrap(), &[1, 0, 1, 0]);
        let c = eval_str("a NOT IN (1, 3)", &t1());
        assert_eq!(c.as_i64_slice().unwrap(), &[0, 1, 0, 1]);
    }

    #[test]
    fn window_prefix_sum_respects_order() {
        // Table deliberately out of key order.
        let t = Table::from_columns(vec![
            ("k", Column::int(vec![3, 1, 2])),
            ("v", Column::float(vec![30.0, 10.0, 20.0])),
        ]);
        let c = eval_str("SUM(v) OVER (ORDER BY k)", &t);
        // Sorted by k: 10, 30, 60 → scattered back to original positions.
        assert_eq!(c.get(0), Datum::Float(60.0));
        assert_eq!(c.get(1), Datum::Float(10.0));
        assert_eq!(c.get(2), Datum::Float(30.0));
    }

    #[test]
    fn scalar_functions() {
        let c = eval_str("ABS(0 - b)", &t1());
        assert_eq!(c.get(0), Datum::Float(0.5));
        let c = eval_str("LOG(EXP(1.0))", &t1());
        let v = c.f64_at(0).unwrap();
        assert!((v - 1.0).abs() < 1e-12);
        let c = eval_str("GREATEST(a, 2)", &t1());
        assert_eq!(c.get(0), Datum::Float(2.0));
        let c = eval_str("LOG(0.0)", &t1());
        assert_eq!(c.get(0), Datum::Null, "log(0) = -inf becomes NULL");
    }

    #[test]
    fn row_mode_matches_vectorized() {
        let t = t1();
        let exprs = [
            "a * 2 + 1",
            "a / 2",
            "CASE WHEN a <= 2 THEN 10 ELSE 20 END",
            "a IN (1, 3)",
            "b IS NULL",
            "-a + b",
        ];
        let runner = NoSubqueries;
        for sql in exprs {
            let e = parse_expr(sql).unwrap();
            let ctx = EvalContext::new(&runner);
            let vec_col = eval(&e, &t, &ctx).unwrap();
            let row_col = eval_rows(&e, &t, &ctx).unwrap();
            for i in 0..t.num_rows() {
                // Compare numerically (row mode may widen ints).
                match (vec_col.get(i), row_col.get(i)) {
                    (Datum::Null, Datum::Null) => {}
                    (a, b) => {
                        assert_eq!(a.as_f64(), b.as_f64(), "expr {sql} row {i}");
                    }
                }
            }
        }
    }

    /// Answers every subquery with the same key column and counts the
    /// subqueries it was asked to run.
    struct CountingRunner(std::cell::Cell<usize>);
    impl SubqueryRunner for CountingRunner {
        fn run_subquery(&self, _q: &Query) -> Result<Table> {
            self.0.set(self.0.get() + 1);
            Ok(Table::from_columns(vec![("k", Column::int(vec![2, 4]))]))
        }
    }

    #[test]
    fn repeated_in_subqueries_run_once_per_statement() {
        // Three spellings of one subquery and one of another, as the
        // residual update's CASE repeats its dimension predicates.
        let e = parse_expr(
            "CASE WHEN a IN (SELECT k FROM d WHERE f <= 1) THEN 1 \
                  WHEN a IN (SELECT k FROM d WHERE f <= 1) AND a NOT IN (SELECT k FROM d WHERE f > 1) THEN 2 \
                  WHEN a NOT IN (SELECT k FROM d WHERE f <= 1) THEN 3 ELSE 4 END",
        )
        .unwrap();
        for rows in [false, true] {
            let runner = CountingRunner(std::cell::Cell::new(0));
            let ctx = EvalContext::new(&runner);
            let c = match rows {
                false => eval(&e, &t1(), &ctx).unwrap(),
                true => eval_rows(&e, &t1(), &ctx).unwrap(),
            };
            assert_eq!(c.as_i64_slice().unwrap(), &[3, 1, 3, 1]);
            assert_eq!(
                runner.0.get(),
                2,
                "two distinct subqueries (row mode: {rows})"
            );
            // The sets outlive the evaluation: another one over another
            // table in the same statement reuses them.
            eval(&e, &t1(), &ctx).unwrap();
            assert_eq!(runner.0.get(), 2);
        }
    }

    #[test]
    fn typed_case_merge_equals_the_per_row_merge() {
        let t = Table::from_columns(vec![
            ("a", Column::int(vec![1, 2, 3, 4])),
            ("b", Column::float(vec![0.5, 1.5, 2.5, 3.5])),
            (
                "n",
                Column::from_datums(&[Datum::Int(7), Datum::Null, Datum::Int(9), Datum::Null]),
            ),
        ]);
        let runner = NoSubqueries;
        let ctx = EvalContext::new(&runner);
        let col = |sql: &str| eval(&parse_expr(sql).unwrap(), &t, &ctx).unwrap();
        for (case, conds, thens, default) in [
            // One numeric type throughout: the typed path.
            (
                "CASE WHEN a <= 1 THEN b - 1.0 WHEN a <= 3 THEN b * 2.0 ELSE b END",
                vec!["a <= 1", "a <= 3"],
                vec!["b - 1.0", "b * 2.0"],
                Some("b"),
            ),
            (
                "CASE WHEN a > 2 THEN a + 10 ELSE a END",
                vec!["a > 2"],
                vec!["a + 10"],
                Some("a"),
            ),
            // Mixed types, NULL-able branches, no ELSE: the per-row path,
            // entered at the start or part-way through.
            (
                "CASE WHEN a <= 1 THEN b WHEN a <= 2 THEN a ELSE b END",
                vec!["a <= 1", "a <= 2"],
                vec!["b", "a"],
                Some("b"),
            ),
            (
                "CASE WHEN a <= 2 THEN 1 ELSE b END",
                vec!["a <= 2"],
                vec!["1"],
                Some("b"),
            ),
            (
                "CASE WHEN a = 9 THEN 1 ELSE b END",
                vec!["a = 9"],
                vec!["1"],
                Some("b"),
            ),
            (
                "CASE WHEN a <= 2 THEN n ELSE a END",
                vec!["a <= 2"],
                vec!["n"],
                Some("a"),
            ),
            (
                "CASE WHEN n > 7 THEN a ELSE n END",
                vec!["n > 7"],
                vec!["a"],
                Some("n"),
            ),
            (
                "CASE WHEN a <= 2 THEN b END",
                vec!["a <= 2"],
                vec!["b"],
                None,
            ),
        ] {
            // The per-row merge, spelled out.
            let mut want: Vec<Datum> = match default {
                Some(d) => (0..4).map(|i| col(d).get(i)).collect(),
                None => vec![Datum::Null; 4],
            };
            let mut decided = [false; 4];
            for (cond, then) in conds.iter().zip(&thens) {
                for i in 0..4 {
                    if !decided[i] && col(cond).get(i).is_truthy() {
                        want[i] = col(then).get(i);
                        decided[i] = true;
                    }
                }
            }
            assert_eq!(col(case), Column::from_datums(&want), "{case}");
        }
        // No rows: nothing to infer a type from, as for the per-row merge.
        let empty = Table::from_columns(vec![("a", Column::int(vec![]))]);
        let e = parse_expr("CASE WHEN a > 1 THEN a ELSE a END").unwrap();
        assert_eq!(eval(&e, &empty, &ctx).unwrap(), Column::from_datums(&[]));
    }

    #[test]
    fn aggregate_in_scalar_context_errors() {
        let e = parse_expr("SUM(a)").unwrap();
        let runner = NoSubqueries;
        let ctx = EvalContext::new(&runner);
        assert!(eval(&e, &t1(), &ctx).is_err());
    }
}
