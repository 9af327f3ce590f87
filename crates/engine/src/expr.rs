//! Expression evaluation: vectorized (columnar) and tuple-at-a-time (row
//! mode, used to model row-oriented engines like `X-row` in the paper).
//!
//! Columnar evaluation keeps every intermediate in the cheapest form its
//! consumer can read (a `Val`): a column of the scanned table is borrowed,
//! a literal stays one value and is never broadcast, and a predicate is a
//! `Mask` of bits filled by typed kernels. Comparisons follow one rule in
//! both modes: `Int` against `Int` compares as `i64`; any other pair of
//! numbers compares as `f64`, where NaN is equal to everything (as
//! [`Datum::sql_cmp`] and `SortKeys` order it) and `-0.0 = 0.0`; strings
//! compare by content. Logic is three-valued: a comparison with a NULL
//! side is NULL, `NOT NULL` is NULL, and `WHERE` keeps the TRUE rows.

use std::borrow::Cow;
use std::cell::{OnceCell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use joinboost_sql::ast::{BinaryOp, Expr, Query, UnaryOp, Value};

use crate::column::{canonical_f64_bits, Column, ColumnData};
use crate::datum::{DataType, Datum};
use crate::db::ExecMode;
use crate::error::{EngineError, Result};
use crate::keys::{KeySet, SortKeys};
use crate::mask::{for_each_set, null_bits, pack_pair, pack_slice, Mask};
use crate::table::Table;

/// Something that can execute a subquery (implemented by the executor;
/// needed for `IN (SELECT ..)` predicates).
pub trait SubqueryRunner {
    /// Execute a subquery to a materialized table.
    fn run_subquery(&self, q: &Query) -> Result<Table>;
}

/// The slots a statement's expressions are bound to: one per distinct
/// `IN (SELECT ..)` subquery, whose key set the statement builds once; one
/// per distinct `IN` or window node, whose mask or column an evaluation
/// over one table computes once; and one per distinct window `ORDER BY`
/// key, whose sort permutation an evaluation computes once for every
/// window node over that key. Likeness is decided by structure when a
/// node is bound; evaluation finds a node by its address, which the `'s`
/// borrow keeps from being reused while the slots live.
#[derive(Clone, Default)]
pub struct Slots<'s> {
    /// The distinct `IN (SELECT ..)` subqueries.
    pub subqueries: Vec<&'s Query>,
    /// The key set of each subquery, once a statement has built it.
    sets: Vec<OnceCell<Rc<KeySet>>>,
    /// The distinct `IN (SELECT ..)` and window nodes.
    nodes: Vec<&'s Expr>,
    /// The distinct window `ORDER BY` keys.
    orders: Vec<&'s Expr>,
    /// Each bound node's address: its node slot and, for an `IN`, its
    /// subquery slot or, for a window, its order slot.
    index: HashMap<*const Expr, (usize, usize)>,
}

impl<'s> Slots<'s> {
    /// Give every `IN (SELECT ..)` and window node of `exprs` its slots.
    pub fn bind(&mut self, exprs: impl IntoIterator<Item = &'s Expr>) {
        for e in exprs {
            e.walk(&mut |node| {
                let key: *const Expr = node;
                if !matches!(node, Expr::InSubquery { .. } | Expr::WindowSum { .. })
                    || self.index.contains_key(&key)
                {
                    return true;
                }
                let second = match node {
                    Expr::InSubquery { query, .. } => slot_of(&mut self.subqueries, query),
                    Expr::WindowSum { order_by, .. } => slot_of(&mut self.orders, order_by),
                    _ => unreachable!("matched above"),
                };
                self.index
                    .insert(key, (slot_of(&mut self.nodes, node), second));
                true
            });
        }
        self.sets.resize_with(self.subqueries.len(), OnceCell::new);
    }
}

/// The index of the first of `slots` equal to `x`, pushing `x` if none is.
fn slot_of<'s, T: PartialEq>(slots: &mut Vec<&'s T>, x: &'s T) -> usize {
    slots.iter().position(|s| *s == x).unwrap_or_else(|| {
        slots.push(x);
        slots.len() - 1
    })
}

/// One statement's evaluation context: its subquery runner and slots.
pub struct EvalContext<'a> {
    /// Executes `IN (SELECT ..)` subqueries.
    pub runner: &'a dyn SubqueryRunner,
    slots: RefCell<Slots<'a>>,
}

impl<'a> EvalContext<'a> {
    /// A context that binds each evaluation's expression as it starts.
    pub fn new(runner: &'a dyn SubqueryRunner) -> Self {
        EvalContext::bound(runner, Slots::default())
    }

    /// A context over the slots a statement was bound to.
    pub fn bound(runner: &'a dyn SubqueryRunner, slots: Slots<'a>) -> Self {
        EvalContext {
            runner,
            slots: RefCell::new(slots),
        }
    }

    /// The slots of a node (a scope binds its expression as it starts).
    fn slot(&self, e: &Expr) -> (usize, usize) {
        let slot = self.slots.borrow().index.get(&(e as *const Expr)).copied();
        slot.expect("a scope binds every node of its expression")
    }

    /// The key set of subquery slot `i`, built when first probed. (The
    /// subquery runs in a context of its own, which binds nothing here.)
    fn subquery_set(&self, i: usize) -> Result<Rc<KeySet>> {
        let slots = self.slots.borrow();
        cached(&slots.sets[i], || {
            let t = self.runner.run_subquery(slots.subqueries[i])?;
            if t.num_columns() != 1 {
                return Err(EngineError::Other(
                    "IN subquery must return exactly one column".into(),
                ));
            }
            Ok(Rc::new(KeySet::build(&[&t.columns[0]], t.num_rows())))
        })
    }
}

/// One evaluation over one table, with the window column and `IN` mask
/// of each node slot, and the permutation of each window order slot,
/// computed when first needed.
struct Scope<'t, 'a> {
    table: &'t Table,
    ctx: &'t EvalContext<'a>,
    windows: Vec<OnceCell<Rc<Column>>>,
    orders: Vec<OnceCell<Rc<Vec<u32>>>>,
    /// The residual update holds a dozen of these over the fact table
    /// until its `CASE` ends; at one bit per row they stay in cache.
    in_masks: Vec<OnceCell<Rc<Mask>>>,
}

/// The value in `cell`, computed the first time it is asked for.
fn cached<T: Clone>(cell: &OnceCell<T>, compute: impl FnOnce() -> Result<T>) -> Result<T> {
    if let Some(v) = cell.get() {
        return Ok(v.clone());
    }
    let v = compute()?;
    Ok(cell.get_or_init(|| v).clone())
}

impl<'t, 'a> Scope<'t, 'a> {
    /// A scope for evaluating `exprs`, bound first.
    fn new(
        exprs: impl IntoIterator<Item = &'a Expr>,
        table: &'t Table,
        ctx: &'t EvalContext<'a>,
    ) -> Self {
        ctx.slots.borrow_mut().bind(exprs);
        let (n, orders) = {
            let slots = ctx.slots.borrow();
            (slots.nodes.len(), slots.orders.len())
        };
        Scope {
            table,
            ctx,
            windows: vec![OnceCell::new(); n],
            orders: vec![OnceCell::new(); orders],
            in_masks: vec![OnceCell::new(); n],
        }
    }

    /// `SUM(arg) OVER (ORDER BY key)`: the running sum of `arg` (NaN and
    /// NULL rows add nothing) along the stable sort by `key`, NULLs last
    /// and NaN equal to every value (the order of [`Datum::sql_cmp`]).
    /// The sort runs once per distinct key in the scope, on the typed
    /// `SortKeys` comparator that `ORDER BY` uses, and every window node
    /// over that key shares its permutation.
    fn window_column(&self, expr: &Expr) -> Result<Rc<Column>> {
        let Expr::WindowSum { arg, order_by } = expr else {
            return Err(EngineError::Other("not a window expression".into()));
        };
        let (node, order) = self.ctx.slot(expr);
        cached(&self.windows[node], || {
            let vals = self.column(arg)?.to_f64_vec()?;
            let n = vals.len();
            let perm = cached(&self.orders[order], || {
                let keys = self.column(order_by)?.into_owned();
                Ok(Rc::new(
                    SortKeys::new(vec![keys], &[false]).sort_permutation(n),
                ))
            })?;
            let mut out = vec![0.0f64; n];
            let mut acc = 0.0;
            for &i in perm.iter() {
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

/// Vectorized evaluation of `expr` over all rows of `table`; a column
/// reference comes back sharing the table's buffer.
pub fn eval<'a>(expr: &'a Expr, table: &Table, ctx: &EvalContext<'a>) -> Result<Column> {
    Scope::new([expr], table, ctx).output(expr, ExecMode::Columnar)
}

/// Vectorized evaluation of the predicate `expr` over all rows of `table`.
pub(crate) fn eval_mask<'a>(expr: &'a Expr, table: &Table, ctx: &EvalContext<'a>) -> Result<Mask> {
    Scope::new([expr], table, ctx).mask(expr)
}

/// Tuple-at-a-time evaluation of `expr` over all rows of `table` (the
/// row-oriented engine mode). Semantically identical to [`eval`] but
/// dispatches once per row through [`Datum`] values, which is what makes
/// row engines slower on analytical scans.
pub fn eval_rows<'a>(expr: &'a Expr, table: &Table, ctx: &EvalContext<'a>) -> Result<Column> {
    Scope::new([expr], table, ctx).output(expr, ExecMode::Row)
}

/// Each of `exprs` over all rows of `table`, in `mode`, in one scope: a
/// projection's window nodes over one `ORDER BY` key share one sort.
pub(crate) fn eval_all<'a>(
    exprs: &[&'a Expr],
    table: &Table,
    ctx: &EvalContext<'a>,
    mode: ExecMode,
) -> Result<Vec<Column>> {
    let scope = Scope::new(exprs.iter().copied(), table, ctx);
    exprs.iter().map(|e| scope.output(e, mode)).collect()
}

/// A columnar value over every row of the scope's table.
enum Val<'a> {
    /// A column of the table, borrowed, or a computed one.
    Col(Cow<'a, Column>),
    /// A literal: one value for every row.
    Lit(Value),
    /// A predicate's truth value.
    Mask(Mask),
}

impl<'a> Val<'a> {
    fn into_column(self, n: usize) -> Cow<'a, Column> {
        match self {
            Val::Col(c) => c,
            Val::Lit(v) => Cow::Owned(broadcast_literal(&v, n)),
            Val::Mask(m) => Cow::Owned(m.into_column()),
        }
    }

    fn into_mask(self, n: usize) -> Mask {
        match self {
            Val::Col(c) => Mask::truthy(&c),
            Val::Lit(v) => Mask::constant(n, truth(&literal_datum(&v))),
            Val::Mask(m) => m,
        }
    }

    /// A predicate read as a value is its 0/1 column.
    fn unmasked(self) -> Val<'a> {
        match self {
            Val::Mask(m) => Val::Col(Cow::Owned(m.into_column())),
            v => v,
        }
    }

    /// The NULL rows of a column operand (a literal has none, or is NULL
    /// as a whole).
    fn null_bits(&self) -> Option<Vec<u64>> {
        match self {
            Val::Col(c) => null_bits(c),
            Val::Mask(m) => m.null_bits().map(<[u64]>::to_vec),
            Val::Lit(_) => None,
        }
    }

    /// The values of a comparison or arithmetic operand, whatever their
    /// validity.
    fn operand(&self) -> Operand<'_> {
        match self {
            Val::Col(c) => match &c.data {
                ColumnData::Int(v) => Operand::Num(Num::Ints(v)),
                ColumnData::Float(v) => Operand::Num(Num::Floats(v)),
                ColumnData::Str { dict, codes } => Operand::StrCol(dict, codes),
            },
            Val::Lit(Value::Int(x)) => Operand::Num(Num::Int(*x)),
            Val::Lit(Value::Float(x)) => Operand::Num(Num::Float(*x)),
            Val::Lit(Value::Str(s)) => Operand::StrLit(s),
            Val::Lit(Value::Null) => Operand::Null,
            Val::Mask(_) => unreachable!("comparison operands are unmasked"),
        }
    }
}

/// A comparison operand.
enum Operand<'v> {
    Num(Num<'v>),
    /// A string column's dictionary and codes.
    StrCol(&'v [String], &'v [u32]),
    StrLit(&'v str),
    Null,
}

/// Numeric values: a slice, or one value for every row.
#[derive(Clone, Copy)]
enum Num<'v> {
    Ints(&'v [i64]),
    Floats(&'v [f64]),
    Int(i64),
    Float(f64),
}

impl Num<'_> {
    fn is_scalar(self) -> bool {
        matches!(self, Num::Int(_) | Num::Float(_))
    }

    /// A scalar's value as `f64`.
    fn scalar_f64(self) -> f64 {
        match self {
            Num::Int(x) => x as f64,
            Num::Float(x) => x,
            Num::Ints(_) | Num::Floats(_) => unreachable!("a slice is not a scalar"),
        }
    }
}

impl<'t> Scope<'t, '_> {
    /// `expr` over every row, as a whole column or (`Row`) one row at a
    /// time.
    fn output(&self, expr: &Expr, mode: ExecMode) -> Result<Column> {
        if mode == ExecMode::Columnar {
            return Ok(self.column(expr)?.into_owned());
        }
        let rows = (0..self.table.num_rows()).map(|row| self.eval_row(expr, row));
        Ok(Column::from_datums(&rows.collect::<Result<Vec<_>>>()?))
    }

    /// `expr` as a column: borrowed when it names one of the table's.
    fn column(&self, expr: &Expr) -> Result<Cow<'t, Column>> {
        Ok(self.val(expr)?.into_column(self.table.num_rows()))
    }

    /// `expr` as a predicate.
    fn mask(&self, expr: &Expr) -> Result<Mask> {
        Ok(self.val(expr)?.into_mask(self.table.num_rows()))
    }

    fn val(&self, expr: &Expr) -> Result<Val<'t>> {
        use BinaryOp::*;
        let n = self.table.num_rows();
        let table: &'t Table = self.table;
        Ok(match expr {
            Expr::Column { table: q, name } => {
                Val::Col(Cow::Borrowed(table.column(q.as_deref(), name)?))
            }
            Expr::Literal(v) => Val::Lit(v.clone()),
            Expr::Binary {
                op: op @ (And | Or),
                left,
                right,
            } => {
                let (l, r) = (self.mask(left)?, self.mask(right)?);
                Val::Mask(match op {
                    And => l.and(&r),
                    _ => l.or(&r),
                })
            }
            Expr::Binary {
                op: op @ (Eq | Neq | Lt | LtEq | Gt | GtEq),
                left,
                right,
            } => Val::Mask(compare(*op, self.val(left)?, self.val(right)?, n)?),
            Expr::Binary { op, left, right } => Val::Col(Cow::Owned(arithmetic(
                *op,
                self.val(left)?,
                self.val(right)?,
                n,
            ))),
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => Val::Mask(self.mask(expr)?.not()),
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => match self.val(expr)? {
                Val::Lit(Value::Int(x)) => Val::Lit(Value::Int(x.wrapping_neg())),
                Val::Lit(Value::Float(x)) => Val::Lit(Value::Float(-x)),
                Val::Lit(Value::Null) => Val::Lit(Value::Null),
                v => Val::Col(Cow::Owned(negate(&v.into_column(n))?)),
            },
            Expr::Func { name, args } => {
                let func = Func::resolve(expr, name, args.len())?;
                let cols: Vec<Cow<Column>> =
                    args.iter().map(|a| self.column(a)).collect::<Result<_>>()?;
                let cols: Vec<&Column> = cols.iter().map(|c| &**c).collect();
                Val::Col(Cow::Owned(func.eval(&cols, n)))
            }
            Expr::Wildcard => {
                return Err(EngineError::Other(
                    "* is only valid in COUNT(*) or as a select item".into(),
                ))
            }
            Expr::WindowSum { .. } => Val::Col(Cow::Owned((*self.window_column(expr)?).clone())),
            Expr::Case { whens, else_expr } => {
                let default = else_expr.as_deref().map(|e| self.column(e)).transpose()?;
                let mut merge = CaseMerge::new(default.map(Cow::into_owned), n);
                for (cond, then) in whens {
                    merge.branch(&self.mask(cond)?, || self.column(then))?;
                }
                Val::Col(Cow::Owned(merge.finish()))
            }
            Expr::InSubquery {
                expr: probe,
                negated,
                ..
            } => {
                let (node, query) = self.ctx.slot(expr);
                let mask = cached(&self.in_masks[node], || {
                    let set = self.ctx.subquery_set(query)?;
                    let probe = self.column(probe)?;
                    Ok(Rc::new(membership(&set, &probe, *negated)))
                })?;
                Val::Mask((*mask).clone())
            }
            Expr::InList {
                expr: probe,
                list,
                negated,
            } => {
                let c = self.column(probe)?;
                // Values of another type than the probe's can never match
                // it, so the set holds the probe-typed items only.
                let mut items = Vec::with_capacity(list.len());
                for item in list {
                    let v = match self.val(item)? {
                        Val::Lit(v) => literal_datum(&v),
                        // Any other item is read at the first row.
                        other => match other.into_column(n) {
                            c if c.is_empty() => continue,
                            c => c.get(0),
                        },
                    };
                    let same_type = matches!(
                        (&v, &c.data),
                        (Datum::Int(_), ColumnData::Int(_))
                            | (Datum::Float(_), ColumnData::Float(_))
                            | (Datum::Str(_), ColumnData::Str { .. })
                    );
                    if same_type {
                        items.push(v);
                    }
                }
                let items = Column::from_datums(&items);
                let set = KeySet::build(&[&items], items.len());
                Val::Mask(membership(&set, &c, *negated))
            }
            Expr::IsNull { expr, negated } => {
                let is_null = match self.val(expr)? {
                    Val::Lit(v) => Mask::constant(n, Some(v == Value::Null)),
                    v => Mask::new(
                        n,
                        v.null_bits().unwrap_or_else(|| vec![0; n.div_ceil(64)]),
                        None,
                    ),
                };
                Val::Mask(if *negated { is_null.not() } else { is_null })
            }
        })
    }
}

fn literal_datum(v: &Value) -> Datum {
    match v {
        Value::Int(x) => Datum::Int(*x),
        Value::Float(x) => Datum::Float(*x),
        Value::Str(s) => Datum::Str(s.clone()),
        Value::Null => Datum::Null,
    }
}

/// `probe [NOT] IN set`: TRUE where the value is (not) a member, NULL
/// where it is NULL.
fn membership(set: &KeySet, probe: &Column, negated: bool) -> Mask {
    let mask = Mask::new(probe.len(), set.member_bits(probe), null_bits(probe));
    if negated {
        mask.not()
    } else {
        mask
    }
}

// ---------------------------------------------------------------------------
// Comparison kernels
// ---------------------------------------------------------------------------

const EQ: u8 = 0;
const NEQ: u8 = 1;
const LT: u8 = 2;
const LT_EQ: u8 = 3;
const GT: u8 = 4;
const GT_EQ: u8 = 5;

/// `x OP y` from the two strict comparisons, so an unordered pair (a NaN)
/// is equal, as `partial_cmp(..).unwrap_or(Equal)` makes it.
#[inline(always)]
fn holds<const OP: u8, T: PartialOrd>(x: T, y: T) -> bool {
    let (lt, gt) = (x < y, x > y);
    match OP {
        EQ => !lt & !gt,
        NEQ => lt | gt,
        LT => lt,
        LT_EQ => !gt,
        GT => gt,
        _ => !lt,
    }
}

/// Does `ord` satisfy the comparison `op`?
fn ord_holds(op: BinaryOp, ord: Ordering) -> bool {
    use Ordering::*;
    match op {
        BinaryOp::Eq => ord == Equal,
        BinaryOp::Neq => ord != Equal,
        BinaryOp::Lt => ord == Less,
        BinaryOp::LtEq => ord != Greater,
        BinaryOp::Gt => ord == Greater,
        BinaryOp::GtEq => ord != Less,
        _ => unreachable!("not a comparison"),
    }
}

/// The comparison with its operands swapped: `x op y` is `y flipped(op) x`.
fn flipped(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

/// A comparison over every row: NULL where either side is.
fn compare(op: BinaryOp, l: Val, r: Val, n: usize) -> Result<Mask> {
    let (l, r) = (l.unmasked(), r.unmasked());
    let nulls = union_bits(l.null_bits(), r.null_bits());
    let bits = match (l.operand(), r.operand()) {
        (Operand::Null, _) | (_, Operand::Null) => return Ok(Mask::constant(n, None)),
        (Operand::Num(a), Operand::Num(b)) => compare_num(op, a, b, n),
        (Operand::StrCol(dict, codes), Operand::StrLit(s)) => dict_bits(op, dict, codes, s),
        (Operand::StrLit(s), Operand::StrCol(dict, codes)) => {
            dict_bits(flipped(op), dict, codes, s)
        }
        (Operand::StrCol(da, ca), Operand::StrCol(db, cb)) => pack_pair(ca, cb, |x, y| {
            ord_holds(op, da[x as usize].cmp(&db[y as usize]))
        }),
        (Operand::StrLit(a), Operand::StrLit(b)) => {
            return Ok(Mask::constant(n, Some(ord_holds(op, a.cmp(b)))))
        }
        // A string against a number is an error on any row where both
        // sides hold a value.
        _ => {
            let null_rows = nulls.as_ref().map_or(0, |nb: &Vec<u64>| {
                nb.iter().map(|w| w.count_ones() as usize).sum()
            });
            if null_rows < n {
                return Err(EngineError::TypeMismatch(
                    "cannot compare string with number".into(),
                ));
            }
            return Ok(Mask::constant(n, None));
        }
    };
    Ok(Mask::new(n, bits, nulls))
}

/// The rows set in either of two optional bitmaps.
fn union_bits(a: Option<Vec<u64>>, b: Option<Vec<u64>>) -> Option<Vec<u64>> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.iter().zip(&b).map(|(x, y)| x | y).collect()),
        (a, b) => a.or(b),
    }
}

/// `dict[code] op s` per row, `s` compared with each dictionary entry once.
fn dict_bits(op: BinaryOp, dict: &[String], codes: &[u32], s: &str) -> Vec<u64> {
    let hits: Vec<bool> = dict
        .iter()
        .map(|d| ord_holds(op, d.as_str().cmp(s)))
        .collect();
    pack_slice(codes, |c| hits[c as usize])
}

fn compare_num(op: BinaryOp, l: Num, r: Num, n: usize) -> Vec<u64> {
    if l.is_scalar() && !r.is_scalar() {
        return compare_num(flipped(op), r, l, n);
    }
    match op {
        BinaryOp::Eq => compare_typed::<EQ>(l, r, n),
        BinaryOp::Neq => compare_typed::<NEQ>(l, r, n),
        BinaryOp::Lt => compare_typed::<LT>(l, r, n),
        BinaryOp::LtEq => compare_typed::<LT_EQ>(l, r, n),
        BinaryOp::Gt => compare_typed::<GT>(l, r, n),
        _ => compare_typed::<GT_EQ>(l, r, n),
    }
}

/// `l OP r` over `n` rows; a scalar is only ever on the right. `Int`
/// against `Int` compares as `i64`, every other pair as `f64`.
fn compare_typed<const OP: u8>(l: Num, r: Num, n: usize) -> Vec<u64> {
    use Num::*;
    let (fi, ff) = (holds::<OP, i64>, holds::<OP, f64>);
    match (l, r) {
        (Ints(a), Ints(b)) => pack_pair(a, b, fi),
        (Ints(a), Floats(b)) => pack_pair(a, b, |x, y| ff(x as f64, y)),
        (Floats(a), Ints(b)) => pack_pair(a, b, |x, y| ff(x, y as f64)),
        (Floats(a), Floats(b)) => pack_pair(a, b, ff),
        (Ints(a), Int(y)) => pack_slice(a, |x| fi(x, y)),
        (Ints(a), Float(y)) => pack_slice(a, |x| ff(x as f64, y)),
        (Floats(a), y) => {
            let y = y.scalar_f64();
            pack_slice(a, |x| ff(x, y))
        }
        (Int(x), Int(y)) => constant_bits(n, fi(x, y)),
        (x, y) => constant_bits(n, ff(x.scalar_f64(), y.scalar_f64())),
    }
}

fn constant_bits(n: usize, value: bool) -> Vec<u64> {
    Mask::constant(n, Some(value)).true_bits().to_vec()
}

// ---------------------------------------------------------------------------
// Arithmetic
// ---------------------------------------------------------------------------

/// `l op r` over every row, on typed slices. The result's type comes
/// from the operands' types, never from their values: `+ - *` of two
/// `Int`s is a wrapping `Int`; any other numeric pair, and every `/`, is
/// `Float`; a string or NULL-literal operand gives an all-NULL `Float`.
/// The operands' validity is folded into the result's, and a zero divisor
/// makes its row NULL too. A NULL row holds 0, and a result without NULL
/// rows has no validity, as [`Column::from_datums`] writes them.
fn arithmetic(op: BinaryOp, l: Val, r: Val, n: usize) -> Column {
    use BinaryOp::*;
    let (l, r) = (l.unmasked(), r.unmasked());
    let nulls = union_bits(l.null_bits(), r.null_bits());
    let (Operand::Num(a), Operand::Num(b)) = (l.operand(), r.operand()) else {
        return Column {
            data: ColumnData::Float(Arc::new(vec![0.0; n])),
            validity: (n > 0).then(|| Arc::new(vec![false; n])),
        };
    };
    match op {
        Add => arithmetic_typed(a, b, n, nulls, i64::wrapping_add, |x, y| x + y),
        Sub => arithmetic_typed(a, b, n, nulls, i64::wrapping_sub, |x, y| x - y),
        Mul => arithmetic_typed(a, b, n, nulls, i64::wrapping_mul, |x, y| x * y),
        _ => {
            let zero = match b {
                Num::Ints(v) => pack_slice(v, |y| y == 0),
                Num::Floats(v) => pack_slice(v, |y| y == 0.0),
                y => constant_bits(n, y.scalar_f64() == 0.0),
            };
            let nulls = union_bits(nulls, Some(zero));
            with_nulls(float_values(a, b, n, |x, y| x / y), nulls, Column::float)
        }
    }
}

/// `fi` over two `Int` operands (integers stay integers), `ff` over any
/// other pair, widened to `f64`; NULL on the set bits of `nulls`.
fn arithmetic_typed(
    l: Num,
    r: Num,
    n: usize,
    nulls: Option<Vec<u64>>,
    fi: impl Fn(i64, i64) -> i64,
    ff: impl Fn(f64, f64) -> f64,
) -> Column {
    use Num::*;
    let ints = match (l, r) {
        (Ints(a), Ints(b)) => a.iter().zip(b).map(|(&x, &y)| fi(x, y)).collect(),
        (Ints(a), Int(y)) => a.iter().map(|&x| fi(x, y)).collect(),
        (Int(x), Ints(b)) => b.iter().map(|&y| fi(x, y)).collect(),
        (Int(x), Int(y)) => vec![fi(x, y); n],
        (l, r) => return with_nulls(float_values(l, r, n, ff), nulls, Column::float),
    };
    with_nulls(ints, nulls, Column::int)
}

/// `ff` over every row of two numeric operands, widened to `f64`.
fn float_values(l: Num, r: Num, n: usize, ff: impl Fn(f64, f64) -> f64) -> Vec<f64> {
    use Num::*;
    match (l, r) {
        (Floats(a), Floats(b)) => a.iter().zip(b).map(|(&x, &y)| ff(x, y)).collect(),
        (Floats(a), Ints(b)) => a.iter().zip(b).map(|(&x, &y)| ff(x, y as f64)).collect(),
        (Ints(a), Floats(b)) => a.iter().zip(b).map(|(&x, &y)| ff(x as f64, y)).collect(),
        (Ints(a), Ints(b)) => (a.iter().zip(b))
            .map(|(&x, &y)| ff(x as f64, y as f64))
            .collect(),
        (Floats(a), y) => {
            let y = y.scalar_f64();
            a.iter().map(|&x| ff(x, y)).collect()
        }
        (Ints(a), y) => {
            let y = y.scalar_f64();
            a.iter().map(|&x| ff(x as f64, y)).collect()
        }
        (x, Floats(b)) => {
            let x = x.scalar_f64();
            b.iter().map(|&y| ff(x, y)).collect()
        }
        (x, Ints(b)) => {
            let x = x.scalar_f64();
            b.iter().map(|&y| ff(x, y as f64)).collect()
        }
        (x, y) => vec![ff(x.scalar_f64(), y.scalar_f64()); n],
    }
}

/// `values` as a column made by `wrap`, NULL (and 0) on the set bits of
/// `nulls`; without validity when no bit is set.
fn with_nulls<T: Copy + Default>(
    mut values: Vec<T>,
    nulls: Option<Vec<u64>>,
    wrap: fn(Vec<T>) -> Column,
) -> Column {
    let Some(nulls) = nulls.filter(|b| b.iter().any(|&w| w != 0)) else {
        return wrap(values);
    };
    for_each_set(&nulls, |i| values[i] = T::default());
    let n = values.len();
    let mut col = wrap(values);
    col.validity = Some(Arc::new(
        (0..n).map(|i| nulls[i >> 6] >> (i & 63) & 1 == 0).collect(),
    ));
    col
}

/// `a op b` for `+ - *` over two integers, wrapping as the kernels do.
fn int_arith(op: BinaryOp, a: i64, b: i64) -> i64 {
    match op {
        BinaryOp::Add => a.wrapping_add(b),
        BinaryOp::Sub => a.wrapping_sub(b),
        _ => a.wrapping_mul(b),
    }
}

/// `x op y` over `f64`; NULL for a zero divisor.
fn float_arith(op: BinaryOp, x: f64, y: f64) -> Datum {
    match op {
        BinaryOp::Add => Datum::Float(x + y),
        BinaryOp::Sub => Datum::Float(x - y),
        BinaryOp::Mul => Datum::Float(x * y),
        _ if y == 0.0 => Datum::Null,
        _ => Datum::Float(x / y),
    }
}

/// `-c` over a typed slice: the column keeps its type and shares its
/// validity, whatever its values are; a string column is a type error.
fn negate(c: &Column) -> Result<Column> {
    let data = match &c.data {
        ColumnData::Int(v) => {
            ColumnData::Int(Arc::new(v.iter().map(|x| x.wrapping_neg()).collect()))
        }
        ColumnData::Float(v) => ColumnData::Float(Arc::new(v.iter().map(|x| -x).collect())),
        ColumnData::Str { .. } => return Err(EngineError::TypeMismatch("negate string".into())),
    };
    Ok(Column {
        data,
        validity: c.validity.clone(),
    })
}

/// `-d`; an integer wraps, as `+ - *` do.
fn neg(d: Datum) -> Result<Datum> {
    match d {
        Datum::Int(x) => Ok(Datum::Int(x.wrapping_neg())),
        Datum::Float(x) => Ok(Datum::Float(-x)),
        Datum::Null => Ok(Datum::Null),
        Datum::Str(_) => Err(EngineError::TypeMismatch("negate string".into())),
    }
}

fn broadcast_literal(v: &Value, n: usize) -> Column {
    match v {
        Value::Int(x) => Column::int(vec![*x; n]),
        Value::Float(x) => Column::float(vec![*x; n]),
        Value::Str(s) => Column::str(vec![s.clone(); n]),
        Value::Null => Column {
            data: ColumnData::Float(Arc::new(vec![0.0; n])),
            validity: Some(Arc::new(vec![false; n])),
        },
    }
}

// ---------------------------------------------------------------------------
// CASE
// ---------------------------------------------------------------------------

/// First-match-wins merge of `CASE` branches (and of an `UPDATE`'s new
/// values into the old). A branch takes the rows where its condition is
/// TRUE and no earlier branch was taken — `cond.true_bits & !decided`,
/// one word at a time. Stays on typed slices while the default and every
/// branch so far are NULL-free columns of one numeric type — the residual
/// update's shape — and falls back to per-row [`Datum`]s, with the
/// result's type inferred from the values that won, otherwise. Both
/// produce the same column.
pub(crate) struct CaseMerge {
    out: Merged,
    decided: Vec<u64>,
}

enum Merged {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Datums(Vec<Datum>),
}

impl CaseMerge {
    /// Start from the `ELSE` column (`None`: NULL) over `n` rows; branches
    /// blend into its values in place, so a buffer it shares is copied.
    pub(crate) fn new(default: Option<Column>, n: usize) -> CaseMerge {
        let out = match default {
            None => Merged::Datums(vec![Datum::Null; n]),
            // (An empty result has no values to infer a type from.)
            Some(c) => match (c.data, c.validity) {
                (ColumnData::Int(v), None) if n > 0 => Merged::Int(Arc::unwrap_or_clone(v)),
                (ColumnData::Float(v), None) if n > 0 => Merged::Float(Arc::unwrap_or_clone(v)),
                (data, validity) => {
                    let c = Column { data, validity };
                    Merged::Datums((0..n).map(|i| c.get(i)).collect())
                }
            },
        };
        CaseMerge {
            out,
            decided: vec![0; n.div_ceil(64)],
        }
    }

    /// Rows where `cond` is TRUE and no earlier branch was take `then`,
    /// which is evaluated only if some row takes it.
    pub(crate) fn branch<'c>(
        &mut self,
        cond: &Mask,
        then: impl FnOnce() -> Result<Cow<'c, Column>>,
    ) -> Result<()> {
        let take: Vec<u64> = (cond.true_bits().iter().zip(&mut self.decided))
            .map(|(&t, d)| {
                let take = t & !*d;
                *d |= take;
                take
            })
            .collect();
        if take.iter().all(|&w| w == 0) {
            return Ok(());
        }
        let then = then()?;
        match (&mut self.out, &then.data, &then.validity) {
            (Merged::Int(out), ColumnData::Int(t), None) => blend(out, &take, t),
            (Merged::Float(out), ColumnData::Float(t), None) => blend(out, &take, t),
            (out, _, _) => {
                let out = out.datums();
                for_each_set(&take, |i| out[i] = then.get(i));
            }
        }
        Ok(())
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

/// `out[i] = then[i]` where bit `i` of `take` is set, a word at a time.
fn blend<T: Copy>(out: &mut [T], take: &[u64], then: &[T]) {
    for ((o, t), &bits) in out.chunks_mut(64).zip(then.chunks(64)).zip(take) {
        match bits {
            0 => {}
            u64::MAX => o.copy_from_slice(t),
            _ => {
                for (j, (o, &t)) in o.iter_mut().zip(t).enumerate() {
                    *o = if bits >> j & 1 == 1 { t } else { *o };
                }
            }
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

/// A scalar function, resolved from its name once per evaluation.
enum Func {
    /// `f` of one number; NULL where that is NULL or the result is not finite.
    Math(fn(f64) -> f64),
    Pow,
    /// The arguments' non-NULL numbers folded by `f` (`LEAST`, `GREATEST`).
    Fold(fn(f64, f64) -> f64),
    Coalesce,
}

impl Func {
    /// The function `call` names, or an error: an aggregate call out of an
    /// aggregation's arguments, an unknown name or a wrong arity.
    fn resolve(call: &Expr, name: &str, arity: usize) -> Result<Func> {
        Ok(match name {
            _ if call.is_aggregate() => {
                return Err(EngineError::Other(format!(
                    "aggregate {call} in scalar context"
                )))
            }
            "ABS" => Func::Math(f64::abs),
            "LOG" | "LN" => Func::Math(f64::ln),
            "EXP" => Func::Math(f64::exp),
            "SQRT" => Func::Math(f64::sqrt),
            "FLOOR" => Func::Math(f64::floor),
            "CEIL" => Func::Math(f64::ceil),
            "SIGN" => Func::Math(f64::signum),
            "POW" | "POWER" if arity == 2 => Func::Pow,
            "POW" | "POWER" => return Err(EngineError::Other("POW takes 2 arguments".into())),
            "LEAST" => Func::Fold(f64::min),
            "GREATEST" => Func::Fold(f64::max),
            "COALESCE" => Func::Coalesce,
            other => return Err(EngineError::Other(format!("unknown function {other}"))),
        })
    }

    /// The function over `n` rows of its argument columns.
    fn eval(self, args: &[&Column], n: usize) -> Column {
        /// `g` of each row, NULL where it gives no value.
        fn floats(n: usize, g: impl Fn(usize) -> Option<f64>) -> Vec<Datum> {
            (0..n)
                .map(|i| g(i).map_or(Datum::Null, Datum::Float))
                .collect()
        }
        let num = |arg: usize, i: usize| args.get(arg).and_then(|c| c.f64_at(i));
        Column::from_datums(&match self {
            Func::Math(f) => floats(n, |i| num(0, i).map(f).filter(|y| y.is_finite())),
            Func::Pow => floats(n, |i| num(0, i).zip(num(1, i)).map(|(x, y)| x.powf(y))),
            Func::Fold(f) => floats(n, |i| args.iter().filter_map(|c| c.f64_at(i)).reduce(f)),
            Func::Coalesce => return coalesce(args, n),
        })
    }
}

/// `COALESCE` of `args`: each row takes its first valid argument's value
/// and is NULL where none is valid. The type comes from the arguments'
/// types, not from the values picked: Int arguments give Int, any other
/// numeric mix gives Float. Only a mix with strings still infers the
/// type from the values.
fn coalesce(args: &[&Column], n: usize) -> Column {
    let first_valid = |i: usize| args.iter().find(|c| c.is_valid(i));
    let all = |t: DataType| !args.is_empty() && args.iter().all(|c| c.dtype() == t);
    let numeric = !args.is_empty() && args.iter().all(|c| c.dtype() != DataType::Str);
    if !numeric {
        let values: Vec<Datum> = (0..n)
            .map(|i| first_valid(i).map_or(Datum::Null, |c| c.get(i)))
            .collect();
        let col = Column::from_datums(&values);
        if !all(DataType::Str) || col.dtype() == DataType::Str {
            return col;
        }
        // Strings, none of them valid: still a string column.
        return Column {
            data: ColumnData::Str {
                dict: Arc::new(vec![String::new()]),
                codes: Arc::new(vec![0; n]),
            },
            validity: col.validity,
        };
    }
    let mut nulls = vec![0u64; n.div_ceil(64)];
    let mut null_at = |i: usize| nulls[i >> 6] |= 1 << (i & 63);
    if all(DataType::Int) {
        let values = (0..n)
            .map(|i| match first_valid(i).map(|c| &c.data) {
                Some(ColumnData::Int(v)) => v[i],
                _ => {
                    null_at(i);
                    0
                }
            })
            .collect();
        return with_nulls(values, Some(nulls), Column::int);
    }
    let values = (0..n)
        .map(|i| match first_valid(i).and_then(|c| c.f64_at(i)) {
            Some(x) => x,
            None => {
                null_at(i);
                0.0
            }
        })
        .collect();
    with_nulls(values, Some(nulls), Column::float)
}

impl Scope<'_, '_> {
    fn eval_row(&self, expr: &Expr, row: usize) -> Result<Datum> {
        match expr {
            Expr::Column { table: q, name } => Ok(self.table.column(q.as_deref(), name)?.get(row)),
            Expr::Literal(v) => Ok(literal_datum(v)),
            Expr::Binary { op, left, right } => {
                datum_binary(*op, &self.eval_row(left, row)?, &self.eval_row(right, row)?)
            }
            Expr::Unary { op, expr } => {
                let v = self.eval_row(expr, row)?;
                match op {
                    UnaryOp::Neg => neg(v),
                    UnaryOp::Not if v.is_null() => Ok(Datum::Null),
                    UnaryOp::Not => Ok(Datum::Int((!v.is_truthy()) as i64)),
                }
            }
            Expr::Func { name, args } => {
                // The columnar function over one-row columns.
                let func = Func::resolve(expr, name, args.len())?;
                let cols: Vec<Column> = (args.iter())
                    .map(|a| Ok(Column::from_datums(&[self.eval_row(a, row)?])))
                    .collect::<Result<_>>()?;
                Ok(func.eval(&cols.iter().collect::<Vec<_>>(), 1).get(0))
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
                expr: probe,
                negated,
                ..
            } => {
                let set = self.ctx.subquery_set(self.ctx.slot(expr).1)?;
                // The same set the columnar mode probes, asked about one
                // row: of the column the probe names, else of a one-row
                // column of its value.
                let (col, at) = match &**probe {
                    Expr::Column { table: q, name } => {
                        (Cow::Borrowed(self.table.column(q.as_deref(), name)?), row)
                    }
                    _ => (
                        Cow::Owned(Column::from_datums(&[self.eval_row(probe, row)?])),
                        0,
                    ),
                };
                if !col.is_valid(at) {
                    return Ok(Datum::Null);
                }
                let hit = set.probe(&[&col]).contains(at);
                Ok(Datum::Int((hit != *negated) as i64))
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                let v = self.eval_row(expr, row)?;
                if v.is_null() {
                    return Ok(Datum::Null);
                }
                for item in list {
                    if key_eq(&v, &self.eval_row(item, row)?) {
                        return Ok(Datum::Int(!*negated as i64));
                    }
                }
                Ok(Datum::Int(*negated as i64))
            }
            Expr::IsNull { expr, negated } => {
                let v = self.eval_row(expr, row)?;
                Ok(Datum::Int((v.is_null() != *negated) as i64))
            }
            Expr::Wildcard => Err(EngineError::Other("* in scalar context".into())),
        }
    }
}

/// The key equality of `KeySet` (and so of columnar `IN`): same type,
/// same value, `-0.0 = 0.0`; NULL equals nothing.
fn key_eq(a: &Datum, b: &Datum) -> bool {
    match (a, b) {
        (Datum::Int(x), Datum::Int(y)) => x == y,
        (Datum::Float(x), Datum::Float(y)) => canonical_f64_bits(*x) == canonical_f64_bits(*y),
        (Datum::Str(x), Datum::Str(y)) => x == y,
        _ => false,
    }
}

/// A truth value: `None` for NULL.
fn truth(d: &Datum) -> Option<bool> {
    (!d.is_null()).then(|| d.is_truthy())
}

fn datum_binary(op: BinaryOp, l: &Datum, r: &Datum) -> Result<Datum> {
    use BinaryOp::*;
    let logic = |v: Option<bool>| v.map_or(Datum::Null, |b| Datum::Int(b as i64));
    match op {
        And => Ok(logic(match (truth(l), truth(r)) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        })),
        Or => Ok(logic(match (truth(l), truth(r)) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        })),
        Add | Sub | Mul | Div => Ok(match (l, r) {
            (Datum::Int(a), Datum::Int(b)) if op != Div => Datum::Int(int_arith(op, *a, *b)),
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(x), Some(y)) => float_arith(op, x, y),
                _ => Datum::Null,
            },
        }),
        Eq | Neq | Lt | LtEq | Gt | GtEq => {
            if l.is_null() || r.is_null() {
                return Ok(Datum::Null);
            }
            let ord = match (l, r) {
                (Datum::Str(a), Datum::Str(b)) => a.cmp(b),
                (Datum::Str(_), _) | (_, Datum::Str(_)) => {
                    return Err(EngineError::TypeMismatch(
                        "cannot compare string with number".into(),
                    ))
                }
                (Datum::Int(a), Datum::Int(b)) => a.cmp(b),
                _ => l.sql_cmp(r),
            };
            Ok(Datum::Int(ord_holds(op, ord) as i64))
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
        // Each parsed expression is bound by the context it is evaluated
        // in, so a temporary one gets a context of its own.
        let col = |sql: &str| {
            let e = parse_expr(sql).unwrap();
            eval(&e, &t, &EvalContext::new(&runner)).unwrap()
        };
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
        let ctx = EvalContext::new(&runner);
        assert_eq!(eval(&e, &empty, &ctx).unwrap(), Column::from_datums(&[]));
    }

    #[test]
    fn aggregate_in_scalar_context_errors() {
        let e = parse_expr("SUM(a)").unwrap();
        let runner = NoSubqueries;
        let ctx = EvalContext::new(&runner);
        assert!(eval(&e, &t1(), &ctx).is_err());
    }

    // Columnar masks against row mode on generated predicate trees.

    const INTS: [Option<i64>; 7] = [
        None,
        Some(0),
        Some(1),
        Some(-3),
        Some(1 << 53),
        Some((1 << 53) + 1),
        Some(i64::MIN),
    ];
    const FLOATS: [Option<f64>; 9] = [
        None,
        Some(0.0),
        Some(-0.0),
        Some(1.0),
        Some(f64::NAN),
        Some(f64::INFINITY),
        Some(-2.5),
        Some(9007199254740992.0),
        Some(f64::NEG_INFINITY),
    ];
    const STRS: [Option<&str>; 4] = [None, Some("a"), Some("b"), Some("")];

    /// Nullable `i`, `j` (Int), `f`, `g` (Float) and `s` (Str); NULL-free
    /// `n` (Int) and `d` (Float).
    fn predicate_table(rows: &[Vec<u32>]) -> Table {
        let pick = |r: &Vec<u32>, c: usize, len: usize, null_free: bool| {
            let k = r[c] as usize % len;
            if null_free && k == 0 {
                1
            } else {
                k
            }
        };
        let ints = |c: usize, null_free: bool| {
            let v: Vec<Datum> = (rows.iter())
                .map(|r| INTS[pick(r, c, INTS.len(), null_free)].map_or(Datum::Null, Datum::Int))
                .collect();
            Column::from_datums(&v)
        };
        let floats = |c: usize, null_free: bool| {
            let v: Vec<Datum> = (rows.iter())
                .map(|r| {
                    FLOATS[pick(r, c, FLOATS.len(), null_free)].map_or(Datum::Null, Datum::Float)
                })
                .collect();
            Column::from_datums(&v)
        };
        let strs: Vec<Datum> = (rows.iter())
            .map(|r| STRS[pick(r, 4, STRS.len(), false)].map_or(Datum::Null, Datum::from))
            .collect();
        Table::from_columns(vec![
            ("i", ints(0, false)),
            ("j", ints(1, false)),
            ("f", floats(2, false)),
            ("g", floats(3, false)),
            ("s", Column::from_datums(&strs)),
            ("n", ints(5, true)),
            ("d", floats(6, true)),
        ])
    }

    /// Predicate trees drawn from a stream of picks.
    struct Gen<'a>(std::slice::Iter<'a, u32>);

    impl Gen<'_> {
        fn below(&mut self, n: usize) -> usize {
            self.0.next().map_or(0, |&x| x as usize % n)
        }

        fn literal(&mut self, numeric: bool) -> Expr {
            Expr::Literal(match numeric {
                true => match self.below(2) {
                    0 => INTS[self.below(INTS.len())].map_or(Value::Null, Value::Int),
                    _ => FLOATS[self.below(FLOATS.len())].map_or(Value::Null, Value::Float),
                },
                false => STRS[self.below(STRS.len())].map_or(Value::Null, |s| Value::Str(s.into())),
            })
        }

        fn operand(&mut self, numeric: bool) -> Expr {
            let cols = if numeric {
                &["i", "j", "f", "g", "n", "d"][..]
            } else {
                &["s"][..]
            };
            match self.below(3) {
                0 => self.literal(numeric),
                _ => Expr::col(cols[self.below(cols.len())]),
            }
        }

        fn pred(&mut self, depth: usize) -> Expr {
            use BinaryOp::*;
            let ops = [Eq, Neq, Lt, LtEq, Gt, GtEq];
            match self.below(if depth == 0 { 5 } else { 8 }) {
                0 | 1 => {
                    let numeric = self.below(4) > 0;
                    let (l, r) = (self.operand(numeric), self.operand(numeric));
                    Expr::binary(ops[self.below(6)], l, r)
                }
                2 => Expr::IsNull {
                    expr: Box::new(match self.below(2) {
                        0 => self.operand(true),
                        _ => self.pred(depth.saturating_sub(1)),
                    }),
                    negated: self.below(2) == 1,
                },
                3 => {
                    let numeric = self.below(3) > 0;
                    let probe = self.operand(numeric);
                    let list = (0..1 + self.below(3))
                        .map(|_| {
                            let numeric = self.below(4) > 0;
                            self.literal(numeric)
                        })
                        .collect();
                    Expr::InList {
                        expr: Box::new(probe),
                        list,
                        negated: self.below(2) == 1,
                    }
                }
                4 => {
                    let numeric = self.below(4) > 0;
                    self.operand(numeric)
                }
                5 => Expr::not(self.pred(depth - 1)),
                6 => Expr::and(self.pred(depth - 1), self.pred(depth - 1)),
                _ => Expr::binary(Or, self.pred(depth - 1), self.pred(depth - 1)),
            }
        }
    }

    /// Row `i` of a row-mode predicate column as a truth value.
    fn row_truth(c: &Column, i: usize) -> Option<bool> {
        let d = c.get(i);
        (!d.is_null()).then(|| d.is_truthy())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Columnar masks — typed kernels, word logic, branch-free probes
        /// — equal row mode's per-row `Datum` evaluation, on predicate
        /// trees over NULL-, NaN-, ±0- and 2^53-bearing columns.
        #[test]
        fn columnar_masks_equal_row_mode(
            rows in proptest::collection::vec(proptest::collection::vec(0u32..1000, 7), 0..140),
            picks in proptest::collection::vec(0u32..1_000_000, 64),
        ) {
            let t = predicate_table(&rows);
            let mut gen = Gen(picks.iter());
            let (p, q) = (gen.pred(3), gen.pred(2));
            let runner = NoSubqueries;
            let ctx = EvalContext::new(&runner);
            let mask = eval_mask(&p, &t, &ctx).unwrap();
            let by_row = eval_rows(&p, &t, &ctx).unwrap();
            for i in 0..t.num_rows() {
                let got = (!mask.is_null(i)).then(|| mask.is_true(i));
                proptest::prop_assert_eq!(got, row_truth(&by_row, i), "{} at row {}: {:?}", p, i, t.row(i));
            }
            // The same predicates as CASE conditions.
            let case = Expr::Case {
                whens: vec![(p.clone(), Expr::int(1)), (q.clone(), Expr::int(2))],
                else_expr: Some(Box::new(Expr::int(3))),
            };
            let columnar = eval(&case, &t, &ctx).unwrap();
            let by_row = eval_rows(&case, &t, &ctx).unwrap();
            proptest::prop_assert_eq!(columnar, by_row, "{}", case);
            // Arithmetic over the same operands: the same value of the same
            // type on every row — `Int` stays `Int` beside a NULL — and
            // NULL where either side is.
            for op in [BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul, BinaryOp::Div] {
                let e = Expr::binary(op, gen.operand(true), gen.operand(true));
                let ctx = EvalContext::new(&runner);
                let rows = |c: Column| format!("{:?}", (0..c.len()).map(|i| c.get(i)).collect::<Vec<_>>());
                let columnar = rows(eval(&e, &t, &ctx).unwrap());
                let by_row = rows(eval_rows(&e, &t, &ctx).unwrap());
                proptest::prop_assert_eq!(columnar, by_row, "{}", e);
            }
        }
    }
}
