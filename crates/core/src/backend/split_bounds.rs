//! Bound math of the distributed split evaluation: direct, symbolic-
//! derivative and interval-arithmetic evaluation of the split-criteria
//! expressions [`crate::sqlgen`] emits, over the two prefix components.
//! The coordinator (`sharded.rs`) uses these to decide which intervals can
//! still hold the argmax; every function answers `None` on an expression
//! outside that grammar, which makes the caller keep rows, never drop them.

use joinboost_sql::ast::{BinaryOp, Expr, UnaryOp, Value};

/// Numerical slack added to pruning bounds so floating-point rounding in
/// either the bound or the engine's criteria arithmetic can never prune
/// the true argmax (the bound is exact over the reals by convexity; a
/// relative 1e-9 dwarfs the few-ulp discrepancy of either side).
pub(super) fn slack(v: f64) -> f64 {
    1e-9 * v.abs().max(1.0)
}

/// Evaluate an expression over exactly two column variables (the split
/// components). Returns `None` for any expression the split-criteria
/// grammar does not produce — callers then skip pruning, never results.
pub(super) fn eval_two_col(e: &Expr, n0: &str, n1: &str, c: f64, s: f64) -> Option<f64> {
    match e {
        Expr::Column { table: None, name } => {
            if name.eq_ignore_ascii_case(n0) {
                Some(c)
            } else if name.eq_ignore_ascii_case(n1) {
                Some(s)
            } else {
                None
            }
        }
        Expr::Literal(Value::Int(v)) => Some(*v as f64),
        Expr::Literal(Value::Float(v)) => Some(*v),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => Some(-eval_two_col(expr, n0, n1, c, s)?),
        Expr::Binary { op, left, right } => {
            let l = eval_two_col(left, n0, n1, c, s)?;
            let r = eval_two_col(right, n0, n1, c, s)?;
            let b = |x: bool| if x { 1.0 } else { 0.0 };
            Some(match op {
                BinaryOp::Add => l + r,
                BinaryOp::Sub => l - r,
                BinaryOp::Mul => l * r,
                BinaryOp::Div => l / r,
                BinaryOp::Eq => b(l == r),
                BinaryOp::Neq => b(l != r),
                BinaryOp::Lt => b(l < r),
                BinaryOp::LtEq => b(l <= r),
                BinaryOp::Gt => b(l > r),
                BinaryOp::GtEq => b(l >= r),
                BinaryOp::And => b(l > 0.5 && r > 0.5),
                BinaryOp::Or => b(l > 0.5 || r > 0.5),
            })
        }
        _ => None,
    }
}

/// Symbolic derivative of a criteria expression with respect to the
/// column `wrt` (the second split component). Only the arithmetic grammar
/// the criteria emitters produce is supported; anything else returns
/// `None` and the caller falls back to the coarser box bound.
pub(super) fn d_wrt(e: &Expr, wrt: &str, other: &str) -> Option<Expr> {
    match e {
        Expr::Column { table: None, name } => {
            if name.eq_ignore_ascii_case(wrt) {
                Some(Expr::float(1.0))
            } else if name.eq_ignore_ascii_case(other) {
                Some(Expr::float(0.0))
            } else {
                None
            }
        }
        Expr::Literal(_) => Some(Expr::float(0.0)),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => Some(Expr::neg(d_wrt(expr, wrt, other)?)),
        Expr::Binary { op, left, right } => {
            let dl = d_wrt(left, wrt, other)?;
            let dr = d_wrt(right, wrt, other)?;
            match op {
                BinaryOp::Add => Some(Expr::add(dl, dr)),
                BinaryOp::Sub => Some(Expr::sub(dl, dr)),
                BinaryOp::Mul => Some(Expr::add(
                    Expr::mul(dl, (**right).clone()),
                    Expr::mul((**left).clone(), dr),
                )),
                BinaryOp::Div => Some(Expr::div(
                    Expr::sub(
                        Expr::mul(dl, (**right).clone()),
                        Expr::mul((**left).clone(), dr),
                    ),
                    Expr::mul((**right).clone(), (**right).clone()),
                )),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Interval-arithmetic evaluation of an expression over boxed column
/// ranges. Division by an interval containing zero returns `None`
/// (unbounded). The arithmetic is outward-correct up to f64 rounding —
/// callers add [`slack`] on top, which dwarfs the ulp error.
pub(super) fn eval_interval(
    e: &Expr,
    n0: &str,
    n1: &str,
    c: (f64, f64),
    s: (f64, f64),
) -> Option<(f64, f64)> {
    let fin = |r: (f64, f64)| (r.0.is_finite() && r.1.is_finite()).then_some(r);
    match e {
        Expr::Column { table: None, name } => {
            if name.eq_ignore_ascii_case(n0) {
                Some(c)
            } else if name.eq_ignore_ascii_case(n1) {
                Some(s)
            } else {
                None
            }
        }
        Expr::Literal(Value::Int(v)) => Some((*v as f64, *v as f64)),
        Expr::Literal(Value::Float(v)) => Some((*v, *v)),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => {
            let (lo, hi) = eval_interval(expr, n0, n1, c, s)?;
            Some((-hi, -lo))
        }
        Expr::Binary { op, left, right } => {
            let (l0, l1) = eval_interval(left, n0, n1, c, s)?;
            let (r0, r1) = eval_interval(right, n0, n1, c, s)?;
            match op {
                BinaryOp::Add => fin((l0 + r0, l1 + r1)),
                BinaryOp::Sub => fin((l0 - r1, l1 - r0)),
                BinaryOp::Mul => {
                    let p = [l0 * r0, l0 * r1, l1 * r0, l1 * r1];
                    fin((
                        p.iter().copied().fold(f64::INFINITY, f64::min),
                        p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    ))
                }
                BinaryOp::Div => {
                    if r0 <= 0.0 && r1 >= 0.0 {
                        return None;
                    }
                    let p = [l0 / r0, l0 / r1, l1 / r0, l1 / r1];
                    fin((
                        p.iter().copied().fold(f64::INFINITY, f64::min),
                        p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                    ))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

/// Extract the prefix-count range `[min_leaf, total − min_leaf]` from the
/// guard [`crate::sqlgen`] emits (`n0 >= a AND total − n0 >= b`). Used to
/// clip pruning boxes away from the `c = 0` / `c = total` poles where the
/// criteria stops being convex. `None` leaves boxes unclipped (bounds
/// stay sound — corners at the poles blow up and force retention).
pub(super) fn guard_c_range(guard: &Expr, n0: &str) -> Option<(f64, f64)> {
    let lit = |e: &Expr| -> Option<f64> {
        match e {
            Expr::Literal(Value::Float(v)) => Some(*v),
            Expr::Literal(Value::Int(v)) => Some(*v as f64),
            _ => None,
        }
    };
    let is_n0 =
        |e: &Expr| matches!(e, Expr::Column { table: None, name } if name.eq_ignore_ascii_case(n0));
    let Expr::Binary {
        op: BinaryOp::And,
        left,
        right,
    } = guard
    else {
        return None;
    };
    // left: n0 >= min_leaf
    let Expr::Binary {
        op: BinaryOp::GtEq,
        left: ll,
        right: lr,
    } = left.as_ref()
    else {
        return None;
    };
    if !is_n0(ll) {
        return None;
    }
    let lo = lit(lr)?;
    // right: total − n0 >= min_leaf
    let Expr::Binary {
        op: BinaryOp::GtEq,
        left: rl,
        right: rr,
    } = right.as_ref()
    else {
        return None;
    };
    let Expr::Binary {
        op: BinaryOp::Sub,
        left: tl,
        right: tr,
    } = rl.as_ref()
    else {
        return None;
    };
    if !is_n0(tr) {
        return None;
    }
    Some((lo, lit(tl)? - lit(rr)?))
}

/// Is the merged `val` guaranteed to be ordered like the group key? True
/// trivially when `val` *is* the key, and for the histogram shape
/// `GROUP BY FLOOR((f − lo) / w)` with `MAX(f)` selected and `w > 0`:
/// bins partition the value axis into disjoint, ordered ranges, so their
/// maxima are ordered like the bin ids — on every shard and after any
/// cross-shard `MAX` merge.
pub(super) fn binned_val_monotone(group: &Expr, val: &Expr) -> bool {
    let Expr::Func {
        name: gname,
        args: gargs,
    } = group
    else {
        return false;
    };
    if !gname.eq_ignore_ascii_case("FLOOR") || gargs.len() != 1 {
        return false;
    }
    let Expr::Binary {
        op: BinaryOp::Div,
        left: num,
        right: den,
    } = &gargs[0]
    else {
        return false;
    };
    let positive = |e: &Expr| -> bool {
        matches!(e, Expr::Literal(Value::Float(v)) if *v > 0.0)
            || matches!(e, Expr::Literal(Value::Int(v)) if *v > 0)
    };
    if !positive(den) {
        return false;
    }
    // The binned feature expression: `f − lo` or bare `f`.
    let feature = match num.as_ref() {
        Expr::Binary {
            op: BinaryOp::Sub,
            left: f,
            right: lo,
        } if matches!(lo.as_ref(), Expr::Literal(_)) => f.as_ref(),
        other => other,
    };
    let Expr::Func {
        name: vname,
        args: vargs,
    } = val
    else {
        return false;
    };
    vname.eq_ignore_ascii_case("MAX") && vargs.len() == 1 && vargs[0] == *feature
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sqlgen::{numeric_split_query, split_pushdown_shape, NodeTotals, RingKind};
    use joinboost_sql::parse_query;

    /// The criteria and guard exactly as the coordinator sees them:
    /// emitted by `sqlgen`, recognized back out by `split_pushdown_shape`.
    fn emitted(ring: RingKind, c0: f64, c1: f64, lambda: f64, min_leaf: f64) -> (Expr, Expr) {
        let [n0, n1] = ring.components();
        let absorbed = parse_query(&format!(
            "SELECT f AS val, SUM({n0}) AS {n0}, SUM({n1}) AS {n1} FROM fact GROUP BY f"
        ))
        .unwrap();
        let q = numeric_split_query(absorbed, ring, NodeTotals { c0, c1 }, lambda, min_leaf);
        let (shape, _) = split_pushdown_shape(&q).expect("sqlgen's own shape");
        assert_eq!(shape.components, [n0, n1]);
        (shape.criteria, shape.guard.expect("sqlgen emits a guard"))
    }

    const RINGS: [RingKind; 2] = [RingKind::Variance, RingKind::Gradient];

    /// Grid of points inside the box, corners and edges included.
    fn samples(lo: f64, hi: f64) -> impl Iterator<Item = f64> {
        (0..=4).map(move |i| lo + (hi - lo) * f64::from(i) / 4.0)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(128))]

        /// Interval evaluation over a box encloses the point evaluation
        /// everywhere in it — for both criteria and for their symbolic
        /// s-derivatives (the two expressions the chord bound evaluates
        /// by interval). Boxes stay inside the guard range, where the
        /// divisors cannot reach zero.
        #[test]
        fn interval_evaluation_encloses_point_evaluation(
            ring_sel in 0usize..2,
            c_total in 10.0f64..2000.0,
            s_total in -5000.0f64..5000.0,
            lambda in 0.0f64..2.0,
            c_at in 0.0f64..1.0,
            c_width in 0.0f64..1.0,
            s_lo in -6000.0f64..6000.0,
            s_width in 0.0f64..500.0,
        ) {
            let ring = RINGS[ring_sel];
            let [n0, n1] = ring.components();
            let (criteria, _) = emitted(ring, c_total, s_total, lambda, 1.0);
            let clo = 1.0 + c_at * (c_total - 2.0);
            let chi = clo + c_width * (c_total - 1.0 - clo);
            let (cbox, sbox) = ((clo, chi), (s_lo, s_lo + s_width));
            let deriv = d_wrt(&criteria, n1, n0).expect("criteria grammar differentiates");
            for e in [&criteria, &deriv] {
                let (lo, hi) = eval_interval(e, n0, n1, cbox, sbox)
                    .expect("no divisor interval contains zero inside the guard range");
                for c in samples(clo, chi) {
                    for s in samples(sbox.0, sbox.1) {
                        let v = eval_two_col(e, n0, n1, c, s).expect("criteria grammar");
                        proptest::prop_assert!(
                            lo - slack(lo) <= v && v <= hi + slack(hi),
                            "{v} outside [{lo}, {hi}] at c={c}, s={s} for {e}"
                        );
                    }
                }
            }
        }

        /// The symbolic derivative agrees with a central finite
        /// difference (both criteria are quadratic in the second
        /// component, so the difference quotient is exact up to rounding).
        #[test]
        fn symbolic_derivative_matches_central_difference(
            ring_sel in 0usize..2,
            c_total in 10.0f64..2000.0,
            s_total in -5000.0f64..5000.0,
            lambda in 0.0f64..2.0,
            c_at in 0.0f64..1.0,
            s in -6000.0f64..6000.0,
        ) {
            let ring = RINGS[ring_sel];
            let [n0, n1] = ring.components();
            let (criteria, _) = emitted(ring, c_total, s_total, lambda, 1.0);
            let deriv = d_wrt(&criteria, n1, n0).unwrap();
            let c = 1.0 + c_at * (c_total - 2.0);
            let f = |s: f64| eval_two_col(&criteria, n0, n1, c, s).unwrap();
            let h = 1e-3 * (1.0 + s.abs());
            let numeric = (f(s + h) - f(s - h)) / (2.0 * h);
            let symbolic = eval_two_col(&deriv, n0, n1, c, s).unwrap();
            proptest::prop_assert!(
                (symbolic - numeric).abs() <= 1e-6 * (1.0 + symbolic.abs() + f(s).abs()),
                "d/d{n1} = {symbolic} vs finite difference {numeric} at c={c}, s={s}"
            );
        }

        /// The guard `sqlgen` emits yields `[min_leaf, total − min_leaf]`.
        #[test]
        fn emitted_guard_yields_the_min_leaf_range(
            ring_sel in 0usize..2,
            c_total in 10.0f64..2000.0,
            min_leaf in 0.0f64..5.0,
        ) {
            let ring = RINGS[ring_sel];
            let (_, guard) = emitted(ring, c_total, 1.0, 0.0, min_leaf);
            proptest::prop_assert_eq!(
                guard_c_range(&guard, ring.components()[0]),
                Some((min_leaf, c_total - min_leaf))
            );
        }
    }

    /// A guard of any other shape is `None` — boxes then stay unclipped,
    /// which is sound — never a range read off the wrong operands.
    #[test]
    fn unrecognised_guards_yield_no_range() {
        for guard in [
            "c > 1.0 AND 100.0 - c >= 1.0",               // strict comparison
            "1.0 <= c AND 100.0 - c >= 1.0",              // operands swapped
            "c >= 1.0 AND 1.0 <= 100.0 - c",              // right conjunct swapped
            "c >= 1.0 OR 100.0 - c >= 1.0",               // not a conjunction
            "c >= 1.0",                                   // half a guard
            "s >= 1.0 AND 100.0 - s >= 1.0",              // another column
            "c >= 1.0 AND 100.0 - s >= 1.0",              // right side on another column
            "c >= 1.0 AND c - 100.0 >= 1.0",              // subtraction reversed
            "c >= 1.0 AND 100.0 + c >= 1.0",              // not a subtraction
            "c >= s AND 100.0 - c >= 1.0",                // non-literal bound
            "c >= 1.0 AND s - c >= 1.0",                  // non-literal total
            "c >= 1.0 AND 100.0 - c >= 1.0 AND s >= 0.0", // extra conjunct
            "w.c >= 1.0 AND 100.0 - w.c >= 1.0",          // qualified column
        ] {
            let e = joinboost_sql::parse_expr(guard).unwrap();
            assert_eq!(guard_c_range(&e, "c"), None, "{guard}");
        }
        let ok = joinboost_sql::parse_expr("C >= 2 AND 100 - c >= 3.5").unwrap();
        assert_eq!(guard_c_range(&ok, "c"), Some((2.0, 96.5)));
    }
}
