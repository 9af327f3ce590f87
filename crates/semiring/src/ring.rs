//! The semi-ring abstraction and the three rings of the paper.
//!
//! All rings here share the two structural properties the paper's SQL
//! compilation relies on:
//!
//! 1. `⊕` is componentwise addition of the annotation vector — so a
//!    `GROUP BY` maps to one `SUM(..)` per component;
//! 2. `⊗` is *bilinear*: every output component is a weighted sum of
//!    products of one left and one right component — so a join maps to
//!    simple `+`/`*` arithmetic over the component columns.
//!
//! A ring therefore only needs to declare its component names, its unit
//! element, its `lift` and its multiplication table; numeric `add`/`mul`
//! derive from that declaration, and `ring_laws` checks the laws on it.
//! The trainer's SQL does not read these types: it writes `⊗` for its
//! two-component annotations directly (`joinboost::sqlgen::symbolic_mul`).

/// One term of a bilinear product: `coeff * left[l] * right[r]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulTerm {
    pub left: usize,
    pub right: usize,
    pub coeff: f64,
}

impl MulTerm {
    pub const fn new(left: usize, right: usize, coeff: f64) -> Self {
        MulTerm { left, right, coeff }
    }
}

/// A commutative semi-ring over `Vec<f64>` annotations with componentwise
/// `⊕` and bilinear `⊗`.
pub trait SemiRing {
    /// Component (column suffix) names, e.g. `["c", "s", "q"]`.
    fn components(&self) -> Vec<String>;

    /// The `1̄` element (annotation of tuples in non-target relations).
    fn one(&self) -> Vec<f64>;

    /// The `0̄` element.
    fn zero(&self) -> Vec<f64> {
        vec![0.0; self.components().len()]
    }

    /// The bilinear multiplication table: `mul_terms()[k]` lists the terms
    /// whose sum is output component `k`.
    fn mul_terms(&self) -> Vec<Vec<MulTerm>>;

    /// Lift a target value into the ring.
    fn lift(&self, y: f64) -> Vec<f64>;

    /// `⊕`: componentwise addition.
    fn add(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        debug_assert_eq!(a.len(), b.len());
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    /// `⊗`: evaluate the bilinear table.
    fn mul(&self, a: &[f64], b: &[f64]) -> Vec<f64> {
        self.mul_terms()
            .iter()
            .map(|terms| terms.iter().map(|t| t.coeff * a[t.left] * b[t.right]).sum())
            .collect()
    }

    /// Aggregate (`⊕`-fold) a sequence of lifted values.
    fn sum_lifted<'a>(&self, ys: impl IntoIterator<Item = &'a f64>) -> Vec<f64> {
        let mut acc = self.zero();
        for &y in ys {
            let l = self.lift(y);
            for (a, b) in acc.iter_mut().zip(&l) {
                *a += b;
            }
        }
        acc
    }

    /// Does `lift` preserve addition as multiplication (Definition 1):
    /// `lift(d1 + d2) = lift(d1) ⊗ lift(d2)`? Checked numerically on the
    /// given sample points; rings that satisfy it support factorized
    /// residual updates over galaxy schemas.
    fn is_add_to_mul_preserving(&self, samples: &[(f64, f64)]) -> bool {
        samples.iter().all(|&(d1, d2)| {
            let lhs = self.lift(d1 + d2);
            let rhs = self.mul(&self.lift(d1), &self.lift(d2));
            lhs.iter()
                .zip(&rhs)
                .all(|(a, b)| (a - b).abs() <= 1e-9 * (1.0 + a.abs().max(b.abs())))
        })
    }
}

/// Variance semi-ring `(c, s, q)` (paper Table 1):
///
/// * `lift(y) = (1, y, y²)`
/// * `(c₁,s₁,q₁) ⊗ (c₂,s₂,q₂) = (c₁c₂, s₁c₂+s₂c₁, q₁c₂+q₂c₁+2s₁s₂)`
///
/// Supports the `rmse` criterion, and is addition-to-multiplication
/// preserving — the property enabling factorized gradient boosting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VarianceRing;

impl SemiRing for VarianceRing {
    fn components(&self) -> Vec<String> {
        vec!["c".into(), "s".into(), "q".into()]
    }

    fn one(&self) -> Vec<f64> {
        vec![1.0, 0.0, 0.0]
    }

    fn mul_terms(&self) -> Vec<Vec<MulTerm>> {
        vec![
            vec![MulTerm::new(0, 0, 1.0)],
            vec![MulTerm::new(1, 0, 1.0), MulTerm::new(0, 1, 1.0)],
            vec![
                MulTerm::new(2, 0, 1.0),
                MulTerm::new(0, 2, 1.0),
                MulTerm::new(1, 1, 2.0),
            ],
        ]
    }

    fn lift(&self, y: f64) -> Vec<f64> {
        vec![1.0, y, y * y]
    }
}

/// Class-count semi-ring `(c, c₁, …, c_k)` (paper Table 1): supports Gini,
/// information gain and chi-square for `k`-class classification.
///
/// * `lift(class j) = (1, 0, …, 1 at j, …, 0)`
/// * `⊗` scales each class count by the other side's total count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassCountRing {
    pub num_classes: usize,
}

impl ClassCountRing {
    pub fn new(num_classes: usize) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        ClassCountRing { num_classes }
    }

    /// Lift a class label (0-based).
    pub fn lift_class(&self, class: usize) -> Vec<f64> {
        assert!(class < self.num_classes);
        let mut v = vec![0.0; self.num_classes + 1];
        v[0] = 1.0;
        v[class + 1] = 1.0;
        v
    }
}

impl SemiRing for ClassCountRing {
    fn components(&self) -> Vec<String> {
        let mut v = vec!["c".to_string()];
        for i in 0..self.num_classes {
            v.push(format!("c{i}"));
        }
        v
    }

    fn one(&self) -> Vec<f64> {
        let mut v = vec![0.0; self.num_classes + 1];
        v[0] = 1.0;
        v
    }

    fn mul_terms(&self) -> Vec<Vec<MulTerm>> {
        let mut out = vec![vec![MulTerm::new(0, 0, 1.0)]];
        for i in 1..=self.num_classes {
            out.push(vec![MulTerm::new(i, 0, 1.0), MulTerm::new(0, i, 1.0)]);
        }
        out
    }

    /// Lifting a raw f64 treats it as a class index.
    fn lift(&self, y: f64) -> Vec<f64> {
        self.lift_class(y as usize)
    }
}

/// Gradient semi-ring `(h, g)` (Appendix B, Table 2):
///
/// * `lift(t) = (h(t), g(t))` on the target relation, `(1, 0)` elsewhere
/// * `(h₁,g₁) ⊗ (h₂,g₂) = (h₁h₂, g₁h₂+g₂h₁)`
///
/// Supports second-order boosting: the split gain and leaf weights only
/// need `ΣG` and `ΣH`. With `lift(d) = (1, d)` it is add-to-mul preserving,
/// which is why first-order residual updates factorize.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GradientRing;

impl SemiRing for GradientRing {
    fn components(&self) -> Vec<String> {
        vec!["h".into(), "g".into()]
    }

    fn one(&self) -> Vec<f64> {
        vec![1.0, 0.0]
    }

    fn mul_terms(&self) -> Vec<Vec<MulTerm>> {
        vec![
            vec![MulTerm::new(0, 0, 1.0)],
            vec![MulTerm::new(1, 0, 1.0), MulTerm::new(0, 1, 1.0)],
        ]
    }

    /// Default lift used for residual-style updates: unit hessian.
    fn lift(&self, y: f64) -> Vec<f64> {
        vec![1.0, y]
    }
}

/// A would-be "semi-ring" for `mae` that tracks `(count, Σ sign(y))`.
/// The paper proves no constant-size add-to-mul-preserving lift exists for
/// `mae`; this type exists so tests can demonstrate the failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NaiveSignRing;

impl SemiRing for NaiveSignRing {
    fn components(&self) -> Vec<String> {
        vec!["c".into(), "sgn".into()]
    }

    fn one(&self) -> Vec<f64> {
        vec![1.0, 0.0]
    }

    fn mul_terms(&self) -> Vec<Vec<MulTerm>> {
        vec![
            vec![MulTerm::new(0, 0, 1.0)],
            vec![MulTerm::new(1, 0, 1.0), MulTerm::new(0, 1, 1.0)],
        ]
    }

    fn lift(&self, y: f64) -> Vec<f64> {
        vec![1.0, y.signum()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_vec_eq(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-9, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn variance_ring_matches_table_1() {
        let r = VarianceRing;
        let a = [2.0, 5.0, 13.0];
        let b = [3.0, 4.0, 10.0];
        let prod = r.mul(&a, &b);
        // (c1c2, s1c2+s2c1, q1c2+q2c1+2s1s2) = (6, 23, 13·3+10·2+2·5·4)
        assert_vec_eq(&prod, &[6.0, 23.0, 99.0]);
        let sum = r.add(&a, &b);
        assert_vec_eq(&sum, &[5.0, 9.0, 23.0]);
    }

    #[test]
    fn variance_lift_and_identity() {
        let r = VarianceRing;
        assert_vec_eq(&r.lift(3.0), &[1.0, 3.0, 9.0]);
        let a = [2.0, 5.0, 13.0];
        assert_vec_eq(&r.mul(&a, &r.one()), &a);
        assert_vec_eq(&r.add(&a, &r.zero()), &a);
        assert_vec_eq(&r.mul(&a, &r.zero()), &r.zero());
    }

    #[test]
    fn variance_ring_is_add_to_mul_preserving() {
        let r = VarianceRing;
        let samples = [(2.0, -1.5), (0.0, 3.25), (-7.0, -0.1), (1e3, -1e-3)];
        assert!(r.is_add_to_mul_preserving(&samples));
        // Spot check from the paper: lift(y - p) = lift(y) ⊗ lift(-p).
        let (y, p) = (2.0f64, 2.5f64);
        let lhs = r.lift(y - p);
        let rhs = r.mul(&r.lift(y), &r.lift(-p));
        assert_vec_eq(&lhs, &rhs);
    }

    #[test]
    fn naive_sign_ring_is_not_add_to_mul_preserving() {
        // Paper Section 4.2: Σ sign(y − p) cannot be derived from
        // (Σ1, Σ sign(y), −p); the sign lift breaks the property.
        let r = NaiveSignRing;
        assert!(!r.is_add_to_mul_preserving(&[(1.0, -2.0)]));
    }

    #[test]
    fn gradient_ring_matches_table_2() {
        let r = GradientRing;
        let a = [2.0, 5.0]; // (h, g)
        let b = [3.0, 4.0];
        assert_vec_eq(&r.mul(&a, &b), &[6.0, 23.0]);
        assert!(r.is_add_to_mul_preserving(&[(1.0, 2.0), (-0.5, 3.0)]));
    }

    #[test]
    fn class_count_ring_matches_table_1() {
        let r = ClassCountRing::new(3);
        let a = r.lift_class(0); // (1, 1, 0, 0)
        let b = r.lift_class(2); // (1, 0, 0, 1)
        let sum = r.add(&a, &b);
        assert_vec_eq(&sum, &[2.0, 1.0, 0.0, 1.0]);
        // ⊗ with a pure-count annotation scales the class counts.
        let scale = [4.0, 0.0, 0.0, 0.0];
        let prod = r.mul(&sum, &scale);
        assert_vec_eq(&prod, &[8.0, 4.0, 0.0, 4.0]);
        assert_vec_eq(&r.mul(&sum, &r.one()), &sum);
    }

    #[test]
    fn sum_lifted_aggregates() {
        let r = VarianceRing;
        let ys = [2.0, 3.0, 1.0, 2.0];
        let agg = r.sum_lifted(ys.iter());
        assert_vec_eq(&agg, &[4.0, 8.0, 18.0]);
    }

    #[test]
    fn paper_example_1_variance_via_semiring() {
        // Figure 1: γ(R ⋈ S ⋈ T) = (8, 16, 36) and variance = Q − S²/C = 4.
        let r = VarianceRing;
        let agg = [8.0f64, 16.0, 36.0];
        let var = agg[2] - agg[1] * agg[1] / agg[0];
        assert!((var - 4.0).abs() < 1e-12);
        // The same aggregate assembled by message passing: B column of R is
        // the target; S and T contribute count-only annotations.
        let r_by_a: Vec<(i64, Vec<f64>)> = vec![
            (1, r.add(&r.lift(2.0), &r.lift(3.0))),
            (2, r.add(&r.lift(1.0), &r.lift(2.0))),
        ];
        // S has 2 rows with A=1? From Figure 1a: S(A,C): (1,2),(2,1),(2,3).
        let s_by_a = [(1i64, 1.0f64), (2, 2.0)];
        // T(A,D): (1,1),(1,2),(2,2).
        let t_by_a = [(1i64, 2.0f64), (2, 1.0)];
        let mut total = r.zero();
        for (a, ra) in &r_by_a {
            let sc = s_by_a.iter().find(|(k, _)| k == a).unwrap().1;
            let tc = t_by_a.iter().find(|(k, _)| k == a).unwrap().1;
            let mut v = r.mul(ra, &[sc, 0.0, 0.0]);
            v = r.mul(&v, &[tc, 0.0, 0.0]);
            total = r.add(&total, &v);
        }
        assert_vec_eq(&total, &agg);
    }
}
