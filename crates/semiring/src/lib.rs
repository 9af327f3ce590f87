//! Commutative semi-rings for factorized tree learning (paper Table 1,
//! Definition 1 and Appendix B).
//!
//! Factorized ML annotates every tuple with a semi-ring element; group-by
//! translates to `⊕` and join to `⊗`, which lets aggregations be pushed
//! through joins (message passing). This crate provides:
//!
//! * [`ring`] — the semi-ring abstraction. Every ring used by JoinBoost is
//!   *componentwise-additive and bilinear in `⊗`*, so a ring is fully
//!   described by its component names, its `1̄` element, its lift, and a
//!   bilinear multiplication table. The trainer's SQL compiler writes its
//!   own two-component `⊗` (`joinboost::sqlgen::symbolic_mul`) instead.
//! * the **variance semi-ring** `(c, s, q)` for regression (`rmse`), the
//!   **class-count semi-ring** `(c, c₁..c_k)` for classification, and the
//!   **gradient semi-ring** `(h, g)` for second-order gradient boosting
//!   (Appendix B, Table 2);
//! * the **addition-to-multiplication-preserving** property
//!   (Definition 1): `lift(d₁+d₂) = lift(d₁) ⊗ lift(d₂)`, the key to
//!   factorized residual updates on galaxy schemas;
//! * [`criteria`] — split criteria computed from aggregated annotations:
//!   reduction in variance, second-order gain with `λ`/`α` regularization,
//!   Gini, entropy and chi-square (Appendix A);
//! * [`loss`] — the loss functions of Table 3 with their gradients,
//!   Hessians and leaf-prediction rules.

pub mod criteria;
pub mod loss;
pub mod ring;

pub use criteria::{
    chi_square, entropy, gini, leaf_weight, second_order_gain, variance, variance_reduction,
};
pub use loss::Objective;
pub use ring::{ClassCountRing, GradientRing, SemiRing, VarianceRing};
