//! Loss functions (objectives) with gradients and Hessians — paper
//! Appendix B, Table 3.
//!
//! As in LightGBM (which the paper mirrors), some gradients/Hessians are
//! "not mathematically rigorous": `mae` uses a unit Hessian, Huber's
//! Hessian is 1, etc. We reproduce those practical choices.
//!
//! For raw-score objectives (Poisson, logistic) the prediction `p` is the
//! raw additive score of the ensemble, not the transformed mean.

/// A training objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// L2 / `rmse`: the only objective supported on galaxy schemas
    /// (Section 4.2); `loss = ε²`, `g = −ε`, `h = 1` where `ε = y − p`.
    SquaredError,
    /// L1 / `mae`: `loss = |ε|`, `g = −sign(ε)`, `h = 1`.
    AbsoluteError,
    /// Huber loss with threshold `delta`.
    Huber { delta: f64 },
    /// Fair loss with scale `c`.
    Fair { c: f64 },
    /// Poisson regression (raw score `p`; mean is `exp(p)`).
    Poisson,
    /// Quantile (pinball) loss at quantile `alpha`.
    Quantile { alpha: f64 },
    /// Mean absolute percentage error.
    Mape,
    /// Binary logistic loss (`y ∈ {0,1}`, raw score `p`).
    Logistic,
}

impl Objective {
    /// Human-readable name matching the LightGBM parameter values.
    pub fn name(&self) -> &'static str {
        match self {
            Objective::SquaredError => "regression",
            Objective::AbsoluteError => "regression_l1",
            Objective::Huber { .. } => "huber",
            Objective::Fair { .. } => "fair",
            Objective::Poisson => "poisson",
            Objective::Quantile { .. } => "quantile",
            Objective::Mape => "mape",
            Objective::Logistic => "binary",
        }
    }

    /// Only `rmse` factorizes over galaxy schemas (variance semi-ring is
    /// add-to-mul preserving; no such constant-size ring exists for the
    /// others — Section 4.2).
    pub fn supports_galaxy(&self) -> bool {
        matches!(self, Objective::SquaredError)
    }

    /// Loss value for one example.
    pub fn loss(&self, y: f64, p: f64) -> f64 {
        let e = y - p;
        match *self {
            Objective::SquaredError => e * e,
            Objective::AbsoluteError => e.abs(),
            Objective::Huber { delta } => {
                if e.abs() <= delta {
                    0.5 * e * e
                } else {
                    delta * (e.abs() - 0.5 * delta)
                }
            }
            Objective::Fair { c } => c * e.abs() - c * c * (e.abs() / c + 1.0).ln(),
            Objective::Poisson => p.exp() - y * p,
            Objective::Quantile { alpha } => {
                if e < 0.0 {
                    (alpha - 1.0) * e
                } else {
                    alpha * e
                }
            }
            Objective::Mape => e.abs() / y.abs().max(1.0),
            Objective::Logistic => {
                // log(1 + exp(p)) − y·p, numerically stabilized.
                let m = p.max(0.0);
                m + ((-m).exp() + (p - m).exp()).ln() - y * p
            }
        }
    }

    /// Gradient `∂loss/∂p` (Table 3, with the paper's sign conventions
    /// rewritten in terms of `p` so that `g` is a true derivative).
    pub fn gradient(&self, y: f64, p: f64) -> f64 {
        let e = y - p;
        match *self {
            // Practical convention (LightGBM): g = p − y = −ε with h = 1;
            // the factor 2 of the true derivative is absorbed into the
            // learning rate.
            Objective::SquaredError => -e,
            Objective::AbsoluteError => -e.signum(),
            Objective::Huber { delta } => {
                if e.abs() <= delta {
                    -e
                } else {
                    -delta * e.signum()
                }
            }
            Objective::Fair { c } => -c * e / (e.abs() + c),
            Objective::Poisson => p.exp() - y,
            Objective::Quantile { alpha } => {
                if e < 0.0 {
                    1.0 - alpha
                } else {
                    -alpha
                }
            }
            Objective::Mape => -e.signum() / y.abs().max(1.0),
            Objective::Logistic => sigmoid(p) - y,
        }
    }

    /// Hessian `∂²loss/∂p²` (practical approximations per Table 3).
    pub fn hessian(&self, y: f64, p: f64) -> f64 {
        let e = y - p;
        match *self {
            Objective::SquaredError => 1.0,
            Objective::AbsoluteError => 1.0,
            Objective::Huber { .. } => 1.0,
            Objective::Fair { c } => c * c / ((e.abs() + c) * (e.abs() + c)),
            Objective::Poisson => p.exp(),
            Objective::Quantile { .. } => 1.0,
            Objective::Mape => 1.0,
            Objective::Logistic => {
                let s = sigmoid(p);
                (s * (1.0 - s)).max(1e-16)
            }
        }
    }

    /// The constant base score minimizing the loss over the training
    /// targets (the 0-th iteration prediction).
    pub fn init_score(&self, ys: &[f64]) -> f64 {
        if ys.is_empty() {
            return 0.0;
        }
        match *self {
            Objective::SquaredError | Objective::Huber { .. } | Objective::Fair { .. } => {
                ys.iter().sum::<f64>() / ys.len() as f64
            }
            Objective::AbsoluteError | Objective::Mape => percentile(ys, 0.5),
            Objective::Quantile { alpha } => percentile(ys, alpha),
            Objective::Poisson => {
                let mean = ys.iter().sum::<f64>() / ys.len() as f64;
                mean.max(1e-9).ln()
            }
            Objective::Logistic => {
                let mean = (ys.iter().sum::<f64>() / ys.len() as f64).clamp(1e-9, 1.0 - 1e-9);
                (mean / (1.0 - mean)).ln()
            }
        }
    }

    /// Transform a raw ensemble score into the prediction space (identity
    /// for direct objectives, `exp` for Poisson, sigmoid for logistic).
    pub fn transform(&self, raw: f64) -> f64 {
        match self {
            Objective::Poisson => raw.exp(),
            Objective::Logistic => sigmoid(raw),
            _ => raw,
        }
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

fn percentile(ys: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = ys.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let pos = (q.clamp(0.0, 1.0) * (v.len() - 1) as f64).round() as usize;
    v[pos]
}

/// Root mean squared error of predictions.
pub fn rmse(ys: &[f64], ps: &[f64]) -> f64 {
    assert_eq!(ys.len(), ps.len());
    if ys.is_empty() {
        return 0.0;
    }
    let mse = ys
        .iter()
        .zip(ps)
        .map(|(y, p)| (y - p) * (y - p))
        .sum::<f64>()
        / ys.len() as f64;
    mse.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn numeric_gradient(obj: Objective, y: f64, p: f64) -> f64 {
        let h = 1e-6;
        (obj.loss(y, p + h) - obj.loss(y, p - h)) / (2.0 * h)
    }

    #[test]
    fn gradients_match_numeric_derivatives() {
        let objectives = [
            // SquaredError's practical gradient is −ε = 0.5·dloss/dp; scale
            // invariance makes the factor irrelevant, so test it separately.
            Objective::AbsoluteError,
            Objective::Huber { delta: 1.0 },
            Objective::Fair { c: 2.0 },
            Objective::Poisson,
            Objective::Quantile { alpha: 0.9 },
            Objective::Logistic,
        ];
        for obj in objectives {
            for &(y, p) in &[(3.0, 1.0), (0.0, 2.0), (1.0, 0.3), (5.0, 4.9)] {
                let (y, p) = if obj == Objective::Logistic {
                    (if y > 1.0 { 1.0 } else { 0.0 }, p)
                } else {
                    (y, p)
                };
                let g = obj.gradient(y, p);
                let num = numeric_gradient(obj, y, p);
                assert!(
                    (g - num).abs() < 1e-4 * (1.0 + num.abs()),
                    "{} at (y={y}, p={p}): got {g}, numeric {num}",
                    obj.name()
                );
            }
        }
    }

    #[test]
    fn squared_error_gradient_is_negative_residual() {
        let obj = Objective::SquaredError;
        assert_eq!(obj.gradient(3.0, 1.0), -2.0);
        assert_eq!(obj.hessian(3.0, 1.0), 1.0);
    }

    #[test]
    fn hessians_nonnegative() {
        let objectives = [
            Objective::SquaredError,
            Objective::AbsoluteError,
            Objective::Huber { delta: 1.0 },
            Objective::Fair { c: 2.0 },
            Objective::Poisson,
            Objective::Quantile { alpha: 0.1 },
            Objective::Mape,
            Objective::Logistic,
        ];
        for obj in objectives {
            for &(y, p) in &[(3.0, 1.0), (0.0, -2.0), (1.0, 0.0)] {
                assert!(obj.hessian(y, p) > 0.0, "{}", obj.name());
            }
        }
    }

    #[test]
    fn init_scores_minimize() {
        let ys = [1.0, 2.0, 3.0, 10.0];
        // Mean minimizes L2, median minimizes L1.
        assert_eq!(Objective::SquaredError.init_score(&ys), 4.0);
        let med = Objective::AbsoluteError.init_score(&ys);
        assert!((2.0..=3.0).contains(&med));
        // Check optimality numerically for L2.
        let base = Objective::SquaredError.init_score(&ys);
        let at = |p: f64| {
            ys.iter()
                .map(|&y| Objective::SquaredError.loss(y, p))
                .sum::<f64>()
        };
        assert!(at(base) <= at(base + 0.1) && at(base) <= at(base - 0.1));
    }

    #[test]
    fn galaxy_support_only_rmse() {
        assert!(Objective::SquaredError.supports_galaxy());
        assert!(!Objective::AbsoluteError.supports_galaxy());
        assert!(!Objective::Huber { delta: 1.0 }.supports_galaxy());
    }

    #[test]
    fn transforms() {
        assert_eq!(Objective::SquaredError.transform(2.5), 2.5);
        assert!((Objective::Poisson.transform(0.0) - 1.0).abs() < 1e-12);
        assert!((Objective::Logistic.transform(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rmse_helper() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }
}
