//! Multivariate linear leaf models `y = b0 + Σ bⱼ·xⱼ`, fit by ridge-
//! regularized least squares over the normal equations.
//!
//! The model is dimension-generic: it fits however many features the
//! training samples carry (the config space's encoding width). At `d = 2`
//! (the legacy `[t, c]` encoding) the accumulation order, the ridge term and
//! the Gaussian elimination are arithmetic-identical to the original
//! two-feature implementation, which the `tests/support/legacy.rs` oracle pins
//! bit-for-bit.

use super::{common_dim, mean, Regressor, Sample};

/// A fitted linear model: `coef[0]` is the intercept, `coef[1 + j]` the
/// coefficient of feature `j`. A mean-only fallback stores just the
/// intercept.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearModel {
    coef: Vec<f64>,
}

impl LinearModel {
    /// Build directly from coefficients (`[b0, b1, ..]`); mostly for tests
    /// and diagnostics.
    pub fn from_coef(coef: Vec<f64>) -> Self {
        Self { coef }
    }

    /// Intercept term.
    pub fn intercept(&self) -> f64 {
        self.coef.first().copied().unwrap_or(0.0)
    }

    /// Coefficient of feature `j` (0 when the model fell back to a mean).
    pub fn coef(&self, j: usize) -> f64 {
        self.coef.get(1 + j).copied().unwrap_or(0.0)
    }

    /// Fit by (weighted) least squares with a small ridge term for numerical
    /// stability. Sample weights implement the §VIII noise-aware modeling
    /// extension (weight 1 everywhere = ordinary least squares). Degenerate
    /// inputs (too few or collinear points) gracefully fall back toward the
    /// weighted-mean predictor.
    // Index loops mirror the Σ wxⱼxₖ normal-equation algebra; iterator
    // rewrites of the triangular fills obscure the symmetry being exploited.
    #[allow(clippy::needless_range_loop)]
    pub fn fit(samples: &[Sample]) -> Self {
        if samples.is_empty() {
            return Self { coef: vec![0.0] };
        }
        let d = common_dim(samples);
        let w_total: f64 = samples.iter().map(|s| s.w).sum();
        let y_mean = if w_total > 0.0 {
            samples.iter().map(|s| s.w * s.y).sum::<f64>() / w_total
        } else {
            mean(samples.iter().map(|s| s.y))
        };
        if samples.len() < d + 1 || d == 0 {
            return Self { coef: vec![y_mean] };
        }
        // Weighted normal equations A·b = v with A = XᵀWX + λI
        // (X columns: 1, x₀, x₁, …; W = diag(w)).
        let n = w_total;
        let mut sx = vec![0.0; d];
        let mut sxy = vec![0.0; d];
        let mut sxx = vec![vec![0.0; d]; d];
        let mut sy = 0.0;
        for s in samples {
            let w = s.w;
            let x = s.features();
            for j in 0..d {
                let xj = x.get(j).copied().unwrap_or(0.0);
                sx[j] += w * xj;
                sxy[j] += w * xj * s.y;
                for k in j..d {
                    sxx[j][k] += w * xj * x.get(k).copied().unwrap_or(0.0);
                }
            }
            sy += w * s.y;
        }
        for j in 0..d {
            for k in 0..j {
                sxx[j][k] = sxx[k][j];
            }
        }
        let trace: f64 = (0..d).map(|j| sxx[j][j]).sum();
        let lambda = 1e-8 * (trace + n).max(1.0);
        let mut a = vec![vec![0.0; d + 1]; d + 1];
        let mut v = vec![0.0; d + 1];
        a[0][0] = n + lambda;
        v[0] = sy;
        for j in 0..d {
            a[0][j + 1] = sx[j];
            a[j + 1][0] = sx[j];
            v[j + 1] = sxy[j];
            for k in 0..d {
                a[j + 1][k + 1] = sxx[j][k] + if j == k { lambda } else { 0.0 };
            }
        }
        match solve(a, v) {
            Some(coef) if coef.iter().all(|b| b.is_finite()) => Self { coef },
            _ => Self { coef: vec![y_mean] },
        }
    }

    /// Root-mean-square error on a sample set.
    pub fn rmse(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let sse: f64 = samples.iter().map(|s| (self.predict(s.features()) - s.y).powi(2)).sum();
        (sse / samples.len() as f64).sqrt()
    }

    /// Mean absolute error on a sample set.
    pub fn mae(&self, samples: &[Sample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().map(|s| (self.predict(s.features()) - s.y).abs()).sum::<f64>()
            / samples.len() as f64
    }
}

impl Regressor for LinearModel {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut acc = self.intercept();
        for (j, b) in self.coef.iter().skip(1).enumerate() {
            acc += b * x.get(j).copied().unwrap_or(0.0);
        }
        acc
    }
}

/// Solve a dense linear system by Gaussian elimination with partial
/// pivoting. Returns `None` when the (ridge-regularized) matrix is still
/// effectively singular.
#[allow(clippy::needless_range_loop)] // index math mirrors the textbook algorithm
fn solve(mut a: Vec<Vec<f64>>, mut v: Vec<f64>) -> Option<Vec<f64>> {
    let m = a.len();
    for col in 0..m {
        // Pivot.
        let pivot = (col..m).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        v.swap(col, pivot);
        // Eliminate below.
        for row in (col + 1)..m {
            let f = a[row][col] / a[col][col];
            for k in col..m {
                a[row][k] -= f * a[col][k];
            }
            v[row] -= f * v[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; m];
    for row in (0..m).rev() {
        let mut acc = v[row];
        for k in (row + 1)..m {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_samples(f: impl Fn(f64, f64) -> f64) -> Vec<Sample> {
        let mut out = Vec::new();
        for t in 1..=6 {
            for c in 1..=6 {
                out.push(Sample::point(t as f64, c as f64, f(t as f64, c as f64)));
            }
        }
        out
    }

    #[test]
    fn recovers_exact_linear_function() {
        let samples = grid_samples(|t, c| 3.0 + 2.0 * t - 5.0 * c);
        let m = LinearModel::fit(&samples);
        // Tolerances account for the ridge term's tiny bias.
        assert!((m.intercept() - 3.0).abs() < 1e-3, "b0 = {}", m.intercept());
        assert!((m.coef(0) - 2.0).abs() < 1e-4, "b1 = {}", m.coef(0));
        assert!((m.coef(1) + 5.0).abs() < 1e-4, "b2 = {}", m.coef(1));
        assert!(m.rmse(&samples) < 1e-3);
    }

    #[test]
    fn recovers_higher_dimensional_function() {
        // Four features (as a space with a one-hot axis would encode): the
        // generalized solver must recover all coefficients.
        let mut samples = Vec::new();
        for t in 1..=4 {
            for c in 1..=4 {
                for a in 0..2 {
                    for b in 0..2 {
                        let x = vec![t as f64, c as f64, a as f64, b as f64];
                        let y = 1.0 + 2.0 * x[0] - 3.0 * x[1] + 7.0 * x[2] - 0.5 * x[3];
                        samples.push(Sample::new(x, y));
                    }
                }
            }
        }
        let m = LinearModel::fit(&samples);
        assert!((m.intercept() - 1.0).abs() < 1e-3);
        assert!((m.coef(0) - 2.0).abs() < 1e-4);
        assert!((m.coef(1) + 3.0).abs() < 1e-4);
        assert!((m.coef(2) - 7.0).abs() < 1e-4);
        assert!((m.coef(3) + 0.5).abs() < 1e-4);
    }

    #[test]
    fn predict_extrapolates_linearly() {
        let samples = grid_samples(|t, c| 10.0 + t + c);
        let m = LinearModel::fit(&samples);
        assert!((m.predict(&[100.0, 50.0]) - 160.0).abs() < 1e-3);
    }

    #[test]
    fn empty_fit_is_zero() {
        let m = LinearModel::fit(&[]);
        assert_eq!(m.predict(&[5.0, 5.0]), 0.0);
        assert_eq!(m.rmse(&[]), 0.0);
        assert_eq!(m.mae(&[]), 0.0);
    }

    #[test]
    fn tiny_fit_falls_back_to_mean() {
        let samples = vec![Sample::point(1.0, 1.0, 10.0), Sample::point(2.0, 1.0, 20.0)];
        let m = LinearModel::fit(&samples);
        assert_eq!(m.coef(0), 0.0);
        assert_eq!(m.predict(&[9.0, 9.0]), 15.0);
    }

    #[test]
    fn underdetermined_high_dim_falls_back_to_mean() {
        // 3 samples, 4 features: fewer samples than parameters.
        let samples = vec![
            Sample::new(vec![1.0, 1.0, 0.0, 1.0], 10.0),
            Sample::new(vec![2.0, 1.0, 1.0, 0.0], 20.0),
            Sample::new(vec![3.0, 2.0, 0.0, 0.0], 30.0),
        ];
        let m = LinearModel::fit(&samples);
        assert_eq!(m.predict(&[9.0, 9.0, 1.0, 1.0]), 20.0);
    }

    #[test]
    fn collinear_inputs_do_not_explode() {
        // All points share t == c: the design matrix is singular; the ridge
        // or the fallback must keep predictions finite and sensible.
        let samples: Vec<Sample> =
            (1..=8).map(|i| Sample::point(i as f64, i as f64, 2.0 * i as f64)).collect();
        let m = LinearModel::fit(&samples);
        let p = m.predict(&[4.0, 4.0]);
        assert!(p.is_finite());
        assert!((p - 8.0).abs() < 0.5, "p = {p}");
    }

    #[test]
    fn rmse_and_mae_on_noisy_fit() {
        let samples = grid_samples(|t, c| t + c);
        let m = LinearModel::from_coef(vec![0.0, 1.0, 1.0]);
        assert_eq!(m.rmse(&samples), 0.0);
        let biased = LinearModel::from_coef(vec![1.0, 1.0, 1.0]);
        assert!((biased.rmse(&samples) - 1.0).abs() < 1e-12);
        assert!((biased.mae(&samples) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn weighted_fit_discounts_noisy_outlier() {
        // A clean linear trend plus one wild outlier: with a tiny weight the
        // outlier barely moves the fit; with weight 1 it visibly does.
        let mut clean = grid_samples(|t, c| 10.0 + 2.0 * t + c);
        let outlier_heavy = {
            let mut s = clean.clone();
            s.push(Sample::point(3.0, 3.0, 500.0));
            LinearModel::fit(&s)
        };
        clean.push(Sample::weighted(vec![3.0, 3.0], 500.0, 0.05));
        let outlier_light = LinearModel::fit(&clean);
        let truth = 10.0 + 2.0 * 3.0 + 3.0;
        let err_heavy = (outlier_heavy.predict(&[3.0, 3.0]) - truth).abs();
        let err_light = (outlier_light.predict(&[3.0, 3.0]) - truth).abs();
        assert!(
            err_light < err_heavy / 5.0,
            "downweighting must shrink the outlier's pull: {err_light} vs {err_heavy}"
        );
    }

    #[test]
    fn uniform_weights_match_unweighted() {
        let samples = grid_samples(|t, c| 5.0 - t + 2.0 * c);
        let reweighted: Vec<Sample> =
            samples.iter().map(|s| Sample::weighted(s.features().to_vec(), s.y, 3.0)).collect();
        let a = LinearModel::fit(&samples);
        let b = LinearModel::fit(&reweighted);
        assert!(
            (a.intercept() - b.intercept()).abs() < 1e-6 && (a.coef(0) - b.coef(0)).abs() < 1e-6
        );
    }

    #[test]
    fn solve_identity() {
        let x = solve(
            vec![vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0], vec![0.0, 0.0, 1.0]],
            vec![4.0, 5.0, 6.0],
        )
        .unwrap();
        assert_eq!(x, vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn solve_singular_returns_none() {
        assert!(solve(
            vec![vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0], vec![0.0, 0.0, 1.0]],
            vec![1.0, 2.0, 3.0]
        )
        .is_none());
    }
}
