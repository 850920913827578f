//! Regression models: linear leaf models, the M5 model tree, and the bagging
//! ensemble that supplies SMBO's predictive mean and variance.
//!
//! The whole layer is natively N-dimensional: a [`Sample`] carries an
//! arbitrary-length feature vector (built by `ConfigSpace::encode`), and
//! every model fits/predicts over `dim()` features. In the legacy 2-D
//! `(t, c)` space the vector is exactly `[t, c]` and all arithmetic is
//! bit-identical to the pre-generalization pipeline (pinned by
//! the `tests/support/legacy.rs` oracle and the legacy-projection proptest).

pub mod bagging;
pub mod linear;
pub mod m5;

pub use bagging::BaggedM5;
pub use linear::LinearModel;
pub use m5::M5Tree;

/// A training observation: a feature vector `x` (from the config space's
/// encoding), the measured KPI `y`, and a confidence weight.
///
/// The weight implements the paper's §VIII suggestion of feeding the
/// *noisiness* of each measurement (its coefficient of variation) into the
/// modeling phase: precise measurements get weight > 1, noisy or truncated
/// ones < 1. `Sample::new` uses weight 1 (the paper's baseline behaviour).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    x: Vec<f64>,
    pub y: f64,
    /// Relative confidence in `y` (1.0 = nominal).
    pub w: f64,
}

impl Sample {
    pub fn new(x: Vec<f64>, y: f64) -> Self {
        Self { x, y, w: 1.0 }
    }

    /// Legacy 2-feature convenience: the `(t, c)` point of the paper's
    /// original space.
    pub fn point(t: f64, c: f64, y: f64) -> Self {
        Self::new(vec![t, c], y)
    }

    /// A sample with an explicit confidence weight (clamped to a sane
    /// positive range so one observation can neither vanish nor dominate).
    pub fn weighted(x: Vec<f64>, y: f64, w: f64) -> Self {
        Self { x, y, w: w.clamp(0.05, 20.0) }
    }

    /// Derive a confidence weight from a measurement's throughput CV:
    /// `w = (cv_ref / cv)²` with `cv_ref = 10%` (the monitor's stability
    /// threshold), so a window that stabilized exactly at the threshold gets
    /// weight 1. Timed-out windows (`cv = None`) are low-information.
    pub fn weight_from_cv(cv: Option<f64>, timed_out: bool) -> f64 {
        if timed_out {
            return 0.25;
        }
        match cv {
            Some(cv) if cv > 0.0 => (0.10 / cv.max(0.005)).powi(2).clamp(0.05, 20.0),
            _ => 1.0,
        }
    }

    /// The feature vector. Callers index it only through `0..dim()` of the
    /// owning space, so an out-of-range access is impossible by
    /// construction (the old fixed-arity accessor hard-panicked instead).
    pub fn features(&self) -> &[f64] {
        &self.x
    }

    /// Feature dimensionality of this observation.
    pub fn dim(&self) -> usize {
        self.x.len()
    }
}

/// Anything that predicts a KPI from an encoded configuration point.
pub trait Regressor {
    /// Predicted KPI at feature vector `x`.
    fn predict(&self, x: &[f64]) -> f64;
}

pub(crate) fn mean(ys: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for y in ys {
        sum += y;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

pub(crate) fn std_dev(samples: &[Sample]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples.iter().map(|s| s.y));
    let var = samples.iter().map(|s| (s.y - m).powi(2)).sum::<f64>() / samples.len() as f64;
    var.sqrt()
}

/// The common feature dimensionality of a training set (0 when empty).
pub(crate) fn common_dim(samples: &[Sample]) -> usize {
    samples.iter().map(|s| s.dim()).max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_feature_access() {
        let s = Sample::point(3.0, 5.0, 7.0);
        assert_eq!(s.features(), &[3.0, 5.0]);
        assert_eq!(s.dim(), 2);
        assert_eq!(s.w, 1.0);
        let nd = Sample::new(vec![1.0, 2.0, 0.0, 1.0, 6.0], 9.0);
        assert_eq!(nd.dim(), 5);
        assert_eq!(nd.features()[4], 6.0);
    }

    #[test]
    fn weighted_sample_clamps() {
        assert_eq!(Sample::weighted(vec![1.0, 1.0], 1.0, 1e9).w, 20.0);
        assert_eq!(Sample::weighted(vec![1.0, 1.0], 1.0, 0.0).w, 0.05);
    }

    #[test]
    fn weight_from_cv_semantics() {
        // Stabilized exactly at the 10% threshold → nominal weight.
        assert!((Sample::weight_from_cv(Some(0.10), false) - 1.0).abs() < 1e-12);
        // Tighter CV → more confident.
        assert!(Sample::weight_from_cv(Some(0.02), false) > 5.0);
        // Sloppier CV → less confident.
        assert!(Sample::weight_from_cv(Some(0.5), false) < 0.1);
        // Timeout-truncated windows are low-information.
        assert_eq!(Sample::weight_from_cv(Some(0.01), true), 0.25);
        assert_eq!(Sample::weight_from_cv(None, false), 1.0);
    }

    #[test]
    fn helpers() {
        assert_eq!(mean([].into_iter()), 0.0);
        assert_eq!(mean([2.0, 4.0].into_iter()), 3.0);
        let samples = vec![Sample::point(0.0, 0.0, 2.0), Sample::point(0.0, 0.0, 4.0)];
        assert!((std_dev(&samples) - 1.0).abs() < 1e-12);
        assert_eq!(std_dev(&samples[..1]), 0.0);
        assert_eq!(common_dim(&samples), 2);
        assert_eq!(common_dim(&[]), 0);
    }
}
