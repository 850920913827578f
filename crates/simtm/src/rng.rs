//! Deterministic random sampling helpers.
//!
//! Only `rand`'s uniform primitives are available offline, so the normal and
//! log-normal variates the simulator needs are derived here via Box–Muller.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seeded random source with the distribution helpers the simulator uses.
#[derive(Debug, Clone)]
pub struct SimRng {
    rng: StdRng,
    /// Cached second Box–Muller variate.
    spare_normal: Option<f64>,
}

impl SimRng {
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), spare_normal: None }
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.rng.gen::<f64>() < p
        }
    }

    /// Standard normal via Box–Muller (cached pairs).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid ln(0).
        let u1: f64 = loop {
            let u = self.rng.gen::<f64>();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = self.rng.gen();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }
}

/// A log-normal duration with its parameters worked out once.
///
/// Parameterized so that `E[X] = mean` exactly. A non-positive mean is a
/// fixed 0 and `cv = 0` a fixed `mean`; neither draws from the RNG.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LogNormal {
    /// Always this value.
    Fixed(f64),
    /// `exp(mu + sigma·z)` for a standard normal `z`.
    Spread { mu: f64, sigma: f64 },
}

impl LogNormal {
    /// The distribution with the given *mean* and coefficient of variation.
    pub(crate) fn new(mean: f64, cv: f64) -> Self {
        if mean <= 0.0 {
            return Self::Fixed(0.0);
        }
        if cv <= 0.0 {
            return Self::Fixed(mean);
        }
        let sigma2 = (1.0 + cv * cv).ln();
        Self::Spread { mu: mean.ln() - sigma2 / 2.0, sigma: sigma2.sqrt() }
    }

    fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Self::Fixed(x) => x,
            Self::Spread { mu, sigma } => (mu + sigma * rng.standard_normal()).exp(),
        }
    }

    /// A work duration in nanoseconds, floored at 1ns.
    pub(crate) fn sample_ns(&self, rng: &mut SimRng) -> u64 {
        self.sample(rng).max(1.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.chance(0.5), b.chance(0.5));
            assert_eq!(a.standard_normal().to_bits(), b.standard_normal().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.standard_normal() == b.standard_normal()).count();
        assert!(same < 4);
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::new(3);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_frequency() {
        let mut r = SimRng::new(23);
        let hits = (0..20_000).filter(|_| r.chance(0.3)).count();
        assert!((hits as f64 / 20_000.0 - 0.3).abs() < 0.02, "hits {hits}");
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn lognormal_mean_matches() {
        let mut r = SimRng::new(13);
        let n = 40_000;
        let mean = 250.0;
        let d = LogNormal::new(mean, 0.3);
        let avg = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        assert!((avg - mean).abs() / mean < 0.02, "avg {avg}");
    }

    #[test]
    fn lognormal_zero_cv_is_exact() {
        let mut r = SimRng::new(17);
        assert_eq!(LogNormal::new(100.0, 0.0).sample(&mut r), 100.0);
        assert_eq!(LogNormal::new(-5.0, 0.5).sample(&mut r), 0.0);
    }

    #[test]
    fn sample_ns_floors_at_one() {
        let mut r = SimRng::new(19);
        assert_eq!(LogNormal::new(0.0, 0.5).sample_ns(&mut r), 1);
        assert!(LogNormal::new(1000.0, 0.1).sample_ns(&mut r) > 0);
    }

    /// The per-draw formula the precomputed parameters replaced.
    fn reference_lognormal(rng: &mut SimRng, mean: f64, cv: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        if cv <= 0.0 {
            return mean;
        }
        let sigma2 = (1.0 + cv * cv).ln();
        let mu = mean.ln() - sigma2 / 2.0;
        (mu + sigma2.sqrt() * rng.standard_normal()).exp()
    }

    #[test]
    fn precomputed_parameters_match_the_per_draw_formula_bit_for_bit() {
        for mean in [-1.0, 0.0, 0.5, 1e3, 7e4] {
            for cv in [0.0, 0.07, 0.3, 2.0] {
                let (mut a, mut b) = (SimRng::new(29), SimRng::new(29));
                let d = LogNormal::new(mean, cv);
                for _ in 0..257 {
                    let want = reference_lognormal(&mut a, mean, cv);
                    let mut c = b.clone();
                    assert_eq!(d.sample(&mut b).to_bits(), want.to_bits(), "{mean} {cv}");
                    assert_eq!(d.sample_ns(&mut c), want.max(1.0) as u64, "{mean} {cv}");
                    // The next draws depend on the generator and the cached
                    // Box–Muller spare: both must match.
                    assert_eq!(format!("{a:?}"), format!("{b:?}"), "RNG state, {mean} {cv}");
                    assert_eq!(format!("{a:?}"), format!("{c:?}"), "RNG state, {mean} {cv}");
                }
            }
        }
    }
}
