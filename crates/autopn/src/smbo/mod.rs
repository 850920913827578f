//! Sequential Model-Based Optimization (SMBO) with Expected Improvement.
//!
//! §V-B of the paper: fit a probabilistic model over the observations, use an
//! acquisition function to pick the next configuration, repeat until the
//! stopping criterion fires. AutoPN instantiates the framework with a bagged
//! M5 ensemble and closed-form EI under a Gaussian assumption.

pub mod ei;
pub mod normal;

pub use ei::{expected_improvement, probability_of_improvement, upper_confidence_bound};

use crate::model::{BaggedM5, Sample};
use crate::space::{Config, SearchSpace};

/// Acquisition functions SMBO can be coupled with (§V-B). AutoPN defaults
/// to EI; PI and UCB are provided for the comparison the paper argues from
/// (see `bench --bin ablation_acquisition`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Acquisition {
    /// Expected Improvement (the paper's choice).
    #[default]
    ExpectedImprovement,
    /// Probability of Improvement.
    ProbabilityOfImprovement,
    /// Upper confidence bound `μ + κσ`.
    UpperConfidenceBound {
        /// Exploration weight κ.
        kappa: f64,
    },
}

impl Acquisition {
    /// Score a candidate under this acquisition (higher = explore sooner).
    pub fn score(&self, mu: f64, sigma: f64, f_best: f64) -> f64 {
        match *self {
            Acquisition::ExpectedImprovement => expected_improvement(mu, sigma, f_best),
            Acquisition::ProbabilityOfImprovement => probability_of_improvement(mu, sigma, f_best),
            Acquisition::UpperConfidenceBound { kappa } => upper_confidence_bound(mu, sigma, kappa),
        }
    }
}

/// One SMBO proposal: the configuration with the highest EI and the EI values
/// backing the decision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Proposal {
    /// Configuration with maximum EI among unexplored configurations.
    pub config: Config,
    /// Its EI value.
    pub ei: f64,
    /// EI relative to the best observed KPI (`ei / f_best`), which the
    /// stopping criterion thresholds.
    pub relative_ei: f64,
}

/// Fit the ensemble and score every unexplored configuration by EI.
///
/// Returns `None` when every configuration has been explored. `f_best` must
/// be the best KPI observed so far (maximization).
pub fn propose(
    space: &SearchSpace,
    observations: &[(Config, f64)],
    ensemble_size: usize,
    seed: u64,
) -> Option<Proposal> {
    propose_with(space, observations, ensemble_size, seed, Acquisition::ExpectedImprovement)
}

/// [`propose`] with an explicit acquisition function. The returned
/// `Proposal::ei`/`relative_ei` are always the *EI* values of the selected
/// point (whatever the ranking criterion), so the EI-based stopping
/// criterion stays meaningful across acquisitions.
pub fn propose_with(
    space: &SearchSpace,
    observations: &[(Config, f64)],
    ensemble_size: usize,
    seed: u64,
    acquisition: Acquisition,
) -> Option<Proposal> {
    propose_noise_aware(space, observations, None, ensemble_size, seed, acquisition)
}

/// [`propose_with`] plus per-observation confidence weights (§VIII
/// noise-aware modeling). `weights`, when given, must be parallel to
/// `observations`; `None` means uniform confidence.
pub fn propose_noise_aware(
    space: &SearchSpace,
    observations: &[(Config, f64)],
    weights: Option<&[f64]>,
    ensemble_size: usize,
    seed: u64,
    acquisition: Acquisition,
) -> Option<Proposal> {
    if let Some(w) = weights {
        assert_eq!(w.len(), observations.len(), "weights must be parallel to observations");
    }
    // Defensive layer below the intake clamp in `AutoPn::record`: callers
    // can hand us raw observation logs, so non-finite KPIs must not reach
    // the incumbent fold (NaN poisons `max`) or the training set (a NaN
    // target corrupts every M5 split score).
    let f_best = observations
        .iter()
        .map(|&(_, y)| y)
        .filter(|y| y.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    if !f_best.is_finite() {
        return None;
    }
    let samples: Vec<Sample> = observations
        .iter()
        .enumerate()
        .filter(|&(_, &(_, y))| y.is_finite())
        .map(|(i, &(cfg, y))| match weights {
            Some(w) => Sample::weighted(features(cfg).to_vec(), y, w[i]),
            None => Sample::new(features(cfg).to_vec(), y),
        })
        .collect();
    let model = BaggedM5::fit(&samples, ensemble_size, seed);

    let explored: std::collections::HashSet<Config> =
        observations.iter().map(|&(cfg, _)| cfg).collect();
    let mut best: Option<(Proposal, f64)> = None;
    for &cfg in space.configs() {
        if explored.contains(&cfg) {
            continue;
        }
        let (mu, sigma) = model.predict_dist(&features(cfg));
        let score = acquisition.score(mu, sigma, f_best);
        // A NaN score would win every `>` comparison's negation and lose
        // every comparison — either way the ranking is meaningless, so a
        // candidate the model cannot score finitely is skipped outright.
        if !score.is_finite() {
            continue;
        }
        if best.as_ref().map(|(_, b)| score.total_cmp(b).is_gt()).unwrap_or(true) {
            let ei = expected_improvement(mu, sigma, f_best);
            let relative_ei = if f_best.abs() > f64::EPSILON { ei / f_best.abs() } else { ei };
            best = Some((Proposal { config: cfg, ei, relative_ei }, score));
        }
    }
    best.map(|(p, _)| p)
}

/// The model's feature encoding of a configuration: `[t, c]`.
fn features(cfg: Config) -> [f64; 2] {
    [cfg.t as f64, cfg.c as f64]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(
        space: &SearchSpace,
        f: impl Fn(Config) -> f64,
        cfgs: &[(usize, usize)],
    ) -> Vec<(Config, f64)> {
        cfgs.iter()
            .map(|&(t, c)| {
                let cfg = Config::new(t, c);
                assert!(space.contains(cfg));
                (cfg, f(cfg))
            })
            .collect()
    }

    #[test]
    fn proposes_unexplored_config() {
        let space = SearchSpace::new(16);
        let f = |cfg: Config| -((cfg.t as f64 - 8.0).powi(2)) - (cfg.c as f64 - 2.0).powi(2);
        let observations = obs(&space, f, &[(1, 1), (16, 1), (1, 16), (4, 2), (8, 1)]);
        let p = propose(&space, &observations, 10, 7).unwrap();
        assert!(space.contains(p.config));
        assert!(!observations.iter().any(|&(cfg, _)| cfg == p.config));
        assert!(p.ei >= 0.0);
    }

    #[test]
    fn exhausted_space_returns_none() {
        let space = SearchSpace::new(2); // {(1,1),(1,2),(2,1)}
        let observations = obs(&space, |_| 1.0, &[(1, 1), (1, 2), (2, 1)]);
        assert!(propose(&space, &observations, 4, 1).is_none());
    }

    #[test]
    fn no_observations_returns_none() {
        let space = SearchSpace::new(8);
        assert!(propose(&space, &[], 4, 1).is_none());
    }

    #[test]
    fn gravitates_toward_predicted_peak() {
        // With a clean linear trend upward in t, EI should prefer larger t
        // among the unexplored configurations.
        let space = SearchSpace::new(32);
        let f = |cfg: Config| 10.0 * cfg.t as f64;
        let observations = obs(&space, f, &[(1, 1), (2, 1), (4, 1), (8, 1), (12, 1)]);
        let p = propose(&space, &observations, 10, 3).unwrap();
        assert!(p.config.t > 12, "proposed {:?}", p.config);
    }

    #[test]
    fn nan_and_infinite_observations_do_not_poison_proposals() {
        let space = SearchSpace::new(8);
        let f = |cfg: Config| 10.0 * cfg.t as f64;
        let mut observations = obs(&space, f, &[(1, 1), (2, 1), (4, 1)]);
        observations.push((Config::new(1, 2), f64::NAN));
        observations.push((Config::new(2, 2), f64::INFINITY));
        observations.push((Config::new(1, 4), f64::NEG_INFINITY));
        let p = propose(&space, &observations, 6, 11).expect("finite subset must still propose");
        assert!(space.contains(p.config));
        assert!(p.ei.is_finite(), "EI must stay finite, got {}", p.ei);
        assert!(p.relative_ei.is_finite());
        // The proposal must match what the finite observations alone produce:
        // the corrupted rows carry no signal.
        let clean = obs(&space, f, &[(1, 1), (2, 1), (4, 1)]);
        let q = propose(&space, &clean, 6, 11).unwrap();
        let explored: std::collections::HashSet<Config> =
            observations.iter().map(|&(cfg, _)| cfg).collect();
        if !explored.contains(&q.config) {
            assert_eq!(p.config, q.config, "non-finite rows changed the ranking");
        }
    }

    #[test]
    fn all_non_finite_observations_yield_no_proposal() {
        let space = SearchSpace::new(4);
        let observations = vec![(Config::new(1, 1), f64::NAN), (Config::new(2, 1), f64::INFINITY)];
        assert!(propose(&space, &observations, 4, 1).is_none());
    }

    #[test]
    fn relative_ei_scales_by_best() {
        let space = SearchSpace::new(8);
        let observations = obs(&space, |cfg| 1000.0 + cfg.t as f64, &[(1, 1), (2, 2), (8, 1)]);
        let p = propose(&space, &observations, 10, 5).unwrap();
        assert!((p.relative_ei - p.ei / 1008.0).abs() < 1e-12);
    }
}
