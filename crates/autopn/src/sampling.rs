//! Initial sampling strategies (§V-A).
//!
//! AutoPN's biased scheme deterministically explores up to nine
//! configurations on the three boundary regions of the search space
//! (Fig. 4 of the paper): the three pivots `(1,1)`, `(n,1)`, `(1,n)`,
//! their axis neighbours, and two points on the over-subscription boundary
//! `t·c ≈ n`. The generic alternative is uniform random sampling.

use rand::rngs::StdRng;
use rand::{seq::SliceRandom, SeedableRng};

use crate::space::{Config, SearchSpace};

/// How the initial training set is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InitialSampling {
    /// The paper's biased boundary scheme with 3, 5, 7 or 9 configurations
    /// (footnote 1 of §VII-C): 3 → pivots only; 5 → + `(n−1,1)`, `(1,n−1)`;
    /// 7 → + `(2,1)`, `(1,2)`; 9 → + two points on the `t·c ≈ n` boundary.
    Biased(usize),
    /// `count` distinct configurations drawn uniformly at random.
    UniformRandom {
        /// Number of configurations to draw.
        count: usize,
        /// RNG seed.
        seed: u64,
    },
}

impl Default for InitialSampling {
    fn default() -> Self {
        InitialSampling::Biased(9)
    }
}

impl InitialSampling {
    /// Materialize the initial configurations for `space`, deduplicated and
    /// all admissible.
    pub fn configs(&self, space: &SearchSpace) -> Vec<Config> {
        match *self {
            InitialSampling::Biased(k) => biased(space, k),
            InitialSampling::UniformRandom { count, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut all: Vec<Config> = space.configs().to_vec();
                all.shuffle(&mut rng);
                all.truncate(count.min(all.len()));
                all
            }
        }
    }
}

/// The biased boundary sample in the paper's incremental order.
fn biased(space: &SearchSpace, k: usize) -> Vec<Config> {
    let n = space.n_cores();
    let sqrt_n = (n as f64).sqrt().floor().max(1.0) as usize;
    let candidates = [
        // 3 pivots.
        Config::new(1, 1),
        Config::new(n, 1),
        Config::new(1, n),
        // 5: pivot neighbours along the axes.
        Config::new(n.saturating_sub(1).max(1), 1),
        Config::new(1, n.saturating_sub(1).max(1)),
        // 7: near the sequential pivot.
        Config::new(2, 1),
        Config::new(1, 2),
        // 9: the over-subscription boundary t·c ≈ n (the third boundary
        // region of Fig. 4).
        Config::new(sqrt_n, n / sqrt_n),
        Config::new(2, (n / 2).max(1)),
    ];
    let mut out: Vec<Config> = Vec::new();
    for cfg in candidates.into_iter().take(k.min(candidates.len())) {
        if space.contains(cfg) && !out.contains(&cfg) {
            out.push(cfg);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn biased_9_covers_three_boundary_regions() {
        let space = SearchSpace::new(48);
        let cfgs = InitialSampling::Biased(9).configs(&space);
        assert_eq!(cfgs.len(), 9);
        assert!(cfgs.contains(&Config::new(1, 1)));
        assert!(cfgs.contains(&Config::new(48, 1)));
        assert!(cfgs.contains(&Config::new(1, 48)));
        assert!(cfgs.contains(&Config::new(47, 1)));
        assert!(cfgs.contains(&Config::new(1, 47)));
        assert!(cfgs.contains(&Config::new(2, 1)));
        assert!(cfgs.contains(&Config::new(1, 2)));
        // Hyperbola points: 6*8 = 48 and 2*24 = 48.
        assert!(cfgs.contains(&Config::new(6, 8)));
        assert!(cfgs.contains(&Config::new(2, 24)));
        assert!(cfgs.iter().all(|c| space.contains(*c)));
    }

    #[test]
    fn biased_prefixes_match_footnote() {
        let space = SearchSpace::new(48);
        let c3 = InitialSampling::Biased(3).configs(&space);
        assert_eq!(c3, vec![Config::new(1, 1), Config::new(48, 1), Config::new(1, 48)]);
        let c5 = InitialSampling::Biased(5).configs(&space);
        assert_eq!(c5.len(), 5);
        assert!(c5.contains(&Config::new(47, 1)) && c5.contains(&Config::new(1, 47)));
        let c7 = InitialSampling::Biased(7).configs(&space);
        assert_eq!(c7.len(), 7);
        assert!(c7.contains(&Config::new(2, 1)) && c7.contains(&Config::new(1, 2)));
    }

    #[test]
    fn biased_on_tiny_machine_dedups() {
        let space = SearchSpace::new(2); // pivots: (1,1),(2,1),(1,2); neighbours collapse
        let cfgs = InitialSampling::Biased(9).configs(&space);
        assert!(cfgs.len() <= space.len());
        let unique: std::collections::HashSet<_> = cfgs.iter().collect();
        assert_eq!(unique.len(), cfgs.len(), "no duplicates");
        assert!(cfgs.iter().all(|c| space.contains(*c)));
    }

    #[test]
    fn random_draws_distinct_admissible() {
        let space = SearchSpace::new(48);
        let cfgs = InitialSampling::UniformRandom { count: 9, seed: 5 }.configs(&space);
        assert_eq!(cfgs.len(), 9);
        let unique: std::collections::HashSet<_> = cfgs.iter().collect();
        assert_eq!(unique.len(), 9);
        assert!(cfgs.iter().all(|c| space.contains(*c)));
    }

    #[test]
    fn random_is_seed_deterministic() {
        let space = SearchSpace::new(24);
        let a = InitialSampling::UniformRandom { count: 7, seed: 11 }.configs(&space);
        let b = InitialSampling::UniformRandom { count: 7, seed: 11 }.configs(&space);
        let c = InitialSampling::UniformRandom { count: 7, seed: 12 }.configs(&space);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn random_count_capped_by_space() {
        let space = SearchSpace::new(2);
        let cfgs = InitialSampling::UniformRandom { count: 50, seed: 1 }.configs(&space);
        assert_eq!(cfgs.len(), space.len());
    }
}
