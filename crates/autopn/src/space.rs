//! The configuration search space `S = {(t, c) : t·c ≤ n}` (§III-B).

use serde::impl_serde;

/// One parallelism-degree configuration: `t` concurrent top-level
/// transactions, `c` concurrent nested transactions per transaction tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// Number of concurrent top-level transactions.
    pub t: usize,
    /// Number of concurrent nested transactions per tree.
    pub c: usize,
}

impl_serde!(Config { t, c });

impl Config {
    pub fn new(t: usize, c: usize) -> Self {
        Self { t: t.max(1), c: c.max(1) }
    }

    /// As a `(t, c)` tuple (the simulator's representation).
    pub fn as_tuple(&self) -> (usize, usize) {
        (self.t, self.c)
    }

    /// Total core demand `t · c`.
    pub fn cores(&self) -> usize {
        self.t * self.c
    }
}

impl From<(usize, usize)> for Config {
    fn from((t, c): (usize, usize)) -> Self {
        Self::new(t, c)
    }
}

impl From<Config> for pnstm::ParallelismDegree {
    fn from(cfg: Config) -> Self {
        pnstm::ParallelismDegree::new(cfg.t, cfg.c)
    }
}

impl std::fmt::Display for Config {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.t, self.c)
    }
}

/// The admissible search space for a machine with `n` cores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchSpace {
    n_cores: usize,
    configs: Vec<Config>,
}

impl_serde!(SearchSpace { n_cores, configs });

impl SearchSpace {
    /// Enumerate `S` for an `n`-core machine (198 configurations at n = 48).
    pub fn new(n_cores: usize) -> Self {
        let n_cores = n_cores.max(1);
        let mut configs = Vec::new();
        for t in 1..=n_cores {
            for c in 1..=(n_cores / t) {
                configs.push(Config::new(t, c));
            }
        }
        Self { n_cores, configs }
    }

    /// Number of cores `n`.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// All admissible configurations, sorted by `(t, c)`.
    pub fn configs(&self) -> &[Config] {
        &self.configs
    }

    /// Size of the space.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Whether `cfg` is admissible (no over-subscription).
    pub fn contains(&self, cfg: Config) -> bool {
        cfg.t >= 1 && cfg.c >= 1 && cfg.t * cfg.c <= self.n_cores
    }

    /// The plain von-Neumann neighbourhood `(t±1, c)`, `(t, c±1)`, filtered
    /// for admissibility — what a generic local search over a 2-D integer
    /// space uses (the paper's plain hill-climbing and SA baselines).
    pub fn von_neumann_neighbors(&self, cfg: Config) -> Vec<Config> {
        let mut out = Vec::with_capacity(4);
        let candidates = [
            (cfg.t.wrapping_sub(1), cfg.c),
            (cfg.t + 1, cfg.c),
            (cfg.t, cfg.c.wrapping_sub(1)),
            (cfg.t, cfg.c + 1),
        ];
        for (t, c) in candidates {
            if t >= 1 && c >= 1 {
                let n = Config::new(t, c);
                if self.contains(n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// The domain-specific neighbourhood used by AutoPN's refinement phase:
    /// the von-Neumann moves `(t±1, c)`, `(t, c±1)` plus the two *core-preserving* moves
    /// `(2t, ⌈c/2⌉)` and `(⌊t/2⌋, 2c)`, which trade inter- for
    /// intra-transaction parallelism at (roughly) constant core usage. The
    /// multiplicative moves let local search walk along the `t·c = n`
    /// over-subscription frontier, where the von-Neumann moves alone are
    /// boxed in. All results are admissible and distinct from `cfg`.
    pub fn neighbors(&self, cfg: Config) -> Vec<Config> {
        let mut out = Vec::with_capacity(6);
        let mut candidates = vec![
            (cfg.t.wrapping_sub(1), cfg.c),
            (cfg.t + 1, cfg.c),
            (cfg.t, cfg.c.wrapping_sub(1)),
            (cfg.t, cfg.c + 1),
        ];
        if cfg.c > 1 {
            candidates.push((cfg.t * 2, cfg.c.div_ceil(2)));
        }
        if cfg.t > 1 {
            candidates.push((cfg.t / 2, cfg.c * 2));
        }
        for (t, c) in candidates {
            if t >= 1 && c >= 1 {
                let n = Config::new(t, c);
                if n != cfg && self.contains(n) && !out.contains(&n) {
                    out.push(n);
                }
            }
        }
        out
    }

    /// Index of `cfg` in [`Self::configs`], if admissible.
    pub fn index_of(&self, cfg: Config) -> Option<usize> {
        self.configs.binary_search(&cfg).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps() {
        let c = Config::new(0, 0);
        assert_eq!(c, Config { t: 1, c: 1 });
        assert_eq!(c.cores(), 1);
        assert_eq!(c.to_string(), "(1,1)");
        assert_eq!(c.as_tuple(), (1, 1));
    }

    #[test]
    fn space_count_matches_paper() {
        assert_eq!(SearchSpace::new(48).len(), 198);
        assert_eq!(SearchSpace::new(1).len(), 1);
    }

    #[test]
    fn space_has_no_oversubscription() {
        let s = SearchSpace::new(16);
        assert!(s.configs().iter().all(|c| c.cores() <= 16));
        assert!(s.contains(Config::new(4, 4)));
        assert!(!s.contains(Config::new(4, 5)));
        assert!(!s.contains(Config::new(17, 1)));
    }

    #[test]
    fn neighbors_are_admissible_and_adjacent() {
        let s = SearchSpace::new(48);
        let n = s.neighbors(Config::new(24, 2));
        // (23,2), (24,1) are in; (25,2) = 50 and (24,3) = 72 oversubscribe.
        assert!(n.contains(&Config::new(23, 2)));
        assert!(n.contains(&Config::new(24, 1)));
        assert!(!n.contains(&Config::new(25, 2)));
        assert!(!n.contains(&Config::new(24, 3)));
        // Core-preserving moves along the frontier.
        assert!(n.contains(&Config::new(48, 1)));
        assert!(n.contains(&Config::new(12, 4)));
        for nb in &n {
            assert!(s.contains(*nb));
            assert_ne!(*nb, Config::new(24, 2));
        }
    }

    #[test]
    fn frontier_walk_is_possible() {
        // The multiplicative moves connect the t·c = 48 ridge.
        let s = SearchSpace::new(48);
        let n = s.neighbors(Config::new(6, 8));
        assert!(n.contains(&Config::new(12, 4)));
        assert!(n.contains(&Config::new(3, 16)));
    }

    #[test]
    fn corner_neighbors() {
        let s = SearchSpace::new(8);
        let n = s.neighbors(Config::new(1, 1));
        assert_eq!(n.len(), 2);
        assert!(n.contains(&Config::new(2, 1)));
        assert!(n.contains(&Config::new(1, 2)));
        // No duplicates at small configs where moves collide.
        let n22 = s.neighbors(Config::new(2, 2));
        let set: std::collections::HashSet<_> = n22.iter().collect();
        assert_eq!(set.len(), n22.len());
    }

    #[test]
    fn index_of_round_trips() {
        let s = SearchSpace::new(12);
        for (i, &cfg) in s.configs().iter().enumerate() {
            assert_eq!(s.index_of(cfg), Some(i));
        }
        assert_eq!(s.index_of(Config::new(12, 2)), None);
    }

    #[test]
    fn conversion_to_parallelism_degree() {
        let d: pnstm::ParallelismDegree = Config::new(3, 5).into();
        assert_eq!(d, pnstm::ParallelismDegree::new(3, 5));
    }

    #[test]
    fn config_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let cfg = Config::new(4, 2);
        assert_eq!(Config::from_value(&cfg.to_value()), Ok(cfg));
    }
}
