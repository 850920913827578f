//! Ask–tell hill climber: the localized refinement phase that follows SMBO
//! (§V of the paper), also reused by the standalone hill-climbing baseline.

use std::collections::HashMap;

use crate::space::{Config, SearchSpace};

/// Which move set a climber explores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Neighborhood {
    /// Plain `(t±1, c)`, `(t, c±1)` — the paper's generic baselines.
    VonNeumann,
    /// Von-Neumann plus the core-preserving moves `(2t, ⌈c/2⌉)`,
    /// `(⌊t/2⌋, 2c)` — used by AutoPN's refinement phase, where walking the
    /// `t·c = n` frontier matters.
    #[default]
    DomainSpecific,
}

/// A steepest-ascent hill climber over the `(t, c)` space, reusing cached
/// measurements so already-explored configurations cost nothing.
#[derive(Debug, Clone)]
pub struct HillClimber {
    space: SearchSpace,
    neighborhood: Neighborhood,
    center: Config,
    center_val: f64,
    known: HashMap<Config, f64>,
    pending: Vec<Config>,
    converged: bool,
}

impl HillClimber {
    /// Start climbing from `start` (valued `start_val`), with `known` prior
    /// measurements that will be reused instead of re-proposed. Uses the
    /// domain-specific neighbourhood.
    pub fn new(
        space: SearchSpace,
        start: Config,
        start_val: f64,
        known: HashMap<Config, f64>,
    ) -> Self {
        Self::with_neighborhood(space, start, start_val, known, Neighborhood::DomainSpecific)
    }

    /// Start climbing with an explicit move set.
    pub fn with_neighborhood(
        space: SearchSpace,
        start: Config,
        start_val: f64,
        known: HashMap<Config, f64>,
        neighborhood: Neighborhood,
    ) -> Self {
        let mut hc = Self {
            pending: neighbors_of(&space, neighborhood, start),
            space,
            neighborhood,
            center: start,
            center_val: start_val,
            known,
            converged: false,
        };
        hc.known.insert(start, start_val);
        hc
    }

    /// Current center of the search (the best configuration found so far by
    /// the climb).
    pub fn center(&self) -> (Config, f64) {
        (self.center, self.center_val)
    }

    /// Whether the climb has reached a local maximum.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Next configuration to measure, or `None` once a local maximum is
    /// reached. Neighbors with cached values are consumed without being
    /// proposed.
    pub fn propose(&mut self) -> Option<Config> {
        loop {
            if self.converged {
                return None;
            }
            while let Some(cfg) = self.pending.pop() {
                if !self.known.contains_key(&cfg) {
                    return Some(cfg);
                }
            }
            // Round complete: every neighbor of the center is known.
            let best_neighbor = neighbors_of(&self.space, self.neighborhood, self.center)
                .into_iter()
                .filter_map(|n| self.known.get(&n).map(|&v| (n, v)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match best_neighbor {
                Some((cfg, val)) if val > self.center_val => {
                    self.center = cfg;
                    self.center_val = val;
                    self.pending = neighbors_of(&self.space, self.neighborhood, cfg);
                }
                _ => {
                    self.converged = true;
                    return None;
                }
            }
        }
    }

    /// Report the measured KPI of a proposed configuration.
    pub fn observe(&mut self, cfg: Config, kpi: f64) {
        self.known.insert(cfg, kpi);
    }
}

fn neighbors_of(space: &SearchSpace, neighborhood: Neighborhood, cfg: Config) -> Vec<Config> {
    match neighborhood {
        Neighborhood::VonNeumann => space.von_neumann_neighbors(cfg),
        Neighborhood::DomainSpecific => space.neighbors(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(space: SearchSpace, start: Config, f: impl Fn(Config) -> f64) -> (Config, usize) {
        let mut hc = HillClimber::new(space, start, f(start), HashMap::new());
        let mut proposals = 0;
        while let Some(cfg) = hc.propose() {
            proposals += 1;
            hc.observe(cfg, f(cfg));
            assert!(proposals < 10_000, "diverged");
        }
        (hc.center().0, proposals)
    }

    #[test]
    fn climbs_to_unimodal_peak() {
        let space = SearchSpace::new(48);
        let f = |cfg: Config| -((cfg.t as f64 - 10.0).powi(2)) - (cfg.c as f64 - 4.0).powi(2);
        let (best, _) = drive(space, Config::new(1, 1), f);
        assert_eq!(best, Config::new(10, 4));
    }

    #[test]
    fn converges_immediately_at_peak() {
        let space = SearchSpace::new(16);
        let f = |cfg: Config| -((cfg.t as f64 - 4.0).powi(2)) - (cfg.c as f64 - 2.0).powi(2);
        let (best, proposals) = drive(space, Config::new(4, 2), f);
        assert_eq!(best, Config::new(4, 2));
        // Only the (up to 6) neighbors of the peak need measuring.
        assert!(proposals <= 6, "proposals = {proposals}");
    }

    #[test]
    fn gets_trapped_in_local_maximum() {
        // Two-peak function: a small local bump at (2,2) and the global
        // optimum at (14,1). Starting near the bump must trap the climber —
        // this is exactly the short-sightedness Fig. 5 demonstrates.
        let space = SearchSpace::new(16);
        let f = |cfg: Config| {
            let local = 10.0 - ((cfg.t as f64 - 2.0).powi(2) + (cfg.c as f64 - 2.0).powi(2));
            let global =
                50.0 - 8.0 * ((cfg.t as f64 - 14.0).powi(2) + (cfg.c as f64 - 1.0).powi(2));
            local.max(global)
        };
        let (best, _) = drive(space, Config::new(2, 2), f);
        assert_eq!(best, Config::new(2, 2), "expected to be trapped at the local bump");
    }

    #[test]
    fn known_cache_is_not_reproposed() {
        let space = SearchSpace::new(8);
        let f = |cfg: Config| (cfg.t + cfg.c) as f64;
        let mut known = HashMap::new();
        // Pre-seed every neighbor of the start.
        for n in space.neighbors(Config::new(2, 2)) {
            known.insert(n, f(n));
        }
        let mut hc =
            HillClimber::new(space.clone(), Config::new(2, 2), f(Config::new(2, 2)), known);
        // First proposal must already be a neighbor of the *recentered* point.
        let first = hc.propose().unwrap();
        let center_after = hc.center().0;
        assert_ne!(center_after, Config::new(2, 2), "should recenter without proposing");
        assert!(space.neighbors(center_after).contains(&first));
    }

    #[test]
    fn respects_space_boundary() {
        let space = SearchSpace::new(48);
        // Increasing in both t and c: the climb must stop at the t·c ≤ n frontier.
        let f = |cfg: Config| (cfg.t * cfg.c) as f64 + cfg.t as f64 * 0.01;
        let (best, _) = drive(space.clone(), Config::new(3, 3), f);
        assert!(space.contains(best));
        assert!(best.cores() > 40, "should reach near the frontier, got {best}");
    }
}
