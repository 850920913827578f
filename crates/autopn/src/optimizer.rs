//! The AutoPN optimizer: biased initial sampling → SMBO/EI → hill-climbing
//! refinement, in ask–tell form.

use std::collections::{HashMap, VecDeque};

use crate::hillclimb::HillClimber;
use crate::sampling::InitialSampling;
use crate::smbo;
use crate::space::{Config, ConfigSpace};
use crate::stopping::StopCondition;

/// Common ask–tell interface implemented by AutoPN and by every baseline
/// optimizer: `propose()` the next configuration to measure, `observe()` its
/// KPI, until `propose()` returns `None`.
pub trait Tuner {
    /// Next configuration to explore; `None` once converged/stopped.
    fn propose(&mut self) -> Option<Config>;
    /// Report the measured KPI (higher is better) of a proposed config.
    fn observe(&mut self, cfg: Config, kpi: f64);
    /// Report a measurement together with its noise metadata (throughput CV
    /// at window close, and whether the window was cut by a timeout).
    /// Default: forwards to [`Tuner::observe`], ignoring the metadata —
    /// tuners that implement §VIII noise-aware modeling override this.
    fn observe_noisy(&mut self, cfg: Config, kpi: f64, cv: Option<f64>, timed_out: bool) {
        let _ = (cv, timed_out);
        self.observe(cfg, kpi);
    }
    /// Best configuration observed so far with its KPI.
    fn best(&self) -> Option<(Config, f64)>;
    /// Number of configurations explored so far.
    fn explored(&self) -> usize;
    /// Display name for reports.
    fn name(&self) -> String;
    /// Attach a trace bus the tuner should publish its decisions on
    /// (proposals with acquisition values, phase transitions). Default:
    /// ignored — baselines that don't trace need no changes.
    fn attach_trace(&mut self, trace: pnstm::TraceBus) {
        let _ = trace;
    }
    /// The typed configuration space this tuner searches, when it has one.
    /// Callers (the controller's trace plumbing, the axis registry) use it to
    /// decode a [`Config`]'s axis levels into named values. Default: `None` —
    /// baselines that only know `(t, c)` need no changes.
    fn config_space(&self) -> Option<&ConfigSpace> {
        None
    }
}

/// AutoPN hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoPnConfig {
    /// Initial sampling strategy (default: the biased 9-point scheme).
    pub init: InitialSampling,
    /// SMBO stopping criterion (default: relative EI below 10%).
    pub stop: StopCondition,
    /// Whether to run the final hill-climbing refinement (default: yes;
    /// Fig. 5 also evaluates the variant without it).
    pub hill_climb: bool,
    /// Bagging ensemble size (default 10).
    pub ensemble_size: usize,
    /// Seed for the ensemble's bootstrap resampling.
    pub seed: u64,
    /// Acquisition function for the SMBO phase (default: EI, §V-B).
    pub acquisition: smbo::Acquisition,
    /// §VIII noise-aware modeling: weight training samples by measurement
    /// confidence (1/CV²-style). Default off — the paper's AutoPN feeds the
    /// model only measurements already deemed statistically meaningful.
    pub noise_aware: bool,
}

impl Default for AutoPnConfig {
    fn default() -> Self {
        Self {
            init: InitialSampling::default(),
            stop: StopCondition::default(),
            hill_climb: true,
            ensemble_size: 10,
            seed: 0xA07_0191,
            acquisition: smbo::Acquisition::ExpectedImprovement,
            noise_aware: false,
        }
    }
}

#[derive(Debug)]
enum Phase {
    InitialSampling,
    Smbo,
    HillClimb(HillClimber),
    Done,
}

/// The AutoPN self-tuning optimizer (§V).
pub struct AutoPn {
    space: ConfigSpace,
    cfg: AutoPnConfig,
    phase: Phase,
    init_queue: VecDeque<Config>,
    observations: Vec<(Config, f64)>,
    weights: Vec<f64>,
    known: HashMap<Config, f64>,
    history: Vec<f64>,
    smbo_rounds: u64,
    trace: pnstm::TraceBus,
}

impl AutoPn {
    /// Build a tuner over `space` — a bare [`crate::SearchSpace`] for the paper's
    /// `(t, c)` problem, or a full [`ConfigSpace`] to co-tune discrete axes.
    pub fn new(space: impl Into<ConfigSpace>, cfg: AutoPnConfig) -> Self {
        let space = space.into();
        let init_queue = cfg.init.configs_nd(&space).into();
        Self {
            space,
            cfg,
            phase: Phase::InitialSampling,
            init_queue,
            observations: Vec::new(),
            weights: Vec::new(),
            known: HashMap::new(),
            history: Vec::new(),
            smbo_rounds: 0,
            trace: pnstm::TraceBus::default(),
        }
    }

    /// The configuration space this tuner optimizes over.
    pub fn space(&self) -> &ConfigSpace {
        &self.space
    }

    /// Which phase the optimizer is in, as a label (introspection/plots).
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::InitialSampling => "initial-sampling",
            Phase::Smbo => "smbo",
            Phase::HillClimb(_) => "hill-climb",
            Phase::Done => "done",
        }
    }

    fn enter_refinement(&mut self) {
        if self.cfg.hill_climb {
            if let Some((best_cfg, best_val)) = self.best_known() {
                let hc =
                    HillClimber::new(self.space.clone(), best_cfg, best_val, self.known.clone());
                self.phase = Phase::HillClimb(hc);
                return;
            }
        }
        self.phase = Phase::Done;
    }

    fn record(&mut self, cfg: Config, kpi: f64, weight: f64) {
        // A throughput measurement can come back NaN/∞ from a degenerate
        // window (zero elapsed time, overflowed counter, a monitor bug). A
        // single such value would otherwise poison every downstream fold:
        // `f_best` becomes NaN, EI becomes NaN, and the tuner stops
        // proposing. Clamp at intake — treat the window as "no useful
        // signal" (kpi 0) with floor confidence, matching the
        // `weight_from_cv` lower bound.
        let (kpi, weight) = if kpi.is_finite() {
            (kpi, if weight.is_finite() { weight.max(0.0) } else { 0.05 })
        } else {
            (0.0, 0.05)
        };
        self.observations.push((cfg, kpi));
        self.weights.push(weight);
        self.known.insert(cfg, kpi);
        self.history.push(kpi);
        if let Phase::HillClimb(hc) = &mut self.phase {
            hc.observe(cfg, kpi);
        }
    }

    fn best_known(&self) -> Option<(Config, f64)> {
        self.known
            .iter()
            .map(|(&cfg, &v)| (cfg, v))
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }
}

impl AutoPn {
    /// The `propose` state machine; returns the proposal and, for SMBO
    /// proposals, the relative-EI acquisition value behind it.
    fn propose_inner(&mut self) -> Option<(Config, Option<f64>)> {
        loop {
            match &mut self.phase {
                Phase::InitialSampling => {
                    while let Some(cfg) = self.init_queue.pop_front() {
                        if !self.known.contains_key(&cfg) {
                            return Some((cfg, None));
                        }
                    }
                    self.phase = Phase::Smbo;
                }
                Phase::Smbo => {
                    self.smbo_rounds += 1;
                    let seed = self.cfg.seed.wrapping_add(self.smbo_rounds);
                    let proposal = smbo::propose_noise_aware(
                        &self.space,
                        &self.observations,
                        self.cfg.noise_aware.then_some(self.weights.as_slice()),
                        self.cfg.ensemble_size,
                        seed,
                        self.cfg.acquisition,
                    );
                    let rel_ei = proposal.as_ref().map(|p| p.relative_ei);
                    if self.cfg.stop.should_stop(&self.history, rel_ei) {
                        self.enter_refinement();
                        continue;
                    }
                    return proposal.map(|p| (p.config, Some(p.relative_ei)));
                }
                Phase::HillClimb(hc) => match hc.propose() {
                    Some(cfg) => return Some((cfg, None)),
                    None => self.phase = Phase::Done,
                },
                Phase::Done => return None,
            }
        }
    }
}

impl Tuner for AutoPn {
    fn propose(&mut self) -> Option<Config> {
        let phase_before = self.phase_name();
        let proposal = self.propose_inner();
        if self.trace.is_enabled() {
            let phase_after = self.phase_name();
            if phase_before != phase_after {
                self.trace.emit(pnstm::TraceEvent::OptimizerPhase {
                    from: phase_before,
                    to: phase_after,
                });
            }
            if let Some((cfg, relative_ei)) = proposal {
                self.trace.emit(pnstm::TraceEvent::Proposal {
                    t: cfg.t as u32,
                    c: cfg.c as u32,
                    relative_ei,
                    axes: self.space.axes_trace(cfg),
                });
            }
        }
        proposal.map(|(cfg, _)| cfg)
    }

    fn observe(&mut self, cfg: Config, kpi: f64) {
        self.record(cfg, kpi, 1.0);
    }

    fn observe_noisy(&mut self, cfg: Config, kpi: f64, cv: Option<f64>, timed_out: bool) {
        let weight = if self.cfg.noise_aware {
            crate::model::Sample::weight_from_cv(cv, timed_out)
        } else {
            1.0
        };
        self.record(cfg, kpi, weight);
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.best_known()
    }

    fn explored(&self) -> usize {
        self.observations.len()
    }

    fn name(&self) -> String {
        if self.cfg.hill_climb {
            "AutoPN".to_string()
        } else {
            "AutoPN-noHC".to_string()
        }
    }

    fn attach_trace(&mut self, trace: pnstm::TraceBus) {
        self.trace = trace;
    }

    fn config_space(&self) -> Option<&ConfigSpace> {
        Some(&self.space)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::InitialSampling;
    use crate::space::SearchSpace;

    /// Drive a tuner against a deterministic objective until completion.
    fn run(tuner: &mut dyn Tuner, f: impl Fn(Config) -> f64, limit: usize) -> (Config, usize) {
        let mut n = 0;
        while let Some(cfg) = tuner.propose() {
            n += 1;
            assert!(n <= limit, "exceeded exploration limit {limit}");
            tuner.observe(cfg, f(cfg));
        }
        (tuner.best().expect("explored at least one config").0, n)
    }

    #[test]
    fn finds_interior_optimum_quickly() {
        let space = SearchSpace::new(48);
        let f = |cfg: Config| {
            1000.0 - 3.0 * (cfg.t as f64 - 20.0).powi(2) - 40.0 * (cfg.c as f64 - 2.0).powi(2)
        };
        let mut tuner = AutoPn::new(space.clone(), AutoPnConfig::default());
        let (best, explored) = run(&mut tuner, f, 198);
        let dfo = (f(Config::new(20, 2)) - f(best)) / f(Config::new(20, 2));
        assert!(dfo < 0.02, "best {best} is {dfo:.3} from optimum");
        assert!(
            explored < 60,
            "AutoPN must explore a small fraction of the 198-config space, used {explored}"
        );
    }

    #[test]
    fn initial_phase_is_biased_sample() {
        let space = SearchSpace::new(48);
        let mut tuner = AutoPn::new(space.clone(), AutoPnConfig::default());
        let expected = InitialSampling::Biased(9).configs(&space);
        for want in &expected {
            assert_eq!(tuner.phase_name(), "initial-sampling");
            let got = tuner.propose().unwrap();
            assert_eq!(got, *want);
            tuner.observe(got, 1.0 + got.t as f64);
        }
    }

    #[test]
    fn no_hill_climb_variant_stops_after_smbo() {
        let space = SearchSpace::new(24);
        let cfg = AutoPnConfig { hill_climb: false, ..AutoPnConfig::default() };
        let f = |c: Config| -((c.t as f64 - 6.0).powi(2)) - (c.c as f64 - 3.0).powi(2);
        let mut tuner = AutoPn::new(space, cfg);
        assert_eq!(tuner.name(), "AutoPN-noHC");
        let (_, _) = run(&mut tuner, f, 200);
        assert_eq!(tuner.phase_name(), "done");
    }

    #[test]
    fn hill_climb_refines_smbo_result() {
        // An objective with a gentle ridge: SMBO lands near the peak, the
        // climb must walk the remaining steps.
        let space = SearchSpace::new(48);
        let f = |c: Config| 500.0 - ((c.t as f64 - 11.0).abs() + 25.0 * (c.c as f64 - 3.0).abs());
        let with_hc = {
            let mut t = AutoPn::new(space.clone(), AutoPnConfig::default());
            let (best, _) = run(&mut t, f, 250);
            f(best)
        };
        let without_hc = {
            let mut t = AutoPn::new(
                space.clone(),
                AutoPnConfig { hill_climb: false, ..AutoPnConfig::default() },
            );
            let (best, _) = run(&mut t, f, 250);
            f(best)
        };
        assert!(with_hc >= without_hc, "refinement must not hurt: {with_hc} vs {without_hc}");
    }

    #[test]
    fn stubborn_explores_until_target() {
        let space = SearchSpace::new(16);
        let f = |c: Config| (c.t * c.c) as f64; // max 16
        let cfg = AutoPnConfig {
            stop: StopCondition::Stubborn { target: 16.0, tolerance: 0.0 },
            hill_climb: false,
            ..AutoPnConfig::default()
        };
        let mut tuner = AutoPn::new(space, cfg);
        let (best, _) = run(&mut tuner, f, 200);
        assert_eq!(f(best), 16.0);
    }

    #[test]
    fn never_proposes_duplicates() {
        let space = SearchSpace::new(24);
        let f = |c: Config| (c.t as f64).sqrt() + c.c as f64;
        let mut tuner = AutoPn::new(space, AutoPnConfig::default());
        let mut seen = std::collections::HashSet::new();
        while let Some(cfg) = tuner.propose() {
            assert!(seen.insert(cfg), "duplicate proposal {cfg}");
            tuner.observe(cfg, f(cfg));
            assert!(seen.len() <= 200);
        }
    }

    #[test]
    fn noise_aware_flag_gates_sample_weights() {
        let space = SearchSpace::new(8);
        let mut aware = AutoPn::new(
            space.clone(),
            AutoPnConfig { noise_aware: true, ..AutoPnConfig::default() },
        );
        let mut unaware = AutoPn::new(space, AutoPnConfig::default());
        for tuner in [&mut aware, &mut unaware] {
            let cfg = tuner.propose().unwrap();
            tuner.observe_noisy(cfg, 100.0, Some(0.5), false); // sloppy window
            let cfg = tuner.propose().unwrap();
            tuner.observe_noisy(cfg, 200.0, Some(0.02), false); // tight window
            let cfg = tuner.propose().unwrap();
            tuner.observe_noisy(cfg, 0.0, None, true); // timed out
        }
        assert!(aware.weights[0] < 0.1, "sloppy CV must be downweighted");
        assert!(aware.weights[1] > 5.0, "tight CV must be upweighted");
        assert_eq!(aware.weights[2], 0.25, "timeouts are low-information");
        assert!(unaware.weights.iter().all(|&w| w == 1.0), "flag off = paper behaviour");
    }

    #[test]
    fn nan_measurement_is_clamped_and_tuning_completes() {
        // A NaN throughput window (e.g. zero-length measurement) must not
        // wedge the tuner: the observation is clamped at intake and the
        // session still converges on the finite measurements.
        let space = SearchSpace::new(16);
        let f = |c: Config| (c.t * c.c) as f64;
        let mut tuner = AutoPn::new(space, AutoPnConfig::default());
        let mut n = 0;
        while let Some(cfg) = tuner.propose() {
            n += 1;
            assert!(n <= 200, "NaN observation wedged the tuner");
            // Poison every third window.
            let kpi = if n % 3 == 0 { f64::NAN } else { f(cfg) };
            tuner.observe_noisy(cfg, kpi, Some(f64::INFINITY), false);
        }
        let (best, kpi) = tuner.best().expect("tuner must finish with a best config");
        assert!(kpi.is_finite(), "best KPI must be finite, got {kpi}");
        assert!(f(best) > 0.0);
        assert!(tuner.observations.iter().all(|&(_, y)| y.is_finite()));
        assert!(tuner.weights.iter().all(|&w| w.is_finite() && w >= 0.0));
    }

    #[test]
    fn explored_counts_observations() {
        let space = SearchSpace::new(8);
        let mut tuner = AutoPn::new(space, AutoPnConfig::default());
        assert_eq!(tuner.explored(), 0);
        let c = tuner.propose().unwrap();
        tuner.observe(c, 1.0);
        assert_eq!(tuner.explored(), 1);
        assert_eq!(tuner.best(), Some((c, 1.0)));
    }
}
