//! The frozen pre-generalization 2-D tuning pipeline, kept verbatim as the
//! differential oracle for the N-dimensional refactor (the same retained-
//! oracle-rung idiom as `pnstm`'s global-lock commit path and the ledger's
//! sequential replay).
//!
//! Everything dimension-*dependent* is copied here rather than shared:
//! the `(t, c)` sample type, the 3×3 ridge solve, the two-feature M5
//! growth/pruning, the bootstrap ensemble, the EI candidate scan over
//! `SearchSpace::configs()`, and the hill climber. Dimension-*independent*
//! pieces (`Acquisition`, the closed-form EI, `StopCondition`,
//! `InitialSampling::configs`, the `Tuner` trait, `SearchSpace` itself) are
//! referenced, not copied — they are outside the refactor's blast radius,
//! and the `legacy_projection` proptest would catch any drift through them.
//!
//! Nothing in this module may change behaviour: [`LegacyAutoPn`] restricted
//! to a `(t, c)`-only space must replay byte-identical proposal sequences
//! against the generalized [`autopn::AutoPn`] (see
//! `tests/legacy_projection.rs`).

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use autopn::optimizer::{AutoPnConfig, Tuner};
use autopn::smbo::{expected_improvement, Acquisition};
use autopn::space::{Config, SearchSpace};

// ---------------------------------------------------------------------------
// Samples (frozen 2-feature layout)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
struct LSample {
    t: f64,
    c: f64,
    y: f64,
    w: f64,
}

impl LSample {
    fn new(t: f64, c: f64, y: f64) -> Self {
        Self { t, c, y, w: 1.0 }
    }

    fn weighted(t: f64, c: f64, y: f64, w: f64) -> Self {
        Self { t, c, y, w: w.clamp(0.05, 20.0) }
    }

    fn weight_from_cv(cv: Option<f64>, timed_out: bool) -> f64 {
        if timed_out {
            return 0.25;
        }
        match cv {
            Some(cv) if cv > 0.0 => (0.10 / cv.max(0.005)).powi(2).clamp(0.05, 20.0),
            _ => 1.0,
        }
    }

    fn feature(&self, i: usize) -> f64 {
        match i {
            0 => self.t,
            1 => self.c,
            _ => panic!("feature index {i} out of range (2 features)"),
        }
    }
}

fn mean(ys: impl Iterator<Item = f64>) -> f64 {
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

fn std_dev(samples: &[LSample]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let m = mean(samples.iter().map(|s| s.y));
    let var = samples.iter().map(|s| (s.y - m).powi(2)).sum::<f64>() / samples.len() as f64;
    var.sqrt()
}

// ---------------------------------------------------------------------------
// Linear leaf models (frozen 3×3 normal equations)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
struct LLinear {
    b0: f64,
    b1: f64,
    b2: f64,
}

impl LLinear {
    fn fit(samples: &[LSample]) -> Self {
        if samples.is_empty() {
            return Self { b0: 0.0, b1: 0.0, b2: 0.0 };
        }
        let w_total: f64 = samples.iter().map(|s| s.w).sum();
        let y_mean = if w_total > 0.0 {
            samples.iter().map(|s| s.w * s.y).sum::<f64>() / w_total
        } else {
            mean(samples.iter().map(|s| s.y))
        };
        if samples.len() < 3 {
            return Self { b0: y_mean, b1: 0.0, b2: 0.0 };
        }
        let n = w_total;
        let (mut st, mut sc, mut stt, mut scc, mut stc, mut sy, mut sty, mut scy) =
            (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for s in samples {
            let w = s.w;
            st += w * s.t;
            sc += w * s.c;
            stt += w * s.t * s.t;
            scc += w * s.c * s.c;
            stc += w * s.t * s.c;
            sy += w * s.y;
            sty += w * s.t * s.y;
            scy += w * s.c * s.y;
        }
        let lambda = 1e-8 * (stt + scc + n).max(1.0);
        let a = [[n + lambda, st, sc], [st, stt + lambda, stc], [sc, stc, scc + lambda]];
        let v = [sy, sty, scy];
        match solve3(a, v) {
            Some([b0, b1, b2]) if b0.is_finite() && b1.is_finite() && b2.is_finite() => {
                Self { b0, b1, b2 }
            }
            _ => Self { b0: y_mean, b1: 0.0, b2: 0.0 },
        }
    }

    fn predict(&self, t: f64, c: f64) -> f64 {
        self.b0 + self.b1 * t + self.b2 * c
    }

    fn mae(&self, samples: &[LSample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        samples.iter().map(|s| (self.predict(s.t, s.c) - s.y).abs()).sum::<f64>()
            / samples.len() as f64
    }
}

#[allow(clippy::needless_range_loop)] // index math mirrors the textbook algorithm
fn solve3(mut a: [[f64; 3]; 3], mut v: [f64; 3]) -> Option<[f64; 3]> {
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        v.swap(col, pivot);
        for row in (col + 1)..3 {
            let f = a[row][col] / a[col][col];
            for k in col..3 {
                a[row][k] -= f * a[col][k];
            }
            v[row] -= f * v[col];
        }
    }
    let mut x = [0.0; 3];
    for row in (0..3).rev() {
        let mut acc = v[row];
        for k in (row + 1)..3 {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

// ---------------------------------------------------------------------------
// M5 model tree (frozen two-feature growth)
// ---------------------------------------------------------------------------

const MIN_SPLIT: usize = 4;
const SD_FRACTION: f64 = 0.05;
const SMOOTHING_K: f64 = 15.0;
const PRUNING_FACTOR: f64 = 1.0;

#[derive(Debug, Clone)]
enum LNode {
    Leaf {
        model: LLinear,
    },
    Split {
        feature: usize,
        threshold: f64,
        model: LLinear,
        n: usize,
        left: Box<LNode>,
        right: Box<LNode>,
    },
}

#[derive(Debug, Clone)]
struct LM5Tree {
    root: LNode,
}

impl LM5Tree {
    fn fit(samples: &[LSample]) -> Self {
        let root_sd = std_dev(samples);
        let mut owned: Vec<LSample> = samples.to_vec();
        let mut root = grow(&mut owned, root_sd);
        prune(&mut root, samples);
        Self { root }
    }

    fn predict(&self, t: f64, c: f64) -> f64 {
        fn walk(node: &LNode, t: f64, c: f64, k: f64) -> f64 {
            match node {
                LNode::Leaf { model } => model.predict(t, c),
                LNode::Split { feature, threshold, model, n, left, right } => {
                    let x = if *feature == 0 { t } else { c };
                    let child = if x <= *threshold { left } else { right };
                    let child_pred = walk(child, t, c, k);
                    let nf = *n as f64;
                    (nf * child_pred + k * model.predict(t, c)) / (nf + k)
                }
            }
        }
        walk(&self.root, t, c, SMOOTHING_K)
    }
}

fn grow(samples: &mut [LSample], root_sd: f64) -> LNode {
    let sd = std_dev(samples);
    let y_scale = samples.iter().map(|s| s.y.abs()).sum::<f64>() / samples.len().max(1) as f64;
    let noise_floor = 1e-9 * (y_scale + 1.0);
    if samples.len() < MIN_SPLIT || sd <= SD_FRACTION * root_sd + noise_floor {
        return LNode::Leaf { model: LLinear::fit(samples) };
    }
    let Some((feature, threshold)) = best_split(samples, sd) else {
        return LNode::Leaf { model: LLinear::fit(samples) };
    };
    let model = LLinear::fit(samples);
    let n = samples.len();
    samples.sort_by(|a, b| a.feature(feature).total_cmp(&b.feature(feature)));
    let split_at = samples.partition_point(|s| s.feature(feature) <= threshold);
    if split_at == 0 || split_at == samples.len() {
        return LNode::Leaf { model };
    }
    let (l, r) = samples.split_at_mut(split_at);
    let left = grow(l, root_sd);
    let right = grow(r, root_sd);
    LNode::Split { feature, threshold, model, n, left: Box::new(left), right: Box::new(right) }
}

fn best_split(samples: &[LSample], parent_sd: f64) -> Option<(usize, f64)> {
    let n = samples.len() as f64;
    let mut best: Option<(usize, f64, f64)> = None;
    let mut sorted = samples.to_vec();
    for feature in 0..2 {
        sorted.sort_by(|a, b| a.feature(feature).total_cmp(&b.feature(feature)));
        for i in 0..sorted.len() - 1 {
            let (x0, x1) = (sorted[i].feature(feature), sorted[i + 1].feature(feature));
            if x0 == x1 {
                continue;
            }
            let threshold = (x0 + x1) / 2.0;
            let (l, r) = sorted.split_at(i + 1);
            let sdr =
                parent_sd - (l.len() as f64 / n) * std_dev(l) - (r.len() as f64 / n) * std_dev(r);
            if best.map(|(_, _, b)| sdr > b).unwrap_or(true) {
                best = Some((feature, threshold, sdr));
            }
        }
    }
    best.filter(|&(_, _, sdr)| sdr > 0.0).map(|(f, t, _)| (f, t))
}

fn prune(node: &mut LNode, samples: &[LSample]) {
    let (feature, threshold) = match node {
        LNode::Leaf { .. } => return,
        LNode::Split { feature, threshold, .. } => (*feature, *threshold),
    };
    let (l, r): (Vec<LSample>, Vec<LSample>) =
        samples.iter().partition(|s| s.feature(feature) <= threshold);
    if let LNode::Split { left, right, model, .. } = node {
        prune(left, &l);
        prune(right, &r);
        let subtree_err =
            subtree_mae(left, &l) * l.len() as f64 + subtree_mae(right, &r) * r.len() as f64;
        let subtree_err = subtree_err / samples.len().max(1) as f64;
        let model_err = model.mae(samples);
        let v_subtree = 3.0 * (count_leaves(left) + count_leaves(right)) as f64;
        let v_model = 3.0;
        let n = samples.len() as f64;
        let penalize = |err: f64, v: f64| {
            if n > v {
                err * (n + PRUNING_FACTOR * v) / (n - v)
            } else {
                err * 10.0
            }
        };
        if penalize(model_err, v_model) <= penalize(subtree_err, v_subtree) {
            *node = LNode::Leaf { model: *model };
        }
    }
}

fn count_leaves(node: &LNode) -> usize {
    match node {
        LNode::Leaf { .. } => 1,
        LNode::Split { left, right, .. } => count_leaves(left) + count_leaves(right),
    }
}

fn subtree_mae(node: &LNode, samples: &[LSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let total: f64 = samples.iter().map(|s| (raw_predict(node, s.t, s.c) - s.y).abs()).sum();
    total / samples.len() as f64
}

fn raw_predict(node: &LNode, t: f64, c: f64) -> f64 {
    match node {
        LNode::Leaf { model } => model.predict(t, c),
        LNode::Split { feature, threshold, left, right, .. } => {
            let x = if *feature == 0 { t } else { c };
            if x <= *threshold {
                raw_predict(left, t, c)
            } else {
                raw_predict(right, t, c)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Bagging ensemble (frozen bootstrap order)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct LBagged {
    learners: Vec<LM5Tree>,
}

impl LBagged {
    fn fit(samples: &[LSample], k: usize, seed: u64) -> Self {
        let k = k.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut learners = Vec::with_capacity(k);
        learners.push(LM5Tree::fit(samples));
        let cumulative: Vec<f64> = samples
            .iter()
            .scan(0.0, |acc, s| {
                *acc += s.w.max(0.0);
                Some(*acc)
            })
            .collect();
        let total_w = cumulative.last().copied().unwrap_or(0.0);
        for _ in 1..k {
            let boot: Vec<LSample> = if samples.is_empty() || total_w <= 0.0 {
                samples.to_vec()
            } else {
                (0..samples.len())
                    .map(|_| {
                        let r = rng.gen::<f64>() * total_w;
                        let idx = cumulative.partition_point(|&c| c < r).min(samples.len() - 1);
                        samples[idx]
                    })
                    .collect()
            };
            learners.push(LM5Tree::fit(&boot));
        }
        Self { learners }
    }

    fn predict_dist(&self, t: f64, c: f64) -> (f64, f64) {
        let preds: Vec<f64> = self.learners.iter().map(|m| m.predict(t, c)).collect();
        let n = preds.len() as f64;
        let mean = preds.iter().sum::<f64>() / n;
        let var = preds.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / n;
        (mean, var.sqrt())
    }
}

// ---------------------------------------------------------------------------
// SMBO proposal (frozen candidate scan over SearchSpace::configs())
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
struct LProposal {
    config: Config,
    relative_ei: f64,
}

fn legacy_propose(
    space: &SearchSpace,
    observations: &[(Config, f64)],
    weights: Option<&[f64]>,
    ensemble_size: usize,
    seed: u64,
    acquisition: Acquisition,
) -> Option<LProposal> {
    if let Some(w) = weights {
        assert_eq!(w.len(), observations.len(), "weights must be parallel to observations");
    }
    let f_best = observations
        .iter()
        .map(|&(_, y)| y)
        .filter(|y| y.is_finite())
        .fold(f64::NEG_INFINITY, f64::max);
    if !f_best.is_finite() {
        return None;
    }
    let samples: Vec<LSample> = observations
        .iter()
        .enumerate()
        .filter(|&(_, &(_, y))| y.is_finite())
        .map(|(i, &(cfg, y))| match weights {
            Some(w) => LSample::weighted(cfg.t as f64, cfg.c as f64, y, w[i]),
            None => LSample::new(cfg.t as f64, cfg.c as f64, y),
        })
        .collect();
    let model = LBagged::fit(&samples, ensemble_size, seed);

    let explored: std::collections::HashSet<Config> =
        observations.iter().map(|&(cfg, _)| cfg).collect();
    let mut best: Option<(LProposal, f64)> = None;
    for &cfg in space.configs() {
        if explored.contains(&cfg) {
            continue;
        }
        let (mu, sigma) = model.predict_dist(cfg.t as f64, cfg.c as f64);
        let score = acquisition.score(mu, sigma, f_best);
        if !score.is_finite() {
            continue;
        }
        if best.as_ref().map(|(_, b)| score.total_cmp(b).is_gt()).unwrap_or(true) {
            let ei = expected_improvement(mu, sigma, f_best);
            let relative_ei = if f_best.abs() > f64::EPSILON { ei / f_best.abs() } else { ei };
            best = Some((LProposal { config: cfg, relative_ei }, score));
        }
    }
    best.map(|(p, _)| p)
}

// ---------------------------------------------------------------------------
// Hill climber (frozen domain-specific neighbourhood walk)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct LHillClimber {
    space: SearchSpace,
    center: Config,
    center_val: f64,
    known: HashMap<Config, f64>,
    pending: Vec<Config>,
    converged: bool,
}

impl LHillClimber {
    fn new(space: SearchSpace, start: Config, start_val: f64, known: HashMap<Config, f64>) -> Self {
        let mut hc = Self {
            pending: space.neighbors(start),
            space,
            center: start,
            center_val: start_val,
            known,
            converged: false,
        };
        hc.known.insert(start, start_val);
        hc
    }

    fn propose(&mut self) -> Option<Config> {
        loop {
            if self.converged {
                return None;
            }
            while let Some(cfg) = self.pending.pop() {
                if !self.known.contains_key(&cfg) {
                    return Some(cfg);
                }
            }
            let best_neighbor = self
                .space
                .neighbors(self.center)
                .into_iter()
                .filter_map(|n| self.known.get(&n).map(|&v| (n, v)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match best_neighbor {
                Some((cfg, val)) if val > self.center_val => {
                    self.center = cfg;
                    self.center_val = val;
                    self.pending = self.space.neighbors(cfg);
                }
                _ => {
                    self.converged = true;
                    return None;
                }
            }
        }
    }

    fn observe(&mut self, cfg: Config, kpi: f64) {
        self.known.insert(cfg, kpi);
    }
}

// ---------------------------------------------------------------------------
// The frozen optimizer
// ---------------------------------------------------------------------------

#[derive(Debug)]
enum LPhase {
    InitialSampling,
    Smbo,
    HillClimb(LHillClimber),
    Done,
}

/// The pre-generalization AutoPN, frozen at its 2-D `(t, c)` form. Same
/// ask–tell surface as [`autopn::AutoPn`]; exists purely as the differential
/// oracle (`tests/legacy_projection.rs`) and is not wired to any live path.
pub struct LegacyAutoPn {
    space: SearchSpace,
    cfg: AutoPnConfig,
    phase: LPhase,
    init_queue: VecDeque<Config>,
    observations: Vec<(Config, f64)>,
    weights: Vec<f64>,
    known: HashMap<Config, f64>,
    history: Vec<f64>,
    smbo_rounds: u64,
}

impl LegacyAutoPn {
    pub fn new(space: SearchSpace, cfg: AutoPnConfig) -> Self {
        let init_queue = cfg.init.configs(&space).into();
        Self {
            space,
            cfg,
            phase: LPhase::InitialSampling,
            init_queue,
            observations: Vec::new(),
            weights: Vec::new(),
            known: HashMap::new(),
            history: Vec::new(),
            smbo_rounds: 0,
        }
    }

    /// Which phase the optimizer is in, as a label (mirrors
    /// [`autopn::AutoPn::phase_name`] for the differential test).
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            LPhase::InitialSampling => "initial-sampling",
            LPhase::Smbo => "smbo",
            LPhase::HillClimb(_) => "hill-climb",
            LPhase::Done => "done",
        }
    }

    fn enter_refinement(&mut self) {
        if self.cfg.hill_climb {
            if let Some((best_cfg, best_val)) = self.best_known() {
                let hc =
                    LHillClimber::new(self.space.clone(), best_cfg, best_val, self.known.clone());
                self.phase = LPhase::HillClimb(hc);
                return;
            }
        }
        self.phase = LPhase::Done;
    }

    fn record(&mut self, cfg: Config, kpi: f64, weight: f64) {
        let (kpi, weight) = if kpi.is_finite() {
            (kpi, if weight.is_finite() { weight.max(0.0) } else { 0.05 })
        } else {
            (0.0, 0.05)
        };
        self.observations.push((cfg, kpi));
        self.weights.push(weight);
        self.known.insert(cfg, kpi);
        self.history.push(kpi);
        if let LPhase::HillClimb(hc) = &mut self.phase {
            hc.observe(cfg, kpi);
        }
    }

    fn best_known(&self) -> Option<(Config, f64)> {
        self.known
            .iter()
            .map(|(&cfg, &v)| (cfg, v))
            .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }

    fn propose_inner(&mut self) -> Option<Config> {
        loop {
            match &mut self.phase {
                LPhase::InitialSampling => {
                    while let Some(cfg) = self.init_queue.pop_front() {
                        if !self.known.contains_key(&cfg) {
                            return Some(cfg);
                        }
                    }
                    self.phase = LPhase::Smbo;
                }
                LPhase::Smbo => {
                    self.smbo_rounds += 1;
                    let seed = self.cfg.seed.wrapping_add(self.smbo_rounds);
                    let proposal = legacy_propose(
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
                    return proposal.map(|p| p.config);
                }
                LPhase::HillClimb(hc) => match hc.propose() {
                    Some(cfg) => return Some(cfg),
                    None => self.phase = LPhase::Done,
                },
                LPhase::Done => return None,
            }
        }
    }
}

impl Tuner for LegacyAutoPn {
    fn propose(&mut self) -> Option<Config> {
        self.propose_inner()
    }

    fn observe(&mut self, cfg: Config, kpi: f64) {
        self.record(cfg, kpi, 1.0);
    }

    fn observe_noisy(&mut self, cfg: Config, kpi: f64, cv: Option<f64>, timed_out: bool) {
        let weight =
            if self.cfg.noise_aware { LSample::weight_from_cv(cv, timed_out) } else { 1.0 };
        self.record(cfg, kpi, weight);
    }

    fn best(&self) -> Option<(Config, f64)> {
        self.best_known()
    }

    fn explored(&self) -> usize {
        self.observations.len()
    }

    fn name(&self) -> String {
        "AutoPN-legacy".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_finds_interior_optimum() {
        let space = SearchSpace::new(48);
        let f = |cfg: Config| {
            1000.0 - 3.0 * (cfg.t as f64 - 20.0).powi(2) - 40.0 * (cfg.c as f64 - 2.0).powi(2)
        };
        let mut tuner = LegacyAutoPn::new(space, AutoPnConfig::default());
        let mut n = 0;
        while let Some(cfg) = tuner.propose() {
            n += 1;
            assert!(n <= 198);
            tuner.observe(cfg, f(cfg));
        }
        let best = tuner.best().unwrap().0;
        let dfo = (f(Config::new(20, 2)) - f(best)) / f(Config::new(20, 2));
        assert!(dfo < 0.02, "best {best} is {dfo:.3} from optimum");
        assert!(n < 60, "legacy AutoPN explored {n} of 198");
    }

    #[test]
    fn legacy_never_proposes_duplicates() {
        let space = SearchSpace::new(24);
        let f = |c: Config| (c.t as f64).sqrt() + c.c as f64;
        let mut tuner = LegacyAutoPn::new(space, AutoPnConfig::default());
        let mut seen = std::collections::HashSet::new();
        while let Some(cfg) = tuner.propose() {
            assert!(seen.insert(cfg), "duplicate proposal {cfg}");
            tuner.observe(cfg, f(cfg));
            assert!(seen.len() <= 200);
        }
    }
}
