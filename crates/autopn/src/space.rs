//! The configuration search space `S = {(t, c) : t·c ≤ n}` (§III-B), and
//! its generalization to a typed N-dimensional product space
//! ([`ConfigSpace`]): `(t, c)` plus up to [`MAX_AXES`] named discrete axes
//! ([`Axis`]) — integer axes with ±1-level neighbour moves and log-scaled
//! encodings ([`Axis::gc_budget`], [`Axis::block_size`]), categorical axes
//! with one-hot encodings ([`Axis::cm_policy`]) — so
//! the SMBO model learns across every knob instead of one outer sweep per
//! discrete value.

use serde::impl_serde;

/// Maximum number of discrete axes a [`ConfigSpace`] may carry. Matches
/// [`pnstm::MAX_TRACE_AXES`] so every full configuration point fits in a
/// `Copy` trace event.
pub const MAX_AXES: usize = pnstm::MAX_TRACE_AXES;

/// The discrete-axis half of a configuration point: one level index per
/// axis of the owning [`ConfigSpace`], packed so [`Config`] stays `Copy`.
/// Empty (`len() == 0`) in the legacy 2-D `(t, c)` space — every legacy
/// code path round-trips unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AxisLevels {
    n: u8,
    idx: [u8; MAX_AXES],
}

impl AxisLevels {
    /// No axes (the legacy `(t, c)`-only point).
    pub const fn empty() -> Self {
        Self { n: 0, idx: [0; MAX_AXES] }
    }

    /// Levels from a slice, in axis order. Panics past [`MAX_AXES`] axes or
    /// level index 255 — both enforced structurally by [`ConfigSpace`].
    pub fn from_slice(levels: &[usize]) -> Self {
        let mut out = Self::empty();
        for &l in levels {
            out.push(l);
        }
        out
    }

    /// Append one axis's level index.
    pub fn push(&mut self, level: usize) {
        assert!((self.n as usize) < MAX_AXES, "more than {MAX_AXES} axes");
        assert!(level <= u8::MAX as usize, "axis level {level} out of range");
        self.idx[self.n as usize] = level as u8;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Level index of axis `i`. Panics out of range — callers iterate the
    /// owning space's axes, so an out-of-range `i` is a construction bug.
    pub fn get(&self, i: usize) -> usize {
        assert!(i < self.n as usize, "axis index {i} out of range (have {})", self.n);
        self.idx[i] as usize
    }

    /// Replace the level of axis `i`, returning the updated copy.
    pub fn with(&self, i: usize, level: usize) -> Self {
        assert!(i < self.n as usize, "axis index {i} out of range (have {})", self.n);
        assert!(level <= u8::MAX as usize, "axis level {level} out of range");
        let mut out = *self;
        out.idx[i] = level as u8;
        out
    }

    /// The level indices, in axis order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.idx[..self.n as usize].iter().map(|&l| l as usize)
    }
}

impl serde::Serialize for AxisLevels {
    fn to_value(&self) -> serde::Value {
        serde::Serialize::to_value(&self.iter().collect::<Vec<usize>>())
    }
}

impl serde::Deserialize for AxisLevels {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let levels: Vec<usize> = serde::Deserialize::from_value(v)?;
        if levels.len() > MAX_AXES {
            return Err(serde::Error::new("more than MAX_AXES axis levels"));
        }
        if levels.iter().any(|&l| l > u8::MAX as usize) {
            return Err(serde::Error::new("axis level out of range"));
        }
        Ok(Self::from_slice(&levels))
    }
}

/// One parallelism-degree configuration: `t` concurrent top-level
/// transactions, `c` concurrent nested transactions per transaction tree,
/// plus the discrete-axis levels of the owning [`ConfigSpace`] (empty in
/// the legacy 2-D space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Config {
    /// Number of concurrent top-level transactions.
    pub t: usize,
    /// Number of concurrent nested transactions per tree.
    pub c: usize,
    /// Per-axis level indices into the owning [`ConfigSpace::axes`].
    pub axes: AxisLevels,
}

impl_serde!(Config { t, c } defaults { axes });

impl Config {
    pub fn new(t: usize, c: usize) -> Self {
        Self { t: t.max(1), c: c.max(1), axes: AxisLevels::empty() }
    }

    /// A full configuration point: `(t, c)` plus discrete-axis levels.
    pub fn with_axes(t: usize, c: usize, axes: AxisLevels) -> Self {
        Self { t: t.max(1), c: c.max(1), axes }
    }

    /// The `(t, c)` half of this point, axes stripped.
    pub fn tc(&self) -> Config {
        Config::new(self.t, self.c)
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
        write!(f, "({},{})", self.t, self.c)?;
        if !self.axes.is_empty() {
            write!(f, "@")?;
            for (i, l) in self.axes.iter().enumerate() {
                if i > 0 {
                    write!(f, ".")?;
                }
                write!(f, "{l}")?;
            }
        }
        Ok(())
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

/// How an [`Axis`]'s levels relate to each other — this decides both the
/// neighbour moves local search gets and the feature encoding the model
/// sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisKind {
    /// Ordered levels (e.g. GC slice budget, ledger block size): hill
    /// climbing moves one level up/down, the model sees one ordinal feature
    /// per axis (the level's `encoded` value, typically log-scaled).
    Integer,
    /// Unordered levels (e.g. contention policy, scheduler mode): every
    /// other level is a neighbour, the model sees a one-hot feature per
    /// level so no spurious ordering is learned.
    Categorical,
}

/// One level of an [`Axis`]: its human-readable `label` (empty for plain
/// integer axes), the raw `value` handed to the actuator (slice boxes,
/// block txns, or a categorical index), and the feature `encoded` into the
/// model's input for ordinal axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AxisLevel {
    pub label: &'static str,
    pub value: u32,
    pub encoded: f64,
}

/// A named discrete tuning axis: a finite ladder of [`AxisLevel`]s with a
/// default, either ordered ([`AxisKind::Integer`]) or unordered
/// ([`AxisKind::Categorical`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    name: &'static str,
    kind: AxisKind,
    levels: Vec<AxisLevel>,
    default_level: usize,
}

impl Axis {
    /// An ordered integer axis over `values`, encoded as the raw value.
    pub fn integer(name: &'static str, values: &[u32], default_value: u32) -> Self {
        let levels =
            values.iter().map(|&v| AxisLevel { label: "", value: v, encoded: v as f64 }).collect();
        Self::build(name, AxisKind::Integer, levels, default_value)
    }

    /// An ordered integer axis over `values`, encoded as `log2(value)` —
    /// the right scale for power-of-two ladders (GC budget, block size)
    /// where each step is a doubling, not a fixed increment.
    pub fn integer_log2(name: &'static str, values: &[u32], default_value: u32) -> Self {
        let levels = values
            .iter()
            .map(|&v| AxisLevel { label: "", value: v, encoded: (v.max(1) as f64).log2() })
            .collect();
        Self::build(name, AxisKind::Integer, levels, default_value)
    }

    /// An unordered categorical axis; level values are the label indices.
    pub fn categorical(name: &'static str, labels: &[&'static str], default_idx: usize) -> Self {
        let levels = labels
            .iter()
            .enumerate()
            .map(|(i, &label)| AxisLevel { label, value: i as u32, encoded: i as f64 })
            .collect();
        Self::build(name, AxisKind::Categorical, levels, default_idx as u32)
    }

    fn build(
        name: &'static str,
        kind: AxisKind,
        levels: Vec<AxisLevel>,
        default_value: u32,
    ) -> Self {
        assert!(!levels.is_empty(), "axis {name} has no levels");
        assert!(levels.len() <= u8::MAX as usize, "axis {name} has too many levels");
        let default_level = levels
            .iter()
            .position(|l| l.value == default_value)
            .unwrap_or_else(|| panic!("axis {name}: default {default_value} not in levels"));
        Self { name, kind, levels, default_level }
    }

    /// The contention-policy axis, categorical over the three shipped
    /// policies ([`pnstm::CmMode::ALL`]) with the runtime's default; level
    /// values are [`pnstm::CmMode::index`]es (`CmMode::from_index` maps one
    /// back).
    pub fn cm_policy() -> Self {
        let labels: Vec<&'static str> = pnstm::CmMode::ALL.iter().map(|m| m.tag()).collect();
        Self::categorical("cm", &labels, pnstm::CmMode::default().index())
    }

    /// The background-GC slice-budget axis (boxes pruned per collector
    /// slice): powers of two around the [`pnstm::MemConfig`] default,
    /// log2-encoded. A small slice keeps collector pauses short, a large one
    /// reclaims eagerly.
    pub fn gc_budget() -> Self {
        let default = pnstm::MemConfig::default().gc_slice_boxes as u32;
        Self::integer_log2("gc_boxes", &[32, 64, 128, 256, 512], default)
    }

    /// The ledger block-size axis (transactions per block): powers of two
    /// around the ledger default of 256, log2-encoded. A large block
    /// amortises the index-order install, a small one shrinks the conflict
    /// window.
    pub fn block_size() -> Self {
        Self::integer_log2("block", &[64, 128, 256, 512, 1024], 256)
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    pub fn kind(&self) -> AxisKind {
        self.kind
    }

    pub fn levels(&self) -> &[AxisLevel] {
        &self.levels
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Index of the level actuated when the tuner has not chosen yet.
    pub fn default_level(&self) -> usize {
        self.default_level
    }

    /// Raw actuator value of `level`.
    pub fn value_at(&self, level: usize) -> u32 {
        self.levels[level].value
    }

    /// Human-readable label of `level` (empty for integer axes).
    pub fn label_at(&self, level: usize) -> &'static str {
        self.levels[level].label
    }

    /// The level whose raw value is `value`, if any.
    pub fn level_of_value(&self, value: u32) -> Option<usize> {
        self.levels.iter().position(|l| l.value == value)
    }

    /// How many model features this axis contributes: 1 ordinal feature for
    /// an integer axis, one one-hot feature per level for a categorical.
    pub fn feature_width(&self) -> usize {
        match self.kind {
            AxisKind::Integer => 1,
            AxisKind::Categorical => self.levels.len(),
        }
    }

    /// Append this axis's feature encoding of `level` to `out`.
    pub fn encode_into(&self, level: usize, out: &mut Vec<f64>) {
        match self.kind {
            AxisKind::Integer => out.push(self.levels[level].encoded),
            AxisKind::Categorical => {
                for i in 0..self.levels.len() {
                    out.push(if i == level { 1.0 } else { 0.0 });
                }
            }
        }
    }

    /// `name=value` / `name=label` display of one level.
    pub fn display(&self, level: usize) -> String {
        let l = &self.levels[level];
        if l.label.is_empty() {
            format!("{}={}", self.name, l.value)
        } else {
            format!("{}={}", self.name, l.label)
        }
    }
}

/// The generalized N-dimensional configuration space: the admissible
/// `(t, c)` grid of a [`SearchSpace`] crossed with up to [`MAX_AXES`] named
/// discrete [`Axis`]es. With no axes this is exactly the legacy 2-D space —
/// same enumeration order, same neighbours, same `[t, c]` feature encoding —
/// which the legacy-projection differential proptest pins down.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigSpace {
    tc: SearchSpace,
    axes: Vec<Axis>,
    configs: Vec<Config>,
}

impl ConfigSpace {
    /// Cross `tc` with `axes`. The product is materialized: `tc` outer
    /// (ascending `(t, c)` as in [`SearchSpace::configs`]), axis levels
    /// inner with the last axis fastest — so with no axes the enumeration
    /// is exactly the legacy one, and the vector is sorted by
    /// `(t, c, axes)` (binary-searchable).
    pub fn new(tc: SearchSpace, axes: Vec<Axis>) -> Self {
        assert!(axes.len() <= MAX_AXES, "at most {MAX_AXES} discrete axes");
        let prod: usize = axes.iter().map(|a| a.len()).product();
        let mut configs = Vec::with_capacity(tc.len() * prod.max(1));
        for &base in tc.configs() {
            for point in 0..prod.max(1) {
                let mut levels = [0usize; MAX_AXES];
                let mut r = point;
                for k in (0..axes.len()).rev() {
                    levels[k] = r % axes[k].len();
                    r /= axes[k].len();
                }
                configs.push(Config::with_axes(
                    base.t,
                    base.c,
                    AxisLevels::from_slice(&levels[..axes.len()]),
                ));
            }
        }
        Self { tc, axes, configs }
    }

    /// The `(t, c)` grid this space is built over.
    pub fn tc(&self) -> &SearchSpace {
        &self.tc
    }

    /// The discrete axes, in feature/actuation order.
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Number of cores `n` bounding the `(t, c)` grid.
    pub fn n_cores(&self) -> usize {
        self.tc.n_cores()
    }

    /// Every admissible configuration point, sorted by `(t, c, axes)`.
    pub fn configs(&self) -> &[Config] {
        &self.configs
    }

    /// Size of the product space.
    pub fn len(&self) -> usize {
        self.configs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.configs.is_empty()
    }

    /// Model feature dimensionality: `t`, `c`, plus each axis's width.
    pub fn dim(&self) -> usize {
        2 + self.axes.iter().map(|a| a.feature_width()).sum::<usize>()
    }

    /// Whether `cfg` is an admissible point of *this* space: `(t, c)` not
    /// over-subscribed, one level per axis, every level in range.
    pub fn contains(&self, cfg: Config) -> bool {
        self.tc.contains(cfg.tc())
            && cfg.axes.len() == self.axes.len()
            && cfg.axes.iter().zip(&self.axes).all(|(l, a)| l < a.len())
    }

    /// The default level of every axis.
    pub fn default_axes(&self) -> AxisLevels {
        AxisLevels::from_slice(&self.axes.iter().map(|a| a.default_level()).collect::<Vec<_>>())
    }

    /// A point at `(t, c)` with every axis at its default level.
    pub fn with_default_axes(&self, t: usize, c: usize) -> Config {
        Config::with_axes(t, c, self.default_axes())
    }

    /// Adapt a possibly axis-less `cfg` to this space: a point with the
    /// right number of levels passes through; a legacy `(t, c)`-only point
    /// (e.g. the controller's sequential fallback) gets the default levels.
    pub fn lift(&self, cfg: Config) -> Config {
        if cfg.axes.len() == self.axes.len() {
            cfg
        } else {
            self.with_default_axes(cfg.t, cfg.c)
        }
    }

    /// Write the model feature encoding of `cfg` into `out` (clearing any
    /// previous contents): `[t, c]` then each axis's encoding
    /// ([`Axis::encode_into`]). With no axes this is exactly the legacy
    /// 2-feature `[t, c]` vector.
    pub fn encode_into(&self, cfg: Config, out: &mut Vec<f64>) {
        out.clear();
        out.push(cfg.t as f64);
        out.push(cfg.c as f64);
        for (k, axis) in self.axes.iter().enumerate() {
            axis.encode_into(cfg.axes.get(k), out);
        }
    }

    /// The model feature vector of `cfg` ([`ConfigSpace::encode_into`]).
    pub fn encode(&self, cfg: Config) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.encode_into(cfg, &mut out);
        out
    }

    /// The refinement neighbourhood of `cfg`: every [`SearchSpace::neighbors`]
    /// `(t, c)` move with the axes held (first, in the legacy order — so the
    /// axis-less projection matches legacy hill climbing exactly), then per
    /// axis the ±1-level moves (integer) or every other level (categorical).
    pub fn neighbors(&self, cfg: Config) -> Vec<Config> {
        self.neighbors_impl(cfg, false)
    }

    /// As [`ConfigSpace::neighbors`] but with the plain von-Neumann `(t, c)`
    /// moves (the baseline hill-climbing neighbourhood).
    pub fn von_neumann_neighbors(&self, cfg: Config) -> Vec<Config> {
        self.neighbors_impl(cfg, true)
    }

    fn neighbors_impl(&self, cfg: Config, von_neumann: bool) -> Vec<Config> {
        let tc_moves = if von_neumann {
            self.tc.von_neumann_neighbors(cfg.tc())
        } else {
            self.tc.neighbors(cfg.tc())
        };
        let mut out: Vec<Config> =
            tc_moves.into_iter().map(|nb| Config::with_axes(nb.t, nb.c, cfg.axes)).collect();
        for (k, axis) in self.axes.iter().enumerate() {
            let cur = cfg.axes.get(k);
            match axis.kind() {
                AxisKind::Integer => {
                    if cur > 0 {
                        out.push(Config { axes: cfg.axes.with(k, cur - 1), ..cfg });
                    }
                    if cur + 1 < axis.len() {
                        out.push(Config { axes: cfg.axes.with(k, cur + 1), ..cfg });
                    }
                }
                AxisKind::Categorical => {
                    for l in 0..axis.len() {
                        if l != cur {
                            out.push(Config { axes: cfg.axes.with(k, l), ..cfg });
                        }
                    }
                }
            }
        }
        out
    }

    /// Index of `cfg` in [`Self::configs`], if admissible.
    pub fn index_of(&self, cfg: Config) -> Option<usize> {
        self.configs.binary_search(&cfg).ok()
    }

    /// The discrete-axis half of `cfg` as a trace payload (axis name, raw
    /// value, label), for `reconfigure`/`proposal`/`session_end` events.
    pub fn axes_trace(&self, cfg: Config) -> pnstm::AxesTrace {
        let mut out = pnstm::AxesTrace::empty();
        for (k, axis) in self.axes.iter().enumerate() {
            let level = cfg.axes.get(k);
            out.push(axis.name(), axis.value_at(level), axis.label_at(level));
        }
        out
    }

    /// Human-readable full point, e.g. `(8,2) cm=karma block=128`.
    pub fn describe(&self, cfg: Config) -> String {
        let mut s = format!("({},{})", cfg.t, cfg.c);
        for (k, axis) in self.axes.iter().enumerate() {
            s.push(' ');
            s.push_str(&axis.display(cfg.axes.get(k)));
        }
        s
    }
}

impl From<SearchSpace> for ConfigSpace {
    fn from(tc: SearchSpace) -> Self {
        ConfigSpace::new(tc, Vec::new())
    }
}

impl From<&SearchSpace> for ConfigSpace {
    fn from(tc: &SearchSpace) -> Self {
        ConfigSpace::new(tc.clone(), Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps() {
        let c = Config::new(0, 0);
        assert_eq!(c, Config { t: 1, c: 1, axes: AxisLevels::empty() });
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
    fn axis_vocabulary_matches_the_runtime() {
        // The cm axis *is* the runtime's policy ladder: same tags, same
        // order, same default — so `CmMode::from_index(value)` enacts it.
        let cm = Axis::cm_policy();
        let labels: Vec<&str> = cm.levels().iter().map(|l| l.label).collect();
        let tags: Vec<&str> = pnstm::CmMode::ALL.iter().map(|m| m.tag()).collect();
        assert_eq!(labels, tags);
        for (level, tag) in tags.iter().enumerate() {
            assert_eq!(pnstm::CmMode::from_index(cm.value_at(level) as usize).unwrap().tag(), *tag);
        }
        assert_eq!(
            pnstm::CmMode::from_index(cm.value_at(cm.default_level()) as usize),
            Some(pnstm::CmMode::default())
        );
        // The GC axis defaults to the runtime's own slice budget. (The
        // block axis's default is pinned to `LedgerConfig` in `workloads`,
        // which sees both crates.)
        let gc = Axis::gc_budget();
        assert_eq!(
            gc.value_at(gc.default_level()) as usize,
            pnstm::MemConfig::default().gc_slice_boxes
        );
        for axis in [Axis::gc_budget(), Axis::block_size()] {
            let values: Vec<u32> = axis.levels().iter().map(|l| l.value).collect();
            assert!(values.windows(2).all(|w| w[0] < w[1]), "{} ladder ascends", axis.name());
        }
    }

    #[test]
    fn axisless_config_space_is_the_legacy_space() {
        let tc = SearchSpace::new(48);
        let space = ConfigSpace::from(tc.clone());
        assert_eq!(space.len(), 198);
        assert_eq!(space.dim(), 2);
        assert_eq!(space.configs(), tc.configs(), "enumeration order must match legacy");
        for &cfg in tc.configs() {
            assert_eq!(space.encode(cfg), vec![cfg.t as f64, cfg.c as f64]);
            assert_eq!(space.neighbors(cfg), tc.neighbors(cfg), "neighbour order must match");
            assert_eq!(space.von_neumann_neighbors(cfg), tc.von_neumann_neighbors(cfg));
            assert_eq!(space.index_of(cfg), tc.index_of(cfg));
        }
        assert!(space.axes_trace(Config::new(4, 2)).is_empty());
        assert_eq!(space.describe(Config::new(4, 2)), "(4,2)");
    }

    #[test]
    fn product_space_enumeration_is_sorted_and_complete() {
        let space =
            ConfigSpace::new(SearchSpace::new(8), vec![Axis::cm_policy(), Axis::block_size()]);
        // 20 tc cells × 3 policies × 5 block sizes.
        assert_eq!(space.len(), SearchSpace::new(8).len() * 3 * 5);
        assert_eq!(space.dim(), 2 + 3 + 1, "one-hot cm (3) + ordinal block (1)");
        let mut sorted = space.configs().to_vec();
        sorted.sort();
        assert_eq!(sorted, space.configs(), "enumeration must be binary-searchable");
        for (i, &cfg) in space.configs().iter().enumerate() {
            assert_eq!(space.index_of(cfg), Some(i));
            assert!(space.contains(cfg));
        }
        // A legacy axis-less point is not a member but lifts to one.
        let legacy = Config::new(4, 2);
        assert!(!space.contains(legacy));
        let lifted = space.lift(legacy);
        assert!(space.contains(lifted));
        assert_eq!(lifted.axes, space.default_axes());
        assert_eq!(space.describe(lifted), "(4,2) cm=exp-backoff block=256");
    }

    #[test]
    fn axis_encodings_and_neighbours() {
        let space =
            ConfigSpace::new(SearchSpace::new(8), vec![Axis::cm_policy(), Axis::gc_budget()]);
        let cfg = Config::with_axes(2, 2, AxisLevels::from_slice(&[1, 0])); // karma, gc 32
        let x = space.encode(cfg);
        assert_eq!(x[..2], [2.0, 2.0]);
        assert_eq!(x[2..5], [0.0, 1.0, 0.0], "karma one-hot");
        assert_eq!(x[5], 5.0, "gc 32 log2-encoded");
        assert_eq!(x.len(), space.dim());

        let nbs = space.neighbors(cfg);
        // tc moves first, axes held — legacy order.
        let tc_moves = SearchSpace::new(8).neighbors(cfg.tc());
        for (i, nb) in tc_moves.iter().enumerate() {
            assert_eq!(nbs[i].tc(), *nb);
            assert_eq!(nbs[i].axes, cfg.axes);
        }
        // Categorical: every other policy. Integer: ±1 level (here only +1).
        let axis_moves: Vec<_> = nbs[tc_moves.len()..].to_vec();
        assert_eq!(axis_moves.len(), 2 + 1);
        assert!(axis_moves.contains(&Config::with_axes(2, 2, AxisLevels::from_slice(&[0, 0]))));
        assert!(axis_moves.contains(&Config::with_axes(2, 2, AxisLevels::from_slice(&[1, 1]))));
        assert!(!axis_moves.iter().any(|m| m.axes == cfg.axes), "axis moves change a level");
        assert!(nbs.iter().all(|&n| space.contains(n)));

        // Interior integer level gets both directions.
        let mid = Config::with_axes(2, 2, AxisLevels::from_slice(&[0, 2]));
        let mid_moves = &space.neighbors(mid)[tc_moves.len()..];
        assert!(mid_moves.contains(&Config::with_axes(2, 2, AxisLevels::from_slice(&[0, 1]))));
        assert!(mid_moves.contains(&Config::with_axes(2, 2, AxisLevels::from_slice(&[0, 3]))));
    }

    #[test]
    fn axes_trace_carries_names_values_labels() {
        let space =
            ConfigSpace::new(SearchSpace::new(8), vec![Axis::cm_policy(), Axis::block_size()]);
        let cfg = Config::with_axes(4, 1, AxisLevels::from_slice(&[2, 1]));
        let tr = space.axes_trace(cfg);
        assert_eq!(tr.len(), 2);
        assert_eq!(tr.get("cm").map(|a| a.label), Some("greedy"));
        assert_eq!(tr.get("block").map(|a| (a.value, a.label)), Some((128, "")));
        assert_eq!(cfg.to_string(), "(4,1)@2.1");
    }

    #[test]
    fn builtin_axes_are_well_formed() {
        for axis in [Axis::cm_policy(), Axis::gc_budget(), Axis::block_size()] {
            assert!(!axis.is_empty());
            assert!(axis.default_level() < axis.len());
            assert_eq!(
                axis.level_of_value(axis.value_at(axis.default_level())),
                Some(axis.default_level())
            );
            let mut buf = Vec::new();
            axis.encode_into(axis.default_level(), &mut buf);
            assert_eq!(buf.len(), axis.feature_width());
        }
        assert_eq!(Axis::cm_policy().kind(), AxisKind::Categorical);
        assert_eq!(Axis::gc_budget().kind(), AxisKind::Integer);
        assert_eq!(Axis::cm_policy().len(), 3, "only the shipped policies");
        assert_eq!(Axis::cm_policy().display(1), "cm=karma");
        assert_eq!(Axis::gc_budget().display(2), "gc_boxes=128");
        assert_eq!(
            Axis::gc_budget().default_level(),
            2,
            "gc default 128 is the middle of the sweep ladder"
        );
    }

    #[test]
    fn axis_levels_serde_round_trip() {
        use serde::{Deserialize, Serialize};
        let cfg = Config::with_axes(4, 2, AxisLevels::from_slice(&[1, 3]));
        let v = cfg.to_value();
        assert_eq!(Config::from_value(&v), Ok(cfg));
        // A legacy serialization (no `axes` key) deserializes to empty axes.
        let legacy = serde::Value::Obj(vec![
            ("t".to_string(), 4usize.to_value()),
            ("c".to_string(), 2usize.to_value()),
        ]);
        assert_eq!(Config::from_value(&legacy), Ok(Config::new(4, 2)));
    }
}
