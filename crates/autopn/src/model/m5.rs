//! The M5 model tree (Quinlan, 1992): a decision tree whose leaves hold
//! multivariate linear models, approximating arbitrary functions by
//! piece-wise linear surfaces. This is the lightweight regressor AutoPN
//! trains online (§V-B, "Model construction").
//!
//! The implementation follows the classic recipe over however many features
//! the training samples carry (2 in the paper's `(t, c)` setting):
//!
//! * **Growth** — recursive binary splits chosen by maximum standard
//!   deviation reduction (SDR) over every feature; stop when a node is small
//!   or nearly pure.
//! * **Pruning** — a subtree is replaced by its node's linear model when the
//!   model's complexity-penalized error is no worse than the subtree's.
//! * **Smoothing** — predictions are blended with the linear models along
//!   the root path (`k = 15`), avoiding discontinuities at split boundaries.

use super::linear::LinearModel;
use super::{common_dim, std_dev, Regressor, Sample};

/// M5 hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct M5Params {
    /// Minimum samples in a node eligible for splitting.
    pub min_split: usize,
    /// Stop splitting when a node's standard deviation falls below this
    /// fraction of the root's.
    pub sd_fraction: f64,
    /// Smoothing constant `k` (classic value: 15).
    pub smoothing_k: f64,
    /// Complexity penalty factor per model parameter in pruning.
    pub pruning_factor: f64,
}

impl Default for M5Params {
    fn default() -> Self {
        Self { min_split: 4, sd_fraction: 0.05, smoothing_k: 15.0, pruning_factor: 1.0 }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        model: LinearModel,
    },
    Split {
        feature: usize,
        threshold: f64,
        model: LinearModel,
        n: usize,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A trained M5 model tree over an encoded configuration space.
#[derive(Debug, Clone)]
pub struct M5Tree {
    root: Node,
    params: M5Params,
}

/// Feature accessor tolerant of ragged sample dimensionality (absent
/// features read as 0, matching the linear model's convention).
fn feat(s: &Sample, i: usize) -> f64 {
    s.features().get(i).copied().unwrap_or(0.0)
}

impl M5Tree {
    /// Train on `samples` with default parameters.
    pub fn fit(samples: &[Sample]) -> Self {
        Self::fit_with(samples, M5Params::default())
    }

    /// Train with explicit parameters.
    pub fn fit_with(samples: &[Sample], params: M5Params) -> Self {
        let root_sd = std_dev(samples);
        let dim = common_dim(samples);
        let mut owned: Vec<Sample> = samples.to_vec();
        let mut root = grow(&mut owned, root_sd, dim, &params);
        prune(&mut root, samples, &params);
        Self { root, params }
    }

    /// Number of leaves (model complexity introspection).
    pub fn leaf_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => count(left) + count(right),
            }
        }
        count(&self.root)
    }

    /// Tree depth (a lone leaf has depth 1).
    pub fn depth(&self) -> usize {
        fn depth(node: &Node) -> usize {
            match node {
                Node::Leaf { .. } => 1,
                Node::Split { left, right, .. } => 1 + depth(left).max(depth(right)),
            }
        }
        depth(&self.root)
    }
}

impl Regressor for M5Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        // Walk to the leaf, then smooth back along the path.
        fn walk(node: &Node, x: &[f64], k: f64) -> f64 {
            match node {
                Node::Leaf { model } => model.predict(x),
                Node::Split { feature, threshold, model, n, left, right } => {
                    let xf = x.get(*feature).copied().unwrap_or(0.0);
                    let child = if xf <= *threshold { left } else { right };
                    let child_pred = walk(child, x, k);
                    // Quinlan smoothing: blend the child prediction with this
                    // node's linear model, weighted by the node's sample count.
                    let nf = *n as f64;
                    (nf * child_pred + k * model.predict(x)) / (nf + k)
                }
            }
        }
        walk(&self.root, x, self.params.smoothing_k)
    }
}

/// Recursive tree growth by maximum standard deviation reduction.
fn grow(samples: &mut [Sample], root_sd: f64, dim: usize, params: &M5Params) -> Node {
    let sd = std_dev(samples);
    // Absolute noise floor: targets that are constant up to floating-point
    // rounding must not be split (ulp-level "structure" produces degenerate
    // collinear leaves that extrapolate wildly).
    let y_scale = samples.iter().map(|s| s.y.abs()).sum::<f64>() / samples.len().max(1) as f64;
    let noise_floor = 1e-9 * (y_scale + 1.0);
    if samples.len() < params.min_split || sd <= params.sd_fraction * root_sd + noise_floor {
        return Node::Leaf { model: LinearModel::fit(samples) };
    }
    let Some((feature, threshold)) = best_split(samples, sd, dim) else {
        return Node::Leaf { model: LinearModel::fit(samples) };
    };
    let model = LinearModel::fit(samples);
    let n = samples.len();
    // Partition in place.
    samples.sort_by(|a, b| feat(a, feature).total_cmp(&feat(b, feature)));
    let split_at = samples.partition_point(|s| feat(s, feature) <= threshold);
    if split_at == 0 || split_at == samples.len() {
        return Node::Leaf { model };
    }
    let (l, r) = samples.split_at_mut(split_at);
    let left = grow(l, root_sd, dim, params);
    let right = grow(r, root_sd, dim, params);
    Node::Split { feature, threshold, model, n, left: Box::new(left), right: Box::new(right) }
}

/// Best (feature, threshold) by SDR; thresholds are midpoints between
/// consecutive distinct feature values.
fn best_split(samples: &[Sample], parent_sd: f64, dim: usize) -> Option<(usize, f64)> {
    let n = samples.len() as f64;
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sdr)
    let mut sorted = samples.to_vec();
    for feature in 0..dim {
        sorted.sort_by(|a, b| feat(a, feature).total_cmp(&feat(b, feature)));
        for i in 0..sorted.len() - 1 {
            let (x0, x1) = (feat(&sorted[i], feature), feat(&sorted[i + 1], feature));
            if x0 == x1 {
                continue;
            }
            let threshold = (x0 + x1) / 2.0;
            let (l, r) = sorted.split_at(i + 1);
            let sdr =
                parent_sd - (l.len() as f64 / n) * std_dev(l) - (r.len() as f64 / n) * std_dev(r);
            if best.as_ref().map(|&(_, _, b)| sdr > b).unwrap_or(true) {
                best = Some((feature, threshold, sdr));
            }
        }
    }
    best.filter(|&(_, _, sdr)| sdr > 0.0).map(|(f, t, _)| (f, t))
}

/// Bottom-up pruning: replace a subtree by its node's linear model when the
/// penalized model error is no worse than the subtree's penalized error.
fn prune(node: &mut Node, samples: &[Sample], params: &M5Params) {
    let (feature, threshold) = match node {
        Node::Leaf { .. } => return,
        Node::Split { feature, threshold, .. } => (*feature, *threshold),
    };
    let (l, r): (Vec<Sample>, Vec<Sample>) =
        samples.iter().cloned().partition(|s| feat(s, feature) <= threshold);
    if let Node::Split { left, right, model, .. } = node {
        prune(left, &l, params);
        prune(right, &r, params);
        let subtree_err =
            subtree_mae(left, &l) * l.len() as f64 + subtree_mae(right, &r) * r.len() as f64;
        let subtree_err = subtree_err / samples.len().max(1) as f64;
        let model_err = model.mae(samples);
        // Penalize the subtree by its parameter count, M5-style.
        let v_subtree = 3.0 * (count_leaves(left) + count_leaves(right)) as f64;
        let v_model = 3.0;
        let n = samples.len() as f64;
        let penalize = |err: f64, v: f64| {
            if n > v {
                err * (n + params.pruning_factor * v) / (n - v)
            } else {
                err * 10.0
            }
        };
        if penalize(model_err, v_model) <= penalize(subtree_err, v_subtree) {
            *node = Node::Leaf { model: model.clone() };
        }
    }
}

fn count_leaves(node: &Node) -> usize {
    match node {
        Node::Leaf { .. } => 1,
        Node::Split { left, right, .. } => count_leaves(left) + count_leaves(right),
    }
}

fn subtree_mae(node: &Node, samples: &[Sample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let total: f64 = samples
        .iter()
        .map(|s| {
            let pred = raw_predict(node, s.features());
            (pred - s.y).abs()
        })
        .sum();
    total / samples.len() as f64
}

/// Unsmoothed prediction, used during pruning.
fn raw_predict(node: &Node, x: &[f64]) -> f64 {
    match node {
        Node::Leaf { model } => model.predict(x),
        Node::Split { feature, threshold, left, right, .. } => {
            let xf = x.get(*feature).copied().unwrap_or(0.0);
            if xf <= *threshold {
                raw_predict(left, x)
            } else {
                raw_predict(right, x)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(f: impl Fn(f64, f64) -> f64, tmax: usize, cmax: usize) -> Vec<Sample> {
        let mut out = Vec::new();
        for t in 1..=tmax {
            for c in 1..=cmax {
                out.push(Sample::point(t as f64, c as f64, f(t as f64, c as f64)));
            }
        }
        out
    }

    #[test]
    fn fits_linear_function_with_single_leaf_accuracy() {
        let samples = grid(|t, c| 5.0 + 3.0 * t - 2.0 * c, 8, 8);
        let tree = M5Tree::fit(&samples);
        for s in &samples {
            assert!(
                (tree.predict(s.features()) - s.y).abs() < 0.5,
                "bad fit at {:?}",
                s.features()
            );
        }
    }

    #[test]
    fn fits_piecewise_function_better_than_one_line() {
        // V-shaped in t: a single linear model cannot capture it.
        let f = |t: f64, _c: f64| (t - 8.0).abs();
        let samples = grid(f, 16, 2);
        let tree = M5Tree::fit(&samples);
        let lin = LinearModel::fit(&samples);
        let tree_err: f64 =
            samples.iter().map(|s| (tree.predict(s.features()) - s.y).abs()).sum::<f64>();
        let lin_err: f64 =
            samples.iter().map(|s| (lin.predict(s.features()) - s.y).abs()).sum::<f64>();
        assert!(tree_err < lin_err * 0.6, "tree {tree_err} should clearly beat line {lin_err}");
        assert!(tree.leaf_count() >= 2, "must have split at least once");
    }

    #[test]
    fn splits_on_a_categorical_one_hot_feature() {
        // Feature 2 is a one-hot indicator that shifts the surface by 100:
        // the tree must split on it (a single linear model also could, but
        // the split test exercises the >2-feature path end to end).
        let mut samples = Vec::new();
        for t in 1..=6 {
            for c in 1..=3 {
                for flag in 0..2 {
                    let x = vec![t as f64, c as f64, flag as f64];
                    let y = t as f64 + (t as f64 - 3.0).abs() * 10.0 + 100.0 * flag as f64;
                    samples.push(Sample::new(x, y));
                }
            }
        }
        let tree = M5Tree::fit(&samples);
        let off = tree.predict(&[4.0, 2.0, 0.0]);
        let on = tree.predict(&[4.0, 2.0, 1.0]);
        assert!((on - off - 100.0).abs() < 10.0, "one-hot shift not captured: {off} vs {on}");
    }

    #[test]
    fn handful_of_points_yields_single_leaf() {
        let samples = vec![
            Sample::point(1.0, 1.0, 10.0),
            Sample::point(48.0, 1.0, 20.0),
            Sample::point(1.0, 48.0, 5.0),
        ];
        let tree = M5Tree::fit(&samples);
        assert_eq!(tree.leaf_count(), 1);
        assert!(tree.predict(&[24.0, 24.0]).is_finite());
    }

    #[test]
    fn empty_training_predicts_zero() {
        let tree = M5Tree::fit(&[]);
        assert_eq!(tree.predict(&[3.0, 3.0]), 0.0);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.depth(), 1);
    }

    #[test]
    fn constant_target_predicts_constant() {
        let samples = grid(|_, _| 7.5, 6, 6);
        let tree = M5Tree::fit(&samples);
        assert_eq!(tree.leaf_count(), 1, "pure node must not split");
        assert!((tree.predict(&[3.0, 3.0]) - 7.5).abs() < 1e-5);
    }

    #[test]
    fn pruning_collapses_noise_splits() {
        // Nearly-linear data with minuscule wiggle: the pruned tree should be
        // dramatically simpler than the fully grown one.
        let samples = grid(|t, c| 2.0 * t + c + ((t * 7.0 + c * 3.0).sin() * 1e-6), 10, 10);
        let tree = M5Tree::fit(&samples);
        assert!(tree.leaf_count() <= 3, "leaves = {}", tree.leaf_count());
    }

    #[test]
    fn smoothing_limits_discontinuities() {
        let f = |t: f64, _c: f64| if t <= 8.0 { 0.0 } else { 100.0 };
        let samples = grid(f, 16, 1);
        let tree = M5Tree::fit(&samples);
        // Prediction just left and right of the split differs by less than
        // the raw step (smoothing pulls both towards the node model).
        let gap = (tree.predict(&[8.4, 1.0]) - tree.predict(&[8.6, 1.0])).abs();
        assert!(gap < 100.0, "smoothed gap {gap}");
    }

    #[test]
    fn depth_reflects_structure() {
        let samples = grid(|t, c| (t / 4.0).floor() * 10.0 + (c / 4.0).floor(), 16, 16);
        let tree = M5Tree::fit(&samples);
        assert!(tree.depth() >= 2);
    }
}
