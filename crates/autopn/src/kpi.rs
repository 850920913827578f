//! KPI measurements produced by the monitor.

use serde::impl_serde;

/// The result of one measurement window on one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Committed top-level transactions per second (the paper's target KPI).
    pub throughput: f64,
    /// Commits observed inside the window.
    pub commits: u64,
    /// Window length in nanoseconds.
    pub window_ns: u64,
    /// Whether the window was cut short by the adaptive timeout (the
    /// configuration is then known to be of very low quality).
    pub timed_out: bool,
    /// Coefficient of variation of the per-commit throughput estimates at
    /// window close, when the policy tracks it.
    pub cv: Option<f64>,
    /// The window closed without observing a single commit — a starved
    /// configuration (or a watchdog-terminated window). Downstream consumers
    /// must not derive timing references (e.g. the adaptive `1/T(1,1)`
    /// timeout) from a starved measurement.
    pub starved: bool,
}

impl_serde!(Measurement { throughput, commits, window_ns, timed_out, cv } defaults { starved });

impl Measurement {
    /// A window that saw `commits` commits over `window_ns`.
    pub fn from_counts(commits: u64, window_ns: u64, timed_out: bool, cv: Option<f64>) -> Self {
        let throughput = if window_ns == 0 { 0.0 } else { commits as f64 * 1e9 / window_ns as f64 };
        Self { throughput, commits, window_ns, timed_out, cv, starved: commits == 0 }
    }
}

/// One ingress monitoring window's service-level KPI: goodput plus
/// coordinated-omission-free latency percentiles, measured from *intended
/// arrival* (the open-loop schedule instant, not the dequeue instant).
///
/// This is the KPI the paper never had: the source AutoPN tunes raw
/// closed-loop throughput, but a front door serving an open-loop stream
/// must optimize what clients experience — "maximize goodput subject to
/// p99 ≤ target" — where backpressure rejections count as SLO misses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloKpi {
    /// Completed requests per second over the window.
    pub goodput: f64,
    /// Requests whose intended arrival fell inside the window.
    pub offered: u64,
    /// Requests completed inside the window.
    pub completed: u64,
    /// Requests rejected at the queue ceiling (typed backpressure); each
    /// one is an SLO miss even though it has no latency sample.
    pub rejected: u64,
    /// Median intended-arrival latency in nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile intended-arrival latency in nanoseconds.
    pub p99_ns: u64,
    /// 99.9th-percentile intended-arrival latency in nanoseconds.
    pub p999_ns: u64,
    /// Window length in nanoseconds.
    pub window_ns: u64,
}

impl_serde!(SloKpi { goodput, offered, completed, rejected, p50_ns, p99_ns, p999_ns, window_ns });

/// Fraction of offered requests a window may reject before the whole window
/// is treated as violating any latency target (rejections carry no latency
/// sample, so without this rule shedding load would *improve* measured p99).
pub const SLO_REJECT_TOLERANCE: f64 = 0.01;

impl SloKpi {
    /// The KPI of a `window_ns` window from its request counts and the
    /// latency-histogram delta of its completed requests — the one way a
    /// live system turns a window into an `SloKpi`.
    pub fn from_window(
        latency: &pnstm::LatencySnapshot,
        offered: u64,
        completed: u64,
        rejected: u64,
        window_ns: u64,
    ) -> Self {
        let window_ns = window_ns.max(1);
        SloKpi {
            goodput: completed as f64 * 1e9 / window_ns as f64,
            offered,
            completed,
            rejected,
            p50_ns: latency.quantile(50.0),
            p99_ns: latency.quantile(99.0),
            p999_ns: latency.quantile(99.9),
            window_ns,
        }
    }

    /// The p99 the SLO comparison sees: the measured tail latency, or
    /// `u64::MAX` when more than [`SLO_REJECT_TOLERANCE`] of offered
    /// requests were rejected — a shedding configuration must never look
    /// fast.
    pub fn effective_p99(&self) -> u64 {
        if self.offered > 0 && self.rejected as f64 > self.offered as f64 * SLO_REJECT_TOLERANCE {
            u64::MAX
        } else {
            self.p99_ns
        }
    }

    /// Whether this window met a p99 target of `target_ns`.
    pub fn meets(&self, target_ns: u64) -> bool {
        self.effective_p99() <= target_ns
    }

    /// Scalar objective for "maximize goodput subject to p99 ≤ target":
    /// a feasible window scores its goodput; an infeasible one scores its
    /// goodput scaled down by both how far it overshot the target and a
    /// large constant penalty, so any feasible configuration strictly
    /// dominates every infeasible one while infeasible configurations still
    /// order by how badly they violate (the tuner can hill-climb out).
    pub fn score(&self, target_ns: u64) -> f64 {
        if self.meets(target_ns) {
            self.goodput
        } else {
            let p99 = self.effective_p99().max(1) as f64;
            self.goodput * (target_ns.max(1) as f64 / p99) * 1e-6
        }
    }
}

/// Incremental mean/variance tracker (Welford) for the per-commit throughput
/// series the CV policy needs.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation `σ/μ`; `None` until two samples arrived or
    /// when the mean is 0.
    pub fn cv(&self) -> Option<f64> {
        if self.n < 2 || self.mean == 0.0 {
            None
        } else {
            Some(self.std_dev() / self.mean.abs())
        }
    }

    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

/// Mean/variance over a sliding window of the most recent samples.
///
/// The adaptive monitor uses this instead of full-series statistics so that
/// transients at the start of a measurement window (e.g. commits from
/// transactions admitted under the previous configuration) age out instead
/// of inflating the CV forever.
#[derive(Debug, Clone)]
pub struct WindowedStats {
    window: std::collections::VecDeque<f64>,
    capacity: usize,
}

impl WindowedStats {
    /// `capacity` = 0 keeps every sample (full-series statistics).
    pub fn new(capacity: usize) -> Self {
        Self { window: std::collections::VecDeque::new(), capacity }
    }

    pub fn push(&mut self, x: f64) {
        if self.capacity > 0 && self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(x);
    }

    pub fn count(&self) -> usize {
        self.window.len()
    }

    pub fn mean(&self) -> f64 {
        if self.window.is_empty() {
            0.0
        } else {
            self.window.iter().sum::<f64>() / self.window.len() as f64
        }
    }

    /// Coefficient of variation of the retained samples; `None` until two
    /// samples arrived or when the mean is 0.
    pub fn cv(&self) -> Option<f64> {
        if self.window.len() < 2 {
            return None;
        }
        let mean = self.mean();
        if mean == 0.0 {
            return None;
        }
        let var =
            self.window.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / self.window.len() as f64;
        Some(var.sqrt() / mean.abs())
    }

    pub fn reset(&mut self) {
        self.window.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_stats_age_out_outliers() {
        let mut w = WindowedStats::new(4);
        w.push(1000.0); // transient outlier
        for _ in 0..4 {
            w.push(10.0);
        }
        assert_eq!(w.count(), 4);
        assert_eq!(w.mean(), 10.0);
        assert_eq!(w.cv(), Some(0.0), "outlier aged out of the window");
    }

    #[test]
    fn windowed_stats_unbounded_when_zero_capacity() {
        let mut w = WindowedStats::new(0);
        for i in 0..100 {
            w.push(i as f64);
        }
        assert_eq!(w.count(), 100);
    }

    #[test]
    fn windowed_cv_undefined_early() {
        let mut w = WindowedStats::new(8);
        assert_eq!(w.cv(), None);
        w.push(5.0);
        assert_eq!(w.cv(), None);
        w.push(5.0);
        assert_eq!(w.cv(), Some(0.0));
    }

    fn slo(goodput: f64, offered: u64, rejected: u64, p99_ns: u64) -> SloKpi {
        SloKpi {
            goodput,
            offered,
            completed: offered - rejected,
            rejected,
            p50_ns: p99_ns / 4,
            p99_ns,
            p999_ns: p99_ns * 2,
            window_ns: 1_000_000_000,
        }
    }

    #[test]
    fn slo_kpi_feasible_scores_goodput() {
        let k = slo(5_000.0, 5_000, 0, 800_000);
        assert!(k.meets(1_000_000));
        assert_eq!(k.effective_p99(), 800_000);
        assert_eq!(k.score(1_000_000), 5_000.0);
    }

    #[test]
    fn slo_kpi_feasible_dominates_infeasible() {
        // An infeasible config with far higher goodput must still score below
        // a modest feasible one.
        let feasible = slo(100.0, 100, 0, 900_000);
        let infeasible = slo(1_000_000.0, 1_000_000, 0, 50_000_000);
        let target = 1_000_000;
        assert!(feasible.meets(target));
        assert!(!infeasible.meets(target));
        assert!(feasible.score(target) > infeasible.score(target));
        // ...and infeasible configs still order by violation depth.
        let worse = slo(1_000_000.0, 1_000_000, 0, 500_000_000);
        assert!(infeasible.score(target) > worse.score(target));
    }

    #[test]
    fn slo_kpi_rejections_are_misses() {
        // 5% rejected: the window violates any finite target even though the
        // measured p99 of the requests it deigned to serve looks great.
        let shedding = slo(10_000.0, 10_000, 500, 10_000);
        assert_eq!(shedding.effective_p99(), u64::MAX);
        assert!(!shedding.meets(u64::MAX - 1));
        // Within tolerance (≤1%), rejections don't poison the window.
        let ok = slo(10_000.0, 10_000, 100, 10_000);
        assert_eq!(ok.effective_p99(), 10_000);
        assert!(ok.meets(1_000_000));
    }

    #[test]
    fn measurement_throughput_units() {
        let m = Measurement::from_counts(100, 1_000_000_000, false, None);
        assert!((m.throughput - 100.0).abs() < 1e-9);
        let empty = Measurement::from_counts(0, 0, true, None);
        assert_eq!(empty.throughput, 0.0);
    }

    #[test]
    fn running_stats_match_direct_computation() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert_eq!(rs.count(), 8);
        assert!((rs.mean() - 5.0).abs() < 1e-12);
        assert!((rs.std_dev() - 2.0).abs() < 1e-12);
        assert!((rs.cv().unwrap() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn cv_undefined_for_small_samples() {
        let mut rs = RunningStats::new();
        assert_eq!(rs.cv(), None);
        rs.push(3.0);
        assert_eq!(rs.cv(), None);
        rs.push(3.0);
        assert_eq!(rs.cv(), Some(0.0));
    }

    #[test]
    fn reset_clears() {
        let mut rs = RunningStats::new();
        rs.push(1.0);
        rs.push(2.0);
        rs.reset();
        assert_eq!(rs.count(), 0);
        assert_eq!(rs.mean(), 0.0);
    }
}
