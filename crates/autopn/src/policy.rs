//! Co-tuning a discrete [`Axis`] with `(t, c)` by exhaustive sweep.
//!
//! [`sweep_axis`] runs one *full* tuning session per level of the axis —
//! fresh tuner and fresh monitor each time, since AutoPN keeps no
//! cross-workload knowledge by design (§V-B) and a knob switch is a workload
//! change from the monitor's perspective — and picks the `(level, t, c)`
//! triple with the best measured throughput. It is the baseline the
//! in-model co-tuner (the axis folded into the [`crate::ConfigSpace`]) is
//! measured against.

use crate::controller::{Controller, TunableSystem, TuneOptions, TuningOutcome};
use crate::monitor::MonitorPolicy;
use crate::optimizer::Tuner;
use crate::space::{Axis, Config};
use pnstm::TraceBus;

/// Outcome of an `{axis level} × (t, c)` sweep: every per-level session,
/// plus the winning triple (re-applied to the system before returning).
#[derive(Debug, Clone)]
pub struct AxisSweepOutcome {
    /// One completed tuning session per axis level, in ladder order.
    pub sessions: Vec<TuningOutcome>,
    /// The level of the winning session.
    pub best_level: usize,
    /// The winning session's best `(t, c)`.
    pub best: Config,
    /// Its measured throughput.
    pub best_throughput: f64,
    /// Any per-level session degraded (see [`TuningOutcome::degraded`]).
    pub degraded: bool,
}

/// Run one `(t, c)` tuning session per level of `axis` and leave the system
/// on the best `(level, t, c)`; ties go to the lower level.
///
/// `set(value, level)` enacts a level on the tuned system — the same shape
/// as an [`crate::AxisRegistry::bind`] setter (live STM policy:
/// `|v, _| stm.set_cm_mode(CmMode::from_index(v as usize).unwrap())`).
/// `make_tuner` / `make_monitor` build a fresh optimizer and measurement
/// policy per session, given the level.
pub fn sweep_axis(
    system: &mut dyn TunableSystem,
    axis: &Axis,
    set: &mut dyn FnMut(u32, usize),
    make_tuner: &mut dyn FnMut(usize) -> Box<dyn Tuner>,
    make_monitor: &mut dyn FnMut(usize) -> Box<dyn MonitorPolicy>,
    trace: &TraceBus,
    opts: &TuneOptions,
) -> AxisSweepOutcome {
    let mut sessions: Vec<TuningOutcome> = Vec::with_capacity(axis.len());
    let mut degraded = false;
    for level in 0..axis.len() {
        set(axis.value_at(level), level);
        let mut tuner = make_tuner(level);
        let mut monitor = make_monitor(level);
        let outcome =
            Controller::tune_traced_with(system, tuner.as_mut(), monitor.as_mut(), trace, opts);
        degraded |= outcome.degraded;
        sessions.push(outcome);
    }
    let best_level = (1..sessions.len()).fold(0, |a, b| {
        if sessions[b].best_throughput > sessions[a].best_throughput {
            b
        } else {
            a
        }
    });
    let (best, best_throughput) = (sessions[best_level].best, sessions[best_level].best_throughput);
    // Each session parks the system on its own best; re-enact the winning
    // point now that the whole sweep has finished. Best effort, as with the
    // controller's own fallback path: a veto here leaves the last session's
    // configuration in force.
    set(axis.value_at(best_level), best_level);
    if system.try_apply(best).is_err() {
        degraded = true;
    }
    AxisSweepOutcome { sessions, best_level, best, best_throughput, degraded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::AdaptiveMonitor;
    use crate::optimizer::{AutoPn, AutoPnConfig};
    use crate::space::SearchSpace;
    use pnstm::CmMode;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Deterministic fake: commit period depends on `(t, c)` *and* on the
    /// currently enacted policy (Karma is the clear winner, Greedy the clear
    /// loser), with the optimum at (6, 2) in all cases.
    struct PolicyFakeSystem {
        now: u64,
        period_ns: u64,
        cfg: Config,
        policy_idx: Arc<AtomicUsize>,
    }

    impl PolicyFakeSystem {
        fn policy_penalty(idx: usize) -> u64 {
            match CmMode::from_index(idx).expect("cm level") {
                CmMode::ExpBackoff => 200_000,
                CmMode::Karma => 0,
                CmMode::Greedy => 300_000,
                other => unreachable!("{other} is not a shipped policy"),
            }
        }
        fn period_for(cfg: Config, idx: usize) -> u64 {
            let penalty =
                (cfg.t as f64 - 6.0).powi(2) * 40_000.0 + (cfg.c as f64 - 2.0).powi(2) * 90_000.0;
            (200_000.0 + penalty) as u64 + Self::policy_penalty(idx)
        }
        fn refresh(&mut self) {
            self.period_ns = Self::period_for(self.cfg, self.policy_idx.load(Ordering::Relaxed));
        }
    }

    impl TunableSystem for PolicyFakeSystem {
        fn apply(&mut self, cfg: Config) {
            self.cfg = cfg;
            self.refresh();
        }
        fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
            self.refresh();
            if self.period_ns <= max_wait_ns {
                self.now += self.period_ns;
                Some(self.now)
            } else {
                self.now += max_wait_ns;
                None
            }
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
    }

    #[test]
    fn sweep_finds_the_best_policy_and_config() {
        let policy_idx = Arc::new(AtomicUsize::new(0));
        let mut sys = PolicyFakeSystem {
            now: 0,
            period_ns: 1_000_000,
            cfg: Config::new(1, 1),
            policy_idx: Arc::clone(&policy_idx),
        };
        let knob = Arc::clone(&policy_idx);
        let outcome = sweep_axis(
            &mut sys,
            &Axis::cm_policy(),
            &mut |value, _| knob.store(value as usize, Ordering::Relaxed),
            &mut |_| Box::new(AutoPn::new(SearchSpace::new(16), AutoPnConfig::default())),
            &mut |_| Box::new(AdaptiveMonitor::default()),
            &TraceBus::default(),
            &TuneOptions::default(),
        );
        assert_eq!(outcome.sessions.len(), 3, "one full session per policy");
        assert_eq!(CmMode::from_index(outcome.best_level), Some(CmMode::Karma));
        assert!(
            (outcome.best.t as i64 - 6).abs() <= 1 && (outcome.best.c as i64 - 2).abs() <= 1,
            "best {} too far from (6,2)",
            outcome.best
        );
        assert!(!outcome.degraded);
        // The system was left on the winning triple.
        assert_eq!(
            policy_idx.load(Ordering::Relaxed),
            CmMode::Karma.index(),
            "karma re-enacted after the sweep"
        );
        assert_eq!(sys.cfg, outcome.best);
        // Throughputs actually separate the policies as constructed.
        let tp = |m: CmMode| outcome.sessions[m.index()].best_throughput;
        assert!(tp(CmMode::Karma) > tp(CmMode::ExpBackoff));
        assert!(tp(CmMode::ExpBackoff) > tp(CmMode::Greedy));
    }

    /// Deterministic fake for the GC-budget axis: commit period is parabolic
    /// in the enacted slice budget with the optimum at 128 boxes, on top of
    /// the usual `(t, c)` bowl at (6, 2).
    struct BudgetFakeSystem {
        now: u64,
        cfg: Config,
        budget: Arc<AtomicUsize>,
    }

    impl BudgetFakeSystem {
        fn period(&self) -> u64 {
            let cfg = self.cfg;
            let bowl =
                (cfg.t as f64 - 6.0).powi(2) * 40_000.0 + (cfg.c as f64 - 2.0).powi(2) * 90_000.0;
            let b = self.budget.load(Ordering::Relaxed) as f64;
            let budget_penalty = (b.log2() - 7.0).powi(2) * 150_000.0;
            (200_000.0 + bowl + budget_penalty) as u64
        }
    }

    impl TunableSystem for BudgetFakeSystem {
        fn apply(&mut self, cfg: Config) {
            self.cfg = cfg;
        }
        fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
            let period = self.period();
            if period <= max_wait_ns {
                self.now += period;
                Some(self.now)
            } else {
                self.now += max_wait_ns;
                None
            }
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
    }

    #[test]
    fn gc_budget_sweep_finds_the_best_budget() {
        let axis = Axis::gc_budget();
        let budget = Arc::new(AtomicUsize::new(axis.value_at(axis.default_level()) as usize));
        let mut sys =
            BudgetFakeSystem { now: 0, cfg: Config::new(1, 1), budget: Arc::clone(&budget) };
        let knob = Arc::clone(&budget);
        let outcome = sweep_axis(
            &mut sys,
            &axis,
            &mut |value, _| knob.store(value as usize, Ordering::Relaxed),
            &mut |_| Box::new(AutoPn::new(SearchSpace::new(16), AutoPnConfig::default())),
            &mut |_| Box::new(AdaptiveMonitor::default()),
            &TraceBus::default(),
            &TuneOptions::default(),
        );
        assert_eq!(outcome.sessions.len(), axis.len(), "one full session per level");
        assert_eq!(axis.value_at(outcome.best_level), 128);
        assert_eq!(budget.load(Ordering::Relaxed), 128, "winner re-enacted after the sweep");
        assert!(
            (outcome.best.t as i64 - 6).abs() <= 1 && (outcome.best.c as i64 - 2).abs() <= 1,
            "best {} too far from (6,2)",
            outcome.best
        );
        let tp = |b: u32| outcome.sessions[axis.level_of_value(b).unwrap()].best_throughput;
        assert!(tp(128) > tp(32));
    }

    /// Deterministic fake for the block-size axis: commit period is
    /// parabolic in log2(block size) with the optimum at 256 txns (the
    /// ladder midpoint), on top of the usual `(t, c)` bowl at (6, 2) —
    /// modelling the amortisation-vs-conflict-window trade-off.
    struct BlockFakeSystem {
        now: u64,
        cfg: Config,
        block: Arc<AtomicUsize>,
    }

    impl BlockFakeSystem {
        fn period(&self) -> u64 {
            let cfg = self.cfg;
            let bowl =
                (cfg.t as f64 - 6.0).powi(2) * 40_000.0 + (cfg.c as f64 - 2.0).powi(2) * 90_000.0;
            let b = self.block.load(Ordering::Relaxed) as f64;
            let block_penalty = (b.log2() - 8.0).powi(2) * 150_000.0;
            (200_000.0 + bowl + block_penalty) as u64
        }
    }

    impl TunableSystem for BlockFakeSystem {
        fn apply(&mut self, cfg: Config) {
            self.cfg = cfg;
        }
        fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
            let period = self.period();
            if period <= max_wait_ns {
                self.now += period;
                Some(self.now)
            } else {
                self.now += max_wait_ns;
                None
            }
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
    }

    #[test]
    fn block_size_sweep_finds_the_best_size() {
        let axis = Axis::block_size();
        let block = Arc::new(AtomicUsize::new(axis.value_at(axis.default_level()) as usize));
        let mut sys = BlockFakeSystem { now: 0, cfg: Config::new(1, 1), block: Arc::clone(&block) };
        let knob = Arc::clone(&block);
        let outcome = sweep_axis(
            &mut sys,
            &axis,
            &mut |value, _| knob.store(value as usize, Ordering::Relaxed),
            &mut |_| Box::new(AutoPn::new(SearchSpace::new(16), AutoPnConfig::default())),
            &mut |_| Box::new(AdaptiveMonitor::default()),
            &TraceBus::default(),
            &TuneOptions::default(),
        );
        assert_eq!(outcome.sessions.len(), axis.len(), "one full session per level");
        assert_eq!(axis.value_at(outcome.best_level), 256);
        assert_eq!(block.load(Ordering::Relaxed), 256, "winner re-enacted after the sweep");
        assert!(
            (outcome.best.t as i64 - 6).abs() <= 1 && (outcome.best.c as i64 - 2).abs() <= 1,
            "best {} too far from (6,2)",
            outcome.best
        );
        let tp = |b: u32| outcome.sessions[axis.level_of_value(b).unwrap()].best_throughput;
        assert!(tp(256) > tp(64));
    }
}
