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
/// as an [`crate::AxisRegistry::bind`] setter (live STM GC budget:
/// `|v, _| stm.set_gc_slice_boxes(v as usize)`).
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Deterministic fake for a power-of-two axis: commit period is
    /// parabolic in log2 of the enacted value with the optimum at
    /// `2^best_log2`, on top of the usual `(t, c)` bowl at (6, 2) —
    /// modelling e.g. the GC budget's pause-vs-reclaim or the block size's
    /// amortisation-vs-conflict-window trade-off.
    struct LadderFakeSystem {
        now: u64,
        cfg: Config,
        knob: Arc<AtomicUsize>,
        best_log2: f64,
    }

    impl LadderFakeSystem {
        fn period(&self) -> u64 {
            let cfg = self.cfg;
            let bowl =
                (cfg.t as f64 - 6.0).powi(2) * 40_000.0 + (cfg.c as f64 - 2.0).powi(2) * 90_000.0;
            let v = self.knob.load(Ordering::Relaxed) as f64;
            let knob_penalty = (v.log2() - self.best_log2).powi(2) * 150_000.0;
            (200_000.0 + bowl + knob_penalty) as u64
        }
    }

    impl TunableSystem for LadderFakeSystem {
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

    /// Sweep `axis` over a fake whose optimum is `best`; check the sweep
    /// finds it (and (6, 2)), re-enacts it, and beats the `worse` level.
    fn sweep_finds(axis: Axis, best: u32, worse: u32) {
        let knob = Arc::new(AtomicUsize::new(axis.value_at(axis.default_level()) as usize));
        let mut sys = LadderFakeSystem {
            now: 0,
            cfg: Config::new(1, 1),
            knob: Arc::clone(&knob),
            best_log2: (best as f64).log2(),
        };
        let setter = Arc::clone(&knob);
        let outcome = sweep_axis(
            &mut sys,
            &axis,
            &mut |value, _| setter.store(value as usize, Ordering::Relaxed),
            &mut |_| Box::new(AutoPn::new(SearchSpace::new(16), AutoPnConfig::default())),
            &mut |_| Box::new(AdaptiveMonitor::default()),
            &TraceBus::default(),
            &TuneOptions::default(),
        );
        assert_eq!(outcome.sessions.len(), axis.len(), "one full session per level");
        assert_eq!(axis.value_at(outcome.best_level), best);
        assert_eq!(
            knob.load(Ordering::Relaxed),
            best as usize,
            "winner re-enacted after the sweep"
        );
        assert!(
            (outcome.best.t as i64 - 6).abs() <= 1 && (outcome.best.c as i64 - 2).abs() <= 1,
            "best {} too far from (6,2)",
            outcome.best
        );
        assert!(!outcome.degraded);
        assert_eq!(sys.cfg, outcome.best, "the system was left on the winning point");
        let tp = |v: u32| outcome.sessions[axis.level_of_value(v).unwrap()].best_throughput;
        assert!(tp(best) > tp(worse));
    }

    #[test]
    fn gc_budget_sweep_finds_the_best_budget() {
        sweep_finds(Axis::gc_budget(), 128, 32);
    }

    #[test]
    fn block_size_sweep_finds_the_best_size() {
        sweep_finds(Axis::block_size(), 256, 64);
    }
}
