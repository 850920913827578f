//! Chaos harness for the control plane: wrap any [`TunableSystem`] in a
//! deterministic [`FaultPlan`] so tuning sessions can be driven through
//! reconfiguration failures, swallowed commits and clock jitter without
//! touching the wrapped system — the simulator-side twin of the fault sites
//! compiled into the live `pnstm` runtime.
//!
//! The wrapper consults the plan at three sites:
//!
//! * [`FaultKind::ReconfigFail`] — `try_apply` returns an [`ApplyError`]
//!   without applying (exercises the controller's retry/fallback ladder).
//! * [`FaultKind::AdmissionStall`] — `wait_commit` swallows a delivered
//!   commit and reports a timeout instead (starves measurement windows).
//! * [`FaultKind::ClockJitter`] — commit timestamps are perturbed by the
//!   rule's bounded jitter (pathological measurement streams).
//!
//! Fault decisions are pure functions of `(seed, site, consult index)`, and
//! every injection is stamped with the *wrapped system's* clock (via
//! [`FaultCtx::inject_at`]), so a virtual-time system produces byte-identical
//! `fault_injected` trace streams run after run — the property the chaos
//! proptests pin down.

use crate::controller::{ApplyError, TunableSystem};
use crate::space::Config;
use pnstm::{FaultCtx, FaultKind, FaultPlan, TraceBus};
use std::sync::Arc;

/// A [`TunableSystem`] decorator that injects control-plane faults from a
/// deterministic [`FaultPlan`].
pub struct FaultyTunable<S> {
    inner: S,
    fault: FaultCtx,
}

impl<S: TunableSystem> FaultyTunable<S> {
    /// Wrap `inner`, consulting `plan` at each control-plane site and
    /// publishing injections on `trace`.
    pub fn new(inner: S, plan: Arc<FaultPlan>, trace: TraceBus) -> Self {
        Self { inner, fault: FaultCtx::new(Some(plan), trace) }
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The fault context (e.g. to read injection counters via
    /// [`FaultCtx::plan`]).
    pub fn fault_ctx(&self) -> &FaultCtx {
        &self.fault
    }
}

impl<S: TunableSystem> TunableSystem for FaultyTunable<S> {
    fn apply(&mut self, cfg: Config) {
        self.inner.apply(cfg);
    }

    fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        if let Some(action) = self.fault.inject_at(FaultKind::ReconfigFail, self.inner.now_ns()) {
            return Err(ApplyError::new(format!(
                "injected reconfiguration failure #{}",
                action.seq
            )));
        }
        self.inner.try_apply(cfg)
    }

    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        let ts = self.inner.wait_commit(max_wait_ns)?;
        if self.fault.inject_at(FaultKind::AdmissionStall, ts).is_some() {
            // Swallow the commit: the monitor sees a silent window tick.
            return None;
        }
        if let Some(action) = self.fault.inject_at(FaultKind::ClockJitter, ts) {
            return Some(ts.saturating_add_signed(action.signed_jitter_ns()));
        }
        Some(ts)
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }

    fn quiesce(&mut self) {
        self.inner.quiesce();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnstm::FaultRule;

    /// Deterministic inner system: one commit per millisecond of virtual
    /// time.
    struct Metronome {
        now: u64,
    }

    impl TunableSystem for Metronome {
        fn apply(&mut self, _cfg: Config) {}
        fn wait_commit(&mut self, _max_wait_ns: u64) -> Option<u64> {
            self.now += 1_000_000;
            Some(self.now)
        }
        fn now_ns(&self) -> u64 {
            self.now
        }
    }

    #[test]
    fn reconfig_fail_surfaces_as_apply_error() {
        let plan = Arc::new(
            FaultPlan::new(7)
                .with_rule(FaultKind::ReconfigFail, FaultRule::with_probability(1.0).budget(2)),
        );
        let mut sys = FaultyTunable::new(Metronome { now: 0 }, plan, TraceBus::default());
        assert!(sys.try_apply(Config::new(2, 2)).is_err());
        assert!(sys.try_apply(Config::new(2, 2)).is_err());
        assert!(sys.try_apply(Config::new(2, 2)).is_ok(), "budget spent, applies recover");
    }

    #[test]
    fn admission_stall_swallows_commits() {
        let plan = Arc::new(
            FaultPlan::new(11)
                .with_rule(FaultKind::AdmissionStall, FaultRule::with_probability(1.0).budget(3)),
        );
        let mut sys = FaultyTunable::new(Metronome { now: 0 }, plan.clone(), TraceBus::default());
        let mut delivered = 0;
        for _ in 0..10 {
            if sys.wait_commit(1_000_000).is_some() {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 7, "3 of 10 commits swallowed");
        assert_eq!(plan.injected(FaultKind::AdmissionStall), 3);
    }

    #[test]
    fn clock_jitter_stays_within_rule_bound() {
        let plan = Arc::new(
            FaultPlan::new(13)
                .with_rule(FaultKind::ClockJitter, FaultRule::with_probability(1.0).delay_ns(500)),
        );
        let mut sys = FaultyTunable::new(Metronome { now: 0 }, plan, TraceBus::default());
        for i in 1..=20u64 {
            let ts = sys.wait_commit(1_000_000).expect("jitter never swallows");
            let ideal = i * 1_000_000;
            assert!(ts.abs_diff(ideal) <= 500, "jittered {ts} strays more than 500ns from {ideal}");
        }
    }
}
