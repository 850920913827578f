//! The actuator: applying configurations to a running system (§VI) —
//! [`PnstmActuator`] for a live [`pnstm::Stm`].

use std::time::{Duration, Instant};

use crate::controller::ApplyError;
use crate::space::Config;

/// The one place that knows how a [`Config`] maps onto a live
/// [`pnstm::Stm`]: the `(t, c)` admission throttle, then the shared
/// child-task scheduler — mirroring the paper's transparent interception of
/// transaction begins. Live [`crate::TunableSystem`]s hold one and add only
/// their own commit-stream flush.
///
/// The "ad-hoc API" of §VI — letting applications query the tuned optimum —
/// is [`PnstmActuator::current`] plus [`pnstm::Stm::degree`] on the wrapped
/// instance.
pub struct PnstmActuator {
    stm: pnstm::Stm,
}

/// Worker-thread demand of a `(t, c)` configuration: `t` trees, each with
/// the parent as one executor plus up to `c - 1` pool helpers.
pub fn helper_demand(cfg: Config) -> usize {
    cfg.t * cfg.c.saturating_sub(1)
}

impl PnstmActuator {
    pub fn new(stm: pnstm::Stm) -> Self {
        Self { stm }
    }

    /// Access the wrapped STM.
    pub fn stm(&self) -> &pnstm::Stm {
        &self.stm
    }

    /// Apply `cfg` unconditionally: running transactions finish under their
    /// old admission, new ones observe the new limits. Controller flows use
    /// [`PnstmActuator::try_apply`].
    pub fn apply(&mut self, cfg: Config) {
        self.stm.set_degree(cfg.into());
        self.stm.resize_pool(helper_demand(cfg));
    }

    /// Fallibly apply `cfg`: degree, then pool. The degree switch is the
    /// veto point (reconfig-fail fault site). The scheduler is reprovisioned
    /// only after the switch succeeds, so a veto leaves the worker pool as
    /// it was.
    pub fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        self.stm.try_set_degree(cfg.into()).map_err(|err| ApplyError::new(err.to_string()))?;
        self.stm.resize_pool(helper_demand(cfg));
        Ok(())
    }

    /// The configuration currently in force.
    pub fn current(&self) -> Config {
        let d = self.stm.degree();
        Config::new(d.top_level, d.nested_per_tree)
    }

    /// Wait until as many top-level commits as there were admitted
    /// transactions have passed — every transaction admitted under the
    /// previous configuration has finished — capped at 100 ms.
    pub fn quiesce(&self) {
        let in_flight = self.stm.throttle().top_level_in_use() as u64;
        let target = self.stm.stats().snapshot().top_commits + in_flight;
        let deadline = Instant::now() + Duration::from_millis(100);
        while self.stm.stats().snapshot().top_commits < target && Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnstm::{Stm, StmConfig};

    #[test]
    fn applies_to_live_stm() {
        let stm = Stm::new(StmConfig::default());
        let mut act = PnstmActuator::new(stm.clone());
        act.apply(Config::new(7, 3));
        assert_eq!(act.current(), Config::new(7, 3));
        assert_eq!(stm.degree(), pnstm::ParallelismDegree::new(7, 3));
    }

    #[test]
    fn reapplication_is_idempotent() {
        let stm = Stm::new(StmConfig::default());
        let mut act = PnstmActuator::new(stm);
        act.apply(Config::new(2, 2));
        act.apply(Config::new(2, 2));
        assert_eq!(act.current(), Config::new(2, 2));
    }

    #[test]
    fn try_apply_sets_degree_then_pool() {
        let stm = Stm::new(StmConfig { worker_threads: 1, ..StmConfig::default() });
        let mut act = PnstmActuator::new(stm.clone());
        act.try_apply(Config::new(2, 3)).unwrap();
        assert_eq!(act.current(), Config::new(2, 3));
        assert_eq!(stm.pool_size(), 4);
    }

    #[test]
    fn vetoed_degree_leaves_degree_and_pool_in_place() {
        use pnstm::{FaultKind, FaultPlan, FaultRule};
        let plan =
            FaultPlan::new(5).with_rule(FaultKind::ReconfigFail, FaultRule::with_probability(1.0));
        let stm = Stm::new(StmConfig {
            worker_threads: 1,
            fault: Some(std::sync::Arc::new(plan)),
            ..StmConfig::default()
        });
        let mut act = PnstmActuator::new(stm.clone());
        act.apply(Config::new(2, 2)); // the unconditional path is not a veto site
        assert!(act.try_apply(Config::new(4, 3)).is_err());
        assert_eq!(act.current(), Config::new(2, 2));
        assert_eq!(stm.pool_size(), 2);
        act.quiesce(); // nothing in flight: returns at once
    }

    #[test]
    fn apply_reprovisions_the_scheduler() {
        assert_eq!(helper_demand(Config::new(4, 3)), 8);
        assert_eq!(helper_demand(Config::new(8, 1)), 0, "c=1 needs no helpers");
        let stm = Stm::new(StmConfig { worker_threads: 1, ..StmConfig::default() });
        let mut act = PnstmActuator::new(stm.clone());
        act.apply(Config::new(2, 3));
        assert_eq!(stm.pool_size(), 4, "pool retargeted to t*(c-1)");
        act.apply(Config::new(2, 1));
        assert_eq!(stm.pool_size(), 0);
    }
}
