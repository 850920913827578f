//! The actuator: applying configurations to a running system (§VI) —
//! [`PnstmActuator`] for a live [`pnstm::Stm`], plus the [`AxisRegistry`]
//! that extends actuation to the typed discrete axes of a [`ConfigSpace`].

use std::time::{Duration, Instant};

use crate::controller::ApplyError;
use crate::space::{Axis, Config, ConfigSpace, SearchSpace, MAX_AXES};

/// The one place that knows how a [`Config`] maps onto a live
/// [`pnstm::Stm`]: the discrete axes of an optional [`AxisRegistry`] first,
/// then the `(t, c)` admission throttle, then the shared child-task
/// scheduler — mirroring the paper's transparent interception of
/// transaction begins. Live [`crate::TunableSystem`]s hold one and add only
/// their own commit-stream flush.
///
/// The "ad-hoc API" of §VI — letting applications query the tuned optimum —
/// is [`PnstmActuator::current`] plus [`pnstm::Stm::degree`] on the wrapped
/// instance.
pub struct PnstmActuator {
    stm: pnstm::Stm,
    registry: Option<AxisRegistry>,
}

/// Worker-thread demand of a `(t, c)` configuration: `t` trees, each with
/// the parent as one executor plus up to `c - 1` pool helpers.
pub fn helper_demand(cfg: Config) -> usize {
    cfg.t * cfg.c.saturating_sub(1)
}

impl PnstmActuator {
    pub fn new(stm: pnstm::Stm) -> Self {
        Self { stm, registry: None }
    }

    /// Access the wrapped STM.
    pub fn stm(&self) -> &pnstm::Stm {
        &self.stm
    }

    /// Attach a live axis registry (e.g. [`stm_axis_registry`]): subsequent
    /// applies enact the configuration's discrete-axis levels *before*
    /// switching the degree, so the controller tunes the full N-dimensional
    /// point through the same retry/degradation ladder and the resulting
    /// `Reconfigure` trace events carry the whole point. Hand the tuner
    /// `registry.space(n)` so proposals stay enactable.
    pub fn attach_axes(&mut self, registry: AxisRegistry) {
        self.registry = Some(registry);
    }

    fn enact_axes(&mut self, cfg: Config) -> Result<(), ApplyError> {
        match self.registry.as_mut() {
            Some(reg) => reg.enact_noted(cfg, &self.stm),
            None => Ok(()),
        }
    }

    /// Apply `cfg` unconditionally: running transactions finish under their
    /// old admission, new ones observe the new limits. Axis-setter failures
    /// cannot surface here and are dropped; controller flows use
    /// [`PnstmActuator::try_apply`].
    pub fn apply(&mut self, cfg: Config) {
        let _ = self.enact_axes(cfg);
        self.stm.set_degree(cfg.into());
        self.stm.resize_pool(helper_demand(cfg));
    }

    /// Fallibly apply `cfg`: axes first, degree last. The degree switch is
    /// the veto point (reconfig-fail fault site); if it vetoes after the
    /// axes were enacted, the controller's ladder re-applies the *full*
    /// last-good point — its `Config` carries axis levels too — so the system
    /// converges back to a consistent point. The scheduler is reprovisioned
    /// only after the switch succeeds, so a veto leaves the worker pool as
    /// it was.
    pub fn try_apply(&mut self, cfg: Config) -> Result<(), ApplyError> {
        self.enact_axes(cfg)?;
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

/// One registered live knob: a typed [`Axis`] (the level ladder the model
/// and search see) plus the setter that enacts a chosen level on the
/// running system.
struct AxisBinding {
    axis: Axis,
    set: Box<dyn FnMut(u32, usize) -> Result<(), ApplyError> + Send>,
}

/// A registry of live discrete tuning axes, in actuation == feature order.
///
/// A [`PnstmActuator`] (or the ledger's live system) enacts one in
/// `try_apply`: the axes first, then the parallelism degree, so a full
/// N-dimensional point rides the controller's apply-retry/degradation
/// ladder atomically — an axis failure or degree veto parks the system on
/// the *full* last-good point, because the fallback [`Config`] carries its
/// axis levels and re-applying it re-enacts them.
#[derive(Default)]
pub struct AxisRegistry {
    bindings: Vec<AxisBinding>,
}

impl AxisRegistry {
    pub fn new() -> Self {
        Self { bindings: Vec::new() }
    }

    /// Register `axis`, enacted by `set(raw_value, level_index)` — e.g. the
    /// GC axis receives `(slice_boxes, ladder_index)`. Axes are enacted and
    /// feature-encoded in registration order.
    pub fn bind<F>(mut self, axis: Axis, set: F) -> Self
    where
        F: FnMut(u32, usize) -> Result<(), ApplyError> + Send + 'static,
    {
        assert!(self.bindings.len() < MAX_AXES, "at most {MAX_AXES} axes");
        assert!(
            self.bindings.iter().all(|b| b.axis.name() != axis.name()),
            "axis {} registered twice",
            axis.name()
        );
        self.bindings.push(AxisBinding { axis, set: Box::new(set) });
        self
    }

    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// The registered axes, in actuation order.
    pub fn axes(&self) -> Vec<Axis> {
        self.bindings.iter().map(|b| b.axis.clone()).collect()
    }

    /// The config space these axes span over an `n_cores`-core machine —
    /// what the system hands its tuner so proposals stay enactable.
    pub fn space(&self, n_cores: usize) -> ConfigSpace {
        ConfigSpace::new(SearchSpace::new(n_cores), self.axes())
    }

    /// Level indices `cfg` selects: its own when it carries one level per
    /// registered axis, the defaults when it is a bare `(t, c)` point
    /// (the controller's built-in `Config::new(1, 1)` fallback), an error
    /// on any other arity — a point from a differently-shaped space.
    fn levels_of(&self, cfg: Config) -> Result<Vec<usize>, ApplyError> {
        if cfg.axes.is_empty() {
            return Ok(self.bindings.iter().map(|b| b.axis.default_level()).collect());
        }
        if cfg.axes.len() != self.bindings.len() {
            return Err(ApplyError::new(format!(
                "config carries {} axis levels, registry has {}",
                cfg.axes.len(),
                self.bindings.len()
            )));
        }
        let levels: Vec<usize> = cfg.axes.iter().collect();
        for (b, &l) in self.bindings.iter().zip(&levels) {
            if l >= b.axis.len() {
                return Err(ApplyError::new(format!(
                    "axis {}: level {l} out of range ({} levels)",
                    b.axis.name(),
                    b.axis.len()
                )));
            }
        }
        Ok(levels)
    }

    /// Enact `cfg`'s axis levels in registration order, failing fast on the
    /// first setter error. Setters must be idempotent: the degradation
    /// ladder re-enacts the last-good point on every parked retry.
    pub fn enact(&mut self, cfg: Config) -> Result<(), ApplyError> {
        let levels = self.levels_of(cfg)?;
        for (b, level) in self.bindings.iter_mut().zip(levels) {
            let value = b.axis.value_at(level);
            (b.set)(value, level)?;
        }
        Ok(())
    }

    /// [`AxisRegistry::enact`], then stamp the upcoming `Reconfigure` event
    /// on `stm`'s throttle with the full axis point.
    pub fn enact_noted(&mut self, cfg: Config, stm: &pnstm::Stm) -> Result<(), ApplyError> {
        self.enact(cfg)?;
        stm.throttle().note_axes(self.axes_trace(cfg));
        Ok(())
    }

    /// Trace record of `cfg`'s axis point (defaults for a bare `(t, c)`
    /// point, empty when the arity is wrong) — for stamping `Reconfigure`
    /// events via `pnstm::Throttle::note_axes` before the degree switch.
    pub fn axes_trace(&self, cfg: Config) -> pnstm::AxesTrace {
        let mut out = pnstm::AxesTrace::empty();
        let Ok(levels) = self.levels_of(cfg) else { return out };
        for (b, level) in self.bindings.iter().zip(levels) {
            out.push(b.axis.name(), b.axis.value_at(level));
        }
        out
    }
}

/// The standard live-STM registry: the GC slice budget, the discrete knob
/// switchable on a running [`pnstm::Stm`] without reconstruction.
pub fn stm_axis_registry(stm: &pnstm::Stm) -> AxisRegistry {
    let stm = stm.clone();
    AxisRegistry::new().bind(Axis::gc_budget(), move |value, _| {
        stm.set_gc_slice_boxes(value as usize);
        Ok(())
    })
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
    fn try_apply_enacts_axes_then_degree_then_pool() {
        use crate::space::AxisLevels;
        let stm = Stm::new(StmConfig { worker_threads: 1, ..StmConfig::default() });
        let mut act = PnstmActuator::new(stm.clone());
        act.attach_axes(stm_axis_registry(&stm));
        let gc256 = Axis::gc_budget().level_of_value(256).unwrap();
        act.try_apply(Config::with_axes(2, 3, AxisLevels::from_slice(&[gc256]))).unwrap();
        assert_eq!(stm.gc_slice_boxes(), 256);
        assert_eq!(act.current(), Config::new(2, 3));
        assert_eq!(stm.pool_size(), 4);
        assert_eq!(stm.throttle().noted_axes().get("gc_boxes").unwrap().value, 256);
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
    fn registry_enacts_in_order_and_defaults_bare_points() {
        use std::sync::{Arc, Mutex};
        let log = Arc::new(Mutex::new(Vec::new()));
        let (l1, l2) = (log.clone(), log.clone());
        let mut reg = AxisRegistry::new()
            .bind(Axis::integer("mode", &[1, 2, 3], 1), move |v, l| {
                l1.lock().unwrap().push(("mode", v, l));
                Ok(())
            })
            .bind(Axis::integer_log2("boxes", &[64, 128, 256], 128), move |v, l| {
                l2.lock().unwrap().push(("boxes", v, l));
                Ok(())
            });
        assert_eq!(reg.len(), 2);
        let space = reg.space(8);
        assert_eq!(space.axes().len(), 2);
        assert_eq!(space.dim(), 2 + 1 + 1, "t, c, one feature per axis");

        let cfg = Config::with_axes(2, 3, crate::space::AxisLevels::from_slice(&[2, 0]));
        reg.enact(cfg).unwrap();
        assert_eq!(*log.lock().unwrap(), vec![("mode", 3, 2), ("boxes", 64, 0)]);

        // Bare (t, c) point — the controller's built-in fallback — enacts
        // the defaults.
        log.lock().unwrap().clear();
        reg.enact(Config::new(1, 1)).unwrap();
        assert_eq!(*log.lock().unwrap(), vec![("mode", 1, 0), ("boxes", 128, 1)]);

        // Wrong arity is an apply error, not a silent partial enactment.
        log.lock().unwrap().clear();
        let wrong = Config::with_axes(1, 1, crate::space::AxisLevels::from_slice(&[1]));
        assert!(reg.enact(wrong).is_err());
        assert!(log.lock().unwrap().is_empty());

        let trace = reg.axes_trace(cfg);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.get("mode").unwrap().value, 3);
        assert_eq!(trace.get("boxes").unwrap().value, 64);
    }

    #[test]
    fn registry_setter_failure_propagates() {
        let mut reg = AxisRegistry::new().bind(Axis::integer("flaky", &[0, 1], 0), |_, level| {
            if level == 1 {
                Err(ApplyError::new("boom"))
            } else {
                Ok(())
            }
        });
        let good = Config::with_axes(1, 1, crate::space::AxisLevels::from_slice(&[0]));
        let bad = Config::with_axes(1, 1, crate::space::AxisLevels::from_slice(&[1]));
        assert!(reg.enact(good).is_ok());
        assert!(reg.enact(bad).is_err());
    }

    #[test]
    fn stm_registry_switches_live_knobs() {
        use crate::space::AxisLevels;
        let stm = Stm::new(StmConfig::default());
        let mut reg = stm_axis_registry(&stm);
        let space = reg.space(4);
        assert_eq!(space.axes().len(), 1);

        let gc256 = space.axes()[0].level_of_value(256).unwrap();
        reg.enact(Config::with_axes(2, 2, AxisLevels::from_slice(&[gc256]))).unwrap();
        assert_eq!(stm.gc_slice_boxes(), 256);

        // Re-enacting a bare point restores the default.
        reg.enact(Config::new(1, 1)).unwrap();
        assert_eq!(stm.gc_slice_boxes(), pnstm::MemConfig::default().gc_slice_boxes);
    }

    /// Every level of the GC axis goes through the live registry and reads
    /// back from the STM as its own slice budget.
    #[test]
    fn every_gc_level_round_trips_through_the_stm_registry() {
        use crate::space::AxisLevels;
        let stm = Stm::new(StmConfig::default());
        let mut reg = stm_axis_registry(&stm);
        let gc = Axis::gc_budget();
        assert_eq!(reg.axes(), std::slice::from_ref(&gc));
        for level in 0..gc.len() {
            reg.enact(Config::with_axes(1, 1, AxisLevels::from_slice(&[level]))).unwrap();
            assert_eq!(stm.gc_slice_boxes(), gc.value_at(level) as usize, "level {level}");
        }
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
