//! [`autopn::TunableSystem`] adapter over the [`simtm`] discrete-event
//! simulator: tuning sessions run entirely in virtual time.

use std::time::Duration;

use autopn::{Config, TunableSystem};
use simtm::{MachineParams, SimWorkload, Simulation};

/// A simulated PN-TM machine under tuning.
pub struct SimSystem {
    sim: Simulation,
}

impl SimSystem {
    /// Simulate `workload` on `machine`, starting in configuration `(1, 1)`.
    pub fn new(workload: &SimWorkload, machine: &MachineParams, seed: u64) -> Self {
        Self { sim: Simulation::new(workload, machine, (1, 1), seed) }
    }

    /// Access the underlying simulation (e.g. to read statistics).
    pub fn simulation(&self) -> &Simulation {
        &self.sim
    }

    /// Advance virtual time without waiting for commits (e.g. to warm up a
    /// configuration before measuring).
    pub fn advance(&mut self, d: Duration) -> simtm::RunStats {
        self.sim.run_for_virtual(d)
    }

    /// Shift the simulated application to a different workload (exercises
    /// the change-detection/re-tuning path).
    pub fn switch_workload(&mut self, workload: &SimWorkload) {
        self.sim.set_workload(workload);
    }
}

impl TunableSystem for SimSystem {
    fn apply(&mut self, cfg: Config) {
        self.sim.set_degree(cfg.t, cfg.c);
    }

    fn wait_commit(&mut self, max_wait_ns: u64) -> Option<u64> {
        self.sim.run_until_next_commit(Duration::from_nanos(max_wait_ns))
    }

    fn now_ns(&self) -> u64 {
        self.sim.now_ns()
    }

    fn quiesce(&mut self) {
        // Bound the drain generously; starving configurations are cut off.
        self.sim.quiesce(Duration::from_secs(2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autopn::monitor::AdaptiveMonitor;
    use autopn::{AutoPn, AutoPnConfig, Controller, SearchSpace};

    fn wl() -> SimWorkload {
        SimWorkload::builder("sim-system-test")
            .top_work_us(30.0)
            .child_count(8)
            .child_work_us(80.0)
            .top_footprint(10, 2)
            .child_footprint(20, 4)
            .data_items(20_000)
            .build()
    }

    #[test]
    fn commits_flow_through_adapter() {
        let mut sys = SimSystem::new(&wl(), &MachineParams::new(48), 1);
        sys.apply(Config::new(4, 4));
        let t0 = sys.wait_commit(1_000_000_000).expect("a commit within 1s virtual");
        let t1 = sys.wait_commit(1_000_000_000).expect("another commit");
        assert!(t1 >= t0);
        assert_eq!(sys.now_ns(), t1);
    }

    #[test]
    fn timeout_advances_clock() {
        // A (1,1) config on a slow workload: tiny wait windows time out.
        let slow = SimWorkload::builder("slow").top_work_us(10_000.0).build();
        let mut sys = SimSystem::new(&slow, &MachineParams::new(4), 2);
        let before = sys.now_ns();
        assert!(sys.wait_commit(1_000).is_none());
        assert_eq!(sys.now_ns(), before + 1_000);
    }

    #[test]
    fn end_to_end_tuning_on_simulator() {
        let mut sys = SimSystem::new(&wl(), &MachineParams::new(48), 3);
        let mut tuner = AutoPn::new(SearchSpace::new(48), AutoPnConfig::default());
        let mut policy = AdaptiveMonitor::default();
        let outcome = Controller::tune(&mut sys, &mut tuner, &mut policy);
        assert!(outcome.explored.len() >= 9, "at least the biased sample");
        assert!(outcome.explored.len() < 198, "must not sweep the whole space");
        assert!(outcome.best_throughput > 0.0);
        // The chosen configuration must beat the sequential pivot clearly.
        let t11 = outcome
            .explored
            .iter()
            .find(|(c, _)| *c == Config::new(1, 1))
            .map(|(_, m)| m.throughput)
            .expect("(1,1) is always sampled");
        assert!(
            outcome.best_throughput > 2.0 * t11,
            "best {} vs t11 {t11}",
            outcome.best_throughput
        );
    }
}
