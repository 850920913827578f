//! Simulator descriptors of the paper's 10 workloads (§VII-A): the Array
//! micro-benchmark at 4 write ratios, and TPC-C / Vacation at 3 contention
//! levels each.
//!
//! The parameters are calibrated against the qualitative facts the paper
//! reports for its 48-core testbed (see `EXPERIMENTS.md`):
//! Fig. 1a's TPC-C surface peaks at an interior configuration around
//! `(20, 2)` with ~9× spread between best and worst; the Array
//! high-contention workload prefers minimal inter-transaction parallelism
//! (making the on-average-best static configuration ~3× slower there); the
//! read-only workloads scale to the full machine.

use simtm::{MachineParams, SimWorkload};

/// The paper's evaluation machine: 48 cores.
pub fn paper_machine() -> MachineParams {
    MachineParams::paper_testbed()
}

/// All 10 workloads of §VII-A.
pub fn paper_workloads() -> Vec<SimWorkload> {
    vec![
        array_ro(),
        array_low(),
        array_med(),
        array_high(),
        tpcc_low(),
        tpcc_med(),
        tpcc_high(),
        vacation_low(),
        vacation_med(),
        vacation_high(),
    ]
}

/// Look a workload up by its name.
pub fn workload_by_name(name: &str) -> Option<SimWorkload> {
    paper_workloads().into_iter().find(|w| w.name == name)
}

// ---------------------------------------------------------------------
// Array: transactions scan a 4096-element shared array split into 8
// child-transaction chunks, writing back a fraction of the elements.
// ---------------------------------------------------------------------

fn array_base(name: &str) -> simtm::SimWorkloadBuilder {
    SimWorkload::builder(name)
        .top_work_us(30.0)
        .child_count(8)
        .child_work_us(400.0)
        .spawn_overhead_us(2.0)
        .nested_commit_us(1.5)
        .commit_us(4.0)
        .data_items(4_096)
        .top_footprint(0, 0)
        .duration_cv(0.07)
        .restart_backoff_us(300.0)
}

/// Array, 0% writes: embarrassingly parallel scan.
pub fn array_ro() -> SimWorkload {
    array_base("array-ro").child_footprint(512, 0).build()
}

/// Array, 0.01% writes: near-read-only.
pub fn array_low() -> SimWorkload {
    // 0.0001 × 4096 ≈ 0.4 writes per tree ⇒ ~0 per child; model one write
    // per tree via the top-level footprint.
    array_base("array-low").child_footprint(512, 0).top_footprint(0, 1).build()
}

/// Array, 50% writes: heavy contention (write-back work makes the scan a
/// bit slower than the read-only variant).
pub fn array_med() -> SimWorkload {
    array_base("array-med").child_work_us(430.0).child_footprint(512, 256).build()
}

/// Array, 90% writes: extreme contention — the Fig. 1b-style workload whose
/// optimum is near-minimal `t` — plus the heaviest write-back work.
pub fn array_high() -> SimWorkload {
    array_base("array-high").child_work_us(460.0).child_footprint(512, 460).build()
}

/// Fig. 7a auxiliary workload: a *fast* Array variant committing thousands
/// of transactions per second (short scans). Not part of the 10-workload
/// evaluation set.
pub fn array_fast() -> SimWorkload {
    SimWorkload::builder("array-fast")
        .top_work_us(200.0)
        .child_count(8)
        .child_work_us(800.0)
        .spawn_overhead_us(1.5)
        .nested_commit_us(1.0)
        .commit_us(3.0)
        .data_items(8_192)
        .child_footprint(128, 8)
        .duration_cv(0.10)
        .build()
}

/// Fig. 7a auxiliary workload: a *slow* Array variant committing tens of
/// transactions per second (very long scans) — the kind of workload that
/// needs ~30× longer static monitoring windows (Fig. 7a).
pub fn array_slow() -> SimWorkload {
    SimWorkload::builder("array-slow")
        .top_work_us(500.0)
        .child_count(8)
        .child_work_us(12_000.0)
        .spawn_overhead_us(2.0)
        .nested_commit_us(1.5)
        .commit_us(6.0)
        .data_items(16_384)
        .child_footprint(2_048, 64)
        .duration_cv(0.10)
        .build()
}

// ---------------------------------------------------------------------
// TPC-C: NewOrder-dominated mix; each transaction forks one child per
// order line (10). Contention scales inversely with warehouses.
// ---------------------------------------------------------------------

fn tpcc_base(name: &str) -> simtm::SimWorkloadBuilder {
    SimWorkload::builder(name)
        .top_work_us(60.0)
        .child_count(10)
        .child_work_us(90.0)
        .spawn_overhead_us(2.5)
        // JVSTM nested commits are relatively expensive (per-parent lock +
        // write-set merge) and queue with growing c.
        .nested_commit_us(18.0)
        .commit_us(5.0)
        .top_footprint(12, 4)
        .child_footprint(6, 2)
        // Order lines share district/stock rows within a tree.
        .tree_private_fraction(0.55)
        .duration_cv(0.08)
        .restart_backoff_us(150.0)
}

/// TPC-C, 8 warehouses.
pub fn tpcc_low() -> SimWorkload {
    tpcc_base("tpcc-low").data_items(160_000).hot_set(0.15, 800).build()
}

/// TPC-C, 2 warehouses — the Fig. 1a workload (optimum around `(20, 2)`).
pub fn tpcc_med() -> SimWorkload {
    tpcc_base("tpcc-med").data_items(40_000).hot_set(0.15, 200).build()
}

/// TPC-C, 1 warehouse.
pub fn tpcc_high() -> SimWorkload {
    tpcc_base("tpcc-high").data_items(20_000).hot_set(0.25, 60).build()
}

// ---------------------------------------------------------------------
// Vacation: reservation transactions query batches of items through 4
// children; contention scales inversely with the relation size.
// ---------------------------------------------------------------------

fn vacation_base(name: &str) -> simtm::SimWorkloadBuilder {
    SimWorkload::builder(name)
        .top_work_us(40.0)
        .child_count(4)
        .child_work_us(70.0)
        .spawn_overhead_us(2.0)
        .nested_commit_us(1.2)
        .commit_us(3.5)
        .top_footprint(6, 3)
        .child_footprint(8, 1)
        .duration_cv(0.08)
        .restart_backoff_us(100.0)
}

/// Vacation, large relations.
pub fn vacation_low() -> SimWorkload {
    vacation_base("vacation-low").data_items(120_000).build()
}

/// Vacation, medium relations.
pub fn vacation_med() -> SimWorkload {
    vacation_base("vacation-med").data_items(12_000).build()
}

/// Vacation, small relations with a popular-destination hot set.
pub fn vacation_high() -> SimWorkload {
    vacation_base("vacation-high").data_items(2_400).hot_set(0.3, 80).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtm::Simulation;
    use std::time::Duration;

    #[test]
    fn ten_workloads_with_unique_names() {
        let wls = paper_workloads();
        assert_eq!(wls.len(), 10);
        let names: std::collections::HashSet<&str> = wls.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn lookup_by_name() {
        assert!(workload_by_name("tpcc-med").is_some());
        assert!(workload_by_name("array-high").is_some());
        assert!(workload_by_name("nope").is_none());
    }

    fn p_conflict(wl: SimWorkload) -> f64 {
        wl.conflict_prob_vs(&wl)
    }

    #[test]
    fn contention_ordering_within_families() {
        assert!(p_conflict(tpcc_low()) < p_conflict(tpcc_med()));
        assert!(p_conflict(tpcc_med()) < p_conflict(tpcc_high()));
        assert!(p_conflict(vacation_low()) < p_conflict(vacation_high()));
        assert!(p_conflict(array_low()) < p_conflict(array_med()));
        assert_eq!(p_conflict(array_ro()), 0.0);
    }

    #[test]
    fn all_workloads_simulate() {
        for wl in paper_workloads() {
            let mut sim = Simulation::new(&wl, &paper_machine(), (4, 4), 1);
            let stats = sim.run_for_virtual(Duration::from_millis(60));
            assert!(stats.commits > 0, "{} produced no commits", wl.name);
        }
    }

    #[test]
    fn read_only_array_scales() {
        let wl = array_ro();
        let m = paper_machine();
        let tp = |cfg: (usize, usize)| {
            let mut sim = Simulation::new(&wl, &m, cfg, 7);
            sim.run_for_virtual(Duration::from_millis(300)).throughput()
        };
        assert!(tp((6, 8)) > 4.0 * tp((1, 1)), "array-ro must scale with cores");
    }

    #[test]
    fn array_high_prefers_low_t() {
        let wl = array_high();
        let m = paper_machine();
        let tp = |cfg: (usize, usize)| {
            let mut sim = Simulation::new(&wl, &m, cfg, 7);
            sim.run_for_virtual(Duration::from_millis(300)).throughput()
        };
        assert!(
            tp((2, 8)) > 1.5 * tp((24, 2)),
            "high-contention Array must punish wide top-level parallelism"
        );
    }
}
