//! End-to-end integration on the *live* PN-STM: real threads, wall-clock
//! monitoring, semaphore actuation — the full Fig. 2 architecture.

use std::sync::Arc;

use autopn::monitor::AdaptiveMonitor;
use autopn::{AutoPn, AutoPnConfig, Config, Controller, PnstmActuator, SearchSpace};
use pnstm::{ParallelismDegree, Stm, StmConfig};
use workloads::array::{ArrayParams, ArrayWorkload};
use workloads::vacation::{VacationParams, VacationWorkload};
use workloads::LiveStmSystem;

fn live_stm() -> Stm {
    Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 2,
        ..StmConfig::default()
    })
}

#[test]
fn live_array_tuning_completes_and_preserves_consistency() {
    let stm = live_stm();
    let wl = Arc::new(ArrayWorkload::new(
        &stm,
        "it-array",
        ArrayParams { size: 256, write_fraction: 1.0, chunks: 4 },
    ));
    let checksum_before = wl.checksum(&stm);

    let mut system = LiveStmSystem::start(stm.clone(), wl.clone(), 4).expect("spawn live workers");
    let mut tuner = AutoPn::new(SearchSpace::new(4), AutoPnConfig::default());
    // Loose CV so the test stays fast on tiny CI machines.
    let mut policy = AdaptiveMonitor::new(0.25, 4);
    let outcome = Controller::tune(&mut system, &mut tuner, &mut policy);
    system.shutdown();

    assert!(!outcome.explored.is_empty());
    assert!(SearchSpace::new(4).contains(outcome.best));
    assert_eq!(
        stm.degree(),
        ParallelismDegree::new(outcome.best.t, outcome.best.c),
        "the actuator must leave the chosen configuration applied"
    );
    // write_fraction 1.0: every commit adds exactly `size` to the checksum.
    let commits = stm.stats().snapshot().top_commits as i64;
    assert_eq!(
        wl.checksum(&stm),
        checksum_before + 256 * commits,
        "serializability violated under live tuning"
    );
}

#[test]
fn live_vacation_under_reconfiguration_keeps_invariants() {
    let stm = live_stm();
    let wl = Arc::new(VacationWorkload::new(
        &stm,
        "it-vacation",
        VacationParams { relations: 32, customers: 8, ..VacationParams::default() },
    ));
    let mut system = LiveStmSystem::start(stm.clone(), wl.clone(), 3).expect("spawn live workers");

    // Hammer reconfigurations while transactions fly.
    let mut actuator = PnstmActuator::new(stm.clone());
    for i in 0..20 {
        actuator.apply(Config::new(1 + i % 4, 1 + (i / 2) % 3));
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    system.shutdown();

    wl.manager().check_invariants(&stm).expect("vacation invariants");
    assert!(stm.stats().snapshot().top_commits > 0);
}

#[test]
fn live_commit_stream_feeds_monitor_windows() {
    let stm = live_stm();
    let wl = Arc::new(ArrayWorkload::new(
        &stm,
        "it-stream",
        ArrayParams { size: 64, write_fraction: 0.0, chunks: 2 },
    ));
    let mut system = LiveStmSystem::start(stm.clone(), wl, 2).expect("spawn live workers");
    let mut policy = AdaptiveMonitor::new(0.30, 3);
    let m = Controller::measure(&mut system, &mut policy);
    system.shutdown();
    assert!(m.commits >= 3);
    assert!(m.throughput > 0.0);
    assert!(!m.timed_out);
}
