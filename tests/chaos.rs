//! Chaos integration: tuning sessions driven through every fault kind the
//! deterministic fault layer can inject, on the live STM and on the
//! simulator. The contract under test is the degradation ladder's bottom
//! line — a session *always completes* (possibly flagged degraded, never a
//! panic, never a hang) and every injected fault is visible in the trace.

use std::sync::Arc;
use std::time::{Duration, Instant};

use autopn::monitor::AdaptiveMonitor;
use autopn::{
    AutoPn, AutoPnConfig, Controller, FaultKind, FaultPlan, FaultRule, FaultyTunable, SearchSpace,
    TuneOptions,
};
use pnstm::trace::TraceEvent;
use pnstm::{
    stripe_of, CmMode, MemConfig, Oracle, ParallelismDegree, Stm, StmConfig, StmError, TestSink,
    TraceBus,
};
use proptest::prelude::*;
use simtm::{MachineParams, SimWorkload};
use std::sync::atomic::{AtomicBool, Ordering};
use workloads::array::{ArrayParams, ArrayWorkload};
use workloads::{LiveStmSystem, SimSystem};

/// Run one live tuning session with `plan` armed inside the STM (shipped
/// execution layer) and return (the trace, injections of `kind`, whether the
/// session reported degraded).
fn live_tune_under(plan: FaultPlan, kind: FaultKind) -> (Vec<TraceEvent>, u64, bool) {
    live_tune_under_sched(plan, kind, None)
}

/// [`live_tune_under`] with an optional retired rung: the chaos contract
/// (sessions complete, every injection traced, shutdown bounded) must hold
/// under both execution layers, so the `_mutex_oracle` variants rerun the
/// scheduler-sensitive plans on [`Oracle::MutexSched`].
fn live_tune_under_sched(
    plan: FaultPlan,
    kind: FaultKind,
    oracle: Option<Oracle>,
) -> (Vec<TraceEvent>, u64, bool) {
    let plan = Arc::new(plan);
    let config = StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 2,
        fault: Some(plan.clone()),
        ..StmConfig::default()
    };
    let stm = Stm::with_oracle(config, oracle);
    let sink = Arc::new(TestSink::default());
    let trace = stm.trace_bus().clone();
    trace.subscribe(sink.clone());
    let wl = Arc::new(ArrayWorkload::new(
        &stm,
        "chaos-array",
        ArrayParams { size: 128, write_fraction: 0.5, chunks: 4 },
    ));
    let mut system = LiveStmSystem::start(stm.clone(), wl, 3).expect("spawn live workers");
    let mut tuner = AutoPn::new(SearchSpace::new(4), AutoPnConfig::default());
    let mut policy = AdaptiveMonitor::new(0.30, 3);
    let opts = TuneOptions { apply_backoff: Duration::from_micros(50), ..TuneOptions::default() };
    let outcome = Controller::tune_traced_with(&mut system, &mut tuner, &mut policy, &trace, &opts);
    system.shutdown();
    assert!(
        !outcome.explored.is_empty() || outcome.best_throughput == 0.0,
        "session must end with either observations or an explicit fallback"
    );
    (sink.events(), plan.injected(kind), outcome.degraded)
}

fn count_injected(events: &[TraceEvent], kind: FaultKind) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, TraceEvent::FaultInjected { kind: k, .. } if *k == kind))
        .count() as u64
}

#[test]
fn tuning_completes_under_validation_aborts() {
    let kind = FaultKind::ValidationAbort;
    let plan = FaultPlan::new(42).with_rule(kind, FaultRule::with_probability(0.3).budget(400));
    let (events, injected, _) = live_tune_under(plan, kind);
    assert!(injected > 0, "no validation aborts were injected");
    assert_eq!(count_injected(&events, kind), injected, "every injection is traced");
}

#[test]
fn tuning_completes_under_commit_stripe_holds() {
    // CommitHold now stalls a committer while it holds its write-set stripe
    // locks (not a global lock); the tuning session must still complete and
    // trace every injection.
    let kind = FaultKind::CommitHold;
    let plan = FaultPlan::new(43)
        .with_rule(kind, FaultRule::with_probability(0.3).delay_ns(500_000).budget(300));
    let (events, injected, _) = live_tune_under(plan, kind);
    assert!(injected > 0, "no commit holds were injected");
    assert_eq!(count_injected(&events, kind), injected);
}

#[test]
fn stalled_stripe_does_not_block_disjoint_commits() {
    // Exactly one seeded stall (p = 1, budget 1): the first committer to
    // reach the fault site sleeps 1.5 s while holding only its own stripe
    // locks. Commits whose write sets live on other stripes must keep
    // flowing while it sleeps — under the old global commit lock they would
    // all queue behind the stall.
    let plan = Arc::new(FaultPlan::new(50).with_rule(
        FaultKind::CommitHold,
        FaultRule::with_probability(1.0).delay_ns(1_500_000_000).budget(1),
    ));
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(4, 1),
        worker_threads: 2,
        fault: Some(plan.clone()),
        ..StmConfig::default()
    });
    let victim_box = stm.new_vbox(0i64);
    let victim_stripe = stripe_of(victim_box.id());
    // Boxes on provably different stripes from the victim's.
    let mut disjoint = Vec::new();
    while disjoint.len() < 4 {
        let b = stm.new_vbox(0i64);
        if stripe_of(b.id()) != victim_stripe {
            disjoint.push(b);
        }
    }
    let victim_done = Arc::new(AtomicBool::new(false));
    let victim = {
        let stm = stm.clone();
        let b = victim_box.clone();
        let done = Arc::clone(&victim_done);
        std::thread::spawn(move || {
            stm.atomic({
                let b = b.clone();
                move |tx| {
                    tx.write(&b, 1);
                    Ok(())
                }
            })
            .expect("stalled commit still completes");
            done.store(true, Ordering::Release);
        })
    };
    // The injection is recorded before the sleep starts, so once it is
    // visible the victim is holding its stripe locks.
    let start = Instant::now();
    while plan.injected(FaultKind::CommitHold) == 0 {
        assert!(start.elapsed() < Duration::from_secs(5), "victim never reached the fault site");
        std::thread::yield_now();
    }
    for i in 0..100 {
        let b = disjoint[i % disjoint.len()].clone();
        stm.atomic(move |tx| {
            let v = tx.read(&b);
            tx.write(&b, v + 1);
            Ok(())
        })
        .expect("disjoint-stripe commit");
    }
    assert!(
        !victim_done.load(Ordering::Acquire),
        "100 disjoint-stripe commits outlasted a 1.5s single-stripe stall: \
         commits are serializing behind the stalled stripe"
    );
    victim.join().unwrap();
    assert_eq!(stm.read_atomic(&victim_box), 1, "the stalled commit itself lands");
    let sum: i64 = disjoint.iter().map(|b| stm.read_atomic(b)).sum();
    assert_eq!(sum, 100);
}

#[test]
fn shutdown_is_bounded_under_stripe_holds() {
    // Every commit attempt stalls 2 ms on its stripe locks, up to a 400-
    // injection budget: the system crawls but must not wedge — shutdown
    // completes promptly and in-flight stalled commits drain. The budget
    // keeps this focused on the shutdown property: under the Immediate CM
    // (pinned here), unbounded holds inflate the conflict window enough to
    // livelock retrying writers against each other. That livelock is a
    // contention-management property with its own regression coverage —
    // `tests/contention.rs` pins it with a dedicated two-writer
    // disjoint-stripe storm (seed 97, unbudgeted p = 1.0 holds of 1 ms,
    // overlapping read sets) and shows it draining under the ExpBackoff
    // and Greedy rungs, where this test keeps its budget and the Immediate
    // CM to stay a pure shutdown check.
    let plan = Arc::new(FaultPlan::new(51).with_rule(
        FaultKind::CommitHold,
        FaultRule::with_probability(1.0).delay_ns(2_000_000).budget(400),
    ));
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 2,
        fault: Some(plan),
        cm_mode: CmMode::Immediate,
        ..StmConfig::default()
    });
    let wl = Arc::new(ArrayWorkload::new(
        &stm,
        "chaos-stripe-shutdown",
        ArrayParams { size: 64, write_fraction: 0.5, chunks: 2 },
    ));
    let mut system = LiveStmSystem::start(stm.clone(), wl, 4).expect("spawn live workers");
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    system.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with commits stalling on stripe holds",
        start.elapsed()
    );
    // No stripe lock was leaked by the shutdown race: fresh commits flow.
    let cell = stm.new_vbox(0i32);
    stm.atomic({
        let cell = cell.clone();
        move |tx| {
            tx.write(&cell, 1);
            Ok(())
        }
    })
    .expect("STM usable after shutdown");
    assert_eq!(stm.read_atomic(&cell), 1);
}

#[test]
fn tuning_completes_under_child_stalls() {
    let kind = FaultKind::ChildStall;
    let plan = FaultPlan::new(44)
        .with_rule(kind, FaultRule::with_probability(0.3).delay_ns(200_000).budget(400));
    let (events, injected, _) = live_tune_under(plan, kind);
    assert!(injected > 0, "no child stalls were injected");
    assert_eq!(count_injected(&events, kind), injected);
}

#[test]
fn tuning_completes_under_admission_stalls() {
    let kind = FaultKind::AdmissionStall;
    let plan = FaultPlan::new(45)
        .with_rule(kind, FaultRule::with_probability(0.4).delay_ns(500_000).budget(300));
    let (events, injected, _) = live_tune_under(plan, kind);
    assert!(injected > 0, "no admission stalls were injected");
    assert_eq!(count_injected(&events, kind), injected);
}

#[test]
fn tuning_completes_under_child_stalls_mutex_oracle() {
    // Same plan as the shipped work-stealing variant, but the stall now
    // lands *inside* the mutex pool's queue critical section instead of
    // after the lock-free claim in `ws_run_task`. The chaos contract is
    // unchanged: the session completes and every injection is traced.
    let kind = FaultKind::ChildStall;
    let plan = FaultPlan::new(44)
        .with_rule(kind, FaultRule::with_probability(0.3).delay_ns(200_000).budget(400));
    let (events, injected, _) = live_tune_under_sched(plan, kind, Some(Oracle::MutexSched));
    assert!(injected > 0, "no child stalls were injected");
    assert_eq!(count_injected(&events, kind), injected);
}

#[test]
fn tuning_completes_under_admission_stalls_mutex_oracle() {
    // Admission here is the semaphore mutex rather than the packed-gate CAS
    // path; the stall site in `Stm::atomic` is scheduler-independent.
    let kind = FaultKind::AdmissionStall;
    let plan = FaultPlan::new(45)
        .with_rule(kind, FaultRule::with_probability(0.4).delay_ns(500_000).budget(300));
    let (events, injected, _) = live_tune_under_sched(plan, kind, Some(Oracle::MutexSched));
    assert!(injected > 0, "no admission stalls were injected");
    assert_eq!(count_injected(&events, kind), injected);
}

#[test]
fn tuning_completes_under_worker_panics() {
    let kind = FaultKind::WorkerPanic;
    // Low probability + the default restart budget: workers keep being
    // restarted, commits keep flowing, the session completes.
    let plan = FaultPlan::new(46).with_rule(kind, FaultRule::with_probability(0.05).budget(40));
    let (events, injected, _) = live_tune_under(plan, kind);
    assert!(injected > 0, "no worker panics were injected");
    // Every injected panic was absorbed by supervision and traced.
    let absorbed =
        events.iter().filter(|e| matches!(e, TraceEvent::WorkerPanicked { .. })).count() as u64;
    assert_eq!(absorbed, injected, "each injected panic is absorbed and traced");
}

#[test]
fn tuning_completes_under_clock_jitter() {
    let kind = FaultKind::ClockJitter;
    let plan = FaultPlan::new(47)
        .with_rule(kind, FaultRule::with_probability(0.5).delay_ns(2_000_000).budget(500));
    let (events, injected, _) = live_tune_under(plan, kind);
    assert!(injected > 0, "no clock jitter was injected");
    assert_eq!(count_injected(&events, kind), injected);
}

#[test]
fn tuning_completes_under_reconfig_failures() {
    let kind = FaultKind::ReconfigFail;
    let plan = FaultPlan::new(48).with_rule(kind, FaultRule::with_probability(0.5).budget(10));
    let (events, injected, degraded) = live_tune_under(plan, kind);
    assert!(injected > 0, "no reconfiguration failures were injected");
    // Either every failed apply recovered on retry, or the ladder reached the
    // fallback rung and the session says so.
    let fell_back = events.iter().any(|e| matches!(e, TraceEvent::ApplyDegraded { .. }));
    assert!(!fell_back || degraded, "a fallback must flag the session degraded");
    // The session closed its trace (later runtime events — in-flight commits
    // racing shutdown — may legitimately follow on the shared bus).
    assert!(
        events.iter().any(|e| matches!(e, TraceEvent::SessionEnd { .. })),
        "session must close its trace"
    );
}

#[test]
fn shutdown_is_bounded_while_admission_is_starved() {
    // t = 1 with 4 workers: three workers are permanently parked on the
    // admission gate, and an aggressive stall plan slows the fourth.
    // Shutdown must still complete promptly: the packed gate's `close()`
    // must wake every worker parked on its `ParkGate` with
    // `StmError::Shutdown` (the stop flag alone could not) — a lost wakeup
    // would wedge this shutdown.
    shutdown_while_admission_is_starved(None);
}

#[test]
fn shutdown_is_bounded_while_admission_is_starved_mutex_oracle() {
    // The same contract on the mutex rung: the semaphore's condvar
    // broadcast must wake every parked worker.
    shutdown_while_admission_is_starved(Some(Oracle::MutexSched));
}

fn shutdown_while_admission_is_starved(oracle: Option<Oracle>) {
    let plan = Arc::new(FaultPlan::new(49).with_rule(
        FaultKind::AdmissionStall,
        FaultRule::with_probability(1.0).delay_ns(2_000_000),
    ));
    let config = StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 2,
        fault: Some(plan),
        ..StmConfig::default()
    };
    let stm = Stm::with_oracle(config, oracle);
    let wl = Arc::new(ArrayWorkload::new(
        &stm,
        "chaos-shutdown",
        ArrayParams { size: 64, write_fraction: 0.5, chunks: 2 },
    ));
    let mut system = LiveStmSystem::start(stm.clone(), wl, 4).expect("spawn live workers");
    std::thread::sleep(Duration::from_millis(100));
    let start = Instant::now();
    system.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown took {:?} with workers parked on admission ({oracle:?})",
        start.elapsed()
    );
    // The STM stays usable after shutdown (admission reopened).
    let cell = stm.new_vbox(0i32);
    stm.atomic({
        let cell = cell.clone();
        move |tx| {
            tx.write(&cell, 1);
            Ok(())
        }
    })
    .expect("STM usable after shutdown");
}

#[test]
fn stalled_collector_never_blocks_commits_and_eviction_resumes() {
    // Exactly one seeded stall (p = 1, budget 1): the collector's first
    // slice sleeps 1.5 s holding no lock. The memory contract under a
    // wedged collector is "degrade memory, not throughput" — commits must
    // keep flowing mid-stall, and once the stall passes, lease expiry of a
    // parked reader must still be detected and pruned past.
    let plan = Arc::new(FaultPlan::new(52).with_rule(
        FaultKind::GcStall,
        FaultRule::with_probability(1.0).delay_ns(1_500_000_000).budget(1),
    ));
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 2,
        fault: Some(plan.clone()),
        gc_interval: 1,
        mem: MemConfig { snapshot_lease: Some(Duration::from_millis(20)), ..MemConfig::default() },
        ..StmConfig::default()
    });
    let b = stm.new_vbox(0i64);
    let commit = || {
        stm.atomic(|tx| {
            let v = tx.read(&b);
            tx.write(&b, v + 1);
            Ok(())
        })
        .unwrap()
    };
    stm.read_only(|snap| {
        // Every commit nudges the collector; its first slice then stalls.
        let start = Instant::now();
        while plan.injected(FaultKind::GcStall) == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "collector never reached the stall site"
            );
            commit();
            std::thread::yield_now();
        }
        // Mid-stall: commits flow freely. The stalled cycle completing
        // before these finish would mean they waited behind it.
        let c0 = stm.stats().snapshot().gc_cycles;
        for _ in 0..200 {
            commit();
        }
        assert_eq!(
            stm.stats().snapshot().gc_cycles,
            c0,
            "200 commits outlasted a 1.5s collector stall — commits are \
             queueing behind the GC"
        );
        // Post-stall: the collector resumes, the reader's expired lease is
        // evicted and its pinned versions pruned past.
        let start = Instant::now();
        loop {
            commit();
            stm.request_gc();
            if snap.is_evicted() && snap.try_read(&b) == Err(StmError::SnapshotEvicted) {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "lease eviction never resumed after the collector stall"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    // Eviction and pruning are observable mid-cycle (the watermark is
    // recomputed per slice), so the cycle counter may lag the break above.
    let start = Instant::now();
    while stm.stats().snapshot().gc_cycles == 0 {
        assert!(start.elapsed() < Duration::from_secs(5), "the stalled cycle never completed");
        std::thread::sleep(Duration::from_millis(1));
    }
    let s = stm.stats().snapshot();
    assert_eq!(plan.injected(FaultKind::GcStall), 1);
    assert!(s.snapshot_evictions >= 1, "the parked reader was evicted: {s:?}");
    assert_eq!(s.read_below_floor, 0);
}

/// A value whose drop panics the first time it happens on the collector
/// thread — a poisoned version chain for exercising the GC supervisor.
#[derive(Clone)]
struct GcGrenade(Arc<AtomicBool>);

impl Drop for GcGrenade {
    fn drop(&mut self) {
        if std::thread::current().name() == Some("pnstm-gc") && self.0.swap(false, Ordering::SeqCst)
        {
            panic!("injected: version drop failed on the collector thread");
        }
    }
}

#[test]
fn collector_panic_is_absorbed_and_the_loop_restarts() {
    // Prune a version whose Drop panics on the collector thread: the
    // supervisor must absorb the panic (counted, not fatal) and keep the
    // collector loop alive — later cycles still sweep and prune.
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 1,
        gc_interval: 0,
        ..StmConfig::default()
    });
    let armed = Arc::new(AtomicBool::new(true));
    let grenade = stm.new_vbox(GcGrenade(Arc::clone(&armed)));
    // Two installs leave two prunable (poisoned) versions behind.
    for _ in 0..2 {
        let disarmed = GcGrenade(Arc::new(AtomicBool::new(false)));
        let g = grenade.clone();
        stm.atomic(move |tx| {
            tx.write(&g, disarmed.clone());
            Ok(())
        })
        .unwrap();
    }
    let start = Instant::now();
    while stm.stats().snapshot().gc_thread_panics == 0 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "collector never hit the poisoned version"
        );
        stm.request_gc();
        std::thread::sleep(Duration::from_millis(5));
    }
    // The loop survived: commits still work and a later cycle still prunes.
    let after = stm.stats().snapshot();
    let counter = stm.new_vbox(0i64);
    for _ in 0..3 {
        stm.atomic(|tx| {
            let v = tx.read(&counter);
            tx.write(&counter, v + 1);
            Ok(())
        })
        .unwrap();
    }
    let start = Instant::now();
    while stm.stats().snapshot().gc_pruned_versions <= after.gc_pruned_versions {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "no cycle pruned after the collector panic — the loop died"
        );
        stm.request_gc();
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(stm.read_atomic(&counter), 3);
    assert!(stm.stats().snapshot().gc_thread_panics >= 1);
}

#[test]
fn ledger_block_completes_under_faults_with_oracle_state() {
    // Ledger mode under the fault layer: `ChildStall` lands inside the block
    // executor's worker pool (wired to the host STM's fault context) and
    // `CommitHold` stalls the final index-order install's stripe locks. The
    // blocks must still terminate, and the final balances must be identical
    // to an unfaulted sequential replay — faults may slow a block down but
    // never change what it commits.
    let plan = Arc::new(
        FaultPlan::new(53)
            .with_rule(
                FaultKind::ChildStall,
                FaultRule::with_probability(0.5).delay_ns(200_000).budget(200),
            )
            .with_rule(
                FaultKind::CommitHold,
                FaultRule::with_probability(0.5).delay_ns(500_000).budget(100),
            ),
    );
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(4, 4),
        worker_threads: 2,
        fault: Some(plan.clone()),
        ..StmConfig::default()
    });
    let clean = Stm::new(StmConfig {
        degree: ParallelismDegree::new(1, 1),
        worker_threads: 2,
        ..StmConfig::default()
    });
    let block = ledger::skewed_block(11, 96, 8, 50);
    let initial = vec![100u64; 8];
    let oracle = ledger::BlockExecutor::sequential(
        &clean,
        &initial,
        ledger::LedgerConfig { workers: 1, ..ledger::LedgerConfig::default() },
    );
    oracle.execute_all(&block).expect("unfaulted oracle replay");
    let faulted = ledger::BlockExecutor::new(
        &stm,
        &initial,
        ledger::LedgerConfig { workers: 4, block_size: 32, ..ledger::LedgerConfig::default() },
    );
    let outcomes = faulted.execute_all(&block).expect("faulted blocks still terminate");
    assert_eq!(outcomes.len(), 3, "96 txns / 32 per block");
    assert_eq!(faulted.balances(), oracle.balances(), "faults changed what a block committed");
    assert!(
        plan.injected(FaultKind::ChildStall) + plan.injected(FaultKind::CommitHold) > 0,
        "the plan never fired — the scenario tested nothing"
    );
}

#[test]
fn ledger_mid_block_close_is_bounded_and_installs_nothing() {
    // `close()` mid-block: workers poll the admission gate between tasks, so
    // a block that still has hundreds of work-laden transactions queued must
    // abandon promptly with `StmError::Shutdown` and leave the committed
    // balances untouched (the multi-version scratch is never installed).
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(4, 4),
        worker_threads: 2,
        ..StmConfig::default()
    });
    let initial = vec![1_000u64; 16];
    let ex = ledger::BlockExecutor::new(
        &stm,
        &initial,
        ledger::LedgerConfig {
            workers: 4,
            work: Duration::from_millis(2),
            ..ledger::LedgerConfig::default()
        },
    );
    // >= 512 * 2 ms / 4 workers = ~256 ms of mandatory work: the close below
    // lands well inside the block.
    let block = ledger::skewed_block(13, 512, 16, 50);
    let worker = std::thread::spawn(move || {
        let result = ex.execute_block(&block);
        (ex, result)
    });
    std::thread::sleep(Duration::from_millis(30));
    let start = Instant::now();
    stm.close_admission();
    let (ex, result) = worker.join().expect("block worker must not panic");
    assert!(
        matches!(result, Err(StmError::Shutdown)),
        "a mid-block close must abandon the block with Shutdown, got {result:?}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "mid-block shutdown took {:?}",
        start.elapsed()
    );
    stm.reopen_admission();
    assert_eq!(ex.balances(), initial, "an abandoned block must install nothing");
}

/// Drive one full simulated tuning session through `FaultyTunable` and
/// return the `fault_injected` trace lines as JSONL.
fn sim_fault_jsonl(seed: u64, p_stall: f64, p_jitter: f64, p_reconfig: f64) -> String {
    let machine = MachineParams::new(8);
    let wl = SimWorkload::builder("chaos-sim")
        .top_work_us(20.0)
        .child_count(4)
        .child_work_us(60.0)
        .top_footprint(4, 1)
        .child_footprint(8, 2)
        .data_items(4_000)
        .build();
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rule(FaultKind::AdmissionStall, FaultRule::with_probability(p_stall))
            .with_rule(
                FaultKind::ClockJitter,
                FaultRule::with_probability(p_jitter).delay_ns(50_000),
            )
            .with_rule(FaultKind::ReconfigFail, FaultRule::with_probability(p_reconfig).budget(5)),
    );
    let sink = Arc::new(TestSink::default());
    let trace = TraceBus::new();
    trace.subscribe(sink.clone());
    let mut sys = FaultyTunable::new(SimSystem::new(&wl, &machine, 7), plan, trace.clone());
    let mut tuner = AutoPn::new(SearchSpace::new(8), AutoPnConfig::default());
    let mut policy = AdaptiveMonitor::new(0.20, 4);
    let opts = TuneOptions { apply_backoff: Duration::ZERO, ..TuneOptions::default() };
    Controller::tune_traced_with(&mut sys, &mut tuner, &mut policy, &trace, &opts);
    let mut out = String::new();
    for ev in sink.events() {
        if matches!(ev, TraceEvent::FaultInjected { .. }) {
            ev.write_json(&mut out);
            out.push('\n');
        }
    }
    out
}

#[test]
fn sim_fault_stream_is_reproducible_and_nonempty() {
    let a = sim_fault_jsonl(1234, 0.8, 0.8, 1.0);
    let b = sim_fault_jsonl(1234, 0.8, 0.8, 1.0);
    assert!(!a.is_empty(), "an aggressive plan must inject");
    assert_eq!(a, b, "same seed + plan must replay byte-identically");
    let c = sim_fault_jsonl(1235, 0.8, 0.8, 1.0);
    assert_ne!(a, c, "a different seed must draw a different schedule");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The tentpole determinism property: on a virtual-time system, the
    /// injected fault stream is a pure function of (seed, plan) — two runs
    /// produce byte-identical `fault_injected` JSONL, event for event,
    /// timestamp for timestamp.
    #[test]
    fn same_seed_and_plan_replay_identical_fault_streams(
        seed in 0u64..10_000,
        p_stall in 0.0f64..0.9,
        p_jitter in 0.0f64..0.9,
        p_reconfig in 0.0f64..0.9,
    ) {
        let a = sim_fault_jsonl(seed, p_stall, p_jitter, p_reconfig);
        let b = sim_fault_jsonl(seed, p_stall, p_jitter, p_reconfig);
        prop_assert_eq!(a, b);
    }
}
