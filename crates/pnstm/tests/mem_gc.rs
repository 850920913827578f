//! Memory-robustness integration tests: version-heap GC correctness
//! (background vs inline differential oracle), snapshot-lease eviction
//! end-to-end, and the pressure-driven degradation ladder.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use pnstm::trace::TraceEvent;
use pnstm::{
    MemConfig, MemLevel, Oracle, ParallelismDegree, Stm, StmConfig, StmError, TestSink, VBox,
};

/// An STM whose GC driver (the background collector, or with
/// [`Oracle::InlineGc`] the committer) and lease policy are the variables
/// under test. Automatic GC is disabled so the tests drive sweeps
/// explicitly (or via the background thread's own wakeups).
fn stm_with_mem(gc: Option<Oracle>, mem: MemConfig) -> Stm {
    let config = StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 1,
        gc_interval: 0,
        mem,
        ..StmConfig::default()
    };
    Stm::with_oracle(config, gc)
}

fn leases_off() -> MemConfig {
    MemConfig { snapshot_lease: None, ..MemConfig::default() }
}

/// Deadline-bounded spin on a condition driven by another thread.
fn wait_until(what: &str, deadline: Duration, mut cond: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !cond() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// One step of a randomized single-threaded history over `slots` boxes.
#[derive(Debug, Clone)]
enum Step {
    /// Commit `slot += delta`.
    Write { slot: usize, delta: i64 },
    /// Run one full synchronous GC cycle.
    Gc,
}

fn steps(slots: usize) -> impl Strategy<Value = Vec<Step>> {
    // Slot index `slots` encodes a GC step (≈ 1 in `slots + 1` draws).
    proptest::collection::vec((0..slots + 1, -5i64..=5i64), 1..40).prop_map(move |ops| {
        ops.into_iter()
            .map(|(slot, delta)| if slot == slots { Step::Gc } else { Step::Write { slot, delta } })
            .collect()
    })
}

fn replay(gc: Option<Oracle>, slots: usize, history: &[Step]) -> (Vec<i64>, u64) {
    let stm = stm_with_mem(gc, leases_off());
    let boxes: Vec<VBox<i64>> = (0..slots).map(|_| stm.new_vbox(0i64)).collect();
    for step in history {
        match *step {
            Step::Write { slot, delta } => {
                stm.atomic(|tx| {
                    let v = tx.read(&boxes[slot]);
                    tx.write(&boxes[slot], v + delta);
                    Ok(())
                })
                .unwrap();
            }
            Step::Gc => {
                stm.gc();
            }
        }
    }
    stm.gc();
    let finals = boxes.iter().map(|b| stm.read_atomic(b)).collect();
    (finals, stm.heap_gauge().retained_versions())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Differential oracle: the background driver and the inline driver run
    /// the *same* sliced sweep, so replaying a history under each must end
    /// in identical box state — and with no snapshot pinning the watermark,
    /// a final sweep leaves exactly one retained version per box.
    #[test]
    fn background_and_inline_gc_replay_to_identical_state(history in steps(6)) {
        let (bg, bg_retained) = replay(None, 6, &history);
        let (inl, inl_retained) = replay(Some(Oracle::InlineGc), 6, &history);
        prop_assert_eq!(&bg, &inl, "final box state diverged between GC drivers");
        prop_assert_eq!(bg_retained, 6, "background: final sweep must leave one version per box");
        prop_assert_eq!(inl_retained, 6, "inline: final sweep must leave one version per box");
    }

    /// Safety: a sweep never prunes a version a live, unexpired snapshot can
    /// read. A snapshot registered mid-history must read the exact values it
    /// pinned, no matter how many writes and full GC cycles follow.
    #[test]
    fn gc_never_prunes_versions_a_live_snapshot_reads(
        before in steps(5),
        after in steps(5),
    ) {
        let stm = stm_with_mem(None, leases_off());
        let boxes: Vec<VBox<i64>> = (0..5).map(|_| stm.new_vbox(0i64)).collect();
        let mut shadow = [0i64; 5];
        for step in &before {
            if let Step::Write { slot, delta } = *step {
                stm.atomic(|tx| {
                    let v = tx.read(&boxes[slot]);
                    tx.write(&boxes[slot], v + delta);
                    Ok(())
                })
                .unwrap();
                shadow[slot] += delta;
            }
        }
        stm.read_only(|snap| -> Result<(), TestCaseError> {
            for step in &after {
                match *step {
                    Step::Write { slot, delta } => {
                        stm.atomic(|tx| {
                            let v = tx.read(&boxes[slot]);
                            tx.write(&boxes[slot], v + delta);
                            Ok(())
                        })
                        .unwrap();
                    }
                    Step::Gc => {
                        stm.gc();
                    }
                }
            }
            stm.gc();
            prop_assert!(!snap.is_evicted(), "unleased snapshot must never be evicted");
            for (slot, b) in boxes.iter().enumerate() {
                let got = snap.try_read(b);
                prop_assert_eq!(
                    got, Ok(shadow[slot]),
                    "slot {} read a value the snapshot did not pin", slot
                );
            }
            Ok(())
        })?;
        let s = stm.stats().snapshot();
        prop_assert_eq!(s.snapshot_evictions, 0);
        prop_assert_eq!(s.read_below_floor, 0, "GC watermark invariant violated");
    }
}

/// End-to-end lease eviction: a parked reader outlives its lease, gets
/// evicted, observes `SnapshotEvicted` once the collector prunes past its
/// snapshot — and the version heap returns to steady state (one version per
/// box) even though the reader never finished.
#[test]
fn parked_reader_is_evicted_and_heap_returns_to_steady_state() {
    let stm = stm_with_mem(
        None,
        MemConfig { snapshot_lease: Some(Duration::from_millis(50)), ..MemConfig::default() },
    );
    let boxes: Vec<VBox<i64>> = (0..4).map(|_| stm.new_vbox(0i64)).collect();
    let peak = stm.read_only(|snap| {
        assert_eq!(snap.try_read(&boxes[0]), Ok(0), "fresh snapshot reads fine");
        // Outlive the lease while writers churn versions the snapshot pins.
        let commit = || {
            stm.atomic(|tx| {
                let v = tx.read(&boxes[0]);
                tx.write(&boxes[0], v + 1);
                Ok(())
            })
            .unwrap()
        };
        // Track the pinned-heap high-water mark *before* each sweep: once
        // the reader is evicted a single cycle may already reclaim.
        let mut peak = 0u64;
        wait_until("lease eviction of the parked reader", Duration::from_secs(10), || {
            commit();
            peak = peak.max(stm.heap_gauge().retained_versions());
            stm.gc();
            snap.is_evicted()
        });
        // Eviction unpins the watermark; keep churning until the collector
        // has actually pruned past the snapshot on this box.
        wait_until("pruning past the evicted snapshot", Duration::from_secs(10), || {
            commit();
            stm.gc();
            snap.try_read(&boxes[0]) == Err(StmError::SnapshotEvicted)
        });
        assert!(snap.is_evicted());
        peak
    });
    // With the reader gone and no snapshot live, the heap settles back to
    // one version per box.
    stm.gc();
    let retained = stm.heap_gauge().retained_versions();
    assert_eq!(retained, 4, "steady state: one retained version per box (peak was {peak})");
    assert!(peak > retained, "the parked reader must have pinned versions before eviction");
    let s = stm.stats().snapshot();
    assert!(s.snapshot_evictions >= 1, "eviction must be counted: {s:?}");
    assert!(s.gc_cycles >= 1);
    assert_eq!(s.read_below_floor, 0, "below-floor reads of live snapshots are a GC bug");
    assert_eq!(s.retained_versions, retained, "stats snapshot mirrors the gauge");
}

/// A *writer* whose snapshot lease expires mid-flight: its doomed attempt is
/// aborted at commit, routed through the contention manager as an
/// eviction-site abort, and the retry — on a fresh snapshot — commits.
#[test]
fn evicted_writer_retries_on_fresh_snapshot_and_commits() {
    let stm = stm_with_mem(
        None,
        MemConfig { snapshot_lease: Some(Duration::from_millis(10)), ..MemConfig::default() },
    );
    let b = stm.new_vbox(0i64);
    let base = stm.stats().snapshot();

    // A churn thread keeps installing fresh versions and sweeping, so an
    // evicted snapshot's versions really do get pruned underneath it.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churn = {
        let stm = stm.clone();
        let b = b.clone();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                stm.atomic(|tx| {
                    let v = tx.read(&b);
                    tx.write(&b, v + 1);
                    Ok(())
                })
                .unwrap();
                stm.gc();
                std::thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let mut attempts = 0u64;
    stm.atomic(|tx| {
        attempts += 1;
        let v = tx.read(&b);
        if attempts == 1 {
            // Park until this attempt's snapshot has been evicted *and* its
            // chain pruned past — the re-read is then served from the chain
            // floor and the attempt is doomed.
            let end = Instant::now() + Duration::from_secs(10);
            while stm.stats().snapshot().evicted_reads == base.evicted_reads {
                assert!(Instant::now() < end, "first attempt never observed an evicted read");
                std::thread::sleep(Duration::from_millis(5));
                let _ = tx.read(&b);
            }
        }
        tx.write(&b, v + 1000);
        Ok(())
    })
    .expect("the retry on a fresh snapshot must commit");
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    churn.join().unwrap();

    assert!(attempts >= 2, "the doomed first attempt must have been retried");
    let d = stm.stats().snapshot().delta_since(&base);
    assert!(d.evicted_reads >= 1, "the doomed attempt's floor-served reads are counted");
    assert!(d.evicted_aborts >= 1, "the doomed attempt aborts at the eviction site: {d:?}");
    assert_eq!(d.read_below_floor, 0);
    assert!(stm.read_atomic(&b) >= 1000, "the retried write landed");
}

/// The degradation ladder end-to-end: an unleased reader pins the heap past
/// both ceilings (Soft shortens leases + demands urgent GC, Hard adds
/// admission backpressure), and once the pin is gone one sweep recovers the
/// ladder to Normal, clears the cap and restores the configured lease.
#[test]
fn ladder_escalates_to_hard_and_recovers() {
    let urgent = Duration::from_millis(1);
    let stm = stm_with_mem(
        Some(Oracle::InlineGc),
        MemConfig {
            // Leases off: the pinned reader is exempt from urgent clamping, so
            // the ladder degrades throughput but never evicts it.
            snapshot_lease: None,
            urgent_lease: urgent,
            soft_ceiling_versions: 40,
            hard_ceiling_versions: 80,
        },
    );
    let sink = Arc::new(TestSink::default());
    stm.trace_bus().subscribe(sink.clone());
    let boxes: Vec<VBox<i64>> = (0..8).map(|_| stm.new_vbox(0i64)).collect();
    assert_eq!(stm.mem_level(), MemLevel::Normal);
    assert_eq!(stm.throttle().pressure_cap(), None);

    stm.read_only(|snap| {
        for i in 0..120usize {
            stm.atomic(|tx| {
                let v = tx.read(&boxes[i % 8]);
                tx.write(&boxes[i % 8], v + 1);
                Ok(())
            })
            .unwrap();
        }
        assert!(!snap.is_evicted(), "unleased snapshots ride out the ladder");
        assert_eq!(snap.try_read(&boxes[0]), Ok(0), "pinned versions stayed readable");
    });

    // 8 initial + 120 installed versions, nothing prunable: both rungs hit.
    assert_eq!(stm.mem_level(), MemLevel::Hard);
    assert_eq!(stm.throttle().pressure_cap(), Some(1), "hard rung throttles admission to 1");
    assert_eq!(stm.snapshot_lease(), Some(urgent), "escalation shortened the lease");
    let s = stm.stats().snapshot();
    assert!(s.mem_soft_events >= 1, "soft escalation counted: {s:?}");
    assert!(s.mem_hard_events >= 1, "hard escalation counted: {s:?}");
    assert!(s.retained_versions >= 80);

    // The pin is gone: one sweep reclaims everything and recovers the ladder.
    stm.gc();
    assert_eq!(stm.mem_level(), MemLevel::Normal);
    assert_eq!(stm.throttle().pressure_cap(), None, "recovery clears the admission cap");
    assert_eq!(stm.snapshot_lease(), None, "recovery restores the configured lease");
    assert_eq!(stm.heap_gauge().retained_versions(), 8);

    // The trace shows the full ladder walk.
    let degradations: Vec<(MemLevel, MemLevel)> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::MemDegraded { from, to, .. } => Some((*from, *to)),
            _ => None,
        })
        .collect();
    assert!(degradations.contains(&(MemLevel::Normal, MemLevel::Soft)), "{degradations:?}");
    assert!(degradations.contains(&(MemLevel::Soft, MemLevel::Hard)), "{degradations:?}");
    assert_eq!(degradations.last(), Some(&(MemLevel::Hard, MemLevel::Normal)));
    // Urgent sweeps were demanded on escalation and traced.
    assert!(
        sink.events().iter().any(|e| matches!(e, TraceEvent::MemPressure { urgent: true, .. })),
        "escalation must demand an urgent GC cycle"
    );
}

/// The automatic pace counts versions, not commits: a writer of 1 000-box
/// commits that never calls `gc()` keeps the heap within the live boxes
/// plus `gc_interval` superseded versions. The commit that crosses the
/// interval unregisters its snapshot before it asks for a cycle, so the
/// cycle keeps none of the versions that commit superseded. Counted in
/// commits, 200 such commits never reach the interval and every superseded
/// version is kept.
#[test]
fn thousand_box_commits_keep_retained_versions_bounded() {
    const BOXES: u64 = 1_000;
    for gc in [Some(Oracle::InlineGc), None] {
        let config = StmConfig {
            degree: ParallelismDegree::new(2, 1),
            worker_threads: 1,
            ..StmConfig::default()
        };
        let interval = config.gc_interval;
        let bound = BOXES + interval;
        let stm = Stm::with_oracle(config, gc);
        let boxes: Vec<VBox<u64>> = (0..BOXES).map(|_| stm.new_vbox(0)).collect();
        // Superseded versions this (single) committing shard has installed
        // since it last asked for a cycle.
        let mut since = 0;
        for round in 1..=200 {
            let cycles = stm.stats().snapshot().gc_cycles;
            stm.atomic(|tx| {
                for b in &boxes {
                    tx.write(b, round);
                }
                Ok(())
            })
            .unwrap();
            since += BOXES;
            let due = since >= interval;
            if due {
                // The committer unregistered its snapshot before pacing the
                // collector, so the cycle keeps nothing its commit
                // superseded.
                since = 0;
            }
            match gc {
                // The committer swept synchronously: the heap is exactly the
                // live boxes plus what the pace let pile up.
                Some(_) => {
                    let retained = stm.heap_gauge().retained_versions();
                    assert_eq!(retained, BOXES + since, "round {round}");
                    assert!(retained <= bound, "round {round}: {retained} > {bound}");
                }
                // The background collector answers the request off the
                // commit path: the bound holds once that cycle has run.
                None if due => wait_until("the requested cycle", Duration::from_secs(10), || {
                    stm.stats().snapshot().gc_cycles > cycles
                        && stm.heap_gauge().retained_versions() <= bound
                }),
                None => {}
            }
        }
    }
}
