//! Contention-management integration: the livelock regression the backoff
//! exists to fix.
//!
//! The regression scenario is the flip side of what `tests/chaos.rs` fences
//! off with an injection budget: its stripe-hold shutdown test runs seed 51
//! with 2 ms holds capped at 400 injections against a 4-worker
//! `ArrayWorkload`, and keeps that budget so it stays a pure shutdown
//! check. Here an *unbudgeted* p = 1.0 `CommitHold` plan (seed 97, 1 ms
//! holds) inflates every commit's stripe-held window so far that two
//! dedicated writers retrying immediately keep aborting each other. The mutual
//! abort needs writers whose write stripes are disjoint but whose read sets
//! overlap the other's writes: stripe acquisition itself is blocking (and
//! sorted, so it alternates), but `read_valid` rejects any read whose stripe
//! another committer currently holds — with every hold inflated to 1 ms,
//! each writer's validation lands inside the other's hold, indefinitely.
//! (Measured here before the CM landed: >13 000 aborts and neither writer
//! finishing 10 commits in 8 s.) Under the backoff the losers
//! desynchronize and the pair drains in tens of milliseconds.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pnstm::{stripe_of, FaultKind, FaultPlan, FaultRule, ParallelismDegree, Stm, StmConfig};

/// Two writers, each read-modify-writing its own box while also reading the
/// other's, while every commit stalls `hold` on its held stripe locks
/// (p = 1.0, no budget). The boxes live on distinct stripes so commits never
/// queue on a common lock — each writer instead cross-validates against the
/// other's held stripe. Returns once both writers have landed `quota`
/// commits each, or panics if `deadline` passes first.
fn run_two_writer_storm(hold: Duration, quota: u64, deadline: Duration) -> Stm {
    let plan = Arc::new(FaultPlan::new(97).with_rule(
        FaultKind::CommitHold,
        FaultRule::with_probability(1.0).delay_ns(hold.as_nanos() as u64),
    ));
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 2,
        fault: Some(plan),
        ..StmConfig::default()
    });
    let a = stm.new_vbox(0u64);
    let mut b = stm.new_vbox(0u64);
    while stripe_of(b.id()) == stripe_of(a.id()) {
        b = stm.new_vbox(0u64);
    }
    let done = Arc::new(AtomicUsize::new(0));
    let mut writers = Vec::new();
    for me in 0..2usize {
        let stm = stm.clone();
        let (mine, other) = if me == 0 { (a.clone(), b.clone()) } else { (b.clone(), a.clone()) };
        let done = Arc::clone(&done);
        writers.push(std::thread::spawn(move || {
            for _ in 0..quota {
                stm.atomic({
                    let mine = mine.clone();
                    let other = other.clone();
                    move |tx| {
                        // The read of `other` is what the opposing commit's
                        // held stripe invalidates.
                        let _peer = tx.read(&other);
                        let v = tx.read(&mine);
                        tx.write(&mine, v + 1);
                        Ok(())
                    }
                })
                .expect("writer commit");
            }
            done.fetch_add(1, Ordering::AcqRel);
        }));
    }
    let start = Instant::now();
    while done.load(Ordering::Acquire) < 2 {
        assert!(
            start.elapsed() < deadline,
            "two writers livelocked under unbudgeted commit holds: \
             {}/{} commits after {:?}",
            stm.stats().snapshot().top_commits,
            2 * quota,
            start.elapsed()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for w in writers {
        w.join().unwrap();
    }
    assert_eq!(stm.read_atomic(&a) + stm.read_atomic(&b), 2 * quota);
    stm
}

#[test]
fn unbudgeted_commit_holds_drain_under_exp_backoff() {
    let stm = run_two_writer_storm(Duration::from_millis(1), 10, Duration::from_secs(20));
    let snap = stm.stats().snapshot();
    assert!(
        snap.cm_waits > 0 || snap.top_aborts == 0,
        "conflicting writers must have backed off: {snap:?}"
    );
}
