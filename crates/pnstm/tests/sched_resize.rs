//! Property tests of the execution-layer contract under concurrent resize:
//! whatever the worker count does mid-batch, every task of a
//! [`ChildScheduler::run_batch`] call runs exactly once, and the number of
//! concurrent executors of one batch never exceeds `helper_limit + 1` (the
//! helpers plus the calling thread, which is always an executor).
//!
//! Both rungs — the shipped work-stealing scheduler and the mutex-pool oracle
//! — are driven through the same [`ChildScheduler`], so a divergence between
//! them fails the same property.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use pnstm::{ChildPool, ChildScheduler, Oracle, WorkStealingPool};

/// The shipped scheduler (`None`) or the [`Oracle::MutexSched`] pool.
fn pool_of(mode: Option<Oracle>, size: usize) -> Arc<ChildScheduler> {
    Arc::new(match mode {
        Some(Oracle::MutexSched) => ChildScheduler::Mutex(ChildPool::new(size)),
        _ => ChildScheduler::WorkStealing(WorkStealingPool::new(size)),
    })
}

/// Run one batch of `n_tasks` counting tasks and return
/// `(per-task execution counts, peak concurrent executors)`.
fn run_counted_batch(
    pool: &ChildScheduler,
    n_tasks: usize,
    helper_limit: usize,
) -> (Vec<usize>, usize) {
    let counts: Arc<Vec<AtomicUsize>> =
        Arc::new((0..n_tasks).map(|_| AtomicUsize::new(0)).collect());
    let active = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let tasks: Vec<pnstm::Task> = (0..n_tasks)
        .map(|i| {
            let counts = Arc::clone(&counts);
            let active = Arc::clone(&active);
            let peak = Arc::clone(&peak);
            Box::new(move || {
                let now = active.fetch_add(1, Ordering::AcqRel) + 1;
                peak.fetch_max(now, Ordering::AcqRel);
                counts[i].fetch_add(1, Ordering::AcqRel);
                // Keep the task on-CPU briefly so helpers have a window to
                // pile in; a yield beats a sleep for case throughput.
                thread::yield_now();
                active.fetch_sub(1, Ordering::AcqRel);
            }) as pnstm::Task
        })
        .collect();
    pool.run_batch(tasks, helper_limit);
    let counts = counts.iter().map(|c| c.load(Ordering::Acquire)).collect();
    (counts, peak.load(Ordering::Acquire))
}

proptest! {
    // Default config: CI scales the case count via `PROPTEST_CASES`.

    /// Grow/shrink the worker count concurrently with a stream of batches:
    /// exactly-once execution and the helper cap must hold throughout, on
    /// both rungs of the scheduler ladder.
    #[test]
    fn resize_mid_batch_preserves_exactly_once_and_helper_cap(
        mode_ix in 0usize..2,
        initial in 0usize..5,
        sizes in proptest::collection::vec(0usize..6, 1..5),
        batches in proptest::collection::vec((1usize..24, 0usize..5), 1..6),
    ) {
        let mode = (mode_ix == 0).then_some(Oracle::MutexSched);
        let pool = pool_of(mode, initial);

        let stop = Arc::new(AtomicBool::new(false));
        let resizer = {
            let pool = Arc::clone(&pool);
            let stop = Arc::clone(&stop);
            let sizes = sizes.clone();
            thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    for &s in &sizes {
                        pool.resize(s);
                        thread::yield_now();
                    }
                }
            })
        };

        for &(n_tasks, helper_limit) in &batches {
            let (counts, peak) = run_counted_batch(&pool, n_tasks, helper_limit);
            prop_assert!(
                counts.iter().all(|&c| c == 1),
                "{mode:?}: tasks must run exactly once, got {counts:?}"
            );
            prop_assert!(
                peak <= helper_limit + 1,
                "{mode:?}: {peak} concurrent executors with helper_limit {helper_limit}"
            );
        }

        stop.store(true, Ordering::Release);
        resizer.join().unwrap();
        let last = *sizes.last().unwrap();
        pool.resize(last);
        prop_assert_eq!(pool.size(), last);
    }
}

/// After a shrink, surplus workers retire: `live_workers` converges to the
/// target once woken (bounded by the idle-wait backstop).
#[test]
fn shrink_retires_surplus_workers_on_both_rungs() {
    for mode in [Some(Oracle::MutexSched), None] {
        let pool = pool_of(mode, 6);
        pool.resize(1);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.live_workers() > 1 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert!(
            pool.live_workers() <= 1,
            "{mode:?}: {} workers still live after shrink to 1",
            pool.live_workers()
        );
        // And the pool still runs batches afterwards.
        let (counts, _) = run_counted_batch(&pool, 8, 2);
        assert!(counts.iter().all(|&c| c == 1), "{mode:?}: post-shrink batch misbehaved");
    }
}

/// A grow mid-wait takes effect: a zero-worker pool grown to `k` gains live
/// workers that then actually help drain a batch.
#[test]
fn grow_from_zero_supplies_helpers_on_both_rungs() {
    for mode in [Some(Oracle::MutexSched), None] {
        let pool = pool_of(mode, 0);
        assert_eq!(pool.live_workers(), 0, "{mode:?}");
        pool.resize(4);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.live_workers() < 4 && std::time::Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(pool.live_workers(), 4, "{mode:?}: grow did not spawn workers");
        let (counts, peak) = run_counted_batch(&pool, 16, 3);
        assert!(counts.iter().all(|&c| c == 1), "{mode:?}: grown pool lost or re-ran tasks");
        assert!(peak <= 4, "{mode:?}: helper cap violated after grow ({peak})");
    }
}
