//! The on-demand hand-off rule of the child scheduler, on both rungs.
//!
//! A batch is published to the worker pool only when the predicted parallel
//! saving covers one hand-off; a withheld batch is published late once its
//! parent has spent more than one hand-off cost in it. These tests pin the
//! named invariants: the parent is always an executor, no history ⇒ eager,
//! bounded regret (late publish), and `helper_limit` still caps helpers.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use pnstm::{
    child, ChildPool, ChildScheduler, ChildTask, FaultCtx, Oracle, ParallelismDegree, Stats, Stm,
    StmConfig, Task, TraceBus, WorkStealingPool,
};

/// The [`Oracle::MutexSched`] pool, then the shipped scheduler.
const RUNGS: [Option<Oracle>; 2] = [Some(Oracle::MutexSched), None];

/// Whether a batch is withheld depends on the clock, so the tests here run
/// one at a time: seven of them competing for two cores turn every parent
/// preemption into a late publish.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn pool_of(mode: Option<Oracle>, size: usize) -> (Arc<ChildScheduler>, Arc<Stats>) {
    let stats = Arc::new(Stats::new());
    let (fault, handle, trace) = (FaultCtx::disabled(), Arc::clone(&stats), TraceBus::new());
    let pool = match mode {
        Some(Oracle::MutexSched) => {
            ChildScheduler::Mutex(ChildPool::with_instruments(size, fault, handle, trace))
        }
        _ => ChildScheduler::WorkStealing(WorkStealingPool::with_instruments(
            size, fault, handle, trace,
        )),
    };
    (Arc::new(pool), stats)
}

fn counting_tasks(n: usize, counter: &Arc<AtomicI64>) -> Vec<Task> {
    (0..n)
        .map(|_| {
            let counter = Arc::clone(counter);
            Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }) as Task
        })
        .collect()
}

/// Teach the pool that children are tiny: after this, tiny batches are
/// withheld. Returns the number of batches run.
fn warm_up_with_tiny_batches(pool: &ChildScheduler, helper_limit: usize) -> u64 {
    let counter = Arc::new(AtomicI64::new(0));
    for _ in 0..1_000 {
        pool.run_batch(counting_tasks(8, &counter), helper_limit);
    }
    assert_eq!(counter.load(Ordering::SeqCst), 8_000);
    1_000
}

/// (a) Bimodal: a pool that has only ever seen tiny batches still shares a
/// long one — the batch is published late, after one child.
#[test]
fn a_long_batch_after_many_tiny_ones_is_published_late() {
    let _alone = alone();
    const CHILD: Duration = Duration::from_millis(20);
    for mode in RUNGS {
        let (pool, stats) = pool_of(mode, 3);
        warm_up_with_tiny_batches(&pool, 3);
        let before = stats.snapshot();

        let (active, peak) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let tasks: Vec<Task> = (0..4)
            .map(|_| {
                let (active, peak) = (Arc::clone(&active), Arc::clone(&peak));
                Box::new(move || {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(CHILD);
                    active.fetch_sub(1, Ordering::SeqCst);
                }) as Task
            })
            .collect();
        let t0 = Instant::now();
        pool.run_batch(tasks, 3);
        let took = t0.elapsed();

        let delta = stats.snapshot().delta_since(&before);
        assert_eq!(delta.sched_handoffs, 1, "{mode:?}: the long batch was never published");
        assert!(delta.steal_count >= 1, "{mode:?}: no helper ran a child");
        assert!(peak.load(Ordering::SeqCst) >= 2, "{mode:?}: children never overlapped");
        // One child alone, then the other three shared: 2 child-durations
        // (sequential would be 4) plus a child-duration of slack.
        assert!(took < 3 * CHILD, "{mode:?}: late publish did not shorten the batch: {took:?}");
    }
}

/// (b) Tiny batches at c = 2 stop handing off after warm-up, and produce
/// exactly what c = 1 produces.
#[test]
fn tiny_batches_stop_handing_off_and_match_sequential_results() {
    let _alone = alone();
    fn run(mode: Option<Oracle>, c: usize) -> (Vec<i64>, Vec<i64>, Stm) {
        let stm = Stm::with_oracle(
            StmConfig {
                degree: ParallelismDegree::new(1, c),
                worker_threads: c - 1,
                ..StmConfig::default()
            },
            mode,
        );
        let cells: Vec<_> = (0..2).map(|_| stm.new_vbox(0i64)).collect();
        let mut results = Vec::new();
        for round in 0..3_000i64 {
            let sum = stm
                .atomic(|tx| {
                    // Two one-cell children: short even in a debug build,
                    // where eight of them are worth a hand-off.
                    let tasks: Vec<ChildTask<i64>> = cells
                        .iter()
                        .enumerate()
                        .map(|(i, cell)| {
                            let cell = cell.clone();
                            child(move |ct| {
                                let v = ct.read(&cell) + round * (i as i64 + 1);
                                ct.write(&cell, v);
                                Ok(v)
                            })
                        })
                        .collect();
                    Ok(tx.parallel(tasks)?.into_iter().sum::<i64>())
                })
                .expect("uncontended transaction commits");
            results.push(sum);
        }
        let state = cells.iter().map(|cell| stm.read_atomic(cell)).collect();
        (results, state, stm)
    }

    for mode in RUNGS {
        let (seq_results, seq_state, seq_stm) = run(mode, 1);
        let seq = seq_stm.stats().snapshot();
        assert_eq!(
            (seq.sched_handoffs, seq.sched_handoffs_elided),
            (0, 0),
            "{mode:?}: c = 1 never consults the policy"
        );

        let (results, state, stm) = run(mode, 2);
        assert_eq!(results, seq_results, "{mode:?}: c = 2 results diverged from c = 1");
        assert_eq!(state, seq_state, "{mode:?}: c = 2 final state diverged from c = 1");
        let snap = stm.stats().snapshot();
        assert_eq!(snap.sched_handoffs + snap.sched_handoffs_elided, 3_000, "{mode:?}");
        assert!(snap.sched_handoffs >= 1, "{mode:?}: no history must hand off eagerly");
        // A preempted parent may late-publish now and then (and the batches
        // right after it go eager while the EWMA decays); steady state is
        // elision.
        assert!(
            snap.sched_handoffs_elided >= 2_700,
            "{mode:?}: tiny batches kept paying hand-offs: {snap:?}"
        );
    }
}

/// Whether a batch stays withheld depends on the clock, so the tests that
/// need a withheld batch repeat their scenario up to this many times and
/// require the behaviour every round, the withholding in at least one.
const ROUNDS: usize = 32;

/// (c) A panic in a never-published batch is re-raised only after the batch
/// drained, and the pool survives.
#[test]
fn panic_in_a_withheld_batch_is_reraised_after_the_drain() {
    let _alone = alone();
    for mode in RUNGS {
        let (pool, stats) = pool_of(mode, 2);
        warm_up_with_tiny_batches(&pool, 2);
        let mut withheld = 0;
        for _ in 0..ROUNDS {
            let before = stats.snapshot();
            let counter = Arc::new(AtomicI64::new(0));
            let mut tasks = counting_tasks(4, &counter);
            // `resume_unwind` skips the panic hook: printing the message
            // alone outlasts the prediction.
            tasks.insert(2, Box::new(|| resume_unwind(Box::new("injected child panic"))) as Task);
            let outcome = catch_unwind(AssertUnwindSafe(|| pool.run_batch(tasks, 2)));

            assert_eq!(counter.load(Ordering::SeqCst), 4, "{mode:?}: the batch did not drain");
            let elided = stats.snapshot().delta_since(&before).sched_handoffs_elided;
            withheld += elided;
            match outcome {
                Err(payload) => assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"injected child panic"),
                    "{mode:?}"
                ),
                // Only a helper absorbs a task panic, and only a published
                // batch has helpers.
                Ok(()) => assert_eq!(elided, 0, "{mode:?}: a withheld batch swallowed its panic"),
            }

            pool.run_batch(counting_tasks(8, &counter), 2);
            assert_eq!(counter.load(Ordering::SeqCst), 12, "{mode:?}: pool unusable afterwards");
            assert_eq!(pool.live_workers(), 2, "{mode:?}");
        }
        assert!(withheld >= 1, "{mode:?}: no panicking batch stayed withheld in {ROUNDS} rounds");
    }
}

/// (d) Resizing the pool from inside a withheld batch — down to nothing and
/// back — neither hangs nor strands a task, even when the batch then
/// outlasts its prediction and publishes late into the resized pool.
#[test]
fn resize_during_a_withheld_batch_strands_nothing() {
    let _alone = alone();
    for mode in RUNGS {
        let (pool, _stats) = pool_of(mode, 2);
        warm_up_with_tiny_batches(&pool, 2);

        let counter = Arc::new(AtomicI64::new(0));
        let mut tasks = counting_tasks(6, &counter);
        for (at, size) in [(0, 0), (3, 4)] {
            let pool = Arc::clone(&pool);
            tasks.insert(
                at,
                Box::new(move || {
                    pool.resize(size);
                    thread::sleep(Duration::from_millis(2)); // outlast the prediction
                }) as Task,
            );
        }
        pool.run_batch(tasks, 2);
        assert_eq!(counter.load(Ordering::SeqCst), 6, "{mode:?}");
        // Whichever resize the rung's pop order ran last, the pool serves on.
        pool.resize(2);
        pool.run_batch(counting_tasks(8, &counter), 2);
        assert_eq!(counter.load(Ordering::SeqCst), 14, "{mode:?}");
    }
}

/// (d) Dropping the creator's handle while another thread is inside a
/// stream of withheld batches: the stream completes, and the final drop
/// joins workers that were never woken for those batches.
#[test]
fn drop_during_withheld_batches_neither_hangs_nor_strands() {
    let _alone = alone();
    for mode in RUNGS {
        let (pool, _stats) = pool_of(mode, 2);
        warm_up_with_tiny_batches(&pool, 2);
        let counter = Arc::new(AtomicI64::new(0));
        let started = Arc::new(Barrier::new(2));
        let runner = {
            let (pool, counter, started) =
                (Arc::clone(&pool), Arc::clone(&counter), Arc::clone(&started));
            thread::spawn(move || {
                started.wait();
                for _ in 0..2_000 {
                    pool.run_batch(counting_tasks(8, &counter), 2);
                }
                // The last handle: this drop shuts the pool down.
            })
        };
        started.wait();
        drop(pool);
        runner.join().expect("runner panicked");
        assert_eq!(counter.load(Ordering::SeqCst), 16_000, "{mode:?}");
    }
}

/// (d) Closing admission from inside a withheld batch: the in-flight tree
/// still drains and commits; only new top-level transactions are refused.
#[test]
fn close_admission_during_a_withheld_batch_lets_the_tree_finish() {
    let _alone = alone();
    for mode in RUNGS {
        let stm = Stm::with_oracle(
            StmConfig {
                degree: ParallelismDegree::new(1, 2),
                worker_threads: 1,
                ..StmConfig::default()
            },
            mode,
        );
        let cells: Vec<_> = (0..8).map(|_| stm.new_vbox(0i64)).collect();
        let bump_all = |close: bool| {
            stm.atomic(|tx| {
                let tasks: Vec<ChildTask<()>> = cells
                    .chunks(4)
                    .enumerate()
                    .map(|(i, half)| {
                        let (half, stm) = (half.to_vec(), stm.clone());
                        child(move |ct| {
                            if close && i == 0 {
                                stm.close_admission();
                            }
                            for cell in &half {
                                let v = ct.read(cell);
                                ct.write(cell, v + 1);
                            }
                            Ok(())
                        })
                    })
                    .collect();
                tx.parallel(tasks).map(drop)
            })
        };
        for _ in 0..1_000 {
            bump_all(false).expect("warm-up commits");
        }
        let mut withheld = 0;
        for _ in 0..ROUNDS {
            let before = stm.stats().snapshot();
            bump_all(true).expect("the in-flight tree commits despite the close");
            withheld += stm.stats().snapshot().delta_since(&before).sched_handoffs_elided;
            assert!(bump_all(false).is_err(), "{mode:?}: closed admission admits nothing new");
            stm.reopen_admission();
            bump_all(false).expect("reopened");
        }
        assert!(withheld >= 1, "{mode:?}: no closing batch stayed withheld in {ROUNDS} rounds");
        for cell in &cells {
            assert_eq!(stm.read_atomic(cell), 1_000 + 2 * ROUNDS as i64, "{mode:?}");
        }
    }
}

/// No history ⇒ eager: the first batch of a fresh pool is published before
/// its parent runs anything, so sleeping children overlap from the start
/// (this is what keeps `sched_scaling`'s 1 ms dispatch stalls shared).
#[test]
fn a_fresh_pool_hands_off_its_first_batch_eagerly() {
    let _alone = alone();
    for mode in RUNGS {
        let (pool, stats) = pool_of(mode, 3);
        const CHILD: Duration = Duration::from_millis(20);
        let tasks: Vec<Task> = (0..4).map(|_| Box::new(|| thread::sleep(CHILD)) as Task).collect();
        let t0 = Instant::now();
        pool.run_batch(tasks, 3);
        let took = t0.elapsed();
        let snap = stats.snapshot();
        assert_eq!((snap.sched_handoffs, snap.sched_handoffs_elided), (1, 0), "{mode:?}");
        assert!(snap.steal_count >= 1, "{mode:?}: helpers must be counted on both rungs");
        // Ideal is one child-duration, serial four.
        assert!(took < 3 * CHILD, "{mode:?}: first batch ran serially: {took:?}");
    }
}
