//! The mutex-queue child pool: the [`crate::Oracle::MutexSched`] scheduler,
//! kept as the differential-testing oracle and bench baseline for
//! [`crate::sched::WorkStealingPool`].
//!
//! It is the same `batch::Pool` as the shipped scheduler — per-tree
//! concurrency limits (the parent is the `c`-th executor beside at most
//! `c − 1` helpers), runtime resizability and the on-demand hand-off — over
//! the original structures: every dispatch crosses the per-batch tasks mutex
//! and batch discovery crosses the pool-wide batches lock.

use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::batch::{dispatch_stall, Batch, Pool, Registry, TaskQueue};
use crate::fault::FaultCtx;
use crate::sched::Task;

/// One batch's tasks behind a mutex.
pub struct MutexQueue {
    tasks: Mutex<VecDeque<Task>>,
    /// Queue length mirror, so [`TaskQueue::queued`] — called by idle
    /// workers while holding the pool's batches lock — never touches the
    /// tasks mutex. Decremented *before* the matching pop (both under the
    /// tasks lock), so it only ever **under**-reports.
    queued: AtomicUsize,
}

impl TaskQueue for MutexQueue {
    fn new(tasks: Vec<Task>) -> Self {
        Self { queued: AtomicUsize::new(tasks.len()), tasks: Mutex::new(tasks.into()) }
    }

    /// The [`crate::FaultKind::ChildStall`] site sits *inside* the critical
    /// section: under this rung a dispatch stall holds the queue just like
    /// real dispatch cost does (the work-stealing rung takes the same stall
    /// after its lock-free claim; the contrast is what `sched_scaling`
    /// measures).
    fn pop(&self, _helper: bool, fault: &FaultCtx) -> Option<Task> {
        let mut q = self.tasks.lock();
        if q.is_empty() {
            return None;
        }
        self.queued.fetch_sub(1, Ordering::AcqRel);
        let task = q.pop_front();
        dispatch_stall(fault);
        task
    }

    fn queued(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }
}

/// Published batches in arrival order, behind one lock.
#[derive(Default)]
pub struct MutexRegistry {
    batches: Mutex<Vec<Arc<Batch<MutexQueue>>>>,
}

impl Registry for MutexRegistry {
    type Queue = MutexQueue;
    const WORKER_NAME: &'static str = "pnstm-child-worker";

    fn publish(&self, batch: &Arc<Batch<MutexQueue>>) -> usize {
        self.batches.lock().push(Arc::clone(batch));
        0
    }

    fn retract(&self, _slot: usize, batch: &Arc<Batch<MutexQueue>>) {
        self.batches.lock().retain(|b| !Arc::ptr_eq(b, batch));
    }

    fn find(&self) -> Option<Arc<Batch<MutexQueue>>> {
        self.batches.lock().iter().find(|b| b.wants_helpers()).map(Arc::clone)
    }
}

/// Resizable pool of worker threads that help execute nested-transaction
/// batches through one mutex-held queue per batch.
pub type ChildPool = Pool<MutexRegistry>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::stats::Stats;
    use std::sync::atomic::AtomicI64;
    use std::thread;
    use std::time::Duration;

    fn make_tasks(n: usize, counter: &Arc<AtomicI64>) -> Vec<Task> {
        (0..n)
            .map(|_| {
                let c = Arc::clone(counter);
                Box::new(move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Task
            })
            .collect()
    }

    #[test]
    fn caller_runs_everything_with_no_helpers() {
        let pool = ChildPool::new(0);
        let counter = Arc::new(AtomicI64::new(0));
        pool.run_batch(make_tasks(10, &counter), 0);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn helpers_participate() {
        let pool = ChildPool::new(3);
        let counter = Arc::new(AtomicI64::new(0));
        pool.run_batch(make_tasks(64, &counter), 3);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = ChildPool::new(1);
        pool.run_batch(vec![], 1);
    }

    #[test]
    fn per_batch_concurrency_respects_helper_limit() {
        let pool = ChildPool::new(4);
        let active = Arc::new(AtomicI64::new(0));
        let peak = Arc::new(AtomicI64::new(0));
        let tasks: Vec<Task> = (0..32)
            .map(|_| {
                let (active, peak) = (Arc::clone(&active), Arc::clone(&peak));
                Box::new(move || {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_micros(300));
                    active.fetch_sub(1, Ordering::SeqCst);
                }) as Task
            })
            .collect();
        // helper_limit 1 + the caller = at most 2 concurrent executors.
        pool.run_batch(tasks, 1);
        assert!(peak.load(Ordering::SeqCst) <= 2, "peak {}", peak.load(Ordering::SeqCst));
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let pool = ChildPool::new(1);
        assert_eq!(pool.size(), 1);
        pool.resize(4);
        assert_eq!(pool.size(), 4);
        // Give spawned workers a moment, then shrink.
        let counter = Arc::new(AtomicI64::new(0));
        pool.run_batch(make_tasks(16, &counter), 3);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        pool.resize(1);
        assert_eq!(pool.size(), 1);
        // Workers retire lazily; wait for the count to converge.
        for _ in 0..100 {
            if pool.live_workers() <= 1 {
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(pool.live_workers() <= 1, "live {}", pool.live_workers());
    }

    #[test]
    fn panicking_task_neither_hangs_batch_nor_kills_worker() {
        let pool = ChildPool::new(2);
        let counter = Arc::new(AtomicI64::new(0));
        // helper_limit = 2 with an idle caller-side queue: push the panicking
        // task through pool workers by making the caller slow to reach it.
        let mut tasks = make_tasks(8, &counter);
        tasks.push(Box::new(|| panic!("injected task panic")) as Task);
        tasks.extend(make_tasks(8, &counter));
        // Must return (the finish guard settles the count even on unwind).
        // The panic either lands on a pool worker (absorbed) or the caller;
        // run inside catch_unwind so both outcomes pass.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(tasks, 2);
        }));
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        // The pool still works afterwards.
        pool.run_batch(make_tasks(8, &counter), 2);
        assert_eq!(counter.load(Ordering::SeqCst), 24);
        assert!(pool.live_workers() >= 1, "workers must survive task panics");
    }

    #[test]
    fn child_stall_fault_is_consulted_per_task() {
        use crate::fault::{FaultPlan, FaultRule};
        use crate::trace::TraceBus;

        let plan = Arc::new(
            FaultPlan::new(4).with_rule(FaultKind::ChildStall, FaultRule::with_probability(1.0)),
        );
        let pool = ChildPool::with_instruments(
            0,
            FaultCtx::new(Some(Arc::clone(&plan)), TraceBus::new()),
            Arc::new(Stats::new()),
            TraceBus::new(),
        );
        let counter = Arc::new(AtomicI64::new(0));
        pool.run_batch(make_tasks(5, &counter), 0);
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        assert_eq!(plan.injected(FaultKind::ChildStall), 5);
    }

    #[test]
    fn concurrent_batches_all_complete() {
        let pool = Arc::new(ChildPool::new(2));
        let counter = Arc::new(AtomicI64::new(0));
        let mut joins = vec![];
        for _ in 0..4 {
            let pool = Arc::clone(&pool);
            let counter = Arc::clone(&counter);
            joins.push(thread::spawn(move || {
                for _ in 0..5 {
                    pool.run_batch(make_tasks(8, &counter), 2);
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 4 * 5 * 8);
    }

    #[test]
    fn no_helper_joins_a_drained_batch() {
        // Regression for the queued-mirror over-report: drain a batch
        // completely, then hammer the claim path from several threads. Every
        // claim must fail and the helper count must end at zero — before the
        // decrement-before-pop fix, a lagging mirror could leave
        // `wants_helpers` true after the last pop and wake workers into a
        // drained batch.
        let fault = FaultCtx::disabled();
        let counter = Arc::new(AtomicI64::new(0));
        let batch = Batch::<MutexQueue>::new(make_tasks(4, &counter), 3);
        while let Some(t) = batch.queue.pop(false, &fault) {
            batch.run(t);
        }
        assert!(!batch.wants_helpers());
        let mut joins = vec![];
        for _ in 0..4 {
            let batch = Arc::clone(&batch);
            joins.push(thread::spawn(move || {
                for _ in 0..1000 {
                    assert!(!batch.try_claim_helper(), "helper joined a drained batch");
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(batch.helpers(), 0);
    }

    #[test]
    fn helper_scan_never_sees_an_in_flight_last_pop_as_wanting() {
        use crate::fault::{FaultPlan, FaultRule};
        use crate::trace::TraceBus;

        // Pin the decrement-before-pop ordering: stall a popper *inside* the
        // queue critical section (the ChildStall site sits after the mirror
        // decrement) while it takes the last task. During the stall the
        // batch must already read as drained, so no idle worker wakes for a
        // task that is being claimed. The old ordering (mirror store after
        // the pop) advertised the batch for the whole dispatch window.
        let plan = Arc::new(FaultPlan::new(9).with_rule(
            FaultKind::ChildStall,
            FaultRule::with_probability(1.0).delay_ns(50_000_000),
        ));
        let fault = FaultCtx::new(Some(plan), TraceBus::new());
        let counter = Arc::new(AtomicI64::new(0));
        let batch = Batch::<MutexQueue>::new(make_tasks(1, &counter), 4);
        let popper = {
            let batch = Arc::clone(&batch);
            thread::spawn(move || {
                let task = batch.queue.pop(false, &fault).expect("one task queued");
                batch.run(task);
            })
        };
        // Let the popper reach the stall window with the task claimed.
        thread::sleep(Duration::from_millis(10));
        assert!(!batch.wants_helpers(), "in-flight last pop still advertises work");
        assert!(!batch.try_claim_helper());
        popper.join().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }
}
