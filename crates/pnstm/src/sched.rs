//! The work-stealing child-task scheduler: per-batch lock-free deques (the
//! owning parent pops LIFO from one end, helper threads steal FIFO from the
//! other) and batch handles registered in a sharded injector, so idle
//! workers discover work without one global lock.
//!
//! [`WorkStealingPool`] is the shared `batch::Pool` over [`StealRegistry`]:
//! batch accounting, the helper cap, the join, worker supervision and the
//! on-demand hand-off rule live in the pool, and with them the
//! deadlock-freedom argument — the thread that submits a batch is always the
//! `c`-th executor, so a blocked parent drains its own children even when
//! every pool worker is busy in other trees, at any nesting depth.

use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::batch::{dispatch_stall, Batch, Pool, Registry, TaskQueue};
use crate::fault::FaultCtx;

/// One child-transaction task as submitted by `Txn::parallel`.
pub type Task = Box<dyn FnOnce() + Send>;

/// Shards of the injector's batch registry. Dispatch of concurrent trees
/// spreads round-robin over the shards, so publishing a batch no longer
/// funnels every tree through one lock.
const INJECTOR_SHARDS: usize = 8;

/// One pre-filled slot of a [`StealDeque`].
///
/// SAFETY invariant: a slot's `Option<Task>` is written once at construction
/// (published by the `Arc` that shares the batch) and taken at most once, by
/// the unique thread whose claim CAS on the deque's control word returned
/// that slot's index. No two threads ever touch the same slot concurrently.
struct TaskSlot(UnsafeCell<Option<Task>>);

// SAFETY: see the invariant on [`TaskSlot`]; cross-thread access is
// serialized by the AcqRel claim CAS in `StealDeque`.
unsafe impl Sync for TaskSlot {}

/// Fixed-size lock-free deque over the tasks of one batch: how a batch's
/// tasks are queued under the work-stealing scheduler, at any fan-out.
///
/// All tasks of a `parallel()` batch exist up front, so no growable ring is
/// needed: the slots are filled at construction and a single packed control
/// word tracks the two claim cursors. The high 32 bits hold `tail` — the
/// owner end, exclusive; the owner pops LIFO by claiming `tail - 1`. The low
/// 32 bits hold `head` — the thief end; helpers steal FIFO by claiming
/// `head`. Slots in `[head, tail)` are unclaimed; the deque is empty when
/// the cursors meet. A successful claim CAS hands the claimant a slot index
/// no other thread can observe as claimable again, making the subsequent
/// slot take race-free.
pub struct StealDeque {
    ctrl: AtomicU64,
    slots: Box<[TaskSlot]>,
}

fn deque_pack(head: u32, tail: u32) -> u64 {
    ((tail as u64) << 32) | head as u64
}

fn deque_unpack(v: u64) -> (u32, u32) {
    (v as u32, (v >> 32) as u32)
}

impl StealDeque {
    /// Claim a slot index by CASing the control word with `advance`, which
    /// maps `(head, tail)` to (new pair, claimed index) or `None` if empty.
    fn claim(&self, advance: impl Fn(u32, u32) -> Option<((u32, u32), u32)>) -> Option<Task> {
        let mut cur = self.ctrl.load(Ordering::Acquire);
        loop {
            let (head, tail) = deque_unpack(cur);
            let ((nh, nt), idx) = advance(head, tail)?;
            match self.ctrl.compare_exchange_weak(
                cur,
                deque_pack(nh, nt),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                // SAFETY: the CAS granted `idx` to this thread exclusively
                // (see `TaskSlot`); the slot was filled before the batch was
                // shared.
                Ok(_) => return unsafe { (*self.slots[idx as usize].0.get()).take() },
                Err(actual) => cur = actual,
            }
        }
    }

    /// Owner pop: LIFO from the tail end.
    fn pop_owner(&self) -> Option<Task> {
        self.claim(|head, tail| (head < tail).then(|| ((head, tail - 1), tail - 1)))
    }

    /// Thief steal: FIFO from the head end.
    fn steal(&self) -> Option<Task> {
        self.claim(|head, tail| (head < tail).then(|| ((head + 1, tail), head)))
    }
}

impl TaskQueue for StealDeque {
    /// The cursors are `u32`s: one batch holds at most `u32::MAX` tasks.
    fn new(tasks: Vec<Task>) -> Self {
        let n = u32::try_from(tasks.len()).expect("a batch holds at most u32::MAX tasks");
        let slots = tasks.into_iter().map(|t| TaskSlot(UnsafeCell::new(Some(t)))).collect();
        Self { ctrl: AtomicU64::new(deque_pack(0, n)), slots }
    }

    /// The owning parent pops LIFO, helpers steal FIFO. The
    /// [`crate::FaultKind::ChildStall`] stall is taken *after* the lock-free
    /// claim, so stalled dispatches overlap instead of serializing.
    fn pop(&self, helper: bool, fault: &FaultCtx) -> Option<Task> {
        let task = if helper { self.steal() } else { self.pop_owner() }?;
        dispatch_stall(fault);
        Some(task)
    }

    /// Exact: derived from one atomic load of the control word.
    fn queued(&self) -> usize {
        let (head, tail) = deque_unpack(self.ctrl.load(Ordering::Acquire));
        tail.saturating_sub(head) as usize
    }
}

type StealBatch = Arc<Batch<StealDeque>>;

/// Sharded registry of published batches. Dispatch registers round-robin;
/// idle workers scan the shards. Only batch *discovery* takes these short
/// locks — task claims are lock-free on the batch itself. A registration
/// racing an idle worker's pre-park re-scan is caught by the pool's idle
/// gate: the re-scan takes the shard lock the registration was made under.
pub struct StealRegistry {
    shards: Box<[Mutex<Vec<StealBatch>>]>,
    next: AtomicUsize,
}

impl Default for StealRegistry {
    fn default() -> Self {
        Self {
            shards: (0..INJECTOR_SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            next: AtomicUsize::new(0),
        }
    }
}

impl Registry for StealRegistry {
    type Queue = StealDeque;
    const WORKER_NAME: &'static str = "pnstm-ws-worker";

    fn publish(&self, batch: &StealBatch) -> usize {
        let shard = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.shards[shard].lock().push(Arc::clone(batch));
        shard
    }

    fn retract(&self, shard: usize, batch: &StealBatch) {
        self.shards[shard].lock().retain(|b| !Arc::ptr_eq(b, batch));
    }

    fn find(&self) -> Option<StealBatch> {
        self.shards
            .iter()
            .find_map(|shard| shard.lock().iter().find(|b| b.wants_helpers()).map(Arc::clone))
    }
}

/// The child-task scheduler every [`crate::Stm`] runs.
///
/// A handed-off batch is registered in the sharded injector and idle workers
/// are woken; the dispatching (parent) thread executes from the lock-free
/// deque's owner end while helpers steal from the other. Task claims never
/// take a lock, the helper cap is a CAS on the batch's helper counter, and
/// cross-tree dispatch spreads over injector shards — the three
/// serialization points of the mutex pool, removed in order.
pub type WorkStealingPool = Pool<StealRegistry>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::stats::Stats;
    use crate::trace::{TraceBus, TraceEvent};
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
    fn deque_owner_pops_lifo_thieves_steal_fifo() {
        let order = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<Task> = (0..4)
            .map(|i| {
                let order = Arc::clone(&order);
                Box::new(move || order.lock().push(i)) as Task
            })
            .collect();
        let d = StealDeque::new(tasks);
        assert_eq!(d.queued(), 4);
        d.steal().unwrap()(); // FIFO end: task 0
        d.pop_owner().unwrap()(); // LIFO end: task 3
        d.steal().unwrap()(); // task 1
        d.pop_owner().unwrap()(); // task 2
        assert!(d.pop_owner().is_none());
        assert!(d.steal().is_none());
        assert_eq!(*order.lock(), vec![0, 3, 1, 2]);
    }

    #[test]
    fn deque_concurrent_claims_take_every_task_exactly_once() {
        for _ in 0..50 {
            let counter = Arc::new(AtomicI64::new(0));
            let d = Arc::new(StealDeque::new(make_tasks(64, &counter)));
            let mut joins = vec![];
            for who in 0..4 {
                let d = Arc::clone(&d);
                joins.push(thread::spawn(move || {
                    let mut taken = 0;
                    loop {
                        let t = if who % 2 == 0 { d.pop_owner() } else { d.steal() };
                        match t {
                            Some(task) => {
                                task();
                                taken += 1;
                            }
                            None => return taken,
                        }
                    }
                }));
            }
            let total: i64 = joins.into_iter().map(|j| j.join().unwrap()).sum();
            assert_eq!(total, 64, "claims lost or duplicated");
            assert_eq!(counter.load(Ordering::SeqCst), 64);
        }
    }

    #[test]
    fn caller_runs_everything_with_no_helpers() {
        let pool = WorkStealingPool::new(0);
        let counter = Arc::new(AtomicI64::new(0));
        pool.run_batch(make_tasks(10, &counter), 0);
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn helpers_participate_and_steals_are_counted() {
        let stats = Arc::new(Stats::new());
        let pool = WorkStealingPool::with_instruments(
            3,
            FaultCtx::disabled(),
            Arc::clone(&stats),
            TraceBus::new(),
        );
        let counter = Arc::new(AtomicI64::new(0));
        // Slow tasks so helpers reliably win some claims.
        let tasks: Vec<Task> = (0..64)
            .map(|_| {
                let c = Arc::clone(&counter);
                Box::new(move || {
                    thread::sleep(Duration::from_micros(200));
                    c.fetch_add(1, Ordering::SeqCst);
                }) as Task
            })
            .collect();
        pool.run_batch(tasks, 3);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        assert!(stats.snapshot().steal_count > 0, "helpers executed nothing");
    }

    #[test]
    fn empty_batch_returns_immediately() {
        let pool = WorkStealingPool::new(1);
        pool.run_batch(vec![], 1);
    }

    #[test]
    fn per_batch_concurrency_respects_helper_limit() {
        let pool = WorkStealingPool::new(4);
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

    /// One deque serves any fan-out: a 1 000-task batch with two helpers
    /// runs every task exactly once.
    #[test]
    fn thousand_task_batch_runs_every_task_exactly_once() {
        let pool = WorkStealingPool::new(2);
        let runs: Arc<Vec<AtomicI64>> = Arc::new((0..1000).map(|_| AtomicI64::new(0)).collect());
        let tasks = (0..runs.len())
            .map(|i| {
                let runs = Arc::clone(&runs);
                Box::new(move || {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                }) as Task
            })
            .collect();
        pool.hand_off(tasks, 2);
        assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1), "a task lost or repeated");
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let pool = WorkStealingPool::new(1);
        assert_eq!(pool.size(), 1);
        pool.resize(4);
        assert_eq!(pool.size(), 4);
        let counter = Arc::new(AtomicI64::new(0));
        pool.run_batch(make_tasks(16, &counter), 3);
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        pool.resize(1);
        assert_eq!(pool.size(), 1);
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
        let pool = WorkStealingPool::new(2);
        let counter = Arc::new(AtomicI64::new(0));
        let mut tasks = make_tasks(8, &counter);
        tasks.push(Box::new(|| panic!("injected task panic")) as Task);
        tasks.extend(make_tasks(8, &counter));
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(tasks, 2);
        }));
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        let more = make_tasks(8, &counter);
        pool.run_batch(more, 2);
        assert_eq!(counter.load(Ordering::SeqCst), 24);
        assert!(pool.live_workers() >= 1, "workers must survive task panics");
    }

    #[test]
    fn child_stall_fault_is_consulted_per_task() {
        use crate::fault::{FaultPlan, FaultRule};

        let plan = Arc::new(
            FaultPlan::new(4).with_rule(FaultKind::ChildStall, FaultRule::with_probability(1.0)),
        );
        let pool = WorkStealingPool::with_instruments(
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
    fn no_helper_joins_a_drained_batch() {
        // Drain a batch completely, then hammer the helper-claim path: the
        // claim must fail from every thread and the helper count must end at
        // zero. The CAS claim re-checks `queued` after publishing the
        // increment, so a drained batch can never hold a claimed helper.
        let counter = Arc::new(AtomicI64::new(0));
        let batch = Batch::<StealDeque>::new(make_tasks(4, &counter), 3);
        while let Some(t) = batch.queue.pop(false, &FaultCtx::disabled()) {
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
    fn concurrent_batches_all_complete() {
        let pool = Arc::new(WorkStealingPool::new(2));
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
    fn sched_batch_event_reports_dispatch_shape() {
        use crate::trace::TestSink;

        let bus = TraceBus::new();
        let sink = Arc::new(TestSink::new());
        bus.subscribe(sink.clone());
        let pool = WorkStealingPool::with_instruments(
            2,
            FaultCtx::disabled(),
            Arc::new(Stats::new()),
            bus,
        );
        let counter = Arc::new(AtomicI64::new(0));
        pool.run_batch(make_tasks(6, &counter), 2);
        let events = sink.events();
        let batch_events: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SchedBatch { tasks, stolen, handed_off, .. } => {
                    Some((*tasks, *stolen, *handed_off))
                }
                _ => None,
            })
            .collect();
        assert_eq!(batch_events.len(), 1);
        let (tasks, stolen, handed_off) = batch_events[0];
        assert_eq!(tasks, 6);
        assert!(stolen <= 6);
        assert!(handed_off, "a pool without history hands off eagerly");
    }
}
