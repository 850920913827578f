//! The child-batch execution core: [`Pool`], a resizable set of helper
//! threads over a [`Registry`] of published batches.
//!
//! The shipped scheduler is [`crate::sched::WorkStealingPool`]. With the
//! `oracle` feature, the mutex-queue `ChildPool` is the same [`Pool`] over a
//! second registry, and [`ChildScheduler`] holds either one. A registry only
//! says how tasks are queued ([`TaskQueue`]) and how idle workers discover
//! batches ([`Registry`]). Everything else lives here once: the
//! remaining/helper accounting, the finish guard, the join parker, worker
//! supervision, resize, and the **hand-off decision**.
//!
//! # Hand-off on demand
//!
//! Publishing a batch wakes a parked worker: a futex hand-off that costs the
//! parent more than a batch of short children is worth. So a batch is
//! published only when the predicted parallel saving `n · d̄ · (1 − 1/c)`
//! exceeds the hand-off cost, where `d̄` is the pool-wide EWMA of the
//! parent-observed per-child time (dispatch stalls included) and the cost is
//! the EWMA of measured publish → first-helper-claim latencies, seeded by
//! [`HANDOFF_SEED_NS`]. The rule and the withheld loop are written once, in
//! [`Pool::run_children`]; `run_batch` below and `Txn::parallel_for` are its
//! two callers, and [`Pool::hand_off`] is the published branch. A withheld
//! batch builds no [`Batch`] at all unless it publishes late.
//! Invariants:
//!
//! * **Parent is always an executor** — the calling thread drains its own
//!   batch whether or not anyone helps (deadlock freedom at any depth).
//! * **No history ⇒ eager** — until a pool has observed one batch it
//!   publishes immediately, exactly like the pre-policy schedulers.
//! * **Bounded regret** — a withheld batch with tasks still unstarted hands
//!   them off once the parent has spent more than one hand-off cost in it.
//!   The clock is read on a schedule ([`clock_stride`]), so a slow tail is
//!   caught by the time the children run have at most doubled.
//! * **`helper_limit` still caps helpers**; `helper_limit == 0` runs inline
//!   and never touches the pool or the clock.
//! * **No task outlives [`Pool::hand_off`]** — it returns, or unwinds, only
//!   after every task it was given has run and been dropped, so a task may
//!   borrow the caller's stack.
//!
//! The items here are `pub` only because the public pool aliases name
//! them; the module itself is private to the crate.

use parking_lot::Mutex;
use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use crate::fault::{FaultCtx, FaultKind};
use crate::park::{ParkGate, IDLE_WAIT};
use crate::sched::{Task, WorkStealingPool};
use crate::stats::{CostEwma, Stats};
use crate::trace::{self, TraceBus, TraceEvent};

/// Hand-off cost before any hand-off has been measured (a parked worker takes
/// 50–80 µs to claim on the reference box), and the anchor of the clamp on
/// measured samples: a helper busy in another tree must not teach the pool
/// that hand-offs take milliseconds.
const HANDOFF_SEED_NS: u64 = 50_000;
const HANDOFF_MIN_NS: u64 = HANDOFF_SEED_NS / 4;
const HANDOFF_MAX_NS: u64 = HANDOFF_SEED_NS * 16;

/// Take the [`FaultKind::ChildStall`] dispatch stall, if one is drawn.
pub(crate) fn dispatch_stall(fault: &FaultCtx) {
    if let Some(action) = fault.inject(FaultKind::ChildStall) {
        action.stall();
    }
}

/// The one `sched_batch` event of a batch of `tasks`: `stolen` holds the
/// tasks helpers ran of its published part, `None` when the caller ran all
/// of it.
fn trace_batch(trace: &TraceBus, tasks: usize, stolen: Option<usize>) {
    if trace.is_enabled() {
        trace.emit(TraceEvent::SchedBatch {
            tasks: tasks as u32,
            stolen: stolen.unwrap_or_default() as u32,
            handed_off: stolen.is_some(),
            at_ns: trace::now_ns(),
        });
    }
}

/// How one rung queues the tasks of a batch.
pub trait TaskQueue: Send + Sync + 'static {
    fn new(tasks: Vec<Task>) -> Self;

    /// Take one task — the dispatch point, so the rung sites its
    /// [`FaultKind::ChildStall`] consultation here. `helper` tells a rung
    /// with two ends which one the taker is entitled to.
    fn pop(&self, helper: bool, fault: &FaultCtx) -> Option<Task>;

    /// Unclaimed tasks. May under-report (the parent drains those anyway),
    /// never over-report: a helper must not be woken into a drained batch.
    fn queued(&self) -> usize;
}

/// How idle workers of one rung discover published batches. `publish` must
/// store the batch under a lock that [`Registry::find`] takes: the pool's
/// idle [`ParkGate`] re-checks `find`.
pub trait Registry: Default + Send + Sync + 'static {
    type Queue: TaskQueue;
    const WORKER_NAME: &'static str;

    /// Make `batch` discoverable. Returns the slot to hand back to
    /// [`Registry::retract`].
    fn publish(&self, batch: &Arc<Batch<Self::Queue>>) -> usize;
    fn retract(&self, slot: usize, batch: &Arc<Batch<Self::Queue>>);
    /// Some published batch that still wants helpers.
    fn find(&self) -> Option<Arc<Batch<Self::Queue>>>;
}

/// One `parallel()` batch: the rung's queue plus the shared accounting.
pub struct Batch<Q> {
    pub(crate) queue: Q,
    /// Tasks submitted but not yet finished executing.
    remaining: AtomicUsize,
    /// Pool workers currently helping; capped at `helper_limit` (`c − 1`) by
    /// the CAS in [`Batch::try_claim_helper`] alone.
    helpers: AtomicUsize,
    helper_limit: usize,
    /// Tasks executed by helpers, for `steal_count` and `sched_batch`.
    stolen: AtomicUsize,
    /// When the batch was published, until the first helper claims it (then
    /// 0): the publish → first-claim sample of the hand-off cost.
    published_ns: AtomicU64,
    /// Where the parent parks in [`Batch::join`]; the last finisher wakes it.
    done: ParkGate,
}

/// Marks one task finished on drop, so a panicking task still settles the
/// batch's remaining count instead of hanging the join.
struct Finish<'a, Q>(&'a Batch<Q>);

impl<Q> Drop for Finish<'_, Q> {
    fn drop(&mut self) {
        let batch = self.0;
        // SeqCst: the join's re-check reads `remaining` (park-gate contract).
        if batch.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            batch.done.wake_all();
        }
    }
}

impl<Q: TaskQueue> Batch<Q> {
    pub(crate) fn new(tasks: Vec<Task>, helper_limit: usize) -> Arc<Self> {
        Arc::new(Self {
            remaining: AtomicUsize::new(tasks.len()),
            queue: Q::new(tasks),
            helpers: AtomicUsize::new(0),
            helper_limit,
            stolen: AtomicUsize::new(0),
            published_ns: AtomicU64::new(0),
            done: ParkGate::default(),
        })
    }

    pub(crate) fn run(&self, task: Task) {
        let _finish = Finish(self);
        task();
    }

    fn is_done(&self) -> bool {
        self.remaining.load(Ordering::SeqCst) == 0
    }

    /// Wait for helpers to finish the tasks they claimed. Syscall-free when
    /// the parent ran everything itself.
    fn join(&self) {
        while !self.is_done() {
            self.done.park_unless(|| self.is_done(), IDLE_WAIT);
        }
    }

    #[cfg(test)]
    pub(crate) fn helpers(&self) -> usize {
        self.helpers.load(Ordering::SeqCst)
    }

    pub(crate) fn wants_helpers(&self) -> bool {
        self.helpers.load(Ordering::Acquire) < self.helper_limit && self.queue.queued() > 0
    }

    /// Atomically claim a helper slot: CAS-increment bounded by
    /// `helper_limit`, then re-check that work is still queued — a batch
    /// drained between the scan and the increment is backed out of, so no
    /// helper ever joins a drained batch.
    pub(crate) fn try_claim_helper(&self) -> bool {
        let claimed = self.helpers.fetch_update(Ordering::AcqRel, Ordering::Acquire, |cur| {
            (cur < self.helper_limit).then_some(cur + 1)
        });
        if claimed.is_err() {
            return false;
        }
        if self.queue.queued() > 0 {
            return true;
        }
        self.helpers.fetch_sub(1, Ordering::AcqRel);
        false
    }
}

pub struct PoolShared<R> {
    registry: R,
    /// Where idle workers park; publish, resize and drop wake it.
    idle: ParkGate,
    fault: FaultCtx,
    stats: Arc<Stats>,
    trace: TraceBus,
    shutdown: AtomicBool,
    target_size: AtomicUsize,
    live_workers: AtomicUsize,
    /// `d̄`: the parent-observed per-child time in ns; 0 = no history.
    child_ns: CostEwma,
    /// Publish → first-helper-claim in ns.
    handoff_ns: CostEwma,
}

impl<R> PoolShared<R> {
    /// Shutdown, or a shrink left this worker surplus (`SeqCst`: park re-check).
    fn retiring(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
            || self.live_workers.load(Ordering::SeqCst) > self.target_size.load(Ordering::SeqCst)
    }

    /// One sample of `d̄`: `spent_ns` of parent-observed time over `ran`
    /// tasks. The EWMA's clamp keeps one preempted batch from flipping the
    /// hand-off decision for the dozen after it.
    fn observe(&self, spent_ns: u64, ran: u64) {
        self.child_ns.observe(spent_ns / ran.max(1));
    }
}

/// Children a withheld batch runs before its next clock read: as many as
/// would fill half of the `left_ns` of hand-off budget still unspent at
/// `unit_ns` each, and at least one.
fn clock_stride(left_ns: u64, unit_ns: u64) -> usize {
    (left_ns / 2 / unit_ns.max(1)).max(1) as usize
}

/// A published batch's drain barrier: on drop it runs whatever tasks nobody
/// has claimed (none, unless the caller's own drain unwound), waits for the
/// helpers' tasks to finish, and retracts the batch. It drops on every exit
/// from [`Pool::run_published`], unwinding included, which is what lets
/// [`Pool::hand_off`] promise that no task outlives the call (the
/// `std::thread::scope` argument).
struct Published<'a, R: Registry> {
    sh: &'a PoolShared<R>,
    batch: &'a Arc<Batch<R::Queue>>,
    slot: usize,
}

impl<R: Registry> Drop for Published<'_, R> {
    fn drop(&mut self) {
        let Self { sh, batch, slot } = self;
        while let Some(task) = batch.queue.pop(false, &sh.fault) {
            let _ = catch_unwind(AssertUnwindSafe(|| batch.run(task)));
        }
        batch.join();
        sh.registry.retract(*slot, batch);
    }
}

/// A resizable pool of worker threads that help execute child batches; see
/// the module docs. [`crate::sched::WorkStealingPool`] is the shipped
/// instantiation.
///
/// Contract:
///
/// * [`Pool::run_batch`] returns only when every task has run exactly once.
/// * The *calling* thread always executes tasks alongside at most
///   `helper_limit` pool workers — this is what makes deep nesting
///   deadlock-free (a blocked parent drains its own children) and what lets
///   `helper_limit = 0` degenerate to sequential execution.
/// * A panic in a caller-executed task is re-raised on the caller only after
///   the batch has fully drained; a panic on a worker is absorbed (the txn
///   layer carries child panics in its result slots).
/// * [`Pool::resize`] may be called concurrently with in-flight batches;
///   shrinking lets surplus workers retire between tasks and never strands a
///   batch.
pub struct Pool<R: Registry> {
    shared: Arc<PoolShared<R>>,
    handles: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl<R: Registry> Pool<R> {
    /// Create a pool with `size` worker threads (0 is allowed: all batches
    /// then run entirely on their calling threads).
    pub fn new(size: usize) -> Self {
        Self::with_instruments(size, FaultCtx::disabled(), Arc::new(Stats::new()), TraceBus::new())
    }

    /// A pool wired to the runtime's fault context (`ChildStall` dispatch
    /// site), stats counters (`steal_count`, `sched_handoffs*`) and trace
    /// bus (`sched_batch` events).
    pub fn with_instruments(
        size: usize,
        fault: FaultCtx,
        stats: Arc<Stats>,
        trace: TraceBus,
    ) -> Self {
        let shared = Arc::new(PoolShared {
            registry: R::default(),
            idle: ParkGate::default(),
            fault,
            stats,
            trace,
            shutdown: AtomicBool::new(false),
            target_size: AtomicUsize::new(size),
            live_workers: AtomicUsize::new(0),
            child_ns: CostEwma::new(0),
            handoff_ns: CostEwma::new(HANDOFF_SEED_NS),
        });
        let pool = Self { shared, handles: Mutex::new(Vec::new()) };
        pool.spawn_up_to(size);
        pool
    }

    fn spawn_up_to(&self, size: usize) {
        let mut handles = self.handles.lock();
        while self.shared.live_workers.load(Ordering::Acquire) < size {
            self.shared.live_workers.fetch_add(1, Ordering::AcqRel);
            let shared = Arc::clone(&self.shared);
            handles.push(
                thread::Builder::new()
                    .name(R::WORKER_NAME.into())
                    .spawn(move || worker_loop(shared))
                    .expect("failed to spawn pnstm worker thread"),
            );
        }
        // Opportunistically reap finished handles to keep the vector bounded.
        handles.retain(|h| !h.is_finished());
    }

    /// [`Pool::hand_off`], holding a caller-side panic in `caller_panic`
    /// instead of re-raising it.
    fn run_published(
        &self,
        tasks: Vec<Task>,
        helper_limit: usize,
        caller_panic: &mut Option<Box<dyn Any + Send>>,
    ) -> usize {
        debug_assert!(helper_limit > 0, "nobody could help a published batch");
        let sh = &*self.shared;
        let n = tasks.len();
        let batch = Batch::<R::Queue>::new(tasks, helper_limit);
        batch.published_ns.store(trace::now_ns().max(1), Ordering::Relaxed);
        let published = Published { sh, slot: sh.registry.publish(&batch), batch: &batch };
        sh.idle.wake_all();
        let start = trace::now_ns(); // the hand-off is not child time
        let (mut now, mut mine) = (start, 0u64);
        while let Some(task) = batch.queue.pop(false, &sh.fault) {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| batch.run(task))) {
                caller_panic.get_or_insert(payload);
            }
            mine += 1;
            now = trace::now_ns();
        }
        // The join. Helpers that took every task leave the parent nothing to
        // observe but the batch itself; skipping the sample would freeze `d̄`
        // at whatever made the batch eager.
        drop(published);
        if mine > 0 {
            sh.observe(now - start, mine);
        } else {
            sh.observe(trace::now_ns() - start, n as u64);
        }
        let stolen = batch.stolen.load(Ordering::Relaxed);
        sh.stats.record_handoff(true);
        sh.stats.record_steals(stolen as u64);
        stolen
    }

    /// Execute `tasks` to completion with at most `helper_limit` pool
    /// workers helping the calling thread, under the hand-off rule.
    pub fn run_batch(&self, tasks: Vec<Task>, helper_limit: usize) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        let fault = &self.shared.fault;
        // The caller is always an executor. A panic in a caller-executed
        // task is held and re-raised only after the batch has drained.
        let mut state = (tasks.into_iter(), None);
        self.run_children(
            n,
            helper_limit,
            &mut state,
            |(tasks, caller_panic), _| {
                let task = tasks.next().expect("one task per index");
                dispatch_stall(fault);
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    caller_panic.get_or_insert(payload);
                }
            },
            |(tasks, caller_panic), _| {
                self.run_published(tasks.collect(), helper_limit, caller_panic)
            },
        );
        if let Some(payload) = state.1 {
            resume_unwind(payload);
        }
    }

    /// Run a batch of `n` children under the hand-off rule, and emit its one
    /// `sched_batch` event. `run(state, i)` runs child `i` on the caller;
    /// `publish(state, from)` hands children `from..n` off (through
    /// [`Pool::hand_off`] or its panic-holding twin) and returns how many of
    /// them helpers ran. Children run in index order on the
    /// caller, each exactly once, and `publish` is called at most once.
    ///
    /// This is the one withheld loop. The clock is read before the first
    /// child and after child `k + min(k, s)`, where `k` children had run at
    /// the last read and `s` is [`clock_stride`] of the hand-off budget still
    /// left; always at the end. Once the parent has spent more than one
    /// hand-off cost, the unstarted rest is published. The batch's time over
    /// the children it ran is one `d̄` sample.
    pub(crate) fn run_children<S>(
        &self,
        n: usize,
        helper_limit: usize,
        state: &mut S,
        mut run: impl FnMut(&mut S, usize),
        publish: impl FnOnce(&mut S, usize) -> usize,
    ) {
        let sh = &*self.shared;
        let handoff = if self.publish_now(n, helper_limit) {
            Some(publish(state, 0))
        } else if helper_limit == 0 {
            (0..n).for_each(|i| run(state, i));
            None
        } else {
            let (budget, child_ns) = (sh.handoff_ns.get(), sh.child_ns.get());
            let start = trace::now_ns();
            let (mut next, mut handoff) = (1, None);
            for i in 0..n {
                run(state, i);
                let ran = i + 1;
                if ran < next && ran < n {
                    continue;
                }
                let spent = trace::now_ns() - start;
                if ran == n {
                    sh.stats.record_handoff(false);
                } else if spent > budget {
                    handoff = Some(publish(state, ran));
                } else {
                    let unit = child_ns.max(spent / ran as u64);
                    next = ran + ran.min(clock_stride(budget - spent, unit));
                    continue;
                }
                sh.observe(spent, ran as u64);
                break;
            }
            handoff
        };
        trace_batch(&sh.trace, n, handoff);
    }

    /// Should a batch of `n` tasks be published before its caller runs any
    /// of it? Only when `n · d̄ · (1 − 1/c)` exceeds the hand-off cost, or the
    /// pool has no history yet; never for `helper_limit == 0` or `n == 1`.
    pub fn publish_now(&self, n: usize, helper_limit: usize) -> bool {
        self.hand_off_pays(n, self.shared.child_ns.get(), helper_limit)
    }

    /// The hand-off rule for `n` units of work of `unit_ns` each (0 = no
    /// history ⇒ true) shared by the caller and at most `helper_limit`
    /// helpers: does `n · unit_ns · (1 − 1/c)` exceed the learnt hand-off
    /// cost? [`Pool::publish_now`] asks it with the pool's `d̄`; a caller that
    /// learns its own cost per unit (the ledger's cost per transaction) asks
    /// it directly.
    pub fn hand_off_pays(&self, n: usize, unit_ns: u64, helper_limit: usize) -> bool {
        if helper_limit == 0 || n < 2 {
            return false;
        }
        if unit_ns == 0 {
            return true; // no history ⇒ eager
        }
        let c = (helper_limit + 1).min(n) as u64;
        (n as u64).saturating_mul(unit_ns) / c * (c - 1) > self.shared.handoff_ns.get()
    }

    /// Publish `tasks` now (`helper_limit > 0`; the caller has already asked
    /// the rule) and run them to completion with the caller as one executor.
    /// Samples `d̄` from the caller's own drain and counts the hand-off.
    /// Returns how many tasks helpers ran.
    ///
    /// Returns, or unwinds, only after every task has run and been dropped,
    /// so a task may borrow from the caller's stack.
    pub fn hand_off(&self, tasks: Vec<Task>, helper_limit: usize) -> usize {
        let mut caller_panic = None;
        let stolen = self.run_published(tasks, helper_limit, &mut caller_panic);
        if let Some(payload) = caller_panic {
            resume_unwind(payload);
        }
        stolen
    }

    /// Retarget the worker-thread count. Growth spawns immediately; shrink
    /// retires surplus workers after their current task.
    pub fn resize(&self, size: usize) {
        self.shared.target_size.store(size, Ordering::SeqCst);
        self.spawn_up_to(size);
        // Wake idle workers so surplus ones can observe the shrink and exit.
        self.shared.idle.wake_all();
    }

    /// The worker-thread count currently targeted.
    pub fn size(&self) -> usize {
        self.shared.target_size.load(Ordering::Acquire)
    }

    /// Live worker threads right now (lags [`Pool::size`] during resize).
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::Acquire)
    }
}

impl<R: Registry> Drop for Pool<R> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.idle.wake_all();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<R: Registry>(sh: Arc<PoolShared<R>>) {
    loop {
        if sh.retiring() {
            sh.live_workers.fetch_sub(1, Ordering::AcqRel);
            return;
        }
        // The scan is only a hint; the claim is the CAS.
        let Some(batch) = sh.registry.find().filter(|b| b.try_claim_helper()) else {
            sh.idle.park_unless(|| sh.retiring() || sh.registry.find().is_some(), IDLE_WAIT);
            continue;
        };
        let published_ns = batch.published_ns.swap(0, Ordering::Relaxed);
        if published_ns != 0 {
            let took = trace::now_ns().saturating_sub(published_ns);
            sh.handoff_ns.observe(took.clamp(HANDOFF_MIN_NS, HANDOFF_MAX_NS));
        }
        while let Some(task) = batch.queue.pop(true, &sh.fault) {
            batch.stolen.fetch_add(1, Ordering::Relaxed);
            // A panicking task must not kill the shared worker: absorb the
            // unwind (the txn layer carries child panics in its result
            // slots) and keep serving.
            let _ = catch_unwind(AssertUnwindSafe(|| batch.run(task)));
        }
        batch.helpers.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The child-task scheduler an [`crate::Stm`] runs: the shipped
/// work-stealing pool, or, with the `oracle` feature, the mutex pool beside
/// it. Each method is the [`crate::WorkStealingPool`] method of the same
/// name.
pub enum ChildScheduler {
    WorkStealing(WorkStealingPool),
    #[cfg(any(test, feature = "oracle"))]
    Mutex(crate::pool::ChildPool),
}

/// `$body` over whichever pool `$sched` holds, bound to `$pool`.
macro_rules! on_pool {
    ($sched:expr, $pool:ident => $body:expr) => {
        match $sched {
            ChildScheduler::WorkStealing($pool) => $body,
            #[cfg(any(test, feature = "oracle"))]
            ChildScheduler::Mutex($pool) => $body,
        }
    };
}

impl ChildScheduler {
    #[cfg(any(test, feature = "oracle"))]
    pub fn run_batch(&self, tasks: Vec<Task>, helper_limit: usize) {
        on_pool!(self, p => p.run_batch(tasks, helper_limit))
    }
    pub(crate) fn run_children<S>(
        &self,
        n: usize,
        helper_limit: usize,
        state: &mut S,
        run: impl FnMut(&mut S, usize),
        publish: impl FnOnce(&mut S, usize) -> usize,
    ) {
        on_pool!(self, p => p.run_children(n, helper_limit, state, run, publish))
    }
    pub fn hand_off(&self, tasks: Vec<Task>, helper_limit: usize) -> usize {
        on_pool!(self, p => p.hand_off(tasks, helper_limit))
    }
    pub fn resize(&self, size: usize) {
        on_pool!(self, p => p.resize(size))
    }
    pub fn size(&self) -> usize {
        on_pool!(self, p => p.size())
    }
    pub fn live_workers(&self) -> usize {
        on_pool!(self, p => p.live_workers())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::park::ParkOutcome;
    use crate::sched::StealDeque;
    use std::time::Duration;

    /// The last finisher wakes the joining parent: a join parked with a long
    /// timeout is ended by the helper that finishes the batch's last task.
    #[test]
    fn the_last_finisher_wakes_the_join() {
        let ran = Arc::new(AtomicBool::new(false));
        let task: Task = Box::new({
            let ran = Arc::clone(&ran);
            move || ran.store(true, Ordering::SeqCst)
        });
        let batch = Batch::<StealDeque>::new(vec![task], 1);
        let task = batch.queue.pop(true, &FaultCtx::disabled()).expect("one task queued");
        let helper = thread::spawn({
            let batch = Arc::clone(&batch);
            move || {
                while batch.done.parked() == 0 {
                    thread::yield_now();
                }
                batch.run(task);
            }
        });
        let outcome = batch.done.park_unless(|| batch.is_done(), Duration::from_secs(10));
        assert_ne!(outcome, ParkOutcome::TimedOut, "the finish did not wake the join");
        helper.join().unwrap();
        assert!(ran.load(Ordering::SeqCst) && batch.is_done());
    }
}
