//! The [`Stm`] runtime: global clock, commit stripe table, snapshot registry,
//! stats, throttle, child pool, box registry / GC, and the top-level retry
//! driver.

use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use crate::batch::ChildScheduler;
use crate::clock::{GlobalClock, SnapshotGuard, SnapshotRegistry};
use crate::cm::{self, AbortSite, CmEngine};
use crate::error::{StmError, TxError, TxResult};
use crate::fault::{FaultCtx, FaultKind, FaultPlan};
use crate::mem::{MemConfig, MemLevel, MemState, VersionHeapGauge};
use crate::park::ParkGate;
use crate::sched::WorkStealingPool;
use crate::stats::{Stats, TxKind};
use crate::stripes::StripeTable;
use crate::throttle::{PackedGate, ParallelismDegree, Permit, ReconfigError, Throttle, TopGate};
use crate::trace::{self, TraceBus, TraceEvent};
use crate::txn::Txn;
use crate::vbox::{AnyVBox, VBox};
use crate::{Oracle, TxValue};

/// Construction-time configuration of an [`Stm`] instance.
#[derive(Debug, Clone)]
pub struct StmConfig {
    /// Initial `(t, c)` parallelism degree enforced by the throttle.
    pub degree: ParallelismDegree,
    /// Size of the shared child-transaction worker pool. Defaults to the
    /// machine's available parallelism.
    pub worker_threads: usize,
    /// Retry budget for top-level transactions before
    /// [`StmError::RetriesExhausted`]. Finite by default (10 000, the same
    /// as a child's fixed budget against sibling conflicts), so no
    /// configuration retries forever.
    pub max_retries: u64,
    /// Ask for a version-GC cycle every this many versions installed by
    /// top-level commits, counted per counter shard: between requested
    /// cycles a committing shard installs at most `gc_interval` versions
    /// plus one commit. Read-only commits count nothing. 0 disables
    /// automatic GC ([`Stm::gc`] can still be called manually); 1 asks after
    /// every writing commit.
    pub gc_interval: u64,
    /// Deterministic fault-injection plan for chaos testing
    /// ([`crate::fault`]). `None` (the default) disables the layer: every
    /// injection site then costs a single branch.
    pub fault: Option<Arc<FaultPlan>>,
    /// Memory-robustness configuration: snapshot leases and the
    /// degradation-ladder ceilings (see [`MemConfig`]).
    pub mem: MemConfig,
}

impl Default for StmConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self {
            degree: ParallelismDegree::new(cores, 1),
            worker_threads: cores,
            max_retries: 10_000,
            gc_interval: 4096,
            fault: None,
            mem: MemConfig::default(),
        }
    }
}

/// Wakeup channel between committers and the background collector thread:
/// request bits the collector parks on.
#[derive(Default)]
struct GcCtl {
    /// `GC_PENDING | GC_URGENT | GC_SHUTDOWN`, written `SeqCst` (the park
    /// gate's contract).
    flags: AtomicU8,
    gate: ParkGate,
}

/// [`GcCtl`] bits: a cycle was requested since the collector last ran; that
/// request came from the degradation ladder; the owning [`Stm`] is dropping.
const GC_PENDING: u8 = 1;
const GC_URGENT: u8 = 2;
const GC_SHUTDOWN: u8 = 4;

/// How often the idle collector wakes up anyway, so lease expiry is noticed
/// (and evicted snapshots stop pinning the watermark) even when no commits
/// arrive to nudge it.
const GC_IDLE_WAKEUP: Duration = Duration::from_millis(50);

/// Boxes pruned per GC slice before the collector yields the CPU. A sweep
/// of the level found none faster than 128 (DESIGN §5j).
const GC_SLICE_BOXES: usize = 128;

impl GcCtl {
    fn nudge(&self, urgent: bool) {
        self.flags.fetch_or(GC_PENDING | (u8::from(urgent) * GC_URGENT), Ordering::SeqCst);
        self.gate.wake_one();
    }

    fn shutdown(&self) {
        self.flags.fetch_or(GC_SHUTDOWN, Ordering::SeqCst);
        self.gate.wake_all();
    }

    /// Park until a nudge, shutdown or `idle` passes, then take the request:
    /// `None` on shutdown, else whether the cycle is urgent.
    fn next_cycle(&self, idle: Duration) -> Option<bool> {
        self.gate.park_unless(|| self.flags.load(Ordering::SeqCst) != 0, idle);
        let flags = self.flags.fetch_and(GC_SHUTDOWN, Ordering::SeqCst);
        (flags & GC_SHUTDOWN == 0).then_some(flags & GC_URGENT != 0)
    }
}

pub(crate) struct StmShared {
    clock: GlobalClock,
    stripes: StripeTable,
    registry: SnapshotRegistry,
    stats: Arc<Stats>,
    throttle: Throttle,
    pool: ChildScheduler,
    boxes: Mutex<Vec<Weak<dyn AnyVBox>>>,
    config: StmConfig,
    trace: TraceBus,
    fault: FaultCtx,
    cm: CmEngine,
    mem_state: MemState,
    gc_ctl: Arc<GcCtl>,
    /// Serializes GC cycles (background thread vs manual [`Stm::gc`] vs
    /// inline committers): the sweep cursor is cycle-local, so two
    /// interleaved sweeps over a mutating registry could skip boxes.
    /// Committers never take this lock.
    gc_cycle_lock: Mutex<()>,
    gc_join: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// The retired rung this instance runs, if any ([`Stm::with_oracle`]).
    #[cfg(any(test, feature = "oracle"))]
    oracle: Option<Oracle>,
    /// The [`Oracle::GlobalLock`] commit lock.
    #[cfg(any(test, feature = "oracle"))]
    commit_lock: Mutex<()>,
}

impl StmShared {
    pub(crate) fn clock(&self) -> &GlobalClock {
        &self.clock
    }
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) fn oracle(&self) -> Option<Oracle> {
        self.oracle
    }
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) fn commit_lock(&self) -> &Mutex<()> {
        &self.commit_lock
    }
    pub(crate) fn stripes(&self) -> &StripeTable {
        &self.stripes
    }
    pub(crate) fn stats(&self) -> &Stats {
        &self.stats
    }
    pub(crate) fn throttle(&self) -> &Throttle {
        &self.throttle
    }
    pub(crate) fn pool(&self) -> &ChildScheduler {
        &self.pool
    }
    pub(crate) fn trace(&self) -> &TraceBus {
        &self.trace
    }
    pub(crate) fn fault(&self) -> &FaultCtx {
        &self.fault
    }
    pub(crate) fn cm(&self) -> &CmEngine {
        &self.cm
    }

    /// Sleep out a nonzero contention-manager `wait` in interruptible
    /// slices, then count and trace it. Returns whether admission shutdown
    /// cut the wait short.
    pub(crate) fn cm_sleep(&self, wait: Duration, site: AbortSite, attempt: u64) -> bool {
        let (waited_ns, cancelled) = cm::sleep_interruptible(wait, || self.throttle.is_closed());
        self.stats.record_cm_wait(waited_ns);
        if self.trace.is_enabled() {
            self.trace.emit(TraceEvent::CmDecision {
                site,
                waited_ns,
                attempt,
                at_ns: trace::now_ns(),
            });
        }
        cancelled
    }

    pub(crate) fn register_vbox<T: TxValue>(&self, initial: T) -> VBox<T> {
        let vbox = VBox::new_raw_gauged(initial, Arc::clone(self.stats.gauge()));
        let erased: Arc<dyn AnyVBox> = vbox.body.clone();
        self.boxes.lock().push(Arc::downgrade(&erased));
        vbox
    }

    /// One full GC pass over the box registry, in bounded slices of at most
    /// [`GC_SLICE_BOXES`] boxes. The registry lock is held only while a
    /// slice's strong references are collected (O(slice)), never while
    /// chains are pruned, and the collector yields the CPU between slices —
    /// so neither `register_vbox` nor any commit waits behind a whole-heap
    /// sweep. Returns the number of boxes whose chains shrank.
    ///
    /// The background collector and the [`Oracle::InlineGc`] committer run
    /// this same function: the two can only differ in *when* versions are
    /// pruned, never in *which*.
    fn run_gc_cycle(&self, urgent: bool) -> usize {
        let _cycle = self.gc_cycle_lock.lock();
        let mut cursor = 0usize;
        let mut slices: u64 = 0;
        let mut pruned_versions: u64 = 0;
        let mut pruned_boxes = 0usize;
        loop {
            // Chaos site: a stalled collector must only delay pruning, never
            // block commits or admissions (it holds no lock while stalled).
            if let Some(action) = self.fault.inject(FaultKind::GcStall) {
                action.stall();
            }
            let mut slice: Vec<Arc<dyn AnyVBox>> = Vec::with_capacity(GC_SLICE_BOXES);
            {
                let mut boxes = self.boxes.lock();
                while cursor < boxes.len() && slice.len() < GC_SLICE_BOXES {
                    match boxes[cursor].upgrade() {
                        Some(b) => {
                            slice.push(b);
                            cursor += 1;
                        }
                        // Dropped box: compact, then re-examine the element
                        // swapped in from the tail (the cursor stays put).
                        None => {
                            boxes.swap_remove(cursor);
                        }
                    }
                }
            }
            if slice.is_empty() {
                break;
            }
            slices += 1;
            // The watermark is recomputed per slice (it only grows, so later
            // slices may prune more — never less safely). Computing it also
            // expires overdue leases, whose snapshots stop pinning it; the
            // clock is read before a fence that precedes the slot reads, so
            // an in-flight registration cannot be overtaken.
            let (watermark, evicted) = self.registry.gc_watermark_evicting(&self.clock);
            self.stats.record_snapshot_evictions(evicted as u64);
            for b in &slice {
                let pruned = b.prune_below(watermark);
                if pruned > 0 {
                    pruned_versions += pruned as u64;
                    pruned_boxes += 1;
                }
            }
            std::thread::yield_now();
        }
        self.stats.record_gc_cycle(slices, pruned_versions);
        if self.trace.is_enabled() {
            let gauge = self.stats.gauge();
            self.trace.emit(TraceEvent::MemPressure {
                retained_versions: gauge.retained_versions(),
                retained_bytes: gauge.retained_bytes(),
                pruned: pruned_versions,
                slices,
                urgent,
                at_ns: trace::now_ns(),
            });
        }
        // A cycle is the natural recovery point: the gauge just shrank.
        // (`in_gc_cycle` — an inline escalation here must not recurse into
        // another cycle while this one holds the cycle lock; this sweep
        // already was the urgent GC.)
        self.check_mem_pressure(true);
        pruned_boxes
    }

    /// Evaluate the degradation ladder against the live gauge; the winner of
    /// a level transition enacts its side effects. One relaxed load and a
    /// compare on the no-transition path.
    fn check_mem_pressure(&self, in_gc_cycle: bool) {
        let retained = self.stats.gauge().retained_versions();
        if let Some((from, to)) = self.mem_state.transition(retained) {
            self.enact_mem_transition(from, to, retained, in_gc_cycle);
        }
    }

    fn enact_mem_transition(&self, from: MemLevel, to: MemLevel, retained: u64, in_gc_cycle: bool) {
        self.stats.record_mem_degraded(to);
        if self.trace.is_enabled() {
            self.trace.emit(TraceEvent::MemDegraded {
                from,
                to,
                retained_versions: retained,
                at_ns: trace::now_ns(),
            });
        }
        match to {
            MemLevel::Normal => {
                self.throttle.clear_pressure_cap();
                self.registry.set_lease(self.config.mem.snapshot_lease);
            }
            MemLevel::Soft | MemLevel::Hard => {
                if to == MemLevel::Hard {
                    // Backpressure: one top-level transaction at a time.
                    // In-flight transactions drain under their old admission.
                    self.throttle.set_pressure_cap(1);
                } else {
                    self.throttle.clear_pressure_cap();
                }
                if from < to {
                    // Escalation: shorten the lease for new snapshots and
                    // clamp in-flight ones, then demand an urgent cycle so
                    // the newly unpinned versions are actually reclaimed.
                    // Unleased registrations (leases disabled) are exempt —
                    // the ladder then degrades throughput but never
                    // correctness.
                    let urgent = self.config.mem.urgent_lease;
                    self.registry.set_lease(Some(urgent));
                    self.registry.clamp_deadlines(urgent);
                    self.request_cycle(true, in_gc_cycle);
                }
            }
        }
    }

    /// Pace the collector after a top-level commit that installed
    /// `versions`.
    fn maybe_auto_gc(&self, versions: u64) {
        // Ladder check on every commit: a relaxed load and a compare unless
        // a ceiling was crossed.
        self.check_mem_pressure(false);
        let interval = self.config.gc_interval;
        if interval != 0 && versions != 0 && self.stats.gc_due(versions, interval) {
            self.request_cycle(false, false);
        }
    }

    /// Ask for a GC cycle: an O(1) commit-path pause that wakes the
    /// collector and moves on. Under [`Oracle::InlineGc`] the caller sweeps
    /// itself, unless it is already inside a sweep — that one reclaims under
    /// the just-shortened leases on its next slices.
    fn request_cycle(&self, urgent: bool, in_gc_cycle: bool) {
        #[cfg(any(test, feature = "oracle"))]
        if self.oracle == Some(Oracle::InlineGc) {
            if !in_gc_cycle {
                self.run_gc_cycle(urgent);
            }
            return;
        }
        let _ = in_gc_cycle; // read by the inline oracle only
        self.gc_ctl.nudge(urgent);
    }
}

impl Drop for StmShared {
    fn drop(&mut self) {
        self.gc_ctl.shutdown();
        if let Some(handle) = self.gc_join.get_mut().take() {
            // The collector holds only a `Weak` to this struct, but it
            // upgrades per cycle — if the user dropped their last handle
            // mid-cycle, *this* drop runs on the collector thread itself.
            // Detach instead of self-joining; the loop exits on the shutdown
            // flag it can no longer miss.
            if handle.thread().id() != std::thread::current().id() {
                let _ = handle.join();
            }
        }
    }
}

/// Body of the background collector thread: wait for a nudge (or the idle
/// wakeup, so lease expiry is detected without commit traffic), run one
/// supervised cycle, repeat until shutdown. A panicking cycle is absorbed
/// and counted ([`StatsSnapshot::gc_thread_panics`]) — the supervisor
/// loop itself is the watchdog restart.
fn gc_thread_main(ctl: Arc<GcCtl>, weak: Weak<StmShared>, idle: Duration) {
    while let Some(urgent) = ctl.next_cycle(idle) {
        // Upgrade per cycle: holding a strong reference across the wait
        // would turn the collector into a leak (the registry can never drop).
        let Some(shared) = weak.upgrade() else { return };
        if catch_unwind(AssertUnwindSafe(|| {
            shared.run_gc_cycle(urgent);
        }))
        .is_err()
        {
            shared.stats.record_gc_thread_panic();
        }
    }
}

/// A parallel-nesting software transactional memory instance.
///
/// `Stm` is cheaply cloneable (`Arc` inside); clones share all state. See the
/// crate-level docs for a usage example.
#[derive(Clone)]
pub struct Stm {
    shared: Arc<StmShared>,
}

impl Stm {
    /// Create an STM instance with the given configuration.
    pub fn new(config: StmConfig) -> Self {
        Self::build(config, None, cm::DEFAULT_BACKOFF_BASE_NS)
    }

    /// [`Stm::new`] with a non-default base delay for the backoff rung, for
    /// tests that need a wait long enough to observe from outside.
    #[cfg(test)]
    pub(crate) fn with_backoff_base(config: StmConfig, base_backoff_ns: u64) -> Self {
        Self::build(config, None, base_backoff_ns)
    }

    /// [`Stm::new`] running the retired rung `oracle` in place of its
    /// shipped counterpart (`None` runs the shipped rungs).
    #[cfg(any(test, feature = "oracle"))]
    pub fn with_oracle(config: StmConfig, oracle: Option<Oracle>) -> Self {
        Self::build(config, oracle, cm::DEFAULT_BACKOFF_BASE_NS)
    }

    fn build(config: StmConfig, oracle: Option<Oracle>, base_backoff_ns: u64) -> Self {
        let trace = TraceBus::new();
        let fault = FaultCtx::new(config.fault.clone(), trace.clone());
        let stats = Arc::new(Stats::new());
        let t = config.degree.top_level;
        let (pool, gate) = match oracle {
            #[cfg(any(test, feature = "oracle"))]
            Some(Oracle::MutexSched) => (
                ChildScheduler::Mutex(crate::pool::ChildPool::with_instruments(
                    config.worker_threads,
                    fault.clone(),
                    Arc::clone(&stats),
                    trace.clone(),
                )),
                TopGate::Semaphore(crate::oracle::ResizableSemaphore::new(t)),
            ),
            _ => (
                ChildScheduler::WorkStealing(WorkStealingPool::with_instruments(
                    config.worker_threads,
                    fault.clone(),
                    Arc::clone(&stats),
                    trace.clone(),
                )),
                TopGate::Packed(PackedGate::with_stats(t, Arc::clone(&stats))),
            ),
        };
        let collector = match oracle {
            #[cfg(any(test, feature = "oracle"))]
            Some(Oracle::InlineGc) => false,
            _ => true,
        };
        let cm = match oracle {
            #[cfg(any(test, feature = "oracle"))]
            Some(Oracle::ImmediateCm) => CmEngine::new(0),
            _ => CmEngine::new(base_backoff_ns),
        };
        let registry = SnapshotRegistry::new();
        registry.set_lease(config.mem.snapshot_lease);
        let mem_state = MemState::new(&config.mem);
        let shared = Arc::new(StmShared {
            clock: GlobalClock::new(),
            stripes: StripeTable::new(),
            registry,
            stats,
            throttle: Throttle::over(config.degree, trace.clone(), fault.clone(), gate),
            pool,
            boxes: Mutex::new(Vec::new()),
            config,
            trace,
            fault,
            cm,
            mem_state,
            gc_ctl: Arc::new(GcCtl::default()),
            gc_cycle_lock: Mutex::new(()),
            gc_join: Mutex::new(None),
            #[cfg(any(test, feature = "oracle"))]
            oracle,
            #[cfg(any(test, feature = "oracle"))]
            commit_lock: Mutex::new(()),
        });
        if collector {
            let ctl = Arc::clone(&shared.gc_ctl);
            let weak = Arc::downgrade(&shared);
            let handle = std::thread::Builder::new()
                .name("pnstm-gc".into())
                .spawn(move || gc_thread_main(ctl, weak, GC_IDLE_WAKEUP))
                .expect("spawn GC thread");
            *shared.gc_join.lock() = Some(handle);
        }
        Self { shared }
    }

    /// Create a new transactional box holding `initial`.
    pub fn new_vbox<T: TxValue>(&self, initial: T) -> VBox<T> {
        self.shared.register_vbox(initial)
    }

    /// Run `body` as a top-level transaction, retrying on conflicts.
    ///
    /// Admission is gated by the throttle's top-level semaphore: at most `t`
    /// transactions run concurrently. The body may be re-executed; it must
    /// not have non-transactional side effects it cannot repeat.
    pub fn atomic<R>(&self, body: impl FnMut(&mut Txn<'_>) -> TxResult<R>) -> Result<R, StmError> {
        if let Some(action) = self.shared.fault.inject(FaultKind::AdmissionStall) {
            action.stall();
        }
        let permit = self.admit()?;
        self.atomic_admitted(permit, body)
    }

    /// Take a top-level admission. Every admission is counted; only one that
    /// had to wait is timed and traced (the gate's fast path reads no
    /// clock).
    fn admit(&self) -> Result<Permit, StmError> {
        let (permit, wait_ns) = self.shared.throttle.admit_top_level().ok_or(StmError::Shutdown)?;
        self.shared.stats.record_sem_wait(wait_ns);
        if wait_ns > 0 && self.shared.trace.is_enabled() {
            self.shared.trace.emit(TraceEvent::SemWait { wait_ns });
        }
        Ok(permit)
    }

    /// Run `body` as a top-level transaction under a `permit` the caller
    /// already holds — the batched-admission entry point: the ingress front
    /// door acquires one [`crate::Throttle::admit_batch`] of permits per
    /// dequeued batch (amortizing the admission gate) and runs each request
    /// through here. The permit must come from this instance's
    /// [`Stm::throttle`]; it is consumed (released when the transaction
    /// finishes, or earlier if a long contention-manager wait gives the slot
    /// up — the retry loop re-admits as usual).
    pub fn atomic_admitted<R>(
        &self,
        permit: Permit,
        mut body: impl FnMut(&mut Txn<'_>) -> TxResult<R>,
    ) -> Result<R, StmError> {
        let trace = &self.shared.trace;
        let mut permit = Some(permit);
        if trace.is_enabled() {
            trace.emit(TraceEvent::TxBegin { kind: TxKind::TopLevel, at_ns: trace::now_ns() });
        }
        // The contention manager's jitter seed, taken at the first abort:
        // a call that commits first time touches no shared ticket counter.
        let mut ticket = None;
        let mut aborts: u64 = 0;
        loop {
            // Re-admit if a long contention-manager wait released the slot.
            if permit.is_none() {
                permit = Some(self.admit()?);
            }
            // The attempt runs in its own scope so the snapshot registration
            // and the attempt's `Txn` are dropped before any backoff wait —
            // a sleeping loser must not pin the GC watermark.
            let site = {
                let snap = self.shared.registry.register_current(&self.shared.clock);
                let mut tx = Txn::top(&self.shared, snap.version(), snap.slot());
                match body(&mut tx) {
                    Ok(value) => match tx.commit_top() {
                        Ok(versions) => {
                            // Unregister before pacing the collector: a
                            // cycle this commit asks for must not keep the
                            // versions it just superseded.
                            drop(tx);
                            drop(snap);
                            self.shared.stats.record_commit_top();
                            if trace.is_enabled() {
                                trace.emit(TraceEvent::TxCommit {
                                    kind: TxKind::TopLevel,
                                    retries: aborts,
                                    at_ns: trace::now_ns(),
                                });
                            }
                            self.shared.maybe_auto_gc(versions);
                            return Ok(value);
                        }
                        Err(TxError::Conflict) if tx.snapshot_evicted() => AbortSite::Evicted,
                        Err(TxError::Conflict) => AbortSite::Commit,
                        Err(_) => unreachable!("commit_top only fails with Conflict"),
                    },
                    Err(TxError::UserAbort) => {
                        self.shared.stats.record_abort_top();
                        if trace.is_enabled() {
                            trace.emit(TraceEvent::TxAbort {
                                kind: TxKind::TopLevel,
                                retries: aborts + 1,
                                at_ns: trace::now_ns(),
                            });
                        }
                        return Err(StmError::UserAborted);
                    }
                    Err(TxError::Conflict) | Err(TxError::ChildPanic) => {
                        // A child exhausted its sibling-conflict budget (or
                        // the body surfaced a conflict): abort the tree. An
                        // evicted tree escalates here too — the retry below
                        // re-registers on a fresh (live) snapshot.
                        if tx.snapshot_evicted() {
                            AbortSite::Evicted
                        } else {
                            AbortSite::Top
                        }
                    }
                }
            };
            if site == AbortSite::Evicted {
                self.shared.stats.record_evicted_abort();
            }
            self.record_top_abort_traced(&mut aborts)?;
            let ticket = *ticket.get_or_insert_with(|| self.shared.cm.begin());
            self.cm_pause_top(ticket, site, aborts, &mut permit)?;
        }
    }

    /// Consult the contention manager after a top-level abort and execute
    /// its decision. Long waits release the admission permit first (the
    /// retry loop re-admits); admission shutdown cuts any wait short with
    /// [`StmError::Shutdown`], so backing-off transactions drain as promptly
    /// as parked ones.
    fn cm_pause_top(
        &self,
        ticket: u64,
        site: AbortSite,
        attempt: u64,
        permit: &mut Option<Permit>,
    ) -> Result<(), StmError> {
        let wait = self.shared.cm.backoff(ticket, attempt);
        if wait.is_zero() {
            return Ok(());
        }
        if wait.as_nanos() as u64 >= cm::PERMIT_RELEASE_THRESHOLD_NS {
            *permit = None; // don't occupy an admission slot while asleep
        }
        if self.shared.cm_sleep(wait, site, attempt) {
            return Err(StmError::Shutdown);
        }
        Ok(())
    }

    /// Shared conflict-abort bookkeeping of the retry loop: count the abort,
    /// trace it, and surface [`StmError::RetriesExhausted`] once the budget
    /// is spent.
    fn record_top_abort_traced(&self, aborts: &mut u64) -> Result<(), StmError> {
        self.shared.stats.record_abort_top();
        *aborts += 1;
        let trace = &self.shared.trace;
        if trace.is_enabled() {
            trace.emit(TraceEvent::TxAbort {
                kind: TxKind::TopLevel,
                retries: *aborts,
                at_ns: trace::now_ns(),
            });
        }
        if *aborts >= self.shared.config.max_retries {
            return Err(StmError::RetriesExhausted { attempts: *aborts });
        }
        Ok(())
    }

    /// Run a read-only transaction. Takes no admission permit (multi-version
    /// reads are invisible to writers) and never conflicts; under snapshot
    /// leasing a *long-running* reader can however be evicted — use
    /// [`ReadTxn::try_read`] to observe that instead of panicking.
    pub fn read_only<R>(&self, body: impl FnOnce(&mut ReadTxn<'_>) -> R) -> R {
        let snap = self.shared.registry.register_current(&self.shared.clock);
        let mut tx = ReadTxn { shared: &self.shared, snap };
        body(&mut tx)
    }

    /// Convenience: read a single box at the current global version.
    pub fn read_atomic<T: TxValue>(&self, vbox: &VBox<T>) -> T {
        self.read_only(|tx| tx.read(vbox))
    }

    /// The current global version clock value (number of commits that
    /// installed writes).
    pub fn clock_now(&self) -> u64 {
        self.shared.clock.now()
    }

    /// STM activity counters and the commit hook.
    pub fn stats(&self) -> &Stats {
        &self.shared.stats
    }

    /// An owning handle to the same counters, for host systems that wire
    /// their own `pnstm::sched` pools to this instance's instruments (the
    /// ledger's block executor does this).
    pub fn stats_handle(&self) -> Arc<Stats> {
        Arc::clone(&self.shared.stats)
    }

    /// The admission controller, for the AutoPN actuator.
    pub fn throttle(&self) -> &Throttle {
        &self.shared.throttle
    }

    /// Apply a new `(t, c)` configuration (shorthand for
    /// `throttle().reconfigure(..)`, plus reconfiguration accounting).
    pub fn set_degree(&self, degree: ParallelismDegree) {
        let prev = self.shared.throttle.reconfigure(degree);
        if prev != degree {
            self.shared.stats.record_reconfigure();
        }
    }

    /// Fallible [`Stm::set_degree`]: the attempt may be vetoed by the fault
    /// layer ([`FaultKind::ReconfigFail`]); the previous configuration then
    /// stays in force. Controllers retry/back off on `Err` (see
    /// `autopn`'s degradation ladder).
    pub fn try_set_degree(&self, degree: ParallelismDegree) -> Result<(), ReconfigError> {
        let prev = self.shared.throttle.try_reconfigure(degree)?;
        if prev != degree {
            self.shared.stats.record_reconfigure();
        }
        Ok(())
    }

    /// Stop admitting top-level transactions: [`Stm::atomic`] calls — both
    /// new arrivals and threads already parked on the admission gate —
    /// return [`StmError::Shutdown`] instead of blocking. Running
    /// transactions are unaffected. Used by host systems to shut down worker
    /// loops that might be blocked on a starved gate.
    pub fn close_admission(&self) {
        self.shared.throttle.close();
    }

    /// Resume admission after [`Stm::close_admission`].
    pub fn reopen_admission(&self) {
        self.shared.throttle.reopen();
    }

    /// The fault-injection context of this instance (the configured plan, if
    /// any, bound to this STM's trace bus). Host systems use it to consult
    /// app-level injection sites (worker panics, clock jitter) against the
    /// same deterministic plan as the runtime's own sites.
    pub fn fault_ctx(&self) -> &FaultCtx {
        self.shared.fault()
    }

    /// The trace-event bus of this STM instance. Subscribe a sink
    /// ([`crate::TestSink`], [`crate::RingSink`], [`crate::JsonlSink`]) to
    /// observe transaction, admission and reconfiguration events; with no
    /// sinks the runtime pays one atomic load per emission site.
    pub fn trace_bus(&self) -> &TraceBus {
        &self.shared.trace
    }

    /// The `(t, c)` configuration currently in force.
    pub fn degree(&self) -> ParallelismDegree {
        self.shared.throttle.current()
    }

    /// Resize the shared child-transaction worker pool.
    pub fn resize_pool(&self, workers: usize) {
        self.shared.pool.resize(workers);
    }

    /// The worker-thread count the scheduler currently targets.
    pub fn pool_size(&self) -> usize {
        self.shared.pool.size()
    }

    /// Live scheduler worker threads right now (lags [`Stm::pool_size`]
    /// while a resize converges).
    pub fn pool_live_workers(&self) -> usize {
        self.shared.pool.live_workers()
    }

    /// Garbage-collect box versions no live snapshot can read, synchronously
    /// on this thread (expired leases are evicted as a side effect). Returns
    /// the number of boxes whose chains were shortened.
    pub fn gc(&self) -> usize {
        self.shared.run_gc_cycle(false)
    }

    /// The degradation-ladder level currently in force.
    pub fn mem_level(&self) -> MemLevel {
        self.shared.mem_state.level()
    }

    /// The live version-heap gauge (shared with [`Stats::gauge`]).
    pub fn heap_gauge(&self) -> &Arc<VersionHeapGauge> {
        self.shared.stats.gauge()
    }

    /// The snapshot lease currently in force (`None` = leasing disabled).
    /// While the ladder is degraded this reads the urgent lease.
    pub fn snapshot_lease(&self) -> Option<Duration> {
        self.shared.registry.lease()
    }
}

impl std::fmt::Debug for Stm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stm")
            .field("clock", &self.clock_now())
            .field("degree", &self.degree())
            .field("stats", &self.stats().snapshot())
            .finish()
    }
}

/// A read-only transaction: a pinned snapshot with non-blocking reads.
///
/// Under snapshot leasing ([`MemConfig::snapshot_lease`]) the pin is not
/// unconditional: a reader that outlives its lease is evicted and subsequent
/// reads of pruned chains fail with [`StmError::SnapshotEvicted`]. Reads
/// that still find a version ≤ the snapshot keep succeeding — eviction
/// *permits* pruning, it doesn't rewind chains.
///
/// It borrows its [`Stm`]: taking and ending one touches no shared
/// reference count.
pub struct ReadTxn<'a> {
    shared: &'a StmShared,
    snap: SnapshotGuard<'a>,
}

impl ReadTxn<'_> {
    /// Read `vbox` at this transaction's snapshot.
    ///
    /// Panics if the snapshot was evicted *and* the GC has already pruned
    /// past it on this box; long-running readers that must survive eviction
    /// use [`ReadTxn::try_read`].
    pub fn read<T: TxValue>(&mut self, vbox: &VBox<T>) -> T {
        self.try_read(vbox).unwrap_or_else(|e| {
            panic!("ReadTxn::read at snapshot {}: {e} (use try_read)", self.snap.version())
        })
    }

    /// Read `vbox` at this transaction's snapshot, surfacing lease eviction
    /// as [`StmError::SnapshotEvicted`] instead of panicking.
    pub fn try_read<T: TxValue>(&mut self, vbox: &VBox<T>) -> Result<T, StmError> {
        match vbox.body.read_at(self.snap.version()) {
            Ok(v) => Ok(v),
            Err(floor) => {
                if self.snap.is_evicted() {
                    return Err(StmError::SnapshotEvicted);
                }
                // A registered, unexpired snapshot must always find a
                // version: the watermark is its lower bound. Anything else
                // is a GC bug — count it, then fail loudly.
                self.shared.stats.record_read_below_floor();
                panic!(
                    "vbox {}: no version <= registered snapshot {} (oldest retained: {}); \
                     GC invariant violated",
                    vbox.id(),
                    self.snap.version(),
                    floor.oldest
                );
            }
        }
    }

    /// Whether this reader's snapshot lease has expired and been evicted
    /// (reads may still succeed until the GC prunes past the snapshot).
    pub fn is_evicted(&self) -> bool {
        self.snap.is_evicted()
    }

    /// The snapshot version being read.
    pub fn version(&self) -> u64 {
        self.snap.version()
    }
}

#[cfg(test)]
mod tests {
    //! Contention-manager waits long enough to observe from outside: these
    //! need a backoff base far above the shipped one, which is not a public
    //! knob.

    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::time::Instant;

    #[test]
    fn backing_off_writer_releases_its_admission_token() {
        // t = 1: a single admission token. A transaction entering a long CM
        // wait must surrender it so an unrelated transaction can run *during*
        // the wait — a parked loser holding the only token would serialize
        // the whole system behind its sleep.
        let stm = Stm::with_backoff_base(
            StmConfig {
                degree: ParallelismDegree::new(1, 1),
                worker_threads: 1,
                ..StmConfig::default()
            },
            // Base far above PERMIT_RELEASE_THRESHOLD_NS: the second abort's
            // wait is 50 ms ± 25 % jitter, so the token must be released.
            50_000_000,
        );
        let cell = stm.new_vbox(0i64);
        let in_backoff = Arc::new(AtomicBool::new(false));

        let loser = std::thread::spawn({
            let stm = stm.clone();
            let cell = cell.clone();
            let in_backoff = Arc::clone(&in_backoff);
            let attempts = AtomicU64::new(0);
            move || {
                stm.atomic(move |tx| {
                    // Force two aborts: the first retries at once, the
                    // second schedules the long wait.
                    match attempts.fetch_add(1, Ordering::Relaxed) {
                        0 => return Err(TxError::Conflict),
                        1 => {
                            in_backoff.store(true, Ordering::Release);
                            return Err(TxError::Conflict);
                        }
                        _ => {}
                    }
                    tx.write(&cell, 7);
                    Ok(())
                })
            }
        });

        while !in_backoff.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // The loser is aborting / about to sleep ~50 ms. An unrelated
        // transaction must get the (sole) token and finish well inside that
        // window — if the sleeper kept it, this would block ~50 ms.
        let other = stm.new_vbox(0i64);
        let start = Instant::now();
        stm.atomic(|tx| {
            tx.write(&other, 1);
            Ok(())
        })
        .expect("unrelated transaction commits during the backoff");
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(30),
            "unrelated txn waited {elapsed:?} behind a backing-off writer's token"
        );

        loser.join().unwrap().expect("loser retries and commits after its wait");
        assert_eq!(stm.read_atomic(&cell), 7);
        assert_eq!(stm.read_atomic(&other), 1);
        let snap = stm.stats().snapshot();
        assert_eq!(snap.cm_waits, 1, "only the second abort waits");
    }

    /// A nudge that lands while the collector runs a cycle is served by the
    /// next cycle at once. The collector here idles for an hour, so only the
    /// second nudge can start its second cycle.
    #[test]
    fn a_gc_nudge_during_a_cycle_is_served_without_the_idle_wakeup() {
        let config = StmConfig { gc_interval: 0, ..StmConfig::default() };
        let stm = Stm::with_oracle(config, Some(Oracle::InlineGc));
        let sh = &stm.shared;
        let collector = std::thread::spawn({
            let (ctl, weak) = (Arc::clone(&sh.gc_ctl), Arc::downgrade(sh));
            move || gc_thread_main(ctl, weak, Duration::from_secs(3600))
        });
        let wait_until = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "timed out waiting until {what}");
                std::thread::yield_now();
            }
        };
        // The first cycle blocks on the cycle lock: it "runs" until released.
        let cycle = sh.gc_cycle_lock.lock();
        sh.gc_ctl.nudge(false);
        wait_until("the collector took the first request", &|| {
            sh.gc_ctl.flags.load(Ordering::SeqCst) == 0
        });
        sh.gc_ctl.nudge(true);
        drop(cycle);
        wait_until("the second cycle ran", &|| sh.stats.snapshot().gc_cycles >= 2);
        drop(stm);
        collector.join().unwrap();
    }

    #[test]
    fn shutdown_during_cm_wait_returns_promptly() {
        // A transaction parked in a multi-second backoff is morally idle:
        // closing admission must wake it with `Shutdown` within a wait
        // slice, not after the full backoff elapses.
        let stm = Stm::with_backoff_base(
            StmConfig { worker_threads: 1, ..StmConfig::default() },
            3_000_000_000,
        );
        let in_backoff = Arc::new(AtomicBool::new(false));
        let sleeper = std::thread::spawn({
            let stm = stm.clone();
            let in_backoff = Arc::clone(&in_backoff);
            let attempts = AtomicU64::new(0);
            move || {
                stm.atomic(move |_tx| -> TxResult<()> {
                    // The second abort is the first that waits.
                    if attempts.fetch_add(1, Ordering::Relaxed) >= 1 {
                        in_backoff.store(true, Ordering::Release);
                    }
                    Err(TxError::Conflict)
                })
            }
        });
        while !in_backoff.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        // Give the aborting attempt a moment to actually enter its sleep.
        std::thread::sleep(Duration::from_millis(10));
        let closed_at = Instant::now();
        stm.close_admission();
        let result = sleeper.join().unwrap();
        let woke_after = closed_at.elapsed();
        assert_eq!(result, Err(StmError::Shutdown));
        assert!(
            woke_after < Duration::from_millis(500),
            "CM wait ignored shutdown for {woke_after:?} (backoff base is 3 s)"
        );
        stm.reopen_admission();
        // The instance stays usable after the aborted wait.
        let cell = stm.new_vbox(0i32);
        stm.atomic(|tx| {
            tx.write(&cell, 1);
            Ok(())
        })
        .expect("STM usable after reopen");
        assert_eq!(stm.read_atomic(&cell), 1);
    }
}
