//! Commit/abort accounting and the commit-event hook consumed by the AutoPN
//! KPI monitor.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::mem::VersionHeapGauge;

/// Which kind of transaction an event refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxKind {
    /// A top-level (root) transaction.
    TopLevel,
    /// A nested (child) transaction at any depth.
    Nested,
}

/// Event published on every successful top-level commit.
///
/// The AutoPN monitor computes per-commit throughput estimates from the
/// stream of these events (§VI of the paper).
#[derive(Debug, Clone, Copy)]
pub struct CommitEvent {
    /// Wall-clock instant of the commit.
    pub at: Instant,
    /// Running count of top-level commits including this one.
    pub seq: u64,
}

type CommitHook = Arc<dyn Fn(CommitEvent) + Send + Sync>;

/// A retired commit-hook allocation, parked until [`Stats`] drops because a
/// concurrent `record_commit_top` may still be calling through it.
struct RetiredHook(*mut CommitHook);
// SAFETY: the pointer is only ever dereferenced via `Box::from_raw` in
// `Stats::drop`, with exclusive access.
unsafe impl Send for RetiredHook {}

/// Atomic counters describing STM activity, plus an optional commit hook.
pub struct Stats {
    top_commits: AtomicU64,
    top_aborts: AtomicU64,
    nested_commits: AtomicU64,
    nested_aborts: AtomicU64,
    reconfigures: AtomicU64,
    sem_wait_count: AtomicU64,
    sem_wait_total_ns: AtomicU64,
    stripe_lock_acquisitions: AtomicU64,
    stripe_lock_contended: AtomicU64,
    stripe_false_conflicts: AtomicU64,
    read_filter_hits: AtomicU64,
    read_filter_misses: AtomicU64,
    read_slow_path: AtomicU64,
    steal_count: AtomicU64,
    deque_overflow: AtomicU64,
    sched_handoffs: AtomicU64,
    sched_handoffs_elided: AtomicU64,
    park_count: AtomicU64,
    cm_waits: AtomicU64,
    cm_wait_total_ns: AtomicU64,
    evicted_reads: AtomicU64,
    read_below_floor: AtomicU64,
    snapshot_evictions: AtomicU64,
    evicted_aborts: AtomicU64,
    gc_cycles: AtomicU64,
    gc_slices: AtomicU64,
    gc_pruned_versions: AtomicU64,
    gc_thread_panics: AtomicU64,
    mem_soft_events: AtomicU64,
    mem_hard_events: AtomicU64,
    block_commits: AtomicU64,
    txn_reexecutions: AtomicU64,
    /// Live retained-version/byte gauge shared with every [`crate::VBox`]
    /// registered on the owning [`crate::Stm`].
    gauge: Arc<VersionHeapGauge>,
    /// The commit hook as a raw `Box<CommitHook>` pointer (null = none), so
    /// the per-commit fast path is a single `Acquire` load instead of a
    /// reader-writer lock acquisition plus an `Arc` clone.
    hook: AtomicPtr<CommitHook>,
    /// Hooks replaced by [`Stats::set_commit_hook`]; freed when `self`
    /// drops (no committer can be inside them by then).
    retired: Mutex<Vec<RetiredHook>>,
}

impl Default for Stats {
    fn default() -> Self {
        Self {
            top_commits: AtomicU64::new(0),
            top_aborts: AtomicU64::new(0),
            nested_commits: AtomicU64::new(0),
            nested_aborts: AtomicU64::new(0),
            reconfigures: AtomicU64::new(0),
            sem_wait_count: AtomicU64::new(0),
            sem_wait_total_ns: AtomicU64::new(0),
            stripe_lock_acquisitions: AtomicU64::new(0),
            stripe_lock_contended: AtomicU64::new(0),
            stripe_false_conflicts: AtomicU64::new(0),
            read_filter_hits: AtomicU64::new(0),
            read_filter_misses: AtomicU64::new(0),
            read_slow_path: AtomicU64::new(0),
            steal_count: AtomicU64::new(0),
            deque_overflow: AtomicU64::new(0),
            sched_handoffs: AtomicU64::new(0),
            sched_handoffs_elided: AtomicU64::new(0),
            park_count: AtomicU64::new(0),
            cm_waits: AtomicU64::new(0),
            cm_wait_total_ns: AtomicU64::new(0),
            evicted_reads: AtomicU64::new(0),
            read_below_floor: AtomicU64::new(0),
            snapshot_evictions: AtomicU64::new(0),
            evicted_aborts: AtomicU64::new(0),
            gc_cycles: AtomicU64::new(0),
            gc_slices: AtomicU64::new(0),
            gc_pruned_versions: AtomicU64::new(0),
            gc_thread_panics: AtomicU64::new(0),
            mem_soft_events: AtomicU64::new(0),
            mem_hard_events: AtomicU64::new(0),
            block_commits: AtomicU64::new(0),
            txn_reexecutions: AtomicU64::new(0),
            gauge: Arc::new(VersionHeapGauge::default()),
            hook: AtomicPtr::new(std::ptr::null_mut()),
            retired: Mutex::new(Vec::new()),
        }
    }
}

impl Stats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a top-level commit, firing the hook if installed.
    pub fn record_commit_top(&self) {
        let seq = self.top_commits.fetch_add(1, Ordering::Relaxed) + 1;
        let hook = self.hook.load(Ordering::Acquire);
        if !hook.is_null() {
            // SAFETY: non-null pointers come from `Box::into_raw` in
            // `set_commit_hook` and are freed only in `drop`; the caller
            // holds `&self`, so the allocation outlives this call even if
            // the hook is concurrently replaced (the old box is retired,
            // not freed).
            unsafe { (*hook)(CommitEvent { at: Instant::now(), seq }) };
        }
    }

    pub fn record_abort_top(&self) {
        self.top_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_commit_nested(&self) {
        self.nested_commits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_abort_nested(&self) {
        self.nested_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record an applied `(t, c)` reconfiguration.
    pub fn record_reconfigure(&self) {
        self.reconfigures.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a top-level admission wait of `wait_ns` nanoseconds.
    pub fn record_sem_wait(&self, wait_ns: u64) {
        self.sem_wait_count.fetch_add(1, Ordering::Relaxed);
        self.sem_wait_total_ns.fetch_add(wait_ns, Ordering::Relaxed);
    }

    /// Record one striped commit attempt's lock acquisition: it locked
    /// `total` stripes, `contended` of which needed at least one retry.
    pub fn record_stripe_locks(&self, total: u32, contended: u32) {
        self.stripe_lock_acquisitions.fetch_add(total as u64, Ordering::Relaxed);
        if contended > 0 {
            self.stripe_lock_contended.fetch_add(contended as u64, Ordering::Relaxed);
        }
    }

    /// Record a commit abort whose stripe-stamp validation failed even though
    /// every read box was individually unchanged (a striping false conflict).
    pub fn record_stripe_false_conflict(&self) {
        self.stripe_false_conflicts.fetch_add(1, Ordering::Relaxed);
    }

    /// Flush one transaction attempt's read-path counters: ancestor-level
    /// filter probes that could not rule the level out (`hits`), probes the
    /// filter skipped (`misses`), and reads that performed at least one
    /// ancestor fallback lookup (`slow`). Called once per attempt, not per
    /// read — the hot path keeps plain local counters.
    pub fn record_read_path(&self, hits: u64, misses: u64, slow: u64) {
        if hits > 0 {
            self.read_filter_hits.fetch_add(hits, Ordering::Relaxed);
        }
        if misses > 0 {
            self.read_filter_misses.fetch_add(misses, Ordering::Relaxed);
        }
        if slow > 0 {
            self.read_slow_path.fetch_add(slow, Ordering::Relaxed);
        }
    }

    /// Record the hand-off decision of one child batch that was allowed
    /// helpers (`c > 1`): published to the pool, or run by its parent alone
    /// because the predicted saving did not cover a hand-off.
    pub fn record_handoff(&self, handed_off: bool) {
        let counter = if handed_off { &self.sched_handoffs } else { &self.sched_handoffs_elided };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` batch tasks executed by helper workers (either scheduler
    /// rung; flushed once per batch, not per task).
    pub fn record_steals(&self, n: u64) {
        if n > 0 {
            self.steal_count.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record `n` batch tasks that overflowed the fixed steal deque into the
    /// mutex-held spill vector (batch fan-out exceeded the deque capacity).
    pub fn record_deque_overflow(&self, n: u64) {
        if n > 0 {
            self.deque_overflow.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record one admission-gate park (a top-level begin that had to block
    /// on the lock-free gate).
    pub fn record_park(&self) {
        self.park_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one contention-manager backoff wait of `wait_ns`. Zero-wait
    /// decisions (first aborts) are not recorded.
    pub fn record_cm_wait(&self, wait_ns: u64) {
        self.cm_waits.fetch_add(1, Ordering::Relaxed);
        self.cm_wait_total_ns.fetch_add(wait_ns, Ordering::Relaxed);
    }

    /// The live version-heap gauge. [`crate::Stm::new_vbox`] attaches every
    /// box to this gauge, so it tracks the total retained versions/bytes of
    /// the owning STM instance.
    pub fn gauge(&self) -> &Arc<VersionHeapGauge> {
        &self.gauge
    }

    /// Record a read served from the chain floor because the attempt's
    /// snapshot lease expired and was evicted (the attempt is doomed and
    /// will abort at commit).
    pub fn record_evicted_read(&self) {
        self.evicted_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a read that found no version ≤ its snapshot while the snapshot
    /// was still registered — a GC watermark invariant violation.
    pub fn record_read_below_floor(&self) {
        self.read_below_floor.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `n` snapshot-lease evictions performed by a watermark sweep.
    pub fn record_snapshot_evictions(&self, n: u64) {
        if n > 0 {
            self.snapshot_evictions.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record a top-level abort caused by snapshot eviction (counted in
    /// addition to the ordinary top-abort counter).
    pub fn record_evicted_abort(&self) {
        self.evicted_aborts.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one completed GC cycle that ran `slices` bounded slices and
    /// pruned `pruned` versions in total.
    pub fn record_gc_cycle(&self, slices: u64, pruned: u64) {
        self.gc_cycles.fetch_add(1, Ordering::Relaxed);
        self.gc_slices.fetch_add(slices, Ordering::Relaxed);
        if pruned > 0 {
            self.gc_pruned_versions.fetch_add(pruned, Ordering::Relaxed);
        }
    }

    /// Record a panic absorbed by the background GC supervisor (the thread
    /// keeps running; the counter is the watchdog's restart evidence).
    pub fn record_gc_thread_panic(&self) {
        self.gc_thread_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a degradation-ladder escalation to `level`.
    pub fn record_mem_degraded(&self, level: crate::mem::MemLevel) {
        match level {
            crate::mem::MemLevel::Soft => {
                self.mem_soft_events.fetch_add(1, Ordering::Relaxed);
            }
            crate::mem::MemLevel::Hard => {
                self.mem_hard_events.fetch_add(1, Ordering::Relaxed);
            }
            crate::mem::MemLevel::Normal => {}
        }
    }

    /// Record a ledger block committed in deterministic index order.
    pub fn record_block_commit(&self) {
        self.block_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a Block-STM validation abort: the transaction re-runs as a new
    /// incarnation.
    pub fn record_txn_reexecution(&self) {
        self.txn_reexecutions.fetch_add(1, Ordering::Relaxed);
    }

    /// Install (or replace) the commit hook. Pass `None` to disable.
    ///
    /// The hook runs on the committing thread after the commit lock is
    /// released; keep it cheap. Replaced hooks stay allocated until the
    /// `Stats` drops (a committer may still be mid-call into them).
    pub fn set_commit_hook(&self, hook: Option<CommitHook>) {
        let new = match hook {
            Some(h) => Box::into_raw(Box::new(h)),
            None => std::ptr::null_mut(),
        };
        let old = self.hook.swap(new, Ordering::AcqRel);
        if !old.is_null() {
            self.retired.lock().push(RetiredHook(old));
        }
    }

    /// Consistent-enough snapshot of all counters (individually atomic).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            top_commits: self.top_commits.load(Ordering::Relaxed),
            top_aborts: self.top_aborts.load(Ordering::Relaxed),
            nested_commits: self.nested_commits.load(Ordering::Relaxed),
            nested_aborts: self.nested_aborts.load(Ordering::Relaxed),
            reconfigures: self.reconfigures.load(Ordering::Relaxed),
            sem_wait_count: self.sem_wait_count.load(Ordering::Relaxed),
            sem_wait_total_ns: self.sem_wait_total_ns.load(Ordering::Relaxed),
            stripe_lock_acquisitions: self.stripe_lock_acquisitions.load(Ordering::Relaxed),
            stripe_lock_contended: self.stripe_lock_contended.load(Ordering::Relaxed),
            stripe_false_conflicts: self.stripe_false_conflicts.load(Ordering::Relaxed),
            read_filter_hits: self.read_filter_hits.load(Ordering::Relaxed),
            read_filter_misses: self.read_filter_misses.load(Ordering::Relaxed),
            read_slow_path: self.read_slow_path.load(Ordering::Relaxed),
            steal_count: self.steal_count.load(Ordering::Relaxed),
            deque_overflow: self.deque_overflow.load(Ordering::Relaxed),
            sched_handoffs: self.sched_handoffs.load(Ordering::Relaxed),
            sched_handoffs_elided: self.sched_handoffs_elided.load(Ordering::Relaxed),
            park_count: self.park_count.load(Ordering::Relaxed),
            cm_waits: self.cm_waits.load(Ordering::Relaxed),
            cm_wait_total_ns: self.cm_wait_total_ns.load(Ordering::Relaxed),
            evicted_reads: self.evicted_reads.load(Ordering::Relaxed),
            read_below_floor: self.read_below_floor.load(Ordering::Relaxed),
            snapshot_evictions: self.snapshot_evictions.load(Ordering::Relaxed),
            evicted_aborts: self.evicted_aborts.load(Ordering::Relaxed),
            gc_cycles: self.gc_cycles.load(Ordering::Relaxed),
            gc_slices: self.gc_slices.load(Ordering::Relaxed),
            gc_pruned_versions: self.gc_pruned_versions.load(Ordering::Relaxed),
            gc_thread_panics: self.gc_thread_panics.load(Ordering::Relaxed),
            mem_soft_events: self.mem_soft_events.load(Ordering::Relaxed),
            mem_hard_events: self.mem_hard_events.load(Ordering::Relaxed),
            block_commits: self.block_commits.load(Ordering::Relaxed),
            txn_reexecutions: self.txn_reexecutions.load(Ordering::Relaxed),
            retained_versions: self.gauge.retained_versions(),
            retained_bytes: self.gauge.retained_bytes(),
        }
    }
}

impl Drop for Stats {
    fn drop(&mut self) {
        let cur = self.hook.swap(std::ptr::null_mut(), Ordering::Relaxed);
        if !cur.is_null() {
            // SAFETY: `&mut self` — no committer can hold a reference.
            unsafe { drop(Box::from_raw(cur)) };
        }
        for RetiredHook(p) in self.retired.get_mut().drain(..) {
            // SAFETY: same exclusivity; each pointer was retired exactly once.
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

impl std::fmt::Debug for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// Point-in-time copy of the [`Stats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Committed top-level transactions.
    pub top_commits: u64,
    /// Aborted top-level transaction attempts.
    pub top_aborts: u64,
    /// Committed nested transactions (all depths).
    pub nested_commits: u64,
    /// Aborted nested transaction attempts (sibling conflicts).
    pub nested_aborts: u64,
    /// Applied `(t, c)` reconfigurations.
    pub reconfigures: u64,
    /// Top-level admission waits recorded.
    pub sem_wait_count: u64,
    /// Total nanoseconds spent waiting for top-level admission.
    pub sem_wait_total_ns: u64,
    /// Commit stripes locked by striped commit attempts (total).
    pub stripe_lock_acquisitions: u64,
    /// Of those, stripes whose acquisition needed at least one retry —
    /// commit-time contention the global lock used to hide.
    pub stripe_lock_contended: u64,
    /// Aborts caused purely by stripe granularity: stamp validation failed
    /// but every read box was individually unchanged.
    pub stripe_false_conflicts: u64,
    /// Ancestor-level read probes the Bloom filter could not rule out.
    pub read_filter_hits: u64,
    /// Ancestor-level read probes skipped entirely by the Bloom filter.
    pub read_filter_misses: u64,
    /// Reads that performed at least one ancestor fallback lookup.
    pub read_slow_path: u64,
    /// Batch tasks executed by helper workers rather than the batch's
    /// parent (both scheduler rungs).
    pub steal_count: u64,
    /// Batch tasks that overflowed the fixed steal deque into the spill
    /// vector (fan-out larger than the deque capacity).
    pub deque_overflow: u64,
    /// Child batches with `c > 1` that were published to the worker pool
    /// (eagerly, or late once they outlasted the prediction).
    pub sched_handoffs: u64,
    /// Child batches with `c > 1` their parent ran alone because the
    /// predicted parallel saving did not cover one hand-off: short children
    /// no longer pay a worker wake-up for being allowed helpers.
    pub sched_handoffs_elided: u64,
    /// Top-level admissions that parked on the packed admission gate.
    pub park_count: u64,
    /// Contention-manager backoff waits. Zero-wait decisions are not
    /// counted.
    pub cm_waits: u64,
    /// Total nanoseconds spent in contention-manager backoff waits.
    pub cm_wait_total_ns: u64,
    /// Reads served from the chain floor by a doomed attempt whose snapshot
    /// lease expired and was evicted.
    pub evicted_reads: u64,
    /// Reads that found no version ≤ a still-registered snapshot — GC
    /// watermark invariant violations (always 0 in a correct build).
    pub read_below_floor: u64,
    /// Snapshot registrations evicted because their lease expired.
    pub snapshot_evictions: u64,
    /// Top-level aborts attributed to snapshot eviction.
    pub evicted_aborts: u64,
    /// Completed version-heap GC cycles (background or inline).
    pub gc_cycles: u64,
    /// Bounded GC slices executed across all cycles.
    pub gc_slices: u64,
    /// Versions pruned from box chains by the GC.
    pub gc_pruned_versions: u64,
    /// Panics absorbed by the background GC supervisor loop.
    pub gc_thread_panics: u64,
    /// Degradation-ladder escalations into [`crate::MemLevel::Soft`].
    pub mem_soft_events: u64,
    /// Degradation-ladder escalations into [`crate::MemLevel::Hard`].
    pub mem_hard_events: u64,
    /// Ledger blocks committed in deterministic index order (both rungs).
    pub block_commits: u64,
    /// Block-STM validation aborts: transactions re-run as new incarnations.
    pub txn_reexecutions: u64,
    /// Point-in-time retained version count (gauge, not a counter — the
    /// delta of a gauge is a saturating difference, not a rate).
    pub retained_versions: u64,
    /// Point-in-time retained bytes (shallow entry sizes; same gauge caveat).
    pub retained_bytes: u64,
}

impl StatsSnapshot {
    /// Abort rate of top-level attempts: aborts / (commits + aborts).
    pub fn top_abort_rate(&self) -> f64 {
        let total = self.top_commits + self.top_aborts;
        if total == 0 {
            0.0
        } else {
            self.top_aborts as f64 / total as f64
        }
    }

    /// Abort rate of nested attempts.
    pub fn nested_abort_rate(&self) -> f64 {
        let total = self.nested_commits + self.nested_aborts;
        if total == 0 {
            0.0
        } else {
            self.nested_aborts as f64 / total as f64
        }
    }

    /// Mean top-level admission wait in nanoseconds (0 when none recorded).
    pub fn mean_sem_wait_ns(&self) -> f64 {
        if self.sem_wait_count == 0 {
            0.0
        } else {
            self.sem_wait_total_ns as f64 / self.sem_wait_count as f64
        }
    }

    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            top_commits: self.top_commits.saturating_sub(earlier.top_commits),
            top_aborts: self.top_aborts.saturating_sub(earlier.top_aborts),
            nested_commits: self.nested_commits.saturating_sub(earlier.nested_commits),
            nested_aborts: self.nested_aborts.saturating_sub(earlier.nested_aborts),
            reconfigures: self.reconfigures.saturating_sub(earlier.reconfigures),
            sem_wait_count: self.sem_wait_count.saturating_sub(earlier.sem_wait_count),
            sem_wait_total_ns: self.sem_wait_total_ns.saturating_sub(earlier.sem_wait_total_ns),
            stripe_lock_acquisitions: self
                .stripe_lock_acquisitions
                .saturating_sub(earlier.stripe_lock_acquisitions),
            stripe_lock_contended: self
                .stripe_lock_contended
                .saturating_sub(earlier.stripe_lock_contended),
            stripe_false_conflicts: self
                .stripe_false_conflicts
                .saturating_sub(earlier.stripe_false_conflicts),
            read_filter_hits: self.read_filter_hits.saturating_sub(earlier.read_filter_hits),
            read_filter_misses: self.read_filter_misses.saturating_sub(earlier.read_filter_misses),
            read_slow_path: self.read_slow_path.saturating_sub(earlier.read_slow_path),
            steal_count: self.steal_count.saturating_sub(earlier.steal_count),
            deque_overflow: self.deque_overflow.saturating_sub(earlier.deque_overflow),
            sched_handoffs: self.sched_handoffs.saturating_sub(earlier.sched_handoffs),
            sched_handoffs_elided: self
                .sched_handoffs_elided
                .saturating_sub(earlier.sched_handoffs_elided),
            park_count: self.park_count.saturating_sub(earlier.park_count),
            cm_waits: self.cm_waits.saturating_sub(earlier.cm_waits),
            cm_wait_total_ns: self.cm_wait_total_ns.saturating_sub(earlier.cm_wait_total_ns),
            evicted_reads: self.evicted_reads.saturating_sub(earlier.evicted_reads),
            read_below_floor: self.read_below_floor.saturating_sub(earlier.read_below_floor),
            snapshot_evictions: self.snapshot_evictions.saturating_sub(earlier.snapshot_evictions),
            evicted_aborts: self.evicted_aborts.saturating_sub(earlier.evicted_aborts),
            gc_cycles: self.gc_cycles.saturating_sub(earlier.gc_cycles),
            gc_slices: self.gc_slices.saturating_sub(earlier.gc_slices),
            gc_pruned_versions: self.gc_pruned_versions.saturating_sub(earlier.gc_pruned_versions),
            gc_thread_panics: self.gc_thread_panics.saturating_sub(earlier.gc_thread_panics),
            mem_soft_events: self.mem_soft_events.saturating_sub(earlier.mem_soft_events),
            mem_hard_events: self.mem_hard_events.saturating_sub(earlier.mem_hard_events),
            block_commits: self.block_commits.saturating_sub(earlier.block_commits),
            txn_reexecutions: self.txn_reexecutions.saturating_sub(earlier.txn_reexecutions),
            retained_versions: self.retained_versions.saturating_sub(earlier.retained_versions),
            retained_bytes: self.retained_bytes.saturating_sub(earlier.retained_bytes),
        }
    }
}

/// Number of log2 buckets in a [`LatencyHistogram`]: bucket `k` counts
/// latencies in `[2^k, 2^{k+1})` nanoseconds (bucket 0 also absorbs 0 ns,
/// the last bucket is open-ended — ≥ 2^39 ns ≈ 9.2 minutes). Nanosecond
/// granularity at the bottom, because open-loop service latencies span from
/// sub-microsecond commits to multi-second overload queueing.
pub const LATENCY_BUCKETS: usize = 40;

/// Lock-free log2-bucketed latency histogram, following the
/// [`Stats`]/[`StatsSnapshot`] pattern: relaxed atomic increments on the
/// record path, point-in-time [`LatencyHistogram::snapshot`] copies, and
/// saturating [`LatencySnapshot::delta_since`] for per-window views.
///
/// A log2 histogram trades resolution for a fixed footprint: any quantile
/// estimate is exact up to the width of the bucket it lands in (the estimate
/// and the true ranked sample always share a bucket).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Histogram bucket for a latency of `ns` nanoseconds.
    pub fn bucket_of(ns: u64) -> usize {
        let bucket = if ns == 0 { 0 } else { ns.ilog2() as usize };
        bucket.min(LATENCY_BUCKETS - 1)
    }

    /// Record one latency observation.
    pub fn record(&self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the counters (individually atomic).
    pub fn snapshot(&self) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            total_ns: self.total_ns.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySnapshot {
    /// Per-bucket observation counts (see [`LATENCY_BUCKETS`]).
    pub buckets: [u64; LATENCY_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all recorded latencies in nanoseconds.
    pub total_ns: u64,
}

impl Default for LatencySnapshot {
    fn default() -> Self {
        Self { buckets: [0; LATENCY_BUCKETS], count: 0, total_ns: 0 }
    }
}

impl LatencySnapshot {
    /// Counter-wise difference `self - earlier` (saturating).
    pub fn delta_since(&self, earlier: &LatencySnapshot) -> LatencySnapshot {
        LatencySnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(earlier.buckets[i])),
            count: self.count.saturating_sub(earlier.count),
            total_ns: self.total_ns.saturating_sub(earlier.total_ns),
        }
    }

    /// Mean latency in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate in nanoseconds: the inclusive upper
    /// edge `2^{k+1} - 1` of the bucket holding the rank-`⌈p/100·n⌉` sample
    /// (so the estimate falls in the same bucket as the true ranked sample —
    /// at most one bucket width high, never a bucket low). Returns 0 when
    /// the histogram is empty. `p` is a percentage, e.g. `99.9`.
    pub fn quantile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut cumulative = 0u64;
        for (k, &n) in self.buckets.iter().enumerate() {
            cumulative += n;
            if cumulative >= rank {
                return (1u64 << (k as u32 + 1)) - 1;
            }
        }
        (1u64 << LATENCY_BUCKETS as u32) - 1
    }
}

/// Fold `sample` into the running estimate `old`: an EWMA of weight 1/8, in
/// which 0 means "no sample yet" and the result is at least 1. A sample
/// counts for at most twice the estimate, so one pre-empted measurement
/// cannot set a learnt policy for the dozen decisions after it, while a real
/// regime change still gets through in a few dozen.
pub fn ewma(old: u64, sample: u64) -> u64 {
    let new = if old == 0 { sample } else { old - old / 8 + sample.min(2 * old) / 8 };
    new.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn counters_accumulate() {
        let s = Stats::new();
        s.record_commit_top();
        s.record_commit_top();
        s.record_abort_top();
        s.record_commit_nested();
        s.record_abort_nested();
        s.record_abort_nested();
        s.record_reconfigure();
        let snap = s.snapshot();
        assert_eq!(snap.top_commits, 2);
        assert_eq!(snap.top_aborts, 1);
        assert_eq!(snap.nested_commits, 1);
        assert_eq!(snap.nested_aborts, 2);
        assert_eq!(snap.reconfigures, 1);
    }

    #[test]
    fn stripe_counters_accumulate() {
        let s = Stats::new();
        s.record_stripe_locks(3, 0);
        s.record_stripe_locks(2, 1);
        s.record_stripe_false_conflict();
        let snap = s.snapshot();
        assert_eq!(snap.stripe_lock_acquisitions, 5);
        assert_eq!(snap.stripe_lock_contended, 1);
        assert_eq!(snap.stripe_false_conflicts, 1);
        let d = snap.delta_since(&StatsSnapshot::default());
        assert_eq!(d.stripe_lock_acquisitions, 5);
    }

    #[test]
    fn read_path_counters_accumulate() {
        let s = Stats::new();
        s.record_read_path(3, 10, 2);
        s.record_read_path(0, 0, 0); // all-zero flush is a no-op
        s.record_read_path(1, 0, 1);
        let snap = s.snapshot();
        assert_eq!(snap.read_filter_hits, 4);
        assert_eq!(snap.read_filter_misses, 10);
        assert_eq!(snap.read_slow_path, 3);
        let d = snap.delta_since(&StatsSnapshot::default());
        assert_eq!(d.read_filter_hits, 4);
        assert_eq!(d.read_filter_misses, 10);
        assert_eq!(d.read_slow_path, 3);
    }

    #[test]
    fn scheduler_counters_accumulate() {
        let s = Stats::new();
        s.record_steals(3);
        s.record_steals(0); // zero flush is a no-op
        s.record_deque_overflow(5);
        s.record_park();
        s.record_park();
        s.record_handoff(true);
        s.record_handoff(false);
        s.record_handoff(false);
        let snap = s.snapshot();
        assert_eq!(snap.steal_count, 3);
        assert_eq!(snap.deque_overflow, 5);
        assert_eq!(snap.park_count, 2);
        assert_eq!((snap.sched_handoffs, snap.sched_handoffs_elided), (1, 2));
        let d = snap.delta_since(&StatsSnapshot::default());
        assert_eq!(d.steal_count, 3);
        assert_eq!(d.deque_overflow, 5);
        assert_eq!(d.park_count, 2);
        assert_eq!((d.sched_handoffs, d.sched_handoffs_elided), (1, 2));
    }

    #[test]
    fn cm_wait_counters_accumulate() {
        let s = Stats::new();
        s.record_cm_wait(3_000);
        s.record_cm_wait(500);
        s.record_cm_wait(2_000);
        let snap = s.snapshot();
        assert_eq!(snap.cm_waits, 3);
        assert_eq!(snap.cm_wait_total_ns, 5_500);
        let d = snap.delta_since(&StatsSnapshot::default());
        assert_eq!(d.cm_waits, 3);
        assert_eq!(d.cm_wait_total_ns, 5_500);
    }

    #[test]
    fn mem_counters_accumulate() {
        let s = Stats::new();
        s.record_evicted_read();
        s.record_evicted_read();
        s.record_read_below_floor();
        s.record_snapshot_evictions(3);
        s.record_snapshot_evictions(0); // zero flush is a no-op
        s.record_evicted_abort();
        s.record_gc_cycle(4, 17);
        s.record_gc_cycle(1, 0);
        s.record_gc_thread_panic();
        s.record_mem_degraded(crate::mem::MemLevel::Soft);
        s.record_mem_degraded(crate::mem::MemLevel::Hard);
        s.record_mem_degraded(crate::mem::MemLevel::Normal); // recovery: not an escalation
        s.gauge().add(5, 80);
        s.gauge().sub(2, 32);
        let snap = s.snapshot();
        assert_eq!(snap.evicted_reads, 2);
        assert_eq!(snap.read_below_floor, 1);
        assert_eq!(snap.snapshot_evictions, 3);
        assert_eq!(snap.evicted_aborts, 1);
        assert_eq!(snap.gc_cycles, 2);
        assert_eq!(snap.gc_slices, 5);
        assert_eq!(snap.gc_pruned_versions, 17);
        assert_eq!(snap.gc_thread_panics, 1);
        assert_eq!(snap.mem_soft_events, 1);
        assert_eq!(snap.mem_hard_events, 1);
        assert_eq!(snap.retained_versions, 3);
        assert_eq!(snap.retained_bytes, 48);
        let d = snap.delta_since(&StatsSnapshot::default());
        assert_eq!(d.evicted_reads, 2);
        assert_eq!(d.gc_pruned_versions, 17);
        assert_eq!(d.retained_versions, 3);
    }

    #[test]
    fn ledger_counters_accumulate() {
        let s = Stats::new();
        s.record_block_commit();
        s.record_block_commit();
        s.record_txn_reexecution();
        let snap = s.snapshot();
        assert_eq!(snap.block_commits, 2);
        assert_eq!(snap.txn_reexecutions, 1);
        let d = snap.delta_since(&StatsSnapshot { block_commits: 1, ..Default::default() });
        assert_eq!(d.block_commits, 1);
        assert_eq!(d.txn_reexecutions, 1);
    }

    #[test]
    fn abort_rates() {
        let snap = StatsSnapshot { top_commits: 3, top_aborts: 1, ..Default::default() };
        assert!((snap.top_abort_rate() - 0.25).abs() < 1e-12);
        assert_eq!(snap.nested_abort_rate(), 0.0);
        assert_eq!(StatsSnapshot::default().top_abort_rate(), 0.0);
    }

    #[test]
    fn hook_fires_with_sequence_numbers() {
        let s = Stats::new();
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        s.set_commit_hook(Some(Arc::new(move |ev: CommitEvent| {
            seen2.fetch_add(ev.seq as usize, Ordering::Relaxed);
        })));
        s.record_commit_top(); // seq 1
        s.record_commit_top(); // seq 2
        assert_eq!(seen.load(Ordering::Relaxed), 3);
        s.set_commit_hook(None);
        s.record_commit_top();
        assert_eq!(seen.load(Ordering::Relaxed), 3, "hook removed");
    }

    #[test]
    fn hook_swaps_are_safe_under_concurrent_commits() {
        let s = Arc::new(Stats::new());
        let calls = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let s = Arc::clone(&s);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    s.record_commit_top();
                }
            }));
        }
        for i in 0..200 {
            let calls2 = Arc::clone(&calls);
            let hook: Option<CommitHook> = if i % 4 == 3 {
                None
            } else {
                Some(Arc::new(move |_| {
                    calls2.fetch_add(1, Ordering::Relaxed);
                }))
            };
            s.set_commit_hook(hook);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
        assert!(s.snapshot().top_commits > 0);
        // `calls` may be anything ≥ 0; the point is no crash/UB under swap.
    }

    #[test]
    fn sem_wait_histogram_buckets() {
        let s = Stats::new();
        s.record_sem_wait(500);
        s.record_sem_wait(3_000);
        s.record_sem_wait(3_500);
        let snap = s.snapshot();
        assert_eq!(snap.sem_wait_count, 3);
        assert_eq!(snap.sem_wait_total_ns, 7_000);
        assert!((snap.mean_sem_wait_ns() - 7_000.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn latency_bucket_boundaries() {
        // 0 and 1 ns share bucket 0 ([0, 2) ns).
        assert_eq!(LatencyHistogram::bucket_of(0), 0);
        assert_eq!(LatencyHistogram::bucket_of(1), 0);
        // Exact powers of two open their own bucket; one below stays under.
        for k in 1..40u32 {
            assert_eq!(LatencyHistogram::bucket_of(1 << k), k as usize, "2^{k}");
            assert_eq!(LatencyHistogram::bucket_of((1 << k) - 1), k as usize - 1, "2^{k}-1");
        }
        // The top bucket saturates: 2^40, 2^63, and u64::MAX all land in it.
        assert_eq!(LatencyHistogram::bucket_of(1 << 40), LATENCY_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_of(1 << 63), LATENCY_BUCKETS - 1);
        assert_eq!(LatencyHistogram::bucket_of(u64::MAX), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn the_shared_estimate_takes_the_first_sample_clamps_at_2x_and_decays_by_eighths() {
        // No history: the first sample is the estimate.
        assert_eq!(ewma(0, 800), 800);
        // Steady state: a sample equal to the estimate is a fixed point.
        assert_eq!(ewma(800, 800), 800);
        // The 2x clamp: a huge sample moves the estimate as far as 2x would.
        assert_eq!(ewma(800, 1_000_000), 800 - 100 + 1_600 / 8);
        assert_eq!(ewma(800, 1_000_000), ewma(800, 1_600));
        // Decay: a zero sample sheds an eighth.
        assert_eq!(ewma(800, 0), 700);
        // The floor of 1, both with and without history.
        assert_eq!(ewma(0, 0), 1);
        assert_eq!(ewma(1, 0), 1);
    }

    #[test]
    fn latency_histogram_records_and_deltas() {
        let h = LatencyHistogram::new();
        h.record(1); // bucket 0
        h.record(1_000); // bucket 9 ([512, 1024) ns... 1000 < 1024, ilog2 = 9)
        h.record(1_500); // bucket 10
        h.record(u64::MAX); // top bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[9], 1);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.buckets[LATENCY_BUCKETS - 1], 1);
        assert_eq!(
            snap.total_ns,
            1u64.wrapping_add(1_000).wrapping_add(1_500).wrapping_add(u64::MAX)
        );

        let d = snap.delta_since(&LatencySnapshot {
            buckets: {
                let mut b = [0; LATENCY_BUCKETS];
                b[0] = 1;
                b
            },
            count: 1,
            total_ns: 1,
        });
        assert_eq!(d.count, 3);
        assert_eq!(d.buckets[0], 0);
        assert_eq!(d.buckets[9], 1);
    }

    #[test]
    fn latency_quantile_nearest_rank_upper_edge() {
        let empty = LatencySnapshot::default();
        assert_eq!(empty.quantile(50.0), 0);
        assert_eq!(empty.mean_ns(), 0.0);

        // Single sample: every quantile is that sample's bucket edge.
        let h = LatencyHistogram::new();
        h.record(100); // bucket 6: [64, 128)
        let one = h.snapshot();
        for p in [0.0, 50.0, 99.0, 99.9, 100.0] {
            assert_eq!(one.quantile(p), 127, "p={p}");
        }
        assert_eq!(
            LatencyHistogram::bucket_of(one.quantile(99.0)),
            LatencyHistogram::bucket_of(100)
        );

        // 100 samples in bucket 3 ([8, 16)) and 1 in bucket 12: p50 stays in
        // the low bucket, p99.9 must land in the tail bucket (rank 101).
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(10);
        }
        h.record(5_000);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(50.0), 15); // upper edge of bucket 3
        assert_eq!(snap.quantile(99.0), 15); // rank 100 of 101 is still bucket 3
        assert_eq!(snap.quantile(99.9), 8_191); // rank 101: bucket 12 edge
        assert_eq!(snap.quantile(100.0), 8_191);
        assert!((snap.mean_ns() - (100.0 * 10.0 + 5_000.0) / 101.0).abs() < 1e-9);
    }

    #[test]
    fn delta_since_subtracts() {
        let a = StatsSnapshot {
            top_commits: 10,
            top_aborts: 4,
            nested_commits: 7,
            nested_aborts: 2,
            ..Default::default()
        };
        let b = StatsSnapshot {
            top_commits: 25,
            top_aborts: 5,
            nested_commits: 9,
            nested_aborts: 2,
            reconfigures: 3,
            ..Default::default()
        };
        let d = b.delta_since(&a);
        assert_eq!(
            d,
            StatsSnapshot {
                top_commits: 15,
                top_aborts: 1,
                nested_commits: 2,
                nested_aborts: 0,
                reconfigures: 3,
                ..Default::default()
            }
        );
    }
}
