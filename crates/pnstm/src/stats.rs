//! Commit/abort accounting and the commit-event hook consumed by the AutoPN
//! KPI monitor.
//!
//! # Counter shards
//!
//! Every counter lives in 16 cache-padded copies (shards). Threads are
//! numbered process-wide in the order of their first count, and a thread
//! adds into the shard its number picks modulo 16, so two counting threads
//! share a counter line only when their numbers agree modulo 16;
//! [`Stats::snapshot`] sums the shards. The adds are relaxed `fetch_add`s,
//! since threads that do share a shard must not lose counts, and a snapshot
//! taken after the counting threads joined is exact. The two exceptions are the [`VersionHeapGauge`],
//! one pair of atomics because the degradation ladder reads it on every
//! commit, and [`CommitEvent::seq`], which only a commit that finds a hook
//! installed takes from one shared counter.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
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
    /// Running count of the top-level commits that found a hook installed,
    /// including this one: unique per commit, and, with the hook installed
    /// before the first commit, exactly `1..=top_commits`.
    pub seq: u64,
}

type CommitHook = Arc<dyn Fn(CommitEvent) + Send + Sync>;

/// A retired commit-hook allocation, parked until [`Stats`] drops because a
/// concurrent `record_commit_top` may still be calling through it.
struct RetiredHook(*mut CommitHook);
// SAFETY: the pointer is only ever dereferenced via `Box::from_raw` in
// `Stats::drop`, with exclusive access.
unsafe impl Send for RetiredHook {}

/// Counter shards per [`Stats`] instance (see the module docs).
const SHARDS: usize = 16;

/// Source of each thread's shard index.
static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard index; `usize::MAX` until its first count.
    static THREAD_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard index.
#[inline]
fn thread_shard() -> usize {
    THREAD_SHARD
        .try_with(|s| {
            if s.get() == usize::MAX {
                s.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % SHARDS);
            }
            s.get()
        })
        .unwrap_or(0)
}

/// Declares the counters once: the [`Counter`] index of each, and the
/// [`StatsSnapshot`] field it sums into, in this order.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Index of a counter in a shard.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy)]
        enum Counter { $($name,)* gc_due }

        /// Counters per shard: the snapshot's plus the shard's commits since
        /// it last asked for a GC cycle.
        const COUNTERS: usize = Counter::gc_due as usize + 1;

        /// Point-in-time copy of the [`Stats`] counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Point-in-time retained version count (gauge, not a counter —
            /// the delta of a gauge is a saturating difference, not a rate).
            pub retained_versions: u64,
            /// Point-in-time retained bytes (shallow entry sizes; same gauge
            /// caveat).
            pub retained_bytes: u64,
        }

        impl StatsSnapshot {
            fn from_sums(sums: &[u64; COUNTERS], gauge: &VersionHeapGauge) -> Self {
                Self {
                    $($name: sums[Counter::$name as usize],)*
                    retained_versions: gauge.retained_versions(),
                    retained_bytes: gauge.retained_bytes(),
                }
            }

            /// Counter-wise difference `self - earlier` (saturating).
            pub fn delta_since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                    retained_versions: self
                        .retained_versions
                        .saturating_sub(earlier.retained_versions),
                    retained_bytes: self.retained_bytes.saturating_sub(earlier.retained_bytes),
                }
            }
        }
    };
}

counters! {
    /// Committed top-level transactions.
    top_commits,
    /// Aborted top-level transaction attempts.
    top_aborts,
    /// Committed nested transactions (all depths).
    nested_commits,
    /// Aborted nested transaction attempts (sibling conflicts).
    nested_aborts,
    /// Applied `(t, c)` reconfigurations.
    reconfigures,
    /// Top-level admissions, every one counted whether it waited or not.
    sem_wait_count,
    /// Total nanoseconds spent waiting for top-level admission (only the
    /// admissions that had to wait are timed).
    sem_wait_total_ns,
    /// Commit stripes locked by striped commit attempts (total).
    stripe_lock_acquisitions,
    /// Of those, stripes whose acquisition needed at least one retry —
    /// commit-time contention the global lock used to hide.
    stripe_lock_contended,
    /// Aborts caused purely by stripe granularity: stamp validation failed
    /// but every read box was individually unchanged.
    stripe_false_conflicts,
    /// Ancestor-level read probes the Bloom filter could not rule out.
    read_filter_hits,
    /// Ancestor-level read probes skipped entirely by the Bloom filter.
    read_filter_misses,
    /// Reads that performed at least one ancestor fallback lookup.
    read_slow_path,
    /// Batch tasks executed by helper workers rather than the batch's
    /// parent (both scheduler rungs).
    steal_count,
    /// Child batches with `c > 1` that were published to the worker pool
    /// (eagerly, or late once they outlasted the prediction).
    sched_handoffs,
    /// Child batches with `c > 1` their parent ran alone because the
    /// predicted parallel saving did not cover one hand-off: short children
    /// no longer pay a worker wake-up for being allowed helpers.
    sched_handoffs_elided,
    /// Top-level admissions that parked on the packed admission gate.
    park_count,
    /// Contention-manager backoff waits. Zero-wait decisions are not
    /// counted.
    cm_waits,
    /// Total nanoseconds spent in contention-manager backoff waits.
    cm_wait_total_ns,
    /// Reads served from the chain floor by a doomed attempt whose snapshot
    /// lease expired and was evicted.
    evicted_reads,
    /// Reads that found no version ≤ a still-registered snapshot — GC
    /// watermark invariant violations (always 0 in a correct build).
    read_below_floor,
    /// Snapshot registrations evicted because their lease expired.
    snapshot_evictions,
    /// Top-level aborts attributed to snapshot eviction.
    evicted_aborts,
    /// Completed version-heap GC cycles (background or inline).
    gc_cycles,
    /// Bounded GC slices executed across all cycles.
    gc_slices,
    /// Versions pruned from box chains by the GC.
    gc_pruned_versions,
    /// Panics absorbed by the background GC supervisor loop.
    gc_thread_panics,
    /// Degradation-ladder escalations into [`crate::MemLevel::Soft`].
    mem_soft_events,
    /// Degradation-ladder escalations into [`crate::MemLevel::Hard`].
    mem_hard_events,
    /// Ledger blocks committed in deterministic index order (both rungs).
    block_commits,
    /// Block-STM validation aborts: transactions re-run as new incarnations.
    txn_reexecutions,
}

/// One thread-group's copy of every counter, alone on its cache lines.
#[repr(align(128))]
struct Shard([AtomicU64; COUNTERS]);

/// Atomic counters describing STM activity, plus an optional commit hook.
pub struct Stats {
    shards: Box<[Shard]>,
    /// Source of [`CommitEvent::seq`]: counts the commits that found a hook.
    hooked_commits: AtomicU64,
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
            shards: (0..SHARDS)
                .map(|_| Shard(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            hooked_commits: AtomicU64::new(0),
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

    /// This thread's copy of counter `c`.
    #[inline]
    fn counter(&self, c: Counter) -> &AtomicU64 {
        &self.shards[thread_shard()].0[c as usize]
    }

    #[inline]
    fn add(&self, c: Counter, n: u64) {
        self.counter(c).fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to `c` unless it is zero (a flush with nothing to say).
    #[inline]
    fn add_nonzero(&self, c: Counter, n: u64) {
        if n > 0 {
            self.add(c, n);
        }
    }

    /// Record a top-level commit, firing the hook if installed.
    pub fn record_commit_top(&self) {
        self.add(Counter::top_commits, 1);
        let hook = self.hook.load(Ordering::Acquire);
        if !hook.is_null() {
            let seq = self.hooked_commits.fetch_add(1, Ordering::Relaxed) + 1;
            // SAFETY: non-null pointers come from `Box::into_raw` in
            // `set_commit_hook` and are freed only in `drop`; the caller
            // holds `&self`, so the allocation outlives this call even if
            // the hook is concurrently replaced (the old box is retired,
            // not freed).
            unsafe { (*hook)(CommitEvent { at: Instant::now(), seq }) };
        }
    }

    /// Count the `versions` a top-level commit installed towards the GC
    /// interval on this thread's shard; true (and the shard's count reset)
    /// once it reaches `interval`. Across threads the cycles come at the
    /// configured rate: each shard asks after `interval` of its own
    /// versions, plus at most the one commit that crossed it.
    pub(crate) fn gc_due(&self, versions: u64, interval: u64) -> bool {
        let since = self.counter(Counter::gc_due);
        if since.fetch_add(versions, Ordering::Relaxed) + versions >= interval {
            since.store(0, Ordering::Relaxed);
            return true;
        }
        false
    }

    pub fn record_abort_top(&self) {
        self.add(Counter::top_aborts, 1);
    }

    pub fn record_commit_nested(&self) {
        self.add(Counter::nested_commits, 1);
    }

    pub fn record_abort_nested(&self) {
        self.add(Counter::nested_aborts, 1);
    }

    /// Flush one top-level attempt's inline-child outcomes: `commits`
    /// children that succeeded and `aborts` that a doomed snapshot failed.
    pub(crate) fn record_nested(&self, commits: u64, aborts: u64) {
        self.add_nonzero(Counter::nested_commits, commits);
        self.add_nonzero(Counter::nested_aborts, aborts);
    }

    /// Record an applied `(t, c)` reconfiguration.
    pub fn record_reconfigure(&self) {
        self.add(Counter::reconfigures, 1);
    }

    /// Record one top-level admission that waited `wait_ns` nanoseconds. Every
    /// admission is counted; only one that had to wait is timed (the gate's
    /// fast path reads no clock and reports 0).
    pub fn record_sem_wait(&self, wait_ns: u64) {
        self.add(Counter::sem_wait_count, 1);
        self.add_nonzero(Counter::sem_wait_total_ns, wait_ns);
    }

    /// Record one striped commit attempt's lock acquisition: it locked
    /// `total` stripes, `contended` of which needed at least one retry.
    pub fn record_stripe_locks(&self, total: u32, contended: u32) {
        self.add(Counter::stripe_lock_acquisitions, total as u64);
        self.add_nonzero(Counter::stripe_lock_contended, contended as u64);
    }

    /// Record a commit abort whose stripe-stamp validation failed even though
    /// every read box was individually unchanged (a striping false conflict).
    pub fn record_stripe_false_conflict(&self) {
        self.add(Counter::stripe_false_conflicts, 1);
    }

    /// Flush one transaction attempt's read-path counters: ancestor-level
    /// filter probes that could not rule the level out (`hits`), probes the
    /// filter skipped (`misses`), and reads that performed at least one
    /// ancestor fallback lookup (`slow`). Called once per attempt, not per
    /// read — the hot path keeps plain local counters.
    pub fn record_read_path(&self, hits: u64, misses: u64, slow: u64) {
        self.add_nonzero(Counter::read_filter_hits, hits);
        self.add_nonzero(Counter::read_filter_misses, misses);
        self.add_nonzero(Counter::read_slow_path, slow);
    }

    /// Record the hand-off decision of one child batch that was allowed
    /// helpers (`c > 1`): published to the pool, or run by its parent alone
    /// because the predicted saving did not cover a hand-off.
    pub fn record_handoff(&self, handed_off: bool) {
        self.add(
            if handed_off { Counter::sched_handoffs } else { Counter::sched_handoffs_elided },
            1,
        );
    }

    /// Record `n` batch tasks executed by helper workers (either scheduler
    /// rung; flushed once per batch, not per task).
    pub fn record_steals(&self, n: u64) {
        self.add_nonzero(Counter::steal_count, n);
    }

    /// Record one admission-gate park (a top-level begin that had to block
    /// on the lock-free gate).
    pub fn record_park(&self) {
        self.add(Counter::park_count, 1);
    }

    /// Record one contention-manager backoff wait of `wait_ns`. Zero-wait
    /// decisions (first aborts) are not recorded.
    pub fn record_cm_wait(&self, wait_ns: u64) {
        self.add(Counter::cm_waits, 1);
        self.add(Counter::cm_wait_total_ns, wait_ns);
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
        self.add(Counter::evicted_reads, 1);
    }

    /// Record a read that found no version ≤ its snapshot while the snapshot
    /// was still registered — a GC watermark invariant violation.
    pub fn record_read_below_floor(&self) {
        self.add(Counter::read_below_floor, 1);
    }

    /// Record `n` snapshot-lease evictions performed by a watermark sweep.
    pub fn record_snapshot_evictions(&self, n: u64) {
        self.add_nonzero(Counter::snapshot_evictions, n);
    }

    /// Record a top-level abort caused by snapshot eviction (counted in
    /// addition to the ordinary top-abort counter).
    pub fn record_evicted_abort(&self) {
        self.add(Counter::evicted_aborts, 1);
    }

    /// Record one completed GC cycle that ran `slices` bounded slices and
    /// pruned `pruned` versions in total.
    pub fn record_gc_cycle(&self, slices: u64, pruned: u64) {
        self.add(Counter::gc_cycles, 1);
        self.add(Counter::gc_slices, slices);
        self.add_nonzero(Counter::gc_pruned_versions, pruned);
    }

    /// Record a panic absorbed by the background GC supervisor (the thread
    /// keeps running; the counter is the watchdog's restart evidence).
    pub fn record_gc_thread_panic(&self) {
        self.add(Counter::gc_thread_panics, 1);
    }

    /// Record a degradation-ladder escalation to `level`.
    pub fn record_mem_degraded(&self, level: crate::mem::MemLevel) {
        match level {
            crate::mem::MemLevel::Soft => self.add(Counter::mem_soft_events, 1),
            crate::mem::MemLevel::Hard => self.add(Counter::mem_hard_events, 1),
            crate::mem::MemLevel::Normal => {}
        }
    }

    /// Record a ledger block committed in deterministic index order.
    pub fn record_block_commit(&self) {
        self.add(Counter::block_commits, 1);
    }

    /// Record a Block-STM validation abort: the transaction re-runs as a new
    /// incarnation.
    pub fn record_txn_reexecution(&self) {
        self.add(Counter::txn_reexecutions, 1);
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

    /// Every counter summed over the shards. Each sum is exact once the
    /// threads that counted have been joined; while they run, each counter
    /// is individually a point in its own history, as before sharding.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut sums = [0u64; COUNTERS];
        for shard in self.shards.iter() {
            for (sum, counter) in sums.iter_mut().zip(&shard.0) {
                *sum += counter.load(Ordering::Relaxed);
            }
        }
        StatsSnapshot::from_sums(&sums, &self.gauge)
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

    /// Mean top-level admission wait in nanoseconds over every admission,
    /// the ones that did not wait included (0 when none recorded).
    pub fn mean_sem_wait_ns(&self) -> f64 {
        if self.sem_wait_count == 0 {
            0.0
        } else {
            self.sem_wait_total_ns as f64 / self.sem_wait_count as f64
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

/// One learnt cost in ns: an [`ewma`] cell that threads share without a
/// lock. A racing update may be lost, so a cell only ever feeds a heuristic
/// (the pool's hand-off rule, the ledger's helper decision, the ingress
/// poller's budget).
#[derive(Debug, Default)]
pub struct CostEwma(AtomicU64);

impl CostEwma {
    /// A cell seeded with `ns`; 0 means no sample yet.
    pub const fn new(ns: u64) -> Self {
        Self(AtomicU64::new(ns))
    }

    /// The current estimate, 0 before the first sample of an unseeded cell.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Fold one sample into the estimate ([`ewma`]).
    pub fn observe(&self, sample_ns: u64) {
        self.0.store(ewma(self.get(), sample_ns), Ordering::Relaxed);
    }
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
        s.record_park();
        s.record_park();
        s.record_handoff(true);
        s.record_handoff(false);
        s.record_handoff(false);
        let snap = s.snapshot();
        assert_eq!(snap.steal_count, 3);
        assert_eq!(snap.park_count, 2);
        assert_eq!((snap.sched_handoffs, snap.sched_handoffs_elided), (1, 2));
        let d = snap.delta_since(&StatsSnapshot::default());
        assert_eq!(d.steal_count, 3);
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
