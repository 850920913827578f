//! Transactions: the unified [`Txn`] type used at every nesting depth, the
//! read/write machinery, and the nested/top-level commit protocols.
//!
//! # The lock-free hot read path
//!
//! `Txn::read` is the hottest operation in the system and takes **no lock**
//! in the common case:
//!
//! * **Own write set** — a `Txn` is single-threaded between `parallel()`
//!   calls, so its write set is a plain map behind an `Arc` mutated
//!   copy-on-write ([`std::sync::Arc::make_mut`]). While the transaction
//!   runs alone it holds the only reference and mutates in place; when it
//!   suspends in `parallel()` it publishes the `Arc` as an immutable
//!   snapshot into its children's scope. Children read the snapshot with a
//!   plain map probe. After the join the children are gone, the snapshot
//!   handle is dropped, and the owner is back to sole ownership — the clone
//!   inside `make_mut` never actually runs in the normal lifecycle.
//! * **Ancestor levels** — each scope level carries a 64-bit Bloom filter
//!   (the published write-set filter united with the level's nest-index
//!   filter). A read probes the filter first and skips the level entirely on
//!   the common miss; only a filter hit walks the lock-free
//!   `nest::NestIndex` and the write-set snapshot.
//! * **Global snapshot** — multi-version chains, unchanged.
//!
//! The retained [`crate::ReadPathMode::Locked`] mode routes the same lookups
//! through the nest commit lock and a per-level write-set lock — the exact
//! locking discipline this refactor removed — as the differential baseline
//! for the `read_scaling` bench and the visibility proptests.

pub(crate) mod nest;
pub(crate) mod sets;

use parking_lot::Mutex;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::error::{TxError, TxResult};
use crate::runtime::StmShared;
use crate::vbox::{filter_bits, BelowFloor, VBox};
use crate::TxValue;
use nest::NestCtx;
use sets::{ReadSet, WriteSet};

/// A child-transaction body: called (and re-called, on sibling conflicts)
/// with a fresh nested [`Txn`].
pub type ChildTask<R> = Box<dyn FnMut(&mut Txn) -> TxResult<R> + Send + 'static>;

/// Convenience constructor for a [`ChildTask`]; lets call sites avoid
/// spelling the boxed-closure type.
///
/// ```
/// # use pnstm::{child, ChildTask};
/// let task: ChildTask<i32> = child(|_tx| Ok(42));
/// ```
pub fn child<R, F>(f: F) -> ChildTask<R>
where
    F: FnMut(&mut Txn) -> TxResult<R> + Send + 'static,
{
    Box::new(f)
}

/// One level of the ancestor chain visible to a nested transaction.
///
/// `ws` is the ancestor's write set as published at the `parallel()` call
/// that spawned this subtree — an immutable snapshot, read without locking
/// (`ws_filter` is its Bloom filter, captured once at publication). `cap` is
/// the nest-clock snapshot this transaction took of that level: only sibling
/// commits at versions `<= cap` are visible, and validation at commit checks
/// nothing newer appeared for any box this transaction read.
#[derive(Clone)]
pub(crate) struct ScopeEntry {
    pub(crate) ws: Arc<WriteSet>,
    pub(crate) ws_filter: u64,
    pub(crate) nest: Arc<NestCtx>,
    pub(crate) cap: u32,
}

/// Read-path counters local to one transaction attempt: plain integers on
/// the hot path, flushed to the shared [`crate::Stats`] once, when the
/// attempt's `Txn` drops.
#[derive(Clone, Copy, Default)]
struct ReadPathCounters {
    /// Ancestor-level probes the filter could not rule out.
    filter_hits: u64,
    /// Ancestor-level probes skipped entirely by the filter.
    filter_misses: u64,
    /// Reads that performed at least one ancestor fallback lookup.
    slow_path: u64,
}

/// A running transaction, top-level or nested.
///
/// Handed by reference to transaction bodies; see [`crate::Stm::atomic`] and
/// [`Txn::parallel`]. All reads observe the snapshot fixed at the top-level
/// begin plus the transaction tree's own tentative writes.
pub struct Txn {
    shared: Arc<StmShared>,
    /// Global snapshot version of the whole transaction tree.
    root_read_version: u64,
    /// Own tentative writes, mutated copy-on-write; published as an immutable
    /// snapshot to descendants at each `parallel()` call.
    ws: Arc<WriteSet>,
    /// Own reads (excluding own-write-set hits), plus the reads of committed
    /// children merged in at each `parallel()` join.
    rs: ReadSet,
    /// Ancestor chain, nearest first; empty for top-level transactions.
    scope: Vec<ScopeEntry>,
    /// 0 for top-level, parent depth + 1 for children.
    depth: u32,
    /// True when the instance runs `ReadPathMode::Locked` (cached from the
    /// config so the read path pays a field load, not a config match).
    locked_reads: bool,
    /// Stands in for the removed own-write-set mutex in `Locked` mode.
    own_ws_mx: Mutex<()>,
    reads: ReadPathCounters,
    /// Eviction flag of the root snapshot's lease registration (shared by
    /// the whole transaction tree; `None` for unleased contexts). Set by the
    /// GC watermark computation once the lease expired — see
    /// [`crate::clock::SnapshotRegistry`].
    evicted: Option<Arc<AtomicBool>>,
    /// Latched true once this attempt observed its snapshot's eviction (a
    /// below-floor read it had to paper over): the attempt must abort at
    /// commit regardless of what the flag reads later.
    doomed: bool,
}

impl Txn {
    pub(crate) fn top(
        shared: Arc<StmShared>,
        root_read_version: u64,
        evicted: Option<Arc<AtomicBool>>,
    ) -> Self {
        let locked_reads =
            matches!(shared.config().read_path, crate::runtime::ReadPathMode::Locked);
        Self {
            shared,
            root_read_version,
            ws: Arc::new(WriteSet::new()),
            rs: ReadSet::new(),
            scope: Vec::new(),
            depth: 0,
            locked_reads,
            own_ws_mx: Mutex::new(()),
            reads: ReadPathCounters::default(),
            evicted,
            doomed: false,
        }
    }

    fn nested(
        shared: Arc<StmShared>,
        root_read_version: u64,
        scope: Vec<ScopeEntry>,
        depth: u32,
        evicted: Option<Arc<AtomicBool>>,
    ) -> Self {
        let locked_reads =
            matches!(shared.config().read_path, crate::runtime::ReadPathMode::Locked);
        Self {
            shared,
            root_read_version,
            ws: Arc::new(WriteSet::new()),
            rs: ReadSet::new(),
            scope,
            depth,
            locked_reads,
            own_ws_mx: Mutex::new(()),
            reads: ReadPathCounters::default(),
            evicted,
            doomed: false,
        }
    }

    /// Whether the tree's snapshot has been evicted (lease expired, GC no
    /// longer honours it). Checked by the commit protocols and the retry
    /// drivers; true also once this attempt hit a below-floor read.
    pub(crate) fn snapshot_evicted(&self) -> bool {
        self.doomed || self.evicted.as_ref().is_some_and(|f| f.load(Ordering::Acquire))
    }

    /// The global snapshot version this transaction tree reads at.
    pub fn root_version(&self) -> u64 {
        self.root_read_version
    }

    /// Nesting depth: 0 for top-level transactions.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Whether this is a nested (child) transaction.
    pub fn is_nested(&self) -> bool {
        self.depth > 0
    }

    /// Read the current value of `vbox` as seen by this transaction.
    ///
    /// Lookup order: own write set (which, after each `parallel()` join,
    /// already contains the newest values committed by this transaction's
    /// children) → each ancestor level, nearest first (that level's nest
    /// index up to the inherited cap, then its published write-set snapshot)
    /// → the global snapshot at the tree's read version. The common case is
    /// lock-free end to end: an own-set probe, one Bloom-filter word per
    /// ancestor level, and a multi-version chain read. Reads never block on
    /// or conflict with concurrent writers.
    pub fn read<T: TxValue>(&mut self, vbox: &VBox<T>) -> T {
        let id = vbox.id();
        // 1. Own write set (not recorded in the read set: reading your own
        //    write has no external dependency).
        if self.locked_reads {
            let _g = self.own_ws_mx.lock();
            if let Some(v) = self.ws.get(id) {
                return downcast_clone::<T>(&v);
            }
        } else if let Some(v) = self.ws.get(id) {
            return downcast_clone::<T>(&v);
        }
        // 2. Ancestor chain, nearest level first.
        if !self.scope.is_empty() {
            let bits = filter_bits(id);
            let mut probed = false;
            for level in 0..self.scope.len() {
                let entry = &self.scope[level];
                if !self.locked_reads {
                    // Level filter: the union of the published write-set
                    // filter and the live nest-index filter over-approximates
                    // everything this level could serve; a miss skips both
                    // probes. (The index filter is or'ed before each commit's
                    // clock publish, so it can't under-report anything our
                    // cap entitles us to see.)
                    let level_filter = entry.ws_filter | entry.nest.index.filter();
                    if level_filter & bits != bits {
                        self.reads.filter_misses += 1;
                        continue;
                    }
                    self.reads.filter_hits += 1;
                }
                if !probed {
                    probed = true;
                    self.reads.slow_path += 1;
                }
                // Within a level the nest index takes precedence over the
                // write-set snapshot: everything in the snapshot was written
                // before the level's current batch started, while index
                // entries are commits from the in-flight batch.
                //
                // Fault site (`ReadHold`): a slow ancestor probe. Locked mode
                // takes the stall while holding the level's commit lock, so
                // sibling reads through this level queue behind it; the
                // lock-free path just lengthens this one read.
                let store_hit = if self.locked_reads {
                    let _g = entry.nest.commit_mx.lock();
                    if let Some(action) =
                        self.shared.fault().inject(crate::fault::FaultKind::ReadHold)
                    {
                        action.stall();
                    }
                    entry.nest.index.lookup(id, entry.cap)
                } else {
                    if let Some(action) =
                        self.shared.fault().inject(crate::fault::FaultKind::ReadHold)
                    {
                        action.stall();
                    }
                    entry.nest.index.lookup(id, entry.cap)
                };
                if let Some(v) = store_hit {
                    self.rs.record(vbox.as_any());
                    return downcast_clone::<T>(&v);
                }
                let ws_hit = if self.locked_reads {
                    let _g = entry.nest.ws_mx.lock();
                    entry.ws.get(id)
                } else {
                    entry.ws.get(id)
                };
                if let Some(v) = ws_hit {
                    self.rs.record(vbox.as_any());
                    return downcast_clone::<T>(&v);
                }
            }
        }
        // 3. Global snapshot.
        self.rs.record(vbox.as_any());
        match vbox.body.read_at(self.root_read_version) {
            Ok(v) => v,
            Err(floor) => self.read_below_floor(vbox, floor),
        }
    }

    /// A global-snapshot read found every retained version newer than the
    /// tree's snapshot. For an evicted snapshot this is expected (the GC
    /// pruned past the expired lease): the attempt is doomed — it will abort
    /// at commit and the driver retries on a fresh snapshot — and the read is
    /// served from the oldest retained version so the body can run to its
    /// next abort point. (Such a read may be mutually inconsistent with
    /// earlier reads; the doomed attempt can never commit them.) Anywhere
    /// else it is a GC watermark bug: counted as a hard error and panicked,
    /// never masked.
    #[cold]
    fn read_below_floor<T: TxValue>(&mut self, vbox: &VBox<T>, floor: BelowFloor) -> T {
        if self.snapshot_evicted() {
            self.doomed = true;
            self.shared.stats().record_evicted_read();
            return vbox.body.read_floor();
        }
        self.shared.stats().record_read_below_floor();
        panic!(
            "vbox {}: no version <= snapshot {} (oldest retained: {}); GC invariant violated",
            vbox.id(),
            self.root_read_version,
            floor.oldest
        );
    }

    /// Tentatively write `value` to `vbox`. Takes effect for other
    /// transactions only when the top-level ancestor commits.
    pub fn write<T: TxValue>(&mut self, vbox: &VBox<T>, value: T) {
        // In-place while we hold the only reference (always, outside
        // `parallel()`); a clone would only ever run if a write raced a
        // published snapshot, which the suspend discipline rules out.
        Arc::make_mut(&mut self.ws).insert(vbox.as_any(), Arc::new(value));
    }

    /// Read-modify-write convenience: `write(f(read()))` and return the new
    /// value.
    pub fn modify<T: TxValue>(&mut self, vbox: &VBox<T>, f: impl FnOnce(T) -> T) -> T {
        let old = self.read(vbox);
        let new = f(old);
        self.write(vbox, new.clone());
        new
    }

    /// Create a new box from inside a transaction.
    ///
    /// The box's initial value is installed at version 0 (visible to every
    /// snapshot). This is safe under the standard publication discipline:
    /// other transactions can only discover the box through data that is
    /// itself updated transactionally.
    pub fn new_vbox<T: TxValue>(&mut self, initial: T) -> VBox<T> {
        self.shared.register_vbox(initial)
    }

    /// Abort the transaction without retry. Sugar for
    /// `return Err(TxError::UserAbort)` via `?`.
    pub fn abort<T>(&mut self) -> TxResult<T> {
        Err(TxError::UserAbort)
    }

    /// Number of boxes read / written so far (introspection and tests).
    pub fn footprint(&self) -> (usize, usize) {
        (self.rs.len(), self.ws.len())
    }

    /// Execute `tasks` as parallel nested (child) transactions and return
    /// their results in task order.
    ///
    /// At most `c` tasks run concurrently, where `c` is the per-tree nested
    /// limit currently configured on the [`crate::Throttle`] — the calling
    /// thread itself executes tasks alongside up to `c - 1` shared-pool
    /// workers, so `c = 1` degenerates to sequential (flat-nesting-like)
    /// execution. Each child retries automatically on sibling conflicts.
    ///
    /// Errors: the first task error in task order is returned. A
    /// [`TxError::UserAbort`] or exhausted child retry budget
    /// ([`TxError::Conflict`]) aborts the enclosing attempt; a panicking
    /// child is re-raised on this thread once the batch has drained.
    pub fn parallel<R: Send + 'static>(&mut self, tasks: Vec<ChildTask<R>>) -> TxResult<Vec<R>> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        // Each batch gets a fresh nest context; at join time the batch's
        // committed writes are folded into this transaction's write set and
        // the children's reads into its read set, so the transaction's own
        // sets always describe its complete tentative state.
        let nest = Arc::new(NestCtx::new());
        let helper_limit = self.shared.throttle().nested_limit().saturating_sub(1);

        // Everything the children share, behind one `Arc`. `parent` is the
        // suspend-point snapshot publication: children share the write-set
        // `Arc` and its filter, and this transaction does not touch `ws`
        // again until the join.
        let family = Arc::new(Family {
            shared: Arc::clone(&self.shared),
            root_rv: self.root_read_version,
            depth: self.depth + 1,
            parent: ScopeEntry {
                ws: Arc::clone(&self.ws),
                ws_filter: self.ws.filter(),
                nest: Arc::clone(&nest),
                cap: 0,
            },
            inherited: self.scope.clone(),
            evicted: self.evicted.clone(),
            outcomes: tasks.iter().map(|_| Mutex::new(None)).collect(),
        });
        let wrapped: Vec<crate::sched::Task> = tasks
            .into_iter()
            .enumerate()
            .map(|(idx, mut body)| {
                let family = Arc::clone(&family);
                Box::new(move || {
                    let outcome =
                        panic::catch_unwind(AssertUnwindSafe(|| run_child(&family, &mut body)));
                    *family.outcomes[idx].lock() = Some(outcome);
                }) as crate::sched::Task
            })
            .collect();

        self.shared.pool().run_batch(wrapped, helper_limit);

        // The batch has drained: every child (and its handle on the family)
        // is gone. Collect the outcomes and drop our own snapshot handle so
        // the fold below mutates the write set in place instead of cloning.
        let outcomes: Vec<_> = family
            .outcomes
            .iter()
            .map(|slot| slot.lock().take().expect("every child task reports exactly once"))
            .collect();
        drop(family);

        // Join: fold the batch's effects into this transaction. The index is
        // quiescent now, so it is safe to iterate without the commit lock.
        // Index entries override pre-batch write-set values (they are
        // newer); the children's merged reads become our reads, to be
        // revalidated at our own commit.
        {
            let ws = Arc::make_mut(&mut self.ws);
            for entry in nest.index.newest_entries() {
                ws.insert(entry.vbox, entry.value);
            }
            self.rs.merge_from(&nest.merged_rs.lock());
        }

        // A child panic outranks any child error; otherwise the first error
        // in task order.
        let mut out = Vec::with_capacity(outcomes.len());
        let mut first_err = None;
        for outcome in outcomes {
            match outcome {
                Err(payload) => panic::resume_unwind(payload),
                Ok(Ok(value)) => out.push(value),
                Ok(Err(e)) => first_err = first_err.or(Some(e)),
            }
        }
        first_err.map_or(Ok(out), Err)
    }

    /// Commit a nested transaction into its parent. Returns
    /// `Err(TxError::Conflict)` on a sibling conflict.
    fn commit_nested(&mut self) -> TxResult<()> {
        if self.snapshot_evicted() {
            self.doomed = true;
            return Err(TxError::Conflict);
        }
        let parent = self.scope.first().expect("nested txn has a parent scope");
        let commit_guard = parent.nest.commit_mx.lock();
        // Sibling validation: no sibling may have installed a newer version
        // of any box we read after our nest-clock snapshot. Committers
        // serialize on the commit lock, so the index is stable here.
        for (id, _) in self.rs.iter() {
            if parent.nest.index.latest_version(*id) > parent.cap {
                return Err(TxError::Conflict);
            }
        }
        if !self.ws.is_empty() {
            // Install first, publish the nest clock after: a sibling whose
            // cap covers this version must find every node of this commit
            // (the Release publish pairs with the Acquire cap read), which
            // is what lets sibling reads skip the commit lock entirely.
            let version = parent.nest.next_version();
            // The write set already contains everything our own children
            // committed (folded in at join time).
            for entry in self.ws.iter() {
                parent.nest.index.install(entry.clone(), version);
            }
            parent.nest.publish(version);
        }
        drop(commit_guard);
        // Merge reads (ours + our committed children's) upward for
        // revalidation at the parent's own commit.
        parent.nest.merged_rs.lock().merge_from(&self.rs);
        Ok(())
    }

    /// Commit a top-level transaction: validate the tree's reads and install
    /// the tree's writes at a fresh global version, via the commit path this
    /// STM instance was configured with.
    pub(crate) fn commit_top(&mut self) -> TxResult<()> {
        debug_assert_eq!(self.depth, 0, "commit_top on a nested transaction");
        // An evicted snapshot aborts at its commit point: the versions it
        // read may already be pruned, and committing would legitimize reads
        // the GC stopped protecting. The driver maps this conflict to an
        // eviction abort (fresh snapshot on retry).
        if self.snapshot_evicted() {
            self.doomed = true;
            return Err(TxError::Conflict);
        }
        match self.shared.config().commit_path {
            crate::runtime::CommitPath::Striped => self.commit_top_striped(),
            crate::runtime::CommitPath::GlobalLock => self.commit_top_global(),
        }
    }

    /// Striped commit (TL2-style, the default): lock the write set's stripes
    /// in canonical order, validate reads against per-stripe version stamps,
    /// reserve a commit version, install, publish.
    ///
    /// Serialization point: the version reservation, taken *while holding*
    /// every write-set stripe lock. Two committers that touch a common box
    /// serialize on its stripe lock, so their reservation order matches
    /// their per-box install order (the version chains stay sorted).
    /// Validation runs twice: a cheap pass before reserving — so the common
    /// conflict abort burns no clock version — and a mandatory pass after,
    /// because a committer with a *smaller* version could lock, install and
    /// release a stripe we read in the window between the first pass and our
    /// reservation.
    fn commit_top_striped(&mut self) -> TxResult<()> {
        let ws = Arc::clone(&self.ws);
        if ws.is_empty() {
            return Ok(()); // Read-only: serializable at its snapshot.
        }
        let shared = &self.shared;
        let table = shared.stripes();
        let footprint = ws.stripe_footprint();
        let contended = table.acquire_sorted(&footprint);
        shared.stats().record_stripe_locks(footprint.len() as u32, contended);
        let trace = shared.trace();
        if contended > 0 && trace.is_enabled() {
            trace.emit(crate::trace::TraceEvent::CommitStripeContention {
                stripes: footprint.len() as u32,
                contended,
                at_ns: crate::trace::now_ns(),
            });
        }
        // Fault site: stall while holding this commit's stripe locks — and
        // only those. Committers on disjoint stripes must keep flowing; only
        // a committer sharing one of our stripes waits out the stall. Sited
        // before the version reservation so a stalled commit cannot block
        // publication of concurrently reserved versions either.
        if let Some(action) = shared.fault().inject(crate::fault::FaultKind::CommitHold) {
            action.stall();
        }
        // Fault site: force a validation failure (synthetic abort storm).
        if shared.fault().inject(crate::fault::FaultKind::ValidationAbort).is_some() {
            table.release_aborted(&footprint);
            return Err(TxError::Conflict);
        }
        if !self.stripe_validate(&footprint) {
            self.note_stripe_false_conflict();
            table.release_aborted(&footprint);
            return Err(TxError::Conflict);
        }
        let version = shared.clock().reserve();
        if !self.stripe_validate(&footprint) {
            self.note_stripe_false_conflict();
            // The reserved version is already part of the visible sequence;
            // publish it as a no-op so the clock stays gap-free.
            shared.clock().publish(version);
            table.release_aborted(&footprint);
            return Err(TxError::Conflict);
        }
        // Install at the reserved version first and make it visible only
        // afterwards: a transaction beginning mid-commit must keep reading
        // the old snapshot. `publish` additionally waits for version - 1, so
        // a snapshot at V is guaranteed to see the writes of *every* commit
        // <= V, exactly as under the global lock.
        for entry in ws.iter() {
            entry.vbox.install_erased(&entry.value, version);
        }
        shared.clock().publish(version);
        table.release_committed(&footprint, version);
        Ok(())
    }

    /// Validate the whole tree's reads (children's reads were folded into
    /// ours at each join) against the stripe table: each read box's stripe
    /// must be unlocked (or held by this commit) with a stamp at or below
    /// our snapshot. Coarser than per-box validation — distinct boxes
    /// sharing a stripe can fail this spuriously — but never admits a stale
    /// read.
    fn stripe_validate(&self, held: &[usize]) -> bool {
        let table = self.shared.stripes();
        let rv = self.root_read_version;
        self.rs.iter().all(|(id, _)| table.read_valid(crate::stripes::stripe_of(*id), rv, held))
    }

    /// After a stripe-validation failure: if every read box is individually
    /// still at or below our snapshot, the abort was pure stripe-collision
    /// granularity — count it so the false-conflict rate is observable.
    fn note_stripe_false_conflict(&self) {
        let rv = self.root_read_version;
        if self.rs.iter().all(|(_, vbox)| vbox.latest_version() <= rv) {
            self.shared.stats().record_stripe_false_conflict();
        }
    }

    /// Global-lock commit: the original protocol, retained as the
    /// differential-testing oracle and bench baseline
    /// ([`crate::CommitPath::GlobalLock`]).
    fn commit_top_global(&mut self) -> TxResult<()> {
        let ws = Arc::clone(&self.ws);
        if ws.is_empty() {
            return Ok(()); // Read-only: serializable at its snapshot.
        }

        let _commit_guard = self.shared.commit_lock().lock();
        // Fault site: stall while *holding* the commit lock (serializes every
        // other committer behind the injected delay).
        if let Some(action) = self.shared.fault().inject(crate::fault::FaultKind::CommitHold) {
            action.stall();
        }
        // Fault site: force a validation failure (synthetic abort storm).
        if self.shared.fault().inject(crate::fault::FaultKind::ValidationAbort).is_some() {
            return Err(TxError::Conflict);
        }
        // Validate the whole tree's reads (children's reads were folded into
        // ours at each join).
        for (_, vbox) in self.rs.iter() {
            if vbox.latest_version() > self.root_read_version {
                return Err(TxError::Conflict);
            }
        }
        // Install at the *next* version first and publish the clock only
        // afterwards: a transaction beginning mid-commit must keep reading
        // the old snapshot. Ticking before installing would let it adopt the
        // new version number while some boxes still serve old values — and
        // then pass validation against data it never actually read.
        let version = self.shared.clock().now() + 1;
        for entry in ws.iter() {
            entry.vbox.install_erased(&entry.value, version);
        }
        let published = self.shared.clock().tick();
        debug_assert_eq!(published, version, "commit lock serializes clock ticks");
        Ok(())
    }
}

impl Drop for Txn {
    /// Flush the attempt's read-path counters to the shared stats (and the
    /// trace bus, when enabled). Every attempt runs on a fresh `Txn` — the
    /// retry drivers construct one per iteration — so this fires exactly
    /// once per attempt, on every exit path including panics.
    fn drop(&mut self) {
        let ReadPathCounters { filter_hits, filter_misses, slow_path } = self.reads;
        if filter_hits == 0 && filter_misses == 0 && slow_path == 0 {
            return;
        }
        self.shared.stats().record_read_path(filter_hits, filter_misses, slow_path);
        let trace = self.shared.trace();
        if trace.is_enabled() {
            trace.emit(crate::trace::TraceEvent::ReadPath {
                filter_hits,
                filter_misses,
                slow_path,
                at_ns: crate::trace::now_ns(),
            });
        }
    }
}

/// What the children of one `parallel()` batch share: the scope they inherit
/// and the index-addressed slots they report into (child `i` writes slot `i`
/// once; the parent reads them after the batch has drained, so the locks
/// are never contended).
struct Family<R> {
    shared: Arc<StmShared>,
    root_rv: u64,
    depth: u32,
    /// This transaction as the children's nearest scope level (each attempt
    /// takes a fresh `cap`).
    parent: ScopeEntry,
    inherited: Vec<ScopeEntry>,
    evicted: Option<Arc<AtomicBool>>,
    outcomes: Box<[Mutex<Option<ChildOutcome<R>>>]>,
}

/// A child's result, or the payload of its panic.
type ChildOutcome<R> = Result<TxResult<R>, Box<dyn Any + Send>>;

/// Run one child task to completion: retry on sibling conflicts (with a fresh
/// nest-clock cap each attempt) and propagate user aborts; a panic unwinds to
/// the task wrapper in [`Txn::parallel`], which reports it as the outcome.
///
/// Between attempts the contention manager is consulted
/// ([`crate::cm::AbortSite::Nested`]): under the backoff/karma/greedy rungs
/// a losing child sleeps instead of hot-spinning its way through
/// `max_nested_retries` immediate re-executions against the same winner.
fn run_child<R>(
    family: &Family<R>,
    body: &mut (dyn FnMut(&mut Txn) -> TxResult<R> + Send),
) -> TxResult<R> {
    let Family { shared, root_rv, depth, parent, inherited, evicted, .. } = family;
    let max_retries = shared.config().max_nested_retries;
    let trace = shared.trace();
    if trace.is_enabled() {
        trace.emit(crate::trace::TraceEvent::TxBegin {
            kind: crate::stats::TxKind::Nested,
            at_ns: crate::trace::now_ns(),
        });
    }
    let mut cm_tx = shared.cm().begin_guard();
    let mut attempts: u64 = 0;
    loop {
        let mut scope = Vec::with_capacity(1 + inherited.len());
        scope.push(ScopeEntry { cap: parent.nest.now(), ..parent.clone() });
        scope.extend_from_slice(inherited);
        let mut tx = Txn::nested(Arc::clone(shared), *root_rv, scope, *depth, evicted.clone());

        match body(&mut tx) {
            Err(e) => return Err(e),
            Ok(value) => match tx.commit_nested() {
                Ok(()) => {
                    shared.stats().record_commit_nested();
                    if trace.is_enabled() {
                        trace.emit(crate::trace::TraceEvent::TxCommit {
                            kind: crate::stats::TxKind::Nested,
                            retries: attempts,
                            at_ns: crate::trace::now_ns(),
                        });
                    }
                    return Ok(value);
                }
                Err(TxError::Conflict) => {
                    shared.stats().record_abort_nested();
                    attempts += 1;
                    if trace.is_enabled() {
                        trace.emit(crate::trace::TraceEvent::TxAbort {
                            kind: crate::stats::TxKind::Nested,
                            retries: attempts,
                            at_ns: crate::trace::now_ns(),
                        });
                    }
                    if attempts >= max_retries {
                        return Err(TxError::Conflict);
                    }
                    // A sibling retry cannot save an evicted tree: the whole
                    // attempt re-runs on a fresh snapshot anyway. Escalate
                    // immediately instead of burning the nested retry budget.
                    if tx.snapshot_evicted() {
                        return Err(TxError::Conflict);
                    }
                    let (r, w) = tx.footprint();
                    // Drop the attempt (and its scope handles) before any
                    // wait: a sleeping child must not keep the published
                    // parent snapshot alive longer than necessary.
                    drop(tx);
                    let (policy, wait) =
                        cm_tx.decide(crate::cm::AbortSite::Nested, attempts, r + w);
                    if !wait.is_zero() {
                        // A closed admission gate cuts the wait short: the
                        // conflict then escalates through the normal retry
                        // machinery instead of stalling shutdown.
                        let throttle = shared.throttle();
                        let (waited_ns, _cancelled) =
                            crate::cm::sleep_interruptible(wait, || throttle.is_closed());
                        shared.stats().record_cm_wait(policy.index(), waited_ns);
                        if trace.is_enabled() {
                            trace.emit(crate::trace::TraceEvent::CmDecision {
                                policy,
                                site: crate::cm::AbortSite::Nested,
                                waited_ns,
                                attempt: attempts,
                                at_ns: crate::trace::now_ns(),
                            });
                        }
                    }
                    continue;
                }
                Err(other) => return Err(other),
            },
        }
    }
}

fn downcast_clone<T: TxValue>(v: &crate::vbox::ErasedValue) -> T {
    v.downcast_ref::<T>()
        .expect("write-set value type mismatch: a box was written with a different type")
        .clone()
}
