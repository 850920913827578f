//! Transactions: the unified [`Txn`] type used at every nesting depth, the
//! read/write machinery, and the nested/top-level commit protocols.
//!
//! # The lock-free hot read path
//!
//! `Txn::read` is the hottest operation in the system and takes **no lock**
//! in the common case:
//!
//! * **Own write set** — a `Txn` is single-threaded between `parallel()`
//!   calls, so it owns its write set outright: typed slots overwritten in
//!   place, in vectors the thread reuses from attempt to attempt
//!   (`sets::TxnBuffers`). When it suspends in a published `parallel()`
//!   batch it moves the set into an `Arc`, an immutable snapshot in its
//!   children's scope that they read with a plain probe, and takes it back
//!   at the join, when the children are gone. That `Arc` is the only
//!   allocation a snapshot costs, and only a published batch pays it.
//!   Children of a *withheld* batch publish nothing: they run on the
//!   parent's own sets, so their reads probe no ancestor level the parent
//!   would not probe itself.
//! * **Ancestor levels** — each scope level carries a 64-bit Bloom filter
//!   (the published write-set filter united with the level's nest-index
//!   filter). A read probes the filter first and skips the level entirely on
//!   the common miss; only a filter hit walks the lock-free
//!   `nest::NestIndex` and the write-set snapshot.
//! * **Global snapshot** — multi-version chains, unchanged.
//!
//! With the `oracle` feature, the locked read path and the global-lock
//! commit run beside these as differential baselines (`oracle.rs`).

pub(crate) mod nest;
#[cfg(any(test, feature = "oracle"))]
mod oracle;
pub(crate) mod sets;

use parking_lot::Mutex;
use std::any::Any;
use std::mem::ManuallyDrop;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::clock::Slot;
use crate::error::{TxError, TxResult};
use crate::runtime::StmShared;
use crate::stats::TxKind;
use crate::trace::{self, TraceEvent};
use crate::vbox::{filter_bits, BelowFloor, ErasedValue, VBox};
use crate::TxValue;
use nest::NestCtx;
use sets::{TxnBuffers, WriteSet};

/// A child-transaction body: called (and re-called, on sibling conflicts)
/// with a fresh nested [`Txn`].
pub type ChildTask<R> = Box<dyn FnMut(&mut Txn<'_>) -> TxResult<R> + Send + 'static>;

/// Convenience constructor for a [`ChildTask`]; lets call sites avoid
/// spelling the boxed-closure type.
///
/// ```
/// # use pnstm::{child, ChildTask};
/// let task: ChildTask<i32> = child(|_tx| Ok(42));
/// ```
pub fn child<R, F>(f: F) -> ChildTask<R>
where
    F: FnMut(&mut Txn<'_>) -> TxResult<R> + Send + 'static,
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

/// Counters local to one transaction attempt: plain integers on the hot
/// path, flushed to the shared [`crate::Stats`] once, when the attempt's
/// `Txn` drops.
#[derive(Clone, Copy, Default)]
struct AttemptCounters {
    /// Ancestor-level probes the filter could not rule out.
    filter_hits: u64,
    /// Ancestor-level probes skipped entirely by the filter.
    filter_misses: u64,
    /// Reads that performed at least one ancestor fallback lookup.
    slow_path: u64,
    /// Withheld children that committed into this attempt.
    inline_commits: u64,
    /// Withheld children a doomed snapshot failed.
    inline_aborts: u64,
}

/// A running transaction, top-level or nested.
///
/// Handed by reference to transaction bodies; see [`crate::Stm::atomic`] and
/// [`Txn::parallel`]. All reads observe the snapshot fixed at the top-level
/// begin plus the transaction tree's own tentative writes. It borrows its
/// [`crate::Stm`] for the attempt: beginning and ending one touches no
/// shared reference count.
pub struct Txn<'s> {
    shared: &'s Arc<StmShared>,
    /// Global snapshot version of the whole transaction tree.
    root_read_version: u64,
    /// Own tentative writes (`sets.ws`, with the undo journal of running
    /// inline children; moved into an `Arc` snapshot for descendants while a
    /// published `parallel()` batch runs), own reads (`sets.rs`, excluding
    /// own-write-set hits, plus the reads of committed children merged in at
    /// each `parallel()` join) and the striped commit's stripe list, in
    /// buffers lent by the thread.
    sets: ManuallyDrop<Box<TxnBuffers>>,
    /// Ancestor chain, nearest first; empty for top-level transactions.
    scope: Vec<ScopeEntry>,
    /// 0 for top-level, parent depth + 1 for children (inline children
    /// included: it is raised while one runs on this `Txn`).
    depth: u32,
    /// Inline children currently running on this `Txn`, nested ones
    /// included; own-write-set inserts are journaled while it is non-zero.
    /// A failing child rolls back to the journal length it found; the
    /// outermost one's success forgets the journal.
    inline: u32,
    /// `Some` when the instance runs the locked-read oracle, holding the
    /// stand-in for the removed own-write-set mutex.
    #[cfg(any(test, feature = "oracle"))]
    locked_reads: Option<Mutex<()>>,
    counts: AttemptCounters,
    /// Slot of the root snapshot's registration (shared by the whole
    /// transaction tree), whose eviction flag the GC watermark computation
    /// sets once the lease expired — see [`crate::clock::SnapshotRegistry`].
    registration: &'s Slot,
    /// Latched true once this attempt observed its snapshot's eviction (a
    /// below-floor read it had to paper over): the attempt must abort at
    /// commit regardless of what the flag reads later.
    doomed: bool,
}

impl<'s> Txn<'s> {
    pub(crate) fn top(
        shared: &'s Arc<StmShared>,
        root_read_version: u64,
        registration: &'s Slot,
    ) -> Self {
        Self::nested(shared, root_read_version, Vec::new(), 0, registration)
    }

    fn nested(
        shared: &'s Arc<StmShared>,
        root_read_version: u64,
        scope: Vec<ScopeEntry>,
        depth: u32,
        registration: &'s Slot,
    ) -> Self {
        Self {
            #[cfg(any(test, feature = "oracle"))]
            locked_reads: (shared.oracle() == Some(crate::Oracle::LockedReads))
                .then(|| Mutex::new(())),
            shared,
            root_read_version,
            sets: ManuallyDrop::new(TxnBuffers::take()),
            scope,
            depth,
            inline: 0,
            counts: AttemptCounters::default(),
            registration,
            doomed: false,
        }
    }

    /// Whether the tree's snapshot has been evicted (lease expired, GC no
    /// longer honours it). Checked by the commit protocols and the retry
    /// drivers; true also once this attempt hit a below-floor read.
    pub(crate) fn snapshot_evicted(&self) -> bool {
        self.doomed || self.registration.is_evicted()
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
        #[cfg(any(test, feature = "oracle"))]
        if self.locked_reads.is_some() {
            return self.read_locked(vbox);
        }
        let id = vbox.id();
        // 1. Own write set (not recorded in the read set: reading your own
        //    write has no external dependency).
        if let Some(v) = self.sets.ws.get::<T>(id) {
            return v;
        }
        // 2. Ancestor chain, nearest level first.
        if !self.scope.is_empty() {
            let bits = filter_bits(id);
            let mut probed = false;
            for entry in &self.scope {
                // Level filter: the union of the published write-set filter
                // and the live nest-index filter over-approximates
                // everything this level could serve; a miss skips both
                // probes. (The index filter is or'ed before each commit's
                // clock publish, so it can't under-report anything our cap
                // entitles us to see.)
                let level_filter = entry.ws_filter | entry.nest.index.filter();
                if level_filter & bits != bits {
                    self.counts.filter_misses += 1;
                    continue;
                }
                self.counts.filter_hits += 1;
                if !probed {
                    probed = true;
                    self.counts.slow_path += 1;
                }
                // Within a level the nest index takes precedence over the
                // write-set snapshot: everything in the snapshot was written
                // before the level's current batch started, while index
                // entries are commits from the in-flight batch.
                //
                // Fault site (`ReadHold`): a slow ancestor probe; it just
                // lengthens this one read.
                if let Some(action) = self.shared.fault().inject(crate::fault::FaultKind::ReadHold)
                {
                    action.stall();
                }
                let hit = match entry.nest.index.lookup(id, entry.cap) {
                    Some(v) => Some(downcast_clone::<T>(&v)),
                    None => entry.ws.get::<T>(id),
                };
                if let Some(v) = hit {
                    self.sets.rs.record(vbox);
                    return v;
                }
            }
        }
        // 3. Global snapshot.
        self.read_snapshot(vbox)
    }

    /// Read `vbox` at the tree's global snapshot, recording the read.
    fn read_snapshot<T: TxValue>(&mut self, vbox: &VBox<T>) -> T {
        self.sets.rs.record(vbox);
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
        self.sets.ws.insert(&vbox.body, value, self.inline > 0);
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
        (self.sets.rs.len(), self.sets.ws.len())
    }

    /// Execute `tasks` as parallel nested (child) transactions and return
    /// their results in task order: [`Txn::parallel_for`] over the boxed
    /// bodies, with the same semantics.
    pub fn parallel<R: Send + 'static>(
        &mut self,
        mut tasks: Vec<ChildTask<R>>,
    ) -> TxResult<Vec<R>> {
        let n = tasks.len();
        let bodies = Bodies(tasks.as_mut_ptr());
        // SAFETY: `tasks` outlives the call, and `parallel_for` runs each
        // index on one executor, one attempt after another, so no two
        // threads ever hold the same body at once.
        self.parallel_for(n, &|tx, i| unsafe { bodies.call(i, tx) })
    }

    /// Execute `n` parallel nested (child) transactions, child `i` running
    /// `f(tx, i)`, and return their results in index order.
    ///
    /// At most `c` children run concurrently, where `c` is the per-tree
    /// nested limit currently configured on the [`crate::Throttle`] — the
    /// calling thread itself executes children alongside up to `c - 1`
    /// shared-pool workers, so `c = 1` degenerates to sequential
    /// (flat-nesting-like) execution. Each child retries automatically on
    /// sibling conflicts; its attempts run one after another on one thread.
    ///
    /// A batch the hand-off rule withholds — always at `c = 1`, and at
    /// `c > 1` when `n · d̄ · (1 − 1/c)` does not cover one hand-off — runs
    /// its children one after another directly on this transaction: no
    /// nested `Txn`, no sibling validation, no allocation, and a failing
    /// child's writes are undone from a journal. Once the withheld children
    /// have taken more than one hand-off cost, the unstarted rest is
    /// published as a nested batch. Either way a child sees its earlier
    /// siblings' writes and [`Txn::depth`] reads one more than here.
    ///
    /// Errors: the first child error in index order is returned. A
    /// [`TxError::UserAbort`] or exhausted child retry budget
    /// ([`TxError::Conflict`]) aborts the enclosing attempt; a panicking
    /// child is re-raised on this thread once every child has run.
    pub fn parallel_for<R, F>(&mut self, n: usize, f: &F) -> TxResult<Vec<R>>
    where
        R: Send,
        F: Fn(&mut Txn<'_>, usize) -> TxResult<R> + Sync,
    {
        if n == 0 {
            return Ok(Vec::new());
        }
        let shared = self.shared;
        let helper_limit = shared.throttle().nested_limit().saturating_sub(1);
        let mut state = (self, Outcomes::with_capacity(n));
        shared.pool().run_children(
            n,
            helper_limit,
            &mut state,
            |(tx, outcomes), i| outcomes.push(tx.run_inline(|tx| f(tx, i))),
            |(tx, outcomes), from| tx.run_published(f, from..n, helper_limit, outcomes),
        );
        state.1.finish()
    }

    /// Run one withheld child directly on this transaction: its reads and
    /// writes use our own sets, [`Txn::depth`] is raised while it runs, and
    /// if it fails — error, panic, or a snapshot evicted under it — exactly
    /// its own writes are rolled back. Siblings never overlap here, so there
    /// is nothing to validate between them.
    fn run_inline<R>(&mut self, body: impl FnOnce(&mut Self) -> TxResult<R>) -> ChildOutcome<R> {
        crate::batch::dispatch_stall(self.shared.fault());
        let traced = self.shared.trace().is_enabled();
        if traced {
            self.shared
                .trace()
                .emit(TraceEvent::TxBegin { kind: TxKind::Nested, at_ns: trace::now_ns() });
        }
        let mark = self.sets.ws.journal_mark();
        self.depth += 1;
        self.inline += 1;
        let mut outcome = panic::catch_unwind(AssertUnwindSafe(|| body(self)));
        self.depth -= 1;
        self.inline -= 1;
        if matches!(outcome, Ok(Ok(_))) && self.snapshot_evicted() {
            // What `commit_nested` would find: the tree cannot commit.
            self.doomed = true;
            self.counts.inline_aborts += 1;
            if traced {
                self.shared.trace().emit(TraceEvent::TxAbort {
                    kind: TxKind::Nested,
                    retries: 1,
                    at_ns: trace::now_ns(),
                });
            }
            outcome = Ok(Err(TxError::Conflict));
        }
        if matches!(outcome, Ok(Ok(_))) {
            self.counts.inline_commits += 1;
            if traced {
                self.shared.trace().emit(TraceEvent::TxCommit {
                    kind: TxKind::Nested,
                    retries: 0,
                    at_ns: trace::now_ns(),
                });
            }
            if self.inline == 0 {
                self.sets.ws.forget_journal(); // nothing above us can fail any more
            }
        } else {
            self.sets.ws.roll_back(mark);
        }
        outcome
    }

    /// Run `children` as a published batch of nested transactions, child
    /// `i` running `f(tx, i)`, appending their outcomes to `outcomes`, and
    /// fold the batch into this transaction at the join. Returns how many
    /// children helpers ran.
    fn run_published<R, F>(
        &mut self,
        f: &F,
        children: Range<usize>,
        helper_limit: usize,
        outcomes: &mut Outcomes<R>,
    ) -> usize
    where
        R: Send,
        F: Fn(&mut Txn<'_>, usize) -> TxResult<R> + Sync,
    {
        // Each batch gets a fresh nest context; at join time the batch's
        // committed writes are folded into this transaction's write set and
        // the children's reads into its read set, so the transaction's own
        // sets always describe its complete tentative state.
        let nest = Arc::new(NestCtx::new());

        // What the children share, on this stack frame. `parent` is the
        // suspend-point snapshot publication: the write set moves into an
        // `Arc` the children share with its filter (withheld earlier
        // siblings' writes included) until the join takes it back.
        let snapshot = Arc::new(std::mem::take(&mut self.sets.ws));
        let from = children.start;
        let family = Family {
            shared: self.shared,
            root_rv: self.root_read_version,
            depth: self.depth + 1,
            parent: ScopeEntry {
                ws_filter: snapshot.filter(),
                ws: Arc::clone(&snapshot),
                nest: Arc::clone(&nest),
                cap: 0,
            },
            inherited: self.scope.clone(),
            registration: self.registration,
            outcomes: children.clone().map(|_| Mutex::new(None)).collect(),
        };
        let tasks = children
            .map(|i| {
                let family = &family;
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                        run_child(family, |tx: &mut Txn<'_>| f(tx, i))
                    }));
                    *family.outcomes[i - from].lock() = Some(outcome);
                });
                // SAFETY: the task borrows `family` and `f`, both of which
                // outlive the `hand_off` call below, and `hand_off` returns
                // or unwinds only after every task it was given has run and
                // been dropped (its drain barrier, DESIGN §5e).
                unsafe { std::mem::transmute::<_, crate::sched::Task>(task) }
            })
            .collect();

        let stolen = self.shared.pool().hand_off(tasks, helper_limit);

        // The batch has drained: every child is gone. Collect the outcomes
        // and take the write set back out of its snapshot `Arc`.
        for slot in family.outcomes.iter() {
            outcomes.push(slot.lock().take().expect("every child task reports exactly once"));
        }
        drop(family);
        self.sets.ws =
            Arc::try_unwrap(snapshot).ok().expect("a drained batch holds no write-set snapshot");

        // Join: fold the batch's effects into this transaction (journaled,
        // when this transaction is itself running an inline child). The
        // index is quiescent now, so it is safe to iterate without the
        // commit lock. Index entries override pre-batch write-set values
        // (they are newer); the children's merged reads become our reads, to
        // be revalidated at our own commit.
        let mut nest = Arc::try_unwrap(nest).ok().expect("a drained batch holds no nest handle");
        let journal = self.inline > 0;
        nest.index
            .drain_newest(|entry| entry.vbox.write_erased(&mut self.sets.ws, entry.value, journal));
        self.sets.rs.merge_from(nest.merged_rs.get_mut());
        stolen
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
        for (id, _) in self.sets.rs.iter() {
            if parent.nest.index.latest_version(*id) > parent.cap {
                return Err(TxError::Conflict);
            }
        }
        if !self.sets.ws.is_empty() {
            // Install first, publish the nest clock after: a sibling whose
            // cap covers this version must find every node of this commit
            // (the Release publish pairs with the Acquire cap read), which
            // is what lets sibling reads skip the commit lock entirely.
            let version = parent.nest.next_version();
            // The write set already contains everything our own children
            // committed (folded in at join time).
            self.sets.ws.drain_erased(|entry| parent.nest.index.install(entry, version));
            parent.nest.publish(version);
        }
        drop(commit_guard);
        // Merge reads (ours + our committed children's) upward for
        // revalidation at the parent's own commit.
        parent.nest.merged_rs.lock().merge_from(&self.sets.rs);
        Ok(())
    }

    /// Commit a top-level transaction: validate the tree's reads and install
    /// the tree's writes at a fresh global version. Returns the number of
    /// versions installed (0 for a read-only commit), the GC pace's unit.
    pub(crate) fn commit_top(&mut self) -> TxResult<u64> {
        debug_assert_eq!(self.depth, 0, "commit_top on a nested transaction");
        // An evicted snapshot aborts at its commit point: the versions it
        // read may already be pruned, and committing would legitimize reads
        // the GC stopped protecting. The driver maps this conflict to an
        // eviction abort (fresh snapshot on retry).
        if self.snapshot_evicted() {
            self.doomed = true;
            return Err(TxError::Conflict);
        }
        #[cfg(any(test, feature = "oracle"))]
        if self.shared.oracle() == Some(crate::Oracle::GlobalLock) {
            return self.commit_top_global();
        }
        self.commit_top_striped()
    }

    /// Striped commit (TL2-style): lock the write set's stripes
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
    fn commit_top_striped(&mut self) -> TxResult<u64> {
        if self.sets.ws.is_empty() {
            return Ok(0); // Read-only: serializable at its snapshot.
        }
        let shared = self.shared;
        let table = shared.stripes();
        let TxnBuffers { ws, footprint, .. } = &mut **self.sets;
        ws.stripe_footprint(footprint);
        let footprint = &self.sets.footprint;
        let contended = table.acquire_sorted(footprint);
        shared.stats().record_stripe_locks(footprint.len() as u32, contended);
        let trace = shared.trace();
        if contended > 0 && trace.is_enabled() {
            trace.emit(TraceEvent::CommitStripeContention {
                stripes: footprint.len() as u32,
                contended,
                at_ns: trace::now_ns(),
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
            table.release_aborted(footprint);
            return Err(TxError::Conflict);
        }
        if !self.stripe_validate(footprint) {
            self.note_stripe_false_conflict();
            table.release_aborted(footprint);
            return Err(TxError::Conflict);
        }
        let version = shared.clock().reserve();
        if !self.stripe_validate(footprint) {
            self.note_stripe_false_conflict();
            // The reserved version is already part of the visible sequence;
            // publish it as a no-op so the clock stays gap-free.
            shared.clock().publish(version);
            table.release_aborted(footprint);
            return Err(TxError::Conflict);
        }
        // Install at the reserved version first and make it visible only
        // afterwards: a transaction beginning mid-commit must keep reading
        // the old snapshot. `publish` additionally waits for version - 1, so
        // a snapshot at V is guaranteed to see the writes of *every* commit
        // <= V, exactly as under the global lock. The heap gauge takes the
        // whole commit in one update.
        let (versions, bytes) = self.sets.ws.install(version);
        shared.stats().gauge().add(versions, bytes);
        shared.clock().publish(version);
        table.release_committed(&self.sets.footprint, version);
        Ok(versions)
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
        self.sets
            .rs
            .iter()
            .all(|(id, _)| table.read_valid(crate::stripes::stripe_of(*id), rv, held))
    }

    /// After a stripe-validation failure: if every read box is individually
    /// still at or below our snapshot, the abort was pure stripe-collision
    /// granularity — count it so the false-conflict rate is observable.
    fn note_stripe_false_conflict(&self) {
        let rv = self.root_read_version;
        if self.sets.rs.iter().all(|(_, vbox)| vbox.latest_version() <= rv) {
            self.shared.stats().record_stripe_false_conflict();
        }
    }
}

impl Drop for Txn<'_> {
    /// Flush the attempt's counters to the shared stats (and the read-path
    /// ones to the trace bus, when enabled), and hand the attempt's sets
    /// back to the thread, cleared. Every attempt runs on a fresh `Txn` —
    /// the retry drivers construct one per iteration — so this fires
    /// exactly once per attempt, on every exit path including panics.
    fn drop(&mut self) {
        // SAFETY: `sets` is not touched again: this is the attempt's end.
        unsafe { ManuallyDrop::take(&mut self.sets) }.give_back();
        let AttemptCounters {
            filter_hits,
            filter_misses,
            slow_path,
            inline_commits,
            inline_aborts,
        } = self.counts;
        let stats = self.shared.stats();
        stats.record_nested(inline_commits, inline_aborts);
        if filter_hits == 0 && filter_misses == 0 && slow_path == 0 {
            return;
        }
        stats.record_read_path(filter_hits, filter_misses, slow_path);
        let trace = self.shared.trace();
        if trace.is_enabled() {
            trace.emit(TraceEvent::ReadPath {
                filter_hits,
                filter_misses,
                slow_path,
                at_ns: trace::now_ns(),
            });
        }
    }
}

/// The outcomes of one `parallel()` batch, folded in task order as they
/// arrive: the values, the first error, and the first panic, which outranks
/// any error.
struct Outcomes<R> {
    values: Vec<R>,
    first_err: Option<TxError>,
    panic: Option<Box<dyn Any + Send>>,
}

impl<R> Outcomes<R> {
    fn with_capacity(n: usize) -> Self {
        Self { values: Vec::with_capacity(n), first_err: None, panic: None }
    }

    fn push(&mut self, outcome: ChildOutcome<R>) {
        match outcome {
            Err(payload) => {
                self.panic.get_or_insert(payload);
            }
            Ok(Ok(value)) => self.values.push(value),
            Ok(Err(e)) => {
                self.first_err.get_or_insert(e);
            }
        }
    }

    /// Re-raise the first child panic, else the first error in task order,
    /// else the values.
    fn finish(self) -> TxResult<Vec<R>> {
        if let Some(payload) = self.panic {
            panic::resume_unwind(payload);
        }
        self.first_err.map_or(Ok(self.values), Err)
    }
}

/// The boxed bodies of one [`Txn::parallel`] call, addressed by index.
struct Bodies<R>(*mut ChildTask<R>);

// SAFETY: `Txn::parallel` hands each body to one executor at a time, and a
// `ChildTask` is `Send`.
unsafe impl<R> Sync for Bodies<R> {}

impl<R> Bodies<R> {
    /// Run body `i` on `tx`.
    ///
    /// # Safety
    ///
    /// `i` is in bounds of the live vector, and no other thread is running
    /// body `i`.
    unsafe fn call(&self, i: usize, tx: &mut Txn<'_>) -> TxResult<R> {
        (*self.0.add(i))(tx)
    }
}

/// What the children of one published batch share: the scope they inherit
/// and the index-addressed slots they report into (child `i` writes its slot
/// once; the parent reads them after the batch has drained, so the locks
/// are never contended). It lives on the parent's stack for the hand-off.
struct Family<'a, R> {
    shared: &'a Arc<StmShared>,
    root_rv: u64,
    depth: u32,
    /// This transaction as the children's nearest scope level (each attempt
    /// takes a fresh `cap`).
    parent: ScopeEntry,
    inherited: Vec<ScopeEntry>,
    registration: &'a Slot,
    outcomes: Box<[Mutex<Option<ChildOutcome<R>>>]>,
}

/// Retry budget of a child transaction fighting sibling conflicts before the
/// conflict is escalated to the whole tree.
const MAX_NESTED_RETRIES: u64 = 10_000;

/// A child's result, or the payload of its panic.
type ChildOutcome<R> = Result<TxResult<R>, Box<dyn Any + Send>>;

/// Run one child to completion: retry on sibling conflicts (with a fresh
/// nest-clock cap each attempt) and propagate user aborts; a panic unwinds to
/// the task wrapper in `Txn::run_published`, which reports it as the outcome.
///
/// Between attempts the contention manager is consulted
/// ([`crate::cm::AbortSite::Nested`]): from its second consecutive abort on,
/// a losing child backs off instead of hot-spinning its way through
/// [`MAX_NESTED_RETRIES`] immediate re-executions against the same winner.
fn run_child<R>(
    family: &Family<'_, R>,
    mut body: impl FnMut(&mut Txn<'_>) -> TxResult<R>,
) -> TxResult<R> {
    let Family { shared, root_rv, depth, parent, inherited, registration, .. } = family;
    let trace = shared.trace();
    if trace.is_enabled() {
        trace.emit(TraceEvent::TxBegin { kind: TxKind::Nested, at_ns: trace::now_ns() });
    }
    let mut ticket = None;
    let mut attempts: u64 = 0;
    loop {
        let mut scope = Vec::with_capacity(1 + inherited.len());
        scope.push(ScopeEntry { cap: parent.nest.now(), ..parent.clone() });
        scope.extend_from_slice(inherited);
        let mut tx = Txn::nested(shared, *root_rv, scope, *depth, registration);

        match body(&mut tx) {
            Err(e) => return Err(e),
            Ok(value) => match tx.commit_nested() {
                Ok(()) => {
                    shared.stats().record_commit_nested();
                    if trace.is_enabled() {
                        trace.emit(TraceEvent::TxCommit {
                            kind: TxKind::Nested,
                            retries: attempts,
                            at_ns: trace::now_ns(),
                        });
                    }
                    return Ok(value);
                }
                Err(TxError::Conflict) => {
                    shared.stats().record_abort_nested();
                    attempts += 1;
                    if trace.is_enabled() {
                        trace.emit(TraceEvent::TxAbort {
                            kind: TxKind::Nested,
                            retries: attempts,
                            at_ns: trace::now_ns(),
                        });
                    }
                    if attempts >= MAX_NESTED_RETRIES {
                        return Err(TxError::Conflict);
                    }
                    // A sibling retry cannot save an evicted tree: the whole
                    // attempt re-runs on a fresh snapshot anyway. Escalate
                    // immediately instead of burning the nested retry budget.
                    if tx.snapshot_evicted() {
                        return Err(TxError::Conflict);
                    }
                    // Drop the attempt (and its scope handles) before any
                    // wait: a sleeping child must not keep the published
                    // parent snapshot alive longer than necessary.
                    drop(tx);
                    let ticket = *ticket.get_or_insert_with(|| shared.cm().begin());
                    let wait = shared.cm().backoff(ticket, attempts);
                    if !wait.is_zero() {
                        // A closed admission gate cuts the wait short: the
                        // conflict then escalates through the normal retry
                        // machinery instead of stalling shutdown.
                        shared.cm_sleep(wait, crate::cm::AbortSite::Nested, attempts);
                    }
                    continue;
                }
                Err(other) => return Err(other),
            },
        }
    }
}

fn downcast_clone<T: TxValue>(v: &ErasedValue) -> T {
    v.downcast_ref::<T>()
        .expect("nest-index value type mismatch: a box was written with a different type")
        .clone()
}
