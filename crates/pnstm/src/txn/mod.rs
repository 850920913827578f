//! Transactions: the unified [`Txn`] type used at every nesting depth, the
//! read/write machinery, and the nested/top-level commit protocols.
//!
//! # The lock-free hot read path
//!
//! `Txn::read` is the hottest operation in the system and takes **no lock**
//! in the common case:
//!
//! * **Own write set** — a `Txn` is single-threaded between `parallel()`
//!   calls, so its write set is a plain vector behind an `Arc` mutated
//!   copy-on-write ([`std::sync::Arc::make_mut`]). While the transaction
//!   runs alone it holds the only reference and mutates in place; when it
//!   suspends in a published `parallel()` batch it publishes the `Arc` as an
//!   immutable snapshot into its children's scope. Children read the
//!   snapshot with a plain probe. After the join the children are gone,
//!   the snapshot handle is dropped, and the owner is back to sole
//!   ownership — the clone inside `make_mut` never actually runs in the
//!   normal lifecycle. Children of a *withheld* batch publish nothing: they
//!   run on the parent's own sets, so their reads probe no ancestor level
//!   the parent would not probe itself.
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
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

use crate::clock::EvictionFlag;
use crate::error::{TxError, TxResult};
use crate::runtime::StmShared;
use crate::stats::TxKind;
use crate::trace::{self, TraceEvent};
use crate::vbox::{filter_bits, AnyVBox, BelowFloor, BoxId, ErasedValue, VBox};
use crate::TxValue;
use nest::NestCtx;
use sets::{ReadSet, WriteSet, WsEntry};

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
    /// 0 for top-level, parent depth + 1 for children (inline children
    /// included: it is raised while one runs on this `Txn`).
    depth: u32,
    /// Inline children currently running on this `Txn`, nested ones
    /// included; own-write-set inserts are journaled while it is non-zero.
    inline: u32,
    /// Undo journal of the running inline children: each own-write-set
    /// insert with the entry it replaced, oldest first. A failing child
    /// rolls back to the length it found; the outermost one's success
    /// empties it.
    journal: Vec<(BoxId, Option<WsEntry>)>,
    /// `Some` when the instance runs the locked-read oracle, holding the
    /// stand-in for the removed own-write-set mutex.
    #[cfg(any(test, feature = "oracle"))]
    locked_reads: Option<Mutex<()>>,
    reads: ReadPathCounters,
    /// Eviction flag of the root snapshot's registration (shared by the
    /// whole transaction tree). Set by the GC watermark computation once the
    /// lease expired — see [`crate::clock::SnapshotRegistry`].
    evicted: EvictionFlag,
    /// Latched true once this attempt observed its snapshot's eviction (a
    /// below-floor read it had to paper over): the attempt must abort at
    /// commit regardless of what the flag reads later.
    doomed: bool,
}

impl Txn {
    pub(crate) fn top(
        shared: Arc<StmShared>,
        root_read_version: u64,
        evicted: EvictionFlag,
    ) -> Self {
        Self::nested(shared, root_read_version, Vec::new(), 0, evicted)
    }

    fn nested(
        shared: Arc<StmShared>,
        root_read_version: u64,
        scope: Vec<ScopeEntry>,
        depth: u32,
        evicted: EvictionFlag,
    ) -> Self {
        Self {
            #[cfg(any(test, feature = "oracle"))]
            locked_reads: (shared.oracle() == Some(crate::Oracle::LockedReads))
                .then(|| Mutex::new(())),
            shared,
            root_read_version,
            ws: Arc::new(WriteSet::new()),
            rs: ReadSet::new(),
            scope,
            depth,
            inline: 0,
            journal: Vec::new(),
            reads: ReadPathCounters::default(),
            evicted,
            doomed: false,
        }
    }

    /// Whether the tree's snapshot has been evicted (lease expired, GC no
    /// longer honours it). Checked by the commit protocols and the retry
    /// drivers; true also once this attempt hit a below-floor read.
    pub(crate) fn snapshot_evicted(&self) -> bool {
        self.doomed || self.shared.registry().is_evicted(&self.evicted)
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
        #[cfg(any(test, feature = "oracle"))]
        if self.locked_reads.is_some() {
            return self.read_locked(vbox);
        }
        let id = vbox.id();
        // 1. Own write set (not recorded in the read set: reading your own
        //    write has no external dependency).
        if let Some(v) = self.ws.get(id) {
            return downcast_clone::<T>(&v);
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
                    self.reads.filter_misses += 1;
                    continue;
                }
                self.reads.filter_hits += 1;
                if !probed {
                    probed = true;
                    self.reads.slow_path += 1;
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
                if let Some(v) = entry.nest.index.lookup(id, entry.cap).or_else(|| entry.ws.get(id))
                {
                    self.rs.record(vbox);
                    return downcast_clone::<T>(&v);
                }
            }
        }
        // 3. Global snapshot.
        self.read_snapshot(vbox)
    }

    /// Read `vbox` at the tree's global snapshot, recording the read.
    fn read_snapshot<T: TxValue>(&mut self, vbox: &VBox<T>) -> T {
        self.rs.record(vbox);
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
        self.put(vbox.as_any(), Arc::new(value));
    }

    /// Insert into the own write set, journaling what the insert replaced
    /// while an inline child runs.
    fn put(&mut self, vbox: Arc<dyn AnyVBox>, value: ErasedValue) {
        let id = vbox.id();
        // In-place while we hold the only reference (always, outside a
        // published batch); a clone would only ever run if a write raced a
        // published snapshot, which the suspend discipline rules out.
        let replaced = Arc::make_mut(&mut self.ws).insert(vbox, value);
        if self.inline > 0 {
            self.journal.push((id, replaced));
        }
    }

    /// Undo the journaled inserts past `mark`, newest first.
    fn roll_back(&mut self, mark: usize) {
        let ws = Arc::make_mut(&mut self.ws);
        for (id, replaced) in self.journal.drain(mark..).rev() {
            match replaced {
                Some(entry) => {
                    ws.insert(entry.vbox, entry.value);
                }
                None => ws.remove(id),
            }
        }
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
    /// A batch the hand-off rule withholds — always at `c = 1`, and at
    /// `c > 1` when `n · d̄ · (1 − 1/c)` does not cover one hand-off — runs
    /// its children one after another directly on this transaction: no
    /// nested `Txn`, no sibling validation, and a failing child's writes are
    /// undone from a journal. Once the withheld children have taken more
    /// than one hand-off cost, the unstarted rest is published as a nested
    /// batch. Either way a child sees its earlier siblings' writes and
    /// [`Txn::depth`] reads one more than here.
    ///
    /// Errors: the first task error in task order is returned. A
    /// [`TxError::UserAbort`] or exhausted child retry budget
    /// ([`TxError::Conflict`]) aborts the enclosing attempt; a panicking
    /// child is re-raised on this thread once every child has run.
    pub fn parallel<R: Send + 'static>(&mut self, tasks: Vec<ChildTask<R>>) -> TxResult<Vec<R>> {
        let n = tasks.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let helper_limit = self.shared.throttle().nested_limit().saturating_sub(1);
        let mut outcomes = Vec::with_capacity(n);
        let handoff = if self.shared.pool().publish_now(n, helper_limit) {
            Some(self.run_published(tasks, helper_limit, &mut outcomes))
        } else {
            // Withheld: the same loop as `Pool::run_batch`, with each child
            // run on this transaction's own sets.
            let timed = helper_limit > 0;
            let start = if timed { trace::now_ns() } else { 0 };
            let (mut spent, mut ran, mut handoff) = (0, 0, None);
            let mut tasks = tasks.into_iter();
            while let Some(mut body) = tasks.next() {
                outcomes.push(self.run_inline(&mut body));
                if timed {
                    ran += 1;
                    spent = trace::now_ns() - start;
                    if tasks.len() > 0 && self.shared.pool().publish_late(spent) {
                        let rest = tasks.by_ref().collect();
                        handoff = Some(self.run_published(rest, helper_limit, &mut outcomes));
                    }
                }
            }
            if timed {
                self.shared.pool().observe_withheld(spent, ran, handoff.is_some());
            }
            handoff
        };
        crate::batch::trace_batch(self.shared.trace(), n, handoff);

        // A child panic outranks any child error; otherwise the first error
        // in task order.
        let mut out = Vec::with_capacity(n);
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

    /// Run one withheld child directly on this transaction: its reads and
    /// writes use our own sets, [`Txn::depth`] is raised while it runs, and
    /// if it fails — error, panic, or a snapshot evicted under it — exactly
    /// its own writes are rolled back. Siblings never overlap here, so there
    /// is nothing to validate between them.
    fn run_inline<R>(&mut self, body: &mut ChildTask<R>) -> ChildOutcome<R> {
        crate::batch::dispatch_stall(self.shared.fault());
        let traced = self.shared.trace().is_enabled();
        if traced {
            self.shared
                .trace()
                .emit(TraceEvent::TxBegin { kind: TxKind::Nested, at_ns: trace::now_ns() });
        }
        let mark = self.journal.len();
        self.depth += 1;
        self.inline += 1;
        let mut outcome = panic::catch_unwind(AssertUnwindSafe(|| body(self)));
        self.depth -= 1;
        self.inline -= 1;
        if matches!(outcome, Ok(Ok(_))) && self.snapshot_evicted() {
            // What `commit_nested` would find: the tree cannot commit.
            self.doomed = true;
            self.shared.stats().record_abort_nested();
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
            self.shared.stats().record_commit_nested();
            if traced {
                self.shared.trace().emit(TraceEvent::TxCommit {
                    kind: TxKind::Nested,
                    retries: 0,
                    at_ns: trace::now_ns(),
                });
            }
            if self.inline == 0 {
                self.journal.clear(); // nothing above us can fail any more
            }
        } else {
            self.roll_back(mark);
        }
        outcome
    }

    /// Run `tasks` as a published batch of nested transactions, appending
    /// their outcomes to `outcomes`, and fold the batch into this
    /// transaction at the join. Returns the hand-off's `(stolen,
    /// overflowed)` counts.
    fn run_published<R: Send + 'static>(
        &mut self,
        tasks: Vec<ChildTask<R>>,
        helper_limit: usize,
        outcomes: &mut Vec<ChildOutcome<R>>,
    ) -> (usize, usize) {
        // Each batch gets a fresh nest context; at join time the batch's
        // committed writes are folded into this transaction's write set and
        // the children's reads into its read set, so the transaction's own
        // sets always describe its complete tentative state.
        let nest = Arc::new(NestCtx::new());

        // Everything the children share, behind one `Arc`. `parent` is the
        // suspend-point snapshot publication: children share the write-set
        // `Arc` and its filter (withheld earlier siblings' writes included),
        // and this transaction does not touch `ws` again until the join.
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

        let counts = self.shared.pool().hand_off(wrapped, helper_limit);

        // The batch has drained: every child (and its handle on the family)
        // is gone. Collect the outcomes and drop our own snapshot handle so
        // the fold below mutates the write set in place instead of cloning.
        outcomes.extend(
            family
                .outcomes
                .iter()
                .map(|slot| slot.lock().take().expect("every child task reports exactly once")),
        );
        drop(family);

        // Join: fold the batch's effects into this transaction (journaled,
        // when this transaction is itself running an inline child). The
        // index is quiescent now, so it is safe to iterate without the
        // commit lock. Index entries override pre-batch write-set values
        // (they are newer); the children's merged reads become our reads, to
        // be revalidated at our own commit.
        for entry in nest.index.newest_entries() {
            self.put(entry.vbox, entry.value);
        }
        self.rs.merge_from(&nest.merged_rs.lock());
        counts
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
    /// the tree's writes at a fresh global version.
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
            trace.emit(TraceEvent::ReadPath {
                filter_hits,
                filter_misses,
                slow_path,
                at_ns: trace::now_ns(),
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
    evicted: EvictionFlag,
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
        trace.emit(TraceEvent::TxBegin { kind: TxKind::Nested, at_ns: trace::now_ns() });
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
                            trace.emit(TraceEvent::CmDecision {
                                policy,
                                site: crate::cm::AbortSite::Nested,
                                waited_ns,
                                attempt: attempts,
                                at_ns: trace::now_ns(),
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
