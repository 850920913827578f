//! The optimistic parallel [`BlockExecutor`].
//!
//! A block commits in deterministic index order: the executor runs
//! transactions optimistically against the multi-version scratch
//! ([`crate::mv`]) under the collaborative scheduler ([`crate::sched`]),
//! then installs the chain heads into the `pnstm` base state as one commit.
//! With the `oracle` feature, `BlockExecutor::sequential` builds the
//! executor it must be indistinguishable from: the same call sites replay
//! transactions one `Stm::atomic` at a time, as bench baseline and
//! differential oracle.
//!
//! A block costs what its transactions cost. The executor keeps its scratch,
//! scheduler and per-transaction slots across blocks and resets them from
//! the list of accounts the block names; it snapshots and installs only
//! those accounts; executing a transaction allocates nothing. Whether a
//! block gets helpers is §5e's hand-off rule, asked with the block's length
//! and the executor's learnt cost per transaction.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use pnstm::sched::Task as PoolTask;
use pnstm::stats::CostEwma;
use pnstm::trace::now_ns;
use pnstm::{FaultKind, Stm, StmError, TraceEvent, VBox, WorkStealingPool};

use crate::mv::{MvMemory, ReadOrigin, ReadResult};
use crate::sched::{BlockScheduler, Task};
use crate::txn::{self, AccountId, Amount, TransferTxn, TxnOutput};

/// Ledger-mode configuration.
#[derive(Debug, Clone)]
pub struct LedgerConfig {
    /// Worker threads driving the block (the executor keeps a `pnstm`
    /// work-stealing pool of `workers - 1` helpers; the calling thread is
    /// always the first worker).
    pub workers: usize,
    /// [`BlockExecutor::execute_all`] splits a transaction stream into
    /// blocks of this size.
    pub block_size: usize,
    /// Simulated per-execution work (spent once per incarnation). Benchmarks use this the same
    /// way the scaling benches use injected commit holds: it models the
    /// non-transactional compute a real transaction would do, so parallel
    /// speedups are observable even on a loaded 1-core runner.
    pub work: Duration,
}

impl Default for LedgerConfig {
    fn default() -> Self {
        Self { workers: 4, block_size: 256, work: Duration::ZERO }
    }
}

/// What a committed block reports back.
#[derive(Debug, Clone)]
pub struct BlockOutcome {
    /// Per-transaction outputs, in block order. Part of the differential
    /// contract together with the final balances.
    pub outputs: Vec<TxnOutput>,
    /// Incarnation re-executions the block needed (bounded by conflicts).
    pub reexecutions: u64,
}

/// Up to two items inline: a transfer reads and writes at most two accounts.
#[derive(Clone, Copy)]
struct Pair<T> {
    items: [T; 2],
    len: usize,
}

impl<T: Copy> Pair<T> {
    fn empty(fill: T) -> Self {
        Self { items: [fill; 2], len: 0 }
    }

    fn push(&mut self, item: T) {
        self.items[self.len] = item;
        self.len += 1;
    }

    fn as_slice(&self) -> &[T] {
        &self.items[..self.len]
    }
}

/// The latest incarnation of one transaction: what it read, which accounts
/// it wrote, and its output.
struct TxnSlot {
    reads: Pair<(AccountId, ReadOrigin)>,
    footprint: Pair<AccountId>,
    output: Option<TxnOutput>,
}

impl Default for TxnSlot {
    fn default() -> Self {
        Self { reads: Pair::empty((0, ReadOrigin::Base)), footprint: Pair::empty(0), output: None }
    }
}

/// What a block's workers share, kept across blocks and `Arc`ed because the
/// pool's tasks are `'static`. Between blocks the executor holds the only
/// handle and resets it in place.
struct Engine {
    stm: Stm,
    work: Duration,
    block: Vec<TransferTxn>,
    /// Committed balances before the block, one per account; only the
    /// entries `touched` names are current.
    base: Vec<Amount>,
    /// The distinct accounts the block's transactions name: every account it
    /// can read or write.
    touched: Vec<AccountId>,
    /// `named[a]` iff `a` is in `touched`.
    named: Vec<bool>,
    mv: MvMemory,
    sched: BlockScheduler,
    slots: Vec<Mutex<TxnSlot>>,
}

impl Engine {
    fn new(stm: &Stm, accounts: usize, work: Duration) -> Self {
        Self {
            stm: stm.clone(),
            work,
            block: Vec::new(),
            base: vec![0; accounts],
            touched: Vec::new(),
            named: vec![false; accounts],
            mv: MvMemory::new(accounts),
            sched: BlockScheduler::new(0),
            slots: Vec::new(),
        }
    }

    /// Forget the previous block — its chains, its account list, its
    /// scheduler and slot state — and take `block` on. Resetting at the
    /// start, from the previous block's own account list, also covers a
    /// block that was abandoned or unwound halfway.
    fn prepare(&mut self, block: &[TransferTxn]) {
        self.mv.clear(&self.touched);
        for &account in &self.touched {
            self.named[account] = false;
        }
        self.touched.clear();
        debug_assert!(self.mv.is_clear(), "a chain outlived its block");
        self.block.clear();
        self.block.extend_from_slice(block);
        for txn in block {
            for account in [txn.from, txn.to] {
                if !self.named[account] {
                    self.named[account] = true;
                    self.touched.push(account);
                }
            }
        }
        let n = block.len();
        self.sched.reset(n);
        if self.slots.len() < n {
            self.slots.resize_with(n, Mutex::default);
        }
        for slot in &mut self.slots[..n] {
            *slot.get_mut() = TxnSlot::default();
        }
    }

    /// One worker: pull tasks until the block is done, polling the admission
    /// gate so a mid-block shutdown drains every worker promptly, and
    /// parking while peers hold the last tasks.
    fn run_worker(&self) {
        let mut task = None;
        while !self.sched.done() {
            if self.stm.throttle().is_closed() {
                self.sched.halt();
                break;
            }
            task = match task.take().or_else(|| self.sched.next_task()) {
                Some(Task::Execute { txn_idx, incarnation }) => self.execute(txn_idx, incarnation),
                Some(Task::Validate { txn_idx, incarnation }) => {
                    self.validate(txn_idx, incarnation)
                }
                None => {
                    self.sched.wait_for_work();
                    None
                }
            };
        }
    }

    fn execute(&self, txn_idx: usize, incarnation: u32) -> Option<Task> {
        loop {
            let mut reads = Pair::empty((0, ReadOrigin::Base));
            let mut blocked = None;
            let result = txn::execute(&self.block[txn_idx], |a| match self.mv.read(a, txn_idx) {
                ReadResult::Ok(v, origin) => {
                    reads.push((a, origin));
                    Ok(if origin == ReadOrigin::Base { self.base[a] } else { v })
                }
                ReadResult::Blocked { blocking_txn } => {
                    blocked = Some(blocking_txn);
                    Err(())
                }
            });
            let Ok((writes, out)) = result else {
                // Hit an ESTIMATE: suspend on its owner, or — if the owner
                // already re-executed — retry the read immediately.
                if self.sched.suspend(txn_idx, blocked.expect("blocked read sets the blocker")) {
                    return None;
                }
                continue;
            };
            if !self.work.is_zero() {
                std::thread::sleep(self.work);
            }
            let wrote_new_path = {
                let mut slot = self.slots[txn_idx].lock();
                let wrote_new =
                    self.mv.apply_writes(txn_idx, incarnation, &writes, slot.footprint.as_slice());
                slot.footprint = Pair::empty(0);
                for &(account, _) in writes.iter() {
                    slot.footprint.push(account);
                }
                slot.reads = reads;
                slot.output = Some(out);
                wrote_new
            };
            return self.sched.finish_execution(txn_idx, incarnation, wrote_new_path);
        }
    }

    fn validate(&self, txn_idx: usize, incarnation: u32) -> Option<Task> {
        let valid = {
            let slot = self.slots[txn_idx].lock();
            self.mv.validate(txn_idx, slot.reads.as_slice())
        };
        let aborted = !valid && self.sched.try_validation_abort(txn_idx, incarnation);
        if aborted {
            let footprint = self.slots[txn_idx].lock().footprint;
            self.mv.convert_writes_to_estimates(txn_idx, footprint.as_slice());
            self.stm.stats().record_txn_reexecution();
            self.stm.trace_bus().emit(TraceEvent::TxnReexecuted {
                txn_idx: txn_idx as u32,
                incarnation: incarnation + 1,
                at_ns: now_ns(),
            });
        }
        self.sched.finish_validation(txn_idx, aborted)
    }
}

/// Executes blocks of transfers over a fixed account set held in `pnstm`
/// boxes. One executor owns its accounts; blocks are executed one at a time
/// (the final install assumes no concurrent writer mutates the accounts
/// mid-block).
pub struct BlockExecutor {
    stm: Stm,
    accounts: Vec<VBox<Amount>>,
    cfg: LedgerConfig,
    pool: WorkStealingPool,
    /// Live worker-count knob: how many of the pool's workers the *next*
    /// block uses. Capped by `cfg.workers` (the pool's provisioned size);
    /// retargetable mid-stream, taking effect at the next block boundary.
    live_workers: AtomicUsize,
    /// The block state, held for the length of a block.
    engine: Mutex<Arc<Engine>>,
    /// Wall time per transaction of the waves of a block run without
    /// helpers: the `d̄` the hand-off rule is asked with.
    solo_ns: CostEwma,
    /// Wall time per transaction of the waves of a block run with helpers,
    /// hand-off and join included.
    helped_ns: CostEwma,
    /// Replay blocks one `Stm::atomic` per transaction instead (the
    /// sequential oracle).
    #[cfg(any(test, feature = "oracle"))]
    sequential: bool,
}

impl BlockExecutor {
    /// Create an executor with `initial` account balances. The worker pool
    /// is wired to the STM's fault context, stats and trace bus, so
    /// `ChildStall` plans (once per worker loop, withheld blocks included)
    /// and `sched_handoffs`/`steal_count` cover block execution the same way
    /// they cover nested children.
    pub fn new(stm: &Stm, initial: &[Amount], cfg: LedgerConfig) -> Self {
        let accounts = initial.iter().map(|&b| stm.new_vbox(b)).collect::<Vec<_>>();
        let pool = WorkStealingPool::with_instruments(
            cfg.workers.saturating_sub(1),
            stm.fault_ctx().clone(),
            stm.stats_handle(),
            stm.trace_bus().clone(),
        );
        let live_workers = AtomicUsize::new(cfg.workers.max(1));
        let engine = Mutex::new(Arc::new(Engine::new(stm, accounts.len(), cfg.work)));
        Self {
            stm: stm.clone(),
            accounts,
            cfg,
            pool,
            live_workers,
            engine,
            solo_ns: CostEwma::new(0),
            helped_ns: CostEwma::new(0),
            #[cfg(any(test, feature = "oracle"))]
            sequential: false,
        }
    }

    /// The sequential-replay oracle over the same accounts and call sites:
    /// each block runs in index order, one `Stm::atomic` per transaction,
    /// spending `cfg.work` once per transaction.
    #[cfg(any(test, feature = "oracle"))]
    pub fn sequential(stm: &Stm, initial: &[Amount], cfg: LedgerConfig) -> Self {
        Self { sequential: true, ..Self::new(stm, initial, cfg) }
    }

    /// Retarget how many workers drive subsequent blocks, clamped to
    /// `[1, cfg.workers]` (the pool is provisioned once, at construction).
    /// Safe to call from another thread mid-stream; the block currently
    /// executing finishes at its old width.
    pub fn set_workers(&self, workers: usize) {
        self.live_workers.store(workers.clamp(1, self.cfg.workers.max(1)), Ordering::Release);
    }

    /// The worker count the next block will use.
    pub fn workers(&self) -> usize {
        self.live_workers.load(Ordering::Acquire)
    }

    /// Committed balances, as a consistent snapshot.
    pub fn balances(&self) -> Vec<Amount> {
        self.stm.read_only(|snap| self.accounts.iter().map(|b| snap.read(b)).collect())
    }

    /// Execute one block. Mid-block [`Stm::close_admission`] aborts the
    /// block with [`StmError::Shutdown`] without installing anything.
    pub fn execute_block(&self, block: &[TransferTxn]) -> Result<BlockOutcome, StmError> {
        #[cfg(any(test, feature = "oracle"))]
        if self.sequential {
            return self.execute_sequential(block);
        }
        self.execute_parallel(block)
    }

    /// Split a transaction stream into `block_size` blocks and execute them
    /// in order.
    pub fn execute_all(&self, txns: &[TransferTxn]) -> Result<Vec<BlockOutcome>, StmError> {
        txns.chunks(self.cfg.block_size.max(1)).map(|b| self.execute_block(b)).collect()
    }

    #[cfg(any(test, feature = "oracle"))]
    fn execute_sequential(&self, block: &[TransferTxn]) -> Result<BlockOutcome, StmError> {
        let mut outputs = Vec::with_capacity(block.len());
        for txn in block {
            let accounts = &self.accounts;
            let work = self.cfg.work;
            let out = self.stm.atomic(move |tx| {
                let exec =
                    txn::execute(txn, |a| Ok::<_, std::convert::Infallible>(tx.read(&accounts[a])));
                let (writes, out) = exec.unwrap_or_else(|e| match e {});
                if !work.is_zero() {
                    std::thread::sleep(work);
                }
                for (a, v) in writes {
                    tx.write(&accounts[a], v);
                }
                Ok(out)
            })?;
            outputs.push(out);
        }
        self.note_block_commit(block.len(), 0);
        Ok(BlockOutcome { outputs, reexecutions: 0 })
    }

    fn execute_parallel(&self, block: &[TransferTxn]) -> Result<BlockOutcome, StmError> {
        let n = block.len();
        let mut held = self.engine.lock();
        // Every pool task has run, and dropped its handle, by the time the
        // batch returns, even when a task panicked.
        let engine = Arc::get_mut(&mut held).expect("no pool task outlives its block");
        engine.prepare(block);
        let Engine { touched, base, .. } = engine;
        self.stm.read_only(|snap| {
            for &account in touched.iter() {
                base[account] = snap.read(&self.accounts[account]);
            }
        });
        let engine = &*held;

        let workers = self.workers();
        let helpers = workers - 1;
        let start = now_ns();
        let handoff = if self.helpers_pay(n, helpers) {
            let tasks: Vec<PoolTask> = (0..workers)
                .map(|_| {
                    let engine = Arc::clone(engine);
                    Box::new(move || engine.run_worker()) as PoolTask
                })
                .collect();
            Some(self.pool.hand_off(tasks, helpers))
        } else {
            // The caller's loop is the block's one task: its dispatch site,
            // where a published block's tasks take theirs.
            if let Some(stall) = self.stm.fault_ctx().inject(FaultKind::ChildStall) {
                stall.stall();
            }
            engine.run_worker();
            if helpers > 0 && n > 1 {
                self.stm.stats().record_handoff(false);
            }
            None
        };
        if n > 0 && !engine.sched.halted() {
            let per_txn = (now_ns() - start) / n as u64;
            if handoff.is_some() { &self.helped_ns } else { &self.solo_ns }.observe(per_txn);
        }
        let trace = self.stm.trace_bus();
        if trace.is_enabled() {
            trace.emit(TraceEvent::SchedBatch {
                tasks: if handoff.is_some() { workers as u32 } else { 1 },
                stolen: handoff.unwrap_or_default() as u32,
                handed_off: handoff.is_some(),
                at_ns: now_ns(),
            });
        }

        if engine.sched.halted() {
            return Err(StmError::Shutdown);
        }
        // Deterministic index-order commit: the chain heads are, by
        // construction, the values the highest-indexed writer of each
        // account produced, so one atomic install realises the whole block.
        // An account the block left at its base value needs no new version.
        self.stm.atomic(|tx| {
            for &account in &engine.touched {
                match engine.mv.final_write(account) {
                    Some(v) if v != engine.base[account] => tx.write(&self.accounts[account], v),
                    _ => {}
                }
            }
            Ok(())
        })?;
        let reexecutions = engine.sched.aborts();
        self.note_block_commit(n, reexecutions);
        let outputs = engine.slots[..n]
            .iter()
            .map(|s| s.lock().output.expect("every transaction executed before commit"))
            .collect();
        Ok(BlockOutcome { outputs, reexecutions })
    }

    /// Does a block of `n` transactions get `helpers` helpers? §5e's rule
    /// first: only if `n` times the learnt solo cost per transaction, spread
    /// over the executors, saves more than a hand-off costs (and eagerly
    /// before any solo block was timed). Then the measurement: only if
    /// helped blocks have not cost more per transaction than solo ones. A
    /// helped block pays, besides the hand-off, a wake and a join and every
    /// scheduler and chain line moving between cores, which on short
    /// transfers outweighs the second executor; that shows up in the
    /// helped cost and nowhere else. Each side is learnt from its own
    /// blocks, so the side not taken keeps its last estimate until the
    /// other one grows past it.
    fn helpers_pay(&self, n: usize, helpers: usize) -> bool {
        let (solo, helped) = (self.solo_ns.get(), self.helped_ns.get());
        self.pool.hand_off_pays(n, solo, helpers) && (helped == 0 || helped < solo)
    }

    fn note_block_commit(&self, txns: usize, reexecutions: u64) {
        self.stm.stats().record_block_commit();
        self.stm.trace_bus().emit(TraceEvent::BlockCommitted {
            txns: txns as u32,
            reexecutions: reexecutions as u32,
            at_ns: now_ns(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::skewed_block;
    use pnstm::{ParallelismDegree, StmConfig};

    fn stm() -> Stm {
        Stm::new(StmConfig {
            degree: ParallelismDegree::new(4, 4),
            worker_threads: 2,
            ..StmConfig::default()
        })
    }

    fn workers(workers: usize) -> LedgerConfig {
        LedgerConfig { workers, ..LedgerConfig::default() }
    }

    #[test]
    fn sequential_rung_replays_in_order() {
        let stm = stm();
        let ex = BlockExecutor::sequential(&stm, &[100, 0, 0], workers(1));
        let block = [
            TransferTxn { from: 0, to: 1, amount: 60 },
            TransferTxn { from: 1, to: 2, amount: 50 }, // only valid after txn 0
            TransferTxn { from: 2, to: 0, amount: 500 }, // insufficient → no-op
        ];
        let out = ex.execute_block(&block).unwrap();
        assert_eq!(ex.balances(), vec![40, 10, 50]);
        assert!(out.outputs.iter().take(2).all(|o| o.applied));
        assert!(!out.outputs[2].applied);
        assert_eq!(out.reexecutions, 0);
    }

    #[test]
    fn parallel_rung_matches_oracle_on_a_conflicting_block() {
        let stm = stm();
        let block = skewed_block(7, 200, 4, 50); // 4 accounts → heavy conflicts
        let initial = vec![100; 4];
        let seq = BlockExecutor::sequential(&stm, &initial, workers(1));
        let par = BlockExecutor::new(&stm, &initial, workers(4));
        let seq_out = seq.execute_block(&block).unwrap();
        let par_out = par.execute_block(&block).unwrap();
        assert_eq!(par.balances(), seq.balances());
        assert_eq!(par_out.outputs, seq_out.outputs);
    }

    #[test]
    fn parallel_single_worker_degenerates_cleanly() {
        let stm = stm();
        let ex = BlockExecutor::new(&stm, &[10, 10], workers(1));
        let out = ex.execute_block(&[TransferTxn { from: 0, to: 1, amount: 5 }]).unwrap();
        assert_eq!(ex.balances(), vec![5, 15]);
        assert_eq!(out.reexecutions, 0);
    }

    #[test]
    fn empty_block_commits_trivially() {
        let stm = stm();
        let ex = BlockExecutor::new(&stm, &[1, 2], workers(2));
        let out = ex.execute_block(&[]).unwrap();
        assert!(out.outputs.is_empty());
        assert_eq!(ex.balances(), vec![1, 2]);
    }

    #[test]
    fn execute_all_chunks_by_block_size() {
        let stm = stm();
        let cfg = LedgerConfig { block_size: 8, ..workers(2) };
        let ex = BlockExecutor::new(&stm, &[1000, 1000, 1000], cfg);
        let outcomes = ex.execute_all(&skewed_block(3, 20, 3, 10)).unwrap();
        assert_eq!(outcomes.len(), 3, "20 txns / 8 per block = 3 blocks");
        assert_eq!(outcomes.iter().map(|o| o.outputs.len()).sum::<usize>(), 20);
        assert_eq!(stm.stats().snapshot().block_commits, 3);
    }

    #[test]
    fn live_worker_knob_clamps_and_applies() {
        let stm = stm();
        let ex = BlockExecutor::new(&stm, &[100, 100, 100], workers(4));
        assert_eq!(ex.workers(), 4);
        ex.set_workers(2);
        assert_eq!(ex.workers(), 2);
        ex.set_workers(0);
        assert_eq!(ex.workers(), 1, "clamped up to 1");
        ex.set_workers(64);
        assert_eq!(ex.workers(), 4, "clamped to the provisioned pool");
        // Blocks still execute correctly at a reduced width.
        ex.set_workers(1);
        let out = ex.execute_block(&skewed_block(3, 50, 3, 20)).unwrap();
        assert_eq!(out.outputs.len(), 50);
    }

    #[test]
    fn helpers_join_only_while_helped_blocks_cost_less() {
        let stm = stm();
        let ex = BlockExecutor::new(&stm, &[100; 4], workers(2));
        assert!(ex.helpers_pay(256, 1), "no history: eager");
        assert!(!ex.helpers_pay(256, 0), "no helpers to give");
        assert!(!ex.helpers_pay(1, 1), "one transaction cannot be shared");
        ex.helped_ns.observe(1_200);
        assert!(!ex.helpers_pay(256, 1), "a helped block was timed, a solo one not yet");
        ex.solo_ns.observe(600);
        assert!(!ex.helpers_pay(256, 1), "helped blocks cost twice what solo ones do");
        // One sample moves the estimate by at most twice its value.
        while ex.solo_ns.get() < 100_000 {
            ex.solo_ns.observe(100_000);
        }
        assert!(ex.helpers_pay(256, 1), "heavier transactions: the stale helped cost is below");
    }

    #[test]
    fn closed_admission_aborts_the_block_with_shutdown() {
        let stm = stm();
        let ex = BlockExecutor::new(&stm, &[50, 50], workers(2));
        stm.close_admission();
        let err = ex.execute_block(&[TransferTxn { from: 0, to: 1, amount: 1 }]);
        assert!(matches!(err, Err(StmError::Shutdown)));
        stm.reopen_admission();
        assert_eq!(ex.balances(), vec![50, 50], "an abandoned block installs nothing");
    }
}
