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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use pnstm::sched::Task as PoolTask;
use pnstm::{Stm, StmError, TraceEvent, VBox, WorkStealingPool};

use crate::mv::{MvMemory, ReadOrigin, ReadResult, ReadSet};
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
    /// blocks of this size — the per-block tuning surface the `autopn`
    /// `BlockSize` axis sweeps.
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

#[derive(Default)]
struct TxnSlot {
    reads: ReadSet,
    footprint: Vec<AccountId>,
    output: Option<TxnOutput>,
}

/// Everything a block's workers share, `Arc`ed because the pool's tasks are
/// `'static`.
struct ParCtx {
    stm: Stm,
    block: Vec<TransferTxn>,
    base: Vec<Amount>,
    mv: MvMemory,
    sched: BlockScheduler,
    slots: Vec<Mutex<TxnSlot>>,
    work: Duration,
}

/// Executes blocks of transfers over a fixed account set held in `pnstm`
/// boxes. One executor owns its accounts; blocks are executed one at a time
/// (the final install assumes no concurrent writer mutates the accounts
/// mid-block).
pub struct BlockExecutor {
    stm: Stm,
    accounts: Arc<Vec<VBox<Amount>>>,
    cfg: LedgerConfig,
    pool: WorkStealingPool,
    /// Live worker-count knob: how many of the pool's workers the *next*
    /// block uses. Capped by `cfg.workers` (the pool's provisioned size);
    /// retargetable mid-stream, taking effect at the next block boundary.
    live_workers: AtomicUsize,
    /// Replay blocks one `Stm::atomic` per transaction instead (the
    /// sequential oracle).
    #[cfg(any(test, feature = "oracle"))]
    sequential: bool,
}

impl BlockExecutor {
    /// Create an executor with `initial` account balances. The worker pool
    /// is wired to the STM's fault context, stats and trace bus, so
    /// `ChildStall` plans and `sched_batch` events cover block execution the
    /// same way they cover nested children.
    pub fn new(stm: &Stm, initial: &[Amount], cfg: LedgerConfig) -> Self {
        let accounts = Arc::new(initial.iter().map(|&b| stm.new_vbox(b)).collect::<Vec<_>>());
        let pool = WorkStealingPool::with_instruments(
            cfg.workers.saturating_sub(1),
            stm.fault_ctx().clone(),
            stm.stats_handle(),
            stm.trace_bus().clone(),
        );
        let live_workers = AtomicUsize::new(cfg.workers.max(1));
        Self {
            stm: stm.clone(),
            accounts,
            cfg,
            pool,
            live_workers,
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
                for &(a, v) in &writes {
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
        let ctx = Arc::new(ParCtx {
            stm: self.stm.clone(),
            block: block.to_vec(),
            base: self.balances(),
            mv: MvMemory::new(self.accounts.len()),
            sched: BlockScheduler::new(n),
            slots: (0..n).map(|_| Mutex::new(TxnSlot::default())).collect(),
            work: self.cfg.work,
        });
        let workers = self.workers();
        let tasks: Vec<PoolTask> = (0..workers)
            .map(|_| {
                let ctx = Arc::clone(&ctx);
                Box::new(move || worker_loop(&ctx)) as PoolTask
            })
            .collect();
        self.pool.run_batch(tasks, workers - 1);

        if ctx.sched.halted() {
            return Err(StmError::Shutdown);
        }
        // Deterministic index-order commit: the chain heads are, by
        // construction, the values the highest-indexed writer of each
        // account produced, so one atomic install realises the whole block.
        let final_writes = ctx.mv.final_writes();
        self.stm.atomic(|tx| {
            for &(a, v) in &final_writes {
                tx.write(&self.accounts[a], v);
            }
            Ok(())
        })?;
        let reexecutions = ctx.sched.aborts();
        self.note_block_commit(n, reexecutions);
        let outputs = ctx
            .slots
            .iter()
            .map(|s| s.lock().output.expect("every transaction executed before commit"))
            .collect();
        Ok(BlockOutcome { outputs, reexecutions })
    }

    fn note_block_commit(&self, txns: usize, reexecutions: u64) {
        self.stm.stats().record_block_commit();
        self.stm.trace_bus().emit(TraceEvent::BlockCommitted {
            txns: txns as u32,
            reexecutions: reexecutions as u32,
            at_ns: pnstm::trace::now_ns(),
        });
    }
}

/// One worker: pull tasks until the block is done, polling the admission
/// gate so a mid-block shutdown drains every worker promptly.
fn worker_loop(ctx: &ParCtx) {
    let mut task = None;
    while !ctx.sched.done() {
        if ctx.stm.throttle().is_closed() {
            ctx.sched.halt();
            break;
        }
        task = match task.take().or_else(|| ctx.sched.next_task()) {
            Some(Task::Execute { txn_idx, incarnation }) => run_execute(ctx, txn_idx, incarnation),
            Some(Task::Validate { txn_idx, incarnation }) => {
                run_validate(ctx, txn_idx, incarnation)
            }
            None => {
                // Nothing claimable right now (peers mid-execution): yield
                // so a 1-core runner lets them finish instead of spinning.
                std::thread::yield_now();
                None
            }
        };
    }
}

fn run_execute(ctx: &ParCtx, txn_idx: usize, incarnation: u32) -> Option<Task> {
    loop {
        let mut reads: ReadSet = Vec::new();
        let mut blocked = None;
        let result = txn::execute(&ctx.block[txn_idx], |a| match ctx.mv.read(a, txn_idx) {
            ReadResult::Ok(v, origin) => {
                reads.push((a, origin));
                Ok(if origin == ReadOrigin::Base { ctx.base[a] } else { v })
            }
            ReadResult::Blocked { blocking_txn } => {
                blocked = Some(blocking_txn);
                Err(())
            }
        });
        let Ok((writes, out)) = result else {
            // Hit an ESTIMATE: suspend on its owner, or — if the owner
            // already re-executed — retry the read immediately.
            if ctx.sched.suspend(txn_idx, blocked.expect("blocked read sets the blocker")) {
                return None;
            }
            std::thread::yield_now();
            continue;
        };
        if !ctx.work.is_zero() {
            std::thread::sleep(ctx.work);
        }
        let wrote_new_path = {
            let mut slot = ctx.slots[txn_idx].lock();
            let previous = std::mem::take(&mut slot.footprint);
            let wrote_new = ctx.mv.apply_writes(txn_idx, incarnation, &writes, &previous);
            slot.footprint = writes.iter().map(|&(a, _)| a).collect();
            slot.reads = reads;
            slot.output = Some(out);
            wrote_new
        };
        return ctx.sched.finish_execution(txn_idx, incarnation, wrote_new_path);
    }
}

fn run_validate(ctx: &ParCtx, txn_idx: usize, incarnation: u32) -> Option<Task> {
    let valid = {
        let slot = ctx.slots[txn_idx].lock();
        ctx.mv.validate(txn_idx, &slot.reads)
    };
    let aborted = !valid && ctx.sched.try_validation_abort(txn_idx, incarnation);
    if aborted {
        let footprint = ctx.slots[txn_idx].lock().footprint.clone();
        ctx.mv.convert_writes_to_estimates(txn_idx, &footprint);
        ctx.stm.stats().record_txn_reexecution();
        ctx.stm.trace_bus().emit(TraceEvent::TxnReexecuted {
            txn_idx: txn_idx as u32,
            incarnation: incarnation + 1,
            at_ns: pnstm::trace::now_ns(),
        });
    }
    ctx.sched.finish_validation(txn_idx, aborted)
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
