//! Heap allocations per `BlockExecutor::execute_block`, pinned.
//!
//! Its own test binary, because it installs a counting global allocator. The
//! allocator counts only on threads that set the `COUNTING` flag, so the
//! collector, the pool's helpers and the test harness stay out of the count.
//!
//! A block costs what its transactions cost: the executor keeps its scratch,
//! scheduler and slots across blocks, and executing a transaction allocates
//! nothing, so a steady stream's blocks allocate a constant that does not
//! grow with their length. Each counted block starts after a synchronous
//! `Stm::gc()` outside the count, so no account's version chain outgrows the
//! capacity the warm-up gave it (a chain's occasional doubling belongs to the
//! collector's pace, not to one block).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ledger::{skewed_block, BlockExecutor, LedgerConfig, TransferTxn};
use pnstm::{ParallelismDegree, Stm, StmConfig};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counting touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ACCOUNTS: usize = 1000;
const WARM_UP: usize = 50;
const BLOCKS: u64 = 50;

/// The block outcome's `outputs` vector: the one allocation a block makes.
const PER_BLOCK: u64 = 1;

/// Allocations of each of `BLOCKS` runs of `block` on this thread, after a
/// warm-up on the same executor, each with whether the block was handed off
/// to helpers.
fn allocations_per_block(stm: &Stm, ex: &BlockExecutor, block: &[TransferTxn]) -> Vec<(u64, bool)> {
    for _ in 0..WARM_UP {
        ex.execute_block(block).expect("admission stays open");
    }
    (0..BLOCKS)
        .map(|_| {
            stm.gc();
            let handoffs = stm.stats().snapshot().sched_handoffs;
            let before = ALLOCATIONS.with(Cell::get);
            COUNTING.with(|c| c.set(true));
            let outcome = ex.execute_block(block);
            COUNTING.with(|c| c.set(false));
            let allocations = ALLOCATIONS.with(Cell::get) - before;
            drop(outcome.expect("admission stays open"));
            (allocations, stm.stats().snapshot().sched_handoffs > handoffs)
        })
        .collect()
}

fn executor(workers: usize) -> (Stm, BlockExecutor) {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 2,
        gc_interval: 0,
        ..StmConfig::default()
    });
    let cfg = LedgerConfig { workers, ..LedgerConfig::default() };
    let ex = BlockExecutor::new(&stm, &vec![1_000_000; ACCOUNTS], cfg);
    (stm, ex)
}

#[test]
fn a_block_allocates_a_constant_whatever_its_length() {
    let (stm, ex) = executor(1);
    for txns in [16, 256, 4_000] {
        let block = skewed_block(txns as u64, txns, ACCOUNTS, 100);
        for (allocations, _) in allocations_per_block(&stm, &ex, &block) {
            assert_eq!(allocations, PER_BLOCK, "a {txns}-txn block");
        }
    }
}

/// Two workers on short transfers: helped blocks cost more per transaction
/// than solo ones, so the executor learns to run them alone, and a block it
/// withholds allocates what a one-worker block does.
#[test]
fn a_withheld_block_allocates_what_a_solo_block_does() {
    let (stm, ex) = executor(2);
    let block = skewed_block(7, 256, ACCOUNTS, 100);
    let runs = allocations_per_block(&stm, &ex, &block);
    let withheld: Vec<u64> = runs.iter().filter(|(_, helped)| !helped).map(|&(a, _)| a).collect();
    assert!(!withheld.is_empty(), "every block was handed off: {runs:?}");
    assert!(withheld.iter().all(|&a| a == PER_BLOCK), "{runs:?}");
}
