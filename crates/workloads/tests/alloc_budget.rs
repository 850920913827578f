//! Heap allocations per `TransferWorkload::run`, pinned.
//!
//! Its own test binary, because it installs a counting global allocator that
//! counts only on threads that set the `COUNTING` flag (see
//! `crates/pnstm/tests/alloc_budget.rs`, whose harness this mirrors).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pnstm::{ParallelismDegree, Stm, StmConfig};
use workloads::transfer::TransferWorkload;

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

/// A `closed_nested` request (8 transfers over 64 accounts) at `c = 1`, where
/// every batch is withheld: the one allocation is the `Vec<bool>` of the
/// children's results. Automatic GC is off and each round starts with a
/// manual `Stm::gc()` outside the count, so no version chain outgrows the
/// capacity its warm-up gave it.
#[test]
fn a_transfer_request_allocates_only_its_result_vector() {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, 1),
        worker_threads: 1,
        gc_interval: 0,
        ..StmConfig::default()
    });
    let workload = TransferWorkload::new(&stm, 64, 1_000_000);
    let requests = workload.requests(7, 256, 8, 100);
    let run = || {
        for req in &requests {
            workload.run(&stm, req).expect("an uncontended request commits");
        }
    };
    for _ in 0..8 {
        run();
    }
    stm.gc();
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    run();
    COUNTING.with(|c| c.set(false));
    let per_call = (ALLOCATIONS.with(Cell::get) - before) as f64 / requests.len() as f64;
    assert_eq!(per_call, 1.0);
}
