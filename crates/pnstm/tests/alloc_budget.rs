//! Heap allocations per call on the steady-state transaction paths, pinned.
//!
//! Its own test binary, because it installs a counting global allocator. The
//! allocator counts only on threads that set the `COUNTING` flag, so the
//! collector, the child-scheduler workers and the test harness stay out of
//! the count, and tests running side by side do not see each other's
//! allocations.
//!
//! Automatic GC is off and each round starts with a manual `Stm::gc()`
//! outside the count: a version chain then never outgrows the capacity its
//! warm-up gave it. (A chain's occasional doubling is amortized over the
//! commits that fill it; it belongs to the GC's pace, not to one call.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pnstm::{child, ChildTask, ParallelismDegree, Stm, StmConfig, VBox};

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

const WARM_UP: usize = 2_000;
const CALLS: u64 = 1_000;

/// Allocations per call of `call`, after a warm-up, on this thread.
fn allocations_per_call(stm: &Stm, mut call: impl FnMut()) -> f64 {
    for _ in 0..WARM_UP {
        call();
    }
    stm.gc();
    let before = ALLOCATIONS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    for _ in 0..CALLS {
        call();
    }
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get) - before) as f64 / CALLS as f64
}

fn stm(c: usize) -> (Stm, Vec<VBox<i64>>) {
    let stm = Stm::new(StmConfig {
        degree: ParallelismDegree::new(2, c),
        worker_threads: 1,
        gc_interval: 0,
        ..StmConfig::default()
    });
    let cells = (0..8).map(|_| stm.new_vbox(0)).collect();
    (stm, cells)
}

fn update(stm: &Stm, cells: &[VBox<i64>]) {
    stm.atomic(|tx| {
        for cell in cells {
            let v = tx.read(cell);
            tx.write(cell, v + 1);
        }
        Ok(())
    })
    .expect("an uncontended transaction commits");
}

#[test]
fn reads_allocate_nothing() {
    let (stm, cells) = stm(1);
    assert_eq!(
        allocations_per_call(&stm, || {
            black_box(stm.read_atomic(&cells[0]));
        }),
        0.0
    );
    let read8 = || {
        black_box(stm.read_only(|tx| cells.iter().map(|b| tx.read(b)).sum::<i64>()));
    };
    assert_eq!(allocations_per_call(&stm, read8), 0.0);
}

#[test]
fn an_empty_atomic_allocates_nothing() {
    let (stm, _) = stm(1);
    assert_eq!(allocations_per_call(&stm, || stm.atomic(|_| Ok(())).unwrap()), 0.0);
}

#[test]
fn read_modify_write_attempts_allocate_nothing() {
    let (stm, cells) = stm(1);
    assert_eq!(allocations_per_call(&stm, || update(&stm, &cells[..1])), 0.0, "rw1");
    assert_eq!(allocations_per_call(&stm, || update(&stm, &cells)), 0.0, "rw8");
}

/// Four empty children at `c = 1` run withheld on the parent's own sets.
/// The one allocation is the caller's `Vec<ChildTask>`: a boxed zero-sized
/// closure and the returned `Vec<()>` allocate nothing.
#[test]
fn a_withheld_batch_allocates_only_its_task_vector() {
    let (stm, _) = stm(1);
    let batch = || {
        stm.atomic(|tx| {
            let tasks: Vec<ChildTask<()>> = (0..4).map(|_| child(|_| Ok(()))).collect();
            tx.parallel(tasks)?;
            Ok(())
        })
        .unwrap()
    };
    assert_eq!(allocations_per_call(&stm, batch), 1.0);
}

/// Four empty children addressed by index at `c = 1`: a withheld child is a
/// call on the parent's own sets, with no box, task vector or `Arc`, and the
/// returned `Vec<()>` allocates nothing.
#[test]
fn a_withheld_parallel_for_allocates_nothing() {
    let (stm, _) = stm(1);
    let batch = || {
        stm.atomic(|tx| {
            tx.parallel_for(4, &|_, _| Ok(()))?;
            Ok(())
        })
        .unwrap()
    };
    assert_eq!(allocations_per_call(&stm, batch), 0.0);
}
