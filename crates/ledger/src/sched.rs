//! The collaborative block scheduler: Block-STM's two-wave task machine.
//!
//! Workers pull tasks from two monotone cursors — `execution_idx` hands out
//! first executions (and re-executions of aborted transactions),
//! `validation_idx` hands out validations of executed ones. Validation runs
//! behind execution; an abort *decreases* both cursors so the waves sweep the
//! invalidated suffix again, with the re-run tagged as a new incarnation.
//! A transaction whose read hits an ESTIMATE suspends on the transaction
//! that owns it and is resumed (cursor decreased back to it) when that
//! transaction finishes re-executing.
//!
//! The block is done when both cursors have swept past the end, no task is
//! in flight, and no cursor decrease raced the check (the `decrease_cnt`
//! re-read). `halt()` short-circuits the machine for shutdown: workers drain
//! immediately and the block reports [`pnstm::StmError::Shutdown`].
//!
//! Each transaction's `(incarnation, state)` is one atomic word; only the
//! dependency lists take a lock. Which ordering each atomic needs, and why,
//! is DESIGN §5h's table; in short, every store→load pair between a status
//! word and a cursor is a Dekker pattern (each side writes one and reads the
//! other), so those operations are `SeqCst`, and so is everything the
//! termination double-collect reads. A worker with nothing to claim parks on
//! the scheduler's [`ParkGate`] until a cursor moves back or the block ends.
//!
//! One scheduler serves a stream of blocks: [`BlockScheduler::reset`] sizes
//! it for the next block and keeps its vectors' capacity.
//!
//! This is the ledger-side twin of `pnstm::sched`: that module schedules
//! *threads* (the work-stealing pool the block executor runs its workers
//! on); this one schedules *transaction versions* onto those threads.

use std::sync::atomic::Ordering::{Acquire, Relaxed, Release, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

use parking_lot::Mutex;
use pnstm::park::{ParkGate, IDLE_WAIT};

/// A unit of work handed to a block worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Run incarnation `incarnation` of transaction `txn_idx`.
    Execute { txn_idx: usize, incarnation: u32 },
    /// Re-check the read set of the executed incarnation.
    Validate { txn_idx: usize, incarnation: u32 },
}

/// A transaction's state, the low bits of its status word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    ReadyToExecute = 0,
    Executing = 1,
    Executed = 2,
    /// A validator won the right to abort this incarnation and is converting
    /// its writes to estimates; nobody else may touch the slot.
    Aborting = 3,
    /// Blocked on a lower transaction's estimate; resumed by its
    /// `finish_execution`.
    Suspended = 4,
}

const STATE_BITS: u32 = 3;

/// The status word: `incarnation << STATE_BITS | state`.
fn pack(incarnation: u32, state: State) -> u64 {
    u64::from(incarnation) << STATE_BITS | state as u64
}

fn unpack(word: u64) -> (u32, State) {
    let state = match word & ((1 << STATE_BITS) - 1) {
        0 => State::ReadyToExecute,
        1 => State::Executing,
        2 => State::Executed,
        3 => State::Aborting,
        _ => State::Suspended,
    };
    ((word >> STATE_BITS) as u32, state)
}

/// The shared scheduler state for one block execution.
pub struct BlockScheduler {
    n: usize,
    execution_idx: AtomicUsize,
    validation_idx: AtomicUsize,
    /// Bumped on every cursor decrease; lets `check_done` detect a decrease
    /// racing its quiescence check.
    decrease_cnt: AtomicUsize,
    num_active: AtomicUsize,
    done: AtomicBool,
    halted: AtomicBool,
    /// One packed `(incarnation, state)` word per transaction.
    status: Vec<AtomicU64>,
    /// Transactions suspended waiting on this index's re-execution.
    deps: Vec<Mutex<Vec<usize>>>,
    aborts: AtomicU64,
    /// Where a worker with nothing to claim waits; a cursor decrease, the
    /// end of the block and `halt` wake it.
    idle: ParkGate,
}

impl BlockScheduler {
    pub fn new(n: usize) -> Self {
        let mut sched = Self {
            n: 0,
            execution_idx: AtomicUsize::new(0),
            validation_idx: AtomicUsize::new(0),
            decrease_cnt: AtomicUsize::new(0),
            num_active: AtomicUsize::new(0),
            done: AtomicBool::new(false),
            halted: AtomicBool::new(false),
            status: Vec::new(),
            deps: Vec::new(),
            aborts: AtomicU64::new(0),
            idle: ParkGate::default(),
        };
        sched.reset(n);
        sched
    }

    /// Make the scheduler ready for a block of `n` transactions, keeping the
    /// capacity earlier blocks gave it.
    pub fn reset(&mut self, n: usize) {
        self.n = n;
        *self.execution_idx.get_mut() = 0;
        *self.validation_idx.get_mut() = 0;
        *self.decrease_cnt.get_mut() = 0;
        *self.num_active.get_mut() = 0;
        *self.done.get_mut() = n == 0;
        *self.halted.get_mut() = false;
        *self.aborts.get_mut() = 0;
        if self.status.len() < n {
            self.status.resize_with(n, || AtomicU64::new(0));
            self.deps.resize_with(n, || Mutex::new(Vec::new()));
        }
        for word in &mut self.status[..n] {
            *word.get_mut() = pack(0, State::ReadyToExecute);
        }
        for deps in &mut self.deps[..n] {
            deps.get_mut().clear();
        }
    }

    pub fn done(&self) -> bool {
        self.done.load(Acquire)
    }

    /// Abandon the block (shutdown): workers observe `done` and drain.
    pub fn halt(&self) {
        self.halted.store(true, Release);
        self.done.store(true, SeqCst);
        self.idle.wake_all();
    }

    pub fn halted(&self) -> bool {
        self.halted.load(Acquire)
    }

    /// Total validation aborts (== incarnation re-executions scheduled).
    pub fn aborts(&self) -> u64 {
        self.aborts.load(Relaxed)
    }

    /// One scheduling poll. `None` means nothing claimable *right now* —
    /// the caller loops until [`done`](Self::done), parking in
    /// [`wait_for_work`](Self::wait_for_work) between polls.
    pub fn next_task(&self) -> Option<Task> {
        // Only a preference: either branch claims with a SeqCst RMW, so a
        // stale read costs one empty poll.
        if self.validation_idx.load(Relaxed) < self.execution_idx.load(Relaxed) {
            self.next_version_to_validate()
        } else {
            self.next_version_to_execute()
        }
    }

    /// Park until a cursor is back inside the block or the block is over.
    /// Both cursors past the end with the block not done means peers hold
    /// the last tasks: any of them that re-opens work decreases a cursor,
    /// which wakes this gate, and the last one to finish sets `done`.
    pub fn wait_for_work(&self) {
        self.idle.park_unless(
            || {
                self.done.load(SeqCst)
                    || self.execution_idx.load(SeqCst) < self.n
                    || self.validation_idx.load(SeqCst) < self.n
            },
            IDLE_WAIT,
        );
    }

    fn next_version_to_execute(&self) -> Option<Task> {
        if self.execution_idx.load(Relaxed) >= self.n {
            self.check_done();
            return None;
        }
        self.num_active.fetch_add(1, SeqCst);
        let idx = self.execution_idx.fetch_add(1, SeqCst);
        if idx < self.n {
            if let Some(task) = self.try_incarnate(idx) {
                return Some(task);
            }
        }
        self.release_claim();
        None
    }

    fn next_version_to_validate(&self) -> Option<Task> {
        if self.validation_idx.load(Relaxed) >= self.n {
            self.check_done();
            return None;
        }
        self.num_active.fetch_add(1, SeqCst);
        let idx = self.validation_idx.fetch_add(1, SeqCst);
        if idx < self.n {
            if let (incarnation, State::Executed) = unpack(self.status[idx].load(SeqCst)) {
                return Some(Task::Validate { txn_idx: idx, incarnation });
            }
        }
        self.release_claim();
        None
    }

    /// Claim `idx` for execution if it is ready. Caller must already hold an
    /// active-task slot.
    fn try_incarnate(&self, idx: usize) -> Option<Task> {
        let word = self.status[idx].load(SeqCst);
        let (incarnation, state) = unpack(word);
        if state != State::ReadyToExecute {
            return None;
        }
        self.status[idx]
            .compare_exchange(word, pack(incarnation, State::Executing), SeqCst, SeqCst)
            .ok()
            .map(|_| Task::Execute { txn_idx: idx, incarnation })
    }

    /// The executed incarnation's writes are in the scratch. Resumes any
    /// suspended dependents; returns a follow-on validation task for this
    /// transaction when the validation wave has already passed it (unless it
    /// wrote somewhere its previous incarnation did not, in which case the
    /// whole suffix revalidates).
    pub fn finish_execution(
        &self,
        txn_idx: usize,
        incarnation: u32,
        wrote_new_path: bool,
    ) -> Option<Task> {
        debug_assert_eq!(
            unpack(self.status[txn_idx].load(Relaxed)),
            (incarnation, State::Executing)
        );
        self.status[txn_idx].store(pack(incarnation, State::Executed), SeqCst);
        // A dependent either pushed itself before this drain, or its
        // `suspend` takes the lock after it and sees EXECUTED.
        let min_dep = {
            let mut deps = self.deps[txn_idx].lock();
            let min_dep = deps.iter().copied().min();
            for dep in deps.drain(..) {
                let (inc, state) = unpack(self.status[dep].load(Relaxed));
                debug_assert_eq!(state, State::Suspended);
                self.status[dep].store(pack(inc, State::ReadyToExecute), SeqCst);
            }
            min_dep
        };
        if let Some(min_dep) = min_dep {
            self.decrease(&self.execution_idx, min_dep);
        }
        if self.validation_idx.load(SeqCst) > txn_idx {
            if wrote_new_path {
                self.decrease(&self.validation_idx, txn_idx);
            } else {
                return Some(Task::Validate { txn_idx, incarnation });
            }
        }
        self.num_active.fetch_sub(1, SeqCst);
        None
    }

    /// A validator that found a stale read claims the abort. Only one
    /// claimant per incarnation wins; the winner converts the writes to
    /// estimates and then calls [`finish_validation`](Self::finish_validation)
    /// with `aborted = true`.
    pub fn try_validation_abort(&self, txn_idx: usize, incarnation: u32) -> bool {
        // Relaxed: the CAS only elects the one aborter; what it then touches
        // (the slot, the chains) sits behind their own mutexes, and its next
        // transition is finish_validation's SeqCst store.
        self.status[txn_idx]
            .compare_exchange(
                pack(incarnation, State::Executed),
                pack(incarnation, State::Aborting),
                Relaxed,
                Relaxed,
            )
            .is_ok()
    }

    /// Complete a validation task. On abort the next incarnation becomes
    /// ready, the validation wave restarts above it, and — if the execution
    /// wave is already past — this worker tries to re-execute it on the spot.
    pub fn finish_validation(&self, txn_idx: usize, aborted: bool) -> Option<Task> {
        if aborted {
            self.aborts.fetch_add(1, Relaxed);
            let (incarnation, state) = unpack(self.status[txn_idx].load(Relaxed));
            debug_assert_eq!(state, State::Aborting);
            self.status[txn_idx].store(pack(incarnation + 1, State::ReadyToExecute), SeqCst);
            self.decrease(&self.validation_idx, txn_idx + 1);
            if self.execution_idx.load(SeqCst) > txn_idx {
                if let Some(task) = self.try_incarnate(txn_idx) {
                    return Some(task);
                }
                self.decrease(&self.execution_idx, txn_idx);
            }
        }
        self.num_active.fetch_sub(1, SeqCst);
        None
    }

    /// The executing transaction read an ESTIMATE owned by `blocking_txn`
    /// (necessarily lower-indexed). Returns false if the blocker has already
    /// re-executed — the caller just retries the read; true if the
    /// transaction is now suspended and the task slot released.
    pub fn suspend(&self, txn_idx: usize, blocking_txn: usize) -> bool {
        debug_assert!(blocking_txn < txn_idx);
        {
            // The blocker's deps lock orders this check against its
            // finish_execution drain. Seeing EXECUTED before that drain took
            // the lock is possible too, so the load is Acquire: it pairs with
            // the EXECUTED store, and the caller's retried read then sees the
            // writes that replaced the estimate.
            let mut deps = self.deps[blocking_txn].lock();
            if unpack(self.status[blocking_txn].load(Acquire)).1 == State::Executed {
                return false;
            }
            let (incarnation, state) = unpack(self.status[txn_idx].load(Relaxed));
            debug_assert_eq!(state, State::Executing);
            self.status[txn_idx].store(pack(incarnation, State::Suspended), Relaxed);
            deps.push(txn_idx);
        }
        self.num_active.fetch_sub(1, SeqCst);
        true
    }

    /// Give back the active-task slot of a poll that claimed nothing. If it
    /// was the last one, re-run the quiescence check: a finisher's check may
    /// have failed only because this poll held its slot for a moment, and
    /// the finisher may be parked by now. (A finisher needs no such check:
    /// it polls again, and its poll checks.)
    fn release_claim(&self) {
        if self.num_active.fetch_sub(1, SeqCst) == 1 {
            self.check_done();
        }
    }

    fn decrease(&self, cursor: &AtomicUsize, target: usize) {
        if cursor.fetch_min(target, SeqCst) > target {
            self.decrease_cnt.fetch_add(1, SeqCst);
            self.idle.wake_all();
        }
    }

    fn check_done(&self) {
        let observed = self.decrease_cnt.load(SeqCst);
        if self.execution_idx.load(SeqCst) >= self.n
            && self.validation_idx.load(SeqCst) >= self.n
            && self.num_active.load(SeqCst) == 0
            && self.decrease_cnt.load(SeqCst) == observed
        {
            self.done.store(true, SeqCst);
            self.idle.wake_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poll until a task comes out: the validation wave returns `None` for
    /// slots whose transaction has not executed yet (the slot is recovered
    /// by that transaction's `finish_execution`), so single-threaded drivers
    /// poll through those.
    fn claim(s: &BlockScheduler) -> Task {
        for _ in 0..100 {
            if let Some(t) = s.next_task() {
                return t;
            }
        }
        panic!("no task claimable");
    }

    /// Single-threaded drain: claim tasks, finish them clean (no aborts),
    /// threading follow-on tasks, until the machine reports done.
    fn drain_clean(s: &BlockScheduler) -> Vec<Task> {
        let mut tasks = Vec::new();
        let mut polls = 0;
        while !s.done() {
            polls += 1;
            assert!(polls < 10_000, "scheduler failed to quiesce");
            let Some(t) = s.next_task() else { continue };
            let mut follow = Some(t);
            while let Some(t) = follow.take() {
                tasks.push(t);
                follow = match t {
                    Task::Execute { txn_idx, incarnation } => {
                        s.finish_execution(txn_idx, incarnation, false)
                    }
                    Task::Validate { txn_idx, .. } => s.finish_validation(txn_idx, false),
                };
            }
        }
        tasks
    }

    /// Drive the machine by hand: one txn executes, validates clean, done.
    #[test]
    fn single_txn_executes_validates_and_completes() {
        let s = BlockScheduler::new(1);
        let t = s.next_task().unwrap();
        assert_eq!(t, Task::Execute { txn_idx: 0, incarnation: 0 });
        assert_eq!(s.finish_execution(0, 0, true), None);
        let t = s.next_task().unwrap();
        assert_eq!(t, Task::Validate { txn_idx: 0, incarnation: 0 });
        assert_eq!(s.finish_validation(0, false), None);
        assert!(!s.done(), "done flips on a poll that observes quiescence");
        assert_eq!(s.next_task(), None);
        assert!(s.done());
        assert_eq!(s.aborts(), 0);
    }

    /// An abort re-runs the victim as incarnation 1 and re-validates it.
    #[test]
    fn abort_schedules_a_new_incarnation() {
        let s = BlockScheduler::new(2);
        let t0 = claim(&s);
        let t1 = claim(&s);
        assert_eq!(t0, Task::Execute { txn_idx: 0, incarnation: 0 });
        assert_eq!(t1, Task::Execute { txn_idx: 1, incarnation: 0 });
        // txn 1 finishes first; txn 0's writes then land.
        assert_eq!(s.finish_execution(1, 0, true), None);
        assert_eq!(s.finish_execution(0, 0, true), None);
        // Validation wave: txn 0 clean; txn 1 stale → abort.
        let v0 = claim(&s);
        assert_eq!(v0, Task::Validate { txn_idx: 0, incarnation: 0 });
        assert_eq!(s.finish_validation(0, false), None);
        let v1 = claim(&s);
        assert_eq!(v1, Task::Validate { txn_idx: 1, incarnation: 0 });
        assert!(s.try_validation_abort(1, 0));
        assert!(!s.try_validation_abort(1, 0), "second claimant must lose");
        // The worker that aborted immediately re-executes incarnation 1.
        let re = s.finish_validation(1, true);
        assert_eq!(re, Some(Task::Execute { txn_idx: 1, incarnation: 1 }));
        assert_eq!(s.aborts(), 1);
        assert_eq!(
            s.finish_execution(1, 1, false),
            Some(Task::Validate { txn_idx: 1, incarnation: 1 })
        );
        assert_eq!(s.finish_validation(1, false), None);
        drain_clean(&s);
        assert!(s.done());
    }

    /// A suspended transaction is resumed when its blocker re-executes.
    #[test]
    fn suspend_resumes_after_blocker_reexecutes() {
        let s = BlockScheduler::new(2);
        let _t0 = claim(&s);
        let _t1 = claim(&s);
        // txn 0 executes, a validator aborts it → estimates in the scratch.
        assert_eq!(s.finish_execution(0, 0, true), None);
        let v0 = claim(&s);
        assert_eq!(v0, Task::Validate { txn_idx: 0, incarnation: 0 });
        assert!(s.try_validation_abort(0, 0));
        let re = s.finish_validation(0, true);
        assert_eq!(re, Some(Task::Execute { txn_idx: 0, incarnation: 1 }));
        // txn 1's execution hits txn 0's estimate and suspends.
        assert!(s.suspend(1, 0));
        // txn 0 re-executes; the passed-over validation of it comes back as
        // the follow-on task, and txn 1 becomes claimable again.
        assert_eq!(
            s.finish_execution(0, 1, false),
            Some(Task::Validate { txn_idx: 0, incarnation: 1 })
        );
        assert_eq!(s.finish_validation(0, false), None);
        let tasks = drain_clean(&s);
        assert!(tasks.contains(&Task::Execute { txn_idx: 1, incarnation: 0 }));
        assert!(s.done());
    }

    /// suspend() reports false when the blocker already finished — the
    /// caller retries the read instead of parking forever.
    #[test]
    fn suspend_on_executed_blocker_is_rejected() {
        let s = BlockScheduler::new(2);
        let _t0 = claim(&s);
        let _t1 = claim(&s);
        assert_eq!(s.finish_execution(0, 0, true), None);
        assert!(!s.suspend(1, 0));
        // The task slot was kept: finishing txn 1 still balances the books.
        assert_eq!(s.finish_execution(1, 0, true), None);
        drain_clean(&s);
        assert!(s.done());
    }

    #[test]
    fn empty_block_is_born_done_and_halt_drains() {
        assert!(BlockScheduler::new(0).done());
        let s = BlockScheduler::new(4);
        assert!(!s.done());
        s.halt();
        assert!(s.done() && s.halted());
    }
}
