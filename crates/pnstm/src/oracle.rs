//! The retired rungs, kept beside the shipped ones as differential-testing
//! oracles and bench baselines.
//!
//! This module exists only with the `oracle` cargo feature, which only
//! dev-dependencies turn on, so a release build cannot name any of it.
//! [`crate::Stm::with_oracle`] runs one [`Oracle`] in place of its shipped
//! counterpart. The contention manager's retired rung is
//! [`crate::CmMode::Immediate`], a policy like the others, switchable at
//! runtime.

use parking_lot::{Condvar, Mutex};

/// One retired rung an [`crate::Stm`] can run in place of its shipped
/// counterpart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// The single global commit lock instead of the striped commit. The
    /// history-equivalence proptests replay seeds through both, and
    /// `commit_scaling` measures one against the other.
    GlobalLock,
    /// The locked read path instead of the lock-free one: the own write set
    /// behind a mutex and, per ancestor level, the nest commit lock plus a
    /// write-set lock, with no Bloom filters. The visibility proptests and
    /// `read_scaling` compare the two.
    LockedReads,
    /// The mutex child pool ([`crate::ChildPool`]: one mutex-held queue per
    /// batch, one batches lock for dispatch) and the [`ResizableSemaphore`]
    /// admission gate, instead of the work-stealing pool and the packed
    /// gate. The scheduler-ladder proptest and `sched_scaling` compare them.
    MutexSched,
    /// The whole-heap GC sweep run inline by the committer that trips
    /// `gc_interval`, instead of the background collector. Both must yield
    /// identical reachable state; `mem_ceiling` compares their pauses.
    InlineGc,
}

#[derive(Debug)]
struct SemState {
    /// May be negative after a capacity shrink while permits are held.
    available: i64,
    capacity: usize,
    /// A closed semaphore refuses new permits (waiters wake and give up)
    /// so shutdown never leaves a thread parked here forever.
    closed: bool,
}

/// Counting semaphore with runtime-adjustable capacity, every operation
/// under one mutex: the [`Oracle::MutexSched`] admission gate, with the
/// same contract as [`crate::PackedGate`].
#[derive(Debug)]
pub struct ResizableSemaphore {
    state: Mutex<SemState>,
    cv: Condvar,
}

impl ResizableSemaphore {
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(SemState { available: capacity as i64, capacity, closed: false }),
            cv: Condvar::new(),
        }
    }

    /// Block until a permit is available and take it. Returns `false`
    /// (without a permit) if the semaphore is, or becomes, closed — a thread
    /// parked here is guaranteed to wake and observe the closure.
    pub fn acquire(&self) -> bool {
        let mut st = self.state.lock();
        loop {
            if st.closed {
                return false;
            }
            if st.available > 0 {
                st.available -= 1;
                return true;
            }
            self.cv.wait(&mut st);
        }
    }

    /// Take a permit if one is immediately available (and the semaphore is
    /// open).
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        if !st.closed && st.available > 0 {
            st.available -= 1;
            true
        } else {
            false
        }
    }

    /// Take up to `max` immediately available permits, one
    /// [`ResizableSemaphore::try_acquire`] at a time.
    pub fn try_acquire_many(&self, max: usize) -> usize {
        (0..max).take_while(|_| self.try_acquire()).count()
    }

    /// Refuse new permits and wake every parked waiter (they return from
    /// [`ResizableSemaphore::acquire`] empty-handed). Held permits are
    /// unaffected and their releases still count.
    pub fn close(&self) {
        let mut st = self.state.lock();
        st.closed = true;
        self.cv.notify_all();
    }

    /// Re-admit after a [`ResizableSemaphore::close`].
    pub fn reopen(&self) {
        let mut st = self.state.lock();
        st.closed = false;
        if st.available > 0 {
            self.cv.notify_all();
        }
    }

    /// Whether the semaphore currently refuses new permits.
    pub fn is_closed(&self) -> bool {
        self.state.lock().closed
    }

    /// Return a permit.
    pub fn release(&self) {
        let mut st = self.state.lock();
        st.available += 1;
        if st.available > 0 {
            self.cv.notify_one();
        }
    }

    /// Change the capacity; outstanding permits are unaffected (the available
    /// count may go negative until they are released).
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        let mut st = self.state.lock();
        let delta = capacity as i64 - st.capacity as i64;
        st.capacity = capacity;
        st.available += delta;
        if st.available > 0 {
            self.cv.notify_all();
        }
    }

    /// Permits currently held (capacity minus available, never negative in a
    /// quiescent state).
    pub fn in_use(&self) -> usize {
        let st = self.state.lock();
        (st.capacity as i64 - st.available).max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn semaphore_basic_acquire_release() {
        let s = ResizableSemaphore::new(2);
        assert!(s.try_acquire());
        assert!(s.try_acquire());
        assert!(!s.try_acquire());
        assert_eq!(s.in_use(), 2);
        s.release();
        assert!(s.try_acquire());
    }

    #[test]
    fn semaphore_grow_unblocks_waiter() {
        let s = Arc::new(ResizableSemaphore::new(1));
        assert!(s.acquire());
        let s2 = Arc::clone(&s);
        let woke = Arc::new(AtomicUsize::new(0));
        let woke2 = Arc::clone(&woke);
        let h = thread::spawn(move || {
            assert!(s2.acquire());
            woke2.store(1, Ordering::SeqCst);
            s2.release();
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(woke.load(Ordering::SeqCst), 0, "waiter must be blocked");
        s.set_capacity(2);
        h.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn semaphore_shrink_absorbs_releases() {
        let s = ResizableSemaphore::new(3);
        assert!(s.acquire());
        assert!(s.acquire());
        assert!(s.acquire());
        s.set_capacity(1); // available = -2
        s.release(); // -1
        s.release(); // 0
        assert!(!s.try_acquire(), "still over the shrunk capacity");
        s.release(); // 1
        assert!(s.try_acquire());
    }

    #[test]
    fn close_wakes_parked_acquirer_and_reopen_restores() {
        let s = Arc::new(ResizableSemaphore::new(1));
        assert!(s.acquire()); // exhaust the only permit
        let s2 = Arc::clone(&s);
        let h = thread::spawn(move || s2.acquire());
        thread::sleep(Duration::from_millis(30)); // let it park
        s.close();
        assert!(!h.join().unwrap(), "parked acquirer must wake empty-handed");
        assert!(!s.try_acquire(), "closed semaphore grants nothing");
        s.release();
        s.reopen();
        assert!(!s.is_closed());
        assert!(s.acquire(), "reopened semaphore grants again");
    }

    #[test]
    fn semaphore_try_acquire_many_loops() {
        let s = ResizableSemaphore::new(3);
        assert_eq!(s.try_acquire_many(2), 2);
        assert_eq!(s.try_acquire_many(2), 1);
        assert_eq!(s.try_acquire_many(2), 0);
    }
}
