//! The one blocking wait: [`ParkGate`].
//!
//! Every thread in this workspace that blocks until another thread changes
//! some state — an acquirer on the admission gate, a parent joining its
//! helpers, an idle pool worker, the background collector, the monitor's
//! commit reader, an idle ingress consumer — parks on a `ParkGate`, and the
//! thread that changes the state calls [`ParkGate::wake_one`] or
//! [`ParkGate::wake_all`] after it. The gate is a `SeqCst` count of threads
//! counted in, one `Mutex<()>` and one `Condvar`. It never polls: a caller
//! that wants to spin first does so before it parks.
//!
//! # No park past a wake
//!
//! *A waker whose state change precedes its `wake_*` call never leaves a
//! parker asleep past that call.* The contract: the parker's `ready()`
//! must read state the waker published either with a `SeqCst` write or
//! under a mutex that `ready()` itself takes. Then:
//!
//! * the parker counts in (`SeqCst`), takes the gate's mutex and evaluates
//!   `ready()` under it; the waker publishes its change, then reads the
//!   count (`SeqCst`). Either `ready()` sees the change, or the waker sees
//!   the count: with `SeqCst` on both sides by the single total order, with
//!   a mutex because the waker's critical section then follows `ready()`'s,
//!   so the count-in happens before the waker's read;
//! * a waker that sees the count takes and drops the gate's mutex, then
//!   notifies. The parker holds that mutex from its re-check until the
//!   condvar wait releases it, so the waker's lock comes either before the
//!   re-check, which then sees the change, or after the wait began, which
//!   the notify then ends. (Notifying after the unlock spares the woken
//!   thread a wait on a mutex its waker still holds.)
//!
//! A wake nobody is counted in for costs one load and no lock.
//! [`ParkGate::park_unless`] waits at most once and reports how it ended, so
//! callers loop on their own condition and keep their own park statistics;
//! a spurious wake-up reads as [`ParkOutcome::Woken`] and costs one lap.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Backstop for a park with no deadline of its own. No wake is lost (module
/// docs), so it only caps the cost of a waker that breaks the contract.
pub const IDLE_WAIT: Duration = Duration::from_millis(50);

/// How one [`ParkGate::park_unless`] call ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParkOutcome {
    /// `ready()` held on the re-check: the caller never waited.
    NotNeeded,
    /// A wake (or a spurious wake-up) ended the wait.
    Woken,
    /// The timeout ended the wait.
    TimedOut,
}

/// A parked count, a mutex and a condvar: see the module docs.
#[derive(Debug, Default)]
pub struct ParkGate {
    parked: AtomicUsize,
    mx: Mutex<()>,
    cv: Condvar,
}

impl ParkGate {
    /// Count in, re-check `ready()` under the gate's mutex, and unless it
    /// holds wait at most `timeout` for a wake; then count out.
    pub fn park_unless(&self, ready: impl FnOnce() -> bool, timeout: Duration) -> ParkOutcome {
        self.parked.fetch_add(1, Ordering::SeqCst);
        let mut g = self.mx.lock();
        let outcome = if ready() {
            ParkOutcome::NotNeeded
        } else if self.cv.wait_for(&mut g, timeout).timed_out() {
            ParkOutcome::TimedOut
        } else {
            ParkOutcome::Woken
        };
        drop(g);
        self.parked.fetch_sub(1, Ordering::SeqCst);
        outcome
    }

    /// Threads counted in right now.
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Wake one waiter, if anyone is counted in.
    pub fn wake_one(&self) {
        if self.parked() > 0 {
            drop(self.mx.lock());
            self.cv.notify_one();
        }
    }

    /// Wake every waiter, if anyone is counted in.
    pub fn wake_all(&self) {
        if self.parked() > 0 {
            drop(self.mx.lock());
            self.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::{mpsc, Arc};
    use std::thread;
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(10);

    impl ParkGate {
        /// Hold the gate's mutex, as a waker or a parker's re-check would.
        pub(crate) fn hold(&self) -> parking_lot::MutexGuard<'_, ()> {
            self.mx.lock()
        }
    }

    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + LONG;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
    }

    /// With nobody counted in, neither wake takes the lock: both return while
    /// another thread holds the gate's mutex.
    #[test]
    fn a_wake_with_nobody_counted_in_takes_no_lock() {
        let gate = Arc::new(ParkGate::default());
        let held = gate.hold();
        let (tx, rx) = mpsc::channel();
        let waker = thread::spawn({
            let gate = Arc::clone(&gate);
            move || {
                gate.wake_one();
                gate.wake_all();
                tx.send(()).unwrap();
            }
        });
        assert!(rx.recv_timeout(LONG).is_ok(), "a wake blocked on the held mutex");
        drop(held);
        waker.join().unwrap();
    }

    /// A parker that has counted in and re-checked is ended by the very next
    /// wake, not by its timeout. The re-check then holds the gate's mutex for
    /// up to 200 ms while the wake runs: a wake that notified without taking
    /// the mutex would return inside that window, before the wait began.
    #[test]
    fn a_counted_in_parker_is_ended_by_the_next_wake() {
        let gate = Arc::new(ParkGate::default());
        let [checked, flag, woke] = [(); 3].map(|_| Arc::new(AtomicBool::new(false)));
        let parker = thread::spawn({
            let (gate, checked, flag, woke) =
                (Arc::clone(&gate), Arc::clone(&checked), Arc::clone(&flag), Arc::clone(&woke));
            move || {
                let ready = || {
                    let ready = flag.load(Ordering::SeqCst);
                    checked.store(true, Ordering::SeqCst);
                    let hold = Instant::now() + Duration::from_millis(200);
                    while !ready && !woke.load(Ordering::SeqCst) && Instant::now() < hold {
                        thread::yield_now();
                    }
                    ready
                };
                gate.park_unless(ready, LONG)
            }
        });
        wait_until("the parker re-checked", || checked.load(Ordering::SeqCst));
        assert_eq!(gate.parked(), 1);
        flag.store(true, Ordering::SeqCst);
        gate.wake_one();
        woke.store(true, Ordering::SeqCst);
        assert_eq!(parker.join().unwrap(), ParkOutcome::Woken);
        assert_eq!(gate.parked(), 0, "the parker counted out");
    }

    /// `ready()` true on the re-check returns without waiting, and the
    /// re-check runs counted in: a waker reading the count then sees it.
    #[test]
    fn ready_on_the_re_check_returns_without_waiting() {
        let gate = ParkGate::default();
        let counted_in = || gate.parked() == 1;
        assert_eq!(gate.park_unless(counted_in, LONG), ParkOutcome::NotNeeded);
        assert_eq!(gate.parked(), 0);
    }

    /// Four wakers hand out tokens one `wake_one` each; four parkers take
    /// them and park whenever none is left. With a timeout far beyond the
    /// run, any lost wake-up would show as a `TimedOut`.
    #[test]
    fn four_wakers_and_four_parkers_never_time_out() {
        const PER_WAKER: u64 = 10_000;
        const TOTAL: u64 = 4 * PER_WAKER;
        let gate = Arc::new(ParkGate::default());
        let tokens = Arc::new(AtomicU64::new(0));
        let taken = Arc::new(AtomicU64::new(0));
        let parkers: Vec<_> = (0..4)
            .map(|_| {
                let (gate, tokens, taken) =
                    (Arc::clone(&gate), Arc::clone(&tokens), Arc::clone(&taken));
                thread::spawn(move || {
                    let (mut woken, mut timed_out) = (0u64, 0u64);
                    while taken.load(Ordering::SeqCst) < TOTAL {
                        let took = tokens
                            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |t| t.checked_sub(1))
                            .is_ok();
                        if took {
                            if taken.fetch_add(1, Ordering::SeqCst) + 1 == TOTAL {
                                gate.wake_all();
                            }
                            continue;
                        }
                        let ready = || {
                            tokens.load(Ordering::SeqCst) > 0
                                || taken.load(Ordering::SeqCst) == TOTAL
                        };
                        match gate.park_unless(ready, Duration::from_secs(60)) {
                            ParkOutcome::NotNeeded => {}
                            ParkOutcome::Woken => woken += 1,
                            ParkOutcome::TimedOut => timed_out += 1,
                        }
                    }
                    (woken, timed_out)
                })
            })
            .collect();
        let wakers: Vec<_> = (0..4)
            .map(|_| {
                let (gate, tokens) = (Arc::clone(&gate), Arc::clone(&tokens));
                thread::spawn(move || {
                    for _ in 0..PER_WAKER {
                        tokens.fetch_add(1, Ordering::SeqCst);
                        gate.wake_one();
                        // Let the parkers drain the tokens and park again.
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for w in wakers {
            w.join().unwrap();
        }
        let (woken, timed_out) = parkers
            .into_iter()
            .map(|p| p.join().unwrap())
            .fold((0, 0), |(w, t), (pw, pt)| (w + pw, t + pt));
        println!("stress: {woken} parks ended by a wake");
        assert_eq!(timed_out, 0, "a parker slept past a wake");
        assert!(woken > 0, "nobody ever parked: the wake path was not exercised");
        assert_eq!(taken.load(Ordering::SeqCst), TOTAL);
        assert_eq!(gate.parked(), 0);
    }
}
