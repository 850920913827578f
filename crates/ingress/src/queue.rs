//! Bounded MPMC submission queue with typed backpressure and a
//! wake-on-demand consumer side.
//!
//! The generator must never block (blocking would close the loop and
//! reintroduce coordinated omission), so the producer side is `try_push`
//! only: a full queue returns the request to the caller as a typed
//! [`PushError::Full`] rejection, which the ingress counts as an SLO miss.
//! The consumer side pops *batches* so workers can amortize top-level
//! admission over [`pnstm::Throttle::admit_batch`].
//!
//! # Wake protocol
//!
//! Waking a parked consumer is a futex hand-off that costs more than a short
//! request does, and parking the last awake consumer guarantees the next
//! request pays it. So an idle consumer *polls* before it parks, and a
//! producer wakes nobody who does not need waking:
//!
//! * **At most one poller.** An idle consumer that wins the poll token
//!   re-reads the lock-free mirror of `(len, closed)` — one word, stored
//!   once per push — with `thread::yield_now()` between reads; every other
//!   idle consumer parks at once.
//! * **Poll budget ≤ measured wake cost × (1 + wakes avoided).** What a
//!   poll replaces is notify → the woken consumer's pop; its EWMA is the
//!   budget of a poller with no history — the 2-competitive spin-then-park
//!   bound with the constant measured instead of set. No wake measured yet ⇒
//!   no polling (park, and learn the cost from that wake). Every poll that
//!   pays off has saved one such wake and extends the next budget by it; the
//!   first poll to run its budget out resets the streak. So the time burnt in
//!   a poll that ends in a park never exceeds the wakes polling has avoided
//!   since the last such poll, plus one: an idle queue burns one wake cost per
//!   park, and a live one keeps its last awake consumer awake. (The budget
//!   without the streak sits on a cliff: with Poisson arrivals every 50 µs,
//!   10 µs requests and a 20 µs wake, half the gaps outlast it and the median
//!   request flips between finding a poller and paying a wake, run to run.)
//! * **Notify only a parked consumer.** Consumers park on a [`ParkGate`]
//!   whose re-check reads the `SeqCst` mirror (DESIGN §5l). A push, or
//!   `pop_batch` leaving items behind, wakes one only when the gate counts
//!   one in and skips it while the poller holds the token — unless more than
//!   one item is queued (**backlog > 1 always wakes**), so a pre-empted
//!   poller strands at most one item, for no longer than it stays
//!   pre-empted. The poller frees the token before its own re-check.
//! * **`close()` wakes everyone**: the mirror carries the closed bit (ends
//!   the poll and every park's re-check) and the gate wakes all.
//!
//! Hand-rolled on a `Mutex` and a [`ParkGate`] because the vendored
//! crossbeam shim's `bounded()` channel does not actually enforce its
//! capacity.

use parking_lot::Mutex;
use pnstm::park::{ParkGate, ParkOutcome};
use pnstm::stats::CostEwma;
use pnstm::trace::now_ns;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

/// Why a push was refused, carrying the rejected element back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The queue is at capacity — backpressure; the caller decides whether
    /// to shed (ingress does) or retry.
    Full(T),
    /// The queue was closed for shutdown; no further elements are accepted.
    Closed(T),
}

/// A bounded multi-producer/multi-consumer FIFO.
pub struct BoundedQueue<T> {
    items: Mutex<VecDeque<T>>,
    /// Where idle consumers park once the poll is over.
    gate: ParkGate,
    capacity: usize,
    /// `len << 1 | closed`, stored `SeqCst` under the mutex after every
    /// change: the one closed flag, and what the poller, the park re-check
    /// and the lock-free accessors read.
    mirror: AtomicUsize,
    /// The poll token.
    polling: AtomicBool,
    /// When the latest notify was sent, until a woken consumer samples it
    /// (0 = nothing to sample).
    notified_ns: AtomicU64,
    /// Notify → the woken consumer's pop: what one poll that pays off saves.
    /// 0 until the first wake has been measured.
    wake_cost_ns: CostEwma,
    /// Polls that paid off (the poller saw the queue fill) since the last one
    /// that ran its budget out.
    streak: AtomicU64,
    consumer_parks: AtomicU64,
    wakes_sent: AtomicU64,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` elements (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            items: Mutex::new(VecDeque::new()),
            gate: ParkGate::default(),
            capacity: capacity.max(1),
            mirror: AtomicUsize::new(0),
            polling: AtomicBool::new(false),
            notified_ns: AtomicU64::new(0),
            wake_cost_ns: CostEwma::new(0),
            streak: AtomicU64::new(0),
            consumer_parks: AtomicU64::new(0),
            wakes_sent: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.mirror.load(Ordering::Acquire) >> 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_closed(&self) -> bool {
        self.mirror.load(Ordering::Acquire) & 1 != 0
    }

    /// Times a consumer parked (it found the queue empty and either lost the
    /// poll token or polled its budget out).
    pub fn consumer_parks(&self) -> u64 {
        self.consumer_parks.load(Ordering::Relaxed)
    }

    /// Wakes sent by pushes and hand-offs (`close` not counted).
    pub fn wakes_sent(&self) -> u64 {
        self.wakes_sent.load(Ordering::Relaxed)
    }

    /// Store the mirror, `SeqCst`: the waker's side of the park gate's
    /// contract. Callers hold the mutex, so the closed bit read back is exact.
    fn publish(&self, items: &VecDeque<T>) {
        let closed = self.mirror.load(Ordering::Relaxed) & 1;
        self.mirror.store(items.len() << 1 | closed, Ordering::SeqCst);
    }

    /// Whether the queue as the caller leaves it (mutex still held) needs a
    /// parked consumer woken: someone is parked, and either nobody is polling
    /// or there is more queued than the one poller will take first.
    fn must_wake(&self, items: &VecDeque<T>) -> bool {
        let len = items.len();
        len > 0 && self.gate.parked() > 0 && (len > 1 || !self.polling.load(Ordering::SeqCst))
    }

    fn wake_one(&self) {
        self.notified_ns.store(now_ns().max(1), Ordering::Relaxed);
        self.wakes_sent.fetch_add(1, Ordering::Relaxed);
        self.gate.wake_one();
    }

    /// Non-blocking enqueue: `Err(Full)` at the ceiling, `Err(Closed)` after
    /// [`BoundedQueue::close`].
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut items = self.items.lock();
        if self.is_closed() {
            return Err(PushError::Closed(item));
        }
        if items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        items.push_back(item);
        self.publish(&items);
        let wake = self.must_wake(&items);
        drop(items);
        if wake {
            self.wake_one();
        }
        Ok(())
    }

    /// Take the poll token if it is free and watch the mirror until the queue
    /// is non-empty or closed, or the budget (module docs) runs out.
    fn poll(&self, start_ns: u64, timeout: Duration) {
        let wake_cost_ns = self.wake_cost_ns.get();
        if wake_cost_ns == 0
            || self
                .polling
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
        {
            return;
        }
        // Relaxed: the streak is read and written by the token holder only,
        // and the token's SeqCst hand-over orders one holder after the other.
        let streak = self.streak.load(Ordering::Relaxed);
        let timeout_ns = u64::try_from(timeout.as_nanos()).unwrap_or(u64::MAX);
        let budget = wake_cost_ns.saturating_mul(streak.saturating_add(1)).min(timeout_ns);
        let deadline = start_ns.saturating_add(budget);
        let paid_off = loop {
            if self.mirror.load(Ordering::Acquire) != 0 {
                break true;
            }
            if now_ns() >= deadline {
                break false;
            }
            thread::yield_now();
        };
        self.streak.store(if paid_off { streak.saturating_add(1) } else { 0 }, Ordering::Relaxed);
        self.polling.store(false, Ordering::SeqCst);
    }

    /// Dequeue up to `max` elements, waiting up to `timeout` for the first.
    ///
    /// Returns an empty vector on timeout or when the queue is closed *and*
    /// drained — a consumer loop can therefore use
    /// `batch.is_empty() && queue.is_closed()` as its exit condition without
    /// losing elements enqueued before the close.
    pub fn pop_batch(&self, max: usize, timeout: Duration) -> Vec<T> {
        let mut items = self.items.lock();
        let mut woken = false;
        // Under the mutex the mirror is exact: 0 means empty and open.
        let ready = || self.mirror.load(Ordering::SeqCst) != 0;
        if !ready() && !timeout.is_zero() {
            drop(items);
            let start_ns = now_ns();
            self.poll(start_ns, timeout);
            // Token released (or never held): park unless the mirror says
            // the queue filled or closed.
            if !ready() {
                let spent = Duration::from_nanos(now_ns().saturating_sub(start_ns));
                self.consumer_parks.fetch_add(1, Ordering::Relaxed);
                let left = timeout.saturating_sub(spent);
                woken = self.gate.park_unless(ready, left) == ParkOutcome::Woken;
            }
            items = self.items.lock();
        }
        let n = items.len().min(max.max(1));
        let batch: Vec<T> = items.drain(..n).collect();
        if n > 0 {
            self.publish(&items);
        }
        // More work remains: hand it to a parked consumer, if it needs one.
        let wake = self.must_wake(&items);
        drop(items);
        if woken && n > 0 {
            let sent_ns = self.notified_ns.swap(0, Ordering::Relaxed);
            if sent_ns != 0 {
                self.wake_cost_ns.observe(now_ns().saturating_sub(sent_ns));
            }
        }
        if wake {
            self.wake_one();
        }
        batch
    }

    /// Close the queue: further pushes fail with [`PushError::Closed`], the
    /// poller stops polling and every parked consumer wakes. Already-enqueued
    /// elements stay poppable.
    pub fn close(&self) {
        let items = self.items.lock();
        self.mirror.fetch_or(1, Ordering::SeqCst);
        drop(items);
        self.gate.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU8;
    use std::sync::Arc;
    use std::thread;
    use std::time::Instant;

    #[test]
    fn full_queue_returns_the_item() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.try_push(3), Err(PushError::Full(3)));
        assert_eq!(q.len(), 2);
        // Draining reopens capacity.
        assert_eq!(q.pop_batch(10, Duration::ZERO), vec![1, 2]);
        q.try_push(3).unwrap();
    }

    #[test]
    fn pop_batch_respects_max_and_order() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(4, Duration::ZERO), vec![0, 1, 2, 3]);
        assert_eq!(q.pop_batch(4, Duration::ZERO), vec![4, 5]);
        assert!(q.pop_batch(4, Duration::from_millis(1)).is_empty());
    }

    #[test]
    fn close_wakes_blocked_consumer_and_rejects_producers() {
        let q = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let h = thread::spawn(move || q2.pop_batch(1, Duration::from_secs(30)));
        // Give the consumer a moment to park, then close.
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(h.join().unwrap().is_empty(), "close must wake the parked consumer");
        assert_eq!(q.try_push(9), Err(PushError::Closed(9)));
    }

    #[test]
    fn close_does_not_drop_enqueued_items() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        q.close();
        assert_eq!(q.pop_batch(8, Duration::ZERO), vec![1, 2]);
        assert!(q.is_closed() && q.is_empty());
    }

    #[test]
    fn producers_and_consumers_agree_on_the_count() {
        let q = Arc::new(BoundedQueue::new(16));
        let consumed = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..2 {
            let q = Arc::clone(&q);
            let consumed = Arc::clone(&consumed);
            handles.push(thread::spawn(move || loop {
                let batch = q.pop_batch(4, Duration::from_millis(50));
                consumed.fetch_add(batch.len() as u64, std::sync::atomic::Ordering::Relaxed);
                if batch.is_empty() && q.is_closed() {
                    return;
                }
            }));
        }
        let mut accepted = 0u64;
        for i in 0..1_000 {
            if q.try_push(i).is_ok() {
                accepted += 1;
            }
        }
        q.close();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(consumed.load(std::sync::atomic::Ordering::Relaxed), accepted);
    }

    /// Spin (politely) until `cond` holds; panics after `cap`.
    fn wait_for(what: &str, cap: Duration, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + cap;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting until {what}");
            thread::yield_now();
        }
    }

    /// A queue whose poller has history: a measured wake cost of `ns`.
    fn queue_with_wake_cost<T>(capacity: usize, ns: u64) -> Arc<BoundedQueue<T>> {
        let q = BoundedQueue::new(capacity);
        q.wake_cost_ns.observe(ns);
        Arc::new(q)
    }

    fn spawn_consumers(
        q: &Arc<BoundedQueue<u32>>,
        n: usize,
        timeout: Duration,
    ) -> Vec<thread::JoinHandle<Vec<u32>>> {
        (0..n)
            .map(|_| {
                let q = Arc::clone(q);
                thread::spawn(move || q.pop_batch(1, timeout))
            })
            .collect()
    }

    #[test]
    fn push_with_nobody_parked_sends_no_notify() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i).unwrap();
        }
        assert_eq!(q.pop_batch(2, Duration::from_secs(1)), vec![0, 1]);
        assert_eq!(q.pop_batch(8, Duration::from_secs(1)), vec![2, 3, 4]);
        assert_eq!((q.wakes_sent(), q.consumer_parks()), (0, 0));
    }

    #[test]
    fn never_two_pollers_and_the_poller_needs_no_notify() {
        // A wake cost far beyond the test's length: whoever wins the token
        // polls throughout, so every other idle consumer must park at once.
        let q = queue_with_wake_cost(8, 30_000_000_000);
        let consumers = spawn_consumers(&q, 3, Duration::from_secs(30));
        wait_for("two of three consumers are parked", Duration::from_secs(10), || {
            q.gate.parked() == 2
        });
        assert!(q.polling.load(Ordering::SeqCst), "the third consumer holds the token");
        assert_eq!(q.consumer_parks(), 2);
        // One item with the poller awake: no futex hand-off, the poller takes it.
        q.try_push(7).unwrap();
        wait_for("the poller took the item", Duration::from_secs(10), || q.is_empty());
        assert_eq!(q.wakes_sent(), 0);
        assert_eq!(q.gate.parked(), 2, "the parked consumers slept through it");
        // A backlog beyond the one item a poller takes always wakes: the token
        // is free again, so the first push wakes one consumer, and with both
        // remaining consumers busy or gone the queue drains.
        q.try_push(8).unwrap();
        q.try_push(9).unwrap();
        let mut got: Vec<u32> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![7, 8, 9]);
        assert!(q.wakes_sent() >= 1);
    }

    #[test]
    fn close_wakes_the_poller_and_the_parked_consumer() {
        let q = queue_with_wake_cost(8, 30_000_000_000);
        let consumers = spawn_consumers(&q, 2, Duration::from_secs(30));
        wait_for("one consumer polls and one is parked", Duration::from_secs(10), || {
            q.gate.parked() == 1 && q.polling.load(Ordering::SeqCst)
        });
        let start = Instant::now();
        q.close();
        for h in consumers {
            assert!(h.join().unwrap().is_empty());
        }
        assert!(start.elapsed() < Duration::from_secs(10), "close must not wait out a timeout");
        assert!(!q.polling.load(Ordering::SeqCst));
        assert_eq!(q.try_push(1), Err(PushError::Closed(1)));
    }

    #[test]
    fn an_idle_poller_burns_one_wake_cost_and_parks() {
        // History says the door was live (a long streak); nothing arrives.
        let q: Arc<BoundedQueue<u32>> = queue_with_wake_cost(8, 1_000_000);
        q.streak.store(4, Ordering::Relaxed);
        assert!(q.pop_batch(1, Duration::from_millis(50)).is_empty());
        assert_eq!(q.consumer_parks(), 1, "the poll ran out before the timeout and parked");
        assert_eq!(q.streak.load(Ordering::Relaxed), 0, "a poll that did not pay off resets");
        // With no streak the next idle poll is one wake cost long.
        assert!(q.pop_batch(1, Duration::from_millis(2)).is_empty());
        assert_eq!(q.consumer_parks(), 2);
    }

    /// The protocol under fire: two consumers, 200 k items, and a producer that
    /// keeps pausing for about as long as the current poll budget, so pushes
    /// land on every side of the poll → park transition. Every item must be
    /// delivered exactly once, and none may sit in the queue while both
    /// consumers idle: after a probing push the producer watches the queue
    /// drain, with a deadline of half the consumers' `pop_batch` timeout — a
    /// lost wakeup would leave the item there until that timeout.
    #[test]
    fn stress_around_the_poll_to_park_transition_loses_and_strands_nothing() {
        const ITEMS: u32 = 200_000;
        const TIMEOUT: Duration = Duration::from_secs(4);
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(256));
        let seen: Arc<Vec<AtomicU8>> = Arc::new((0..ITEMS).map(|_| AtomicU8::new(0)).collect());
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let (q, seen) = (Arc::clone(&q), Arc::clone(&seen));
                thread::spawn(move || loop {
                    let batch = q.pop_batch(4, TIMEOUT);
                    if batch.is_empty() && q.is_closed() {
                        return;
                    }
                    for item in batch {
                        seen[item as usize].fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();

        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut slowest_drain = Duration::ZERO;
        for item in 0..ITEMS {
            while q.try_push(item).is_err() {
                thread::yield_now();
            }
            if next() % 16 != 0 {
                continue;
            }
            let pushed = Instant::now();
            while !q.is_empty() {
                assert!(
                    pushed.elapsed() < TIMEOUT / 2,
                    "item {item} stranded with idle consumers (parks {}, wakes {})",
                    q.consumer_parks(),
                    q.wakes_sent()
                );
                thread::yield_now();
            }
            slowest_drain = slowest_drain.max(pushed.elapsed());
            // Pause 0.5–1.5 budgets, so the poller gives up just before, while
            // or just after the next push.
            let budget = q.wake_cost_ns.get() * (1 + q.streak.load(Ordering::Relaxed)).min(8);
            let pause = Duration::from_nanos(budget / 2 + next() % budget.max(1));
            let until = Instant::now() + pause.min(Duration::from_millis(1));
            while Instant::now() < until {
                std::hint::spin_loop();
            }
        }
        wait_for("the queue drains", TIMEOUT, || q.is_empty());
        q.close();
        for h in consumers {
            h.join().unwrap();
        }
        let wrong = seen.iter().filter(|c| c.load(Ordering::Relaxed) != 1).count();
        assert_eq!(wrong, 0, "{wrong} items lost or duplicated");
        assert!(q.consumer_parks() > 0 && q.wakes_sent() > 0, "the transition was never exercised");
        println!(
            "stress: parks {} wakes {} slowest probed drain {:?}",
            q.consumer_parks(),
            q.wakes_sent(),
            slowest_drain
        );
    }
}
