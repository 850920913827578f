//! The actuator substrate: resizable admission gates for top-level and
//! nested concurrency.
//!
//! §VI of the paper: *"the actuator \[...\] intercept\[s\] the calls to begin and
//! commit/abort transactions \[...\] ensuring, via the use of semaphores, that
//! the number of concurrent top-level transactions/nested transactions per
//! tree is at any point in time less than allowed by the current
//! configuration."*
//!
//! The top-level gate is [`PackedGate`]: the whole closed/capacity/available
//! state packed into one atomic word, with a [`ParkGate`] touched only by
//! threads that actually block, so the actuator's `set_capacity` during a
//! live `(t, c)` reprovisioning never quiesces admissions through a lock.
//! Shrinking the capacity while permits are held drives the available count
//! negative, so the gate "absorbs" outstanding permits until enough releases
//! bring it back above zero.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::fault::{FaultCtx, FaultKind};
use crate::park::{ParkGate, ParkOutcome, IDLE_WAIT};
use crate::stats::Stats;
use crate::trace::{AxesTrace, TraceBus, TraceEvent};

/// A `(t, c)` parallelism-degree configuration as defined in §III-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ParallelismDegree {
    /// Maximum number of concurrent top-level transactions.
    pub top_level: usize,
    /// Maximum number of concurrent nested transactions per transaction tree.
    pub nested_per_tree: usize,
}

impl ParallelismDegree {
    /// Construct a degree; both components are clamped to at least 1.
    pub fn new(top_level: usize, nested_per_tree: usize) -> Self {
        Self { top_level: top_level.max(1), nested_per_tree: nested_per_tree.max(1) }
    }

    /// Total worker demand `t * c` of this configuration.
    pub fn cores_used(&self) -> usize {
        self.top_level * self.nested_per_tree
    }
}

impl std::fmt::Display for ParallelismDegree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.top_level, self.nested_per_tree)
    }
}

/// Closed flag of the [`PackedGate`] word (bit 63).
const GATE_CLOSED: u64 = 1 << 63;

/// Decoded [`PackedGate`] word: `(closed, capacity, available)`.
fn gate_unpack(w: u64) -> (bool, usize, i64) {
    let closed = w & GATE_CLOSED != 0;
    let capacity = ((w >> 32) & (u32::MAX >> 1) as u64) as usize;
    let available = (w as u32 as i32) as i64;
    (closed, capacity, available)
}

/// Pack `(closed, capacity, available)` into one [`PackedGate`] word:
/// bit 63 = closed, bits 32–62 = capacity (u31), bits 0–31 = available as a
/// two's-complement i32 (negative after a shrink while permits are held).
fn gate_pack(closed: bool, capacity: usize, available: i64) -> u64 {
    debug_assert!(capacity < (1 << 31));
    debug_assert!(i32::try_from(available).is_ok());
    (if closed { GATE_CLOSED } else { 0 })
        | ((capacity as u64) << 32)
        | (available as i32 as u32 as u64)
}

/// Lock-free top-level admission gate: a counting semaphore with
/// runtime-adjustable capacity and a shutdown-aware close/reopen protocol.
///
/// The entire semaphore state — closed flag, capacity, available count —
/// lives in one atomic word, so acquire/release/`set_capacity` are a CAS
/// each and never contend on a mutex. The state is deliberately *not*
/// sharded into per-core token pools: after a capacity shrink a sharded
/// count can transiently admit more than the new capacity (one shard still
/// positive while another is negative), and the actuator's contract is that
/// at no point are more than `t` new top-level admissions granted. A thread
/// that must block parks on a [`ParkGate`] until the word may grant it or
/// says closed.
///
/// **Wake rule.** A release wakes one parker when its CAS made a permit
/// grantable; close, reopen and capacity growth wake all. The word is
/// written by a `SeqCst` CAS and the park re-check reads it `SeqCst`, so
/// the gate's "no park past a wake" holds (DESIGN §5l), and a release
/// nobody waits for costs one load beyond its CAS.
#[derive(Debug)]
pub struct PackedGate {
    word: AtomicU64,
    gate: ParkGate,
    /// Counts parks into `park_count` when attached ([`Stats::record_park`]).
    stats: Option<Arc<Stats>>,
}

impl PackedGate {
    pub fn new(capacity: usize) -> Self {
        Self::build(capacity, None)
    }

    /// A gate that records parked acquisitions into `stats`.
    pub fn with_stats(capacity: usize, stats: Arc<Stats>) -> Self {
        Self::build(capacity, Some(stats))
    }

    fn build(capacity: usize, stats: Option<Arc<Stats>>) -> Self {
        let capacity = capacity.max(1);
        let word = AtomicU64::new(gate_pack(false, capacity, capacity as i64));
        Self { word, gate: ParkGate::default(), stats }
    }

    /// CAS-update the word with `f`, which returns the new decoded state (or
    /// `None` to abort). Returns the *previous* decoded state on success.
    /// The successful CAS is `SeqCst`: it is one side of the wake rule.
    fn update(
        &self,
        mut f: impl FnMut(bool, usize, i64) -> Option<(bool, usize, i64)>,
    ) -> Option<(bool, usize, i64)> {
        let mut cur = self.word.load(Ordering::Acquire);
        loop {
            let (closed, cap, avail) = gate_unpack(cur);
            let (nc, ncap, navail) = f(closed, cap, avail)?;
            match self.word.compare_exchange_weak(
                cur,
                gate_pack(nc, ncap, navail),
                Ordering::SeqCst,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((closed, cap, avail)),
                Err(actual) => cur = actual,
            }
        }
    }

    /// What a blocked acquirer waits for: a permit it may take, or a close.
    fn grantable_or_closed(&self) -> bool {
        let (closed, _, avail) = gate_unpack(self.word.load(Ordering::SeqCst));
        closed || avail > 0
    }

    /// Block for a permit; `false` means the gate is closed.
    pub fn acquire(&self) -> bool {
        loop {
            let took = self.update(|closed, cap, avail| {
                if closed || avail <= 0 {
                    None
                } else {
                    Some((closed, cap, avail - 1))
                }
            });
            if took.is_some() {
                return true;
            }
            let (closed, _, avail) = gate_unpack(self.word.load(Ordering::Acquire));
            if closed {
                return false;
            }
            if avail <= 0
                && self.gate.park_unless(|| self.grantable_or_closed(), IDLE_WAIT)
                    != ParkOutcome::NotNeeded
            {
                if let Some(stats) = &self.stats {
                    stats.record_park();
                }
            }
        }
    }

    /// Take a permit only if one is immediately available and the gate is
    /// open.
    pub fn try_acquire(&self) -> bool {
        self.update(
            |closed, cap, avail| {
                if closed || avail <= 0 {
                    None
                } else {
                    Some((closed, cap, avail - 1))
                }
            },
        )
        .is_some()
    }

    /// Return a permit.
    pub fn release(&self) {
        let prev = self.update(|closed, cap, avail| Some((closed, cap, avail + 1)));
        if prev.is_some_and(|(_, _, avail)| avail + 1 > 0) {
            self.gate.wake_one();
        }
    }

    /// Refuse new permits and wake every parked acquirer empty-handed.
    pub fn close(&self) {
        self.word.fetch_or(GATE_CLOSED, Ordering::SeqCst);
        self.gate.wake_all();
    }

    /// Re-admit after a [`PackedGate::close`].
    pub fn reopen(&self) {
        let prev = self.word.fetch_and(!GATE_CLOSED, Ordering::SeqCst);
        if gate_unpack(prev).2 > 0 {
            self.gate.wake_all();
        }
    }

    /// Whether the gate currently refuses new permits.
    pub fn is_closed(&self) -> bool {
        gate_unpack(self.word.load(Ordering::Acquire)).0
    }

    /// Change the capacity (clamped to at least 1); outstanding permits are
    /// unaffected, so the available count may go negative.
    pub fn set_capacity(&self, capacity: usize) {
        let capacity = capacity.max(1);
        let prev = self.update(|closed, cap, avail| {
            let delta = capacity as i64 - cap as i64;
            Some((closed, capacity, avail + delta))
        });
        if let Some((_, cap, avail)) = prev {
            if avail + (capacity as i64 - cap as i64) > 0 {
                self.gate.wake_all();
            }
        }
    }

    /// Currently configured capacity.
    pub fn capacity(&self) -> usize {
        gate_unpack(self.word.load(Ordering::Acquire)).1
    }

    /// Permits currently held (never negative in a quiescent state).
    pub fn in_use(&self) -> usize {
        let (_, cap, avail) = gate_unpack(self.word.load(Ordering::Acquire));
        (cap as i64 - avail).max(0) as usize
    }

    /// Take up to `max` immediately available permits without blocking:
    /// one CAS grants `min(max, available)`, 0 when closed or exhausted —
    /// the batched-admission amortization the ingress front door relies on.
    pub fn try_acquire_many(&self, max: usize) -> usize {
        if max == 0 {
            return 0;
        }
        let mut take = 0;
        let took = self.update(|closed, cap, avail| {
            if closed || avail <= 0 {
                None
            } else {
                take = (max as i64).min(avail) as usize;
                Some((closed, cap, avail - take as i64))
            }
        });
        if took.is_some() {
            take
        } else {
            0
        }
    }
}

/// The top-level admission gate a [`Throttle`] runs: the shipped
/// [`PackedGate`], or, with the `oracle` feature, the mutex semaphore beside
/// it. Each method is the gate method of the same name.
#[derive(Debug)]
pub(crate) enum TopGate {
    Packed(PackedGate),
    #[cfg(any(test, feature = "oracle"))]
    Semaphore(crate::oracle::ResizableSemaphore),
}

/// `$body` over whichever gate `$top` holds, bound to `$gate`.
macro_rules! on_gate {
    ($top:expr, $gate:ident => $body:expr) => {
        match $top {
            TopGate::Packed($gate) => $body,
            #[cfg(any(test, feature = "oracle"))]
            TopGate::Semaphore($gate) => $body,
        }
    };
}

impl TopGate {
    fn acquire(&self) -> bool {
        on_gate!(self, g => g.acquire())
    }
    fn try_acquire_many(&self, max: usize) -> usize {
        on_gate!(self, g => g.try_acquire_many(max))
    }
    fn release(&self) {
        on_gate!(self, g => g.release())
    }
    fn close(&self) {
        on_gate!(self, g => g.close())
    }
    fn reopen(&self) {
        on_gate!(self, g => g.reopen())
    }
    fn is_closed(&self) -> bool {
        on_gate!(self, g => g.is_closed())
    }
    fn set_capacity(&self, capacity: usize) {
        on_gate!(self, g => g.set_capacity(capacity))
    }
    fn in_use(&self) -> usize {
        on_gate!(self, g => g.in_use())
    }
}

/// RAII admission permit: released when dropped.
#[derive(Debug)]
pub struct Permit {
    gate: Arc<TopGate>,
}

impl Permit {
    /// Block until the gate grants a permit; `None` if it is closed.
    fn acquire(gate: &Arc<TopGate>) -> Option<Self> {
        if gate.acquire() {
            Some(Self { gate: Arc::clone(gate) })
        } else {
            None
        }
    }

    /// Wrap a permit the caller already acquired from `gate` (used by the
    /// batched admission path, where `try_acquire_many` grants several
    /// permits in one CAS).
    fn from_acquired(gate: &Arc<TopGate>) -> Self {
        Self { gate: Arc::clone(gate) }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

/// The admission controller for a PN-STM instance.
///
/// Gates top-level transaction begins with a semaphore of capacity `t` and
/// publishes the per-tree nested limit `c` that each transaction tree reads
/// when spawning children.
#[derive(Debug)]
pub struct Throttle {
    top_gate: Arc<TopGate>,
    /// The published `(t, c)` configuration, packed as `t << 32 | c` so
    /// readers get a *consistent pair* from one atomic load. (Keeping the
    /// two halves behind separate locks allowed a torn read: a concurrent
    /// reconfiguration from, say, `(8, 1)` to `(1, 8)` could be observed as
    /// `(8, 8)` — an over-subscribed configuration that never existed.)
    degree: AtomicU64,
    /// Memory-pressure ceiling on the *effective* top-level capacity
    /// (`usize::MAX` = none). The ladder sets this instead of calling
    /// `set_capacity` directly so a concurrent tuner `reconfigure` cannot
    /// silently undo the backpressure: both paths apply
    /// `min(t, pressure_cap)`.
    pressure_cap: AtomicUsize,
    /// The discrete-axis half of the configuration point currently in force
    /// (`cm`, `gc_boxes`, `block`, ...), stamped by the axis actuation layer
    /// *before* it applies the degree so the resulting
    /// [`TraceEvent::Reconfigure`] carries the full point. Empty until a
    /// multi-axis tuner notes one; legacy `(t, c)`-only traces stay
    /// byte-identical.
    axes_note: Mutex<AxesTrace>,
    trace: TraceBus,
    fault: FaultCtx,
}

/// A `(t, c)` reconfiguration attempt failed (today only the fault layer
/// produces this; real actuation backends may too).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigError;

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parallelism-degree reconfiguration failed")
    }
}

impl std::error::Error for ReconfigError {}

fn pack(d: ParallelismDegree) -> u64 {
    // The search space is bounded by the core count; u32 per component is
    // far beyond any real machine.
    let t = d.top_level.min(u32::MAX as usize) as u64;
    let c = d.nested_per_tree.min(u32::MAX as usize) as u64;
    (t << 32) | c
}

fn unpack(packed: u64) -> ParallelismDegree {
    ParallelismDegree {
        top_level: (packed >> 32) as usize,
        nested_per_tree: (packed & u32::MAX as u64) as usize,
    }
}

impl Throttle {
    pub fn new(degree: ParallelismDegree) -> Self {
        Self::with_trace(degree, TraceBus::default())
    }

    /// A throttle that publishes [`TraceEvent::Reconfigure`] events on `trace`.
    pub fn with_trace(degree: ParallelismDegree, trace: TraceBus) -> Self {
        Self::with_instruments(degree, trace, FaultCtx::disabled())
    }

    /// A throttle with both tracing and fault injection attached, gating
    /// admissions through a [`PackedGate`].
    pub fn with_instruments(degree: ParallelismDegree, trace: TraceBus, fault: FaultCtx) -> Self {
        Self::over(degree, trace, fault, TopGate::Packed(PackedGate::new(degree.top_level)))
    }

    /// A throttle over `gate`, whose capacity is forced to
    /// `degree.top_level`.
    pub(crate) fn over(
        degree: ParallelismDegree,
        trace: TraceBus,
        fault: FaultCtx,
        gate: TopGate,
    ) -> Self {
        gate.set_capacity(degree.top_level);
        Self {
            top_gate: Arc::new(gate),
            degree: AtomicU64::new(pack(degree)),
            pressure_cap: AtomicUsize::new(usize::MAX),
            axes_note: Mutex::new(AxesTrace::empty()),
            trace,
            fault,
        }
    }

    /// Record the discrete-axis half of the configuration point now in
    /// force. Subsequent [`TraceEvent::Reconfigure`] emissions carry it, so
    /// a multi-axis actuation (axes first, then degree) traces as one full
    /// point.
    pub fn note_axes(&self, axes: AxesTrace) {
        *self.axes_note.lock() = axes;
    }

    /// The last noted discrete-axis assignment (empty if none).
    pub fn noted_axes(&self) -> AxesTrace {
        *self.axes_note.lock()
    }

    /// Block until a top-level slot is free; the permit is released when the
    /// returned guard drops (i.e. when the transaction finishes). `None` if
    /// admission is closed (shutdown in progress).
    pub fn admit_top_level(&self) -> Option<Permit> {
        Permit::acquire(&self.top_gate)
    }

    /// Batched admission: block for the first permit, then take up to
    /// `max - 1` more that are immediately available — at most one blocking
    /// acquire plus one CAS per batch instead of one admission round per
    /// request. Returns an empty vector iff admission is closed; otherwise
    /// at least one permit. Each permit releases on drop as usual.
    pub fn admit_batch(&self, max: usize) -> Vec<Permit> {
        let Some(first) = Permit::acquire(&self.top_gate) else {
            return Vec::new();
        };
        let mut permits = Vec::with_capacity(max.max(1));
        permits.push(first);
        let extra = self.top_gate.try_acquire_many(max.saturating_sub(1));
        for _ in 0..extra {
            permits.push(Permit::from_acquired(&self.top_gate));
        }
        permits
    }

    /// Stop admitting top-level transactions and wake every thread parked on
    /// admission (they observe the closure and bail out). Part of shutdown:
    /// a worker blocked on a starved gate would otherwise never see a stop
    /// flag.
    pub fn close(&self) {
        self.top_gate.close();
    }

    /// Resume admission after [`Throttle::close`].
    pub fn reopen(&self) {
        self.top_gate.reopen();
    }

    /// Whether admission is currently closed.
    pub fn is_closed(&self) -> bool {
        self.top_gate.is_closed()
    }

    /// The per-tree nested concurrency limit `c` in force right now.
    ///
    /// Sampled once per `parallel()` batch: a reconfiguration applies to
    /// batches started after it, mirroring the paper's semaphore actuator.
    pub fn nested_limit(&self) -> usize {
        unpack(self.degree.load(Ordering::Acquire)).nested_per_tree
    }

    /// Apply a new `(t, c)` configuration and return the one it replaced.
    /// Running transactions finish under their old admission; new
    /// begins/batches observe the new limits.
    pub fn reconfigure(&self, degree: ParallelismDegree) -> ParallelismDegree {
        let prev = unpack(self.degree.swap(pack(degree), Ordering::AcqRel));
        self.apply_effective_capacity();
        if prev != degree {
            self.trace.emit(TraceEvent::Reconfigure {
                from: (prev.top_level as u32, prev.nested_per_tree as u32),
                to: (degree.top_level as u32, degree.nested_per_tree as u32),
                axes: self.noted_axes(),
            });
        }
        prev
    }

    /// Fallible [`Throttle::reconfigure`]: the fault layer may veto the
    /// attempt ([`FaultKind::ReconfigFail`]), in which case the previous
    /// configuration stays in force and the caller is expected to retry,
    /// back off, or fall back (see the controller's degradation ladder).
    pub fn try_reconfigure(
        &self,
        degree: ParallelismDegree,
    ) -> Result<ParallelismDegree, ReconfigError> {
        if self.fault.inject(FaultKind::ReconfigFail).is_some() {
            return Err(ReconfigError);
        }
        Ok(self.reconfigure(degree))
    }

    /// The configuration currently in force, read atomically (never a mix
    /// of an old `t` with a new `c` or vice versa).
    pub fn current(&self) -> ParallelismDegree {
        unpack(self.degree.load(Ordering::Acquire))
    }

    /// Number of top-level transactions currently admitted.
    pub fn top_level_in_use(&self) -> usize {
        self.top_gate.in_use()
    }

    /// Cap the effective top-level capacity at `cap` regardless of the
    /// configured `t` (memory-pressure backpressure). The configured degree
    /// is untouched; [`Throttle::clear_pressure_cap`] restores it.
    pub fn set_pressure_cap(&self, cap: usize) {
        self.pressure_cap.store(cap.max(1), Ordering::Release);
        self.apply_effective_capacity();
    }

    /// Remove the memory-pressure cap and restore the configured capacity.
    pub fn clear_pressure_cap(&self) {
        self.pressure_cap.store(usize::MAX, Ordering::Release);
        self.apply_effective_capacity();
    }

    /// The memory-pressure cap in force (`None` when uncapped).
    pub fn pressure_cap(&self) -> Option<usize> {
        match self.pressure_cap.load(Ordering::Acquire) {
            usize::MAX => None,
            cap => Some(cap),
        }
    }

    /// Re-derive the gate capacity from the configured degree and the
    /// pressure cap. Called after either input changes; last writer wins,
    /// and both orderings converge on `min(t, cap)` because each writer
    /// re-reads the other's input after publishing its own.
    fn apply_effective_capacity(&self) {
        let t = unpack(self.degree.load(Ordering::Acquire)).top_level;
        let cap = self.pressure_cap.load(Ordering::Acquire);
        self.top_gate.set_capacity(t.min(cap));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn degree_clamps_to_one() {
        let d = ParallelismDegree::new(0, 0);
        assert_eq!(d, ParallelismDegree { top_level: 1, nested_per_tree: 1 });
        assert_eq!(d.cores_used(), 1);
        assert_eq!(d.to_string(), "(1,1)");
    }

    #[test]
    fn pressure_cap_bounds_effective_capacity() {
        let th = Throttle::new(ParallelismDegree::new(4, 1));
        let p1 = th.admit_top_level().unwrap();
        let p2 = th.admit_top_level().unwrap();
        assert_eq!(th.top_level_in_use(), 2);

        // Cap to 1: in-flight permits are unaffected, but no new admission
        // succeeds until usage drops below the cap.
        th.set_pressure_cap(1);
        assert_eq!(th.pressure_cap(), Some(1));
        assert_eq!(th.top_gate.try_acquire_many(1), 0, "capped gate admits nothing new");
        drop(p1);
        drop(p2);
        let _p = th.admit_top_level().unwrap();
        assert_eq!(th.top_gate.try_acquire_many(1), 0, "cap of 1 holds");

        // A tuner reconfigure does not undo the cap...
        th.reconfigure(ParallelismDegree::new(8, 2));
        assert_eq!(th.top_gate.try_acquire_many(1), 0, "reconfigure respects the cap");
        assert_eq!(th.current(), ParallelismDegree::new(8, 2), "configured degree is preserved");

        // ...and clearing the cap restores the configured capacity.
        th.clear_pressure_cap();
        assert_eq!(th.pressure_cap(), None);
        assert_eq!(th.top_gate.try_acquire_many(1), 1);
        th.top_gate.release();
    }

    #[test]
    fn throttle_reconfigure_applies() {
        let t = Throttle::new(ParallelismDegree::new(4, 2));
        assert_eq!(t.current(), ParallelismDegree::new(4, 2));
        let _p = t.admit_top_level().unwrap();
        assert_eq!(t.top_level_in_use(), 1);
        t.reconfigure(ParallelismDegree::new(2, 8));
        assert_eq!(t.current(), ParallelismDegree::new(2, 8));
        assert_eq!(t.nested_limit(), 8);
    }

    /// The strict actuator contract under concurrency: at no point more than
    /// `t` admissions — the reason the token count is one packed word
    /// instead of sharded per-core pools (see the [`PackedGate`] docs).
    #[test]
    fn throttle_caps_concurrent_admissions() {
        let t = Arc::new(Throttle::new(ParallelismDegree::new(3, 1)));
        let peak = Arc::new(AtomicUsize::new(0));
        let cur = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..12 {
            let (t, peak, cur) = (Arc::clone(&t), Arc::clone(&peak), Arc::clone(&cur));
            handles.push(thread::spawn(move || {
                for _ in 0..20 {
                    let _p = t.admit_top_level().unwrap();
                    let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    thread::sleep(Duration::from_micros(200));
                    cur.fetch_sub(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(
            peak.load(Ordering::SeqCst) <= 3,
            "peak {} exceeded t=3",
            peak.load(Ordering::SeqCst)
        );
        assert_eq!(t.top_level_in_use(), 0);
    }

    /// Regression test for the torn read in `Throttle::current()`: with the
    /// two degree components behind separate locks, a reader racing a
    /// reconfiguration from (8,1) to (1,8) could observe (8,8) — an
    /// over-subscribed configuration that was never applied.
    #[test]
    fn current_is_never_torn_under_reconfiguration() {
        const N: usize = 8;
        let configs = [(8, 1), (1, 8), (4, 2), (2, 4)].map(|(t, c)| ParallelismDegree::new(t, c));
        let throttle = Arc::new(Throttle::new(configs[0]));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = vec![];
        for _ in 0..4 {
            let throttle = Arc::clone(&throttle);
            let stop = Arc::clone(&stop);
            readers.push(thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let d = throttle.current();
                    assert!(
                        configs.contains(&d),
                        "torn read: observed {d}, which was never configured"
                    );
                    assert!(d.cores_used() <= N, "over-subscribed read {d}");
                }
            }));
        }
        for i in 0..2_000 {
            throttle.reconfigure(configs[i % configs.len()]);
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
    }

    /// Reconfigure under load and validate the invariant t·c ≤ n from the
    /// emitted trace events: every `Reconfigure`'s before/after pair must be
    /// an admissible configuration, never a torn mix.
    #[test]
    fn reconfigure_stress_trace_events_respect_core_budget() {
        use crate::trace::{TestSink, TraceBus, TraceEvent};

        const N: u32 = 8;
        let bus = TraceBus::new();
        let sink = Arc::new(TestSink::new());
        bus.subscribe(sink.clone());
        let throttle = Arc::new(Throttle::with_trace(ParallelismDegree::new(8, 1), bus));

        let mut writers = vec![];
        for w in 0..4usize {
            let throttle = Arc::clone(&throttle);
            writers.push(thread::spawn(move || {
                let choices = [(8, 1), (1, 8), (4, 2), (2, 4)];
                for i in 0..500 {
                    let (t, c) = choices[(i + w) % choices.len()];
                    let _prev = throttle.reconfigure(ParallelismDegree::new(t, c));
                }
            }));
        }
        for w in writers {
            w.join().unwrap();
        }
        let events = sink.events();
        assert!(!events.is_empty(), "reconfigurations must be traced");
        for ev in &events {
            match ev {
                TraceEvent::Reconfigure { from, to, .. } => {
                    assert!(from.0 * from.1 <= N, "torn 'from' pair {from:?}");
                    assert!(to.0 * to.1 <= N, "torn 'to' pair {to:?}");
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn throttle_close_rejects_admission() {
        let t = Throttle::new(ParallelismDegree::new(2, 1));
        t.close();
        assert!(t.is_closed());
        assert!(t.admit_top_level().is_none());
        t.reopen();
        assert!(t.admit_top_level().is_some());
    }

    #[test]
    fn try_reconfigure_honors_fault_plan() {
        use crate::fault::{FaultPlan, FaultRule};

        let plan = Arc::new(
            FaultPlan::new(11)
                .with_rule(FaultKind::ReconfigFail, FaultRule::with_probability(1.0).budget(2)),
        );
        let t = Throttle::with_instruments(
            ParallelismDegree::new(4, 1),
            TraceBus::new(),
            FaultCtx::new(Some(plan), TraceBus::new()),
        );
        assert_eq!(t.try_reconfigure(ParallelismDegree::new(2, 2)), Err(ReconfigError));
        assert_eq!(t.current(), ParallelismDegree::new(4, 1), "failed apply changes nothing");
        assert_eq!(t.try_reconfigure(ParallelismDegree::new(2, 2)), Err(ReconfigError));
        // Budget spent: the third attempt goes through.
        assert_eq!(
            t.try_reconfigure(ParallelismDegree::new(2, 2)),
            Ok(ParallelismDegree::new(4, 1))
        );
        assert_eq!(t.current(), ParallelismDegree::new(2, 2));
    }

    #[test]
    fn reconfigure_returns_previous_and_skips_noop_trace() {
        use crate::trace::{TestSink, TraceBus};

        let bus = TraceBus::new();
        let sink = Arc::new(TestSink::new());
        bus.subscribe(sink.clone());
        let t = Throttle::with_trace(ParallelismDegree::new(4, 2), bus);
        let prev = t.reconfigure(ParallelismDegree::new(4, 2));
        assert_eq!(prev, ParallelismDegree::new(4, 2));
        assert!(sink.is_empty(), "no-op reconfiguration emits nothing");
        let prev = t.reconfigure(ParallelismDegree::new(2, 3));
        assert_eq!(prev, ParallelismDegree::new(4, 2));
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn packed_gate_basic_acquire_release() {
        let g = PackedGate::new(2);
        assert!(g.try_acquire());
        assert!(g.try_acquire());
        assert!(!g.try_acquire());
        assert_eq!(g.in_use(), 2);
        g.release();
        assert!(g.try_acquire());
        assert_eq!(g.capacity(), 2);
    }

    #[test]
    fn packed_gate_grow_unblocks_waiter() {
        let g = Arc::new(PackedGate::new(1));
        assert!(g.acquire());
        let g2 = Arc::clone(&g);
        let woke = Arc::new(AtomicUsize::new(0));
        let woke2 = Arc::clone(&woke);
        let h = thread::spawn(move || {
            assert!(g2.acquire());
            woke2.store(1, Ordering::SeqCst);
            g2.release();
        });
        thread::sleep(Duration::from_millis(30));
        assert_eq!(woke.load(Ordering::SeqCst), 0, "waiter must be blocked");
        g.set_capacity(2);
        h.join().unwrap();
        assert_eq!(woke.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn packed_gate_shrink_absorbs_releases() {
        let g = PackedGate::new(3);
        assert!(g.acquire());
        assert!(g.acquire());
        assert!(g.acquire());
        g.set_capacity(1); // available = -2
        g.release(); // -1
        g.release(); // 0
        assert!(!g.try_acquire(), "still over the shrunk capacity");
        g.release(); // 1
        assert!(g.try_acquire());
    }

    #[test]
    fn packed_gate_close_wakes_parked_acquirer_and_reopen_restores() {
        let g = Arc::new(PackedGate::new(1));
        assert!(g.acquire()); // exhaust the only permit
        let g2 = Arc::clone(&g);
        let h = thread::spawn(move || g2.acquire());
        thread::sleep(Duration::from_millis(30)); // let it park
        g.close();
        assert!(!h.join().unwrap(), "parked acquirer must wake empty-handed");
        assert!(!g.try_acquire(), "closed gate grants nothing");
        g.release();
        g.reopen();
        assert!(!g.is_closed());
        assert!(g.acquire(), "reopened gate grants again");
    }

    /// The wake rule, nobody parked: a release takes no lock, so it returns
    /// while another thread holds the park gate's mutex.
    #[test]
    fn a_release_with_nobody_parked_wakes_nobody() {
        let g = Arc::new(PackedGate::new(1));
        assert!(g.try_acquire());
        let held = g.gate.hold();
        let (tx, rx) = std::sync::mpsc::channel();
        let releaser = thread::spawn({
            let g = Arc::clone(&g);
            move || {
                g.release();
                tx.send(()).unwrap();
            }
        });
        assert!(rx.recv_timeout(Duration::from_secs(10)).is_ok(), "the release took the lock");
        drop(held);
        releaser.join().unwrap();
        assert_eq!(g.in_use(), 0);
    }

    /// The wake rule's handshake: an acquirer that re-checked the word and
    /// parked is ended by the very next release, not by the backstop.
    #[test]
    fn a_parked_acquire_is_ended_by_the_next_release() {
        let g = Arc::new(PackedGate::new(1));
        assert!(g.try_acquire());
        let checked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let acquirer = thread::spawn({
            let (g, checked) = (Arc::clone(&g), Arc::clone(&checked));
            move || {
                let ready = || {
                    let ready = g.grantable_or_closed();
                    checked.store(true, Ordering::SeqCst);
                    ready
                };
                g.gate.park_unless(ready, Duration::from_secs(10))
            }
        });
        while !checked.load(Ordering::SeqCst) {
            thread::yield_now();
        }
        g.release();
        assert_eq!(acquirer.join().unwrap(), ParkOutcome::Woken);
        assert!(g.try_acquire(), "the released permit is there for the woken acquirer");
    }

    #[test]
    fn packed_gate_try_acquire_many_grants_in_one_cas() {
        let g = PackedGate::new(4);
        assert_eq!(g.try_acquire_many(3), 3);
        assert_eq!(g.in_use(), 3);
        // Only one permit left: a batch request is truncated, not blocked.
        assert_eq!(g.try_acquire_many(5), 1);
        assert_eq!(g.try_acquire_many(2), 0, "exhausted gate grants nothing");
        g.release();
        g.release();
        assert_eq!(g.try_acquire_many(0), 0);
        assert_eq!(g.try_acquire_many(2), 2);
        // Closed gate refuses batches entirely.
        for _ in 0..4 {
            g.release();
        }
        g.close();
        assert_eq!(g.try_acquire_many(4), 0);
        g.reopen();
        assert_eq!(g.try_acquire_many(4), 4);
    }

    #[test]
    fn throttle_admit_batch_amortizes_and_respects_capacity() {
        let t = Throttle::new(ParallelismDegree::new(3, 1));
        let batch = t.admit_batch(8);
        assert_eq!(batch.len(), 3, "batch is truncated to the available capacity");
        assert_eq!(t.top_level_in_use(), 3);
        drop(batch);
        assert_eq!(t.top_level_in_use(), 0);

        let one = t.admit_batch(1);
        assert_eq!(one.len(), 1);
        drop(one);

        t.close();
        assert!(t.admit_batch(4).is_empty(), "closed admission yields no permits");
        t.reopen();
        assert_eq!(t.admit_batch(2).len(), 2);
    }

    #[test]
    fn packed_gate_records_parks() {
        let stats = Arc::new(Stats::new());
        let g = Arc::new(PackedGate::with_stats(1, Arc::clone(&stats)));
        assert!(g.acquire());
        let g2 = Arc::clone(&g);
        let h = thread::spawn(move || assert!(g2.acquire()));
        thread::sleep(Duration::from_millis(30)); // let it park at least once
        g.release();
        h.join().unwrap();
        assert!(stats.snapshot().park_count >= 1);
    }
}
