//! Global version clock and the active-snapshot registry used for garbage
//! collection of old box versions.

use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonically increasing global version clock.
///
/// Version `0` is reserved for the initial value of every box, so every
/// snapshot (including one taken before any commit) can read every box.
///
/// The clock is split into two counters so the striped commit path can
/// overlap installation across committers while keeping the multi-version
/// publication invariant — *once `now()` returns `V`, the writes of every
/// commit `<= V` are installed*:
///
/// - `reserve` hands out commit versions ([`GlobalClock::reserve`]); the
///   reservation order is the serialization order of top-level commits.
/// - `visible` trails `reserve` and only advances contiguously
///   ([`GlobalClock::publish`]): version `V` becomes visible after `V`'s
///   writes are installed **and** `V-1` is visible. A committer that aborts
///   after reserving publishes its version as a no-op to keep the sequence
///   gap-free.
#[derive(Debug, Default)]
pub struct GlobalClock {
    reserve: AtomicU64,
    visible: AtomicU64,
}

impl GlobalClock {
    /// Create a clock at version 0.
    pub fn new() -> Self {
        Self { reserve: AtomicU64::new(0), visible: AtomicU64::new(0) }
    }

    /// Current global version; new transactions snapshot at this version.
    #[inline]
    pub fn now(&self) -> u64 {
        self.visible.load(Ordering::Acquire)
    }

    /// Advance the clock by one and return the new version.
    ///
    /// Legacy single-committer advance used by the global-lock commit path:
    /// only called while holding the commit lock, so bumping both counters
    /// is not racy with other committers; `AcqRel` publishes the new version
    /// to transaction-begin loads.
    #[inline]
    pub fn tick(&self) -> u64 {
        let v = self.reserve.fetch_add(1, Ordering::AcqRel) + 1;
        self.visible.store(v, Ordering::Release);
        v
    }

    /// Reserve the next commit version (striped path). The `AcqRel`
    /// read-modify-write chains all reservations into a single modification
    /// order: a committer reserving `V` observes every write that committers
    /// of versions `< V` performed before their own reservations.
    #[inline]
    pub fn reserve(&self) -> u64 {
        self.reserve.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Make reserved version `v` visible. Blocks (spinning) until `v - 1` is
    /// visible so the visible clock only ever advances contiguously. Safe
    /// against deadlock because the striped path acquires all stripe locks
    /// *before* reserving: an earlier reserver can never be waiting on a
    /// later reserver's locks.
    #[inline]
    pub fn publish(&self, v: u64) {
        while self.visible.load(Ordering::Acquire) != v - 1 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
        self.visible.store(v, Ordering::Release);
    }
}

/// Lease-disabled sentinel for [`SnapshotRegistry::set_lease`] (nanoseconds).
const NO_LEASE: u64 = u64::MAX;

/// Deadline of an unleased registration: it never expires.
const NO_DEADLINE: u64 = u64::MAX;

/// Registration slots per registry. Registrations beyond this many live at
/// once go to the overflow map.
const SLOT_COUNT: usize = 64;

/// Version word of an unclaimed slot.
const SLOT_FREE: u64 = u64::MAX;

/// Version word of a slot claimed but not yet published. Like [`SLOT_FREE`]
/// it is above every real version, so a watermark computation passes over
/// it; the registration invariant (see
/// [`SnapshotRegistry::register_current`]) is what makes that safe.
const SLOT_CLAIMED: u64 = u64::MAX - 1;

/// Round-robin seed of each thread's first [`SLOT_HINT`].
static NEXT_HINT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// The slot this thread tries first: its last claim, seeded so that
    /// threads start on distinct slots.
    static SLOT_HINT: Cell<usize> = Cell::new(NEXT_HINT.fetch_add(1, Ordering::Relaxed));
}

/// One registration slot, alone on its cache lines so that registrants on
/// different threads never write a shared line.
#[derive(Debug)]
#[repr(align(128))]
struct Slot {
    /// The registered snapshot version, or [`SLOT_FREE`] / [`SLOT_CLAIMED`].
    version: AtomicU64,
    /// Lease deadline in ns since the registry's epoch; [`NO_DEADLINE`] for
    /// unleased registrations.
    deadline: AtomicU64,
    /// Set by the watermark computation once the lease expired. Only the
    /// next claim of the slot resets it.
    evicted: AtomicBool,
}

impl Slot {
    fn free() -> Self {
        Self {
            version: AtomicU64::new(SLOT_FREE),
            deadline: AtomicU64::new(NO_DEADLINE),
            evicted: AtomicBool::new(false),
        }
    }

    /// The version of this slot's registration if it is below `watermark`,
    /// not marked evicted, and its lease is unexpired at `wall` (`pinning`)
    /// or expired (`!pinning`).
    fn below(&self, watermark: u64, wall: u64, pinning: bool) -> Option<u64> {
        let v = self.version.load(Ordering::Acquire);
        let hit = v < watermark
            && !self.evicted.load(Ordering::Relaxed)
            && (self.deadline.load(Ordering::Relaxed) > wall) == pinning;
        hit.then_some(v)
    }
}

/// A registration that found every slot taken: one entry of the overflow map.
#[derive(Debug)]
struct OverflowEntry {
    /// Lease deadline in ns since the registry's epoch ([`NO_DEADLINE`] if
    /// unleased).
    deadline: u64,
    /// Eviction flag shared with the owning [`SnapshotGuard`].
    evicted: Arc<AtomicBool>,
}

impl OverflowEntry {
    fn expired(&self, wall: u64) -> bool {
        !self.evicted.load(Ordering::Relaxed) && self.deadline <= wall
    }

    fn pins(&self, wall: u64) -> bool {
        !self.evicted.load(Ordering::Relaxed) && self.deadline > wall
    }
}

/// Where a registration's eviction flag lives, for transaction state that
/// polls it without holding the guard: a slot index, or the overflow entry's
/// own flag. Read through [`SnapshotRegistry::is_evicted`].
#[derive(Debug, Clone)]
pub(crate) enum EvictionFlag {
    Slot(usize),
    Overflow(Arc<AtomicBool>),
}

/// Registry of snapshot versions currently in use by live transactions.
///
/// Multi-version STMs must retain any box version that a live snapshot may
/// still read. The registry is a multiset of active snapshot versions; its
/// minimum is the GC watermark: every box can drop versions strictly older
/// than the newest version `<=` watermark.
///
/// **Slots.** A registration claims one of `SLOT_COUNT` cache-padded slots
/// (version word, lease deadline, eviction flag) by one CAS, starting at a
/// per-thread hint, and releases it with one store: registering touches no
/// line another thread's registration writes, allocates nothing and takes
/// no lock. When every slot is taken, registrations fall back to an
/// overflow `Mutex<BTreeMap>`; the watermark is the minimum over both.
///
/// **Leases.** Each registration taken through
/// [`SnapshotRegistry::register_current`] carries a lease deadline (from
/// [`SnapshotRegistry::set_lease`]; disabled by default). A lease-expired
/// snapshot no longer pins the watermark: the next watermark computation
/// marks it *evicted* and skips it, so one stalled reader cannot hold the
/// version heap hostage. The owning transaction observes the eviction through
/// [`SnapshotGuard::is_evicted`] and must abort (`StmError::SnapshotEvicted`)
/// rather than trust any further reads.
#[derive(Debug)]
pub struct SnapshotRegistry {
    slots: Box<[Slot]>,
    overflow: Mutex<BTreeMap<u64, Vec<OverflowEntry>>>,
    /// Origin of the registry's deadline clock.
    epoch: Instant,
    /// Current lease duration in nanoseconds for new leased registrations;
    /// [`NO_LEASE`] disables leasing. Runtime-adjustable: the memory ladder
    /// shortens it under pressure.
    lease_ns: AtomicU64,
    /// Total snapshots ever evicted (monotonic; mirrored into stats by the
    /// GC driver via the watermark return value).
    evictions: AtomicU64,
}

impl Default for SnapshotRegistry {
    fn default() -> Self {
        Self {
            slots: (0..SLOT_COUNT).map(|_| Slot::free()).collect(),
            overflow: Mutex::new(BTreeMap::new()),
            epoch: Instant::now(),
            lease_ns: AtomicU64::new(NO_LEASE),
            evictions: AtomicU64::new(0),
        }
    }
}

impl SnapshotRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Nanoseconds since the registry's epoch: the deadline clock.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(NO_DEADLINE - 1)
    }

    /// Set the lease duration applied to *subsequent* leased registrations;
    /// `None` disables leasing. Existing registrations keep their deadlines
    /// (see [`SnapshotRegistry::clamp_deadlines`] for the urgent path).
    pub fn set_lease(&self, lease: Option<Duration>) {
        let ns = lease.map(|d| u64::try_from(d.as_nanos()).unwrap_or(NO_LEASE)).unwrap_or(NO_LEASE);
        self.lease_ns.store(ns, Ordering::Relaxed);
    }

    /// The lease currently applied to new leased registrations.
    pub fn lease(&self) -> Option<Duration> {
        match self.lease_ns.load(Ordering::Relaxed) {
            NO_LEASE => None,
            ns => Some(Duration::from_nanos(ns)),
        }
    }

    /// Clamp every *leased* registration's deadline to at most
    /// `max_remaining` from now, in the slots and the overflow map alike.
    /// The urgent rung of the memory ladder uses this so already-running
    /// stragglers feel a shortened lease too; unleased registrations are
    /// left alone.
    pub fn clamp_deadlines(&self, max_remaining: Duration) {
        let remaining = u64::try_from(max_remaining.as_nanos()).unwrap_or(NO_DEADLINE);
        let cap = self.now_ns().saturating_add(remaining);
        let clamp = |d: u64| (d != NO_DEADLINE && d > cap).then_some(cap);
        for slot in self.slots.iter() {
            // A CAS loop, not `fetch_min`: a slot re-claimed by an unleased
            // registration between a load and the store must stay unleased.
            let _ = slot.deadline.fetch_update(Ordering::Relaxed, Ordering::Relaxed, clamp);
        }
        let mut map = self.overflow.lock();
        for e in map.values_mut().flat_map(|entries| entries.iter_mut()) {
            if let Some(d) = clamp(e.deadline) {
                e.deadline = d;
            }
        }
    }

    fn current_deadline(&self) -> u64 {
        match self.lease_ns.load(Ordering::Relaxed) {
            NO_LEASE => NO_DEADLINE,
            ns => self.now_ns().saturating_add(ns).min(NO_DEADLINE - 1),
        }
    }

    /// Register a transaction reading at `version`; returns a guard that
    /// deregisters on drop. Raw registrations are unleased (they never
    /// expire) — runtime snapshots go through
    /// [`SnapshotRegistry::register_current`], which leases.
    pub fn register(&self, version: u64) -> SnapshotGuard<'_> {
        debug_assert!(version < SLOT_CLAIMED, "version {version} collides with a slot sentinel");
        self.register_at(NO_DEADLINE, || version)
    }

    /// Register a transaction at `clock`'s *current* version, with the
    /// registry's current lease applied.
    ///
    /// This closes a race that [`SnapshotRegistry::register`] leaves open
    /// when the caller reads the clock itself: between the clock read and the
    /// registration, a GC can compute its watermark — not seeing the
    /// about-to-register snapshot — and prune the very versions that snapshot
    /// needs. Here the slot's version is published, a `SeqCst` fence runs and
    /// the clock is read again; on a mismatch the newer value is published
    /// and the check repeats. [`SnapshotRegistry::gc_watermark`] reads the
    /// clock, runs a `SeqCst` fence, then reads the slots. Of two such
    /// fences one comes first in the single `SeqCst` order: if the
    /// registrant's comes first the watermark computation sees the published
    /// slot; otherwise the registrant's re-read returns a clock at least as
    /// new as the one the watermark was computed from. Hence the invariant:
    /// *a watermark computed without seeing a slot used a clock no newer than
    /// that slot's version.* An overflow registration reads the clock under
    /// the overflow lock, which the watermark computation takes after its own
    /// clock read, to the same effect.
    pub fn register_current(&self, clock: &GlobalClock) -> SnapshotGuard<'_> {
        self.register_at(self.current_deadline(), || clock.now())
    }

    /// Claim a slot (or an overflow entry) with `deadline` and publish the
    /// version `version_now` returns, republishing until it returns the
    /// published value again after a `SeqCst` fence.
    fn register_at(&self, deadline: u64, version_now: impl Fn() -> u64) -> SnapshotGuard<'_> {
        let Some(i) = self.claim_slot() else {
            let evicted = Arc::new(AtomicBool::new(false));
            let mut map = self.overflow.lock();
            let version = version_now();
            map.entry(version)
                .or_default()
                .push(OverflowEntry { deadline, evicted: Arc::clone(&evicted) });
            drop(map);
            return SnapshotGuard {
                registry: self,
                version,
                flag: EvictionFlag::Overflow(evicted),
            };
        };
        let slot = &self.slots[i];
        slot.deadline.store(deadline, Ordering::Relaxed);
        slot.evicted.store(false, Ordering::Relaxed);
        let mut version = version_now();
        loop {
            // Release: a watermark computation that reads this version also
            // sees the deadline and the cleared flag.
            slot.version.store(version, Ordering::Release);
            fence(Ordering::SeqCst);
            let again = version_now();
            if again == version {
                return SnapshotGuard { registry: self, version, flag: EvictionFlag::Slot(i) };
            }
            version = again;
        }
    }

    /// Claim a free slot by CAS, starting at this thread's hint.
    fn claim_slot(&self) -> Option<usize> {
        SLOT_HINT.with(|hint| {
            let start = hint.get();
            for k in 0..SLOT_COUNT {
                let i = (start + k) % SLOT_COUNT;
                let version = &self.slots[i].version;
                // Acquire pairs with the previous owner's releasing store:
                // every read of the old registration's flag is done before
                // this claim resets it.
                if version.load(Ordering::Relaxed) == SLOT_FREE
                    && version
                        .compare_exchange(
                            SLOT_FREE,
                            SLOT_CLAIMED,
                            Ordering::Acquire,
                            Ordering::Relaxed,
                        )
                        .is_ok()
                {
                    hint.set(i);
                    return Some(i);
                }
            }
            None
        })
    }

    /// The GC watermark: the oldest version any live *or future* snapshot can
    /// read — `min(oldest unexpired registered, clock now)`, with the clock
    /// read before a `SeqCst` fence that precedes the slot reads (see
    /// [`SnapshotRegistry::register_current`]). Every box may drop versions
    /// strictly older than the newest entry `<=` this. Registrations whose
    /// lease has expired are marked evicted here and stop pinning.
    pub fn gc_watermark(&self, clock: &GlobalClock) -> u64 {
        self.gc_watermark_evicting(clock).0
    }

    /// [`SnapshotRegistry::gc_watermark`], also returning how many snapshots
    /// were newly marked evicted by this computation (for stats/tracing).
    ///
    /// Two passes: the minimum over unexpired registrations, then the
    /// eviction marks for expired ones below it. A slot released and
    /// re-claimed between the passes can at worst have its *new*
    /// registration marked (one spurious abort and retry): that registration
    /// published after this computation's fence, so by the registration
    /// invariant its version is at or above the returned watermark and
    /// nothing it reads is pruned by this pass.
    pub fn gc_watermark_evicting(&self, clock: &GlobalClock) -> (u64, usize) {
        let wall = self.now_ns();
        let mut watermark = clock.now();
        fence(Ordering::SeqCst);
        for slot in self.slots.iter() {
            if let Some(v) = slot.below(watermark, wall, true) {
                watermark = v;
            }
        }
        let mut newly_evicted = 0usize;
        {
            let map = self.overflow.lock();
            if let Some((&v, _)) =
                map.range(..watermark).find(|(_, entries)| entries.iter().any(|e| e.pins(wall)))
            {
                watermark = v;
            }
            for e in map.range(..watermark).flat_map(|(_, entries)| entries) {
                if e.expired(wall) {
                    e.evicted.store(true, Ordering::Release);
                    newly_evicted += 1;
                }
            }
        }
        for slot in self.slots.iter() {
            if slot.below(watermark, wall, false).is_some() {
                slot.evicted.store(true, Ordering::Release);
                newly_evicted += 1;
            }
        }
        if newly_evicted > 0 {
            self.evictions.fetch_add(newly_evicted as u64, Ordering::Relaxed);
        }
        (watermark, newly_evicted)
    }

    /// Total snapshots evicted over the registry's lifetime.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Oldest snapshot version still registered (evicted-but-undropped
    /// registrations included), if any transaction is live.
    pub fn min_active(&self) -> Option<u64> {
        let slots = self
            .slots
            .iter()
            .map(|s| s.version.load(Ordering::Acquire))
            .filter(|&v| v < SLOT_CLAIMED)
            .min();
        let overflow = self.overflow.lock().keys().next().copied();
        slots.into_iter().chain(overflow).min()
    }

    /// Number of live registered snapshots (including evicted ones whose
    /// owners have not yet noticed and dropped their guards).
    pub fn live_count(&self) -> usize {
        let slots =
            self.slots.iter().filter(|s| s.version.load(Ordering::Acquire) != SLOT_FREE).count();
        slots + self.overflow.lock().values().map(Vec::len).sum::<usize>()
    }

    /// Whether the registration `flag` belongs to has been evicted. Only
    /// meaningful while its guard is alive.
    pub(crate) fn is_evicted(&self, flag: &EvictionFlag) -> bool {
        match flag {
            EvictionFlag::Slot(i) => self.slots[*i].evicted.load(Ordering::Acquire),
            EvictionFlag::Overflow(evicted) => evicted.load(Ordering::Acquire),
        }
    }

    fn deregister(&self, version: u64, flag: &EvictionFlag) {
        match flag {
            EvictionFlag::Slot(i) => self.slots[*i].version.store(SLOT_FREE, Ordering::Release),
            EvictionFlag::Overflow(evicted) => {
                let mut map = self.overflow.lock();
                let Some(entries) = map.get_mut(&version) else {
                    debug_assert!(false, "deregistering unknown snapshot {version}");
                    return;
                };
                match entries.iter().position(|e| Arc::ptr_eq(&e.evicted, evicted)) {
                    Some(i) => {
                        entries.swap_remove(i);
                    }
                    None => debug_assert!(false, "deregistering unknown snapshot {version}"),
                }
                if entries.is_empty() {
                    map.remove(&version);
                }
            }
        }
    }
}

/// RAII guard keeping a snapshot version alive in the [`SnapshotRegistry`].
#[derive(Debug)]
pub struct SnapshotGuard<'a> {
    registry: &'a SnapshotRegistry,
    version: u64,
    flag: EvictionFlag,
}

impl SnapshotGuard<'_> {
    /// The snapshot version this guard pins.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the lease expired and the GC stopped honouring this snapshot.
    /// Once true, versions this snapshot needs may be pruned at any moment;
    /// the owning transaction must abort with `StmError::SnapshotEvicted`.
    pub fn is_evicted(&self) -> bool {
        self.registry.is_evicted(&self.flag)
    }

    /// Handle to the eviction flag, for embedding in transaction state so
    /// the hot read path can poll it without holding the guard itself.
    pub(crate) fn eviction_flag(&self) -> EvictionFlag {
        self.flag.clone()
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        self.registry.deregister(self.version, &self.flag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_starts_at_zero_and_ticks() {
        let c = GlobalClock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn reserve_publish_is_contiguous_across_threads() {
        let c = Arc::new(GlobalClock::new());
        let mut handles = vec![];
        for _ in 0..4 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..250 {
                    let v = c.reserve();
                    c.publish(v);
                    assert!(c.now() >= v, "publish({v}) must make v visible");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.now(), 1000);
    }

    #[test]
    fn tick_interleaves_with_reserve_publish() {
        let c = GlobalClock::new();
        assert_eq!(c.tick(), 1);
        let v = c.reserve();
        assert_eq!(v, 2);
        assert_eq!(c.now(), 1, "reserved but unpublished version is invisible");
        c.publish(v);
        assert_eq!(c.now(), 2);
        assert_eq!(c.tick(), 3);
    }

    #[test]
    fn registry_tracks_min_active() {
        let r = Arc::new(SnapshotRegistry::new());
        assert_eq!(r.min_active(), None);
        let g5 = r.register(5);
        let g3 = r.register(3);
        let g3b = r.register(3);
        assert_eq!(r.min_active(), Some(3));
        assert_eq!(r.live_count(), 3);
        drop(g3);
        assert_eq!(r.min_active(), Some(3), "second refcount still pins 3");
        drop(g3b);
        assert_eq!(r.min_active(), Some(5));
        drop(g5);
        assert_eq!(r.min_active(), None);
        assert_eq!(r.live_count(), 0);
    }

    #[test]
    fn register_current_pins_the_clock_version_against_gc() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        c.tick();
        let g = r.register_current(&c);
        assert_eq!(g.version(), 2);
        assert_eq!(r.min_active(), Some(2));
        c.tick();
        // The watermark can never exceed a live registered snapshot...
        assert_eq!(r.gc_watermark(&c), 2);
        drop(g);
        // ...and with none live it is the clock itself.
        assert_eq!(r.gc_watermark(&c), 3);
    }

    #[test]
    fn registry_guard_reports_version() {
        let r = Arc::new(SnapshotRegistry::new());
        let g = r.register(42);
        assert_eq!(g.version(), 42);
    }

    #[test]
    fn expired_lease_stops_pinning_and_marks_eviction() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_millis(1)));
        assert_eq!(r.lease(), Some(Duration::from_millis(1)));
        let g = r.register_current(&c);
        assert_eq!(g.version(), 1);
        c.tick();
        assert_eq!(r.gc_watermark(&c), 1, "unexpired lease pins the watermark");
        std::thread::sleep(Duration::from_millis(10));
        let (wm, newly) = r.gc_watermark_evicting(&c);
        assert_eq!(wm, 2, "expired lease no longer pins");
        assert_eq!(newly, 1);
        assert!(g.is_evicted());
        assert_eq!(r.evictions(), 1);
        assert_eq!(r.gc_watermark_evicting(&c).1, 0, "eviction is marked once");
        // The registration itself lives until the guard drops.
        assert_eq!(r.live_count(), 1);
        drop(g);
        assert_eq!(r.live_count(), 0);
    }

    #[test]
    fn unleased_registrations_never_expire() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        let g = r.register(1);
        c.tick();
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(r.gc_watermark(&c), 1, "raw registrations pin forever");
        assert!(!g.is_evicted());
        drop(g);
        assert_eq!(r.gc_watermark(&c), 2);
    }

    #[test]
    fn clamp_deadlines_shortens_existing_leases() {
        let r = Arc::new(SnapshotRegistry::new());
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_secs(3600)));
        let g = r.register_current(&c);
        c.tick();
        assert_eq!(r.gc_watermark(&c), 1);
        r.clamp_deadlines(Duration::ZERO);
        assert_eq!(r.gc_watermark(&c), 2, "clamped lease expires immediately");
        assert!(g.is_evicted());
    }

    /// Deterministic permutation of `0..n` (a multiplicative step coprime
    /// to `n`), for dropping guards out of registration order.
    fn shuffled(n: usize) -> Vec<usize> {
        let step = (1..n).rev().find(|s| gcd(*s, n) == 1 && *s > n / 3).unwrap_or(1);
        (0..n).map(|i| (i * step + 7) % n).collect()
    }

    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }

    #[test]
    fn overflow_registrations_count_exactly_and_drain() {
        let r = SnapshotRegistry::new();
        let c = GlobalClock::new();
        for _ in 0..1000 {
            c.tick();
        }
        let n = SLOT_COUNT + 8;
        // Versions descend so the minimum sits in the overflow map.
        let mut guards: Vec<Option<SnapshotGuard<'_>>> =
            (0..n).map(|i| Some(r.register(500 - i as u64))).collect();
        assert_eq!(
            guards.iter().flatten().filter(|g| matches!(g.flag, EvictionFlag::Overflow(_))).count(),
            8,
            "registrations past the slot count overflow"
        );
        assert_eq!(r.live_count(), n);
        let lowest = 500 - (n as u64 - 1);
        assert_eq!(r.min_active(), Some(lowest));
        assert_eq!(r.gc_watermark(&c), lowest, "the overflow minimum pins the watermark");
        for (k, i) in shuffled(n).into_iter().enumerate() {
            let g = guards[i].take().expect("each guard dropped once");
            drop(g);
            assert_eq!(r.live_count(), n - k - 1);
            let expect = guards.iter().flatten().map(SnapshotGuard::version).min();
            assert_eq!(r.min_active(), expect);
            assert_eq!(r.gc_watermark(&c), expect.unwrap_or(1000));
        }
        assert_eq!(r.live_count(), 0);
        assert_eq!(r.min_active(), None);
        assert!(r.overflow.lock().is_empty());
    }

    /// The registration half of the invariant: a clock that moved between
    /// the read and the publication is published again, and the snapshot
    /// reads at the version its last post-fence re-read returned.
    #[test]
    fn registration_republishes_until_the_clock_reread_agrees() {
        let r = SnapshotRegistry::new();
        let reads = [3u64, 5, 7, 7];
        let k = Cell::new(0);
        let g = r.register_at(NO_DEADLINE, || {
            k.set(k.get() + 1);
            reads[k.get() - 1]
        });
        assert_eq!(k.get(), 4, "published 3, 5 and 7; the re-read after 7 agreed");
        assert_eq!(g.version(), 7);
        assert_eq!(r.min_active(), Some(7));
    }

    #[test]
    fn a_reclaimed_slot_is_not_evicted_and_carries_its_new_deadline() {
        let r = SnapshotRegistry::new();
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_millis(1)));
        let g = r.register_current(&c);
        let EvictionFlag::Slot(slot) = g.eviction_flag() else { panic!("a free slot exists") };
        std::thread::sleep(Duration::from_millis(5));
        c.tick();
        assert_eq!(r.gc_watermark_evicting(&c), (2, 1));
        assert!(g.is_evicted());
        drop(g);
        // Same thread, same hint: the next claim takes the same slot.
        r.set_lease(Some(Duration::from_secs(3600)));
        let g = r.register_current(&c);
        assert!(matches!(g.eviction_flag(), EvictionFlag::Slot(s) if s == slot));
        assert!(!g.is_evicted(), "the claim resets the flag");
        let deadline = r.slots[slot].deadline.load(Ordering::Relaxed);
        assert!(deadline > r.now_ns() + 3_000_000_000_000, "the new lease's deadline");
        c.tick();
        assert_eq!(r.gc_watermark_evicting(&c), (2, 0), "the new registration pins");
        assert!(!g.is_evicted());
    }

    #[test]
    fn clamp_deadlines_reaches_slots_and_overflow_alike() {
        let r = SnapshotRegistry::new();
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_secs(3600)));
        let leased: Vec<SnapshotGuard<'_>> =
            (0..SLOT_COUNT + 4).map(|_| r.register_current(&c)).collect();
        assert!(leased.iter().any(|g| matches!(g.flag, EvictionFlag::Overflow(_))));
        let unleased = r.register(2); // overflow, never expires
        assert!(matches!(unleased.flag, EvictionFlag::Overflow(_)));
        c.tick();
        c.tick();
        assert_eq!(r.gc_watermark(&c), 1);
        r.clamp_deadlines(Duration::ZERO);
        assert_eq!(
            r.gc_watermark_evicting(&c),
            (2, SLOT_COUNT + 4),
            "every leased registration expired; the unleased one still pins"
        );
        assert!(leased.iter().all(SnapshotGuard::is_evicted));
        assert!(!unleased.is_evicted());
        drop(unleased);
        assert_eq!(r.gc_watermark(&c), 3);
    }

    #[test]
    fn concurrent_register_deregister() {
        let r = Arc::new(SnapshotRegistry::new());
        let mut handles = vec![];
        for i in 0..8u64 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                for j in 0..100 {
                    let g = r.register(i * 100 + j);
                    assert!(r.live_count() >= 1);
                    drop(g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.live_count(), 0);
        assert_eq!(r.min_active(), None);
    }
}
