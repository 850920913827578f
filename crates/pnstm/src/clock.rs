//! Global version clock and the active-snapshot registry used for garbage
//! collection of old box versions.

use std::cell::Cell;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
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

/// Registration slots per segment. The registry's first segment is inline;
/// a registration that finds every slot taken appends another.
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
    /// The slot index this thread tries first in each segment: its last
    /// claim, seeded so that threads start on distinct slots.
    static SLOT_HINT: Cell<usize> = Cell::new(NEXT_HINT.fetch_add(1, Ordering::Relaxed));
}

/// One registration slot, alone on its cache lines so that registrants on
/// different threads never write a shared line. A registration's handle is
/// a reference to its slot.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Slot {
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

    /// Claim the slot if it is free. Acquire pairs with the previous owner's
    /// releasing store: every read of the old registration's flag is done
    /// before this claim resets it.
    fn try_claim(&self) -> bool {
        self.version.load(Ordering::Relaxed) == SLOT_FREE
            && self
                .version
                .compare_exchange(SLOT_FREE, SLOT_CLAIMED, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
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

    /// Whether the registration holding this slot has been evicted. Only
    /// meaningful while its guard is alive.
    pub(crate) fn is_evicted(&self) -> bool {
        self.evicted.load(Ordering::Acquire)
    }
}

/// [`SLOT_COUNT`] slots and the link to the next segment. A segment is
/// appended by the first registration that found every slot before it taken,
/// and lives until the registry drops.
#[derive(Debug)]
struct Segment {
    slots: [Slot; SLOT_COUNT],
    next: OnceLock<Box<Segment>>,
}

impl Default for Segment {
    fn default() -> Self {
        Self { slots: std::array::from_fn(|_| Slot::free()), next: OnceLock::new() }
    }
}

/// Registry of snapshot versions currently in use by live transactions.
///
/// Multi-version STMs must retain any box version that a live snapshot may
/// still read. The registry is a multiset of active snapshot versions; its
/// minimum is the GC watermark: every box can drop versions strictly older
/// than the newest version `<=` watermark.
///
/// **Slots.** A registration claims a cache-padded slot (version word, lease
/// deadline, eviction flag) by one CAS, starting at a per-thread hint, and
/// releases it with one store: registering touches no line another thread's
/// registration writes and takes no lock. The first segment of 64 slots is
/// inline, so a registration there allocates nothing; a registration that
/// finds every slot taken appends a segment and claims there. Every
/// registration follows the same protocol, and the watermark walks every
/// segment.
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
    first: Segment,
    /// Origin of the registry's deadline clock.
    epoch: Instant,
    /// Current lease duration in nanoseconds for new leased registrations;
    /// [`NO_LEASE`] disables leasing. Runtime-adjustable: the memory ladder
    /// shortens it under pressure.
    lease_ns: AtomicU64,
}

impl Default for SnapshotRegistry {
    fn default() -> Self {
        Self {
            first: Segment::default(),
            epoch: Instant::now(),
            lease_ns: AtomicU64::new(NO_LEASE),
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

    /// Every segment, following the `next` links as they read now.
    fn segments(&self) -> impl Iterator<Item = &Segment> {
        std::iter::successors(Some(&self.first), |s| s.next.get().map(Box::as_ref))
    }

    fn slots(&self) -> impl Iterator<Item = &Slot> {
        self.segments().flat_map(|s| s.slots.iter())
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

    /// Clamp every *leased* registration's deadline, in every segment, to at
    /// most `max_remaining` from now. The urgent rung of the memory ladder
    /// uses this so already-running stragglers feel a shortened lease too;
    /// unleased registrations are left alone.
    pub fn clamp_deadlines(&self, max_remaining: Duration) {
        let remaining = u64::try_from(max_remaining.as_nanos()).unwrap_or(NO_DEADLINE);
        let cap = self.now_ns().saturating_add(remaining);
        let clamp = |d: u64| (d != NO_DEADLINE && d > cap).then_some(cap);
        for slot in self.slots() {
            // A CAS loop, not `fetch_min`: a slot re-claimed by an unleased
            // registration between a load and the store must stay unleased.
            let _ = slot.deadline.fetch_update(Ordering::Relaxed, Ordering::Relaxed, clamp);
        }
    }

    fn current_deadline(&self) -> u64 {
        match self.lease_ns.load(Ordering::Relaxed) {
            NO_LEASE => NO_DEADLINE,
            ns => self.now_ns().saturating_add(ns).min(NO_DEADLINE - 1),
        }
    }

    /// Register a transaction at `clock`'s *current* version, with the
    /// registry's current lease applied; returns a guard that deregisters on
    /// drop.
    ///
    /// A caller that read the clock itself and then registered would leave
    /// a window: between the clock read and the registration, a GC can
    /// compute its watermark — not seeing the about-to-register snapshot —
    /// and prune the very versions that snapshot needs. Here the slot's
    /// version is published, a `SeqCst` fence runs and the clock is read
    /// again; on a mismatch the newer value is published and the check
    /// repeats. [`SnapshotRegistry::gc_watermark_evicting`] reads the clock,
    /// runs a `SeqCst` fence, then walks the segments. Of two such fences
    /// one comes first in the single `SeqCst` order: if the registrant's
    /// comes first the watermark computation sees the published slot (and
    /// the `next` link to its segment, which the registrant followed or
    /// stored before its fence); otherwise the registrant's re-read returns a
    /// clock at least as new as the one the watermark was computed from.
    /// Hence the invariant, for every registration: *a watermark computed
    /// without seeing a slot used a clock no newer than that slot's
    /// version.*
    pub fn register_current(&self, clock: &GlobalClock) -> SnapshotGuard<'_> {
        self.register_at(self.current_deadline(), || clock.now())
    }

    /// Claim a slot with `deadline` and publish the version `version_now`
    /// returns, republishing until it returns the published value again
    /// after a `SeqCst` fence.
    fn register_at(&self, deadline: u64, version_now: impl Fn() -> u64) -> SnapshotGuard<'_> {
        let slot = self.claim_slot();
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
                return SnapshotGuard { slot, version };
            }
            version = again;
        }
    }

    /// Claim a free slot by CAS, scanning each segment from this thread's
    /// hint; past the last segment, append one.
    fn claim_slot(&self) -> &Slot {
        SLOT_HINT.with(|hint| {
            let start = hint.get();
            let mut segment = &self.first;
            loop {
                for k in 0..SLOT_COUNT {
                    let i = (start + k) % SLOT_COUNT;
                    if segment.slots[i].try_claim() {
                        hint.set(i);
                        return &segment.slots[i];
                    }
                }
                segment = segment.next.get_or_init(Box::default);
            }
        })
    }

    /// The GC watermark: the oldest version any live *or future* snapshot can
    /// read — `min(oldest unexpired registered, clock now)`, with the clock
    /// read before a `SeqCst` fence that precedes the walk over the segments
    /// (see [`SnapshotRegistry::register_current`]). Every box may drop
    /// versions strictly older than the newest entry `<=` this. Registrations
    /// whose lease has expired are marked evicted here and stop pinning; the
    /// second value is how many were newly marked (for stats/tracing).
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
        let now = clock.now();
        fence(Ordering::SeqCst);
        let watermark =
            self.slots().filter_map(|slot| slot.below(now, wall, true)).fold(now, u64::min);
        let mut newly_evicted = 0usize;
        for slot in self.slots() {
            if slot.below(watermark, wall, false).is_some() {
                slot.evicted.store(true, Ordering::Release);
                newly_evicted += 1;
            }
        }
        (watermark, newly_evicted)
    }
}

/// RAII guard keeping a snapshot version alive in the [`SnapshotRegistry`].
#[derive(Debug)]
pub struct SnapshotGuard<'a> {
    slot: &'a Slot,
    version: u64,
}

impl<'a> SnapshotGuard<'a> {
    /// The snapshot version this guard pins.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Whether the lease expired and the GC stopped honouring this snapshot.
    /// Once true, versions this snapshot needs may be pruned at any moment;
    /// the owning transaction must abort with `StmError::SnapshotEvicted`.
    pub fn is_evicted(&self) -> bool {
        self.slot.is_evicted()
    }

    /// The registration's slot, for embedding in transaction state so the
    /// hot read path can poll the eviction flag without holding the guard.
    pub(crate) fn slot(&self) -> &'a Slot {
        self.slot
    }
}

impl Drop for SnapshotGuard<'_> {
    fn drop(&mut self) {
        self.slot.version.store(SLOT_FREE, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl SnapshotRegistry {
        /// Register a transaction reading at `version`, unleased (it never
        /// expires).
        fn register(&self, version: u64) -> SnapshotGuard<'_> {
            debug_assert!(version < SLOT_CLAIMED, "version {version} collides with a sentinel");
            self.register_at(NO_DEADLINE, || version)
        }

        fn gc_watermark(&self, clock: &GlobalClock) -> u64 {
            self.gc_watermark_evicting(clock).0
        }

        /// Oldest snapshot version still registered (evicted-but-undropped
        /// registrations included).
        fn min_active(&self) -> Option<u64> {
            self.slots()
                .map(|s| s.version.load(Ordering::Acquire))
                .filter(|&v| v < SLOT_CLAIMED)
                .min()
        }

        /// Live registrations, evicted ones whose guards are alive included.
        fn live_count(&self) -> usize {
            self.slots().filter(|s| s.version.load(Ordering::Acquire) != SLOT_FREE).count()
        }

        /// Index of the segment holding `guard`'s slot.
        fn segment_of(&self, guard: &SnapshotGuard<'_>) -> usize {
            self.segments()
                .position(|s| s.slots.as_ptr_range().contains(&(guard.slot as *const Slot)))
                .expect("every slot belongs to a segment")
        }
    }

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

    /// Registrations past the first segment's slots land in appended
    /// segments; counts stay exact and a shuffled drain frees every slot.
    #[test]
    fn segment_registrations_count_exactly_and_drain() {
        for n in [SLOT_COUNT + 8, 200] {
            let r = SnapshotRegistry::new();
            let c = GlobalClock::new();
            for _ in 0..1000 {
                c.tick();
            }
            // Versions descend so the minimum sits in the last segment.
            let mut guards: Vec<Option<SnapshotGuard<'_>>> =
                (0..n).map(|i| Some(r.register(500 - i as u64))).collect();
            assert_eq!(r.segments().count(), n.div_ceil(SLOT_COUNT));
            for (i, g) in guards.iter().flatten().enumerate() {
                assert_eq!(r.segment_of(g), i / SLOT_COUNT, "registration {i}");
            }
            assert_eq!(r.live_count(), n);
            let lowest = 500 - (n as u64 - 1);
            assert_eq!(r.min_active(), Some(lowest));
            assert_eq!(r.gc_watermark(&c), lowest, "the last segment's minimum pins");
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
            // Segments stay; the next registrations reuse them.
            let again: Vec<_> = (0..n).map(|i| r.register(i as u64)).collect();
            assert_eq!(r.segments().count(), n.div_ceil(SLOT_COUNT));
            assert_eq!(r.live_count(), again.len());
        }
    }

    /// While one thread holds every slot of the first segment, registrations
    /// on other threads land in an appended segment and pin the watermark.
    #[test]
    fn registrations_past_a_full_first_segment_append_one() {
        let r = SnapshotRegistry::new();
        let c = GlobalClock::new();
        c.tick();
        let held: Vec<_> = (0..SLOT_COUNT).map(|_| r.register_current(&c)).collect();
        assert!(held.iter().all(|g| r.segment_of(g) == 0));
        c.tick();
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..200 {
                        let g = r.register_current(&c);
                        assert!(r.segment_of(&g) > 0, "the first segment is full");
                        assert!(r.gc_watermark(&c) <= g.version());
                    }
                });
            }
        });
        assert!(r.segments().count() >= 2);
        drop(held);
        assert_eq!(r.live_count(), 0);
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
        reclaimed_slot_is_not_evicted(&r, &c);
    }

    /// The same in a later segment: the first segment is held full by
    /// unleased registrations above every version the test reaches (so they
    /// pin nothing), and the leased one lands in the second.
    #[test]
    fn a_reclaimed_slot_in_a_later_segment_is_not_evicted() {
        let r = SnapshotRegistry::new();
        let c = GlobalClock::new();
        c.tick();
        let held: Vec<_> = (0..SLOT_COUNT).map(|_| r.register(1 << 40)).collect();
        let slot = reclaimed_slot_is_not_evicted(&r, &c);
        assert_eq!(r.segment_of(&slot), 1);
        drop(held);
    }

    /// Register with a 1 ms lease, let it be evicted, drop it, and register
    /// again with a long lease on the same thread. Returns that registration.
    fn reclaimed_slot_is_not_evicted<'r>(
        r: &'r SnapshotRegistry,
        c: &GlobalClock,
    ) -> SnapshotGuard<'r> {
        r.set_lease(Some(Duration::from_millis(1)));
        let g = r.register_current(c);
        let slot = g.slot();
        std::thread::sleep(Duration::from_millis(5));
        c.tick();
        assert_eq!(r.gc_watermark_evicting(c), (c.now(), 1));
        assert!(g.is_evicted());
        drop(g);
        // Same thread, same hint: the next claim takes the same slot.
        r.set_lease(Some(Duration::from_secs(3600)));
        let g = r.register_current(c);
        assert!(std::ptr::eq(g.slot(), slot));
        assert!(!g.is_evicted(), "the claim resets the flag");
        let deadline = slot.deadline.load(Ordering::Relaxed);
        assert!(deadline > r.now_ns() + 3_000_000_000_000, "the new lease's deadline");
        c.tick();
        assert_eq!(r.gc_watermark_evicting(c), (g.version(), 0), "the new registration pins");
        assert!(!g.is_evicted());
        g
    }

    /// `clamp_deadlines` reaches leased registrations in every segment and
    /// leaves unleased ones alone.
    #[test]
    fn clamp_deadlines_reaches_every_segment() {
        let r = SnapshotRegistry::new();
        let c = GlobalClock::new();
        c.tick();
        r.set_lease(Some(Duration::from_secs(3600)));
        let leased: Vec<SnapshotGuard<'_>> =
            (0..2 * SLOT_COUNT + 4).map(|_| r.register_current(&c)).collect();
        assert_eq!(r.segment_of(leased.last().unwrap()), 2);
        let unleased = r.register(2); // never expires
        assert_eq!(r.segment_of(&unleased), 2);
        c.tick();
        c.tick();
        assert_eq!(r.gc_watermark(&c), 1);
        r.clamp_deadlines(Duration::ZERO);
        assert_eq!(
            r.gc_watermark_evicting(&c),
            (2, 2 * SLOT_COUNT + 4),
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
