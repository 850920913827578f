//! The memory-robustness layer: version-heap accounting, incremental
//! background GC configuration, snapshot-lease policy, and the
//! pressure-driven degradation ladder.
//!
//! Multi-version boxes retain old versions for live snapshots, so under
//! sustained write-heavy load the version heap is the system's dominant
//! memory consumer — and one stalled reader pinning the GC watermark is
//! enough to make it grow without bound. This module bounds it in four
//! steps:
//!
//! 1. **Accounting** — every box reports retained-version/byte deltas into a
//!    shared lock-free [`VersionHeapGauge`] on install and prune, so "how
//!    big is the version heap" is two relaxed loads, surfaced in
//!    [`crate::StatsSnapshot`] and the `mem_pressure` trace event.
//! 2. **Incremental background GC** — the whole-heap sweep runs off the
//!    commit path on a dedicated, panic-supervised collector thread that
//!    prunes in bounded slices ([`MemConfig::gc_slice_boxes`] boxes at a
//!    time, yielding between slices); a committer that trips the GC interval
//!    only *nudges* the collector. (The old synchronous sweep on the
//!    committer is the `oracle` feature's `InlineGc` rung.)
//! 3. **Snapshot leases** — runtime snapshots expire
//!    ([`MemConfig::snapshot_lease`]); an expired snapshot stops pinning the
//!    watermark and its owner aborts with
//!    [`crate::StmError::SnapshotEvicted`] (see
//!    [`crate::clock::SnapshotRegistry`]).
//! 4. **Degradation ladder** — the gauge drives [`MemLevel`]: crossing the
//!    soft ceiling triggers an urgent GC cycle and shortens leases; the hard
//!    ceiling additionally throttles admission to one in-flight top-level
//!    transaction (new arrivals wait, in-flight ones drain). Graceful
//!    slowdown instead of an OOM kill, reported as `mem_degraded` trace
//!    events.

use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::time::Duration;

/// Memory-robustness configuration ([`crate::StmConfig::mem`]).
#[derive(Debug, Clone)]
pub struct MemConfig {
    /// Boxes pruned per background-GC slice before the collector yields the
    /// CPU (and re-checks shutdown). Smaller slices mean finer-grained
    /// interleaving with mutators at more per-slice overhead; a
    /// runtime-adaptable knob for AutoPN ([`crate::Stm::set_gc_slice_boxes`]).
    pub gc_slice_boxes: usize,
    /// Lease on runtime snapshots: a transaction older than this stops
    /// pinning the GC watermark and is evicted (aborting with
    /// [`crate::StmError::SnapshotEvicted`] at its next read/commit).
    /// `None` disables leasing — the pre-lease behaviour, where one parked
    /// reader pins the version heap forever.
    pub snapshot_lease: Option<Duration>,
    /// The shortened lease applied (to new *and* in-flight snapshots) while
    /// the ladder is at [`MemLevel::Soft`] or above.
    pub urgent_lease: Duration,
    /// Retained-version count at which the ladder enters [`MemLevel::Soft`]
    /// (urgent GC + shortened leases). `u64::MAX` disables the ladder.
    /// Runtime-adaptable ([`crate::Stm::set_mem_soft_ceiling`]).
    pub soft_ceiling_versions: u64,
    /// Retained-version count at which the ladder enters [`MemLevel::Hard`]
    /// (admission backpressure: one top-level transaction at a time until
    /// the gauge recedes). `u64::MAX` disables the hard rung.
    pub hard_ceiling_versions: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        Self {
            gc_slice_boxes: 128,
            snapshot_lease: Some(Duration::from_secs(30)),
            urgent_lease: Duration::from_millis(50),
            soft_ceiling_versions: 1 << 20,
            hard_ceiling_versions: 1 << 22,
        }
    }
}

/// Live aggregate size of the version heap: total retained `(version, value)`
/// entries and their (shallow) bytes across every box of an STM instance.
///
/// Boxes update the gauge on install, prune, and drop with relaxed
/// read-modify-writes — no locks, no contention point beyond the cache line.
/// The gauge is therefore eventually consistent with any individual chain,
/// which is all the ladder needs: ceilings are thresholds, not invariants.
#[derive(Debug, Default)]
pub struct VersionHeapGauge {
    retained_versions: AtomicU64,
    retained_bytes: AtomicU64,
}

impl VersionHeapGauge {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `versions` new retained entries totalling `bytes`.
    pub(crate) fn add(&self, versions: u64, bytes: u64) {
        self.retained_versions.fetch_add(versions, Ordering::Relaxed);
        self.retained_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `versions` pruned entries totalling `bytes`.
    pub(crate) fn sub(&self, versions: u64, bytes: u64) {
        let prev = self.retained_versions.fetch_sub(versions, Ordering::Relaxed);
        debug_assert!(prev >= versions, "gauge underflow: {prev} - {versions}");
        let prev = self.retained_bytes.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(prev >= bytes, "gauge byte underflow: {prev} - {bytes}");
    }

    /// Total retained `(version, value)` entries across all live boxes.
    pub fn retained_versions(&self) -> u64 {
        self.retained_versions.load(Ordering::Relaxed)
    }

    /// Shallow bytes of those entries (`size_of::<(u64, T)>()` per entry;
    /// heap payloads behind the value — `String` data, `Vec` buffers — are
    /// not traversed).
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes.load(Ordering::Relaxed)
    }
}

/// Rung of the memory degradation ladder (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum MemLevel {
    /// Gauge below the soft ceiling: no intervention.
    #[default]
    Normal,
    /// Soft ceiling crossed: urgent GC cycle requested, leases shortened to
    /// [`MemConfig::urgent_lease`] (in-flight deadlines clamped too).
    Soft,
    /// Hard ceiling crossed: everything Soft does, plus admission throttled
    /// to one in-flight top-level transaction until the gauge recedes.
    Hard,
}

impl MemLevel {
    /// Stable lower-case tag (the `"level"` field of the trace schema).
    pub fn tag(&self) -> &'static str {
        match self {
            MemLevel::Normal => "normal",
            MemLevel::Soft => "soft",
            MemLevel::Hard => "hard",
        }
    }

    fn from_u8(v: u8) -> MemLevel {
        match v {
            2 => MemLevel::Hard,
            1 => MemLevel::Soft,
            _ => MemLevel::Normal,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            MemLevel::Normal => 0,
            MemLevel::Soft => 1,
            MemLevel::Hard => 2,
        }
    }
}

/// Hysteresis divisor for leaving a ladder rung: the gauge must fall below
/// `ceiling - ceiling / LADDER_HYSTERESIS_DIV` before the level drops, so a
/// gauge oscillating at a ceiling doesn't flap the ladder (each entry
/// transition re-runs the urgent side effects).
const LADDER_HYSTERESIS_DIV: u64 = 4;

/// Runtime-adjustable state of the memory ladder: the current level and the
/// live ceilings/slice budget (initialised from [`MemConfig`], then owned by
/// the tuner — ceilings and slice budget are actuation points).
#[derive(Debug)]
pub(crate) struct MemState {
    level: AtomicU8,
    soft_ceiling: AtomicU64,
    hard_ceiling: AtomicU64,
    gc_slice_boxes: AtomicUsize,
}

impl MemState {
    pub(crate) fn new(cfg: &MemConfig) -> Self {
        Self {
            level: AtomicU8::new(MemLevel::Normal.as_u8()),
            soft_ceiling: AtomicU64::new(cfg.soft_ceiling_versions),
            hard_ceiling: AtomicU64::new(cfg.hard_ceiling_versions),
            gc_slice_boxes: AtomicUsize::new(cfg.gc_slice_boxes.max(1)),
        }
    }

    pub(crate) fn level(&self) -> MemLevel {
        MemLevel::from_u8(self.level.load(Ordering::Relaxed))
    }

    pub(crate) fn soft_ceiling(&self) -> u64 {
        self.soft_ceiling.load(Ordering::Relaxed)
    }

    pub(crate) fn hard_ceiling(&self) -> u64 {
        self.hard_ceiling.load(Ordering::Relaxed)
    }

    pub(crate) fn set_soft_ceiling(&self, versions: u64) {
        self.soft_ceiling.store(versions, Ordering::Relaxed);
    }

    pub(crate) fn set_hard_ceiling(&self, versions: u64) {
        self.hard_ceiling.store(versions, Ordering::Relaxed);
    }

    pub(crate) fn gc_slice_boxes(&self) -> usize {
        self.gc_slice_boxes.load(Ordering::Relaxed)
    }

    pub(crate) fn set_gc_slice_boxes(&self, boxes: usize) {
        self.gc_slice_boxes.store(boxes.max(1), Ordering::Relaxed);
    }

    /// The level `retained` versions map to, with hysteresis against the
    /// current level (dropping a rung requires receding a quarter below its
    /// ceiling).
    fn target_level(&self, retained: u64, current: MemLevel) -> MemLevel {
        let soft = self.soft_ceiling();
        let hard = self.hard_ceiling();
        let eased = |ceiling: u64| ceiling.saturating_sub(ceiling / LADDER_HYSTERESIS_DIV);
        if retained >= hard || (current >= MemLevel::Hard && retained >= eased(hard)) {
            MemLevel::Hard
        } else if retained >= soft || (current >= MemLevel::Soft && retained >= eased(soft)) {
            MemLevel::Soft
        } else {
            MemLevel::Normal
        }
    }

    /// Evaluate the ladder against `retained` versions. Returns
    /// `Some((from, to))` iff this caller won the transition (level CAS), in
    /// which case it must enact the side effects for `to`.
    pub(crate) fn transition(&self, retained: u64) -> Option<(MemLevel, MemLevel)> {
        let current = self.level();
        let target = self.target_level(retained, current);
        if target == current {
            return None;
        }
        self.level
            .compare_exchange(current.as_u8(), target.as_u8(), Ordering::AcqRel, Ordering::Relaxed)
            .ok()
            .map(|_| (current, target))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_tracks_adds_and_subs() {
        let g = VersionHeapGauge::new();
        assert_eq!(g.retained_versions(), 0);
        g.add(3, 48);
        g.add(1, 16);
        assert_eq!(g.retained_versions(), 4);
        assert_eq!(g.retained_bytes(), 64);
        g.sub(2, 32);
        assert_eq!(g.retained_versions(), 2);
        assert_eq!(g.retained_bytes(), 32);
    }

    #[test]
    fn mem_level_tags_and_order() {
        assert_eq!(MemLevel::Normal.tag(), "normal");
        assert_eq!(MemLevel::Soft.tag(), "soft");
        assert_eq!(MemLevel::Hard.tag(), "hard");
        assert!(MemLevel::Normal < MemLevel::Soft);
        assert!(MemLevel::Soft < MemLevel::Hard);
        for l in [MemLevel::Normal, MemLevel::Soft, MemLevel::Hard] {
            assert_eq!(MemLevel::from_u8(l.as_u8()), l);
        }
    }

    #[test]
    fn ladder_escalates_and_recovers_with_hysteresis() {
        let cfg = MemConfig {
            soft_ceiling_versions: 100,
            hard_ceiling_versions: 200,
            ..MemConfig::default()
        };
        let s = MemState::new(&cfg);
        assert_eq!(s.level(), MemLevel::Normal);
        assert_eq!(s.transition(50), None);
        assert_eq!(s.transition(100), Some((MemLevel::Normal, MemLevel::Soft)));
        // Oscillating just under the ceiling does not drop the rung...
        assert_eq!(s.transition(99), None);
        assert_eq!(s.transition(76), None);
        // ...receding a quarter below it does.
        assert_eq!(s.transition(74), Some((MemLevel::Soft, MemLevel::Normal)));
        // Straight to Hard from Normal when a burst overshoots.
        assert_eq!(s.transition(500), Some((MemLevel::Normal, MemLevel::Hard)));
        // Hard has its own hysteresis band: 160 ≥ 200 - 200/4 keeps the rung.
        assert_eq!(s.transition(160), None);
        assert_eq!(s.transition(140), Some((MemLevel::Hard, MemLevel::Soft)));
        assert_eq!(s.transition(10), Some((MemLevel::Soft, MemLevel::Normal)));
    }

    #[test]
    fn ladder_knobs_are_runtime_adjustable() {
        let s = MemState::new(&MemConfig::default());
        s.set_soft_ceiling(10);
        s.set_hard_ceiling(20);
        s.set_gc_slice_boxes(0);
        assert_eq!(s.soft_ceiling(), 10);
        assert_eq!(s.hard_ceiling(), 20);
        assert_eq!(s.gc_slice_boxes(), 1, "slice budget clamps to 1");
        assert_eq!(s.transition(15), Some((MemLevel::Normal, MemLevel::Soft)));
    }

    #[test]
    fn disabled_ceilings_never_transition() {
        let cfg = MemConfig {
            soft_ceiling_versions: u64::MAX,
            hard_ceiling_versions: u64::MAX,
            ..MemConfig::default()
        };
        let s = MemState::new(&cfg);
        assert_eq!(s.transition(u64::MAX - 1), None);
        assert_eq!(s.level(), MemLevel::Normal);
    }
}
