//! Versioned transactional boxes.
//!
//! A [`VBox<T>`] is the unit of transactional state: a handle to a chain of
//! `(version, value)` pairs ordered by the global version clock. Reads select
//! the newest entry whose version is `<=` the reader's snapshot, so readers
//! never block writers and vice versa.

use parking_lot::RwLock;
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::mem::VersionHeapGauge;
use crate::txn::sets::WriteSet;
use crate::TxValue;

/// Unique identifier of a box, assigned at creation.
pub type BoxId = u64;

/// SplitMix64 finalizer over a box id. The avalanche source for every
/// id-derived hash on the read path ([`filter_bits`], the nest-index bucket);
/// the commit path keeps its own copy in [`crate::stripes::stripe_of`] so the
/// two stay independently documented.
#[inline]
pub(crate) fn mix_id(id: BoxId) -> u64 {
    let mut z = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The box's signature in a 64-bit Bloom filter: two bit positions drawn from
/// independent slices of the mixed id. A filter word `f` may contain the box
/// iff `f & filter_bits(id) == filter_bits(id)`; with the handful of boxes a
/// typical write set or nest store holds, the false-positive rate stays in
/// the low percent range, and a false positive only costs the fallback
/// lookup the filter would otherwise skip.
#[inline]
pub(crate) fn filter_bits(id: BoxId) -> u64 {
    let h = mix_id(id);
    (1u64 << (h & 63)) | (1u64 << ((h >> 6) & 63))
}

/// Type-erased value as stored in nest indexes (a published child's commit
/// boxes each written value once, there).
pub(crate) type ErasedValue = Arc<dyn Any + Send + Sync>;

static NEXT_BOX_ID: AtomicU64 = AtomicU64::new(1);

/// Internal type-erased interface over [`VBox`] bodies, used by read sets and
/// validation, nest indexes, and garbage collection.
pub(crate) trait AnyVBox: Send + Sync {
    /// The box's unique id.
    fn id(&self) -> BoxId;
    /// Version of the newest installed entry.
    fn latest_version(&self) -> u64;
    /// Write `value` (which must be a `T` for this box's `T`) into `ws`,
    /// journaled when `journal` is set: how a drained child batch's
    /// nest-index entries fold into their parent's write set. The value is
    /// moved out of its `Arc` when that is the last handle, else cloned.
    fn write_erased(self: Arc<Self>, ws: &mut WriteSet, value: ErasedValue, journal: bool);
    /// Drop versions that no live snapshot can read: keep everything newer
    /// than `watermark` plus the newest entry `<= watermark`. Returns the
    /// number of versions dropped.
    fn prune_below(&self, watermark: u64) -> usize;
    /// Number of retained versions (for GC tests and introspection).
    fn chain_len(&self) -> usize;
}

/// A read could not be served: every retained version of the box is newer
/// than the requested snapshot. Legal only for an evicted snapshot (the GC
/// pruned past an expired lease); anywhere else it is a watermark bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BelowFloor {
    /// Oldest version still retained by the box.
    pub oldest: u64,
}

#[derive(Debug)]
pub(crate) struct VBoxBody<T> {
    id: BoxId,
    /// Version chain, ascending by version. Never empty.
    chain: RwLock<Vec<(u64, T)>>,
    /// Version-heap gauge this box reports retained-entry deltas to: the
    /// owning STM instance's gauge for registered boxes, a detached private
    /// one for raw test boxes.
    gauge: Arc<VersionHeapGauge>,
}

/// Shallow bytes of one retained chain entry of a `T` box (the accounting
/// unit of [`VersionHeapGauge`]; heap payloads behind `T` are not traversed).
#[inline]
pub(crate) fn entry_bytes<T>() -> u64 {
    std::mem::size_of::<(u64, T)>() as u64
}

impl<T: TxValue> VBoxBody<T> {
    /// Read the newest value with version `<= snapshot`, or [`BelowFloor`]
    /// if every retained version is newer — which the caller must treat as a
    /// snapshot eviction (expired lease, GC pruned past it) or, when the
    /// snapshot was never evicted, a GC watermark bug.
    ///
    /// Newest first: a snapshot at or past the newest entry (every read at
    /// the current clock) returns it without probing the chain, however
    /// deep it has grown between GC cycles.
    pub(crate) fn read_at(&self, snapshot: u64) -> Result<T, BelowFloor> {
        let chain = self.chain.read();
        let (newest, value) = chain.last().expect("chain never empty");
        if *newest <= snapshot {
            return Ok(value.clone());
        }
        match chain.binary_search_by(|(v, _)| v.cmp(&snapshot)) {
            Ok(i) => Ok(chain[i].1.clone()),
            Err(0) => Err(BelowFloor { oldest: chain.first().expect("chain never empty").0 }),
            Err(i) => Ok(chain[i - 1].1.clone()),
        }
    }

    /// The oldest retained value (the chain floor). Only meaningful for a
    /// doomed evicted-snapshot read, which needs *a* `T` to keep the body
    /// running to its abort point.
    pub(crate) fn read_floor(&self) -> T {
        self.chain.read().first().expect("chain never empty").1.clone()
    }

    /// Install `value` at `version`.
    ///
    /// Only called by a top-level committer serializing writers of this box
    /// — via the box's commit stripe lock on the striped path, or the global
    /// commit lock on the legacy path — with a strictly increasing
    /// `version` per box. The heap gauge is left to the caller, which adds
    /// a whole commit's entries at once ([`entry_bytes`] each).
    pub(crate) fn install(&self, value: T, version: u64) {
        let mut chain = self.chain.write();
        let newest = chain.last().expect("chain never empty").0;
        assert!(
            version > newest,
            "vbox {}: install version {} not newer than {}",
            self.id,
            version,
            newest
        );
        chain.push((version, value));
    }
}

impl<T> Drop for VBoxBody<T> {
    fn drop(&mut self) {
        let len = self.chain.read().len() as u64;
        self.gauge.sub(len, len * entry_bytes::<T>());
    }
}

impl<T: TxValue> AnyVBox for VBoxBody<T> {
    fn id(&self) -> BoxId {
        self.id
    }

    fn latest_version(&self) -> u64 {
        let chain = self.chain.read();
        chain.last().expect("chain never empty").0
    }

    fn write_erased(self: Arc<Self>, ws: &mut WriteSet, value: ErasedValue, journal: bool) {
        let value = value
            .downcast::<T>()
            .expect("nest-index entry type mismatch: value does not match box type");
        let value = Arc::try_unwrap(value).unwrap_or_else(|shared| (*shared).clone());
        ws.insert(&self, value, journal);
    }

    fn prune_below(&self, watermark: u64) -> usize {
        let mut chain = self.chain.write();
        // Index of the newest entry with version <= watermark; everything
        // strictly before it is unreadable by any live or future snapshot.
        let keep_from = match chain.binary_search_by(|(v, _)| v.cmp(&watermark)) {
            Ok(i) => i,
            Err(0) => 0,
            Err(i) => i - 1,
        };
        if keep_from > 0 {
            chain.drain(..keep_from);
        }
        drop(chain);
        if keep_from > 0 {
            self.gauge.sub(keep_from as u64, keep_from as u64 * entry_bytes::<T>());
        }
        keep_from
    }

    fn chain_len(&self) -> usize {
        self.chain.read().len()
    }
}

/// A transactional memory cell holding values of type `T`.
///
/// `VBox` is a cheap-to-clone handle (an `Arc` internally); clones refer to
/// the same cell. Boxes are created through [`crate::Stm::new_vbox`] and read
/// or written inside transactions via [`crate::Txn::read`] /
/// [`crate::Txn::write`].
pub struct VBox<T> {
    pub(crate) body: Arc<VBoxBody<T>>,
}

impl<T> Clone for VBox<T> {
    fn clone(&self) -> Self {
        Self { body: Arc::clone(&self.body) }
    }
}

impl<T: TxValue> VBox<T> {
    /// Create a detached box with `initial` installed at version 0,
    /// reporting retained-entry accounting to a private gauge.
    ///
    /// Crate-internal: users go through [`crate::Stm::new_vbox`], which also
    /// registers the box for garbage collection and attaches the instance's
    /// shared gauge.
    #[cfg(test)]
    pub(crate) fn new_raw(initial: T) -> Self {
        Self::new_raw_gauged(initial, Arc::new(VersionHeapGauge::new()))
    }

    /// [`VBox::new_raw`] with an explicit [`VersionHeapGauge`] to report
    /// retained-entry deltas to (the STM instance's gauge).
    pub(crate) fn new_raw_gauged(initial: T, gauge: Arc<VersionHeapGauge>) -> Self {
        let id = NEXT_BOX_ID.fetch_add(1, Ordering::Relaxed);
        gauge.add(1, entry_bytes::<T>());
        Self { body: Arc::new(VBoxBody { id, chain: RwLock::new(vec![(0, initial)]), gauge }) }
    }

    /// The box's unique id.
    pub fn id(&self) -> BoxId {
        self.body.id
    }

    /// Number of retained versions (introspection/testing).
    pub fn version_count(&self) -> usize {
        self.body.chain_len()
    }

    pub(crate) fn as_any(&self) -> Arc<dyn AnyVBox> {
        self.body.clone()
    }
}

impl<T: TxValue> std::fmt::Debug for VBox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let chain = self.body.chain.read();
        f.debug_struct("VBox")
            .field("id", &self.body.id)
            .field("versions", &chain.len())
            .field("latest", chain.last().map(|(v, _)| v).unwrap_or(&0))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Install as a committer does: the chain entry, then the gauge.
    fn install<T: TxValue>(b: &VBox<T>, v: T, version: u64) {
        b.body.install(v, version);
        b.body.gauge.add(1, entry_bytes::<T>());
    }

    #[test]
    fn read_at_selects_snapshot_version() {
        let b = VBox::new_raw(10i32);
        install(&b, 20i32, 5);
        install(&b, 30i32, 9);
        assert_eq!(b.body.read_at(0), Ok(10));
        assert_eq!(b.body.read_at(4), Ok(10));
        assert_eq!(b.body.read_at(5), Ok(20));
        assert_eq!(b.body.read_at(8), Ok(20));
        assert_eq!(b.body.read_at(9), Ok(30));
        assert_eq!(b.body.read_at(u64::MAX), Ok(30));
    }

    #[test]
    fn latest_version_tracks_installs() {
        let b = VBox::new_raw(0u8);
        assert_eq!(b.body.latest_version(), 0);
        install(&b, 1u8, 3);
        assert_eq!(b.body.latest_version(), 3);
    }

    #[test]
    #[should_panic(expected = "not newer")]
    fn install_must_be_monotone() {
        let b = VBox::new_raw(0u8);
        install(&b, 1u8, 2);
        install(&b, 2u8, 2);
    }

    #[test]
    #[should_panic(expected = "type mismatch")]
    fn folding_a_value_of_the_wrong_type_panics() {
        let b = VBox::new_raw(0u8);
        let value: ErasedValue = Arc::new("oops".to_string());
        b.as_any().write_erased(&mut WriteSet::default(), value, false);
    }

    /// Counts its clones, to see which paths copy a written value.
    #[derive(Default)]
    struct Counted(Arc<std::sync::atomic::AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.0.fetch_add(1, Ordering::Relaxed);
            Self(Arc::clone(&self.0))
        }
    }

    #[test]
    fn folding_moves_a_sole_value_and_clones_a_shared_one() {
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let b = VBox::new_raw(Counted::default());
        let mut ws = WriteSet::default();
        let sole: ErasedValue = Arc::new(Counted(Arc::clone(&clones)));
        b.as_any().write_erased(&mut ws, sole, false);
        assert_eq!(clones.load(Ordering::Relaxed), 0, "the last handle is moved");
        let shared: ErasedValue = Arc::new(Counted(Arc::clone(&clones)));
        b.as_any().write_erased(&mut ws, Arc::clone(&shared), false);
        assert_eq!(clones.load(Ordering::Relaxed), 1, "a shared value is cloned");
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn prune_keeps_watermark_readable() {
        let b = VBox::new_raw(0i32);
        for (i, ver) in [2u64, 4, 6, 8].iter().enumerate() {
            install(&b, i as i32 + 1, *ver);
        }
        assert_eq!(b.version_count(), 5);
        // Watermark 5: oldest live snapshot is at version 5, which reads the
        // entry installed at 4. Entries at 0 and 2 are unreachable.
        assert_eq!(b.body.prune_below(5), 2);
        assert_eq!(b.version_count(), 3);
        assert_eq!(b.body.read_at(5), Ok(2));
        assert_eq!(b.body.read_at(8), Ok(4));
    }

    #[test]
    fn prune_with_low_watermark_is_noop() {
        let b = VBox::new_raw(0i32);
        install(&b, 1, 4);
        assert_eq!(b.body.prune_below(0), 0);
        assert_eq!(b.version_count(), 2);
    }

    #[test]
    fn read_below_oldest_reports_the_floor() {
        let b = VBox::new_raw(0i32);
        install(&b, 1, 4);
        b.body.prune_below(10);
        // Only the version-4 entry remains; snapshot 3 cannot be served.
        assert_eq!(b.body.read_at(3), Err(BelowFloor { oldest: 4 }));
    }

    #[test]
    fn gauge_tracks_install_prune_and_drop() {
        let gauge = Arc::new(VersionHeapGauge::new());
        let per = std::mem::size_of::<(u64, i32)>() as u64;
        let b = VBox::new_raw_gauged(0i32, Arc::clone(&gauge));
        assert_eq!(gauge.retained_versions(), 1);
        assert_eq!(gauge.retained_bytes(), per);
        install(&b, 1, 2);
        install(&b, 2, 4);
        assert_eq!(gauge.retained_versions(), 3);
        assert_eq!(gauge.retained_bytes(), 3 * per);
        b.body.prune_below(10);
        assert_eq!(gauge.retained_versions(), 1);
        drop(b);
        assert_eq!(gauge.retained_versions(), 0);
        assert_eq!(gauge.retained_bytes(), 0);
    }

    #[test]
    fn filter_bits_are_stable_and_sparse() {
        let b = VBox::new_raw(0i32);
        let bits = filter_bits(b.id());
        assert_eq!(bits, filter_bits(b.id()), "pure function of the id");
        let set = bits.count_ones();
        assert!((1..=2).contains(&set), "two hashed positions (may collide): {set}");
        // Membership algebra: a filter containing exactly this box admits it
        // and the empty filter excludes it.
        assert_eq!(bits & filter_bits(b.id()), filter_bits(b.id()));
        let empty = 0u64;
        assert_ne!(empty & bits, bits);
    }

    #[test]
    fn ids_are_unique() {
        let a = VBox::new_raw(0);
        let b = VBox::new_raw(0);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn clone_aliases_same_cell() {
        let a = VBox::new_raw(1i32);
        let b = a.clone();
        install(&a, 7, 1);
        assert_eq!(b.body.read_at(1), Ok(7));
        assert_eq!(a.id(), b.id());
    }
}
