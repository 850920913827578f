//! Read and write sets.

use std::collections::HashMap;
use std::sync::Arc;

use crate::stripes::stripe_of;
use crate::vbox::{filter_bits, AnyVBox, BoxId, ErasedValue};

/// One tentative write: the target box (type-erased) and the value.
#[derive(Clone)]
pub(crate) struct WsEntry {
    pub vbox: Arc<dyn AnyVBox>,
    pub value: ErasedValue,
}

/// The tentative writes of one transaction (top-level or nested).
///
/// Held as `Arc<WriteSet>` by its owning [`crate::Txn`]: the owner mutates it
/// copy-on-write (`Arc::make_mut` — in-place while it holds the only
/// reference, which is the entire life of a transaction outside `parallel()`)
/// and publishes the `Arc` as an immutable snapshot to its children, who read
/// it without any locking. `Clone` exists solely to back that copy-on-write.
#[derive(Default, Clone)]
pub(crate) struct WriteSet {
    entries: HashMap<BoxId, WsEntry>,
    /// Bloom filter over the inserted box ids ([`filter_bits`] positions).
    /// Never reset: a removal (an inline child's undo) leaves its bits set,
    /// so it always over-approximates membership.
    filter: u64,
}

impl WriteSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert (or overwrite) the entry for `vbox`, returning the entry it
    /// replaced — what an inline child's undo journal restores.
    pub(crate) fn insert(&mut self, vbox: Arc<dyn AnyVBox>, value: ErasedValue) -> Option<WsEntry> {
        let id = vbox.id();
        self.filter |= filter_bits(id);
        self.entries.insert(id, WsEntry { vbox, value })
    }

    /// Drop the entry for `id` (undoing an inline child's first write of it).
    pub(crate) fn remove(&mut self, id: BoxId) {
        self.entries.remove(&id);
    }

    /// The Bloom filter word over every inserted box id. A probe whose
    /// [`filter_bits`] are not all present here can skip [`WriteSet::get`].
    pub(crate) fn filter(&self) -> u64 {
        self.filter
    }

    pub(crate) fn get(&self, id: BoxId) -> Option<ErasedValue> {
        self.entries.get(&id).map(|e| Arc::clone(&e.value))
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &WsEntry> {
        self.entries.values()
    }

    /// The stripes this write set touches, sorted and deduplicated — the
    /// canonical acquisition order of the striped commit path.
    pub(crate) fn stripe_footprint(&self) -> Vec<usize> {
        let mut stripes: Vec<usize> = self.entries.keys().map(|&id| stripe_of(id)).collect();
        stripes.sort_unstable();
        stripes.dedup();
        stripes
    }
}

/// The boxes a transaction has read (outside its own write set).
///
/// Validation only needs the box handle — multi-version reads are compared
/// against version clocks, not against the values that were read.
#[derive(Default)]
pub(crate) struct ReadSet {
    entries: HashMap<BoxId, Arc<dyn AnyVBox>>,
}

impl ReadSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, vbox: Arc<dyn AnyVBox>) {
        self.entries.entry(vbox.id()).or_insert(vbox);
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&BoxId, &Arc<dyn AnyVBox>)> {
        self.entries.iter()
    }

    pub(crate) fn merge_from(&mut self, other: &ReadSet) {
        for (id, vbox) in &other.entries {
            self.entries.entry(*id).or_insert_with(|| Arc::clone(vbox));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbox::VBox;

    #[test]
    fn write_set_last_write_wins() {
        let b = VBox::new_raw(0i32);
        let mut ws = WriteSet::new();
        ws.insert(b.as_any(), Arc::new(1i32));
        ws.insert(b.as_any(), Arc::new(2i32));
        assert_eq!(ws.len(), 1);
        let v = ws.get(b.id()).unwrap();
        assert_eq!(*v.downcast_ref::<i32>().unwrap(), 2);
    }

    #[test]
    fn write_set_miss_returns_none() {
        let ws = WriteSet::new();
        assert!(ws.get(12345).is_none());
        assert!(ws.is_empty());
    }

    #[test]
    fn stripe_footprint_is_sorted_and_deduped() {
        let mut ws = WriteSet::new();
        for _ in 0..64 {
            let b = VBox::new_raw(0i32);
            ws.insert(b.as_any(), Arc::new(1i32));
        }
        let fp = ws.stripe_footprint();
        assert!(!fp.is_empty());
        assert!(fp.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        assert!(fp.iter().all(|&s| s < crate::stripes::STRIPE_COUNT));
    }

    #[test]
    fn write_set_insert_returns_the_replaced_entry_and_remove_keeps_the_filter() {
        let mut ws = WriteSet::new();
        assert_eq!(ws.filter(), 0, "empty set admits nothing");
        let boxes: Vec<VBox<i32>> = (0..8).map(|_| VBox::new_raw(0)).collect();
        for b in &boxes {
            assert!(
                ws.insert(b.as_any(), Arc::new(1i32)).is_none(),
                "first write replaces nothing"
            );
        }
        let replaced = ws.insert(boxes[0].as_any(), Arc::new(2i32)).expect("second write");
        assert_eq!(*replaced.value.downcast_ref::<i32>().unwrap(), 1);
        ws.remove(boxes[1].id());
        assert!(ws.get(boxes[1].id()).is_none());
        assert_eq!(ws.len(), 7);
        for b in &boxes {
            let bits = crate::vbox::filter_bits(b.id());
            assert_eq!(ws.filter() & bits, bits, "no false negatives, removed boxes included");
        }
    }

    #[test]
    fn write_set_clone_snapshots_entries() {
        let b = VBox::new_raw(0i32);
        let mut ws = WriteSet::new();
        ws.insert(b.as_any(), Arc::new(1i32));
        let snap = ws.clone();
        ws.insert(b.as_any(), Arc::new(2i32));
        assert_eq!(*snap.get(b.id()).unwrap().downcast_ref::<i32>().unwrap(), 1);
        assert_eq!(*ws.get(b.id()).unwrap().downcast_ref::<i32>().unwrap(), 2);
    }

    #[test]
    fn read_set_dedups() {
        let b = VBox::new_raw(0i32);
        let mut rs = ReadSet::new();
        rs.record(b.as_any());
        rs.record(b.as_any());
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn read_set_merge() {
        let a = VBox::new_raw(0i32);
        let b = VBox::new_raw(0i32);
        let mut r1 = ReadSet::new();
        r1.record(a.as_any());
        let mut r2 = ReadSet::new();
        r2.record(a.as_any());
        r2.record(b.as_any());
        r1.merge_from(&r2);
        assert_eq!(r1.len(), 2);
    }
}
