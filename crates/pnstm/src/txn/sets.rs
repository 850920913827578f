//! Read and write sets.
//!
//! Both keep their entries in a `Vec` in insertion order and find them by a
//! linear scan on the box id: a transaction touches a handful of boxes, and
//! scanning a few ids is cheaper than hashing into a map that starts empty
//! and grows. Past [`SPILL`] entries a set also keeps a `BoxId → index` map,
//! so a transaction over a thousand boxes stays linear overall. Iteration
//! follows insertion order, which makes install order deterministic.

use std::collections::HashMap;
use std::sync::Arc;

use crate::stripes::stripe_of;
use crate::vbox::{filter_bits, AnyVBox, BoxId, ErasedValue, VBox};
use crate::TxValue;

/// Entries a set holds before it also builds its `BoxId → index` map.
/// Measured on a 2-vCPU x86-64 box with a transaction-shaped mix (insert
/// after a membership check, then three lookups per entry): the scan costs
/// 27 ns per entry at 16 entries and 36 ns at 32, against 62–68 ns for a
/// `HashMap`, and only approaches it past 48.
const SPILL: usize = 32;

/// One tentative write: the target box (type-erased) and the value.
#[derive(Clone)]
pub(crate) struct WsEntry {
    pub vbox: Arc<dyn AnyVBox>,
    pub value: ErasedValue,
}

/// Values keyed by box id in insertion order: a linear scan while small, an
/// id → position map besides once past [`SPILL`] entries.
#[derive(Clone)]
struct IdVec<V> {
    entries: Vec<(BoxId, V)>,
    index: Option<HashMap<BoxId, usize>>,
}

impl<V> Default for IdVec<V> {
    fn default() -> Self {
        Self { entries: Vec::new(), index: None }
    }
}

impl<V> IdVec<V> {
    fn position(&self, id: BoxId) -> Option<usize> {
        match &self.index {
            Some(index) => index.get(&id).copied(),
            None => self.entries.iter().position(|(k, _)| *k == id),
        }
    }

    /// Append an entry for an `id` the caller knows is absent.
    fn push(&mut self, id: BoxId, value: V) {
        self.entries.push((id, value));
        match &mut self.index {
            Some(index) => {
                index.insert(id, self.entries.len() - 1);
            }
            None if self.entries.len() > SPILL => {
                self.index =
                    Some(self.entries.iter().enumerate().map(|(i, (k, _))| (*k, i)).collect());
            }
            None => {}
        }
    }

    fn remove(&mut self, id: BoxId) {
        let Some(pos) = self.position(id) else { return };
        self.entries.remove(pos);
        if let Some(index) = &mut self.index {
            index.remove(&id);
            for i in index.values_mut().filter(|i| **i > pos) {
                *i -= 1;
            }
        }
    }
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
    entries: IdVec<WsEntry>,
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
        let bits = filter_bits(id);
        let maybe_present = self.filter & bits == bits;
        self.filter |= bits;
        let entry = WsEntry { vbox, value };
        if let Some(pos) = maybe_present.then(|| self.entries.position(id)).flatten() {
            return Some(std::mem::replace(&mut self.entries.entries[pos].1, entry));
        }
        self.entries.push(id, entry);
        None
    }

    /// Drop the entry for `id` (undoing an inline child's first write of it).
    pub(crate) fn remove(&mut self, id: BoxId) {
        self.entries.remove(id);
    }

    /// The Bloom filter word over every inserted box id. A probe whose
    /// [`filter_bits`] are not all present here can skip [`WriteSet::get`].
    pub(crate) fn filter(&self) -> u64 {
        self.filter
    }

    pub(crate) fn get(&self, id: BoxId) -> Option<ErasedValue> {
        let bits = filter_bits(id);
        if self.filter & bits != bits {
            return None;
        }
        let pos = self.entries.position(id)?;
        Some(Arc::clone(&self.entries.entries[pos].1.value))
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.entries.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.entries.entries.is_empty()
    }

    /// The entries in first-insertion order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &WsEntry> {
        self.entries.entries.iter().map(|(_, e)| e)
    }

    /// The stripes this write set touches, sorted and deduplicated — the
    /// canonical acquisition order of the striped commit path.
    pub(crate) fn stripe_footprint(&self) -> Vec<usize> {
        let mut stripes: Vec<usize> =
            self.entries.entries.iter().map(|&(id, _)| stripe_of(id)).collect();
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
    entries: IdVec<Arc<dyn AnyVBox>>,
}

impl ReadSet {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Record a read of `vbox`; the handle is cloned only on its first read.
    pub(crate) fn record<T: TxValue>(&mut self, vbox: &VBox<T>) {
        let id = vbox.id();
        if self.entries.position(id).is_none() {
            self.entries.push(id, vbox.as_any());
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.entries.len()
    }

    /// The read boxes in first-read order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&BoxId, &Arc<dyn AnyVBox>)> {
        self.entries.entries.iter().map(|(id, vbox)| (id, vbox))
    }

    pub(crate) fn merge_from(&mut self, other: &ReadSet) {
        for (id, vbox) in other.iter() {
            if self.entries.position(*id).is_none() {
                self.entries.push(*id, Arc::clone(vbox));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        rs.record(&b);
        rs.record(&b);
        assert_eq!(rs.len(), 1);
    }

    #[test]
    fn read_set_merge() {
        let a = VBox::new_raw(0i32);
        let b = VBox::new_raw(0i32);
        let mut r1 = ReadSet::new();
        r1.record(&a);
        let mut r2 = ReadSet::new();
        r2.record(&a);
        r2.record(&b);
        r1.merge_from(&r2);
        assert_eq!(r1.len(), 2);
    }

    fn value(ws: &WriteSet, id: BoxId) -> Option<usize> {
        ws.get(id).map(|v| *v.downcast_ref::<usize>().unwrap())
    }

    /// Every operation on both sides of the spill size: the scan and the
    /// map must agree on membership, order and footprint.
    #[test]
    fn sets_behave_the_same_below_at_and_past_the_spill_size() {
        for n in [1, SPILL - 1, SPILL, SPILL + 1, 4 * SPILL] {
            let boxes: Vec<VBox<usize>> = (0..n).map(|_| VBox::new_raw(0)).collect();
            let ids: Vec<BoxId> = boxes.iter().map(VBox::id).collect();
            let mut ws = WriteSet::new();
            for (i, b) in boxes.iter().enumerate() {
                assert!(ws.insert(b.as_any(), Arc::new(i)).is_none(), "n={n}: fresh insert");
            }
            for (i, b) in boxes.iter().enumerate() {
                let old = ws.insert(b.as_any(), Arc::new(i + 100)).expect("replace");
                assert_eq!(*old.value.downcast_ref::<usize>().unwrap(), i, "n={n}");
            }
            assert_eq!(ws.len(), n);
            assert!(ids.iter().enumerate().all(|(i, &id)| value(&ws, id) == Some(i + 100)));
            assert!(ws.get(u64::MAX).is_none(), "n={n}: a miss stays a miss");
            for &id in &ids {
                let bits = filter_bits(id);
                assert_eq!(ws.filter() & bits, bits, "n={n}: filter has no false negatives");
            }
            let order: Vec<BoxId> = ws.iter().map(|e| e.vbox.id()).collect();
            assert_eq!(order, ids, "n={n}: iteration follows insertion order");
            let mut stripes: Vec<usize> = ids.iter().map(|&id| stripe_of(id)).collect();
            stripes.sort_unstable();
            stripes.dedup();
            assert_eq!(ws.stripe_footprint(), stripes, "n={n}");

            // Remove every third box: the rest keep their values and order.
            let kept: Vec<(usize, BoxId)> =
                ids.iter().copied().enumerate().filter(|(i, _)| i % 3 != 0).collect();
            for &id in ids.iter().step_by(3) {
                ws.remove(id);
                assert!(ws.get(id).is_none(), "n={n}: removed");
            }
            ws.remove(u64::MAX); // absent: a no-op
            assert_eq!(ws.len(), kept.len(), "n={n}");
            assert!(kept.iter().all(|&(i, id)| value(&ws, id) == Some(i + 100)), "n={n}");
            let order: Vec<BoxId> = ws.iter().map(|e| e.vbox.id()).collect();
            assert_eq!(order, kept.iter().map(|&(_, id)| id).collect::<Vec<_>>(), "n={n}");
            // A removed box re-inserted goes to the end.
            ws.insert(boxes[0].as_any(), Arc::new(7usize));
            assert_eq!(ws.iter().last().unwrap().vbox.id(), ids[0], "n={n}");
            assert_eq!(value(&ws, ids[0]), Some(7));

            let mut rs = ReadSet::new();
            for b in boxes.iter().chain(boxes.iter().rev()) {
                rs.record(b);
            }
            assert_eq!(rs.len(), n, "n={n}: reads dedup");
            let order: Vec<BoxId> = rs.iter().map(|(id, _)| *id).collect();
            assert_eq!(order, ids, "n={n}: reads follow first-read order");
            let mut merged = ReadSet::new();
            merged.record(&boxes[n - 1]);
            merged.merge_from(&rs);
            assert_eq!(merged.len(), n, "n={n}: merge dedups");
            assert_eq!(*merged.iter().next().unwrap().0, ids[n - 1]);
        }
    }
}
