//! Read and write sets, and the per-thread buffers they live in.
//!
//! Both sets keep their entries in a `Vec` in insertion order and find them
//! by a linear scan on the box id: a transaction touches a handful of boxes,
//! and scanning a few ids is cheaper than hashing into a map that starts
//! empty and grows. Past [`SPILL`] entries a set also keeps a `BoxId →
//! index` map, so a transaction over a thousand boxes stays linear overall.
//!
//! The write set keeps one typed lane per value type: a box's slot holds its
//! body handle and a plain `T`, overwritten in place by later writes and
//! moved into the version chain at commit. A write allocates nothing once
//! the lane's vector has grown to the attempt's size, and no value is boxed
//! unless a nested commit hands it to its siblings through the nest index.
//!
//! **Buffer reuse.** An attempt takes its sets from [`TxnBuffers::take`] and
//! returns them cleared when it drops, panics included, so a thread's
//! steady-state attempts reuse the same vectors. A thread keeps a few spare
//! sets; an attempt that finds none — the first on the thread, one running
//! inside another (a published child on its parent's thread), or more live
//! attempts than spares — starts from empty sets, which is only slower.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;

use crate::stripes::stripe_of;
use crate::vbox::{entry_bytes, filter_bits, AnyVBox, BoxId, ErasedValue, VBox, VBoxBody};
use crate::TxValue;

/// Entries a set holds before it also builds its `BoxId → index` map.
/// Measured on a 2-vCPU x86-64 box with a transaction-shaped mix (insert
/// after a membership check, then three lookups per entry): the scan costs
/// 27 ns per entry at 16 entries and 36 ns at 32, against 62–68 ns for a
/// `HashMap`, and only approaches it past 48.
const SPILL: usize = 32;

/// Entries a returned buffer keeps room for: a thread that once ran a huge
/// transaction does not hold its footprint forever.
const KEPT_CAPACITY: usize = 1024;

/// Value types a returned write set keeps lanes for.
const KEPT_LANES: usize = 8;

/// Spare buffer sets a thread keeps.
const SPARES: usize = 4;

/// One erased tentative write: what a nested commit installs into its
/// parent's nest index and what the join folds back into the parent.
pub(crate) struct WsEntry {
    pub vbox: Arc<dyn AnyVBox>,
    pub value: ErasedValue,
}

/// Values keyed by box id in insertion order: a linear scan while small, an
/// id → position map besides once past [`SPILL`] entries.
struct IdVec<V> {
    entries: Vec<(BoxId, V)>,
    /// Filled iff `entries` holds more than [`SPILL`] entries.
    index: HashMap<BoxId, usize>,
}

impl<V> Default for IdVec<V> {
    fn default() -> Self {
        Self { entries: Vec::new(), index: HashMap::new() }
    }
}

impl<V> IdVec<V> {
    fn position(&self, id: BoxId) -> Option<usize> {
        if self.entries.len() > SPILL {
            self.index.get(&id).copied()
        } else {
            self.entries.iter().position(|(k, _)| *k == id)
        }
    }

    /// Append an entry for an `id` the caller knows is absent.
    fn push(&mut self, id: BoxId, value: V) {
        self.entries.push((id, value));
        let len = self.entries.len();
        if len == SPILL + 1 {
            self.index.extend(self.entries.iter().enumerate().map(|(i, (k, _))| (*k, i)));
        } else if len > SPILL + 1 {
            self.index.insert(id, len - 1);
        }
    }

    /// Remove the newest entry.
    fn pop(&mut self) {
        let Some((id, _)) = self.entries.pop() else { return };
        if self.entries.len() == SPILL {
            self.index.clear();
        } else if self.entries.len() > SPILL {
            self.index.remove(&id);
        }
    }

    fn clear(&mut self) {
        self.entries.clear();
        self.entries.shrink_to(KEPT_CAPACITY);
        self.index.clear();
        self.index.shrink_to(KEPT_CAPACITY);
    }
}

/// The writes of one value type: per distinct box, its body and newest
/// tentative value.
struct Lane<T> {
    slots: IdVec<(Arc<VBoxBody<T>>, T)>,
    /// What journaled overwrites replaced, oldest first: the slot and its
    /// previous value, for an inline child's undo.
    undo: Vec<(usize, T)>,
}

impl<T> Default for Lane<T> {
    fn default() -> Self {
        Self { slots: IdVec::default(), undo: Vec::new() }
    }
}

/// The type-erased face of a [`Lane`].
trait AnyLane: Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn for_each_id(&self, f: &mut dyn FnMut(BoxId));
    /// Undo the newest journaled insert into this lane: drop the newest slot
    /// (a first write) or restore the newest replaced value.
    fn undo(&mut self, first_write: bool);
    fn forget_undo(&mut self);
    fn clear(&mut self);
    /// Move every value into its box's chain at `version`; returns the
    /// entries and shallow bytes installed.
    fn install(&mut self, version: u64) -> (u64, u64);
    /// Move every entry out, its value boxed into an [`ErasedValue`].
    fn drain_erased(&mut self, f: &mut dyn FnMut(WsEntry));
}

impl<T: TxValue> AnyLane for Lane<T> {
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
    fn for_each_id(&self, f: &mut dyn FnMut(BoxId)) {
        self.slots.entries.iter().for_each(|(id, _)| f(*id));
    }
    fn undo(&mut self, first_write: bool) {
        if first_write {
            self.slots.pop();
        } else {
            let (pos, old) = self.undo.pop().expect("a journaled overwrite has its old value");
            self.slots.entries[pos].1 .1 = old;
        }
    }
    fn forget_undo(&mut self) {
        self.undo.clear();
    }
    fn clear(&mut self) {
        self.slots.clear();
        self.undo.clear();
        self.undo.shrink_to(KEPT_CAPACITY);
    }
    fn install(&mut self, version: u64) -> (u64, u64) {
        let n = self.slots.entries.len() as u64;
        for (_, (body, value)) in self.slots.entries.drain(..) {
            body.install(value, version);
        }
        self.slots.index.clear();
        (n, n * entry_bytes::<T>())
    }
    fn drain_erased(&mut self, f: &mut dyn FnMut(WsEntry)) {
        for (_, (body, value)) in self.slots.entries.drain(..) {
            f(WsEntry { vbox: body, value: Arc::new(value) });
        }
        self.slots.index.clear();
    }
}

/// The tentative writes of one transaction (top-level or nested).
///
/// Owned by its [`crate::Txn`] and mutated in place. When the transaction
/// suspends in a published `parallel()` batch it moves the set into an
/// `Arc` — the immutable snapshot its children read without locking — and
/// takes it back at the join, when the children are gone.
#[derive(Default)]
pub(crate) struct WriteSet {
    lanes: Vec<Box<dyn AnyLane>>,
    /// Entries over all lanes.
    len: usize,
    /// Bloom filter over the inserted box ids ([`filter_bits`] positions).
    /// Never reset within an attempt: an inline child's undo leaves its bits
    /// set, so it always over-approximates membership.
    filter: u64,
    /// Undo journal of the running inline children: per journaled insert,
    /// its lane and whether it was the box's first write. Oldest first; a
    /// failing child rolls back to the length it found.
    journal: Vec<(usize, bool)>,
}

impl WriteSet {
    fn lane<T: TxValue>(&self) -> Option<&Lane<T>> {
        self.lanes.iter().find_map(|lane| lane.as_any().downcast_ref::<Lane<T>>())
    }

    /// The lane of `T` and its index, created on the first `T` write.
    fn lane_mut<T: TxValue>(&mut self) -> (usize, &mut Lane<T>) {
        let i = match self.lanes.iter().position(|lane| lane.as_any().is::<Lane<T>>()) {
            Some(i) => i,
            None => {
                self.lanes.push(Box::new(Lane::<T>::default()));
                self.lanes.len() - 1
            }
        };
        let lane = self.lanes[i].as_any_mut().downcast_mut::<Lane<T>>().expect("lane of T");
        (i, lane)
    }

    /// Write `value` as `body`'s tentative value, journaled (so that
    /// [`WriteSet::roll_back`] can undo it) when `journal` is set.
    pub(crate) fn insert<T: TxValue>(&mut self, body: &Arc<VBoxBody<T>>, value: T, journal: bool) {
        let id = body.id();
        let bits = filter_bits(id);
        let maybe_present = self.filter & bits == bits;
        self.filter |= bits;
        let (i, lane) = self.lane_mut::<T>();
        let first_write = match maybe_present.then(|| lane.slots.position(id)).flatten() {
            Some(pos) => {
                let old = std::mem::replace(&mut lane.slots.entries[pos].1 .1, value);
                if journal {
                    lane.undo.push((pos, old));
                }
                false
            }
            None => {
                lane.slots.push(id, (Arc::clone(body), value));
                self.len += 1;
                true
            }
        };
        if journal {
            self.journal.push((i, first_write));
        }
    }

    /// Journal length: the mark an inline child rolls back to.
    pub(crate) fn journal_mark(&self) -> usize {
        self.journal.len()
    }

    /// Undo the journaled inserts past `mark`, newest first.
    pub(crate) fn roll_back(&mut self, mark: usize) {
        for (i, first_write) in self.journal.drain(mark..).rev() {
            self.lanes[i].undo(first_write);
            self.len -= usize::from(first_write);
        }
    }

    /// Drop the journal: nothing that could still fail is running.
    pub(crate) fn forget_journal(&mut self) {
        self.journal.clear();
        self.lanes.iter_mut().for_each(|lane| lane.forget_undo());
    }

    /// The Bloom filter word over every inserted box id. A probe whose
    /// [`filter_bits`] are not all present here can skip [`WriteSet::get`].
    pub(crate) fn filter(&self) -> u64 {
        self.filter
    }

    /// The tentative value of box `id`, a `T` box.
    pub(crate) fn get<T: TxValue>(&self, id: BoxId) -> Option<T> {
        let bits = filter_bits(id);
        if self.filter & bits != bits {
            return None;
        }
        let slots = &self.lane::<T>()?.slots;
        let pos = slots.position(id)?;
        Some(slots.entries[pos].1 .1.clone())
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Move every entry out erased, emptying the set: a nested commit's
    /// install into the nest index, the set's last use. Each value is moved
    /// into its `Arc`, not cloned.
    pub(crate) fn drain_erased(&mut self, mut f: impl FnMut(WsEntry)) {
        self.lanes.iter_mut().for_each(|lane| lane.drain_erased(&mut f));
        self.clear();
    }

    /// The stripes this write set touches, sorted and deduplicated — the
    /// canonical acquisition order of the striped commit path — into `out`.
    pub(crate) fn stripe_footprint(&self, out: &mut Vec<usize>) {
        out.clear();
        for lane in &self.lanes {
            lane.for_each_id(&mut |id| out.push(stripe_of(id)));
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Move every tentative value into its box's chain at `version`,
    /// emptying the set. Returns the entries and shallow bytes installed,
    /// for the one heap-gauge update of the commit.
    pub(crate) fn install(&mut self, version: u64) -> (u64, u64) {
        let mut total = (0, 0);
        for lane in &mut self.lanes {
            let (n, bytes) = lane.install(version);
            total = (total.0 + n, total.1 + bytes);
        }
        self.clear();
        total
    }

    fn clear(&mut self) {
        self.lanes.truncate(KEPT_LANES);
        self.lanes.iter_mut().for_each(|lane| lane.clear());
        self.len = 0;
        self.filter = 0;
        self.journal.clear();
        self.journal.shrink_to(KEPT_CAPACITY);
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

/// The sets one attempt works in, lent by its thread (see the module docs).
#[derive(Default)]
pub(crate) struct TxnBuffers {
    pub ws: WriteSet,
    pub rs: ReadSet,
    /// The striped commit's sorted stripe list.
    pub footprint: Vec<usize>,
}

thread_local! {
    /// This thread's spare sets. Boxed, so lending one out moves a pointer.
    static SPARE_BUFFERS: RefCell<[Option<Box<TxnBuffers>>; SPARES]> =
        const { RefCell::new([const { None }; SPARES]) };
}

impl TxnBuffers {
    /// A spare set of this thread's, or empty sets when it has none.
    pub(crate) fn take() -> Box<Self> {
        SPARE_BUFFERS
            .try_with(|spares| {
                spares.try_borrow_mut().ok().and_then(|mut s| s.iter_mut().find_map(Option::take))
            })
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Clear the sets and keep them as one of this thread's spares.
    pub(crate) fn give_back(mut self: Box<Self>) {
        self.ws.clear();
        self.rs.entries.clear();
        self.footprint.clear();
        self.footprint.shrink_to(KEPT_CAPACITY);
        let mut rejected = Some(self);
        let _ = SPARE_BUFFERS.try_with(|spares| {
            if let Ok(mut spares) = spares.try_borrow_mut() {
                if let Some(free) = spares.iter_mut().find(|slot| slot.is_none()) {
                    *free = rejected.take();
                }
            }
        });
        drop(rejected);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids_of(ws: &WriteSet) -> Vec<BoxId> {
        let mut out = Vec::new();
        ws.lanes.iter().for_each(|lane| lane.for_each_id(&mut |id| out.push(id)));
        out
    }

    #[test]
    fn write_set_last_write_wins() {
        let b = VBox::new_raw(0i32);
        let mut ws = WriteSet::default();
        ws.insert(&b.body, 1, false);
        ws.insert(&b.body, 2, false);
        assert_eq!(ws.len(), 1);
        assert_eq!(ws.get::<i32>(b.id()), Some(2));
    }

    #[test]
    fn write_set_miss_returns_none() {
        let ws = WriteSet::default();
        assert!(ws.get::<i32>(12345).is_none());
        assert!(ws.is_empty());
    }

    #[test]
    fn lanes_keep_types_apart() {
        let gauge = Arc::new(crate::mem::VersionHeapGauge::new());
        let a = VBox::new_raw_gauged(0i32, Arc::clone(&gauge));
        let b = VBox::new_raw_gauged(String::new(), Arc::clone(&gauge));
        let mut ws = WriteSet::default();
        ws.insert(&a.body, 7, false);
        ws.insert(&b.body, "x".to_string(), false);
        ws.insert(&a.body, 8, false);
        assert_eq!((ws.len(), ws.lanes.len()), (2, 2));
        assert_eq!(ws.get::<i32>(a.id()), Some(8));
        assert_eq!(ws.get::<String>(b.id()).as_deref(), Some("x"));
        let (versions, bytes) = ws.install(1);
        assert_eq!((versions, bytes), (2, entry_bytes::<i32>() + entry_bytes::<String>()));
        gauge.add(versions, bytes); // what the committer does with the totals
        assert_eq!(gauge.retained_versions(), 4);
        assert!(ws.is_empty());
        assert_eq!(a.body.read_at(1), Ok(8));
        assert_eq!(b.body.read_at(1).as_deref(), Ok("x"));
    }

    #[test]
    fn draining_moves_every_value_out_uncloned() {
        /// Panics if cloned: draining must move each value.
        struct NoClone(i32);
        impl Clone for NoClone {
            fn clone(&self) -> Self {
                panic!("a drained value was cloned")
            }
        }
        let a = VBox::new_raw(NoClone(0));
        let b = VBox::new_raw(0u8);
        let mut ws = WriteSet::default();
        ws.insert(&a.body, NoClone(7), false);
        ws.insert(&b.body, 3u8, false);
        ws.insert(&a.body, NoClone(8), false);
        let mut drained = Vec::new();
        ws.drain_erased(|entry| drained.push(entry));
        assert!(ws.is_empty() && ids_of(&ws).is_empty());
        let ids: Vec<BoxId> = drained.iter().map(|e| e.vbox.id()).collect();
        assert_eq!(ids, [a.id(), b.id()]);
        assert_eq!(drained[0].value.downcast_ref::<NoClone>().map(|v| v.0), Some(8));
        assert_eq!(drained[1].value.downcast_ref::<u8>(), Some(&3));
    }

    #[test]
    fn stripe_footprint_is_sorted_and_deduped() {
        let mut ws = WriteSet::default();
        let boxes: Vec<VBox<i32>> = (0..64).map(|_| VBox::new_raw(0)).collect();
        for b in &boxes {
            ws.insert(&b.body, 1, false);
        }
        let mut fp = vec![usize::MAX];
        ws.stripe_footprint(&mut fp);
        assert!(!fp.is_empty());
        assert!(fp.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        assert!(fp.iter().all(|&s| s < crate::stripes::STRIPE_COUNT));
    }

    #[test]
    fn roll_back_undoes_journaled_inserts_and_keeps_the_filter() {
        let mut ws = WriteSet::default();
        let boxes: Vec<VBox<i32>> = (0..8).map(|_| VBox::new_raw(0)).collect();
        assert_eq!(ws.filter(), 0, "empty set admits nothing");
        for b in &boxes[..4] {
            ws.insert(&b.body, 1, false);
        }
        let mark = ws.journal_mark();
        ws.insert(&boxes[0].body, 2, true); // overwrite
        ws.insert(&boxes[5].body, 3, true); // first write
        ws.insert(&boxes[0].body, 4, true); // overwrite again
        assert_eq!(ws.len(), 5);
        ws.roll_back(mark);
        assert_eq!(ws.len(), 4);
        assert_eq!(ws.get::<i32>(boxes[0].id()), Some(1));
        assert!(ws.get::<i32>(boxes[5].id()).is_none());
        for b in boxes[..4].iter().chain([&boxes[5]]) {
            let bits = filter_bits(b.id());
            assert_eq!(ws.filter() & bits, bits, "no false negatives, undone boxes included");
        }
        // A success forgets the journal: the writes stay.
        let mark = ws.journal_mark();
        ws.insert(&boxes[6].body, 9, true);
        ws.forget_journal();
        ws.roll_back(mark);
        assert_eq!(ws.get::<i32>(boxes[6].id()), Some(9));
    }

    #[test]
    fn read_set_dedups_and_merges() {
        let (a, b) = (VBox::new_raw(0i32), VBox::new_raw(0i32));
        let mut r1 = ReadSet::default();
        r1.record(&a);
        r1.record(&a);
        assert_eq!(r1.len(), 1);
        let mut r2 = ReadSet::default();
        r2.record(&a);
        r2.record(&b);
        r1.merge_from(&r2);
        assert_eq!(r1.len(), 2);
    }

    /// Every operation on both sides of the spill size: the scan and the
    /// map must agree on membership, order, footprint and undo.
    #[test]
    fn sets_behave_the_same_below_at_and_past_the_spill_size() {
        for n in [1, SPILL - 1, SPILL, SPILL + 1, 4 * SPILL] {
            let boxes: Vec<VBox<usize>> = (0..n).map(|_| VBox::new_raw(0)).collect();
            let ids: Vec<BoxId> = boxes.iter().map(VBox::id).collect();
            let mut ws = WriteSet::default();
            for (i, b) in boxes.iter().enumerate() {
                ws.insert(&b.body, i, false);
            }
            let mark = ws.journal_mark();
            for (i, b) in boxes.iter().enumerate() {
                ws.insert(&b.body, i + 100, true);
            }
            assert_eq!(ws.len(), n);
            assert!(ids.iter().enumerate().all(|(i, &id)| ws.get(id) == Some(i + 100)));
            assert!(ws.get::<usize>(u64::MAX).is_none(), "n={n}: a miss stays a miss");
            assert_eq!(ids_of(&ws), ids, "n={n}: iteration follows insertion order");
            let mut stripes: Vec<usize> = ids.iter().map(|&id| stripe_of(id)).collect();
            stripes.sort_unstable();
            stripes.dedup();
            let mut fp = Vec::new();
            ws.stripe_footprint(&mut fp);
            assert_eq!(fp, stripes, "n={n}");
            ws.roll_back(mark);
            assert!(ids.iter().enumerate().all(|(i, &id)| ws.get(id) == Some(i)), "n={n}");

            // Journaled first writes past the spill size undo by popping:
            // the map must forget them and keep the rest.
            let more: Vec<VBox<usize>> = (0..n).map(|_| VBox::new_raw(0)).collect();
            let mark = ws.journal_mark();
            for b in &more {
                ws.insert(&b.body, 7, true);
            }
            assert_eq!(ws.len(), 2 * n);
            ws.roll_back(mark);
            assert_eq!(ws.len(), n, "n={n}");
            assert!(more.iter().all(|b| ws.get::<usize>(b.id()).is_none()), "n={n}");
            assert!(ids.iter().enumerate().all(|(i, &id)| ws.get(id) == Some(i)), "n={n}");

            let mut rs = ReadSet::default();
            for b in boxes.iter().chain(boxes.iter().rev()) {
                rs.record(b);
            }
            assert_eq!(rs.len(), n, "n={n}: reads dedup");
            let order: Vec<BoxId> = rs.iter().map(|(id, _)| *id).collect();
            assert_eq!(order, ids, "n={n}: reads follow first-read order");
            let mut merged = ReadSet::default();
            merged.record(&boxes[n - 1]);
            merged.merge_from(&rs);
            assert_eq!(merged.len(), n, "n={n}: merge dedups");
            assert_eq!(*merged.iter().next().unwrap().0, ids[n - 1]);
        }
    }

    #[test]
    fn returned_buffers_come_back_empty() {
        let b = VBox::new_raw(0i32);
        let mut bufs = TxnBuffers::take();
        bufs.ws.insert(&b.body, 1, true);
        bufs.rs.record(&b);
        bufs.footprint.push(3);
        bufs.give_back();
        let again = TxnBuffers::take();
        assert!(again.ws.is_empty() && again.ws.filter() == 0 && again.ws.journal_mark() == 0);
        assert_eq!((again.rs.len(), again.footprint.len()), (0, 0));
        again.give_back();
    }
}
