//! Per-parent nesting context: the nest clock, the lock-free nest index of
//! child-committed tentative versions, and the merged read set.
//!
//! Closed nesting means a child's writes become visible *to its siblings*
//! when the child commits into the parent, and reach main memory only when
//! the top-level ancestor commits. Each transaction that spawns children owns
//! a [`NestCtx`]:
//!
//! * `clock` — a tree-local version counter. A child snapshots it at begin
//!   (its *cap*) and at commit validates that no sibling installed a newer
//!   version of any box it read.
//! * `index` — tentative versions `(nest_version, value)` installed by
//!   committed children, ordered per box. Readable **without any lock**; see
//!   below.
//! * `merged_rs` — the union of committed children's read sets; validated
//!   again one level up when this transaction itself commits.
//!
//! # Lock-free read protocol
//!
//! The index is a fixed array of bucket head pointers; each bucket is a
//! singly-linked list of per-box chains, and each chain is a singly-linked
//! list of version nodes in **descending** version order. All mutation is
//! single-writer: nested commits serialize on [`NestCtx::commit_mx`], and
//! every pointer a reader can follow is published with a `Release` store
//! (paired with `Acquire` loads on the reader side). Nodes are only freed
//! when the whole index drops — a `NestCtx` lives for one published batch —
//! so readers never race reclamation.
//!
//! Only a *published* batch has a `NestCtx`. Its executors are the parent
//! thread plus at most `c − 1` helpers of the child scheduler; the drain
//! barrier in `Pool::hand_off` bounds every reader's lifetime to the index's, and sibling commits serialize on
//! `commit_mx`. A *withheld* batch — every batch at `c = 1`, and the prefix
//! of one published late — has one executor, the parent thread, and no
//! `NestCtx` at all: its children run one after another on the parent's own
//! `Txn` (see `Txn::parallel`). A late-published remainder gets a fresh
//! `NestCtx` whose parent write-set snapshot already holds the prefix.
//!
//! Visibility contract: a nested commit **installs its nodes first and
//! publishes the nest clock after** ([`NestCtx::publish`], `Release`). A
//! child whose cap (an `Acquire` read of the clock) is `>= v` is therefore
//! guaranteed to find every node of commit `v` — the pairing the former
//! store mutex used to provide by exclusion. A reader may transiently see
//! nodes *newer* than its cap (installed but not yet published); the
//! cap-bounded lookup skips them by version, so they are invisible, exactly
//! as required.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use super::sets::{ReadSet, WsEntry};
use crate::vbox::{filter_bits, mix_id, AnyVBox, BoxId, ErasedValue};

/// Buckets in a [`NestIndex`] (power of two). A nest index holds the boxes
/// written by one batch of children — typically a handful — so 64 buckets
/// keep chains at ~1 node while the array stays one cache line of pointers
/// per 8 buckets.
const NEST_BUCKETS: usize = 64;

#[inline]
fn bucket_of(id: BoxId) -> usize {
    // Use a different slice of the mixed id than `filter_bits` does, so
    // bucket collisions and filter collisions stay independent.
    (mix_id(id) >> 12) as usize & (NEST_BUCKETS - 1)
}

/// One tentative version of one box. `older` points at the next-lower
/// version of the same box (descending chain); owned by the index, freed in
/// [`NestIndex::drop`].
struct VersionNode {
    version: u32,
    value: ErasedValue,
    older: *const VersionNode,
}

/// Per-box chain head. `next` links chains within a bucket.
struct ChainNode {
    id: BoxId,
    vbox: Arc<dyn AnyVBox>,
    /// Newest version; readers walk `Acquire`-loaded heads downward.
    newest: AtomicPtr<VersionNode>,
    next: *const ChainNode,
}

/// Append-only, capped-lookup version index readable without locks.
///
/// Single writer (the committer holding [`NestCtx::commit_mx`]), any number
/// of concurrent readers.
pub(crate) struct NestIndex {
    buckets: [AtomicPtr<ChainNode>; NEST_BUCKETS],
    /// Bloom filter ([`filter_bits`]) over every installed box id, so readers
    /// skip the bucket walk on the common miss. Or'ed before the clock
    /// publish, hence visible to any reader whose cap covers the install.
    filter: AtomicU64,
}

// SAFETY: the raw pointers reference heap nodes that are (a) published only
// via Release stores after full initialization, (b) mutated only by the
// single writer serialized on the owning `NestCtx::commit_mx`, and (c) freed
// only in `Drop` with exclusive access. `ChainNode`/`VersionNode` payloads
// (`Arc<dyn AnyVBox>`, `ErasedValue`) are themselves `Send + Sync`.
unsafe impl Send for NestIndex {}
unsafe impl Sync for NestIndex {}

impl NestIndex {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            filter: AtomicU64::new(0),
        }
    }

    /// The Bloom filter word over every installed box id.
    #[inline]
    pub(crate) fn filter(&self) -> u64 {
        self.filter.load(Ordering::Relaxed)
    }

    fn find_chain(&self, id: BoxId) -> Option<&ChainNode> {
        let mut p = self.buckets[bucket_of(id)].load(Ordering::Acquire) as *const ChainNode;
        while !p.is_null() {
            // SAFETY: non-null chain pointers are fully initialized before
            // their Release publication and live until the index drops.
            let node = unsafe { &*p };
            if node.id == id {
                return Some(node);
            }
            p = node.next;
        }
        None
    }

    /// Newest value for `id` with nest version `<= cap`, lock-free.
    pub(crate) fn lookup(&self, id: BoxId, cap: u32) -> Option<ErasedValue> {
        let chain = self.find_chain(id)?;
        let mut p = chain.newest.load(Ordering::Acquire) as *const VersionNode;
        while !p.is_null() {
            // SAFETY: as in `find_chain`; version nodes are immutable once
            // published.
            let node = unsafe { &*p };
            if node.version <= cap {
                return Some(Arc::clone(&node.value));
            }
            p = node.older;
        }
        None
    }

    /// Newest nest version recorded for `id` with version `<= cap` (version
    /// only, for visibility assertions in tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn latest_at(&self, id: BoxId, cap: u32) -> Option<u32> {
        let chain = self.find_chain(id)?;
        let mut p = chain.newest.load(Ordering::Acquire) as *const VersionNode;
        while !p.is_null() {
            let node = unsafe { &*p };
            if node.version <= cap {
                return Some(node.version);
            }
            p = node.older;
        }
        None
    }

    /// Newest nest version recorded for `id` (0 if never written in this
    /// nest; nest versions start at 1). Callers validating against this must
    /// hold [`NestCtx::commit_mx`] — it reads unpublished installs too.
    pub(crate) fn latest_version(&self, id: BoxId) -> u32 {
        match self.find_chain(id) {
            None => 0,
            Some(chain) => {
                let p = chain.newest.load(Ordering::Acquire);
                // Null only in the publication window of a brand-new chain,
                // which the commit lock excludes for validating callers.
                if p.is_null() {
                    0
                } else {
                    // SAFETY: as in `lookup`.
                    unsafe { (*p).version }
                }
            }
        }
    }

    /// Install `entry` at `version`. Caller holds [`NestCtx::commit_mx`]
    /// (single writer); concurrent lock-free readers are fine.
    ///
    /// # Panics
    /// Panics if `version` is not strictly newer than the newest installed
    /// version of the same box. A non-monotonic install would silently make
    /// the descending chain serve wrong values to capped lookups, so this is
    /// a hard invariant, enforced in release builds too.
    pub(crate) fn install(&self, entry: WsEntry, version: u32) {
        let id = entry.vbox.id();
        self.filter.fetch_or(filter_bits(id), Ordering::Relaxed);
        match self.find_chain(id) {
            Some(chain) => {
                // Writer-exclusive: Relaxed load of our own prior stores.
                let head = chain.newest.load(Ordering::Relaxed);
                if !head.is_null() {
                    // SAFETY: as in `lookup`.
                    let newest = unsafe { (*head).version };
                    assert!(
                        version > newest,
                        "nest index: non-monotonic install for box {id}: \
                         version {version} <= newest installed {newest} \
                         (nested commits must serialize on the commit lock)"
                    );
                }
                let node = Box::into_raw(Box::new(VersionNode {
                    version,
                    value: entry.value,
                    older: head,
                }));
                chain.newest.store(node, Ordering::Release);
            }
            None => {
                let vnode = Box::into_raw(Box::new(VersionNode {
                    version,
                    value: entry.value,
                    older: std::ptr::null(),
                }));
                let bucket = &self.buckets[bucket_of(id)];
                let head = bucket.load(Ordering::Relaxed);
                let cnode = Box::into_raw(Box::new(ChainNode {
                    id,
                    vbox: entry.vbox,
                    newest: AtomicPtr::new(vnode),
                    next: head,
                }));
                bucket.store(cnode, Ordering::Release);
            }
        }
    }

    /// The newest value of every box written in this nest, for merging into
    /// the enclosing level (or main memory, at the root). Call only when the
    /// index is quiescent (the batch has drained) or under the commit lock —
    /// otherwise an in-flight unpublished commit could be folded in.
    pub(crate) fn newest_entries(&self) -> Vec<WsEntry> {
        let mut out = Vec::new();
        for bucket in &self.buckets {
            let mut p = bucket.load(Ordering::Acquire) as *const ChainNode;
            while !p.is_null() {
                // SAFETY: as in `find_chain`.
                let chain = unsafe { &*p };
                let head = chain.newest.load(Ordering::Acquire);
                if !head.is_null() {
                    // SAFETY: as in `lookup`.
                    let value = unsafe { Arc::clone(&(*head).value) };
                    out.push(WsEntry { vbox: Arc::clone(&chain.vbox), value });
                }
                p = chain.next;
            }
        }
        out
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn written_box_count(&self) -> usize {
        let mut n = 0;
        for bucket in &self.buckets {
            let mut p = bucket.load(Ordering::Acquire) as *const ChainNode;
            while !p.is_null() {
                n += 1;
                // SAFETY: as in `find_chain`.
                p = unsafe { &*p }.next;
            }
        }
        n
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn is_empty(&self) -> bool {
        self.written_box_count() == 0
    }
}

impl Drop for NestIndex {
    fn drop(&mut self) {
        for bucket in &mut self.buckets {
            let mut c = *bucket.get_mut();
            while !c.is_null() {
                // SAFETY: `&mut self` — no reader or writer can be live; each
                // node was created by `Box::into_raw` and is freed once.
                let chain = unsafe { Box::from_raw(c) };
                let mut v = chain.newest.load(Ordering::Relaxed);
                while !v.is_null() {
                    let vnode = unsafe { Box::from_raw(v) };
                    v = vnode.older as *mut VersionNode;
                }
                c = chain.next as *mut ChainNode;
            }
        }
    }
}

/// Nesting context owned by a transaction that spawned children.
pub(crate) struct NestCtx {
    clock: AtomicU32,
    /// Serializes nested commits: validation, install and clock publish
    /// happen while holding it. Readers do **not** take it; the locked-read
    /// oracle takes it per ancestor probe to reproduce the legacy locked
    /// read path as a benchmark baseline.
    pub(crate) commit_mx: Mutex<()>,
    /// Taken per ancestor write-set probe by the locked-read oracle only —
    /// stands in for the `Arc<Mutex<WriteSet>>` the snapshot scheme removed,
    /// so the baseline keeps the old path's lock count and sharing topology.
    #[cfg(any(test, feature = "oracle"))]
    pub(crate) ws_mx: Mutex<()>,
    /// Sibling-visible tentative versions (see module docs).
    pub(crate) index: NestIndex,
    /// Read sets of committed children, merged for revalidation one level up.
    pub(crate) merged_rs: Mutex<ReadSet>,
}

impl NestCtx {
    pub(crate) fn new() -> Self {
        Self {
            clock: AtomicU32::new(0),
            commit_mx: Mutex::new(()),
            #[cfg(any(test, feature = "oracle"))]
            ws_mx: Mutex::new(()),
            index: NestIndex::new(),
            merged_rs: Mutex::new(ReadSet::new()),
        }
    }

    /// Current published nest version; children snapshot this at begin. The
    /// `Acquire` pairs with the `Release` in [`NestCtx::publish`], making
    /// every install at versions `<=` the returned cap visible.
    pub(crate) fn now(&self) -> u32 {
        self.clock.load(Ordering::Acquire)
    }

    /// The version the next nested commit installs at. Writer-exclusive:
    /// call only under [`NestCtx::commit_mx`].
    pub(crate) fn next_version(&self) -> u32 {
        self.clock.load(Ordering::Relaxed) + 1
    }

    /// Publish `version`: every install (and filter bit) stored before this
    /// call becomes visible to any reader that observes the new clock value.
    /// Writer-exclusive; the install-then-publish order is what lets readers
    /// skip the store lock entirely.
    pub(crate) fn publish(&self, version: u32) {
        debug_assert_eq!(
            version,
            self.clock.load(Ordering::Relaxed) + 1,
            "nested commits serialize on commit_mx"
        );
        self.clock.store(version, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vbox::VBox;
    use std::sync::Arc;

    fn entry(b: &VBox<i32>, v: i32) -> WsEntry {
        WsEntry { vbox: b.as_any(), value: Arc::new(v) }
    }

    fn as_i32(v: &ErasedValue) -> i32 {
        *v.downcast_ref::<i32>().unwrap()
    }

    #[test]
    fn index_lookup_respects_cap() {
        let b = VBox::new_raw(0);
        let s = NestIndex::new();
        s.install(entry(&b, 10), 1);
        s.install(entry(&b, 20), 3);
        assert!(s.lookup(b.id(), 0).is_none());
        assert_eq!(as_i32(&s.lookup(b.id(), 1).unwrap()), 10);
        assert_eq!(as_i32(&s.lookup(b.id(), 2).unwrap()), 10);
        assert_eq!(as_i32(&s.lookup(b.id(), 3).unwrap()), 20);
        assert_eq!(as_i32(&s.lookup(b.id(), u32::MAX).unwrap()), 20);
    }

    #[test]
    fn index_latest_version_zero_when_absent() {
        let s = NestIndex::new();
        assert_eq!(s.latest_version(42), 0);
        assert!(s.is_empty());
        assert_eq!(s.filter(), 0);
    }

    #[test]
    fn index_newest_entries_take_last() {
        let a = VBox::new_raw(0);
        let b = VBox::new_raw(0);
        let s = NestIndex::new();
        s.install(entry(&a, 1), 1);
        s.install(entry(&a, 2), 2);
        s.install(entry(&b, 9), 2);
        assert_eq!(s.written_box_count(), 2);
        let mut newest: Vec<i32> = s.newest_entries().iter().map(|e| as_i32(&e.value)).collect();
        newest.sort();
        assert_eq!(newest, vec![2, 9]);
    }

    #[test]
    fn index_filter_admits_installed_boxes() {
        let boxes: Vec<VBox<i32>> = (0..6).map(|_| VBox::new_raw(0)).collect();
        let s = NestIndex::new();
        for (i, b) in boxes.iter().enumerate() {
            s.install(entry(b, i as i32), i as u32 + 1);
        }
        for b in &boxes {
            let bits = filter_bits(b.id());
            assert_eq!(s.filter() & bits, bits, "no false negatives");
        }
    }

    #[test]
    fn colliding_bucket_chains_stay_separate() {
        // Force many boxes through the 64 buckets; with 200 boxes every
        // bucket holds multiple chains, exercising the chain walk.
        let boxes: Vec<VBox<i32>> = (0..200).map(|_| VBox::new_raw(0)).collect();
        let s = NestIndex::new();
        for (i, b) in boxes.iter().enumerate() {
            s.install(entry(b, i as i32), i as u32 + 1);
        }
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(as_i32(&s.lookup(b.id(), u32::MAX).unwrap()), i as i32);
            assert_eq!(s.latest_version(b.id()), i as u32 + 1);
        }
        assert_eq!(s.written_box_count(), 200);
    }

    #[test]
    #[should_panic(expected = "non-monotonic install")]
    fn non_monotonic_install_panics_in_release_too() {
        let b = VBox::new_raw(0);
        let s = NestIndex::new();
        s.install(entry(&b, 1), 3);
        s.install(entry(&b, 2), 3); // same version: protocol corruption
    }

    #[test]
    #[should_panic(expected = "non-monotonic install")]
    fn regressing_install_panics() {
        let b = VBox::new_raw(0);
        let s = NestIndex::new();
        s.install(entry(&b, 1), 5);
        s.install(entry(&b, 2), 4);
    }

    #[test]
    fn ctx_clock_publish_sequences() {
        let ctx = NestCtx::new();
        assert_eq!(ctx.now(), 0);
        assert_eq!(ctx.next_version(), 1);
        ctx.publish(1);
        assert_eq!(ctx.now(), 1);
        assert_eq!(ctx.next_version(), 2);
        ctx.publish(2);
        assert_eq!(ctx.now(), 2);
    }

    /// The loom-style check of the snapshot publish/read pair, run as a
    /// seeded schedule-perturbation stress (loom itself is not vendored):
    /// a committer thread installs version v and only then publishes v,
    /// with per-seed jitter between the two steps; readers continuously
    /// snapshot a cap and assert the capped lookup serves exactly version
    /// cap. A publish-before-install reordering (the bug this protocol
    /// exists to prevent) fails the assertion within a few schedules.
    #[test]
    fn publish_read_pair_never_misses_capped_installs() {
        use std::sync::atomic::AtomicBool;

        for seed in 0..12u64 {
            let ctx = Arc::new(NestCtx::new());
            let b = VBox::new_raw(0i32);
            let id = b.id();
            let stop = Arc::new(AtomicBool::new(false));

            let readers: Vec<_> = (0..2)
                .map(|_| {
                    let ctx = Arc::clone(&ctx);
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        while !stop.load(Ordering::Acquire) {
                            let cap = ctx.now();
                            if cap > 0 {
                                // Published cap ⇒ installs <= cap visible; the
                                // single box is written once per version, so
                                // the capped lookup must land exactly on cap.
                                let got = ctx.index.latest_at(id, cap);
                                assert_eq!(
                                    got,
                                    Some(cap),
                                    "reader with cap {cap} missed a published install"
                                );
                            }
                        }
                    })
                })
                .collect();

            let spin = crate::vbox::mix_id(seed) % 300;
            for v in 1..=400u32 {
                let _g = ctx.commit_mx.lock();
                let version = ctx.next_version();
                assert_eq!(version, v);
                ctx.index.install(entry(&b, v as i32), version);
                // Seeded jitter inside the install→publish window, where a
                // torn protocol would be observable.
                for _ in 0..spin {
                    std::hint::spin_loop();
                }
                ctx.publish(version);
            }

            stop.store(true, Ordering::Release);
            for r in readers {
                r.join().unwrap();
            }
        }
    }
}
