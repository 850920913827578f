//! The discrete-event queue.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a scheduled event completes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegKind {
    /// Top-level prelude: sequential work before forking children.
    Prelude,
    /// One child transaction's work + nested commit. Carries the tree commit
    /// sequence observed when the child (re)started, for sibling-conflict
    /// sampling.
    Child {
        /// Tree commit counter at child begin.
        start_tree_seq: u64,
    },
    /// Top-level postlude: sequential work after joining children.
    Postlude,
    /// The serialized global commit section.
    Commit,
    /// End of a post-abort backoff delay; the slot restarts its transaction.
    /// Unlike the other segments, backoff does not occupy a core.
    Restart,
}

/// A scheduled completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Virtual time (ns) at which the segment finishes.
    pub at: u64,
    /// Tie-break sequence to keep ordering deterministic.
    pub seq: u64,
    /// The slot (top-level thread) the segment belongs to.
    pub slot: usize,
    /// Segment kind.
    pub kind: SegKind,
}

// Events order by `(at, seq)` alone. A queue hands out each `seq` once, so
// that is already a total order, consistent with equality.
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of events ordered by `(at, seq)`.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule a segment completion at time `at`.
    pub fn schedule(&mut self, at: u64, slot: usize, kind: SegKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Event { at, seq, slot, kind }));
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }

    /// Time of the earliest event, if any.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, 0, SegKind::Prelude);
        q.schedule(10, 1, SegKind::Postlude);
        q.schedule(20, 2, SegKind::Commit);
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(10));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.at).collect();
        assert_eq!(order, vec![10, 20, 30]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_times_pop_in_schedule_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 7, SegKind::Prelude);
        q.schedule(5, 8, SegKind::Prelude);
        q.schedule(5, 9, SegKind::Prelude);
        let slots: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|e| e.slot).collect();
        assert_eq!(slots, vec![7, 8, 9], "FIFO among simultaneous events");
    }

    #[test]
    fn child_kind_carries_tree_seq() {
        let mut q = EventQueue::new();
        q.schedule(1, 0, SegKind::Child { start_tree_seq: 42 });
        match q.pop().unwrap().kind {
            SegKind::Child { start_tree_seq } => assert_eq!(start_tree_seq, 42),
            other => panic!("unexpected kind {other:?}"),
        }
    }
}
