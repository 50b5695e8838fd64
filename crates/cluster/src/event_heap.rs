//! Flat `(time, seq)`-ordered event heap.
//!
//! The original cluster engine kept pending events in
//! `BinaryHeap<Reverse<(u64, u64, Event)>>`; this replaced it with an
//! explicit d-ary-free, index-based binary min-heap over one contiguous
//! arena (`Vec<Entry>`), sifted by hand. The engine has since dropped
//! its last queue (keep-alive deadlines live in its warm matrix, see
//! `sim`); the heap stays public for callers that schedule arbitrary
//! events, and the benchmark's heap probe measures it. Flattening buys
//! three things on a per-event hot path:
//!
//! - no `Reverse` tuple comparisons through trait dispatch — keys compare
//!   as two integer fields inline;
//! - one contiguous allocation that is reused across pushes (the arena
//!   never shrinks while the sim runs), so pushing is a bounds-checked
//!   store plus a sift-up;
//! - the sequence number lives inside the heap: `push` stamps each event
//!   with a monotonically increasing `seq`, making the pop order a total
//!   order (`time` first, insertion order for ties) by construction.
//!
//! Determinism argument: `pop` returns the minimum `(time, seq)` entry and
//! `seq` is unique, so for any push history the pop sequence is unique —
//! there is no configuration of the heap array that can reorder ties. The
//! property test in `tests/event_heap.rs` drives arbitrary interleaved
//! push/pop programs against a `BTreeMap`-keyed reference and requires
//! identical output.

#![deny(clippy::disallowed_types, clippy::cast_possible_truncation)]

/// One pending event: the key the heap orders by plus the payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry<E> {
    time: u64,
    seq: u64,
    ev: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

/// A `(time, seq)`-ordered min-heap over a flat arena, stamping each
/// pushed event with the next sequence number.
#[derive(Clone, Debug)]
pub struct EventHeap<E> {
    arena: Vec<Entry<E>>,
    next_seq: u64,
}

impl<E: Copy> Default for EventHeap<E> {
    fn default() -> Self {
        EventHeap::new()
    }
}

impl<E: Copy> EventHeap<E> {
    /// An empty heap; the first pushed event gets `seq` 0.
    pub fn new() -> Self {
        EventHeap {
            arena: Vec::new(),
            next_seq: 0,
        }
    }

    /// An empty heap with room for `cap` pending events before the arena
    /// reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        EventHeap {
            arena: Vec::with_capacity(cap),
            next_seq: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }

    /// Sequence numbers handed out so far (== total events ever pushed).
    pub fn seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedules `ev` at `time`, stamping it with the next sequence
    /// number, and returns that number.
    #[inline]
    pub fn push(&mut self, time: u64, ev: E) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.arena.push(Entry { time, seq, ev });
        self.sift_up(self.arena.len() - 1);
        seq
    }

    /// Removes and returns the earliest `(time, seq, event)`, or `None`
    /// when drained.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, u64, E)> {
        let last = self.arena.len().checked_sub(1)?;
        self.arena.swap(0, last);
        let top = self.arena.pop().expect("len checked above");
        if !self.arena.is_empty() {
            self.sift_down(0);
        }
        Some((top.time, top.seq, top.ev))
    }

    /// The earliest pending `(time, seq)` key without removing it.
    pub fn peek_key(&self) -> Option<(u64, u64)> {
        self.arena.first().map(Entry::key)
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.arena[parent].key() <= self.arena[i].key() {
                break;
            }
            self.arena.swap(parent, i);
            i = parent;
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.arena.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < n && self.arena[right].key() < self.arena[left].key() {
                smallest = right;
            }
            if self.arena[i].key() <= self.arena[smallest].key() {
                break;
            }
            self.arena.swap(i, smallest);
            i = smallest;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_insertion_tiebreak() {
        let mut h = EventHeap::new();
        h.push(30, 'c');
        h.push(10, 'a');
        h.push(10, 'b');
        h.push(20, 'd');
        assert_eq!(h.len(), 4);
        assert_eq!(h.peek_key(), Some((10, 1)));
        let order: Vec<(u64, u64, char)> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(
            order,
            vec![(10, 1, 'a'), (10, 2, 'b'), (20, 3, 'd'), (30, 0, 'c')]
        );
        assert!(h.is_empty());
        assert_eq!(h.seq(), 4, "four events were ever scheduled");
    }

    #[test]
    fn interleaved_push_pop_keeps_total_order() {
        let mut h = EventHeap::new();
        h.push(5, 0u32);
        h.push(1, 1);
        assert_eq!(h.pop(), Some((1, 1, 1)));
        h.push(1, 2); // same time as the popped event, later seq
        h.push(0, 3);
        assert_eq!(h.pop(), Some((0, 3, 3)));
        assert_eq!(h.pop(), Some((1, 2, 2)));
        assert_eq!(h.pop(), Some((5, 0, 0)));
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn capacity_constructor_starts_empty() {
        let h: EventHeap<u8> = EventHeap::with_capacity(64);
        assert!(h.is_empty());
        assert_eq!(h.peek_key(), None);
        assert_eq!(h.seq(), 0);
    }
}
