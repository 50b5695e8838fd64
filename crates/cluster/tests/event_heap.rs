//! Property tests of the flat `(time, seq)` event heap against a
//! `BTreeMap`-keyed reference: for arbitrary interleaved push/pop
//! programs the two structures must agree on every popped entry and on
//! every intermediate length — the heap's sift code can never reorder
//! ties or lose an event.

use memento_cluster::EventHeap;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One step of an interleaved program: schedule an event at a time, or
/// pop the earliest pending one.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push(u64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Biased toward pushes (3:2, via repeated arms — the vendored
    // prop_oneof! is unweighted) so programs build real backlogs; the
    // tight time range forces plenty of exact (time) ties.
    prop_oneof![
        (0u64..32).prop_map(Op::Push),
        (0u64..32).prop_map(Op::Push),
        (0u64..32).prop_map(Op::Push),
        Just(Op::Pop),
        Just(Op::Pop),
    ]
}

/// Reference implementation: a `BTreeMap` keyed by `(time, seq)` with
/// its own monotone seq counter. Its iteration order is the total event
/// order by definition.
#[derive(Default)]
struct Reference {
    map: BTreeMap<(u64, u64), u32>,
    next_seq: u64,
}

impl Reference {
    fn push(&mut self, time: u64, ev: u32) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.map.insert((time, seq), ev);
        seq
    }

    fn pop(&mut self) -> Option<(u64, u64, u32)> {
        let (&(time, seq), &ev) = self.map.iter().next()?;
        self.map.remove(&(time, seq));
        Some((time, seq, ev))
    }
}

proptest! {
    #[test]
    fn heap_matches_btreemap_reference(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut heap = EventHeap::new();
        let mut reference = Reference::default();
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Push(time) => {
                    let payload = i as u32;
                    let seq = heap.push(time, payload);
                    let ref_seq = reference.push(time, payload);
                    prop_assert_eq!(seq, ref_seq, "seq stamping must match");
                }
                Op::Pop => {
                    prop_assert_eq!(heap.pop(), reference.pop());
                }
            }
            prop_assert_eq!(heap.len(), reference.map.len());
            prop_assert_eq!(heap.peek_key(), reference.map.keys().next().copied());
        }
        // Drain both: the tails must agree event for event.
        loop {
            let (a, b) = (heap.pop(), reference.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
