//! Deterministic event queue.
//!
//! A hand-rolled binary min-heap flattened onto a single `Vec` of
//! `(packed key, payload)` pairs. The key packs `(time, insertion
//! sequence)` into one `u128` — `(time << 64) | seq` — so the heap's
//! sift operations compare a single integer, and the unique sequence
//! number makes the key a *total* order: events at the same instant are
//! always delivered in the order they were pushed (FIFO), regardless of
//! heap internals. That stable tie-break is what makes simulation runs
//! bit-for-bit reproducible; it is deliberately identical to the
//! `(time, seq)` lexicographic order of the previous
//! `BinaryHeap`-of-structs implementation (see the `matches_reference_*`
//! tests).

use crate::time::Time;

/// An event queue delivering `(Time, E)` pairs in non-decreasing time order
/// with FIFO tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Index-tagged min-heap: `heap[0]` is the earliest entry; children of
    /// node `i` live at `2i + 1` and `2i + 2`.
    heap: Vec<(u128, E)>,
    seq: u64,
}

/// Packs `(time, seq)` into one integer whose natural order equals the
/// lexicographic order of the pair.
#[inline]
fn pack(time: Time, seq: u64) -> u128 {
    ((time.0 as u128) << 64) | (seq as u128)
}

/// The time half of a packed key (the cast is lossless by construction).
#[inline]
fn unpack_time(key: u128) -> Time {
    Time((key >> 64) as u64)
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with capacity for `n` events.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(n),
            seq: 0,
        }
    }

    /// Schedules `event` at `time`.
    pub fn push(&mut self, time: Time, event: E) {
        let key = pack(time, self.seq);
        self.seq += 1;
        self.heap.push((key, event));
        self.sift_up(self.heap.len() - 1);
    }

    /// Removes and returns the earliest event, or `None` if the queue is
    /// empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let (key, event) = self.heap.pop()?;
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        Some((unpack_time(key), event))
    }

    /// The timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|&(key, _)| unpack_time(key))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Restores the heap property upward from `i` after a push.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= self.heap[i].0 {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    /// Restores the heap property downward from `i` after a pop.
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < n && self.heap[right].0 < self.heap[left].0 {
                smallest = right;
            }
            if self.heap[i].0 <= self.heap[smallest].0 {
                break;
            }
            self.heap.swap(i, smallest);
            i = smallest;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time(30), "c");
        q.push(Time(10), "a");
        q.push(Time(20), "b");
        assert_eq!(q.pop(), Some((Time(10), "a")));
        assert_eq!(q.pop(), Some((Time(20), "b")));
        assert_eq!(q.pop(), Some((Time(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Time(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Time(10), 1);
        q.push(Time(10), 2);
        assert_eq!(q.pop(), Some((Time(10), 1)));
        q.push(Time(10), 3);
        // 2 was pushed before 3, so it still comes first.
        assert_eq!(q.pop(), Some((Time(10), 2)));
        assert_eq!(q.pop(), Some((Time(10), 3)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Time(9), ());
        q.push(Time(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time(3)));
        assert!(!q.is_empty());
    }

    #[test]
    fn extreme_times_survive_packing() {
        let mut q = EventQueue::new();
        q.push(Time::MAX, "max");
        q.push(Time(0), "zero");
        q.push(Time(u64::MAX - 1), "almost");
        assert_eq!(q.pop(), Some((Time(0), "zero")));
        assert_eq!(q.pop(), Some((Time(u64::MAX - 1), "almost")));
        assert_eq!(q.pop(), Some((Time::MAX, "max")));
    }

    /// The previous implementation, preserved verbatim as the ordering
    /// oracle: a `BinaryHeap` of `(time, seq)`-ordered entries.
    struct Reference<E> {
        heap: BinaryHeap<(std::cmp::Reverse<(Time, u64)>, E)>,
        seq: u64,
    }

    impl<E: Ord> Reference<E> {
        fn new() -> Self {
            Reference {
                heap: BinaryHeap::new(),
                seq: 0,
            }
        }
        fn push(&mut self, time: Time, event: E) {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push((std::cmp::Reverse((time, seq)), event));
        }
        fn pop(&mut self) -> Option<(Time, E)> {
            self.heap.pop().map(|(std::cmp::Reverse((t, _)), e)| (t, e))
        }
    }

    /// Deterministic pseudo-random interleavings of pushes and pops: the
    /// flattened heap and the reference deliver identical sequences.
    #[test]
    fn matches_reference_on_random_interleavings() {
        let mut state = 0x2010_1234_5678_9abcu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _round in 0..50 {
            let mut q = EventQueue::new();
            let mut r = Reference::new();
            for op in 0..200 {
                if next() % 3 == 0 {
                    assert_eq!(q.pop(), r.pop(), "divergence at op {op}");
                } else {
                    // Small time range forces heavy same-instant ties.
                    let t = Time(next() % 16);
                    let payload = op;
                    q.push(t, payload);
                    r.push(t, payload);
                }
            }
            loop {
                let (a, b) = (q.pop(), r.pop());
                assert_eq!(a, b, "drain divergence");
                if a.is_none() {
                    break;
                }
            }
        }
    }
}
