//! Property test for the calendar-queue rewrite.
//!
//! The bucketed wheel + sorted-overflow [`EventQueue`] replaced an
//! inverted-`BinaryHeap` implementation whose contract every digest in
//! the repo depends on: pops in non-decreasing timestamp order, FIFO
//! among same-instant events (by insertion sequence), and past events
//! clamped to `now` *keeping their insertion rank at the clamped
//! instant*. This test drives random interleaved schedule/pop/clear
//! sequences — with timestamps spanning in-wheel, window-edge and
//! deep-overflow horizons, and deliberate past-event clamps — against a
//! naive reference that literally is the old heap, and checks the two
//! produce identical `(at, payload)` pop streams, clocks, peeks and
//! lengths at every step. The clears exercise the slab's reuse: slots
//! freed by pops and by a reset are relinked by later schedules. The mix
//! also holds the two calls a caller with its own event source makes:
//! `pop_due` (pop only if due by a limit) and `advance_to` (move the
//! clock over an event consumed elsewhere, refused past a pending one),
//! whose clock moves must leave later clamps and pops unchanged.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use proptest::prelude::*;
use safehome_sim::EventQueue;
use safehome_types::Timestamp;

/// The pre-rewrite implementation, verbatim in spirit: an inverted
/// max-heap over `(at, seq)` with clamp-to-now scheduling.
struct HeapQueue {
    heap: BinaryHeap<HeapEntry>,
    next_seq: u64,
    now: Timestamp,
}

struct HeapEntry {
    at: Timestamp,
    seq: u64,
    payload: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: Timestamp::ZERO,
        }
    }

    fn schedule(&mut self, at: Timestamp, payload: u32) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(HeapEntry { at, seq, payload });
    }

    fn pop(&mut self) -> Option<(Timestamp, u32)> {
        let e = self.heap.pop()?;
        self.now = e.at;
        Some((e.at, e.payload))
    }

    fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|e| e.at)
    }

    fn pop_due(&mut self, limit: Timestamp) -> Option<(Timestamp, u32)> {
        if self.peek_time()? <= limit {
            self.pop()
        } else {
            None
        }
    }

    fn advance_to(&mut self, t: Timestamp) -> bool {
        if self.peek_time().is_some_and(|next| next < t) {
            return false;
        }
        self.now = self.now.max(t);
        true
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.now = Timestamp::ZERO;
    }
}

/// One scripted operation: `kind` picks schedule (about half the time),
/// pop, `pop_due`, `advance_to` or — one kind in 50 — clear. Offsets are
/// interpreted relative to the queue's clock so clamping and horizon
/// crossings happen throughout the run, not only at the start.
fn apply_ops(ops: &[(u8, u16)]) -> Result<(), String> {
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut payload = 0u32;
    for &(kind, raw) in ops {
        match kind % 4 {
            // Reset both queues: the slab's slots are reused afterwards.
            _ if kind % 50 == 49 => {
                wheel.clear();
                heap.clear();
                prop_assert_eq!(wheel.now(), heap.now, "clear resets the clock");
                prop_assert_eq!(wheel.peek_time(), None, "clear empties the queue");
            }
            // Schedule near (in-wheel), far (second level), deep (past
            // the second level's ~4.66 h span, so overflow; some on a
            // few shared instants so one overflow instant holds several
            // events), or in the past (clamped); identical calls go to
            // both queues.
            0 | 1 => {
                let now = wheel.now().as_millis();
                let at = match (kind % 4, raw % 8) {
                    (0, _) => now + raw as u64,
                    (_, 0 | 2 | 4 | 6) => now / 2,
                    (_, 1 | 5) => now + 4_096 + raw as u64 * 7,
                    (_, 3) => now + raw as u64 * 7_919,
                    _ => 40_000_000 + (raw as u64 >> 3) % 4 * 1_000,
                };
                let at = Timestamp::from_millis(at);
                payload += 1;
                wheel.schedule(at, payload);
                heap.schedule(at, payload);
            }
            // Limits and clock targets around the next pending instant:
            // exactly at it (a pop or an advance that must go through),
            // just before it, between it and the clock, far ahead (usually
            // refused) or behind the clock (an advance that must not move
            // it back).
            3 if raw % 3 != 0 => {
                let now = heap.now.as_millis();
                let v = raw as u64 >> 2;
                let next = heap.peek_time().map_or(now + v, Timestamp::as_millis);
                let t = Timestamp::from_millis(match v % 5 {
                    0 => next,
                    1 => next.saturating_sub(1).max(now),
                    2 => now + (next - now) / 2,
                    3 => now + v * 7_919,
                    _ => now.saturating_sub(v),
                });
                if raw % 3 == 1 {
                    prop_assert_eq!(wheel.pop_due(t), heap.pop_due(t), "pop_due diverged");
                } else {
                    prop_assert_eq!(
                        wheel.advance_to(t),
                        heap.advance_to(t),
                        "advance_to verdicts diverged"
                    );
                }
                prop_assert_eq!(wheel.now(), heap.now, "clocks diverged");
            }
            _ => {
                prop_assert_eq!(
                    wheel.peek_time(),
                    heap.peek_time(),
                    "peek diverged before pop"
                );
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(w, h, "pop streams diverged");
                prop_assert_eq!(wheel.now(), heap.now, "clocks diverged");
            }
        }
        prop_assert_eq!(wheel.len(), heap.heap.len(), "lengths diverged");
        prop_assert_eq!(wheel.is_empty(), heap.heap.is_empty(), "emptiness diverged");
    }
    // Drain whatever is left: the full residual orders must agree too.
    while let Some(h) = heap.pop() {
        prop_assert_eq!(wheel.pop(), Some(h), "drain diverged");
    }
    prop_assert!(wheel.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn calendar_queue_matches_heap_reference(
        ops in prop::collection::vec((any::<u32>().prop_map(|k| (k % 251) as u8), 0u16..5000), 1..200),
    ) {
        apply_ops(&ops)?;
    }
}

#[test]
fn clamped_backlog_matches_reference_exactly() {
    // Deterministic worst case: everything lands on one clamped instant.
    let mut wheel = EventQueue::new();
    let mut heap = HeapQueue::new();
    wheel.schedule(Timestamp::from_millis(9_000), 0);
    heap.schedule(Timestamp::from_millis(9_000), 0);
    assert_eq!(wheel.pop(), heap.pop());
    for i in 1..50u32 {
        let at = Timestamp::from_millis((i % 7) as u64 * 1_000); // all past
        wheel.schedule(at, i);
        heap.schedule(at, i);
    }
    for _ in 0..49 {
        assert_eq!(wheel.pop(), heap.pop());
    }
    assert_eq!(wheel.pop(), None);
    assert_eq!(heap.pop(), None);
}
