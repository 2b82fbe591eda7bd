//! Virtual-time event queue.
//!
//! A hashed timing wheel over an overflow heap (Varghese & Lauck,
//! "Hashed and Hierarchical Timing Wheels", SOSP 1987): a near wheel of
//! per-millisecond FIFO buckets covers the `WHEEL` ms from the clock on,
//! and one binary heap holds every later event. A home's queue holds
//! only in-flight work (device I/O, probe re-arms, engine timers and
//! released dependents), since the harness keeps the workload's arrivals
//! in a presorted lane beside it and moves the clock over them with
//! [`EventQueue::advance_to`]. Nearly all of that work is due within a
//! few seconds, so the discrete-event hot loop (`safehome-harness`)
//! schedules and pops it with O(1) list operations and no comparisons;
//! the heap takes long timers and the service runner's shared wheel,
//! which parks homes minutes to hours ahead. The pop-order contract is
//! that of a heap over (time, insertion order) (see [`EventQueue`]).
//!
//! Storage is one slab `Vec` of entries per queue. Every bucket is an
//! intrusive FIFO list of slab indices threaded through the entries'
//! `next` links, and freed entries form a free list through the same
//! links. A bucket costs 8 B whether or not the run ever used it, so a
//! queue's memory is one bucket array plus what follows the peak number
//! of live events, not the number of instants it has touched.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use safehome_types::Timestamp;

/// Wheel width in buckets (= milliseconds of near-future horizon). One
/// bucket per millisecond keeps every bucket single-instant, so FIFO
/// order within a bucket *is* insertion order and no per-entry sequence
/// numbers are needed. Sized past the detector's probe interval (1 s) so
/// periodic probe rescheduling — the dominant event load of
/// failure-injecting runs — stays on the O(1) wheel path. Must be a
/// power of two.
const WHEEL: usize = 4096;
const WHEEL_MASK: u64 = (WHEEL as u64) - 1;
/// Occupancy-bitmap words for the wheel.
const WORDS: usize = WHEEL / 64;

/// Null slab index: ends a list and marks an empty one.
const NIL: u32 = u32::MAX;

/// One slab slot. A pending event (`payload` is `Some`) sits in exactly
/// one bucket list or far-heap key; a freed slot (`payload` is `None`,
/// so it keeps no payload alive) sits on the free list.
struct Entry<E> {
    /// Due instant in milliseconds, already clamped to the clock.
    at: u64,
    next: u32,
    payload: Option<E>,
}

/// An intrusive FIFO list of slab entries. Empty iff `head` is `NIL`
/// (`tail` is then stale); otherwise the `tail` entry's `next` is `NIL`.
#[derive(Clone, Copy)]
struct Fifo {
    head: u32,
    tail: u32,
}

impl Fifo {
    const EMPTY: Fifo = Fifo {
        head: NIL,
        tail: NIL,
    };

    fn is_empty(self) -> bool {
        self.head == NIL
    }

    /// Links the unlinked entry `idx` in at the back.
    fn push<E>(&mut self, slab: &mut [Entry<E>], idx: u32) {
        slab[idx as usize].next = NIL;
        if self.is_empty() {
            self.head = idx;
        } else {
            slab[self.tail as usize].next = idx;
        }
        self.tail = idx;
    }

    /// Unlinks the front entry of a non-empty list and returns its index.
    fn pop<E>(&mut self, slab: &[Entry<E>]) -> u32 {
        let idx = self.head;
        self.head = slab[idx as usize].next;
        idx
    }
}

/// A far-heap key, ordered by due instant and then by schedule rank, so
/// same-instant far events leave the heap in insertion order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Far {
    at: u64,
    rank: u64,
    idx: u32,
}

/// A deterministic discrete-event queue.
///
/// Events pop in non-decreasing timestamp order; events scheduled for the
/// same instant pop in insertion order. Popping advances the queue's
/// clock, and so does [`EventQueue::advance_to`] for a caller that
/// consumed an event from its own source; scheduling an event in the
/// past is clamped to `now` (this matches how an edge hub would process
/// a backlog: never before now).
///
/// # Structure
///
/// Every pending event is one entry of a slab `Vec`, on one of two
/// levels under one invariant: the **near wheel** holds exactly the
/// events due less than `WHEEL` ms after the clock, and the **far heap**
/// holds every other one.
///
/// - The wheel is `WHEEL` per-millisecond buckets. Bucket `t &
///   WHEEL_MASK` lists the events due at instant `t` in insertion order;
///   the window spans one period, so each residue names one instant. An
///   occupancy bitmap finds the earliest bucket in constant time.
/// - The far heap is a min-heap of (instant, schedule rank, slab index)
///   keys.
///
/// A schedule goes to the wheel when its instant is inside the window
/// and to the heap otherwise. The window slides with the clock, and one
/// rule keeps the invariant: whenever the clock moves (a pop to a later
/// instant, [`EventQueue::advance_to`], or a pop that finds the wheel
/// empty and jumps to the heap's head), the heap's entries now inside
/// the window move onto their buckets in (instant, rank) order. Every
/// instant's events sit on one level, since the window covered none of
/// a heap entry's instant until the pull, so a pulled instant keeps its
/// insertion order on the wheel and later schedules queue behind it. A
/// clamped event lands on the wheel at the clock's bucket, behind every
/// event already due there, and so keeps its insertion rank.
///
/// A bucket is two `u32` slab indices (8 B), so the fixed cost is one
/// 32 KiB bucket array and the rest follows the peak number of live
/// events. [`EventQueue::clear`] keeps the slab's and the heap's
/// capacity, so a pooled queue reaches steady state with zero
/// allocations per event.
///
/// # Examples
///
/// ```
/// use safehome_sim::EventQueue;
/// use safehome_types::Timestamp;
///
/// let mut q = EventQueue::new();
/// q.schedule(Timestamp::from_millis(20), "b");
/// q.schedule(Timestamp::from_millis(10), "a");
/// assert_eq!(q.pop(), Some((Timestamp::from_millis(10), "a")));
/// assert_eq!(q.now(), Timestamp::from_millis(10));
/// ```
pub struct EventQueue<E> {
    /// Every pending event, plus the freed slots awaiting reuse.
    slab: Vec<Entry<E>>,
    /// Head of the free-slot list threaded through `next` (`NIL`: none).
    free: u32,
    /// `buckets[t & WHEEL_MASK]` lists the events due at instant `t` for
    /// `t` within the window, in insertion order.
    buckets: Vec<Fifo>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Events in wheel buckets.
    wheel_len: usize,
    /// Every event due `WHEEL` ms or more after the clock.
    far: BinaryHeap<Reverse<Far>>,
    /// Rank of the next event pushed onto `far`.
    next_rank: u64,
    now: Timestamp,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            buckets: vec![Fifo::EMPTY; WHEEL],
            occupied: [0; WORDS],
            wheel_len: 0,
            far: BinaryHeap::new(),
            next_rank: 0,
            now: Timestamp::ZERO,
        }
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time (time of the last popped event).
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.far.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap footprint in bytes, in O(1): the slab's and the
    /// far heap's capacity times their entry sizes, plus the bucket
    /// array. Retained (not just occupied) capacity is what a resident
    /// home pins in memory, so this is the number the service runner's
    /// eviction accounting wants; it follows the peak number of events
    /// the queue has held.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slab.capacity() * std::mem::size_of::<Entry<E>>()
            + self.buckets.capacity() * std::mem::size_of::<Fifo>()
            + self.far.capacity() * std::mem::size_of::<Reverse<Far>>()
    }

    /// Empties the queue and resets the clock to zero, dropping every
    /// pending payload but keeping the slab's and the heap's capacity and
    /// the bucket array, so a recycled queue schedules and pops without
    /// allocating. Used by the harness's per-thread queue pool.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        if self.wheel_len > 0 {
            self.buckets.fill(Fifo::EMPTY);
        }
        self.occupied = [0; WORDS];
        self.wheel_len = 0;
        self.far.clear();
        self.next_rank = 0;
        self.now = Timestamp::ZERO;
    }

    /// Schedules `payload` at time `at` (clamped to now if in the past).
    pub fn schedule(&mut self, at: Timestamp, payload: E) {
        let at = at.max(self.now).as_millis();
        let idx = self.alloc(at, payload);
        if self.in_window(at) {
            self.link(idx, at);
        } else {
            let rank = self.next_rank;
            self.next_rank += 1;
            self.far.push(Reverse(Far { at, rank, idx }));
        }
    }

    /// Stores a new entry, reusing a freed slot when there is one, and
    /// returns its (still unlinked) index.
    fn alloc(&mut self, at: u64, payload: E) -> u32 {
        let entry = Entry {
            at,
            next: NIL,
            payload: Some(payload),
        };
        if self.free == NIL {
            let idx = u32::try_from(self.slab.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event queue slab outgrew u32 indices");
            self.slab.push(entry);
            return idx;
        }
        let idx = self.free;
        let slot = &mut self.slab[idx as usize];
        debug_assert!(slot.payload.is_none(), "free list reached a live entry");
        self.free = slot.next;
        *slot = entry;
        idx
    }

    /// Takes the payload out of the unlinked entry `idx` and puts the
    /// slot on the free list.
    fn release(&mut self, idx: u32) -> (u64, E) {
        let slot = &mut self.slab[idx as usize];
        let payload = slot.payload.take().expect("linked entries are live");
        slot.next = self.free;
        self.free = idx;
        (slot.at, payload)
    }

    /// `true` when instant `at`, never before the clock, is inside the
    /// wheel's window. Written as a distance so it cannot overflow.
    fn in_window(&self, at: u64) -> bool {
        at - self.now.as_millis() < WHEEL as u64
    }

    /// Links the unlinked entry `idx`, due at `at` inside the window, at
    /// the back of its bucket.
    fn link(&mut self, idx: u32, at: u64) {
        let b = (at & WHEEL_MASK) as usize;
        self.buckets[b].push(&mut self.slab, idx);
        self.occupied[b / 64] |= 1 << (b % 64);
        self.wheel_len += 1;
    }

    /// Moves the clock forward to `t`, which no pending event precedes,
    /// and pulls every far event now inside the window onto its bucket
    /// in (instant, rank) order.
    fn advance_clock(&mut self, t: u64) {
        self.now = Timestamp::from_millis(t);
        while let Some(&Reverse(Far { at, idx, .. })) = self.far.peek() {
            if !self.in_window(at) {
                break;
            }
            self.far.pop();
            self.link(idx, at);
        }
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        self.pop_due(Timestamp::from_millis(u64::MAX))
    }

    /// Pops the next event only if it is due at or before `limit`. A later
    /// event stays pending and the clock does not move, so a caller can
    /// decide on the earliest instant without consuming past it.
    pub fn pop_due(&mut self, limit: Timestamp) -> Option<(Timestamp, E)> {
        if self.wheel_len == 0 {
            let Reverse(head) = self.far.peek()?;
            if head.at > limit.as_millis() {
                return None;
            }
            // The jump pulls the head onto the wheel.
            self.advance_clock(head.at);
        }
        let (b, at) = self.first_bucket().expect("the wheel holds an event");
        if at > limit.as_millis() {
            return None;
        }
        let idx = self.buckets[b].pop(&self.slab);
        if self.buckets[b].is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.wheel_len -= 1;
        let (due, payload) = self.release(idx);
        debug_assert_eq!(due, at, "a wheel bucket held an instant outside the window");
        if at > self.now.as_millis() {
            self.advance_clock(at);
        }
        Some((self.now, payload))
    }

    /// Moves the clock forward to `t` without popping, exactly as popping
    /// an event due at `t` would: later schedules clamp to it. Returns
    /// `false` and changes nothing when an event is pending before `t`,
    /// since the clock must never pass a pending event. A `t` before the
    /// clock leaves the clock where it is.
    pub fn advance_to(&mut self, t: Timestamp) -> bool {
        if self.peek_time().is_some_and(|next| next < t) {
            return false;
        }
        if t > self.now {
            self.advance_clock(t.as_millis());
        }
        true
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        let at = match self.first_bucket() {
            Some((_, at)) => at,
            None => self.far.peek()?.0.at,
        };
        Some(Timestamp::from_millis(at))
    }

    /// The earliest occupied bucket and its instant. Every wheel event is
    /// due less than `WHEEL` ms after the clock, so the first set bit at
    /// cyclic distance `>= 0` from the clock's residue is the earliest,
    /// and that distance added to the clock is its instant.
    fn first_bucket(&self) -> Option<(usize, u64)> {
        if self.wheel_len == 0 {
            return None;
        }
        let now = self.now.as_millis();
        let from = (now & WHEEL_MASK) as usize;
        let mut w = from / 64;
        let mut word = self.occupied[w] & (!0u64 << (from % 64));
        for _ in 0..=WORDS {
            if word != 0 {
                let b = w * 64 + word.trailing_zeros() as usize;
                return Some((b, now + ((b as u64).wrapping_sub(now) & WHEEL_MASK)));
            }
            w = (w + 1) % WORDS;
            word = self.occupied[w];
            if w == from / 64 {
                // Wrapped: finish with the bits before `from`.
                word &= !(!0u64 << (from % 64));
            }
        }
        unreachable!("wheel_len > 0 but no occupied bucket")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    const MINUTE: u64 = 60_000;
    const HOUR: u64 = 60 * MINUTE;

    fn t(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(t(42), ());
        assert_eq!(q.now(), Timestamp::ZERO);
        q.pop();
        assert_eq!(q.now(), t(42));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new();
        q.schedule(t(100), "late");
        q.pop();
        q.schedule(t(10), "early"); // in the past now
        assert_eq!(q.pop(), Some((t(100), "early")));
    }

    #[test]
    fn clamped_event_pops_after_events_already_queued_at_now() {
        // A past event is clamped to `now`, and the seq tiebreak must
        // then place it *behind* everything already queued at `now`: the
        // backlog drains in the order it was enqueued, clamping never
        // lets a stale event jump a fresh one.
        let mut q = EventQueue::new();
        q.schedule(t(100), "tick");
        q.pop(); // now = 100
        q.schedule(t(100), "first");
        q.schedule(t(100), "second");
        q.schedule(t(40), "stale"); // clamped to now = 100
        q.schedule(t(100), "third");
        assert_eq!(q.pop(), Some((t(100), "first")));
        assert_eq!(q.pop(), Some((t(100), "second")));
        assert_eq!(
            q.pop(),
            Some((t(100), "stale")),
            "clamped event keeps its insertion rank at the clamped instant"
        );
        assert_eq!(q.pop(), Some((t(100), "third")));
        assert_eq!(q.now(), t(100));
    }

    #[test]
    fn pop_due_and_advance_to_stop_at_the_next_pending_event() {
        let mut q = EventQueue::new();
        let far = WHEEL as u64 * 3; // parked on the far heap
        q.schedule(t(far), "far");
        assert_eq!(q.pop_due(t(far - 1)), None, "not due yet");
        assert!(!q.advance_to(t(far + 1)), "would pass the pending event");
        assert_eq!(q.now(), Timestamp::ZERO, "a refusal moves nothing");
        assert!(q.advance_to(t(far)), "up to the pending instant is fine");
        assert!(q.advance_to(t(5)), "an earlier target is a no-op");
        assert_eq!(q.now(), t(far));
        // The advance pulled `far` onto the wheel. Schedules now clamp to
        // the advanced clock and queue behind the event already due
        // there, as after a pop at `far`.
        q.schedule(t(10), "clamped");
        assert_eq!(q.pop_due(t(far)), Some((t(far), "far")));
        assert_eq!(q.pop_due(t(far)), Some((t(far), "clamped")));
        assert_eq!(q.pop_due(t(u64::MAX)), None, "drained");
        assert!(
            q.advance_to(t(far * 10)),
            "an empty queue lets the clock go"
        );
        q.schedule(t(far * 10 + 1), "after");
        assert_eq!(q.pop(), Some((t(far * 10 + 1), "after")));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(t(9), ());
        assert_eq!(q.peek_time(), Some(t(9)));
        assert_eq!(q.now(), Timestamp::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.schedule(t(50), 5);
        assert_eq!(q.pop(), Some((t(10), 1)));
        q.schedule(t(30), 3);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), Some((t(50), 5)));
    }

    #[test]
    fn far_future_events_cross_the_overflow_level() {
        // Events far beyond the wheel's horizon park on the far heap, the
        // wheel's overflow level, and are pulled in once the clock jumps
        // to them, FIFO order intact.
        let mut q = EventQueue::new();
        let far = WHEEL as u64 * 10;
        for i in 0..5 {
            q.schedule(t(far), i);
        }
        q.schedule(t(far + WHEEL as u64 + 1), 99);
        q.schedule(t(3), -1);
        assert_eq!(q.pop(), Some((t(3), -1)));
        assert_eq!(q.peek_time(), Some(t(far)), "peek reads the far heap");
        for i in 0..5 {
            assert_eq!(q.pop(), Some((t(far), i)));
        }
        assert_eq!(q.pop(), Some((t(far + WHEEL as u64 + 1), 99)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_fifo_survives_migration() {
        // An event parks on the far heap, is pulled onto the wheel when
        // the clock jumps to it, and a *later-scheduled* event at the
        // same instant must still pop behind it.
        let mut q = EventQueue::new();
        let at = WHEEL as u64 + 500;
        q.schedule(t(at), "early-seq");
        q.schedule(t(1), "opener");
        assert_eq!(q.pop(), Some((t(1), "opener")));
        // The clock is at 1, so `at` is still outside the window: this
        // one parks on the heap too, ranked behind the first.
        q.schedule(t(at), "mid-seq");
        assert_eq!(q.pop(), Some((t(at), "early-seq")));
        q.schedule(t(at), "late-seq");
        assert_eq!(q.pop(), Some((t(at), "mid-seq")));
        assert_eq!(q.pop(), Some((t(at), "late-seq")));
    }

    #[test]
    fn slide_keeps_periodic_rescheduling_ordered() {
        // The probe-loop pattern: each pop reschedules `interval` ahead.
        // The window slides with the clock, so every re-arm lands on the
        // wheel, and order must hold across thousands of wrap-arounds.
        let interval = 1_000u64;
        let mut q = EventQueue::new();
        for d in 0..7u64 {
            q.schedule(t(d * 37), d);
        }
        let mut last = 0u64;
        for _ in 0..10_000 {
            let (at, d) = q.pop().expect("loop never drains");
            assert!(at.as_millis() >= last, "time went backwards");
            last = at.as_millis();
            q.schedule(t(at.as_millis() + interval), d);
        }
        assert_eq!(q.len(), 7);
        assert!(q.far.is_empty(), "one-second re-arms never reach the heap");
    }

    #[test]
    fn slide_cannot_jump_parked_overflow_events() {
        // With an event parked on the far heap, neither a sliding clock
        // nor the jump that pulls the heap's head may let a later, *later-
        // scheduled* event at or before the parked instant pop first.
        let mut q = EventQueue::new();
        let far = WHEEL as u64 * 3 + 17;
        q.schedule(t(10), "opener");
        q.schedule(t(far), "parked-early-seq");
        assert_eq!(q.pop(), Some((t(10), "opener")));
        // The wheel is now empty and the window ends at 10 + WHEEL: all
        // three below park on the heap and are pulled together.
        q.schedule(t(far), "parked-late-seq");
        q.schedule(t(far - 1), "just-before");
        assert_eq!(q.pop(), Some((t(far - 1), "just-before")));
        assert_eq!(q.pop(), Some((t(far), "parked-early-seq")));
        assert_eq!(q.pop(), Some((t(far), "parked-late-seq")));
    }

    #[test]
    fn window_edge_events_stay_ordered() {
        // Events exactly at the first instant past the window boundary.
        let mut q = EventQueue::new();
        q.schedule(t(WHEEL as u64 - 1), "in-window");
        q.schedule(t(WHEEL as u64), "past-window");
        q.schedule(t(0), "now");
        assert_eq!(q.pop(), Some((t(0), "now")));
        assert_eq!(q.pop(), Some((t(WHEEL as u64 - 1), "in-window")));
        assert_eq!(q.pop(), Some((t(WHEEL as u64), "past-window")));
    }

    #[test]
    fn clear_resets_and_retains_capacity() {
        let mut q = EventQueue::new();
        for i in 0..100u64 {
            q.schedule(t(i * 137), i);
        }
        q.pop();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.now(), Timestamp::ZERO);
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        // Fully usable after the reset.
        q.schedule(t(7), 1);
        q.schedule(t(3), 0);
        assert_eq!(q.pop(), Some((t(3), 0)));
        assert_eq!(q.pop(), Some((t(7), 1)));
    }

    #[test]
    fn far_instants_within_one_period_pop_in_time_order() {
        // Several far instants within one wheel period, scheduled out of
        // time order: the heap must hand them to the wheel in time order,
        // and peek must report the true minimum, not the first-inserted
        // entry.
        let mut q = EventQueue::new();
        let span = WHEEL as u64; // just past the window
        q.schedule(t(span + 900), "later");
        q.schedule(t(span + 100), "earlier");
        q.schedule(t(span + 900), "later-2");
        assert_eq!(
            q.peek_time(),
            Some(t(span + 100)),
            "peek reads the heap's head"
        );
        assert_eq!(q.pop(), Some((t(span + 100), "earlier")));
        assert_eq!(q.pop(), Some((t(span + 900), "later")));
        assert_eq!(q.pop(), Some((t(span + 900), "later-2")));
    }

    #[test]
    fn events_exactly_at_the_wheel_heap_edge_stay_ordered() {
        // The window's edge: with the clock at zero, an event at exactly
        // `WHEEL` is the first instant on the far heap, and equal-time
        // events scheduled before and after the pull that moves it onto
        // the wheel must pop in insertion order.
        let mut q = EventQueue::new();
        let edge = WHEEL as u64; // first instant past a fresh window
        q.schedule(t(edge - 1), "last-in-window");
        q.schedule(t(edge), "first-past-a");
        q.schedule(t(edge), "first-past-b");
        assert_eq!(q.pop(), Some((t(edge - 1), "last-in-window")));
        // The pop moved the clock to `edge - 1` and pulled the edge
        // instant onto the wheel; a fresh equal-time event now targets
        // its bucket directly and must still pop behind the pulled ones.
        q.schedule(t(edge), "first-past-c");
        assert_eq!(q.pop(), Some((t(edge), "first-past-a")));
        assert_eq!(q.pop(), Some((t(edge), "first-past-b")));
        assert_eq!(q.pop(), Some((t(edge), "first-past-c")));
    }

    #[test]
    fn equal_time_far_events_keep_schedule_order() {
        // Two events parked at one instant ~9.3 h out, then one just
        // before it: the heap's rank tiebreak must hand the equal-time
        // pair to the wheel in the order they were scheduled.
        let mut q = EventQueue::new();
        let far = 33_566_777;
        q.schedule(t(far), "parked-early");
        q.schedule(t(far), "parked-late");
        q.schedule(t(far - 1), "just-before");
        assert_eq!(q.pop(), Some((t(far - 1), "just-before")));
        assert_eq!(q.pop(), Some((t(far), "parked-early")));
        assert_eq!(q.pop(), Some((t(far), "parked-late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clamp_to_now_ordering_survives_the_pull() {
        // An event queued at a far instant crosses the heap; once the
        // clock reaches that instant, a stale (clamped) event must still
        // pop behind everything already queued there and ahead of
        // anything queued later — the clamp contract is unchanged by the
        // pull.
        let mut q = EventQueue::new();
        let at = WHEEL as u64 * 5 + 77;
        q.schedule(t(at), "promoted-a");
        q.schedule(t(0), "opener");
        assert_eq!(q.pop(), Some((t(0), "opener")));
        assert_eq!(q.pop(), Some((t(at), "promoted-a"))); // now = at
        q.schedule(t(at), "fresh");
        q.schedule(t(3), "stale"); // clamped to now = at
        q.schedule(t(at), "freshest");
        assert_eq!(q.pop(), Some((t(at), "fresh")));
        assert_eq!(q.pop(), Some((t(at), "stale")));
        assert_eq!(q.pop(), Some((t(at), "freshest")));
    }

    #[test]
    fn hours_long_horizon_stress_matches_sorted_order() {
        // Deterministic pseudo-random events spread over ~11.6 h of
        // virtual time, so both levels, the jump to the heap's head and
        // the pull on every clock move are exercised against a straight
        // stable sort.
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x5AFE_5EEDu64;
        for i in 0..800u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = x % 41_943_040;
            q.schedule(t(at), i);
            expected.push((at, i));
        }
        expected.sort_by_key(|&(at, i)| (at, i));
        for (at, i) in expected {
            assert_eq!(q.pop(), Some((t(at), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn periodic_rescheduling_with_hour_scale_interval_stays_ordered() {
        // The service-mode timer-wheel pattern: per-home next-event
        // times rescheduled tens of minutes ahead, so every re-park goes
        // through the far heap.
        let interval = 37 * MINUTE;
        let mut q = EventQueue::new();
        for d in 0..5u64 {
            q.schedule(t(d * 13_331), d);
        }
        let mut last = 0u64;
        for _ in 0..2_000 {
            let (at, d) = q.pop().expect("loop never drains");
            assert!(at.as_millis() >= last, "time went backwards");
            last = at.as_millis();
            q.schedule(t(at.as_millis() + interval), d);
        }
        assert_eq!(q.len(), 5);
    }

    #[test]
    fn dense_mixed_horizon_stress_matches_sorted_order() {
        // A deterministic pseudo-random mix of near and far events,
        // popped against a straight stable sort of (time, seq).
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x9E37_79B9u64;
        for i in 0..500u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = x % (WHEEL as u64 * 3);
            q.schedule(t(at), i);
            expected.push((at, i));
        }
        expected.sort_by_key(|&(at, i)| (at, i));
        for (at, i) in expected {
            assert_eq!(q.pop(), Some((t(at), i)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_pop_and_park_across_independent_wheels() {
        // Steal-era shape: two shard wheels hold entries due at the same
        // instant. A thief pops shard B's entry while the owner pops
        // shard A's, then both re-park at the same future instant. The
        // wheels are independent, so each must preserve its own FIFO and
        // neither may observe the other's clock.
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        a.schedule(t(500), "a0");
        a.schedule(t(500), "a1");
        b.schedule(t(500), "b0");
        assert_eq!(a.pop(), Some((t(500), "a0")));
        assert_eq!(b.pop(), Some((t(500), "b0")));
        // Both re-park at the same boundary instant; per-wheel insertion
        // order still rules.
        a.schedule(t(1_000), "a0");
        b.schedule(t(1_000), "b0");
        a.schedule(t(1_000), "a2");
        assert_eq!(a.pop(), Some((t(500), "a1")));
        assert_eq!(a.pop(), Some((t(1_000), "a0")));
        assert_eq!(a.pop(), Some((t(1_000), "a2")));
        assert_eq!(b.pop(), Some((t(1_000), "b0")));
        assert_eq!(a.now(), t(1_000));
        assert_eq!(b.now(), t(1_000));
    }

    #[test]
    fn repark_between_pulled_far_entries_stays_ordered() {
        // Entries parked far ahead within one wheel period. A steal pops
        // the earliest — the jump pulls all of them onto the wheel — and
        // re-parks it between its siblings; the remaining entries must
        // still pop in time order, with the re-park slotted between
        // them rather than riding behind the last.
        let base = WHEEL as u64 * 3; // comfortably on the far heap
        let mut q = EventQueue::new();
        q.schedule(t(base + 10), "early");
        q.schedule(t(base + 30), "late");
        q.schedule(t(base + 20), "mid");
        assert_eq!(q.pop(), Some((t(base + 10), "early")));
        // Stolen home re-parks between its pulled siblings.
        q.schedule(t(base + 25), "early");
        assert_eq!(q.pop(), Some((t(base + 20), "mid")));
        assert_eq!(q.pop(), Some((t(base + 25), "early")));
        assert_eq!(q.pop(), Some((t(base + 30), "late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clamp_to_now_after_recovered_repark_keeps_service_order() {
        // A thief advancing a shard wheel past another home's true
        // next-event time forces that home's re-park to clamp to `now`.
        // The clamped entry must queue *behind* entries already parked
        // at `now` (FIFO) — and, because the clamp perturbs the wheel
        // timestamp, the service runner derives slice boundaries from
        // the home's own queue, never from the wheel's popped time. This
        // pins the wheel half of that contract.
        let mut q = EventQueue::new();
        q.schedule(t(2_000), "far"); // popped by the thief first
        assert_eq!(q.pop(), Some((t(2_000), "far")));
        q.schedule(t(2_000), "resident");
        // Recovered home's true next event is at t=700 — already in the
        // wheel's past. The park clamps to now=2000, behind "resident".
        q.schedule(t(700), "recovered");
        assert_eq!(q.pop(), Some((t(2_000), "resident")));
        let (at, who) = q.pop().expect("clamped entry is pending");
        assert_eq!(who, "recovered");
        assert_eq!(at, t(2_000), "the wheel time is the clamp, not t=700");
    }

    /// Runs `q` through ~6,000 distinct instants over hours of virtual
    /// time while holding at most 64 events at once: each pop is
    /// followed by a schedule on the wheel or on the far heap, and both
    /// levels are asserted to hold events at some point. Returns the peak
    /// number of live events.
    fn load_all_levels(q: &mut EventQueue<u64>) -> usize {
        let mut x = 0x51AB_5EEDu64;
        let mut next_ahead = |i: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x % [WHEEL as u64, 9 * HOUR][(i % 2) as usize]
        };
        let (mut peak, mut reached) = (0, [false; 2]);
        for i in 0..6_000u64 {
            if i >= 64 {
                q.pop().expect("64 events stay pending");
            }
            q.schedule(t(q.now().as_millis() + next_ahead(i)), i);
            peak = peak.max(q.len());
            reached[0] |= q.wheel_len > 0;
            reached[1] |= !q.far.is_empty();
        }
        assert_eq!(reached, [true; 2], "the load reaches both levels");
        peak
    }

    /// Bytes a queue pays per event it has held at once: a slab entry and
    /// a heap key, each doubled for `Vec` growth.
    const PER_EVENT: usize =
        2 * (std::mem::size_of::<Entry<u64>>() + std::mem::size_of::<Reverse<Far>>());

    /// The fixed cost: the queue itself and its one bucket array.
    const FIXED: usize =
        std::mem::size_of::<EventQueue<u64>>() + WHEEL * std::mem::size_of::<Fifo>();

    #[test]
    fn approx_bytes_follows_peak_live_events() {
        // The memory contract: buckets cost a fixed 8 B each, so beyond
        // the bucket array a queue pays only for the events it has held
        // at once, however many instants the run has touched.
        let mut q: EventQueue<u64> = EventQueue::new();
        let peak = load_all_levels(&mut q);
        let loaded = q.approx_bytes();
        assert!(
            loaded <= FIXED + peak * PER_EVENT,
            "{loaded} B for a peak of {peak} live events (bound {})",
            FIXED + peak * PER_EVENT
        );
        // The pool's promise: a cleared queue refilled with the same
        // shape reuses its slab and heap, so the footprint never moves —
        // no allocation per event.
        for _ in 0..100 {
            q.clear();
            assert!(q.is_empty());
            assert_eq!(load_all_levels(&mut q), peak);
            assert_eq!(q.approx_bytes(), loaded);
        }
    }

    #[test]
    fn far_only_queue_pays_one_bucket_array() {
        // Events parked 10 min, 5 h and 2 days ahead all wait on the far
        // heap, and parking them allocates no bucket array beyond the
        // wheel's.
        let mut q: EventQueue<u64> = EventQueue::new();
        for (i, ahead) in [10 * MINUTE, 5 * HOUR, 48 * HOUR].into_iter().enumerate() {
            q.schedule(t(ahead), i as u64);
        }
        let bound = FIXED + 3 * PER_EVENT;
        assert!(
            q.approx_bytes() <= bound,
            "{} B > {bound} B",
            q.approx_bytes()
        );
        assert_eq!(q.pop(), Some((t(10 * MINUTE), 0)));
    }

    #[test]
    fn one_second_rearms_stay_on_the_wheel_beside_parked_events() {
        // 64 loops re-arm one second ahead beside events parked 10 min
        // and 5 h out. At every step the far heap holds exactly the
        // parked events still `WHEEL` ms or more ahead: one-second
        // traffic never reaches it, and a parked event moves onto the
        // wheel as soon as the clock is within `WHEEL` ms of it. The run
        // goes past the 10-min event, which must pop at its instant.
        let mut q = EventQueue::new();
        for d in 0..64u64 {
            q.schedule(t(d * 15), None);
        }
        let mut parked = vec![10 * MINUTE, 5 * HOUR];
        for &at in &parked {
            q.schedule(t(at), Some(at));
        }
        for _ in 0..40_000 {
            let (at, parked_at) = q.pop().expect("the loops never drain");
            match parked_at {
                Some(due) => {
                    assert_eq!(at, t(due), "a parked event pops at its instant");
                    parked.retain(|&p| p != due);
                }
                None => q.schedule(t(at.as_millis() + 1_000), None),
            }
            let now = q.now().as_millis();
            let still_far = parked.iter().filter(|&&p| p - now >= WHEEL as u64).count();
            assert_eq!(q.far.len(), still_far, "at {now} ms");
        }
        assert_eq!(parked, [5 * HOUR], "the 10-min event popped");
    }

    #[test]
    fn every_payload_drops_exactly_once() {
        // A freed slot must not keep its payload alive, and `clear` and
        // dropping the queue must each release every pending payload
        // once: the token's strong count is always 1 + live payloads.
        let token = Rc::new(());
        let live = |token: &Rc<()>| Rc::strong_count(token) - 1;
        let far = |i: u64| t(i.wrapping_mul(2_654_435_761) % 50_331_648);
        let mut q = EventQueue::new();
        for i in 0..300 {
            q.schedule(far(i), Rc::clone(&token));
        }
        assert_eq!(live(&token), 300);
        for _ in 0..100 {
            drop(q.pop().expect("pending"));
        }
        assert_eq!(live(&token), 200, "popped payloads are released");
        for i in 0..50 {
            q.schedule(far(i + 1_000), Rc::clone(&token)); // reuses freed slots
        }
        assert_eq!(live(&token), 250);
        q.clear();
        assert_eq!(live(&token), 0, "clear drops every pending payload");
        for i in 0..40 {
            q.schedule(far(i), Rc::clone(&token));
        }
        drop(q.pop());
        assert_eq!(live(&token), 39);
        drop(q);
        assert_eq!(live(&token), 0, "dropping the queue drops the rest");
    }
}
