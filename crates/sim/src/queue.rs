//! Virtual-time event queue.
//!
//! Implemented as a bucketed calendar queue (hierarchical timing wheel):
//! a near-future wheel of per-millisecond FIFO buckets, a coarse second
//! level whose buckets each span a full first-level period (giving an
//! hours-long O(1) horizon for open-loop arrival schedules), and a
//! sorted overflow level for events beyond both. The discrete-event hot
//! loop (`safehome-harness`) pops and schedules millions of events per
//! second, and the wheel turns both operations into O(1) list
//! pushes/pops with no per-event comparisons — the previous inverted
//! `BinaryHeap` paid O(log n) sift costs and a comparator call per level
//! on exactly that path. The pop-order contract is unchanged (see
//! [`EventQueue`]).
//!
//! Storage is one slab `Vec` of entries per queue. Every bucket, at every
//! level, is an intrusive FIFO list of slab indices threaded through the
//! entries' `next` links, and freed entries form a free list through the
//! same links. A bucket costs 8 B whether or not the run ever used it, so
//! a queue's memory follows the peak number of live events, not the
//! number of instants it has touched.

use std::collections::BTreeMap;

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

/// log2 of the first-level period: each second-level bucket covers one
/// full first-level wheel period (`WHEEL` ms), so draining a single
/// coarse bucket refills the near wheel exactly.
const L2_SHIFT: u32 = WHEEL.trailing_zeros();
/// Second-level width in coarse buckets. With `WHEEL`-ms buckets this
/// spans [`L2_SPAN`] ≈ 4.66 h — enough for a diurnal open-loop arrival
/// schedule to stay off the sorted overflow map.
const L2_BUCKETS: usize = 4096;
const L2_IDX_MASK: u64 = (L2_BUCKETS as u64) - 1;
const L2_WORDS: usize = L2_BUCKETS / 64;
/// Milliseconds covered by a full second-level rotation.
const L2_SPAN: u64 = (L2_BUCKETS as u64) << L2_SHIFT;

/// Null slab index: ends a list and marks an empty one.
const NIL: u32 = u32::MAX;

/// One slab slot. A pending event (`payload` is `Some`) sits in exactly
/// one bucket list; a freed slot (`payload` is `None`, so it keeps no
/// payload alive) sits on the free list. Both lists link through `next`.
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

    /// Unlinks the front entry and returns its index.
    fn pop<E>(&mut self, slab: &[Entry<E>]) -> Option<u32> {
        let idx = self.head;
        if idx == NIL {
            return None;
        }
        self.head = slab[idx as usize].next;
        Some(idx)
    }

    /// Slab indices front to back.
    fn iter<E>(self, slab: &[Entry<E>]) -> impl Iterator<Item = u32> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), move |&i| {
            Some(slab[i as usize].next).filter(|&n| n != NIL)
        })
    }
}

/// Coarse second wheel level. Each bucket lists the entries for one
/// `WHEEL`-ms span **in insertion order** (a coarse bucket mixes
/// instants; time order is restored when the bucket is drained into the
/// per-millisecond first level, which keeps same-instant FIFO because the
/// drain preserves insertion order). Allocated lazily: a queue whose
/// events never outrun the first level pays nothing for the hierarchy.
struct Level2 {
    buckets: Vec<Fifo>,
    occupied: [u64; L2_WORDS],
    /// First instant of the window, aligned down to `WHEEL`. The bucket
    /// for instant `t` is `(t >> L2_SHIFT) & L2_IDX_MASK`; the window
    /// never spans more than one rotation, so the residue is unique.
    start: u64,
    /// First instant *not* covered: events at or past it go to the
    /// overflow map. At most `start + L2_SPAN`, and never past the
    /// earliest overflow instant (the exclusive cap keeps an equal-time
    /// event behind a parked overflow one, mirroring the first level).
    limit: u64,
    len: usize,
}

impl Level2 {
    fn new() -> Self {
        Level2 {
            buckets: vec![Fifo::EMPTY; L2_BUCKETS],
            occupied: [0; L2_WORDS],
            start: 0,
            limit: 0,
            len: 0,
        }
    }

    /// Index of the earliest occupied coarse bucket. Every occupied
    /// bucket lies within one rotation of `start`, so the first set bit
    /// at cyclic distance `>= 0` from `start`'s residue is the earliest.
    fn first_bucket(&self) -> Option<usize> {
        next_occupied_bit(
            &self.occupied,
            ((self.start >> L2_SHIFT) & L2_IDX_MASK) as usize,
        )
    }

    /// First instant of the earliest occupied bucket's span (a lower
    /// bound on every event in it).
    fn first_span_start(&self) -> Option<u64> {
        let b = self.first_bucket()?;
        let base = (self.start >> L2_SHIFT) & L2_IDX_MASK;
        let dist = (b as u64).wrapping_sub(base) & L2_IDX_MASK;
        Some(self.start + (dist << L2_SHIFT))
    }

    fn clear(&mut self) {
        if self.len > 0 {
            self.buckets.fill(Fifo::EMPTY);
        }
        self.occupied = [0; L2_WORDS];
        self.start = 0;
        self.limit = 0;
        self.len = 0;
    }
}

/// First set bit at cyclic distance `>= 0` from `from` in a 4096-bit
/// occupancy bitmap, scanning the whole map once. Shared by both wheel
/// levels (identical geometry).
fn next_occupied_bit(occupied: &[u64], from: usize) -> Option<usize> {
    let words = occupied.len();
    let mut w = from / 64;
    let mut word = occupied[w] & (!0u64 << (from % 64));
    for _ in 0..=words {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w = (w + 1) % words;
        word = occupied[w];
        if w == from / 64 {
            // Wrapped: finish with the bits before `from`.
            word &= !(!0u64 << (from % 64));
        }
    }
    None
}

/// A deterministic discrete-event queue.
///
/// Events pop in non-decreasing timestamp order; events scheduled for the
/// same instant pop in insertion order. Popping advances the queue's
/// clock, and scheduling an event in the past is clamped to `now` (this
/// matches how an edge hub would process a backlog: never before now).
///
/// # Structure
///
/// Every pending event is one entry of a slab `Vec`. Three levels of
/// FIFO lists over that slab, all keyed by the event's due time, order
/// them:
///
/// - a **wheel** of `WHEEL` buckets covering the instants
///   `[window_start, wheel_limit)`, bucket `t & WHEEL_MASK` listing
///   exactly the events due at instant `t` (the window never spans more
///   than one full period, so the residue is unique within it), with an
///   occupancy bitmap for constant-time next-bucket scans;
/// - a lazily allocated **coarse second level** (`Level2`) of
///   `L2_BUCKETS` buckets, each spanning one full first-level period
///   (`WHEEL` ms, so the level covers ~4.66 h), listing events at or
///   beyond `wheel_limit` in insertion order per bucket;
/// - a sorted **overflow** level (`BTreeMap` of per-instant lists) for
///   events at or beyond the second level's horizon.
///
/// Moving events between levels relinks entries and never copies a
/// payload. Three invariants make the split correct: every wheel event
/// is earlier than every second-level event, every second-level event is
/// earlier than every overflow event (so a pop can ignore the outer
/// levels while an inner one is non-empty), and a first-level bucket
/// only ever holds one instant. The windows move in three ways, all
/// preserving same-instant FIFO order across levels (an event can only
/// change level before any later-scheduled equal-time event targets the
/// same level directly, because each window limit is capped
/// *exclusively* at the earliest parked instant of the next level out):
///
/// - when a pop finds the wheel empty, it rebases the window onto the
///   earliest pending instant's span — draining the earliest coarse
///   second-level bucket (insertion order restores per-instant FIFO as
///   entries land in per-millisecond buckets) and splicing in any
///   overflow instants the new window covers, in time order;
/// - when a schedule finds the wheel empty and its event past
///   `wheel_limit`, it slides the window forward to start at `now` —
///   this is what keeps steady periodic work (e.g. probe loops
///   rescheduling `interval` ahead) on the wheel path instead of
///   bouncing through the outer levels;
/// - when a schedule finds the second level empty and its event past
///   `wheel_limit`, it re-anchors the second-level window at
///   `wheel_limit` (aligned down to the period), so hours-long arrival
///   schedules land in O(1) coarse buckets instead of the `BTreeMap`.
///
/// A bucket is two `u32` slab indices (8 B), so the fixed cost is the
/// two bucket arrays (32 KiB each, the second only once used) and the
/// rest follows the peak number of live events. [`EventQueue::clear`]
/// keeps the slab's capacity, so a pooled queue reaches steady state with
/// zero allocations per event.
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
    /// `t` within the current window, in insertion order.
    buckets: Vec<Fifo>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// First instant covered by the wheel. `window_start <= now` between
    /// public calls except transiently inside [`EventQueue::pop`].
    window_start: u64,
    /// First instant *not* covered by the wheel: events at or past it go
    /// to the outer levels. At most `window_start + WHEEL`, and never
    /// past the earliest parked instant (else a pop could take a wheel
    /// event that should sort after a parked one).
    wheel_limit: u64,
    /// Events in wheel buckets (the outer levels hold `len - wheel_len`).
    wheel_len: usize,
    /// Coarse second level for events past `wheel_limit`, within ~4.66 h.
    /// `None` until an event first lands there.
    level2: Option<Box<Level2>>,
    /// Events due at or after the second level's limit: one FIFO list
    /// per instant, with its length.
    overflow: BTreeMap<u64, (Fifo, usize)>,
    /// Total pending events across all levels.
    len: usize,
    now: Timestamp,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            buckets: vec![Fifo::EMPTY; WHEEL],
            occupied: [0; WORDS],
            window_start: 0,
            wheel_limit: WHEEL as u64,
            wheel_len: 0,
            level2: None,
            overflow: BTreeMap::new(),
            len: 0,
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
        self.len
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Approximate heap footprint in bytes, in O(1): the slab's capacity
    /// times the entry size, the two bucket arrays and one map key per
    /// overflow instant (map node overhead is not chased). Retained (not
    /// just occupied) capacity is what a resident home pins in memory,
    /// so this is the number the service runner's eviction accounting
    /// wants; it follows the peak number of events the queue has held.
    pub fn approx_bytes(&self) -> usize {
        let mut bytes = std::mem::size_of::<Self>()
            + self.slab.capacity() * std::mem::size_of::<Entry<E>>()
            + self.buckets.capacity() * std::mem::size_of::<Fifo>()
            + self.overflow.len() * std::mem::size_of::<(u64, (Fifo, usize))>();
        if let Some(l2) = &self.level2 {
            bytes +=
                std::mem::size_of::<Level2>() + l2.buckets.capacity() * std::mem::size_of::<Fifo>();
        }
        bytes
    }

    /// Empties the queue and resets the clock to zero, dropping every
    /// pending payload but keeping the slab's capacity and the bucket
    /// arrays, so a recycled queue schedules and pops without allocating.
    /// Used by the harness's per-thread queue pool.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free = NIL;
        if self.wheel_len > 0 {
            self.buckets.fill(Fifo::EMPTY);
        }
        if let Some(l2) = &mut self.level2 {
            l2.clear();
        }
        self.overflow.clear();
        self.occupied = [0; WORDS];
        self.window_start = 0;
        self.wheel_limit = WHEEL as u64;
        self.wheel_len = 0;
        self.len = 0;
        self.now = Timestamp::ZERO;
    }

    /// Schedules `payload` at time `at` (clamped to now if in the past).
    pub fn schedule(&mut self, at: Timestamp, payload: E) {
        let at = at.max(self.now).as_millis();
        self.len += 1;
        let idx = self.alloc(at, payload);
        if at >= self.wheel_limit && self.wheel_len == 0 {
            // Empty wheel: slide the window up to the clock so the event
            // lands on the wheel path when it fits. Every pending event
            // is in an outer level and at or after `now`, so capping the
            // limit at the earliest parked instant (the lower bound of
            // the earliest coarse bucket, or the first overflow key)
            // keeps the split invariants (an equal-time event must
            // *stay* behind the parked one, hence the cap is exclusive).
            let first_parked = self.first_parked_instant();
            self.window_start = self.now.as_millis();
            self.wheel_limit = (self.window_start + WHEEL as u64).min(first_parked);
        }
        if at < self.wheel_limit {
            let b = (at & WHEEL_MASK) as usize;
            self.buckets[b].push(&mut self.slab, idx);
            self.occupied[b / 64] |= 1 << (b % 64);
            self.wheel_len += 1;
            return;
        }
        // Second level. Re-anchor its window whenever it sits empty: the
        // slide above guarantees `wheel_limit >= now` here, and while
        // the level holds events its window (and limit) never move, so
        // "every second-level event < its limit <= every overflow key"
        // holds for the level's whole occupancy — an instant's events
        // can never straddle the level-2/overflow split.
        let first_over = self.overflow.keys().next().copied().unwrap_or(u64::MAX);
        let l2 = self.level2.get_or_insert_with(|| Box::new(Level2::new()));
        if l2.len == 0 {
            l2.start = self.wheel_limit & !WHEEL_MASK;
            l2.limit = (l2.start + L2_SPAN).min(first_over);
        }
        if at < l2.limit {
            let b = ((at >> L2_SHIFT) & L2_IDX_MASK) as usize;
            l2.buckets[b].push(&mut self.slab, idx);
            l2.occupied[b / 64] |= 1 << (b % 64);
            l2.len += 1;
        } else {
            let (list, n) = self.overflow.entry(at).or_insert((Fifo::EMPTY, 0));
            list.push(&mut self.slab, idx);
            *n += 1;
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

    /// Lower bound on the earliest event parked outside the near wheel
    /// (`u64::MAX` when both outer levels are empty). Used as the
    /// exclusive cap for window slides.
    fn first_parked_instant(&self) -> u64 {
        let l2_first = self
            .level2
            .as_ref()
            .filter(|l2| l2.len > 0)
            .and_then(|l2| l2.first_span_start())
            .unwrap_or(u64::MAX);
        let over_first = self.overflow.keys().next().copied().unwrap_or(u64::MAX);
        l2_first.min(over_first)
    }

    /// Pops the next event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Timestamp, E)> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            self.rebase();
        }
        let from = self.window_start.max(self.now.as_millis());
        let b = self
            .next_occupied(from)
            .expect("len > 0 and wheel non-empty after rebase");
        let idx = self.buckets[b].pop(&self.slab).expect("occupied bit set");
        if self.buckets[b].is_empty() {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.wheel_len -= 1;
        self.len -= 1;
        let (at, payload) = self.release(idx);
        // Each residue occurs once in the window, so the cyclic distance
        // from `from` to the bucket is the event's instant.
        debug_assert_eq!(
            at,
            from + ((b as u64).wrapping_sub(from) & WHEEL_MASK),
            "a wheel bucket held an instant outside the window"
        );
        debug_assert!(at >= self.now.as_millis(), "virtual time went backwards");
        self.now = Timestamp::from_millis(at);
        Some((self.now, payload))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            if let Some(l2) = self.level2.as_ref().filter(|l2| l2.len > 0) {
                // The earliest coarse bucket mixes instants in insertion
                // order, so the minimum needs a walk of that one list;
                // every second-level event precedes every overflow one.
                let b = l2.first_bucket().expect("len > 0");
                let min = l2.buckets[b]
                    .iter(&self.slab)
                    .map(|i| self.slab[i as usize].at)
                    .min()
                    .expect("occupied bit set");
                return Some(Timestamp::from_millis(min));
            }
            return self
                .overflow
                .keys()
                .next()
                .map(|&ms| Timestamp::from_millis(ms));
        }
        let from = self.window_start.max(self.now.as_millis());
        let b = self.next_occupied(from).expect("wheel_len > 0");
        Some(Timestamp::from_millis(
            from + ((b as u64).wrapping_sub(from) & WHEEL_MASK),
        ))
    }

    /// Moves the window onto the earliest pending instant's span and
    /// relinks every newly covered event into its per-millisecond
    /// bucket. Only called with an empty wheel.
    ///
    /// With second-level events pending, the earliest pending event is
    /// in the earliest occupied coarse bucket (every second-level event
    /// precedes every overflow one), whose span is exactly one wheel
    /// period: the window adopts that span, the bucket's list drains in
    /// insertion order (restoring per-instant FIFO as entries land in
    /// single-instant buckets), and any overflow instants the new window
    /// covers — possible when the second level's limit was capped
    /// mid-span by a parked overflow instant — splice in on top. An
    /// instant's events never straddle the level-2/overflow split (see
    /// [`EventQueue::schedule`]), so the two sources never interleave
    /// within one instant and the drain order is safe.
    ///
    /// With no second-level events, the window rebases onto the earliest
    /// overflow instant; `BTreeMap` iteration order (time, then each
    /// instant's insertion-ordered list) lands migrated events in exactly
    /// the order the old sorted heap would have popped them.
    fn rebase(&mut self) {
        if let Some(l2) = self.level2.as_mut().filter(|l2| l2.len > 0) {
            let b = l2.first_bucket().expect("len > 0");
            let base = (l2.start >> L2_SHIFT) & L2_IDX_MASK;
            let dist = (b as u64).wrapping_sub(base) & L2_IDX_MASK;
            let span_start = l2.start + (dist << L2_SHIFT);
            self.window_start = span_start;
            self.wheel_limit = span_start + WHEEL as u64;
            let mut idx = std::mem::replace(&mut l2.buckets[b], Fifo::EMPTY).head;
            l2.occupied[b / 64] &= !(1 << (b % 64));
            while idx != NIL {
                let Entry { at, next, .. } = self.slab[idx as usize];
                debug_assert!(
                    at >= span_start && at < self.wheel_limit,
                    "second-level bucket held an instant outside its span"
                );
                let wb = (at & WHEEL_MASK) as usize;
                self.buckets[wb].push(&mut self.slab, idx);
                self.occupied[wb / 64] |= 1 << (wb % 64);
                l2.len -= 1;
                self.wheel_len += 1;
                idx = next;
            }
        } else {
            let &start = self
                .overflow
                .keys()
                .next()
                .expect("rebase called with pending events");
            self.window_start = start;
            self.wheel_limit = start + WHEEL as u64;
        }
        self.migrate_overflow_into_window();
    }

    /// Moves every overflow instant earlier than `wheel_limit` onto its
    /// wheel bucket, in time order: each instant's list is spliced whole,
    /// in O(1). The bucket is always empty beforehand — the wheel was
    /// empty at the rebase, overflow instants are distinct, and none
    /// equals a drained second-level instant.
    fn migrate_overflow_into_window(&mut self) {
        while let Some(entry) = self.overflow.first_entry() {
            if *entry.key() >= self.wheel_limit {
                break;
            }
            let (at, (list, n)) = entry.remove_entry();
            let b = (at & WHEEL_MASK) as usize;
            debug_assert!(self.buckets[b].is_empty(), "an instant spans two levels");
            self.buckets[b] = list;
            self.occupied[b / 64] |= 1 << (b % 64);
            self.wheel_len += n;
        }
    }

    /// First occupied bucket at cyclic distance `>= 0` from instant
    /// `from`, scanning the full wheel once via the occupancy bitmap.
    fn next_occupied(&self, from: u64) -> Option<usize> {
        next_occupied_bit(&self.occupied, (from & WHEEL_MASK) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

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
        // Events far beyond the wheel's horizon park in the overflow
        // level and migrate in on rebase, FIFO order intact.
        let mut q = EventQueue::new();
        let far = WHEEL as u64 * 10;
        for i in 0..5 {
            q.schedule(t(far), i);
        }
        q.schedule(t(far + WHEEL as u64 + 1), 99);
        q.schedule(t(3), -1);
        assert_eq!(q.pop(), Some((t(3), -1)));
        assert_eq!(q.peek_time(), Some(t(far)), "peek reads overflow");
        for i in 0..5 {
            assert_eq!(q.pop(), Some((t(far), i)));
        }
        assert_eq!(q.pop(), Some((t(far + WHEEL as u64 + 1), 99)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_instant_fifo_survives_migration() {
        // An event lands in overflow, migrates into the wheel on rebase,
        // and a *later-scheduled* event at the same instant must still
        // pop behind it.
        let mut q = EventQueue::new();
        let at = WHEEL as u64 + 500;
        q.schedule(t(at), "early-seq");
        q.schedule(t(1), "opener");
        assert_eq!(q.pop(), Some((t(1), "opener")));
        // Still before the rebase: `at` stays in overflow.
        q.schedule(t(at), "mid-seq");
        assert_eq!(q.pop(), Some((t(at), "early-seq")));
        q.schedule(t(at), "late-seq");
        assert_eq!(q.pop(), Some((t(at), "mid-seq")));
        assert_eq!(q.pop(), Some((t(at), "late-seq")));
    }

    #[test]
    fn slide_keeps_periodic_rescheduling_ordered() {
        // The probe-loop pattern: each pop reschedules `interval` ahead.
        // The window slides instead of rebasing, and order must hold
        // across thousands of wrap-arounds.
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
    }

    #[test]
    fn slide_cannot_jump_parked_overflow_events() {
        // Regression for the window slide: with an event parked in
        // overflow, a slide must cap the wheel limit so a later, *later-
        // scheduled* event at or before the parked instant cannot pop
        // first.
        let mut q = EventQueue::new();
        let far = WHEEL as u64 * 3 + 17;
        q.schedule(t(10), "opener");
        q.schedule(t(far), "parked-early-seq");
        assert_eq!(q.pop(), Some((t(10), "opener")));
        // Wheel is now empty; this schedule slides the window.
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
    fn level2_bucket_mixing_instants_pops_in_time_order() {
        // One coarse second-level bucket holds several instants in
        // insertion (not time) order; the drain into per-millisecond
        // buckets must restore time order, and peek must report the true
        // minimum, not the first-inserted entry.
        let mut q = EventQueue::new();
        let span = WHEEL as u64; // second-level buckets are one period wide
        q.schedule(t(span + 900), "later");
        q.schedule(t(span + 100), "earlier");
        q.schedule(t(span + 900), "later-2");
        assert_eq!(q.peek_time(), Some(t(span + 100)), "peek scans the bucket");
        assert_eq!(q.pop(), Some((t(span + 100), "earlier")));
        assert_eq!(q.pop(), Some((t(span + 900), "later")));
        assert_eq!(q.pop(), Some((t(span + 900), "later-2")));
    }

    #[test]
    fn events_exactly_at_level1_level2_edge_stay_ordered() {
        // The promote/demote boundary: with the wheel non-empty, an
        // event at exactly `wheel_limit` is the first instant of the
        // second level, and equal-time events scheduled before and after
        // the rebase that promotes it must pop in insertion order.
        let mut q = EventQueue::new();
        let edge = WHEEL as u64; // wheel_limit for a fresh queue
        q.schedule(t(edge - 1), "last-in-window");
        q.schedule(t(edge), "first-past-a");
        q.schedule(t(edge), "first-past-b");
        assert_eq!(q.pop(), Some((t(edge - 1), "last-in-window")));
        // Rebase promoted the edge instant into the wheel; a fresh
        // equal-time event now targets the level-1 bucket directly and
        // must still pop behind the promoted ones.
        q.schedule(t(edge), "first-past-c");
        assert_eq!(q.pop(), Some((t(edge), "first-past-a")));
        assert_eq!(q.pop(), Some((t(edge), "first-past-b")));
        assert_eq!(q.pop(), Some((t(edge), "first-past-c")));
    }

    #[test]
    fn events_exactly_at_level2_overflow_edge_stay_ordered() {
        // An event parked in the overflow map caps a later second-level
        // re-anchor *exclusively*, so an equal-time event scheduled
        // afterwards joins the overflow level behind it instead of
        // jumping ahead through a coarse bucket.
        let mut q = EventQueue::new();
        let far = L2_SPAN * 2 + 12_345; // beyond any level-2 window
        q.schedule(t(far), "parked-early");
        // Re-anchors level 2 (empty) with limit capped at `far`.
        q.schedule(t(far), "parked-late");
        q.schedule(t(far - 1), "just-before");
        assert_eq!(q.pop(), Some((t(far - 1), "just-before")));
        assert_eq!(q.pop(), Some((t(far), "parked-early")));
        assert_eq!(q.pop(), Some((t(far), "parked-late")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn clamp_to_now_ordering_survives_level2_promotion() {
        // Events queued at a far instant cross the second level; once
        // the clock reaches that instant, a stale (clamped) event must
        // still pop behind everything already queued there and ahead of
        // anything queued later — the clamp contract is unchanged by the
        // extra level.
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
        // Deterministic pseudo-random events spread over ~2.5 second-
        // level rotations (~11.6 h of virtual time), so every level —
        // near wheel, coarse buckets, overflow map — and every promotion
        // path is exercised against a straight stable sort.
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, u32)> = Vec::new();
        let mut x = 0x5AFE_5EEDu64;
        for i in 0..800u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = x % (L2_SPAN * 5 / 2);
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
        // times rescheduled tens of minutes ahead, far past the near
        // wheel but within the second level.
        let interval = 37 * 60 * 1_000u64; // 37 min, < L2_SPAN
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
    fn l2_entry_stolen_mid_span_leaves_siblings_ordered() {
        // Entries parked far ahead share one coarse second-level bucket
        // (same WHEEL-ms span). A steal pops the earliest — which drains
        // and rebases the span — and re-parks it further out; the
        // remaining same-span entries must still pop in time order, and
        // a re-park landing *back inside* the active span must slot in
        // correctly rather than ride behind the span's tail.
        let base = WHEEL as u64 * 3; // comfortably on the second level
        let mut q = EventQueue::new();
        q.schedule(t(base + 10), "early");
        q.schedule(t(base + 30), "late");
        q.schedule(t(base + 20), "mid");
        assert_eq!(q.pop(), Some((t(base + 10), "early")));
        // Stolen home re-parks inside the still-active span.
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
    /// followed by a schedule on the wheel, the second level or the
    /// overflow map, and every level is asserted to hold events at some
    /// point. Returns the peak number of live events.
    fn load_all_levels(q: &mut EventQueue<u64>) -> usize {
        let mut x = 0x51AB_5EEDu64;
        let mut next_ahead = |i: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x % [WHEEL as u64, L2_SPAN, 2 * L2_SPAN][(i % 3) as usize]
        };
        let (mut peak, mut reached) = (0, [false; 3]);
        for i in 0..6_000u64 {
            if i >= 64 {
                q.pop().expect("64 events stay pending");
            }
            q.schedule(t(q.now().as_millis() + next_ahead(i)), i);
            peak = peak.max(q.len());
            reached[0] |= q.wheel_len > 0;
            reached[1] |= q.level2.as_ref().is_some_and(|l2| l2.len > 0);
            reached[2] |= !q.overflow.is_empty();
        }
        assert_eq!(reached, [true; 3], "the load reaches every level");
        peak
    }

    #[test]
    fn approx_bytes_follows_peak_live_events() {
        // The memory contract: buckets cost a fixed 8 B each, so beyond
        // the two bucket arrays a queue pays only for the events it has
        // held at once — a slab entry each, doubled for `Vec` growth,
        // plus at most one overflow key each — however many instants
        // the run has touched.
        let fixed = std::mem::size_of::<EventQueue<u64>>()
            + (WHEEL + L2_BUCKETS) * std::mem::size_of::<Fifo>()
            + std::mem::size_of::<Level2>();
        let per_event =
            2 * std::mem::size_of::<Entry<u64>>() + std::mem::size_of::<(u64, (Fifo, usize))>();
        let mut q: EventQueue<u64> = EventQueue::new();
        let peak = load_all_levels(&mut q);
        let loaded = q.approx_bytes();
        assert!(
            loaded <= fixed + peak * per_event,
            "{loaded} B for a peak of {peak} live events (bound {})",
            fixed + peak * per_event
        );
        // The pool's promise: a cleared queue refilled with the same
        // shape reuses its slab, so the footprint never moves — no
        // allocation per event.
        for _ in 0..100 {
            q.clear();
            assert!(q.is_empty());
            assert_eq!(load_all_levels(&mut q), peak);
            assert_eq!(q.approx_bytes(), loaded);
        }
    }

    #[test]
    fn every_payload_drops_exactly_once() {
        // A freed slot must not keep its payload alive, and `clear` and
        // dropping the queue must each release every pending payload
        // once: the token's strong count is always 1 + live payloads.
        let token = Rc::new(());
        let live = |token: &Rc<()>| Rc::strong_count(token) - 1;
        let far = |i: u64| t(i.wrapping_mul(2_654_435_761) % (L2_SPAN * 3));
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
