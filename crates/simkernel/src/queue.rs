//! Deterministic event queue.
//!
//! A hierarchical timing wheel (calendar queue) with an overflow heap for
//! far-future events. Two properties matter for reproducibility:
//!
//! 1. **Monotonicity** — events cannot be scheduled in the past; the clock
//!    only moves forward.
//! 2. **Deterministic tie-breaking** — events for the same instant pop in
//!    order of their *scheduling instant*, then insertion order (FIFO),
//!    independent of container internals. Without this, equal-time events
//!    would be ordered arbitrarily and two runs of the same experiment
//!    could diverge.
//!
//! The scheduling instant is the virtual time at which the event was
//! logically created: [`EventQueue::schedule`] stamps `now`, and
//! [`EventQueue::schedule_keyed`] lets a caller that runs ahead of the
//! clock (a future-dated transmission, an inline callback) stamp the
//! instant it stands for. A purely clock-driven caller stamps a
//! nondecreasing `now` alongside an increasing sequence number, so for it
//! the order is exactly (time, insertion).
//!
//! # Structure
//!
//! Seven levels of 64 slots each; level `l` buckets events by bit group
//! `l` (bits `6l..6l+6`) of their absolute nanosecond timestamp, covering a
//! 2⁴² ns (≈73 virtual minutes) horizon around the cursor. Events beyond
//! the horizon wait in a binary-heap overflow level and are promoted when
//! the cursor's window reaches them. Level-0 slots have 1 ns granularity,
//! so every event in one L0 slot fires at the *same* instant — draining a
//! slot and sorting it by (scheduling instant, sequence number) restores
//! exact (time, sched, seq) order even when cascades deliver entries out
//! of insertion order. Schedule and pop are O(1) amortized: each event is
//! touched at most once per level on its way down.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Bits per wheel level: 64 slots.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; beyond `2^(6·7)` ns of lookahead events go to
/// the overflow heap.
const LEVELS: usize = 7;
/// Bits covered by the wheel; timestamps differing from the cursor above
/// this bit live in the overflow heap.
const WHEEL_BITS: u32 = LEVEL_BITS * LEVELS as u32;

/// An event scheduled on the queue: the instant it fires plus its payload.
#[derive(Debug, Clone)]
pub struct ScheduledEvent<E> {
    /// When the event fires.
    pub at: SimTime,
    /// Virtual instant the event was scheduled at (nanoseconds); breaks
    /// ties between equal firing instants.
    sched: u64,
    /// Insertion sequence number; breaks the remaining ties.
    seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E> PartialEq for ScheduledEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.sched == other.sched && self.seq == other.seq
    }
}
impl<E> Eq for ScheduledEvent<E> {}

impl<E> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event is on top,
        // and the lowest (sched, seq) among equal instants.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.sched.cmp(&self.sched))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list with a built-in virtual clock.
///
/// `now()` is the time of the most recently popped event; scheduling before
/// `now()` panics, which turns causality violations into immediate failures
/// instead of silent reordering.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Wheel slots, `LEVELS × SLOTS`, indexed `level * SLOTS + slot`.
    slots: Vec<Vec<ScheduledEvent<E>>>,
    /// Per-level occupancy bitmap: bit `s` set ⇔ slot `s` non-empty.
    occupied: [u64; LEVELS],
    /// Events beyond the wheel horizon, ordered (at, sched, seq).
    overflow: BinaryHeap<ScheduledEvent<E>>,
    /// Drained earliest-instant events in exact (at, sched, seq) order.
    ready: VecDeque<ScheduledEvent<E>>,
    /// Wheel reference point; equals `now` between operations.
    cursor: SimTime,
    now: SimTime,
    /// Cached earliest pending instant; `None` means unknown (recompute via
    /// [`Self::next_time`]), not necessarily empty. Keeping it warm saves a
    /// wheel scan per pop on the hot path.
    next_at: Option<SimTime>,
    next_seq: u64,
    popped: u64,
    len: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slots: std::iter::repeat_with(Vec::new)
                .take(LEVELS * SLOTS)
                .collect(),
            occupied: [0; LEVELS],
            overflow: BinaryHeap::new(),
            ready: VecDeque::new(),
            cursor: SimTime::ZERO,
            now: SimTime::ZERO,
            next_at: None,
            next_seq: 0,
            popped: 0,
            len: 0,
        }
    }

    /// The current virtual time: the instant of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far (simulation progress metric).
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than [`Self::now`]: an event cannot be
    /// scheduled in the past.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.schedule_keyed(at, self.now, event);
    }

    /// Schedules `event` to fire at `at` as if it had been scheduled at the
    /// virtual instant `sched`: among events firing at the same instant it
    /// pops after every event with an earlier scheduling instant and
    /// before every event with a later one, whatever the insertion order.
    ///
    /// # Panics
    /// Panics unless `now <= sched <= at`: an event cannot be scheduled in
    /// the past, nor claim to be scheduled before the present.
    pub fn schedule_keyed(&mut self, at: SimTime, sched: SimTime, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} < now={}",
            self.now
        );
        assert!(
            sched >= self.now && sched <= at,
            "scheduling instant {sched} outside [now={}, at={at}]",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if let Some(t) = self.next_at {
            if at < t {
                self.next_at = Some(at);
            }
        } else if self.len == 1 {
            self.next_at = Some(at);
        }
        self.insert(ScheduledEvent {
            at,
            sched: sched.as_nanos(),
            seq,
            event,
        });
    }

    /// Places an event into its wheel level relative to the cursor, or the
    /// overflow heap when it lies beyond the wheel horizon.
    fn insert(&mut self, ev: ScheduledEvent<E>) {
        let diff = ev.at.as_nanos() ^ self.cursor.as_nanos();
        if diff >> WHEEL_BITS != 0 {
            self.overflow.push(ev);
            return;
        }
        // Highest differing bit group picks the level; `diff == 0` (the
        // event fires at the cursor instant) lands in level 0.
        let level = if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / LEVEL_BITS) as usize
        };
        let slot =
            ((ev.at.as_nanos() >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.occupied[level] |= 1u64 << slot;
        self.slots[level * SLOTS + slot].push(ev);
    }

    /// Moves overflow events whose timestamps entered the cursor's wheel
    /// window into the wheel.
    fn promote_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if top.at.as_nanos() >> WHEEL_BITS != self.cursor.as_nanos() >> WHEEL_BITS {
                break;
            }
            let ev = self.overflow.pop().expect("peeked entry exists");
            self.insert(ev);
        }
    }

    /// The exact instant of the earliest pending event without disturbing
    /// the wheel — cascades happen only on pop, so the cursor never runs
    /// ahead of `now` between operations (a schedule after a failed
    /// `pop_until` must still index correctly).
    fn next_time(&self) -> Option<SimTime> {
        if let Some(front) = self.ready.front() {
            return Some(front.at);
        }
        if self.len == 0 {
            return None;
        }
        for level in 0..LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let slot = self.occupied[level].trailing_zeros() as usize;
            let entries = &self.slots[level * SLOTS + slot];
            if level == 0 {
                // 1 ns granularity: the slot base IS the instant.
                let shift = LEVEL_BITS;
                let base = (self.cursor.as_nanos() & !((1u64 << shift) - 1)) | slot as u64;
                return Some(SimTime::from_nanos(base));
            }
            // The lowest occupied slot of the lowest occupied level holds
            // the earliest events; scan it for the exact minimum.
            return entries.iter().map(|e| e.at).min();
        }
        // Wheel empty: the overflow heap holds the earliest event. Overflow
        // entries live in a later 2^42 ns window than every wheel entry, so
        // they can never precede a wheel candidate.
        self.overflow.peek().map(|e| e.at)
    }

    /// Cascades until the earliest pending instant sits in a level-0 slot,
    /// advances the cursor to that instant, and returns the slot index. The
    /// slot's entries (all firing at the cursor instant, unsorted) stay in
    /// place for the caller to drain; its occupancy bit is already cleared.
    ///
    /// Pre-condition: `ready` is empty and at least one event is pending.
    fn cascade_to_l0(&mut self) -> usize {
        loop {
            self.promote_overflow();
            let Some(level) = (0..LEVELS).find(|&l| self.occupied[l] != 0) else {
                // Wheel empty: jump the cursor to the earliest overflow
                // event's window and promote it in.
                let next = self
                    .overflow
                    .peek()
                    .expect("len accounting says events are pending")
                    .at;
                self.cursor = next;
                continue;
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            let shift = LEVEL_BITS * level as u32;
            // Base time of the slot: cursor's groups above `level`, the
            // slot index at `level`, zeros below.
            let width_mask = (1u64 << (shift + LEVEL_BITS)) - 1;
            let base = (self.cursor.as_nanos() & !width_mask) | ((slot as u64) << shift);
            debug_assert!(base >= self.cursor.as_nanos());
            self.cursor = SimTime::from_nanos(base);
            self.occupied[level] &= !(1u64 << slot);
            if level == 0 {
                // 1 ns granularity: every entry fires at exactly `base`.
                return slot;
            }
            // Cascade: with the cursor advanced to the slot base, every
            // entry re-inserts at a strictly lower level.
            let mut drained = std::mem::take(&mut self.slots[level * SLOTS + slot]);
            for ev in drained.drain(..) {
                self.insert(ev);
            }
            self.slots[level * SLOTS + slot] = drained; // keep capacity
        }
    }

    /// Loads the earliest pending instant into `ready`, cascading higher
    /// levels as needed. Does nothing if `ready` is already non-empty or no
    /// events are pending.
    fn refill_ready(&mut self) {
        if !self.ready.is_empty() || self.len == self.ready.len() {
            return;
        }
        let slot = self.cascade_to_l0();
        // Sorting by (sched, seq) restores exact order even for entries
        // that cascaded in after later-scheduled direct inserts.
        self.slots[slot].sort_unstable_by_key(|e| (e.sched, e.seq));
        debug_assert!(self.slots[slot].iter().all(|e| e.at == self.cursor));
        self.ready.extend(self.slots[slot].drain(..));
    }

    /// The instant of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.next_time()
    }

    /// Pops the earliest event, advancing the clock to its instant.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.refill_ready();
        let ev = self.ready.pop_front()?;
        debug_assert!(ev.at >= self.now);
        self.now = ev.at;
        self.popped += 1;
        self.len -= 1;
        // Leftovers in `ready` fire at the popped instant, and nothing in
        // the wheel can fire earlier; otherwise the earliest is unknown.
        self.next_at = self.ready.front().map(|e| e.at);
        Some((ev.at, ev.event))
    }

    /// Pops the earliest event only if it fires at or before `deadline`.
    ///
    /// Used to run a simulation up to a horizon: events beyond the deadline
    /// stay queued and the clock does not advance past them.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Drains *all* events of the earliest pending instant into `buf`
    /// (in exact (sched, seq) order), provided that instant is at or before
    /// `deadline`. Advances the clock to the drained instant and returns
    /// it. Events scheduled for the same instant while the caller processes
    /// the batch are delivered by the next call (their scheduling instant
    /// is the drained one, so they sort after the batch) — identical to
    /// popping one event at a time.
    pub fn pop_instant_until(&mut self, deadline: SimTime, buf: &mut Vec<E>) -> Option<SimTime> {
        if self.ready.is_empty() {
            // Fast path: the whole instant lives in exactly one L0 slot
            // (same-instant events always map to the same slot, and
            // cascades deliver them all before the slot is drained), so it
            // can be drained straight into the caller's buffer.
            let t = match self.next_at {
                Some(t) => t,
                None => {
                    let t = self.next_time()?;
                    self.next_at = Some(t);
                    t
                }
            };
            if t > deadline {
                return None;
            }
            let slot = self.cascade_to_l0();
            debug_assert_eq!(self.cursor, t);
            let entries = &mut self.slots[slot];
            entries.sort_unstable_by_key(|e| (e.sched, e.seq));
            debug_assert!(entries.iter().all(|e| e.at == t));
            let n = entries.len();
            buf.extend(entries.drain(..).map(|e| e.event));
            self.now = t;
            self.popped += n as u64;
            self.len -= n;
            self.next_at = None;
            return Some(t);
        }
        // Slow path: a partial per-event pop left the head of an instant in
        // `ready` while a later same-instant schedule may have landed in
        // the L0 slot, so keep refilling until nothing pending fires at
        // `t`. Slot entries always sort after `ready` leftovers: inserts
        // while `ready` is non-empty never cascade, so a slot entry firing
        // at `t` was scheduled while the clock already stood at `t`, and
        // `schedule_keyed` pins its scheduling instant to `[now, at]` =
        // `{t}`. Every leftover has sched <= t and a lower seq, so the
        // drain order stays (sched, seq).
        let t = match self.next_time() {
            Some(t) if t <= deadline => t,
            _ => return None,
        };
        let mut n = 0u64;
        loop {
            while self.ready.front().is_some_and(|e| e.at == t) {
                let ev = self.ready.pop_front().expect("front exists");
                buf.push(ev.event);
                n += 1;
            }
            if !self.ready.is_empty() || self.next_time() != Some(t) {
                break;
            }
            self.refill_ready();
        }
        self.now = t;
        self.popped += n;
        self.len -= n as usize;
        self.next_at = None;
        Some(t)
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        for v in &mut self.slots {
            v.clear();
        }
        self.occupied = [0; LEVELS];
        self.overflow.clear();
        self.ready.clear();
        self.cursor = self.now;
        self.next_at = None;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), "c");
        q.schedule(SimTime::from_nanos(10), "a");
        q.schedule(SimTime::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(10), "a"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(20), "b"));
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(30), "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i, "tie-break must be insertion order");
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(2), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 1);
        q.pop();
        q.schedule(q.now(), 2); // zero-delay follow-up event
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(1), 2));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), "in");
        q.schedule(SimTime::from_secs(10), "out");
        assert_eq!(q.pop_until(SimTime::from_secs(5)).unwrap().1, "in");
        assert!(q.pop_until(SimTime::from_secs(5)).is_none());
        assert_eq!(q.len(), 1, "event past deadline stays queued");
        assert_eq!(
            q.now(),
            SimTime::from_secs(1),
            "clock not advanced past deadline"
        );
    }

    #[test]
    fn counters_track_progress() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_nanos(i), i);
        }
        assert_eq!(q.len(), 5);
        q.pop();
        q.pop();
        assert_eq!(q.events_processed(), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.events_processed(), 2);
    }

    #[test]
    fn far_future_events_survive_the_overflow_level() {
        let mut q = EventQueue::new();
        // Beyond the 2^42 ns wheel horizon: hours and days of lookahead.
        let far = SimTime::from_secs(3_600 * 24);
        let farther = SimTime::from_secs(3_600 * 48);
        q.schedule(far, "day");
        q.schedule(SimTime::from_nanos(5), "soon");
        q.schedule(farther, "two days");
        assert_eq!(q.pop().unwrap(), (SimTime::from_nanos(5), "soon"));
        assert_eq!(q.pop().unwrap(), (far, "day"));
        assert_eq!(q.pop().unwrap(), (farther, "two days"));
    }

    #[test]
    fn overflow_ties_keep_fifo_order() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(100_000);
        for i in 0..50 {
            q.schedule(far, i);
        }
        for i in 0..50 {
            assert_eq!(q.pop().unwrap().1, i, "overflow ties must stay FIFO");
        }
    }

    #[test]
    fn pop_instant_drains_whole_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule(t, 1);
        q.schedule(SimTime::from_nanos(200), 9);
        q.schedule(t, 2);
        q.schedule(t, 3);
        let mut buf = Vec::new();
        assert_eq!(q.pop_instant_until(SimTime::MAX, &mut buf), Some(t));
        assert_eq!(buf, vec![1, 2, 3]);
        assert_eq!(q.now(), t);
        assert_eq!(q.events_processed(), 3);
        buf.clear();
        assert_eq!(
            q.pop_instant_until(SimTime::from_nanos(150), &mut buf),
            None,
            "next instant is past the deadline"
        );
        assert_eq!(
            q.pop_instant_until(SimTime::MAX, &mut buf),
            Some(SimTime::from_nanos(200))
        );
        assert_eq!(buf, vec![9]);
    }

    #[test]
    fn pop_instant_defers_same_instant_reschedules() {
        // An event scheduled *at the current instant* during batch
        // processing must arrive in the next batch, exactly like the
        // one-at-a-time pop loop would deliver it.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(7);
        q.schedule(t, 1);
        q.schedule(t, 2);
        let mut buf = Vec::new();
        assert_eq!(q.pop_instant_until(SimTime::MAX, &mut buf), Some(t));
        assert_eq!(buf, vec![1, 2]);
        q.schedule(t, 3); // zero-delay follow-up
        buf.clear();
        assert_eq!(q.pop_instant_until(SimTime::MAX, &mut buf), Some(t));
        assert_eq!(buf, vec![3]);
    }

    #[test]
    fn keyed_ties_pop_by_scheduling_instant() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(100);
        q.schedule_keyed(t, SimTime::from_nanos(60), "late");
        q.schedule_keyed(t, SimTime::from_nanos(20), "early");
        q.schedule(t, "now"); // scheduling instant 0
        q.schedule_keyed(t, SimTime::from_nanos(60), "late2");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["now", "early", "late", "late2"]);
    }

    #[test]
    #[should_panic(expected = "outside [now")]
    fn scheduling_instant_after_firing_instant_panics() {
        let mut q = EventQueue::new();
        q.schedule_keyed(SimTime::from_nanos(5), SimTime::from_nanos(6), ());
    }

    proptest! {
        /// For any batch of events, pop order is sorted by time, and within
        /// equal times by insertion order.
        #[test]
        fn prop_pop_order_is_stable_sort(times in proptest::collection::vec(0u64..1_000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(*t), i);
            }
            let mut expected: Vec<(u64, usize)> =
                times.iter().enumerate().map(|(i, t)| (*t, i)).collect();
            expected.sort(); // stable on (time, insertion index)
            let mut got = Vec::new();
            while let Some((t, i)) = q.pop() {
                got.push((t.as_nanos(), i));
            }
            prop_assert_eq!(got, expected);
        }

        /// The clock never moves backwards no matter the schedule.
        #[test]
        fn prop_clock_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut q = EventQueue::new();
            for t in &times {
                q.schedule(SimTime::from_nanos(*t), ());
            }
            let mut last = SimTime::ZERO;
            while let Some((t, ())) = q.pop() {
                prop_assert!(t >= last);
                last = t;
                // Scheduling relative to now is always legal.
                if q.len() < 400 && t.as_nanos() % 7 == 0 {
                    q.schedule(t + SimDuration::from_nanos(3), ());
                }
            }
        }
    }
}
