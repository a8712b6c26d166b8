//! The timing-wheel `EventQueue` against a `BinaryHeap` reference model.
//!
//! The wheel replaced a binary heap; the replacement is only legal if the
//! pop order is *identical* — same (time, scheduling instant, seq)
//! lexicographic order — because every result tree downstream depends on
//! it. This test drives both implementations through random schedule/pop
//! interleavings, including same-instant ties, keyed schedules whose
//! scheduling instant lies anywhere in `[now, at]` (the engine's
//! future-dated transmissions), and far-future events that exercise the
//! wheel's overflow level and its promotion path.

use pos_simkernel::{EventQueue, SimTime};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One step of an interleaving: schedule an event `delta` ns after the
/// model clock (plainly, or keyed with a scheduling instant `lead` ns
/// after the clock, `lead <= delta`), or pop.
#[derive(Debug, Clone, Copy)]
enum Op {
    Schedule(u64),
    ScheduleKeyed { delta: u64, lead: u64 },
    Pop,
    PopInstant,
}

/// Decodes a raw `(tag, entropy)` pair into a weighted op mix: near-future
/// schedules (the engine's serialization/propagation shape), exact ties at
/// the current instant (FIFO tie-break), mid-range deltas that land in the
/// wheel's upper levels, far-future deltas beyond the 2^42 ns wheel horizon
/// (overflow level + promotion), keyed schedules over a small time range
/// so that equal firing instants with different scheduling instants are
/// common, and the two pop flavors.
fn decode(tag: u8, raw: u64) -> Op {
    match tag {
        0..=3 => Op::Schedule(raw % 5_000),
        4..=5 => Op::Schedule(0),
        6 => Op::Schedule((1 << 20) + raw % ((1 << 40) - (1 << 20))),
        7 => Op::Schedule((1 << 42) + raw % ((1 << 44) - (1 << 42))),
        8..=11 => Op::Pop,
        12..=15 => {
            let delta = raw % 64;
            Op::ScheduleKeyed {
                delta,
                lead: (raw >> 32) % (delta + 1),
            }
        }
        16 => {
            // Beyond the horizon, few distinct instants: keyed ties that
            // wait in the overflow level and are promoted together.
            let delta = (1 << 42) + raw % 16;
            Op::ScheduleKeyed {
                delta,
                lead: (raw >> 7) % (delta + 1),
            }
        }
        _ => Op::PopInstant,
    }
}

/// The reference: a min-heap on (at, sched, seq) — the pre-wheel
/// implementation's (at, seq) contract, refined by the scheduling instant.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
    now: u64,
    next_seq: u64,
}

impl HeapModel {
    fn schedule(&mut self, at: u64, sched: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, sched, seq)));
        seq
    }

    fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn pop(&mut self) -> Option<(u64, u64)> {
        let Reverse((at, _, seq)) = self.heap.pop()?;
        self.now = at;
        Some((at, seq))
    }
}

proptest! {
    /// Any interleaving of plain and keyed schedules and pops yields the
    /// identical pop sequence on the wheel and on the reference heap.
    #[test]
    fn prop_wheel_matches_heap_reference(
        ops in collection::vec((0u8..19, any::<u64>()), 1..300),
    ) {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut model = HeapModel::default();
        let mut buf = Vec::new();
        for (tag, raw) in ops {
            match decode(tag, raw) {
                Op::Schedule(delta) => {
                    let at = model.now + delta;
                    let seq = model.schedule(at, model.now);
                    wheel.schedule(SimTime::from_nanos(at), seq);
                }
                Op::ScheduleKeyed { delta, lead } => {
                    let at = model.now + delta;
                    let sched = model.now + lead;
                    let seq = model.schedule(at, sched);
                    wheel.schedule_keyed(SimTime::from_nanos(at), SimTime::from_nanos(sched), seq);
                }
                Op::Pop => {
                    prop_assert_eq!(
                        wheel.peek_time().map(|t| t.as_nanos()),
                        model.peek_time(),
                        "peek must agree"
                    );
                    let got = wheel.pop().map(|(t, seq)| (t.as_nanos(), seq));
                    prop_assert_eq!(got, model.pop(), "pop order must be identical");
                }
                Op::PopInstant => {
                    buf.clear();
                    let t = wheel.pop_instant_until(SimTime::MAX, &mut buf);
                    // The model drains one instant by repeated pops.
                    prop_assert_eq!(t.map(|t| t.as_nanos()), model.peek_time());
                    let Some(t) = t else { continue };
                    let mut expect = Vec::new();
                    while model.peek_time() == Some(t.as_nanos()) {
                        expect.push(model.pop().expect("peeked").1);
                    }
                    prop_assert_eq!(&buf, &expect, "instant batch must drain in (sched, seq) order");
                }
            }
            prop_assert_eq!(wheel.len(), model.heap.len());
            prop_assert_eq!(wheel.now().as_nanos(), model.now);
        }
        // Drain what is left: full residual order must match too.
        while let Some(got) = wheel.pop() {
            let want = model.pop();
            prop_assert_eq!(Some((got.0.as_nanos(), got.1)), want);
        }
        prop_assert!(model.heap.is_empty());
    }

    /// A schedule issued after a deadline-limited pop returned `None` (the
    /// engine's run_until boundary) must still order correctly against
    /// events already parked deeper in the wheel.
    #[test]
    fn prop_schedule_after_failed_pop_until_keeps_order(
        parked in 1u64..1_000_000,
        late in 0u64..1_000_000,
    ) {
        let mut q: EventQueue<&'static str> = EventQueue::new();
        q.schedule(SimTime::from_nanos(parked), "parked");
        // Deadline before the parked event: no pop, clock stays at zero.
        prop_assert!(q.pop_until(SimTime::ZERO).is_none());
        q.schedule(SimTime::from_nanos(late), "late");
        let first = q.pop().unwrap();
        let second = q.pop().unwrap();
        if late < parked {
            prop_assert_eq!(first.1, "late");
            prop_assert_eq!(second.1, "parked");
        } else if late > parked {
            prop_assert_eq!(first.1, "parked");
            prop_assert_eq!(second.1, "late");
        } else {
            // Same instant: FIFO — parked was scheduled first.
            prop_assert_eq!(first.1, "parked");
            prop_assert_eq!(second.1, "late");
        }
    }
}
