//! Timeline folding for FIFO single-server elements.
//!
//! A FIFO server that draws its service times in arrival order and sends
//! its outputs over cut-through links needs no per-packet service timer:
//! the moment a packet arrives, its completion instant is already fixed —
//! `max(arrival, previous completion) + service` — and its outputs can be
//! submitted future-dated with [`SimCtx::transmit_at`]. The queue the
//! eventful path keeps as a frame deque becomes a deque of completion
//! instants, drained lazily; its length is the occupancy that tail-drop
//! compares against the capacity. A completion in the arrival's own
//! nanosecond has left only if the eventful path's service timer pops
//! before the arrival: if it was set (at the service start) before the
//! arrival was scheduled ([`SimCtx::arrival_sched`]).
//!
//! The fold is exact only while arrivals reach the element in timestamp
//! order. Inline delivery keeps per-link order but not cross-link order,
//! so [`Fold::admit`] asserts it: a topology outside that contract fails
//! loudly instead of producing a different timeline.

use crate::engine::SimCtx;
use pos_packet::builder::Frame;
use pos_simkernel::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Folded-timeline bookkeeping shared by the Linux router and bridge.
#[derive(Debug, Default)]
pub(crate) struct Fold {
    /// Whether the element runs folded. Decided on the first frame, once
    /// wiring is final; `None` until then.
    engaged: Option<bool>,
    /// `(completion, service start)` of packets accepted but not yet fully
    /// serviced — the queue key of the eventful path's service timer.
    /// Entries that rank before the current arrival are drained lazily.
    completions: VecDeque<(SimTime, SimTime)>,
    /// Completion instant of the most recently accepted packet — the
    /// earliest time the next service can start.
    last_completion: SimTime,
    /// Instant of the most recent arrival (the order guard).
    last_arrival: SimTime,
    /// While a packet is being processed: the instant its outputs leave
    /// the element (its service completion).
    tx_at: Option<SimTime>,
}

impl Fold {
    /// Whether the element runs folded. Decided once, on the first call:
    /// only if `allowed` (the element's own precondition) and every port
    /// accepts future-dated cut-through transmission.
    pub(crate) fn engaged(&mut self, allowed: bool, ctx: &SimCtx<'_>) -> bool {
        *self.engaged.get_or_insert_with(|| {
            allowed && (0..ctx.port_count()).all(|p| ctx.future_tx_capable(p))
        })
    }

    /// Registers an arrival on `port` at `ctx.now()` and reports whether
    /// the queue has room for it: packets whose service completion ranks
    /// before the arrival have left, the rest occupy the queue, exactly
    /// like the eventful path.
    ///
    /// # Panics
    /// Panics, naming the element, if the arrival is earlier than the
    /// previous one.
    pub(crate) fn admit(
        &mut self,
        kind: &str,
        capacity: usize,
        port: usize,
        ctx: &SimCtx<'_>,
    ) -> bool {
        let now = ctx.now();
        assert!(
            now >= self.last_arrival,
            "folded {kind} `{}`: arrival at {now} precedes the previous arrival at {}; \
             a folded element must receive in timestamp order",
            ctx.name(),
            self.last_arrival
        );
        self.last_arrival = now;
        // A completion in the arrival's own nanosecond is rare; only then
        // is the arrival's scheduling instant needed.
        while let Some(&(completion, start)) = self.completions.front() {
            if completion > now || (completion == now && start >= ctx.arrival_sched(port)) {
                break;
            }
            self.completions.pop_front();
        }
        self.completions.len() < capacity
    }

    /// Starts serving an admitted packet that takes `service`; until
    /// [`Self::end`], [`Self::transmit`] sends at its completion instant.
    pub(crate) fn begin(&mut self, now: SimTime, service: SimDuration) {
        let start = self.last_completion.max(now);
        let completion = start + service;
        self.completions.push_back((completion, start));
        self.last_completion = completion;
        self.tx_at = Some(completion);
    }

    /// Ends processing of the packet started by [`Self::begin`].
    pub(crate) fn end(&mut self) {
        self.tx_at = None;
    }

    /// Transmits an output frame: at the served packet's completion while
    /// folded processing is under way, otherwise now (the timer path
    /// already runs at the completion instant).
    pub(crate) fn transmit(&self, port: usize, frame: Frame, ctx: &mut SimCtx<'_>) -> bool {
        match self.tx_at {
            Some(at) => ctx.transmit_at(port, frame, at),
            None => ctx.transmit(port, frame),
        }
    }
}
