//! NIC ports: line-rate serialization, transmit queues, and counters.

use pos_packet::builder::Frame;
use pos_packet::wire_bits;
use pos_simkernel::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static configuration of a NIC port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortConfig {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Transmit queue capacity in frames (hardware descriptor ring).
    pub tx_queue_frames: usize,
}

impl PortConfig {
    /// A 10 Gbit/s port, like the Intel 82599 in the paper's DuT.
    pub fn ten_gbe() -> PortConfig {
        PortConfig {
            rate_bps: 10_000_000_000,
            tx_queue_frames: 512,
        }
    }

    /// A 1 Gbit/s port.
    pub fn one_gbe() -> PortConfig {
        PortConfig {
            rate_bps: 1_000_000_000,
            tx_queue_frames: 256,
        }
    }

    /// A virtio-style paravirtual port: no serial line; the "wire" is a
    /// memory copy, so the effective rate is high and the queue deep.
    pub fn virtio() -> PortConfig {
        PortConfig {
            rate_bps: 40_000_000_000,
            tx_queue_frames: 1024,
        }
    }

    /// Serialization time of a frame of `wire_size` bytes at this rate.
    pub fn serialization_time(&self, wire_size: usize) -> SimDuration {
        let bits = wire_bits(wire_size);
        // ceil(bits * 1e9 / rate) nanoseconds; u128 avoids overflow.
        let ns = (u128::from(bits) * 1_000_000_000).div_ceil(u128::from(self.rate_bps));
        SimDuration::from_nanos(ns as u64)
    }
}

/// Traffic counters of one port, in both directions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PortCounters {
    /// Frames fully serialized onto the wire.
    pub tx_frames: u64,
    /// Wire bytes transmitted (FCS included, preamble/IFG excluded).
    pub tx_bytes: u64,
    /// Frames dropped because the transmit queue was full.
    pub tx_queue_drops: u64,
    /// Frames received intact.
    pub rx_frames: u64,
    /// Wire bytes received.
    pub rx_bytes: u64,
    /// Frames discarded due to a bad FCS (fault-injected corruption).
    pub rx_errors: u64,
}

/// Where a port's cut-through transmissions go, resolved once when the
/// simulation starts: the far end of its fault-free link.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Egress {
    /// The receiving element.
    pub(crate) node: usize,
    /// Its port index.
    pub(crate) port: usize,
    /// Whether the receiver takes frames on that port inline.
    pub(crate) inline: bool,
    /// The link's propagation delay.
    pub(crate) propagation: SimDuration,
}

/// Runtime state of a NIC port.
#[derive(Debug)]
pub struct Port {
    /// Static configuration.
    pub config: PortConfig,
    /// Pending frames awaiting serialization.
    pub(crate) tx_queue: VecDeque<Frame>,
    /// The frame currently being serialized, if any.
    pub(crate) in_flight: Option<Frame>,
    /// When the in-flight frame finishes serialization.
    pub(crate) busy_until: SimTime,
    /// Index of the link this port is wired to, if any — stored on the
    /// port so the per-frame delivery path needs no map lookup.
    pub(crate) link: Option<usize>,
    /// Start instants of cut-through transmissions that are accepted but
    /// not yet serializing (the "queue" of the eventless TX path). Entries
    /// at or before the current instant are popped lazily; the length is
    /// the queue occupancy used for tail-drop decisions.
    pub(crate) pending_starts: VecDeque<SimTime>,
    /// The cut-through egress, set at simulation start when the port is
    /// wired to a fault-free link; `None` keeps the eventful path.
    pub(crate) egress: Option<Egress>,
    /// `(wire size, serialization time)` of the last cut-through frame:
    /// a port sending one size computes its serialization time once.
    last_serialization: (usize, SimDuration),
    /// Counters.
    pub counters: PortCounters,
}

impl Port {
    /// Creates an idle port.
    pub fn new(config: PortConfig) -> Port {
        Port {
            config,
            tx_queue: VecDeque::new(),
            in_flight: None,
            busy_until: SimTime::ZERO,
            link: None,
            pending_starts: VecDeque::new(),
            egress: None,
            last_serialization: (usize::MAX, SimDuration::ZERO),
            counters: PortCounters::default(),
        }
    }

    /// Serialization time of a `wire_size`-byte frame, remembered for
    /// the next frame of the same size.
    #[inline]
    pub(crate) fn serialization_time(&mut self, wire_size: usize) -> SimDuration {
        if self.last_serialization.0 != wire_size {
            self.last_serialization = (wire_size, self.config.serialization_time(wire_size));
        }
        self.last_serialization.1
    }

    /// True while a frame is being serialized.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Frames waiting in the transmit queue (eventful path) plus accepted
    /// cut-through transmissions that have not started serializing.
    pub fn queued(&self) -> usize {
        self.tx_queue.len() + self.pending_starts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_time_64b_at_10g() {
        // (64+20)*8 = 672 bits at 10 Gbit/s = 67.2 ns, rounded up to 68.
        let t = PortConfig::ten_gbe().serialization_time(64);
        assert_eq!(t, SimDuration::from_nanos(68));
    }

    #[test]
    fn serialization_time_1500b_at_10g() {
        // (1500+20)*8 = 12160 bits = 1216 ns exactly.
        let t = PortConfig::ten_gbe().serialization_time(1500);
        assert_eq!(t, SimDuration::from_nanos(1216));
    }

    #[test]
    fn serialization_scales_with_rate() {
        let g1 = PortConfig::one_gbe().serialization_time(1500);
        let g10 = PortConfig::ten_gbe().serialization_time(1500);
        assert_eq!(g1.as_nanos(), g10.as_nanos() * 10);
    }

    #[test]
    fn new_port_is_idle() {
        let p = Port::new(PortConfig::ten_gbe());
        assert!(!p.is_busy());
        assert_eq!(p.queued(), 0);
        assert_eq!(p.counters, PortCounters::default());
    }
}
