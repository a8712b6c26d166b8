//! Hardware switch models for the §7 topology discussion.
//!
//! The paper prefers direct cables between experiment hosts (strongest
//! isolation, R2) and quantifies the alternatives: an optical L1 switch
//! adds < 15 ns of constant delay; an L2 cut-through switch adds ≈ 300 ns.
//! These models let the `ablation_wiring` bench reproduce that comparison.

use crate::engine::{Element, SimCtx};
use pos_packet::builder::Frame;
use pos_packet::ethernet::EthernetHeader;
use pos_packet::MacAddr;
use pos_simkernel::SimDuration;
use std::collections::{BTreeMap, HashMap};

/// How the switch decides and delays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchKind {
    /// Optical L1 circuit switch: a static port-to-port light path. The
    /// paper cites < 15 ns added delay (Molex PXC).
    OpticalL1,
    /// L2 cut-through switch: MAC learning, forwarding begins after the
    /// header; ≈ 300 ns added delay (the FEC-killed-the-cut-through figure).
    CutThroughL2,
}

impl SwitchKind {
    /// The constant per-frame forwarding delay of this switch class.
    pub fn forwarding_delay(self) -> SimDuration {
        match self {
            SwitchKind::OpticalL1 => SimDuration::from_nanos(15),
            SwitchKind::CutThroughL2 => SimDuration::from_nanos(300),
        }
    }
}

/// Switch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames dropped for lack of a circuit / FDB entry and no flooding.
    pub dropped: u64,
    /// Frames flooded (L2 only).
    pub flooded: u64,
}

/// A hardware switch element.
///
/// Timers encode the pending frame: the frame is parked in `pending` and a
/// sequence token releases it after the forwarding delay.
pub struct HardwareSwitch {
    kind: SwitchKind,
    /// L1: static circuits, ingress port -> egress port.
    circuits: HashMap<usize, usize>,
    /// L2: learned MAC table (a tree: a few compares per lookup on a
    /// table this small, instead of SipHash).
    fdb: BTreeMap<MacAddr, usize>,
    pending: HashMap<u64, (usize, Frame)>,
    next_token: u64,
    /// Observable statistics.
    pub stats: SwitchStats,
}

impl HardwareSwitch {
    /// Creates a switch of the given kind.
    pub fn new(kind: SwitchKind) -> HardwareSwitch {
        HardwareSwitch {
            kind,
            circuits: HashMap::new(),
            fdb: BTreeMap::new(),
            pending: HashMap::new(),
            next_token: 0,
            stats: SwitchStats::default(),
        }
    }

    /// Programs a bidirectional L1 light path between two ports.
    ///
    /// # Panics
    /// Panics on an L2 switch — circuits are an L1 concept.
    pub fn add_circuit(&mut self, a: usize, b: usize) {
        assert_eq!(
            self.kind,
            SwitchKind::OpticalL1,
            "circuits can only be programmed on an optical L1 switch"
        );
        self.circuits.insert(a, b);
        self.circuits.insert(b, a);
    }

    /// The switch kind.
    pub fn kind(&self) -> SwitchKind {
        self.kind
    }
}

impl Element for HardwareSwitch {
    fn on_frame(&mut self, port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, (port, frame));
        ctx.set_timer(self.kind.forwarding_delay(), token);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        let Some((in_port, frame)) = self.pending.remove(&token) else {
            return;
        };
        match self.kind {
            SwitchKind::OpticalL1 => match self.circuits.get(&in_port) {
                Some(&out) => {
                    self.stats.forwarded += 1;
                    ctx.transmit(out, frame);
                }
                None => self.stats.dropped += 1,
            },
            SwitchKind::CutThroughL2 => {
                if let Ok((eth, _)) = EthernetHeader::parse(frame.bytes()) {
                    self.fdb.insert(eth.src, in_port);
                    match self.fdb.get(&eth.dst) {
                        Some(&out) if !eth.dst.is_multicast() && out != in_port => {
                            self.stats.forwarded += 1;
                            ctx.transmit(out, frame);
                        }
                        Some(&out) if !eth.dst.is_multicast() && out == in_port => {
                            self.stats.dropped += 1;
                        }
                        _ => {
                            // Flood replication shares one buffer: each
                            // clone is a refcount bump, not a byte copy.
                            self.stats.flooded += 1;
                            for p in 0..ctx.port_count() {
                                if p != in_port {
                                    ctx.transmit(p, frame.clone());
                                }
                            }
                        }
                    }
                } else {
                    self.stats.dropped += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LinkConfig, NetSim, NodeId, PortConfig};
    use crate::sink::CountingSink;
    use pos_packet::builder::UdpFrameSpec;
    use std::net::Ipv4Addr;

    fn frame() -> Frame {
        UdpFrameSpec {
            src_mac: MacAddr::testbed_host(1),
            dst_mac: MacAddr::testbed_host(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 1,
            dst_port: 2,
            ttl: 64,
        }
        .build_with_wire_size(64, &[])
        .unwrap()
    }

    struct OneShot;
    impl Element for OneShot {
        fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
            ctx.transmit(0, frame());
        }
        fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
    }

    fn sim_through_switch(mut sw: HardwareSwitch, program_circuit: bool) -> (NetSim, NodeId, u64) {
        if program_circuit {
            sw.add_circuit(0, 1);
        }
        let mut sim = NetSim::new(2);
        let src = sim.add_element("src", Box::new(OneShot), &[PortConfig::ten_gbe()]);
        let dst = sim.add_element(
            "dst",
            Box::new(CountingSink::new()),
            &[PortConfig::ten_gbe()],
        );
        let node = sim.add_element(
            "switch",
            Box::new(sw),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        sim.connect((src, 0), (node, 0), LinkConfig::direct_cable());
        sim.connect((node, 1), (dst, 0), LinkConfig::direct_cable());
        sim.run_to_idle();
        let arrival = sim.now().as_nanos();
        (sim, dst, arrival)
    }

    #[test]
    fn l1_circuit_forwards_with_15ns() {
        let (sim, dst, arrival) =
            sim_through_switch(HardwareSwitch::new(SwitchKind::OpticalL1), true);
        assert_eq!(sim.port_counters(dst, 0).rx_frames, 1);
        // 68 ns serialization + 10 ns cable + 15 ns switch + 68 + 10.
        assert_eq!(arrival, 68 + 10 + 15 + 68 + 10);
    }

    #[test]
    fn l2_cut_through_costs_300ns() {
        let (sim, dst, arrival) =
            sim_through_switch(HardwareSwitch::new(SwitchKind::CutThroughL2), false);
        assert_eq!(sim.port_counters(dst, 0).rx_frames, 1);
        assert_eq!(arrival, 68 + 10 + 300 + 68 + 10);
    }

    #[test]
    fn l1_without_circuit_drops() {
        let (sim, dst, _) = sim_through_switch(HardwareSwitch::new(SwitchKind::OpticalL1), false);
        assert_eq!(sim.port_counters(dst, 0).rx_frames, 0);
        let sw = sim.element_as::<HardwareSwitch>(2).unwrap();
        assert_eq!(sw.stats.dropped, 1);
    }

    #[test]
    fn l2_unknown_floods() {
        let (sim, _, _) = sim_through_switch(HardwareSwitch::new(SwitchKind::CutThroughL2), false);
        let sw = sim.element_as::<HardwareSwitch>(2).unwrap();
        assert_eq!(sw.stats.flooded, 1);
    }

    #[test]
    #[should_panic(expected = "optical L1")]
    fn circuits_on_l2_panic() {
        HardwareSwitch::new(SwitchKind::CutThroughL2).add_circuit(0, 1);
    }

    #[test]
    fn delay_ordering_matches_paper() {
        // direct (0) < L1 (15 ns) < L2 cut-through (300 ns)
        assert!(
            SwitchKind::OpticalL1.forwarding_delay() < SwitchKind::CutThroughL2.forwarding_delay()
        );
    }
}
