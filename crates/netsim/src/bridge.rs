//! The Linux bridge — vpos's virtual interconnect.
//!
//! §5 of the paper: *"We use Linux bridges for the connection between the
//! experiment VMs."* A Linux bridge is a software learning switch running
//! on the host: it learns source MACs, forwards known unicast to the
//! learned port, floods unknown destinations and broadcast, and charges a
//! per-packet CPU cost. The cost is small compared to the virtualized
//! router's, so — as the paper observes — the generator's rate remains
//! stable in vpos while the DuT VM is the bottleneck.
//!
//! The bridge is a FIFO single server, so on all-cut-through ports it runs
//! timeline-folded (see the `fold` module): learning, the forward/flood
//! decision and the service draw happen at the arrival, and the outputs
//! leave future-dated at the service completion — no per-packet events.
//! With a faulty port it keeps the service-timer path.

use crate::engine::{Element, SimCtx};
use crate::fold::Fold;
use pos_packet::builder::Frame;
use pos_packet::ethernet::EthernetHeader;
use pos_packet::MacAddr;
use pos_simkernel::{SimDuration, SimRng};
use std::collections::{BTreeMap, VecDeque};

const TOKEN_SERVICE_DONE: u64 = 1;

/// Bridge statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BridgeStats {
    /// Frames forwarded to a single learned port.
    pub unicast_forwarded: u64,
    /// Frames flooded to all other ports.
    pub flooded: u64,
    /// Frames dropped because the bridge queue was full.
    pub queue_drops: u64,
    /// Frames dropped because they arrived back on the learned port
    /// (hairpin suppressed).
    pub hairpin_drops: u64,
}

/// A software learning bridge with a per-packet service cost.
pub struct LinuxBridge {
    /// Per-packet service time, fixed part.
    base: SimDuration,
    /// Additional service per frame byte, in nanoseconds.
    per_byte_ns: f64,
    /// Learned MAC → port. A tree, not a hash map: it holds a handful of
    /// entries, and a lookup then costs a few compares instead of SipHash.
    fdb: BTreeMap<MacAddr, usize>,
    queue: VecDeque<(usize, Frame)>,
    queue_cap: usize,
    serving: bool,
    /// The folded service timeline, used on all-cut-through ports.
    fold: Fold,
    rng: SimRng,
    /// Observable statistics.
    pub stats: BridgeStats,
}

impl LinuxBridge {
    /// A bridge with the default host-CPU cost model: ≈1.2 µs per packet
    /// (well under the 3.3 µs budget of the case study's 300 kpps peak).
    pub fn new(rng: SimRng) -> LinuxBridge {
        LinuxBridge::with_cost(SimDuration::from_nanos(1_100), 0.05, rng)
    }

    /// A bridge with an explicit cost model.
    pub fn with_cost(base: SimDuration, per_byte_ns: f64, rng: SimRng) -> LinuxBridge {
        LinuxBridge {
            base,
            per_byte_ns,
            fdb: BTreeMap::new(),
            queue: VecDeque::new(),
            queue_cap: 1_000,
            serving: false,
            fold: Fold::default(),
            rng,
            stats: BridgeStats::default(),
        }
    }

    /// Number of learned forwarding-database entries.
    pub fn fdb_len(&self) -> usize {
        self.fdb.len()
    }

    /// Samples the service time of a frame of `len` bytes.
    fn sample_service(&mut self, len: usize) -> SimDuration {
        // ±10% uniform jitter on the service time.
        let jitter = 0.9 + 0.2 * self.rng.uniform_f64();
        let ns = (self.base.as_nanos() as f64 + self.per_byte_ns * len as f64) * jitter;
        SimDuration::from_secs_f64(ns * 1e-9)
    }

    fn begin_service(&mut self, ctx: &mut SimCtx<'_>) {
        if self.serving {
            return;
        }
        let Some((_, frame)) = self.queue.front() else {
            return;
        };
        let service = self.sample_service(frame.bytes().len());
        self.serving = true;
        ctx.set_timer(service, TOKEN_SERVICE_DONE);
    }

    fn finish_service(&mut self, ctx: &mut SimCtx<'_>) {
        self.serving = false;
        let Some((in_port, frame)) = self.queue.pop_front() else {
            return;
        };
        self.switch(in_port, frame, ctx);
        self.begin_service(ctx);
    }

    /// Learns the source MAC, then forwards, floods or hairpin-drops.
    fn switch(&mut self, in_port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        if let Ok((eth, _)) = EthernetHeader::parse(frame.bytes()) {
            self.fdb.insert(eth.src, in_port);
            match self.fdb.get(&eth.dst) {
                Some(&out) if !eth.dst.is_multicast() => {
                    if out == in_port {
                        self.stats.hairpin_drops += 1;
                    } else {
                        self.stats.unicast_forwarded += 1;
                        self.fold.transmit(out, frame, ctx);
                    }
                }
                _ => {
                    // Unknown unicast or group address: flood. Replication
                    // shares one buffer — each clone is a refcount bump.
                    self.stats.flooded += 1;
                    for port in 0..ctx.port_count() {
                        if port != in_port {
                            self.fold.transmit(port, frame.clone(), ctx);
                        }
                    }
                }
            }
        }
    }
}

impl Element for LinuxBridge {
    fn on_frame(&mut self, port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        if !self.fold.engaged(true, ctx) {
            if self.queue.len() >= self.queue_cap {
                self.stats.queue_drops += 1;
                return;
            }
            self.queue.push_back((port, frame));
            self.begin_service(ctx);
            return;
        }
        // Folded path: FIFO service in arrival order means learning and
        // the forwarding decision see the same table state here as at the
        // service completion on the timer path.
        if !self.fold.admit("LinuxBridge", self.queue_cap, port, ctx) {
            self.stats.queue_drops += 1;
            return;
        }
        let service = self.sample_service(frame.bytes().len());
        self.fold.begin(ctx.now(), service);
        self.switch(port, frame, ctx);
        self.fold.end();
    }

    /// On all-cut-through ports the bridge runs folded: it consumes every
    /// arrival into timestamp arithmetic and future-dated transmissions,
    /// so it may receive ahead of global event order.
    fn inline_rx(&self, _port: usize, all_ports_cut_through: bool) -> bool {
        all_ports_cut_through
    }

    fn on_timer(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        if token == TOKEN_SERVICE_DONE {
            self.finish_service(ctx);
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

    fn frame(src: u8, dst: u8) -> Frame {
        UdpFrameSpec {
            src_mac: MacAddr::testbed_host(src),
            dst_mac: MacAddr::testbed_host(dst),
            src_ip: Ipv4Addr::new(10, 0, 0, src),
            dst_ip: Ipv4Addr::new(10, 0, 0, dst),
            src_port: 1,
            dst_port: 2,
            ttl: 64,
        }
        .build_with_wire_size(64, &[])
        .unwrap()
    }

    struct Script {
        frames: Vec<Frame>,
    }
    impl Element for Script {
        fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
            for f in self.frames.drain(..) {
                ctx.transmit(0, f);
            }
        }
        fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
    }

    /// host1 and host2 behind a 3-port bridge; host3 observes flooding.
    fn bridged_sim(h1_frames: Vec<Frame>) -> (NetSim, NodeId, NodeId, NodeId) {
        let mut sim = NetSim::new(5);
        let h1 = sim.add_element(
            "h1",
            Box::new(Script { frames: h1_frames }),
            &[PortConfig::virtio()],
        );
        let h2 = sim.add_element("h2", Box::new(CountingSink::new()), &[PortConfig::virtio()]);
        let h3 = sim.add_element("h3", Box::new(CountingSink::new()), &[PortConfig::virtio()]);
        let br = sim.add_element(
            "br0",
            Box::new(LinuxBridge::new(SimRng::new(5).derive("br0"))),
            &[
                PortConfig::virtio(),
                PortConfig::virtio(),
                PortConfig::virtio(),
            ],
        );
        sim.connect((h1, 0), (br, 0), LinkConfig::memory_hop());
        sim.connect((h2, 0), (br, 1), LinkConfig::memory_hop());
        sim.connect((h3, 0), (br, 2), LinkConfig::memory_hop());
        (sim, br, h2, h3)
    }

    #[test]
    fn unknown_unicast_floods_then_learns() {
        // First frame h1->h2: unknown, flooded to h2 and h3. A reply
        // h2->h1 would teach the bridge; instead send a second h1->h2
        // frame — still flooded because h2's MAC was never seen as source.
        let (mut sim, br, h2, h3) = bridged_sim(vec![frame(1, 2), frame(1, 2)]);
        sim.run_to_idle();
        let stats = sim.element_as::<LinuxBridge>(br).unwrap().stats;
        assert_eq!(stats.flooded, 2);
        assert_eq!(sim.port_counters(h2, 0).rx_frames, 2);
        assert_eq!(sim.port_counters(h3, 0).rx_frames, 2, "flooding reaches h3");
        assert_eq!(sim.element_as::<LinuxBridge>(br).unwrap().fdb_len(), 1);
    }

    #[test]
    fn learned_unicast_does_not_flood() {
        let mut sim = NetSim::new(5);
        // h2 speaks first so the bridge learns it; then h1->h2 is unicast.
        let h2 = sim.add_element(
            "h2",
            Box::new(Script {
                frames: vec![frame(2, 99)],
            }),
            &[PortConfig::virtio()],
        );
        let h1 = sim.add_element(
            "h1",
            Box::new(Script {
                frames: vec![frame(1, 2)],
            }),
            &[PortConfig::virtio()],
        );
        let h3 = sim.add_element("h3", Box::new(CountingSink::new()), &[PortConfig::virtio()]);
        let br = sim.add_element(
            "br0",
            Box::new(LinuxBridge::new(SimRng::new(5).derive("br0"))),
            &[
                PortConfig::virtio(),
                PortConfig::virtio(),
                PortConfig::virtio(),
            ],
        );
        sim.connect((h2, 0), (br, 0), LinkConfig::memory_hop());
        sim.connect((h1, 0), (br, 1), LinkConfig::memory_hop());
        sim.connect((h3, 0), (br, 2), LinkConfig::memory_hop());
        sim.run_to_idle();
        let stats = sim.element_as::<LinuxBridge>(br).unwrap().stats;
        assert_eq!(stats.unicast_forwarded, 1, "h1->h2 must be unicast");
        // h3 saw only the initial flood of h2's frame, not h1->h2.
        assert_eq!(sim.port_counters(h3, 0).rx_frames, 1);
    }

    #[test]
    fn broadcast_always_floods() {
        let mut bcast = frame(1, 2);
        bcast.bytes_mut()[0..6].copy_from_slice(&MacAddr::BROADCAST.octets());
        let (mut sim, br, h2, h3) = bridged_sim(vec![bcast]);
        sim.run_to_idle();
        assert_eq!(sim.element_as::<LinuxBridge>(br).unwrap().stats.flooded, 1);
        assert_eq!(sim.port_counters(h2, 0).rx_frames, 1);
        assert_eq!(sim.port_counters(h3, 0).rx_frames, 1);
    }

    #[test]
    fn bridge_adds_latency_but_sustains_case_study_rates() {
        // 400 frames through the bridge: mean cost ≈1.1 µs each, so the
        // bridge sustains ≈900 kpps — far above the 300 kpps the case study
        // offers. Verify total time ≈ 400 × 1.1 µs, not rate-limited more.
        let frames: Vec<Frame> = (0..400).map(|_| frame(1, 2)).collect();
        let (mut sim, _, h2, _) = bridged_sim(frames);
        sim.run_to_idle();
        assert_eq!(sim.port_counters(h2, 0).rx_frames, 400);
        let total = sim.now().as_secs_f64();
        let per_frame_us = total * 1e6 / 400.0;
        assert!(
            (0.9..1.4).contains(&per_frame_us),
            "per-frame bridge cost {per_frame_us:.2} µs out of range"
        );
    }

    #[test]
    #[should_panic(expected = "folded LinuxBridge `br0`: arrival at")]
    fn folded_bridge_rejects_reordered_arrivals() {
        // h1 queues two frames back to back, h2 one frame at the same
        // instant: inline delivery hands the bridge h1's second frame
        // before h2's earlier one, and the fold refuses to go backwards.
        let mut sim = NetSim::new(5);
        let h1 = sim.add_element(
            "h1",
            Box::new(Script {
                frames: vec![frame(1, 2), frame(1, 2)],
            }),
            &[PortConfig::virtio()],
        );
        let h2 = sim.add_element(
            "h2",
            Box::new(Script {
                frames: vec![frame(2, 1)],
            }),
            &[PortConfig::virtio()],
        );
        let br = sim.add_element(
            "br0",
            Box::new(LinuxBridge::new(SimRng::new(5).derive("br0"))),
            &[PortConfig::virtio(), PortConfig::virtio()],
        );
        sim.connect((h1, 0), (br, 0), LinkConfig::memory_hop());
        sim.connect((h2, 0), (br, 1), LinkConfig::memory_hop());
        sim.run_to_idle();
    }

    #[test]
    fn hairpin_suppressed() {
        // h1 sends a frame addressed to h1's own MAC: after learning, the
        // destination is the ingress port — the bridge must not hairpin.
        let (mut sim, br, h2, h3) = bridged_sim(vec![frame(1, 1)]);
        sim.run_to_idle();
        let stats = sim.element_as::<LinuxBridge>(br).unwrap().stats;
        assert_eq!(stats.hairpin_drops, 1);
        assert_eq!(sim.port_counters(h2, 0).rx_frames, 0);
        assert_eq!(sim.port_counters(h3, 0).rx_frames, 0);
    }
}
