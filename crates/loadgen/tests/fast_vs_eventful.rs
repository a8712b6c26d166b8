//! The fast packet path against the eventful reference, on the same input.
//!
//! Every fast path in netsim — cut-through TX, inline RX, the folded
//! router and bridge, MoonGen burst sending — rests on cut-through links.
//! `NetSim::force_eventful` puts every link on the eventful path instead,
//! which turns all of them off at once. A fast path is only correct if
//! the simulation output is the same either way: every latency sample,
//! interval bucket, router and bridge statistic and port counter. Only
//! the number of queue events may differ.

use pos_loadgen::scenario::{build, measure, ForwardingScenario, Platform, ScenarioResult};
use pos_netsim::bridge::{BridgeStats, LinuxBridge};
use pos_netsim::engine::{Element, LinkConfig, NetSim, PortConfig, SimCtx};
use pos_netsim::port::PortCounters;
use pos_packet::builder::{Frame, UdpFrameSpec};
use pos_packet::MacAddr;
use pos_simkernel::{SimDuration, SimRng, SimTime};
use std::net::Ipv4Addr;

/// The case-study offered rates: six steps from 10 to 300 kpps.
const RATES: [f64; 6] = [
    10_000.0, 68_000.0, 126_000.0, 184_000.0, 242_000.0, 300_000.0,
];

/// Bridge statistics and every port counter of a finished simulation.
fn element_state(sim: &NetSim) -> (Vec<BridgeStats>, Vec<PortCounters>) {
    let bridges = (0..sim.node_count())
        .filter_map(|n| sim.element_as::<LinuxBridge>(n).map(|b| b.stats))
        .collect();
    let ports = (0..sim.node_count())
        .flat_map(|n| (0..sim.port_count(n)).map(move |p| (n, p)))
        .map(|(n, p)| sim.port_counters(n, p))
        .collect();
    (bridges, ports)
}

struct Outcome {
    result: ScenarioResult,
    bridges: Vec<BridgeStats>,
    ports: Vec<PortCounters>,
}

fn run(s: &ForwardingScenario, eventful: bool) -> Outcome {
    let (mut sim, gen, dut) = build(s);
    if eventful {
        sim.force_eventful();
    }
    let result = measure(s, &mut sim, gen, dut);
    let (bridges, ports) = element_state(&sim);
    Outcome {
        result,
        bridges,
        ports,
    }
}

/// Asserts equal simulation output, naming the first differing latency
/// sample instead of printing two full sample vectors.
fn assert_same(label: &str, fast: &Outcome, slow: &Outcome) {
    let (f, e) = (&fast.result.report, &slow.result.report);
    if let Some(i) = (0..f.latency_samples_ns.len().max(e.latency_samples_ns.len()))
        .find(|&i| f.latency_samples_ns.get(i) != e.latency_samples_ns.get(i))
    {
        panic!(
            "{label}: latency sample {i} differs: fast {:?} vs eventful {:?}",
            f.latency_samples_ns.get(i),
            e.latency_samples_ns.get(i)
        );
    }
    assert_eq!(f.intervals, e.intervals, "{label}: intervals");
    assert_eq!(
        fast.result.router, slow.result.router,
        "{label}: router stats"
    );
    assert_eq!(fast.bridges, slow.bridges, "{label}: bridge stats");
    assert_eq!(fast.ports, slow.ports, "{label}: port counters");
    let strip = |r: &ScenarioResult| ScenarioResult {
        events: 0,
        ..r.clone()
    };
    assert!(
        strip(&fast.result) == strip(&slow.result),
        "{label}: scenario results differ"
    );
}

/// The scenario default seed plus three more. Same-instant ties between a
/// bridge's forwarded frame and the vpos router's service timer are rare
/// in 200 ms; over these seeds a fold that broke them the wrong way
/// changes several vpos results.
const SEEDS: [u64; 4] = [0x705_0705, 1, 2, 3];

#[test]
fn case_study_fast_path_matches_eventful_reference() {
    for seed in SEEDS {
        for platform in [Platform::Pos, Platform::Vpos] {
            for pkt_size in [64, 1500] {
                for rate in RATES {
                    check_case_study(seed, platform, pkt_size, rate);
                }
            }
        }
    }
}

/// Runs one case-study scenario both ways and demands the same output.
fn check_case_study(seed: u64, platform: Platform, pkt_size: usize, rate: f64) {
    let mut s = ForwardingScenario::new(platform, pkt_size, rate);
    s.duration = SimDuration::from_millis(200);
    s.seed = seed;
    let label = format!("{} {pkt_size} B @ {rate} pps, seed {seed}", platform.name());
    let fast = run(&s, false);
    let slow = run(&s, true);
    assert_same(&label, &fast, &slow);
    assert!(
        fast.result.events < slow.result.events,
        "{label}: the fast path must actually engage ({} vs {} events)",
        fast.result.events,
        slow.result.events
    );
    if platform == Platform::Vpos {
        assert_eq!(fast.bridges.len(), 2, "{label}: both bridges compared");
    }
}

/// A host that sends one frame every `gap_ns` (one transmission per timer,
/// never a burst) and logs what it receives.
struct PacedHost {
    spec: UdpFrameSpec,
    gap_ns: u64,
    left: u32,
    received: Vec<(u64, u16)>,
}

impl Element for PacedHost {
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_frame(&mut self, _port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        let parsed = pos_packet::builder::parse_udp_frame(frame.bytes()).expect("udp frame");
        self.received
            .push((ctx.now().as_nanos(), parsed.udp.src_port));
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut SimCtx<'_>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let frame = self.spec.build_with_wire_size(64, &[]).expect("frame");
        ctx.transmit(0, frame);
        ctx.set_timer(SimDuration::from_nanos(self.gap_ns), 0);
    }

    /// Pure accounting on receive.
    fn inline_rx(&self, _port: usize, _all_ports_cut_through: bool) -> bool {
        true
    }
}

fn host(me: u8, peer: u8, gap_ns: u64) -> PacedHost {
    PacedHost {
        spec: UdpFrameSpec {
            src_mac: MacAddr::testbed_host(me),
            dst_mac: MacAddr::testbed_host(peer),
            src_ip: Ipv4Addr::new(10, 0, 0, me),
            dst_ip: Ipv4Addr::new(10, 0, 0, peer),
            src_port: u16::from(me),
            dst_port: u16::from(peer),
            ttl: 64,
        },
        gap_ns,
        left: 4_000,
        received: Vec::new(),
    }
}

/// Two hosts talk to each other through one bridge, so both bridge ports
/// carry traffic. The bridge is slower than the combined offered load, so
/// its queue fills and tail-drops, and the first frames flood before the
/// bridge learns the peers.
#[test]
fn bridge_with_traffic_on_both_ports_matches_eventful_reference() {
    let run = |eventful: bool| {
        let mut sim = NetSim::new(11);
        let a = sim.add_element("a", Box::new(host(1, 2, 1_300)), &[PortConfig::virtio()]);
        let b = sim.add_element("b", Box::new(host(2, 1, 1_700)), &[PortConfig::virtio()]);
        let br = sim.add_element(
            "br0",
            Box::new(LinuxBridge::with_cost(
                SimDuration::from_nanos(2_000),
                0.05,
                SimRng::new(11).derive("br0"),
            )),
            &[PortConfig::virtio(), PortConfig::virtio()],
        );
        sim.connect((a, 0), (br, 0), LinkConfig::memory_hop());
        sim.connect((b, 0), (br, 1), LinkConfig::memory_hop());
        if eventful {
            sim.force_eventful();
        }
        sim.run_until(SimTime::from_millis(10));
        let (bridges, ports) = element_state(&sim);
        let rx = |n| sim.element_as::<PacedHost>(n).unwrap().received.clone();
        (bridges, ports, rx(a), rx(b), sim.events_processed())
    };
    let fast = run(false);
    let slow = run(true);
    let stats = fast.0[0];
    assert!(
        stats.flooded > 0 && stats.unicast_forwarded > 0,
        "{stats:?}"
    );
    assert!(stats.queue_drops > 0, "the bridge must overflow: {stats:?}");
    assert_eq!(fast.0, slow.0, "bridge stats");
    assert_eq!(fast.1, slow.1, "port counters");
    assert_eq!(fast.2, slow.2, "frames received by a");
    assert_eq!(fast.3, slow.3, "frames received by b");
    assert!(fast.4 < slow.4, "the fold must engage");
}
