//! The fast packet path against the eventful reference, on the same input.
//!
//! Every fast path in netsim — cut-through TX, inline RX, the folded
//! router and bridge, the preempted router's timer agenda, MoonGen burst
//! sending — rests on cut-through links. `NetSim::force_eventful` puts
//! every link on the eventful path instead, which turns all of them off
//! at once. A fast path is only correct if the simulation output is the
//! same either way: every latency sample, interval bucket, router and
//! bridge statistic and port counter. Only the number of queue events may
//! differ. (`case_study_golden.rs` checks the output against earlier
//! versions, which a comparison within one build cannot.)

use pos_loadgen::scenario::{
    build_with_profile, measure, ForwardingScenario, Platform, ScenarioResult,
};
use pos_netsim::bridge::{BridgeStats, LinuxBridge};
use pos_netsim::engine::{Element, LinkConfig, NetSim, PortConfig, SimCtx};
use pos_netsim::port::PortCounters;
use pos_netsim::router::{LinuxRouter, PreemptionModel, RouteEntry, RouterStats, ServiceProfile};
use pos_packet::builder::{Frame, UdpFrameSpec};
use pos_packet::MacAddr;
use pos_simkernel::{SimDuration, SimRng, SimTime};
use proptest::prelude::*;
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

fn run(s: &ForwardingScenario, profile: ServiceProfile, eventful: bool) -> Outcome {
    let (mut sim, gen, dut) = build_with_profile(s, profile);
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
                let (mut events, mut sent) = (0, 0);
                for rate in RATES {
                    let fast = check_case_study(seed, platform, pkt_size, rate);
                    events += fast.events;
                    sent += fast.report.tx_frames;
                }
                // With the bridges folded and the router on its agenda, no
                // per-packet queue event is left on vpos (the router's
                // timer path takes 1.25 per packet over the sweep). The
                // bound is over the sweep, not per run: the preemption
                // edges of a 200 ms drain alone are 0.08 per packet of a
                // 10 kpps run.
                if platform == Platform::Vpos {
                    let per_packet = events as f64 / sent as f64;
                    assert!(
                        per_packet < 0.1,
                        "vpos {pkt_size} B sweep, seed {seed}: {per_packet:.3} queue events \
                         per sent packet; the router fold must engage"
                    );
                }
            }
        }
    }
}

/// Runs one case-study scenario both ways, demands the same output and
/// returns the fast run's result.
fn check_case_study(seed: u64, platform: Platform, pkt_size: usize, rate: f64) -> ScenarioResult {
    let mut s = ForwardingScenario::new(platform, pkt_size, rate);
    s.duration = SimDuration::from_millis(200);
    s.seed = seed;
    let label = format!("{} {pkt_size} B @ {rate} pps, seed {seed}", platform.name());
    let fast = run(&s, platform.dut_profile(), false);
    let slow = run(&s, platform.dut_profile(), true);
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
    fast.result
}

/// The multi-template and copy-on-write paths. IMIX stamps each packet
/// from one of three templates. A pcap recording shares each recorded
/// frame with the copy in flight, so the router's TTL and MAC rewrite
/// copies the frame instead of writing in place, and the capture must
/// still hold the frame as the generator sent it.
#[test]
fn imix_and_pcap_recording_match_eventful_reference() {
    for platform in [Platform::Pos, Platform::Vpos] {
        for (imix, record) in [(true, 0), (false, usize::MAX), (true, usize::MAX)] {
            let mut s = ForwardingScenario::new(platform, 64, 126_000.0);
            s.duration = SimDuration::from_millis(200);
            s.imix = imix;
            s.record_pcap_frames = record;
            let recording = if record == 0 { "off" } else { "all" };
            let label = format!("{} imix {imix}, recording {recording}", platform.name());
            let fast = run(&s, platform.dut_profile(), false);
            let slow = run(&s, platform.dut_profile(), true);
            assert_same(&label, &fast, &slow);
            let capture = &fast.result.tx_capture;
            assert_eq!(capture, &slow.result.tx_capture, "{label}: tx capture");
            if record == 0 {
                assert!(capture.is_empty(), "{label}: nothing recorded");
                continue;
            }
            assert_eq!(
                capture.len() as u64,
                fast.result.report.tx_frames,
                "{label}: every sent frame recorded"
            );
            assert!(
                fast.result.router.forwarded > 0,
                "{label}: {:?}",
                fast.result.router
            );
            for c in capture {
                let parsed = pos_packet::builder::parse_udp_frame(c.frame.bytes())
                    .expect("captured frame parses");
                assert_eq!(parsed.ip.ttl, 64, "{label}: the generator's TTL");
                assert_eq!(
                    parsed.eth.dst,
                    MacAddr::testbed_host(10),
                    "{label}: the DuT-ingress MAC"
                );
            }
            let mut sizes: Vec<usize> = capture.iter().map(|c| c.frame.wire_size()).collect();
            sizes.sort_unstable();
            sizes.dedup();
            assert_eq!(sizes.len(), if imix { 3 } else { 1 }, "{label}: {sizes:?}");
        }
    }
}

/// A host that sends one frame every `gap_ns` (one transmission per timer,
/// never a burst), numbering its frames in their payload, and logs what it
/// receives as (instant, sender's UDP port, frame number).
struct PacedHost {
    spec: UdpFrameSpec,
    gap_ns: u64,
    left: u32,
    received: Vec<(u64, u16, u32)>,
}

impl Element for PacedHost {
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_frame(&mut self, _port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        let parsed = pos_packet::builder::parse_udp_frame(frame.bytes()).expect("udp frame");
        let number = u32::from_be_bytes(parsed.payload[..4].try_into().expect("numbered frame"));
        self.received
            .push((ctx.now().as_nanos(), parsed.udp.src_port, number));
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut SimCtx<'_>) {
        if self.left == 0 {
            return;
        }
        self.left -= 1;
        let frame = self
            .spec
            .build_with_wire_size(64, &self.left.to_be_bytes())
            .expect("frame");
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

/// Log-uniform draw in `[lo, hi)` from a unit draw `u`.
fn log_uniform(lo: f64, hi: f64, u: f64) -> f64 {
    (lo.ln() + u * (hi.ln() - lo.ln())).exp()
}

proptest! {
    /// Random preempted routers on the vpos topology (MoonGen → br0 →
    /// router → br1 → MoonGen). Log-uniform draws put as many cases in
    /// the corners as in the middle: service times of 1–30 µs, mean vCPU
    /// run periods of a quarter to eight service times and pauses of a
    /// twentieth to eight (pauses shorter than a 1500 B frame's
    /// serialization make preemption edges tie with arrivals), rings of 1
    /// to 512 frames, jitter from none to σ = 0.6, and offered load from a
    /// fifth of the router's saturation rate to four times it.
    #[test]
    fn preempted_router_matches_eventful_reference(
        (seed, service_u, per_byte_ns) in (any::<u64>(), 0.0f64..1.0, 0.0f64..1.0),
        (period_u, pause_u, ring_u) in (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0),
        (sigma_pick, sigma, load_u) in (0u8..4, 0.0f64..0.6, 0.0f64..1.0),
        pkt_size in [64usize, 1500],
    ) {
        let base_ns = log_uniform(1_000.0, 30_000.0, service_u);
        let service_ns = base_ns + per_byte_ns * (pkt_size - 4) as f64;
        let mean = |lo, hi, u| SimDuration::from_nanos((log_uniform(lo, hi, u) * service_ns) as u64);
        let profile = ServiceProfile {
            name: "linux-router/proptest",
            base_ns,
            per_byte_ns,
            jitter_sigma: if sigma_pick == 0 { 0.0 } else { sigma },
            ring_size: log_uniform(1.0, 513.0, ring_u) as usize,
            preemption: Some(PreemptionModel {
                period_mean: mean(0.25, 8.0, period_u),
                pause_mean: mean(0.05, 8.0, pause_u),
            }),
        };
        let rate = profile.saturation_pps(pkt_size - 4) * log_uniform(0.2, 4.0, load_u);
        let mut s = ForwardingScenario::new(Platform::Vpos, pkt_size, rate.round());
        s.duration = SimDuration::from_millis(20);
        s.seed = seed;
        let label = format!("{profile:?} {pkt_size} B @ {} pps, seed {seed}", s.rate_pps);
        let fast = run(&s, profile, false);
        let slow = run(&s, profile, true);
        assert_same(&label, &fast, &slow);
    }
}

/// A router's input ring fed straight from a paced host, with a
/// deterministic service time that is a whole number of packet gaps: every
/// service completion lands on the same nanosecond as an arrival, and with
/// the ring full whichever of the two runs first decides whether that
/// arrival is dropped. The queue ranks a tied completion and arrival by
/// the instants they were scheduled at: the completion goes first when the
/// service outlasts the link's propagation delay, the arrival when the
/// propagation delay is longer. Without preemption this exercises the
/// folded timeline; with it, the agenda, whose completions stay on the
/// arrival grid until the first pause shifts them (a mean run period of
/// 1 ms leaves some 200 tied completions before that).
#[test]
fn same_nanosecond_arrivals_and_completions_match_eventful_reference() {
    const GAP_NS: u64 = 1_000;
    let preempted = Some(PreemptionModel {
        period_mean: SimDuration::from_millis(1),
        pause_mean: SimDuration::from_micros(20),
    });
    for (service_gaps, propagation_gaps, preemption) in [
        (3, 0, None),
        (7, 0, None),
        (3, 5, None),
        (5, 0, preempted),
        (3, 5, preempted),
    ] {
        let link = LinkConfig {
            propagation: SimDuration::from_nanos(10 + propagation_gaps * GAP_NS),
            ..LinkConfig::direct_cable()
        };
        let profile = ServiceProfile {
            name: "linux-router/tie",
            base_ns: (service_gaps * GAP_NS) as f64,
            per_byte_ns: 0.0,
            jitter_sigma: 0.0,
            ring_size: 4,
            preemption,
        };
        let run = |eventful: bool| {
            let mut sim = NetSim::new(5);
            let src = sim.add_element(
                "src",
                Box::new(host(1, 2, GAP_NS)),
                &[PortConfig::ten_gbe()],
            );
            let mut router = LinuxRouter::new(
                profile,
                vec![MacAddr::testbed_host(10), MacAddr::testbed_host(11)],
                SimRng::new(5).derive("dut"),
            );
            router.add_route(RouteEntry {
                network: Ipv4Addr::new(10, 0, 0, 0),
                prefix_len: 24,
                port: 1,
                next_hop_mac: MacAddr::testbed_host(2),
            });
            let dut = sim.add_element(
                "dut",
                Box::new(router),
                &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
            );
            let dst = sim.add_element(
                "dst",
                Box::new(host(2, 1, GAP_NS)),
                &[PortConfig::ten_gbe()],
            );
            sim.element_as_mut::<PacedHost>(dst).unwrap().left = 0;
            sim.connect((src, 0), (dut, 0), link.clone());
            sim.connect((dut, 1), (dst, 0), link.clone());
            if eventful {
                sim.force_eventful();
            }
            sim.run_until(SimTime::from_millis(5));
            let (_, ports) = element_state(&sim);
            let stats: RouterStats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
            let rx = sim.element_as::<PacedHost>(dst).unwrap().received.clone();
            (stats, ports, rx, sim.events_processed())
        };
        let fast = run(false);
        let slow = run(true);
        let label = format!(
            "service {service_gaps} gaps, propagation {propagation_gaps} gaps, \
             preemption {preemption:?}"
        );
        assert!(
            fast.0.ring_drops > 0,
            "{label}: the ring must overflow: {:?}",
            fast.0
        );
        assert_eq!(fast.0, slow.0, "{label}: router stats");
        assert_eq!(fast.1, slow.1, "{label}: port counters");
        assert_eq!(fast.2, slow.2, "{label}: frames received");
        assert!(fast.3 < slow.3, "{label}: the fast path must engage");
    }
}
