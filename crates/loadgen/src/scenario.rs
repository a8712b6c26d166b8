//! Prebuilt case-study topologies.
//!
//! §5 of the paper measures the same experiment on two platforms:
//!
//! * **pos** — real hardware: MoonGen and the Linux router DuT on separate
//!   machines, two direct 10 GbE cables between them (Intel 82599).
//! * **vpos** — a virtual clone: both hosts are KVM guests on one machine,
//!   connected through Linux bridges, vCPUs pinned.
//!
//! A key point of the pos methodology is that the *same experiment scripts*
//! drive both platforms; only variables change. This module is the
//! simulated analogue: one scenario description, two topology builders.

use crate::moongen::{GeneratorConfig, MoonGen, SizeSpec};
use crate::report::MoonGenReport;
use pos_netsim::bridge::LinuxBridge;
use pos_netsim::engine::{LinkConfig, NetSim, NodeId, PortConfig};
use pos_netsim::router::{LinuxRouter, RouteEntry, ServiceProfile};
use pos_packet::builder::UdpFrameSpec;
use pos_packet::MacAddr;
use pos_simkernel::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// Which incarnation of the testbed runs the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Platform {
    /// Bare-metal testbed, directly wired 10 GbE.
    Pos,
    /// Virtual testbed: KVM guests behind Linux bridges.
    Vpos,
}

impl Platform {
    /// The DuT service profile of this platform.
    pub fn dut_profile(self) -> ServiceProfile {
        match self {
            Platform::Pos => ServiceProfile::bare_metal(),
            Platform::Vpos => ServiceProfile::virtualized(),
        }
    }

    /// Short name used in result metadata.
    pub fn name(self) -> &'static str {
        match self {
            Platform::Pos => "pos",
            Platform::Vpos => "vpos",
        }
    }
}

/// One measurement run of the case study: forwarding throughput of the
/// Linux router for a given packet size and offered rate.
#[derive(Debug, Clone, Copy)]
pub struct ForwardingScenario {
    /// Hardware or virtual testbed.
    pub platform: Platform,
    /// Frame wire size in bytes (the paper's `pkt_sz`: 64 or 1500).
    /// Ignored when [`Self::imix`] is set.
    pub pkt_size: usize,
    /// Offered rate in packets per second (the paper's `pkt_rate`).
    pub rate_pps: f64,
    /// Measurement duration of the run.
    pub duration: SimDuration,
    /// Simulation seed; same seed ⇒ identical result.
    pub seed: u64,
    /// Latency sampling stride for the generator.
    pub latency_sample_every: u32,
    /// Whether the DuT actually routes. A freshly live-booted Linux does
    /// *not* forward (`net.ipv4.ip_forward=0`); if the setup script forgot
    /// to enable it, the measurement sees zero forwarded packets — set
    /// this to `false` to model that misconfiguration.
    pub dut_forwarding: bool,
    /// Overrides the DuT profile's service-time jitter sigma. Kernel boot
    /// parameters like `isolcpus` shield the forwarding cores from other
    /// work; experiments that set them observe less jitter (§4.4:
    /// experiment-specific boot parameters).
    pub dut_jitter_sigma: Option<f64>,
    /// Record the first N transmitted frames for pcap export (0 = off).
    pub record_pcap_frames: usize,
    /// Generate the simple-IMIX size mix instead of a fixed size.
    pub imix: bool,
    /// Fault behaviour of the generator→DuT link (chaos campaigns degrade
    /// this link for scheduled windows; the default is a healthy link).
    pub link_fault: pos_netsim::FaultConfig,
}

impl ForwardingScenario {
    /// A scenario with the defaults of the Appendix-A experiment: 1 s runs
    /// and 1-in-16 latency sampling.
    pub fn new(platform: Platform, pkt_size: usize, rate_pps: f64) -> ForwardingScenario {
        ForwardingScenario {
            platform,
            pkt_size,
            rate_pps,
            duration: SimDuration::from_secs(1),
            seed: 0x705_0705,
            latency_sample_every: 16,
            dut_forwarding: true,
            dut_jitter_sigma: None,
            record_pcap_frames: 0,
            imix: false,
            link_fault: pos_netsim::FaultConfig::none(),
        }
    }
}

/// Everything a run produces: the generator's report plus DuT-side
/// statistics (which a real experiment captures from the DuT's setup
/// script output).
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The MoonGen measurement report.
    pub report: MoonGenReport,
    /// Recorded TX frames when `record_pcap_frames > 0`.
    pub tx_capture: Vec<pos_packet::pcap::Capture>,
    /// Router forwarding statistics.
    pub router: pos_netsim::router::RouterStats,
    /// Number of simulation events processed (diagnostic).
    pub events: u64,
}

fn dut_profile_of(s: &ForwardingScenario) -> ServiceProfile {
    let mut profile = s.platform.dut_profile();
    if let Some(sigma) = s.dut_jitter_sigma {
        profile.jitter_sigma = sigma;
    }
    profile
}

fn generator_config(s: &ForwardingScenario) -> GeneratorConfig {
    GeneratorConfig {
        spec: UdpFrameSpec {
            src_mac: MacAddr::testbed_host(1),
            dst_mac: MacAddr::testbed_host(10), // DuT ingress port
            src_ip: Ipv4Addr::new(10, 0, 0, 2),
            dst_ip: Ipv4Addr::new(10, 0, 1, 2),
            src_port: 1000,
            dst_port: 2000,
            ttl: 64,
        },
        size: if s.imix {
            SizeSpec::Imix
        } else {
            SizeSpec::Fixed(s.pkt_size)
        },
        rate_pps: s.rate_pps,
        duration: s.duration,
        flow_id: 1,
        latency_sample_every: s.latency_sample_every,
        record_pcap_frames: s.record_pcap_frames,
    }
}

fn build_router(s: &ForwardingScenario, profile: ServiceProfile) -> LinuxRouter {
    let mut router = LinuxRouter::new(
        profile,
        vec![MacAddr::testbed_host(10), MacAddr::testbed_host(11)],
        SimRng::new(s.seed).derive("dut"),
    );
    if !s.dut_forwarding {
        // No routes: every packet is dropped with `no_route`, the closest
        // analogue of ip_forward=0 our router model has.
        return router;
    }
    router.add_route(RouteEntry {
        network: Ipv4Addr::new(10, 0, 1, 0),
        prefix_len: 24,
        port: 1,
        next_hop_mac: MacAddr::testbed_host(2), // generator RX port
    });
    router.add_route(RouteEntry {
        network: Ipv4Addr::new(10, 0, 0, 0),
        prefix_len: 24,
        port: 0,
        next_hop_mac: MacAddr::testbed_host(1),
    });
    router
}

/// Builds the simulation for a scenario; returns `(sim, generator, dut)`.
pub fn build(s: &ForwardingScenario) -> (NetSim, NodeId, NodeId) {
    build_with_profile(s, dut_profile_of(s))
}

/// [`build`] with an explicit DuT service profile in place of the
/// platform's (the scenario's jitter override is not applied).
pub fn build_with_profile(
    s: &ForwardingScenario,
    profile: ServiceProfile,
) -> (NetSim, NodeId, NodeId) {
    let mut sim = NetSim::new(s.seed);
    match s.platform {
        Platform::Pos => {
            let gen = sim.add_element(
                "moongen",
                Box::new(MoonGen::new(generator_config(s))),
                &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
            );
            let dut = sim.add_element(
                "dut",
                Box::new(build_router(s, profile)),
                &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
            );
            // Two direct cables, the paper's preferred wiring (R2). The
            // generator→DuT cable carries the scenario's fault config.
            sim.connect(
                (gen, 0),
                (dut, 0),
                LinkConfig::direct_cable().with_fault(s.link_fault),
            );
            sim.connect((dut, 1), (gen, 1), LinkConfig::direct_cable());
            (sim, gen, dut)
        }
        Platform::Vpos => {
            let gen = sim.add_element(
                "moongen-vm",
                Box::new(MoonGen::new(generator_config(s))),
                &[PortConfig::virtio(), PortConfig::virtio()],
            );
            let dut = sim.add_element(
                "dut-vm",
                Box::new(build_router(s, profile)),
                &[PortConfig::virtio(), PortConfig::virtio()],
            );
            let rng = SimRng::new(s.seed);
            let br0 = sim.add_element(
                "br0",
                Box::new(LinuxBridge::new(rng.derive("br0"))),
                &[PortConfig::virtio(), PortConfig::virtio()],
            );
            let br1 = sim.add_element(
                "br1",
                Box::new(LinuxBridge::new(rng.derive("br1"))),
                &[PortConfig::virtio(), PortConfig::virtio()],
            );
            sim.connect(
                (gen, 0),
                (br0, 0),
                LinkConfig::memory_hop().with_fault(s.link_fault),
            );
            sim.connect((br0, 1), (dut, 0), LinkConfig::memory_hop());
            sim.connect((dut, 1), (br1, 0), LinkConfig::memory_hop());
            sim.connect((br1, 1), (gen, 1), LinkConfig::memory_hop());
            (sim, gen, dut)
        }
    }
}

/// Runs one measurement and returns the results.
pub fn run_forwarding_experiment(s: &ForwardingScenario) -> ScenarioResult {
    let (mut sim, gen, dut) = build(s);
    measure(s, &mut sim, gen, dut)
}

/// Runs a simulation built by [`build`] for the scenario's measurement and
/// collects the results; the simulation stays available for inspection.
pub fn measure(
    s: &ForwardingScenario,
    sim: &mut NetSim,
    gen: NodeId,
    dut: NodeId,
) -> ScenarioResult {
    // Run for the measurement duration plus drain time for in-flight
    // packets (generous for the slow virtualized path).
    let drain = SimDuration::from_millis(200);
    sim.run_until(SimTime::ZERO + s.duration + drain);
    let counters = sim.port_counters(gen, 0);
    let generator = sim.element_as::<MoonGen>(gen).expect("generator element");
    let report = generator.report(counters.tx_frames, counters.tx_bytes);
    let tx_capture = generator.tx_capture.clone();
    let router = sim
        .element_as::<LinuxRouter>(dut)
        .expect("router element")
        .stats;
    ScenarioResult {
        report,
        tx_capture,
        router,
        events: sim.events_processed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short(platform: Platform, pkt_size: usize, rate_pps: f64) -> ForwardingScenario {
        let mut s = ForwardingScenario::new(platform, pkt_size, rate_pps);
        s.duration = SimDuration::from_millis(200);
        s
    }

    #[test]
    fn pos_below_saturation_is_lossless() {
        let r = run_forwarding_experiment(&short(Platform::Pos, 64, 1_000_000.0));
        assert_eq!(r.report.tx_nic_drops, 0);
        assert_eq!(r.router.ring_drops, 0);
        assert!(
            r.report.loss_fraction() < 0.001,
            "loss {}",
            r.report.loss_fraction()
        );
    }

    #[test]
    fn degraded_link_loses_packets_deterministically() {
        let mut s = short(Platform::Pos, 64, 1_000_000.0);
        s.link_fault.drop_chance = 0.3;
        let a = run_forwarding_experiment(&s);
        let loss = a.report.loss_fraction();
        assert!((0.25..0.35).contains(&loss), "loss {loss} far from 0.3");
        // Chaos is replayable: the same scenario loses the same packets.
        let b = run_forwarding_experiment(&s);
        assert_eq!(a.report.rx_frames, b.report.rx_frames);
        assert_eq!(a.report.tx_frames, b.report.tx_frames);
    }

    #[test]
    fn pos_small_packets_saturate_near_1_75_mpps() {
        let r = run_forwarding_experiment(&short(Platform::Pos, 64, 2_200_000.0));
        let rx = r.report.rx_mpps();
        assert!((1.6..1.9).contains(&rx), "Fig 3a shape: got {rx} Mpps");
        assert!(r.router.ring_drops > 0);
    }

    #[test]
    fn pos_large_packets_cap_at_line_rate() {
        let r = run_forwarding_experiment(&short(Platform::Pos, 1500, 1_000_000.0));
        let rx = r.report.rx_mpps();
        // 10 Gbit/s line rate for 1500 B frames ≈ 0.822 Mpps; the paper
        // reports ≈0.8 Mpps.
        assert!((0.78..0.84).contains(&rx), "got {rx} Mpps");
        // The bottleneck is the generator's own NIC, not the router.
        assert!(r.report.tx_nic_drops > 0);
        assert_eq!(r.router.ring_drops, 0);
    }

    #[test]
    fn vpos_saturates_near_40_kpps_for_both_sizes() {
        for pkt_size in [64, 1500] {
            let r = run_forwarding_experiment(&short(Platform::Vpos, pkt_size, 100_000.0));
            let rx_kpps = r.report.rx_mpps() * 1e3;
            assert!(
                (28.0..52.0).contains(&rx_kpps),
                "Fig 3b shape for {pkt_size} B: got {rx_kpps} kpps"
            );
        }
    }

    #[test]
    fn vpos_below_saturation_is_lossless() {
        let r = run_forwarding_experiment(&short(Platform::Vpos, 1500, 20_000.0));
        assert!(
            r.report.loss_fraction() < 0.005,
            "loss {}",
            r.report.loss_fraction()
        );
    }

    #[test]
    fn imix_saturation_sits_between_the_fixed_sizes() {
        // On bare metal, per-packet CPU cost grows with size, so the IMIX
        // drop-free limit must fall between the 1500 B and 64 B limits.
        let run = |pkt_size: usize, imix: bool| -> f64 {
            let mut s = short(Platform::Pos, pkt_size, 2_200_000.0);
            s.imix = imix;
            run_forwarding_experiment(&s).report.rx_mpps()
        };
        let peak64 = run(64, false);
        let peak_imix = run(64, true);
        let peak1500 = run(1500, false);
        assert!(
            peak1500 < peak_imix && peak_imix < peak64,
            "ordering violated: 1500B {peak1500} / imix {peak_imix} / 64B {peak64}"
        );
    }

    #[test]
    fn determinism_same_seed_identical_reports() {
        let s = short(Platform::Vpos, 64, 50_000.0);
        let a = run_forwarding_experiment(&s);
        let b = run_forwarding_experiment(&s);
        assert_eq!(a.report, b.report);
        assert_eq!(a.router, b.router);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn different_seeds_differ_in_detail() {
        let mut s1 = short(Platform::Vpos, 64, 50_000.0);
        let mut s2 = s1;
        s1.seed = 1;
        s2.seed = 2;
        let a = run_forwarding_experiment(&s1);
        let b = run_forwarding_experiment(&s2);
        assert_ne!(
            a.report.latency_samples_ns, b.report.latency_samples_ns,
            "different seeds must perturb the stochastic detail"
        );
    }

    #[test]
    fn latency_reflects_platform_gap() {
        let pos = run_forwarding_experiment(&short(Platform::Pos, 64, 100_000.0));
        let vpos = run_forwarding_experiment(&short(Platform::Vpos, 64, 10_000.0));
        let l_pos = pos.report.latency_mean_ns().unwrap();
        let l_vpos = vpos.report.latency_mean_ns().unwrap();
        assert!(
            l_vpos > l_pos * 5.0,
            "virtualization must add latency: {l_pos} vs {l_vpos}"
        );
    }
}
