//! Recoverability (R3) in action.
//!
//! Two demonstrations:
//!
//! 1. **Host recovery** — the DuT wedges in the middle of a measurement
//!    run (driver crash). The controller notices the dead connection,
//!    resets the host out of band via IPMI, reboots the live image (clean
//!    slate), replays the setup script, and retries the run. The
//!    experiment completes with every run successful.
//! 2. **Link faults** — a lossy cable (smoltcp-style fault injection)
//!    between generator and DuT; the measurement output shows exactly the
//!    injected loss, demonstrating that loss accounting works end to end.
//!
//! Run with: `cargo run --release --example fault_recovery`

use pos::core::commands::register_all;
use pos::core::controller::{Controller, Progress, RunOptions};
use pos::core::experiment::linux_router_experiment;
use pos::core::script::Script;
use pos::netsim::engine::{LinkConfig, NetSim, PortConfig};
use pos::netsim::fault::FaultConfig;
use pos::netsim::router::{LinuxRouter, RouteEntry, ServiceProfile};
use pos::netsim::sink::CountingSink;
use pos::packet::builder::UdpFrameSpec;
use pos::packet::MacAddr;
use pos::simkernel::{SimDuration, SimRng, SimTime};
use pos::testbed::{CommandResult, HardwareSpec, InitInterface, PortId, Testbed};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::rc::Rc;

fn main() {
    host_recovery_demo();
    link_fault_demo();
}

fn host_recovery_demo() {
    println!("== 1. host crash mid-experiment, out-of-band recovery ==");
    let mut tb = Testbed::new(99);
    tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .expect("fresh ports");
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .expect("fresh ports");
    register_all(&mut tb);

    // A flaky driver probe: wedges the DuT on its second invocation.
    let calls = Rc::new(Cell::new(0u32));
    let counter = calls.clone();
    tb.register_command(
        "probe-driver",
        Rc::new(move |tb: &mut Testbed, host: &str, _argv: &[String]| {
            counter.set(counter.get() + 1);
            if counter.get() == 2 {
                tb.host_mut(host).expect("dut exists").inject_crash();
                CommandResult::fail(255, "connection reset by peer")
            } else {
                CommandResult::ok("driver ok")
            }
        }),
    );

    let mut spec = linux_router_experiment("vriga", "vtartu", 3, 1);
    spec.loop_vars =
        pos::core::vars::Variables::new().with("pkt_rate", vec![10_000i64, 20_000, 30_000]);
    // pkt_sz is no longer swept; the measurement script still uses it.
    spec.global_vars.set("pkt_sz", 64i64);
    // The DuT measurement script now pokes the flaky driver each run.
    spec.roles[1].measurement = Script::parse("probe-driver\nsleep $run_secs\npos_sync run_done\n");

    let root = std::env::temp_dir().join("pos-recovery-results");
    let outcome = Controller::new(&mut tb)
        .with_progress(|p| {
            if let Progress::RunDone {
                index,
                total,
                success,
                ..
            } = p
            {
                println!(
                    "  run {}/{} -> {}",
                    index + 1,
                    total,
                    if *success { "ok" } else { "FAILED" }
                );
            }
        })
        .run_experiment(&spec, &RunOptions::new(&root))
        .expect("experiment completes despite the crash");

    println!(
        "  all {} runs succeeded; {} out-of-band recoveries; DuT booted {} times",
        outcome.successes(),
        outcome.recoveries,
        tb.host("vtartu").expect("dut").boots
    );
    assert_eq!(outcome.successes(), 3);
    assert!(outcome.recoveries >= 1);
}

fn link_fault_demo() {
    println!("\n== 2. lossy cable: injected faults are visible in the results ==");
    for drop_chance in [0.0, 0.05, 0.15] {
        let mut sim = NetSim::new(7);
        let gen = sim.add_element(
            "moongen",
            Box::new(pos::loadgen::moongen::MoonGen::new(
                pos::loadgen::moongen::GeneratorConfig {
                    spec: UdpFrameSpec {
                        src_mac: MacAddr::testbed_host(1),
                        dst_mac: MacAddr::testbed_host(10),
                        src_ip: Ipv4Addr::new(10, 0, 0, 2),
                        dst_ip: Ipv4Addr::new(10, 0, 1, 2),
                        src_port: 1000,
                        dst_port: 2000,
                        ttl: 64,
                    },
                    size: pos::loadgen::moongen::SizeSpec::Fixed(64),
                    rate_pps: 100_000.0,
                    duration: SimDuration::from_secs(1),
                    flow_id: 1,
                    latency_sample_every: 16,
                    record_pcap_frames: 0,
                },
            )),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        let mut router = LinuxRouter::new(
            ServiceProfile::bare_metal(),
            vec![MacAddr::testbed_host(10), MacAddr::testbed_host(11)],
            SimRng::new(7).derive("dut"),
        );
        router.add_route(RouteEntry {
            network: Ipv4Addr::new(10, 0, 1, 0),
            prefix_len: 24,
            port: 1,
            next_hop_mac: MacAddr::testbed_host(2),
        });
        let dut = sim.add_element(
            "dut",
            Box::new(router),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        let fault = FaultConfig {
            drop_chance,
            ..FaultConfig::none()
        };
        sim.connect(
            (gen, 0),
            (dut, 0),
            LinkConfig::direct_cable().with_fault(fault),
        );
        sim.connect((dut, 1), (gen, 1), LinkConfig::direct_cable());

        // A counting sink is unnecessary — the generator's port 1 receives.
        let _unused = CountingSink::new();
        sim.run_until(SimTime::from_secs(2));
        let counters = sim.port_counters(gen, 0);
        let report = sim
            .element_as_mut::<pos::loadgen::moongen::MoonGen>(gen)
            .expect("generator")
            .report(counters.tx_frames, counters.tx_bytes);
        let (link_drops, _) = sim.link_fault_stats(gen, 0).expect("wired");
        println!(
            "  drop_chance {:>4.0}% -> measured loss {:>6.2}%  (link injector dropped {})",
            drop_chance * 100.0,
            report.loss_fraction() * 100.0,
            link_drops
        );
    }
}
