//! The §5 claim: *the same experiment scripts* run on the hardware
//! testbed (pos) and on its virtual clone (vpos); raw numbers differ by
//! up to 44×, but the tendencies agree.

mod common;

use common::TempDir;
use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::eval::loader::ResultSet;
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};

/// Builds either testbed flavor with identical host names and wiring —
/// only the hardware (and thus init interface) differs.
fn testbed(virtualized: bool) -> Testbed {
    let mut tb = Testbed::new(0xAB);
    let (spec_fn, init): (fn() -> HardwareSpec, InitInterface) = if virtualized {
        (HardwareSpec::vpos_vm, InitInterface::Hypervisor)
    } else {
        (HardwareSpec::paper_dut, InitInterface::Ipmi)
    };
    tb.add_host("vriga", spec_fn(), init);
    tb.add_host("vtartu", spec_fn(), init);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .unwrap();
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .unwrap();
    register_all(&mut tb);
    tb
}

/// The experiment is *identical* for both platforms — that is the point.
fn experiment() -> ExperimentSpec {
    // 5 rates from 10k to 300k, both packet sizes, 1 s runs.
    linux_router_experiment("vriga", "vtartu", 5, 1)
}

fn run_on(virtualized: bool, name: &str) -> ResultSet {
    let mut tb = testbed(virtualized);
    let root = TempDir::new(&format!("vv-{name}"));
    let outcome = Controller::new(&mut tb)
        .run_experiment(&experiment(), &RunOptions::new(&root))
        .expect("experiment runs");
    assert_eq!(outcome.successes(), 10);
    ResultSet::load(&outcome.result_dir).expect("loadable")
}

fn peak_rx_mpps(set: &ResultSet, pkt_sz: &str) -> f64 {
    set.where_eq("pkt_sz", pkt_sz)
        .series("pkt_rate", |r| Some(r.report()?.rx_mpps()))
        .iter()
        .map(|p| p.1)
        .fold(0.0, f64::max)
}

#[test]
fn same_scripts_different_platforms_same_tendencies() {
    let pos_set = run_on(false, "pos");
    let vpos_set = run_on(true, "vpos");

    // Identical experiment inputs (reproducibility by design): the
    // published script artifacts of both runs are byte-identical.
    let spec = experiment();
    for role in &spec.roles {
        assert_eq!(
            role.measurement.source,
            experiment().role(&role.role).unwrap().measurement.source
        );
    }

    // Tendency 1 (both platforms): at the low end, forwarding is
    // loss-free — forwarded equals offered for every size.
    for set in [&pos_set, &vpos_set] {
        for size in ["64", "1500"] {
            let series = set
                .where_eq("pkt_sz", size)
                .series("pkt_rate", |r| Some(r.report()?.rx_mpps()));
            let (rate, rx) = series[0]; // 10 kpps
            assert!(
                (rx * 1e6 - rate).abs() / rate < 0.02,
                "size {size}: offered {rate}, forwarded {rx} Mpps"
            );
        }
    }

    // Tendency 2: within the 10-300 kpps window, pos forwards everything
    // (far below its 1.75 Mpps limit) while vpos saturates near 40 kpps.
    let pos_peak = peak_rx_mpps(&pos_set, "64");
    let vpos_peak = peak_rx_mpps(&vpos_set, "64");
    assert!((0.29..0.31).contains(&pos_peak), "pos peak {pos_peak}");
    assert!((0.03..0.055).contains(&vpos_peak), "vpos peak {vpos_peak}");

    // Tendency 3: packet size does not change the drop-free rate (as long
    // as no bandwidth limit is hit) — on either platform.
    for set in [&pos_set, &vpos_set] {
        let p64 = peak_rx_mpps(set, "64");
        let p1500 = peak_rx_mpps(set, "1500");
        let ratio = p64 / p1500;
        assert!(
            (0.8..1.35).contains(&ratio),
            "packet size must not matter much here, ratio {ratio}"
        );
    }

    // The headline factor: vpos peak is dozens of times below what pos
    // could do (1.75 Mpps vs 0.04 Mpps ≈ 44).
    let factor = 1.75 / vpos_peak;
    assert!(
        (30.0..60.0).contains(&factor),
        "paper: 'a factor of up to 44', got {factor:.1}"
    );
}

#[test]
fn vpos_boots_much_faster_than_pos() {
    // The virtual testbed as a development environment: the same workflow
    // completes in far less virtual time because VM boots are cheap.
    let mut tb_pos = testbed(false);
    let mut tb_vpos = testbed(true);
    let spec = linux_router_experiment("vriga", "vtartu", 1, 1);
    let (root_pos, root_vpos) = (
        TempDir::new("vv-bootcmp-pos"),
        TempDir::new("vv-bootcmp-vpos"),
    );
    let o1 = Controller::new(&mut tb_pos)
        .run_experiment(&spec, &RunOptions::new(&root_pos))
        .unwrap();
    let o2 = Controller::new(&mut tb_vpos)
        .run_experiment(&spec, &RunOptions::new(&root_vpos))
        .unwrap();
    let pos_total = (o1.finished - o1.started).as_secs_f64();
    let vpos_total = (o2.finished - o2.started).as_secs_f64();
    assert!(
        pos_total > vpos_total + 30.0,
        "bare-metal boots dominate: pos {pos_total:.0}s vs vpos {vpos_total:.0}s"
    );
}
