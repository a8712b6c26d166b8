//! Repeatability made literal: the same experiment on the same (seeded)
//! testbed produces byte-identical published artifacts.

mod common;

use common::TempDir;
use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::linux_router_experiment;
use pos::publish::bundle::Bundle;
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};

fn full_pipeline(seed: u64, root: &str) -> Vec<u8> {
    let mut tb = Testbed::new(seed);
    tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .unwrap();
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .unwrap();
    register_all(&mut tb);
    let spec = linux_router_experiment("vriga", "vtartu", 3, 1);
    let root = TempDir::new(&format!("det-{root}"));
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root))
        .expect("experiment runs");

    let mut bundle = Bundle::new(&spec.name);
    bundle.add_tree(&outcome.result_dir, "").unwrap();
    let mut tar = Vec::new();
    bundle.write_tar(&mut tar).expect("archive");
    tar
}

#[test]
fn same_seed_byte_identical_archive() {
    let a = full_pipeline(0xC0FFEE, "a");
    let b = full_pipeline(0xC0FFEE, "b");
    assert_eq!(
        pos::publish::sha256_hex(&a),
        pos::publish::sha256_hex(&b),
        "two runs of the same experiment must publish identical bytes"
    );
}

#[test]
fn different_seed_differs_in_detail_not_in_shape() {
    let a = full_pipeline(1, "s1");
    let b = full_pipeline(2, "s2");
    // Different seeds differ somewhere (boot jitter, latency samples)...
    assert_ne!(pos::publish::sha256_hex(&a), pos::publish::sha256_hex(&b));
    // ...but both archives contain the same artifact structure.
    let ea = pos::publish::archive::read_tar(&a).unwrap();
    let eb = pos::publish::archive::read_tar(&b).unwrap();
    let paths = |es: &[pos::publish::TarEntry]| -> Vec<String> {
        es.iter().map(|e| e.path.clone()).collect()
    };
    assert_eq!(paths(&ea), paths(&eb));
}
