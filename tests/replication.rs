//! Replication: a *different researcher* takes the published artifacts,
//! reconstructs the experiment from them alone, runs it on a *different*
//! testbed instance (different seed, different host names), and obtains
//! the same scientific conclusions — the paper's replicability story.

use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::eval::loader::ResultSet;
use pos::publish::bundle::Bundle;
use pos::publish::website::{attach_site, SiteInfo};
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::TempDir;
use std::path::Path;

fn testbed(seed: u64, a: &str, b: &str) -> Testbed {
    let mut tb = Testbed::new(seed);
    tb.add_host(a, HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host(b, HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.topology
        .wire(PortId::new(a, 0), PortId::new(b, 0))
        .unwrap();
    tb.topology
        .wire(PortId::new(b, 1), PortId::new(a, 1))
        .unwrap();
    register_all(&mut tb);
    tb
}

fn peak(set: &ResultSet, pkt_sz: &str) -> f64 {
    set.where_eq("pkt_sz", pkt_sz)
        .series("pkt_rate", |r| Some(r.report()?.rx_mpps()))
        .iter()
        .map(|p| p.1)
        .fold(0.0, f64::max)
}

#[test]
fn a_stranger_can_replicate_from_the_bundle_alone() {
    // ---------------------------------------------- original researcher
    let mut tb = testbed(111, "vriga", "vtartu");
    let spec = linux_router_experiment("vriga", "vtartu", 4, 1);
    let orig = TempDir::new("rep-orig");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&orig))
        .expect("original experiment");
    let orig_set = ResultSet::load(&outcome.result_dir).unwrap();

    let mut bundle = Bundle::new(&spec.name);
    bundle.add_tree(&outcome.result_dir, "").unwrap();
    attach_site(
        &mut bundle,
        &SiteInfo {
            title: "published".into(),
            description: "artifact".into(),
            repo_url: String::new(),
        },
    );
    let release = TempDir::new("rep-release");
    bundle.write_dir(&release).expect("published");

    // ------------------------------------------------ replicating party
    // Everything below uses ONLY the files in `release`.
    let replicated_spec = reconstruct_spec(&release);
    // Different testbed: new seed, new host names; the spec's host
    // assignment is re-targeted, exactly like passing different arguments
    // to experiment.sh in Appendix A.
    let mut spec2 = replicated_spec;
    spec2.roles[0].host = "nodeA".into();
    spec2.roles[1].host = "nodeB".into();
    spec2.user = "replicator".into();
    let mut tb2 = testbed(999, "nodeA", "nodeB");
    let replica = TempDir::new("rep-replica");
    let outcome2 = Controller::new(&mut tb2)
        .run_experiment(&spec2, &RunOptions::new(&replica))
        .expect("replicated experiment");
    let replica_set = ResultSet::load(&outcome2.result_dir).unwrap();

    // ------------------------------------------------------- comparison
    assert_eq!(replica_set.len(), orig_set.len(), "same run structure");
    for size in ["64", "1500"] {
        let o = peak(&orig_set, size);
        let r = peak(&replica_set, size);
        assert!(
            (o - r).abs() / o < 0.02,
            "size {size}: original peak {o} vs replicated {r}"
        );
    }
}

/// Rebuilds the [`ExperimentSpec`] from published artifacts only.
fn reconstruct_spec(release: &Path) -> ExperimentSpec {
    let yaml = std::fs::read_to_string(release.join("experiment/experiment.yml"))
        .expect("the bundle documents the experiment");
    let spec: ExperimentSpec = serde_yaml::from_str(&yaml).expect("spec deserializes");
    // Cross-check: the individually published script files agree with the
    // embedded spec (belt and braces — both are in the bundle).
    for role in &spec.roles {
        let setup =
            std::fs::read_to_string(release.join(format!("experiment/{}/setup.sh", role.role)))
                .expect("published setup script");
        assert_eq!(setup, role.setup.source);
    }
    spec
}

#[test]
fn robustness_packet_size_variation() {
    // Zilberman's robustness point (§2): small input variations should
    // not flip conclusions. Sweep nearby packet sizes; on bare metal well
    // below saturation, the drop-free property must hold for all of them.
    use pos::loadgen::scenario::{run_forwarding_experiment, ForwardingScenario, Platform};
    use pos::simkernel::SimDuration;
    for pkt_size in [64usize, 128, 256, 512, 1024, 1280, 1500] {
        let scenario = ForwardingScenario {
            duration: SimDuration::from_millis(300),
            ..ForwardingScenario::new(Platform::Pos, pkt_size, 200_000.0)
        };
        let r = run_forwarding_experiment(&scenario);
        assert!(
            r.report.loss_fraction() < 0.001,
            "size {pkt_size}: unexpected loss {}",
            r.report.loss_fraction()
        );
    }
}
