//! End-to-end integration: the complete pos pipeline from experiment
//! specification to published, integrity-verified artifact bundle.

use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::linux_router_experiment;
use pos::dag::{fsck_dag, linux_router_dag, run_dag, DagOptions, InProcessTarget};
use pos::eval::loader::ResultSet;
use pos::eval::plot::PlotSpec;
use pos::publish::bundle::{verify_dir, Bundle};
use pos::publish::website::{attach_site, SiteInfo};
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::TempDir;

fn case_study_testbed(seed: u64) -> Testbed {
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
    tb
}

#[test]
fn experiment_to_published_bundle() {
    // ----------------------------------------------------- run the study
    let mut tb = case_study_testbed(1);
    let spec = linux_router_experiment("vriga", "vtartu", 3, 1);
    let root = TempDir::new("it-e2e-results");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root))
        .expect("experiment runs");
    assert_eq!(outcome.runs.len(), 6);
    assert_eq!(outcome.successes(), 6);

    // ------------------------------------------------------- evaluate it
    let set = ResultSet::load(&outcome.result_dir).expect("loadable tree");
    assert_eq!(set.len(), 6);
    let mut plot = PlotSpec::line("throughput", "offered [pps]", "forwarded [Mpps]");
    for (size, group) in set.group_by("pkt_sz") {
        let series = group.series("pkt_rate", |r| Some(r.report()?.rx_mpps()));
        assert_eq!(series.len(), 3, "3 rates per size");
        // Below saturation on bare metal: forwarded == offered.
        for (rate, rx_mpps) in &series {
            assert!(
                (rx_mpps * 1e6 - rate).abs() / rate < 0.01,
                "size {size}: offered {rate} got {rx_mpps} Mpps"
            );
        }
        plot = plot.with_series(format!("{size}B"), series);
    }
    let figures = outcome.result_dir.join("figures");
    std::fs::create_dir_all(&figures).unwrap();
    std::fs::write(figures.join("throughput.svg"), plot.render_svg()).unwrap();
    std::fs::write(figures.join("throughput.csv"), plot.render_csv()).unwrap();

    // -------------------------------------------------------- publish it
    let mut bundle = Bundle::new(&spec.name);
    let collected = bundle.add_tree(&outcome.result_dir, "").unwrap();
    assert!(collected > 20, "a real result tree has many artifacts");
    attach_site(
        &mut bundle,
        &SiteInfo {
            title: "pos case study".into(),
            description: "integration test artifact".into(),
            repo_url: String::new(),
        },
    );
    let release = TempDir::new("it-e2e-release");
    let manifest = bundle.write_dir(&release).expect("publishable");

    // The release is self-contained and integrity-checked.
    assert!(release.join("manifest.json").exists());
    assert!(release.join("index.html").exists());
    assert!(release.join("README.md").exists());
    assert!(release.join("experiment/loop-variables.yml").exists());
    assert!(release.join("figures/throughput.svg").exists());
    assert_eq!(
        verify_dir(&release).expect("verifiable"),
        Vec::<String>::new()
    );

    // The website lists the measurement artifacts.
    let readme = std::fs::read_to_string(release.join("README.md")).unwrap();
    assert!(readme.contains("run-0000"));
    assert!(readme.contains("Generated figures"));
    assert!(manifest.entry("topology.txt").is_some());
}

/// The `examples/dag_study.rs` walk as a test: the same case study
/// restructured as the 3-stage DAG (setup --scatter--> rate-sweep
/// ==gather==> eval), executed, fsck'd, and published as a bundle.
#[test]
fn dag_study_to_published_bundle() {
    // ------------------------------------------------- execute the DAG
    let dag = linux_router_dag();
    let spec = linux_router_experiment("vriga", "vtartu", 3, 1);
    let root = TempDir::new("it-dag-e2e-results");
    let out = run_dag(
        &dag,
        &spec,
        &RunOptions::new(&root),
        &DagOptions::new(2, 0x707),
        &mut InProcessTarget::new(0x707, false, 2),
    )
    .expect("DAG executes");
    assert_eq!(out.nodes.len(), 3);
    assert_eq!(out.failed_runs, 0);
    assert_eq!(
        out.critical_path,
        vec!["setup".to_string(), "rate-sweep".into(), "eval".into()]
    );

    // Every stage left its artifacts; the audit calls the tree clean.
    assert!(out.dag_dir.join("dag.yml").exists());
    assert!(out.dag_dir.join("dag.dot").exists());
    assert!(out.dag_dir.join("stage-setup/topology.txt").exists());
    assert!(out.dag_dir.join("stage-eval/figures/eval.svg").exists());
    assert!(out.dag_dir.join("stage-eval/summary.txt").exists());
    let report = fsck_dag(&out.dag_dir).expect("auditable");
    assert!(
        report.is_clean(),
        "DAG tree not clean:\n{}",
        report.render()
    );

    // The gather stage aggregated all six scatter results.
    let inputs = std::fs::read_to_string(out.dag_dir.join("stage-eval/inputs.txt")).unwrap();
    assert!(inputs.contains("rate-sweep"));
    let set = ResultSet::load(
        &out.dag_dir
            .join("stage-rate-sweep/user/linux-router-forwarding/vt-0000000000"),
    )
    .expect("sweep tree loads");
    assert_eq!(set.len(), 6);

    // -------------------------------------------------------- publish it
    let mut bundle = Bundle::new(&dag.name);
    let collected = bundle.add_tree(&out.dag_dir, "").unwrap();
    assert!(collected > 30, "a DAG tree has many artifacts");
    attach_site(
        &mut bundle,
        &SiteInfo {
            title: "pos DAG case study".into(),
            description: "integration test artifact".into(),
            repo_url: String::new(),
        },
    );
    let release = TempDir::new("it-dag-e2e-release");
    let manifest = bundle.write_dir(&release).expect("publishable");
    assert!(release.join("manifest.json").exists());
    assert!(release.join("stage-eval/figures/eval.svg").exists());
    assert_eq!(
        verify_dir(&release).expect("verifiable"),
        Vec::<String>::new()
    );
    assert!(manifest.entry("dag.yml").is_some());
}

#[test]
fn published_scripts_match_executed_scripts() {
    // Publishability means the *actual* inputs are captured: the scripts
    // in the result tree must equal the spec's scripts byte for byte.
    let mut tb = case_study_testbed(2);
    let spec = linux_router_experiment("vriga", "vtartu", 2, 1);
    let root = TempDir::new("it-scripts-results");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root))
        .expect("experiment runs");
    for role in &spec.roles {
        let setup = std::fs::read_to_string(
            outcome
                .result_dir
                .join(format!("experiment/{}/setup.sh", role.role)),
        )
        .unwrap();
        assert_eq!(setup, role.setup.source);
        let measurement = std::fs::read_to_string(
            outcome
                .result_dir
                .join(format!("experiment/{}/measurement.sh", role.role)),
        )
        .unwrap();
        assert_eq!(measurement, role.measurement.source);
    }
    // And the loop variables round-trip through their YAML artifact.
    let loop_yaml =
        std::fs::read_to_string(outcome.result_dir.join("experiment/loop-variables.yml")).unwrap();
    let back = pos::core::vars::Variables::from_yaml(&loop_yaml).unwrap();
    assert_eq!(back, spec.loop_vars);
}

#[test]
fn hardware_and_topology_captured() {
    let mut tb = case_study_testbed(3);
    let spec = linux_router_experiment("vriga", "vtartu", 1, 1);
    let root = TempDir::new("it-hw-results");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root))
        .expect("experiment runs");
    let hw = std::fs::read_to_string(outcome.result_dir.join("hardware/vtartu.txt")).unwrap();
    assert!(hw.contains("Xeon Silver 4214"));
    assert!(hw.contains("82599"));
    let topo = std::fs::read_to_string(outcome.result_dir.join("topology.txt")).unwrap();
    assert!(topo.contains("vriga:0 <-> vtartu:0"));
    let log = std::fs::read_to_string(outcome.result_dir.join("controller.log")).unwrap();
    assert!(log.contains("allocated"));
}
