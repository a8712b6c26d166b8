//! Repetitions: re-running the whole cross product several times and
//! aggregating across runs — the statistical-confidence workflow that the
//! robustness discussion (§2, Zilberman's NDP evaluation) calls for.

use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::linux_router_experiment;
use pos::eval::loader::ResultSet;
use pos::eval::plot::PlotSpec;
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::TempDir;

fn vpos_testbed() -> Testbed {
    let mut tb = Testbed::new(0xEE);
    tb.add_host("vriga", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
    tb.add_host("vtartu", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
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
fn repetitions_multiply_runs_and_aggregate() {
    let mut tb = vpos_testbed();
    // 2 rates × 1 size, 4 repetitions = 8 runs. The 100 kpps point is far
    // above the VM's saturation, so repetitions scatter — which is exactly
    // what the error bars should show.
    let mut spec = linux_router_experiment("vriga", "vtartu", 2, 1);
    spec.loop_vars = pos::core::vars::Variables::new().with("pkt_rate", vec![20_000i64, 100_000]);
    spec.global_vars.set("pkt_sz", 64i64);
    let root = TempDir::new("rep-agg");
    let mut opts = RunOptions::new(&root);
    opts.repetitions = 4;
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &opts)
        .unwrap();
    assert_eq!(outcome.runs.len(), 8);
    assert_eq!(outcome.successes(), 8);

    let set = ResultSet::load(&outcome.result_dir).unwrap();
    // Every run's metadata records its repetition index.
    let mut reps: Vec<String> = set
        .runs
        .iter()
        .filter_map(|r| r.param("repetition").map(str::to_owned))
        .collect();
    reps.sort();
    reps.dedup();
    assert_eq!(reps, vec!["0", "1", "2", "3"]);

    // Aggregation: one summary per rate, four samples each.
    let agg = set.series_aggregated("pkt_rate", |r| Some(r.report()?.rx_mpps()));
    assert_eq!(agg.len(), 2);
    for (x, summary) in &agg {
        assert_eq!(summary.count, 4, "4 repetitions at rate {x}");
    }
    // Below saturation the repetitions agree tightly; in overload they
    // scatter more.
    let cv_low = agg[0].1.cv().unwrap_or(0.0);
    let cv_high = agg[1].1.cv().unwrap_or(0.0);
    assert!(cv_low < 0.01, "below saturation: cv {cv_low}");
    assert!(
        cv_high > cv_low,
        "overload must scatter more: {cv_high} vs {cv_low}"
    );

    // And the error-bar figure falls out of the aggregation.
    let points: Vec<(f64, f64)> = agg.iter().map(|(x, s)| (*x, s.mean)).collect();
    let errs: Vec<f64> = agg
        .iter()
        .map(|(_, s)| {
            let (lo, hi) = s.ci95();
            (hi - lo) / 2.0
        })
        .collect();
    let plot = PlotSpec::line("vpos forwarding", "offered [pps]", "forwarded [Mpps]")
        .with_series_err("64 B (mean ± 95% CI)", points, errs);
    let svg = plot.render_svg();
    assert!(svg.contains("mean ± 95% CI"));
    let csv = plot.render_csv();
    assert!(csv.starts_with("series,x,y,y_err"));
}

#[test]
fn single_repetition_adds_no_synthetic_variable() {
    let mut tb = vpos_testbed();
    let mut spec = linux_router_experiment("vriga", "vtartu", 1, 1);
    spec.loop_vars = pos::core::vars::Variables::new().with("pkt_rate", vec![10_000i64]);
    spec.global_vars.set("pkt_sz", 64i64);
    let root = TempDir::new("rep-single");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root))
        .unwrap();
    let set = ResultSet::load(&outcome.result_dir).unwrap();
    assert_eq!(set.len(), 1);
    assert!(set.runs[0].param("repetition").is_none());
}
