//! Asynchronous evaluation (§4.4): *"The evaluation script processes the
//! result files either after all runs have been completed or
//! asynchronously during their runtime."* The `RunDone` progress event
//! carries the finished run's directory, so an evaluator can consume each
//! run while the next one measures.

mod common;

use common::TempDir;
use pos::core::commands::register_all;
use pos::core::controller::{Controller, Progress, RunOptions};
use pos::core::experiment::linux_router_experiment;
use pos::core::resultstore::ResultStore;
use pos::eval::moongen;
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use std::cell::RefCell;
use std::rc::Rc;

#[test]
fn runs_are_evaluatable_the_moment_they_finish() {
    let mut tb = Testbed::new(0xA5);
    tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .unwrap();
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .unwrap();
    register_all(&mut tb);

    let root = TempDir::new("async-eval");

    // The "asynchronous evaluation script": runs inside the progress
    // callback, i.e. between measurement runs, parsing each run's output
    // as soon as it lands on disk.
    let live_results: Rc<RefCell<Vec<(usize, f64)>>> = Rc::new(RefCell::new(Vec::new()));
    let sink = live_results.clone();
    let spec = linux_router_experiment("vriga", "vtartu", 2, 1);
    let outcome = Controller::new(&mut tb)
        .with_progress(move |p| {
            if let Progress::RunDone {
                index,
                dir,
                success,
                ..
            } = p
            {
                assert!(success);
                // The run directory is complete: metadata + output.
                let meta = ResultStore::read_run_metadata(dir).expect("metadata readable");
                assert_eq!(meta.index, *index);
                let log = std::fs::read_to_string(dir.join("loadgen_measurement.log"))
                    .expect("measurement output readable");
                let summary = moongen::parse(&log).expect("parseable mid-experiment");
                sink.borrow_mut().push((*index, summary.rx_mpps()));
            }
        })
        .run_experiment(&spec, &RunOptions::new(&root))
        .unwrap();

    // The incremental evaluation saw every run, in execution order, and
    // agrees with a post-hoc full evaluation.
    let live = live_results.borrow();
    assert_eq!(live.len(), 4);
    for (i, (idx, _)) in live.iter().enumerate() {
        assert_eq!(*idx, i);
    }
    let full = pos::eval::loader::ResultSet::load(&outcome.result_dir).unwrap();
    for (idx, live_rx) in live.iter() {
        let post = full.runs[*idx].report().unwrap().rx_mpps();
        assert_eq!(post, *live_rx, "incremental and post-hoc evaluation agree");
    }
}
