//! Property-style invariants of the controller, checked across randomized
//! loop-variable shapes: the result tree always mirrors the cross product
//! exactly, whatever the sweep looks like.

mod common;

use common::TempDir;
use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::{ExperimentSpec, RoleSpec};
use pos::core::loopvars::expand_cross_product;
use pos::core::script::Script;
use pos::core::vars::{VarValue, Variables};
use pos::eval::loader::ResultSet;
use pos::simkernel::SimRng;
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};

/// A fast experiment: no traffic, just barrier-synchronized no-ops, so we
/// can afford many randomized shapes.
fn noop_spec(loop_vars: Variables) -> ExperimentSpec {
    let mut a = RoleSpec::new("a", "hostA");
    a.setup = Script::parse("pos_sync s\n");
    a.measurement = Script::parse("true\npos_sync m\n");
    let mut b = RoleSpec::new("b", "hostB");
    b.setup = Script::parse("pos_sync s\n");
    b.measurement = Script::parse("echo run done\npos_sync m\n");
    let mut spec = ExperimentSpec::new("prop", "prover")
        .with_role(a)
        .with_role(b);
    spec.loop_vars = loop_vars;
    spec
}

fn testbed(seed: u64) -> Testbed {
    let mut tb = Testbed::new(seed);
    tb.add_host("hostA", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host("hostB", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.topology
        .wire(PortId::new("hostA", 0), PortId::new("hostB", 0))
        .unwrap();
    register_all(&mut tb);
    tb
}

#[test]
fn result_tree_always_mirrors_the_cross_product() {
    let mut rng = SimRng::new(0x9999);
    for case in 0..12u64 {
        // Random sweep shape: 1..=3 variables, 1..=3 values each.
        let n_vars = 1 + rng.uniform_u64(3);
        let mut loop_vars = Variables::new();
        for v in 0..n_vars {
            let n_vals = 1 + rng.uniform_u64(3);
            let vals: Vec<VarValue> = (0..n_vals)
                .map(|k| VarValue::Int((rng.uniform_u64(100) * 10 + k) as i64))
                .collect();
            loop_vars.set(format!("v{v}"), VarValue::List(vals));
        }
        let expected = expand_cross_product(&loop_vars);

        let mut tb = testbed(case);
        let spec = noop_spec(loop_vars);
        let root = TempDir::new(&format!("prop-case{case}"));
        let outcome = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));

        // Invariant 1: one successful run per combination, in order.
        assert_eq!(outcome.runs.len(), expected.len(), "case {case}");
        assert_eq!(outcome.successes(), expected.len(), "case {case}");
        for (rec, exp) in outcome.runs.iter().zip(&expected) {
            assert_eq!(rec.params.label(), exp.label(), "case {case}");
        }

        // Invariant 2: the on-disk tree agrees with the in-memory outcome.
        let set = ResultSet::load(&outcome.result_dir).unwrap();
        assert_eq!(set.len(), expected.len(), "case {case}");
        for (run, exp) in set.runs.iter().zip(&expected) {
            assert_eq!(run.metadata.index, exp.index);
            assert_eq!(run.metadata.label, exp.label());
            assert!(run.metadata.success);
            // Captured stdout of role b is present for every run.
            assert!(run.raw_logs["b"].contains("run done"), "case {case}");
        }

        // Invariant 3: virtual time is monotone across runs.
        let mut last = 0u64;
        for run in &set.runs {
            assert!(run.metadata.started_ns >= last, "case {case}");
            assert!(run.metadata.finished_ns >= run.metadata.started_ns);
            last = run.metadata.finished_ns;
        }
    }
}
