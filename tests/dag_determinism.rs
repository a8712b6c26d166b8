//! The DAG executor's determinism contract, end to end:
//!
//! * the linux-router DAG executed with `--lanes 4` on the in-process
//!   target, with `--lanes 2`, and on the simulated batch target all
//!   leave a result tree **byte-identical** (journals excepted) to the
//!   sequential `--lanes 1` execution;
//! * a DAG killed at *every* DAG-journal record boundary — cleanly and
//!   with a torn final frame — and then resumed converges to that same
//!   tree, with `pos fsck` calling the resumed DAG clean;
//! * a crash *inside* a sweep stage's own campaign journal is a
//!   checkpoint too: `resume_dag` routes it through the parallel
//!   scheduler's resume and still converges;
//! * resume refuses identity drift (wrong seed, wrong target).

use pos::core::controller::RunOptions;
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::journal::{Journal, JOURNAL_FILE};
use pos::dag::{fsck_dag, linux_router_dag, InProcessTarget, SimBatchTarget};
use pos::dag::{resume_dag, run_dag, DagError, DagOptions, DagSpec, ExecutionTarget};
use pos_testutil::{tree, TempDir};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

const SEED: u64 = 0x5EED;

/// 3 rate steps × 2 packet sizes × 1 virtual second: 6 runs per sweep,
/// small enough for the full kill matrix.
fn small_spec() -> ExperimentSpec {
    linux_router_experiment("vriga", "vtartu", 3, 1)
}

fn dag() -> DagSpec {
    linux_router_dag()
}

fn in_process() -> InProcessTarget {
    InProcessTarget::new(SEED, true, 2)
}

/// The uninterrupted reference: tree snapshot plus journal facts.
type Reference = (BTreeMap<String, Vec<u8>>, u64);

/// The sequential (1-lane, in-process) reference tree and the number of
/// records its DAG journal holds, computed once per test binary.
fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(reference_tree)
}

fn reference_tree() -> Reference {
    let root = TempDir::new("dag-reference");
    let out = run_dag(
        &dag(),
        &small_spec(),
        &RunOptions::new(&root),
        &DagOptions::new(1, SEED),
        &mut in_process(),
    )
    .expect("sequential DAG succeeds");
    assert_eq!(out.nodes.len(), 3);
    assert_eq!(out.failed_runs, 0);
    let report = fsck_dag(&out.dag_dir).unwrap();
    assert!(
        report.is_clean(),
        "reference not clean:\n{}",
        report.render()
    );
    let records = Journal::replay(&out.dag_dir.join(JOURNAL_FILE))
        .unwrap()
        .records
        .len() as u64;
    (tree::snapshot(&out.dag_dir), records)
}

#[test]
fn lane_counts_and_targets_are_artifact_interchangeable() {
    let (want, _) = reference();

    for lanes in [2usize, 4] {
        let root = TempDir::new(&format!("dag-lanes{lanes}"));
        let out = run_dag(
            &dag(),
            &small_spec(),
            &RunOptions::new(&root),
            &DagOptions::new(lanes, SEED),
            &mut in_process(),
        )
        .unwrap_or_else(|e| panic!("--lanes {lanes} failed: {e}"));
        tree::assert_tree_matches(want, &out.dag_dir, &format!("--lanes {lanes}"));
    }

    // The simulated batch target queues jobs and clamps lanes to its
    // partition width, but the merged artifacts must not know that.
    let root = TempDir::new("dag-batch");
    let mut batch = SimBatchTarget::new(SEED, true, 2);
    let out = run_dag(
        &dag(),
        &small_spec(),
        &RunOptions::new(&root),
        &DagOptions::new(4, SEED),
        &mut batch,
    )
    .expect("batch target DAG succeeds");
    tree::assert_tree_matches(want, &out.dag_dir, "sim-batch target");
    let report = batch.report();
    assert_eq!(report.target, "sim-batch");
    assert!(
        report.jobs.iter().any(|j| j.lanes_granted == 2),
        "partition width clamps the grant: {}",
        report.render()
    );
}

/// The single `vt-*` DAG dir created under a fresh root.
fn find_dag_dir(root: &Path) -> PathBuf {
    let mut dir = root.to_path_buf();
    for _ in 0..3 {
        let mut subdirs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        dir = subdirs.into_iter().next().expect("result tree level");
    }
    dir
}

#[test]
fn kill_at_every_dag_journal_boundary_then_resume_converges() {
    let &(ref want, total_records) = reference();
    assert!(
        total_records >= 8,
        "3-stage DAG journals at least start + 3x(started,finished) + finish, got {total_records}"
    );

    for torn in [false, true] {
        for k in 0..total_records {
            let label = format!("crash at DAG record {k} (torn={torn})");
            let root = TempDir::new(&format!("dag-kill-{k}-{torn}"));
            let mut dopts = DagOptions::new(2, SEED);
            dopts.dag_crash_after = Some(k);
            dopts.dag_torn_write = torn;
            let err = run_dag(
                &dag(),
                &small_spec(),
                &RunOptions::new(&root),
                &dopts,
                &mut in_process(),
            )
            .expect_err(&format!("{label}: DAG must abort"));
            assert!(
                err.to_string().contains("injected journal crash"),
                "{label}: unexpected error {err}"
            );

            let dag_dir = find_dag_dir(&root);
            let out = resume_dag(
                &dag_dir,
                &RunOptions::new(&root),
                &DagOptions::new(2, SEED),
                &mut in_process(),
            )
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            assert_eq!(out.nodes.len(), 3, "{label}");
            tree::assert_tree_matches(want, &out.dag_dir, &label);
            let report = fsck_dag(&out.dag_dir).unwrap();
            assert!(
                report.is_clean(),
                "{label}: fsck not clean:\n{}",
                report.render()
            );
        }
    }
}

#[test]
fn resume_fast_forwards_digest_verified_nodes() {
    let &(ref want, total_records) = reference();
    // Crash on the final DagFinished append: every node is durable and
    // digest-verified, resume re-executes nothing.
    let root = TempDir::new("dag-ff");
    let mut dopts = DagOptions::new(1, SEED);
    dopts.dag_crash_after = Some(total_records - 1);
    run_dag(
        &dag(),
        &small_spec(),
        &RunOptions::new(&root),
        &dopts,
        &mut in_process(),
    )
    .expect_err("DAG must abort on the final record");
    let dag_dir = find_dag_dir(&root);
    let out = resume_dag(
        &dag_dir,
        &RunOptions::new(&root),
        &DagOptions::new(1, SEED),
        &mut in_process(),
    )
    .expect("resume completes");
    assert_eq!(out.verified_nodes, 3, "all nodes fast-forwarded");
    assert!(out.nodes.iter().all(|n| n.verified));
    tree::assert_tree_matches(want, &out.dag_dir, "fast-forward resume");
}

#[test]
fn inner_sweep_crash_is_a_checkpoint_and_dag_resume_converges() {
    let (want, _) = reference();
    let root = TempDir::new("dag-inner");
    let mut opts = RunOptions::new(&root);
    // Crash the *sweep stage's own* campaign journal mid-flight; the
    // DAG journal stays healthy at the NodeStarted(rate-sweep) record.
    opts.journal_crash_after = Some(6);
    let err = run_dag(
        &dag(),
        &small_spec(),
        &opts,
        &DagOptions::new(2, SEED),
        &mut in_process(),
    )
    .expect_err("inner crash aborts the DAG");
    assert!(
        err.to_string().contains("injected journal crash"),
        "inner journal crash surfaces through the DAG error: {err}"
    );

    let dag_dir = find_dag_dir(&root);
    let out = resume_dag(
        &dag_dir,
        &RunOptions::new(&root),
        &DagOptions::new(2, SEED),
        &mut in_process(),
    )
    .expect("DAG resume routes through the scheduler's resume");
    tree::assert_tree_matches(want, &out.dag_dir, "inner-crash resume");
    let report = fsck_dag(&out.dag_dir).unwrap();
    assert!(report.is_clean(), "fsck not clean:\n{}", report.render());
}

#[test]
fn resume_refuses_identity_drift() {
    let root = TempDir::new("dag-drift");
    let mut dopts = DagOptions::new(1, SEED);
    dopts.dag_crash_after = Some(3);
    run_dag(
        &dag(),
        &small_spec(),
        &RunOptions::new(&root),
        &dopts,
        &mut in_process(),
    )
    .expect_err("DAG must abort");
    let dag_dir = find_dag_dir(&root);

    let wrong_seed = resume_dag(
        &dag_dir,
        &RunOptions::new(&root),
        &DagOptions::new(1, SEED + 1),
        &mut in_process(),
    );
    assert!(
        matches!(wrong_seed, Err(DagError::Resume { .. })),
        "wrong seed must be refused: {wrong_seed:?}"
    );

    let mut batch = SimBatchTarget::new(SEED, true, 2);
    let wrong_target = resume_dag(
        &dag_dir,
        &RunOptions::new(&root),
        &DagOptions::new(1, SEED),
        &mut batch,
    );
    assert!(
        matches!(wrong_target, Err(DagError::Resume { .. })),
        "target swap mid-campaign must be refused: {wrong_target:?}"
    );

    // The original identity still resumes fine.
    resume_dag(
        &dag_dir,
        &RunOptions::new(&root),
        &DagOptions::new(1, SEED),
        &mut in_process(),
    )
    .expect("original identity resumes");
}
