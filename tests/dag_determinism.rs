//! The DAG executor's determinism contract, end to end:
//!
//! * the linux-router DAG executed with `--lanes 4` and with `--lanes 2`
//!   leaves a result tree **byte-identical** (journals excepted) to the
//!   sequential `--lanes 1` execution;
//! * a DAG killed at *every* DAG-journal record boundary — cleanly and
//!   with a torn final frame — and then resumed converges to that same
//!   tree, with `pos fsck` calling the resumed DAG clean;
//! * a crash *inside* a sweep stage's own campaign journal is a
//!   checkpoint too: `resume_dag` routes it through the parallel
//!   scheduler's resume and still converges;
//! * resume refuses identity drift (wrong seed), resumes a tree the
//!   retired `sim-batch` target wrote, and refuses an unknown target;
//! * a run or resume whose target boots another seed or testbed than
//!   its options journal is refused.

use pos::core::controller::RunOptions;
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::journal::{encode_frame, Journal, JOURNAL_FILE};
use pos::dag::{fsck_dag, linux_router_dag, InProcessTarget, Resumable};
use pos::dag::{resume_dag, run_dag, DagError, DagOptions, DagSpec};
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

/// Boots vpos from `SEED`, so every lane runs the same testbed however
/// many the site grants: what [`run_options`] and
/// `DagOptions::new(_, SEED)` journal.
fn in_process() -> InProcessTarget {
    InProcessTarget::new(SEED, true, 2)
}

/// Run options under `root` that journal the testbed `in_process` boots.
fn run_options(root: &TempDir) -> RunOptions {
    let mut opts = RunOptions::new(root);
    opts.testbed_flavor = "vpos".into();
    opts
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
        &run_options(&root),
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
fn lane_counts_are_artifact_interchangeable() {
    let (want, _) = reference();

    for lanes in [2usize, 4] {
        let root = TempDir::new(&format!("dag-lanes{lanes}"));
        let out = run_dag(
            &dag(),
            &small_spec(),
            &run_options(&root),
            &DagOptions::new(lanes, SEED),
            &mut in_process(),
        )
        .unwrap_or_else(|e| panic!("--lanes {lanes} failed: {e}"));
        tree::assert_tree_matches(want, &out.dag_dir, &format!("--lanes {lanes}"));
    }
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
                &run_options(&root),
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
                &run_options(&root),
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
        &run_options(&root),
        &dopts,
        &mut in_process(),
    )
    .expect_err("DAG must abort on the final record");
    let dag_dir = find_dag_dir(&root);
    let out = resume_dag(
        &dag_dir,
        &run_options(&root),
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
    // Crash the *sweep stage's own* campaign journal: at its first
    // record, which leaves a sweep tree with no durable record for the
    // DAG resume to rerun, and mid-flight. The DAG journal stays healthy
    // at the NodeStarted(rate-sweep) record.
    for crash_after in [0, 6] {
        let root = TempDir::new("dag-inner");
        let mut opts = run_options(&root);
        opts.journal_crash_after = Some(crash_after);
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
            &run_options(&root),
            &DagOptions::new(2, SEED),
            &mut in_process(),
        )
        .unwrap_or_else(|e| panic!("inner crash at record {crash_after}: DAG resume failed: {e}"));
        let label = format!("inner-crash resume at record {crash_after}");
        tree::assert_tree_matches(want, &out.dag_dir, &label);
        let report = fsck_dag(&out.dag_dir).unwrap();
        assert!(
            report.is_clean(),
            "{label}: fsck not clean:\n{}",
            report.render()
        );
    }
}

#[test]
fn resume_refuses_identity_drift() {
    let (want, _) = reference();
    let root = TempDir::new("dag-drift");
    let mut dopts = DagOptions::new(1, SEED);
    dopts.dag_crash_after = Some(3);
    run_dag(
        &dag(),
        &small_spec(),
        &run_options(&root),
        &dopts,
        &mut in_process(),
    )
    .expect_err("DAG must abort");
    let dag_dir = find_dag_dir(&root);

    let wrong_seed = resume_dag(
        &dag_dir,
        &run_options(&root),
        &DagOptions::new(1, SEED + 1),
        &mut InProcessTarget::new(SEED + 1, true, 2),
    );
    assert!(
        matches!(wrong_seed, Err(DagError::Resume { .. })),
        "wrong seed must be refused: {wrong_seed:?}"
    );

    // Trees are target-invariant: a tree the retired simulated batch
    // target started completes in-process, to the reference tree.
    let (batch_root, batch_dir) = crashed_dag_on_target("dag-legacy-batch", "sim-batch");
    let Resumable::Dag(tree) = Resumable::open(&batch_dir).expect("a sim-batch tree opens") else {
        panic!("a DAG tree opens as a DAG");
    };
    let out = tree
        .resume(&run_options(&batch_root), 2)
        .expect("a sim-batch tree resumes in-process");
    tree::assert_tree_matches(want, &out.dag_dir, "resumed sim-batch tree");
    let report = fsck_dag(&out.dag_dir).unwrap();
    assert!(report.is_clean(), "fsck not clean:\n{}", report.render());

    // A target no version of pos knew is refused, by name.
    let (_slurm_root, slurm_dir) = crashed_dag_on_target("dag-unknown-target", "slurm");
    match Resumable::open(&slurm_dir) {
        Err(DagError::Resume { reason }) => assert!(reason.contains("`slurm`"), "{reason}"),
        other => panic!("an unknown target must be refused: {other:?}"),
    }

    // The original identity still resumes fine.
    resume_dag(
        &dag_dir,
        &run_options(&root),
        &DagOptions::new(1, SEED),
        &mut in_process(),
    )
    .expect("original identity resumes");
}

#[test]
fn a_target_that_boots_other_than_the_journal_is_refused() {
    // A fresh DAG is refused before its tree exists, naming both values.
    let root = TempDir::new("dag-target-mismatch");
    let refusals = [
        (RunOptions::new(&root), SEED, "testbed pos", "testbed vpos"),
        (run_options(&root), SEED + 1, "seed 24302", "seed 24301"),
    ];
    for (opts, seed, journaled, booted) in refusals {
        let err = run_dag(
            &dag(),
            &small_spec(),
            &opts,
            &DagOptions::new(1, seed),
            &mut in_process(),
        )
        .expect_err("a disagreeing target must be refused");
        assert!(
            matches!(err, DagError::TargetMismatch { .. }),
            "unexpected error {err:?}"
        );
        let msg = err.to_string();
        assert!(
            msg.contains(journaled) && msg.contains(booted),
            "the refusal names both values: {msg}"
        );
    }
    assert_eq!(
        fs::read_dir(&root).unwrap().count(),
        0,
        "a refused DAG leaves no tree"
    );

    // A resume through a disagreeing target is refused the same way.
    let (root, dag_dir) = crashed_dag_on_target("dag-target-mismatch-resume", "in-process");
    let err = resume_dag(
        &dag_dir,
        &run_options(&root),
        &DagOptions::new(1, SEED),
        &mut InProcessTarget::new(SEED, false, 2),
    )
    .expect_err("a resume of a vpos DAG through a pos target must be refused");
    let msg = err.to_string();
    assert!(
        msg.contains("testbed vpos") && msg.contains("testbed pos"),
        "{msg}"
    );
}

/// A crashed DAG whose `DagStarted` frame is rewritten to name
/// `target`, with a valid checksum.
fn crashed_dag_on_target(tag: &str, target: &str) -> (TempDir, PathBuf) {
    let root = TempDir::new(tag);
    let opts = run_options(&root);
    let mut dopts = DagOptions::new(1, SEED);
    dopts.dag_crash_after = Some(3);
    run_dag(&dag(), &small_spec(), &opts, &dopts, &mut in_process()).expect_err("DAG must abort");
    let dag_dir = find_dag_dir(&root);
    let path = dag_dir.join(JOURNAL_FILE);
    let journal = fs::read_to_string(&path).unwrap();
    let (first, rest) = journal.split_once('\n').unwrap();
    let json = first.splitn(4, ' ').nth(3).unwrap();
    assert!(json.contains(r#""target":"in-process""#), "{json}");
    let json = json.replace(
        r#""target":"in-process""#,
        &format!(r#""target":"{target}""#),
    );
    fs::write(&path, encode_frame(&json) + rest).unwrap();
    (root, dag_dir)
}
