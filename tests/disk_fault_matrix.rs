//! Disk-fault matrix: inject a storage fault at EVERY journal record
//! boundary — ENOSPC at the exact frame boundary and mid-frame, a torn
//! `write(2)`, a failing fsync — plus post-hoc bit rot, then recover
//! (resume for interrupted campaigns, scrub for rotted trees) and assert
//! the result tree always converges to the uninterrupted campaign's
//! tree, byte for byte.
//!
//! This is the storage sibling of `crash_matrix.rs` (which kills the
//! *process* at every boundary): here the process survives but the disk
//! misbehaves, through the `Vfs` fault-injection layer. Journal files are
//! excluded from the byte comparison as usual — they record the
//! interruption itself.
//!
//! The input-fault cases fill the disk on each file of a tree's stored
//! experiment instead: a tree is born whole, so such a fault leaves no
//! journal at all, and a clean rerun is the whole recovery.

use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::fsck::fsck;
use pos::core::journal::CampaignDiskState;
use pos::core::journal::{decode_frame, FrameStep, Journal, JournalRecord, JOURNAL_FILE};
use pos::core::scrub::scrub;
use pos::core::vfs::{is_storage_full, DiskFault, FaultPlan, Vfs};
use pos::dag::{linux_router_dag, run_dag, tree_disk_state, DagError, DagOptions, InProcessTarget};
use pos::sched::{resume_parallel, run_parallel, ParallelOptions};
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::tree::{self, find_result_dir};
use pos_testutil::TempDir;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;

const SEED: u64 = 0xD15C;

fn testbed() -> Testbed {
    let mut tb = Testbed::new(SEED);
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

/// Two runs, one virtual second each — the same footprint as the crash
/// matrix, small enough that the full fault sweep stays fast.
fn spec() -> ExperimentSpec {
    linux_router_experiment("vriga", "vtartu", 1, 1)
}

/// Byte offsets at which the journal image is a clean prefix: 0 and the
/// end of every complete frame. The journal is deterministic for a given
/// seed, so boundaries measured on the reference run are exact for every
/// faulted run.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![0usize];
    let mut offset = 0;
    while offset < bytes.len() {
        match decode_frame::<JournalRecord>(bytes, offset).expect("reference journal decodes") {
            FrameStep::Record { frame_len, .. } => {
                offset += frame_len;
                boundaries.push(offset);
            }
            FrameStep::Torn { .. } => panic!("reference journal has no torn tail"),
        }
    }
    boundaries
}

/// The uninterrupted reference: tree snapshot plus journal facts.
type Reference = (BTreeMap<String, Vec<u8>>, Vec<u8>);

/// Reference tree of the uninterrupted campaign plus its journal image,
/// computed once per test binary.
fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(reference_tree)
}

fn reference_tree() -> Reference {
    let root = TempDir::new("diskfault-reference");
    let mut tb = testbed();
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec(), &RunOptions::new(&root))
        .expect("uninterrupted campaign succeeds");
    let report = fsck(&outcome.result_dir).unwrap();
    assert!(
        report.is_clean(),
        "reference not clean:\n{}",
        report.render()
    );
    let journal = std::fs::read(outcome.result_dir.join(JOURNAL_FILE)).unwrap();
    (tree::snapshot(&outcome.result_dir), journal)
}

fn fault_opts(root: &Path, fault: DiskFault) -> RunOptions {
    let mut opts = RunOptions::new(root);
    opts.vfs = Vfs::faulty(FaultPlan {
        seed: SEED,
        faults: vec![fault],
    })
    .unwrap();
    opts
}

/// Runs the faulted campaign, asserts it aborts, then resumes on a
/// healthy disk and asserts byte-identical convergence. `k == 0` means
/// nothing durable at all, where resume has no identity to pick up.
fn crash_then_resume_converges(
    want: &BTreeMap<String, Vec<u8>>,
    root: &Path,
    opts: &RunOptions,
    k: usize,
    label: &str,
) {
    let mut tb = testbed();
    Controller::new(&mut tb)
        .run_experiment(&spec(), opts)
        .expect_err(&format!("{label}: campaign must abort"));
    let result_dir = find_result_dir(root);

    let mut tb = testbed();
    let resumed =
        Controller::new(&mut tb).resume_experiment(&result_dir, &spec(), &RunOptions::new(root));
    if k == 0 {
        resumed.expect_err(&format!("{label}: no CampaignStarted to resume from"));
        return;
    }
    let outcome = resumed.unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
    assert_eq!(outcome.successes(), 2, "{label}");
    tree::assert_tree_matches(want, &result_dir, label);
    let report = fsck(&result_dir).unwrap();
    assert!(
        report.is_clean(),
        "{label}: fsck not clean:\n{}",
        report.render()
    );
}

#[test]
fn enospc_at_every_journal_boundary_then_resume_converges() {
    let (want, journal) = reference();
    let boundaries = frame_boundaries(journal);
    let total_records = boundaries.len() - 1;
    assert!(total_records >= 6);

    // `mid == 0` fills the disk exactly at the frame boundary (append k
    // lands nothing); `mid == 7` fills it mid-frame, leaving a torn tail
    // the resume must shed first.
    for mid in [0usize, 7] {
        for (k, &boundary) in boundaries.iter().enumerate().take(total_records) {
            let label = format!("ENOSPC after record {k} + {mid} bytes");
            let root = TempDir::new(&format!("diskfault-enospc-{k}-{mid}"));
            let opts = fault_opts(
                &root,
                DiskFault::Enospc {
                    after_bytes: (boundary + mid) as u64,
                    file: Some(JOURNAL_FILE.into()),
                },
            );
            let mut tb = testbed();
            let err = Controller::new(&mut tb)
                .run_experiment(&spec(), &opts)
                .expect_err(&format!("{label}: campaign must abort"));
            assert!(
                err.is_storage_full(),
                "{label}: expected a storage-full error, got {err}"
            );
            let result_dir = find_result_dir(&root);
            let replay = Journal::replay(&result_dir.join(JOURNAL_FILE)).unwrap();
            assert_eq!(replay.records.len(), k, "{label}: durable prefix");
            assert_eq!(replay.torn_tail, mid > 0, "{label}: tail classification");

            let mut tb = testbed();
            let resumed = Controller::new(&mut tb).resume_experiment(
                &result_dir,
                &spec(),
                &RunOptions::new(&root),
            );
            if k == 0 {
                resumed.expect_err(&format!("{label}: no CampaignStarted to resume from"));
                continue;
            }
            let outcome = resumed.unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            assert_eq!(outcome.successes(), 2, "{label}");
            tree::assert_tree_matches(want, &result_dir, &label);
            assert!(fsck(&result_dir).unwrap().is_clean(), "{label}");
        }
    }
}

#[test]
fn torn_write_at_every_journal_boundary_then_resume_converges() {
    let (want, journal) = reference();
    let total_records = frame_boundaries(journal).len() - 1;

    for k in 0..total_records {
        let label = format!("torn write at record {k}");
        let root = TempDir::new(&format!("diskfault-tornwrite-{k}"));
        // 40 bytes is less than a frame header: replay must classify the
        // remnant as a torn tail, and resume must truncate it away.
        let opts = fault_opts(
            &root,
            DiskFault::TornWrite {
                at_write: k as u64,
                keep_bytes: 40,
                file: Some(JOURNAL_FILE.into()),
            },
        );
        crash_then_resume_converges(want, &root, &opts, k, &label);
    }
}

#[test]
fn fsync_failure_at_every_journal_boundary_then_resume_converges() {
    let (want, journal) = reference();
    let total_records = frame_boundaries(journal).len() - 1;

    for k in 0..total_records {
        let label = format!("fsync failure at record {k}");
        let root = TempDir::new(&format!("diskfault-fsyncfail-{k}"));
        // Fsync index k+1: the journal's create_sync burns index 0.
        let opts = fault_opts(
            &root,
            DiskFault::FsyncFail {
                at_fsync: k as u64 + 1,
                file: Some(JOURNAL_FILE.into()),
            },
        );
        let mut tb = testbed();
        Controller::new(&mut tb)
            .run_experiment(&spec(), &opts)
            .expect_err(&format!("{label}: campaign must abort"));
        let result_dir = find_result_dir(&root);

        // A failed fsync leaves the frame's bytes in the file — written
        // but never promised. Replaying such a journal is still sound:
        // every record describes a state that *was* reached before the
        // append, so resume may trust the whole prefix.
        let replay = Journal::replay(&result_dir.join(JOURNAL_FILE)).unwrap();
        assert_eq!(replay.records.len(), k + 1, "{label}: frame reached cache");
        if replay.finished() {
            // The unpromised record was CampaignFinished itself: the
            // tree is already complete and verifiable as-is.
            tree::assert_tree_matches(want, &result_dir, &label);
            assert!(fsck(&result_dir).unwrap().is_clean(), "{label}");
            continue;
        }

        let mut tb = testbed();
        let outcome = Controller::new(&mut tb)
            .resume_experiment(&result_dir, &spec(), &RunOptions::new(&root))
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_eq!(outcome.successes(), 2, "{label}");
        tree::assert_tree_matches(want, &result_dir, &label);
        assert!(fsck(&result_dir).unwrap().is_clean(), "{label}");
    }
}

#[test]
fn scrub_reports_zero_findings_on_undamaged_tree() {
    let root = TempDir::new("diskfault-scrub-clean");
    let mut tb = testbed();
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec(), &RunOptions::new(&root))
        .unwrap();
    let report = scrub(&outcome.result_dir, false).unwrap();
    assert!(report.clean, "undamaged tree must scrub clean");
    assert_eq!(report.findings.len(), 0);
    assert_eq!(report.runs_scanned, 2);
    assert!(report.files_scanned > 0);
}

#[test]
fn bit_flips_detected_by_scrub_and_healed_to_byte_identity() {
    let (want, _) = reference();
    let root = TempDir::new("diskfault-bitflip");
    let mut tb = testbed();
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec(), &RunOptions::new(&root))
        .unwrap();
    let result_dir = outcome.result_dir;

    // Rot two files at rest: a measurement artifact and the other run's
    // checksum manifest — the two repair paths (restore/re-execute vs
    // deterministic manifest rebuild).
    let rot = Vfs::faulty(FaultPlan {
        seed: SEED,
        faults: vec![
            DiskFault::BitFlip {
                file: "run-0000/loadgen_measurement.log".into(),
                offset: 5,
                mask: 0x20,
            },
            DiskFault::BitFlip {
                file: "run-0001/checksums.json".into(),
                offset: 99,
                mask: 0x01,
            },
        ],
    })
    .unwrap();
    let flipped = rot.apply_bit_flips(&result_dir).unwrap();
    assert_eq!(flipped.len(), 2, "both flips must land");

    // Detection pass: both damaged runs surface, nothing is touched.
    let detect = scrub(&result_dir, false).unwrap();
    assert!(!detect.clean);
    assert!(detect.findings.len() >= 2, "{}", detect.render());
    assert!(!fsck(&result_dir).unwrap().is_clean());

    // Repair pass; whatever has no intact donor goes through resume,
    // exactly as the `pos scrub --repair` CLI drives it.
    let repair = scrub(&result_dir, true).unwrap();
    if !repair.reexecution_required.is_empty() {
        let mut tb = testbed();
        Controller::new(&mut tb)
            .resume_experiment(&result_dir, &spec(), &RunOptions::new(&root))
            .expect("resume repairs runs scrub could not");
    }
    let confirm = scrub(&result_dir, false).unwrap();
    assert!(confirm.clean, "after repair:\n{}", confirm.render());
    tree::assert_tree_matches(want, &result_dir, "bit-flip heal");
    assert!(fsck(&result_dir).unwrap().is_clean());
}

#[test]
fn parallel_enospc_checkpoints_and_resume_parallel_converges() {
    let (want, _) = reference();

    // Clean 2-lane reference run to measure the scheduler journal's
    // deterministic frame boundaries (lane journals have different
    // names and are not matched by the `journal.log` suffix filter).
    let popts = ParallelOptions::new(2);
    let clean_root = TempDir::new("diskfault-par-clean");
    let out = run_parallel(
        &spec(),
        &RunOptions::new(&clean_root),
        &popts,
        &mut |_, _| Ok(testbed()),
    )
    .expect("clean parallel campaign succeeds");
    tree::assert_tree_matches(want, &out.outcome.result_dir, "parallel clean");
    let sched_journal = std::fs::read(out.outcome.result_dir.join(JOURNAL_FILE)).unwrap();
    let boundaries = frame_boundaries(&sched_journal);
    assert!(boundaries.len() > 4, "scheduler journal too short to cut");

    // Fill the disk for the scheduler journal mid-campaign.
    let cut = boundaries[boundaries.len() / 2];
    let root = TempDir::new("diskfault-par-enospc");
    let opts = fault_opts(
        &root,
        DiskFault::Enospc {
            after_bytes: cut as u64,
            file: Some(JOURNAL_FILE.into()),
        },
    );
    let err = run_parallel(&spec(), &opts, &popts, &mut |_, _| Ok(testbed()))
        .expect_err("parallel campaign must abort on a full disk");
    assert!(err.is_storage_full(), "expected storage-full, got {err}");
    let result_dir = find_result_dir(&root);

    let out = resume_parallel(
        &result_dir,
        &spec(),
        &RunOptions::new(&root),
        &mut |_, _| Ok(testbed()),
    )
    .expect("parallel resume completes once space returns");
    assert_eq!(out.outcome.successes(), 2);
    tree::assert_tree_matches(want, &result_dir, "parallel ENOSPC resume");
    assert!(fsck(&result_dir).unwrap().is_clean());
}

/// Every file of the stored experiment layout, as the path suffix a
/// fault names: `experiment/` plus each path of the one layout
/// definition, [`ExperimentSpec::files`].
fn stored_input_files() -> Vec<String> {
    spec()
        .files()
        .into_iter()
        .map(|(rel, _)| format!("experiment/{rel}"))
        .collect()
}

/// ENOSPC on the first write of the stored input `file`.
fn input_fault_opts(root: &Path, file: &str) -> RunOptions {
    fault_opts(
        root,
        DiskFault::Enospc {
            after_bytes: 0,
            file: Some(file.into()),
        },
    )
}

/// A tree whose stored input could not be written is a husk: no journal,
/// so nothing a resume could pick up, and `tree_disk_state` says so.
fn assert_husk_without_journal(root: &Path, label: &str) {
    let husk = find_result_dir(root);
    assert!(
        !husk.join(JOURNAL_FILE).exists(),
        "{label}: a journal exists before the stored inputs are whole"
    );
    assert!(
        matches!(tree_disk_state(&husk), CampaignDiskState::NoJournal),
        "{label}: tree_disk_state must report NoJournal"
    );
}

/// The 3-stage DAG over the matrix's 2-run experiment: its reference
/// tree, computed once per test binary.
fn dag_reference() -> &'static BTreeMap<String, Vec<u8>> {
    static REFERENCE: OnceLock<BTreeMap<String, Vec<u8>>> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let root = TempDir::new("diskfault-dag-reference");
        let out = run_dag_on(&RunOptions::new(&root)).expect("uninterrupted DAG succeeds");
        tree::snapshot(&out.dag_dir)
    })
}

fn run_dag_on(opts: &RunOptions) -> Result<pos::dag::DagOutcome, DagError> {
    let mut target = InProcessTarget::new(SEED, false, 1);
    run_dag(
        &linux_router_dag(),
        &spec(),
        opts,
        &DagOptions::new(1, SEED),
        &mut target,
    )
}

#[test]
fn enospc_on_each_stored_input_leaves_no_journal_and_a_rerun_converges() {
    let (want, _) = reference();
    let files = stored_input_files();
    assert!(files.len() >= 9, "layout lists every input: {files:?}");
    for file in &files {
        let label = format!("sequential, ENOSPC on {file}");
        let root = TempDir::new("diskfault-input-seq");
        let err = Controller::new(&mut testbed())
            .run_experiment(&spec(), &input_fault_opts(&root, file))
            .expect_err(&format!("{label}: campaign must abort"));
        assert!(err.is_storage_full(), "{label}: got {err}");
        assert_husk_without_journal(&root, &label);
        let outcome = Controller::new(&mut testbed())
            .run_experiment(&spec(), &RunOptions::new(&root))
            .unwrap_or_else(|e| panic!("{label}: clean rerun failed: {e}"));
        tree::assert_tree_matches(want, &outcome.result_dir, &label);
    }
}

#[test]
fn parallel_enospc_on_each_stored_input_leaves_no_journal_and_a_rerun_converges() {
    let (want, _) = reference();
    let popts = ParallelOptions::new(2);
    for file in &stored_input_files() {
        let label = format!("2 lanes, ENOSPC on {file}");
        let root = TempDir::new("diskfault-input-par");
        let err = run_parallel(
            &spec(),
            &input_fault_opts(&root, file),
            &popts,
            &mut |_, _| Ok(testbed()),
        )
        .expect_err(&format!("{label}: campaign must abort"));
        assert!(err.is_storage_full(), "{label}: got {err}");
        assert_husk_without_journal(&root, &label);
        let out = run_parallel(&spec(), &RunOptions::new(&root), &popts, &mut |_, _| {
            Ok(testbed())
        })
        .unwrap_or_else(|e| panic!("{label}: clean rerun failed: {e}"));
        tree::assert_tree_matches(want, &out.outcome.result_dir, &label);
    }
}

#[test]
fn dag_enospc_on_each_stored_input_leaves_no_journal_and_a_rerun_converges() {
    let want = dag_reference();
    for file in &stored_input_files() {
        let label = format!("DAG, ENOSPC on {file}");
        let root = TempDir::new("diskfault-input-dag");
        let err = run_dag_on(&input_fault_opts(&root, file))
            .expect_err(&format!("{label}: DAG must abort"));
        assert!(
            matches!(&err, DagError::Io(e) if is_storage_full(e)),
            "{label}: the DAG's own input write must fail, got {err}"
        );
        assert_husk_without_journal(&root, &label);
        let out = run_dag_on(&RunOptions::new(&root))
            .unwrap_or_else(|e| panic!("{label}: clean rerun failed: {e}"));
        tree::assert_tree_matches(want, &out.dag_dir, &label);
    }
}

/// A storage fault before a tree's journal exists is no checkpoint:
/// `pos run` (sequential and `--lanes 2`) and `pos dag run` exit 1 with
/// the storage error and print no `pos resume` hint.
#[test]
fn cli_enospc_before_the_journal_exits_1_without_a_resume_hint() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_pos");
    let base = TempDir::new("diskfault-cli-input");
    let exp = base.join("exp");
    spec().to_dir(&exp).unwrap();
    let plan = base.join("disk-faults.json");
    std::fs::write(
        &plan,
        serde_json::to_string(&FaultPlan {
            seed: SEED,
            faults: vec![DiskFault::Enospc {
                after_bytes: 0,
                file: Some("experiment/experiment.yml".into()),
            }],
        })
        .unwrap(),
    )
    .unwrap();

    let cases: [&[&str]; 3] = [&["run"], &["run", "--lanes", "2"], &["dag", "run"]];
    for (i, args) in cases.into_iter().enumerate() {
        let label = args.join(" ");
        let results = base.join(format!("results-{i}"));
        let (cmd, rest) = args.split_at(if args[0] == "dag" { 2 } else { 1 });
        let run = Command::new(bin)
            .args(cmd)
            .arg(&exp)
            .args(rest)
            .arg("--results")
            .arg(&results)
            .arg("--disk-faults")
            .arg(&plan)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{label}: {run:?}");
        assert!(
            stderr.contains("No space left on device"),
            "{label}: the storage error must be named:\n{stderr}"
        );
        assert!(
            !stderr.contains("pos resume"),
            "{label}: no resume hint without a journal:\n{stderr}"
        );
        assert!(
            !find_result_dir(&results).join(JOURNAL_FILE).exists(),
            "{label}: no journal may exist"
        );
    }
}

/// End-to-end CLI contract: ENOSPC exits with the degraded code (3) and
/// a checkpoint message, `pos resume` completes on a healthy disk with
/// exit 0, and `pos scrub` then reports a clean tree.
#[test]
fn cli_enospc_exits_degraded_then_resume_and_scrub_succeed() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_pos");
    let base = TempDir::new("diskfault-cli");
    let exp = base.join("exp");
    spec().to_dir(&exp).unwrap();
    let results = base.join("results");

    // Measure the journal of a clean CLI run, then cut mid-journal.
    let clean = Command::new(bin)
        .args(["run", exp.to_str().unwrap(), "--results"])
        .arg(base.join("clean-results"))
        .output()
        .unwrap();
    assert!(clean.status.success(), "clean run failed: {clean:?}");
    let clean_dir = find_result_dir(&base.join("clean-results"));
    let journal = std::fs::read(clean_dir.join(JOURNAL_FILE)).unwrap();
    let boundaries = frame_boundaries(&journal);
    let cut = boundaries[boundaries.len() / 2];

    let plan = base.join("disk-faults.json");
    std::fs::write(
        &plan,
        serde_json::to_string(&FaultPlan {
            seed: SEED,
            faults: vec![DiskFault::Enospc {
                after_bytes: cut as u64,
                file: Some(JOURNAL_FILE.into()),
            }],
        })
        .unwrap(),
    )
    .unwrap();

    let run = Command::new(bin)
        .args(["run", exp.to_str().unwrap(), "--results"])
        .arg(&results)
        .args(["--disk-faults", plan.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        run.status.code(),
        Some(3),
        "ENOSPC must exit degraded, not error: {run:?}"
    );
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("checkpointed at the last consistent journal boundary"),
        "missing checkpoint message:\n{stderr}"
    );

    let result_dir = find_result_dir(&results);
    let resume = Command::new(bin)
        .arg("resume")
        .arg(&result_dir)
        .output()
        .unwrap();
    assert!(
        resume.status.success(),
        "resume after freeing space must exit 0: {resume:?}"
    );

    let scrub_out = Command::new(bin)
        .arg("scrub")
        .arg(&result_dir)
        .output()
        .unwrap();
    assert!(
        scrub_out.status.success(),
        "scrub on the completed tree must exit 0: {scrub_out:?}"
    );
    let stdout = String::from_utf8_lossy(&scrub_out.stdout);
    assert!(stdout.contains("zero findings"), "scrub output:\n{stdout}");
}
