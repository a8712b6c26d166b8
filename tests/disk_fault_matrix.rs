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

use pos::core::commands::register_all;
use pos::core::controller::{Controller, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::fsck::fsck;
use pos::core::journal::{decode_frame, FrameStep, Journal, JournalRecord, JOURNAL_FILE};
use pos::core::scrub::scrub;
use pos::core::vfs::{DiskFault, FaultPlan, Vfs};
use pos::sched::{resume_parallel, run_parallel, ParallelOptions};
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::TempDir;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
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

/// Every file under `dir` (relative path → contents), minus journals.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if name.starts_with("journal") {
                    continue;
                }
                let rel = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

/// The single `<root>/<user>/<experiment>/vt-*` dir a campaign created.
fn find_result_dir(root: &Path) -> PathBuf {
    let mut stack = vec![root.to_path_buf()];
    while let Some(current) = stack.pop() {
        if current.join(JOURNAL_FILE).exists() {
            return current;
        }
        if current.is_dir() {
            for entry in std::fs::read_dir(&current).unwrap() {
                stack.push(entry.unwrap().path());
            }
        }
    }
    panic!("no result dir with a journal under {}", root.display());
}

fn assert_trees_equal(reference: &BTreeMap<String, Vec<u8>>, resumed: &Path, context: &str) {
    let got = snapshot(resumed);
    let want_names: Vec<&String> = reference.keys().collect();
    let got_names: Vec<&String> = got.keys().collect();
    assert_eq!(got_names, want_names, "{context}: file sets differ");
    for (name, want) in reference {
        assert_eq!(
            &got[name], want,
            "{context}: {name} diverges from the uninterrupted tree"
        );
    }
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
    (snapshot(&outcome.result_dir), journal)
}

fn journal_fault_opts(root: &Path, fault: DiskFault) -> RunOptions {
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
    assert_trees_equal(want, &result_dir, label);
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
            let opts = journal_fault_opts(
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
            assert_trees_equal(want, &result_dir, &label);
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
        let opts = journal_fault_opts(
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
        let opts = journal_fault_opts(
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
            assert_trees_equal(want, &result_dir, &label);
            assert!(fsck(&result_dir).unwrap().is_clean(), "{label}");
            continue;
        }

        let mut tb = testbed();
        let outcome = Controller::new(&mut tb)
            .resume_experiment(&result_dir, &spec(), &RunOptions::new(&root))
            .unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
        assert_eq!(outcome.successes(), 2, "{label}");
        assert_trees_equal(want, &result_dir, &label);
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
    assert_trees_equal(want, &result_dir, "bit-flip heal");
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
    assert_trees_equal(want, &out.outcome.result_dir, "parallel clean");
    let sched_journal = std::fs::read(out.outcome.result_dir.join(JOURNAL_FILE)).unwrap();
    let boundaries = frame_boundaries(&sched_journal);
    assert!(boundaries.len() > 4, "scheduler journal too short to cut");

    // Fill the disk for the scheduler journal mid-campaign.
    let cut = boundaries[boundaries.len() / 2];
    let root = TempDir::new("diskfault-par-enospc");
    let opts = journal_fault_opts(
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
    assert_trees_equal(want, &result_dir, "parallel ENOSPC resume");
    assert!(fsck(&result_dir).unwrap().is_clean());
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
