//! Crash-consistency matrix: kill the controller at EVERY journal record
//! boundary — cleanly and with a torn (half-written) final frame — then
//! resume, and assert the result tree always converges to the tree an
//! uninterrupted campaign produces, byte for byte.
//!
//! `journal.log` itself is excluded from the comparison: the journal is
//! the record *of* the interruption (a resumed campaign carries extra
//! `CampaignResumed` records by design). Everything else — run artifacts,
//! metadata, checksum manifests, inputs, `controller.log` — must be
//! identical, and `pos fsck` must call the resumed tree clean.

use pos::core::commands::register_all;
use pos::core::controller::{Controller, ControllerError, Progress, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::fsck::{fsck, RunStatus};
use pos::core::journal::{Journal, JOURNAL_FILE};
use pos::sched::{resume_parallel, run_parallel, ParallelOptions};
use pos::testbed::{HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::TempDir;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::OnceLock;

const SEED: u64 = 0xC0DE;

fn testbed() -> Testbed {
    testbed_seeded(SEED)
}

fn testbed_seeded(seed: u64) -> Testbed {
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

/// Two runs (1 rate step × 2 packet sizes), one virtual second each —
/// small enough that the full kill matrix stays fast.
fn spec() -> ExperimentSpec {
    linux_router_experiment("vriga", "vtartu", 1, 1)
}

/// Every file under `dir` (relative path → contents), minus the journal.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in std::fs::read_dir(&current).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                if rel != JOURNAL_FILE {
                    files.insert(rel, std::fs::read(&path).unwrap());
                }
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

/// The uninterrupted reference: tree snapshot plus journal facts.
type Reference = (BTreeMap<String, Vec<u8>>, u64);

/// Reference tree of the uninterrupted campaign plus its journal length,
/// computed once per test binary.
fn reference() -> &'static Reference {
    static REFERENCE: OnceLock<Reference> = OnceLock::new();
    REFERENCE.get_or_init(reference_tree)
}

fn reference_tree() -> Reference {
    let root = TempDir::new("crash-reference");
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
    let appended = Journal::replay(&outcome.result_dir.join(JOURNAL_FILE))
        .unwrap()
        .records
        .len() as u64;
    (snapshot(&outcome.result_dir), appended)
}

#[test]
fn kill_at_every_journal_boundary_then_resume_converges() {
    let &(ref want, total_records) = reference();
    assert!(
        total_records >= 6,
        "2-run campaign journals at least start + 2×(started,completed) + finish"
    );

    for torn in [false, true] {
        for k in 0..total_records {
            let label = format!("crash at record {k} (torn={torn})");
            let root = TempDir::new(&format!("crash-kill-{k}-{torn}"));
            let mut opts = RunOptions::new(&root);
            opts.journal_crash_after = Some(k);
            opts.journal_torn_write = torn;
            let mut tb = testbed();
            Controller::new(&mut tb)
                .run_experiment(&spec(), &opts)
                .expect_err(&format!("{label}: campaign must abort"));
            let result_dir = find_result_dir(&root);

            let mut tb = testbed();
            let resumed = Controller::new(&mut tb).resume_experiment(
                &result_dir,
                &spec(),
                &RunOptions::new(&root),
            );
            if k == 0 {
                // Nothing durable — not even the campaign's identity.
                resumed.expect_err(&format!("{label}: no CampaignStarted to resume from"));
                continue;
            }
            let outcome = resumed.unwrap_or_else(|e| panic!("{label}: resume failed: {e}"));
            assert_eq!(outcome.successes(), 2, "{label}");
            assert_trees_equal(want, &result_dir, &label);
            let report = fsck(&result_dir).unwrap();
            assert!(
                report.is_clean(),
                "{label}: fsck not clean:\n{}",
                report.render()
            );
        }
    }
}

#[test]
fn resume_skips_verified_runs_and_reexecutes_the_rest() {
    let (want, _) = reference();
    // Crash right before the final run's RunCompleted record: run 0 is
    // durable, run 1 has artifacts on disk but no completion record.
    let root = TempDir::new("crash-skipmatrix");
    let mut opts = RunOptions::new(&root);
    opts.journal_crash_after = Some(4);
    let mut tb = testbed();
    Controller::new(&mut tb)
        .run_experiment(&spec(), &opts)
        .expect_err("campaign must abort");
    let result_dir = find_result_dir(&root);

    let events: Rc<RefCell<Vec<(bool, usize)>>> = Rc::default();
    let sink = events.clone();
    let mut tb = testbed();
    Controller::new(&mut tb)
        .with_progress(move |p| match p {
            Progress::RunSkipped { index, .. } => sink.borrow_mut().push((true, *index)),
            Progress::RunDone { index, .. } => sink.borrow_mut().push((false, *index)),
            _ => {}
        })
        .resume_experiment(&result_dir, &spec(), &RunOptions::new(&root))
        .unwrap();
    assert_eq!(
        events.borrow().as_slice(),
        &[(true, 0), (false, 1)],
        "run 0 skipped as verified, run 1 re-executed"
    );
    assert_trees_equal(want, &result_dir, "skip/re-execute split");
}

#[test]
fn fsck_detects_flipped_byte_and_resume_repairs_exactly_that_run() {
    let (want, _) = reference();
    let root = TempDir::new("crash-bitrot");
    let mut tb = testbed();
    let outcome = Controller::new(&mut tb)
        .run_experiment(&spec(), &RunOptions::new(&root))
        .unwrap();
    let result_dir = outcome.result_dir;

    // Flip one byte in a finished run's artifact.
    let victim = result_dir.join("run-0001/loadgen_measurement.log");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    let report = fsck(&result_dir).unwrap();
    assert!(!report.is_clean());
    assert_eq!(report.broken_runs(), vec![1]);
    let damaged = report.runs.iter().find(|r| r.index == 1).unwrap();
    match &damaged.status {
        RunStatus::Damaged(v) => {
            assert_eq!(v.corrupt, vec!["loadgen_measurement.log".to_string()])
        }
        other => panic!("expected Damaged, got {other:?}"),
    }

    // Resume re-executes exactly the damaged run and converges.
    let events: Rc<RefCell<Vec<(bool, usize)>>> = Rc::default();
    let sink = events.clone();
    let mut tb = testbed();
    Controller::new(&mut tb)
        .with_progress(move |p| match p {
            Progress::RunSkipped { index, .. } => sink.borrow_mut().push((true, *index)),
            Progress::RunDone { index, .. } => sink.borrow_mut().push((false, *index)),
            _ => {}
        })
        .resume_experiment(&result_dir, &spec(), &RunOptions::new(&root))
        .unwrap();
    assert_eq!(events.borrow().as_slice(), &[(true, 0), (false, 1)]);
    assert_trees_equal(want, &result_dir, "bit-rot repair");
    assert!(fsck(&result_dir).unwrap().is_clean());
}

/// The sequential resume, on a fresh testbed with root seed `seed`.
fn resume_sequential(
    dir: &Path,
    seed: u64,
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<(), ControllerError> {
    Controller::owning(testbed_seeded(seed))
        .resume_experiment(dir, spec, opts)
        .map(drop)
}

/// The parallel resume, every lane a fresh testbed with root seed `seed`.
fn resume_lanes(
    dir: &Path,
    seed: u64,
    spec: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<(), ControllerError> {
    resume_parallel(dir, spec, opts, &mut |_, _| Ok(testbed_seeded(seed))).map(drop)
}

/// One identity guard for both resumes: a crashed sequential tree and a
/// crashed 2-lane tree are each refused, with the same messages, for a
/// wrong seed, a mutated spec and a wrong testbed flavor.
#[test]
fn resume_refuses_wrong_seed_and_mutated_spec() {
    let seq_root = TempDir::new("crash-refuse");
    let mut opts = RunOptions::new(&seq_root);
    opts.journal_crash_after = Some(3);
    Controller::owning(testbed())
        .run_experiment(&spec(), &opts)
        .expect_err("campaign must abort");
    let seq_dir = find_result_dir(&seq_root);

    let par_root = TempDir::new("crash-refuse-lanes");
    let mut opts = RunOptions::new(&par_root);
    opts.journal_crash_after = Some(3);
    run_parallel(&spec(), &opts, &ParallelOptions::new(2), &mut |_, _| {
        Ok(testbed())
    })
    .expect_err("2-lane campaign must abort");
    let par_dir = find_result_dir(&par_root);

    let mut mutated = spec();
    mutated.roles[0].measurement = pos::core::script::Script::parse("sleep 2\npos_sync run_done");
    type Resume = fn(&Path, u64, &ExperimentSpec, &RunOptions) -> Result<(), ControllerError>;
    let inputs: [(&str, &Path, Resume); 2] = [
        ("sequential", &seq_dir, resume_sequential),
        ("2-lane", &par_dir, resume_lanes),
    ];
    for (what, dir, resume) in inputs {
        let opts = RunOptions::new(dir);
        let err = resume(dir, SEED + 1, &spec(), &opts).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "cannot resume: campaign ran on testbed seed {SEED:#x}, this testbed uses {:#x}",
                SEED + 1
            ),
            "{what}"
        );

        let err = resume(dir, SEED, &mutated, &opts).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot resume: experiment spec changed since the campaign started (digest mismatch)",
            "{what}"
        );

        // Wrong testbed flavor: same seed, but a vpos testbed boots on a
        // different timeline than the journaled bare-metal campaign.
        let mut other_flavor = RunOptions::new(dir);
        other_flavor.testbed_flavor = "vpos".into();
        let err = resume(dir, SEED, &spec(), &other_flavor).unwrap_err();
        assert_eq!(
            err.to_string(),
            "cannot resume: campaign ran on the `pos` testbed, resume is using `vpos`",
            "{what}"
        );
    }
}
