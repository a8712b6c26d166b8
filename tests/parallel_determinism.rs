//! The parallel scheduler's determinism contract, end to end:
//!
//! * a chaos-free campaign executed on 4 lanes leaves a result tree
//!   **byte-identical** (journals excepted) to the same campaign on
//!   1 lane, and to the plain sequential controller;
//! * a campaign crashed mid-flight by journal fault injection and then
//!   resumed with `resume_parallel` converges to that same tree;
//! * lane failover — injected lane deaths at run boundaries, watchdog
//!   retirements, poison-run quarantine, replacement-lane replanning —
//!   never perturbs the tree: the merged result stays byte-identical to
//!   `--lanes 1` under the same fault plan, crashes mid-failover
//!   included.

use pos::core::commands::register_all;
use pos::core::controller::{Controller, ControllerError, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::journal::{
    campaign_disk_state, AnyRecord, CampaignDiskState, Journal, JournalRecord,
};
use pos::sched::{
    resume_parallel, run_parallel, LaneDeath, LaneFaultPlan, LaneFlavor, LaneRecovery,
    ParallelOptions, ParallelOutcome,
};
use pos::testbed::{clone_virtual, CloneOptions, HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::tree::{assert_trees_identical, find_result_dir};
use pos_testutil::TempDir;
use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const SEED: u64 = 0x5EED;

fn case_study_testbed() -> Testbed {
    lane_testbed(LaneFlavor::BareMetal)
}

/// A replica testbed for any lane flavor: replacement lanes beyond the
/// site's replica sets come from the clone pool (`vpos`), cloned with
/// the same root seed so artifacts stay byte-identical.
fn lane_testbed(flavor: LaneFlavor) -> Testbed {
    let mut tb = Testbed::new(SEED);
    tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .unwrap();
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .unwrap();
    let mut tb = if flavor == LaneFlavor::Virtual {
        clone_virtual(
            &tb,
            CloneOptions {
                seed: Some(SEED),
                ..CloneOptions::default()
            },
        )
    } else {
        tb
    };
    register_all(&mut tb);
    tb
}

fn small_spec() -> ExperimentSpec {
    linux_router_experiment("vriga", "vtartu", 3, 1)
}

fn make_lane(_lane: usize, flavor: LaneFlavor) -> Result<Testbed, ControllerError> {
    assert_eq!(flavor, LaneFlavor::BareMetal, "tests use bare-metal lanes");
    Ok(case_study_testbed())
}

fn run_with_lanes(root: &Path, lanes: usize) -> PathBuf {
    let spec = small_spec();
    let opts = RunOptions::new(root);
    let popts = ParallelOptions::new(lanes);
    let out = run_parallel(&spec, &opts, &popts, &mut make_lane).unwrap();
    assert_eq!(out.outcome.runs.len(), 6);
    assert_eq!(out.outcome.successes(), 6);
    out.outcome.result_dir
}

#[test]
fn four_lanes_match_one_lane_byte_for_byte() {
    let root1 = TempDir::new("par-lanes1");
    let root4 = TempDir::new("par-lanes4");
    let dir1 = run_with_lanes(&root1, 1);
    let dir4 = run_with_lanes(&root4, 4);
    assert_trees_identical(&dir1, &dir4, "lanes=4 vs lanes=1");
}

#[test]
fn parallel_tree_matches_sequential_controller() {
    let root_seq = TempDir::new("par-seq");
    let root_par = TempDir::new("par-par2");
    let spec = small_spec();

    let mut tb = case_study_testbed();
    let seq = Controller::new(&mut tb)
        .run_experiment(&spec, &RunOptions::new(&root_seq))
        .unwrap();

    let dir_par = run_with_lanes(&root_par, 2);
    assert_trees_identical(&seq.result_dir, &dir_par, "lanes=2 vs sequential");
}

#[test]
fn parallel_speedup_is_real() {
    let root = TempDir::new("par-speedup");
    let spec = small_spec();
    let opts = RunOptions::new(&root);
    let out = run_parallel(&spec, &opts, &ParallelOptions::new(4), &mut make_lane).unwrap();
    assert!(
        out.speedup() > 1.0,
        "4 lanes must beat 1 on a 6-run campaign, got {:.2}x",
        out.speedup()
    );
    assert!(
        out.lane_runs.iter().filter(|l| !l.is_empty()).count() > 1,
        "work must actually spread across lanes: {:?}",
        out.lane_runs
    );
}

#[test]
fn crashed_parallel_campaign_resumes_to_identical_tree() {
    // Reference: an uninterrupted 4-lane execution.
    let root_ok = TempDir::new("par-crash-ref");
    let dir_ok = run_with_lanes(&root_ok, 4);

    // Crash: the first lane journal to reach its third append (its first
    // run's RunCompleted record) fails mid-campaign.
    let root = TempDir::new("par-crash");
    let spec = small_spec();
    let mut opts = RunOptions::new(&root);
    opts.journal_crash_after = Some(2);
    opts.journal_torn_write = true;
    let err = run_parallel(&spec, &opts, &ParallelOptions::new(4), &mut make_lane).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("injected journal crash"),
        "unexpected error: {msg}"
    );

    // The wreckage is on disk; find the result dir under the root.
    let dir = find_result_dir(&root);

    // Resume replays all lane journals and re-executes what is missing.
    let resume_opts = RunOptions::new(&root);
    let out = resume_parallel(&dir, &spec, &resume_opts, &mut make_lane).unwrap();
    assert_eq!(out.outcome.successes(), 6);
    assert_trees_identical(&dir_ok, &dir, "resumed vs uninterrupted 4-lane tree");
}

#[test]
fn disk_state_counts_runs_completed_in_lane_journals() {
    // Interrupt a 2-lane campaign after some runs: each lane journal
    // fails its fourth append (the RunStarted of the lane's second run),
    // so the completed runs live only in the lane journals.
    let root = TempDir::new("par-disk-state");
    let mut opts = RunOptions::new(&root);
    opts.journal_crash_after = Some(3);
    run_parallel(
        &small_spec(),
        &opts,
        &ParallelOptions::new(2),
        &mut make_lane,
    )
    .expect_err("campaign must abort");
    let dir = find_result_dir(&root);

    // Distinct run indices completed across all of the tree's journals.
    let mut completed = BTreeSet::new();
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.starts_with("journal") {
            continue;
        }
        for rec in Journal::replay(&path).unwrap().records {
            if let AnyRecord::Campaign(JournalRecord::RunCompleted { index, .. }) = rec {
                completed.insert(index);
            }
        }
    }
    assert!(!completed.is_empty(), "some runs must have completed");
    assert_eq!(
        campaign_disk_state(&dir),
        CampaignDiskState::InProgress {
            runs_completed: completed.len(),
            total_runs: Some(6),
        }
    );
}

// ---------------------------------------------------------------------
// Lane failover determinism

fn faulted_popts(lanes: usize, plan: LaneFaultPlan, recovery: LaneRecovery) -> ParallelOptions {
    let mut popts = ParallelOptions::new(lanes);
    // Leave spare bare-metal replica sets on the site calendar so every
    // replacement lane is a bare-metal set: clone-pool replacements
    // carry vpos fidelity and legitimately measure differently (that is
    // the paper's Table 1 trade-off, covered by its own test below).
    popts.site_replicas = lanes + 4;
    popts.supervisor.fault_plan = plan;
    popts.supervisor.recovery = recovery;
    popts
}

fn run_faulted(popts: &ParallelOptions, opts: &RunOptions) -> ParallelOutcome {
    run_parallel(&small_spec(), opts, popts, &mut |_, flavor| {
        Ok(lane_testbed(flavor))
    })
    .unwrap()
}

#[test]
fn lane_death_at_every_boundary_matches_one_lane() {
    // Lane deaths change which replica executes later runs, never what
    // those runs write: every (boundary, recovery policy) combination
    // must reproduce the clean 1-lane tree.
    let ref_root = TempDir::new("par-death-ref");
    let ref_dir = run_with_lanes(&ref_root, 1);
    for recovery in [LaneRecovery::Redistribute, LaneRecovery::Replacement] {
        for boundary in 0..=2 {
            let root = TempDir::new(&format!("par-death-{recovery:?}-{boundary}"));
            let plan = LaneFaultPlan {
                lane_deaths: vec![LaneDeath {
                    lane: 1,
                    after_dispatches: boundary,
                }],
                poison_runs: vec![],
            };
            let popts = faulted_popts(4, plan, recovery);
            let out = run_faulted(&popts, &RunOptions::new(&root));
            assert_eq!(out.outcome.successes(), 6, "{recovery:?}/{boundary}");
            assert_trees_identical(
                &ref_dir,
                &out.outcome.result_dir,
                &format!("lane death {recovery:?} boundary {boundary} vs lanes=1"),
            );
            if boundary < 2 {
                // Boundary 2 may never come up for lane 1 on a 6-run
                // campaign; earlier boundaries must actually fire.
                assert!(
                    out.retired_lanes.iter().any(|(lane, _)| *lane == 1),
                    "{recovery:?}/{boundary}: lane 1 should have been retired: {:?}",
                    out.retired_lanes
                );
                if recovery == LaneRecovery::Replacement {
                    assert_eq!(out.replanned_lanes, 1, "{recovery:?}/{boundary}");
                }
            }
        }
    }
}

#[test]
fn poison_run_quarantine_is_identical_across_lane_counts() {
    // A poison run kills `poison_threshold` lanes and is then sealed as
    // a failed zero-width run with a forensic bundle. The sealed run
    // dir, the quarantine report, and every later run's artifacts must
    // match a 1-lane execution of the same fault plan byte for byte.
    let plan = LaneFaultPlan {
        lane_deaths: vec![],
        poison_runs: vec![2],
    };
    let ref_root = TempDir::new("par-poison-ref");
    let ref_out = run_faulted(
        &faulted_popts(1, plan.clone(), LaneRecovery::Redistribute),
        &RunOptions::new(&ref_root),
    );
    assert_eq!(ref_out.outcome.successes(), 5);
    assert_eq!(ref_out.outcome.quarantined_runs, vec![2]);
    assert_eq!(ref_out.outcome.failed_runs, vec![2]);
    let report = ref_out
        .outcome
        .result_dir
        .join("quarantine/run-0002/report.json");
    assert!(report.exists(), "missing forensic report {report:?}");

    for recovery in [LaneRecovery::Redistribute, LaneRecovery::Replacement] {
        let root = TempDir::new(&format!("par-poison-{recovery:?}"));
        let out = run_faulted(
            &faulted_popts(4, plan.clone(), recovery),
            &RunOptions::new(&root),
        );
        assert_eq!(out.outcome.successes(), 5, "{recovery:?}");
        assert_eq!(out.outcome.quarantined_runs, vec![2], "{recovery:?}");
        assert_eq!(
            out.retired_lanes.len(),
            2,
            "{recovery:?}: the poison run kills exactly poison_threshold lanes"
        );
        assert!(out.ladder_retries >= 1, "{recovery:?}: ladder must step");
        assert_trees_identical(
            &ref_out.outcome.result_dir,
            &out.outcome.result_dir,
            &format!("poison {recovery:?} lanes=4 vs lanes=1"),
        );
    }
}

#[test]
fn crash_mid_failover_resumes_to_identical_tree() {
    // Reference: the same fault plan (a lane death plus a poison run)
    // executed uninterrupted on 4 lanes.
    let plan = LaneFaultPlan {
        lane_deaths: vec![LaneDeath {
            lane: 1,
            after_dispatches: 1,
        }],
        poison_runs: vec![2],
    };
    let popts = faulted_popts(4, plan, LaneRecovery::Redistribute);
    let ref_root = TempDir::new("par-failover-crash-ref");
    let ref_out = run_faulted(&popts, &RunOptions::new(&ref_root));
    assert_eq!(ref_out.outcome.successes(), 5);

    // Crash at every scheduler-journal append across the failover record
    // window (LaneRetired / RunRetry / RunQuarantined / RunCompleted),
    // torn and clean-cut, then resume. Each resume must converge to the
    // reference tree: journaled retirements stay retired, the ladder
    // continues from its journaled attempt, unsealed quarantines re-seal.
    for crash_after in 3..=8u64 {
        for torn in [false, true] {
            let root = TempDir::new(&format!("par-failover-crash-{crash_after}-{torn}"));
            let mut opts = RunOptions::new(&root);
            opts.journal_crash_after = Some(crash_after);
            opts.journal_torn_write = torn;
            let err = run_parallel(&small_spec(), &opts, &popts, &mut |_, flavor| {
                Ok(lane_testbed(flavor))
            })
            .unwrap_err();
            assert!(
                err.to_string().contains("injected journal crash"),
                "crash_after={crash_after} torn={torn}: unexpected error: {err}"
            );

            let dir = find_result_dir(&root);
            let out = resume_parallel(
                &dir,
                &small_spec(),
                &RunOptions::new(&root),
                &mut |_, flavor| Ok(lane_testbed(flavor)),
            )
            .unwrap();
            assert_eq!(
                out.outcome.successes(),
                5,
                "crash_after={crash_after} torn={torn}"
            );
            assert_eq!(
                out.outcome.quarantined_runs,
                vec![2],
                "crash_after={crash_after} torn={torn}"
            );
            assert_trees_identical(
                &ref_out.outcome.result_dir,
                &dir,
                &format!("resume after crash_after={crash_after} torn={torn}"),
            );
        }
    }
}

#[test]
fn watchdog_retirements_preserve_identity() {
    // A pathologically tight watchdog budget retires a lane after nearly
    // every completed run; the campaign limps across replacement lanes
    // and still reproduces the clean 1-lane tree.
    let ref_root = TempDir::new("par-watchdog-ref");
    let ref_dir = run_with_lanes(&ref_root, 1);

    let root = TempDir::new("par-watchdog");
    let mut popts = ParallelOptions::new(4);
    popts.site_replicas = 8;
    popts.supervisor.grace_factor = 1e-6;
    let out = run_faulted(&popts, &RunOptions::new(&root));
    assert_eq!(out.outcome.successes(), 6);
    assert!(
        !out.retired_lanes.is_empty(),
        "the watchdog must retire at least one lane"
    );
    assert!(
        out.retired_lanes
            .iter()
            .all(|(_, reason)| reason.contains("watchdog overrun")),
        "unexpected retirement reasons: {:?}",
        out.retired_lanes
    );
    assert_trees_identical(&ref_dir, &out.outcome.result_dir, "watchdog vs lanes=1");
}

#[test]
fn replacement_exhausts_site_and_falls_back_to_clone_pool() {
    // With no spare bare-metal replica sets (site_replicas == lanes),
    // a replacement lane comes from the clone pool: the campaign still
    // completes every run, on a lane journaled as `vpos`.
    let plan = LaneFaultPlan {
        lane_deaths: vec![LaneDeath {
            lane: 1,
            after_dispatches: 0,
        }],
        poison_runs: vec![],
    };
    let mut popts = ParallelOptions::new(4);
    popts.supervisor.fault_plan = plan;
    popts.supervisor.recovery = LaneRecovery::Replacement;
    let root = TempDir::new("par-clone-fallback");
    let out = run_faulted(&popts, &RunOptions::new(&root));
    assert_eq!(out.outcome.successes(), 6);
    assert_eq!(out.replanned_lanes, 1);
    assert_eq!(
        out.flavors.last().map(String::as_str),
        Some("vpos"),
        "the replacement must come from the clone pool: {:?}",
        out.flavors
    );
}

#[test]
fn interrupted_failover_strands_run_and_fsck_flags_it() {
    // Crash exactly between the poison run's LaneRetired record and its
    // RunRetry: the journal now shows a dead lane holding a run that was
    // neither reassigned nor quarantined. `pos fsck` must call that out
    // as stranded, and a resume must repair it.
    let plan = LaneFaultPlan {
        lane_deaths: vec![],
        poison_runs: vec![2],
    };
    let popts = faulted_popts(4, plan, LaneRecovery::Redistribute);
    let root = TempDir::new("par-stranded");
    let mut opts = RunOptions::new(&root);
    opts.journal_crash_after = Some(4);
    let err = run_parallel(&small_spec(), &opts, &popts, &mut |_, flavor| {
        Ok(lane_testbed(flavor))
    })
    .unwrap_err();
    assert!(err.to_string().contains("injected journal crash"), "{err}");

    let dir = find_result_dir(&root);
    let report = pos::core::fsck::fsck(&dir).unwrap();
    assert!(!report.is_clean());
    let rendered = report.render();
    assert!(
        rendered.contains("stranded"),
        "fsck must flag the stranded run:\n{rendered}"
    );
    assert!(
        rendered.contains("retired"),
        "fsck must report the retired lane:\n{rendered}"
    );

    let out = resume_parallel(
        &dir,
        &small_spec(),
        &RunOptions::new(&root),
        &mut |_, flavor| Ok(lane_testbed(flavor)),
    )
    .unwrap();
    assert_eq!(out.outcome.quarantined_runs, vec![2]);
    let report = pos::core::fsck::fsck(&dir).unwrap();
    assert!(
        report.is_clean(),
        "resume must repair the stranded failover:\n{}",
        report.render()
    );
    assert!(report.render().contains("quarantined runs: [2]"));
}
