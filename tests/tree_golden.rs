//! Cross-version golden for whole result trees.
//!
//! Every matrix compares a tree against a reference built by the same
//! build, so a change that moves every tree the same way passes them all.
//! This test pins five small trees across versions instead: the sorted
//! `(path, SHA-256)` listing of each, journals excluded (they record how
//! a tree was produced, not what it holds), against the committed
//! `tests/tree_golden.txt`. A sixth section pins what `pos eval` makes of
//! the first tree.
//!
//! * `pos run` on bare-metal pos and on vpos (4 runs);
//! * `pos run --lanes 2` (4 runs);
//! * a seeded chaos campaign with a recovered crash (so one run retries)
//!   and a crash inside a power outage that quarantines the DuT (4 runs);
//! * the 3-stage case-study DAG via `pos dag run` (4 runs per sweep);
//! * the figures `pos eval <pos run tree> --out <dir>` writes.
//!
//! All runs last one virtual second. A mismatch names the first path
//! whose digest differs (or that only one side has). Refactor and perf
//! changes must leave the golden untouched; a deliberate output change
//! re-pins it by deleting the file and running this test once, which
//! writes the new listing and fails so the change is reviewed.
//!
//! Pinned on x86_64 Linux only: `f64` formatting is portable, but the
//! `ln`/`exp` behind `SimRng`'s distributions may not be bit-identical
//! on other targets.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use pos_core::commands::case_study_testbed;
use pos_core::controller::{Controller, RunOptions};
use pos_core::experiment::linux_router_experiment;
use pos_core::hash::sha256_hex;
use pos_core::vars::Variables;
use pos_netsim::{ChaosEvent, ChaosPlan};
use pos_simkernel::SimTime;
use pos_testutil::{tree, TempDir};
use std::path::{Path, PathBuf};
use std::process::Command;

const GOLDEN: &str = "tests/tree_golden.txt";

/// 2 packet sizes × 2 rates, one virtual second per run.
const LOOP_VARS: &str = "pkt_sz:\n- 64\n- 1500\npkt_rate:\n- 10000\n- 20000\n";
const GLOBAL_VARS: &str = "dut_ip0: 10.0.0.1\ndut_ip1: 10.0.1.1\nrun_secs: 1\n";

fn pos(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_pos"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn pos binary");
    assert!(
        out.status.success(),
        "pos {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// `pos init` (or `pos dag init`) shrunk to the golden's sweep.
fn experiment(dir: &Path, init: &[&str]) {
    pos(dir, init);
    std::fs::write(dir.join("exp/loop-variables.yml"), LOOP_VARS).unwrap();
    std::fs::write(dir.join("exp/global-variables.yml"), GLOBAL_VARS).unwrap();
}

/// The one tree `pos run exp --results res <extra>` leaves.
fn cli_run(tag: &str, extra: &[&str]) -> (TempDir, PathBuf) {
    let dir = TempDir::new(tag);
    experiment(&dir, &["init", "exp"]);
    let mut args = vec!["run", "exp", "--results", "res", "--seed", "23"];
    args.extend_from_slice(extra);
    pos(&dir, &args);
    let tree = tree::find_result_dir(&dir.join("res"));
    (dir, tree)
}

/// The DAG tree `pos dag run` leaves (the directory holding `dag.yml`).
fn cli_dag() -> (TempDir, PathBuf) {
    let dir = TempDir::new("golden-dag");
    experiment(&dir, &["dag", "init", "exp"]);
    let args: Vec<&str> = "dag run exp --results res --lanes 2 --seed 9"
        .split(' ')
        .collect();
    pos(&dir, &args);
    let mut stack = vec![dir.join("res")];
    while let Some(d) = stack.pop() {
        if d.join("dag.yml").is_file() {
            return (dir, d);
        }
        for entry in std::fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            }
        }
    }
    panic!("pos dag run left no dag.yml under res/");
}

/// Virtual seconds of the chaos line's two crashes: inside run 1's
/// measurement, and inside run 2's retried measurement.
const CRASH_RETRY_AT: u64 = 88;
const CRASH_QUARANTINE_AT: u64 = 166;

/// A chaos campaign (chaos plans are a library surface, not a CLI one):
/// vtartu crashes late in run 1, run 2 finds it down, resets it and
/// retries; it crashes again at the end of run 2's retry inside a
/// management outage, so run 3's recovery fails, vtartu is quarantined
/// and run 3 fails.
fn chaos_campaign() -> (TempDir, PathBuf) {
    let root = TempDir::new("golden-chaos");
    let mut spec = linux_router_experiment("vriga", "vtartu", 2, 1);
    spec.loop_vars = Variables::new()
        .with("pkt_sz", vec![64i64, 1500])
        .with("pkt_rate", vec![10_000i64, 20_000]);
    let tb = case_study_testbed(&spec, 23, false, false).unwrap();
    let plan = ChaosPlan::new(11)
        .with_event(ChaosEvent::HostCrash {
            host: "vtartu".into(),
            at: SimTime::from_secs(CRASH_RETRY_AT),
        })
        .with_event(ChaosEvent::HostCrash {
            host: "vtartu".into(),
            at: SimTime::from_secs(CRASH_QUARANTINE_AT),
        })
        .with_event(ChaosEvent::PowerOutage {
            host: "vtartu".into(),
            from: SimTime::from_secs(CRASH_QUARANTINE_AT - 1),
            until: SimTime::from_secs(100_000),
        });
    let mut opts = RunOptions::new(&root);
    opts.continue_on_run_failure = true;
    let mut ctl = Controller::owning(tb);
    ctl.apply_chaos(&plan).unwrap();
    let outcome = ctl.run_experiment(&spec, &opts).unwrap();
    assert!(
        outcome.runs.iter().any(|r| r.attempts > 1 && r.success),
        "the chaos line must hold a retried run:\n{}",
        outcome.summary()
    );
    assert_eq!(
        outcome.quarantined_hosts,
        vec!["vtartu".to_string()],
        "the chaos line must hold a quarantine:\n{}",
        outcome.summary()
    );
    (root, outcome.result_dir)
}

/// `name`'s section of the listing: a header, then one `<sha256>  <path>`
/// line per file, sorted by path.
fn section(name: &str, dir: &Path) -> String {
    let mut out = format!("[{name}]\n");
    for (path, bytes) in tree::snapshot(dir) {
        out.push_str(&format!("{}  {path}\n", sha256_hex(&bytes)));
    }
    out
}

/// The first line where `want` and `got` part, as a readable diagnosis.
fn first_difference(want: &str, got: &str) -> String {
    let (mut section, mut w, mut g) = (String::new(), want.lines(), got.lines());
    loop {
        match (w.next(), g.next()) {
            (None, None) => return "listings equal".into(),
            (Some(a), Some(b)) if a == b => {
                if a.starts_with('[') {
                    section = a.to_string();
                }
            }
            (a, b) => {
                let path = |l: Option<&str>| {
                    l.map(|l| l.split_once("  ").map_or(l, |(_, p)| p).to_string())
                        .unwrap_or_else(|| "<end of listing>".into())
                };
                return format!(
                    "first difference in {section}: golden has `{}`, this build has `{}`",
                    path(a),
                    path(b)
                );
            }
        }
    }
}

#[test]
fn result_trees_match_the_committed_golden() {
    let (a, pos_tree) = cli_run("golden-pos", &[]);
    pos(&a, &["eval", pos_tree.to_str().unwrap(), "--out", "eval"]);
    let (_b, vpos_tree) = cli_run("golden-vpos", &["--testbed", "vpos"]);
    let (_c, lanes_tree) = cli_run("golden-lanes", &["--lanes", "2"]);
    let (_d, chaos_tree) = chaos_campaign();
    let (_e, dag_tree) = cli_dag();
    let got = [
        section("pos run", &pos_tree),
        section("pos run --testbed vpos", &vpos_tree),
        section("pos run --lanes 2", &lanes_tree),
        section("chaos campaign", &chaos_tree),
        section("pos dag run --lanes 2", &dag_tree),
        section("pos eval", &a.join("eval")),
    ]
    .concat();

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let Ok(want) = std::fs::read_to_string(&path) else {
        std::fs::write(&path, &got).unwrap();
        panic!("no golden at {GOLDEN}: wrote this build's listing; review and commit it");
    };
    assert!(
        want == got,
        "result trees moved; {}",
        first_difference(&want, &got)
    );
}
