//! Integration test of the `pos` CLI binary: init → run → eval → publish,
//! exactly the Appendix-A command sequence.

use pos::core::journal::encode_frame;
use pos_testutil::TempDir;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn pos_bin() -> &'static str {
    env!("CARGO_BIN_EXE_pos")
}

/// A `pos` child process, killed (if still running) when dropped, so a
/// failing assertion leaves no daemon behind.
struct Spawned(Child);

impl Spawned {
    fn new(dir: &Path, args: &[&str]) -> Spawned {
        let child = Command::new(pos_bin())
            .args(args)
            .current_dir(dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn pos binary");
        Spawned(child)
    }

    fn running(&mut self) -> bool {
        self.0.try_wait().unwrap().is_none()
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn run(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(pos_bin())
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn pos binary");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn full_cli_workflow() {
    let dir = TempDir::new("cli-flow");

    // init
    let (ok, stdout, stderr) = run(&dir, &["init", "exp"]);
    assert!(ok, "init failed: {stderr}");
    assert!(stdout.contains("60 loop-variable combinations"));
    assert!(dir.join("exp/experiment.yml").exists());
    assert!(dir.join("exp/dut/setup.sh").exists());

    // Edit the sweep down (the researcher's prerogative) so the test is
    // quick: one size, two rates, 1 s runs.
    std::fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [20000, 40000]\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("exp/global-variables.yml"),
        "dut_ip0: 10.0.0.1\ndut_ip1: 10.0.1.1\nrun_secs: 1\n",
    )
    .unwrap();

    // run
    let (ok, stdout, stderr) = run(&dir, &["run", "exp", "--results", "res", "--seed", "7"]);
    assert!(ok, "run failed: {stderr}");
    assert!(stdout.contains("run 2/2 ok"), "{stdout}");
    assert!(stdout.contains("done: 2/2 runs"));
    let result_dir = stdout
        .lines()
        .find_map(|l| l.strip_prefix("result tree: "))
        .expect("result dir printed")
        .trim()
        .to_owned();

    // eval
    let (ok, stdout, stderr) = run(&dir, &["eval", &result_dir]);
    assert!(ok, "eval failed: {stderr}");
    assert!(stdout.contains("2 runs loaded (2 successful)"));
    assert!(stdout.contains("pkt_sz=64"));
    assert!(dir
        .join(&result_dir)
        .join("figures/throughput.svg")
        .exists());

    // publish
    let (ok, stdout, stderr) = run(
        &dir,
        &[
            "publish",
            &result_dir,
            "--out",
            "rel",
            "--tar",
            "rel.tar",
            "--title",
            "CLI test",
        ],
    );
    assert!(ok, "publish failed: {stderr}");
    assert!(stdout.contains("published"));
    assert!(dir.join("rel/manifest.json").exists());
    assert!(dir.join("rel/index.html").exists());
    assert!(dir.join("rel.tar").exists());
    // The published figures include the eval output.
    assert!(dir.join("rel/figures/throughput.svg").exists());
}

#[test]
fn cli_vpos_flag_switches_testbed() {
    let dir = TempDir::new("cli-vpos");
    run(&dir, &["init", "exp"]);
    std::fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [100000]\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("exp/global-variables.yml"),
        "dut_ip0: 10.0.0.1\ndut_ip1: 10.0.1.1\nrun_secs: 1\n",
    )
    .unwrap();
    let (ok, stdout, _) = run(&dir, &["run", "exp", "--results", "r", "--testbed", "vpos"]);
    assert!(ok);
    assert!(stdout.contains("vpos testbed"));
    // At 100 kpps a VM DuT drops heavily; the measurement shows it.
    let result_dir = stdout
        .lines()
        .find_map(|l| l.strip_prefix("result tree: "))
        .unwrap()
        .trim()
        .to_owned();
    let (ok, stdout, _) = run(&dir, &["eval", &result_dir]);
    assert!(ok);
    let fwd_line = stdout
        .lines()
        .find(|l| l.contains("-> forwarded"))
        .expect("series printed");
    let fwd: f64 = fwd_line
        .split("forwarded ")
        .nth(1)
        .unwrap()
        .split(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (0.02..0.06).contains(&fwd),
        "vpos saturates near 0.04 Mpps, got {fwd}: {fwd_line}"
    );
}

#[test]
fn cli_errors_are_clean() {
    let dir = TempDir::new("cli-errors");
    let (ok, _, stderr) = run(&dir, &["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));

    let (ok, _, stderr) = run(&dir, &["run", "missing-dir"]);
    assert!(!ok);
    assert!(stderr.contains("cannot load experiment"));

    let (ok, _, stderr) = run(&dir, &["run"]);
    assert!(!ok);
    assert!(stderr.contains("usage"));

    // init refuses to clobber an existing experiment.
    run(&dir, &["init", "exp"]);
    let (ok, _, stderr) = run(&dir, &["init", "exp"]);
    assert!(!ok);
    assert!(stderr.contains("already holds"));
}

#[test]
fn cli_table1_prints_matrix() {
    let dir = TempDir::new("cli-t1");
    let (ok, stdout, _) = run(&dir, &["table1"]);
    assert!(ok);
    assert!(stdout.contains("pos"));
    assert!(stdout.contains("Chameleon"));
    assert!(stdout.contains("✓"));
}

#[test]
fn cli_help_shown_without_args() {
    let dir = TempDir::new("cli-help");
    let (ok, stdout, _) = run(&dir, &[]);
    assert!(ok);
    assert!(stdout.contains("usage:"));
}

#[test]
fn cli_fsck_and_resume_repair_a_damaged_tree() {
    let dir = TempDir::new("cli-fsck");
    run(&dir, &["init", "exp"]);
    std::fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [20000]\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("exp/global-variables.yml"),
        "dut_ip0: 10.0.0.1\ndut_ip1: 10.0.1.1\nrun_secs: 1\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = run(&dir, &["run", "exp", "--results", "res"]);
    assert!(ok, "run failed: {stderr}");
    let result_dir = stdout
        .lines()
        .find_map(|l| l.strip_prefix("result tree: "))
        .expect("result dir printed")
        .trim()
        .to_owned();

    // An intact tree is clean and an intact finished campaign refuses to
    // resume.
    let (ok, stdout, _) = run(&dir, &["fsck", &result_dir]);
    assert!(ok, "fsck of a pristine tree must succeed");
    assert!(stdout.contains("status: clean"), "{stdout}");
    assert!(stdout.contains("campaign finished"), "{stdout}");
    let (ok, _, stderr) = run(&dir, &["resume", &result_dir]);
    assert!(!ok);
    assert!(stderr.contains("nothing to resume"), "{stderr}");

    // Flip one byte in a run artifact: fsck flags it, publish refuses it.
    let victim = dir
        .join(&result_dir)
        .join("run-0000/loadgen_measurement.log");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    let (ok, stdout, stderr) = run(&dir, &["fsck", &result_dir]);
    assert!(!ok, "fsck must fail on bit rot");
    assert!(stdout.contains("damaged"), "{stdout}");
    assert!(stdout.contains("corrupt"), "{stdout}");
    assert!(stdout.contains("status: NOT clean"), "{stdout}");
    assert!(stderr.contains("not clean"), "{stderr}");
    let (ok, _, stderr) = run(&dir, &["publish", &result_dir, "--out", "rel"]);
    assert!(!ok, "publish must refuse a damaged tree");
    assert!(stderr.contains("corrupt"), "{stderr}");

    // Resume repairs exactly the damaged run; afterwards the tree is
    // clean and publishable again.
    let (ok, stdout, stderr) = run(&dir, &["resume", &result_dir]);
    assert!(ok, "resume failed: {stderr}");
    assert!(stdout.contains("repairing"), "{stdout}");
    assert!(stdout.contains("run 1/1 ok"), "{stdout}");
    let (ok, stdout, _) = run(&dir, &["fsck", &result_dir]);
    assert!(ok, "repaired tree must be clean:\n{stdout}");
    let (ok, _, stderr) = run(&dir, &["publish", &result_dir, "--out", "rel"]);
    assert!(ok, "publish after repair failed: {stderr}");
}

/// Scaffolds the case-study experiment shrunk to a quick sweep.
fn init_small_exp(dir: &Path) {
    run(dir, &["init", "exp"]);
    std::fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [20000, 40000]\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("exp/global-variables.yml"),
        "dut_ip0: 10.0.0.1\ndut_ip1: 10.0.1.1\nrun_secs: 1\n",
    )
    .unwrap();
}

fn result_dir_of(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("result tree: "))
        .expect("result dir printed")
        .trim()
        .to_owned()
}

#[test]
fn cli_parallel_lanes_match_sequential_and_fsck_audits_lane_journals() {
    let dir = TempDir::new("cli-lanes");
    init_small_exp(&dir);

    let (ok, stdout, stderr) = run(&dir, &["run", "exp", "--results", "seq", "--seed", "9"]);
    assert!(ok, "sequential run failed: {stderr}");
    let seq_dir = result_dir_of(&stdout);

    let (ok, stdout, stderr) = run(
        &dir,
        &[
            "run",
            "exp",
            "--results",
            "par",
            "--seed",
            "9",
            "--lanes",
            "2",
        ],
    );
    assert!(ok, "parallel run failed: {stderr}");
    assert!(stdout.contains("lanes: 2 [pos,pos]"), "{stdout}");
    assert!(stdout.contains("speedup"), "{stdout}");
    let par_dir = result_dir_of(&stdout);

    // The parallel tree is byte-identical to the sequential one, journals
    // excepted.
    let diff = |rel: &str| {
        let a = std::fs::read(dir.join(&seq_dir).join(rel)).unwrap();
        let b = std::fs::read(dir.join(&par_dir).join(rel)).unwrap();
        assert_eq!(a, b, "`{rel}` differs between sequential and parallel");
    };
    diff("controller.log");
    diff("run-0000/loadgen_measurement.log");
    diff("run-0001/loadgen_measurement.log");
    diff("run-0001/checksums.json");
    assert!(dir.join(&par_dir).join("journal-lane0.log").exists());
    assert!(dir.join(&par_dir).join("journal-lane1.log").exists());

    // fsck recognizes the lane journals and audits through them.
    let (ok, stdout, stderr) = run(&dir, &["fsck", &par_dir]);
    assert!(ok, "fsck of a parallel tree failed: {stdout}{stderr}");
    assert!(stdout.contains("lanes: 2 lane journals"), "{stdout}");
    assert!(stdout.contains("status: clean"), "{stdout}");

    // Damage a run: fsck attributes it, resume routes to the parallel
    // scheduler and repairs it.
    let victim = dir.join(&par_dir).join("run-0000/loadgen_measurement.log");
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    let (ok, stdout, _) = run(&dir, &["fsck", &par_dir]);
    assert!(!ok);
    assert!(stdout.contains("status: NOT clean"), "{stdout}");

    let (ok, stdout, stderr) = run(&dir, &["resume", &par_dir]);
    assert!(ok, "parallel resume failed: {stderr}");
    assert!(stdout.contains("resuming"), "{stdout}");
    assert!(stdout.contains("lanes"), "{stdout}");
    let (ok, stdout, _) = run(&dir, &["fsck", &par_dir]);
    assert!(ok, "repaired parallel tree must be clean:\n{stdout}");
    diff("run-0000/loadgen_measurement.log");
}

#[test]
fn cli_queue_submit_status_drain() {
    let dir = TempDir::new("cli-queue");
    init_small_exp(&dir);

    // Two users share the queue.
    let (ok, stdout, stderr) = run(
        &dir,
        &["queue", "submit", "exp", "--user", "alice", "--queue", "q"],
    );
    assert!(ok, "submit failed: {stderr}");
    assert!(stdout.contains("submission 0 queued for alice"), "{stdout}");
    let (ok, _, stderr) = run(
        &dir,
        &["queue", "submit", "exp", "--user", "bob", "--queue", "q"],
    );
    assert!(ok, "submit failed: {stderr}");

    let (ok, stdout, _) = run(&dir, &["queue", "status", "--queue", "q"]);
    assert!(ok);
    assert!(stdout.contains("queue: 2/8 queued"), "{stdout}");
    assert!(stdout.contains("#0 alice exp"), "{stdout}");
    assert!(stdout.contains("#1 bob exp"), "{stdout}");

    // Drain runs both campaigns to completion, fair-share ordered.
    let (ok, stdout, stderr) = run(
        &dir,
        &[
            "queue",
            "drain",
            "--queue",
            "q",
            "--results",
            "res",
            "--seed",
            "5",
        ],
    );
    assert!(ok, "drain failed: {stderr}");
    assert!(stdout.contains("draining 2 campaign(s)"), "{stdout}");
    // Fair-share order, and every run of both campaigns completed.
    let alice = completed_tree(&stdout, "#0 alice exp");
    let bob = completed_tree(&stdout, "#1 bob exp");
    assert!(
        stdout.find("#0 alice exp") < stdout.find("#1 bob exp"),
        "{stdout}"
    );
    for tree in [&alice, &bob] {
        let (ok, fsck, _) = run(&dir, &["fsck", tree]);
        assert!(ok && fsck.contains("runs: 2/2 verified"), "{fsck}");
    }

    // The queue is drained: empty status, a clean ledger.
    let (ok, stdout, _) = run(&dir, &["queue", "status", "--queue", "q"]);
    assert!(ok);
    assert!(stdout.contains("queue: 0/8 queued"), "{stdout}");
    let (ok, stdout, _) = run(&dir, &["fsck", "q"]);
    assert!(ok, "drained queue ledger must be clean:\n{stdout}");

    // A drain closes only its own session: a later submit is accepted,
    // and a second drain runs it.
    let (ok, stdout, stderr) = run(
        &dir,
        &["queue", "submit", "exp", "--user", "carol", "--queue", "q"],
    );
    assert!(ok, "submit after a drain failed: {stderr}");
    assert!(stdout.contains("submission 2 queued for carol"), "{stdout}");
    let (ok, stdout, stderr) = run(&dir, &["queue", "drain", "--queue", "q"]);
    assert!(ok, "second drain failed: {stderr}");
    completed_tree(&stdout, "#2 carol exp");
}

/// The result tree a `pos queue drain` line reports for a completed
/// submission (`<#id user experiment> -> completed <tree>`).
fn completed_tree(stdout: &str, submission: &str) -> String {
    let prefix = format!("{submission} -> completed ");
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
        .trim()
        .to_owned()
}

/// True once a campaign journal exists anywhere under `root`.
fn journal_under(root: &Path) -> bool {
    std::fs::read_dir(root)
        .into_iter()
        .flatten()
        .flatten()
        .any(|e| {
            let path = e.path();
            path.ends_with("journal.log") || (path.is_dir() && journal_under(&path))
        })
}

/// `kill -9` in the middle of `pos queue drain` loses nothing: the
/// submissions are journaled in the queue's ledger, so a second drain
/// resumes the interrupted campaign, runs the rest, and leaves a clean
/// ledger.
#[test]
fn cli_queue_drain_survives_kill() {
    let dir = TempDir::new("cli-queue-kill");
    init_small_exp(&dir);
    // A longer sweep than the other queue tests, so the drain is still
    // running when the first campaign's journal appears.
    std::fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [10000, 20000, 30000, 40000, 50000, 60000, 70000, 80000]\n",
    )
    .unwrap();
    for user in ["alice", "bob"] {
        let (ok, _, stderr) = run(
            &dir,
            &["queue", "submit", "exp", "--user", user, "--queue", "q"],
        );
        assert!(ok, "submit failed: {stderr}");
    }
    let drain = [
        "queue",
        "drain",
        "--queue",
        "q",
        "--results",
        "res",
        "--seed",
        "5",
    ];
    let mut child = Spawned::new(&dir, &drain);
    let res = dir.join("res");
    while !journal_under(&res) {
        assert!(
            child.running(),
            "drain exited before the first campaign's journal appeared"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        child.running(),
        "drain finished before the kill; enlarge the sweep"
    );
    drop(child);
    let (ok, stdout, _) = run(&dir, &["queue", "status", "--queue", "q"]);
    assert!(ok);
    assert!(
        stdout.contains("1 admitted so far, 1 in flight")
            && stdout.contains("#0 alice exp (in flight"),
        "the kill lands in the first campaign:\n{stdout}"
    );

    let (ok, stdout, stderr) = run(&dir, &drain);
    assert!(ok, "drain after the kill failed: {stderr}\n{stdout}");
    let (ok, stdout, _) = run(&dir, &["queue", "status", "--queue", "q"]);
    assert!(ok);
    assert!(
        stdout.contains("queue: 0/8 queued, 2 admitted so far, 0 in flight"),
        "{stdout}"
    );
    assert!(stdout.contains("#0 alice exp -> completed"), "{stdout}");
    assert!(stdout.contains("#1 bob exp -> completed"), "{stdout}");
    let (ok, stdout, _) = run(&dir, &["fsck", "q"]);
    assert!(
        ok,
        "queue ledger must be clean after the second drain:\n{stdout}"
    );
}

#[test]
fn cli_queue_bounded_with_diagnostic() {
    let dir = TempDir::new("cli-queue-full");
    init_small_exp(&dir);
    for user in ["alice", "alice", "bob"] {
        let (ok, _, stderr) = run(
            &dir,
            &[
                "queue",
                "submit",
                "exp",
                "--user",
                user,
                "--queue",
                "q",
                "--capacity",
                "3",
            ],
        );
        assert!(ok, "submit failed: {stderr}");
    }
    let (ok, _, stderr) = run(
        &dir,
        &["queue", "submit", "exp", "--user", "carol", "--queue", "q"],
    );
    assert!(!ok, "a full queue must reject, not wedge");
    assert!(stderr.contains("queue full: 3/3"), "{stderr}");
    assert!(stderr.contains("alice=2"), "{stderr}");
    assert!(stderr.contains("bob=1"), "{stderr}");
}

/// The address a `pos serve` child publishes in `<state>/addr`.
fn serve_addr(state: &Path, daemon: &mut Spawned) -> String {
    for _ in 0..1000 {
        match std::fs::read_to_string(state.join("addr")) {
            Ok(addr) if !addr.is_empty() => return addr,
            _ => assert!(daemon.running(), "pos serve exited before listening"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("pos serve never published its address");
}

/// A restarted session that omits `--capacity`, `--user-backlog` and
/// `--results` keeps the values the last session recorded in the
/// ledger, for `pos serve` and for `pos queue` on the same directory.
#[test]
fn cli_serve_restart_keeps_recorded_admission_limits() {
    let dir = TempDir::new("cli-serve-limits");
    init_small_exp(&dir);
    let state = dir.join("s");
    let mut daemon = Spawned::new(
        &dir,
        &[
            "serve",
            "--state",
            "s",
            "--results",
            "res",
            "--capacity",
            "2",
            "--user-backlog",
            "1",
        ],
    );
    serve_addr(&state, &mut daemon);
    drop(daemon);
    std::fs::remove_file(state.join("addr")).unwrap();

    let mut daemon = Spawned::new(&dir, &["serve", "--state", "s", "--results", "res"]);
    let addr = serve_addr(&state, &mut daemon);
    let (ok, stdout, stderr) = run(&dir, &["queue", "status", "--daemon", &addr]);
    drop(daemon);
    assert!(ok, "status failed: {stderr}");
    assert!(stdout.contains("queue: 0/2 queued"), "{stdout}");

    for user in ["alice", "bob"] {
        let (ok, _, stderr) = run(
            &dir,
            &["queue", "submit", "exp", "--user", user, "--queue", "s"],
        );
        assert!(ok, "submit failed: {stderr}");
    }
    let (ok, _, stderr) = run(
        &dir,
        &["queue", "submit", "exp", "--user", "alice", "--queue", "s"],
    );
    assert!(!ok && stderr.contains("over backlog cap: 1/1"), "{stderr}");
    let (ok, _, stderr) = run(
        &dir,
        &["queue", "submit", "exp", "--user", "carol", "--queue", "s"],
    );
    assert!(!ok && stderr.contains("queue full: 2/2"), "{stderr}");
    assert!(
        !dir.join("results").exists(),
        "the recorded results root holds"
    );
}

/// Writes `records` (externally tagged JSON, one per record) as the
/// journal file `path`, framed the way every pos journal is.
fn write_journal(path: &Path, records: &[&str]) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    let frames: String = records.iter().map(|json| encode_frame(json)).collect();
    std::fs::write(path, frames).unwrap();
}

const SERVE_STARTED: &str = r#"{"ServeStarted":{"results_root":"/nonexistent/results","capacity":8,"user_backlog":0,"seed":7}}"#;

fn accepted(id: u64, user: &str) -> String {
    format!(
        r#"{{"SubmissionAccepted":{{"id":{id},"user":"{user}","experiment":"exp-{id}","priority":1,"token":null}}}}"#
    )
}

/// `pos fsck` runs the same ledger replay a restarting `pos serve` runs,
/// so a ledger the daemon would refuse to restart on is not clean.
#[test]
fn cli_fsck_refuses_a_ledger_serve_cannot_replay() {
    let dir = TempDir::new("cli-fsck-ledger-replay");
    // A finished campaign tree, so the unknown outcome below is the
    // only thing wrong with its ledger.
    let tree = dir.join("res/alice/exp-0/vt-0000000000");
    write_journal(
        &tree.join("journal.log"),
        &[
            r#"{"CampaignStarted":{"seed":7,"spec_digest":"5bec","total_runs":1,"testbed":"pos","started_ns":0}}"#,
            r#"{"CampaignFinished":{"finished_ns":1,"succeeded":1,"failed":0}}"#,
        ],
    );
    let unknown_outcome = format!(
        r#"{{"SubmissionFinished":{{"id":0,"outcome":"exploded","result_dir":"{}"}}}}"#,
        tree.display()
    );
    let cases: [(&str, Vec<String>, &str); 3] = [
        (
            "unfair-dispatch",
            vec![
                accepted(0, "alice"),
                accepted(1, "bob"),
                r#"{"CampaignDispatched":{"id":1}}"#.into(),
            ],
            "fair-share replay admits #0",
        ),
        (
            "finish-not-in-flight",
            vec![r#"{"SubmissionFinished":{"id":5,"outcome":"failed","result_dir":""}}"#.into()],
            "finish of #5, which is not in flight",
        ),
        (
            "unknown-outcome",
            vec![
                accepted(0, "alice"),
                r#"{"CampaignDispatched":{"id":0}}"#.into(),
                unknown_outcome,
            ],
            "unknown completion outcome `exploded`",
        ),
    ];
    for (name, records, why) in cases {
        let state = dir.join(name);
        let mut ledger = vec![SERVE_STARTED];
        ledger.extend(records.iter().map(String::as_str));
        write_journal(&state.join("ledger.log"), &ledger);
        let (ok, stdout, _) = run(&dir, &["fsck", state.to_str().unwrap()]);
        assert!(!ok, "{name}: fsck must refuse the ledger:\n{stdout}");
        assert!(stdout.contains("status: NOT clean"), "{name}:\n{stdout}");
        assert!(stdout.contains(why), "{name}: want `{why}` in\n{stdout}");
    }
}

const CAMPAIGN_STARTED: &str = r#"{"CampaignStarted":{"seed":7,"spec_digest":"5bec","total_runs":1,"testbed":"pos","started_ns":0}}"#;

const DAG_STARTED: &str = r#"{"DagStarted":{"name":"linux-router-dag","dag_digest":"da9","spec_digest":"5bec","seed":7,"testbed":"pos","target":"in-process","nodes":3}}"#;

/// A well-framed record of another journal kind is named, not called
/// corrupt: `pos resume` on a DAG tree.
#[test]
fn cli_resume_names_a_dag_journal() {
    let dir = TempDir::new("cli-resume-dag-tree");
    write_journal(&dir.join("tree/journal.log"), &[DAG_STARTED]);
    let (ok, _, stderr) = run(&dir, &["resume", "tree"]);
    assert!(!ok);
    assert!(
        stderr.contains("record `DagStarted` does not belong in a campaign journal"),
        "{stderr}"
    );
    assert!(!stderr.contains("corrupt"), "{stderr}");
}

/// `pos dag resume` on a campaign tree names the campaign record.
#[test]
fn cli_dag_resume_names_a_campaign_journal() {
    let dir = TempDir::new("cli-dag-resume-campaign-tree");
    write_journal(&dir.join("tree/journal.log"), &[CAMPAIGN_STARTED]);
    let (ok, _, stderr) = run(&dir, &["dag", "resume", "tree"]);
    assert!(!ok);
    assert!(
        stderr.contains("record `CampaignStarted` does not belong in a DAG journal"),
        "{stderr}"
    );
    assert!(!stderr.contains("corrupt"), "{stderr}");
}

/// A ledger holding a campaign record is refused by name.
#[test]
fn cli_fsck_names_a_campaign_record_in_a_ledger() {
    let dir = TempDir::new("cli-fsck-ledger-foreign");
    write_journal(
        &dir.join("state/ledger.log"),
        &[
            SERVE_STARTED,
            r#"{"RunStarted":{"index":0,"started_ns":0}}"#,
        ],
    );
    let (ok, stdout, _) = run(&dir, &["fsck", "state"]);
    assert!(!ok, "{stdout}");
    assert!(
        stdout.contains("record `RunStarted` does not belong in a serve ledger"),
        "{stdout}"
    );
    assert!(!stdout.contains("corrupt"), "{stdout}");
}

/// Colliding trees of one experiment are named `vt-…`, `vt-…-1`, …,
/// `vt-…-10`: the resume hint of a checkpointed run must name the tree
/// that run created (`-11`), not the lexicographically largest (`-9`).
#[test]
fn cli_resume_hint_names_the_youngest_tree() {
    let dir = TempDir::new("cli-resume-hint");
    init_small_exp(&dir);
    std::fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [20000]\n",
    )
    .unwrap();
    for n in 0..11 {
        let (ok, _, stderr) = run(&dir, &["run", "exp", "--results", "res"]);
        assert!(ok, "run {n} failed: {stderr}");
    }
    std::fs::write(
        dir.join("enospc.json"),
        r#"{"seed": 7, "faults": [{"Enospc": {"after_bytes": 200, "file": "journal.log"}}]}"#,
    )
    .unwrap();
    let (_, _, stderr) = run(
        &dir,
        &[
            "run",
            "exp",
            "--results",
            "res",
            "--disk-faults",
            "enospc.json",
        ],
    );
    assert!(
        stderr.contains("vt-0000000000-11` to complete"),
        "hint must name the checkpointed tree:\n{stderr}"
    );
}

/// A DAG tree carries its seed, testbed and target in its journal:
/// `pos dag resume` and `pos resume` both pick it up with no flags.
#[test]
fn cli_dag_resumes_from_its_journal_alone() {
    let dir = TempDir::new("cli-dag-resume-flagless");
    let (ok, _, stderr) = run(&dir, &["dag", "init", "exp"]);
    assert!(ok, "dag init failed: {stderr}");
    std::fs::write(
        dir.join("exp/loop-variables.yml"),
        "pkt_sz: [64]\npkt_rate: [20000, 40000]\n",
    )
    .unwrap();
    std::fs::write(
        dir.join("exp/global-variables.yml"),
        "dut_ip0: 10.0.0.1\ndut_ip1: 10.0.1.1\nrun_secs: 1\n",
    )
    .unwrap();
    let (ok, stdout, stderr) = run(
        &dir,
        &[
            "dag",
            "run",
            "exp",
            "--results",
            "res",
            "--seed",
            "9",
            "--testbed",
            "vpos",
            "--target",
            "sim-batch",
        ],
    );
    assert!(ok, "dag run failed: {stderr}");
    let tree = stdout
        .lines()
        .find_map(|l| l.strip_prefix("results: "))
        .expect("DAG tree printed")
        .trim()
        .to_owned();
    for args in [
        &["dag", "resume", tree.as_str()][..],
        &["resume", tree.as_str()],
    ] {
        let (ok, stdout, stderr) = run(&dir, args);
        assert!(ok, "{args:?} failed: {stderr}");
        assert!(stdout.contains("verified, skipped"), "{args:?}:\n{stdout}");
    }
}
