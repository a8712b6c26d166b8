//! `fsck_queue`, the check `pos fsck` runs on a `pos serve` state
//! directory: the queue ledger against the result trees it acknowledged.
//!
//! Each case writes a ledger and the trees under its results root the way
//! a daemon leaves them, then reads the report.

use pos_core::journal::{Journal, JournalRecord, JOURNAL_FILE};
use pos_dag::{linux_router_dag, DagIdentity, DagRecord, DagSpec, NodeFinish};
use pos_serve::{fsck_queue, LedgerRecord, QueueFsckReport, LEDGER_FILE};
use pos_testutil::TempDir;
use std::fs;
use std::path::{Path, PathBuf};

/// A daemon state directory and its results root.
struct Daemon {
    _root: TempDir,
    state: PathBuf,
    results: PathBuf,
}

impl Daemon {
    fn new(name: &str) -> Daemon {
        let root = TempDir::new(&format!("fsck-queue-{name}"));
        let state = root.join("state");
        let results = root.join("results");
        fs::create_dir_all(&state).unwrap();
        fs::create_dir_all(&results).unwrap();
        Daemon {
            _root: root,
            state,
            results,
        }
    }

    /// Writes the ledger: a session start, then `records`.
    fn ledger(&self, records: &[LedgerRecord]) {
        let mut ledger = Journal::create(self.state.join(LEDGER_FILE)).unwrap();
        ledger
            .append(&LedgerRecord::ServeStarted {
                results_root: self.results.display().to_string(),
                capacity: 8,
                user_backlog: 0,
                seed: 7,
            })
            .unwrap();
        for record in records {
            ledger.append(record).unwrap();
        }
    }

    /// The canonical path of `user`'s tree for experiment `name`.
    fn tree(&self, user: &str, name: &str) -> PathBuf {
        self.results.join(user).join(name).join("vt-0000000000")
    }

    fn fsck(&self) -> QueueFsckReport {
        fsck_queue(&self.state).unwrap()
    }
}

/// Writes a campaign journal into `tree`: started, one run completed,
/// and, when `finished`, the closing record.
fn campaign_tree(tree: &Path, finished: bool) {
    fs::create_dir_all(tree).unwrap();
    let mut journal = Journal::create(tree.join(JOURNAL_FILE)).unwrap();
    journal
        .append(&JournalRecord::CampaignStarted {
            seed: 7,
            spec_digest: "5bec".into(),
            total_runs: 2,
            testbed: "pos".into(),
            started_ns: 0,
        })
        .unwrap();
    journal
        .append(&JournalRecord::RunCompleted {
            index: 0,
            success: true,
            attempts: 1,
            recoveries: 0,
            recovery_time_ns: 0,
            started_ns: 0,
            finished_ns: 1,
            rng_cursor: 0,
            digest: "ab12".into(),
            fault_trace: vec![],
        })
        .unwrap();
    if finished {
        journal
            .append(&JournalRecord::CampaignFinished {
                finished_ns: 2,
                succeeded: 2,
                failed: 0,
            })
            .unwrap();
    }
}

/// Writes a DAG tree into `tree`: its stored `dag.yml`, then a DAG
/// journal with one finished node and, when `finished`, the closing
/// record.
fn dag_tree(tree: &Path, finished: bool) {
    let dag: DagSpec = linux_router_dag();
    fs::create_dir_all(tree).unwrap();
    fs::write(tree.join("dag.yml"), dag.to_yaml()).unwrap();
    let mut journal = Journal::create(tree.join(JOURNAL_FILE)).unwrap();
    journal
        .append(&DagRecord::DagStarted(DagIdentity {
            name: dag.name.clone(),
            dag_digest: dag.digest(),
            spec_digest: "5bec".into(),
            seed: 7,
            testbed: "pos".into(),
            target: "in-process".into(),
            nodes: dag.stages.len(),
        }))
        .unwrap();
    journal
        .append(&DagRecord::NodeFinished(NodeFinish {
            node: "setup".into(),
            digest: "f00d".into(),
            started_ns: 0,
            finished_ns: 1,
            failed_runs: 0,
        }))
        .unwrap();
    if finished {
        journal
            .append(&DagRecord::DagFinished {
                nodes: dag.stages.len(),
                failed_runs: 0,
                makespan_ns: 2,
            })
            .unwrap();
    }
}

fn accepted(id: u64, user: &str, experiment: &str) -> LedgerRecord {
    LedgerRecord::SubmissionAccepted {
        id,
        user: user.into(),
        experiment: experiment.into(),
        priority: 1,
        token: None,
    }
}

fn dispatched(id: u64) -> LedgerRecord {
    LedgerRecord::CampaignDispatched { id }
}

fn finished(id: u64, tree: &Path) -> LedgerRecord {
    LedgerRecord::SubmissionFinished {
        id,
        outcome: "completed".into(),
        result_dir: tree.display().to_string(),
    }
}

#[test]
fn drained_ledger_with_finished_trees_is_clean() {
    let d = Daemon::new("drained");
    let tree = d.tree("alice", "exp-a");
    campaign_tree(&tree, true);
    d.ledger(&[
        accepted(0, "alice", "exp-a"),
        dispatched(0),
        finished(0, &tree),
        LedgerRecord::DrainStarted { pending: 0 },
    ]);
    let report = d.fsck();
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.ledger_records, 5);
    assert_eq!(report.sessions, 1);
    assert_eq!(report.results_root.as_deref(), Some(d.results.as_path()));
    assert_eq!((report.accepted, report.finished), (1, 1));
    assert!(report.pending.is_empty() && report.in_flight.is_empty());
    assert!(report.orphaned_entries.is_empty() && report.orphan_trees.is_empty());
    assert!(report.resumable_trees.is_empty());
    assert!(report.render().ends_with("status: clean\n"));
}

#[test]
fn deleted_acknowledged_tree_is_an_orphaned_entry() {
    let d = Daemon::new("deleted");
    let tree = d.tree("alice", "exp-a");
    d.ledger(&[
        accepted(0, "alice", "exp-a"),
        dispatched(0),
        finished(0, &tree),
    ]);
    let report = d.fsck();
    assert!(!report.is_clean());
    assert_eq!(report.orphaned_entries.len(), 1, "{}", report.render());
    let (id, problem) = &report.orphaned_entries[0];
    assert_eq!(*id, 0);
    assert!(problem.contains("is missing"), "{problem}");
    assert!(report.render().ends_with("status: NOT clean\n"));
}

#[test]
fn unfinished_acknowledged_tree_is_an_orphaned_entry() {
    let d = Daemon::new("unfinished-ack");
    let tree = d.tree("alice", "exp-a");
    campaign_tree(&tree, false);
    d.ledger(&[
        accepted(0, "alice", "exp-a"),
        dispatched(0),
        finished(0, &tree),
    ]);
    let report = d.fsck();
    assert!(!report.is_clean());
    assert_eq!(report.orphaned_entries.len(), 1, "{}", report.render());
    let (_, problem) = &report.orphaned_entries[0];
    assert!(problem.contains("never finished"), "{problem}");
    assert!(problem.contains("1 runs durable"), "{problem}");
    assert!(
        report.resumable_trees.is_empty(),
        "a claimed tree is not also reported as resumable"
    );
}

#[test]
fn finished_tree_without_an_entry_is_an_orphan_tree() {
    let d = Daemon::new("orphan-tree");
    let tree = d.tree("mallory", "exp-m");
    campaign_tree(&tree, true);
    d.ledger(&[]);
    let report = d.fsck();
    assert!(!report.is_clean());
    assert_eq!(report.orphan_trees, vec![tree]);
    assert!(report.orphaned_entries.is_empty());
}

#[test]
fn unfinished_unclaimed_tree_is_resumable_and_clean() {
    let d = Daemon::new("resumable");
    let tree = d.tree("alice", "exp-a");
    campaign_tree(&tree, false);
    d.ledger(&[
        accepted(0, "alice", "exp-a"),
        accepted(1, "alice", "exp-b"),
        dispatched(0),
    ]);
    let report = d.fsck();
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.in_flight, vec![0]);
    assert_eq!(report.pending, vec![1]);
    assert_eq!(report.resumable_trees, vec![tree]);
    assert!(report.render().contains("in flight: submission 0"));
}

#[test]
fn corrupt_ledger_is_not_clean() {
    let d = Daemon::new("corrupt");
    d.ledger(&[accepted(0, "alice", "exp-a")]);
    let path = d.state.join(LEDGER_FILE);
    let mut bytes = fs::read(&path).unwrap();
    let at = bytes.len() - 10;
    bytes[at] ^= 0x01;
    fs::write(&path, bytes).unwrap();
    let report = d.fsck();
    assert!(!report.is_clean());
    assert_eq!(report.errors.len(), 1, "{}", report.render());
    assert!(report.errors[0].contains("corrupt"), "{}", report.errors[0]);
}

#[test]
fn dag_submission_trees_are_classified_like_campaign_trees() {
    let d = Daemon::new("dag");
    let done = d.tree("alice", "linux-router-dag");
    dag_tree(&done, true);
    let running = d.tree("bob", "linux-router-dag");
    dag_tree(&running, false);
    d.ledger(&[
        accepted(0, "alice", "dag-a"),
        accepted(1, "bob", "dag-b"),
        dispatched(0),
        finished(0, &done),
        dispatched(1),
    ]);
    let report = d.fsck();
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.in_flight, vec![1]);
    assert_eq!(report.resumable_trees, vec![running]);
    assert!(report.orphan_trees.is_empty());
}
