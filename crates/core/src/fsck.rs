//! Offline integrity checking of a result tree (`pos fsck`).
//!
//! Cross-checks the three durability layers the store maintains:
//!
//! 1. the campaign journal (`journal.log`) — replayable, torn tail
//!    reported, corruption rejected;
//! 2. per-run checksum manifests (`checksums.json`) — every journaled
//!    run digest must match the manifest bytes on disk;
//! 3. the artifacts themselves — every manifest entry present and
//!    byte-identical, no unlisted files.
//!
//! The report distinguishes *incomplete* (a crash artifact `pos resume`
//! repairs) from *damaged* (missing/corrupt/extra artifacts in a run the
//! journal claims durable — bit rot or tampering).

use crate::journal::{
    campaign_disk_state, CampaignDiskState, Journal, JournalError, JournalRecord, JOURNAL_FILE,
    LEDGER_FILE,
};
use crate::recovery::{is_not_found, verify_run, CampaignJournals};
use crate::resultstore::{tree_digest, ResultStore, RunVerification};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

/// Integrity status of one run directory.
#[derive(Debug, Clone, PartialEq)]
pub enum RunStatus {
    /// Manifest and all artifacts match the journaled digest.
    Verified,
    /// Journaled as completed, but the on-disk manifest hashes to a
    /// different digest (or is missing/unreadable).
    DigestMismatch {
        /// The digest the journal recorded.
        journaled: String,
        /// The digest of the manifest on disk, if one could be read.
        on_disk: Option<String>,
    },
    /// Manifest digest matches but artifacts diverge from it.
    Damaged(RunVerification),
    /// The journal never recorded this run as completed — a crash
    /// artifact; `pos resume` wipes and re-executes it.
    Incomplete,
    /// Journaled as completed but the run directory does not exist.
    Missing,
}

impl RunStatus {
    /// True for states a clean tree may not contain.
    pub fn is_problem(&self) -> bool {
        !matches!(self, RunStatus::Verified)
    }
}

/// One run's entry in the report.
#[derive(Debug, Clone)]
pub struct RunFsck {
    /// Zero-based run index.
    pub index: usize,
    /// What the check found.
    pub status: RunStatus,
}

/// Everything `fsck` found out about a result tree.
#[derive(Debug)]
pub struct FsckReport {
    /// The checked tree.
    pub result_dir: PathBuf,
    /// The tree's folded journals; `None` when `journal.log` itself
    /// cannot be replayed (the reason is in [`Self::errors`]).
    pub journals: Option<CampaignJournals>,
    /// Per-run findings, in index order.
    pub runs: Vec<RunFsck>,
    /// Tree-level problems (unreadable journal, no start record, ...).
    pub errors: Vec<String>,
}

impl FsckReport {
    /// True when the tree is complete and every artifact verifies.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
            && self
                .journals
                .as_ref()
                .is_some_and(|j| !j.torn_tail && j.journal.finished())
            && self.runs.iter().all(|r| !r.status.is_problem())
    }

    /// Indices of runs that need re-execution (anything not verified).
    pub fn broken_runs(&self) -> Vec<usize> {
        self.runs
            .iter()
            .filter(|r| r.status.is_problem())
            .map(|r| r.index)
            .collect()
    }

    /// Renders the human-readable report (`pos fsck` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fsck {}\n", self.result_dir.display()));
        let (records, torn, finished) = self.journals.as_ref().map_or((0, false, false), |j| {
            (j.journal.records.len(), j.torn_tail, j.journal.finished())
        });
        out.push_str(&format!(
            "journal: {records} records{}{}\n",
            if torn { ", torn tail" } else { "" },
            if finished {
                ", campaign finished"
            } else {
                ", campaign INCOMPLETE"
            },
        ));
        if let Some(j) = &self.journals {
            if j.lane_journals > 0 {
                out.push_str(&format!(
                    "lanes: {} lane journals, {} records\n",
                    j.lane_journals, j.lane_records,
                ));
            }
            let f = &j.failover;
            if !f.retired.is_empty() || !f.replanned.is_empty() || f.retries > 0 {
                out.push_str(&format!(
                    "failover: {} lane(s) retired, {} replacement lane(s), {} run retry step(s)\n",
                    f.retired.len(),
                    f.replanned.len(),
                    f.retries,
                ));
                for r in &f.retired {
                    out.push_str(&format!("  lane {} retired: {}\n", r.lane, r.reason));
                }
            }
            if !f.quarantined_runs.is_empty() {
                out.push_str(&format!("quarantined runs: {:?}\n", f.quarantined_runs));
            }
            if let Some(id) = &j.identity {
                let verified = self
                    .runs
                    .iter()
                    .filter(|r| r.status == RunStatus::Verified)
                    .count();
                out.push_str(&format!("runs: {verified}/{} verified\n", id.total_runs));
            }
        }
        for e in &self.errors {
            out.push_str(&format!("error: {e}\n"));
        }
        for run in &self.runs {
            match &run.status {
                RunStatus::Verified => {
                    out.push_str(&format!("run {:04}: ok\n", run.index));
                }
                RunStatus::DigestMismatch { journaled, on_disk } => {
                    out.push_str(&format!(
                        "run {:04}: manifest digest mismatch (journal {}.., disk {})\n",
                        run.index,
                        &journaled[..12.min(journaled.len())],
                        on_disk
                            .as_ref()
                            .map(|d| format!("{}..", &d[..12.min(d.len())]))
                            .unwrap_or_else(|| "unreadable".into()),
                    ));
                }
                RunStatus::Damaged(v) => {
                    out.push_str(&format!("run {:04}: damaged", run.index));
                    if !v.missing.is_empty() {
                        out.push_str(&format!(" missing={:?}", v.missing));
                    }
                    if !v.corrupt.is_empty() {
                        out.push_str(&format!(" corrupt={:?}", v.corrupt));
                    }
                    if !v.extra.is_empty() {
                        out.push_str(&format!(" extra={:?}", v.extra));
                    }
                    out.push('\n');
                }
                RunStatus::Incomplete => {
                    out.push_str(&format!(
                        "run {:04}: incomplete (no completion record; resume re-executes it)\n",
                        run.index
                    ));
                }
                RunStatus::Missing => {
                    out.push_str(&format!(
                        "run {:04}: journaled complete but directory is missing\n",
                        run.index
                    ));
                }
            }
        }
        out.push_str(if self.is_clean() {
            "status: clean\n"
        } else {
            "status: NOT clean\n"
        });
        out
    }
}

/// Checks a result tree: folds its journals, verifies every journaled
/// run against its digest and manifest, and reports run directories the
/// journals do not account for.
pub fn fsck(result_dir: &Path) -> io::Result<FsckReport> {
    let mut errors = Vec::new();
    let journals = match CampaignJournals::read(result_dir) {
        Ok(journals) => Some(journals),
        Err(JournalError::Io(e)) => {
            errors.push(format!("journal unreadable: {e}"));
            None
        }
        Err(e) => {
            errors.push(e.to_string());
            None
        }
    };
    let no_runs = BTreeMap::new();
    let completed = journals.as_ref().map_or(&no_runs, |j| &j.completed);
    if let Some(j) = &journals {
        if j.identity.is_none() {
            errors.push("journal has no CampaignStarted record".into());
        }
        for (lane, e) in &j.lane_errors {
            errors.push(match e {
                JournalError::Io(io) if is_not_found(e) => {
                    format!("lane {lane}: journal missing ({io})")
                }
                e => format!("lane {lane}: {e}"),
            });
        }
        // Failover integrity: a lane retired while holding a run obliges
        // the journals to account for that run — a completion (reassigned
        // to a surviving or replacement lane) or a poison quarantine. A
        // stranded run means the failover was interrupted; resume
        // finishes it.
        for r in &j.failover.retired {
            let Some(index) = r.run else { continue };
            if !completed.contains_key(&index) && !j.failover.quarantined_runs.contains(&index) {
                errors.push(format!(
                    "lane {} retired holding run {index:04}: run neither reassigned nor \
                     quarantined (stranded); run `pos resume` to repair",
                    r.lane
                ));
            }
        }
    }

    // Run directories actually on disk.
    let on_disk: BTreeMap<usize, PathBuf> = ResultStore::open(result_dir)
        .list_runs()?
        .into_iter()
        .filter_map(|dir| {
            dir.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("run-"))
                .and_then(|n| n.parse::<usize>().ok())
                .map(|idx| (idx, dir))
        })
        .collect();

    let mut indices: Vec<usize> = completed.keys().copied().collect();
    for idx in on_disk.keys() {
        if !completed.contains_key(idx) {
            indices.push(*idx);
        }
    }
    indices.sort_unstable();

    let mut runs = Vec::new();
    for index in indices {
        let status = match (completed.get(&index), on_disk.get(&index)) {
            (Some(run), Some(dir)) => verify_run(dir, &run.digest),
            (Some(_), None) => RunStatus::Missing,
            (None, _) => RunStatus::Incomplete,
        };
        runs.push(RunFsck { index, status });
    }

    // Planned runs the tree has no trace of at all also count as
    // incomplete when the campaign claims to be finished.
    if let Some(j) = journals.as_ref().filter(|j| j.journal.finished()) {
        for index in 0..j.identity.as_ref().map_or(0, |id| id.total_runs) {
            if !completed.contains_key(&index) && !on_disk.contains_key(&index) {
                runs.push(RunFsck {
                    index,
                    status: RunStatus::Incomplete,
                });
            }
        }
        runs.sort_by_key(|r| r.index);
    }

    Ok(FsckReport {
        result_dir: result_dir.to_path_buf(),
        journals,
        runs,
        errors,
    })
}

/// One submission's fate according to the queue ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LedgerEntryState {
    /// Accepted, never dispatched — waiting in the queue.
    Pending,
    /// Dispatched, no terminal record — in flight (or interrupted;
    /// daemon restart resumes it).
    InFlight,
    /// Reached a terminal outcome.
    Finished {
        /// `"completed"`, `"completed_degraded"` or `"failed"`.
        outcome: String,
        /// The result tree the ledger claims (empty for early failures).
        result_dir: String,
    },
}

/// Everything the queue-ledger fsck found out about a `pos serve` state
/// directory and its result trees.
#[derive(Debug)]
pub struct QueueFsckReport {
    /// The checked state directory.
    pub state_dir: PathBuf,
    /// Results root recorded by the last `ServeStarted` record.
    pub results_root: Option<PathBuf>,
    /// Complete ledger records replayed.
    pub ledger_records: usize,
    /// True when the ledger ends in a torn (partially written) record —
    /// the expected artifact of a daemon killed mid-append; a daemon
    /// restart truncates it away.
    pub torn_tail: bool,
    /// Daemon sessions the ledger spans (`ServeStarted` records).
    pub sessions: usize,
    /// Submissions accepted across all sessions.
    pub accepted: usize,
    /// Submissions with a terminal record.
    pub finished: usize,
    /// Accepted-but-never-dispatched submission ids (normal while the
    /// daemon is up; work to resume after a crash).
    pub pending: Vec<u64>,
    /// Dispatched-but-unfinished submission ids.
    pub in_flight: Vec<u64>,
    /// Orphaned ledger entries: `(id, problem)` — the ledger acknowledged
    /// a completion whose result tree is missing or not actually
    /// finished. Remediation: `pos resume` the tree if present,
    /// resubmit otherwise.
    pub orphaned_entries: Vec<(u64, String)>,
    /// Orphan trees: finished result trees under the results root that no
    /// ledger entry accounts for.
    pub orphan_trees: Vec<PathBuf>,
    /// Unfinished trees (no terminal journal record) not claimed by any
    /// finished ledger entry — in-flight work a daemon restart or
    /// `pos resume` completes.
    pub resumable_trees: Vec<PathBuf>,
    /// Ledger-level problems (unreadable, corrupt, no start record, ...).
    pub errors: Vec<String>,
}

impl QueueFsckReport {
    /// True when ledger and trees agree: no corruption, no torn tail, no
    /// orphaned entries, no orphan trees. Pending and in-flight entries
    /// (and their resumable trees) are normal operating state, not
    /// problems.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
            && !self.torn_tail
            && self.orphaned_entries.is_empty()
            && self.orphan_trees.is_empty()
    }

    /// Renders the human-readable report (`pos fsck` on a state dir).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fsck queue {}\n", self.state_dir.display()));
        out.push_str(&format!(
            "ledger: {} records, {} session(s){}\n",
            self.ledger_records,
            self.sessions,
            if self.torn_tail {
                ", torn tail (daemon restart truncates it)"
            } else {
                ""
            },
        ));
        out.push_str(&format!(
            "submissions: {} accepted, {} finished, {} pending, {} in flight\n",
            self.accepted,
            self.finished,
            self.pending.len(),
            self.in_flight.len(),
        ));
        for id in &self.in_flight {
            out.push_str(&format!(
                "in flight: submission {id} (daemon restart resumes it)\n"
            ));
        }
        for (id, problem) in &self.orphaned_entries {
            out.push_str(&format!("orphaned entry: submission {id}: {problem}\n"));
        }
        for tree in &self.orphan_trees {
            out.push_str(&format!(
                "orphan tree: {} (finished tree, no ledger entry)\n",
                tree.display()
            ));
        }
        for tree in &self.resumable_trees {
            out.push_str(&format!(
                "resumable tree: {} (unfinished; `pos resume` completes it)\n",
                tree.display()
            ));
        }
        for e in &self.errors {
            out.push_str(&format!("error: {e}\n"));
        }
        out.push_str(if self.is_clean() {
            "status: clean\n"
        } else {
            "status: NOT clean\n"
        });
        out
    }
}

/// Collects every result tree under `root` (the `user/experiment/vt-*`
/// layout [`ResultStore::create`] produces), in sorted order.
fn collect_result_trees(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut trees = Vec::new();
    if !root.exists() {
        return Ok(trees);
    }
    for user in fs_read_dir_sorted(root)? {
        if !user.is_dir() {
            continue;
        }
        for exp in fs_read_dir_sorted(&user)? {
            if !exp.is_dir() {
                continue;
            }
            for tree in fs_read_dir_sorted(&exp)? {
                let is_tree = tree.is_dir()
                    && tree
                        .file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("vt-"));
                if is_tree {
                    trees.push(tree);
                }
            }
        }
    }
    Ok(trees)
}

/// `read_dir` with deterministic (sorted) order.
fn fs_read_dir_sorted(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    Ok(entries)
}

/// Cross-checks a `pos serve` queue ledger against the campaign result
/// trees it acknowledged.
///
/// Two failure classes, per the lifecycle contract (journal-before-ack):
///
/// * **Orphaned ledger entry** — the ledger says a submission completed,
///   but its result tree is missing or its campaign journal never
///   finished. The ack was durable, the work is not: bit rot or manual
///   deletion, never a crash (completion is journaled *after* the tree
///   seals). Remediation: `pos resume` the tree if it exists.
/// * **Orphan tree** — a finished result tree no ledger entry claims.
///   Someone wrote into the daemon's results root behind its back, or
///   the ledger was truncated. Remediation: ledger repair (resubmit and
///   let the daemon adopt, or archive the tree).
pub fn fsck_queue(state_dir: &Path) -> io::Result<QueueFsckReport> {
    let mut report = QueueFsckReport {
        state_dir: state_dir.to_path_buf(),
        results_root: None,
        ledger_records: 0,
        torn_tail: false,
        sessions: 0,
        accepted: 0,
        finished: 0,
        pending: Vec::new(),
        in_flight: Vec::new(),
        orphaned_entries: Vec::new(),
        orphan_trees: Vec::new(),
        resumable_trees: Vec::new(),
        errors: Vec::new(),
    };

    let ledger_path = state_dir.join(LEDGER_FILE);
    let replay = match Journal::replay(&ledger_path) {
        Ok(r) => r,
        Err(JournalError::Io(e)) => {
            report.errors.push(format!("ledger unreadable: {e}"));
            return Ok(report);
        }
        Err(e @ JournalError::Corrupt { .. }) => {
            report.errors.push(e.to_string());
            return Ok(report);
        }
    };
    report.ledger_records = replay.records.len();
    report.torn_tail = replay.torn_tail;

    // Fold the ledger into per-submission states, last record wins.
    let mut entries: BTreeMap<u64, LedgerEntryState> = BTreeMap::new();
    for rec in &replay.records {
        match rec {
            JournalRecord::ServeStarted { results_root, .. } => {
                report.sessions += 1;
                report.results_root = Some(PathBuf::from(results_root));
            }
            JournalRecord::SubmissionAccepted { id, .. } => {
                report.accepted += 1;
                entries.insert(*id, LedgerEntryState::Pending);
            }
            JournalRecord::CampaignDispatched { id } => {
                entries.insert(*id, LedgerEntryState::InFlight);
            }
            JournalRecord::SubmissionFinished {
                id,
                outcome,
                result_dir,
            } => {
                report.finished += 1;
                entries.insert(
                    *id,
                    LedgerEntryState::Finished {
                        outcome: outcome.clone(),
                        result_dir: result_dir.clone(),
                    },
                );
            }
            _ => {}
        }
    }
    if report.sessions == 0 {
        report
            .errors
            .push("ledger has no ServeStarted record".into());
    }

    // Which trees do finished entries claim?
    let mut claimed: BTreeMap<PathBuf, u64> = BTreeMap::new();
    for (id, state) in &entries {
        match state {
            LedgerEntryState::Pending => report.pending.push(*id),
            LedgerEntryState::InFlight => report.in_flight.push(*id),
            LedgerEntryState::Finished {
                outcome,
                result_dir,
            } => {
                if result_dir.is_empty() {
                    // An early hard failure never claimed a tree; only a
                    // *successful* ack without a tree is an orphan.
                    if outcome != "failed" {
                        report.orphaned_entries.push((
                            *id,
                            format!("outcome {outcome} but no result tree recorded"),
                        ));
                    }
                    continue;
                }
                let tree = PathBuf::from(result_dir);
                match campaign_disk_state(&tree) {
                    CampaignDiskState::Finished { .. } => {
                        claimed.insert(tree, *id);
                    }
                    CampaignDiskState::NoJournal if !tree.exists() => {
                        report
                            .orphaned_entries
                            .push((*id, format!("acknowledged tree {result_dir} is missing")));
                    }
                    CampaignDiskState::NoJournal => {
                        report.orphaned_entries.push((
                            *id,
                            format!("acknowledged tree {result_dir} has no journal"),
                        ));
                    }
                    CampaignDiskState::InProgress { runs_completed, .. } => {
                        claimed.insert(tree, *id);
                        report.orphaned_entries.push((
                            *id,
                            format!(
                                "acknowledged tree {result_dir} never finished \
                                 ({runs_completed} runs durable; `pos resume` completes it)"
                            ),
                        ));
                    }
                    CampaignDiskState::Unreadable(reason) => {
                        claimed.insert(tree, *id);
                        report
                            .orphaned_entries
                            .push((*id, format!("tree {result_dir}: {reason}")));
                    }
                }
            }
        }
    }

    // Sweep the results root for trees the ledger does not account for.
    if let Some(root) = report.results_root.clone() {
        for tree in collect_result_trees(&root)? {
            if claimed.contains_key(&tree) {
                continue;
            }
            match campaign_disk_state(&tree) {
                CampaignDiskState::Finished { .. } => report.orphan_trees.push(tree),
                CampaignDiskState::NoJournal | CampaignDiskState::InProgress { .. } => {
                    report.resumable_trees.push(tree)
                }
                CampaignDiskState::Unreadable(reason) => {
                    report.errors.push(format!("{}: {reason}", tree.display()));
                }
            }
        }
    }

    Ok(report)
}

/// Integrity status of one DAG node.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeFsckStatus {
    /// The journaled subtree digest matches the stage directory.
    Verified,
    /// Journaled complete, but the stage subtree hashes differently —
    /// bit rot, tampering, or a write the journal never saw.
    DigestMismatch {
        /// The digest `NodeFinished` recorded.
        journaled: String,
        /// What the stage directory hashes to now.
        on_disk: String,
    },
    /// `NodeStarted` with no `NodeFinished`: the crash landed inside
    /// this node — for a sweep, a stranded scatter group `pos dag
    /// resume` re-drives through the scheduler.
    Stranded,
    /// A gather node that started but never sealed: its scatter inputs
    /// were not all consumed; resume re-evaluates from scratch.
    UnsealedGather,
    /// Journaled complete but the stage directory is gone.
    Missing,
}

impl NodeFsckStatus {
    /// True for states a clean DAG tree may not contain.
    pub fn is_problem(&self) -> bool {
        !matches!(self, NodeFsckStatus::Verified)
    }
}

/// One node's entry in the DAG report.
#[derive(Debug, Clone)]
pub struct NodeFsck {
    /// The stage id.
    pub id: String,
    /// The stage kind as journaled (`setup` / `sweep` / `gather`).
    pub kind: String,
    /// What the check found.
    pub status: NodeFsckStatus,
}

/// Everything `fsck_dag` found out about a DAG result tree.
#[derive(Debug)]
pub struct DagFsckReport {
    /// The checked tree.
    pub result_dir: PathBuf,
    /// Complete DAG-journal records replayed.
    pub journal_records: usize,
    /// True when the DAG journal ends in a torn record.
    pub torn_tail: bool,
    /// True when a `DagFinished` record is present.
    pub dag_finished: bool,
    /// Nodes the DAG planned, per `DagStarted`.
    pub planned_nodes: Option<usize>,
    /// `DagResumed` records seen (how often the DAG was picked back up).
    pub resumes: usize,
    /// Per-node findings, in journal order (first start wins the slot).
    pub nodes: Vec<NodeFsck>,
    /// Inner campaign fsck of every finished sweep stage, as
    /// `(stage id, report)` — the node-record ↔ result-tree cross-check
    /// descends into the scatter trees themselves.
    pub sweeps: Vec<(String, FsckReport)>,
    /// Tree-level problems (unreadable journal, unaccounted stage
    /// directories, gather input digest drift, ...).
    pub errors: Vec<String>,
}

impl DagFsckReport {
    /// True when the DAG completed and every node and scatter tree
    /// verifies.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
            && !self.torn_tail
            && self.dag_finished
            && self.nodes.iter().all(|n| !n.status.is_problem())
            && self.sweeps.iter().all(|(_, r)| r.is_clean())
    }

    /// Renders the human-readable report (`pos fsck` on a DAG tree).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fsck (dag) {}\n", self.result_dir.display()));
        out.push_str(&format!(
            "journal: {} records{}{}{}\n",
            self.journal_records,
            if self.torn_tail { ", torn tail" } else { "" },
            if self.dag_finished {
                ", dag finished"
            } else {
                ", dag INCOMPLETE"
            },
            if self.resumes > 0 {
                format!(", {} resume(s)", self.resumes)
            } else {
                String::new()
            },
        ));
        if let Some(planned) = self.planned_nodes {
            let verified = self
                .nodes
                .iter()
                .filter(|n| n.status == NodeFsckStatus::Verified)
                .count();
            out.push_str(&format!("nodes: {verified}/{planned} verified\n"));
        }
        for e in &self.errors {
            out.push_str(&format!("error: {e}\n"));
        }
        for node in &self.nodes {
            match &node.status {
                NodeFsckStatus::Verified => {
                    out.push_str(&format!("node {} [{}]: ok\n", node.id, node.kind));
                }
                NodeFsckStatus::DigestMismatch { journaled, on_disk } => {
                    out.push_str(&format!(
                        "node {} [{}]: subtree digest mismatch (journal {}.., disk {}..)\n",
                        node.id,
                        node.kind,
                        &journaled[..12.min(journaled.len())],
                        &on_disk[..12.min(on_disk.len())],
                    ));
                }
                NodeFsckStatus::Stranded => {
                    out.push_str(&format!(
                        "node {} [{}]: {} (no completion record; `pos dag resume` re-drives it)\n",
                        node.id,
                        node.kind,
                        if node.kind == "sweep" {
                            "stranded scatter group"
                        } else {
                            "stranded"
                        },
                    ));
                }
                NodeFsckStatus::UnsealedGather => {
                    out.push_str(&format!(
                        "node {} [{}]: gather never sealed; resume re-evaluates it\n",
                        node.id, node.kind
                    ));
                }
                NodeFsckStatus::Missing => {
                    out.push_str(&format!(
                        "node {} [{}]: journaled complete but stage directory is missing\n",
                        node.id, node.kind
                    ));
                }
            }
        }
        for (id, report) in &self.sweeps {
            out.push_str(&format!(
                "sweep {id}: inner campaign {}\n",
                if report.is_clean() {
                    "clean"
                } else {
                    "NOT clean"
                }
            ));
        }
        out.push_str(if self.is_clean() {
            "status: clean\n"
        } else {
            "status: NOT clean\n"
        });
        out
    }
}

/// Checks a DAG result tree: replays the DAG journal, verifies every
/// `NodeFinished` subtree digest against the stage directory, flags
/// stranded scatter groups and unsealed gathers, cross-checks sealed
/// gather input digests against the trees they consumed, descends into
/// every finished sweep's campaign tree with [`fsck`], and reports
/// stage directories the journal does not account for.
pub fn fsck_dag(dag_dir: &Path) -> io::Result<DagFsckReport> {
    let mut report = DagFsckReport {
        result_dir: dag_dir.to_path_buf(),
        journal_records: 0,
        torn_tail: false,
        dag_finished: false,
        planned_nodes: None,
        resumes: 0,
        nodes: Vec::new(),
        sweeps: Vec::new(),
        errors: Vec::new(),
    };

    let replay = match Journal::replay(&dag_dir.join(JOURNAL_FILE)) {
        Ok(r) => r,
        Err(JournalError::Io(e)) => {
            report.errors.push(format!("journal unreadable: {e}"));
            return Ok(report);
        }
        Err(e @ JournalError::Corrupt { .. }) => {
            report.errors.push(e.to_string());
            return Ok(report);
        }
    };
    report.journal_records = replay.records.len();
    report.torn_tail = replay.torn_tail;
    match replay.dag_start() {
        Some(JournalRecord::DagStarted { nodes, .. }) => {
            report.planned_nodes = Some(*nodes);
        }
        _ => {
            report
                .errors
                .push("journal has no DagStarted record (not a DAG tree?)".into());
            return Ok(report);
        }
    }

    // Fold the journal: node kinds in first-start order, last finish
    // wins a node's digest, any seal counts (a resume may re-seal).
    let mut order: Vec<String> = Vec::new();
    let mut kinds: BTreeMap<String, String> = BTreeMap::new();
    let mut finished: BTreeMap<String, String> = BTreeMap::new();
    let mut sealed: BTreeMap<String, (Vec<String>, Vec<String>)> = BTreeMap::new();
    for rec in &replay.records {
        match rec {
            JournalRecord::NodeStarted { node, kind, .. } => {
                if !kinds.contains_key(node) {
                    order.push(node.clone());
                }
                kinds.insert(node.clone(), kind.clone());
            }
            JournalRecord::NodeFinished { node, digest, .. } => {
                finished.insert(node.clone(), digest.clone());
            }
            JournalRecord::GatherSealed {
                node,
                inputs,
                input_digests,
            } => {
                sealed.insert(node.clone(), (inputs.clone(), input_digests.clone()));
            }
            JournalRecord::DagResumed { .. } => report.resumes += 1,
            JournalRecord::DagFinished { .. } => report.dag_finished = true,
            _ => {}
        }
    }

    for id in &order {
        let kind = kinds[id].clone();
        let stage_dir = dag_dir.join(format!("stage-{id}"));
        let status = match finished.get(id) {
            Some(_) if !stage_dir.is_dir() => NodeFsckStatus::Missing,
            Some(journaled) => {
                let on_disk = tree_digest(&stage_dir)?;
                if &on_disk == journaled {
                    NodeFsckStatus::Verified
                } else {
                    NodeFsckStatus::DigestMismatch {
                        journaled: journaled.clone(),
                        on_disk,
                    }
                }
            }
            None if kind == "gather" && !sealed.contains_key(id) => NodeFsckStatus::UnsealedGather,
            None => NodeFsckStatus::Stranded,
        };
        // A finished gather must have sealed first — the executor
        // appends GatherSealed before NodeFinished, so a finish without
        // a seal means records were lost.
        if kind == "gather" && finished.contains_key(id) && !sealed.contains_key(id) {
            report.errors.push(format!(
                "gather `{id}` finished without a GatherSealed record"
            ));
        }
        report.nodes.push(NodeFsck {
            id: id.clone(),
            kind: kind.clone(),
            status,
        });
        // Descend into finished sweeps: the scatter tree is itself a
        // journaled campaign and must fsck clean.
        if kind == "sweep" && finished.contains_key(id) && stage_dir.is_dir() {
            if let Some(tree) = single_campaign_tree(&stage_dir) {
                report.sweeps.push((id.clone(), fsck(&tree)?));
            } else {
                report
                    .errors
                    .push(format!("sweep `{id}` finished but holds no campaign tree"));
            }
        }
    }

    // Sealed gathers: the input trees must still hash to what the seal
    // consumed (scatter results may not drift under a sealed gather).
    for (id, (inputs, digests)) in &sealed {
        for (input, want) in inputs.iter().zip(digests) {
            let input_dir = dag_dir.join(format!("stage-{input}"));
            let got = tree_digest(&input_dir).unwrap_or_default();
            if &got != want {
                report.errors.push(format!(
                    "gather `{id}`: input `{input}` drifted since the seal \
                     (sealed {}.., now {}..)",
                    &want[..12.min(want.len())],
                    &got[..12.min(got.len())],
                ));
            }
        }
    }

    // Stage directories the journal never started.
    if dag_dir.is_dir() {
        for entry in std::fs::read_dir(dag_dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if path.is_dir() && name.starts_with("stage-") && !kinds.contains_key(&name[6..]) {
                report
                    .errors
                    .push(format!("stage directory `{name}` has no journal records"));
            }
        }
    }

    Ok(report)
}

/// The single `<user>/<name>/vt-*` campaign tree inside a sweep stage
/// directory, if exactly that chain exists.
fn single_campaign_tree(stage_dir: &Path) -> Option<PathBuf> {
    let mut dir = stage_dir.to_path_buf();
    for _ in 0..3 {
        let mut subdirs: Vec<PathBuf> = std::fs::read_dir(&dir)
            .ok()?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        dir = subdirs.into_iter().next()?;
    }
    Some(dir)
}
