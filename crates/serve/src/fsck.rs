//! `pos fsck` on a `pos serve` state directory: the queue ledger against
//! the result trees it acknowledged.
//!
//! The ledger is folded by [`rebuild`] — the very replay a restarting
//! daemon runs — so a ledger this check calls clean is one
//! [`crate::ServeEngine::start`] accepts, and every history the daemon
//! refuses (a dispatch that contradicts stride fair share, a finish of a
//! submission not in flight, an unknown outcome) is reported. Trees are
//! classified through [`tree_disk_state`], the settlement's own view.

use crate::ledger::{rebuild, LedgerRecord, LEDGER_FILE};
use pos_core::journal::{CampaignDiskState, Journal, JournalError};
use pos_dag::tree_disk_state;
use pos_sched::CompletionOutcome;
use std::collections::BTreeSet;
use std::io;
use std::path::{Path, PathBuf};

/// Everything the queue-ledger fsck found out about a `pos serve` state
/// directory and its result trees.
#[derive(Debug, Default)]
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
    /// Ledger-level problems (unreadable, corrupt, a history the daemon's
    /// restart replay refuses, no start record, ...).
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
/// layout `ResultStore::create` produces), in sorted order.
fn collect_result_trees(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut level = vec![root.to_path_buf()];
    for _ in 0..3 {
        let mut next = Vec::new();
        for dir in level.iter().filter(|dir| dir.is_dir()) {
            for entry in std::fs::read_dir(dir)? {
                next.push(entry?.path());
            }
        }
        next.sort();
        level = next;
    }
    let is_tree = |p: &PathBuf| {
        p.is_dir()
            && p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("vt-"))
    };
    Ok(level.into_iter().filter(is_tree).collect())
}

/// Cross-checks a `pos serve` queue ledger against the result trees it
/// acknowledged.
///
/// Beyond a ledger the restart replay refuses, two failure classes, per
/// the lifecycle contract (journal-before-ack):
///
/// * **Orphaned ledger entry** — the ledger says a submission completed,
///   but its result tree is missing or its journal never finished. The
///   ack was durable, the work is not: bit rot or manual deletion, never
///   a crash (completion is journaled *after* the tree seals).
///   Remediation: `pos resume` the tree if it exists.
/// * **Orphan tree** — a finished result tree no ledger entry claims.
///   Someone wrote into the daemon's results root behind its back, or
///   the ledger was truncated. Remediation: ledger repair (resubmit and
///   let the daemon adopt, or archive the tree).
pub fn fsck_queue(state_dir: &Path) -> io::Result<QueueFsckReport> {
    let mut report = QueueFsckReport {
        state_dir: state_dir.to_path_buf(),
        ..QueueFsckReport::default()
    };
    let replay = match Journal::<LedgerRecord>::replay(&state_dir.join(LEDGER_FILE)) {
        Ok(replay) => replay,
        Err(JournalError::Io(e)) => {
            report.errors.push(format!("ledger unreadable: {e}"));
            return Ok(report);
        }
        Err(e) => {
            report.errors.push(e.to_string());
            return Ok(report);
        }
    };
    report.ledger_records = replay.records.len();
    report.torn_tail = replay.torn_tail;
    let mut state = match rebuild(&replay) {
        Ok(state) => state,
        Err(e) => {
            report
                .errors
                .push(format!("a daemon restart refuses this ledger: {e}"));
            return Ok(report);
        }
    };
    report.sessions = state.sessions as usize;
    report.results_root = state.results_root.map(PathBuf::from);
    if report.sessions == 0 {
        report
            .errors
            .push("ledger has no ServeStarted record".into());
    }
    report.pending = state.queue.status().pending.iter().map(|s| s.id).collect();
    report.pending.sort_unstable();
    report.in_flight = state.in_flight.iter().map(|s| s.id).collect();
    report.in_flight.sort_unstable();
    report.finished = state.finished.len();
    report.accepted = report.pending.len() + report.in_flight.len() + report.finished;

    // Which trees do finished entries claim?
    let mut claimed: BTreeSet<PathBuf> = BTreeSet::new();
    state.finished.sort_by_key(|f| f.submission.id);
    for f in &state.finished {
        let (id, outcome, result_dir) = (f.submission.id, f.outcome, &f.result_dir);
        if result_dir.is_empty() {
            // An early hard failure never claimed a tree; only a
            // *successful* ack without a tree is an orphan.
            if outcome != CompletionOutcome::Failed {
                report
                    .orphaned_entries
                    .push((id, format!("outcome {outcome} but no result tree recorded")));
            }
            continue;
        }
        let tree = PathBuf::from(result_dir);
        let problem = match tree_disk_state(&tree) {
            CampaignDiskState::Finished { .. } => None,
            CampaignDiskState::NoJournal => {
                let what = if tree.exists() {
                    "has no journal"
                } else {
                    "is missing"
                };
                let problem = format!("acknowledged tree {result_dir} {what}");
                report.orphaned_entries.push((id, problem));
                continue;
            }
            CampaignDiskState::InProgress { runs_completed, .. } => Some(format!(
                "acknowledged tree {result_dir} never finished \
                 ({runs_completed} runs durable; `pos resume` completes it)"
            )),
            CampaignDiskState::Unreadable(reason) => Some(format!("tree {result_dir}: {reason}")),
        };
        report.orphaned_entries.extend(problem.map(|p| (id, p)));
        claimed.insert(tree);
    }

    // Sweep the results root for trees the ledger does not account for.
    if let Some(root) = report.results_root.clone() {
        for tree in collect_result_trees(&root)? {
            if claimed.contains(&tree) {
                continue;
            }
            match tree_disk_state(&tree) {
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
