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
//!
//! A DAG tree is checked by `pos_dag::fsck_dag` (which descends into its
//! sweep stages with [`fsck`]), a `pos serve` state directory by
//! `pos_serve::fsck_queue`.

use crate::journal::JournalError;
use crate::recovery::{is_not_found, verify_run, CampaignJournals};
use crate::resultstore::{ResultStore, RunVerification};
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
