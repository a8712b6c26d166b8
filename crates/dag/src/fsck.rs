//! Offline integrity checking of a DAG result tree (`pos fsck` on a
//! tree with a stored `dag.yml`), built on the one DAG-journal fold,
//! [`DagJournal`].

use crate::executor::sweep_tree;
use crate::journal::DagJournal;
use pos_core::fsck::{fsck, FsckReport};
use pos_core::journal::JournalError;
use pos_core::resultstore::tree_digest;
use std::io;
use std::path::{Path, PathBuf};

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
#[derive(Debug, Default)]
pub struct DagFsckReport {
    /// The checked tree.
    pub result_dir: PathBuf,
    /// The tree's folded DAG journal; `None` when it cannot be replayed
    /// (the reason is in [`Self::errors`]).
    pub journal: Option<DagJournal>,
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
            && self
                .journal
                .as_ref()
                .is_some_and(|j| !j.torn_tail && j.completed.is_some())
            && self.nodes.iter().all(|n| !n.status.is_problem())
            && self.sweeps.iter().all(|(_, r)| r.is_clean())
    }

    /// Renders the human-readable report (`pos fsck` on a DAG tree).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("fsck (dag) {}\n", self.result_dir.display()));
        let (records, torn, finished, resumes) =
            self.journal.as_ref().map_or((0, false, false, 0), |j| {
                (j.records, j.torn_tail, j.completed.is_some(), j.resumes)
            });
        out.push_str(&format!(
            "journal: {records} records{}{}{}\n",
            if torn { ", torn tail" } else { "" },
            if finished {
                ", dag finished"
            } else {
                ", dag INCOMPLETE"
            },
            if resumes > 0 {
                format!(", {resumes} resume(s)")
            } else {
                String::new()
            },
        ));
        let planned = self.journal.as_ref().and_then(|j| j.identity.as_ref());
        if let Some(planned) = planned.map(|id| id.nodes) {
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
            let finding = match &node.status {
                NodeFsckStatus::Verified => "ok".into(),
                NodeFsckStatus::DigestMismatch { journaled, on_disk } => format!(
                    "subtree digest mismatch (journal {}.., disk {}..)",
                    &journaled[..12.min(journaled.len())],
                    &on_disk[..12.min(on_disk.len())],
                ),
                NodeFsckStatus::Stranded => format!(
                    "{} (no completion record; `pos dag resume` re-drives it)",
                    if node.kind == "sweep" {
                        "stranded scatter group"
                    } else {
                        "stranded"
                    },
                ),
                NodeFsckStatus::UnsealedGather => {
                    "gather never sealed; resume re-evaluates it".into()
                }
                NodeFsckStatus::Missing => {
                    "journaled complete but stage directory is missing".into()
                }
            };
            out.push_str(&format!("node {} [{}]: {finding}\n", node.id, node.kind));
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
        ..DagFsckReport::default()
    };
    let fold = match DagJournal::read(dag_dir) {
        Ok(fold) => report.journal.insert(fold),
        Err(JournalError::Io(e)) => {
            report.errors.push(format!("journal unreadable: {e}"));
            return Ok(report);
        }
        Err(e) => {
            report.errors.push(e.to_string());
            return Ok(report);
        }
    };
    if fold.identity.is_none() {
        report
            .errors
            .push("journal has no DagStarted record (not a DAG tree?)".into());
        return Ok(report);
    }
    let (finished, sealed) = (&fold.finished, &fold.sealed);

    for (id, kind) in &fold.started {
        let stage_dir = dag_dir.join(format!("stage-{id}"));
        let status = match finished.get(id) {
            Some(_) if !stage_dir.is_dir() => NodeFsckStatus::Missing,
            Some(fin) => {
                let on_disk = tree_digest(&stage_dir)?;
                if on_disk == fin.digest {
                    NodeFsckStatus::Verified
                } else {
                    NodeFsckStatus::DigestMismatch {
                        journaled: fin.digest.clone(),
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
            if let Some(tree) = sweep_tree(&stage_dir) {
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
    for (id, seal) in sealed {
        for (input, want) in seal.inputs.iter().zip(&seal.input_digests) {
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
    for entry in std::fs::read_dir(dag_dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let started = |id: &str| fold.started.iter().any(|(node, _)| node == id);
        if path.is_dir() && name.starts_with("stage-") && !started(&name[6..]) {
            report
                .errors
                .push(format!("stage directory `{name}` has no journal records"));
        }
    }

    Ok(report)
}
