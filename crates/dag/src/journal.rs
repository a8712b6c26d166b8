//! The DAG journal: its record vocabulary and its one reader.
//!
//! A DAG tree's `journal.log` uses the `POSJ1` frame of
//! [`pos_core::journal`] with its own records ([`DagRecord`]).
//! [`DagJournal::read`] folds it once; [`crate::resume_dag`],
//! [`crate::fsck_dag`], [`tree_disk_state`] and the `pos serve` restart
//! path all build on that fold and on its one identity guard,
//! [`DagIdentity::check`].

use crate::spec::DagSpec;
use crate::DagError;
use pos_core::experiment::ExperimentSpec;
use pos_core::journal::{
    campaign_disk_state, CampaignDiskState, Journal, JournalError, Record, JOURNAL_FILE,
};
use pos_core::recovery::is_not_found;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// One DAG lifecycle event. The payload structs of the newtype variants
/// encode exactly like the fields of a struct variant
/// (`{"NodeFinished":{"node":...}}`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DagRecord {
    /// A DAG campaign created its result tree and journaled its plan.
    ///
    /// Always the first record of a DAG journal; its presence is how
    /// `pos dag resume` and `pos fsck` recognize a DAG result tree.
    DagStarted(DagIdentity),
    /// A later session picked the DAG up again.
    DagResumed {
        /// Nodes the resuming session verified (digest match) and
        /// fast-forwarded over.
        verified_nodes: usize,
    },
    /// A DAG stage node began executing.
    NodeStarted {
        /// Stage id (unique within the DAG).
        node: String,
        /// Stage kind (`"setup"` / `"sweep"` / `"gather"`).
        kind: String,
        /// Virtual start instant of the node on the DAG schedule,
        /// nanoseconds.
        started_ns: u64,
    },
    /// A gather node consumed all of its scatter inputs and sealed the
    /// barrier: every input subtree digest is recorded, so a resume (or
    /// `pos fsck`) can prove the aggregation saw complete inputs.
    ///
    /// Journaled after the gather's artifacts are durable and before its
    /// `NodeFinished` — a `NodeStarted` gather without a seal is an
    /// *unsealed gather* and `pos fsck` flags it.
    GatherSealed(GatherSeal),
    /// A DAG stage node reached a terminal state and its artifact
    /// subtree is durable.
    NodeFinished(NodeFinish),
    /// Every node of the DAG completed and the result tree is sealed.
    DagFinished {
        /// Nodes completed (equals the planned node count).
        nodes: usize,
        /// Total failed measurement runs across all sweep stages.
        failed_runs: usize,
        /// Virtual makespan of the DAG schedule, nanoseconds.
        makespan_ns: u64,
    },
}

impl Record for DagRecord {
    const KIND: &'static str = "DAG journal";
}

/// The `DagStarted` record: the facts a resume must reproduce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DagIdentity {
    /// DAG name (result directory component).
    pub name: String,
    /// SHA-256 of the canonical DAG spec — guards resume against a spec
    /// edited after the fact.
    pub dag_digest: String,
    /// SHA-256 of the effective experiment spec all sweep stages derive
    /// from.
    pub spec_digest: String,
    /// Testbed root seed every stage runs on.
    pub seed: u64,
    /// Testbed flavor (`"pos"` / `"vpos"`); stages boot testbeds, so a
    /// resume on the wrong flavor would diverge.
    pub testbed: String,
    /// Execution target name (`"in-process"` / `"sim-batch"`). The
    /// determinism contract makes targets interchangeable for the
    /// *artifacts*, but a resume replays target-side accounting, so the
    /// identity guard records where the DAG ran.
    pub target: String,
    /// Total number of stage nodes in the DAG.
    pub nodes: usize,
}

impl DagIdentity {
    /// The identity of executing `dag` over the experiment `exp` on
    /// `seed`, the `testbed` flavor and the execution target `target`.
    pub fn new(
        dag: &DagSpec,
        exp: &ExperimentSpec,
        seed: u64,
        testbed: &str,
        target: &str,
    ) -> DagIdentity {
        DagIdentity {
            name: dag.name.clone(),
            dag_digest: dag.digest(),
            spec_digest: exp.digest(),
            seed,
            testbed: testbed.into(),
            target: target.into(),
            nodes: dag.stages.len(),
        }
    }

    /// The one identity guard: refuses a resume (`now`) whose stored DAG
    /// or experiment no longer matches the journal, or that runs on
    /// another seed, testbed flavor, execution target or node count,
    /// checked in that order.
    pub fn check(&self, now: &DagIdentity) -> Result<(), DagError> {
        let reason = if self.name != now.name || self.dag_digest != now.dag_digest {
            format!(
                "stored dag.yml does not match the journaled DAG (`{}`, digest {})",
                self.name, self.dag_digest
            )
        } else if self.spec_digest != now.spec_digest {
            "stored experiment bundle was edited after the DAG started".into()
        } else if self.seed != now.seed {
            format!(
                "DAG ran on seed {}, resume is using seed {}",
                self.seed, now.seed
            )
        } else if self.testbed != now.testbed {
            format!(
                "DAG ran on the `{}` testbed, resume is using `{}`",
                self.testbed, now.testbed
            )
        } else if self.target != now.target {
            format!(
                "DAG ran on the `{}` target, resume is using `{}`; \
                 targets are artifact-interchangeable but their accounting is not",
                self.target, now.target
            )
        } else if self.nodes != now.nodes {
            format!(
                "journal plans {} nodes, stored DAG has {}",
                self.nodes, now.nodes
            )
        } else {
            return Ok(());
        };
        Err(DagError::Resume { reason })
    }
}

/// The `GatherSealed` record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GatherSeal {
    /// The gather stage.
    pub node: String,
    /// Stage ids of the consumed scatter (sweep) inputs, in dependency
    /// order.
    pub inputs: Vec<String>,
    /// Subtree digest of each consumed input, aligned with `inputs`.
    pub input_digests: Vec<String>,
}

/// The `NodeFinished` record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeFinish {
    /// The finished stage.
    pub node: String,
    /// Deterministic digest of the node's artifact subtree (journal files
    /// excluded) — what resume verifies before fast-forwarding over the
    /// node.
    pub digest: String,
    /// Virtual start instant of the node, nanoseconds.
    pub started_ns: u64,
    /// Virtual finish instant of the node, nanoseconds.
    pub finished_ns: u64,
    /// Measurement runs inside the node that failed (sweep stages under
    /// `continue_on_run_failure`; 0 for setup/gather).
    pub failed_runs: usize,
}

/// A DAG tree's journal, read once and folded.
#[derive(Debug, Default)]
pub struct DagJournal {
    /// Complete records replayed.
    pub records: usize,
    /// True when the journal ends in a torn record.
    pub torn_tail: bool,
    /// The `DagStarted` identity, when it is the journal's first record.
    pub identity: Option<DagIdentity>,
    /// `(node, kind)` of every started node, in first-start order.
    pub started: Vec<(String, String)>,
    /// The last `NodeFinished` per node.
    pub finished: BTreeMap<String, NodeFinish>,
    /// The last `GatherSealed` per gather node.
    pub sealed: BTreeMap<String, GatherSeal>,
    /// `DagResumed` records: how often the DAG was picked back up.
    pub resumes: usize,
    /// `(nodes, failed_runs)` of the `DagFinished` record, if the DAG
    /// completed.
    pub completed: Option<(usize, usize)>,
}

impl DagJournal {
    /// Reads and folds the DAG journal of the tree at `dir`.
    pub fn read(dir: &Path) -> Result<DagJournal, JournalError> {
        let replay = Journal::<DagRecord>::replay(&dir.join(JOURNAL_FILE))?;
        let mut fold = DagJournal {
            records: replay.records.len(),
            torn_tail: replay.torn_tail,
            ..DagJournal::default()
        };
        for (i, record) in replay.records.into_iter().enumerate() {
            match record {
                DagRecord::DagStarted(identity) if i == 0 => fold.identity = Some(identity),
                DagRecord::DagStarted(_) => {}
                DagRecord::DagResumed { .. } => fold.resumes += 1,
                DagRecord::NodeStarted { node, kind, .. } => {
                    if !fold.started.iter().any(|(id, _)| *id == node) {
                        fold.started.push((node, kind));
                    }
                }
                DagRecord::GatherSealed(seal) => {
                    fold.sealed.insert(seal.node.clone(), seal);
                }
                DagRecord::NodeFinished(finish) => {
                    fold.finished.insert(finish.node.clone(), finish);
                }
                DagRecord::DagFinished {
                    nodes, failed_runs, ..
                } => fold.completed = Some((nodes, failed_runs)),
            }
        }
        Ok(fold)
    }

    /// The DAG identity, or the resume refusal for a journal without a
    /// `DagStarted` record.
    pub fn identity(&self) -> Result<&DagIdentity, DagError> {
        self.identity.as_ref().ok_or_else(|| DagError::Resume {
            reason: "journal has no DagStarted record (not a DAG tree)".into(),
        })
    }
}

/// Classifies the result tree at `dir` — a DAG tree when it holds a
/// stored `dag.yml` (written before its journal exists), a campaign tree
/// otherwise ([`campaign_disk_state`]). A DAG tree counts its finished
/// stage nodes as units of progress, and a sealed DAG reports its failed
/// sweep runs in the `failed` slot, so adopters classify degradation the
/// same way for both.
pub fn tree_disk_state(dir: &Path) -> CampaignDiskState {
    if !DagSpec::present_in(dir) {
        return campaign_disk_state(dir);
    }
    match DagJournal::read(dir) {
        Err(e) if is_not_found(&e) => CampaignDiskState::NoJournal,
        Err(e) => CampaignDiskState::Unreadable(e.to_string()),
        Ok(fold) if fold.records == 0 => CampaignDiskState::NoJournal,
        Ok(fold) => match fold.completed {
            Some((succeeded, failed)) => CampaignDiskState::Finished { succeeded, failed },
            None => CampaignDiskState::InProgress {
                runs_completed: fold.finished.len(),
                total_runs: fold.identity.map(|id| id.nodes),
            },
        },
    }
}
