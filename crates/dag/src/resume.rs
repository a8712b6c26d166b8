//! The one resume entry point for a result tree of either kind.
//!
//! [`ResumableDag`] is the DAG counterpart of
//! [`pos_sched::ResumableTree`]: the DAG journal names the seed, testbed
//! flavor and execution target the DAG ran on, and the tree's stored
//! `dag.yml` and `experiment/` are the authoritative specs.
//! [`Resumable::open`] picks the tree kind from the stored `dag.yml`, by
//! the rule [`crate::tree_disk_state`] applies. `pos resume`, `pos dag
//! resume` and the `pos serve` restart path all open trees through it.

use crate::executor::{resume_dag, DagOptions, DagOutcome};
use crate::journal::{DagIdentity, DagJournal};
use crate::spec::DagSpec;
use crate::target::{ExecutionTarget, InProcessTarget, SimBatchTarget};
use crate::DagError;
use pos_core::controller::RunOptions;
use pos_core::experiment::ExperimentSpec;
use pos_sched::ResumableTree;
use std::path::{Path, PathBuf};

/// A DAG result tree opened for resumption.
#[derive(Debug)]
pub struct ResumableDag {
    dir: PathBuf,
    /// The journaled DAG identity.
    pub identity: DagIdentity,
    /// The tree's stored DAG.
    pub dag: DagSpec,
    /// The tree's stored experiment.
    pub spec: ExperimentSpec,
}

impl ResumableDag {
    /// Folds the DAG journal of the tree at `dir` for its identity and
    /// loads the stored `dag.yml` and `experiment/`.
    pub fn open(dir: &Path) -> Result<ResumableDag, DagError> {
        let identity = DagJournal::read(dir)?.identity()?.clone();
        if !matches!(identity.target.as_str(), "in-process" | "sim-batch") {
            return Err(DagError::Resume {
                reason: format!(
                    "journal records unknown execution target `{}`",
                    identity.target
                ),
            });
        }
        Ok(ResumableDag {
            dag: DagSpec::from_dir(dir)?,
            spec: ExperimentSpec::from_dir(&dir.join("experiment"))?,
            dir: dir.to_path_buf(),
            identity,
        })
    }

    /// Rebuilds the execution target from its journaled name, seed and
    /// flavor (which overrides `opts.testbed_flavor`), sized to `lanes`,
    /// and resumes the DAG on `lanes` lanes.
    pub fn resume(&self, opts: &RunOptions, lanes: usize) -> Result<DagOutcome, DagError> {
        let DagIdentity {
            seed,
            testbed,
            target,
            ..
        } = &self.identity;
        let virtualized = testbed == "vpos";
        let mut target: Box<dyn ExecutionTarget> = if target == "sim-batch" {
            Box::new(SimBatchTarget::new(*seed, virtualized, lanes))
        } else {
            Box::new(InProcessTarget::new(*seed, virtualized, lanes))
        };
        let opts = RunOptions {
            testbed_flavor: testbed.clone(),
            ..opts.clone()
        };
        resume_dag(
            &self.dir,
            &opts,
            &DagOptions::new(lanes, *seed),
            target.as_mut(),
        )
    }
}

/// A result tree of either kind, opened for resumption.
#[derive(Debug)]
pub enum Resumable {
    /// A campaign tree.
    Campaign(ResumableTree),
    /// A DAG tree.
    Dag(ResumableDag),
}

impl Resumable {
    /// Opens the tree at `dir`: a DAG tree when it holds a stored
    /// `dag.yml`, a campaign tree otherwise. Campaign errors arrive as
    /// [`DagError::Controller`].
    pub fn open(dir: &Path) -> Result<Resumable, DagError> {
        if DagSpec::present_in(dir) {
            ResumableDag::open(dir).map(Resumable::Dag)
        } else {
            Ok(Resumable::Campaign(ResumableTree::open(dir)?))
        }
    }
}
