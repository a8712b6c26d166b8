//! The one resume entry point for a result tree of either kind.
//!
//! [`ResumableDag`] is the DAG counterpart of
//! [`pos_sched::ResumableTree`]: the DAG journal names the seed and
//! testbed flavor the DAG ran on, and the tree's stored
//! `dag.yml` and `experiment/` are the authoritative specs.
//! [`Resumable::open`] picks the tree kind by the one rule,
//! [`TreeKind::of`]. `pos resume`, `pos dag
//! resume` and the `pos serve` restart path all open trees through it.

use crate::executor::{resume_dag, DagOptions, DagOutcome};
use crate::journal::{DagIdentity, DagJournal};
use crate::spec::DagSpec;
use crate::target::InProcessTarget;
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
    /// loads the stored `dag.yml` and `experiment/`. A journal naming a
    /// target other than `in-process` or the retired `sim-batch` is
    /// refused; a `sim-batch` tree resumes in-process, since its
    /// artifacts never depended on the target.
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

    /// Resumes the DAG on `lanes` in-process lanes, from its journaled
    /// seed and testbed flavor (which overrides `opts.testbed_flavor`).
    pub fn resume(&self, opts: &RunOptions, lanes: usize) -> Result<DagOutcome, DagError> {
        let DagIdentity { seed, testbed, .. } = &self.identity;
        let mut target = InProcessTarget::new(*seed, testbed == "vpos", lanes);
        let opts = RunOptions {
            testbed_flavor: testbed.clone(),
            ..opts.clone()
        };
        resume_dag(
            &self.dir,
            &opts,
            &DagOptions::new(lanes, *seed),
            &mut target,
        )
    }
}

/// The kind of a result tree, by the one rule every reader of a tree
/// applies: a DAG tree holds a stored `dag.yml`, any other tree is a
/// campaign tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeKind {
    /// A campaign tree (`pos run`).
    Campaign,
    /// A DAG tree (`pos dag run`).
    Dag,
}

impl TreeKind {
    /// The kind of the result tree at `dir`.
    pub fn of(dir: &Path) -> TreeKind {
        if DagSpec::present_in(dir) {
            TreeKind::Dag
        } else {
            TreeKind::Campaign
        }
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
    /// Opens the tree at `dir` by its [`TreeKind`]. Campaign errors
    /// arrive as [`DagError::Controller`].
    pub fn open(dir: &Path) -> Result<Resumable, DagError> {
        match TreeKind::of(dir) {
            TreeKind::Dag => ResumableDag::open(dir).map(Resumable::Dag),
            TreeKind::Campaign => Ok(Resumable::Campaign(ResumableTree::open(dir)?)),
        }
    }
}
