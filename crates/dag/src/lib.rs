//! # pos-dag
//!
//! Experiment DAGs for the pos reproduction.
//!
//! The paper's methodology structures one experiment as setup →
//! measurement → evaluation; this crate generalizes that line into a
//! dependency DAG of typed stage nodes (the shape MACI's "seamless
//! large-scale studies" and GPLMT's declarative workflows argue for):
//!
//! * [`spec`] — the DAG model: [`spec::StageKind::Setup`] /
//!   [`spec::StageKind::Sweep`] / [`spec::StageKind::Gather`] nodes,
//!   dependency edges, and the derived edge kinds — **scatter** edges
//!   fan a sweep stage's parameter cross product across scheduler
//!   lanes, **gather** edges make a stage consume *all* scatter
//!   results of its sweep predecessors.
//! * [`toposort`] — deterministic topological ordering and the
//!   ready-set waves the scheduler dispatches.
//! * [`target`] — the [`target::ExecutionTarget`] trait abstracting
//!   *where* stage work runs: [`target::InProcessTarget`] executes on
//!   the in-process `pos-sched` lanes (leasing bare-metal replica sets
//!   per scatter group on a shared site calendar), and
//!   [`target::SimBatchTarget`] models a remote SLURM-like batch
//!   cluster (job queue, partition width, queue waits) to prove the
//!   seam — both produce byte-identical result trees.
//! * [`executor`] — journaled DAG execution ([`executor::run_dag`] /
//!   [`executor::resume_dag`]): subtree digests per node, and resume that
//!   fast-forwards digest-verified nodes.
//! * [`journal`] — the DAG journal's records ([`DagRecord`]: `DagStarted`
//!   / `NodeStarted` / `GatherSealed` / `NodeFinished` / `DagFinished`,
//!   in `pos_core::journal` frames) and its one reader, [`DagJournal`],
//!   which resume, [`fsck_dag`], [`tree_disk_state`] and the `pos serve`
//!   restart path share.
//! * [`resume`] — the one resume entry point: [`Resumable::open`] picks
//!   a tree's kind from its stored `dag.yml`, and [`ResumableDag`]
//!   resumes a DAG on the identity its journal recorded.
//! * [`fsck`] — `pos fsck` on a DAG tree.
//! * [`viz`] — `pos dag viz`: Graphviz dot and ASCII rendering of the
//!   DAG (and the testbed topology) before execution.
//!
//! ## The determinism contract, extended
//!
//! Each stage's artifact subtree depends only on (seed, stage spec):
//! sweep stages inherit the parallel scheduler's canonical-start
//! pinning, setup/gather stages are pure functions of their inputs. So
//! a DAG executed at any lane count, on either execution target, or
//! interrupted and resumed, merges to a byte-identical result tree
//! (journal files excepted — they *are* the record of how it ran).

#![warn(missing_docs)]

pub mod executor;
pub mod fsck;
pub mod journal;
pub mod resume;
pub mod spec;
pub mod target;
pub mod toposort;
pub mod viz;

pub use executor::{resume_dag, run_dag, DagOptions, DagOutcome, NodeOutcome};
pub use fsck::{fsck_dag, DagFsckReport, NodeFsck, NodeFsckStatus};
pub use journal::{tree_disk_state, DagIdentity, DagJournal, DagRecord, GatherSeal, NodeFinish};
pub use resume::{Resumable, ResumableDag};
pub use spec::{linux_router_dag, DagSpec, EdgeKind, StageKind, StageSpec};
pub use target::{ExecutionTarget, InProcessTarget, SimBatchTarget, SweepRequest, TargetReport};
pub use toposort::{levels, toposort};

use pos_core::controller::ControllerError;
use pos_core::journal::JournalError;
use std::fmt;
use std::io;

/// Everything that can go wrong building or executing an experiment DAG.
#[derive(Debug)]
pub enum DagError {
    /// The DAG has no stages.
    Empty,
    /// Two stages share an id.
    DuplicateStage {
        /// The duplicated stage id.
        id: String,
    },
    /// A stage depends on an id the DAG does not define (itself
    /// included).
    UnknownDependency {
        /// The depending stage.
        stage: String,
        /// The missing dependency.
        dep: String,
    },
    /// The dependency edges contain a cycle.
    Cycle {
        /// Stages on (or downstream of) the cycle, in id order.
        stages: Vec<String>,
    },
    /// A gather stage has no sweep predecessor to consume.
    GatherWithoutSweep {
        /// The offending gather stage.
        stage: String,
    },
    /// A stage's campaign failed in the controller/scheduler.
    Controller(ControllerError),
    /// The DAG journal could not be replayed.
    Journal(JournalError),
    /// Result-tree I/O failed.
    Io(io::Error),
    /// A resume request is inconsistent with the journaled DAG (edited
    /// spec, wrong seed/testbed/target, ...).
    Resume {
        /// Why the resume was refused.
        reason: String,
    },
    /// A gather stage could not evaluate its inputs.
    Eval {
        /// The gather stage.
        stage: String,
        /// What failed.
        reason: String,
    },
}

impl DagError {
    /// True when the error is a *checkpoint*, not a failure: the DAG
    /// journal (and every inner campaign journal) is consistent at its
    /// last appended record and `pos dag resume` completes the DAG.
    /// Covers checkpoints inside a stage's campaign (ENOSPC,
    /// cancellation) and storage-full on the DAG's own journal or
    /// artifact writes — same contract as `pos run` (§7.2).
    pub fn is_checkpoint(&self) -> bool {
        match self {
            DagError::Controller(e) => e.is_checkpoint(),
            DagError::Io(e) => pos_core::vfs::is_storage_full(e),
            DagError::Journal(JournalError::Io(e)) => pos_core::vfs::is_storage_full(e),
            _ => false,
        }
    }
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "DAG has no stages"),
            DagError::DuplicateStage { id } => write!(f, "duplicate stage id `{id}`"),
            DagError::UnknownDependency { stage, dep } => {
                write!(f, "stage `{stage}` depends on unknown stage `{dep}`")
            }
            DagError::Cycle { stages } => {
                write!(f, "dependency cycle through stages: {}", stages.join(", "))
            }
            DagError::GatherWithoutSweep { stage } => {
                write!(f, "gather stage `{stage}` has no sweep predecessor")
            }
            DagError::Controller(e) => write!(f, "{e}"),
            DagError::Journal(e) => write!(f, "{e}"),
            DagError::Io(e) => write!(f, "DAG I/O error: {e}"),
            DagError::Resume { reason } => write!(f, "cannot resume DAG: {reason}"),
            DagError::Eval { stage, reason } => {
                write!(f, "gather stage `{stage}` failed to evaluate: {reason}")
            }
        }
    }
}

impl std::error::Error for DagError {}

impl From<ControllerError> for DagError {
    fn from(e: ControllerError) -> Self {
        DagError::Controller(e)
    }
}

impl From<JournalError> for DagError {
    fn from(e: JournalError) -> Self {
        DagError::Journal(e)
    }
}

impl From<io::Error> for DagError {
    fn from(e: io::Error) -> Self {
        DagError::Io(e)
    }
}
