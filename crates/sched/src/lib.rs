//! # pos-sched
//!
//! Deterministic parallel campaign scheduling for the pos reproduction.
//!
//! The paper's controller executes a campaign's measurement runs strictly
//! one after another. This crate adds the scheduling layer above it:
//!
//! * [`plan`] — lane planning over the site calendar: one bare-metal
//!   replica host set per lane where the calendar has them free (acquired
//!   as an atomic batch), virtual clone replicas for the rest.
//! * [`scheduler`] — the parallel executor: worker lanes with a
//!   deterministic work-stealing run queue, per-lane journals, and a
//!   merge that leaves the canonical result tree **byte-identical** to a
//!   sequential execution of the same seed (see the determinism argument
//!   in [`scheduler`]'s module docs); plus [`scheduler::resume_parallel`]
//!   for crash recovery across all lane journals.
//! * [`resume`] — the campaign resume entry point: a tree's folded
//!   journals pick the parallel or the sequential resume and the testbed
//!   to rebuild (`pos_dag::Resumable` opens it for campaign trees).
//! * [`supervisor`] — lane supervision: watchdog deadlines, journaled
//!   lane retirement with deterministic reassignment or replacement-lane
//!   replanning, per-run retry ladders on dedicated RNG sub-streams, and
//!   poison-run quarantine with forensic bundles — all without breaking
//!   byte-identity with the sequential execution.
//! * [`queue`] — multi-campaign admission control: a bounded submission
//!   queue with stride-based fair share across users, priority weights,
//!   rejection diagnostics instead of wedging, preemption-free draining,
//!   and per-submission completion outcomes (degraded completions are
//!   recorded, not re-admitted).

#![warn(missing_docs)]

pub mod plan;
pub mod queue;
pub mod resume;
pub mod scheduler;
pub mod supervisor;

pub use plan::{plan_lanes, site_host_sets, LaneAllocation, LaneFlavor, ScatterLease};
pub use queue::{
    CompletedSubmission, CompletionOutcome, QueueError, QueueStatus, Submission, SubmissionQueue,
};
pub use resume::{ResumableTree, Resumed};
pub use scheduler::{resume_parallel, run_parallel, ParallelOptions, ParallelOutcome};
pub use supervisor::{LaneDeath, LaneFaultPlan, LaneRecovery, SupervisorOptions};
