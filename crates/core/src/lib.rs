//! # pos-core
//!
//! The plain orchestrating service — the paper's primary contribution.
//!
//! pos consists of a *methodology* (a mandatory experiment structure that
//! makes experiments reproducible by design) and a *testbed controller*
//! implementing it. This crate is both:
//!
//! * [`vars`] — experiment parameters: typed values, YAML files, `$NAME`
//!   substitution. The script/parameter split is the paper's HTML/CSS
//!   analogy (§4.3).
//! * [`loopvars`] — loop variables and their full cross-product expansion
//!   into measurement runs (§4.4).
//! * [`script`] — experiment scripts: command sequences with named
//!   synchronization barriers.
//! * [`experiment`] — the experiment specification: roles (DuT, LoadGen,
//!   …), per-role setup/measurement scripts, images, variables.
//! * [`controller`] — the three-phase workflow: setup (allocate → boot →
//!   configure), measurement (one queued run per loop-variable
//!   combination, all output captured), and handoff to evaluation; plus
//!   out-of-band recovery of crashed hosts (R3).
//! * [`resultstore`] — the structured on-disk result tree with per-run
//!   metadata "garnished" onto every result (§6).
//! * [`commands`] — experiment-domain commands (`moongen`, `iperf`)
//!   registered into the testbed's command registry.
//! * [`requirements`] — the R1–R5 capability model behind Table 1.
//! * [`hash`] — SHA-256, fingerprinting every artifact the store writes.
//! * [`journal`] — the append-only write-ahead log: one frame format,
//!   generic over the record vocabulary; the campaign records live here,
//!   the DAG and serve-ledger ones with the crates that own them.
//! * [`recovery`] — the one reader of a campaign tree's journals (fold,
//!   identity guard, run verifier) that resume and fsck build on.
//! * [`fsck`] — offline integrity checking of a result tree against its
//!   journal and per-run checksum manifests.
//! * [`vfs`] — the durable-I/O layer all of the above write through,
//!   with deterministic storage-fault injection (ENOSPC, torn writes,
//!   fsync failures, bit rot) as a replayable plan.
//! * [`scrub`](mod@scrub) — bit-rot detection and self-healing repair of result
//!   trees (`pos scrub`).

#![warn(missing_docs)]

pub mod commands;
pub mod controller;
pub mod experiment;
pub mod fsck;
pub mod hash;
pub mod journal;
pub mod loopvars;
mod pool;
pub mod recovery;
pub mod requirements;
pub mod resultstore;
pub mod script;
pub mod scrub;
pub mod vars;
pub mod vfs;

pub use controller::{
    CampaignSetup, CancelToken, Controller, ControllerError, ExperimentOutcome, HostHealth,
    Progress, ProgressCounters, ProgressSnapshot, RunAhead, RunOptions, RunRecord, RunStep,
};
pub use experiment::{ExperimentSpec, RoleSpec};
pub use loopvars::{expand_cross_product, RunParams};
pub use script::{Script, Step};
pub use scrub::{scrub, ScrubReport};
pub use vars::{VarValue, Variables};
pub use vfs::{DiskFault, FaultPlan, Vfs};
