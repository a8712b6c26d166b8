//! # pos-serve
//!
//! `pos serve` — the long-running, crash-surviving, multi-tenant face of
//! the toolchain: the fair-share queue live behind a local HTTP endpoint
//! (`pos queue --queue <dir>` runs the same engine offline), with
//! *every* state transition made durable before it is acknowledged:
//!
//! * [`ledger`] — the write-ahead serve ledger (`ledger.log`, the same
//!   `POSJ1` frame format as the campaign journal). Session start,
//!   submission acceptance, campaign dispatch, campaign completion and
//!   drain start are each fsynced to the ledger *before* the daemon acks
//!   them; a restart replays the ledger through the very same stride
//!   fair-share code and reconstructs the pre-crash queue exactly, down
//!   to who is admitted next.
//! * [`fsck`] — `pos fsck` on a state directory: the ledger, replayed
//!   through the restart path's own [`ledger::rebuild`], against the
//!   result trees it acknowledged.
//! * [`engine`] — the daemon core: token-deduplicated submission, a
//!   single-executor dispatch loop bridging controller progress events
//!   into lock-free counters, in-flight campaign recovery (adopt a tree
//!   the crash finished, resume one it interrupted, wipe one it barely
//!   started), graceful drain, and the 0-vs-3 exit-code verdict.
//! * [`http`] — a dependency-free HTTP/1.1 server (std `TcpListener`)
//!   exposing `/healthz`, `/readyz`, `/status`, `/submit` and `/drain`,
//!   plus the tiny client the CLI uses to talk to a running daemon.
//! * [`signal`] — SIGTERM/SIGINT counting without a libc crate: the
//!   first request starts a preemption-free drain, the second cancels
//!   the in-flight campaign at its next journal boundary (a consistent
//!   checkpoint `pos resume` completes).
//!
//! The crash contract, end to end: kill the daemon at *any* ledger or
//! campaign-journal boundary, restart it, and the eventually-completed
//! result trees are byte-identical to a run that was never interrupted
//! (`tests/serve_restart_matrix.rs` proves this for every boundary).

#![warn(missing_docs)]

pub mod engine;
pub mod fsck;
pub mod http;
pub mod ledger;
pub mod signal;

pub use engine::{
    check_submission, ExitReport, ServeEngine, ServeError, ServeOptions, ServeStatus, ServeTotals,
    StepOutcome, SubmitRequest, SubmitResponse,
};
pub use fsck::{fsck_queue, QueueFsckReport};
pub use http::{http_request, DrainAck, ErrorBody, HttpResponse, HttpServer, SubmitAck};
pub use ledger::{open_ledger, rebuild, FinishedRec, LedgerRecord, RecoveredState, LEDGER_FILE};
