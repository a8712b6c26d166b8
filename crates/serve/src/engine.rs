//! The daemon core: admission, dispatch, recovery, drain, verdict.
//!
//! One [`ServeEngine`] is the whole daemon state. The HTTP thread calls
//! [`ServeEngine::submit`], [`ServeEngine::status`] and
//! [`ServeEngine::begin_drain`]; the main thread drives
//! [`ServeEngine::run_next`] in a loop. All shared state sits behind one
//! mutex that is held only for queue/ledger transitions — never across a
//! campaign execution — plus lock-free counters for `/status`.
//!
//! ## The journal-before-ack invariant
//!
//! Every transition appends to the [ledger](crate::ledger) *first* and
//! acknowledges *second*. The consequence that makes the restart matrix
//! tractable: at any crash point, the set of acknowledged transitions is
//! exactly the set of durable ledger records. An accepted-but-unlogged
//! submission cannot exist; a dispatched-but-unlogged campaign cannot
//! have touched the result tree.
//!
//! ## In-flight recovery
//!
//! A crash between `CampaignDispatched` and `SubmissionFinished` leaves
//! the submission in flight. On the next [`ServeEngine::run_next`] the
//! engine settles it by looking at the youngest unclaimed result tree
//! (by [`ResultStore::youngest`]) under `<user>/<name>`, where the name
//! is the DAG's for a submission that carries a `dag.yml` and the
//! experiment's otherwise:
//!
//! * no tree → the crash hit before the tree existed: run it fresh;
//! * tree without a journal, or whose journal records no completed run
//!   (or DAG node) → the crash hit before anything a resume would keep
//!   was durable, perhaps before the tree's stored experiment was whole:
//!   wipe the husk and run fresh (keeping the canonical `vt-<time>` path
//!   free, so the re-run lands byte-identically where the uninterrupted
//!   run would have);
//! * tree with an unfinished journal → the `pos resume` entry point,
//!   [`Resumable`], completes it from the last consistent checkpoint on
//!   the identity its journal recorded;
//! * tree whose journal says finished → the crash hit between campaign
//!   completion and the ledger append: adopt the outcome as-is.
//!
//! Campaign and DAG submissions share this one path; only the fresh
//! execution differs (the controller or parallel scheduler for a
//! campaign, the DAG executor for a DAG).
//!
//! A failed ledger append marks the engine dead ([`ServeError::Died`]):
//! the daemon must not keep acknowledging transitions it can no longer
//! make durable.

use crate::ledger::{self, FinishedRec, LedgerRecord};
use pos_core::commands::case_study_testbed;
use pos_core::controller::{
    CancelToken, Controller, ControllerError, ExperimentOutcome, ProgressCounters,
    ProgressSnapshot, RunOptions,
};
use pos_core::experiment::ExperimentSpec;
use pos_core::journal::{CampaignDiskState, Journal, JournalError};
use pos_core::resultstore::ResultStore;
use pos_core::vfs::Vfs;
use pos_dag::{
    run_dag, tree_disk_state, DagError, DagOptions, DagOutcome, DagSpec, InProcessTarget, Resumable,
};
use pos_sched::{
    run_parallel, CompletionOutcome, LaneFlavor, ParallelOptions, QueueError, QueueStatus,
    Submission, SupervisorOptions,
};
use pos_simkernel::SimDuration;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Configuration of one daemon session.
#[derive(Clone)]
pub struct ServeOptions {
    /// Where the ledger (`ledger.log`) lives: the whole queue state,
    /// shared by `pos serve --state <dir>` and `pos queue --queue <dir>`.
    pub state_dir: PathBuf,
    /// Root of the result trees the daemon's campaigns write.
    pub results_root: PathBuf,
    /// Total queue bound ([`QueueError::Full`] beyond it).
    pub capacity: usize,
    /// Per-user pending cap, 0 to disable ([`QueueError::Backlog`]).
    pub user_backlog: usize,
    /// Nominal campaign duration backing deterministic `retry_after`
    /// hints.
    pub nominal_campaign_secs: u64,
    /// Testbed seed for every dispatched campaign.
    pub seed: u64,
    /// Worker lanes per campaign (1 = the sequential controller).
    pub lanes: usize,
    /// Per-campaign watchdog budget as a multiple of the experiment's
    /// planned duration — the lane supervisor's grace notion applied at
    /// the daemon level.
    pub grace_factor: f64,
    /// Durable-I/O layer for ledger appends (fault injection goes
    /// through here).
    pub vfs: Vfs,
    /// Deterministic daemon-death injection: the zero-based n-th ledger
    /// append *of this session* fails, as if the machine died there.
    pub ledger_crash_after: Option<u64>,
    /// With [`Self::ledger_crash_after`], first write half the frame — a
    /// torn write, the honest on-disk artifact of a real crash.
    pub ledger_torn_write: bool,
    /// Deterministic campaign-journal crash injection, armed for the
    /// first campaign this session dispatches (then disarmed).
    pub campaign_crash_after: Option<u64>,
    /// Torn variant of [`Self::campaign_crash_after`].
    pub campaign_torn_write: bool,
}

impl ServeOptions {
    /// Production defaults under the given state and results directories.
    pub fn new(state_dir: impl Into<PathBuf>, results_root: impl Into<PathBuf>) -> ServeOptions {
        ServeOptions {
            state_dir: state_dir.into(),
            results_root: results_root.into(),
            capacity: 64,
            user_backlog: 4,
            nominal_campaign_secs: 600,
            seed: 0x707,
            lanes: 1,
            grace_factor: 8.0,
            vfs: Vfs::real(),
            ledger_crash_after: None,
            ledger_torn_write: false,
            campaign_crash_after: None,
            campaign_torn_write: false,
        }
    }
}

/// Daemon-fatal errors. Everything recoverable (rejections, duplicate
/// submissions, failed campaigns) is a *response*, not an error.
#[derive(Debug)]
pub enum ServeError {
    /// A ledger append failed: the daemon can no longer make transitions
    /// durable and dies at this boundary. Nothing past the failed append
    /// was acknowledged.
    Died {
        /// Which transition was being journaled.
        context: String,
        /// The underlying append failure.
        source: io::Error,
    },
    /// Ledger replay reached an impossible state (corrupt history, or a
    /// mismatch between the ledger and the deterministic scheduler).
    State(String),
    /// Daemon-level I/O outside the ledger (state and results dirs).
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Died { context, source } => write!(
                f,
                "daemon died at a ledger boundary ({context}): {source}; \
                 restart replays the ledger and resumes"
            ),
            ServeError::State(msg) => write!(f, "inconsistent serve state: {msg}"),
            ServeError::Io(e) => write!(f, "serve I/O error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

/// A submission request, as posted to `/submit`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Submitting user; defaults to the experiment spec's own user.
    #[serde(default)]
    pub user: Option<String>,
    /// Path to the experiment directory.
    pub experiment: String,
    /// Stride priority weight; absent (or 0) is normalized to 1.
    #[serde(default)]
    pub priority: u32,
    /// Client idempotency token: a retry of an unacknowledged submission
    /// carries the same token and is deduplicated instead of re-queued,
    /// even when the original already ran to completion.
    #[serde(default)]
    pub token: Option<String>,
}

/// What [`ServeEngine::submit`] answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitResponse {
    /// Queued, durably — the ledger append preceded this ack.
    Accepted {
        /// Allocated submission id.
        id: u64,
    },
    /// The idempotency token matched an earlier submission.
    Duplicate {
        /// Id of the original submission.
        id: u64,
    },
    /// The queue refused it (full, over backlog, or draining).
    Rejected {
        /// Human-readable diagnostic.
        error: String,
        /// Deterministic retry hint, when retrying can help.
        retry_after_secs: Option<u64>,
        /// True when rejected because the daemon is draining.
        closed: bool,
    },
    /// The experiment directory itself is unusable.
    Invalid {
        /// Why the spec was refused.
        reason: String,
    },
}

/// One step of the dispatch loop.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepOutcome {
    /// Nothing to do (empty queue, or draining with nothing in flight).
    Idle,
    /// A campaign ran (or was adopted) to a recorded completion.
    Finished {
        /// The submission that finished.
        id: u64,
        /// Its recorded outcome.
        outcome: CompletionOutcome,
        /// Result tree path (empty when the campaign failed before
        /// creating one).
        result_dir: String,
    },
    /// The in-flight campaign stopped at a consistent checkpoint
    /// (urgent drain, or storage full); it stays in flight in the
    /// ledger, and the next session resumes it.
    Checkpointed {
        /// The checkpointed submission.
        id: u64,
    },
}

/// Lock-free lifetime totals for `/status`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServeTotals {
    /// Submissions durably accepted this session.
    pub accepted: u64,
    /// Retries answered from the token index.
    pub deduped: u64,
    /// Submissions rejected (full, backlog, closed).
    pub rejected: u64,
    /// Campaigns dispatched this session.
    pub dispatched: u64,
    /// Campaigns that completed with every run succeeding.
    pub completed: u64,
    /// Campaigns that completed with failed or quarantined runs.
    pub completed_degraded: u64,
    /// Campaigns that failed without a usable result tree.
    pub failed: u64,
    /// Campaigns checkpointed mid-flight (urgent drain, storage full).
    pub checkpointed: u64,
}

struct TotalCounters {
    accepted: AtomicU64,
    deduped: AtomicU64,
    rejected: AtomicU64,
    dispatched: AtomicU64,
    completed: AtomicU64,
    completed_degraded: AtomicU64,
    failed: AtomicU64,
    checkpointed: AtomicU64,
}

impl TotalCounters {
    fn new() -> TotalCounters {
        TotalCounters {
            accepted: AtomicU64::new(0),
            deduped: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            completed_degraded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            checkpointed: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> ServeTotals {
        ServeTotals {
            accepted: self.accepted.load(Ordering::Relaxed),
            deduped: self.deduped.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            dispatched: self.dispatched.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            completed_degraded: self.completed_degraded.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            checkpointed: self.checkpointed.load(Ordering::Relaxed),
        }
    }
}

/// The `/status` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServeStatus {
    /// True once a drain started (`/readyz` answers 503).
    pub draining: bool,
    /// True while new submissions are accepted.
    pub accepting: bool,
    /// Daemon sessions over the life of this ledger (restarts + 1).
    pub sessions: u64,
    /// Ledger records replayed at startup.
    pub replayed_records: usize,
    /// Live queue snapshot (same shape as `pos queue status`).
    pub queue: QueueStatus,
    /// Submission ids currently in flight.
    pub in_flight: Vec<u64>,
    /// Lifetime totals of this session.
    pub totals: ServeTotals,
    /// Controller progress counters bridged from the running campaigns.
    pub progress: ProgressSnapshot,
}

/// The daemon's exit verdict, computed at shutdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExitReport {
    /// Submissions still pending when the daemon stopped.
    pub pending: usize,
    /// Submissions still in flight (checkpointed) when it stopped.
    pub in_flight: usize,
    /// Session totals.
    pub totals: ServeTotals,
    /// True when nothing was cut short or imperfect: the queue drained
    /// empty and every dispatched campaign completed cleanly.
    pub clean: bool,
}

impl ExitReport {
    /// Process exit code: 0 clean, 3 degraded (the same contract as
    /// `pos run` — "usable but imperfect / work left behind", distinct
    /// from a hard error's 1).
    pub fn exit_code(&self) -> u8 {
        if self.clean {
            0
        } else {
            3
        }
    }
}

struct Control {
    queue: pos_sched::SubmissionQueue,
    ledger: Journal<LedgerRecord>,
    in_flight: Vec<Submission>,
    finished: Vec<FinishedRec>,
    tokens: std::collections::BTreeMap<String, u64>,
}

enum Exec {
    Done {
        outcome: CompletionOutcome,
        result_dir: String,
    },
    Checkpointed,
}

impl Exec {
    /// A failed campaign, recorded against `result_dir` (empty when it
    /// failed before creating a tree).
    fn failed(result_dir: String) -> Exec {
        Exec::Done {
            outcome: CompletionOutcome::Failed,
            result_dir,
        }
    }
}

/// The daemon. Shared between the dispatch loop and the HTTP thread via
/// `Arc`; all methods take `&self`.
pub struct ServeEngine {
    opts: ServeOptions,
    results_root: PathBuf,
    control: Mutex<Control>,
    progress: Arc<ProgressCounters>,
    totals: TotalCounters,
    cancel: CancelToken,
    draining: AtomicBool,
    dead: AtomicBool,
    campaign_crash: Mutex<Option<(Option<u64>, bool)>>,
    sessions: u64,
    replayed_records: usize,
}

impl ServeEngine {
    /// Opens (or creates) the state directory, replays the ledger,
    /// applies this session's queue bounds, journals its `ServeStarted`
    /// and returns the ready engine. In-flight submissions recovered
    /// from the ledger are settled lazily by [`Self::run_next`], through
    /// the same code path a crash during recovery would re-enter.
    ///
    /// The results root binds at the first `CampaignDispatched`: before
    /// it no tree exists under the recorded root, so a session may move
    /// it; after it, a different root is refused.
    pub fn start(opts: ServeOptions) -> Result<ServeEngine, ServeError> {
        std::fs::create_dir_all(&opts.state_dir)?;
        std::fs::create_dir_all(&opts.results_root)?;
        let results_root = opts.results_root.canonicalize()?;
        let (mut journal, replay) = ledger::open_ledger(&opts.state_dir, opts.vfs.clone())?;
        let recovered = ledger::rebuild(&replay)?;
        let dispatched = !recovered.in_flight.is_empty() || !recovered.finished.is_empty();
        if let Some(prev) = &recovered.results_root {
            if dispatched && Path::new(prev) != results_root.as_path() {
                return Err(ServeError::State(format!(
                    "ledger was written for results root {prev}, this session \
                     was started with {}; pass the original --results",
                    results_root.display()
                )));
            }
        }
        let mut queue = recovered.queue;
        queue.set_capacity(opts.capacity);
        queue.set_user_backlog(opts.user_backlog);
        queue.set_nominal_campaign_secs(opts.nominal_campaign_secs);
        // Arm daemon-death injection before the first append of this
        // session, so boundary 0 is the ServeStarted record itself.
        journal.arm_crash(opts.ledger_crash_after, opts.ledger_torn_write);
        let campaign_crash = opts
            .campaign_crash_after
            .map(|after| (Some(after), opts.campaign_torn_write));
        let engine = ServeEngine {
            results_root: results_root.clone(),
            control: Mutex::new(Control {
                queue,
                ledger: journal,
                in_flight: recovered.in_flight,
                finished: recovered.finished,
                tokens: recovered.tokens,
            }),
            progress: Arc::new(ProgressCounters::new()),
            totals: TotalCounters::new(),
            cancel: CancelToken::new(),
            draining: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            campaign_crash: Mutex::new(campaign_crash),
            sessions: recovered.sessions + 1,
            replayed_records: recovered.records,
            opts,
        };
        {
            let mut c = engine.lock();
            let rec = LedgerRecord::ServeStarted {
                results_root: results_root.display().to_string(),
                capacity: engine.opts.capacity,
                user_backlog: engine.opts.user_backlog,
                seed: engine.opts.seed,
            };
            engine.append(&mut c, &rec)?;
        }
        Ok(engine)
    }

    fn lock(&self) -> MutexGuard<'_, Control> {
        self.control
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Appends one ledger record; failure marks the daemon dead.
    fn append(&self, c: &mut Control, rec: &LedgerRecord) -> Result<(), ServeError> {
        c.ledger.append(rec).map_err(|e| {
            self.dead.store(true, Ordering::SeqCst);
            ServeError::Died {
                context: describe(rec),
                source: e,
            }
        })
    }

    /// True once a ledger append failed; every further transition is
    /// refused.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// True once a drain started. Never reset: a daemon drains once.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// True while `/submit` can still succeed.
    pub fn is_accepting(&self) -> bool {
        !self.is_draining() && !self.is_dead()
    }

    fn refuse_if_dead(&self) -> Result<(), ServeError> {
        if self.is_dead() {
            return Err(ServeError::State(
                "daemon already died at a ledger boundary; restart to recover".into(),
            ));
        }
        Ok(())
    }

    /// Accepts (or deduplicates, or rejects) one submission. The ledger
    /// append precedes the `Accepted` ack; rejections and duplicates
    /// journal nothing, because they change no state.
    pub fn submit(&self, req: &SubmitRequest) -> Result<SubmitResponse, ServeError> {
        self.refuse_if_dead()?;
        let spec = match ExperimentSpec::from_dir(Path::new(&req.experiment)) {
            Ok(spec) => spec,
            Err(e) => {
                return Ok(SubmitResponse::Invalid {
                    reason: format!("cannot load experiment from {}: {e}", req.experiment),
                })
            }
        };
        if let Err(e) = spec.validate() {
            return Ok(SubmitResponse::Invalid {
                reason: e.to_string(),
            });
        }
        let user = req.user.clone().unwrap_or_else(|| spec.user.clone());
        let priority = req.priority.max(1);
        let mut c = self.lock();
        if let Some(token) = &req.token {
            if let Some(&id) = c.tokens.get(token) {
                self.totals.deduped.fetch_add(1, Ordering::Relaxed);
                return Ok(SubmitResponse::Duplicate { id });
            }
        }
        let id = match c.queue.submit_with_token(
            user.clone(),
            req.experiment.clone(),
            priority,
            req.token.clone(),
        ) {
            Ok(id) => id,
            Err(e) => {
                self.totals.rejected.fetch_add(1, Ordering::Relaxed);
                return Ok(SubmitResponse::Rejected {
                    retry_after_secs: e.retry_after_secs(),
                    closed: matches!(e, QueueError::Closed),
                    error: e.to_string(),
                });
            }
        };
        let rec = LedgerRecord::SubmissionAccepted {
            id,
            user,
            experiment: req.experiment.clone(),
            priority,
            token: req.token.clone(),
        };
        self.append(&mut c, &rec)?;
        if let Some(token) = &req.token {
            c.tokens.insert(token.clone(), id);
        }
        self.totals.accepted.fetch_add(1, Ordering::Relaxed);
        Ok(SubmitResponse::Accepted { id })
    }

    /// Runs one dispatch step: settle a recovered in-flight submission
    /// if any, otherwise admit and run the next queued campaign. The
    /// control mutex is *not* held while the campaign executes.
    pub fn run_next(&self) -> Result<StepOutcome, ServeError> {
        self.refuse_if_dead()?;
        let (sub, recovered, referenced) = {
            let mut c = self.lock();
            if let Some(sub) = c.in_flight.first().cloned() {
                (sub, true, referenced_dirs(&c.finished))
            } else if self.is_draining() {
                return Ok(StepOutcome::Idle);
            } else if let Some(sub) = c.queue.admit() {
                self.append(&mut c, &LedgerRecord::CampaignDispatched { id: sub.id })?;
                c.in_flight.push(sub.clone());
                self.totals.dispatched.fetch_add(1, Ordering::Relaxed);
                (sub, false, referenced_dirs(&c.finished))
            } else {
                return Ok(StepOutcome::Idle);
            }
        };
        match self.execute(&sub, recovered, &referenced)? {
            Exec::Done {
                outcome,
                result_dir,
            } => {
                let mut c = self.lock();
                self.append(
                    &mut c,
                    &LedgerRecord::SubmissionFinished {
                        id: sub.id,
                        outcome: outcome.to_string(),
                        result_dir: result_dir.clone(),
                    },
                )?;
                c.queue.record_outcome(sub.clone(), outcome);
                c.in_flight.retain(|s| s.id != sub.id);
                c.finished.push(FinishedRec {
                    submission: sub.clone(),
                    outcome,
                    result_dir: result_dir.clone(),
                });
                match outcome {
                    CompletionOutcome::Completed => {
                        self.totals.completed.fetch_add(1, Ordering::Relaxed)
                    }
                    CompletionOutcome::CompletedDegraded => self
                        .totals
                        .completed_degraded
                        .fetch_add(1, Ordering::Relaxed),
                    CompletionOutcome::Failed => self.totals.failed.fetch_add(1, Ordering::Relaxed),
                };
                Ok(StepOutcome::Finished {
                    id: sub.id,
                    outcome,
                    result_dir,
                })
            }
            Exec::Checkpointed => {
                // The submission stays in flight — in memory and in the
                // ledger — so the next session resumes it from the
                // checkpoint. Nothing to append: nothing completed.
                self.totals.checkpointed.fetch_add(1, Ordering::Relaxed);
                Ok(StepOutcome::Checkpointed { id: sub.id })
            }
        }
    }

    /// Executes (or settles) one submission, without holding the
    /// control lock. A submission whose experiment dir carries a
    /// `dag.yml` is a DAG campaign: same ledger, same settlement, but
    /// its tree is a DAG tree named after the DAG.
    fn execute(
        &self,
        sub: &Submission,
        recovered: bool,
        referenced: &BTreeSet<PathBuf>,
    ) -> Result<Exec, ServeError> {
        let (spec, dag) = match load_submission(Path::new(&sub.experiment)) {
            Ok(loaded) => loaded,
            Err(reason) => {
                eprintln!("pos-serve: #{}: {reason}", sub.id);
                return Ok(Exec::failed(String::new()));
            }
        };
        if recovered {
            let name = dag.as_ref().map_or(&spec.name, |dag| &dag.name);
            let base = self.results_root.join(&spec.user).join(name);
            if let Some(exec) = self.settle(sub, &base, referenced)? {
                return Ok(exec);
            }
        }
        match &dag {
            Some(dag) => self.fresh_dag_run(&spec, dag),
            None => self.fresh_run(&spec),
        }
    }

    /// Takes the armed campaign crash injection, if any: it fires in the
    /// first campaign this session dispatches.
    fn take_crash(&self) -> Option<(Option<u64>, bool)> {
        self.campaign_crash
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
    }

    fn fresh_dag_run(&self, spec: &ExperimentSpec, dag: &DagSpec) -> Result<Exec, ServeError> {
        let opts = self.run_options(&self.results_root, spec);
        let injected = self.take_crash();
        let lanes = self.opts.lanes.max(1);
        let mut dopts = DagOptions::new(lanes, self.opts.seed);
        if let Some((after, torn)) = injected {
            // The armed "machine death" hits the DAG's own journal —
            // the outermost write-ahead layer of a DAG campaign.
            dopts.dag_crash_after = after;
            dopts.dag_torn_write = torn;
        }
        let mut target = InProcessTarget::new(self.opts.seed, false, lanes);
        let res = run_dag(dag, spec, &opts, &dopts, &mut target);
        self.classify(res.map(|out| dag_done(&out)), injected.is_some())
    }

    /// Settles a recovered in-flight submission against the youngest
    /// result tree under `base` (`<root>/<user>/<name>`) not yet claimed
    /// by a finished submission — the only tree it can have been writing.
    /// A sealed tree is adopted, an unfinished one resumed, a husk with
    /// no completed run wiped. `None` means there is nothing to settle:
    /// run the submission fresh.
    fn settle(
        &self,
        sub: &Submission,
        base: &Path,
        referenced: &BTreeSet<PathBuf>,
    ) -> Result<Option<Exec>, ServeError> {
        let unclaimed = std::fs::read_dir(base)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir() && !referenced.contains(p));
        let Some(dir) = ResultStore::youngest(unclaimed) else {
            return Ok(None);
        };
        let result_dir = dir.display().to_string();
        match tree_disk_state(&dir) {
            CampaignDiskState::Finished { failed, .. } => {
                // Crash after campaign completion, before the ledger
                // append: the tree is done and sealed — adopt it.
                Ok(Some(done(failed == 0, &dir)))
            }
            CampaignDiskState::NoJournal
            | CampaignDiskState::InProgress {
                runs_completed: 0, ..
            } => {
                // A husk with no completed run holds nothing a resume
                // would keep, and a kill right after the journal's first
                // record can leave its stored experiment partial. Wipe
                // it so the fresh run recreates the canonical vt-<time>
                // path instead of a `-1` collision sibling.
                std::fs::remove_dir_all(&dir)?;
                Ok(None)
            }
            CampaignDiskState::InProgress { .. } => self.resume(&dir).map(Some),
            CampaignDiskState::Unreadable(reason) => {
                eprintln!(
                    "pos-serve: #{}: result tree {result_dir} unreadable: {reason}",
                    sub.id
                );
                Ok(Some(Exec::failed(result_dir)))
            }
        }
    }

    /// Run options every daemon campaign shares: keep going past failed
    /// runs (a tenant's broken script must not wedge the daemon), carry
    /// the drain cancel token, and clamp the command watchdog to the
    /// campaign's grace budget (`grace_factor ×` the spec's planned
    /// duration) when that is tighter than the stock timeout.
    fn run_options(&self, root: &Path, spec: &ExperimentSpec) -> RunOptions {
        let mut opts = RunOptions::new(root);
        opts.testbed_flavor = "pos".into();
        opts.continue_on_run_failure = true;
        opts.cancel = self.cancel.clone();
        opts.vfs = self.opts.vfs.clone();
        let grace =
            SimDuration::from_secs_f64(self.opts.grace_factor * spec.planned_duration_secs as f64);
        if grace > SimDuration::ZERO {
            opts.command_timeout = Some(opts.command_timeout.map_or(grace, |t| t.min(grace)));
        }
        opts
    }

    fn fresh_run(&self, spec: &ExperimentSpec) -> Result<Exec, ServeError> {
        let mut opts = self.run_options(&self.results_root, spec);
        let injected = self.take_crash();
        if let Some((after, torn)) = injected {
            opts.journal_crash_after = after;
            opts.journal_torn_write = torn;
        }
        let seed = self.opts.seed;
        let res = if self.opts.lanes > 1 {
            let popts = ParallelOptions {
                lanes: self.opts.lanes,
                site_replicas: self.opts.lanes,
                supervisor: SupervisorOptions {
                    grace_factor: self.opts.grace_factor,
                    ..SupervisorOptions::default()
                },
            };
            run_parallel(spec, &opts, &popts, &mut |_, flavor| {
                case_study_testbed(spec, seed, flavor == LaneFlavor::Virtual, true)
            })
            .map(|out| out.outcome)
        } else {
            let tb = match case_study_testbed(spec, seed, false, false) {
                Ok(tb) => tb,
                Err(e) => {
                    eprintln!("pos-serve: testbed construction failed: {e}");
                    return Ok(Exec::failed(String::new()));
                }
            };
            let counters = self.progress.clone();
            Controller::owning(tb)
                .with_progress(move |p| counters.observe(p))
                .run_experiment(spec, &opts)
        };
        self.classify(
            res.map(|out| campaign_done(&out)).map_err(DagError::from),
            injected.is_some(),
        )
    }

    /// Completes an interrupted tree of either kind through the one
    /// resume entry point, [`Resumable`], on the identity its journal
    /// recorded. A tree that cannot be opened or rebuilt is recorded as
    /// failed in place.
    fn resume(&self, dir: &Path) -> Result<Exec, ServeError> {
        let failed = |msg: &dyn fmt::Display| {
            eprintln!("pos-serve: cannot resume {}: {msg}", dir.display());
            Ok(Exec::failed(dir.display().to_string()))
        };
        let res = match Resumable::open(dir) {
            Err(e) => return failed(&e),
            Ok(Resumable::Campaign(tree)) => {
                // The tree's own stored spec is the authoritative one.
                let spec = match tree.load_spec() {
                    Ok(spec) => spec,
                    Err(e) => return failed(&format!("stored experiment unloadable: {e}")),
                };
                let counters = self.progress.clone();
                let opts = self.run_options(dir, &spec);
                match tree.resume(&spec, &opts, move |p| counters.observe(p)) {
                    Err(e @ ControllerError::Topology { .. }) => return failed(&e),
                    res => res
                        .map(|r| campaign_done(&r.into_outcome()))
                        .map_err(DagError::from),
                }
            }
            Ok(Resumable::Dag(tree)) => {
                let opts = self.run_options(dir, &tree.spec);
                tree.resume(&opts, self.opts.lanes.max(1))
                    .map(|out| dag_done(&out))
            }
        };
        self.classify(res, false)
    }

    /// Folds an execution result into the daemon's vocabulary: a
    /// completion, a consistent checkpoint, an injected daemon death, or
    /// a plain failed campaign (which the daemon records and outlives).
    /// Campaign errors arrive as [`DagError::Controller`].
    fn classify(
        &self,
        res: Result<Exec, DagError>,
        injection_armed: bool,
    ) -> Result<Exec, ServeError> {
        match res {
            Ok(exec) => Ok(exec),
            Err(e) if e.is_checkpoint() => Ok(Exec::Checkpointed),
            Err(e) if injection_armed && is_injected_death(&e) => {
                // The armed journal crash fired: the "machine" died
                // mid-campaign. Propagate as daemon death — the restart
                // matrix restarts from here.
                self.dead.store(true, Ordering::SeqCst);
                Err(ServeError::Died {
                    context: "journal append".into(),
                    source: io::Error::new(io::ErrorKind::Interrupted, e.to_string()),
                })
            }
            Err(e) => {
                eprintln!("pos-serve: campaign failed: {e}");
                Ok(Exec::failed(String::new()))
            }
        }
    }

    /// Starts the preemption-free drain: close the queue (submissions →
    /// 503), journal `DrainStarted`, finish what is in flight, keep the
    /// rest pending in the ledger for a later session. Idempotent.
    /// Returns the pending count left behind.
    pub fn begin_drain(&self) -> Result<usize, ServeError> {
        self.refuse_if_dead()?;
        let mut c = self.lock();
        if !self.draining.swap(true, Ordering::SeqCst) {
            c.queue.close();
            let pending = c.queue.len();
            self.append(&mut c, &LedgerRecord::DrainStarted { pending })?;
            return Ok(pending);
        }
        Ok(c.queue.len())
    }

    /// Escalates the drain: the in-flight campaign stops at its next
    /// journal boundary (a consistent checkpoint a later session
    /// resumes).
    pub fn cancel_in_flight(&self) {
        self.cancel.cancel();
    }

    /// Point-in-time `/status` snapshot.
    pub fn status(&self) -> ServeStatus {
        let c = self.lock();
        ServeStatus {
            draining: self.is_draining(),
            accepting: self.is_accepting(),
            sessions: self.sessions,
            replayed_records: self.replayed_records,
            queue: c.queue.status(),
            in_flight: c.in_flight.iter().map(|s| s.id).collect(),
            totals: self.totals.snapshot(),
            progress: self.progress.snapshot(),
        }
    }

    /// Exit verdict. `clean` (exit 0) iff nothing was cut short or
    /// imperfect: no pending or in-flight submissions left behind, and no
    /// failed, degraded, or checkpointed campaigns this session.
    pub fn shutdown(&self) -> Result<ExitReport, ServeError> {
        let c = self.lock();
        let totals = self.totals.snapshot();
        let pending = c.queue.len();
        let in_flight = c.in_flight.len();
        let clean = pending == 0
            && in_flight == 0
            && totals.failed == 0
            && totals.completed_degraded == 0
            && totals.checkpointed == 0;
        Ok(ExitReport {
            pending,
            in_flight,
            totals,
            clean,
        })
    }

    /// Drives the daemon until drained: each iteration polls
    /// `termination_requests` (one request → drain, two → also cancel
    /// the in-flight campaign), runs one dispatch step, and sleeps
    /// `idle_wait` when idle. Returns the exit verdict.
    pub fn run_loop(
        &self,
        mut termination_requests: impl FnMut() -> u32,
        idle_wait: Duration,
    ) -> Result<ExitReport, ServeError> {
        let mut canceled = false;
        loop {
            let requests = termination_requests();
            if requests >= 1 {
                self.begin_drain()?;
            }
            if requests >= 2 && !canceled {
                self.cancel_in_flight();
                canceled = true;
            }
            match self.run_next()? {
                StepOutcome::Idle => {
                    if self.is_draining() {
                        break;
                    }
                    std::thread::sleep(idle_wait);
                }
                StepOutcome::Finished { .. } => {}
                StepOutcome::Checkpointed { .. } => {
                    // A checkpointed campaign stays in flight for the
                    // *next* session; retrying it now would just hit the
                    // same cancel/ENOSPC condition in a tight loop. Stop
                    // here — the exit report says what is left.
                    break;
                }
            }
        }
        self.shutdown()
    }
}

/// Result-tree paths already claimed by finished submissions; a
/// recovered in-flight campaign must not adopt one of these.
fn referenced_dirs(finished: &[FinishedRec]) -> BTreeSet<PathBuf> {
    finished
        .iter()
        .filter(|f| !f.result_dir.is_empty())
        .map(|f| PathBuf::from(&f.result_dir))
        .collect()
}

/// Loads and validates a submission's experiment, and its DAG when the
/// directory carries a `dag.yml`.
fn load_submission(dir: &Path) -> Result<(ExperimentSpec, Option<DagSpec>), String> {
    let spec = ExperimentSpec::from_dir(dir)
        .map_err(|e| format!("cannot load experiment from {}: {e}", dir.display()))?;
    spec.validate()
        .map_err(|e| format!("invalid experiment: {e}"))?;
    if !DagSpec::present_in(dir) {
        return Ok((spec, None));
    }
    let dag = DagSpec::from_dir(dir)
        .map_err(|e| format!("cannot load DAG from {}: {e}", dir.display()))?;
    dag.validate().map_err(|e| format!("invalid DAG: {e}"))?;
    Ok((spec, Some(dag)))
}

/// A completed execution whose tree is `dir`: clean, or degraded.
fn done(clean: bool, dir: &Path) -> Exec {
    Exec::Done {
        outcome: if clean {
            CompletionOutcome::Completed
        } else {
            CompletionOutcome::CompletedDegraded
        },
        result_dir: dir.display().to_string(),
    }
}

fn campaign_done(out: &ExperimentOutcome) -> Exec {
    let clean = out.failed_runs.is_empty() && out.quarantined_runs.is_empty();
    done(clean, &out.result_dir)
}

fn dag_done(out: &DagOutcome) -> Exec {
    done(out.failed_runs == 0, &out.dag_dir)
}

/// True for the error an *armed* journal crash injection raises
/// ([`io::ErrorKind::Interrupted`], which nothing in the simulated
/// testbed produces organically) — on the DAG journal itself or inside a
/// campaign's journal.
fn is_injected_death(e: &DagError) -> bool {
    let err = match e {
        DagError::Io(err)
        | DagError::Journal(JournalError::Io(err))
        | DagError::Controller(ControllerError::Io(err))
        | DagError::Controller(ControllerError::Journal(JournalError::Io(err))) => err,
        _ => return false,
    };
    err.kind() == io::ErrorKind::Interrupted
}

/// Short label of a ledger record for death diagnostics.
fn describe(rec: &LedgerRecord) -> String {
    match rec {
        LedgerRecord::ServeStarted { .. } => "session start".into(),
        LedgerRecord::SubmissionAccepted { id, .. } => format!("accepting submission #{id}"),
        LedgerRecord::CampaignDispatched { id } => format!("dispatching submission #{id}"),
        LedgerRecord::SubmissionFinished { id, .. } => format!("finishing submission #{id}"),
        LedgerRecord::DrainStarted { .. } => "drain start".into(),
    }
}
