//! The pos experiment controller: the §4.4 workflow.
//!
//! ```text
//! setup phase        allocate → load variables → set images/boot params →
//!                    reboot (out of band) → deploy tools → setup scripts
//! measurement phase  for every loop-variable combination (queued one
//!                    after another): measurement scripts, output captured
//! evaluation phase   handled by pos-eval on the written result tree
//! ```
//!
//! Concurrency model: all experiment hosts execute their script segments
//! *in parallel* between named barriers. The controller replays each
//! host's segment in its own time lane (see [`Testbed::set_now`]) and
//! completes the barrier at the latest lane end.
//!
//! Recovery (R3): a host that stops answering in-band is re-initialized
//! out of band (reset, or power-cycle for plugs), its live image rebooted,
//! tools redeployed, and its setup script re-run; the interrupted
//! measurement run is then retried from scratch.
//!
//! Hardening: every in-band command runs under a watchdog
//! ([`RunOptions::command_timeout`]), every out-of-band retry waits out a
//! deterministic exponential backoff, and every host moves through an
//! explicit health state machine ([`HostHealth`]) — a host whose recovery
//! keeps failing is *quarantined* and, with
//! [`RunOptions::continue_on_run_failure`], the sweep degrades gracefully
//! instead of aborting: affected runs are recorded as structured failures
//! and the rest of the cross product still executes. Chaos campaigns
//! ([`pos_netsim::ChaosPlan`]) exercise all of this deterministically via
//! [`Controller::apply_chaos`].

use crate::experiment::{ExperimentSpec, SpecError};
use crate::journal::{Journal, JournalError, JournalRecord, JOURNAL_FILE};
use crate::loopvars::{cross_product_size, expand_cross_product, RunParams};
use crate::recovery::CampaignJournals;
use crate::resultstore::{run_metadata, ResultStore};
use crate::script::Step;
use crate::vars::Variables;
use crate::vfs::Vfs;
use pos_netsim::{ChaosEvent, ChaosPlan};
use pos_simkernel::{Backoff, SimDuration, SimTime, TraceLevel};
use pos_testbed::{CommandResult, ExecError, HostFile, PowerError, Testbed};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared cancellation flag checked at run boundaries.
///
/// `pos serve` hands one of these to every campaign it dispatches; when
/// a drain turns urgent (second SIGTERM) the daemon trips the token and
/// the controller checkpoints at the next journal boundary instead of
/// finishing the campaign — the same consistent-prefix contract as an
/// ENOSPC checkpoint, so `pos resume` completes the campaign later.
/// Cloning shares the flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Trips the token; every campaign holding a clone checkpoints at
    /// its next run boundary.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether the token has been tripped.
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Options for one experiment execution.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Root of the result tree (`/srv/testbed/results` in the paper).
    pub result_root: PathBuf,
    /// Retries per measurement run after a failure or crash.
    pub max_run_retries: u32,
    /// Retries for flaky out-of-band management commands.
    pub max_power_retries: u32,
    /// Keep going and record failed runs instead of aborting.
    pub continue_on_run_failure: bool,
    /// Refuse to start if the cross product exceeds this many runs.
    pub max_runs: usize,
    /// Execute the whole cross product this many times (≥ 1). Repetitions
    /// appear as a synthetic `repetition` loop variable in run metadata,
    /// so the evaluation can aggregate across them (mean ± CI).
    pub repetitions: u32,
    /// Watchdog budget per in-band command; a command that hangs (or runs)
    /// longer is killed and handled like a crashed host. `None` disables
    /// the watchdog.
    pub command_timeout: Option<SimDuration>,
    /// First delay of the exponential retry backoff.
    pub backoff_base: SimDuration,
    /// Upper bound of the exponential retry backoff.
    pub backoff_cap: SimDuration,
    /// Deterministic crash injection for the crash-consistency harness:
    /// the journal append with this zero-based sequence number fails with
    /// an I/O error, aborting the campaign exactly at that record
    /// boundary. `None` disables injection. Like the chaos plans, the
    /// fault is data — the same knob reproduces the same interruption.
    pub journal_crash_after: Option<u64>,
    /// With [`Self::journal_crash_after`] set, the failing append first
    /// writes half of its frame — a *torn write*, the on-disk artifact of
    /// a machine crash mid-`write(2)` rather than a clean process kill.
    pub journal_torn_write: bool,
    /// Testbed flavor label journaled in `CampaignStarted` (`"pos"` or
    /// `"vpos"`). A resume refuses a flavor mismatch: the flavors boot
    /// differently, so the wrong one cannot replay the recorded timeline.
    pub testbed_flavor: String,
    /// The durable-I/O layer every journal append and result-store write
    /// of the campaign goes through. [`Vfs::real`] by default; a
    /// [`Vfs::faulty`] handle turns disk failures (ENOSPC, torn writes,
    /// failing fsyncs) into deterministic, replayable inputs.
    pub vfs: Vfs,
    /// Cooperative cancellation, checked before each run executes. When
    /// tripped, the campaign stops at the current journal boundary with
    /// [`ControllerError::Canceled`] — a checkpoint, not a failure: the
    /// journaled prefix is consistent and resume completes the campaign.
    pub cancel: CancelToken,
}

impl RunOptions {
    /// Defaults rooted at the given directory.
    pub fn new(result_root: impl Into<PathBuf>) -> RunOptions {
        RunOptions {
            result_root: result_root.into(),
            max_run_retries: 2,
            max_power_retries: 5,
            continue_on_run_failure: false,
            max_runs: crate::loopvars::RUN_COUNT_WARNING_THRESHOLD,
            repetitions: 1,
            // An hour of virtual time: far beyond any sane command in the
            // case study, so only genuine hangs trip it.
            command_timeout: Some(SimDuration::from_hours(1)),
            backoff_base: SimDuration::from_millis(500),
            backoff_cap: SimDuration::from_secs(64),
            journal_crash_after: None,
            journal_torn_write: false,
            testbed_flavor: "pos".into(),
            vfs: Vfs::real(),
            cancel: CancelToken::new(),
        }
    }
}

/// Progress callback events (the paper's progress bar).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Progress {
    /// A host finished booting.
    HostReady {
        /// The booted host.
        host: String,
    },
    /// The setup phase completed.
    SetupDone,
    /// A measurement run finished.
    RunDone {
        /// Zero-based index.
        index: usize,
        /// Total number of runs.
        total: usize,
        /// Whether the run succeeded.
        success: bool,
        /// The run's result directory — complete at this point, so an
        /// asynchronous evaluation (§4.4: "either after all runs have been
        /// completed or asynchronously during their runtime") can process
        /// it while the next run executes.
        dir: PathBuf,
    },
    /// Resume verified a run completed by an earlier session (artifacts
    /// match their journaled digest) and skipped re-executing it.
    RunSkipped {
        /// Zero-based index.
        index: usize,
        /// Total number of runs.
        total: usize,
    },
    /// A flaky out-of-band power command is being retried after a backoff.
    PowerRetry {
        /// The host being power-managed.
        host: String,
        /// Retry number (1-based).
        attempt: u32,
        /// Backoff delay waited before this retry.
        delay: SimDuration,
    },
    /// A failed measurement attempt is being retried after a backoff.
    RunRetry {
        /// The run's zero-based index.
        index: usize,
        /// The attempt that just failed (1-based).
        attempt: u32,
        /// Backoff delay waited before the next attempt.
        delay: SimDuration,
    },
    /// A host stopped responding and out-of-band recovery started.
    HostRecovering {
        /// The suspect host.
        host: String,
    },
    /// A host completed recovery (rebooted, tools redeployed, setup re-run).
    HostRecovered {
        /// The recovered host.
        host: String,
    },
    /// A host's recovery failed beyond the retry budget; it is out of the
    /// experiment and every run depending on it fails fast.
    HostQuarantined {
        /// The quarantined host.
        host: String,
    },
}

/// Lock-free accumulator bridging [`Progress`] events into counters a
/// concurrent observer can snapshot.
///
/// The controller's progress callback runs on the campaign's thread; a
/// daemon serving `GET /status` must read progress from another thread
/// without stalling the campaign. The bridge: hand the campaign a
/// closure over an `Arc<ProgressCounters>` that calls [`observe`], and
/// let the status endpoint call [`snapshot`] whenever it likes — every
/// field is a relaxed atomic, so neither side blocks the other.
///
/// [`observe`]: ProgressCounters::observe
/// [`snapshot`]: ProgressCounters::snapshot
#[derive(Debug, Default)]
pub struct ProgressCounters {
    hosts_ready: AtomicU64,
    setups_done: AtomicU64,
    runs_done: AtomicU64,
    runs_failed: AtomicU64,
    runs_skipped: AtomicU64,
    power_retries: AtomicU64,
    run_retries: AtomicU64,
    recoveries_started: AtomicU64,
    recoveries_completed: AtomicU64,
    hosts_quarantined: AtomicU64,
}

/// One coherent-enough reading of a [`ProgressCounters`] accumulator.
///
/// Serializable so a daemon can embed it verbatim in a status response.
#[derive(Debug, Clone, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ProgressSnapshot {
    /// Hosts that finished booting.
    pub hosts_ready: u64,
    /// Setup phases completed.
    pub setups_done: u64,
    /// Measurement runs finished (success or failure).
    pub runs_done: u64,
    /// Measurement runs that finished failed.
    pub runs_failed: u64,
    /// Resume-verified runs skipped without re-execution.
    pub runs_skipped: u64,
    /// Out-of-band power command retries.
    pub power_retries: u64,
    /// Failed measurement attempts retried after a backoff.
    pub run_retries: u64,
    /// Host recoveries started.
    pub recoveries_started: u64,
    /// Host recoveries completed.
    pub recoveries_completed: u64,
    /// Hosts quarantined past their recovery budget.
    pub hosts_quarantined: u64,
}

impl ProgressCounters {
    /// A zeroed accumulator.
    pub fn new() -> ProgressCounters {
        ProgressCounters::default()
    }

    /// Folds one progress event into the counters.
    pub fn observe(&self, event: &Progress) {
        let bump = |c: &AtomicU64| {
            c.fetch_add(1, Ordering::Relaxed);
        };
        match event {
            Progress::HostReady { .. } => bump(&self.hosts_ready),
            Progress::SetupDone => bump(&self.setups_done),
            Progress::RunDone { success, .. } => {
                bump(&self.runs_done);
                if !success {
                    bump(&self.runs_failed);
                }
            }
            Progress::RunSkipped { .. } => bump(&self.runs_skipped),
            Progress::PowerRetry { .. } => bump(&self.power_retries),
            Progress::RunRetry { .. } => bump(&self.run_retries),
            Progress::HostRecovering { .. } => bump(&self.recoveries_started),
            Progress::HostRecovered { .. } => bump(&self.recoveries_completed),
            Progress::HostQuarantined { .. } => bump(&self.hosts_quarantined),
        }
    }

    /// Reads every counter (relaxed — counters may be mid-update, but
    /// each value is a real count that was current at some instant).
    pub fn snapshot(&self) -> ProgressSnapshot {
        let read = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ProgressSnapshot {
            hosts_ready: read(&self.hosts_ready),
            setups_done: read(&self.setups_done),
            runs_done: read(&self.runs_done),
            runs_failed: read(&self.runs_failed),
            runs_skipped: read(&self.runs_skipped),
            power_retries: read(&self.power_retries),
            run_retries: read(&self.run_retries),
            recoveries_started: read(&self.recoveries_started),
            recoveries_completed: read(&self.recoveries_completed),
            hosts_quarantined: read(&self.hosts_quarantined),
        }
    }
}

/// Controller-side health state of one host.
///
/// ```text
/// Healthy ──(unreachable/timeout)──▶ Suspect ──▶ Reinitializing
///    ▲                                                │     │
///    └──────────────(recovery ok)────────────────────┘     └──(recovery
///                                                               failed)──▶ Quarantined
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostHealth {
    /// Responding normally.
    Healthy,
    /// Stopped responding; recovery not yet started.
    Suspect,
    /// Out-of-band recovery in progress.
    Reinitializing,
    /// Recovery failed beyond the retry budget; excluded from the
    /// experiment until a human (or a new experiment) intervenes.
    Quarantined,
}

impl fmt::Display for HostHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            HostHealth::Healthy => "healthy",
            HostHealth::Suspect => "suspect",
            HostHealth::Reinitializing => "reinitializing",
            HostHealth::Quarantined => "quarantined",
        })
    }
}

/// Record of one executed measurement run.
#[derive(Debug, Clone)]
pub struct RunRecord {
    /// The loop parameters.
    pub params: RunParams,
    /// Captured result per role (stdout of its measurement script).
    pub outputs: BTreeMap<String, CommandResult>,
    /// Attempts used.
    pub attempts: u32,
    /// Final success.
    pub success: bool,
    /// How many out-of-band recoveries this run triggered.
    pub recoveries: u32,
    /// Warn-and-above trace lines captured while this run executed: the
    /// structured fault story of a degraded run (crashes, watchdog kills,
    /// retries, quarantines), preserved even when the sweep continues.
    pub fault_trace: Vec<String>,
}

/// Everything an experiment execution produced.
#[derive(Debug)]
pub struct ExperimentOutcome {
    /// Where the result tree was written.
    pub result_dir: PathBuf,
    /// All runs in cross-product order.
    pub runs: Vec<RunRecord>,
    /// Virtual start of the experiment.
    pub started: SimTime,
    /// Virtual end of the experiment.
    pub finished: SimTime,
    /// Total out-of-band recoveries across all runs.
    pub recoveries: u32,
    /// Indices of runs that exhausted their retry budget (only populated
    /// under [`RunOptions::continue_on_run_failure`]; otherwise the first
    /// such run aborts the experiment).
    pub failed_runs: Vec<usize>,
    /// Hosts quarantined during the experiment, in quarantine order.
    pub quarantined_hosts: Vec<String>,
    /// Runs quarantined as *poison* by a lane supervisor (a run that
    /// killed enough consecutive worker lanes); always a subset of
    /// [`Self::failed_runs`]. Empty for sequential campaigns.
    pub quarantined_runs: Vec<usize>,
    /// Total virtual time spent in out-of-band recovery (from detection to
    /// the host being back in service with its setup re-applied).
    pub total_recovery_time: SimDuration,
}

impl ExperimentOutcome {
    /// Number of successful runs.
    pub fn successes(&self) -> usize {
        self.runs.iter().filter(|r| r.success).count()
    }

    /// A deterministic, line-oriented digest of the outcome. Two runs of
    /// the same experiment with the same seeds (testbed and chaos plan)
    /// produce byte-identical summaries — the repeatability check the
    /// chaos tests pin down.
    pub fn summary(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "runs: {}\nsuccesses: {}\nfailed_runs: {:?}\nrecoveries: {}\n",
            self.runs.len(),
            self.successes(),
            self.failed_runs,
            self.recoveries,
        ));
        s.push_str(&format!(
            "quarantined_hosts: {:?}\nquarantined_runs: {:?}\ntotal_recovery_time_ns: {}\n",
            self.quarantined_hosts,
            self.quarantined_runs,
            self.total_recovery_time.as_nanos(),
        ));
        s.push_str(&format!(
            "started_ns: {}\nfinished_ns: {}\n",
            self.started.as_nanos(),
            self.finished.as_nanos(),
        ));
        for r in &self.runs {
            s.push_str(&format!(
                "run {:04} [{}] attempts={} success={} recoveries={} faults={}\n",
                r.params.index,
                r.params.label(),
                r.attempts,
                r.success,
                r.recoveries,
                r.fault_trace.len(),
            ));
        }
        s
    }
}

/// Why an experiment could not complete.
#[derive(Debug)]
pub enum ControllerError {
    /// The spec failed validation.
    Spec(SpecError),
    /// A role references a host the testbed does not have.
    UnknownHost {
        /// The missing host name.
        host: String,
    },
    /// A role references an image the store does not have.
    UnknownImage {
        /// The image name.
        name: String,
        /// The requested snapshot pin, if any.
        snapshot: Option<String>,
    },
    /// The calendar rejected the allocation.
    Allocation(pos_testbed::ReservationError),
    /// The cross product is too large (the §4.4 warning, enforced).
    TooManyRuns {
        /// Number of runs the expansion would produce.
        runs: usize,
        /// The configured limit.
        limit: usize,
    },
    /// Out-of-band management kept failing.
    PowerFailed {
        /// The unmanageable host.
        host: String,
        /// The final error.
        error: PowerError,
    },
    /// A setup script command failed: the experiment cannot proceed.
    SetupFailed {
        /// The role whose setup failed.
        role: String,
        /// The failing command line.
        command: String,
        /// Its captured result.
        result: CommandResult,
    },
    /// A measurement run failed beyond its retry budget.
    RunFailed {
        /// The failing run's index.
        index: usize,
        /// Attempts consumed.
        attempts: u32,
    },
    /// Talking to a host failed unrecoverably.
    Exec(ExecError),
    /// Result tree I/O failed.
    Io(std::io::Error),
    /// A chaos plan failed validation.
    Chaos {
        /// What the plan validator rejected.
        reason: String,
    },
    /// The campaign journal could not be replayed.
    Journal(JournalError),
    /// A resume request is inconsistent with the journaled campaign
    /// (wrong seed, mutated spec, missing start record, ...).
    Resume {
        /// Why the resume was refused.
        reason: String,
    },
    /// The campaign's [`CancelToken`] was tripped and the controller
    /// checkpointed at a journal boundary. Not a failure: the journaled
    /// prefix is consistent and `pos resume` completes the campaign.
    Canceled {
        /// Runs with durable records when the checkpoint was taken.
        completed_runs: usize,
    },
    /// A testbed could not be constructed from a validated description —
    /// the hosts, wiring, or clone topology is inconsistent.
    Topology {
        /// What failed to wire up.
        reason: String,
    },
}

impl fmt::Display for ControllerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControllerError::Spec(e) => write!(f, "invalid experiment: {e}"),
            ControllerError::UnknownHost { host } => write!(f, "unknown host {host}"),
            ControllerError::UnknownImage { name, snapshot } => {
                write!(f, "unknown image {name} (snapshot {snapshot:?})")
            }
            ControllerError::Allocation(e) => write!(f, "allocation failed: {e}"),
            ControllerError::TooManyRuns { runs, limit } => write!(
                f,
                "cross product yields {runs} runs, over the limit of {limit} \
                 (exponential growth — prune the loop variables)"
            ),
            ControllerError::PowerFailed { host, error } => {
                write!(f, "power control of {host} failed: {error}")
            }
            ControllerError::SetupFailed {
                role,
                command,
                result,
            } => write!(
                f,
                "setup of {role} failed at `{command}` (exit {}): {}",
                result.exit_code, result.stderr
            ),
            ControllerError::RunFailed { index, attempts } => {
                write!(f, "run {index} failed after {attempts} attempts")
            }
            ControllerError::Exec(e) => write!(f, "execution error: {e}"),
            ControllerError::Io(e) => write!(f, "result store error: {e}"),
            ControllerError::Chaos { reason } => write!(f, "chaos plan rejected: {reason}"),
            ControllerError::Journal(e) => write!(f, "campaign journal error: {e}"),
            ControllerError::Resume { reason } => write!(f, "cannot resume: {reason}"),
            ControllerError::Canceled { completed_runs } => write!(
                f,
                "campaign canceled at a journal boundary after {completed_runs} \
                 durable runs (checkpoint — `pos resume` completes it)"
            ),
            ControllerError::Topology { reason } => {
                write!(f, "testbed construction failed: {reason}")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

impl ControllerError {
    /// True when the campaign stopped because the storage medium filled
    /// up (ENOSPC) — real or injected. The CLI downgrades this from a
    /// hard error to a *degraded* outcome (exit code 3): the write-ahead
    /// journal already checkpointed the campaign at the last consistent
    /// record boundary, so `pos resume` completes it once space returns.
    pub fn is_storage_full(&self) -> bool {
        match self {
            ControllerError::Io(e) => crate::vfs::is_storage_full(e),
            ControllerError::Journal(JournalError::Io(e)) => crate::vfs::is_storage_full(e),
            _ => false,
        }
    }

    /// True when the campaign stopped at a *consistent checkpoint* — a
    /// journal boundary from which `pos resume` completes it — rather
    /// than a genuine failure. Covers both checkpoint causes: storage
    /// full ([`Self::is_storage_full`]) and cooperative cancellation
    /// ([`ControllerError::Canceled`]).
    pub fn is_checkpoint(&self) -> bool {
        self.is_storage_full() || matches!(self, ControllerError::Canceled { .. })
    }
}

impl ControllerError {
    /// A failed create, open or write of a campaign or lane journal:
    /// reported as a journal error (a full disk under the journal reads
    /// "campaign journal error", not "result store error"), classified by
    /// [`ControllerError::is_storage_full`] like any other.
    pub fn journal_io(e: std::io::Error) -> ControllerError {
        ControllerError::Journal(JournalError::Io(e))
    }
}

impl From<std::io::Error> for ControllerError {
    fn from(e: std::io::Error) -> Self {
        ControllerError::Io(e)
    }
}

/// The controller's handle on its testbed: borrowed in the classic
/// embedded form ([`Controller::new`]), owned when a scheduler gives each
/// worker lane its own long-lived replica ([`Controller::owning`]).
enum TbRef<'t> {
    Borrowed(&'t mut Testbed),
    Owned(Box<Testbed>),
}

impl std::ops::Deref for TbRef<'_> {
    type Target = Testbed;
    fn deref(&self) -> &Testbed {
        match self {
            TbRef::Borrowed(tb) => tb,
            TbRef::Owned(tb) => tb,
        }
    }
}

impl std::ops::DerefMut for TbRef<'_> {
    fn deref_mut(&mut self) -> &mut Testbed {
        match self {
            TbRef::Borrowed(tb) => tb,
            TbRef::Owned(tb) => tb,
        }
    }
}

/// Installed progress callback (the paper's progress bar).
type ProgressFn = Box<dyn FnMut(&Progress)>;

/// The pos controller bound to one testbed.
pub struct Controller<'t> {
    tb: TbRef<'t>,
    progress: Option<ProgressFn>,
    health: BTreeMap<String, HostHealth>,
}

impl<'t> Controller<'t> {
    /// Creates a controller driving `tb`.
    pub fn new(tb: &'t mut Testbed) -> Controller<'t> {
        Controller {
            tb: TbRef::Borrowed(tb),
            progress: None,
            health: BTreeMap::new(),
        }
    }

    /// Creates a controller that *owns* its testbed — the worker-lane
    /// form. A parallel scheduler keeps one owning controller per lane so
    /// lane-local state (virtual clock, host health, trace, management
    /// RNG position) persists across the runs dispatched to that lane.
    pub fn owning(tb: Testbed) -> Controller<'static> {
        Controller {
            tb: TbRef::Owned(Box::new(tb)),
            progress: None,
            health: BTreeMap::new(),
        }
    }

    /// The underlying testbed.
    pub fn testbed(&self) -> &Testbed {
        &self.tb
    }

    /// The underlying testbed, mutably. Schedulers use this to pin a
    /// lane's virtual clock to a run's canonical start instant before
    /// dispatching the run (see `pos-sched`).
    pub fn testbed_mut(&mut self) -> &mut Testbed {
        &mut self.tb
    }

    /// Installs a progress callback.
    pub fn with_progress(mut self, f: impl FnMut(&Progress) + 'static) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    fn emit(&mut self, p: Progress) {
        if let Some(cb) = self.progress.as_mut() {
            cb(&p);
        }
    }

    /// This controller's view of a host's health.
    pub fn host_health(&self, host: &str) -> HostHealth {
        self.health
            .get(host)
            .copied()
            .unwrap_or(HostHealth::Healthy)
    }

    /// Logs to the testbed trace at the current virtual instant.
    fn log_now(
        &mut self,
        level: TraceLevel,
        component: impl Into<String>,
        message: impl Into<String>,
    ) {
        let now = self.tb.now();
        self.tb.trace.log(now, level, component, message);
    }

    fn set_health(&mut self, host: &str, health: HostHealth) {
        if self.host_health(host) != health {
            self.log_now(
                TraceLevel::Info,
                "controller",
                format!("health: {host} -> {health}"),
            );
        }
        self.health.insert(host.to_owned(), health);
    }

    /// Arms a validated chaos plan on the testbed: crashes and wedges are
    /// scheduled, outage/hang/link-degradation windows declared. The plan
    /// is data — replaying the same plan against the same testbed seed
    /// reproduces the same faults.
    pub fn apply_chaos(&mut self, plan: &ChaosPlan) -> Result<(), ControllerError> {
        plan.validate().map_err(|e| ControllerError::Chaos {
            reason: e.to_string(),
        })?;
        for event in &plan.events {
            match event {
                ChaosEvent::HostCrash { host, at } => self.tb.schedule_crash(host, *at, false),
                ChaosEvent::HostWedge { host, at } => self.tb.schedule_crash(host, *at, true),
                ChaosEvent::PowerOutage { host, from, until } => {
                    self.tb.add_power_fault_window(host, *from, *until)
                }
                ChaosEvent::CommandHang { host, from, until } => {
                    self.tb.add_hang_window(host, *from, *until)
                }
                ChaosEvent::LinkFaults {
                    host,
                    from,
                    until,
                    config,
                } => self.tb.add_link_degradation(
                    host,
                    *from,
                    *until,
                    config.drop_chance,
                    config.corrupt_chance,
                ),
            }
        }
        self.log_now(
            TraceLevel::Info,
            "controller",
            format!(
                "chaos: armed {} events from plan seed {:#x}",
                plan.len(),
                plan.seed
            ),
        );
        Ok(())
    }

    /// A backoff schedule for retries concerning `label`, seeded from the
    /// testbed root seed so the delay sequence replays with the experiment.
    fn backoff(&self, opts: &RunOptions, label: &str) -> Backoff {
        Backoff::new(
            opts.backoff_base,
            opts.backoff_cap,
            self.tb.derive_rng(&format!("backoff/{label}")),
        )
    }

    fn power_with_retries(
        &mut self,
        host: &str,
        retries: u32,
        opts: &RunOptions,
        op: impl Fn(&mut Testbed, &str) -> Result<(), PowerError>,
    ) -> Result<(), ControllerError> {
        let mut backoff = self.backoff(opts, &format!("power/{host}"));
        let mut last = None;
        for attempt in 0..=retries {
            match op(&mut self.tb, host) {
                Ok(()) => return Ok(()),
                Err(e @ PowerError::TransientFailure { .. }) => {
                    last = Some(e);
                    if attempt < retries {
                        let delay = backoff.next_delay();
                        self.tb.advance(delay);
                        self.log_now(
                            TraceLevel::Debug,
                            "controller",
                            format!(
                                "power retry {} for {host} after {delay} backoff",
                                attempt + 1
                            ),
                        );
                        self.emit(Progress::PowerRetry {
                            host: host.into(),
                            attempt: attempt + 1,
                            delay,
                        });
                    }
                }
                Err(e) => {
                    return Err(ControllerError::PowerFailed {
                        host: host.into(),
                        error: e,
                    })
                }
            }
        }
        Err(ControllerError::PowerFailed {
            host: host.into(),
            error: last.expect("loop ran at least once"),
        })
    }

    /// Reboots a host out of band into its selected image: reset when the
    /// interface supports it, power-cycle otherwise. A reset that keeps
    /// failing escalates to a full power cycle — that is what un-wedges
    /// stuck firmware a soft reset bounces off.
    fn reinitialize(&mut self, host: &str, opts: &RunOptions) -> Result<(), ControllerError> {
        let supports_reset = self
            .tb
            .host(host)
            .map(|h| h.init_interface.supports_reset())
            .ok_or_else(|| ControllerError::UnknownHost { host: host.into() })?;
        if supports_reset {
            match self.power_with_retries(host, opts.max_power_retries, opts, |tb, h| tb.reset(h)) {
                Ok(()) => {}
                Err(ControllerError::PowerFailed {
                    error: PowerError::TransientFailure { .. },
                    ..
                }) => {
                    self.log_now(
                        TraceLevel::Warn,
                        "controller",
                        format!("{host}: reset failed repeatedly, escalating to power cycle"),
                    );
                    self.power_cycle(host, opts)?;
                }
                Err(e) => return Err(e),
            }
        } else {
            self.power_cycle(host, opts)?;
        }
        self.tb.wait_booted(host).map_err(ControllerError::Exec)?;
        Ok(())
    }

    fn power_cycle(&mut self, host: &str, opts: &RunOptions) -> Result<(), ControllerError> {
        self.power_with_retries(host, opts.max_power_retries, opts, |tb, h| tb.power_off(h))?;
        self.power_with_retries(host, opts.max_power_retries, opts, |tb, h| tb.power_on(h))
    }

    /// Full recovery of one crashed host: out-of-band reboot into its live
    /// image, tools and variables redeployed, and its setup script re-run
    /// so the clean slate is configured again. Any failure here means the
    /// host could not be brought back.
    fn recover_host(
        &mut self,
        host: &str,
        spec: &ExperimentSpec,
        run: &RunParams,
        opts: &RunOptions,
    ) -> Result<(), ControllerError> {
        self.reinitialize(host, opts)?;
        let role_idx = spec
            .roles
            .iter()
            .position(|r| r.host == host)
            .expect("crashed host belongs to the experiment");
        let vars = Self::role_vars(spec, role_idx, Some(run));
        self.tb
            .deploy_tools(host, &vars.rendered())
            .map_err(ControllerError::Exec)?;
        for step in spec.roles[role_idx].setup.instantiate(&vars) {
            if let Step::Command(c) = step {
                let r = self.tb.exec(host, &c).map_err(ControllerError::Exec)?;
                if !r.success() {
                    return Err(ControllerError::SetupFailed {
                        role: spec.roles[role_idx].role.clone(),
                        command: c,
                        result: r,
                    });
                }
            }
        }
        Ok(())
    }

    /// Variables a role sees: global < local < loop precedence.
    fn role_vars(spec: &ExperimentSpec, role_idx: usize, run: Option<&RunParams>) -> Variables {
        let role = &spec.roles[role_idx];
        let mut v = spec.global_vars.merged_with(&role.local_vars);
        if let Some(run) = run {
            v = v.merged_with(&run.as_variables());
        }
        v
    }

    /// Executes one script phase on all roles in lockstep: between
    /// barriers, every role's segment runs in its own time lane; the
    /// barrier completes at the latest lane end. Returns every command's
    /// result per role, in order, with deferred output still unread
    /// ([`role_output`] joins them).
    fn run_scripts_lockstep(
        &mut self,
        spec: &ExperimentSpec,
        phase: &str,
        run: Option<&RunParams>,
    ) -> Result<RoleResults, Box<ScriptFailure>> {
        // Instantiate all scripts up front.
        let instantiated: Vec<Vec<Step>> = spec
            .roles
            .iter()
            .enumerate()
            .map(|(i, role)| {
                let vars = Self::role_vars(spec, i, run);
                let script = if phase == "setup" {
                    &role.setup
                } else {
                    &role.measurement
                };
                script.instantiate(&vars)
            })
            .collect();

        // Split into segments; validation guarantees equal barrier counts.
        let segmented: Vec<Vec<Vec<String>>> = instantiated
            .iter()
            .map(|steps| {
                let mut segs: Vec<Vec<String>> = vec![Vec::new()];
                for s in steps {
                    match s {
                        Step::Command(c) => segs.last_mut().expect("non-empty").push(c.clone()),
                        Step::Barrier(_) => segs.push(Vec::new()),
                    }
                }
                segs
            })
            .collect();
        let n_segments = segmented.iter().map(Vec::len).max().unwrap_or(1);

        let mut aggregated = RoleResults::new();
        for seg_idx in 0..n_segments {
            let barrier_start = self.tb.now();
            let mut barrier_end = barrier_start;
            for (role_idx, role) in spec.roles.iter().enumerate() {
                let Some(commands) = segmented[role_idx].get(seg_idx) else {
                    continue;
                };
                // This role's lane starts at the barrier instant.
                self.tb.set_now(barrier_start);
                for cmd in commands {
                    let result = self.tb.exec_deferred(&role.host, cmd).map_err(|e| {
                        Box::new(ScriptFailure {
                            role: role.role.clone(),
                            command: cmd.clone(),
                            result: None,
                            exec: Some(e),
                        })
                    })?;
                    if !result.success() {
                        return Err(Box::new(ScriptFailure {
                            role: role.role.clone(),
                            command: cmd.clone(),
                            result: Some(result),
                            exec: None,
                        }));
                    }
                    aggregated
                        .entry(role.role.clone())
                        .or_default()
                        .push(result);
                }
                if self.tb.now() > barrier_end {
                    barrier_end = self.tb.now();
                }
            }
            // Barrier completes when the slowest lane arrives.
            self.tb.set_now(barrier_end);
        }
        Ok(aggregated)
    }

    /// Validates `spec`, folds repetitions into a synthetic loop
    /// variable, checks its hosts exist on this controller's testbed, and
    /// expands the cross product — the read-only front half of every
    /// campaign, exposed for schedulers that shard the run list across
    /// lanes.
    pub fn prepare_campaign(
        &self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
    ) -> Result<(ExperimentSpec, Vec<RunParams>), ControllerError> {
        spec.validate().map_err(ControllerError::Spec)?;
        // Repetitions become an explicit loop variable: visible in every
        // run's metadata, ordinary for the evaluation phase.
        let mut spec = spec.clone();
        if opts.repetitions > 1 {
            let reps: Vec<crate::vars::VarValue> =
                (0..i64::from(opts.repetitions)).map(Into::into).collect();
            spec.loop_vars
                .set("repetition", crate::vars::VarValue::List(reps));
        }
        for role in &spec.roles {
            if self.tb.host(&role.host).is_none() {
                return Err(ControllerError::UnknownHost {
                    host: role.host.clone(),
                });
            }
        }
        let runs = {
            let n = cross_product_size(&spec.loop_vars).unwrap_or(usize::MAX);
            if n > opts.max_runs {
                return Err(ControllerError::TooManyRuns {
                    runs: n,
                    limit: opts.max_runs,
                });
            }
            expand_cross_product(&spec.loop_vars)
        };
        Ok((spec, runs))
    }

    /// Runs a complete experiment: setup phase, all measurement runs, and
    /// result capture. The result tree is left on disk for the evaluation
    /// and publication phases.
    ///
    /// Every lifecycle transition is journaled write-ahead into the
    /// result tree's `journal.log`; an interrupted campaign can be picked
    /// up with [`Self::resume_experiment`].
    pub fn run_experiment(
        &mut self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
    ) -> Result<ExperimentOutcome, ControllerError> {
        let (spec, runs) = self.prepare_campaign(spec, opts)?;
        // Every in-band command from here on runs under the watchdog.
        self.tb.set_command_timeout(opts.command_timeout);
        let (store, journal) =
            create_campaign_tree(&spec, opts, self.tb.seed(), runs.len(), self.tb.now())?;
        let fresh = CampaignJournals::default();
        self.execute_campaign(&spec, opts, store, journal, runs, &fresh)
    }

    /// Resumes an interrupted campaign from its result tree.
    ///
    /// The tree's journals are folded ([`CampaignJournals`]; a torn tail
    /// from a crash mid-append is tolerated, corruption is not), the
    /// campaign's identity is checked — same testbed flavor and seed,
    /// same spec digest, same cross-product size — and every
    /// journaled-complete run is verified on disk against its
    /// recorded digest. Verified runs are skipped; everything else
    /// (incomplete runs, runs whose artifacts fail verification) is wiped
    /// and re-executed.
    ///
    /// Determinism contract: resuming on a fresh testbed with the
    /// original seed replays the setup phase identically, fast-forwards
    /// the virtual clock and the shared management RNG stream over each
    /// skipped run (discarding chaos events the original session already
    /// consumed), and therefore produces a result tree byte-identical to
    /// an uninterrupted execution — `journal.log` excepted, since the
    /// journal *is* the record of the interruption.
    ///
    /// `spec` should be the stored effective spec, e.g. loaded via
    /// [`ExperimentSpec::from_dir`] from `<result-dir>/experiment/`.
    pub fn resume_experiment(
        &mut self,
        result_dir: &Path,
        spec: &ExperimentSpec,
        opts: &RunOptions,
    ) -> Result<ExperimentOutcome, ControllerError> {
        let (spec, runs) = self.prepare_campaign(spec, opts)?;
        self.tb.set_command_timeout(opts.command_timeout);
        let mut journals = CampaignJournals::read_for_resume(result_dir)?;
        let (store, journal) = reopen_campaign_tree(
            result_dir,
            &mut journals,
            opts,
            self.tb.seed(),
            &spec,
            runs.len(),
            self.tb.now(),
        )?;
        if journals.journal.torn_tail {
            self.log_now(
                TraceLevel::Debug,
                "controller",
                format!(
                    "resume: journal has a torn tail ({} bytes), discarded",
                    journals.journal.torn_bytes
                ),
            );
        }
        self.execute_campaign(&spec, opts, store, journal, runs, &journals)
    }

    /// The §4.4 setup phase alone: calendar allocation, topology
    /// capture, image selection and reboot, tool deployment, hardware
    /// capture, setup scripts in lockstep. The publishable inputs are not
    /// written here: [`create_campaign_tree`] stores them before the
    /// journal exists.
    ///
    /// With `store: None` the same virtual-time story plays out (boots,
    /// deployments, hardware probes) but nothing is persisted — the form a
    /// parallel scheduler uses for worker lanes beyond lane 0, whose
    /// replica testbeds must follow the identical setup timeline while
    /// only the canonical lane writes the shared result tree.
    /// `planned_runs` is the campaign's total run count (it appears in the
    /// allocation trace line, which must match across lanes).
    pub fn setup_campaign(
        &mut self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        store: Option<&ResultStore>,
        planned_runs: usize,
    ) -> Result<CampaignSetup, ControllerError> {
        let started = self.tb.now();
        let hosts = spec.hosts();
        let reservation = self
            .tb
            .calendar
            .reserve(
                spec.user.clone(),
                &hosts,
                started,
                pos_simkernel::SimDuration::from_secs(spec.planned_duration_secs),
            )
            .map_err(ControllerError::Allocation)?;

        self.tb.trace.log(
            started,
            TraceLevel::Info,
            "controller",
            format!(
                "experiment {} allocated {:?}, {} runs planned",
                spec.name, hosts, planned_runs
            ),
        );

        // The stored experiment is already on disk (the tree's creator
        // wrote it before the journal); the wiring joins it here.
        if let Some(store) = store {
            store.write("topology.txt", self.tb.topology.render())?;
        }

        // Image selection, boot parameters, reboot.
        for role in &spec.roles {
            let image = match &role.image_snapshot {
                Some(snap) => self.tb.images.find(&role.image_name, snap),
                None => self.tb.images.latest(&role.image_name),
            }
            .ok_or_else(|| ControllerError::UnknownImage {
                name: role.image_name.clone(),
                snapshot: role.image_snapshot.clone(),
            })?
            .id;
            self.tb.select_image(&role.host, image).map_err(|error| {
                ControllerError::PowerFailed {
                    host: role.host.clone(),
                    error,
                }
            })?;
            self.tb
                .set_boot_params(&role.host, &role.boot_params)
                .map_err(|error| ControllerError::PowerFailed {
                    host: role.host.clone(),
                    error,
                })?;
            self.power_with_retries(&role.host, opts.max_power_retries, opts, |tb, h| {
                tb.power_on(h)
            })?;
        }
        // All boots proceed concurrently; waiting aligns to the slowest.
        for role in &spec.roles {
            self.tb
                .wait_booted(&role.host)
                .map_err(ControllerError::Exec)?;
            let host = role.host.clone();
            self.emit(Progress::HostReady { host });
        }

        // Deploy utility tools and variables; capture hardware info.
        for (i, role) in spec.roles.iter().enumerate() {
            let vars = Self::role_vars(spec, i, None);
            self.tb
                .deploy_tools(&role.host, &vars.rendered())
                .map_err(ControllerError::Exec)?;
            let hw = self
                .tb
                .exec(&role.host, "pos-hardware-info")
                .map_err(ControllerError::Exec)?;
            if let Some(store) = store {
                store.write(&format!("hardware/{}.txt", role.host), hw.stdout)?;
            }
        }

        // Setup scripts, in lockstep.
        self.run_scripts_lockstep(spec, "setup", None)
            .map_err(|f| f.into_setup_error())?;
        self.emit(Progress::SetupDone);
        Ok(CampaignSetup {
            reservation,
            started,
        })
    }

    /// The shared campaign body: setup phase, measurement loop (skipping
    /// resume-verified runs), wrap-up. `resume` is a resumed campaign's
    /// fold after [`CampaignJournals::retain_verified`]; empty for a
    /// fresh run.
    fn execute_campaign(
        &mut self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        store: ResultStore,
        mut journal: Journal,
        runs: Vec<RunParams>,
        resume: &CampaignJournals,
    ) -> Result<ExperimentOutcome, ControllerError> {
        // -------------------------------------------------- setup phase
        let setup = self.setup_campaign(spec, opts, Some(&store), runs.len())?;
        let CampaignSetup {
            reservation,
            started,
        } = setup;

        // -------------------------------------------- measurement phase
        let total = runs.len();
        let mut tally = Tally::default();
        // Quarantines journaled before the last durable run are history
        // the skipped runs executed under; restore them silently (no Info
        // log — the uninterrupted session logged the transition at fault
        // time, and resumed controller.log must stay byte-stable).
        for host in &resume.quarantined_hosts {
            self.health.insert(host.clone(), HostHealth::Quarantined);
            self.log_now(
                TraceLevel::Debug,
                "controller",
                format!("resume: {host} restored as quarantined"),
            );
            tally.quarantined_hosts.push(host.clone());
        }
        // Simulate ahead, commit in order: runs execute on the virtual
        // timeline while the packet simulations of earlier runs finish on
        // the worker pool, and commit strictly in run order. At most
        // `window` runs are uncommitted at once; an aborting run, a
        // skipped run and a cancel commit everything in flight first.
        let window = crate::pool::workers();
        let mut in_flight: VecDeque<RunAhead> = VecDeque::new();
        for run in &runs {
            let skipped = resume.completed.get(&run.index);
            // Cooperative checkpoint: an urgent drain trips the token and
            // the campaign stops *here*, between runs — every journaled
            // record is consistent, so resume picks up at this exact run.
            let canceled = skipped.is_none() && opts.cancel.is_canceled();
            let ahead = (skipped.is_none() && !canceled).then(|| self.run_ahead(spec, opts, run));
            let keep = match &ahead {
                Some(ahead) if !ahead.stops_campaign(opts) => window - 1,
                _ => 0,
            };
            in_flight.extend(ahead);
            self.commit_window(
                spec,
                opts,
                &store,
                &mut journal,
                &mut in_flight,
                keep,
                total,
                &mut tally,
            )?;
            if canceled {
                return Err(ControllerError::Canceled {
                    completed_runs: tally.records.len(),
                });
            }
            let Some(done) = skipped else { continue };
            // Verified complete by an earlier session: fast-forward
            // the virtual clock to the recorded run end and seek the
            // shared management RNG stream to its recorded cursor —
            // the timeline continues exactly as if this session had
            // executed the run itself. Chaos events due inside the
            // skipped window: a journaled recovery means the original
            // session consumed them (host rebooted, setup re-run), so
            // they are discarded; with no recovery a crash in the
            // window went *undetected* — the host died mid-run with
            // nothing touching it — and the event is left scheduled,
            // so it fires at the next executed command exactly where
            // the original session first observed it.
            self.tb.set_now(SimTime::from_nanos(done.finished_ns));
            if done.recoveries > 0 {
                self.tb.discard_due_faults();
            }
            self.tb.rng_seek(done.rng_cursor);
            self.log_now(
                TraceLevel::Debug,
                "controller",
                format!("resume: run {} verified, skipped", run.index),
            );
            let run_dir = store.run_dir(run.index)?;
            let outputs = Self::reload_run_outputs(spec, &run_dir)?;
            self.emit(Progress::RunSkipped {
                index: run.index,
                total,
            });
            tally.add(
                RunRecord {
                    params: run.clone(),
                    outputs,
                    attempts: done.attempts,
                    success: done.success,
                    recoveries: done.recoveries,
                    fault_trace: done.fault_trace.clone(),
                },
                done.recoveries,
                SimDuration::from_nanos(done.recovery_time_ns),
            );
        }
        self.commit_window(
            spec,
            opts,
            &store,
            &mut journal,
            &mut in_flight,
            0,
            total,
            &mut tally,
        )?;

        // ------------------------------------------------------ wrap-up
        // controller.log is rendered Info-and-above: the deterministic
        // campaign story. (Debug chatter would differ between a resumed
        // and an uninterrupted session, breaking byte-identical trees.)
        // It lands *before* CampaignFinished, so a finished journal
        // implies a complete tree.
        let finished = self.tb.now();
        store.write(
            "controller.log",
            self.tb.trace.render_min_level(TraceLevel::Info),
        )?;
        journal
            .append(&JournalRecord::CampaignFinished {
                finished_ns: finished.as_nanos(),
                succeeded: tally.records.iter().filter(|r| r.success).count(),
                failed: tally.failed_runs.len(),
            })
            .map_err(ControllerError::journal_io)?;
        self.tb.calendar.release(reservation);
        Ok(ExperimentOutcome {
            result_dir: store.dir().to_path_buf(),
            runs: tally.records,
            started,
            finished,
            recoveries: tally.recoveries,
            failed_runs: tally.failed_runs,
            quarantined_hosts: tally.quarantined_hosts,
            quarantined_runs: Vec::new(),
            total_recovery_time: tally.recovery_time,
        })
    }

    /// Commits the oldest runs of `in_flight`, in order, until at most
    /// `keep` remain uncommitted.
    #[allow(clippy::too_many_arguments)]
    fn commit_window(
        &mut self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        store: &ResultStore,
        journal: &mut Journal,
        in_flight: &mut VecDeque<RunAhead>,
        keep: usize,
        total: usize,
        tally: &mut Tally,
    ) -> Result<(), ControllerError> {
        while in_flight.len() > keep {
            let ahead = in_flight.pop_front().expect("more than `keep` runs");
            let step = self.commit_run(spec, opts, store, journal, ahead, total)?;
            tally.quarantined_hosts.extend(step.quarantined);
            tally.add(step.record, step.recoveries, step.recovery_time);
        }
        Ok(())
    }

    /// Executes one measurement run on the virtual timeline, at the
    /// testbed's current instant: deploys the loop variables, runs the
    /// measurement scripts with the full retry/recovery/quarantine
    /// machinery, and takes the files the scripts left under
    /// `/srv/results/` off the hosts, so the next run starts empty.
    ///
    /// It touches no disk. The run's journal records, artifacts and
    /// metadata wait in the returned [`RunAhead`] for
    /// [`Self::commit_run`], and its packet simulations may still be
    /// running on the worker pool: nothing on the virtual timeline reads
    /// them. A parallel scheduler's lane calls the two back to back.
    pub fn run_ahead(
        &mut self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        run: &RunParams,
    ) -> RunAhead {
        let mut quarantined: Vec<(String, u64)> = Vec::new();
        let run_started = self.tb.now();
        // Sequence number of the next trace entry; robust against ring
        // eviction (`len` alone would drift once entries are dropped).
        let trace_mark = self.tb.trace.len() as u64 + self.tb.trace.dropped();
        let mut attempts = 0u32;
        let mut recoveries = 0u32;
        let mut run_recovery_time = SimDuration::ZERO;
        let mut outputs = BTreeMap::new();
        let mut success = false;
        let mut error = None;
        let mut backoff = self.backoff(opts, &format!("run/{}", run.index));

        // Runs depending on a quarantined host fail fast: burning the
        // retry budget against a host already known dead would only
        // stretch the sweep.
        let quarantined_dep = spec
            .roles
            .iter()
            .map(|r| r.host.clone())
            .find(|h| self.host_health(h) == HostHealth::Quarantined);
        if let Some(host) = &quarantined_dep {
            self.log_now(
                TraceLevel::Warn,
                "controller",
                format!("run {}: skipped, host {host} is quarantined", run.index),
            );
        }

        'attempts: while quarantined_dep.is_none() && attempts <= opts.max_run_retries {
            attempts += 1;
            // Loop variables are (re)deployed to every host each
            // attempt, so hosts can read them via pos_get_var. The
            // deployments proceed concurrently (one lane per host).
            let mut deploy_failed: Option<ExecError> = None;
            let deploy_start = self.tb.now();
            let mut deploy_end = deploy_start;
            for (i, role) in spec.roles.iter().enumerate() {
                self.tb.set_now(deploy_start);
                let vars = Self::role_vars(spec, i, Some(run));
                if let Err(e) = self.tb.deploy_tools(&role.host, &vars.rendered()) {
                    deploy_failed = Some(e);
                    break;
                }
                if self.tb.now() > deploy_end {
                    deploy_end = self.tb.now();
                }
            }
            let now = self.tb.now();
            self.tb.set_now(deploy_end.max(now));
            let failure = match deploy_failed {
                Some(e) => Some(Box::new(ScriptFailure {
                    role: String::new(),
                    command: "pos deploy".into(),
                    result: None,
                    exec: Some(e),
                })),
                None => match self.run_scripts_lockstep(spec, "measurement", Some(run)) {
                    Ok(out) => {
                        outputs = out;
                        success = true;
                        None
                    }
                    Err(f) => Some(f),
                },
            };

            let Some(f) = failure else { break };
            // Who is the suspect? An unreachable/timed-out host names
            // itself; a plain command failure may be collateral of a
            // crashed *peer* (the load generator errors out because the
            // DuT died mid-run), so probe every experiment host.
            let suspects: Vec<String> = match f.exec {
                Some(ExecError::HostUnreachable { ref host, .. })
                | Some(ExecError::Timeout { ref host, .. }) => vec![host.clone()],
                Some(e) => {
                    error = Some(ControllerError::Exec(e));
                    break 'attempts;
                }
                None => spec
                    .roles
                    .iter()
                    .map(|r| r.host.clone())
                    .filter(|h| self.tb.host(h).is_some_and(|h| !h.is_up()))
                    .collect(),
            };

            if suspects.is_empty() {
                // Genuine command failure with every host healthy:
                // retry after a deterministic backoff if budget remains.
                if attempts <= opts.max_run_retries {
                    let delay = backoff.next_delay();
                    self.tb.advance(delay);
                    self.log_now(
                        TraceLevel::Debug,
                        "controller",
                        format!(
                            "run {}: attempt {attempts} failed, retrying after {delay}",
                            run.index
                        ),
                    );
                    self.emit(Progress::RunRetry {
                        index: run.index,
                        attempt: attempts,
                        delay,
                    });
                }
                continue;
            }

            for host in suspects {
                // R3: out-of-band recovery, then retry the run.
                let recovery_started = self.tb.now();
                self.set_health(&host, HostHealth::Suspect);
                self.log_now(
                    TraceLevel::Warn,
                    "controller",
                    format!("run {}: {host} unresponsive, recovering", run.index),
                );
                self.emit(Progress::HostRecovering { host: host.clone() });
                self.set_health(&host, HostHealth::Reinitializing);
                match self.recover_host(&host, spec, run, opts) {
                    Ok(()) => {
                        let took = self.tb.now().saturating_duration_since(recovery_started);
                        run_recovery_time += took;
                        self.set_health(&host, HostHealth::Healthy);
                        self.emit(Progress::HostRecovered { host: host.clone() });
                        recoveries += 1;
                    }
                    Err(e) => {
                        self.set_health(&host, HostHealth::Quarantined);
                        self.log_now(
                            TraceLevel::Error,
                            "controller",
                            format!("{host}: recovery failed, quarantined ({e})"),
                        );
                        self.emit(Progress::HostQuarantined { host: host.clone() });
                        quarantined.push((host.clone(), self.tb.now().as_nanos()));
                        if !opts.continue_on_run_failure {
                            error = Some(e);
                        }
                        break 'attempts;
                    }
                }
            }
        }

        // Files the scripts left under /srv/results/ on the hosts (pcap
        // dumps etc.) become the run's artifacts; a simulation may still
        // be producing them.
        let mut files = Vec::new();
        if error.is_none() {
            for role in &spec.roles {
                if let Some(host) = self.tb.host_mut(&role.host) {
                    for (path, file) in host.take_files("/srv/results/") {
                        files.push((role.role.clone(), path, file));
                    }
                }
            }
        }
        // Everything Warn-and-above since the run started is this run's
        // fault story — empty for clean runs.
        let skip = trace_mark.saturating_sub(self.tb.trace.dropped()) as usize;
        let fault_trace: Vec<String> = self
            .tb
            .trace
            .iter()
            .skip(skip)
            .filter(|e| e.level >= TraceLevel::Warn)
            .map(|e| e.to_string())
            .collect();
        RunAhead {
            run: run.clone(),
            started: run_started,
            finished: self.tb.now(),
            rng_cursor: self.tb.rng_cursor(),
            attempts,
            success,
            recoveries,
            recovery_time: run_recovery_time,
            quarantined,
            outputs,
            files,
            fault_trace,
            error,
        }
    }

    /// Writes a run that [`Self::run_ahead`] executed: wipes leftovers,
    /// journals `RunStarted` (and any `HostQuarantined`), waits for the
    /// run's simulations, writes its outputs, host files and metadata,
    /// seals the run and journals `RunCompleted`. These are the records
    /// and bytes, in the order, an uninterrupted execution leaves, so a
    /// crash between any two of them resumes as before; a run that never
    /// committed left nothing on disk and is re-executed.
    ///
    /// `store` may be shared between lanes (runs write disjoint
    /// `run-NNNN` directories). An aborting failure (unsuccessful run
    /// without [`RunOptions::continue_on_run_failure`]) writes
    /// `controller.log` and returns [`ControllerError::RunFailed`],
    /// leaving the run journaled as started-only so a resume retries it;
    /// the caller must not have run ahead past it, so the log ends with
    /// this run.
    pub fn commit_run(
        &mut self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        store: &ResultStore,
        journal: &mut Journal,
        ahead: RunAhead,
        total: usize,
    ) -> Result<RunStep, ControllerError> {
        let RunAhead {
            run,
            started,
            finished,
            rng_cursor,
            attempts,
            success,
            recoveries,
            recovery_time,
            quarantined,
            outputs,
            files,
            fault_trace,
            error,
        } = ahead;
        // Not durable: clear any partial leftovers first, so what the
        // crash happened to leave behind cannot influence convergence.
        store.wipe_run(run.index)?;
        journal
            .append(&JournalRecord::RunStarted {
                index: run.index,
                started_ns: started.as_nanos(),
            })
            .map_err(ControllerError::journal_io)?;
        for (host, at_ns) in &quarantined {
            journal
                .append(&JournalRecord::HostQuarantined {
                    host: host.clone(),
                    at_ns: *at_ns,
                })
                .map_err(ControllerError::journal_io)?;
        }
        if let Some(e) = error {
            return Err(e);
        }

        // Capture per-run artifacts: command output...
        let outputs: BTreeMap<String, CommandResult> = outputs
            .into_iter()
            .map(|(role, results)| (role, role_output(results)))
            .collect();
        for (role, result) in &outputs {
            store.write_run_output(
                run.index,
                role,
                &result.stdout,
                &result.stderr,
                result.exit_code,
            )?;
        }
        // ...plus the files taken off the hosts.
        for (role, path, file) in files {
            if let Some(data) = file.contents(&path) {
                let base = path.rsplit('/').next().expect("non-empty path");
                store.write_run_file(run.index, &format!("{role}_{base}"), data)?;
            }
        }
        let hosts_map: BTreeMap<String, String> = spec
            .roles
            .iter()
            .map(|r| (r.role.clone(), r.host.clone()))
            .collect();
        store.write_run_metadata(&run_metadata(
            &run, started, finished, attempts, success, hosts_map,
        ))?;
        // Seal the run: the checksum manifest is the last artifact
        // written, so its presence certifies every other one.
        let digest = store.finalize_run(run.index)?;
        let run_dir = store.run_dir(run.index)?;
        self.emit(Progress::RunDone {
            index: run.index,
            total,
            success,
            dir: run_dir,
        });
        if !success && !opts.continue_on_run_failure {
            // No RunCompleted record: an aborting failure leaves the
            // run journaled as started-only, so a resume retries it.
            store.write(
                "controller.log",
                self.tb.trace.render_min_level(TraceLevel::Info),
            )?;
            return Err(ControllerError::RunFailed {
                index: run.index,
                attempts,
            });
        }
        journal
            .append(&JournalRecord::RunCompleted {
                index: run.index,
                success,
                attempts,
                recoveries,
                recovery_time_ns: recovery_time.as_nanos(),
                started_ns: started.as_nanos(),
                finished_ns: finished.as_nanos(),
                rng_cursor,
                digest: digest.clone(),
                fault_trace: fault_trace.clone(),
            })
            .map_err(ControllerError::journal_io)?;
        Ok(RunStep {
            record: RunRecord {
                params: run,
                outputs,
                attempts,
                success,
                recoveries,
                fault_trace,
            },
            quarantined: quarantined.into_iter().map(|(host, _)| host).collect(),
            recoveries,
            recovery_time,
            started,
            finished,
            digest,
        })
    }

    /// Rebuilds the in-memory per-role outputs of a verified, skipped run
    /// from its on-disk artifacts. Command durations are not persisted,
    /// so reloaded results carry zero durations — run timing lives in the
    /// metadata, which is restored verbatim from disk. Public so a
    /// parallel resume can surface skipped runs' outputs in its outcome.
    pub fn reload_run_outputs(
        spec: &ExperimentSpec,
        run_dir: &Path,
    ) -> std::io::Result<BTreeMap<String, CommandResult>> {
        let mut outputs = BTreeMap::new();
        for role in &spec.roles {
            let status = run_dir.join(format!("{}_measurement.status", role.role));
            let Ok(code_text) = std::fs::read_to_string(&status) else {
                // No status file: the run never produced outputs for this
                // role (e.g. it failed fast on a quarantined host).
                continue;
            };
            let exit_code = code_text.trim().parse::<i32>().unwrap_or(0);
            let stdout =
                std::fs::read_to_string(run_dir.join(format!("{}_measurement.log", role.role)))
                    .unwrap_or_default();
            let stderr =
                std::fs::read_to_string(run_dir.join(format!("{}_measurement.err", role.role)))
                    .unwrap_or_default();
            let mut result = CommandResult::ok(stdout);
            result.stderr = stderr;
            result.exit_code = exit_code;
            outputs.insert(role.role.clone(), result);
        }
        Ok(outputs)
    }
}

/// What [`Controller::setup_campaign`] established: the calendar
/// allocation backing the campaign and when the setup phase began.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSetup {
    /// The calendar reservation covering the experiment hosts; released
    /// by the campaign wrap-up (or by a scheduler tearing a lane down).
    pub reservation: pos_testbed::ReservationId,
    /// Virtual instant the setup phase began.
    pub started: SimTime,
}

/// The one creator of campaign trees, born whole: the tree directory
/// named by `started`, then the stored `experiment/` of the prepared
/// `spec` (atomic fsynced writes through `opts.vfs`), and only then the
/// journal, armed with the injected crash, and its `CampaignStarted`.
pub fn create_campaign_tree(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    seed: u64,
    total_runs: usize,
    started: SimTime,
) -> Result<(ResultStore, Journal), ControllerError> {
    let store = ResultStore::create(&opts.result_root, &spec.user, &spec.name, started)?
        .with_vfs(opts.vfs.clone());
    store.write_experiment(spec)?;
    let mut journal = Journal::create_with(store.dir().join(JOURNAL_FILE), opts.vfs.clone())
        .map_err(ControllerError::journal_io)?;
    journal.arm_crash(opts.journal_crash_after, opts.journal_torn_write);
    journal
        .append(&JournalRecord::CampaignStarted {
            seed,
            spec_digest: spec.digest(),
            total_runs,
            testbed: opts.testbed_flavor.clone(),
            started_ns: started.as_nanos(),
        })
        .map_err(ControllerError::journal_io)?;
    Ok((store, journal))
}

/// Reopens the campaign tree at `dir` for the sequential or the parallel
/// resume: checks the fold's identity against this session, keeps only
/// the completions that still verify, reopens the journal (shedding a
/// torn tail), arms the injected crash and appends `CampaignResumed`.
/// The stored `experiment/` is not rewritten: `spec` was loaded from it
/// and its digest just matched the journal's.
pub fn reopen_campaign_tree(
    dir: &Path,
    journals: &mut CampaignJournals,
    opts: &RunOptions,
    seed: u64,
    spec: &ExperimentSpec,
    total_runs: usize,
    resumed: SimTime,
) -> Result<(ResultStore, Journal), ControllerError> {
    journals
        .identity()?
        .check(&opts.testbed_flavor, seed, &spec.digest(), total_runs)?;
    journals.retain_verified(dir);
    let store = ResultStore::open(dir).with_vfs(opts.vfs.clone());
    let mut journal = Journal::open_append_with(dir.join(JOURNAL_FILE), opts.vfs.clone())
        .map_err(ControllerError::journal_io)?;
    journal.arm_crash(opts.journal_crash_after, opts.journal_torn_write);
    journal
        .append(&JournalRecord::CampaignResumed {
            resumed_ns: resumed.as_nanos(),
            verified_runs: journals.completed.len(),
        })
        .map_err(ControllerError::journal_io)?;
    Ok((store, journal))
}

/// Every command result of one script phase, per role, in order.
type RoleResults = BTreeMap<String, Vec<CommandResult>>;

/// One role's measurement output: its commands' results, waited for and
/// joined line by line (each non-empty stdout and stderr ends in a
/// newline).
fn role_output(results: Vec<CommandResult>) -> CommandResult {
    let mut joined = CommandResult::ok("").with_duration(SimDuration::ZERO);
    for result in results {
        let result = result.resolved();
        for (all, part) in [
            (&mut joined.stdout, &result.stdout),
            (&mut joined.stderr, &result.stderr),
        ] {
            if !part.is_empty() {
                all.push_str(part);
                if !part.ends_with('\n') {
                    all.push('\n');
                }
            }
        }
    }
    joined
}

/// A run [`Controller::run_ahead`] executed on the virtual timeline and
/// [`Controller::commit_run`] has yet to write: its journal facts, its
/// outputs (possibly still simulating) and the files taken off its hosts.
pub struct RunAhead {
    run: RunParams,
    started: SimTime,
    finished: SimTime,
    /// The shared management RNG's position at the run's end.
    rng_cursor: u64,
    attempts: u32,
    success: bool,
    recoveries: u32,
    recovery_time: SimDuration,
    /// Hosts quarantined during the run, with the virtual instant.
    quarantined: Vec<(String, u64)>,
    outputs: RoleResults,
    /// `(role, host path, file)` of each file left under `/srv/results/`.
    files: Vec<(String, String, HostFile)>,
    fault_trace: Vec<String>,
    /// An aborting error, raised at commit after the run's `RunStarted`
    /// and `HostQuarantined` records, before any artifact.
    error: Option<ControllerError>,
}

impl RunAhead {
    /// True when committing this run ends the campaign: an aborting
    /// error, or a failed run without
    /// [`RunOptions::continue_on_run_failure`]. Nothing may run ahead of
    /// such a run.
    fn stops_campaign(&self, opts: &RunOptions) -> bool {
        self.error.is_some() || (!self.success && !opts.continue_on_run_failure)
    }
}

/// What a campaign accumulates over its committed (or skipped) runs, in
/// run order.
#[derive(Default)]
struct Tally {
    records: Vec<RunRecord>,
    failed_runs: Vec<usize>,
    quarantined_hosts: Vec<String>,
    recoveries: u32,
    recovery_time: SimDuration,
}

impl Tally {
    fn add(&mut self, record: RunRecord, recoveries: u32, recovery_time: SimDuration) {
        self.recoveries += recoveries;
        self.recovery_time += recovery_time;
        if !record.success {
            self.failed_runs.push(record.params.index);
        }
        self.records.push(record);
    }
}

/// What [`Controller::commit_run`] produced: the run's record plus the
/// bookkeeping a campaign (or scheduler) accumulates across runs.
#[derive(Debug)]
pub struct RunStep {
    /// The run's record (outputs, attempts, success, fault trace).
    pub record: RunRecord,
    /// Hosts newly quarantined while this run executed, in order.
    pub quarantined: Vec<String>,
    /// Out-of-band recoveries performed during this run.
    pub recoveries: u32,
    /// Virtual time spent in recovery during this run.
    pub recovery_time: SimDuration,
    /// Virtual instant the run started.
    pub started: SimTime,
    /// Virtual instant the run finished.
    pub finished: SimTime,
    /// The sealed run's digest, as journaled in `RunCompleted`.
    pub digest: String,
}

/// Internal: a script step failed.
struct ScriptFailure {
    role: String,
    command: String,
    result: Option<CommandResult>,
    exec: Option<ExecError>,
}

impl ScriptFailure {
    fn into_setup_error(self) -> ControllerError {
        if let Some(e) = self.exec {
            return ControllerError::Exec(e);
        }
        ControllerError::SetupFailed {
            role: self.role,
            command: self.command,
            result: self.result.unwrap_or_else(|| CommandResult::fail(1, "")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::register_all;
    use crate::experiment::linux_router_experiment;
    use pos_testbed::{HardwareSpec, InitInterface, PortId};
    use pos_testutil::TempDir;
    use std::path::Path;

    fn case_study_testbed(seed: u64) -> Testbed {
        let mut tb = Testbed::new(seed);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .unwrap();
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .unwrap();
        register_all(&mut tb);
        tb
    }

    /// A small case-study instance: 2 sizes × 3 rates, 1 s runs.
    fn small_spec() -> ExperimentSpec {
        linux_router_experiment("vriga", "vtartu", 3, 1)
    }

    #[test]
    fn full_workflow_produces_result_tree() {
        let mut tb = case_study_testbed(1);
        let root = TempDir::new("ctl-workflow");
        let outcome = Controller::new(&mut tb)
            .run_experiment(&small_spec(), &RunOptions::new(&root))
            .unwrap();

        assert_eq!(outcome.runs.len(), 6);
        assert_eq!(outcome.successes(), 6);
        assert_eq!(outcome.recoveries, 0);
        assert!(outcome.finished > outcome.started);

        // The tree has the publishable inputs and per-run outputs.
        let dir = &outcome.result_dir;
        for rel in [
            "experiment/experiment.yml",
            "experiment/global-variables.yml",
            "experiment/loop-variables.yml",
            "experiment/dut/setup.sh",
            "experiment/loadgen/measurement.sh",
            "hardware/vtartu.txt",
            "topology.txt",
            "controller.log",
            "run-0000/metadata.json",
            "run-0000/loadgen_measurement.log",
            "run-0005/metadata.json",
        ] {
            assert!(dir.join(rel).exists(), "missing artifact {rel}");
        }
        // The measurement log is MoonGen-format output.
        let log = std::fs::read_to_string(dir.join("run-0000/loadgen_measurement.log")).unwrap();
        assert!(log.contains("[Device: id=1] RX:"), "{log}");
    }

    #[test]
    fn results_show_forwarding_because_setup_ran() {
        let mut tb = case_study_testbed(2);
        let root = TempDir::new("ctl-setupcoupling");
        let outcome = Controller::new(&mut tb)
            .run_experiment(&small_spec(), &RunOptions::new(&root))
            .unwrap();
        // At 10 kpps / 64 B the bare-metal DuT forwards everything.
        let log =
            std::fs::read_to_string(outcome.result_dir.join("run-0000/loadgen_measurement.log"))
                .unwrap();
        assert!(
            log.contains("RX: 10000 packets"),
            "setup must have enabled forwarding: {log}"
        );
    }

    #[test]
    fn setup_failure_aborts_with_context() {
        let mut tb = case_study_testbed(3);
        let mut spec = small_spec();
        spec.roles[1].setup =
            crate::script::Script::parse("sysctl -w no.such.key=1\npos_sync setup_done");
        spec.roles[0].setup = crate::script::Script::parse("pos_sync setup_done");
        let root = TempDir::new("ctl-setupfail");
        let err = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap_err();
        match err {
            ControllerError::SetupFailed {
                role,
                command,
                result,
            } => {
                assert_eq!(role, "dut");
                assert!(command.contains("no.such.key"));
                assert_ne!(result.exit_code, 0);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn allocation_conflict_rejected() {
        let mut tb = case_study_testbed(4);
        // Another user holds vtartu right now.
        tb.calendar
            .reserve(
                "mallory",
                &["vtartu".to_string()],
                tb.now(),
                pos_simkernel::SimDuration::from_hours(5),
            )
            .unwrap();
        let root = TempDir::new("ctl-alloc");
        let err = Controller::new(&mut tb)
            .run_experiment(&small_spec(), &RunOptions::new(&root))
            .unwrap_err();
        assert!(matches!(err, ControllerError::Allocation(_)), "{err}");
    }

    #[test]
    fn reservation_released_after_experiment() {
        let mut tb = case_study_testbed(5);
        let root = TempDir::new("ctl-release");
        Controller::new(&mut tb)
            .run_experiment(&small_spec(), &RunOptions::new(&root))
            .unwrap();
        let now = tb.now();
        assert!(tb.calendar.is_free(
            "vtartu",
            now,
            now + pos_simkernel::SimDuration::from_hours(1)
        ));
    }

    #[test]
    fn too_many_runs_rejected_upfront() {
        let mut tb = case_study_testbed(6);
        let mut spec = small_spec();
        let big: Vec<crate::vars::VarValue> = (0..200i64).map(crate::vars::VarValue::Int).collect();
        spec.loop_vars
            .set("a", crate::vars::VarValue::List(big.clone()));
        spec.loop_vars.set("b", crate::vars::VarValue::List(big));
        let root = TempDir::new("ctl-toomany");
        let mut opts = RunOptions::new(&root);
        opts.max_runs = 1000;
        let err = Controller::new(&mut tb)
            .run_experiment(&spec, &opts)
            .unwrap_err();
        assert!(matches!(err, ControllerError::TooManyRuns { .. }));
    }

    #[test]
    fn unknown_host_and_image_rejected() {
        let mut tb = case_study_testbed(7);
        let mut spec = small_spec();
        spec.roles[0].host = "nonexistent".into();
        let root = TempDir::new("ctl-uh");
        assert!(matches!(
            Controller::new(&mut tb).run_experiment(&spec, &RunOptions::new(&root)),
            Err(ControllerError::UnknownHost { .. })
        ));

        let mut tb = case_study_testbed(8);
        let mut spec = small_spec();
        spec.roles[0].image_name = "gentoo".into();
        let root = TempDir::new("ctl-ui");
        assert!(matches!(
            Controller::new(&mut tb).run_experiment(&spec, &RunOptions::new(&root)),
            Err(ControllerError::UnknownImage { .. })
        ));
    }

    #[test]
    fn barriers_align_lanes_to_slowest_host() {
        // loadgen sleeps 1 s, dut sleeps 5 s before the common barrier: the
        // barrier must complete after ~5 s, not ~6 s (parallel, not serial).
        let mut tb = case_study_testbed(9);
        let mut spec = small_spec();
        spec.loop_vars = crate::vars::Variables::new(); // single run
        spec.roles[0].measurement = crate::script::Script::parse("sleep 1\npos_sync run_done");
        spec.roles[1].measurement = crate::script::Script::parse("sleep 5\npos_sync run_done");
        let before_boot = tb.now();
        let root = TempDir::new("ctl-barrier");
        let outcome = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap();
        let total = (outcome.finished - before_boot).as_secs_f64();
        // Boot ≈80 s dominated; the measurement adds max(1,5)=5 s, not 6 s.
        // Measure the run itself from metadata instead:
        let store = ResultStore::open(&outcome.result_dir);
        let runs = store.list_runs().unwrap();
        let meta = ResultStore::read_run_metadata(&runs[0]).unwrap();
        let run_secs = (meta.finished_ns - meta.started_ns) as f64 / 1e9;
        assert!(
            (5.0..5.6).contains(&run_secs),
            "lockstep run should take ≈5 s (parallel), got {run_secs} (total {total})"
        );
    }

    #[test]
    fn progress_callback_fires() {
        let mut tb = case_study_testbed(10);
        let events = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = events.clone();
        let root = TempDir::new("ctl-progress");
        Controller::new(&mut tb)
            .with_progress(move |p| sink.borrow_mut().push(p.clone()))
            .run_experiment(&small_spec(), &RunOptions::new(&root))
            .unwrap();
        let events = events.borrow();
        let ready = events
            .iter()
            .filter(|e| matches!(e, Progress::HostReady { .. }))
            .count();
        let runs = events
            .iter()
            .filter(|e| matches!(e, Progress::RunDone { .. }))
            .count();
        assert_eq!(ready, 2);
        assert_eq!(runs, 6);
        assert!(events.contains(&Progress::SetupDone));
        // Run indices arrive in order with correct totals.
        let mut expect = 0;
        for e in events.iter() {
            if let Progress::RunDone {
                index,
                total,
                success,
                ..
            } = e
            {
                assert_eq!(*index, expect);
                assert_eq!(*total, 6);
                assert!(success);
                expect += 1;
            }
        }
    }

    #[test]
    fn determinism_full_experiment() {
        let run = |root: &Path| {
            let mut tb = case_study_testbed(77);
            let outcome = Controller::new(&mut tb)
                .run_experiment(&small_spec(), &RunOptions::new(root))
                .unwrap();
            let mut all = String::new();
            for rec in &outcome.runs {
                all.push_str(&rec.outputs["loadgen"].stdout);
            }
            (all, outcome.finished.as_nanos())
        };
        let root_a = TempDir::new("ctl-det-a");
        let a = run(&root_a);
        let root_b = TempDir::new("ctl-det-b");
        let b = run(&root_b);
        assert_eq!(a, b, "same seed, same experiment, same bytes");
    }

    #[test]
    fn crash_recovery_retries_run() {
        // A command that crashes the DuT on its first invocation, then
        // succeeds: models a driver wedge that a reboot clears.
        let mut tb = case_study_testbed(11);
        let crashed_once = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag = crashed_once.clone();
        tb.register_command(
            "flaky-op",
            std::rc::Rc::new(move |tb: &mut Testbed, host: &str, _argv: &[String]| {
                if !flag.get() {
                    flag.set(true);
                    tb.host_mut(host).unwrap().inject_crash();
                    // The crash means the connection drops mid-command.
                    CommandResult::fail(255, "connection reset by peer")
                } else {
                    CommandResult::ok("ok")
                }
            }),
        );
        let mut spec = small_spec();
        spec.loop_vars = crate::vars::Variables::new(); // single run
        spec.roles[1].measurement =
            crate::script::Script::parse("flaky-op\nsleep 1\npos_sync run_done");
        spec.roles[0].measurement = crate::script::Script::parse("sleep 1\npos_sync run_done");

        let root = TempDir::new("ctl-recovery");
        let outcome = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap();
        assert_eq!(outcome.runs.len(), 1);
        let rec = &outcome.runs[0];
        assert!(rec.success);
        assert!(rec.attempts >= 2, "first attempt crashed");
        assert!(rec.recoveries >= 1, "an out-of-band recovery happened");
        // Host is up and was rebooted at least twice (initial boot + reset).
        assert!(tb.host("vtartu").unwrap().boots >= 2);
    }

    #[test]
    fn persistent_failure_aborts_or_continues_per_option() {
        let mut tb = case_study_testbed(12);
        let mut spec = small_spec();
        spec.loop_vars = crate::vars::Variables::new();
        spec.roles[1].measurement = crate::script::Script::parse("false\npos_sync run_done");
        spec.roles[0].measurement = crate::script::Script::parse("pos_sync run_done");
        let root = TempDir::new("ctl-persist");
        let err = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap_err();
        assert!(
            matches!(err, ControllerError::RunFailed { index: 0, .. }),
            "{err}"
        );

        // With continue_on_run_failure the experiment records the failure.
        let mut tb = case_study_testbed(13);
        let root = TempDir::new("ctl-persist2");
        let mut opts = RunOptions::new(&root);
        opts.continue_on_run_failure = true;
        let outcome = Controller::new(&mut tb)
            .run_experiment(&spec, &opts)
            .unwrap();
        assert_eq!(outcome.successes(), 0);
        assert_eq!(outcome.runs.len(), 1);
        assert!(outcome.runs[0].attempts >= 3, "used its retry budget");
    }

    #[test]
    fn host_files_under_srv_results_are_collected_per_run() {
        let mut tb = case_study_testbed(15);
        let mut spec = small_spec();
        spec.loop_vars = crate::vars::Variables::new().with("pkt_rate", vec![10_000i64, 20_000]);
        spec.global_vars.set("pkt_sz", 64i64);
        spec.roles[0].measurement = crate::script::Script::parse(
            "moongen --rate $pkt_rate --size $pkt_sz --time $run_secs --pcap /srv/results/tx.pcap\n\
             pos_sync run_done\n",
        );
        let root = TempDir::new("ctl-pcapcollect");
        let outcome = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap();
        for idx in 0..2 {
            let pcap = outcome
                .result_dir
                .join(format!("run-{idx:04}/loadgen_tx.pcap"));
            assert!(pcap.exists(), "pcap artifact for run {idx}");
            let bytes = std::fs::read(&pcap).unwrap();
            assert_eq!(&bytes[..4], &0xA1B2_C3D4u32.to_le_bytes());
        }
        // The host's staging area is empty again after collection.
        assert!(tb
            .host("vriga")
            .unwrap()
            .fs
            .keys()
            .all(|k| !k.starts_with("/srv/results/")));
    }

    #[test]
    fn a_script_reads_the_capture_its_simulation_is_still_writing() {
        // The measurement runs ahead of its simulation; `cat` of the
        // capture must wait for it rather than find no file.
        let mut tb = case_study_testbed(16);
        let mut spec = small_spec();
        spec.loop_vars = crate::vars::Variables::new().with("pkt_rate", vec![10_000i64, 20_000]);
        spec.global_vars.set("pkt_sz", 64i64);
        spec.roles[0].measurement = crate::script::Script::parse(
            "moongen --rate $pkt_rate --size $pkt_sz --time $run_secs --pcap /srv/results/tx.pcap\n\
             cat /srv/results/tx.pcap\n\
             pos_sync run_done\n",
        );
        let root = TempDir::new("ctl-pcapcat");
        let outcome = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(&root))
            .unwrap();
        assert_eq!(outcome.successes(), 2, "cat found the capture");
        for idx in 0..2 {
            let run_dir = outcome.result_dir.join(format!("run-{idx:04}"));
            let pcap = std::fs::read(run_dir.join("loadgen_tx.pcap")).unwrap();
            assert_eq!(&pcap[..4], &0xA1B2_C3D4u32.to_le_bytes());
            let log = std::fs::read_to_string(run_dir.join("loadgen_measurement.log")).unwrap();
            assert!(log.starts_with("# moongen-sim:"), "{log}");
            assert!(
                log.contains(&*String::from_utf8_lossy(&pcap)),
                "run {idx}: cat printed the collected capture"
            );
        }
    }

    #[test]
    fn a_panicking_simulation_fails_the_campaign_instead_of_hanging() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(|| {
                let mut tb = case_study_testbed(17);
                tb.register_command(
                    "explode",
                    std::rc::Rc::new(|_: &mut Testbed, _: &str, _: &[String]| {
                        let job = crate::pool::submit(|| -> pos_testbed::DeferredOutput {
                            panic!("simulation blew up")
                        });
                        CommandResult::ok_deferred(pos_testbed::Deferred::new(move || job.wait()))
                    }),
                );
                let mut spec = small_spec();
                spec.roles[0].measurement =
                    crate::script::Script::parse("explode\npos_sync run_done\n");
                let root = TempDir::new("ctl-explode");
                let _ = Controller::new(&mut tb).run_experiment(&spec, &RunOptions::new(&root));
            });
            let message = outcome
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(120))
            .expect("the campaign must not hang on a panicked simulation");
        assert_eq!(message.as_deref(), Some("simulation blew up"));
    }

    #[test]
    fn metadata_matches_cross_product_order() {
        let mut tb = case_study_testbed(14);
        let root = TempDir::new("ctl-meta");
        let outcome = Controller::new(&mut tb)
            .run_experiment(&small_spec(), &RunOptions::new(&root))
            .unwrap();
        let store = ResultStore::open(&outcome.result_dir);
        let runs = store.list_runs().unwrap();
        assert_eq!(runs.len(), 6);
        let expected = expand_cross_product(&small_spec().loop_vars);
        for (dir, exp) in runs.iter().zip(&expected) {
            let meta = ResultStore::read_run_metadata(dir).unwrap();
            assert_eq!(meta.index, exp.index);
            assert_eq!(meta.label, exp.label());
            assert!(meta.success);
            assert_eq!(meta.hosts["dut"], "vtartu");
        }
    }
}
