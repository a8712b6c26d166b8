//! The append-only campaign journal.
//!
//! A campaign (one `run_experiment` invocation) writes a write-ahead log
//! of its lifecycle into `journal.log` at the root of the result tree.
//! Every record is framed, checksummed, and fsynced before the controller
//! proceeds, so after a crash — of the controller process or the machine —
//! the journal tells exactly how far the campaign got:
//!
//! ```text
//! POSJ1 <len:08x> <sha256-hex-of-json> <json>\n
//! ```
//!
//! The frame makes two failure modes distinguishable on replay:
//!
//! * **Torn tail** — the file ends mid-record (crash during an append).
//!   The complete prefix is valid; the tail is reported and ignored.
//!   This is the *expected* crash artifact and resume handles it.
//! * **Corruption** — a complete frame whose payload does not match its
//!   checksum (bit rot, manual editing). This is never produced by a
//!   crash and replay refuses the journal.
//!
//! [`crate::recovery::CampaignJournals`] is the one reader that folds a
//! campaign tree's journals for resume, fsck and the disk-state check.

use crate::hash::sha256_hex;
use crate::recovery::CampaignJournals;
use crate::vfs::Vfs;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Frame magic; bump the digit for incompatible format changes.
pub const JOURNAL_MAGIC: &str = "POSJ1";

/// Byte length of a frame header: `"POSJ1 "` + 8 hex length digits +
/// `" "` + 64 hex digest digits + `" "`.
pub const FRAME_HEADER_LEN: usize = JOURNAL_MAGIC.len() + 1 + 8 + 1 + 64 + 1;

/// File name of the journal inside a result tree.
pub const JOURNAL_FILE: &str = "journal.log";

/// File name of the `pos serve` queue ledger inside a daemon state
/// directory. Same frame format as a campaign journal, different record
/// vocabulary (`ServeStarted` / `SubmissionAccepted` /
/// `CampaignDispatched` / `SubmissionFinished` / `DrainStarted`).
pub const LEDGER_FILE: &str = "ledger.log";

/// File name of worker lane `lane`'s journal inside a result tree.
///
/// A parallel campaign keeps the scheduler-level journal in
/// [`JOURNAL_FILE`] (campaign start, lane plan, campaign finish) and one
/// journal per worker lane recording the runs that lane executed. Lane
/// journals are an execution artifact, not part of the canonical result
/// tree: the determinism contract excludes `journal*.log` when comparing
/// parallel against sequential trees.
pub fn lane_journal_file(lane: usize) -> String {
    format!("journal-lane{lane}.log")
}

/// One campaign lifecycle event.
///
/// Records are self-describing externally-tagged JSON objects
/// (`{"RunStarted":{...}}`), so a journal survives the addition of new
/// fields (serde ignores unknown keys on replay of older code's
/// journals... and fails loudly on missing ones, which is what we want
/// for a consistency mechanism).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// The campaign allocated hosts and created the result tree.
    CampaignStarted {
        /// Testbed root seed — a resume must run on the same seed to
        /// reproduce the boot/fault timeline.
        seed: u64,
        /// SHA-256 of the effective experiment spec (see
        /// [`crate::experiment::ExperimentSpec::digest`]); guards resume
        /// against a spec that was edited after the fact.
        spec_digest: String,
        /// Size of the expanded cross product.
        total_runs: usize,
        /// Testbed flavor the campaign ran on (`"pos"` bare metal,
        /// `"vpos"` virtualized) — the two boot differently, so a resume
        /// on the wrong one would diverge from the recorded timeline.
        testbed: String,
        /// Virtual start time, nanoseconds.
        started_ns: u64,
    },
    /// A later session picked the campaign up again.
    CampaignResumed {
        /// Virtual time of the resuming session at takeover, nanoseconds.
        resumed_ns: u64,
        /// How many runs the resuming session verified and skipped.
        verified_runs: usize,
    },
    /// A measurement run began executing.
    RunStarted {
        /// Zero-based run index in cross-product order.
        index: usize,
        /// Virtual start time, nanoseconds.
        started_ns: u64,
    },
    /// A measurement run reached a terminal state and its artifacts are
    /// durable (written, checksummed, manifest fsynced).
    RunCompleted {
        /// Zero-based run index.
        index: usize,
        /// Whether the final attempt succeeded.
        success: bool,
        /// Attempts consumed (0 = failed fast on a quarantined host).
        attempts: u32,
        /// Out-of-band recoveries this run triggered.
        recoveries: u32,
        /// Virtual time spent in recovery during this run, nanoseconds.
        recovery_time_ns: u64,
        /// Virtual start time of the run, nanoseconds.
        started_ns: u64,
        /// Virtual end time of the run, nanoseconds.
        finished_ns: u64,
        /// Draw count of the testbed's shared management RNG stream at
        /// run end; resume seeks the stream here after skipping the run.
        rng_cursor: u64,
        /// SHA-256 of the run's `checksums.json` — the run tree digest.
        digest: String,
        /// Warn-and-above trace lines captured during the run.
        fault_trace: Vec<String>,
    },
    /// A parallel scheduler split the campaign across worker lanes.
    ///
    /// Written to the scheduler-level journal right after
    /// `CampaignStarted`; its presence is how `pos resume` and `pos fsck`
    /// recognize a parallel result tree and go looking for per-lane
    /// journals (see [`lane_journal_file`]).
    LanePlan {
        /// Number of worker lanes.
        lanes: usize,
        /// Testbed flavor of each lane (`"pos"` bare metal, `"vpos"`
        /// virtualized clone), indexed by lane.
        flavors: Vec<String>,
    },
    /// A worker lane finished its setup phase and began executing runs.
    ///
    /// First record of each per-lane journal.
    LaneStarted {
        /// Zero-based lane index.
        lane: usize,
        /// Root seed of the lane's replica testbed (equals the campaign
        /// seed — lanes are same-seed replicas).
        seed: u64,
        /// Testbed flavor the lane runs on.
        flavor: String,
        /// Virtual time the lane became ready, nanoseconds.
        started_ns: u64,
    },
    /// The scheduler's lane-supervision configuration, journaled right
    /// after [`Self::LanePlan`] so a resume replays the exact same
    /// failover decisions (fault plan, grace factor, poison threshold,
    /// recovery policy).
    SupervisorPlan {
        /// JSON-serialized supervisor options (owned by `pos-sched`; the
        /// journal stores it opaquely so the record type stays in core).
        config: String,
    },
    /// A lane supervisor declared a worker lane dead and stopped
    /// dispatching to it.
    LaneRetired {
        /// The retired lane.
        lane: usize,
        /// Canonical virtual instant of the retirement, nanoseconds.
        at_ns: u64,
        /// Human-readable cause (injected fault, watchdog overrun,
        /// hosts quarantined, poison run).
        reason: String,
        /// The run the lane was holding when it died, if any. `Some`
        /// obliges the journal to later account for that run — either a
        /// `RunCompleted` (reassigned and finished elsewhere) or a
        /// `RunQuarantined`; `pos fsck` flags the stranded case.
        run: Option<usize>,
    },
    /// A run whose lane died is being retried on another lane after a
    /// deterministic backoff (the retry ladder).
    RunRetry {
        /// The run being retried.
        index: usize,
        /// Ladder attempt (1-based; resume continues the count).
        attempt: u32,
        /// The lane receiving the retry.
        lane: usize,
        /// Backoff delay charged to the receiving lane, nanoseconds
        /// (drawn from the `testbed/lane{k}/retry{run}` stream).
        delay_ns: u64,
        /// Canonical virtual instant of the retry decision, nanoseconds.
        at_ns: u64,
    },
    /// A poison run killed enough consecutive lanes to be quarantined:
    /// it is recorded failed (with a forensic bundle) instead of taking
    /// the campaign down. Always followed by a `RunCompleted` with
    /// `success: false` sealing the quarantined run's artifacts.
    RunQuarantined {
        /// The quarantined run.
        index: usize,
        /// Lanes this run killed before quarantine.
        lanes_killed: u32,
        /// Canonical virtual instant of the quarantine, nanoseconds.
        at_ns: u64,
    },
    /// The supervisor replanned a replacement lane (site calendar when a
    /// bare-metal replica set was free, virtual clone otherwise). Resume
    /// and fsck learn about lane journals beyond the original
    /// [`Self::LanePlan`] from these records.
    LaneReplanned {
        /// Index of the new lane (always the next unused index).
        lane: usize,
        /// Testbed flavor granted (`"pos"` / `"vpos"`).
        flavor: String,
        /// Canonical virtual instant of the replanning, nanoseconds.
        at_ns: u64,
    },
    /// A host's recovery failed beyond the retry budget.
    HostQuarantined {
        /// The quarantined host.
        host: String,
        /// Virtual time of the quarantine, nanoseconds.
        at_ns: u64,
    },
    /// The campaign ran to completion (controller.log is durable).
    CampaignFinished {
        /// Virtual end time, nanoseconds.
        finished_ns: u64,
        /// Successful runs.
        succeeded: usize,
        /// Failed-but-recorded runs.
        failed: usize,
    },
    /// A `pos serve` daemon process came up on this state directory.
    ///
    /// First record of every daemon session in the queue ledger
    /// ([`LEDGER_FILE`]); restart recovery uses the *last* one to learn
    /// where result trees live and what admission limits were configured.
    ServeStarted {
        /// Absolute path of the results root the daemon writes trees to.
        results_root: String,
        /// Total queue capacity configured for this session.
        capacity: usize,
        /// Per-user backlog cap configured for this session.
        user_backlog: usize,
        /// Campaign seed every dispatched campaign runs on.
        seed: u64,
    },
    /// The daemon durably accepted a submission — journaled *before* the
    /// client is acknowledged, so an acked submission is never lost to a
    /// crash.
    SubmissionAccepted {
        /// Queue-assigned submission id (dense, increasing).
        id: u64,
        /// Submitting user (fair-share accounting key).
        user: String,
        /// Experiment spec directory the submission points at.
        experiment: String,
        /// Priority weight (stride tickets).
        priority: u32,
        /// Client-chosen idempotency token, if any; a resubmission
        /// carrying a token already in the ledger is a duplicate, not a
        /// new campaign.
        token: Option<String>,
    },
    /// The stride scheduler admitted a submission and the daemon is
    /// about to execute it. Journaled before the campaign starts, so a
    /// crash mid-campaign leaves an in-flight marker for recovery to
    /// resume.
    CampaignDispatched {
        /// The admitted submission.
        id: u64,
    },
    /// A dispatched campaign reached a terminal state and its outcome is
    /// recorded in the completion ledger.
    SubmissionFinished {
        /// The finished submission.
        id: u64,
        /// Terminal outcome: `"completed"`, `"completed_degraded"` or
        /// `"failed"`.
        outcome: String,
        /// Absolute path of the campaign's result tree (empty when the
        /// campaign failed before a tree was claimed).
        result_dir: String,
    },
    /// The daemon stopped accepting submissions and began a
    /// preemption-free drain (SIGTERM or `POST /drain`).
    DrainStarted {
        /// Submissions still pending at drain start.
        pending: usize,
    },
    /// A DAG campaign created its result tree and journaled its plan.
    ///
    /// Always the first record of a DAG journal; its presence is how
    /// `pos dag resume` and `pos fsck` recognize a DAG result tree.
    DagStarted {
        /// DAG name (result directory component).
        name: String,
        /// SHA-256 of the canonical DAG spec — guards resume against a
        /// spec edited after the fact.
        dag_digest: String,
        /// SHA-256 of the effective experiment spec all sweep stages
        /// derive from.
        spec_digest: String,
        /// Testbed root seed every stage runs on.
        seed: u64,
        /// Testbed flavor (`"pos"` / `"vpos"`); stages boot testbeds, so
        /// a resume on the wrong flavor would diverge.
        testbed: String,
        /// Execution target name (`"in-process"` / `"sim-batch"`). The
        /// determinism contract makes targets interchangeable for the
        /// *artifacts*, but a resume replays target-side accounting, so
        /// the identity guard records where the DAG ran.
        target: String,
        /// Total number of stage nodes in the DAG.
        nodes: usize,
    },
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
    GatherSealed {
        /// The gather stage.
        node: String,
        /// Stage ids of the consumed scatter (sweep) inputs, in
        /// dependency order.
        inputs: Vec<String>,
        /// Subtree digest of each consumed input, aligned with `inputs`.
        input_digests: Vec<String>,
    },
    /// A DAG stage node reached a terminal state and its artifact
    /// subtree is durable.
    NodeFinished {
        /// The finished stage.
        node: String,
        /// Deterministic digest of the node's artifact subtree
        /// (journal files excluded) — what resume verifies before
        /// fast-forwarding over the node.
        digest: String,
        /// Virtual start instant of the node, nanoseconds.
        started_ns: u64,
        /// Virtual finish instant of the node, nanoseconds.
        finished_ns: u64,
        /// Measurement runs inside the node that failed (sweep stages
        /// under `continue_on_run_failure`; 0 for setup/gather).
        failed_runs: usize,
    },
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

/// Why a journal could not be replayed.
#[derive(Debug)]
pub enum JournalError {
    /// Reading the file failed.
    Io(io::Error),
    /// A complete frame failed validation — not a crash artifact.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: usize,
        /// What exactly failed.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { offset, reason } => {
                write!(f, "journal corrupt at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Result of replaying a journal file.
#[derive(Debug, Default)]
pub struct Replay {
    /// All complete, validated records in append order.
    pub records: Vec<JournalRecord>,
    /// True when the file ends mid-record (crash during an append).
    pub torn_tail: bool,
    /// Bytes in the torn tail, if any.
    pub torn_bytes: usize,
}

impl Replay {
    /// The `CampaignStarted` record, if the journal has one (it is
    /// always the first record of a well-formed journal).
    pub fn campaign_start(&self) -> Option<&JournalRecord> {
        match self.records.first() {
            Some(r @ JournalRecord::CampaignStarted { .. }) => Some(r),
            _ => None,
        }
    }

    /// True when a `CampaignFinished` record is present.
    pub fn finished(&self) -> bool {
        self.records
            .iter()
            .any(|r| matches!(r, JournalRecord::CampaignFinished { .. }))
    }

    /// The `DagStarted` record, if this is a DAG journal (it is always
    /// the first record of a well-formed DAG journal).
    pub fn dag_start(&self) -> Option<&JournalRecord> {
        match self.records.first() {
            Some(r @ JournalRecord::DagStarted { .. }) => Some(r),
            _ => None,
        }
    }

    /// True when a `DagFinished` record is present.
    pub fn dag_finished(&self) -> bool {
        self.records
            .iter()
            .any(|r| matches!(r, JournalRecord::DagFinished { .. }))
    }
}

/// Writer handle for a campaign journal.
///
/// Appends are write-ahead: the record is framed, written, and fsynced
/// before `append` returns, so a record's presence in the journal is a
/// durable promise that the state it describes was reached.
///
/// For the crash-injection harness the writer can be armed to fail (and
/// optionally tear) the *k*-th append — see [`Journal::arm_crash`]. This
/// mirrors the testbed's deterministic chaos knobs: the fault is data,
/// not wall-clock luck.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    vfs: Vfs,
    appended: u64,
    crash_after: Option<u64>,
    torn_write: bool,
}

impl Journal {
    /// Creates a fresh journal file (truncating any existing one).
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Journal> {
        Self::create_with(path, Vfs::real())
    }

    /// [`Journal::create`] writing through an explicit [`Vfs`] handle,
    /// so injected storage faults hit journal appends too.
    pub fn create_with(path: impl Into<PathBuf>, vfs: Vfs) -> io::Result<Journal> {
        let path = path.into();
        vfs.create_sync(&path)?;
        Ok(Journal {
            path,
            vfs,
            appended: 0,
            crash_after: None,
            torn_write: false,
        })
    }

    /// Opens an existing journal for appending (resume sessions).
    ///
    /// A torn tail left by a crash mid-append is truncated away first —
    /// appending after partial-frame garbage would turn an honest crash
    /// artifact into irrecoverable corruption. A journal that replays as
    /// corrupt is refused.
    pub fn open_append(path: impl Into<PathBuf>) -> io::Result<Journal> {
        Self::open_append_with(path, Vfs::real())
    }

    /// [`Journal::open_append`] writing through an explicit [`Vfs`].
    pub fn open_append_with(path: impl Into<PathBuf>, vfs: Vfs) -> io::Result<Journal> {
        let path = path.into();
        if !path.exists() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no journal at {}", path.display()),
            ));
        }
        match Self::replay(&path) {
            Ok(replay) if replay.torn_tail => {
                let len = fs::metadata(&path)?.len();
                vfs.truncate_sync(&path, len - replay.torn_bytes as u64)?;
            }
            Ok(_) => {}
            Err(JournalError::Io(e)) => return Err(e),
            Err(e @ JournalError::Corrupt { .. }) => {
                return Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            }
        }
        Ok(Journal {
            path,
            vfs,
            appended: 0,
            crash_after: None,
            torn_write: false,
        })
    }

    /// Arms deterministic crash injection: the append with zero-based
    /// sequence number `after` fails with [`io::ErrorKind::Interrupted`].
    /// With `torn` the failing append first writes a partial frame,
    /// simulating a machine crash mid-`write(2)`.
    pub fn arm_crash(&mut self, after: Option<u64>, torn: bool) {
        self.crash_after = after;
        self.torn_write = torn;
    }

    /// Number of records appended through this handle.
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Encodes one record as its on-disk frame. Serialization failure
    /// surfaces as a typed error instead of aborting — an injected fault
    /// must never be able to take the process down past an `expect`.
    fn encode(record: &JournalRecord) -> io::Result<String> {
        let json = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(encode_frame(&json))
    }

    /// Appends one record durably (write + fsync before returning).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        let frame = Self::encode(record)?;
        if self.crash_after == Some(self.appended) {
            if self.torn_write {
                // A torn write leaves a partial frame: enough bytes that
                // replay sees an incomplete record, not a clean boundary.
                let cut = frame.len() / 2;
                Vfs::real().append_sync(&self.path, &frame.as_bytes()[..cut])?;
            }
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected journal crash at record {}", self.appended),
            ));
        }
        self.vfs.append_sync(&self.path, frame.as_bytes())?;
        self.appended += 1;
        Ok(())
    }

    /// Replays a journal file: validates every complete frame, detects a
    /// torn tail, and rejects corruption.
    pub fn replay(path: &Path) -> Result<Replay, JournalError> {
        let bytes = fs::read(path)?;
        let mut records = Vec::new();
        let mut offset = 0usize;
        while offset < bytes.len() {
            match decode_frame(&bytes, offset)? {
                FrameStep::Record { record, frame_len } => {
                    records.push(record);
                    offset += frame_len;
                }
                FrameStep::Torn { torn_bytes } => {
                    return Ok(Replay {
                        records,
                        torn_tail: true,
                        torn_bytes,
                    });
                }
            }
        }
        Ok(Replay {
            records,
            torn_tail: false,
            torn_bytes: 0,
        })
    }
}

/// Encodes a serialized record payload as its on-disk frame:
/// `POSJ1 <len:08x> <sha256-hex-of-json> <json>\n`. The single framing
/// path shared by every journal writer — the scheduler-level
/// `journal.log` and the per-lane `journal-lane{k}.log` files alike.
pub fn encode_frame(json: &str) -> String {
    format!(
        "{JOURNAL_MAGIC} {:08x} {} {json}\n",
        json.len(),
        sha256_hex(json.as_bytes())
    )
}

/// Outcome of decoding one frame out of a byte buffer.
#[derive(Debug)]
pub enum FrameStep {
    /// A complete, validated record.
    Record {
        /// The decoded record.
        record: JournalRecord,
        /// Total on-disk frame length (header + payload + newline).
        frame_len: usize,
    },
    /// The buffer ends mid-frame — a torn tail, not corruption.
    Torn {
        /// Trailing bytes that do not form a complete frame.
        torn_bytes: usize,
    },
}

/// Decodes the frame starting at `offset`, distinguishing a torn tail
/// (buffer ends mid-frame) from corruption (a complete frame that fails
/// validation). The single decoding path shared by [`Journal::replay`]
/// for every journal flavor.
pub fn decode_frame(bytes: &[u8], offset: usize) -> Result<FrameStep, JournalError> {
    let rest = &bytes[offset..];
    if rest.len() < FRAME_HEADER_LEN {
        // Not even a full header: crash mid-append.
        return Ok(FrameStep::Torn {
            torn_bytes: rest.len(),
        });
    }
    let header = &rest[..FRAME_HEADER_LEN];
    let header_str = std::str::from_utf8(header).map_err(|_| JournalError::Corrupt {
        offset,
        reason: "frame header is not UTF-8".into(),
    })?;
    let magic = &header_str[..JOURNAL_MAGIC.len()];
    if magic != JOURNAL_MAGIC {
        return Err(JournalError::Corrupt {
            offset,
            reason: format!("bad magic {magic:?}"),
        });
    }
    let len_hex = &header_str[JOURNAL_MAGIC.len() + 1..JOURNAL_MAGIC.len() + 9];
    let len = usize::from_str_radix(len_hex, 16).map_err(|_| JournalError::Corrupt {
        offset,
        reason: format!("bad length field {len_hex:?}"),
    })?;
    let digest = &header_str[JOURNAL_MAGIC.len() + 10..JOURNAL_MAGIC.len() + 74];
    let body_start = FRAME_HEADER_LEN;
    let frame_len = body_start + len + 1; // + trailing newline
    if rest.len() < frame_len {
        // Header complete, payload truncated: torn tail.
        return Ok(FrameStep::Torn {
            torn_bytes: rest.len(),
        });
    }
    let body = &rest[body_start..body_start + len];
    if rest[body_start + len] != b'\n' {
        return Err(JournalError::Corrupt {
            offset,
            reason: "frame not newline-terminated".into(),
        });
    }
    if sha256_hex(body) != digest {
        return Err(JournalError::Corrupt {
            offset,
            reason: "record checksum mismatch".into(),
        });
    }
    let record: JournalRecord =
        serde_json::from_slice(body).map_err(|e| JournalError::Corrupt {
            offset,
            reason: format!("record does not parse: {e}"),
        })?;
    Ok(FrameStep::Record { record, frame_len })
}

/// Disk-level lifecycle state of a campaign result tree, judged from its
/// journals. The replay entry point `pos serve` restart recovery and the
/// queue-ledger fsck share: both need to decide, for a tree found on
/// disk, whether the campaign it belongs to finished, is resumable, or
/// never got far enough to matter.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignDiskState {
    /// The directory has no journal at all (or an empty one) — the
    /// process died between creating the tree and completing the first
    /// append. Nothing in it is durable; a fresh campaign may reclaim
    /// the path.
    NoJournal,
    /// The journal replays but has no `CampaignFinished` record: the
    /// campaign is in flight or was interrupted, and `resume_experiment`
    /// / `resume_parallel` can complete it.
    InProgress {
        /// Distinct runs with a durable `RunCompleted` record so far, in
        /// any of the tree's journals (DAG trees: finished stage nodes).
        runs_completed: usize,
        /// Total runs the campaign planned, when known.
        total_runs: Option<usize>,
    },
    /// The campaign sealed a `CampaignFinished` record.
    Finished {
        /// Successful runs.
        succeeded: usize,
        /// Failed-but-recorded runs.
        failed: usize,
    },
    /// The journal is unreadable or corrupt — not a crash artifact;
    /// surfaces the reason for the operator.
    Unreadable(String),
}

/// Classifies the campaign result tree at `dir` from its folded journals
/// (see [`CampaignDiskState`] and [`CampaignJournals`]).
pub fn campaign_disk_state(dir: &Path) -> CampaignDiskState {
    if !dir.join(JOURNAL_FILE).exists() {
        return CampaignDiskState::NoJournal;
    }
    let fold = match CampaignJournals::read(dir) {
        Ok(fold) => fold,
        Err(e) => return CampaignDiskState::Unreadable(e.to_string()),
    };
    let records = &fold.journal.records;
    if records.is_empty() {
        // A crash on the very first append leaves the created-but-empty
        // file (possibly with a torn partial frame): nothing durable.
        return CampaignDiskState::NoJournal;
    }
    for record in records {
        if let JournalRecord::CampaignFinished {
            succeeded, failed, ..
        } = record
        {
            return CampaignDiskState::Finished {
                succeeded: *succeeded,
                failed: *failed,
            };
        }
        // A DAG tree reports in node granularity: each finished stage
        // node counts as one unit of progress, and a sealed DAG maps its
        // sweep-run failure count into the `failed` slot so adopters
        // (the `pos serve` recovery path) classify degradation the same
        // way they do for flat campaigns.
        if let JournalRecord::DagFinished {
            nodes, failed_runs, ..
        } = record
        {
            return CampaignDiskState::Finished {
                succeeded: *nodes,
                failed: *failed_runs,
            };
        }
    }
    match fold.journal.dag_start() {
        Some(JournalRecord::DagStarted { nodes, .. }) => CampaignDiskState::InProgress {
            runs_completed: records
                .iter()
                .filter(|r| matches!(r, JournalRecord::NodeFinished { .. }))
                .count(),
            total_runs: Some(*nodes),
        },
        // Distinct runs completed across every journal of the tree — on a
        // parallel tree most completions live in the lane journals.
        _ => CampaignDiskState::InProgress {
            runs_completed: fold.completed.len(),
            total_runs: fold.identity.map(|id| id.total_runs),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pos-journal-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join(JOURNAL_FILE)
    }

    fn started() -> JournalRecord {
        JournalRecord::CampaignStarted {
            seed: 0xFEED,
            spec_digest: "d".repeat(64),
            total_runs: 4,
            testbed: "pos".into(),
            started_ns: 0,
        }
    }

    fn completed(index: usize) -> JournalRecord {
        JournalRecord::RunCompleted {
            index,
            success: true,
            attempts: 1,
            recoveries: 0,
            recovery_time_ns: 0,
            started_ns: 100,
            finished_ns: 200,
            rng_cursor: 7,
            digest: "a".repeat(64),
            fault_trace: vec![],
        }
    }

    #[test]
    fn append_replay_roundtrip() {
        let path = tmp("roundtrip");
        let mut j = Journal::create(&path).unwrap();
        j.append(&started()).unwrap();
        j.append(&JournalRecord::RunStarted {
            index: 0,
            started_ns: 100,
        })
        .unwrap();
        j.append(&completed(0)).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[0], started());
        assert_eq!(replay.records[2], completed(0));
        assert!(replay.campaign_start().is_some());
        assert!(!replay.finished());
    }

    #[test]
    fn torn_tail_detected_and_prefix_preserved() {
        let path = tmp("torn");
        let mut j = Journal::create(&path).unwrap();
        j.append(&started()).unwrap();
        j.append(&completed(0)).unwrap();
        // Simulate a crash mid-append: truncate into the last frame.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert!(replay.torn_tail);
        assert!(replay.torn_bytes > 0);
        assert_eq!(replay.records.len(), 1, "complete prefix survives");
    }

    #[test]
    fn torn_header_detected() {
        let path = tmp("tornheader");
        let mut j = Journal::create(&path).unwrap();
        j.append(&started()).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(b"POSJ1 000");
        fs::write(&path, &bytes).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert!(replay.torn_tail);
        assert_eq!(replay.torn_bytes, 9);
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn flipped_byte_is_corruption_not_torn_tail() {
        let path = tmp("corrupt");
        let mut j = Journal::create(&path).unwrap();
        j.append(&started()).unwrap();
        j.append(&completed(0)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip one byte inside the first record's JSON payload.
        let pos = bytes.len() / 4;
        bytes[pos] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        match Journal::replay(&path) {
            Err(JournalError::Corrupt { .. }) => {}
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn injected_crash_stops_at_exact_boundary() {
        let path = tmp("crashinject");
        let mut j = Journal::create(&path).unwrap();
        j.arm_crash(Some(2), false);
        j.append(&started()).unwrap();
        j.append(&completed(0)).unwrap();
        let err = j.append(&completed(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let replay = Journal::replay(&path).unwrap();
        assert!(!replay.torn_tail, "clean-boundary crash leaves no tail");
        assert_eq!(replay.records.len(), 2);
    }

    #[test]
    fn injected_torn_crash_leaves_partial_frame() {
        let path = tmp("crashtorn");
        let mut j = Journal::create(&path).unwrap();
        j.arm_crash(Some(1), true);
        j.append(&started()).unwrap();
        let err = j.append(&completed(0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        let replay = Journal::replay(&path).unwrap();
        assert!(replay.torn_tail, "torn crash leaves a partial frame");
        assert_eq!(replay.records.len(), 1);
    }

    #[test]
    fn open_append_truncates_torn_tail() {
        let path = tmp("appendtorn");
        let mut j = Journal::create(&path).unwrap();
        j.arm_crash(Some(1), true);
        j.append(&started()).unwrap();
        j.append(&completed(0)).unwrap_err();
        assert!(Journal::replay(&path).unwrap().torn_tail);

        // Reopening removes the partial frame; new appends extend a
        // clean prefix instead of corrupting the file.
        let mut j = Journal::open_append(&path).unwrap();
        j.append(&completed(0)).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert!(!replay.torn_tail);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.records[1], completed(0));
    }

    #[test]
    fn lane_records_roundtrip() {
        assert_eq!(lane_journal_file(0), "journal-lane0.log");
        assert_eq!(lane_journal_file(3), "journal-lane3.log");
        let path = tmp("lanes");
        let mut j = Journal::create(&path).unwrap();
        j.append(&started()).unwrap();
        let plan = JournalRecord::LanePlan {
            lanes: 2,
            flavors: vec!["pos".into(), "vpos".into()],
        };
        let lane = JournalRecord::LaneStarted {
            lane: 1,
            seed: 0xFEED,
            flavor: "vpos".into(),
            started_ns: 42,
        };
        j.append(&plan).unwrap();
        j.append(&lane).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records[1], plan);
        assert_eq!(replay.records[2], lane);
    }

    #[test]
    fn failover_records_roundtrip() {
        let path = tmp("failover");
        let mut j = Journal::create(&path).unwrap();
        let records = vec![
            JournalRecord::SupervisorPlan {
                config: r#"{"grace_factor":8.0}"#.into(),
            },
            JournalRecord::LaneRetired {
                lane: 1,
                at_ns: 77,
                reason: "injected lane fault at run boundary".into(),
                run: None,
            },
            JournalRecord::LaneRetired {
                lane: 2,
                at_ns: 99,
                reason: "poison run 4".into(),
                run: Some(4),
            },
            JournalRecord::RunRetry {
                index: 4,
                attempt: 1,
                lane: 3,
                delay_ns: 500_000_000,
                at_ns: 99,
            },
            JournalRecord::RunQuarantined {
                index: 4,
                lanes_killed: 2,
                at_ns: 99,
            },
            JournalRecord::LaneReplanned {
                lane: 4,
                flavor: "vpos".into(),
                at_ns: 99,
            },
        ];
        for r in &records {
            j.append(r).unwrap();
        }
        let replay = Journal::replay(&path).unwrap();
        assert_eq!(replay.records, records);
        assert!(!replay.torn_tail);
    }

    #[test]
    fn empty_journal_replays_empty() {
        let path = tmp("empty");
        Journal::create(&path).unwrap();
        let replay = Journal::replay(&path).unwrap();
        assert!(replay.records.is_empty());
        assert!(!replay.torn_tail);
        assert!(replay.campaign_start().is_none());
    }

    /// Byte offsets at which a journal image is a clean prefix: 0 and
    /// the end of every complete frame.
    fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
        let mut boundaries = vec![0usize];
        let mut offset = 0;
        while offset < bytes.len() {
            match decode_frame(bytes, offset).expect("whole journal decodes") {
                FrameStep::Record { frame_len, .. } => {
                    offset += frame_len;
                    boundaries.push(offset);
                }
                FrameStep::Torn { .. } => panic!("whole journal has no torn tail"),
            }
        }
        boundaries
    }

    /// The torn/corrupt distinction, exhaustively: a file cut at *any*
    /// byte offset is a crash artifact — replay classifies it as a torn
    /// tail (or a clean boundary), never as corruption, and keeps every
    /// frame that fit entirely below the cut.
    #[test]
    fn every_truncation_offset_classified_torn_or_clean() {
        let path = tmp("truncsweep");
        let mut j = Journal::create(&path).unwrap();
        j.append(&started()).unwrap();
        j.append(&completed(0)).unwrap();
        let bytes = fs::read(&path).unwrap();
        let boundaries = frame_boundaries(&bytes);
        for cut in 0..=bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let replay = Journal::replay(&path)
                .unwrap_or_else(|e| panic!("cut at byte {cut} misclassified as {e}"));
            assert_eq!(replay.torn_tail, !boundaries.contains(&cut), "cut {cut}");
            let committed = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(replay.records.len(), committed, "cut {cut}");
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Same invariant under randomized journals: any truncation
            /// replays as the committed prefix, and reopening for append
            /// (which drops the torn tail) never loses a committed
            /// record — the file keeps growing from a clean boundary.
            #[test]
            fn truncated_journal_reopens_without_losing_records(
                extra in 1usize..4,
                cut_frac in 0.0f64..1.0,
            ) {
                let path = tmp("proptrunc");
                let mut expected = vec![started()];
                expected.extend((0..extra).map(completed));
                let mut j = Journal::create(&path).unwrap();
                for r in &expected {
                    j.append(r).unwrap();
                }
                let bytes = fs::read(&path).unwrap();
                let boundaries = frame_boundaries(&bytes);
                let cut = ((cut_frac * (bytes.len() + 1) as f64) as usize).min(bytes.len());
                fs::write(&path, &bytes[..cut]).unwrap();

                let replay = Journal::replay(&path)
                    .expect("truncation is a crash artifact, never corruption");
                let committed = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
                prop_assert_eq!(replay.records.len(), committed);
                prop_assert_eq!(replay.torn_tail, !boundaries.contains(&cut));

                let mut j = Journal::open_append(&path).unwrap();
                j.append(&completed(99)).unwrap();
                let replay = Journal::replay(&path).unwrap();
                prop_assert!(!replay.torn_tail);
                prop_assert_eq!(replay.records.len(), committed + 1);
                prop_assert_eq!(&replay.records[..committed], &expected[..committed]);
                prop_assert_eq!(replay.records.last().unwrap(), &completed(99));
            }
        }
    }
}
