//! The serve ledger: the daemon's write-ahead state machine.
//!
//! Every externally visible state transition of the daemon is one
//! appended (and fsynced) [`LedgerRecord`] in `<state>/ledger.log`, using
//! the `POSJ1` framing of [`pos_core::journal`] — and the append happens
//! **before** the transition is acknowledged to anyone:
//!
//! | record                | appended before …                         |
//! |-----------------------|-------------------------------------------|
//! | `ServeStarted`        | the daemon starts listening               |
//! | `SubmissionAccepted`  | the submitter gets its id back            |
//! | `CampaignDispatched`  | the campaign touches the result tree      |
//! | `SubmissionFinished`  | the completion shows up in `/status`      |
//! | `DrainStarted`        | `/readyz` flips to 503                    |
//!
//! Because the queue's scheduling decisions are pure functions of its
//! state, a restart does not need a serialized queue snapshot: it
//! [rebuilds](rebuild) the queue by replaying the ledger through the
//! *same* `submit`/`admit`/`record_outcome` code that ran originally,
//! asserting at every step that the replay allocates the ids the ledger
//! recorded. Any divergence means the ledger and the scheduler disagree
//! about history — a bug worth dying loudly over, not papering over.
//!
//! A torn tail (crash mid-append) is truncated on open, exactly like the
//! campaign journal: the half-written record was never acknowledged, so
//! dropping it is correct by construction.
//!
//! [`rebuild`] is the ledger's one fold: a restarting daemon and
//! `pos fsck` ([`crate::fsck::fsck_queue`]) both replay through it, so
//! fsck calls clean exactly the ledgers a daemon can restart on.

use crate::engine::ServeError;
use pos_core::journal::{Journal, JournalError, Record, Replay};
use pos_core::vfs::Vfs;
use pos_sched::{CompletionOutcome, Submission, SubmissionQueue};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// File name of the queue ledger inside a daemon state directory.
pub const LEDGER_FILE: &str = "ledger.log";

/// One daemon state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum LedgerRecord {
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
}

impl Record for LedgerRecord {
    const KIND: &'static str = "serve ledger";
}

/// A submission whose campaign finished, with the recorded outcome and
/// the result tree it produced (empty for campaigns that failed before
/// creating one).
#[derive(Debug, Clone)]
pub struct FinishedRec {
    /// The submission as admitted.
    pub submission: Submission,
    /// How the campaign ended.
    pub outcome: CompletionOutcome,
    /// Absolute result tree path, or empty when none was created.
    pub result_dir: String,
}

/// Everything a restarting daemon reconstructs from the ledger.
#[derive(Debug)]
pub struct RecoveredState {
    /// The fair-share queue, replayed to its pre-crash state (still
    /// bounded by the *replay* capacity; the engine restores the
    /// configured bounds afterwards).
    pub queue: SubmissionQueue,
    /// Submissions dispatched but not finished, in dispatch order. The
    /// engine settles these (adopt / resume / re-run their trees) before
    /// admitting anything new.
    pub in_flight: Vec<Submission>,
    /// Completed submissions in completion order.
    pub finished: Vec<FinishedRec>,
    /// Idempotency-token index over every accepted submission, ever —
    /// a client retrying a submission it never got an ack for must be
    /// deduplicated even when the original already ran to completion.
    pub tokens: BTreeMap<String, u64>,
    /// Daemon sessions recorded so far (`ServeStarted` count).
    pub sessions: u64,
    /// Results root recorded by the most recent session, if any.
    pub results_root: Option<String>,
    /// Total ledger records replayed.
    pub records: usize,
}

/// Opens (or creates) the serve ledger under `state_dir`, truncating a
/// torn tail left by a crash mid-append, and returns the append handle
/// together with the replayed history.
pub fn open_ledger(
    state_dir: &Path,
    vfs: Vfs,
) -> io::Result<(Journal<LedgerRecord>, Replay<LedgerRecord>)> {
    let path = state_dir.join(LEDGER_FILE);
    if !path.exists() {
        return Ok((Journal::create_with(&path, vfs)?, Replay::default()));
    }
    // `open_append_with` truncates a torn tail (and refuses corruption),
    // so the replay afterwards sees only whole, acknowledged records.
    let journal = Journal::open_append_with(&path, vfs)?;
    let replay = Journal::replay(&path).map_err(|e| match e {
        JournalError::Io(e) => e,
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    })?;
    Ok((journal, replay))
}

/// Parses the on-ledger spelling of a completion outcome.
pub(crate) fn parse_outcome(s: &str) -> Option<CompletionOutcome> {
    match s {
        "completed" => Some(CompletionOutcome::Completed),
        "completed_degraded" => Some(CompletionOutcome::CompletedDegraded),
        "failed" => Some(CompletionOutcome::Failed),
        _ => None,
    }
}

/// Replays a serve ledger into the daemon state it describes.
///
/// The replay drives a real [`SubmissionQueue`] (bounded only by the
/// replay itself — the engine restores the configured capacity and
/// backlog caps afterwards) through the recorded history and checks the
/// scheduler's determinism at every step: a `SubmissionAccepted` must
/// allocate the recorded id, a `CampaignDispatched` must admit exactly
/// the recorded submission under stride fair share. A `DrainStarted`
/// closes the queue only for the session it happened in; the restarting
/// session accepts submissions again, so replay leaves the queue open.
pub fn rebuild(replay: &Replay<LedgerRecord>) -> Result<RecoveredState, ServeError> {
    let mut queue = SubmissionQueue::new(usize::MAX);
    let mut in_flight: Vec<Submission> = Vec::new();
    let mut finished: Vec<FinishedRec> = Vec::new();
    let mut tokens: BTreeMap<String, u64> = BTreeMap::new();
    let mut sessions = 0u64;
    let mut results_root: Option<String> = None;
    for (i, rec) in replay.records.iter().enumerate() {
        match rec {
            LedgerRecord::ServeStarted {
                results_root: root, ..
            } => {
                sessions += 1;
                results_root = Some(root.clone());
            }
            LedgerRecord::SubmissionAccepted {
                id,
                user,
                experiment,
                priority,
                token,
            } => {
                let got = queue
                    .submit_with_token(user.clone(), experiment.clone(), *priority, token.clone())
                    .map_err(|e| {
                        ServeError::State(format!(
                            "ledger record {i}: replayed submission #{id} rejected: {e}"
                        ))
                    })?;
                if got != *id {
                    return Err(ServeError::State(format!(
                        "ledger record {i}: submission recorded as #{id} but \
                         replay allocated #{got}"
                    )));
                }
                if let Some(t) = token {
                    tokens.insert(t.clone(), *id);
                }
            }
            LedgerRecord::CampaignDispatched { id } => {
                let sub = queue.admit().ok_or_else(|| {
                    ServeError::State(format!(
                        "ledger record {i}: dispatch of #{id} with an empty queue"
                    ))
                })?;
                if sub.id != *id {
                    return Err(ServeError::State(format!(
                        "ledger record {i}: #{id} was dispatched but fair-share \
                         replay admits #{}",
                        sub.id
                    )));
                }
                in_flight.push(sub);
            }
            LedgerRecord::SubmissionFinished {
                id,
                outcome,
                result_dir,
            } => {
                let at = in_flight.iter().position(|s| s.id == *id).ok_or_else(|| {
                    ServeError::State(format!(
                        "ledger record {i}: finish of #{id}, which is not in flight"
                    ))
                })?;
                let sub = in_flight.remove(at);
                let oc = parse_outcome(outcome).ok_or_else(|| {
                    ServeError::State(format!(
                        "ledger record {i}: unknown completion outcome `{outcome}`"
                    ))
                })?;
                queue.record_outcome(sub.clone(), oc);
                finished.push(FinishedRec {
                    submission: sub,
                    outcome: oc,
                    result_dir: result_dir.clone(),
                });
            }
            LedgerRecord::DrainStarted { .. } => {}
        }
    }
    let records = replay.records.len();
    Ok(RecoveredState {
        queue,
        in_flight,
        finished,
        tokens,
        sessions,
        results_root,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_core::journal::encode_frame;
    use pos_testutil::TempDir;

    fn started() -> LedgerRecord {
        LedgerRecord::ServeStarted {
            results_root: "/tmp/results".into(),
            capacity: 8,
            user_backlog: 2,
            seed: 7,
        }
    }

    fn accepted(id: u64, user: &str, token: Option<&str>) -> LedgerRecord {
        LedgerRecord::SubmissionAccepted {
            id,
            user: user.into(),
            experiment: format!("exp-{id}"),
            priority: 1,
            token: token.map(String::from),
        }
    }

    #[test]
    fn rebuild_replays_fair_share_history_exactly() {
        let dir = TempDir::new("serve-ledger-replay");
        let (mut j, _) = open_ledger(&dir, Vfs::real()).unwrap();
        j.append(&started()).unwrap();
        j.append(&accepted(0, "alice", Some("t0"))).unwrap();
        j.append(&accepted(1, "bob", None)).unwrap();
        j.append(&accepted(2, "alice", None)).unwrap();
        // Stride fair share admits alice first (lexicographic tie), then
        // bob, then alice again.
        j.append(&LedgerRecord::CampaignDispatched { id: 0 })
            .unwrap();
        j.append(&LedgerRecord::SubmissionFinished {
            id: 0,
            outcome: "completed".into(),
            result_dir: "/tmp/results/alice/exp-0/vt-0000000000".into(),
        })
        .unwrap();
        j.append(&LedgerRecord::CampaignDispatched { id: 1 })
            .unwrap();
        drop(j);

        let (_, replay) = open_ledger(&dir, Vfs::real()).unwrap();
        let state = rebuild(&replay).unwrap();
        assert_eq!(state.sessions, 1);
        assert_eq!(state.records, 7);
        assert_eq!(state.queue.len(), 1, "only #2 still pending");
        assert_eq!(
            state.in_flight.iter().map(|s| s.id).collect::<Vec<_>>(),
            vec![1]
        );
        assert_eq!(state.finished.len(), 1);
        assert_eq!(state.finished[0].submission.id, 0);
        assert_eq!(state.finished[0].outcome, CompletionOutcome::Completed);
        assert_eq!(state.tokens.get("t0"), Some(&0));
        assert_eq!(state.results_root.as_deref(), Some("/tmp/results"));
    }

    #[test]
    fn rebuild_rejects_a_dispatch_that_contradicts_fair_share() {
        let dir = TempDir::new("serve-ledger-contradict");
        let (mut j, _) = open_ledger(&dir, Vfs::real()).unwrap();
        j.append(&accepted(0, "alice", None)).unwrap();
        j.append(&accepted(1, "bob", None)).unwrap();
        // Fair share would admit #0 (alice) first; a ledger claiming #1
        // was dispatched first is corrupt history.
        j.append(&LedgerRecord::CampaignDispatched { id: 1 })
            .unwrap();
        drop(j);
        let (_, replay) = open_ledger(&dir, Vfs::real()).unwrap();
        let err = rebuild(&replay).unwrap_err();
        assert!(
            err.to_string().contains("fair-share replay admits"),
            "{err}"
        );
    }

    #[test]
    fn rebuild_rejects_foreign_records() {
        let dir = TempDir::new("serve-ledger-foreign");
        // A campaign record, framed intact: only a raw frame can carry
        // it, the typed ledger writer cannot. The typed replay that
        // feeds `rebuild` on restart refuses it.
        let frame = encode_frame(r#"{"RunStarted":{"index":0,"started_ns":0}}"#);
        std::fs::write(dir.join(LEDGER_FILE), frame).unwrap();
        let err = open_ledger(&dir, Vfs::real()).unwrap_err();
        assert!(
            err.to_string()
                .contains("does not belong in a serve ledger"),
            "{err}"
        );
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = TempDir::new("serve-ledger-torn");
        let (mut j, _) = open_ledger(&dir, Vfs::real()).unwrap();
        j.append(&accepted(0, "alice", None)).unwrap();
        // A crash mid-append: arm a torn write at the next record.
        j.arm_crash(Some(1), true);
        let err = j.append(&accepted(1, "bob", None)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        drop(j);
        let (_, replay) = open_ledger(&dir, Vfs::real()).unwrap();
        assert!(!replay.torn_tail, "open truncates the torn tail");
        assert_eq!(replay.records.len(), 1);
        let state = rebuild(&replay).unwrap();
        assert_eq!(state.queue.len(), 1);
    }
}
