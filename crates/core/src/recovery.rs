//! Campaign recovery: the one reader of a campaign tree's journals.
//!
//! A result tree's durable state is spread over `journal.log` and, for a
//! parallel campaign, one `journal-lane{k}.log` per worker lane.
//! [`CampaignJournals::read`] folds all of them once. The sequential
//! resume ([`crate::controller::Controller::resume_experiment`]), the
//! parallel resume (`pos_sched::resume_parallel`), [`crate::fsck::fsck`]
//! (and through it `pos scrub`) and
//! [`crate::journal::campaign_disk_state`] all build on that fold, on the
//! one identity guard [`CampaignIdentity::check`], and on the one run
//! verifier [`verify_run`].
//!
//! The fold's rules:
//!
//! * **Merge order.** `journal.log` first, then the lane journals in lane
//!   order: the planned lanes of the `LanePlan`, then the replacement
//!   lanes in `LaneReplanned` order.
//! * **Last record wins.** The last `RunCompleted` per run index in that
//!   order is the run's journaled state; a run re-executed by a resume or
//!   reassigned by a failover appends a fresh record.
//! * **Missing lane journals.** A lane journal the crash never got to
//!   create holds nothing durable. The fold records a missing *planned*
//!   lane journal in [`CampaignJournals::lane_errors`] (fsck reports it);
//!   a missing replacement-lane journal is an ordinary crash artifact and
//!   is not recorded. A resume treats both as "nothing durable", and
//!   refuses any other unreadable lane journal.

use crate::controller::ControllerError;
use crate::fsck::RunStatus;
use crate::journal::{
    lane_journal_file, Journal, JournalError, JournalRecord, Replay, JOURNAL_FILE,
};
use crate::resultstore::ResultStore;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

/// The `CampaignStarted` facts a resume must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignIdentity {
    /// Testbed root seed.
    pub seed: u64,
    /// SHA-256 of the effective experiment spec.
    pub spec_digest: String,
    /// Size of the expanded cross product.
    pub total_runs: usize,
    /// Testbed flavor (`"pos"` / `"vpos"`).
    pub testbed: String,
}

impl CampaignIdentity {
    /// The one identity guard: refuses a resume on another testbed
    /// flavor, another seed, an edited spec or a different cross-product
    /// size, checked in that order.
    pub fn check(
        &self,
        testbed: &str,
        seed: u64,
        spec_digest: &str,
        total_runs: usize,
    ) -> Result<(), ControllerError> {
        let reason = if self.testbed != testbed {
            format!(
                "campaign ran on the `{}` testbed, resume is using `{testbed}`",
                self.testbed
            )
        } else if self.seed != seed {
            format!(
                "campaign ran on testbed seed {:#x}, this testbed uses {seed:#x}",
                self.seed
            )
        } else if self.spec_digest != spec_digest {
            "experiment spec changed since the campaign started (digest mismatch)".into()
        } else if self.total_runs != total_runs {
            format!(
                "campaign planned {} runs, spec now expands to {total_runs}",
                self.total_runs
            )
        } else {
            return Ok(());
        };
        Err(ControllerError::Resume { reason })
    }
}

/// A journaled `RunCompleted` record: the post-state of one durable run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCompletion {
    /// Whether the final attempt succeeded.
    pub success: bool,
    /// Attempts consumed.
    pub attempts: u32,
    /// Out-of-band recoveries the run triggered.
    pub recoveries: u32,
    /// Virtual time spent in recovery during the run, nanoseconds.
    pub recovery_time_ns: u64,
    /// Virtual start time of the run, nanoseconds.
    pub started_ns: u64,
    /// Virtual end time of the run, nanoseconds.
    pub finished_ns: u64,
    /// Management RNG cursor at run end.
    pub rng_cursor: u64,
    /// SHA-256 of the run's `checksums.json`.
    pub digest: String,
    /// Warn-and-above trace lines captured during the run.
    pub fault_trace: Vec<String>,
}

/// One `LaneRetired` record.
#[derive(Debug, Clone, PartialEq)]
pub struct RetiredLane {
    /// The retired lane.
    pub lane: usize,
    /// Why it was retired.
    pub reason: String,
    /// The run the lane was holding when it died, if any.
    pub run: Option<usize>,
}

/// The failover history a lane supervisor journaled.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FailoverHistory {
    /// `LaneRetired` records, in journal order.
    pub retired: Vec<RetiredLane>,
    /// Run → highest journaled retry-ladder attempt (`RunRetry`).
    pub ladder: BTreeMap<usize, u32>,
    /// Retry-ladder steps journaled (`RunRetry` records).
    pub retries: usize,
    /// Replacement lane flavors, in `LaneReplanned` order.
    pub replanned: Vec<String>,
    /// Runs quarantined as poison (`RunQuarantined`), sorted, deduplicated.
    pub quarantined_runs: Vec<usize>,
}

/// A campaign tree's journals, read once and folded.
#[derive(Debug, Default)]
pub struct CampaignJournals {
    /// The scheduler-level journal (`journal.log`) as replayed.
    pub journal: Replay,
    /// The `CampaignStarted` identity, when it is the journal's first
    /// record.
    pub identity: Option<CampaignIdentity>,
    /// Lane flavors of the `LanePlan` record; `Some` marks a parallel
    /// tree.
    pub lane_plan: Option<Vec<String>>,
    /// The last `SupervisorPlan` payload (JSON owned by `pos-sched`).
    pub supervisor_plan: Option<String>,
    /// Lane retirements, retry ladders, replacements, quarantined runs.
    pub failover: FailoverHistory,
    /// Hosts quarantined before the last run completion of their
    /// journal, deduplicated, in merge order. Later quarantines belong to
    /// a run that never completed and are re-derived by re-executing it.
    pub quarantined_hosts: Vec<String>,
    /// The last `RunCompleted` per run index, in merge order; after
    /// [`Self::retain_verified`], only the runs that still verify.
    pub completed: BTreeMap<usize, RunCompletion>,
    /// Lane journals replayed.
    pub lane_journals: usize,
    /// Complete records across all replayed lane journals.
    pub lane_records: usize,
    /// True when any journal ends in a torn record.
    pub torn_tail: bool,
    /// Lane journals that could not be replayed, in lane order: missing
    /// planned lanes and unreadable or corrupt ones.
    pub lane_errors: Vec<(usize, JournalError)>,
}

impl CampaignJournals {
    /// Reads and folds the journals of the tree at `dir`. Fails only when
    /// `journal.log` itself cannot be replayed; lane-journal failures are
    /// collected in [`Self::lane_errors`].
    pub fn read(dir: &Path) -> Result<CampaignJournals, JournalError> {
        let journal = Journal::replay(&dir.join(JOURNAL_FILE))?;
        let identity = match journal.campaign_start() {
            Some(JournalRecord::CampaignStarted {
                seed,
                spec_digest,
                total_runs,
                testbed,
                ..
            }) => Some(CampaignIdentity {
                seed: *seed,
                spec_digest: spec_digest.clone(),
                total_runs: *total_runs,
                testbed: testbed.clone(),
            }),
            _ => None,
        };
        let mut fold = CampaignJournals {
            identity,
            torn_tail: journal.torn_tail,
            journal,
            ..CampaignJournals::default()
        };
        let records = std::mem::take(&mut fold.journal.records);
        fold.absorb(&records);
        fold.journal.records = records;
        fold.failover.quarantined_runs.sort_unstable();
        fold.failover.quarantined_runs.dedup();

        // Planned lanes, then replacement lanes; a sequential tree has none.
        let planned = fold.lane_plan.as_ref().map_or(0, Vec::len);
        let lanes = fold
            .lane_plan
            .as_ref()
            .map_or(0, |_| planned + fold.failover.replanned.len());
        for lane in 0..lanes {
            match Journal::replay(&dir.join(lane_journal_file(lane))) {
                Ok(replay) => {
                    fold.lane_journals += 1;
                    fold.lane_records += replay.records.len();
                    fold.torn_tail |= replay.torn_tail;
                    fold.absorb(&replay.records);
                }
                Err(e) if is_not_found(&e) && lane >= planned => {}
                Err(e) => fold.lane_errors.push((lane, e)),
            }
        }
        Ok(fold)
    }

    /// [`Self::read`] for a resume: a missing lane journal holds nothing
    /// durable, but any other unreadable journal refuses the resume.
    pub fn read_for_resume(dir: &Path) -> Result<CampaignJournals, ControllerError> {
        let mut fold = Self::read(dir).map_err(ControllerError::Journal)?;
        match fold.lane_errors.iter().position(|(_, e)| !is_not_found(e)) {
            Some(i) => Err(ControllerError::Journal(fold.lane_errors.swap_remove(i).1)),
            None => Ok(fold),
        }
    }

    /// The campaign identity, or the resume refusal for a journal
    /// without a `CampaignStarted` record.
    pub fn identity(&self) -> Result<&CampaignIdentity, ControllerError> {
        self.identity
            .as_ref()
            .ok_or_else(|| ControllerError::Resume {
                reason: "journal has no CampaignStarted record".into(),
            })
    }

    /// Keeps only the journaled completions whose runs still pass
    /// [`verify_run`] under `dir` — the runs a resume may skip; the rest
    /// are re-executed.
    pub fn retain_verified(&mut self, dir: &Path) {
        self.completed.retain(|index, run| {
            verify_run(&dir.join(format!("run-{index:04}")), &run.digest) == RunStatus::Verified
        });
    }

    /// Folds one journal's records, in append order.
    fn absorb(&mut self, records: &[JournalRecord]) {
        let mut hosts: Vec<&String> = Vec::new();
        for rec in records {
            match rec {
                JournalRecord::RunCompleted {
                    index,
                    success,
                    attempts,
                    recoveries,
                    recovery_time_ns,
                    started_ns,
                    finished_ns,
                    rng_cursor,
                    digest,
                    fault_trace,
                } => {
                    self.completed.insert(
                        *index,
                        RunCompletion {
                            success: *success,
                            attempts: *attempts,
                            recoveries: *recoveries,
                            recovery_time_ns: *recovery_time_ns,
                            started_ns: *started_ns,
                            finished_ns: *finished_ns,
                            rng_cursor: *rng_cursor,
                            digest: digest.clone(),
                            fault_trace: fault_trace.clone(),
                        },
                    );
                    for host in hosts.drain(..) {
                        if !self.quarantined_hosts.contains(host) {
                            self.quarantined_hosts.push(host.clone());
                        }
                    }
                }
                JournalRecord::HostQuarantined { host, .. } => hosts.push(host),
                JournalRecord::LanePlan { flavors, .. } if self.lane_plan.is_none() => {
                    self.lane_plan = Some(flavors.clone());
                }
                JournalRecord::SupervisorPlan { config } => {
                    self.supervisor_plan = Some(config.clone());
                }
                JournalRecord::LaneRetired {
                    lane, reason, run, ..
                } => self.failover.retired.push(RetiredLane {
                    lane: *lane,
                    reason: reason.clone(),
                    run: *run,
                }),
                JournalRecord::RunRetry { index, attempt, .. } => {
                    let a = self.failover.ladder.entry(*index).or_insert(0);
                    *a = (*a).max(*attempt);
                    self.failover.retries += 1;
                }
                JournalRecord::LaneReplanned { flavor, .. } => {
                    self.failover.replanned.push(flavor.clone());
                }
                JournalRecord::RunQuarantined { index, .. } => {
                    self.failover.quarantined_runs.push(*index);
                }
                _ => {}
            }
        }
    }
}

/// True when `e` says the journal file does not exist.
pub fn is_not_found(e: &JournalError) -> bool {
    matches!(e, JournalError::Io(e) if e.kind() == io::ErrorKind::NotFound)
}

/// The one run verifier: the journaled digest must match the manifest on
/// disk, and every artifact must match its manifest hash.
pub fn verify_run(run_dir: &Path, journaled: &str) -> RunStatus {
    let on_disk = ResultStore::run_digest(run_dir).ok();
    if on_disk.as_deref() != Some(journaled) {
        return RunStatus::DigestMismatch {
            journaled: journaled.to_string(),
            on_disk,
        };
    }
    match ResultStore::verify_run(run_dir) {
        Ok(v) if v.is_clean() => RunStatus::Verified,
        Ok(v) => RunStatus::Damaged(v),
        Err(e) => RunStatus::DigestMismatch {
            journaled: journaled.to_string(),
            on_disk: Some(format!("unreadable: {e}")),
        },
    }
}
