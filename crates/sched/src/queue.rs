//! Multi-campaign admission control: a bounded submission queue with
//! fair-share scheduling across users.
//!
//! Users submit campaigns; the queue admits them in *stride-scheduling*
//! order: every user carries a virtual-time pass, the next admission
//! always goes to the user with the smallest pass (ties broken by
//! lexicographic user name — deterministic, like everything else here),
//! and admitting a campaign advances that user's pass by `1 / weight`,
//! where the weight is the submission's priority. Two users submitting
//! concurrently therefore interleave instead of the first one starving
//! the second, and a priority-2 user receives twice the share of a
//! priority-1 user.
//!
//! The queue is bounded: submissions beyond its capacity are rejected
//! with a diagnostic that names the capacity, the current depth, and the
//! per-user backlog — backpressure, not a wedge. [`SubmissionQueue::close`]
//! starts a preemption-free drain: no new submissions are accepted, but
//! everything already admitted runs to completion.
//!
//! The queue itself is not persisted. Its scheduling decisions are pure
//! functions of the submissions and admissions fed into it, so the serve
//! ledger (`pos_serve::ledger`) journals those transitions and rebuilds
//! the queue by replaying them through this same code.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One queued campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Submission {
    /// Queue-assigned id, unique and monotonically increasing.
    pub id: u64,
    /// Submitting user.
    pub user: String,
    /// The experiment to run (a spec directory path, or a name).
    pub experiment: String,
    /// Fair-share weight (≥ 1); a priority-2 submission costs its user
    /// half the virtual time of a priority-1 one.
    pub priority: u32,
    /// Client-chosen idempotency token. A resubmission carrying a token
    /// the server has already accepted is recognized as the same
    /// submission, not a new campaign — how a client safely retries
    /// after an ack it never saw (daemon killed between journal append
    /// and response). The serve ledger journals it with the submission;
    /// a JSON submission without the key has no token.
    #[serde(default)]
    pub token: Option<String>,
}

/// Why a submission was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// The queue is at capacity. The diagnostic carries everything a
    /// caller needs to back off intelligently.
    Full {
        /// The configured bound.
        capacity: usize,
        /// Submissions currently queued (equals `capacity`).
        depth: usize,
        /// Queued submissions per user, alphabetically.
        per_user: Vec<(String, usize)>,
        /// Deterministic backoff hint, seconds: one nominal campaign
        /// duration — a queue slot frees when the campaign currently
        /// executing finishes. The daemon surfaces it as an HTTP
        /// `Retry-After` header; `pos queue submit` prints it.
        retry_after_secs: u64,
    },
    /// The submitting user is over their per-user backlog cap. The queue
    /// as a whole still has room — this is fair-share backpressure
    /// against one user monopolizing it.
    Backlog {
        /// The user being pushed back.
        user: String,
        /// That user's queued submissions.
        backlog: usize,
        /// The configured per-user cap.
        limit: usize,
        /// Deterministic backoff hint, seconds: under stride fair share
        /// the user's own next completion comes around once per cycle of
        /// the distinct users currently queued, so the hint is
        /// `nominal campaign duration × distinct queued users`.
        retry_after_secs: u64,
    },
    /// The queue is draining; no new submissions are accepted.
    Closed,
}

impl QueueError {
    /// The deterministic backoff hint, when the rejection carries one
    /// ([`QueueError::Closed`] does not: a draining queue never reopens).
    pub fn retry_after_secs(&self) -> Option<u64> {
        match self {
            QueueError::Full {
                retry_after_secs, ..
            }
            | QueueError::Backlog {
                retry_after_secs, ..
            } => Some(*retry_after_secs),
            QueueError::Closed => None,
        }
    }
}

impl fmt::Display for QueueError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueError::Full {
                capacity,
                depth,
                per_user,
                retry_after_secs,
            } => {
                write!(
                    f,
                    "queue full: {depth}/{capacity} submissions queued (backlog:"
                )?;
                for (user, n) in per_user {
                    write!(f, " {user}={n}")?;
                }
                write!(f, "); retry after {retry_after_secs}s")
            }
            QueueError::Backlog {
                user,
                backlog,
                limit,
                retry_after_secs,
            } => write!(
                f,
                "user {user} over backlog cap: {backlog}/{limit} queued; \
                 retry after {retry_after_secs}s"
            ),
            QueueError::Closed => write!(f, "queue closed: draining, no new submissions"),
        }
    }
}

impl std::error::Error for QueueError {}

/// How an admitted submission's campaign ended.
///
/// A drain records one of these per submission instead of silently
/// forgetting it: a campaign that finishes *degraded* (failed or
/// quarantined runs, but the result tree is complete and journaled) is
/// `CompletedDegraded`, not dropped — and, crucially, not re-admitted on
/// the next drain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum CompletionOutcome {
    /// Every run succeeded.
    Completed,
    /// The campaign finished, but with failed or quarantined runs.
    CompletedDegraded,
    /// The campaign aborted; the submission may be worth resubmitting.
    Failed,
}

impl fmt::Display for CompletionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompletionOutcome::Completed => "completed",
            CompletionOutcome::CompletedDegraded => "completed_degraded",
            CompletionOutcome::Failed => "failed",
        })
    }
}

/// An admitted submission together with how its campaign ended.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompletedSubmission {
    /// The submission as admitted.
    pub submission: Submission,
    /// How the campaign ended.
    pub outcome: CompletionOutcome,
}

/// Point-in-time view of the queue (the `pos queue status` payload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueueStatus {
    /// Configured bound.
    pub capacity: usize,
    /// Submissions currently queued.
    pub depth: usize,
    /// Pending submissions in stored order.
    pub pending: Vec<Submission>,
    /// Total admissions so far.
    pub admitted: u64,
    /// Admitted submissions with a recorded completion outcome, in
    /// recording order.
    pub completed: Vec<CompletedSubmission>,
}

/// The bounded fair-share submission queue.
///
/// Scheduling decisions are pure functions of the queue's state, which
/// is itself a pure function of the submit/admit/record calls made on
/// it: replaying the same calls rebuilds the same queue.
#[derive(Debug, Clone)]
pub struct SubmissionQueue {
    capacity: usize,
    open: bool,
    next_id: u64,
    admitted: u64,
    pending: Vec<Submission>,
    /// Per-user stride pass: smallest pass is admitted next.
    passes: BTreeMap<String, f64>,
    /// Completion ledger: every admitted submission ends up here with
    /// its outcome, degraded completions included.
    completed: Vec<CompletedSubmission>,
    /// Per-user pending cap; 0 disables the cap.
    user_backlog: usize,
    /// Nominal wall-clock duration of one campaign, seconds — the unit
    /// of the deterministic `retry_after` hints (0 yields a 0s hint).
    nominal_campaign_secs: u64,
}

impl SubmissionQueue {
    /// An open, empty queue bounded to `capacity` submissions.
    pub fn new(capacity: usize) -> SubmissionQueue {
        assert!(capacity >= 1, "a queue needs room for at least one entry");
        SubmissionQueue {
            capacity,
            open: true,
            next_id: 0,
            admitted: 0,
            pending: Vec::new(),
            passes: BTreeMap::new(),
            completed: Vec::new(),
            user_backlog: 0,
            // Ten minutes: generous for the tiny case-study campaigns,
            // the right order of magnitude for the paper's real ones.
            nominal_campaign_secs: 600,
        }
    }

    /// Rebounds the queue. Shrinking below the current depth is allowed:
    /// nothing queued is dropped, new submissions are rejected until the
    /// backlog falls under the new bound. (Restart recovery replays the
    /// ledger into an unbounded queue, then restores the configured
    /// bound.)
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity >= 1, "a queue needs room for at least one entry");
        self.capacity = capacity;
    }

    /// Sets the per-user pending cap; 0 disables it.
    pub fn set_user_backlog(&mut self, cap: usize) {
        self.user_backlog = cap;
    }

    /// Sets the nominal campaign duration underlying `retry_after` hints.
    pub fn set_nominal_campaign_secs(&mut self, secs: u64) {
        self.nominal_campaign_secs = secs;
    }

    /// Submissions currently queued.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Queues a campaign. Bounded: at capacity the submission is rejected
    /// with a [`QueueError::Full`] diagnostic instead of blocking.
    pub fn submit(
        &mut self,
        user: impl Into<String>,
        experiment: impl Into<String>,
        priority: u32,
    ) -> Result<u64, QueueError> {
        self.submit_with_token(user, experiment, priority, None)
    }

    /// [`Self::submit`] carrying a client idempotency token (stored on
    /// the [`Submission`]; dedup against it is the server's job — the
    /// queue itself treats every call as a new submission).
    pub fn submit_with_token(
        &mut self,
        user: impl Into<String>,
        experiment: impl Into<String>,
        priority: u32,
        token: Option<String>,
    ) -> Result<u64, QueueError> {
        if !self.open {
            return Err(QueueError::Closed);
        }
        let user = user.into();
        if self.user_backlog > 0 {
            let backlog = self.pending.iter().filter(|s| s.user == user).count();
            if backlog >= self.user_backlog {
                // The user's own next slot comes around once per stride
                // cycle over the distinct users currently queued.
                let distinct = self
                    .pending
                    .iter()
                    .map(|s| s.user.as_str())
                    .collect::<std::collections::BTreeSet<_>>()
                    .len() as u64;
                return Err(QueueError::Backlog {
                    user,
                    backlog,
                    limit: self.user_backlog,
                    retry_after_secs: self.nominal_campaign_secs * distinct.max(1),
                });
            }
        }
        if self.pending.len() >= self.capacity {
            let mut per_user: BTreeMap<String, usize> = BTreeMap::new();
            for s in &self.pending {
                *per_user.entry(s.user.clone()).or_insert(0) += 1;
            }
            return Err(QueueError::Full {
                capacity: self.capacity,
                depth: self.pending.len(),
                per_user: per_user.into_iter().collect(),
                retry_after_secs: self.nominal_campaign_secs,
            });
        }
        // A user joining (or rejoining) starts at the current virtual
        // time floor, not at zero — otherwise a latecomer could replay
        // the whole backlog of shares it never waited for.
        let floor = self.passes.values().copied().fold(f64::INFINITY, f64::min);
        let floor = if floor.is_finite() { floor } else { 0.0 };
        let entry = self.passes.entry(user.clone()).or_insert(floor);
        *entry = entry.max(floor);
        let id = self.next_id;
        self.next_id += 1;
        self.pending.push(Submission {
            id,
            user,
            experiment: experiment.into(),
            priority: priority.max(1),
            token,
        });
        Ok(id)
    }

    /// Admits the next campaign in fair-share order: the queued user with
    /// the smallest stride pass (ties: lexicographically first user),
    /// FIFO within a user. Returns `None` when the queue is empty.
    pub fn admit(&mut self) -> Option<Submission> {
        let winner = self
            .pending
            .iter()
            .map(|s| (&s.user, self.passes.get(&s.user).copied().unwrap_or(0.0)))
            .min_by(|(ua, pa), (ub, pb)| {
                pa.partial_cmp(pb)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| ua.cmp(ub))
            })?
            .0
            .clone();
        let at = self
            .pending
            .iter()
            .position(|s| s.user == winner)
            .expect("winner has a pending submission");
        let sub = self.pending.remove(at);
        *self.passes.entry(winner).or_insert(0.0) += 1.0 / f64::from(sub.priority.max(1));
        self.admitted += 1;
        Some(sub)
    }

    /// Closes the queue for a preemption-free drain: further submissions
    /// are rejected with [`QueueError::Closed`], while everything already
    /// queued remains admittable via [`Self::admit`].
    pub fn close(&mut self) {
        self.open = false;
    }

    /// Records how an admitted submission's campaign ended. A degraded
    /// completion is a *completion*: the submission is done and must not
    /// be re-admitted by a later drain.
    pub fn record_outcome(&mut self, submission: Submission, outcome: CompletionOutcome) {
        self.completed.push(CompletedSubmission {
            submission,
            outcome,
        });
    }

    /// Snapshot for `pos queue status`.
    pub fn status(&self) -> QueueStatus {
        QueueStatus {
            capacity: self.capacity,
            depth: self.pending.len(),
            pending: self.pending.clone(),
            admitted: self.admitted,
            completed: self.completed.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_users_interleave_instead_of_starving() {
        let mut q = SubmissionQueue::new(16);
        for i in 0..3 {
            q.submit("alice", format!("exp-a{i}"), 1).unwrap();
        }
        for i in 0..3 {
            q.submit("bob", format!("exp-b{i}"), 1).unwrap();
        }
        let order: Vec<String> = std::iter::from_fn(|| q.admit()).map(|s| s.user).collect();
        assert_eq!(
            order,
            vec!["alice", "bob", "alice", "bob", "alice", "bob"],
            "equal-weight users alternate"
        );
    }

    #[test]
    fn priority_doubles_the_share() {
        let mut q = SubmissionQueue::new(16);
        for i in 0..4 {
            q.submit("alice", format!("a{i}"), 2).unwrap();
            q.submit("bob", format!("b{i}"), 1).unwrap();
        }
        let first_six: Vec<String> = (0..6).filter_map(|_| q.admit()).map(|s| s.user).collect();
        let alice = first_six.iter().filter(|u| *u == "alice").count();
        let bob = first_six.iter().filter(|u| *u == "bob").count();
        assert_eq!(alice, 4, "priority-2 user gets twice the admissions");
        assert_eq!(bob, 2);
    }

    #[test]
    fn fifo_within_a_user() {
        let mut q = SubmissionQueue::new(16);
        q.submit("alice", "first", 1).unwrap();
        q.submit("alice", "second", 1).unwrap();
        assert_eq!(q.admit().unwrap().experiment, "first");
        assert_eq!(q.admit().unwrap().experiment, "second");
    }

    #[test]
    fn bounded_queue_rejects_with_diagnostic() {
        let mut q = SubmissionQueue::new(2);
        q.submit("alice", "a0", 1).unwrap();
        q.submit("bob", "b0", 1).unwrap();
        let err = q.submit("carol", "c0", 1).unwrap_err();
        match &err {
            QueueError::Full {
                capacity,
                depth,
                per_user,
                retry_after_secs,
            } => {
                assert_eq!((*capacity, *depth), (2, 2));
                assert_eq!(
                    per_user,
                    &vec![("alice".to_string(), 1), ("bob".to_string(), 1)]
                );
                assert_eq!(
                    *retry_after_secs, 600,
                    "a slot frees when the running campaign finishes: one nominal duration"
                );
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(err.retry_after_secs(), Some(600));
        let msg = err.to_string();
        assert!(msg.contains("queue full"), "diagnostic names the condition");
        assert!(msg.contains("alice=1"), "diagnostic names the backlog");
        assert!(
            msg.contains("retry after 600s"),
            "diagnostic carries the hint"
        );
        // Rejection is backpressure, not a wedge: the queue still admits.
        assert!(q.admit().is_some());
        assert!(q.submit("carol", "c0", 1).is_ok());
    }

    /// Everything still admittable, in fair-share admission order.
    fn admit_all(q: &mut SubmissionQueue) -> Vec<Submission> {
        std::iter::from_fn(|| q.admit()).collect()
    }

    #[test]
    fn close_keeps_the_backlog_admittable_in_fair_order() {
        let mut q = SubmissionQueue::new(8);
        q.submit("alice", "a0", 1).unwrap();
        q.submit("alice", "a1", 1).unwrap();
        q.submit("bob", "b0", 1).unwrap();
        q.close();
        let drained = admit_all(&mut q);
        assert_eq!(drained.len(), 3);
        assert_eq!(drained[0].user, "alice");
        assert_eq!(drained[1].user, "bob");
        assert!(q.is_empty());
        assert_eq!(q.submit("alice", "a2", 1), Err(QueueError::Closed));
    }

    #[test]
    fn latecomer_starts_at_the_virtual_time_floor() {
        let mut q = SubmissionQueue::new(16);
        for i in 0..4 {
            q.submit("alice", format!("a{i}"), 1).unwrap();
        }
        q.admit();
        q.admit(); // alice's pass is now 2.0
        q.submit("bob", "b0", 1).unwrap();
        q.submit("bob", "b1", 1).unwrap();
        q.submit("bob", "b2", 1).unwrap();
        let next: Vec<String> = (0..5).filter_map(|_| q.admit()).map(|s| s.user).collect();
        let bob_lead = next.iter().take(2).filter(|u| *u == "bob").count();
        assert!(
            bob_lead >= 1,
            "bob is behind on virtual time and catches up, got {next:?}"
        );
    }

    #[test]
    fn degraded_completion_is_recorded_not_readmitted() {
        let mut q = SubmissionQueue::new(8);
        q.submit("alice", "exp-degraded", 1).unwrap();
        q.submit("bob", "exp-clean", 1).unwrap();
        let drained = admit_all(&mut q);
        assert_eq!(drained.len(), 2);
        q.record_outcome(drained[0].clone(), CompletionOutcome::CompletedDegraded);
        q.record_outcome(drained[1].clone(), CompletionOutcome::Completed);
        // The queue is empty: a second drain re-admits nothing.
        assert!(q.admit().is_none());
        let ledger = q.status().completed;
        assert_eq!(ledger.len(), 2);
        assert_eq!(ledger[0].outcome, CompletionOutcome::CompletedDegraded);
        assert_eq!(ledger[0].submission.experiment, "exp-degraded");
        assert_eq!(ledger[1].outcome, CompletionOutcome::Completed);
        assert_eq!(q.status().completed.len(), 2);
    }

    #[test]
    fn per_user_backlog_rejects_with_deterministic_retry_after() {
        let mut q = SubmissionQueue::new(16);
        q.set_user_backlog(2);
        q.set_nominal_campaign_secs(100);
        q.submit("alice", "a0", 1).unwrap();
        q.submit("alice", "a1", 1).unwrap();
        q.submit("bob", "b0", 1).unwrap();
        let err = q.submit("alice", "a2", 1).unwrap_err();
        match &err {
            QueueError::Backlog {
                user,
                backlog,
                limit,
                retry_after_secs,
            } => {
                assert_eq!(user, "alice");
                assert_eq!((*backlog, *limit), (2, 2));
                // Two distinct users queued: alice's next slot comes
                // around after one full stride cycle.
                assert_eq!(*retry_after_secs, 200);
            }
            other => panic!("expected Backlog, got {other:?}"),
        }
        assert_eq!(err.retry_after_secs(), Some(200));
        // Backpressure against alice only: bob still submits freely, and
        // alice recovers as soon as one of her campaigns is admitted.
        q.submit("bob", "b1", 1).unwrap();
        assert_eq!(q.admit().unwrap().user, "alice");
        assert!(q.submit("alice", "a2", 1).is_ok());
        // The hint is a pure function of queue state: same state, same
        // hint.
        q.submit("alice", "a3", 1).ok();
        let e1 = q.submit("alice", "a4", 1).unwrap_err();
        let e2 = q.submit("alice", "a4", 1).unwrap_err();
        assert_eq!(e1, e2, "retry-after is deterministic");
    }

    #[test]
    fn closed_rejection_has_no_retry_hint() {
        let mut q = SubmissionQueue::new(2);
        q.close();
        let err = q.submit("alice", "a0", 1).unwrap_err();
        assert_eq!(err, QueueError::Closed);
        assert_eq!(err.retry_after_secs(), None, "a drain never reopens");
    }

    #[test]
    fn token_survives_admission_and_json() {
        let mut q = SubmissionQueue::new(4);
        q.submit_with_token("alice", "a0", 1, Some("tok-1".into()))
            .unwrap();
        let sub = q.admit().unwrap();
        assert_eq!(sub.token.as_deref(), Some("tok-1"));
        let json = serde_json::to_string(&sub).unwrap();
        let back: Submission = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sub);
        // A submission without a `token` key still loads.
        let old = r#"{"id":7,"user":"u","experiment":"e","priority":1}"#;
        let sub: Submission = serde_json::from_str(old).unwrap();
        assert_eq!(sub.token, None);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The stride fair-share bound: among users who were never
            /// caught without pending work, normalized service (admissions
            /// divided by weight) never diverges by more than one quantum
            /// — a *constant*, independent of how long or how adversarial
            /// the churn is. This is the textbook stride-scheduling
            /// throughput-error bound, checked end to end through the
            /// queue's public API under bursty submissions, mixed
            /// priority weights, and interleaved admissions.
            #[test]
            fn stride_fairness_error_stays_bounded(
                weights in proptest::collection::vec(1u32..4, 2..5),
                // Adversarial churn, one op per tuple: kind 0 = user
                // `user % n` submits a burst of `count` campaigns,
                // kind 1 = the scheduler admits `count` campaigns.
                ops in proptest::collection::vec((0..2usize, 0..4usize, 1..4usize), 1..60),
            ) {
                let users: Vec<String> =
                    (0..weights.len()).map(|i| format!("user{i}")).collect();
                let mut q = SubmissionQueue::new(1024);
                // Every user joins before the first admission and posts an
                // initial burst, so all start at the same virtual-time
                // floor with work pending.
                for (user, w) in users.iter().zip(&weights) {
                    for n in 0..2 {
                        q.submit(user.clone(), format!("seed-{n}"), *w).unwrap();
                    }
                }
                let mut admissions: BTreeMap<String, u64> = BTreeMap::new();
                // Users stay in the fairness comparison only while they
                // were *continuously backlogged*: once a user is found
                // idle at an admission instant, stride owes them nothing.
                let mut always_backlogged: std::collections::BTreeSet<String> =
                    users.iter().cloned().collect();
                let check = |q: &mut SubmissionQueue,
                                 admissions: &mut BTreeMap<String, u64>,
                                 always: &mut std::collections::BTreeSet<String>|
                 -> Result<(), TestCaseError> {
                    for user in users.iter() {
                        if q.status().pending.iter().all(|s| &s.user != user) {
                            always.remove(user);
                        }
                    }
                    let Some(sub) = q.admit() else { return Ok(()) };
                    *admissions.entry(sub.user.clone()).or_insert(0) += 1;
                    let normalized: Vec<f64> = always
                        .iter()
                        .map(|u| {
                            let idx: usize =
                                u.strip_prefix("user").unwrap().parse().unwrap();
                            let served = admissions.get(u).copied().unwrap_or(0);
                            served as f64 / f64::from(weights[idx])
                        })
                        .collect();
                    if let (Some(max), Some(min)) = (
                        normalized.iter().copied().reduce(f64::max),
                        normalized.iter().copied().reduce(f64::min),
                    ) {
                        // One quantum: the largest pass advance a single
                        // admission can cause is 1/min_weight = 1.
                        prop_assert!(
                            max - min <= 1.0 + 1e-9,
                            "fair-share error {} exceeds one quantum \
                             (admissions {:?}, weights {:?})",
                            max - min,
                            admissions,
                            weights
                        );
                    }
                    Ok(())
                };
                for (kind, user, count) in &ops {
                    if *kind == 0 {
                        let user = user % users.len();
                        for n in 0..*count {
                            let _ = q.submit(
                                users[user].clone(),
                                format!("burst-{n}"),
                                weights[user],
                            );
                        }
                    } else {
                        for _ in 0..*count {
                            check(&mut q, &mut admissions, &mut always_backlogged)?;
                        }
                    }
                }
                // Final drain: admissions continue in fair order to empty.
                while !q.is_empty() {
                    check(&mut q, &mut admissions, &mut always_backlogged)?;
                }
            }
        }
    }
}
