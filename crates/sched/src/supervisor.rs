//! Lane supervision: deterministic failover for parallel campaigns.
//!
//! The scheduler in [`crate::scheduler`] treats worker lanes as immortal.
//! Real replica testbeds are not: hosts wedge, management planes die,
//! and occasionally a single pathological run reliably takes its machine
//! down with it. This module adds a `LaneSupervisor` that drives the
//! dispatch loop under failure:
//!
//! * **Watchdog** — each completed run is checked against a deadline of
//!   `grace_factor ×` the campaign's per-run estimate (the first
//!   completed run's virtual duration). A lane whose run overruns the
//!   budget is declared wedged and retired; the overrunning run's
//!   artifacts are still accepted (it *did* finish — the lane is merely
//!   no longer trusted).
//! * **Lane retirement** — a dead lane is journaled as `LaneRetired` and
//!   never selected again; its occupancy history keeps contributing to
//!   the makespan. Unstarted runs flow to the surviving lanes through
//!   the ordinary earliest-free-lane queue, or onto a **replacement
//!   lane** replanned from the site calendar (bare-metal replica set
//!   when the site still owns a free one) or the clone pool (`vpos`)
//!   under [`LaneRecovery::Replacement`]. When the last live lane dies,
//!   a replacement is forced regardless of policy.
//! * **Retry ladder** — a run whose lane died under it is retried on the
//!   next lane after a deterministic backoff drawn from the
//!   `testbed/lane{k}/retry{run}` stream ([`pos_simkernel::lane_retry_rng`]).
//!   Every ladder step is journaled as `RunRetry` so a resume replays
//!   the exact ladder.
//! * **Poison-run quarantine** — a run that kills
//!   [`SupervisorOptions::poison_threshold`] lanes is quarantined: it is
//!   sealed as a failed, zero-width run (canonical start == finish) with
//!   a forensic bundle under `quarantine/run-NNNN/`, and the campaign
//!   carries on. The campaign then finishes *degraded* rather than dead.
//!
//! # Why failover preserves byte-identity
//!
//! Measurement artifacts depend only on (seed, run label, canonical
//! start instant) — never on which lane executes a run. The supervisor
//! is careful to keep every failover decision on the *occupancy* side of
//! that line:
//!
//! * retiring a lane changes only which replica executes later runs;
//! * ladder delays are charged to lane occupancy (`LaneSet::occupy`),
//!   never to the canonical cursor, and their jitter comes from
//!   dedicated `testbed/lane{k}/retry{run}` streams that no other
//!   component reads;
//! * a quarantined run occupies zero canonical width, so every
//!   subsequent run keeps the canonical start it would have had in a
//!   sequential execution with the same fault plan;
//! * replacement-lane setup time is modeled on the replacement's own
//!   clock and its lane joins the queue at `cursor + setup`, leaving
//!   the canonical timeline untouched.
//!
//! Hence the merged result tree stays byte-identical to `--lanes 1`
//! under the same fault plan — journals excepted, since they *are* the
//! record of the failover. One caveat: a replacement lane drawn from the
//! *clone pool* (the site owns no free bare-metal replica set) measures
//! with `vpos` fidelity, exactly like a planned `vpos` lane — the
//! canonical timeline is preserved, the fidelity trade-off of the
//! paper's Table 1 is not suspended.

use crate::plan::{site_host_sets, LaneFlavor};
use pos_core::controller::{
    CampaignSetup, Controller, ControllerError, HostHealth, RunOptions, RunRecord,
};
use pos_core::experiment::ExperimentSpec;
use pos_core::journal::{lane_journal_file, Journal, JournalRecord, JOURNAL_FILE};
use pos_core::loopvars::RunParams;
use pos_core::recovery::{FailoverHistory, RunCompletion};
use pos_core::resultstore::{run_metadata, ResultStore};
use pos_simkernel::{lane_retry_rng, lane_stream_label, Backoff, LaneSet, SimDuration, SimTime};
use pos_testbed::{Calendar, ReservationId, Testbed};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Opens lane `k`'s journal for appending, creating it with its
/// `LaneStarted` header when absent. Crash injection is armed before the
/// header append, so an armed lane can crash on its very first record.
fn lane_journal(
    opts: &RunOptions,
    store: &ResultStore,
    seed: u64,
    k: usize,
    flavor: LaneFlavor,
    lane: &Controller<'_>,
) -> Result<Journal, ControllerError> {
    let path = store.dir().join(lane_journal_file(k));
    let fresh = !path.exists();
    let mut journal = if fresh {
        Journal::create_with(&path, opts.vfs.clone())
    } else {
        Journal::open_append_with(&path, opts.vfs.clone())
    }
    .map_err(ControllerError::journal_io)?;
    journal.arm_crash(opts.journal_crash_after, opts.journal_torn_write);
    if fresh {
        journal
            .append(&JournalRecord::LaneStarted {
                lane: k,
                seed,
                flavor: flavor.label().to_string(),
                started_ns: lane.testbed().now().as_nanos(),
            })
            .map_err(ControllerError::journal_io)?;
    }
    Ok(journal)
}

/// What to do with a retired lane's share of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum LaneRecovery {
    /// Fold the dead lane's work back into the surviving lanes through
    /// the earliest-free-lane queue. A replacement is still replanned
    /// when the *last* live lane dies.
    Redistribute,
    /// Replan a replacement lane from the site calendar (bare-metal
    /// replica set if the site still owns a free one, virtual clone
    /// otherwise) after every retirement.
    Replacement,
}

/// A deterministic injected lane death: lane `lane` dies at the run
/// boundary after it has dispatched `after_dispatches` runs. Like the
/// chaos plans, the fault is data — the same plan reproduces the same
/// failover on every execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneDeath {
    /// The lane to kill.
    pub lane: usize,
    /// Number of runs the lane dispatches before dying (0 = dies before
    /// its first run).
    pub after_dispatches: usize,
}

/// The supervisor's injected-fault plan.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LaneFaultPlan {
    /// Lane deaths at run boundaries.
    #[serde(default)]
    pub lane_deaths: Vec<LaneDeath>,
    /// Runs that kill every lane they are dispatched to (until the
    /// poison threshold quarantines them).
    #[serde(default)]
    pub poison_runs: Vec<usize>,
}

impl LaneFaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.lane_deaths.is_empty() && self.poison_runs.is_empty()
    }
}

/// Lane-supervision configuration, journaled as `SupervisorPlan` so a
/// resume replays the exact same failover decisions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SupervisorOptions {
    /// Watchdog budget as a multiple of the per-run estimate (the first
    /// completed run's virtual duration). A completed run longer than
    /// `grace_factor × estimate` retires its lane.
    pub grace_factor: f64,
    /// Number of lanes one run may kill before it is quarantined.
    pub poison_threshold: u32,
    /// What to do with a retired lane's share of the campaign.
    pub recovery: LaneRecovery,
    /// Injected lane faults (empty in production).
    #[serde(default)]
    pub fault_plan: LaneFaultPlan,
}

impl Default for SupervisorOptions {
    fn default() -> SupervisorOptions {
        SupervisorOptions {
            grace_factor: 8.0,
            poison_threshold: 2,
            recovery: LaneRecovery::Redistribute,
            fault_plan: LaneFaultPlan::default(),
        }
    }
}

/// What the supervised dispatch loop produced, for the merge step.
pub(crate) struct DispatchStats {
    pub records: Vec<RunRecord>,
    pub failed_runs: Vec<usize>,
    pub quarantined_hosts: Vec<String>,
    pub quarantined_runs: Vec<usize>,
    pub recoveries: u32,
    pub recovery_time: SimDuration,
    pub lane_runs: Vec<Vec<usize>>,
    /// Canonical finish: the last run's canonical end instant.
    pub finished: SimTime,
}

/// Drives the dispatch loop of a parallel campaign under lane failure.
///
/// Owns the lane controllers, per-lane journals, and the site calendar
/// (so it can replan replacement lanes mid-campaign); the scheduler
/// constructs it after the setup phase, runs [`LaneSupervisor::dispatch`],
/// merges from the surviving state, and releases every reservation via
/// [`LaneSupervisor::teardown`].
pub(crate) struct LaneSupervisor<'a> {
    spec: &'a ExperimentSpec,
    opts: &'a RunOptions,
    sopts: &'a SupervisorOptions,
    /// Bare-metal replica sets the site owns; replacement lane `k` gets
    /// a bare-metal set only while `k < site_replicas`.
    site_replicas: usize,
    seed: u64,
    total: usize,
    pub lanes: Vec<Controller<'static>>,
    pub lane_journals: Vec<Journal>,
    pub flavors: Vec<LaneFlavor>,
    setups: Vec<CampaignSetup>,
    site: Calendar,
    site_reservations: Vec<ReservationId>,
    laneset: LaneSet,
    /// Runs dispatched per lane (boundary-death trigger counts).
    dispatched: Vec<usize>,
    /// Run indices executed (or verified-skipped) per lane.
    lane_assignments: Vec<Vec<usize>>,
    /// Run → lanes it has killed so far.
    kills: BTreeMap<usize, u32>,
    /// Run → ladder attempts taken so far.
    ladder: BTreeMap<usize, u32>,
    /// Which fault-plan lane deaths have fired.
    fired: Vec<bool>,
    /// (lane, reason) in retirement order.
    pub retired: Vec<(usize, String)>,
    /// Replacement lanes replanned (this session + resumed).
    pub replanned: usize,
    /// Virtual time spent failing over: ladder delays plus
    /// replacement-lane setup.
    pub failover_time: SimDuration,
    /// Ladder steps taken (this session).
    pub ladder_retries: u32,
    /// First completed run's duration: the watchdog's budget unit.
    estimate: Option<SimDuration>,
}

impl<'a> LaneSupervisor<'a> {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        spec: &'a ExperimentSpec,
        opts: &'a RunOptions,
        sopts: &'a SupervisorOptions,
        site_replicas: usize,
        seed: u64,
        total: usize,
        store: &ResultStore,
        lanes: Vec<Controller<'static>>,
        flavors: Vec<LaneFlavor>,
        setups: Vec<CampaignSetup>,
        site: Calendar,
        site_reservations: Vec<ReservationId>,
        prior: &FailoverHistory,
    ) -> Result<LaneSupervisor<'a>, ControllerError> {
        let lane_journals = lanes
            .iter()
            .zip(&flavors)
            .enumerate()
            .map(|(k, (lane, &flavor))| lane_journal(opts, store, seed, k, flavor, lane))
            .collect::<Result<Vec<_>, _>>()?;
        let laneset = LaneSet::new(lanes.iter().map(|c| c.testbed().now()).collect());
        let dispatched = vec![0; lanes.len()];
        let lane_assignments = vec![Vec::new(); lanes.len()];
        let fired = vec![false; sopts.fault_plan.lane_deaths.len()];
        let mut sup = LaneSupervisor {
            spec,
            opts,
            sopts,
            site_replicas,
            seed,
            total,
            lanes,
            lane_journals,
            flavors,
            setups,
            site,
            site_reservations,
            laneset,
            dispatched,
            lane_assignments,
            kills: BTreeMap::new(),
            ladder: prior.ladder.clone(),
            fired,
            retired: Vec::new(),
            replanned: prior.replanned.len(),
            failover_time: SimDuration::ZERO,
            ladder_retries: 0,
            estimate: None,
        };
        // Journaled retirements replay before any dispatching: a dead
        // lane stays dead across a resume, and each run counts the lanes
        // it killed. An injected death whose lane is already retired can
        // never fire again.
        let mut retired = BTreeMap::new();
        for r in &prior.retired {
            retired.insert(r.lane, r.reason.clone());
            if let Some(run) = r.run {
                *sup.kills.entry(run).or_insert(0) += 1;
            }
        }
        for (lane, reason) in retired {
            sup.laneset.retire(lane);
            for (j, death) in sup.sopts.fault_plan.lane_deaths.iter().enumerate() {
                if death.lane == lane {
                    sup.fired[j] = true;
                }
            }
            sup.retired.push((lane, reason));
        }
        Ok(sup)
    }

    /// The instant the last lane finishes — the parallel makespan's end.
    pub fn makespan_end(&self) -> SimTime {
        self.laneset.makespan_end()
    }

    /// Releases every reservation the campaign holds: each lane's own
    /// calendar reservation plus the site-calendar sets (original and
    /// replacement).
    pub fn teardown(&mut self) {
        for (lane, setup) in self.lanes.iter_mut().zip(&self.setups) {
            lane.testbed_mut().calendar.release(setup.reservation);
        }
        for id in self.site_reservations.drain(..) {
            self.site.release(id);
        }
    }

    /// The supervised dispatch loop: every run in cross-product order,
    /// each to the earliest-free live lane, with retirement, retry
    /// ladders, quarantine, and replacement replanning along the way.
    pub fn dispatch(
        &mut self,
        store: &ResultStore,
        sched_journal: &mut Journal,
        runs: &[RunParams],
        verified: &BTreeMap<usize, RunCompletion>,
        make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
    ) -> Result<DispatchStats, ControllerError> {
        let mut cursor = self.lanes[0].testbed().now();
        let mut records: Vec<RunRecord> = Vec::with_capacity(self.total);
        let mut failed_runs: Vec<usize> = Vec::new();
        let mut quarantined_hosts: Vec<String> = Vec::new();
        let mut quarantined_runs: Vec<usize> = Vec::new();
        let mut total_recoveries = 0u32;
        let mut total_recovery_time = SimDuration::ZERO;
        let poison: BTreeSet<usize> = self.sopts.fault_plan.poison_runs.iter().copied().collect();

        for run in runs {
            if let Some(done) = verified.get(&run.index) {
                // Verified complete by an earlier session: account its
                // canonical interval to the lane it deterministically
                // lands on and move the cursor — exactly the bookkeeping
                // executing it would have done, retirement decisions
                // included.
                let lane = self.select_lane(store, sched_journal, cursor, make_lane)?;
                let fin = SimTime::from_nanos(done.finished_ns);
                let dur = fin - SimTime::from_nanos(done.started_ns);
                self.laneset.occupy(lane, dur);
                self.dispatched[lane] += 1;
                cursor = fin;
                self.lane_run(lane, run.index);
                total_recoveries += done.recoveries;
                total_recovery_time += SimDuration::from_nanos(done.recovery_time_ns);
                if !done.success {
                    failed_runs.push(run.index);
                    if self.kills.get(&run.index).copied().unwrap_or(0)
                        >= self.sopts.poison_threshold
                    {
                        quarantined_runs.push(run.index);
                    }
                }
                self.watchdog(sched_journal, lane, run.index, dur, cursor)?;
                let run_dir = store.run_dir(run.index)?;
                let outputs = Controller::reload_run_outputs(self.spec, &run_dir)?;
                records.push(RunRecord {
                    params: run.clone(),
                    outputs,
                    attempts: done.attempts,
                    success: done.success,
                    recoveries: done.recoveries,
                    fault_trace: done.fault_trace.clone(),
                });
                continue;
            }

            // Live dispatch, possibly across several lane deaths.
            let record = loop {
                let lane = self.select_lane(store, sched_journal, cursor, make_lane)?;

                if poison.contains(&run.index) {
                    // A resumed campaign may already have this run's
                    // kills journaled; quarantine without killing again
                    // so the forensic record matches an uninterrupted
                    // execution.
                    if self.kills.get(&run.index).copied().unwrap_or(0)
                        >= self.sopts.poison_threshold
                    {
                        break self.quarantine(store, sched_journal, run, cursor)?;
                    }
                    let kills = {
                        let k = self.kills.entry(run.index).or_insert(0);
                        *k += 1;
                        *k
                    };
                    self.retire_lane(
                        sched_journal,
                        lane,
                        format!("poison run {:04} wedged the lane", run.index),
                        Some(run.index),
                        cursor,
                    )?;
                    self.maybe_replan(store, sched_journal, cursor, make_lane)?;
                    if kills >= self.sopts.poison_threshold {
                        break self.quarantine(store, sched_journal, run, cursor)?;
                    }
                    // Retry ladder: charge a deterministic backoff to the
                    // next victim's occupancy clock before it attempts
                    // the run. The canonical cursor does not move.
                    let to = self.select_lane(store, sched_journal, cursor, make_lane)?;
                    let attempt = {
                        let a = self.ladder.entry(run.index).or_insert(0);
                        *a += 1;
                        *a
                    };
                    let delay = ladder_delay(self.opts, self.seed, to, run.index, attempt);
                    self.laneset.occupy(to, delay);
                    self.failover_time += delay;
                    self.ladder_retries += 1;
                    sched_journal
                        .append(&JournalRecord::RunRetry {
                            index: run.index,
                            attempt,
                            lane: to,
                            delay_ns: delay.as_nanos(),
                            at_ns: cursor.as_nanos(),
                        })
                        .map_err(ControllerError::journal_io)?;
                    continue;
                }

                // Pin the lane's clock to the run's canonical start:
                // artifacts derive from (seed, start instant), so this
                // makes every byte match the sequential timeline
                // regardless of lane count or failover history.
                let controller = &mut self.lanes[lane];
                controller.testbed_mut().set_now(cursor);
                let ahead = controller.run_ahead(self.spec, self.opts, run);
                let step = controller.commit_run(
                    self.spec,
                    self.opts,
                    store,
                    &mut self.lane_journals[lane],
                    ahead,
                    self.total,
                )?;
                let dur = step.finished - step.started;
                self.laneset.occupy(lane, dur);
                self.dispatched[lane] += 1;
                cursor = step.finished;
                self.lane_run(lane, run.index);
                total_recoveries += step.recoveries;
                total_recovery_time += step.recovery_time;
                quarantined_hosts.extend(step.quarantined);
                if !step.record.success {
                    failed_runs.push(run.index);
                }
                // A lane whose every experiment host is quarantined can
                // never produce another healthy run: retire it now
                // rather than letting it fail every future dispatch.
                let all_quarantined = self
                    .spec
                    .hosts()
                    .iter()
                    .all(|h| self.lanes[lane].host_health(h) == HostHealth::Quarantined);
                if all_quarantined && !self.laneset.is_retired(lane) {
                    self.retire_lane(
                        sched_journal,
                        lane,
                        "every experiment host quarantined".to_string(),
                        None,
                        cursor,
                    )?;
                    self.maybe_replan(store, sched_journal, cursor, make_lane)?;
                }
                self.watchdog(sched_journal, lane, run.index, dur, cursor)?;
                break step.record;
            };
            if record.attempts == 0 && !record.success && poison.contains(&run.index) {
                failed_runs.push(run.index);
                quarantined_runs.push(run.index);
            }
            records.push(record);
        }

        Ok(DispatchStats {
            records,
            failed_runs,
            quarantined_hosts,
            quarantined_runs,
            recoveries: total_recoveries,
            recovery_time: total_recovery_time,
            lane_runs: self.collect_lane_runs(),
            finished: cursor,
        })
    }

    // ------------------------------------------------------------------
    // Lane selection and retirement

    /// Picks the next live lane, firing any injected boundary deaths the
    /// selection trips over and forcing a replacement when the last live
    /// lane dies.
    fn select_lane(
        &mut self,
        store: &ResultStore,
        sched_journal: &mut Journal,
        cursor: SimTime,
        make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
    ) -> Result<usize, ControllerError> {
        loop {
            if self.laneset.live_lanes() == 0 {
                // Forced replanning: even under Redistribute a campaign
                // with zero live lanes must get a replacement or die.
                self.replan_replacement(store, sched_journal, cursor, make_lane)?;
            }
            let lane = self.laneset.next_lane();
            if let Some(j) = self.boundary_death_due(lane) {
                self.fired[j] = true;
                self.retire_lane(
                    sched_journal,
                    lane,
                    "injected lane fault at run boundary".to_string(),
                    None,
                    cursor,
                )?;
                self.maybe_replan(store, sched_journal, cursor, make_lane)?;
                continue;
            }
            return Ok(lane);
        }
    }

    /// An unfired injected death due on `lane` at its current dispatch
    /// count, if any.
    fn boundary_death_due(&self, lane: usize) -> Option<usize> {
        self.sopts
            .fault_plan
            .lane_deaths
            .iter()
            .enumerate()
            .find(|(j, d)| {
                !self.fired[*j] && d.lane == lane && d.after_dispatches <= self.dispatched[lane]
            })
            .map(|(j, _)| j)
    }

    /// Retires `lane` with a journaled `LaneRetired` record.
    fn retire_lane(
        &mut self,
        sched_journal: &mut Journal,
        lane: usize,
        reason: String,
        run: Option<usize>,
        cursor: SimTime,
    ) -> Result<(), ControllerError> {
        self.laneset.retire(lane);
        sched_journal
            .append(&JournalRecord::LaneRetired {
                lane,
                at_ns: cursor.as_nanos(),
                reason: reason.clone(),
                run,
            })
            .map_err(ControllerError::journal_io)?;
        self.retired.push((lane, reason));
        Ok(())
    }

    /// Checks a completed run against the watchdog deadline, retiring
    /// the lane on overrun (the run itself is kept: it finished — the
    /// lane is merely no longer trusted). The first completed run sets
    /// the estimate.
    fn watchdog(
        &mut self,
        sched_journal: &mut Journal,
        lane: usize,
        run_index: usize,
        duration: SimDuration,
        cursor: SimTime,
    ) -> Result<(), ControllerError> {
        match self.estimate {
            None => self.estimate = Some(duration),
            Some(est) => {
                let budget = est.as_nanos() as f64 * self.sopts.grace_factor;
                if duration.as_nanos() as f64 > budget && !self.laneset.is_retired(lane) {
                    self.retire_lane(
                        sched_journal,
                        lane,
                        format!(
                            "watchdog overrun: run {run_index:04} took {}ns against a \
                             {:.1}x budget of {}ns",
                            duration.as_nanos(),
                            self.sopts.grace_factor,
                            est.as_nanos()
                        ),
                        None,
                        cursor,
                    )?;
                    // Dummy make_lane is unavailable here; replanning on
                    // watchdog retirement happens lazily at the next
                    // select_lane (forced when no lane is left).
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Replacement replanning

    /// Replans a replacement lane after a retirement when the recovery
    /// policy asks for one.
    fn maybe_replan(
        &mut self,
        store: &ResultStore,
        sched_journal: &mut Journal,
        cursor: SimTime,
        make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
    ) -> Result<(), ControllerError> {
        if self.sopts.recovery == LaneRecovery::Replacement {
            self.replan_replacement(store, sched_journal, cursor, make_lane)?;
        }
        Ok(())
    }

    /// Provisions lane `len()`: a bare-metal replica set from the site
    /// calendar while the site still owns one, a virtual clone replica
    /// otherwise. The new lane runs the full setup phase; its setup time
    /// is failover overhead and it joins the queue at `cursor + setup`.
    fn replan_replacement(
        &mut self,
        store: &ResultStore,
        sched_journal: &mut Journal,
        cursor: SimTime,
        make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
    ) -> Result<(), ControllerError> {
        let k = self.lanes.len();
        let mut flavor = LaneFlavor::Virtual;
        if k < self.site_replicas {
            let sets = site_host_sets(&self.spec.hosts(), k + 1);
            match self.site.reserve(
                self.spec.user.clone(),
                &sets[k],
                SimTime::ZERO,
                SimDuration::from_secs(self.spec.planned_duration_secs),
            ) {
                Ok(id) => {
                    self.site_reservations.push(id);
                    flavor = LaneFlavor::BareMetal;
                }
                // Calendar conflict: fall through to a clone replica.
                Err(_) => flavor = LaneFlavor::Virtual,
            }
        }

        let mut tb = make_lane(k, flavor)?;
        tb.rederive_management_rng(&lane_stream_label(k));
        tb.set_command_timeout(self.opts.command_timeout);
        let mut lane = Controller::owning(tb);
        let setup = lane.setup_campaign(self.spec, self.opts, None, self.total)?;
        let setup_elapsed = lane.testbed().now() - setup.started;
        self.failover_time += setup_elapsed;

        sched_journal
            .append(&JournalRecord::LaneReplanned {
                lane: k,
                flavor: flavor.label().to_string(),
                at_ns: cursor.as_nanos(),
            })
            .map_err(ControllerError::journal_io)?;
        let j = lane_journal(self.opts, store, self.seed, k, flavor, &lane)?;

        let idx = self.laneset.add_lane(cursor + setup_elapsed);
        debug_assert_eq!(idx, k);
        self.lanes.push(lane);
        self.lane_journals.push(j);
        self.flavors.push(flavor);
        self.setups.push(setup);
        self.dispatched.push(0);
        self.replanned += 1;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Quarantine

    /// Seals a poison run as a failed, zero-width run with a forensic
    /// bundle, so the campaign completes degraded instead of dying.
    ///
    /// The sealed run dir (metadata + checksum manifest) and both
    /// journal records make the quarantine indistinguishable from an
    /// ordinary failed run to resume verification and `pos fsck` — and
    /// byte-identical across lane counts, because nothing in the bundle
    /// report depends on which lanes died.
    fn quarantine(
        &mut self,
        store: &ResultStore,
        sched_journal: &mut Journal,
        run: &RunParams,
        cursor: SimTime,
    ) -> Result<RunRecord, ControllerError> {
        let kills = self.kills.get(&run.index).copied().unwrap_or(0);
        store.wipe_run(run.index)?;
        let hosts_map: BTreeMap<String, String> = self
            .spec
            .roles
            .iter()
            .map(|r| (r.role.clone(), r.host.clone()))
            .collect();
        store.write_run_metadata(&run_metadata(run, cursor, cursor, 0, false, hosts_map))?;
        let digest = store.finalize_run(run.index)?;

        let fault_trace = vec![format!(
            "run {:04}: poison run quarantined after killing {kills} lane(s)",
            run.index
        )];
        self.write_forensic_bundle(store, run, cursor, kills)?;
        sched_journal
            .append(&JournalRecord::RunQuarantined {
                index: run.index,
                lanes_killed: kills,
                at_ns: cursor.as_nanos(),
            })
            .map_err(ControllerError::journal_io)?;
        sched_journal
            .append(&JournalRecord::RunCompleted {
                index: run.index,
                success: false,
                attempts: 0,
                recoveries: 0,
                recovery_time_ns: 0,
                started_ns: cursor.as_nanos(),
                finished_ns: cursor.as_nanos(),
                rng_cursor: 0,
                digest,
                fault_trace: fault_trace.clone(),
            })
            .map_err(ControllerError::journal_io)?;

        Ok(RunRecord {
            params: run.clone(),
            outputs: BTreeMap::new(),
            attempts: 0,
            success: false,
            recoveries: 0,
            fault_trace,
        })
    }

    /// Writes `quarantine/run-NNNN/`: a deterministic `report.json`
    /// (identical across lane counts) plus a `journal-tail.log` forensic
    /// capture — journal tail, killing lanes' host health, recent
    /// warnings. The capture's file name starts with `journal` on
    /// purpose: byte-identity comparisons exempt journals, and the
    /// capture records the (lane-count-dependent) failover history.
    fn write_forensic_bundle(
        &self,
        store: &ResultStore,
        run: &RunParams,
        cursor: SimTime,
        kills: u32,
    ) -> Result<(), ControllerError> {
        /// The deterministic half of the bundle: nothing in here may
        /// depend on lane count or failover history beyond the kill
        /// count, which the poison threshold fixes.
        #[derive(Serialize)]
        struct QuarantineReport {
            index: usize,
            label: String,
            canonical_start_ns: u64,
            lanes_killed: u32,
            poison_threshold: u32,
            verdict: String,
        }
        let report = QuarantineReport {
            index: run.index,
            label: run.label(),
            canonical_start_ns: cursor.as_nanos(),
            lanes_killed: kills,
            poison_threshold: self.sopts.poison_threshold,
            verdict: "quarantined".to_string(),
        };
        let dir = format!("quarantine/run-{:04}", run.index);
        store.write(
            &format!("{dir}/report.json"),
            format!(
                "{}\n",
                serde_json::to_string_pretty(&report).expect("report serializes")
            ),
        )?;

        let mut tail = String::new();
        tail.push_str("# forensic capture: poison-run quarantine\n");
        if let Ok(replay) = Journal::<JournalRecord>::replay(&store.dir().join(JOURNAL_FILE)) {
            tail.push_str("## scheduler journal tail\n");
            let n = replay.records.len();
            for rec in replay.records.iter().skip(n.saturating_sub(16)) {
                tail.push_str(&format!("{rec:?}\n"));
            }
        }
        tail.push_str("## retired lanes\n");
        for (lane, reason) in &self.retired {
            tail.push_str(&format!("lane {lane}: {reason}\n"));
        }
        tail.push_str("## host health on retired lanes\n");
        for (lane, _) in &self.retired {
            for host in self.spec.hosts() {
                tail.push_str(&format!(
                    "lane {lane} {host}: {:?}\n",
                    self.lanes[*lane].host_health(&host)
                ));
            }
        }
        store.write(&format!("{dir}/journal-tail.log"), tail)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Bookkeeping

    /// Per-lane run lists grow as replacement lanes appear; this keeps
    /// them sized to the final lane count.
    fn lane_run(&mut self, lane: usize, index: usize) {
        if self.lane_assignments.len() <= lane {
            self.lane_assignments
                .resize(self.lanes.len().max(lane + 1), Vec::new());
        }
        self.lane_assignments[lane].push(index);
    }

    fn collect_lane_runs(&self) -> Vec<Vec<usize>> {
        let mut v = self.lane_assignments.clone();
        v.resize(self.lanes.len(), Vec::new());
        v
    }
}

/// The `attempt`-th delay of run `index`'s retry ladder on lane `to`:
/// a pure function of (seed, lane, run, attempt), so resume replays the
/// exact ladder from the journaled attempt count.
fn ladder_delay(
    opts: &RunOptions,
    seed: u64,
    to: usize,
    index: usize,
    attempt: u32,
) -> SimDuration {
    let mut backoff = Backoff::new(
        opts.backoff_base,
        opts.backoff_cap,
        lane_retry_rng(seed, to, index),
    );
    let mut delay = SimDuration::ZERO;
    for _ in 0..attempt.max(1) {
        delay = backoff.next_delay();
    }
    delay
}
