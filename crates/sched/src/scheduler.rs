//! The deterministic parallel campaign scheduler.
//!
//! A campaign's expanded cross product is dispatched over `N` *worker
//! lanes* — same-seed replica testbeds, each running the full setup phase
//! — using the greedy list-scheduling discipline of
//! [`pos_simkernel::LaneSet`]: the next run always goes to the lane that
//! frees up earliest. Because that choice depends only on the schedule so
//! far, the whole dispatch is a pure function of (spec, seed, lane
//! count, fault plan).
//!
//! # The determinism argument
//!
//! Measurement artifacts in this reproduction depend on exactly two
//! inputs: the campaign seed and the *virtual instant* a run starts (the
//! packet simulators derive their streams from
//! `seed ⊕ label ⊕ start_ns`). The scheduler therefore executes runs in
//! strict cross-product order and, before dispatching run *i* to its
//! lane, pins that lane's clock to the run's **canonical start** — the
//! instant run *i* would begin in a sequential execution (run 0 starts at
//! lane 0's setup end; run *i* starts where run *i−1* canonically
//! finished). Each lane is a same-seed replica, so every byte a run
//! writes is identical to what the sequential controller would have
//! written, for *any* lane count. Parallelism lives purely in the
//! [`pos_simkernel::LaneSet`] occupancy model, whose makespan yields the
//! reported speedup.
//!
//! Lane 0 keeps the default `"testbed"` management-RNG stream (a one-lane
//! schedule is the sequential controller, bit for bit); lanes `k > 0`
//! re-derive theirs under `"testbed/lane{k}"` so replica boot timings are
//! independent draws of the same distribution.
//!
//! Dispatch runs under the [`crate::supervisor::LaneSupervisor`]: lanes
//! can die (watchdog overrun, injected fault, every host quarantined) and
//! are then retired, their work redistributed or handed to a replacement
//! lane, with poison runs quarantined — all without perturbing the
//! canonical timeline (see [`crate::supervisor`] for the argument).
//!
//! # Journals
//!
//! The scheduler journal (`journal.log`) records `CampaignStarted`, the
//! `LanePlan`, the `SupervisorPlan`, any failover records (`LaneRetired`,
//! `RunRetry`, `RunQuarantined`, `LaneReplanned`), and
//! `CampaignFinished`. Each lane appends `RunStarted` / `RunCompleted`
//! records to its own `journal-lane{k}.log`. All journals are write-ahead
//! and individually crash-consistent; [`resume_parallel`] folds all of
//! them through `pos_core::recovery` — failover records included, so a
//! resume lands mid-failover with the same retired lanes, ladder
//! positions, and replacement lanes — re-verifies every journaled run
//! against its digest, and re-executes only what fails, at the same
//! canonical starts. The repaired tree is byte-identical to an
//! uninterrupted execution (journals excepted: they *are* the record of
//! the interruption).

use crate::plan::{plan_lanes, site_host_sets, LaneFlavor};
use crate::supervisor::{LaneSupervisor, SupervisorOptions};
use pos_core::controller::{
    CampaignSetup, Controller, ControllerError, ExperimentOutcome, RunOptions,
};
use pos_core::experiment::ExperimentSpec;
use pos_core::journal::{Journal, JournalRecord, JOURNAL_FILE};
use pos_core::loopvars::RunParams;
use pos_core::recovery::{CampaignJournals, FailoverHistory, RunCompletion};
use pos_core::resultstore::ResultStore;
use pos_simkernel::{lane_stream_label, SimDuration, SimTime, TraceLevel};
use pos_testbed::{Calendar, Testbed};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// How to parallelize one campaign.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Worker lanes (≥ 1). One lane is exactly the sequential controller.
    pub lanes: usize,
    /// Bare-metal replica host sets the site owns (including the primary
    /// set). Lanes beyond this run on virtual clone replicas.
    pub site_replicas: usize,
    /// Lane supervision: watchdog, retry ladder, quarantine, recovery
    /// policy. Journaled so a resume replays the same failover.
    pub supervisor: SupervisorOptions,
}

impl ParallelOptions {
    /// `lanes` lanes, all backed by bare-metal replica sets, with
    /// default supervision.
    pub fn new(lanes: usize) -> ParallelOptions {
        ParallelOptions {
            lanes,
            site_replicas: lanes,
            supervisor: SupervisorOptions::default(),
        }
    }
}

/// The `SupervisorPlan` journal payload: everything a resume needs to
/// replay failover decisions without any CLI flags.
#[derive(Debug, Serialize, Deserialize)]
struct SupervisorPlanConfig {
    /// Bare-metal replica sets the site owns (replacement lanes beyond
    /// this come from the clone pool).
    site_replicas: usize,
    /// The supervision options proper.
    options: SupervisorOptions,
}

/// What a parallel campaign execution produced, beyond the canonical
/// [`ExperimentOutcome`].
#[derive(Debug)]
pub struct ParallelOutcome {
    /// The merged, canonical outcome — identical in content to a
    /// sequential execution of the same seed (and fault plan).
    pub outcome: ExperimentOutcome,
    /// Number of worker lanes, replacement lanes included.
    pub lanes: usize,
    /// Testbed flavor label per lane (original plan + replacements).
    pub flavors: Vec<String>,
    /// Run indices executed (or verified-skipped) per lane.
    pub lane_runs: Vec<Vec<usize>>,
    /// Virtual time of the canonical (sequential-equivalent) timeline:
    /// campaign start to last run's canonical finish.
    pub sequential_elapsed: SimDuration,
    /// Virtual time of the modeled parallel timeline: campaign start to
    /// the last lane's makespan end.
    pub parallel_elapsed: SimDuration,
    /// Wall-clock seconds the final merge step took (trace render,
    /// controller.log write, journal finalization).
    pub merge_wall_secs: f64,
    /// Lanes the supervisor retired this session, with reasons.
    pub retired_lanes: Vec<(usize, String)>,
    /// Replacement lanes replanned over the campaign's whole life.
    pub replanned_lanes: usize,
    /// Virtual time spent failing over: retry-ladder delays plus
    /// replacement-lane setup. Charged to lane occupancy, never to the
    /// canonical timeline.
    pub failover_time: SimDuration,
    /// Retry-ladder steps taken this session.
    pub ladder_retries: u32,
}

impl ParallelOutcome {
    /// Virtual-time speedup over a sequential execution.
    pub fn speedup(&self) -> f64 {
        let par = self.parallel_elapsed.as_nanos();
        if par == 0 {
            return 1.0;
        }
        self.sequential_elapsed.as_nanos() as f64 / par as f64
    }
}

/// Parses a journaled lane flavor label back into a [`LaneFlavor`].
fn parse_flavor(label: &str) -> Result<LaneFlavor, ControllerError> {
    match label {
        "pos" => Ok(LaneFlavor::BareMetal),
        "vpos" => Ok(LaneFlavor::Virtual),
        other => Err(ControllerError::Resume {
            reason: format!("journal records unknown lane flavor `{other}`"),
        }),
    }
}

/// Executes a campaign across `popts.lanes` worker lanes.
///
/// `make_lane(k, flavor)` must build lane `k`'s replica testbed: the same
/// hosts, wiring, images, and **root seed** as the campaign testbed, as a
/// bare-metal replica or a virtual clone per `flavor`. The scheduler
/// re-derives the management RNG stream of lanes `k > 0` itself. The
/// supervisor may call `make_lane` again mid-campaign for replacement
/// lanes. Construction failures are typed errors and abort the campaign
/// before any state is touched (fresh run) or at the replanning boundary
/// (replacement lane).
pub fn run_parallel(
    spec: &ExperimentSpec,
    opts: &RunOptions,
    popts: &ParallelOptions,
    make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
) -> Result<ParallelOutcome, ControllerError> {
    assert!(popts.lanes >= 1, "a campaign needs at least one lane");

    // Acquire disjoint allocations on the site calendar: an atomic batch
    // of bare-metal replica sets when free, virtual clone lanes otherwise.
    let mut site = Calendar::new();
    let sets = site_host_sets(&spec.hosts(), popts.site_replicas);
    let alloc = plan_lanes(
        &mut site,
        &spec.user,
        &sets,
        popts.lanes,
        SimTime::ZERO,
        SimDuration::from_secs(spec.planned_duration_secs),
    )
    .map_err(ControllerError::Allocation)?;

    let mut lanes = build_lanes(&alloc.flavors, opts, make_lane)?;
    let (spec_eff, runs) = lanes[0].prepare_campaign(spec, opts)?;
    let seed = lanes[0].testbed().seed();

    let started = lanes[0].testbed().now();
    let store = ResultStore::create(&opts.result_root, &spec_eff.user, &spec_eff.name, started)?
        .with_vfs(opts.vfs.clone());
    let mut sched_journal = Journal::create_with(store.dir().join(JOURNAL_FILE), opts.vfs.clone())?;
    sched_journal.arm_crash(opts.journal_crash_after, opts.journal_torn_write);
    sched_journal.append(&JournalRecord::CampaignStarted {
        seed,
        spec_digest: spec_eff.digest(),
        total_runs: runs.len(),
        testbed: opts.testbed_flavor.clone(),
        started_ns: started.as_nanos(),
    })?;
    sched_journal.append(&JournalRecord::LanePlan {
        lanes: popts.lanes,
        flavors: alloc.labels(),
    })?;
    sched_journal.append(&JournalRecord::SupervisorPlan {
        config: serde_json::to_string(&SupervisorPlanConfig {
            site_replicas: popts.site_replicas,
            options: popts.supervisor.clone(),
        })
        .expect("supervisor options serialize"),
    })?;

    // Every lane runs the full setup phase (allocation, boots, tool
    // deployment, setup scripts); only lane 0 persists the shared inputs.
    let mut setups: Vec<CampaignSetup> = Vec::with_capacity(lanes.len());
    for (k, lane) in lanes.iter_mut().enumerate() {
        let lane_store = if k == 0 { Some(&store) } else { None };
        setups.push(lane.setup_campaign(&spec_eff, opts, lane_store, runs.len())?);
    }

    let mut sup = LaneSupervisor::new(
        &spec_eff,
        opts,
        &popts.supervisor,
        popts.site_replicas,
        seed,
        runs.len(),
        &store,
        lanes,
        alloc.flavors,
        setups,
        site,
        alloc.reservations,
        &FailoverHistory::default(),
    )?;
    dispatch_and_merge(
        &store,
        &mut sup,
        &mut sched_journal,
        &runs,
        &BTreeMap::new(),
        started,
        make_lane,
    )
}

/// Resumes an interrupted parallel campaign from its result tree.
///
/// Folds the scheduler journal (campaign identity, lane plan,
/// supervisor plan, and the full failover history: retired lanes, retry
/// ladders, quarantines, replacement lanes) and every per-lane journal
/// (run completions; torn tails and missing lane journals are ordinary
/// crash artifacts) through [`CampaignJournals`], checks the campaign
/// identity, verifies each journaled run on disk, rebuilds all
/// lanes — replacements included — from `make_lane`, and re-executes
/// only the runs that fail verification, each at its canonical start. A
/// resume that lands mid-failover finishes the failover: journaled
/// retirements stay retired, ladders continue from their journaled
/// attempt, and an unsealed quarantine is re-sealed deterministically.
pub fn resume_parallel(
    result_dir: &Path,
    spec: &ExperimentSpec,
    opts: &RunOptions,
    make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
) -> Result<ParallelOutcome, ControllerError> {
    let store = ResultStore::open(result_dir).with_vfs(opts.vfs.clone());
    let mut journals = CampaignJournals::read_for_resume(store.dir())?;
    let identity = journals.identity()?.clone();
    let Some(planned) = &journals.lane_plan else {
        return Err(ControllerError::Resume {
            reason: "journal has no LanePlan record (not a parallel campaign; \
                     use the sequential resume)"
                .into(),
        });
    };
    let all_flavors = planned
        .iter()
        .chain(&journals.failover.replanned)
        .map(|f| parse_flavor(f))
        .collect::<Result<Vec<_>, _>>()?;
    // The supervision configuration replays from the journal; campaigns
    // journaled before lane supervision existed get the default.
    let (site_replicas, sopts) = match &journals.supervisor_plan {
        Some(config) => {
            let cfg: SupervisorPlanConfig =
                serde_json::from_str(config).map_err(|e| ControllerError::Resume {
                    reason: format!("unreadable SupervisorPlan record: {e}"),
                })?;
            (cfg.site_replicas, cfg.options)
        }
        None => (planned.len(), SupervisorOptions::default()),
    };

    let mut lanes = build_lanes(&all_flavors, opts, make_lane)?;
    let (spec_eff, runs) = lanes[0].prepare_campaign(spec, opts)?;
    identity.check(
        &opts.testbed_flavor,
        lanes[0].testbed().seed(),
        &spec_eff.digest(),
        runs.len(),
    )?;
    journals.retain_verified(store.dir());

    // Pin the journaled lane plan back onto a fresh site calendar —
    // replacement lanes included, at the replica set their index names.
    let mut site = Calendar::new();
    let sets = site_host_sets(&spec_eff.hosts(), all_flavors.len().max(site_replicas));
    let mut site_reservations = Vec::new();
    for (k, flavor) in all_flavors.iter().enumerate() {
        if *flavor == LaneFlavor::BareMetal {
            let id = site
                .reserve(
                    spec_eff.user.clone(),
                    &sets[k],
                    SimTime::ZERO,
                    SimDuration::from_secs(spec_eff.planned_duration_secs),
                )
                .map_err(ControllerError::Allocation)?;
            site_reservations.push(id);
        }
    }

    let mut setups: Vec<CampaignSetup> = Vec::with_capacity(lanes.len());
    for (k, lane) in lanes.iter_mut().enumerate() {
        let lane_store = if k == 0 { Some(&store) } else { None };
        setups.push(lane.setup_campaign(&spec_eff, opts, lane_store, runs.len())?);
    }
    let started = setups[0].started;

    let mut sched_journal =
        Journal::open_append_with(store.dir().join(JOURNAL_FILE), opts.vfs.clone())?;
    sched_journal.arm_crash(opts.journal_crash_after, opts.journal_torn_write);
    sched_journal.append(&JournalRecord::CampaignResumed {
        resumed_ns: lanes[0].testbed().now().as_nanos(),
        verified_runs: journals.completed.len(),
    })?;

    let mut sup = LaneSupervisor::new(
        &spec_eff,
        opts,
        &sopts,
        site_replicas,
        identity.seed,
        runs.len(),
        &store,
        lanes,
        all_flavors,
        setups,
        site,
        site_reservations,
        &journals.failover,
    )?;
    dispatch_and_merge(
        &store,
        &mut sup,
        &mut sched_journal,
        &runs,
        &journals.completed,
        started,
        make_lane,
    )
}

/// Builds the lane controllers: replica testbeds from `make_lane`, with
/// lanes beyond 0 re-deriving their management RNG stream so replica
/// boot timings are independent draws under the same campaign seed.
fn build_lanes(
    flavors: &[LaneFlavor],
    opts: &RunOptions,
    make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
) -> Result<Vec<Controller<'static>>, ControllerError> {
    flavors
        .iter()
        .enumerate()
        .map(|(k, flavor)| {
            let mut tb = make_lane(k, *flavor)?;
            if k > 0 {
                tb.rederive_management_rng(&lane_stream_label(k));
            }
            tb.set_command_timeout(opts.command_timeout);
            Ok(Controller::owning(tb))
        })
        .collect()
}

/// The shared back half of [`run_parallel`] and [`resume_parallel`]: the
/// supervised dispatch loop over the lane set, the merge into the
/// canonical result tree, and the release of every reservation.
fn dispatch_and_merge(
    store: &ResultStore,
    sup: &mut LaneSupervisor<'_>,
    sched_journal: &mut Journal,
    runs: &[RunParams],
    verified: &BTreeMap<usize, RunCompletion>,
    started: SimTime,
    make_lane: &mut dyn FnMut(usize, LaneFlavor) -> Result<Testbed, ControllerError>,
) -> Result<ParallelOutcome, ControllerError> {
    let stats = sup.dispatch(store, sched_journal, runs, verified, make_lane)?;

    // ------------------------------------------------------------ merge
    // Lane 0's Info-level trace is the canonical campaign story: lane 0
    // is the sequential controller's exact twin through setup, and the
    // supervisor never logs above Debug, so this render is byte-identical
    // to the sequential controller.log.
    let merge_t0 = std::time::Instant::now();
    let finished = stats.finished;
    store.write(
        "controller.log",
        sup.lanes[0]
            .testbed()
            .trace
            .render_min_level(TraceLevel::Info),
    )?;
    sched_journal.append(&JournalRecord::CampaignFinished {
        finished_ns: finished.as_nanos(),
        succeeded: stats.records.iter().filter(|r| r.success).count(),
        failed: stats.failed_runs.len(),
    })?;
    let merge_wall_secs = merge_t0.elapsed().as_secs_f64();

    let parallel_elapsed = sup.makespan_end() - started;
    sup.teardown();
    Ok(ParallelOutcome {
        outcome: ExperimentOutcome {
            result_dir: store.dir().to_path_buf(),
            runs: stats.records,
            started,
            finished,
            recoveries: stats.recoveries,
            failed_runs: stats.failed_runs,
            quarantined_hosts: stats.quarantined_hosts,
            quarantined_runs: stats.quarantined_runs,
            total_recovery_time: stats.recovery_time,
        },
        lanes: sup.lanes.len(),
        flavors: sup.flavors.iter().map(|f| f.label().to_string()).collect(),
        lane_runs: stats.lane_runs,
        sequential_elapsed: finished - started,
        parallel_elapsed,
        merge_wall_secs,
        retired_lanes: sup.retired.clone(),
        replanned_lanes: sup.replanned,
        failover_time: sup.failover_time,
        ladder_retries: sup.ladder_retries,
    })
}
