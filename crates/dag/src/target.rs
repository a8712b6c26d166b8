//! Pluggable execution targets: *where* stage work runs.
//!
//! The executor never talks to the scheduler directly — it hands every
//! sweep stage to an [`ExecutionTarget`], which decides how the scatter
//! group's lanes are provisioned:
//!
//! * [`InProcessTarget`] — today's answer: worker lanes in this
//!   process, backed by bare-metal replica sets leased per scatter
//!   group on a **shared** site calendar
//!   ([`pos_sched::plan::ScatterLease`]); overflow lanes degrade to
//!   vpos clone replicas exactly like a standalone parallel campaign.
//! * [`SimBatchTarget`] — a simulated remote SLURM-like batch cluster:
//!   sweeps become queued jobs with deterministic queue waits and a
//!   partition width that clamps the granted lane count. It exists to
//!   prove the seam: because result trees are lane-count invariant,
//!   the batch target produces byte-identical artifacts while its job
//!   accounting ([`TargetReport`]) tells a completely different
//!   execution story.
//!
//! Targets are accounting + provisioning policy only. The artifacts a
//! stage writes are a pure function of (seed, stage spec) — that is the
//! determinism contract that makes targets interchangeable.

use pos_core::commands::case_study_testbed;
use pos_core::controller::{ControllerError, RunOptions};
use pos_core::experiment::ExperimentSpec;
use pos_core::hash::sha256_hex;
use pos_sched::plan::{site_host_sets, ScatterLease};
use pos_sched::scheduler::{resume_parallel, run_parallel, ParallelOptions, ParallelOutcome};
use pos_sched::LaneFlavor;
use pos_simkernel::{SimDuration, SimTime};
use pos_testbed::Calendar;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::Path;

/// One sweep stage's execution request, as the executor hands it to a
/// target.
#[derive(Debug)]
pub struct SweepRequest<'a> {
    /// The sweep stage id (names the scatter group).
    pub node: &'a str,
    /// The stage's effective experiment spec (loop override applied).
    pub spec: &'a ExperimentSpec,
    /// Run options with `result_root` already pointed at the stage's
    /// subtree.
    pub opts: &'a RunOptions,
    /// Requested worker lanes for the scatter fan-out.
    pub lanes: usize,
}

/// What a setup stage captures about the testbed, target-independent
/// by construction (both targets derive it from the same seed).
#[derive(Debug)]
pub struct SetupReport {
    /// Rendered wiring (`host:port <-> host:port` lines).
    pub topology: String,
    /// Participating hosts, in role order.
    pub hosts: Vec<String>,
}

/// One provisioned unit of work in the target's own vocabulary: a lane
/// lease for the in-process target, a queued job for the batch target.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct JobRecord {
    /// Target-assigned id (`lease-<stage>` / `job-NNNN`).
    pub id: String,
    /// The sweep stage this job executed.
    pub node: String,
    /// Lanes the stage requested.
    pub lanes_requested: usize,
    /// Lanes the target granted (a batch partition may clamp).
    pub lanes_granted: usize,
    /// Bare-metal replica sets backing the granted lanes.
    pub bare_metal: usize,
    /// Seconds the job waited in the target's queue before starting
    /// (always 0 for the in-process target).
    pub queue_wait_secs: f64,
    /// Virtual seconds of the stage's parallel timeline.
    pub elapsed_secs: f64,
    /// Terminal state (`"completed"` / `"resumed"`).
    pub state: String,
}

/// Target-side accounting for a DAG execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TargetReport {
    /// The target's name.
    pub target: String,
    /// One record per provisioned sweep, in dispatch order.
    pub jobs: Vec<JobRecord>,
}

impl TargetReport {
    /// Renders the accounting as an `squeue`-style table.
    pub fn render(&self) -> String {
        let mut out = format!("target: {}\n", self.target);
        let _ = writeln!(
            out,
            "{:<12} {:<12} {:>5} {:>7} {:>5} {:>9} {:>9}  STATE",
            "JOBID", "NODE", "REQ", "GRANTED", "BM", "WAIT[s]", "ELAPSED"
        );
        for j in &self.jobs {
            let _ = writeln!(
                out,
                "{:<12} {:<12} {:>5} {:>7} {:>5} {:>9.1} {:>9.1}  {}",
                j.id,
                j.node,
                j.lanes_requested,
                j.lanes_granted,
                j.bare_metal,
                j.queue_wait_secs,
                j.elapsed_secs,
                j.state
            );
        }
        out
    }
}

/// Where stage work runs.
///
/// Implementations provision lanes and execute/resume sweep campaigns;
/// they must route the actual execution through the deterministic
/// scheduler so artifacts stay target-invariant.
pub trait ExecutionTarget {
    /// Stable target name, journaled in `DagStarted` as a resume
    /// identity guard.
    fn name(&self) -> &'static str;

    /// Builds (and discards) the study's testbed to capture its
    /// topology and host inventory — what a setup stage persists.
    fn describe(&mut self, spec: &ExperimentSpec) -> Result<SetupReport, ControllerError>;

    /// Executes one sweep stage's campaign to completion: resumes the
    /// stage's interrupted campaign at `existing` (a result tree with a
    /// durable journal) or, without one, runs it fresh.
    fn sweep(
        &mut self,
        existing: Option<&Path>,
        req: &SweepRequest<'_>,
    ) -> Result<ParallelOutcome, ControllerError>;

    /// The target's accounting so far.
    fn report(&self) -> TargetReport;
}

/// Executes sweeps on in-process `pos-sched` worker lanes, leasing
/// bare-metal replica sets per scatter group on a shared site calendar.
#[derive(Debug)]
pub struct InProcessTarget {
    seed: u64,
    virtualized: bool,
    site_replicas: usize,
    site: Calendar,
    clock: SimTime,
    jobs: Vec<JobRecord>,
}

impl InProcessTarget {
    /// A target running every lane's testbed from `seed`.
    /// `site_replicas` bounds the bare-metal replica sets the shared
    /// site owns; lanes beyond a lease's grant degrade to vpos clones.
    pub fn new(seed: u64, virtualized: bool, site_replicas: usize) -> InProcessTarget {
        InProcessTarget {
            seed,
            virtualized,
            site_replicas: site_replicas.max(1),
            site: Calendar::new(),
            clock: SimTime::ZERO,
            jobs: Vec::new(),
        }
    }

    fn make_lane_factory<'a>(
        &self,
        spec: &'a ExperimentSpec,
    ) -> impl FnMut(usize, LaneFlavor) -> Result<pos_testbed::Testbed, ControllerError> + 'a {
        let seed = self.seed;
        let virtualized = self.virtualized;
        move |_, flavor| {
            case_study_testbed(
                spec,
                seed,
                virtualized || flavor == LaneFlavor::Virtual,
                true,
            )
        }
    }
}

impl ExecutionTarget for InProcessTarget {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn describe(&mut self, spec: &ExperimentSpec) -> Result<SetupReport, ControllerError> {
        let tb = case_study_testbed(spec, self.seed, self.virtualized, true)?;
        Ok(SetupReport {
            topology: tb.topology.render(),
            hosts: spec.hosts(),
        })
    }

    fn sweep(
        &mut self,
        existing: Option<&Path>,
        req: &SweepRequest<'_>,
    ) -> Result<ParallelOutcome, ControllerError> {
        let mut make_lane = self.make_lane_factory(req.spec);
        let (out, granted, bare_metal, state) = match existing {
            Some(dir) => {
                let out = resume_parallel(dir, req.spec, req.opts, &mut make_lane)?;
                let bare_metal = out.flavors.iter().filter(|f| f.as_str() == "pos").count();
                let granted = out.lanes;
                (out, granted, bare_metal, "resumed")
            }
            None => {
                // Lease the scatter group's lanes on the shared site
                // calendar; the lease's bare-metal grant becomes the
                // inner scheduler's replica pool so it cannot claim sets
                // the site refused.
                let sets = site_host_sets(&req.spec.hosts(), self.site_replicas);
                let lease = ScatterLease::acquire(
                    &mut self.site,
                    &req.spec.user,
                    req.node,
                    &sets,
                    req.lanes,
                    self.clock,
                    SimDuration::from_secs(req.spec.planned_duration_secs.max(1)),
                )
                .map_err(ControllerError::Allocation)?;
                let bare_metal = lease.allocation.bare_metal();
                let popts = ParallelOptions {
                    lanes: req.lanes,
                    site_replicas: lease.site_replicas(),
                    ..ParallelOptions::new(req.lanes)
                };
                let result = run_parallel(req.spec, req.opts, &popts, &mut make_lane);
                lease.release(&mut self.site);
                (result?, req.lanes, bare_metal, "completed")
            }
        };
        self.clock += out.parallel_elapsed;
        self.jobs.push(JobRecord {
            id: format!("lease-{}", req.node),
            node: req.node.to_string(),
            lanes_requested: req.lanes,
            lanes_granted: granted,
            bare_metal,
            queue_wait_secs: 0.0,
            elapsed_secs: out.parallel_elapsed.as_secs_f64(),
            state: state.into(),
        });
        Ok(out)
    }

    fn report(&self) -> TargetReport {
        TargetReport {
            target: self.name().into(),
            jobs: self.jobs.clone(),
        }
    }
}

/// A simulated remote SLURM-like batch cluster.
///
/// Each sweep becomes a queued job: it draws a deterministic queue wait
/// (hashed from the stage id and seed — data, not wall-clock luck),
/// and the cluster's partition width clamps the granted lane count.
/// The work itself still runs through the same deterministic scheduler,
/// so the result tree is byte-identical to the in-process target's —
/// only the accounting differs. That is the point: the
/// [`ExecutionTarget`] seam carries provisioning policy, never
/// artifact content.
#[derive(Debug)]
pub struct SimBatchTarget {
    inner: InProcessTarget,
    partition: usize,
    next_job: u64,
    jobs: Vec<JobRecord>,
}

impl SimBatchTarget {
    /// A batch cluster whose partition grants at most `partition` lanes
    /// per job, executing from `seed`.
    pub fn new(seed: u64, virtualized: bool, partition: usize) -> SimBatchTarget {
        let partition = partition.max(1);
        SimBatchTarget {
            inner: InProcessTarget::new(seed, virtualized, partition),
            partition,
            next_job: 1,
            jobs: Vec::new(),
        }
    }

    /// Deterministic queue wait for a job: the first 4 hex digits of
    /// `sha256(seed:node)`, scaled into [0, 600) seconds.
    fn queue_wait(&self, node: &str) -> f64 {
        let digest = sha256_hex(format!("{}:{node}", self.inner.seed).as_bytes());
        let raw = u64::from_str_radix(&digest[..4], 16).unwrap_or(0);
        (raw % 600) as f64 + (raw % 10) as f64 / 10.0
    }

    fn record(
        &mut self,
        req: &SweepRequest<'_>,
        out: &ParallelOutcome,
        granted: usize,
        state: &str,
    ) {
        let id = format!("job-{:04}", self.next_job);
        self.next_job += 1;
        self.jobs.push(JobRecord {
            id,
            node: req.node.to_string(),
            lanes_requested: req.lanes,
            lanes_granted: granted,
            bare_metal: out.flavors.iter().filter(|f| f.as_str() == "pos").count(),
            queue_wait_secs: self.queue_wait(req.node),
            elapsed_secs: out.parallel_elapsed.as_secs_f64(),
            state: state.into(),
        });
    }
}

impl ExecutionTarget for SimBatchTarget {
    fn name(&self) -> &'static str {
        "sim-batch"
    }

    fn describe(&mut self, spec: &ExperimentSpec) -> Result<SetupReport, ControllerError> {
        self.inner.describe(spec)
    }

    fn sweep(
        &mut self,
        existing: Option<&Path>,
        req: &SweepRequest<'_>,
    ) -> Result<ParallelOutcome, ControllerError> {
        // sbatch: the partition clamps the grant; lane-count invariance
        // of the result tree is what makes the clamp artifact-neutral.
        let granted = req.lanes.min(self.partition);
        let clamped = SweepRequest {
            node: req.node,
            spec: req.spec,
            opts: req.opts,
            lanes: granted,
        };
        let out = self.inner.sweep(existing, &clamped)?;
        // Replace the inner lease record with a job record.
        if let Some(lease) = self.inner.jobs.pop() {
            self.record(req, &out, granted, &lease.state);
        }
        Ok(out)
    }

    fn report(&self) -> TargetReport {
        TargetReport {
            target: self.name().into(),
            jobs: self.jobs.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_queue_waits_are_deterministic_data() {
        let a = SimBatchTarget::new(7, false, 2);
        let b = SimBatchTarget::new(7, false, 2);
        assert_eq!(a.queue_wait("rate-sweep"), b.queue_wait("rate-sweep"));
        assert_ne!(a.queue_wait("rate-sweep"), a.queue_wait("other-sweep"));
    }

    #[test]
    fn report_renders_a_table() {
        let report = TargetReport {
            target: "sim-batch".into(),
            jobs: vec![JobRecord {
                id: "job-0001".into(),
                node: "rate-sweep".into(),
                lanes_requested: 4,
                lanes_granted: 2,
                bare_metal: 2,
                queue_wait_secs: 12.5,
                elapsed_secs: 60.0,
                state: "completed".into(),
            }],
        };
        let table = report.render();
        assert!(table.contains("job-0001"));
        assert!(table.contains("rate-sweep"));
        assert!(table.contains("completed"));
    }
}
