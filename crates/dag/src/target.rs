//! Where stage work runs: worker lanes in this process.
//!
//! [`InProcessTarget`] runs every sweep stage on `pos-sched` worker
//! lanes, backed by bare-metal replica sets leased per scatter group on
//! a **shared** site calendar ([`pos_sched::plan::ScatterLease`]);
//! overflow lanes degrade to vpos clone replicas exactly like a
//! standalone parallel campaign.
//!
//! The target is provisioning and accounting only. The artifacts a stage
//! writes are a pure function of (seed, stage spec), so a DAG's result
//! tree does not depend on the lane count, nor on the leases the site
//! granted.

use crate::DagError;
use pos_core::commands::case_study_testbed;
use pos_core::controller::{ControllerError, RunOptions};
use pos_core::experiment::ExperimentSpec;
use pos_sched::plan::{site_host_sets, ScatterLease};
use pos_sched::scheduler::{resume_parallel, run_parallel, ParallelOptions, ParallelOutcome};
use pos_sched::LaneFlavor;
use pos_simkernel::{SimDuration, SimTime};
use pos_testbed::Calendar;
use std::path::Path;

/// One sweep stage's lane lease, as the target accounted it.
#[derive(Debug, Clone)]
pub struct LeaseRecord {
    /// The sweep stage the lease served.
    pub node: String,
    /// Worker lanes the stage ran on.
    pub lanes: usize,
    /// Bare-metal replica sets backing those lanes.
    pub bare_metal: usize,
    /// Virtual seconds of the stage's parallel timeline.
    pub elapsed_secs: f64,
    /// Terminal state (`"completed"` / `"resumed"`).
    pub state: String,
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
    /// The leases so far, in dispatch order.
    pub(crate) leases: Vec<LeaseRecord>,
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
            leases: Vec::new(),
        }
    }

    /// Refuses to run under `seed` and `testbed` (the values a DAG
    /// journals) unless they are the ones this target boots its stages
    /// from: a resume boots what the journal names.
    pub(crate) fn check(&self, seed: u64, testbed: &str) -> Result<(), DagError> {
        let booted = if self.virtualized { "vpos" } else { "pos" };
        let (setting, journaled, target) = if seed != self.seed {
            ("seed", seed.to_string(), self.seed.to_string())
        } else if testbed != booted {
            ("testbed", testbed.to_string(), booted.to_string())
        } else {
            return Ok(());
        };
        Err(DagError::TargetMismatch {
            setting,
            journaled,
            target,
        })
    }

    /// Builds (and discards) the study's testbed to capture its wiring —
    /// what a setup stage persists.
    pub(crate) fn topology(&self, spec: &ExperimentSpec) -> Result<String, ControllerError> {
        Ok(case_study_testbed(spec, self.seed, self.virtualized, true)?
            .topology
            .render())
    }

    /// Executes the sweep stage `node`'s campaign (`spec`, with
    /// `opts.result_root` at the stage's subtree) on `lanes` lanes to
    /// completion: resumes the interrupted campaign at `existing` (a
    /// result tree with a durable journal) or, without one, runs it
    /// fresh.
    pub(crate) fn sweep(
        &mut self,
        existing: Option<&Path>,
        node: &str,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        lanes: usize,
    ) -> Result<ParallelOutcome, ControllerError> {
        let (seed, virtualized) = (self.seed, self.virtualized);
        let mut make_lane = |_, flavor| {
            case_study_testbed(
                spec,
                seed,
                virtualized || flavor == LaneFlavor::Virtual,
                true,
            )
        };
        let (out, bare_metal, state) = match existing {
            Some(dir) => {
                let out = resume_parallel(dir, spec, opts, &mut make_lane)?;
                let bare_metal = out.flavors.iter().filter(|f| f.as_str() == "pos").count();
                (out, bare_metal, "resumed")
            }
            None => {
                // Lease the scatter group's lanes on the shared site
                // calendar; the lease's bare-metal grant becomes the
                // inner scheduler's replica pool so it cannot claim sets
                // the site refused.
                let sets = site_host_sets(&spec.hosts(), self.site_replicas);
                let lease = ScatterLease::acquire(
                    &mut self.site,
                    &spec.user,
                    node,
                    &sets,
                    lanes,
                    self.clock,
                    SimDuration::from_secs(spec.planned_duration_secs.max(1)),
                )
                .map_err(ControllerError::Allocation)?;
                let bare_metal = lease.allocation.bare_metal();
                let popts = ParallelOptions {
                    lanes,
                    site_replicas: lease.site_replicas(),
                    ..ParallelOptions::new(lanes)
                };
                let result = run_parallel(spec, opts, &popts, &mut make_lane);
                lease.release(&mut self.site);
                (result?, bare_metal, "completed")
            }
        };
        self.clock += out.parallel_elapsed;
        self.leases.push(LeaseRecord {
            node: node.to_string(),
            lanes: out.lanes,
            bare_metal,
            elapsed_secs: out.parallel_elapsed.as_secs_f64(),
            state: state.into(),
        });
        Ok(out)
    }
}
