//! The one resume entry point for a campaign result tree.
//!
//! `pos resume` and the `pos serve` restart path resume a tree the same
//! way: the tree's folded journals ([`CampaignJournals`]) name the seed
//! and testbed flavor the campaign ran on, the tree's stored spec is the
//! authoritative one, the testbed is rebuilt with [`case_study_testbed`],
//! and the journaled lane plan picks [`resume_parallel`] or the
//! sequential [`Controller::resume_experiment`].

use crate::plan::LaneFlavor;
use crate::scheduler::{resume_parallel, ParallelOutcome};
use pos_core::commands::case_study_testbed;
use pos_core::controller::{Controller, ControllerError, ExperimentOutcome, Progress, RunOptions};
use pos_core::experiment::ExperimentSpec;
use pos_core::recovery::{CampaignIdentity, CampaignJournals};
use std::io;
use std::path::{Path, PathBuf};

/// A campaign result tree opened for resumption.
#[derive(Debug)]
pub struct ResumableTree {
    dir: PathBuf,
    /// The tree's folded journals.
    pub journals: CampaignJournals,
    /// The journaled campaign identity.
    pub identity: CampaignIdentity,
}

/// What a resume produced, by the path the lane plan picked.
#[derive(Debug)]
pub enum Resumed {
    /// The sequential controller resumed the tree.
    Sequential(ExperimentOutcome),
    /// The parallel scheduler resumed the tree on its journaled lanes.
    Parallel(ParallelOutcome),
}

impl Resumed {
    /// The canonical campaign outcome.
    pub fn into_outcome(self) -> ExperimentOutcome {
        match self {
            Resumed::Sequential(outcome) => outcome,
            Resumed::Parallel(out) => out.outcome,
        }
    }
}

impl ResumableTree {
    /// Folds the journals of the tree at `dir` and reads its identity.
    pub fn open(dir: &Path) -> Result<ResumableTree, ControllerError> {
        let journals = CampaignJournals::read(dir).map_err(ControllerError::Journal)?;
        let identity = journals.identity()?.clone();
        Ok(ResumableTree {
            dir: dir.to_path_buf(),
            journals,
            identity,
        })
    }

    /// Worker lanes of the journaled lane plan; `None` for a sequential
    /// tree.
    pub fn lanes(&self) -> Option<usize> {
        self.journals.lane_plan.as_ref().map(Vec::len)
    }

    /// Loads the tree's stored effective spec (`<tree>/experiment/`).
    pub fn load_spec(&self) -> io::Result<ExperimentSpec> {
        ExperimentSpec::from_dir(&self.dir.join("experiment"))
    }

    /// Rebuilds the testbed on the journaled seed and flavor (which
    /// overrides `opts.testbed_flavor`) and resumes the campaign: on its
    /// journaled lanes when the tree has a lane plan, sequentially
    /// (reporting to `progress`) otherwise.
    pub fn resume(
        &self,
        spec: &ExperimentSpec,
        opts: &RunOptions,
        progress: impl FnMut(&Progress) + 'static,
    ) -> Result<Resumed, ControllerError> {
        let CampaignIdentity { seed, testbed, .. } = &self.identity;
        let opts = &RunOptions {
            testbed_flavor: testbed.clone(),
            ..opts.clone()
        };
        if self.lanes().is_some() {
            return resume_parallel(&self.dir, spec, opts, &mut |_, flavor| {
                case_study_testbed(spec, *seed, flavor == LaneFlavor::Virtual, true)
            })
            .map(Resumed::Parallel);
        }
        let tb = case_study_testbed(spec, *seed, testbed == "vpos", true)?;
        Controller::owning(tb)
            .with_progress(progress)
            .resume_experiment(&self.dir, spec, opts)
            .map(Resumed::Sequential)
    }
}
