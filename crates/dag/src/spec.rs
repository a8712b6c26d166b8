//! The DAG model: typed stage nodes and dependency edges.
//!
//! A DAG spec is declarative data (the GPLMT argument): it names the
//! stages, their kinds, and who waits for whom. It deliberately does
//! *not* name lane counts — those are a runtime choice
//! ([`crate::executor::DagOptions`]), so the spec digest is stable
//! across every way of running the same study.
//!
//! Edge kinds are derived, not declared:
//!
//! * any edge **into** a [`StageKind::Sweep`] node is a **scatter**
//!   edge — once its dependencies finish, the sweep's parameter cross
//!   product fans out across scheduler lanes;
//! * an edge **from** a sweep **into** a [`StageKind::Gather`] node is
//!   a **gather** edge — the gather blocks until *all* scatter results
//!   of that sweep are durable, then consumes them as one result set;
//! * everything else is a plain sequence edge.

use crate::DagError;
use pos_core::experiment::ExperimentSpec;
use pos_core::hash::sha256_hex;
use pos_core::vars::Variables;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::io;
use std::path::Path;

/// File name of the DAG spec inside an experiment bundle (next to
/// `experiment.yml`) and inside a DAG result tree.
pub const DAG_FILE: &str = "dag.yml";

/// What a stage node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum StageKind {
    /// Prepares the study: validates the spec, captures the testbed
    /// topology and host inventory into the result tree.
    Setup,
    /// A measurement sweep: executes the (possibly overridden) loop
    /// variable cross product as one parallel campaign. Incoming edges
    /// are scatter edges.
    Sweep,
    /// Evaluation/aggregation: consumes all results of its sweep
    /// predecessors and produces figures + a summary. Incoming edges
    /// from sweeps are gather edges.
    Gather,
}

impl StageKind {
    /// Journal/display label (`"setup"` / `"sweep"` / `"gather"`).
    pub fn label(&self) -> &'static str {
        match self {
            StageKind::Setup => "setup",
            StageKind::Sweep => "sweep",
            StageKind::Gather => "gather",
        }
    }
}

/// Kind of a dependency edge, derived from the endpoint stage kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Plain happens-before.
    Sequence,
    /// Fans the successor sweep's cross product across lanes.
    Scatter,
    /// The gather successor consumes all of the sweep's results.
    Gather,
}

/// One stage node of the DAG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StageSpec {
    /// Unique stage id (also the `stage-<id>` directory name in the
    /// result tree).
    pub id: String,
    /// What the stage does.
    pub kind: StageKind,
    /// Stages that must finish before this one starts.
    #[serde(default)]
    pub after: Vec<String>,
    /// Sweep stages only: replaces the experiment's loop variables for
    /// this stage, so one DAG can sweep different slices of the
    /// parameter space in different stages. `None` sweeps the
    /// experiment's own loop variables.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub loop_vars: Option<Variables>,
    /// Gather stages only: loop variable to group result series by
    /// (defaults to `pkt_sz`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub group_by: Option<String>,
    /// Gather stages only: loop variable on the x axis (defaults to
    /// `pkt_rate`).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub x: Option<String>,
    /// Gather stages only: measured metric on the y axis — one of
    /// `rx_mpps` (default), `tx_mpps`, `offered_mpps`, `loss`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub y: Option<String>,
    /// Gather stages only: plot title (defaults to the stage id).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub title: Option<String>,
}

impl StageSpec {
    /// A stage with no dependencies.
    pub fn new(id: impl Into<String>, kind: StageKind) -> StageSpec {
        StageSpec {
            id: id.into(),
            kind,
            after: Vec::new(),
            loop_vars: None,
            group_by: None,
            x: None,
            y: None,
            title: None,
        }
    }

    /// Adds a dependency.
    pub fn after(mut self, dep: impl Into<String>) -> StageSpec {
        self.after.push(dep.into());
        self
    }
}

/// A complete experiment DAG.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DagSpec {
    /// DAG name — the result directory component, so one base
    /// experiment can back several differently-named studies.
    pub name: String,
    /// The stage nodes.
    pub stages: Vec<StageSpec>,
}

impl DagSpec {
    /// An empty DAG with the given name.
    pub fn new(name: impl Into<String>) -> DagSpec {
        DagSpec {
            name: name.into(),
            stages: Vec::new(),
        }
    }

    /// Appends a stage.
    pub fn with_stage(mut self, stage: StageSpec) -> DagSpec {
        self.stages.push(stage);
        self
    }

    /// Looks a stage up by id.
    pub fn stage(&self, id: &str) -> Option<&StageSpec> {
        self.stages.iter().find(|s| s.id == id)
    }

    /// The kind of the edge `from → to`, derived from the stage kinds.
    pub fn edge_kind(&self, from: &StageSpec, to: &StageSpec) -> EdgeKind {
        if to.kind == StageKind::Sweep {
            EdgeKind::Scatter
        } else if from.kind == StageKind::Sweep && to.kind == StageKind::Gather {
            EdgeKind::Gather
        } else {
            EdgeKind::Sequence
        }
    }

    /// The sweep predecessors a gather stage consumes, in `after`
    /// order.
    pub fn gather_inputs(&self, gather: &StageSpec) -> Vec<&StageSpec> {
        gather
            .after
            .iter()
            .filter_map(|dep| self.stage(dep))
            .filter(|s| s.kind == StageKind::Sweep)
            .collect()
    }

    /// The effective experiment spec a sweep stage executes: the base
    /// experiment, with the stage's loop-variable override applied.
    pub fn effective_spec(&self, stage: &StageSpec, base: &ExperimentSpec) -> ExperimentSpec {
        let mut spec = base.clone();
        if let Some(vars) = &stage.loop_vars {
            spec.loop_vars = vars.clone();
        }
        spec
    }

    /// Checks structural invariants: unique ids, known dependencies,
    /// acyclicity, and every gather having a sweep to consume.
    pub fn validate(&self) -> Result<(), DagError> {
        if self.stages.is_empty() {
            return Err(DagError::Empty);
        }
        let mut seen = BTreeSet::new();
        for stage in &self.stages {
            if !seen.insert(stage.id.as_str()) {
                return Err(DagError::DuplicateStage {
                    id: stage.id.clone(),
                });
            }
        }
        for stage in &self.stages {
            for dep in &stage.after {
                if dep == &stage.id || !seen.contains(dep.as_str()) {
                    return Err(DagError::UnknownDependency {
                        stage: stage.id.clone(),
                        dep: dep.clone(),
                    });
                }
            }
            if stage.kind == StageKind::Gather && self.gather_inputs(stage).is_empty() {
                return Err(DagError::GatherWithoutSweep {
                    stage: stage.id.clone(),
                });
            }
        }
        // Acyclicity is the toposort's existence.
        crate::toposort::toposort(self).map(|_| ())
    }

    /// Canonical YAML rendering.
    pub fn to_yaml(&self) -> String {
        serde_yaml::to_string(self).unwrap_or_default()
    }

    /// Parses a DAG spec from YAML.
    pub fn from_yaml(text: &str) -> Result<DagSpec, io::Error> {
        serde_yaml::from_str(text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// SHA-256 of the canonical YAML — the DAG identity a resume
    /// verifies.
    pub fn digest(&self) -> String {
        sha256_hex(self.to_yaml().as_bytes())
    }

    /// Writes the DAG spec as `dag.yml` into `dir` (next to the
    /// experiment bundle).
    pub fn to_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join(DAG_FILE), self.to_yaml())
    }

    /// Reads `dag.yml` from `dir`.
    pub fn from_dir(dir: &Path) -> io::Result<DagSpec> {
        DagSpec::from_yaml(&std::fs::read_to_string(dir.join(DAG_FILE))?)
    }

    /// True when `dir` holds a DAG spec (`dag.yml`) — how the CLI and
    /// the `pos serve` daemon decide between a flat campaign and a DAG
    /// campaign for a submitted experiment directory.
    pub fn present_in(dir: &Path) -> bool {
        dir.join(DAG_FILE).exists()
    }
}

/// The linux-router case study restated as a 3-stage DAG: setup →
/// scattered rate sweep → gather eval producing the throughput plot.
pub fn linux_router_dag() -> DagSpec {
    DagSpec::new("linux-router-dag")
        .with_stage(StageSpec::new("setup", StageKind::Setup))
        .with_stage(StageSpec::new("rate-sweep", StageKind::Sweep).after("setup"))
        .with_stage({
            let mut eval = StageSpec::new("eval", StageKind::Gather).after("rate-sweep");
            eval.group_by = Some("pkt_sz".into());
            eval.x = Some("pkt_rate".into());
            eval.y = Some("rx_mpps".into());
            eval.title = Some("linux router forwarding rate".into());
            eval
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_dag_validates_and_round_trips() {
        let dag = linux_router_dag();
        dag.validate().expect("valid");
        let back = DagSpec::from_yaml(&dag.to_yaml()).expect("parses");
        assert_eq!(back.digest(), dag.digest());
        assert_eq!(back.stages.len(), 3);
    }

    #[test]
    fn edge_kinds_are_derived() {
        let dag = linux_router_dag();
        let setup = dag.stage("setup").unwrap();
        let sweep = dag.stage("rate-sweep").unwrap();
        let eval = dag.stage("eval").unwrap();
        assert_eq!(dag.edge_kind(setup, sweep), EdgeKind::Scatter);
        assert_eq!(dag.edge_kind(sweep, eval), EdgeKind::Gather);
        assert_eq!(dag.edge_kind(setup, eval), EdgeKind::Sequence);
    }

    #[test]
    fn validation_rejects_broken_shapes() {
        assert!(matches!(
            DagSpec::new("empty").validate(),
            Err(DagError::Empty)
        ));
        let dup = DagSpec::new("dup")
            .with_stage(StageSpec::new("a", StageKind::Setup))
            .with_stage(StageSpec::new("a", StageKind::Setup));
        assert!(matches!(
            dup.validate(),
            Err(DagError::DuplicateStage { .. })
        ));
        let dangling =
            DagSpec::new("dangling").with_stage(StageSpec::new("a", StageKind::Setup).after("b"));
        assert!(matches!(
            dangling.validate(),
            Err(DagError::UnknownDependency { .. })
        ));
        let cycle = DagSpec::new("cycle")
            .with_stage(StageSpec::new("a", StageKind::Sweep).after("b"))
            .with_stage(StageSpec::new("b", StageKind::Sweep).after("a"));
        assert!(matches!(cycle.validate(), Err(DagError::Cycle { .. })));
        let lonely_gather =
            DagSpec::new("lonely").with_stage(StageSpec::new("g", StageKind::Gather));
        assert!(matches!(
            lonely_gather.validate(),
            Err(DagError::GatherWithoutSweep { .. })
        ));
    }

    #[test]
    fn loop_override_changes_effective_spec_only() {
        let base = pos_core::experiment::linux_router_experiment("vriga", "vtartu", 3, 1);
        let dag = linux_router_dag();
        let mut stage = StageSpec::new("narrow", StageKind::Sweep);
        stage.loop_vars = Some(Variables::new().with(
            "pkt_sz",
            pos_core::vars::VarValue::List(vec![pos_core::vars::VarValue::Int(64)]),
        ));
        let eff = dag.effective_spec(&stage, &base);
        assert_eq!(eff.name, base.name);
        assert_ne!(eff.loop_vars, base.loop_vars);
    }
}
