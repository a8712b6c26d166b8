//! Journaled DAG execution.
//!
//! [`run_dag`] executes a validated DAG on an [`InProcessTarget`],
//! dispatching stages in the deterministic topological order over the
//! ready-set schedule, and write-ahead journals every transition as a
//! [`DagRecord`] through [`pos_core::journal`]:
//!
//! ```text
//! DagStarted            identity: name, digests, seed, testbed, target
//! NodeStarted(setup)
//! NodeFinished(setup)   subtree digest, virtual window
//! NodeStarted(sweep)    the scatter group fans out on leased lanes
//! NodeFinished(sweep)
//! NodeStarted(gather)
//! GatherSealed(gather)  all scatter inputs + their digests
//! NodeFinished(gather)
//! DagFinished           makespan, total failed runs
//! ```
//!
//! [`resume_dag`] folds that journal ([`DagJournal`]), checks the
//! journaled identity, verifies every `NodeFinished` digest against the
//! tree, fast-forwards verified nodes, resumes an
//! interrupted sweep through the scheduler's own resume, and re-executes
//! anything else from scratch — converging on a tree byte-identical to
//! an uninterrupted execution (journal files excepted).
//!
//! ## The result tree
//!
//! ```text
//! <root>/<user>/<dag-name>/vt-0000000000/
//!   journal.log           the DAG journal above
//!   dag.yml  dag.dot      the spec and its rendered graph
//!   experiment/           the base experiment bundle
//!   stage-setup/          topology.txt, hosts.txt, spec-digest.txt
//!   stage-<sweep>/        a full campaign tree (own journals inside)
//!   stage-<gather>/       figures/*.svg|.tex|.csv, summary.txt, inputs.txt
//! ```

use crate::journal::{DagIdentity, DagJournal, DagRecord, GatherSeal, NodeFinish};
use crate::spec::{DagSpec, StageKind, StageSpec};
use crate::target::{InProcessTarget, LeaseRecord};
use crate::{toposort, viz, DagError};
use pos_core::controller::RunOptions;
use pos_core::experiment::ExperimentSpec;
use pos_core::journal::{campaign_disk_state, CampaignDiskState, Journal, JOURNAL_FILE};
use pos_core::recovery::is_not_found;
use pos_core::resultstore::{tree_digest, ResultStore};
use pos_simkernel::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Virtual cost charged to a setup stage on the DAG schedule (boots,
/// tool deployment — nominal, deterministic).
const SETUP_COST_NS: u64 = 90 * 1_000_000_000;

/// Virtual cost charged to a gather stage (parsing + plotting).
const GATHER_COST_NS: u64 = 30 * 1_000_000_000;

/// Runtime choices for one DAG execution — deliberately *not* part of
/// the spec, so the same DAG digest covers every lane count.
#[derive(Debug, Clone)]
pub struct DagOptions {
    /// Worker lanes each scatter group leases.
    pub lanes: usize,
    /// Testbed root seed for every stage.
    pub seed: u64,
    /// Deterministic crash injection for the DAG journal: the append
    /// with this zero-based sequence number fails, stopping the DAG at
    /// exactly that record boundary (the crash-matrix knob).
    pub dag_crash_after: Option<u64>,
    /// With [`Self::dag_crash_after`], tear the failing frame (machine
    /// crash mid-write rather than clean process kill).
    pub dag_torn_write: bool,
}

impl DagOptions {
    /// `lanes` lanes at `seed`, no injected crash.
    pub fn new(lanes: usize, seed: u64) -> DagOptions {
        DagOptions {
            lanes: lanes.max(1),
            seed,
            dag_crash_after: None,
            dag_torn_write: false,
        }
    }
}

/// One stage's terminal state.
#[derive(Debug, Clone)]
pub struct NodeOutcome {
    /// The stage id.
    pub id: String,
    /// The stage kind.
    pub kind: StageKind,
    /// Deterministic digest of the stage's artifact subtree.
    pub digest: String,
    /// Virtual start on the DAG schedule, nanoseconds.
    pub started_ns: u64,
    /// Virtual finish on the DAG schedule, nanoseconds.
    pub finished_ns: u64,
    /// Failed measurement runs inside the stage (sweeps only).
    pub failed_runs: usize,
    /// True when a resume verified the journaled digest and skipped
    /// re-execution.
    pub verified: bool,
}

/// What a DAG execution produced.
#[derive(Debug)]
pub struct DagOutcome {
    /// Root of the DAG result tree.
    pub dag_dir: PathBuf,
    /// Per-stage outcomes, in dispatch order.
    pub nodes: Vec<NodeOutcome>,
    /// Virtual makespan of the ready-set schedule (stages overlap when
    /// independent), nanoseconds.
    pub makespan_ns: u64,
    /// Virtual cost of running every stage back to back, nanoseconds.
    pub sequential_ns: u64,
    /// Stage ids on the critical path, in order.
    pub critical_path: Vec<String>,
    /// The lane lease of every sweep stage this session executed, in
    /// dispatch order.
    pub leases: Vec<LeaseRecord>,
    /// Nodes a resume verified and fast-forwarded over.
    pub verified_nodes: usize,
    /// Total failed measurement runs across all sweep stages.
    pub failed_runs: usize,
}

impl DagOutcome {
    /// Virtual-time speedup of the DAG schedule over back-to-back
    /// stage execution.
    pub fn speedup(&self) -> f64 {
        if self.makespan_ns == 0 {
            return 1.0;
        }
        self.sequential_ns as f64 / self.makespan_ns as f64
    }

    /// Human-readable summary (the CLI's closing lines): the lease
    /// table, then the schedule.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "{:<12} {:>5} {:>5} {:>9}  STATE\n",
            "NODE", "LANES", "BM", "ELAPSED"
        );
        for l in &self.leases {
            let _ = writeln!(
                out,
                "{:<12} {:>5} {:>5} {:>9.1}  {}",
                l.node, l.lanes, l.bare_metal, l.elapsed_secs, l.state
            );
        }
        let _ = writeln!(
            out,
            "DAG complete: {} stages ({} verified-skipped), {} failed runs",
            self.nodes.len(),
            self.verified_nodes,
            self.failed_runs
        );
        let _ = writeln!(
            out,
            "virtual makespan {:.1}s vs {:.1}s sequential ({:.2}x), critical path: {}",
            self.makespan_ns as f64 / 1e9,
            self.sequential_ns as f64 / 1e9,
            self.speedup(),
            self.critical_path.join(" -> ")
        );
        out
    }
}

/// Maps a gather stage's `y` metric name onto the parsed run report.
fn metric(name: &str) -> Result<fn(&pos_eval::loader::ParsedRun) -> Option<f64>, String> {
    match name {
        "rx_mpps" => Ok(|r| Some(r.report()?.rx_mpps())),
        "tx_mpps" => Ok(|r| Some(r.report()?.tx_mpps())),
        "offered_mpps" => Ok(|r| Some(r.report()?.offered_mpps())),
        "loss" => Ok(|r| Some(r.report()?.loss_fraction())),
        other => Err(format!(
            "unknown metric `{other}` (expected rx_mpps, tx_mpps, offered_mpps or loss)"
        )),
    }
}

/// The sweep campaign tree inside a sweep stage's directory:
/// `stage-<id>/<user>/<name>/vt-<t>` (single chain of directories).
pub(crate) fn sweep_tree(stage_dir: &Path) -> Option<PathBuf> {
    let mut dir = stage_dir.to_path_buf();
    for _ in 0..3 {
        let mut subdirs: Vec<PathBuf> = fs::read_dir(&dir)
            .ok()?
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        subdirs.sort();
        dir = subdirs.into_iter().next()?;
    }
    Some(dir)
}

/// Shared per-stage execution: runs (or resumes) one stage, writes its
/// artifacts, and returns `(digest, failed_runs, duration_ns)`.
#[allow(clippy::too_many_arguments)]
fn execute_stage(
    dag: &DagSpec,
    stage: &StageSpec,
    exp: &ExperimentSpec,
    opts: &RunOptions,
    dopts: &DagOptions,
    target: &mut InProcessTarget,
    dag_dir: &Path,
    journal: &mut Journal<DagRecord>,
) -> Result<(String, usize, u64), DagError> {
    let stage_dir = dag_dir.join(format!("stage-{}", stage.id));
    match stage.kind {
        StageKind::Setup => {
            let topology = target.topology(exp)?;
            fs::create_dir_all(&stage_dir)?;
            let vfs = opts.vfs.clone();
            vfs.atomic_write(&stage_dir.join("topology.txt"), topology.as_bytes())?;
            vfs.atomic_write(
                &stage_dir.join("hosts.txt"),
                (exp.hosts().join("\n") + "\n").as_bytes(),
            )?;
            vfs.atomic_write(
                &stage_dir.join("spec-digest.txt"),
                format!("{}\n", exp.digest()).as_bytes(),
            )?;
            Ok((tree_digest(&stage_dir)?, 0, SETUP_COST_NS))
        }
        StageKind::Sweep => {
            let eff = dag.effective_spec(stage, exp);
            let mut sweep_opts = opts.clone();
            sweep_opts.result_root = stage_dir.clone();
            let existing = sweep_tree(&stage_dir)
                .filter(|t| !matches!(campaign_disk_state(t), CampaignDiskState::NoJournal));
            if existing.is_none() && stage_dir.exists() {
                // A husk without a durable journal record cannot be
                // resumed; wipe it so the rerun reclaims the canonical vt
                // path.
                fs::remove_dir_all(&stage_dir)?;
            }
            let out = target.sweep(
                existing.as_deref(),
                &stage.id,
                &eff,
                &sweep_opts,
                dopts.lanes,
            )?;
            Ok((
                tree_digest(&stage_dir)?,
                out.outcome.failed_runs.len(),
                out.parallel_elapsed.as_nanos(),
            ))
        }
        StageKind::Gather => {
            if stage_dir.exists() {
                fs::remove_dir_all(&stage_dir)?;
            }
            let inputs = dag.gather_inputs(stage);
            let group_key = stage.group_by.as_deref().unwrap_or("pkt_sz");
            let x_key = stage.x.as_deref().unwrap_or("pkt_rate");
            let y_key = stage.y.as_deref().unwrap_or("rx_mpps");
            let title = stage.title.as_deref().unwrap_or(&stage.id);
            let y = metric(y_key).map_err(|reason| DagError::Eval {
                stage: stage.id.clone(),
                reason,
            })?;
            let mut plot = pos_eval::plot::PlotSpec::line(title, x_key, y_key);
            let mut summary = String::new();
            let mut input_ids = Vec::new();
            let mut input_digests = Vec::new();
            for input in &inputs {
                let input_dir = dag_dir.join(format!("stage-{}", input.id));
                let tree = sweep_tree(&input_dir).ok_or_else(|| DagError::Eval {
                    stage: stage.id.clone(),
                    reason: format!("input stage `{}` has no result tree", input.id),
                })?;
                let set = pos_eval::loader::ResultSet::load(&tree).map_err(|e| DagError::Eval {
                    stage: stage.id.clone(),
                    reason: format!("input stage `{}` unloadable: {e}", input.id),
                })?;
                for (group, subset) in set.group_by(group_key) {
                    let series = subset.successful().series(x_key, y);
                    let label = if inputs.len() > 1 {
                        format!("{}/{group_key}={group}", input.id)
                    } else {
                        format!("{group_key}={group}")
                    };
                    plot = plot.with_series(label, series);
                }
                let _ = writeln!(summary, "== input: stage-{} ==", input.id);
                summary.push_str(&set.render_summary());
                input_ids.push(input.id.clone());
                input_digests.push(tree_digest(&input_dir)?);
            }
            let figures = stage_dir.join("figures");
            fs::create_dir_all(&figures)?;
            let vfs = opts.vfs.clone();
            vfs.atomic_write(
                &figures.join(format!("{}.svg", stage.id)),
                plot.render_svg().as_bytes(),
            )?;
            vfs.atomic_write(
                &figures.join(format!("{}.tex", stage.id)),
                plot.render_tex().as_bytes(),
            )?;
            vfs.atomic_write(
                &figures.join(format!("{}.csv", stage.id)),
                plot.render_csv().as_bytes(),
            )?;
            vfs.atomic_write(&stage_dir.join("summary.txt"), summary.as_bytes())?;
            vfs.atomic_write(
                &stage_dir.join("inputs.txt"),
                (input_ids.join("\n") + "\n").as_bytes(),
            )?;
            // Seal the gather barrier: all scatter inputs are consumed
            // and their digests recorded, *before* the node completes.
            journal.append(&DagRecord::GatherSealed(GatherSeal {
                node: stage.id.clone(),
                inputs: input_ids,
                input_digests,
            }))?;
            Ok((tree_digest(&stage_dir)?, 0, GATHER_COST_NS))
        }
    }
}

/// Critical path through the finished schedule: the chain of stages
/// ending at the latest finish, walking latest-finishing predecessors.
fn critical_path(dag: &DagSpec, finish: &BTreeMap<String, u64>) -> Vec<String> {
    let mut current = finish
        .iter()
        .max_by_key(|(id, ns)| (**ns, std::cmp::Reverse(id.as_str())))
        .map(|(id, _)| id.clone());
    let mut path = Vec::new();
    while let Some(id) = current {
        path.push(id.clone());
        current = dag
            .stage(&id)
            .into_iter()
            .flat_map(|s| s.after.iter())
            .filter_map(|dep| finish.get(dep).map(|ns| (dep.clone(), *ns)))
            .max_by_key(|(dep, ns)| (*ns, std::cmp::Reverse(dep.clone())))
            .map(|(dep, _)| dep);
    }
    path.reverse();
    path
}

/// Executes a DAG from scratch on `target`'s lanes.
///
/// `target` must boot the seed and testbed that `dopts` and `opts`
/// journal; otherwise the DAG is refused before its tree exists
/// ([`DagError::TargetMismatch`]). Creates the DAG result tree under
/// `opts.result_root` and hands it to [`resume_dag`], whose empty-journal
/// branch starts the journal: a fresh DAG is a resumed one with nothing
/// durable yet. Stages dispatch in deterministic topological order. The
/// virtual schedule honors the ready sets: a stage starts at the latest
/// finish of its dependencies, so independent stages overlap on the
/// reported makespan.
pub fn run_dag(
    dag: &DagSpec,
    exp: &ExperimentSpec,
    opts: &RunOptions,
    dopts: &DagOptions,
    target: &mut InProcessTarget,
) -> Result<DagOutcome, DagError> {
    dag.validate()?;
    exp.validate()
        .map_err(pos_core::controller::ControllerError::Spec)?;
    target.check(dopts.seed, &opts.testbed_flavor)?;
    let dag_dir = create_dag_tree(dag, exp, opts)?;
    resume_dag(&dag_dir, opts, dopts, target)
}

/// Creates a DAG's result tree, born whole: the tree directory, then
/// its stored inputs — `dag.yml`, `dag.dot` and the `experiment/`
/// bundle — each written atomically and fsynced through `opts.vfs`. The
/// journal comes last, from [`resume_dag`]'s empty-journal branch, so a
/// DAG journal never exists without the specs its resume loads.
fn create_dag_tree(
    dag: &DagSpec,
    exp: &ExperimentSpec,
    opts: &RunOptions,
) -> Result<PathBuf, DagError> {
    let store = ResultStore::create(&opts.result_root, &exp.user, &dag.name, SimTime::ZERO)?
        .with_vfs(opts.vfs.clone());
    store.write(crate::spec::DAG_FILE, dag.to_yaml())?;
    store.write("dag.dot", viz::render_dot(dag, Some(exp), None))?;
    store.write_experiment(exp)?;
    Ok(store.dir().to_path_buf())
}

/// Resumes an interrupted DAG from its result tree.
///
/// The tree's own stored `dag.yml` and `experiment/` bundle are the
/// authoritative specs. The journaled identity (`DagStarted`) must
/// match the stored specs and the options' seed and testbed — a DAG
/// resumed under different identity would not replay the recorded
/// timeline, so the mismatch is refused ([`crate::DagIdentity::check`]),
/// not papered over; so is a `target` that boots another seed or
/// testbed than the options name ([`DagError::TargetMismatch`]). A
/// tree whose journal holds no record (missing, or only a torn first
/// frame) starts the DAG from its first stage; that is how [`run_dag`]
/// executes a fresh tree.
///
/// Stages dispatch in deterministic topological order, skipping the
/// verified ones, journaling every transition and maintaining the
/// virtual schedule.
pub fn resume_dag(
    dag_dir: &Path,
    opts: &RunOptions,
    dopts: &DagOptions,
    target: &mut InProcessTarget,
) -> Result<DagOutcome, DagError> {
    target.check(dopts.seed, &opts.testbed_flavor)?;
    let fold = match DagJournal::read(dag_dir) {
        Err(e) if is_not_found(&e) => DagJournal::default(),
        fold => fold?,
    };
    let dag = DagSpec::from_dir(dag_dir)?;
    let exp = ExperimentSpec::from_dir(&dag_dir.join("experiment"))?;
    let order = toposort::toposort(&dag)?;

    let identity = DagIdentity::new(&dag, &exp, dopts.seed, &opts.testbed_flavor);
    let mut verified: BTreeMap<String, NodeOutcome> = BTreeMap::new();
    let (mut journal, first) = if fold.records == 0 {
        // A fresh tree, or a crash before even DagStarted was durable:
        // nothing ran. The journal and its `DagStarted` are the last step
        // of the tree's creation; every stage executes.
        let journal = Journal::create_with(dag_dir.join(JOURNAL_FILE), opts.vfs.clone())?;
        (journal, DagRecord::DagStarted(identity))
    } else {
        fold.identity()?.check(&identity)?;
        // Fast-forward set: journaled nodes whose subtree digest still
        // verifies on disk. A mismatch means the crash landed mid-write
        // (or the tree was damaged) — re-execute that node.
        for (node, fin) in &fold.finished {
            let on_disk = tree_digest(&dag_dir.join(format!("stage-{node}"))).unwrap_or_default();
            if on_disk == fin.digest {
                verified.insert(
                    node.clone(),
                    NodeOutcome {
                        id: node.clone(),
                        kind: dag.stage(node).map(|s| s.kind).unwrap_or(StageKind::Setup),
                        digest: fin.digest.clone(),
                        started_ns: fin.started_ns,
                        finished_ns: fin.finished_ns,
                        failed_runs: fin.failed_runs,
                        verified: true,
                    },
                );
            }
        }
        let journal = Journal::open_append_with(dag_dir.join(JOURNAL_FILE), opts.vfs.clone())?;
        let resumed = DagRecord::DagResumed {
            verified_nodes: verified.len(),
        };
        (journal, resumed)
    };
    journal.arm_crash(dopts.dag_crash_after, dopts.dag_torn_write);
    journal.append(&first)?;

    let mut finish: BTreeMap<String, u64> = BTreeMap::new();
    let mut nodes = Vec::with_capacity(order.len());
    let mut failed_runs = 0usize;
    let mut sequential_ns = 0u64;
    for i in order {
        let stage = &dag.stages[i];
        if let Some(done) = verified.get(&stage.id) {
            finish.insert(stage.id.clone(), done.finished_ns);
            sequential_ns += done.finished_ns.saturating_sub(done.started_ns);
            failed_runs += done.failed_runs;
            nodes.push(done.clone());
            continue;
        }
        let started_ns = stage
            .after
            .iter()
            .filter_map(|dep| finish.get(dep))
            .copied()
            .max()
            .unwrap_or(0);
        journal.append(&DagRecord::NodeStarted {
            node: stage.id.clone(),
            kind: stage.kind.label().into(),
            started_ns,
        })?;
        let (digest, stage_failed, duration_ns) = execute_stage(
            &dag,
            stage,
            &exp,
            opts,
            dopts,
            target,
            dag_dir,
            &mut journal,
        )?;
        let finished_ns = started_ns + duration_ns;
        journal.append(&DagRecord::NodeFinished(NodeFinish {
            node: stage.id.clone(),
            digest: digest.clone(),
            started_ns,
            finished_ns,
            failed_runs: stage_failed,
        }))?;
        finish.insert(stage.id.clone(), finished_ns);
        sequential_ns += duration_ns;
        failed_runs += stage_failed;
        nodes.push(NodeOutcome {
            id: stage.id.clone(),
            kind: stage.kind,
            digest,
            started_ns,
            finished_ns,
            failed_runs: stage_failed,
            verified: false,
        });
    }

    let makespan_ns = finish.values().copied().max().unwrap_or(0);
    journal.append(&DagRecord::DagFinished {
        nodes: nodes.len(),
        failed_runs,
        makespan_ns,
    })?;
    Ok(DagOutcome {
        dag_dir: dag_dir.to_path_buf(),
        critical_path: critical_path(&dag, &finish),
        nodes,
        makespan_ns,
        sequential_ns,
        leases: target.leases.clone(),
        verified_nodes: verified.len(),
        failed_runs,
    })
}
