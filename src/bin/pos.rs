//! `pos` — the command-line face of the toolchain.
//!
//! Mirrors the workflow of Appendix A: scaffold an experiment directory,
//! run it on a (simulated) testbed, evaluate the result tree into figures,
//! and publish everything as a release bundle with a website.
//!
//! ```text
//! pos init <dir>                        scaffold the case-study experiment
//! pos run <dir> [options]               execute the experiment
//!     --results <root>     result tree root       (default: ./results)
//!     --testbed pos|vpos   hardware or VM testbed (default: pos)
//!     --seed <n>           testbed seed           (default: 1799)
//! pos resume <result-dir> [options]     pick up an interrupted campaign or DAG
//!     --testbed pos|vpos   refuse unless the tree ran on this testbed
//! pos serve [options]                   crash-surviving campaign daemon
//!     --state <dir>        its ledger             (default: ./serve-state)
//!     --listen <addr>      HTTP endpoint          (default: 127.0.0.1:0)
//! pos queue ... --queue <dir>           the same ledger, offline (default: ./queue)
//! pos queue ... --daemon <addr>         speak to a running daemon
//! pos dag init|run|resume|viz ...       experiment DAGs (scatter/gather stages)
//! pos fsck <result-dir>                 verify journal + per-run checksums
//! pos scrub <result-dir> [--repair]     detect (and heal) bit rot
//! pos eval <result-dir> [--out <dir>]   parse, aggregate, plot
//! pos publish <result-dir> [options]    bundle + manifest + website
//!     --out <dir>          release directory      (default: ./release)
//!     --tar <file>         additionally write a tar archive
//!     --title <text>       website title
//! pos table1                            print the Table 1 comparison
//! ```
//!
//! Argument parsing is deliberately hand-rolled: the CLI's needs are a
//! dozen flags, not a dependency.

use pos::core::commands::case_study_testbed;
use pos::core::controller::{Controller, ExperimentOutcome, Progress, RunOptions};
use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::core::journal::CampaignDiskState;
use pos::core::recovery::CampaignIdentity;
use pos::core::resultstore::ResultStore;
use pos::core::vfs::{FaultPlan, Vfs};
use pos::dag::{tree_disk_state, DagError, Resumable, ResumableDag, TreeKind};
use pos::eval::loader::ResultSet;
use pos::eval::plot::PlotSpec;
use pos::publish::bundle::{verify_dir, verify_runs, Bundle};
use pos::publish::website::{attach_site, SiteInfo};
use pos::sched::{
    run_parallel, LaneFaultPlan, LaneFlavor, LaneRecovery, ParallelOptions, ParallelOutcome,
    Resumed, Submission, SubmissionQueue,
};
use pos::serve::{
    check_submission, http_request, rebuild, signal as serve_signal, DrainAck, ErrorBody,
    ExitReport, HttpServer, LedgerRecord, RecoveredState, ServeEngine, ServeOptions, ServeStatus,
    StepOutcome, SubmitAck, SubmitRequest, SubmitResponse, LEDGER_FILE,
};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a command finished. `Degraded` is the contract for a campaign
/// that *completed* — full result tree, sealed journals — but recorded
/// failed or quarantined runs: exit code 3, distinct from both success
/// (0) and error/abort (1), so automation can tell "usable but
/// imperfect" from "dead".
enum Completion {
    Clean,
    Degraded,
}

/// Exit code for a degraded-but-complete campaign.
const EXIT_DEGRADED: u8 = 3;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("init") => cmd_init(&args[1..]).map(|()| Completion::Clean),
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..], false),
        Some("serve") => cmd_serve(&args[1..]),
        Some("queue") => cmd_queue(&args[1..]),
        Some("dag") => cmd_dag(&args[1..]),
        Some("fsck") => cmd_fsck(&args[1..]).map(|()| Completion::Clean),
        Some("scrub") => cmd_scrub(&args[1..]),
        Some("eval") => cmd_eval(&args[1..]).map(|()| Completion::Clean),
        Some("publish") => cmd_publish(&args[1..]).map(|()| Completion::Clean),
        Some("table1") => {
            print!("{}", pos::core::requirements::render_table1());
            Ok(Completion::Clean)
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", usage());
            Ok(Completion::Clean)
        }
        Some(other) => Err(format!("unknown command `{other}`\n\n{}", usage())),
    };
    match result {
        Ok(Completion::Clean) => ExitCode::SUCCESS,
        Ok(Completion::Degraded) => {
            eprintln!(
                "pos: completed DEGRADED (failed/quarantined runs, or a campaign \
                 checkpointed by a storage fault; see messages above); \
                 exit code {EXIT_DEGRADED}"
            );
            ExitCode::from(EXIT_DEGRADED)
        }
        Err(msg) => {
            eprintln!("pos: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> &'static str {
    "pos — reproducible network experiments (CoNEXT '21 reproduction)\n\
     \n\
     usage:\n\
     \x20 pos init <dir>                     scaffold the case-study experiment\n\
     \x20 pos run <dir> [--results <root>] [--testbed pos|vpos] [--seed <n>]\n\
     \x20         [--lanes <n>] [--site-replicas <n>]   parallel worker lanes\n\
     \x20         [--max-run-retries <n>] [--lane-grace <f>]\n\
     \x20         [--lane-recovery redistribute|replace] [--poison-threshold <n>]\n\
     \x20         [--lane-faults <json-file>]            injected lane faults\n\
     \x20         [--disk-faults <json-file>]            injected storage faults\n\
     \x20         exit codes: 0 ok, 1 error, 3 degraded completion\n\
     \x20         (3 also means: out of disk space, checkpointed — resumable)\n\
     \x20 pos resume <result-dir> [--testbed pos|vpos] [--disk-faults <json-file>]\n\
     \x20         campaign or DAG tree; seed and testbed come from its journal\n\
     \x20 pos serve [--state <dir>] [--results <root>] [--listen <addr>]\n\
     \x20         [--capacity <n>] [--user-backlog <n>] [--seed <n>] [--lanes <n>]\n\
     \x20         crash-surviving daemon: journals before acknowledging, survives\n\
     \x20         kill -9 + restart; SIGTERM drains (twice: checkpoint in-flight)\n\
     \x20         exit codes: 0 everything completed clean, 3 otherwise; an absent\n\
     \x20         flag takes the last session's value (first: results, 64, 4, 1799)\n\
     \x20 pos queue submit <exp-dir> [--user <u>] [--priority <n>] [--token <t>]\n\
     \x20 pos queue status | drain [--results <root>] [--seed <n>] [--lanes <n>]\n\
     \x20         --daemon <addr>: over HTTP to pos serve (drain keeps the backlog);\n\
     \x20         else offline on the pos serve state dir [--queue <dir>] (./queue):\n\
     \x20         drain runs the backlog (exit 0 or 3), a later submit reopens it;\n\
     \x20         flags as for pos serve (first session: capacity 8, no backlog cap)\n\
     \x20 pos dag init <dir>                 scaffold experiment + 3-stage dag.yml\n\
     \x20 pos dag run <dir> [--results <root>] [--seed <n>] [--lanes <n>]\n\
     \x20         [--testbed pos|vpos] [--site-replicas <n>]\n\
     \x20         [--disk-faults <json-file>]  execute an experiment DAG\n\
     \x20 pos dag resume <result-dir> [--lanes <n>] [--disk-faults <json-file>]\n\
     \x20 pos dag viz <dir> [--format ascii|dot]   render DAG (+ testbed) graph\n\
     \x20 pos fsck <result-dir | serve-state> verify journals + checksums / ledger\n\
     \x20         (DAG trees are audited per node: stranded scatter groups,\n\
     \x20          unsealed gathers, subtree digests, inner campaign fsck)\n\
     \x20 pos scrub <result-dir> [--repair] [--json <file>]   detect/heal bit rot\n\
     \x20 pos eval <result-dir> [--out <dir>]\n\
     \x20 pos publish <result-dir> [--out <dir>] [--tar <file>] [--title <text>]\n\
     \x20 pos table1                         print the testbed comparison\n"
}

/// The value of `--name` parsed, or `default` when the flag is absent.
fn flag<T: std::str::FromStr>(
    opts: &std::collections::BTreeMap<&str, &str>,
    name: &str,
    default: T,
) -> Result<T, String> {
    opts.get(name).map_or(Ok(default), |s| {
        s.parse().map_err(|_| format!("bad --{name} {s}"))
    })
}

/// `--lanes`: worker lanes, at least 1 (default 1).
fn lanes_flag(opts: &std::collections::BTreeMap<&str, &str>) -> Result<usize, String> {
    match flag(opts, "lanes", 1)? {
        0 => Err("--lanes must be at least 1".into()),
        lanes => Ok(lanes),
    }
}

/// Splits `args` into positionals and `--flag value` options, refusing
/// any flag not among the space-separated `known` names: a mistyped
/// `--seed` must not quietly run on the default seed.
fn parse_opts<'a>(
    args: &'a [String],
    known: &str,
) -> Result<(Vec<&'a str>, std::collections::BTreeMap<&'a str, &'a str>), String> {
    let mut positional = Vec::new();
    let mut opts = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(flag) = args[i].strip_prefix("--") {
            if !known.split_whitespace().any(|k| k == flag) {
                return Err(format!("unknown option --{flag}; see `pos help`"));
            }
            let value = args
                .get(i + 1)
                .ok_or_else(|| format!("--{flag} needs a value"))?;
            opts.insert(flag, value.as_str());
            i += 2;
        } else {
            positional.push(args[i].as_str());
            i += 1;
        }
    }
    Ok((positional, opts))
}

fn cmd_init(args: &[String]) -> Result<(), String> {
    let (pos_args, _) = parse_opts(args, "")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos init <dir>".into());
    };
    let dir = Path::new(dir);
    if dir.join("experiment.yml").exists() {
        return Err(format!("{} already holds an experiment", dir.display()));
    }
    let spec = linux_router_experiment("vriga", "vtartu", 30, 10);
    spec.to_dir(dir).map_err(|e| e.to_string())?;
    println!(
        "scaffolded `{}` ({} loop-variable combinations) in {}",
        spec.name,
        pos::core::loopvars::cross_product_size(&spec.loop_vars).unwrap_or(0),
        dir.display()
    );
    println!(
        "edit the scripts/variables, then: pos run {}",
        dir.display()
    );
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<Completion, String> {
    let (pos_args, opts) = parse_opts(
        args,
        "results testbed seed lanes site-replicas max-run-retries lane-grace \
         lane-recovery poison-threshold lane-faults disk-faults",
    )?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos run <experiment-dir> [options]".into());
    };
    let spec = ExperimentSpec::from_dir(Path::new(dir))
        .map_err(|e| format!("cannot load experiment from {dir}: {e}"))?;
    spec.validate().map_err(|e| e.to_string())?;

    let results = PathBuf::from(opts.get("results").copied().unwrap_or("results"));
    let seed: u64 = flag(&opts, "seed", 0x707)?;
    let virtualized = match opts.get("testbed").copied().unwrap_or("pos") {
        "pos" => false,
        "vpos" => true,
        other => return Err(format!("--testbed must be pos or vpos, got {other}")),
    };

    let lanes = lanes_flag(&opts)?;
    let site_replicas: usize = flag(&opts, "site-replicas", lanes)?;

    let mut run_opts = RunOptions::new(&results);
    run_opts.testbed_flavor = if virtualized { "vpos" } else { "pos" }.into();
    run_opts.max_run_retries = flag(&opts, "max-run-retries", run_opts.max_run_retries)?;
    if let Some(&file) = opts.get("disk-faults") {
        run_opts.vfs = load_disk_faults(file)?;
    }

    let mut supervisor = pos::sched::SupervisorOptions::default();
    if let Some(&g) = opts.get("lane-grace") {
        supervisor.grace_factor = g.parse().map_err(|_| format!("bad --lane-grace {g}"))?;
        if !supervisor.grace_factor.is_finite() || supervisor.grace_factor <= 0.0 {
            return Err(format!("--lane-grace must be a positive factor, got {g}"));
        }
    }
    supervisor.poison_threshold = flag(&opts, "poison-threshold", supervisor.poison_threshold)?;
    if supervisor.poison_threshold == 0 {
        return Err("--poison-threshold must be at least 1".into());
    }
    if let Some(&policy) = opts.get("lane-recovery") {
        supervisor.recovery = match policy {
            "redistribute" => LaneRecovery::Redistribute,
            "replace" | "replacement" => LaneRecovery::Replacement,
            other => {
                return Err(format!(
                    "--lane-recovery must be redistribute or replace, got {other}"
                ))
            }
        };
    }
    if let Some(&file) = opts.get("lane-faults") {
        let json = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read --lane-faults {file}: {e}"))?;
        supervisor.fault_plan = serde_json::from_str::<LaneFaultPlan>(&json)
            .map_err(|e| format!("{file} is not a valid lane fault plan: {e}"))?;
    }

    // A fault plan needs the supervisor, so even a single lane routes
    // through the parallel path (this is what the byte-identity contract
    // compares against: `--lanes 1` under the same fault plan).
    let supervised = lanes > 1 || !supervisor.fault_plan.is_empty();
    if supervised {
        if virtualized {
            return Err(
                "--lanes and --lane-faults need the pos testbed; lanes beyond \
                 --site-replicas run on vpos clones automatically"
                    .into(),
            );
        }
        // Validate construction once up front; replica lanes rebuild the
        // same testbed and cannot fail differently.
        case_study_testbed(&spec, seed, false, false).map_err(|e| e.to_string())?;
        println!(
            "running `{}` on {lanes} lanes ({site_replicas} bare-metal replica sets, seed {seed}, {} runs)...",
            spec.name,
            pos::core::loopvars::cross_product_size(&spec.loop_vars).unwrap_or(0)
        );
        let popts = ParallelOptions {
            lanes,
            site_replicas,
            supervisor,
        };
        let out = match run_parallel(&spec, &run_opts, &popts, &mut |_, flavor| {
            case_study_testbed(&spec, seed, flavor == LaneFlavor::Virtual, true)
        }) {
            Ok(out) => out,
            Err(e) => return checkpointed_or_error(e.into(), resume_hint(&results).as_deref()),
        };
        print_parallel_outcome(&out);
        return Ok(completion_of(&out.outcome));
    }

    let mut tb = case_study_testbed(&spec, seed, virtualized, false).map_err(|e| e.to_string())?;
    println!(
        "running `{}` on the {} testbed (seed {seed}, {} runs)...",
        spec.name,
        if virtualized { "vpos" } else { "pos" },
        pos::core::loopvars::cross_product_size(&spec.loop_vars).unwrap_or(0)
    );
    let outcome = match Controller::new(&mut tb)
        .with_progress(print_progress)
        .run_experiment(&spec, &run_opts)
    {
        Ok(outcome) => outcome,
        Err(e) => return checkpointed_or_error(e.into(), resume_hint(&results).as_deref()),
    };
    print_outcome(&outcome);
    Ok(completion_of(&outcome))
}

/// Loads a serialized [`FaultPlan`] and arms a faulty [`Vfs`] with it.
fn load_disk_faults(file: &str) -> Result<Vfs, String> {
    let json = std::fs::read_to_string(file)
        .map_err(|e| format!("cannot read --disk-faults {file}: {e}"))?;
    let plan: FaultPlan = serde_json::from_str(&json)
        .map_err(|e| format!("{file} is not a valid disk fault plan: {e}"))?;
    Vfs::faulty(plan).map_err(|e| format!("{file}: {e}"))
}

/// The checkpoint contract: running out of disk space or being
/// cooperatively canceled (a draining daemon's second SIGTERM) is a
/// *graceful* degradation, not an abort. The write-ahead journal
/// guarantees the tree is consistent at the last appended record, so
/// the campaign is a checkpoint — `pos resume` completes it once space
/// returns or the urgency passes. A fault before the tree's journal
/// exists (`resume_at` is `None`) leaves nothing to resume, and any
/// other error stays a hard error too (exit 1).
fn checkpointed_or_error(e: DagError, resume_at: Option<&str>) -> Result<Completion, String> {
    let Some(resume_at) = resume_at.filter(|_| e.is_checkpoint()) else {
        return Err(e.to_string());
    };
    eprintln!("pos: checkpointed: {e}");
    eprintln!(
        "pos: campaign checkpointed at the last consistent journal boundary; \
         run `pos resume {resume_at}` to complete"
    );
    Ok(Completion::Degraded)
}

/// The tree a checkpointed `pos run` or `pos dag run` left under a
/// result root, for its resume hint: the youngest of the trees the
/// store nests as `<root>/<user>/<experiment>/vt-<time>/`, when its
/// journal holds a durable record. `None` when it does not — the fault
/// hit while the tree's inputs were being stored, or on the journal's
/// first append — since `pos resume` has nothing to resume from.
fn resume_hint(root: &Path) -> Option<String> {
    fn walk(dir: &Path, found: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if !path.is_dir() {
                continue;
            }
            if entry.file_name().to_string_lossy().starts_with("vt-") {
                found.push(path);
            } else {
                walk(&path, found);
            }
        }
    }
    let mut found = Vec::new();
    walk(root, &mut found);
    let tree = ResultStore::youngest(found)?;
    (tree_disk_state(&tree) != CampaignDiskState::NoJournal).then(|| tree.display().to_string())
}

/// The degraded-exit-code contract: a campaign that completed but
/// recorded failed or quarantined runs exits with code 3.
fn completion_of(outcome: &ExperimentOutcome) -> Completion {
    if outcome.failed_runs.is_empty() && outcome.quarantined_runs.is_empty() {
        Completion::Clean
    } else {
        Completion::Degraded
    }
}

/// The parallel variant of [`print_outcome`]: per-run lines come from the
/// merged records (the lanes have no live progress callback), followed by
/// the lane and speedup summary.
fn print_parallel_outcome(out: &ParallelOutcome) {
    for r in &out.outcome.runs {
        println!(
            "  run {}/{} {}",
            r.params.index + 1,
            out.outcome.runs.len(),
            if r.success { "ok" } else { "FAILED" }
        );
    }
    println!(
        "lanes: {} [{}], runs per lane {:?}",
        out.lanes,
        out.flavors.join(","),
        out.lane_runs.iter().map(Vec::len).collect::<Vec<_>>()
    );
    println!(
        "virtual time: {} sequential -> {} parallel ({:.2}x speedup)",
        out.sequential_elapsed,
        out.parallel_elapsed,
        out.speedup()
    );
    if !out.retired_lanes.is_empty() || out.replanned_lanes > 0 {
        println!(
            "failover: {} lane(s) retired, {} replacement lane(s), \
             {} retry step(s), {} failover time",
            out.retired_lanes.len(),
            out.replanned_lanes,
            out.ladder_retries,
            out.failover_time
        );
        for (lane, reason) in &out.retired_lanes {
            println!("  lane {lane} retired: {reason}");
        }
    }
    if !out.outcome.quarantined_runs.is_empty() {
        println!(
            "quarantined runs: {:?} (forensics under quarantine/)",
            out.outcome.quarantined_runs
        );
    }
    print_outcome(&out.outcome);
}

/// One line per lifecycle event — the paper's progress bar.
fn print_progress(p: &Progress) {
    match p {
        Progress::HostReady { host } => println!("  {host} booted"),
        Progress::SetupDone => println!("  setup phase complete"),
        Progress::RunDone {
            index,
            total,
            success,
            ..
        } => {
            println!(
                "  run {}/{} {}",
                index + 1,
                total,
                if *success { "ok" } else { "FAILED" }
            );
        }
        Progress::RunSkipped { index, total } => {
            println!("  run {}/{} ok (verified, skipped)", index + 1, total);
        }
        Progress::PowerRetry {
            host,
            attempt,
            delay,
        } => {
            println!("  {host}: power command retry {attempt} (waited {delay})");
        }
        Progress::RunRetry {
            index,
            attempt,
            delay,
        } => {
            println!(
                "  run {}: attempt {attempt} failed, retrying after {delay}",
                index + 1
            );
        }
        Progress::HostRecovering { host } => println!("  {host}: unresponsive, recovering"),
        Progress::HostRecovered { host } => println!("  {host}: recovered"),
        Progress::HostQuarantined { host } => println!("  {host}: QUARANTINED"),
    }
}

fn print_outcome(outcome: &ExperimentOutcome) {
    println!(
        "done: {}/{} runs, {} recoveries, {} virtual time",
        outcome.successes(),
        outcome.runs.len(),
        outcome.recoveries,
        outcome.finished - outcome.started
    );
    println!("result tree: {}", outcome.result_dir.display());
    println!("next: pos eval {}", outcome.result_dir.display());
}

/// `pos resume <tree>` and `pos dag resume <tree>` (`dag`): one resume
/// for both tree kinds. The tree's journal fixes its identity (seed and
/// testbed); `pos resume` picks the kind from the stored `dag.yml`,
/// `pos dag resume` opens a DAG only.
fn cmd_resume(args: &[String], dag: bool) -> Result<Completion, String> {
    // The journal fixes everything else; `--testbed` only cross-checks it.
    let known = if dag { "lanes" } else { "testbed" };
    let (pos_args, opts) = parse_opts(args, &format!("{known} disk-faults"))?;
    let usage = if dag {
        "usage: pos dag resume <result-dir> [--lanes <n>] [--disk-faults <file>]"
    } else {
        "usage: pos resume <result-dir> [--testbed pos|vpos] [--disk-faults <file>]"
    };
    let [dir] = pos_args.as_slice() else {
        return Err(usage.into());
    };
    let result_dir = Path::new(dir);
    // result_root is unused on resume (the tree already exists) but the
    // options still carry timeouts, failure policy and the storage layer.
    let mut run_opts = RunOptions::new(result_dir);
    if let Some(&file) = opts.get("disk-faults") {
        run_opts.vfs = load_disk_faults(file)?;
    }
    let tree = if dag {
        ResumableDag::open(result_dir).map(Resumable::Dag)
    } else {
        Resumable::open(result_dir)
    };
    let tree = tree.map_err(|e| format!("{dir}: {e}"))?;
    let testbed = match &tree {
        Resumable::Campaign(tree) => tree.identity.testbed.clone(),
        Resumable::Dag(tree) => tree.identity.testbed.clone(),
    };
    if !matches!(testbed.as_str(), "pos" | "vpos") {
        return Err(format!(
            "{dir}: journal records unknown testbed `{testbed}`"
        ));
    }
    if let Some(&flag) = opts.get("testbed") {
        if flag != testbed.as_str() {
            return Err(format!(
                "campaign ran on the `{testbed}` testbed; drop --testbed or pass --testbed {testbed}"
            ));
        }
    }
    match tree {
        Resumable::Dag(tree) => {
            let lanes = lanes_flag(&opts)?;
            let id = &tree.identity;
            println!(
                "resuming DAG tree {dir} ({lanes} lanes, seed {})...",
                id.seed
            );
            match tree.resume(&run_opts, lanes) {
                Ok(out) => Ok(print_dag_outcome(&out)),
                Err(e) => checkpointed_or_error(e, Some(dir)),
            }
        }
        Resumable::Campaign(tree) => {
            let CampaignIdentity {
                seed, total_runs, ..
            } = &tree.identity;
            if tree.journals.journal.finished() {
                // A finished campaign is only off-limits while it is
                // *intact*; resuming a damaged one is how bit rot gets
                // repaired.
                let report = pos::core::fsck::fsck(result_dir).map_err(|e| e.to_string())?;
                if report.is_clean() {
                    return Err(format!(
                        "{dir}: campaign already finished, nothing to resume"
                    ));
                }
                println!(
                    "campaign finished but {} run(s) fail verification; repairing",
                    report.broken_runs().len()
                );
            }
            let spec = tree
                .load_spec()
                .map_err(|e| format!("cannot load stored experiment from {dir}/experiment: {e}"))?;
            spec.validate().map_err(|e| e.to_string())?;
            // A topology the testbed cannot wire is refused before the banner.
            case_study_testbed(&spec, *seed, false, false).map_err(|e| e.to_string())?;
            match tree.lanes() {
                Some(lanes) => println!(
                    "resuming `{}` on {lanes} lanes (seed {seed}, {total_runs} runs planned)...",
                    spec.name,
                ),
                None => println!(
                    "resuming `{}` on the {testbed} testbed (seed {seed}, {total_runs} runs planned)...",
                    spec.name,
                ),
            }
            match tree.resume(&spec, &run_opts, print_progress) {
                Ok(Resumed::Parallel(out)) => {
                    print_parallel_outcome(&out);
                    Ok(completion_of(&out.outcome))
                }
                Ok(Resumed::Sequential(outcome)) => {
                    print_outcome(&outcome);
                    Ok(completion_of(&outcome))
                }
                Err(e) => checkpointed_or_error(e.into(), Some(dir)),
            }
        }
    }
}

/// `pos serve` — the long-running, crash-surviving campaign daemon.
///
/// Every state transition is journaled to the queue ledger *before* it
/// is acknowledged, so a `kill -9` at any point restarts into a
/// consistent state: re-running `pos serve` with the same `--state`
/// replays the ledger, resumes the in-flight campaign, and keeps
/// serving the surviving backlog. SIGTERM drains (finish the in-flight
/// campaign, keep the backlog durable); a second SIGTERM checkpoints
/// the in-flight campaign too. Exit code 0 means every accepted
/// submission completed cleanly; 3 means something is left pending,
/// degraded, failed, or checkpointed. Absent `--results`, `--capacity`,
/// `--user-backlog` and `--seed` take the last session's recorded values
/// (first session: `results`, 64, 4 and 1799).
fn cmd_serve(args: &[String]) -> Result<Completion, String> {
    let (pos_args, opts) = parse_opts(
        args,
        "state results listen capacity user-backlog seed lanes",
    )?;
    if !pos_args.is_empty() {
        return Err(
            "usage: pos serve [--state <dir>] [--results <root>] [--listen <addr>] \
             [--capacity <n>] [--user-backlog <n>] [--seed <n>] [--lanes <n>]"
                .into(),
        );
    }
    let state = Path::new(opts.get("state").copied().unwrap_or("serve-state"));
    let listen = opts.get("listen").copied().unwrap_or("127.0.0.1:0");
    let _lock = lock_state_dir(state)?;
    let (_, sopts) = resolve_session(ServeOptions::new(state, "results"), &opts)?;
    serve_signal::install();
    let engine = Arc::new(ServeEngine::start(sopts).map_err(|e| e.to_string())?);
    let server = HttpServer::bind(listen).map_err(|e| e.to_string())?;
    let addr = server.addr();
    // Scripts discover an ephemeral port from `<state>/addr`; humans
    // from stdout — flushed explicitly, because a daemon whose stdout
    // is a pipe block-buffers and the announcement would sit unseen.
    std::fs::write(state.join("addr"), addr.to_string()).map_err(|e| e.to_string())?;
    println!("pos-serve: listening on {addr}");
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let stop = Arc::new(AtomicBool::new(false));
    let handle = server.spawn(engine.clone(), stop.clone());
    let report = engine.run_loop(
        serve_signal::termination_requests,
        Duration::from_millis(25),
    );
    stop.store(true, Ordering::SeqCst);
    let _ = handle.join();
    let report = report.map_err(|e| e.to_string())?;
    Ok(verdict("pos-serve", &report))
}

/// Prints a session's exit report; clean (exit 0) or degraded (3).
fn verdict(who: &str, report: &ExitReport) -> Completion {
    println!(
        "{who}: drained ({} completed, {} degraded, {} failed, {} checkpointed, \
         {} pending, {} in flight)",
        report.totals.completed,
        report.totals.completed_degraded,
        report.totals.failed,
        report.totals.checkpointed,
        report.pending,
        report.in_flight,
    );
    if report.clean {
        Completion::Clean
    } else {
        Completion::Degraded
    }
}

/// Holds `<state>/lock` for a session that appends to the ledger: two
/// processes appending to one ledger would interleave records no replay
/// reconciles. The lock dies with its process, so a kill leaves none.
fn lock_state_dir(state: &Path) -> Result<std::fs::File, String> {
    std::fs::create_dir_all(state).map_err(|e| format!("{}: {e}", state.display()))?;
    let lock = std::fs::File::create(state.join("lock")).map_err(|e| e.to_string())?;
    match lock.try_lock() {
        Ok(()) => Ok(lock),
        Err(_) => Err(format!("{} is in use by another session", state.display())),
    }
}

/// Folds the ledger under `defaults.state_dir` read-only (the replay
/// and rebuild that a restarting session and `pos fsck` run; nothing is
/// appended) and resolves the session's options: each of `--results`,
/// `--capacity`, `--user-backlog` and `--seed` comes from its flag, else
/// from the last session the ledger recorded, else from the front end's
/// `defaults`. The fold is `None` while the directory holds no ledger.
fn resolve_session(
    defaults: ServeOptions,
    opts: &std::collections::BTreeMap<&str, &str>,
) -> Result<(Option<RecoveredState>, ServeOptions), String> {
    let mut sopts = defaults;
    let path = sopts.state_dir.join(LEDGER_FILE);
    let mut recovered = None;
    if path.exists() {
        let replay = pos_core::journal::Journal::<LedgerRecord>::replay(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        recovered = Some(rebuild(&replay).map_err(|e| format!("{}: {e}", path.display()))?);
        let started = |r: &&LedgerRecord| matches!(r, LedgerRecord::ServeStarted { .. });
        if let Some(LedgerRecord::ServeStarted {
            results_root,
            capacity,
            user_backlog,
            seed,
        }) = replay.records.iter().rev().find(started)
        {
            sopts.results_root = results_root.into();
            sopts.capacity = *capacity;
            sopts.user_backlog = *user_backlog;
            sopts.seed = *seed;
        }
    }
    if let Some(&results) = opts.get("results") {
        sopts.results_root = PathBuf::from(results);
    }
    sopts.capacity = flag(opts, "capacity", sopts.capacity)?;
    if sopts.capacity == 0 {
        return Err("--capacity must be at least 1".into());
    }
    sopts.user_backlog = flag(opts, "user-backlog", sopts.user_backlog)?;
    sopts.seed = flag(opts, "seed", sopts.seed)?;
    sopts.lanes = lanes_flag(opts)?;
    Ok((recovered, sopts))
}

/// `pos queue … --daemon <addr>` — the same verbs, spoken over HTTP to
/// a running `pos serve` daemon instead of run on its ledger directly.
fn cmd_queue_daemon(
    addr: &str,
    pos_args: &[&str],
    opts: &std::collections::BTreeMap<&str, &str>,
) -> Result<Completion, String> {
    let unreachable = |e: std::io::Error| format!("daemon at {addr} unreachable: {e}");
    match pos_args {
        ["submit", exp_dir] => {
            // The daemon resolves experiment paths relative to *its*
            // working directory; canonicalize so submitting from any
            // directory works.
            let exp_dir = std::fs::canonicalize(exp_dir)
                .map_err(|e| format!("cannot resolve {exp_dir}: {e}"))?;
            let req = SubmitRequest {
                user: opts.get("user").map(|s| s.to_string()),
                experiment: exp_dir.display().to_string(),
                priority: flag(opts, "priority", 1)?,
                token: opts.get("token").map(|s| s.to_string()),
            };
            let body = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            let resp = http_request(addr, "POST", "/submit", Some(&body)).map_err(unreachable)?;
            if resp.status == 200 {
                let ack: SubmitAck = serde_json::from_str(&resp.body).map_err(|e| e.to_string())?;
                if ack.deduped {
                    println!("submission {} already queued (token dedupe)", ack.id);
                } else {
                    println!("submission {} queued", ack.id);
                }
                return Ok(Completion::Clean);
            }
            let err: ErrorBody = serde_json::from_str(&resp.body).unwrap_or(ErrorBody {
                error: resp.body.clone(),
                retry_after_secs: None,
            });
            match err.retry_after_secs {
                Some(secs) => Err(format!(
                    "rejected ({}): {}; retry after {secs}s",
                    resp.status, err.error
                )),
                None => Err(format!("rejected ({}): {}", resp.status, err.error)),
            }
        }
        ["status"] => {
            let resp = http_request(addr, "GET", "/status", None).map_err(unreachable)?;
            if resp.status != 200 {
                return Err(format!("daemon returned {}: {}", resp.status, resp.body));
            }
            let st: ServeStatus = serde_json::from_str(&resp.body).map_err(|e| e.to_string())?;
            let phase = if st.draining {
                "draining"
            } else if st.accepting {
                "accepting"
            } else {
                "dead"
            };
            println!(
                "daemon: {phase} (session {}, {} ledger records replayed)",
                st.sessions, st.replayed_records
            );
            println!(
                "queue: {}/{} queued, {} admitted so far, in flight: {:?}",
                st.queue.depth, st.queue.capacity, st.queue.admitted, st.in_flight
            );
            println!(
                "totals: accepted {} (deduped {}, rejected {}), dispatched {}",
                st.totals.accepted, st.totals.deduped, st.totals.rejected, st.totals.dispatched
            );
            // Machine-greppable completion counter for polling scripts:
            // from the replayed queue ledger, so it spans daemon
            // restarts (the totals below are this session only).
            println!("completed: {}", st.queue.completed.len());
            println!(
                "  this session: clean {}, degraded {}, failed {}, checkpointed {}",
                st.totals.completed,
                st.totals.completed_degraded,
                st.totals.failed,
                st.totals.checkpointed
            );
            Ok(Completion::Clean)
        }
        ["drain"] => {
            let resp = http_request(addr, "POST", "/drain", None).map_err(unreachable)?;
            if resp.status != 202 {
                return Err(format!("daemon returned {}: {}", resp.status, resp.body));
            }
            let ack: DrainAck = serde_json::from_str(&resp.body).map_err(|e| e.to_string())?;
            println!(
                "daemon draining; {} submission(s) left pending for a later session",
                ack.pending
            );
            Ok(Completion::Clean)
        }
        _ => Err("usage: pos queue submit <exp-dir> | status | drain --daemon <addr>".into()),
    }
}

/// `pos queue submit|status|drain [--queue <dir>]` — the offline front
/// end of the `pos serve` engine on the state directory `<dir>` (default
/// `queue/`), whose `ledger.log` is the whole queue. `submit` journals
/// the submission before acknowledging it, `status` folds the ledger
/// read-only, and `drain` runs the backlog (first a campaign a killed
/// drain left in flight) until the queue is empty, exiting 0 when all
/// completed clean and 3 otherwise. A drain closes only its own
/// session: a later `submit` is accepted and the next `drain` runs it.
/// Absent flags resolve as for `pos serve` (first session: capacity 8,
/// no per-user cap).
fn cmd_queue(args: &[String]) -> Result<Completion, String> {
    let (pos_args, opts) = parse_opts(
        args,
        "daemon queue user priority token results capacity user-backlog seed lanes",
    )?;
    if let Some(addr) = opts.get("daemon") {
        return cmd_queue_daemon(addr, &pos_args, &opts);
    }
    let state = Path::new(opts.get("queue").copied().unwrap_or("queue"));
    let _lock = match pos_args.as_slice() {
        ["status"] => None,
        _ => Some(lock_state_dir(state)?),
    };
    let mut defaults = ServeOptions::new(state, "results");
    defaults.capacity = 8;
    defaults.user_backlog = 0;
    let (recovered, sopts) = resolve_session(defaults, &opts)?;

    match pos_args.as_slice() {
        ["submit", exp_dir] => {
            let req = SubmitRequest {
                user: opts.get("user").map(|s| s.to_string()),
                experiment: exp_dir.to_string(),
                priority: flag(&opts, "priority", 1)?,
                token: opts.get("token").map(|s| s.to_string()),
            };
            // A submission the engine would refuse starts no session.
            check_submission(&req)?;
            let engine = ServeEngine::start(sopts).map_err(|e| e.to_string())?;
            match engine.submit(&req).map_err(|e| e.to_string())? {
                SubmitResponse::Accepted { id } => {
                    let q = engine.status().queue;
                    let user = q
                        .pending
                        .iter()
                        .find(|s| s.id == id)
                        .map_or("", |s| &s.user);
                    println!(
                        "submission {id} queued for {user} (depth {}/{})",
                        q.depth, q.capacity
                    );
                }
                SubmitResponse::Duplicate { id } => {
                    println!("submission {id} already queued (token dedupe)")
                }
                SubmitResponse::Rejected { error: e, .. }
                | SubmitResponse::Invalid { reason: e } => return Err(e),
            }
            Ok(Completion::Clean)
        }
        ["status"] => {
            let (q, in_flight) = match recovered {
                Some(r) => (r.queue.status(), r.in_flight),
                None => (SubmissionQueue::new(sopts.capacity).status(), Vec::new()),
            };
            println!(
                "queue: {}/{} queued, {} admitted so far, {} in flight",
                q.depth,
                sopts.capacity,
                q.admitted,
                in_flight.len()
            );
            for s in &in_flight {
                println!("  {} (in flight; `pos queue drain` resumes it)", label(s));
            }
            for s in &q.pending {
                println!("  {} (priority {})", label(s), s.priority);
            }
            for c in &q.completed {
                println!("  {} -> {}", label(&c.submission), c.outcome);
            }
            Ok(Completion::Clean)
        }
        ["drain"] => {
            let engine = ServeEngine::start(sopts).map_err(|e| e.to_string())?;
            let st = engine.status();
            match st.queue.depth + st.in_flight.len() {
                0 => println!("queue empty, nothing to drain"),
                n => println!("draining {n} campaign(s) in fair-share order"),
            }
            loop {
                match engine.run_next().map_err(|e| e.to_string())? {
                    StepOutcome::Idle => break,
                    StepOutcome::Finished { result_dir, .. } => {
                        let st = engine.status();
                        if let Some(c) = st.queue.completed.last() {
                            println!("{} -> {} {result_dir}", label(&c.submission), c.outcome);
                        }
                    }
                    StepOutcome::Checkpointed { id } => {
                        println!("#{id} checkpointed; `pos queue drain` resumes it");
                        break;
                    }
                }
            }
            let report = engine.shutdown().map_err(|e| e.to_string())?;
            Ok(verdict("pos-queue", &report))
        }
        _ => Err("usage: pos queue submit <exp-dir> | status | drain [options]".into()),
    }
}

/// `#<id> <user> <experiment>`, how `pos queue` names a submission.
fn label(s: &Submission) -> String {
    format!("#{} {} {}", s.id, s.user, s.experiment)
}

fn cmd_fsck(args: &[String]) -> Result<(), String> {
    let (pos_args, _) = parse_opts(args, "")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos fsck <result-dir | serve-state-dir>".into());
    };
    let path = Path::new(dir);
    // A serve state directory is identified by its queue ledger, a
    // result tree by its `TreeKind`. Route to the matching check.
    let (rendered, clean) = if path.join(pos::serve::LEDGER_FILE).exists() {
        let report = pos::serve::fsck_queue(path).map_err(|e| e.to_string())?;
        (report.render(), report.is_clean())
    } else if TreeKind::of(path) == TreeKind::Dag {
        let report = pos::dag::fsck_dag(path).map_err(|e| e.to_string())?;
        (report.render(), report.is_clean())
    } else {
        let report = pos::core::fsck::fsck(path).map_err(|e| e.to_string())?;
        (report.render(), report.is_clean())
    };
    print!("{rendered}");
    if clean {
        Ok(())
    } else {
        Err(format!("{dir} is not clean"))
    }
}

/// `pos dag <init|run|resume|viz>` — experiment DAGs: scatter/gather
/// stages on in-process worker lanes.
fn cmd_dag(args: &[String]) -> Result<Completion, String> {
    match args.first().map(String::as_str) {
        Some("init") => cmd_dag_init(&args[1..]).map(|()| Completion::Clean),
        Some("run") => cmd_dag_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..], true),
        Some("viz") => cmd_dag_viz(&args[1..]).map(|()| Completion::Clean),
        _ => Err(
            "usage: pos dag init <dir> | run <exp-dir> | resume <result-dir> | viz <dir>".into(),
        ),
    }
}

fn cmd_dag_init(args: &[String]) -> Result<(), String> {
    let (pos_args, _) = parse_opts(args, "")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos dag init <dir>".into());
    };
    let dir = Path::new(dir);
    if dir.join(pos::dag::spec::DAG_FILE).exists() {
        return Err(format!("{} already holds a DAG", dir.display()));
    }
    let spec = linux_router_experiment("vriga", "vtartu", 30, 10);
    if !dir.join("experiment.yml").exists() {
        spec.to_dir(dir).map_err(|e| e.to_string())?;
    }
    let dag = pos::dag::linux_router_dag();
    dag.to_dir(dir).map_err(|e| e.to_string())?;
    println!(
        "scaffolded DAG `{}` ({} stages) in {}",
        dag.name,
        dag.stages.len(),
        dir.display()
    );
    print!("{}", pos::dag::viz::render_ascii(&dag, Some(&spec)));
    println!("run it: pos dag run {}", dir.display());
    Ok(())
}

/// Loads the DAG next to an experiment dir, falling back to the
/// built-in linux-router 3-stage DAG when no `dag.yml` is present.
fn load_dag(dir: &Path) -> Result<pos::dag::DagSpec, String> {
    if pos::dag::DagSpec::present_in(dir) {
        pos::dag::DagSpec::from_dir(dir)
            .map_err(|e| format!("cannot load DAG from {}: {e}", dir.display()))
    } else {
        println!(
            "{} has no dag.yml; using the built-in linux-router 3-stage DAG",
            dir.display()
        );
        Ok(pos::dag::linux_router_dag())
    }
}

/// Per-node lines, then the lease table and schedule summary; degraded
/// when any sweep run failed.
fn print_dag_outcome(out: &pos::dag::DagOutcome) -> Completion {
    for node in &out.nodes {
        println!(
            "  node {:<12} [{:<6}] {} {:>6.1}s..{:>6.1}s{}{}",
            node.id,
            node.kind.label(),
            &node.digest[..12.min(node.digest.len())],
            node.started_ns as f64 / 1e9,
            node.finished_ns as f64 / 1e9,
            if node.failed_runs > 0 {
                format!("  {} FAILED run(s)", node.failed_runs)
            } else {
                String::new()
            },
            if node.verified {
                "  (verified, skipped)"
            } else {
                ""
            },
        );
    }
    print!("{}", out.summary());
    println!("results: {}", out.dag_dir.display());
    if out.failed_runs == 0 {
        Completion::Clean
    } else {
        Completion::Degraded
    }
}

fn cmd_dag_run(args: &[String]) -> Result<Completion, String> {
    let (pos_args, opts) =
        parse_opts(args, "results seed lanes testbed site-replicas disk-faults")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos dag run <experiment-dir> [options]".into());
    };
    let dir = Path::new(dir);
    let spec = ExperimentSpec::from_dir(dir)
        .map_err(|e| format!("cannot load experiment from {}: {e}", dir.display()))?;
    spec.validate().map_err(|e| e.to_string())?;
    let dag = load_dag(dir)?;
    dag.validate().map_err(|e| e.to_string())?;

    let results = PathBuf::from(opts.get("results").copied().unwrap_or("results"));
    let seed: u64 = flag(&opts, "seed", 0x707)?;
    let lanes = lanes_flag(&opts)?;
    let virtualized = match opts.get("testbed").copied().unwrap_or("pos") {
        "pos" => false,
        "vpos" => true,
        other => return Err(format!("--testbed must be pos or vpos, got {other}")),
    };
    let site_replicas: usize = flag(&opts, "site-replicas", lanes)?;
    let mut run_opts = RunOptions::new(&results);
    run_opts.testbed_flavor = if virtualized { "vpos" } else { "pos" }.into();
    if let Some(&file) = opts.get("disk-faults") {
        run_opts.vfs = load_disk_faults(file)?;
    }

    println!(
        "running DAG `{}` ({} stages, {lanes} lanes, seed {seed})...",
        dag.name,
        dag.stages.len(),
    );
    print!("{}", pos::dag::viz::render_ascii(&dag, Some(&spec)));
    let dag_opts = pos::dag::DagOptions::new(lanes, seed);
    let mut target = pos::dag::InProcessTarget::new(seed, virtualized, site_replicas);
    match pos::dag::run_dag(&dag, &spec, &run_opts, &dag_opts, &mut target) {
        Ok(out) => Ok(print_dag_outcome(&out)),
        Err(e) => checkpointed_or_error(e, resume_hint(&results).as_deref()),
    }
}

fn cmd_dag_viz(args: &[String]) -> Result<(), String> {
    let (pos_args, opts) = parse_opts(args, "format seed")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos dag viz <dir> [--format ascii|dot] [--seed <n>]".into());
    };
    let dir = Path::new(dir);
    let dag = load_dag(dir)?;
    dag.validate().map_err(|e| e.to_string())?;
    // An experiment bundle (either alongside dag.yml, or stored inside
    // a DAG result tree) enriches the graph with fan-out widths and the
    // testbed wiring.
    let spec = ExperimentSpec::from_dir(dir)
        .or_else(|_| ExperimentSpec::from_dir(&dir.join("experiment")))
        .ok();
    match opts.get("format").copied().unwrap_or("ascii") {
        "ascii" => print!("{}", pos::dag::viz::render_ascii(&dag, spec.as_ref())),
        "dot" => {
            let seed: u64 = flag(&opts, "seed", 0x707)?;
            let topology = spec.as_ref().and_then(|s| {
                case_study_testbed(s, seed, false, false)
                    .ok()
                    .map(|tb| tb.topology.render())
            });
            print!(
                "{}",
                pos::dag::viz::render_dot(&dag, spec.as_ref(), topology.as_deref())
            );
        }
        other => return Err(format!("--format must be ascii or dot, got {other}")),
    }
    Ok(())
}

/// `pos scrub <result-dir> [--repair] [--json <file>]` — walk a result
/// tree against its journal digests and per-run checksum manifests,
/// report every rotted, missing, or extra byte, and with `--repair`
/// heal in place: restore artifacts from content-identical copies
/// elsewhere in the tree, rebuild rotted manifests, remove extras, and
/// re-execute runs with no intact donor through the same machinery as
/// `pos resume`. Exit 0 means the tree verifies end to end.
fn cmd_scrub(args: &[String]) -> Result<Completion, String> {
    // `--repair` is the CLI's only valueless flag; peel it off before
    // the generic `--flag value` parser sees it.
    let rest: Vec<String> = args
        .iter()
        .filter(|a| a.as_str() != "--repair")
        .cloned()
        .collect();
    let repair = rest.len() != args.len();
    let (pos_args, opts) = parse_opts(&rest, "json")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos scrub <result-dir> [--repair] [--json <file>]".into());
    };
    let result_dir = Path::new(dir);

    let mut report = pos::core::scrub::scrub(result_dir, repair).map_err(|e| e.to_string())?;

    // Runs with no intact donor anywhere in the tree can only converge
    // by re-execution — exactly what `pos resume` does to a finished
    // but damaged campaign, so hand over and account for the outcome.
    if repair && !report.reexecution_required.is_empty() {
        println!(
            "scrub: {} run(s) have no intact donor; re-executing via resume",
            report.reexecution_required.len()
        );
        let _ = cmd_resume(&[dir.to_string()], false)?;
        report = pos::core::scrub::scrub(result_dir, repair).map_err(|e| e.to_string())?;
    }

    print!("{}", report.render());
    if let Some(&file) = opts.get("json") {
        let json = report.to_json().map_err(|e| e.to_string())?;
        std::fs::write(file, json.as_bytes()).map_err(|e| e.to_string())?;
        println!("report written to {file}");
    }

    if report.clean {
        return Ok(Completion::Clean);
    }
    if !repair {
        return Err(format!(
            "{dir}: scrub found {} problem(s); `pos scrub {dir} --repair` to heal",
            report.findings.len()
        ));
    }
    // The report above shows what was damaged and repaired; the verdict
    // comes from a confirming detect-only pass over the healed tree.
    let confirm = pos::core::scrub::scrub(result_dir, false).map_err(|e| e.to_string())?;
    if confirm.clean {
        println!("scrub: tree verifies clean after repair");
        Ok(Completion::Clean)
    } else {
        Err(format!(
            "{dir}: {} problem(s) remain after repair",
            confirm.findings.len()
        ))
    }
}

fn cmd_eval(args: &[String]) -> Result<(), String> {
    let (pos_args, opts) = parse_opts(args, "out")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos eval <result-dir> [--out <dir>]".into());
    };
    let result_dir = Path::new(dir);
    let set = ResultSet::load(result_dir).map_err(|e| e.to_string())?;
    for diag in &set.diagnostics {
        eprintln!("warning: {diag}");
    }
    if set.is_empty() {
        return Err(format!("no runs under {dir}"));
    }
    println!(
        "{} runs loaded ({} successful)",
        set.len(),
        set.successful().len()
    );
    print!("{}", set.render_summary());

    let out = opts
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| result_dir.join("figures"));
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;

    // The out-of-the-box throughput figure: forwarded rate over the rate
    // loop variable, one series per packet size (falls back to a single
    // series when the sweep has no pkt_sz).
    let mut plot = PlotSpec::line(
        "Forwarding throughput",
        "offered [Mpps]",
        "forwarded [Mpps]",
    );
    let groups = set.group_by("pkt_sz");
    for (size, group) in &groups {
        let series: Vec<(f64, f64)> = group
            .series("pkt_rate", |r| Some(r.report()?.rx_mpps()))
            .into_iter()
            .map(|(x, y)| (x / 1e6, y))
            .collect();
        println!("  pkt_sz={size}: {} points", series.len());
        for (x, y) in &series {
            println!("    offered {x:.4} Mpps -> forwarded {y:.4} Mpps");
        }
        plot = plot.with_series(format!("{size} B"), series);
    }
    for (ext, content) in [
        ("svg", plot.render_svg()),
        ("tex", plot.render_tex()),
        ("csv", plot.render_csv()),
    ] {
        std::fs::write(out.join(format!("throughput.{ext}")), content)
            .map_err(|e| e.to_string())?;
    }
    println!("figures written to {}", out.display());
    Ok(())
}

fn cmd_publish(args: &[String]) -> Result<(), String> {
    let (pos_args, opts) = parse_opts(args, "out tar title")?;
    let [dir] = pos_args.as_slice() else {
        return Err("usage: pos publish <result-dir> [options]".into());
    };
    let result_dir = Path::new(dir);
    let out = PathBuf::from(opts.get("out").copied().unwrap_or("release"));
    let title = opts
        .get("title")
        .copied()
        .unwrap_or("pos experiment artifacts");

    // Refuse to release a damaged source tree: every run's checksum
    // manifest must verify before its bytes get fresh bundle hashes.
    let damaged = verify_runs(result_dir).map_err(|e| e.to_string())?;
    if !damaged.is_empty() {
        for p in &damaged {
            eprintln!("pos: {p}");
        }
        return Err(format!(
            "{} run artifact problem(s) in {dir}; run `pos fsck {dir}` (and `pos resume {dir}` to repair)",
            damaged.len()
        ));
    }

    let mut bundle = Bundle::new(title);
    let n = bundle.add_tree(result_dir, "").map_err(|e| e.to_string())?;
    attach_site(
        &mut bundle,
        &SiteInfo {
            title: title.to_owned(),
            description: format!(
                "Artifacts of a pos experiment: {n} files including scripts, variables, \
                 per-run results with metadata, and generated figures."
            ),
            repo_url: String::new(),
        },
    );
    let manifest = bundle.write_dir(&out).map_err(|e| e.to_string())?;
    let bad = verify_dir(&out).map_err(|e| e.to_string())?;
    if !bad.is_empty() {
        return Err(format!("manifest verification failed for {bad:?}"));
    }
    println!(
        "published {} artifacts ({} bytes) to {}",
        manifest.files.len(),
        manifest.total_size(),
        out.display()
    );
    if let Some(tar_path) = opts.get("tar") {
        let mut buf = Vec::new();
        bundle.write_tar(&mut buf).map_err(|e| e.to_string())?;
        std::fs::write(tar_path, &buf).map_err(|e| e.to_string())?;
        println!("archive: {tar_path} ({} bytes)", buf.len());
    }
    println!("website: {}/index.html", out.display());
    Ok(())
}
