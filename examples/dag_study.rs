//! The §5 / Appendix A case study restructured as an experiment DAG:
//!
//! ```text
//! [setup] --scatter--> [rate-sweep] ==gather==> [eval]
//! ```
//!
//! 1. **setup** — allocate the simulated bare-metal testbed, capture
//!    topology and host list.
//! 2. **rate-sweep** — the Linux-router forwarding sweep (packet sizes
//!    {64, 1500} B × a rate sweep) *scattered* across in-process
//!    scheduler lanes; each scatter group leases its own replica sets on
//!    the site calendar.
//! 3. **eval** — the gather barrier: consume every scatter
//!    result, aggregate, and render the throughput figure (SVG/TeX/CSV).
//!
//! The whole walk is journaled: kill it at any point and
//! `pos dag resume <dir>` fast-forwards digest-verified stages and
//! completes the rest, converging on the byte-identical tree.
//!
//! Run with: `cargo run --release --example dag_study`
//! Env: `POS_RATE_STEPS` (default 10), `POS_RUN_SECS` (default 1),
//!      `POS_DAG_LANES` (default 4).

use pos::core::controller::RunOptions;
use pos::core::experiment::linux_router_experiment;
use pos::dag::{linux_router_dag, run_dag, viz, DagOptions, InProcessTarget};

const SEED: u64 = 0x707;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let rate_steps = env_usize("POS_RATE_STEPS", 10);
    let run_secs = env_usize("POS_RUN_SECS", 1) as u64;
    let lanes = env_usize("POS_DAG_LANES", 4).max(1);
    let root = std::env::temp_dir().join("pos-dag-study");
    let _ = std::fs::remove_dir_all(&root);

    let dag = linux_router_dag();
    let spec = linux_router_experiment("vriga", "vtartu", rate_steps, run_secs);

    // ------------------------------------------------------ the graph
    println!("{}", viz::render_ascii(&dag, Some(&spec)));

    // -------------------------------------------------- execute the DAG
    println!(
        "executing on {lanes} lanes ({} runs per sweep)...",
        2 * rate_steps
    );
    let out = run_dag(
        &dag,
        &spec,
        &RunOptions::new(&root),
        &DagOptions::new(lanes, SEED),
        &mut InProcessTarget::new(SEED, false, lanes),
    )
    .expect("DAG executes");

    // ------------------------------------------------------- the report
    for node in &out.nodes {
        println!(
            "  [{}] {:<16} digest {}  virtual {:>7.1}s..{:<7.1}s",
            node.kind.label(),
            node.id,
            &node.digest[..12],
            node.started_ns as f64 / 1e9,
            node.finished_ns as f64 / 1e9,
        );
    }
    print!("{}", out.summary());
    println!("result tree: {}", out.dag_dir.display());
    println!(
        "figures: {}",
        out.dag_dir.join("stage-eval/figures").display()
    );
    println!(
        "resume after a crash with: pos dag resume {}",
        out.dag_dir.display()
    );
}
