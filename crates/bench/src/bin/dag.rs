//! DAG executor benchmark.
//!
//! Runs the linux-router 3-stage DAG (setup → scatter sweep → gather
//! evaluation) through `pos_dag::run_dag` at 1, 2 and 4 worker lanes,
//! and reports per row:
//!
//! * **node-dispatch overhead** — what the DAG layer (journaling,
//!   subtree digesting, stage dispatch) costs over the raw parallel
//!   scheduler, per node;
//! * **scatter fan-out throughput** — measurement runs completed per
//!   wall second inside the DAG execution (printed only: at small sizes
//!   it is fsync-bound, so the JSON keeps the wall time it derives from);
//! * **gather-barrier latency** — loading all scatter results,
//!   aggregating and plotting, in isolation.
//!
//! Emits `BENCH_dag.json`.
//!
//! Usage: `cargo run --release -p pos-bench --bin dag`
//! Env: `POS_DAG_RUN_SECS` (per-run measurement length, default 10),
//!      `POS_DAG_RATE_STEPS` (offered-rate points, default 30 → 60 runs;
//!      CI shrinks this).

use pos_bench::{dag, env_f64, GeneratedBy};
use serde::Serialize;

#[derive(Serialize)]
struct BenchOutput {
    run_secs: u64,
    rate_steps: usize,
    total_runs: usize,
    rows: Vec<dag::DagBenchReport>,
    generated_by: GeneratedBy,
}

fn main() {
    let run_secs = env_f64("POS_DAG_RUN_SECS", 10.0).max(1.0) as u64;
    let rate_steps = env_f64("POS_DAG_RATE_STEPS", 30.0).max(1.0) as usize;

    println!(
        "linux-router DAG: 3 stages, scatter of 2 sizes x {rate_steps} rates = {} runs, \
         {run_secs} s each",
        2 * rate_steps
    );
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>12} {:>12} {:>9}",
        "lanes", "dag [ms]", "raw [ms]", "dispatch [ms]", "runs/s", "gather [ms]", "speedup"
    );

    let mut rows = Vec::new();
    for lanes in [1, 2, 4] {
        let r = dag::run_at(lanes, run_secs, rate_steps);
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>14.2} {:>12.1} {:>12.2} {:>8.2}x",
            r.lanes,
            r.dag_wall_ms,
            r.raw_sweep_wall_ms,
            r.node_dispatch_overhead_ms,
            r.runs as f64 / (r.dag_wall_ms / 1e3).max(1e-9),
            r.gather_barrier_ms,
            r.virtual_speedup,
        );
        rows.push(r);
    }

    let out = "BENCH_dag.json";
    std::fs::write(
        out,
        serde_json::to_string_pretty(&BenchOutput {
            run_secs,
            rate_steps,
            total_runs: 2 * rate_steps,
            rows,
            generated_by: GeneratedBy::here(),
        })
        .expect("serialize"),
    )
    .expect("write BENCH_dag.json");
    println!("wrote {out}");
}
