//! Parallel scheduler benchmark.
//!
//! Runs the §5 case-study sweep (2 packet sizes × `POS_PAR_RATE_STEPS`
//! offered rates) through `pos_sched::run_parallel` at 1, 2, 4 and 8
//! worker lanes and reports, per lane count, the virtual-time speedup
//! over sequential execution and the wall-clock cost of the
//! deterministic merge. Every lane count produces a byte-identical
//! result tree (journals excepted) — the speedup is free of
//! reproducibility cost.
//!
//! A `sequential` row times the plain `pos run` of the case-study sweep
//! at its real rates (12 runs of 2 virtual seconds, fixed size): the
//! wall-clock cost of one campaign on one testbed.
//!
//! Emits `BENCH_parallel.json`.
//!
//! Usage: `cargo run --release -p pos-bench --bin parallel`
//! Env: `POS_PAR_RUN_SECS` (per-run measurement length, default 10),
//!      `POS_PAR_RATE_STEPS` (offered-rate points, default 30 → 60 runs),
//!      `POS_PAR_RATE` (top offered rate in pps, default 300000; CI
//!      shrinks this — virtual-time speedup is rate-independent).

use pos_bench::{env_f64, parallel, GeneratedBy};
use serde::Serialize;

#[derive(Serialize)]
struct BenchOutput {
    run_secs: u64,
    rate_steps: usize,
    max_rate_pps: i64,
    total_runs: usize,
    lanes: Vec<parallel::LaneReport>,
    sequential: parallel::SequentialReport,
    generated_by: GeneratedBy,
}

fn main() {
    let run_secs = env_f64("POS_PAR_RUN_SECS", 10.0).max(1.0) as u64;
    let rate_steps = env_f64("POS_PAR_RATE_STEPS", 30.0).max(1.0) as usize;
    let max_rate = env_f64("POS_PAR_RATE", 300_000.0).max(1_000.0) as i64;

    println!(
        "case-study campaign: 2 sizes x {rate_steps} rates = {} runs, {run_secs} s each, \
         rates up to {max_rate} pps",
        2 * rate_steps
    );
    println!(
        "{:>6} {:>14} {:>14} {:>9} {:>12} {:>14}",
        "lanes", "seq [s, virt]", "par [s, virt]", "speedup", "merge [µs]", "runs/lane"
    );

    let mut reports = Vec::new();
    for lanes in [1usize, 2, 4, 8] {
        let r = parallel::run_at(lanes, run_secs, rate_steps, max_rate);
        println!(
            "{:>6} {:>14.2} {:>14.2} {:>8.2}x {:>12} {:>14}",
            r.lanes,
            r.sequential_virtual_secs,
            r.parallel_virtual_secs,
            r.speedup,
            r.merge_wall_us,
            format!("{:?}", r.runs_per_lane),
        );
        reports.push(r);
    }

    let four = reports
        .iter()
        .find(|r| r.lanes == 4)
        .expect("4-lane row present");
    println!(
        "\n4 lanes: {:.2}x virtual-time speedup, result tree byte-identical to sequential",
        four.speedup
    );

    let sequential = parallel::sequential();
    println!(
        "sequential pos run of the case-study sweep: {} runs in {} ms ({:.1} runs/s)",
        sequential.runs, sequential.sequential_wall_ms, sequential.sequential_runs_per_sec
    );

    let output = BenchOutput {
        run_secs,
        rate_steps,
        max_rate_pps: max_rate,
        total_runs: 2 * rate_steps,
        lanes: reports,
        sequential,
        generated_by: GeneratedBy::here(),
    };
    let out = "BENCH_parallel.json";
    std::fs::write(
        out,
        serde_json::to_string_pretty(&output).expect("serializes"),
    )
    .expect("write BENCH_parallel.json");
    println!("wrote {out}");
}
