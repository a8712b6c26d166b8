//! Simulation-kernel throughput benchmark.
//!
//! Two measurements:
//!
//! * **event-queue churn** — schedule+pop pairs per wall second over a
//!   queue holding a steady backlog, with the engine's event-horizon
//!   shape (near-future timers plus a far-future tail);
//! * **packet path** — simulated packets per wall second through the
//!   bare-metal case-study topology (MoonGen → Linux router → back) at
//!   64 B and 1500 B, and through the vpos topology (the same behind two
//!   Linux bridges) at 64 B.
//!
//! Emits `BENCH_kernel.json`.
//!
//! Usage: `cargo run --release -p pos-bench --bin kernel`
//! Env: `POS_KERNEL_EVENTS` (churn pairs, default 4e6),
//!      `POS_KERNEL_RUN_SECS` (virtual seconds per packet row, default 1).
//!
//! The `_per_sec` rates are gated by `bench-compare` against the
//! committed `BENCH_kernel.json`; the event and packet counts must match
//! it exactly.

use pos_bench::{env_f64, kernel, GeneratedBy};
use pos_loadgen::scenario::Platform;
use serde::Serialize;

#[derive(Serialize)]
struct BenchOutput {
    churn: kernel::QueueChurnReport,
    packet_path: Vec<kernel::PacketPathReport>,
    generated_by: GeneratedBy,
}

fn main() {
    let events = env_f64("POS_KERNEL_EVENTS", 4e6).max(1e4) as u64;
    let run_secs = env_f64("POS_KERNEL_RUN_SECS", 1.0).max(0.01);

    let churn = kernel::queue_churn(events, 1024);
    println!(
        "queue churn: {} schedule+pop pairs, {} pending, {:.1} ms -> {:.2} M events/s",
        churn.events,
        churn.pending,
        churn.wall_ms,
        churn.events_per_sec / 1e6
    );

    // 64 B just below the bare-metal CPU saturation point; 1500 B at the
    // 10 GbE line rate — the paper's two sweep endpoints. The vpos row
    // offers the case study's top rate, so both bridges carry 300 kpps
    // while the virtualized router saturates.
    let rows: Vec<kernel::PacketPathReport> = [
        (Platform::Pos, 64usize, 1_500_000.0),
        (Platform::Pos, 1500, 800_000.0),
        (Platform::Vpos, 64, 300_000.0),
    ]
    .iter()
    .map(|&(platform, size, rate)| {
        let r = kernel::packet_path(platform, size, rate, run_secs);
        println!(
            "packet path {:>4} {size:>5} B @ {:.2} Mpps: {} pkts, {} events, {:.1} ms \
             -> {:.2} M pkts/s, {:.2} M events/s",
            r.platform,
            r.offered_pps / 1e6,
            r.sim_packets,
            r.sim_events,
            r.wall_ms,
            r.sim_packets_per_sec / 1e6,
            r.sim_events_per_sec / 1e6
        );
        r
    })
    .collect();

    let out = "BENCH_kernel.json";
    std::fs::write(
        out,
        serde_json::to_string_pretty(&BenchOutput {
            churn,
            packet_path: rows,
            generated_by: GeneratedBy::here(),
        })
        .expect("serialize"),
    )
    .expect("write BENCH_kernel.json");
    println!("wrote {out}");
}
