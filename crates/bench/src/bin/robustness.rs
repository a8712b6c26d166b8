//! Robustness study, three parts.
//!
//! **Sensitivity** — §2 cites Zilberman's NDP artifact evaluation: "low
//! robustness, i.e., small variation from the original input, such as the
//! investigated packet size, could lead to a significantly different
//! performance." The sweep varies packet size finely at a fixed offered
//! rate and shows where the bare-metal bottleneck flips from CPU to line
//! rate — the regime boundary where small size changes flip conclusions.
//!
//! **Fault tolerance** — a seeded chaos campaign (crash, wedge, management
//! outage, command hang, lossy link) runs against the full controller with
//! graceful degradation on, and the recovery numbers are recorded. The
//! same seed replays the same campaign bit-for-bit.
//!
//! **Lane failover** — a parallel campaign loses a worker lane at a run
//! boundary, once per recovery policy (redistribute / replacement), and
//! the recovery cost against a fault-free baseline is recorded.
//!
//! **Storage faults** — the chaos campaign's finished tree is scrubbed
//! (detect pass, then a heal pass after injected manifest rot), and a
//! separate small campaign hits ENOSPC mid-journal, checkpoints, and is
//! resumed to completion; both costs are recorded.
//!
//! Emits `BENCH_robustness.json` with all four parts.
//!
//! Usage: `cargo run --release -p pos-bench --bin robustness`
//! Env: `POS_RUN_SECS` (sweep run length, default 0.2),
//!      `POS_CHAOS_SEED` (campaign seed; the default, 3, schedules faults
//!      that land mid-sweep and are all recovered),
//!      `POS_CHAOS_RUN_SECS` (campaign run length, default 30).

use pos_bench::{chaos_campaign, env_f64, failover, robustness, storage};
use pos_testutil::TempDir;
use serde::Serialize;

#[derive(Serialize)]
struct SweepRow {
    pkt_size: usize,
    rx_mpps: f64,
    rx_gbit: f64,
    bottleneck: String,
}

#[derive(Serialize)]
struct SweepOut {
    run_secs: f64,
    crossover_size_bytes: usize,
    rows: Vec<SweepRow>,
}

#[derive(Serialize)]
struct BenchOutput {
    sweep: SweepOut,
    campaign: chaos_campaign::CampaignReport,
    resume: chaos_campaign::ResumeOverhead,
    scrub: storage::ScrubOverhead,
    enospc_recovery: storage::EnospcRecovery,
    failover: Vec<failover::FailoverReport>,
}

fn main() {
    // ---- packet-size sensitivity sweep
    let run_secs = env_f64("POS_RUN_SECS", 0.2);
    let rows = robustness::sweep_packet_sizes(run_secs);
    println!(
        "{:>8} {:>12} {:>12} {:>14}",
        "size [B]", "rx [Mpps]", "rx [Gbit/s]", "bottleneck"
    );
    for r in &rows {
        println!(
            "{:>8} {:>12.4} {:>12.3} {:>14}",
            r.pkt_size, r.rx_mpps, r.rx_gbit, r.bottleneck
        );
    }
    let crossover = robustness::crossover_size(&rows);
    println!(
        "\ncrossover at ≈{crossover} B (model: ≈980 B): below, the router CPU limits \
         (falling Mpps as per-byte cost grows); above, the 10G line limits \
         (≈9.8 Gbit/s flat).\n\
         Conclusions measured only at 64 B or only at 1500 B would each miss one regime.\n"
    );

    // ---- seeded chaos campaign
    let seed = env_f64("POS_CHAOS_SEED", 3.0) as u64;
    let chaos_run_secs = env_f64("POS_CHAOS_RUN_SECS", 30.0) as u64;
    println!("chaos campaign (seed {seed:#x}, {chaos_run_secs} s runs)...");
    let root = TempDir::new(&format!("bench-robustness-{seed}"));
    let (report, result_dir) = chaos_campaign::run_campaign_at(seed, chaos_run_secs, &root);
    println!(
        "  events scheduled:       {}\n\
         \x20 runs attempted:         {}\n\
         \x20 runs succeeded:         {}\n\
         \x20 runs degraded:          {} (succeeded after retries/recovery)\n\
         \x20 runs failed:            {}\n\
         \x20 recoveries:             {}\n\
         \x20 quarantined hosts:      {:?}\n\
         \x20 total recovery time:    {:.3} s (virtual)\n\
         \x20 mean recovery latency:  {:.3} s (virtual)",
        report.events,
        report.runs_attempted,
        report.runs_succeeded,
        report.runs_degraded,
        report.runs_failed,
        report.recoveries,
        report.quarantined_hosts,
        report.total_recovery_time_ns as f64 / 1e9,
        report.mean_recovery_latency_ns as f64 / 1e9,
    );

    // ---- resume overhead: what `pos resume` pays before executing
    let resume = chaos_campaign::measure_resume_overhead(&result_dir);
    println!(
        "resume overhead (journal + digest verification, wall clock):\n\
         \x20 journal records:        {}\n\
         \x20 runs verified:          {}\n\
         \x20 journal replay:         {} µs\n\
         \x20 digest verification:    {} µs",
        resume.journal_records,
        resume.runs_verified,
        resume.journal_replay_us,
        resume.digest_verify_us,
    );

    // ---- scrub overhead: integrity sweep + heal on the same tree
    let scrub = storage::measure_scrub_overhead(&result_dir);
    println!(
        "scrub overhead (bit-rot sweep of the campaign tree, wall clock):\n\
         \x20 runs / files scanned:   {} / {}\n\
         \x20 detect pass:            {} µs (zero findings)\n\
         \x20 repair pass:            {} µs ({} manifest rebuilt after injected rot)",
        scrub.runs_scanned, scrub.files_scanned, scrub.detect_us, scrub.repair_us, scrub.repaired,
    );
    drop(root);

    // ---- ENOSPC recovery: checkpoint at the outage, resume to finish
    let enospc_root = TempDir::new(&format!("bench-enospc-{seed}"));
    let enospc = storage::measure_enospc_recovery(chaos_run_secs.max(1), &enospc_root);
    println!(
        "ENOSPC recovery (disk fills mid-campaign, resume finishes it):\n\
         \x20 disk full after:        {} of {} journal bytes\n\
         \x20 checkpoint:             {} record(s), {}/{} runs sealed\n\
         \x20 resume to completion:   {} µs (converged to the reference tree)",
        enospc.fault_after_bytes,
        enospc.journal_bytes_total,
        enospc.records_at_checkpoint,
        enospc.runs_at_checkpoint,
        enospc.runs_total,
        enospc.resume_us,
    );
    drop(enospc_root);

    // ---- lane-failover overhead: a 4-lane campaign loses lane 1
    let failover_run_secs = env_f64("POS_FAILOVER_RUN_SECS", 5.0) as u64;
    println!("\nlane failover (4 lanes, lane 1 dies after one run, {failover_run_secs} s runs)...");
    let failover_reports = failover::measure(4, failover_run_secs, 6, 2_000);
    for r in &failover_reports {
        println!(
            "  {:>12}: {} retired, {} replanned, {} ladder step(s), \
             {:.1} s failover, makespan {:.1} s vs {:.1} s fault-free ({:.2}x)",
            r.policy,
            r.retired_lanes,
            r.replanned_lanes,
            r.ladder_retries,
            r.failover_virtual_secs,
            r.parallel_virtual_secs,
            r.fault_free_virtual_secs,
            r.slowdown,
        );
    }

    let output = BenchOutput {
        sweep: SweepOut {
            run_secs,
            crossover_size_bytes: crossover,
            rows: rows
                .iter()
                .map(|r| SweepRow {
                    pkt_size: r.pkt_size,
                    rx_mpps: r.rx_mpps,
                    rx_gbit: r.rx_gbit,
                    bottleneck: r.bottleneck.to_string(),
                })
                .collect(),
        },
        campaign: report,
        resume,
        scrub,
        enospc_recovery: enospc,
        failover: failover_reports,
    };
    let out = "BENCH_robustness.json";
    std::fs::write(
        out,
        serde_json::to_string_pretty(&output).expect("serializes"),
    )
    .expect("write BENCH_robustness.json");
    println!("\nwrote {out}");
}
