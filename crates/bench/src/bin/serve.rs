//! `pos serve` daemon benchmark, three numbers the robustness story
//! needs quantified:
//!
//! **Admission latency** — wall-clock cost of one `/submit`-equivalent
//! engine call, dominated by the journal-before-ack ledger append; a
//! storm of submissions across several tenants is timed individually
//! and reported as p50/p95/max.
//!
//! **Stride fairness error** — the storm is drained in admission order
//! and the textbook stride bound is measured: among continuously
//! backlogged users, normalized service (admissions ÷ weight) may
//! never diverge by more than one quantum.
//!
//! **Restart-replay time** — the daemon is dropped cold with the storm
//! still queued (plus a few completed campaigns in the ledger) and a
//! new session is timed from `start()` to ready, i.e. the full ledger
//! replay the crash-recovery contract rides on.
//!
//! Emits `BENCH_serve.json`.
//!
//! Usage: `cargo run --release -p pos-bench --bin serve`
//! Env: `POS_SERVE_STORM` (submissions in the storm, default 96),
//!      `POS_SERVE_USERS` (tenants, default 4),
//!      `POS_SERVE_CAMPAIGNS` (campaigns actually executed so the
//!      ledger holds every record kind, default 2).

use pos_bench::{env_f64, GeneratedBy};
use pos_core::experiment::linux_router_experiment;
use pos_sched::SubmissionQueue;
use pos_serve::{ServeEngine, ServeOptions, StepOutcome, SubmitRequest, SubmitResponse};
use pos_testutil::TempDir;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Serialize)]
struct LatencyOut {
    samples: usize,
    p50_us: f64,
    p95_us: f64,
    max_us: f64,
}

#[derive(Serialize)]
struct FairnessOut {
    admissions: usize,
    /// Largest observed spread of normalized service among continuously
    /// backlogged users.
    max_error: f64,
    /// The stride-scheduling bound the error must stay under: one
    /// quantum (1 / min weight = 1.0 for unit-weight normalization).
    bound: f64,
}

#[derive(Serialize)]
struct RestartOut {
    replayed_records: usize,
    replay_wall_us: f64,
}

#[derive(Serialize)]
struct BenchOutput {
    storm: usize,
    users: usize,
    campaigns_executed: usize,
    admission: LatencyOut,
    fairness: FairnessOut,
    restart: RestartOut,
    generated_by: GeneratedBy,
}

fn env_usize(name: &str, default: usize) -> usize {
    env_f64(name, default as f64) as usize
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

fn main() {
    let storm = env_usize("POS_SERVE_STORM", 96).max(1);
    let users = env_usize("POS_SERVE_USERS", 4).max(1);
    let campaigns = env_usize("POS_SERVE_CAMPAIGNS", 2).min(storm);

    let root = TempDir::new("bench-serve");
    let state = root.join("state");
    let results = root.join("results");

    // One tiny experiment dir per tenant; submissions reuse them.
    let dirs: Vec<(String, u32, PathBuf)> = (0..users)
        .map(|u| {
            let user = format!("user{u}");
            let weight = 1 + (u as u32 % 2);
            let mut spec = linux_router_experiment("vriga", "vtartu", 1, 1);
            spec.user = user.clone();
            spec.name = format!("bench-{u}");
            let dir = root.join("specs").join(&spec.name);
            std::fs::create_dir_all(&dir).expect("spec dir");
            spec.to_dir(&dir).expect("spec to_dir");
            (user, weight, dir)
        })
        .collect();

    // ---- admission latency: a storm of journaled-before-ack submits.
    let mut opts = ServeOptions::new(&state, &results);
    opts.capacity = storm + users;
    opts.user_backlog = storm + users;
    let engine = ServeEngine::start(opts).expect("daemon starts");
    let mut latencies_us: Vec<f64> = Vec::with_capacity(storm);
    for i in 0..storm {
        let (user, weight, dir) = &dirs[i % users];
        let req = SubmitRequest {
            user: Some(user.clone()),
            experiment: dir.display().to_string(),
            priority: *weight,
            token: Some(format!("bench-tok-{i}")),
        };
        let t0 = Instant::now();
        let resp = engine.submit(&req).expect("daemon alive");
        latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert!(
            matches!(resp, SubmitResponse::Accepted { .. }),
            "storm submission refused: {resp:?}"
        );
    }
    latencies_us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let admission = LatencyOut {
        samples: latencies_us.len(),
        p50_us: percentile(&latencies_us, 0.50),
        p95_us: percentile(&latencies_us, 0.95),
        max_us: percentile(&latencies_us, 1.0),
    };
    println!(
        "admission latency over {} submits: p50 {:.1} us, p95 {:.1} us, max {:.1} us",
        admission.samples, admission.p50_us, admission.p95_us, admission.max_us
    );

    // ---- execute a few campaigns so the ledger replay below covers
    // Dispatched/Finished records, not just the accept storm.
    for _ in 0..campaigns {
        match engine.run_next().expect("daemon alive") {
            StepOutcome::Finished { .. } => {}
            other => panic!("expected a finished campaign, got {other:?}"),
        }
    }

    // ---- stride fairness error, measured on the same scheduler the
    // daemon admits with: replay the storm into a bare queue and drain
    // it, tracking normalized service among backlogged users.
    let mut q = SubmissionQueue::new(storm + users);
    for i in 0..storm {
        let (user, weight, dir) = &dirs[i % users];
        q.submit(user.clone(), dir.display().to_string(), *weight)
            .expect("bench queue sized for the storm");
    }
    let mut served: BTreeMap<String, u64> = BTreeMap::new();
    let mut admissions = 0usize;
    let mut max_error = 0f64;
    loop {
        let backlogged: Vec<String> = dirs
            .iter()
            .filter(|(user, _, _)| q.status().pending.iter().any(|s| &s.user == user))
            .map(|(user, _, _)| user.clone())
            .collect();
        let Some(sub) = q.admit() else { break };
        admissions += 1;
        *served.entry(sub.user.clone()).or_insert(0) += 1;
        let normalized: Vec<f64> = backlogged
            .iter()
            .map(|user| {
                let weight = dirs.iter().find(|(u, _, _)| u == user).unwrap().1;
                served.get(user).copied().unwrap_or(0) as f64 / f64::from(weight)
            })
            .collect();
        if let (Some(max), Some(min)) = (
            normalized.iter().copied().reduce(f64::max),
            normalized.iter().copied().reduce(f64::min),
        ) {
            max_error = max_error.max(max - min);
        }
    }
    let fairness = FairnessOut {
        admissions,
        max_error,
        bound: 1.0,
    };
    println!(
        "stride fairness over {} admissions: max normalized-service error {:.3} (bound {:.1})",
        fairness.admissions, fairness.max_error, fairness.bound
    );
    assert!(
        fairness.max_error <= fairness.bound + 1e-9,
        "stride bound violated"
    );

    // ---- restart-replay time: drop the daemon cold, time a new
    // session's ledger replay back to ready.
    drop(engine);
    let t0 = Instant::now();
    let engine = ServeEngine::start(ServeOptions::new(&state, &results)).expect("restart");
    let replay_wall_us = t0.elapsed().as_nanos() as f64 / 1e3;
    let status = engine.status();
    let restart = RestartOut {
        replayed_records: status.replayed_records,
        replay_wall_us,
    };
    println!(
        "restart replay: {} ledger records back to ready in {:.1} us",
        restart.replayed_records, restart.replay_wall_us
    );
    assert!(
        restart.replayed_records >= storm,
        "replay must cover the whole storm"
    );

    let output = BenchOutput {
        storm,
        users,
        campaigns_executed: campaigns,
        admission,
        fairness,
        restart,
        generated_by: GeneratedBy::here(),
    };
    let out = "BENCH_serve.json";
    std::fs::write(
        out,
        serde_json::to_string_pretty(&output).expect("serializes"),
    )
    .expect("write BENCH_serve.json");
    println!("wrote {out}");
}
