//! # pos-bench
//!
//! The reproduction harness: for every table and figure in the paper's
//! evaluation there is a function here and a binary wrapping it.
//!
//! | paper artifact | function | binary |
//! |---|---|---|
//! | Fig. 3a (bare-metal forwarding) | [`figures::fig3a`] | `fig3a` |
//! | Fig. 3b (virtualized forwarding) | [`figures::fig3b`] | `fig3b` |
//! | Table 1 (testbed comparison) | `pos_core::requirements::render_table1` | `table1` |
//! | §5 full case study | [`figures::case_study`] | `case_study` |
//!
//! Plus the DESIGN.md ablations in [`ablations`] (binaries
//! `ablation_wiring`, `ablation_cleanslate`, `ablation_crossproduct`,
//! `ablation_loadgen`).

pub mod ablations;
pub mod figures;

/// Reads an `f64` knob from the environment, falling back to a default —
/// used to scale run durations between quick CI runs and full
/// paper-fidelity sweeps.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_f64_parses_and_defaults() {
        std::env::set_var("POS_BENCH_TEST_KNOB", "2.5");
        assert_eq!(env_f64("POS_BENCH_TEST_KNOB", 1.0), 2.5);
        std::env::set_var("POS_BENCH_TEST_KNOB", "junk");
        assert_eq!(env_f64("POS_BENCH_TEST_KNOB", 1.0), 1.0);
        std::env::remove_var("POS_BENCH_TEST_KNOB");
        assert_eq!(env_f64("POS_BENCH_TEST_KNOB", 3.0), 3.0);
    }
}

/// Seeded chaos campaign against the full controller, see the
/// `robustness` binary.
pub mod chaos_campaign {
    use pos_core::commands::register_all;
    use pos_core::controller::{Controller, RunOptions};
    use pos_core::experiment::linux_router_experiment;
    use pos_core::vars::VarValue;
    use pos_netsim::{CampaignConfig, ChaosPlan};
    use pos_simkernel::SimDuration;
    use pos_testbed::{HardwareSpec, InitInterface, PortId, Testbed};
    use serde::Serialize;

    /// What one campaign did to one experiment — the `BENCH_robustness`
    /// numbers.
    #[derive(Debug, Clone, PartialEq, Eq, Serialize)]
    pub struct CampaignReport {
        /// Seed the plan (and testbed) were derived from.
        pub seed: u64,
        /// Scheduled fault events.
        pub events: usize,
        /// Measurement runs the sweep attempted.
        pub runs_attempted: usize,
        /// Runs that finished with a successful measurement.
        pub runs_succeeded: usize,
        /// Successful runs that needed retries or recoveries to get there.
        pub runs_degraded: usize,
        /// Runs lost despite the retry budget.
        pub runs_failed: usize,
        /// Out-of-band recoveries performed.
        pub recoveries: u32,
        /// Hosts written off as unrecoverable.
        pub quarantined_hosts: Vec<String>,
        /// Total virtual time spent recovering hosts, in nanoseconds.
        pub total_recovery_time_ns: u64,
        /// Mean detection-to-back-in-service latency per recovery, ns.
        pub mean_recovery_latency_ns: u64,
        /// The outcome's deterministic digest (replay fingerprint).
        pub summary: String,
    }

    /// The campaign's fault mix: one of everything, scheduled inside the
    /// sweep's measurement window.
    pub fn campaign_config() -> CampaignConfig {
        CampaignConfig {
            horizon: SimDuration::from_mins(3),
            warmup: SimDuration::from_secs(95),
            crashes: 1,
            wedges: 1,
            power_outages: 1,
            hangs: 1,
            link_fault_windows: 1,
            ..CampaignConfig::default()
        }
    }

    /// Runs the case-study sweep under a seed-generated chaos plan with
    /// graceful degradation on, and reports what survived. Same seed, same
    /// report — including the summary fingerprint.
    pub fn run_campaign(seed: u64, run_secs: u64) -> CampaignReport {
        let root =
            std::env::temp_dir().join(format!("pos-bench-chaos-{seed}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (report, _) = run_campaign_at(seed, run_secs, &root);
        let _ = std::fs::remove_dir_all(&root);
        report
    }

    /// Like [`run_campaign`], but leaves the result tree under `root` and
    /// returns its path — the resume-overhead benchmark replays the
    /// campaign journal and re-verifies every run digest against it.
    pub fn run_campaign_at(
        seed: u64,
        run_secs: u64,
        root: &std::path::Path,
    ) -> (CampaignReport, std::path::PathBuf) {
        let mut tb = Testbed::new(seed);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .expect("fresh ports");
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .expect("fresh ports");
        register_all(&mut tb);

        // Low rates: the campaign probes recovery, not saturation.
        let mut spec = linux_router_experiment("vriga", "vtartu", 2, run_secs);
        spec.loop_vars.set(
            "pkt_rate",
            VarValue::List(vec![10_000i64.into(), 50_000i64.into()]),
        );

        let plan = ChaosPlan::generate(seed, &["vriga", "vtartu"], &campaign_config());
        let mut opts = RunOptions::new(root);
        opts.continue_on_run_failure = true;

        let mut ctl = Controller::new(&mut tb);
        ctl.apply_chaos(&plan).expect("generated plans validate");
        let outcome = ctl
            .run_experiment(&spec, &opts)
            .expect("degrades instead of aborting");

        let runs_degraded = outcome
            .runs
            .iter()
            .filter(|r| r.success && (r.attempts > 1 || r.recoveries > 0))
            .count();
        let mean_recovery_latency_ns = if outcome.recoveries > 0 {
            outcome.total_recovery_time.as_nanos() / u64::from(outcome.recoveries)
        } else {
            0
        };
        let report = CampaignReport {
            seed,
            events: plan.len(),
            runs_attempted: outcome.runs.len(),
            runs_succeeded: outcome.successes(),
            runs_degraded,
            runs_failed: outcome.failed_runs.len(),
            recoveries: outcome.recoveries,
            quarantined_hosts: outcome.quarantined_hosts.clone(),
            total_recovery_time_ns: outcome.total_recovery_time.as_nanos(),
            mean_recovery_latency_ns,
            summary: outcome.summary(),
        };
        (report, outcome.result_dir)
    }

    /// What `pos resume` pays before it executes anything: replaying the
    /// campaign journal and re-verifying every completed run against its
    /// recorded digest (manifest hash plus every artifact hash).
    ///
    /// The two phases are timed separately in wall-clock microseconds —
    /// these are real I/O + SHA-256 costs, not virtual time, so they vary
    /// between machines and runs (see the note in `scripts/ci.sh` about
    /// comparing bench outputs).
    #[derive(Debug, Serialize)]
    pub struct ResumeOverhead {
        /// Complete journal records replayed.
        pub journal_records: usize,
        /// Journaled runs (last completion per index) re-verified.
        pub runs_verified: usize,
        /// Wall-clock cost of the journal replay, microseconds.
        pub journal_replay_us: u64,
        /// Wall-clock cost of digest + artifact verification, microseconds.
        pub digest_verify_us: u64,
    }

    /// Measures [`ResumeOverhead`] against a finished campaign tree,
    /// timing the same journal fold and run verifier `pos resume` runs.
    pub fn measure_resume_overhead(result_dir: &std::path::Path) -> ResumeOverhead {
        use pos_core::recovery::CampaignJournals;
        use std::time::Instant;

        let t = Instant::now();
        let mut journals = CampaignJournals::read(result_dir).expect("journals replay");
        let journal_replay_us = t.elapsed().as_micros() as u64;

        let t = Instant::now();
        let journaled = journals.completed.len();
        journals.retain_verified(result_dir);
        let runs_verified = journals.completed.len();
        let digest_verify_us = t.elapsed().as_micros() as u64;
        assert_eq!(runs_verified, journaled, "every journaled run must verify");

        ResumeOverhead {
            journal_records: journals.journal.records.len(),
            runs_verified,
            journal_replay_us,
            digest_verify_us,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn campaign_replays_identically() {
            let a = run_campaign(0xBADC0DE, 20);
            let b = run_campaign(0xBADC0DE, 20);
            assert_eq!(a, b, "same seed, same degraded outcome");
            assert_eq!(a.runs_attempted, 4);
            assert_eq!(
                a.runs_succeeded + a.runs_failed,
                a.runs_attempted,
                "every run is accounted for"
            );
            let json = serde_json::to_string_pretty(&a).unwrap();
            assert!(json.contains("\"runs_attempted\": 4"), "{json}");
        }
    }
}

/// Robustness sweep (packet-size sensitivity), see the `robustness` binary.
pub mod robustness {
    use pos_loadgen::scenario::{run_forwarding_experiment, ForwardingScenario, Platform};
    use pos_simkernel::SimDuration;

    /// One row of the sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RobustnessRow {
        /// Frame wire size.
        pub pkt_size: usize,
        /// Forwarded rate in Mpps.
        pub rx_mpps: f64,
        /// Forwarded rate in Gbit/s (wire bytes).
        pub rx_gbit: f64,
        /// Which resource limited this point.
        pub bottleneck: &'static str,
    }

    /// Sweeps frame sizes 64..1518 at an offered rate far above both
    /// limits, so every point shows its regime's ceiling.
    pub fn sweep_packet_sizes(run_secs: f64) -> Vec<RobustnessRow> {
        let sizes = [
            64usize, 128, 256, 384, 512, 640, 768, 896, 960, 1000, 1024, 1152, 1280, 1408, 1500,
            1518,
        ];
        sizes
            .iter()
            .map(|&pkt_size| {
                let scenario = ForwardingScenario {
                    duration: SimDuration::from_secs_f64(run_secs),
                    seed: 0x52 ^ pkt_size as u64,
                    ..ForwardingScenario::new(Platform::Pos, pkt_size, 2_500_000.0)
                };
                let r = run_forwarding_experiment(&scenario);
                let rx_mpps = r.report.rx_mpps();
                let rx_gbit = r.report.rx_frames as f64 * (pkt_size as f64 + 20.0) * 8.0
                    / scenario.duration.as_secs_f64()
                    / 1e9;
                let bottleneck = if r.router.ring_drops > 0 {
                    "router CPU"
                } else {
                    "10G line"
                };
                RobustnessRow {
                    pkt_size,
                    rx_mpps,
                    rx_gbit,
                    bottleneck,
                }
            })
            .collect()
    }

    /// The size where the bottleneck flips from CPU to line rate.
    pub fn crossover_size(rows: &[RobustnessRow]) -> usize {
        rows.iter()
            .find(|r| r.bottleneck == "10G line")
            .map(|r| r.pkt_size)
            .unwrap_or(0)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn crossover_falls_near_980_bytes() {
            // Analytic: the CPU service time 556 + 0.25·(s−4) ns equals the
            // line time (s+20)·8/10 ns at s ≈ 980 B.
            let rows = sweep_packet_sizes(0.05);
            let crossover = crossover_size(&rows);
            assert!(
                (896..=1024).contains(&crossover),
                "crossover at {crossover} B, expected ≈980"
            );
            // Below the crossover the rate tracks the size-dependent CPU
            // limit; above it the wire saturates near 10 Gbit/s.
            let profile = pos_netsim::router::ServiceProfile::bare_metal();
            let below: Vec<&RobustnessRow> = rows
                .iter()
                .filter(|r| r.bottleneck == "router CPU")
                .collect();
            let above: Vec<&RobustnessRow> =
                rows.iter().filter(|r| r.bottleneck == "10G line").collect();
            assert!(below.len() >= 2 && above.len() >= 2);
            for r in &below {
                let cpu_limit = profile.saturation_pps(r.pkt_size - 4) / 1e6;
                let err = (r.rx_mpps - cpu_limit).abs() / cpu_limit;
                assert!(err < 0.05, "{r:?} vs CPU limit {cpu_limit}");
            }
            for r in &above {
                assert!((9.0..10.2).contains(&r.rx_gbit), "{r:?}");
            }
        }
    }
}

/// Parallel scheduler benchmark: the §5 case-study sweep executed at
/// 1/2/4/8 worker lanes, see the `parallel` binary.
pub mod parallel {
    use pos_core::commands::register_all;
    use pos_core::controller::RunOptions;
    use pos_core::experiment::{linux_router_experiment, ExperimentSpec};
    use pos_core::vars::VarValue;
    use pos_sched::{run_parallel, ParallelOptions};
    use pos_testbed::{HardwareSpec, InitInterface, PortId, Testbed};
    use serde::Serialize;

    /// Seed for the benchmark campaign (arbitrary but fixed: same seed,
    /// same result tree at every lane count).
    pub const SEED: u64 = 21;

    fn lane_testbed() -> Testbed {
        let mut tb = Testbed::new(SEED);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .expect("fresh ports");
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .expect("fresh ports");
        register_all(&mut tb);
        tb
    }

    /// The case-study sweep scaled by the bench knobs: `run_secs` per
    /// measurement run, `rate_steps` offered-rate points (× 2 packet
    /// sizes), rates spread up to `max_rate` pps. The defaults in the
    /// `parallel` binary reproduce the paper campaign's shape; CI shrinks
    /// the rate to keep wall time down — the *virtual-time* speedup is
    /// rate-independent because a run's virtual duration is dominated by
    /// `run_secs`, not by how many packets the lane simulates.
    pub fn campaign_spec(run_secs: u64, rate_steps: usize, max_rate: i64) -> ExperimentSpec {
        let mut spec = linux_router_experiment("vriga", "vtartu", rate_steps, run_secs);
        let lo = (max_rate / 30).max(1_000).min(max_rate);
        let rates: Vec<i64> = (1..=rate_steps as i64)
            .map(|i| lo + (max_rate - lo) * (i - 1) / (rate_steps as i64 - 1).max(1))
            .collect();
        spec.loop_vars.set(
            "pkt_rate",
            VarValue::List(rates.into_iter().map(Into::into).collect()),
        );
        spec
    }

    /// One lane-count row of `BENCH_parallel.json`.
    #[derive(Debug, Serialize)]
    pub struct LaneReport {
        /// Worker lanes the campaign ran on.
        pub lanes: usize,
        /// Lane flavors granted by the site calendar (`pos` / `vpos`).
        pub flavors: Vec<String>,
        /// Measurement runs executed (all succeeded).
        pub runs: usize,
        /// Runs executed per lane.
        pub runs_per_lane: Vec<usize>,
        /// Virtual time of the measurement phase executed sequentially.
        pub sequential_virtual_secs: f64,
        /// Virtual makespan across the lanes.
        pub parallel_virtual_secs: f64,
        /// `sequential_virtual_secs / parallel_virtual_secs`.
        pub speedup: f64,
        /// Wall-clock cost of the deterministic merge, microseconds.
        pub merge_wall_us: u64,
    }

    /// Runs the campaign at `lanes` lanes in a scratch directory and
    /// reports the speedup accounting. Panics if any run fails — the
    /// campaign is chaos-free.
    pub fn run_at(lanes: usize, run_secs: u64, rate_steps: usize, max_rate: i64) -> LaneReport {
        let spec = campaign_spec(run_secs, rate_steps, max_rate);
        let root =
            std::env::temp_dir().join(format!("pos-bench-parallel-{lanes}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = RunOptions::new(&root);
        let out = run_parallel(&spec, &opts, &ParallelOptions::new(lanes), &mut |_, _| {
            Ok(lane_testbed())
        })
        .expect("chaos-free campaign succeeds");
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(
            out.outcome.successes(),
            out.outcome.runs.len(),
            "bench campaign must be fault-free"
        );
        LaneReport {
            lanes: out.lanes,
            flavors: out.flavors.clone(),
            runs: out.outcome.runs.len(),
            runs_per_lane: out.lane_runs.iter().map(Vec::len).collect(),
            sequential_virtual_secs: out.sequential_elapsed.as_nanos() as f64 / 1e9,
            parallel_virtual_secs: out.parallel_elapsed.as_nanos() as f64 / 1e9,
            speedup: out.speedup(),
            merge_wall_us: (out.merge_wall_secs * 1e6) as u64,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn four_lanes_at_least_double_the_case_study() {
            // The full case-study shape (60 runs × 10 s) at shrunk rates:
            // the packet simulation cost scales with the rate, but the
            // virtual-time speedup depends only on run durations, which
            // must be long enough for the one-time campaign setup
            // (~160 s virtual, paid on every lane count) to amortize.
            let report = run_at(4, 10, 30, 2_000);
            assert_eq!(report.runs, 60);
            assert!(
                report.speedup >= 2.0,
                "4 lanes must at least halve the campaign, got {:.2}x",
                report.speedup
            );
        }
    }
}

/// DAG executor overhead: what the dependency-DAG layer costs over the
/// raw parallel scheduler, see the `dag` binary.
pub mod dag {
    use crate::parallel::campaign_spec;
    use pos_core::commands::case_study_testbed;
    use pos_core::controller::RunOptions;
    use pos_dag::{linux_router_dag, run_dag, DagOptions, InProcessTarget, SimBatchTarget};
    use pos_sched::{run_parallel, LaneFlavor, ParallelOptions};
    use serde::Serialize;
    use std::time::Instant;

    /// Seed for the benchmark DAG (fixed: same seed, same tree at every
    /// lane count and on either target).
    pub const SEED: u64 = 33;

    /// One lane-count row of `BENCH_dag.json`.
    #[derive(Debug, Serialize)]
    pub struct DagBenchReport {
        /// The execution target (`in-process` / `sim-batch`).
        pub target: String,
        /// Worker lanes each scatter group requested.
        pub lanes: usize,
        /// DAG stages executed.
        pub nodes: usize,
        /// Measurement runs the scatter stage fanned out.
        pub runs: usize,
        /// Wall clock of the whole DAG execution, milliseconds.
        pub dag_wall_ms: f64,
        /// Wall clock of the same sweep through raw `run_parallel`
        /// (no DAG layer), milliseconds.
        pub raw_sweep_wall_ms: f64,
        /// `(dag_wall - raw_sweep_wall) / nodes` — journaling, digesting
        /// and dispatch cost per DAG node, milliseconds.
        pub node_dispatch_overhead_ms: f64,
        /// Scatter fan-out throughput: runs completed per wall second
        /// inside the DAG execution.
        pub scatter_runs_per_sec: f64,
        /// Wall clock of the gather barrier (loading every scatter
        /// result, aggregating, plotting), milliseconds.
        pub gather_barrier_ms: f64,
        /// Virtual-time speedup of the DAG schedule over back-to-back
        /// stage execution.
        pub virtual_speedup: f64,
    }

    /// Runs the case-study DAG at `lanes` lanes in a scratch directory
    /// and reports the overhead accounting. `batch` swaps the simulated
    /// SLURM-like target in for the in-process one.
    pub fn run_at(lanes: usize, run_secs: u64, rate_steps: usize, batch: bool) -> DagBenchReport {
        let spec = campaign_spec(run_secs, rate_steps, 2_000);
        let dag = linux_router_dag();
        let tag = if batch { "batch" } else { "inproc" };
        let root = std::env::temp_dir().join(format!(
            "pos-bench-dag-{tag}-{lanes}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);

        // Baseline: the same sweep through the raw parallel scheduler.
        let raw_root = root.join("raw");
        let raw_start = Instant::now();
        let raw = run_parallel(
            &spec,
            &RunOptions::new(&raw_root),
            &ParallelOptions::new(lanes),
            &mut |_, flavor| case_study_testbed(&spec, SEED, flavor == LaneFlavor::Virtual, true),
        )
        .expect("raw sweep succeeds");
        let raw_sweep_wall_ms = raw_start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(raw.outcome.successes(), raw.outcome.runs.len());

        // The DAG execution on the requested target.
        let dag_root = root.join("dag");
        let dopts = DagOptions::new(lanes, SEED);
        let opts = RunOptions::new(&dag_root);
        let dag_start = Instant::now();
        let out = if batch {
            let mut target = SimBatchTarget::new(SEED, false, lanes);
            run_dag(&dag, &spec, &opts, &dopts, &mut target)
        } else {
            let mut target = InProcessTarget::new(SEED, false, lanes);
            run_dag(&dag, &spec, &opts, &dopts, &mut target)
        }
        .expect("DAG execution succeeds");
        let dag_wall_ms = dag_start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(out.failed_runs, 0, "bench DAG must be fault-free");

        // Gather-barrier latency: re-run the evaluation the gather
        // stage performed, in isolation, against the scatter results.
        let gather_start = Instant::now();
        let sweep_tree = raw.outcome.result_dir.clone();
        let set = pos_eval::loader::ResultSet::load(&sweep_tree).expect("sweep tree loads");
        let mut plot = pos_eval::plot::PlotSpec::line("gather", "pkt_rate", "rx_mpps");
        for (group, subset) in set.group_by("pkt_sz") {
            let series = subset
                .successful()
                .series("pkt_rate", |r| Some(r.report()?.rx_mpps()));
            plot = plot.with_series(format!("{group}B"), series);
        }
        let svg = plot.render_svg();
        let gather_barrier_ms = gather_start.elapsed().as_secs_f64() * 1e3;
        assert!(!svg.is_empty());

        let runs = raw.outcome.runs.len();
        let _ = std::fs::remove_dir_all(&root);
        DagBenchReport {
            target: if batch { "sim-batch" } else { "in-process" }.into(),
            lanes,
            nodes: out.nodes.len(),
            runs,
            dag_wall_ms,
            raw_sweep_wall_ms,
            node_dispatch_overhead_ms: (dag_wall_ms - raw_sweep_wall_ms).max(0.0)
                / out.nodes.len() as f64,
            scatter_runs_per_sec: runs as f64 / (dag_wall_ms / 1e3).max(1e-9),
            gather_barrier_ms,
            virtual_speedup: out.speedup(),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn dag_overhead_stays_sane() {
            let r = run_at(2, 1, 2, false);
            assert_eq!(r.nodes, 3);
            assert_eq!(r.runs, 4);
            assert!(r.dag_wall_ms > 0.0);
            assert!(r.scatter_runs_per_sec > 0.0);
        }
    }
}

/// Lane-failover overhead: what a lane death costs a parallel campaign,
/// see the `robustness` binary.
pub mod failover {
    use crate::parallel::{campaign_spec, SEED};
    use pos_core::commands::register_all;
    use pos_core::controller::RunOptions;
    use pos_core::experiment::ExperimentSpec;
    use pos_sched::{
        run_parallel, LaneDeath, LaneFaultPlan, LaneFlavor, LaneRecovery, ParallelOptions,
    };
    use pos_testbed::{clone_virtual, CloneOptions, HardwareSpec, InitInterface, PortId, Testbed};
    use serde::Serialize;

    fn lane_testbed(flavor: LaneFlavor) -> Testbed {
        let mut tb = Testbed::new(SEED);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .expect("fresh ports");
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .expect("fresh ports");
        let mut tb = if flavor == LaneFlavor::Virtual {
            clone_virtual(
                &tb,
                CloneOptions {
                    seed: Some(SEED),
                    ..CloneOptions::default()
                },
            )
        } else {
            tb
        };
        register_all(&mut tb);
        tb
    }

    /// The failover half of `BENCH_robustness.json`: one campaign run
    /// per recovery policy, same injected lane death.
    #[derive(Debug, Serialize)]
    pub struct FailoverReport {
        /// Recovery policy label (`redistribute` / `replacement`).
        pub policy: String,
        /// Worker lanes the campaign started with.
        pub lanes: usize,
        /// Lanes the supervisor retired.
        pub retired_lanes: usize,
        /// Replacement lanes replanned mid-campaign.
        pub replanned_lanes: usize,
        /// Retry-ladder steps taken.
        pub ladder_retries: u32,
        /// Runs completed (all must succeed — the death hits between
        /// runs, never inside one).
        pub runs: usize,
        /// Virtual failover time: ladder delays plus replacement-lane
        /// setup, charged to lane occupancy.
        pub failover_virtual_secs: f64,
        /// Virtual makespan of the faulted campaign.
        pub parallel_virtual_secs: f64,
        /// Makespan of the same campaign without the fault, for the
        /// degradation ratio.
        pub fault_free_virtual_secs: f64,
        /// `parallel / fault_free` — how much the death stretched the
        /// campaign.
        pub slowdown: f64,
    }

    fn run_once(
        spec: &ExperimentSpec,
        popts: &ParallelOptions,
        tag: &str,
    ) -> (f64, usize, FailoverRaw) {
        let root =
            std::env::temp_dir().join(format!("pos-bench-failover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let opts = RunOptions::new(&root);
        let out = run_parallel(spec, &opts, popts, &mut |_, flavor| {
            Ok(lane_testbed(flavor))
        })
        .expect("failover campaign completes");
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(
            out.outcome.successes(),
            out.outcome.runs.len(),
            "a boundary lane death must not lose runs"
        );
        (
            out.parallel_elapsed.as_nanos() as f64 / 1e9,
            out.outcome.runs.len(),
            FailoverRaw {
                retired: out.retired_lanes.len(),
                replanned: out.replanned_lanes,
                ladder: out.ladder_retries,
                failover_secs: out.failover_time.as_nanos() as f64 / 1e9,
            },
        )
    }

    struct FailoverRaw {
        retired: usize,
        replanned: usize,
        ladder: u32,
        failover_secs: f64,
    }

    /// Kills lane 1 after its first dispatched run on a `lanes`-lane
    /// campaign, once per recovery policy, and reports the recovery cost
    /// against a fault-free baseline of the same shape.
    pub fn measure(
        lanes: usize,
        run_secs: u64,
        rate_steps: usize,
        max_rate: i64,
    ) -> Vec<FailoverReport> {
        let spec = campaign_spec(run_secs, rate_steps, max_rate);
        let baseline = {
            let popts = ParallelOptions::new(lanes);
            run_once(&spec, &popts, "baseline").0
        };
        [LaneRecovery::Redistribute, LaneRecovery::Replacement]
            .into_iter()
            .map(|recovery| {
                let mut popts = ParallelOptions::new(lanes);
                // One spare bare-metal replica set so the replacement
                // keeps bare-metal fidelity.
                popts.site_replicas = lanes + 1;
                popts.supervisor.recovery = recovery;
                popts.supervisor.fault_plan = LaneFaultPlan {
                    lane_deaths: vec![LaneDeath {
                        lane: 1,
                        after_dispatches: 1,
                    }],
                    poison_runs: vec![],
                };
                let policy = match recovery {
                    LaneRecovery::Redistribute => "redistribute",
                    LaneRecovery::Replacement => "replacement",
                };
                let (parallel_secs, runs, raw) = run_once(&spec, &popts, policy);
                FailoverReport {
                    policy: policy.to_string(),
                    lanes,
                    retired_lanes: raw.retired,
                    replanned_lanes: raw.replanned,
                    ladder_retries: raw.ladder,
                    runs,
                    failover_virtual_secs: raw.failover_secs,
                    parallel_virtual_secs: parallel_secs,
                    fault_free_virtual_secs: baseline,
                    slowdown: if baseline > 0.0 {
                        parallel_secs / baseline
                    } else {
                        1.0
                    },
                }
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn lane_death_recovery_completes_and_is_bounded() {
            let reports = measure(4, 5, 6, 2_000);
            assert_eq!(reports.len(), 2);
            for r in &reports {
                assert_eq!(r.runs, 12);
                assert_eq!(r.retired_lanes, 1, "{}", r.policy);
                assert!(
                    r.slowdown < 3.0,
                    "{}: a single lane death must not triple the campaign, got {:.2}x",
                    r.policy,
                    r.slowdown
                );
            }
            assert_eq!(reports[0].replanned_lanes, 0);
            assert_eq!(reports[1].replanned_lanes, 1);
        }
    }
}

/// Storage-fault overhead: what scrub costs on a finished tree and what
/// an ENOSPC checkpoint + resume costs a campaign, see the `robustness`
/// binary.
pub mod storage {
    use pos_core::commands::register_all;
    use pos_core::controller::{Controller, RunOptions};
    use pos_core::experiment::linux_router_experiment;
    use pos_core::journal::JOURNAL_FILE;
    use pos_core::resultstore::MANIFEST_FILE;
    use pos_core::scrub::scrub;
    use pos_core::vfs::{DiskFault, FaultPlan, Vfs};
    use pos_testbed::{HardwareSpec, InitInterface, PortId, Testbed};
    use serde::Serialize;
    use std::path::Path;
    use std::time::Instant;

    /// What `pos scrub` pays on a finished campaign tree: a full
    /// detect-only pass (the steady-state cost of periodic integrity
    /// sweeps), then a repair pass after one manifest is rotted (the
    /// heal path, including the journal-anchored rebuild).
    ///
    /// The `_us` fields are wall-clock microseconds — real I/O + SHA-256
    /// costs that vary between machines and runs (see the note in
    /// `scripts/ci.sh` about comparing bench outputs). Everything else
    /// is deterministic for a given campaign seed.
    #[derive(Debug, Serialize)]
    pub struct ScrubOverhead {
        /// Run directories walked.
        pub runs_scanned: usize,
        /// Manifest entries hashed and compared.
        pub files_scanned: usize,
        /// Findings on the undamaged tree (must be zero).
        pub findings_on_clean_tree: usize,
        /// Wall-clock cost of the detect-only pass, microseconds.
        pub detect_us: u64,
        /// Findings healed in place by the repair pass (the rotted
        /// manifest, rebuilt from intact artifacts).
        pub repaired: usize,
        /// Wall-clock cost of the repair pass, microseconds.
        pub repair_us: u64,
    }

    /// Measures [`ScrubOverhead`] against a finished campaign tree.
    /// Rots one manifest byte to exercise the heal path, then leaves the
    /// tree repaired and clean.
    pub fn measure_scrub_overhead(result_dir: &Path) -> ScrubOverhead {
        let t = Instant::now();
        let detect = scrub(result_dir, false).expect("scrub walks the tree");
        let detect_us = t.elapsed().as_micros() as u64;
        assert!(
            detect.clean,
            "campaign tree must scrub clean before rot is injected:\n{}",
            detect.render()
        );

        // Rot one manifest byte: the journaled digest no longer matches,
        // and the repair pass must rebuild the manifest from the (still
        // intact) artifacts.
        let manifest = result_dir.join("run-0000").join(MANIFEST_FILE);
        let mut bytes = std::fs::read(&manifest).expect("manifest readable");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x08;
        std::fs::write(&manifest, bytes).expect("manifest writable");

        let t = Instant::now();
        let heal = scrub(result_dir, true).expect("scrub heals the tree");
        let repair_us = t.elapsed().as_micros() as u64;
        assert_eq!(heal.repaired, 1, "manifest rebuild heals in place");
        assert!(
            scrub(result_dir, false).expect("confirming pass").clean,
            "tree must verify clean after repair"
        );

        ScrubOverhead {
            runs_scanned: detect.runs_scanned,
            files_scanned: detect.files_scanned,
            findings_on_clean_tree: detect.findings.len(),
            detect_us,
            repaired: heal.repaired,
            repair_us,
        }
    }

    /// What running out of disk mid-campaign costs: the campaign
    /// checkpoints at the last consistent journal boundary instead of
    /// dying, and `pos resume` finishes the remainder once space is
    /// back. Counters are deterministic for a given seed; only the
    /// `_us` field is wall clock.
    #[derive(Debug, Serialize)]
    pub struct EnospcRecovery {
        /// Seed the campaign (and fault plan) were derived from.
        pub seed: u64,
        /// Journal size of the uninterrupted campaign, bytes.
        pub journal_bytes_total: u64,
        /// Journal byte budget at which the disk "filled".
        pub fault_after_bytes: u64,
        /// Measurement runs in the campaign.
        pub runs_total: usize,
        /// Journal records durable at the checkpoint.
        pub records_at_checkpoint: usize,
        /// Runs already sealed at the checkpoint (kept, not re-run).
        pub runs_at_checkpoint: usize,
        /// Runs completed after resume (must equal `runs_total`).
        pub runs_after_resume: usize,
        /// Wall-clock cost of the resume-to-completion, microseconds.
        pub resume_us: u64,
    }

    const SEED: u64 = 0xE2052C;

    /// Relative path → SHA-256 of every non-journal file under `dir`.
    /// Journals are excluded by contract: the resumed journal records the
    /// interruption and legitimately differs from the reference's.
    fn tree_digests(dir: &Path) -> std::collections::BTreeMap<String, String> {
        use pos_core::hash::sha256_hex;
        let mut files = std::collections::BTreeMap::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(current) = stack.pop() {
            for entry in std::fs::read_dir(&current).expect("walkable tree") {
                let path = entry.expect("readable entry").path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                let name = path.file_name().expect("file name").to_string_lossy();
                if name.starts_with("journal") {
                    continue;
                }
                let rel = path
                    .strip_prefix(dir)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                files.insert(rel, sha256_hex(&std::fs::read(&path).expect("readable")));
            }
        }
        files
    }

    fn testbed() -> Testbed {
        let mut tb = Testbed::new(SEED);
        tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .expect("fresh ports");
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .expect("fresh ports");
        register_all(&mut tb);
        tb
    }

    /// Measures [`EnospcRecovery`] with a two-run campaign under `root`:
    /// an uninterrupted reference sizes the journal, a faulted twin hits
    /// ENOSPC halfway through it, and the timed resume converges the
    /// tree to the reference outcome.
    pub fn measure_enospc_recovery(run_secs: u64, root: &Path) -> EnospcRecovery {
        let spec = linux_router_experiment("vriga", "vtartu", 1, run_secs);

        let mut tb = testbed();
        let reference = Controller::new(&mut tb)
            .run_experiment(&spec, &RunOptions::new(root.join("reference")))
            .expect("uninterrupted campaign succeeds");
        let journal_bytes_total = std::fs::metadata(reference.result_dir.join(JOURNAL_FILE))
            .expect("reference journal exists")
            .len();

        // The disk "fills" halfway through the journal the campaign
        // would write — mid-campaign, after at least one sealed run.
        let fault_after_bytes = journal_bytes_total / 2;
        let fault_root = root.join("faulted");
        let mut opts = RunOptions::new(&fault_root);
        opts.vfs = Vfs::faulty(FaultPlan {
            seed: SEED,
            faults: vec![DiskFault::Enospc {
                after_bytes: fault_after_bytes,
                file: Some(JOURNAL_FILE.into()),
            }],
        })
        .expect("plan validates");
        let mut tb = testbed();
        let err = Controller::new(&mut tb)
            .run_experiment(&spec, &opts)
            .expect_err("campaign must hit ENOSPC");
        assert!(err.is_storage_full(), "unexpected abort: {err}");

        // What survived the outage: the journal replays to its last
        // consistent boundary (the checkpoint resume starts from).
        let result_dir = {
            let mut found = None;
            let mut stack = vec![fault_root.clone()];
            while let Some(current) = stack.pop() {
                if current.join(JOURNAL_FILE).exists() {
                    found = Some(current);
                    break;
                }
                if current.is_dir() {
                    for entry in std::fs::read_dir(&current).expect("walkable") {
                        stack.push(entry.expect("readable entry").path());
                    }
                }
            }
            found.expect("faulted campaign left a journal")
        };
        let checkpoint = pos_core::recovery::CampaignJournals::read(&result_dir)
            .expect("checkpoint journal replays");
        let runs_at_checkpoint = checkpoint.completed.len();

        // Space is back: time what `pos resume` pays to finish.
        let t = Instant::now();
        let mut tb = testbed();
        let resumed = Controller::new(&mut tb)
            .resume_experiment(&result_dir, &spec, &RunOptions::new(&fault_root))
            .expect("resume completes once space returns");
        let resume_us = t.elapsed().as_micros() as u64;
        assert_eq!(
            tree_digests(&result_dir),
            tree_digests(&reference.result_dir),
            "resumed campaign must converge to the reference tree"
        );

        EnospcRecovery {
            seed: SEED,
            journal_bytes_total,
            fault_after_bytes,
            runs_total: reference.runs.len(),
            records_at_checkpoint: checkpoint.journal.records.len(),
            runs_at_checkpoint,
            runs_after_resume: resumed.successes(),
            resume_us,
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn enospc_recovery_checkpoints_and_converges() {
            let root =
                std::env::temp_dir().join(format!("pos-bench-enospc-test-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&root);
            let r = measure_enospc_recovery(1, &root);
            assert_eq!(r.runs_total, 2);
            assert_eq!(r.runs_after_resume, r.runs_total);
            assert!(
                r.runs_at_checkpoint < r.runs_total,
                "the outage must land mid-campaign, got checkpoint {}/{}",
                r.runs_at_checkpoint,
                r.runs_total
            );
            assert!(r.fault_after_bytes < r.journal_bytes_total);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// Kernel hot-path throughput: raw event-queue churn and simulated
/// packets/sec through the case-study topology, see the `kernel` binary.
pub mod kernel {
    use pos_loadgen::scenario::{run_forwarding_experiment, ForwardingScenario, Platform};
    use pos_simkernel::{EventQueue, SimDuration, SimRng, SimTime};
    use serde::Serialize;
    use std::time::Instant;

    /// Raw schedule+pop churn numbers.
    #[derive(Debug, Clone, Serialize)]
    pub struct QueueChurnReport {
        /// Events scheduled and popped.
        pub events: u64,
        /// Pending events held while churning.
        pub pending: u64,
        /// Wall-clock time for the churn loop, in milliseconds.
        pub wall_ms: f64,
        /// Schedule+pop pairs per wall second.
        pub events_per_sec: f64,
    }

    /// One packet-path row: the case-study topology at a fixed size.
    #[derive(Debug, Clone, Serialize)]
    pub struct PacketPathReport {
        /// Testbed platform (`pos` or `vpos`).
        pub platform: &'static str,
        /// Frame wire size in bytes.
        pub pkt_size: usize,
        /// Offered rate in packets per second (virtual time).
        pub offered_pps: f64,
        /// Packets the generator attempted.
        pub sim_packets: u64,
        /// Packets the DuT forwarded.
        pub forwarded: u64,
        /// Simulation events processed.
        pub sim_events: u64,
        /// Wall-clock time for the run, in milliseconds.
        pub wall_ms: f64,
        /// Simulated (attempted) packets per wall second.
        pub sim_packets_per_sec: f64,
        /// Simulation events per wall second.
        pub sim_events_per_sec: f64,
    }

    /// Churns `total` schedule+pop pairs over a queue holding `pending`
    /// events, with the engine's event-horizon shape: mostly near-future
    /// reschedules (serialization timers, link propagation) plus a
    /// far-future tail (measurement-duration timers) that lands in the
    /// wheel's overflow level.
    pub fn queue_churn(total: u64, pending: u64) -> QueueChurnReport {
        const HORIZON_NS: u64 = 1_000_000; // ~1 ms lookahead
        let mut rng = SimRng::new(0xEE).derive("kernel-churn");
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..pending {
            q.schedule(SimTime::from_nanos(rng.uniform_u64(HORIZON_NS)), i);
        }
        let start = Instant::now();
        let mut acc = 0u64;
        for n in 0..total {
            let (t, v) = q.pop().expect("churn queue never drains");
            acc = acc.wrapping_add(v);
            let delta = if n % 1024 == 0 {
                // Far-future: beyond any wheel horizon.
                HORIZON_NS * 1_000 + rng.uniform_u64(HORIZON_NS * 10_000)
            } else {
                rng.uniform_u64(HORIZON_NS)
            };
            q.schedule(t + SimDuration::from_nanos(delta), v);
        }
        std::hint::black_box(acc);
        let wall = start.elapsed();
        QueueChurnReport {
            events: total,
            pending,
            wall_ms: wall.as_secs_f64() * 1e3,
            events_per_sec: total as f64 / wall.as_secs_f64(),
        }
    }

    /// Runs the case-study forwarding topology of `platform` (MoonGen →
    /// Linux router → back; on vpos through two Linux bridges) for
    /// `run_secs` of virtual time and measures simulated packets per wall
    /// second.
    pub fn packet_path(
        platform: Platform,
        pkt_size: usize,
        rate_pps: f64,
        run_secs: f64,
    ) -> PacketPathReport {
        let mut s = ForwardingScenario::new(platform, pkt_size, rate_pps);
        s.duration = SimDuration::from_secs_f64(run_secs);
        let start = Instant::now();
        let r = run_forwarding_experiment(&s);
        let wall = start.elapsed();
        PacketPathReport {
            platform: platform.name(),
            pkt_size,
            offered_pps: rate_pps,
            sim_packets: r.report.tx_attempted,
            forwarded: r.router.forwarded,
            sim_events: r.events,
            wall_ms: wall.as_secs_f64() * 1e3,
            sim_packets_per_sec: r.report.tx_attempted as f64 / wall.as_secs_f64(),
            sim_events_per_sec: r.events as f64 / wall.as_secs_f64(),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn churn_conserves_events() {
            let r = queue_churn(10_000, 256);
            assert_eq!(r.events, 10_000);
            assert!(r.events_per_sec > 0.0);
        }

        #[test]
        fn packet_path_forwards_below_saturation() {
            let r = packet_path(Platform::Pos, 64, 200_000.0, 0.05);
            assert!(r.sim_packets >= 9_999, "got {}", r.sim_packets);
            assert_eq!(r.forwarded, r.sim_packets);
            // Inline delivery + burst pacing amortize the event queue far
            // below one event per packet on the clean-path topology.
            assert!(r.sim_events > 0);
            assert!(r.sim_events < r.sim_packets);
        }

        #[test]
        fn vpos_packet_path_folds_the_bridges() {
            let r = packet_path(Platform::Vpos, 64, 300_000.0, 0.05);
            assert_eq!(r.platform, "vpos");
            assert!(r.sim_packets >= 14_999, "got {}", r.sim_packets);
            // Folded bridges leave about one queue event per packet: the
            // FrameArrival at the eventful (preempted) vpos router.
            assert!(
                r.sim_events < r.sim_packets * 13 / 10,
                "{} events for {} packets",
                r.sim_events,
                r.sim_packets
            );
        }
    }
}
