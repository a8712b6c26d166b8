//! Recoverability (R3) through the full workflow, across initialization
//! interfaces — including the power plug, which has no reset command.
//!
//! The second half of this file drives *chaos plans* through the
//! controller: scheduled crashes, wedges, management outages, command
//! hangs and lossy-link windows, each replayed twice to pin down that
//! degraded experiments are byte-for-byte reproducible.

use pos::core::commands::register_all;
use pos::core::controller::{Controller, HostHealth, Progress, RunOptions};
use pos::core::experiment::linux_router_experiment;
use pos::core::script::Script;
use pos::core::vars::Variables;
use pos::netsim::{ChaosEvent, ChaosPlan, FaultConfig};
use pos::simkernel::{SimDuration, SimTime};
use pos::testbed::{CommandResult, HardwareSpec, InitInterface, PortId, Testbed};
use pos_testutil::TempDir;
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::rc::Rc;

fn testbed_with_init(init: InitInterface) -> Testbed {
    let mut tb = Testbed::new(0xFEED);
    tb.add_host("vriga", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    tb.add_host("vtartu", HardwareSpec::paper_dut(), init);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .unwrap();
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .unwrap();
    register_all(&mut tb);
    tb
}

/// Registers a command that wedges the host on its first call.
fn register_crash_once(tb: &mut Testbed) -> Rc<Cell<u32>> {
    let calls = Rc::new(Cell::new(0u32));
    let counter = calls.clone();
    tb.register_command(
        "crash-once",
        Rc::new(move |tb: &mut Testbed, host: &str, _argv: &[String]| {
            counter.set(counter.get() + 1);
            if counter.get() == 1 {
                tb.host_mut(host).unwrap().inject_crash();
                CommandResult::fail(255, "connection reset by peer")
            } else {
                CommandResult::ok("ok")
            }
        }),
    );
    calls
}

fn crash_spec() -> pos::core::experiment::ExperimentSpec {
    let mut spec = linux_router_experiment("vriga", "vtartu", 1, 1);
    spec.loop_vars = Variables::new().with("pkt_rate", vec![10_000i64, 20_000]);
    spec.global_vars.set("pkt_sz", 64i64);
    spec.roles[1].measurement = Script::parse("crash-once\nsleep $run_secs\npos_sync run_done\n");
    spec
}

#[test]
fn recovery_via_ipmi_reset() {
    let mut tb = testbed_with_init(InitInterface::Ipmi);
    let calls = register_crash_once(&mut tb);
    let root = TempDir::new("rec-ipmi");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&crash_spec(), &RunOptions::new(&root))
        .expect("recovers and completes");
    assert_eq!(outcome.successes(), 2);
    assert_eq!(outcome.recoveries, 1);
    assert!(calls.get() >= 2);
    // The recovered host re-ran its setup: forwarding is enabled again and
    // the second run still measures real throughput.
    let dut = tb.host("vtartu").unwrap();
    assert_eq!(dut.sysctls["net.ipv4.ip_forward"], "1");
    assert!(dut.boots >= 2);
}

#[test]
fn recovery_via_power_plug_cycle() {
    // Power plugs cannot reset; the controller must power-cycle instead
    // (off + mandatory dwell + on).
    let mut tb = testbed_with_init(InitInterface::PowerPlug);
    let _calls = register_crash_once(&mut tb);
    let root = TempDir::new("rec-plug");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&crash_spec(), &RunOptions::new(&root))
        .expect("power-cycle recovery works too");
    assert_eq!(outcome.successes(), 2);
    assert_eq!(outcome.recoveries, 1);
    assert!(tb.host("vtartu").unwrap().boots >= 2);
}

#[test]
fn recovery_via_hypervisor() {
    let mut tb = Testbed::new(0xFEED);
    tb.add_host("vriga", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
    tb.add_host("vtartu", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
    tb.topology
        .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
        .unwrap();
    tb.topology
        .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
        .unwrap();
    register_all(&mut tb);
    let _calls = register_crash_once(&mut tb);
    let root = TempDir::new("rec-hv");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&crash_spec(), &RunOptions::new(&root))
        .expect("vm recovery");
    assert_eq!(outcome.successes(), 2);
    assert_eq!(outcome.recoveries, 1);
}

#[test]
fn run_results_after_recovery_are_complete() {
    // The interrupted run is *retried from scratch*, so its published
    // artifacts are indistinguishable from an undisturbed run's.
    let mut tb = testbed_with_init(InitInterface::Ipmi);
    let _calls = register_crash_once(&mut tb);
    let root = TempDir::new("rec-complete");
    let outcome = Controller::new(&mut tb)
        .run_experiment(&crash_spec(), &RunOptions::new(&root))
        .expect("completes");
    let set = pos::eval::loader::ResultSet::load(&outcome.result_dir).unwrap();
    assert_eq!(set.len(), 2);
    for run in &set.runs {
        assert!(run.metadata.success);
        let report = run.reports.get("loadgen").expect("full measurement output");
        assert!(report.rx_frames > 0, "real traffic was measured");
        assert_eq!(report.rx_frames, report.tx_frames, "below saturation");
    }
    // Attempt counts document the recovery in the metadata.
    let attempts: Vec<u32> = set.runs.iter().map(|r| r.metadata.attempts).collect();
    assert!(
        attempts.iter().any(|&a| a > 1),
        "metadata records the retry"
    );
}

// --------------------------------------------------------------- chaos

/// 2 packet sizes × 2 rates, 30 s runs: long enough that chaos events
/// pinned to virtual time land mid-sweep for any boot jitter. Rates are
/// kept low — chaos scenarios probe recovery, not saturation, and lower
/// rates keep the packet-level simulation fast.
fn chaos_spec() -> pos::core::experiment::ExperimentSpec {
    let mut spec = linux_router_experiment("vriga", "vtartu", 2, 30);
    spec.loop_vars.set(
        "pkt_rate",
        pos::core::vars::VarValue::List(vec![10_000i64.into(), 50_000i64.into()]),
    );
    spec
}

/// Runs the chaos spec once under `plan` and returns what the scenario
/// assertions need. `init` selects vtartu's initialization interface
/// (Hypervisor switches both hosts to vpos VMs, like the real testbeds).
fn run_chaos_scenario(
    tag: &str,
    init: InitInterface,
    plan: &ChaosPlan,
    tune: impl Fn(&mut RunOptions),
) -> ChaosScenarioResult {
    let mut tb = if init == InitInterface::Hypervisor {
        let mut tb = Testbed::new(0xFEED);
        tb.add_host("vriga", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
        tb.add_host("vtartu", HardwareSpec::vpos_vm(), InitInterface::Hypervisor);
        tb.topology
            .wire(PortId::new("vriga", 0), PortId::new("vtartu", 0))
            .unwrap();
        tb.topology
            .wire(PortId::new("vtartu", 1), PortId::new("vriga", 1))
            .unwrap();
        register_all(&mut tb);
        tb
    } else {
        testbed_with_init(init)
    };
    let root = TempDir::new(&format!("rec-{tag}"));
    let mut opts = RunOptions::new(&root);
    opts.continue_on_run_failure = true;
    tune(&mut opts);
    let events = Rc::new(RefCell::new(Vec::new()));
    let sink = events.clone();
    let mut ctl =
        Controller::new(&mut tb).with_progress(move |p| sink.borrow_mut().push(p.clone()));
    ctl.apply_chaos(plan).expect("plan validates");
    let outcome = ctl.run_experiment(&chaos_spec(), &opts).expect("completes");
    let vtartu_health = ctl.host_health("vtartu");
    drop(ctl);
    let seen = events.borrow().clone();
    ChaosScenarioResult {
        summary: outcome.summary(),
        outcome,
        events: seen,
        vtartu_boots: tb.host("vtartu").unwrap().boots,
        vtartu_health,
        _root: root,
    }
}

struct ChaosScenarioResult {
    summary: String,
    outcome: pos::core::controller::ExperimentOutcome,
    events: Vec<Progress>,
    vtartu_boots: u64,
    vtartu_health: HostHealth,
    /// Keeps the result tree on disk as long as the result lives.
    _root: TempDir,
}

impl ChaosScenarioResult {
    fn all_fault_lines(&self) -> String {
        self.outcome
            .runs
            .iter()
            .flat_map(|r| r.fault_trace.iter())
            .cloned()
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[test]
fn chaos_crash_recovers_across_interfaces() {
    // The same mid-sweep kernel panic, recovered through every bare-metal
    // style interface: IPMI reset, vendor-management reset, and the power
    // plug's off/dwell/on cycle.
    let plan = ChaosPlan::new(1).with_event(ChaosEvent::HostCrash {
        host: "vtartu".into(),
        at: SimTime::from_secs(118),
    });
    for (init, tag) in [
        (InitInterface::Ipmi, "chaos-ipmi"),
        (InitInterface::VendorManagement, "chaos-vendor"),
        (InitInterface::PowerPlug, "chaos-plug"),
    ] {
        let a = run_chaos_scenario(tag, init, &plan, |_| {});
        assert_eq!(a.outcome.successes(), 4, "{init}: all runs recover");
        assert!(a.outcome.failed_runs.is_empty(), "{init}");
        assert!(a.outcome.recoveries >= 1, "{init}: crash was recovered");
        assert!(
            a.outcome.total_recovery_time > SimDuration::ZERO,
            "{init}: recovery took virtual time"
        );
        assert!(a.vtartu_boots >= 2, "{init}: reboot happened");
        assert_eq!(a.vtartu_health, HostHealth::Healthy, "{init}");
        // The degraded run carries its fault story even though it succeeded.
        let degraded = a.outcome.runs.iter().find(|r| r.recoveries > 0).unwrap();
        assert!(degraded.success);
        assert!(!degraded.fault_trace.is_empty(), "{init}: fault trace kept");
        assert!(
            a.events
                .iter()
                .any(|e| matches!(e, Progress::HostRecovered { host } if host == "vtartu")),
            "{init}: recovery visible via progress"
        );
        // Replay: the same plan against the same seed is byte-identical.
        let b = run_chaos_scenario(&format!("{tag}-replay"), init, &plan, |_| {});
        assert_eq!(a.summary, b.summary, "{init}: chaos replay diverged");
    }
}

#[test]
fn chaos_wedge_escalates_to_power_cycle_on_hypervisor() {
    // A wedged host shrugs off soft resets; the controller must notice the
    // reset retries going nowhere and escalate to a full power cycle.
    let plan = ChaosPlan::new(2).with_event(ChaosEvent::HostWedge {
        host: "vtartu".into(),
        at: SimTime::from_secs(50),
    });
    let a = run_chaos_scenario("chaos-wedge", InitInterface::Hypervisor, &plan, |_| {});
    assert_eq!(a.outcome.successes(), 4);
    assert!(a.outcome.recoveries >= 1);
    assert!(
        a.all_fault_lines().contains("escalating to power cycle"),
        "escalation recorded in the fault trace:\n{}",
        a.all_fault_lines()
    );
    assert_eq!(a.vtartu_health, HostHealth::Healthy);
    let b = run_chaos_scenario(
        "chaos-wedge-replay",
        InitInterface::Hypervisor,
        &plan,
        |_| {},
    );
    assert_eq!(a.summary, b.summary);
}

#[test]
fn chaos_hang_trips_watchdog_and_recovers() {
    // Commands on the DuT stop returning for 82 s; a 40 s watchdog reaps
    // the stuck session, the host is treated like a crash and recovered.
    let plan = ChaosPlan::new(3).with_event(ChaosEvent::CommandHang {
        host: "vtartu".into(),
        from: SimTime::from_secs(118),
        until: SimTime::from_secs(200),
    });
    let tune = |o: &mut RunOptions| o.command_timeout = Some(SimDuration::from_secs(40));
    let a = run_chaos_scenario("chaos-hang", InitInterface::VendorManagement, &plan, tune);
    assert_eq!(a.outcome.successes(), 4, "summary:\n{}", a.summary);
    assert!(a.outcome.recoveries >= 1, "watchdog kill triggers recovery");
    assert!(
        a.all_fault_lines().contains("watchdog"),
        "watchdog kill recorded:\n{}",
        a.all_fault_lines()
    );
    let b = run_chaos_scenario(
        "chaos-hang-replay",
        InitInterface::VendorManagement,
        &plan,
        tune,
    );
    assert_eq!(a.summary, b.summary);
}

#[test]
fn chaos_power_outage_quarantines_host_and_sweep_degrades() {
    // The DuT panics while its management interface is dark: reset retries
    // fail, the power-cycle fallback fails, the host is quarantined — and
    // with continue_on_run_failure the rest of the sweep still completes,
    // recording the lost runs instead of aborting.
    let plan = ChaosPlan::new(4)
        .with_event(ChaosEvent::HostCrash {
            host: "vtartu".into(),
            at: SimTime::from_secs(118),
        })
        .with_event(ChaosEvent::PowerOutage {
            host: "vtartu".into(),
            from: SimTime::from_secs(110),
            until: SimTime::from_secs(4000),
        });
    let a = run_chaos_scenario("chaos-outage", InitInterface::Ipmi, &plan, |_| {});
    assert_eq!(a.outcome.successes(), 2, "runs before the crash survive");
    assert_eq!(a.outcome.failed_runs, vec![2, 3], "summary:\n{}", a.summary);
    assert_eq!(a.outcome.quarantined_hosts, vec!["vtartu".to_string()]);
    assert_eq!(a.vtartu_health, HostHealth::Quarantined);
    assert_eq!(a.outcome.recoveries, 0, "no recovery succeeded");
    assert_eq!(a.outcome.runs.len(), 4, "sweep completed despite the loss");
    // The run hit by the crash burned one attempt; the one after the
    // quarantine failed fast without any.
    assert_eq!(a.outcome.runs[2].attempts, 1);
    assert_eq!(a.outcome.runs[3].attempts, 0);
    assert!(
        !a.outcome.runs[3].fault_trace.is_empty(),
        "skip is recorded"
    );
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, Progress::PowerRetry { host, .. } if host == "vtartu")));
    assert!(a
        .events
        .iter()
        .any(|e| matches!(e, Progress::HostQuarantined { host } if host == "vtartu")));
    // Surviving runs still produced a full result tree.
    let set = pos::eval::loader::ResultSet::load(&a.outcome.result_dir).unwrap();
    assert_eq!(set.len(), 4);
    assert_eq!(
        set.runs.iter().filter(|r| r.metadata.success).count(),
        2,
        "degradation visible in the published metadata"
    );
    let b = run_chaos_scenario("chaos-outage-replay", InitInterface::Ipmi, &plan, |_| {});
    assert_eq!(a.summary, b.summary, "degraded outcome replays bit-for-bit");
}

#[test]
fn chaos_link_faults_degrade_measurements_not_runs() {
    // A lossy experiment link is *not* a failure: every run completes, but
    // the measurements show the loss — deterministically.
    let plan = ChaosPlan::new(5).with_event(ChaosEvent::LinkFaults {
        host: "vriga".into(),
        from: SimTime::from_secs(1),
        until: SimTime::from_secs(10_000),
        config: FaultConfig {
            drop_chance: 0.3,
            ..FaultConfig::none()
        },
    });
    let a = run_chaos_scenario("chaos-link", InitInterface::Ipmi, &plan, |_| {});
    assert_eq!(a.outcome.successes(), 4, "lossy link fails no run");
    assert_eq!(a.outcome.recoveries, 0);
    let set = pos::eval::loader::ResultSet::load(&a.outcome.result_dir).unwrap();
    for run in &set.runs {
        let report = run.reports.get("loadgen").unwrap();
        assert!(
            report.rx_frames < report.tx_frames,
            "loss shows up in the measurement: rx {} tx {}",
            report.rx_frames,
            report.tx_frames
        );
    }
    let b = run_chaos_scenario("chaos-link-replay", InitInterface::Ipmi, &plan, |_| {});
    assert_eq!(a.summary, b.summary);
}

#[test]
fn chaos_campaign_interrupted_mid_quarantine_resumes_identically() {
    // The outage scenario above, but the controller is killed at journal
    // boundaries around the quarantine — right before the failed run's
    // completion record and right before the final skipped run's — then
    // resumed with the same chaos plan. The resumed campaign must report
    // exactly the summary of the uninterrupted one: same failed runs, same
    // attempts, same quarantine, same virtual timings.
    let plan = ChaosPlan::new(4)
        .with_event(ChaosEvent::HostCrash {
            host: "vtartu".into(),
            at: SimTime::from_secs(118),
        })
        .with_event(ChaosEvent::PowerOutage {
            host: "vtartu".into(),
            from: SimTime::from_secs(110),
            until: SimTime::from_secs(4000),
        });
    let reference = run_chaos_scenario("chaos-resume-ref", InitInterface::Ipmi, &plan, |_| {});

    // k=7 kills the append of run 2's RunCompleted: the HostQuarantined
    // record is durable but run 2 is not, so the quarantine must be
    // *re-derived* by re-executing the run. k=9 kills run 3's
    // RunCompleted: run 2 is durable and the quarantine is *restored*
    // from the journal instead — both paths must converge.
    for k in [7u64, 9] {
        let tag = format!("chaos-resume-k{k}");
        let root = TempDir::new(&format!("rec-{tag}"));
        let mut tb = testbed_with_init(InitInterface::Ipmi);
        let mut opts = RunOptions::new(&root);
        opts.continue_on_run_failure = true;
        opts.journal_crash_after = Some(k);
        let mut ctl = Controller::new(&mut tb);
        ctl.apply_chaos(&plan).expect("plan validates");
        ctl.run_experiment(&chaos_spec(), &opts)
            .expect_err("campaign must abort at the injected crash");
        drop(ctl);

        // Find the interrupted tree (root/user/experiment/vt-*).
        let mut result_dir = root.to_path_buf();
        while !result_dir.join("journal.log").exists() {
            let mut entries: Vec<PathBuf> = std::fs::read_dir(&result_dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .collect();
            entries.sort();
            result_dir = entries.into_iter().next().expect("result tree exists");
        }

        let mut tb = testbed_with_init(InitInterface::Ipmi);
        let mut opts = RunOptions::new(&root);
        opts.continue_on_run_failure = true;
        let mut ctl = Controller::new(&mut tb);
        ctl.apply_chaos(&plan).expect("plan validates");
        let outcome = ctl
            .resume_experiment(&result_dir, &chaos_spec(), &opts)
            .unwrap_or_else(|e| panic!("{tag}: resume failed: {e}"));
        assert_eq!(
            outcome.summary(),
            reference.summary,
            "{tag}: resumed chaos campaign diverges from uninterrupted replay"
        );
        assert_eq!(
            outcome.quarantined_hosts,
            vec!["vtartu".to_string()],
            "{tag}"
        );
        assert_eq!(outcome.failed_runs, vec![2, 3], "{tag}");
    }
}

#[test]
fn generated_campaign_roundtrips_and_replays() {
    // A seed-generated campaign archives as JSON, reloads validated, and
    // replays to the same outcome — the plan file alone reproduces the
    // degraded experiment.
    let cfg = pos::netsim::CampaignConfig {
        crashes: 1,
        hangs: 1,
        ..Default::default()
    };
    let plan = ChaosPlan::generate(0xC0FFEE, &["vriga", "vtartu"], &cfg);
    let reloaded = ChaosPlan::from_json(&plan.to_json()).unwrap();
    assert_eq!(plan, reloaded);

    let a = run_chaos_scenario("chaos-gen", InitInterface::Ipmi, &reloaded, |_| {});
    let b = run_chaos_scenario("chaos-gen-replay", InitInterface::Ipmi, &plan, |_| {});
    assert_eq!(a.outcome.runs.len(), 4);
    assert_eq!(a.summary, b.summary);
}
