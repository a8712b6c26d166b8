//! The `pos serve` crash contract, end to end:
//!
//! * every state transition is journaled to the queue ledger *before*
//!   it is acknowledged, so killing the daemon at **every** ledger
//!   append boundary (clean and torn) during a multi-user submission
//!   storm, then restarting, converges to result trees byte-identical
//!   to an uninterrupted daemon — unacknowledged submissions retried by
//!   their idempotency token, acknowledged ones deduplicated;
//! * the same holds for a machine death at campaign-journal boundaries
//!   while a dispatched campaign is executing;
//! * SIGTERM drain semantics: a drained-empty daemon exits 0, a daemon
//!   that leaves work pending (or checkpoints its in-flight campaign on
//!   an urgent second signal) exits 3, and a later session finishes the
//!   leftovers;
//! * per-user backlog rejection carries a deterministic retry-after
//!   hint, over the engine API and as an HTTP 429 `Retry-After` header.

use pos::core::experiment::{linux_router_experiment, ExperimentSpec};
use pos::serve::{
    fsck_queue, http_request, DrainAck, HttpServer, ServeEngine, ServeOptions, ServeStatus,
    StepOutcome, SubmitAck, SubmitRequest, SubmitResponse,
};
use pos_testutil::TempDir;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The smallest real campaign the case-study generator produces.
fn tiny_spec(user: &str, name: &str) -> ExperimentSpec {
    let mut spec = linux_router_experiment("vriga", "vtartu", 1, 1);
    spec.user = user.into();
    spec.name = name.into();
    spec
}

/// One tenant submission of the storm: who submits what, under which
/// idempotency token.
struct Tenant {
    user: &'static str,
    token: &'static str,
    priority: u32,
    dir: PathBuf,
}

/// A 3-submission, 2-user storm with per-submission experiment dirs.
fn storm(root: &Path) -> Vec<Tenant> {
    let plan = [
        ("alice", "exp-a", "tok-a", 1),
        ("bob", "exp-b", "tok-b", 2),
        ("alice", "exp-c", "tok-c", 1),
    ];
    plan.iter()
        .map(|(user, name, token, priority)| {
            let dir = root.join("specs").join(name);
            fs::create_dir_all(&dir).unwrap();
            tiny_spec(user, name).to_dir(&dir).unwrap();
            Tenant {
                user,
                token,
                priority: *priority,
                dir,
            }
        })
        .collect()
}

fn request(t: &Tenant) -> SubmitRequest {
    SubmitRequest {
        user: Some(t.user.into()),
        experiment: t.dir.display().to_string(),
        priority: t.priority,
        token: Some(t.token.into()),
    }
}

/// Runs dispatch steps until the daemon goes idle. Returns `Err` when
/// an injected death fires; panics if the engine neither finishes nor
/// dies within a sane step budget.
fn drive(engine: &ServeEngine) -> Result<(), String> {
    for _ in 0..50 {
        match engine.run_next().map_err(|e| e.to_string())? {
            StepOutcome::Idle => return Ok(()),
            StepOutcome::Finished { .. } => {}
            StepOutcome::Checkpointed { id } => {
                panic!("unexpected checkpoint of #{id} in a chaos-free drive")
            }
        }
    }
    panic!("daemon did not go idle within 50 dispatch steps");
}

/// Every file under `root` (relative path → bytes), journals excluded —
/// they record *how* the tree was produced, not its content.
fn tree_snapshot(root: &Path) -> BTreeMap<String, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<String, Vec<u8>>) {
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let name = path.file_name().unwrap().to_string_lossy();
                if name.starts_with("journal") {
                    continue;
                }
                let rel = path
                    .strip_prefix(root)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(root, root, &mut out);
    out
}

fn assert_trees_identical(reference: &Path, recovered: &Path, what: &str) {
    let want = tree_snapshot(reference);
    let got = tree_snapshot(recovered);
    let keys_want: Vec<&String> = want.keys().collect();
    let keys_got: Vec<&String> = got.keys().collect();
    assert_eq!(keys_want, keys_got, "{what}: file sets differ");
    for (rel, bytes) in &want {
        assert_eq!(
            bytes,
            &got[rel],
            "{what}: `{rel}` differs between {} and {}",
            reference.display(),
            recovered.display()
        );
    }
}

/// Builds the uninterrupted reference: the full storm served by one
/// crash-free daemon session.
fn reference_trees(root: &Path, tenants: &[Tenant]) -> PathBuf {
    let results = root.join("results-reference");
    let engine = ServeEngine::start(ServeOptions::new(root.join("state-reference"), &results))
        .expect("reference daemon starts");
    for t in tenants {
        assert!(
            matches!(
                engine.submit(&request(t)).unwrap(),
                SubmitResponse::Accepted { .. }
            ),
            "reference submission must be accepted"
        );
    }
    drive(&engine).unwrap();
    let report = engine.shutdown().unwrap();
    assert!(report.clean, "reference session must end clean: {report:?}");
    assert_eq!(report.totals.completed, tenants.len() as u64);
    results
}

/// One crash-then-recover cycle: run a session with the given injection
/// until it dies (or completes), then restart crash-free, retry the
/// storm by token, and drive to completion. Returns whether the first
/// session actually died.
fn crash_and_recover(
    state: &Path,
    results: &Path,
    tenants: &[Tenant],
    inject: impl FnOnce(&mut ServeOptions),
    what: &str,
) -> bool {
    let mut opts = ServeOptions::new(state, results);
    inject(&mut opts);
    let crashed = match ServeEngine::start(opts) {
        Err(_) => true,
        Ok(engine) => {
            let mut died = false;
            for t in tenants {
                if engine.submit(&request(t)).is_err() {
                    died = true;
                }
            }
            if !died {
                died = drive(&engine).is_err();
            }
            if !died {
                // The injection point lies beyond this session's appends;
                // it completes like the reference.
                let report = engine.shutdown().unwrap();
                assert!(report.clean, "{what}: uncrashed session not clean");
            }
            died
        }
    };

    // Restart: replay the ledger, retry every submission under its
    // idempotency token (acknowledged ones dedupe), finish everything.
    let engine =
        ServeEngine::start(ServeOptions::new(state, results)).expect("recovery session starts");
    for t in tenants {
        match engine.submit(&request(t)).unwrap() {
            SubmitResponse::Accepted { .. } | SubmitResponse::Duplicate { .. } => {}
            other => panic!("{what}: retry of {} refused: {other:?}", t.token),
        }
    }
    drive(&engine).unwrap_or_else(|e| panic!("{what}: recovery drive failed: {e}"));
    let report = engine.shutdown().unwrap();
    assert!(report.clean, "{what}: recovery must end clean: {report:?}");
    assert_eq!(report.exit_code(), 0, "{what}: recovery exit code");
    let ledger = fsck_queue(state).unwrap();
    assert!(
        ledger.is_clean(),
        "{what}: ledger check after the drain:\n{}",
        ledger.render()
    );
    crashed
}

/// The tentpole: kill the daemon at every ledger append boundary (torn
/// on odd boundaries) and at campaign-journal boundaries, restart, and
/// require byte-identical result trees versus the uninterrupted run.
#[test]
fn restart_matrix_converges_to_uninterrupted_trees() {
    let root = TempDir::new("serve-matrix");
    let tenants = storm(&root);
    let reference = reference_trees(&root, &tenants);

    // An uninterrupted session appends ServeStarted + one Accepted,
    // Dispatched, Finished triple per submission.
    let ledger_appends = 1 + 3 * tenants.len() as u64;
    for k in 0..=ledger_appends {
        let torn = k % 2 == 1;
        let what = format!("ledger boundary {k} (torn {torn})");
        let state = root.join(format!("state-l{k}"));
        let results = root.join(format!("results-l{k}"));
        let crashed = crash_and_recover(
            &state,
            &results,
            &tenants,
            |o| {
                o.ledger_crash_after = Some(k);
                o.ledger_torn_write = torn;
            },
            &what,
        );
        assert_eq!(
            crashed,
            k < ledger_appends,
            "{what}: crash expectation — the boundary census drifted"
        );
        assert_trees_identical(&reference, &results, &what);
    }

    // Machine death at campaign-journal boundaries: the first dispatched
    // campaign's k-th append fails mid-execution.
    for (k, torn) in [(0, false), (1, true), (2, false), (5, true)] {
        let what = format!("campaign boundary {k} (torn {torn})");
        let state = root.join(format!("state-c{k}"));
        let results = root.join(format!("results-c{k}"));
        let crashed = crash_and_recover(
            &state,
            &results,
            &tenants,
            |o| {
                o.campaign_crash_after = Some(k);
                o.campaign_torn_write = torn;
            },
            &what,
        );
        if k <= 2 {
            assert!(crashed, "{what}: boundary {k} must be inside the campaign");
        }
        assert_trees_identical(&reference, &results, &what);
    }
}

/// A daemon drained with nothing left exits 0.
#[test]
fn clean_drain_exits_zero() {
    let root = TempDir::new("serve-drain-clean");
    let tenants = storm(&root);
    let engine =
        ServeEngine::start(ServeOptions::new(root.join("state"), root.join("results"))).unwrap();
    engine.submit(&request(&tenants[0])).unwrap();
    drive(&engine).unwrap();
    assert_eq!(engine.begin_drain().unwrap(), 0);
    assert!(!engine.is_accepting());
    let report = engine.shutdown().unwrap();
    assert_eq!(report.exit_code(), 0, "clean drain: {report:?}");
}

/// A drain that leaves submissions pending exits 3; the backlog stays
/// durable in the ledger and a later session completes it.
#[test]
fn drain_with_backlog_exits_degraded_and_backlog_survives() {
    let root = TempDir::new("serve-drain-backlog");
    let tenants = storm(&root);
    let state = root.join("state");
    let results = root.join("results");

    let engine = ServeEngine::start(ServeOptions::new(&state, &results)).unwrap();
    for t in &tenants {
        engine.submit(&request(t)).unwrap();
    }
    // Finish exactly one campaign, then drain with two still queued.
    assert!(matches!(
        engine.run_next().unwrap(),
        StepOutcome::Finished { .. }
    ));
    let pending = engine.begin_drain().unwrap();
    assert_eq!(pending, 2, "two submissions must be left pending");
    // Submissions are refused once draining.
    assert!(matches!(
        engine.submit(&request(&tenants[0])).unwrap(),
        SubmitResponse::Duplicate { .. }
    ));
    assert!(matches!(engine.run_next().unwrap(), StepOutcome::Idle));
    let report = engine.shutdown().unwrap();
    assert_eq!(report.pending, 2);
    assert_eq!(report.exit_code(), 3, "pending backlog: {report:?}");

    // The next session inherits the backlog from the ledger alone.
    let engine = ServeEngine::start(ServeOptions::new(&state, &results)).unwrap();
    drive(&engine).unwrap();
    let report = engine.shutdown().unwrap();
    assert_eq!(report.exit_code(), 0, "inherited backlog: {report:?}");
    assert_eq!(report.totals.completed, 2);
}

/// An urgent stop (second SIGTERM) checkpoints the in-flight campaign:
/// this session exits 3, the next session resumes the checkpoint, and
/// the final tree is byte-identical to a never-interrupted run.
#[test]
fn urgent_cancel_checkpoints_in_flight_and_resumes() {
    let root = TempDir::new("serve-urgent");
    let tenants = storm(&root);
    let reference = reference_trees(&root, &tenants[..1]);
    let state = root.join("state");
    let results = root.join("results");

    let engine = ServeEngine::start(ServeOptions::new(&state, &results)).unwrap();
    engine.submit(&request(&tenants[0])).unwrap();
    // The urgent signal lands before the dispatch step reaches the
    // campaign, so it checkpoints at its first cancellation check.
    engine.cancel_in_flight();
    assert!(matches!(
        engine.run_next().unwrap(),
        StepOutcome::Checkpointed { .. }
    ));
    let report = engine.shutdown().unwrap();
    assert_eq!(report.in_flight, 1, "checkpoint stays in flight");
    assert_eq!(report.totals.checkpointed, 1);
    assert_eq!(report.exit_code(), 3, "urgent stop: {report:?}");

    // The next session resumes the checkpoint from the ledger.
    let engine = ServeEngine::start(ServeOptions::new(&state, &results)).unwrap();
    drive(&engine).unwrap();
    let report = engine.shutdown().unwrap();
    assert_eq!(report.exit_code(), 0, "resumed checkpoint: {report:?}");
    assert_trees_identical(&reference, &results, "urgent-cancel resume");
}

/// Per-user backlog rejection is deterministic: the same overload
/// yields the same `retry_after_secs` hint, and the queue stays usable
/// for other tenants.
#[test]
fn backlog_rejection_has_deterministic_retry_after() {
    let root = TempDir::new("serve-backlog");
    let tenants = storm(&root);
    let mut opts = ServeOptions::new(root.join("state"), root.join("results"));
    opts.user_backlog = 1;
    let engine = ServeEngine::start(opts).unwrap();

    assert!(matches!(
        engine.submit(&request(&tenants[0])).unwrap(),
        SubmitResponse::Accepted { .. }
    ));
    // Same user, second submission: over the per-user backlog.
    let overload = SubmitRequest {
        token: None,
        ..request(&tenants[2])
    };
    let first = match engine.submit(&overload).unwrap() {
        SubmitResponse::Rejected {
            retry_after_secs,
            closed,
            error,
        } => {
            assert!(!closed, "backlog rejection is not a drain");
            assert!(
                error.contains("backlog"),
                "diagnostic must name the backlog: {error}"
            );
            retry_after_secs.expect("backlog rejection carries a retry hint")
        }
        other => panic!("expected backlog rejection, got {other:?}"),
    };
    let second = match engine.submit(&overload).unwrap() {
        SubmitResponse::Rejected {
            retry_after_secs, ..
        } => retry_after_secs.unwrap(),
        other => panic!("expected backlog rejection, got {other:?}"),
    };
    assert_eq!(first, second, "retry hint must be deterministic");
    // Another tenant is unaffected by alice's backlog.
    assert!(matches!(
        engine.submit(&request(&tenants[1])).unwrap(),
        SubmitResponse::Accepted { .. }
    ));
}

/// Idempotency tokens deduplicate across the whole submission
/// lifetime, completed campaigns included.
#[test]
fn tokens_deduplicate_across_completion() {
    let root = TempDir::new("serve-dedupe");
    let tenants = storm(&root);
    let engine =
        ServeEngine::start(ServeOptions::new(root.join("state"), root.join("results"))).unwrap();
    let id = match engine.submit(&request(&tenants[0])).unwrap() {
        SubmitResponse::Accepted { id } => id,
        other => panic!("expected acceptance, got {other:?}"),
    };
    match engine.submit(&request(&tenants[0])).unwrap() {
        SubmitResponse::Duplicate { id: dup } => assert_eq!(dup, id),
        other => panic!("expected pre-run dedupe, got {other:?}"),
    }
    drive(&engine).unwrap();
    match engine.submit(&request(&tenants[0])).unwrap() {
        SubmitResponse::Duplicate { id: dup } => assert_eq!(dup, id, "post-completion dedupe"),
        other => panic!("expected post-completion dedupe, got {other:?}"),
    }
}

/// The HTTP face of the daemon: health, readiness, status, submission
/// (including 429 + `Retry-After` on backlog), and drain.
#[test]
fn http_endpoints_speak_the_protocol() {
    let root = TempDir::new("serve-http");
    let tenants = storm(&root);
    let mut opts = ServeOptions::new(root.join("state"), root.join("results"));
    opts.user_backlog = 1;
    let engine = Arc::new(ServeEngine::start(opts).unwrap());
    let server = HttpServer::bind("127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = server.spawn(engine.clone(), stop.clone());

    assert_eq!(
        http_request(&addr, "GET", "/healthz", None).unwrap().status,
        200
    );
    assert_eq!(
        http_request(&addr, "GET", "/readyz", None).unwrap().status,
        200
    );

    // Accepted submission.
    let body = serde_json::to_string(&request(&tenants[0])).unwrap();
    let resp = http_request(&addr, "POST", "/submit", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "submit: {}", resp.body);
    let ack: SubmitAck = serde_json::from_str(&resp.body).unwrap();
    assert!(!ack.deduped);

    // Token dedupe over the wire.
    let resp = http_request(&addr, "POST", "/submit", Some(&body)).unwrap();
    assert_eq!(resp.status, 200);
    let dup: SubmitAck = serde_json::from_str(&resp.body).unwrap();
    assert!(dup.deduped);
    assert_eq!(dup.id, ack.id);

    // Backlog overflow: 429 with a Retry-After header.
    let overload = SubmitRequest {
        token: None,
        ..request(&tenants[2])
    };
    let body = serde_json::to_string(&overload).unwrap();
    let resp = http_request(&addr, "POST", "/submit", Some(&body)).unwrap();
    assert_eq!(resp.status, 429, "backlog over HTTP: {}", resp.body);
    let retry = resp
        .header("retry-after")
        .expect("429 must carry Retry-After")
        .to_string();
    assert!(
        retry.parse::<u64>().is_ok(),
        "Retry-After not secs: {retry}"
    );

    // Garbage body.
    let resp = http_request(&addr, "POST", "/submit", Some("{not json")).unwrap();
    assert_eq!(resp.status, 400);

    // Status reflects the accepted submission.
    let resp = http_request(&addr, "GET", "/status", None).unwrap();
    assert_eq!(resp.status, 200);
    let status: ServeStatus = serde_json::from_str(&resp.body).unwrap();
    assert!(status.accepting);
    assert_eq!(status.totals.accepted, 1);
    assert_eq!(status.totals.deduped, 1);
    assert_eq!(status.totals.rejected, 1);
    assert_eq!(status.queue.depth, 1);

    // Drain: 202, then not ready, then submissions refused as closed.
    let resp = http_request(&addr, "POST", "/drain", None).unwrap();
    assert_eq!(resp.status, 202, "drain: {}", resp.body);
    let drain: DrainAck = serde_json::from_str(&resp.body).unwrap();
    assert_eq!(drain.pending, 1);
    assert_eq!(
        http_request(&addr, "GET", "/readyz", None).unwrap().status,
        503
    );
    let body = serde_json::to_string(&request(&tenants[1])).unwrap();
    let resp = http_request(&addr, "POST", "/submit", Some(&body)).unwrap();
    assert_eq!(resp.status, 503, "submit after drain: {}", resp.body);

    stop.store(true, Ordering::SeqCst);
    handle.join().unwrap();
}
