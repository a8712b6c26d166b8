//! The on-disk journal format, pinned across versions.
//!
//! Every journal pos writes — a campaign's `journal.log` and its lane
//! journals, a DAG tree's `journal.log`, a daemon's `ledger.log` — uses
//! the one `POSJ1` frame. Each case below appends one record through the
//! real writer and demands the exact frame bytes an earlier version wrote,
//! then decodes the frame back into the record through the vocabulary
//! that owns it, so a tree or ledger left by that version stays readable
//! byte for byte.

use pos_core::journal::{decode_frame, FrameStep, Journal, JournalRecord, Record};
use pos_dag::{DagIdentity, DagRecord, GatherSeal, NodeFinish};
use pos_serve::LedgerRecord;
use pos_testutil::TempDir;
use std::fmt::Debug;
use std::fs;

/// Appends `record` to a fresh journal of its kind, compares the file
/// with `pinned`, and decodes the frame back.
fn check<R: Record + Debug + PartialEq>(record: R, pinned: &str) {
    let dir = TempDir::new("journal-golden");
    let path = dir.join("journal.log");
    let mut journal = Journal::create(&path).unwrap();
    journal.append(&record).unwrap();
    let bytes = fs::read(&path).unwrap();
    assert_eq!(
        String::from_utf8_lossy(&bytes),
        pinned,
        "frame bytes of {record:?}"
    );
    match decode_frame::<R>(&bytes, 0).unwrap() {
        FrameStep::Record {
            record: back,
            frame_len,
        } => {
            assert_eq!(back, record);
            assert_eq!(frame_len, bytes.len());
        }
        FrameStep::Torn { .. } => panic!("a whole frame decodes as torn"),
    }
    assert_eq!(Journal::<R>::replay(&path).unwrap().records, vec![record]);
}

#[test]
fn campaign_records_keep_their_frames() {
    check(
        JournalRecord::CampaignStarted {
            seed: 0xFEED,
            spec_digest: "5bec".into(),
            total_runs: 4,
            testbed: "pos".into(),
            started_ns: 0,
        },
        "POSJ1 00000065 0216d9580d2b91662611e79a3d505d17256e3cde01d9de6dcd05da9499b0bd83 \
         {\"CampaignStarted\":{\"seed\":65261,\"spec_digest\":\"5bec\",\"total_runs\":4,\
         \"testbed\":\"pos\",\"started_ns\":0}}\n",
    );
    check(
        JournalRecord::RunCompleted {
            index: 2,
            success: true,
            attempts: 1,
            recoveries: 0,
            recovery_time_ns: 0,
            started_ns: 2_000_000_000,
            finished_ns: 4_000_000_000,
            rng_cursor: 17,
            digest: "ab12".into(),
            fault_trace: vec!["link flap".into()],
        },
        "POSJ1 000000c9 07cdd4e09d3d230c2b9aa9beec03a0afb7bbdcfaed41400623a8244b4d6fa04d \
         {\"RunCompleted\":{\"index\":2,\"success\":true,\"attempts\":1,\"recoveries\":0,\
         \"recovery_time_ns\":0,\"started_ns\":2000000000,\"finished_ns\":4000000000,\
         \"rng_cursor\":17,\"digest\":\"ab12\",\"fault_trace\":[\"link flap\"]}}\n",
    );
    check(
        JournalRecord::LanePlan {
            lanes: 2,
            flavors: vec!["pos".into(), "vpos".into()],
        },
        "POSJ1 00000031 579d5e08f50df9f338472dcb47bd619cde7100ec8359922f9154901931e2cf4e \
         {\"LanePlan\":{\"lanes\":2,\"flavors\":[\"pos\",\"vpos\"]}}\n",
    );
}

#[test]
fn dag_records_keep_their_frames() {
    check(
        DagRecord::DagStarted(DagIdentity {
            name: "linux-router".into(),
            dag_digest: "da9".into(),
            spec_digest: "5bec".into(),
            seed: 7,
            testbed: "pos".into(),
            target: "in-process".into(),
            nodes: 3,
        }),
        "POSJ1 00000087 4801852505229616f6d287c2e94f92b96e42fa72f0c62d5c52d3c0fb6234b56b \
         {\"DagStarted\":{\"name\":\"linux-router\",\"dag_digest\":\"da9\",\
         \"spec_digest\":\"5bec\",\"seed\":7,\"testbed\":\"pos\",\"target\":\"in-process\",\
         \"nodes\":3}}\n",
    );
    check(
        DagRecord::NodeFinished(NodeFinish {
            node: "rate-sweep".into(),
            digest: "f00d".into(),
            started_ns: 90_000_000_000,
            finished_ns: 150_000_000_000,
            failed_runs: 1,
        }),
        "POSJ1 0000007a 2be78b86238849d0f3cca644a84db0e9935ed9a0d08d853003513f131d54c537 \
         {\"NodeFinished\":{\"node\":\"rate-sweep\",\"digest\":\"f00d\",\
         \"started_ns\":90000000000,\"finished_ns\":150000000000,\"failed_runs\":1}}\n",
    );
    check(
        DagRecord::GatherSealed(GatherSeal {
            node: "eval".into(),
            inputs: vec!["rate-sweep".into()],
            input_digests: vec!["f00d".into()],
        }),
        "POSJ1 00000051 7a506d582676dc73d76490ad92ff056369f5ea4b6a1fb1e7602cfbcd3295d24a \
         {\"GatherSealed\":{\"node\":\"eval\",\"inputs\":[\"rate-sweep\"],\
         \"input_digests\":[\"f00d\"]}}\n",
    );
}

#[test]
fn ledger_records_keep_their_frames() {
    check(
        LedgerRecord::ServeStarted {
            results_root: "/srv/pos/results".into(),
            capacity: 8,
            user_backlog: 2,
            seed: 7,
        },
        "POSJ1 0000005b ceed4e8d3274f7453d1f7a1fea9359033dd80f83fb3b2bcb71b206fb7107de12 \
         {\"ServeStarted\":{\"results_root\":\"/srv/pos/results\",\"capacity\":8,\
         \"user_backlog\":2,\"seed\":7}}\n",
    );
    check(
        LedgerRecord::SubmissionAccepted {
            id: 3,
            user: "alice".into(),
            experiment: "/srv/pos/exp".into(),
            priority: 2,
            token: Some("tok-3".into()),
        },
        "POSJ1 00000067 de134d89454d2bb0f8e565a5f576f34d5f10c820de635c687b0b06f921eaf46d \
         {\"SubmissionAccepted\":{\"id\":3,\"user\":\"alice\",\"experiment\":\"/srv/pos/exp\",\
         \"priority\":2,\"token\":\"tok-3\"}}\n",
    );
    check(
        LedgerRecord::SubmissionFinished {
            id: 3,
            outcome: "completed_degraded".into(),
            result_dir: "/srv/pos/results/alice/exp/vt-0000000000".into(),
        },
        "POSJ1 00000076 f1d82e266955c793af4cc40b7ee8c8824d4b7f3bd7d2dc75a72d4671fd2f4f88 \
         {\"SubmissionFinished\":{\"id\":3,\"outcome\":\"completed_degraded\",\
         \"result_dir\":\"/srv/pos/results/alice/exp/vt-0000000000\"}}\n",
    );
}
