//! # pos — reproducible network experiments, reproduced
//!
//! Umbrella crate for the Rust reproduction of *"The pos Framework: A
//! Methodology and Toolchain for Reproducible Network Experiments"*
//! (Gallenmüller et al., CoNEXT '21).
//!
//! Each subsystem lives in its own crate; this crate re-exports them under
//! stable module names so applications can depend on a single `pos` crate:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`simkernel`] | `pos-simkernel` | deterministic discrete-event kernel |
//! | [`packet`] | `pos-packet` | Ethernet/IPv4/UDP frames, pcap files |
//! | [`netsim`] | `pos-netsim` | NIC/link/router/bridge models |
//! | [`loadgen`] | `pos-loadgen` | MoonGen-like packet generator |
//! | [`testbed`] | `pos-testbed` | hosts, images, calendar, power control |
//! | [`core`] | `pos-core` | the pos controller and methodology |
//! | [`sched`] | `pos-sched` | parallel campaign scheduler and admission queue |
//! | [`dag`] | `pos-dag` | experiment DAGs: scatter/gather stages on in-process lanes |
//! | [`serve`] | `pos-serve` | crash-surviving multi-tenant campaign daemon |
//! | [`eval`] | `pos-eval` | parsers, statistics, plots |
//! | [`publish`] | `pos-publish` | artifact bundling and website |
//!
//! See `examples/quickstart.rs` for an end-to-end experiment.

#![warn(missing_docs)]

pub use pos_dag as dag;
pub use pos_eval as eval;
pub use pos_loadgen as loadgen;
pub use pos_netsim as netsim;
pub use pos_packet as packet;
pub use pos_publish as publish;
pub use pos_sched as sched;
pub use pos_serve as serve;
pub use pos_simkernel as simkernel;
pub use pos_testbed as testbed;

pub mod core {
    //! [`pos_core`], plus the names its `journal` and `fsck` modules
    //! carried before the DAG and serve-ledger vocabularies moved to the
    //! crates that own them, so code written against those paths (the
    //! workflow benchmark under `perfbench/`) keeps building.

    pub use pos_core::*;

    pub mod fsck {
        //! [`pos_core::fsck`], plus the DAG tree check at its old path.

        pub use pos_core::fsck::*;
        pub use pos_dag::fsck_dag;
    }

    pub mod journal {
        //! [`pos_core::journal`], plus [`LEDGER_FILE`] at its old path and
        //! a [`Journal`] that replays and appends a journal of any kind.

        pub use pos_core::journal::*;
        pub use pos_serve::LEDGER_FILE;

        use pos_core::journal as typed;
        use serde::{Deserialize, Serialize};
        use std::io;
        use std::path::{Path, PathBuf};

        /// A record of any of the three vocabularies; it encodes to the
        /// record's own frame.
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        #[serde(untagged)]
        pub enum AnyRecord {
            /// A campaign or lane journal record.
            Campaign(JournalRecord),
            /// A DAG journal record.
            Dag(pos_dag::DagRecord),
            /// A serve ledger record.
            Ledger(pos_serve::LedgerRecord),
        }

        impl Record for AnyRecord {
            const KIND: &'static str = "pos journal";
        }

        /// A journal of any kind, for tools that time or copy journals
        /// without interpreting them; [`typed::Journal`] is the typed one.
        #[derive(Debug)]
        pub struct Journal(typed::Journal<AnyRecord>);

        impl Journal {
            /// Creates a fresh journal file (truncating any existing one).
            pub fn create(path: impl Into<PathBuf>) -> io::Result<Journal> {
                typed::Journal::create(path).map(Journal)
            }

            /// Appends one record durably.
            pub fn append(&mut self, record: &AnyRecord) -> io::Result<()> {
                self.0.append(record)
            }

            /// Replays a journal file of any kind.
            pub fn replay(path: &Path) -> Result<Replay, JournalError> {
                let typed::Replay {
                    records,
                    torn_tail,
                    torn_bytes,
                } = typed::Journal::<AnyRecord>::replay(path)?;
                Ok(Replay {
                    records,
                    torn_tail,
                    torn_bytes,
                })
            }
        }

        /// Result of replaying a journal of any kind.
        #[derive(Debug)]
        pub struct Replay {
            /// All complete, validated records in append order.
            pub records: Vec<AnyRecord>,
            /// True when the file ends mid-record.
            pub torn_tail: bool,
            /// Bytes in the torn tail, if any.
            pub torn_bytes: usize,
        }

        impl Replay {
            /// The `CampaignStarted` record, if this is a campaign journal.
            pub fn campaign_start(&self) -> Option<&JournalRecord> {
                match self.records.first() {
                    Some(AnyRecord::Campaign(r @ JournalRecord::CampaignStarted { .. })) => Some(r),
                    _ => None,
                }
            }

            /// True when a `CampaignFinished` record is present.
            pub fn finished(&self) -> bool {
                self.records.iter().any(|r| {
                    matches!(
                        r,
                        AnyRecord::Campaign(JournalRecord::CampaignFinished { .. })
                    )
                })
            }
        }
    }
}
