//! # pos-netsim
//!
//! Event-driven, packet-level models of the network elements in the pos
//! case study (§5 of the paper): NIC ports with line-rate serialization,
//! full-duplex links with optional fault injection, the Linux software
//! router DuT in its *bare-metal* and *virtualized* incarnations, the Linux
//! bridge interconnect of the vpos virtual testbed, and hardware switch
//! models for the §7 topology-automation discussion.
//!
//! The simulation engine ([`engine::NetSim`]) is deliberately simple:
//! elements exchange [`pos_packet::builder::Frame`]s through ports; the
//! engine owns serialization (line rate), propagation, queueing, loss
//! accounting and timers; elements own protocol logic and service times.
//! Everything is driven by the deterministic `pos-simkernel` event queue,
//! so a run is a pure function of (topology, element parameters, seed).
//!
//! ```
//! use pos_netsim::engine::{LinkConfig, NetSim, PortConfig};
//! use pos_netsim::sink::CountingSink;
//! use pos_simkernel::{SimDuration, SimTime};
//!
//! let mut sim = NetSim::new(42);
//! let a = sim.add_element("src", Box::new(CountingSink::new()), &[PortConfig::ten_gbe()]);
//! let b = sim.add_element("dst", Box::new(CountingSink::new()), &[PortConfig::ten_gbe()]);
//! sim.connect((a, 0), (b, 0), LinkConfig::direct_cable());
//! sim.run_until(SimTime::ZERO + SimDuration::from_secs(1));
//! ```

#![warn(missing_docs)]

pub mod bridge;
pub mod chaos;
pub mod engine;
pub mod fault;
mod fold;
pub mod netem;
pub mod ping;
pub mod port;
pub mod router;
pub mod sink;
pub mod switch;

pub use chaos::{CampaignConfig, ChaosEvent, ChaosPlan, ChaosPlanError};
pub use engine::{Element, Event, LinkConfig, NetSim, NodeId, PortConfig, SimCtx};
pub use fault::{FaultConfig, FaultConfigError};
pub use port::PortCounters;
pub use router::{LinuxRouter, RouteEntry, ServiceProfile};
