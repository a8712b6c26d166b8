//! The MoonGen-like constant-rate generator element.
//!
//! One element plays both MoonGen roles of the case study: port 0 is the
//! transmit device, port 1 the receive device (the DuT forwards the stream
//! back). Departure times are exact: packet *i* leaves at
//! `round(i · 10⁹ / rate)` nanoseconds — MoonGen's hardware rate control
//! has the same "no bursts, no gaps" property, which is why the paper calls
//! its precision superior to other software generators.

use crate::report::{IntervalStat, MoonGenReport};
use pos_netsim::engine::{Element, SimCtx};
use pos_packet::builder::{Frame, UdpFrameSpec};
use pos_packet::pcap::Capture;
use pos_packet::probe::{Probe, PROBE_LEN};
use pos_simkernel::{SimDuration, SimTime, TraceLevel};

/// Timer token: send the next packet (or burst of packets).
const TOKEN_SEND: u64 = 1;

/// Packets submitted per TOKEN_SEND timer when the TX link supports
/// future-dated transmission: departure times are known in advance, so one
/// timer covers a whole burst of exact departures, amortizing event-queue
/// traffic without changing a single timestamp on the wire. On links where
/// frames must be handed over at their departure instant (fault injection),
/// the burst degenerates to one packet per timer.
const BURST: u64 = 64;

/// What sizes the generated frames have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SizeSpec {
    /// Every frame has the same wire size.
    Fixed(usize),
    /// The "simple IMIX" mix: a repeating cycle of seven 64 B, four 576 B,
    /// and one 1518 B frame — the classic synthetic approximation of
    /// Internet traffic that MoonGen scripts ship out of the box.
    Imix,
}

/// The simple-IMIX cycle.
const IMIX_PATTERN: [usize; 12] = [64, 64, 64, 64, 64, 64, 64, 576, 576, 576, 576, 1518];

impl SizeSpec {
    /// Wire size of the `i`-th generated packet.
    pub fn wire_size_of(self, i: u64) -> usize {
        match self {
            SizeSpec::Fixed(s) => s,
            SizeSpec::Imix => IMIX_PATTERN[(i % IMIX_PATTERN.len() as u64) as usize],
        }
    }

    /// The distinct sizes this spec produces.
    pub fn distinct_sizes(self) -> Vec<usize> {
        match self {
            SizeSpec::Fixed(s) => vec![s],
            SizeSpec::Imix => vec![64, 576, 1518],
        }
    }

    /// Mean wire size over the cycle.
    pub fn mean_wire_size(self) -> f64 {
        match self {
            SizeSpec::Fixed(s) => s as f64,
            SizeSpec::Imix => IMIX_PATTERN.iter().sum::<usize>() as f64 / IMIX_PATTERN.len() as f64,
        }
    }
}

/// Generator configuration for one measurement run.
#[derive(Debug, Clone, Copy)]
pub struct GeneratorConfig {
    /// Addressing of the generated UDP flow.
    pub spec: UdpFrameSpec,
    /// Frame sizes on the wire (FCS included): the paper's `pkt_sz`, or
    /// the IMIX mix.
    pub size: SizeSpec,
    /// Offered rate in packets per second: the paper's `pkt_rate`.
    pub rate_pps: f64,
    /// How long to transmit.
    pub duration: SimDuration,
    /// Flow identifier stamped into every probe.
    pub flow_id: u16,
    /// Record a latency sample every Nth received packet (1 = all packets;
    /// larger values bound memory on long runs). Must be ≥ 1.
    pub latency_sample_every: u32,
    /// Record the first N transmitted frames with timestamps, for pcap
    /// export (0 = off). MoonGen's `--dump` equivalent.
    pub record_pcap_frames: usize,
}

impl GeneratorConfig {
    /// Total packets this configuration will attempt to send.
    pub fn total_packets(&self) -> u64 {
        (self.rate_pps * self.duration.as_secs_f64()).round() as u64
    }

    /// Departure time of packet `i` relative to measurement start.
    #[inline]
    pub fn departure(&self, i: u64) -> SimDuration {
        departure(i, self.period_ns())
    }

    /// Nanoseconds between departures.
    #[inline]
    fn period_ns(&self) -> f64 {
        1e9 / self.rate_pps
    }
}

/// [`GeneratorConfig::departure`] of packet `i` at `period_ns` between
/// departures. The send loop divides once per burst: the compiler cannot
/// hoist the division past the loop's calls on its own.
#[inline]
fn departure(i: u64, period_ns: f64) -> SimDuration {
    SimDuration::from_nanos_rounded(i as f64 * period_ns)
}

/// The generator/receiver element.
pub struct MoonGen {
    config: GeneratorConfig,
    /// Prebuilt zero-probe templates, one per distinct size.
    templates: Vec<(usize, Frame)>,
    started_at: Option<SimTime>,
    next_packet: u64,
    /// [`GeneratorConfig::total_packets`], computed once — the send path
    /// checks it per packet.
    total_packets: u64,
    tx_attempted: u64,
    tx_nic_drops: u64,
    rx_frames: u64,
    rx_bytes: u64,
    lost: u64,
    reordered: u64,
    highest_seq: Option<u32>,
    latency_samples_ns: Vec<u64>,
    /// Per-second traffic stats, kept sorted by interval index. TX
    /// accounting is bucketed by (possibly future) departure time while
    /// RX uses arrival time, so lookups touch the last few entries but
    /// are not strictly monotonic.
    intervals: Vec<IntervalStat>,
    /// Fast-path cache for [`MoonGen::interval_mut`]: the `[lo, hi)`
    /// nanosecond bounds (relative to start) and position of the last slot
    /// touched. Refreshed on every slow-path lookup, so it always points at
    /// a live entry.
    iv_cache: Option<(u64, u64, usize)>,
    /// The next `rx_frames` value at which a latency sample is due — the
    /// running equivalent of `rx_frames % latency_sample_every == 0`
    /// without a per-packet division.
    next_latency_sample: u64,
    /// Recorded transmissions for pcap export (first N frames).
    pub tx_capture: Vec<Capture>,
}

impl MoonGen {
    /// Creates a generator. The frame template is built once; only the
    /// probe bytes change per packet (MoonGen does the same for speed).
    ///
    /// # Panics
    /// Panics if the configuration is not satisfiable (zero rate, frame
    /// size out of range, `latency_sample_every == 0`).
    pub fn new(config: GeneratorConfig) -> MoonGen {
        assert!(config.rate_pps > 0.0, "rate must be positive");
        assert!(
            config.latency_sample_every >= 1,
            "sample interval must be ≥ 1"
        );
        let templates: Vec<(usize, Frame)> = config
            .size
            .distinct_sizes()
            .into_iter()
            .map(|s| {
                (
                    s,
                    config
                        .spec
                        .build_with_wire_size(s, &[0u8; PROBE_LEN])
                        .expect("invalid frame size in generator config"),
                )
            })
            .collect();
        MoonGen {
            total_packets: config.total_packets(),
            next_latency_sample: u64::from(config.latency_sample_every),
            config,
            templates,
            started_at: None,
            next_packet: 0,
            tx_attempted: 0,
            tx_nic_drops: 0,
            rx_frames: 0,
            rx_bytes: 0,
            lost: 0,
            reordered: 0,
            highest_seq: None,
            latency_samples_ns: Vec::new(),
            intervals: Vec::new(),
            iv_cache: None,
            tx_capture: Vec::new(),
        }
    }

    /// The configuration this generator runs.
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    fn interval_mut(&mut self, at: SimTime) -> &mut IntervalStat {
        let start = self.started_at.unwrap_or(SimTime::ZERO);
        let rel_ns = at.saturating_duration_since(start).as_nanos();
        // Fast path: the per-packet TX and RX timestamps nearly always land
        // in the slot touched last — two comparisons, no division.
        if let Some((lo, hi, pos)) = self.iv_cache {
            if (lo..hi).contains(&rel_ns) {
                return &mut self.intervals[pos];
            }
        }
        const NS_PER_SEC: u64 = 1_000_000_000;
        let index = rel_ns / NS_PER_SEC;
        // The common case hits the last entry in one comparison; scanning
        // from the back covers the burst-TX-ahead-of-RX interleaving.
        let slot = match self.intervals.iter().rposition(|iv| iv.index <= index) {
            Some(p) if self.intervals[p].index == index => p,
            other => {
                let p = other.map_or(0, |p| p + 1);
                self.intervals.insert(
                    p,
                    IntervalStat {
                        index,
                        tx_frames: 0,
                        rx_frames: 0,
                        tx_bytes: 0,
                        rx_bytes: 0,
                    },
                );
                p
            }
        };
        self.iv_cache = Some((
            index.saturating_mul(NS_PER_SEC),
            index.saturating_add(1).saturating_mul(NS_PER_SEC),
            slot,
        ));
        &mut self.intervals[slot]
    }

    /// Sends the next burst of packets, each at its exact departure time.
    /// Every timestamp a packet carries or contributes to (probe `tx_ns`,
    /// pcap record, per-second interval bucket) uses the departure time,
    /// so bursting is invisible in every report.
    fn send_packets(&mut self, ctx: &mut SimCtx<'_>) {
        let start = self.started_at.expect("send before start");
        let burst = if ctx.future_tx_capable(0) { BURST } else { 1 };
        let end = (self.next_packet + burst).min(self.total_packets);
        let period_ns = self.config.period_ns();
        while self.next_packet < end {
            let i = self.next_packet;
            self.next_packet += 1;
            self.tx_attempted += 1;
            let at = start + departure(i, period_ns);

            // Stamp the probe into a pooled copy of the prebuilt template
            // (whose probe bytes are all zero) and patch the UDP checksum
            // incrementally (RFC 1624) — the per-packet hot path does no
            // full re-checksum. `duplicate` skips the refcount round-trip
            // that `clone` + `head_mut` would pay, and `word_sum` computes
            // the probe's one's-complement contribution from its fields
            // instead of re-reading the bytes just written.
            let wire_size = self.config.size.wire_size_of(i);
            let mut frame = self
                .templates
                .iter()
                .find(|(s, _)| *s == wire_size)
                .expect("template exists for every spec size")
                .1
                .duplicate();
            let probe = Probe {
                flow_id: self.config.flow_id,
                seq: i as u32,
                tx_ns: at.as_nanos(),
            };
            let payload_off = pos_packet::builder::HEADERS_LEN;
            // Only the probe and the UDP checksum before it change, so
            // only they count as written: the next duplicate of the
            // template into this buffer copies them back and nothing else.
            let bytes = frame.head_mut(payload_off + PROBE_LEN);
            probe.write_to(&mut bytes[payload_off..payload_off + PROBE_LEN]);
            const UDP_CSUM_OFF: usize = pos_packet::builder::HEADERS_LEN - 2;
            let csum = u16::from_be_bytes([bytes[UDP_CSUM_OFF], bytes[UDP_CSUM_OFF + 1]]);
            // The template words were zero, so the probe's word sum is the
            // entire delta in one incremental update.
            let csum = pos_packet::checksum::update(csum, 0, probe.word_sum());
            bytes[UDP_CSUM_OFF..UDP_CSUM_OFF + 2].copy_from_slice(&csum.to_be_bytes());

            if self.tx_capture.len() < self.config.record_pcap_frames {
                self.tx_capture.push(Capture {
                    ts_ns: at.as_nanos(),
                    frame: frame.clone(),
                });
            }
            let wire = frame.wire_size() as u64;
            if ctx.transmit_at(0, frame, at) {
                let iv = self.interval_mut(at);
                iv.tx_frames += 1;
                iv.tx_bytes += wire;
            } else {
                self.tx_nic_drops += 1;
            }
        }

        // Schedule the next departure if the run is not over.
        if self.next_packet < self.total_packets {
            let next_at = start + departure(self.next_packet, period_ns);
            let delay = next_at.saturating_duration_since(ctx.now());
            ctx.set_timer(delay, TOKEN_SEND);
        } else {
            ctx.trace(
                TraceLevel::Info,
                format!(
                    "generator finished: {} packets attempted",
                    self.tx_attempted
                ),
            );
        }
    }

    /// Builds the final report, moving the latency samples and interval
    /// counters out of the generator (a second call reports none).
    /// `tx_frames`/`tx_bytes` come from the port counters (what actually
    /// hit the wire), which the caller reads from the engine.
    pub fn report(&mut self, tx_frames: u64, tx_bytes: u64) -> MoonGenReport {
        MoonGenReport {
            offered_pps: self.config.rate_pps,
            wire_size: self.config.size.mean_wire_size().round() as usize,
            duration: self.config.duration,
            tx_attempted: self.tx_attempted,
            tx_frames,
            tx_bytes,
            tx_nic_drops: self.tx_nic_drops,
            rx_frames: self.rx_frames,
            rx_bytes: self.rx_bytes,
            lost: self.lost,
            reordered: self.reordered,
            latency_samples_ns: std::mem::take(&mut self.latency_samples_ns),
            intervals: std::mem::take(&mut self.intervals),
        }
    }
}

impl Element for MoonGen {
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        self.started_at = Some(ctx.now());
        ctx.set_timer(SimDuration::ZERO, TOKEN_SEND);
    }

    fn on_frame(&mut self, port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        if port != 1 {
            // Traffic reflected onto the TX port is unexpected; ignore it.
            return;
        }
        self.rx_frames += 1;
        self.rx_bytes += frame.wire_size() as u64;
        // `rx_frames` advances by one per received frame, so this equality
        // check is `rx_frames % latency_sample_every == 0` without the
        // division. The sample itself is only recorded for intact probes of
        // our own flow (below), matching the modulo formulation: a due
        // frame of another flow skips its sample but leaves the cadence
        // anchored to the frame counter.
        let latency_due = self.rx_frames == self.next_latency_sample;
        if latency_due {
            self.next_latency_sample += u64::from(self.config.latency_sample_every);
        }
        let now = ctx.now();
        let iv = self.interval_mut(now);
        iv.rx_frames += 1;
        iv.rx_bytes += frame.wire_size() as u64;

        // Latency + loss accounting from the probe. Fast path: corrupted
        // frames never reach an element (the port discards them as FCS
        // errors), so intact frames of our own flow need no checksum
        // re-validation — probe the fixed Eth/IPv4/UDP layout directly
        // instead of a full `parse_udp_frame` (which checksums the entire
        // payload on every received packet).
        let b = frame.bytes();
        let is_udp = b.len() >= pos_packet::builder::HEADERS_LEN + PROBE_LEN
            && b[12..14] == [0x08, 0x00] // EtherType IPv4
            && b[14] == 0x45 // version 4, IHL 5
            && b[23] == 17; // protocol UDP
        if is_udp {
            if let Ok(probe) = Probe::parse(&b[pos_packet::builder::HEADERS_LEN..]) {
                if probe.flow_id == self.config.flow_id {
                    match self.highest_seq {
                        Some(prev) if probe.seq <= prev => self.reordered += 1,
                        Some(prev) => {
                            self.lost += u64::from(probe.seq - prev - 1);
                            self.highest_seq = Some(probe.seq);
                        }
                        None => {
                            self.lost += u64::from(probe.seq); // packets before the first arrival
                            self.highest_seq = Some(probe.seq);
                        }
                    }
                    if latency_due {
                        self.latency_samples_ns
                            .push(now.as_nanos().saturating_sub(probe.tx_ns));
                    }
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        if token == TOKEN_SEND && self.next_packet < self.total_packets {
            self.send_packets(ctx);
        }
    }

    /// The RX side is pure accounting keyed on per-frame timestamps and
    /// probe contents; the TX side (port 0) never receives.
    fn inline_rx(&self, port: usize, _all_ports_cut_through: bool) -> bool {
        port == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_netsim::engine::{LinkConfig, NetSim, NodeId, PortConfig};
    use pos_packet::MacAddr;
    use std::net::Ipv4Addr;

    fn config(rate_pps: f64, wire_size: usize, secs: u64) -> GeneratorConfig {
        GeneratorConfig {
            spec: UdpFrameSpec {
                src_mac: MacAddr::testbed_host(1),
                dst_mac: MacAddr::testbed_host(2),
                src_ip: Ipv4Addr::new(10, 0, 0, 2),
                dst_ip: Ipv4Addr::new(10, 0, 1, 2),
                src_port: 1000,
                dst_port: 2000,
                ttl: 64,
            },
            size: SizeSpec::Fixed(wire_size),
            rate_pps,
            duration: SimDuration::from_secs(secs),
            flow_id: 1,
            latency_sample_every: 1,
            record_pcap_frames: 0,
        }
    }

    /// Loopback wiring: TX port 0 cabled straight into RX port 1.
    fn loopback(cfg: GeneratorConfig) -> (NetSim, NodeId) {
        let mut sim = NetSim::new(11);
        let gen = sim.add_element(
            "moongen",
            Box::new(MoonGen::new(cfg)),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        sim.connect((gen, 0), (gen, 1), LinkConfig::direct_cable());
        (sim, gen)
    }

    #[test]
    fn departure_times_are_exact() {
        let cfg = config(300_000.0, 64, 10);
        // Packet i leaves at round(i * 3333.33..) ns.
        assert_eq!(cfg.departure(0), SimDuration::ZERO);
        assert_eq!(cfg.departure(1), SimDuration::from_nanos(3_333));
        assert_eq!(cfg.departure(3), SimDuration::from_nanos(10_000));
        assert_eq!(cfg.total_packets(), 3_000_000);
    }

    #[test]
    fn loopback_delivers_everything() {
        let cfg = config(100_000.0, 64, 1);
        let (mut sim, gen) = loopback(cfg);
        sim.run_until(SimTime::from_secs(2));
        let c = sim.port_counters(gen, 0);
        let mg = sim.element_as_mut::<MoonGen>(gen).unwrap();
        let report = mg.report(c.tx_frames, c.tx_bytes);
        assert_eq!(report.tx_attempted, 100_000);
        assert_eq!(report.tx_frames, 100_000);
        assert_eq!(report.rx_frames, 100_000);
        assert_eq!(report.lost, 0);
        assert_eq!(report.reordered, 0);
        assert_eq!(report.tx_nic_drops, 0);
    }

    #[test]
    fn loopback_latency_is_serialization_plus_propagation() {
        let cfg = config(10_000.0, 64, 1);
        let (mut sim, gen) = loopback(cfg);
        sim.run_until(SimTime::from_secs(2));
        let mg = sim.element_as::<MoonGen>(gen).unwrap();
        // 68 ns serialization + 10 ns cable = 78 ns, identical per packet.
        assert!(!mg.latency_samples_ns.is_empty());
        assert!(mg.latency_samples_ns.iter().all(|&l| l == 78));
    }

    #[test]
    fn offered_above_line_rate_drops_at_nic() {
        // 20 Mpps of 64 B frames exceeds the 14.88 Mpps line rate: the TX
        // queue must overflow and the generator must notice.
        let mut cfg = config(20_000_000.0, 64, 1);
        cfg.duration = SimDuration::from_millis(50);
        let (mut sim, gen) = loopback(cfg);
        sim.run_until(SimTime::from_secs(2));
        let c = sim.port_counters(gen, 0);
        let mg = sim.element_as_mut::<MoonGen>(gen).unwrap();
        let report = mg.report(c.tx_frames, c.tx_bytes);
        assert!(report.tx_nic_drops > 0, "NIC must be the bottleneck");
        let achieved = report.tx_mpps();
        assert!(
            (14.0..15.5).contains(&achieved),
            "achieved TX should be ≈14.88 Mpps line rate, got {achieved}"
        );
    }

    #[test]
    fn intervals_track_per_second_rates() {
        let cfg = config(50_000.0, 64, 3);
        let (mut sim, gen) = loopback(cfg);
        sim.run_until(SimTime::from_secs(4));
        let c = sim.port_counters(gen, 0);
        let mg = sim.element_as_mut::<MoonGen>(gen).unwrap();
        let report = mg.report(c.tx_frames, c.tx_bytes);
        assert_eq!(report.intervals.len(), 3);
        for iv in &report.intervals {
            assert!(
                (49_000..=51_000).contains(&iv.tx_frames),
                "each second carries ≈50k packets, got {}",
                iv.tx_frames
            );
        }
    }

    #[test]
    fn latency_sampling_interval_bounds_memory() {
        let mut cfg = config(100_000.0, 64, 1);
        cfg.latency_sample_every = 100;
        let (mut sim, gen) = loopback(cfg);
        sim.run_until(SimTime::from_secs(2));
        let mg = sim.element_as::<MoonGen>(gen).unwrap();
        assert_eq!(mg.latency_samples_ns.len(), 1_000);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        MoonGen::new(config(0.0, 64, 1));
    }

    #[test]
    #[should_panic(expected = "sample interval")]
    fn zero_sampling_rejected() {
        let mut cfg = config(1000.0, 64, 1);
        cfg.latency_sample_every = 0;
        MoonGen::new(cfg);
    }

    #[test]
    fn imix_pattern_is_the_standard_mix() {
        // 7×64 + 4×576 + 1×1518 per cycle of 12; mean ≈ 355 B.
        let mut counts = std::collections::BTreeMap::new();
        for i in 0..12u64 {
            *counts.entry(SizeSpec::Imix.wire_size_of(i)).or_insert(0u32) += 1;
        }
        assert_eq!(counts[&64], 7);
        assert_eq!(counts[&576], 4);
        assert_eq!(counts[&1518], 1);
        assert_eq!(SizeSpec::Imix.wire_size_of(12), 64, "cycle repeats");
        let mean = SizeSpec::Imix.mean_wire_size();
        assert!((mean - 355.8).abs() < 1.0, "got {mean}");
        assert_eq!(SizeSpec::Fixed(64).mean_wire_size(), 64.0);
    }

    #[test]
    fn imix_loopback_delivers_every_size() {
        let mut cfg = config(30_000.0, 64, 1);
        cfg.size = SizeSpec::Imix;
        let (mut sim, gen) = loopback(cfg);
        sim.run_until(SimTime::from_secs(2));
        let c = sim.port_counters(gen, 0);
        let mg = sim.element_as_mut::<MoonGen>(gen).unwrap();
        let report = mg.report(c.tx_frames, c.tx_bytes);
        assert_eq!(report.tx_frames, 30_000);
        assert_eq!(report.rx_frames, 30_000, "all sizes survive the loopback");
        assert_eq!(report.lost, 0);
        // Byte accounting matches the cycle exactly: 2500 cycles.
        let cycle_bytes: u64 = 7 * 64 + 4 * 576 + 1518;
        assert_eq!(report.tx_bytes, 2_500 * cycle_bytes);
        assert_eq!(
            report.wire_size, 356,
            "nominal size is the rounded mix mean"
        );
    }

    #[test]
    fn probe_seq_accounts_losses() {
        // Simulate loss by dropping frames on the link.
        let cfg = config(100_000.0, 64, 1);
        let mut sim = NetSim::new(11);
        let gen = sim.add_element(
            "moongen",
            Box::new(MoonGen::new(cfg)),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        let mut fault = pos_netsim::FaultConfig::none();
        fault.drop_chance = 0.10;
        sim.connect(
            (gen, 0),
            (gen, 1),
            LinkConfig::direct_cable().with_fault(fault),
        );
        sim.run_until(SimTime::from_secs(2));
        let c = sim.port_counters(gen, 0);
        let mg = sim.element_as_mut::<MoonGen>(gen).unwrap();
        let report = mg.report(c.tx_frames, c.tx_bytes);
        let loss = report.loss_fraction();
        assert!((0.08..0.12).contains(&loss), "loss {loss} should be ≈0.10");
        // Sequence-gap accounting should roughly agree with the delta
        // (the tail of the run can hide the final gap).
        let delta = report.tx_frames - report.rx_frames;
        assert!(
            report.lost as f64 >= delta as f64 * 0.9,
            "seq-gap loss {} vs counter delta {delta}",
            report.lost
        );
    }
}
