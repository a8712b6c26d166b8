//! The Linux software router — the paper's device under test.
//!
//! § 5 of the paper measures a Linux kernel router forwarding UDP traffic
//! between two ports, on bare metal and inside a KVM virtual machine. We
//! model the router as a single-server queue in front of the egress NIC:
//!
//! * **Ingress**: frames enter a bounded input queue (the driver's RX
//!   descriptor ring). A full ring tail-drops — exactly how an overloaded
//!   Linux router loses packets.
//! * **Service**: each packet costs `base_ns + per_byte_ns · len` of CPU
//!   time with multiplicative jitter. The *virtualized* profile adds a
//!   hypervisor preemption process: the vCPU is periodically descheduled,
//!   stalling all service — the source of the wild throughput variance
//!   above saturation that Fig. 3b shows.
//! * **Forwarding**: the IPv4 TTL is decremented and the checksum rebuilt
//!   (a packet whose TTL expires is dropped), the route table picks the
//!   egress port, and Ethernet addresses are rewritten.
//!
//! Calibration targets, from Fig. 3a/3b of the paper:
//!
//! | profile | saturation 64 B | saturation 1500 B | limit |
//! |---|---|---|---|
//! | bare metal | ≈ 1.75 Mpps | ≈ 0.8 Mpps | CPU for 64 B, 10 G line for 1500 B |
//! | virtualized | ≈ 0.04 Mpps | ≈ 0.04 Mpps | vCPU, packet-size independent |
//!
//! On all-cut-through ports the router takes its arrivals inline and keeps
//! its timers out of the event queue; see [`LinuxRouter`] for how that
//! stays exact.

use crate::engine::{Element, SimCtx};
use crate::fold::Fold;
use pos_packet::arp::ArpPacket;
use pos_packet::builder::Frame;
use pos_packet::ethernet::{EtherType, EthernetHeader};
use pos_packet::icmp::IcmpMessage;
use pos_packet::ipv4::{Ipv4Header, Protocol};
use pos_packet::MacAddr;
use pos_simkernel::{SimDuration, SimRng, SimTime, TraceLevel};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// Timer token for "service of the head-of-line packet completed".
const TOKEN_SERVICE_DONE: u64 = 1;
/// Timer token for "hypervisor preemption ended, resume the vCPU".
const TOKEN_PREEMPTION_END: u64 = 2;
/// Timer token for "schedule the next hypervisor preemption".
const TOKEN_PREEMPTION_BEGIN: u64 = 3;
/// Timer token for "run the agenda entries due now" (agenda mode only).
const TOKEN_WAKE: u64 = 4;

/// Hypervisor preemption model for the virtualized profile: the vCPU runs
/// for an exponentially distributed period, then is descheduled for an
/// exponentially distributed pause.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PreemptionModel {
    /// Mean uninterrupted vCPU run period.
    pub period_mean: SimDuration,
    /// Mean pause while other host work runs.
    pub pause_mean: SimDuration,
}

impl PreemptionModel {
    /// Fraction of CPU time stolen by the hypervisor.
    pub fn stolen_fraction(&self) -> f64 {
        let p = self.pause_mean.as_secs_f64();
        let r = self.period_mean.as_secs_f64();
        p / (p + r)
    }
}

/// Per-packet service cost model of a software forwarding path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceProfile {
    /// Human-readable profile name (appears in captured hardware info).
    pub name: &'static str,
    /// Fixed per-packet cost in nanoseconds.
    pub base_ns: f64,
    /// Additional cost per frame byte in nanoseconds (memory copies).
    pub per_byte_ns: f64,
    /// Multiplicative lognormal jitter: sigma of `ln` service time.
    pub jitter_sigma: f64,
    /// RX descriptor ring capacity in frames.
    pub ring_size: usize,
    /// Hypervisor preemption, present only for VM profiles.
    pub preemption: Option<PreemptionModel>,
}

impl ServiceProfile {
    /// The paper's bare-metal DuT: Debian Buster, kernel 4.19, on two Xeon
    /// Silver 4214 CPUs. Single-flow forwarding saturates around 1.75 Mpps
    /// for 64 B frames; 1500 B frames hit the 10 Gbit/s NIC first.
    pub fn bare_metal() -> ServiceProfile {
        ServiceProfile {
            name: "linux-router/bare-metal",
            base_ns: 556.0,
            per_byte_ns: 0.25,
            jitter_sigma: 0.06,
            ring_size: 512,
            preemption: None,
        }
    }

    /// The paper's virtualized DuT: the same Linux router inside a KVM
    /// guest, NICs emulated through virtio + Linux bridges, vCPU pinned but
    /// still sharing the host with the hypervisor. Saturates around
    /// 0.04 Mpps regardless of packet size, and becomes unstable beyond.
    pub fn virtualized() -> ServiceProfile {
        ServiceProfile {
            name: "linux-router/kvm-guest",
            base_ns: 19_000.0,
            per_byte_ns: 0.65,
            jitter_sigma: 0.35,
            ring_size: 256,
            preemption: Some(PreemptionModel {
                period_mean: SimDuration::from_micros(2_000),
                pause_mean: SimDuration::from_micros(500),
            }),
        }
    }

    /// Mean service time for a frame of `len` bytes (without FCS).
    pub fn mean_service_ns(&self, len: usize) -> f64 {
        self.base_ns + self.per_byte_ns * len as f64
    }

    /// The drop-free forwarding limit in packets per second for frames of
    /// `len` bytes (without FCS), accounting for stolen CPU time.
    pub fn saturation_pps(&self, len: usize) -> f64 {
        let available = match &self.preemption {
            Some(p) => 1.0 - p.stolen_fraction(),
            None => 1.0,
        };
        available / (self.mean_service_ns(len) * 1e-9)
    }

    /// Samples one service time.
    fn sample_service(&self, len: usize, rng: &mut SimRng) -> SimDuration {
        let mean = self.mean_service_ns(len);
        let t = if self.jitter_sigma > 0.0 {
            // Lognormal with unit mean: exp(N(-sigma^2/2, sigma)).
            let mu = -self.jitter_sigma * self.jitter_sigma / 2.0;
            mean * rng.lognormal(mu, self.jitter_sigma)
        } else {
            mean
        };
        // `t` is already in nanoseconds; rounding directly avoids the
        // secs round-trip (an `as u64` cast saturates degenerate inputs
        // to zero, matching `from_secs_f64`'s clamp).
        SimDuration::from_nanos(t.round() as u64)
    }
}

/// One entry in the router's forwarding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// Destination network address.
    pub network: Ipv4Addr,
    /// Prefix length in bits.
    pub prefix_len: u8,
    /// Egress port for matching packets.
    pub port: usize,
    /// Next-hop MAC address (resolved ARP entry).
    pub next_hop_mac: MacAddr,
}

impl RouteEntry {
    /// True if `addr` falls inside this route's prefix.
    pub fn matches(&self, addr: Ipv4Addr) -> bool {
        if self.prefix_len == 0 {
            return true;
        }
        if self.prefix_len > 32 {
            return false;
        }
        let mask = u32::MAX << (32 - u32::from(self.prefix_len));
        (u32::from(addr) & mask) == (u32::from(self.network) & mask)
    }
}

/// Forwarding statistics of a router.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterStats {
    /// Packets forwarded to an egress port.
    pub forwarded: u64,
    /// Packets dropped because the input ring was full.
    pub ring_drops: u64,
    /// Packets dropped because no route matched.
    pub no_route: u64,
    /// Packets dropped due to TTL expiry.
    pub ttl_expired: u64,
    /// Frames that were not well-formed IPv4 (parse failures).
    pub malformed: u64,
    /// Echo requests answered (the router's own IPs are pingable).
    pub echo_replied: u64,
    /// ARP who-has requests answered for the router's own addresses.
    pub arp_replied: u64,
    /// ICMP time-exceeded messages generated for expired TTLs.
    pub time_exceeded_sent: u64,
    /// Total nanoseconds the vCPU spent preempted (virtualized profile).
    pub preempted_ns: u64,
}

/// One pending timer of a router that keeps its own agenda.
#[derive(Debug, Clone, Copy)]
struct AgendaEntry {
    /// Instant the timer fires.
    at: SimTime,
    /// Instant it was set: the event queue's scheduling instant.
    sched: SimTime,
    /// Creation order among this router's timers: the queue's sequence
    /// number, which orders timers set in the same instant.
    ord: u64,
    token: u64,
}

/// The timers of a preempted router on all-cut-through ports, kept out of
/// the event queue. The router never has more than one service completion
/// and one preemption edge (begin or end) pending, so the agenda is two
/// slots.
///
/// Entries run in the event queue's `(at, sched, seq)` order. An arrival
/// ranks as the `(at, sched)` of its `FrameArrival`
/// ([`SimCtx::arrival_sched`]) and runs after every entry whose
/// `(at, sched)` is smaller. On a full tie the arrival goes first, as in
/// the queue of a cut-through run, which holds the arrival from the moment
/// its sender submits it, before any router handler at its `sched` runs.
/// (The eventful path schedules the arrival only when serialization
/// completes, so there a timer set in that very nanosecond and due in the
/// arrival's nanosecond could rank either way: two same-nanosecond
/// coincidences at once.)
#[derive(Debug, Default)]
struct Agenda {
    /// `[pending service completion, pending preemption edge]`.
    slots: [Option<AgendaEntry>; 2],
    next_ord: u64,
    /// Instants of this router's wake-up timers still in the event queue,
    /// earliest first. The front is never later than the earliest entry,
    /// so the event clock cannot pass an entry that has not run.
    wakeups: VecDeque<SimTime>,
    /// The `(at, sched)` queue key up to which entries and arrivals have
    /// run; a later arrival must rank after it.
    committed: (SimTime, SimTime),
}

impl Agenda {
    /// The slot a timer with `token` occupies.
    fn slot(token: u64) -> usize {
        usize::from(token != TOKEN_SERVICE_DONE)
    }

    fn push(&mut self, at: SimTime, sched: SimTime, token: u64) {
        let slot = &mut self.slots[Self::slot(token)];
        debug_assert!(slot.is_none(), "two pending timers of one kind");
        *slot = Some(AgendaEntry {
            at,
            sched,
            ord: self.next_ord,
            token,
        });
        self.next_ord += 1;
    }

    fn earliest(&self) -> Option<AgendaEntry> {
        match self.slots {
            [Some(a), Some(b)] if (b.at, b.sched, b.ord) < (a.at, a.sched, a.ord) => Some(b),
            [Some(a), _] => Some(a),
            [None, b] => b,
        }
    }

    /// Removes and returns the earliest entry if its `(at, sched)` ranks
    /// before `bound`.
    fn pop_before(&mut self, bound: (SimTime, SimTime)) -> Option<AgendaEntry> {
        let entry = self.earliest().filter(|e| (e.at, e.sched) < bound)?;
        self.slots[Self::slot(entry.token)] = None;
        Some(entry)
    }
}

/// The Linux router element.
///
/// With a faulty port the router runs on the event queue: an event per
/// arrival, a service timer per forwarded packet, preemption timers. With
/// every port cut-through it takes its arrivals inline, ahead of the event
/// clock, and keeps no per-packet timer:
///
/// * **Without preemption** the service timeline folds in closed form
///   (the `fold` module): a packet's completion is known at its arrival,
///   and its output leaves future-dated.
/// * **With preemption** the timers go on a private [`Agenda`]. Each
///   arrival first runs, at their own instants, the entries the queue
///   would have popped before it, then is admitted or tail-dropped as on
///   the timer path; one wake-up timer stays armed at or before the
///   earliest entry, so entries no arrival follows still run on time. The
///   handlers are the timer path's, so the service and preemption draws
///   hit the shared RNG in the same order and the output is the same.
pub struct LinuxRouter {
    profile: ServiceProfile,
    routes: Vec<RouteEntry>,
    port_macs: Vec<MacAddr>,
    /// Per-port IP addresses; set them to make the router answer pings
    /// and emit ICMP time-exceeded (a Linux router does both).
    port_ips: Vec<Ipv4Addr>,
    ring: VecDeque<(usize, Frame)>,
    serving: bool,
    preempted: bool,
    /// Set while preempted: a service completion that fired during the
    /// pause is deferred until the vCPU resumes.
    deferred_completion: bool,
    /// The folded service timeline, used without preemption on
    /// all-cut-through ports.
    fold: Fold,
    /// The private timer agenda, used with preemption on all-cut-through
    /// ports; `None` otherwise.
    agenda: Option<Agenda>,
    rng: SimRng,
    /// Observable statistics.
    pub stats: RouterStats,
}

impl LinuxRouter {
    /// Creates a router with the given service profile and per-port MAC
    /// addresses (`port_macs[i]` is the MAC of port `i`).
    pub fn new(profile: ServiceProfile, port_macs: Vec<MacAddr>, rng: SimRng) -> LinuxRouter {
        LinuxRouter {
            profile,
            routes: Vec::new(),
            port_macs,
            port_ips: Vec::new(),
            ring: VecDeque::new(),
            serving: false,
            preempted: false,
            deferred_completion: false,
            fold: Fold::default(),
            agenda: None,
            rng,
            stats: RouterStats::default(),
        }
    }

    /// Adds a forwarding table entry. Longest prefix wins; ties go to the
    /// earlier entry.
    pub fn add_route(&mut self, entry: RouteEntry) {
        self.routes.push(entry);
    }

    /// Assigns the router's own per-port IP addresses (`port_ips[i]` is
    /// port `i`'s address). With addresses configured, the router answers
    /// echo requests to them and reports TTL expiry with ICMP time
    /// exceeded, like the Linux kernel does.
    pub fn set_port_ips(&mut self, ips: Vec<Ipv4Addr>) {
        self.port_ips = ips;
    }

    /// The active service profile.
    pub fn profile(&self) -> &ServiceProfile {
        &self.profile
    }

    fn lookup(&self, dst: Ipv4Addr) -> Option<RouteEntry> {
        self.routes
            .iter()
            .filter(|r| r.matches(dst))
            // `min_by_key` keeps the first of equal keys: the earlier entry.
            .min_by_key(|r| std::cmp::Reverse(r.prefix_len))
            .copied()
    }

    fn begin_service(&mut self, ctx: &mut SimCtx<'_>) {
        if self.serving || self.preempted {
            return;
        }
        let Some((_, frame)) = self.ring.front() else {
            return;
        };
        let len = frame.bytes().len();
        self.serving = true;
        let service = self.profile.sample_service(len, &mut self.rng);
        self.set_timer(service, TOKEN_SERVICE_DONE, ctx);
    }

    /// Arms a timer: on the agenda when the router keeps one, otherwise on
    /// the event queue.
    fn set_timer(&mut self, delay: SimDuration, token: u64, ctx: &mut SimCtx<'_>) {
        match &mut self.agenda {
            Some(agenda) => agenda.push(ctx.now() + delay, ctx.now(), token),
            None => ctx.set_timer(delay, token),
        }
    }

    /// Runs, each at its own instant, every agenda entry that ranks before
    /// `bound`, including entries those runs create.
    fn run_agenda(&mut self, bound: (SimTime, SimTime), ctx: &mut SimCtx<'_>) {
        while let Some(entry) = self.agenda.as_mut().and_then(|a| a.pop_before(bound)) {
            ctx.replay_at(entry.at, |ctx| self.fire(entry.token, ctx));
        }
    }

    /// Keeps a wake-up timer armed at or before the earliest agenda entry.
    fn arm_wakeup(&mut self, ctx: &mut SimCtx<'_>) {
        let Some(agenda) = &mut self.agenda else {
            return;
        };
        let Some(next) = agenda.earliest() else {
            return;
        };
        if agenda.wakeups.front().is_some_and(|&w| w <= next.at) {
            return;
        }
        ctx.set_timer(next.at - ctx.now(), TOKEN_WAKE);
        agenda.wakeups.push_front(next.at);
    }

    fn finish_service(&mut self, ctx: &mut SimCtx<'_>) {
        self.serving = false;
        let Some((in_port, frame)) = self.ring.pop_front() else {
            return;
        };
        self.forward(in_port, frame, ctx);
        self.begin_service(ctx);
    }

    /// Emits an ICMP message from the router itself toward `dst`, routed
    /// through the forwarding table. Silently does nothing when the
    /// destination is unroutable or the source port has no address.
    fn send_icmp(
        &mut self,
        src_port_hint: usize,
        dst: Ipv4Addr,
        msg: IcmpMessage,
        ctx: &mut SimCtx<'_>,
    ) {
        let Some(route) = self.lookup(dst) else {
            return;
        };
        let src_ip = self
            .port_ips
            .get(src_port_hint)
            .or_else(|| self.port_ips.first())
            .copied();
        let Some(src_ip) = src_ip else {
            return;
        };
        let src_mac = self
            .port_macs
            .get(route.port)
            .copied()
            .unwrap_or(MacAddr::ZERO);
        let mut icmp_bytes = Vec::new();
        msg.emit(&mut icmp_bytes);
        let mut out = Vec::new();
        EthernetHeader {
            dst: route.next_hop_mac,
            src: src_mac,
            ethertype: EtherType::Ipv4,
        }
        .emit(&mut out);
        Ipv4Header::for_payload(src_ip, dst, Protocol::Icmp, 64, icmp_bytes.len()).emit(&mut out);
        out.extend_from_slice(&icmp_bytes);
        if out.len() < 60 {
            out.resize(60, 0); // Ethernet minimum frame padding
        }
        self.fold.transmit(route.port, Frame::from_bytes(out), ctx);
    }

    /// Answers a who-has for one of the router's addresses with is-at.
    fn handle_arp(&mut self, in_port: usize, rest: &[u8], ctx: &mut SimCtx<'_>) {
        let Ok(request) = ArpPacket::parse(rest) else {
            self.stats.malformed += 1;
            return;
        };
        if !self.port_ips.contains(&request.target_ip) {
            return; // not ours; a host never proxies ARP
        }
        let our_mac = self
            .port_macs
            .get(in_port)
            .copied()
            .unwrap_or(MacAddr::ZERO);
        let Some(reply) = request.reply_from(our_mac) else {
            return;
        };
        self.stats.arp_replied += 1;
        let mut out = Vec::new();
        EthernetHeader {
            dst: request.sender_mac,
            src: our_mac,
            ethertype: EtherType::Arp,
        }
        .emit(&mut out);
        reply.emit(&mut out);
        out.resize(out.len().max(60), 0);
        self.fold.transmit(in_port, Frame::from_bytes(out), ctx);
    }

    fn forward(&mut self, in_port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        // Parse Ethernet + IPv4; rewrite TTL/checksum and MAC addresses.
        let (ip, ip_offset) = match EthernetHeader::parse(frame.bytes()) {
            Ok((eth, rest)) if eth.ethertype == EtherType::Ipv4 => match Ipv4Header::parse(rest) {
                Ok((ip, _)) => (ip, frame.bytes().len() - rest.len()),
                Err(_) => {
                    self.stats.malformed += 1;
                    return;
                }
            },
            Ok((eth, rest)) if eth.ethertype == EtherType::Arp => {
                self.handle_arp(in_port, rest, ctx);
                return;
            }
            _ => {
                self.stats.malformed += 1;
                return;
            }
        };
        // Traffic addressed to the router itself: answer pings.
        if self.port_ips.contains(&ip.dst) {
            if ip.protocol == Protocol::Icmp {
                let icmp_off = ip_offset + pos_packet::ipv4::HEADER_LEN;
                let icmp_end = ip_offset + usize::from(ip.total_len);
                if let Some(icmp_data) = frame
                    .bytes()
                    .get(icmp_off..icmp_end.min(frame.bytes().len()))
                {
                    if let Ok(msg) = IcmpMessage::parse(icmp_data) {
                        if let Some(reply) = msg.reply_to() {
                            self.stats.echo_replied += 1;
                            self.send_icmp(in_port, ip.src, reply, ctx);
                        }
                    }
                }
            }
            return; // locally terminated, never forwarded
        }
        if ip.forwarded().is_none() {
            self.stats.ttl_expired += 1;
            ctx.trace(TraceLevel::Debug, "TTL expired, packet dropped");
            // RFC 792: quote the IP header plus the first 8 payload bytes.
            let quote_end = (ip_offset + pos_packet::ipv4::HEADER_LEN + 8).min(frame.bytes().len());
            let original = frame.bytes()[ip_offset..quote_end].to_vec();
            if !self.port_ips.is_empty() {
                self.stats.time_exceeded_sent += 1;
                self.send_icmp(in_port, ip.src, IcmpMessage::TimeExceeded { original }, ctx);
            }
            return;
        }
        let Some(route) = self.lookup(ip.dst) else {
            self.stats.no_route += 1;
            ctx.trace(TraceLevel::Debug, format!("no route to {}", ip.dst));
            return;
        };
        let src_mac = self
            .port_macs
            .get(route.port)
            .copied()
            .unwrap_or(MacAddr::ZERO);

        // Rewrite the frame in place (copy-on-write — no copy at all for a
        // uniquely held frame, which is the unicast forwarding case): MAC
        // addresses, TTL decrement, and an RFC 1624 incremental checksum
        // update of the [TTL, protocol] word — no full header recompute.
        // Only the header up to the IPv4 checksum counts as written.
        let mut frame = frame;
        let bytes = frame.head_mut(ip_offset + 12);
        bytes[0..6].copy_from_slice(&route.next_hop_mac.octets());
        bytes[6..12].copy_from_slice(&src_mac.octets());
        let ttl_off = ip_offset + 8;
        let old_word = u16::from_be_bytes([bytes[ttl_off], bytes[ttl_off + 1]]);
        bytes[ttl_off] -= 1;
        let new_word = u16::from_be_bytes([bytes[ttl_off], bytes[ttl_off + 1]]);
        let csum_off = ip_offset + 10;
        let csum = u16::from_be_bytes([bytes[csum_off], bytes[csum_off + 1]]);
        let csum = pos_packet::checksum::update(csum, old_word, new_word);
        bytes[csum_off..csum_off + 2].copy_from_slice(&csum.to_be_bytes());

        self.stats.forwarded += 1;
        self.fold.transmit(route.port, frame, ctx);
    }

    fn schedule_next_preemption(&mut self, ctx: &mut SimCtx<'_>) {
        if let Some(p) = self.profile.preemption {
            let period = self.rng.exponential(p.period_mean.as_secs_f64());
            self.set_timer(
                SimDuration::from_secs_f64(period),
                TOKEN_PREEMPTION_BEGIN,
                ctx,
            );
        }
    }

    /// The timer handlers, shared by the event queue and the agenda.
    fn fire(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        match token {
            TOKEN_SERVICE_DONE => {
                if self.preempted {
                    // The packet "completed" while the vCPU was descheduled;
                    // its delivery waits for the preemption to end.
                    self.deferred_completion = true;
                } else {
                    self.finish_service(ctx);
                }
            }
            TOKEN_PREEMPTION_BEGIN => {
                let p = self
                    .profile
                    .preemption
                    .expect("preemption timer without a preemption model");
                self.preempted = true;
                let pause = self.rng.exponential(p.pause_mean.as_secs_f64());
                let pause = SimDuration::from_secs_f64(pause);
                self.stats.preempted_ns += pause.as_nanos();
                self.set_timer(pause, TOKEN_PREEMPTION_END, ctx);
            }
            TOKEN_PREEMPTION_END => {
                self.preempted = false;
                if self.deferred_completion {
                    self.deferred_completion = false;
                    self.finish_service(ctx);
                } else {
                    self.begin_service(ctx);
                }
                self.schedule_next_preemption(ctx);
            }
            other => {
                ctx.trace(TraceLevel::Warn, format!("unknown timer token {other}"));
            }
        }
    }
}

impl Element for LinuxRouter {
    fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
        // Wiring is final: pick the timeline (see the type's docs). All
        // ports cut-through but no fold means a preemption model.
        if !self.fold.engaged(self.profile.preemption.is_none(), ctx)
            && (0..ctx.port_count()).all(|p| ctx.future_tx_capable(p))
        {
            self.agenda = Some(Agenda::default());
        }
        self.schedule_next_preemption(ctx);
        self.arm_wakeup(ctx);
    }

    fn on_frame(&mut self, port: usize, frame: Frame, ctx: &mut SimCtx<'_>) {
        if self.fold.engaged(self.profile.preemption.is_none(), ctx) {
            // Tail-drop on ring occupancy exactly like the timer path
            // does, then forward at the service completion.
            if !self
                .fold
                .admit("LinuxRouter", self.profile.ring_size, port, ctx)
            {
                self.stats.ring_drops += 1;
                return;
            }
            let service = self
                .profile
                .sample_service(frame.bytes().len(), &mut self.rng);
            self.fold.begin(ctx.now(), service);
            self.forward(port, frame, ctx);
            self.fold.end();
            return;
        }
        if let Some(agenda) = &mut self.agenda {
            let key = (ctx.now(), ctx.arrival_sched(port));
            assert!(
                key >= agenda.committed,
                "folded LinuxRouter `{}`: arrival at {} precedes the router's timeline, \
                 which has already run to {}; a folded element must receive in timestamp order",
                ctx.name(),
                key.0,
                agenda.committed.0
            );
            agenda.committed = key;
            self.run_agenda(key, ctx);
        }
        if self.ring.len() >= self.profile.ring_size {
            self.stats.ring_drops += 1;
        } else {
            self.ring.push_back((port, frame));
            self.begin_service(ctx);
        }
        self.arm_wakeup(ctx);
    }

    /// With every port cut-through the router folds its timeline or ranks
    /// each arrival against its agenda by queue key, so it can take
    /// arrivals ahead of global event order (in timestamp order per
    /// ingress link, which is exact for the single-flow case-study
    /// topologies).
    fn inline_rx(&self, _port: usize, all_ports_cut_through: bool) -> bool {
        all_ports_cut_through
    }

    fn on_timer(&mut self, token: u64, ctx: &mut SimCtx<'_>) {
        if token != TOKEN_WAKE {
            self.fire(token, ctx);
            return;
        }
        let now = ctx.now();
        let agenda = self.agenda.as_mut().expect("wake-up without an agenda");
        debug_assert_eq!(agenda.wakeups.front(), Some(&now));
        agenda.wakeups.pop_front();
        agenda.committed = (now, SimTime::MAX);
        self.run_agenda((now, SimTime::MAX), ctx);
        self.arm_wakeup(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{LinkConfig, NetSim, NodeId, PortConfig};
    use crate::sink::CountingSink;
    use pos_packet::builder::UdpFrameSpec;
    use pos_simkernel::SimTime;

    fn frame_spec() -> UdpFrameSpec {
        UdpFrameSpec {
            src_mac: MacAddr::testbed_host(1),
            dst_mac: MacAddr::testbed_host(10),
            src_ip: Ipv4Addr::new(10, 0, 0, 2),
            dst_ip: Ipv4Addr::new(10, 0, 1, 2),
            src_port: 1000,
            dst_port: 2000,
            ttl: 64,
        }
    }

    /// Sends `n` frames spaced `gap_ns` apart.
    struct PacedSource {
        n: u64,
        sent: u64,
        gap_ns: u64,
        wire_size: usize,
    }

    impl Element for PacedSource {
        fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
        fn on_timer(&mut self, _: u64, ctx: &mut SimCtx<'_>) {
            if self.sent >= self.n {
                return;
            }
            self.sent += 1;
            let frame = frame_spec()
                .build_with_wire_size(self.wire_size, &[])
                .unwrap();
            ctx.transmit(0, frame);
            if self.sent < self.n {
                ctx.set_timer(SimDuration::from_nanos(self.gap_ns), 0);
            }
        }
    }

    fn router(profile: ServiceProfile, seed: u64) -> LinuxRouter {
        let mut r = LinuxRouter::new(
            profile,
            vec![MacAddr::testbed_host(10), MacAddr::testbed_host(11)],
            SimRng::new(seed).derive("router"),
        );
        r.add_route(RouteEntry {
            network: Ipv4Addr::new(10, 0, 1, 0),
            prefix_len: 24,
            port: 1,
            next_hop_mac: MacAddr::testbed_host(2),
        });
        r.add_route(RouteEntry {
            network: Ipv4Addr::new(10, 0, 0, 0),
            prefix_len: 24,
            port: 0,
            next_hop_mac: MacAddr::testbed_host(1),
        });
        r
    }

    /// Builds src -> router -> sink and runs `n` frames through at `gap_ns`.
    fn run_forwarding(
        profile: ServiceProfile,
        n: u64,
        gap_ns: u64,
        wire_size: usize,
    ) -> (NetSim, NodeId, NodeId) {
        let mut sim = NetSim::new(1);
        let src = sim.add_element(
            "loadgen",
            Box::new(PacedSource {
                n,
                sent: 0,
                gap_ns,
                wire_size,
            }),
            &[PortConfig::ten_gbe()],
        );
        let dut = sim.add_element(
            "dut",
            Box::new(router(profile, 1)),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        let sink = sim.add_element(
            "sink",
            Box::new(CountingSink::new()),
            &[PortConfig::ten_gbe()],
        );
        sim.connect((src, 0), (dut, 0), LinkConfig::direct_cable());
        sim.connect((dut, 1), (sink, 0), LinkConfig::direct_cable());
        sim.run_until(SimTime::from_secs(30));
        (sim, dut, sink)
    }

    #[test]
    fn forwards_and_rewrites_headers() {
        /// Captures the first received frame for inspection.
        #[derive(Default)]
        struct CapturingSink {
            frames: Vec<Frame>,
        }
        impl Element for CapturingSink {
            fn on_frame(&mut self, _: usize, frame: Frame, _: &mut SimCtx<'_>) {
                self.frames.push(frame);
            }
        }

        let mut sim = NetSim::new(1);
        let src = sim.add_element(
            "src",
            Box::new(PacedSource {
                n: 1,
                sent: 0,
                gap_ns: 1000,
                wire_size: 64,
            }),
            &[PortConfig::ten_gbe()],
        );
        let dut = sim.add_element(
            "dut",
            Box::new(router(ServiceProfile::bare_metal(), 1)),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        let sink = sim.add_element(
            "cap",
            Box::new(CapturingSink::default()),
            &[PortConfig::ten_gbe()],
        );
        sim.connect((src, 0), (dut, 0), LinkConfig::direct_cable());
        sim.connect((dut, 1), (sink, 0), LinkConfig::direct_cable());
        sim.run_to_idle();

        let cap = sim.element_as::<CapturingSink>(sink).unwrap();
        assert_eq!(cap.frames.len(), 1);
        let parsed = pos_packet::builder::parse_udp_frame(cap.frames[0].bytes()).unwrap();
        assert_eq!(parsed.ip.ttl, 63, "TTL decremented");
        assert_eq!(parsed.eth.src, MacAddr::testbed_host(11), "egress MAC");
        assert_eq!(parsed.eth.dst, MacAddr::testbed_host(2), "next-hop MAC");
        assert_eq!(parsed.udp.dst_port, 2000, "payload untouched");
        assert_eq!(cap.frames[0].wire_size(), 64, "size preserved");
    }

    #[test]
    fn below_saturation_no_loss_bare_metal() {
        // 1 Mpps of 64 B frames is well below the 1.75 Mpps limit.
        let n = 50_000;
        let (sim, dut, sink) = run_forwarding(ServiceProfile::bare_metal(), n, 1_000, 64);
        let stats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert_eq!(stats.forwarded, n);
        assert_eq!(stats.ring_drops, 0);
        assert_eq!(sim.port_counters(sink, 0).rx_frames, n);
    }

    #[test]
    fn above_saturation_drops_bare_metal() {
        // 2.5 Mpps of 64 B frames exceeds the ~1.75 Mpps service limit.
        let n = 100_000;
        let (sim, dut, sink) = run_forwarding(ServiceProfile::bare_metal(), n, 400, 64);
        let stats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert!(stats.ring_drops > 0, "overload must tail-drop");
        let delivered = sim.port_counters(sink, 0).rx_frames;
        let duration_s = (n * 400) as f64 * 1e-9;
        let rate_mpps = delivered as f64 / duration_s / 1e6;
        assert!(
            (1.55..=1.95).contains(&rate_mpps),
            "bare-metal 64 B saturation should be ≈1.75 Mpps, got {rate_mpps:.3}"
        );
    }

    #[test]
    fn large_packets_limited_by_line_rate_not_cpu() {
        // Offer 1500 B frames at the 0.822 Mpps line rate: the loadgen's
        // own NIC is the limiter; the router must keep up with everything
        // that actually arrives.
        let n = 20_000;
        let (sim, dut, sink) = run_forwarding(ServiceProfile::bare_metal(), n, 1_216, 1500);
        let stats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert_eq!(stats.ring_drops, 0, "router CPU must not be the bottleneck");
        assert_eq!(sim.port_counters(sink, 0).rx_frames, n);
    }

    #[test]
    fn virtualized_saturates_around_40kpps() {
        let profile = ServiceProfile::virtualized();
        // Offer 30 kpps — below saturation: loss-free.
        let n = 3_000;
        let (sim, dut, _) = run_forwarding(profile, n, 33_333, 64);
        let stats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert_eq!(stats.forwarded + stats.ring_drops, n);
        let loss = stats.ring_drops as f64 / n as f64;
        assert!(
            loss < 0.01,
            "30 kpps should be nearly loss-free, lost {loss}"
        );

        // Offer 100 kpps — far above: heavy loss.
        let (sim, dut, sink) = run_forwarding(profile, 10_000, 10_000, 64);
        let stats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert!(stats.ring_drops > 0);
        let delivered = sim.port_counters(sink, 0).rx_frames as f64;
        let rate_kpps = delivered / (10_000.0 * 10_000.0 * 1e-9) / 1e3;
        assert!(
            (25.0..=55.0).contains(&rate_kpps),
            "virtualized saturation should be ≈40 kpps, got {rate_kpps:.1}"
        );
    }

    #[test]
    fn virtualized_is_packet_size_independent() {
        let profile = ServiceProfile::virtualized();
        let s64 = profile.saturation_pps(60);
        let s1500 = profile.saturation_pps(1496);
        let ratio = s64 / s1500;
        assert!(
            ratio < 1.1,
            "saturation must be nearly size-independent, ratio {ratio}"
        );
    }

    #[test]
    fn profile_saturation_math() {
        let bm = ServiceProfile::bare_metal();
        let pps = bm.saturation_pps(60); // 64 B wire = 60 B frame
        assert!((1.70e6..1.80e6).contains(&pps), "got {pps}");
        let vm = ServiceProfile::virtualized();
        let pps = vm.saturation_pps(60);
        assert!((35e3..45e3).contains(&pps), "got {pps}");
    }

    #[test]
    fn ttl_expiry_drops() {
        let mut sim = NetSim::new(1);
        struct Ttl1Source;
        impl Element for Ttl1Source {
            fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
                let mut spec = frame_spec();
                spec.ttl = 1;
                ctx.transmit(0, spec.build_with_wire_size(64, &[]).unwrap());
            }
            fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
        }
        let src = sim.add_element("src", Box::new(Ttl1Source), &[PortConfig::ten_gbe()]);
        let dut = sim.add_element(
            "dut",
            Box::new(router(ServiceProfile::bare_metal(), 1)),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        let sink = sim.add_element(
            "sink",
            Box::new(CountingSink::new()),
            &[PortConfig::ten_gbe()],
        );
        sim.connect((src, 0), (dut, 0), LinkConfig::direct_cable());
        sim.connect((dut, 1), (sink, 0), LinkConfig::direct_cable());
        sim.run_to_idle();
        let stats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert_eq!(stats.ttl_expired, 1);
        assert_eq!(stats.forwarded, 0);
        assert_eq!(sim.port_counters(sink, 0).rx_frames, 0);
    }

    /// Two frames on port 0 and one on port 1, all sent at zero: the
    /// inline deliveries reach the router as 0, 0, 1 while the arrival
    /// instants run t, 2t, t.
    fn deliver_reordered(profile: ServiceProfile) {
        /// Queues `n` frames back to back at start.
        struct Burst(usize);
        impl Element for Burst {
            fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
                for _ in 0..self.0 {
                    ctx.transmit(0, frame_spec().build_with_wire_size(64, &[]).unwrap());
                }
            }
            fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
        }
        let mut sim = NetSim::new(1);
        let a = sim.add_element("a", Box::new(Burst(2)), &[PortConfig::ten_gbe()]);
        let b = sim.add_element("b", Box::new(Burst(1)), &[PortConfig::ten_gbe()]);
        let dut = sim.add_element(
            "dut",
            Box::new(router(profile, 1)),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        sim.connect((a, 0), (dut, 0), LinkConfig::direct_cable());
        sim.connect((b, 0), (dut, 1), LinkConfig::direct_cable());
        sim.run_until(SimTime::from_millis(1));
    }

    #[test]
    fn route_ties_go_to_the_earlier_entry() {
        let mut r = router(ServiceProfile::bare_metal(), 1);
        // Same prefix and length as the first entry (port 1), other port.
        r.add_route(RouteEntry {
            network: Ipv4Addr::new(10, 0, 1, 0),
            prefix_len: 24,
            port: 0,
            next_hop_mac: MacAddr::testbed_host(1),
        });
        let route = r.lookup(Ipv4Addr::new(10, 0, 1, 2)).unwrap();
        assert_eq!(route.port, 1, "the earlier of two /24 matches wins");
        // A longer prefix still beats both.
        r.add_route(RouteEntry {
            network: Ipv4Addr::new(10, 0, 1, 2),
            prefix_len: 32,
            port: 0,
            next_hop_mac: MacAddr::testbed_host(3),
        });
        let route = r.lookup(Ipv4Addr::new(10, 0, 1, 2)).unwrap();
        assert_eq!(route.next_hop_mac, MacAddr::testbed_host(3));
    }

    #[test]
    #[should_panic(expected = "folded LinuxRouter `dut`: arrival at")]
    fn folded_router_rejects_reordered_arrivals() {
        deliver_reordered(ServiceProfile::bare_metal());
    }

    #[test]
    #[should_panic(expected = "folded LinuxRouter `dut`: arrival at")]
    fn agenda_router_rejects_reordered_arrivals() {
        // The third arrival ranks before the second, which the agenda has
        // already run to.
        deliver_reordered(ServiceProfile::virtualized());
    }

    #[test]
    fn agenda_router_runs_on_time_across_run_deadlines() {
        /// Sends `n` frames `gap_ns` apart, 16 future-dated ones per timer
        /// where the link allows it (one per timer otherwise).
        struct BurstSource {
            n: u64,
            sent: u64,
            gap_ns: u64,
        }
        impl Element for BurstSource {
            fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
                ctx.set_timer(SimDuration::ZERO, 0);
            }
            fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
            fn on_timer(&mut self, _: u64, ctx: &mut SimCtx<'_>) {
                let burst = if ctx.future_tx_capable(0) { 16 } else { 1 };
                let end = (self.sent + burst).min(self.n);
                while self.sent < end {
                    let at = SimTime::from_nanos(self.sent * self.gap_ns);
                    let frame = frame_spec().build_with_wire_size(64, &[]).unwrap();
                    ctx.transmit_at(0, frame, at);
                    self.sent += 1;
                }
                if self.sent < self.n {
                    let next = SimTime::from_nanos(self.sent * self.gap_ns);
                    ctx.set_timer(next - ctx.now(), 0);
                }
            }
        }
        // The wake-up timer keeps the agenda on the event clock: stopping
        // the run every 37 µs (mid-burst, mid-service, mid-preemption)
        // leaves the same statistics at each stop as the eventful run,
        // even with arrivals delivered past the stop.
        let build = |eventful: bool| {
            let mut sim = NetSim::new(1);
            let src = sim.add_element(
                "loadgen",
                Box::new(BurstSource {
                    n: 2_000,
                    sent: 0,
                    gap_ns: 20_000,
                }),
                &[PortConfig::ten_gbe()],
            );
            let dut = sim.add_element(
                "dut",
                Box::new(router(ServiceProfile::virtualized(), 3)),
                &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
            );
            let sink = sim.add_element(
                "sink",
                Box::new(CountingSink::new()),
                &[PortConfig::ten_gbe()],
            );
            sim.connect((src, 0), (dut, 0), LinkConfig::direct_cable());
            sim.connect((dut, 1), (sink, 0), LinkConfig::direct_cable());
            if eventful {
                sim.force_eventful();
            }
            (sim, dut, sink)
        };
        let (mut fast, dut, sink) = build(false);
        let (mut slow, _, _) = build(true);
        let mut t = SimTime::ZERO;
        while t < SimTime::from_millis(60) {
            t += SimDuration::from_micros(37);
            fast.run_until(t);
            slow.run_until(t);
            let stats = |sim: &NetSim| sim.element_as::<LinuxRouter>(dut).unwrap().stats;
            assert_eq!(stats(&fast), stats(&slow), "router stats at {t}");
            assert_eq!(
                fast.port_counters(sink, 0),
                slow.port_counters(sink, 0),
                "sink counters at {t}"
            );
        }
        let stats = fast.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert!(stats.forwarded > 0 && stats.ring_drops > 0, "{stats:?}");
        assert!(stats.preempted_ns > 0, "{stats:?}");
        assert!(fast.events_processed() < slow.events_processed());
    }

    #[test]
    fn no_route_drops() {
        let mut r = router(ServiceProfile::bare_metal(), 1);
        r.routes.clear();
        assert!(r.lookup(Ipv4Addr::new(192, 168, 1, 1)).is_none());
    }

    #[test]
    fn longest_prefix_wins() {
        let mut r = router(ServiceProfile::bare_metal(), 1);
        r.add_route(RouteEntry {
            network: Ipv4Addr::new(10, 0, 1, 128),
            prefix_len: 25,
            port: 0,
            next_hop_mac: MacAddr::testbed_host(9),
        });
        let hit = r.lookup(Ipv4Addr::new(10, 0, 1, 200)).unwrap();
        assert_eq!(hit.prefix_len, 25, "more specific route must win");
        let hit = r.lookup(Ipv4Addr::new(10, 0, 1, 5)).unwrap();
        assert_eq!(hit.prefix_len, 24);
    }

    #[test]
    fn route_matching_edge_cases() {
        let default = RouteEntry {
            network: Ipv4Addr::new(0, 0, 0, 0),
            prefix_len: 0,
            port: 0,
            next_hop_mac: MacAddr::ZERO,
        };
        assert!(default.matches(Ipv4Addr::new(8, 8, 8, 8)));
        let host = RouteEntry {
            network: Ipv4Addr::new(10, 0, 0, 1),
            prefix_len: 32,
            port: 0,
            next_hop_mac: MacAddr::ZERO,
        };
        assert!(host.matches(Ipv4Addr::new(10, 0, 0, 1)));
        assert!(!host.matches(Ipv4Addr::new(10, 0, 0, 2)));
    }

    #[test]
    fn preemption_steals_time() {
        let p = ServiceProfile::virtualized().preemption.unwrap();
        let stolen = p.stolen_fraction();
        assert!((0.15..0.25).contains(&stolen), "got {stolen}");
    }

    #[test]
    fn non_ipv4_counted_malformed() {
        let mut sim = NetSim::new(1);
        struct ArpSource;
        impl Element for ArpSource {
            fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
                let mut bytes = Vec::new();
                EthernetHeader {
                    dst: MacAddr::BROADCAST,
                    src: MacAddr::testbed_host(1),
                    ethertype: EtherType::Arp,
                }
                .emit(&mut bytes);
                bytes.resize(60, 0);
                ctx.transmit(0, Frame::from_bytes(bytes));
            }
            fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
        }
        let src = sim.add_element("src", Box::new(ArpSource), &[PortConfig::ten_gbe()]);
        let dut = sim.add_element(
            "dut",
            Box::new(router(ServiceProfile::bare_metal(), 1)),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        sim.connect((src, 0), (dut, 0), LinkConfig::direct_cable());
        sim.run_to_idle();
        let stats = sim.element_as::<LinuxRouter>(dut).unwrap().stats;
        assert_eq!(stats.malformed, 1);
    }
}
