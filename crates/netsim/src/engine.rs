//! The event-driven simulation engine.
//!
//! Topology = elements × ports × links. The engine owns everything that is
//! physics (serialization at line rate, propagation delay, queue overflow,
//! fault injection); an [`Element`] implements everything that is logic
//! (forwarding decisions, service times, measurement).
//!
//! # Event flow
//!
//! `Element::transmit` → tx queue → (serialization delay) → fault injector
//! → (propagation delay) → peer port counters → `Element::on_frame`.
//!
//! Elements never see corrupted frames: like a real NIC, the receiving port
//! discards frames with a broken FCS and counts an `rx_error`.

use crate::fault::{FaultInjector, FaultOutcome};
pub use crate::port::PortConfig;
use crate::port::{Port, PortCounters};
use pos_packet::builder::Frame;
use pos_simkernel::{EventQueue, SimDuration, SimRng, SimTime, Trace, TraceLevel};
use std::rc::Rc;

/// Index of an element in the simulation.
pub type NodeId = usize;

/// Events the engine processes.
#[derive(Debug)]
pub enum Event {
    /// A port finished serializing its in-flight frame.
    TxComplete {
        /// The transmitting element.
        node: NodeId,
        /// Its port index.
        port: usize,
    },
    /// A frame arrives at a port after crossing a link.
    FrameArrival {
        /// The receiving element.
        node: NodeId,
        /// Its port index.
        port: usize,
        /// The frame.
        frame: Frame,
        /// Whether fault injection corrupted the frame in flight (the
        /// receiving port discards it as an FCS error).
        corrupted: bool,
    },
    /// An element-requested timer fires.
    Timer {
        /// The element whose timer fired.
        node: NodeId,
        /// The token it was armed with.
        token: u64,
    },
}

/// Configuration of a link between two ports.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Fault injection applied to frames in both directions.
    pub fault: crate::fault::FaultConfig,
}

impl LinkConfig {
    /// A short direct cable between experiment hosts — the pos testbed's
    /// preferred wiring (§4.2: "direct wiring between experiment hosts").
    /// 2 m of fiber ≈ 10 ns propagation.
    pub fn direct_cable() -> LinkConfig {
        LinkConfig {
            propagation: SimDuration::from_nanos(10),
            fault: crate::fault::FaultConfig::none(),
        }
    }

    /// A virtual "link" inside a hypervisor: a shared-memory hop, nominally
    /// instantaneous; we charge 1 ns to preserve event ordering.
    pub fn memory_hop() -> LinkConfig {
        LinkConfig {
            propagation: SimDuration::from_nanos(1),
            fault: crate::fault::FaultConfig::none(),
        }
    }

    /// Replaces the fault configuration.
    pub fn with_fault(mut self, fault: crate::fault::FaultConfig) -> LinkConfig {
        self.fault = fault;
        self
    }
}

struct Link {
    a: (NodeId, usize),
    b: (NodeId, usize),
    propagation: SimDuration,
    injector: FaultInjector,
    /// True when the injector can never touch a frame (no fault mechanism
    /// configured). Such links deliver frames *cut-through*: the arrival is
    /// scheduled at transmit start and no `TxComplete` event is needed,
    /// halving the event count on the clean-path topologies that dominate
    /// benchmarks and campaigns.
    cut_through: bool,
    /// Frames arriving at endpoint `a` skip the event queue entirely and
    /// are delivered inline (see [`Element::inline_rx`]). Computed once at
    /// simulation start; only ever true on cut-through links.
    inline_a: bool,
    /// Same for endpoint `b`.
    inline_b: bool,
}

/// A frame accepted on a cut-through link whose receiver opted into
/// inline delivery: handed to the element from the drain loop with `at`
/// (its true arrival instant) as virtual time, never touching the queue.
struct InlineDelivery {
    node: NodeId,
    port: usize,
    frame: Frame,
    at: SimTime,
}

/// Engine state an element may touch during a callback.
pub struct SimCtx<'a> {
    node: NodeId,
    /// The element's view of the current instant. Equal to the event
    /// clock for event-driven callbacks; for inline frame deliveries it
    /// is the frame's true arrival time, which may lie ahead of the
    /// event clock.
    vnow: SimTime,
    shared: &'a mut Shared,
}

impl SimCtx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.vnow
    }

    /// Inside [`Element::on_frame`] for a frame received on `port`: the
    /// scheduling instant its arrival carries in the queue's
    /// `(time, sched, seq)` order, inline or not — the instant the frame's
    /// serialization completed, one propagation delay before `now()`,
    /// where the eventful path's `TxComplete` schedules it. An element
    /// that keeps its own timers ranks the arrival against them by
    /// `(now(), arrival_sched(port))`.
    pub(crate) fn arrival_sched(&self, port: usize) -> SimTime {
        let link = self.shared.ports[self.node][port]
            .link
            .expect("a frame arrived on a wired port");
        self.vnow - self.shared.links[link].propagation
    }

    /// Runs `f` with the element's view of the current instant moved to
    /// `at`: how an element that keeps its own agenda runs an entry due at
    /// `at` from inside a later inline callback, so everything the entry
    /// does (timers, transmissions, trace lines) happens at `at`.
    ///
    /// # Panics
    /// Panics, naming the element, if the event clock has already passed
    /// `at`: the entry would transmit in the past.
    pub(crate) fn replay_at<R>(&mut self, at: SimTime, f: impl FnOnce(&mut Self) -> R) -> R {
        assert!(
            at >= self.shared.queue.now(),
            "`{}` replays an agenda entry at {at}, but the event clock is already at {}",
            self.name(),
            self.shared.queue.now()
        );
        let vnow = std::mem::replace(&mut self.vnow, at);
        let out = f(self);
        self.vnow = vnow;
        out
    }

    /// Hands a frame to one of the element's own ports for transmission.
    /// Returns `false` if the transmit queue was full and the frame dropped.
    pub fn transmit(&mut self, port: usize, frame: Frame) -> bool {
        self.shared.start_tx_at(self.node, port, frame, self.vnow)
    }

    /// Submits `frame` for transmission on `port` at the future instant
    /// `at`, returning whether it was accepted (queueing delay and
    /// tail-drop are resolved immediately). Only supported on ports whose
    /// link delivers cut-through (see [`Self::future_tx_capable`]); lets
    /// open-loop senders and timeline-folded servers emit a whole batch of
    /// paced frames from one event.
    ///
    /// # Panics
    /// Panics if `at` is in the past or the port's link does not deliver
    /// cut-through (fault injection needs completion-time events).
    pub fn transmit_at(&mut self, port: usize, frame: Frame, at: SimTime) -> bool {
        self.shared.start_tx_at(self.node, port, frame, at)
    }

    /// True when `port` is wired to a link that delivers cut-through (no
    /// fault injection), i.e. [`Self::transmit_at`] may be used on it.
    pub fn future_tx_capable(&self, port: usize) -> bool {
        let p = &self.shared.ports[self.node][port];
        matches!(p.link, Some(idx) if self.shared.links[idx].cut_through)
    }

    /// Schedules [`Element::on_timer`] with `token` after `delay`
    /// (relative to the element's view of the current instant). The timer
    /// counts as scheduled at that view, so a timer set from an inline
    /// delivery ties with other events exactly as if it had been set by an
    /// event at the delivery instant.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.vnow + delay;
        self.shared.queue.schedule_keyed(
            at,
            self.vnow,
            Event::Timer {
                node: self.node,
                token,
            },
        );
    }

    /// The name this element was added under (for diagnostics).
    pub fn name(&self) -> &str {
        &self.shared.names[self.node]
    }

    /// Appends a line to the simulation trace. Below the active minimum
    /// level this returns before touching the element name or formatting
    /// anything — per-packet trace calls on a quiet sink cost one compare.
    pub fn trace(&mut self, level: TraceLevel, message: impl Into<String>) {
        if level < self.shared.trace.min_level() {
            return;
        }
        let now = self.now();
        let name = Rc::clone(&self.shared.names[self.node]);
        self.shared.trace.log(now, level, &*name, message);
    }

    /// Counters of one of the element's own ports.
    pub fn port_counters(&self, port: usize) -> PortCounters {
        self.shared.ports[self.node][port].counters
    }

    /// Number of ports this element has.
    pub fn port_count(&self) -> usize {
        self.shared.ports[self.node].len()
    }
}

/// Object-safe downcasting support, blanket-implemented for every type.
///
/// Lets callers retrieve concrete element state (counters, latency samples)
/// from the simulation after a run via [`NetSim::element_as`].
pub trait AsAny {
    /// `self` as [`std::any::Any`].
    fn as_any(&self) -> &dyn std::any::Any;
    /// `self` as mutable [`std::any::Any`].
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

impl<T: std::any::Any> AsAny for T {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A network element: anything that terminates or forwards frames.
pub trait Element: AsAny {
    /// Called once when the simulation starts; schedule initial timers here.
    fn on_start(&mut self, _ctx: &mut SimCtx<'_>) {}

    /// A frame arrived intact on `port`.
    fn on_frame(&mut self, port: usize, frame: Frame, ctx: &mut SimCtx<'_>);

    /// A timer set via [`SimCtx::set_timer`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut SimCtx<'_>) {}

    /// Whether frames arriving on `port` may be delivered *inline*: as
    /// soon as the sender commits the transmission, with the frame's true
    /// arrival instant as `ctx.now()`, instead of through a per-frame
    /// event at that instant. Inline delivery eliminates the event queue
    /// from the per-packet path — the dominant cost on clean topologies —
    /// but runs ahead of global event order, so it is only correct for
    /// handlers whose effects depend on nothing but their own state and
    /// the delivered frame + timestamp: pure measurement sinks, servers
    /// whose outputs are future-dated transmissions
    /// ([`SimCtx::transmit_at`]), or servers that keep their own timers and
    /// rank each arrival against them by its queue key (the router's timer
    /// agenda). Arrival order is preserved per link but
    /// not across links. `all_ports_cut_through` reports whether every
    /// port of this element is wired fault-free — the precondition for
    /// timeline-folded servers. Queried once at simulation start; only
    /// honored on cut-through links. Default: never.
    fn inline_rx(&self, _port: usize, _all_ports_cut_through: bool) -> bool {
        false
    }
}

struct Shared {
    queue: EventQueue<Event>,
    ports: Vec<Vec<Port>>,
    /// Interned element names: trace lines bump a refcount, never copy.
    names: Vec<Rc<str>>,
    links: Vec<Link>,
    /// Frames awaiting inline delivery, in submission order. Drained by
    /// the run loop after every callback returns (never re-entrantly).
    pending_inline: std::collections::VecDeque<InlineDelivery>,
    /// Latest instant handed to any callback as virtual time — keeps
    /// [`NetSim::now`] meaningful when inline deliveries outrun the
    /// event clock.
    horizon: SimTime,
    rng: SimRng,
    trace: Trace,
}

impl Shared {
    /// Submits `frame` for transmission on `(node, port)` at instant `at`
    /// (which must be at or after the current instant).
    ///
    /// On a wired link with no fault injection the whole transmission is
    /// *cut-through*: the start instant, queueing delay, tail-drop decision
    /// and arrival are all computed here, no `TxComplete` event ever
    /// exists, and the port's "queue" is just the list of accepted start
    /// instants. Faulty or unconnected ports keep the eventful path — the
    /// fault injector's RNG draws (and the unconnected-port warning) must
    /// happen at completion time to preserve fault-injection outcomes —
    /// and reject future submissions.
    fn start_tx_at(&mut self, node: NodeId, port: usize, frame: Frame, at: SimTime) -> bool {
        debug_assert!(at >= self.queue.now(), "transmission submitted in the past");
        let cut_link = match self.ports[node][port].link {
            Some(idx) if self.links[idx].cut_through => Some(idx),
            _ => None,
        };
        if let Some(link_idx) = cut_link {
            let wire = frame.wire_size();
            let link = &self.links[link_idx];
            let (peer, inline) = if link.a == (node, port) {
                (link.b, link.inline_b)
            } else {
                (link.a, link.inline_a)
            };
            let propagation = link.propagation;
            let p = &mut self.ports[node][port];
            debug_assert!(p.in_flight.is_none() && p.tx_queue.is_empty());
            // Frames whose serialization began by `at` no longer occupy
            // the queue.
            while p.pending_starts.front().is_some_and(|&s| s <= at) {
                p.pending_starts.pop_front();
            }
            let start = if p.busy_until > at {
                if p.pending_starts.len() >= p.config.tx_queue_frames {
                    p.counters.tx_queue_drops += 1;
                    return false;
                }
                p.pending_starts.push_back(p.busy_until);
                p.busy_until
            } else {
                at
            };
            let done = start + p.config.serialization_time(wire);
            p.busy_until = done;
            p.counters.tx_frames += 1;
            p.counters.tx_bytes += wire as u64;
            if inline {
                self.pending_inline.push_back(InlineDelivery {
                    node: peer.0,
                    port: peer.1,
                    frame,
                    at: done + propagation,
                });
            } else {
                // Keyed with the serialization-complete instant, where the
                // eventful path's `TxComplete` schedules the arrival: a
                // future-dated transmission then ties at the receiver
                // exactly as the eventful one does.
                self.queue.schedule_keyed(
                    done + propagation,
                    done,
                    Event::FrameArrival {
                        node: peer.0,
                        port: peer.1,
                        frame,
                        corrupted: false,
                    },
                );
            }
            return true;
        }
        assert!(
            at == self.queue.now(),
            "future transmission submitted on a port without cut-through delivery"
        );
        let p = &mut self.ports[node][port];
        if p.is_busy() {
            if p.tx_queue.len() >= p.config.tx_queue_frames {
                p.counters.tx_queue_drops += 1;
                return false;
            }
            p.tx_queue.push_back(frame);
            return true;
        }
        self.begin_serialization(node, port, frame);
        true
    }

    /// Starts serializing `frame` on an idle port along the eventful path
    /// (faulty link or unconnected port).
    fn begin_serialization(&mut self, node: NodeId, port: usize, frame: Frame) {
        let now = self.queue.now();
        let p = &mut self.ports[node][port];
        let ser = p.config.serialization_time(frame.wire_size());
        p.in_flight = Some(frame);
        p.busy_until = now + ser;
        self.queue
            .schedule(now + ser, Event::TxComplete { node, port });
    }

    /// Serialization finished: deliver across the link, start the next frame.
    fn complete_tx(&mut self, node: NodeId, port: usize) {
        let now = self.queue.now();
        let (frame, wired) = {
            let p = &mut self.ports[node][port];
            let frame = p
                .in_flight
                .take()
                .expect("TxComplete for a port with no in-flight frame");
            p.counters.tx_frames += 1;
            p.counters.tx_bytes += frame.wire_size() as u64;
            (frame, p.link)
        };

        // Hand the frame to the link, if the port is wired to one.
        if let Some(link_idx) = wired {
            let link = &mut self.links[link_idx];
            let peer = if link.a == (node, port) {
                link.b
            } else {
                link.a
            };
            let outcome = link.injector.apply(now, frame.wire_size(), &mut self.rng);
            match outcome {
                FaultOutcome::Dropped => {
                    self.trace.log(
                        now,
                        TraceLevel::Debug,
                        &*self.names[node],
                        "fault injector dropped a frame",
                    );
                }
                deliver => {
                    let corrupted = deliver == FaultOutcome::Corrupted;
                    self.queue.schedule(
                        now + link.propagation,
                        Event::FrameArrival {
                            node: peer.0,
                            port: peer.1,
                            frame,
                            corrupted,
                        },
                    );
                }
            }
        } else {
            self.trace.log(
                now,
                TraceLevel::Warn,
                &*self.names[node],
                format!("frame transmitted on unconnected port {port}"),
            );
        }

        // Start serializing the next queued frame, if any.
        if let Some(next) = self.ports[node][port].tx_queue.pop_front() {
            self.begin_serialization(node, port, next);
        }
    }
}

/// The network simulation: elements, ports, links, and the event loop.
pub struct NetSim {
    elements: Vec<Option<Box<dyn Element>>>,
    shared: Shared,
    started: bool,
    /// Set by [`Self::force_eventful`]: every link takes the eventful path.
    eventful: bool,
    /// Reusable buffer for batch-draining one instant of the event queue.
    batch_buf: Vec<Event>,
    /// Scratch for inline deliveries due after the current run deadline;
    /// swapped back into `pending_inline` after each drain.
    deferred_inline: std::collections::VecDeque<InlineDelivery>,
}

impl NetSim {
    /// Creates an empty simulation with a deterministic seed.
    pub fn new(seed: u64) -> NetSim {
        NetSim {
            elements: Vec::new(),
            shared: Shared {
                queue: EventQueue::new(),
                ports: Vec::new(),
                names: Vec::new(),
                links: Vec::new(),
                pending_inline: std::collections::VecDeque::new(),
                horizon: SimTime::ZERO,
                rng: SimRng::new(seed).derive("netsim"),
                trace: Trace::default(),
            },
            started: false,
            eventful: false,
            batch_buf: Vec::new(),
            deferred_inline: std::collections::VecDeque::new(),
        }
    }

    /// Adds an element with one port per entry of `ports`.
    pub fn add_element(
        &mut self,
        name: impl Into<String>,
        element: Box<dyn Element>,
        ports: &[PortConfig],
    ) -> NodeId {
        assert!(
            !self.started,
            "cannot add elements after the simulation started"
        );
        let id = self.elements.len();
        self.elements.push(Some(element));
        self.shared.names.push(Rc::from(name.into()));
        self.shared
            .ports
            .push(ports.iter().map(|c| Port::new(*c)).collect());
        id
    }

    /// Wires two ports together with a full-duplex link.
    ///
    /// # Panics
    /// Panics if either port does not exist or is already wired — the pos
    /// testbed's direct cabling plugs each port into exactly one cable.
    pub fn connect(&mut self, a: (NodeId, usize), b: (NodeId, usize), config: LinkConfig) {
        for &(node, port) in &[a, b] {
            assert!(
                node < self.shared.ports.len() && port < self.shared.ports[node].len(),
                "connect: port {port} of node {node} does not exist"
            );
            assert!(
                self.shared.ports[node][port].link.is_none(),
                "connect: port {port} of node {node} ({}) already wired",
                self.shared.names[node]
            );
        }
        let idx = self.shared.links.len();
        let cut_through = config.fault.is_none() && !self.eventful;
        self.shared.links.push(Link {
            a,
            b,
            propagation: config.propagation,
            injector: FaultInjector::new(config.fault),
            cut_through,
            inline_a: false,
            inline_b: false,
        });
        self.shared.ports[a.0][a.1].link = Some(idx);
        self.shared.ports[b.0][b.1].link = Some(idx);
    }

    /// Puts every link, wired or still to be wired, on the eventful path
    /// (`TxComplete` and `FrameArrival` events), as if each carried a fault
    /// injector that never fires. This one switch turns off every fast
    /// path built on cut-through links: inline RX, timeline-folded
    /// elements and burst sending. A correct fast path produces the same
    /// simulation output either way, which makes the eventful run its
    /// reference.
    ///
    /// # Panics
    /// Panics once the simulation has started.
    pub fn force_eventful(&mut self) {
        assert!(
            !self.started,
            "force_eventful must be called before the simulation starts"
        );
        self.eventful = true;
        for link in &mut self.shared.links {
            link.cut_through = false;
        }
    }

    /// Number of elements in the simulation.
    pub fn node_count(&self) -> usize {
        self.elements.len()
    }

    /// Number of ports of `node`.
    pub fn port_count(&self, node: NodeId) -> usize {
        self.shared.ports[node].len()
    }

    /// Current virtual time: the latest instant any callback has observed.
    /// With inline deliveries this can run ahead of the event clock.
    pub fn now(&self) -> SimTime {
        self.shared.queue.now().max(self.shared.horizon)
    }

    /// Counters of a port.
    pub fn port_counters(&self, node: NodeId, port: usize) -> PortCounters {
        self.shared.ports[node][port].counters
    }

    /// Fault injector statistics of the link wired to `(node, port)`:
    /// `(dropped, corrupted)`.
    pub fn link_fault_stats(&self, node: NodeId, port: usize) -> Option<(u64, u64)> {
        let idx = self.shared.ports.get(node)?.get(port)?.link?;
        let link = &self.shared.links[idx];
        Some((link.injector.dropped, link.injector.corrupted))
    }

    /// Read access to an element (for extracting measurements afterwards).
    ///
    /// # Panics
    /// Panics if called re-entrantly for a node currently in a callback.
    pub fn element(&self, node: NodeId) -> &dyn Element {
        self.elements[node]
            .as_deref()
            .expect("element borrowed re-entrantly")
    }

    /// Mutable access to an element.
    pub fn element_mut(&mut self, node: NodeId) -> &mut (dyn Element + 'static) {
        self.elements[node]
            .as_deref_mut()
            .expect("element borrowed re-entrantly")
    }

    /// Downcasts an element to its concrete type, e.g. to read a sink's
    /// counters or a router's service statistics after a run.
    pub fn element_as<T: Element + 'static>(&self, node: NodeId) -> Option<&T> {
        self.element(node).as_any().downcast_ref::<T>()
    }

    /// Mutable variant of [`Self::element_as`].
    pub fn element_as_mut<T: Element + 'static>(&mut self, node: NodeId) -> Option<&mut T> {
        self.element_mut(node).as_any_mut().downcast_mut::<T>()
    }

    /// The simulation trace.
    pub fn trace(&self) -> &Trace {
        &self.shared.trace
    }

    /// Total number of processed events.
    pub fn events_processed(&self) -> u64 {
        self.shared.queue.events_processed()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Wiring is complete: resolve which link endpoints deliver inline.
        // Only cut-through links qualify, and only when the receiving
        // element opts in for that port.
        let full_ct: Vec<bool> = (0..self.elements.len())
            .map(|n| {
                self.shared.ports[n]
                    .iter()
                    .all(|p| matches!(p.link, Some(i) if self.shared.links[i].cut_through))
            })
            .collect();
        for idx in 0..self.shared.links.len() {
            let (a, b, cut) = {
                let l = &self.shared.links[idx];
                (l.a, l.b, l.cut_through)
            };
            if !cut {
                continue;
            }
            let inline_of = |els: &[Option<Box<dyn Element>>], (node, port): (NodeId, usize)| {
                els[node]
                    .as_deref()
                    .expect("element present at start")
                    .inline_rx(port, full_ct[node])
            };
            self.shared.links[idx].inline_a = inline_of(&self.elements, a);
            self.shared.links[idx].inline_b = inline_of(&self.elements, b);
        }
        for node in 0..self.elements.len() {
            let now = self.shared.queue.now();
            self.with_element(node, now, |el, ctx| el.on_start(ctx));
        }
    }

    /// Runs `f` with the element temporarily taken out of the table, so the
    /// callback can borrow engine state mutably without aliasing. `vnow` is
    /// the virtual instant the callback observes as `ctx.now()`.
    fn with_element(
        &mut self,
        node: NodeId,
        vnow: SimTime,
        f: impl FnOnce(&mut dyn Element, &mut SimCtx<'_>),
    ) {
        let mut el = self.elements[node]
            .take()
            .expect("element borrowed re-entrantly");
        if vnow > self.shared.horizon {
            self.shared.horizon = vnow;
        }
        let mut ctx = SimCtx {
            node,
            vnow,
            shared: &mut self.shared,
        };
        f(el.as_mut(), &mut ctx);
        self.elements[node] = Some(el);
    }

    /// Delivers pending inline frames due by `deadline`; later ones stay
    /// pending for the next run. Deliveries may submit new transmissions,
    /// which append further entries — the loop runs until quiescent.
    fn drain_inline(&mut self, deadline: SimTime) {
        if self.shared.pending_inline.is_empty() {
            return;
        }
        while let Some(d) = self.shared.pending_inline.pop_front() {
            if d.at > deadline {
                self.deferred_inline.push_back(d);
                continue;
            }
            let InlineDelivery {
                node,
                port,
                frame,
                at,
            } = d;
            let p = &mut self.shared.ports[node][port];
            p.counters.rx_frames += 1;
            p.counters.rx_bytes += frame.wire_size() as u64;
            self.with_element(node, at, |el, ctx| el.on_frame(port, frame, ctx));
        }
        std::mem::swap(&mut self.shared.pending_inline, &mut self.deferred_inline);
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::TxComplete { node, port } => self.shared.complete_tx(node, port),
            Event::FrameArrival {
                node,
                port,
                frame,
                corrupted,
            } => {
                let p = &mut self.shared.ports[node][port];
                if corrupted {
                    p.counters.rx_errors += 1;
                    return;
                }
                p.counters.rx_frames += 1;
                p.counters.rx_bytes += frame.wire_size() as u64;
                let now = self.shared.queue.now();
                self.with_element(node, now, |el, ctx| el.on_frame(port, frame, ctx));
            }
            Event::Timer { node, token } => {
                let now = self.shared.queue.now();
                self.with_element(node, now, |el, ctx| el.on_timer(token, ctx));
            }
        }
    }

    /// Processes events up to and including `deadline`; the clock does not
    /// advance past it. Returns the number of events processed.
    ///
    /// Events are drained one whole instant at a time into a reusable
    /// buffer and dispatched from it — identical order to per-event
    /// popping (same-instant events scheduled during the batch carry
    /// higher seqs and form the next batch), without a queue operation
    /// per event.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        self.start_if_needed();
        let before = self.shared.queue.events_processed();
        self.drain_inline(deadline);
        let mut batch = std::mem::take(&mut self.batch_buf);
        while self
            .shared
            .queue
            .pop_instant_until(deadline, &mut batch)
            .is_some()
        {
            for event in batch.drain(..) {
                self.dispatch(event);
                self.drain_inline(deadline);
            }
        }
        self.batch_buf = batch;
        self.shared.queue.events_processed() - before
    }

    /// Runs until no events remain. Returns the number of events processed.
    /// Generators that re-arm forever will make this loop forever; prefer
    /// [`Self::run_until`] for open-loop traffic.
    pub fn run_to_idle(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::CountingSink;
    use pos_packet::builder::{Frame, UdpFrameSpec};
    use pos_packet::MacAddr;
    use std::net::Ipv4Addr;

    fn test_frame(wire_size: usize) -> Frame {
        UdpFrameSpec {
            src_mac: MacAddr::testbed_host(1),
            dst_mac: MacAddr::testbed_host(2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 1, 1),
            src_port: 42,
            dst_port: 43,
            ttl: 64,
        }
        .build_with_wire_size(wire_size, &[])
        .unwrap()
    }

    /// Element that sends `n` frames back-to-back at start.
    struct Blaster {
        n: usize,
        wire_size: usize,
    }

    impl Element for Blaster {
        fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
            for _ in 0..self.n {
                ctx.transmit(0, test_frame(self.wire_size));
            }
        }
        fn on_frame(&mut self, _port: usize, _frame: Frame, _ctx: &mut SimCtx<'_>) {}
    }

    fn two_node_sim(n: usize, wire_size: usize, queue: usize) -> (NetSim, NodeId, NodeId) {
        let mut sim = NetSim::new(7);
        let mut cfg = PortConfig::ten_gbe();
        cfg.tx_queue_frames = queue;
        let src = sim.add_element("src", Box::new(Blaster { n, wire_size }), &[cfg]);
        let dst = sim.add_element(
            "dst",
            Box::new(CountingSink::new()),
            &[PortConfig::ten_gbe()],
        );
        sim.connect((src, 0), (dst, 0), LinkConfig::direct_cable());
        (sim, src, dst)
    }

    #[test]
    fn frames_cross_the_link() {
        let (mut sim, src, dst) = two_node_sim(10, 64, 100);
        sim.run_to_idle();
        assert_eq!(sim.port_counters(src, 0).tx_frames, 10);
        assert_eq!(sim.port_counters(dst, 0).rx_frames, 10);
        assert_eq!(sim.port_counters(dst, 0).rx_bytes, 640);
    }

    #[test]
    fn serialization_paces_back_to_back_frames() {
        // 10 frames of 64 B at 10 Gbit/s: the last bit leaves at
        // 10 * 68 ns (rounded serialization); arrival 10 ns later.
        let (mut sim, _, _) = two_node_sim(10, 64, 100);
        sim.run_to_idle();
        assert_eq!(sim.now().as_nanos(), 10 * 68 + 10);
    }

    #[test]
    fn queue_overflow_drops_and_counts() {
        // Queue of 4 + 1 in flight = 5 accepted, 5 dropped.
        let (mut sim, src, dst) = two_node_sim(10, 64, 4);
        sim.run_to_idle();
        let c = sim.port_counters(src, 0);
        assert_eq!(c.tx_queue_drops, 5);
        assert_eq!(c.tx_frames, 5);
        assert_eq!(sim.port_counters(dst, 0).rx_frames, 5);
    }

    #[test]
    fn fault_injected_corruption_counts_rx_errors() {
        let mut sim = NetSim::new(7);
        let src = sim.add_element(
            "src",
            Box::new(Blaster {
                n: 1000,
                wire_size: 64,
            }),
            &[PortConfig {
                tx_queue_frames: 1000,
                ..PortConfig::ten_gbe()
            }],
        );
        let dst = sim.add_element(
            "dst",
            Box::new(CountingSink::new()),
            &[PortConfig::ten_gbe()],
        );
        let mut fault = crate::fault::FaultConfig::none();
        fault.corrupt_chance = 0.5;
        sim.connect(
            (src, 0),
            (dst, 0),
            LinkConfig::direct_cable().with_fault(fault),
        );
        sim.run_to_idle();
        let c = sim.port_counters(dst, 0);
        assert_eq!(c.rx_frames + c.rx_errors, 1000);
        assert!(
            c.rx_errors > 300,
            "expected ~500 errors, got {}",
            c.rx_errors
        );
        let (dropped, corrupted) = sim.link_fault_stats(src, 0).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(corrupted, c.rx_errors);
    }

    #[test]
    fn unconnected_port_traces_warning() {
        let mut sim = NetSim::new(7);
        let _ = sim.add_element(
            "lonely",
            Box::new(Blaster {
                n: 1,
                wire_size: 64,
            }),
            &[PortConfig::ten_gbe()],
        );
        sim.run_to_idle();
        assert!(sim
            .trace()
            .iter()
            .any(|e| e.message.contains("unconnected port")));
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerElement {
            fired: Vec<u64>,
        }
        impl Element for TimerElement {
            fn on_start(&mut self, ctx: &mut SimCtx<'_>) {
                ctx.set_timer(SimDuration::from_millis(2), 2);
                ctx.set_timer(SimDuration::from_millis(1), 1);
                ctx.set_timer(SimDuration::from_millis(3), 3);
            }
            fn on_frame(&mut self, _: usize, _: Frame, _: &mut SimCtx<'_>) {}
            fn on_timer(&mut self, token: u64, _: &mut SimCtx<'_>) {
                self.fired.push(token);
            }
        }
        let mut sim = NetSim::new(1);
        let n = sim.add_element("t", Box::new(TimerElement { fired: vec![] }), &[]);
        sim.run_to_idle();
        assert_eq!(sim.events_processed(), 3);
        let t = sim.element_as::<TimerElement>(n).unwrap();
        assert_eq!(t.fired, vec![1, 2, 3]);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, _, dst) = two_node_sim(100, 1500, 200);
        // 1500 B at 10G = 1216 ns each; in 5000 ns about 4 frames arrive.
        sim.run_until(SimTime::from_nanos(5_000));
        let got = sim.port_counters(dst, 0).rx_frames;
        assert!((3..=5).contains(&got), "got {got}");
        sim.run_to_idle();
        assert_eq!(sim.port_counters(dst, 0).rx_frames, 100);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_panics() {
        let mut sim = NetSim::new(1);
        let a = sim.add_element("a", Box::new(CountingSink::new()), &[PortConfig::ten_gbe()]);
        let b = sim.add_element(
            "b",
            Box::new(CountingSink::new()),
            &[PortConfig::ten_gbe(), PortConfig::ten_gbe()],
        );
        sim.connect((a, 0), (b, 0), LinkConfig::direct_cable());
        sim.connect((a, 0), (b, 1), LinkConfig::direct_cable());
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn wiring_missing_port_panics() {
        let mut sim = NetSim::new(1);
        let a = sim.add_element("a", Box::new(CountingSink::new()), &[PortConfig::ten_gbe()]);
        sim.connect((a, 0), (a, 5), LinkConfig::direct_cable());
    }

    #[test]
    fn frame_conservation_under_random_faults() {
        // Invariant: every transmitted frame is accounted for exactly once:
        // received intact, discarded as an FCS error, or dropped by the
        // link's injector. Checked across a grid of fault configurations.
        for seed in 0..20u64 {
            let mut sim = NetSim::new(seed);
            let n = 2_000;
            let src = sim.add_element(
                "src",
                Box::new(Blaster { n, wire_size: 64 }),
                &[PortConfig {
                    tx_queue_frames: n,
                    ..PortConfig::ten_gbe()
                }],
            );
            let dst = sim.add_element(
                "dst",
                Box::new(CountingSink::new()),
                &[PortConfig::ten_gbe()],
            );
            let mut fault = crate::fault::FaultConfig::none();
            fault.drop_chance = (seed % 5) as f64 * 0.1;
            fault.corrupt_chance = (seed % 3) as f64 * 0.1;
            sim.connect(
                (src, 0),
                (dst, 0),
                LinkConfig::direct_cable().with_fault(fault),
            );
            sim.run_to_idle();
            let tx = sim.port_counters(src, 0);
            let rx = sim.port_counters(dst, 0);
            let (inj_dropped, inj_corrupted) = sim.link_fault_stats(src, 0).unwrap();
            assert_eq!(tx.tx_frames, n as u64, "seed {seed}: all frames serialized");
            assert_eq!(
                tx.tx_frames,
                rx.rx_frames + rx.rx_errors + inj_dropped,
                "seed {seed}: conservation violated"
            );
            assert_eq!(
                rx.rx_errors, inj_corrupted,
                "seed {seed}: corruption accounting"
            );
        }
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed: u64| -> (u64, u64) {
            let mut sim = NetSim::new(seed);
            let src = sim.add_element(
                "src",
                Box::new(Blaster {
                    n: 500,
                    wire_size: 64,
                }),
                &[PortConfig {
                    tx_queue_frames: 500,
                    ..PortConfig::ten_gbe()
                }],
            );
            let dst = sim.add_element(
                "dst",
                Box::new(CountingSink::new()),
                &[PortConfig::ten_gbe()],
            );
            let mut fault = crate::fault::FaultConfig::none();
            fault.drop_chance = 0.3;
            sim.connect(
                (src, 0),
                (dst, 0),
                LinkConfig::direct_cable().with_fault(fault),
            );
            sim.run_to_idle();
            let c = sim.port_counters(dst, 0);
            (c.rx_frames, sim.now().as_nanos())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(run(99).0, run(100).0);
    }
}
