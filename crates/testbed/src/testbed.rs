//! The testbed aggregate: hosts + images + calendar + topology + clock.
//!
//! This is the machine room the pos controller (in `pos-core`) operates.
//! All operations consume *virtual* time; nothing here reads a wall clock
//! or an unseeded RNG, so a sequence of operations is perfectly
//! repeatable.

use crate::calendar::Calendar;
use crate::exec::{split_command_line, CommandResult, ExecError};
use crate::host::{default_sysctls, HardwareSpec, Host, PowerState};
use crate::image::{ImageId, ImageStore};
use crate::power::{InitInterface, PowerError};
use crate::topology::Topology;
use pos_simkernel::{SimDuration, SimRng, SimTime, Trace, TraceLevel};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Signature of a registered command handler.
///
/// Handlers receive the whole testbed (so e.g. a generator command can
/// inspect the topology and the peer host's configuration), the executing
/// host's name, and the argument vector including the command name.
pub type CommandHandler = Rc<dyn Fn(&mut Testbed, &str, &[String]) -> CommandResult>;

/// A pending out-of-band failure: the host crashes (or wedges) at `at`.
#[derive(Debug, Clone)]
struct ScheduledCrash {
    at: SimTime,
    host: String,
    wedge: bool,
}

/// A `[from, until)` window during which something on `host` misbehaves.
#[derive(Debug, Clone)]
struct FaultWindow {
    host: String,
    from: SimTime,
    until: SimTime,
}

impl FaultWindow {
    fn contains(&self, host: &str, at: SimTime) -> bool {
        self.host == host && self.from <= at && at < self.until
    }
}

/// A window during which a host's experiment link drops/corrupts frames.
#[derive(Debug, Clone)]
struct LinkDegradation {
    window: FaultWindow,
    drop_chance: f64,
    corrupt_chance: f64,
}

/// The simulated testbed.
pub struct Testbed {
    now: SimTime,
    hosts: BTreeMap<String, Host>,
    /// Available live images.
    pub images: ImageStore,
    /// The multi-user reservation calendar.
    pub calendar: Calendar,
    /// The wiring plan.
    pub topology: Topology,
    commands: BTreeMap<String, CommandHandler>,
    rng: SimRng,
    /// Controller-visible event log.
    pub trace: Trace,
    root_seed: u64,
    /// Watchdog budget for in-band commands; `None` disables the watchdog.
    command_timeout: Option<SimDuration>,
    scheduled_crashes: Vec<ScheduledCrash>,
    power_fault_windows: Vec<FaultWindow>,
    hang_windows: Vec<FaultWindow>,
    link_degradations: Vec<LinkDegradation>,
}

impl Testbed {
    /// Creates an empty testbed with the standard image set.
    pub fn new(seed: u64) -> Testbed {
        Testbed {
            now: SimTime::ZERO,
            hosts: BTreeMap::new(),
            images: ImageStore::with_standard_images(),
            calendar: Calendar::new(),
            topology: Topology::new(),
            commands: BTreeMap::new(),
            rng: SimRng::new(seed).derive("testbed"),
            trace: Trace::default(),
            root_seed: seed,
            command_timeout: None,
            scheduled_crashes: Vec::new(),
            power_fault_windows: Vec::new(),
            hang_windows: Vec::new(),
            link_degradations: Vec::new(),
        }
    }

    /// The seed this testbed was created with.
    pub fn seed(&self) -> u64 {
        self.root_seed
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock by `d` (operations call this internally; external
    /// callers use it to account for work done outside the testbed, e.g. a
    /// packet-level measurement).
    pub fn advance(&mut self, d: SimDuration) {
        self.now += d;
    }

    /// Sets the clock to an absolute instant — **controller use only**.
    ///
    /// Experiment hosts execute their script segments *concurrently*
    /// between synchronization barriers, but this testbed has a single
    /// clock. The controller therefore runs each host's segment in its own
    /// "lane": it remembers the barrier instant, replays every lane from
    /// that instant (rewinding with this method), and finally sets the
    /// clock to the *latest* lane end — which is exactly when a barrier
    /// completes. Any other use of backwards time travel voids
    /// repeatability guarantees.
    pub fn set_now(&mut self, t: SimTime) {
        self.now = t;
    }

    /// Adds a host. Panics on duplicate names — inventory is static.
    pub fn add_host(
        &mut self,
        name: impl Into<String>,
        spec: HardwareSpec,
        init: InitInterface,
    ) -> &mut Host {
        let name = name.into();
        assert!(
            !self.hosts.contains_key(&name),
            "duplicate host name {name}"
        );
        self.hosts
            .entry(name.clone())
            .or_insert_with(|| Host::new(name, spec, init))
    }

    /// Looks a host up.
    pub fn host(&self, name: &str) -> Option<&Host> {
        self.hosts.get(name)
    }

    /// Looks a host up mutably.
    pub fn host_mut(&mut self, name: &str) -> Option<&mut Host> {
        self.hosts.get_mut(name)
    }

    /// Names of all hosts, sorted.
    pub fn host_names(&self) -> Vec<String> {
        self.hosts.keys().cloned().collect()
    }

    /// Registers (or replaces) a command handler available on every host.
    pub fn register_command(&mut self, name: impl Into<String>, handler: CommandHandler) {
        self.commands.insert(name.into(), handler);
    }

    // ------------------------------------------------------------------
    // Chaos hooks (armed by the controller from a chaos plan)
    // ------------------------------------------------------------------

    /// Sets the per-command watchdog budget. A command that would run (or
    /// hang) longer than this is killed and surfaces as
    /// [`ExecError::Timeout`]. `None` disables the watchdog.
    pub fn set_command_timeout(&mut self, timeout: Option<SimDuration>) {
        self.command_timeout = timeout;
    }

    /// The active watchdog budget.
    pub fn command_timeout(&self) -> Option<SimDuration> {
        self.command_timeout
    }

    /// Schedules an out-of-band host failure at `at`. With `wedge` the host
    /// additionally refuses soft resets until fully power-cycled.
    pub fn schedule_crash(&mut self, host: &str, at: SimTime, wedge: bool) {
        self.scheduled_crashes.push(ScheduledCrash {
            at,
            host: host.to_owned(),
            wedge,
        });
    }

    /// Declares a window during which every power command against `host`
    /// fails (management network outage, dead BMC, tripped breaker).
    pub fn add_power_fault_window(&mut self, host: &str, from: SimTime, until: SimTime) {
        self.power_fault_windows.push(FaultWindow {
            host: host.to_owned(),
            from,
            until,
        });
    }

    /// Declares a window during which commands on `host` hang instead of
    /// returning — the watchdog (if armed) reaps them.
    pub fn add_hang_window(&mut self, host: &str, from: SimTime, until: SimTime) {
        self.hang_windows.push(FaultWindow {
            host: host.to_owned(),
            from,
            until,
        });
    }

    /// Declares a window during which `host`'s experiment link drops and
    /// corrupts frames with the given probabilities.
    pub fn add_link_degradation(
        &mut self,
        host: &str,
        from: SimTime,
        until: SimTime,
        drop_chance: f64,
        corrupt_chance: f64,
    ) {
        self.link_degradations.push(LinkDegradation {
            window: FaultWindow {
                host: host.to_owned(),
                from,
                until,
            },
            drop_chance,
            corrupt_chance,
        });
    }

    /// The `(drop_chance, corrupt_chance)` affecting `host`'s experiment
    /// link at `at`, if any degradation window is active. Overlapping
    /// windows combine by taking the worse probability per field.
    pub fn link_degradation(&self, host: &str, at: SimTime) -> Option<(f64, f64)> {
        let mut hit = None;
        for d in &self.link_degradations {
            if d.window.contains(host, at) {
                let (drop, corrupt) = hit.unwrap_or((0.0f64, 0.0f64));
                hit = Some((drop.max(d.drop_chance), corrupt.max(d.corrupt_chance)));
            }
        }
        hit
    }

    /// Fires every scheduled crash whose instant has passed. Events are
    /// consumed regardless of host state: a crash aimed at a host that is
    /// already down is a no-op, and consuming it prevents the absurdity of
    /// a stale event re-killing the host after its recovery reboot.
    fn apply_due_crashes(&mut self) {
        let now = self.now;
        let mut due = Vec::new();
        self.scheduled_crashes.retain(|c| {
            if c.at <= now {
                due.push(c.clone());
                false
            } else {
                true
            }
        });
        for c in due {
            let Some(h) = self.hosts.get_mut(&c.host) else {
                continue;
            };
            if !h.is_up() {
                continue;
            }
            if c.wedge {
                h.inject_wedge();
            } else {
                h.inject_crash();
            }
            self.trace.log(
                now,
                TraceLevel::Warn,
                c.host.clone(),
                if c.wedge {
                    format!("chaos: host wedged at {} (firmware hang)", c.at)
                } else {
                    format!("chaos: host crashed at {} (kernel panic)", c.at)
                },
            );
        }
    }

    fn in_power_fault_window(&self, host: &str) -> bool {
        self.power_fault_windows
            .iter()
            .any(|w| w.contains(host, self.now))
    }

    /// End of the latest hang window covering `host` right now, if any.
    fn hang_until(&self, host: &str) -> Option<SimTime> {
        self.hang_windows
            .iter()
            .filter(|w| w.contains(host, self.now))
            .map(|w| w.until)
            .max()
    }

    // ------------------------------------------------------------------
    // Initialization interface (out-of-band power control)
    // ------------------------------------------------------------------

    fn power_preamble(&mut self, host: &str) -> Result<InitInterface, PowerError> {
        self.apply_due_crashes();
        let h = self
            .hosts
            .get(host)
            .ok_or_else(|| PowerError::UnknownHost { host: host.into() })?;
        let iface = h.init_interface;
        self.advance(iface.command_latency());
        if self.in_power_fault_window(host) {
            self.trace.log(
                self.now,
                TraceLevel::Warn,
                host.to_owned(),
                format!("{iface}: management outage (chaos window), command failed"),
            );
            return Err(PowerError::TransientFailure { interface: iface });
        }
        if self.rng.chance(iface.transient_failure_chance()) {
            self.trace.log(
                self.now,
                TraceLevel::Warn,
                host.to_owned(),
                format!("{iface}: transient management failure"),
            );
            return Err(PowerError::TransientFailure { interface: iface });
        }
        Ok(iface)
    }

    /// Selects the live image for a host's next boot.
    pub fn select_image(&mut self, host: &str, image: ImageId) -> Result<(), PowerError> {
        let h = self
            .hosts
            .get_mut(host)
            .ok_or_else(|| PowerError::UnknownHost { host: host.into() })?;
        h.selected_image = Some(image);
        Ok(())
    }

    /// Sets kernel boot parameters for a host's next boot.
    pub fn set_boot_params(&mut self, host: &str, params: &[String]) -> Result<(), PowerError> {
        let h = self
            .hosts
            .get_mut(host)
            .ok_or_else(|| PowerError::UnknownHost { host: host.into() })?;
        h.boot_params = params.to_vec();
        Ok(())
    }

    /// Powers a host on; it starts booting its selected live image.
    pub fn power_on(&mut self, host: &str) -> Result<(), PowerError> {
        let iface = self.power_preamble(host)?;
        let now = self.now;
        let boot = iface.boot_time(&mut self.rng);
        let h = self.hosts.get_mut(host).expect("checked in preamble");
        let image = h
            .selected_image
            .ok_or_else(|| PowerError::NoImageSelected { host: host.into() })?;
        h.power = PowerState::Booting {
            ready_at: now + boot,
            image,
        };
        self.trace.log(
            now,
            TraceLevel::Info,
            host.to_owned(),
            format!("powering on, image {image}, ready in {boot}"),
        );
        Ok(())
    }

    /// Powers a host off (works from any state — it is a plug pull).
    pub fn power_off(&mut self, host: &str) -> Result<(), PowerError> {
        let iface = self.power_preamble(host)?;
        self.advance(iface.off_on_dwell());
        let now = self.now;
        let h = self.hosts.get_mut(host).expect("checked in preamble");
        h.power = PowerState::Off;
        // A full power cycle un-wedges stuck firmware; a soft reset cannot.
        h.wedged = false;
        self.trace
            .log(now, TraceLevel::Info, host.to_owned(), "powered off");
        Ok(())
    }

    /// Hard-resets a host out of band: the R3 recovery path. Equivalent to
    /// a power cycle and reboot of the selected image. Fails on interfaces
    /// without a reset command (power plugs need off + dwell + on).
    pub fn reset(&mut self, host: &str) -> Result<(), PowerError> {
        let iface = self.power_preamble(host)?;
        if !iface.supports_reset() {
            return Err(PowerError::Unsupported {
                interface: iface,
                operation: "reset",
            });
        }
        if self.hosts.get(host).map(|h| h.wedged).unwrap_or(false) {
            self.trace.log(
                self.now,
                TraceLevel::Warn,
                host.to_owned(),
                format!("{iface}: reset accepted but host stays wedged (power cycle required)"),
            );
            return Err(PowerError::TransientFailure { interface: iface });
        }
        let now = self.now;
        let boot = iface.boot_time(&mut self.rng);
        let h = self.hosts.get_mut(host).expect("checked in preamble");
        let image = h
            .selected_image
            .ok_or_else(|| PowerError::NoImageSelected { host: host.into() })?;
        h.power = PowerState::Booting {
            ready_at: now + boot,
            image,
        };
        self.trace.log(
            now,
            TraceLevel::Info,
            host.to_owned(),
            format!("hard reset, rebooting image {image}"),
        );
        Ok(())
    }

    /// Blocks (in virtual time) until the host finishes booting, then
    /// applies the live-image clean slate. No-op if the host is already up.
    pub fn wait_booted(&mut self, host: &str) -> Result<(), ExecError> {
        let h = self
            .hosts
            .get_mut(host)
            .ok_or_else(|| ExecError::UnknownHost { host: host.into() })?;
        match h.power {
            PowerState::On { .. } => Ok(()),
            PowerState::Booting { ready_at, image } => {
                h.apply_clean_slate(image);
                let boots = h.boots;
                if ready_at > self.now {
                    self.now = ready_at;
                }
                self.trace.log(
                    self.now,
                    TraceLevel::Info,
                    host.to_owned(),
                    format!("boot #{boots} complete (clean slate)"),
                );
                Ok(())
            }
            other => Err(ExecError::HostUnreachable {
                host: host.into(),
                state: format!("{other:?}"),
            }),
        }
    }

    // ------------------------------------------------------------------
    // Configuration interface (in-band command execution)
    // ------------------------------------------------------------------

    /// Uploads a file to a host (SCP-style). Requires the host to be up.
    pub fn upload(&mut self, host: &str, path: &str, contents: &[u8]) -> Result<(), ExecError> {
        self.apply_due_crashes();
        let h = self.reachable_host_mut(host)?;
        if !h.config_interface.has_shell() {
            return Err(ExecError::BadCommandLine {
                reason: format!(
                    "cannot upload files to {host}: {} devices have no filesystem access",
                    h.config_interface
                ),
            });
        }
        h.write_file(path, contents.to_vec());
        self.advance(SimDuration::from_millis(50));
        Ok(())
    }

    /// Reads a file back from a host.
    pub fn download(&mut self, host: &str, path: &str) -> Result<Vec<u8>, ExecError> {
        self.apply_due_crashes();
        let h = self.reachable_host_mut(host)?;
        h.file(path).cloned().ok_or(ExecError::BadCommandLine {
            reason: format!("{path}: no such file"),
        })
    }

    fn reachable_host_mut(&mut self, host: &str) -> Result<&mut Host, ExecError> {
        let h = self
            .hosts
            .get_mut(host)
            .ok_or_else(|| ExecError::UnknownHost { host: host.into() })?;
        if !h.is_up() {
            return Err(ExecError::HostUnreachable {
                host: host.into(),
                state: format!("{:?}", h.power),
            });
        }
        Ok(h)
    }

    /// Executes a command line on a host via its configuration interface.
    ///
    /// Dispatch order: registered handlers, then builtins. An unknown
    /// command yields exit code 127 (shell convention), not an `Err` —
    /// experiment scripts decide how to react to failing commands.
    pub fn exec(&mut self, host: &str, command_line: &str) -> Result<CommandResult, ExecError> {
        self.dispatch(host, command_line, false)
    }

    /// [`Testbed::exec`] that returns as soon as the command's exit code
    /// and virtual duration are settled: output a command defers (see
    /// [`crate::exec::Deferred`]) is left in the result, unread, and is
    /// not copied to the host's console.
    pub fn exec_deferred(
        &mut self,
        host: &str,
        command_line: &str,
    ) -> Result<CommandResult, ExecError> {
        self.dispatch(host, command_line, true)
    }

    fn dispatch(
        &mut self,
        host: &str,
        command_line: &str,
        defer: bool,
    ) -> Result<CommandResult, ExecError> {
        self.apply_due_crashes();
        let iface = self.reachable_host_mut(host)?.config_interface;
        let argv = split_command_line(command_line)?;
        // Connection + dispatch overhead of the configuration interface.
        self.advance(iface.command_overhead());

        // Chaos hang window: the session stalls instead of dispatching. If
        // a watchdog is armed and the window outlives its budget, the
        // command is killed; otherwise the session stalls until the window
        // passes and the command then runs normally.
        if let Some(until) = self.hang_until(host) {
            match self.command_timeout {
                Some(budget) if self.now + budget < until => {
                    self.advance(budget);
                    return self.watchdog_fired(host, command_line, budget);
                }
                _ => {
                    let stall = until.saturating_duration_since(self.now);
                    self.advance(stall);
                    self.trace.log(
                        self.now,
                        TraceLevel::Warn,
                        host.to_owned(),
                        format!("exec `{command_line}` stalled {stall} (chaos hang window)"),
                    );
                }
            }
        }

        let result = if let Some(handler) = self.commands.get(&argv[0]).cloned() {
            let result = handler(self, host, &argv);
            if defer {
                result
            } else {
                result.resolved()
            }
        } else if iface.has_shell() {
            self.builtin(host, &argv)
        } else {
            CommandResult::fail(
                126,
                format!(
                    "{}: no shell on this device ({iface} management API);                      only registered management commands are available",
                    argv[0]
                ),
            )
        };

        // Watchdog: a command that would outlive its budget is killed at
        // the budget boundary — its output never arrives.
        if let Some(budget) = self.command_timeout {
            if result.duration > budget {
                self.advance(budget);
                return self.watchdog_fired(host, command_line, budget);
            }
        }
        self.advance(result.duration);

        // Console capture: pos uploads all output to the controller (§4.4).
        let now = self.now;
        if let Some(h) = self.hosts.get_mut(host) {
            h.console.push(format!("$ {command_line}"));
            if !result.stdout.is_empty() {
                h.console.push(result.stdout.clone());
            }
            if !result.stderr.is_empty() {
                h.console.push(format!("stderr: {}", result.stderr));
            }
            if !result.success() {
                h.console.push(format!("exit code: {}", result.exit_code));
            }
        }
        self.trace.log(
            now,
            if result.success() {
                TraceLevel::Debug
            } else {
                TraceLevel::Warn
            },
            host.to_owned(),
            format!("exec `{command_line}` -> {}", result.exit_code),
        );
        Ok(result)
    }

    /// Records a watchdog kill on the console and trace, then surfaces it
    /// as [`ExecError::Timeout`]. The clock has already been advanced by
    /// the exhausted budget.
    fn watchdog_fired(
        &mut self,
        host: &str,
        command_line: &str,
        budget: SimDuration,
    ) -> Result<CommandResult, ExecError> {
        let now = self.now;
        if let Some(h) = self.hosts.get_mut(host) {
            h.console.push(format!("$ {command_line}"));
            h.console
                .push(format!("watchdog: command killed after {budget}"));
        }
        self.trace.log(
            now,
            TraceLevel::Warn,
            host.to_owned(),
            format!("exec `{command_line}` exceeded watchdog budget {budget}, killed"),
        );
        Err(ExecError::Timeout {
            host: host.into(),
            command: command_line.into(),
            after: budget,
        })
    }

    /// The built-in command set every live image ships.
    fn builtin(&mut self, host: &str, argv: &[String]) -> CommandResult {
        let h = self.hosts.get_mut(host).expect("reachability checked");
        match argv[0].as_str() {
            "true" => CommandResult::ok(""),
            "false" => CommandResult::fail(1, ""),
            "echo" => CommandResult::ok(argv[1..].join(" ")),
            "sleep" => match argv.get(1).and_then(|s| s.parse::<f64>().ok()) {
                Some(secs) if secs >= 0.0 => {
                    CommandResult::ok("").with_duration(SimDuration::from_secs_f64(secs))
                }
                _ => CommandResult::fail(1, "sleep: invalid time interval"),
            },
            "hostname" => match argv.get(1) {
                Some(name) => {
                    h.sysctls.insert("kernel.hostname".into(), name.clone());
                    CommandResult::ok("")
                }
                None => {
                    let name = h
                        .sysctls
                        .get("kernel.hostname")
                        .cloned()
                        .unwrap_or_default();
                    if name.is_empty() {
                        CommandResult::ok(h.name.clone())
                    } else {
                        CommandResult::ok(name)
                    }
                }
            },
            "uname" => {
                let image = h.running_image();
                let kernel = image
                    .and_then(|id| self.images.get(id))
                    .map(|i| i.kernel.clone())
                    .unwrap_or_else(|| "unknown".into());
                CommandResult::ok(format!("Linux {} {kernel} pos-sim x86_64", h.name))
            }
            "sysctl" => {
                // sysctl key | sysctl -w key=value | sysctl key=value
                let args: Vec<&String> = argv[1..].iter().filter(|a| *a != "-w").collect();
                match args.as_slice() {
                    [kv] if kv.contains('=') => {
                        let (k, v) = kv.split_once('=').expect("checked");
                        if h.sysctls.contains_key(k)
                            || k.starts_with("net.")
                            || k.starts_with("kernel.")
                        {
                            h.sysctls.insert(k.trim().into(), v.trim().into());
                            CommandResult::ok(format!("{} = {}", k.trim(), v.trim()))
                        } else {
                            CommandResult::fail(255, format!("sysctl: cannot stat {k}"))
                        }
                    }
                    [k] => match h.sysctls.get(k.as_str()) {
                        Some(v) => CommandResult::ok(format!("{k} = {v}")),
                        None => CommandResult::fail(255, format!("sysctl: cannot stat {k}")),
                    },
                    _ => CommandResult::fail(1, "usage: sysctl [-w] key[=value]"),
                }
            }
            "ip" => {
                // ip addr add CIDR dev IF  |  ip link set IF up/down
                let args: Vec<&str> = argv[1..].iter().map(|s| s.as_str()).collect();
                match args.as_slice() {
                    ["addr", "add", cidr, "dev", ifname] => {
                        h.netconf.insert(format!("addr:{ifname}"), cidr.to_string());
                        CommandResult::ok("")
                    }
                    ["link", "set", ifname, updown @ ("up" | "down")] => {
                        h.netconf
                            .insert(format!("link:{ifname}"), updown.to_string());
                        CommandResult::ok("")
                    }
                    ["addr", "show"] => {
                        let mut out = String::new();
                        for (k, v) in &h.netconf {
                            out.push_str(&format!("{k} {v}\n"));
                        }
                        CommandResult::ok(out)
                    }
                    _ => CommandResult::fail(2, format!("ip: unsupported arguments {args:?}")),
                }
            }
            "lspci" | "pos-hardware-info" => CommandResult::ok(h.spec.render()),
            "cat" => match argv.get(1) {
                Some(path) => match h.file(path) {
                    Some(data) => CommandResult::ok(String::from_utf8_lossy(data).into_owned()),
                    None => CommandResult::fail(1, format!("cat: {path}: No such file")),
                },
                None => CommandResult::fail(1, "cat: missing operand"),
            },
            "pos_set_var" => match (argv.get(1), argv.get(2)) {
                (Some(k), Some(v)) => {
                    h.vars.insert(k.clone(), v.clone());
                    CommandResult::ok("")
                }
                _ => CommandResult::fail(1, "usage: pos_set_var NAME VALUE"),
            },
            "pos_get_var" => match argv.get(1) {
                Some(k) => match h.vars.get(k) {
                    Some(v) => CommandResult::ok(v.clone()),
                    None => CommandResult::fail(1, format!("pos_get_var: {k} not set")),
                },
                None => CommandResult::fail(1, "usage: pos_get_var NAME"),
            },
            other => CommandResult::fail(127, format!("{other}: command not found")),
        }
    }

    /// Deploys pos's utility tools and the experiment variables to a host
    /// (the "pos deploys a set of utility tools" step of §4.4).
    pub fn deploy_tools(
        &mut self,
        host: &str,
        vars: &BTreeMap<String, String>,
    ) -> Result<(), ExecError> {
        // Shell hosts get the utility binaries; management-API devices
        // (no filesystem) still receive variables through their API.
        if self.reachable_host_mut(host)?.config_interface.has_shell() {
            self.upload(host, "/usr/local/bin/pos", b"#!posutils\n")?;
        }
        let h = self.reachable_host_mut(host)?;
        for (k, v) in vars {
            h.vars.insert(k.clone(), v.clone());
        }
        Ok(())
    }

    /// Fresh per-purpose RNG stream tied to the testbed seed.
    pub fn derive_rng(&self, label: &str) -> SimRng {
        SimRng::new(self.root_seed).derive(label)
    }

    /// Re-derives the *shared* management RNG stream from the root seed
    /// under a new `label`, discarding the current stream position.
    ///
    /// `Testbed::new` labels the stream `"testbed"`. A parallel campaign
    /// scheduler gives every worker-lane replica its own sub-stream (e.g.
    /// `"testbed/lane1"`) so that out-of-band power jitter on one lane
    /// cannot perturb another lane's draws. Lane 0 keeps the default label,
    /// which makes a one-lane schedule consume exactly the sequential
    /// controller's stream. Call this only before any draw has been
    /// consumed; re-labelling mid-campaign voids repeatability.
    pub fn rederive_management_rng(&mut self, label: &str) {
        self.rng = SimRng::new(self.root_seed).derive(label);
    }

    /// Position of the *shared* management RNG stream (the one consumed by
    /// out-of-band power commands). Recorded into the campaign journal so
    /// a resumed controller can realign the stream after skipping
    /// already-completed runs.
    pub fn rng_cursor(&self) -> u64 {
        self.rng.draws()
    }

    /// Fast-forwards the shared management RNG stream to a recorded
    /// cursor. Panics if the stream is already past it (see
    /// [`SimRng::skip_to`]).
    pub fn rng_seek(&mut self, cursor: u64) {
        self.rng.skip_to(cursor);
    }

    /// Discards scheduled crash/wedge events whose instant is already in
    /// the past *without firing them*. A resumed controller fast-forwards
    /// virtual time over a completed run; when that run journaled a
    /// successful recovery, the chaos events inside its window were
    /// consumed (host detected down, rebooted, setup re-run) in the
    /// interrupted session — replaying them against the fresh testbed
    /// would double-fire.
    pub fn discard_due_faults(&mut self) {
        let now = self.now;
        self.scheduled_crashes.retain(|c| c.at > now);
    }

    /// Restores image-default sysctls on a host (used by tests to model
    /// drift without a reboot).
    pub fn reset_sysctls_to_default(&mut self, host: &str) {
        if let Some(h) = self.hosts.get_mut(host) {
            h.sysctls = default_sysctls();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed_with_host() -> (Testbed, ImageId) {
        let mut tb = Testbed::new(42);
        tb.add_host("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        let img = tb.images.latest("debian-buster").unwrap().id;
        (tb, img)
    }

    /// Boots the host, retrying transient IPMI failures like a controller.
    fn boot(tb: &mut Testbed, host: &str, img: ImageId) {
        tb.select_image(host, img).unwrap();
        for _ in 0..10 {
            match tb.power_on(host) {
                Ok(()) => break,
                Err(PowerError::TransientFailure { .. }) => continue,
                Err(e) => panic!("unexpected power error: {e}"),
            }
        }
        tb.wait_booted(host).unwrap();
    }

    #[test]
    fn boot_cycle_takes_virtual_time_and_cleans_state() {
        let (mut tb, img) = testbed_with_host();
        let t0 = tb.now();
        boot(&mut tb, "vtartu", img);
        let boot_time = (tb.now() - t0).as_secs_f64();
        assert!(
            (70.0..90.0).contains(&boot_time),
            "IPMI boot ≈70-85 s, got {boot_time}"
        );
        assert!(tb.host("vtartu").unwrap().is_up());
        assert_eq!(tb.host("vtartu").unwrap().running_image(), Some(img));
    }

    #[test]
    fn exec_before_boot_is_unreachable() {
        let (mut tb, _) = testbed_with_host();
        let err = tb.exec("vtartu", "echo hi").unwrap_err();
        assert!(matches!(err, ExecError::HostUnreachable { .. }));
        let err = tb.exec("nosuchhost", "echo hi").unwrap_err();
        assert!(matches!(err, ExecError::UnknownHost { .. }));
    }

    #[test]
    fn power_on_without_image_fails() {
        let (mut tb, _) = testbed_with_host();
        // Retry around possible transient failures to reach the real error.
        let err = loop {
            match tb.power_on("vtartu") {
                Err(PowerError::TransientFailure { .. }) => continue,
                other => break other.unwrap_err(),
            }
        };
        assert!(matches!(err, PowerError::NoImageSelected { .. }));
    }

    #[test]
    fn builtins_work() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        assert_eq!(
            tb.exec("vtartu", "echo hello world").unwrap().stdout,
            "hello world"
        );
        assert!(tb.exec("vtartu", "true").unwrap().success());
        assert!(!tb.exec("vtartu", "false").unwrap().success());
        assert_eq!(tb.exec("vtartu", "hostname").unwrap().stdout, "vtartu");
        tb.exec("vtartu", "hostname router1").unwrap();
        assert_eq!(tb.exec("vtartu", "hostname").unwrap().stdout, "router1");
        let uname = tb.exec("vtartu", "uname -a").unwrap().stdout;
        assert!(uname.contains("4.19"), "kernel from the image: {uname}");
        assert_eq!(tb.exec("vtartu", "nosuchcmd").unwrap().exit_code, 127);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        let t0 = tb.now();
        tb.exec("vtartu", "sleep 30").unwrap();
        let dt = (tb.now() - t0).as_secs_f64();
        assert!((30.0..30.5).contains(&dt), "got {dt}");
        assert!(!tb.exec("vtartu", "sleep -1").unwrap().success());
        assert!(!tb.exec("vtartu", "sleep abc").unwrap().success());
    }

    #[test]
    fn sysctl_and_ip_configure_host_state() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        // Image default: forwarding off.
        assert_eq!(
            tb.exec("vtartu", "sysctl net.ipv4.ip_forward")
                .unwrap()
                .stdout,
            "net.ipv4.ip_forward = 0"
        );
        tb.exec("vtartu", "sysctl -w net.ipv4.ip_forward=1")
            .unwrap();
        assert_eq!(
            tb.host("vtartu").unwrap().sysctls["net.ipv4.ip_forward"],
            "1"
        );
        assert!(!tb.exec("vtartu", "sysctl no.such.key").unwrap().success());

        tb.exec("vtartu", "ip addr add 10.0.0.1/24 dev eno1")
            .unwrap();
        tb.exec("vtartu", "ip link set eno1 up").unwrap();
        let show = tb.exec("vtartu", "ip addr show").unwrap().stdout;
        assert!(show.contains("addr:eno1 10.0.0.1/24"));
        assert!(show.contains("link:eno1 up"));
    }

    #[test]
    fn reboot_wipes_configuration() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.exec("vtartu", "sysctl -w net.ipv4.ip_forward=1")
            .unwrap();
        tb.upload("vtartu", "/root/setup.sh", b"echo setup")
            .unwrap();
        // Reboot via reset; retry transients.
        loop {
            match tb.reset("vtartu") {
                Ok(()) => break,
                Err(PowerError::TransientFailure { .. }) => continue,
                Err(e) => panic!("{e}"),
            }
        }
        tb.wait_booted("vtartu").unwrap();
        let h = tb.host("vtartu").unwrap();
        assert_eq!(
            h.sysctls["net.ipv4.ip_forward"], "0",
            "clean slate restored"
        );
        assert!(h.fs.is_empty(), "uploaded files wiped");
        assert_eq!(h.boots, 2);
    }

    #[test]
    fn crash_recovery_via_reset() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.host_mut("vtartu").unwrap().inject_crash();
        assert!(matches!(
            tb.exec("vtartu", "echo hi").unwrap_err(),
            ExecError::HostUnreachable { .. }
        ));
        // The R3 path: out-of-band reset still works.
        loop {
            match tb.reset("vtartu") {
                Ok(()) => break,
                Err(PowerError::TransientFailure { .. }) => continue,
                Err(e) => panic!("{e}"),
            }
        }
        tb.wait_booted("vtartu").unwrap();
        assert!(tb.exec("vtartu", "echo back").unwrap().success());
    }

    #[test]
    fn power_plug_cannot_reset_but_can_cycle() {
        let mut tb = Testbed::new(7);
        tb.add_host(
            "plugged",
            HardwareSpec::paper_dut(),
            InitInterface::PowerPlug,
        );
        let img = tb.images.latest("debian-buster").unwrap().id;
        tb.select_image("plugged", img).unwrap();
        let err = loop {
            match tb.reset("plugged") {
                Err(PowerError::TransientFailure { .. }) => continue,
                other => break other.unwrap_err(),
            }
        };
        assert!(matches!(
            err,
            PowerError::Unsupported {
                operation: "reset",
                ..
            }
        ));
        // Cycle instead: off (with dwell) then on.
        let t0 = tb.now();
        while tb.power_off("plugged").is_err() {}
        assert!((tb.now() - t0).as_secs_f64() >= 10.0, "dwell time enforced");
        while tb.power_on("plugged").is_err() {}
        tb.wait_booted("plugged").unwrap();
        assert!(tb.host("plugged").unwrap().is_up());
    }

    #[test]
    fn registered_commands_shadow_builtins_and_see_testbed() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.register_command(
            "count-hosts",
            Rc::new(|tb, _host, _argv| CommandResult::ok(tb.host_names().len().to_string())),
        );
        assert_eq!(tb.exec("vtartu", "count-hosts").unwrap().stdout, "1");
    }

    #[test]
    fn console_captures_all_output() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.exec("vtartu", "echo captured-line").unwrap();
        tb.exec("vtartu", "false").unwrap();
        let console = &tb.host("vtartu").unwrap().console;
        assert!(console.iter().any(|l| l == "$ echo captured-line"));
        assert!(console.iter().any(|l| l == "captured-line"));
        assert!(console.iter().any(|l| l.contains("exit code: 1")));
    }

    #[test]
    fn upload_download_roundtrip() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.upload("vtartu", "/root/measure.sh", b"moongen --rate $pkt_rate")
            .unwrap();
        let back = tb.download("vtartu", "/root/measure.sh").unwrap();
        assert_eq!(back, b"moongen --rate $pkt_rate");
        assert!(tb.download("vtartu", "/root/missing").is_err());
        let cat = tb.exec("vtartu", "cat /root/measure.sh").unwrap();
        assert!(cat.stdout.contains("moongen"));
    }

    #[test]
    fn deploy_tools_installs_vars() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        let mut vars = BTreeMap::new();
        vars.insert("pkt_sz".to_string(), "64".to_string());
        tb.deploy_tools("vtartu", &vars).unwrap();
        assert_eq!(
            tb.exec("vtartu", "pos_get_var pkt_sz").unwrap().stdout,
            "64"
        );
        assert!(!tb.exec("vtartu", "pos_get_var missing").unwrap().success());
        tb.exec("vtartu", "pos_set_var done 1").unwrap();
        assert_eq!(tb.exec("vtartu", "pos_get_var done").unwrap().stdout, "1");
    }

    #[test]
    fn determinism_same_seed_same_boot_times() {
        let run = |seed| {
            let mut tb = Testbed::new(seed);
            tb.add_host("h", HardwareSpec::paper_dut(), InitInterface::Ipmi);
            let img = tb.images.latest("debian-buster").unwrap().id;
            tb.select_image("h", img).unwrap();
            while tb.power_on("h").is_err() {}
            tb.wait_booted("h").unwrap();
            tb.now().as_nanos()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn management_api_devices_have_no_shell() {
        let mut tb = Testbed::new(9);
        let spec = HardwareSpec {
            kind: crate::host::DeviceKind::Switch,
            cpu_model: "Tofino management CPU".into(),
            cores: 4,
            memory_gib: 8,
            nics: vec![],
        };
        tb.add_host("tofino", spec, InitInterface::VendorManagement);
        assert_eq!(
            tb.host("tofino").unwrap().config_interface,
            crate::config_iface::ConfigInterface::Snmp
        );
        let img = tb.images.latest("debian-buster").unwrap().id;
        tb.select_image("tofino", img).unwrap();
        while tb.power_on("tofino").is_err() {}
        tb.wait_booted("tofino").unwrap();

        // Shell builtins do not exist on an SNMP-managed device...
        let r = tb.exec("tofino", "echo hi").unwrap();
        assert_eq!(r.exit_code, 126);
        assert!(r.stderr.contains("no shell"));
        assert!(tb.upload("tofino", "/x", b"y").is_err());

        // ...but registered management commands do (R1: the device is
        // integrated through its own API).
        tb.register_command(
            "switch-configure",
            Rc::new(|_tb, _host, argv| {
                CommandResult::ok(format!("configured {}", argv[1..].join(" ")))
            }),
        );
        let r = tb.exec("tofino", "switch-configure port 1 up").unwrap();
        assert!(r.success());
        assert_eq!(r.stdout, "configured port 1 up");

        // And variable deployment still works through the API.
        let mut vars = BTreeMap::new();
        vars.insert("mode".to_string(), "forwarding".to_string());
        tb.deploy_tools("tofino", &vars).unwrap();
        assert_eq!(tb.host("tofino").unwrap().vars["mode"], "forwarding");
    }

    #[test]
    fn serial_console_is_slower_than_ssh() {
        let mut tb = Testbed::new(10);
        tb.add_host("a", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("b", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.host_mut("b").unwrap().config_interface =
            crate::config_iface::ConfigInterface::SerialConsole;
        let img = tb.images.latest("debian-buster").unwrap().id;
        for h in ["a", "b"] {
            tb.select_image(h, img).unwrap();
            while tb.power_on(h).is_err() {}
            tb.wait_booted(h).unwrap();
        }
        let t0 = tb.now();
        tb.exec("a", "true").unwrap();
        let ssh_cost = tb.now() - t0;
        let t0 = tb.now();
        tb.exec("b", "true").unwrap();
        let serial_cost = tb.now() - t0;
        assert!(serial_cost.as_nanos() > ssh_cost.as_nanos() * 3);
    }

    #[test]
    #[should_panic(expected = "duplicate host name")]
    fn duplicate_hosts_rejected() {
        let mut tb = Testbed::new(1);
        tb.add_host("h", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        tb.add_host("h", HardwareSpec::paper_dut(), InitInterface::Ipmi);
    }

    #[test]
    fn scheduled_crash_fires_at_next_command() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.schedule_crash("vtartu", tb.now() + SimDuration::from_secs(5), false);
        assert!(tb.exec("vtartu", "true").unwrap().success(), "not due yet");
        tb.advance(SimDuration::from_secs(10));
        let err = tb.exec("vtartu", "true").unwrap_err();
        assert!(matches!(err, ExecError::HostUnreachable { .. }));
        // The event is consumed: after recovery the host stays up.
        loop {
            match tb.reset("vtartu") {
                Ok(()) => break,
                Err(PowerError::TransientFailure { .. }) => continue,
                Err(e) => panic!("{e}"),
            }
        }
        tb.wait_booted("vtartu").unwrap();
        assert!(tb.exec("vtartu", "true").unwrap().success());
    }

    #[test]
    fn wedged_host_needs_full_power_cycle() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.schedule_crash("vtartu", tb.now(), true);
        assert!(tb.exec("vtartu", "true").is_err());
        // Soft resets bounce off a wedged host (IPMI supports reset, but
        // the stuck firmware ignores it).
        for _ in 0..20 {
            assert!(tb.reset("vtartu").is_err());
        }
        // A full cycle clears the wedge.
        while tb.power_off("vtartu").is_err() {}
        while tb.power_on("vtartu").is_err() {}
        tb.wait_booted("vtartu").unwrap();
        assert!(tb.exec("vtartu", "true").unwrap().success());
        assert!(!tb.host("vtartu").unwrap().wedged);
    }

    #[test]
    fn power_fault_window_fails_management_commands() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        let from = tb.now();
        let until = from + SimDuration::from_secs(60);
        tb.add_power_fault_window("vtartu", from, until);
        assert!(matches!(
            tb.reset("vtartu"),
            Err(PowerError::TransientFailure { .. })
        ));
        // Past the window, power control works again.
        tb.advance(SimDuration::from_secs(120));
        loop {
            match tb.reset("vtartu") {
                Ok(()) => break,
                Err(PowerError::TransientFailure { .. }) => continue,
                Err(e) => panic!("{e}"),
            }
        }
        tb.wait_booted("vtartu").unwrap();
    }

    #[test]
    fn watchdog_kills_overlong_command() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        tb.set_command_timeout(Some(SimDuration::from_secs(10)));
        let t0 = tb.now();
        let err = tb.exec("vtartu", "sleep 3600").unwrap_err();
        match err {
            ExecError::Timeout { after, .. } => assert_eq!(after, SimDuration::from_secs(10)),
            other => panic!("expected Timeout, got {other:?}"),
        }
        // Only the budget elapsed, not the hour.
        let dt = (tb.now() - t0).as_secs_f64();
        assert!((10.0..11.0).contains(&dt), "got {dt}");
        // Within budget, commands still work.
        assert!(tb.exec("vtartu", "sleep 5").unwrap().success());
    }

    #[test]
    fn hang_window_stalls_or_times_out() {
        let (mut tb, img) = testbed_with_host();
        boot(&mut tb, "vtartu", img);
        let from = tb.now();
        tb.add_hang_window("vtartu", from, from + SimDuration::from_secs(30));

        // Without a watchdog the session stalls until the window passes,
        // then the command completes.
        let t0 = tb.now();
        assert!(tb.exec("vtartu", "true").unwrap().success());
        assert!((tb.now() - t0).as_secs_f64() >= 29.0, "stalled past window");

        // With a watchdog shorter than the window, the command is reaped.
        tb.add_hang_window("vtartu", tb.now(), tb.now() + SimDuration::from_secs(300));
        tb.set_command_timeout(Some(SimDuration::from_secs(20)));
        let t0 = tb.now();
        assert!(matches!(
            tb.exec("vtartu", "true").unwrap_err(),
            ExecError::Timeout { .. }
        ));
        let dt = (tb.now() - t0).as_secs_f64();
        assert!((20.0..21.0).contains(&dt), "killed at budget, got {dt}");
    }

    #[test]
    fn link_degradation_windows_combine() {
        let mut tb = Testbed::new(3);
        tb.add_host("g", HardwareSpec::paper_dut(), InitInterface::Ipmi);
        let t = |s| SimTime::from_secs(s);
        tb.add_link_degradation("g", t(10), t(20), 0.1, 0.0);
        tb.add_link_degradation("g", t(15), t(25), 0.3, 0.05);
        assert_eq!(tb.link_degradation("g", t(5)), None);
        assert_eq!(tb.link_degradation("g", t(12)), Some((0.1, 0.0)));
        assert_eq!(tb.link_degradation("g", t(17)), Some((0.3, 0.05)));
        assert_eq!(tb.link_degradation("g", t(22)), Some((0.3, 0.05)));
        assert_eq!(
            tb.link_degradation("g", t(25)),
            None,
            "window end exclusive"
        );
        assert_eq!(tb.link_degradation("other", t(12)), None);
    }
}
