//! Experiment hosts.
//!
//! A host is a device in the testbed: a bare-metal server, a VM of the
//! virtual testbed, or an appliance (hardware load generator, switch with
//! a management API). Its *entire* mutable state — filesystem, variables,
//! sysctl settings, network configuration — is wiped by a (re)boot, which
//! is exactly the live-image clean-slate guarantee the paper builds on.

use crate::config_iface::ConfigInterface;
use crate::exec::Deferred;
use crate::image::ImageId;
use crate::power::InitInterface;
use pos_simkernel::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What kind of device a host is (heterogeneity, R1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// An off-the-shelf server, bootable via live images.
    BareMetal,
    /// A virtual machine of the vpos testbed.
    VirtualMachine,
    /// A hardware packet generator (e.g. an OSNT NetFPGA host).
    HardwareLoadGen,
    /// A switch with ASIC forwarding and a management API (e.g. Tofino).
    Switch,
}

impl DeviceKind {
    /// Short name for metadata.
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::BareMetal => "bare-metal",
            DeviceKind::VirtualMachine => "vm",
            DeviceKind::HardwareLoadGen => "hw-loadgen",
            DeviceKind::Switch => "switch",
        }
    }
}

/// One NIC of a host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NicSpec {
    /// Device model string (shows up in `lspci`).
    pub model: String,
    /// Number of ports.
    pub ports: usize,
    /// Per-port line rate in bits per second.
    pub speed_bps: u64,
}

/// Static hardware description of a host — the "device hardware
/// information" pos captures into every experiment's artifacts (§4.4).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardwareSpec {
    /// Device class.
    pub kind: DeviceKind,
    /// CPU model string.
    pub cpu_model: String,
    /// Number of physical cores.
    pub cores: u32,
    /// Memory in GiB.
    pub memory_gib: u32,
    /// Installed NICs.
    pub nics: Vec<NicSpec>,
}

impl HardwareSpec {
    /// The paper's DuT: two Xeon Silver 4214 CPUs and a dual-port Intel
    /// 82599 10 GbE NIC.
    pub fn paper_dut() -> HardwareSpec {
        HardwareSpec {
            kind: DeviceKind::BareMetal,
            cpu_model: "Intel Xeon Silver 4214 (2 sockets)".into(),
            cores: 24,
            memory_gib: 192,
            nics: vec![NicSpec {
                model: "Intel 82599ES 10-Gigabit SFI/SFP+".into(),
                ports: 2,
                speed_bps: 10_000_000_000,
            }],
        }
    }

    /// A vpos virtual machine: pinned vCPUs, virtio NICs.
    pub fn vpos_vm() -> HardwareSpec {
        HardwareSpec {
            kind: DeviceKind::VirtualMachine,
            cpu_model: "QEMU Virtual CPU (pinned)".into(),
            cores: 4,
            memory_gib: 8,
            nics: vec![NicSpec {
                model: "virtio-net".into(),
                ports: 2,
                speed_bps: 40_000_000_000,
            }],
        }
    }

    /// Total number of network ports across all NICs.
    pub fn total_ports(&self) -> usize {
        self.nics.iter().map(|n| n.ports).sum()
    }

    /// An `lspci`-flavored hardware listing.
    pub fn render(&self) -> String {
        let mut out = format!(
            "kind: {}\ncpu: {} ({} cores)\nmemory: {} GiB\n",
            self.kind.name(),
            self.cpu_model,
            self.cores,
            self.memory_gib
        );
        for (i, nic) in self.nics.iter().enumerate() {
            out.push_str(&format!(
                "nic{}: {} ({} ports, {} Gbit/s)\n",
                i,
                nic.model,
                nic.ports,
                nic.speed_bps / 1_000_000_000
            ));
        }
        out
    }
}

/// Host power/boot lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PowerState {
    /// Powered down.
    Off,
    /// Firmware + live image boot in progress; ready at the given instant.
    Booting {
        /// When the boot completes.
        ready_at: SimTime,
        /// The image being booted.
        image: ImageId,
    },
    /// Up and reachable via the configuration interface.
    On {
        /// The live image the host is running.
        image: ImageId,
    },
    /// Wedged: unreachable in-band, recoverable only via the
    /// initialization interface (the R3 scenario).
    Crashed,
}

/// A testbed host.
#[derive(Debug, Clone)]
pub struct Host {
    /// Unique host name (e.g. `vriga`, `vtartu` from Appendix A).
    pub name: String,
    /// Static hardware description.
    pub spec: HardwareSpec,
    /// Out-of-band initialization interface.
    pub init_interface: InitInterface,
    /// In-band configuration interface (defaults per device kind).
    pub config_interface: ConfigInterface,
    /// Power/boot state.
    pub power: PowerState,
    /// Image selected for the next boot.
    pub selected_image: Option<ImageId>,
    /// Kernel boot parameters for the next boot.
    pub boot_params: Vec<String>,
    /// In-memory filesystem: path -> contents. Wiped on boot. A file a
    /// deferred command is still producing is not here yet: read files
    /// through [`Host::file`] and write them through [`Host::write_file`].
    pub fs: BTreeMap<String, Vec<u8>>,
    /// Files deferred commands are still producing, by path.
    pending: BTreeMap<String, Deferred>,
    /// pos-deployed variables. Wiped on boot.
    pub vars: BTreeMap<String, String>,
    /// Kernel tunables (`sysctl`). Wiped on boot to image defaults.
    pub sysctls: BTreeMap<String, String>,
    /// Network interface configuration applied via `ip`. Wiped on boot.
    pub netconf: BTreeMap<String, String>,
    /// Console output since power-on.
    pub console: Vec<String>,
    /// Monotone count of completed boots (diagnostic).
    pub boots: u64,
    /// Firmware hang: soft resets bounce off until the host is fully
    /// power-cycled (off, dwell, on).
    pub wedged: bool,
}

/// A file taken off a host by [`Host::take_files`].
#[derive(Debug, Clone)]
pub enum HostFile {
    /// Its contents.
    Ready(Vec<u8>),
    /// The deferred command still producing it.
    Pending(Deferred),
}

impl HostFile {
    /// The file's contents, waiting for them if needed; `None` when the
    /// deferred command did not write the file after all.
    pub fn contents(self, path: &str) -> Option<Vec<u8>> {
        match self {
            HostFile::Ready(contents) => Some(contents),
            HostFile::Pending(output) => output.take_file(path),
        }
    }
}

impl Host {
    /// Creates a powered-off host.
    pub fn new(name: impl Into<String>, spec: HardwareSpec, init: InitInterface) -> Host {
        let config_interface = ConfigInterface::default_for(spec.kind);
        Host {
            name: name.into(),
            spec,
            init_interface: init,
            config_interface,
            power: PowerState::Off,
            selected_image: None,
            boot_params: Vec::new(),
            fs: BTreeMap::new(),
            pending: BTreeMap::new(),
            vars: BTreeMap::new(),
            sysctls: BTreeMap::new(),
            netconf: BTreeMap::new(),
            console: Vec::new(),
            boots: 0,
            wedged: false,
        }
    }

    /// True when the host answers on its configuration interface.
    pub fn is_up(&self) -> bool {
        matches!(self.power, PowerState::On { .. })
    }

    /// The image currently running, if the host is up.
    pub fn running_image(&self) -> Option<ImageId> {
        match self.power {
            PowerState::On { image } => Some(image),
            _ => None,
        }
    }

    /// Applies the live-image clean slate: every piece of mutable state is
    /// reset to the image's pristine defaults.
    pub(crate) fn apply_clean_slate(&mut self, image: ImageId) {
        self.fs.clear();
        self.pending.clear();
        self.vars.clear();
        self.netconf.clear();
        self.console.clear();
        self.sysctls = default_sysctls();
        self.power = PowerState::On { image };
        self.boots += 1;
        self.wedged = false;
    }

    /// Writes the file at `path`, replacing whatever was there.
    pub fn write_file(&mut self, path: impl Into<String>, contents: Vec<u8>) {
        let path = path.into();
        self.pending.remove(&path);
        self.fs.insert(path, contents);
    }

    /// Declares that `output` will write the file at `path`: from now on
    /// the file is `output`'s, and the first read waits for it.
    pub fn defer_file(&mut self, path: impl Into<String>, output: Deferred) {
        let path = path.into();
        self.fs.remove(&path);
        self.pending.insert(path, output);
    }

    /// The file at `path`, waiting first for a deferred command that is
    /// still producing it.
    pub fn file(&mut self, path: &str) -> Option<&Vec<u8>> {
        if let Some(output) = self.pending.remove(path) {
            if let Some(contents) = output.take_file(path) {
                self.fs.insert(path.to_owned(), contents);
            }
        }
        self.fs.get(path)
    }

    /// Removes every file whose path starts with `prefix`, in path order,
    /// without waiting for the ones still being produced.
    pub fn take_files(&mut self, prefix: &str) -> Vec<(String, HostFile)> {
        let mut taken = Vec::new();
        self.fs.retain(|path, contents| {
            let take = path.starts_with(prefix);
            if take {
                taken.push((path.clone(), HostFile::Ready(std::mem::take(contents))));
            }
            !take
        });
        self.pending.retain(|path, output| {
            let take = path.starts_with(prefix);
            if take {
                taken.push((path.clone(), HostFile::Pending(output.clone())));
            }
            !take
        });
        taken.sort_by(|a, b| a.0.cmp(&b.0));
        taken
    }

    /// Simulates a crash: the host stops responding in-band.
    pub fn inject_crash(&mut self) {
        self.power = PowerState::Crashed;
    }

    /// Simulates a firmware wedge: down in-band, *and* soft resets fail
    /// until the host is power-cycled.
    pub fn inject_wedge(&mut self) {
        self.power = PowerState::Crashed;
        self.wedged = true;
    }
}

/// Image-default kernel tunables. Notably `net.ipv4.ip_forward=0`: a Linux
/// live image does *not* route until the setup script enables it.
pub(crate) fn default_sysctls() -> BTreeMap<String, String> {
    let mut m = BTreeMap::new();
    m.insert("net.ipv4.ip_forward".into(), "0".into());
    m.insert("net.ipv4.conf.all.rp_filter".into(), "1".into());
    m.insert("kernel.hostname".into(), String::new());
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Host {
        Host::new("vtartu", HardwareSpec::paper_dut(), InitInterface::Ipmi)
    }

    #[test]
    fn new_host_is_off_and_empty() {
        let h = host();
        assert_eq!(h.power, PowerState::Off);
        assert!(!h.is_up());
        assert!(h.running_image().is_none());
        assert_eq!(h.boots, 0);
    }

    #[test]
    fn clean_slate_wipes_everything() {
        let mut h = host();
        h.fs.insert("/root/leftover.sh".into(), b"echo dirty".to_vec());
        h.vars.insert("pkt_sz".into(), "64".into());
        h.sysctls.insert("net.ipv4.ip_forward".into(), "1".into());
        h.netconf.insert("eno1".into(), "10.0.0.2/24".into());
        h.console.push("old output".into());

        h.apply_clean_slate(ImageId(0));
        assert!(h.fs.is_empty());
        assert!(h.vars.is_empty());
        assert!(h.netconf.is_empty());
        assert!(h.console.is_empty());
        assert_eq!(
            h.sysctls["net.ipv4.ip_forward"], "0",
            "routing off by default"
        );
        assert!(h.is_up());
        assert_eq!(h.boots, 1);
    }

    #[test]
    fn crash_takes_host_down() {
        let mut h = host();
        h.apply_clean_slate(ImageId(0));
        assert!(h.is_up());
        h.inject_crash();
        assert!(!h.is_up());
        assert_eq!(h.power, PowerState::Crashed);
    }

    #[test]
    fn paper_dut_spec_matches_section5() {
        let spec = HardwareSpec::paper_dut();
        assert_eq!(spec.kind, DeviceKind::BareMetal);
        assert_eq!(spec.total_ports(), 2);
        assert_eq!(spec.nics[0].speed_bps, 10_000_000_000);
        let rendered = spec.render();
        assert!(rendered.contains("Xeon Silver 4214"));
        assert!(rendered.contains("82599"));
        assert!(rendered.contains("10 Gbit/s"));
    }

    #[test]
    fn device_kind_names() {
        assert_eq!(DeviceKind::BareMetal.name(), "bare-metal");
        assert_eq!(DeviceKind::VirtualMachine.name(), "vm");
        assert_eq!(DeviceKind::HardwareLoadGen.name(), "hw-loadgen");
        assert_eq!(DeviceKind::Switch.name(), "switch");
    }
}
