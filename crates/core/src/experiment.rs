//! The experiment specification.
//!
//! Fig. 2 of the paper: an experiment is a controller-side *experiment
//! script* plus, per experiment host, a *setup* and a *measurement* script
//! and a *local variables* file; globally there are *global variables* and
//! *loop variables*. This module is the typed form of that file bundle.

use crate::script::Script;
use crate::vars::Variables;
use serde::{Deserialize, Serialize};

/// One experiment host role (e.g. "loadgen", "dut") and everything pos
/// needs to prepare that host.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoleSpec {
    /// Role name; also the key for local variables and result files.
    pub role: String,
    /// The testbed host assigned to this role (Appendix A: the arguments
    /// to `experiment.sh`, e.g. `vriga`, `vtartu`).
    pub host: String,
    /// Live image name to boot.
    pub image_name: String,
    /// Image snapshot pin; `None` selects the newest snapshot.
    pub image_snapshot: Option<String>,
    /// Kernel boot parameters.
    pub boot_params: Vec<String>,
    /// The setup script (runs once, setup phase).
    pub setup: Script,
    /// The measurement script (runs once per measurement run).
    pub measurement: Script,
    /// This host's local variables.
    pub local_vars: Variables,
}

impl RoleSpec {
    /// Creates a role with empty scripts and variables.
    pub fn new(role: impl Into<String>, host: impl Into<String>) -> RoleSpec {
        RoleSpec {
            role: role.into(),
            host: host.into(),
            image_name: "debian-buster".into(),
            image_snapshot: None,
            boot_params: Vec::new(),
            setup: Script::default(),
            measurement: Script::default(),
            local_vars: Variables::new(),
        }
    }
}

/// A complete pos experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Experiment name (result directory component).
    pub name: String,
    /// The experimenting user (calendar owner).
    pub user: String,
    /// Planned duration for the calendar reservation. An experiment that
    /// overruns its reservation is an error (multi-user fairness).
    pub planned_duration_secs: u64,
    /// Variables visible on all hosts.
    pub global_vars: Variables,
    /// Variables swept across measurement runs (cross product).
    pub loop_vars: Variables,
    /// The participating roles.
    pub roles: Vec<RoleSpec>,
}

/// Problems detected by [`ExperimentSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// No roles defined.
    NoRoles,
    /// Two roles share a name or a host.
    Duplicate {
        /// What is duplicated ("role" or "host").
        what: &'static str,
        /// The duplicated value.
        value: String,
    },
    /// Barrier sequences differ between roles' scripts, which would
    /// deadlock the lockstep execution.
    BarrierMismatch {
        /// The phase with the mismatch ("setup" or "measurement").
        phase: &'static str,
        /// First role (reference).
        reference: String,
        /// The role that disagrees.
        offender: String,
    },
    /// A loop variable would produce zero runs.
    EmptySweep {
        /// The variable with the empty list.
        variable: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::NoRoles => write!(f, "experiment has no roles"),
            SpecError::Duplicate { what, value } => write!(f, "duplicate {what}: {value}"),
            SpecError::BarrierMismatch {
                phase,
                reference,
                offender,
            } => write!(
                f,
                "{phase} scripts of {reference} and {offender} have different barrier sequences"
            ),
            SpecError::EmptySweep { variable } => {
                write!(f, "loop variable {variable} has an empty value list")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl ExperimentSpec {
    /// Creates an empty experiment.
    pub fn new(name: impl Into<String>, user: impl Into<String>) -> ExperimentSpec {
        ExperimentSpec {
            name: name.into(),
            user: user.into(),
            planned_duration_secs: 3 * 3600, // the case study's ~3 h
            global_vars: Variables::new(),
            loop_vars: Variables::new(),
            roles: Vec::new(),
        }
    }

    /// Adds a role (builder style).
    pub fn with_role(mut self, role: RoleSpec) -> ExperimentSpec {
        self.roles.push(role);
        self
    }

    /// The role with the given name.
    pub fn role(&self, name: &str) -> Option<&RoleSpec> {
        self.roles.iter().find(|r| r.role == name)
    }

    /// Host names of all roles.
    pub fn hosts(&self) -> Vec<String> {
        self.roles.iter().map(|r| r.host.clone()).collect()
    }

    /// Checks structural invariants before the controller touches hardware.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.roles.is_empty() {
            return Err(SpecError::NoRoles);
        }
        let mut seen_roles = std::collections::BTreeSet::new();
        let mut seen_hosts = std::collections::BTreeSet::new();
        for r in &self.roles {
            if !seen_roles.insert(&r.role) {
                return Err(SpecError::Duplicate {
                    what: "role",
                    value: r.role.clone(),
                });
            }
            if !seen_hosts.insert(&r.host) {
                return Err(SpecError::Duplicate {
                    what: "host",
                    value: r.host.clone(),
                });
            }
        }
        // Lockstep execution requires identical barrier sequences.
        for phase in ["setup", "measurement"] {
            let script_of = |r: &RoleSpec| match phase {
                "setup" => r.setup.clone(),
                _ => r.measurement.clone(),
            };
            let reference = &self.roles[0];
            let ref_barriers: Vec<String> = script_of(reference)
                .barrier_names()
                .iter()
                .map(|s| s.to_string())
                .collect();
            for r in &self.roles[1..] {
                let barriers: Vec<String> = script_of(r)
                    .barrier_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
                if barriers != ref_barriers {
                    return Err(SpecError::BarrierMismatch {
                        phase: if phase == "setup" {
                            "setup"
                        } else {
                            "measurement"
                        },
                        reference: reference.role.clone(),
                        offender: r.role.clone(),
                    });
                }
            }
        }
        for (name, v) in self.loop_vars.iter() {
            if v.instances().is_empty() {
                return Err(SpecError::EmptySweep {
                    variable: name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Serializes the spec to YAML (part of the published artifacts).
    pub fn to_yaml(&self) -> String {
        serde_yaml::to_string(self).expect("spec always serializes")
    }

    /// SHA-256 fingerprint of the spec's canonical YAML form.
    ///
    /// Recorded in the campaign journal's `CampaignStarted` record;
    /// `pos resume` refuses a result tree whose stored spec no longer
    /// digests to the journaled value, so an interrupted campaign can
    /// never be "resumed" into a different experiment.
    pub fn digest(&self) -> String {
        crate::hash::sha256_hex(self.to_yaml().as_bytes())
    }

    /// Writes the experiment as a file bundle, the layout of the
    /// `pos-artifacts` repository's `experiment/` folder: `experiment.yml`
    /// plus, per role, plain-text `setup.sh` / `measurement.sh` /
    /// `local-variables.yml`, and the global/loop variable files.
    pub fn to_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("experiment.yml"), self.to_yaml())?;
        std::fs::write(dir.join("global-variables.yml"), self.global_vars.to_yaml())?;
        std::fs::write(dir.join("loop-variables.yml"), self.loop_vars.to_yaml())?;
        for role in &self.roles {
            let role_dir = dir.join(&role.role);
            std::fs::create_dir_all(&role_dir)?;
            std::fs::write(role_dir.join("setup.sh"), &role.setup.source)?;
            std::fs::write(role_dir.join("measurement.sh"), &role.measurement.source)?;
            std::fs::write(
                role_dir.join("local-variables.yml"),
                role.local_vars.to_yaml(),
            )?;
        }
        Ok(())
    }

    /// Loads an experiment from a file bundle written by [`Self::to_dir`]
    /// (or from the `experiment/` folder of a published result tree).
    ///
    /// The plain-text script and variable files are authoritative: they
    /// are what a replicating researcher reads and edits, so they override
    /// whatever `experiment.yml` embeds.
    pub fn from_dir(dir: &std::path::Path) -> std::io::Result<ExperimentSpec> {
        let yaml = std::fs::read_to_string(dir.join("experiment.yml"))?;
        let mut spec: ExperimentSpec = serde_yaml::from_str(&yaml)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let load_vars = |path: std::path::PathBuf| -> std::io::Result<Option<Variables>> {
            match std::fs::read_to_string(path) {
                Ok(text) => Variables::from_yaml(&text)
                    .map(Some)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e)),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
                Err(e) => Err(e),
            }
        };
        if let Some(v) = load_vars(dir.join("global-variables.yml"))? {
            spec.global_vars = v;
        }
        if let Some(v) = load_vars(dir.join("loop-variables.yml"))? {
            spec.loop_vars = v;
        }
        for role in &mut spec.roles {
            let role_dir = dir.join(&role.role);
            if let Ok(text) = std::fs::read_to_string(role_dir.join("setup.sh")) {
                role.setup = Script::parse(&text);
            }
            if let Ok(text) = std::fs::read_to_string(role_dir.join("measurement.sh")) {
                role.measurement = Script::parse(&text);
            }
            if let Some(v) = load_vars(role_dir.join("local-variables.yml"))? {
                role.local_vars = v;
            }
        }
        Ok(spec)
    }
}

/// Builds the paper's case-study experiment (§5 / Appendix A): MoonGen on
/// `loadgen_host` measures the Linux router on `dut_host`, sweeping packet
/// size {64, 1500} × `rate_steps` rates from 10 kpps to 300 kpps. Each
/// measurement run transmits for `run_secs` seconds.
pub fn linux_router_experiment(
    loadgen_host: &str,
    dut_host: &str,
    rate_steps: usize,
    run_secs: u64,
) -> ExperimentSpec {
    assert!(rate_steps >= 1, "need at least one rate step");
    let rates: Vec<i64> = (1..=rate_steps as i64)
        .map(|i| 10_000 + (300_000 - 10_000) * (i - 1) / (rate_steps as i64 - 1).max(1))
        .collect();

    let dut_setup = Script::parse(
        "# enable forwarding between the two experiment ports\n\
         ip addr add $dut_ip0/24 dev $PORT0\n\
         ip addr add $dut_ip1/24 dev $PORT1\n\
         ip link set $PORT0 up\n\
         ip link set $PORT1 up\n\
         sysctl -w net.ipv4.ip_forward=1\n\
         pos_sync configured\n\
         pos_sync setup_done\n",
    );
    let dut_measurement = Script::parse(
        "# the DuT is passive during a run; hold until the generator is done\n\
         sleep $run_secs\n\
         pos_sync run_done\n",
    );
    let loadgen_setup = Script::parse(
        "ip link set $PORT0 up\n\
         ip link set $PORT1 up\n\
         # wait for the DuT to finish configuring, then verify the path\n\
         pos_sync configured\n\
         ping $dut_ip0\n\
         pos_sync setup_done\n",
    );
    let loadgen_measurement = Script::parse(
        "moongen --rate $pkt_rate --size $pkt_sz --time $run_secs\n\
         pos_sync run_done\n",
    );

    ExperimentSpec {
        name: "linux-router-forwarding".into(),
        user: "user".into(),
        planned_duration_secs: 3 * 3600,
        global_vars: Variables::new()
            .with("run_secs", run_secs as i64)
            .with("dut_ip0", "10.0.0.1")
            .with("dut_ip1", "10.0.1.1"),
        loop_vars: Variables::new().with("pkt_sz", vec![64i64, 1500]).with(
            "pkt_rate",
            crate::vars::VarValue::List(rates.into_iter().map(Into::into).collect()),
        ),
        roles: vec![
            RoleSpec {
                role: "loadgen".into(),
                host: loadgen_host.into(),
                image_name: "debian-buster".into(),
                image_snapshot: Some("2020-10-01T00:00:00Z".into()),
                boot_params: vec!["isolcpus=1-11".into()],
                setup: loadgen_setup,
                measurement: loadgen_measurement,
                local_vars: Variables::new().with("PORT0", "eno1").with("PORT1", "eno2"),
            },
            RoleSpec {
                role: "dut".into(),
                host: dut_host.into(),
                image_name: "debian-buster".into(),
                image_snapshot: Some("2020-10-01T00:00:00Z".into()),
                boot_params: vec![],
                setup: dut_setup,
                measurement: dut_measurement,
                local_vars: Variables::new()
                    .with("PORT0", "enp24s0f0")
                    .with("PORT1", "enp24s0f1"),
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_testutil::TempDir;

    #[test]
    fn case_study_spec_is_valid() {
        let spec = linux_router_experiment("vriga", "vtartu", 30, 10);
        spec.validate().unwrap();
        assert_eq!(spec.hosts(), vec!["vriga", "vtartu"]);
        assert_eq!(
            crate::loopvars::cross_product_size(&spec.loop_vars),
            Some(60),
            "Appendix A: 60 individual measurements"
        );
    }

    #[test]
    fn case_study_rates_span_10k_to_300k() {
        let spec = linux_router_experiment("a", "b", 30, 10);
        let rates = spec.loop_vars.get("pkt_rate").unwrap().instances();
        assert_eq!(rates.len(), 30);
        assert_eq!(rates[0].as_i64(), Some(10_000));
        assert_eq!(rates[29].as_i64(), Some(300_000));
    }

    #[test]
    fn validate_rejects_empty() {
        let spec = ExperimentSpec::new("x", "u");
        assert_eq!(spec.validate(), Err(SpecError::NoRoles));
    }

    #[test]
    fn validate_rejects_duplicate_roles_and_hosts() {
        let spec = ExperimentSpec::new("x", "u")
            .with_role(RoleSpec::new("a", "h1"))
            .with_role(RoleSpec::new("a", "h2"));
        assert!(matches!(
            spec.validate(),
            Err(SpecError::Duplicate { what: "role", .. })
        ));
        let spec = ExperimentSpec::new("x", "u")
            .with_role(RoleSpec::new("a", "h1"))
            .with_role(RoleSpec::new("b", "h1"));
        assert!(matches!(
            spec.validate(),
            Err(SpecError::Duplicate { what: "host", .. })
        ));
    }

    #[test]
    fn validate_rejects_barrier_mismatch() {
        let mut a = RoleSpec::new("a", "h1");
        a.setup = Script::parse("echo x\npos_sync s1");
        let mut b = RoleSpec::new("b", "h2");
        b.setup = Script::parse("echo y\npos_sync OTHER");
        let spec = ExperimentSpec::new("x", "u").with_role(a).with_role(b);
        assert!(matches!(
            spec.validate(),
            Err(SpecError::BarrierMismatch { phase: "setup", .. })
        ));
    }

    #[test]
    fn validate_rejects_empty_sweep() {
        let mut spec = ExperimentSpec::new("x", "u").with_role(RoleSpec::new("a", "h1"));
        spec.loop_vars
            .set("rates", crate::vars::VarValue::List(vec![]));
        assert!(matches!(spec.validate(), Err(SpecError::EmptySweep { .. })));
    }

    #[test]
    fn spec_serializes_to_yaml() {
        let spec = linux_router_experiment("vriga", "vtartu", 5, 10);
        let yaml = spec.to_yaml();
        assert!(yaml.contains("linux-router-forwarding"));
        assert!(yaml.contains("pkt_sz"));
        let back: ExperimentSpec = serde_yaml::from_str(&yaml).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.roles.len(), 2);
        assert_eq!(back.roles[1].setup.steps, spec.roles[1].setup.steps);
    }

    #[test]
    fn dir_roundtrip_preserves_spec() {
        let dir = TempDir::new("spec-dir");
        let spec = linux_router_experiment("vriga", "vtartu", 5, 10);
        spec.to_dir(&dir).unwrap();
        for rel in [
            "experiment.yml",
            "loop-variables.yml",
            "dut/setup.sh",
            "loadgen/measurement.sh",
            "loadgen/local-variables.yml",
        ] {
            assert!(dir.join(rel).exists(), "missing {rel}");
        }
        let back = ExperimentSpec::from_dir(&dir).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.loop_vars, spec.loop_vars);
        assert_eq!(back.roles[1].setup.steps, spec.roles[1].setup.steps);
        assert_eq!(back.roles[0].local_vars, spec.roles[0].local_vars);
        back.validate().unwrap();
    }

    #[test]
    fn from_dir_plain_files_override_embedded_yaml() {
        // The replicating researcher edits measurement.sh by hand; the
        // edited file must win over the YAML-embedded copy.
        let dir = TempDir::new("spec-edit");
        let spec = linux_router_experiment("a", "b", 2, 1);
        spec.to_dir(&dir).unwrap();
        std::fs::write(
            dir.join("dut/measurement.sh"),
            "echo edited\npos_sync run_done\n",
        )
        .unwrap();
        std::fs::write(
            dir.join("loop-variables.yml"),
            "pkt_sz: [64]\npkt_rate: [5000]\n",
        )
        .unwrap();
        let back = ExperimentSpec::from_dir(&dir).unwrap();
        assert!(back.roles[1].measurement.source.contains("echo edited"));
        assert_eq!(
            crate::loopvars::cross_product_size(&back.loop_vars),
            Some(1)
        );
    }

    #[test]
    fn from_dir_missing_experiment_yml_fails() {
        let dir = TempDir::new("spec-miss");
        assert!(ExperimentSpec::from_dir(&dir).is_err());
    }

    #[test]
    fn single_rate_step_works() {
        let spec = linux_router_experiment("a", "b", 1, 1);
        let rates = spec.loop_vars.get("pkt_rate").unwrap().instances();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].as_i64(), Some(10_000));
    }
}
