//! The structured on-disk result tree.
//!
//! §4.4: *"This enforced central collection of artifacts, including the
//! output of the utility tools, executed scripts, variables, device
//! hardware and topology information, guarantees publishability (R5)."*
//! and: *"pos creates separate result files for each measurement run.
//! Additionally, pos creates metadata for each run, i.e., the loop
//! parameters of a specific run."*
//!
//! Layout (mirrors `/srv/testbed/results/user/default/[timestamp]/` from
//! Appendix A):
//!
//! ```text
//! <root>/<user>/<experiment>/<vt-timestamp>/
//!   experiment/                 # the publishable inputs
//!     experiment.yml
//!     global-variables.yml
//!     loop-variables.yml
//!     <role>/setup.sh  <role>/measurement.sh  <role>/local-variables.yml
//!   hardware/<host>.txt         # captured device information
//!   topology.txt
//!   controller.log
//!   journal.log                 # append-only campaign journal
//!   run-0000/
//!     metadata.json             # RunMetadata
//!     loop-params.yml
//!     <role>_measurement.log    # captured stdout
//!     <role>_measurement.err    # captured stderr (if any)
//!     <role>_measurement.status # exit code
//!     checksums.json            # per-file SHA-256 manifest, written last
//! ```
//!
//! ## Crash consistency
//!
//! Every artifact is written atomically: to a temporary sibling first,
//! fsynced, then renamed over the target (and the directory entry synced).
//! A reader therefore never observes a half-written file — after a crash
//! an artifact either exists with complete content or not at all.
//!
//! A run becomes *durable* when its `checksums.json` manifest lands: the
//! manifest names every artifact of the run with its SHA-256, and the
//! SHA-256 of the manifest bytes themselves (the *run digest*) is what the
//! campaign journal records in `RunCompleted`. Verification is therefore
//! two-level: journal digest → manifest bytes → per-file hashes.

use crate::hash::sha256_hex;
use crate::loopvars::RunParams;
use crate::vfs::Vfs;
use pos_simkernel::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Name of the per-run checksum manifest.
pub const MANIFEST_FILE: &str = "checksums.json";

/// Atomically writes `contents` to `path`: temp sibling → fsync → rename
/// → parent directory fsync. Readers never see partial content; a crash
/// leaves either the old file or the new one.
///
/// Convenience wrapper over [`Vfs::atomic_write`] on the real VFS, for
/// callers outside a campaign (reports, ledgers) that still want the
/// same durability discipline.
pub fn atomic_write(path: &Path, contents: &[u8]) -> io::Result<()> {
    Vfs::real().atomic_write(path, contents)
}

/// Serializes a value as pretty JSON, surfacing failure as a typed
/// [`io::Error`] instead of aborting the process.
fn to_json_pretty<T: Serialize>(value: &T) -> io::Result<String> {
    serde_json::to_string_pretty(value).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Deterministic digest of an artifact subtree.
///
/// Every regular file under `dir` — journal files (`journal*`) excluded,
/// because they record *how* a tree was produced, not *what* it holds —
/// contributes `rel-path NUL length NUL bytes` to one SHA-256, in
/// lexicographic relative-path order. Two subtrees digest equal exactly
/// when their canonical artifacts are byte-identical, which is what the
/// DAG journal's `NodeFinished` records and `pos dag resume` verify.
pub fn tree_digest(dir: &Path) -> io::Result<String> {
    fn walk(root: &Path, dir: &Path, hash: &mut crate::hash::Sha256) -> io::Result<()> {
        let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<io::Result<_>>()?;
        entries.sort();
        for path in entries {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if path.is_dir() {
                walk(root, &path, hash)?;
            } else if !name.starts_with("journal") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                let bytes = fs::read(&path)?;
                hash.update(rel.to_string_lossy().as_bytes());
                hash.update(&[0]);
                hash.update(&(bytes.len() as u64).to_be_bytes());
                hash.update(&[0]);
                hash.update(&bytes);
            }
        }
        Ok(())
    }
    let mut hash = crate::hash::Sha256::new();
    walk(dir, dir, &mut hash)?;
    let mut out = String::with_capacity(64);
    for b in hash.finalize() {
        out.push_str(&format!("{b:02x}"));
    }
    Ok(out)
}

/// Per-run metadata, serialized as `metadata.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetadata {
    /// Zero-based run index in cross-product order.
    pub index: usize,
    /// Compact `k=v,...` label of the loop parameters.
    pub label: String,
    /// Loop parameter values, rendered as strings.
    pub params: BTreeMap<String, String>,
    /// Virtual start time of the run, nanoseconds.
    pub started_ns: u64,
    /// Virtual end time of the run, nanoseconds.
    pub finished_ns: u64,
    /// How many attempts the run took (1 = first try).
    pub attempts: u32,
    /// Whether the final attempt succeeded.
    pub success: bool,
    /// role -> host assignment.
    pub hosts: BTreeMap<String, String>,
}

/// The per-run checksum manifest (`checksums.json`): file name → SHA-256.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Every artifact of the run (except the manifest itself), hex SHA-256.
    pub files: BTreeMap<String, String>,
}

/// Result of checking a run directory against its manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunVerification {
    /// Files the manifest lists that are absent on disk.
    pub missing: Vec<String>,
    /// Files whose content no longer matches the manifest hash.
    pub corrupt: Vec<String>,
    /// Files on disk the manifest does not know about.
    pub extra: Vec<String>,
}

impl RunVerification {
    /// True when the run directory matches its manifest exactly.
    pub fn is_clean(&self) -> bool {
        self.missing.is_empty() && self.corrupt.is_empty() && self.extra.is_empty()
    }
}

/// Result of scanning the run directories of a result tree.
#[derive(Debug, Default)]
pub struct RunScan {
    /// Runs with readable metadata, in index order.
    pub runs: Vec<(PathBuf, RunMetadata)>,
    /// One line per run directory that was skipped (missing or unreadable
    /// metadata) — surfaced so degraded trees evaluate loudly, not not at
    /// all.
    pub diagnostics: Vec<String>,
}

/// A handle to one experiment's result directory.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
    vfs: Vfs,
}

impl ResultStore {
    /// Creates the directory for a new experiment execution under
    /// `root/user/experiment/vt-<seconds>`; appends `-N` on collision so
    /// re-running the same experiment never overwrites previous results.
    pub fn create(
        root: &Path,
        user: &str,
        experiment: &str,
        started: SimTime,
    ) -> io::Result<ResultStore> {
        let base = root
            .join(user)
            .join(experiment)
            .join(format!("vt-{:010}", started.as_nanos() / 1_000_000_000));
        let mut dir = base.clone();
        let mut n = 0;
        while dir.exists() {
            n += 1;
            dir = PathBuf::from(format!("{}-{n}", base.display()));
        }
        fs::create_dir_all(&dir)?;
        Ok(ResultStore {
            dir,
            vfs: Vfs::real(),
        })
    }

    /// Opens an existing experiment directory (for evaluation/publishing).
    pub fn open(dir: impl Into<PathBuf>) -> ResultStore {
        ResultStore {
            dir: dir.into(),
            vfs: Vfs::real(),
        }
    }

    /// Routes this store's durable writes through `vfs`, so injected
    /// storage faults hit result artifacts the same way they hit the
    /// journal.
    pub fn with_vfs(mut self, vfs: Vfs) -> ResultStore {
        self.vfs = vfs;
        self
    }

    /// The experiment directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Atomically writes a file relative to the experiment directory,
    /// creating parent directories as needed.
    pub fn write(&self, rel: &str, contents: impl AsRef<[u8]>) -> io::Result<()> {
        self.vfs
            .atomic_write(&self.dir.join(rel), contents.as_ref())
    }

    /// Reads a file relative to the experiment directory.
    pub fn read(&self, rel: &str) -> io::Result<Vec<u8>> {
        fs::read(self.dir.join(rel))
    }

    /// Reads a file as UTF-8 text.
    pub fn read_text(&self, rel: &str) -> io::Result<String> {
        fs::read_to_string(self.dir.join(rel))
    }

    /// Directory of run `index` (`run-0000` style), created on demand.
    pub fn run_dir(&self, index: usize) -> io::Result<PathBuf> {
        let dir = self.dir.join(format!("run-{index:04}"));
        fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Removes run `index`'s directory and everything in it. Resume uses
    /// this to clear partial artifacts of an interrupted run before
    /// re-executing it, so convergence does not depend on what exactly the
    /// crash left behind.
    pub fn wipe_run(&self, index: usize) -> io::Result<()> {
        let dir = self.dir.join(format!("run-{index:04}"));
        match fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Writes an arbitrary artifact into run `index`'s directory
    /// (collected `/srv/results/` files, pcap dumps, ...).
    pub fn write_run_file(
        &self,
        index: usize,
        name: &str,
        contents: impl AsRef<[u8]>,
    ) -> io::Result<()> {
        let dir = self.run_dir(index)?;
        self.vfs.atomic_write(&dir.join(name), contents.as_ref())
    }

    /// Writes a run's metadata (both JSON and the YAML loop-params view).
    pub fn write_run_metadata(&self, meta: &RunMetadata) -> io::Result<()> {
        let dir = self.run_dir(meta.index)?;
        let json = to_json_pretty(meta)?;
        self.vfs
            .atomic_write(&dir.join("metadata.json"), json.as_bytes())?;
        let yaml = serde_yaml::to_string(&meta.params)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        self.vfs
            .atomic_write(&dir.join("loop-params.yml"), yaml.as_bytes())
    }

    /// Writes one captured output artifact of a run.
    pub fn write_run_output(
        &self,
        index: usize,
        role: &str,
        stdout: &str,
        stderr: &str,
        exit_code: i32,
    ) -> io::Result<()> {
        let dir = self.run_dir(index)?;
        self.vfs.atomic_write(
            &dir.join(format!("{role}_measurement.log")),
            stdout.as_bytes(),
        )?;
        if !stderr.is_empty() {
            self.vfs.atomic_write(
                &dir.join(format!("{role}_measurement.err")),
                stderr.as_bytes(),
            )?;
        }
        self.vfs.atomic_write(
            &dir.join(format!("{role}_measurement.status")),
            format!("{exit_code}\n").as_bytes(),
        )
    }

    /// Seals run `index`: hashes every artifact in its directory into
    /// `checksums.json` (written atomically, last) and returns the *run
    /// digest* — the SHA-256 of the manifest bytes. The digest goes into
    /// the campaign journal's `RunCompleted` record; a run without a
    /// manifest is by definition incomplete.
    pub fn finalize_run(&self, index: usize) -> io::Result<String> {
        let dir = self.run_dir(index)?;
        let mut files = BTreeMap::new();
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name == MANIFEST_FILE || !entry.file_type()?.is_file() {
                continue;
            }
            files.insert(name, sha256_hex(&fs::read(entry.path())?));
        }
        let manifest = RunManifest { files };
        let json = to_json_pretty(&manifest)?;
        self.vfs
            .atomic_write(&dir.join(MANIFEST_FILE), json.as_bytes())?;
        Ok(sha256_hex(json.as_bytes()))
    }

    /// The run digest of an already-sealed run directory (SHA-256 of its
    /// manifest bytes). Errors if the manifest is missing.
    pub fn run_digest(run_dir: &Path) -> io::Result<String> {
        Ok(sha256_hex(&fs::read(run_dir.join(MANIFEST_FILE))?))
    }

    /// Checks a sealed run directory against its manifest: every listed
    /// file present and byte-identical, no unlisted files. Errors only if
    /// the manifest itself is missing or unparseable.
    pub fn verify_run(run_dir: &Path) -> io::Result<RunVerification> {
        let text = fs::read_to_string(run_dir.join(MANIFEST_FILE))?;
        let manifest: RunManifest = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let mut v = RunVerification::default();
        for (name, want) in &manifest.files {
            match fs::read(run_dir.join(name)) {
                Ok(bytes) => {
                    if &sha256_hex(&bytes) != want {
                        v.corrupt.push(name.clone());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => v.missing.push(name.clone()),
                Err(e) => return Err(e),
            }
        }
        for entry in fs::read_dir(run_dir)? {
            let entry = entry?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if name != MANIFEST_FILE
                && entry.file_type()?.is_file()
                && !manifest.files.contains_key(&name)
            {
                v.extra.push(name);
            }
        }
        v.extra.sort();
        Ok(v)
    }

    /// Lists run directories in index order.
    pub fn list_runs(&self) -> io::Result<Vec<PathBuf>> {
        let mut runs: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .map(|n| n.starts_with("run-"))
                        .unwrap_or(false)
            })
            .collect();
        runs.sort();
        Ok(runs)
    }

    /// Scans all run directories, loading metadata where possible and
    /// collecting a diagnostic line for every directory that had to be
    /// skipped (no metadata, unparseable metadata). A partially-written
    /// or corrupted tree thus still evaluates — degraded and loud — which
    /// is what an interrupted campaign leaves behind before `pos resume`
    /// repairs it.
    pub fn scan_runs(&self) -> io::Result<RunScan> {
        let mut scan = RunScan::default();
        for dir in self.list_runs()? {
            match Self::read_run_metadata(&dir) {
                Ok(meta) => scan.runs.push((dir, meta)),
                Err(e) => scan.diagnostics.push(format!(
                    "{}: skipped ({e})",
                    dir.file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| dir.display().to_string())
                )),
            }
        }
        Ok(scan)
    }

    /// Loads the metadata of a run directory.
    pub fn read_run_metadata(run_dir: &Path) -> io::Result<RunMetadata> {
        let text = fs::read_to_string(run_dir.join("metadata.json"))?;
        serde_json::from_str(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Builds a [`RunMetadata`] from run parameters and timing.
pub fn run_metadata(
    params: &RunParams,
    started: SimTime,
    finished: SimTime,
    attempts: u32,
    success: bool,
    hosts: BTreeMap<String, String>,
) -> RunMetadata {
    RunMetadata {
        index: params.index,
        label: params.label(),
        params: params
            .values
            .iter()
            .map(|(k, v)| (k.clone(), v.render()))
            .collect(),
        started_ns: started.as_nanos(),
        finished_ns: finished.as_nanos(),
        attempts,
        success,
        hosts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarValue;
    use pos_testutil::TempDir;

    fn params() -> RunParams {
        let mut values = BTreeMap::new();
        values.insert("pkt_sz".to_string(), VarValue::Int(64));
        values.insert("pkt_rate".to_string(), VarValue::Int(10_000));
        RunParams { index: 3, values }
    }

    #[test]
    fn create_builds_nested_unique_dirs() {
        let root = TempDir::new("store-create");
        let a = ResultStore::create(&root, "alice", "router", SimTime::from_secs(100)).unwrap();
        let b = ResultStore::create(&root, "alice", "router", SimTime::from_secs(100)).unwrap();
        assert_ne!(a.dir(), b.dir(), "same timestamp must not collide");
        assert!(a.dir().starts_with(root.join("alice").join("router")));
        assert!(a.dir().to_str().unwrap().contains("vt-0000000100"));
    }

    #[test]
    fn write_read_roundtrip_with_subdirs() {
        let root = TempDir::new("store-rw");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        store
            .write("experiment/dut/setup.sh", "sysctl -w x=1\n")
            .unwrap();
        assert_eq!(
            store.read_text("experiment/dut/setup.sh").unwrap(),
            "sysctl -w x=1\n"
        );
        assert!(store.read("missing").is_err());
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp() {
        let root = TempDir::new("store-atomic");
        let path = root.join("artifact.txt");
        atomic_write(&path, b"v1").unwrap();
        atomic_write(&path, b"v2").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"v2");
        let leftovers: Vec<_> = fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must not survive");
    }

    #[test]
    fn run_metadata_roundtrip() {
        let root = TempDir::new("store-meta");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        let mut hosts = BTreeMap::new();
        hosts.insert("dut".to_string(), "vtartu".to_string());
        let meta = run_metadata(
            &params(),
            SimTime::from_secs(10),
            SimTime::from_secs(25),
            2,
            true,
            hosts,
        );
        store.write_run_metadata(&meta).unwrap();
        let runs = store.list_runs().unwrap();
        assert_eq!(runs.len(), 1);
        assert!(runs[0].ends_with("run-0003"));
        let back = ResultStore::read_run_metadata(&runs[0]).unwrap();
        assert_eq!(back, meta);
        assert_eq!(back.params["pkt_sz"], "64");
        assert_eq!(back.label, "pkt_rate=10000,pkt_sz=64");
        // The YAML view exists too.
        let yaml = fs::read_to_string(runs[0].join("loop-params.yml")).unwrap();
        assert!(
            yaml.contains("pkt_sz: '64'")
                || yaml.contains("pkt_sz: \"64\"")
                || yaml.contains("pkt_sz: 64")
        );
    }

    #[test]
    fn run_outputs_written_per_role() {
        let root = TempDir::new("store-outputs");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        store
            .write_run_output(0, "loadgen", "TX: 100 packets\n", "", 0)
            .unwrap();
        store.write_run_output(0, "dut", "", "oops\n", 1).unwrap();
        let dir = store.run_dir(0).unwrap();
        assert!(dir.join("loadgen_measurement.log").exists());
        assert!(
            !dir.join("loadgen_measurement.err").exists(),
            "empty stderr writes no file"
        );
        assert!(dir.join("dut_measurement.err").exists());
        assert_eq!(
            fs::read_to_string(dir.join("dut_measurement.status")).unwrap(),
            "1\n"
        );
    }

    #[test]
    fn list_runs_sorted_and_filtered() {
        let root = TempDir::new("store-list");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        for i in [5usize, 0, 11] {
            store.run_dir(i).unwrap();
        }
        store.write("hardware/h.txt", "x").unwrap(); // non-run dir ignored
        let runs = store.list_runs().unwrap();
        let names: Vec<String> = runs
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_owned())
            .collect();
        assert_eq!(names, vec!["run-0000", "run-0005", "run-0011"]);
    }

    #[test]
    fn finalize_then_verify_clean() {
        let root = TempDir::new("store-seal");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        store
            .write_run_output(0, "loadgen", "RX: 5 packets\n", "", 0)
            .unwrap();
        let digest = store.finalize_run(0).unwrap();
        assert_eq!(digest.len(), 64);
        let dir = store.run_dir(0).unwrap();
        assert_eq!(ResultStore::run_digest(&dir).unwrap(), digest);
        let v = ResultStore::verify_run(&dir).unwrap();
        assert!(v.is_clean(), "{v:?}");
        // Sealing twice is idempotent: same digest.
        assert_eq!(store.finalize_run(0).unwrap(), digest);
    }

    #[test]
    fn verify_detects_missing_corrupt_and_extra() {
        let root = TempDir::new("store-verify");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        store
            .write_run_output(0, "loadgen", "RX: 5 packets\n", "", 0)
            .unwrap();
        store
            .write_run_file(0, "dut_capture.pcap", b"pcap")
            .unwrap();
        store.finalize_run(0).unwrap();
        let dir = store.run_dir(0).unwrap();
        // Flip one byte, remove one file, add one file.
        let target = dir.join("loadgen_measurement.log");
        let mut bytes = fs::read(&target).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&target, bytes).unwrap();
        fs::remove_file(dir.join("dut_capture.pcap")).unwrap();
        fs::write(dir.join("stray.txt"), "x").unwrap();
        let v = ResultStore::verify_run(&dir).unwrap();
        assert_eq!(v.corrupt, vec!["loadgen_measurement.log"]);
        assert_eq!(v.missing, vec!["dut_capture.pcap"]);
        assert_eq!(v.extra, vec!["stray.txt"]);
        assert!(!v.is_clean());
    }

    #[test]
    fn scan_runs_skips_and_reports_corrupt_dirs() {
        let root = TempDir::new("store-scan");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        let meta = run_metadata(
            &params(),
            SimTime::ZERO,
            SimTime::from_secs(1),
            1,
            true,
            BTreeMap::new(),
        );
        store.write_run_metadata(&meta).unwrap();
        // run-0000: no metadata at all; run-0001: garbage metadata.
        store.run_dir(0).unwrap();
        store.write("run-0001/metadata.json", "{not json").unwrap();
        let scan = store.scan_runs().unwrap();
        assert_eq!(scan.runs.len(), 1);
        assert_eq!(scan.runs[0].1.index, 3);
        assert_eq!(scan.diagnostics.len(), 2, "{:?}", scan.diagnostics);
        assert!(scan.diagnostics[0].starts_with("run-0000"));
        assert!(scan.diagnostics[1].starts_with("run-0001"));
    }

    #[test]
    fn wipe_run_removes_dir_and_tolerates_absence() {
        let root = TempDir::new("store-wipe");
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        store.write_run_output(2, "dut", "x", "", 0).unwrap();
        let dir = root.join("u/e/vt-0000000000/run-0002");
        assert!(dir.exists());
        store.wipe_run(2).unwrap();
        assert!(!dir.exists());
        store.wipe_run(2).unwrap(); // idempotent
    }
}
