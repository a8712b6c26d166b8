//! Artifact bundling with a hashed manifest.
//!
//! A [`Bundle`] collects everything an experiment produced — the scripts
//! and variable files, the per-run results and metadata, the generated
//! figures — into one self-contained directory tree with a
//! `manifest.json` fingerprinting every file. "Authors may choose to
//! either add all the created artifacts to the released repository or to
//! specifically select the artifacts they want to publish" (Appendix A);
//! [`Bundle::exclude`] implements the selection.

use crate::archive::{write_tar, TarEntry, TarError};
use crate::sha256::sha256_hex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One manifest row.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ManifestEntry {
    /// Bundle-relative path.
    pub path: String,
    /// File size in bytes.
    pub size: u64,
    /// SHA-256 of the contents, hex.
    pub sha256: String,
}

/// The machine-readable bundle manifest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Manifest {
    /// Experiment name.
    pub experiment: String,
    /// All bundled files, sorted by path.
    pub files: Vec<ManifestEntry>,
}

impl Manifest {
    /// Total bundled bytes.
    pub fn total_size(&self) -> u64 {
        self.files.iter().map(|f| f.size).sum()
    }

    /// The entry at `path`.
    pub fn entry(&self, path: &str) -> Option<&ManifestEntry> {
        self.files.iter().find(|f| f.path == path)
    }
}

/// Errors while bundling.
#[derive(Debug)]
pub enum BundleError {
    /// Filesystem error.
    Io(io::Error),
    /// Archiving error.
    Tar(TarError),
    /// The source directory holds nothing publishable.
    Empty {
        /// The scanned directory.
        dir: PathBuf,
    },
    /// A walked file escaped the scanned root (symlink or concurrent
    /// rename mid-walk).
    Escaped {
        /// The offending path.
        path: PathBuf,
        /// The root the walk started from.
        dir: PathBuf,
    },
    /// The manifest could not be serialized.
    Manifest {
        /// The serializer's explanation.
        reason: String,
    },
}

impl std::fmt::Display for BundleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleError::Io(e) => write!(f, "bundle io error: {e}"),
            BundleError::Tar(e) => write!(f, "bundle archive error: {e}"),
            BundleError::Empty { dir } => {
                write!(f, "nothing to publish under {}", dir.display())
            }
            BundleError::Escaped { path, dir } => write!(
                f,
                "walked file {} escaped bundle root {}",
                path.display(),
                dir.display()
            ),
            BundleError::Manifest { reason } => {
                write!(f, "manifest does not serialize: {reason}")
            }
        }
    }
}

impl std::error::Error for BundleError {}

impl From<io::Error> for BundleError {
    fn from(e: io::Error) -> Self {
        BundleError::Io(e)
    }
}

impl From<TarError> for BundleError {
    fn from(e: TarError) -> Self {
        BundleError::Tar(e)
    }
}

/// An in-memory artifact bundle.
#[derive(Debug, Clone)]
pub struct Bundle {
    experiment: String,
    files: BTreeMap<String, Vec<u8>>,
}

impl Bundle {
    /// An empty bundle.
    pub fn new(experiment: impl Into<String>) -> Bundle {
        Bundle {
            experiment: experiment.into(),
            files: BTreeMap::new(),
        }
    }

    /// Collects every file under `dir` (recursively) under the prefix
    /// `under` inside the bundle.
    pub fn add_tree(&mut self, dir: &Path, under: &str) -> Result<usize, BundleError> {
        let mut added = 0;
        let mut stack = vec![dir.to_path_buf()];
        while let Some(current) = stack.pop() {
            let mut entries: Vec<PathBuf> = fs::read_dir(&current)?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .collect();
            entries.sort();
            for path in entries {
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let rel = path
                        .strip_prefix(dir)
                        .map_err(|_| BundleError::Escaped {
                            path: path.clone(),
                            dir: dir.to_path_buf(),
                        })?
                        .to_string_lossy()
                        .replace('\\', "/");
                    let key = if under.is_empty() {
                        rel
                    } else {
                        format!("{}/{rel}", under.trim_end_matches('/'))
                    };
                    self.files.insert(key, fs::read(&path)?);
                    added += 1;
                }
            }
        }
        Ok(added)
    }

    /// Adds a single in-memory file (e.g. a generated figure).
    pub fn add_file(&mut self, path: impl Into<String>, data: impl Into<Vec<u8>>) {
        self.files.insert(path.into(), data.into());
    }

    /// Removes all files whose path starts with `prefix` — the author's
    /// artifact selection. Returns how many were removed.
    pub fn exclude(&mut self, prefix: &str) -> usize {
        let keys: Vec<String> = self
            .files
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        for k in &keys {
            self.files.remove(k);
        }
        keys.len()
    }

    /// Number of bundled files (manifest excluded).
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when nothing is bundled.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Paths in the bundle.
    pub fn paths(&self) -> impl Iterator<Item = &String> {
        self.files.keys()
    }

    /// Contents of a bundled file.
    pub fn get(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(Vec::as_slice)
    }

    /// Serializes `manifest` as pretty JSON, surfacing serializer
    /// failures as a typed error instead of a panic.
    fn manifest_json(manifest: &Manifest) -> Result<String, BundleError> {
        serde_json::to_string_pretty(manifest).map_err(|e| BundleError::Manifest {
            reason: e.to_string(),
        })
    }

    /// Builds the manifest over the current contents.
    pub fn manifest(&self) -> Manifest {
        Manifest {
            experiment: self.experiment.clone(),
            files: self
                .files
                .iter()
                .map(|(path, data)| ManifestEntry {
                    path: path.clone(),
                    size: data.len() as u64,
                    sha256: sha256_hex(data),
                })
                .collect(),
        }
    }

    /// Writes the bundle (manifest included) as a directory tree.
    pub fn write_dir(&self, out: &Path) -> Result<Manifest, BundleError> {
        if self.is_empty() {
            return Err(BundleError::Empty {
                dir: out.to_path_buf(),
            });
        }
        let manifest = self.manifest();
        for (path, data) in &self.files {
            let dest = out.join(path);
            if let Some(parent) = dest.parent() {
                fs::create_dir_all(parent)?;
            }
            fs::write(dest, data)?;
        }
        fs::create_dir_all(out)?;
        fs::write(out.join("manifest.json"), Bundle::manifest_json(&manifest)?)?;
        Ok(manifest)
    }

    /// Writes the bundle (manifest included) as a tar archive.
    pub fn write_tar(&self, sink: impl io::Write) -> Result<Manifest, BundleError> {
        let manifest = self.manifest();
        let mut entries: Vec<TarEntry> = vec![TarEntry {
            path: "manifest.json".into(),
            data: Bundle::manifest_json(&manifest)?.into_bytes(),
        }];
        entries.extend(self.files.iter().map(|(path, data)| TarEntry {
            path: path.clone(),
            data: data.clone(),
        }));
        write_tar(sink, &entries)?;
        Ok(manifest)
    }
}

/// Verifies a written bundle directory against its manifest. Returns the
/// paths that are missing or whose hash differs.
pub fn verify_dir(dir: &Path) -> Result<Vec<String>, BundleError> {
    let manifest: Manifest = serde_json::from_str(&fs::read_to_string(dir.join("manifest.json"))?)
        .map_err(|e| BundleError::Io(io::Error::new(io::ErrorKind::InvalidData, e)))?;
    let mut bad = Vec::new();
    for entry in &manifest.files {
        match fs::read(dir.join(&entry.path)) {
            Ok(data) if sha256_hex(&data) == entry.sha256 => {}
            _ => bad.push(entry.path.clone()),
        }
    }
    Ok(bad)
}

/// Verifies the per-run checksum manifests of a *source* result tree
/// before it is bundled: every `run-*` directory must carry a
/// `checksums.json` whose entries all match the artifacts on disk.
///
/// Returns human-readable problem strings (empty = all runs verified).
/// This is the publication-side counterpart of `pos fsck`: it stops a
/// release from baptising bit-rotted or truncated run data with fresh
/// bundle hashes.
pub fn verify_runs(result_dir: &Path) -> Result<Vec<String>, BundleError> {
    use pos_core::resultstore::ResultStore;
    let mut problems = Vec::new();
    for run_dir in ResultStore::open(result_dir).list_runs()? {
        let name = run_dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| run_dir.display().to_string());
        match ResultStore::verify_run(&run_dir) {
            Ok(v) if v.is_clean() => {}
            Ok(v) => {
                for f in v.missing {
                    problems.push(format!("{name}: missing {f}"));
                }
                for f in v.corrupt {
                    problems.push(format!("{name}: corrupt {f}"));
                }
                for f in v.extra {
                    problems.push(format!("{name}: unlisted {f}"));
                }
            }
            Err(e) => problems.push(format!("{name}: no readable checksum manifest ({e})")),
        }
    }
    Ok(problems)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_testutil::TempDir;

    fn sample_tree(name: &str) -> TempDir {
        let dir = TempDir::new(&format!("bundle-{name}"));
        fs::create_dir_all(dir.join("run-0000")).unwrap();
        fs::write(dir.join("topology.txt"), "a:0 <-> b:0\n").unwrap();
        fs::write(dir.join("run-0000/metadata.json"), "{}").unwrap();
        fs::write(dir.join("run-0000/loadgen_measurement.log"), "TX: 1\n").unwrap();
        dir
    }

    #[test]
    fn add_tree_collects_recursively() {
        let tree = sample_tree("collect");
        let mut b = Bundle::new("router");
        let n = b.add_tree(&tree, "results").unwrap();
        assert_eq!(n, 3);
        assert!(b.get("results/topology.txt").is_some());
        assert!(b.get("results/run-0000/metadata.json").is_some());
    }

    #[test]
    fn manifest_hashes_content() {
        let mut b = Bundle::new("router");
        b.add_file("figures/plot.svg", "<svg/>");
        let m = b.manifest();
        assert_eq!(m.files.len(), 1);
        let e = m.entry("figures/plot.svg").unwrap();
        assert_eq!(e.size, 6);
        assert_eq!(e.sha256, sha256_hex(b"<svg/>"));
        assert_eq!(m.total_size(), 6);
    }

    #[test]
    fn exclude_selects_artifacts() {
        let mut b = Bundle::new("router");
        b.add_file("results/raw/huge.pcap", vec![0u8; 10]);
        b.add_file("results/summary.csv", "a,b\n");
        b.add_file("figures/plot.svg", "<svg/>");
        let removed = b.exclude("results/raw/");
        assert_eq!(removed, 1);
        assert_eq!(b.len(), 2);
        assert!(b.get("results/raw/huge.pcap").is_none());
    }

    #[test]
    fn write_dir_then_verify_ok() {
        let tree = sample_tree("verify");
        let mut b = Bundle::new("router");
        b.add_tree(&tree, "results").unwrap();
        b.add_file("figures/throughput.svg", "<svg/>");
        let out = TempDir::new("bundle-verify-out");
        let manifest = b.write_dir(&out).unwrap();
        assert_eq!(manifest.files.len(), 4);
        assert!(out.join("manifest.json").exists());
        assert_eq!(verify_dir(&out).unwrap(), Vec::<String>::new());
    }

    #[test]
    fn verify_detects_tampering() {
        let tree = sample_tree("tamper");
        let mut b = Bundle::new("router");
        b.add_tree(&tree, "results").unwrap();
        let out = TempDir::new("bundle-tamper-out");
        b.write_dir(&out).unwrap();
        fs::write(out.join("results/topology.txt"), "FORGED").unwrap();
        fs::remove_file(out.join("results/run-0000/metadata.json")).unwrap();
        let mut bad = verify_dir(&out).unwrap();
        bad.sort();
        assert_eq!(
            bad,
            vec![
                "results/run-0000/metadata.json".to_string(),
                "results/topology.txt".to_string(),
            ]
        );
    }

    #[test]
    fn empty_bundle_rejected() {
        let b = Bundle::new("router");
        assert!(matches!(
            b.write_dir(&TempDir::new("bundle-empty")),
            Err(BundleError::Empty { .. })
        ));
    }

    #[test]
    fn tar_export_contains_manifest_first() {
        let mut b = Bundle::new("router");
        b.add_file("a.txt", "data");
        let mut buf = Vec::new();
        b.write_tar(&mut buf).unwrap();
        let entries = crate::archive::read_tar(&buf).unwrap();
        assert_eq!(entries[0].path, "manifest.json");
        let m: Manifest = serde_json::from_slice(&entries[0].data).unwrap();
        assert_eq!(m.experiment, "router");
        assert_eq!(entries[1].path, "a.txt");
    }

    #[test]
    fn verify_runs_checks_run_manifests() {
        use pos_core::resultstore::ResultStore;
        let root = TempDir::new("bundle-runverify");
        let store = ResultStore::open(&root);
        store
            .write_run_file(0, "loadgen_measurement.log", "TX: 1\n")
            .unwrap();
        store.finalize_run(0).unwrap();
        assert_eq!(verify_runs(&root).unwrap(), Vec::<String>::new());

        fs::write(root.join("run-0000/loadgen_measurement.log"), "FORGED").unwrap();
        assert_eq!(
            verify_runs(&root).unwrap(),
            vec!["run-0000: corrupt loadgen_measurement.log".to_string()]
        );

        // A run directory without a manifest is incomplete: also a problem.
        fs::create_dir_all(root.join("run-0001")).unwrap();
        let problems = verify_runs(&root).unwrap();
        assert_eq!(problems.len(), 2);
        assert!(problems[1].starts_with("run-0001: no readable checksum manifest"));
    }

    #[test]
    fn bundle_is_deterministic() {
        let tree = sample_tree("det");
        let build = || {
            let mut b = Bundle::new("router");
            b.add_tree(&tree, "results").unwrap();
            let mut buf = Vec::new();
            b.write_tar(&mut buf).unwrap();
            buf
        };
        assert_eq!(build(), build());
    }
}
