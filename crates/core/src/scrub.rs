//! Bit-rot detection and self-healing repair of result trees
//! (`pos scrub`).
//!
//! `fsck` answers *is this tree intact?*; scrub answers *and if not, how
//! do we get the bytes back?* It walks every run directory against its
//! `checksums.json` manifest and the journaled run digest, classifies
//! each finding, and — in repair mode — heals what it can without
//! re-running the experiment:
//!
//! * **Corrupt or missing artifacts** are restored from *redundant
//!   copies*: a sweep's runs share many byte-identical artifacts (status
//!   files, repeated-parameter outputs, lane copies of replicated runs),
//!   so scrub builds a content-addressed index of every artifact that
//!   still matches its manifest hash and copies the bytes back from any
//!   donor. The manifest hash proves the restored file is exactly the
//!   original.
//! * **Rotted manifests** (journal digest mismatch) are rebuilt from the
//!   artifacts themselves; if the rebuilt manifest hashes to the
//!   journaled digest, the artifacts were fine and only the manifest had
//!   rotted.
//! * **Unlisted extra files** in a sealed run are deleted — the
//!   journal-anchored manifest is the root of trust.
//!
//! What redundancy cannot heal (no donor anywhere, a missing run
//! directory) is classified as *re-execution required*: the `pos scrub
//! --repair` CLI hands those runs to the same resume machinery that
//! repairs damaged finished trees, which wipes and re-executes exactly
//! the broken runs — spec + seed permitting — and converges the tree
//! back to byte-identical.
//!
//! The report is machine-readable (`--json`) so CI and fleet tooling can
//! act on scrub results without parsing prose.

use crate::fsck::{fsck, RunStatus};
use crate::hash::sha256_hex;
use crate::resultstore::{ResultStore, RunManifest, MANIFEST_FILE};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What kind of damage a finding describes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FindingKind {
    /// An artifact's bytes no longer match its manifest hash.
    CorruptArtifact,
    /// A manifest-listed artifact is absent on disk.
    MissingArtifact,
    /// A file the manifest does not know about sits in a sealed run.
    ExtraArtifact,
    /// The manifest itself fails the journaled run digest.
    ManifestMismatch,
    /// A journaled-complete run directory is gone entirely.
    MissingRun,
    /// A run directory with no completion record (crash artifact).
    IncompleteRun,
    /// Tree-level damage (unreadable/corrupt journal, stranded run).
    TreeError,
}

/// What scrub did (or could do) about a finding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RepairOutcome {
    /// Detection-only mode; no repair attempted.
    NotAttempted,
    /// Bytes restored from a redundant copy elsewhere in the tree.
    RestoredFromCopy {
        /// Tree-relative path of the donor file.
        source: String,
    },
    /// The manifest was rebuilt from intact artifacts and re-hashed to
    /// the journaled digest.
    ManifestRebuilt,
    /// The unlisted file was deleted.
    ExtraRemoved,
    /// No donor exists; only re-executing the run can heal this.
    NeedsReexecution,
    /// Scrub cannot heal this at all (e.g. a corrupt journal — the root
    /// of trust itself).
    Unrepairable,
}

/// One piece of damage scrub found.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScrubFinding {
    /// Zero-based run index, when the damage is run-scoped.
    pub run: Option<usize>,
    /// File name inside the run directory, when file-scoped.
    pub file: Option<String>,
    /// Damage classification.
    pub kind: FindingKind,
    /// Human-readable detail.
    pub detail: String,
    /// What happened to it.
    pub repair: RepairOutcome,
}

/// Machine-readable scrub result.
#[derive(Debug, Serialize, Deserialize)]
pub struct ScrubReport {
    /// The scrubbed tree.
    pub result_dir: String,
    /// Run directories examined.
    pub runs_scanned: usize,
    /// Artifact files checked against a manifest hash.
    pub files_scanned: usize,
    /// Everything found wrong, in run/file order.
    pub findings: Vec<ScrubFinding>,
    /// Findings healed in place (restored, rebuilt, or removed).
    pub repaired: usize,
    /// Runs that need re-execution to converge (sorted, deduplicated).
    pub reexecution_required: Vec<usize>,
    /// True when the tree had zero findings.
    pub clean: bool,
}

impl ScrubReport {
    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> io::Result<String> {
        serde_json::to_string_pretty(self)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Renders the human-readable report (`pos scrub` output).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scrub {}\n", self.result_dir));
        out.push_str(&format!(
            "scanned: {} run(s), {} file(s)\n",
            self.runs_scanned, self.files_scanned
        ));
        for f in &self.findings {
            let loc = match (f.run, &f.file) {
                (Some(run), Some(file)) => format!("run {run:04} {file}"),
                (Some(run), None) => format!("run {run:04}"),
                _ => "tree".to_string(),
            };
            let fix = match &f.repair {
                RepairOutcome::NotAttempted => String::new(),
                RepairOutcome::RestoredFromCopy { source } => {
                    format!(" — restored from {source}")
                }
                RepairOutcome::ManifestRebuilt => " — manifest rebuilt from artifacts".into(),
                RepairOutcome::ExtraRemoved => " — removed".into(),
                RepairOutcome::NeedsReexecution => " — re-execution required".into(),
                RepairOutcome::Unrepairable => " — UNREPAIRABLE".into(),
            };
            out.push_str(&format!("finding: {loc}: {}{fix}\n", f.detail));
        }
        if self.clean {
            out.push_str("status: clean, zero findings\n");
        } else {
            out.push_str(&format!(
                "status: {} finding(s), {} repaired in place{}\n",
                self.findings.len(),
                self.repaired,
                if self.reexecution_required.is_empty() {
                    String::new()
                } else {
                    format!(", re-execution required: {:?}", self.reexecution_required)
                }
            ));
        }
        out
    }
}

/// Content-addressed index over every artifact in the tree that still
/// matches its manifest hash: hash → tree-relative donor path. Built
/// lazily, only when a repair actually needs a donor.
struct DonorIndex {
    by_hash: BTreeMap<String, PathBuf>,
}

impl DonorIndex {
    fn build(result_dir: &Path) -> io::Result<DonorIndex> {
        let store = ResultStore::open(result_dir);
        let mut by_hash = BTreeMap::new();
        for run_dir in store.list_runs()? {
            let manifest = match read_manifest(&run_dir) {
                Some(m) => m,
                None => continue,
            };
            for (name, want) in &manifest.files {
                if by_hash.contains_key(want) {
                    continue;
                }
                let path = run_dir.join(name);
                if let Ok(bytes) = fs::read(&path) {
                    if &sha256_hex(&bytes) == want {
                        by_hash.insert(want.clone(), path);
                    }
                }
            }
        }
        Ok(DonorIndex { by_hash })
    }

    fn donate(&self, hash: &str) -> Option<&PathBuf> {
        self.by_hash.get(hash)
    }
}

fn read_manifest(run_dir: &Path) -> Option<RunManifest> {
    let text = fs::read_to_string(run_dir.join(MANIFEST_FILE)).ok()?;
    serde_json::from_str(&text).ok()
}

fn rel_to(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .into_owned()
}

/// Walks `result_dir` against its manifests and journaled digests,
/// reporting (and with `repair` healing) every divergence. Re-execution
/// itself is the caller's job — the CLI hands
/// [`ScrubReport::reexecution_required`] to the resume machinery.
pub fn scrub(result_dir: &Path, repair: bool) -> io::Result<ScrubReport> {
    let fsck_report = fsck(result_dir)?;
    let store = ResultStore::open(result_dir);

    let mut report = ScrubReport {
        result_dir: result_dir.display().to_string(),
        runs_scanned: 0,
        files_scanned: 0,
        findings: Vec::new(),
        repaired: 0,
        reexecution_required: Vec::new(),
        clean: false,
    };

    // Count the surface actually checked: every manifest entry of every
    // run directory on disk.
    for run_dir in store.list_runs()? {
        report.runs_scanned += 1;
        if let Some(m) = read_manifest(&run_dir) {
            report.files_scanned += m.files.len();
        }
    }

    let mut donors: Option<DonorIndex> = None;
    let need_donors = |donors: &mut Option<DonorIndex>| -> io::Result<()> {
        if donors.is_none() {
            *donors = Some(DonorIndex::build(result_dir)?);
        }
        Ok(())
    };

    for run in &fsck_report.runs {
        let run_dir = result_dir.join(format!("run-{:04}", run.index));
        match &run.status {
            RunStatus::Verified => {}
            RunStatus::Damaged(v) => {
                // The manifest digest matched the journal, so the
                // manifest is the trustworthy description of this run;
                // heal the artifacts toward it.
                let manifest = read_manifest(&run_dir);
                for (names, kind) in [
                    (&v.corrupt, FindingKind::CorruptArtifact),
                    (&v.missing, FindingKind::MissingArtifact),
                ] {
                    for name in names {
                        let mut repair_outcome = RepairOutcome::NotAttempted;
                        if repair {
                            need_donors(&mut donors)?;
                            let want = manifest.as_ref().and_then(|m| m.files.get(name));
                            let donor = want
                                .and_then(|w| donors.as_ref().and_then(|d| d.donate(w)))
                                .cloned();
                            match donor {
                                Some(src) => {
                                    let bytes = fs::read(&src)?;
                                    store.write(&format!("run-{:04}/{name}", run.index), &bytes)?;
                                    report.repaired += 1;
                                    repair_outcome = RepairOutcome::RestoredFromCopy {
                                        source: rel_to(result_dir, &src),
                                    };
                                }
                                None => {
                                    repair_outcome = RepairOutcome::NeedsReexecution;
                                    report.reexecution_required.push(run.index);
                                }
                            }
                        }
                        report.findings.push(ScrubFinding {
                            run: Some(run.index),
                            file: Some(name.clone()),
                            kind: kind.clone(),
                            detail: match kind {
                                FindingKind::CorruptArtifact => {
                                    "bytes diverge from manifest hash (bit rot)".into()
                                }
                                _ => "listed in manifest but absent on disk".into(),
                            },
                            repair: repair_outcome,
                        });
                    }
                }
                for name in &v.extra {
                    let mut repair_outcome = RepairOutcome::NotAttempted;
                    if repair {
                        fs::remove_file(run_dir.join(name))?;
                        report.repaired += 1;
                        repair_outcome = RepairOutcome::ExtraRemoved;
                    }
                    report.findings.push(ScrubFinding {
                        run: Some(run.index),
                        file: Some(name.clone()),
                        kind: FindingKind::ExtraArtifact,
                        detail: "file not listed in the sealed manifest".into(),
                        repair: repair_outcome,
                    });
                }
            }
            RunStatus::DigestMismatch { journaled, .. } => {
                let mut repair_outcome = RepairOutcome::NotAttempted;
                if repair {
                    // If only the manifest rotted, resealing the intact
                    // artifacts reproduces the journaled digest exactly.
                    let rebuilt = store.finalize_run(run.index)?;
                    if &rebuilt == journaled {
                        report.repaired += 1;
                        repair_outcome = RepairOutcome::ManifestRebuilt;
                    } else {
                        repair_outcome = RepairOutcome::NeedsReexecution;
                        report.reexecution_required.push(run.index);
                    }
                }
                report.findings.push(ScrubFinding {
                    run: Some(run.index),
                    file: Some(MANIFEST_FILE.into()),
                    kind: FindingKind::ManifestMismatch,
                    detail: "manifest does not hash to the journaled run digest".into(),
                    repair: repair_outcome,
                });
            }
            RunStatus::Missing => {
                let repair_outcome = if repair {
                    report.reexecution_required.push(run.index);
                    RepairOutcome::NeedsReexecution
                } else {
                    RepairOutcome::NotAttempted
                };
                report.findings.push(ScrubFinding {
                    run: Some(run.index),
                    file: None,
                    kind: FindingKind::MissingRun,
                    detail: "journaled complete but directory is missing".into(),
                    repair: repair_outcome,
                });
            }
            RunStatus::Incomplete => {
                let repair_outcome = if repair {
                    report.reexecution_required.push(run.index);
                    RepairOutcome::NeedsReexecution
                } else {
                    RepairOutcome::NotAttempted
                };
                report.findings.push(ScrubFinding {
                    run: Some(run.index),
                    file: None,
                    kind: FindingKind::IncompleteRun,
                    detail: "no completion record (interrupted run)".into(),
                    repair: repair_outcome,
                });
            }
        }
    }

    for e in &fsck_report.errors {
        report.findings.push(ScrubFinding {
            run: None,
            file: None,
            kind: FindingKind::TreeError,
            detail: e.clone(),
            repair: if repair {
                RepairOutcome::Unrepairable
            } else {
                RepairOutcome::NotAttempted
            },
        });
    }

    report.reexecution_required.sort_unstable();
    report.reexecution_required.dedup();
    report.clean = report.findings.is_empty();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Journal, JournalRecord, JOURNAL_FILE};
    use pos_simkernel::SimTime;
    use pos_testutil::TempDir;

    /// A two-run sealed tree with a complete journal. Both runs carry an
    /// identical status artifact (the redundancy donor) plus a unique
    /// log each, under the returned scratch root.
    fn sealed_tree(name: &str) -> (PathBuf, TempDir) {
        let root = TempDir::new(&format!("scrub-{name}"));
        let store = ResultStore::create(&root, "u", "e", SimTime::ZERO).unwrap();
        let dir = store.dir().to_path_buf();
        let mut journal = Journal::create(dir.join(JOURNAL_FILE)).unwrap();
        journal
            .append(&JournalRecord::CampaignStarted {
                seed: 1,
                spec_digest: "d".repeat(64),
                total_runs: 2,
                testbed: "pos".into(),
                started_ns: 0,
            })
            .unwrap();
        for index in 0..2usize {
            store
                .write_run_output(index, "loadgen", &format!("RX: {index} packets\n"), "", 0)
                .unwrap();
            let digest = store.finalize_run(index).unwrap();
            journal
                .append(&JournalRecord::RunCompleted {
                    index,
                    success: true,
                    attempts: 1,
                    recoveries: 0,
                    recovery_time_ns: 0,
                    started_ns: 0,
                    finished_ns: 1,
                    rng_cursor: 0,
                    digest,
                    fault_trace: vec![],
                })
                .unwrap();
        }
        journal
            .append(&JournalRecord::CampaignFinished {
                finished_ns: 2,
                succeeded: 2,
                failed: 0,
            })
            .unwrap();
        (dir, root)
    }

    #[test]
    fn clean_tree_scrubs_with_zero_findings() {
        let (dir, _root) = sealed_tree("clean");
        let report = scrub(&dir, false).unwrap();
        assert!(report.clean, "{}", report.render());
        assert!(report.findings.is_empty());
        assert_eq!(report.runs_scanned, 2);
        assert!(report.files_scanned >= 4);
    }

    #[test]
    fn corrupt_artifact_restored_from_redundant_copy() {
        let (dir, _root) = sealed_tree("restore");
        // Both runs share a byte-identical status file; rot one copy.
        let victim = dir.join("run-0001/loadgen_measurement.status");
        let mut bytes = fs::read(&victim).unwrap();
        bytes[0] ^= 0x20;
        fs::write(&victim, bytes).unwrap();

        let detect = scrub(&dir, false).unwrap();
        assert!(!detect.clean);
        assert_eq!(detect.findings.len(), 1);
        assert_eq!(detect.findings[0].kind, FindingKind::CorruptArtifact);
        assert_eq!(detect.findings[0].repair, RepairOutcome::NotAttempted);

        let heal = scrub(&dir, true).unwrap();
        assert_eq!(heal.repaired, 1, "{}", heal.render());
        assert!(matches!(
            heal.findings[0].repair,
            RepairOutcome::RestoredFromCopy { .. }
        ));
        assert!(heal.reexecution_required.is_empty());
        assert!(scrub(&dir, false).unwrap().clean, "healed tree is clean");
    }

    #[test]
    fn unique_artifact_without_donor_needs_reexecution() {
        let (dir, _root) = sealed_tree("reexec");
        // The per-run log is unique — no donor anywhere.
        let victim = dir.join("run-0000/loadgen_measurement.log");
        let mut bytes = fs::read(&victim).unwrap();
        bytes[0] ^= 0x01;
        fs::write(&victim, bytes).unwrap();

        let heal = scrub(&dir, true).unwrap();
        assert_eq!(heal.repaired, 0);
        assert_eq!(heal.reexecution_required, vec![0]);
        assert_eq!(heal.findings[0].repair, RepairOutcome::NeedsReexecution);
    }

    #[test]
    fn rotted_manifest_rebuilt_from_intact_artifacts() {
        let (dir, _root) = sealed_tree("manifest");
        let manifest = dir.join("run-0000").join(MANIFEST_FILE);
        let mut bytes = fs::read(&manifest).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x08;
        fs::write(&manifest, bytes).unwrap();

        let detect = scrub(&dir, false).unwrap();
        assert_eq!(detect.findings[0].kind, FindingKind::ManifestMismatch);

        let heal = scrub(&dir, true).unwrap();
        assert_eq!(heal.findings[0].repair, RepairOutcome::ManifestRebuilt);
        assert!(scrub(&dir, false).unwrap().clean);
    }

    #[test]
    fn extra_file_in_sealed_run_removed() {
        let (dir, _root) = sealed_tree("extra");
        fs::write(dir.join("run-0001/stray.tmp"), b"junk").unwrap();
        let heal = scrub(&dir, true).unwrap();
        assert_eq!(heal.findings[0].kind, FindingKind::ExtraArtifact);
        assert_eq!(heal.findings[0].repair, RepairOutcome::ExtraRemoved);
        assert!(!dir.join("run-0001/stray.tmp").exists());
        assert!(scrub(&dir, false).unwrap().clean);
    }

    #[test]
    fn report_json_roundtrips() {
        let (dir, _root) = sealed_tree("json");
        fs::write(dir.join("run-0000/stray.tmp"), b"junk").unwrap();
        let report = scrub(&dir, false).unwrap();
        let json = report.to_json().unwrap();
        let back: ScrubReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.findings.len(), report.findings.len());
        assert_eq!(back.clean, report.clean);
    }
}
