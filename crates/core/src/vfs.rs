//! Durable-I/O layer with deterministic storage-fault injection.
//!
//! Every byte the controller promises to keep — journal frames, lane
//! journals, result-store artifacts, the queue ledger — goes through a
//! [`Vfs`] handle. The default handle ([`Vfs::real`]) is a transparent
//! pass-through that preserves the existing fsync discipline exactly.
//! A faulty handle ([`Vfs::faulty`]) carries a [`FaultPlan`]: a seeded,
//! serializable list of disk faults that fire deterministically as the
//! campaign writes, mirroring the testbed's `ChaosPlan` design — every
//! storage failure is data, not wall-clock luck, so the same plan
//! reproduces the same broken tree bit-for-bit.
//!
//! The fault taxonomy covers the storage failures a long campaign
//! actually meets:
//!
//! * [`DiskFault::Enospc`] — the disk fills after a byte budget; the
//!   failing write lands a partial prefix (real `write(2)` under ENOSPC
//!   writes what fits) and the error carries
//!   [`io::ErrorKind::StorageFull`], exactly like the genuine errno 28.
//! * [`DiskFault::TornWrite`] — a chosen write persists only its first
//!   `keep_bytes` bytes (a sector tear / powercut mid-`write`).
//! * [`DiskFault::FsyncFail`] — a chosen fsync reports failure after the
//!   data reached the page cache: the bytes may be on disk but were
//!   never promised, so the writer must not treat them as durable.
//! * [`DiskFault::BitFlip`] — post-hoc bit rot in a named file of a
//!   finished tree, applied by [`Vfs::apply_bit_flips`]; this is what
//!   `pos scrub` exists to catch.
//!
//! Faults carry an optional `file` suffix filter so a test can pin, say,
//! ENOSPC to the campaign journal while the result store keeps writing.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Raw errno for "No space left on device"; building the injected error
/// from the OS code makes `kind()` report [`io::ErrorKind::StorageFull`]
/// exactly like a genuine ENOSPC from the kernel.
const ENOSPC_ERRNO: i32 = 28;

/// Constructs the error an injected (or real) full disk produces.
pub fn enospc_error() -> io::Error {
    io::Error::from_raw_os_error(ENOSPC_ERRNO)
}

/// True when `e` means the storage medium is full.
pub fn is_storage_full(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::StorageFull || e.raw_os_error() == Some(ENOSPC_ERRNO)
}

/// One deterministic storage fault.
///
/// Write- and fsync-indexed faults count only operations whose target
/// path matches the `file` suffix filter (all operations when `None`),
/// so a plan can aim at `journal.log` without caring how many artifacts
/// the store writes in between.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DiskFault {
    /// The disk fills once `after_bytes` matching bytes have been
    /// written: the failing write persists the prefix that still fit and
    /// returns [`io::ErrorKind::StorageFull`].
    Enospc {
        /// Byte budget before the device reports full.
        after_bytes: u64,
        /// Optional path-suffix filter (e.g. `"journal.log"`).
        file: Option<String>,
    },
    /// The zero-based `at_write`-th matching write persists only its
    /// first `keep_bytes` bytes, then fails with
    /// [`io::ErrorKind::Interrupted`] — a powercut mid-`write(2)`.
    TornWrite {
        /// Zero-based index of the write operation to tear.
        at_write: u64,
        /// Bytes of the torn write that reach the disk.
        keep_bytes: usize,
        /// Optional path-suffix filter.
        file: Option<String>,
    },
    /// The zero-based `at_fsync`-th matching fsync reports failure. The
    /// data was written but never promised durable.
    FsyncFail {
        /// Zero-based index of the fsync operation to fail.
        at_fsync: u64,
        /// Optional path-suffix filter.
        file: Option<String>,
    },
    /// Post-hoc bit rot: XOR `mask` into the byte at `offset` of the
    /// file whose path ends with `file`. Not triggered by writes —
    /// applied to a tree at rest via [`Vfs::apply_bit_flips`].
    BitFlip {
        /// Path-suffix of the victim file (e.g.
        /// `"run-0001/loadgen_measurement.log"`).
        file: String,
        /// Byte offset; reduced modulo the file length.
        offset: u64,
        /// XOR mask; must be non-zero to actually flip something.
        mask: u8,
    },
}

impl DiskFault {
    fn matches(filter: &Option<String>, path: &Path) -> bool {
        match filter {
            None => true,
            Some(sfx) => path.to_string_lossy().ends_with(sfx.as_str()),
        }
    }
}

/// A replayable storage-fault schedule — the disk-level sibling of the
/// testbed's `ChaosPlan`. Serializable so a CLI invocation can load it
/// from a file (`pos run --disk-faults plan.json`) and a report can
/// quote exactly which faults produced a tree.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Provenance seed: identifies the scenario that generated this plan
    /// (plans themselves are explicit, not sampled at fire time).
    pub seed: u64,
    /// The faults, checked in order; the first one that fires on an
    /// operation wins.
    pub faults: Vec<DiskFault>,
}

impl FaultPlan {
    /// A plan with no faults (equivalent to the real VFS).
    pub fn empty(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            faults: Vec::new(),
        }
    }

    /// True when the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Rejects plans that could never fire or would fire as no-ops.
    pub fn validate(&self) -> Result<(), String> {
        for (i, f) in self.faults.iter().enumerate() {
            match f {
                DiskFault::BitFlip { file, mask, .. } => {
                    if file.is_empty() {
                        return Err(format!("fault {i}: BitFlip with empty file suffix"));
                    }
                    if *mask == 0 {
                        return Err(format!("fault {i}: BitFlip with zero mask flips nothing"));
                    }
                }
                DiskFault::Enospc { file, .. }
                | DiskFault::TornWrite { file, .. }
                | DiskFault::FsyncFail { file, .. } => {
                    if matches!(file, Some(s) if s.is_empty()) {
                        return Err(format!("fault {i}: empty file suffix matches nothing"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Per-fault runtime counters. Each write/fsync-indexed fault advances
/// its own counter only on matching operations, so two faults with
/// different filters fire independently and deterministically.
#[derive(Debug)]
struct FaultRuntime {
    plan: FaultPlan,
    /// Matching bytes counted so far, per fault (Enospc budget).
    bytes: Vec<u64>,
    /// Matching writes counted so far, per fault (TornWrite index).
    writes: Vec<u64>,
    /// Matching fsyncs counted so far, per fault (FsyncFail index).
    fsyncs: Vec<u64>,
    /// One-shot latch: a fired fault never fires again.
    tripped: Vec<bool>,
}

impl FaultRuntime {
    fn new(plan: FaultPlan) -> FaultRuntime {
        let n = plan.faults.len();
        FaultRuntime {
            plan,
            bytes: vec![0; n],
            writes: vec![0; n],
            fsyncs: vec![0; n],
            tripped: vec![false; n],
        }
    }

    /// Accounts a write of `len` bytes to `path`. Returns `Ok(())` when
    /// the write may proceed in full, or `Err((keep, error))`: persist
    /// only the first `keep` bytes, then surface `error`.
    fn on_write(&mut self, path: &Path, len: usize) -> Result<(), (usize, io::Error)> {
        for i in 0..self.plan.faults.len() {
            if self.tripped[i] {
                continue;
            }
            match &self.plan.faults[i] {
                DiskFault::Enospc { after_bytes, file } if DiskFault::matches(file, path) => {
                    let left = after_bytes.saturating_sub(self.bytes[i]);
                    if (len as u64) > left {
                        self.tripped[i] = true;
                        return Err((left as usize, enospc_error()));
                    }
                    self.bytes[i] += len as u64;
                }
                DiskFault::TornWrite {
                    at_write,
                    keep_bytes,
                    file,
                } if DiskFault::matches(file, path) => {
                    if self.writes[i] == *at_write {
                        self.tripped[i] = true;
                        let keep = (*keep_bytes).min(len);
                        return Err((
                            keep,
                            io::Error::new(
                                io::ErrorKind::Interrupted,
                                format!("injected torn write to {}", path.display()),
                            ),
                        ));
                    }
                    self.writes[i] += 1;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Accounts an fsync of `path`. `Err` means the fsync must report
    /// failure (the data is written but not promised).
    fn on_fsync(&mut self, path: &Path) -> io::Result<()> {
        for i in 0..self.plan.faults.len() {
            if self.tripped[i] {
                continue;
            }
            if let DiskFault::FsyncFail { at_fsync, file } = &self.plan.faults[i] {
                if DiskFault::matches(file, path) {
                    if self.fsyncs[i] == *at_fsync {
                        self.tripped[i] = true;
                        return Err(io::Error::other(format!(
                            "injected fsync failure on {}",
                            path.display()
                        )));
                    }
                    self.fsyncs[i] += 1;
                }
            }
        }
        Ok(())
    }
}

/// Handle to the durable-I/O layer. Cheap to clone; clones of a faulty
/// handle share one fault schedule, so counters advance campaign-wide
/// no matter which component (journal, store, scheduler lane) writes.
#[derive(Debug, Clone, Default)]
pub struct Vfs {
    faults: Option<Arc<Mutex<FaultRuntime>>>,
}

impl Vfs {
    /// The real VFS: a transparent pass-through with the historical
    /// fsync discipline. This is the default everywhere.
    pub fn real() -> Vfs {
        Vfs { faults: None }
    }

    /// A VFS that injects `plan`'s faults deterministically. Rejects
    /// invalid plans (see [`FaultPlan::validate`]).
    pub fn faulty(plan: FaultPlan) -> io::Result<Vfs> {
        plan.validate()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        Ok(Vfs {
            faults: Some(Arc::new(Mutex::new(FaultRuntime::new(plan)))),
        })
    }

    /// True when this handle carries a fault plan.
    pub fn is_faulty(&self) -> bool {
        self.faults.is_some()
    }

    /// The fault plan, if any (for reports and journaling).
    pub fn plan(&self) -> Option<FaultPlan> {
        self.faults
            .as_ref()
            .map(|f| f.lock().expect("vfs fault state lock").plan.clone())
    }

    fn check_write(&self, path: &Path, len: usize) -> Result<(), (usize, io::Error)> {
        match &self.faults {
            None => Ok(()),
            Some(rt) => rt.lock().expect("vfs fault state lock").on_write(path, len),
        }
    }

    fn sync_file(&self, path: &Path, f: &fs::File) -> io::Result<()> {
        if let Some(rt) = &self.faults {
            rt.lock().expect("vfs fault state lock").on_fsync(path)?;
        }
        f.sync_all()
    }

    /// Creates (truncating) an empty file and fsyncs it — how a journal
    /// is born.
    pub fn create_sync(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let f = fs::File::create(path)?;
        self.sync_file(path, &f)
    }

    /// Appends `bytes` to `path` and fsyncs before returning — the
    /// journal's write-ahead primitive. Under an injected fault the
    /// allowed prefix still lands (and is synced) so the on-disk
    /// artifact is exactly what a real tear/full disk leaves.
    pub fn append_sync(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.check_write(path, bytes.len()) {
            Ok(()) => {
                let mut f = fs::OpenOptions::new().append(true).open(path)?;
                f.write_all(bytes)?;
                self.sync_file(path, &f)
            }
            Err((keep, err)) => {
                if keep > 0 {
                    let mut f = fs::OpenOptions::new().append(true).open(path)?;
                    f.write_all(&bytes[..keep])?;
                    f.sync_all()?;
                }
                Err(err)
            }
        }
    }

    /// Truncates `path` to `new_len` bytes and fsyncs — how a reopened
    /// journal sheds a torn tail.
    pub fn truncate_sync(&self, path: &Path, new_len: u64) -> io::Result<()> {
        let f = fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(new_len)?;
        self.sync_file(path, &f)
    }

    /// Atomically writes `contents` to `path`: temp sibling → fsync →
    /// rename → parent directory fsync. Readers never see partial
    /// content; under an injected fault the temp file is removed and the
    /// target is untouched — atomicity holds even on a full disk.
    pub fn atomic_write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        let parent = path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("no parent directory for {}", path.display()),
                )
            })?;
        fs::create_dir_all(parent)?;
        let file_name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("artifact");
        let tmp = parent.join(format!(".{file_name}.tmp"));
        let res = (|| {
            let mut f = fs::File::create(&tmp)?;
            match self.check_write(path, contents.len()) {
                Ok(()) => f.write_all(contents)?,
                Err((keep, err)) => {
                    f.write_all(&contents[..keep])?;
                    return Err(err);
                }
            }
            self.sync_file(path, &f)
        })();
        if let Err(e) = res {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, path)?;
        // The rename is only durable once the directory entry is flushed.
        fs::File::open(parent)?.sync_all()?;
        Ok(())
    }

    /// Reads a file. Reads are never faulted — bit rot is modeled at
    /// rest via [`Vfs::apply_bit_flips`], not as transient read errors.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    /// Applies every [`DiskFault::BitFlip`] of the plan to the tree
    /// under `root`: for each fault, the first file (walk in sorted
    /// order) whose path ends with the fault's suffix gets `mask` XORed
    /// into the byte at `offset % len`. Returns the damaged paths.
    ///
    /// This is the "tree at rest" half of the fault model: campaigns
    /// write through the faultable primitives above, then bit rot is
    /// stamped onto the finished artifacts for `pos scrub` to find.
    pub fn apply_bit_flips(&self, root: &Path) -> io::Result<Vec<PathBuf>> {
        let plan = match self.plan() {
            Some(p) => p,
            None => return Ok(Vec::new()),
        };
        let mut flipped = Vec::new();
        for fault in &plan.faults {
            if let DiskFault::BitFlip { file, offset, mask } = fault {
                if let Some(path) = find_by_suffix(root, file)? {
                    let mut bytes = fs::read(&path)?;
                    if bytes.is_empty() {
                        continue;
                    }
                    let at = (*offset as usize) % bytes.len();
                    bytes[at] ^= mask;
                    fs::write(&path, &bytes)?;
                    flipped.push(path);
                }
            }
        }
        Ok(flipped)
    }
}

/// Depth-first sorted walk for the first file whose path ends with
/// `suffix`.
fn find_by_suffix(root: &Path, suffix: &str) -> io::Result<Option<PathBuf>> {
    let mut entries: Vec<PathBuf> = fs::read_dir(root)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in &entries {
        if path.is_dir() {
            if let Some(found) = find_by_suffix(path, suffix)? {
                return Ok(Some(found));
            }
        } else if path.to_string_lossy().ends_with(suffix) {
            return Ok(Some(path.clone()));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_testutil::TempDir;

    fn faulty(faults: Vec<DiskFault>) -> Vfs {
        Vfs::faulty(FaultPlan { seed: 1, faults }).unwrap()
    }

    #[test]
    fn real_vfs_appends_and_atomic_writes() {
        let dir = TempDir::new("vfs-real");
        let vfs = Vfs::real();
        assert!(!vfs.is_faulty());
        let log = dir.join("a.log");
        vfs.create_sync(&log).unwrap();
        vfs.append_sync(&log, b"one").unwrap();
        vfs.append_sync(&log, b"two").unwrap();
        assert_eq!(fs::read(&log).unwrap(), b"onetwo");
        vfs.atomic_write(&dir.join("b.txt"), b"hello").unwrap();
        assert_eq!(fs::read(dir.join("b.txt")).unwrap(), b"hello");
    }

    #[test]
    fn enospc_fires_after_budget_and_lands_partial_prefix() {
        let dir = TempDir::new("vfs-enospc");
        let vfs = faulty(vec![DiskFault::Enospc {
            after_bytes: 10,
            file: None,
        }]);
        let log = dir.join("j.log");
        vfs.create_sync(&log).unwrap();
        vfs.append_sync(&log, b"12345678").unwrap(); // 8 of 10
        let err = vfs.append_sync(&log, b"abcdef").unwrap_err();
        assert!(is_storage_full(&err), "{err:?}");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        // 2 bytes of budget were left; exactly those landed.
        assert_eq!(fs::read(&log).unwrap(), b"12345678ab");
        // The fault is one-shot: space "returns" afterwards.
        vfs.append_sync(&log, b"cdef").unwrap();
    }

    #[test]
    fn enospc_filter_spares_other_files() {
        let dir = TempDir::new("vfs-enospc-filter");
        let vfs = faulty(vec![DiskFault::Enospc {
            after_bytes: 0,
            file: Some("journal.log".into()),
        }]);
        vfs.atomic_write(&dir.join("artifact.txt"), b"unaffected")
            .unwrap();
        let log = dir.join("journal.log");
        vfs.create_sync(&log).unwrap();
        let err = vfs.append_sync(&log, b"x").unwrap_err();
        assert!(is_storage_full(&err));
        assert_eq!(fs::read(&log).unwrap(), b"", "zero budget: clean boundary");
    }

    #[test]
    fn torn_write_keeps_prefix() {
        let dir = TempDir::new("vfs-torn");
        let vfs = faulty(vec![DiskFault::TornWrite {
            at_write: 1,
            keep_bytes: 3,
            file: None,
        }]);
        let log = dir.join("j.log");
        vfs.create_sync(&log).unwrap();
        vfs.append_sync(&log, b"first").unwrap();
        let err = vfs.append_sync(&log, b"second").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(fs::read(&log).unwrap(), b"firstsec");
    }

    #[test]
    fn fsync_failure_reports_but_data_reached_cache() {
        let dir = TempDir::new("vfs-fsync");
        let vfs = faulty(vec![DiskFault::FsyncFail {
            at_fsync: 1, // 0 is create_sync's fsync
            file: Some("j.log".into()),
        }]);
        let log = dir.join("j.log");
        vfs.create_sync(&log).unwrap();
        let err = vfs.append_sync(&log, b"record").unwrap_err();
        assert!(err.to_string().contains("injected fsync failure"), "{err}");
        // The write itself went through — it was just never promised.
        assert_eq!(fs::read(&log).unwrap(), b"record");
        vfs.append_sync(&log, b"+more").unwrap();
    }

    #[test]
    fn atomic_write_under_fault_leaves_target_untouched() {
        let dir = TempDir::new("vfs-atomic-fault");
        let vfs = faulty(vec![DiskFault::Enospc {
            after_bytes: 2,
            file: None,
        }]);
        let path = dir.join("artifact.txt");
        Vfs::real().atomic_write(&path, b"old").unwrap();
        let err = vfs.atomic_write(&path, b"newcontent").unwrap_err();
        assert!(is_storage_full(&err));
        assert_eq!(fs::read(&path).unwrap(), b"old", "old content survives");
        assert!(
            !dir.join(".artifact.txt.tmp").exists(),
            "temp removed on fault"
        );
    }

    #[test]
    fn bit_flips_apply_post_hoc_and_are_found_by_suffix() {
        let dir = TempDir::new("vfs-bitflip");
        fs::create_dir_all(dir.join("run-0001")).unwrap();
        fs::write(dir.join("run-0001/out.log"), b"measurement").unwrap();
        let vfs = faulty(vec![DiskFault::BitFlip {
            file: "run-0001/out.log".into(),
            offset: 2,
            mask: 0x40,
        }]);
        let flipped = vfs.apply_bit_flips(&dir).unwrap();
        assert_eq!(flipped.len(), 1);
        let bytes = fs::read(dir.join("run-0001/out.log")).unwrap();
        assert_eq!(bytes[2], b'a' ^ 0x40);
    }

    #[test]
    fn plan_validation_rejects_noop_faults() {
        assert!(Vfs::faulty(FaultPlan {
            seed: 0,
            faults: vec![DiskFault::BitFlip {
                file: String::new(),
                offset: 0,
                mask: 1
            }],
        })
        .is_err());
        assert!(Vfs::faulty(FaultPlan {
            seed: 0,
            faults: vec![DiskFault::BitFlip {
                file: "x".into(),
                offset: 0,
                mask: 0
            }],
        })
        .is_err());
        assert!(Vfs::faulty(FaultPlan {
            seed: 0,
            faults: vec![DiskFault::Enospc {
                after_bytes: 1,
                file: Some(String::new())
            }],
        })
        .is_err());
    }

    #[test]
    fn plan_serializes_and_replays_identically() {
        let plan = FaultPlan {
            seed: 0xD15C,
            faults: vec![
                DiskFault::Enospc {
                    after_bytes: 4096,
                    file: Some("journal.log".into()),
                },
                DiskFault::FsyncFail {
                    at_fsync: 3,
                    file: None,
                },
            ],
        };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn clones_share_one_fault_schedule() {
        let dir = TempDir::new("vfs-shared");
        let vfs = faulty(vec![DiskFault::Enospc {
            after_bytes: 4,
            file: None,
        }]);
        let clone = vfs.clone();
        let log = dir.join("j.log");
        vfs.create_sync(&log).unwrap();
        vfs.append_sync(&log, b"1234").unwrap();
        // The clone sees the budget already spent.
        let err = clone.append_sync(&log, b"5").unwrap_err();
        assert!(is_storage_full(&err));
    }
}
