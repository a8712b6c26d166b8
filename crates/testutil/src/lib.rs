//! # pos-testutil
//!
//! Test support shared by the workspace: the crates' unit tests and the
//! integration tests take it as a dev-dependency only. [`TempDir`] gives
//! each call a scratch directory; [`tree`] compares result trees.

#![warn(missing_docs)]

pub mod tree;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch directory that belongs to one call: its name carries the
/// process id and a per-process counter, so sibling tests running in
/// parallel threads of one binary never share it. It is created empty
/// and removed, with everything in it, on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Creates `<tmp>/pos-<name>-<pid>-<n>`.
    pub fn new(name: &str) -> TempDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("pos-{name}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create test temp dir");
        TempDir(dir)
    }
}

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl AsRef<Path> for TempDir {
    fn as_ref(&self) -> &Path {
        &self.0
    }
}

impl From<&TempDir> for PathBuf {
    fn from(dir: &TempDir) -> PathBuf {
        dir.0.clone()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
