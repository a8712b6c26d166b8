//! Result-tree comparison for the crash, disk-fault, DAG, parallel and
//! serve matrices.
//!
//! A tree's journals (`journal.log`, `journal-lane{k}.log`, a DAG's
//! journal and each sweep stage's own) record *how* the tree was
//! produced — a resumed tree carries extra resume records by design — so
//! every comparison here leaves out each file whose name starts with
//! `journal`, at any depth. Everything else must match byte for byte.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

/// Every file under `dir` as (path relative to `dir`, absolute path),
/// sorted by relative path.
fn files(dir: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        for entry in fs::read_dir(&current).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path.strip_prefix(dir).unwrap().to_string_lossy();
                out.push((rel.into_owned(), path));
            }
        }
    }
    out.sort();
    out
}

fn is_journal(path: &Path) -> bool {
    path.file_name()
        .is_some_and(|name| name.to_string_lossy().starts_with("journal"))
}

/// Every file under `dir` (relative path → bytes), journals excluded.
pub fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    files(dir)
        .into_iter()
        .filter(|(_, path)| !is_journal(path))
        .map(|(rel, path)| (rel, fs::read(&path).unwrap()))
        .collect()
}

/// The journal files [`snapshot`] leaves out, as sorted relative paths.
pub fn journals(dir: &Path) -> Vec<String> {
    files(dir)
        .into_iter()
        .filter(|(_, path)| is_journal(path))
        .map(|(rel, _)| rel)
        .collect()
}

/// Panics, naming `what`, unless `dir` holds exactly the files of
/// `want` (a [`snapshot`]) with the same bytes, journals excluded.
pub fn assert_tree_matches(want: &BTreeMap<String, Vec<u8>>, dir: &Path, what: &str) {
    let got = snapshot(dir);
    let want_names: Vec<&String> = want.keys().collect();
    let got_names: Vec<&String> = got.keys().collect();
    assert_eq!(got_names, want_names, "{what}: file sets differ");
    for (rel, bytes) in want {
        assert_eq!(
            &got[rel],
            bytes,
            "{what}: `{rel}` differs in {}",
            dir.display()
        );
    }
}

/// Panics, naming `what`, unless the trees `a` and `b` are
/// byte-identical, journals excluded.
pub fn assert_trees_identical(a: &Path, b: &Path, what: &str) {
    assert_tree_matches(&snapshot(a), b, &format!("{what} ({})", a.display()));
}

/// The single result tree under `root`, which the result store nests as
/// `<root>/<user>/<name>/<tree>`; panics unless each level holds exactly
/// one directory.
pub fn find_result_dir(root: &Path) -> PathBuf {
    let mut dir = root.to_path_buf();
    for _ in 0..3 {
        let mut subdirs: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.is_dir())
            .collect();
        assert_eq!(subdirs.len(), 1, "expected one subdir in {}", dir.display());
        dir = subdirs.remove(0);
    }
    dir
}
