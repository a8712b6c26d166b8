//! POSIX ustar tar writing — the "archive" release format of §4.4.
//!
//! A minimal, correct subset: regular files with paths up to the
//! 100-byte name field plus the 155-byte prefix field, permissions 0644,
//! deterministic metadata (mtime 0, numeric uid/gid 0) so the same bundle
//! always produces a byte-identical archive.

use std::io::{self, Write};

/// One file to archive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TarEntry {
    /// Path inside the archive (forward slashes).
    pub path: String,
    /// File contents.
    pub data: Vec<u8>,
}

/// Errors from tar writing.
#[derive(Debug)]
pub enum TarError {
    /// A path does not fit the ustar name+prefix fields.
    PathTooLong {
        /// The offending path.
        path: String,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl std::fmt::Display for TarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TarError::PathTooLong { path } => write!(f, "path too long for ustar: {path}"),
            TarError::Io(e) => write!(f, "tar io error: {e}"),
        }
    }
}

impl std::error::Error for TarError {}

impl From<io::Error> for TarError {
    fn from(e: io::Error) -> Self {
        TarError::Io(e)
    }
}

/// Splits a path into (prefix, name) per ustar rules.
fn split_path(path: &str) -> Result<(&str, &str), TarError> {
    if path.len() <= 100 {
        return Ok(("", path));
    }
    // Find a slash so that name ≤ 100 and prefix ≤ 155.
    for (i, c) in path.char_indices() {
        if c == '/' && path.len() - i - 1 <= 100 && i <= 155 {
            return Ok((&path[..i], &path[i + 1..]));
        }
    }
    Err(TarError::PathTooLong { path: path.into() })
}

fn octal(field: &mut [u8], value: u64) {
    // Fixed-width zero-padded octal with trailing NUL.
    let s = format!("{:0>width$o}\0", value, width = field.len() - 1);
    field.copy_from_slice(s.as_bytes());
}

fn header(path: &str, size: u64) -> Result<[u8; 512], TarError> {
    let (prefix, name) = split_path(path)?;
    if name.is_empty() {
        return Err(TarError::PathTooLong { path: path.into() });
    }
    let mut h = [0u8; 512];
    h[..name.len()].copy_from_slice(name.as_bytes());
    octal(&mut h[100..108], 0o644); // mode
    octal(&mut h[108..116], 0); // uid
    octal(&mut h[116..124], 0); // gid
    octal(&mut h[124..136], size);
    octal(&mut h[136..148], 0); // mtime: deterministic
    h[148..156].fill(b' '); // checksum placeholder
    h[156] = b'0'; // typeflag: regular file
    h[257..262].copy_from_slice(b"ustar");
    h[263..265].copy_from_slice(b"00");
    h[345..345 + prefix.len()].copy_from_slice(prefix.as_bytes());
    let checksum: u64 = h.iter().map(|&b| u64::from(b)).sum();
    let cs = format!("{checksum:06o}\0 ");
    h[148..156].copy_from_slice(cs.as_bytes());
    Ok(h)
}

/// Writes entries as a ustar archive to `sink`, ending with the two
/// zero blocks of the end-of-archive marker.
pub fn write_tar<W: Write>(mut sink: W, entries: &[TarEntry]) -> Result<(), TarError> {
    for e in entries {
        sink.write_all(&header(&e.path, e.data.len() as u64)?)?;
        sink.write_all(&e.data)?;
        let pad = (512 - e.data.len() % 512) % 512;
        sink.write_all(&vec![0u8; pad])?;
    }
    sink.write_all(&[0u8; 1024])?;
    Ok(())
}

/// Reads a ustar archive back (for round-trip verification).
pub fn read_tar(data: &[u8]) -> Result<Vec<TarEntry>, TarError> {
    let mut entries = Vec::new();
    let mut off = 0usize;
    while off + 512 <= data.len() {
        let block = &data[off..off + 512];
        if block.iter().all(|&b| b == 0) {
            break; // end-of-archive marker
        }
        let name_end = block[..100].iter().position(|&b| b == 0).unwrap_or(100);
        let name = String::from_utf8_lossy(&block[..name_end]).into_owned();
        let prefix_field = &block[345..500];
        let prefix_end = prefix_field.iter().position(|&b| b == 0).unwrap_or(155);
        let prefix = String::from_utf8_lossy(&prefix_field[..prefix_end]).into_owned();
        let size_str = String::from_utf8_lossy(&block[124..135]).into_owned();
        let size = u64::from_str_radix(size_str.trim_matches(['\0', ' ']), 8).map_err(|_| {
            TarError::Io(io::Error::new(io::ErrorKind::InvalidData, "bad size field"))
        })? as usize;
        // Verify the header checksum.
        let mut check = block.to_vec();
        check[148..156].fill(b' ');
        let expect: u64 = check.iter().map(|&b| u64::from(b)).sum();
        let stored = u64::from_str_radix(
            String::from_utf8_lossy(&block[148..155]).trim_matches(['\0', ' ']),
            8,
        )
        .unwrap_or(0);
        if expect != stored {
            return Err(TarError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                "tar header checksum mismatch",
            )));
        }
        off += 512;
        if off + size > data.len() {
            return Err(TarError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated tar entry",
            )));
        }
        let path = if prefix.is_empty() {
            name
        } else {
            format!("{prefix}/{name}")
        };
        entries.push(TarEntry {
            path,
            data: data[off..off + size].to_vec(),
        });
        off += size + (512 - size % 512) % 512;
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pos_testutil::TempDir;
    use proptest::prelude::*;

    fn entry(path: &str, data: &[u8]) -> TarEntry {
        TarEntry {
            path: path.into(),
            data: data.to_vec(),
        }
    }

    #[test]
    fn roundtrip_small_archive() {
        let entries = vec![
            entry("README.md", b"# pos artifacts\n"),
            entry("results/run-0000/metadata.json", b"{}"),
            entry("empty.txt", b""),
        ];
        let mut buf = Vec::new();
        write_tar(&mut buf, &entries).unwrap();
        assert_eq!(buf.len() % 512, 0, "tar is block-aligned");
        let back = read_tar(&buf).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn deterministic_output() {
        let entries = vec![entry("a/b.txt", b"hello")];
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        write_tar(&mut b1, &entries).unwrap();
        write_tar(&mut b2, &entries).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn long_paths_use_prefix() {
        let long_dir = "d".repeat(120);
        let path = format!("{long_dir}/file.txt");
        let entries = vec![entry(&path, b"x")];
        let mut buf = Vec::new();
        write_tar(&mut buf, &entries).unwrap();
        let back = read_tar(&buf).unwrap();
        assert_eq!(back[0].path, path);
    }

    #[test]
    fn impossible_paths_rejected() {
        // No slash near enough to split: a 200-char single component.
        let path = "x".repeat(200);
        let mut buf = Vec::new();
        assert!(matches!(
            write_tar(&mut buf, &[entry(&path, b"")]),
            Err(TarError::PathTooLong { .. })
        ));
    }

    #[test]
    fn ends_with_two_zero_blocks() {
        let mut buf = Vec::new();
        write_tar(&mut buf, &[entry("a", b"1")]).unwrap();
        let tail = &buf[buf.len() - 1024..];
        assert!(tail.iter().all(|&b| b == 0));
    }

    #[test]
    fn corrupted_header_detected() {
        let mut buf = Vec::new();
        write_tar(&mut buf, &[entry("a.txt", b"data")]).unwrap();
        buf[0] ^= 0xFF; // corrupt the name; checksum no longer matches
        assert!(read_tar(&buf).is_err());
    }

    #[test]
    fn truncated_archive_detected() {
        let mut buf = Vec::new();
        write_tar(&mut buf, &[entry("a.txt", &vec![7u8; 600])]).unwrap();
        buf.truncate(700); // header + partial data
        assert!(read_tar(&buf).is_err());
    }

    #[test]
    fn system_tar_can_list_if_available() {
        // Best-effort interop check with the system tar binary.
        let entries = vec![
            entry("results/metadata.json", b"{\"ok\":true}"),
            entry("figures/throughput.svg", b"<svg/>"),
        ];
        let mut buf = Vec::new();
        write_tar(&mut buf, &entries).unwrap();
        let dir = TempDir::new("tar");
        let tar_path = dir.join("bundle.tar");
        std::fs::write(&tar_path, &buf).unwrap();
        let out = std::process::Command::new("tar")
            .args(["-tf", tar_path.to_str().unwrap()])
            .output();
        if let Ok(out) = out {
            if out.status.success() {
                let listing = String::from_utf8_lossy(&out.stdout);
                assert!(listing.contains("results/metadata.json"), "{listing}");
                assert!(listing.contains("figures/throughput.svg"));
            }
        }
    }

    proptest! {
        /// Arbitrary contents round-trip through write/read.
        #[test]
        fn prop_roundtrip(
            files in proptest::collection::vec(
                ("[a-z]{1,8}(/[a-z]{1,8}){0,3}", proptest::collection::vec(any::<u8>(), 0..700)),
                0..10,
            )
        ) {
            // Deduplicate paths (a tar may contain duplicates, but equality
            // comparison is simpler without them).
            let mut seen = std::collections::BTreeSet::new();
            let entries: Vec<TarEntry> = files
                .into_iter()
                .filter(|(p, _)| seen.insert(p.clone()))
                .map(|(path, data)| TarEntry { path, data })
                .collect();
            let mut buf = Vec::new();
            write_tar(&mut buf, &entries).unwrap();
            prop_assert_eq!(read_tar(&buf).unwrap(), entries);
        }
    }
}
