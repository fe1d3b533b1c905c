//! The one way bytes reach a published path: temp sibling → fsync → rename
//! → directory fsync.
//!
//! POSIX `rename(2)` is atomic within a filesystem, so at every instant the
//! destination holds either the complete old bytes or the complete new
//! bytes — never a prefix of either. A crash (or a full disk) mid-write
//! strands at most the `<path>.tmp` sibling, which no reader consults.
//! Snapshots, checkpoint generations and segment files all go through
//! [`write_with`].

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// The in-flight temp file next to `path`: `<file name>.tmp`.
pub fn temp_sibling(path: &Path) -> PathBuf {
    sibling(path, ".tmp")
}

/// `path` with `suffix` appended to its file name.
pub fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path.file_name().map(|n| n.to_os_string()).unwrap_or_default();
    name.push(suffix);
    path.with_file_name(name)
}

/// Stream bytes into a writer in bounded chunks.
///
/// This is the seam the mid-write failure tests inject into: a writer that
/// errors after N bytes exercises exactly the partial-write path a full
/// disk produces, and the error must propagate (no swallowed short writes).
pub fn stream(bytes: &[u8], w: &mut dyn Write) -> io::Result<()> {
    for chunk in bytes.chunks(64 * 1024) {
        w.write_all(chunk)?;
    }
    w.flush()
}

/// Write `bytes` to `path` atomically. On any failure the destination is
/// untouched and the temp file is removed on a best-effort basis.
pub fn write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    write_with(path, bytes, || Ok(()))
}

/// [`write()`] with a step between "the new bytes are durable under the temp
/// name" and "the temp is renamed over `path`": `before_publish` runs only
/// once the data is fsynced, so whatever it does to the file currently at
/// `path` (a checkpoint demotes it to `.prev`) can never leave a crash
/// with neither the old nor the new bytes on disk. Its error aborts the
/// write like any other.
pub fn write_with(
    path: &Path,
    bytes: &[u8],
    before_publish: impl FnOnce() -> io::Result<()>,
) -> io::Result<()> {
    let tmp = temp_sibling(path);
    let publish = (|| {
        let mut file = File::create(&tmp)?;
        stream(bytes, &mut file)?;
        // Data must be on disk before the rename publishes it; a rename
        // that survives a crash while the data didn't would install a
        // torn file under the *final* name — the one state the scheme
        // exists to prevent.
        file.sync_all()?;
        before_publish()?;
        fs::rename(&tmp, path)
    })();
    if publish.is_err() {
        fs::remove_file(&tmp).ok();
    }
    publish?;
    // Persist the rename itself (the directory entry). Failure here is not
    // fatal to this process — the data is safe under one name or the other
    // — so a filesystem that refuses directory fsync is tolerated.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_hook_runs_after_the_data_is_written_and_before_the_rename() {
        let dir = std::env::temp_dir().join(format!("wg-atomic-hook-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file");
        write(&path, b"old").unwrap();
        write_with(&path, b"new", || {
            assert_eq!(fs::read(temp_sibling(&path))?, b"new", "temp holds the whole new file");
            assert_eq!(fs::read(&path)?, b"old", "the destination is not yet replaced");
            Ok(())
        })
        .unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new");

        // A failing hook aborts: old bytes stay, the temp is cleaned up.
        let err = write_with(&path, b"newer", || Err(io::Error::other("no rotation"))).unwrap_err();
        assert!(err.to_string().contains("no rotation"));
        assert_eq!(fs::read(&path).unwrap(), b"new");
        assert!(!temp_sibling(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }
}
