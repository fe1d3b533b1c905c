//! Crash-safe snapshot plumbing: atomic writes and checkpoint rotation
//! with fallback recovery.
//!
//! A deployed discovery node persists its state so a restart does not
//! re-scan — and re-bill — every attached warehouse. That only helps if
//! the persisted artifact survives the restart's *cause*: a crash may
//! interrupt the very write that was saving the state. The guarantees
//! this module layers over [`crate::WarpGate::save_to_file`]:
//!
//! 1. **Atomicity** ([`wg_util::atomic_file`] — the one such write in
//!    the workspace): bytes stream into a sibling
//!    `*.tmp` file, are fsynced, and the temp is renamed over the
//!    destination. POSIX `rename(2)` is atomic within a filesystem, so at
//!    every instant the destination holds either the complete old bytes
//!    or the complete new bytes — never a prefix of either. A mid-write
//!    crash (or a full disk) strands at most a temp file.
//! 2. **Detection** (the segment's checksums, see [`wg_util::segment`]):
//!    if bytes *do* rot — a torn sector, a bit flip — the loader rejects
//!    the file with [`StoreError::SnapshotCorrupt`] instead of installing
//!    garbage.
//! 3. **Recovery** ([`Checkpointer`]): each checkpoint rotates the
//!    previous snapshot to `<path>.prev` before installing the new one,
//!    so a corrupt newest generation falls back to the one before it.
//!    The rotation is rename-only; the decision table lives in
//!    DESIGN.md §10.
//! 4. **Proof** (the torn-write harness of `tests/crash_recovery.rs`):
//!    every crash offset of a checkpoint write (and every single-bit flip
//!    of the result) is enumerated as a concrete on-disk state, and
//!    recovery from each must land on a complete old or new state.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use wg_store::{StoreError, StoreResult};
use wg_util::atomic_file::{self, sibling};

use crate::system::WarpGate;

/// Suffix of the previous checkpoint generation next to a snapshot path.
const PREV_SUFFIX: &str = ".prev";

/// Where a recovery found its state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The newest checkpoint loaded clean.
    Primary,
    /// The newest was missing or corrupt; the `.prev` generation loaded.
    Previous,
}

/// What [`Checkpointer::recover`] restored and how.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Which generation the state came from.
    pub source: RecoverySource,
    /// Columns in the restored index.
    pub columns: usize,
    /// The error the primary failed with, when `source` is
    /// [`RecoverySource::Previous`] — surfaced so operators learn the
    /// newest generation was lost even though the node came back up.
    pub primary_error: Option<StoreError>,
}

/// Rotating two-generation checkpoint writer and its recovery path.
///
/// `checkpoint()` keeps exactly two generations next to each other:
/// `<path>` (newest) and `<path>.prev` (the one before). The rotation is
/// three renames deep at most and never rewrites a published file:
///
/// ```text
/// write <path>.tmp  (fsync)        — crash here: both generations intact
/// rename <path>   → <path>.prev    — crash here: newest absent, prev = old
/// rename <path>.tmp → <path>       — crash here: done anyway
/// ```
///
/// `recover()` inverts it: load `<path>`; if that is missing or corrupt,
/// load `<path>.prev`; report which one won. Combined with the loader's
/// no-partial-mutation guarantee, every crash state the torn-write
/// harness of `tests/crash_recovery.rs` enumerates recovers to a complete
/// old or new snapshot.
#[derive(Debug, Clone)]
pub struct Checkpointer {
    path: PathBuf,
}

impl Checkpointer {
    /// A checkpointer writing generations at `path` / `path.prev`.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The newest-generation path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The previous-generation path (`<path>.prev`).
    pub fn previous_path(&self) -> PathBuf {
        sibling(&self.path, PREV_SUFFIX)
    }

    /// Snapshot `wg` into the newest generation, demoting the current
    /// newest (if any) to `.prev` on the way. A row of the paged tier that
    /// cannot be read back fails the checkpoint before anything is written.
    pub fn checkpoint(&self, wg: &WarpGate) -> io::Result<()> {
        // Rotate only once the new generation is safely on disk: demoting
        // the old snapshot before that could leave zero loadable
        // generations after a crash. The image carries every row's sketched
        // record, so a recovery copies them rather than quantizing each row.
        atomic_file::write_with(&self.path, &wg.seal(true)?.0, || {
            if self.path.exists() {
                fs::rename(&self.path, self.previous_path())?;
            }
            Ok(())
        })
    }

    /// Restore `wg` from the newest loadable generation.
    ///
    /// Decision table (also DESIGN.md §10):
    ///
    /// | `<path>`        | `<path>.prev`  | outcome                           |
    /// |-----------------|----------------|-----------------------------------|
    /// | loads           | —              | `Primary`                         |
    /// | missing/corrupt | loads          | `Previous` + the primary's error  |
    /// | corrupt         | missing/corrupt| the primary's error               |
    /// | missing         | missing        | `NotFound`                        |
    ///
    /// In-flight `.tmp` files are never consulted: an un-renamed temp was
    /// never published, so its contents were never promised.
    pub fn recover(&self, wg: &mut WarpGate) -> StoreResult<RecoveryReport> {
        let primary_error = match wg.load_from_file(&self.path) {
            Ok(()) => {
                return Ok(RecoveryReport {
                    source: RecoverySource::Primary,
                    columns: wg.len(),
                    primary_error: None,
                })
            }
            Err(e) => e,
        };
        match wg.load_from_file(self.previous_path()) {
            Ok(()) => Ok(RecoveryReport {
                source: RecoverySource::Previous,
                columns: wg.len(),
                primary_error: Some(primary_error),
            }),
            // The newest generation's failure is the interesting one: a
            // corrupt primary with a missing prev should read as "your
            // snapshot is corrupt", not "file not found".
            Err(prev_error) => match (&primary_error, &prev_error) {
                (StoreError::NotFound(_), _) => Err(prev_error),
                _ => Err(primary_error),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use wg_util::atomic_file::temp_sibling;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wg_durability_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn siblings_attach_suffixes_to_the_file_name() {
        let p = Path::new("/var/lib/wg/snapshot.bin");
        assert_eq!(temp_sibling(p), Path::new("/var/lib/wg/snapshot.bin.tmp"));
        assert_eq!(sibling(p, PREV_SUFFIX), Path::new("/var/lib/wg/snapshot.bin.prev"));
    }

    use crate::config::WarpGateConfig;
    use wg_store::{CdwConfig, CdwConnector, Column, ColumnRef, Table, Warehouse};

    /// A way to persist a node under a scratch path and restart one from
    /// it: the checkpoint pair and the paged pair. Everything below holds
    /// for both.
    type SaveLoad = (
        &'static str,
        fn(&WarpGate, &Path) -> io::Result<()>,
        fn(&mut WarpGate, &Path) -> StoreResult<()>,
    );
    const PAIRS: [SaveLoad; 2] = [
        (
            "checkpoint / recover",
            |wg, path| Checkpointer::new(path).checkpoint(wg),
            |wg, path| {
                let report = Checkpointer::new(path).recover(wg)?;
                assert_eq!(report.source, RecoverySource::Primary);
                Ok(())
            },
        ),
        (
            "save_paged / load_paged",
            |wg, path| wg.save_paged(path).map(drop),
            |wg, path| wg.load_paged(path),
        ),
    ];

    /// Table `name` with one text column of 24 values from `from` on, plus
    /// `extra` ones.
    fn table(name: &str, from: usize, extra: &[String]) -> Table {
        let values = (from..from + 24).map(|i| format!("val {i}")).chain(extra.iter().cloned());
        Table::new(name, vec![Column::text("x", values.collect::<Vec<_>>())]).unwrap()
    }

    /// A node over tables `a` and `b`, its connector, and the ranking of
    /// `a.x`'s neighbours — which moves whenever `b` does.
    fn two_tables() -> (WarpGateConfig, Arc<CdwConnector>, WarpGate) {
        let mut w = Warehouse::new("race");
        w.database_mut("db").add_table(table("a", 0, &[]));
        w.database_mut("db").add_table(table("b", 0, &[]));
        let c = Arc::new(CdwConnector::new(w, CdwConfig::free()));
        let config = WarpGateConfig { dim: 64, threads: 1, ..Default::default() };
        let wg = WarpGate::with_backend(config, c.clone());
        wg.index_warehouse().unwrap();
        (config, c, wg)
    }

    fn rank_of(node: &WarpGate) -> Vec<crate::JoinCandidate> {
        node.discover(&ColumnRef::new("db", "a", "x"), 3).unwrap().candidates
    }

    #[test]
    fn a_checkpoint_carries_the_row_sketches_and_recovery_copies_them() {
        let (config, c, wg) = two_tables();
        let dir = tmp_dir("sketched");
        let ckpt = Checkpointer::new(dir.join("node.ckpt"));
        ckpt.checkpoint(&wg).unwrap();
        let segment = wg_lsh::VectorSegment::open(ckpt.path(), wg_lsh::BlockCache::new(0));
        assert!(segment.unwrap().has_sketches(), "a recovery must not quantize its rows");
        let mut recovered = WarpGate::with_backend(config, c);
        ckpt.recover(&mut recovered).unwrap();
        assert_eq!(rank_of(&recovered), rank_of(&wg));
        // Sealed again, the recovered node's records are the checkpoint's.
        assert!(recovered.seal(true).unwrap().0 == fs::read(ckpt.path()).unwrap());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_under_racing_discover_and_sync_recovers_a_state_the_system_was_in() {
        use std::sync::atomic::{AtomicBool, Ordering};

        // One thread flips table `b` between two contents and syncs; one
        // keeps discovering; this one saves as fast as it can. The seal
        // reads the index's arena in place, so it must hold the index's
        // read guard from the first row to the last: every save has to
        // load (a directory that disagrees with the rows written would be a
        // corrupt file), to one of the two generations (`b` has one column,
        // so a sync replaces exactly one row), with every signature the one
        // its vector signs to — never one generation's next to the other's.
        let (config, c, wg) = two_tables();
        let flip_b =
            |from: usize| c.warehouse_mut().database_mut("db").add_table(table("b", from, &[]));
        let first = rank_of(&wg);
        flip_b(6);
        wg.sync().unwrap();
        let second = rank_of(&wg);
        assert_ne!(first, second, "generations must be distinguishable by ranking");

        /// Ends the helper threads however the saving loop ends.
        struct StopOnDrop<'a>(&'a AtomicBool);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        for (pair, save, load) in PAIRS {
            let dir = tmp_dir("race");
            let path = dir.join("snapshot");
            let stop = AtomicBool::new(false);
            let started = std::sync::Barrier::new(3);
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    started.wait();
                    for round in 0.. {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        flip_b(if round % 2 == 0 { 0 } else { 6 });
                        wg.sync().unwrap();
                    }
                });
                scope.spawn(|| {
                    started.wait();
                    while !stop.load(Ordering::SeqCst) {
                        let got = rank_of(&wg);
                        assert!(got == first || got == second, "a reader saw a third state");
                    }
                });
                started.wait();
                let _stop = StopOnDrop(&stop);
                let mut recovered = WarpGate::with_backend(config, c.clone());
                for round in 0..40 {
                    save(&wg, &path).unwrap();
                    load(&mut recovered, &path)
                        .unwrap_or_else(|e| panic!("{pair} {round} did not load: {e}"));
                    assert_eq!(recovered.len(), 2);
                    let got = rank_of(&recovered);
                    assert!(got == first || got == second, "{pair} {round} holds a third state");
                    let hasher = &recovered.hasher;
                    let cache = wg_lsh::BlockCache::new(0);
                    let image = wg_lsh::VectorSegment::from_bytes(recovered.to_bytes(), cache);
                    let image = image.expect("a sealed image opens");
                    for b in 0..image.block_count() {
                        let data = image.block(b).unwrap();
                        for (row, vector) in
                            image.block_span(b).zip(data.chunks_exact(hasher.dim()))
                        {
                            assert_eq!(
                                image.signature_of(row),
                                hasher.sign(vector),
                                "{pair} {round}"
                            );
                        }
                    }
                }
            });
            fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn a_change_committed_while_a_save_is_in_flight_is_not_lost_to_the_restored_node() {
        // Each round, one never-repeating change to `b` and the sync that
        // commits it race one save. Whichever way they interleave, the file
        // may say "`b` is at the new version" only over the new row: a node
        // restored from it and synced once must rank like the live one. (A
        // writer that reads the tokens after the rows fails this in most
        // rounds: its file carries the new token over the old row, and the
        // restored node's sync is a no-op that never re-scans.)
        let (config, c, wg) = two_tables();
        for (pair, save, load) in PAIRS {
            let dir = tmp_dir("in-flight");
            let path = dir.join("snapshot");
            for round in 0..200 {
                let go = std::sync::Barrier::new(2);
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        go.wait();
                        save(&wg, &path).unwrap();
                    });
                    let once = [format!("round {pair} {round}")];
                    let changed = table("b", 1 + round % 12, &once);
                    go.wait();
                    c.warehouse_mut().database_mut("db").add_table(changed);
                    assert_eq!(wg.sync().unwrap().tables_updated, 1);
                });
                let mut restored = WarpGate::with_backend(config, c.clone());
                load(&mut restored, &path).unwrap_or_else(|e| panic!("{pair} {round}: {e}"));
                restored.sync().unwrap();
                assert_eq!(
                    rank_of(&restored),
                    rank_of(&wg),
                    "{pair} {round}: restored node is stale"
                );
            }
            fs::remove_dir_all(&dir).ok();
        }
    }
}
