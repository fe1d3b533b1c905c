//! Crash-safe snapshot plumbing: atomic writes, checkpoint rotation with
//! fallback recovery, and a deterministic torn-write chaos harness.
//!
//! A deployed discovery node persists its state so a restart does not
//! re-scan — and re-bill — every attached warehouse. That only helps if
//! the persisted artifact survives the restart's *cause*: a crash may
//! interrupt the very write that was saving the state. The guarantees
//! this module layers over [`crate::WarpGate::save_to_file`]:
//!
//! 1. **Atomicity** ([`atomic_write`], which is [`wg_util::atomic_file`] —
//!    the one such write in the workspace): bytes stream into a sibling
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
//! 4. **Proof** ([`TornWriter`]): the chaos harness enumerates every
//!    crash offset of a checkpoint write (and every single-bit flip of
//!    the result) as concrete on-disk states, so a property test can
//!    assert that recovery always lands on a complete old or new state.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use wg_store::{StoreError, StoreResult};
use wg_util::atomic_file::{self, sibling, temp_sibling};

pub use wg_util::atomic_file::{stream as stream_snapshot, write as atomic_write};

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
/// no-partial-mutation guarantee, every crash state enumerated by
/// [`TornWriter`] recovers to a complete old or new snapshot.
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
        // generations after a crash.
        atomic_file::write_with(&self.path, &wg.seal(false)?.0, || {
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

/// One concrete on-disk state a crash (or bit rot) can leave behind.
///
/// `None` means the file does not exist in this state. Materializing a
/// state writes/removes the three generation files under a checkpoint
/// path so recovery can be exercised against it.
#[derive(Debug, Clone)]
pub struct CrashState {
    /// Human-readable provenance, for assertion messages.
    pub label: String,
    /// Contents of `<path>` in this state.
    pub primary: Option<Vec<u8>>,
    /// Contents of `<path>.prev` in this state.
    pub previous: Option<Vec<u8>>,
    /// Contents of `<path>.tmp` in this state.
    pub temp: Option<Vec<u8>>,
}

impl CrashState {
    /// Write this state's files under `checkpoint_path` (removing files
    /// the state says are absent).
    pub fn materialize(&self, checkpoint_path: &Path) -> io::Result<()> {
        let files = [
            (checkpoint_path.to_path_buf(), &self.primary),
            (sibling(checkpoint_path, PREV_SUFFIX), &self.previous),
            (temp_sibling(checkpoint_path), &self.temp),
        ];
        for (path, contents) in files {
            match contents {
                Some(bytes) => fs::write(&path, bytes)?,
                None => match fs::remove_file(&path) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                },
            }
        }
        Ok(())
    }
}

/// Deterministic torn-write enumerator: every on-disk state a crash can
/// leave while [`Checkpointer::checkpoint`] replaces `old` with `new`.
///
/// The rotation has exactly three classes of interruption point, all
/// enumerated by [`TornWriter::crash_states`]:
///
/// * **during the temp write** — one state per byte prefix of `new`
///   (including the empty prefix): the temp holds `new[..k]`, the
///   published generations are untouched;
/// * **between the two renames** — the newest name is momentarily absent,
///   `.prev` holds `old`, the temp holds all of `new`;
/// * **after completion** — `<path>` = `new`, `.prev` = `old`.
///
/// [`TornWriter::bit_flip_states`] separately yields the completed state
/// with every single bit of the newest generation flipped — the media-rot
/// cases where the checksums, not write atomicity, are the defense.
#[derive(Debug, Clone)]
pub struct TornWriter {
    old: Option<Vec<u8>>,
    new: Vec<u8>,
}

impl TornWriter {
    /// A replayable checkpoint that overwrites `old` (the currently
    /// published snapshot, if any) with `new`.
    pub fn new(old: Option<Vec<u8>>, new: Vec<u8>) -> Self {
        Self { old, new }
    }

    /// Every crash-interruption state of the rotation, in write order.
    pub fn crash_states(&self) -> Vec<CrashState> {
        let mut states = Vec::with_capacity(self.new.len() + 3);
        for k in 0..=self.new.len() {
            states.push(CrashState {
                label: format!("crash after {k}/{} temp bytes", self.new.len()),
                primary: self.old.clone(),
                previous: None,
                temp: Some(self.new[..k].to_vec()),
            });
        }
        if self.old.is_some() {
            states.push(CrashState {
                label: "crash between demote and promote renames".into(),
                primary: None,
                previous: self.old.clone(),
                temp: Some(self.new.clone()),
            });
        }
        states.push(CrashState {
            label: "completed rotation".into(),
            primary: Some(self.new.clone()),
            previous: self.old.clone(),
            temp: None,
        });
        states
    }

    /// The completed rotation with bit `bit` of byte `offset` of the
    /// newest generation flipped, for every byte offset — one flipped bit
    /// per byte keeps the sweep linear while still touching every byte of
    /// the image (preamble, blocks, directory, trailer).
    pub fn bit_flip_states(&self) -> Vec<CrashState> {
        (0..self.new.len())
            .map(|offset| {
                let mut flipped = self.new.clone();
                flipped[offset] ^= 1 << (offset % 8);
                CrashState {
                    label: format!("bit {} of byte {offset} flipped", offset % 8),
                    primary: Some(flipped),
                    previous: self.old.clone(),
                    temp: None,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::sync::Arc;

    /// Errors after `limit` bytes, like a disk running full mid-write.
    struct FailingWriter {
        written: usize,
        limit: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let room = self.limit.saturating_sub(self.written);
            if room == 0 {
                return Err(io::Error::other("disk full"));
            }
            let n = buf.len().min(room);
            self.written += n;
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wg_durability_{tag}_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stream_snapshot_propagates_mid_write_failures() {
        let bytes = vec![0xAB; 200 * 1024];
        let mut w = FailingWriter { written: 0, limit: 100 * 1024 };
        let err = stream_snapshot(&bytes, &mut w).unwrap_err();
        assert!(err.to_string().contains("disk full"), "{err}");
        assert_eq!(w.written, 100 * 1024, "must have failed mid-stream, not up front");
    }

    #[test]
    fn atomic_write_replaces_and_survives_failure() {
        let dir = tmp_dir("atomic");
        let path = dir.join("snapshot.bin");
        atomic_write(&path, b"generation one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation one");
        atomic_write(&path, b"generation two").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"generation two");

        // Block the temp path with a directory: the write fails before a
        // single destination byte moves, and the old snapshot survives —
        // the regression the bare `File::create(path)` writer had.
        fs::create_dir_all(temp_sibling(&path)).unwrap();
        assert!(atomic_write(&path, b"generation three").is_err());
        assert_eq!(fs::read(&path).unwrap(), b"generation two", "failed write must not truncate");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn siblings_attach_suffixes_to_the_file_name() {
        let p = Path::new("/var/lib/wg/snapshot.bin");
        assert_eq!(temp_sibling(p), Path::new("/var/lib/wg/snapshot.bin.tmp"));
        assert_eq!(sibling(p, PREV_SUFFIX), Path::new("/var/lib/wg/snapshot.bin.prev"));
    }

    #[test]
    fn crash_states_enumerate_every_offset() {
        let torn = TornWriter::new(Some(b"old".to_vec()), b"newer".to_vec());
        let states = torn.crash_states();
        // 6 prefixes (0..=5) + between-renames + completed.
        assert_eq!(states.len(), 8);
        assert!(states[..6].iter().all(|s| s.primary.as_deref() == Some(b"old" as &[u8])));
        let between = &states[6];
        assert!(between.primary.is_none());
        assert_eq!(between.previous.as_deref(), Some(b"old" as &[u8]));
        assert_eq!(between.temp.as_deref(), Some(b"newer" as &[u8]));
        let done = &states[7];
        assert_eq!(done.primary.as_deref(), Some(b"newer" as &[u8]));
        assert_eq!(done.previous.as_deref(), Some(b"old" as &[u8]));

        // First-ever checkpoint: no old generation, no between-renames
        // state (there is nothing to demote).
        let first = TornWriter::new(None, b"new".to_vec());
        assert_eq!(first.crash_states().len(), 5);
    }

    #[test]
    fn bit_flip_states_touch_every_byte() {
        let torn = TornWriter::new(None, vec![0u8; 16]);
        let flips = torn.bit_flip_states();
        assert_eq!(flips.len(), 16);
        for (i, s) in flips.iter().enumerate() {
            let p = s.primary.as_ref().unwrap();
            assert_eq!(p[i], 1 << (i % 8), "exactly one bit of byte {i} flipped");
            assert_eq!(p.iter().filter(|&&b| b != 0).count(), 1);
        }
    }

    #[test]
    fn materialize_round_trips_states() {
        let dir = tmp_dir("materialize");
        let path = dir.join("snapshot.bin");
        let state = CrashState {
            label: "test".into(),
            primary: Some(b"p".to_vec()),
            previous: None,
            temp: Some(b"t".to_vec()),
        };
        state.materialize(&path).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"p");
        assert!(!sibling(&path, PREV_SUFFIX).exists());
        assert_eq!(fs::read(temp_sibling(&path)).unwrap(), b"t");

        // Re-materializing a different state removes what it declares absent.
        let gone = CrashState { label: "gone".into(), primary: None, previous: None, temp: None };
        gone.materialize(&path).unwrap();
        assert!(!path.exists() && !temp_sibling(&path).exists());
        fs::remove_dir_all(&dir).ok();
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
                        for (r, vector) in data.chunks_exact(hasher.dim()).enumerate() {
                            assert_eq!(
                                image.signature_of(b, r),
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
