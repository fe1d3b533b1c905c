//! Index persistence.
//!
//! A deployed discovery service must survive restarts without re-scanning
//! (and re-paying for) the warehouse, and without redoing the build either:
//! the persisted artifact is the LSH index **as built** — geometry, seed,
//! and every row's vector *and signature* — plus the id → column-reference
//! registry and the sync tokens. The embedding model is deterministic and
//! derived from the config seed, so nothing model-side is stored.
//!
//! A snapshot — checkpoint, [`WarpGate::to_bytes`] image, paged directory —
//! is **one sealed segment** (DESIGN.md §9; container in
//! [`wg_util::segment`], row layout in `wg_lsh::paged`). The blocks hold the
//! rows in (signature, id) order; the header carries this module's
//! **manifest**:
//!
//! ```text
//! bands u32 │ rows u32 │ hyperplane seed u64
//! names u32 │ per backend the ids use: saved bits u32 │ attach name
//! entries u32 │ per entry: id u32 │ database │ table │ column
//! backends u32 │ per backend: name │ tables u32 │ database │ table │ token u64
//! ```
//!
//! * One writer (`WarpGate::seal`) builds every image, at one instant: under
//!   one read guard of the system's state.
//!   [`WarpGate::save_paged`] alone seals the int8 row sketches a lazily
//!   attached file prunes with into the directory; a hydrating load never
//!   reads them, so the other writers leave them out.
//! * One reader validates trailer → directory CRC → directory → manifest,
//!   then **hydrates** ([`WarpGate::load_bytes`], [`WarpGate::load_from_file`])
//!   or **attaches lazily** ([`WarpGate::load_paged`]). A paged snapshot is
//!   therefore also a valid checkpoint.
//! * Backend *names* are the identity that travels: the loader resolves the
//!   name table to its own interner bits and **recomposes every item id**,
//!   rows and registry alike. A name this process has never seen enters its
//!   (global, permanent) interner only once every byte the load is about to
//!   trust has been compared with its checksum.
//! * The sealed `dim`, banding and hyperplane seed must be the receiving
//!   config's ([`StoreError::Schema`] otherwise); `probes` is a query-time
//!   setting and comes from the config.
//! * Nothing installs unless everything parsed, verified and — hydrating —
//!   every block was read. A damaged file or one of another version is
//!   [`StoreError::SnapshotCorrupt`], a missing one [`StoreError::NotFound`]:
//!   the distinction recovery falls back to the previous checkpoint
//!   generation by (see [`crate::durability`]).

use std::path::Path;
use std::sync::Arc;

use wg_lsh::{compose_item_id, item_backend, item_local, VectorSegment};
use wg_store::{BackendId, ColumnRef, StoreError, StoreResult};
use wg_util::codec::{self, CodecError, CodecResult};
use wg_util::segment::SegmentError;
use wg_util::{atomic_file, names};

use crate::system::{PersistedBackendSync, WarpGate};

/// File name of the one segment inside a paged-snapshot directory.
pub const PAGED_FILE: &str = "snapshot.seg";

/// Everything a snapshot's manifest says (layout in the module doc), before
/// any system state — or the name interner — is touched: names not
/// interned, ids as the *saving* process composed them, refs in no
/// namespace yet ([`Manifest::adopt`] moves all three into this process's).
struct Manifest {
    /// `(bands, rows, hyperplane seed)` the rows were signed under.
    geometry: (usize, usize, u64),
    names: Vec<(u16, String)>,
    entries: Vec<(u32, ColumnRef)>,
    sync: Vec<PersistedBackendSync>,
}

impl Manifest {
    /// The manifest of id-sorted `entries` and `sync` under `geometry`. The
    /// name table lists every namespace the entries' ids use.
    fn encode(
        geometry: (usize, usize, u64),
        entries: &[(u32, &ColumnRef)],
        sync: &[PersistedBackendSync],
    ) -> Vec<u8> {
        let buf = &mut Vec::with_capacity(entries.len() * 64 + 256);
        codec::put_u32(buf, geometry.0 as u32);
        codec::put_u32(buf, geometry.1 as u32);
        codec::put_u64(buf, geometry.2);
        let mut backends: Vec<u16> = entries.iter().map(|(id, _)| item_backend(*id)).collect();
        backends.dedup();
        codec::put_len(buf, backends.len());
        for bits in backends {
            codec::put_u32(buf, bits as u32);
            codec::put_str(buf, &BackendId::from_bits(bits).name());
        }
        codec::put_len(buf, entries.len());
        for (id, r) in entries {
            codec::put_u32(buf, *id);
            for part in [&r.database, &r.table, &r.column] {
                codec::put_str(buf, part);
            }
        }
        codec::put_len(buf, sync.len());
        for backend in sync {
            codec::put_str(buf, &backend.name);
            codec::put_len(buf, backend.tables.len());
            for (database, table, version) in &backend.tables {
                codec::put_str(buf, database);
                codec::put_str(buf, table);
                codec::put_u64(buf, *version);
            }
        }
        std::mem::take(buf)
    }

    /// Every count is checked against the bytes that remain (by the fewest
    /// an item can take) before anything is reserved for it.
    fn parse(bytes: &[u8]) -> CodecResult<Manifest> {
        let buf = &mut &bytes[..];
        let (bands, rows) = (codec::get_u32(buf)? as usize, codec::get_u32(buf)? as usize);
        let geometry = (bands, rows, codec::get_u64(buf)?);
        let mut names = Vec::with_capacity(codec::get_count(buf, 8)?);
        for _ in 0..names.capacity() {
            let bits = codec::get_u32(buf)?;
            if bits as usize >= names::MAX_NAMES {
                return Err(CodecError::Invalid(format!("backend bits {bits} out of range")));
            }
            names.push((bits as u16, codec::get_str(buf)?));
        }
        let mut entries = Vec::with_capacity(codec::get_count(buf, 4 + 3 * 4)?);
        for _ in 0..entries.capacity() {
            let id = codec::get_u32(buf)?;
            let (database, table) = (codec::get_str(buf)?, codec::get_str(buf)?);
            entries.push((id, ColumnRef::new(database, table, codec::get_str(buf)?)));
        }
        let mut sync = Vec::with_capacity(codec::get_count(buf, 8)?);
        for _ in 0..sync.capacity() {
            let name = codec::get_str(buf)?;
            let mut tables = Vec::with_capacity(codec::get_count(buf, 16)?);
            for _ in 0..tables.capacity() {
                let (database, table) = (codec::get_str(buf)?, codec::get_str(buf)?);
                tables.push((database, table, codec::get_u64(buf)?));
            }
            sync.push(PersistedBackendSync { name, tables });
        }
        if !buf.is_empty() {
            return Err(CodecError::Invalid(format!("{} trailing bytes", buf.len())));
        }
        Ok(Manifest { geometry, names, entries, sync })
    }

    /// Resolve the name table to this process's interner bits — interning
    /// what it has not seen — and move every registry entry into them.
    /// Returns saved bits → local bits, for the rows.
    fn adopt(&mut self) -> CodecResult<[Option<u16>; names::MAX_NAMES]> {
        let mut remap = [None; names::MAX_NAMES];
        for (saved, name) in &self.names {
            remap[*saved as usize] = Some(BackendId::named(name).bits());
        }
        for (id, r) in &mut self.entries {
            let bits = remap[item_backend(*id) as usize].ok_or_else(|| {
                CodecError::Invalid(format!("entry {id} is in a namespace the table does not name"))
            })?;
            r.backend = BackendId::from_bits(bits);
            *id = compose_item_id(bits, item_local(*id));
        }
        Ok(remap)
    }
}

/// A segment-level failure as a load's verdict: damage is corruption, a
/// file that cannot be read is a file that is not there.
fn load_err(e: SegmentError) -> StoreError {
    match e {
        SegmentError::Io(e) => StoreError::NotFound(format!("snapshot file: {e}")),
        SegmentError::Corrupt(msg) => StoreError::SnapshotCorrupt(msg),
    }
}

fn corrupt(what: &str, e: impl std::fmt::Display) -> StoreError {
    StoreError::SnapshotCorrupt(format!("{what}: {e}"))
}

impl WarpGate {
    /// The one writer: the system as it stands at one instant, as one
    /// segment image, and the number of rows in it. `sketches` is not
    /// settable from outside. The error is a row of the paged tier that
    /// could not be read back.
    pub(crate) fn seal(&self, sketches: bool) -> std::io::Result<(Vec<u8>, usize)> {
        // Tokens, entries and rows are read under one read guard, held until
        // the last row is read.
        let state = self.state.read();
        // A detached paged namespace leaves ids registered without rows, so
        // a re-attach reuses them; those are not sealed.
        let mut entries: Vec<(u32, &ColumnRef)> =
            state.registry.entries().filter(|(id, _)| state.index.contains(*id)).collect();
        entries.sort_unstable_by_key(|(id, _)| *id);

        let params = state.index.params();
        let geometry = (params.bands, params.rows, state.index.seed());
        let manifest = Manifest::encode(geometry, &entries, &state.persisted_tokens());
        let registered = |id| state.registry.reference(id).is_some();
        let image = state.index.seal(self.config.block_rows, sketches, &manifest, registered)?;
        Ok((image, entries.len()))
    }

    /// The one reader, from an opened segment (trailer, directory and block
    /// metadata already validated): hydrate from it, or — `lazy` — attach
    /// it. Installs only on full success.
    fn load_segment(&mut self, mut segment: VectorSegment, lazy: bool) -> StoreResult<()> {
        let mut manifest =
            Manifest::parse(&segment.take_manifest()).map_err(|e| corrupt("manifest", e))?;
        let mut index = self.fresh_index();
        let params = index.params();
        let (bands, rows, seed) = manifest.geometry;
        let sealed = (segment.dim(), segment.sig_bits(), bands, rows, seed);
        let ours = (index.dim(), params.bits(), params.bands, params.rows, index.seed());
        if sealed != ours {
            return Err(StoreError::Schema(format!(
                "snapshot geometry (dim, signature bits, bands, rows, hyperplane seed) {sealed:?} \
                 does not match the config's {ours:?}"
            )));
        }
        if lazy && !segment.has_sketches() {
            return Err(StoreError::Schema(
                "snapshot carries no row sketches: load it with load_from_file".into(),
            ));
        }
        if segment.row_count() != manifest.entries.len() {
            return Err(StoreError::SnapshotCorrupt(format!(
                "segment holds {} rows but the manifest registry has {} entries",
                segment.row_count(),
                manifest.entries.len()
            )));
        }
        // Interning is process-global and permanent. The directory has
        // verified; a hydrating load is about to trust the payloads too, so
        // before a name it has never seen goes in, they verify as well.
        if !lazy && manifest.names.iter().any(|(_, name)| names::lookup(name).is_none()) {
            segment.verify_payloads().map_err(load_err)?;
        }
        let remap = manifest.adopt().map_err(|e| corrupt("manifest", e))?;
        let map = |id| Some(compose_item_id(remap[item_backend(id) as usize]?, item_local(id)));
        let installed = if lazy {
            index.attach_segment_mapped(Arc::new(segment), map).map_err(|e| corrupt("attach", e))
        } else {
            index.hydrate(&segment, map).map_err(load_err)
        }?;
        if installed != manifest.entries.len() {
            return Err(StoreError::SnapshotCorrupt(format!(
                "{installed} of {} rows are in a namespace the manifest names",
                manifest.entries.len()
            )));
        }
        self.restore_from_persist(index, manifest.entries, manifest.sync)
    }

    /// Serialize the index + registry + sync tokens into one buffer: a
    /// segment image without row sketches.
    ///
    /// # Panics
    ///
    /// When a row of the paged tier cannot be read back from its segment;
    /// [`Self::save_to_file`] and [`crate::Checkpointer::checkpoint`]
    /// return that as an error instead.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.seal(false).expect("a paged block could not be read back for the snapshot").0
    }

    /// Restore index + registry from bytes produced by [`Self::to_bytes`]
    /// (or read from any snapshot file), hydrating every row.
    pub fn load_bytes(&mut self, bytes: &[u8]) -> StoreResult<()> {
        let segment = VectorSegment::from_bytes(bytes.to_vec(), self.block_cache().clone());
        self.load_segment(segment.map_err(load_err)?, false)
    }

    /// Write the snapshot to a file, atomically: the bytes stream into a
    /// sibling temp file which is fsynced and renamed over `path`, so a
    /// crash — or a full disk — mid-write can never destroy a snapshot
    /// that was already there (see [`wg_util::atomic_file`]).
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_file::write(path.as_ref(), &self.seal(false)?.0)
    }

    /// Load a snapshot file — a checkpoint or a paged snapshot — into this
    /// (already configured) system, hydrating every row: the directory is
    /// read and verified, then every block is read once with a positioned
    /// read, checked and decoded into the arena — never the whole file
    /// resident, nor read twice. A missing/unreadable file is
    /// [`StoreError::NotFound`]; one that fails a checksum or a parse is
    /// [`StoreError::SnapshotCorrupt`].
    pub fn load_from_file(&mut self, path: impl AsRef<Path>) -> StoreResult<()> {
        let segment = VectorSegment::open(path.as_ref(), self.block_cache().clone());
        self.load_segment(segment.map_err(load_err)?, false)
    }

    /// Seal the system's state into a **paged snapshot directory**: the
    /// one segment file [`PAGED_FILE`], written atomically, whose directory
    /// also carries every row's int8 sketch (see `wg_lsh::paged`). Returns
    /// how many segment files hold rows: 1, or 0 for an empty index.
    pub fn save_paged(&self, dir: impl AsRef<Path>) -> std::io::Result<usize> {
        std::fs::create_dir_all(dir.as_ref())?;
        let (image, rows) = self.seal(true)?;
        atomic_file::write(&dir.as_ref().join(PAGED_FILE), &image)?;
        Ok(usize::from(rows > 0))
    }

    /// Restore from a paged snapshot directory written by
    /// [`Self::save_paged`] — **lazily**: the directory and block metadata
    /// (ids, signatures, norms, row sketches) load now, so every sealed row
    /// becomes searchable, but vector payloads stay on disk until a query's
    /// exact re-rank reads their block through the system's byte-budgeted
    /// cache (the beyond-RAM deployment mode). A payload that rotted is
    /// refused — typed, never cached — at the first read of its block.
    pub fn load_paged(&mut self, dir: impl AsRef<Path>) -> StoreResult<()> {
        let path = dir.as_ref().join(PAGED_FILE);
        let segment = VectorSegment::open(&path, self.block_cache().clone());
        self.load_segment(segment.map_err(load_err)?, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarpGateConfig;
    use crate::QueryOptions;
    use std::sync::Arc;
    use wg_lsh::DiscoverScope;
    use wg_store::{CdwConfig, CdwConnector, Column, Database, Table, TableRef, Warehouse};

    fn connector() -> Arc<CdwConnector> {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "a",
                vec![Column::text("x", (0..50).map(|i| format!("val {i}")).collect::<Vec<_>>())],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "b",
                vec![Column::text("y", (0..50).map(|i| format!("VAL {i}")).collect::<Vec<_>>())],
            )
            .unwrap(),
        );
        w.add_database(db);
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    /// A second warehouse whose one column joins `connector()`'s.
    fn lake_connector() -> Arc<CdwConnector> {
        let values: Vec<String> = (0..50).map(|i| format!("Val {i}")).collect();
        let mut w = Warehouse::new("lake");
        w.database_mut("raw")
            .add_table(Table::new("dump", vec![Column::text("x_variant", values)]).unwrap());
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wg_persist_{tag}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip_preserves_discovery() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let before = wg.discover(&q, 3).unwrap().candidates;

        let bytes = wg.to_bytes();
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
        fresh.load_bytes(&bytes).unwrap();
        assert_eq!(fresh.len(), wg.len());
        let after = fresh.discover(&q, 3).unwrap().candidates;
        assert_eq!(before, after);
    }

    #[test]
    fn roundtrip_after_removal_keeps_gaps() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c);
        wg.index_warehouse().unwrap();
        wg.remove_table(&TableRef::new("db", "b"));
        let bytes = wg.to_bytes();
        let mut fresh = WarpGate::new(WarpGateConfig::default());
        fresh.load_bytes(&bytes).unwrap();
        assert_eq!(fresh.len(), 1);
        // The removed table must not reappear.
        let hits = fresh.discover_values(&["VAL 1"], 5, &DiscoverScope::All).unwrap();
        assert!(hits.iter().all(|h| h.reference.table != "b"));
    }

    #[test]
    fn file_roundtrip() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c);
        wg.index_warehouse().unwrap();
        let path = std::env::temp_dir().join(format!("wg_snapshot_{}.bin", std::process::id()));
        wg.save_to_file(&path).unwrap();
        let mut fresh = WarpGate::new(WarpGateConfig::default());
        fresh.load_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(fresh.len(), 2);
    }

    #[test]
    fn streaming_file_load_matches_in_memory_load() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let path = temp_path("stream");
        wg.save_to_file(&path).unwrap();

        let mut by_bytes = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        by_bytes.load_bytes(&std::fs::read(&path).unwrap()).unwrap();
        let mut by_file = WarpGate::with_backend(WarpGateConfig::default(), c);
        by_file.load_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(by_file.len(), by_bytes.len());
        assert_eq!(
            by_file.discover(&q, 3).unwrap().candidates,
            by_bytes.discover(&q, 3).unwrap().candidates
        );
        let report = by_file.sync().unwrap();
        assert!(report.is_noop(), "streamed restore carries sync tokens too: {report:?}");
    }

    #[test]
    fn streaming_file_load_rejects_truncations_and_flips() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c);
        wg.index_warehouse().unwrap();
        let bytes = wg.to_bytes();
        let path = temp_path("chaos");
        // Truncation sweep (coarse — `tests/crash_recovery.rs` does every
        // length): each cut must be refused as corrupt without installing
        // partial state. No cut is a valid file: the trailer is written
        // last and validated first.
        for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut fresh = WarpGate::new(WarpGateConfig::default());
            let err = fresh.load_from_file(&path).unwrap_err();
            assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "truncation to {cut}: {err}");
            assert_eq!(fresh.len(), 0, "truncation to {cut} left partial state");
        }
        // Bit-flip sweep: payload flips fail their block's CRC, directory
        // flips the directory's, trailer flips the trailer's own checks.
        for i in (0..bytes.len()).step_by(131) {
            let mut broken = bytes.clone();
            broken[i] ^= 0x10;
            std::fs::write(&path, &broken).unwrap();
            let mut fresh = WarpGate::new(WarpGateConfig::default());
            let err = fresh.load_from_file(&path).unwrap_err();
            assert!(
                matches!(err, StoreError::SnapshotCorrupt(_)),
                "flip at {i} gave unexpected error {err}"
            );
            assert_eq!(fresh.len(), 0, "flip at {i} left partial state");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn restore_carries_sync_tokens_so_unchanged_content_syncs_as_noop() {
        // The tentpole behavior: persisted version tokens survive the
        // restart, so the first sync of a restored system over unchanged
        // warehouse content re-bills *nothing*.
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        assert!(wg.sync().unwrap().is_noop(), "freshly indexed system syncs as a no-op");
        let bytes = wg.to_bytes();
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
        fresh.load_bytes(&bytes).unwrap();
        let report = fresh.sync().unwrap();
        assert!(
            report.is_noop(),
            "restored tokens must make an unchanged-content sync a no-op: {report:?}"
        );
    }

    #[test]
    fn restored_tokens_rescan_only_what_changed() {
        // The billing story: after a restart, mutate one of the two
        // tables — sync must re-scan that table only.
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        for t in ["a", "b"] {
            db.add_table(
                Table::new(
                    t,
                    vec![Column::text(
                        "x",
                        (0..40).map(|i| format!("{t} {i}")).collect::<Vec<_>>(),
                    )],
                )
                .unwrap(),
            );
        }
        w.add_database(db);
        let c = Arc::new(CdwConnector::new(w, CdwConfig::free()));
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        let bytes = wg.to_bytes();

        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        fresh.load_bytes(&bytes).unwrap();
        c.warehouse_mut().database_mut("db").add_table(
            Table::new("b", vec![Column::text("x", vec!["changed".to_string(); 40])]).unwrap(),
        );
        let report = fresh.sync().unwrap();
        assert_eq!(report.tables_updated, 1, "only the mutated table re-scans: {report:?}");
        assert_eq!(report.tables_added, 0, "{report:?}");
    }

    #[test]
    fn snapshots_carry_the_integrity_footer() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c);
        wg.index_warehouse().unwrap();
        let bytes = wg.to_bytes();
        // The image closes with the segment trailer, and that is all of it:
        // the directory it points at ends where the trailer begins.
        let trailer = &bytes[bytes.len() - wg_util::segment::TRAILER_LEN..];
        assert_eq!(trailer[..4], wg_util::segment::TRAILER_MAGIC);
        let dir_at = u64::from_le_bytes(trailer[8..16].try_into().unwrap()) as usize;
        let dir_len = u32::from_le_bytes(trailer[16..20].try_into().unwrap()) as usize;
        assert_eq!(dir_at + dir_len + trailer.len(), bytes.len());

        // Corrupt one payload byte, or one directory byte: the block's or
        // the directory's checksum catches it, the error is typed, and the
        // target system stays untouched.
        for at in [10, dir_at + 10] {
            let mut corrupted = bytes.clone();
            corrupted[at] ^= 0x40;
            let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), connector());
            let err = fresh.load_bytes(&corrupted).unwrap_err();
            assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
            assert_eq!(fresh.len(), 0, "failed load must not partially mutate");
        }
    }

    #[test]
    fn rejects_garbage_and_dim_mismatch() {
        let mut wg = WarpGate::new(WarpGateConfig::default());
        assert!(wg.load_bytes(b"garbage").is_err());

        let c = connector();
        let wg64 = WarpGate::with_backend(WarpGateConfig { dim: 64, ..Default::default() }, c);
        wg64.index_warehouse().unwrap();
        let bytes = wg64.to_bytes();
        let mut wg128 = WarpGate::new(WarpGateConfig::default());
        let err = wg128.load_bytes(&bytes).expect_err("dimension mismatch must fail");
        assert!(matches!(err, StoreError::Schema(_)), "{err}");
    }

    #[test]
    fn missing_file_errors() {
        let mut wg = WarpGate::new(WarpGateConfig::default());
        assert!(wg.load_from_file("/nonexistent/path/snapshot.bin").is_err());
    }

    #[test]
    fn snapshot_bytes_match_the_golden_snapshot() {
        // A hand-built index and registry, so the image depends on the
        // writer (and on the seed → hyperplanes → signature mapping, which
        // the stored signatures make part of the format) alone. A change
        // here is an on-disk format change: bump SEGMENT_VERSION with it.
        // Pinned by PR 22 (segment v3: a snapshot is one segment; this one
        // is sealed without sketches, two rows to a block).
        let config = WarpGateConfig { dim: 8, ..Default::default() }.with_block_rows(2);
        let mut wg = WarpGate::new(config);
        let mut index = wg.fresh_index();
        let mut entries = Vec::new();
        for i in 0..5u32 {
            let v: Vec<f32> = (0..8).map(|d| ((i * 8 + d) as f32 * 0.37).sin()).collect();
            // Ids with a gap, inserted out of order.
            let id = [9, 2, 4, 0, 3][i as usize];
            assert!(index.insert(id, &v));
            entries.push((id, ColumnRef::new("db", format!("t{}", i / 2), format!("c{i}"))));
        }
        let sync = vec![PersistedBackendSync {
            name: "default".into(),
            tables: vec![("db".into(), "t0".into(), 0xFEED), ("db".into(), "t1".into(), 7)],
        }];
        wg.restore_from_persist(index, entries, sync).unwrap();
        let image = wg.to_bytes();
        assert_eq!(image.len(), 660);
        assert_eq!(wg_util::checksum::crc32(&image), 0x36B4_1BA4);
        // And the image is a fixed point of load → save, through either
        // hydrating loader.
        let mut from_bytes = WarpGate::new(config);
        from_bytes.load_bytes(&image).unwrap();
        assert_eq!(from_bytes.to_bytes(), image);
        let path = temp_path("golden");
        std::fs::write(&path, &image).unwrap();
        let mut from_file = WarpGate::new(config);
        from_file.load_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(from_file.to_bytes(), image);
    }

    #[test]
    fn federated_snapshot_roundtrip_preserves_namespaces() {
        let cdw = connector();
        let lake_c = lake_connector();

        let wg = WarpGate::with_backend(WarpGateConfig::default(), cdw.clone());
        let lake = wg.attach_named("persist-test-lake", lake_c.clone());
        wg.index_warehouse().unwrap();
        assert_eq!(wg.len(), 3);
        let q = ColumnRef::new("db", "a", "x");
        let before = wg.discover(&q, 5).unwrap().candidates;
        assert!(
            before.iter().any(|j| j.reference.backend == lake),
            "fixture must produce a cross-namespace hit: {before:?}"
        );

        // One container version, whatever the namespaces.
        let bytes = wg.to_bytes();
        let (magic, version) = (wg_util::segment::SEGMENT_MAGIC, wg_util::segment::SEGMENT_VERSION);
        assert_eq!(codec::get_header(&mut &bytes[..], magic).unwrap(), version);

        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), cdw);
        fresh.attach_named("persist-test-lake", lake_c);
        fresh.load_bytes(&bytes).unwrap();
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.discover(&q, 5).unwrap().candidates, before);
        // Scoped discovery still addresses the restored namespace.
        let scoped = fresh
            .discover_with(&q, 5, &QueryOptions::scoped(DiscoverScope::include([lake.bits()])))
            .unwrap();
        assert!(!scoped.candidates.is_empty());
        assert!(scoped.candidates.iter().all(|j| j.reference.backend == lake));
    }

    #[test]
    fn paged_roundtrip_preserves_discovery_and_stays_lazy() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let before = wg.discover(&q, 3).unwrap().candidates;

        let dir = temp_path("paged_rt");
        let segs = wg.save_paged(&dir).unwrap();
        assert!(segs > 0, "a populated system seals at least one segment");

        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
        fresh.load_paged(&dir).unwrap();
        assert_eq!(fresh.len(), wg.len());
        assert_eq!(fresh.cold_len(), wg.len(), "every restored row serves from disk");
        assert_eq!(fresh.cold_segment_count(), 1, "one file is one live segment");
        let at_load = fresh.block_cache_stats();
        assert_eq!(at_load.len, 0, "restore must not hydrate payloads");
        assert_eq!(at_load.misses, 0, "restore must not read payload blocks at all");

        let d = fresh.discover(&q, 3).unwrap();
        assert_eq!(d.candidates, before, "paged restore changes no ranking");
        assert!(d.timing.blocks_read > 0, "cold candidates must be read from disk");
        assert!(fresh.block_cache_stats().misses > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_roundtrip_carries_sync_tokens() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        let dir = temp_path("paged_sync");
        wg.save_paged(&dir).unwrap();
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
        fresh.load_paged(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let report = fresh.sync().unwrap();
        assert!(report.is_noop(), "restored tokens make the first sync a no-op: {report:?}");
    }

    #[test]
    fn paged_load_rejects_corrupt_manifest_and_segments() {
        // Both columns sit in the file's one block, so a query for either
        // reads it.
        let config = WarpGateConfig::default();
        let c = connector();
        let wg = WarpGate::with_backend(config, c.clone());
        wg.index_warehouse().unwrap();
        let dir = temp_path("paged_bad");
        assert_eq!(wg.save_paged(&dir).unwrap(), 1);
        let seg = dir.join(PAGED_FILE);
        let good = std::fs::read(&seg).unwrap();

        // Flip one byte of the directory — in the manifest, then in a
        // block's metadata at its far end: the directory's checksum rejects
        // the file at open, before any state installs.
        let trailer_at = good.len() - wg_util::segment::TRAILER_LEN;
        let dir_at = u64::from_le_bytes(good[trailer_at + 8..trailer_at + 16].try_into().unwrap());
        for at in [dir_at as usize + 40, trailer_at - 8] {
            let mut bad = good.clone();
            bad[at] ^= 0x08;
            std::fs::write(&seg, &bad).unwrap();
            let mut fresh = WarpGate::with_backend(config, c.clone());
            let err = fresh.load_paged(&dir).unwrap_err();
            assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
            assert_eq!(fresh.len(), 0, "failed paged load must not partially mutate");
        }

        // Flip one payload byte: the restore is lazy and succeeds, and the
        // block CRC refuses to serve the block on first read — as a typed
        // error. The same file handed to the hydrating loader, which reads
        // every block, is refused up front.
        let mut bad = good.clone();
        bad[wg_util::segment::PREAMBLE_LEN + 5] ^= 0x20;
        std::fs::write(&seg, &bad).unwrap();
        let mut fresh = WarpGate::with_backend(config, c.clone());
        fresh.load_paged(&dir).unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let err = fresh.discover(&q, 3).expect_err("a payload flip must never serve");
        assert!(matches!(err, StoreError::Backend(_)), "{err}");
        assert_eq!(fresh.block_cache_stats().len, 0, "nor is it ever cached");
        let mut hydrating = WarpGate::with_backend(config, c);
        let err = hydrating.load_from_file(&seg).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
        assert_eq!(hydrating.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_load_rejects_geometry_mismatch() {
        let c = connector();
        let wg =
            WarpGate::with_backend(WarpGateConfig { dim: 64, ..Default::default() }, c.clone());
        wg.index_warehouse().unwrap();
        let dir = temp_path("paged_geom");
        wg.save_paged(&dir).unwrap();
        let mut wrong_dim = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        assert!(matches!(wrong_dim.load_paged(&dir), Err(StoreError::Schema(_))));
        let mut wrong_seed =
            WarpGate::with_backend(WarpGateConfig { dim: 64, seed: 99, ..Default::default() }, c);
        assert!(matches!(wrong_seed.load_paged(&dir), Err(StoreError::Schema(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paged_federated_roundtrip_recomposes_namespaces() {
        let cdw = connector();
        let lake_c = lake_connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), cdw.clone());
        let lake = wg.attach_named("paged-test-lake", lake_c.clone());
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let before = wg.discover(&q, 5).unwrap().candidates;

        let dir = temp_path("paged_fed");
        wg.save_paged(&dir).unwrap();
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), cdw);
        fresh.attach_named("paged-test-lake", lake_c);
        fresh.load_paged(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.discover(&q, 5).unwrap().candidates, before);
        let scoped = fresh
            .discover_with(&q, 5, &QueryOptions::scoped(DiscoverScope::include([lake.bits()])))
            .unwrap();
        assert!(!scoped.candidates.is_empty());
        assert!(scoped.candidates.iter().all(|j| j.reference.backend == lake));
    }
}
