//! Index persistence.
//!
//! A deployed discovery service must survive restarts without re-scanning
//! (and re-paying for) the warehouse. The persisted artifact is the LSH
//! index (vectors + geometry + seed) plus the id → column-reference
//! registry; because the embedding model itself is deterministic and
//! derived from the config seed, nothing model-side needs to be stored.
//!
//! Two frame versions exist (see DESIGN.md §9):
//!
//! * **v1** — the pre-federation format: entries are bare
//!   `(id, database, table, column)` tuples. Still written whenever every
//!   indexed column lives in the `"default"` namespace (byte-identical to
//!   what the pre-federation writer produced), and still read — old
//!   snapshots load with every ref in the default namespace.
//! * **v2** — federated: entries carry their backend *name* (via
//!   [`ColumnRef::encode`]), and the index payload is the WGLX v2 frame
//!   with its backend-name table. Names are the authoritative identity
//!   across processes; the loader re-interns each name and **recomposes
//!   every item id** from the local interner's bits plus the saved
//!   per-backend local part, because the saving process's bit assignment
//!   need not match this one's.
//!
//! Since the durability work (DESIGN.md §10) every written snapshot also
//! carries, *after* the index payload:
//!
//! * a **WGST sync-state frame** — per backend name, the table → version
//!   tokens the index currently reflects, so a restarted node's first
//!   `sync()` re-scans only tables that actually changed instead of
//!   re-billing the whole warehouse; and
//! * a trailing **WGFT integrity footer** (see [`wg_util::checksum`]) —
//!   magic, body length and CRC-32 over everything before it, so torn or
//!   bit-rotted files are rejected before a single body byte is trusted.
//!
//! Both are strictly additive: the v1/v2 header version is unchanged, and
//! footerless pre-durability files (which also lack WGST) still load —
//! with the historical behavior of invalidating all sync state. Every
//! integrity failure surfaces as [`StoreError::SnapshotCorrupt`] with the
//! byte offset where parsing went wrong; the loader parses into locals and
//! installs state only on full success, so a corrupt file never leaves the
//! system half-mutated (which is what lets recovery fall back to the
//! previous checkpoint generation, see [`crate::durability`]).
//!
//! The body parse is generic over [`codec::Buf`], so the same code path
//! serves in-memory bytes ([`WarpGate::load_bytes`]) and a **streaming**
//! file restore ([`WarpGate::load_from_file`]): the footer check reads the
//! trailing [`checksum::FOOTER_LEN`] bytes plus one chunked CRC pass, and
//! the frames parse through a bounded [`ReaderBuf`] window — a restore
//! never materializes the whole snapshot file in memory.
//!
//! **Paged snapshots** (DESIGN.md §11) are the beyond-RAM alternative:
//! [`WarpGate::save_paged`] seals every shard's rows into a checksummed
//! `seg-N.seg` segment file (vectors in fixed-size blocks with row sketches,
//! see `wg_lsh::paged`) next to a small [`PAGED_MANIFEST`] holding the
//! geometry, registry, sync tokens, and segment list.
//! [`WarpGate::load_paged`] restores by attaching those segments
//! **lazily**: block metadata (ids, signatures, norms, row sketches) loads at
//! open, but vector payloads stay on disk until a query's exact re-rank
//! actually needs them, served through the system's byte-budgeted block
//! cache.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::sync::Arc;

use wg_lsh::{compose_item_id, item_backend, item_local, ShardedLshIndex, VectorSegment};
use wg_store::{BackendId, ColumnRef, StoreError, StoreResult};
use wg_util::codec::{self, Buf, ReaderBuf};
use wg_util::{checksum, segment, FxHashMap};

use crate::system::{PersistedBackendSync, WarpGate};

const MAGIC: [u8; 4] = *b"WGSY";
const VERSION: u32 = 1;
const VERSION_FEDERATED: u32 = 2;

/// Magic of the appended sync-state frame.
const SYNC_MAGIC: [u8; 4] = *b"WGST";
const SYNC_VERSION: u32 = 1;

/// Magic/version of the paged-snapshot manifest file.
const PAGED_MAGIC: [u8; 4] = *b"WGPM";
const PAGED_VERSION: u32 = 1;

/// File name of the paged-snapshot manifest inside its directory.
pub const PAGED_MANIFEST: &str = "manifest.wgm";

/// A parse failure at a known position in the snapshot body: the offset
/// pins *where* the bytes stopped making sense, which with a verified
/// checksum should never happen (and without one is the whole diagnosis).
fn corrupt_at(
    what: impl std::fmt::Display,
    offset: usize,
    e: impl std::fmt::Display,
) -> StoreError {
    StoreError::SnapshotCorrupt(format!("{what} at byte offset {offset}: {e}"))
}

/// Everything a snapshot body parses into, before any system state is
/// touched.
type ParsedSnapshot = (ShardedLshIndex, Vec<(u32, ColumnRef)>, Option<Vec<PersistedBackendSync>>);

/// Parse a full snapshot body (header → registry entries → index frame →
/// optional sync frame) from any [`Buf`] — a byte slice or a bounded file
/// reader. `total` is the body length, for offset reporting only.
fn parse_snapshot(total: usize, buf: &mut impl Buf, shards: usize) -> StoreResult<ParsedSnapshot> {
    macro_rules! step {
        ($what:expr, $r:expr) => {
            match $r {
                Ok(v) => v,
                Err(e) => return Err(corrupt_at($what, total - buf.remaining(), e)),
            }
        };
    }
    let version = step!("snapshot header", codec::get_header(buf, MAGIC));
    let n = step!("registry entry count", codec::get_len(buf));
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    match version {
        VERSION => {
            for i in 0..n {
                let id = step!(format!("entry #{i} id"), codec::get_u32(buf));
                let database = step!(format!("entry #{i} database"), codec::get_str(buf));
                let table = step!(format!("entry #{i} table"), codec::get_str(buf));
                let column = step!(format!("entry #{i} column"), codec::get_str(buf));
                entries.push((id, ColumnRef::new(database, table, column)));
            }
        }
        VERSION_FEDERATED => {
            for i in 0..n {
                let saved_id = step!(format!("entry #{i} id"), codec::get_u32(buf));
                let r = step!(format!("entry #{i} ref"), ColumnRef::decode(buf));
                // The saved id's high bits are the *saving* process's
                // interner assignment; only the name travels. Recompose
                // against this process's bits for the (re-interned)
                // backend, keeping the saved per-backend local part.
                let id = compose_item_id(r.backend.bits(), item_local(saved_id));
                entries.push((id, r));
            }
        }
        v => return Err(StoreError::SnapshotCorrupt(format!("unsupported snapshot version {v}"))),
    }
    // The index payload is length-prefixed; decode it in place and hold
    // the decoder to exactly the promised frame, so the streaming path
    // never buffers it whole.
    let frame_len = step!("index payload", codec::get_len(buf));
    if frame_len > buf.remaining() {
        return Err(corrupt_at(
            "index payload",
            total - buf.remaining(),
            format!("frame length {frame_len} exceeds the {} bytes left", buf.remaining()),
        ));
    }
    let before = buf.remaining();
    // The same name-authoritative remap applies inside the index frame
    // (v1 index payloads have no name table and resolve nothing).
    let index =
        step!(
            "index frame",
            ShardedLshIndex::decode_with_backends(buf, shards, |name| Ok(
                BackendId::named(name).bits()
            ))
        );
    let consumed = before - buf.remaining();
    if consumed != frame_len {
        return Err(corrupt_at(
            "index frame",
            total - buf.remaining(),
            format!("decoded {consumed} bytes of a {frame_len}-byte frame"),
        ));
    }
    // Optional durable sync tokens; pre-durability files end here.
    let sync = if buf.remaining() == 0 { None } else { Some(parse_sync_frame(total, buf)?) };
    if buf.remaining() != 0 {
        return Err(corrupt_at(
            "snapshot end",
            total - buf.remaining(),
            "trailing bytes after last frame",
        ));
    }
    Ok((index, entries, sync))
}

impl WarpGate {
    /// Serialize the index + registry to a byte buffer. All-default
    /// contents produce the pre-federation v1 frame, byte for byte; any
    /// other namespace upgrades the frame to v2.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (index_bytes, entries) = self.snapshot_for_persist();
        let federated = entries.iter().any(|(_, r)| !r.backend.is_default());
        let mut buf = Vec::with_capacity(index_bytes.len() + 64 * entries.len() + 64);
        if federated {
            codec::put_header(&mut buf, MAGIC, VERSION_FEDERATED);
            codec::put_len(&mut buf, entries.len());
            for (id, r) in &entries {
                codec::put_u32(&mut buf, *id);
                r.encode(&mut buf);
            }
        } else {
            codec::put_header(&mut buf, MAGIC, VERSION);
            codec::put_len(&mut buf, entries.len());
            for (id, r) in &entries {
                codec::put_u32(&mut buf, *id);
                codec::put_str(&mut buf, &r.database);
                codec::put_str(&mut buf, &r.table);
                codec::put_str(&mut buf, &r.column);
            }
        }
        codec::put_bytes(&mut buf, &index_bytes);
        // Durable sync tokens: written even when empty so the frame layout
        // is uniform; only pre-durability files lack it.
        put_sync_frame(&mut buf, &self.sync_state_for_persist());
        checksum::append_footer(&mut buf);
        buf
    }

    /// Restore index + registry from bytes produced by [`Self::to_bytes`]
    /// (either frame version). The receiving system must be configured
    /// with the same dimension (and should use the same seed, or query
    /// embeddings will not live in the persisted index's space). The
    /// snapshot is shard-count independent: items redistribute into this
    /// system's configured shard layout on load, so a snapshot saved with
    /// 8 shards restores fine into 1 (or vice versa).
    pub fn load_bytes(&mut self, bytes: &[u8]) -> StoreResult<()> {
        // A checksum mismatch or torn footer is fatal for these bytes —
        // it is never downgraded to a legacy (footerless) parse. Files
        // that simply have no footer fall through to the body parse,
        // whose own bounds checks reject truncations.
        let (body, _integrity) = checksum::split_footer(bytes)
            .map_err(|e| StoreError::SnapshotCorrupt(format!("integrity footer: {e}")))?;
        let mut cursor = body;
        let (index, entries, sync) =
            parse_snapshot(body.len(), &mut cursor, self.config().effective_shards())?;
        // Everything parsed into locals; only now touch system state.
        self.restore_from_persist(index, entries, sync)
    }

    /// Write the snapshot to a file, atomically: the bytes stream into a
    /// sibling temp file which is fsynced and renamed over `path`, so a
    /// crash — or a full disk — mid-write can never destroy a snapshot
    /// that was already there (see [`crate::durability::atomic_write`]).
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        crate::durability::atomic_write(path, &self.to_bytes())
    }

    /// Load a snapshot from a file into this (already configured) system,
    /// **streaming**: the integrity footer is verified with one chunked
    /// CRC pass and the frames then parse through a bounded read window,
    /// so restoring never requires the whole file resident in memory.
    ///
    /// A missing/unreadable file is [`StoreError::NotFound`]; a present
    /// file that fails its checksum or parse is
    /// [`StoreError::SnapshotCorrupt`] — callers that checkpoint (see
    /// [`crate::durability::Checkpointer`]) use the distinction to fall
    /// back to the previous generation.
    pub fn load_from_file(&mut self, path: impl AsRef<Path>) -> StoreResult<()> {
        let path = path.as_ref();
        let not_found = |e: std::io::Error| StoreError::NotFound(format!("snapshot file: {e}"));
        let file_len = std::fs::metadata(path).map_err(not_found)?.len();
        // Classify the trailing footer exactly as `checksum::split_footer`
        // does: structurally absent footers (short file, wrong magic,
        // wrong length field) downgrade to the legacy bounds-checked
        // parse, but a present footer that fails its version or checksum
        // is corruption — never "legacy".
        let mut body_len = file_len;
        if file_len >= checksum::FOOTER_LEN as u64 {
            let mut f = std::fs::File::open(path).map_err(not_found)?;
            f.seek(SeekFrom::End(-(checksum::FOOTER_LEN as i64))).map_err(not_found)?;
            let mut foot = [0u8; checksum::FOOTER_LEN];
            f.read_exact(&mut foot).map_err(not_found)?;
            let claimed_len = u64::from_le_bytes(foot[8..16].try_into().expect("8 bytes"));
            if foot[..4] == checksum::FOOTER_MAGIC
                && claimed_len == file_len - checksum::FOOTER_LEN as u64
            {
                let version = u32::from_le_bytes(foot[4..8].try_into().expect("4 bytes"));
                if version != checksum::FOOTER_VERSION {
                    return Err(StoreError::SnapshotCorrupt(format!(
                        "integrity footer: snapshot footer version {version} is not supported \
                         (expected {})",
                        checksum::FOOTER_VERSION
                    )));
                }
                let stored_crc = u32::from_le_bytes(foot[16..20].try_into().expect("4 bytes"));
                f.seek(SeekFrom::Start(0)).map_err(not_found)?;
                let mut body = std::io::BufReader::new(&mut f);
                let actual = segment::crc32_reader(&mut body, claimed_len).map_err(not_found)?;
                if actual != stored_crc {
                    return Err(StoreError::SnapshotCorrupt(format!(
                        "integrity footer: snapshot checksum mismatch over {claimed_len} body \
                         bytes: stored {stored_crc:#010x}, computed {actual:#010x}"
                    )));
                }
                body_len = claimed_len;
            }
        }
        let f = std::fs::File::open(path).map_err(not_found)?;
        let mut reader = ReaderBuf::new(std::io::BufReader::new(f), body_len as usize);
        let parsed =
            parse_snapshot(body_len as usize, &mut reader, self.config().effective_shards());
        // An I/O fault mid-parse latches in the reader and zero-fills the
        // window; whatever "parsed" out of that is untrustworthy even if
        // it happened to look well-formed.
        if let Some(e) = reader.io_error() {
            return Err(StoreError::NotFound(format!("snapshot file: {e}")));
        }
        let (index, entries, sync) = parsed?;
        self.restore_from_persist(index, entries, sync)
    }

    /// Seal the system's state into a **paged snapshot directory**: one
    /// checksummed `seg-N.seg` segment file per non-empty index shard
    /// (fixed `block_rows`-row blocks of vectors, each block carrying
    /// resident ids, signatures, norms, and row sketches — see
    /// `wg_lsh::paged`), plus a small [`PAGED_MANIFEST`] with the
    /// geometry, the id → column registry, the durable sync tokens, and
    /// the segment list, all under a WGFT integrity footer. Every file is
    /// written atomically (temp + fsync + rename). Returns how many
    /// segment files were written.
    ///
    /// A system restored with [`Self::load_paged`] serves the sealed rows
    /// from disk through its block cache instead of holding them in RAM —
    /// the beyond-RAM deployment mode (DESIGN.md §11).
    pub fn save_paged(&self, dir: impl AsRef<Path>) -> std::io::Result<usize> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let index = self.lsh_index();
        let sig_bits = index.params().bits();
        let block_rows = self.config().block_rows;
        let mut segments: Vec<String> = Vec::new();
        for (i, rows) in index.export_segment_rows().into_iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let name = format!("seg-{i}.seg");
            wg_lsh::paged::write_vector_segment(
                &dir.join(&name),
                self.config().dim,
                sig_bits,
                block_rows,
                rows,
            )?;
            segments.push(name);
        }
        let entries = self.registry_entries_for_persist();
        let mut buf = Vec::new();
        codec::put_header(&mut buf, PAGED_MAGIC, PAGED_VERSION);
        codec::put_u32(&mut buf, self.config().dim as u32);
        codec::put_u32(&mut buf, sig_bits as u32);
        codec::put_u64(&mut buf, index.seed());
        codec::put_u32(&mut buf, block_rows as u32);
        codec::put_len(&mut buf, entries.len());
        for (id, r) in &entries {
            codec::put_u32(&mut buf, *id);
            r.encode(&mut buf);
        }
        put_sync_frame(&mut buf, &self.sync_state_for_persist());
        codec::put_len(&mut buf, segments.len());
        for name in &segments {
            codec::put_str(&mut buf, name);
        }
        checksum::append_footer(&mut buf);
        segment::atomic_write_bytes(&dir.join(PAGED_MANIFEST), &buf)?;
        Ok(segments.len())
    }

    /// Restore from a paged snapshot directory written by
    /// [`Self::save_paged`] — **lazily**: segment directories and block
    /// metadata (ids, signatures, norms, row sketches) load now, so every
    /// sealed row becomes searchable, but vector payloads stay on disk
    /// until a query's exact re-rank reads their block through the
    /// system's byte-budgeted cache. Item ids recompose through backend
    /// names exactly like the v2 flat snapshot; geometry (dimension,
    /// signature width, hyperplane seed) must match this system's config
    /// or the restore fails — before touching any state, as always.
    pub fn load_paged(&mut self, dir: impl AsRef<Path>) -> StoreResult<()> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(dir.join(PAGED_MANIFEST))
            .map_err(|e| StoreError::NotFound(format!("paged manifest: {e}")))?;
        let (body, integrity) = checksum::split_footer(&bytes)
            .map_err(|e| StoreError::SnapshotCorrupt(format!("paged manifest footer: {e}")))?;
        // Unlike flat snapshots there is no pre-footer legacy to honor:
        // the manifest was born checksummed, so a missing footer is
        // corruption.
        if integrity != checksum::FooterCheck::Verified {
            return Err(StoreError::SnapshotCorrupt(
                "paged manifest is missing its integrity footer".into(),
            ));
        }
        let total = body.len();
        let buf = &mut &body[..];
        macro_rules! step {
            ($what:expr, $r:expr) => {
                match $r {
                    Ok(v) => v,
                    Err(e) => return Err(corrupt_at($what, total - buf.remaining(), e)),
                }
            };
        }
        let version = step!("paged manifest header", codec::get_header(buf, PAGED_MAGIC));
        if version != PAGED_VERSION {
            return Err(StoreError::SnapshotCorrupt(format!(
                "unsupported paged manifest version {version}"
            )));
        }
        let dim = step!("manifest dim", codec::get_u32(buf)) as usize;
        let sig_bits = step!("manifest signature width", codec::get_u32(buf)) as usize;
        let seed = step!("manifest seed", codec::get_u64(buf));
        let _block_rows = step!("manifest block rows", codec::get_u32(buf));
        let index = self.fresh_index();
        if dim != index.dim() {
            return Err(StoreError::Schema(format!(
                "paged snapshot dimension {dim} does not match config {}",
                index.dim()
            )));
        }
        if sig_bits != index.params().bits() {
            return Err(StoreError::Schema(format!(
                "paged snapshot signature width {sig_bits} does not match config {}",
                index.params().bits()
            )));
        }
        if seed != index.seed() {
            return Err(StoreError::Schema(
                "paged snapshot was sealed under a different hyperplane seed".into(),
            ));
        }
        let n = step!("registry entry count", codec::get_len(buf));
        let mut entries = Vec::with_capacity(n.min(1 << 20));
        // Saved backend bits → this process's interned bits, recovered
        // from the registry entries (every sealed row has one). Sealed
        // segments store the composed ids of the *saving* process, so the
        // attach below remaps each row through this table.
        let mut rebits: FxHashMap<u16, u16> = FxHashMap::default();
        for i in 0..n {
            let saved_id = step!(format!("entry #{i} id"), codec::get_u32(buf));
            let r = step!(format!("entry #{i} ref"), ColumnRef::decode(buf));
            let old = item_backend(saved_id);
            let new = r.backend.bits();
            if *rebits.entry(old).or_insert(new) != new {
                return Err(corrupt_at(
                    format!("entry #{i} ref"),
                    total - buf.remaining(),
                    "saved backend bits map to two different names",
                ));
            }
            entries.push((compose_item_id(new, item_local(saved_id)), r));
        }
        let sync = parse_sync_frame(total, buf)?;
        let n_segs = step!("segment list", codec::get_len(buf));
        let mut names = Vec::with_capacity(n_segs.min(1 << 10));
        for i in 0..n_segs {
            let name = step!(format!("segment #{i} name"), codec::get_str(buf));
            if name.contains('/') || name.contains('\\') || name.contains("..") {
                return Err(corrupt_at(
                    format!("segment #{i} name"),
                    total - buf.remaining(),
                    format!("'{name}' is not a plain file name"),
                ));
            }
            names.push(name);
        }
        if buf.remaining() != 0 {
            return Err(corrupt_at(
                "paged manifest end",
                total - buf.remaining(),
                "trailing bytes after last frame",
            ));
        }
        let mut segments = Vec::with_capacity(names.len());
        for name in &names {
            let seg = VectorSegment::open(&dir.join(name), self.block_cache().clone())
                .map_err(|e| StoreError::SnapshotCorrupt(format!("segment {name}: {e}")))?;
            segments.push(Arc::new(seg));
        }
        let attached = index
            .attach_segments_mapped(&segments, |id| {
                rebits.get(&item_backend(id)).map(|&nb| compose_item_id(nb, item_local(id)))
            })
            .map_err(|e| StoreError::SnapshotCorrupt(format!("attaching paged segments: {e}")))?;
        if attached != entries.len() {
            return Err(StoreError::SnapshotCorrupt(format!(
                "paged segments hold {attached} registered rows but the manifest registry has \
                 {} entries",
                entries.len()
            )));
        }
        // Everything parsed and attached into locals; only now touch
        // system state.
        self.restore_from_persist(index, entries, Some(sync))
    }
}

/// Append the WGST sync-state frame for these backends.
fn put_sync_frame(buf: &mut Vec<u8>, sync: &[PersistedBackendSync]) {
    codec::put_header(buf, SYNC_MAGIC, SYNC_VERSION);
    codec::put_len(buf, sync.len());
    for backend in sync {
        codec::put_str(buf, &backend.name);
        codec::put_u64(buf, backend.epoch);
        codec::put_len(buf, backend.tables.len());
        for (database, table, version) in &backend.tables {
            codec::put_str(buf, database);
            codec::put_str(buf, table);
            codec::put_u64(buf, *version);
        }
    }
}

/// Parse the WGST frame the cursor is sitting on. `total` is the full
/// body length, for offset reporting only.
fn parse_sync_frame(total: usize, buf: &mut impl Buf) -> StoreResult<Vec<PersistedBackendSync>> {
    macro_rules! step {
        ($what:expr, $r:expr) => {
            match $r {
                Ok(v) => v,
                Err(e) => return Err(corrupt_at($what, total - buf.remaining(), e)),
            }
        };
    }
    let version = step!("sync-state header", codec::get_header(buf, SYNC_MAGIC));
    if version != SYNC_VERSION {
        return Err(StoreError::SnapshotCorrupt(format!(
            "unsupported sync-state frame version {version}"
        )));
    }
    let n = step!("sync-state backends", codec::get_len(buf));
    let mut backends = Vec::with_capacity(n.min(1 << 10));
    for i in 0..n {
        let name = step!(format!("sync backend #{i} name"), codec::get_str(buf));
        let epoch = step!(format!("sync backend #{i} epoch"), codec::get_u64(buf));
        let t = step!(format!("sync backend #{i} tables"), codec::get_len(buf));
        let mut tables = Vec::with_capacity(t.min(1 << 16));
        for j in 0..t {
            let database = step!(format!("sync token #{i}.{j} database"), codec::get_str(buf));
            let table = step!(format!("sync token #{i}.{j} table"), codec::get_str(buf));
            let ver = step!(format!("sync token #{i}.{j} version"), codec::get_u64(buf));
            tables.push((database, table, ver));
        }
        backends.push(PersistedBackendSync { name, epoch, tables });
    }
    Ok(backends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarpGateConfig;
    use std::sync::Arc;
    use wg_store::{CdwConfig, CdwConnector, Column, Database, Table, Warehouse};

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

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("wg_persist_{tag}_{}", std::process::id()))
    }

    /// The byte length of the pre-durability on-disk shape: header +
    /// entries + index payload, no WGST frame, no footer.
    fn legacy_prefix_len(bytes: &[u8]) -> usize {
        let mut cursor = bytes;
        codec::get_header(&mut cursor, MAGIC).unwrap();
        let n = codec::get_len(&mut cursor).unwrap();
        for _ in 0..n {
            codec::get_u32(&mut cursor).unwrap();
            codec::get_str(&mut cursor).unwrap();
            codec::get_str(&mut cursor).unwrap();
            codec::get_str(&mut cursor).unwrap();
        }
        codec::get_bytes(&mut cursor).unwrap();
        bytes.len() - cursor.len()
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
    fn roundtrip_across_shard_counts() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default().with_shards(8), c.clone());
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let want = wg.discover(&q, 3).unwrap().candidates;
        let bytes = wg.to_bytes();
        for shards in [1usize, 3, 16] {
            let mut fresh =
                WarpGate::with_backend(WarpGateConfig::default().with_shards(shards), c.clone());
            fresh.load_bytes(&bytes).unwrap();
            assert_eq!(fresh.len(), wg.len());
            let got = fresh.discover(&q, 3).unwrap().candidates;
            assert_eq!(got, want, "results changed through a {shards}-shard reload");
        }
    }

    #[test]
    fn roundtrip_after_removal_keeps_gaps() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c);
        wg.index_warehouse().unwrap();
        wg.remove_table("db", "b");
        let bytes = wg.to_bytes();
        let mut fresh = WarpGate::new(WarpGateConfig::default());
        fresh.load_bytes(&bytes).unwrap();
        assert_eq!(fresh.len(), 1);
        // The removed table must not reappear.
        let hits = fresh.discover_values(&["VAL 1"], 5);
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
        // Truncation sweep (coarse — every single offset would be minutes
        // of index decodes): each cut must be rejected without installing
        // partial state. The one cut that lands exactly on the legacy
        // (pre-durability) file boundary is a *valid* file by design and
        // is skipped here — `…accepts_legacy_footerless_files` covers it.
        let legacy_len = legacy_prefix_len(&bytes);
        for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            if cut == legacy_len {
                continue;
            }
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut fresh = WarpGate::new(WarpGateConfig::default());
            assert!(fresh.load_from_file(&path).is_err(), "truncation to {cut} loaded");
            assert_eq!(fresh.len(), 0, "truncation to {cut} left partial state");
        }
        // Bit-flip sweep: body flips fail the CRC; footer flips fail the
        // footer's own checks or re-classify as legacy, where the trailing
        // footer bytes then fail the body parse.
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
    fn streaming_file_load_accepts_legacy_footerless_files() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        let bytes = wg.to_bytes();
        let legacy = bytes[..legacy_prefix_len(&bytes)].to_vec();
        let path = temp_path("legacy");
        std::fs::write(&path, &legacy).unwrap();
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
        fresh.load_from_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(fresh.len(), 2);
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
    fn legacy_snapshots_without_sync_frame_invalidate_sync_state() {
        // Pre-durability files carry no WGST frame (and no footer); they
        // must keep their historical behavior — the first sync after the
        // restore conservatively re-scans every backend table.
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        wg.sync().unwrap();
        let bytes = wg.to_bytes();
        let legacy = bytes[..legacy_prefix_len(&bytes)].to_vec();

        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
        fresh.load_bytes(&legacy).unwrap();
        let report = fresh.sync().unwrap();
        assert_eq!(
            report.tables_added + report.tables_updated,
            2,
            "legacy restore must reconcile every backend table: {report:?}"
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
        let (body, check) = wg_util::checksum::split_footer(&bytes).unwrap();
        assert_eq!(check, wg_util::checksum::FooterCheck::Verified);
        assert_eq!(body.len() + wg_util::checksum::FOOTER_LEN, bytes.len());

        // Corrupt one body byte: the checksum catches it, the error is
        // typed, and the target system stays untouched.
        let mut corrupted = bytes.clone();
        corrupted[10] ^= 0x40;
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), connector());
        let err = fresh.load_bytes(&corrupted).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
        assert_eq!(fresh.len(), 0, "failed load must not partially mutate");
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
        assert!(wg128.load_bytes(&bytes).is_err(), "dimension mismatch must fail");
    }

    #[test]
    fn missing_file_errors() {
        let mut wg = WarpGate::new(WarpGateConfig::default());
        assert!(wg.load_from_file("/nonexistent/path/snapshot.bin").is_err());
    }

    #[test]
    fn all_default_snapshots_stay_version_1() {
        // Back-compat pin: a system whose every column lives in the
        // default namespace writes the pre-federation frame — old readers
        // keep working, and old snapshots keep loading (into the default
        // namespace), indefinitely.
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
        wg.index_warehouse().unwrap();
        let bytes = wg.to_bytes();
        let mut cursor = &bytes[..];
        assert_eq!(codec::get_header(&mut cursor, MAGIC).unwrap(), VERSION);

        // Old bytes → default namespace, and a re-encode does not upgrade
        // the frame.
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
        fresh.load_bytes(&bytes).unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let d = fresh.discover(&q, 3).unwrap();
        assert!(d.candidates.iter().all(|j| j.reference.backend.is_default()));
        let reencoded = fresh.to_bytes();
        let mut cursor = &reencoded[..];
        assert_eq!(codec::get_header(&mut cursor, MAGIC).unwrap(), VERSION);
        let mut again = WarpGate::with_backend(WarpGateConfig::default(), connector());
        again.load_bytes(&reencoded).unwrap();
        assert_eq!(again.discover(&q, 3).unwrap().candidates, d.candidates);
    }

    #[test]
    fn federated_snapshot_roundtrip_preserves_namespaces() {
        let cdw = connector();
        let mut lake_w = Warehouse::new("lake");
        lake_w.database_mut("raw").add_table(
            Table::new(
                "dump",
                vec![Column::text(
                    "x_variant",
                    (0..50).map(|i| format!("Val {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        let lake_c = Arc::new(CdwConnector::new(lake_w, CdwConfig::free()));

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

        let bytes = wg.to_bytes();
        let mut cursor = &bytes[..];
        assert_eq!(codec::get_header(&mut cursor, MAGIC).unwrap(), VERSION_FEDERATED);

        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), cdw);
        fresh.attach_named("persist-test-lake", lake_c);
        fresh.load_bytes(&bytes).unwrap();
        assert_eq!(fresh.len(), 3);
        assert_eq!(fresh.discover(&q, 5).unwrap().candidates, before);
        // Scoped discovery still addresses the restored namespace.
        let scoped =
            fresh.discover_scoped(&q, 5, &wg_lsh::DiscoverScope::include([lake.bits()])).unwrap();
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
        let at_load = fresh.block_cache_stats();
        assert_eq!(at_load.resident_blocks, 0, "restore must not hydrate payloads");
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
        // One shard, so the one segment holds both columns and a query for
        // either reads its only block.
        let config = WarpGateConfig::default().with_shards(1);
        let c = connector();
        let wg = WarpGate::with_backend(config, c.clone());
        wg.index_warehouse().unwrap();
        let dir = temp_path("paged_bad");
        wg.save_paged(&dir).unwrap();

        // Flip one manifest byte: the footer catches it, nothing installs.
        let manifest = dir.join(PAGED_MANIFEST);
        let good = std::fs::read(&manifest).unwrap();
        let mut bad = good.clone();
        bad[12] ^= 0x08;
        std::fs::write(&manifest, &bad).unwrap();
        let mut fresh = WarpGate::with_backend(config, c.clone());
        let err = fresh.load_paged(&dir).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
        assert_eq!(fresh.len(), 0, "failed paged load must not partially mutate");
        std::fs::write(&manifest, &good).unwrap();

        // Flip one byte of the segment's directory: its checksum rejects
        // the segment at open, before any state installs.
        let seg = dir.join("seg-0.seg");
        let seg_good = std::fs::read(&seg).unwrap();
        let mut seg_bad = seg_good.clone();
        let in_directory = seg_bad.len() - segment::TRAILER_LEN - 8;
        seg_bad[in_directory] ^= 0x20;
        std::fs::write(&seg, &seg_bad).unwrap();
        let mut fresh = WarpGate::with_backend(config, c.clone());
        let err = fresh.load_paged(&dir).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
        assert_eq!(fresh.len(), 0);

        // Flip one payload byte: the restore is lazy and succeeds, and the
        // block CRC refuses to serve the block on first read — as a typed
        // error.
        let mut seg_bad = seg_good.clone();
        seg_bad[segment::PREAMBLE_LEN + 5] ^= 0x20;
        std::fs::write(&seg, &seg_bad).unwrap();
        let mut fresh = WarpGate::with_backend(config, c);
        fresh.load_paged(&dir).unwrap();
        let q = ColumnRef::new("db", "a", "x");
        let err = fresh.discover(&q, 3).expect_err("a payload flip must never serve");
        assert!(matches!(err, StoreError::Backend(_)), "{err}");
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
        let mut lake_w = Warehouse::new("lake");
        lake_w.database_mut("raw").add_table(
            Table::new(
                "dump",
                vec![Column::text(
                    "x_variant",
                    (0..50).map(|i| format!("Val {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        let lake_c = Arc::new(CdwConnector::new(lake_w, CdwConfig::free()));
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
        let scoped =
            fresh.discover_scoped(&q, 5, &wg_lsh::DiscoverScope::include([lake.bits()])).unwrap();
        assert!(!scoped.candidates.is_empty());
        assert!(scoped.candidates.iter().all(|j| j.reference.backend == lake));
    }
}
