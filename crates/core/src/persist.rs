//! Index persistence.
//!
//! A deployed discovery service must survive restarts without re-scanning
//! (and re-paying for) the warehouse, and without redoing the build either:
//! the persisted artifact is the LSH index **as built** — geometry, seed,
//! and every row's vector *and signature* — plus the id → column-reference
//! registry and the sync tokens. Because the embedding model itself is
//! deterministic and derived from the config seed, nothing model-side needs
//! to be stored.
//!
//! There is **one** flat snapshot layout (DESIGN.md §9), written and read
//! by one code path each:
//!
//! ```text
//! "WGSY" │ version u32
//! entries u32 │ per entry: id u32 │ backend name │ database │ table │ column
//! index frame: length u32 │ WGLX frame (geometry, backend-name table,
//!                                      id-sorted fixed-width rows)
//! "WGST" sync-state frame: per backend name, table → version tokens
//! "WGFT" integrity footer: body length + CRC-32 of everything above
//! ```
//!
//! * Backend *names* are the identity that travels; the loader resolves
//!   each to its own interner bits and **recomposes every item id** from
//!   those bits plus the saved per-backend local part, because the saving
//!   process's bit assignment need not match this one's.
//! * Rows carry the signature the build derived for them, so a restore
//!   buckets them as they are — no projection is recomputed. The snapshot
//!   is shard-count independent and byte-identical for identical states.
//! * The WGST frame lets a restarted node's first `sync()` re-scan only
//!   tables that actually changed instead of re-billing the warehouse.
//! * Nothing installs unless the WGFT footer verifies. A file of another
//!   version, or one that does not end in a footer matching its body, is
//!   refused with [`StoreError::SnapshotCorrupt`] — there is no unchecked
//!   parse to fall back to. The loader parses into locals and installs
//!   state only on full success, which is what lets recovery fall back to
//!   the previous checkpoint generation (see [`crate::durability`]).
//!
//! The body parse is generic over [`codec::Buf`], so the same code serves
//! in-memory bytes ([`WarpGate::load_bytes`], checksum first) and a
//! **streaming** file restore ([`WarpGate::load_from_file`]): the file is
//! read **once**, through a bounded [`ReaderBuf`] window that folds every
//! byte into the CRC as the frames parse, and the digest is compared with
//! the footer before anything installs. That parse therefore runs on bytes
//! nothing has vouched for yet: every count is checked against the bytes
//! that remain before anything is reserved for it, and backend names are
//! only *looked up*, never interned, until the checksum has been compared.
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

use std::fmt::Display;
use std::io::Read;
use std::path::Path;
use std::sync::Arc;

use wg_lsh::{compose_item_id, item_backend, item_local, ShardedLshIndex, VectorSegment};
use wg_store::{BackendId, ColumnRef, StoreError, StoreResult};
use wg_util::checksum::{self, FooterCheck};
use wg_util::codec::{self, Buf, CodecError, CodecResult, ReaderBuf};
use wg_util::{atomic_file, names, FxHashMap};

use crate::system::{PersistedBackendSync, WarpGate};

const MAGIC: [u8; 4] = *b"WGSY";
/// The one snapshot version. 1 and 2 (pre-federation / federated, rows
/// without signatures, footer optional) were never deployed; files of any
/// other version are refused, not converted.
const VERSION: u32 = 3;

/// Magic of the sync-state frame.
const SYNC_MAGIC: [u8; 4] = *b"WGST";
const SYNC_VERSION: u32 = 1;

/// Magic/version of the paged-snapshot manifest file.
const PAGED_MAGIC: [u8; 4] = *b"WGPM";
const PAGED_VERSION: u32 = 1;

/// File name of the paged-snapshot manifest inside its directory.
pub const PAGED_MANIFEST: &str = "manifest.wgm";

/// The fewest bytes one registry entry encodes to: its id and four empty
/// length-prefixed strings.
const MIN_ENTRY_BYTES: usize = 4 + 4 * 4;

/// A parse failure at a known position in the snapshot body: the offset
/// pins *where* the bytes stopped making sense.
fn corrupt_at(what: impl Display, offset: usize, e: impl Display) -> StoreError {
    StoreError::SnapshotCorrupt(format!("{what} at byte offset {offset}: {e}"))
}

/// Unwrap one decode step of a snapshot body of `total` bytes read through
/// `buf`, or return where it failed as [`corrupt_at`].
macro_rules! step {
    ($total:expr, $buf:expr, $what:expr, $r:expr) => {
        match $r {
            Ok(v) => v,
            Err(e) => return Err(corrupt_at($what, $total - $buf.remaining(), e)),
        }
    };
}

/// A footer check as a load's verdict on `what` (`len` bytes, footer
/// included): anything but `Verified` is corruption.
fn require_verified(
    check: Result<FooterCheck, CodecError>,
    what: &str,
    len: u64,
) -> StoreResult<()> {
    match check {
        Ok(FooterCheck::Verified) => Ok(()),
        Ok(FooterCheck::Absent) => Err(StoreError::SnapshotCorrupt(format!(
            "{what} does not end in an integrity footer for its {len} bytes"
        ))),
        Err(e) => Err(StoreError::SnapshotCorrupt(format!("{what} integrity footer: {e}"))),
    }
}

/// The body of in-memory `what` bytes once their WGFT footer has verified.
fn verified_body<'a>(bytes: &'a [u8], what: &str) -> StoreResult<&'a [u8]> {
    let mut body = bytes;
    let check = checksum::split_footer(bytes).map(|(stripped, check)| {
        body = stripped;
        check
    });
    require_verified(check, what, bytes.len() as u64)?;
    Ok(body)
}

/// Backend name → this process's interner bits, for the length of one
/// load. `resolve` decides whether an unseen name may be interned (bytes
/// already verified) or only looked up (not yet); the last answer is kept
/// because entries arrive grouped by backend.
struct Names<'a> {
    resolve: &'a mut dyn FnMut(&str) -> Option<u16>,
    last: Option<(String, u16)>,
}

impl Names<'_> {
    fn bits(&mut self, name: String) -> CodecResult<u16> {
        match &self.last {
            Some((known, bits)) if *known == name => Ok(*bits),
            _ => {
                let bits = (self.resolve)(&name).ok_or_else(|| {
                    CodecError::Invalid(format!("backend '{name}' is not known to this process"))
                })?;
                self.last = Some((name, bits));
                Ok(bits)
            }
        }
    }
}

/// Append the registry: a count, then `(id, ref)` per entry, refs by
/// backend *name*.
fn put_entries(buf: &mut Vec<u8>, entries: &[(u32, &ColumnRef)]) {
    codec::put_len(buf, entries.len());
    for (id, r) in entries {
        codec::put_u32(buf, *id);
        r.encode(buf);
    }
}

/// Read what [`put_entries`] wrote: each ref in this process's namespace
/// for its backend name, each id still as the *saving* process composed
/// it (its high bits are that process's interner assignment).
fn get_entries(
    total: usize,
    buf: &mut impl Buf,
    names: &mut Names<'_>,
) -> StoreResult<Vec<(u32, ColumnRef)>> {
    let n = step!(total, buf, "registry entry count", codec::get_count(buf, MIN_ENTRY_BYTES));
    let mut entries = Vec::with_capacity(n);
    for i in 0..n {
        let saved_id = step!(total, buf, format!("entry #{i} id"), codec::get_u32(buf));
        let backend = step!(total, buf, format!("entry #{i} backend"), codec::get_str(buf));
        let backend = step!(total, buf, format!("entry #{i} backend"), names.bits(backend));
        let database = step!(total, buf, format!("entry #{i} database"), codec::get_str(buf));
        let table = step!(total, buf, format!("entry #{i} table"), codec::get_str(buf));
        let column = step!(total, buf, format!("entry #{i} column"), codec::get_str(buf));
        let r = ColumnRef::scoped(BackendId::from_bits(backend), database, table, column);
        entries.push((saved_id, r));
    }
    Ok(entries)
}

/// Everything a snapshot body parses into, before any system state is
/// touched.
type ParsedSnapshot = (ShardedLshIndex, Vec<(u32, ColumnRef)>, Vec<PersistedBackendSync>);

/// Parse a full snapshot body (header → registry entries → index frame →
/// sync frame) from any [`Buf`] — a byte slice or a bounded file reader.
/// `total` is the body length, for offset reporting only; `resolve` maps a
/// backend name to this process's bits, or refuses to.
fn parse_snapshot(
    total: usize,
    buf: &mut impl Buf,
    shards: usize,
    resolve: &mut dyn FnMut(&str) -> Option<u16>,
) -> StoreResult<ParsedSnapshot> {
    let version = step!(total, buf, "snapshot header", codec::get_header(buf, MAGIC));
    if version != VERSION {
        return Err(StoreError::SnapshotCorrupt(format!(
            "unsupported snapshot version {version} (this build reads and writes {VERSION})"
        )));
    }
    let mut names = Names { resolve, last: None };
    let mut entries = get_entries(total, buf, &mut names)?;
    for (id, r) in &mut entries {
        // Only the name travelled: recompose against this process's bits
        // for the backend, keeping the saved per-backend local part.
        *id = compose_item_id(r.backend.bits(), item_local(*id));
    }
    // The index payload is length-prefixed; decode it in place — the
    // streaming path never buffers it whole — and hold the decoder to
    // exactly the promised frame. The same name-authoritative remap
    // applies inside it.
    let frame_len = step!(total, buf, "index payload", codec::get_len(buf));
    let before = buf.remaining();
    let decoded = ShardedLshIndex::decode(buf, shards, |name| names.bits(name.to_string()));
    let index = step!(total, buf, "index frame", decoded);
    let consumed = before - buf.remaining();
    if consumed != frame_len {
        return Err(corrupt_at(
            "index frame",
            total - buf.remaining(),
            format!("decoded {consumed} bytes of a {frame_len}-byte frame"),
        ));
    }
    let sync = parse_sync_frame(total, buf)?;
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
    /// Serialize the index + registry + sync tokens into one buffer, in
    /// place: registry refs are borrowed under the registry's read lock,
    /// hot rows are read straight out of each shard's arena under the
    /// shards' read guards (all held together, so the snapshot is the
    /// system as it stood at one instant), and the one CRC pass is the
    /// footer's.
    pub fn to_bytes(&self) -> Vec<u8> {
        // Tokens first: a sync that commits while the rows are encoded
        // leaves tokens *older* than the rows (one redundant re-scan after
        // a restore), never newer (a change the restored node would never
        // see).
        let sync = self.sync_state_for_persist();
        let index = self.lsh_index();
        self.with_registry_entries(|entries| {
            let row_bytes = 4 + index.params().bits().div_ceil(64) * 8 + index.dim() * 4;
            let mut buf = Vec::with_capacity(index.len() * row_bytes + entries.len() * 96 + 1024);
            codec::put_header(&mut buf, MAGIC, VERSION);
            put_entries(&mut buf, entries);
            codec::put_bytes_with(&mut buf, |buf| {
                index.encode(buf, |bits| BackendId::from_bits(bits).name())
            });
            put_sync_frame(&mut buf, &sync);
            checksum::append_footer(&mut buf);
            buf
        })
    }

    /// Restore index + registry from bytes produced by [`Self::to_bytes`].
    /// The checksum is verified before a byte of the body is parsed. The
    /// receiving system must be configured with the same dimension (and
    /// should use the same seed, or query embeddings will not live in the
    /// persisted index's space). The snapshot is shard-count independent:
    /// items redistribute into this system's configured shard layout on
    /// load, so a snapshot saved with 8 shards restores fine into 1 (or
    /// vice versa).
    pub fn load_bytes(&mut self, bytes: &[u8]) -> StoreResult<()> {
        let body = verified_body(bytes, "snapshot")?;
        let (index, entries, sync) = parse_snapshot(
            body.len(),
            &mut &body[..],
            self.config().effective_shards(),
            &mut |name| Some(BackendId::named(name).bits()),
        )?;
        // Everything parsed into locals; only now touch system state.
        self.restore_from_persist(index, entries, sync)
    }

    /// Write the snapshot to a file, atomically: the bytes stream into a
    /// sibling temp file which is fsynced and renamed over `path`, so a
    /// crash — or a full disk — mid-write can never destroy a snapshot
    /// that was already there (see [`wg_util::atomic_file`]).
    pub fn save_to_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_file::write(path.as_ref(), &self.to_bytes())
    }

    /// Load a snapshot from a file into this (already configured) system,
    /// **streaming, in one pass**: the frames parse through a bounded read
    /// window that folds the CRC in as they go by, and the digest is
    /// compared with the footer before anything installs — restoring never
    /// requires the whole file resident, nor reading it twice.
    ///
    /// A missing/unreadable file is [`StoreError::NotFound`]; a present
    /// file that fails its checksum or parse is
    /// [`StoreError::SnapshotCorrupt`] — callers that checkpoint (see
    /// [`crate::durability::Checkpointer`]) use the distinction to fall
    /// back to the previous generation.
    pub fn load_from_file(&mut self, path: impl AsRef<Path>) -> StoreResult<()> {
        let path = path.as_ref();
        let not_found = |e: std::io::Error| StoreError::NotFound(format!("snapshot file: {e}"));
        let file = std::fs::File::open(path).map_err(not_found)?;
        let file_len = file.metadata().map_err(not_found)?.len();
        let Some(body_len) = file_len.checked_sub(checksum::FOOTER_LEN as u64) else {
            return Err(StoreError::SnapshotCorrupt(format!(
                "snapshot of {file_len} bytes is too short to end in an integrity footer"
            )));
        };
        let mut reader = ReaderBuf::new(file, body_len as usize);
        // These bytes are unverified until the footer is compared below,
        // and interning is process-global and permanent: names are only
        // looked up here.
        let mut unknown_name = false;
        let parsed = parse_snapshot(
            body_len as usize,
            &mut reader,
            self.config().effective_shards(),
            &mut |name| {
                let bits = names::lookup(name);
                unknown_name |= bits.is_none();
                bits
            },
        );
        // An I/O fault mid-parse latches in the reader and zero-fills the
        // window; whatever "parsed" out of that is untrustworthy even if
        // it happened to look well-formed.
        if let Some(e) = reader.io_error() {
            return Err(StoreError::NotFound(format!("snapshot file: {e}")));
        }
        if unknown_name {
            // A backend name this process has never seen (a node restored
            // before it attached anything), or a damaged one. Take the
            // path that verifies the checksum first and may then intern.
            return self.load_bytes(&std::fs::read(path).map_err(not_found)?);
        }
        let (index, entries, sync) = parsed?;
        // A parse that succeeded consumed the body to its last byte, so
        // the reader's running digest is the body's.
        let body_crc = reader.crc32();
        let mut foot = [0u8; checksum::FOOTER_LEN];
        reader.into_inner().read_exact(&mut foot).map_err(not_found)?;
        require_verified(checksum::check_footer(&foot, body_len, body_crc), "snapshot", file_len)?;
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
        let mut buf = Vec::new();
        codec::put_header(&mut buf, PAGED_MAGIC, PAGED_VERSION);
        codec::put_u32(&mut buf, self.config().dim as u32);
        codec::put_u32(&mut buf, sig_bits as u32);
        codec::put_u64(&mut buf, index.seed());
        codec::put_u32(&mut buf, block_rows as u32);
        self.with_registry_entries(|entries| put_entries(&mut buf, entries));
        put_sync_frame(&mut buf, &self.sync_state_for_persist());
        codec::put_len(&mut buf, segments.len());
        for name in &segments {
            codec::put_str(&mut buf, name);
        }
        checksum::append_footer(&mut buf);
        atomic_file::write(&dir.join(PAGED_MANIFEST), &buf)?;
        Ok(segments.len())
    }

    /// Restore from a paged snapshot directory written by
    /// [`Self::save_paged`] — **lazily**: segment directories and block
    /// metadata (ids, signatures, norms, row sketches) load now, so every
    /// sealed row becomes searchable, but vector payloads stay on disk
    /// until a query's exact re-rank reads their block through the
    /// system's byte-budgeted cache. Item ids recompose through backend
    /// names exactly like the flat snapshot's; geometry (dimension,
    /// signature width, hyperplane seed) must match this system's config
    /// or the restore fails — before touching any state, as always.
    pub fn load_paged(&mut self, dir: impl AsRef<Path>) -> StoreResult<()> {
        let dir = dir.as_ref();
        let bytes = std::fs::read(dir.join(PAGED_MANIFEST))
            .map_err(|e| StoreError::NotFound(format!("paged manifest: {e}")))?;
        let body = verified_body(&bytes, "paged manifest")?;
        let total = body.len();
        let buf = &mut &body[..];
        let version =
            step!(total, buf, "paged manifest header", codec::get_header(buf, PAGED_MAGIC));
        if version != PAGED_VERSION {
            return Err(StoreError::SnapshotCorrupt(format!(
                "unsupported paged manifest version {version}"
            )));
        }
        let dim = step!(total, buf, "manifest dim", codec::get_u32(buf)) as usize;
        let sig_bits = step!(total, buf, "manifest signature width", codec::get_u32(buf)) as usize;
        let seed = step!(total, buf, "manifest seed", codec::get_u64(buf));
        let _block_rows = step!(total, buf, "manifest block rows", codec::get_u32(buf));
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
        // The manifest is verified, so its names may be interned.
        let mut intern = |name: &str| Some(BackendId::named(name).bits());
        let mut entries = get_entries(total, buf, &mut Names { resolve: &mut intern, last: None })?;
        // Saved backend bits → this process's interned bits, recovered
        // from the registry entries (every sealed row has one). Sealed
        // segments store the composed ids of the *saving* process, so the
        // attach below remaps each row through this table.
        let mut rebits: FxHashMap<u16, u16> = FxHashMap::default();
        for (i, (id, r)) in entries.iter_mut().enumerate() {
            let (old, new) = (item_backend(*id), r.backend.bits());
            if *rebits.entry(old).or_insert(new) != new {
                return Err(corrupt_at(
                    format!("entry #{i} ref"),
                    total - buf.remaining(),
                    "saved backend bits map to two different names",
                ));
            }
            *id = compose_item_id(new, item_local(*id));
        }
        let sync = parse_sync_frame(total, buf)?;
        let n_segs = step!(total, buf, "segment list", codec::get_count(buf, 4));
        let mut names = Vec::with_capacity(n_segs);
        for i in 0..n_segs {
            let name = step!(total, buf, format!("segment #{i} name"), codec::get_str(buf));
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
        self.restore_from_persist(index, entries, sync)
    }
}

/// Append the WGST sync-state frame for these backends (written even when
/// empty: the frame set is always the same).
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
    let version = step!(total, buf, "sync-state header", codec::get_header(buf, SYNC_MAGIC));
    if version != SYNC_VERSION {
        return Err(StoreError::SnapshotCorrupt(format!(
            "unsupported sync-state frame version {version}"
        )));
    }
    // A backend is at least a name prefix, an epoch and a table count; a
    // token at least two name prefixes and a version.
    let n = step!(total, buf, "sync-state backends", codec::get_count(buf, 16));
    let mut backends = Vec::with_capacity(n);
    for i in 0..n {
        let name = step!(total, buf, format!("sync backend #{i} name"), codec::get_str(buf));
        let epoch = step!(total, buf, format!("sync backend #{i} epoch"), codec::get_u64(buf));
        let t = step!(total, buf, format!("sync backend #{i} tables"), codec::get_count(buf, 16));
        let mut tables = Vec::with_capacity(t);
        for j in 0..t {
            let database =
                step!(total, buf, format!("sync token #{i}.{j} database"), codec::get_str(buf));
            let table =
                step!(total, buf, format!("sync token #{i}.{j} table"), codec::get_str(buf));
            let ver =
                step!(total, buf, format!("sync token #{i}.{j} version"), codec::get_u64(buf));
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
        wg.remove_table(&TableRef::new("db", "b"));
        let bytes = wg.to_bytes();
        let mut fresh = WarpGate::new(WarpGateConfig::default());
        fresh.load_bytes(&bytes).unwrap();
        assert_eq!(fresh.len(), 1);
        // The removed table must not reappear.
        let hits = fresh.discover_values(&["VAL 1"], 5, &DiscoverScope::All);
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
        // partial state. No cut is a valid file: a body without its footer
        // is never parsed into state.
        for cut in (0..bytes.len()).step_by(97).chain([bytes.len() - 1]) {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let mut fresh = WarpGate::new(WarpGateConfig::default());
            let err = fresh.load_from_file(&path).unwrap_err();
            assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "truncation to {cut}: {err}");
            assert_eq!(fresh.len(), 0, "truncation to {cut} left partial state");
        }
        // Bit-flip sweep: body flips fail the parse or the CRC; footer
        // flips fail the footer's own checks.
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
        let (body, check) = checksum::split_footer(&bytes).unwrap();
        assert_eq!(check, FooterCheck::Verified);
        assert_eq!(body.len() + checksum::FOOTER_LEN, bytes.len());

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
    fn snapshot_bytes_match_the_golden_snapshot() {
        // A hand-built index and registry, so the image depends on the
        // writer (and on the seed → hyperplanes → signature mapping, which
        // the stored signatures make part of the format) alone. A change
        // here is an on-disk format change: bump VERSION with it. Pinned
        // first by PR 17 (WGSY/WGLX v3: rows carry their signatures).
        let config = WarpGateConfig { dim: 8, ..Default::default() };
        let index = ShardedLshIndex::new(8, wg_lsh::LshParams { bands: 3, rows: 7 }, 42, 2);
        index.set_probes(1);
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
            epoch: 0,
            tables: vec![("db".into(), "t0".into(), 0xFEED), ("db".into(), "t1".into(), 7)],
        }];
        let mut wg = WarpGate::new(config);
        wg.restore_from_persist(index, entries, sync).unwrap();
        let image = wg.to_bytes();
        assert_eq!(image.len(), 551);
        assert_eq!(checksum::crc32(&image), 0xFAAB_EDBD);
        // And the image is a fixed point of load → save.
        let mut again = WarpGate::new(config);
        again.load_bytes(&image).unwrap();
        assert_eq!(again.to_bytes(), image);
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

        // One frame version, whatever the namespaces.
        let bytes = wg.to_bytes();
        assert_eq!(codec::get_header(&mut &bytes[..], MAGIC).unwrap(), VERSION);

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
        let in_directory = seg_bad.len() - wg_util::segment::TRAILER_LEN - 8;
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
        seg_bad[wg_util::segment::PREAMBLE_LEN + 5] ^= 0x20;
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
