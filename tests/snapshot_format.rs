//! The snapshot as a format (ISSUE 22): a checkpoint, a `to_bytes()` image
//! and a paged directory are one sealed segment, written by one writer and
//! opened two ways.
//!
//! * what another version, a parent-written file or a file that lies about
//!   itself gets: a typed refusal, nothing installed, no name interned;
//! * counts that lie — in a file whose checksums vouch for them — are
//!   refused before anything is reserved;
//! * a load interns no backend name before every checksum it relies on has
//!   verified;
//! * one file, two loaders: hydrated and lazily attached, the same bytes
//!   rank alike;
//! * rankings (tie order included) survive save → load, a loader whose
//!   interner holds the names in another order, and a system whose rows
//!   are part hot, part paged;
//! * a build's bytes and rankings do not depend on its thread count.
//!
//! The container's own unit tests live in `wg_util::segment`, the row
//! layout's in `wg_lsh::{paged, index}`; the crash sweeps in
//! `tests/crash_recovery.rs`; the pinned golden images in
//! `warpgate_core::persist` and `wg_lsh::paged`.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use warpgate::core::persist::PAGED_FILE;
use warpgate::prelude::*;
use warpgate::util::segment::{PREAMBLE_LEN, TRAILER_LEN};
use warpgate::util::{checksum, codec, names};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wg_format_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A table `name` with one text column `x` holding `values`.
fn table(name: &str, values: impl Iterator<Item = String>) -> Table {
    Table::new(name, vec![Column::text("x", values.collect::<Vec<_>>())]).unwrap()
}

/// Three tables whose columns embed identically (case variants of the same
/// values — whichever is the query, the other two tie exactly, so tie order
/// is on the line) and one that overlaps them partially.
fn connector(tag: &str) -> Arc<CdwConnector> {
    let mut w = Warehouse::new(tag);
    let db = w.database_mut("db");
    db.add_table(table("a", (0..40).map(|i| format!("val {i}"))));
    db.add_table(table("b", (0..40).map(|i| format!("VAL {i}"))));
    db.add_table(table("c", (0..40).map(|i| format!("Val {i}"))));
    db.add_table(table("d", (8..48).map(|i| format!("val {i}"))));
    Arc::new(CdwConnector::new(w, CdwConfig::free()))
}

fn query() -> ColumnRef {
    ColumnRef::new("db", "a", "x")
}

/// Where an image's directory starts.
fn directory_at(image: &[u8]) -> usize {
    let trailer = &image[image.len() - TRAILER_LEN..];
    u64::from_le_bytes(trailer[8..16].try_into().unwrap()) as usize
}

/// Offset, from the directory's first byte, of the header blob's length
/// prefix; the blob (16 bytes of row geometry, then the manifest) follows.
const HEADER_LEN_AT: usize = 8;
/// … of the manifest: banding (two `u32`s), hyperplane seed, then the name
/// table's count.
const MANIFEST_AT: usize = HEADER_LEN_AT + 4 + 16;

/// `image` with its directory edited by `edit` and the header blob's length
/// prefix and the trailer's length and CRC recomputed: a file whose
/// checksums vouch for whatever the edit left behind.
fn with_directory(image: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (dir_at, trailer_at) = (directory_at(image), image.len() - TRAILER_LEN);
    let mut directory = image[dir_at..trailer_at].to_vec();
    let before = directory.len();
    edit(&mut directory);
    let header_len = u32::from_le_bytes(directory[8..12].try_into().unwrap()) as usize;
    let header_len = (header_len + directory.len() - before) as u32;
    directory[8..12].copy_from_slice(&header_len.to_le_bytes());
    let mut out = image[..dir_at].to_vec();
    out.extend_from_slice(&directory);
    out.extend_from_slice(&image[trailer_at..trailer_at + 16]);
    out.extend_from_slice(&(directory.len() as u32).to_le_bytes());
    out.extend_from_slice(&checksum::crc32(&directory).to_le_bytes());
    out
}

/// `image` as a build whose `SEGMENT_VERSION` is `version` would have
/// stamped it: preamble, directory and trailer alike.
fn at_version(image: &[u8], version: u32) -> Vec<u8> {
    let le = version.to_le_bytes();
    let mut out = with_directory(image, |dir| dir[4..8].copy_from_slice(&le));
    out[4..8].copy_from_slice(&le);
    let trailer_at = out.len() - TRAILER_LEN;
    out[trailer_at + 4..trailer_at + 8].copy_from_slice(&le);
    out
}

/// Replace every occurrence of `from` in `bytes` by the equally long `to`,
/// expecting `times` of them.
fn rename(bytes: &mut [u8], from: &[u8], to: &[u8], times: usize) {
    assert_eq!(from.len(), to.len());
    let hits: Vec<usize> =
        (0..=bytes.len() - from.len()).filter(|&i| &bytes[i..i + from.len()] == from).collect();
    assert_eq!(hits.len(), times, "fixture layout drifted");
    for i in hits {
        bytes[i..i + to.len()].copy_from_slice(to);
    }
}

/// Where `needle` last occurs in `bytes`.
fn last_at(bytes: &[u8], needle: &[u8]) -> usize {
    (0..=bytes.len() - needle.len()).rev().find(|&i| &bytes[i..i + needle.len()] == needle).unwrap()
}

fn expect_corrupt(result: Result<(), StoreError>, what: &str) {
    match result {
        Err(StoreError::SnapshotCorrupt(msg)) => assert!(msg.contains(what), "{msg}"),
        other => panic!("expected SnapshotCorrupt({what}), got {other:?}"),
    }
}

/// The three public ways in: the two that hydrate, and the one that
/// attaches lazily.
const WAYS: [&str; 3] = ["load_bytes", "load_from_file", "load_paged"];

/// `image` — staged as the file of paged directory `dir` — loaded into a
/// fresh system one of the [`WAYS`].
fn load(
    how: &str,
    config: WarpGateConfig,
    image: &[u8],
    dir: &Path,
) -> (WarpGate, Result<(), StoreError>) {
    std::fs::write(dir.join(PAGED_FILE), image).unwrap();
    let mut fresh = WarpGate::new(config);
    let result = match how {
        "load_bytes" => fresh.load_bytes(image),
        "load_from_file" => fresh.load_from_file(dir.join(PAGED_FILE)),
        "load_paged" => fresh.load_paged(dir),
        _ => unreachable!("{how}"),
    };
    (fresh, result)
}

// ---------------------------------------------------------------------
// Refusals.
// ---------------------------------------------------------------------

/// A checkpoint as the parent commit wrote it: a WGSY / WGLX frame pair of
/// `version`, an empty WGST frame and the 20-byte WGFT footer.
fn parent_snapshot(version: u32) -> Vec<u8> {
    let r = query();
    let mut buf = Vec::new();
    codec::put_header(&mut buf, *b"WGSY", version);
    codec::put_len(&mut buf, 1);
    codec::put_u32(&mut buf, 0);
    r.encode(&mut buf);
    codec::put_bytes_with(&mut buf, |buf| {
        codec::put_header(buf, *b"WGLX", version);
        for x in [4u32, 2, 4] {
            codec::put_u32(buf, x);
        }
        codec::put_u64(buf, 7);
        codec::put_u32(buf, 0);
        codec::put_len(buf, 1);
        codec::put_u32(buf, 0);
        codec::put_str(buf, "default");
        codec::put_len(buf, 1);
        codec::put_u32(buf, 0);
        codec::put_u64(buf, 0);
        codec::put_f32s(buf, &[1.0, 0.0, 0.0, 0.0]);
    });
    codec::put_header(&mut buf, *b"WGST", 1);
    codec::put_len(&mut buf, 0);
    let (len, crc) = (buf.len() as u64, checksum::crc32(&buf));
    codec::put_header(&mut buf, *b"WGFT", 1);
    codec::put_u64(&mut buf, len);
    codec::put_u32(&mut buf, crc);
    buf
}

#[test]
fn another_snapshot_version_is_refused() {
    let dir = tmp_dir("old-version");
    let path = dir.join("snapshot.bin");
    // A parent-written checkpoint is not a segment at all: refused typed,
    // never converted, through either hydrating loader and by recovery.
    let small = WarpGateConfig { dim: 4, ..Default::default() };
    for version in [2, 3] {
        let bytes = parent_snapshot(version);
        let mut fresh = WarpGate::new(small);
        expect_corrupt(fresh.load_bytes(&bytes), "bad segment magic");
        std::fs::write(&path, &bytes).unwrap();
        expect_corrupt(fresh.load_from_file(&path), "bad segment magic");
        // Recovery treats it as a corrupt generation: with nothing older
        // to fall back to, the primary's error is the answer.
        let err = Checkpointer::new(&path).recover(&mut fresh).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
        assert_eq!(fresh.len(), 0);
    }
    // A parent-written paged directory — a manifest beside per-shard
    // segment files — has no snapshot file in it.
    let paged = tmp_dir("old-version-paged");
    std::fs::write(paged.join("manifest.wgm"), b"WGPM").unwrap();
    std::fs::write(paged.join("seg-0.seg"), b"WGSG").unwrap();
    let err = WarpGate::new(small).load_paged(&paged).unwrap_err();
    assert!(matches!(err, StoreError::NotFound(_)), "{err}");

    // A current file under an older one: recovery falls back to it.
    let c = connector("old-version");
    let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
    wg.index_warehouse().unwrap();
    let ckpt = Checkpointer::new(&path);
    std::fs::write(ckpt.previous_path(), wg.to_bytes()).unwrap();
    std::fs::write(&path, parent_snapshot(3)).unwrap();
    let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
    let report = ckpt.recover(&mut fresh).unwrap();
    assert_eq!((report.source, report.columns), (RecoverySource::Previous, 4));
    assert!(matches!(report.primary_error, Some(StoreError::SnapshotCorrupt(_))));

    // Today's layout under the version before or the one after — sealed
    // with sketches, so all three loaders would otherwise take it — is
    // refused the same way, by all three.
    wg.save_paged(&paged).unwrap();
    let sealed = std::fs::read(paged.join(PAGED_FILE)).unwrap();
    for version in [2, 4] {
        let other = at_version(&sealed, version);
        for how in WAYS {
            let (fresh, result) = load(how, WarpGateConfig::default(), &other, &paged);
            expect_corrupt(result, &format!("unsupported segment version {version}"));
            assert_eq!(fresh.len(), 0, "{how}");
        }
    }
    for how in WAYS {
        let (fresh, result) = load(how, WarpGateConfig::default(), &sealed, &paged);
        result.unwrap_or_else(|e| panic!("{how}: this build's version loads: {e}"));
        assert_eq!(fresh.len(), 4, "{how}");
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&paged).ok();
}

#[test]
fn counts_that_lie_are_refused_before_anything_is_reserved() {
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector("lying"));
    wg.index_warehouse().unwrap();
    let dir = tmp_dir("lying");
    wg.save_paged(&dir).unwrap();
    let good = std::fs::read(dir.join(PAGED_FILE)).unwrap();
    let directory = &good[directory_at(&good)..good.len() - TRAILER_LEN];
    // Where the counts sit in the directory. The manifest: the name table's
    // after banding and seed; past its one `default` row the registry's;
    // the sync state's in front of its one backend, `default` again, and
    // that backend's token count after its name. Then the block
    // count, and in the first block's entry its payload length and —
    // first thing in its metadata — its row count: the four rows in pages
    // of the default size.
    let names_at = MANIFEST_AT + 4 + 4 + 8;
    let entries_at = names_at + 4 + 4 + 4 + "default".len();
    let sync_at = last_at(directory, b"\x07\0\0\0default") - 4;
    let tokens_at = sync_at + 4 + 4 + "default".len();
    let header_len = u32::from_le_bytes(directory[8..12].try_into().unwrap()) as usize;
    let blocks_at = HEADER_LEN_AT + 4 + header_len;
    let page = WarpGateConfig::default().block_rows;
    let cases = [
        (names_at, 1, "needs at least 8 bytes each"),
        (entries_at, 4, "needs at least 16 bytes each"),
        (sync_at, 1, "needs at least 8 bytes each"),
        (tokens_at, 4, "needs at least 16 bytes each"),
        (blocks_at, 4usize.div_ceil(page), "needs at least 20 bytes each"),
        (blocks_at + 4 + 8, page.min(4) * 128 * 4, "escapes the data region"),
        (blocks_at + 4 + 8 + 4 + 4 + 4, page.min(4), "unexpected end of input"),
    ];
    // 2^30 is the most a length prefix may claim: × 16 bytes an entry, or
    // × 512 a row, a reservation of tens to hundreds of GB if believed.
    let huge = (1u32 << 30).to_le_bytes();
    for (at, honest, what) in cases {
        // Checksummed lies: the count is wrong in a file that verifies.
        let lying = with_directory(&good, |dir| {
            assert_eq!(dir[at..at + 4], (honest as u32).to_le_bytes(), "layout drifted at {at}");
            dir[at..at + 4].copy_from_slice(&huge);
        });
        for how in WAYS {
            let (fresh, result) = load(how, WarpGateConfig::default(), &lying, &dir);
            expect_corrupt(result, what);
            assert_eq!(fresh.len(), 0, "{how}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streaming_load_interns_no_name_before_the_checksum_has_verified() {
    let cdw = connector("unseen");
    let wg = WarpGate::with_backend(WarpGateConfig::default(), cdw.clone());
    wg.attach_named("format-test-lake-seen", connector("unseen-lake"));
    wg.index_warehouse().unwrap();
    assert_eq!(wg.len(), 8);
    let good = wg.to_bytes();
    let dir = tmp_dir("unseen");
    let path = dir.join("snapshot.bin");
    // The name table and the sync state.
    let seen = b"format-test-lake-seen";
    let fresh = || WarpGate::with_backend(WarpGateConfig::default(), cdw.clone());

    // Damaged in a name, the directory's checksum still the original's:
    // refused, and the damaged name is not in the interner afterwards.
    let mut damaged = good.clone();
    rename(&mut damaged, seen, b"format-test-lake-rot!", 2);
    std::fs::write(&path, &damaged).unwrap();
    let mut node = fresh();
    expect_corrupt(node.load_from_file(&path), "directory checksum mismatch");
    expect_corrupt(node.load_bytes(&damaged), "directory checksum mismatch");
    assert_eq!(names::lookup("format-test-lake-rot!"), None);

    // The same snapshot as a process that called its lake something this
    // process has never heard would have written it — but one payload byte
    // has rotted. The directory verifies and names the lake; a hydrating
    // load is about to trust the payloads too, and they do not verify:
    // refused, the name still unknown.
    let unseen = with_directory(&good, |dir| rename(dir, seen, b"format-test-lake-new!", 2));
    let mut rotten = unseen.clone();
    rotten[PREAMBLE_LEN + 77] ^= 0x02;
    std::fs::write(&path, &rotten).unwrap();
    expect_corrupt(node.load_from_file(&path), "checksum mismatch");
    expect_corrupt(node.load_bytes(&rotten), "checksum mismatch");
    assert_eq!(names::lookup("format-test-lake-new!"), None);
    assert_eq!(node.len(), 0);

    // Intact, the file verifies to its last byte, and only then is the
    // name interned — the restored refs live in it.
    std::fs::write(&path, unseen).unwrap();
    node.load_from_file(&path).unwrap();
    let lake = BackendId::from_bits(names::lookup("format-test-lake-new!").expect("interned"));
    assert_eq!(node.len(), 8);
    let hits = node.discover(&query(), 8).unwrap().candidates;
    assert_eq!(hits.iter().filter(|j| j.reference.backend == lake).count(), 4, "{hits:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_truncation_and_no_bit_flip_loads_or_interns_a_name() {
    // A small image (two columns, dim 16) whose lake is called something
    // only this image says: every cut and every flipped bit of it must be
    // refused by both hydrating loaders with nothing installed and the
    // name still unknown to the process.
    let config = WarpGateConfig { dim: 16, threads: 1, ..Default::default() }.with_block_rows(1);
    let values = |from: usize| (from..from + 12).map(|i| format!("val {i}"));
    let mut w = Warehouse::new("sweep");
    w.database_mut("db").add_table(table("a", values(0)));
    let mut lake = Warehouse::new("sweep-lake");
    lake.database_mut("raw").add_table(table("dump", values(3)));
    let wg = WarpGate::with_backend(config, Arc::new(CdwConnector::new(w, CdwConfig::free())));
    wg.attach_named("format-test-sweep-in", Arc::new(CdwConnector::new(lake, CdwConfig::free())));
    wg.index_warehouse().unwrap();
    assert_eq!(wg.len(), 2);
    let image = with_directory(&wg.to_bytes(), |dir| {
        rename(dir, b"format-test-sweep-in", b"format-test-sweep-xx", 2)
    });
    let dir = tmp_dir("sweep");
    let path = dir.join("snapshot.bin");
    let mut probe = WarpGate::new(config);
    let mut refused = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        for (how, result) in [
            ("load_bytes", probe.load_bytes(bytes)),
            ("load_from_file", probe.load_from_file(&path)),
        ] {
            let err = result.expect_err("a damaged snapshot may never load");
            assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{what}, {how}: {err}");
            assert_eq!(probe.len(), 0, "{what}, {how}: partial state");
        }
        assert_eq!(names::lookup("format-test-sweep-xx"), None, "{what}: a name was interned");
    };
    for len in 0..image.len() {
        refused(&image[..len], &format!("truncation to {len}"));
    }
    for at in 0..image.len() {
        for bit in 0..8 {
            let mut broken = image.clone();
            broken[at] ^= 1 << bit;
            refused(&broken, &format!("bit {bit} of byte {at}"));
        }
    }
    // The image itself is the one thing that loads.
    probe.load_bytes(&image).unwrap();
    assert_eq!(probe.len(), 2);
    assert!(names::lookup("format-test-sweep-xx").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_file_that_disagrees_with_itself_or_the_config_is_refused_by_every_loader() {
    let cdw = connector("refused");
    let config = WarpGateConfig::default();
    let wg = WarpGate::with_backend(config, cdw.clone());
    wg.attach_named("format-test-refused-in", connector("refused-lake"));
    wg.index_warehouse().unwrap();
    let dir = tmp_dir("refused");
    wg.save_paged(&dir).unwrap();
    // Both kinds of image, their lake under a name only they say.
    let unseen = |image: &[u8]| {
        with_directory(image, |dir| {
            rename(dir, b"format-test-refused-in", b"format-test-refused-xx", 2)
        })
    };
    let sketched = unseen(&std::fs::read(dir.join(PAGED_FILE)).unwrap());
    let plain = unseen(&wg.to_bytes());

    let check = |what: &str, config: WarpGateConfig, image: &[u8], schema: bool, ways: &[&str]| {
        for how in ways {
            let (fresh, result) = load(how, config, image, &dir);
            match result {
                Err(StoreError::Schema(_)) if schema => {}
                Err(StoreError::SnapshotCorrupt(_)) if !schema => {}
                other => panic!("{what}, {how}: {other:?}"),
            }
            assert_eq!(fresh.len(), 0, "{what}, {how}");
        }
        assert_eq!(names::lookup("format-test-refused-xx"), None, "{what}: a name was interned");
    };
    // A checkpoint has nothing a lazy attach could prune with.
    check("sketch-less", config, &plain, true, &WAYS[2..]);
    // One geometry rule for every loader: dimension, banding, seed.
    for (what, other) in [
        ("dim", WarpGateConfig { dim: 64, ..config }),
        ("banding", WarpGateConfig { lsh_bits: 64, ..config }),
        ("seed", WarpGateConfig { seed: config.seed + 1, ..config }),
    ] {
        check(what, other, &sketched, true, &WAYS);
        check(what, other, &plain, true, &WAYS);
    }
    // A registry one entry short of the rows: the last entry (`db.d.x` of
    // the lake: its id, three length-prefixed strings) cut out in front of
    // the sync state, and the count lowered to match.
    let entries_at = {
        let names_at = MANIFEST_AT + 4 + 4 + 8;
        let lake = "format-test-refused-xx".len();
        names_at + 4 + (4 + 4 + "default".len()) + (4 + 4 + lake)
    };
    let short = |image: &[u8]| {
        with_directory(image, |dir| {
            assert_eq!(dir[entries_at..entries_at + 4], 8u32.to_le_bytes(), "layout drifted");
            dir[entries_at..entries_at + 4].copy_from_slice(&7u32.to_le_bytes());
            let sync_at = last_at(dir, b"\x07\0\0\0default") - 4;
            assert_eq!(dir[sync_at - 5..sync_at], *b"\x01\0\0\0x", "layout drifted");
            dir.drain(sync_at - 20..sync_at);
        })
    };
    check("row count", config, &short(&sketched), false, &WAYS);
    check("row count", config, &short(&plain), false, &WAYS[..2]);
    // Bytes after the trailer.
    let mut trailing = sketched.clone();
    trailing.push(0);
    check("trailing bytes", config, &trailing, false, &WAYS);

    // And the images themselves load, every way they may.
    for how in WAYS {
        let (fresh, result) = load(how, config, &sketched, &dir);
        result.unwrap_or_else(|e| panic!("{how}: {e}"));
        assert_eq!(fresh.len(), 8, "{how}");
    }
    assert!(names::lookup("format-test-refused-xx").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------

#[test]
fn rankings_and_bytes_survive_save_and_load() {
    let c = connector("save-load");
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let saver = WarpGate::with_backend(config, c.clone());
    saver.index_warehouse().unwrap();
    let want = saver.discover(&query(), 4).unwrap().candidates;
    assert_eq!(want[0].score, want[1].score, "fixture must put tie order on the line");
    let bytes = saver.to_bytes();
    let mut loader = WarpGate::with_backend(config, c);
    loader.load_bytes(&bytes).unwrap();
    assert_eq!(loader.discover(&query(), 4).unwrap().candidates, want, "a load changed a ranking");
    assert!(loader.to_bytes() == bytes, "a load changed the bytes");
    assert!(loader.sync().unwrap().is_noop(), "sync tokens carry over");
}

#[test]
fn one_sealed_file_ranks_alike_hydrated_and_lazily_attached() {
    let corpus = warpgate::corpora::build_testbed(&warpgate::corpora::TestbedSpec::xs(0.1));
    let c = Arc::new(CdwConnector::new(corpus.warehouse.clone(), CdwConfig::free()));
    // Two blocks of cache for the lazy side: eviction on every query.
    let config = WarpGateConfig { threads: 1, ..Default::default() }.with_block_rows(16);
    let config = config.with_block_cache_bytes(2 * 16 * config.dim * 4);
    let dir = tmp_dir("two-loaders");
    let saver = WarpGate::with_backend(config, c.clone());
    saver.index_warehouse().unwrap();
    assert_eq!(saver.save_paged(&dir).unwrap(), 1);
    let file = dir.join(PAGED_FILE);
    let rank = |node: &WarpGate| -> Vec<Vec<JoinCandidate>> {
        corpus.queries.iter().map(|q| node.discover(q, 10).unwrap().candidates).collect()
    };
    let want = rank(&saver);
    let mut hydrated = WarpGate::with_backend(config, c.clone());
    hydrated.load_from_file(&file).unwrap();
    assert_eq!((hydrated.len(), hydrated.cold_len()), (saver.len(), 0));
    let mut lazy = WarpGate::with_backend(config, c);
    lazy.load_paged(&dir).unwrap();
    assert_eq!((lazy.len(), lazy.cold_len()), (saver.len(), saver.len()));
    let at_load = lazy.block_cache_stats();
    assert_eq!((at_load.len, at_load.misses), (0, 0), "not lazy");
    assert!(rank(&hydrated) == want, "the hydrated side ranks differently");
    assert!(rank(&lazy) == want, "the lazy side ranks differently");
    assert!(lazy.block_cache_stats().evictions > 0, "the budget must bind");
    assert!(hydrated.sync().unwrap().is_noop() && lazy.sync().unwrap().is_noop());
    std::fs::remove_dir_all(&dir).ok();
}

/// Every file of a `save_paged` directory, by name.
fn dir_files(dir: &Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
        .collect()
}

/// Ids — and so row order, tie order and every persisted byte — are a
/// function of the warehouse, not of how many threads built the index or
/// in what order anything finished.
#[test]
fn builds_are_identical_at_every_thread_count() {
    let corpus = warpgate::corpora::build_testbed(&warpgate::corpora::TestbedSpec::xs(0.1));
    let c = Arc::new(CdwConnector::new(corpus.warehouse.clone(), CdwConfig::free()));
    let systems: Vec<(usize, WarpGate)> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let config = WarpGateConfig { threads, ..Default::default() };
            (threads, WarpGate::with_backend(config, c.clone()))
        })
        .collect();
    let dir = tmp_dir("determinism");
    let check = |pass: &str| {
        let (_, reference) = &systems[0];
        let want_bytes = reference.to_bytes();
        let want: Vec<_> =
            corpus.queries.iter().map(|q| reference.discover(q, 10).unwrap().candidates).collect();
        for (threads, wg) in &systems {
            let at = format!("{pass}, {threads} threads");
            assert_eq!(wg.len(), reference.len(), "{at}");
            assert!(wg.to_bytes() == want_bytes, "{at}: to_bytes() differs");
            for (q, want) in corpus.queries.iter().zip(&want) {
                assert_eq!(&wg.discover(q, 10).unwrap().candidates, want, "{at}: {q}");
            }
            let paged = dir.join(format!("{pass}-{threads}"));
            assert_eq!(wg.save_paged(&paged).unwrap(), 1);
            let files = dir_files(&paged);
            assert_eq!(files.keys().collect::<Vec<_>>(), [PAGED_FILE], "{at}");
            assert!(
                files == dir_files(&dir.join(format!("{pass}-1"))),
                "{at}: save_paged directory differs from the one-thread build's"
            );
        }
    };
    for (_, wg) in &systems {
        wg.index_warehouse().unwrap();
    }
    assert_eq!(corpus.queries.len(), 35);
    check("built");

    // One table no query reads changes shape: its first column stays, the
    // others go, one is new.
    let (database, table) = {
        let w = c.warehouse();
        let database = &w.databases()[0];
        let unqueried = |t: &&Table| !corpus.queries.iter().any(|q| q.table == t.name());
        let table = database.tables().iter().find(unqueried).expect("a table no query reads");
        (database.name().to_string(), table.clone())
    };
    let kept = table.columns()[0].clone();
    let fresh =
        Column::text("fresh", (0..kept.len()).map(|i| format!("fresh {i}")).collect::<Vec<_>>());
    c.warehouse_mut()
        .database_mut(&database)
        .add_table(Table::new(table.name(), vec![kept, fresh]).unwrap());
    for (_, wg) in &systems {
        assert_eq!(wg.sync().unwrap().tables_updated, 1);
    }
    check("synced");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn default_namespace_roundtrip_keeps_refs_and_rankings() {
    let c = connector("default-ns");
    let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
    wg.index_warehouse().unwrap();
    let bytes = wg.to_bytes();
    // One container version, whatever the namespaces.
    assert_eq!(codec::get_header(&mut &bytes[..], *b"WGSG").unwrap(), 3);
    let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
    fresh.load_bytes(&bytes).unwrap();
    let d = fresh.discover(&query(), 3).unwrap();
    assert!(d.candidates.iter().all(|j| j.reference.backend.is_default()));
    assert_eq!(d.candidates, wg.discover(&query(), 3).unwrap().candidates);
}

#[test]
fn a_loader_whose_interner_orders_the_names_differently_recomposes_ids() {
    // Two named lakes with different content. Swapping their names inside
    // the snapshot gives the file a process would have written that
    // interned them in the other order and attached the lakes the other
    // way round: each lake's rows must land in the *other* namespace here,
    // registry and index alike — hydrated or lazily attached.
    let cdw = connector("order");
    let lake = |values: std::ops::Range<usize>| {
        let mut w = Warehouse::new("lake");
        w.database_mut("raw").add_table(table("dump", values.map(|i| format!("val {i}"))));
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    };
    let config = WarpGateConfig::default();
    let wg = WarpGate::with_backend(config, cdw.clone());
    let a = wg.attach_named("format-test-order-a", lake(4..44));
    let b = wg.attach_named("format-test-order-b", lake(12..52));
    wg.index_warehouse().unwrap();
    let dir = tmp_dir("order");
    wg.save_paged(&dir).unwrap();
    let swapped = with_directory(&std::fs::read(dir.join(PAGED_FILE)).unwrap(), |dir| {
        rename(dir, b"format-test-order-a", b"format-test-order-?", 2);
        rename(dir, b"format-test-order-b", b"format-test-order-a", 2);
        rename(dir, b"format-test-order-?", b"format-test-order-b", 2);
    });

    let scoped = |node: &WarpGate, id: BackendId| {
        let hits = node
            .discover_with(&query(), 5, &QueryOptions::scoped(DiscoverScope::include([id.bits()])))
            .unwrap()
            .candidates;
        assert!(!hits.is_empty() && hits.iter().all(|j| j.reference.backend == id));
        hits.into_iter().map(|j| (j.reference.table, j.score)).collect::<Vec<_>>()
    };
    assert_ne!(scoped(&wg, a), scoped(&wg, b), "the lakes must be told apart by score");
    for how in WAYS {
        let (fresh, result) = load(how, config, &swapped, &dir);
        result.unwrap_or_else(|e| panic!("{how}: {e}"));
        fresh.attach_named(names::DEFAULT_NAME, cdw.clone());
        assert_eq!(fresh.len(), wg.len(), "{how}");
        assert_eq!(scoped(&fresh, a), scoped(&wg, b), "{how}");
        assert_eq!(scoped(&fresh, b), scoped(&wg, a), "{how}");
        let default_only =
            QueryOptions::scoped(DiscoverScope::include([BackendId::DEFAULT.bits()]));
        assert_eq!(
            fresh.discover_with(&query(), 5, &default_only).unwrap().candidates,
            wg.discover_with(&query(), 5, &default_only).unwrap().candidates,
            "{how}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_part_hot_part_paged_system_snapshots_whole() {
    let c = connector("mixed");
    let config = WarpGateConfig::default();
    let built = WarpGate::with_backend(config, c.clone());
    built.index_warehouse().unwrap();
    let dir = tmp_dir("mixed");
    built.save_paged(&dir).unwrap();
    let mut mixed = WarpGate::with_backend(config, c.clone());
    mixed.load_paged(&dir).unwrap();
    // Re-index one table: its row turns hot, the other three stay on disk.
    c.warehouse_mut()
        .database_mut("db")
        .add_table(table("d", (20..60).map(|i| format!("val {i}"))));
    assert_eq!(mixed.sync().unwrap().columns_indexed, 1);
    assert_eq!((mixed.len(), mixed.cold_len()), (4, 3));
    let want = mixed.discover(&query(), 4).unwrap().candidates;

    let mut flat = WarpGate::with_backend(config, c.clone());
    flat.load_bytes(&mixed.to_bytes()).unwrap();
    assert_eq!((flat.len(), flat.cold_len()), (4, 0), "a hydrated restore is all hot");
    assert_eq!(flat.discover(&query(), 4).unwrap().candidates, want);
    assert!(flat.sync().unwrap().is_noop());

    // And as a paged snapshot of its own, over the one it serves from.
    let again = tmp_dir("mixed-again");
    mixed.save_paged(&again).unwrap();
    let mut paged = WarpGate::with_backend(config, c);
    paged.load_paged(&again).unwrap();
    assert_eq!((paged.len(), paged.cold_len()), (4, 4));
    assert_eq!(paged.discover(&query(), 4).unwrap().candidates, want);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&again).ok();
}
