//! The flat snapshot as a format (ISSUE 17): one WGSY / WGLX version, rows
//! that carry their signatures, a footer that is always there.
//!
//! * what another version or a footerless file gets: a typed refusal;
//! * counts that lie — in a file whose checksum vouches for them — are
//!   refused before anything is reserved;
//! * a streaming load interns no backend name before the checksum verified;
//! * rankings (tie order included) survive save@{1,2,8} × load@{1,2,8}
//!   shards, a loader whose interner holds the names in another order, and
//!   a system whose rows are part hot, part paged.
//!
//! The frame's own unit tests live in `wg_lsh::shard`; the crash sweeps in
//! `tests/crash_recovery.rs`; the pinned golden image in
//! `warpgate_core::persist`.

use std::path::PathBuf;
use std::sync::Arc;

use warpgate::prelude::*;
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

/// `bytes` with its body edited by `edit` and the footer recomputed: a file
/// whose checksum vouches for whatever the edit left behind.
fn with_body(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let (body, check) = checksum::split_footer(bytes).unwrap();
    assert_eq!(check, checksum::FooterCheck::Verified);
    let mut body = body.to_vec();
    edit(&mut body);
    checksum::append_footer(&mut body);
    body
}

fn expect_corrupt(result: Result<(), StoreError>, what: &str) {
    match result {
        Err(StoreError::SnapshotCorrupt(msg)) => assert!(msg.contains(what), "{msg}"),
        other => panic!("expected SnapshotCorrupt({what}), got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Refusals.
// ---------------------------------------------------------------------

/// A snapshot as the parent commit wrote it: WGSY / WGLX `version` (1: bare
/// entries, no backend table; 2: named entries + table), rows without
/// signatures, then — from PR 7 on (`durable`) — an empty WGST frame and
/// the footer.
fn parent_snapshot(version: u32, durable: bool) -> Vec<u8> {
    let r = query();
    let mut buf = Vec::new();
    codec::put_header(&mut buf, *b"WGSY", version);
    codec::put_len(&mut buf, 1);
    codec::put_u32(&mut buf, 0);
    if version == 1 {
        for part in [&r.database, &r.table, &r.column] {
            codec::put_str(&mut buf, part);
        }
    } else {
        r.encode(&mut buf);
    }
    codec::put_bytes_with(&mut buf, |buf| {
        codec::put_header(buf, *b"WGLX", version);
        for x in [4u32, 2, 4] {
            codec::put_u32(buf, x);
        }
        codec::put_u64(buf, 7);
        codec::put_u32(buf, 0);
        if version == 2 {
            codec::put_len(buf, 1);
            codec::put_u32(buf, 0);
            codec::put_str(buf, "default");
        }
        codec::put_len(buf, 1);
        codec::put_u32(buf, 0);
        codec::put_f32_slice(buf, &[1.0, 0.0, 0.0, 0.0]);
    });
    if durable {
        codec::put_header(&mut buf, *b"WGST", 1);
        codec::put_len(&mut buf, 0);
        checksum::append_footer(&mut buf);
    }
    buf
}

#[test]
fn another_snapshot_version_is_refused() {
    let dir = tmp_dir("old-version");
    let path = dir.join("snapshot.bin");
    let config = WarpGateConfig { dim: 4, ..Default::default() };
    for (version, durable) in [(1, true), (2, true), (1, false), (2, false)] {
        let bytes = parent_snapshot(version, durable);
        let what = format!("unsupported snapshot version {version}");
        let mut fresh = WarpGate::new(config);
        // In memory the footer is checked first; a file streams, so its
        // header is what is seen first. Either way: typed, and nothing of
        // the old layout is parsed into state.
        let in_memory = if durable { &what } else { "does not end in an integrity footer" };
        expect_corrupt(fresh.load_bytes(&bytes), in_memory);
        std::fs::write(&path, &bytes).unwrap();
        expect_corrupt(fresh.load_from_file(&path), &what);
        // Recovery treats it as a corrupt generation: with nothing older
        // to fall back to, the primary's error is the answer.
        let err = Checkpointer::new(&path).recover(&mut fresh).unwrap_err();
        assert!(matches!(err, StoreError::SnapshotCorrupt(_)), "{err}");
        assert_eq!(fresh.len(), 0);
    }

    // A current file under an older one: recovery falls back to it.
    let c = connector("old-version");
    let wg = WarpGate::with_backend(WarpGateConfig::default(), c.clone());
    wg.index_warehouse().unwrap();
    let ckpt = Checkpointer::new(&path);
    std::fs::write(ckpt.previous_path(), wg.to_bytes()).unwrap();
    std::fs::write(&path, parent_snapshot(2, true)).unwrap();
    let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), c);
    let report = ckpt.recover(&mut fresh).unwrap();
    assert_eq!((report.source, report.columns), (RecoverySource::Previous, 4));
    assert!(matches!(report.primary_error, Some(StoreError::SnapshotCorrupt(_))));

    // A version from the future is refused the same way.
    let newer = with_body(&wg.to_bytes(), |body| body[4] += 1);
    expect_corrupt(fresh.load_bytes(&newer), "unsupported snapshot version 4");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn counts_that_lie_are_refused_before_anything_is_reserved() {
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector("lying"));
    wg.index_warehouse().unwrap();
    let good = wg.to_bytes();
    let at = |magic: &[u8]| good.windows(4).position(|w| w == magic).unwrap();
    // Where the counts sit: registry entries right after the WGSY header;
    // inside the index frame (length prefix, WGLX header + geometry = 36
    // bytes) the backend table's and, past its one `default` entry, the
    // rows'; WGST backends after its header, and the first backend's token
    // count after its name and epoch.
    let (wglx, wgst) = (at(b"WGLX"), at(b"WGST"));
    let cases = [
        (8, "registry entry count"),
        (wglx + 32, "index frame"),
        (wglx + 32 + 4 + 4 + 4 + "default".len(), "index frame"),
        (wgst + 8, "sync-state backends"),
        (wgst + 8 + 4 + 4 + "default".len() + 8, "sync backend #0 tables"),
    ];
    let dir = tmp_dir("lying");
    let path = dir.join("snapshot.bin");
    // 2^30 is the most a length prefix may claim: × 20 bytes an entry, or
    // × 532 a row, a reservation of tens to hundreds of GB if believed.
    let huge = (1u32 << 30).to_le_bytes();
    for (offset, what) in cases {
        // Checksummed lies: the count is wrong in a file that verifies.
        let lying = with_body(&good, |body| body[offset..offset + 4].copy_from_slice(&huge));
        let mut fresh = WarpGate::new(WarpGateConfig::default());
        expect_corrupt(fresh.load_bytes(&lying), what);
        std::fs::write(&path, &lying).unwrap();
        expect_corrupt(fresh.load_from_file(&path), "count 1073741824 needs at least");
        assert_eq!(fresh.len(), 0);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Replace every occurrence of `from` in a snapshot's body by the
/// equally long `to`, expecting `times` of them.
fn rename(body: &mut [u8], from: &[u8], to: &[u8], times: usize) {
    assert_eq!(from.len(), to.len());
    let hits: Vec<usize> =
        (0..=body.len() - from.len()).filter(|&i| &body[i..i + from.len()] == from).collect();
    assert_eq!(hits.len(), times, "fixture layout drifted");
    for i in hits {
        body[i..i + to.len()].copy_from_slice(to);
    }
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
    // Four registry entries, the index frame's table, the sync frame.
    let seen = b"format-test-lake-seen";

    // Damaged in a name, the checksum still the original's: refused, and
    // the damaged name is not in the interner afterwards.
    let mut damaged = good.clone();
    rename(&mut damaged, seen, b"format-test-lake-rot!", 6);
    std::fs::write(&path, &damaged).unwrap();
    let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), cdw.clone());
    expect_corrupt(fresh.load_from_file(&path), "checksum mismatch");
    assert_eq!(names::lookup("format-test-lake-rot!"), None);
    assert_eq!(fresh.len(), 0);

    // The same snapshot as a process that called its lake something this
    // process has never heard would have written it: the file verifies,
    // and only then is the name interned — the restored refs live in it.
    let unseen = with_body(&good, |body| rename(body, seen, b"format-test-lake-new!", 6));
    std::fs::write(&path, unseen).unwrap();
    assert_eq!(names::lookup("format-test-lake-new!"), None);
    fresh.load_from_file(&path).unwrap();
    let lake = BackendId::from_bits(names::lookup("format-test-lake-new!").expect("interned"));
    assert_eq!(fresh.len(), 8);
    let hits = fresh.discover(&query(), 8).unwrap().candidates;
    assert_eq!(hits.iter().filter(|j| j.reference.backend == lake).count(), 4, "{hits:?}");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------

#[test]
fn rankings_and_bytes_survive_every_shard_count_pairing() {
    let c = connector("shards");
    let config = |shards| WarpGateConfig { threads: 1, ..Default::default() }.with_shards(shards);
    let reference = WarpGate::with_backend(config(1), c.clone());
    reference.index_warehouse().unwrap();
    let want = reference.discover(&query(), 4).unwrap().candidates;
    assert_eq!(want[0].score, want[1].score, "fixture must put tie order on the line");
    let want_bytes = reference.to_bytes();
    for save_shards in [1usize, 2, 8] {
        let saver = WarpGate::with_backend(config(save_shards), c.clone());
        saver.index_warehouse().unwrap();
        let bytes = saver.to_bytes();
        assert_eq!(bytes, want_bytes, "bytes depend on the saver's {save_shards} shards");
        for load_shards in [1usize, 2, 8] {
            let mut loader = WarpGate::with_backend(config(load_shards), c.clone());
            loader.load_bytes(&bytes).unwrap();
            assert_eq!(
                loader.discover(&query(), 4).unwrap().candidates,
                want,
                "save@{save_shards} → load@{load_shards} changed a ranking"
            );
            assert!(loader.sync().unwrap().is_noop(), "sync tokens carry over");
        }
    }
}

/// Every file of a `save_paged` directory, by name.
fn dir_files(dir: &std::path::Path) -> std::collections::BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap())
        .map(|e| (e.file_name().into_string().unwrap(), std::fs::read(e.path()).unwrap()))
        .collect()
}

/// Ids — and so shard placement, row order, tie order and every persisted
/// byte — are a function of the warehouse, not of how many threads built
/// the index or in what order they finished (ISSUE 21).
#[test]
fn builds_are_identical_at_every_thread_and_shard_count() {
    let corpus = warpgate::corpora::build_testbed(&warpgate::corpora::TestbedSpec::xs(0.1));
    let c = Arc::new(CdwConnector::new(corpus.warehouse.clone(), CdwConfig::free()));
    let systems: Vec<(usize, usize, WarpGate)> = [1usize, 2, 8]
        .into_iter()
        .flat_map(|threads| [1usize, 2, 8].map(|shards| (threads, shards)))
        .map(|(threads, shards)| {
            let config = WarpGateConfig { threads, ..Default::default() }.with_shards(shards);
            (threads, shards, WarpGate::with_backend(config, c.clone()))
        })
        .collect();
    let dir = tmp_dir("determinism");
    let check = |pass: &str| {
        let (_, _, reference) = &systems[0];
        let want_bytes = reference.to_bytes();
        let want: Vec<_> =
            corpus.queries.iter().map(|q| reference.discover(q, 10).unwrap().candidates).collect();
        for (threads, shards, wg) in &systems {
            let at = format!("{pass}, {threads} threads, {shards} shards");
            assert_eq!(wg.len(), reference.len(), "{at}");
            assert!(wg.to_bytes() == want_bytes, "{at}: to_bytes() differs");
            for (q, want) in corpus.queries.iter().zip(&want) {
                assert_eq!(&wg.discover(q, 10).unwrap().candidates, want, "{at}: {q}");
            }
            let paged = dir.join(format!("{pass}-{threads}-{shards}"));
            wg.save_paged(&paged).unwrap();
            assert!(
                dir_files(&paged) == dir_files(&dir.join(format!("{pass}-1-{shards}"))),
                "{at}: save_paged directory differs from the one-thread build's"
            );
        }
    };
    for (_, _, wg) in &systems {
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
    for (_, _, wg) in &systems {
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
    // One frame version, whatever the namespaces.
    assert_eq!(codec::get_header(&mut &bytes[..], *b"WGSY").unwrap(), 3);
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
    // registry and index alike.
    let cdw = connector("order");
    let lake = |values: std::ops::Range<usize>| {
        let mut w = Warehouse::new("lake");
        w.database_mut("raw").add_table(table("dump", values.map(|i| format!("val {i}"))));
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    };
    let wg = WarpGate::with_backend(WarpGateConfig::default(), cdw.clone());
    let a = wg.attach_named("format-test-order-a", lake(4..44));
    let b = wg.attach_named("format-test-order-b", lake(12..52));
    wg.index_warehouse().unwrap();
    let swapped = with_body(&wg.to_bytes(), |body| {
        rename(body, b"format-test-order-a", b"format-test-order-?", 3);
        rename(body, b"format-test-order-b", b"format-test-order-a", 3);
        rename(body, b"format-test-order-?", b"format-test-order-b", 3);
    });
    let dir = tmp_dir("order");
    let path = dir.join("snapshot.bin");
    std::fs::write(&path, &swapped).unwrap();

    let scoped = |node: &WarpGate, id: BackendId| {
        let hits = node
            .discover_with(&query(), 5, &QueryOptions::scoped(DiscoverScope::include([id.bits()])))
            .unwrap()
            .candidates;
        assert!(!hits.is_empty() && hits.iter().all(|j| j.reference.backend == id));
        hits.into_iter().map(|j| (j.reference.table, j.score)).collect::<Vec<_>>()
    };
    assert_ne!(scoped(&wg, a), scoped(&wg, b), "the lakes must be told apart by score");
    for streamed in [false, true] {
        let mut fresh = WarpGate::with_backend(WarpGateConfig::default(), cdw.clone());
        if streamed {
            fresh.load_from_file(&path).unwrap();
        } else {
            fresh.load_bytes(&swapped).unwrap();
        }
        assert_eq!(fresh.len(), wg.len());
        assert_eq!(scoped(&fresh, a), scoped(&wg, b));
        assert_eq!(scoped(&fresh, b), scoped(&wg, a));
        let default_only =
            QueryOptions::scoped(DiscoverScope::include([BackendId::DEFAULT.bits()]));
        assert_eq!(
            fresh.discover_with(&query(), 5, &default_only).unwrap().candidates,
            wg.discover_with(&query(), 5, &default_only).unwrap().candidates
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

    let mut flat = WarpGate::with_backend(config, c);
    flat.load_bytes(&mixed.to_bytes()).unwrap();
    assert_eq!((flat.len(), flat.cold_len()), (4, 0), "a flat restore is all hot");
    assert_eq!(flat.discover(&query(), 4).unwrap().candidates, want);
    assert!(flat.sync().unwrap().is_noop());
    std::fs::remove_dir_all(&dir).ok();
}
