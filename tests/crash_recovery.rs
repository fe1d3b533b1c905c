//! Crash-safety acceptance suite (ISSUE 7): kill-and-restart recovery
//! over a federated fixture, the torn-write/bit-flip chaos sweeps, and
//! the daemon's checkpoint lifecycle.
//!
//! The bar:
//!
//! * a restarted node recovered from a checkpoint syncs like the node
//!   that died — only genuinely changed tables re-scan, CostMeter-proved
//!   per backend, and rankings match a from-scratch rebuild;
//! * replaying a checkpoint write crashed at *every byte offset* (plus
//!   every single-bit flip of the published file) always recovers a
//!   complete old or new state — never an error-free load of garbage;
//! * the snapshot loader survives bit-flip and truncation fuzzing with
//!   typed errors, no panics, and no partial mutation;
//! * a failed `save_to_file` (full disk, blocked temp) leaves the
//!   existing snapshot intact and loadable — the `File::create`
//!   truncation regression;
//! * `SyncDaemon` checkpoints on policy, flushes a final checkpoint on
//!   shutdown, and records (never panics on) an unwritable path.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use warpgate::prelude::*;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wg_crash_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn small_warehouse(tag: &str) -> Warehouse {
    let mut w = Warehouse::new(tag);
    // Case variants of the same values: joinable well above the LSH
    // threshold, so discovery produces a non-empty, score-sensitive
    // ranking to compare across recoveries.
    w.database_mut("db").add_table(
        Table::new(
            "a",
            vec![Column::text("x", (0..24).map(|i| format!("val {i}")).collect::<Vec<_>>())],
        )
        .unwrap(),
    );
    w.database_mut("db").add_table(
        Table::new(
            "b",
            vec![Column::text("x", (0..24).map(|i| format!("VAL {i}")).collect::<Vec<_>>())],
        )
        .unwrap(),
    );
    w
}

/// Shift table `b`'s value window: the version token changes (a re-scan
/// is due) and the embedding moves (the ranking score shifts), but the
/// columns stay joinable — both generations produce a real ranking.
fn mutate_table_b(c: &CdwConnector) {
    c.warehouse_mut().database_mut("db").add_table(
        Table::new(
            "b",
            vec![Column::text("x", (6..30).map(|i| format!("VAL {i}")).collect::<Vec<_>>())],
        )
        .unwrap(),
    );
}

// ---------------------------------------------------------------------
// Kill-and-restart acceptance over a three-backend federation.
// ---------------------------------------------------------------------

fn federated_warehouse(name: &str, rows: usize, fmt: impl Fn(usize) -> String) -> Warehouse {
    let mut w = Warehouse::new(name);
    w.database_mut(name).add_table(
        Table::new("items", vec![Column::text("company", (0..rows).map(fmt).collect::<Vec<_>>())])
            .unwrap(),
    );
    w
}

#[test]
fn kill_and_restart_bills_only_the_mutated_table() {
    let dir = tmp_dir("restart");
    let ckpt = Checkpointer::new(dir.join("snapshot.bin"));
    let config = WarpGateConfig { threads: 1, ..Default::default() };

    let cdw = Arc::new(CdwConnector::new(
        federated_warehouse("cdw", 40, |i| format!("Company {i}")),
        CdwConfig::free(),
    ));
    let lake = Arc::new(CdwConnector::new(
        federated_warehouse("lake", 35, |i| format!("COMPANY {i}")),
        CdwConfig::free(),
    ));
    let partners = Arc::new(CdwConnector::new(
        federated_warehouse("partners", 30, |i| format!("company {i} inc")),
        CdwConfig::free(),
    ));

    // First life: attach, index, checkpoint, die.
    {
        let node = WarpGate::new(config);
        node.attach_named("crash-restart-cdw", cdw.clone());
        node.attach_named("crash-restart-lake", lake.clone());
        node.attach_named("crash-restart-partners", partners.clone());
        let report = node.index_warehouse().unwrap();
        assert_eq!(report.columns_indexed, 3);
        ckpt.checkpoint(&node).unwrap();
    } // node dropped — the process "crashed" with only the files left.

    // Second life: attach the same backends, recover from disk.
    let mut node = WarpGate::new(config);
    let cdw_id = node.attach_named("crash-restart-cdw", cdw.clone());
    node.attach_named("crash-restart-lake", lake.clone());
    node.attach_named("crash-restart-partners", partners.clone());
    let recovery = ckpt.recover(&mut node).unwrap();
    assert_eq!(recovery.source, RecoverySource::Primary);
    assert_eq!(recovery.columns, 3);
    assert!(recovery.primary_error.is_none());

    // One table on one backend changes while the node was down-ish: the
    // value window shifts, so the content (and its version token) is new
    // but the cross-backend joinability survives.
    cdw.warehouse_mut().database_mut("cdw").add_table(
        Table::new(
            "items",
            vec![Column::text(
                "company",
                (5..45).map(|i| format!("Company {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );

    cdw.reset_costs();
    lake.reset_costs();
    partners.reset_costs();
    let sync = node.sync().unwrap();
    assert_eq!(sync.tables_updated, 1, "only the mutated table re-scans: {sync:?}");
    assert_eq!(sync.tables_added, 0, "restored tokens must not look like first contact");
    assert_eq!(sync.columns_indexed, 1);
    assert_eq!(cdw.costs().requests, 1, "one column scan on the mutated warehouse");
    assert_eq!(lake.costs().requests, 0, "unchanged lake must not be billed");
    assert_eq!(partners.costs().requests, 0, "unchanged partners must not be billed");

    // Rankings equal a from-scratch rebuild over the current content.
    let oracle = WarpGate::new(config);
    oracle.attach_named("crash-restart-cdw", cdw.clone());
    oracle.attach_named("crash-restart-lake", lake.clone());
    oracle.attach_named("crash-restart-partners", partners.clone());
    oracle.index_warehouse().unwrap();
    let q = ColumnRef::scoped(cdw_id, "cdw", "items", "company");
    let recovered = node.discover(&q, 5).unwrap().candidates;
    let rebuilt = oracle.discover(&q, 5).unwrap().candidates;
    assert!(!recovered.is_empty());
    assert_eq!(recovered, rebuilt, "recovered + synced node diverged from a fresh rebuild");

    // And the unchanged-content case is a complete no-op.
    assert!(node.sync().unwrap().is_noop());
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Torn-write and bit-flip chaos sweeps through the Checkpointer.
// ---------------------------------------------------------------------

/// Single-backend fixture with two snapshot generations (`old`, `new`)
/// and their expected discovery rankings.
struct TwoGenerations {
    node: WarpGate,
    old: Vec<u8>,
    new: Vec<u8>,
    old_rank: Vec<JoinCandidate>,
    new_rank: Vec<JoinCandidate>,
    query: ColumnRef,
}

fn two_generations(tag: &str) -> TwoGenerations {
    let config = WarpGateConfig { dim: 64, threads: 1, ..Default::default() };
    let c = Arc::new(CdwConnector::new(small_warehouse(tag), CdwConfig::free()));
    let wg = WarpGate::with_backend(config, c.clone());
    wg.index_warehouse().unwrap();
    let old = wg.to_bytes();
    mutate_table_b(&c);
    wg.sync().unwrap();
    let new = wg.to_bytes();
    assert_ne!(old, new);

    let query = ColumnRef::new("db", "a", "x");
    let mut node = WarpGate::with_backend(config, c);
    node.load_bytes(&old).unwrap();
    let old_rank = node.discover(&query, 3).unwrap().candidates;
    node.load_bytes(&new).unwrap();
    let new_rank = node.discover(&query, 3).unwrap().candidates;
    assert_ne!(old_rank, new_rank, "generations must be distinguishable by ranking");
    TwoGenerations { node, old, new, old_rank, new_rank, query }
}

#[test]
fn torn_checkpoint_recovers_old_or_new_at_every_crash_offset() {
    let mut fx = two_generations("torn");
    let dir = tmp_dir("torn");
    let ckpt = Checkpointer::new(dir.join("snapshot.bin"));
    let torn = TornWriter::new(Some(fx.old.clone()), fx.new.clone());

    let states = torn.crash_states();
    assert!(states.len() > fx.new.len(), "every byte offset plus the rename states");
    for state in &states {
        state.materialize(ckpt.path()).unwrap();
        let report = ckpt
            .recover(&mut fx.node)
            .unwrap_or_else(|e| panic!("{}: recovery must succeed, got {e}", state.label));
        let got = fx.node.discover(&fx.query, 3).unwrap().candidates;
        assert!(
            got == fx.old_rank || got == fx.new_rank,
            "{}: recovered state is neither generation",
            state.label
        );
        // A complete published `new` must win; every torn/absent-primary
        // state must land on the old generation.
        if state.primary.as_deref() == Some(&fx.new[..]) {
            assert_eq!(got, fx.new_rank, "{}", state.label);
            assert_eq!(report.source, RecoverySource::Primary, "{}", state.label);
        } else {
            assert_eq!(got, fx.old_rank, "{}", state.label);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn first_checkpoint_crashes_fail_cleanly_without_a_previous_generation() {
    let mut fx = two_generations("first");
    let dir = tmp_dir("first");
    let ckpt = Checkpointer::new(dir.join("snapshot.bin"));
    // No old generation: a crash before the rename leaves nothing
    // published, and recovery must say so with a typed error — garbage
    // or panic would both be bugs.
    let torn = TornWriter::new(None, fx.new.clone());
    for state in torn.crash_states() {
        state.materialize(ckpt.path()).unwrap();
        match ckpt.recover(&mut fx.node) {
            Ok(_) => {
                assert_eq!(state.primary.as_deref(), Some(&fx.new[..]), "{}", state.label);
                assert_eq!(fx.node.discover(&fx.query, 3).unwrap().candidates, fx.new_rank);
            }
            Err(StoreError::NotFound(_)) => {
                assert!(state.primary.is_none(), "{}", state.label);
            }
            Err(e) => panic!("{}: unexpected error class {e}", state.label),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bit_flipped_newest_generation_falls_back_to_previous() {
    let mut fx = two_generations("flip");
    let dir = tmp_dir("flip");
    let ckpt = Checkpointer::new(dir.join("snapshot.bin"));
    let torn = TornWriter::new(Some(fx.old.clone()), fx.new.clone());

    for state in torn.bit_flip_states() {
        state.materialize(ckpt.path()).unwrap();
        let report = ckpt
            .recover(&mut fx.node)
            .unwrap_or_else(|e| panic!("{}: prev generation must recover, got {e}", state.label));
        assert_eq!(
            report.source,
            RecoverySource::Previous,
            "{}: a flipped primary may never load",
            state.label
        );
        assert!(
            matches!(report.primary_error, Some(StoreError::SnapshotCorrupt(_))),
            "{}: the primary's failure must be typed corruption, got {:?}",
            state.label,
            report.primary_error
        );
        assert_eq!(fx.node.discover(&fx.query, 3).unwrap().candidates, fx.old_rank);
    }
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Loader-level fuzz: typed errors, no panics, no partial mutation.
// ---------------------------------------------------------------------

#[test]
fn loader_rejects_every_bit_flip_without_partial_mutation() {
    let fx = two_generations("fuzz-flip");
    let dir = tmp_dir("fuzz-flip");
    let path = dir.join("snapshot.bin");
    let config = WarpGateConfig { dim: 64, threads: 1, ..Default::default() };
    let mut probe = WarpGate::new(config);
    for offset in 0..fx.new.len() {
        let mut broken = fx.new.clone();
        broken[offset] ^= 1 << (offset % 8);
        // From memory or from the file, the same reader: trailer, then the
        // directory's checksum, then every block's — typed, whatever the
        // flip hit.
        std::fs::write(&path, &broken).unwrap();
        for (how, result) in [
            ("load_bytes", probe.load_bytes(&broken)),
            ("load_from_file", probe.load_from_file(&path)),
        ] {
            let err = result.expect_err("a flipped snapshot may never load");
            assert!(
                matches!(err, StoreError::SnapshotCorrupt(_)),
                "flip at byte {offset}, {how}: wrong error class: {err}"
            );
            assert_eq!(probe.len(), 0, "flip at byte {offset} partially mutated the system");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loader_survives_truncation_at_every_length() {
    let mut fx = two_generations("fuzz-trunc");
    let dir = tmp_dir("fuzz-trunc");
    let path = dir.join("snapshot.bin");
    let config = WarpGateConfig { dim: 64, threads: 1, ..Default::default() };
    let mut probe = WarpGate::new(config);
    // No length short of the whole file is a loadable file: the trailer is
    // written last and validated first, so a prefix — cut inside a block,
    // at a block boundary, inside the directory — is a torn write like any
    // other. From memory and from the file alike.
    for len in 0..fx.new.len() {
        let cut = &fx.new[..len];
        std::fs::write(&path, cut).unwrap();
        for (how, result) in
            [("load_bytes", probe.load_bytes(cut)), ("load_from_file", probe.load_from_file(&path))]
        {
            match result {
                Err(StoreError::SnapshotCorrupt(msg)) => assert!(!msg.is_empty()),
                Ok(()) => panic!("truncation to {len} loaded through {how}"),
                Err(e) => panic!("truncation to {len}, {how}: unexpected error class {e}"),
            }
            assert_eq!(probe.len(), 0, "truncation to {len} partially mutated the system");
        }
    }
    // The whole file is the one length that loads.
    std::fs::write(&path, &fx.new).unwrap();
    fx.node.load_from_file(&path).unwrap();
    assert_eq!(fx.node.discover(&fx.query, 3).unwrap().candidates, fx.new_rank);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// save_to_file atomicity regression.
// ---------------------------------------------------------------------

#[test]
fn failed_save_leaves_the_existing_snapshot_intact() {
    let fx = two_generations("save");
    let dir = tmp_dir("save");
    let path = dir.join("snapshot.bin");
    let config = WarpGateConfig { dim: 64, threads: 1, ..Default::default() };

    std::fs::write(&path, &fx.old).unwrap();
    // Block the temp sibling with a directory: the new write fails before
    // the destination is touched. The historical writer opened the
    // destination itself with `File::create`, truncating the old snapshot
    // before the first byte landed — a crash or full disk then lost both
    // generations at once.
    std::fs::create_dir_all(dir.join("snapshot.bin.tmp")).unwrap();
    assert!(fx.node.save_to_file(&path).is_err());
    assert_eq!(std::fs::read(&path).unwrap(), fx.old, "failed save must not touch the old file");
    let mut check = WarpGate::new(config);
    check.load_from_file(&path).unwrap();
    assert_eq!(check.len(), 2);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Daemon checkpoint lifecycle.
// ---------------------------------------------------------------------

fn wait_for(daemon: &SyncDaemon, pred: impl Fn(&DaemonReport) -> bool) -> DaemonReport {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let r = daemon.report();
        if pred(&r) {
            return r;
        }
        assert!(Instant::now() < deadline, "daemon never reached the expected state: {r:?}");
        daemon.wake();
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn daemon_checkpoints_periodically_and_recovery_sees_the_latest_sync() {
    let dir = tmp_dir("daemon");
    let path = dir.join("snapshot.bin");
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let c = Arc::new(CdwConnector::new(small_warehouse("daemon-periodic"), CdwConfig::free()));
    let wg = Arc::new(WarpGate::with_backend(config, c.clone()));

    let daemon = SyncDaemon::spawn(
        wg.clone(),
        SyncDaemonConfig::default()
            .with_interval(Duration::from_millis(2))
            .with_checkpoint(&path, 1),
    );
    let r = wait_for(&daemon, |r| r.checkpoints_written >= 1);
    assert_eq!(r.checkpoint_failures, 0);

    mutate_table_b(&c);
    let before = daemon.report().checkpoints_written;
    wait_for(&daemon, |r| r.tables_updated >= 1 && r.checkpoints_written > before);
    let fin = daemon.shutdown();
    assert!(fin.checkpoints_written > before);

    // A fresh node recovered from the daemon's checkpoint already knows
    // the mutated content: its first sync is a no-op.
    let mut fresh = WarpGate::with_backend(config, c);
    let report = Checkpointer::new(&path).recover(&mut fresh).unwrap();
    assert_eq!(report.columns, 2);
    assert!(fresh.sync().unwrap().is_noop(), "checkpoint must carry the post-mutation tokens");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_shutdown_flushes_a_final_checkpoint() {
    let dir = tmp_dir("daemon-flush");
    let path = dir.join("snapshot.bin");
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let c = Arc::new(CdwConnector::new(small_warehouse("daemon-flush"), CdwConfig::free()));
    let wg = Arc::new(WarpGate::with_backend(config, c));

    // Interval threshold far beyond the test's sync count: only the
    // shutdown flush can write.
    let daemon = SyncDaemon::spawn(
        wg,
        SyncDaemonConfig::default()
            .with_interval(Duration::from_millis(2))
            .with_checkpoint(&path, 10_000),
    );
    wait_for(&daemon, |r| r.syncs_ok >= 2);
    assert!(!path.exists(), "threshold not reached: no periodic checkpoint yet");
    let fin = daemon.shutdown();
    assert_eq!(fin.checkpoints_written, 1, "shutdown must flush exactly one final checkpoint");
    assert!(path.exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_records_unwritable_checkpoint_paths_instead_of_panicking() {
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let c = Arc::new(CdwConnector::new(small_warehouse("daemon-unwritable"), CdwConfig::free()));
    let wg = Arc::new(WarpGate::with_backend(config, c));
    let daemon = SyncDaemon::spawn(
        wg,
        SyncDaemonConfig::default()
            .with_interval(Duration::from_millis(2))
            .with_checkpoint("/nonexistent/dir/snapshot.bin", 1),
    );
    let r = wait_for(&daemon, |r| r.checkpoint_failures >= 1);
    assert_eq!(r.checkpoints_written, 0);
    assert!(
        r.last_error.as_deref().unwrap_or("").contains("checkpoint"),
        "the failure must be attributed: {:?}",
        r.last_error
    );
    // Drop (not shutdown) must also be panic-free with the final flush
    // failing against the same unwritable path.
    drop(daemon);
}

// ---------------------------------------------------------------------
// Metadata-call fault injection at the sync seam.
// ---------------------------------------------------------------------

#[test]
fn metadata_faults_fail_sync_cleanly_and_tokens_survive() {
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let c = Arc::new(CdwConnector::new(small_warehouse("meta-fault"), CdwConfig::free()));
    let healthy: BackendHandle = c.clone();
    let wg = WarpGate::with_backend(config, healthy.clone());
    wg.index_warehouse().unwrap();

    // Every metadata call faults: sync can't even list versions. The
    // failure must be transient-classified and leave the index (and its
    // recorded tokens) untouched.
    let flaky: BackendHandle =
        Arc::new(FaultInjector::new(healthy.clone(), FaultPlan::fail_metadata_every(1)));
    wg.attach_named(warpgate::util::names::DEFAULT_NAME, flaky);
    let err = wg.sync().unwrap_err();
    assert!(err.is_retryable(), "metadata faults are transient: {err}");
    assert_eq!(wg.len(), 2, "failed sync must not disturb the index");

    // Heal: re-attach bumps the epoch, so one full re-scan reconciles and
    // the steady state goes back to no-op syncs.
    wg.attach_named(warpgate::util::names::DEFAULT_NAME, healthy);
    assert!(!wg.sync().unwrap().is_noop());
    assert!(wg.sync().unwrap().is_noop());
}

// ---------------------------------------------------------------------
// Paged-segment chaos: torn block writes and media rot (ISSUE 9).
// ---------------------------------------------------------------------

/// Two paged generations of the same corpus shape: directories `old_dir`
/// and `new_dir` each hold one sealed snapshot file, plus the rankings each
/// generation serves.
struct PagedGenerations {
    config: WarpGateConfig,
    connector: Arc<CdwConnector>,
    old_dir: PathBuf,
    new_dir: PathBuf,
    old_rank: Vec<JoinCandidate>,
    new_rank: Vec<JoinCandidate>,
    query: ColumnRef,
}

fn paged_generations(tag: &str) -> PagedGenerations {
    // One-row blocks: every row is its own block, so torn writes can tear
    // *between* blocks.
    let config = WarpGateConfig { dim: 64, threads: 1, ..Default::default() }.with_block_rows(1);
    let c = Arc::new(CdwConnector::new(small_warehouse(tag), CdwConfig::free()));
    let wg = WarpGate::with_backend(config, c.clone());
    wg.index_warehouse().unwrap();
    let old_dir = tmp_dir(&format!("{tag}-gen-old"));
    wg.save_paged(&old_dir).unwrap();
    mutate_table_b(&c);
    wg.sync().unwrap();
    let new_dir = tmp_dir(&format!("{tag}-gen-new"));
    wg.save_paged(&new_dir).unwrap();

    let query = ColumnRef::new("db", "a", "x");
    let mut node = WarpGate::with_backend(config, c.clone());
    node.load_paged(&old_dir).unwrap();
    let old_rank = node.discover(&query, 3).unwrap().candidates;
    node.load_paged(&new_dir).unwrap();
    let new_rank = node.discover(&query, 3).unwrap().candidates;
    assert_ne!(old_rank, new_rank, "generations must be distinguishable by ranking");
    PagedGenerations { config, connector: c, old_dir, new_dir, old_rank, new_rank, query }
}

/// The snapshot file of a paged directory.
fn paged_file(dir: &Path) -> PathBuf {
    dir.join(warpgate_core::persist::PAGED_FILE)
}

/// Make `dir`'s snapshot file hold `seg` (or not exist).
fn stage_paged(dir: &Path, seg: Option<&[u8]>) {
    match seg {
        Some(bytes) => std::fs::write(paged_file(dir), bytes).unwrap(),
        None => {
            let _ = std::fs::remove_file(paged_file(dir));
        }
    }
}

#[test]
fn torn_segment_writes_never_expose_a_partial_block_set() {
    let fx = paged_generations("seg-torn");
    let old_seg = std::fs::read(paged_file(&fx.old_dir)).unwrap();
    let new_seg = std::fs::read(paged_file(&fx.new_dir)).unwrap();
    let dir = tmp_dir("seg-torn-live");
    let torn = TornWriter::new(Some(old_seg.clone()), new_seg.clone());

    for state in torn.crash_states() {
        // Map the checkpoint-rotation state onto the snapshot file: what
        // the publish path holds in that state.
        let (seg, want) = match &state.primary {
            Some(bytes) if bytes == &new_seg => (Some(&new_seg[..]), Some(&fx.new_rank)),
            Some(bytes) => (Some(&bytes[..]), Some(&fx.old_rank)),
            None => (None, None),
        };
        stage_paged(&dir, seg);
        let mut node = WarpGate::with_backend(fx.config, fx.connector.clone());
        match (node.load_paged(&dir), want) {
            (Ok(()), Some(rank)) => {
                let got = node.discover(&fx.query, 3).unwrap().candidates;
                assert_eq!(&got, rank, "{}: must serve a complete generation", state.label);
            }
            (Err(e), None) => {
                // The mid-rotation window (publish path momentarily
                // absent): a typed error, never a guess.
                assert!(matches!(e, StoreError::NotFound(_)), "{}: {e}", state.label);
                assert_eq!(node.len(), 0, "{}: no partial state", state.label);
            }
            (Ok(()), None) => panic!("{}: loaded with no published segment", state.label),
            (Err(e), Some(_)) => panic!("{}: complete generation must load: {e}", state.label),
        }
    }

    // An in-place torn write (no atomic rename underneath, or a filesystem
    // that reorders data vs rename): the publish path itself holds a bare
    // prefix of the new segment. The directory frame is written last and
    // validated first, so every prefix must fail at open — a subset of the
    // new blocks may never masquerade as a complete set.
    for cut in (0..new_seg.len()).step_by(41).chain([new_seg.len() - 1]) {
        stage_paged(&dir, Some(&new_seg[..cut]));
        let mut node = WarpGate::with_backend(fx.config, fx.connector.clone());
        let err = node.load_paged(&dir).unwrap_err();
        assert!(
            matches!(err, StoreError::SnapshotCorrupt(_)),
            "segment prefix {cut}: unexpected error class {err}"
        );
        assert_eq!(node.len(), 0, "segment prefix {cut}: partial state installed");
    }

    for d in [&fx.old_dir, &fx.new_dir, &dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn bit_flipped_segments_fail_at_open_or_first_read_never_silently() {
    let fx = paged_generations("seg-flip");
    let new_seg = std::fs::read(paged_file(&fx.new_dir)).unwrap();
    let dir = tmp_dir("seg-flip-live");
    let torn = TornWriter::new(None, new_seg.clone());

    for state in torn.bit_flip_states() {
        let flipped = state.primary.as_ref().expect("flip states publish a primary");
        stage_paged(&dir, Some(flipped));
        let mut node = WarpGate::with_backend(fx.config, fx.connector.clone());
        match node.load_paged(&dir) {
            Err(e) => {
                // Rot in the preamble, the directory (block metadata and
                // manifest alike) or the trailer: rejected at open, before
                // any state installs.
                assert!(matches!(e, StoreError::SnapshotCorrupt(_)), "{}: {e}", state.label);
                assert_eq!(node.len(), 0, "{}: no partial state", state.label);
            }
            Ok(()) => {
                // Payload rot: lazy loading means open can't see it, so
                // the block CRC must refuse the read with a typed error
                // (never a panic) — or the flipped block is provably never
                // consulted and the ranking is exactly the sealed
                // generation's. Silently serving an altered vector is the
                // one forbidden outcome.
                match node.discover(&fx.query, 3) {
                    Ok(d) => assert_eq!(
                        d.candidates, fx.new_rank,
                        "{}: flipped payload served",
                        state.label
                    ),
                    Err(e) => {
                        assert!(matches!(e, StoreError::Backend(_)), "{}: {e}", state.label);
                        let resident = node.block_cache_stats().len;
                        assert!(resident < 2, "{}: the damaged block was cached", state.label);
                    }
                }
            }
        }
    }

    for d in [&fx.old_dir, &fx.new_dir, &dir] {
        std::fs::remove_dir_all(d).ok();
    }
}

// ---------------------------------------------------------------------
// A checkpoint over a cold block that no longer reads back (ISSUE 22).
// ---------------------------------------------------------------------

#[test]
fn a_checkpoint_over_an_unreadable_cold_block_fails_typed_and_the_daemon_keeps_ticking() {
    let fx = paged_generations("cold-ckpt");
    let dir = tmp_dir("cold-ckpt-live");
    let ckpt = Checkpointer::new(dir.join("snapshot.bin"));
    // A generation is already published (by a node that hydrated the same
    // snapshot, so the paged node's cache stays cold).
    let mut node = WarpGate::with_backend(fx.config, fx.connector.clone());
    node.load_from_file(paged_file(&fx.new_dir)).unwrap();
    ckpt.checkpoint(&node).unwrap();
    let published = std::fs::read(ckpt.path()).unwrap();
    node.load_paged(&fx.new_dir).unwrap();

    // One payload byte of the second block rots under the running node
    // (same inode it holds open); nothing has read the block yet.
    let file = paged_file(&fx.new_dir);
    let mut image = std::fs::read(&file).unwrap();
    image[warpgate::util::segment::PREAMBLE_LEN + 64 * 4 + 4 + 9] ^= 0x01;
    std::fs::write(&file, &image).unwrap();

    // The checkpoint must read every row: it fails, naming the block, and
    // the generation already on disk is untouched.
    let err = ckpt.checkpoint(&node).expect_err("a row that cannot be read cannot be saved");
    assert!(err.to_string().contains("block 1 checksum mismatch"), "{err}");
    assert_eq!(std::fs::read(ckpt.path()).unwrap(), published);
    assert!(!ckpt.previous_path().exists(), "nothing was rotated either");
    let err = node.save_to_file(dir.join("other.bin")).unwrap_err();
    assert!(err.to_string().contains("block 1"), "{err}");
    assert!(node.save_paged(dir.join("other-paged")).is_err());

    // Under a daemon the failure is a count, not the end of the loop.
    let daemon = SyncDaemon::spawn(
        Arc::new(node),
        SyncDaemonConfig::default()
            .with_interval(Duration::from_millis(2))
            .with_checkpoint(ckpt.path(), 1),
    );
    let r = wait_for(&daemon, |r| r.checkpoint_failures >= 1);
    assert_eq!(r.checkpoints_written, 0);
    assert!(r.last_error.as_deref().unwrap_or("").contains("block 1"), "{:?}", r.last_error);
    let syncs = r.syncs_ok;
    let r = wait_for(&daemon, |r| r.syncs_ok > syncs + 2);
    assert!(r.checkpoint_failures >= 2, "every tick tries again: {r:?}");
    drop(daemon);
    assert_eq!(std::fs::read(ckpt.path()).unwrap(), published);
    for d in [&fx.old_dir, &fx.new_dir, &dir] {
        std::fs::remove_dir_all(d).ok();
    }
}
