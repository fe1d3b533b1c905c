//! Incremental-sync acceptance suite: after mutating 1 of 32 tables,
//! `WarpGate::sync()` must re-embed only that table's columns — proven
//! through the CDW cost meter (bytes + requests) and the embed counter —
//! and the synced index must rank identically to a from-scratch rebuild.
//! A table installs whole (rows, removals and token together), and syncs
//! never overlap: overlapping callers, a checkpoint racing a sync and a
//! sync that fails part-way all leave a system that syncs back to a fresh
//! build's rankings.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use warpgate::prelude::*;
use warpgate::store::{CostSnapshot, StoreResult, TableVersion};

const TABLES: usize = 32;
const COLUMNS_PER_TABLE: usize = 3;

/// Table `t{t}` as [`warehouse`] builds it, cut to its first `columns`.
fn entity_table(t: usize, columns: usize) -> Table {
    let cols: Vec<Column> = (0..columns)
        .map(|c| {
            Column::text(
                format!("col{c}"),
                (0..60).map(|r| format!("entity {t} {c} {r}")).collect::<Vec<_>>(),
            )
        })
        .collect();
    Table::new(format!("t{t}"), cols).unwrap()
}

fn warehouse() -> Warehouse {
    warehouse_of(TABLES)
}

/// `tables` tables of [`COLUMNS_PER_TABLE`] text columns, spread over four
/// databases (`t5` lives in `db1`).
fn warehouse_of(tables: usize) -> Warehouse {
    let mut w = Warehouse::new("sync-acceptance");
    for t in 0..tables {
        w.database_mut(&format!("db{}", t % 4)).add_table(entity_table(t, COLUMNS_PER_TABLE));
    }
    w
}

fn mutated_table(generation: usize) -> Table {
    regenerated("t5", generation)
}

/// Table `name` with fresh content of one `generation`.
fn regenerated(name: &str, generation: usize) -> Table {
    let cols: Vec<Column> = (0..COLUMNS_PER_TABLE)
        .map(|c| {
            Column::text(
                format!("col{c}"),
                (0..60).map(|r| format!("fresh {generation} {c} {r}")).collect::<Vec<_>>(),
            )
        })
        .collect();
    Table::new(name, cols).unwrap()
}

#[test]
fn sync_after_mutating_1_of_32_tables_rescans_only_that_table() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let wg = WarpGate::with_backend(
        WarpGateConfig { threads: 2, ..Default::default() },
        connector.clone(),
    );
    let initial = wg.index_warehouse().unwrap();
    assert_eq!(initial.columns_indexed, TABLES * COLUMNS_PER_TABLE);

    // Mutate exactly one of the 32 tables.
    connector.warehouse_mut().database_mut("db1").add_table(mutated_table(1));

    // Expected scan bill for the change set: the mutated table's columns
    // under the system's own sample spec, measured on the same meter.
    connector.reset_costs();
    for c in 0..COLUMNS_PER_TABLE {
        connector
            .scan_column(&ColumnRef::new("db1", "t5", format!("col{c}")), wg.config().sample)
            .unwrap();
    }
    let expected = connector.costs();
    connector.reset_costs();

    let embeds_before = wg.embedder().embed_count();
    let report = wg.sync().unwrap();
    let billed = connector.costs();

    assert_eq!(report.tables_updated, 1);
    assert_eq!(report.tables_added, 0);
    assert_eq!(report.tables_removed, 0);
    assert_eq!(report.columns_indexed, COLUMNS_PER_TABLE);
    // CostMeter proof: exactly the mutated table's columns were scanned.
    assert_eq!(billed.requests, COLUMNS_PER_TABLE as u64);
    assert_eq!(
        billed.bytes_scanned, expected.bytes_scanned,
        "sync scanned more bytes than the changed table costs"
    );
    // Embed-counter proof: exactly those columns were re-embedded.
    assert_eq!(wg.embedder().embed_count() - embeds_before, COLUMNS_PER_TABLE as u64);
    assert_eq!(wg.len(), TABLES * COLUMNS_PER_TABLE, "sync must not grow or shrink the index");
}

#[test]
fn synced_rankings_match_a_from_scratch_rebuild() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();

    connector.warehouse_mut().database_mut("db1").add_table(mutated_table(2));
    wg.sync().unwrap();

    // A brand-new system over the mutated warehouse is ground truth.
    let fresh = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    fresh.index_warehouse().unwrap();

    // Compare rankings (ref + score) over a spread of queries, including
    // the mutated table itself.
    let mut queries = vec![
        ColumnRef::new("db1", "t5", "col0"),
        ColumnRef::new("db1", "t5", "col2"),
        ColumnRef::new("db0", "t0", "col0"),
        ColumnRef::new("db3", "t31", "col1"),
    ];
    queries.push(ColumnRef::new("db2", "t14", "col1"));
    for q in &queries {
        let synced: Vec<(ColumnRef, f32)> = wg
            .discover(q, 10)
            .unwrap()
            .candidates
            .into_iter()
            .map(|c| (c.reference, c.score))
            .collect();
        let rebuilt: Vec<(ColumnRef, f32)> = fresh
            .discover(q, 10)
            .unwrap()
            .candidates
            .into_iter()
            .map(|c| (c.reference, c.score))
            .collect();
        assert_eq!(synced, rebuilt, "sync diverged from a from-scratch rebuild on {q}");
    }
}

#[test]
fn repeated_syncs_converge_and_stay_cheap() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();

    for generation in 0..3 {
        connector.warehouse_mut().database_mut("db1").add_table(mutated_table(generation));
        let report = wg.sync().unwrap();
        assert_eq!(report.tables_updated, 1);
        assert_eq!(report.cost.requests, COLUMNS_PER_TABLE as u64);
        // Immediately syncing again is free: versions now match.
        let again = wg.sync().unwrap();
        assert!(again.is_noop(), "second sync must be a no-op: {again:?}");
        assert_eq!(again.cost.requests, 0);
    }
}

/// Building again after a table lost a column is a reconciliation like
/// any other: the dropped column leaves the index, so the system equals a
/// fresh build over the new warehouse — and the sync after it agrees.
#[test]
fn rebuilding_after_a_column_is_dropped_matches_a_fresh_build() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let config = WarpGateConfig { threads: 2, ..Default::default() };
    let wg = WarpGate::with_backend(config, connector.clone());
    wg.index_warehouse().unwrap();

    connector.warehouse_mut().database_mut("db1").add_table(entity_table(5, COLUMNS_PER_TABLE - 1));
    let rebuilt = wg.index_warehouse().unwrap();

    let fresh = WarpGate::with_backend(config, connector.clone());
    fresh.index_warehouse().unwrap();
    let same_as_fresh = |when: &str| {
        assert_eq!(wg.len(), fresh.len(), "{when}: the dropped column is still indexed");
        for q in connector.list_tables().unwrap().iter().flat_map(TableMeta::column_refs) {
            assert_eq!(
                wg.discover(&q, 10).unwrap().candidates,
                fresh.discover(&q, 10).unwrap().candidates,
                "{when}: {q} ranks differently than on a fresh build"
            );
        }
    };
    same_as_fresh("after the rebuild");
    assert_eq!(rebuilt.columns_indexed, COLUMNS_PER_TABLE - 1, "only the changed table re-scans");
    assert!(wg.sync().unwrap().is_noop());
    same_as_fresh("after the next sync");
}

#[test]
fn sync_tracks_churn_on_a_csv_backend() {
    // The same incremental story over the file-backed backend: editing one
    // CSV file re-indexes only that table.
    let root = std::env::temp_dir().join(format!("wg_sync_csv_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    CsvBackend::export_warehouse(&warehouse(), &root).unwrap();
    let backend: BackendHandle = Arc::new(CsvBackend::open(&root, CdwConfig::free()).unwrap());
    let wg = WarpGate::with_backend(WarpGateConfig::default(), backend.clone());
    wg.index_warehouse().unwrap();
    assert_eq!(wg.len(), TABLES * COLUMNS_PER_TABLE);

    // Overwrite one table's file; add a new one; delete a third.
    std::fs::write(
        root.join("db1").join("t5.csv"),
        "col0,col1\nalpha one,beta one\nalpha two,beta two\n",
    )
    .unwrap();
    std::fs::write(root.join("db0").join("brand_new.csv"), "fresh_col\nvalue a\nvalue b\n")
        .unwrap();
    std::fs::remove_file(root.join("db2").join("t2.csv")).unwrap();

    backend.reset_costs();
    let report = wg.sync().unwrap();
    assert_eq!(report.tables_updated, 1, "{report:?}");
    assert_eq!(report.tables_added, 1, "{report:?}");
    assert_eq!(report.tables_removed, 1, "{report:?}");
    // t5 shrank from 3 columns to 2 (one vanished) and t2's 3 dropped.
    assert_eq!(report.columns_removed, 1 + COLUMNS_PER_TABLE, "{report:?}");
    assert_eq!(report.columns_indexed, 2 + 1, "changed + new columns only");
    assert_eq!(report.cost.requests, 3, "only changed/new columns are billed");
    // 96 initial − 3 (deleted t2) − 1 (t5's vanished column) + 1 (new
    // table); t5's two surviving columns re-indexed in place.
    assert_eq!(wg.len(), TABLES * COLUMNS_PER_TABLE - COLUMNS_PER_TABLE - 1 + 1);
    std::fs::remove_dir_all(&root).ok();
}

/// Every column query of `connector`'s warehouse ranks on `wg` exactly as
/// on a fresh build over the same warehouse.
fn assert_ranks_like_a_fresh_build(wg: &WarpGate, connector: &Arc<CdwConnector>, when: &str) {
    let fresh = WarpGate::with_backend(*wg.config(), connector.clone());
    fresh.index_warehouse().unwrap();
    assert_eq!(wg.len(), fresh.len(), "{when}");
    for q in connector.list_tables().unwrap().iter().flat_map(TableMeta::column_refs) {
        assert_eq!(
            wg.discover(&q, 10).unwrap().candidates,
            fresh.discover(&q, 10).unwrap().candidates,
            "{when}: {q} ranks differently than on a fresh build"
        );
    }
}

/// Where a held scan waits: before it reads, or after it read (and before
/// its result is handed back).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Before,
    After,
}

/// One armed hold: the thread and scan it catches, and its two channels.
struct Hold {
    thread: &'static str,
    column: ColumnRef,
    stage: Stage,
    reached: Sender<()>,
    release: Receiver<()>,
}

/// Delegates to a connector, but holds a chosen scan on a chosen (named)
/// thread until the test releases it. Each hold catches one scan.
struct GatedBackend {
    inner: Arc<CdwConnector>,
    holds: Mutex<Vec<Hold>>,
}

impl GatedBackend {
    fn new(inner: Arc<CdwConnector>) -> Arc<Self> {
        Arc::new(Self { inner, holds: Mutex::default() })
    }

    /// Arm a hold of `column`'s scan on thread `thread`, at `stage`:
    /// returns `(reached, release)`.
    fn hold(
        &self,
        thread: &'static str,
        column: ColumnRef,
        stage: Stage,
    ) -> (Receiver<()>, Sender<()>) {
        let (reached, reached_rx) = mpsc::channel();
        let (release_tx, release) = mpsc::channel();
        self.holds.lock().unwrap().push(Hold { thread, column, stage, reached, release });
        (reached_rx, release_tx)
    }

    fn wait(&self, r: &ColumnRef, stage: Stage) {
        let hold = {
            let mut holds = self.holds.lock().unwrap();
            let thread = std::thread::current();
            let at = holds.iter().position(|h| {
                Some(h.thread) == thread.name() && &h.column == r && h.stage == stage
            });
            at.map(|at| holds.remove(at))
        };
        if let Some(hold) = hold {
            hold.reached.send(()).unwrap();
            hold.release.recv().unwrap();
        }
    }
}

impl WarehouseBackend for GatedBackend {
    fn name(&self) -> String {
        WarehouseBackend::name(self.inner.as_ref())
    }
    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.inner.list_tables()
    }
    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        WarehouseBackend::table_meta(self.inner.as_ref(), database, table)
    }
    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        self.inner.snapshot_versions()
    }
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        self.wait(r, Stage::Before);
        let scanned = self.inner.scan_column(r, sample);
        self.wait(r, Stage::After);
        scanned
    }
    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(Column, CostSnapshot, u64)> {
        self.wait(r, Stage::Before);
        let scanned = self.inner.scan_column_metered(r, sample);
        self.wait(r, Stage::After);
        scanned
    }
    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        self.inner.scan_table(database, table, sample)
    }
    fn costs(&self) -> CostSnapshot {
        self.inner.costs()
    }
    fn reset_costs(&self) {
        self.inner.reset_costs()
    }
}

/// Two syncs that overlap: `t5` goes A → B and sync S1 reads B's token and
/// scans `col0` (B); `t5` goes B → C and sync S2 starts. Were S2 let in, it
/// would install `col0` = C and be held before `col1`, and S1 would then
/// install `col0` = B over it and record B's token, S2 C's — the next sync
/// a no-op over a stale `col0`, for good (12 of 24 column queries ranked
/// differently). One sync at a time keeps S2 waiting until S1 is done, so
/// S2 re-scans the whole of `t5` and the next sync ranks like a fresh
/// build.
#[test]
fn overlapping_syncs_leave_no_stale_rows_under_a_current_token() {
    let connector = Arc::new(CdwConnector::new(warehouse_of(8), CdwConfig::free()));
    let gate = GatedBackend::new(connector.clone());
    let wg =
        WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, gate.clone());
    wg.index_warehouse().unwrap();
    let col = |c: usize| ColumnRef::new("db1", "t5", format!("col{c}"));
    let (s1_held, s1_release) = gate.hold("s1", col(0), Stage::After);
    let (s2_held, s2_release) = gate.hold("s2", col(1), Stage::Before);
    let t5 = |generation| {
        connector.warehouse_mut().database_mut("db1").add_table(mutated_table(generation))
    };
    std::thread::scope(|scope| {
        let sync = |name: &str| {
            let builder = std::thread::Builder::new().name(name.to_string());
            builder.spawn_scoped(scope, || wg.sync().unwrap()).unwrap()
        };
        t5(1);
        let s1 = sync("s1");
        s1_held.recv().unwrap();
        t5(2);
        let s2 = sync("s2");
        // Wait a while for S2 to reach its hold: only syncs that overlap do.
        let overlapped = s2_held.recv_timeout(Duration::from_secs(1)).is_ok();
        s1_release.send(()).unwrap();
        s1.join().unwrap();
        if !overlapped {
            s2_held.recv().unwrap();
        }
        s2_release.send(()).unwrap();
        s2.join().unwrap();
    });
    wg.sync().unwrap();
    assert_ranks_like_a_fresh_build(&wg, &connector, "after the overlapping syncs");
}

/// A table whose content moves while a sync scans it: `t5` goes to B, the
/// sync reads B's token and scans `col0` (B), `t5` goes to A and the sync
/// scans `col1` and `col2` (A), then `t5` goes back to B once the sync is
/// done. Tokens are content fingerprints, so the warehouse carries B's
/// token again: a sync that recorded it over the mixed rows would make
/// every later sync a no-op over two stale columns. `col1`'s scan says it
/// read A, so `t5` installs nothing — no column of it is counted — and the
/// next sync scans `t5` again.
#[test]
fn a_table_that_changes_during_its_scans_is_scanned_again_by_the_next_sync() {
    let connector = Arc::new(CdwConnector::new(warehouse_of(8), CdwConfig::free()));
    let gate = GatedBackend::new(connector.clone());
    let wg =
        WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, gate.clone());
    wg.index_warehouse().unwrap();
    let t5 = |generation| {
        connector.warehouse_mut().database_mut("db1").add_table(mutated_table(generation))
    };
    let (held, release) = gate.hold("sync", ColumnRef::new("db1", "t5", "col0"), Stage::After);
    t5(1);
    std::thread::scope(|scope| {
        let builder = std::thread::Builder::new().name("sync".into());
        let sync = builder.spawn_scoped(scope, || wg.sync().unwrap()).unwrap();
        held.recv().unwrap();
        t5(2);
        release.send(()).unwrap();
        let report = sync.join().unwrap();
        let columns = (report.columns_indexed, report.columns_skipped, report.columns_removed);
        assert_eq!(columns, (0, 0, 0), "t5 did not install: {report:?}");
    });
    t5(1);
    let next = wg.sync().unwrap();
    assert!(!next.is_noop(), "t5's mixed rows were recorded under B's token: {next:?}");
    assert_eq!(next.columns_indexed, COLUMNS_PER_TABLE, "{next:?}");
    assert_eq!((next.tables_added, next.tables_updated), (0, 1), "t5 is indexed: {next:?}");
    assert_ranks_like_a_fresh_build(&wg, &connector, "after the flip and the next sync");
}

/// A flip that falls wholly inside one table's scan window: `t5` goes to
/// B, the sync reads B's token and scans `col0` (B), `t5` goes to A and the
/// sync scans `col1` (A), `t5` goes back to B and the sync scans `col2`
/// (B). The warehouse carries B's token before the first scan and after the
/// last, so only a scan that says which version it read sees `col1`'s A.
/// Recording B's token over the mixed rows would make the next sync a
/// no-op over a stale `col1`.
#[test]
fn a_flip_inside_one_scan_window_is_scanned_again_by_the_next_sync() {
    let connector = Arc::new(CdwConnector::new(warehouse_of(8), CdwConfig::free()));
    let gate = GatedBackend::new(connector.clone());
    let wg =
        WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, gate.clone());
    wg.index_warehouse().unwrap();
    let t5 = |generation| {
        connector.warehouse_mut().database_mut("db1").add_table(mutated_table(generation))
    };
    let col = |c: usize| ColumnRef::new("db1", "t5", format!("col{c}"));
    let (col0_read, after_col0) = gate.hold("sync", col(0), Stage::After);
    let (col1_read, after_col1) = gate.hold("sync", col(1), Stage::After);
    t5(1);
    std::thread::scope(|scope| {
        let builder = std::thread::Builder::new().name("sync".into());
        let sync = builder.spawn_scoped(scope, || wg.sync().unwrap()).unwrap();
        col0_read.recv().unwrap();
        t5(2);
        after_col0.send(()).unwrap();
        col1_read.recv().unwrap();
        t5(1);
        after_col1.send(()).unwrap();
        sync.join().unwrap();
    });
    let next = wg.sync().unwrap();
    assert!(!next.is_noop(), "t5's mixed rows were recorded under B's token: {next:?}");
    assert_eq!(next.columns_indexed, COLUMNS_PER_TABLE, "{next:?}");
    assert_ranks_like_a_fresh_build(&wg, &connector, "after the in-window flip and the next sync");
}

/// A table that a flip during its scans left uninstalled keeps the rows
/// and token it had, and leaves the index when it is dropped. So does a
/// table whose rows a snapshot carries with no token — a checkpoint taken
/// after a re-attach and before any sync: a node recovered from it still
/// finds the table and drops its rows.
#[test]
fn a_dropped_table_leaves_the_index_after_a_mid_scan_flip_or_a_tokenless_restore() {
    let connector = Arc::new(CdwConnector::new(warehouse_of(8), CdwConfig::free()));
    let gate = GatedBackend::new(connector.clone());
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let wg = WarpGate::with_backend(config, gate.clone());
    wg.index_warehouse().unwrap();
    let t5 = |table| connector.warehouse_mut().database_mut("db1").add_table(table);
    let (held, release) = gate.hold("sync", ColumnRef::new("db1", "t5", "col0"), Stage::After);
    t5(mutated_table(1));
    std::thread::scope(|scope| {
        let builder = std::thread::Builder::new().name("sync".into());
        let sync = builder.spawn_scoped(scope, || wg.sync().unwrap()).unwrap();
        held.recv().unwrap();
        t5(mutated_table(2));
        release.send(()).unwrap();
        assert_eq!(sync.join().unwrap().columns_indexed, 0, "t5 did not install");
    });
    // Back to the content the index holds: its token was kept, and so were
    // its rows.
    t5(entity_table(5, COLUMNS_PER_TABLE));
    let back = wg.sync().unwrap();
    assert!(back.is_noop(), "t5 lost its token: {back:?}");
    assert_ranks_like_a_fresh_build(&wg, &connector, "after the flip");

    // A re-attach invalidates every token, so this snapshot carries none.
    wg.attach_named("default", gate.clone());
    let dir = std::env::temp_dir().join(format!("wg_sync_tokenless_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpointer = Checkpointer::new(dir.join("snapshot"));
    checkpointer.checkpoint(&wg).unwrap();
    connector.warehouse_mut().database_mut("db1").remove_table("t5").unwrap();

    let mut recovered = WarpGate::with_backend(config, connector.clone());
    checkpointer.recover(&mut recovered).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    for (node, when) in [(&wg, "live"), (&recovered, "recovered")] {
        let report = node.sync().unwrap();
        assert_eq!(report.tables_removed, 1, "{when}: {report:?}");
        assert_eq!(report.columns_removed, COLUMNS_PER_TABLE, "{when}: {report:?}");
        let values: Vec<String> = (0..60).map(|r| format!("entity 5 1 {r}")).collect();
        let found = node.discover_values(&values, 10, &DiscoverScope::All).unwrap();
        assert!(found.iter().all(|c| c.reference.table != "t5"), "{when}: {found:?}");
        assert_ranks_like_a_fresh_build(node, &connector, when);
    }
}

/// A checkpoint sealed while a sync is part-way through its change set: a
/// node recovered from it and synced must rank like a fresh build. Each
/// round, `t5` goes A → B and `t6` changes, a sync starts and is held
/// before one of its six scans (a different one each round), `t5` goes
/// back to A, and the checkpoint is taken. A checkpoint that holds some of
/// `t5`'s B rows under A's token would be a node whose sync never
/// re-scans `t5`.
#[test]
fn a_checkpoint_racing_an_a_b_a_flip_recovers_to_a_fresh_build() {
    const ROUNDS: usize = 60;
    let connector = Arc::new(CdwConnector::new(warehouse_of(8), CdwConfig::free()));
    let gate = GatedBackend::new(connector.clone());
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let wg = WarpGate::with_backend(config, gate.clone());
    wg.index_warehouse().unwrap();
    let dir = std::env::temp_dir().join(format!("wg_sync_checkpoint_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let checkpointer = Checkpointer::new(dir.join("snapshot"));
    let a = entity_table(5, COLUMNS_PER_TABLE);
    // The change set, in scan order: t5 (db1) comes before t6 (db2).
    let scans: Vec<ColumnRef> = ["t5", "t6"]
        .iter()
        .zip(["db1", "db2"])
        .flat_map(|(t, db)| {
            (0..COLUMNS_PER_TABLE).map(move |c| ColumnRef::new(db, *t, format!("col{c}")))
        })
        .collect();
    let mut stale = Vec::new();
    for round in 0..ROUNDS {
        let (held, release) = gate.hold("sync", scans[round % scans.len()].clone(), Stage::Before);
        connector.warehouse_mut().database_mut("db1").add_table(mutated_table(round));
        connector.warehouse_mut().database_mut("db2").add_table(regenerated("t6", round));
        std::thread::scope(|scope| {
            let builder = std::thread::Builder::new().name("sync".into());
            let sync = builder.spawn_scoped(scope, || wg.sync().unwrap()).unwrap();
            held.recv().unwrap();
            connector.warehouse_mut().database_mut("db1").add_table(a.clone());
            checkpointer.checkpoint(&wg).unwrap();
            release.send(()).unwrap();
            sync.join().unwrap();
        });
        let mut recovered = WarpGate::with_backend(config, connector.clone());
        checkpointer.recover(&mut recovered).unwrap();
        recovered.sync().unwrap();
        let fresh = WarpGate::with_backend(config, connector.clone());
        fresh.index_warehouse().unwrap();
        let differs =
            connector.list_tables().unwrap().iter().flat_map(TableMeta::column_refs).any(|q| {
                recovered.discover(&q, 10).unwrap().candidates
                    != fresh.discover(&q, 10).unwrap().candidates
            });
        if differs {
            stale.push(round);
        }
        // The live node ends the round where the warehouse is.
        wg.sync().unwrap();
    }
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        stale.is_empty(),
        "{} of {ROUNDS} recovered nodes stayed stale: rounds {stale:?}",
        stale.len()
    );
}

/// A sync that fails part-way keeps the tables it finished — each with its
/// rows and its token — so the next sync bills only the rest. At one
/// thread the first build's 24 scans are claimed six at a time, two tables
/// per claim, in catalog order (`t0 t4 | t1 t5 | t2 t6 | t3 t7`), and a
/// claim installs nothing until all of it is scanned. The 14th scan
/// (`t2.col1`) fails: `t0`, `t4`, `t1` and `t5` are installed, and the
/// retry scans exactly the 12 columns of `t2`, `t6`, `t3` and `t7`.
#[test]
fn a_failed_sync_keeps_the_tables_it_finished_and_the_retry_bills_only_the_rest() {
    let connector = Arc::new(CdwConnector::new(warehouse_of(8), CdwConfig::free()));
    let flaky = Arc::new(FaultInjector::new(connector.clone(), FaultPlan::fail_every(14)));
    let wg = WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, flaky);
    let err = wg.sync().unwrap_err();
    assert!(matches!(err, StoreError::Unavailable(_)), "{err}");
    assert_eq!(wg.len(), 4 * COLUMNS_PER_TABLE, "t0, t4, t1 and t5 are installed");

    connector.reset_costs();
    let report = wg.sync().unwrap();
    assert_eq!((report.tables_added, report.tables_updated), (4, 0), "{report:?}");
    assert_eq!(report.columns_indexed, 4 * COLUMNS_PER_TABLE, "{report:?}");
    assert_eq!(connector.costs().requests, 4 * COLUMNS_PER_TABLE as u64, "{report:?}");
    // A query scans its own column, and the injector would fail the 28th
    // scan: rank over the connector itself (an attach keeps the index).
    wg.attach_named("default", connector.clone());
    assert_ranks_like_a_fresh_build(&wg, &connector, "after the retry");
}
