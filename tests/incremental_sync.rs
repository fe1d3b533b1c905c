//! Incremental-sync acceptance suite (ISSUE 3): after mutating 1 of 32
//! tables, `WarpGate::sync()` must re-embed only that table's columns —
//! proven through the CDW cost meter (bytes + requests) and the embed
//! counter — and the synced index must rank identically to a from-scratch
//! rebuild.

use std::sync::Arc;

use warpgate::prelude::*;

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
    let mut w = Warehouse::new("sync-acceptance");
    for t in 0..TABLES {
        w.database_mut(&format!("db{}", t % 4)).add_table(entity_table(t, COLUMNS_PER_TABLE));
    }
    w
}

fn mutated_table(generation: usize) -> Table {
    let cols: Vec<Column> = (0..COLUMNS_PER_TABLE)
        .map(|c| {
            Column::text(
                format!("col{c}"),
                (0..60).map(|r| format!("fresh {generation} {c} {r}")).collect::<Vec<_>>(),
            )
        })
        .collect();
    Table::new("t5", cols).unwrap()
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
