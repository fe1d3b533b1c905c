//! Unit tests of the `WarpGate` facade: `system.rs`, `ingest.rs` and
//! `query.rs` over one small two-database warehouse.

use std::sync::mpsc;

use super::*;
use crate::admission::TenantId;
use crate::QueryOptions;
use wg_lsh::DiscoverScope;
use wg_store::{
    CdwConfig, CdwConnector, Column, CostSnapshot, Database, KeyNorm, SampleSpec, Table, TableRef,
    Warehouse, WarehouseBackend,
};
use wg_util::deadline::Deadline;

fn connector() -> Arc<CdwConnector> {
    let mut w = Warehouse::new("w");
    let mut sales = Database::new("salesforce");
    sales.add_table(
        Table::new(
            "account",
            vec![
                Column::text("name", (0..80).map(|i| format!("Company {i}")).collect::<Vec<_>>()),
                Column::ints("employees", (0..80).map(|i| i * 10).collect()),
            ],
        )
        .unwrap(),
    );
    sales.add_table(
        Table::new(
            "lead",
            vec![Column::text(
                "company",
                (0..60).map(|i| format!("company {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    let mut stocks = Database::new("stocks");
    stocks.add_table(
        Table::new(
            "industries",
            vec![
                Column::text(
                    "company_name",
                    (0..70).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
                ),
                Column::text(
                    "sector",
                    (0..70).map(|i| format!("Sector {}", i % 7)).collect::<Vec<_>>(),
                ),
            ],
        )
        .unwrap(),
    );
    stocks.add_table(
        Table::new(
            "prices",
            vec![Column::floats("close", (0..50).map(|i| 10.0 + i as f64).collect())],
        )
        .unwrap(),
    );
    w.add_database(sales);
    w.add_database(stocks);
    Arc::new(CdwConnector::new(w, CdwConfig::free()))
}

fn system() -> (WarpGate, Arc<CdwConnector>) {
    let c = connector();
    let wg = WarpGate::with_backend(WarpGateConfig { threads: 2, ..Default::default() }, c.clone());
    wg.index_warehouse().unwrap();
    (wg, c)
}

#[test]
fn indexes_all_embeddable_columns() {
    let (wg, _) = system();
    assert_eq!(wg.len(), 6);
}

#[test]
fn discovers_format_variants_across_databases() {
    let (wg, _c) = system();
    let q = ColumnRef::new("salesforce", "account", "name");
    let d = wg.discover(&q, 3).unwrap();
    assert!(!d.candidates.is_empty(), "no candidates found");
    let refs: Vec<String> = d.candidates.iter().map(|j| j.reference.to_string()).collect();
    assert!(
        refs.contains(&"stocks.industries.company_name".to_string()),
        "cross-database variant missed: {refs:?}"
    );
    assert!(
        refs.contains(&"salesforce.lead.company".to_string()),
        "same-database variant missed: {refs:?}"
    );
    assert!(d.candidates[0].score > 0.9);
}

#[test]
fn excludes_query_and_table_mates() {
    let (wg, _c) = system();
    let q = ColumnRef::new("salesforce", "account", "name");
    let d = wg.discover(&q, 10).unwrap();
    for j in &d.candidates {
        assert_ne!(j.reference, q);
        assert!(!j.reference.same_table(&q));
    }
}

#[test]
fn timing_components_populated() {
    let (wg, _c) = system();
    let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 3).unwrap();
    assert!(d.timing.load_secs > 0.0);
    assert!(d.timing.embed_secs > 0.0);
    assert!(d.timing.lookup_secs > 0.0);
    assert!(d.timing.total_secs() < 5.0, "unexpectedly slow");
    assert_eq!(d.timing.backend, Some(BackendId::DEFAULT), "scan bills the query's namespace");
}

#[test]
fn sampling_preserves_results() {
    let c = connector();
    let full = WarpGate::with_backend(WarpGateConfig::full_scan(), c.clone());
    full.index_warehouse().unwrap();
    let sampled = WarpGate::with_backend(
        WarpGateConfig::default().with_sample(SampleSpec::DistinctReservoir { n: 10, seed: 7 }),
        c.clone(),
    );
    sampled.index_warehouse().unwrap();
    let q = ColumnRef::new("salesforce", "account", "name");
    // Both company-name variants are genuinely joinable; with a sample
    // of 10 values their ranks may swap (the paper reports ±1–2%
    // effectiveness variation). The sampled top hit must still be one
    // of the full-scan top hits.
    let full_top: Vec<ColumnRef> =
        full.discover(&q, 2).unwrap().candidates.into_iter().map(|j| j.reference).collect();
    let top_sampled = sampled.discover(&q, 1).unwrap().candidates[0].reference.clone();
    assert!(
        full_top.contains(&top_sampled),
        "sampled top hit {top_sampled} not among full-scan top-2 {full_top:?}"
    );
}

#[test]
fn incremental_add_and_remove() {
    let (wg, c) = system();
    let before = wg.len();
    c.warehouse_mut().database_mut("stocks").add_table(
        Table::new("tickers", vec![Column::text("symbol", ["AAPL", "MSFT", "GOOG"])]).unwrap(),
    );
    wg.index_table(&TableRef::new("stocks", "tickers")).unwrap();
    assert_eq!(wg.len(), before + 1);
    assert_eq!(wg.remove_table(&TableRef::new("stocks", "tickers")), 1);
    assert_eq!(wg.len(), before);
    // Removed table never comes back in results.
    let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 10).unwrap();
    assert!(d.candidates.iter().all(|j| j.reference.table != "tickers"));
}

#[test]
fn reindexing_a_table_replaces_vectors() {
    let (wg, c) = system();
    let before = wg.len();
    // Refresh the lead table with new content.
    c.warehouse_mut().database_mut("salesforce").add_table(
        Table::new(
            "lead",
            vec![Column::text(
                "company",
                (0..30).map(|i| format!("Fresh {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    wg.index_table(&TableRef::new("salesforce", "lead")).unwrap();
    assert_eq!(wg.len(), before, "refresh must not grow the index");
}

#[test]
fn discover_values_ad_hoc() {
    let (wg, _) = system();
    let hits = wg.discover_values(&["Company 1", "Company 2", "Company 3"], 3, &DiscoverScope::All);
    assert!(!hits.is_empty());
    // Should surface one of the company-name columns.
    assert!(
        hits[0].reference.column.contains("name") || hits[0].reference.column.contains("company")
    );
}

#[test]
fn augment_via_lookup_adds_sector() {
    let (wg, c) = system();
    let base = c.warehouse().table("salesforce", "account").unwrap().clone();
    let candidate = ColumnRef::new("stocks", "industries", "company_name");
    let augmented =
        wg.augment_via_lookup(&base, "name", &candidate, &["sector"], KeyNorm::CaseFold).unwrap();
    assert_eq!(augmented.num_rows(), base.num_rows());
    let sector = augmented.column("sector").unwrap();
    // Rows 0..70 match (case-folded), the rest are NULL.
    assert!(!sector.get(0).is_null());
    assert!(sector.get(75).is_null());
}

#[test]
fn joinability_is_symmetric_and_high_for_variants() {
    let (wg, _c) = system();
    let a = ColumnRef::new("salesforce", "account", "name");
    let b = ColumnRef::new("stocks", "industries", "company_name");
    let ab = wg.joinability(&a, &b, &QueryOptions::default()).unwrap();
    let ba = wg.joinability(&b, &a, &QueryOptions::default()).unwrap();
    assert!((ab - ba).abs() < 1e-6);
    assert!(ab > 0.8, "joinability {ab}");
}

#[test]
fn unknown_query_errors() {
    let (wg, _c) = system();
    assert!(matches!(
        wg.discover(&ColumnRef::new("nope", "t", "c"), 3),
        Err(StoreError::NotFound(_))
    ));
}

#[test]
fn detached_system_errors_cleanly() {
    let (wg, c) = system();
    let q = ColumnRef::new("salesforce", "account", "name");
    let handle = wg.detach_named(wg_util::names::DEFAULT_NAME).expect("was attached");
    assert!(matches!(wg.discover(&q, 3), Err(StoreError::Backend(_))));
    assert!(matches!(wg.index_warehouse(), Err(StoreError::Backend(_))));
    assert!(matches!(wg.sync(), Err(StoreError::Backend(_))));
    // The in-memory index still answers ad-hoc value queries.
    assert!(!wg.discover_values(&["Company 1", "Company 2"], 3, &DiscoverScope::All).is_empty());
    // Re-attach restores full service.
    wg.attach_named(wg_util::names::DEFAULT_NAME, handle);
    assert!(wg.discover(&q, 3).is_ok());
    drop(c);
}

#[test]
fn contextual_embeddings_separate_identical_value_sets() {
    // Two candidate tables hold the SAME city values; the query comes
    // from a shipping context. With value-only embeddings the two
    // candidates tie; with §5.2.1 context the shipping-flavored table
    // must win.
    let mut w = Warehouse::new("w");
    let cities: Vec<String> = (0..40).map(|i| format!("City Number {i}")).collect();
    w.database_mut("ops").add_table(
        Table::new(
            "shipments",
            vec![
                Column::text("ship_city", cities.clone()),
                Column::floats("weight", (0..40).map(|i| i as f64).collect()),
            ],
        )
        .unwrap(),
    );
    w.database_mut("logistics").add_table(
        Table::new(
            "delivery_routes",
            vec![
                Column::text("shipping_city", cities.clone()),
                Column::floats("route_weight", (0..40).map(|i| i as f64).collect()),
            ],
        )
        .unwrap(),
    );
    w.database_mut("billing").add_table(
        Table::new(
            "invoices",
            vec![
                Column::text("billing_city", cities.clone()),
                Column::floats("amount_due", (0..40).map(|i| i as f64).collect()),
            ],
        )
        .unwrap(),
    );
    let c = Arc::new(CdwConnector::new(w, wg_store::CdwConfig::free()));
    let wg = WarpGate::with_backend(WarpGateConfig::default().with_context(0.25), c);
    wg.index_warehouse().unwrap();
    let q = ColumnRef::new("ops", "shipments", "ship_city");
    let d = wg.discover(&q, 2).unwrap();
    assert_eq!(
        d.candidates[0].reference,
        ColumnRef::new("logistics", "delivery_routes", "shipping_city"),
        "context should prefer the shipping-flavored table: {:?}",
        d.candidates
    );
}

#[test]
fn warm_cache_skips_scan_and_embed() {
    let (wg, _c) = system();
    let q = ColumnRef::new("salesforce", "account", "name");
    let cold = wg.discover(&q, 3).unwrap();
    assert!(!cold.timing.cache_hit);
    assert!(cold.timing.load_secs > 0.0);
    assert!(cold.timing.embed_secs > 0.0);

    let warm = wg.discover(&q, 3).unwrap();
    assert!(warm.timing.cache_hit, "second identical query must hit the cache");
    assert_eq!(warm.timing.load_secs, 0.0, "warm query must not scan");
    assert_eq!(warm.timing.embed_secs, 0.0, "warm query must not embed");
    assert_eq!(warm.timing.virtual_load_secs, 0.0, "warm query must not touch the CDW");
    assert_eq!(warm.candidates, cold.candidates, "cache must not change results");
    let stats = wg.cache_stats();
    assert!(stats.hits >= 1 && stats.misses >= 1);
}

#[test]
fn cache_disabled_by_zero_capacity() {
    let c = connector();
    let wg = WarpGate::with_backend(WarpGateConfig::default().with_cache_capacity(0), c);
    wg.index_warehouse().unwrap();
    let q = ColumnRef::new("salesforce", "account", "name");
    wg.discover(&q, 3).unwrap();
    let again = wg.discover(&q, 3).unwrap();
    assert!(!again.timing.cache_hit);
    assert!(again.timing.load_secs > 0.0, "disabled cache must re-scan");
}

#[test]
fn reindex_invalidates_cached_query_embedding() {
    let (wg, c) = system();
    let q = ColumnRef::new("salesforce", "lead", "company");
    let before = wg.discover(&q, 3).unwrap();
    assert!(wg.discover(&q, 3).unwrap().timing.cache_hit);

    // Replace the lead table's content; re-index must evict the stale
    // query embedding so discovery sees the new values.
    c.warehouse_mut().database_mut("salesforce").add_table(
        Table::new(
            "lead",
            vec![Column::text(
                "company",
                (0..30).map(|i| format!("Zebra {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    wg.index_table(&TableRef::new("salesforce", "lead")).unwrap();
    let after = wg.discover(&q, 3).unwrap();
    assert!(!after.timing.cache_hit, "re-index must evict the cached embedding");
    assert_ne!(before.candidates, after.candidates, "new column content must change discovery");
}

#[test]
fn remove_table_evicts_cached_embeddings() {
    let (wg, _c) = system();
    let q = ColumnRef::new("stocks", "industries", "company_name");
    wg.discover(&q, 3).unwrap();
    assert!(wg.discover(&q, 3).unwrap().timing.cache_hit);
    wg.remove_table(&TableRef::new("stocks", "industries"));
    // The warehouse still holds the table, so the query itself works —
    // but its embedding must be freshly computed.
    let d = wg.discover(&q, 3).unwrap();
    assert!(!d.timing.cache_hit, "remove_table must evict cache entries");
}

#[test]
fn discover_batch_matches_sequential_discover() {
    let (wg, _c) = system();
    let queries = vec![
        ColumnRef::new("salesforce", "account", "name"),
        ColumnRef::new("salesforce", "lead", "company"),
        ColumnRef::new("stocks", "industries", "company_name"),
        ColumnRef::new("salesforce", "account", "name"), // repeat → cache
    ];
    let sequential: Vec<_> =
        queries.iter().map(|q| wg.discover(q, 4).unwrap().candidates).collect();
    let batch = wg.discover_batch(&queries, 4, &QueryOptions::default()).unwrap();
    assert_eq!(batch.len(), queries.len());
    for (i, d) in batch.iter().enumerate() {
        assert_eq!(d.query, queries[i], "results must come back in input order");
        assert_eq!(d.candidates, sequential[i], "batch diverges on query {i}");
        assert!(d.timing.cache_hit, "batch after sequential must be fully cached");
    }
}

#[test]
fn discover_batch_cold_and_single_threaded() {
    let c = connector();
    let wg = WarpGate::with_backend(
        WarpGateConfig { threads: 1, cache_capacity: 0, ..Default::default() },
        c,
    );
    wg.index_warehouse().unwrap();
    let queries = vec![
        ColumnRef::new("salesforce", "account", "name"),
        ColumnRef::new("stocks", "industries", "company_name"),
    ];
    let batch = wg.discover_batch(&queries, 3, &QueryOptions::default()).unwrap();
    assert_eq!(batch.len(), 2);
    assert!(batch.iter().all(|d| !d.candidates.is_empty()));
}

#[test]
fn discover_batch_rejects_unknown_query_upfront() {
    let (wg, c) = system();
    let cost_before = c.costs();
    // The invalid ref sits in the MIDDLE of otherwise valid queries:
    // validation must reject the whole batch before any scan is billed.
    let queries = vec![
        ColumnRef::new("salesforce", "account", "name"),
        ColumnRef::new("nope", "t", "c"),
        ColumnRef::new("stocks", "industries", "company_name"),
    ];
    assert!(matches!(
        wg.discover_batch(&queries, 3, &QueryOptions::default()),
        Err(StoreError::NotFound(_))
    ));
    assert_eq!(
        c.costs().since(&cost_before).requests,
        0,
        "validation must reject the batch before any scan is billed"
    );
}

#[test]
fn index_report_counts() {
    let c = connector();
    let wg = WarpGate::with_backend(WarpGateConfig::default(), c);
    let report = wg.index_warehouse().unwrap();
    assert_eq!(report.columns_indexed, 6);
    assert_eq!(report.columns_skipped, 0);
    assert!(report.cost.requests >= 6);
    assert!(report.elapsed_secs > 0.0);
}

#[test]
fn sync_on_unchanged_warehouse_is_a_noop() {
    let (wg, c) = system();
    c.reset_costs();
    let report = wg.sync().unwrap();
    assert!(report.is_noop(), "nothing changed: {report:?}");
    assert_eq!(report.columns_indexed, 0);
    assert_eq!(report.cost.requests, 0, "a no-op sync must not scan anything");
}

#[test]
fn sync_reindexes_only_the_changed_table() {
    let (wg, c) = system();
    // Warm a cache entry on an untouched table to prove it survives.
    let untouched = ColumnRef::new("stocks", "industries", "company_name");
    wg.discover(&untouched, 3).unwrap();
    assert!(wg.discover(&untouched, 3).unwrap().timing.cache_hit);

    c.warehouse_mut().database_mut("salesforce").add_table(
        Table::new(
            "lead",
            vec![Column::text(
                "company",
                (0..45).map(|i| format!("Updated {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    c.reset_costs();
    let embeds_before = wg.embedder().embed_count();
    let report = wg.sync().unwrap();
    assert_eq!(report.tables_updated, 1);
    assert_eq!(report.tables_added, 0);
    assert_eq!(report.tables_removed, 0);
    assert_eq!(report.columns_indexed, 1, "lead has one column");
    assert_eq!(report.cost.requests, 1, "only the changed column scans");
    assert_eq!(wg.embedder().embed_count() - embeds_before, 1, "only the changed column re-embeds");
    // The untouched table's cache entry stayed warm.
    assert!(
        wg.discover(&untouched, 3).unwrap().timing.cache_hit,
        "sync must not evict cache entries of unchanged tables"
    );
    // Discovery sees the new content.
    let q = ColumnRef::new("salesforce", "lead", "company");
    let d = wg.discover(&q, 3).unwrap();
    assert!(!d.timing.cache_hit, "changed table's cached embedding must be evicted");
}

#[test]
fn sync_adds_and_removes_tables() {
    let (wg, c) = system();
    let before = wg.len();
    {
        let mut w = c.warehouse_mut();
        w.database_mut("stocks").add_table(
            Table::new("tickers", vec![Column::text("symbol", ["AAPL", "MSFT", "GOOG"])]).unwrap(),
        );
        w.database_mut("salesforce").remove_table("lead");
    }
    let report = wg.sync().unwrap();
    assert_eq!(report.tables_added, 1);
    assert_eq!(report.tables_removed, 1);
    assert_eq!(report.tables_updated, 0);
    assert_eq!(report.columns_indexed, 1);
    assert_eq!(report.columns_removed, 1);
    assert_eq!(wg.len(), before, "one column in, one column out");
    // The vanished table never resurfaces; the new one ranks.
    let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 10).unwrap();
    assert!(d.candidates.iter().all(|j| j.reference.table != "lead"));
    let hits = wg.discover_values(&["AAPL", "MSFT"], 3, &DiscoverScope::All);
    assert!(hits.iter().any(|h| h.reference.table == "tickers"));
}

#[test]
fn sync_drops_vanished_columns_of_changed_tables() {
    let (wg, c) = system();
    // Replace the two-column account table with a one-column version.
    c.warehouse_mut().database_mut("salesforce").add_table(
        Table::new(
            "account",
            vec![Column::text("name", (0..80).map(|i| format!("Company {i}")).collect::<Vec<_>>())],
        )
        .unwrap(),
    );
    let before = wg.len();
    let report = wg.sync().unwrap();
    assert_eq!(report.tables_updated, 1);
    assert_eq!(report.columns_removed, 1, "the employees column vanished");
    assert_eq!(report.columns_indexed, 1, "the surviving column re-indexed");
    assert_eq!(wg.len(), before - 1);
    // The vanished column never comes back in results.
    let d = wg.discover(&ColumnRef::new("stocks", "prices", "close"), 10).unwrap();
    assert!(d.candidates.iter().all(|j| j.reference.column != "employees"));
}

/// A column that stops being embeddable must not keep its old vector: after
/// `refresh` (which returns how many columns it reported skipped), the
/// system must be indistinguishable from one built from scratch over the
/// same warehouse.
fn unembeddable_column_drops_out(refresh: impl Fn(&WarpGate) -> usize) {
    let (wg, c) = system();
    assert_eq!(wg.len(), 6);
    c.warehouse_mut()
        .database_mut("salesforce")
        .add_table(Table::new("lead", vec![Column::text("company", vec!["---"; 45])]).unwrap());
    assert_eq!(refresh(&wg), 1, "the column counts as skipped, as a fresh build counts it");

    let fresh = WarpGate::with_backend(*wg.config(), c.clone());
    let built = fresh.index_warehouse().unwrap();
    assert_eq!((built.columns_indexed, built.columns_skipped), (5, 1));
    assert_eq!(wg.len(), fresh.len(), "the stale row must be gone");
    for q in c.list_tables().unwrap().iter().flat_map(TableMeta::column_refs) {
        assert_eq!(
            wg.discover(&q, 10).unwrap().candidates,
            fresh.discover(&q, 10).unwrap().candidates,
            "{q} ranks differently than on a from-scratch build"
        );
    }
}

#[test]
fn sync_drops_a_column_that_no_longer_embeds() {
    unembeddable_column_drops_out(|wg| {
        let before = wg.len();
        let report = wg.sync().unwrap();
        assert_eq!((report.tables_updated, report.columns_indexed), (1, 0), "{report:?}");
        assert_eq!(report.columns_removed, 1, "{report:?}");
        assert_eq!(wg.len(), before - report.columns_removed);
        report.columns_skipped
    });
}

#[test]
fn index_table_drops_a_column_that_no_longer_embeds() {
    unembeddable_column_drops_out(|wg| {
        let report = wg.index_table(&TableRef::new("salesforce", "lead")).unwrap();
        assert_eq!(report.columns_indexed, 0);
        report.columns_skipped
    });
}

/// A minimal third-party backend: delegates to a CdwConnector but can
/// be switched into a failing mode — proof the trait is implementable
/// outside `wg_store`, and a handle on mid-run failures.
struct TogglableBackend {
    inner: Arc<CdwConnector>,
    fail: std::sync::atomic::AtomicBool,
}

impl WarehouseBackend for TogglableBackend {
    fn name(&self) -> String {
        format!("togglable:{}", WarehouseBackend::name(self.inner.as_ref()))
    }
    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.inner.list_tables()
    }
    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        WarehouseBackend::table_meta(self.inner.as_ref(), database, table)
    }
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<wg_store::Column> {
        if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(StoreError::Backend("togglable backend is down".into()));
        }
        self.inner.scan_column(r, sample)
    }
    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(StoreError::Backend("togglable backend is down".into()));
        }
        self.inner.scan_table(database, table, sample)
    }
    fn costs(&self) -> CostSnapshot {
        self.inner.costs()
    }
    fn reset_costs(&self) {
        self.inner.reset_costs()
    }
}

/// Counts `table_meta` calls, by table, on their way to a connector.
struct MetaCountingBackend {
    inner: Arc<CdwConnector>,
    table_meta_calls: parking_lot::Mutex<Vec<(String, String)>>,
}

impl WarehouseBackend for MetaCountingBackend {
    fn name(&self) -> String {
        WarehouseBackend::name(self.inner.as_ref())
    }
    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.inner.list_tables()
    }
    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        self.table_meta_calls.lock().push((database.to_string(), table.to_string()));
        WarehouseBackend::table_meta(self.inner.as_ref(), database, table)
    }
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<wg_store::Column> {
        self.inner.scan_column(r, sample)
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

#[test]
fn indexing_with_schema_context_asks_for_metadata_once_per_table() {
    let config = WarpGateConfig { threads: 2, ..Default::default() }.with_context(0.2);
    let build = |run: &dyn Fn(&WarpGate)| {
        let backend = Arc::new(MetaCountingBackend {
            inner: connector(),
            table_meta_calls: Default::default(),
        });
        let wg = WarpGate::with_backend(config, backend.clone());
        run(&wg);
        let mut calls = std::mem::take(&mut *backend.table_meta_calls.lock());
        let asked = calls.len();
        calls.sort();
        calls.dedup();
        assert_eq!(asked, calls.len(), "a table was asked for twice: {calls:?}");
        (wg, backend)
    };
    // `sync` fetches each new table's metadata itself; a full build has
    // it from the listing and asks for none.
    let (wg, backend) = build(&|wg| assert_eq!(wg.index_warehouse().unwrap().columns_indexed, 6));
    build(&|wg| assert_eq!(wg.sync().unwrap().columns_indexed, 6));

    // Every row is what embedding that column on its own gives: its
    // values blended with a context read from its own metadata call.
    let model = wg.embedder().model().as_ref();
    let state = wg.state.read();
    for (id, r) in state.registry.entries() {
        let column = backend.inner.scan_column(r, config.sample).unwrap();
        let meta = WarehouseBackend::table_meta(backend.inner.as_ref(), &r.database, &r.table);
        let context = wg_embed::ColumnContext {
            column_name: r.column.clone(),
            table_name: r.table.clone(),
            siblings: meta.unwrap().columns.into_iter().filter(|n| n != &r.column).collect(),
        };
        let want = wg_embed::blend_context(
            &wg.embedder().embed_column(&column),
            &wg_embed::context_vector(model, &context),
            0.2,
        );
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(state.index.vector(id).unwrap()), bits(&want.0), "{r}");
    }
}

#[test]
fn failed_index_run_records_nothing_so_sync_retries() {
    let inner = connector();
    let toggle =
        Arc::new(TogglableBackend { inner, fail: std::sync::atomic::AtomicBool::new(true) });
    let wg =
        WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, toggle.clone());
    assert!(matches!(wg.index_warehouse(), Err(StoreError::Backend(_))));
    assert_eq!(wg.len(), 0);

    // The backend comes back; the failed run must not have recorded
    // any versions, so sync (same epoch, same backend) indexes all.
    toggle.fail.store(false, std::sync::atomic::Ordering::Relaxed);
    let report = wg.sync().unwrap();
    assert_eq!(report.columns_indexed, 6, "sync must retry everything: {report:?}");
    assert_eq!(wg.len(), 6);
}

#[test]
fn attach_swaps_backends_and_sync_reconciles() {
    let (wg, _old) = system();
    assert_eq!(wg.len(), 6);
    // A different backend: one table survives by name (with different
    // content), the rest vanish, one is new.
    let mut w = Warehouse::new("w2");
    w.database_mut("salesforce").add_table(
        Table::new(
            "account",
            vec![Column::text(
                "name",
                (0..20).map(|i| format!("Fresh Co {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w.database_mut("hr").add_table(
        Table::new(
            "people",
            vec![Column::text(
                "full_name",
                (0..20).map(|i| format!("Person {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    let fresh = Arc::new(CdwConnector::new(w, CdwConfig::free()));
    wg.attach_named(wg_util::names::DEFAULT_NAME, fresh);
    let report = wg.sync().unwrap();
    // Everything the new backend serves was re-scanned (epoch bump),
    // and the three old tables dropped.
    assert_eq!(report.tables_removed, 3);
    assert_eq!(report.tables_added + report.tables_updated, 2);
    assert_eq!(wg.len(), 2);
    let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 10).unwrap();
    assert!(d.candidates.iter().all(|j| j.reference.database != "stocks"));
}

// ── Federation ────────────────────────────────────────────────────

/// A second warehouse whose tables hold format variants of the default
/// connector's company names, so cross-namespace discovery has real
/// joins to find.
fn lake_connector() -> Arc<CdwConnector> {
    let mut w = Warehouse::new("lake");
    w.database_mut("raw").add_table(
        Table::new(
            "exports",
            vec![Column::text(
                "company",
                (0..50).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    Arc::new(CdwConnector::new(w, CdwConfig::free()))
}

#[test]
fn named_attach_indexes_into_its_own_namespace() {
    let (wg, _c) = system();
    let lake = wg.attach_named("system-test-lake", lake_connector());
    assert!(!lake.is_default());
    assert_eq!(wg.attached_backends().len(), 2);
    let before = wg.len();
    wg.sync().unwrap();
    assert_eq!(wg.len(), before + 1, "the lake's one column joined the index");

    // Cross-namespace discovery: the default CDW's query column finds
    // the lake's format variant.
    let q = ColumnRef::new("salesforce", "account", "name");
    let d = wg.discover(&q, 10).unwrap();
    let lake_ref = ColumnRef::scoped(lake, "raw", "exports", "company");
    assert!(
        d.candidates.iter().any(|j| j.reference == lake_ref),
        "lake variant missing from {:?}",
        d.candidates
    );

    // Scoping to the lake returns only lake candidates; excluding it
    // returns none of them.
    let only = wg
        .discover_with(&q, 10, &QueryOptions::scoped(DiscoverScope::include([lake.bits()])))
        .unwrap();
    assert!(!only.candidates.is_empty());
    assert!(only.candidates.iter().all(|j| j.reference.backend == lake));
    let none = wg
        .discover_with(&q, 10, &QueryOptions::scoped(DiscoverScope::exclude([lake.bits()])))
        .unwrap();
    assert!(none.candidates.iter().all(|j| j.reference.backend != lake));
}

#[test]
fn sync_backend_touches_only_its_namespace() {
    let (wg, c) = system();
    let lake_c = lake_connector();
    let lake = wg.attach_named("system-test-lake2", lake_c.clone());
    wg.sync().unwrap();

    // Mutate BOTH warehouses, then sync only the lake.
    c.warehouse_mut()
        .database_mut("salesforce")
        .add_table(Table::new("fresh", vec![Column::text("x", ["a", "b", "c"])]).unwrap());
    lake_c.warehouse_mut().database_mut("raw").add_table(
        Table::new(
            "exports",
            vec![Column::text(
                "company",
                (0..40).map(|i| format!("Updated Co {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    c.reset_costs();
    lake_c.reset_costs();
    let report = wg.sync_with(Some(lake), Deadline::none()).unwrap();
    assert_eq!(report.tables_updated, 1);
    assert_eq!(c.costs().requests, 0, "the default CDW must not be scanned");
    assert!(lake_c.costs().requests >= 1, "the lake re-scans its changed table");

    // The default namespace's pending change is still there for its
    // own sync.
    let rest = wg.sync().unwrap();
    assert_eq!(rest.tables_added, 1, "the CDW's new table syncs separately: {rest:?}");
}

#[test]
fn per_backend_sync_slices_attribute_costs() {
    let wg = WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() });
    let cdw = wg.attach_named("system-test-slice-cdw", connector());
    let lake = wg.attach_named("system-test-slice-lake", lake_connector());
    let report = wg.sync().unwrap();
    assert_eq!(report.per_backend.len(), 2);
    let slice_of =
        |id: BackendId| report.per_backend.iter().find(|(b, _)| *b == id).map(|(_, r)| r).unwrap();
    assert_eq!(slice_of(cdw).columns_indexed, 6);
    assert_eq!(slice_of(lake).columns_indexed, 1);
    assert!(slice_of(cdw).cost.requests >= 6);
    assert!(slice_of(lake).cost.requests >= 1);
    assert_eq!(
        report.columns_indexed,
        report.per_backend.iter().map(|(_, r)| r.columns_indexed).sum::<usize>()
    );
}

#[test]
fn detach_named_evicts_cache_and_tokens_for_reattach() {
    let wg = WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() });
    let lake = wg.attach_named("system-test-swap", lake_connector());
    wg.sync().unwrap();
    let q = ColumnRef::scoped(lake, "raw", "exports", "company");
    wg.discover(&q, 3).unwrap();
    assert!(wg.discover(&q, 3).unwrap().timing.cache_hit);

    let detached = wg.detach_named("system-test-swap");
    assert!(detached.is_some());
    assert!(matches!(wg.discover(&q, 3), Err(StoreError::Backend(_))));

    // A *different* warehouse re-attaches under the same name: same
    // table name, different content. Nothing stale may survive.
    let mut w = Warehouse::new("lake2");
    w.database_mut("raw").add_table(
        Table::new(
            "exports",
            vec![Column::text(
                "company",
                (0..30).map(|i| format!("Other {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    let id2 =
        wg.attach_named("system-test-swap", Arc::new(CdwConnector::new(w, CdwConfig::free())));
    assert_eq!(id2, lake, "a name keeps its namespace across re-attach");
    let report = wg.sync().unwrap();
    assert_eq!(
        report.tables_updated + report.tables_added,
        1,
        "epoch bump forces the re-attached table to re-scan: {report:?}"
    );
    let d = wg.discover(&q, 3).unwrap();
    assert!(!d.timing.cache_hit, "the old warehouse's embedding must not serve the new one");
}

#[test]
fn racing_attach_discards_in_flight_sync_tokens() {
    // The epoch guard: a sync captures its epoch, scans the OLD
    // backend, and tries to commit tokens after attach_named swapped
    // in a NEW backend. The commit must be discarded — otherwise the
    // next sync would treat the old backend's versions as current and
    // skip re-scanning the new backend's content.
    let wg = WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() });
    let id = wg.attach_named("system-test-race", lake_connector());
    let stale = wg.resolve(id).unwrap();
    let metas = stale.backend.list_tables().unwrap();

    // The swap lands while the (simulated) sync run is in flight.
    wg.attach_named("system-test-race", lake_connector());
    wg.record_synced(&stale, &metas);
    assert!(
        wg.state.read().namespaces[&id].tables.is_empty(),
        "stale-epoch token commit must be discarded"
    );

    // And the very next sync re-scans everything the new backend serves.
    let report = wg.sync_with(Some(id), Deadline::none()).unwrap();
    assert_eq!(report.tables_added + report.tables_updated, 1, "{report:?}");
}

/// Parks the first scan, under either scan method, after it has read its
/// rows, until the test releases it.
struct ParkingBackend {
    inner: Arc<CdwConnector>,
    /// `(scanned, release)`, taken by the scan that parks.
    park: parking_lot::Mutex<Option<(mpsc::Sender<()>, mpsc::Receiver<()>)>>,
}

impl ParkingBackend {
    fn new(inner: Arc<CdwConnector>) -> Arc<Self> {
        Arc::new(Self { inner, park: Default::default() })
    }

    /// Arm the park: returns `(scanned, release)`.
    fn arm(&self) -> (mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (done, scanned) = mpsc::channel();
        let (release, parked) = mpsc::channel();
        *self.park.lock() = Some((done, parked));
        (scanned, release)
    }

    fn park(&self) {
        let park = self.park.lock().take();
        if let Some((done, release)) = park {
            done.send(()).unwrap();
            release.recv().unwrap();
        }
    }
}

impl WarehouseBackend for ParkingBackend {
    fn name(&self) -> String {
        WarehouseBackend::name(self.inner.as_ref())
    }
    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.inner.list_tables()
    }
    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        WarehouseBackend::table_meta(self.inner.as_ref(), database, table)
    }
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<wg_store::Column> {
        let scanned = self.inner.scan_column(r, sample);
        self.park();
        scanned
    }
    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(wg_store::Column, CostSnapshot)> {
        let scanned = self.inner.scan_column_metered(r, sample);
        self.park();
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

#[test]
fn a_query_racing_a_sync_does_not_cache_the_content_the_sync_replaced() {
    // A discover scans the old rows; the table changes and a sync
    // invalidates it; only then does the discover put its embedding. Had
    // the put landed, every later warm discover would rank the old vector
    // against the new rows until the table changed again.
    let c = connector();
    let backend = ParkingBackend::new(c.clone());
    let config = WarpGateConfig { threads: 2, ..Default::default() };
    let wg = WarpGate::with_backend(config, backend.clone());
    wg.index_warehouse().unwrap();
    let (scanned, release) = backend.arm();
    let q = ColumnRef::new("salesforce", "lead", "company");
    std::thread::scope(|s| {
        let query = s.spawn(|| wg.discover(&q, 10).unwrap());
        scanned.recv().unwrap();
        c.warehouse_mut().database_mut("salesforce").add_table(
            Table::new(
                "lead",
                vec![Column::text("company", (0..30).map(|i| format!("Sector {}", i % 7)))],
            )
            .unwrap(),
        );
        assert_eq!(wg.sync().unwrap().tables_updated, 1);
        release.send(()).unwrap();
        assert!(!query.join().unwrap().timing.cache_hit);
    });

    let fresh = WarpGate::with_backend(config, c.clone());
    fresh.index_warehouse().unwrap();
    let bits = |d: crate::Discovery| -> Vec<(ColumnRef, u32)> {
        d.candidates.into_iter().map(|j| (j.reference, j.score.to_bits())).collect()
    };
    let want = bits(fresh.discover(&q, 10).unwrap());
    assert!(want.iter().any(|(r, _)| r.column == "sector"), "the new rows join: {want:?}");
    assert_eq!(bits(wg.discover(&q, 10).unwrap()), want);
}

#[test]
fn a_sync_racing_a_cold_discover_bills_only_its_own_scans() {
    // The sync's one scan parks after it has billed; a cold discover scans
    // meanwhile. Bracketing the run with two meter readings would bill the
    // discover's scan to the sync as well.
    let c = connector();
    let backend = ParkingBackend::new(c.clone());
    let config = WarpGateConfig { threads: 1, cache_capacity: 0, ..Default::default() };
    let wg = WarpGate::with_backend(config, backend.clone());
    wg.index_warehouse().unwrap();
    c.warehouse_mut().database_mut("salesforce").add_table(
        Table::new("lead", vec![Column::text("company", (0..30).map(|i| format!("Co {i}")))])
            .unwrap(),
    );
    c.reset_costs();
    let (scanned, release) = backend.arm();
    let q = ColumnRef::new("stocks", "industries", "company_name");
    let sync = std::thread::scope(|s| {
        let sync = s.spawn(|| wg.sync().unwrap());
        scanned.recv().unwrap();
        assert!(!wg.discover(&q, 3).unwrap().timing.cache_hit);
        release.send(()).unwrap();
        sync.join().unwrap()
    });
    let meter = c.costs();
    let (_, discovered) = c.scan_column_metered(&q, config.sample).unwrap();
    assert_eq!((sync.tables_updated, sync.columns_indexed), (1, 1), "{sync:?}");
    assert_eq!(sync.cost.requests, 1, "one changed column, one billed scan: {sync:?}");
    assert_eq!(meter.requests, 2);
    assert_eq!(sync.cost.bytes_scanned + discovered.bytes_scanned, meter.bytes_scanned);
}

#[test]
fn reattach_keeps_the_backend_id_and_replaces_the_handle() {
    let wg = WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() });
    let first = wg.attach_named("system-test-reattach", connector());
    let lake = lake_connector();
    assert_eq!(wg.attach_named("system-test-reattach", lake.clone()), first);
    assert_eq!(wg.attached_backends(), vec![first]);
    wg.sync().unwrap();
    assert_eq!(wg.len(), 1, "only the second handle's warehouse is indexed");
    let handle = wg.detach_named("system-test-reattach").expect("attached");
    assert_eq!(handle.name(), WarehouseBackend::name(lake.as_ref()));
    let q = ColumnRef::scoped(first, "raw", "exports", "company");
    let err = wg.discover(&q, 3).unwrap_err();
    assert!(err.to_string().contains("system-test-reattach"), "error names the namespace: {err}");
}

#[test]
fn detach_of_a_name_never_attached_is_none_and_interns_nothing() {
    let (wg, _c) = system();
    assert!(wg.detach_named("system-test-never-attached").is_none());
    assert_eq!(wg_util::names::lookup("system-test-never-attached"), None);
    assert_eq!(wg.attached_backends(), vec![BackendId::DEFAULT]);
}

#[test]
fn attached_backends_are_sorted() {
    let wg = WarpGate::new(WarpGateConfig::default());
    let mut want: Vec<BackendId> =
        (0..6).map(|i| wg.attach_named(&format!("system-test-sorted-{i}"), connector())).collect();
    wg.detach_named("system-test-sorted-2");
    wg.attach_named("system-test-sorted-2", connector());
    want.sort_unstable();
    assert_eq!(wg.attached_backends(), want);
}

#[test]
fn cross_namespace_joinability_and_augment() {
    let (wg, c) = system();
    let lake = wg.attach_named("system-test-xjoin", lake_connector());
    wg.sync().unwrap();
    let a = ColumnRef::new("salesforce", "account", "name");
    let b = ColumnRef::scoped(lake, "raw", "exports", "company");
    let j = wg.joinability(&a, &b, &QueryOptions::default()).unwrap();
    assert!(j > 0.8, "cross-warehouse joinability {j}");

    // Augment a default-namespace table with a lake candidate: the
    // lookup table must be fetched from the lake's backend.
    let base = c.warehouse().table("salesforce", "account").unwrap().clone();
    let augmented = wg.augment_via_lookup(&base, "name", &b, &[], KeyNorm::CaseFold).unwrap();
    assert_eq!(augmented.num_rows(), base.num_rows());
}

#[test]
fn expired_deadline_sheds_before_any_billed_scan() {
    let (wg, c) = system();
    let q = ColumnRef::new("salesforce", "account", "name");
    let before = c.costs();
    let opts = QueryOptions { deadline: Deadline::within_ms(0), ..Default::default() };
    let err = wg.discover_with(&q, 3, &opts).unwrap_err();
    assert!(matches!(err, StoreError::DeadlineExceeded { phase: Phase::Validate }), "{err}");
    assert!(!err.is_retryable(), "retrying against the same dead clock is pointless");
    assert_eq!(c.costs().since(&before).requests, 0, "no scan billed past expiry");
    // Joinability and batch take the same gate.
    let b = ColumnRef::new("stocks", "industries", "company_name");
    assert!(wg.joinability(&q, &b, &opts).is_err());
    assert!(wg.discover_batch(&[q], 3, &opts).is_err());
    assert_eq!(c.costs().since(&before).requests, 0);
}

#[test]
fn expired_sync_deadline_bills_zero_scans_and_records_nothing() {
    let c = connector();
    let wg = WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, c.clone());
    let before = c.costs();
    let err = wg.sync_with(None, Deadline::within_ms(0)).unwrap_err();
    assert!(matches!(err, StoreError::DeadlineExceeded { phase: Phase::Scan }), "{err}");
    assert_eq!(c.costs().since(&before).requests, 0, "expiry stops before the first scan");
    assert_eq!(wg.len(), 0, "nothing indexed, nothing recorded");
    // The budgetless retry picks up the identical change set.
    let report = wg.sync().unwrap();
    assert_eq!(report.tables_added, 4);
    assert_eq!(wg.len(), 6);
}

#[test]
fn quota_exhausted_tenant_is_rejected_while_others_are_unaffected() {
    let (wg, _c) = system();
    let tenant = TenantId::intern("system-test-acme");
    // Two scan tokens, zero refill: deterministic exhaustion after two
    // cache-miss discoveries (one billed scan each).
    wg.quotas().set_quota(tenant, crate::admission::TenantQuota::scans(2.0, 0.0));
    let opts = QueryOptions { tenant: Some(tenant), ..Default::default() };
    let q1 = ColumnRef::new("salesforce", "account", "name");
    let q2 = ColumnRef::new("salesforce", "lead", "company");
    let q3 = ColumnRef::new("stocks", "industries", "sector");
    wg.discover_with(&q1, 3, &opts).unwrap();
    wg.discover_with(&q2, 3, &opts).unwrap();
    let err = wg.discover_with(&q3, 3, &opts).unwrap_err();
    assert!(matches!(err, StoreError::QuotaExceeded { .. }), "{err}");
    assert!(err.is_retryable(), "buckets refill; the caller should back off and retry");
    // The same query is fine anonymously and for any other tenant.
    wg.discover(&q3, 3).unwrap();
    let other =
        QueryOptions { tenant: Some(TenantId::intern("system-test-other")), ..Default::default() };
    wg.discover_with(&q3, 3, &other).unwrap();
}

#[test]
fn saturated_admission_serves_degraded_from_warm_cache_only_when_opted_in() {
    let c = connector();
    let wg = WarpGate::with_backend(
        WarpGateConfig { threads: 1, ..Default::default() }.with_admission(1, 0, 0),
        c.clone(),
    );
    wg.index_warehouse().unwrap();
    let q = ColumnRef::new("salesforce", "account", "name");
    // Warm the cache through the normal path, then occupy the only
    // admission slot the way a long-running request would.
    let warm = wg.discover(&q, 3).unwrap();
    let slot = wg.admission.as_ref().unwrap().acquire().unwrap();
    // Without the opt-in: shed with the retryable Overloaded.
    let err = wg.discover(&q, 3).unwrap_err();
    assert!(matches!(err, StoreError::Overloaded { .. }), "{err}");
    assert!(err.is_retryable());
    // Opted in with a warm cache: a flagged answer identical to the
    // unloaded one, and not a single billed scan.
    let before = c.costs();
    let opts = QueryOptions { allow_degraded: true, ..Default::default() };
    let d = wg.discover_with(&q, 3, &opts).unwrap();
    assert!(d.timing.degraded && d.timing.cache_hit, "degradation is never silent");
    assert_eq!(d.candidates, warm.candidates, "degraded answers are real cached answers");
    assert_eq!(c.costs().since(&before).requests, 0, "degraded serving never scans");
    // Opted in but cold: degradation never fabricates an answer.
    let cold = ColumnRef::new("stocks", "prices", "close");
    let err = wg.discover_with(&cold, 3, &opts).unwrap_err();
    assert!(matches!(err, StoreError::Overloaded { .. }), "{err}");
    drop(slot);
    wg.discover(&q, 3).expect("released slot readmits");
    let stats = wg.admission_stats().expect("admission is on");
    assert!(stats.shed_queue_full >= 2, "{stats:?}");
    assert_eq!(stats.in_flight, 0);
}
