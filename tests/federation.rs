//! Federated multi-warehouse acceptance suite: one `WarpGate` spanning a
//! simulated CDW, a CSV data lake, and a remote warehouse served over
//! loopback TCP behind retry middleware — three named backends, three
//! namespaces, one index.
//!
//! What must hold (the ISSUE 6 acceptance bar):
//!
//! * all-scope discovery over the federation ranks identically to a
//!   single merged backend holding the union of the warehouses;
//! * scoped discovery restricts results per namespace and never scans
//!   (or bills) excluded backends;
//! * `sync()` attributes per-backend cost slices separately, and
//!   `sync_with(Some(id), ..)` on a mutated warehouse re-scans only that backend's
//!   changed table — CostMeter-verified on every other backend;
//! * re-attaching a different warehouse under an existing name serves
//!   nothing stale (epoch guard).

use std::sync::Arc;

use warpgate::prelude::*;

/// The CDW's warehouse: two tables in a `crm` database.
fn cdw_warehouse() -> Warehouse {
    let mut w = Warehouse::new("cdw");
    w.database_mut("crm").add_table(
        Table::new(
            "accounts",
            vec![
                Column::text("name", (0..50).map(|i| format!("Company {i}")).collect::<Vec<_>>()),
                Column::ints("employees", (0..50).map(|i| i * 7).collect()),
            ],
        )
        .unwrap(),
    );
    w.database_mut("crm").add_table(
        Table::new(
            "leads",
            vec![Column::text(
                "company",
                (0..40).map(|i| format!("company {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w
}

/// The data lake's warehouse (exported to CSV): an upper-cased variant of
/// the company names. Text only, so the CSV round trip is exact.
fn lake_warehouse() -> Warehouse {
    let mut w = Warehouse::new("lake");
    w.database_mut("exports").add_table(
        Table::new(
            "dump",
            vec![Column::text(
                "company_name",
                (0..45).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w
}

/// The remote warehouse (served over TCP): partner names, yet another
/// format variant.
fn remote_warehouse() -> Warehouse {
    let mut w = Warehouse::new("partners");
    w.database_mut("ops").add_table(
        Table::new(
            "vendors",
            vec![Column::text(
                "vendor",
                (0..35).map(|i| format!("company {i} inc")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w
}

/// The union of all three, as one merged single-backend warehouse —
/// the ranking oracle the federation must match.
fn merged_warehouse() -> Warehouse {
    let mut w = cdw_warehouse();
    for source in [lake_warehouse(), remote_warehouse()] {
        for db in source.databases() {
            for table in db.tables() {
                w.database_mut(db.name()).add_table(table.clone());
            }
        }
    }
    w
}

struct Federation {
    wg: WarpGate,
    cdw: BackendId,
    lake: BackendId,
    remote: BackendId,
    cdw_conn: Arc<CdwConnector>,
    lake_backend: Arc<CsvBackend>,
    served_conn: Arc<CdwConnector>,
    server: Option<RemoteBackendServer>,
    csv_root: std::path::PathBuf,
}

impl Federation {
    /// CDW simulator + CSV export + loopback-TCP remote behind retry
    /// middleware, attached as three named backends of one system.
    fn stand_up(tag: &str) -> Self {
        let cdw_conn = Arc::new(CdwConnector::new(cdw_warehouse(), CdwConfig::free()));

        let csv_root =
            std::env::temp_dir().join(format!("wg_federation_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&csv_root);
        CsvBackend::export_warehouse(&lake_warehouse(), &csv_root).unwrap();
        let lake_backend = Arc::new(CsvBackend::open(&csv_root, CdwConfig::free()).unwrap());

        let served_conn = Arc::new(CdwConnector::new(remote_warehouse(), CdwConfig::free()));
        let served: BackendHandle = served_conn.clone();
        let server = RemoteBackendServer::serve(served, "127.0.0.1:0").expect("loopback server");
        let remote_client: BackendHandle =
            Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect"));
        let resilient: BackendHandle = Arc::new(RetryBackend::with_defaults(remote_client));

        let wg = WarpGate::new(WarpGateConfig { threads: 2, ..WarpGateConfig::default() });
        let cdw = wg.attach_named(&format!("fed-{tag}-cdw"), cdw_conn.clone());
        let lake = wg.attach_named(&format!("fed-{tag}-lake"), lake_backend.clone());
        let remote = wg.attach_named(&format!("fed-{tag}-wgrp"), resilient);
        Self {
            wg,
            cdw,
            lake,
            remote,
            cdw_conn,
            lake_backend,
            served_conn,
            server: Some(server),
            csv_root,
        }
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        std::fs::remove_dir_all(&self.csv_root).ok();
    }
}

/// Candidates with the namespace erased — the shape comparable between a
/// federated system and the merged single-backend oracle.
fn flat(candidates: &[JoinCandidate]) -> Vec<(String, String, String, f32)> {
    candidates
        .iter()
        .map(|c| {
            (
                c.reference.database.clone(),
                c.reference.table.clone(),
                c.reference.column.clone(),
                c.score,
            )
        })
        .collect()
}

#[test]
fn federated_discovery_matches_the_merged_single_backend() {
    let fed = Federation::stand_up("rank");
    let report = fed.wg.index_warehouse().unwrap();
    assert_eq!(report.columns_indexed, 5, "3 CDW + 1 lake + 1 remote columns");

    let merged: BackendHandle = Arc::new(CdwConnector::new(merged_warehouse(), CdwConfig::free()));
    let oracle = WarpGate::with_backend(WarpGateConfig::default(), merged);
    oracle.index_warehouse().unwrap();
    assert_eq!(oracle.len(), fed.wg.len());

    // Same logical query against both systems: the federation's all-scope
    // ranking must equal the merged oracle's, across namespaces.
    for (backend, db, table, column) in [
        (fed.cdw, "crm", "accounts", "name"),
        (fed.cdw, "crm", "leads", "company"),
        (fed.lake, "exports", "dump", "company_name"),
        (fed.remote, "ops", "vendors", "vendor"),
    ] {
        let scoped_query = ColumnRef::scoped(backend, db, table, column);
        let federated = fed.wg.discover(&scoped_query, 5).unwrap();
        let want = oracle.discover(&ColumnRef::new(db, table, column), 5).unwrap();
        assert!(!want.candidates.is_empty(), "oracle found nothing for {db}.{table}.{column}");
        assert_eq!(
            flat(&federated.candidates),
            flat(&want.candidates),
            "federated ranking diverged from the merged oracle on {db}.{table}.{column}"
        );
        assert_eq!(federated.timing.backend, Some(backend), "scan attribution");
    }
}

#[test]
fn scoped_discovery_restricts_results_and_bills_no_excluded_backend() {
    let fed = Federation::stand_up("scope");
    fed.wg.index_warehouse().unwrap();
    let q = ColumnRef::scoped(fed.cdw, "crm", "accounts", "name");

    // Include: only the lake's namespace may answer.
    fed.lake_backend.reset_costs();
    fed.served_conn.reset_costs();
    let only_lake = fed
        .wg
        .discover_with(&q, 10, &QueryOptions::scoped(DiscoverScope::include([fed.lake.bits()])))
        .unwrap();
    assert!(!only_lake.candidates.is_empty(), "the lake holds a joinable variant");
    assert!(only_lake.candidates.iter().all(|c| c.reference.backend == fed.lake));

    // Exclude: everything but the lake.
    let not_lake = fed
        .wg
        .discover_with(&q, 10, &QueryOptions::scoped(DiscoverScope::exclude([fed.lake.bits()])))
        .unwrap();
    assert!(!not_lake.candidates.is_empty());
    assert!(not_lake.candidates.iter().all(|c| c.reference.backend != fed.lake));

    // Only the query's own backend was ever scanned: zero billed requests
    // on the lake and the remote warehouse across both queries.
    assert_eq!(fed.lake_backend.costs().requests, 0, "excluded lake must not be billed");
    assert_eq!(fed.served_conn.costs().requests, 0, "remote warehouse must not be billed");

    // The scoped union re-composes the all-scope answer.
    let all = fed.wg.discover(&q, 10).unwrap();
    assert_eq!(
        all.candidates.len(),
        only_lake.candidates.len() + not_lake.candidates.len(),
        "include + exclude must partition the all-scope candidates"
    );
}

#[test]
fn sync_attributes_costs_per_backend_and_sync_backend_stays_scoped() {
    let fed = Federation::stand_up("sync");

    // First sync does the full federated load; each namespace's slice
    // bills exactly its own columns.
    let report = fed.wg.sync().unwrap();
    assert_eq!(report.per_backend.len(), 3);
    let slice = |id: BackendId| {
        report.per_backend.iter().find(|(b, _)| *b == id).map(|(_, r)| r.clone()).unwrap()
    };
    assert_eq!(slice(fed.cdw).columns_indexed, 3);
    assert_eq!(slice(fed.lake).columns_indexed, 1);
    assert_eq!(slice(fed.remote).columns_indexed, 1);
    assert!(slice(fed.cdw).cost.requests >= 3);
    assert!(slice(fed.lake).cost.requests >= 1);
    let total: usize = report.per_backend.iter().map(|(_, r)| r.columns_indexed).sum();
    assert_eq!(report.columns_indexed, total, "slices must sum to the aggregate");

    // Mutate ONE table in ONE warehouse (the CDW), then sync only it:
    // exactly one column re-scans, and the other warehouses' meters do
    // not move at all.
    let leads = |label: &str| {
        let values = (0..30).map(|i| format!("{label} {i}")).collect::<Vec<_>>();
        Table::new("leads", vec![Column::text("company", values)]).unwrap()
    };
    let reset_costs = || {
        fed.cdw_conn.reset_costs();
        fed.lake_backend.reset_costs();
        fed.served_conn.reset_costs();
    };
    fed.cdw_conn.warehouse_mut().database_mut("crm").add_table(leads("Fresh Lead"));
    reset_costs();
    let incremental = fed.wg.sync_with(Some(fed.cdw), Deadline::none()).unwrap();
    assert_eq!(incremental.tables_updated, 1);
    assert_eq!(incremental.columns_indexed, 1, "only the mutated table's column re-embeds");
    assert_eq!(fed.cdw_conn.costs().requests, 1, "one column scan on the mutated CDW");
    assert_eq!(fed.lake_backend.costs().requests, 0, "lake untouched by the CDW's sync");
    assert_eq!(fed.served_conn.costs().requests, 0, "remote untouched by the CDW's sync");

    // A follow-up federated sync is a no-op everywhere.
    let settled = fed.wg.sync().unwrap();
    assert!(settled.is_noop(), "everything reconciled: {settled:?}");

    // Mutate the same table again and sync the whole federation: only the
    // CDW bills, its slice carries the whole bill, and the index then ranks
    // like a fresh federated build over the same content.
    fed.cdw_conn.warehouse_mut().database_mut("crm").add_table(leads("Second Lead"));
    reset_costs();
    let federated = fed.wg.sync().unwrap();
    assert_eq!((federated.tables_updated, federated.columns_indexed), (1, 1));
    assert_eq!(fed.cdw_conn.costs().requests, 1, "one column scan on the mutated CDW");
    assert_eq!(fed.lake_backend.costs().requests, 0, "unchanged lake bills nothing");
    assert_eq!(fed.served_conn.costs().requests, 0, "unchanged remote bills nothing");
    for (id, slice) in &federated.per_backend {
        if *id == fed.cdw {
            assert_eq!(slice.cost.requests, 1, "the CDW's slice carries its scan");
            assert_eq!(slice.cost, federated.cost, "and the whole bill");
        } else {
            assert!(slice.is_noop(), "{id:?}: {slice:?}");
        }
    }
    let fresh = Federation::stand_up("sync-fresh");
    fresh.cdw_conn.warehouse_mut().database_mut("crm").add_table(leads("Second Lead"));
    fresh.wg.index_warehouse().unwrap();
    for (ours, theirs, db, table, column) in [
        (fed.cdw, fresh.cdw, "crm", "leads", "company"),
        (fed.cdw, fresh.cdw, "crm", "accounts", "name"),
        (fed.lake, fresh.lake, "exports", "dump", "company_name"),
        (fed.remote, fresh.remote, "ops", "vendors", "vendor"),
    ] {
        let synced = fed.wg.discover(&ColumnRef::scoped(ours, db, table, column), 5).unwrap();
        let want = fresh.wg.discover(&ColumnRef::scoped(theirs, db, table, column), 5).unwrap();
        assert_eq!(
            flat(&synced.candidates),
            flat(&want.candidates),
            "a federated sync diverged from a fresh build on {db}.{table}.{column}"
        );
    }
}

#[test]
fn reattaching_a_different_warehouse_serves_nothing_stale() {
    let fed = Federation::stand_up("swap");
    fed.wg.index_warehouse().unwrap();
    let q = ColumnRef::scoped(fed.cdw, "crm", "leads", "company");
    let before = fed.wg.discover(&q, 5).unwrap();
    assert!(fed.wg.discover(&q, 5).unwrap().timing.cache_hit, "embedding cached");

    // A different CDW appears under the same name: same ref paths, new
    // content. The epoch guard must force a full re-scan of the namespace
    // and discard the cached embedding.
    let mut replacement = cdw_warehouse();
    replacement.database_mut("crm").add_table(
        Table::new(
            "leads",
            vec![Column::text(
                "company",
                (0..30).map(|i| format!("Replacement {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    let name = fed.cdw.name();
    let id =
        fed.wg.attach_named(&name, Arc::new(CdwConnector::new(replacement, CdwConfig::free())));
    assert_eq!(id, fed.cdw, "a name keeps its namespace across re-attach");

    let report = fed.wg.sync_with(Some(id), Deadline::none()).unwrap();
    assert_eq!(
        report.tables_added + report.tables_updated,
        2,
        "every table the replacement serves re-scans: {report:?}"
    );
    let after = fed.wg.discover(&q, 5).unwrap();
    assert!(!after.timing.cache_hit, "the old warehouse's cached embedding must not serve");
    assert_ne!(flat(&before.candidates), flat(&after.candidates), "new content, new ranking");

    // The other namespaces were never disturbed: their sync is a no-op.
    assert!(fed.wg.sync_with(Some(fed.lake), Deadline::none()).unwrap().is_noop());
    assert!(fed.wg.sync_with(Some(fed.remote), Deadline::none()).unwrap().is_noop());
}

#[test]
fn detaching_a_namespace_drops_its_paged_tier() {
    // ISSUE 9 extension of the stale-reattach guarantee: when the index
    // serves from sealed segments, `detach_named` must drop the departing
    // namespace's disk-resident rows too — paged items were sealed from
    // that backend's content, and serving them past the detach would be
    // exactly the staleness the epoch guard exists to prevent.
    let mut fed = Federation::stand_up("paged-detach");
    fed.wg.index_warehouse().unwrap();
    let total = fed.wg.len();

    let dir =
        std::env::temp_dir().join(format!("wg_federation_paged_detach_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    fed.wg.save_paged(&dir).unwrap();
    fed.wg.load_paged(&dir).unwrap();
    assert_eq!(fed.wg.cold_len(), total, "every restored row serves from the paged tier");

    // Warm the block cache and pin that the lake namespace serves.
    let q = ColumnRef::scoped(fed.cdw, "crm", "accounts", "name");
    let lake_scope = QueryOptions::scoped(DiscoverScope::include([fed.lake.bits()]));
    let before = fed.wg.discover_with(&q, 5, &lake_scope).unwrap();
    assert!(!before.candidates.is_empty(), "lake must serve before the detach");
    assert!(fed.wg.block_cache_stats().len > 0, "re-rank hydrated blocks");

    // Detach the lake: its paged rows drop immediately.
    let lake_name = fed.lake.name();
    assert!(fed.wg.detach_named(&lake_name).is_some());
    assert_eq!(fed.wg.cold_len(), total - 1, "the lake's cold row must drop");
    assert_eq!(fed.wg.len(), total - 1);
    let after = fed.wg.discover_with(&q, 5, &lake_scope).unwrap();
    assert!(after.candidates.is_empty(), "a detached namespace's paged rows must not serve");

    // A different warehouse under the same name: sync serves only the new
    // content (hot), and the old sealed rows stay gone.
    let mut replacement = Warehouse::new("lake2");
    replacement.database_mut("exports").add_table(
        Table::new(
            "dump",
            vec![Column::text(
                "company_name",
                (0..20).map(|i| format!("Fresh {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    let id = fed
        .wg
        .attach_named(&lake_name, Arc::new(CdwConnector::new(replacement, CdwConfig::free())));
    assert_eq!(id, fed.lake, "a name keeps its namespace across re-attach");
    fed.wg.sync_with(Some(id), Deadline::none()).unwrap();
    assert_eq!(fed.wg.cold_len(), total - 1, "re-synced content is hot, not paged");
    let swapped = fed.wg.discover_with(&q, 5, &lake_scope).unwrap();
    assert!(
        swapped.candidates.iter().all(|c| c.reference.column == "company_name"),
        "only the replacement's rows may serve: {swapped:?}"
    );
    assert_ne!(flat(&swapped.candidates), flat(&before.candidates), "nothing stale survives");

    // Detach the remaining sealed namespaces: the paged tier drains
    // completely — segments retire and their cached blocks evict.
    assert!(fed.wg.detach_named(&fed.cdw.name()).is_some());
    assert!(fed.wg.detach_named(&fed.remote.name()).is_some());
    assert_eq!(fed.wg.cold_len(), 0, "no cold rows may outlive their backends");
    assert_eq!(fed.wg.cold_segment_count(), 0, "emptied segments must retire");
    assert_eq!(
        fed.wg.block_cache_stats().len,
        0,
        "retired segments must evict their cache-resident blocks"
    );
    std::fs::remove_dir_all(&dir).ok();
}
