//! Backend-parity suite: the same warehouse served through every
//! `WarehouseBackend` implementation must produce identical discovery
//! rankings.
//!
//! Covered backends:
//!
//! * `CdwConnector` — the simulated cloud data warehouse;
//! * `CsvBackend` — the warehouse exported to `<db>/<table>.csv` files;
//! * `FaultInjector` — the wrapper backend (transparent plan for parity,
//!   plus dedicated resilience checks);
//! * `RetryBackend` — the retry middleware (transparent over a healthy
//!   inner backend; resilience scenarios live in `retry_backend.rs`);
//! * `RemoteBackend` — the wire-protocol client talking to a loopback
//!   `RemoteBackendServer` (deeper protocol checks in
//!   `remote_backend.rs`).

use std::sync::Arc;

use warpgate::prelude::*;

/// A warehouse whose columns round-trip CSV exactly: text that never
/// parses as numbers, integers, and floats with fractional parts.
fn parity_warehouse() -> Warehouse {
    let mut w = Warehouse::new("parity");
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
    w.database_mut("finance").add_table(
        Table::new(
            "industries",
            vec![
                Column::text(
                    "company_name",
                    (0..45).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
                ),
                Column::text(
                    "sector",
                    (0..45).map(|i| format!("Sector {}", i % 5)).collect::<Vec<_>>(),
                ),
            ],
        )
        .unwrap(),
    );
    w.database_mut("finance").add_table(
        Table::new(
            "metrics",
            vec![
                Column::floats("revenue", (0..30).map(|i| 1000.5 + i as f64).collect()),
                Column::floats("income", (0..30).map(|i| 1010.25 + i as f64).collect()),
            ],
        )
        .unwrap(),
    );
    w
}

fn queries() -> Vec<ColumnRef> {
    vec![
        ColumnRef::new("crm", "accounts", "name"),
        ColumnRef::new("crm", "leads", "company"),
        ColumnRef::new("finance", "industries", "company_name"),
        ColumnRef::new("finance", "metrics", "revenue"),
    ]
}

fn rankings(backend: BackendHandle) -> Vec<Vec<(ColumnRef, f32)>> {
    let wg = WarpGate::with_backend(WarpGateConfig::default(), backend);
    let report = wg.index_warehouse().unwrap();
    assert_eq!(report.columns_indexed, 7);
    queries()
        .iter()
        .map(|q| {
            wg.discover(q, 5)
                .unwrap()
                .candidates
                .into_iter()
                .map(|c| (c.reference, c.score))
                .collect()
        })
        .collect()
}

fn csv_root(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("wg_parity_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn all_backends_produce_identical_rankings() {
    let w = parity_warehouse();

    // 1. Simulated CDW.
    let cdw: BackendHandle = Arc::new(CdwConnector::new(w.clone(), CdwConfig::free()));
    let cdw_rankings = rankings(cdw);

    // 2. CSV directory serving the exported warehouse.
    let root = csv_root("rank");
    CsvBackend::export_warehouse(&w, &root).unwrap();
    let csv: BackendHandle = Arc::new(CsvBackend::open(&root, CdwConfig::free()).unwrap());
    let csv_rankings = rankings(csv);

    // 3. Fault injector with a transparent plan around a fresh CDW.
    let inner: BackendHandle = Arc::new(CdwConnector::new(w.clone(), CdwConfig::free()));
    let wrapped: BackendHandle = Arc::new(FaultInjector::new(inner, FaultPlan::default()));
    let fault_rankings = rankings(wrapped);

    // 4. Retry middleware around a healthy CDW (no faults → transparent).
    let inner: BackendHandle = Arc::new(CdwConnector::new(w.clone(), CdwConfig::free()));
    let retry: BackendHandle = Arc::new(RetryBackend::with_defaults(inner));
    let retry_rankings = rankings(retry);

    // 5. The same warehouse served over loopback TCP.
    let served: BackendHandle = Arc::new(CdwConnector::new(w, CdwConfig::free()));
    let server = RemoteBackendServer::serve(served, "127.0.0.1:0").expect("loopback server");
    let remote: BackendHandle =
        Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect"));
    let remote_rankings = rankings(remote);
    server.shutdown();

    for (qi, q) in queries().iter().enumerate() {
        assert_eq!(
            cdw_rankings[qi], csv_rankings[qi],
            "CSV backend diverged from the simulated CDW on {q}"
        );
        assert_eq!(
            cdw_rankings[qi], fault_rankings[qi],
            "fault-wrapped backend diverged from the simulated CDW on {q}"
        );
        assert_eq!(
            cdw_rankings[qi], retry_rankings[qi],
            "retry-wrapped backend diverged from the simulated CDW on {q}"
        );
        assert_eq!(
            cdw_rankings[qi], remote_rankings[qi],
            "remote (TCP) backend diverged from the simulated CDW on {q}"
        );
        // The float query (metrics.revenue) may legitimately come back
        // empty — its only numeric peer is same-table and excluded; what
        // matters is that every backend agrees. Text queries must hit.
        if q.database == "crm" || q.table == "industries" {
            assert!(!cdw_rankings[qi].is_empty(), "no candidates for {q}");
        }
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn joinability_agrees_across_backends() {
    let w = parity_warehouse();
    let root = csv_root("join");
    CsvBackend::export_warehouse(&w, &root).unwrap();

    let a = ColumnRef::new("crm", "accounts", "name");
    let b = ColumnRef::new("finance", "industries", "company_name");
    let mut scores = Vec::new();
    let backends: Vec<BackendHandle> = vec![
        Arc::new(CdwConnector::new(w, CdwConfig::free())),
        Arc::new(CsvBackend::open(&root, CdwConfig::free()).unwrap()),
    ];
    for backend in backends {
        let wg = WarpGate::with_backend(WarpGateConfig::default(), backend);
        wg.index_warehouse().unwrap();
        scores.push(wg.joinability(&a, &b, &QueryOptions::default()).unwrap());
    }
    assert_eq!(scores[0], scores[1], "joinability must not depend on the backend");
    assert!(scores[0] > 0.8);
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn injected_faults_abort_indexing_without_billing_everything() {
    let inner: BackendHandle = Arc::new(CdwConnector::new(parity_warehouse(), CdwConfig::free()));
    let faulty = Arc::new(FaultInjector::new(inner, FaultPlan::fail_every(2)));
    let backend: BackendHandle = faulty.clone();
    let wg = WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, backend);
    let err = wg.index_warehouse().expect_err("every 2nd scan fails");
    assert!(err.to_string().contains("injected fault"), "unexpected error: {err}");
    assert!(faulty.faults_injected() >= 1);
    // The abort flag keeps the run from scanning (and billing) the whole
    // warehouse after the first failure: 7 columns exist, the fault fires
    // on scan #2, so at most a couple of requests ever reach the meter.
    assert!(
        faulty.costs().requests < 7,
        "indexing kept billing after the injected failure: {:?}",
        faulty.costs()
    );
}

#[test]
fn recovery_after_faults_via_sync() {
    // A flaky link fails mid-index; re-attaching a healthy handle to the
    // same warehouse and syncing must converge to the full index.
    let inner: BackendHandle = Arc::new(CdwConnector::new(parity_warehouse(), CdwConfig::free()));
    let flaky: BackendHandle =
        Arc::new(FaultInjector::new(inner.clone(), FaultPlan::fail_every(3)));
    let wg = WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, flaky);
    wg.index_warehouse().expect_err("flaky link fails the bulk load");

    wg.attach_named(warpgate::util::names::DEFAULT_NAME, inner);
    let report = wg.sync().unwrap();
    assert_eq!(report.columns_indexed, 7, "sync over the healthy link completes the index");
    let d = wg.discover(&ColumnRef::new("crm", "accounts", "name"), 3).unwrap();
    assert!(!d.candidates.is_empty());
}

/// Split the parity warehouse into three single-database warehouses —
/// the federated counterpart of the merged fixture.
fn split_warehouses() -> Vec<Warehouse> {
    let merged = parity_warehouse();
    merged
        .databases()
        .iter()
        .map(|db| {
            let mut w = Warehouse::new(db.name());
            for table in db.tables() {
                w.database_mut(db.name()).add_table(table.clone());
            }
            w
        })
        .collect()
}

#[test]
fn three_named_backends_rank_like_one_merged_backend() {
    // Oracle: the whole corpus behind one default backend.
    let merged: BackendHandle = Arc::new(CdwConnector::new(parity_warehouse(), CdwConfig::free()));
    let oracle = WarpGate::with_backend(WarpGateConfig::default(), merged);
    oracle.index_warehouse().unwrap();

    // Federation: each database attached as its own named warehouse.
    let federated = WarpGate::new(WarpGateConfig::default());
    let mut ids = Vec::new();
    for w in split_warehouses() {
        let name = format!("parity-fed-{}", w.name());
        let backend: BackendHandle = Arc::new(CdwConnector::new(w, CdwConfig::free()));
        ids.push(federated.attach_named(&name, backend));
    }
    federated.index_warehouse().unwrap();
    assert_eq!(federated.len(), oracle.len());

    for q in queries() {
        let id = ids[split_warehouses().iter().position(|w| w.name() == q.database).unwrap()];
        let scoped = q.clone().with_backend(id);
        let got: Vec<(String, f32)> = federated
            .discover(&scoped, 5)
            .unwrap()
            .candidates
            .into_iter()
            .map(|c| {
                (
                    format!(
                        "{}.{}.{}",
                        c.reference.database, c.reference.table, c.reference.column
                    ),
                    c.score,
                )
            })
            .collect();
        let want: Vec<(String, f32)> = oracle
            .discover(&q, 5)
            .unwrap()
            .candidates
            .into_iter()
            .map(|c| (c.reference.to_string(), c.score))
            .collect();
        assert_eq!(got, want, "federated all-scope ranking diverged from the merged oracle on {q}");
    }
}

#[test]
fn scope_filters_rankings_without_billing_excluded_backends() {
    let federated = WarpGate::new(WarpGateConfig::default());
    let mut backends = Vec::new();
    for w in split_warehouses() {
        let name = format!("parity-scope-{}", w.name());
        let conn = Arc::new(CdwConnector::new(w, CdwConfig::free()));
        let id = federated.attach_named(&name, conn.clone());
        backends.push((id, conn));
    }
    federated.index_warehouse().unwrap();
    let (crm, _) = backends[0];
    let (finance, finance_conn) = (backends[1].0, backends[1].1.clone());

    let q = ColumnRef::scoped(crm, "crm", "accounts", "name");
    finance_conn.reset_costs();
    let included = federated
        .discover_with(&q, 10, &QueryOptions::scoped(DiscoverScope::include([finance.bits()])))
        .unwrap();
    assert!(!included.candidates.is_empty(), "finance holds a joinable variant");
    assert!(included.candidates.iter().all(|c| c.reference.backend == finance));
    let excluded = federated
        .discover_with(&q, 10, &QueryOptions::scoped(DiscoverScope::exclude([finance.bits()])))
        .unwrap();
    assert!(excluded.candidates.iter().all(|c| c.reference.backend != finance));
    assert_eq!(
        finance_conn.costs().requests,
        0,
        "scoped discovery must never scan (or bill) a non-query backend"
    );
}

#[test]
fn degraded_link_latency_shows_up_in_query_timing() {
    let inner: BackendHandle = Arc::new(CdwConnector::new(parity_warehouse(), CdwConfig::free()));
    let slow: BackendHandle = Arc::new(FaultInjector::new(inner, FaultPlan::slow(0.05)));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), slow);
    wg.index_warehouse().unwrap();
    let d = wg.discover(&ColumnRef::new("crm", "accounts", "name"), 3).unwrap();
    assert!(
        d.timing.virtual_load_secs >= 0.05,
        "injected latency missing from query timing: {:?}",
        d.timing
    );
}

/// `scan_column_metered` on every backend: the column is `scan_column`'s,
/// the reported cost is exactly what the call moved the backend's own
/// meter by — middleware shares included — and an unknown column is
/// `NotFound` with the meter where it was.
#[test]
fn metered_scan_matches_the_plain_scan_and_the_meter_on_every_backend() {
    let w = parity_warehouse();
    let priced = |w: &Warehouse| -> BackendHandle {
        Arc::new(CdwConnector::new(w.clone(), CdwConfig::default()))
    };
    // Faults and latency only on the scanned table, so the unknown ref
    // below (another table) meets the backend itself, not the injector.
    let on_accounts = |plan: FaultPlan| FaultPlan {
        only_table: Some(("crm".to_string(), "accounts".to_string())),
        ..plan
    };

    let root = csv_root("metered");
    CsvBackend::export_warehouse(&w, &root).unwrap();
    let server = RemoteBackendServer::serve(priced(&w), "127.0.0.1:0").expect("loopback server");
    let no_jitter = RetryPolicy { jitter: 0.0, ..RetryPolicy::default() };

    // (name, backend, retries and middleware latency the metered call —
    // the backend's second scan — must carry).
    let cases: Vec<(&str, BackendHandle, u64, f64)> = vec![
        ("cdw", priced(&w), 0, 0.0),
        ("csv", Arc::new(CsvBackend::open(&root, CdwConfig::default()).unwrap()), 0, 0.0),
        (
            "fault",
            Arc::new(FaultInjector::new(priced(&w), on_accounts(FaultPlan::slow(0.25)))),
            0,
            0.25,
        ),
        (
            "retry",
            Arc::new(RetryBackend::new(
                Arc::new(FaultInjector::new(priced(&w), on_accounts(FaultPlan::fail_every(2)))),
                no_jitter,
            )),
            1,
            no_jitter.nominal_delay_secs(1),
        ),
        (
            "remote",
            Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect")),
            0,
            0.0,
        ),
    ];

    let r = ColumnRef::new("crm", "accounts", "name");
    let spec = SampleSpec::DistinctReservoir { n: 10, seed: 7 };
    let expected = priced(&w).scan_column_metered(&r, spec).unwrap();
    for (name, backend, retries, extra_secs) in cases {
        let plain = backend.scan_column(&r, spec).unwrap();
        let before = backend.costs();
        let (column, metered) = backend.scan_column_metered(&r, spec).unwrap();
        let moved = backend.costs().since(&before);

        assert_eq!(column, plain, "{name}: metered column differs from scan_column's");
        assert_eq!(column, expected.0, "{name}: column differs from the bare connector's");
        assert_eq!(
            (metered.requests, metered.bytes_scanned, metered.retries),
            (moved.requests, moved.bytes_scanned, moved.retries),
            "{name}: {metered:?} vs meter movement {moved:?}"
        );
        assert!((metered.virtual_secs - moved.virtual_secs).abs() < 1e-9, "{name}: {metered:?}");
        assert!((metered.usd - moved.usd).abs() < 1e-15, "{name}: {metered:?}");
        // One billed scan of the same bytes everywhere; the decorators add
        // only their own share on top.
        assert_eq!((metered.requests, metered.bytes_scanned), (1, expected.1.bytes_scanned));
        assert_eq!(metered.retries, retries, "{name}");
        let own = metered.virtual_secs - expected.1.virtual_secs;
        assert!((own - extra_secs).abs() < 1e-9, "{name}: middleware share {own}");

        let before = backend.costs();
        let err = backend.scan_column_metered(&ColumnRef::new("crm", "nope", "c"), spec);
        assert!(matches!(err, Err(StoreError::NotFound(_))), "{name}: {err:?}");
        assert_eq!(backend.costs(), before, "{name}: an unknown column must bill nothing");
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
