//! Loopback tests of the wire-protocol remote backend: a WarpGate node
//! indexing and syncing a warehouse it only reaches over TCP, the
//! resilient `RetryBackend(RemoteBackend)` stack riding out server
//! restarts, and error/metering propagation across the wire.
//!
//! Ranking parity with in-process backends is pinned in
//! `backend_parity.rs`; this suite covers the service behaviors the
//! protocol adds, and the **round-trip budget**: how many WGRP frames each
//! facade call may cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use warpgate::prelude::*;
use wg_store::{CostSnapshot, TableVersion};

fn warehouse() -> Warehouse {
    let mut w = Warehouse::new("remote");
    w.database_mut("crm").add_table(
        Table::new(
            "accounts",
            vec![
                Column::text("name", (0..50).map(|i| format!("Company {i}")).collect::<Vec<_>>()),
                Column::ints("employees", (0..50).map(|i| i * 3).collect()),
            ],
        )
        .unwrap(),
    );
    w.database_mut("finance").add_table(
        Table::new(
            "industries",
            vec![Column::text(
                "company_name",
                (0..45).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w
}

fn serve(connector: &Arc<CdwConnector>) -> (RemoteBackendServer, BackendHandle) {
    let served: BackendHandle = connector.clone();
    let server = RemoteBackendServer::serve(served, "127.0.0.1:0").expect("loopback server");
    let remote: BackendHandle =
        Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect"));
    (server, remote)
}

#[test]
fn index_and_sync_over_the_wire() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let (server, remote) = serve(&connector);

    let wg = WarpGate::with_backend(WarpGateConfig::default(), remote);
    let report = wg.index_warehouse().expect("index over TCP");
    assert_eq!(report.columns_indexed, 3);
    // Billing happened on the server side and is visible through the wire.
    assert!(report.cost.requests >= 3, "server-side billing missing: {:?}", report.cost);

    // Mutate the warehouse *behind the server*; sync over the wire picks
    // up exactly the changed table.
    connector.warehouse_mut().database_mut("crm").add_table(
        Table::new(
            "leads",
            vec![Column::text(
                "company",
                (0..40).map(|i| format!("company {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    let sync = wg.sync().expect("sync over TCP");
    assert_eq!(sync.tables_added, 1);
    assert_eq!(sync.tables_updated, 0);
    assert_eq!(sync.columns_indexed, 1, "only the new table scans");

    let d = wg.discover(&ColumnRef::new("crm", "accounts", "name"), 5).expect("discover");
    let refs: Vec<String> = d.candidates.iter().map(|c| c.reference.to_string()).collect();
    assert!(refs.contains(&"crm.leads.company".to_string()), "synced table missing: {refs:?}");
    server.shutdown();
}

#[test]
fn retry_stack_rides_out_a_server_restart() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let served: BackendHandle = connector.clone();
    let server = RemoteBackendServer::serve(served.clone(), "127.0.0.1:0").expect("server");
    let addr = server.local_addr();
    let remote: BackendHandle =
        Arc::new(RemoteBackend::connect(addr.to_string()).expect("connect"));
    let resilient = Arc::new(RetryBackend::new(
        remote,
        RetryPolicy { base_delay_secs: 0.001, ..RetryPolicy::default() },
    ));
    let stack: BackendHandle = resilient.clone();

    let wg = WarpGate::with_backend(WarpGateConfig::default(), stack);
    wg.index_warehouse().expect("initial index");

    // Bounce the server between queries. The pooled connection dies; the
    // bare client would fail, but the retry layer reconnects silently.
    server.shutdown();
    let server = RemoteBackendServer::serve(served, addr).expect("restart on same port");

    let q = ColumnRef::new("crm", "accounts", "name");
    let d = wg.discover(&q, 3).expect("discovery across the restart");
    assert!(!d.candidates.is_empty());
    // The broken first attempt shows up in the timing's retry count
    // (unless the embedding cache absorbed the scan — force a cold read).
    let sync = wg.sync().expect("sync across the restart");
    assert!(sync.is_noop());
    server.shutdown();
}

#[test]
fn bare_client_fails_retryably_when_the_server_dies() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let (server, remote) = serve(&connector);
    let wg = WarpGate::with_backend(
        WarpGateConfig { cache_capacity: 0, ..WarpGateConfig::default() },
        remote,
    );
    wg.index_warehouse().expect("index while the server lives");
    server.shutdown();

    let err = wg.discover(&ColumnRef::new("crm", "accounts", "name"), 3).unwrap_err();
    assert!(err.is_retryable(), "transport failure must be retryable, got {err:?}");
}

#[test]
fn fatal_errors_cross_the_wire_unwrapped() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let (server, remote) = serve(&connector);
    // The whole stack, remote included: a NotFound from the served
    // backend must re-raise as NotFound (fatal, no retry burned).
    let resilient = Arc::new(RetryBackend::with_defaults(remote));
    let stack: BackendHandle = resilient.clone();
    let wg = WarpGate::with_backend(WarpGateConfig::default(), stack);
    wg.index_warehouse().expect("index");
    let err = wg.discover(&ColumnRef::new("nope", "t", "c"), 3).unwrap_err();
    assert!(matches!(err, StoreError::NotFound(_)), "got {err:?}");
    assert_eq!(resilient.retries(), 0, "fatal errors must not be retried");
    server.shutdown();
}

#[test]
fn degraded_remote_link_latency_reaches_query_timing() {
    // Server side: fault injector adds virtual latency; the client reads
    // costs over the wire, so QueryTiming sees the degradation exactly as
    // with an in-process backend.
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let inner: BackendHandle = connector.clone();
    let slow: BackendHandle = Arc::new(FaultInjector::new(inner, FaultPlan::slow(0.05)));
    let server = RemoteBackendServer::serve(slow, "127.0.0.1:0").expect("server");
    let remote: BackendHandle =
        Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect"));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), remote);
    wg.index_warehouse().expect("index");
    let d = wg.discover(&ColumnRef::new("crm", "accounts", "name"), 3).expect("discover");
    assert!(
        d.timing.virtual_load_secs >= 0.05,
        "server-side latency missing from timing: {:?}",
        d.timing
    );
    server.shutdown();
}

/// The backend a counted server serves: the server makes exactly one
/// backend call per request frame, so counting calls here counts frames
/// behind the server — nothing is inferred from the client side.
struct FrameCounter {
    inner: BackendHandle,
    frames: AtomicU64,
}

impl FrameCounter {
    fn frame(&self) -> &dyn WarehouseBackend {
        self.frames.fetch_add(1, Ordering::SeqCst);
        self.inner.as_ref()
    }
}

impl WarehouseBackend for FrameCounter {
    fn name(&self) -> String {
        self.frame().name()
    }
    fn list_tables(&self) -> Result<Vec<TableMeta>, StoreError> {
        self.frame().list_tables()
    }
    fn table_meta(&self, database: &str, table: &str) -> Result<TableMeta, StoreError> {
        self.frame().table_meta(database, table)
    }
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> Result<Column, StoreError> {
        self.frame().scan_column(r, sample)
    }
    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> Result<(Column, CostSnapshot), StoreError> {
        self.frame().scan_column_metered(r, sample)
    }
    fn scan_table(&self, db: &str, table: &str, sample: SampleSpec) -> Result<Table, StoreError> {
        self.frame().scan_table(db, table, sample)
    }
    fn costs(&self) -> CostSnapshot {
        self.frame().costs()
    }
    fn reset_costs(&self) {
        self.frame().reset_costs()
    }
    fn validate_column(&self, r: &ColumnRef) -> Result<(), StoreError> {
        self.frame().validate_column(r)
    }
    fn snapshot_versions(&self) -> Result<Vec<TableVersion>, StoreError> {
        self.frame().snapshot_versions()
    }
}

/// The round-trip budget (DESIGN.md §7): what each facade call costs on
/// the wire. A cold query is one frame each way — the scan carries its own
/// bill and is its own existence check.
#[test]
fn round_trip_budget_per_facade_call() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let counter = Arc::new(FrameCounter { inner: connector.clone(), frames: AtomicU64::new(0) });
    let served: BackendHandle = counter.clone();
    let server = RemoteBackendServer::serve(served, "127.0.0.1:0").expect("loopback server");
    let client = || -> BackendHandle {
        Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect"))
    };
    let spent = |f: &dyn Fn()| {
        let before = counter.frames.load(Ordering::SeqCst);
        f();
        counter.frames.load(Ordering::SeqCst) - before
    };

    let wg = WarpGate::with_backend(WarpGateConfig::default(), client());
    wg.index_warehouse().expect("index over TCP");
    let q = ColumnRef::new("crm", "accounts", "name");
    let cold = spent(&|| assert!(!wg.discover(&q, 3).expect("cold").timing.cache_hit));
    assert_eq!(cold, 1, "cold discover: the metered scan and nothing else");
    let warm = spent(&|| assert!(wg.discover(&q, 3).expect("warm").timing.cache_hit));
    assert_eq!(warm, 1, "warm discover: the existence check and nothing else");

    let billed = connector.costs();
    let unknown = spent(&|| {
        let err = wg.discover(&ColumnRef::new("crm", "accounts", "nope"), 3).unwrap_err();
        assert!(matches!(err, StoreError::NotFound(_)), "got {err:?}");
    });
    assert_eq!(unknown, 1, "an unknown uncached column is refused by the scan itself");
    assert_eq!(connector.costs(), billed, "and bills nothing");

    let pair = spent(&|| {
        let a = ColumnRef::new("crm", "accounts", "employees");
        let b = ColumnRef::new("finance", "industries", "company_name");
        wg.joinability(&a, &b, &QueryOptions::default()).expect("cold joinability");
    });
    assert_eq!(pair, 2, "cold joinability: two scans");

    // Nothing changed behind the server: the version tokens and nothing
    // else. `SyncReport::cost` sums the run's own metered scans.
    let noop = spent(&|| assert!(wg.sync().expect("no-op sync").is_noop()));
    assert_eq!(noop, 1, "no-op sync: snapshot_versions");

    // A tenant is debited the scan's own bill: no meter reads around it.
    let metered = WarpGate::with_backend(WarpGateConfig::default(), client());
    metered.index_warehouse().expect("index the tenant's node");
    let tenant = TenantId::intern("remote-budget-tenant");
    metered.quotas().set_quota(tenant, TenantQuota::scans(100.0, 0.0));
    let opts = QueryOptions { tenant: Some(tenant), ..Default::default() };
    let debited = spent(&|| {
        assert!(!metered.discover_with(&q, 3, &opts).expect("billed cold").timing.cache_hit)
    });
    assert_eq!(debited, 1, "tenant-billed cold discover: the metered scan and nothing else");
    assert_eq!(metered.quotas().balance(tenant).map(|(scans, _)| scans), Some(99.0));

    // The documented resilient stack gets the same single frame.
    let stack: BackendHandle = Arc::new(RetryBackend::with_defaults(client()));
    let resilient = WarpGate::with_backend(WarpGateConfig::default(), stack);
    resilient.index_warehouse().expect("index through the retry stack");
    let retried = spent(&|| {
        assert!(!resilient.discover(&q, 3).expect("cold through retry").timing.cache_hit)
    });
    assert_eq!(retried, 1, "RetryBackend(RemoteBackend) cold discover");
    server.shutdown();
}
