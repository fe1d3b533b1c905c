//! Overload-resilience acceptance (DESIGN.md §12): a saturated loopback
//! WGRP server answers every request correctly or fails it *typed* — no
//! hangs, no panics, no partially billed work; expired deadlines stop
//! billing at the phase boundary; an over-quota tenant is rejected while
//! every other tenant's results stay bit-identical to an unloaded run; a
//! tenant is debited only its own scans.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use warpgate::prelude::*;
use wg_store::CostSnapshot;

fn warehouse() -> Warehouse {
    let mut w = Warehouse::new("overload");
    w.database_mut("crm").add_table(
        Table::new(
            "accounts",
            vec![
                Column::text("name", (0..60).map(|i| format!("Company {i}")).collect::<Vec<_>>()),
                Column::ints("employees", (0..60).map(|i| i * 3).collect()),
            ],
        )
        .unwrap(),
    );
    w.database_mut("crm").add_table(
        Table::new(
            "leads",
            vec![Column::text(
                "company",
                (0..50).map(|i| format!("company {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w.database_mut("finance").add_table(
        Table::new(
            "industries",
            vec![Column::text(
                "company_name",
                (0..55).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w
}

/// Saturate a bounded WGRP server far past its connection cap: every
/// client either scans correctly or is refused with the typed retryable
/// `Overloaded` — and the served backend bills exactly the admitted
/// scans, never the shed ones.
#[test]
fn saturated_server_sheds_connections_typed_and_never_bills_them() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let inner: BackendHandle = connector.clone();
    // Every scan stalls 250ms for real, so an admitted client holds its
    // connection while the rest of a 12-client burst arrives against 2
    // slots.
    let slow: BackendHandle = Arc::new(FaultInjector::new(inner, FaultPlan::hang(0.25)));
    let server = RemoteBackendServer::serve_with(
        slow,
        "127.0.0.1:0",
        RemoteServerConfig { max_connections: 2, ..Default::default() },
    )
    .expect("loopback server");
    let addr = server.local_addr().to_string();

    // Release every client at once: each connects, then scans.
    let barrier = Arc::new(Barrier::new(12));
    let q = ColumnRef::new("crm", "accounts", "name");
    let handles: Vec<_> = (0..12)
        .map(|_| {
            let (barrier, addr, q) = (barrier.clone(), addr.clone(), q.clone());
            std::thread::spawn(move || {
                barrier.wait();
                RemoteBackend::connect(addr)?.scan_column(&q, SampleSpec::Full)
            })
        })
        .collect();

    let mut ok = 0u64;
    let mut shed = 0u64;
    for h in handles {
        // A panic or hang here fails the whole suite — "no hangs, no
        // panics" is exactly this join.
        match h.join().expect("client thread must not panic") {
            Ok(col) => {
                assert_eq!(col.len(), 60, "admitted answers must be correct, not partial");
                ok += 1;
            }
            Err(e) => {
                assert!(matches!(e, StoreError::Overloaded { .. }), "untyped failure: {e:?}");
                assert!(e.is_retryable(), "shed requests must invite a retry");
                shed += 1;
            }
        }
    }
    assert_eq!(ok + shed, 12);
    assert!(ok >= 1, "an idle slot must admit");
    assert!(shed >= 1, "a 12-deep burst over 2 slots must shed");
    assert_eq!(
        connector.costs().requests,
        ok,
        "shed clients must never reach the backend (no partial bills)"
    );
    let stats = server.stats();
    assert_eq!(stats.shed_connections, shed, "every client-visible shed is counted");
    server.shutdown();
}

/// An expired request deadline bills zero further scans past the expiry
/// phase — in-process, through the public `discover_opts` path.
#[test]
fn expired_deadline_discover_bills_zero_further_scans() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().expect("index");

    let q = ColumnRef::new("crm", "accounts", "name");
    let before = connector.costs();
    let expired = QueryOptions { deadline: Deadline::within_ms(0), ..Default::default() };
    let err = wg.discover_with(&q, 5, &expired).unwrap_err();
    assert!(matches!(err, StoreError::DeadlineExceeded { phase: Phase::Validate }), "{err:?}");
    assert!(!err.is_retryable(), "the clock is dead either way");
    assert_eq!(connector.costs().since(&before).requests, 0, "expiry must stop billing");

    // A live budget serves normally through the same path.
    let live = QueryOptions { deadline: Deadline::within_ms(30_000), ..Default::default() };
    let d = wg.discover_with(&q, 5, &live).expect("live budget serves");
    assert!(!d.candidates.is_empty());
    assert!(!d.timing.degraded);
}

/// Exhausting one tenant's quota rejects that tenant (typed, retryable)
/// while every other tenant's answers stay bit-identical to a system
/// that never saw the noisy neighbor.
#[test]
fn quota_exhausted_tenant_is_isolated_and_others_stay_bit_identical() {
    // The unloaded control: same content, never quota-stressed.
    let control = WarpGate::with_backend(
        WarpGateConfig::default(),
        Arc::new(CdwConnector::new(warehouse(), CdwConfig::free())) as BackendHandle,
    );
    control.index_warehouse().expect("index control");

    let loaded = WarpGate::with_backend(
        WarpGateConfig::default(),
        Arc::new(CdwConnector::new(warehouse(), CdwConfig::free())) as BackendHandle,
    );
    loaded.index_warehouse().expect("index loaded");

    let noisy = TenantId::intern("overload-noisy");
    let polite = TenantId::intern("overload-polite");
    // One scan token, no refill: the second cache-miss discovery trips.
    loaded.quotas().set_quota(noisy, TenantQuota::scans(1.0, 0.0));
    loaded.quotas().set_quota(polite, TenantQuota::scans(100.0, 0.0));

    let noisy_opts = QueryOptions { tenant: Some(noisy), ..Default::default() };
    loaded
        .discover_with(&ColumnRef::new("crm", "accounts", "name"), 5, &noisy_opts)
        .expect("first call fits the bucket");
    let err = loaded
        .discover_with(&ColumnRef::new("crm", "accounts", "employees"), 5, &noisy_opts)
        .unwrap_err();
    assert!(matches!(err, StoreError::QuotaExceeded { .. }), "{err:?}");
    assert!(err.is_retryable(), "quota rejections invite a backoff-retry");

    // Every other tenant's results match the unloaded control exactly —
    // same candidates, same f32 scores.
    let polite_opts = QueryOptions { tenant: Some(polite), ..Default::default() };
    for q in [
        ColumnRef::new("crm", "leads", "company"),
        ColumnRef::new("finance", "industries", "company_name"),
    ] {
        let under_load = loaded.discover_with(&q, 5, &polite_opts).expect("polite tenant serves");
        let unloaded = control.discover(&q, 5).expect("control serves");
        assert_eq!(
            under_load.candidates, unloaded.candidates,
            "a neighbor's quota pressure must not perturb results for {q}"
        );
        assert!(!under_load.timing.degraded);
    }
    // And the noisy tenant stays rejected until its bucket refills.
    let err = loaded
        .discover_with(&ColumnRef::new("finance", "industries", "company_name"), 5, &noisy_opts)
        .unwrap_err();
    assert!(matches!(err, StoreError::QuotaExceeded { .. }), "{err:?}");
}

/// Counts every call that reaches the backend; once armed, a column scan
/// parks between two barriers so a test can hold an admission slot inside
/// the backend for as long as it needs.
struct GatedBackend {
    inner: Arc<CdwConnector>,
    calls: AtomicU64,
    armed: AtomicBool,
    entered: Barrier,
    release: Barrier,
}

impl GatedBackend {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            inner: Arc::new(CdwConnector::new(warehouse(), CdwConfig::free())),
            calls: Default::default(),
            armed: Default::default(),
            entered: Barrier::new(2),
            release: Barrier::new(2),
        })
    }

    fn count(&self) {
        self.calls.fetch_add(1, Ordering::SeqCst);
    }

    /// Count a scan, and park it while armed.
    fn scan(&self) {
        self.count();
        if self.armed.load(Ordering::SeqCst) {
            self.entered.wait();
            self.release.wait();
        }
    }
}

impl WarehouseBackend for GatedBackend {
    fn name(&self) -> String {
        self.count();
        WarehouseBackend::name(self.inner.as_ref())
    }
    fn list_tables(&self) -> Result<Vec<TableMeta>, StoreError> {
        self.count();
        self.inner.list_tables()
    }
    fn table_meta(&self, database: &str, table: &str) -> Result<TableMeta, StoreError> {
        self.count();
        WarehouseBackend::table_meta(self.inner.as_ref(), database, table)
    }
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> Result<Column, StoreError> {
        self.scan();
        self.inner.scan_column(r, sample)
    }
    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> Result<(Column, CostSnapshot), StoreError> {
        self.scan();
        self.inner.scan_column_metered(r, sample)
    }
    fn scan_table(&self, db: &str, table: &str, sample: SampleSpec) -> Result<Table, StoreError> {
        self.count();
        self.inner.scan_table(db, table, sample)
    }
    fn costs(&self) -> CostSnapshot {
        self.count();
        self.inner.costs()
    }
    fn reset_costs(&self) {
        self.count();
        self.inner.reset_costs()
    }
    fn validate_column(&self, r: &ColumnRef) -> Result<(), StoreError> {
        self.count();
        self.inner.validate_column(r)
    }
}

/// Shedding protects the warehouse: with the only admission slot held
/// inside a scan, a shed request — a `discover` refused outright, served
/// degraded from cache, or asking for a column that does not exist; a
/// batch; a `joinability` — makes zero backend calls.
#[test]
fn shed_requests_never_touch_the_backend() {
    let gated = GatedBackend::new();
    let wg = WarpGate::with_backend(
        WarpGateConfig { threads: 1, ..Default::default() }.with_admission(1, 0, 0),
        gated.clone(),
    );
    wg.index_warehouse().expect("index");
    let warm_q = ColumnRef::new("crm", "accounts", "name");
    let warm = wg.discover(&warm_q, 3).expect("warm the cache");
    gated.armed.store(true, Ordering::SeqCst);

    let cold_q = ColumnRef::new("finance", "industries", "company_name");
    let unknown = ColumnRef::new("crm", "accounts", "nope");
    let shed = |q: &ColumnRef, allow_degraded: bool| {
        wg.discover_with(q, 3, &QueryOptions { allow_degraded, ..Default::default() })
    };
    // Everything is gathered while the slot is held and judged only after
    // the holder is released, so a failed expectation cannot strand it.
    let (refused, degraded, calls_during_shedding) = std::thread::scope(|scope| {
        let holder = scope.spawn(|| wg.discover(&ColumnRef::new("crm", "leads", "company"), 3));
        // The holder now sits inside its scan, admission slot in hand.
        gated.entered.wait();
        let calls = gated.calls.load(Ordering::SeqCst);
        let plain = QueryOptions::default();
        let refused: Vec<(String, Result<(), StoreError>)> =
            [(&warm_q, false), (&cold_q, false), (&cold_q, true), (&unknown, false)]
                .map(|(q, allow_degraded)| (q.to_string(), shed(q, allow_degraded).map(drop)))
                .into_iter()
                .chain([
                    (
                        "batch".to_string(),
                        wg.discover_batch(&[warm_q.clone(), cold_q.clone()], 3, &plain).map(drop),
                    ),
                    ("joinability".to_string(), wg.joinability(&warm_q, &cold_q, &plain).map(drop)),
                ])
                .collect();
        let degraded = shed(&warm_q, true);
        let calls_during_shedding = gated.calls.load(Ordering::SeqCst) - calls;

        gated.armed.store(false, Ordering::SeqCst);
        gated.release.wait();
        holder.join().expect("holder must not panic").expect("the admitted query completes");
        (refused, degraded, calls_during_shedding)
    });

    for (what, outcome) in refused {
        assert!(matches!(outcome, Err(StoreError::Overloaded { .. })), "{what}: {outcome:?}");
    }
    let degraded = degraded.expect("warm cache answers a shed request");
    assert!(degraded.timing.degraded && degraded.timing.cache_hit);
    assert_eq!(degraded.candidates, warm.candidates);
    assert_eq!(calls_during_shedding, 0, "a shed request must not reach the backend");
    assert!(wg.admission_stats().expect("admission is on").shed_queue_full >= 7);
}

/// A tenant is debited its own scans only: a neighbour's cold discover
/// that lands on the same backend while the tenant's scan is in flight
/// bills the neighbour, never the tenant.
#[test]
fn tenant_is_debited_only_its_own_scans() {
    let gated = GatedBackend::new();
    let wg = WarpGate::with_backend(WarpGateConfig::default(), gated.clone());
    wg.index_warehouse().expect("index");
    let (a, b) = (TenantId::intern("overload-race-a"), TenantId::intern("overload-race-b"));
    let budget = TenantQuota::scans(100.0, 0.0).with_bytes(1e12, 0.0);
    wg.quotas().set_quota(a, budget);
    wg.quotas().set_quota(b, budget);
    let qa = ColumnRef::new("crm", "accounts", "name");
    let qb = ColumnRef::new("finance", "industries", "company_name");
    // What each tenant's one scan meters on its own.
    let own_bytes = |q: &ColumnRef| {
        let (_, metered) =
            gated.inner.scan_column_metered(q, WarpGateConfig::default().sample).expect("scan");
        assert_eq!(metered.requests, 1);
        metered.bytes_scanned as f64
    };
    let (bytes_a, bytes_b) = (own_bytes(&qa), own_bytes(&qb));
    assert!(bytes_a > 0.0 && bytes_b > 0.0);

    let billed = |tenant| QueryOptions { tenant: Some(tenant), ..Default::default() };
    gated.armed.store(true, Ordering::SeqCst);
    // B's outcome is judged only after A is released, so a failed
    // expectation cannot strand A's parked scan.
    let (outcome_a, outcome_b) = std::thread::scope(|scope| {
        let tenant_a = scope.spawn(|| wg.discover_with(&qa, 3, &billed(a)));
        // A now sits inside its scan.
        gated.entered.wait();
        gated.armed.store(false, Ordering::SeqCst);
        let outcome_b = wg.discover_with(&qb, 3, &billed(b));
        gated.release.wait();
        (tenant_a.join().expect("tenant A must not panic"), outcome_b)
    });
    assert!(!outcome_a.expect("A serves").timing.cache_hit);
    assert!(!outcome_b.expect("B serves").timing.cache_hit);
    assert_eq!(wg.quotas().balance(a), Some((99.0, 1e12 - bytes_a)), "A pays its own scan");
    assert_eq!(wg.quotas().balance(b), Some((99.0, 1e12 - bytes_b)), "B pays its own scan");
}
