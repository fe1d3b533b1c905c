//! Service-loop acceptance: a `SyncDaemon` against a mutating backend
//! converges the index to the rebuilt-from-scratch state without any
//! manual `sync()` call, with retries and circuit-breaker transitions
//! visible in its report.

use std::sync::Arc;
use std::time::{Duration, Instant};

use warpgate::prelude::*;

fn warehouse() -> Warehouse {
    let mut w = Warehouse::new("live");
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
            vec![Column::text(
                "company_name",
                (0..45).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    w
}

fn fast_daemon_config() -> SyncDaemonConfig {
    SyncDaemonConfig {
        interval: Duration::from_millis(5),
        failure_threshold: 2,
        open_intervals: 2,
        checkpoint: None,
        tick_deadline: None,
    }
}

/// Poll the daemon's report until `pred` holds (waking it each round so
/// wall-clock stays short) or fail loudly.
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
fn daemon_converges_to_the_rebuilt_from_scratch_state() {
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let backend: BackendHandle = connector.clone();
    let config = WarpGateConfig { threads: 1, ..WarpGateConfig::default() };

    let wg = Arc::new(WarpGate::with_backend(config, backend.clone()));
    wg.index_warehouse().expect("initial index");
    let daemon = SyncDaemon::spawn(wg.clone(), fast_daemon_config());

    // The warehouse mutates in every way sync must handle: changed
    // content, a brand-new table, a dropped table.
    {
        let mut w = connector.warehouse_mut();
        w.database_mut("crm").add_table(
            Table::new(
                "leads",
                vec![Column::text(
                    "company",
                    (0..30).map(|i| format!("Fresh Lead {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        w.database_mut("ops").add_table(
            Table::new(
                "tickets",
                vec![Column::text(
                    "subject",
                    (0..25).map(|i| format!("Ticket {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        w.database_mut("finance").remove_table("industries");
    }

    // No manual sync(): the daemon must pick all of it up.
    let r = wait_for(&daemon, |r| {
        r.tables_updated >= 1 && r.tables_added >= 1 && r.tables_removed >= 1
    });
    assert!(r.is_healthy(), "daemon unhealthy after converging: {r:?}");
    let final_report = daemon.shutdown();
    assert_eq!(final_report.syncs_failed, 0);
    assert_eq!(final_report.circuit, CircuitState::Closed);

    // The daemon-maintained index must rank identically to a system
    // rebuilt from scratch over the mutated warehouse.
    let fresh = WarpGate::with_backend(config, backend);
    fresh.index_warehouse().expect("fresh rebuild");
    assert_eq!(wg.len(), fresh.len(), "index sizes diverged");
    for q in [
        ColumnRef::new("crm", "accounts", "name"),
        ColumnRef::new("crm", "leads", "company"),
        ColumnRef::new("ops", "tickets", "subject"),
    ] {
        let via_daemon = wg.discover(&q, 5).expect("daemon-maintained discover").candidates;
        let via_fresh = fresh.discover(&q, 5).expect("fresh discover").candidates;
        assert_eq!(via_daemon, via_fresh, "daemon-converged index diverged on {q}");
    }
}

#[test]
fn daemon_report_shows_retries_from_the_middleware_stack() {
    // Stack: RetryBackend(FaultInjector(CdwConnector)). Every 3rd scan
    // faults; the retry layer absorbs the faults, so the daemon's syncs
    // succeed — but the retries surface in its cumulative cost.
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let inner: BackendHandle = connector.clone();
    let flaky: BackendHandle = Arc::new(FaultInjector::new(inner, FaultPlan::fail_every(3)));
    let resilient: BackendHandle = Arc::new(RetryBackend::new(
        flaky,
        RetryPolicy { base_delay_secs: 0.001, ..RetryPolicy::default() },
    ));

    // Nothing indexed yet: the daemon's first sync does the full load
    // (scans → faults → retries).
    let wg = Arc::new(WarpGate::with_backend(
        WarpGateConfig { threads: 1, ..WarpGateConfig::default() },
        resilient,
    ));
    let daemon = SyncDaemon::spawn(wg.clone(), fast_daemon_config());
    let r = wait_for(&daemon, |r| r.syncs_ok >= 1);
    assert_eq!(r.tables_added as usize, 3, "first sync indexes the whole warehouse");
    assert!(r.cost.retries >= 1, "retries must be visible in the daemon report: {r:?}");
    assert!(r.cost.virtual_secs > 0.0, "backoff latency must be charged: {r:?}");
    assert_eq!(wg.len(), 4, "all columns indexed despite the faults");
    daemon.shutdown();
}

#[test]
fn circuit_breaker_transitions_are_visible_and_recoverable() {
    // A backend that fails *every* scan, behind a retry layer whose
    // budget is too small to save it: syncs fail, the circuit opens. Then
    // the backend heals and the half-open probe closes the circuit.
    let connector = Arc::new(CdwConnector::new(warehouse(), CdwConfig::free()));
    let healthy: BackendHandle = connector.clone();
    let dead: BackendHandle =
        Arc::new(FaultInjector::new(healthy.clone(), FaultPlan::fail_every(1)));
    let stack: BackendHandle = Arc::new(RetryBackend::new(
        dead,
        RetryPolicy { max_attempts: 2, base_delay_secs: 0.001, ..RetryPolicy::default() },
    ));

    let wg = Arc::new(WarpGate::with_backend(
        WarpGateConfig { threads: 1, ..WarpGateConfig::default() },
        stack,
    ));
    let daemon = SyncDaemon::spawn(wg.clone(), fast_daemon_config());

    // Failures mount; the circuit opens; open ticks skip syncing.
    let r = wait_for(&daemon, |r| r.circuit_opened >= 1 && r.skipped_while_open >= 1);
    assert!(r.syncs_failed >= 2, "threshold is 2: {r:?}");
    let err = r.last_error.as_deref().unwrap_or("");
    assert!(err.contains("retries exhausted"), "retry exhaustion must be reported: {err}");

    // Heal: swap in the healthy backend. The next probe closes the
    // circuit and the index converges.
    wg.attach_named(warpgate::util::names::DEFAULT_NAME, healthy);
    let r = wait_for(&daemon, |r| r.circuit == CircuitState::Closed && r.syncs_ok >= 1);
    assert!(r.circuit_closed >= 1, "recovery must pass through half-open: {r:?}");
    assert_eq!(wg.len(), 4, "index converged after recovery");
    daemon.shutdown();
}
