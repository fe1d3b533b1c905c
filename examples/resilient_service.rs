//! The resilient service stack, end to end: a WarpGate node indexing a
//! warehouse it only reaches over the network, through retrying
//! middleware, kept fresh by the scheduled-sync daemon.
//!
//! Composition (outermost first):
//!
//! ```text
//! WarpGate ── RetryBackend ── RemoteBackend ──TCP──▶ RemoteBackendServer
//!                                                        └─ FaultInjector ── CdwConnector
//! ```
//!
//! The fault injector on the *server* side fails every 3rd scan — a flaky
//! warehouse — and the client-side retry layer rides the failures out with
//! exponential backoff. A `SyncDaemon` then picks up a data change without
//! any manual `sync()` call.
//!
//! ```text
//! cargo run --release --example resilient_service
//! ```

use std::sync::Arc;
use std::time::Duration;

use warpgate::prelude::*;

fn main() {
    // --- The "warehouse side": a flaky CDW served over TCP. -------------
    let mut warehouse = Warehouse::new("prod");
    warehouse.database_mut("crm").add_table(
        Table::new(
            "accounts",
            vec![
                Column::text("name", (0..60).map(|i| format!("Company {i}")).collect::<Vec<_>>()),
                Column::ints("employees", (0..60).map(|i| i * 9).collect()),
            ],
        )
        .unwrap(),
    );
    warehouse.database_mut("finance").add_table(
        Table::new(
            "industries",
            vec![Column::text(
                "company_name",
                (0..50).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );

    let connector = Arc::new(CdwConnector::with_defaults(warehouse));
    let cdw: BackendHandle = connector.clone();
    let flaky: BackendHandle = Arc::new(FaultInjector::new(cdw, FaultPlan::fail_every(3)));
    let server = RemoteBackendServer::serve(flaky, "127.0.0.1:0").expect("serve");
    println!("warehouse served at {} (every 3rd scan fails)", server.local_addr());

    // --- The "discovery side": remote + retry middleware. ---------------
    let remote: BackendHandle =
        Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect"));
    let resilient: BackendHandle = Arc::new(RetryBackend::new(
        remote,
        RetryPolicy { base_delay_secs: 0.01, ..RetryPolicy::default() },
    ));

    let wg = Arc::new(WarpGate::with_backend(WarpGateConfig::default(), resilient.clone()));
    let report = wg.index_warehouse().expect("indexing survives the flaky link");
    println!(
        "indexed {} columns over the flaky link: {} scans billed, {} attempts retried, \
         {:.3}s virtual latency (CDW + backoff)",
        report.columns_indexed, report.cost.requests, report.cost.retries, report.cost.virtual_secs,
    );

    let query = ColumnRef::new("crm", "accounts", "name");
    let discovery = wg.discover(&query, 3).expect("discovery");
    println!("\ntop candidates for {query}:");
    for c in &discovery.candidates {
        println!("  {:<35} score {:.3}", c.reference.to_string(), c.score);
    }

    // --- The service loop: a daemon keeps the index fresh. ---------------
    let daemon = SyncDaemon::spawn(
        wg.clone(),
        SyncDaemonConfig::default().with_interval(Duration::from_millis(50)),
    );

    // The warehouse changes behind everyone's back…
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
    println!("\nadded crm.leads on the server; waiting for the daemon to notice…");
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        daemon.wake();
        std::thread::sleep(Duration::from_millis(20));
        if daemon.report().tables_added >= 1 || std::time::Instant::now() > deadline {
            break;
        }
    }

    let r = daemon.shutdown();
    println!(
        "daemon: {} ticks, {} syncs ok, {} failed, {} tables picked up, {} retries across syncs",
        r.ticks, r.syncs_ok, r.syncs_failed, r.tables_added, r.cost.retries,
    );
    let after = wg.discover(&query, 5).expect("discovery after sync");
    println!("\ncandidates after the daemon synced:");
    for c in &after.candidates {
        println!("  {:<35} score {:.3}", c.reference.to_string(), c.score);
    }
    server.shutdown();
    println!("\nclean shutdown: server joined, daemon joined.");
}
