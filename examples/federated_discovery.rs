//! Federated multi-warehouse discovery, end to end: one WarpGate node
//! spanning three warehouses under named backends — a simulated CDW, a
//! CSV data lake, and a remote warehouse reached over TCP through retry
//! middleware.
//!
//! Composition:
//!
//! ```text
//!              ┌─ "cdw"  ── CdwConnector                   (crm.*)
//! WarpGate ────┼─ "lake" ── CsvBackend                     (exports.*)
//!              └─ "partners" ── RetryBackend ── RemoteBackend ──TCP──▶
//!                                           RemoteBackendServer ── CdwConnector (ops.*)
//! ```
//!
//! The demo indexes all three namespaces into one LSH index, runs
//! cross-warehouse discovery (`discover` for all-scope; `discover_with` and
//! `QueryOptions::scoped(..)` for include- and exclude-scope), shows
//! per-backend cost attribution from a federated `sync()`, mutates one
//! warehouse and reconciles it alone with `sync_with(Some(id), ..)`, and
//! finishes with a cross-warehouse `joinability` and lookup-join
//! augmentation.
//!
//! ```text
//! cargo run --release --example federated_discovery
//! ```

use std::sync::Arc;

use warpgate::prelude::*;

fn main() {
    // --- Warehouse 1: the CDW (simulated Snowflake-style connector). ----
    let mut cdw_w = Warehouse::new("cdw");
    cdw_w.database_mut("crm").add_table(
        Table::new(
            "accounts",
            vec![
                Column::text("name", (0..60).map(|i| format!("Company {i}")).collect::<Vec<_>>()),
                Column::ints("employees", (0..60).map(|i| i * 9).collect()),
            ],
        )
        .unwrap(),
    );
    let cdw_conn = Arc::new(CdwConnector::with_defaults(cdw_w));

    // --- Warehouse 2: a CSV data lake on disk. --------------------------
    let mut lake_w = Warehouse::new("lake");
    lake_w.database_mut("exports").add_table(
        Table::new(
            "dump",
            vec![Column::text(
                "company_name",
                (0..50).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    let root = std::env::temp_dir().join(format!("wg_federated_demo_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    CsvBackend::export_warehouse(&lake_w, &root).expect("export lake to CSV");
    let lake_backend = Arc::new(CsvBackend::open(&root, CdwConfig::free()).expect("open lake"));

    // --- Warehouse 3: a partner warehouse served over TCP. --------------
    let mut partner_w = Warehouse::new("partners");
    partner_w.database_mut("ops").add_table(
        Table::new(
            "vendors",
            vec![
                Column::text(
                    "vendor",
                    (0..40).map(|i| format!("company {i} inc")).collect::<Vec<_>>(),
                ),
                Column::text(
                    "tier",
                    (0..40).map(|i| format!("Tier {}", i % 3)).collect::<Vec<_>>(),
                ),
            ],
        )
        .unwrap(),
    );
    let served: BackendHandle = Arc::new(CdwConnector::with_defaults(partner_w));
    let server = RemoteBackendServer::serve(served, "127.0.0.1:0").expect("serve partners");
    println!("partner warehouse served at {}", server.local_addr());
    let remote: BackendHandle =
        Arc::new(RemoteBackend::connect(server.local_addr().to_string()).expect("connect"));
    let resilient: BackendHandle = Arc::new(RetryBackend::with_defaults(remote));

    // --- Attach all three under names; index the federation. ------------
    let wg = WarpGate::new(WarpGateConfig::default());
    let cdw = wg.attach_named("cdw", cdw_conn.clone());
    let lake = wg.attach_named("lake", lake_backend);
    let partners = wg.attach_named("partners", resilient);
    println!(
        "attached {} backends: {:?}",
        wg.attached_backends().len(),
        wg.attached_backends().iter().map(|id| id.name()).collect::<Vec<_>>()
    );

    let report = wg.index_warehouse().expect("federated indexing");
    println!(
        "indexed {} columns across the federation ({} requests billed)\n",
        report.columns_indexed, report.cost.requests
    );

    // --- Cross-warehouse discovery. -------------------------------------
    let query = ColumnRef::scoped(cdw, "crm", "accounts", "name");
    let d = wg.discover(&query, 5).expect("all-scope discover");
    println!("discover({query}) across ALL warehouses:");
    for c in &d.candidates {
        println!("  {:.3}  {}", c.score, c.reference);
    }

    let only_lake = wg
        .discover_with(&query, 5, &QueryOptions::scoped(DiscoverScope::include([lake.bits()])))
        .expect("lake-scoped discover");
    println!("\nscoped to the lake only:");
    for c in &only_lake.candidates {
        println!("  {:.3}  {}", c.score, c.reference);
    }

    let not_partners = wg
        .discover_with(&query, 5, &QueryOptions::scoped(DiscoverScope::exclude([partners.bits()])))
        .expect("exclude-scoped discover");
    println!("\neverywhere but the partner warehouse:");
    for c in &not_partners.candidates {
        println!("  {:.3}  {}", c.score, c.reference);
    }

    // --- Per-backend sync attribution. ----------------------------------
    cdw_conn.warehouse_mut().database_mut("crm").add_table(
        Table::new(
            "accounts",
            vec![
                Column::text(
                    "name",
                    (0..70).map(|i| format!("Company {i} Holdings")).collect::<Vec<_>>(),
                ),
                Column::ints("employees", (0..70).map(|i| i * 9).collect()),
            ],
        )
        .unwrap(),
    );
    println!("\nmutated crm.accounts in the CDW; reconciling ONLY that backend:");
    let sync = wg.sync_with(Some(cdw), Deadline::none()).expect("targeted sync");
    println!(
        "  sync_with(Some(cdw), ..): {} updated, {} columns re-embedded, {} requests billed",
        sync.tables_updated, sync.columns_indexed, sync.cost.requests
    );

    let full = wg.sync().expect("federated sync");
    println!("  follow-up federated sync(): noop = {}", full.is_noop());
    for (id, slice) in &full.per_backend {
        println!("    {:10}  scans={} usd={:.6}", id.name(), slice.cost.requests, slice.cost.usd);
    }

    // --- Cross-warehouse augmentation (Fig. 3 step 3). ------------------
    let base = cdw_conn.warehouse().table("crm", "accounts").expect("base table").clone();
    let candidate = ColumnRef::scoped(partners, "ops", "vendors", "vendor");
    let j = wg
        .joinability(&query, &candidate, &QueryOptions::default())
        .expect("cross-warehouse joinability");
    println!("\njoinability({query}, {candidate}) = {j:.3}");

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
    println!("\nbase table has {} rows; federation demo complete", base.num_rows());
}
