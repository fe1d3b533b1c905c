//! Federated sync bench (ISSUE 6): three named warehouses behind one
//! system; mutate 1 table in 1 of them and measure what reconciliation
//! costs.
//!
//! Custom harness (like `incremental_sync`): attaches three simulated-CDW
//! warehouses as named backends, then compares a federated `sync()`
//! (diffs all three, re-scans only the change set) against a targeted
//! `sync_with(Some(id), ..)` on the mutated warehouse alone, asserting via each
//! backend's CostMeter that the untouched warehouses are never scanned.
//! Records medians and the per-backend scan attribution into the
//! repo-root `BENCH_core.json` as a `"federated_sync"` section.
//!
//! `WG_BENCH_QUICK=1` shrinks repetitions for CI smoke runs and leaves
//! the committed snapshot untouched.

use std::sync::Arc;
use std::time::Instant;

use warpgate_core::{WarpGate, WarpGateConfig};
use wg_bench::median;
use wg_store::{
    BackendHandle, BackendId, CdwConfig, CdwConnector, Column, ColumnRef, Table, Warehouse,
};

const WAREHOUSES: usize = 3;
const TABLES_PER_WAREHOUSE: usize = 12;
const COLUMNS_PER_TABLE: usize = 4;
const ROWS: usize = 120;

fn warehouse(wi: usize) -> Warehouse {
    let mut w = Warehouse::new(format!("wh{wi}"));
    for t in 0..TABLES_PER_WAREHOUSE {
        let mut cols = Vec::with_capacity(COLUMNS_PER_TABLE);
        for c in 0..COLUMNS_PER_TABLE {
            cols.push(Column::text(
                format!("col{c}"),
                (0..ROWS).map(|r| format!("entity {wi} {t} {c} {r}")).collect::<Vec<_>>(),
            ));
        }
        w.database_mut(&format!("db{}", t % 2))
            .add_table(Table::new(format!("t{t}"), cols).unwrap());
    }
    w
}

fn mutate_one_table(connector: &CdwConnector, generation: usize) {
    // New content for warehouse 0's table t0 only.
    let cols: Vec<Column> = (0..COLUMNS_PER_TABLE)
        .map(|c| {
            Column::text(
                format!("col{c}"),
                (0..ROWS).map(|r| format!("fresh {generation} {c} {r}")).collect::<Vec<_>>(),
            )
        })
        .collect();
    connector.warehouse_mut().database_mut("db0").add_table(Table::new("t0", cols).unwrap());
}

fn main() {
    let quick = std::env::var("WG_BENCH_QUICK").is_ok();
    let reps = if quick { 2 } else { 7 };

    let connectors: Vec<Arc<CdwConnector>> = (0..WAREHOUSES)
        .map(|wi| Arc::new(CdwConnector::new(warehouse(wi), CdwConfig::free())))
        .collect();
    let config = WarpGateConfig { threads: 2, ..Default::default() };
    let wg = WarpGate::new(config);
    let names: Vec<String> = (0..WAREHOUSES).map(|wi| format!("bench-wh{wi}")).collect();
    for (name, c) in names.iter().zip(&connectors) {
        let backend: BackendHandle = c.clone();
        wg.attach_named(name, backend);
    }
    let mutated = BackendId::named(&names[0]);
    wg.index_warehouse().expect("initial federated indexing");
    let columns_total = wg.len();

    let mut federated_secs = Vec::with_capacity(reps);
    let mut targeted_secs = Vec::with_capacity(reps);
    let mut scan_requests = 0u64;
    for generation in 0..reps {
        // Federated sync(): diffs every warehouse, re-scans only the
        // mutated table. The untouched warehouses bill version-token
        // fetches but zero column scans.
        mutate_one_table(&connectors[0], 2 * generation);
        for c in &connectors {
            c.reset_costs();
        }
        let sw = Instant::now();
        let report = wg.sync().expect("federated sync");
        federated_secs.push(sw.elapsed().as_secs_f64());
        assert_eq!(report.tables_updated, 1, "exactly one table changed");
        assert_eq!(report.columns_indexed, COLUMNS_PER_TABLE);
        assert_eq!(connectors[0].costs().requests as usize, COLUMNS_PER_TABLE);
        for c in &connectors[1..] {
            assert_eq!(c.costs().requests, 0, "unchanged warehouses must not re-scan");
        }
        let mutated_slice = report
            .per_backend
            .iter()
            .find(|(_, r)| !r.is_noop())
            .map(|(_, r)| r.clone())
            .expect("the mutated warehouse has a non-noop slice");
        assert_eq!(mutated_slice.cost.requests as usize, COLUMNS_PER_TABLE);
        scan_requests = report.cost.requests;

        // Targeted sync_with(Some(id), ..): skips even the other warehouses'
        // version-token fetches.
        mutate_one_table(&connectors[0], 2 * generation + 1);
        for c in &connectors {
            c.reset_costs();
        }
        let sw = Instant::now();
        let report = wg.sync_with(Some(mutated), wg_util::Deadline::none()).expect("targeted sync");
        targeted_secs.push(sw.elapsed().as_secs_f64());
        assert_eq!(report.tables_updated, 1);
        for c in &connectors[1..] {
            assert_eq!(c.costs().requests, 0);
        }
    }

    // Correctness spot check: the converged index ranks like a rebuild.
    let fresh = WarpGate::new(config);
    for (name, c) in names.iter().zip(&connectors) {
        let backend: BackendHandle = c.clone();
        fresh.attach_named(name, backend);
    }
    fresh.index_warehouse().expect("fresh rebuild");
    let q = ColumnRef::scoped(BackendId::named(&names[0]), "db0", "t0", "col0");
    let a = wg.discover(&q, 5).expect("synced discover").candidates;
    let b = fresh.discover(&q, 5).expect("fresh discover").candidates;
    assert_eq!(a, b, "federated sync diverged from a from-scratch rebuild");

    let federated_median = median(&mut federated_secs);
    let targeted_median = median(&mut targeted_secs);
    println!(
        "bench: federated_sync/1_table_of_{WAREHOUSES}_warehouses ... sync() {:.1}ms, sync_with(Some(id)) {:.1}ms, {scan_requests} cols scanned ({columns_total} cols indexed)",
        federated_median * 1e3,
        targeted_median * 1e3,
    );

    let section = format!(
        r#"{{
    "bench": "federated_sync",
    "generated_by": "cargo bench --bench federated_sync",
    "workload": {{
      "warehouses": {WAREHOUSES},
      "tables_per_warehouse": {TABLES_PER_WAREHOUSE},
      "columns_per_table": {COLUMNS_PER_TABLE},
      "rows_per_column": {ROWS},
      "mutated_tables": 1,
      "repetitions": {reps}
    }},
    "federated_sync_secs_median": {federated_median:.6},
    "targeted_sync_backend_secs_median": {targeted_median:.6},
    "mutated_backend_scan_requests": {scan_requests},
    "unchanged_backend_scan_requests": 0
  }}"#,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
    if quick {
        println!("bench: federated_sync ... quick mode, not rewriting {path}");
        return;
    }
    wg_bench::merge_bench_section(path, "federated_sync", &section);
    println!("bench: federated_sync ... snapshot written to {path}");
}
