//! Simulated cloud data warehouse connector.
//!
//! The paper's efficiency analysis hinges on two CDW realities that a plain
//! in-memory store would hide:
//!
//! 1. **Loading is real work.** Pulling a column out of a CDW serializes it,
//!    moves it over the network, and parses it. Every scan here round-trips
//!    the requested rows through the store's wire codec, so load cost is
//!    genuine CPU time proportional to bytes moved — this is what makes
//!    Table 2's "loading dominates end-to-end response time" reproducible.
//! 2. **Scans are billed.** Vendors charge per byte scanned (§3.1.3), which
//!    is why WarpGate samples. The [`CostMeter`] accumulates requests, bytes,
//!    *virtual* network latency (per-request + per-MB, not slept, so
//!    benchmarks stay fast) and dollars at a configurable $/TB rate.
//!
//! Sampling is pushed into the connector ([`CdwConnector::scan_column`]
//! takes a [`SampleSpec`]) so a sampled scan genuinely serializes fewer
//! bytes — exactly the cost structure the paper's §4.4 exploits.
//!
//! `CdwConnector` is one implementation of [`crate::WarehouseBackend`];
//! the warehouse sits behind a lock so a shared handle supports catalog
//! refreshes (`warehouse_mut`) while indexing threads scan.

use std::sync::atomic::{AtomicU64, Ordering};

use wg_util::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::backend::{TableMeta, TableVersion, WarehouseBackend};
use crate::catalog::{ColumnRef, Warehouse};
use crate::column::Column;
use crate::error::StoreResult;
use crate::sample::SampleSpec;
use crate::table::Table;

/// Latency & pricing model for the simulated CDW.
#[derive(Debug, Clone, Copy)]
pub struct CdwConfig {
    /// Virtual round-trip latency charged per scan request, seconds.
    pub per_request_secs: f64,
    /// Virtual transfer latency charged per megabyte scanned, seconds.
    pub per_mb_secs: f64,
    /// Usage-based price per terabyte scanned, dollars (pay-as-you-go).
    pub usd_per_tb: f64,
}

impl Default for CdwConfig {
    fn default() -> Self {
        // Modeled on interactive result-set pulls from a same-region
        // warehouse: a small fixed round trip (~2 ms) plus ~1 s/MB
        // effective throughput — the latter deliberately folds in the
        // CDW-side scan/queue overhead, which is what makes *loading*
        // dominate end-to-end discovery latency exactly as the paper's
        // Table 2 observes. $5/TB scanned (BigQuery-like pricing).
        Self { per_request_secs: 0.002, per_mb_secs: 1.0, usd_per_tb: 5.0 }
    }
}

impl CdwConfig {
    /// A config with zero virtual latency and zero price — useful in unit
    /// tests that only care about data movement.
    pub fn free() -> Self {
        Self { per_request_secs: 0.0, per_mb_secs: 0.0, usd_per_tb: 0.0 }
    }
}

/// Thread-safe accumulator of scan costs.
#[derive(Debug, Default)]
pub struct CostMeter {
    requests: AtomicU64,
    bytes: AtomicU64,
    /// Virtual latency in nanoseconds (stored integrally for atomicity).
    virtual_nanos: AtomicU64,
}

impl CostMeter {
    /// Record one scan request of `bytes` serialized bytes under the given
    /// pricing model. Returns exactly what this request added, in the
    /// units [`Self::snapshot`] reports.
    pub fn charge(&self, config: &CdwConfig, bytes: usize) -> CostSnapshot {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        let secs =
            config.per_request_secs + config.per_mb_secs * (bytes as f64 / (1u64 << 20) as f64);
        let nanos = (secs * 1e9) as u64;
        self.virtual_nanos.fetch_add(nanos, Ordering::Relaxed);
        CostSnapshot {
            requests: 1,
            bytes_scanned: bytes as u64,
            virtual_secs: nanos as f64 / 1e9,
            usd: bytes as f64 / 1e12 * config.usd_per_tb,
            retries: 0,
        }
    }

    /// Snapshot the counters.
    pub fn snapshot(&self, config: &CdwConfig) -> CostSnapshot {
        let bytes = self.bytes.load(Ordering::Relaxed);
        CostSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            bytes_scanned: bytes,
            virtual_secs: self.virtual_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            usd: bytes as f64 / 1e12 * config.usd_per_tb,
            retries: 0,
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.virtual_nanos.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time view of accumulated scan costs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostSnapshot {
    /// Number of scan requests issued.
    pub requests: u64,
    /// Total bytes serialized over the simulated wire.
    pub bytes_scanned: u64,
    /// Accumulated virtual network latency, seconds.
    pub virtual_secs: f64,
    /// Accumulated usage cost, dollars.
    pub usd: f64,
    /// Retried calls recorded by retry middleware in the backend stack
    /// (0 for bare backends). Each unit is one repeated attempt; the
    /// backoff delay those retries cost is folded into `virtual_secs`.
    pub retries: u64,
}

impl CostSnapshot {
    /// Difference since an earlier snapshot. Saturating: a meter reset
    /// between the two snapshots yields zeros for the affected counters,
    /// never negative deltas (or an underflow panic).
    pub fn since(&self, earlier: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            requests: self.requests.saturating_sub(earlier.requests),
            bytes_scanned: self.bytes_scanned.saturating_sub(earlier.bytes_scanned),
            virtual_secs: (self.virtual_secs - earlier.virtual_secs).max(0.0),
            usd: (self.usd - earlier.usd).max(0.0),
            retries: self.retries.saturating_sub(earlier.retries),
        }
    }

    /// Element-wise sum (used by wrapper backends that add their own
    /// charges on top of an inner backend's).
    pub fn plus(&self, other: &CostSnapshot) -> CostSnapshot {
        CostSnapshot {
            requests: self.requests + other.requests,
            bytes_scanned: self.bytes_scanned + other.bytes_scanned,
            virtual_secs: self.virtual_secs + other.virtual_secs,
            usd: self.usd + other.usd,
            retries: self.retries + other.retries,
        }
    }
}

/// Serialize a sampled column through the wire codec, charge the meter for
/// the bytes moved, and parse it back — the round trip every scan of a
/// remote warehouse pays. Shared by [`CdwConnector`] and
/// [`crate::CsvBackend`] so both bill identically. Returns the column with
/// the charge this scan added to `meter`.
pub(crate) fn wire_scan_column(
    column: &Column,
    sample: SampleSpec,
    config: &CdwConfig,
    meter: &CostMeter,
) -> StoreResult<(Column, CostSnapshot)> {
    let sampled = sample.apply(column);
    let mut wire = Vec::with_capacity(sampled.approx_bytes() + 64);
    sampled.encode(&mut wire);
    let charge = meter.charge(config, wire.len());
    let mut cursor = &wire[..];
    Ok((Column::decode(&mut cursor)?, charge))
}

/// Table-granularity variant of [`wire_scan_column`]: one request, all
/// columns share the row sample.
pub(crate) fn wire_scan_table(
    table: &Table,
    sample: SampleSpec,
    config: &CdwConfig,
    meter: &CostMeter,
) -> StoreResult<Table> {
    let sampled = sample.apply_table(table);
    let mut wire = Vec::with_capacity(sampled.approx_bytes() + 64);
    wg_util::codec::put_len(&mut wire, sampled.num_columns());
    for c in sampled.columns() {
        c.encode(&mut wire);
    }
    meter.charge(config, wire.len());
    let mut cursor = &wire[..];
    let n = wg_util::codec::get_len(&mut cursor)?;
    let mut cols = Vec::with_capacity(n);
    for _ in 0..n {
        cols.push(Column::decode(&mut cursor)?);
    }
    Table::new(sampled.name(), cols)
}

/// Connector to a (simulated) cloud data warehouse.
///
/// Owns the warehouse plus the metering state; share it as
/// `Arc<CdwConnector>` (or a [`crate::BackendHandle`]) across as many
/// indexing threads as needed — the meter is atomic and the catalog sits
/// behind a read/write lock so refreshes ([`Self::warehouse_mut`]) work
/// through a shared handle.
pub struct CdwConnector {
    warehouse: RwLock<Warehouse>,
    config: CdwConfig,
    meter: CostMeter,
}

impl std::fmt::Debug for CdwConnector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CdwConnector")
            .field("warehouse", &self.warehouse.read().name().to_string())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl CdwConnector {
    /// Wrap a warehouse with the given latency/pricing model.
    pub fn new(warehouse: Warehouse, config: CdwConfig) -> Self {
        Self { warehouse: RwLock::new(warehouse), config, meter: CostMeter::default() }
    }

    /// Wrap with the default model.
    pub fn with_defaults(warehouse: Warehouse) -> Self {
        Self::new(warehouse, CdwConfig::default())
    }

    /// Catalog access (schema browsing is free: metadata queries are not
    /// billed as scans by CDW vendors). Returns a read guard — hold it
    /// only for the duration of the lookup.
    pub fn warehouse(&self) -> RwLockReadGuard<'_, Warehouse> {
        self.warehouse.read()
    }

    /// Mutable catalog access for data refresh scenarios. Works through a
    /// shared handle: concurrent scans block until the refresh is done.
    pub fn warehouse_mut(&self) -> RwLockWriteGuard<'_, Warehouse> {
        self.warehouse.write()
    }

    /// The latency/pricing model.
    pub fn config(&self) -> &CdwConfig {
        &self.config
    }

    /// Scan one column with sampling pushed down. The returned column went
    /// through a serialize/deserialize round trip, exactly like data pulled
    /// from a real warehouse.
    pub fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        self.scan_column_metered(r, sample).map(|(column, ..)| column)
    }

    /// Scan a whole table (one request; all columns share the row sample).
    pub fn scan_table(
        &self,
        database: &str,
        table: &str,
        sample: SampleSpec,
    ) -> StoreResult<Table> {
        let warehouse = self.warehouse.read();
        let t = warehouse.table(database, table)?;
        wire_scan_table(t, sample, &self.config, &self.meter)
    }

    /// Current accumulated costs.
    pub fn costs(&self) -> CostSnapshot {
        self.meter.snapshot(&self.config)
    }

    /// Zero the meter (e.g. between indexing and query phases so each can
    /// be billed separately).
    pub fn reset_costs(&self) {
        self.meter.reset();
    }
}

impl WarehouseBackend for CdwConnector {
    fn name(&self) -> String {
        self.warehouse.read().name().to_string()
    }

    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        Ok(self.warehouse.read().table_metas())
    }

    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        self.warehouse.read().table_meta(database, table)
    }

    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        CdwConnector::scan_column(self, r, sample)
    }

    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(Column, CostSnapshot, u64)> {
        // One read guard: the version is of exactly the content scanned.
        let warehouse = self.warehouse.read();
        let (col, version) = warehouse.versioned_column(r)?;
        let (column, cost) = wire_scan_column(col, sample, &self.config, &self.meter)?;
        Ok((column, cost, version))
    }

    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        CdwConnector::scan_table(self, database, table, sample)
    }

    fn costs(&self) -> CostSnapshot {
        CdwConnector::costs(self)
    }

    fn reset_costs(&self) {
        CdwConnector::reset_costs(self)
    }

    fn validate_column(&self, r: &ColumnRef) -> StoreResult<()> {
        // Cheaper than the default table_meta path: one catalog lookup.
        self.warehouse.read().column(r).map(|_| ())
    }

    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        // Cheaper than the default list_tables path: no column names.
        Ok(self.warehouse.read().table_versions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;
    use crate::column::Column;

    fn connector() -> CdwConnector {
        let mut w = Warehouse::new("test");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "t",
                vec![
                    Column::text(
                        "name",
                        (0..1000).map(|i| format!("value_{i}")).collect::<Vec<_>>(),
                    ),
                    Column::ints("n", (0..1000).collect()),
                ],
            )
            .unwrap(),
        );
        w.add_database(db);
        CdwConnector::new(w, CdwConfig::default())
    }

    #[test]
    fn scan_roundtrips_data() {
        let c = connector();
        let col = c.scan_column(&ColumnRef::new("db", "t", "name"), SampleSpec::Full).unwrap();
        assert_eq!(col.len(), 1000);
        assert_eq!(col.get(5).to_string(), "value_5");
    }

    #[test]
    fn sampling_reduces_bytes_billed() {
        let c = connector();
        let r = ColumnRef::new("db", "t", "name");
        c.scan_column(&r, SampleSpec::Full).unwrap();
        let full = c.costs();
        c.reset_costs();
        c.scan_column(&r, SampleSpec::Head(10)).unwrap();
        let sampled = c.costs();
        assert!(
            sampled.bytes_scanned * 10 < full.bytes_scanned,
            "sampled {} vs full {}",
            sampled.bytes_scanned,
            full.bytes_scanned
        );
        assert!(sampled.virtual_secs < full.virtual_secs);
    }

    #[test]
    fn meter_counts_requests_and_dollars() {
        let c = connector();
        let r = ColumnRef::new("db", "t", "n");
        for _ in 0..3 {
            c.scan_column(&r, SampleSpec::Full).unwrap();
        }
        let s = c.costs();
        assert_eq!(s.requests, 3);
        assert!(s.bytes_scanned > 3 * 8000);
        assert!(s.usd > 0.0);
        // 3 requests at 2 ms minimum plus per-byte transfer.
        assert!(s.virtual_secs >= 0.006);
    }

    #[test]
    fn snapshot_since() {
        let c = connector();
        let r = ColumnRef::new("db", "t", "n");
        c.scan_column(&r, SampleSpec::Full).unwrap();
        let a = c.costs();
        c.scan_column(&r, SampleSpec::Full).unwrap();
        let b = c.costs();
        let d = b.since(&a);
        assert_eq!(d.requests, 1);
    }

    #[test]
    fn since_reports_exact_deltas() {
        // Direct CostSnapshot::since coverage: every field is the
        // component-wise difference.
        let a = CostSnapshot {
            requests: 2,
            bytes_scanned: 100,
            virtual_secs: 0.5,
            usd: 0.01,
            retries: 1,
        };
        let b = CostSnapshot {
            requests: 5,
            bytes_scanned: 350,
            virtual_secs: 1.25,
            usd: 0.04,
            retries: 3,
        };
        let d = b.since(&a);
        assert_eq!(d.requests, 3);
        assert_eq!(d.bytes_scanned, 250);
        assert!((d.virtual_secs - 0.75).abs() < 1e-12);
        assert!((d.usd - 0.03).abs() < 1e-12);
        assert_eq!(d.retries, 2);
        // since(self) is zero.
        assert_eq!(b.since(&b), CostSnapshot::default());
        // plus is component-wise, retries included.
        assert_eq!(a.plus(&b).retries, 4);
    }

    #[test]
    fn since_saturates_when_meter_was_reset_in_between() {
        let c = connector();
        let r = ColumnRef::new("db", "t", "n");
        for _ in 0..5 {
            c.scan_column(&r, SampleSpec::Full).unwrap();
        }
        let before = c.costs();
        c.reset_costs();
        c.scan_column(&r, SampleSpec::Full).unwrap();
        let after = c.costs();
        // `after` is numerically below `before`; the delta must clamp to
        // zero rather than underflow.
        let d = after.since(&before);
        assert_eq!(d.requests, 0);
        assert_eq!(d.bytes_scanned, 0);
        assert_eq!(d.virtual_secs, 0.0);
        assert_eq!(d.usd, 0.0);
    }

    #[test]
    fn reset_racing_concurrent_scans_never_goes_negative() {
        // CostMeter::reset racing scans: snapshots taken while another
        // thread resets must never produce negative deltas, and the final
        // state stays consistent (requests/bytes both from post-reset
        // scans only, never a torn mixture with more requests than bytes
        // can account for).
        let c = std::sync::Arc::new(connector());
        let r = ColumnRef::new("db", "t", "n");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = std::sync::Arc::clone(&c);
                let r = r.clone();
                scope.spawn(move || {
                    let mut last = c.costs();
                    for _ in 0..50 {
                        c.scan_column(&r, SampleSpec::Full).unwrap();
                        let now = c.costs();
                        // Saturating `since` guarantees no negative deltas
                        // even when a reset landed between the snapshots.
                        let d = now.since(&last);
                        assert!(d.virtual_secs >= 0.0);
                        assert!(d.usd >= 0.0);
                        last = now;
                    }
                });
            }
            let c = std::sync::Arc::clone(&c);
            scope.spawn(move || {
                for _ in 0..25 {
                    c.reset_costs();
                    std::hint::spin_loop();
                }
            });
        });
        let end = c.costs();
        assert!(end.requests <= 200, "requests can only shrink via reset");
        assert!(end.virtual_secs >= 0.0 && end.usd >= 0.0);
    }

    #[test]
    fn scan_table_keeps_alignment() {
        let c = connector();
        let t = c.scan_table("db", "t", SampleSpec::Reservoir { n: 10, seed: 1 }).unwrap();
        assert_eq!(t.num_rows(), 10);
        for r in 0..10 {
            let name = t.column("name").unwrap().get(r).to_string();
            let n = t.column("n").unwrap().get(r).to_string();
            assert_eq!(name, format!("value_{n}"));
        }
    }

    #[test]
    fn missing_column_errors() {
        let c = connector();
        assert!(c.scan_column(&ColumnRef::new("db", "t", "nope"), SampleSpec::Full).is_err());
    }

    #[test]
    fn free_config_zero_cost() {
        let mut w = Warehouse::new("w");
        w.database_mut("d").add_table(Table::new("t", vec![Column::ints("x", vec![1])]).unwrap());
        let c = CdwConnector::new(w, CdwConfig::free());
        c.scan_column(&ColumnRef::new("d", "t", "x"), SampleSpec::Full).unwrap();
        let s = c.costs();
        assert_eq!(s.virtual_secs, 0.0);
        assert_eq!(s.usd, 0.0);
        assert_eq!(s.requests, 1);
    }

    #[test]
    fn warehouse_mut_works_through_shared_handle() {
        let c = connector();
        c.warehouse_mut()
            .database_mut("db")
            .add_table(Table::new("extra", vec![Column::ints("x", vec![1, 2])]).unwrap());
        assert_eq!(c.warehouse().num_tables(), 2);
        let col = c.scan_column(&ColumnRef::new("db", "extra", "x"), SampleSpec::Full).unwrap();
        assert_eq!(col.len(), 2);
    }

    #[test]
    fn backend_surface_matches_catalog() {
        let c = connector();
        let b: &dyn WarehouseBackend = &c;
        assert_eq!(b.name(), "test");
        let metas = b.list_tables().unwrap();
        assert_eq!(metas.len(), 1);
        assert_eq!(metas[0].columns, vec!["name", "n"]);
        let versions = b.snapshot_versions().unwrap();
        assert_eq!(versions[0].version, metas[0].version);
        // Mutating the table through the connector changes the token.
        c.warehouse_mut()
            .database_mut("db")
            .add_table(Table::new("t", vec![Column::ints("n", vec![9])]).unwrap());
        let fresh = b.snapshot_versions().unwrap();
        assert_ne!(fresh[0].version, versions[0].version);
    }

    #[test]
    fn snapshot_versions_are_list_tables_projected() {
        let c = connector();
        let b: &dyn WarehouseBackend = &c;
        let projected = || -> Vec<TableVersion> {
            b.list_tables()
                .unwrap()
                .into_iter()
                .map(|m| TableVersion { database: m.database, table: m.table, version: m.version })
                .collect()
        };
        {
            let mut w = c.warehouse_mut();
            let db = w.database_mut("db");
            for name in ["a", "b", "c"] {
                db.add_table(Table::new(name, vec![Column::ints("x", vec![1])]).unwrap());
            }
            w.database_mut("other")
                .add_table(Table::new("z", vec![Column::text("y", ["q"])]).unwrap());
        }
        assert_eq!(b.snapshot_versions().unwrap(), projected());
        {
            let mut w = c.warehouse_mut();
            let db = w.database_mut("db");
            db.add_table(Table::new("a", vec![Column::ints("x", vec![2, 3])]).unwrap());
            db.remove_table("b").unwrap();
        }
        let versions = b.snapshot_versions().unwrap();
        assert_eq!(versions, projected());
        let names: Vec<_> =
            versions.iter().map(|v| format!("{}.{}", v.database, v.table)).collect();
        assert_eq!(names, ["db.t", "db.a", "db.c", "other.z"]);
    }
}
