//! The pluggable warehouse-backend abstraction.
//!
//! WarpGate's premise is join discovery *over cloud data warehouses* —
//! plural. The system core must not care whether columns come from a
//! Snowflake-shaped service, a directory of CSV exports, or a test double
//! that injects faults; it needs exactly four capabilities (catalog
//! listing, sampled scans, cost metering, and a change-token surface for
//! incremental sync). [`WarehouseBackend`] is that seam.
//!
//! Implementations in this crate:
//!
//! * [`crate::CdwConnector`] — the simulated cloud data warehouse (wire
//!   codec round trips, per-byte billing, virtual latency);
//! * [`crate::CsvBackend`] — a directory of `<database>/<table>.csv`
//!   files served through the same cost model;
//! * [`crate::FaultInjector`] — a wrapper that injects deterministic scan
//!   failures and extra latency into any inner backend, for resilience
//!   scenarios.
//!
//! ## Contract
//!
//! * **Metadata is free.** `list_tables`, `table_meta`, `validate_column`
//!   and `snapshot_versions` model catalog/information-schema queries,
//!   which CDW vendors do not bill as scans. They must not touch the
//!   meter.
//! * **Scans are billed.** `scan_column`/`scan_table` move data and must
//!   charge the meter proportionally to bytes actually serialized (after
//!   sampling push-down). A scan of an unknown column fails `NotFound`
//!   *before* charging — callers rely on the scan being its own existence
//!   check. `scan_column_metered` is the same scan, also reporting what
//!   that one call was charged. `WarpGate` scans columns only through it,
//!   queries and indexing alike, and bills a run the sum of its scans' charges:
//!   with metadata free, that is the whole bill, and a concurrent run's
//!   scans are never in it.
//! * **Version tokens are opaque.** A table's `version` must change
//!   whenever its content changes, and should not change otherwise.
//!   Tokens are comparable only against tokens from the *same* backend
//!   instance; `warpgate_core::WarpGate::sync` diffs them to re-index
//!   only what moved.

use std::sync::Arc;

use crate::catalog::{BackendId, ColumnRef};
use crate::cdw::CostSnapshot;
use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::sample::SampleSpec;
use crate::table::Table;

/// Shared, thread-safe handle to a warehouse backend — what
/// `warpgate_core::WarpGate` attaches to and what the evaluation harness
/// passes around.
pub type BackendHandle = Arc<dyn WarehouseBackend>;

/// Catalog metadata for one table: address, column names, and the
/// content-version token used for incremental sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableMeta {
    /// Database the table lives in.
    pub database: String,
    /// Table name.
    pub table: String,
    /// Column names, in table order.
    pub columns: Vec<String>,
    /// Opaque content-version token; changes whenever the table's data
    /// changes.
    pub version: u64,
}

impl TableMeta {
    /// Fully-qualified refs for every column of this table, in the default
    /// namespace.
    pub fn column_refs(&self) -> Vec<ColumnRef> {
        self.scoped_column_refs(BackendId::DEFAULT)
    }

    /// Fully-qualified refs for every column of this table, homed in a
    /// backend namespace. Backends themselves report backend-relative
    /// metadata; the federation layer scopes it at attach time.
    pub fn scoped_column_refs(&self, backend: BackendId) -> Vec<ColumnRef> {
        self.columns
            .iter()
            .map(|c| {
                ColumnRef::scoped(backend, self.database.clone(), self.table.clone(), c.clone())
            })
            .collect()
    }
}

/// One entry of the change-token surface: `(table address, version)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableVersion {
    /// Database the table lives in.
    pub database: String,
    /// Table name.
    pub table: String,
    /// Opaque content-version token.
    pub version: u64,
}

/// A warehouse WarpGate can index and query.
///
/// See the module docs for the metadata-is-free / scans-are-billed /
/// opaque-version contract implementations must follow.
pub trait WarehouseBackend: Send + Sync {
    /// Human-readable backend identity (warehouse name, directory path, …).
    fn name(&self) -> String;

    /// Every table in the warehouse with its columns and version token,
    /// in a deterministic catalog order. Free (metadata).
    fn list_tables(&self) -> StoreResult<Vec<TableMeta>>;

    /// Metadata for one table. Free (metadata).
    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta>;

    /// Scan one column with sampling pushed down. Billed.
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column>;

    /// Scan a whole table (one request; all columns share the row
    /// sample). Billed.
    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table>;

    /// [`Self::scan_column`] plus what *this call* metered: the column and
    /// the cost it added (requests, bytes, virtual latency, dollars, and
    /// any retries middleware spent on it). An unknown column fails
    /// `NotFound` with nothing billed, like `scan_column`.
    ///
    /// The default brackets the scan with two [`Self::costs`] readings, so
    /// it absorbs whatever concurrent scans moved the shared meter in
    /// between, and over a network each reading is a round trip. Backends
    /// that know the exact charge return it instead: the in-process
    /// connectors hand back what they added to their meter,
    /// [`crate::RemoteBackend`] carries it in the scan's own response
    /// frame, and the decorators delegate and add only their own share.
    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(Column, CostSnapshot)> {
        let before = self.costs();
        let column = self.scan_column(r, sample)?;
        Ok((column, self.costs().since(&before)))
    }

    /// Accumulated scan costs since construction or the last reset.
    fn costs(&self) -> CostSnapshot;

    /// Zero the cost meter (e.g. between indexing and query phases).
    fn reset_costs(&self);

    /// Check that a column exists without scanning it. Free (metadata).
    fn validate_column(&self, r: &ColumnRef) -> StoreResult<()> {
        let meta = self.table_meta(&r.database, &r.table)?;
        if meta.columns.iter().any(|c| c == &r.column) {
            Ok(())
        } else {
            Err(StoreError::NotFound(format!("column '{r}'")))
        }
    }

    /// The change-token surface: every table's current version. Free
    /// (metadata). The default derives it from [`Self::list_tables`];
    /// backends with a cheaper path may override.
    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        Ok(self
            .list_tables()?
            .into_iter()
            .map(|m| TableVersion { database: m.database, table: m.table, version: m.version })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, Warehouse};
    use crate::cdw::{CdwConfig, CdwConnector};

    fn backend() -> CdwConnector {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(
            Table::new("t", vec![Column::text("a", ["x", "y"]), Column::ints("b", vec![1, 2])])
                .unwrap(),
        );
        w.add_database(db);
        CdwConnector::new(w, CdwConfig::free())
    }

    #[test]
    fn default_validate_column_checks_membership() {
        let b = backend();
        let b: &dyn WarehouseBackend = &b;
        assert!(b.validate_column(&ColumnRef::new("db", "t", "a")).is_ok());
        assert!(b.validate_column(&ColumnRef::new("db", "t", "nope")).is_err());
        assert!(b.validate_column(&ColumnRef::new("db", "nope", "a")).is_err());
    }

    #[test]
    fn default_snapshot_versions_mirrors_list_tables() {
        let b = backend();
        let b: &dyn WarehouseBackend = &b;
        let metas = b.list_tables().unwrap();
        let versions = b.snapshot_versions().unwrap();
        assert_eq!(metas.len(), versions.len());
        for (m, v) in metas.iter().zip(&versions) {
            assert_eq!(
                (m.database.as_str(), m.table.as_str()),
                (v.database.as_str(), v.table.as_str())
            );
            assert_eq!(m.version, v.version);
        }
    }

    #[test]
    fn metadata_is_free() {
        let b = backend();
        let b: &dyn WarehouseBackend = &b;
        b.list_tables().unwrap();
        b.table_meta("db", "t").unwrap();
        b.validate_column(&ColumnRef::new("db", "t", "a")).unwrap();
        b.snapshot_versions().unwrap();
        assert_eq!(b.costs().requests, 0, "metadata queries must not be billed");
    }

    #[test]
    fn column_refs_are_fully_qualified() {
        let meta = TableMeta {
            database: "db".into(),
            table: "t".into(),
            columns: vec!["a".into(), "b".into()],
            version: 7,
        };
        assert_eq!(
            meta.column_refs(),
            vec![ColumnRef::new("db", "t", "a"), ColumnRef::new("db", "t", "b")]
        );
        let lake = BackendId::named("backend-test-lake");
        assert_eq!(
            meta.scoped_column_refs(lake),
            vec![ColumnRef::scoped(lake, "db", "t", "a"), ColumnRef::scoped(lake, "db", "t", "b")]
        );
    }
}
