//! Directory/CSV-backed warehouse backend.
//!
//! Serves a warehouse laid out on disk as `<root>/<database>/<table>.csv`
//! through the same [`crate::WarehouseBackend`] surface as the simulated
//! CDW: open-data corpora (NextiaJD is assembled from Kaggle/OpenML CSV
//! files) arrive exactly like this, and a directory of warehouse exports
//! is the cheapest way to serve real data without a cloud account.
//!
//! Cost semantics match [`crate::CdwConnector`]: scans parse the file,
//! apply the sampling push-down, and round-trip the sampled data through
//! the wire codec, charging the meter for the bytes actually moved.
//! Metadata calls (`list_tables`, `table_meta`, versions) read files but
//! are *not* billed — they model free information-schema queries.
//!
//! Version tokens are content hashes of the raw file bytes: editing a
//! file (or replacing it with different content) changes the token;
//! rewriting identical bytes does not. That makes
//! `warpgate_core::WarpGate::sync` re-index exactly the files that
//! changed on disk.

use std::path::{Path, PathBuf};

use crate::backend::{TableMeta, WarehouseBackend};
use crate::catalog::{ColumnRef, Warehouse};
use crate::cdw::{wire_scan_column, wire_scan_table, CdwConfig, CostMeter, CostSnapshot};
use crate::column::Column;
use crate::csv;
use crate::error::{StoreError, StoreResult};
use crate::sample::SampleSpec;
use crate::table::Table;

/// A warehouse served from a directory of CSV files.
pub struct CsvBackend {
    root: PathBuf,
    config: CdwConfig,
    meter: CostMeter,
}

impl std::fmt::Debug for CsvBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CsvBackend").field("root", &self.root).finish_non_exhaustive()
    }
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Backend(format!("{context} {}: {e}", path.display()))
}

impl CsvBackend {
    /// Open a directory laid out as `<root>/<database>/<table>.csv`.
    /// Fails if `root` is not an existing directory.
    pub fn open(root: impl Into<PathBuf>, config: CdwConfig) -> StoreResult<Self> {
        let root = root.into();
        if !root.is_dir() {
            return Err(StoreError::Backend(format!(
                "CSV backend root is not a directory: {}",
                root.display()
            )));
        }
        Ok(Self { root, config, meter: CostMeter::default() })
    }

    /// The directory being served.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Materialize a [`Warehouse`] into `root` as one CSV file per table
    /// (creating `root` and the per-database directories). The written
    /// layout round-trips through [`CsvBackend::open`]; handy for tests
    /// and for exporting a simulated warehouse to disk.
    pub fn export_warehouse(warehouse: &Warehouse, root: impl AsRef<Path>) -> StoreResult<()> {
        let root = root.as_ref();
        for db in warehouse.databases() {
            let dir = root.join(db.name());
            std::fs::create_dir_all(&dir).map_err(|e| io_err("creating", &dir, e))?;
            for t in db.tables() {
                let path = dir.join(format!("{}.csv", t.name()));
                std::fs::write(&path, csv::write_table(t))
                    .map_err(|e| io_err("writing", &path, e))?;
            }
        }
        Ok(())
    }

    fn table_path(&self, database: &str, table: &str) -> PathBuf {
        self.root.join(database).join(format!("{table}.csv"))
    }

    /// Raw file bytes of one table, or NotFound if the file is absent.
    fn read_file(&self, database: &str, table: &str) -> StoreResult<String> {
        let path = self.table_path(database, table);
        if !path.is_file() {
            return Err(StoreError::NotFound(format!("table '{database}.{table}'")));
        }
        std::fs::read_to_string(&path).map_err(|e| io_err("reading", &path, e))
    }

    /// Parse one table from disk (unbilled; billing happens on the wire
    /// round trip in the scan methods).
    fn load_table(&self, database: &str, table: &str) -> StoreResult<Table> {
        csv::read_table(table, &self.read_file(database, table)?)
    }

    /// Sorted `(database, table)` listing of the directory layout.
    fn layout(&self) -> StoreResult<Vec<(String, String)>> {
        let mut databases: Vec<String> = Vec::new();
        let entries =
            std::fs::read_dir(&self.root).map_err(|e| io_err("listing", &self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("listing", &self.root, e))?;
            if entry.path().is_dir() {
                databases.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        databases.sort();
        let mut out = Vec::new();
        for db in databases {
            let dir = self.root.join(&db);
            let mut tables: Vec<String> = Vec::new();
            for entry in std::fs::read_dir(&dir).map_err(|e| io_err("listing", &dir, e))? {
                let entry = entry.map_err(|e| io_err("listing", &dir, e))?;
                let path = entry.path();
                if path.is_file() && path.extension().is_some_and(|e| e == "csv") {
                    if let Some(stem) = path.file_stem() {
                        tables.push(stem.to_string_lossy().into_owned());
                    }
                }
            }
            tables.sort();
            out.extend(tables.into_iter().map(|t| (db.clone(), t)));
        }
        Ok(out)
    }

    fn meta_of(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        let content = self.read_file(database, table)?;
        let parsed = csv::read_table(table, &content)?;
        Ok(TableMeta {
            database: database.to_string(),
            table: table.to_string(),
            columns: parsed.columns().iter().map(|c| c.name().to_string()).collect(),
            version: wg_util::stable_hash64(content.as_bytes()),
        })
    }
}

impl WarehouseBackend for CsvBackend {
    fn name(&self) -> String {
        format!("csv:{}", self.root.display())
    }

    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.layout()?.into_iter().map(|(db, t)| self.meta_of(&db, &t)).collect()
    }

    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        self.meta_of(database, table)
    }

    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        self.scan_column_metered(r, sample).map(|(column, _)| column)
    }

    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(Column, CostSnapshot)> {
        let table = self.load_table(&r.database, &r.table)?;
        let col = table.column(&r.column)?;
        wire_scan_column(col, sample, &self.config, &self.meter)
    }

    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        let t = self.load_table(database, table)?;
        wire_scan_table(&t, sample, &self.config, &self.meter)
    }

    fn costs(&self) -> CostSnapshot {
        self.meter.snapshot(&self.config)
    }

    fn reset_costs(&self) {
        self.meter.reset();
    }

    fn snapshot_versions(&self) -> StoreResult<Vec<crate::backend::TableVersion>> {
        // Cheaper than the default: hash file bytes without parsing CSV.
        self.layout()?
            .into_iter()
            .map(|(db, t)| {
                let content = self.read_file(&db, &t)?;
                Ok(crate::backend::TableVersion {
                    database: db,
                    table: t,
                    version: wg_util::stable_hash64(content.as_bytes()),
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Database;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wg_csv_backend_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_warehouse() -> Warehouse {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("sales");
        db.add_table(
            Table::new(
                "accounts",
                vec![
                    Column::text(
                        "name",
                        (0..40).map(|i| format!("Company {i}")).collect::<Vec<_>>(),
                    ),
                    Column::ints("employees", (0..40).map(|i| i * 3).collect()),
                ],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "metrics",
                vec![Column::floats("revenue", (0..30).map(|i| 100.5 + i as f64).collect())],
            )
            .unwrap(),
        );
        w.add_database(db);
        w.database_mut("ops").add_table(
            Table::new("cities", vec![Column::text("city", ["Austin", "Boston", "Chicago"])])
                .unwrap(),
        );
        w
    }

    #[test]
    fn export_then_list_round_trips_the_catalog() {
        let root = temp_root("list");
        let w = sample_warehouse();
        CsvBackend::export_warehouse(&w, &root).unwrap();
        let b = CsvBackend::open(&root, CdwConfig::free()).unwrap();
        let metas = b.list_tables().unwrap();
        let names: Vec<(String, String)> =
            metas.iter().map(|m| (m.database.clone(), m.table.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("ops".to_string(), "cities".to_string()),
                ("sales".to_string(), "accounts".to_string()),
                ("sales".to_string(), "metrics".to_string()),
            ],
            "listing must be sorted and exhaustive"
        );
        let accounts = metas.iter().find(|m| m.table == "accounts").unwrap();
        assert_eq!(accounts.columns, vec!["name", "employees"]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scans_match_the_source_warehouse() {
        let root = temp_root("scan");
        let w = sample_warehouse();
        CsvBackend::export_warehouse(&w, &root).unwrap();
        let b = CsvBackend::open(&root, CdwConfig::free()).unwrap();
        for (r, source) in w.iter_columns() {
            let scanned = b.scan_column(&r, SampleSpec::Full).unwrap();
            assert_eq!(&scanned, source, "CSV round trip changed {r}");
        }
        let t = b.scan_table("sales", "accounts", SampleSpec::Head(5)).unwrap();
        assert_eq!(t.num_rows(), 5);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn scans_are_billed_and_sampling_reduces_bytes() {
        let root = temp_root("bill");
        CsvBackend::export_warehouse(&sample_warehouse(), &root).unwrap();
        let b = CsvBackend::open(&root, CdwConfig::default()).unwrap();
        let r = ColumnRef::new("sales", "accounts", "name");
        b.scan_column(&r, SampleSpec::Full).unwrap();
        let full = b.costs();
        assert_eq!(full.requests, 1);
        assert!(full.bytes_scanned > 0 && full.usd > 0.0);
        b.reset_costs();
        b.scan_column(&r, SampleSpec::Head(4)).unwrap();
        let sampled = b.costs();
        assert!(sampled.bytes_scanned * 5 < full.bytes_scanned);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn metadata_is_unbilled_and_versions_track_file_content() {
        let root = temp_root("vers");
        CsvBackend::export_warehouse(&sample_warehouse(), &root).unwrap();
        let b = CsvBackend::open(&root, CdwConfig::default()).unwrap();
        let before = b.snapshot_versions().unwrap();
        b.list_tables().unwrap();
        b.table_meta("ops", "cities").unwrap();
        assert_eq!(b.costs().requests, 0, "metadata must be free");

        // Rewriting identical bytes keeps tokens; editing a file changes
        // exactly that table's token.
        let path = root.join("ops").join("cities.csv");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(b.snapshot_versions().unwrap(), before);
        std::fs::write(&path, "city\nAustin\nDallas\n").unwrap();
        let after = b.snapshot_versions().unwrap();
        let changed: Vec<&str> = before
            .iter()
            .zip(&after)
            .filter(|(x, y)| x.version != y.version)
            .map(|(x, _)| x.table.as_str())
            .collect();
        assert_eq!(changed, vec!["cities"]);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn missing_paths_error_cleanly() {
        let root = temp_root("miss");
        CsvBackend::export_warehouse(&sample_warehouse(), &root).unwrap();
        let b = CsvBackend::open(&root, CdwConfig::free()).unwrap();
        assert!(matches!(
            b.scan_column(&ColumnRef::new("sales", "nope", "x"), SampleSpec::Full),
            Err(StoreError::NotFound(_))
        ));
        assert!(matches!(b.table_meta("nope", "t"), Err(StoreError::NotFound(_))));
        assert!(CsvBackend::open(root.join("does-not-exist"), CdwConfig::free()).is_err());
        std::fs::remove_dir_all(&root).ok();
    }
}
