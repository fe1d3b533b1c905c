//! The warehouse catalog: databases, tables, and column addressing.
//!
//! A [`Warehouse`] models one customer's cloud data warehouse: a set of
//! databases, each holding tables. [`ColumnRef`] is the fully-qualified
//! `database.table.column` address used across the workspace — it is what a
//! discovery query names and what recommendations point back to.
//!
//! Under federation a system holds *many* warehouses at once, each
//! attached under a name; [`BackendId`] is that name interned to a small
//! copyable integer (`wg_util::names`), and every [`ColumnRef`] /
//! [`TableRef`] carries one. Un-namespaced refs (the entire pre-federation
//! API surface) belong to the [`BackendId::DEFAULT`] namespace, and both
//! `Display` and parsing keep the legacy `db.table.col` form for it —
//! namespaced refs render as `warehouse:db.table.col`.

use std::fmt;
use std::str::FromStr;

use crate::backend::TableMeta;
use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::table::Table;
use wg_util::codec::{self, CodecResult};
use wg_util::FxHashMap;

/// Content fingerprint of a table: changes whenever the table's name,
/// schema, or data changes; identical content hashes identically. This is
/// the version token the simulated CDW reports through
/// [`crate::WarehouseBackend::snapshot_versions`].
fn table_fingerprint(table: &Table) -> u64 {
    let mut acc = wg_util::stable_hash_str(table.name());
    for c in table.columns() {
        acc = wg_util::hash::combine64(acc, wg_util::stable_hash_str(c.name()));
        let mut bytes = Vec::with_capacity(c.approx_bytes() + 16);
        c.encode(&mut bytes);
        acc = wg_util::hash::combine64(acc, wg_util::stable_hash64(&bytes));
    }
    acc
}

/// A named backend's identity: the attach name interned to a small
/// integer via `wg_util::names`. Copyable, order-stable, and embeddable
/// in the high bits of an LSH item id (see `wg_lsh`).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct BackendId(u16);

impl BackendId {
    /// The legacy single-backend namespace (`"default"`, interner id 0).
    pub const DEFAULT: BackendId = BackendId(0);

    /// The id for an attach name, interning it on first use. Stable for
    /// the process lifetime; `"default"` always maps to
    /// [`BackendId::DEFAULT`].
    pub fn named(name: &str) -> Self {
        BackendId(wg_util::names::intern(name))
    }

    /// The raw interner bits — what `wg_lsh` packs into item ids.
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Rebuild from raw bits (inverse of [`Self::bits`]). Only bits that
    /// came out of this process's interner are meaningful.
    pub fn from_bits(bits: u16) -> Self {
        BackendId(bits)
    }

    /// The attach name behind this id.
    pub fn name(self) -> String {
        wg_util::names::resolve(self.0)
    }

    /// Whether this is the legacy `"default"` namespace.
    pub fn is_default(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BackendId({}:{})", self.0, self.name())
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Fully-qualified column address: `[warehouse:]database.table.column`.
///
/// The `backend` field is declared first so the derived ordering groups
/// refs by namespace before database/table/column.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnRef {
    /// The backend namespace this column lives in ([`BackendId::DEFAULT`]
    /// for un-namespaced refs).
    pub backend: BackendId,
    /// Database name.
    pub database: String,
    /// Table name.
    pub table: String,
    /// Column name.
    pub column: String,
}

impl ColumnRef {
    /// Construct from parts, in the [`BackendId::DEFAULT`] namespace —
    /// the pre-federation constructor every legacy call site keeps using.
    pub fn new(
        database: impl Into<String>,
        table: impl Into<String>,
        column: impl Into<String>,
    ) -> Self {
        Self::scoped(BackendId::DEFAULT, database, table, column)
    }

    /// Construct in an explicit backend namespace.
    pub fn scoped(
        backend: BackendId,
        database: impl Into<String>,
        table: impl Into<String>,
        column: impl Into<String>,
    ) -> Self {
        Self { backend, database: database.into(), table: table.into(), column: column.into() }
    }

    /// The same address re-homed into another namespace.
    pub fn with_backend(mut self, backend: BackendId) -> Self {
        self.backend = backend;
        self
    }

    /// Whether two refs point into the same table *of the same backend* —
    /// identically named tables in different warehouses are different
    /// tables.
    pub fn same_table(&self, other: &ColumnRef) -> bool {
        self.backend == other.backend
            && self.database == other.database
            && self.table == other.table
    }

    /// The table this column belongs to.
    pub fn table_ref(&self) -> TableRef {
        TableRef {
            backend: self.backend,
            database: self.database.clone(),
            table: self.table.clone(),
        }
    }

    /// Wire-encode (namespaced): backend *name* plus the three parts. The
    /// name, not the bits, goes on the wire — interner ids are
    /// process-local.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_str(buf, &self.backend.name());
        codec::put_str(buf, &self.database);
        codec::put_str(buf, &self.table);
        codec::put_str(buf, &self.column);
    }

    /// Wire-decode; inverse of [`Self::encode`]. The backend name is
    /// re-interned in the receiving process.
    pub fn decode(buf: &mut impl codec::Buf) -> CodecResult<Self> {
        let backend = BackendId::named(&codec::get_str(buf)?);
        Ok(Self {
            backend,
            database: codec::get_str(buf)?,
            table: codec::get_str(buf)?,
            column: codec::get_str(buf)?,
        })
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.backend.is_default() {
            write!(f, "{}:", self.backend.name())?;
        }
        write!(f, "{}.{}.{}", self.database, self.table, self.column)
    }
}

impl FromStr for ColumnRef {
    type Err = StoreError;

    /// Parse `warehouse:db.table.col` or the legacy `db.table.col` (which
    /// lands in the default namespace).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (backend, rest) = match s.split_once(':') {
            Some((w, rest)) if !w.is_empty() => (BackendId::named(w), rest),
            Some(_) => {
                return Err(StoreError::Schema(format!("empty warehouse name in '{s}'")));
            }
            None => (BackendId::DEFAULT, s),
        };
        let parts: Vec<&str> = rest.split('.').collect();
        match parts.as_slice() {
            [db, t, c] if !db.is_empty() && !t.is_empty() && !c.is_empty() => {
                Ok(ColumnRef::scoped(backend, *db, *t, *c))
            }
            _ => Err(StoreError::Schema(format!(
                "expected [warehouse:]database.table.column, got '{s}'"
            ))),
        }
    }
}

/// Fully-qualified table address: `[warehouse:]database.table`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableRef {
    /// The backend namespace this table lives in.
    pub backend: BackendId,
    /// Database name.
    pub database: String,
    /// Table name.
    pub table: String,
}

impl TableRef {
    /// Construct in the default namespace.
    pub fn new(database: impl Into<String>, table: impl Into<String>) -> Self {
        Self::scoped(BackendId::DEFAULT, database, table)
    }

    /// Construct in an explicit backend namespace.
    pub fn scoped(
        backend: BackendId,
        database: impl Into<String>,
        table: impl Into<String>,
    ) -> Self {
        Self { backend, database: database.into(), table: table.into() }
    }

    /// Whether `column` lives in this table.
    pub fn contains(&self, column: &ColumnRef) -> bool {
        self.backend == column.backend
            && self.database == column.database
            && self.table == column.table
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.backend.is_default() {
            write!(f, "{}:", self.backend.name())?;
        }
        write!(f, "{}.{}", self.database, self.table)
    }
}

/// A named database: a set of tables, each carrying a content version.
#[derive(Debug, Clone)]
pub struct Database {
    name: String,
    tables: Vec<Table>,
    /// Content fingerprint per table, parallel to `tables`. Maintained by
    /// `add_table`/`remove_table` so backends can report what changed.
    versions: Vec<u64>,
    /// Table name → position in `tables`, so lookups by name do not scan
    /// the catalog.
    position: FxHashMap<String, usize>,
}

impl Database {
    /// Create an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            tables: Vec::new(),
            versions: Vec::new(),
            position: FxHashMap::default(),
        }
    }

    /// Database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a table; replaces any existing table of the same name (CDW data
    /// "has high update rates" — replacement is the common refresh path).
    /// The table's content version is (re)computed here.
    pub fn add_table(&mut self, table: Table) {
        let version = table_fingerprint(&table);
        if let Some(&pos) = self.position.get(table.name()) {
            self.tables[pos] = table;
            self.versions[pos] = version;
        } else {
            self.position.insert(table.name().to_string(), self.tables.len());
            self.tables.push(table);
            self.versions.push(version);
        }
    }

    /// Remove a table by name, returning it if present.
    pub fn remove_table(&mut self, name: &str) -> Option<Table> {
        let pos = self.position.remove(name)?;
        // Later tables move up one place, keeping catalog order.
        for p in self.position.values_mut().filter(|p| **p > pos) {
            *p -= 1;
        }
        self.versions.remove(pos);
        Some(self.tables.remove(pos))
    }

    /// Content-version token for a table, if present. Identical content
    /// yields identical tokens; any data or schema change yields a new one.
    pub fn table_version(&self, name: &str) -> Option<u64> {
        self.find(name).map(|(_, version)| version)
    }

    /// A table and its version token, by name.
    fn find(&self, name: &str) -> Option<(&Table, u64)> {
        self.position.get(name).map(|&pos| (&self.tables[pos], self.versions[pos]))
    }

    /// Tables zipped with their version tokens, in catalog order.
    fn tables_with_versions(&self) -> impl Iterator<Item = (&Table, u64)> + '_ {
        self.tables.iter().zip(self.versions.iter().copied())
    }

    /// All tables.
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Table by name.
    pub fn table(&self, name: &str) -> StoreResult<&Table> {
        self.find(name)
            .map(|(t, _)| t)
            .ok_or_else(|| StoreError::NotFound(format!("table '{}.{}'", self.name, name)))
    }
}

/// A simulated cloud data warehouse: a named set of databases.
#[derive(Debug, Clone)]
pub struct Warehouse {
    name: String,
    databases: Vec<Database>,
}

impl Warehouse {
    /// Create an empty warehouse.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), databases: Vec::new() }
    }

    /// Warehouse name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add (or merge into) a database.
    pub fn add_database(&mut self, db: Database) {
        if let Some(pos) = self.databases.iter().position(|d| d.name() == db.name()) {
            self.databases[pos] = db;
        } else {
            self.databases.push(db);
        }
    }

    /// Mutable access to a database, creating it if absent.
    pub fn database_mut(&mut self, name: &str) -> &mut Database {
        if let Some(pos) = self.databases.iter().position(|d| d.name() == name) {
            &mut self.databases[pos]
        } else {
            self.databases.push(Database::new(name));
            self.databases.last_mut().expect("just pushed")
        }
    }

    /// All databases.
    pub fn databases(&self) -> &[Database] {
        &self.databases
    }

    /// Database by name.
    pub fn database(&self, name: &str) -> StoreResult<&Database> {
        self.databases
            .iter()
            .find(|d| d.name() == name)
            .ok_or_else(|| StoreError::NotFound(format!("database '{name}'")))
    }

    /// Resolve a table.
    pub fn table(&self, database: &str, table: &str) -> StoreResult<&Table> {
        self.database(database)?.table(table)
    }

    /// Resolve a column reference.
    pub fn column(&self, r: &ColumnRef) -> StoreResult<&Column> {
        self.table(&r.database, &r.table)?.column(&r.column)
    }

    /// Catalog metadata (columns + content-version token) for every table,
    /// in catalog order (deterministic). This is what the simulated CDW
    /// serves as free information-schema queries.
    pub fn table_metas(&self) -> Vec<TableMeta> {
        self.databases
            .iter()
            .flat_map(|db| {
                db.tables_with_versions().map(move |(t, version)| TableMeta {
                    database: db.name().to_string(),
                    table: t.name().to_string(),
                    columns: t.columns().iter().map(|c| c.name().to_string()).collect(),
                    version,
                })
            })
            .collect()
    }

    /// Metadata for one table.
    pub fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        let db = self.database(database)?;
        let (t, version) = db
            .find(table)
            .ok_or_else(|| StoreError::NotFound(format!("table '{database}.{table}'")))?;
        Ok(TableMeta {
            database: database.to_string(),
            table: table.to_string(),
            columns: t.columns().iter().map(|c| c.name().to_string()).collect(),
            version,
        })
    }

    /// Iterate every column in the warehouse with its address, in catalog
    /// order (deterministic).
    pub fn iter_columns(&self) -> impl Iterator<Item = (ColumnRef, &Column)> + '_ {
        self.databases.iter().flat_map(|db| {
            db.tables().iter().flat_map(move |t| {
                t.columns().iter().map(move |c| (ColumnRef::new(db.name(), t.name(), c.name()), c))
            })
        })
    }

    /// Total number of tables.
    pub fn num_tables(&self) -> usize {
        self.databases.iter().map(|d| d.tables().len()).sum()
    }

    /// Total number of columns.
    pub fn num_columns(&self) -> usize {
        self.databases.iter().flat_map(|d| d.tables()).map(|t| t.num_columns()).sum()
    }

    /// Total number of rows across all tables.
    pub fn num_rows(&self) -> u64 {
        self.databases.iter().flat_map(|d| d.tables()).map(|t| t.num_rows() as u64).sum()
    }

    /// Mean rows per table (0 when empty).
    pub fn avg_rows(&self) -> f64 {
        let tables = self.num_tables();
        if tables == 0 {
            0.0
        } else {
            self.num_rows() as f64 / tables as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wh() -> Warehouse {
        let mut w = Warehouse::new("acme");
        let mut db = Database::new("sales");
        db.add_table(
            Table::new(
                "accounts",
                vec![Column::text("name", ["a", "b"]), Column::ints("id", vec![1, 2])],
            )
            .unwrap(),
        );
        db.add_table(Table::new("leads", vec![Column::text("company", ["a"])]).unwrap());
        w.add_database(db);
        w
    }

    #[test]
    fn column_ref_display() {
        let r = ColumnRef::new("db", "t", "c");
        assert_eq!(r.to_string(), "db.t.c");
        assert!(r.same_table(&ColumnRef::new("db", "t", "other")));
        assert!(!r.same_table(&ColumnRef::new("db2", "t", "c")));
    }

    #[test]
    fn backend_id_defaults_and_names() {
        assert!(BackendId::DEFAULT.is_default());
        assert_eq!(BackendId::default(), BackendId::DEFAULT);
        assert_eq!(BackendId::named("default"), BackendId::DEFAULT);
        assert_eq!(BackendId::DEFAULT.name(), "default");
        let cdw = BackendId::named("catalog-test-cdw");
        assert!(!cdw.is_default());
        assert_eq!(BackendId::named("catalog-test-cdw"), cdw, "interning is idempotent");
        assert_eq!(BackendId::from_bits(cdw.bits()), cdw);
        assert_eq!(cdw.name(), "catalog-test-cdw");
        assert_eq!(cdw.to_string(), "catalog-test-cdw");
    }

    #[test]
    fn namespaced_display_and_same_table() {
        let cdw = BackendId::named("catalog-test-cdw");
        let r = ColumnRef::scoped(cdw, "db", "t", "c");
        assert_eq!(r.to_string(), "catalog-test-cdw:db.t.c");
        // Same db.table under different backends is NOT the same table.
        assert!(!r.same_table(&ColumnRef::new("db", "t", "c")));
        assert!(r.same_table(&ColumnRef::scoped(cdw, "db", "t", "other")));
        let tr = r.table_ref();
        assert_eq!(tr, TableRef::scoped(cdw, "db", "t"));
        assert_eq!(tr.to_string(), "catalog-test-cdw:db.t");
        assert!(tr.contains(&r));
        assert!(!tr.contains(&ColumnRef::new("db", "t", "c")));
        assert!(!TableRef::new("db", "t").contains(&r));
        assert_eq!(r.clone().with_backend(BackendId::DEFAULT), ColumnRef::new("db", "t", "c"));
    }

    #[test]
    fn column_ref_parsing_round_trips() {
        let plain: ColumnRef = "db.t.c".parse().unwrap();
        assert_eq!(plain, ColumnRef::new("db", "t", "c"));
        let scoped: ColumnRef = "catalog-test-lake:db.t.c".parse().unwrap();
        assert_eq!(
            scoped,
            ColumnRef::scoped(BackendId::named("catalog-test-lake"), "db", "t", "c")
        );
        // Display → parse is the identity for both forms.
        assert_eq!(plain.to_string().parse::<ColumnRef>().unwrap(), plain);
        assert_eq!(scoped.to_string().parse::<ColumnRef>().unwrap(), scoped);
        for bad in ["", "db.t", "db.t.c.d", "db..c", ":db.t.c", "w:db.t", "w:"] {
            assert!(bad.parse::<ColumnRef>().is_err(), "'{bad}' must not parse");
        }
    }

    #[test]
    fn column_ref_codec_round_trips() {
        for r in [
            ColumnRef::new("db", "t", "c"),
            ColumnRef::scoped(BackendId::named("catalog-test-cdw"), "sales", "accounts", "name"),
        ] {
            let mut buf = Vec::new();
            r.encode(&mut buf);
            let mut cursor = buf.as_slice();
            assert_eq!(ColumnRef::decode(&mut cursor).unwrap(), r);
            assert!(cursor.is_empty());
        }
        let mut truncated = Vec::new();
        ColumnRef::new("db", "t", "c").encode(&mut truncated);
        truncated.truncate(truncated.len() - 1);
        assert!(ColumnRef::decode(&mut truncated.as_slice()).is_err());
    }

    #[test]
    fn lookups() {
        let w = wh();
        assert!(w.table("sales", "accounts").is_ok());
        assert!(w.table("sales", "nope").is_err());
        assert!(w.table("nope", "accounts").is_err());
        let c = w.column(&ColumnRef::new("sales", "accounts", "id")).unwrap();
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn stats() {
        let w = wh();
        assert_eq!(w.num_tables(), 2);
        assert_eq!(w.num_columns(), 3);
        assert_eq!(w.num_rows(), 3);
        assert!((w.avg_rows() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn iter_columns_is_exhaustive_and_ordered() {
        let w = wh();
        let refs: Vec<String> = w.iter_columns().map(|(r, _)| r.to_string()).collect();
        assert_eq!(refs, vec!["sales.accounts.name", "sales.accounts.id", "sales.leads.company"]);
    }

    #[test]
    fn add_table_replaces() {
        let mut w = wh();
        w.database_mut("sales")
            .add_table(Table::new("leads", vec![Column::text("company", ["x", "y"])]).unwrap());
        assert_eq!(w.table("sales", "leads").unwrap().num_rows(), 2);
        assert_eq!(w.num_tables(), 2);
    }

    #[test]
    fn remove_table() {
        let mut w = wh();
        assert!(w.database_mut("sales").remove_table("leads").is_some());
        assert!(w.database_mut("sales").remove_table("leads").is_none());
        assert_eq!(w.num_tables(), 1);
    }

    #[test]
    fn content_versions_track_table_changes() {
        let mut w = wh();
        let v1 = w.database("sales").unwrap().table_version("leads").unwrap();
        // Re-adding identical content keeps the token stable.
        w.database_mut("sales")
            .add_table(Table::new("leads", vec![Column::text("company", ["a"])]).unwrap());
        let v2 = w.database("sales").unwrap().table_version("leads").unwrap();
        assert_eq!(v1, v2, "identical content must keep the same version token");
        // Changing the data changes the token.
        w.database_mut("sales")
            .add_table(Table::new("leads", vec![Column::text("company", ["a", "b"])]).unwrap());
        let v3 = w.database("sales").unwrap().table_version("leads").unwrap();
        assert_ne!(v2, v3, "content change must produce a new version token");
        // Renaming a column (schema change) also changes the token.
        w.database_mut("sales")
            .add_table(Table::new("leads", vec![Column::text("firm", ["a", "b"])]).unwrap());
        let v4 = w.database("sales").unwrap().table_version("leads").unwrap();
        assert_ne!(v3, v4, "schema change must produce a new version token");
        // Removal drops the version entry alongside the table.
        w.database_mut("sales").remove_table("leads");
        assert_eq!(w.database("sales").unwrap().table_version("leads"), None);
    }

    #[test]
    fn table_metas_cover_the_catalog() {
        let w = wh();
        let metas = w.table_metas();
        assert_eq!(metas.len(), 2);
        assert_eq!(metas[0].table, "accounts");
        assert_eq!(metas[0].columns, vec!["name", "id"]);
        let one = w.table_meta("sales", "accounts").unwrap();
        assert_eq!(one, metas[0]);
        assert!(w.table_meta("sales", "nope").is_err());
    }

    #[test]
    fn lookups_by_name_follow_replace_remove_and_re_add() {
        let table =
            |name: &str, v: i64| Table::new(name, vec![Column::ints("c", vec![v])]).unwrap();
        let mut db = Database::new("d");
        for name in ["a", "b", "c", "d"] {
            db.add_table(table(name, 0));
        }
        let names = |db: &Database| -> Vec<String> {
            db.tables().iter().map(|t| t.name().to_string()).collect()
        };
        // Every lookup agrees with a scan of the catalog.
        let assert_consistent = |db: &Database| {
            for (pos, t) in db.tables().iter().enumerate() {
                assert!(std::ptr::eq(db.table(t.name()).unwrap(), t));
                assert_eq!(db.table_version(t.name()), Some(db.versions[pos]));
            }
            assert_eq!(db.position.len(), db.tables().len());
        };
        assert_consistent(&db);

        // Replace in place: same slot, new version.
        let before = db.table_version("b").unwrap();
        db.add_table(table("b", 1));
        assert_eq!(names(&db), ["a", "b", "c", "d"]);
        assert_ne!(db.table_version("b").unwrap(), before);
        assert_consistent(&db);

        // Remove from the middle: later tables keep their order.
        assert_eq!(db.remove_table("b").unwrap().name(), "b");
        assert!(db.remove_table("b").is_none());
        assert!(db.table("b").is_err() && db.table_version("b").is_none());
        assert_eq!(names(&db), ["a", "c", "d"]);
        assert_consistent(&db);

        // Re-add: a new table goes to the end of the catalog.
        db.add_table(table("b", 1));
        assert_eq!(names(&db), ["a", "c", "d", "b"]);
        assert_consistent(&db);

        let mut w = Warehouse::new("w");
        w.add_database(db.clone());
        let metas: Vec<String> = w.table_metas().into_iter().map(|m| m.table).collect();
        assert_eq!(metas, ["a", "c", "d", "b"], "table_metas keeps catalog order");
        assert_eq!(w.table_meta("d", "c").unwrap().version, db.table_version("c").unwrap());
    }

    #[test]
    fn database_mut_creates() {
        let mut w = wh();
        w.database_mut("new_db").add_table(Table::new("t", vec![]).unwrap());
        assert!(w.database("new_db").is_ok());
    }
}
