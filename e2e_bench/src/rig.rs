//! Set-up: turn generated inputs into the system a workload measures.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use warpgate_core::{IndexReport, WarpGate, WarpGateConfig};
use wg_store::{
    BackendHandle, CdwConfig, CdwConnector, Column, ColumnRef, CostSnapshot, RemoteBackend,
    RemoteBackendServer, SampleSpec, StoreResult, Table, TableMeta, TableVersion, Warehouse,
    WarehouseBackend,
};

use crate::Workload;

/// How many times each backend method was called. Placed directly over the
/// in-process connector — under the facade, or behind the WGRP server — so
/// on the remote workload it counts the requests that actually crossed the
/// wire. Only traced runs install it; untraced runs pay nothing.
#[derive(Default)]
pub struct CallCounts {
    pub validate: AtomicU64,
    pub scan: AtomicU64,
    pub costs: AtomicU64,
    pub table_meta: AtomicU64,
    pub list_tables: AtomicU64,
    pub snapshot_versions: AtomicU64,
}

impl CallCounts {
    /// `[validate, scan, costs, table_meta, list_tables, snapshot_versions]`.
    pub fn read(&self) -> [u64; 6] {
        [
            &self.validate,
            &self.scan,
            &self.costs,
            &self.table_meta,
            &self.list_tables,
            &self.snapshot_versions,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    }
}

/// Counting [`WarehouseBackend`] decorator (see [`CallCounts`]).
pub struct CountingBackend {
    inner: BackendHandle,
    pub counts: CallCounts,
}

fn bump(counter: &AtomicU64) {
    // A statistic that publishes no other data.
    counter.fetch_add(1, Ordering::Relaxed);
}

impl WarehouseBackend for CountingBackend {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        bump(&self.counts.list_tables);
        self.inner.list_tables()
    }
    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        bump(&self.counts.table_meta);
        self.inner.table_meta(database, table)
    }
    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        bump(&self.counts.scan);
        self.inner.scan_column(r, sample)
    }
    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        bump(&self.counts.scan);
        self.inner.scan_table(database, table, sample)
    }
    fn costs(&self) -> CostSnapshot {
        bump(&self.counts.costs);
        self.inner.costs()
    }
    fn reset_costs(&self) {
        self.inner.reset_costs()
    }
    fn validate_column(&self, r: &ColumnRef) -> StoreResult<()> {
        bump(&self.counts.validate);
        self.inner.validate_column(r)
    }
    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        bump(&self.counts.snapshot_versions);
        self.inner.snapshot_versions()
    }
}

/// One set-up system. Field order is drop order: the systems go first, then
/// the client handle, and only then the server (whose drop joins its
/// threads) — so nothing is left talking to a dead peer.
pub struct Rig {
    /// The system under test.
    pub wg: WarpGate,
    /// Paged workloads only: the all-in-RAM system the paged snapshot was
    /// sealed from. It supplies the expected rankings.
    pub ram: Option<WarpGate>,
    /// What `wg` is attached to (the connector, or a WGRP client).
    pub backend: BackendHandle,
    pub server: Option<RemoteBackendServer>,
    /// The call counter, when this rig was built for a traced run.
    pub counting: Option<Arc<CountingBackend>>,
    /// The in-process warehouse at the bottom of the stack; its meter is the
    /// single source of billed bytes, local or remote.
    pub connector: Arc<CdwConnector>,
    /// Configuration `wg` was built with.
    pub config: WarpGateConfig,
    pub index: IndexReport,
    /// Wall seconds around the `index_warehouse()` call.
    pub index_secs: f64,
    /// Wall seconds from "have a warehouse" to "ready to answer".
    pub setup_secs: f64,
}

impl Workload {
    /// Configuration of the system this workload indexes with.
    pub fn config(self, base: WarpGateConfig) -> WarpGateConfig {
        match self {
            // Cold: every query pays scan → embed, so no embedding cache.
            Workload::ColdInproc | Workload::ColdWgrp => base.with_cache_capacity(0),
            _ => base,
        }
    }
}

/// Build the workload's system over `warehouse`. `dir` receives paged
/// segments (paged workloads only); `counted` installs the call counter.
pub fn setup(
    workload: Workload,
    base: WarpGateConfig,
    warehouse: Warehouse,
    dir: &Path,
    counted: bool,
) -> StoreResult<Rig> {
    let started = Instant::now();
    let connector = Arc::new(CdwConnector::new(warehouse, CdwConfig::free()));
    let counting = counted.then(|| {
        Arc::new(CountingBackend { inner: connector.clone(), counts: Default::default() })
    });
    let local: BackendHandle = match &counting {
        Some(c) => c.clone(),
        None => connector.clone(),
    };
    let (backend, server): (BackendHandle, _) = if workload == Workload::ColdWgrp {
        let server = RemoteBackendServer::serve(local, "127.0.0.1:0")?;
        let client = RemoteBackend::connect(server.local_addr().to_string())?;
        (Arc::new(client), Some(server))
    } else {
        (local, None)
    };

    let mut config = workload.config(base);
    let built = WarpGate::with_backend(config, backend.clone());
    let t = Instant::now();
    let index = built.index_warehouse()?;
    let index_secs = t.elapsed().as_secs_f64();

    let (wg, ram) = match workload {
        Workload::PagedFit | Workload::PagedSpill => {
            let corpus_bytes = built.len() * config.dim * std::mem::size_of::<f32>();
            // Fit: every block stays resident. Spill: the corpus is 10× the
            // program's cache.
            let budget =
                if workload == Workload::PagedFit { corpus_bytes } else { corpus_bytes / 10 };
            config = config.with_block_cache_bytes(budget.max(1));
            built.save_paged(dir).map_err(|e| {
                wg_store::StoreError::Backend(format!("save_paged {}: {e}", dir.display()))
            })?;
            let mut paged = WarpGate::with_backend(config, backend.clone());
            paged.load_paged(dir)?;
            (paged, Some(built))
        }
        _ => (built, None),
    };
    let setup_secs = started.elapsed().as_secs_f64();
    Ok(Rig { wg, ram, backend, server, counting, connector, config, index, index_secs, setup_secs })
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
