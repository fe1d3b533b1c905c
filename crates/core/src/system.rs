//! The WarpGate system facade: indexing pipeline, search pipeline, and the
//! lookup-join product interaction.
//!
//! Federation: a system holds a registry of *named* warehouse backends
//! ([`WarpGate::attach_named`]), each interned to a [`BackendId`] that
//! namespaces everything downstream — column refs, index item ids (high
//! bits, see `wg_lsh::compose_item_id`), embedding-cache keys, sync
//! epochs, and recorded version tokens. The legacy single-backend API
//! ([`WarpGate::attach`] / [`WarpGate::detach`]) is the `"default"`
//! namespace of the same machinery.

use std::sync::Arc;

use parking_lot::RwLock;
use wg_embed::{ColumnEmbedder, EmbeddingModel, WebTableConfig, WebTableModel};
use wg_lsh::{DiscoverScope, LshParams, SearchError, SearchOutcome, ShardedLshIndex};
use wg_store::{
    BackendHandle, BackendId, BackendRegistry, ColumnRef, CostSnapshot, KeyNorm, StoreError,
    StoreResult, Table, TableMeta, TableRef, WarehouseBackend,
};
use wg_util::deadline::{Deadline, Phase};
use wg_util::timing::Stopwatch;
use wg_util::FxHashMap;

use crate::admission::{
    AdmissionConfig, AdmissionController, AdmissionPermit, AdmissionStats, QuotaPolicy, TenantId,
};
use crate::cache::{CacheStats, EmbeddingCache, EmbeddingKey};
use crate::config::WarpGateConfig;
use crate::registry::Registry;
use crate::timing::QueryTiming;

/// How many scanned+embedded columns the indexing collector accumulates
/// before flushing them through the registry lock and into the shards. One
/// registry write-lock acquisition and at most one lock per touched shard
/// amortize over this many items, while keeping each lock hold short
/// enough that concurrent queries are never starved.
const INDEX_FLUSH_BATCH: usize = 64;

/// One ranked join recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCandidate {
    /// The candidate column (database, table, column — what the Sigma
    /// Workbooks window in Fig. 3 displays per row).
    pub reference: ColumnRef,
    /// Cosine similarity to the query column's embedding.
    pub score: f32,
}

/// The result of one discovery query.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The query column.
    pub query: ColumnRef,
    /// Ranked candidates, best first.
    pub candidates: Vec<JoinCandidate>,
    /// Wall-clock decomposition; `timing.backend` attributes the scan to
    /// the query column's namespace.
    pub timing: QueryTiming,
    /// LSH candidate-set diagnostics.
    pub outcome: SearchOutcome,
}

/// Per-request serving options for the overload-resilient entry points
/// ([`WarpGate::discover_opts`], [`WarpGate::discover_batch_opts`],
/// [`WarpGate::joinability_opts`]) — DESIGN.md §12.
///
/// The default (`QueryOptions::default()`) reproduces the legacy calls
/// exactly: unscoped, no deadline, anonymous tenant, no degraded serving.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Which backend namespaces the lookup may answer from.
    pub scope: DiscoverScope,
    /// Cooperative request budget, checked at every pipeline phase
    /// boundary (validate → scan → embed → candidate-gen → re-rank →
    /// block-read). An expired deadline fails with
    /// [`StoreError::DeadlineExceeded`] *before* the next billed scan or
    /// cold block read — never mid-phase.
    pub deadline: Deadline,
    /// Tenant the request bills to, for [`QuotaPolicy`] enforcement.
    /// `None` is anonymous: never quota-checked, never debited.
    pub tenant: Option<TenantId>,
    /// When admission control sheds this request, opt into a **degraded**
    /// warm-cache-only answer instead of the `Overloaded` error: if the
    /// query embedding is cached, the index lookup (which bills no scans)
    /// still runs and the result is flagged [`QueryTiming::degraded`]. On
    /// a cache miss the `Overloaded` error propagates — degradation is
    /// opt-in and never silent, but it is also never a cold scan.
    pub allow_degraded: bool,
}

/// Summary of one indexing run.
#[derive(Debug, Clone, Copy)]
pub struct IndexReport {
    /// Columns whose embeddings entered the index.
    pub columns_indexed: usize,
    /// Columns skipped (no embeddable content — all NULL or symbols).
    pub columns_skipped: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Warehouse scan costs incurred by the run.
    pub cost: CostSnapshot,
}

/// Summary of one [`WarpGate::sync`] reconciliation.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// Tables seen for the first time (scanned and indexed in full).
    pub tables_added: usize,
    /// Tables whose version token changed (re-scanned and re-indexed).
    pub tables_updated: usize,
    /// Tables that vanished from the backend (dropped from the index).
    pub tables_removed: usize,
    /// Columns (re-)embedded and inserted by this sync.
    pub columns_indexed: usize,
    /// Columns scanned but skipped (no embeddable content).
    pub columns_skipped: usize,
    /// Columns dropped (vanished tables plus vanished columns of changed
    /// tables).
    pub columns_removed: usize,
    /// Wall-clock seconds for the reconciliation.
    pub elapsed_secs: f64,
    /// Warehouse scan costs incurred — proportional to what changed, not
    /// to warehouse size.
    pub cost: CostSnapshot,
    /// Per-backend slices of a federated [`WarpGate::sync`] run, in
    /// [`BackendId`] order: each entry's counters and cost bill exactly
    /// one namespace. Empty for single-backend reports (the entries
    /// themselves, and everything [`WarpGate::sync_backend`] returns).
    pub per_backend: Vec<(BackendId, SyncReport)>,
}

impl SyncReport {
    /// True when the backend matched the index and nothing was touched.
    pub fn is_noop(&self) -> bool {
        self.tables_added == 0 && self.tables_updated == 0 && self.tables_removed == 0
    }

    /// Fold one backend's reconciliation into this federated total.
    fn absorb(&mut self, id: BackendId, one: SyncReport) {
        self.tables_added += one.tables_added;
        self.tables_updated += one.tables_updated;
        self.tables_removed += one.tables_removed;
        self.columns_indexed += one.columns_indexed;
        self.columns_skipped += one.columns_skipped;
        self.columns_removed += one.columns_removed;
        self.cost = self.cost.plus(&one.cost);
        self.per_backend.push((id, one));
    }
}

/// What the index currently reflects, per table: the backend version token
/// recorded when the table was last (re-)indexed, stamped with the attach
/// epoch so swapping backends invalidates every recorded token at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TableState {
    epoch: u64,
    version: u64,
}

/// Sync bookkeeping of one backend namespace. Epochs and version tokens
/// are per backend: re-attaching the data lake never disturbs what the
/// CDW's sync has reconciled.
#[derive(Default)]
struct BackendSyncState {
    /// Bumped on every attach (and detach) of this name; recorded tokens
    /// from older epochs never compare equal, so the next sync re-scans
    /// everything the namespace's backend serves.
    epoch: u64,
    tables: FxHashMap<(String, String), TableState>,
}

#[derive(Default)]
struct SyncState {
    backends: FxHashMap<BackendId, BackendSyncState>,
}

/// The semantic join discovery system.
///
/// A `WarpGate` holds a registry of named [`WarehouseBackend`]s
/// ([`WarpGate::attach_named`] / [`WarpGate::detach_named`]) — simulated
/// CDWs, CSV directories, fault-injecting wrappers, remote warehouses over
/// TCP — each under its own namespace. Indexing and discovery flow through
/// whichever backend a column ref names; [`WarpGate::sync`] diffs every
/// backend's version tokens against what the index reflects and re-scans
/// only what changed, per backend ([`WarpGate::sync_backend`] reconciles
/// one). The legacy single-backend calls ([`WarpGate::attach`],
/// [`WarpGate::detach`], un-namespaced refs) address the `"default"`
/// namespace.
///
/// Internally the hot path is built for concurrency: embeddings live in a
/// [`ShardedLshIndex`] (items partitioned by id across independently locked
/// shards), query embeddings are memoized in a sharded LRU
/// [`EmbeddingCache`], and the id → column-reference registry is the only
/// globally locked structure (reads are shared; writes are batched).
pub struct WarpGate {
    config: WarpGateConfig,
    embedder: ColumnEmbedder,
    index: ShardedLshIndex,
    registry: RwLock<Registry>,
    cache: EmbeddingCache,
    backends: BackendRegistry,
    synced: RwLock<SyncState>,
    /// Byte-budgeted LRU over paged-segment blocks; shared by every
    /// segment [`Self::load_paged`] attaches so the budget bounds the
    /// whole system's cold resident set, not one segment's.
    block_cache: Arc<wg_lsh::BlockCache>,
    /// Concurrency gate over the public entry points (`discover*`,
    /// `joinability*`, `sync*`), present only when
    /// [`WarpGateConfig::admission_cap`] is positive. `None` = admission
    /// off, zero overhead on the legacy paths.
    admission: Option<AdmissionController>,
    /// Per-tenant token buckets over billed scans/bytes. Tenants without
    /// a configured [`crate::TenantQuota`] are unlimited, so the policy
    /// is inert until [`QuotaPolicy::set_quota`] is called.
    quotas: QuotaPolicy,
}

impl WarpGate {
    /// Create a system with the default hashed web-table embedding model.
    /// No backend is attached yet; call [`Self::attach`] (or use
    /// [`Self::with_backend`]) before indexing or querying.
    pub fn new(config: WarpGateConfig) -> Self {
        let model = WebTableModel::new(WebTableConfig {
            dim: config.dim,
            seed: config.seed,
            ..WebTableConfig::default()
        });
        Self::with_model(config, Arc::new(model))
    }

    /// Create a system and attach a warehouse backend (as `"default"`) in
    /// one step.
    pub fn with_backend(config: WarpGateConfig, backend: BackendHandle) -> Self {
        let wg = Self::new(config);
        wg.attach(backend);
        wg
    }

    /// Create a system with a caller-provided embedding model (the §4.4
    /// BERT comparison swaps in [`wg_embed::MiniBertModel`] here).
    pub fn with_model(config: WarpGateConfig, model: Arc<dyn EmbeddingModel>) -> Self {
        assert_eq!(model.dim(), config.dim, "model dimension must match config");
        let index = build_index(&config);
        Self {
            embedder: ColumnEmbedder::new(model, config.aggregation),
            index,
            registry: RwLock::new(Registry::default()),
            cache: EmbeddingCache::new(config.cache_capacity),
            backends: BackendRegistry::new(),
            synced: RwLock::new(SyncState::default()),
            block_cache: wg_lsh::BlockCache::new(config.block_cache_bytes),
            admission: (config.admission_cap > 0).then(|| {
                AdmissionController::new(AdmissionConfig {
                    cap: config.admission_cap,
                    queue: config.admission_queue,
                    max_wait: std::time::Duration::from_millis(config.admission_wait_ms),
                    retry_after_ms: config.admission_retry_after_ms,
                })
            }),
            quotas: QuotaPolicy::new(),
            config,
        }
    }

    /// The per-tenant quota policy. Configure tenants with
    /// [`QuotaPolicy::set_quota`]; enforcement happens on every
    /// `*_opts` call that names a tenant.
    pub fn quotas(&self) -> &QuotaPolicy {
        &self.quotas
    }

    /// Admission-control counters and gauges, or `None` when admission is
    /// off ([`WarpGateConfig::admission_cap`] == 0).
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(|a| a.stats())
    }

    /// Acquire an admission slot for one entry-point call, or pass
    /// through (`Ok(None)`) when admission is off. Shed requests fail
    /// with the retryable [`StoreError::Overloaded`].
    fn acquire_admission(&self) -> StoreResult<Option<AdmissionPermit<'_>>> {
        match &self.admission {
            None => Ok(None),
            Some(a) => a.acquire().map(Some),
        }
    }

    /// Attach a warehouse backend under a namespace name, replacing any
    /// previous backend of that name and returning the interned
    /// [`BackendId`]. The namespace's indexed items are left intact, but
    /// its embedding-cache entries are evicted and every recorded table
    /// version is invalidated (epoch bump), so the next [`Self::sync`]
    /// reconciles the namespace against the new backend in full (vanished
    /// tables drop, everything present re-scans). Other namespaces are
    /// untouched.
    ///
    /// Ordering matters for the epoch discipline: the handle is stored
    /// *first* and the epoch bumped *second*, so an epoch captured before
    /// resolving a handle can never be newer than the backend a run scans
    /// (see [`Self::record_synced`]).
    pub fn attach_named(&self, name: &str, backend: BackendHandle) -> BackendId {
        let (id, _previous) = self.backends.attach(name, backend);
        self.synced.write().backends.entry(id).or_default().epoch += 1;
        // Same column names may hold different content on the new backend;
        // cached embeddings are not trustworthy across the swap. Eager
        // eviction also frees their capacity (the epoch in the cache key
        // already made them unreachable).
        self.cache.invalidate_backend(id);
        id
    }

    /// Attach a warehouse backend as the `"default"` namespace, replacing
    /// any previous one — the legacy single-backend API.
    pub fn attach(&self, backend: BackendHandle) {
        self.attach_named(wg_util::names::DEFAULT_NAME, backend);
    }

    /// Detach the backend under `name`, returning it. The namespace's
    /// recorded version tokens are invalidated (epoch bump — they describe
    /// a backend that is gone) and its cached embeddings evicted eagerly,
    /// so a *different* warehouse re-attached under the same name can
    /// never be served stale state; the recorded table *keys* survive so
    /// the first sync after a re-attach still drops vanished tables.
    /// Hot (RAM-resident) indexed items stay queryable via value search
    /// and scoped discovery from other namespaces; the namespace's
    /// **paged** items are dropped — their segments were sealed from the
    /// departing backend's content, and keeping disk-resident rows alive
    /// past the detach is exactly the stale-reattach hazard the epoch
    /// bump exists to prevent. Emptied segments retire and their
    /// cache-resident blocks are evicted.
    pub fn detach_named(&self, name: &str) -> Option<BackendHandle> {
        let handle = self.backends.detach(name)?;
        // `detach` returned Some, so the name was attached before and is
        // already interned.
        let id = BackendId::named(name);
        if let Some(state) = self.synced.write().backends.get_mut(&id) {
            state.epoch += 1;
        }
        self.cache.invalidate_backend(id);
        self.index.drop_cold_backend(id.bits());
        Some(handle)
    }

    /// Detach the `"default"` backend, returning it — the legacy
    /// single-backend API. Discovery and indexing against the default
    /// namespace fail with [`StoreError::Backend`] until a backend is
    /// attached again; the index itself stays queryable via
    /// [`Self::discover_values`].
    pub fn detach(&self) -> Option<BackendHandle> {
        self.detach_named(wg_util::names::DEFAULT_NAME)
    }

    /// The `"default"` backend, or an error if none is attached.
    pub fn backend(&self) -> StoreResult<BackendHandle> {
        self.backend_for(BackendId::DEFAULT)
    }

    /// The backend attached under a namespace, or an error naming it.
    pub fn backend_for(&self, id: BackendId) -> StoreResult<BackendHandle> {
        self.backends.get(id).ok_or_else(|| {
            if id.is_default() {
                StoreError::Backend("no warehouse backend attached (call attach() first)".into())
            } else {
                StoreError::Backend(format!("backend '{}' is not attached", id.name()))
            }
        })
    }

    /// Ids of every attached backend, sorted.
    pub fn attached_backends(&self) -> Vec<BackendId> {
        self.backends.ids()
    }

    /// The configuration in use.
    pub fn config(&self) -> &WarpGateConfig {
        &self.config
    }

    /// The column embedder (shared with tests/ablations).
    pub fn embedder(&self) -> &ColumnEmbedder {
        &self.embedder
    }

    /// Number of indexed columns (across all namespaces).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Embedding-cache hit/miss counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Block-cache counters of the paged tier (all zero until
    /// [`Self::load_paged`] attaches segments and queries read blocks).
    pub fn block_cache_stats(&self) -> wg_lsh::CacheStats {
        self.block_cache.stats()
    }

    /// The shared paged-tier block cache (for persistence plumbing).
    pub(crate) fn block_cache(&self) -> &Arc<wg_lsh::BlockCache> {
        &self.block_cache
    }

    /// Indexed columns currently served from the paged (disk-backed)
    /// tier.
    pub fn cold_len(&self) -> usize {
        self.index.cold_len()
    }

    /// Live attached paged segments (counted once per shard keeping live
    /// rows from them).
    pub fn cold_segment_count(&self) -> usize {
        self.index.cold_segment_count()
    }

    /// The sorted attach set, or the legacy "nothing attached" error.
    fn require_attached(&self) -> StoreResult<Vec<BackendId>> {
        let ids = self.backends.ids();
        if ids.is_empty() {
            return Err(StoreError::Backend(
                "no warehouse backend attached (call attach() first)".into(),
            ));
        }
        Ok(ids)
    }

    /// One namespace's current attach epoch (0 if never attached).
    /// Captured *before* resolving the backend handle: `attach_named`
    /// stores the new backend first and bumps the epoch second, so an
    /// epoch captured before the handle can never be newer than the
    /// backend the run scans — any concurrent attach makes the epoch move
    /// and the run's token commit is discarded.
    fn run_epoch(&self, id: BackendId) -> u64 {
        self.synced.read().backends.get(&id).map(|s| s.epoch).unwrap_or(0)
    }

    /// Record that the index now reflects these tables at these versions —
    /// unless the namespace's attach epoch moved since `run_epoch` was
    /// captured, in which case the tokens belong to a detached backend and
    /// recording them would poison the next sync's diff; discard instead
    /// (the next sync re-scans, which is the safe direction).
    fn record_synced(&self, id: BackendId, run_epoch: u64, metas: &[TableMeta]) {
        let mut state = self.synced.write();
        let be = state.backends.entry(id).or_default();
        if be.epoch != run_epoch {
            return;
        }
        for m in metas {
            be.tables.insert(
                (m.database.clone(), m.table.clone()),
                TableState { epoch: run_epoch, version: m.version },
            );
        }
    }

    /// Index every column of every attached warehouse: scan (sampled) →
    /// embed → insert, one backend at a time. Scanning and embedding fan
    /// out over worker threads; inserts land in batches on the
    /// id-partitioned index shards.
    pub fn index_warehouse(&self) -> StoreResult<IndexReport> {
        let ids = self.require_attached()?;
        let sw = Stopwatch::start();
        let mut report = IndexReport {
            columns_indexed: 0,
            columns_skipped: 0,
            elapsed_secs: 0.0,
            cost: CostSnapshot::default(),
        };
        for id in ids {
            let one = self.index_backend(id)?;
            report.columns_indexed += one.columns_indexed;
            report.columns_skipped += one.columns_skipped;
            report.cost = report.cost.plus(&one.cost);
        }
        report.elapsed_secs = sw.elapsed_secs();
        Ok(report)
    }

    /// Index every column of one attached backend.
    pub fn index_backend(&self, id: BackendId) -> StoreResult<IndexReport> {
        let run_epoch = self.run_epoch(id);
        let backend = self.backend_for(id)?;
        // Version tokens are fetched *before* scanning but recorded only
        // after the run succeeds: if content changes mid-run the recorded
        // token is the older one and the next sync re-scans
        // (conservative), and a failed run records nothing at all.
        let metas = backend.list_tables()?;
        let refs: Vec<ColumnRef> = metas.iter().flat_map(|m| m.scoped_column_refs(id)).collect();
        let report = self.index_refs(backend.as_ref(), refs)?;
        self.record_synced(id, run_epoch, &metas);
        Ok(report)
    }

    /// Index (or refresh) a single default-namespace table — the
    /// incremental path for CDWs with high update rates.
    pub fn index_table(&self, database: &str, table: &str) -> StoreResult<IndexReport> {
        self.index_table_scoped(&TableRef::new(database, table))
    }

    /// Index (or refresh) a single table in its ref's namespace.
    pub fn index_table_scoped(&self, table: &TableRef) -> StoreResult<IndexReport> {
        let id = table.backend;
        let run_epoch = self.run_epoch(id);
        let backend = self.backend_for(id)?;
        let meta = backend.table_meta(&table.database, &table.table)?;
        let report = self.index_refs(backend.as_ref(), meta.scoped_column_refs(id))?;
        self.record_synced(id, run_epoch, std::slice::from_ref(&meta));
        Ok(report)
    }

    /// Reconcile the index with every attached backend, touching only what
    /// changed. Each namespace diffs independently against its own
    /// recorded version tokens (see [`Self::sync_backend`] for the
    /// per-table mechanics); the returned report aggregates the run and
    /// carries each backend's slice in [`SyncReport::per_backend`], so
    /// scan costs stay attributed to the namespace that billed them.
    pub fn sync(&self) -> StoreResult<SyncReport> {
        self.sync_deadline(Deadline::none())
    }

    /// [`Self::sync`] under a cooperative deadline: the run checks the
    /// budget before every column scan, so an expired deadline stops the
    /// reconciliation *between* scans — zero further columns billed — and
    /// fails with [`StoreError::DeadlineExceeded`]. Nothing is recorded
    /// for the interrupted backend (tokens commit only after its scans
    /// succeed), so the next sync retries the same change set.
    ///
    /// Counts against admission like every entry point (a long sync holds
    /// one slot for its whole run).
    pub fn sync_deadline(&self, deadline: Deadline) -> StoreResult<SyncReport> {
        let ids = self.require_attached()?;
        let _permit = self.acquire_admission()?;
        let sw = Stopwatch::start();
        let mut total = SyncReport::default();
        for id in ids {
            let one = self.sync_one(id, deadline)?;
            total.absorb(id, one);
        }
        total.elapsed_secs = sw.elapsed_secs();
        Ok(total)
    }

    /// Reconcile one named backend, leaving every other namespace — index
    /// entries, cache entries, recorded tokens — untouched. Errors if no
    /// backend is attached under `name`.
    pub fn sync_backend(&self, name: &str) -> StoreResult<SyncReport> {
        let id = wg_util::names::lookup(name)
            .map(BackendId::from_bits)
            .ok_or_else(|| StoreError::Backend(format!("backend '{name}' is not attached")))?;
        self.sync_backend_id(id)
    }

    /// [`Self::sync_backend`] by interned id.
    pub fn sync_backend_id(&self, id: BackendId) -> StoreResult<SyncReport> {
        self.sync_backend_id_deadline(id, Deadline::none())
    }

    /// [`Self::sync_backend_id`] under a cooperative deadline (see
    /// [`Self::sync_deadline`] for the stop-between-scans contract).
    pub fn sync_backend_id_deadline(
        &self,
        id: BackendId,
        deadline: Deadline,
    ) -> StoreResult<SyncReport> {
        let _permit = self.acquire_admission()?;
        self.sync_one(id, deadline)
    }

    /// Diff one namespace's version tokens and re-scan only its change
    /// set:
    ///
    /// * tables whose token changed are re-scanned, re-embedded, and
    ///   re-indexed (their cached query embeddings are evicted; their
    ///   existing ids keep their shard placement, so only the affected
    ///   LSH-shard entries are rewritten);
    /// * columns that vanished from a changed table, and whole vanished
    ///   tables, drop out of the registry, index, and cache;
    /// * everything else — index entries, cache entries, shard contents —
    ///   stays warm and untouched.
    ///
    /// Scan cost (and the returned [`SyncReport::cost`]) is therefore
    /// proportional to the change set, not the warehouse.
    fn sync_one(&self, id: BackendId, deadline: Deadline) -> StoreResult<SyncReport> {
        let run_epoch = self.run_epoch(id);
        let backend = self.backend_for(id)?;
        let sw = Stopwatch::start();
        let cost_before = backend.costs();
        // Diff on the cheap change-token surface; full metadata (column
        // lists) is fetched per table below, and only for the change set —
        // on a file-backed backend this is the difference between hashing
        // every file and parsing every file on a no-op sync.
        let versions = backend.snapshot_versions()?;

        let recorded: FxHashMap<(String, String), TableState> =
            self.synced.read().backends.get(&id).map(|s| s.tables.clone()).unwrap_or_default();
        let mut report = SyncReport::default();

        // Vanished tables drop out entirely.
        let current: wg_util::FxHashSet<(&str, &str)> =
            versions.iter().map(|v| (v.database.as_str(), v.table.as_str())).collect();
        for (database, table) in recorded.keys() {
            if !current.contains(&(database.as_str(), table.as_str())) {
                report.columns_removed +=
                    self.remove_table_scoped(&TableRef::scoped(id, database, table));
                report.tables_removed += 1;
            }
        }

        // Added and changed tables re-index; unchanged tables are skipped.
        let mut to_index: Vec<ColumnRef> = Vec::new();
        let mut to_record: Vec<TableMeta> = Vec::new();
        for v in &versions {
            let key = (v.database.clone(), v.table.clone());
            let known = match recorded.get(&key) {
                Some(st) if st.epoch == run_epoch && st.version == v.version => continue,
                Some(_) => true,
                None => false,
            };
            let meta = backend.table_meta(&v.database, &v.table)?;
            if known {
                report.tables_updated += 1;
                // Columns that vanished from the still-present table.
                let live = self.registry.read().table_refs(&TableRef::scoped(
                    id,
                    &meta.database,
                    &meta.table,
                ));
                let vanished: Vec<ColumnRef> = live
                    .into_iter()
                    .filter(|r| !meta.columns.iter().any(|c| c == &r.column))
                    .collect();
                if !vanished.is_empty() {
                    report.columns_removed += self.remove_refs(&vanished);
                }
            } else {
                report.tables_added += 1;
            }
            to_index.extend(meta.scoped_column_refs(id));
            to_record.push(meta);
        }

        let indexed = self.index_refs_deadline(backend.as_ref(), to_index, deadline)?;
        // Tokens (fetched before the scans) are committed only now that
        // the scans succeeded — a failed sync records nothing, so the next
        // one retries the same change set.
        self.record_synced(id, run_epoch, &to_record);
        report.columns_indexed = indexed.columns_indexed;
        report.columns_skipped = indexed.columns_skipped;
        report.elapsed_secs = sw.elapsed_secs();
        report.cost = backend.costs().since(&cost_before);
        Ok(report)
    }

    /// Embed a scanned column, applying §5.2.1 schema-context blending
    /// when `context_weight > 0`. Context comes from free catalog metadata.
    fn embed_with_context(
        &self,
        backend: &dyn WarehouseBackend,
        r: &ColumnRef,
        column: &wg_store::Column,
    ) -> wg_embed::Vector {
        let values = self.embedder.embed_column(column);
        let beta = self.config.context_weight;
        if beta <= 0.0 {
            return values;
        }
        let siblings = backend
            .table_meta(&r.database, &r.table)
            .map(|m| m.columns.into_iter().filter(|n| n != &r.column).collect())
            .unwrap_or_default();
        let context = wg_embed::ColumnContext {
            column_name: r.column.clone(),
            table_name: r.table.clone(),
            siblings,
        };
        let ctx = wg_embed::context_vector(self.embedder.model().as_ref(), &context);
        wg_embed::blend_context(&values, &ctx, beta)
    }

    fn index_refs(
        &self,
        backend: &dyn WarehouseBackend,
        refs: Vec<ColumnRef>,
    ) -> StoreResult<IndexReport> {
        self.index_refs_deadline(backend, refs, Deadline::none())
    }

    /// [`Self::index_refs`] under a cooperative deadline: every worker
    /// checks the budget before each `scan_column`, so expiry stops the
    /// run between scans with zero further columns billed.
    fn index_refs_deadline(
        &self,
        backend: &dyn WarehouseBackend,
        refs: Vec<ColumnRef>,
        deadline: Deadline,
    ) -> StoreResult<IndexReport> {
        let sw = Stopwatch::start();
        let cost_before = backend.costs();
        let threads = self.config.effective_threads().min(refs.len().max(1));
        let sample = self.config.sample;

        // (Re-)indexing means these columns' warehouse data may have
        // changed; cached query embeddings for them are stale.
        let mut touched: wg_util::FxHashSet<(BackendId, &str, &str)> = wg_util::fx_hash_set();
        for r in &refs {
            touched.insert((r.backend, &r.database, &r.table));
        }
        for (backend_id, database, table) in touched {
            self.cache.invalidate_table(&TableRef::scoped(backend_id, database, table));
        }

        let (work_tx, work_rx) = crossbeam::channel::unbounded::<ColumnRef>();
        for r in refs {
            work_tx.send(r).expect("channel open");
        }
        drop(work_tx);

        let (done_tx, done_rx) =
            crossbeam::channel::unbounded::<StoreResult<(ColumnRef, wg_embed::Vector)>>();
        // Raised on the first scan/embed error so workers stop pulling work:
        // without it, an early failure would still scan (and bill) every
        // remaining column before the error could propagate.
        let abort = std::sync::atomic::AtomicBool::new(false);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                let work_rx = work_rx.clone();
                let done_tx = done_tx.clone();
                let abort = &abort;
                scope.spawn(move || {
                    for r in work_rx.iter() {
                        if abort.load(std::sync::atomic::Ordering::Relaxed) {
                            break;
                        }
                        let item = deadline
                            .check(Phase::Scan)
                            .map_err(deadline_err)
                            .and_then(|()| backend.scan_column(&r, sample))
                            .map(|col| (r.clone(), self.embed_with_context(backend, &r, &col)));
                        if done_tx.send(item).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);

            let mut indexed = 0usize;
            let mut skipped = 0usize;
            // Batch insertions: one registry write-lock acquisition maps a
            // whole batch of refs to ids, then the shard router takes each
            // involved shard's lock once — instead of two global write
            // locks per received column.
            let mut pending: Vec<(ColumnRef, wg_embed::Vector)> =
                Vec::with_capacity(INDEX_FLUSH_BATCH);
            let flush = |pending: &mut Vec<(ColumnRef, wg_embed::Vector)>,
                         indexed: &mut usize,
                         skipped: &mut usize| {
                if pending.is_empty() {
                    return;
                }
                let batch: Vec<(u32, Vec<f32>)> = {
                    let mut registry = self.registry.write();
                    pending.drain(..).map(|(r, v)| (registry.insert(r), v.0)).collect()
                };
                let batch_len = batch.len();
                let accepted = self.index.insert_batch(batch);
                *indexed += accepted;
                *skipped += batch_len - accepted;
            };
            for item in done_rx.iter() {
                let (r, vector) = match item {
                    Ok(pair) => pair,
                    Err(e) => {
                        abort.store(true, std::sync::atomic::Ordering::Relaxed);
                        return Err(e);
                    }
                };
                if vector.is_zero() {
                    skipped += 1;
                    continue;
                }
                pending.push((r, vector));
                if pending.len() >= INDEX_FLUSH_BATCH {
                    flush(&mut pending, &mut indexed, &mut skipped);
                }
            }
            flush(&mut pending, &mut indexed, &mut skipped);
            Ok(IndexReport {
                columns_indexed: indexed,
                columns_skipped: skipped,
                elapsed_secs: sw.elapsed_secs(),
                cost: backend.costs().since(&cost_before),
            })
        })
    }

    /// Drop specific columns from registry, index, and cache. Returns how
    /// many were actually removed (a concurrent remove may win races).
    fn remove_refs(&self, victims: &[ColumnRef]) -> usize {
        if victims.is_empty() {
            return 0;
        }
        let ids: Vec<u32> = {
            let mut registry = self.registry.write();
            victims.iter().filter_map(|r| registry.remove(r)).collect()
        };
        let removed = self.index.remove_batch(&ids);
        for r in victims {
            self.cache.invalidate_column(r);
        }
        removed
    }

    /// Remove a default-namespace table's columns from the index (e.g.
    /// after a drop). Returns how many columns were removed.
    pub fn remove_table(&self, database: &str, table: &str) -> usize {
        self.remove_table_scoped(&TableRef::new(database, table))
    }

    /// Remove one (namespaced) table's columns from the index. Returns how
    /// many columns were removed.
    ///
    /// Victims are collected under a shared read lock; the write locks
    /// (registry, then the affected shards) are only held for the actual
    /// mutation, so concurrent queries proceed through the scan.
    pub fn remove_table_scoped(&self, table: &TableRef) -> usize {
        let victims = self.registry.read().table_refs(table);
        if let Some(state) = self.synced.write().backends.get_mut(&table.backend) {
            state.tables.remove(&(table.database.clone(), table.table.clone()));
        }
        if victims.is_empty() {
            self.cache.invalidate_table(table);
            return 0;
        }
        let removed = self.remove_refs(&victims);
        self.cache.invalidate_table(table);
        removed
    }

    /// Discovery query for a warehouse column: load (sampled) → embed →
    /// LSH lookup → exact re-rank, over every attached namespace. The scan
    /// and embed phases are skipped when the query embedding is cached
    /// from an earlier call (see [`QueryTiming::cache_hit`]).
    pub fn discover(&self, query: &ColumnRef, k: usize) -> StoreResult<Discovery> {
        self.discover_scoped(query, k, &DiscoverScope::All)
    }

    /// [`Self::discover`] restricted to a backend scope: "find joins for
    /// this CDW column in the data lake only", or "everywhere but where it
    /// came from". The scope is pushed into LSH candidate generation —
    /// out-of-scope namespaces cost no exact scoring — and only the query
    /// column's own backend is ever scanned (and billed).
    pub fn discover_scoped(
        &self,
        query: &ColumnRef,
        k: usize,
        scope: &DiscoverScope,
    ) -> StoreResult<Discovery> {
        self.discover_opts(query, k, &QueryOptions { scope: scope.clone(), ..Default::default() })
    }

    /// [`Self::discover`] with full per-request serving options (§12):
    /// scope, cooperative deadline, tenant quota billing, and opt-in
    /// degraded serving under admission pressure. With default options
    /// this is exactly [`Self::discover`].
    ///
    /// Request flow: deadline gate → tenant quota gate → admission (shed
    /// ⇒ `Overloaded`, or the degraded path when opted in — either way the
    /// backend is not touched) → cache probe → hit: validate → lookup /
    /// miss: metered scan → embed → lookup, with the deadline re-checked
    /// at every phase boundary. The scan is its own existence check (an
    /// unknown column fails `NotFound` before anything is billed), so a
    /// cold query costs the backend one call. Quota debits are
    /// **post-paid**: the tenant is billed the scans/bytes the backend
    /// actually metered for this call, which may push its bucket negative
    /// (recovered by refill).
    pub fn discover_opts(
        &self,
        query: &ColumnRef,
        k: usize,
        opts: &QueryOptions,
    ) -> StoreResult<Discovery> {
        opts.deadline.check(Phase::Validate).map_err(deadline_err)?;
        if let Some(tenant) = opts.tenant {
            self.quotas.admit(tenant)?;
        }
        // Epoch before backend (see `run_epoch`): if an attach races this
        // query, the embedding we compute lands under the old epoch's
        // cache key, unreachable by post-attach lookups.
        let epoch = self.run_epoch(query.backend);
        let backend = self.backend_for(query.backend)?;
        // Admission comes before the first backend call: shedding exists
        // to protect a saturated warehouse, and over WGRP even a free
        // existence check is a round trip.
        let permit = match self.acquire_admission() {
            Ok(p) => p,
            Err(shed) => {
                if opts.allow_degraded {
                    if let Some(d) = self.discover_degraded(epoch, query, k, opts)? {
                        return Ok(d);
                    }
                }
                return Err(shed);
            }
        };
        // The meter is read only for a request that bills someone: over
        // WGRP each reading is a round trip.
        let billing = opts.tenant.map(|tenant| (tenant, backend.costs()));
        let result = self.discover_admitted(&backend, epoch, query, k, opts, false);
        drop(permit);
        if let Some((tenant, cost_before)) = billing {
            // Billed even when the call failed mid-flight: scans the
            // backend metered happened regardless of the outcome.
            let delta = backend.costs().since(&cost_before);
            self.quotas.debit(tenant, delta.requests, delta.bytes_scanned);
        }
        result
    }

    /// The degraded (warm-cache-only) answer for a shed request that
    /// opted in: if the query embedding is cached, run the index lookup —
    /// which bills no scans and needs no admission slot — and flag the
    /// result [`QueryTiming::degraded`]. `Ok(None)` = cache miss, the
    /// caller propagates the original `Overloaded`.
    fn discover_degraded(
        &self,
        epoch: u64,
        query: &ColumnRef,
        k: usize,
        opts: &QueryOptions,
    ) -> StoreResult<Option<Discovery>> {
        let key = EmbeddingKey::new(
            query,
            self.config.sample,
            self.config.seed,
            self.config.context_weight,
            epoch,
        );
        let Some(vector) = self.cache.get(&key) else {
            return Ok(None);
        };
        let mut timing = QueryTiming {
            backend: Some(query.backend),
            cache_hit: true,
            degraded: true,
            ..QueryTiming::default()
        };
        if vector.is_zero() {
            return Ok(Some(Discovery {
                query: query.clone(),
                candidates: Vec::new(),
                timing,
                outcome: SearchOutcome::default(),
            }));
        }
        let (candidates, outcome, lookup_secs) =
            self.search_vector_deadline(&vector, query, k, &opts.scope, opts.deadline)?;
        timing.lookup_secs = lookup_secs;
        timing.blocks_read = outcome.blocks_read as u64;
        timing.blocks_pruned = outcome.blocks_pruned as u64;
        Ok(Some(Discovery { query: query.clone(), candidates, timing, outcome }))
    }

    /// [`Self::discover_opts`] after admission — the shared body for
    /// single queries and batch workers. `validated` says the caller
    /// already checked that the column exists (batches validate everything
    /// up front and must not re-pay a catalog lookup per query); otherwise
    /// a cache hit checks existence itself, and a miss leaves it to the
    /// scan, which refuses an unknown column before billing anything. The
    /// cooperative deadline is checked at each phase boundary: before the
    /// billed scan, before embedding, and inside the lookup
    /// (candidate-gen / re-rank / each cold block read). Expiry fails
    /// with [`StoreError::DeadlineExceeded`] naming the phase that would
    /// have run next.
    fn discover_admitted(
        &self,
        backend: &BackendHandle,
        epoch: u64,
        query: &ColumnRef,
        k: usize,
        opts: &QueryOptions,
        validated: bool,
    ) -> StoreResult<Discovery> {
        let deadline = opts.deadline;
        let mut timing = QueryTiming { backend: Some(query.backend), ..QueryTiming::default() };
        let key = EmbeddingKey::new(
            query,
            self.config.sample,
            self.config.seed,
            self.config.context_weight,
            epoch,
        );
        let vector = match self.cache.get(&key) {
            Some(v) => {
                if !validated {
                    backend.validate_column(query)?;
                }
                timing.cache_hit = true;
                v
            }
            None => {
                deadline.check(Phase::Scan).map_err(deadline_err)?;
                let sw = Stopwatch::start();
                let (column, metered) = backend.scan_column_metered(query, self.config.sample)?;
                timing.load_secs = sw.elapsed_secs();
                timing.virtual_load_secs = metered.virtual_secs;
                timing.retries = metered.retries;

                deadline.check(Phase::Embed).map_err(deadline_err)?;
                let sw = Stopwatch::start();
                let vector = self.embed_with_context(backend.as_ref(), query, &column);
                timing.embed_secs = sw.elapsed_secs();
                // Zero vectors are cached too: the (empty) answer is just as
                // repeatable, and skipping the re-scan is the whole point.
                self.cache.put(key, vector.clone());
                vector
            }
        };

        if vector.is_zero() {
            return Ok(Discovery {
                query: query.clone(),
                candidates: Vec::new(),
                timing,
                outcome: SearchOutcome::default(),
            });
        }
        let (candidates, outcome, lookup_secs) =
            self.search_vector_deadline(&vector, query, k, &opts.scope, deadline)?;
        timing.lookup_secs = lookup_secs;
        timing.blocks_read = outcome.blocks_read as u64;
        timing.blocks_pruned = outcome.blocks_pruned as u64;
        Ok(Discovery { query: query.clone(), candidates, timing, outcome })
    }

    /// Batched discovery: answer many queries in one call, fanning the
    /// scan → embed → lookup pipeline out over worker threads. This is the
    /// warehouse-wide join-graph workload: results come back in input
    /// order, and repeated or previously seen query columns hit the
    /// embedding cache. Queries may span namespaces; each scans only its
    /// own backend.
    ///
    /// Work is claimed in **chunks**, not dispatched per column: the batch
    /// is cut into contiguous chunks a few per worker, workers claim the
    /// next unclaimed chunk off one atomic counter, and the calling thread
    /// claims alongside the spawned workers. Small batches therefore pay
    /// `threads − 1` thread spawns and one atomic increment per *chunk*,
    /// instead of two channel hops plus a scheduler wakeup per *query* —
    /// the overhead that made batched discovery slower than a sequential
    /// loop on small batches — while a chunk of slow cold scans cannot
    /// gate the batch on one worker (the others drain the remaining
    /// chunks). Queries are validated once, up front, and workers skip the
    /// per-query catalog lookup. The configured `threads` value is
    /// honored even past the hardware thread count: against a blocking
    /// backend (e.g. a remote warehouse over TCP) oversubscription is
    /// how in-flight scans overlap; the default (`threads == 0`)
    /// resolves to one worker per hardware thread, which is right for
    /// the in-process compute-bound backends.
    pub fn discover_batch(&self, queries: &[ColumnRef], k: usize) -> StoreResult<Vec<Discovery>> {
        self.discover_batch_scoped(queries, k, &DiscoverScope::All)
    }

    /// [`Self::discover_batch`] restricted to a backend scope.
    pub fn discover_batch_scoped(
        &self,
        queries: &[ColumnRef],
        k: usize,
        scope: &DiscoverScope,
    ) -> StoreResult<Vec<Discovery>> {
        self.discover_batch_opts(
            queries,
            k,
            &QueryOptions { scope: scope.clone(), ..Default::default() },
        )
    }

    /// [`Self::discover_batch`] with full serving options (§12). The whole
    /// batch runs under **one** admission slot (a batch is one caller; the
    /// cap bounds callers, not columns), the deadline is re-checked before
    /// every per-query phase, and the named tenant is debited the batch's
    /// total metered scans/bytes across every backend it touched. There is
    /// no degraded fallback for batches — a shed batch fails whole with
    /// `Overloaded` ([`QueryOptions::allow_degraded`] is ignored).
    pub fn discover_batch_opts(
        &self,
        queries: &[ColumnRef],
        k: usize,
        opts: &QueryOptions,
    ) -> StoreResult<Vec<Discovery>> {
        opts.deadline.check(Phase::Validate).map_err(deadline_err)?;
        if let Some(tenant) = opts.tenant {
            self.quotas.admit(tenant)?;
        }
        // Resolve each involved namespace once, epoch before handle (see
        // `run_epoch`), then validate everything up front: one bad ref
        // fails the batch before any column is scanned (and billed).
        let mut resolved: FxHashMap<BackendId, (u64, BackendHandle)> = wg_util::fx_hash_map();
        for q in queries {
            if let std::collections::hash_map::Entry::Vacant(slot) = resolved.entry(q.backend) {
                let epoch = self.run_epoch(q.backend);
                let backend = self.backend_for(q.backend)?;
                slot.insert((epoch, backend));
            }
        }
        for q in queries {
            resolved[&q.backend].1.validate_column(q)?;
        }
        let _permit = self.acquire_admission()?;
        let billing = opts.tenant.map(|tenant| {
            let cost_before: Vec<(BackendId, CostSnapshot)> =
                resolved.iter().map(|(id, (_, b))| (*id, b.costs())).collect();
            (tenant, cost_before)
        });
        let result = self.discover_batch_resolved(queries, k, opts, &resolved);
        if let Some((tenant, cost_before)) = billing {
            // Post-paid like `discover_opts`, summed over every backend
            // the batch scanned — failures included, for the same reason.
            for (id, before) in &cost_before {
                let delta = resolved[id].1.costs().since(before);
                self.quotas.debit(tenant, delta.requests, delta.bytes_scanned);
            }
        }
        result
    }

    /// The batch worker machinery, after resolution and validation.
    fn discover_batch_resolved(
        &self,
        queries: &[ColumnRef],
        k: usize,
        opts: &QueryOptions,
        resolved: &FxHashMap<BackendId, (u64, BackendHandle)>,
    ) -> StoreResult<Vec<Discovery>> {
        let threads = self.config.effective_threads().min(queries.len().max(1));
        if threads <= 1 || queries.len() <= 1 {
            return queries
                .iter()
                .map(|q| {
                    let (epoch, backend) = &resolved[&q.backend];
                    self.discover_admitted(backend, *epoch, q, k, opts, true)
                })
                .collect();
        }

        // ~4 chunks per worker: coarse enough that claiming stays
        // negligible, fine enough that a straggling chunk rebalances.
        let chunk = queries.len().div_ceil(threads * 4).max(1);
        let chunks: Vec<&[ColumnRef]> = queries.chunks(chunk).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let abort = std::sync::atomic::AtomicBool::new(false);
        // Each worker claims chunks until none are left (or a failure
        // elsewhere raises the abort flag, so nobody keeps pulling — and
        // billing — remaining columns) and returns its chunk results for
        // the in-order scatter below.
        let run = || -> StoreResult<Vec<(usize, Vec<Discovery>)>> {
            let mut produced = Vec::new();
            loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(qs) = chunks.get(i) else {
                    return Ok(produced);
                };
                let mut out = Vec::with_capacity(qs.len());
                for q in *qs {
                    if abort.load(std::sync::atomic::Ordering::Relaxed) {
                        return Ok(produced);
                    }
                    let (epoch, backend) = &resolved[&q.backend];
                    match self.discover_admitted(backend, *epoch, q, k, opts, true) {
                        Ok(d) => out.push(d),
                        Err(e) => {
                            abort.store(true, std::sync::atomic::Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                }
                produced.push((i, out));
            }
        };

        let mut slots: Vec<Option<Discovery>> = (0..queries.len()).map(|_| None).collect();
        let first_error = std::thread::scope(|scope| {
            let run = &run;
            let handles: Vec<_> = (1..threads).map(|_| scope.spawn(run)).collect();
            let mut err = None;
            for outcome in std::iter::once(run())
                .chain(handles.into_iter().map(|h| h.join().expect("batch worker panicked")))
            {
                match outcome {
                    Ok(produced) => {
                        for (i, out) in produced {
                            for (j, d) in out.into_iter().enumerate() {
                                slots[i * chunk + j] = Some(d);
                            }
                        }
                    }
                    Err(e) => {
                        err.get_or_insert(e);
                    }
                }
            }
            err
        });
        if let Some(e) = first_error {
            return Err(e);
        }
        Ok(slots.into_iter().map(|d| d.expect("all slots filled")).collect())
    }

    /// Ad-hoc discovery from raw values (no warehouse column backing the
    /// query — e.g. a user-pasted list). Works without an attached
    /// backend: only the in-memory index is consulted.
    pub fn discover_values<S: AsRef<str>>(&self, values: &[S], k: usize) -> Vec<JoinCandidate> {
        self.discover_values_scoped(values, k, &DiscoverScope::All)
    }

    /// [`Self::discover_values`] restricted to a backend scope.
    pub fn discover_values_scoped<S: AsRef<str>>(
        &self,
        values: &[S],
        k: usize,
        scope: &DiscoverScope,
    ) -> Vec<JoinCandidate> {
        let vector = self.embedder.embed_values(values);
        if vector.is_zero() {
            return Vec::new();
        }
        let nowhere = ColumnRef::new("", "", "");
        self.search_vector(&vector, &nowhere, k, scope).0
    }

    fn search_vector(
        &self,
        vector: &wg_embed::Vector,
        query: &ColumnRef,
        k: usize,
        scope: &DiscoverScope,
    ) -> (Vec<JoinCandidate>, SearchOutcome, f64) {
        self.search_vector_deadline(vector, query, k, scope, Deadline::none())
            .unwrap_or_else(|e| panic!("lookup without a deadline failed: {e}"))
    }

    /// [`Self::search_vector`] under a cooperative deadline, threaded into
    /// the LSH lookup itself: candidate generation, re-rank, and every
    /// paged-tier block fetch each check the budget first, so an expired
    /// deadline never triggers another cold read.
    fn search_vector_deadline(
        &self,
        vector: &wg_embed::Vector,
        query: &ColumnRef,
        k: usize,
        scope: &DiscoverScope,
        deadline: Deadline,
    ) -> StoreResult<(Vec<JoinCandidate>, SearchOutcome, f64)> {
        let registry = self.registry.read();
        let exclude = registry.excluder(query, self.config.exclude_same_table);
        let sw = Stopwatch::start();
        let (hits, outcome) = self
            .index
            .search_scoped_deadline_with_outcome(vector.as_slice(), k, scope, deadline, exclude)
            .map_err(|e| match e {
                SearchError::Expired(phase) => deadline_err(phase),
                // A cold block that no longer reads back intact: the paged
                // tier is this system's own storage backend.
                storage @ SearchError::Storage(_) => StoreError::Backend(storage.to_string()),
            })?;
        let lookup_secs = sw.elapsed_secs();
        let candidates = hits
            .into_iter()
            .filter_map(|(id, score)| {
                registry.reference(id).map(|r| JoinCandidate { reference: r.clone(), score })
            })
            .collect();
        Ok((candidates, outcome, lookup_secs))
    }

    /// Execute the product interaction of Fig. 3 step 3 ("Add column via
    /// lookup"): pull the candidate's table and lookup-join the selected
    /// columns onto the base table, preserving its cardinality. The
    /// candidate's table is fetched from *its own* namespace's backend, so
    /// a cross-warehouse augmentation pulls from the warehouse the
    /// candidate actually lives in.
    ///
    /// `norm` controls the key transformation — [`KeyNorm::AlphaNum`]
    /// realizes the "joinable after transformation" semantics for format
    /// variants.
    pub fn augment_via_lookup(
        &self,
        base: &Table,
        base_key: &str,
        candidate: &ColumnRef,
        add_columns: &[&str],
        norm: KeyNorm,
    ) -> StoreResult<Table> {
        let backend = self.backend_for(candidate.backend)?;
        let lookup_table = backend.scan_table(
            &candidate.database,
            &candidate.table,
            wg_store::SampleSpec::Full,
        )?;
        wg_store::join::lookup_join(
            base,
            base_key,
            &lookup_table,
            &candidate.column,
            add_columns,
            norm,
        )
    }

    /// Direct cosine similarity between two warehouse columns under this
    /// system's embedding — the paper's `J(A,B)` made inspectable, and
    /// cross-warehouse capable (each ref scans its own namespace's
    /// backend). Embeds values only (no schema-context blend); embeddings
    /// come from (and feed) the cache under the value-only key.
    pub fn joinability(&self, a: &ColumnRef, b: &ColumnRef) -> StoreResult<f32> {
        self.joinability_opts(a, b, &QueryOptions::default())
    }

    /// [`Self::joinability`] with full serving options (§12): deadline
    /// gate, tenant quota gate + post-paid debit (each ref bills its own
    /// backend's metered delta), and one admission slot for the pair.
    /// [`QueryOptions::scope`] and [`QueryOptions::allow_degraded`] are
    /// irrelevant here (no lookup, no degraded variant) and ignored.
    pub fn joinability_opts(
        &self,
        a: &ColumnRef,
        b: &ColumnRef,
        opts: &QueryOptions,
    ) -> StoreResult<f32> {
        opts.deadline.check(Phase::Validate).map_err(deadline_err)?;
        if let Some(tenant) = opts.tenant {
            self.quotas.admit(tenant)?;
        }
        let _permit = self.acquire_admission()?;
        let va = self.scoped_value_embedding(a, opts)?;
        let vb = self.scoped_value_embedding(b, opts)?;
        Ok(va.cosine(&vb))
    }

    /// Resolve a ref's own namespace (epoch before handle), compute its
    /// value-only embedding under the request's deadline, and debit the
    /// request's tenant whatever the scan metered.
    fn scoped_value_embedding(
        &self,
        r: &ColumnRef,
        opts: &QueryOptions,
    ) -> StoreResult<wg_embed::Vector> {
        let epoch = self.run_epoch(r.backend);
        let backend = self.backend_for(r.backend)?;
        // As in `discover_opts`: the meter is read only for a request that
        // bills someone.
        let billing = opts.tenant.map(|tenant| (tenant, backend.costs()));
        let result = self.value_embedding(backend.as_ref(), r, epoch, opts.deadline);
        if let Some((tenant, cost_before)) = billing {
            let delta = backend.costs().since(&cost_before);
            self.quotas.debit(tenant, delta.requests, delta.bytes_scanned);
        }
        result
    }

    /// Cached value-only column embedding (context weight key `0.0`, which
    /// coincides with [`Self::discover`]'s key when the system runs without
    /// contextual blending — the paper's configuration). The deadline is
    /// checked before the billed scan; a cache hit costs nothing and
    /// always succeeds.
    fn value_embedding(
        &self,
        backend: &dyn WarehouseBackend,
        r: &ColumnRef,
        epoch: u64,
        deadline: Deadline,
    ) -> StoreResult<wg_embed::Vector> {
        let key = EmbeddingKey::new(r, self.config.sample, self.config.seed, 0.0, epoch);
        if let Some(v) = self.cache.get(&key) {
            return Ok(v);
        }
        deadline.check(Phase::Scan).map_err(deadline_err)?;
        // The query path's one scan opcode; `joinability` reports no
        // timing, so the bill that rides along has no reader here.
        let (column, _metered) = backend.scan_column_metered(r, self.config.sample)?;
        deadline.check(Phase::Embed).map_err(deadline_err)?;
        let vector = self.embedder.embed_column(&column);
        self.cache.put(key, vector.clone());
        Ok(vector)
    }

    /// Run `f` over the registry as id-sorted `(id, ref)` pairs — the
    /// durable mapping both snapshot formats carry — borrowed in place
    /// under the registry's read lock, which is held until `f` returns: an
    /// index encoded inside `f` is the one these entries described.
    /// (Writers take the registry lock, release it, then a shard lock, so
    /// holding this one while the encoder takes shard guards cannot
    /// deadlock; queries take the two in the same order.)
    pub(crate) fn with_registry_entries<R>(&self, f: impl FnOnce(&[(u32, &ColumnRef)]) -> R) -> R {
        let registry = self.registry.read();
        let mut entries: Vec<(u32, &ColumnRef)> = registry.entries().collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        f(&entries)
    }

    /// The live LSH index (persistence plumbing: sealing segments, reading
    /// geometry).
    pub(crate) fn lsh_index(&self) -> &ShardedLshIndex {
        &self.index
    }

    /// An empty index with this system's exact geometry (dim, banding,
    /// seed, probes, shard count) — what a paged restore attaches
    /// segments into.
    pub(crate) fn fresh_index(&self) -> ShardedLshIndex {
        build_index(&self.config)
    }

    /// The durable slice of the sync bookkeeping: per backend *name*, the
    /// attach epoch and every table → version token recorded under that
    /// (current) epoch. Stale tokens from older epochs describe backends
    /// that are gone and are not worth carrying across a restart; backends
    /// with no live tokens are omitted entirely. Deterministically ordered
    /// so identical states serialize to identical bytes.
    pub(crate) fn sync_state_for_persist(&self) -> Vec<PersistedBackendSync> {
        let state = self.synced.read();
        let mut out: Vec<PersistedBackendSync> = Vec::new();
        for (id, be) in &state.backends {
            let mut tables: Vec<(String, String, u64)> = be
                .tables
                .iter()
                .filter(|(_, st)| st.epoch == be.epoch)
                .map(|((db, t), st)| (db.clone(), t.clone(), st.version))
                .collect();
            if tables.is_empty() {
                continue;
            }
            tables.sort();
            out.push(PersistedBackendSync { name: id.name(), epoch: be.epoch, tables });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    pub(crate) fn restore_from_persist(
        &mut self,
        index: ShardedLshIndex,
        entries: Vec<(u32, ColumnRef)>,
        sync: Vec<PersistedBackendSync>,
    ) -> StoreResult<()> {
        if index.dim() != self.config.dim {
            return Err(StoreError::Schema(format!(
                "persisted index dimension {} does not match config {}",
                index.dim(),
                self.config.dim
            )));
        }
        let registry = Registry::from_entries(entries).map_err(StoreError::SnapshotCorrupt)?;
        *self.registry.write() = registry;
        self.index = index;
        // The snapshot may come from a system over different warehouse
        // content; cached query embeddings are not trustworthy across it.
        self.cache.clear();
        // Neither are any tokens recorded *before* the restore: bump every
        // namespace's epoch and drop its tables, exactly as if each
        // backend had been re-attached.
        let mut synced = self.synced.write();
        for state in synced.backends.values_mut() {
            state.epoch += 1;
            state.tables.clear();
        }
        // Then adopt the snapshot's durable tokens under each namespace's
        // *live* epoch: the tokens assert
        // "the index now installed reflects these table versions", which
        // holds for whatever backend is currently attached under the name
        // — version tokens are content fingerprints, and a mismatching
        // backend simply fails the token diff and re-scans. A backend
        // attached *after* this restore bumps its epoch again and
        // invalidates its adopted tokens (the conservative direction).
        for persisted in sync {
            let id = BackendId::named(&persisted.name);
            let be = synced.backends.entry(id).or_default();
            let epoch = be.epoch;
            for (database, table, version) in persisted.tables {
                be.tables.insert((database, table), TableState { epoch, version });
            }
        }
        Ok(())
    }
}

/// Map an expired-deadline phase into the typed (fatal, non-retryable)
/// store error — the single conversion point between `wg_util`'s phase
/// vocabulary and the `StoreError` taxonomy.
fn deadline_err(phase: Phase) -> StoreError {
    StoreError::DeadlineExceeded { phase }
}

/// Construct the sharded LSH index a config describes (used at system
/// construction and by paged restores, which must reproduce the exact
/// geometry the sealed signatures were generated under).
fn build_index(config: &WarpGateConfig) -> ShardedLshIndex {
    let index = ShardedLshIndex::new(
        config.dim,
        LshParams::for_threshold(config.lsh_threshold, config.lsh_bits),
        config.seed ^ 0x1DB5,
        config.effective_shards(),
    );
    index.set_probes(config.probes);
    index
}

/// One backend's durable sync slice as it travels through the WGST
/// snapshot frame (see `persist.rs`): the backend *name* (ids are
/// process-local), the attach epoch it was saved under (diagnostic — the
/// loader adopts its own live epoch), and the table → version tokens that
/// were current at save time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PersistedBackendSync {
    pub(crate) name: String,
    pub(crate) epoch: u64,
    pub(crate) tables: Vec<(String, String, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_store::{CdwConfig, CdwConnector, Column, Database, SampleSpec, Table, Warehouse};

    fn connector() -> Arc<CdwConnector> {
        let mut w = Warehouse::new("w");
        let mut sales = Database::new("salesforce");
        sales.add_table(
            Table::new(
                "account",
                vec![
                    Column::text(
                        "name",
                        (0..80).map(|i| format!("Company {i}")).collect::<Vec<_>>(),
                    ),
                    Column::ints("employees", (0..80).map(|i| i * 10).collect()),
                ],
            )
            .unwrap(),
        );
        sales.add_table(
            Table::new(
                "lead",
                vec![Column::text(
                    "company",
                    (0..60).map(|i| format!("company {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        let mut stocks = Database::new("stocks");
        stocks.add_table(
            Table::new(
                "industries",
                vec![
                    Column::text(
                        "company_name",
                        (0..70).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
                    ),
                    Column::text(
                        "sector",
                        (0..70).map(|i| format!("Sector {}", i % 7)).collect::<Vec<_>>(),
                    ),
                ],
            )
            .unwrap(),
        );
        stocks.add_table(
            Table::new(
                "prices",
                vec![Column::floats("close", (0..50).map(|i| 10.0 + i as f64).collect())],
            )
            .unwrap(),
        );
        w.add_database(sales);
        w.add_database(stocks);
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    fn system() -> (WarpGate, Arc<CdwConnector>) {
        let c = connector();
        let wg =
            WarpGate::with_backend(WarpGateConfig { threads: 2, ..Default::default() }, c.clone());
        wg.index_warehouse().unwrap();
        (wg, c)
    }

    #[test]
    fn indexes_all_embeddable_columns() {
        let (wg, _) = system();
        assert_eq!(wg.len(), 6);
    }

    #[test]
    fn discovers_format_variants_across_databases() {
        let (wg, _c) = system();
        let q = ColumnRef::new("salesforce", "account", "name");
        let d = wg.discover(&q, 3).unwrap();
        assert!(!d.candidates.is_empty(), "no candidates found");
        let refs: Vec<String> = d.candidates.iter().map(|j| j.reference.to_string()).collect();
        assert!(
            refs.contains(&"stocks.industries.company_name".to_string()),
            "cross-database variant missed: {refs:?}"
        );
        assert!(
            refs.contains(&"salesforce.lead.company".to_string()),
            "same-database variant missed: {refs:?}"
        );
        assert!(d.candidates[0].score > 0.9);
    }

    #[test]
    fn excludes_query_and_table_mates() {
        let (wg, _c) = system();
        let q = ColumnRef::new("salesforce", "account", "name");
        let d = wg.discover(&q, 10).unwrap();
        for j in &d.candidates {
            assert_ne!(j.reference, q);
            assert!(!j.reference.same_table(&q));
        }
    }

    #[test]
    fn timing_components_populated() {
        let (wg, _c) = system();
        let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 3).unwrap();
        assert!(d.timing.load_secs > 0.0);
        assert!(d.timing.embed_secs > 0.0);
        assert!(d.timing.lookup_secs > 0.0);
        assert!(d.timing.total_secs() < 5.0, "unexpectedly slow");
        assert_eq!(d.timing.backend, Some(BackendId::DEFAULT), "scan bills the query's namespace");
    }

    #[test]
    fn sampling_preserves_results() {
        let c = connector();
        let full = WarpGate::with_backend(WarpGateConfig::full_scan(), c.clone());
        full.index_warehouse().unwrap();
        let sampled = WarpGate::with_backend(
            WarpGateConfig::default().with_sample(SampleSpec::DistinctReservoir { n: 10, seed: 7 }),
            c.clone(),
        );
        sampled.index_warehouse().unwrap();
        let q = ColumnRef::new("salesforce", "account", "name");
        // Both company-name variants are genuinely joinable; with a sample
        // of 10 values their ranks may swap (the paper reports ±1–2%
        // effectiveness variation). The sampled top hit must still be one
        // of the full-scan top hits.
        let full_top: Vec<ColumnRef> =
            full.discover(&q, 2).unwrap().candidates.into_iter().map(|j| j.reference).collect();
        let top_sampled = sampled.discover(&q, 1).unwrap().candidates[0].reference.clone();
        assert!(
            full_top.contains(&top_sampled),
            "sampled top hit {top_sampled} not among full-scan top-2 {full_top:?}"
        );
    }

    #[test]
    fn incremental_add_and_remove() {
        let (wg, c) = system();
        let before = wg.len();
        c.warehouse_mut().database_mut("stocks").add_table(
            Table::new("tickers", vec![Column::text("symbol", ["AAPL", "MSFT", "GOOG"])]).unwrap(),
        );
        wg.index_table("stocks", "tickers").unwrap();
        assert_eq!(wg.len(), before + 1);
        assert_eq!(wg.remove_table("stocks", "tickers"), 1);
        assert_eq!(wg.len(), before);
        // Removed table never comes back in results.
        let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 10).unwrap();
        assert!(d.candidates.iter().all(|j| j.reference.table != "tickers"));
    }

    #[test]
    fn reindexing_a_table_replaces_vectors() {
        let (wg, c) = system();
        let before = wg.len();
        // Refresh the lead table with new content.
        c.warehouse_mut().database_mut("salesforce").add_table(
            Table::new(
                "lead",
                vec![Column::text(
                    "company",
                    (0..30).map(|i| format!("Fresh {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        wg.index_table("salesforce", "lead").unwrap();
        assert_eq!(wg.len(), before, "refresh must not grow the index");
    }

    #[test]
    fn discover_values_ad_hoc() {
        let (wg, _) = system();
        let hits = wg.discover_values(&["Company 1", "Company 2", "Company 3"], 3);
        assert!(!hits.is_empty());
        // Should surface one of the company-name columns.
        assert!(
            hits[0].reference.column.contains("name")
                || hits[0].reference.column.contains("company")
        );
    }

    #[test]
    fn augment_via_lookup_adds_sector() {
        let (wg, c) = system();
        let base = c.warehouse().table("salesforce", "account").unwrap().clone();
        let candidate = ColumnRef::new("stocks", "industries", "company_name");
        let augmented = wg
            .augment_via_lookup(&base, "name", &candidate, &["sector"], KeyNorm::CaseFold)
            .unwrap();
        assert_eq!(augmented.num_rows(), base.num_rows());
        let sector = augmented.column("sector").unwrap();
        // Rows 0..70 match (case-folded), the rest are NULL.
        assert!(!sector.get(0).is_null());
        assert!(sector.get(75).is_null());
    }

    #[test]
    fn joinability_is_symmetric_and_high_for_variants() {
        let (wg, _c) = system();
        let a = ColumnRef::new("salesforce", "account", "name");
        let b = ColumnRef::new("stocks", "industries", "company_name");
        let ab = wg.joinability(&a, &b).unwrap();
        let ba = wg.joinability(&b, &a).unwrap();
        assert!((ab - ba).abs() < 1e-6);
        assert!(ab > 0.8, "joinability {ab}");
    }

    #[test]
    fn unknown_query_errors() {
        let (wg, _c) = system();
        assert!(matches!(
            wg.discover(&ColumnRef::new("nope", "t", "c"), 3),
            Err(StoreError::NotFound(_))
        ));
    }

    #[test]
    fn detached_system_errors_cleanly() {
        let (wg, c) = system();
        let q = ColumnRef::new("salesforce", "account", "name");
        let handle = wg.detach().expect("was attached");
        assert!(matches!(wg.discover(&q, 3), Err(StoreError::Backend(_))));
        assert!(matches!(wg.index_warehouse(), Err(StoreError::Backend(_))));
        assert!(matches!(wg.sync(), Err(StoreError::Backend(_))));
        // The in-memory index still answers ad-hoc value queries.
        assert!(!wg.discover_values(&["Company 1", "Company 2"], 3).is_empty());
        // Re-attach restores full service.
        wg.attach(handle);
        assert!(wg.discover(&q, 3).is_ok());
        drop(c);
    }

    #[test]
    fn contextual_embeddings_separate_identical_value_sets() {
        // Two candidate tables hold the SAME city values; the query comes
        // from a shipping context. With value-only embeddings the two
        // candidates tie; with §5.2.1 context the shipping-flavored table
        // must win.
        let mut w = Warehouse::new("w");
        let cities: Vec<String> = (0..40).map(|i| format!("City Number {i}")).collect();
        w.database_mut("ops").add_table(
            Table::new(
                "shipments",
                vec![
                    Column::text("ship_city", cities.clone()),
                    Column::floats("weight", (0..40).map(|i| i as f64).collect()),
                ],
            )
            .unwrap(),
        );
        w.database_mut("logistics").add_table(
            Table::new(
                "delivery_routes",
                vec![
                    Column::text("shipping_city", cities.clone()),
                    Column::floats("route_weight", (0..40).map(|i| i as f64).collect()),
                ],
            )
            .unwrap(),
        );
        w.database_mut("billing").add_table(
            Table::new(
                "invoices",
                vec![
                    Column::text("billing_city", cities.clone()),
                    Column::floats("amount_due", (0..40).map(|i| i as f64).collect()),
                ],
            )
            .unwrap(),
        );
        let c = Arc::new(CdwConnector::new(w, wg_store::CdwConfig::free()));
        let wg = WarpGate::with_backend(WarpGateConfig::default().with_context(0.25), c);
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("ops", "shipments", "ship_city");
        let d = wg.discover(&q, 2).unwrap();
        assert_eq!(
            d.candidates[0].reference,
            ColumnRef::new("logistics", "delivery_routes", "shipping_city"),
            "context should prefer the shipping-flavored table: {:?}",
            d.candidates
        );
    }

    #[test]
    fn warm_cache_skips_scan_and_embed() {
        let (wg, _c) = system();
        let q = ColumnRef::new("salesforce", "account", "name");
        let cold = wg.discover(&q, 3).unwrap();
        assert!(!cold.timing.cache_hit);
        assert!(cold.timing.load_secs > 0.0);
        assert!(cold.timing.embed_secs > 0.0);

        let warm = wg.discover(&q, 3).unwrap();
        assert!(warm.timing.cache_hit, "second identical query must hit the cache");
        assert_eq!(warm.timing.load_secs, 0.0, "warm query must not scan");
        assert_eq!(warm.timing.embed_secs, 0.0, "warm query must not embed");
        assert_eq!(warm.timing.virtual_load_secs, 0.0, "warm query must not touch the CDW");
        assert_eq!(warm.candidates, cold.candidates, "cache must not change results");
        let stats = wg.cache_stats();
        assert!(stats.hits >= 1 && stats.misses >= 1);
    }

    #[test]
    fn cache_disabled_by_zero_capacity() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default().with_cache_capacity(0), c);
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("salesforce", "account", "name");
        wg.discover(&q, 3).unwrap();
        let again = wg.discover(&q, 3).unwrap();
        assert!(!again.timing.cache_hit);
        assert!(again.timing.load_secs > 0.0, "disabled cache must re-scan");
    }

    #[test]
    fn reindex_invalidates_cached_query_embedding() {
        let (wg, c) = system();
        let q = ColumnRef::new("salesforce", "lead", "company");
        let before = wg.discover(&q, 3).unwrap();
        assert!(wg.discover(&q, 3).unwrap().timing.cache_hit);

        // Replace the lead table's content; re-index must evict the stale
        // query embedding so discovery sees the new values.
        c.warehouse_mut().database_mut("salesforce").add_table(
            Table::new(
                "lead",
                vec![Column::text(
                    "company",
                    (0..30).map(|i| format!("Zebra {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        wg.index_table("salesforce", "lead").unwrap();
        let after = wg.discover(&q, 3).unwrap();
        assert!(!after.timing.cache_hit, "re-index must evict the cached embedding");
        assert_ne!(before.candidates, after.candidates, "new column content must change discovery");
    }

    #[test]
    fn remove_table_evicts_cached_embeddings() {
        let (wg, _c) = system();
        let q = ColumnRef::new("stocks", "industries", "company_name");
        wg.discover(&q, 3).unwrap();
        assert!(wg.discover(&q, 3).unwrap().timing.cache_hit);
        wg.remove_table("stocks", "industries");
        // The warehouse still holds the table, so the query itself works —
        // but its embedding must be freshly computed.
        let d = wg.discover(&q, 3).unwrap();
        assert!(!d.timing.cache_hit, "remove_table must evict cache entries");
    }

    #[test]
    fn discover_batch_matches_sequential_discover() {
        let (wg, _c) = system();
        let queries = vec![
            ColumnRef::new("salesforce", "account", "name"),
            ColumnRef::new("salesforce", "lead", "company"),
            ColumnRef::new("stocks", "industries", "company_name"),
            ColumnRef::new("salesforce", "account", "name"), // repeat → cache
        ];
        let sequential: Vec<_> =
            queries.iter().map(|q| wg.discover(q, 4).unwrap().candidates).collect();
        let batch = wg.discover_batch(&queries, 4).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (i, d) in batch.iter().enumerate() {
            assert_eq!(d.query, queries[i], "results must come back in input order");
            assert_eq!(d.candidates, sequential[i], "batch diverges on query {i}");
            assert!(d.timing.cache_hit, "batch after sequential must be fully cached");
        }
    }

    #[test]
    fn discover_batch_cold_and_single_threaded() {
        let c = connector();
        let wg = WarpGate::with_backend(
            WarpGateConfig { threads: 1, cache_capacity: 0, ..Default::default() },
            c,
        );
        wg.index_warehouse().unwrap();
        let queries = vec![
            ColumnRef::new("salesforce", "account", "name"),
            ColumnRef::new("stocks", "industries", "company_name"),
        ];
        let batch = wg.discover_batch(&queries, 3).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|d| !d.candidates.is_empty()));
    }

    #[test]
    fn discover_batch_rejects_unknown_query_upfront() {
        let (wg, c) = system();
        let cost_before = c.costs();
        // The invalid ref sits in the MIDDLE of otherwise valid queries:
        // validation must reject the whole batch before any scan is billed.
        let queries = vec![
            ColumnRef::new("salesforce", "account", "name"),
            ColumnRef::new("nope", "t", "c"),
            ColumnRef::new("stocks", "industries", "company_name"),
        ];
        assert!(matches!(wg.discover_batch(&queries, 3), Err(StoreError::NotFound(_))));
        assert_eq!(
            c.costs().since(&cost_before).requests,
            0,
            "validation must reject the batch before any scan is billed"
        );
    }

    #[test]
    fn single_shard_results_match_default_sharding() {
        let c = connector();
        let sharded = WarpGate::with_backend(WarpGateConfig::default().with_shards(8), c.clone());
        sharded.index_warehouse().unwrap();
        let single = WarpGate::with_backend(WarpGateConfig::default().with_shards(1), c);
        single.index_warehouse().unwrap();
        for q in [
            ColumnRef::new("salesforce", "account", "name"),
            ColumnRef::new("stocks", "industries", "company_name"),
        ] {
            let a = sharded.discover(&q, 5).unwrap().candidates;
            let b = single.discover(&q, 5).unwrap().candidates;
            assert_eq!(a, b, "shard count must not change discovery results");
        }
    }

    #[test]
    fn zero_shards_resolve_to_available_parallelism_at_construction() {
        let wg = WarpGate::new(WarpGateConfig { shards: 0, threads: 3, ..Default::default() });
        let expected = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        // `shards: 0` follows the machine's thread count, not the worker
        // `threads` knob — the index outlives any one indexing run.
        assert_eq!(wg.index.shard_count(), expected);
    }

    #[test]
    fn index_report_counts() {
        let c = connector();
        let wg = WarpGate::with_backend(WarpGateConfig::default(), c);
        let report = wg.index_warehouse().unwrap();
        assert_eq!(report.columns_indexed, 6);
        assert_eq!(report.columns_skipped, 0);
        assert!(report.cost.requests >= 6);
        assert!(report.elapsed_secs > 0.0);
    }

    #[test]
    fn sync_on_unchanged_warehouse_is_a_noop() {
        let (wg, c) = system();
        c.reset_costs();
        let report = wg.sync().unwrap();
        assert!(report.is_noop(), "nothing changed: {report:?}");
        assert_eq!(report.columns_indexed, 0);
        assert_eq!(report.cost.requests, 0, "a no-op sync must not scan anything");
    }

    #[test]
    fn sync_reindexes_only_the_changed_table() {
        let (wg, c) = system();
        // Warm a cache entry on an untouched table to prove it survives.
        let untouched = ColumnRef::new("stocks", "industries", "company_name");
        wg.discover(&untouched, 3).unwrap();
        assert!(wg.discover(&untouched, 3).unwrap().timing.cache_hit);

        c.warehouse_mut().database_mut("salesforce").add_table(
            Table::new(
                "lead",
                vec![Column::text(
                    "company",
                    (0..45).map(|i| format!("Updated {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        c.reset_costs();
        let embeds_before = wg.embedder().embed_count();
        let report = wg.sync().unwrap();
        assert_eq!(report.tables_updated, 1);
        assert_eq!(report.tables_added, 0);
        assert_eq!(report.tables_removed, 0);
        assert_eq!(report.columns_indexed, 1, "lead has one column");
        assert_eq!(report.cost.requests, 1, "only the changed column scans");
        assert_eq!(
            wg.embedder().embed_count() - embeds_before,
            1,
            "only the changed column re-embeds"
        );
        // The untouched table's cache entry stayed warm.
        assert!(
            wg.discover(&untouched, 3).unwrap().timing.cache_hit,
            "sync must not evict cache entries of unchanged tables"
        );
        // Discovery sees the new content.
        let q = ColumnRef::new("salesforce", "lead", "company");
        let d = wg.discover(&q, 3).unwrap();
        assert!(!d.timing.cache_hit, "changed table's cached embedding must be evicted");
    }

    #[test]
    fn sync_adds_and_removes_tables() {
        let (wg, c) = system();
        let before = wg.len();
        {
            let mut w = c.warehouse_mut();
            w.database_mut("stocks").add_table(
                Table::new("tickers", vec![Column::text("symbol", ["AAPL", "MSFT", "GOOG"])])
                    .unwrap(),
            );
            w.database_mut("salesforce").remove_table("lead");
        }
        let report = wg.sync().unwrap();
        assert_eq!(report.tables_added, 1);
        assert_eq!(report.tables_removed, 1);
        assert_eq!(report.tables_updated, 0);
        assert_eq!(report.columns_indexed, 1);
        assert_eq!(report.columns_removed, 1);
        assert_eq!(wg.len(), before, "one column in, one column out");
        // The vanished table never resurfaces; the new one ranks.
        let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 10).unwrap();
        assert!(d.candidates.iter().all(|j| j.reference.table != "lead"));
        let hits = wg.discover_values(&["AAPL", "MSFT"], 3);
        assert!(hits.iter().any(|h| h.reference.table == "tickers"));
    }

    #[test]
    fn sync_drops_vanished_columns_of_changed_tables() {
        let (wg, c) = system();
        // Replace the two-column account table with a one-column version.
        c.warehouse_mut().database_mut("salesforce").add_table(
            Table::new(
                "account",
                vec![Column::text(
                    "name",
                    (0..80).map(|i| format!("Company {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        let before = wg.len();
        let report = wg.sync().unwrap();
        assert_eq!(report.tables_updated, 1);
        assert_eq!(report.columns_removed, 1, "the employees column vanished");
        assert_eq!(report.columns_indexed, 1, "the surviving column re-indexed");
        assert_eq!(wg.len(), before - 1);
        // The vanished column never comes back in results.
        let d = wg.discover(&ColumnRef::new("stocks", "prices", "close"), 10).unwrap();
        assert!(d.candidates.iter().all(|j| j.reference.column != "employees"));
    }

    /// A minimal third-party backend: delegates to a CdwConnector but can
    /// be switched into a failing mode — proof the trait is implementable
    /// outside `wg_store`, and a handle on mid-run failures.
    struct TogglableBackend {
        inner: Arc<CdwConnector>,
        fail: std::sync::atomic::AtomicBool,
    }

    impl wg_store::WarehouseBackend for TogglableBackend {
        fn name(&self) -> String {
            format!("togglable:{}", wg_store::WarehouseBackend::name(self.inner.as_ref()))
        }
        fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
            self.inner.list_tables()
        }
        fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
            wg_store::WarehouseBackend::table_meta(self.inner.as_ref(), database, table)
        }
        fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<wg_store::Column> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(StoreError::Backend("togglable backend is down".into()));
            }
            self.inner.scan_column(r, sample)
        }
        fn scan_table(
            &self,
            database: &str,
            table: &str,
            sample: SampleSpec,
        ) -> StoreResult<Table> {
            if self.fail.load(std::sync::atomic::Ordering::Relaxed) {
                return Err(StoreError::Backend("togglable backend is down".into()));
            }
            self.inner.scan_table(database, table, sample)
        }
        fn costs(&self) -> CostSnapshot {
            self.inner.costs()
        }
        fn reset_costs(&self) {
            self.inner.reset_costs()
        }
    }

    #[test]
    fn failed_index_run_records_nothing_so_sync_retries() {
        let inner = connector();
        let toggle =
            Arc::new(TogglableBackend { inner, fail: std::sync::atomic::AtomicBool::new(true) });
        let wg = WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() },
            toggle.clone(),
        );
        assert!(matches!(wg.index_warehouse(), Err(StoreError::Backend(_))));
        assert_eq!(wg.len(), 0);

        // The backend comes back; the failed run must not have recorded
        // any versions, so sync (same epoch, same backend) indexes all.
        toggle.fail.store(false, std::sync::atomic::Ordering::Relaxed);
        let report = wg.sync().unwrap();
        assert_eq!(report.columns_indexed, 6, "sync must retry everything: {report:?}");
        assert_eq!(wg.len(), 6);
    }

    #[test]
    fn attach_swaps_backends_and_sync_reconciles() {
        let (wg, _old) = system();
        assert_eq!(wg.len(), 6);
        // A different backend: one table survives by name (with different
        // content), the rest vanish, one is new.
        let mut w = Warehouse::new("w2");
        w.database_mut("salesforce").add_table(
            Table::new(
                "account",
                vec![Column::text(
                    "name",
                    (0..20).map(|i| format!("Fresh Co {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        w.database_mut("hr").add_table(
            Table::new(
                "people",
                vec![Column::text(
                    "full_name",
                    (0..20).map(|i| format!("Person {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        let fresh = Arc::new(CdwConnector::new(w, CdwConfig::free()));
        wg.attach(fresh);
        let report = wg.sync().unwrap();
        // Everything the new backend serves was re-scanned (epoch bump),
        // and the three old tables dropped.
        assert_eq!(report.tables_removed, 3);
        assert_eq!(report.tables_added + report.tables_updated, 2);
        assert_eq!(wg.len(), 2);
        let d = wg.discover(&ColumnRef::new("salesforce", "account", "name"), 10).unwrap();
        assert!(d.candidates.iter().all(|j| j.reference.database != "stocks"));
    }

    // ── Federation ────────────────────────────────────────────────────

    /// A second warehouse whose tables hold format variants of the default
    /// connector's company names, so cross-namespace discovery has real
    /// joins to find.
    fn lake_connector() -> Arc<CdwConnector> {
        let mut w = Warehouse::new("lake");
        w.database_mut("raw").add_table(
            Table::new(
                "exports",
                vec![Column::text(
                    "company",
                    (0..50).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    #[test]
    fn named_attach_indexes_into_its_own_namespace() {
        let (wg, _c) = system();
        let lake = wg.attach_named("system-test-lake", lake_connector());
        assert!(!lake.is_default());
        assert_eq!(wg.attached_backends().len(), 2);
        let before = wg.len();
        wg.sync().unwrap();
        assert_eq!(wg.len(), before + 1, "the lake's one column joined the index");

        // Cross-namespace discovery: the default CDW's query column finds
        // the lake's format variant.
        let q = ColumnRef::new("salesforce", "account", "name");
        let d = wg.discover(&q, 10).unwrap();
        let lake_ref = ColumnRef::scoped(lake, "raw", "exports", "company");
        assert!(
            d.candidates.iter().any(|j| j.reference == lake_ref),
            "lake variant missing from {:?}",
            d.candidates
        );

        // Scoping to the lake returns only lake candidates; excluding it
        // returns none of them.
        let only = wg.discover_scoped(&q, 10, &DiscoverScope::include([lake.bits()])).unwrap();
        assert!(!only.candidates.is_empty());
        assert!(only.candidates.iter().all(|j| j.reference.backend == lake));
        let none = wg.discover_scoped(&q, 10, &DiscoverScope::exclude([lake.bits()])).unwrap();
        assert!(none.candidates.iter().all(|j| j.reference.backend != lake));
    }

    #[test]
    fn sync_backend_touches_only_its_namespace() {
        let (wg, c) = system();
        let lake_c = lake_connector();
        wg.attach_named("system-test-lake2", lake_c.clone());
        wg.sync().unwrap();

        // Mutate BOTH warehouses, then sync only the lake.
        c.warehouse_mut()
            .database_mut("salesforce")
            .add_table(Table::new("fresh", vec![Column::text("x", ["a", "b", "c"])]).unwrap());
        lake_c.warehouse_mut().database_mut("raw").add_table(
            Table::new(
                "exports",
                vec![Column::text(
                    "company",
                    (0..40).map(|i| format!("Updated Co {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        c.reset_costs();
        lake_c.reset_costs();
        let report = wg.sync_backend("system-test-lake2").unwrap();
        assert_eq!(report.tables_updated, 1);
        assert_eq!(c.costs().requests, 0, "the default CDW must not be scanned");
        assert!(lake_c.costs().requests >= 1, "the lake re-scans its changed table");

        // The default namespace's pending change is still there for its
        // own sync.
        let rest = wg.sync().unwrap();
        assert_eq!(rest.tables_added, 1, "the CDW's new table syncs separately: {rest:?}");
    }

    #[test]
    fn per_backend_sync_slices_attribute_costs() {
        let wg = WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() });
        let cdw = wg.attach_named("system-test-slice-cdw", connector());
        let lake = wg.attach_named("system-test-slice-lake", lake_connector());
        let report = wg.sync().unwrap();
        assert_eq!(report.per_backend.len(), 2);
        let slice_of = |id: BackendId| {
            report.per_backend.iter().find(|(b, _)| *b == id).map(|(_, r)| r).unwrap()
        };
        assert_eq!(slice_of(cdw).columns_indexed, 6);
        assert_eq!(slice_of(lake).columns_indexed, 1);
        assert!(slice_of(cdw).cost.requests >= 6);
        assert!(slice_of(lake).cost.requests >= 1);
        assert_eq!(
            report.columns_indexed,
            report.per_backend.iter().map(|(_, r)| r.columns_indexed).sum::<usize>()
        );
    }

    #[test]
    fn detach_named_evicts_cache_and_tokens_for_reattach() {
        let wg = WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() });
        let lake = wg.attach_named("system-test-swap", lake_connector());
        wg.sync().unwrap();
        let q = ColumnRef::scoped(lake, "raw", "exports", "company");
        wg.discover(&q, 3).unwrap();
        assert!(wg.discover(&q, 3).unwrap().timing.cache_hit);

        let detached = wg.detach_named("system-test-swap");
        assert!(detached.is_some());
        assert!(matches!(wg.discover(&q, 3), Err(StoreError::Backend(_))));

        // A *different* warehouse re-attaches under the same name: same
        // table name, different content. Nothing stale may survive.
        let mut w = Warehouse::new("lake2");
        w.database_mut("raw").add_table(
            Table::new(
                "exports",
                vec![Column::text(
                    "company",
                    (0..30).map(|i| format!("Other {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        let id2 =
            wg.attach_named("system-test-swap", Arc::new(CdwConnector::new(w, CdwConfig::free())));
        assert_eq!(id2, lake, "a name keeps its namespace across re-attach");
        let report = wg.sync().unwrap();
        assert_eq!(
            report.tables_updated + report.tables_added,
            1,
            "epoch bump forces the re-attached table to re-scan: {report:?}"
        );
        let d = wg.discover(&q, 3).unwrap();
        assert!(!d.timing.cache_hit, "the old warehouse's embedding must not serve the new one");
    }

    #[test]
    fn racing_attach_discards_in_flight_sync_tokens() {
        // The epoch guard: a sync captures its epoch, scans the OLD
        // backend, and tries to commit tokens after attach_named swapped
        // in a NEW backend. The commit must be discarded — otherwise the
        // next sync would treat the old backend's versions as current and
        // skip re-scanning the new backend's content.
        let wg = WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() });
        let id = wg.attach_named("system-test-race", lake_connector());
        let stale_epoch = wg.run_epoch(id);
        let metas = wg.backend_for(id).unwrap().list_tables().unwrap();

        // The swap lands while the (simulated) sync run is in flight.
        wg.attach_named("system-test-race", lake_connector());
        wg.record_synced(id, stale_epoch, &metas);
        assert!(
            wg.synced.read().backends.get(&id).unwrap().tables.is_empty(),
            "stale-epoch token commit must be discarded"
        );

        // And the very next sync re-scans everything the new backend serves.
        let report = wg.sync_backend("system-test-race").unwrap();
        assert_eq!(report.tables_added + report.tables_updated, 1, "{report:?}");
    }

    #[test]
    fn cross_namespace_joinability_and_augment() {
        let (wg, c) = system();
        let lake = wg.attach_named("system-test-xjoin", lake_connector());
        wg.sync().unwrap();
        let a = ColumnRef::new("salesforce", "account", "name");
        let b = ColumnRef::scoped(lake, "raw", "exports", "company");
        let j = wg.joinability(&a, &b).unwrap();
        assert!(j > 0.8, "cross-warehouse joinability {j}");

        // Augment a default-namespace table with a lake candidate: the
        // lookup table must be fetched from the lake's backend.
        let base = c.warehouse().table("salesforce", "account").unwrap().clone();
        let augmented = wg.augment_via_lookup(&base, "name", &b, &[], KeyNorm::CaseFold).unwrap();
        assert_eq!(augmented.num_rows(), base.num_rows());
    }

    #[test]
    fn expired_deadline_sheds_before_any_billed_scan() {
        let (wg, c) = system();
        let q = ColumnRef::new("salesforce", "account", "name");
        let before = c.costs();
        let opts = QueryOptions { deadline: Deadline::within_ms(0), ..Default::default() };
        let err = wg.discover_opts(&q, 3, &opts).unwrap_err();
        assert!(matches!(err, StoreError::DeadlineExceeded { phase: Phase::Validate }), "{err}");
        assert!(!err.is_retryable(), "retrying against the same dead clock is pointless");
        assert_eq!(c.costs().since(&before).requests, 0, "no scan billed past expiry");
        // Joinability and batch take the same gate.
        let b = ColumnRef::new("stocks", "industries", "company_name");
        assert!(wg.joinability_opts(&q, &b, &opts).is_err());
        assert!(wg.discover_batch_opts(&[q], 3, &opts).is_err());
        assert_eq!(c.costs().since(&before).requests, 0);
    }

    #[test]
    fn expired_sync_deadline_bills_zero_scans_and_records_nothing() {
        let c = connector();
        let wg =
            WarpGate::with_backend(WarpGateConfig { threads: 1, ..Default::default() }, c.clone());
        let before = c.costs();
        let err = wg.sync_deadline(Deadline::within_ms(0)).unwrap_err();
        assert!(matches!(err, StoreError::DeadlineExceeded { phase: Phase::Scan }), "{err}");
        assert_eq!(c.costs().since(&before).requests, 0, "expiry stops before the first scan");
        assert_eq!(wg.len(), 0, "nothing indexed, nothing recorded");
        // The budgetless retry picks up the identical change set.
        let report = wg.sync().unwrap();
        assert_eq!(report.tables_added, 4);
        assert_eq!(wg.len(), 6);
    }

    #[test]
    fn quota_exhausted_tenant_is_rejected_while_others_are_unaffected() {
        let (wg, _c) = system();
        let tenant = TenantId::intern("system-test-acme");
        // Two scan tokens, zero refill: deterministic exhaustion after two
        // cache-miss discoveries (one billed scan each).
        wg.quotas().set_quota(tenant, crate::admission::TenantQuota::scans(2.0, 0.0));
        let opts = QueryOptions { tenant: Some(tenant), ..Default::default() };
        let q1 = ColumnRef::new("salesforce", "account", "name");
        let q2 = ColumnRef::new("salesforce", "lead", "company");
        let q3 = ColumnRef::new("stocks", "industries", "sector");
        wg.discover_opts(&q1, 3, &opts).unwrap();
        wg.discover_opts(&q2, 3, &opts).unwrap();
        let err = wg.discover_opts(&q3, 3, &opts).unwrap_err();
        assert!(matches!(err, StoreError::QuotaExceeded { .. }), "{err}");
        assert!(err.is_retryable(), "buckets refill; the caller should back off and retry");
        // The same query is fine anonymously and for any other tenant.
        wg.discover(&q3, 3).unwrap();
        let other = QueryOptions {
            tenant: Some(TenantId::intern("system-test-other")),
            ..Default::default()
        };
        wg.discover_opts(&q3, 3, &other).unwrap();
    }

    #[test]
    fn saturated_admission_serves_degraded_from_warm_cache_only_when_opted_in() {
        let c = connector();
        let wg = WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() }.with_admission(1, 0, 0),
            c.clone(),
        );
        wg.index_warehouse().unwrap();
        let q = ColumnRef::new("salesforce", "account", "name");
        // Warm the cache through the normal path, then occupy the only
        // admission slot the way a long-running request would.
        let warm = wg.discover(&q, 3).unwrap();
        let slot = wg.admission.as_ref().unwrap().acquire().unwrap();
        // Without the opt-in: shed with the retryable Overloaded.
        let err = wg.discover(&q, 3).unwrap_err();
        assert!(matches!(err, StoreError::Overloaded { .. }), "{err}");
        assert!(err.is_retryable());
        // Opted in with a warm cache: a flagged answer identical to the
        // unloaded one, and not a single billed scan.
        let before = c.costs();
        let opts = QueryOptions { allow_degraded: true, ..Default::default() };
        let d = wg.discover_opts(&q, 3, &opts).unwrap();
        assert!(d.timing.degraded && d.timing.cache_hit, "degradation is never silent");
        assert_eq!(d.candidates, warm.candidates, "degraded answers are real cached answers");
        assert_eq!(c.costs().since(&before).requests, 0, "degraded serving never scans");
        // Opted in but cold: degradation never fabricates an answer.
        let cold = ColumnRef::new("stocks", "prices", "close");
        let err = wg.discover_opts(&cold, 3, &opts).unwrap_err();
        assert!(matches!(err, StoreError::Overloaded { .. }), "{err}");
        drop(slot);
        wg.discover(&q, 3).expect("released slot readmits");
        let stats = wg.admission_stats().expect("admission is on");
        assert!(stats.shed_queue_full >= 2, "{stats:?}");
        assert_eq!(stats.in_flight, 0);
    }
}
