//! The WarpGate system: the state every pipeline shares, and who may
//! touch a warehouse.
//!
//! A system holds *named* warehouse backends ([`WarpGate::attach_named`]),
//! each interned to a [`BackendId`] that namespaces everything downstream —
//! column refs, index item ids (high bits, see `wg_lsh::compose_item_id`),
//! embedding-cache keys, sync epochs, and recorded version tokens.
//! [`WarpGate::with_backend`] attaches under `"default"`, the namespace
//! un-scoped refs name.
//!
//! The two pipelines of the paper's Fig. 2 are `impl WarpGate` blocks of
//! their own: indexing and sync in `ingest.rs`, search in `query.rs`. This
//! file keeps what both stand on — construction, the one lock over the
//! shared [`State`], attach / detach and [`WarpGate::resolve`], accessors,
//! and the plumbing `persist.rs` restores through.

use std::sync::Arc;

use parking_lot::RwLock;
use wg_embed::{ColumnEmbedder, EmbeddingModel, WebTableConfig, WebTableModel};
use wg_lsh::{LshParams, SimHashLshIndex, SimHasher};
use wg_store::{BackendHandle, BackendId, ColumnRef, StoreError, StoreResult, TableMeta};
use wg_util::deadline::Phase;
use wg_util::lru::CacheStats;
use wg_util::FxHashMap;

use crate::admission::{AdmissionController, AdmissionPermit, AdmissionStats, QuotaPolicy};
use crate::cache::EmbeddingCache;
use crate::config::WarpGateConfig;
use crate::registry::Registry;

/// What the index currently reflects, per table: the backend version token
/// recorded when the table was last (re-)indexed, stamped with the attach
/// epoch so swapping backends invalidates every recorded token at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TableState {
    pub(crate) epoch: u64,
    pub(crate) version: u64,
}

/// One backend namespace. Epochs and version tokens are per namespace:
/// re-attaching the data lake never disturbs what the CDW's sync has
/// reconciled. A namespace outlives its backend: detaching keeps the
/// recorded table *keys*, so the first sync after a re-attach still drops
/// vanished tables.
#[derive(Default)]
pub(crate) struct Namespace {
    /// The attached backend; `None` once detached.
    pub(crate) backend: Option<BackendHandle>,
    /// Bumped on every attach and detach; recorded tokens from older epochs
    /// never compare equal, so the next sync re-scans everything the
    /// namespace's backend serves.
    pub(crate) epoch: u64,
    pub(crate) tables: FxHashMap<(String, String), TableState>,
}

/// Everything both pipelines share, behind the system's one lock: a reader
/// sees the namespaces, the id ↔ column-ref registry and the index at one
/// instant.
pub(crate) struct State {
    pub(crate) namespaces: FxHashMap<BackendId, Namespace>,
    pub(crate) registry: Registry,
    pub(crate) index: SimHashLshIndex,
}

/// One namespace as a run sees it: its attach epoch and the handle that
/// epoch goes with, read under one guard by [`WarpGate::resolve`].
pub(crate) struct Attached {
    pub(crate) id: BackendId,
    pub(crate) epoch: u64,
    pub(crate) backend: BackendHandle,
}

/// The semantic join discovery system.
///
/// A `WarpGate` holds named [`wg_store::WarehouseBackend`]s
/// ([`WarpGate::attach_named`] / [`WarpGate::detach_named`]) — simulated
/// CDWs, CSV directories, fault-injecting wrappers, remote warehouses over
/// TCP — each under its own namespace. Indexing and discovery flow through
/// whichever backend a column ref names; [`WarpGate::sync`] diffs every
/// backend's version tokens against what the index reflects and re-scans
/// only what changed, per backend ([`WarpGate::sync_with`] reconciles
/// one). Un-namespaced refs address the `"default"` namespace.
///
/// Internally: the namespaces (handle, attach epoch, version tokens), the
/// id → column-reference registry and the one [`SimHashLshIndex`] sit
/// behind **one** reader–writer lock. Embeddings are signed outside it with
/// the system's one [`SimHasher`]; query embeddings are memoized in an LRU
/// [`EmbeddingCache`] with a lock of its own. Reads share the lock; writes
/// take it a chunk at a time.
pub struct WarpGate {
    pub(crate) config: WarpGateConfig,
    pub(crate) embedder: ColumnEmbedder,
    /// The index's hyperplanes: ingest signs rows and queries sign
    /// themselves with this before they take `state`'s lock.
    pub(crate) hasher: Arc<SimHasher>,
    /// Never held across a backend call, an embedding, or a call that
    /// takes it again: the lock is not reentrant, and a second `read()` on
    /// one thread deadlocks once a writer queues. It is taken first; no
    /// lock taken under it ever takes it.
    pub(crate) state: RwLock<State>,
    pub(crate) cache: EmbeddingCache,
    /// Byte-budgeted LRU over paged-segment blocks; shared by every
    /// segment [`Self::load_paged`] attaches so the budget bounds the
    /// whole system's cold resident set, not one segment's.
    block_cache: Arc<wg_lsh::BlockCache>,
    /// Concurrency gate over the serving entry points (`discover*`,
    /// `joinability`, `sync*`), present only when
    /// [`WarpGateConfig::admission`] is set. `None` = admission off, zero
    /// overhead.
    admission: Option<AdmissionController>,
    /// Per-tenant token buckets over billed scans/bytes. Tenants without
    /// a configured [`crate::TenantQuota`] are unlimited, so the policy
    /// is inert until [`QuotaPolicy::set_quota`] is called.
    pub(crate) quotas: QuotaPolicy,
}

impl WarpGate {
    /// Create a system with the default hashed web-table embedding model.
    /// No backend is attached yet; call [`Self::attach_named`] (or use
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
        wg.attach_named(wg_util::names::DEFAULT_NAME, backend);
        wg
    }

    /// Create a system with a caller-provided embedding model (the §4.4
    /// BERT comparison swaps in [`wg_embed::MiniBertModel`] here).
    pub fn with_model(config: WarpGateConfig, model: Arc<dyn EmbeddingModel>) -> Self {
        assert_eq!(model.dim(), config.dim, "model dimension must match config");
        let hasher =
            Arc::new(SimHasher::new(config.dim, lsh_params(&config).bits(), config.seed ^ 0x1DB5));
        Self {
            embedder: ColumnEmbedder::new(model, config.aggregation),
            state: RwLock::new(State {
                namespaces: FxHashMap::default(),
                registry: Registry::default(),
                index: empty_index(&config, hasher.clone()),
            }),
            hasher,
            cache: EmbeddingCache::new(config.cache_capacity, config.dim),
            block_cache: wg_lsh::BlockCache::new(config.block_cache_bytes),
            admission: config.admission.map(AdmissionController::new),
            quotas: QuotaPolicy::new(),
            config,
        }
    }

    /// The per-tenant quota policy. Configure tenants with
    /// [`QuotaPolicy::set_quota`]; enforcement happens on every serving
    /// call whose [`crate::QueryOptions`] name a tenant.
    pub fn quotas(&self) -> &QuotaPolicy {
        &self.quotas
    }

    /// Admission-control counters and gauges, or `None` when admission is
    /// off ([`WarpGateConfig::admission`] is `None`).
    pub fn admission_stats(&self) -> Option<AdmissionStats> {
        self.admission.as_ref().map(|a| a.stats())
    }

    /// Acquire an admission slot for one entry-point call, or pass
    /// through (`Ok(None)`) when admission is off. Shed requests fail
    /// with the retryable [`StoreError::Overloaded`].
    pub(crate) fn acquire_admission(&self) -> StoreResult<Option<AdmissionPermit<'_>>> {
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
    /// untouched. The handle and the epoch change under one write guard,
    /// so no run ever sees one without the other (see `resolve`).
    pub fn attach_named(&self, name: &str, backend: BackendHandle) -> BackendId {
        let id = BackendId::named(name);
        // Dropped after the guard: a handle's last reference may close
        // connections.
        let _previous = {
            let mut state = self.state.write();
            let namespace = state.namespaces.entry(id).or_default();
            namespace.epoch += 1;
            namespace.backend.replace(backend)
        };
        // Same column names may hold different content on the new backend;
        // cached embeddings are not trustworthy across the swap. Eager
        // eviction also frees their capacity (the epoch in the cache key
        // already made them unreachable).
        self.cache.invalidate_backend(id);
        id
    }

    /// Detach the backend under `name`, returning it (`None` when nothing
    /// is attached under it; a name never attached is not interned). The
    /// namespace's recorded version tokens are invalidated (epoch bump —
    /// they describe a backend that is gone) and its cached embeddings
    /// evicted eagerly, so a *different* warehouse re-attached under the
    /// same name can never be served stale state; the recorded table
    /// *keys* survive so the first sync after a re-attach still drops
    /// vanished tables. Discovery and indexing against the namespace fail
    /// with [`StoreError::Backend`] until a backend is attached again. Hot
    /// (RAM-resident) indexed items stay queryable via value search
    /// and scoped discovery from other namespaces; the namespace's
    /// **paged** items are dropped, under the same write guard — their
    /// segments were sealed from the departing backend's content, and
    /// keeping disk-resident rows alive past the detach is exactly the
    /// stale-reattach hazard the epoch bump exists to prevent. Emptied
    /// segments retire and their cache-resident blocks are evicted. The
    /// registry keeps their ids, so a re-attach reuses them.
    pub fn detach_named(&self, name: &str) -> Option<BackendHandle> {
        let id = wg_util::names::lookup(name).map(BackendId::from_bits)?;
        let handle = {
            let mut state = self.state.write();
            let namespace = state.namespaces.get_mut(&id)?;
            let handle = namespace.backend.take()?;
            namespace.epoch += 1;
            state.index.drop_cold_backend(id.bits());
            handle
        };
        self.cache.invalidate_backend(id);
        Some(handle)
    }

    /// One namespace for one run: its attach epoch and its handle, read
    /// under one guard, or an error naming the namespace when nothing is
    /// attached under it. A concurrent attach moves the epoch, and then the
    /// run's token commit is discarded ([`Self::record_synced`]) and the
    /// embeddings it cached sit under the old epoch's keys, unreachable.
    pub(crate) fn resolve(&self, id: BackendId) -> StoreResult<Attached> {
        let state = self.state.read();
        match state.namespaces.get(&id) {
            Some(Namespace { backend: Some(backend), epoch, .. }) => {
                Ok(Attached { id, epoch: *epoch, backend: backend.clone() })
            }
            _ if id.is_default() => Err(nothing_attached()),
            _ => Err(StoreError::Backend(format!("backend '{}' is not attached", id.name()))),
        }
    }

    /// Ids of every attached backend, sorted.
    pub fn attached_backends(&self) -> Vec<BackendId> {
        let state = self.state.read();
        let attached = state.namespaces.iter().filter(|(_, n)| n.backend.is_some());
        let mut ids: Vec<BackendId> = attached.map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids
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
        self.state.read().index.len()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.state.read().index.is_empty()
    }

    /// Embedding-cache hit/miss counters and occupancy.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Block-cache counters of the paged tier (all zero until
    /// [`Self::load_paged`] attaches segments and queries read blocks).
    pub fn block_cache_stats(&self) -> CacheStats {
        self.block_cache.stats()
    }

    /// The shared paged-tier block cache (for persistence plumbing).
    pub(crate) fn block_cache(&self) -> &Arc<wg_lsh::BlockCache> {
        &self.block_cache
    }

    /// Indexed columns currently served from the paged (disk-backed)
    /// tier.
    pub fn cold_len(&self) -> usize {
        self.state.read().index.cold_len()
    }

    /// Attached paged segments that still serve live rows.
    pub fn cold_segment_count(&self) -> usize {
        self.state.read().index.cold_segment_count()
    }

    /// The sorted attach set, or an error when nothing is attached.
    pub(crate) fn require_attached(&self) -> StoreResult<Vec<BackendId>> {
        let ids = self.attached_backends();
        if ids.is_empty() {
            return Err(nothing_attached());
        }
        Ok(ids)
    }

    /// Record that the index now reflects these tables at these versions —
    /// unless the namespace's attach epoch moved since the run resolved
    /// it, in which case the tokens belong to a detached backend and
    /// recording them would poison the next sync's diff; discard instead
    /// (the next sync re-scans, which is the safe direction).
    pub(crate) fn record_synced(&self, run: &Attached, metas: &[TableMeta]) {
        let mut state = self.state.write();
        let namespace = state.namespaces.entry(run.id).or_default();
        if namespace.epoch != run.epoch {
            return;
        }
        for m in metas {
            namespace.tables.insert(
                (m.database.clone(), m.table.clone()),
                TableState { epoch: run.epoch, version: m.version },
            );
        }
    }

    /// An empty index with this system's exact geometry (dim, banding,
    /// hyperplanes, probes) — what a restore hydrates, or attaches
    /// segments, into.
    pub(crate) fn fresh_index(&self) -> SimHashLshIndex {
        empty_index(&self.config, self.hasher.clone())
    }

    pub(crate) fn restore_from_persist(
        &mut self,
        index: SimHashLshIndex,
        entries: Vec<(u32, ColumnRef)>,
        sync: Vec<PersistedBackendSync>,
    ) -> StoreResult<()> {
        let registry = Registry::from_entries(entries).map_err(StoreError::SnapshotCorrupt)?;
        let state = self.state.get_mut();
        state.registry = registry;
        state.index = index;
        // The snapshot may come from a system over different warehouse
        // content; cached query embeddings are not trustworthy across it.
        self.cache.clear();
        // Neither are any tokens recorded *before* the restore: bump every
        // namespace's epoch and drop its tables, exactly as if each
        // backend had been re-attached.
        for namespace in state.namespaces.values_mut() {
            namespace.epoch += 1;
            namespace.tables.clear();
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
            let namespace = state.namespaces.entry(id).or_default();
            let epoch = namespace.epoch;
            for (database, table, version) in persisted.tables {
                namespace.tables.insert((database, table), TableState { epoch, version });
            }
        }
        Ok(())
    }
}

impl State {
    /// Drop `refs` from registry and index; how many rows went.
    pub(crate) fn remove(&mut self, refs: &[ColumnRef]) -> usize {
        refs.iter()
            .filter_map(|r| self.registry.remove(r))
            .filter(|&id| self.index.remove(id))
            .count()
    }

    /// The durable slice of the sync bookkeeping: per backend *name*, every
    /// table → version token recorded under the namespace's current epoch.
    /// Stale tokens from older epochs describe backends that are gone and
    /// are not worth carrying across a restart; namespaces with no live
    /// tokens are omitted entirely. Deterministically ordered so identical
    /// states serialize to identical bytes.
    pub(crate) fn persisted_tokens(&self) -> Vec<PersistedBackendSync> {
        let mut out: Vec<PersistedBackendSync> = Vec::new();
        for (id, namespace) in &self.namespaces {
            let mut tables: Vec<(String, String, u64)> = namespace
                .tables
                .iter()
                .filter(|(_, st)| st.epoch == namespace.epoch)
                .map(|((db, t), st)| (db.clone(), t.clone(), st.version))
                .collect();
            if tables.is_empty() {
                continue;
            }
            tables.sort();
            out.push(PersistedBackendSync { name: id.name(), tables });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

fn nothing_attached() -> StoreError {
    StoreError::Backend("no warehouse backend attached (call attach_named() first)".into())
}

/// Map an expired-deadline phase into the typed (fatal, non-retryable)
/// store error — the single conversion point between `wg_util`'s phase
/// vocabulary and the `StoreError` taxonomy.
pub(crate) fn deadline_err(phase: Phase) -> StoreError {
    StoreError::DeadlineExceeded { phase }
}

/// The banding a config describes.
fn lsh_params(config: &WarpGateConfig) -> LshParams {
    LshParams::for_threshold(config.lsh_threshold, config.lsh_bits)
}

/// An empty index of the geometry and probes a config describes, signing
/// with `hasher` (used at system construction and by restores, which must
/// reproduce the exact geometry the sealed signatures were generated
/// under).
fn empty_index(config: &WarpGateConfig, hasher: Arc<SimHasher>) -> SimHashLshIndex {
    let mut index = SimHashLshIndex::with_hasher(hasher, lsh_params(config));
    index.set_probes(config.probes);
    index
}

/// One backend's durable sync slice as it travels through a snapshot's
/// manifest (see `persist.rs`): the backend *name* (ids and attach epochs
/// are process-local — the loader adopts its own live epoch) and the table
/// → version tokens that were current at save time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PersistedBackendSync {
    pub(crate) name: String,
    pub(crate) tables: Vec<(String, String, u64)>,
}

#[cfg(test)]
mod tests;
