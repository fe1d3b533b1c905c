//! Keyed embedding cache.
//!
//! The paper's Table 2 decomposition shows a discovery query's cost is
//! dominated by the CDW scan and embedding inference, not the index lookup.
//! Both phases are pure functions of `(column, sample spec, model seed,
//! context weight)` for a given attached backend, so repeating a query —
//! a dashboard refresh, a warehouse-wide join-graph build revisiting hub
//! columns — can skip them entirely. [`EmbeddingCache`] is the workspace's
//! one LRU ([`wg_util::lru::Lru`]) behind one mutex, over exactly that key
//! plus the backend attach epoch (entries from a previously attached
//! backend are unreachable, not just evicted).
//!
//! Invalidation: `index_table` / `index_warehouse` re-scan a table's data,
//! and `remove_table` drops it, so both evict every entry for the affected
//! columns (any sample spec or context weight). A query that missed before
//! an invalidation and puts after it may hold an embedding of the content
//! the invalidation was for, so its put is dropped ([`Miss`]). Correctness
//! never depends on the cache: eviction only forces the scan→embed path to
//! run again.

use std::sync::Arc;

use wg_embed::Vector;
use wg_store::{BackendId, ColumnRef, SampleSpec, TableRef};
use wg_util::lru::{CacheStats, Lru};
use wg_util::sync::Mutex;

/// Everything the scan→embed pipeline output depends on.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EmbeddingKey {
    /// The scanned column.
    pub column: ColumnRef,
    /// Sampling pushed into the scan.
    pub sample: SampleSpec,
    /// Embedding-model seed (embeddings from different seeds live in
    /// different spaces).
    pub seed: u64,
    /// `f32::to_bits` of the §5.2.1 context blend weight — 0 values and
    /// value-only embeddings (`joinability`) share the `0.0` key.
    pub context_bits: u32,
    /// The backend attach epoch the embedding was scanned under. `attach`
    /// bumps the epoch, so an in-flight query racing a backend swap can
    /// only insert under the *old* epoch — unreachable by every later
    /// lookup, even though the swap already cleared the cache.
    pub epoch: u64,
}

impl EmbeddingKey {
    /// Build a key from the pipeline inputs.
    pub fn new(
        column: &ColumnRef,
        sample: SampleSpec,
        seed: u64,
        context_weight: f32,
        epoch: u64,
    ) -> Self {
        Self { column: column.clone(), sample, seed, context_bits: context_weight.to_bits(), epoch }
    }
}

/// What a lookup that missed hands back: the invalidation count at the
/// probe, which [`EmbeddingCache::put`] compares under the lock.
#[derive(Debug)]
pub struct Miss(u64);

/// An LRU from [`EmbeddingKey`] to column embeddings.
pub struct EmbeddingCache {
    inner: Mutex<Inner>,
    /// What one embedding weighs (`dim × 4`); 0 when the cache is off.
    entry_bytes: usize,
}

struct Inner {
    lru: Lru<EmbeddingKey, Arc<Vector>>,
    /// Invalidation runs so far.
    invalidations: u64,
}

impl EmbeddingCache {
    /// Create a cache holding at most `capacity` embeddings of `dim`
    /// floats: each weighs `dim × 4` bytes against a budget of `capacity`
    /// of them. `capacity == 0` disables the cache: `get` always misses
    /// (and counts it) and `put` is a no-op.
    pub fn new(capacity: usize, dim: usize) -> Self {
        let entry_bytes = if capacity == 0 { 0 } else { dim * 4 };
        let lru = Lru::new(capacity.saturating_mul(entry_bytes));
        Self { inner: Mutex::new(Inner { lru, invalidations: 0 }), entry_bytes }
    }

    /// Look up a cached embedding, refreshing its recency. Counts a hit or
    /// a miss; a miss carries what [`Self::put`] needs.
    pub fn get(&self, key: &EmbeddingKey) -> Result<Arc<Vector>, Miss> {
        let mut inner = self.inner.lock();
        inner.lru.get(key).ok_or(Miss(inner.invalidations))
    }

    /// Insert the embedding a lookup `miss`ed, evicting the least recently
    /// used entries past capacity — unless an invalidation ran since that
    /// lookup: the vector may then be of content the invalidation was
    /// for, and caching it would serve it until the table changes again.
    pub fn put(&self, miss: Miss, key: EmbeddingKey, vector: Arc<Vector>) {
        if self.entry_bytes == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        if inner.invalidations == miss.0 {
            inner.lru.insert(key, vector, self.entry_bytes);
        }
    }

    fn invalidate(&self, keep: impl FnMut(&EmbeddingKey) -> bool) {
        let mut inner = self.inner.lock();
        inner.invalidations += 1;
        inner.lru.retain(keep);
    }

    /// Drop every entry for any column of one (namespaced) table.
    pub fn invalidate_table(&self, table: &TableRef) {
        self.invalidate(|k| !table.contains(&k.column));
    }

    /// Drop every entry scanned from one backend namespace. Detach uses
    /// this: a different warehouse re-attached under the same name must
    /// never be answered from the old warehouse's embeddings, and eager
    /// eviction (rather than relying on the epoch partition alone) frees
    /// the capacity immediately.
    pub fn invalidate_backend(&self, backend: BackendId) {
        self.invalidate(|k| k.column.backend != backend);
    }

    /// Drop everything (restore-from-snapshot uses this: a snapshot may
    /// come from a system whose warehouse content differs).
    pub fn clear(&self) {
        self.invalidate(|_| false);
    }

    /// Counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().lru.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DIM: usize = 4;

    fn key(db: &str, table: &str, column: &str) -> EmbeddingKey {
        EmbeddingKey::new(&ColumnRef::new(db, table, column), SampleSpec::Full, 1, 0.0, 0)
    }

    fn vec_of(x: f32) -> Arc<Vector> {
        Arc::new(Vector(vec![x; DIM]))
    }

    /// A lookup, and a put of `vector` if it missed.
    fn fill(cache: &EmbeddingCache, k: &EmbeddingKey, vector: Arc<Vector>) {
        if let Err(miss) = cache.get(k) {
            cache.put(miss, k.clone(), vector);
        }
    }

    fn cached(cache: &EmbeddingCache, k: &EmbeddingKey) -> Option<Arc<Vector>> {
        cache.get(k).ok()
    }

    #[test]
    fn get_put_roundtrip_and_counters() {
        let cache = EmbeddingCache::new(64, DIM);
        let k = key("db", "t", "c");
        fill(&cache, &k, vec_of(1.0));
        assert_eq!(cached(&cache, &k), Some(vec_of(1.0)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
        assert_eq!(stats.resident_bytes, DIM * 4);
    }

    #[test]
    fn distinct_specs_are_distinct_entries() {
        let cache = EmbeddingCache::new(64, DIM);
        let r = ColumnRef::new("db", "t", "c");
        let full = EmbeddingKey::new(&r, SampleSpec::Full, 1, 0.0, 0);
        let head = EmbeddingKey::new(&r, SampleSpec::Head(10), 1, 0.0, 0);
        let ctx = EmbeddingKey::new(&r, SampleSpec::Full, 1, 0.25, 0);
        let stale = EmbeddingKey::new(&r, SampleSpec::Full, 1, 0.0, 7);
        fill(&cache, &full, vec_of(1.0));
        fill(&cache, &head, vec_of(2.0));
        fill(&cache, &ctx, vec_of(3.0));
        fill(&cache, &stale, vec_of(4.0));
        assert_eq!(cached(&cache, &full), Some(vec_of(1.0)));
        assert_eq!(cached(&cache, &head), Some(vec_of(2.0)));
        assert_eq!(cached(&cache, &ctx), Some(vec_of(3.0)));
        // Epochs partition the key space: an entry inserted under another
        // attach epoch never answers this epoch's lookups.
        assert_eq!(cached(&cache, &stale), Some(vec_of(4.0)));
        assert_ne!(cached(&cache, &full), cached(&cache, &stale));
    }

    #[test]
    fn zero_capacity_disables() {
        let cache = EmbeddingCache::new(0, DIM);
        let k = key("db", "t", "c");
        for _ in 0..3 {
            fill(&cache, &k, vec_of(1.0));
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (0, 3, 0), "every lookup misses");
        assert_eq!(stats.peak_resident_bytes, 0, "nothing was ever stored");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        // Capacity 8 over the whole cache: the victim of every admission
        // past it is the least recently used entry, wherever its key hashes.
        let cache = EmbeddingCache::new(8, DIM);
        let keys: Vec<EmbeddingKey> = (0..12).map(|i| key("db", "t", &format!("c{i}"))).collect();
        for (i, k) in keys.iter().take(8).enumerate() {
            fill(&cache, k, vec_of(i as f32));
        }
        // Touch the even keys, so the odd ones are the four oldest.
        for k in keys.iter().take(8).step_by(2) {
            assert!(cached(&cache, k).is_some());
        }
        for (i, k) in keys.iter().enumerate().skip(8) {
            fill(&cache, k, vec_of(i as f32));
        }
        let resident: Vec<usize> =
            (0..12).filter(|&i| cached(&cache, &keys[i]).is_some()).collect();
        assert_eq!(resident, [0, 2, 4, 6, 8, 9, 10, 11]);
        let stats = cache.stats();
        assert_eq!((stats.len, stats.evictions), (8, 4));
        assert_eq!(stats.peak_resident_bytes, 8 * DIM * 4, "capacity bounds occupancy");
    }

    #[test]
    fn recency_refresh_protects_entries() {
        let cache = EmbeddingCache::new(2, DIM);
        let a = key("db", "t", "a");
        fill(&cache, &a, vec_of(0.0));
        // Keep touching `a` while flooding; it must survive.
        for i in 0..100 {
            fill(&cache, &key("db", "t", &format!("x{i}")), vec_of(1.0));
            assert_eq!(cached(&cache, &a), Some(vec_of(0.0)), "touched entry evicted at {i}");
        }
    }

    #[test]
    fn invalidation_scopes() {
        let cache = EmbeddingCache::new(64, DIM);
        fill(&cache, &key("db", "t1", "a"), vec_of(1.0));
        fill(&cache, &key("db", "t1", "b"), vec_of(2.0));
        fill(&cache, &key("db", "t2", "a"), vec_of(3.0));
        cache.invalidate_table(&TableRef::new("db", "t1"));
        assert_eq!(cached(&cache, &key("db", "t1", "a")), None);
        assert_eq!(cached(&cache, &key("db", "t1", "b")), None);
        assert_eq!(cached(&cache, &key("db", "t2", "a")), Some(vec_of(3.0)));
        cache.clear();
        assert_eq!(cache.stats().len, 0);
    }

    #[test]
    fn a_put_after_an_invalidation_since_its_miss_is_dropped() {
        let cache = EmbeddingCache::new(64, DIM);
        let (a, b) = (key("db", "t1", "a"), key("db", "t2", "b"));
        let miss = cache.get(&a).expect_err("cold");
        // Any invalidation counts, even of another table: the cache cannot
        // tell what content the in-flight vector was computed from.
        cache.invalidate_table(&TableRef::new("db", "t2"));
        cache.put(miss, a.clone(), vec_of(1.0));
        assert_eq!(cached(&cache, &a), None, "the racing put must be dropped");
        fill(&cache, &a, vec_of(2.0));
        assert_eq!(cached(&cache, &a), Some(vec_of(2.0)), "a put from a fresh miss lands");
        assert_eq!(cached(&cache, &b), None);
    }

    #[test]
    fn backend_invalidation_is_namespace_scoped() {
        let cache = EmbeddingCache::new(64, DIM);
        let lake = BackendId::named("cache-test-lake");
        let scoped = |t: &str, c: &str| {
            EmbeddingKey::new(&ColumnRef::scoped(lake, "db", t, c), SampleSpec::Full, 1, 0.0, 0)
        };
        fill(&cache, &key("db", "t1", "a"), vec_of(1.0));
        fill(&cache, &scoped("t1", "a"), vec_of(2.0));
        fill(&cache, &scoped("t2", "b"), vec_of(3.0));
        // Table invalidation honors the namespace: the default-backend
        // entry for the same db.table survives.
        cache.invalidate_table(&TableRef::scoped(lake, "db", "t1"));
        assert_eq!(cached(&cache, &key("db", "t1", "a")), Some(vec_of(1.0)));
        assert_eq!(cached(&cache, &scoped("t1", "a")), None);
        assert_eq!(cached(&cache, &scoped("t2", "b")), Some(vec_of(3.0)));
        cache.invalidate_backend(lake);
        assert_eq!(cached(&cache, &scoped("t2", "b")), None);
        assert_eq!(cached(&cache, &key("db", "t1", "a")), Some(vec_of(1.0)));
    }

    #[test]
    fn concurrent_access_is_safe() {
        let cache = EmbeddingCache::new(128, DIM);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = &cache;
                scope.spawn(move || {
                    for i in 0..200 {
                        let k = key("db", "t", &format!("c{}", (t * 7 + i) % 50));
                        fill(cache, &k, vec_of(i as f32));
                        if i % 40 == 0 {
                            cache.invalidate_table(&TableRef::new("db", "t"));
                        }
                    }
                });
            }
        });
        assert!(cache.stats().len <= 128);
    }
}
