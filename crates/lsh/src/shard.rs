//! A sharded, concurrently accessible SimHash LSH index.
//!
//! [`SimHashLshIndex`] is single-threaded; WarpGate's original deployment
//! put it behind one `RwLock`, which serialized every insert and made any
//! writer (a table refresh, a drop) stall every in-flight query.
//! [`ShardedLshIndex`] partitions items across `N` inner indexes by id
//! (`id % N`), each behind its own lock:
//!
//! * **inserts** route to exactly one shard, so concurrent indexing workers
//!   write to disjoint shards instead of funneling through one writer;
//! * **searches** visit the shards in turn, signing the query **once**
//!   (every shard shares one [`SimHasher`], built once per index) and
//!   collecting into **one** bounded heap that travels from shard to shard,
//!   so a writer only ever blocks the `1/N` of a query's probes that touch
//!   its shard;
//! * **batched mutation** ([`Self::insert_batch`], [`Self::remove_batch`])
//!   groups items by shard and takes each shard's lock once per batch.
//!
//! Results are bit-identical to a single [`SimHashLshIndex`] with the same
//! seed: the shards partition the id space, every shard uses the same
//! hyperplanes, and [`TopK`] retains the same set under the same
//! (score, id) ordering whatever order the rows are pushed in — so one heap
//! fed by every shard holds exactly what a merge of per-shard heaps would,
//! while a later shard's cold pass prunes against what earlier shards found.

use parking_lot::RwLock;
use std::sync::Arc;
use wg_util::codec::{self, CodecResult};
use wg_util::deadline::Deadline;
use wg_util::TopK;

use crate::index::{self, SearchError, SearchOutcome, SimHashLshIndex};
use crate::paged::{SegmentRow, VectorSegment};
use crate::params::LshParams;
use crate::scope::DiscoverScope;
use crate::simhash::SimHasher;
use crate::ItemId;

/// A set of [`SimHashLshIndex`] shards with identical geometry, each behind
/// its own reader–writer lock. All methods take `&self`; interior locking
/// makes the index shareable across threads.
pub struct ShardedLshIndex {
    /// The one set of hyperplanes: the query-side signer here and every
    /// shard's insert-side signer are the same allocation.
    hasher: Arc<SimHasher>,
    params: LshParams,
    shards: Vec<RwLock<SimHashLshIndex>>,
}

impl ShardedLshIndex {
    /// Create an index with `shards` partitions for `dim`-dimensional
    /// vectors. `shards` is clamped to at least 1; one shard reproduces the
    /// single-lock layout exactly.
    pub fn new(dim: usize, params: LshParams, seed: u64, shards: usize) -> Self {
        let hasher = Arc::new(SimHasher::new(dim, params.bits(), seed));
        Self {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(SimHashLshIndex::with_hasher(hasher.clone(), params)))
                .collect(),
            hasher,
            params,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Geometry in use.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.hasher.dim()
    }

    /// The hyperplane seed shared by every shard.
    pub fn seed(&self) -> u64 {
        self.hasher.seed()
    }

    /// Enable multi-probe on every shard (see
    /// [`SimHashLshIndex::set_probes`]).
    pub fn set_probes(&self, probes: usize) {
        for shard in &self.shards {
            shard.write().set_probes(probes);
        }
    }

    /// Probes currently enabled (uniform across shards).
    pub fn probes(&self) -> usize {
        self.shards[0].read().probes()
    }

    /// Total number of stored items across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True when no shard stores anything.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    #[inline]
    fn shard_of(&self, id: ItemId) -> usize {
        id as usize % self.shards.len()
    }

    /// Insert (or replace) one item; see [`SimHashLshIndex::insert`].
    pub fn insert(&self, id: ItemId, vector: &[f32]) -> bool {
        self.shards[self.shard_of(id)].write().insert(id, vector)
    }

    /// Insert a batch, taking each involved shard's write lock **once**.
    /// Signatures are computed up front, outside any lock, so the write
    /// critical sections shrink to bucket pushes and map inserts. Returns
    /// how many items were accepted (zero or mis-dimensioned vectors are
    /// rejected, as in [`SimHashLshIndex::insert`]).
    pub fn insert_batch(&self, items: Vec<(ItemId, Vec<f32>)>) -> usize {
        let dim = self.dim();
        let mut by_shard: Vec<Vec<(ItemId, Vec<f32>, crate::Signature)>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        let mut inserted = 0usize;
        for (id, v) in items {
            if v.len() != dim || v.iter().all(|&x| x == 0.0) {
                continue;
            }
            let sig = self.hasher.sign(&v);
            by_shard[self.shard_of(id)].push((id, v, sig));
            inserted += 1;
        }
        for (shard, group) in self.shards.iter().zip(by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut guard = shard.write();
            for (id, v, sig) in group {
                guard.insert_signed(id, &v, sig);
            }
        }
        inserted
    }

    /// Remove one item; true if it was present.
    pub fn remove(&self, id: ItemId) -> bool {
        self.shards[self.shard_of(id)].write().remove(id)
    }

    /// Remove a batch, taking each involved shard's write lock once.
    /// Returns how many ids were present.
    pub fn remove_batch(&self, ids: &[ItemId]) -> usize {
        let mut by_shard: Vec<Vec<ItemId>> = (0..self.shards.len()).map(|_| Vec::new()).collect();
        for &id in ids {
            by_shard[self.shard_of(id)].push(id);
        }
        let mut removed = 0usize;
        for (shard, group) in self.shards.iter().zip(by_shard) {
            if group.is_empty() {
                continue;
            }
            let mut guard = shard.write();
            removed += group.into_iter().filter(|&id| guard.remove(id)).count();
        }
        removed
    }

    /// The stored vector for an id, cloned out of its shard (cold items
    /// read through the block cache).
    pub fn vector(&self, id: ItemId) -> Option<Vec<f32>> {
        self.shards[self.shard_of(id)].read().vector_owned(id)
    }

    /// Attach sealed segments to every shard's paged tier. Each shard
    /// admits only the ids it owns (`id % shards`), so one segment file
    /// can serve any shard count; the segments share one block cache.
    /// Returns the total rows attached.
    pub fn attach_segments(&self, segments: &[Arc<VectorSegment>]) -> CodecResult<usize> {
        self.attach_segments_mapped(segments, Some)
    }

    /// [`Self::attach_segments`] with id remapping: `map` returns the id a
    /// row installs under (or `None` to skip it); rows route to the shard
    /// owning the **mapped** id. Lets a loader recompose backend bits
    /// assigned by a different process's name interner (see
    /// [`SimHashLshIndex::attach_segment_mapped`]).
    pub fn attach_segments_mapped(
        &self,
        segments: &[Arc<VectorSegment>],
        map: impl Fn(ItemId) -> Option<ItemId> + Copy,
    ) -> CodecResult<usize> {
        let n = self.shards.len();
        let mut attached = 0usize;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut guard = shard.write();
            for segment in segments {
                attached += guard.attach_segment_mapped(segment.clone(), |id| {
                    map(id).filter(|&mapped| mapped as usize % n == i)
                })?;
            }
        }
        Ok(attached)
    }

    /// Export every stored row grouped by shard, ready for sealing into
    /// per-shard segment files.
    pub fn export_segment_rows(&self) -> Vec<Vec<SegmentRow>> {
        self.shards.iter().map(|s| s.read().export_rows()).collect()
    }

    /// Items currently served from the paged tier, across shards.
    pub fn cold_len(&self) -> usize {
        self.shards.iter().map(|s| s.read().cold_len()).sum()
    }

    /// Live attached segments across shards (a segment attached to every
    /// shard counts once per shard that kept live rows from it).
    pub fn cold_segment_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().cold_segment_count()).sum()
    }

    /// Top-k search across all shards: the query is signed once and each
    /// shard, under its read lock, pushes its candidates' scores into the
    /// one heap. Equivalent to [`SimHashLshIndex::search`] over the union
    /// of the shards.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Vec<(ItemId, f32)> {
        self.search_with_outcome(query, k, exclude).0
    }

    /// [`Self::search`] plus summed candidate-set diagnostics.
    pub fn search_with_outcome(
        &self,
        query: &[f32],
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> (Vec<(ItemId, f32)>, SearchOutcome) {
        self.search_scoped_with_outcome(query, k, &DiscoverScope::All, exclude)
    }

    /// [`Self::search_with_outcome`] restricted to a backend scope: the
    /// scope drops out-of-scope ids during each shard's candidate
    /// generation (before exact scoring), so excluded backends cost
    /// nothing past the bucket probes.
    pub fn search_scoped_with_outcome(
        &self,
        query: &[f32],
        k: usize,
        scope: &DiscoverScope,
        exclude: impl Fn(ItemId) -> bool,
    ) -> (Vec<(ItemId, f32)>, SearchOutcome) {
        self.search_scoped_deadline_with_outcome(query, k, scope, Deadline::none(), exclude)
            .unwrap_or_else(|e| panic!("search without a deadline failed: {e}"))
    }

    /// [`Self::search_scoped_with_outcome`] under a cooperative
    /// [`Deadline`], checked per shard before candidate generation, the
    /// exact re-rank, and each cold block read (see
    /// [`SimHashLshIndex::search_signed_scoped_deadline_with_outcome`]).
    /// The error is the first shard's that failed: an expired budget, or a
    /// cold block that could not be read back intact.
    pub fn search_scoped_deadline_with_outcome(
        &self,
        query: &[f32],
        k: usize,
        scope: &DiscoverScope,
        deadline: Deadline,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Result<(Vec<(ItemId, f32)>, SearchOutcome), SearchError> {
        let sig = self.hasher.sign(query);
        let mut topk = TopK::new(k);
        let mut outcome = SearchOutcome::default();
        for shard in &self.shards {
            let o = shard.read().search_into(query, &sig, scope, deadline, &exclude, &mut topk)?;
            // Shards partition the id space, so the sums are exact counts.
            outcome.candidates += o.candidates;
            outcome.scored += o.scored;
            outcome.blocks_read += o.blocks_read;
            outcome.blocks_pruned += o.blocks_pruned;
        }
        Ok((index::ranking(topk), outcome))
    }

    /// Remove every item whose id lives in one backend namespace (high
    /// bits = `backend_bits`), returning how many were removed. This is
    /// the per-backend invalidation the federated id layout buys: no
    /// caller-side id bookkeeping, one write-lock pass per shard. Cold
    /// items drop too, and attached segments left without live rows retire
    /// along with their cache-resident blocks.
    pub fn remove_backend(&self, backend_bits: u16) -> usize {
        self.shards.iter().map(|s| s.write().remove_backend(backend_bits)).sum()
    }

    /// Drop one backend's **cold** items across shards, retiring emptied
    /// segments and evicting their cache-resident blocks; hot items of the
    /// backend stay. Returns how many cold items were dropped.
    pub fn drop_cold_backend(&self, backend_bits: u16) -> usize {
        self.shards.iter().map(|s| s.write().drop_cold_backend(backend_bits)).sum()
    }

    /// Serialize every shard into **one** WGLX frame (layout and rationale
    /// at `index::encode_frame`, DESIGN.md §9): id-sorted fixed-width rows,
    /// each with its signature, under a table naming every backend
    /// namespace the ids use (`name_of`: bits → attach name). The bytes do
    /// not depend on the shard count. Every shard's read guard is held for
    /// the whole encode — rows are read in place, never copied out first —
    /// so the frame is the index as it stood at one instant.
    pub fn encode(&self, buf: &mut Vec<u8>, name_of: impl Fn(u16) -> String) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let shards: Vec<&SimHashLshIndex> = guards.iter().map(|g| &**g).collect();
        index::encode_frame(&shards, buf, name_of);
    }

    /// Deserialize a frame written by [`Self::encode`] into `shards`
    /// partitions — any count, whatever the saver ran with. The stored
    /// geometry, seed and probes win over the caller's defaults; `resolve`
    /// gives this process's bits for each backend *name* the frame lists,
    /// and every id's high bits are remapped to them. Rows install from
    /// their stored signatures: nothing is re-signed.
    pub fn decode(
        buf: &mut impl codec::Buf,
        shards: usize,
        resolve: impl FnMut(&str) -> CodecResult<u16>,
    ) -> CodecResult<Self> {
        let (hasher, shards) = index::decode_frame(buf, shards, resolve)?;
        let params = shards[0].params();
        Ok(Self { hasher, params, shards: shards.into_iter().map(RwLock::new).collect() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compose_item_id, item_backend, item_local};
    use wg_util::rng::{Rng64, Xoshiro256pp};

    fn random_unit(dim: usize, rng: &mut Xoshiro256pp) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
        let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut v {
            *x /= n;
        }
        v
    }

    fn populated(shards: usize, n: usize, seed: u64) -> (ShardedLshIndex, Vec<Vec<f32>>) {
        let mut rng = Xoshiro256pp::new(seed);
        let index = ShardedLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17, shards);
        let vectors: Vec<Vec<f32>> = (0..n).map(|_| random_unit(64, &mut rng)).collect();
        for (id, v) in vectors.iter().enumerate() {
            assert!(index.insert(id as ItemId, v));
        }
        (index, vectors)
    }

    #[test]
    fn matches_single_lock_index_exactly() {
        let (sharded, vectors) = populated(8, 300, 1);
        let mut single = SimHashLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17);
        for (id, v) in vectors.iter().enumerate() {
            single.insert(id as ItemId, v);
        }
        let mut rng = Xoshiro256pp::new(2);
        for _ in 0..20 {
            let q = random_unit(64, &mut rng);
            let (a, oa) = sharded.search_with_outcome(&q, 10, |id| id % 7 == 0);
            let (b, ob) = single.search_with_outcome(&q, 10, |id| id % 7 == 0);
            assert_eq!(a, b, "sharded results diverge from single-lock index");
            assert_eq!(oa, ob, "outcome diagnostics diverge");
        }
    }

    #[test]
    fn shard_count_does_not_change_results() {
        let (one, _) = populated(1, 200, 3);
        let (five, _) = populated(5, 200, 3);
        let mut rng = Xoshiro256pp::new(4);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            assert_eq!(one.search(&q, 5, |_| false), five.search(&q, 5, |_| false));
        }
    }

    #[test]
    fn insert_batch_routes_and_counts() {
        let index = ShardedLshIndex::new(8, LshParams::for_threshold(0.5, 64), 5, 4);
        let mut rng = Xoshiro256pp::new(5);
        let mut items: Vec<(ItemId, Vec<f32>)> =
            (0..40).map(|id| (id, random_unit(8, &mut rng))).collect();
        items.push((40, vec![0.0; 8])); // rejected: zero vector
        items.push((41, vec![1.0; 4])); // rejected: wrong dimension
        assert_eq!(index.insert_batch(items), 40);
        assert_eq!(index.len(), 40);
    }

    #[test]
    fn remove_batch_and_replacement() {
        let (index, vectors) = populated(3, 30, 6);
        assert_eq!(index.remove_batch(&[0, 1, 2, 2, 99]), 3);
        assert_eq!(index.len(), 27);
        assert!(!index.remove(0));
        // Replacement keeps len stable.
        assert!(index.insert(5, &vectors[4]));
        assert_eq!(index.len(), 27);
        assert_eq!(index.vector(5), Some(vectors[4].clone()));
    }

    /// Encode an index whose ids all live in the default namespace.
    fn encode_default(index: &ShardedLshIndex) -> Vec<u8> {
        let mut buf = Vec::new();
        index.encode(&mut buf, |bits| {
            assert_eq!(bits, 0, "fixture ids live in the default namespace");
            "default".into()
        });
        buf
    }

    fn decode_default(bytes: &[u8], shards: usize) -> CodecResult<ShardedLshIndex> {
        let mut r = bytes;
        let index = ShardedLshIndex::decode(&mut r, shards, |_| Ok(0))?;
        assert!(r.is_empty(), "decode must consume exactly the frame");
        Ok(index)
    }

    #[test]
    fn encode_decode_roundtrip_any_shard_count() {
        // Near-duplicates: many exact-score ties would be luck, but the
        // candidate sets are large, so tie *order* is exercised by the
        // (score, id) merge on every query.
        let (_, vectors) = federated(7);
        let build = |shards: usize| {
            let index = ShardedLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17, shards);
            index.set_probes(1);
            for (id, v) in vectors.iter().enumerate() {
                // Ids 3 apart, so every shard count sees gaps.
                assert!(index.insert(id as ItemId * 3, v));
            }
            index
        };
        let reference = build(1);
        let want_bytes = encode_default(&reference);
        let mut rng = Xoshiro256pp::new(8);
        let queries: Vec<Vec<f32>> = vectors
            .iter()
            .take(10)
            .cloned()
            .chain((0..10).map(|_| random_unit(64, &mut rng)))
            .collect();
        for save_shards in [1usize, 2, 8] {
            let bytes = encode_default(&build(save_shards));
            assert_eq!(bytes, want_bytes, "the frame depends on the saver's {save_shards} shards");
            for load_shards in [1usize, 2, 8, 9] {
                let loaded = decode_default(&bytes, load_shards).unwrap();
                assert_eq!(loaded.shard_count(), load_shards);
                assert_eq!((loaded.len(), loaded.probes()), (reference.len(), 1));
                // One set of hyperplanes serves the query side and every shard.
                assert!(loaded
                    .shards
                    .iter()
                    .all(|s| std::ptr::eq(s.read().hasher(), &*loaded.hasher)));
                for q in &queries {
                    assert_eq!(
                        loaded.search_with_outcome(q, 25, |id| id % 5 == 0),
                        reference.search_with_outcome(q, 25, |id| id % 5 == 0),
                        "save@{save_shards} → load@{load_shards} changed a ranking"
                    );
                }
                // Re-encoding what was loaded reproduces the bytes.
                assert_eq!(encode_default(&loaded), want_bytes);
            }
        }
    }

    #[test]
    fn roundtrip_survives_slot_churn_and_removal() {
        // Removal frees arena slots, reinsertion reuses them out of id
        // order: the frame is still id-sorted and complete.
        let (index, vectors) = populated(2, 60, 13);
        assert_eq!(index.remove_batch(&[7, 40, 41]), 3);
        assert!(index.insert(7, &vectors[59]));
        assert!(index.insert(90, &vectors[40]));
        let bytes = encode_default(&index);
        let loaded = decode_default(&bytes, 2).unwrap();
        assert_eq!(loaded.len(), 59);
        assert_eq!(loaded.vector(7), Some(vectors[59].clone()));
        assert_eq!(loaded.vector(40), None);
        // A fresh index holding the same rows writes the same bytes.
        let fresh = ShardedLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17, 5);
        for id in (0..60).chain([90]) {
            if let Some(v) = index.vector(id) {
                fresh.insert(id, &v);
            }
        }
        assert_eq!(encode_default(&fresh), bytes);
        let mut rng = Xoshiro256pp::new(14);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            assert_eq!(loaded.search(&q, 5, |_| false), index.search(&q, 5, |_| false));
        }
    }

    #[test]
    fn hot_and_cold_rows_share_one_frame() {
        let (all_hot, vectors) = populated(2, 80, 15);
        // Even ids sealed into a segment and attached cold; odd ids hot.
        let cold_source = ShardedLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17, 1);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 0) {
            cold_source.insert(id as ItemId, v);
        }
        let dir = std::env::temp_dir().join(format!("wg-shard-mixed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.wgs");
        let rows = cold_source.export_segment_rows().into_iter().flatten().collect();
        let mixed_bits = cold_source.params().bits();
        crate::paged::write_vector_segment(&path, 64, mixed_bits, 8, rows).unwrap();
        let cache = crate::paged::BlockCache::new(0);
        let segment = Arc::new(VectorSegment::open(&path, cache).unwrap());
        let mixed = ShardedLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17, 3);
        assert_eq!(mixed.attach_segments(&[segment]).unwrap(), 40);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 1) {
            mixed.insert(id as ItemId, v);
        }
        assert_eq!((mixed.len(), mixed.cold_len()), (80, 40));

        let bytes = encode_default(&mixed);
        assert_eq!(bytes, encode_default(&all_hot), "a row's tier must not show in the frame");
        let loaded = decode_default(&bytes, 2).unwrap();
        assert_eq!((loaded.len(), loaded.cold_len()), (80, 0), "a flat restore is all hot");
        let mut rng = Xoshiro256pp::new(16);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            assert_eq!(loaded.search(&q, 7, |_| false), mixed.search(&q, 7, |_| false));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `vectors[i]` under id `3·i`: `cold` of them sealed into one segment
    /// and attached to every shard, the rest inserted hot.
    fn tiered(
        vectors: &[Vec<f32>],
        shards: usize,
        cold: impl Fn(usize) -> bool,
        tag: &str,
    ) -> (ShardedLshIndex, Arc<crate::paged::BlockCache>, std::path::PathBuf) {
        let params = LshParams::for_threshold(0.7, 128);
        let index = ShardedLshIndex::new(64, params, 17, shards);
        index.set_probes(1);
        let dir = std::env::temp_dir().join(format!("wg-shard-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache = crate::paged::BlockCache::new(0);
        let sealed: Vec<SegmentRow> = (vectors.iter().enumerate())
            .filter(|(i, _)| cold(*i))
            .map(|(i, v)| SegmentRow {
                id: i as ItemId * 3,
                signature: index.hasher.sign(v),
                norm: wg_util::kernel::norm_sq(v).sqrt(),
                vector: v.clone(),
            })
            .collect();
        if !sealed.is_empty() {
            let (path, rows) = (dir.join("seg.wgs"), sealed.len());
            crate::paged::write_vector_segment(&path, 64, params.bits(), 4, sealed).unwrap();
            let segment = Arc::new(VectorSegment::open(&path, cache.clone()).unwrap());
            assert_eq!(index.attach_segments(&[segment]).unwrap(), rows);
        }
        for (i, v) in vectors.iter().enumerate().filter(|(i, _)| !cold(*i)) {
            assert!(index.insert(i as ItemId * 3, v));
        }
        (index, cache, dir)
    }

    #[test]
    fn one_heap_ranks_alike_at_any_shard_count_and_reads_no_more_blocks() {
        let (_, vectors) = federated(24);
        let mut rng = Xoshiro256pp::new(25);
        let queries: Vec<Vec<f32>> = vectors
            .iter()
            .step_by(6)
            .cloned()
            .chain((0..5).map(|_| random_unit(64, &mut rng)))
            .collect();
        let exclude = |id: ItemId| id % 5 == 0;
        let (reference, _, dir) = tiered(&vectors, 1, |_| false, "heap-ref");
        let want: Vec<_> =
            queries.iter().map(|q| reference.search_with_outcome(q, 8, exclude)).collect();
        assert!(want.iter().any(|(hits, _)| hits.len() == 8), "fixture must fill the heap");
        std::fs::remove_dir_all(&dir).ok();

        type Tier = fn(usize) -> bool;
        let layouts: [(&str, Tier); 3] =
            [("hot", |_| false), ("cold", |_| true), ("mixed", |i| i % 2 == 0)];
        let (mut shared, mut separate) = (0usize, 0usize);
        for (layout, cold) in layouts {
            for shards in [1usize, 2, 8] {
                let tag = format!("heap-{layout}-{shards}");
                let (index, _cache, dir) = tiered(&vectors, shards, cold, &tag);
                let sig_of = |q: &[f32]| index.hasher.sign(q);
                for (q, (hits, outcome)) in queries.iter().zip(&want) {
                    let (got, o) = index.search_with_outcome(q, 8, exclude);
                    assert_eq!(&got, hits, "{layout} × {shards} shards");
                    assert_eq!(o.candidates, outcome.candidates, "{layout} × {shards} shards");
                    // Each shard alone, with a heap of its own: what the
                    // merge of per-shard heaps used to read.
                    let alone: usize = (index.shards.iter())
                        .map(|s| {
                            let s = s.read();
                            s.search_signed_with_outcome(q, &sig_of(q), 8, exclude).1.blocks_read
                        })
                        .sum();
                    assert!(o.blocks_read <= alone, "{layout} × {shards}: {o:?} vs {alone}");
                    if (layout, shards) == ("cold", 2) {
                        shared += o.blocks_read;
                        separate += alone;
                    }
                }
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        assert!(
            0 < shared && shared < separate,
            "the second shard must prune: {shared} / {separate}"
        );
    }

    #[test]
    fn batches_that_empty_a_segment_row_by_row_retire_it() {
        let (_, vectors) = federated(26);
        let ids: Vec<ItemId> = (0..vectors.len()).map(|i| i as ItemId * 3).collect();
        type Kill = fn(&ShardedLshIndex, &[ItemId], &[Vec<f32>]);
        let kills: [(&str, Kill, usize); 2] = [
            ("remove_batch", |index, ids, _| assert_eq!(index.remove_batch(ids), ids.len()), 0),
            (
                "insert_batch",
                |index, ids, vectors| {
                    let items = ids.iter().copied().zip(vectors.iter().cloned()).collect();
                    assert_eq!(index.insert_batch(items), ids.len());
                },
                60,
            ),
        ];
        for (tag, kill, left) in kills {
            let (index, cache, dir) = tiered(&vectors, 4, |_| true, tag);
            assert_eq!(index.export_segment_rows().iter().map(Vec::len).sum::<usize>(), 60);
            assert_eq!((index.cold_segment_count(), cache.stats().resident_blocks), (4, 15));
            // All but ids 0, 3, 6, 9 — one row a shard: each still needs
            // the segment.
            kill(&index, &ids[4..], &vectors[4..]);
            assert_eq!((index.cold_len(), index.cold_segment_count()), (4, 4), "{tag}");
            kill(&index, &ids[..4], &vectors[..4]);
            assert_eq!((index.len(), index.cold_len(), index.cold_segment_count()), (left, 0, 0));
            assert_eq!(cache.stats().resident_blocks, 0, "{tag}: retirement drops cached blocks");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_default(b"not an index", 4).is_err());
    }

    /// The frame header [`ShardedLshIndex::encode`] writes, with the given
    /// version and geometry, up to (not including) the backend table.
    fn frame_header(version: u32, dim: u32, bands: u32, rows: u32) -> Vec<u8> {
        let mut buf = Vec::new();
        codec::put_header(&mut buf, *b"WGLX", version);
        for x in [dim, bands, rows] {
            codec::put_u32(&mut buf, x);
        }
        codec::put_u64(&mut buf, 17);
        codec::put_u32(&mut buf, 0);
        buf
    }

    #[test]
    fn another_frame_version_is_refused() {
        // v1 as the parent wrote it: geometry, then (id, len-prefixed
        // vector) pairs; v2 had a backend table in between.
        let mut v1 = frame_header(1, 4, 2, 4);
        codec::put_len(&mut v1, 1);
        codec::put_u32(&mut v1, 0);
        codec::put_f32_slice(&mut v1, &[1.0, 0.0, 0.0, 0.0]);
        for (version, bytes) in
            [(1, v1), (2, frame_header(2, 4, 2, 4)), (4, frame_header(4, 4, 2, 4))]
        {
            let err = decode_default(&bytes, 2).err().expect("only this build's version decodes");
            assert!(
                err.to_string().contains(&format!("unsupported index frame version {version}")),
                "{err}"
            );
        }
    }

    #[test]
    fn counts_and_geometry_that_lie_are_refused_before_anything_is_reserved() {
        let good = encode_default(&populated(2, 3, 18).0);
        assert!(decode_default(&good, 2).is_ok());
        let header_len = frame_header(3, 64, 1, 1).len();
        let invalid = |bytes: &[u8], what: &str| match decode_default(bytes, 2) {
            Err(codec::CodecError::Invalid(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("expected a typed refusal ({what}), got {:?}", other.map(|i| i.len())),
        };

        // The largest counts the codec's length prefix admits (2^30): the
        // backend table's, then the row count's.
        let mut lying = good.clone();
        lying[header_len..header_len + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        invalid(&lying, "count 1073741824 needs at least 8 bytes each");
        let rows_at = header_len + 4 + 4 + 4 + "default".len();
        assert_eq!(good[rows_at..rows_at + 4], 3u32.to_le_bytes(), "fixture layout drifted");
        let mut lying = good.clone();
        lying[rows_at..rows_at + 4].copy_from_slice(&(1u32 << 30).to_le_bytes());
        invalid(&lying, "count 1073741824 needs at least 276 bytes each");
        // One row more than the bytes hold.
        let mut lying = good.clone();
        lying[rows_at..rows_at + 4].copy_from_slice(&4u32.to_le_bytes());
        invalid(&lying, "count 4 needs at least 276 bytes each");

        // Geometry no configuration uses: refused before the hasher (a
        // dim × bits float matrix) or the band tables are built from it.
        for (dim, bands, rows) in [(1u32 << 30, 12, 10), (128, 1 << 20, 10), (1 << 12, 1 << 10, 64)]
        {
            let mut huge = frame_header(3, dim, bands, rows);
            codec::put_len(&mut huge, 0);
            codec::put_len(&mut huge, 0);
            invalid(&huge, "beyond what a frame may declare");
        }
        let mut zero = frame_header(3, 0, 12, 10);
        codec::put_len(&mut zero, 0);
        codec::put_len(&mut zero, 0);
        invalid(&zero, "bad index geometry");
    }

    #[test]
    fn concurrent_inserts_and_searches_lose_nothing() {
        let index = ShardedLshIndex::new(32, LshParams::for_threshold(0.6, 64), 11, 8);
        let per_thread = 50usize;
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let index = &index;
                scope.spawn(move || {
                    let mut rng = Xoshiro256pp::new(100 + t as u64);
                    for i in 0..per_thread {
                        let id = t * per_thread as u32 + i as u32;
                        assert!(index.insert(id, &random_unit(32, &mut rng)));
                        // Interleave searches with the other writers.
                        let q = random_unit(32, &mut rng);
                        let _ = index.search(&q, 3, |_| false);
                    }
                });
            }
        });
        assert_eq!(index.len(), 4 * per_thread);
    }

    /// An index holding 60 near-duplicate vectors (perturbations of one
    /// base, so they collide in the LSH buckets) spread across three
    /// backend namespaces (20 each), plus the vectors for re-querying.
    fn federated(seed: u64) -> (ShardedLshIndex, Vec<Vec<f32>>) {
        let mut rng = Xoshiro256pp::new(seed);
        let index = ShardedLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17, 4);
        let base = random_unit(64, &mut rng);
        let vectors: Vec<Vec<f32>> = (0..60)
            .map(|_| {
                let mut v: Vec<f32> =
                    base.iter().map(|x| x + 0.08 * rng.gen_gaussian() as f32).collect();
                let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                for x in &mut v {
                    *x /= n;
                }
                v
            })
            .collect();
        for (i, v) in vectors.iter().enumerate() {
            let backend = (i % 3) as u16 + 1; // namespaces 1, 2, 3
            assert!(index.insert(compose_item_id(backend, (i / 3) as u32), v));
        }
        (index, vectors)
    }

    #[test]
    fn scoped_search_restricts_to_admitted_backends() {
        let (index, vectors) = federated(20);
        let q = &vectors[0];
        let all = index.search_scoped_with_outcome(q, 60, &DiscoverScope::All, |_| false).0;
        assert!(all.iter().any(|(id, _)| item_backend(*id) == 1));
        let only2 =
            index.search_scoped_with_outcome(q, 60, &DiscoverScope::include([2]), |_| false);
        assert!(!only2.0.is_empty());
        assert!(only2.0.iter().all(|(id, _)| item_backend(*id) == 2));
        // Scope admits exactly the subset of the unscoped result set.
        let from_all: Vec<_> =
            all.iter().copied().filter(|(id, _)| item_backend(*id) == 2).collect();
        assert_eq!(only2.0, from_all);
        let not2 = index.search_scoped_with_outcome(q, 60, &DiscoverScope::exclude([2]), |_| false);
        assert!(not2.0.iter().all(|(id, _)| item_backend(*id) != 2));
        // Pushdown: the scoped searches never scored out-of-scope items.
        let unscoped_outcome = index.search_with_outcome(q, 60, |_| false).1;
        assert!(only2.1.scored <= unscoped_outcome.scored);
        assert_eq!(only2.1.scored + not2.1.scored, unscoped_outcome.scored);
    }

    #[test]
    fn remove_backend_drops_exactly_one_namespace() {
        let (index, _) = federated(21);
        assert_eq!(index.len(), 60);
        assert_eq!(index.remove_backend(2), 20);
        assert_eq!(index.len(), 40);
        assert_eq!(index.remove_backend(2), 0, "second removal finds nothing");
        let (hits, _) =
            index.search_scoped_with_outcome(&vec![1.0; 64], 60, &DiscoverScope::All, |_| false);
        assert!(hits.iter().all(|(id, _)| item_backend(*id) != 2));
    }

    #[test]
    fn federated_encode_round_trips_with_remap() {
        let (index, vectors) = federated(23);
        let mut buf = Vec::new();
        index.encode(&mut buf, |bits| format!("wh{bits}"));

        // A loader that does not know one of the names refuses the frame.
        let only_default = |name: &str| -> CodecResult<u16> {
            Err(codec::CodecError::Invalid(format!("unknown backend '{name}'")))
        };
        assert!(ShardedLshIndex::decode(&mut &buf[..], 4, only_default).is_err());

        // The loading process assigns different bits to the same names.
        let reassign = |name: &str| -> CodecResult<u16> {
            match name {
                "wh1" => Ok(9),
                "wh2" => Ok(4),
                "wh3" => Ok(7),
                other => Err(codec::CodecError::Invalid(format!("unknown backend '{other}'"))),
            }
        };
        let mut r = &buf[..];
        let loaded = ShardedLshIndex::decode(&mut r, 2, reassign).unwrap();
        assert!(r.is_empty());
        assert_eq!(loaded.len(), 60);
        // Old namespace 1 is now 9, with locals preserved.
        let q = &vectors[0];
        let want = index.search_scoped_with_outcome(q, 60, &DiscoverScope::include([1]), |_| false);
        let got = loaded.search_scoped_with_outcome(q, 60, &DiscoverScope::include([9]), |_| false);
        assert_eq!(want.0.len(), got.0.len());
        for ((a, sa), (b, sb)) in want.0.iter().zip(&got.0) {
            assert_eq!(item_local(*a), item_local(*b));
            assert_eq!(item_backend(*b), 9);
            assert_eq!(sa, sb);
        }
        // Bits the interner could never have assigned are refused.
        let too_wide = |_: &str| -> CodecResult<u16> { Ok(256) };
        assert!(ShardedLshIndex::decode(&mut &buf[..], 2, too_wide).is_err());
    }

    #[test]
    fn probes_propagate_to_all_shards() {
        let (index, _) = populated(4, 50, 9);
        assert_eq!(index.probes(), 0);
        index.set_probes(2);
        assert_eq!(index.probes(), 2);
        let mut rng = Xoshiro256pp::new(10);
        let q = random_unit(64, &mut rng);
        let (_, with_probes) = index.search_with_outcome(&q, 5, |_| false);
        index.set_probes(0);
        let (_, without) = index.search_with_outcome(&q, 5, |_| false);
        assert!(with_probes.candidates >= without.candidates);
    }
}
