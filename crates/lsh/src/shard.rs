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
//! * **searches** fan out over the shards, signing the query **once**
//!   (every shard shares the same hyperplane geometry and seed) and merging
//!   the per-shard top-k with a bounded heap, so a writer only ever blocks
//!   the `1/N` of a query's probes that touch its shard;
//! * **batched mutation** ([`Self::insert_batch`], [`Self::remove_batch`])
//!   groups items by shard and takes each shard's lock once per batch.
//!
//! Results are bit-identical to a single [`SimHashLshIndex`] with the same
//! seed: the shards partition the id space, every shard uses identical
//! hyperplanes, and the merged top-k applies the same (score, id) ordering.

use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::Arc;
use wg_util::codec::{self, CodecError, CodecResult};
use wg_util::deadline::Deadline;
use wg_util::TopK;

use crate::index::{
    SearchError, SearchOutcome, SimHashLshIndex, FRAME_MAGIC, FRAME_VERSION,
    FRAME_VERSION_FEDERATED,
};
use crate::paged::{SegmentRow, VectorSegment};
use crate::params::LshParams;
use crate::scope::DiscoverScope;
use crate::simhash::SimHasher;
use crate::{compose_item_id, item_backend, item_local, ItemId};

/// A row gathered for encoding: hot rows borrow the shard's arena, cold
/// rows are hydrated into owned buffers.
enum EncodedRow<'a> {
    Hot(&'a [f32]),
    Cold(Vec<f32>),
}

impl EncodedRow<'_> {
    fn as_slice(&self) -> &[f32] {
        match self {
            EncodedRow::Hot(v) => v,
            EncodedRow::Cold(v) => v,
        }
    }
}

/// Every stored row across the locked shards, both tiers.
fn gather_rows<'a>(
    guards: &'a [RwLockReadGuard<'a, SimHashLshIndex>],
) -> Vec<(ItemId, EncodedRow<'a>)> {
    let mut items: Vec<(ItemId, EncodedRow<'a>)> = Vec::new();
    for g in guards {
        items.extend(g.items().map(|(id, v)| (id, EncodedRow::Hot(v))));
        items.extend(g.cold_items().into_iter().map(|(id, v)| (id, EncodedRow::Cold(v))));
    }
    items.sort_unstable_by_key(|(id, _)| *id);
    items
}

/// A set of [`SimHashLshIndex`] shards with identical geometry, each behind
/// its own reader–writer lock. All methods take `&self`; interior locking
/// makes the index shareable across threads.
pub struct ShardedLshIndex {
    /// Query-side signer; identical to every shard's internal hasher.
    hasher: SimHasher,
    params: LshParams,
    shards: Vec<RwLock<SimHashLshIndex>>,
}

impl ShardedLshIndex {
    /// Create an index with `shards` partitions for `dim`-dimensional
    /// vectors. `shards` is clamped to at least 1; one shard reproduces the
    /// single-lock layout exactly.
    pub fn new(dim: usize, params: LshParams, seed: u64, shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            hasher: SimHasher::new(dim, params.bits(), seed),
            params,
            shards: (0..shards)
                .map(|_| RwLock::new(SimHashLshIndex::new(dim, params, seed)))
                .collect(),
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

    /// Top-k search across all shards: the query is signed once, each shard
    /// contributes its local top-k under a read lock, and the partial
    /// results merge through one more bounded heap. Equivalent to
    /// [`SimHashLshIndex::search`] over the union of the shards.
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
        let mut merged = TopK::new(k);
        let mut outcome = SearchOutcome::default();
        for shard in &self.shards {
            let guard = shard.read();
            let (hits, o) = guard.search_signed_scoped_deadline_with_outcome(
                query, &sig, k, scope, deadline, &exclude,
            )?;
            // Shards partition the id space, so the sums are exact counts.
            outcome.candidates += o.candidates;
            outcome.scored += o.scored;
            outcome.blocks_read += o.blocks_read;
            outcome.blocks_pruned += o.blocks_pruned;
            for (id, score) in hits {
                merged.push(score as f64, id);
            }
        }
        let results = merged.into_sorted().into_iter().map(|(s, id)| (id, s as f32)).collect();
        Ok((results, outcome))
    }

    /// Remove every item whose id lives in one backend namespace (high
    /// bits = `backend_bits`), returning how many were removed. This is
    /// the per-backend invalidation the federated id layout buys: no
    /// caller-side id bookkeeping, one write-lock pass per shard.
    pub fn remove_backend(&self, backend_bits: u16) -> usize {
        let mut removed = 0usize;
        for shard in &self.shards {
            // Delegates to the tier-aware removal: cold items drop too,
            // and attached segments left without live rows are retired
            // along with their cache-resident blocks.
            removed += shard.write().remove_backend(backend_bits);
        }
        removed
    }

    /// Drop one backend's **cold** items across shards, retiring emptied
    /// segments and evicting their cache-resident blocks; hot items of the
    /// backend stay. Returns how many cold items were dropped.
    pub fn drop_cold_backend(&self, backend_bits: u16) -> usize {
        self.shards.iter().map(|s| s.write().drop_cold_backend(backend_bits)).sum()
    }

    /// Serialize to the same single-index frame [`SimHashLshIndex::encode`]
    /// writes (ids merged and sorted), so snapshots are interchangeable
    /// between sharded and unsharded deployments and independent of the
    /// shard count at save time.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        codec::put_header(buf, FRAME_MAGIC, FRAME_VERSION);
        codec::put_u32(buf, self.dim() as u32);
        codec::put_u32(buf, self.params.bands as u32);
        codec::put_u32(buf, self.params.rows as u32);
        codec::put_u64(buf, self.hasher.seed());
        codec::put_u32(buf, guards[0].probes() as u32);
        let items = gather_rows(&guards);
        codec::put_len(buf, items.len());
        for (id, v) in items {
            codec::put_u32(buf, id);
            codec::put_f32_slice(buf, v.as_slice());
        }
    }

    /// Deserialize a frame written by [`Self::encode`] (or by
    /// [`SimHashLshIndex::encode`]) into `shards` partitions. The stored
    /// geometry and seed win over the caller's defaults, exactly as in
    /// [`SimHashLshIndex::decode`]. Rejects federated (v2) frames — use
    /// [`Self::decode_with_backends`] for those.
    pub fn decode(buf: &mut impl codec::Buf, shards: usize) -> CodecResult<Self> {
        Self::decode_with_backends(buf, shards, |name| {
            if name == "default" {
                Ok(0)
            } else {
                Err(CodecError::Invalid(format!(
                    "federated snapshot names backend '{name}' — decode_with_backends required"
                )))
            }
        })
    }

    /// Serialize with a backend table. When every stored id lives in the
    /// default namespace (backend bits 0) this writes the **byte-identical
    /// v1 frame** of [`Self::encode`] — pre-federation readers keep
    /// working and the legacy-snapshot pins stay exact. Otherwise it
    /// writes a v2 frame: v1's geometry header, then a table mapping each
    /// distinct backend-bit value to its attach name (via `name_of`), then
    /// the items. Names, not bits, are authoritative across processes —
    /// the interner assigns bits in attach order, which the loading
    /// process need not share.
    pub fn encode_with_backends(&self, buf: &mut Vec<u8>, name_of: impl Fn(u16) -> String) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let items = gather_rows(&guards);
        let mut backends: Vec<u16> = items.iter().map(|(id, _)| item_backend(*id)).collect();
        backends.sort_unstable();
        backends.dedup();
        if backends.is_empty() || backends == [0] {
            drop(guards);
            return self.encode(buf);
        }
        codec::put_header(buf, FRAME_MAGIC, FRAME_VERSION_FEDERATED);
        codec::put_u32(buf, self.dim() as u32);
        codec::put_u32(buf, self.params.bands as u32);
        codec::put_u32(buf, self.params.rows as u32);
        codec::put_u64(buf, self.hasher.seed());
        codec::put_u32(buf, guards[0].probes() as u32);
        codec::put_len(buf, backends.len());
        for &bits in &backends {
            codec::put_u32(buf, bits as u32);
            codec::put_str(buf, &name_of(bits));
        }
        codec::put_len(buf, items.len());
        for (id, v) in items {
            codec::put_u32(buf, id);
            codec::put_f32_slice(buf, v.as_slice());
        }
    }

    /// Deserialize either frame version. v1 loads as-is (every id already
    /// lives in the default namespace). v2 reads the backend table, asks
    /// `resolve` for the loading process's bits for each *name*, and
    /// remaps each item's high bits accordingly — so a snapshot taken in a
    /// process that attached `lake` second loads correctly into one that
    /// attached it fifth.
    pub fn decode_with_backends(
        buf: &mut impl codec::Buf,
        shards: usize,
        mut resolve: impl FnMut(&str) -> CodecResult<u16>,
    ) -> CodecResult<Self> {
        let version = codec::get_header(buf, FRAME_MAGIC)?;
        if version != FRAME_VERSION && version != FRAME_VERSION_FEDERATED {
            return Err(CodecError::Invalid(format!("unsupported index version {version}")));
        }
        let dim = codec::get_u32(buf)? as usize;
        let bands = codec::get_u32(buf)? as usize;
        let rows = codec::get_u32(buf)? as usize;
        let seed = codec::get_u64(buf)?;
        let probes = codec::get_u32(buf)? as usize;
        if dim == 0 || bands == 0 || rows == 0 || rows > 64 {
            return Err(CodecError::Invalid("bad index geometry".into()));
        }
        // v2: stored backend bits -> this process's bits, by name.
        let mut remap: Vec<(u16, u16)> = Vec::new();
        if version == FRAME_VERSION_FEDERATED {
            let k = codec::get_len(buf)?;
            for _ in 0..k {
                let stored_bits = codec::get_u32(buf)?;
                if stored_bits > u16::MAX as u32 {
                    return Err(CodecError::Invalid("backend bits out of range".into()));
                }
                let name = codec::get_str(buf)?;
                remap.push((stored_bits as u16, resolve(&name)?));
            }
        }
        let index = Self::new(dim, LshParams { bands, rows }, seed, shards);
        index.set_probes(probes);
        let n = codec::get_len(buf)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            let mut id = codec::get_u32(buf)?;
            if version == FRAME_VERSION_FEDERATED {
                let stored = item_backend(id);
                let Some(&(_, local_bits)) = remap.iter().find(|(from, _)| *from == stored) else {
                    return Err(CodecError::Invalid(format!(
                        "item id {id} references backend bits {stored} missing from the table"
                    )));
                };
                id = compose_item_id(local_bits, item_local(id));
            }
            let v = codec::get_f32_vec(buf)?;
            if v.len() != dim {
                return Err(CodecError::Invalid("vector length mismatch".into()));
            }
            items.push((id, v));
        }
        index.insert_batch(items);
        Ok(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn encode_decode_roundtrip_any_shard_count() {
        let (index, _) = populated(4, 120, 7);
        let mut buf = Vec::new();
        index.encode(&mut buf);

        // Reload into a different shard count and into a plain index.
        let mut r = &buf[..];
        let reloaded = ShardedLshIndex::decode(&mut r, 9).unwrap();
        assert!(r.is_empty());
        assert_eq!(reloaded.len(), 120);
        let mut r = &buf[..];
        let single = SimHashLshIndex::decode(&mut r).unwrap();
        assert_eq!(single.len(), 120);

        let mut rng = Xoshiro256pp::new(8);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            let want = index.search(&q, 5, |_| false);
            assert_eq!(reloaded.search(&q, 5, |_| false), want);
            assert_eq!(single.search(&q, 5, |_| false), want);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut r: &[u8] = b"not an index";
        assert!(ShardedLshIndex::decode(&mut r, 4).is_err());
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
    fn all_default_encode_with_backends_is_byte_identical_v1() {
        let (index, _) = populated(3, 80, 22);
        let mut v1 = Vec::new();
        index.encode(&mut v1);
        let mut via_backends = Vec::new();
        index.encode_with_backends(&mut via_backends, |_| unreachable!("no non-default ids"));
        assert_eq!(via_backends, v1, "all-default snapshots must stay v1 byte-identical");
    }

    #[test]
    fn federated_encode_round_trips_with_remap() {
        let (index, vectors) = federated(23);
        let mut buf = Vec::new();
        index.encode_with_backends(&mut buf, |bits| format!("wh{bits}"));

        // Plain decode must refuse: the frame names non-default backends.
        assert!(ShardedLshIndex::decode(&mut &buf[..], 4).is_err());

        // The loading process assigns different bits to the same names.
        let reassign = |name: &str| -> CodecResult<u16> {
            match name {
                "wh1" => Ok(9),
                "wh2" => Ok(4),
                "wh3" => Ok(7),
                other => Err(CodecError::Invalid(format!("unknown backend '{other}'"))),
            }
        };
        let mut r = &buf[..];
        let loaded = ShardedLshIndex::decode_with_backends(&mut r, 2, reassign).unwrap();
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
