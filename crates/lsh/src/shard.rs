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

use parking_lot::{RwLock, RwLockReadGuard};
use std::sync::Arc;
use wg_util::codec::{self, CodecResult};
use wg_util::deadline::Deadline;
use wg_util::segment::SegmentError;
use wg_util::TopK;

use crate::index::{self, SearchError, SearchOutcome, SimHashLshIndex};
use crate::paged::{self, VectorSegment};
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

    /// Attach sealed segments to every shard's paged tier. `map` returns
    /// the id a row installs under (or `None` to skip it) — a loader
    /// recomposing backend bits assigned by a different process's name
    /// interner, or `Some` for the ids as sealed (see
    /// [`SimHashLshIndex::attach_segment_mapped`]). Each shard keeps only
    /// the rows whose **mapped** id it owns (`id % shards`), so one segment
    /// file serves any shard count; the segments share one block cache.
    /// Returns the total rows attached.
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

    /// Hydrate from a sealed segment: every block is read once with a
    /// positioned read, CRC-checked, and each row `map` keeps is decoded
    /// straight into the arena slot of the shard owning its mapped id and
    /// bucketed from its stored signature words. Nothing pages afterwards:
    /// the rows are hot, and the segment can be dropped. Returns how many
    /// rows were installed; on an error the index holds the blocks read so
    /// far, so hydrate an index nothing else sees yet.
    pub fn hydrate(
        &self,
        segment: &VectorSegment,
        map: impl Fn(ItemId) -> Option<ItemId>,
    ) -> Result<usize, SegmentError> {
        let mut shards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        shards[0].fits(segment)?;
        let row_bytes = self.dim() * 4;
        let mut payload = Vec::new();
        let mut installed = 0usize;
        for block in 0..segment.block_count() {
            segment.read_payload(block, &mut payload)?;
            let rows = segment.rows(block);
            for (row, (&stored, raw)) in
                rows.ids.iter().zip(payload.chunks_exact(row_bytes)).enumerate()
            {
                let Some(id) = map(stored) else {
                    continue;
                };
                let words = rows.sig_words(row);
                shards[self.shard_of(id)].insert_row(id, words, |slot| {
                    codec::get_f32s(&mut &raw[..], slot).expect("a row's bytes fill its slot");
                });
                installed += 1;
            }
        }
        Ok(installed)
    }

    /// Take every shard's read guard, and hold them together: the index as
    /// it stands at one instant, for as long as the returned view lives.
    pub fn freeze(&self) -> FrozenIndex<'_> {
        FrozenIndex { index: self, shards: self.shards.iter().map(|s| s.read()).collect() }
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

    /// Top-k search across all shards, with summed candidate-set
    /// diagnostics: the query is signed once and each shard, under its read
    /// lock, pushes its candidates' scores into the one heap — equivalent
    /// to [`SimHashLshIndex::search`] over the union of the shards.
    ///
    /// `scope` drops out-of-scope ids during each shard's candidate
    /// generation (before exact scoring), so excluded backends cost nothing
    /// past the bucket probes. `deadline` is checked per shard before
    /// candidate generation, the exact re-rank, and each cold block read
    /// (see [`SimHashLshIndex::search_signed_scoped_deadline_with_outcome`]).
    /// The error is the first shard's that failed: an expired budget, or a
    /// cold block that could not be read back intact.
    pub fn search(
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
}

/// A [`ShardedLshIndex`] with every shard read-locked (see
/// [`ShardedLshIndex::freeze`]): writers wait, searches proceed.
pub struct FrozenIndex<'a> {
    index: &'a ShardedLshIndex,
    shards: Vec<RwLockReadGuard<'a, SimHashLshIndex>>,
}

impl FrozenIndex<'_> {
    /// True when `id` is stored, in either tier.
    pub fn contains(&self, id: ItemId) -> bool {
        self.shards[self.index.shard_of(id)].contains(id)
    }

    /// Seal every row `admit` keeps into one segment image (layout at
    /// `paged::seal_image`) whose header carries `manifest`. Rows are read
    /// **in place** — hot ones from each shard's arena and signature slab,
    /// cold ones from their blocks, fetched through the cache — and laid
    /// out in (signature, id) order, so the bytes do not depend on the
    /// shard count, on which tier a row sits in, or on insertion history.
    /// A cold block that does not read back intact is the error: nothing
    /// is sealed around a hole.
    pub fn seal(
        &self,
        block_rows: usize,
        sketches: bool,
        manifest: &[u8],
        admit: impl Fn(ItemId) -> bool,
    ) -> Result<Vec<u8>, SegmentError> {
        let cold: Vec<_> = self.shards.iter().map(|s| s.cold_blocks()).collect::<Result<_, _>>()?;
        let mut rows = Vec::with_capacity(self.shards.iter().map(|s| s.len()).sum());
        for (shard, blocks) in self.shards.iter().zip(&cold) {
            shard.rows_in_place(blocks, &admit, &mut rows);
        }
        let (dim, bits) = (self.index.dim(), self.index.params.bits());
        Ok(paged::seal_image(dim, bits, block_rows, sketches, manifest, &mut rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compose_item_id, item_backend, item_local, SegmentRow};
    use wg_util::rng::{Rng64, Xoshiro256pp};

    /// An unscoped search without a deadline, with its outcome.
    fn unscoped(
        index: &ShardedLshIndex,
        query: &[f32],
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> (Vec<(ItemId, f32)>, SearchOutcome) {
        index.search(query, k, &DiscoverScope::All, Deadline::none(), exclude).expect("search")
    }

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
            let (a, oa) = unscoped(&sharded, &q, 10, |id| id % 7 == 0);
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
            assert_eq!(unscoped(&one, &q, 5, |_| false).0, unscoped(&five, &q, 5, |_| false).0);
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

    /// `index` sealed the way a checkpoint seals it: no sketches, no
    /// manifest, 8-row blocks.
    fn seal_plain(index: &ShardedLshIndex) -> Vec<u8> {
        index.freeze().seal(8, false, &[], |_| true).expect("every cold block reads back")
    }

    fn open(bytes: &[u8]) -> Result<VectorSegment, SegmentError> {
        VectorSegment::from_bytes(bytes.to_vec(), crate::paged::BlockCache::new(0))
    }

    /// An empty index of `like`'s geometry and probes at `shards` shards,
    /// hydrated from the image `bytes`.
    fn hydrated(bytes: &[u8], shards: usize, like: &ShardedLshIndex) -> ShardedLshIndex {
        let index = ShardedLshIndex::new(like.dim(), like.params(), like.seed(), shards);
        index.set_probes(like.probes());
        let segment = open(bytes).expect("a sealed image opens");
        assert_eq!(index.hydrate(&segment, Some).expect("hydrate"), segment.row_count());
        index
    }

    /// Every stored row of every shard.
    fn exported(index: &ShardedLshIndex) -> Vec<SegmentRow> {
        index.shards.iter().flat_map(|s| s.read().export_rows()).collect()
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
        let want_bytes = seal_plain(&reference);
        let mut rng = Xoshiro256pp::new(8);
        let queries: Vec<Vec<f32>> = vectors
            .iter()
            .take(10)
            .cloned()
            .chain((0..10).map(|_| random_unit(64, &mut rng)))
            .collect();
        for save_shards in [1usize, 2, 8] {
            let bytes = seal_plain(&build(save_shards));
            assert_eq!(bytes, want_bytes, "the image depends on the saver's {save_shards} shards");
            for load_shards in [1usize, 2, 8, 9] {
                let loaded = hydrated(&bytes, load_shards, &reference);
                assert_eq!(loaded.shard_count(), load_shards);
                assert_eq!((loaded.len(), loaded.cold_len()), (reference.len(), 0));
                // One set of hyperplanes serves the query side and every shard.
                assert!(loaded
                    .shards
                    .iter()
                    .all(|s| std::ptr::eq(s.read().hasher(), &*loaded.hasher)));
                for q in &queries {
                    assert_eq!(
                        unscoped(&loaded, q, 25, |id| id % 5 == 0),
                        unscoped(&reference, q, 25, |id| id % 5 == 0),
                        "save@{save_shards} → load@{load_shards} changed a ranking"
                    );
                }
                // Re-sealing what was loaded reproduces the bytes.
                assert_eq!(seal_plain(&loaded), want_bytes);
            }
        }
    }

    #[test]
    fn roundtrip_survives_slot_churn_and_removal() {
        // Removal frees arena slots, reinsertion reuses them out of id
        // order: the image is still (signature, id)-sorted and complete.
        let (index, vectors) = populated(2, 60, 13);
        assert_eq!(index.remove_batch(&[7, 40, 41]), 3);
        assert!(index.insert(7, &vectors[59]));
        assert!(index.insert(90, &vectors[40]));
        let bytes = seal_plain(&index);
        let loaded = hydrated(&bytes, 2, &index);
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
        assert_eq!(seal_plain(&fresh), bytes);
        let mut rng = Xoshiro256pp::new(14);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            assert_eq!(unscoped(&loaded, &q, 5, |_| false).0, unscoped(&index, &q, 5, |_| false).0);
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
        let mixed_bits = cold_source.params().bits();
        crate::paged::write_vector_segment(&path, 64, mixed_bits, 8, exported(&cold_source))
            .unwrap();
        let cache = crate::paged::BlockCache::new(0);
        let segment = Arc::new(VectorSegment::open(&path, cache).unwrap());
        let mixed = ShardedLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17, 3);
        assert_eq!(mixed.attach_segments_mapped(&[segment], Some).unwrap(), 40);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 1) {
            mixed.insert(id as ItemId, v);
        }
        assert_eq!((mixed.len(), mixed.cold_len()), (80, 40));

        let bytes = seal_plain(&mixed);
        assert_eq!(bytes, seal_plain(&all_hot), "a row's tier must not show in the image");
        let loaded = hydrated(&bytes, 2, &mixed);
        assert_eq!((loaded.len(), loaded.cold_len()), (80, 0), "a hydrated restore is all hot");
        let mut rng = Xoshiro256pp::new(16);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            assert_eq!(unscoped(&loaded, &q, 7, |_| false).0, unscoped(&mixed, &q, 7, |_| false).0);
        }

        // The same rows sealed *with* sketches: a file that attaches lazily
        // and hydrates alike, where the plain one refuses to attach.
        let sketched = mixed.freeze().seal(8, true, &[], |_| true).unwrap();
        assert!(sketched.len() > bytes.len());
        let from_sketched = hydrated(&sketched, 2, &mixed);
        assert_eq!(seal_plain(&from_sketched), bytes);
        let lazy = ShardedLshIndex::new(64, mixed.params(), 17, 2);
        let plain = Arc::new(open(&bytes).unwrap());
        let err = lazy.attach_segments_mapped(&[plain], Some).expect_err("nothing to prune with");
        assert!(err.to_string().contains("no row sketches"), "{err}");
        assert!(lazy.is_empty() && lazy.cold_segment_count() == 0);
        let sketched = Arc::new(open(&sketched).unwrap());
        assert_eq!(lazy.attach_segments_mapped(&[sketched], Some).unwrap(), 80);
        assert_eq!((lazy.len(), lazy.cold_len()), (80, 80));
        let q = &vectors[3];
        assert_eq!(unscoped(&lazy, q, 7, |_| false).0, unscoped(&mixed, q, 7, |_| false).0);

        // A cold block that no longer reads back fails the seal, typed.
        let mut image = std::fs::read(&path).unwrap();
        image[wg_util::segment::PREAMBLE_LEN + 3] ^= 0x40;
        std::fs::write(&path, &image).unwrap();
        mixed.shards.iter().for_each(|s| {
            s.read().cold_blocks().expect("cached").iter().for_each(drop);
        });
        let fresh = Arc::new(VectorSegment::open(&path, crate::paged::BlockCache::new(0)).unwrap());
        let damaged = ShardedLshIndex::new(64, mixed.params(), 17, 3);
        damaged.attach_segments_mapped(&[fresh], Some).unwrap();
        let err = damaged.freeze().seal(8, false, &[], |_| true).expect_err("a lost block");
        assert!(matches!(&err, SegmentError::Corrupt(m) if m.contains("block 0")), "{err}");
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
            assert_eq!(index.attach_segments_mapped(&[segment], Some).unwrap(), rows);
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
        let want: Vec<_> = queries.iter().map(|q| unscoped(&reference, q, 8, exclude)).collect();
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
                    let (got, o) = unscoped(&index, q, 8, exclude);
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
            assert_eq!(exported(&index).len(), 60);
            assert_eq!((index.cold_segment_count(), cache.stats().len), (4, 15));
            // All but ids 0, 3, 6, 9 — one row a shard: each still needs
            // the segment.
            kill(&index, &ids[4..], &vectors[4..]);
            assert_eq!((index.cold_len(), index.cold_segment_count()), (4, 4), "{tag}");
            kill(&index, &ids[..4], &vectors[..4]);
            assert_eq!((index.len(), index.cold_len(), index.cold_segment_count()), (left, 0, 0));
            assert_eq!(cache.stats().len, 0, "{tag}: retirement drops cached blocks");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(open(b"not an index").is_err());
    }

    /// `image` with its directory edited by `edit` and the trailer's length
    /// and CRC recomputed: a file whose checksums vouch for whatever the
    /// edit left behind. `edit` sees the directory from its magic on.
    fn with_directory(image: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let trailer_at = image.len() - wg_util::segment::TRAILER_LEN;
        let dir_at = u64::from_le_bytes(image[trailer_at + 8..trailer_at + 16].try_into().unwrap());
        let mut directory = image[dir_at as usize..trailer_at].to_vec();
        edit(&mut directory);
        let mut out = image[..dir_at as usize].to_vec();
        out.extend_from_slice(&directory);
        out.extend_from_slice(&image[trailer_at..trailer_at + 16]);
        out.extend_from_slice(&(directory.len() as u32).to_le_bytes());
        out.extend_from_slice(&wg_util::checksum::crc32(&directory).to_le_bytes());
        out
    }

    #[test]
    fn another_frame_version_is_refused() {
        let good = seal_plain(&populated(2, 3, 18).0);
        open(&good).expect("this build's version opens");
        // The version sits in the preamble, the directory and the trailer;
        // a file of another version carries it in all three.
        for version in [1u32, 2, 4] {
            let le = version.to_le_bytes();
            let mut other = with_directory(&good, |dir| dir[4..8].copy_from_slice(&le));
            other[4..8].copy_from_slice(&le);
            let trailer_at = other.len() - wg_util::segment::TRAILER_LEN;
            other[trailer_at + 4..trailer_at + 8].copy_from_slice(&le);
            let err = open(&other).expect_err("only this build's version opens");
            assert_eq!(
                err.to_string(),
                format!("corrupt segment: unsupported segment version {version}")
            );
        }
    }

    #[test]
    fn counts_and_geometry_that_lie_are_refused_before_anything_is_reserved() {
        let good = seal_plain(&populated(2, 3, 18).0);
        assert_eq!(open(&good).expect("opens").row_count(), 3);
        let corrupt = |bytes: &[u8], what: &str| match open(bytes) {
            Err(SegmentError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => {
                panic!("expected a typed refusal ({what}), got {:?}", other.map(|s| s.row_count()))
            }
        };
        // The directory: magic + version, the length-prefixed header (16
        // bytes: no manifest), the block count, then block 0's offset,
        // payload length, CRC and length-prefixed metadata, which opens
        // with the id count.
        let (header_at, count_at) = (8 + 4, 8 + 4 + 16);
        let (payload_len_at, ids_at) = (count_at + 4 + 8, count_at + 4 + 8 + 4 + 4 + 4);
        let huge = (1u32 << 30).to_le_bytes();
        let patch = |at: usize, le: [u8; 4]| {
            let directory = with_directory(&good, |dir| {
                assert_eq!(dir[count_at..count_at + 4], 1u32.to_le_bytes(), "layout drifted");
                dir[at..at + 4].copy_from_slice(&le);
            });
            directory
        };
        // The largest counts a length prefix admits: blocks, then ids.
        corrupt(&patch(count_at, huge), "count 1073741824 needs at least 20 bytes each");
        corrupt(&patch(ids_at, huge), "unexpected end of input");
        // One block more than the directory holds; one row more than the
        // metadata holds.
        corrupt(&patch(count_at, 2u32.to_le_bytes()), "unexpected end of input");
        corrupt(&patch(ids_at, 4u32.to_le_bytes()), "unexpected end of input");
        // A payload length that is not the rows' (and would run into the
        // directory), refused without a read.
        corrupt(&patch(payload_len_at, huge), "escapes the data region");
        corrupt(&patch(payload_len_at, (3 * 64 * 4 - 4u32).to_le_bytes()), "is inconsistent");
        // Geometry no block of the file matches, however large.
        corrupt(&patch(header_at, (1u32 << 31).to_le_bytes()), "is inconsistent");
        corrupt(&patch(header_at + 4, u32::MAX.to_le_bytes()), "is inconsistent");
        corrupt(&patch(header_at, 0u32.to_le_bytes()), "bad vector-segment geometry");
        // Bytes after the trailer, or between the directory and it.
        let mut trailing = good.clone();
        trailing.push(0);
        corrupt(&trailing, "bad trailer magic");
        corrupt(&with_directory(&good, |dir| dir.push(0)), "trailing directory bytes");
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
                        let _ = unscoped(index, &q, 3, |_| false).0;
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
        let all = index.search(q, 60, &DiscoverScope::All, Deadline::none(), |_| false).unwrap().0;
        assert!(all.iter().any(|(id, _)| item_backend(*id) == 1));
        let only2 =
            index.search(q, 60, &DiscoverScope::include([2]), Deadline::none(), |_| false).unwrap();
        assert!(!only2.0.is_empty());
        assert!(only2.0.iter().all(|(id, _)| item_backend(*id) == 2));
        // Scope admits exactly the subset of the unscoped result set.
        let from_all: Vec<_> =
            all.iter().copied().filter(|(id, _)| item_backend(*id) == 2).collect();
        assert_eq!(only2.0, from_all);
        let not2 =
            index.search(q, 60, &DiscoverScope::exclude([2]), Deadline::none(), |_| false).unwrap();
        assert!(not2.0.iter().all(|(id, _)| item_backend(*id) != 2));
        // Pushdown: the scoped searches never scored out-of-scope items.
        let unscoped_outcome = unscoped(&index, q, 60, |_| false).1;
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
        let (hits, _) = unscoped(&index, &[1.0; 64], 60, |_| false);
        assert!(hits.iter().all(|(id, _)| item_backend(*id) != 2));
    }

    #[test]
    fn federated_encode_round_trips_with_remap() {
        let (index, vectors) = federated(23);
        let segment = open(&seal_plain(&index)).unwrap();

        // A loader that maps none of the namespaces installs nothing; the
        // caller sees that in the count.
        let empty = ShardedLshIndex::new(64, index.params(), 17, 4);
        assert_eq!(empty.hydrate(&segment, |_| None).unwrap(), 0);
        assert!(empty.is_empty());

        // The loading process assigned different bits to the same names.
        let reassign = |id: ItemId| {
            let bits = [None, Some(9), Some(4), Some(7)][item_backend(id) as usize]?;
            Some(compose_item_id(bits, item_local(id)))
        };
        let loaded = ShardedLshIndex::new(64, index.params(), 17, 2);
        assert_eq!(loaded.hydrate(&segment, reassign).unwrap(), 60);
        assert_eq!(loaded.len(), 60);
        // Old namespace 1 is now 9, with locals preserved.
        let q = &vectors[0];
        let want =
            index.search(q, 60, &DiscoverScope::include([1]), Deadline::none(), |_| false).unwrap();
        let got = loaded
            .search(q, 60, &DiscoverScope::include([9]), Deadline::none(), |_| false)
            .unwrap();
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
        let (_, with_probes) = unscoped(&index, &q, 5, |_| false);
        index.set_probes(0);
        let (_, without) = unscoped(&index, &q, 5, |_| false);
        assert!(with_probes.candidates >= without.candidates);
    }
}
