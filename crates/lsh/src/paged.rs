//! The paged (beyond-RAM) vector tier: segment files, zone maps, and the
//! bounded block cache.
//!
//! A sealed **vector segment** holds `block_rows × dim` f32 blocks inside a
//! checksummed [`wg_util::segment::Segment`] container. Everything a search
//! needs *before* exact scoring — ids, signatures, per-row norms, and a
//! per-block [`ZoneMap`] — lives in the segment directory and stays
//! resident from `open`; the vector payloads themselves page in on demand
//! through a shared byte-budgeted LRU [`BlockCache`].
//!
//! Rows are sealed in **signature order** (lexicographic over the packed
//! SimHash words, ties by id), so rows that collide in the LSH buckets —
//! i.e. rows that are *similar* — land in the same blocks. That coherence
//! is what makes the zone maps sharp: each block's centroid/radius bound
//! (`dot(q,v) ≤ dot(q,c) + ‖q‖·r`) is tight when the block's rows hug
//! their centroid, and a block of near-duplicates has a tiny radius.
//!
//! Pruning contract: [`ZoneMap::cosine_upper_bound`] returns a value `≥`
//! the exact f32 cosine the re-ranker would compute for *any* row in the
//! block (the bound is evaluated in f64 and padded with [`UB_SLACK`] to
//! absorb the f32 kernel-dot rounding). The search path may therefore skip
//! a block only when the top-k heap is full **and** the bound is strictly
//! below the current threshold — every skipped row provably scores below
//! the final k-th result, so paged rankings are bit-identical to the
//! all-in-RAM path.
//!
//! Cold-read path: [`VectorSegment::block`] → [`BlockCache::get_or_load`]
//! probes the cache under its lock, **releases it**, reads the block with
//! one positioned read into a per-thread byte buffer, verifies it
//! ([`Segment::read_block_into`]: stored CRC word and recomputed CRC both
//! against the directory), decodes it to `f32`s in one pass, and only then
//! re-locks to admit it. Disk, CRC and decode therefore never serialize
//! readers; a block that fails verification is returned as
//! [`SegmentError::Corrupt`] and never enters the cache.

use parking_lot::Mutex;
use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use wg_util::codec::{self, CodecResult};
use wg_util::segment::{atomic_write_bytes, Segment, SegmentBuilder, SegmentError};
use wg_util::FxHashMap;

use crate::simhash::Signature;
use crate::ItemId;

/// Dimensions per zone-map stripe: the directory stores component min/max
/// per 8-dim stripe instead of per dim, an 8× smaller footprint for a
/// slightly looser (still sound) bound.
pub const STRIPE_WIDTH: usize = 8;

/// Absolute slack added to every zone-map upper bound. The bound itself is
/// computed in f64 from exact f32 block statistics; the slack covers the
/// rounding of the f32 kernel dot it must dominate (≈ dim · ε ≈ 1.5e-5 at
/// dim 128 for unit vectors — 1e-3 dominates it by ~60×).
pub const UB_SLACK: f64 = 1e-3;

/// Per-block statistics proving what scores the block *cannot* reach.
#[derive(Debug, Clone)]
pub struct ZoneMap {
    /// Smallest stored row norm in the block.
    pub norm_min: f32,
    /// Largest stored row norm in the block.
    pub norm_max: f32,
    /// Mean of the block's rows (rounded to f32; the radius is measured
    /// against this stored value, so its rounding is already covered).
    pub centroid: Vec<f32>,
    /// Upper bound on `‖v − centroid‖` over the block's rows.
    pub radius: f32,
    /// Per-stripe component minimum over the block's rows.
    pub stripe_lo: Vec<f32>,
    /// Per-stripe component maximum over the block's rows.
    pub stripe_hi: Vec<f32>,
}

impl ZoneMap {
    /// Compute the zone map for a set of rows (each `dim` long) with their
    /// precomputed norms.
    pub fn build(dim: usize, rows: &[&[f32]], norms: &[f32]) -> ZoneMap {
        assert!(!rows.is_empty(), "zone map over an empty block");
        let stripes = dim.div_ceil(STRIPE_WIDTH);
        let mut norm_min = f32::INFINITY;
        let mut norm_max = f32::NEG_INFINITY;
        for &n in norms {
            norm_min = norm_min.min(n);
            norm_max = norm_max.max(n);
        }
        let mut mean = vec![0.0f64; dim];
        let mut stripe_lo = vec![f32::INFINITY; stripes];
        let mut stripe_hi = vec![f32::NEG_INFINITY; stripes];
        for row in rows {
            for (d, &x) in row.iter().enumerate() {
                mean[d] += x as f64;
                let s = d / STRIPE_WIDTH;
                stripe_lo[s] = stripe_lo[s].min(x);
                stripe_hi[s] = stripe_hi[s].max(x);
            }
        }
        let inv = 1.0 / rows.len() as f64;
        let centroid: Vec<f32> = mean.iter().map(|&m| (m * inv) as f32).collect();
        // Radius against the *stored* (f32-rounded) centroid, in f64, then
        // bumped before the f32 round so the stored value never undershoots.
        let mut r_sq = 0.0f64;
        for row in rows {
            let mut d_sq = 0.0f64;
            for (&x, &c) in row.iter().zip(&centroid) {
                let d = x as f64 - c as f64;
                d_sq += d * d;
            }
            r_sq = r_sq.max(d_sq);
        }
        let radius = (r_sq.sqrt() * (1.0 + 1e-6) + 1e-9) as f32;
        ZoneMap { norm_min, norm_max, centroid, radius, stripe_lo, stripe_hi }
    }

    /// An upper bound (in f64, [`UB_SLACK`]-padded, capped at 1.0) on the
    /// exact cosine any row of this block can score against `query`. Sound
    /// for the re-ranker's f32 arithmetic; degenerate norms fall back to
    /// the trivial bound 1.0 (never prune what we cannot bound).
    ///
    /// Written like [`wg_util::kernel::dot`]: each sum runs over the query
    /// in [`STRIPE_WIDTH`]-lane chunks with one accumulator per lane, and
    /// the box bound loads one `(lo, hi)` pair per chunk. The sums are the
    /// strict loop's sums reassociated, which moves an f64 result by
    /// ~1e-14 — ten orders under [`UB_SLACK`]. The two sums are two loops
    /// on purpose: fused, their sixteen f64 accumulators spill.
    pub fn cosine_upper_bound(&self, query: &[f32], qnorm: f32) -> f64 {
        let qn = qnorm as f64;
        if qn <= f32::MIN_POSITIVE as f64 {
            return 1.0;
        }
        // Ball bound: dot(q, v) = dot(q, c) + dot(q, v − c) ≤ dot(q, c) + ‖q‖·r.
        let mut lanes = [0.0f64; STRIPE_WIDTH];
        let mut q_chunks = query.chunks_exact(STRIPE_WIDTH);
        let mut c_chunks = self.centroid.chunks_exact(STRIPE_WIDTH);
        for (qc, cc) in (&mut q_chunks).zip(&mut c_chunks) {
            for i in 0..STRIPE_WIDTH {
                lanes[i] += qc[i] as f64 * cc[i] as f64;
            }
        }
        let mut dot_c: f64 = lanes.iter().sum();
        for (&q, &c) in q_chunks.remainder().iter().zip(c_chunks.remainder()) {
            dot_c += q as f64 * c as f64;
        }
        // Box bound: per-dim max of q_d·lo and q_d·hi with stripe extrema.
        // The compare-and-pick equals `f64::max` on every non-NaN pair and
        // compiles to the bare vector max.
        let pick = |q: f32, lo: f64, hi: f64| {
            let (a, b) = (q as f64 * lo, q as f64 * hi);
            if a > b {
                a
            } else {
                b
            }
        };
        let mut lanes = [0.0f64; STRIPE_WIDTH];
        let mut stripes = self.stripe_lo.iter().zip(&self.stripe_hi);
        for (qc, (&lo, &hi)) in query.chunks_exact(STRIPE_WIDTH).zip(&mut stripes) {
            let (lo, hi) = (lo as f64, hi as f64);
            for i in 0..STRIPE_WIDTH {
                lanes[i] += pick(qc[i], lo, hi);
            }
        }
        let mut boxed: f64 = lanes.iter().sum();
        if let Some((&lo, &hi)) = stripes.next() {
            // The `dim % STRIPE_WIDTH` trailing dims share the last stripe.
            for &q in q_chunks.remainder() {
                boxed += pick(q, lo as f64, hi as f64);
            }
        }
        self.bound_from_sums(dot_c, boxed, qn)
    }

    /// The cosine bound from the two dot-product bounds: the tighter of
    /// ball and box, over the norm that makes the quotient largest.
    fn bound_from_sums(&self, dot_c: f64, boxed: f64, qn: f64) -> f64 {
        let ball = dot_c + qn * self.radius as f64;
        let dot_ub = ball.min(boxed);
        // Dividing an upper bound needs the norm that *maximizes* the
        // quotient: the smallest norm when the bound is ≥ 0, the largest
        // when it is negative.
        let denom_norm = if dot_ub >= 0.0 { self.norm_min } else { self.norm_max };
        if denom_norm as f64 <= f32::MIN_POSITIVE as f64 {
            return 1.0;
        }
        (dot_ub / (qn * denom_norm as f64) + UB_SLACK).min(1.0)
    }

    /// The bound as one strict left-to-right loop per sum — the oracle the
    /// laned [`Self::cosine_upper_bound`] is tested against.
    #[cfg(test)]
    fn cosine_upper_bound_reference(&self, query: &[f32], qnorm: f32) -> f64 {
        let qn = qnorm as f64;
        if qn <= f32::MIN_POSITIVE as f64 {
            return 1.0;
        }
        let mut dot_c = 0.0f64;
        for (&q, &c) in query.iter().zip(&self.centroid) {
            dot_c += q as f64 * c as f64;
        }
        let mut boxed = 0.0f64;
        for (d, &q) in query.iter().enumerate() {
            let s = d / STRIPE_WIDTH;
            let q = q as f64;
            boxed += (q * self.stripe_lo[s] as f64).max(q * self.stripe_hi[s] as f64);
        }
        self.bound_from_sums(dot_c, boxed, qn)
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        codec::put_f32(buf, self.norm_min);
        codec::put_f32(buf, self.norm_max);
        codec::put_f32_slice(buf, &self.centroid);
        codec::put_f32(buf, self.radius);
        codec::put_f32_slice(buf, &self.stripe_lo);
        codec::put_f32_slice(buf, &self.stripe_hi);
    }

    fn decode(buf: &mut &[u8]) -> CodecResult<ZoneMap> {
        Ok(ZoneMap {
            norm_min: codec::get_f32(buf)?,
            norm_max: codec::get_f32(buf)?,
            centroid: codec::get_f32_vec(buf)?,
            radius: codec::get_f32(buf)?,
            stripe_lo: codec::get_f32_vec(buf)?,
            stripe_hi: codec::get_f32_vec(buf)?,
        })
    }
}

/// Point-in-time counters from a [`BlockCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block fetches served from memory.
    pub hits: u64,
    /// Block fetches that went to disk.
    pub misses: u64,
    /// Blocks evicted to stay under budget (or dropped with a segment).
    pub evictions: u64,
    /// Blocks currently resident.
    pub resident_blocks: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: usize,
}

type BlockKey = (u32, u32);

/// "No slot": the end of the recency list or of the free list.
const NIL: u32 = u32::MAX;

/// One slot of the cache's slab: a resident block, or a free slot.
struct CacheEntry {
    key: BlockKey,
    /// `None` while the slot is free.
    data: Option<Arc<Vec<f32>>>,
    bytes: usize,
    /// Slot of the next more recently used block.
    newer: u32,
    /// Slot of the next less recently used block; for a free slot, the
    /// next free slot.
    older: u32,
}

struct CacheInner {
    /// Slot of each resident block. The slots are threaded into one doubly
    /// linked recency list from `newest` to `oldest` by slab index, so a
    /// hit is this one probe plus indexed writes, and the eviction victim
    /// is always `oldest`, with no scan over the resident set.
    map: FxHashMap<BlockKey, u32>,
    slab: Vec<CacheEntry>,
    /// Head of the free-slot list, threaded through `older`.
    free: u32,
    newest: u32,
    oldest: u32,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    peak_bytes: usize,
}

impl CacheInner {
    /// Close the list over the gap a slot with these neighbours leaves.
    fn unlink(&mut self, newer: u32, older: u32) {
        match newer {
            NIL => self.newest = older,
            n => self.slab[n as usize].older = older,
        }
        match older {
            NIL => self.oldest = newer,
            o => self.slab[o as usize].newer = newer,
        }
    }

    /// Link a resident, currently unlinked slot in as most recently used.
    fn link_newest(&mut self, slot: u32) {
        let prev = std::mem::replace(&mut self.newest, slot);
        match prev {
            NIL => self.oldest = slot,
            p => self.slab[p as usize].newer = slot,
        }
        let entry = &mut self.slab[slot as usize];
        entry.newer = NIL;
        entry.older = prev;
    }

    /// The resident block for `key`, marked most recently used.
    fn touch(&mut self, key: BlockKey) -> Option<Arc<Vec<f32>>> {
        let slot = *self.map.get(&key)?;
        let entry = &self.slab[slot as usize];
        let data = entry.data.clone().expect("a mapped slot holds a block");
        let (newer, older) = (entry.newer, entry.older);
        if newer != NIL {
            self.unlink(newer, older);
            self.link_newest(slot);
        }
        Some(data)
    }

    /// Admit a block (not resident) as most recently used.
    fn admit(&mut self, key: BlockKey, data: Arc<Vec<f32>>, bytes: usize) {
        let entry = CacheEntry { key, data: Some(data), bytes, newer: NIL, older: NIL };
        let slot = match self.free {
            NIL => {
                assert!(self.slab.len() < NIL as usize, "block cache slab is full");
                self.slab.push(entry);
                (self.slab.len() - 1) as u32
            }
            slot => {
                self.free = self.slab[slot as usize].older;
                self.slab[slot as usize] = entry;
                slot
            }
        };
        self.map.insert(key, slot);
        self.link_newest(slot);
        self.bytes += bytes;
    }

    /// Drop the block in `slot` and put the slot on the free list.
    fn evict(&mut self, slot: u32) {
        let entry = &mut self.slab[slot as usize];
        entry.data = None;
        let (key, bytes, newer, older) = (entry.key, entry.bytes, entry.newer, entry.older);
        entry.older = std::mem::replace(&mut self.free, slot);
        self.map.remove(&key).expect("evicted slot is mapped");
        self.unlink(newer, older);
        self.bytes -= bytes;
        self.evictions += 1;
    }
}

/// A byte-budgeted LRU over `(segment, block)` payloads, shared by every
/// segment of a paged index (and across shards — the budget is global).
///
/// Admission is unconditional: the requested block is inserted, then the
/// least-recently-used *other* blocks are evicted until the budget holds
/// again. One block larger than the whole budget therefore stays resident
/// until the next admission — the alternative (refusing to cache it) would
/// re-read it on every query.
///
/// The lock covers bookkeeping only. A miss is *probe → unlock → load →
/// lock → insert-if-absent*: two threads missing the same block may both
/// load it, and the second to finish keeps the resident copy and drops its
/// own. That is benign — both copies passed the same CRC against the same
/// directory entry, so they are equal — and it is what lets concurrent
/// readers overlap their disk reads, checksums and decodes.
pub struct BlockCache {
    budget_bytes: usize,
    next_segment: AtomicU32,
    inner: Mutex<CacheInner>,
}

impl BlockCache {
    /// A cache admitting up to `budget_bytes` of payload (0 = unbounded).
    pub fn new(budget_bytes: usize) -> Arc<BlockCache> {
        Arc::new(BlockCache {
            budget_bytes,
            next_segment: AtomicU32::new(0),
            inner: Mutex::new(CacheInner {
                map: FxHashMap::default(),
                slab: Vec::new(),
                free: NIL,
                newest: NIL,
                oldest: NIL,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
                peak_bytes: 0,
            }),
        })
    }

    /// The configured byte budget (0 = unbounded).
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Hand out a process-unique id for a segment about to share this
    /// cache; the id namespaces the segment's blocks in the key space.
    pub fn register_segment(&self) -> u32 {
        self.next_segment.fetch_add(1, Ordering::Relaxed)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_blocks: inner.map.len(),
            resident_bytes: inner.bytes,
            peak_resident_bytes: inner.peak_bytes,
        }
    }

    /// Fetch a block, loading and admitting it on miss. `load` runs with
    /// the cache unlocked; an `Err` from it admits nothing.
    pub fn get_or_load(
        &self,
        key: (u32, u32),
        load: impl FnOnce() -> Result<Vec<f32>, SegmentError>,
    ) -> Result<Arc<Vec<f32>>, SegmentError> {
        {
            let mut inner = self.inner.lock();
            if let Some(data) = inner.touch(key) {
                inner.hits += 1;
                return Ok(data);
            }
        }
        let data = Arc::new(load()?);
        let bytes = data.len() * std::mem::size_of::<f32>();

        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.misses += 1;
        if let Some(resident) = inner.touch(key) {
            // Another thread admitted this block while we were loading it.
            return Ok(resident);
        }
        inner.admit(key, data.clone(), bytes);
        if self.budget_bytes > 0 {
            // The block just admitted is `newest`, so with two or more
            // resident it is never the victim.
            while inner.bytes > self.budget_bytes && inner.map.len() > 1 {
                inner.evict(inner.oldest);
            }
        }
        inner.peak_bytes = inner.peak_bytes.max(inner.bytes);
        Ok(data)
    }

    /// Drop every resident block of one segment (detach, re-seal).
    /// Returns how many blocks were dropped.
    pub fn evict_segment(&self, segment: u32) -> usize {
        let mut inner = self.inner.lock();
        let doomed: Vec<u32> =
            inner.map.iter().filter(|((s, _), _)| *s == segment).map(|(_, &slot)| slot).collect();
        for &slot in &doomed {
            inner.evict(slot);
        }
        doomed.len()
    }
}

/// One row headed into [`write_vector_segment`].
#[derive(Debug, Clone)]
pub struct SegmentRow {
    /// Item id.
    pub id: ItemId,
    /// SimHash signature (geometry must match the index that will attach
    /// the segment).
    pub signature: Signature,
    /// Precomputed L2 norm, exactly as the [`crate::VectorArena`] stores it
    /// — cold scoring must reproduce the hot path bit for bit.
    pub norm: f32,
    /// The vector itself.
    pub vector: Vec<f32>,
}

/// Directory-resident metadata for one block of a [`VectorSegment`].
#[derive(Debug, Clone)]
pub struct BlockMeta {
    /// Row ids, in row order.
    pub ids: Vec<ItemId>,
    /// Per-row norms, aligned with `ids`.
    pub norms: Vec<f32>,
    /// Packed signature words, `words_per_sig` per row.
    pub sig_words: Vec<u64>,
    /// The block's pruning statistics.
    pub zone: ZoneMap,
}

/// Seal rows into a segment file at `path` (written atomically).
///
/// Rows are sorted by (signature words, id) before blocking so LSH-similar
/// rows share blocks — see the module docs for why that makes the zone
/// maps effective. Returns the number of blocks written.
pub fn write_vector_segment(
    path: &Path,
    dim: usize,
    sig_bits: usize,
    block_rows: usize,
    mut rows: Vec<SegmentRow>,
) -> std::io::Result<usize> {
    assert!(dim > 0 && block_rows > 0, "segment geometry must be positive");
    for row in &rows {
        assert_eq!(row.vector.len(), dim, "row dimension mismatch");
        assert_eq!(row.signature.bits, sig_bits, "row signature width mismatch");
    }
    rows.sort_unstable_by(|a, b| a.signature.words.cmp(&b.signature.words).then(a.id.cmp(&b.id)));

    let mut header_meta = Vec::new();
    codec::put_u32(&mut header_meta, dim as u32);
    codec::put_u32(&mut header_meta, sig_bits as u32);
    codec::put_u32(&mut header_meta, block_rows as u32);
    let mut builder = SegmentBuilder::new(&header_meta);

    let mut n_blocks = 0usize;
    for chunk in rows.chunks(block_rows) {
        let views: Vec<&[f32]> = chunk.iter().map(|r| r.vector.as_slice()).collect();
        let norms: Vec<f32> = chunk.iter().map(|r| r.norm).collect();
        let zone = ZoneMap::build(dim, &views, &norms);
        let ids: Vec<ItemId> = chunk.iter().map(|r| r.id).collect();
        let mut sig_words = Vec::with_capacity(chunk.len() * chunk[0].signature.words.len());
        for r in chunk {
            sig_words.extend_from_slice(&r.signature.words);
        }
        let mut meta = Vec::new();
        codec::put_u32_slice(&mut meta, &ids);
        codec::put_f32_slice(&mut meta, &norms);
        codec::put_u64_slice(&mut meta, &sig_words);
        zone.encode(&mut meta);
        builder.push_block_with(chunk.len() * dim * 4, &meta, |payload| {
            let values = views.iter().flat_map(|v| v.iter());
            for (dst, x) in payload.chunks_exact_mut(4).zip(values) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
        });
        n_blocks += 1;
    }
    atomic_write_bytes(path, &builder.finish())?;
    Ok(n_blocks)
}

/// An opened vector segment: directory metadata resident, payload blocks
/// fetched lazily through the shared [`BlockCache`].
pub struct VectorSegment {
    cache_id: u32,
    segment: Segment,
    dim: usize,
    sig_bits: usize,
    blocks: Vec<BlockMeta>,
    cache: Arc<BlockCache>,
}

impl std::fmt::Debug for VectorSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorSegment")
            .field("path", &self.segment.path())
            .field("blocks", &self.blocks.len())
            .field("dim", &self.dim)
            .finish()
    }
}

impl VectorSegment {
    /// Open a sealed segment, validating geometry and directory metadata.
    /// No payload block is read here — hydration is lazy.
    pub fn open(path: &Path, cache: Arc<BlockCache>) -> Result<VectorSegment, SegmentError> {
        let segment = Segment::open(path)?;
        let mut h = segment.header_meta();
        let dim = codec::get_u32(&mut h)? as usize;
        let sig_bits = codec::get_u32(&mut h)? as usize;
        let block_rows = codec::get_u32(&mut h)? as usize;
        if dim == 0 || sig_bits == 0 || block_rows == 0 {
            return Err(SegmentError::Corrupt("bad vector-segment geometry".into()));
        }
        let words_per_sig = sig_bits.div_ceil(64);
        let mut blocks = Vec::with_capacity(segment.block_count());
        for b in 0..segment.block_count() {
            let mut m = segment.block_meta(b);
            let ids = codec::get_u32_vec(&mut m)?;
            let norms = codec::get_f32_vec(&mut m)?;
            let sig_words = codec::get_u64_vec(&mut m)?;
            let zone = ZoneMap::decode(&mut m)?;
            let rows = ids.len();
            if rows == 0 || rows > block_rows {
                return Err(SegmentError::Corrupt(format!("block {b} has {rows} rows")));
            }
            if norms.len() != rows
                || sig_words.len() != rows * words_per_sig
                || zone.centroid.len() != dim
                || zone.stripe_lo.len() != dim.div_ceil(STRIPE_WIDTH)
                || zone.stripe_hi.len() != dim.div_ceil(STRIPE_WIDTH)
                || segment.block_payload_len(b) != rows * dim * 4
            {
                return Err(SegmentError::Corrupt(format!("block {b} metadata is inconsistent")));
            }
            blocks.push(BlockMeta { ids, norms, sig_words, zone });
        }
        let cache_id = cache.register_segment();
        Ok(VectorSegment { cache_id, segment, dim, sig_bits, blocks, cache })
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Signature width the rows were signed with.
    pub fn sig_bits(&self) -> usize {
        self.sig_bits
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total rows across blocks.
    pub fn row_count(&self) -> usize {
        self.blocks.iter().map(|b| b.ids.len()).sum()
    }

    /// Directory metadata for one block.
    pub fn block_meta(&self, block: usize) -> &BlockMeta {
        &self.blocks[block]
    }

    /// Reconstruct the signature of one row from the resident words.
    pub fn signature_of(&self, block: usize, row: usize) -> Signature {
        let words_per_sig = self.sig_bits.div_ceil(64);
        let start = row * words_per_sig;
        Signature {
            words: self.blocks[block].sig_words[start..start + words_per_sig].to_vec(),
            bits: self.sig_bits,
        }
    }

    /// Fetch one block's vectors through the cache (row-major,
    /// `rows × dim`), verifying the payload checksum on a cold read.
    pub fn block(&self, block: usize) -> Result<Arc<Vec<f32>>, SegmentError> {
        thread_local! {
            /// Raw payload of the block being decoded; one per reading
            /// thread, sized by the largest block it has read.
            static BLOCK_BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        let expected = self.blocks[block].ids.len() * self.dim * 4;
        self.cache.get_or_load((self.cache_id, block as u32), || {
            BLOCK_BYTES.with_borrow_mut(|bytes| {
                self.segment.read_block_into(block, bytes)?;
                if bytes.len() != expected {
                    return Err(SegmentError::Corrupt(format!(
                        "block {block} payload is {} bytes, expected {expected}",
                        bytes.len(),
                    )));
                }
                Ok(bytes
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect())
            })
        })
    }

    /// Drop this segment's cache-resident blocks; returns how many were
    /// resident.
    pub fn evict_from_cache(&self) -> usize {
        self.cache.evict_segment(self.cache_id)
    }

    /// The shared cache this segment pages through.
    pub fn cache(&self) -> &Arc<BlockCache> {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simhash::SimHasher;
    use wg_util::kernel;
    use wg_util::rng::{Rng64, Xoshiro256pp};

    fn unit(dim: usize, rng: &mut Xoshiro256pp) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
        let n = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut v {
            *x /= n;
        }
        v
    }

    fn rows_for(dim: usize, n: usize, seed: u64) -> Vec<SegmentRow> {
        let mut rng = Xoshiro256pp::new(seed);
        let hasher = SimHasher::new(dim, 64, 7);
        (0..n)
            .map(|i| {
                let vector = unit(dim, &mut rng);
                SegmentRow {
                    id: i as ItemId,
                    signature: hasher.sign(&vector),
                    norm: kernel::norm_sq(&vector).sqrt(),
                    vector,
                }
            })
            .collect()
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wg-paged-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join("vectors.seg")
    }

    #[test]
    fn zone_map_bound_dominates_every_exact_score() {
        let dim = 32;
        let mut rng = Xoshiro256pp::new(11);
        for trial in 0..20 {
            let rows: Vec<Vec<f32>> = (0..16).map(|_| unit(dim, &mut rng)).collect();
            let views: Vec<&[f32]> = rows.iter().map(|v| v.as_slice()).collect();
            let norms: Vec<f32> = views.iter().map(|v| kernel::norm_sq(v).sqrt()).collect();
            let zone = ZoneMap::build(dim, &views, &norms);
            for _ in 0..50 {
                let q = unit(dim, &mut rng);
                let qnorm = kernel::norm_sq(&q).sqrt();
                let ub = zone.cosine_upper_bound(&q, qnorm);
                for (v, &n) in views.iter().zip(&norms) {
                    let denom = qnorm * n;
                    let score = if denom <= f32::MIN_POSITIVE {
                        0.0
                    } else {
                        (kernel::dot(&q, v) / denom).clamp(-1.0, 1.0)
                    };
                    assert!(score as f64 <= ub, "trial {trial}: score {score} exceeds bound {ub}");
                }
            }
        }
    }

    #[test]
    fn laned_bound_matches_the_strict_loop_and_stays_sound() {
        let mut rng = Xoshiro256pp::new(12);
        for dim in [8usize, 32, 100, 128, 130] {
            for scale in [1e-3f32, 1.0, 1e3] {
                for near_duplicates in [false, true] {
                    let base = unit(dim, &mut rng);
                    let rows: Vec<Vec<f32>> = (0..16)
                        .map(|_| {
                            let v = unit(dim, &mut rng);
                            let mix = if near_duplicates { 1e-3 } else { 1.0 };
                            base.iter().zip(&v).map(|(b, x)| scale * (b + mix * (x - b))).collect()
                        })
                        .collect();
                    let views: Vec<&[f32]> = rows.iter().map(|v| v.as_slice()).collect();
                    let norms: Vec<f32> = views.iter().map(|v| kernel::norm_sq(v).sqrt()).collect();
                    let zone = ZoneMap::build(dim, &views, &norms);
                    for qscale in [1e-3f32, 1.0, 1e3] {
                        // Half the queries sit next to the block, where the
                        // bound is tight; half are unrelated.
                        for near in [false, true] {
                            let mut q = unit(dim, &mut rng);
                            for (x, b) in q.iter_mut().zip(&base) {
                                *x = qscale * if near { b + 0.05 * *x } else { *x };
                            }
                            let qnorm = kernel::norm_sq(&q).sqrt();
                            let ub = zone.cosine_upper_bound(&q, qnorm);
                            let strict = zone.cosine_upper_bound_reference(&q, qnorm);
                            assert!(
                                (ub - strict).abs() <= 1e-9,
                                "dim {dim} scale {scale} q {qscale}: {ub} vs strict {strict}"
                            );
                            for (v, &n) in views.iter().zip(&norms) {
                                let score = (kernel::dot(&q, v) / (qnorm * n)).clamp(-1.0, 1.0);
                                assert!(
                                    score as f64 <= ub,
                                    "dim {dim}: score {score} > bound {ub}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The recency order, oldest first, read off the slab's links.
    fn recency(cache: &BlockCache) -> Vec<BlockKey> {
        let inner = cache.inner.lock();
        let mut order = Vec::new();
        let mut slot = inner.oldest;
        while slot != NIL {
            let entry = &inner.slab[slot as usize];
            assert_eq!(inner.map[&entry.key], slot);
            order.push(entry.key);
            slot = entry.newer;
        }
        assert_eq!(order.len(), inner.map.len());
        order
    }

    #[test]
    fn eviction_order_replays_a_strict_lru_model() {
        // Blocks of 1..=4 floats over a 40-byte budget, accessed in a
        // seeded script that mixes hits, misses and re-admissions.
        let budget = 40usize;
        let cache = BlockCache::new(budget);
        let floats = |key: BlockKey| 1 + (key.1 as usize % 4);
        let mut model: std::collections::VecDeque<BlockKey> = Default::default();
        let (mut hits, mut misses, mut evictions) = (0u64, 0u64, 0u64);
        let mut rng = Xoshiro256pp::new(13);
        for _ in 0..4_000 {
            let key = ((rng.gen_u64() % 2) as u32, (rng.gen_u64() % 9) as u32);
            let data =
                cache.get_or_load(key, || Ok(vec![key.1 as f32; floats(key)])).expect("load");
            assert_eq!(*data, vec![key.1 as f32; floats(key)]);
            if let Some(at) = model.iter().position(|&k| k == key) {
                model.remove(at);
                hits += 1;
            } else {
                misses += 1;
            }
            model.push_back(key);
            let resident = |m: &std::collections::VecDeque<BlockKey>| -> usize {
                m.iter().map(|&k| 4 * floats(k)).sum()
            };
            while resident(&model) > budget && model.len() > 1 {
                model.pop_front();
                evictions += 1;
            }
            assert_eq!(recency(&cache), Vec::from(model.clone()));
            let stats = cache.stats();
            assert_eq!((stats.hits, stats.misses, stats.evictions), (hits, misses, evictions));
            assert_eq!(stats.resident_bytes, resident(&model));
        }
        assert!(evictions > 100 && hits > 100, "the script must exercise both paths");
        // Slots are reused: the slab never outgrew the most blocks the
        // budget ever held at once (ten 4-byte blocks) plus the one being
        // admitted.
        assert!(cache.inner.lock().slab.len() <= 11);
    }

    #[test]
    fn evict_segment_returns_its_slots_to_the_free_list() {
        let cache = BlockCache::new(0);
        for key in [(0, 0), (1, 0), (0, 1), (1, 1), (0, 2)] {
            cache.get_or_load(key, || Ok(vec![0.0; 4])).expect("load");
        }
        assert_eq!(cache.evict_segment(0), 3);
        assert_eq!(recency(&cache), vec![(1, 0), (1, 1)]);
        assert_eq!(cache.stats().evictions, 3);
        // Three new blocks fit in the three freed slots.
        for key in [(2, 0), (2, 1), (2, 2)] {
            cache.get_or_load(key, || Ok(vec![0.0; 4])).expect("load");
        }
        assert_eq!(cache.inner.lock().slab.len(), 5);
        assert_eq!(recency(&cache), vec![(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]);
        cache.get_or_load((2, 3), || Ok(vec![0.0; 4])).expect("load");
        assert_eq!(cache.inner.lock().slab.len(), 6);
    }

    #[test]
    fn open_rejects_a_zone_map_with_missing_stripes() {
        // The laned bound zips the stripes with the query, so a short
        // stripe array would silently loosen to an unsound bound.
        let dim = 16;
        let rows = rows_for(dim, 4, 14);
        let views: Vec<&[f32]> = rows.iter().map(|r| r.vector.as_slice()).collect();
        let norms: Vec<f32> = rows.iter().map(|r| r.norm).collect();
        let mut zone = ZoneMap::build(dim, &views, &norms);
        zone.stripe_hi.pop();
        let mut header = Vec::new();
        codec::put_u32(&mut header, dim as u32);
        codec::put_u32(&mut header, 64);
        codec::put_u32(&mut header, 4);
        let mut builder = SegmentBuilder::new(&header);
        let mut meta = Vec::new();
        codec::put_u32_slice(&mut meta, &rows.iter().map(|r| r.id).collect::<Vec<_>>());
        codec::put_f32_slice(&mut meta, &norms);
        let words: Vec<u64> = rows.iter().flat_map(|r| r.signature.words.clone()).collect();
        codec::put_u64_slice(&mut meta, &words);
        zone.encode(&mut meta);
        builder.push_block(&vec![0u8; 4 * dim * 4], &meta);
        let path = temp_path("short-stripes");
        atomic_write_bytes(&path, &builder.finish()).expect("write");
        let err = VectorSegment::open(&path, BlockCache::new(0)).expect_err("must be refused");
        assert!(matches!(err, SegmentError::Corrupt(_)), "{err}");
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn seal_open_roundtrip_preserves_rows_and_stays_lazy() {
        let dim = 16;
        let rows = rows_for(dim, 37, 3);
        let path = temp_path("roundtrip");
        let blocks = write_vector_segment(&path, dim, 64, 8, rows.clone()).expect("seal");
        assert_eq!(blocks, 37usize.div_ceil(8));

        let cache = BlockCache::new(0);
        let seg = VectorSegment::open(&path, cache.clone()).expect("open");
        assert_eq!(seg.row_count(), 37);
        assert_eq!(seg.dim(), dim);
        // Lazy: opening reads directory metadata only.
        assert_eq!(cache.stats().resident_blocks, 0);

        let by_id: FxHashMap<ItemId, &SegmentRow> = rows.iter().map(|r| (r.id, r)).collect();
        for b in 0..seg.block_count() {
            let meta = seg.block_meta(b).clone();
            let data = seg.block(b).expect("read block");
            for (r, &id) in meta.ids.iter().enumerate() {
                let want = by_id[&id];
                assert_eq!(&data[r * dim..(r + 1) * dim], want.vector.as_slice());
                assert_eq!(meta.norms[r], want.norm);
                assert_eq!(seg.signature_of(b, r), want.signature);
            }
        }
        assert!(cache.stats().resident_blocks > 0);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn cache_budget_bounds_residency_and_counts() {
        let dim = 16;
        let rows = rows_for(dim, 64, 4);
        let path = temp_path("budget");
        write_vector_segment(&path, dim, 64, 8, rows).expect("seal");
        // Budget of exactly two 8×16 f32 blocks.
        let block_bytes = 8 * dim * 4;
        let cache = BlockCache::new(2 * block_bytes);
        let seg = VectorSegment::open(&path, cache.clone()).expect("open");
        assert_eq!(seg.block_count(), 8);
        for round in 0..3 {
            for b in 0..seg.block_count() {
                seg.block(b).expect("read");
                let stats = cache.stats();
                assert!(
                    stats.resident_bytes <= 2 * block_bytes,
                    "round {round}: resident {} exceeds budget",
                    stats.resident_bytes
                );
                assert!(stats.resident_blocks <= 2);
            }
        }
        let stats = cache.stats();
        // A 2-block LRU scanned cyclically over 8 blocks never hits.
        assert_eq!(stats.misses, 24);
        assert_eq!(stats.evictions, 22);
        assert_eq!(stats.peak_resident_bytes, 2 * block_bytes);

        // Re-reading the most recent block is a pure hit.
        seg.block(7).expect("read");
        assert_eq!(cache.stats().hits, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn evict_segment_drops_only_that_segment() {
        let dim = 8;
        let path_a = temp_path("evict-a");
        let path_b = temp_path("evict-b");
        write_vector_segment(&path_a, dim, 64, 4, rows_for(dim, 8, 5)).expect("seal a");
        write_vector_segment(&path_b, dim, 64, 4, rows_for(dim, 8, 6)).expect("seal b");
        let cache = BlockCache::new(0);
        let a = VectorSegment::open(&path_a, cache.clone()).expect("open a");
        let b = VectorSegment::open(&path_b, cache.clone()).expect("open b");
        for s in [&a, &b] {
            for blk in 0..s.block_count() {
                s.block(blk).expect("read");
            }
        }
        assert_eq!(cache.stats().resident_blocks, 4);
        assert_eq!(a.evict_from_cache(), 2);
        let stats = cache.stats();
        assert_eq!(stats.resident_blocks, 2);
        // B's blocks still hit.
        b.block(0).expect("read");
        assert_eq!(cache.stats().hits, 1);
        std::fs::remove_dir_all(path_a.parent().unwrap()).ok();
        std::fs::remove_dir_all(path_b.parent().unwrap()).ok();
    }

    #[test]
    fn oversized_block_stays_until_next_admission() {
        let dim = 16;
        let path = temp_path("oversized");
        write_vector_segment(&path, dim, 64, 8, rows_for(dim, 16, 7)).expect("seal");
        let cache = BlockCache::new(1); // budget smaller than any block
        let seg = VectorSegment::open(&path, cache.clone()).expect("open");
        seg.block(0).expect("read");
        assert_eq!(cache.stats().resident_blocks, 1, "sole block is pinned");
        seg.block(1).expect("read");
        let stats = cache.stats();
        assert_eq!(stats.resident_blocks, 1, "admission displaced the previous block");
        assert_eq!(stats.evictions, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn sealed_bytes_match_the_golden_segment() {
        // Hand-built rows, so the image depends on the writer alone; the
        // length and digest are those of the PR 9 writer's image. A change
        // here is an on-disk format change.
        let dim = 6;
        let rows: Vec<SegmentRow> = (0..10usize)
            .map(|i| SegmentRow {
                id: (10 - i) as ItemId,
                signature: Signature {
                    words: vec![(i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)],
                    bits: 64,
                },
                norm: i as f32 + 0.5,
                vector: (0..dim).map(|d| (i * dim + d) as f32 * 0.25 - 3.0).collect(),
            })
            .collect();
        let path = temp_path("golden");
        assert_eq!(write_vector_segment(&path, dim, 64, 4, rows).expect("seal"), 3);
        let image = std::fs::read(&path).expect("read image");
        assert_eq!(image.len(), 736);
        assert_eq!(wg_util::checksum::crc32(&image), 0x90A9_8D02);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn concurrent_readers_agree_with_a_single_threaded_read() {
        const THREADS: u64 = 4;
        const CALLS: usize = 2_000;
        let dim = 16;
        let path = temp_path("concurrent");
        write_vector_segment(&path, dim, 64, 8, rows_for(dim, 64, 9)).expect("seal");
        let oracle = VectorSegment::open(&path, BlockCache::new(0)).expect("open oracle");
        let want: Vec<Arc<Vec<f32>>> =
            (0..oracle.block_count()).map(|b| oracle.block(b).expect("oracle read")).collect();

        let budget = 2 * 8 * dim * 4;
        let cache = BlockCache::new(budget);
        let seg = VectorSegment::open(&path, cache.clone()).expect("open");
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (seg, cache, want, start) = (&seg, &cache, &want, &start);
                scope.spawn(move || {
                    let mut rng = Xoshiro256pp::new(0xB10C + t);
                    start.wait();
                    for call in 0..CALLS {
                        let b = (rng.gen_u64() % want.len() as u64) as usize;
                        assert_eq!(*seg.block(b).expect("read"), *want[b], "block {b}");
                        if call % 16 == 0 {
                            let stats = cache.stats();
                            assert!(stats.resident_bytes <= budget, "resident over budget");
                            assert!(stats.resident_blocks <= 2);
                        }
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, THREADS * CALLS as u64);
        assert!(stats.resident_bytes <= budget && stats.peak_resident_bytes <= budget);
        // Every admission beyond the budget's two blocks displaced exactly
        // one block; a racing duplicate load admits (and evicts) nothing.
        assert!(stats.evictions + 2 <= stats.misses);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn racing_loads_of_one_block_keep_a_single_resident_copy() {
        let cache = BlockCache::new(0);
        // Neither load can finish until both have started: that only
        // happens if the cache is unlocked while a load runs.
        let both_loading = std::sync::Barrier::new(2);
        let load = || {
            both_loading.wait();
            Ok(vec![1.0f32; 8])
        };
        let (a, b) = std::thread::scope(|scope| {
            let a = scope.spawn(|| cache.get_or_load((0, 0), load));
            let b = scope.spawn(|| cache.get_or_load((0, 0), load));
            (a.join().expect("reader a"), b.join().expect("reader b"))
        });
        let (a, b) = (a.expect("load a"), b.expect("load b"));
        assert!(Arc::ptr_eq(&a, &b), "the later finisher must adopt the resident copy");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
        assert_eq!((stats.resident_blocks, stats.resident_bytes), (1, 32));
    }

    #[test]
    fn block_damaged_after_open_is_refused_and_never_cached() {
        let dim = 16;
        let path = temp_path("flip-after-open");
        write_vector_segment(&path, dim, 64, 8, rows_for(dim, 16, 10)).expect("seal");
        let cache = BlockCache::new(0);
        let seg = VectorSegment::open(&path, cache.clone()).expect("open");
        // Damage block 0's payload in place (same inode the segment holds
        // open); the directory, validated at open, still says otherwise.
        let mut image = std::fs::read(&path).expect("read image");
        image[wg_util::segment::PREAMBLE_LEN + 5] ^= 0x10;
        std::fs::write(&path, &image).expect("rewrite in place");

        for _ in 0..2 {
            assert!(matches!(seg.block(0), Err(SegmentError::Corrupt(_))));
            assert_eq!(cache.stats().resident_blocks, 0, "a damaged block must not be cached");
        }
        let intact = seg.block(1).expect("intact block still reads");
        assert_eq!(intact.len(), 8 * dim);
        assert_eq!(cache.stats().resident_blocks, 1);
        // The scratch buffer the failed read used carries nothing over.
        assert_eq!(*seg.block(1).expect("hit"), *intact);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn open_rejects_mismatched_geometry_blobs() {
        let path = temp_path("badgeom");
        let mut header = Vec::new();
        codec::put_u32(&mut header, 0); // dim 0
        codec::put_u32(&mut header, 64);
        codec::put_u32(&mut header, 8);
        let builder = SegmentBuilder::new(&header);
        atomic_write_bytes(&path, &builder.finish()).expect("write");
        assert!(VectorSegment::open(&path, BlockCache::new(0)).is_err());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
