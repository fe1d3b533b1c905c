//! The paged (beyond-RAM) vector tier: segment files, the row record and
//! its bound (which resident pages share), and the bounded block cache.
//!
//! A sealed **vector segment** holds `block_rows × dim` f32 blocks inside a
//! checksummed [`wg_util::segment::Segment`] container. Everything a search
//! needs *before* exact scoring — ids, signatures, per-row norms, and a
//! per-row int8 **sketch** — lives in the segment directory and stays
//! resident from `open`, as one row-major slab per segment
//! ([`VectorSegment`], addressed by row number); the vector payloads
//! themselves page in on demand, a block at a time, through a shared
//! byte-budgeted LRU [`BlockCache`].
//!
//! The segment is also the one thing the system persists (DESIGN.md §9).
//! Its header is the geometry, a flag saying whether the directory carries
//! sketches — an option of the file: a paged snapshot prunes with them, a
//! checkpoint carries them so a recovery copies them, and a `to_bytes`
//! image leaves them out, to be derived at load — and an opaque
//! **manifest** the sealing caller owns. One writer (`seal_image`) lays
//! out every file; one reader ([`VectorSegment::open`] /
//! [`VectorSegment::from_bytes`]) validates it, after which an index either
//! attaches it lazily or hydrates from it in runs of adjacent blocks.
//!
//! The sketch of a row `x` is `dim` int8 codes `c_x`, an f32 scale `s_x`
//! and an f32 residual norm `e_x ≥ ‖x − s_x·c_x‖` (`dim + 8` bytes against
//! the row's `4·dim`). With the row's norm it makes the row's **record**
//! (`codes i8 × dim │ scale │ residual │ norm`), one layout for a segment's
//! slab and a resident page alike ([`RowSketch`]), and it is the index's
//! one pruning mechanism. A search quantizes its query the same way, once
//! ([`QueryCodes`]: i16 codes `c_q`, scale `s_q`, residual `e_q`), and
//! bounds a candidate row from its record with one exact integer dot:
//!
//! ```text
//! dot(q, x) ≤ s_q·s_x·Σ c_q·c_x + ‖s_q·c_q‖·e_x + e_q·‖x‖
//! ```
//!
//! which at int8 resolution lands within ~0.007 of the exact cosine, so a
//! query scores only the few rows, and reads only the few blocks, that can
//! still reach its top-k.
//!
//! Rows are sealed in **signature order** (lexicographic over the packed
//! SimHash words, ties by id), so rows that collide in the LSH buckets —
//! i.e. rows that are *similar* — land in the same blocks, and the rows a
//! query must verify exactly share blocks.
//!
//! Pruning contract: [`VectorSegment::cosine_upper_bound`] returns a value `≥`
//! the exact f32 cosine the re-ranker would compute for that row (both
//! residuals are measured in f64 against the codes as stored and rounded
//! up; the integer dot is exact; the sum is padded with [`UB_SLACK`] to
//! absorb the rounding of the exact score's own f32 kernel dot). The search
//! path may therefore skip a row — and a block none of whose candidate rows
//! survive — only when the top-k heap is full **and** the bound is strictly
//! below the current threshold: every skipped row provably scores below the
//! final k-th result, so rankings are bit-identical to scoring every
//! candidate, paged or in RAM.
//!
//! Cold-read path: [`VectorSegment::block`] → `BlockCache::get_or_load`
//! probes the cache under its lock, **releases it**, reads the block with
//! one positioned read into a per-thread byte buffer, verifies it
//! ([`Segment::read_block_into`]: stored CRC word and recomputed CRC both
//! against the directory), decodes it to `f32`s in one pass, and only then
//! re-locks to admit it. Disk, CRC and decode therefore never serialize
//! readers; a block that fails verification is returned as
//! [`SegmentError::Corrupt`] and never enters the cache.

use std::cell::RefCell;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use wg_util::atomic_file;
use wg_util::codec::{self, CodecError, CodecResult};
use wg_util::kernel;
use wg_util::lru::{CacheStats, Lru};
use wg_util::segment::{Segment, SegmentBuilder, SegmentError};
use wg_util::sync::Mutex;

use crate::simhash::Signature;
use crate::ItemId;

/// Absolute slack added to every row bound, in cosine units. The bound's
/// own arithmetic is an exact integer dot combined in f64; the slack covers
/// what is not: the rounding of the exact score's f32 kernel dot it must
/// dominate (≈ dim · ε ≈ 1.5e-5 at dim 128 for unit vectors) and of the f32
/// norm that scales the query's residual term — 1e-3 dominates their sum
/// by ~60×.
pub const UB_SLACK: f64 = 1e-3;

/// Accumulator lanes of [`code_dot`]: sixteen, one 128-bit load of row
/// codes per step.
const CODE_LANES: usize = 16;

/// `Σ query[d] · codes[d]`, exactly, over row codes as a slab record holds
/// them: one byte each, read as `i8`. [`QueryCodes::set`] keeps the query's
/// codes small enough that no partial sum can leave an `i32`. Written like
/// [`wg_util::kernel::dot`]: one accumulator per lane over
/// [`CODE_LANES`]-wide chunks, a strict loop over the remainder.
#[inline]
fn code_dot(query: &[i16], codes: &[u8]) -> i32 {
    debug_assert_eq!(query.len(), codes.len());
    let mut q_chunks = query.chunks_exact(CODE_LANES);
    let mut c_chunks = codes.chunks_exact(CODE_LANES);
    let mut acc = [0i32; CODE_LANES];
    for (qc, cc) in (&mut q_chunks).zip(&mut c_chunks) {
        for i in 0..CODE_LANES {
            acc[i] += qc[i] as i32 * cc[i] as i8 as i32;
        }
    }
    let mut sum: i32 = acc.iter().sum();
    for (&q, &c) in q_chunks.remainder().iter().zip(c_chunks.remainder()) {
        sum += q as i32 * c as i8 as i32;
    }
    sum
}

/// Quantize `x` onto the grid `scale · {−limit, …, limit}` with
/// `scale = max|x| / limit`: `put(d, c)` stores component `d`'s code `c`
/// (in `[−limit, limit]`), and the returned `(scale, r_sq)` has
/// `r_sq = ‖x − scale·codes‖²`.
///
/// `r_sq` is measured in f64 against the codes and the f32 scale *as
/// stored*, so it covers whatever the quantization did — a denormal scale
/// or a non-finite component only loosens the bound built on it (up to
/// NaN or infinity: never pruned), it cannot make it unsound.
#[inline]
fn quantize(x: &[f32], limit: i32, mut put: impl FnMut(usize, i32)) -> (f32, f64) {
    let max = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let scale = max / limit as f32;
    // An infinite component (or a `limit` of zero): all-zero codes,
    // everything in the residual.
    let scale = if scale.is_finite() { scale } else { 0.0 };
    let inv = if scale > 0.0 { 1.0 / scale } else { 0.0 };
    let mut r_sq = 0.0f64;
    for (d, &v) in x.iter().enumerate() {
        // `f32::round` (half away from zero), inline: the f64 sum is
        // exact for every f32, and `as` truncates toward zero, saturates,
        // and sends NaN (0 · ∞ under a denormal scale) to 0. Without
        // SSE4.1 `round` is a library call a component.
        let y = (v * inv) as f64;
        let code = ((y + 0.5f64.copysign(y)) as i32).clamp(-limit, limit);
        put(d, code);
        let d = v as f64 - scale as f64 * code as f64;
        r_sq += d * d;
    }
    (scale, r_sq)
}

/// The measured residual `√r_sq` of a quantization, rounded up: the
/// relative bump covers the rounding of the f64 sum (and an f32 cast of a
/// normal value), the absolute one the cast of a denormal.
fn residual_bound(r_sq: f64) -> f64 {
    r_sq.sqrt() * (1.0 + 1e-6) + f32::MIN_POSITIVE as f64
}

/// A query quantized for [`VectorSegment::cosine_upper_bound`], once per
/// search: i16 codes `c_q`, a scale `s_q`, and what the codes leave out,
/// `e_q ≥ ‖q − s_q·c_q‖`. At i16 the query's own residual is ~5e-5 of its
/// norm — far inside [`UB_SLACK`], so quantizing the query costs the bound
/// nothing a block read could notice.
///
/// The code range is `min(32767, (2³¹−1) / (127·dim))`: a rule derived from
/// `dim`, not a setting, so the `i32` sum of `dim` products of a query code
/// and an int8 row code cannot overflow.
#[derive(Debug, Default)]
pub struct QueryCodes {
    pub(crate) codes: Vec<i16>,
    /// `s_q` (an f32 value, so `s_q · code` is exact in f64).
    scale: f64,
    /// `≥ ‖s_q·c_q‖`.
    norm: f64,
    /// `e_q`; infinite or NaN for a query with a non-finite component,
    /// which makes every bound the trivial 1.0.
    residual: f64,
    /// The f32 `‖q‖` the exact score divides by.
    qnorm: f32,
}

impl QueryCodes {
    /// The largest code magnitude a `dim`-dimensional query may use.
    fn code_limit(dim: usize) -> i32 {
        (i32::MAX as usize / (127 * dim.max(1))).min(i16::MAX as usize) as i32
    }

    /// Quantize `query` (whose f32 norm is `qnorm`), reusing the buffer.
    pub fn set(&mut self, query: &[f32], qnorm: f32) {
        self.codes.clear();
        let codes = &mut self.codes;
        let (scale, r_sq) = quantize(query, Self::code_limit(query.len()), |_, c| {
            codes.push(c as i16);
        });
        let c_sq: i64 = self.codes.iter().map(|&c| c as i64 * c as i64).sum();
        self.scale = scale as f64;
        self.norm = scale as f64 * (c_sq as f64).sqrt() * (1.0 + 1e-6);
        self.residual = residual_bound(r_sq);
        self.qnorm = qnorm;
    }
}

/// Bytes of a sketched record behind its codes, and of a record without
/// sketches: `scale │ residual │ norm` as little-endian f32s, or the norm
/// alone.
const SKETCH_TAIL: usize = 12;
const NORM_TAIL: usize = 4;

/// Bytes of one row record of a `dim`-dimensional row: `dim` codes and
/// [`SKETCH_TAIL`] sketched, the norm alone without.
pub(crate) fn record_len(dim: usize, sketches: bool) -> usize {
    if sketches {
        dim + SKETCH_TAIL
    } else {
        NORM_TAIL
    }
}

/// Quantize row `x`, whose stored L2 norm is `norm`, into its sketched
/// record (`dim +` [`SKETCH_TAIL`] bytes, layout at [`VectorSegment`]):
/// `dim` int8 codes, the scale, a residual `≥ ‖x − scale·codes‖`, and the
/// norm.
pub(crate) fn sketch_row(x: &[f32], norm: f32, record: &mut [u8]) {
    let (codes, tail) = record.split_at_mut(x.len());
    let (scale, r_sq) = quantize(x, 127, |d, c| codes[d] = c as i8 as u8);
    // Up before the f32 round; `min` also turns a NaN sum into the
    // never-prune value.
    let residual = residual_bound(r_sq).min(f32::MAX as f64) as f32;
    tail[..4].copy_from_slice(&scale.to_le_bytes());
    tail[4..8].copy_from_slice(&residual.to_le_bytes());
    tail[8..].copy_from_slice(&norm.to_le_bytes());
}

/// One row's record as a resident page keeps it, computed before the
/// index's lock is taken: the int8 sketch a search bounds the row with and
/// the L2 norm it scores it with, laid out as a sketched segment's slab
/// record (`codes i8 × dim │ scale │ residual │ norm`), so one bound serves
/// a resident and an attached row alike. A pure function of the vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSketch(Vec<u8>);

impl RowSketch {
    /// Sketch `vector` under the norm an index stores for it
    /// (`kernel::norm_sq(vector).sqrt()`).
    pub fn of(vector: &[f32]) -> RowSketch {
        let mut record = vec![0u8; record_len(vector.len(), true)];
        sketch_row(vector, kernel::norm_sq(vector).sqrt(), &mut record);
        RowSketch(record)
    }

    /// The record's bytes.
    pub(crate) fn record(&self) -> &[u8] {
        &self.0
    }
}

/// The stored L2 norm of a record: its last field, sketched or not.
#[inline]
pub(crate) fn record_norm(record: &[u8]) -> f32 {
    le_f32(&record[record.len() - NORM_TAIL..])
}

/// A sketched record taken apart: `(codes, scale, residual, norm)`.
#[inline]
fn split_record(record: &[u8]) -> (&[u8], f32, f32, f32) {
    let codes = record.len().checked_sub(SKETCH_TAIL);
    let (codes, tail) = record.split_at(codes.expect("a record with a sketch"));
    (codes, le_f32(&tail[..4]), le_f32(&tail[4..8]), le_f32(&tail[8..]))
}

/// An upper bound (in f64, [`UB_SLACK`]-padded) on the exact f32 cosine
/// the re-ranker would compute for the row whose sketched `record` this is,
/// against the query `q` that `query` quantizes. With `q̂ = s_q·c_q` and
/// `x̂ = s_x·c_x`:
///
/// ```text
/// dot(q, x) = dot(q̂, x̂) + dot(q̂, x − x̂) + dot(q − q̂, x)
///           ≤ s_q·s_x·Σ c_q·c_x + ‖q̂‖·e_x + e_q·‖x‖
/// ```
///
/// divided by the same f32 `‖q‖·norm` the exact score divides by, and
/// capped at the trivial bound 1.0. A degenerate denominator scores 0.0
/// exactly and a non-finite query makes the sum NaN or infinite: both
/// get 1.0 — never prune what cannot be bounded.
///
/// Everything it reads of the row is the record. Panics on a record
/// without a sketch (there is nothing to bound with).
#[inline]
pub(crate) fn row_bound(record: &[u8], query: &QueryCodes) -> f64 {
    let (codes, scale, residual, norm) = split_record(record);
    assert_eq!(codes.len(), query.codes.len(), "a sketched record holds one code per dimension");
    let denom = query.qnorm * norm;
    if denom <= f32::MIN_POSITIVE {
        return 1.0;
    }
    let dot = code_dot(&query.codes, codes) as f64;
    let dot_ub = query.scale * scale as f64 * dot
        + query.norm * residual as f64
        + query.residual * norm as f64;
    // `min` returns its other operand for a NaN.
    (dot_ub / denom as f64 + UB_SLACK).min(1.0)
}

/// A byte-budgeted LRU over `(segment, block)` payloads, shared by every
/// segment of a paged index (the budget is the system's, not a segment's):
/// one [`Lru`] behind one mutex. The eviction rule is the LRU's — one
/// block larger than the whole budget stays resident until the next
/// admission, since refusing to cache it would re-read it on every query.
///
/// The lock covers bookkeeping only. A miss is *probe → unlock → load →
/// lock → insert-if-absent*: two threads missing the same block may both
/// load it, and the second to finish keeps the resident copy and drops its
/// own. That is benign — both copies passed the same CRC against the same
/// directory entry, so they are equal — and it is what lets concurrent
/// readers overlap their disk reads, checksums and decodes.
pub struct BlockCache {
    next_segment: AtomicU32,
    lru: Mutex<Lru<BlockKey, Arc<Vec<f32>>>>,
}

/// `(segment id, block index)`.
type BlockKey = (u32, u32);

impl BlockCache {
    /// A cache admitting up to `budget_bytes` of payload (0 = unbounded).
    pub fn new(budget_bytes: usize) -> Arc<BlockCache> {
        Arc::new(BlockCache {
            next_segment: AtomicU32::new(0),
            lru: Mutex::new(Lru::new(budget_bytes)),
        })
    }

    /// Hand out a process-unique id for a segment about to share this
    /// cache; the id namespaces the segment's blocks in the key space.
    fn register_segment(&self) -> u32 {
        self.next_segment.fetch_add(1, Ordering::Relaxed)
    }

    /// Current counters: a miss is a block fetch that went to disk.
    pub fn stats(&self) -> CacheStats {
        self.lru.lock().stats()
    }

    /// Fetch a block, loading and admitting it on miss. `load` runs with
    /// the cache unlocked; an `Err` from it admits nothing.
    fn get_or_load(
        &self,
        key: BlockKey,
        load: impl FnOnce() -> Result<Vec<f32>, SegmentError>,
    ) -> Result<Arc<Vec<f32>>, SegmentError> {
        if let Some(data) = self.lru.lock().get(&key) {
            return Ok(data);
        }
        let data = Arc::new(load()?);
        let bytes = data.len() * std::mem::size_of::<f32>();
        Ok(self.lru.lock().insert(key, data, bytes))
    }

    /// Drop every resident block of one segment (detach, retirement).
    /// Returns how many blocks were dropped. Walks every resident block of
    /// every segment — up to 15,000 at a 30,000-row corpus in 2-row pages —
    /// which is right once per retired segment.
    fn evict_segment(&self, segment: u32) -> usize {
        self.lru.lock().retain(|&(s, _)| s != segment)
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
    /// Precomputed L2 norm, exactly as a resident page stores it — an
    /// attached row must score as the same row held in memory, bit for bit.
    pub norm: f32,
    /// The vector itself.
    pub vector: Vec<f32>,
}

/// One row headed into [`seal_image`], borrowed from wherever it lives — a
/// resident page, or a cached block and its segment's slab — with its
/// sketched record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SealRow<'a> {
    pub(crate) id: ItemId,
    pub(crate) words: &'a [u64],
    pub(crate) record: &'a [u8],
    pub(crate) vector: &'a [f32],
}

/// Seal rows into a segment file at `path` (written atomically), with row
/// sketches and an empty manifest — a bare paged tier, no snapshot around
/// it. Returns the number of blocks written.
pub fn write_vector_segment(
    path: &Path,
    dim: usize,
    sig_bits: usize,
    block_rows: usize,
    rows: Vec<SegmentRow>,
) -> std::io::Result<usize> {
    write_rows(path, dim, sig_bits, block_rows, rows, 1.0)
}

/// The mutant of [`write_vector_segment`] for the mutation check: every
/// stored residual is 10% short, i.e. the row bound is unsound.
#[cfg(test)]
pub(crate) fn write_vector_segment_understating(
    path: &Path,
    dim: usize,
    sig_bits: usize,
    block_rows: usize,
    rows: Vec<SegmentRow>,
) -> std::io::Result<usize> {
    write_rows(path, dim, sig_bits, block_rows, rows, 0.9)
}

fn write_rows(
    path: &Path,
    dim: usize,
    sig_bits: usize,
    block_rows: usize,
    rows: Vec<SegmentRow>,
    residual_factor: f32,
) -> std::io::Result<usize> {
    let len = record_len(dim, true);
    let mut records = vec![0u8; rows.len() * len];
    for (row, record) in rows.iter().zip(records.chunks_exact_mut(len)) {
        assert_eq!(row.vector.len(), dim, "row dimension mismatch");
        assert_eq!(row.signature.bits, sig_bits, "row signature width mismatch");
        sketch_row(&row.vector, row.norm, record);
        let residual = le_f32(&record[dim + 4..dim + 8]) * residual_factor;
        record[dim + 4..dim + 8].copy_from_slice(&residual.to_le_bytes());
    }
    let mut borrowed: Vec<SealRow<'_>> = (rows.iter().zip(records.chunks_exact(len)))
        .map(|(r, record)| SealRow {
            id: r.id,
            words: &r.signature.words,
            record,
            vector: &r.vector,
        })
        .collect();
    let image = seal_image(dim, sig_bits, block_rows, true, &[], &mut borrowed);
    atomic_file::write(path, &image)?;
    Ok(rows.len().div_ceil(block_rows))
}

/// Header flag: every block's directory entry carries its rows' sketches.
const FLAG_SKETCHES: u32 = 1;
/// Bytes of the header in front of the manifest: dim, signature width,
/// block rows, flags.
const HEADER_LEN: usize = 16;

/// Exactly what [`seal`] writes for `rows` rows, so the image is reserved
/// once (a sealed image is large: growing it by doubling would hold it in
/// memory twice). A row weighs its payload, id, norm, signature words and,
/// sketched, `dim` codes, a scale and a residual. A block adds its payload's
/// CRC word, a directory entry (offset u64, payload length, CRC, metadata
/// length) and one length prefix per metadata array — three, or six with
/// sketches: 36 or 48 bytes whatever `block_rows` is, so small pages cost
/// `rows / block_rows` of those and nothing else. The rest is the
/// container's fixed framing (preamble, directory magic + version, header
/// length, block count, trailer), this header and the manifest.
fn image_len(
    dim: usize,
    sig_bits: usize,
    block_rows: usize,
    sketches: bool,
    manifest_len: usize,
    rows: usize,
) -> usize {
    let (row_sketch, block_sketch) = if sketches { (dim + 8, 3 * 4) } else { (0, 0) };
    let row = dim * 4 + 4 + 4 + sig_bits.div_ceil(64) * 8 + row_sketch;
    let block = 4 + (8 + 4 + 4 + 4) + 3 * 4 + block_sketch;
    let framing = wg_util::segment::PREAMBLE_LEN + 8 + 4 + 4 + wg_util::segment::TRAILER_LEN;
    rows * row + rows.div_ceil(block_rows) * block + framing + HEADER_LEN + manifest_len
}

/// Lay `rows` out as one complete segment image — the only writer of the
/// format:
///
/// ```text
/// header   dim u32 │ sig_bits u32 │ block_rows u32 │ flags u32 │ manifest …
/// block b  rows [b·block_rows, (b+1)·block_rows) as little-endian f32s
/// meta b   ids │ norms │ signature words │ iff sketches: codes │ scales │ residuals
/// ```
///
/// Rows are sorted by (signature words, id) before blocking, so LSH-similar
/// rows share blocks — a query's surviving candidates then sit in few
/// blocks — and identical row sets seal to identical bytes wherever the
/// rows came from. Every row brings its sketched record, whose fields are
/// little-endian already: the directory's arrays are their bytes, and a
/// file without sketches takes the norm alone. `manifest` is the caller's:
/// this layer stores it and hands it back.
pub(crate) fn seal_image(
    dim: usize,
    sig_bits: usize,
    block_rows: usize,
    sketches: bool,
    manifest: &[u8],
    rows: &mut [SealRow<'_>],
) -> Vec<u8> {
    assert!(dim > 0 && sig_bits > 0 && block_rows > 0, "segment geometry must be positive");
    rows.sort_unstable_by(|a, b| a.words.cmp(b.words).then(a.id.cmp(&b.id)));

    let mut header = Vec::with_capacity(HEADER_LEN);
    codec::put_u32(&mut header, dim as u32);
    codec::put_u32(&mut header, sig_bits as u32);
    codec::put_u32(&mut header, block_rows as u32);
    codec::put_u32(&mut header, if sketches { FLAG_SKETCHES } else { 0 });
    let size = image_len(dim, sig_bits, block_rows, sketches, manifest.len(), rows.len());
    let mut builder = SegmentBuilder::new(size);

    // One block's directory entry, reused block after block: sealing
    // allocates per image, not per block.
    let mut meta = Vec::new();
    // One field of every record of a block, as one length-prefixed array
    // of `count` items.
    let array =
        |meta: &mut Vec<u8>, chunk: &[SealRow<'_>], count, field: std::ops::Range<usize>| {
            codec::put_len(meta, count);
            chunk.iter().for_each(|r| meta.extend_from_slice(&r.record[field.clone()]));
        };
    for chunk in rows.chunks(block_rows) {
        debug_assert!(chunk.iter().all(|r| r.record.len() == record_len(dim, true)));
        meta.clear();
        codec::put_len(&mut meta, chunk.len());
        chunk.iter().for_each(|r| codec::put_u32(&mut meta, r.id));
        array(&mut meta, chunk, chunk.len(), dim + 8..dim + SKETCH_TAIL);
        codec::put_len(&mut meta, chunk.len() * sig_bits.div_ceil(64));
        chunk.iter().flat_map(|r| r.words).for_each(|&w| codec::put_u64(&mut meta, w));
        if sketches {
            array(&mut meta, chunk, chunk.len() * dim, 0..dim);
            array(&mut meta, chunk, chunk.len(), dim..dim + 4);
            array(&mut meta, chunk, chunk.len(), dim + 4..dim + 8);
        }
        builder.push_block_with(chunk.len() * dim * 4, &meta, |payload| {
            for (dst, row) in payload.chunks_exact_mut(dim * 4).zip(chunk) {
                for (le, x) in dst.chunks_exact_mut(4).zip(row.vector) {
                    le.copy_from_slice(&x.to_le_bytes());
                }
            }
        });
    }
    builder.finish(&[&header, manifest])
}

/// Borrow one length-prefixed array of `width`-byte items out of a
/// directory blob: the item count and the items' bytes.
fn take_array<'a>(buf: &mut &'a [u8], width: usize) -> CodecResult<(usize, &'a [u8])> {
    let count = codec::get_len(buf)?;
    let len = count.checked_mul(width).ok_or(CodecError::UnexpectedEof)?;
    let (bytes, rest) = buf.split_at_checked(len).ok_or(CodecError::UnexpectedEof)?;
    *buf = rest;
    Ok((count, bytes))
}

/// One little-endian `f32` of a record or a directory array.
fn le_f32(bytes: &[u8]) -> f32 {
    f32::from_le_bytes(bytes.try_into().expect("4 bytes"))
}

/// Bytes a hydrating or verifying pass reads with one positioned read: a
/// run of adjacent blocks up to this size (or one block, if it is larger).
const RUN_BYTES: usize = 256 << 10;

/// An opened vector segment: row metadata resident, payload blocks fetched
/// lazily through the shared [`BlockCache`].
///
/// The block is the **page** — the unit of `pread`, CRC, decode and cache
/// residency — and nothing else. What is resident of the rows does not know
/// about blocks: one row-major **slab** for the whole segment, built at
/// open from the directory's per-block arrays, one record per row
///
/// ```text
/// codes i8 × dim │ scale f32 │ residual f32 │ norm f32
/// ```
///
/// (the norm alone in a segment sealed without sketches), with the ids and
/// the signature words in flat arrays beside it. Every method takes a
/// **row** number of the segment, and every block but the last holds
/// exactly `block_rows` rows (the one writer seals so, and `open` holds a
/// file to it), so a row's block is its quotient ([`Self::block_of`]). A row bound reads one record; opening a segment
/// allocates per segment, not per block; and what a cold pass costs does
/// not depend on how many blocks its candidates span.
pub struct VectorSegment {
    cache_id: u32,
    segment: Segment,
    dim: usize,
    sig_bits: usize,
    sketches: bool,
    manifest: Vec<u8>,
    block_rows: usize,
    words_per_sig: usize,
    record_len: usize,
    ids: Vec<ItemId>,
    sig_words: Vec<u64>,
    records: Vec<u8>,
    cache: Arc<BlockCache>,
}

impl std::fmt::Debug for VectorSegment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorSegment")
            .field("path", &self.segment.path())
            .field("blocks", &self.block_count())
            .field("dim", &self.dim)
            .finish()
    }
}

impl VectorSegment {
    /// Open a sealed segment file, validating geometry and directory
    /// metadata. No payload block is read here — hydration is lazy.
    pub fn open(path: &Path, cache: Arc<BlockCache>) -> Result<VectorSegment, SegmentError> {
        Self::validate(Segment::open(path)?, cache)
    }

    /// [`Self::open`] over a complete image held in memory.
    pub fn from_bytes(bytes: Vec<u8>, cache: Arc<BlockCache>) -> Result<Self, SegmentError> {
        Self::validate(Segment::from_bytes(bytes)?, cache)
    }

    /// The container has vouched for the directory's bytes (its CRC was
    /// compared before it was parsed); this holds what they say to the
    /// vector tier's own rules while it moves them into the row slab.
    fn validate(mut segment: Segment, cache: Arc<BlockCache>) -> Result<Self, SegmentError> {
        let mut manifest = segment.take_header_meta();
        let mut h = &manifest[..];
        let dim = codec::get_u32(&mut h)? as usize;
        let sig_bits = codec::get_u32(&mut h)? as usize;
        let block_rows = codec::get_u32(&mut h)? as usize;
        let flags = codec::get_u32(&mut h)?;
        if dim == 0 || sig_bits == 0 || block_rows == 0 || flags & !FLAG_SKETCHES != 0 {
            return Err(SegmentError::Corrupt("bad vector-segment geometry".into()));
        }
        manifest.drain(..HEADER_LEN);
        let sketches = flags & FLAG_SKETCHES != 0;
        let words_per_sig = sig_bits.div_ceil(64);
        let record_len = record_len(dim, sketches);

        // The row count first: it sizes the slab, which is then allocated
        // once. A row count is bounded by the bytes of the blob that states
        // it, and every record byte comes out of a blob. Every block is
        // full but the last, which is not empty.
        let blocks = segment.block_count();
        let (mut total, mut blob_bytes) = (0usize, 0usize);
        for b in 0..blocks {
            let blob = segment.block_meta(b);
            let (rows, _) = take_array(&mut &blob[..], 4)?;
            if rows == 0 || rows > block_rows || (rows < block_rows && b + 1 < blocks) {
                return Err(SegmentError::Corrupt(format!(
                    "block {b} of {blocks} has {rows} rows in {block_rows}-row blocks"
                )));
            }
            total += rows;
            blob_bytes += blob.len();
        }
        if total > u32::MAX as usize || total.checked_mul(record_len).is_none_or(|n| n > blob_bytes)
        {
            return Err(SegmentError::Corrupt(format!(
                "{total} rows of {record_len} metadata bytes do not fit the directory"
            )));
        }
        let mut ids = Vec::with_capacity(total);
        let mut sig_words = Vec::with_capacity(total * words_per_sig);
        let mut records = vec![0u8; total * record_len];

        let le_u32 = |x: &[u8]| u32::from_le_bytes(x.try_into().expect("4 bytes"));
        let le_u64 = |x: &[u8]| u64::from_le_bytes(x.try_into().expect("8 bytes"));
        // A NaN or a negative value in the slab would turn "never prune
        // what cannot be bounded" into "prune wrongly".
        let usable = |xs: &[u8]| xs.chunks_exact(4).map(le_f32).all(|x| x.is_finite() && x >= 0.0);
        let mut slab = records.chunks_exact_mut(record_len);
        for b in 0..blocks {
            let mut r = segment.block_meta(b);
            let (rows, id_bytes) = take_array(&mut r, 4)?;
            let (n_norms, norms) = take_array(&mut r, 4)?;
            let (n_words, words) = take_array(&mut r, 8)?;
            let sketch = match sketches {
                true => {
                    Some([take_array(&mut r, 1)?, take_array(&mut r, 4)?, take_array(&mut r, 4)?])
                }
                false => None,
            };
            // `dim` is whatever the header says: products that do not fit
            // are as wrong as ones that do not match.
            let payload_len = rows.checked_mul(dim).and_then(|floats| floats.checked_mul(4));
            let sketch_fits = sketch.is_none_or(|[codes, scales, residuals]| {
                Some(codes.0) == rows.checked_mul(dim) && scales.0 == rows && residuals.0 == rows
            });
            if !r.is_empty()
                || n_norms != rows
                || n_words != rows * words_per_sig
                || !sketch_fits
                || Some(segment.block_payload_len(b)) != payload_len
            {
                return Err(SegmentError::Corrupt(format!("block {b} metadata is inconsistent")));
            }
            if !(usable(norms) && sketch.is_none_or(|[_, s, e]| usable(s.1) && usable(e.1))) {
                return Err(SegmentError::Corrupt(format!(
                    "block {b} has a norm, scale or residual that is not a finite non-negative \
                     number"
                )));
            }
            ids.extend(id_bytes.chunks_exact(4).map(le_u32));
            sig_words.extend(words.chunks_exact(8).map(le_u64));
            for (row, record) in slab.by_ref().take(rows).enumerate() {
                if let Some([codes, scales, residuals]) = sketch {
                    record[..dim].copy_from_slice(&codes.1[row * dim..(row + 1) * dim]);
                    record[dim..dim + 4].copy_from_slice(&scales.1[row * 4..(row + 1) * 4]);
                    record[dim + 4..dim + 8].copy_from_slice(&residuals.1[row * 4..(row + 1) * 4]);
                }
                record[record_len - NORM_TAIL..].copy_from_slice(&norms[row * 4..(row + 1) * 4]);
            }
        }
        // Decoded above into the resident form: the sketches are too big
        // to keep twice.
        segment.release_block_meta();
        let cache_id = cache.register_segment();
        Ok(VectorSegment {
            cache_id,
            segment,
            dim,
            sig_bits,
            sketches,
            manifest,
            block_rows,
            words_per_sig,
            record_len,
            ids,
            sig_words,
            records,
            cache,
        })
    }

    /// True when the directory carries row sketches — what a search over
    /// an attached segment prunes with. A segment without them can only be
    /// hydrated from.
    pub fn has_sketches(&self) -> bool {
        self.sketches
    }

    /// Move the sealing caller's manifest out (empty afterwards): a loader
    /// parses it once and has no reason to keep it resident.
    pub fn take_manifest(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.manifest)
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
        self.segment.block_count()
    }

    /// Total rows across blocks.
    pub fn row_count(&self) -> usize {
        self.ids.len()
    }

    /// The block holding row `row`.
    #[inline]
    pub fn block_of(&self, row: usize) -> usize {
        row / self.block_rows
    }

    /// The rows block `block` holds.
    pub fn block_span(&self, block: usize) -> std::ops::Range<usize> {
        let start = block * self.block_rows;
        start..(start + self.block_rows).min(self.row_count())
    }

    /// Every row's id, in row order.
    pub fn ids(&self) -> &[ItemId] {
        &self.ids
    }

    /// The resident packed signature words of one row.
    #[inline]
    pub fn sig_words(&self, row: usize) -> &[u64] {
        &self.sig_words[row * self.words_per_sig..(row + 1) * self.words_per_sig]
    }

    /// Reconstruct the signature of one row from the resident words.
    pub fn signature_of(&self, row: usize) -> Signature {
        Signature { words: self.sig_words(row).to_vec(), bits: self.sig_bits }
    }

    /// One row's record: sketched (`codes │ scale │ residual │ norm`), or
    /// the norm alone in a segment sealed without sketches.
    #[inline]
    pub(crate) fn record(&self, row: usize) -> &[u8] {
        &self.records[row * self.record_len..(row + 1) * self.record_len]
    }

    /// Every row's record, in row order: the slab.
    #[inline]
    pub(crate) fn records(&self) -> &[u8] {
        &self.records
    }

    /// The stored L2 norm of one row: the last field of its record.
    #[inline]
    pub fn norm(&self, row: usize) -> f32 {
        record_norm(self.record(row))
    }

    /// An upper bound (in f64, [`UB_SLACK`]-padded) on the exact f32 cosine
    /// the re-ranker would compute for row `row` against the query `query`
    /// quantizes: the bound of the module doc, read from the row's record
    /// alone, by the one function that bounds a resident row too. Panics on
    /// a segment sealed without sketches (there is nothing to bound with;
    /// such a segment cannot be attached).
    #[inline]
    pub fn cosine_upper_bound(&self, row: usize, query: &QueryCodes) -> f64 {
        row_bound(self.record(row), query)
    }

    /// Hand `visit` every block's verified payload bytes, in block order,
    /// past the cache: adjacent blocks are read in runs of up to
    /// [`RUN_BYTES`] with one positioned read each, and every block of a run
    /// is CRC-checked before any of it is handed out. The first block that
    /// fails stops the pass with [`SegmentError::Corrupt`].
    pub(crate) fn for_each_payload(
        &self,
        visit: impl FnMut(usize, &[u8]),
    ) -> Result<(), SegmentError> {
        let mut run = Vec::new();
        self.segment.read_runs(0..self.block_count(), RUN_BYTES, &mut run, visit)
    }

    /// Read and verify every block's payload once, keeping nothing: after
    /// this, every byte of the file has been compared with its checksum.
    pub fn verify_payloads(&self) -> Result<(), SegmentError> {
        self.for_each_payload(|_, _| ())
    }

    /// Fetch one block's vectors through the cache (row-major,
    /// `rows × dim`), verifying the payload checksum on a cold read.
    pub fn block(&self, block: usize) -> Result<Arc<Vec<f32>>, SegmentError> {
        thread_local! {
            /// Raw payload of the block being decoded; one per reading
            /// thread, sized by the largest block it has read.
            static BLOCK_BYTES: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        self.cache.get_or_load((self.cache_id, block as u32), || {
            BLOCK_BYTES.with_borrow_mut(|bytes| {
                self.segment.read_block_into(block, bytes)?;
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
    use crate::index::score_row;
    use crate::simhash::SimHasher;
    use wg_util::kernel;
    use wg_util::rng::{Rng64, Xoshiro256pp};
    use wg_util::FxHashMap;

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

    /// The sketched record a writer derives for `row`.
    fn record_of(row: &SegmentRow) -> Vec<u8> {
        let mut record = vec![0u8; record_len(row.vector.len(), true)];
        sketch_row(&row.vector, row.norm, &mut record);
        record
    }

    /// `rows` sealed the way a writer seals them, each with its record.
    fn image_of(
        (dim, sig_bits, block_rows): (usize, usize, usize),
        sketches: bool,
        manifest: &[u8],
        rows: &[SegmentRow],
    ) -> Vec<u8> {
        let records: Vec<Vec<u8>> = rows.iter().map(record_of).collect();
        let mut borrowed: Vec<SealRow<'_>> = (rows.iter().zip(&records))
            .map(|(r, record)| SealRow {
                id: r.id,
                words: &r.signature.words,
                record,
                vector: &r.vector,
            })
            .collect();
        seal_image(dim, sig_bits, block_rows, sketches, manifest, &mut borrowed)
    }

    /// `vectors` sealed with sketches under one signature — so row `i` of
    /// the slab is `vectors[i]`, id `i` — in `block_rows`-row blocks, and
    /// opened from memory.
    fn segment_of(vectors: &[Vec<f32>], block_rows: usize) -> VectorSegment {
        let rows: Vec<SegmentRow> = vectors
            .iter()
            .enumerate()
            .map(|(i, v)| SegmentRow {
                id: i as ItemId,
                signature: Signature { words: vec![0], bits: 64 },
                norm: kernel::norm_sq(v).sqrt(),
                vector: v.clone(),
            })
            .collect();
        let image = image_of((vectors[0].len(), 64, block_rows), true, &[], &rows);
        VectorSegment::from_bytes(image, BlockCache::new(0)).expect("open")
    }

    /// One block's directory entry as the arrays it is on disk, for tests
    /// that build (or damage) a directory by hand.
    #[derive(Clone)]
    struct RawMeta {
        ids: Vec<ItemId>,
        norms: Vec<f32>,
        sig_words: Vec<u64>,
        codes: Vec<i8>,
        scales: Vec<f32>,
        residuals: Vec<f32>,
    }

    impl RawMeta {
        fn of_rows(rows: &[SegmentRow]) -> RawMeta {
            let mut meta = RawMeta {
                ids: rows.iter().map(|r| r.id).collect(),
                norms: rows.iter().map(|r| r.norm).collect(),
                sig_words: rows.iter().flat_map(|r| r.signature.words.clone()).collect(),
                codes: Vec::new(),
                scales: Vec::new(),
                residuals: Vec::new(),
            };
            for r in rows {
                let record = record_of(r);
                let (codes, scale, residual, _) = split_record(&record);
                meta.codes.extend(codes.iter().map(|&c| c as i8));
                meta.scales.push(scale);
                meta.residuals.push(residual);
            }
            meta
        }

        fn encode(&self) -> Vec<u8> {
            let mut buf = Vec::new();
            codec::put_u32_slice(&mut buf, &self.ids);
            codec::put_f32_slice(&mut buf, &self.norms);
            codec::put_u64_slice(&mut buf, &self.sig_words);
            codec::put_bytes_with(&mut buf, |buf| buf.extend(self.codes.iter().map(|&c| c as u8)));
            codec::put_f32_slice(&mut buf, &self.scales);
            codec::put_f32_slice(&mut buf, &self.residuals);
            buf
        }
    }

    /// A vector-segment header: geometry, flags, no manifest.
    fn header(dim: u32, sig_bits: u32, block_rows: u32, flags: u32) -> Vec<u8> {
        let mut header = Vec::new();
        for x in [dim, sig_bits, block_rows, flags] {
            codec::put_u32(&mut header, x);
        }
        header
    }

    /// `query` quantized for the bound, with the f32 norm the search uses.
    fn codes_of(query: &[f32]) -> (QueryCodes, f32) {
        let qnorm = kernel::norm_sq(query).sqrt();
        let mut codes = QueryCodes::default();
        codes.set(query, qnorm);
        (codes, qnorm)
    }

    #[test]
    fn row_bound_dominates_every_exact_score() {
        // Through the file: the bound from the directory a reader opens,
        // the score from the payload it reads.
        let dim = 32;
        let path = temp_path("bound");
        write_vector_segment(&path, dim, 64, 16, rows_for(dim, 64, 11)).expect("seal");
        let seg = VectorSegment::open(&path, BlockCache::new(0)).expect("open");
        let mut rng = Xoshiro256pp::new(11);
        let mut queries: Vec<Vec<f32>> = (0..50).map(|_| unit(dim, &mut rng)).collect();
        // Cauchy–Schwarz at equality: a query along a row's own residual
        // `x − s·c` leaves the bound nothing but its slack (and the query's
        // own, far smaller, residual).
        for b in 0..seg.block_count() {
            let (codes, scale, ..) = split_record(seg.record(seg.block_span(b).start));
            let data = seg.block(b).expect("read");
            let residual = data[..dim].iter().zip(codes);
            queries.push(residual.map(|(x, &c)| x - scale * c as i8 as f32).collect());
        }
        let aligned = queries.len();
        // Every component at ±max: every query code saturated.
        queries.push((0..dim).map(|d| if d % 3 == 0 { -0.25 } else { 0.25 }).collect());
        // Magnitudes at both ends of what an f32 norm can hold, and past it.
        for magnitude in [1e-30f32, 1e-18, 1e18, 1e30] {
            let q = unit(dim, &mut rng);
            queries.push(q.iter().map(|x| x * magnitude).collect());
        }
        let mut tightest = f64::INFINITY;
        for (i, q) in queries.iter().enumerate() {
            let (codes, qnorm) = codes_of(q);
            for b in 0..seg.block_count() {
                let (span, data) = (seg.block_span(b), seg.block(b).expect("read"));
                for (r, row) in span.enumerate() {
                    let ub = seg.cosine_upper_bound(row, &codes);
                    let score = score_row(q, qnorm, seg.norm(row), &data, r, dim);
                    assert!(score <= ub, "query {i} block {b} row {r}: {score} exceeds {ub}");
                    if i < aligned {
                        tightest = tightest.min(ub - score);
                    }
                }
            }
        }
        assert!(tightest < UB_SLACK + 1e-4, "a residual-aligned query must meet its bound");
        // What cannot be quantized cannot be bounded: never pruned.
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut q = unit(dim, &mut rng);
            q[7] = bad;
            let (codes, _) = codes_of(&q);
            assert!(seg.block_span(0).all(|row| seg.cosine_upper_bound(row, &codes) == 1.0));
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn quantize_rounds_exactly_as_f32_round_does() {
        // The codes of every sealed image — the golden one's included —
        // are `f32::round` of `x / scale`, clamped: the inline rounding must
        // reproduce it at halves, next to them, at zero and for NaN.
        let mut rng = Xoshiro256pp::new(18);
        for limit in [127, QueryCodes::code_limit(128)] {
            let top = limit as f32;
            let mut xs: Vec<f32> = vec![0.0, -0.0, 0.49999997, 0.5, 1.5, 2.5, top - 0.5, f32::NAN];
            for k in 0..limit.min(4096) {
                let half = k as f32 + 0.5;
                xs.extend([
                    half,
                    f32::from_bits(half.to_bits() + 1),
                    f32::from_bits(half.to_bits() - 1),
                ]);
            }
            xs.extend((0..20_000).map(|_| (rng.gen_u64() % 2_000_001) as f32 / 1e6 * top));
            xs.extend((0..20_000).map(|_| f32::from_bits(rng.gen_u64() as u32 & 0x3FFF_FFFF)));
            xs.retain(|x| x.is_nan() || x.abs() <= top);
            let signed: Vec<f32> = xs.iter().flat_map(|&x| [x, -x]).chain([top]).collect();
            let mut codes = Vec::new();
            // `top` is the largest magnitude: the scale is exactly 1.
            let (scale, _) = quantize(&signed, limit, |_, c| codes.push(c));
            assert_eq!(scale, 1.0);
            for (&x, &code) in signed.iter().zip(&codes) {
                assert_eq!(code, x.round().clamp(-top, top) as i32, "{x:e} at limit {limit}");
            }
        }
    }

    #[test]
    fn laned_bound_matches_the_strict_loop_and_stays_sound() {
        let mut rng = Xoshiro256pp::new(12);
        for dim in [1usize, 8, 32, 100, 128, 130, 517, 4096] {
            let limit = QueryCodes::code_limit(dim) as i64;
            assert!(limit * 127 * dim as i64 <= i32::MAX as i64, "dim {dim}: the overflow rule");
            for scale in [1e-3f32, 1.0, 1e3] {
                for near_duplicates in [false, true] {
                    let base = unit(dim, &mut rng);
                    let mut rows: Vec<Vec<f32>> = (0..8)
                        .map(|_| {
                            let v = unit(dim, &mut rng);
                            let mix = if near_duplicates { 1e-3 } else { 1.0 };
                            base.iter().zip(&v).map(|(b, x)| scale * (b + mix * (x - b))).collect()
                        })
                        .collect();
                    // Rows the sketch cannot resolve: all zero, and a norm
                    // (and so a scale) far below `f32::MIN_POSITIVE`.
                    rows.push(vec![0.0; dim]);
                    rows.push(base.iter().map(|b| b * 1e-20 * 1e-20).collect());
                    // Every code at its extreme, against a query whose
                    // codes are too: the largest sum the rule admits.
                    rows.push(vec![scale; dim]);
                    // Blocks of three: the slab, not the block, is what a
                    // row number indexes.
                    let seg = segment_of(&rows, 3);
                    let sketch_of = |r: usize| split_record(seg.record(r));
                    let extreme = sketch_of(rows.len() - 1).0;
                    assert!(extreme.iter().all(|&c| c == 127));
                    let mut queries = vec![vec![1.0f32; dim], vec![-1.0; dim]];
                    for qscale in [1e-30f32, 1e-3, 1.0, 1e3, 1e30] {
                        // Half the queries sit next to the rows, where the
                        // bound is tight; half are unrelated.
                        for near in [false, true] {
                            let mut q = unit(dim, &mut rng);
                            for (x, b) in q.iter_mut().zip(&base) {
                                *x = qscale * if near { b + 0.05 * *x } else { *x };
                            }
                            queries.push(q);
                        }
                    }
                    for (i, q) in queries.iter().enumerate() {
                        let (codes, qnorm) = codes_of(q);
                        if i < 2 {
                            let sum = code_dot(&codes.codes, extreme) as i64;
                            assert_eq!(sum.abs(), limit * 127 * dim as i64, "dim {dim}");
                        }
                        for (r, v) in rows.iter().enumerate() {
                            let (row_codes, .., norm) = sketch_of(r);
                            let strict: i64 = (codes.codes.iter().zip(row_codes))
                                .map(|(&q, &c)| q as i64 * c as i8 as i64)
                                .sum();
                            assert_eq!(code_dot(&codes.codes, row_codes) as i64, strict);
                            let ub = seg.cosine_upper_bound(r, &codes);
                            let score = score_row(q, qnorm, norm, v, 0, dim);
                            // An f32 dot that overflowed scores NaN, which
                            // no heap accepts: nothing to dominate.
                            assert!(
                                score.is_nan() || score <= ub,
                                "dim {dim} scale {scale} query {i} row {r}: {score} > {ub}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_slab_bound_is_the_formula_over_the_sealed_arrays_bit_for_bit() {
        // The bound as it reads on paper, from a row's sketch as the sealer
        // derives it — codes, scale and residual each in an array of its
        // own — against the one the search computes from the row's record.
        let formula = |q: &QueryCodes, v: &[f32], norm: f32| -> f64 {
            let row = SegmentRow {
                id: 0,
                signature: Signature { words: vec![0], bits: 64 },
                norm,
                vector: v.to_vec(),
            };
            let record = record_of(&row);
            let (codes, scale, residual, _) = split_record(&record);
            let denom = q.qnorm * norm;
            if denom <= f32::MIN_POSITIVE {
                return 1.0;
            }
            let dot: i64 =
                q.codes.iter().zip(codes).map(|(&a, &b)| a as i64 * b as i8 as i64).sum();
            let dot_ub = q.scale * scale as f64 * dot as f64
                + q.norm * residual as f64
                + q.residual * norm as f64;
            (dot_ub / denom as f64 + UB_SLACK).min(1.0)
        };
        let mut rng = Xoshiro256pp::new(15);
        let (mut trivial, mut proper) = (0usize, 0usize);
        for dim in [5usize, 32, 128] {
            let scaled = |v: Vec<f32>, by: f32| -> Vec<f32> { v.iter().map(|x| x * by).collect() };
            let mut rows: Vec<Vec<f32>> = (0..40)
                .map(|i| scaled(unit(dim, &mut rng), [1e-3, 1.0, 1.0, 1e3][i % 4]))
                .collect();
            // A zero norm, a denormal scale, every code saturated.
            rows.push(vec![0.0; dim]);
            rows.push(scaled(scaled(unit(dim, &mut rng), 1e-20), 1e-20));
            rows.push(vec![-0.5; dim]);
            let mut queries: Vec<Vec<f32>> = (0..24)
                .map(|i| scaled(unit(dim, &mut rng), [1e-30, 1e-3, 1.0, 1e3, 1e18, 1e30][i % 6]))
                .collect();
            queries.extend(rows.iter().step_by(5).cloned());
            for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                let mut q = unit(dim, &mut rng);
                q[dim / 2] = bad;
                queries.push(q);
            }
            for block_rows in [1usize, 3, 16, 64] {
                let seg = segment_of(&rows, block_rows);
                assert_eq!(seg.row_count(), rows.len());
                assert_eq!(seg.block_count(), rows.len().div_ceil(block_rows));
                for q in &queries {
                    let (codes, _) = codes_of(q);
                    for (n, v) in rows.iter().enumerate() {
                        assert_eq!(seg.block_of(n), n / block_rows);
                        let got = seg.cosine_upper_bound(n, &codes);
                        let want = formula(&codes, v, seg.norm(n));
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "dim {dim} row {n}: {got} {want}"
                        );
                        if got == 1.0 {
                            trivial += 1;
                        } else {
                            proper += 1;
                        }
                    }
                }
            }
        }
        assert!(trivial > 1_000 && proper > 10_000, "both kinds of row: {trivial} / {proper}");
    }

    #[test]
    fn a_sealed_image_is_exactly_the_size_reserved_for_it() {
        // One reservation per image: `seal` asks for `image_len` bytes up
        // front, and a `Vec` that had to grow would hold more than it uses.
        let dim = 24;
        for sig_bits in [64usize, 130] {
            let hasher = SimHasher::new(dim, sig_bits, 7);
            let mut rows = rows_for(dim, 150, 16);
            for row in &mut rows {
                row.signature = hasher.sign(&row.vector);
            }
            for block_rows in [1usize, 16, 64] {
                for sketches in [false, true] {
                    for (n, manifest) in [(0usize, &b""[..]), (1, b"abc"), (150, &[7u8; 1000])] {
                        let image =
                            image_of((dim, sig_bits, block_rows), sketches, manifest, &rows[..n]);
                        let reserved =
                            image_len(dim, sig_bits, block_rows, sketches, manifest.len(), n);
                        assert_eq!(
                            (image.len(), image.capacity()),
                            (reserved, reserved),
                            "{n} rows in {block_rows}-row blocks, sketches {sketches}"
                        );
                        let seg =
                            VectorSegment::from_bytes(image, BlockCache::new(0)).expect("open");
                        assert_eq!((seg.row_count(), seg.has_sketches()), (n, sketches));
                    }
                }
            }
        }
    }

    #[test]
    fn open_rejects_a_sketch_that_cannot_bound() {
        // The bound reads the sketch unchecked, so a short code array, or a
        // NaN or negative scale, residual or norm, must not get past `open`.
        let dim = 16;
        let honest = RawMeta::of_rows(&rows_for(dim, 4, 14));
        let path = temp_path("bad-sketch");
        let open = |block: &RawMeta| {
            let mut builder = SegmentBuilder::new(0);
            builder.push_block(&vec![0u8; 4 * dim * 4], &block.encode());
            let image = builder.finish(&[&header(dim as u32, 64, 4, FLAG_SKETCHES)]);
            atomic_file::write(&path, &image).expect("write");
            VectorSegment::open(&path, BlockCache::new(0))
        };
        open(&honest).expect("the hand-built directory is well-formed");
        let damage: [fn(&mut RawMeta); 7] = [
            |m| m.codes.truncate(1),
            |m| m.residuals.truncate(1),
            |m| m.scales[1] = f32::NAN,
            |m| m.scales[1] = -1.0,
            |m| m.residuals[2] = f32::INFINITY,
            |m| m.residuals[2] = -1e-3,
            |m| m.norms[0] = f32::NAN,
        ];
        for (case, damage) in damage.iter().enumerate() {
            let mut block = honest.clone();
            damage(&mut block);
            let err = open(&block).expect_err("must be refused");
            assert!(matches!(err, SegmentError::Corrupt(_)), "case {case}: {err}");
        }
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
        assert_eq!(cache.stats().len, 0);

        let by_id: FxHashMap<ItemId, &SegmentRow> = rows.iter().map(|r| (r.id, r)).collect();
        for b in 0..seg.block_count() {
            let data = seg.block(b).expect("read block");
            for (r, row) in seg.block_span(b).enumerate() {
                let want = by_id[&seg.ids()[row]];
                assert_eq!(&data[r * dim..(r + 1) * dim], want.vector.as_slice());
                assert_eq!(seg.norm(row), want.norm);
                assert_eq!(seg.signature_of(row), want.signature);
            }
        }
        assert!(cache.stats().len > 0);
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
                assert!(stats.len <= 2);
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
        assert_eq!(cache.stats().len, 4);
        assert_eq!(a.evict_from_cache(), 2);
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
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
        assert_eq!(cache.stats().len, 1, "sole block is pinned");
        seg.block(1).expect("read");
        let stats = cache.stats();
        assert_eq!(stats.len, 1, "admission displaced the previous block");
        assert_eq!(stats.evictions, 1);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn sealed_bytes_match_the_golden_segment() {
        // Hand-built rows, so the image depends on the writer alone. A
        // change here is an on-disk format change — the last one was PR 22
        // (segment format v3: the header carries a flags word and a
        // manifest, the sketches are an option of the file; this image has
        // them), which re-pinned the length and digest from the PR 16
        // writer's 744 / 0xC5201B27.
        let dim = 6;
        let rows: Vec<SegmentRow> = (0..10usize)
            .map(|i| {
                let vector: Vec<f32> =
                    (0..dim).map(|d| (i * dim + d) as f32 * 0.25 - 3.0).collect();
                SegmentRow {
                    id: (10 - i) as ItemId,
                    signature: Signature {
                        words: vec![(i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)],
                        bits: 64,
                    },
                    norm: kernel::norm_sq(&vector).sqrt(),
                    vector,
                }
            })
            .collect();
        let path = temp_path("golden");
        assert_eq!(write_vector_segment(&path, dim, 64, 4, rows).expect("seal"), 3);
        let image = std::fs::read(&path).expect("read image");
        assert_eq!(image.len(), 748);
        assert_eq!(wg_util::checksum::crc32(&image), 0xAA87_18E2);
        // And the image is a fixed point of load → save: hydrated into an
        // index of its geometry and sealed again with sketches.
        let segment = VectorSegment::open(&path, BlockCache::new(0)).expect("open");
        assert!(segment.has_sketches());
        let params = crate::LshParams { bands: 4, rows: 16 };
        let mut index = crate::SimHashLshIndex::new(dim, params, 1);
        assert_eq!(index.hydrate(&segment, Some).expect("hydrate"), 10);
        assert_eq!(index.seal(4, true, &[], |_| true).expect("seal"), image);
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
                            assert!(stats.len <= 2);
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
        assert_eq!((stats.len, stats.resident_bytes), (1, 32));
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
            assert_eq!(cache.stats().len, 0, "a damaged block must not be cached");
        }
        let intact = seg.block(1).expect("intact block still reads");
        assert_eq!(intact.len(), 8 * dim);
        assert_eq!(cache.stats().len, 1);
        // The scratch buffer the failed read used carries nothing over.
        assert_eq!(*seg.block(1).expect("hit"), *intact);
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn open_rejects_mismatched_geometry_blobs() {
        let open = |header: &[u8]| {
            let image = SegmentBuilder::new(0).finish(&[header]);
            VectorSegment::from_bytes(image, BlockCache::new(0))
        };
        open(&header(8, 64, 8, 0)).expect("an empty segment of sound geometry opens");
        // A zero dimension, width or block size; a flag this build does not
        // know; a header cut short.
        for bad in [header(0, 64, 8, 0), header(8, 0, 8, 0), header(8, 64, 0, 0)] {
            assert!(matches!(open(&bad), Err(SegmentError::Corrupt(_))));
        }
        assert!(matches!(open(&header(8, 64, 8, 2)), Err(SegmentError::Corrupt(_))));
        assert!(matches!(open(&header(8, 64, 8, 0)[..15]), Err(SegmentError::Corrupt(_))));
    }
}
