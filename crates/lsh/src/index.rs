//! The banded SimHash LSH index.
//!
//! Pipeline per query (paper Fig. 2): sign the query embedding, collect the
//! union of its band buckets (the "sub-universe" of §3.1.2), then re-rank
//! candidates by **exact cosine** against the stored vectors and keep the
//! top-k. Insertion and removal are incremental, which is what lets
//! WarpGate track CDWs with high update rates without rebuild storms.
//!
//! A bucket entry is a **row number**, not an id: the arena slot of a hot
//! row, or `COLD | n` for the `n`-th row of the paged tier, numbered in
//! `(segment, block, row)` order. The candidate set of a query is therefore
//! a bitset over row numbers in a per-thread scratch: marking an entry
//! dedups it, and one ascending scan hands out the hot rows in slab order
//! and the cold rows in block order — no sort, and no id → row hash probe,
//! anywhere between the buckets and the scores. Both tiers go through the
//! same gather, the same scan and the same heap; what differs is only how a
//! row's score is obtained (four slab rows per kernel pass; a cold row
//! bounded from its resident sketch first, and read only if it can still
//! reach the top-k).

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::Arc;
use wg_util::codec::{self, CodecError, CodecResult};
use wg_util::deadline::{Deadline, Phase};
use wg_util::kernel;
use wg_util::segment::SegmentError;
use wg_util::{FxHashMap, TopK};

use crate::arena::VectorArena;
use crate::paged::{self, QueryCodes, SealRow, SegmentRow, VectorSegment};
use crate::params::LshParams;
use crate::scope::DiscoverScope;
use crate::simhash::{band_key_of, Signature, SimHasher};
use crate::{item_backend, ItemId};

/// Diagnostics from one search.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Distinct in-scope candidates that came out of the band buckets.
    pub candidates: usize,
    /// How many survived the exclusion filter and were scored exactly
    /// (cold rows their bound pruned are never scored and do not count).
    pub scored: usize,
    /// Cold blocks whose payload was fetched for exact scoring.
    pub blocks_read: usize,
    /// Cold blocks skipped because the row bounds proved none of their
    /// candidate rows could reach the current top-k.
    pub blocks_pruned: usize,
}

/// Why a search under a [`Deadline`] returned no ranking.
#[derive(Debug)]
pub enum SearchError {
    /// The budget ran out at this phase boundary.
    Expired(Phase),
    /// A cold block could not be read back intact (I/O failure, or a
    /// payload that no longer matches its checksum).
    Storage(SegmentError),
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::Expired(phase) => write!(f, "deadline expired at {phase}"),
            SearchError::Storage(e) => write!(f, "paged tier: {e}"),
        }
    }
}

impl std::error::Error for SearchError {}

impl From<Phase> for SearchError {
    fn from(phase: Phase) -> Self {
        SearchError::Expired(phase)
    }
}

impl From<SegmentError> for SearchError {
    fn from(e: SegmentError) -> Self {
        SearchError::Storage(e)
    }
}

/// Where a cold row lives — segment slot, block, row-in-block — packed
/// into one `u64` (`seg | block | row`, most significant first), so rows
/// order by location with a single integer compare.
/// [`SimHashLshIndex::attach_segment_mapped`] refuses a segment that does
/// not fit the field widths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ColdLoc(u64);

impl ColdLoc {
    const ROW_BITS: u32 = 16;
    const BLOCK_BITS: u32 = 28;
    const SEG_BITS: u32 = 64 - Self::BLOCK_BITS - Self::ROW_BITS;

    fn new(seg: usize, block: usize, row: usize) -> ColdLoc {
        debug_assert!(seg >> Self::SEG_BITS == 0 && block >> Self::BLOCK_BITS == 0);
        debug_assert!(row >> Self::ROW_BITS == 0);
        let (seg, block, row) = (seg as u64, block as u64, row as u64);
        ColdLoc(seg << (Self::BLOCK_BITS + Self::ROW_BITS) | block << Self::ROW_BITS | row)
    }

    fn seg(self) -> usize {
        (self.0 >> (Self::BLOCK_BITS + Self::ROW_BITS)) as usize
    }

    fn block(self) -> usize {
        (self.0 >> Self::ROW_BITS) as usize & ((1 << Self::BLOCK_BITS) - 1)
    }

    fn row(self) -> usize {
        self.0 as usize & ((1 << Self::ROW_BITS) - 1)
    }

    /// True when both rows sit in the same block of the same segment.
    fn same_block(self, other: ColdLoc) -> bool {
        self.0 >> Self::ROW_BITS == other.0 >> Self::ROW_BITS
    }
}

/// Tag bit of a band-bucket entry that names a cold row: the entry is
/// `COLD | n` with `n` an index into [`ColdStore::rows`]. Without it the
/// entry is an arena slot.
const COLD: u32 = 1 << 31;

/// One block's candidate rows in a cold pass — `rows[start..end]` of the
/// scratch — under the largest of their bounds. Ordered so that the greatest
/// group is the block to visit next: the largest bound (never NaN), and
/// among equal bounds the first in `(segment, block)` order, which is the
/// smallest `start`. Starts are distinct, so the order is total and a heap
/// pops the groups exactly as a descending sort would list them.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BlockGroup {
    bound: f64,
    start: u32,
    end: u32,
}

impl Eq for BlockGroup {}

impl Ord for BlockGroup {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound.total_cmp(&other.bound).then(other.start.cmp(&self.start))
    }
}

impl PartialOrd for BlockGroup {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-thread buffers of one search, so a steady-state query allocates
/// nothing: the candidate bitset — one bit per arena slot, then one per
/// cold row; **all-zero between searches** — and the cold pass's candidate
/// rows, quantized query, row bounds (aligned with the rows) and block
/// groups.
#[derive(Default)]
struct SearchScratch {
    bits: Vec<u64>,
    rows: Vec<(ColdLoc, ItemId)>,
    query: QueryCodes,
    bounds: Vec<f64>,
    groups: Vec<BlockGroup>,
}

thread_local! {
    static SEARCH_SCRATCH: RefCell<SearchScratch> = RefCell::default();
}

/// Hand `visit` the index of every set bit of `words`, ascending, zeroing
/// each word as it is read.
#[inline]
fn drain_bits(words: &mut [u64], mut visit: impl FnMut(usize)) {
    for (w, word) in words.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            visit(w * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// The paged tier of one index: attached segments plus the cold row table.
/// Signatures and band entries for cold rows are resident metadata; only
/// vector payloads stay on disk.
#[derive(Default)]
struct ColdStore {
    /// Attached segments; a slot whose last live row died retires to `None`
    /// without renumbering the `ColdLoc.seg` indexes of the survivors.
    segments: Vec<Option<Arc<VectorSegment>>>,
    /// Live rows per segment slot (plus one while the slot is attaching).
    live: Vec<usize>,
    /// Every row ever attached, appended in `(seg, block, row)` order, so
    /// ascending row number *is* ascending location. A row that was removed
    /// or replaced stays as a dead entry no bucket and no locator row names.
    rows: Vec<(ColdLoc, ItemId)>,
    /// Id → row number of the live rows.
    locator: FxHashMap<ItemId, u32>,
}

impl ColdStore {
    /// The segment a location points into.
    fn segment(&self, loc: ColdLoc) -> &VectorSegment {
        self.segments[loc.seg()].as_ref().expect("a live row points at a live segment")
    }

    /// The live rows, in location order.
    fn live_rows(&self) -> impl Iterator<Item = (ColdLoc, ItemId)> + '_ {
        let live = |&(n, &(_, id)): &(usize, &(ColdLoc, ItemId))| {
            self.locator.get(&id).is_some_and(|&at| at as usize == n)
        };
        self.rows.iter().enumerate().filter(live).map(|(_, &row)| row)
    }

    /// Count one live row of segment slot `seg` out. The row that takes the
    /// count to zero retires the slot — cached blocks evicted, file closed
    /// with the last `Arc`. True when that left the tier without a segment.
    fn release(&mut self, seg: usize) -> bool {
        self.live[seg] -= 1;
        if self.live[seg] > 0 {
            return false;
        }
        if let Some(segment) = self.segments[seg].take() {
            segment.evict_from_cache();
        }
        self.segments.iter().all(Option::is_none)
    }
}

/// An LSH index over unit vectors keyed by [`ItemId`].
pub struct SimHashLshIndex {
    /// Shareable with a caller that signs outside this index's lock (see
    /// [`Self::with_hasher`]): the planes are a function of
    /// `(dim, bits, seed)` alone.
    hasher: Arc<SimHasher>,
    params: LshParams,
    /// Extra single-bit-flip probes per band (0 = plain LSH).
    probes: usize,
    /// Stored vectors in one contiguous slab; exact re-ranking streams
    /// this in slot order.
    vectors: VectorArena,
    /// Packed signature words of the hot rows, `words_per_sig` per arena
    /// slot (stale for free slots) — needed for removal and persistence.
    /// A cold row's words are resident in its segment's directory.
    hot_sigs: Vec<u64>,
    /// One bucket map per band: band key -> row numbers (an arena slot, or
    /// `COLD | n`). Every entry names a live row.
    bands: Vec<FxHashMap<u64, Vec<u32>>>,
    /// Paged tier, present while a segment with live rows is attached.
    cold: Option<ColdStore>,
}

/// Push row number `entry` into the band buckets of its signature `words`.
fn bucket(bands: &mut [FxHashMap<u64, Vec<u32>>], rows: usize, entry: u32, words: &[u64]) {
    for (band, buckets) in bands.iter_mut().enumerate() {
        buckets.entry(band_key_of(words, band, rows)).or_default().push(entry);
    }
}

/// Drop row number `entry` from the band buckets its signature `words` put
/// it in.
fn unbucket(bands: &mut [FxHashMap<u64, Vec<u32>>], rows: usize, entry: u32, words: &[u64]) {
    for (band, buckets) in bands.iter_mut().enumerate() {
        let key = band_key_of(words, band, rows);
        if let Some(entries) = buckets.get_mut(&key) {
            entries.retain(|&x| x != entry);
            if entries.is_empty() {
                buckets.remove(&key);
            }
        }
    }
}

/// The exact cosine from a kernel dot and the two stored norms — the one
/// place a score is finished, so hot and cold rows agree bit for bit.
#[inline]
fn cosine_of(dot: f32, qnorm: f32, norm: f32) -> f32 {
    let denom = qnorm * norm;
    if denom <= f32::MIN_POSITIVE {
        return 0.0;
    }
    (dot / denom).clamp(-1.0, 1.0)
}

/// Exact cosine of the query against row `row` of a paged block: the same
/// kernel dot (to which the hot pass's `dot4` is bit-equal), the same
/// stored norm and the same [`cosine_of`] as a hot row.
#[inline]
pub(crate) fn score_row(
    query: &[f32],
    qnorm: f32,
    norm: f32,
    data: &[f32],
    row: usize,
    dim: usize,
) -> f64 {
    cosine_of(kernel::dot(query, &data[row * dim..(row + 1) * dim]), qnorm, norm) as f64
}

/// A finished heap as the public `(id, cosine)` ranking, best first.
fn ranking(topk: TopK<ItemId>) -> Vec<(ItemId, f32)> {
    topk.into_sorted().into_iter().map(|(s, id)| (id, s as f32)).collect()
}

impl SimHashLshIndex {
    /// Create an index for `dim`-dimensional vectors.
    pub fn new(dim: usize, params: LshParams, seed: u64) -> Self {
        Self::with_hasher(Arc::new(SimHasher::new(dim, params.bits(), seed)), params)
    }

    /// An index signing with `hasher` — the caller keeps a clone of the
    /// pointer to sign queries and rows before it takes the index's lock
    /// ([`Self::insert_signed`], [`Self::search_signed_scoped_with_outcome`]). The
    /// hasher's width must be `params.bits()`.
    pub fn with_hasher(hasher: Arc<SimHasher>, params: LshParams) -> Self {
        assert!(params.rows <= 64, "rows per band must fit a u64");
        assert_eq!(hasher.bits(), params.bits(), "hasher width must match the banding");
        Self {
            params,
            probes: 0,
            vectors: VectorArena::new(hasher.dim()),
            hot_sigs: Vec::new(),
            bands: (0..params.bands).map(|_| FxHashMap::default()).collect(),
            cold: None,
            hasher,
        }
    }

    /// Index tuned for the paper's setting: cosine threshold 0.7, 128-bit
    /// budget.
    pub fn for_threshold(dim: usize, threshold: f64, seed: u64) -> Self {
        Self::new(dim, LshParams::for_threshold(threshold, 128), seed)
    }

    /// Enable multi-probe: additionally probe every single-bit flip of each
    /// band key (`probes` is capped at `rows`). Raises recall near the
    /// threshold at the cost of more candidates.
    pub fn set_probes(&mut self, probes: usize) {
        self.probes = probes.min(self.params.rows);
    }

    /// Geometry in use.
    pub fn params(&self) -> LshParams {
        self.params
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.hasher.dim()
    }

    /// The hyperplane seed (see [`SimHasher::seed`]).
    pub fn seed(&self) -> u64 {
        self.hasher.seed()
    }

    /// Extra single-bit probes per band currently enabled.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// The signature generator.
    pub fn hasher(&self) -> &SimHasher {
        &self.hasher
    }

    /// Number of stored items, hot and cold (an id lives in one tier).
    pub fn len(&self) -> usize {
        self.vectors.len() + self.cold_len()
    }

    /// True when no items are stored in either tier.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of items served from the paged tier.
    pub fn cold_len(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.locator.len())
    }

    /// True when `id` is stored, in either tier.
    pub fn contains(&self, id: ItemId) -> bool {
        self.vectors.slot(id).is_some()
            || self.cold.as_ref().is_some_and(|c| c.locator.contains_key(&id))
    }

    /// Number of live (non-retired) attached segments.
    pub fn cold_segment_count(&self) -> usize {
        self.cold.as_ref().map_or(0, |c| c.segments.iter().flatten().count())
    }

    /// Insert (or replace) an item. Zero vectors are rejected — they carry
    /// no signal and would collide with everything on the sign boundary.
    /// Returns false if the vector was zero or of the wrong dimension.
    pub fn insert(&mut self, id: ItemId, vector: &[f32]) -> bool {
        if vector.len() != self.dim() || vector.iter().all(|&x| x == 0.0) {
            return false;
        }
        let sig = self.hasher.sign(vector);
        self.insert_signed(id, vector, sig);
        true
    }

    /// Insert with a precomputed signature (must come from a hasher with
    /// this index's geometry and seed). Lets callers compute the expensive
    /// projection outside the index's lock; the remaining work is bucket
    /// pushes and map inserts. The vector must already be validated
    /// (non-zero, right dimension).
    pub fn insert_signed(&mut self, id: ItemId, vector: &[f32], sig: Signature) {
        debug_assert_eq!(vector.len(), self.dim());
        debug_assert_eq!(sig.bits, self.params.bits());
        self.insert_row(id, &sig.words, |slot| slot.copy_from_slice(vector));
    }

    /// Insert (or replace) a hot row from its packed signature `words` and
    /// a `fill` that writes the vector straight into its arena slot — how a
    /// hydrating load installs a row it decodes from a block: bucketed from
    /// the signature the build derived, nothing re-projected.
    fn insert_row(&mut self, id: ItemId, words: &[u64], fill: impl FnOnce(&mut [f32])) {
        debug_assert_eq!(words.len(), self.words_per_sig());
        self.remove(id);
        let filled = self.vectors.insert_with(id, |slot| {
            fill(slot);
            Ok(())
        });
        let slot = filled.unwrap_or_else(|never: std::convert::Infallible| match never {});
        assert!(slot < COLD, "arena slot {slot} collides with the cold tag bit");
        let range = self.sig_range(slot);
        if self.hot_sigs.len() < range.end {
            self.hot_sigs.resize(range.end, 0);
        }
        self.hot_sigs[range].copy_from_slice(words);
        bucket(&mut self.bands, self.params.rows, slot, words);
    }

    /// `u64` words per packed signature.
    fn words_per_sig(&self) -> usize {
        self.params.bits().div_ceil(64)
    }

    /// Where arena slot `slot`'s signature sits in the slab.
    fn sig_range(&self, slot: u32) -> std::ops::Range<usize> {
        let words = self.words_per_sig();
        slot as usize * words..(slot as usize + 1) * words
    }

    /// The packed signature of the hot row in arena slot `slot`.
    fn hot_sig(&self, slot: u32) -> &[u64] {
        &self.hot_sigs[self.sig_range(slot)]
    }

    /// Remove an item (from either tier); true if it was present. A row
    /// leaves its buckets **before** its row number can be reused: no
    /// entry ever outlives the row it names. Removing a cold item leaves
    /// its on-disk row as unreachable dead weight until the next seal; the
    /// removal that empties a segment retires it (its cached blocks are
    /// evicted with it), and the one that empties the tier drops the tier.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let rows = self.params.rows;
        if let Some(slot) = self.vectors.slot(id) {
            let range = self.sig_range(slot);
            unbucket(&mut self.bands, rows, slot, &self.hot_sigs[range]);
            self.vectors.remove(id);
            return true;
        }
        let Some(cold) = &mut self.cold else {
            return false;
        };
        let Some(n) = cold.locator.remove(&id) else {
            return false;
        };
        let loc = cold.rows[n as usize].0;
        let words = cold.segment(loc).sig_words_of(loc.block(), loc.row());
        unbucket(&mut self.bands, rows, COLD | n, words);
        if cold.release(loc.seg()) {
            self.cold = None;
        }
        true
    }

    /// Drop one backend's **cold** items only: their band entries and
    /// locator rows go, and emptied segments retire with their
    /// cache-resident blocks. Hot (arena-resident) items of the backend are
    /// untouched. Returns how many cold items were dropped.
    pub fn drop_cold_backend(&mut self, backend_bits: u16) -> usize {
        let Some(cold) = &self.cold else {
            return 0;
        };
        let doomed: Vec<ItemId> =
            cold.locator.keys().copied().filter(|&id| item_backend(id) == backend_bits).collect();
        doomed.into_iter().filter(|&id| self.remove(id)).count()
    }

    /// That `segment` was sealed under this index's dimension and
    /// signature width — what attaching it and hydrating from it both need.
    fn fits(&self, segment: &VectorSegment) -> CodecResult<()> {
        if segment.dim() != self.dim() {
            return Err(CodecError::Invalid(format!(
                "segment dim {} does not match index dim {}",
                segment.dim(),
                self.dim()
            )));
        }
        if segment.sig_bits() != self.params.bits() {
            return Err(CodecError::Invalid(format!(
                "segment signature width {} does not match index width {}",
                segment.sig_bits(),
                self.params.bits()
            )));
        }
        Ok(())
    }

    /// Attach a sealed segment to the paged tier: every row `map` keeps is
    /// indexed into the band buckets from its **resident** signature (no
    /// payload read — hydration stays lazy) and becomes searchable, served
    /// from disk through the block cache. Rows replace any same-id item
    /// already stored (newest attach wins). Returns how many rows were
    /// attached.
    ///
    /// `map` returns the id a row is installed under (or `None` to skip
    /// it). Rows are located by position, never by stored id, so a loader
    /// whose backend-name interner assigned different bits than the sealing
    /// process can recompose ids without rewriting the segment file.
    pub fn attach_segment_mapped(
        &mut self,
        segment: Arc<VectorSegment>,
        map: impl Fn(ItemId) -> Option<ItemId>,
    ) -> CodecResult<usize> {
        self.fits(&segment)?;
        if !segment.has_sketches() {
            return Err(CodecError::Invalid(
                "segment carries no row sketches: it can be hydrated from, not attached".into(),
            ));
        }
        let (seg_slot, cold_rows) =
            self.cold.as_ref().map_or((0, 0), |c| (c.segments.len(), c.rows.len()));
        let widest = (0..segment.block_count()).map(|b| segment.rows(b).ids.len()).max();
        if seg_slot >> ColdLoc::SEG_BITS != 0
            || segment.block_count() > 1 << ColdLoc::BLOCK_BITS
            || widest.is_some_and(|rows| rows > 1 << ColdLoc::ROW_BITS)
        {
            return Err(CodecError::Invalid(format!(
                "segment does not fit the cold locator: slot {seg_slot}, {} blocks, widest block \
                 {} rows (limits 2^{}, 2^{}, 2^{})",
                segment.block_count(),
                widest.unwrap_or(0),
                ColdLoc::SEG_BITS,
                ColdLoc::BLOCK_BITS,
                ColdLoc::ROW_BITS
            )));
        }
        if cold_rows + segment.row_count() > COLD as usize {
            return Err(CodecError::Invalid(format!(
                "segment of {} rows would number the cold tier past 2^31 rows ({cold_rows} \
                 already attached)",
                segment.row_count()
            )));
        }
        let cold = self.cold.get_or_insert_with(ColdStore::default);
        cold.segments.push(Some(segment.clone()));
        // Counted once for the attach itself: replacing older rows below
        // may retire their segments, never this one or the tier.
        cold.live.push(1);
        let mut attached = 0usize;
        for block in 0..segment.block_count() {
            let rows = segment.rows(block);
            for (row, &stored) in rows.ids.iter().enumerate() {
                let Some(id) = map(stored) else {
                    continue;
                };
                self.remove(id);
                let cold = self.cold.as_mut().expect("the attaching segment holds the tier");
                let n = cold.rows.len() as u32;
                cold.rows.push((ColdLoc::new(seg_slot, block, row), id));
                cold.locator.insert(id, n);
                cold.live[seg_slot] += 1;
                bucket(&mut self.bands, self.params.rows, COLD | n, rows.sig_words(row));
                attached += 1;
            }
        }
        // Nothing admitted retires the slot on the spot.
        if self.cold.as_mut().expect("the attaching segment holds the tier").release(seg_slot) {
            self.cold = None;
        }
        Ok(attached)
    }

    /// Hydrate from a sealed segment: every block is read once with a
    /// positioned read, CRC-checked, and each row `map` keeps (under the id
    /// it returns, as in [`Self::attach_segment_mapped`]) is decoded
    /// straight into its arena slot and bucketed from its stored signature
    /// words. Nothing pages afterwards: the rows are hot, and the segment
    /// can be dropped. Returns how many rows were installed; on an error the
    /// index holds the blocks read so far, so hydrate an index nothing else
    /// sees yet.
    pub fn hydrate(
        &mut self,
        segment: &VectorSegment,
        map: impl Fn(ItemId) -> Option<ItemId>,
    ) -> Result<usize, SegmentError> {
        self.fits(segment)?;
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
                self.insert_row(id, rows.sig_words(row), |slot| {
                    codec::get_f32s(&mut &raw[..], slot).expect("a row's bytes fill its slot");
                });
                installed += 1;
            }
        }
        Ok(installed)
    }

    /// Seal every row `admit` keeps into one segment image (layout at
    /// `paged::seal_image`) whose header carries `manifest`. Rows are read
    /// **in place** — hot ones from the arena and signature slab, cold ones
    /// from their blocks, fetched through the cache — and laid out in
    /// (signature, id) order, so the bytes depend neither on which tier a
    /// row sits in nor on insertion history. A cold block that does not
    /// read back intact is the error: nothing is sealed around a hole.
    pub fn seal(
        &self,
        block_rows: usize,
        sketches: bool,
        manifest: &[u8],
        admit: impl Fn(ItemId) -> bool,
    ) -> Result<Vec<u8>, SegmentError> {
        let cold = self.cold_blocks()?;
        let mut rows = Vec::with_capacity(self.len());
        self.rows_in_place(&cold, admit, &mut rows);
        let (dim, bits) = (self.dim(), self.params.bits());
        Ok(paged::seal_image(dim, bits, block_rows, sketches, manifest, &mut rows))
    }

    /// The stored vector for an id, if **hot** (arena-resident). Cold
    /// items return `None` here; use [`Self::vector_owned`] to read
    /// through the paged tier.
    pub fn vector(&self, id: ItemId) -> Option<&[f32]> {
        self.vectors.get(id)
    }

    /// The stored vector for an id from either tier, cloned. Cold reads go
    /// through the block cache; a segment-level I/O failure here panics
    /// (segments were validated at open — losing one mid-flight is an
    /// environment failure the index cannot recover from).
    pub fn vector_owned(&self, id: ItemId) -> Option<Vec<f32>> {
        if let Some(v) = self.vectors.get(id) {
            return Some(v.to_vec());
        }
        let cold = self.cold.as_ref()?;
        let loc = cold.rows[*cold.locator.get(&id)? as usize].0;
        let data = cold
            .segment(loc)
            .block(loc.block())
            .unwrap_or_else(|e| panic!("paged tier lost a sealed block: {e}"));
        let dim = self.dim();
        let start = loc.row() * dim;
        Some(data[start..start + dim].to_vec())
    }

    /// The live cold rows grouped by block, in location order.
    fn cold_groups(&self) -> Vec<Vec<(ColdLoc, ItemId)>> {
        let rows: Vec<(ColdLoc, ItemId)> =
            self.cold.iter().flat_map(|cold| cold.live_rows()).collect();
        rows.chunk_by(|a, b| a.0.same_block(b.0)).map(<[_]>::to_vec).collect()
    }

    /// The blocks holding this index's live cold rows, in location order,
    /// each fetched once through the cache — the first half of reading the
    /// rows in place: [`Self::rows_in_place`] borrows the vectors out of
    /// what this returns.
    fn cold_blocks(&self) -> Result<Vec<Arc<Vec<f32>>>, SegmentError> {
        let fetch = |group: Vec<(ColdLoc, ItemId)>| {
            let first = group[0].0;
            self.cold_segment(first).block(first.block())
        };
        self.cold_groups().into_iter().map(fetch).collect()
    }

    /// The attached segment a cold location points into.
    fn cold_segment(&self, loc: ColdLoc) -> &VectorSegment {
        self.cold.as_ref().expect("a cold location implies a cold store").segment(loc)
    }

    /// Append every stored row `admit` keeps to `out`, borrowed where it
    /// lives: hot rows from the arena and the signature slab in slot order,
    /// then cold rows from `cold_blocks` (what [`Self::cold_blocks`]
    /// returned under the same borrow of `self`) and their segments'
    /// directories.
    fn rows_in_place<'a>(
        &'a self,
        cold_blocks: &'a [Arc<Vec<f32>>],
        admit: impl Fn(ItemId) -> bool,
        out: &mut Vec<SealRow<'a>>,
    ) {
        let dim = self.dim();
        for slot in 0..self.vectors.slot_count() as u32 {
            if let Some(id) = self.vectors.id_at(slot).filter(|&id| admit(id)) {
                out.push(SealRow {
                    id,
                    words: self.hot_sig(slot),
                    norm: self.vectors.norm_at(slot),
                    vector: self.vectors.vector_at(slot),
                });
            }
        }
        let groups = self.cold_groups();
        assert_eq!(groups.len(), cold_blocks.len(), "one fetched block per block of live rows");
        for (group, data) in groups.iter().zip(cold_blocks) {
            for &(loc, id) in group.iter().filter(|&&(_, id)| admit(id)) {
                let rows = self.cold_segment(loc).rows(loc.block());
                out.push(SealRow {
                    id,
                    words: rows.sig_words(loc.row()),
                    norm: rows.norm(loc.row()),
                    vector: &data[loc.row() * dim..(loc.row() + 1) * dim],
                });
            }
        }
    }

    /// Export every stored row (hot and cold) with its signature and norm,
    /// ready for [`crate::paged::write_vector_segment`]. Cold rows read
    /// through the cache; panics on segment I/O failure like
    /// [`Self::vector_owned`].
    pub fn export_rows(&self) -> Vec<SegmentRow> {
        let bits = self.params.bits();
        let blocks =
            self.cold_blocks().unwrap_or_else(|e| panic!("paged tier lost a sealed block: {e}"));
        let mut rows = Vec::with_capacity(self.len());
        self.rows_in_place(&blocks, |_| true, &mut rows);
        rows.into_iter()
            .map(|r| SegmentRow {
                id: r.id,
                signature: Signature { words: r.words.to_vec(), bits },
                norm: r.norm,
                vector: r.vector.to_vec(),
            })
            .collect()
    }

    /// Collect the candidate set for a query vector (union of band buckets,
    /// plus multi-probe flips when enabled). Returns ids sorted ascending.
    pub fn candidates(&self, query: &[f32]) -> Vec<ItemId> {
        let mut out = Vec::new();
        self.candidates_signed_into(&self.hasher.sign(query), &mut out);
        out
    }

    /// [`Self::candidates`] from a precomputed signature (must come from a
    /// hasher with this index's geometry and seed), into a caller-provided
    /// buffer (cleared first). A diagnostic: the search path never
    /// materializes ids — it marks the same bucket entries in a bitset — so
    /// this maps every raw entry to its id, then sorts and dedups in place.
    pub fn candidates_signed_into(&self, sig: &Signature, out: &mut Vec<ItemId>) {
        out.clear();
        self.for_each_bucket(sig, |entries| {
            out.extend(entries.iter().map(|&entry| {
                match entry & COLD {
                    0 => self.vectors.id_at(entry).expect("a bucketed slot is live"),
                    _ => {
                        self.cold.as_ref().expect("a cold entry implies a cold store").rows
                            [(entry & !COLD) as usize]
                            .1
                    }
                }
            }));
        });
        out.sort_unstable();
        out.dedup();
    }

    /// Hand `visit` every bucket the signature selects: one per band, plus
    /// the single-bit flips of its key when multi-probe is on. A row sits
    /// in several of them; the visitor dedups.
    #[inline]
    fn for_each_bucket(&self, sig: &Signature, mut visit: impl FnMut(&[u32])) {
        for (band, buckets) in self.bands.iter().enumerate() {
            let key = sig.band_key(band, self.params.rows);
            if let Some(entries) = buckets.get(&key) {
                visit(entries);
            }
            for flip in 0..self.probes {
                if let Some(entries) = buckets.get(&(key ^ (1u64 << flip))) {
                    visit(entries);
                }
            }
        }
    }

    /// Top-k search: LSH candidate generation then exact cosine re-rank.
    /// `exclude` filters candidates (e.g. drop the query column itself and
    /// its table-mates). Results are `(id, cosine)` in descending cosine.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Vec<(ItemId, f32)> {
        let sig = self.hasher.sign(query);
        self.search_signed_scoped_with_outcome(query, &sig, k, &DiscoverScope::All, exclude).0
    }

    /// [`Self::search`] from a precomputed signature, so a caller can sign
    /// before it takes the index's lock, restricted to a backend scope and
    /// with candidate-set diagnostics. Both filters run once per distinct
    /// candidate row, before any scoring: the scope first (out-of-scope
    /// rows are not candidates), then `exclude` (arbitrary caller
    /// predicate, e.g. same-table suppression).
    pub fn search_signed_scoped_with_outcome(
        &self,
        query: &[f32],
        sig: &Signature,
        k: usize,
        scope: &DiscoverScope,
        exclude: impl Fn(ItemId) -> bool,
    ) -> (Vec<(ItemId, f32)>, SearchOutcome) {
        self.search_signed_scoped_deadline_with_outcome(
            query,
            sig,
            k,
            scope,
            Deadline::none(),
            exclude,
        )
        .unwrap_or_else(|e| panic!("search without a deadline failed: {e}"))
    }

    /// [`Self::search_signed_scoped_with_outcome`] under a cooperative
    /// [`Deadline`]: the budget is checked before candidate generation,
    /// before the exact re-rank, and before *every cold block read* — an
    /// expired request stops without fetching another block from the
    /// paged tier. [`SearchError::Expired`] names the boundary the budget
    /// died at; [`SearchError::Storage`] carries a cold block that could
    /// not be read back intact (it was not cached, and nothing else was
    /// disturbed: the next search reads what it needs afresh).
    pub fn search_signed_scoped_deadline_with_outcome(
        &self,
        query: &[f32],
        sig: &Signature,
        k: usize,
        scope: &DiscoverScope,
        deadline: Deadline,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Result<(Vec<(ItemId, f32)>, SearchOutcome), SearchError> {
        deadline.check(Phase::CandidateGen)?;
        // Taken, not borrowed: if `exclude` unwinds mid-scan the marked
        // bitset is dropped with the stack, never seen by the next search.
        let mut scratch = SEARCH_SCRATCH.take();
        let found = self.search_with(&mut scratch, query, sig, k, scope, deadline, exclude);
        SEARCH_SCRATCH.set(scratch);
        found
    }

    /// The search itself, in `scratch`: one hot pass, then one cold pass,
    /// over one heap.
    ///
    /// Gather: every entry of the signature's buckets sets one bit of the
    /// per-thread bitset (hot slots first, cold row numbers after them).
    /// Scan: ascending over the words, clearing each as it is read, so the
    /// scratch is all-zero again on every way out. A set bit is a distinct
    /// candidate row; `scope` and `exclude` see it once. Hot rows come out
    /// in slab order and are scored four per kernel pass; cold rows come
    /// out in `(segment, block, row)` order, ready to group by block.
    #[allow(clippy::too_many_arguments)]
    fn search_with(
        &self,
        scratch: &mut SearchScratch,
        query: &[f32],
        sig: &Signature,
        k: usize,
        scope: &DiscoverScope,
        deadline: Deadline,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Result<(Vec<(ItemId, f32)>, SearchOutcome), SearchError> {
        let hot_words = self.vectors.slot_count().div_ceil(64);
        let words = hot_words + self.cold.as_ref().map_or(0, |c| c.rows.len().div_ceil(64));
        if scratch.bits.len() < words {
            scratch.bits.resize(words, 0);
        }
        let bits = &mut scratch.bits[..words];
        let cold_base = hot_words * 64;
        self.for_each_bucket(sig, |entries| {
            for &entry in entries {
                let bit = match entry & COLD {
                    0 => entry as usize,
                    _ => cold_base + (entry & !COLD) as usize,
                };
                bits[bit >> 6] |= 1 << (bit & 63);
            }
        });
        if let Err(phase) = deadline.check(Phase::Rerank) {
            bits.fill(0);
            return Err(phase.into());
        }

        let qnorm = kernel::norm_sq(query).sqrt();
        let (hot_bits, cold_bits) = bits.split_at_mut(hot_words);
        // One verdict per distinct candidate row: out of scope it is not a
        // candidate at all; excluded, it is counted and never scored.
        let mut candidates = 0usize;
        let mut scorable = |id: ItemId| {
            if !scope.admits(id) {
                return false;
            }
            candidates += 1;
            !exclude(id)
        };
        // Hot pass first: the arena streams in slot order, and a full heap
        // raises the threshold before any cold block is considered.
        let mut topk = TopK::new(k);
        let mut batch = [(0u32, 0 as ItemId); 4];
        let (mut filled, mut scored) = (0usize, 0usize);
        drain_bits(hot_bits, |slot| {
            let slot = slot as u32;
            let id = self.vectors.id_at(slot).expect("a bucketed slot is live");
            if !scorable(id) {
                return;
            }
            batch[filled] = (slot, id);
            filled += 1;
            if filled == batch.len() {
                let dots = kernel::dot4(query, batch.map(|(slot, _)| self.vectors.vector_at(slot)));
                for (&(slot, id), dot) in batch.iter().zip(dots) {
                    topk.push(cosine_of(dot, qnorm, self.vectors.norm_at(slot)) as f64, id);
                }
                scored += filled;
                filled = 0;
            }
        });
        for &(slot, id) in &batch[..filled] {
            topk.push(self.score_slot(query, qnorm, slot) as f64, id);
        }
        scored += filled;

        scratch.rows.clear();
        if let Some(cold) = &self.cold {
            drain_bits(cold_bits, |n| {
                let (loc, id) = cold.rows[n];
                if scorable(id) {
                    scratch.rows.push((loc, id));
                }
            });
        }
        let (blocks_read, blocks_pruned, cold_scored) =
            self.score_cold_rows(query, qnorm, scratch, deadline, &mut topk)?;
        let scored = scored + cold_scored;
        Ok((ranking(topk), SearchOutcome { candidates, scored, blocks_read, blocks_pruned }))
    }

    /// Cold pass of the exact re-rank: bound every candidate row from its
    /// resident record, group the rows by block, visit blocks in descending
    /// largest-row-bound (the rows most likely to score high fill the heap
    /// first, raising the threshold for the rest), stop at the first block
    /// whose bound falls strictly below a *full* heap's threshold, and
    /// inside a fetched block score only the rows whose own bound still
    /// reaches it. Returns `(blocks read, blocks pruned, rows scored)`.
    ///
    /// A pass visits a handful of its hundreds of groups, so the order is
    /// not computed: the groups a heap arriving full does not already rule
    /// out are heapified (linear) and the next-best block is popped while
    /// the threshold admits it — the visits a full descending sort would
    /// make, in the same order (see [`BlockGroup`]).
    ///
    /// Correctness of the skip: a row's bound dominates its exact f32 score
    /// (see [`crate::paged::BlockRows::cosine_upper_bound`]) and the heap
    /// threshold only rises, so every skipped row scores strictly below
    /// the final k-th result — the returned top-k is bit-identical to
    /// scoring everything, by [`TopK`]'s push-order independence.
    fn score_cold_rows(
        &self,
        query: &[f32],
        qnorm: f32,
        scratch: &mut SearchScratch,
        deadline: Deadline,
        topk: &mut TopK<ItemId>,
    ) -> Result<(usize, usize, usize), SearchError> {
        let SearchScratch { rows, query: codes, bounds, groups, .. } = scratch;
        if rows.is_empty() {
            return Ok((0, 0, 0));
        }
        let cold = self.cold.as_ref().expect("cold candidates imply a cold store");
        let dim = self.dim();
        codes.set(query, qnorm);
        // Group boundaries over the rows — the scan handed them out in
        // (seg, block, row) order — with every row's bound and the largest
        // of each group.
        bounds.clear();
        groups.clear();
        // A heap the hot pass filled already rules out every group under
        // its threshold: those are counted and never enter the heap — the
        // threshold only rises, so no visit could have reached them.
        let entering = topk.threshold();
        let mut total = 0usize;
        let mut start = 0usize;
        while start < rows.len() {
            let first = rows[start].0;
            let meta = cold.segment(first).rows(first.block());
            let mut end = start;
            let mut bound = f64::NEG_INFINITY;
            while end < rows.len() && rows[end].0.same_block(first) {
                let ub = meta.cosine_upper_bound(rows[end].0.row(), codes);
                bounds.push(ub);
                bound = bound.max(ub);
                end += 1;
            }
            total += 1;
            if !entering.is_some_and(|threshold| bound < threshold) {
                groups.push(BlockGroup { bound, start: start as u32, end: end as u32 });
            }
            start = end;
        }
        // The buffer goes back to the scratch below; a pass that dies on its
        // way there (deadline, storage) leaves it to the next to regrow.
        let mut heap = BinaryHeap::from(std::mem::take(groups));

        let (mut blocks_read, mut scored) = (0usize, 0usize);
        while let Some(group) = heap.pop() {
            // Bounds come out descending and the threshold only rises: once
            // one block is out, so is every block still in the heap.
            if topk.threshold().is_some_and(|threshold| group.bound < threshold) {
                break;
            }
            // The budget check sits directly in front of the block fetch:
            // a cold read is the most expensive step a query can take, so
            // an expired request never starts another one.
            deadline.check(Phase::BlockRead)?;
            let (start, end) = (group.start as usize, group.end as usize);
            let first = rows[start].0;
            let seg = cold.segment(first);
            let meta = seg.rows(first.block());
            let data = seg.block(first.block())?;
            blocks_read += 1;
            for (&(loc, id), &ub) in rows[start..end].iter().zip(&bounds[start..end]) {
                if topk.threshold().is_some_and(|threshold| ub < threshold) {
                    continue;
                }
                topk.push(score_row(query, qnorm, meta.norm(loc.row()), &data, loc.row(), dim), id);
                scored += 1;
            }
        }
        *groups = heap.into_vec();
        Ok((blocks_read, total - blocks_read, scored))
    }

    /// Exact search over *all* stored vectors (ignores the LSH buckets) —
    /// the ANN-quality reference used in ablations. Streams the arena in
    /// slot order.
    pub fn search_exact(
        &self,
        query: &[f32],
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Vec<(ItemId, f32)> {
        let qnorm = kernel::norm_sq(query).sqrt();
        let mut topk = TopK::new(k);
        for slot in 0..self.vectors.slot_count() as u32 {
            let Some(id) = self.vectors.id_at(slot) else {
                continue;
            };
            if exclude(id) {
                continue;
            }
            topk.push(self.score_slot(query, qnorm, slot) as f64, id);
        }
        if let Some(cold) = &self.cold {
            // The reference baseline must not prune: score every live cold
            // row through the cache, block by block.
            let rows: Vec<(ColdLoc, ItemId)> =
                cold.live_rows().filter(|&(_, id)| !exclude(id)).collect();
            let dim = self.dim();
            for group in rows.chunk_by(|a, b| a.0.same_block(b.0)) {
                let first = group[0].0;
                let seg = cold.segment(first);
                let meta = seg.rows(first.block());
                let data = seg
                    .block(first.block())
                    .unwrap_or_else(|e| panic!("paged tier lost a sealed block: {e}"));
                for &(loc, id) in group {
                    topk.push(
                        score_row(query, qnorm, meta.norm(loc.row()), &data, loc.row(), dim),
                        id,
                    );
                }
            }
        }
        ranking(topk)
    }

    /// Exact cosine of the query against one arena slot: a single kernel
    /// dot over contiguous memory, divided by the precomputed norms.
    #[inline]
    fn score_slot(&self, query: &[f32], qnorm: f32, slot: u32) -> f32 {
        cosine_of(
            kernel::dot(query, self.vectors.vector_at(slot)),
            qnorm,
            self.vectors.norm_at(slot),
        )
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

    fn perturb(v: &[f32], noise: f32, rng: &mut Xoshiro256pp) -> Vec<f32> {
        let mut out: Vec<f32> = v.iter().map(|x| x + noise * rng.gen_gaussian() as f32).collect();
        let n = out.iter().map(|x| x * x).sum::<f32>().sqrt();
        for x in &mut out {
            *x /= n;
        }
        out
    }

    #[test]
    fn finds_near_duplicates() {
        let mut rng = Xoshiro256pp::new(1);
        let mut index = SimHashLshIndex::for_threshold(64, 0.7, 9);
        let base = random_unit(64, &mut rng);
        index.insert(0, &perturb(&base, 0.05, &mut rng));
        for id in 1..200 {
            index.insert(id, &random_unit(64, &mut rng));
        }
        let hits = index.search(&base, 3, |_| false);
        assert_eq!(hits[0].0, 0, "nearest neighbour missed: {hits:?}");
        assert!(hits[0].1 > 0.9);
    }

    #[test]
    fn prunes_dissimilar_vectors() {
        let mut rng = Xoshiro256pp::new(2);
        let mut index = SimHashLshIndex::for_threshold(64, 0.7, 9);
        for id in 0..500 {
            index.insert(id, &random_unit(64, &mut rng));
        }
        let query = random_unit(64, &mut rng);
        let (_, outcome) = searched(&index, &query, 10, |_| false);
        // Random 64-d vectors have cosine ~N(0, 1/8); with a 0.7 threshold
        // nearly all 500 must be pruned before exact scoring.
        assert!(outcome.candidates < 100, "candidate pruning ineffective: {}", outcome.candidates);
    }

    #[test]
    fn search_results_sorted_descending() {
        let mut rng = Xoshiro256pp::new(3);
        let mut index = SimHashLshIndex::for_threshold(32, 0.5, 1);
        let base = random_unit(32, &mut rng);
        for id in 0..50 {
            index.insert(id, &perturb(&base, 0.2, &mut rng));
        }
        let hits = index.search(&base, 10, |_| false);
        assert!(!hits.is_empty());
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn exclusion_filter_applies() {
        let mut rng = Xoshiro256pp::new(4);
        let mut index = SimHashLshIndex::for_threshold(32, 0.5, 1);
        let base = random_unit(32, &mut rng);
        index.insert(7, &base);
        index.insert(8, &perturb(&base, 0.05, &mut rng));
        let hits = index.search(&base, 5, |id| id == 7);
        assert!(hits.iter().all(|(id, _)| *id != 7));
        assert!(!hits.is_empty());
    }

    #[test]
    fn insert_replaces_and_remove_works() {
        let mut rng = Xoshiro256pp::new(5);
        let mut index = SimHashLshIndex::for_threshold(32, 0.5, 1);
        let a = random_unit(32, &mut rng);
        let b = random_unit(32, &mut rng);
        index.insert(1, &a);
        index.insert(1, &b);
        assert_eq!(index.len(), 1);
        let hits = index.search(&b, 1, |_| false);
        assert_eq!(hits[0].0, 1);
        assert!(hits[0].1 > 0.999);
        assert!(index.remove(1));
        assert!(!index.remove(1));
        assert!(index.is_empty());
        assert!(index.search(&b, 1, |_| false).is_empty());
    }

    #[test]
    fn rejects_zero_and_mismatched_vectors() {
        let mut index = SimHashLshIndex::for_threshold(8, 0.5, 1);
        assert!(!index.insert(0, &[0.0; 8]));
        assert!(!index.insert(1, &[1.0; 4]));
        assert!(index.is_empty());
    }

    #[test]
    fn lsh_recall_close_to_exact_above_threshold() {
        let mut rng = Xoshiro256pp::new(6);
        let mut index = SimHashLshIndex::for_threshold(64, 0.7, 11);
        let base = random_unit(64, &mut rng);
        // 20 neighbours well above the 0.7 threshold (noise 0.06 per dim on
        // 64 dims puts cosine ≈ 1/sqrt(1 + 0.06²·64) ≈ 0.9), 300 noise
        // vectors near cosine 0.
        for id in 0..20 {
            index.insert(id, &perturb(&base, 0.06, &mut rng));
        }
        for id in 20..320 {
            index.insert(id, &random_unit(64, &mut rng));
        }
        let lsh: wg_util::FxHashSet<ItemId> =
            index.search(&base, 20, |_| false).into_iter().map(|(id, _)| id).collect();
        let exact: Vec<ItemId> =
            index.search_exact(&base, 20, |_| false).into_iter().map(|(id, _)| id).collect();
        let recall = exact.iter().filter(|id| lsh.contains(id)).count() as f64 / exact.len() as f64;
        assert!(recall > 0.75, "ANN recall too low: {recall}");
    }

    #[test]
    fn multiprobe_does_not_reduce_candidates() {
        let mut rng = Xoshiro256pp::new(7);
        let mut plain = SimHashLshIndex::for_threshold(64, 0.7, 13);
        for id in 0..200 {
            plain.insert(id, &random_unit(64, &mut rng));
        }
        let query = random_unit(64, &mut rng);
        let before = plain.candidates(&query).len();
        plain.set_probes(2);
        let after = plain.candidates(&query).len();
        assert!(after >= before);
    }

    /// `index` sealed the way a checkpoint seals it: no sketches, no
    /// manifest.
    fn sealed(index: &SimHashLshIndex, block_rows: usize) -> Vec<u8> {
        index.seal(block_rows, false, &[], |_| true).expect("every cold block reads back")
    }

    /// A sealed image opened from memory, uncached.
    fn open(bytes: &[u8]) -> Result<VectorSegment, SegmentError> {
        VectorSegment::from_bytes(bytes.to_vec(), crate::paged::BlockCache::new(0))
    }

    /// An empty index of `like`'s geometry and probes, hydrated from the
    /// image `bytes`.
    fn hydrated(bytes: &[u8], like: &SimHashLshIndex) -> SimHashLshIndex {
        let mut index = SimHashLshIndex::new(like.dim(), like.params(), like.seed());
        index.set_probes(like.probes());
        let segment = open(bytes).expect("a sealed image opens");
        assert_eq!(index.hydrate(&segment, Some).expect("hydrate"), segment.row_count());
        index
    }

    /// `n` random unit vectors in 64 dimensions under ids `0..n`.
    fn populated(n: usize, seed: u64) -> (SimHashLshIndex, Vec<Vec<f32>>) {
        let mut rng = Xoshiro256pp::new(seed);
        let mut index = SimHashLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17);
        let vectors: Vec<Vec<f32>> = (0..n).map(|_| random_unit(64, &mut rng)).collect();
        for (id, v) in vectors.iter().enumerate() {
            assert!(index.insert(id as ItemId, v));
        }
        (index, vectors)
    }

    /// An index holding 60 near-duplicate vectors (perturbations of one
    /// base, so they collide in the LSH buckets) spread across three
    /// backend namespaces (20 each), plus the vectors for re-querying.
    fn federated(seed: u64) -> (SimHashLshIndex, Vec<Vec<f32>>) {
        let mut rng = Xoshiro256pp::new(seed);
        let mut index = SimHashLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17);
        let base = random_unit(64, &mut rng);
        let vectors: Vec<Vec<f32>> = (0..60).map(|_| perturb(&base, 0.08, &mut rng)).collect();
        for (i, v) in vectors.iter().enumerate() {
            let backend = (i % 3) as u16 + 1; // namespaces 1, 2, 3
            assert!(index.insert(crate::compose_item_id(backend, (i / 3) as u32), v));
        }
        (index, vectors)
    }

    /// A search over every backend without a deadline.
    fn searched(
        index: &SimHashLshIndex,
        query: &[f32],
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> (Vec<(ItemId, f32)>, SearchOutcome) {
        let sig = index.hasher().sign(query);
        index.search_signed_scoped_with_outcome(query, &sig, k, &DiscoverScope::All, exclude)
    }

    /// The sorted candidate ids of a signature.
    fn candidate_ids(index: &SimHashLshIndex, sig: &Signature) -> Vec<ItemId> {
        let mut ids = Vec::new();
        index.candidates_signed_into(sig, &mut ids);
        ids
    }

    /// A search under `scope` without a deadline or exclusions.
    fn scoped(
        index: &SimHashLshIndex,
        query: &[f32],
        k: usize,
        scope: &DiscoverScope,
    ) -> (Vec<(ItemId, f32)>, SearchOutcome) {
        let sig = index.hasher().sign(query);
        index.search_signed_scoped_with_outcome(query, &sig, k, scope, |_| false)
    }

    #[test]
    fn encode_decode_roundtrip_preserves_search() {
        let mut rng = Xoshiro256pp::new(8);
        let mut index = SimHashLshIndex::for_threshold(32, 0.7, 21);
        index.set_probes(1);
        for id in 0..100 {
            index.insert(id, &random_unit(32, &mut rng));
        }
        let query = random_unit(32, &mut rng);
        let before = index.search(&query, 5, |_| false);
        let image = sealed(&index, 16);
        let loaded = hydrated(&image, &index);
        assert_eq!(loaded.len(), 100);
        assert_eq!(loaded.search(&query, 5, |_| false), before);
        // The signatures a hydrate buckets from are the image's: row for
        // row what a fresh signing of the stored vector gives, and what the
        // hydrated index seals again.
        let segment = open(&image).expect("open");
        for b in 0..segment.block_count() {
            let data = segment.block(b).expect("read");
            for (r, vector) in data.chunks_exact(32).enumerate() {
                assert_eq!(segment.sig_words_of(b, r), &index.hasher().sign(vector).words[..]);
            }
        }
        assert_eq!(sealed(&loaded, 16), image);
    }

    #[test]
    fn encode_decode_roundtrip_keeps_near_duplicate_rankings() {
        // Near-duplicates under ids 3 apart: exact-score ties would be luck,
        // but the candidate sets are large, so tie *order* is exercised by
        // the (score, id) heap on every query, and so is the exclusion.
        let (_, vectors) = federated(7);
        let mut index = SimHashLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17);
        index.set_probes(1);
        for (id, v) in vectors.iter().enumerate() {
            assert!(index.insert(id as ItemId * 3, v));
        }
        let image = sealed(&index, 8);
        let loaded = hydrated(&image, &index);
        assert_eq!((loaded.len(), loaded.cold_len()), (index.len(), 0));
        let mut rng = Xoshiro256pp::new(8);
        let randoms: Vec<Vec<f32>> = (0..10).map(|_| random_unit(64, &mut rng)).collect();
        for q in vectors.iter().take(10).chain(&randoms) {
            let exclude = |id: ItemId| id % 5 == 0;
            let (want, got) = (index.search(q, 25, exclude), loaded.search(q, 25, exclude));
            assert_eq!(got, want, "the round trip changed a ranking");
        }
        // Re-sealing what was loaded reproduces the bytes.
        assert_eq!(sealed(&loaded, 8), image);
    }

    #[test]
    fn roundtrip_survives_slot_churn_and_removal() {
        // Removal frees arena slots, reinsertion reuses them out of id
        // order: the image is still (signature, id)-sorted and complete.
        let (mut index, vectors) = populated(60, 13);
        assert!([7, 40, 41].into_iter().all(|id| index.remove(id)));
        assert!(index.insert(7, &vectors[59]));
        assert!(index.insert(90, &vectors[40]));
        let bytes = sealed(&index, 8);
        let loaded = hydrated(&bytes, &index);
        assert_eq!(loaded.len(), 59);
        assert_eq!(loaded.vector(7), Some(&vectors[59][..]));
        assert_eq!(loaded.vector(40), None);
        // A fresh index holding the same rows writes the same bytes.
        let mut fresh = SimHashLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17);
        for id in (0..60).chain([90]) {
            if let Some(v) = index.vector(id) {
                fresh.insert(id, v);
            }
        }
        assert_eq!(sealed(&fresh, 8), bytes);
        let mut rng = Xoshiro256pp::new(14);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            assert_eq!(loaded.search(&q, 5, |_| false), index.search(&q, 5, |_| false));
        }
    }

    #[test]
    fn hot_and_cold_rows_share_one_frame() {
        let (all_hot, vectors) = populated(80, 15);
        // Even ids sealed into a segment and attached cold; odd ids hot.
        let mut cold_source = SimHashLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 0) {
            cold_source.insert(id as ItemId, v);
        }
        let dir = std::env::temp_dir().join(format!("wg-index-frame-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.wgs");
        let bits = cold_source.params().bits();
        crate::paged::write_vector_segment(&path, 64, bits, 8, cold_source.export_rows()).unwrap();
        let cache = crate::paged::BlockCache::new(0);
        let segment = Arc::new(VectorSegment::open(&path, cache).unwrap());
        let mut mixed = SimHashLshIndex::new(64, all_hot.params(), 17);
        assert_eq!(mixed.attach_segment_mapped(segment, Some).unwrap(), 40);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 1) {
            mixed.insert(id as ItemId, v);
        }
        assert_eq!((mixed.len(), mixed.cold_len()), (80, 40));

        let bytes = sealed(&mixed, 8);
        assert_eq!(bytes, sealed(&all_hot, 8), "a row's tier must not show in the image");
        let loaded = hydrated(&bytes, &mixed);
        assert_eq!((loaded.len(), loaded.cold_len()), (80, 0), "a hydrated restore is all hot");
        let mut rng = Xoshiro256pp::new(16);
        for _ in 0..10 {
            let q = random_unit(64, &mut rng);
            assert_eq!(loaded.search(&q, 7, |_| false), mixed.search(&q, 7, |_| false));
        }

        // The same rows sealed *with* sketches: a file that attaches lazily
        // and hydrates alike, where the plain one refuses to attach.
        let sketched = mixed.seal(8, true, &[], |_| true).unwrap();
        assert!(sketched.len() > bytes.len());
        assert_eq!(sealed(&hydrated(&sketched, &mixed), 8), bytes);
        let mut lazy = SimHashLshIndex::new(64, mixed.params(), 17);
        let plain = Arc::new(open(&bytes).unwrap());
        let err = lazy.attach_segment_mapped(plain, Some).expect_err("nothing to prune with");
        assert!(err.to_string().contains("no row sketches"), "{err}");
        assert!(lazy.is_empty() && lazy.cold_segment_count() == 0);
        let sketched = Arc::new(open(&sketched).unwrap());
        assert_eq!(lazy.attach_segment_mapped(sketched, Some).unwrap(), 80);
        assert_eq!((lazy.len(), lazy.cold_len()), (80, 80));
        let q = &vectors[3];
        assert_eq!(lazy.search(q, 7, |_| false), mixed.search(q, 7, |_| false));

        // A cold block that no longer reads back fails the seal, typed.
        let mut image = std::fs::read(&path).unwrap();
        image[wg_util::segment::PREAMBLE_LEN + 3] ^= 0x40;
        std::fs::write(&path, &image).unwrap();
        mixed.cold_blocks().expect("cached");
        let fresh = Arc::new(VectorSegment::open(&path, crate::paged::BlockCache::new(0)).unwrap());
        let mut damaged = SimHashLshIndex::new(64, mixed.params(), 17);
        damaged.attach_segment_mapped(fresh, Some).unwrap();
        let err = damaged.seal(8, false, &[], |_| true).expect_err("a lost block");
        assert!(matches!(&err, SegmentError::Corrupt(m) if m.contains("block 0")), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(open(b"not an index").is_err());
        // An image cut short anywhere: typed, at open.
        let mut index = SimHashLshIndex::for_threshold(8, 0.5, 1);
        index.insert(0, &[1.0; 8]);
        let image = sealed(&index, 4);
        open(&image).expect("the whole image opens");
        for cut in 0..image.len() {
            assert!(open(&image[..cut]).is_err(), "cut at {cut} opened");
        }
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
        let good = sealed(&populated(3, 18).0, 8);
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
        let good = sealed(&populated(3, 18).0, 8);
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
            with_directory(&good, |dir| {
                assert_eq!(dir[count_at..count_at + 4], 1u32.to_le_bytes(), "layout drifted");
                dir[at..at + 4].copy_from_slice(&le);
            })
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
    fn scoped_search_restricts_to_admitted_backends() {
        let (index, vectors) = federated(20);
        let q = &vectors[0];
        let (all, unscoped) = scoped(&index, q, 60, &DiscoverScope::All);
        assert!(all.iter().any(|(id, _)| item_backend(*id) == 1));
        let only2 = scoped(&index, q, 60, &DiscoverScope::include([2]));
        assert!(!only2.0.is_empty());
        assert!(only2.0.iter().all(|(id, _)| item_backend(*id) == 2));
        // Scope admits exactly the subset of the unscoped result set.
        let from_all: Vec<_> =
            all.iter().copied().filter(|(id, _)| item_backend(*id) == 2).collect();
        assert_eq!(only2.0, from_all);
        let not2 = scoped(&index, q, 60, &DiscoverScope::exclude([2]));
        assert!(not2.0.iter().all(|(id, _)| item_backend(*id) != 2));
        // Pushdown: the scoped searches never scored out-of-scope items.
        assert!(only2.1.scored <= unscoped.scored);
        assert_eq!(only2.1.scored + not2.1.scored, unscoped.scored);
    }

    #[test]
    fn federated_encode_round_trips_with_remap() {
        let (index, vectors) = federated(23);
        let segment = open(&sealed(&index, 8)).unwrap();

        // A loader that maps none of the namespaces installs nothing; the
        // caller sees that in the count.
        let mut empty = SimHashLshIndex::new(64, index.params(), 17);
        assert_eq!(empty.hydrate(&segment, |_| None).unwrap(), 0);
        assert!(empty.is_empty());

        // The loading process assigned different bits to the same names.
        let reassign = |id: ItemId| {
            let bits = [None, Some(9), Some(4), Some(7)][item_backend(id) as usize]?;
            Some(crate::compose_item_id(bits, crate::item_local(id)))
        };
        let mut loaded = SimHashLshIndex::new(64, index.params(), 17);
        assert_eq!(loaded.hydrate(&segment, reassign).unwrap(), 60);
        assert_eq!(loaded.len(), 60);
        // Old namespace 1 is now 9, with locals preserved.
        let q = &vectors[0];
        let want = scoped(&index, q, 60, &DiscoverScope::include([1])).0;
        let got = scoped(&loaded, q, 60, &DiscoverScope::include([9])).0;
        assert_eq!(want.len(), got.len());
        for ((a, sa), (b, sb)) in want.iter().zip(&got) {
            assert_eq!(crate::item_local(*a), crate::item_local(*b));
            assert_eq!(item_backend(*b), 9);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn concurrent_inserts_and_searches_lose_nothing() {
        // The system's layout: one index behind one reader–writer lock,
        // every row and query signed before the lock is taken.
        let params = LshParams::for_threshold(0.6, 64);
        let hasher = Arc::new(SimHasher::new(32, params.bits(), 11));
        let index =
            wg_util::sync::RwLock::new(SimHashLshIndex::with_hasher(hasher.clone(), params));
        let per_thread = 50usize;
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (index, hasher) = (&index, &hasher);
                scope.spawn(move || {
                    let mut rng = Xoshiro256pp::new(100 + t as u64);
                    for i in 0..per_thread {
                        let id = t * per_thread as u32 + i as u32;
                        let v = random_unit(32, &mut rng);
                        let sig = hasher.sign(&v);
                        index.write().insert_signed(id, &v, sig);
                        // Interleave searches with the other writers.
                        let q = random_unit(32, &mut rng);
                        let sig = hasher.sign(&q);
                        let (hits, _) = index.read().search_signed_scoped_with_outcome(
                            &q,
                            &sig,
                            3,
                            &DiscoverScope::All,
                            |_| false,
                        );
                        assert!(hits.len() <= 3);
                    }
                });
            }
        });
        assert_eq!(index.read().len(), 4 * per_thread);
        // Nothing was lost or stale: every row is found under its own vector.
        let index = index.into_inner();
        for (id, v) in index.export_rows().into_iter().map(|r| (r.id, r.vector)) {
            assert_eq!(index.search(&v, 1, |_| false)[0].0, id);
        }
    }

    fn clustered(
        dim: usize,
        families: usize,
        members: usize,
        rng: &mut Xoshiro256pp,
    ) -> Vec<Vec<f32>> {
        let mut out = Vec::with_capacity(families * members);
        for _ in 0..families {
            let base = random_unit(dim, rng);
            for _ in 0..members {
                out.push(perturb(&base, 0.05, rng));
            }
        }
        out
    }

    fn seal_and_attach(
        source: &SimHashLshIndex,
        tag: &str,
        block_rows: usize,
        cache_budget: usize,
    ) -> (SimHashLshIndex, std::sync::Arc<crate::paged::BlockCache>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("wg-index-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("seg.wgs");
        crate::paged::write_vector_segment(
            &path,
            source.dim(),
            source.params().bits(),
            block_rows,
            source.export_rows(),
        )
        .expect("seal");
        let cache = crate::paged::BlockCache::new(cache_budget);
        let seg = std::sync::Arc::new(
            crate::paged::VectorSegment::open(&path, cache.clone()).expect("open"),
        );
        let mut paged = SimHashLshIndex::new(source.dim(), source.params(), source.seed());
        paged.set_probes(source.probes());
        paged.attach_segment_mapped(seg, Some).expect("attach");
        (paged, cache, dir)
    }

    #[test]
    fn paged_tier_matches_hot_tier_bit_for_bit() {
        let mut rng = Xoshiro256pp::new(31);
        let mut hot = SimHashLshIndex::for_threshold(32, 0.7, 41);
        for (id, v) in clustered(32, 20, 10, &mut rng).into_iter().enumerate() {
            hot.insert(id as ItemId, &v);
        }
        let (paged, cache, dir) = seal_and_attach(&hot, "parity", 16, 0);
        assert_eq!(paged.len(), hot.len());
        assert_eq!(paged.cold_len(), hot.len());
        // Lazy hydration: attaching reads directory metadata only.
        assert_eq!(cache.stats().len, 0);

        let mut read = 0usize;
        let mut pruned = 0usize;
        for q in 0..50 {
            let query = random_unit(32, &mut rng);
            let (a, oa) = searched(&hot, &query, 5, |id| id % 11 == 0);
            let (b, ob) = searched(&paged, &query, 5, |id| id % 11 == 0);
            assert_eq!(a, b, "query {q}: paged ranking diverged");
            assert_eq!(oa.candidates, ob.candidates);
            // Pruned rows are unscored; the hot path scored everything.
            assert!(ob.scored <= oa.scored);
            read += ob.blocks_read;
            pruned += ob.blocks_pruned;
        }
        assert!(read > 0, "cold blocks never hydrated");
        let _ = pruned;
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Top-2 of a query built to sit exactly where an understated residual
    /// prunes wrongly, from an index whose rows went through `seal`; the
    /// second value is the same search over the rows held hot.
    ///
    /// Every row is a spike on dim 0 plus components too small for the
    /// int8 grid (under half a step), so its sketch is `[127, 0, 0, …]`
    /// and everything else is residual. The query runs along `u`, the
    /// shared residual direction of the target and the near rows —
    /// Cauchy–Schwarz at equality, where the bound has only `UB_SLACK`
    /// to spare. Block 0 holds a decoy with the largest residual (off `u`,
    /// true score 0) next to three near rows scoring 96–97% of the target:
    /// it is visited first and fills the heap with those; the target sits
    /// alone in block 1 with its true score above that threshold, its
    /// honest bound above its true score, and 90% of that bound below the
    /// threshold.
    #[allow(clippy::type_complexity)]
    fn search_the_residual_trap(
        tag: &str,
        seal: fn(&std::path::Path, usize, usize, usize, Vec<SegmentRow>) -> std::io::Result<usize>,
    ) -> (Vec<(ItemId, f32)>, Vec<(ItemId, f32)>) {
        const DIM: usize = 128;
        let params = LshParams { bands: 4, rows: 16 };
        let row = |along_u: f32, off_u: f32| {
            let mut v = vec![0.0f32; DIM];
            v[0] = 1.0;
            v[1..64].fill(along_u);
            v[64..].fill(off_u);
            v
        };
        let vectors = [
            row(0.0, 0.0035), // the decoy: residual 0.028, nothing along u
            row(0.97 * 0.003, 0.0),
            row(0.965 * 0.003, 0.0),
            row(0.96 * 0.003, 0.0),
            row(0.003, 0.0), // the target: residual 0.0238, all of it along u
        ];
        // One signature for every row and the query: one bucket, and a
        // block layout decided by id alone.
        let sig = Signature { words: vec![0], bits: params.bits() };
        let mut hot = SimHashLshIndex::new(DIM, params, 1);
        let mut rows = Vec::new();
        for (id, v) in vectors.iter().enumerate() {
            hot.insert_signed(id as ItemId, v, sig.clone());
            rows.push(SegmentRow {
                id: id as ItemId,
                signature: sig.clone(),
                norm: kernel::norm_sq(v).sqrt(),
                vector: v.clone(),
            });
        }
        let dir = std::env::temp_dir().join(format!("wg-index-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("seg.wgs");
        assert_eq!(seal(&path, DIM, params.bits(), 4, rows).expect("seal"), 2);
        let cache = crate::paged::BlockCache::new(0);
        let seg = Arc::new(VectorSegment::open(&path, cache).expect("open"));
        let mut paged = SimHashLshIndex::new(DIM, params, 1);
        paged.attach_segment_mapped(seg, Some).expect("attach");

        let mut query = vec![0.0f32; DIM];
        query[1..64].fill(1.0);
        let all = DiscoverScope::All;
        let from_disk = paged.search_signed_scoped_with_outcome(&query, &sig, 2, &all, |_| false).0;
        let from_ram = hot.search_signed_scoped_with_outcome(&query, &sig, 2, &all, |_| false).0;
        std::fs::remove_dir_all(&dir).ok();
        (from_disk, from_ram)
    }

    /// Mutation check of the parity suite: the same assertion that holds
    /// for the real writer must fail for one whose residuals are 10% short.
    /// If this test fails on its second half, the suite has stopped being
    /// able to see an unsound bound.
    #[test]
    fn an_understated_residual_breaks_parity_and_the_suite_sees_it() {
        let (paged, hot) =
            search_the_residual_trap("trap-honest", crate::paged::write_vector_segment);
        assert_eq!(hot.iter().map(|h| h.0).collect::<Vec<_>>(), [4, 1], "the trap is mis-built");
        assert_eq!(paged, hot, "the real writer's bound must keep the target");

        let (paged, hot) = search_the_residual_trap(
            "trap-mutant",
            crate::paged::write_vector_segment_understating,
        );
        assert_eq!(hot.iter().map(|h| h.0).collect::<Vec<_>>(), [4, 1]);
        assert_ne!(paged, hot, "a bound 10% short of the residual must lose the target");
    }

    #[test]
    fn the_lazy_block_selection_visits_what_a_full_sort_would() {
        // Twenty-four distinct vectors in six families, each under ten ids:
        // the copies of a vector share a signature, so they seal next to one
        // another, straddle blocks, and bound — and score — exactly alike.
        let mut rng = Xoshiro256pp::new(51);
        let pool = clustered(32, 6, 4, &mut rng);
        let mut hot = SimHashLshIndex::for_threshold(32, 0.7, 47);
        for id in 0..240 {
            hot.insert(id as ItemId, &pool[id % pool.len()]);
        }
        let exclude = |id: ItemId| id % 7 == 0;
        let (mut tied_passes, mut stopped_early, mut ruled_out_on_entry) = (0usize, 0usize, 0usize);
        let mut near = Xoshiro256pp::new(52);
        for block_rows in [1usize, 3, 16] {
            let (mut paged, _cache, dir) =
                seal_and_attach(&hot, &format!("lazy-{block_rows}"), block_rows, 0);
            for q in 0..60 {
                let query = match q % 3 {
                    0 => pool[q % pool.len()].clone(),
                    1 => perturb(&pool[q % pool.len()], 0.1, &mut rng),
                    _ => random_unit(32, &mut rng),
                };
                let sig = paged.hasher().sign(&query);
                let qnorm = kernel::norm_sq(&query).sqrt();
                // Every other pass enters the cold pass with a full heap:
                // five hot rows near the query, bucketed under its own
                // signature, which the hot pass scores first.
                let entering: Vec<(ItemId, Vec<f32>)> = (1_000..)
                    .filter(|&id| !exclude(id))
                    .take(5 * (q % 2))
                    .map(|id| (id, perturb(&query, 0.1, &mut near)))
                    .collect();
                for (id, v) in &entering {
                    paged.insert_signed(*id, v, sig.clone());
                }
                let (all, none) = (DiscoverScope::All, Deadline::none());
                let (got, outcome) = paged
                    .search_signed_scoped_deadline_with_outcome(
                        &query, &sig, 5, &all, none, exclude,
                    )
                    .expect("search");

                // The same pass with every group sorted before the first
                // visit: rows in location order, one bound each, groups in
                // descending largest bound, equal bounds by position.
                let cold = paged.cold.as_ref().expect("attached");
                let seg = cold.segments[0].as_ref().expect("live");
                let mut rows: Vec<(ColdLoc, ItemId)> = (candidate_ids(&paged, &sig).into_iter())
                    .filter(|&id| !exclude(id))
                    .filter_map(|id| Some(cold.rows[*cold.locator.get(&id)? as usize]))
                    .collect();
                rows.sort_unstable();
                let mut codes = QueryCodes::default();
                codes.set(&query, qnorm);
                let bound =
                    |loc: ColdLoc| seg.rows(loc.block()).cosine_upper_bound(loc.row(), &codes);
                let mut groups = Vec::new();
                for group in rows.chunk_by(|a, b| a.0.same_block(b.0)) {
                    let largest =
                        group.iter().map(|r| bound(r.0)).fold(f64::NEG_INFINITY, f64::max);
                    groups.push((largest, groups.len(), group));
                }
                groups.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                tied_passes += groups.windows(2).any(|w| w[0].0 == w[1].0) as usize;

                let mut want = TopK::new(5);
                for (id, v) in &entering {
                    let score = cosine_of(kernel::dot(&query, v), qnorm, kernel::norm_sq(v).sqrt());
                    want.push(score as f64, *id);
                }
                let (mut read, mut scored) = (0usize, entering.len());
                for &(largest, _, group) in &groups {
                    if want.threshold().is_some_and(|threshold| largest < threshold) {
                        break;
                    }
                    let block = group[0].0.block();
                    let (meta, data) = (seg.rows(block), seg.block(block).expect("read"));
                    read += 1;
                    for &(loc, id) in group {
                        if want.threshold().is_some_and(|threshold| bound(loc) < threshold) {
                            continue;
                        }
                        want.push(
                            score_row(&query, qnorm, meta.norm(loc.row()), &data, loc.row(), 32),
                            id,
                        );
                        scored += 1;
                    }
                }
                assert_eq!(
                    (outcome.blocks_read, outcome.blocks_pruned, outcome.scored),
                    (read, groups.len() - read, scored),
                    "{block_rows}-row blocks, query {q}"
                );
                assert_eq!(got, ranking(want), "{block_rows}-row blocks, query {q}");
                stopped_early += (read < groups.len()) as usize;
                ruled_out_on_entry += (q % 2 == 1 && read == 0 && !groups.is_empty()) as usize;
                for (id, _) in &entering {
                    assert!(paged.remove(*id));
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
        assert!(tied_passes > 60, "equal bounds must be common: {tied_passes} of 180 passes");
        assert!(stopped_early > 60, "most passes must stop before the last group: {stopped_early}");
        assert!(
            ruled_out_on_entry > 10,
            "a full heap must rule some passes out: {ruled_out_on_entry}"
        );
    }

    #[test]
    fn mixed_tiers_search_as_one_index() {
        let mut rng = Xoshiro256pp::new(33);
        let vectors = clustered(32, 12, 10, &mut rng);
        // Reference: everything hot.
        let mut reference = SimHashLshIndex::for_threshold(32, 0.7, 43);
        for (id, v) in vectors.iter().enumerate() {
            reference.insert(id as ItemId, v);
        }
        // Under test: even ids sealed cold, odd ids inserted hot.
        let mut cold_source = SimHashLshIndex::for_threshold(32, 0.7, 43);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 0) {
            cold_source.insert(id as ItemId, v);
        }
        let (mut mixed, _cache, dir) = seal_and_attach(&cold_source, "mixed", 8, 0);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 1) {
            mixed.insert(id as ItemId, v);
        }
        assert_eq!(mixed.len(), vectors.len());
        for _ in 0..30 {
            let query = random_unit(32, &mut rng);
            assert_eq!(reference.search(&query, 7, |_| false), mixed.search(&query, 7, |_| false));
        }
        // Re-inserting a cold id hot replaces it (newest wins).
        let replacement = random_unit(32, &mut rng);
        assert!(mixed.insert(0, &replacement));
        assert_eq!(mixed.len(), vectors.len());
        assert_eq!(mixed.vector_owned(0).as_deref(), Some(&replacement[..]));
        // Removing a cold id makes it unsearchable.
        assert!(mixed.remove(2));
        assert!(mixed.search(&vectors[2], vectors.len(), |_| false).iter().all(|(id, _)| *id != 2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_segment_retires_when_its_rows_die_one_at_a_time() {
        // The way a `sync` empties a segment: no backend-wide call, just
        // one row after another replaced hot, or removed.
        let mut rng = Xoshiro256pp::new(36);
        let mut source = SimHashLshIndex::for_threshold(32, 0.7, 45);
        let vectors: Vec<Vec<f32>> = (0..40).map(|_| random_unit(32, &mut rng)).collect();
        for (id, v) in vectors.iter().enumerate() {
            source.insert(id as ItemId, v);
        }
        type Kill = fn(&mut SimHashLshIndex, ItemId, &[f32]);
        let kills: [(&str, Kill, usize); 2] = [
            ("remove", |index, id, _| assert!(index.remove(id)), 0),
            ("insert", |index, id, v| assert!(index.insert(id, v)), 40),
        ];
        for (tag, kill, left) in kills {
            let (mut paged, cache, dir) =
                seal_and_attach(&source, &format!("one-by-one-{tag}"), 8, 0);
            assert_eq!(paged.export_rows().len(), 40);
            assert_eq!(cache.stats().len, 5, "every block is cached");
            let segment =
                Arc::downgrade(paged.cold.as_ref().unwrap().segments[0].as_ref().unwrap());
            for (id, v) in vectors.iter().enumerate() {
                assert_eq!(paged.cold_segment_count(), 1, "{tag}: {} rows still live", 40 - id);
                kill(&mut paged, id as ItemId, v);
            }
            assert_eq!((paged.len(), paged.cold_len(), paged.cold_segment_count()), (left, 0, 0));
            assert_eq!(cache.stats().len, 0, "{tag}: retirement drops cached blocks");
            assert!(segment.upgrade().is_none(), "{tag}: the file must be closed");
            assert!(paged.cold.is_none(), "{tag}: an emptied tier is dropped");
            assert_buckets_name_live_rows(&paged);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn batches_that_empty_a_segment_row_by_row_retire_it() {
        // How an indexing commit kills rows: a chunk of removals or hot
        // replacements under one write guard.
        let (_, vectors) = federated(26);
        let mut source = SimHashLshIndex::new(64, LshParams::for_threshold(0.7, 128), 17);
        let ids: Vec<ItemId> = (0..vectors.len()).map(|i| i as ItemId * 3).collect();
        for (&id, v) in ids.iter().zip(&vectors) {
            assert!(source.insert(id, v));
        }
        type Kill = fn(&mut SimHashLshIndex, &[ItemId], &[Vec<f32>]);
        let kills: [(&str, Kill, usize); 2] = [
            ("remove", |index, ids, _| assert!(ids.iter().all(|&id| index.remove(id))), 0),
            (
                "insert",
                |index, ids, vectors| {
                    for (&id, v) in ids.iter().zip(vectors) {
                        index.insert_signed(id, v, index.hasher().sign(v));
                    }
                },
                60,
            ),
        ];
        for (tag, kill, left) in kills {
            let (mut index, cache, dir) = seal_and_attach(&source, &format!("batch-{tag}"), 4, 0);
            assert_eq!(index.export_rows().len(), 60);
            assert_eq!((index.cold_segment_count(), cache.stats().len), (1, 15));
            // All but ids 0, 3, 6, 9: the segment still holds live rows.
            kill(&mut index, &ids[4..], &vectors[4..]);
            assert_eq!((index.cold_len(), index.cold_segment_count()), (4, 1), "{tag}");
            kill(&mut index, &ids[..4], &vectors[..4]);
            assert_eq!((index.len(), index.cold_len(), index.cold_segment_count()), (left, 0, 0));
            assert_eq!(cache.stats().len, 0, "{tag}: retirement drops cached blocks");
            assert_buckets_name_live_rows(&index);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The bucket invariant: every entry names a live row whose signature
    /// lands in that bucket, no bucket is empty or names a row twice, and —
    /// the entry count being `bands` per stored item — every live row sits
    /// in exactly `bands` buckets.
    fn assert_buckets_name_live_rows(index: &SimHashLshIndex) {
        let mut entries_seen = 0usize;
        for (band, buckets) in index.bands.iter().enumerate() {
            for (&key, entries) in buckets {
                assert!(!entries.is_empty(), "band {band}: an empty bucket was kept");
                let mut distinct = entries.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), entries.len(), "band {band}: a row is bucketed twice");
                for &entry in entries {
                    let words = match entry & COLD {
                        0 => {
                            assert!(index.vectors.id_at(entry).is_some(), "slot {entry} is free");
                            index.hot_sig(entry)
                        }
                        _ => {
                            let cold = index.cold.as_ref().expect("a cold entry without a tier");
                            let n = entry & !COLD;
                            let (loc, id) = cold.rows[n as usize];
                            assert_eq!(cold.locator.get(&id), Some(&n), "cold row {n} is dead");
                            cold.segment(loc).sig_words_of(loc.block(), loc.row())
                        }
                    };
                    assert_eq!(band_key_of(words, band, index.params.rows), key);
                }
                entries_seen += entries.len();
            }
        }
        assert_eq!(entries_seen, index.len() * index.params.bands);
        if let Some(cold) = &index.cold {
            let live: usize = cold.live.iter().sum();
            assert_eq!((live, cold.live_rows().count()), (cold.locator.len(), cold.locator.len()));
            assert!(cold.segments.iter().zip(&cold.live).all(|(s, &n)| s.is_some() == (n > 0)));
        }
    }

    #[test]
    fn buckets_name_live_rows_through_any_operation_sequence() {
        const DIM: usize = 16;
        const STEPS: usize = 2_400;
        let params = LshParams { bands: 4, rows: 4 };
        let mut rng = Xoshiro256pp::new(0xB0C4E7);
        let mut index = SimHashLshIndex::new(DIM, params, 7);
        index.set_probes(1);
        // Few distinct vectors under many ids: full buckets, and exact
        // score ties on every query.
        let pool: Vec<Vec<f32>> = (0..10).map(|_| random_unit(DIM, &mut rng)).collect();
        let mut model = std::collections::BTreeMap::<ItemId, usize>::new();
        let dir = std::env::temp_dir().join(format!("wg-index-ops-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let cache = crate::paged::BlockCache::new(4 * 4 * DIM * 4);
        let (mut attaches, mut slots_reused, mut retired) = (0usize, 0usize, 0usize);
        let mut pick = |n: usize| (rng.gen_u64() % n as u64) as usize;
        for step in 0..STEPS {
            let id = crate::compose_item_id(pick(3) as u16, pick(48) as u32);
            let segments_before = index.cold_segment_count();
            match pick(100) {
                // Insert or replace, hot. A freed slot is reused LIFO.
                0..=44 => {
                    let v = pick(pool.len());
                    let slots = index.vectors.slot_count();
                    let had_free = index.vectors.len() < slots;
                    assert!(index.insert(id, &pool[v]));
                    slots_reused += (had_free && index.vectors.slot_count() == slots) as usize;
                    model.insert(id, v);
                }
                45..=79 => assert_eq!(index.remove(id), model.remove(&id).is_some()),
                // Seal a handful of rows — some of them ids already stored
                // in either tier — and attach them cold.
                80..=93 => {
                    let rows: std::collections::BTreeMap<ItemId, usize> = (0..1 + pick(12))
                        .map(|_| {
                            let id = crate::compose_item_id(pick(3) as u16, pick(48) as u32);
                            (id, pick(pool.len()))
                        })
                        .collect();
                    let sealed = rows.iter().map(|(&id, &v)| SegmentRow {
                        id,
                        signature: index.hasher().sign(&pool[v]),
                        norm: kernel::norm_sq(&pool[v]).sqrt(),
                        vector: pool[v].clone(),
                    });
                    let path = dir.join(format!("seg-{step}.wgs"));
                    crate::paged::write_vector_segment(&path, DIM, 16, 4, sealed.collect())
                        .expect("seal");
                    let seg = VectorSegment::open(&path, cache.clone()).expect("open");
                    assert_eq!(index.attach_segment_mapped(Arc::new(seg), Some), Ok(rows.len()));
                    model.extend(rows);
                    attaches += 1;
                }
                94..=96 => {
                    let bits = crate::item_backend(id);
                    let cold: Vec<ItemId> = (model.keys().copied())
                        .filter(|&x| crate::item_backend(x) == bits && index.vector(x).is_none())
                        .collect();
                    assert_eq!(index.drop_cold_backend(bits), cold.len());
                    model.retain(|x, _| !cold.contains(x));
                }
                // A whole namespace removed row by row, hot and cold.
                _ => {
                    let bits = crate::item_backend(id);
                    let doomed: Vec<ItemId> =
                        model.keys().copied().filter(|&x| crate::item_backend(x) == bits).collect();
                    for x in doomed {
                        assert!(index.remove(x));
                        model.remove(&x);
                    }
                }
            }
            retired += segments_before.saturating_sub(index.cold_segment_count());
            assert_eq!(index.len(), model.len(), "step {step}");
            assert_buckets_name_live_rows(&index);

            // The search is the top-k of exact scores over the candidate
            // ids, tie order included.
            let mut query = pool[pick(pool.len())].clone();
            query[pick(DIM)] += 0.25;
            let sig = index.hasher().sign(&query);
            let qnorm = kernel::norm_sq(&query).sqrt();
            let ids = candidate_ids(&index, &sig);
            let mut want = TopK::new(7);
            for &id in &ids {
                let v = &pool[model[&id]];
                let score = cosine_of(kernel::dot(&query, v), qnorm, kernel::norm_sq(v).sqrt());
                want.push(score as f64, id);
            }
            let (got, outcome) = index.search_signed_scoped_with_outcome(
                &query,
                &sig,
                7,
                &DiscoverScope::All,
                |_| false,
            );
            assert_eq!(got, ranking(want), "step {step}");
            assert_eq!(outcome.candidates, ids.len(), "step {step}");
        }
        assert!(attaches > 100 && slots_reused > 100 && retired > 20, "the script must mix tiers");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_aborted_search_leaves_the_scratch_clean_and_a_steady_one_does_not_grow_it() {
        let mut rng = Xoshiro256pp::new(37);
        let vectors = clustered(32, 12, 10, &mut rng);
        let mut hot = SimHashLshIndex::for_threshold(32, 0.7, 43);
        let mut cold_source = SimHashLshIndex::for_threshold(32, 0.7, 43);
        for (id, v) in vectors.iter().enumerate() {
            hot.insert(id as ItemId, v);
            if id % 2 == 0 {
                cold_source.insert(id as ItemId, v);
            }
        }
        let (mut mixed, _cache, dir) = seal_and_attach(&cold_source, "aborted", 8, 0);
        for (id, v) in vectors.iter().enumerate().filter(|(id, _)| id % 2 == 1) {
            mixed.insert(id as ItemId, v);
        }
        let queries: Vec<&Vec<f32>> = vectors.iter().step_by(7).collect();
        // Rankings and candidate counts: what both tiers must agree on.
        let search_all = |index: &SimHashLshIndex| -> Vec<_> {
            let search = |q| searched(index, q, 7, |_| false);
            queries.iter().map(|q| search(q)).map(|(hits, o)| (hits, o.candidates)).collect()
        };
        let want = std::thread::scope(|s| s.spawn(|| search_all(&hot)).join().expect("fresh"));
        assert!(want.iter().all(|(hits, candidates)| hits.len() == 7 && *candidates >= 7));

        // Steady state: a second pass over the same queries finds every
        // buffer already large enough.
        let capacities = || {
            SEARCH_SCRATCH.with_borrow(|s| {
                let SearchScratch { bits, rows, query, bounds, groups } = s;
                let caps = [bits.capacity(), rows.capacity(), bounds.capacity(), groups.capacity()];
                (caps, query.codes.capacity())
            })
        };
        assert_eq!(search_all(&mixed), want);
        let warmed = capacities();
        assert!(warmed.0.iter().all(|&c| c > 0) && warmed.1 > 0, "{warmed:?}");
        for _ in 0..3 {
            assert_eq!(search_all(&mixed), want);
        }
        assert_eq!(capacities(), warmed);

        // A budget that dies between the gather and the re-rank: the bits
        // are marked, nothing has scanned them yet.
        let sig = mixed.hasher().sign(queries[0]);
        let mut scratch = SEARCH_SCRATCH.take();
        let expired = Deadline::at(std::time::Instant::now());
        let died = mixed.search_with(
            &mut scratch,
            queries[0],
            &sig,
            7,
            &DiscoverScope::All,
            expired,
            |_| false,
        );
        assert!(matches!(died, Err(SearchError::Expired(Phase::Rerank))), "{died:?}");
        assert!(!scratch.bits.is_empty() && scratch.bits.iter().all(|&w| w == 0));
        SEARCH_SCRATCH.set(scratch);
        assert_eq!(search_all(&hot), want, "after an expired re-rank, same thread");

        // A cold block that no longer reads back (flipped in place, and the
        // copy the passes above cached dropped): the scan is over by then.
        let mut image = std::fs::read(dir.join("seg.wgs")).expect("read image");
        image[wg_util::segment::PREAMBLE_LEN + 5] ^= 0x10;
        std::fs::write(dir.join("seg.wgs"), &image).expect("rewrite in place");
        mixed.cold.as_ref().unwrap().segments[0].as_ref().unwrap().evict_from_cache();
        let damaged = queries.iter().filter(|q| {
            let sig = mixed.hasher().sign(q);
            let all = DiscoverScope::All;
            let none = Deadline::none();
            let got =
                mixed.search_signed_scoped_deadline_with_outcome(q, &sig, 7, &all, none, |_| false);
            matches!(got, Err(SearchError::Storage(_)))
        });
        assert!(damaged.count() > 0, "some query must need the damaged block");
        assert_eq!(search_all(&hot), want, "after a storage error, same thread");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn packed_locations_order_like_the_field_tuple() {
        let max = |bits: u32| (1usize << bits) - 1;
        let (segs, blocks, rows) = (
            [0, 1, max(ColdLoc::SEG_BITS)],
            [0, 1, max(ColdLoc::BLOCK_BITS)],
            [0, 1, max(ColdLoc::ROW_BITS)],
        );
        let mut tuples = Vec::new();
        for seg in segs {
            for block in blocks {
                for row in rows {
                    let loc = ColdLoc::new(seg, block, row);
                    assert_eq!((loc.seg(), loc.block(), loc.row()), (seg, block, row));
                    tuples.push(((seg, block, row), loc));
                }
            }
        }
        for (ta, a) in &tuples {
            for (tb, b) in &tuples {
                assert_eq!(a.cmp(b), ta.cmp(tb), "{ta:?} vs {tb:?}");
                assert_eq!(a.same_block(*b), (ta.0, ta.1) == (tb.0, tb.1));
            }
        }
    }

    #[test]
    fn attach_rejects_a_block_too_wide_for_the_locator() {
        let dim = 2;
        let rows_per_block = (1usize << ColdLoc::ROW_BITS) + 1;
        let mut source = SimHashLshIndex::new(dim, LshParams { bands: 2, rows: 4 }, 5);
        for id in 0..rows_per_block as ItemId {
            let angle = id as f32 * 1e-4;
            source.insert(id, &[angle.cos(), angle.sin()]);
        }
        let dir = std::env::temp_dir().join(format!("wg-index-wide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let seal = |block_rows: usize| {
            let path = dir.join(format!("seg-{block_rows}.wgs"));
            crate::paged::write_vector_segment(&path, dim, 8, block_rows, source.export_rows())
                .expect("seal");
            let cache = crate::paged::BlockCache::new(0);
            Arc::new(crate::paged::VectorSegment::open(&path, cache).expect("open"))
        };
        let mut paged = SimHashLshIndex::new(dim, source.params(), source.seed());
        let err = paged.attach_segment_mapped(seal(rows_per_block), Some).expect_err("too wide");
        assert!(err.to_string().contains("does not fit the cold locator"), "{err}");
        assert!(paged.is_empty() && paged.cold_segment_count() == 0);
        // One row fewer per block is the widest block the locator holds.
        assert_eq!(paged.attach_segment_mapped(seal(rows_per_block - 1), Some), Ok(rows_per_block));
        let hits = paged.search(&[1.0, 0.0], 3, |_| false);
        assert_eq!(hits, source.search(&[1.0, 0.0], 3, |_| false));
        std::fs::remove_dir_all(&dir).ok();
    }
}
