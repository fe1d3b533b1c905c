//! The banded SimHash LSH index.
//!
//! Pipeline per query (paper Fig. 2): sign the query embedding, collect the
//! union of its band buckets (the "sub-universe" of §3.1.2), then re-rank
//! candidates by **exact cosine** against the stored vectors and keep the
//! top-k. Insertion and removal are incremental, which is what lets
//! WarpGate track CDWs with high update rates without rebuild storms.
//!
//! Every row sits in one table of **pages** numbered in one row space: a
//! page holds a run of consecutive row numbers, and a bucket entry is a row
//! number. A page is *resident* — vectors, sketch records and signature
//! words in memory; inserts, replacements and hydrated rows land there — or
//! *attached*: the rows of one lazily attached [`VectorSegment`], whose
//! signatures and sketch records stay resident in the segment's slab while
//! its vectors are read through the block cache, a block at a time. Either
//! way a row has one record of one layout (`codes i8 × dim │ scale │
//! residual │ norm`, `crate::paged`), so one bound serves both. A row's
//! place in an attached page is its row number in the segment, so the
//! search reaches its record and its block from that number alone,
//! whatever the block size. The candidate set of a query is a bitset over
//! row numbers in a per-thread scratch: marking an entry dedups it, and one
//! ascending scan hands every candidate out in row order — no sort, and no
//! id → row probe, between the buckets and the scores. A small candidate
//! set (at most [`BOUND_FIRST_PER_RESULT`]` · k` rows) scores its resident
//! rows outright, four per kernel pass, and bounds its attached rows first;
//! a large one bounds every row first and scores only those whose bound can
//! still reach the top-k.

use std::cell::RefCell;
use std::collections::BinaryHeap;
use std::sync::Arc;
use wg_util::codec::{self, CodecError, CodecResult};
use wg_util::deadline::{Deadline, Phase};
use wg_util::kernel;
use wg_util::segment::SegmentError;
use wg_util::{FxHashMap, TopK};

use crate::paged::{self, record_norm, QueryCodes, RowSketch, SealRow, SegmentRow, VectorSegment};
use crate::params::LshParams;
use crate::scope::DiscoverScope;
use crate::simhash::{band_key_of, Signature, SimHasher};
use crate::{item_backend, ItemId};

/// Diagnostics from one search.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Distinct in-scope candidates that came out of the band buckets.
    pub candidates: usize,
    /// How many were scored exactly. Of a candidate set of at most
    /// [`BOUND_FIRST_PER_RESULT`]` · k` rows, every resident row the
    /// exclusion filter kept, and the attached rows whose bound reached the
    /// top-k; of a larger set, only the rows whose bound reached it, and
    /// the `k` rows of largest bound that seeded it. A row a bound ruled
    /// out is never scored and does not count.
    pub scored: usize,
    /// Attached blocks whose payload was fetched for exact scoring, each
    /// once.
    pub blocks_read: usize,
    /// Attached blocks holding a candidate that were never fetched: the row
    /// bounds proved none of their candidate rows could reach the top-k.
    pub blocks_pruned: usize,
}

/// Why a search under a [`Deadline`] returned no ranking.
#[derive(Debug)]
pub enum SearchError {
    /// The budget ran out at this phase boundary.
    Expired(Phase),
    /// An attached block could not be read back intact (I/O failure, or a
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

/// Candidates per requested result above which a search bounds every
/// candidate row — resident ones too — before it scores any: a gathered
/// set of more than `48 · k` rows is bounded, seeded with the `k` largest
/// bounds scored exactly, and re-ranked over the rows whose bound still
/// reaches the threshold; a smaller one scores its resident rows outright.
/// Bounding first pays where the candidates' vectors are out of cache,
/// which is where large sets come from — large corpora; the count stands in
/// for that (the measured crossover is in DESIGN.md §8 "Per-candidate
/// cost").
pub const BOUND_FIRST_PER_RESULT: usize = 48;

/// Rows a page [`SimHashLshIndex::grow`] opens holds at most. Only
/// allocation hangs on it: a resident page's buffers grow in place up to
/// the last row taken, so a full one never moves.
const RESIDENT_ROWS: usize = 1024;

/// Where a page's vectors are.
enum Payload {
    /// In memory: `dim` floats, one sketched record (`dim + 12` bytes, the
    /// layout of a segment's slab record, the L2 norm last) and the packed
    /// signature words of each row, up to the last row taken so far (stale
    /// for a free row). `norms` repeats each record's norm densely for the
    /// unbounded scan of a small candidate set, which would otherwise read
    /// one more cache line a row for it.
    Resident { vectors: Vec<f32>, norms: Vec<f32>, records: Vec<u8>, sigs: Vec<u64> },
    /// An attached segment, `live` of whose rows are still stored: row `at`
    /// of the page is row `at` of the segment. Records and signature words
    /// are read from the segment's slab, vectors through its block cache.
    /// A removed row stays dead until the removal that empties the page
    /// makes it resident: the segment's blocks leave the cache, the hold on
    /// it goes, and its rows join the free list.
    Attached { segment: Arc<VectorSegment>, live: usize },
}

impl Payload {
    /// A resident payload no row has been taken from.
    fn resident() -> Payload {
        let (vectors, norms, records, sigs) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        Payload::Resident { vectors, norms, records, sigs }
    }
}

/// A run of consecutive row numbers with one payload.
struct Page {
    /// Row number of the page's first row; row `n` of the page is at
    /// `n - first`.
    first: u32,
    /// Rows the page holds.
    len: u32,
    payload: Payload,
}

impl Page {
    /// The page's row numbers.
    fn span(&self) -> std::ops::Range<usize> {
        self.first as usize..(self.first + self.len) as usize
    }

    /// The packed signature words (`words` of them) of the row at `at`.
    fn sig_words(&self, at: usize, words: usize) -> &[u64] {
        match &self.payload {
            Payload::Resident { sigs, .. } => &sigs[at * words..(at + 1) * words],
            Payload::Attached { segment, .. } => segment.sig_words(at),
        }
    }

    /// The segment an attached page is.
    #[inline]
    fn segment(&self) -> &VectorSegment {
        match &self.payload {
            Payload::Attached { segment, .. } => segment,
            _ => unreachable!("only an attached page is a segment"),
        }
    }

    /// Every row's sketched record (`paged::record_len(dim, true)` bytes
    /// each), in row order.
    #[inline]
    fn records(&self) -> &[u8] {
        match &self.payload {
            Payload::Resident { records, .. } => records,
            Payload::Attached { segment, .. } => segment.records(),
        }
    }

    /// The sketched record (`len` bytes) of the row at `at`.
    #[inline]
    fn record(&self, at: usize, len: usize) -> &[u8] {
        &self.records()[at * len..(at + 1) * len]
    }

    /// The segment block holding the row at `at`; `None` for a page that
    /// holds its own vectors.
    fn block_of(&self, at: usize) -> Option<usize> {
        match &self.payload {
            Payload::Attached { segment, .. } => Some(segment.block_of(at)),
            _ => None,
        }
    }

    /// The block holding the row at `at`, fetched through the cache; `None`
    /// for a page that holds its own vectors.
    fn fetch(&self, at: usize) -> Result<Option<Arc<Vec<f32>>>, SegmentError> {
        match &self.payload {
            Payload::Attached { segment, .. } => segment.block(segment.block_of(at)).map(Some),
            _ => Ok(None),
        }
    }

    /// The vector and stored norm of the row at `at`, borrowed from the
    /// page or, attached, from `fetched` (the block holding it, as
    /// [`Self::fetch`] returned it).
    fn row<'a>(&'a self, at: usize, dim: usize, fetched: Option<&'a [f32]>) -> (&'a [f32], f32) {
        match (&self.payload, fetched) {
            (Payload::Resident { vectors, norms, .. }, _) => {
                (&vectors[at * dim..(at + 1) * dim], norms[at])
            }
            (Payload::Attached { segment, .. }, Some(data)) => {
                let i = at - segment.block_span(segment.block_of(at)).start;
                (&data[i * dim..(i + 1) * dim], segment.norm(at))
            }
            _ => unreachable!("a stored row is resident, or attached and fetched"),
        }
    }
}

/// What [`SimHashLshIndex::fetch_all`] holds of each page: every block of an
/// attached page that stores a row, by block number (`None` for the rest).
type Fetched = Vec<Option<Arc<Vec<f32>>>>;

/// One row of the table: the page it belongs to and, while it stores an
/// item, the item's id (`None` for a free resident row or a dead attached
/// one). The scan reads both with one load.
#[derive(Debug, Clone, Copy)]
struct Row {
    page: u32,
    id: Option<ItemId>,
}

/// One block's candidate rows in the bounded pass — `rows[start..end]` of
/// the scratch — under the largest of their bounds. Ordered so that the
/// greatest group is the block to visit next: the largest bound (never
/// NaN), and among equal bounds the first in row order, which is the
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
/// nothing: the candidate bitset — one bit per row number; **all-zero
/// between searches** — and the bounded pass's candidate rows (`(page,
/// place in the page, id)`), quantized query, row bounds (aligned with the
/// rows), seed rows (bound and index into the rows) and block groups.
#[derive(Default)]
struct SearchScratch {
    bits: Vec<u64>,
    rows: Vec<(u32, u32, ItemId)>,
    query: QueryCodes,
    bounds: Vec<f64>,
    seeds: Vec<(f64, u32)>,
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

/// An LSH index over unit vectors keyed by [`ItemId`].
pub struct SimHashLshIndex {
    /// Shareable with a caller that signs outside this index's lock (see
    /// [`Self::with_hasher`]): the planes are a function of
    /// `(dim, bits, seed)` alone.
    hasher: Arc<SimHasher>,
    params: LshParams,
    /// Extra single-bit-flip probes per band (0 = plain LSH).
    probes: usize,
    /// The pages, in row-number order.
    pages: Vec<Page>,
    /// Every row, by row number.
    rows: Vec<Row>,
    /// Id → row number of every stored item.
    locator: FxHashMap<ItemId, u32>,
    /// Free resident rows, reused LIFO before the table grows.
    free: Vec<u32>,
    /// One bucket map per band: band key -> row numbers. Every entry names
    /// a stored row.
    bands: Vec<FxHashMap<u64, Vec<u32>>>,
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
/// place a score is finished, so resident and attached rows agree bit for
/// bit.
#[inline]
fn cosine_of(dot: f32, qnorm: f32, norm: f32) -> f32 {
    let denom = qnorm * norm;
    if denom <= f32::MIN_POSITIVE {
        return 0.0;
    }
    (dot / denom).clamp(-1.0, 1.0)
}

/// Exact cosine of the query against row `row` of a paged block: the same
/// kernel dot (to which the resident rows' `dot4` is bit-equal), the same
/// stored norm and the same [`cosine_of`] as a resident row.
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

/// Fill `seeds` with the `seed` (≥ 1, at most `bounds.len()`) largest of
/// `bounds`, as `(bound, index)`, in index order — row order, so the seeds
/// of one block are one visit. One pass: `seeds` holds the best so far,
/// `low` the place of the least of them and `floor` its bound, so a bound
/// that displaces none costs one compare. (`select_nth_unstable` over the
/// indices cost ~9 ns a candidate, this pass ~1.)
fn largest_bounds(bounds: &[f64], seed: usize, seeds: &mut Vec<(f64, u32)>) {
    seeds.clear();
    seeds.extend((0..seed).map(|i| (bounds[i], i as u32)));
    let least = |seeds: &[(f64, u32)]| {
        let low = (0..seeds.len()).min_by(|&a, &b| seeds[a].0.total_cmp(&seeds[b].0));
        let low = low.expect("a seed");
        (low, seeds[low].0)
    };
    let (mut low, mut floor) = least(seeds);
    for (i, &ub) in bounds.iter().enumerate().skip(seed) {
        if ub > floor {
            seeds[low] = (ub, i as u32);
            (low, floor) = least(seeds);
        }
    }
    seeds.sort_unstable_by_key(|&(_, i)| i);
}

/// Up to four resident rows `(vector, norm, id)` waiting for one
/// [`kernel::dot4`] pass, and how many rows it has scored into `topk`. A
/// row's score does not depend on its batch (`dot4` is bit-equal to `dot`),
/// and four rows keep four cache-miss streams in flight.
struct Batch<'a> {
    query: &'a [f32],
    qnorm: f32,
    rows: [(&'a [f32], f32, ItemId); 4],
    filled: usize,
    scored: usize,
}

impl<'a> Batch<'a> {
    fn new(query: &'a [f32], qnorm: f32) -> Self {
        Batch { query, qnorm, rows: [(&[], 0.0, 0); 4], filled: 0, scored: 0 }
    }

    /// Add a row; a full batch is scored. True when it was.
    #[inline]
    fn push(&mut self, row: (&'a [f32], f32, ItemId), topk: &mut TopK<ItemId>) -> bool {
        self.rows[self.filled] = row;
        self.filled += 1;
        if self.filled < self.rows.len() {
            return false;
        }
        let dots = kernel::dot4(self.query, self.rows.map(|(vector, ..)| vector));
        for (&(_, norm, id), dot) in self.rows.iter().zip(dots) {
            topk.push(cosine_of(dot, self.qnorm, norm) as f64, id);
        }
        (self.scored, self.filled) = (self.scored + self.filled, 0);
        true
    }

    /// Score the rows left, one `dot` each; returns the rows scored in all.
    fn finish(self, topk: &mut TopK<ItemId>) -> usize {
        for &(vector, norm, id) in &self.rows[..self.filled] {
            topk.push(cosine_of(kernel::dot(self.query, vector), self.qnorm, norm) as f64, id);
        }
        self.scored + self.filled
    }
}

/// Score the rows of `run` — candidate rows of one resident page, whose
/// `(vectors, norms)` these are, `bounds` theirs — whose bound is not below
/// the threshold (nor NaN: scored already), four per kernel pass. The
/// threshold is read again after every pass. Returns how many were scored.
fn score_survivors(
    query: &[f32],
    qnorm: f32,
    dim: usize,
    (vectors, norms): (&[f32], &[f32]),
    run: &[(u32, u32, ItemId)],
    bounds: &[f64],
    topk: &mut TopK<ItemId>,
) -> usize {
    let mut floor = topk.threshold().unwrap_or(f64::NEG_INFINITY);
    let mut batch = Batch::new(query, qnorm);
    for (&(_, at, id), &ub) in run.iter().zip(bounds) {
        if ub.is_nan() || ub < floor {
            continue;
        }
        let at = at as usize;
        if batch.push((&vectors[at * dim..(at + 1) * dim], norms[at], id), topk) {
            floor = topk.threshold().unwrap_or(f64::NEG_INFINITY);
        }
    }
    batch.finish(topk)
}

/// A finished heap as the public `(id, cosine)` ranking, best first.
fn ranking(topk: TopK<ItemId>) -> Vec<(ItemId, f32)> {
    topk.into_sorted().into_iter().map(|(s, id)| (id, s as f32)).collect()
}

/// A block that no longer reads back, on a path with no error to return it
/// through (segments were validated at open — losing one mid-flight is an
/// environment failure the index cannot recover from).
fn lost_block(e: SegmentError) -> ! {
    panic!("paged tier lost a sealed block: {e}")
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
            pages: Vec::new(),
            rows: Vec::new(),
            locator: FxHashMap::default(),
            free: Vec::new(),
            bands: (0..params.bands).map(|_| FxHashMap::default()).collect(),
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

    /// Number of stored items, resident and attached.
    pub fn len(&self) -> usize {
        self.locator.len()
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.locator.is_empty()
    }

    /// The attached pages, as `(segment, live rows)`, in row order.
    fn attached(&self) -> impl Iterator<Item = (&Arc<VectorSegment>, usize)> + '_ {
        self.pages.iter().filter_map(|page| match &page.payload {
            Payload::Attached { segment, live, .. } => Some((segment, *live)),
            _ => None,
        })
    }

    /// Number of items served from attached segments.
    pub fn cold_len(&self) -> usize {
        self.attached().map(|(_, live)| live).sum()
    }

    /// True when `id` is stored.
    pub fn contains(&self, id: ItemId) -> bool {
        self.locator.contains_key(&id)
    }

    /// Number of attached segments with a live row. A segment's pages are
    /// consecutive, so counting runs counts segments.
    pub fn cold_segment_count(&self) -> usize {
        let mut segments: Vec<*const VectorSegment> =
            self.attached().map(|(segment, _)| Arc::as_ptr(segment)).collect();
        segments.dedup();
        segments.len()
    }

    /// The page holding row `n`, and the row's place in it.
    #[inline]
    fn locate(&self, n: usize) -> (&Page, usize) {
        let page = &self.pages[self.rows[n].page as usize];
        (page, n - page.first as usize)
    }

    /// The rows of `page` that store an item, as `(place in the page, id)`.
    fn stored<'a>(&'a self, page: &Page) -> impl Iterator<Item = (usize, ItemId)> + 'a {
        let rows = self.rows[page.span()].iter().enumerate();
        rows.filter_map(|(at, row)| Some((at, row.id?)))
    }

    /// Insert (or replace) an item. Zero vectors are rejected — they carry
    /// no signal and would collide with everything on the sign boundary.
    /// Returns false if the vector was zero or of the wrong dimension.
    pub fn insert(&mut self, id: ItemId, vector: &[f32]) -> bool {
        if vector.len() != self.dim() || vector.iter().all(|&x| x == 0.0) {
            return false;
        }
        let sig = self.hasher.sign(vector);
        self.insert_signed(id, vector, sig, &RowSketch::of(vector));
        true
    }

    /// Insert with a precomputed signature (must come from a hasher with
    /// this index's geometry and seed) and record (`RowSketch::of(vector)`).
    /// Lets callers do the projection and the quantization outside the
    /// index's lock; the remaining work is copies, bucket pushes and map
    /// inserts. The vector must already be validated (non-zero, right
    /// dimension).
    pub fn insert_signed(
        &mut self,
        id: ItemId,
        vector: &[f32],
        sig: Signature,
        sketch: &RowSketch,
    ) {
        debug_assert_eq!(vector.len(), self.dim());
        debug_assert_eq!(sig.bits, self.params.bits());
        debug_assert_eq!(sketch, &RowSketch::of(vector));
        self.insert_row(id, &sig.words, |slot, record| {
            slot.copy_from_slice(vector);
            record.copy_from_slice(sketch.record());
        });
    }

    /// Insert (or replace) a resident row from its packed signature `words`
    /// and a `fill` that writes the vector and then its sketched record
    /// straight into its page — how a hydrating load installs a row it
    /// decodes from a block: bucketed from the signature the build
    /// derived, nothing re-projected.
    fn insert_row(&mut self, id: ItemId, words: &[u64], fill: impl FnOnce(&mut [f32], &mut [u8])) {
        let (dim, width) = (self.dim(), self.words_per_sig());
        let len = paged::record_len(dim, true);
        debug_assert_eq!(words.len(), width);
        self.remove(id);
        let n = match self.free.pop() {
            Some(n) => n,
            None => self.grow(),
        };
        let page = &mut self.pages[self.rows[n as usize].page as usize];
        let at = (n - page.first) as usize;
        let Payload::Resident { vectors, norms, records, sigs } = &mut page.payload else {
            unreachable!("a free row is resident");
        };
        // Past the last row taken so far: one `grow` appended, or a row of
        // an attached page that became resident (its rows are handed out
        // in order, so a retired segment's page grows as it refills).
        if sigs.len() <= at * width {
            vectors.resize((at + 1) * dim, 0.0);
            norms.resize(at + 1, 0.0);
            records.resize((at + 1) * len, 0);
            sigs.resize((at + 1) * width, 0);
        }
        let record = &mut records[at * len..(at + 1) * len];
        fill(&mut vectors[at * dim..(at + 1) * dim], record);
        norms[at] = record_norm(record);
        sigs[at * width..(at + 1) * width].copy_from_slice(words);
        self.rows[n as usize].id = Some(id);
        self.locator.insert(id, n);
        bucket(&mut self.bands, self.params.rows, n, words);
    }

    /// A new free row at the end of the table: in the last page while that
    /// is resident and not full, else in a new resident page.
    fn grow(&mut self) -> u32 {
        let n = u32::try_from(self.rows.len()).expect("row numbers fit a u32");
        let open = self.pages.last().is_some_and(|page| {
            matches!(page.payload, Payload::Resident { .. }) && (page.len as usize) < RESIDENT_ROWS
        });
        if !open {
            self.pages.push(Page { first: n, len: 0, payload: Payload::resident() });
        }
        self.pages.last_mut().expect("a page is open").len += 1;
        self.rows.push(Row { page: self.pages.len() as u32 - 1, id: None });
        n
    }

    /// `u64` words per packed signature.
    fn words_per_sig(&self) -> usize {
        self.params.bits().div_ceil(64)
    }

    /// Remove an item; true if it was present. A row leaves its buckets
    /// **before** its row number can be reused: no entry ever outlives the
    /// row it names. A resident row's number goes on the free list; an
    /// attached row's stays dead (its on-disk row is unreachable weight
    /// until the next seal) until the removal that empties its page makes
    /// the page resident — and with the last page of a segment the segment
    /// closes.
    pub fn remove(&mut self, id: ItemId) -> bool {
        let Some(n) = self.locator.remove(&id) else {
            return false;
        };
        let width = self.words_per_sig();
        let row = &mut self.rows[n as usize];
        row.id = None;
        let p = row.page as usize;
        let page = &self.pages[p];
        let at = (n - page.first) as usize;
        unbucket(&mut self.bands, self.params.rows, n, page.sig_words(at, width));
        match page.payload {
            Payload::Resident { .. } => self.free.push(n),
            _ => self.release(p),
        }
        true
    }

    /// Count one row of attached page `p` out; the one that empties it
    /// retires the segment — its blocks leave the cache — and turns the
    /// page resident, its rows free.
    fn release(&mut self, p: usize) {
        let page = &mut self.pages[p];
        let Payload::Attached { segment, live } = &mut page.payload else {
            unreachable!("only an attached page releases rows");
        };
        *live -= 1;
        if *live > 0 {
            return;
        }
        segment.evict_from_cache();
        page.payload = Payload::resident();
        self.free.extend((page.first..page.first + page.len).rev());
    }

    /// Drop one backend's **attached** items only: their band entries and
    /// locator rows go, and emptied pages leave the cache and turn
    /// resident. Resident items of the backend are untouched. Returns how
    /// many attached items were dropped.
    pub fn drop_cold_backend(&mut self, backend_bits: u16) -> usize {
        let doomed: Vec<ItemId> = (self.pages.iter())
            .filter(|page| matches!(page.payload, Payload::Attached { .. }))
            .flat_map(|page| self.stored(page).map(|(_, id)| id))
            .filter(|&id| item_backend(id) == backend_bits)
            .collect();
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

    /// Attach a sealed segment: its rows become one attached page, and
    /// every row `map` keeps is indexed into the band buckets from its
    /// **resident** signature (no payload read — hydration stays lazy) and
    /// becomes searchable, served from disk through the block cache. Rows
    /// replace any same-id item already stored (newest attach wins).
    /// Returns how many rows were attached.
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
        if self.rows.len() + segment.row_count() > u32::MAX as usize {
            return Err(CodecError::Invalid(format!(
                "segment of {} rows would number the index past 2^32 rows ({} already)",
                segment.row_count(),
                self.rows.len()
            )));
        }
        let len = segment.row_count();
        if len == 0 {
            return Ok(0);
        }
        let (p, first) = (self.pages.len(), self.rows.len() as u32);
        // One count held for the page itself while its rows go in: a row
        // replacing an earlier one of the same page cannot release it.
        self.pages.push(Page {
            first,
            len: len as u32,
            payload: Payload::Attached { segment: segment.clone(), live: 1 },
        });
        self.rows.resize(first as usize + len, Row { page: p as u32, id: None });
        let mut attached = 0usize;
        for (at, &stored) in segment.ids().iter().enumerate() {
            let Some(id) = map(stored) else {
                continue;
            };
            self.remove(id);
            if let Payload::Attached { live, .. } = &mut self.pages[p].payload {
                *live += 1;
            }
            let n = first + at as u32;
            self.rows[n as usize].id = Some(id);
            self.locator.insert(id, n);
            bucket(&mut self.bands, self.params.rows, n, segment.sig_words(at));
            attached += 1;
        }
        // A page nothing was admitted to is released on the spot.
        self.release(p);
        Ok(attached)
    }

    /// Hydrate from a sealed segment: every block is read once, in runs of
    /// adjacent blocks with one positioned read each, CRC-checked, and each
    /// row `map` keeps (under the id it returns, as in
    /// [`Self::attach_segment_mapped`]) is decoded straight into a resident
    /// page and bucketed from its stored signature words. Its record is
    /// copied from the segment's slab — or, from a file sealed without
    /// sketches, derived from the decoded vector under its stored norm.
    /// Nothing pages afterwards: the rows are resident, and the segment can
    /// be dropped. Returns how many rows were installed; on an error the
    /// index holds the runs read so far, so hydrate an index nothing else
    /// sees yet.
    pub fn hydrate(
        &mut self,
        segment: &VectorSegment,
        map: impl Fn(ItemId) -> Option<ItemId>,
    ) -> Result<usize, SegmentError> {
        self.fits(segment)?;
        let row_bytes = self.dim() * 4;
        let mut installed = 0usize;
        segment.for_each_payload(|block, payload| {
            for (row, raw) in segment.block_span(block).zip(payload.chunks_exact(row_bytes)) {
                let Some(id) = map(segment.ids()[row]) else {
                    continue;
                };
                self.insert_row(id, segment.sig_words(row), |slot, record| {
                    codec::get_f32s(&mut &raw[..], slot).expect("a row's bytes fill its slot");
                    match segment.has_sketches() {
                        true => record.copy_from_slice(segment.record(row)),
                        false => paged::sketch_row(slot, segment.norm(row), record),
                    }
                });
                installed += 1;
            }
        })?;
        Ok(installed)
    }

    /// Seal every row `admit` keeps into one segment image (layout at
    /// `paged::seal_image`) whose header carries `manifest`. Rows are read
    /// **in place** — resident ones from their pages, attached ones from
    /// their blocks, fetched through the cache — with their records
    /// copied, never re-quantized, and laid out in (signature, id) order, so the bytes depend neither on where a row
    /// sits nor on insertion history. An attached block that does not read
    /// back intact is the error: nothing is sealed around a hole.
    pub fn seal(
        &self,
        block_rows: usize,
        sketches: bool,
        manifest: &[u8],
        admit: impl Fn(ItemId) -> bool,
    ) -> Result<Vec<u8>, SegmentError> {
        let fetched = self.fetch_all()?;
        let mut rows = Vec::with_capacity(self.len());
        self.rows_in_place(&fetched, admit, &mut rows);
        let (dim, bits) = (self.dim(), self.params.bits());
        Ok(paged::seal_image(dim, bits, block_rows, sketches, manifest, &mut rows))
    }

    /// The stored vector for an id, if **resident**. Attached items return
    /// `None` here; use [`Self::vector_owned`] to read through the cache.
    pub fn vector(&self, id: ItemId) -> Option<&[f32]> {
        let (page, at) = self.locate(*self.locator.get(&id)? as usize);
        match page.payload {
            Payload::Resident { .. } => Some(page.row(at, self.dim(), None).0),
            _ => None,
        }
    }

    /// The stored vector for an id, resident or attached, cloned. Attached
    /// reads go through the block cache; a segment-level I/O failure here
    /// panics.
    pub fn vector_owned(&self, id: ItemId) -> Option<Vec<f32>> {
        let (page, at) = self.locate(*self.locator.get(&id)? as usize);
        let fetched = page.fetch(at).unwrap_or_else(|e| lost_block(e));
        Some(page.row(at, self.dim(), fetched.as_deref().map(Vec::as_slice)).0.to_vec())
    }

    /// Every block that stores a row fetched once through the cache, page
    /// by page — the first half of reading the rows in place:
    /// [`Self::rows_in_place`] borrows the vectors out of it.
    fn fetch_all(&self) -> Result<Vec<Fetched>, SegmentError> {
        let fetch_page = |page: &Page| {
            let Payload::Attached { segment, .. } = &page.payload else {
                return Ok(Vec::new());
            };
            let mut blocks = vec![None; segment.block_count()];
            for (at, _) in self.stored(page) {
                let block = segment.block_of(at);
                if blocks[block].is_none() {
                    blocks[block] = Some(segment.block(block)?);
                }
            }
            Ok(blocks)
        };
        self.pages.iter().map(fetch_page).collect()
    }

    /// Append every stored row `admit` keeps to `out`, in row order,
    /// borrowed where it lives: from its page, or from `fetched` (what
    /// [`Self::fetch_all`] returned under the same borrow of `self`) and
    /// its segment's directory.
    fn rows_in_place<'a>(
        &'a self,
        fetched: &'a [Fetched],
        admit: impl Fn(ItemId) -> bool,
        out: &mut Vec<SealRow<'a>>,
    ) {
        let (dim, width) = (self.dim(), self.words_per_sig());
        let len = paged::record_len(dim, true);
        for (page, blocks) in self.pages.iter().zip(fetched) {
            for (at, id) in self.stored(page).filter(|&(_, id)| admit(id)) {
                let data = page.block_of(at).and_then(|block| blocks[block].as_deref());
                let (vector, _) = page.row(at, dim, data.map(Vec::as_slice));
                let (words, record) = (page.sig_words(at, width), page.record(at, len));
                out.push(SealRow { id, words, record, vector });
            }
        }
    }

    /// Export every stored row with its signature and norm, ready for
    /// [`crate::paged::write_vector_segment`]. Attached rows read through
    /// the cache; panics on segment I/O failure like [`Self::vector_owned`].
    pub fn export_rows(&self) -> Vec<SegmentRow> {
        let bits = self.params.bits();
        let fetched = self.fetch_all().unwrap_or_else(|e| lost_block(e));
        let mut rows = Vec::with_capacity(self.len());
        self.rows_in_place(&fetched, |_| true, &mut rows);
        rows.into_iter()
            .map(|r| SegmentRow {
                id: r.id,
                signature: Signature { words: r.words.to_vec(), bits },
                norm: record_norm(r.record),
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
            out.extend(
                entries
                    .iter()
                    .map(|&n| self.rows[n as usize].id.expect("a bucketed row is stored")),
            );
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
    /// before the exact re-rank, and before *every attached block read* —
    /// an expired request stops without fetching another block.
    /// [`SearchError::Expired`] names the boundary the budget died at;
    /// [`SearchError::Storage`] carries an attached block that could not be
    /// read back intact (it was not cached, and nothing else was disturbed:
    /// the next search reads what it needs afresh).
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

    /// The search itself, in `scratch`: one gather, one scan, one bounded
    /// pass.
    ///
    /// Gather: every entry of the signature's buckets sets one bit of the
    /// per-thread bitset. Scan: ascending
    /// over the words, clearing each as it is read, so the scratch is
    /// all-zero again on every way out. A set bit is a distinct candidate
    /// row; `scope` and `exclude` see it once. Of a gathered set of at most
    /// [`BOUND_FIRST_PER_RESULT`]` · k` rows, a resident row is scored on
    /// the spot, four per kernel pass, so the heap is as full as the
    /// resident rows can make it before any attached row is bounded, and an
    /// attached row is set aside; of a larger set every row is set aside.
    /// [`Self::bound_and_score`] takes the rows set aside, in row order —
    /// an attached page's block by block.
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
        let words = self.rows.len().div_ceil(64);
        if scratch.bits.len() < words {
            scratch.bits.resize(words, 0);
        }
        let bits = &mut scratch.bits[..words];
        let mut entries = 0usize;
        self.for_each_bucket(sig, |bucket| {
            entries += bucket.len();
            for &n in bucket {
                bits[n as usize >> 6] |= 1 << (n & 63);
            }
        });
        if let Err(phase) = deadline.check(Phase::Rerank) {
            bits.fill(0);
            return Err(phase.into());
        }
        // The rule counts distinct rows. The entries bound them from above
        // and cost nothing to count, so only a gather of more entries than
        // the rule admits counts its rows, with one pass over the bitset
        // (counting them while marking slowed the small sets' gather).
        let limit = BOUND_FIRST_PER_RESULT * k;
        let bound_all =
            entries > limit && bits.iter().map(|w| w.count_ones() as usize).sum::<usize>() > limit;

        let (dim, qnorm) = (self.dim(), kernel::norm_sq(query).sqrt());
        let mut topk = TopK::new(k);
        let mut batch = Batch::new(query, qnorm);
        let mut candidates = 0usize;
        scratch.rows.clear();
        // The scan hands rows out in ascending order, so a resident row's
        // page is mostly the last one's: its rows and slices are kept here,
        // and the row's vector is addressed from them without waiting on
        // the loads that name its page.
        let (mut span, mut slices): (_, (&[f32], &[f32])) = (0..0, (&[], &[]));
        drain_bits(bits, |n| {
            let Row { page: p, id } = self.rows[n];
            let id = id.expect("a bucketed row is stored");
            // One verdict per distinct candidate row: out of scope it is
            // not a candidate at all; excluded, it is counted and never
            // scored.
            if !scope.admits(id) {
                return;
            }
            candidates += 1;
            if exclude(id) {
                return;
            }
            let page = &self.pages[p as usize];
            let (vectors, norms) = match &page.payload {
                Payload::Resident { vectors, norms, .. } if !bound_all => (vectors, norms),
                _ => {
                    scratch.rows.push((p, (n - page.first as usize) as u32, id));
                    return;
                }
            };
            if n >= span.end {
                (span, slices) = (page.span(), (vectors.as_slice(), norms.as_slice()));
            }
            let ((vectors, norms), at) = (slices, n - span.start);
            batch.push((&vectors[at * dim..(at + 1) * dim], norms[at], id), &mut topk);
        });
        let scored = batch.finish(&mut topk);

        let seed = if bound_all { k } else { 0 };
        let (blocks_read, blocks_pruned, bounded) =
            self.bound_and_score(query, qnorm, seed, scratch, deadline, &mut topk)?;
        let scored = scored + bounded;
        Ok((ranking(topk), SearchOutcome { candidates, scored, blocks_read, blocks_pruned }))
    }

    /// The bounded pass of the exact re-rank, over the candidate rows the
    /// scan set aside (in row order, so one page's rows are one run and its
    /// slab is looked up once a run): quantize the query, touch every row's
    /// record in one loop — its loads are independent, so their cache
    /// misses overlap, where inside the bound loop each would wait on the
    /// arithmetic before it — and bound every row from its record in a
    /// second. With `seed > 0`, score the `seed` rows of largest bound
    /// first — an attached one together with its block's other candidates,
    /// as a visit of that block — so the heap is full before anything else
    /// is looked at. Then one walk in row order scores each resident row
    /// whose bound still reaches the threshold, four per kernel pass, and
    /// groups the attached rows by block, each group under its *largest*
    /// row bound; the groups the threshold does not already rule out are
    /// heapified (linear) and visited in descending bound (the rows most
    /// likely to score high fill the heap first, raising the threshold for
    /// the rest), stopping at the first group whose bound falls strictly
    /// below a *full* heap's threshold, and inside a fetched block only the
    /// rows whose own bound still reaches it are scored. Returns `(blocks
    /// read, blocks pruned, rows scored)`.
    ///
    /// A pass visits a handful of its hundreds of groups, so their order is
    /// not computed: popping the heap while the threshold admits makes the
    /// visits a full descending sort would make, in the same order (see
    /// [`BlockGroup`]).
    ///
    /// Correctness of the skip: a row's bound dominates its exact f32 score
    /// (see [`paged::row_bound`]), whichever page holds it, and the heap
    /// threshold only rises, so every skipped row scores strictly below the
    /// final k-th result — the returned top-k is bit-identical to scoring
    /// everything, by [`TopK`]'s push-order independence.
    fn bound_and_score(
        &self,
        query: &[f32],
        qnorm: f32,
        seed: usize,
        scratch: &mut SearchScratch,
        deadline: Deadline,
        topk: &mut TopK<ItemId>,
    ) -> Result<(usize, usize, usize), SearchError> {
        let SearchScratch { rows, query: codes, bounds, seeds, groups, .. } = scratch;
        if rows.is_empty() {
            return Ok((0, 0, 0));
        }
        let (dim, len) = (self.dim(), paged::record_len(self.dim(), true));
        codes.set(query, qnorm);
        let runs = || rows.chunk_by(|a, b| a.0 == b.0);
        let slab = |run: &[(u32, u32, ItemId)]| self.pages[run[0].0 as usize].records();
        let mut touched = 0u8;
        for run in runs() {
            let slab = slab(run);
            for &(_, at, _) in run {
                let record = &slab[at as usize * len..(at as usize + 1) * len];
                // A byte of every cache line the record spans.
                touched ^= record.iter().step_by(64).fold(record[len - 1], |t, &b| t ^ b);
            }
        }
        std::hint::black_box(touched);
        bounds.clear();
        for run in runs() {
            let slab = slab(run);
            bounds.extend(run.iter().map(|&(_, at, _)| {
                paged::row_bound(&slab[at as usize * len..(at as usize + 1) * len], codes)
            }));
        }

        // A row scored here gets a NaN bound, which no pass below scores
        // again: every real bound is a number (see `paged::row_bound`).
        let (mut blocks_read, mut scored) = (0usize, 0usize);
        let seed = seed.min(rows.len());
        if seed > 0 {
            largest_bounds(bounds, seed, seeds);
            let mut batch = Batch::new(query, qnorm);
            for &(_, i) in seeds.iter() {
                let i = i as usize;
                let (p, at, id) = rows[i];
                let page = &self.pages[p as usize];
                if bounds[i].is_nan() {
                    continue;
                }
                let Payload::Attached { segment, .. } = &page.payload else {
                    let (vector, norm) = page.row(at as usize, dim, None);
                    batch.push((vector, norm, id), topk);
                    bounds[i] = f64::NAN;
                    continue;
                };
                let span = segment.block_span(segment.block_of(at as usize));
                let in_block =
                    |row: &&(u32, u32, ItemId)| row.0 == p && span.contains(&(row.1 as usize));
                let start = i - rows[..i].iter().rev().take_while(in_block).count();
                let end = i + rows[i..].iter().take_while(in_block).count();
                let (block_rows, block_bounds) = (&rows[start..end], &bounds[start..end]);
                scored +=
                    self.visit_block(query, qnorm, block_rows, block_bounds, deadline, topk)?;
                blocks_read += 1;
                bounds[start..end].fill(f64::NAN);
            }
            scored += batch.finish(topk);
        }

        groups.clear();
        let mut total = 0usize;
        let mut run_start = 0usize;
        for run in rows.chunk_by(|a, b| a.0 == b.0) {
            let (page, first) = (&self.pages[run[0].0 as usize], run_start);
            run_start += run.len();
            let run_bounds = &bounds[first..run_start];
            let segment = match &page.payload {
                Payload::Resident { vectors, norms, .. } => {
                    scored +=
                        score_survivors(query, qnorm, dim, (vectors, norms), run, run_bounds, topk);
                    continue;
                }
                Payload::Attached { segment, .. } => segment,
            };
            // One group per block — a block's rows are together, and a
            // row's place in its page is its row in the segment: its block's
            // last row is arithmetic on that number.
            let mut end = 0usize;
            while let Some(&(_, at, _)) = run.get(end) {
                let past = segment.block_span(segment.block_of(at as usize)).end as u32;
                let (start, mut bound) = (end, f64::NEG_INFINITY);
                while let Some(row) = run.get(end).filter(|row| row.1 < past) {
                    debug_assert!(row.1 >= at);
                    bound = bound.max(run_bounds[end]);
                    end += 1;
                }
                // A seed's visit read this block already.
                if run_bounds[start].is_nan() {
                    continue;
                }
                total += 1;
                // The threshold only rises, so a group under it now could
                // never be visited: it is counted and never enters the heap.
                if !topk.threshold().is_some_and(|threshold| bound < threshold) {
                    let (start, end) = ((first + start) as u32, (first + end) as u32);
                    groups.push(BlockGroup { bound, start, end });
                }
            }
        }
        // The buffer goes back to the scratch below; a pass that dies on its
        // way there (deadline, storage) leaves it to the next to regrow.
        let mut heap = BinaryHeap::from(std::mem::take(groups));

        let mut visited = 0usize;
        while let Some(group) = heap.pop() {
            // Bounds come out descending and the threshold only rises: once
            // one block is out, so is every block still in the heap.
            if topk.threshold().is_some_and(|threshold| group.bound < threshold) {
                break;
            }
            let range = group.start as usize..group.end as usize;
            let (block_rows, block_bounds) = (&rows[range.clone()], &bounds[range]);
            scored += self.visit_block(query, qnorm, block_rows, block_bounds, deadline, topk)?;
            visited += 1;
        }
        *groups = heap.into_vec();
        Ok((blocks_read + visited, total - visited, scored))
    }

    /// Fetch the attached block holding `rows` — one block's candidate rows,
    /// `bounds` theirs — and score each whose bound is not below the
    /// threshold (nor NaN: scored already). The budget check sits directly
    /// in front of the fetch: a block read is the most expensive step a
    /// query can take, so an expired request never starts another one.
    /// Returns how many rows were scored.
    fn visit_block(
        &self,
        query: &[f32],
        qnorm: f32,
        rows: &[(u32, u32, ItemId)],
        bounds: &[f64],
        deadline: Deadline,
        topk: &mut TopK<ItemId>,
    ) -> Result<usize, SearchError> {
        deadline.check(Phase::BlockRead)?;
        let (p, at, _) = rows[0];
        let segment = self.pages[p as usize].segment();
        let block = segment.block_of(at as usize);
        let (first, data) = (segment.block_span(block).start, segment.block(block)?);
        let mut scored = 0usize;
        for (&(_, at, id), &ub) in rows.iter().zip(bounds) {
            if ub.is_nan() || topk.threshold().is_some_and(|threshold| ub < threshold) {
                continue;
            }
            let at = at as usize;
            topk.push(score_row(query, qnorm, segment.norm(at), &data, at - first, self.dim()), id);
            scored += 1;
        }
        Ok(scored)
    }

    /// Exact search over *all* stored vectors (ignores the LSH buckets) —
    /// the ANN-quality reference used in ablations. Walks the rows in row
    /// order; the reference must not prune, so every block holding a stored
    /// attached row is read through the cache, one block at a time.
    pub fn search_exact(
        &self,
        query: &[f32],
        k: usize,
        exclude: impl Fn(ItemId) -> bool,
    ) -> Vec<(ItemId, f32)> {
        let (dim, qnorm) = (self.dim(), kernel::norm_sq(query).sqrt());
        let mut topk = TopK::new(k);
        for page in &self.pages {
            let mut held: Option<(usize, Arc<Vec<f32>>)> = None;
            for (at, id) in self.stored(page).filter(|&(_, id)| !exclude(id)) {
                let block = page.block_of(at);
                if block.is_some() && held.as_ref().map(|h| h.0) != block {
                    let fetched = page.fetch(at).unwrap_or_else(|e| lost_block(e));
                    held = block.zip(fetched);
                }
                let (vector, norm) = page.row(at, dim, held.as_ref().map(|h| h.1.as_slice()));
                topk.push(cosine_of(kernel::dot(query, vector), qnorm, norm) as f64, id);
            }
        }
        ranking(topk)
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

    /// The segment the first attached page is a block of.
    fn first_segment(index: &SimHashLshIndex) -> &Arc<VectorSegment> {
        index.attached().next().expect("an attached page").0
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
            for (row, vector) in segment.block_span(b).zip(data.chunks_exact(32)) {
                assert_eq!(segment.sig_words(row), &index.hasher().sign(vector).words[..]);
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
        mixed.fetch_all().expect("cached");
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
                        index.write().insert_signed(id, &v, sig, &RowSketch::of(&v));
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
            // Pruned rows are unscored; the resident index scored everything.
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
            hot.insert_signed(id as ItemId, v, sig.clone(), &RowSketch::of(v));
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
        // One row a page, the pages the system chooses between, one that
        // divides nothing, and the previous default.
        for block_rows in [1usize, 2, 3, 4, 16] {
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
                // Every other pass enters the bounded pass with a full
                // heap: five resident rows near the query, bucketed under
                // its own signature, which the scan scores first.
                let entering: Vec<(ItemId, Vec<f32>)> = (1_000..)
                    .filter(|&id| !exclude(id))
                    .take(5 * (q % 2))
                    .map(|id| (id, perturb(&query, 0.1, &mut near)))
                    .collect();
                for (id, v) in &entering {
                    paged.insert_signed(*id, v, sig.clone(), &RowSketch::of(v));
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
                let attached = |&(n, _): &(usize, ItemId)| {
                    matches!(paged.locate(n).0.payload, Payload::Attached { .. })
                };
                let mut rows: Vec<(usize, ItemId)> = (candidate_ids(&paged, &sig).into_iter())
                    .filter(|&id| !exclude(id))
                    .map(|id| (paged.locator[&id] as usize, id))
                    .filter(attached)
                    .collect();
                rows.sort_unstable();
                let mut codes = QueryCodes::default();
                codes.set(&query, qnorm);
                let bound = |n: usize| {
                    let (page, at) = paged.locate(n);
                    page.segment().cosine_upper_bound(at, &codes)
                };
                // A group is the candidate rows of one block: the same page
                // and the same `block_rows`-row run of its segment.
                let block_of = |n: usize| (paged.rows[n].page, paged.locate(n).1 / block_rows);
                let mut groups = Vec::new();
                for group in rows.chunk_by(|a, b| block_of(a.0) == block_of(b.0)) {
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
                    let segment = paged.locate(group[0].0).0.segment();
                    let block = block_of(group[0].0).1;
                    let data = segment.block(block).expect("read");
                    read += 1;
                    for &(n, id) in group {
                        if want.threshold().is_some_and(|threshold| bound(n) < threshold) {
                            continue;
                        }
                        let at = paged.locate(n).1;
                        let i = at - block * block_rows;
                        want.push(score_row(&query, qnorm, segment.norm(at), &data, i, 32), id);
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
        assert!(tied_passes > 60, "equal bounds must be common: {tied_passes} of 300 passes");
        assert!(stopped_early > 60, "most passes must stop before the last group: {stopped_early}");
        assert!(
            ruled_out_on_entry > 10,
            "a full heap must rule some passes out: {ruled_out_on_entry}"
        );
    }

    #[test]
    fn a_large_candidate_set_is_bounded_first_and_ranks_as_exact_scoring() {
        // Sixteen distinct vectors in two families, each under twelve ids:
        // the copies of a vector bound and score exactly alike, so ties are
        // everywhere, and a query's candidate set is ~96 rows — above the
        // rule at k = 1, below it at k = 2 and 3. And an axis under sixty
        // ids, which scores exactly 1.0 against itself: its copies' bounds
        // (capped at 1.0) *equal* the threshold, and only scoring them finds
        // the smallest id. Resident rows go in in a shuffled order, so row
        // order is not id order.
        let mut rng = Xoshiro256pp::new(61);
        let pool = clustered(32, 2, 8, &mut rng);
        let mut axis = vec![0.0f32; 32];
        axis[0] = 1.0;
        let vector_of = |id: ItemId| if id < 192 { &pool[id as usize % pool.len()] } else { &axis };
        let mut ids: Vec<ItemId> = (0..252).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (rng.gen_u64() % (i as u64 + 1)) as usize);
        }
        let mut resident = SimHashLshIndex::for_threshold(32, 0.7, 53);
        let mut even = SimHashLshIndex::for_threshold(32, 0.7, 53);
        for &id in &ids {
            resident.insert(id, vector_of(id));
            if id % 2 == 0 {
                even.insert(id, vector_of(id));
            }
        }
        let (attached, _cache, attached_dir) = seal_and_attach(&resident, "bounded-all", 2, 0);
        let (mut mixed, _cache, mixed_dir) = seal_and_attach(&even, "bounded-mixed", 3, 0);
        for &id in ids.iter().filter(|&id| id % 2 == 1) {
            mixed.insert(id, vector_of(id));
        }
        assert_eq!((attached.cold_len(), mixed.cold_len(), mixed.len()), (252, 126, 252));

        let exclude = |id: ItemId| id % 7 == 0;
        let mut bounded = [0usize; 3];
        for q in 0..40 {
            let query = match q % 3 {
                0 => perturb(&pool[q % pool.len()], 0.05, &mut rng),
                1 => pool[q % pool.len()].clone(),
                _ => axis.clone(),
            };
            let qnorm = kernel::norm_sq(&query).sqrt();
            for k in [1usize, 2, 3] {
                for (tier, index) in [(0, &resident), (1, &attached), (2, &mixed)] {
                    let ids = candidate_ids(index, &index.hasher().sign(&query));
                    let mut want = TopK::new(k);
                    for &id in ids.iter().filter(|&&id| !exclude(id)) {
                        let v = vector_of(id);
                        let norm = kernel::norm_sq(v).sqrt();
                        want.push(cosine_of(kernel::dot(&query, v), qnorm, norm) as f64, id);
                    }
                    let (got, outcome) = searched(index, &query, k, exclude);
                    assert_eq!(got, ranking(want), "tier {tier}, query {q}, k {k}");
                    assert_eq!(outcome.candidates, ids.len(), "tier {tier}, query {q}, k {k}");
                    // No row is scored twice (a seed included).
                    let kept = ids.iter().filter(|&&id| !exclude(id)).count();
                    assert!(outcome.scored <= kept, "tier {tier}, query {q}, k {k}: {outcome:?}");
                    if ids.len() <= BOUND_FIRST_PER_RESULT * k {
                        continue;
                    }
                    bounded[tier] += 1;
                    assert!(outcome.scored < outcome.candidates, "tier {tier}: {outcome:?}");
                    // Every attached block holding a candidate is read or
                    // pruned, once.
                    let mut blocks: Vec<(u32, usize)> = (ids.iter())
                        .filter(|&&id| !exclude(id))
                        .map(|id| index.locator[id] as usize)
                        .filter_map(|n| {
                            Some((
                                index.rows[n].page,
                                index.locate(n).0.block_of(index.locate(n).1)?,
                            ))
                        })
                        .collect();
                    blocks.sort_unstable();
                    blocks.dedup();
                    let seen = outcome.blocks_read + outcome.blocks_pruned;
                    assert_eq!(seen, blocks.len(), "tier {tier}, query {q}, k {k}");
                }
            }
        }
        assert!(
            bounded.iter().all(|&n| n > 20),
            "every tier must reach the bounded pass: {bounded:?}"
        );
        std::fs::remove_dir_all(&attached_dir).ok();
        std::fs::remove_dir_all(&mixed_dir).ok();
    }

    #[test]
    fn hydrated_records_are_copied_and_survive_a_seal_byte_for_byte() {
        // Every stored row's record, by id, wherever the row sits.
        let records = |index: &SimHashLshIndex| -> Vec<(ItemId, Vec<u8>)> {
            let len = paged::record_len(index.dim(), true);
            let mut out: Vec<(ItemId, Vec<u8>)> = (index.pages.iter())
                .flat_map(|page| {
                    index.stored(page).map(|(at, id)| (id, page.record(at, len).to_vec()))
                })
                .collect();
            out.sort_unstable();
            out
        };
        let (index, vectors) = populated(90, 71);
        let want = records(&index);
        assert_eq!(want.len(), 90);
        // Through a file with sketches, twice: the records are copied, and
        // the image is a fixed point.
        let sketched = index.seal(8, true, &[], |_| true).expect("seal");
        let first = hydrated(&sketched, &index);
        assert_eq!(records(&first), want);
        let again = first.seal(8, true, &[], |_| true).expect("seal");
        assert_eq!(again, sketched);
        assert_eq!(records(&hydrated(&again, &index)), want);
        // A file without sketches, as checkpoints were written before they
        // carried them, still hydrates: each record is derived from the
        // decoded row, and comes out the same.
        let plain = hydrated(&sealed(&index, 8), &index);
        assert_eq!(records(&plain), want);
        let attached = seal_and_attach(&index, "records", 4, 0);
        assert_eq!(records(&attached.0), want, "an attached row's record is the same record");
        for (q, query) in vectors.iter().step_by(9).enumerate() {
            for k in [1, 3] {
                let ranked = searched(&index, query, k, |_| false).0;
                for other in [&first, &plain, &attached.0] {
                    assert_eq!(searched(other, query, k, |_| false).0, ranked, "query {q}, k {k}");
                }
            }
        }
        std::fs::remove_dir_all(&attached.2).ok();
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
            let segment = Arc::downgrade(first_segment(&paged));
            for (id, v) in vectors.iter().enumerate() {
                assert_eq!(paged.cold_segment_count(), 1, "{tag}: {} rows still live", 40 - id);
                kill(&mut paged, id as ItemId, v);
            }
            assert_eq!((paged.len(), paged.cold_len(), paged.cold_segment_count()), (left, 0, 0));
            assert_eq!(cache.stats().len, 0, "{tag}: retirement drops cached blocks");
            assert!(segment.upgrade().is_none(), "{tag}: the file must be closed");
            assert!(paged.attached().next().is_none(), "{tag}: every page was released");
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
                        index.insert_signed(id, v, index.hasher().sign(v), &RowSketch::of(v));
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

    /// The table invariants. Buckets: every entry names a stored row whose
    /// signature lands in that bucket, no bucket is empty or names a row
    /// twice, and — the entry count being `bands` per stored item — every
    /// stored row sits in exactly `bands` buckets. Rows: the pages number
    /// the rows in consecutive runs, the locator names exactly the stored
    /// rows, an attached page counts its stored rows (at least one), and the
    /// free list is exactly the resident rows storing nothing. Records: a
    /// stored resident row's record is, byte for byte, a fresh sketch of
    /// its vector — codes, and the bits of its scale, residual and norm —
    /// and its dense norm is the record's.
    fn assert_buckets_name_live_rows(index: &SimHashLshIndex) {
        let width = index.words_per_sig();
        let mut entries_seen = 0usize;
        for (band, buckets) in index.bands.iter().enumerate() {
            for (&key, entries) in buckets {
                assert!(!entries.is_empty(), "band {band}: an empty bucket was kept");
                let mut distinct = entries.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), entries.len(), "band {band}: a row is bucketed twice");
                for &n in entries {
                    let (page, at) = index.locate(n as usize);
                    let id = index.rows[n as usize].id;
                    let id = id.unwrap_or_else(|| panic!("row {n} stores nothing"));
                    assert_eq!(index.locator.get(&id), Some(&n), "row {n} is not {id}'s");
                    assert_eq!(
                        band_key_of(page.sig_words(at, width), band, index.params.rows),
                        key
                    );
                }
                entries_seen += entries.len();
            }
        }
        assert_eq!(entries_seen, index.len() * index.params.bands);
        let (mut next, mut stored, mut free) = (0usize, 0usize, Vec::new());
        for (p, page) in index.pages.iter().enumerate() {
            assert_eq!(page.first as usize, next, "page {p} does not continue the numbering");
            next = page.span().end;
            assert!(index.rows[page.span()].iter().all(|row| row.page as usize == p));
            let live = index.stored(page).count();
            for (at, id) in index.stored(page) {
                assert_eq!(index.locator[&id], page.first + at as u32, "{id} is located elsewhere");
            }
            stored += live;
            match &page.payload {
                Payload::Resident { norms, .. } => {
                    free.extend(
                        page.span().filter(|&n| index.rows[n].id.is_none()).map(|n| n as u32),
                    );
                    let len = paged::record_len(index.dim(), true);
                    for (at, id) in index.stored(page) {
                        let (vector, _) = page.row(at, index.dim(), None);
                        let record = page.record(at, len);
                        assert_eq!(record, RowSketch::of(vector).record(), "{id}'s record");
                        assert_eq!(norms[at].to_bits(), record_norm(record).to_bits(), "{id}");
                    }
                }
                Payload::Attached { live: counted, .. } => assert!(*counted == live && live > 0),
            }
        }
        assert_eq!((next, stored), (index.rows.len(), index.len()));
        let mut listed = index.free.clone();
        listed.sort_unstable();
        assert_eq!(listed, free, "the free list is not the free resident rows");
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
        let (mut attaches, mut rows_reused, mut retired) = (0usize, 0usize, 0usize);
        let mut bounded = 0usize;
        let mut pick = |n: usize| (rng.gen_u64() % n as u64) as usize;
        for step in 0..STEPS {
            let id = crate::compose_item_id(pick(3) as u16, pick(48) as u32);
            let segments_before = index.cold_segment_count();
            match pick(100) {
                // Insert or replace, resident. A freed row is reused LIFO.
                0..=44 => {
                    let v = pick(pool.len());
                    let (rows, had_free) = (index.rows.len(), !index.free.is_empty());
                    assert!(index.insert(id, &pool[v]));
                    rows_reused += (had_free && index.rows.len() == rows) as usize;
                    model.insert(id, v);
                }
                45..=79 => assert_eq!(index.remove(id), model.remove(&id).is_some()),
                // Seal a handful of rows — some of them ids already stored,
                // resident or attached — and attach them.
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
                // A whole namespace removed row by row, resident and attached.
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
            // At k = 1 a large set bounds every row first, resident ones
            // too: the same top-1, ties included.
            let mut want = TopK::new(1);
            for &id in &ids {
                let v = &pool[model[&id]];
                let score = cosine_of(kernel::dot(&query, v), qnorm, kernel::norm_sq(v).sqrt());
                want.push(score as f64, id);
            }
            let all = DiscoverScope::All;
            let (top, outcome) =
                index.search_signed_scoped_with_outcome(&query, &sig, 1, &all, |_| false);
            assert_eq!(top, ranking(want), "step {step}, k = 1");
            bounded += (outcome.candidates > BOUND_FIRST_PER_RESULT) as usize;

            // Every stored vector reads back, wherever its row sits, and the
            // exhaustive search is the top-k over the model.
            let mut exact = TopK::new(7);
            for (&id, &v) in &model {
                let v = &pool[v];
                assert_eq!(index.vector_owned(id).as_deref(), Some(&v[..]), "step {step}");
                let score = cosine_of(kernel::dot(&query, v), qnorm, kernel::norm_sq(v).sqrt());
                exact.push(score as f64, id);
            }
            assert_eq!(index.search_exact(&query, 7, |_| false), ranking(exact), "step {step}");

            // Sealed and hydrated into a fresh index, the same rows rank
            // alike.
            let fresh = hydrated(&sealed(&index, 4), &index);
            assert_eq!(fresh.len(), model.len(), "step {step}");
            let all = DiscoverScope::All;
            let ranked = fresh.search_signed_scoped_with_outcome(&query, &sig, 7, &all, |_| false);
            assert_eq!(ranked.0, got, "step {step}");
        }
        assert!(attaches > 100 && rows_reused > 100 && retired > 20, "the script must mix tiers");
        assert!(bounded > 10, "the script must reach the bounded pass: {bounded}");
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
                let SearchScratch { bits, rows, query, bounds, seeds, groups } = s;
                let caps = [bits.capacity(), rows.capacity(), bounds.capacity(), groups.capacity()];
                (caps, query.codes.capacity(), seeds.capacity())
            })
        };
        assert_eq!(search_all(&mixed), want);
        let warmed = capacities();
        assert!(warmed.0.iter().all(|&c| c > 0) && warmed.1 > 0 && warmed.2 == 0, "{warmed:?}");
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
        first_segment(&mixed).evict_from_cache();
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
    fn attach_takes_a_block_of_any_width() {
        // 2^16 + 1 rows in one block: one page, however wide its block.
        let dim = 2;
        let rows_per_block = (1usize << 16) + 1;
        let mut source = SimHashLshIndex::new(dim, LshParams { bands: 2, rows: 4 }, 5);
        for id in 0..rows_per_block as ItemId {
            let angle = id as f32 * 1e-4;
            source.insert(id, &[angle.cos(), angle.sin()]);
        }
        let dir = std::env::temp_dir().join(format!("wg-index-wide-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("seg.wgs");
        crate::paged::write_vector_segment(&path, dim, 8, rows_per_block, source.export_rows())
            .expect("seal");
        let cache = crate::paged::BlockCache::new(0);
        let segment = Arc::new(VectorSegment::open(&path, cache).expect("open"));
        let mut paged = SimHashLshIndex::new(dim, source.params(), source.seed());
        assert_eq!(paged.attach_segment_mapped(segment, Some), Ok(rows_per_block));
        assert_eq!((paged.pages.len(), paged.cold_len()), (1, rows_per_block));
        for query in [[1.0, 0.0], [0.0, 1.0]] {
            let hits = paged.search(&query, 3, |_| false);
            assert_eq!(hits, source.search(&query, 3, |_| false));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
