//! A fill-only store of fixed-dimension vectors that is read without a
//! guard.
//!
//! The store keeps what [`crate::WebTableModel`] derives and would
//! otherwise derive again: a token's vector, an n-gram's basis vector. It
//! fills until it holds `capacity` vectors and then stays as it is — no
//! eviction, so a hit never writes anything, shared or not.
//!
//! **Layout.** Vectors lie back to back in chunks of [`CHUNK_ROWS`]; a
//! chunk is immutable from the moment it can be reached. An open-addressed
//! table of 16-byte slots maps a key to its row: a slot holds the key
//! itself when that is a hash or a token of at most seven bytes, so a probe
//! compares one word and the hit is a second load straight into the
//! vector. A longer token leaves its tagged hash in the slot and its
//! spelling with the chunk, compared only when the hash matched.
//!
//! **Who waits for whom.** A reader of a published vector takes no lock
//! and writes nothing shared: it loads slots with `Acquire` and reads the
//! chunk the row lives in. Everything that changes goes through one mutex
//! ([`Fill`]), held for a probe or an append, never while a vector is
//! computed: a miss looks at the chunk being filled, computes outside the
//! lock, and appends. Only the at most `CHUNK_ROWS - 1` vectors of the
//! unfinished chunk are read under that mutex; a full chunk is published —
//! its slots stored with `Release` — and from then on read freely. A
//! writer therefore never waits for a reader of published vectors, and such
//! a reader never waits at all.
//!
//! **Growth.** The table doubles when it would be more than half full. A
//! generation, once published, is never freed or resized (readers may be
//! probing it), so the doubling builds the next one beside it and flips
//! `current`; the retired tables add up to less than the live one.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use wg_util::kernel::scratch;
use wg_util::sync::Mutex;

/// Vectors per chunk: 32 KiB of floats at 128 dimensions. Also the most
/// vectors that are ever read under the fill mutex, less one.
pub(crate) const CHUNK_ROWS: usize = 64;

/// Table generations a store can go through; each has twice the slots of
/// the one before, so the last is far beyond what `u32` rows can fill.
const GENERATIONS: usize = 32;

/// Top byte of the key word of a token too long to sit in it. An inline
/// token's top byte is its length, at most 7, so the two never meet.
const LONG_TAG: u64 = 0xff << 56;

/// What a vector is stored under: one word, plus the token's spelling when
/// the word is only its hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key<'a> {
    word: u64,
    long: Option<&'a str>,
}

impl<'a> Key<'a> {
    /// A 64-bit hash that is the whole identity (an n-gram's basis seed).
    pub(crate) fn hash(hash: u64) -> Self {
        Key { word: hash, long: None }
    }

    /// A token: its bytes and length when they fit seven bytes — almost
    /// every token of a warehouse does — and otherwise its tagged hash,
    /// to be confirmed against the stored spelling.
    pub(crate) fn token(token: &'a str) -> Self {
        let bytes = token.as_bytes();
        if bytes.len() > 7 {
            return Key { word: wg_util::stable_hash_str(token) | LONG_TAG, long: Some(token) };
        }
        let mut word = (bytes.len() as u64) << 56;
        for (i, &b) in bytes.iter().enumerate() {
            word |= u64::from(b) << (8 * i);
        }
        Key { word, long: None }
    }

    /// The slot probing starts at in a table of `slots` (a power of two):
    /// Fibonacci hashing, the high bits of the product.
    pub(crate) fn home(&self, slots: usize) -> usize {
        debug_assert!(slots.is_power_of_two() && slots > 1);
        (self.word.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - slots.trailing_zeros())) as usize
    }
}

/// One table entry. `row` is the row number plus one, 0 while the slot is
/// empty; it is stored last, with `Release`, so whoever loads it non-zero
/// with `Acquire` also sees `key` and the chunk that row lives in.
#[derive(Default)]
struct Slot {
    key: AtomicU64,
    row: AtomicU32,
}

/// [`CHUNK_ROWS`] vectors back to back (fewer in the chunk that filled the
/// store), and the spellings of the long tokens among them by row in chunk,
/// ascending.
#[derive(Clone)]
struct Chunk {
    vectors: Arc<[f32]>,
    long_keys: Arc<[(u32, Box<str>)]>,
}

/// Whether the vector at `row` of a chunk is `key`'s, given that its key
/// word matched: always for an inline key, by spelling for a long one.
fn spelled(long_keys: &[(u32, Box<str>)], row: usize, key: Key<'_>) -> bool {
    key.long.is_none_or(|token| {
        long_keys
            .binary_search_by_key(&(row as u32), |(row, _)| *row)
            .is_ok_and(|at| &*long_keys[at].1 == token)
    })
}

/// One probe table and the chunk list its rows index. At most half the
/// slots are ever used, so a probe always ends at an empty one.
struct Generation {
    slots: Box<[Slot]>,
    chunks: Box<[OnceLock<Chunk>]>,
}

impl Generation {
    fn with_slots(slots: usize) -> Self {
        Generation {
            slots: (0..slots).map(|_| Slot::default()).collect(),
            chunks: (0..(slots / 2).div_ceil(CHUNK_ROWS)).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The published vector stored under `key`.
    fn find(&self, key: Key<'_>, dim: usize) -> Option<&[f32]> {
        let mask = self.slots.len() - 1;
        let mut at = key.home(self.slots.len());
        loop {
            let slot = &self.slots[at];
            // Pairs with the `Release` store in `insert`.
            let row = slot.row.load(Ordering::Acquire);
            if row == 0 {
                return None;
            }
            if slot.key.load(Ordering::Relaxed) == key.word {
                let row = row as usize - 1;
                let chunk = self.chunks[row / CHUNK_ROWS].get().expect("set before its slots");
                let in_chunk = row % CHUNK_ROWS;
                if spelled(&chunk.long_keys, in_chunk, key) {
                    return Some(&chunk.vectors[in_chunk * dim..][..dim]);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Point the first free slot of `word`'s probe sequence at `row`.
    fn insert(&self, word: u64, row: usize) {
        let mask = self.slots.len() - 1;
        let mut at = Key::hash(word).home(self.slots.len());
        while self.slots[at].row.load(Ordering::Relaxed) != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at].key.store(word, Ordering::Relaxed);
        self.slots[at].row.store(row as u32 + 1, Ordering::Release);
    }
}

/// The chunk being filled, and the only mutable state of the store.
#[derive(Default)]
struct Fill {
    /// Rows in published chunks.
    published: usize,
    /// The unfinished chunk: vectors back to back, their key words, and the
    /// long tokens' spellings by row, as in [`Chunk`].
    vectors: Vec<f32>,
    words: Vec<u64>,
    long_keys: Vec<(u32, Box<str>)>,
}

impl Fill {
    /// The vector in the unfinished chunk stored under `key`.
    fn find(&self, key: Key<'_>, dim: usize) -> Option<&[f32]> {
        let row = (0..self.words.len())
            .find(|&row| self.words[row] == key.word && spelled(&self.long_keys, row, key))?;
        Some(&self.vectors[row * dim..][..dim])
    }
}

/// See the module documentation.
pub(crate) struct VectorStore {
    dim: usize,
    capacity: usize,
    generations: [OnceLock<Generation>; GENERATIONS],
    /// Index of the live generation. Stored with `Release` after that
    /// generation is set, loaded with `Acquire`.
    current: AtomicUsize,
    /// Set once `capacity` rows are published (nothing is ever staged past
    /// that): a miss then computes without touching the mutex. It guards
    /// no data — a stale `false` only costs the lock — hence `Relaxed`.
    full: AtomicBool,
    fill: Mutex<Fill>,
}

impl VectorStore {
    /// An empty store of `dim`-float vectors that keeps the first
    /// `capacity` it is given.
    pub(crate) fn new(dim: usize, capacity: usize) -> Self {
        let generations = [const { OnceLock::new() }; GENERATIONS];
        generations[0].get_or_init(|| Generation::with_slots(2 * CHUNK_ROWS));
        VectorStore {
            dim,
            // A slot counts rows in a `u32`, from one.
            capacity: capacity.min(u32::MAX as usize - 1),
            generations,
            current: AtomicUsize::new(0),
            full: AtomicBool::new(capacity == 0),
            fill: Mutex::new(Fill::default()),
        }
    }

    /// Vectors held.
    pub(crate) fn len(&self) -> usize {
        let fill = self.fill.lock();
        fill.published + fill.words.len()
    }

    fn generation(&self) -> &Generation {
        self.generations[self.current.load(Ordering::Acquire)].get().expect("set before current")
    }

    /// Hand `consume` the vector for `key`: the stored one, read in place,
    /// or else the one `compute` writes, which is then stored if there is
    /// room. `compute` runs with nothing held and may use this store or any
    /// other; `consume` may run under this store's mutex and must not.
    #[inline]
    pub(crate) fn with(
        &self,
        key: Key<'_>,
        compute: impl FnOnce(&mut [f32]),
        consume: impl FnOnce(&[f32]),
    ) {
        match self.generation().find(key, self.dim) {
            Some(vector) => consume(vector),
            None => self.miss(key, compute, consume),
        }
    }

    /// The vector stored under `key`, published or not. `fill` is the
    /// proof that nothing is being published meanwhile: what neither the
    /// live table nor the unfinished chunk has, nobody has stored.
    fn stored<'a>(&'a self, fill: &'a Fill, key: Key<'_>) -> Option<&'a [f32]> {
        self.generation().find(key, self.dim).or_else(|| fill.find(key, self.dim))
    }

    #[cold]
    fn miss(&self, key: Key<'_>, compute: impl FnOnce(&mut [f32]), consume: impl FnOnce(&[f32])) {
        let full = self.full.load(Ordering::Relaxed);
        if !full {
            let fill = self.fill.lock();
            if let Some(vector) = self.stored(&fill, key) {
                return consume(vector);
            }
        }
        let mut vector = scratch::take_f32(self.dim);
        compute(&mut vector);
        consume(&vector);
        if !full {
            let fill = &mut *self.fill.lock();
            // Another thread may have computed the same key meanwhile.
            let held = fill.published + fill.words.len();
            if held < self.capacity && self.stored(fill, key).is_none() {
                if let Some(token) = key.long {
                    fill.long_keys.push((fill.words.len() as u32, token.into()));
                }
                fill.words.push(key.word);
                fill.vectors.extend_from_slice(&vector);
                if fill.words.len() == CHUNK_ROWS || held + 1 == self.capacity {
                    self.publish(fill);
                }
            }
        }
        scratch::put_f32(vector);
    }

    /// Make the chunk being filled readable without the mutex: freeze it,
    /// then point slots at its rows — in the live generation, or in one
    /// twice the size built beside it when that would be over half full.
    fn publish(&self, fill: &mut Fill) {
        // `Relaxed` loads here and in `insert`: this runs under the mutex,
        // and only what runs under the mutex stores `current` or a slot.
        let current = self.current.load(Ordering::Relaxed);
        let live = self.generations[current].get().expect("set before current");
        let first_row = fill.published;
        let held = first_row + fill.words.len();
        let grown = (2 * held > live.slots.len()).then(|| {
            let next = Generation::with_slots(2 * live.slots.len());
            for (mine, theirs) in next.chunks.iter().zip(live.chunks.iter()) {
                if let Some(chunk) = theirs.get() {
                    mine.get_or_init(|| chunk.clone());
                }
            }
            for slot in live.slots.iter() {
                match slot.row.load(Ordering::Relaxed) {
                    0 => {}
                    row => next.insert(slot.key.load(Ordering::Relaxed), row as usize - 1),
                }
            }
            next
        });
        let target = grown.as_ref().unwrap_or(live);
        target.chunks[first_row / CHUNK_ROWS].get_or_init(|| Chunk {
            vectors: fill.vectors.as_slice().into(),
            long_keys: std::mem::take(&mut fill.long_keys).into(),
        });
        for (at, &word) in fill.words.iter().enumerate() {
            target.insert(word, first_row + at);
        }
        if let Some(next) = grown {
            self.generations[current + 1].get_or_init(|| next);
            self.current.store(current + 1, Ordering::Release);
        }
        fill.vectors.clear();
        fill.words.clear();
        fill.published = held;
        if held == self.capacity {
            self.full.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_util::rng::{Rng64, Xoshiro256pp};

    const DIM: usize = 3;

    /// The vector a key's word stands for in these tests.
    fn vector_of(word: u64) -> [f32; DIM] {
        [word as f32, (word >> 20) as f32, 1.0]
    }

    /// Look `key` up the way the model does; `computed` counts misses.
    fn get(store: &VectorStore, key: Key<'_>, computed: &mut usize) -> Vec<f32> {
        let mut got = Vec::new();
        store.with(
            key,
            |v| {
                *computed += 1;
                v.copy_from_slice(&vector_of(key.word));
            },
            |v| got.extend_from_slice(v),
        );
        got
    }

    #[test]
    fn keys_hold_short_tokens_inline_and_tag_the_rest() {
        assert_eq!(Key::token("").word, 0);
        assert_eq!(Key::token("ab").word, 2 << 56 | u64::from(b'b') << 8 | u64::from(b'a'));
        // A prefix is another key: the length is part of the word.
        assert_ne!(Key::token("ab").word, Key::token("ab\0").word);
        assert!(Key::token("1234567").long.is_none(), "seven bytes sit in the word");
        let eight = Key::token("12345678");
        assert_eq!((eight.long, eight.word >> 56), (Some("12345678"), 0xff));
        // Multi-byte characters count by bytes: "ééé" is six, "éééé" eight.
        assert!(Key::token("ééé").long.is_none());
        assert!(Key::token("éééé").long.is_some());
    }

    #[test]
    fn every_vector_stored_comes_back_and_none_is_stored_twice() {
        for capacity in [0, 2, CHUNK_ROWS, CHUNK_ROWS + 1, 10_000] {
            let store = VectorStore::new(DIM, capacity);
            let mut rng = Xoshiro256pp::new(capacity as u64);
            let words: Vec<u64> = (0..3_000).map(|_| rng.next_u64() >> rng.gen_index(64)).collect();
            let mut distinct = words.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let mut computed = 0;
            for pass in 0..2 {
                for &word in &words {
                    let got = get(&store, Key::hash(word), &mut computed);
                    assert_eq!(got, vector_of(word), "{word:#x} pass {pass} capacity {capacity}");
                }
            }
            let kept = distinct.len().min(capacity);
            assert_eq!(store.len(), kept, "capacity {capacity}");
            if kept == distinct.len() {
                assert_eq!(computed, distinct.len(), "a stored vector is never recomputed");
            }
            // Full or in whole chunks: nothing is left behind the mutex.
            let fill = store.fill.lock();
            assert_eq!(fill.words.len(), if kept == capacity { 0 } else { kept % CHUNK_ROWS });
            assert!(2 * fill.published <= store.generation().slots.len());
        }
    }

    #[test]
    fn long_tokens_with_one_hash_word_keep_their_own_vectors() {
        // Two spellings forced under one key word, as a 56-bit hash
        // collision would: the stored spelling tells them apart, in the
        // unfinished chunk and after publication.
        let store = VectorStore::new(DIM, 1_000);
        let word = LONG_TAG | 7;
        let keys = ["first spelling", "second spelling"].map(|t| Key { word, long: Some(t) });
        let fill_with = |key: Key<'_>, x: f32| {
            let mut got = Vec::new();
            store.with(key, |v| v.fill(x), |v| got.extend_from_slice(v));
            got
        };
        assert_eq!(fill_with(keys[0], 1.0), [1.0; DIM]);
        assert_eq!(fill_with(keys[1], 2.0), [2.0; DIM]);
        assert_eq!(store.fill.lock().words.len(), 2, "both staged");
        assert_eq!(fill_with(keys[0], 9.0), [1.0; DIM]);
        assert_eq!(fill_with(keys[1], 9.0), [2.0; DIM]);
        let mut computed = 0;
        for filler in 0..CHUNK_ROWS as u64 {
            get(&store, Key::hash(filler), &mut computed);
        }
        assert_eq!(store.fill.lock().published, CHUNK_ROWS, "published");
        assert_eq!(fill_with(keys[0], 9.0), [1.0; DIM]);
        assert_eq!(fill_with(keys[1], 9.0), [2.0; DIM]);
    }

    #[test]
    fn keys_sharing_a_probe_chain_are_all_found() {
        // Words whose probes all start at one slot of the first table and
        // of the one after it.
        let home = |word: u64, slots: usize| Key::hash(word).home(slots);
        let chain: Vec<u64> = (0..u64::MAX)
            .filter(|&w| home(w, 2 * CHUNK_ROWS) == 5 && home(w, 4 * CHUNK_ROWS) == 10)
            .take(2 * CHUNK_ROWS + 8)
            .collect();
        let store = VectorStore::new(DIM, 1_000);
        let mut computed = 0;
        for pass in 0..2 {
            for &word in &chain {
                assert_eq!(get(&store, Key::hash(word), &mut computed), vector_of(word), "{pass}");
            }
        }
        assert_eq!((computed, store.len()), (chain.len(), chain.len()));
        assert_eq!(store.generation().slots.len(), 4 * CHUNK_ROWS, "grew once");
    }

    #[test]
    fn threads_filling_one_store_leave_one_row_per_key() {
        let words: Vec<u64> = (0..2_000u64).map(|i| i * 0x9e37_79b9).collect();
        let store = VectorStore::new(DIM, usize::MAX);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for worker in 0..4 {
                let (store, words, start) = (&store, &words, &start);
                s.spawn(move || {
                    start.wait();
                    let mut computed = 0;
                    // All four walk all the keys, two of them backwards.
                    for i in 0..words.len() {
                        let word = words[if worker % 2 == 0 { i } else { words.len() - 1 - i }];
                        assert_eq!(get(store, Key::hash(word), &mut computed), vector_of(word));
                    }
                });
            }
        });
        assert_eq!(store.len(), words.len());
        let mut computed = 0;
        for &word in &words {
            get(&store, Key::hash(word), &mut computed);
        }
        assert_eq!(computed, 0, "everything is stored");
    }
}
