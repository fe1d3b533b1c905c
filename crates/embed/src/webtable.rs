//! Hashed subword embeddings standing in for pre-trained Web Table
//! Embeddings (Günther et al. 2021).
//!
//! A token's vector is
//!
//! ```text
//! v(t) = normalize( g(h(t)) + (β/|G|) · Σ_{n∈G} g(h(n)) )
//! ```
//!
//! where `G` is the set of character n-grams of `t`, `h` the stable 64-bit
//! hash, and `g(seed)` a unit-variance Gaussian vector streamed from a
//! SplitMix64 generator seeded with the hash (mixed with the model seed).
//! The whole-token term dominates — distinct values stay distinguishable —
//! while the n-gram term gives partial similarity to near-miss strings
//! (typos, plural/singular, shared brand stems), which is the property the
//! paper's "semantic" join-ability relies on across formatting variants.
//!
//! Everything is deterministic: no training, no files, and the same vectors
//! in every process linked against the same libm. A basis is drawn through
//! `f64::ln` and `f64::cos`, which call the platform's libm, so the bits
//! (and `tests/ingest_parity.rs`'s golden CRCs) are fixed for one libm: a
//! checkpoint moved to a platform with a different libm holds vectors that
//! a fresh embed there may not reproduce bit for bit. A bounded store of
//! token vectors makes repeated tokens (the common case in categorical
//! columns) nearly free — a hit takes no lock (`store.rs`) — and a second,
//! smaller store of n-gram basis vectors makes *new* tokens cheap: a corpus
//! has far fewer distinct n-grams than n-gram occurrences, and drawing a
//! basis vector (`dim` Box–Muller Gaussians) is what computing a token
//! costs.

use wg_util::hash::combine64;
use wg_util::kernel::{self, scratch};
use wg_util::rng::Rng64;
use wg_util::SplitMix64;

use crate::model::{EmbeddingModel, ValueSink};
use crate::store::{Key, VectorStore};
use crate::tokenizer::{char_ngram_count, for_each_char_ngram, for_each_token, TokenBuf};
use crate::vector::{is_zero, normalize, Vector};

/// Embedding dimension of [`WebTableModel::default_model`] (the
/// published Web Table Embeddings are 150-d; 128 is alignment-friendly).
const DIM: usize = 128;
/// Seed of [`WebTableModel::default_model`]: "WGATE128".
const SEED: u64 = 0x5747_4154_4531_3238;
/// Smallest character n-gram.
const MIN_NGRAM: usize = 3;
/// Largest character n-gram.
const MAX_NGRAM: usize = 4;
const _: () = assert!(MIN_NGRAM >= 2 && MAX_NGRAM >= MIN_NGRAM);
/// Weight of the summed n-gram term against the whole-token term.
const SUBWORD_WEIGHT: f32 = 0.6;
/// Token vectors kept per model; beyond this, vectors are recomputed on
/// the fly rather than evicting (simple and allocation-free).
pub(crate) const TOKEN_CAPACITY: usize = 1 << 20;

/// N-gram basis vectors kept per model: at most 2¹⁶ × `dim` floats (32 MiB
/// at the default dimension). Testbed-S has 34,199 distinct n-grams and the
/// fleet 24,177, so a build draws each basis once and the store serves
/// 0.955 / 0.817 of n-gram lookups, every one but a first (DESIGN.md §8 has
/// the sizing table).
pub(crate) const NGRAM_BASIS_CAPACITY: usize = 1 << 16;

/// The deterministic hashed-subword embedding model.
pub struct WebTableModel {
    dim: usize,
    /// Two models with different seeds inhabit unrelated spaces.
    seed: u64,
    tokens: VectorStore,
    /// Basis vectors of n-grams, keyed by the tagged n-gram hash.
    ngram_bases: VectorStore,
    /// Basis vectors drawn so far, token and n-gram.
    #[cfg(test)]
    draws: std::sync::atomic::AtomicUsize,
}

impl WebTableModel {
    /// Build a `dim`-dimensional model whose vectors derive from `seed`.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            seed,
            tokens: VectorStore::new(dim, TOKEN_CAPACITY),
            ngram_bases: VectorStore::new(dim, NGRAM_BASIS_CAPACITY),
            #[cfg(test)]
            draws: Default::default(),
        }
    }

    /// The 128-d model with the default seed.
    pub fn default_model() -> Self {
        Self::new(DIM, SEED)
    }

    /// The default model with stores of the given capacities, so tests can
    /// run it with a token store that keeps nothing or an n-gram store
    /// that is full almost from the start.
    #[cfg(test)]
    pub(crate) fn with_capacities(token_capacity: usize, ngram_capacity: usize) -> Self {
        Self {
            dim: DIM,
            seed: SEED,
            tokens: VectorStore::new(DIM, token_capacity),
            ngram_bases: VectorStore::new(DIM, ngram_capacity),
            draws: Default::default(),
        }
    }

    /// Number of cached token vectors.
    #[cfg(test)]
    fn cache_len(&self) -> usize {
        self.tokens.len()
    }

    /// Gaussian basis vector for a hash, seeded with the model seed.
    fn basis_into(&self, hash: u64, out: &mut [f32]) {
        #[cfg(test)]
        self.draws.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut rng = SplitMix64::new(combine64(self.seed, hash));
        out.fill_with(|| rng.gen_gaussian() as f32);
    }

    /// Compute (uncached) the vector for one token into `out`. An n-gram's
    /// basis vector is a pure function of `(seed, hash)`, so taking it from
    /// the store or drawing it afresh adds the same floats in the same
    /// order.
    fn compute_token(&self, token: &str, out: &mut [f32]) {
        self.basis_into(wg_util::stable_hash_str(token), out);
        let grams = char_ngram_count(token, MIN_NGRAM, MAX_NGRAM);
        if grams > 0 {
            let w = SUBWORD_WEIGHT / grams as f32;
            for_each_char_ngram(token, MIN_NGRAM, MAX_NGRAM, |g| {
                // Tag n-gram hashes so a 3-gram never collides with a
                // whole token of the same spelling.
                let h = combine64(0x6772_616d, wg_util::stable_hash_str(g));
                self.ngram_bases.with(
                    Key::hash(h),
                    |basis| self.basis_into(h, basis),
                    |basis| kernel::axpy(out, w, basis),
                );
            });
        }
        normalize(out);
    }

    /// Hand `consume` the vector of one token: the stored one, read in
    /// place without a lock, or the one computed (and stored) now.
    #[inline]
    fn with_token(&self, token: &str, consume: impl FnOnce(&[f32])) {
        self.tokens.with(Key::token(token), |v| self.compute_token(token, v), consume);
    }

    /// Vector for one token, via the store.
    pub fn token_vector(&self, token: &str) -> Vector {
        let mut v = Vector::zeros(self.dim);
        self.token_vector_into(token, &mut v.0);
        v
    }

    /// [`Self::token_vector`] written into a caller-provided slice (length
    /// `dim`). On a hit this is a table probe plus one `memcpy` — no lock,
    /// no heap allocation.
    pub fn token_vector_into(&self, token: &str, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        self.with_token(token, |v| out.copy_from_slice(v));
    }

    /// Add one token's vector to a value's running sum `out`, straight from
    /// the store. The first token's vector is written as `0.0 + x` — what
    /// adding it to a zeroed `out` would leave, `-0.0` included — so no
    /// pass zeroes.
    #[inline]
    fn add_token(&self, token: &str, first: bool, out: &mut [f32]) {
        if first {
            self.with_token(token, |v| out.iter_mut().zip(v).for_each(|(o, &x)| *o = 0.0 + x));
        } else {
            self.with_token(token, |v| kernel::axpy(out, 1.0, v));
        }
    }

    /// `out` = the sum of the cell's token vectors in token order, the
    /// tokens taken from the visitor as they are found; `false`, and `out`
    /// as it was, when there is no token.
    #[inline]
    fn sum_cell(&self, cell: &str, scratch: &mut String, out: &mut [f32]) -> bool {
        let mut first = true;
        for_each_token(cell, scratch, |token| {
            self.add_token(token, first, out);
            first = false;
        });
        !first
    }
}

impl EmbeddingModel for WebTableModel {
    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> &str {
        "web-table-hashed"
    }

    fn embed_tokens_into(&self, tokens: &TokenBuf, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        if tokens.is_empty() {
            out.fill(0.0);
        }
        for (at, token) in tokens.iter().enumerate() {
            self.add_token(token, at == 0, out);
        }
        normalize(out);
    }

    /// The provided loop with a value's passes fused: the sum of its token
    /// vectors, added as the tokenizer finds each token (no token buffer),
    /// one `norm_sq`, then `acc += w · (sum · 1/‖sum‖)` in one pass where
    /// the provided loop scales, tests for zero and adds in three. Every
    /// element sees the same operations on the same operands in the same
    /// order, so the bits are the same.
    fn embed_values_into(
        &self,
        values: &mut dyn FnMut(&mut ValueSink<'_>),
        acc: &mut [f32],
    ) -> bool {
        debug_assert_eq!(acc.len(), self.dim);
        let mut lowered = String::new();
        let mut sum = scratch::take_f32(self.dim);
        let mut any = false;
        values(&mut |value, weight| {
            if !self.sum_cell(value, &mut lowered, &mut sum) {
                return;
            }
            let norm = kernel::norm_sq(&sum).sqrt();
            if norm > f32::MIN_POSITIVE {
                let inv = 1.0 / norm;
                acc.iter_mut().zip(&sum).for_each(|(a, &x)| *a += weight * (x * inv));
            } else if is_zero(&sum) {
                return;
            } else {
                // Too short to normalize: added as it is.
                kernel::axpy(acc, weight, &sum);
            }
            any = true;
        });
        scratch::put_f32(sum);
        any
    }
}

#[cfg(test)]
impl WebTableModel {
    /// Test oracle: a token's vector the way it was computed before the
    /// n-gram cache — every gram materialised, every basis drawn afresh.
    pub(crate) fn compute_token_reference(&self, token: &str) -> Vector {
        let basis = |hash: u64| {
            let mut v = Vector::zeros(self.dim);
            self.basis_into(hash, &mut v.0);
            v
        };
        let mut v = basis(wg_util::stable_hash_str(token));
        let grams = crate::tokenizer::reference::char_ngrams(token, MIN_NGRAM, MAX_NGRAM);
        if !grams.is_empty() {
            let w = SUBWORD_WEIGHT / grams.len() as f32;
            for g in &grams {
                let h = combine64(0x6772_616d, wg_util::stable_hash_str(g));
                v.add_scaled(&basis(h), w);
            }
        }
        v.normalize();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{reference, tokenize_into, Token};
    use std::collections::HashSet;
    use std::sync::atomic::Ordering;
    use wg_util::rng::Xoshiro256pp;

    fn model() -> WebTableModel {
        WebTableModel::default_model()
    }

    fn tokens_of(cell: &str) -> TokenBuf {
        let mut buf = TokenBuf::new();
        tokenize_into(cell, &mut buf);
        buf
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Distinct tokens of the seeded differential-test cells.
    fn seeded_tokens(seed: u64, cells: usize) -> Vec<Token> {
        let mut tokens: Vec<Token> =
            reference::cells(seed, cells).iter().flat_map(|c| reference::tokenize(c)).collect();
        tokens.sort();
        tokens.dedup();
        tokens
    }

    #[test]
    fn token_vectors_do_not_depend_on_the_ngram_cache() {
        let tokens = seeded_tokens(21, 400);
        let oracle = model();
        let want: Vec<Vec<u32>> =
            tokens.iter().map(|t| bits(&oracle.compute_token_reference(t).0)).collect();
        // Token cache off, so every pass recomputes: n-gram cache empty,
        // then warm, then (capacity 2) full almost from the start.
        let roomy = WebTableModel::with_capacities(0, NGRAM_BASIS_CAPACITY);
        let cramped = WebTableModel::with_capacities(0, 2);
        for pass in 0..2 {
            for (t, want) in tokens.iter().zip(&want) {
                assert_eq!(&bits(&roomy.token_vector(t).0), want, "{t:?} pass {pass}");
                assert_eq!(&bits(&cramped.token_vector(t).0), want, "{t:?} pass {pass}");
            }
        }
        assert!(roomy.ngram_bases.len() > 2);
        assert_eq!(cramped.ngram_bases.len(), 2);
        assert_eq!(roomy.cache_len(), 0);
    }

    #[test]
    fn threads_filling_the_caches_together_agree_with_the_oracle() {
        let tokens = seeded_tokens(22, 300);
        let oracle = model();
        let want: Vec<Vec<u32>> =
            tokens.iter().map(|t| bits(&oracle.compute_token_reference(t).0)).collect();
        for ngram_capacity in [NGRAM_BASIS_CAPACITY, 64] {
            let m = WebTableModel::with_capacities(TOKEN_CAPACITY, ngram_capacity);
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for worker in 0..4 {
                    let (m, tokens, want, start) = (&m, &tokens, &want, &start);
                    s.spawn(move || {
                        start.wait();
                        // Overlapping halves, walked in opposite directions.
                        let n = tokens.len();
                        let mut order: Vec<usize> =
                            (worker * n / 8..n / 2 + worker * n / 8).collect();
                        if worker % 2 == 1 {
                            order.reverse();
                        }
                        for i in order {
                            assert_eq!(
                                bits(&m.token_vector(&tokens[i]).0),
                                want[i],
                                "{}",
                                tokens[i]
                            );
                        }
                    });
                }
            });
            assert!(m.ngram_bases.len() <= ngram_capacity);
            // One row a token, whoever got there first (the four walks
            // cover the first seven eighths of the list between them).
            assert_eq!(m.cache_len(), tokens.len() / 2 + 3 * tokens.len() / 8);
        }
    }

    /// `len` tokens drawn from a seeded pool of `words` random lowercase
    /// words of 4–9 letters, so tokens repeat and n-grams repeat more.
    fn token_stream(seed: u64, words: usize, len: usize) -> Vec<String> {
        let mut rng = Xoshiro256pp::new(seed);
        let pool: Vec<String> = (0..words)
            .map(|_| {
                let letters = 4 + rng.gen_index(6);
                (0..letters).map(|_| char::from(b'a' + rng.gen_index(26) as u8)).collect()
            })
            .collect();
        (0..len).map(|_| pool[rng.gen_index(words)].clone()).collect()
    }

    #[test]
    fn a_build_draws_each_basis_once() {
        let stream = token_stream(23, 3_000, 9_000);
        let tokens: HashSet<&str> = stream.iter().map(String::as_str).collect();
        let grams: HashSet<String> =
            tokens.iter().flat_map(|t| reference::char_ngrams(t, MIN_NGRAM, MAX_NGRAM)).collect();
        // More distinct n-grams than a 2¹⁴-vector store holds.
        assert!(grams.len() > 24_000, "{} distinct n-grams", grams.len());
        let m = model();
        for t in &stream {
            m.token_vector(t);
        }
        let once = tokens.len() + grams.len();
        assert_eq!(m.draws.load(Ordering::Relaxed), once);
        // Every token vector as the oracle draws it, read from the store.
        let oracle = model();
        for t in tokens {
            assert_eq!(
                bits(&m.token_vector(t).0),
                bits(&oracle.compute_token_reference(t).0),
                "{t}"
            );
        }
        assert_eq!(m.draws.load(Ordering::Relaxed), once);
    }

    #[test]
    fn deterministic_across_instances() {
        let a = model().embed_text("Acme Corporation");
        let b = model().embed_text("Acme Corporation");
        assert_eq!(a, b);
    }

    #[test]
    fn token_vectors_are_unit_length() {
        let m = model();
        assert!(m.token_vector("hello").is_normalized());
        assert!(m.embed_text("hello world").is_normalized());
    }

    #[test]
    fn different_tokens_nearly_orthogonal() {
        let m = model();
        let sim = m.token_vector("zebra").cosine(&m.token_vector("quantum"));
        assert!(sim.abs() < 0.35, "unrelated tokens too similar: {sim}");
    }

    #[test]
    fn format_variants_identical() {
        let m = model();
        let a = m.embed_text("ACME CORP");
        let b = m.embed_text("Acme Corp.");
        assert!(a.cosine(&b) > 0.999, "case variants must collapse");
    }

    #[test]
    fn near_miss_strings_similar_via_subwords() {
        let m = model();
        let related = m.token_vector("streets").cosine(&m.token_vector("street"));
        let unrelated = m.token_vector("streets").cosine(&m.token_vector("finance"));
        assert!(
            related > unrelated + 0.15,
            "subword similarity missing: related {related}, unrelated {unrelated}"
        );
    }

    #[test]
    fn shared_token_makes_values_similar() {
        let m = model();
        let a = m.embed_text("Apple Inc");
        let b = m.embed_text("Apple Computer");
        let c = m.embed_text("Volkswagen Group");
        assert!(a.cosine(&b) > a.cosine(&c) + 0.2);
    }

    #[test]
    fn empty_input_is_zero() {
        let m = model();
        let mut out = vec![1.0; m.dim()];
        m.embed_tokens_into(&TokenBuf::new(), &mut out);
        assert!(out.iter().all(|&x| x == 0.0), "stale buffer contents must be overwritten");
        assert!(m.embed_text("///").is_zero());
    }

    #[test]
    fn cache_fills_and_respects_capacity() {
        let m = WebTableModel::with_capacities(2, NGRAM_BASIS_CAPACITY);
        let _ = m.token_vector("a");
        let _ = m.token_vector("b");
        let _ = m.token_vector("c");
        assert_eq!(m.cache_len(), 2);
        // Still correct when uncached.
        assert_eq!(m.token_vector("c"), m.token_vector("c"));
    }

    #[test]
    fn different_seeds_different_spaces() {
        let a = WebTableModel::new(DIM, 1);
        let b = WebTableModel::new(DIM, 2);
        let va = a.embed_text("hello");
        let vb = b.embed_text("hello");
        assert!(va.cosine(&vb).abs() < 0.4);
    }

    #[test]
    fn date_format_variants_match() {
        let m = model();
        let (mut a, mut b) = (Vector::zeros(m.dim()), Vector::zeros(m.dim()));
        m.embed_tokens_into(&tokens_of("2020-01-15"), &mut a.0);
        m.embed_tokens_into(&tokens_of("01/15/2020"), &mut b.0);
        assert!(a.cosine(&b) > 0.999);
    }
}
