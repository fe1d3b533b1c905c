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
//! Everything is deterministic: no training, no files, identical vectors in
//! every process. A bounded store of token vectors makes repeated tokens
//! (the common case in categorical columns) nearly free — a hit takes no
//! lock ([`crate::store`]) — and a second, smaller store of n-gram basis
//! vectors makes *new* tokens cheap: a corpus has far fewer distinct
//! n-grams than n-gram occurrences, and drawing a basis vector (`dim`
//! Box–Muller Gaussians) is what computing a token costs.

use wg_util::hash::combine64;
use wg_util::kernel::{self, scratch};
use wg_util::rng::Rng64;
use wg_util::SplitMix64;

use crate::model::{EmbeddingModel, ValueSink};
use crate::store::{Key, VectorStore};
use crate::tokenizer::{char_ngram_count, for_each_char_ngram, tokenize_into, TokenBuf};
use crate::vector::{is_zero, normalize, Vector};

/// Configuration for [`WebTableModel`].
#[derive(Debug, Clone, Copy)]
pub struct WebTableConfig {
    /// Embedding dimension (the published Web Table Embeddings are 150-d;
    /// we default to 128 for alignment-friendly arithmetic).
    pub dim: usize,
    /// Model seed: two models with different seeds inhabit unrelated spaces.
    pub seed: u64,
    /// Smallest character n-gram.
    pub min_ngram: usize,
    /// Largest character n-gram.
    pub max_ngram: usize,
    /// Relative weight of the summed n-gram term against the whole-token
    /// term. 0 disables subword information entirely.
    pub subword_weight: f32,
    /// Cache capacity in tokens; beyond this, vectors are recomputed on the
    /// fly rather than evicting (simple and allocation-free).
    pub cache_capacity: usize,
}

impl Default for WebTableConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            seed: 0x5747_4154_4531_3238, // "WGATE128"
            min_ngram: 3,
            max_ngram: 4,
            subword_weight: 0.6,
            cache_capacity: 1 << 20,
        }
    }
}

/// N-gram basis vectors kept per model: 2¹⁴ × `dim` floats (8 MiB at the
/// default dimension). On the testbed-S and fleet token streams this serves
/// 0.84 / 0.80 of n-gram lookups; four times the entries serve 0.96 / 0.82
/// (DESIGN.md §8 has the sizing table).
const NGRAM_BASIS_CAPACITY: usize = 1 << 14;

/// The deterministic hashed-subword embedding model.
pub struct WebTableModel {
    config: WebTableConfig,
    tokens: VectorStore,
    /// Basis vectors of n-grams, keyed by the tagged n-gram hash.
    ngram_bases: VectorStore,
}

impl WebTableModel {
    /// Build a model with the given configuration.
    pub fn new(config: WebTableConfig) -> Self {
        Self::with_ngram_capacity(config, NGRAM_BASIS_CAPACITY)
    }

    fn with_ngram_capacity(config: WebTableConfig, ngram_capacity: usize) -> Self {
        assert!(config.dim > 0, "dimension must be positive");
        assert!(config.min_ngram >= 2 && config.max_ngram >= config.min_ngram);
        Self {
            config,
            tokens: VectorStore::new(config.dim, config.cache_capacity),
            ngram_bases: VectorStore::new(config.dim, ngram_capacity),
        }
    }

    /// Model with default configuration.
    pub fn default_model() -> Self {
        Self::new(WebTableConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &WebTableConfig {
        &self.config
    }

    /// Number of cached token vectors.
    pub fn cache_len(&self) -> usize {
        self.tokens.len()
    }

    /// Gaussian basis vector for a hash, seeded with the model seed.
    fn basis_into(&self, hash: u64, out: &mut [f32]) {
        let mut rng = SplitMix64::new(combine64(self.config.seed, hash));
        out.fill_with(|| rng.gen_gaussian() as f32);
    }

    /// Compute (uncached) the vector for one token into `out`. An n-gram's
    /// basis vector is a pure function of `(seed, hash)`, so taking it from
    /// the store or drawing it afresh adds the same floats in the same
    /// order.
    fn compute_token(&self, token: &str, out: &mut [f32]) {
        self.basis_into(wg_util::stable_hash_str(token), out);
        let (min_n, max_n) = (self.config.min_ngram, self.config.max_ngram);
        let grams = char_ngram_count(token, min_n, max_n);
        if self.config.subword_weight > 0.0 && grams > 0 {
            let w = self.config.subword_weight / grams as f32;
            for_each_char_ngram(token, min_n, max_n, |g| {
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
        let mut v = Vector::zeros(self.config.dim);
        self.token_vector_into(token, &mut v.0);
        v
    }

    /// [`Self::token_vector`] written into a caller-provided slice (length
    /// `dim`). On a hit this is a table probe plus one `memcpy` — no lock,
    /// no heap allocation.
    pub fn token_vector_into(&self, token: &str, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.config.dim);
        self.with_token(token, |v| out.copy_from_slice(v));
    }

    /// `out` = the sum of the tokens' vectors in token order, each added
    /// straight from the store; `false`, and `out` as it was, when there is
    /// no token. The first vector is written as `0.0 + x` — what adding it
    /// to a zeroed `out` would leave, `-0.0` included — so no pass zeroes.
    #[inline]
    fn sum_tokens(&self, tokens: &TokenBuf, out: &mut [f32]) -> bool {
        let mut tokens = tokens.iter();
        let Some(first) = tokens.next() else {
            return false;
        };
        self.with_token(first, |v| out.iter_mut().zip(v).for_each(|(o, &x)| *o = 0.0 + x));
        for t in tokens {
            self.with_token(t, |v| kernel::axpy(out, 1.0, v));
        }
        true
    }
}

impl EmbeddingModel for WebTableModel {
    fn dim(&self) -> usize {
        self.config.dim
    }

    fn name(&self) -> &str {
        "web-table-hashed"
    }

    fn embed_tokens_into(&self, tokens: &TokenBuf, out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.config.dim);
        if !self.sum_tokens(tokens, out) {
            out.fill(0.0);
        }
        normalize(out);
    }

    /// The provided loop with a value's passes fused: the sum of its token
    /// vectors, one `norm_sq`, then `acc += w · (sum · 1/‖sum‖)` in one
    /// pass where the provided loop scales, tests for zero and adds in
    /// three. Every element sees the same operations on the same operands
    /// in the same order, so the bits are the same.
    fn embed_values_into(
        &self,
        values: &mut dyn FnMut(&mut ValueSink<'_>),
        acc: &mut [f32],
    ) -> bool {
        debug_assert_eq!(acc.len(), self.config.dim);
        let mut tokens = TokenBuf::new();
        let mut sum = scratch::take_f32(self.config.dim);
        let mut any = false;
        values(&mut |value, weight| {
            tokenize_into(value, &mut tokens);
            if !self.sum_tokens(&tokens, &mut sum) {
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
            let mut v = Vector::zeros(self.config.dim);
            self.basis_into(hash, &mut v.0);
            v
        };
        let mut v = basis(wg_util::stable_hash_str(token));
        if self.config.subword_weight > 0.0 {
            let grams = crate::tokenizer::reference::char_ngrams(
                token,
                self.config.min_ngram,
                self.config.max_ngram,
            );
            if !grams.is_empty() {
                let w = self.config.subword_weight / grams.len() as f32;
                for g in &grams {
                    let h = combine64(0x6772_616d, wg_util::stable_hash_str(g));
                    v.add_scaled(&basis(h), w);
                }
            }
        }
        v.normalize();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::{reference, Token};

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
        let uncached = WebTableConfig { cache_capacity: 0, ..Default::default() };
        let roomy = WebTableModel::new(uncached);
        let cramped = WebTableModel::with_ngram_capacity(uncached, 2);
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
            let m = WebTableModel::with_ngram_capacity(WebTableConfig::default(), ngram_capacity);
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
        let m = WebTableModel::new(WebTableConfig { cache_capacity: 2, ..Default::default() });
        let _ = m.token_vector("a");
        let _ = m.token_vector("b");
        let _ = m.token_vector("c");
        assert_eq!(m.cache_len(), 2);
        // Still correct when uncached.
        assert_eq!(m.token_vector("c"), m.token_vector("c"));
    }

    #[test]
    fn different_seeds_different_spaces() {
        let a = WebTableModel::new(WebTableConfig { seed: 1, ..Default::default() });
        let b = WebTableModel::new(WebTableConfig { seed: 2, ..Default::default() });
        let va = a.embed_text("hello");
        let vb = b.embed_text("hello");
        assert!(va.cosine(&vb).abs() < 0.4);
    }

    #[test]
    fn subword_weight_zero_removes_ngram_similarity() {
        let m = WebTableModel::new(WebTableConfig { subword_weight: 0.0, ..Default::default() });
        let sim = m.token_vector("street").cosine(&m.token_vector("streets"));
        assert!(sim.abs() < 0.35, "without subwords, near-misses look unrelated: {sim}");
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
