//! A miniature BERT-style transformer encoder.
//!
//! Stands in for the paper's §4.4 BERT comparison. Two findings must be
//! reproduced: (1) effectiveness *on par* with Web Table Embeddings and
//! robust to sampling, (2) roughly an order of magnitude higher inference
//! cost. We get (1) by construction — value/output projections are
//! initialized near the identity and residual connections dominate, so the
//! encoder behaves like a smoothing of the underlying hashed token vectors
//! — and (2) honestly: the forward pass executes real multi-head attention
//! and feed-forward matmuls per token, with no value-level caching.
//!
//! All weights are streamed deterministically from the model seed; there is
//! no training. This is *not* a language model — it is a computational
//! stand-in with the cost profile and stability properties the experiment
//! needs (see DESIGN.md §1 for the substitution argument).

use wg_util::hash::combine64;
use wg_util::kernel::{self, scratch};
use wg_util::rng::Rng64;
use wg_util::SplitMix64;

use crate::model::EmbeddingModel;
use crate::tokenizer::TokenBuf;
use crate::vector::normalize;
#[cfg(test)]
use crate::vector::Vector;
use crate::webtable::WebTableModel;

/// Model (and output) dimension; equals the token-embedding dim.
const DIM: usize = 128;
/// Number of encoder layers.
const LAYERS: usize = 2;
/// Attention heads.
const HEADS: usize = 4;
/// Feed-forward expansion factor.
const FFN_MULT: usize = 2;
/// Weight seed.
const SEED: u64 = 0x4245_5254;
/// Maximum sequence length (longer inputs are truncated).
const MAX_SEQ: usize = 64;
/// Perturbation scale for the near-identity projections.
const EPSILON: f32 = 0.05;
const _: () = assert!(DIM % HEADS == 0, "DIM must divide into HEADS");
const _: () = assert!(LAYERS >= 1 && MAX_SEQ >= 1);

/// Row-major dense matrix.
struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Random matrix with entries `N(0, scale²)`.
    fn random(rows: usize, cols: usize, scale: f32, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed);
        let data = (0..rows * cols).map(|_| rng.gen_gaussian() as f32 * scale).collect();
        Self { rows, cols, data }
    }

    /// Identity plus `N(0, eps²)` noise (square only).
    fn near_identity(dim: usize, eps: f32, seed: u64) -> Self {
        let mut m = Self::random(dim, dim, eps, seed);
        for i in 0..dim {
            m.data[i * dim + i] += 1.0;
        }
        m
    }

    /// `out = x · M` for a row vector `x` (len == rows), via the shared
    /// blocked GEMV kernel.
    fn apply(&self, x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(x.len(), self.rows);
        debug_assert_eq!(out.len(), self.cols);
        kernel::gemv(x, &self.data, self.cols, out);
    }
}

struct EncoderLayer {
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    w1: Matrix,
    w2: Matrix,
}

/// The transformer encoder model.
pub struct MiniBertModel {
    token_embedder: WebTableModel,
    layers: Vec<EncoderLayer>,
    /// Sinusoidal positional encodings, pre-scaled, flat `MAX_SEQ × DIM`.
    positions: Vec<f32>,
}

impl MiniBertModel {
    /// Build the model; its weights derive from a fixed seed.
    pub fn default_model() -> Self {
        let d = DIM;
        let scale = 1.0 / (d as f32).sqrt();
        let layers = (0..LAYERS)
            .map(|l| {
                let s = |tag: u64| combine64(SEED, combine64(l as u64, tag));
                EncoderLayer {
                    wq: Matrix::random(d, d, scale, s(1)),
                    wk: Matrix::random(d, d, scale, s(2)),
                    wv: Matrix::near_identity(d, EPSILON, s(3)),
                    wo: Matrix::near_identity(d, EPSILON, s(4)),
                    w1: Matrix::random(d, d * FFN_MULT, scale, s(5)),
                    w2: Matrix::random(d * FFN_MULT, d, EPSILON * scale, s(6)),
                }
            })
            .collect();

        // Standard sinusoidal positions, scaled down so word identity
        // dominates position. Stored flat so the forward pass can add them
        // with one contiguous axpy per token.
        let pos_scale = 0.05f32;
        let positions = (0..MAX_SEQ)
            .flat_map(|p| {
                (0..d).map(move |i| {
                    let rate = 10_000f32.powf(-((i / 2 * 2) as f32) / d as f32);
                    let angle = p as f32 * rate;
                    pos_scale * if i % 2 == 0 { angle.sin() } else { angle.cos() }
                })
            })
            .collect();

        let token_embedder = WebTableModel::default_model();
        Self { token_embedder, layers, positions }
    }

    fn layer_norm(x: &mut [f32]) {
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv = 1.0 / (var + 1e-5).sqrt();
        for v in x.iter_mut() {
            *v = (*v - mean) * inv;
        }
    }

    #[inline]
    fn gelu(x: f32) -> f32 {
        // tanh approximation.
        0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
    }

    /// Full encoder forward pass over `n` token vectors stored flat in
    /// `seq` (`n × dim`, updated in place).
    ///
    /// All intermediate state lives in thread-local scratch buffers and
    /// all matrix work goes through the blocked GEMV kernel, so a warm
    /// forward pass performs no heap allocation.
    fn forward_flat(&self, seq: &mut [f32], n: usize) {
        let d = DIM;
        let dh = d / HEADS;
        debug_assert_eq!(seq.len(), n * d);

        // Add positional encodings.
        for i in 0..n {
            kernel::axpy(&mut seq[i * d..(i + 1) * d], 1.0, &self.positions[i * d..(i + 1) * d]);
        }

        let mut q = scratch::take_f32(n * d);
        let mut k = scratch::take_f32(n * d);
        let mut v = scratch::take_f32(n * d);
        let mut attn_out = scratch::take_f32(n * d);
        let mut proj = scratch::take_f32(d);
        let mut ffn_hidden = scratch::take_f32(d * FFN_MULT);
        let mut scores = scratch::take_f32(n);

        for layer in &self.layers {
            // Projections.
            for i in 0..n {
                let x = &seq[i * d..(i + 1) * d];
                layer.wq.apply(x, &mut q[i * d..(i + 1) * d]);
                layer.wk.apply(x, &mut k[i * d..(i + 1) * d]);
                layer.wv.apply(x, &mut v[i * d..(i + 1) * d]);
            }
            // Scaled dot-product attention, per head.
            let scale = 1.0 / (dh as f32).sqrt();
            for i in 0..n {
                attn_out[i * d..(i + 1) * d].fill(0.0);
                for h in 0..HEADS {
                    let hs = h * dh;
                    // Scores against every position.
                    let qi = &q[i * d + hs..i * d + hs + dh];
                    for j in 0..n {
                        scores[j] = kernel::dot(qi, &k[j * d + hs..j * d + hs + dh]) * scale;
                    }
                    // Softmax.
                    let max = scores.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                    let mut total = 0.0;
                    for s in scores.iter_mut() {
                        *s = (*s - max).exp();
                        total += *s;
                    }
                    for (j, s) in scores.iter().enumerate() {
                        kernel::axpy(
                            &mut attn_out[i * d + hs..i * d + hs + dh],
                            s / total,
                            &v[j * d + hs..j * d + hs + dh],
                        );
                    }
                }
            }
            // Output projection + residual + LN; then FFN + residual + LN.
            for i in 0..n {
                let x = &mut seq[i * d..(i + 1) * d];
                layer.wo.apply(&attn_out[i * d..(i + 1) * d], &mut proj);
                // Residual dominates: attention contributes at half weight
                // so the encoder smooths rather than scrambles.
                kernel::axpy(x, 0.5, &proj);
                Self::layer_norm(x);

                layer.w1.apply(x, &mut ffn_hidden);
                for h in ffn_hidden.iter_mut() {
                    *h = Self::gelu(*h);
                }
                layer.w2.apply(&ffn_hidden, &mut proj);
                kernel::axpy(x, 1.0, &proj);
                Self::layer_norm(x);
            }
        }

        scratch::put_f32(scores);
        scratch::put_f32(ffn_hidden);
        scratch::put_f32(proj);
        scratch::put_f32(attn_out);
        scratch::put_f32(v);
        scratch::put_f32(k);
        scratch::put_f32(q);
    }
}

impl EmbeddingModel for MiniBertModel {
    fn dim(&self) -> usize {
        DIM
    }

    fn name(&self) -> &str {
        "mini-bert"
    }

    fn embed_tokens_into(&self, tokens: &TokenBuf, out: &mut [f32]) {
        let d = DIM;
        debug_assert_eq!(out.len(), d);
        out.fill(0.0);
        if tokens.is_empty() {
            return;
        }
        let n = tokens.len().min(MAX_SEQ);
        let mut seq = scratch::take_f32(n * d);
        for (t, row) in tokens.iter().zip(seq.chunks_exact_mut(d)) {
            self.token_embedder.token_vector_into(t, row);
        }
        self.forward_flat(&mut seq, n);
        // Mean pool + normalize, into the caller's buffer.
        for row in seq.chunks_exact(d) {
            kernel::axpy(out, 1.0, row);
        }
        scratch::put_f32(seq);
        kernel::scale(out, 1.0 / n as f32);
        normalize(out);
    }
}

#[cfg(test)]
impl MiniBertModel {
    /// Test oracle: the owned-token entry point this model used to have.
    pub(crate) fn embed_tokens_reference(&self, tokens: &[String]) -> Vector {
        if tokens.is_empty() {
            return Vector::zeros(DIM);
        }
        let d = DIM;
        let n = tokens.len().min(MAX_SEQ);
        let mut seq = vec![0.0; n * d];
        for (i, t) in tokens.iter().take(n).enumerate() {
            seq[i * d..(i + 1) * d].copy_from_slice(&self.token_embedder.token_vector(t).0);
        }
        self.forward_flat(&mut seq, n);
        let mut pooled = Vector::zeros(d);
        for i in 0..n {
            pooled.add_scaled(&Vector(seq[i * d..(i + 1) * d].to_vec()), 1.0);
        }
        pooled.scale(1.0 / n as f32);
        pooled.normalize();
        pooled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_util::timing::timed;

    fn model() -> MiniBertModel {
        MiniBertModel::default_model()
    }

    #[test]
    fn deterministic() {
        let a = model().embed_text("Acme Corporation");
        let b = model().embed_text("Acme Corporation");
        assert_eq!(a, b);
    }

    #[test]
    fn output_is_normalized() {
        assert!(model().embed_text("hello world").is_normalized());
    }

    #[test]
    fn empty_is_zero() {
        assert!(model().embed_text("").is_zero());
    }

    #[test]
    fn stays_close_to_base_embedding_structure() {
        // Pairwise similarity ordering should roughly agree with the base
        // hashed model — the "on par effectiveness" property.
        let bert = model();
        let base = WebTableModel::default_model();
        let texts = ["Apple Inc", "Apple Computer", "Microsoft Corp", "2020-01-15", "banana split"];
        let mut agreements = 0;
        let mut total = 0;
        for i in 0..texts.len() {
            for j in (i + 1)..texts.len() {
                for l in 0..texts.len() {
                    for m in (l + 1)..texts.len() {
                        if (i, j) >= (l, m) {
                            continue;
                        }
                        let b1 = bert.embed_text(texts[i]).cosine(&bert.embed_text(texts[j]));
                        let b2 = bert.embed_text(texts[l]).cosine(&bert.embed_text(texts[m]));
                        let w1 = base.embed_text(texts[i]).cosine(&base.embed_text(texts[j]));
                        let w2 = base.embed_text(texts[l]).cosine(&base.embed_text(texts[m]));
                        if (w1 - w2).abs() < 0.05 {
                            continue; // too close to call in the base space
                        }
                        total += 1;
                        if (b1 > b2) == (w1 > w2) {
                            agreements += 1;
                        }
                    }
                }
            }
        }
        assert!(total > 0);
        let rate = agreements as f64 / total as f64;
        assert!(rate > 0.8, "pairwise order agreement only {rate:.2}");
    }

    #[test]
    fn materially_slower_than_base_model() {
        let bert = model();
        let base = WebTableModel::default_model();
        // Warm both (fills base token cache).
        let texts: Vec<String> = (0..50).map(|i| format!("value number {i}")).collect();
        for t in &texts {
            let _ = bert.embed_text(t);
            let _ = base.embed_text(t);
        }
        let (_, t_bert) = timed(|| {
            for t in &texts {
                std::hint::black_box(bert.embed_text(t));
            }
        });
        let (_, t_base) = timed(|| {
            for t in &texts {
                std::hint::black_box(base.embed_text(t));
            }
        });
        assert!(
            t_bert.as_secs_f64() > 3.0 * t_base.as_secs_f64(),
            "bert {:?} vs base {:?}",
            t_bert,
            t_base
        );
    }

    #[test]
    fn truncates_long_sequences() {
        let m = model();
        let cell = (0..100).map(|i| format!("t{i}")).collect::<Vec<_>>().join(" ");
        let tokens = crate::tokenizer::tokenize(&cell);
        assert!(tokens.len() > MAX_SEQ);
        let v = m.embed_text(&cell);
        assert!(v.is_normalized());
        assert_eq!(v, m.embed_tokens_reference(&tokens));
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        MiniBertModel::layer_norm(&mut x);
        let mean: f32 = x.iter().sum::<f32>() / 4.0;
        let var: f32 = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }
}
