//! The embedding model abstraction.

use wg_util::kernel::{self, scratch};

use crate::tokenizer::{tokenize_into, TokenBuf};
use crate::vector::{is_zero, Vector};

/// Where a column's distinct values go, one `(value, weight)` at a time.
/// The value is borrowed for the call only, so a producer may render every
/// value into one reused buffer.
pub type ValueSink<'a> = dyn FnMut(&str, f32) + 'a;

/// An embedding model maps a token sequence (one cell value, typically) to
/// a fixed-dimension vector.
///
/// Implementations must be `Send + Sync` — the indexing pipeline embeds
/// columns from multiple threads — and deterministic: the same tokens must
/// produce bit-identical vectors in every process, or persisted indexes
/// would drift from fresh queries.
pub trait EmbeddingModel: Send + Sync {
    /// Output dimension.
    fn dim(&self) -> usize;

    /// Human-readable model name (reported in experiment tables).
    fn name(&self) -> &str;

    /// Embed one token sequence into `out` (length [`Self::dim`]; whatever
    /// it held is overwritten). Empty input writes the zero vector (the
    /// column aggregator skips zero value-vectors). Tokens are borrowed and
    /// the result lands in the caller's buffer, so a column's values embed
    /// one after another without allocating.
    fn embed_tokens_into(&self, tokens: &TokenBuf, out: &mut [f32]);

    /// One column's aggregation loop: add `weight · embed(value)` to `acc`
    /// (length [`Self::dim`]) for every pair `values` emits into the sink
    /// it is handed, in order, skipping values that have no token or embed
    /// to zero. Returns whether any value was added. `values` is called
    /// once, with nothing of the model held, so it may call the model.
    ///
    /// Provided as the per-value loop over [`Self::embed_tokens_into`] with
    /// one token buffer and one value vector reused across values. A model
    /// that can fuse a value's passes overrides it and must leave the same
    /// bits in `acc`.
    fn embed_values_into(
        &self,
        values: &mut dyn FnMut(&mut ValueSink<'_>),
        acc: &mut [f32],
    ) -> bool {
        let mut tokens = TokenBuf::new();
        let mut v = scratch::take_f32(self.dim());
        let mut any = false;
        values(&mut |value, weight| {
            tokenize_into(value, &mut tokens);
            if tokens.is_empty() {
                return;
            }
            self.embed_tokens_into(&tokens, &mut v);
            if !is_zero(&v) {
                kernel::axpy(acc, weight, &v);
                any = true;
            }
        });
        scratch::put_f32(v);
        any
    }

    /// Embed one raw cell (tokenize + embed). Provided for convenience.
    fn embed_text(&self, text: &str) -> Vector {
        let mut tokens = TokenBuf::new();
        tokenize_into(text, &mut tokens);
        let mut out = Vector::zeros(self.dim());
        self.embed_tokens_into(&tokens, &mut out.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Stub;
    impl EmbeddingModel for Stub {
        fn dim(&self) -> usize {
            2
        }
        fn name(&self) -> &str {
            "stub"
        }
        fn embed_tokens_into(&self, tokens: &TokenBuf, out: &mut [f32]) {
            out.copy_from_slice(&[tokens.len() as f32, 1.0]);
        }
    }

    #[test]
    fn embed_text_tokenizes() {
        let m = Stub;
        assert_eq!(m.embed_text("a b c").0[0], 3.0);
        assert_eq!(m.embed_text("").0[0], 0.0);
    }
}
