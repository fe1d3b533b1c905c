//! Column embedding models.
//!
//! WarpGate's core idea (§3.1.1) is to encode columns into a vector space
//! where joinable columns land near each other, and to prefer embedding
//! models (i) trained for tabular data, (ii) derived from large Web-table
//! corpora, and (iii) cheap enough for interactive inference. The paper uses
//! the pre-trained *Web Table Embeddings* of Günther et al. and compares
//! against BERT.
//!
//! Shipping pre-trained weights is impossible here, so this crate implements
//! the substitutions documented in `DESIGN.md`:
//!
//! * [`WebTableModel`] — a deterministic **hashed subword embedding**: a
//!   token's vector is the normalized sum of Gaussian vectors seeded by the
//!   hashes of the token and its character n-grams (the fastText hashing
//!   trick without learned weights). Identical tokens agree exactly across
//!   tables; format variants (casing, punctuation, zero-padding, date
//!   orderings) agree after tokenization; near-miss strings agree partially
//!   through shared n-grams.
//! * [`MiniBertModel`] — a real multi-layer transformer encoder over the
//!   same token vectors with deterministic near-identity initialization:
//!   effectiveness stays on par with the base model (the paper's finding)
//!   while inference genuinely costs an order of magnitude more.
//!
//! [`ColumnEmbedder`] turns a column into one vector by aggregating the
//! embeddings of its distinct values (uniform, frequency- or SIF-weighted).

#![forbid(unsafe_code)]

pub mod column_embed;
pub mod context;
pub mod minibert;
pub mod model;
mod store;
pub mod tokenizer;
pub mod vector;
pub mod webtable;

pub use column_embed::{Aggregation, ColumnEmbedder};
pub use context::{blend_context, context_vector, ColumnContext};
pub use minibert::MiniBertModel;
pub use model::{EmbeddingModel, ValueSink};
pub use tokenizer::{char_ngrams, tokenize, tokenize_into, TokenBuf};
pub use vector::Vector;
pub use webtable::WebTableModel;
