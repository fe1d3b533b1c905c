//! Baseline data discovery systems.
//!
//! The paper evaluates WarpGate against two prototypes that "report on
//! real-world data discovery" (§4.2):
//!
//! * [`aurum`] — **Aurum** (Fernandez et al., ICDE'18): profiles every
//!   column, links profiles whose *syntactic* similarity crosses a
//!   threshold into an enterprise knowledge graph, and answers discovery
//!   queries from the graph. Very fast at query time (a graph lookup — the
//!   paper's Table 2 shows 0.18 s / 0.03 s) but blind to joins whose value
//!   sets overlap little as stored (formatting variants, FK⊂PK asymmetry).
//!   Aurum has no native top-k: we truncate its neighbor set by edge weight,
//!   exactly as the paper had to.
//! * [`d3l`] — **D3L** (Bogatu et al., ICDE'20): an ensemble of five
//!   evidence types — (i) column-name q-grams, (ii) value overlap,
//!   (iii) word-embedding similarity, (iv) format patterns, (v) numeric
//!   domain distributions — each with its own LSH index, aggregated into a
//!   ranked top-k. More effective than Aurum, and the slowest of the three
//!   systems because every query computes all five profiles.
//!
//! Both run at the one setting the paper compares against, so neither has
//! a configuration: [`Aurum::build`] and [`D3l::build`] take only the
//! backend, and each module's parameters are private constants.

pub mod aurum;
pub mod d3l;

pub use aurum::Aurum;
pub use d3l::D3l;
