//! Column profiling.
//!
//! The systems WarpGate is evaluated against are *profile-based*: they scan
//! each column once, compute compact signatures, and decide relatedness by
//! comparing profiles (paper §6). This crate implements the profile
//! vocabulary those baselines need:
//!
//! * [`stats`] — row/null/distinct counts, numeric moments and quantiles;
//! * [`format`] — format-pattern histograms (D3L evidence iv);
//! * [`qgram`] — name q-gram sets (D3L evidence i, Aurum schema edges);
//! * [`numeric_dist`] — numeric domain-distribution similarity (D3L
//!   evidence v);
//! * [`profile`] — [`ColumnProfile`], bundling everything plus a MinHash
//!   signature of the distinct values (D3L evidence ii, Aurum content
//!   edges).

pub mod format;
pub mod numeric_dist;
pub mod profile;
pub mod qgram;
pub mod stats;

pub use format::FormatProfile;
pub use numeric_dist::NumericSketch;
pub use profile::ColumnProfile;
pub use qgram::{name_qgrams, qgram_jaccard};
pub use stats::ColumnStats;
