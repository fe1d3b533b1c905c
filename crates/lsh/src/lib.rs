//! Locality-sensitive hashing indexes.
//!
//! WarpGate turns high-dimensional cosine similarity search into bucket
//! lookups with **SimHash** (random hyperplane projection, §3.1.2): the
//! probability that two vectors agree on one signature bit equals
//! `1 − θ/π` for angle `θ`, so banding the signature yields an index whose
//! collision probability is an S-curve around a tunable similarity
//! threshold (the paper sets 0.7).
//!
//! This crate provides:
//!
//! * [`simhash`] — signature generation and Hamming/cosine estimation;
//!   hyperplanes live in one contiguous transposed matrix signed in a
//!   single blocked GEMV pass (`wg_util::kernel`);
//! * [`params`] — derivation of `(bands, rows)` from a target threshold;
//! * [`index`] — the banded [`SimHashLshIndex`]: one table of pages in one
//!   row-number space — a page is *resident* (vectors, sketch records and
//!   signature words in memory, freed rows reused) or *attached* (the rows
//!   of a lazily attached [`VectorSegment`]) — with buckets of row numbers,
//!   a per-thread bitset as the candidate set (no sort and no id lookup
//!   between the buckets and the scores), exact cosine re-ranking that
//!   bounds every row of a large candidate set first, and an attached row
//!   of any set, optional multi-probe, incremental insert/remove, and
//!   sealing into / hydrating from one segment image
//!   ([`SimHashLshIndex::seal`], [`SimHashLshIndex::hydrate`]). It is
//!   single-threaded: a concurrent caller holds it behind one lock and
//!   signs and sketches outside it ([`SimHashLshIndex::with_hasher`],
//!   [`RowSketch`]);
//! * [`paged`] — the one writer and the one reader of a sealed segment,
//!   the row record both page kinds share (an int8 sketch and the norm,
//!   bounded against the query's own i16 quantization with one exact
//!   integer dot — the bound that decides which rows a query scores and
//!   which blocks it reads at all), and a shared byte-budgeted
//!   [`BlockCache`] (a [`wg_util::lru::Lru`] behind a mutex);
//! * [`minhash`] — MinHash signatures and a banded MinHash LSH for *sets*,
//!   used by the Aurum and D3L baselines.
//!
//! The paper's §5.2.3 "block-and-verify" idea — bound cheaply, verify
//! exactly — lives in the row bound, not in a separate index.

#![forbid(unsafe_code)]

pub mod index;
pub mod minhash;
pub mod paged;
pub mod params;
pub mod scope;
pub mod simhash;

pub use index::{SearchError, SearchOutcome, SimHashLshIndex};
pub use minhash::{MinHashLshIndex, MinHashSignature, MinHasher};
pub use paged::{BlockCache, RowSketch, SegmentRow, VectorSegment};
pub use params::LshParams;
pub use scope::DiscoverScope;
pub use simhash::{Signature, SimHasher};
pub use wg_util::lru::CacheStats;

/// Item identifiers stored in the indexes. Callers keep the mapping from
/// these to their own addressing (e.g. fully-qualified column refs).
///
/// Under federation the id space is partitioned by backend: the high
/// [`BACKEND_BITS`] carry the backend's interned-name bits and the low
/// [`LOCAL_BITS`] a per-backend counter (see [`compose_item_id`]). The
/// legacy single-backend layout is the `backend = 0` slice of this space,
/// so pre-federation ids are already well-formed federated ids in the
/// default namespace.
pub type ItemId = u32;

/// High bits of an [`ItemId`] reserved for the backend namespace.
/// Matches `wg_util::names::MAX_NAMES` (= 256 distinct backend names).
pub const BACKEND_BITS: u32 = 8;

/// Low bits of an [`ItemId`] available for per-backend item numbering.
pub const LOCAL_BITS: u32 = 32 - BACKEND_BITS;

/// Items one backend namespace can hold (2^24 ≈ 16.7M columns).
pub const MAX_LOCAL_ITEMS: u32 = 1 << LOCAL_BITS;

/// Pack a backend's interner bits and a per-backend local counter into one
/// [`ItemId`].
///
/// # Panics
///
/// Panics when `backend` exceeds the 8-bit budget or `local` exceeds
/// [`MAX_LOCAL_ITEMS`] — both indicate a broken caller, not a workload.
#[inline]
pub fn compose_item_id(backend: u16, local: u32) -> ItemId {
    assert!((backend as u32) < (1 << BACKEND_BITS), "backend bits {backend} exceed 8-bit budget");
    assert!(local < MAX_LOCAL_ITEMS, "local id {local} exceeds the 24-bit per-backend budget");
    ((backend as u32) << LOCAL_BITS) | local
}

/// The backend-namespace bits of an [`ItemId`].
#[inline]
pub fn item_backend(id: ItemId) -> u16 {
    (id >> LOCAL_BITS) as u16
}

/// The per-backend local counter of an [`ItemId`].
#[inline]
pub fn item_local(id: ItemId) -> u32 {
    id & (MAX_LOCAL_ITEMS - 1)
}

#[cfg(test)]
mod id_tests {
    use super::*;

    #[test]
    fn compose_and_split_round_trip() {
        for (backend, local) in [(0u16, 0u32), (0, 7), (1, 0), (3, 42), (255, MAX_LOCAL_ITEMS - 1)]
        {
            let id = compose_item_id(backend, local);
            assert_eq!(item_backend(id), backend);
            assert_eq!(item_local(id), local);
        }
    }

    #[test]
    fn default_namespace_ids_are_legacy_ids() {
        // backend 0 is the identity slice: composed ids equal the local id,
        // which is what makes pre-federation snapshots load unchanged.
        for local in [0u32, 1, 1000, MAX_LOCAL_ITEMS - 1] {
            assert_eq!(compose_item_id(0, local), local);
        }
    }

    #[test]
    #[should_panic(expected = "24-bit per-backend budget")]
    fn local_overflow_panics() {
        compose_item_id(0, MAX_LOCAL_ITEMS);
    }
}
