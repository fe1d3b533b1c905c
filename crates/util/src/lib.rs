//! Shared low-level utilities for the WarpGate workspace.
//!
//! Everything in this crate is deterministic and depends on nothing but
//! `std`, so that the embedding models, corpus generators and LSH indexes
//! built on top of it are bit-reproducible across runs and platforms:
//!
//! * [`hash`] — stable 64-bit hashing (FNV-1a plus a SplitMix64 finalizer)
//!   and a fast `FxHash`-style hasher for in-memory maps.
//! * [`rng`] — seedable [`SplitMix64`](rng::SplitMix64) and
//!   [`Xoshiro256pp`](rng::Xoshiro256pp) generators with uniform, range and
//!   Gaussian sampling.
//! * [`topk`] — a bounded max-result heap for top-k selection.
//! * [`codec`] — the little-endian, length-prefixed binary codec every
//!   frame and file is written with: `put_*` appends to a `Vec<u8>`,
//!   `get_*` reads off the front of a `&[u8]`, bounds-checked and typed on
//!   truncated or corrupt input.
//! * [`timing`] — tiny wall-clock timers and summary statistics used by the
//!   evaluation harness.
//! * [`kernel`] — vectorization-friendly `dot`/`axpy`/`gemv` kernels over
//!   contiguous buffers, scalar reference implementations, and
//!   thread-local scratch pools (the embed → sign → re-rank hot path).
//! * [`lru`] — the one LRU cache: a byte-budgeted slab LRU with O(1) hits
//!   and evictions, behind both the embedding cache and the paged tier's
//!   block cache.
//! * [`names`] — the process-wide backend-name interner behind federated
//!   namespaces (`"default"` pinned to id 0, 256-name cap matching the
//!   LSH item-id bit budget).
//! * [`atomic_file`] — the one temp → fsync → rename → directory-fsync
//!   write every published file goes through.
//! * [`checksum`] — the slice-by-16 CRC-32 behind every checksum of a
//!   segment.
//! * [`deadline`] — cooperative request deadlines ([`Deadline`]) and the
//!   pipeline [`Phase`] vocabulary that overload control reports expiry
//!   against.
//! * [`segment`] — checksummed block-addressed segment files: the one
//!   on-disk container (a snapshot is a segment), validated trailer →
//!   directory CRC → directory so loaders reject torn or bit-rotted files
//!   before any of their state installs, and read with positioned I/O so
//!   cold blocks never need to be resident.

#![forbid(unsafe_code)]

pub mod atomic_file;
pub mod checksum;
pub mod codec;
pub mod deadline;
pub mod hash;
pub mod kernel;
pub mod lru;
pub mod names;
pub mod rng;
pub mod segment;
pub mod timing;
pub mod topk;

pub use deadline::{Deadline, Phase};
pub use hash::{fx_hash_map, fx_hash_set, stable_hash64, stable_hash_str, FxHashMap, FxHashSet};
pub use rng::{SplitMix64, Xoshiro256pp};
pub use topk::TopK;

/// The machine's hardware thread count, resolved once and cached.
///
/// `std::thread::available_parallelism()` is not free — on Linux it
/// re-reads the cgroup CPU quota files on every call (≈ 10 µs in a
/// container), which is real money on a per-query path. The value cannot
/// change meaningfully for our purposes (worker-pool sizing),
/// so hot paths should use this cached resolution.
pub fn hardware_threads() -> usize {
    use std::sync::OnceLock;
    static HW: OnceLock<usize> = OnceLock::new();
    *HW.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}
