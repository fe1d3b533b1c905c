//! WarpGate: embedding-based semantic join discovery for cloud data
//! warehouses — the paper's primary contribution (CIDR 2023).
//!
//! The system answers *top-k semantic join discovery* queries: given a
//! query column from a table in a CDW, return up to `k` columns from the
//! corpus most likely to be joinable with it, ranked by the cosine
//! similarity of their column embeddings (the paper's semantic column
//! join-ability `J(A,B) = M(T(A), T(B))`).
//!
//! Two pipelines (paper Fig. 2):
//!
//! * **Indexing** — scan every column through the attached
//!   [`wg_store::WarehouseBackend`] (with sampling pushed down, §3.1.3),
//!   embed it ([`wg_embed`]), and insert the embedding into a SimHash LSH
//!   index ([`wg_lsh`]) tuned to the paper's 0.7 cosine threshold.
//!   Indexing is one reconciliation — parallel, incremental and
//!   deterministic: [`WarpGate::sync`] diffs the backend's per-table
//!   version tokens and re-scans only what changed (a first build,
//!   [`WarpGate::index_warehouse`], is the sync that finds every table
//!   new), and columns register in catalog order, so item ids — and every
//!   persisted byte — are a function of the warehouse, not of thread
//!   timing.
//! * **Search** — embed the query column the same way, look up the LSH
//!   bucket sub-universe, re-rank by exact cosine, return scored
//!   [`JoinCandidate`]s with a [`QueryTiming`] decomposition
//!   (load / embed / lookup — the decomposition behind the paper's
//!   Table 2 analysis). Repeated queries hit a keyed embedding cache
//!   and skip the scan+embed phases entirely.
//!
//! One way in per verb: a serving verb takes its options as an argument
//! ([`QueryOptions`] for `discover_with` / `joinability`, a backend and a
//! deadline for `sync_with`), and `&QueryOptions::default()` is the plain
//! call; only `discover`, `sync` and `index_warehouse` keep a plain
//! spelling beside it. The code is laid out the same way: `system.rs`
//! holds the state and attach / detach, `ingest.rs` the indexing pipeline
//! and its ordered fan-out, `query.rs` the search pipeline behind one
//! request preamble.
//!
//! Concurrency: one reader–writer lock covers the state both pipelines
//! share — each namespace's backend handle, attach epoch and version
//! tokens, the id → column-ref registry, and the one LSH index
//! ([`wg_lsh::SimHashLshIndex`]). A query takes it twice (to resolve its
//! namespace, then for one search); a sync installs each table — removals,
//! rows and token — under one write guard, one sync at a time; attach
//! and detach change a handle and its epoch under one write guard. Rows and
//! queries are signed, and columns scanned and embedded, before the lock is
//! taken, so a guard covers bucket pushes or one search, nothing more.
//!
//! The crate also implements the product interaction the paper builds
//! around discovery (§3.2): [`WarpGate::augment_via_lookup`] executes the
//! cardinality-preserving lookup join that "Add column via lookup" performs
//! once the user picks a recommendation.
//!
//! For long-running service deployments, [`SyncDaemon`] runs
//! [`WarpGate::sync_with`] for every attached backend on a schedule, then
//! checkpoints, with an observable [`DaemonReport`]; pair it with
//! `wg_store::RetryBackend` for per-call resilience.
//!
//! Federation (§9 of DESIGN.md): [`WarpGate::attach_named`] registers any
//! number of backends under interned names; refs, cache keys, sync epochs,
//! and index item ids are all namespaced by `wg_store::BackendId`, queries
//! scope with `wg_lsh::DiscoverScope`, and per-backend sync/cost slices
//! surface through [`SyncReport::per_backend`].
//!
//! Overload resilience (§12 of DESIGN.md): every serving verb takes one
//! request preamble — deadline gate → resolve each namespace → admission
//! → serve. The [`admission`] module's [`AdmissionController`] is a
//! concurrency cap with a bounded FIFO wait queue that sheds with the
//! retryable `Overloaded`; cooperative request deadlines
//! (`wg_util::Deadline`) are checked at every pipeline phase boundary.
//! Both reach `discover_with` / `joinability` through [`QueryOptions`]
//! (and a deadline reaches `sync_with`).
//!
//! Durability (§10 of DESIGN.md): snapshots are checksummed and written
//! atomically, persisted sync tokens let a restarted node's first `sync()`
//! bill only genuinely changed tables, [`Checkpointer`] rotates two
//! generations with corrupt-newest fallback, and the crash-recovery suite
//! replays a checkpoint crashing at every byte offset so the recovery
//! guarantees are machine-checked rather than asserted.

#![forbid(unsafe_code)]

pub mod admission;
pub(crate) mod cache;
pub mod config;
pub mod daemon;
pub mod durability;
mod ingest;
pub mod persist;
mod query;
mod registry;
pub mod system;
pub mod timing;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionPermit, AdmissionStats};
pub use config::WarpGateConfig;
pub use daemon::{CheckpointPolicy, DaemonReport, SyncDaemon, SyncDaemonConfig};
pub use durability::{Checkpointer, RecoveryReport, RecoverySource};
pub use ingest::{IndexReport, SyncReport};
pub use query::{Discovery, JoinCandidate, QueryOptions};
pub use system::WarpGate;
pub use timing::QueryTiming;
pub use wg_util::lru::CacheStats;
