//! # WarpGate — semantic join discovery for cloud data warehouses
//!
//! A from-scratch Rust reproduction of *"WarpGate: A Semantic Join
//! Discovery System for Cloud Data Warehouses"* (CIDR 2023). This facade
//! crate re-exports the whole workspace behind one dependency:
//!
//! ```
//! use warpgate::prelude::*;
//!
//! // A tiny warehouse with two joinable columns in different formats.
//! let mut warehouse = Warehouse::new("demo");
//! warehouse.database_mut("crm").add_table(
//!     Table::new(
//!         "accounts",
//!         vec![Column::text(
//!             "name",
//!             ["Acme Corp", "Globex Inc", "Initech LLC", "Hooli Co", "Stark Industries"],
//!         )],
//!     )
//!     .unwrap(),
//! );
//! warehouse.database_mut("finance").add_table(
//!     Table::new(
//!         "industries",
//!         vec![
//!             Column::text(
//!                 "company",
//!                 ["ACME CORP", "GLOBEX INC", "INITECH LLC", "HOOLI CO", "STARK INDUSTRIES"],
//!             ),
//!             Column::text(
//!                 "sector",
//!                 ["Manufacturing", "Energy", "Software", "Media", "Biotech"],
//!             ),
//!         ],
//!     )
//!     .unwrap(),
//! );
//!
//! // Attach a backend (here: the simulated CDW), index, discover.
//! let backend: BackendHandle = std::sync::Arc::new(CdwConnector::with_defaults(warehouse));
//! let wg = WarpGate::with_backend(WarpGateConfig::default(), backend);
//! wg.index_warehouse().unwrap();
//! let query = ColumnRef::new("crm", "accounts", "name");
//! let discovery = wg.discover(&query, 3).unwrap();
//! assert_eq!(discovery.candidates[0].reference.table, "industries");
//! ```
//!
//! Any [`store::WarehouseBackend`] plugs into the same seam: the simulated
//! CDW above, a `CsvBackend` over a directory of exports, a
//! `FaultInjector` wrapping either, a `RetryBackend` adding
//! backoff-with-jitter resilience, or a `RemoteBackend` reaching a
//! warehouse served over TCP by a `RemoteBackendServer`.
//! `WarpGate::sync()` keeps the index incremental as the attached
//! warehouses change (`attach_named` adds more, each under its own
//! namespace; `sync_with` reconciles one, or runs under a deadline), and
//! `SyncDaemon` runs that reconciliation on a schedule with circuit
//! breaking (see the `resilient_service` example for the full stack).
//! Serving verbs take their options as an argument — `discover_with(q, k,
//! &QueryOptions)`, `discover_batch`, `joinability` — and `discover(q, k)`
//! is the default-options call.
//!
//! Under load the system sheds rather than hangs, and it does so in one
//! place — the node's request preamble, deadline → resolve → admission →
//! serve: admission control (`WarpGateConfig::with_admission`, one
//! `AdmissionConfig`) sheds excess requests fast with the retryable
//! `StoreError::Overloaded` before any backend call, and cooperative
//! deadlines (`QueryOptions` / `Deadline`) guarantee an expired request
//! stops before its next billed scan or cold block read. A
//! `RemoteBackendServer` only caps its connections (`RemoteServerConfig`),
//! protecting its handler threads; its frames carry no deadline.
//!
//! ## Workspace map
//!
//! | crate | contents |
//! |---|---|
//! | [`warpgate_core`] | the WarpGate system (indexing + search pipelines) |
//! | [`wg_store`] | column store, catalog, CSV, sampling, joins, simulated CDW |
//! | [`wg_embed`] | hashed web-table embeddings, mini transformer, aggregation |
//! | [`wg_lsh`] | SimHash & MinHash LSH indexes, exact search |
//! | [`wg_profile`] | column profiles (MinHash, stats, formats, q-grams) |
//! | [`wg_baselines`] | Aurum and D3L |
//! | [`wg_corpora`] | NextiaJD / Spider / Sigma corpus generators + fleet model |
//! | [`wg_eval`] | metrics, experiment runners, the `reproduce` binary |
//! | [`wg_util`] | hashing, deterministic PRNG, top-k, timing, binary codec |
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use warpgate_core as core;
pub use wg_baselines as baselines;
pub use wg_corpora as corpora;
pub use wg_embed as embed;
pub use wg_eval as eval;
pub use wg_lsh as lsh;
pub use wg_profile as profile;
pub use wg_store as store;
pub use wg_util as util;

/// The types most applications need, importable in one line.
pub mod prelude {
    pub use warpgate_core::{
        AdmissionConfig, AdmissionStats, BackendCircuit, CheckpointPolicy, Checkpointer,
        CircuitState, CrashState, DaemonReport, Discovery, JoinCandidate, QueryOptions,
        QueryTiming, RecoveryReport, RecoverySource, SyncDaemon, SyncDaemonConfig, SyncReport,
        TornWriter, WarpGate, WarpGateConfig,
    };
    pub use wg_embed::{Aggregation, ColumnEmbedder, EmbeddingModel, WebTableModel};
    pub use wg_lsh::DiscoverScope;
    pub use wg_store::{
        BackendHandle, BackendId, CdwConfig, CdwConnector, Column, ColumnRef, CsvBackend, Database,
        FaultInjector, FaultPlan, JoinType, KeyNorm, RemoteBackend, RemoteBackendServer,
        RemoteServerConfig, RemoteServerStats, RetryBackend, RetryPolicy, SampleSpec, StoreError,
        SystemClock, Table, TableMeta, TableRef, Warehouse, WarehouseBackend,
    };
    pub use wg_util::{Deadline, Phase};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let mut warehouse = Warehouse::new("w");
        warehouse
            .database_mut("db")
            .add_table(Table::new("t", vec![Column::text("c", ["x", "y"])]).unwrap());
        let backend: BackendHandle =
            std::sync::Arc::new(CdwConnector::new(warehouse, CdwConfig::free()));
        let wg = WarpGate::with_backend(WarpGateConfig::default(), backend);
        let report = wg.index_warehouse().unwrap();
        assert_eq!(report.columns_indexed, 1);
    }
}
