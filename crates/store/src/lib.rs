//! In-memory column store and simulated cloud data warehouse.
//!
//! This crate is the data substrate WarpGate runs on. The paper's system
//! pulls columns out of Snowflake-like cloud data warehouses (CDWs); we
//! reproduce that environment with:
//!
//! * a typed, dictionary-encoding **column store** ([`column`], [`table`],
//!   [`catalog`]) — the paper's §5.2.2 explicitly argues for in-memory
//!   column stores for discovery workloads;
//! * an RFC-4180 **CSV** reader/writer with type inference ([`csv`]);
//! * **sampling** operators pushed into the scan ([`sample`]), the paper's
//!   core cost-reduction lever (§3.1.3, §4.4);
//! * a **join executor** ([`join`]) including the cardinality-preserving
//!   lookup join that backs Sigma Workbooks' `Lookup` formula (§2.1), plus
//!   the containment/Jaccard measures used for ground-truth labeling;
//! * a simulated **CDW connector** ([`cdw`]) that serializes every scan
//!   through a wire codec (real work proportional to bytes moved) and
//!   meters requests, bytes scanned, virtual network latency and
//!   usage-based dollar cost;
//! * the pluggable **warehouse-backend trait** ([`backend`]) those pieces
//!   plug into, with a directory/CSV-backed implementation
//!   ([`csv_backend`]) and a fault/latency-injecting wrapper ([`fault`])
//!   alongside the simulated CDW;
//! * the **service middleware** layered over that trait: a retrying
//!   decorator with exponential backoff and deterministic jitter
//!   ([`retry`]) and a TCP wire-protocol server/client pair ([`remote`])
//!   that serves any backend to a WarpGate node across the network.
//!   Every [`error::StoreError`] is classified retryable vs. fatal
//!   ([`error::StoreError::is_retryable`]), which is the contract the
//!   middleware composes on.
//!
//! Which backends are attached, and under which name, is the business of
//! `warpgate_core::WarpGate`: names intern to a [`BackendId`] here
//! ([`catalog`]), and the handles live with the rest of a system's state.

#![forbid(unsafe_code)]

pub mod backend;
pub mod catalog;
pub mod cdw;
pub mod column;
pub mod csv;
pub mod csv_backend;
pub mod dtype;
pub mod error;
pub mod fault;
pub mod join;
pub mod remote;
pub mod retry;
pub mod sample;
pub mod table;
pub mod value;

pub use backend::{BackendHandle, TableMeta, TableVersion, WarehouseBackend};
pub use catalog::{BackendId, ColumnRef, Database, TableRef, Warehouse};
pub use cdw::{CdwConfig, CdwConnector, CostMeter, CostSnapshot};
pub use column::{Column, ColumnData, TextColumn};
pub use csv_backend::CsvBackend;
pub use dtype::DataType;
pub use error::{StoreError, StoreResult};
pub use fault::{FaultInjector, FaultPlan};
pub use join::{containment, jaccard, JoinType, KeyNorm};
pub use remote::{RemoteBackend, RemoteBackendServer, RemoteServerConfig, RemoteServerStats};
pub use retry::{RetryBackend, RetryClock, RetryPolicy, SystemClock, VirtualClock};
pub use sample::SampleSpec;
pub use table::Table;
pub use value::{Value, ValueRef};
