//! One module per table/figure of the paper (see DESIGN.md §4 for the
//! experiment index).

pub mod ablations;
pub mod bert;
pub mod figure4;
pub mod samples;
pub mod scale;
pub mod sigma_adhoc;
pub mod table1;
pub mod table2;

use std::sync::Arc;

use wg_store::{BackendHandle, CdwConfig, CdwConnector, RetryBackend};

/// The k values the paper sweeps in Figure 4.
pub const KS: &[usize] = &[2, 3, 5, 10];

/// Wrap a corpus warehouse in the standard middleware stack:
/// `RetryBackend(CdwConnector)` with the default (priced,
/// virtually-latent) cost model used by all timing experiments. The
/// simulated CDW never fails, so the retry layer is pure composition
/// proof here — zero retries, zero extra cost — but every experiment now
/// exercises the same stack a resilient deployment runs.
pub fn connect(warehouse: wg_store::Warehouse) -> BackendHandle {
    let inner: BackendHandle = Arc::new(CdwConnector::new(warehouse, CdwConfig::default()));
    Arc::new(RetryBackend::with_defaults(inner))
}

/// Same stack over a free CDW (effectiveness-only experiments where
/// virtual latency would just add noise to no benefit).
pub fn connect_free(warehouse: wg_store::Warehouse) -> BackendHandle {
    let inner: BackendHandle = Arc::new(CdwConnector::new(warehouse, CdwConfig::free()));
    Arc::new(RetryBackend::with_defaults(inner))
}
