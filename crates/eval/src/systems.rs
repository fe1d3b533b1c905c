//! Uniform adapter over the three discovery systems.
//!
//! Each system keeps its own API (they *are* architecturally different:
//! Aurum answers from a prebuilt graph, the other two run a load→profile→
//! lookup pipeline per query); this module narrows them to "ranked refs
//! plus a timing decomposition" for the experiment runners.

use std::sync::Arc;

use warpgate_core::{WarpGate, WarpGateConfig};
use wg_baselines::{Aurum, D3l};
use wg_store::{BackendHandle, ColumnRef, SampleSpec, StoreResult, WarehouseBackend};
use wg_util::timing::Stopwatch;

/// Timing decomposition common to all systems. Components a system does
/// not have (Aurum never loads at query time) stay zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct SysTiming {
    /// Real seconds loading the query column.
    pub load_secs: f64,
    /// Real seconds profiling / embedding the query column.
    pub profile_secs: f64,
    /// Real seconds in index/graph lookup.
    pub lookup_secs: f64,
    /// Virtual CDW latency charged for the load.
    pub virtual_load_secs: f64,
}

impl SysTiming {
    /// End-to-end query response time (the paper's Table 2 metric).
    pub fn response_secs(&self) -> f64 {
        self.load_secs + self.profile_secs + self.lookup_secs + self.virtual_load_secs
    }
}

/// A discovery system under evaluation. Queries go through the shared
/// [`WarehouseBackend`] the systems were built over (WarpGate holds its
/// own attached handle to the same backend).
pub trait System: Send + Sync {
    /// Display name ("Aurum", "D3L", "WarpGate").
    fn name(&self) -> &str;

    /// Ranked candidates for a query column, with timing.
    fn query(
        &self,
        backend: &dyn WarehouseBackend,
        q: &ColumnRef,
        k: usize,
    ) -> StoreResult<(Vec<ColumnRef>, SysTiming)>;
}

/// Aurum behind the [`System`] interface.
pub struct AurumSystem(pub Aurum);

impl System for AurumSystem {
    fn name(&self) -> &str {
        "Aurum"
    }

    fn query(
        &self,
        _backend: &dyn WarehouseBackend,
        q: &ColumnRef,
        k: usize,
    ) -> StoreResult<(Vec<ColumnRef>, SysTiming)> {
        let sw = Stopwatch::start();
        let hits = self.0.neighbors(q, k)?;
        let timing = SysTiming { lookup_secs: sw.elapsed_secs(), ..Default::default() };
        Ok((hits.into_iter().map(|(r, _)| r).collect(), timing))
    }
}

/// D3L behind the [`System`] interface.
pub struct D3lSystem(pub D3l);

impl System for D3lSystem {
    fn name(&self) -> &str {
        "D3L"
    }

    fn query(
        &self,
        backend: &dyn WarehouseBackend,
        q: &ColumnRef,
        k: usize,
    ) -> StoreResult<(Vec<ColumnRef>, SysTiming)> {
        let (hits, t) = self.0.query(backend, q, k)?;
        let timing = SysTiming {
            load_secs: t.load_secs,
            profile_secs: t.profile_secs,
            lookup_secs: t.lookup_secs,
            virtual_load_secs: t.virtual_load_secs,
        };
        Ok((hits.into_iter().map(|h| h.reference).collect(), timing))
    }
}

/// WarpGate behind the [`System`] interface. WarpGate queries through its
/// *attached* backend (the one `build_systems` handed it), so the
/// `backend` parameter is unused here — pass the same handle the system
/// was built over.
pub struct WarpGateSystem(pub WarpGate);

impl System for WarpGateSystem {
    fn name(&self) -> &str {
        "WarpGate"
    }

    fn query(
        &self,
        _backend: &dyn WarehouseBackend,
        q: &ColumnRef,
        k: usize,
    ) -> StoreResult<(Vec<ColumnRef>, SysTiming)> {
        let d = self.0.discover(q, k)?;
        let timing = SysTiming {
            load_secs: d.timing.load_secs,
            profile_secs: d.timing.embed_secs,
            lookup_secs: d.timing.lookup_secs,
            virtual_load_secs: d.timing.virtual_load_secs,
        };
        Ok((d.candidates.into_iter().map(|c| c.reference).collect(), timing))
    }
}

/// Build all three systems over one connected warehouse. `query_sample`
/// configures WarpGate's scan sampling (the baselines follow their
/// published full-pass designs).
///
/// WarpGate's embedding cache is disabled here: the paper's timing
/// artifacts (Table 2, §4.4) measure *cold* queries whose cost is
/// dominated by the CDW scan and embedding inference, and the evaluation
/// harness replays the same queries repeatedly. A warm cache would
/// silently measure a different system.
pub fn build_systems(
    backend: &BackendHandle,
    query_sample: SampleSpec,
) -> StoreResult<Vec<Box<dyn System>>> {
    let aurum = Aurum::build(backend.as_ref())?;
    let d3l = D3l::build(backend.as_ref())?;
    let warpgate = WarpGate::with_backend(
        WarpGateConfig { sample: query_sample, cache_capacity: 0, ..WarpGateConfig::default() },
        backend.clone(),
    );
    warpgate.index_warehouse()?;
    Ok(vec![
        Box::new(AurumSystem(aurum)),
        Box::new(D3lSystem(d3l)),
        Box::new(WarpGateSystem(warpgate)),
    ])
}

/// Build just WarpGate under `config` with a given embedding model choice.
/// Cache disabled for the same cold-query reason as [`build_systems`].
pub fn build_warpgate(
    backend: &BackendHandle,
    config: WarpGateConfig,
    model: Option<Arc<dyn wg_embed::EmbeddingModel>>,
) -> StoreResult<WarpGateSystem> {
    let config = config.with_cache_capacity(0);
    let wg = match model {
        Some(m) => WarpGate::with_model(config, m),
        None => WarpGate::new(config),
    };
    wg.attach_named(wg_util::names::DEFAULT_NAME, backend.clone());
    wg.index_warehouse()?;
    Ok(WarpGateSystem(wg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_corpora::TestbedSpec;
    use wg_store::{CdwConfig, CdwConnector};

    #[test]
    fn all_systems_answer_queries() {
        let corpus = wg_corpora::build_testbed(&TestbedSpec::xs(0.05));
        let backend: BackendHandle =
            Arc::new(CdwConnector::new(corpus.warehouse, CdwConfig::free()));
        let systems =
            build_systems(&backend, SampleSpec::DistinctReservoir { n: 500, seed: 1 }).unwrap();
        assert_eq!(systems.len(), 3);
        let q = &corpus.queries[0];
        for s in &systems {
            let (hits, timing) = s.query(backend.as_ref(), q, 5).unwrap();
            assert!(hits.len() <= 5, "{} overflowed k", s.name());
            assert!(timing.response_secs() >= 0.0);
        }
    }
}
