//! Query timing decomposition.

use wg_store::BackendId;

/// Wall-clock decomposition of one discovery query.
///
/// The paper's Table 2 analysis rests on exactly this split: index lookup
/// is a minority of end-to-end response time; loading data out of the CDW
/// and embedding inference dominate, which is what makes sampling (not
/// faster index structures) the effective lever.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QueryTiming {
    /// Real seconds spent scanning the query column (wire round trip).
    pub load_secs: f64,
    /// Real seconds spent on embedding inference, and on signing the
    /// embedding for the lookup (once, when it is computed).
    pub embed_secs: f64,
    /// Real seconds spent in the LSH lookup + exact re-rank. Holds no
    /// signing: the query's signature comes with its embedding.
    pub lookup_secs: f64,
    /// Virtual CDW network latency charged for the load (not slept; see
    /// `wg_store::cdw`). Includes any backoff delay charged by retry
    /// middleware in the backend stack.
    pub virtual_load_secs: f64,
    /// Scan attempts repeated by retry middleware while loading the query
    /// column (0 on a healthy link or a bare backend).
    pub retries: u64,
    /// Segment blocks the lookup read from the paged tier (0 when every
    /// candidate was RAM-resident).
    pub blocks_read: u64,
    /// Segment blocks the lookup skipped because the resident row bounds
    /// proved none of their candidate rows could reach the running top-k.
    pub blocks_pruned: u64,
    /// True when the query embedding came out of the system's embedding
    /// cache, signature and all: the scan, embed and sign phases were
    /// skipped entirely, so `load_secs`, `embed_secs`, and
    /// `virtual_load_secs` are all zero and `lookup_secs` is the whole of
    /// the work.
    pub cache_hit: bool,
    /// The backend namespace whose scan these costs bill to: the query
    /// column's, on every [`crate::Discovery`]. `None` only on a
    /// default-constructed timing.
    pub backend: Option<BackendId>,
}

impl QueryTiming {
    /// Real compute time (load + embed + lookup).
    pub fn total_secs(&self) -> f64 {
        self.load_secs + self.embed_secs + self.lookup_secs
    }

    /// End-to-end response time including simulated network latency — the
    /// number comparable to the paper's "query response time".
    pub fn response_secs(&self) -> f64 {
        self.total_secs() + self.virtual_load_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals() {
        let t = QueryTiming {
            load_secs: 1.0,
            embed_secs: 2.0,
            lookup_secs: 0.5,
            virtual_load_secs: 0.25,
            ..QueryTiming::default()
        };
        assert!((t.total_secs() - 3.5).abs() < 1e-12);
        assert!((t.response_secs() - 3.75).abs() < 1e-12);
    }
}
