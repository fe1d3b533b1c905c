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
    /// Real seconds spent on embedding inference.
    pub embed_secs: f64,
    /// Real seconds spent in the LSH lookup + exact re-rank.
    pub lookup_secs: f64,
    /// Virtual CDW network latency charged for the load (not slept; see
    /// `wg_store::cdw`). Includes any backoff delay charged by retry
    /// middleware in the backend stack.
    pub virtual_load_secs: f64,
    /// Scan attempts repeated by retry middleware while loading the query
    /// column (0 on a healthy link or a bare backend). Sums through
    /// [`Self::add`].
    pub retries: u64,
    /// Segment blocks the lookup read from the paged tier (0 when every
    /// candidate was RAM-resident). Sums through [`Self::add`].
    pub blocks_read: u64,
    /// Segment blocks the lookup skipped because the resident row bounds
    /// proved none of their candidate rows could reach the running top-k.
    /// Sums through [`Self::add`].
    pub blocks_pruned: u64,
    /// True when the query embedding came out of the system's embedding
    /// cache: the scan and embed phases were skipped entirely, so
    /// `load_secs`, `embed_secs`, and `virtual_load_secs` are all zero.
    pub cache_hit: bool,
    /// True when this answer was served **degraded**: admission pressure
    /// shed the request and the caller's [`crate::QueryOptions`] opted
    /// into a warm-cache-only answer instead of the `Overloaded` error.
    /// Degradation is never silent — this flag is the contract. ORs
    /// through [`Self::add`] like `cache_hit`.
    pub degraded: bool,
    /// The backend namespace whose scan these costs bill to, when a single
    /// one is attributable: the query column's backend for `discover`, the
    /// synced backend for a per-backend [`crate::SyncReport`] slice.
    /// `None` when the timing aggregates across backends (see
    /// [`Self::add`]) or predates attribution.
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

    /// Fraction of the response attributable to index lookup (the paper
    /// reports <25% on testbedS, <13% on testbedM).
    pub fn lookup_fraction(&self) -> f64 {
        let total = self.response_secs();
        if total <= 0.0 {
            0.0
        } else {
            self.lookup_secs / total
        }
    }

    /// Component-wise sum (used to average over a query workload). The
    /// cache flag ORs: an accumulated timing is "cached" if any constituent
    /// query was.
    pub fn add(&mut self, other: &QueryTiming) {
        self.load_secs += other.load_secs;
        self.embed_secs += other.embed_secs;
        self.lookup_secs += other.lookup_secs;
        self.virtual_load_secs += other.virtual_load_secs;
        self.retries += other.retries;
        self.blocks_read += other.blocks_read;
        self.blocks_pruned += other.blocks_pruned;
        self.cache_hit |= other.cache_hit;
        self.degraded |= other.degraded;
        // Attribution survives only while every constituent billed the
        // same namespace; mixing backends yields an unattributed total.
        if self.backend != other.backend {
            self.backend = None;
        }
    }

    /// Component-wise division by a count. The retry and block counters
    /// stay totals (an integer mean would round to uselessness at low
    /// rates), and the cache flag keeps its accumulated OR.
    pub fn divide(&self, n: usize) -> QueryTiming {
        if n == 0 {
            return *self;
        }
        let d = n as f64;
        QueryTiming {
            load_secs: self.load_secs / d,
            embed_secs: self.embed_secs / d,
            lookup_secs: self.lookup_secs / d,
            virtual_load_secs: self.virtual_load_secs / d,
            retries: self.retries,
            blocks_read: self.blocks_read,
            blocks_pruned: self.blocks_pruned,
            cache_hit: self.cache_hit,
            degraded: self.degraded,
            backend: self.backend,
        }
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
        assert!((t.lookup_fraction() - 0.5 / 3.75).abs() < 1e-12);
    }

    #[test]
    fn add_then_divide_is_mean() {
        let mut acc = QueryTiming::default();
        for _ in 0..4 {
            acc.add(&QueryTiming {
                load_secs: 2.0,
                embed_secs: 4.0,
                lookup_secs: 1.0,
                virtual_load_secs: 0.4,
                ..QueryTiming::default()
            });
        }
        let mean = acc.divide(4);
        assert!((mean.load_secs - 2.0).abs() < 1e-12);
        assert!((mean.embed_secs - 4.0).abs() < 1e-12);
    }

    #[test]
    fn retries_sum_through_add_and_survive_divide() {
        let mut acc = QueryTiming::default();
        acc.add(&QueryTiming { retries: 2, ..QueryTiming::default() });
        acc.add(&QueryTiming { retries: 1, ..QueryTiming::default() });
        assert_eq!(acc.retries, 3);
        assert_eq!(acc.divide(2).retries, 3, "divide keeps the total retry count");
    }

    #[test]
    fn block_counters_sum_through_add_and_survive_divide() {
        let mut acc = QueryTiming::default();
        acc.add(&QueryTiming { blocks_read: 3, blocks_pruned: 5, ..QueryTiming::default() });
        acc.add(&QueryTiming { blocks_read: 1, blocks_pruned: 2, ..QueryTiming::default() });
        assert_eq!(acc.blocks_read, 4);
        assert_eq!(acc.blocks_pruned, 7);
        let mean = acc.divide(2);
        assert_eq!(mean.blocks_read, 4, "divide keeps block totals");
        assert_eq!(mean.blocks_pruned, 7);
    }

    #[test]
    fn cache_hit_flag_ors_through_add() {
        let mut acc = QueryTiming::default();
        assert!(!acc.cache_hit);
        acc.add(&QueryTiming { cache_hit: true, ..QueryTiming::default() });
        acc.add(&QueryTiming::default());
        assert!(acc.cache_hit);
        assert!(acc.divide(2).cache_hit);
    }

    #[test]
    fn degraded_flag_ors_through_add_and_survives_divide() {
        let mut acc = QueryTiming::default();
        assert!(!acc.degraded);
        acc.add(&QueryTiming { degraded: true, ..QueryTiming::default() });
        acc.add(&QueryTiming::default());
        assert!(acc.degraded, "one degraded constituent flags the aggregate");
        assert!(acc.divide(2).degraded);
    }

    #[test]
    fn backend_attribution_survives_same_backend_sums_only() {
        let wh = Some(BackendId::named("timing-test-wh"));
        let mut acc = QueryTiming { backend: wh, ..QueryTiming::default() };
        acc.add(&QueryTiming { backend: wh, load_secs: 1.0, ..QueryTiming::default() });
        assert_eq!(acc.backend, wh, "same-backend sums stay attributed");
        assert_eq!(acc.divide(2).backend, wh);
        acc.add(&QueryTiming::default());
        assert_eq!(acc.backend, None, "mixing namespaces drops attribution");
    }

    #[test]
    fn zero_cases() {
        let t = QueryTiming::default();
        assert_eq!(t.lookup_fraction(), 0.0);
        assert_eq!(t.divide(0), t);
    }
}
