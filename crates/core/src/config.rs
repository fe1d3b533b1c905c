//! System configuration.

use std::time::Duration;

use wg_embed::Aggregation;
use wg_store::SampleSpec;

use crate::admission::AdmissionConfig;

/// Tunables of a [`crate::WarpGate`] instance.
///
/// Defaults follow the paper's experimental setup: 0.7 SimHash LSH
/// threshold (§4.3), distinct-value sampling (§3.1.3/§4.4 argue sampling is
/// both necessary and safe), SIF aggregation over the hashed web-table
/// embedding space.
#[derive(Debug, Clone, Copy)]
pub struct WarpGateConfig {
    /// Embedding dimension.
    pub dim: usize,
    /// Cosine similarity threshold the LSH banding is tuned for.
    pub lsh_threshold: f64,
    /// Signature bit budget for the LSH index.
    pub lsh_bits: usize,
    /// Extra single-bit probes per band (0 disables multi-probe).
    pub probes: usize,
    /// Sampling pushed into every scan (indexing and query time).
    pub sample: SampleSpec,
    /// How value embeddings aggregate into a column embedding.
    pub aggregation: Aggregation,
    /// Drop candidates from the query's own table (the product recommends
    /// *other* tables to join with).
    pub exclude_same_table: bool,
    /// Blend weight `β` for schema-context embeddings (§5.2.1 extension):
    /// column embeddings become `(1−β)·values + β·context(names)`. 0.0
    /// (the default) reproduces the paper's value-only embeddings.
    pub context_weight: f32,
    /// Indexing worker threads; 0 means "all available cores".
    pub threads: usize,
    /// Embedding-cache capacity in entries (keyed by column × sample spec ×
    /// seed × context weight). 0 disables the cache; repeated `discover` /
    /// `joinability` calls then re-scan and re-embed every time.
    pub cache_capacity: usize,
    /// Rows per block of every snapshot this system seals —
    /// [`crate::WarpGate::save_paged`], `checkpoint`, `to_bytes` and
    /// `save_to_file` all write the one segment format with it. A block is
    /// the **page** of the beyond-RAM tier: the unit of disk read, CRC
    /// check, decode and cache residency, and nothing else (row metadata
    /// and pruning are per row, whatever the page size). The default, 16
    /// rows, is an 8 KB page at `dim` 128; a reader takes the value from
    /// the file it opens, never from here.
    pub block_rows: usize,
    /// Byte budget of the block cache serving paged segments. Blocks past
    /// the budget evict LRU; 0 means unbounded (everything read stays
    /// resident — the all-in-RAM behavior).
    pub block_cache_bytes: usize,
    /// Admission control across the public entry points (`discover*`,
    /// `joinability`, `sync*`): concurrency cap, wait queue, bounded wait
    /// and backoff hint. `None` (the default) disables it entirely — no
    /// cap, no queue, no shedding.
    pub admission: Option<AdmissionConfig>,
    /// Master seed (embedding space + LSH hyperplanes).
    pub seed: u64,
}

impl Default for WarpGateConfig {
    fn default() -> Self {
        Self {
            dim: 128,
            lsh_threshold: 0.7,
            lsh_bits: 128,
            probes: 1,
            sample: SampleSpec::DistinctReservoir { n: 1000, seed: 0x5A17 },
            aggregation: Aggregation::default(),
            exclude_same_table: true,
            context_weight: 0.0,
            threads: 0,
            cache_capacity: 4096,
            block_rows: 16,
            block_cache_bytes: 4 << 20,
            admission: None,
            seed: 0x5747_4154,
        }
    }
}

impl WarpGateConfig {
    /// A configuration that scans full columns (no sampling) — the
    /// expensive baseline mode of Table 2.
    pub fn full_scan() -> Self {
        Self { sample: SampleSpec::Full, ..Self::default() }
    }

    /// Same configuration with a different sample spec.
    pub fn with_sample(self, sample: SampleSpec) -> Self {
        Self { sample, ..self }
    }

    /// Enable §5.2.1 contextual embeddings at blend weight `beta`.
    pub fn with_context(self, beta: f32) -> Self {
        assert!((0.0..=1.0).contains(&beta), "context weight must be in [0,1]");
        Self { context_weight: beta, ..self }
    }

    /// Same configuration with a different embedding-cache capacity
    /// (0 disables caching).
    pub fn with_cache_capacity(self, cache_capacity: usize) -> Self {
        Self { cache_capacity, ..self }
    }

    /// Same configuration with a different paged-segment block size
    /// (rows per block; must be positive).
    pub fn with_block_rows(self, block_rows: usize) -> Self {
        assert!(block_rows > 0, "block_rows must be positive");
        Self { block_rows, ..self }
    }

    /// Same configuration with a different block-cache byte budget
    /// (0 means unbounded).
    pub fn with_block_cache_bytes(self, block_cache_bytes: usize) -> Self {
        Self { block_cache_bytes, ..self }
    }

    /// Same configuration with admission control enabled: at most `cap`
    /// concurrent entry-point calls, up to `queue` more waiting at most
    /// `wait_ms` milliseconds before shedding with the retryable
    /// `Overloaded` with [`AdmissionConfig`]'s default backoff hint. `cap`
    /// must be positive (disable by not calling this — the default config
    /// has admission off).
    pub fn with_admission(self, cap: usize, queue: usize, wait_ms: u64) -> Self {
        assert!(cap > 0, "admission cap must be positive");
        let max_wait = Duration::from_millis(wait_ms);
        Self {
            admission: Some(AdmissionConfig { cap, queue, max_wait, ..AdmissionConfig::default() }),
            ..self
        }
    }

    /// Effective worker-thread count.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            wg_util::hardware_threads()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = WarpGateConfig::default();
        assert_eq!(c.lsh_threshold, 0.7);
        assert!(matches!(c.sample, SampleSpec::DistinctReservoir { .. }));
        assert!(c.exclude_same_table);
        assert_eq!(c.context_weight, 0.0, "paper setting is value-only");
    }

    #[test]
    fn full_scan_disables_sampling() {
        assert_eq!(WarpGateConfig::full_scan().sample, SampleSpec::Full);
    }

    #[test]
    fn effective_threads_positive() {
        assert!(WarpGateConfig::default().effective_threads() >= 1);
        assert_eq!(WarpGateConfig { threads: 3, ..Default::default() }.effective_threads(), 3);
    }

    #[test]
    fn cache_capacity_knob() {
        assert!(WarpGateConfig::default().cache_capacity > 0, "cache on by default");
        assert_eq!(WarpGateConfig::default().with_cache_capacity(0).cache_capacity, 0);
    }

    #[test]
    fn paged_tier_knobs() {
        let c = WarpGateConfig::default();
        assert!(c.block_rows > 0, "blocks can never be empty");
        assert!(c.block_cache_bytes > 0, "cache is bounded by default");
        assert_eq!(c.with_block_rows(16).block_rows, 16);
        assert_eq!(c.with_block_cache_bytes(0).block_cache_bytes, 0, "0 = unbounded");
    }

    #[test]
    #[should_panic(expected = "block_rows must be positive")]
    fn zero_block_rows_rejected() {
        WarpGateConfig::default().with_block_rows(0);
    }

    #[test]
    fn admission_off_by_default_and_builder_enables() {
        let c = WarpGateConfig::default();
        assert_eq!(c.admission, None, "admission control must be opt-in");
        let on = c.with_admission(2, 4, 75).admission.expect("enabled");
        assert_eq!(
            on,
            AdmissionConfig {
                cap: 2,
                queue: 4,
                max_wait: Duration::from_millis(75),
                retry_after_ms: 50
            }
        );
    }

    #[test]
    #[should_panic(expected = "admission cap must be positive")]
    fn zero_admission_cap_rejected() {
        WarpGateConfig::default().with_admission(0, 4, 75);
    }
}
