//! `wg_bench`: WarpGate's seeded, layer-attributed end-to-end benchmark.
//!
//! One binary drives the public `warpgate_core` / `wg_store` / `wg_embed` /
//! `wg_lsh` / `wg_util` APIs from a single process. `/BENCHMARK.json` is
//! generated from the tables in this file ([`benchmark_json`]), so the
//! metric names the binary prints and the names the contract lists cannot
//! drift apart. See `README.md` for the workloads, the glossary and how to
//! read a trace.

pub mod affinity;
pub mod inputs;
pub mod reference;
pub mod rig;
pub mod run;
pub mod stats;
pub mod trace;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 8;

/// The workloads. Each exists because a different layer dominates it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdInproc,
    ColdWgrp,
    WarmRam,
    PagedFit,
    PagedSpill,
    Churn,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::ColdInproc,
        Workload::ColdWgrp,
        Workload::WarmRam,
        Workload::PagedFit,
        Workload::PagedSpill,
        Workload::Churn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdInproc => "cold_inproc_s",
            Workload::ColdWgrp => "cold_wgrp_s",
            Workload::WarmRam => "warm_ram_30k",
            Workload::PagedFit => "paged_fit_30k",
            Workload::PagedSpill => "paged_spill_30k",
            Workload::Churn => "churn_s",
        }
    }

    /// One line on why the workload exists (`why` in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdInproc => "testbedS x0.01, no embedding cache: every discover pays scan+embed, so store and embed own the time (paper Table 2); an lsh change barely moves it",
            Workload::ColdWgrp => "same corpus and queries behind a WGRP loopback server: wire framing and round trips dominate; an in-process scan change shows little here, a wire change shows only here",
            Workload::WarmRam => "30,000-column fleet corpus, every query an embedding-cache hit: store and embed do nothing, so sign + ~1,000-candidate gather + exact re-rank (lsh) is the whole op",
            Workload::PagedFit => "the 30k corpus served from paged segments with block cache = corpus bytes: every block is resident, so this prices the paged path itself against warm_ram_30k",
            Workload::PagedSpill => "the 30k corpus with block cache = corpus/10: the working set is 10x the program's cache, so CRC-checked block reads and LRU eviction own the op",
            Workload::Churn => "writes beside reads on testbedS: rounds of {mutate 2 tables, sync, 200 discovers, checkpoint, recover}; sync and snapshot time count against discover_qps",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True for the workloads built on the NextiaJD-shaped testbed (the
    /// others use the synthetic fleet).
    pub fn uses_testbed(self) -> bool {
        matches!(self, Workload::ColdInproc | Workload::ColdWgrp | Workload::Churn)
    }
}

/// One metric of the contract.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better, bound: 0.0 }
}

/// What a WarpGate user or operator feels; printed by every workload with
/// `--trace 0`. The three window metrics are in reference time (see
/// [`reference`]); even so the timing bounds sit at the contract's ceiling,
/// because on the shared 2-thread box this was sized on that is what keeps a
/// margin over their measured spread (README, "Steadiness"). The exact
/// metrics are tight.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("discover_qps", "1/s", "higher", 0.25),
    e2e("discover_p50_us", "us", "lower", 0.25),
    e2e("discover_p90_us", "us", "lower", 0.25),
    e2e("billed_bytes_per_op", "B", "lower", 0.05),
    e2e("quality_p_at_10", "ratio", "higher", 0.05),
    e2e("quality_r_at_10", "ratio", "higher", 0.05),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
];

/// Single-layer metrics; printed by every workload with `--trace 1`.
pub const PER_LAYER: &[MetricDef] = &[
    // store
    layer("store.scan_us_p50", "us", "lower"),
    layer("store.scan_us_p90", "us", "lower"),
    layer("store.validate_us_p50", "us", "lower"),
    layer("store.costs_us_p50", "us", "lower"),
    layer("store.calls_per_op.validate", "count", "lower"),
    layer("store.calls_per_op.scan", "count", "lower"),
    layer("store.calls_per_op.costs", "count", "lower"),
    layer("store.calls_per_op.table_meta", "count", "lower"),
    layer("store.calls_per_op.list_tables", "count", "lower"),
    layer("store.calls_per_op.snapshot_versions", "count", "lower"),
    layer("store.remote.rtt_us_p50", "us", "lower"),
    layer("store.remote.scan_overhead_us_p50", "us", "lower"),
    layer("store.scan_bytes_per_op", "B", "lower"),
    layer("store.scan_requests_per_op", "count", "lower"),
    layer("store.sample.rows_kept_ratio", "ratio", "lower"),
    layer("store.snapshot_versions_us_p50", "us", "lower"),
    // embed
    layer("embed.column_us_p50", "us", "lower"),
    layer("embed.column_us_p90", "us", "lower"),
    layer("embed.values_per_op", "count", "lower"),
    layer("embed.ns_per_value", "ns", "lower"),
    layer("embed.build_us_per_col", "us", "lower"),
    // lsh
    layer("lsh.sign_us_p50", "us", "lower"),
    layer("lsh.candidates_us_p50", "us", "lower"),
    layer("lsh.rerank_us_p50", "us", "lower"),
    layer("lsh.search_us_p50", "us", "lower"),
    layer("lsh.search_us_p90", "us", "lower"),
    layer("lsh.shard_merge_us_p50", "us", "lower"),
    layer("lsh.candidates_per_op", "count", "lower"),
    layer("lsh.scored_per_op", "count", "lower"),
    layer("lsh.useful_ratio", "ratio", "higher"),
    layer("lsh.recall_at_10_vs_exact", "ratio", "higher"),
    layer("lsh.insert_us_per_col", "us", "lower"),
    layer("lsh.remove_us_per_col", "us", "lower"),
    layer("lsh.paged.blocks_read_per_op", "count", "lower"),
    layer("lsh.paged.blocks_pruned_per_op", "count", "higher"),
    layer("lsh.paged.cache_hit_rate", "ratio", "higher"),
    layer("lsh.paged.evictions_per_op", "count", "lower"),
    layer("lsh.paged.block_load_us_p50", "us", "lower"),
    layer("lsh.paged.resident_bytes_peak", "B", "lower"),
    // core
    layer("core.discover_p50_us", "us", "lower"),
    layer("core.discover_p99_us", "us", "lower"),
    layer("core.discover_p999_us", "us", "lower"),
    layer("core.overhead_us_p50", "us", "lower"),
    layer("core.unattributed_share", "ratio", "lower"),
    layer("core.timing_gap_share", "ratio", "lower"),
    layer("core.cache.hit_rate", "ratio", "higher"),
    layer("core.discover_qps_2c", "1/s", "higher"),
    layer("core.scaling_2c", "ratio", "higher"),
    layer("core.sync_p50_ms", "ms", "lower"),
    layer("core.sync_p90_ms", "ms", "lower"),
    layer("core.sync_cols_per_s", "1/s", "higher"),
    layer("core.sync.billed_scans_per_changed_col", "ratio", "lower"),
    layer("core.index.scan_share", "ratio", "lower"),
    layer("core.index.embed_share", "ratio", "lower"),
    layer("core.index.insert_share", "ratio", "lower"),
    layer("core.index_cols_per_s", "1/s", "higher"),
    layer("core.checkpoint_p50_ms", "ms", "lower"),
    layer("core.recover_p50_ms", "ms", "lower"),
    layer("core.snapshot_bytes_per_col", "B", "lower"),
    layer("core.persist.save_ms_p50", "ms", "lower"),
    layer("core.persist.load_ms_p50", "ms", "lower"),
    layer("core.persist.save_paged_s", "s", "lower"),
    layer("core.persist.load_paged_s", "s", "lower"),
    layer("core.persist.segment_bytes_per_col", "B", "lower"),
    layer("core.admission.acquire_ns_p50", "ns", "lower"),
    // util
    layer("util.kernel.dot_ns", "ns", "lower"),
    layer("util.kernel.gemv_us", "us", "lower"),
    layer("util.checksum.mb_per_s", "MB/s", "higher"),
    // trace
    layer("trace.share.store", "ratio", "lower"),
    layer("trace.share.embed", "ratio", "lower"),
    layer("trace.share.lsh", "ratio", "lower"),
    layer("trace.share.lsh_paged", "ratio", "lower"),
    layer("trace.share.facade_lookup", "ratio", "lower"),
    layer("trace.replay_match_ratio", "ratio", "higher"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.harness_share", "ratio", "lower"),
    layer("trace.spans_per_op", "count", "lower"),
    // bench: the reference kernel's median pass in the traced window — how
    // busy the box was, not anything the program did.
    layer("bench.reference_us_p50", "us", "lower"),
];

/// Look a metric's unit up by name (either table).
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name).map(|m| m.unit)
}

/// The exact text of `/BENCHMARK.json`. A test keeps the committed file
/// equal to this, so the contract is edited here and nowhere else.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"e2e_bench/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"e2e_bench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let rows = |items: Vec<String>| items.join(",\n");
    out.push_str("  \"workloads\": [\n");
    out.push_str(&rows(
        Workload::ALL
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
            .collect(),
    ));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    out.push_str(&rows(
        END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name, m.unit, m.better, m.bound
                )
            })
            .collect(),
    ));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    out.push_str(&rows(
        PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name, m.unit, m.better
                )
            })
            .collect(),
    ));
    out.push_str("\n  ]\n}\n");
    out
}
