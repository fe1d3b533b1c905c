//! Concurrency bench for the hot path: discover throughput under writer
//! churn with and without the embedding cache, plus cold vs. warm (cached)
//! query latency and batched discovery.
//!
//! Unlike the paper-artifact benches this one is a custom harness: it
//! measures sustained queries/second from N reader threads against one
//! shared `WarpGate` while one writer thread continuously drops tables
//! from the warehouse and restores them, syncing after each change (the
//! CDW-with-high-update-rates pattern), and writes
//! a machine-readable snapshot to `BENCH_core.json` at the repo root so
//! future PRs have a perf trajectory baseline.
//!
//! Scenarios:
//!
//! * `uncached_baseline` — embedding cache disabled: every query
//!   re-scans + re-embeds.
//! * `cached` — the default configuration: one index behind one lock,
//!   plus the cache. Its 8-reader q/s is the lock layer's number.
//!
//! `WG_BENCH_QUICK=1` shrinks measurement windows for CI smoke runs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use warpgate_core::{QueryOptions, WarpGate, WarpGateConfig};
use wg_bench::{median, xs_fixture};
use wg_store::{BackendHandle, CdwConnector, ColumnRef};

const READER_THREADS: usize = 8;

/// Build and fully index a system with the given knobs.
fn build(backend: &BackendHandle, cache_capacity: usize) -> WarpGate {
    let wg = WarpGate::with_backend(
        WarpGateConfig { cache_capacity, threads: 2, ..Default::default() },
        backend.clone(),
    );
    wg.index_warehouse().expect("indexing");
    wg
}

/// Sustained discover throughput: `READER_THREADS` threads loop over
/// `queries` against one shared system while one writer thread churns
/// `churn_tables` (drop from `warehouse` + sync, restore + sync; a round
/// always ends restored). Returns queries/second.
fn reader_throughput(
    wg: &WarpGate,
    warehouse: &CdwConnector,
    queries: &[ColumnRef],
    churn_tables: &[(String, String)],
    window: Duration,
) -> f64 {
    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for r in 0..READER_THREADS {
            let wg = &wg;
            let stop = &stop;
            let completed = &completed;
            scope.spawn(move || {
                let mut i = r; // stagger starting offsets
                while !stop.load(Ordering::Relaxed) {
                    let q = &queries[i % queries.len()];
                    wg.discover(q, 10).expect("discover");
                    completed.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        if !churn_tables.is_empty() {
            let wg = &wg;
            let stop = &stop;
            scope.spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (db, table) = &churn_tables[i % churn_tables.len()];
                    let dropped = warehouse.warehouse_mut().database_mut(db).remove_table(table);
                    wg.sync().expect("churn drop");
                    warehouse.warehouse_mut().database_mut(db).add_table(dropped.expect("churn"));
                    wg.sync().expect("churn restore");
                    i += 1;
                }
            });
        }
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
    });
    completed.load(Ordering::Relaxed) as f64 / started.elapsed().as_secs_f64()
}

/// Per-query cold and warm latency on a fresh cached system.
fn latency(wg: &WarpGate, queries: &[ColumnRef]) -> (f64, f64) {
    let mut cold = Vec::with_capacity(queries.len());
    let mut warm = Vec::with_capacity(queries.len());
    for q in queries {
        let sw = Instant::now();
        let d = wg.discover(q, 10).expect("cold discover");
        cold.push(sw.elapsed().as_secs_f64());
        assert!(!d.timing.cache_hit, "first query must be cold");

        let sw = Instant::now();
        let d = wg.discover(q, 10).expect("warm discover");
        warm.push(sw.elapsed().as_secs_f64());
        assert!(d.timing.cache_hit, "second query must be warm");
        assert_eq!(d.timing.load_secs, 0.0);
        assert_eq!(d.timing.embed_secs, 0.0);
    }
    (median(&mut cold), median(&mut warm))
}

fn main() {
    let quick = std::env::var("WG_BENCH_QUICK").is_ok();
    let window = if quick { Duration::from_millis(500) } else { Duration::from_secs(3) };
    let (corpus, warehouse) = xs_fixture();
    let connector: BackendHandle = warehouse.clone();
    let (tables, columns, _, _, _) = corpus.stats();

    // Reader queries: a fixed slice of the corpus query workload. Churn
    // tables: warehouse tables that no reader query touches, so the writer
    // invalidates no reader cache entry and the isolated comparison stays
    // lock-bound.
    let queries: Vec<ColumnRef> = corpus.queries.iter().take(16).cloned().collect();
    assert!(!queries.is_empty(), "corpus has no queries");
    let query_tables: std::collections::HashSet<(String, String)> =
        queries.iter().map(|q| (q.database.clone(), q.table.clone())).collect();
    let mut churn_tables: Vec<(String, String)> = Vec::new();
    for meta in connector.list_tables().expect("list_tables") {
        let key = (meta.database, meta.table);
        if !query_tables.contains(&key) && !churn_tables.contains(&key) {
            churn_tables.push(key);
            if churn_tables.len() == 2 {
                break;
            }
        }
    }
    // The snapshot documents a 1-writer contention workload; refuse to
    // silently measure an uncontended read-only run instead.
    assert_eq!(
        churn_tables.len(),
        2,
        "corpus left no query-free tables to churn; adjust the query slice"
    );

    // Headline: the cached hot path vs. the uncached one, same mixed
    // workload.
    let baseline = build(&connector, 0);
    let baseline_qps = reader_throughput(&baseline, &warehouse, &queries, &churn_tables, window);
    drop(baseline);
    let cached = build(&connector, 4096);
    // Warm the cache: steady-state serving is the workload under test.
    for q in &queries {
        cached.discover(q, 10).expect("warm-up");
    }
    let cached_qps = reader_throughput(&cached, &warehouse, &queries, &churn_tables, window);
    drop(cached);
    println!(
        "bench: concurrent_discover/throughput_8t ... uncached_baseline {baseline_qps:.0} q/s, cached {cached_qps:.0} q/s ({:.1}x)",
        cached_qps / baseline_qps.max(1e-9),
    );

    // Cold vs. warm latency (the cache in isolation, no writer).
    let fresh = build(&connector, 4096);
    let (cold_median, warm_median) = latency(&fresh, &queries);
    drop(fresh);
    println!(
        "bench: concurrent_discover/query_latency ... cold {:.1}us, warm {:.1}us ({:.0}x)",
        cold_median * 1e6,
        warm_median * 1e6,
        cold_median / warm_median.max(1e-12),
    );

    // Batched discovery vs. a sequential loop over the same cold systems,
    // under the default worker resolution (`threads: 0` = one worker per
    // hardware thread — the serving configuration; pinning more workers
    // than cores is for blocking remote backends, not this in-process
    // fixture). Medians over alternating repetitions (a fresh cold
    // system per measurement, indexing excluded): one-shot timings on
    // this workload are dominated by scheduler noise, which once
    // recorded a phantom 28% batching regression.
    let batch_reps = if quick { 3 } else { 9 };
    let mut sequential_samples = Vec::with_capacity(batch_reps);
    let mut batch_samples = Vec::with_capacity(batch_reps);
    for rep in 0..(2 * batch_reps) {
        let wg = WarpGate::with_backend(
            WarpGateConfig { cache_capacity: 4096, threads: 0, ..Default::default() },
            connector.clone(),
        );
        wg.index_warehouse().expect("indexing");
        let sequential_turn = (rep % 2 == 0) == (rep / 2 % 2 == 0);
        if sequential_turn {
            let sw = Instant::now();
            for q in &queries {
                wg.discover(q, 10).expect("sequential");
            }
            sequential_samples.push(sw.elapsed().as_secs_f64());
        } else {
            let sw = Instant::now();
            let out = wg.discover_batch(&queries, 10, &QueryOptions::default()).expect("batched");
            batch_samples.push(sw.elapsed().as_secs_f64());
            assert_eq!(out.len(), queries.len());
        }
    }
    let sequential_secs = median(&mut sequential_samples);
    let batch_secs = median(&mut batch_samples);
    println!(
        "bench: concurrent_discover/batch ... sequential {:.1}ms, discover_batch {:.1}ms (medians of {batch_reps})",
        sequential_secs * 1e3,
        batch_secs * 1e3,
    );

    let section = format!(
        r#"{{
    "bench": "concurrent_discover",
    "generated_by": "cargo bench --bench concurrent_discover",
    "quick_mode": {quick},
    "corpus": {{"name": "{name}", "tables": {tables}, "columns": {columns}}},
    "workload": {{
      "reader_threads": {readers},
      "writer_threads": 1,
      "reader_queries": {nq},
      "churn_tables": {nchurn},
      "window_secs": {window:.3},
      "hardware_threads": {hw}
    }},
    "discover_throughput_8t": {{
      "uncached_baseline_qps": {baseline_qps:.1},
      "cached_qps": {cached_qps:.1},
      "speedup": {headline:.2}
    }},
    "query_latency_secs": {{
      "cold_median": {cold_median:.6},
      "warm_median": {warm_median:.6},
      "speedup": {lat:.1}
    }},
    "batch_discover_secs": {{
      "sequential": {sequential_secs:.4},
      "batched": {batch_secs:.4}
    }}
  }}"#,
        name = corpus.name,
        readers = READER_THREADS,
        nq = queries.len(),
        nchurn = churn_tables.len(),
        window = window.as_secs_f64(),
        hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        headline = cached_qps / baseline_qps.max(1e-9),
        lat = cold_median / warm_median.max(1e-12),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");
    // CI smoke runs exercise the concurrent path but must not dirty the
    // committed perf snapshot with quick-mode numbers.
    if quick {
        println!("bench: concurrent_discover ... quick mode, not rewriting {path}");
    } else {
        // Merged as a named section so re-running this bench never eats
        // the other benches' recorded sections.
        wg_bench::merge_bench_section(path, "concurrent_discover", &section);
        println!("bench: concurrent_discover ... section merged into {path}");
    }
}
