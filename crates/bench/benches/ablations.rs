//! Ablations over the design choices DESIGN.md §3 calls out:
//!
//! * LSH threshold sweep (and multi-probe on/off) — effectiveness plus
//!   lookup latency;
//! * aggregation scheme (mean-distinct / frequency / SIF);
//! * embedding dimension — effectiveness vs query cost;
//! * sampling strategy (head / reservoir / distinct-reservoir) at equal
//!   budget;
//! * LSH vs exact search latency as the vector set grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use warpgate_core::{WarpGate, WarpGateConfig};
use wg_bench::xs_fixture;
use wg_corpora::Corpus;
use wg_embed::{Aggregation, WebTableConfig, WebTableModel};
use wg_eval::metrics::precision_recall_at_k;
use wg_store::SampleSpec;

fn pr_at_5(corpus: &Corpus, wg: &WarpGate) -> (f64, f64) {
    let mut p = 0.0;
    let mut r = 0.0;
    for q in &corpus.queries {
        let hits: Vec<_> =
            wg.discover(q, 5).unwrap().candidates.into_iter().map(|c| c.reference).collect();
        let (pi, ri) = precision_recall_at_k(&hits, corpus.truth.answers(q), 5);
        p += pi;
        r += ri;
    }
    let n = corpus.queries.len() as f64;
    (p / n, r / n)
}

fn ablation_lsh_threshold(c: &mut Criterion) {
    let (corpus, connector) = xs_fixture();
    println!("\n[ablation] LSH threshold sweep (P@5/R@5, XS stand-in):");
    let mut group = c.benchmark_group("ablation_lsh_threshold/query");
    for threshold in [0.5, 0.6, 0.7, 0.8] {
        for probes in [0usize, 1, 2] {
            // Cache off: these loops time the cold discover path; a warm
            // cache would hide the phases the ablation sweeps.
            let wg = WarpGate::with_backend(
                WarpGateConfig {
                    lsh_threshold: threshold,
                    probes,
                    cache_capacity: 0,
                    ..WarpGateConfig::default()
                },
                connector.clone(),
            );
            wg.index_warehouse().unwrap();
            let (p, r) = pr_at_5(&corpus, &wg);
            println!("  threshold {threshold:.1} probes {probes}: P {p:.3} R {r:.3}");
            if probes == 1 {
                let q = corpus.queries[0].clone();
                group.bench_with_input(
                    BenchmarkId::from_parameter(format!("t{threshold:.1}")),
                    &wg,
                    |b, wg| b.iter(|| black_box(wg.discover(&q, 5).unwrap())),
                );
            }
        }
    }
    group.finish();
}

fn ablation_aggregation(c: &mut Criterion) {
    let (corpus, connector) = xs_fixture();
    println!("\n[ablation] aggregation scheme (P@5/R@5):");
    let mut group = c.benchmark_group("ablation_aggregation/index");
    group.sample_size(10);
    for agg in
        [Aggregation::MeanDistinct, Aggregation::FrequencyWeighted, Aggregation::Sif { a: 0.05 }]
    {
        let wg = WarpGate::with_backend(
            WarpGateConfig { aggregation: agg, ..Default::default() },
            connector.clone(),
        );
        wg.index_warehouse().unwrap();
        let (p, r) = pr_at_5(&corpus, &wg);
        println!("  {}: P {p:.3} R {r:.3}", agg.label());
        group.bench_function(agg.label(), |b| {
            b.iter(|| {
                let wg = WarpGate::with_backend(
                    WarpGateConfig { aggregation: agg, ..Default::default() },
                    connector.clone(),
                );
                black_box(wg.index_warehouse().unwrap())
            })
        });
    }
    group.finish();
}

fn ablation_dim(c: &mut Criterion) {
    let (corpus, connector) = xs_fixture();
    println!("\n[ablation] embedding dimension (P@5/R@5):");
    let mut group = c.benchmark_group("ablation_dim/query");
    for dim in [32usize, 64, 128, 256] {
        let model = WebTableModel::new(WebTableConfig { dim, ..WebTableConfig::default() });
        let wg = WarpGate::with_model(
            WarpGateConfig { dim, cache_capacity: 0, ..WarpGateConfig::default() },
            Arc::new(model),
        );
        wg.attach_named(wg_util::names::DEFAULT_NAME, connector.clone());
        wg.index_warehouse().unwrap();
        let (p, r) = pr_at_5(&corpus, &wg);
        println!("  dim {dim}: P {p:.3} R {r:.3}");
        let q = corpus.queries[0].clone();
        group.bench_with_input(BenchmarkId::from_parameter(dim), &wg, |b, wg| {
            b.iter(|| black_box(wg.discover(&q, 5).unwrap()))
        });
    }
    group.finish();
}

fn ablation_sampling_strategy(c: &mut Criterion) {
    let (corpus, connector) = xs_fixture();
    println!("\n[ablation] sampling strategy at n=100 (P@5/R@5):");
    let mut group = c.benchmark_group("ablation_sampling/query");
    for (label, spec) in [
        ("head", SampleSpec::Head(100)),
        ("reservoir", SampleSpec::Reservoir { n: 100, seed: 7 }),
        ("distinct", SampleSpec::DistinctReservoir { n: 100, seed: 7 }),
    ] {
        let wg = WarpGate::with_backend(
            WarpGateConfig::default().with_sample(spec).with_cache_capacity(0),
            connector.clone(),
        );
        wg.index_warehouse().unwrap();
        let (p, r) = pr_at_5(&corpus, &wg);
        println!("  {label}: P {p:.3} R {r:.3}");
        let q = corpus.queries[0].clone();
        group.bench_with_input(BenchmarkId::from_parameter(label), &wg, |b, wg| {
            b.iter(|| black_box(wg.discover(&q, 5).unwrap()))
        });
    }
    group.finish();
}

fn ablation_lsh_vs_exact(c: &mut Criterion) {
    // Pure index-layer comparison: LSH candidates + re-rank vs brute force,
    // on growing synthetic vector sets.
    use wg_util::rng::{Rng64, Xoshiro256pp};
    let mut group = c.benchmark_group("ablation_lsh_vs_exact/lookup");
    let dim = 128;
    for n in [1_000usize, 10_000] {
        let mut rng = Xoshiro256pp::new(9);
        let mut lsh = wg_lsh::SimHashLshIndex::for_threshold(dim, 0.7, 5);
        let mut exact = wg_lsh::ExactIndex::new(dim);
        for id in 0..n as u32 {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            lsh.insert(id, &v);
            exact.insert(id, &v);
        }
        let query: Vec<f32> = {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_gaussian() as f32).collect();
            let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            v
        };
        group.bench_with_input(BenchmarkId::new("lsh", n), &lsh, |b, idx| {
            b.iter(|| black_box(idx.search(&query, 10, |_| false)))
        });
        group.bench_with_input(BenchmarkId::new("exact", n), &exact, |b, idx| {
            b.iter(|| black_box(idx.search(&query, 10, |_| false)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ablation_lsh_threshold,
    ablation_aggregation,
    ablation_dim,
    ablation_sampling_strategy,
    ablation_lsh_vs_exact
);
criterion_main!(benches);
