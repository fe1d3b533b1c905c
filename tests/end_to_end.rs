//! End-to-end integration: the full discovery pipeline over a generated
//! corpus, quality floors versus the baselines, persistence through the
//! whole system, and incremental index maintenance.

use warpgate::baselines::{Aurum, AurumConfig, D3l, D3lConfig};
use warpgate::corpora::{build_testbed, TestbedSpec};
use warpgate::eval::metrics::precision_recall_at_k;
use warpgate::prelude::*;

fn corpus() -> warpgate::corpora::Corpus {
    build_testbed(&TestbedSpec::xs(0.1))
}

fn free_connector(w: Warehouse) -> std::sync::Arc<CdwConnector> {
    std::sync::Arc::new(CdwConnector::new(w, CdwConfig::free()))
}

fn mean_pr(
    corpus: &warpgate::corpora::Corpus,
    mut rank: impl FnMut(&ColumnRef) -> Vec<ColumnRef>,
    k: usize,
) -> (f64, f64) {
    let mut p = 0.0;
    let mut r = 0.0;
    for q in &corpus.queries {
        let hits = rank(q);
        let (pi, ri) = precision_recall_at_k(&hits, corpus.truth.answers(q), k);
        p += pi;
        r += ri;
    }
    let n = corpus.queries.len() as f64;
    (p / n, r / n)
}

#[test]
fn warpgate_beats_syntactic_baseline_on_semantic_corpus() {
    let corpus = corpus();
    let connector = free_connector(corpus.warehouse.clone());

    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();
    let aurum = Aurum::build(connector.as_ref(), AurumConfig::default()).unwrap();

    let (wg_p, wg_r) = mean_pr(
        &corpus,
        |q| wg.discover(q, 10).unwrap().candidates.into_iter().map(|c| c.reference).collect(),
        10,
    );
    let (au_p, au_r) = mean_pr(
        &corpus,
        |q| aurum.neighbors(q, 10).unwrap().into_iter().map(|(r, _)| r).collect(),
        10,
    );
    assert!(wg_r > au_r + 0.2, "WarpGate recall {wg_r:.3} should clearly beat Aurum {au_r:.3}");
    assert!(wg_p >= au_p, "WarpGate precision {wg_p:.3} vs Aurum {au_p:.3}");
    assert!(wg_r > 0.5, "absolute recall floor: {wg_r:.3}");
}

#[test]
fn warpgate_at_least_matches_d3l() {
    let corpus = corpus();
    let connector = free_connector(corpus.warehouse.clone());
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();
    let d3l = D3l::build(connector.as_ref(), D3lConfig::default()).unwrap();

    let (wg_p, wg_r) = mean_pr(
        &corpus,
        |q| wg.discover(q, 5).unwrap().candidates.into_iter().map(|c| c.reference).collect(),
        5,
    );
    let (d3_p, d3_r) = mean_pr(
        &corpus,
        |q| {
            d3l.query(connector.as_ref(), q, 5)
                .unwrap()
                .0
                .into_iter()
                .map(|h| h.reference)
                .collect()
        },
        5,
    );
    // XS is the smallest fixture, so allow a modest wobble here; the
    // reproduce binary enforces strict dominance on the full S/M panels.
    assert!(wg_r + 0.07 >= d3_r, "WarpGate recall {wg_r:.3} vs D3L {d3_r:.3}");
    assert!(wg_p + 0.07 >= d3_p, "WarpGate precision {wg_p:.3} vs D3L {d3_p:.3}");
}

#[test]
fn persistence_round_trips_through_full_system() {
    let corpus = corpus();
    let connector = free_connector(corpus.warehouse.clone());
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();

    let q = &corpus.queries[0];
    let before: Vec<_> =
        wg.discover(q, 5).unwrap().candidates.into_iter().map(|c| (c.reference, c.score)).collect();

    let path = std::env::temp_dir().join(format!("wg_e2e_{}.idx", std::process::id()));
    wg.save_to_file(&path).unwrap();
    let mut restored = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    restored.load_from_file(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let after: Vec<_> = restored
        .discover(q, 5)
        .unwrap()
        .candidates
        .into_iter()
        .map(|c| (c.reference, c.score))
        .collect();
    assert_eq!(before, after, "discovery changed across persistence");
}

#[test]
fn incremental_updates_are_visible_to_discovery() {
    let corpus = corpus();
    let connector = free_connector(corpus.warehouse.clone());
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();

    // Pick a query and clone one of its answers into a brand-new table.
    let q = corpus.queries[0].clone();
    let answer = corpus.truth.answers(&q)[0].clone();
    let answer_col = connector.warehouse().column(&answer).unwrap().clone();
    connector
        .warehouse_mut()
        .database_mut("nextiajd")
        .add_table(Table::new("fresh_table", vec![answer_col.renamed("fresh_copy")]).unwrap());
    wg.index_table(&TableRef::new("nextiajd", "fresh_table")).unwrap();

    let hits = wg.discover(&q, 10).unwrap();
    assert!(
        hits.candidates
            .iter()
            .any(|c| c.reference == ColumnRef::new("nextiajd", "fresh_table", "fresh_copy")),
        "newly indexed copy of an answer column should rank: {:?}",
        hits.candidates
    );

    // Remove it again; it must disappear from results.
    assert_eq!(wg.remove_table(&TableRef::new("nextiajd", "fresh_table")), 1);
    let hits = wg.discover(&q, 10).unwrap();
    assert!(hits.candidates.iter().all(|c| c.reference.table != "fresh_table"));
}

#[test]
fn indexing_is_deterministic_across_thread_counts() {
    let corpus = corpus();
    let connector = free_connector(corpus.warehouse.clone());
    let one = WarpGate::with_backend(
        WarpGateConfig { threads: 1, ..Default::default() },
        connector.clone(),
    );
    one.index_warehouse().unwrap();
    let many =
        WarpGate::with_backend(WarpGateConfig { threads: 4, ..Default::default() }, connector);
    many.index_warehouse().unwrap();
    assert_eq!(one.len(), many.len());
    for q in corpus.queries.iter().take(5) {
        let a = one.discover(q, 5).unwrap().candidates;
        let b = many.discover(q, 5).unwrap().candidates;
        assert_eq!(a, b, "thread count changed results for {q}");
    }
}

#[test]
fn scan_costs_accumulate_across_the_pipeline() {
    let corpus = corpus();
    let connector = std::sync::Arc::new(CdwConnector::with_defaults(corpus.warehouse.clone()));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    let report = wg.index_warehouse().unwrap();
    assert_eq!(report.cost.requests as usize, 257, "one scan per column");
    assert!(report.cost.usd > 0.0);

    connector.reset_costs();
    wg.discover(&corpus.queries[0], 5).unwrap();
    let query_cost = connector.costs();
    assert_eq!(query_cost.requests, 1, "a query scans exactly its own column");
}
