//! Warm-vs-cold parity: a discovery answered from the embedding cache —
//! vector and signature computed once, by an earlier query — ranks exactly
//! as one that scans, embeds and signs afresh, scores included, bit for
//! bit. Held over testbedXS on a default system and on one with the cache
//! off, before and after a sync that changes two tables.

use std::sync::Arc;

use warpgate::corpora::{build_testbed, TestbedSpec};
use warpgate::prelude::*;

const K: usize = 10;

/// A ranking with its scores as bit patterns, so `==` is bit-identity.
type Ranking = Vec<(ColumnRef, u32)>;

fn ranking(d: &Discovery) -> Ranking {
    d.candidates.iter().map(|c| (c.reference.clone(), c.score.to_bits())).collect()
}

/// testbedXS at row scale 0.1 and its column refs in catalog order.
fn xs_corpus() -> (Arc<CdwConnector>, Vec<ColumnRef>) {
    let corpus = build_testbed(&TestbedSpec::xs(0.1));
    let refs = corpus.warehouse.table_metas().iter().flat_map(|m| m.column_refs()).collect();
    (Arc::new(CdwConnector::new(corpus.warehouse, CdwConfig::free())), refs)
}

/// Every query of `refs` on `wg`, one call each: the rankings, and which
/// queries were answered from the cache.
fn one_by_one(wg: &WarpGate, refs: &[ColumnRef]) -> (Vec<Ranking>, Vec<bool>) {
    refs.iter()
        .map(|q| {
            let d = wg.discover(q, K).unwrap();
            (ranking(&d), d.timing.cache_hit)
        })
        .unzip()
}

/// Replace `table` with its first two thirds of rows: new content, new
/// token, new embeddings for its columns.
fn shrink(connector: &CdwConnector, database: &str, table: &str) {
    let mut warehouse = connector.warehouse_mut();
    let old = warehouse.table(database, table).unwrap();
    let keep: Vec<usize> = (0..old.num_rows() * 2 / 3).collect();
    let new = old.take(&keep);
    warehouse.database_mut(database).add_table(new);
}

#[test]
fn cache_hits_rank_like_the_cold_path_before_and_after_a_sync() {
    let (connector, refs) = xs_corpus();
    let warm = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    let cold = WarpGate::with_backend(
        WarpGateConfig { cache_capacity: 0, ..Default::default() },
        connector.clone(),
    );
    assert!(WarpGateConfig::default().cache_capacity >= refs.len(), "every query stays cached");
    warm.index_warehouse().unwrap();
    cold.index_warehouse().unwrap();

    // Columns of the tables the sync changed; `None` before it.
    let mut changed: Option<Vec<ColumnRef>> = None;
    for round in ["before the sync", "after the sync"] {
        // The first pass on the warm system fills its cache (after the sync,
        // only the changed tables' columns miss); the second is all hits.
        let (filled, filled_hits) = one_by_one(&warm, &refs);
        let expected: Vec<bool> =
            refs.iter().map(|q| changed.as_ref().is_some_and(|c| !c.contains(q))).collect();
        assert_eq!(filled_hits, expected, "{round}: the filling pass");
        let (hits, all_hit) = one_by_one(&warm, &refs);
        assert!(all_hit.iter().all(|&h| h), "{round}: the second pass is answered from the cache");
        let (uncached, any_hit) = one_by_one(&cold, &refs);
        assert!(any_hit.iter().all(|&h| !h), "{round}: the cache-off system never hits");
        assert!(uncached.iter().any(|r| !r.is_empty()), "{round}: the rankings are not all empty");

        for (i, q) in refs.iter().enumerate() {
            assert_eq!(hits[i], uncached[i], "{round}: {q} ranks differently from the cache");
            assert_eq!(filled[i], uncached[i], "{round}: {q} ranks differently filling the cache");
        }

        if changed.is_none() {
            let metas = connector.list_tables().unwrap();
            let two = [&metas[0], &metas[metas.len() / 2]];
            for meta in two {
                shrink(&connector, &meta.database, &meta.table);
            }
            changed = Some(two.iter().flat_map(|m| m.column_refs()).collect());
            for wg in [&warm, &cold] {
                let report = wg.sync().unwrap();
                assert_eq!(report.tables_updated, 2, "{report:?}");
            }
        }
    }
}
