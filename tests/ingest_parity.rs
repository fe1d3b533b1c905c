//! Ingest parity suite (ISSUE 14): the scan → sample → embed path over a
//! real corpus, held to the bytes and bits it produced before sampling went
//! by dictionary code, tokens into a reused buffer, and n-gram bases into a
//! cache.
//!
//! The per-function differential tests (each new path against the code it
//! replaced, kept as a `#[cfg(test)]` oracle) live beside the code in
//! `wg_store::{column, sample}` and `wg_embed::{tokenizer, webtable,
//! column_embed}`; what needs several crates at once is here.

use std::sync::Arc;

use warpgate::corpora::{build_testbed, TestbedSpec};
use warpgate::embed::{tokenize, Vector};
use warpgate::prelude::*;
use warpgate::store::{RemoteBackend, RemoteBackendServer};
use warpgate::util::checksum::crc32;

/// testbedXS at row scale 0.1 — 257 columns of every dtype the generator
/// makes — and its column refs in catalog order.
fn xs_corpus() -> (Arc<CdwConnector>, Vec<ColumnRef>) {
    let corpus = build_testbed(&TestbedSpec::xs(0.1));
    let refs = corpus.warehouse.table_metas().iter().flat_map(|m| m.column_refs()).collect();
    (Arc::new(CdwConnector::new(corpus.warehouse, CdwConfig::free())), refs)
}

fn bits(v: &Vector) -> Vec<u32> {
    v.0.iter().map(|x| x.to_bits()).collect()
}

/// Literals taken at commit 1ce078b (the parent of the ingest rewrite) by a
/// scratch program running this same loop. A later change that moves one
/// sampled row, one dictionary entry or one bit of one embedding fails
/// here; if the move is intended, it is a format change and says so.
#[test]
fn scans_and_embeddings_of_a_fixed_corpus_match_the_golden_digests() {
    let (connector, refs) = xs_corpus();
    let config = WarpGateConfig::default();
    let wg = WarpGate::new(config);
    let mut wire = Vec::new();
    let mut embedded = Vec::new();
    for r in &refs {
        let column = connector.scan_column(r, config.sample).unwrap();
        column.encode(&mut wire);
        for x in &wg.embedder().embed_column(&column).0 {
            embedded.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    assert_eq!(refs.len(), 257);
    assert_eq!(wire.len(), 563_349);
    assert_eq!(connector.costs().bytes_scanned, 563_349, "the bill is the wire bytes");
    assert_eq!(crc32(&wire), 0xe517_b45b, "sampled scans moved");
    assert_eq!(crc32(&embedded), 0x9f77_06d3, "embeddings moved");
}

/// The loop `embed_column` replaced, rebuilt from public pieces: distinct
/// values rendered to strings, owned tokens, one copied vector per token,
/// `Vector` arithmetic.
fn embed_column_by_hand(
    model: &WebTableModel,
    aggregation: Aggregation,
    column: &Column,
) -> Vector {
    let total = column.len().max(1) as f32;
    let mut acc = Vector::zeros(model.dim());
    let mut any = false;
    for (value, count) in column.value_counts() {
        let tokens = tokenize(&value);
        if tokens.is_empty() {
            continue;
        }
        let mut v = Vector::zeros(model.dim());
        for t in &tokens {
            v.add_scaled(&model.token_vector(t), 1.0);
        }
        v.normalize();
        let weight = match aggregation {
            Aggregation::MeanDistinct => 1.0,
            Aggregation::FrequencyWeighted => count as f32,
            Aggregation::Sif { a } => a / (a + count as f32 / total),
        };
        acc.add_scaled(&v, weight);
        any = true;
    }
    if any {
        acc.normalize();
    }
    acc
}

#[test]
fn fused_column_embedding_equals_the_loop_built_from_public_pieces() {
    let (connector, refs) = xs_corpus();
    let sample = WarpGateConfig::default().sample;
    let columns: Vec<Column> =
        refs.iter().step_by(3).map(|r| connector.scan_column(r, sample).unwrap()).collect();
    let model = Arc::new(WebTableModel::default_model());
    for aggregation in
        [Aggregation::MeanDistinct, Aggregation::FrequencyWeighted, Aggregation::Sif { a: 0.05 }]
    {
        let embedder = ColumnEmbedder::new(model.clone(), aggregation);
        for column in &columns {
            let want = embed_column_by_hand(&model, aggregation, column);
            assert_eq!(
                bits(&embedder.embed_column(column)),
                bits(&want),
                "{} under {aggregation:?}",
                column.name()
            );
        }
    }
}

/// Every column a real warehouse serves passes the dictionary check the
/// remote client now runs, and arrives byte-equal to the in-process scan.
#[test]
fn remote_scans_pass_the_dictionary_check_and_carry_the_same_bytes() {
    let (connector, refs) = xs_corpus();
    let sample = WarpGateConfig::default().sample;
    let server = RemoteBackendServer::serve(connector.clone(), "127.0.0.1:0").unwrap();
    let remote = RemoteBackend::connect(server.local_addr().to_string()).unwrap();
    let wire = |c: &Column| {
        let mut buf = Vec::new();
        c.encode(&mut buf);
        buf
    };
    for r in &refs {
        let far = remote.scan_column(r, sample).unwrap();
        let near = connector.scan_column(r, sample).unwrap();
        assert_eq!(wire(&far), wire(&near), "{r}");
    }
    for meta in connector.list_tables().unwrap() {
        let far = remote.scan_table(&meta.database, &meta.table, sample).unwrap();
        let near = connector.scan_table(&meta.database, &meta.table, sample).unwrap();
        for (f, n) in far.columns().iter().zip(near.columns()) {
            assert_eq!(wire(f), wire(n), "{}.{}", meta.table, n.name());
        }
    }
    server.shutdown();
}
