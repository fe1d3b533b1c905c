//! D3L: five-evidence ensemble discovery (Bogatu et al., ICDE'20).
//!
//! Evidence types and their realizations here:
//!
//! | # | evidence                       | profile                  | index            |
//! |---|--------------------------------|--------------------------|------------------|
//! | i | column-name similarity         | name q-grams             | MinHash LSH      |
//! | ii| column extent (value) overlap  | distinct-value MinHash   | MinHash LSH      |
//! |iii| word-embedding similarity      | mean token embedding     | SimHash LSH      |
//! |iv | format representation          | pattern histogram        | MinHash LSH      |
//! | v | numeric domain distribution    | decile sketch            | scan over numerics |
//!
//! A query loads the column, computes all five profiles, pools candidates
//! from every index and ranks by the mean of the applicable per-evidence
//! similarities. The ensemble makes D3L stronger than Aurum on recall but
//! the slowest system end-to-end (paper Table 2): every query pays five
//! profile computations plus several index lookups.

use std::sync::Arc;

use wg_embed::{Aggregation, ColumnEmbedder, WebTableModel};
use wg_lsh::{LshParams, MinHashLshIndex, MinHasher, SimHashLshIndex};
use wg_profile::ColumnProfile;
use wg_store::{Column, ColumnRef, SampleSpec, StoreError, StoreResult, WarehouseBackend};
use wg_util::timing::Stopwatch;
use wg_util::{FxHashMap, FxHashSet, TopK};

/// MinHash width shared by the name/content/format indexes.
const MINHASH_K: usize = 128;
/// MinHash LSH bands (rows = `MINHASH_K / BANDS`).
const BANDS: usize = 32;
const _: () = assert!(MINHASH_K % BANDS == 0, "BANDS must divide MINHASH_K");
/// Embedding dimension for evidence iii.
const EMBEDDING_DIM: usize = 128;
/// SimHash threshold for the embedding index.
const EMBEDDING_THRESHOLD: f64 = 0.6;
/// Numeric-sketch similarity floor for evidence v candidates.
const NUMERIC_FLOOR: f64 = 0.5;
/// Sampling pushed into scans: D3L's published design profiles full data.
const SAMPLE: SampleSpec = SampleSpec::Full;
/// Seed for hashing and embedding.
const SEED: u64 = 0xD31;

/// Timing decomposition of one D3L query.
#[derive(Debug, Clone, Copy, Default)]
pub struct D3lQueryTiming {
    /// Real seconds loading the query column through the connector.
    pub load_secs: f64,
    /// Real seconds computing the five query profiles.
    pub profile_secs: f64,
    /// Real seconds in index lookups plus ensemble aggregation.
    pub lookup_secs: f64,
    /// Virtual network latency charged by the CDW for the load.
    pub virtual_load_secs: f64,
}

/// A ranked recommendation with its per-evidence scores.
#[derive(Debug, Clone)]
pub struct D3lHit {
    /// Candidate column.
    pub reference: ColumnRef,
    /// Aggregated (mean) similarity.
    pub score: f64,
    /// `(evidence label, similarity)` for the evidences that applied.
    pub evidence: Vec<(&'static str, f64)>,
}

/// The D3L system.
pub struct D3l {
    hasher: MinHasher,
    embedder: ColumnEmbedder,
    profiles: Vec<ColumnProfile>,
    embeddings: Vec<Vec<f32>>,
    id_of: FxHashMap<ColumnRef, u32>,
    name_index: MinHashLshIndex,
    content_index: MinHashLshIndex,
    format_index: MinHashLshIndex,
    embedding_index: SimHashLshIndex,
    /// Ids of numeric columns (evidence v candidates).
    numeric_ids: Vec<u32>,
}

impl D3l {
    /// Index every column of the backend's warehouse.
    pub fn build(backend: &dyn WarehouseBackend) -> StoreResult<D3l> {
        let rows = MINHASH_K / BANDS;
        let hasher = MinHasher::new(MINHASH_K, SEED);
        // "Off-the-shelf NLP embeddings" flavor: uniform mean over distinct
        // values, own seed — deliberately not WarpGate's tuned setup.
        let model = WebTableModel::new(EMBEDDING_DIM, SEED ^ 0xE3B0);
        let embedder = ColumnEmbedder::new(Arc::new(model), Aggregation::MeanDistinct);

        let mut d3l = D3l {
            hasher,
            embedder,
            profiles: Vec::new(),
            embeddings: Vec::new(),
            id_of: FxHashMap::default(),
            name_index: MinHashLshIndex::new(BANDS, rows),
            content_index: MinHashLshIndex::new(BANDS, rows),
            format_index: MinHashLshIndex::new(BANDS, rows),
            embedding_index: SimHashLshIndex::new(
                EMBEDDING_DIM,
                LshParams::for_threshold(EMBEDDING_THRESHOLD, 128),
                SEED ^ 0x51AE,
            ),
            numeric_ids: Vec::new(),
        };

        let refs: Vec<ColumnRef> =
            backend.list_tables()?.iter().flat_map(|m| m.column_refs()).collect();
        for r in refs {
            let column = backend.scan_column(&r, SAMPLE)?;
            d3l.insert_column(r, &column);
        }
        Ok(d3l)
    }

    fn insert_column(&mut self, r: ColumnRef, column: &Column) {
        let id = self.profiles.len() as u32;
        let profile = ColumnProfile::build(r.clone(), column, &self.hasher);
        let embedding = self.embedder.embed_column(column);

        self.name_index.insert(id, self.hasher.sign_strs(profile.name_grams.iter()));
        self.content_index.insert(id, profile.content_signature.clone());
        self.format_index.insert(id, self.hasher.sign_strs(profile.format.pattern_set()));
        self.embedding_index.insert(id, embedding.as_slice());
        if column.dtype().is_numeric() {
            self.numeric_ids.push(id);
        }
        self.id_of.insert(r, id);
        self.embeddings.push(embedding.0);
        self.profiles.push(profile);
    }

    /// Number of indexed columns.
    pub fn num_columns(&self) -> usize {
        self.profiles.len()
    }

    /// Discovery query for a warehouse column: load → profile → ensemble.
    pub fn query(
        &self,
        backend: &dyn WarehouseBackend,
        query: &ColumnRef,
        k: usize,
    ) -> StoreResult<(Vec<D3lHit>, D3lQueryTiming)> {
        if !self.id_of.contains_key(query) {
            return Err(StoreError::NotFound(format!("column '{query}' not indexed")));
        }
        let mut timing = D3lQueryTiming::default();

        let costs_before = backend.costs();
        let sw = Stopwatch::start();
        let column = backend.scan_column(query, SAMPLE)?;
        timing.load_secs = sw.elapsed_secs();
        timing.virtual_load_secs = backend.costs().since(&costs_before).virtual_secs;

        let sw = Stopwatch::start();
        let q_profile = ColumnProfile::build(query.clone(), &column, &self.hasher);
        let q_embedding = self.embedder.embed_column(&column);
        timing.profile_secs = sw.elapsed_secs();

        let sw = Stopwatch::start();
        let hits = self.rank(query, &q_profile, &q_embedding.0, k);
        timing.lookup_secs = sw.elapsed_secs();
        Ok((hits, timing))
    }

    /// Ensemble candidate pooling + mean-similarity ranking.
    fn rank(
        &self,
        query: &ColumnRef,
        q_profile: &ColumnProfile,
        q_embedding: &[f32],
        k: usize,
    ) -> Vec<D3lHit> {
        let name_sig = self.hasher.sign_strs(q_profile.name_grams.iter());
        let format_sig = self.hasher.sign_strs(q_profile.format.pattern_set());

        let mut candidates: FxHashSet<u32> = FxHashSet::default();
        candidates.extend(self.name_index.candidates(&name_sig));
        candidates.extend(self.content_index.candidates(&q_profile.content_signature));
        candidates.extend(self.format_index.candidates(&format_sig));
        if !q_embedding.iter().all(|&x| x == 0.0) {
            candidates.extend(self.embedding_index.candidates(q_embedding));
        }
        if !q_profile.numeric.is_empty() {
            for &id in &self.numeric_ids {
                if q_profile.numeric.similarity(&self.profiles[id as usize].numeric)
                    >= NUMERIC_FLOOR
                {
                    candidates.insert(id);
                }
            }
        }

        let mut topk = TopK::new(k);
        for id in candidates {
            let candidate = &self.profiles[id as usize];
            if candidate.reference.same_table(query) {
                continue;
            }
            let mut evidence: Vec<(&'static str, f64)> = Vec::with_capacity(5);
            evidence.push(("name", q_profile.name_similarity(candidate)));
            evidence.push(("content", q_profile.content_similarity(candidate)));
            evidence.push(("format", q_profile.format.similarity(&candidate.format)));
            let emb = cosine(q_embedding, &self.embeddings[id as usize]).max(0.0) as f64;
            evidence.push(("embedding", emb));
            if !q_profile.numeric.is_empty() && !candidate.numeric.is_empty() {
                evidence.push(("numeric", q_profile.numeric.similarity(&candidate.numeric)));
            }
            let score = evidence.iter().map(|(_, s)| s).sum::<f64>() / evidence.len() as f64;
            topk.push(score, id);
        }
        topk.into_sorted()
            .into_iter()
            .map(|(score, id)| {
                let candidate = &self.profiles[id as usize];
                let mut evidence: Vec<(&'static str, f64)> = vec![
                    ("name", q_profile.name_similarity(candidate)),
                    ("content", q_profile.content_similarity(candidate)),
                    ("format", q_profile.format.similarity(&candidate.format)),
                    (
                        "embedding",
                        cosine(q_embedding, &self.embeddings[id as usize]).max(0.0) as f64,
                    ),
                ];
                if !q_profile.numeric.is_empty() && !candidate.numeric.is_empty() {
                    evidence.push(("numeric", q_profile.numeric.similarity(&candidate.numeric)));
                }
                D3lHit { reference: candidate.reference.clone(), score, evidence }
            })
            .collect()
    }
}

#[inline]
fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0f32;
    let mut na = 0.0f32;
    let mut nb = 0.0f32;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    let denom = (na * nb).sqrt();
    if denom <= f32::MIN_POSITIVE {
        0.0
    } else {
        (dot / denom).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_store::{CdwConfig, CdwConnector, Column, Database, Table, Warehouse};

    fn connector() -> CdwConnector {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "accounts",
                vec![Column::text(
                    "company",
                    (0..60).map(|i| format!("Company {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "industries",
                // Format variant of the same entities.
                vec![Column::text(
                    "company_name",
                    (0..60).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "cities",
                vec![Column::text(
                    "city",
                    (0..60).map(|i| format!("City-{i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "metrics",
                vec![
                    Column::floats("revenue", (0..60).map(|i| 1000.0 + i as f64).collect()),
                    Column::floats("income", (0..60).map(|i| 1010.0 + i as f64).collect()),
                ],
            )
            .unwrap(),
        );
        w.add_database(db);
        CdwConnector::new(w, CdwConfig::free())
    }

    #[test]
    fn finds_semantic_variant_via_ensemble() {
        let c = connector();
        let d3l = D3l::build(&c).unwrap();
        let (hits, _) = d3l.query(&c, &ColumnRef::new("db", "accounts", "company"), 3).unwrap();
        assert!(!hits.is_empty());
        assert_eq!(
            hits[0].reference,
            ColumnRef::new("db", "industries", "company_name"),
            "ensemble should surface the format variant: {hits:?}"
        );
        // Evidence should include the embedding signal.
        assert!(hits[0].evidence.iter().any(|(l, s)| *l == "embedding" && *s > 0.3));
    }

    #[test]
    fn numeric_evidence_links_numeric_columns() {
        let c = connector();
        let d3l = D3l::build(&c).unwrap();
        let (hits, _) = d3l.query(&c, &ColumnRef::new("db", "metrics", "revenue"), 3).unwrap();
        // income is in the same table (excluded); there is no other numeric
        // column, so numeric evidence alone must not invent cross-table
        // hits with high scores.
        for h in &hits {
            assert!(h.score < 0.9, "spurious numeric hit: {h:?}");
        }
    }

    #[test]
    fn excludes_same_table() {
        let c = connector();
        let d3l = D3l::build(&c).unwrap();
        let q = ColumnRef::new("db", "metrics", "revenue");
        let (hits, _) = d3l.query(&c, &q, 10).unwrap();
        for h in hits {
            assert!(!h.reference.same_table(&q));
        }
    }

    #[test]
    fn timing_fields_populated() {
        let c = connector();
        let d3l = D3l::build(&c).unwrap();
        let (_, t) = d3l.query(&c, &ColumnRef::new("db", "accounts", "company"), 3).unwrap();
        assert!(t.load_secs > 0.0);
        assert!(t.profile_secs > 0.0);
        assert!(t.lookup_secs > 0.0);
    }

    #[test]
    fn unknown_query_errors() {
        let c = connector();
        let d3l = D3l::build(&c).unwrap();
        assert!(d3l.query(&c, &ColumnRef::new("db", "nope", "x"), 3).is_err());
    }

    #[test]
    fn scores_sorted_descending() {
        let c = connector();
        let d3l = D3l::build(&c).unwrap();
        let (hits, _) = d3l.query(&c, &ColumnRef::new("db", "accounts", "company"), 10).unwrap();
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }
}
