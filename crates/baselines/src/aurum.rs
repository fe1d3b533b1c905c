//! Aurum: profile columns, build an enterprise knowledge graph (EKG) of
//! syntactic relationships, answer discovery queries from the graph.
//!
//! Indexing: scan every column once (Aurum assumes a full pass — the very
//! assumption the paper challenges), MinHash the distinct values, and use a
//! banded MinHash LSH to find candidate pairs. An edge is drawn when the
//! estimated Jaccard crosses `content_threshold`, or the column names'
//! q-gram Jaccard crosses `name_threshold` (schema edges).
//!
//! Querying never touches the warehouse again: it is a neighbor lookup in
//! the in-memory graph — which is why Aurum is by far the fastest system in
//! Table 2 and also why its recall suffers on semantic joins: containment-
//! style FK⊂PK pairs have low Jaccard, and format variants share almost no
//! exact values.

use wg_lsh::{MinHashLshIndex, MinHasher};
use wg_profile::ColumnProfile;
use wg_store::{ColumnRef, SampleSpec, StoreError, StoreResult, WarehouseBackend};
use wg_util::FxHashMap;

/// Configuration for [`Aurum`].
#[derive(Debug, Clone, Copy)]
pub struct AurumConfig {
    /// MinHash signature width.
    pub minhash_k: usize,
    /// LSH banding for candidate generation (bands × rows = minhash_k).
    pub bands: usize,
    /// Estimated-Jaccard threshold for content edges.
    pub content_threshold: f64,
    /// Name q-gram Jaccard threshold for schema edges. Values above 1.0
    /// disable schema edges entirely — the default, matching the content-
    /// driven Aurum configuration the paper evaluates (its Figure 4(c)
    /// shows Aurum missing same-named PK/FK pairs that any name matcher
    /// would catch; name evidence is what *D3L* adds).
    pub name_threshold: f64,
    /// Sampling pushed into the indexing scan. Aurum's published design
    /// reads everything: the default is [`SampleSpec::Full`].
    pub sample: SampleSpec,
    /// Seed for the MinHash permutations.
    pub seed: u64,
}

impl Default for AurumConfig {
    fn default() -> Self {
        Self {
            minhash_k: 128,
            bands: 32,
            content_threshold: 0.4,
            name_threshold: 1.1,
            sample: SampleSpec::Full,
            seed: 0xA0B1,
        }
    }
}

/// Kind of relationship stored on an EKG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Value-overlap (MinHash Jaccard) relationship.
    Content,
    /// Column-name similarity relationship.
    Schema,
}

/// One weighted edge of the EKG.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    weight: f64,
    kind: EdgeKind,
}

/// The Aurum system: column profiles + enterprise knowledge graph.
pub struct Aurum {
    config: AurumConfig,
    profiles: Vec<ColumnProfile>,
    id_of: FxHashMap<ColumnRef, u32>,
    adjacency: Vec<Vec<Edge>>,
}

impl Aurum {
    /// Build the EKG over every column of the backend's warehouse. This is
    /// the expensive offline phase: one scan per column plus pairwise edge
    /// detection via MinHash LSH.
    pub fn build(backend: &dyn WarehouseBackend, config: AurumConfig) -> StoreResult<Aurum> {
        assert!(config.minhash_k % config.bands == 0, "bands must divide minhash_k");
        let hasher = MinHasher::new(config.minhash_k, config.seed);
        let refs: Vec<ColumnRef> =
            backend.list_tables()?.iter().flat_map(|m| m.column_refs()).collect();

        let mut profiles = Vec::with_capacity(refs.len());
        let mut id_of = FxHashMap::default();
        let mut lsh = MinHashLshIndex::new(config.bands, config.minhash_k / config.bands);
        for (id, r) in refs.iter().enumerate() {
            let column = backend.scan_column(r, config.sample)?;
            let profile = ColumnProfile::build(r.clone(), &column, &hasher);
            lsh.insert(id as u32, profile.content_signature.clone());
            id_of.insert(r.clone(), id as u32);
            profiles.push(profile);
        }

        // Content edges from LSH candidate pairs.
        let mut adjacency: Vec<Vec<Edge>> = vec![Vec::new(); profiles.len()];
        for (id, profile) in profiles.iter().enumerate() {
            for cand in lsh.candidates(&profile.content_signature) {
                let cand = cand as usize;
                if cand <= id {
                    continue; // each unordered pair once
                }
                let j = profile.content_similarity(&profiles[cand]);
                if j >= config.content_threshold {
                    adjacency[id].push(Edge {
                        to: cand as u32,
                        weight: j,
                        kind: EdgeKind::Content,
                    });
                    adjacency[cand].push(Edge {
                        to: id as u32,
                        weight: j,
                        kind: EdgeKind::Content,
                    });
                }
            }
        }
        // Schema (name) edges (disabled by default): names are tiny, brute
        // force is fine and is what Aurum's schema-similarity pass amounts to.
        for id in 0..if config.name_threshold <= 1.0 { profiles.len() } else { 0 } {
            for other in (id + 1)..profiles.len() {
                let s = profiles[id].name_similarity(&profiles[other]);
                if s >= config.name_threshold {
                    let already = adjacency[id].iter().any(|e| e.to == other as u32);
                    if !already {
                        adjacency[id].push(Edge {
                            to: other as u32,
                            weight: s,
                            kind: EdgeKind::Schema,
                        });
                        adjacency[other].push(Edge {
                            to: id as u32,
                            weight: s,
                            kind: EdgeKind::Schema,
                        });
                    }
                }
            }
        }
        for edges in &mut adjacency {
            edges.sort_by(|a, b| b.weight.partial_cmp(&a.weight).unwrap().then(a.to.cmp(&b.to)));
        }
        Ok(Aurum { config, profiles, id_of, adjacency })
    }

    /// The configuration used at build time.
    pub fn config(&self) -> &AurumConfig {
        &self.config
    }

    /// Number of profiled columns.
    pub fn num_columns(&self) -> usize {
        self.profiles.len()
    }

    /// Total number of (undirected) edges in the EKG.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(|e| e.len()).sum::<usize>() / 2
    }

    /// Undirected edge counts by kind: `(content, schema)`.
    pub fn edge_counts(&self) -> (usize, usize) {
        let mut content = 0;
        let mut schema = 0;
        for edges in &self.adjacency {
            for e in edges {
                match e.kind {
                    EdgeKind::Content => content += 1,
                    EdgeKind::Schema => schema += 1,
                }
            }
        }
        (content / 2, schema / 2)
    }

    /// Discovery query: up to `k` graph neighbors of the query column,
    /// best edge weight first, never from the query's own table. Pure
    /// in-memory lookup — no warehouse access.
    pub fn neighbors(&self, query: &ColumnRef, k: usize) -> StoreResult<Vec<(ColumnRef, f64)>> {
        let &id = self
            .id_of
            .get(query)
            .ok_or_else(|| StoreError::NotFound(format!("column '{query}' not indexed")))?;
        Ok(self.adjacency[id as usize]
            .iter()
            .filter(|e| !self.profiles[e.to as usize].reference.same_table(query))
            .take(k)
            .map(|e| (self.profiles[e.to as usize].reference.clone(), e.weight))
            .collect())
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
                "users",
                vec![
                    Column::text(
                        "email",
                        (0..50).map(|i| format!("user{i}@x.com")).collect::<Vec<_>>(),
                    ),
                    Column::ints("age", (20..70).collect()),
                ],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "contacts",
                // High overlap with users.email.
                vec![Column::text(
                    "email",
                    (0..45).map(|i| format!("user{i}@x.com")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "products",
                vec![Column::text(
                    "sku",
                    (0..50).map(|i| format!("SKU-{i:04}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        w.add_database(db);
        CdwConnector::new(w, CdwConfig::free())
    }

    #[test]
    fn builds_content_edges_for_overlapping_columns() {
        let aurum = Aurum::build(&connector(), AurumConfig::default()).unwrap();
        assert_eq!(aurum.num_columns(), 4);
        let q = ColumnRef::new("db", "users", "email");
        let hits = aurum.neighbors(&q, 5).unwrap();
        assert!(!hits.is_empty(), "overlapping email columns must be linked");
        assert_eq!(hits[0].0, ColumnRef::new("db", "contacts", "email"));
        assert!(hits[0].1 > 0.8);
    }

    #[test]
    fn no_edge_for_disjoint_columns() {
        let aurum = Aurum::build(&connector(), AurumConfig::default()).unwrap();
        let q = ColumnRef::new("db", "products", "sku");
        let hits = aurum.neighbors(&q, 5).unwrap();
        // sku overlaps nothing; only name edges could exist and there is no
        // similarly-named column.
        assert!(hits.is_empty(), "unexpected neighbors: {hits:?}");
    }

    #[test]
    fn neighbors_exclude_own_table() {
        let aurum = Aurum::build(&connector(), AurumConfig::default()).unwrap();
        let q = ColumnRef::new("db", "users", "email");
        for (r, _) in aurum.neighbors(&q, 10).unwrap() {
            assert!(!(r.database == "db" && r.table == "users"));
        }
    }

    #[test]
    fn unknown_query_errors() {
        let aurum = Aurum::build(&connector(), AurumConfig::default()).unwrap();
        assert!(aurum.neighbors(&ColumnRef::new("db", "nope", "x"), 3).is_err());
    }

    #[test]
    fn misses_format_variant_joins() {
        // The blind spot the paper exploits: same entities, different
        // formatting -> near-zero exact-value overlap -> no Aurum edge.
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "a",
                vec![Column::text(
                    "name",
                    (0..40).map(|i| format!("Company {i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "b",
                vec![Column::text(
                    "firm",
                    (0..40).map(|i| format!("COMPANY {i} INC")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        w.add_database(db);
        let aurum =
            Aurum::build(&CdwConnector::new(w, CdwConfig::free()), AurumConfig::default()).unwrap();
        let hits = aurum.neighbors(&ColumnRef::new("db", "a", "name"), 5).unwrap();
        assert!(hits.is_empty(), "Aurum should miss format-variant joins: {hits:?}");
    }

    #[test]
    fn low_jaccard_fk_pk_is_missed() {
        // FK of 10 values inside PK of 500: containment 1.0 but Jaccard
        // 0.02 — below any reasonable threshold.
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "dim",
                vec![Column::text("id", (0..500).map(|i| format!("id{i}")).collect::<Vec<_>>())],
            )
            .unwrap(),
        );
        db.add_table(
            Table::new(
                "fact",
                vec![Column::text(
                    "dim_ref",
                    (0..10).map(|i| format!("id{i}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
        w.add_database(db);
        let aurum =
            Aurum::build(&CdwConnector::new(w, CdwConfig::free()), AurumConfig::default()).unwrap();
        let hits = aurum.neighbors(&ColumnRef::new("db", "fact", "dim_ref"), 5).unwrap();
        assert!(
            hits.iter().all(|(_, w)| *w < 0.5),
            "FK⊂PK should not form a strong content edge: {hits:?}"
        );
    }

    #[test]
    fn edge_counts_split_by_kind() {
        let aurum = Aurum::build(&connector(), AurumConfig::default()).unwrap();
        let (content, schema) = aurum.edge_counts();
        assert_eq!(content + schema, aurum.num_edges());
        assert!(content >= 1, "email overlap must create a content edge");
    }

    #[test]
    fn name_edges_link_similar_names() {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(Table::new("t1", vec![Column::text("customer_id", ["a", "b"])]).unwrap());
        db.add_table(Table::new("t2", vec![Column::text("customer_id", ["zz", "qq"])]).unwrap());
        w.add_database(db);
        let config = AurumConfig { name_threshold: 0.8, ..AurumConfig::default() };
        let aurum = Aurum::build(&CdwConnector::new(w, CdwConfig::free()), config).unwrap();
        let hits = aurum.neighbors(&ColumnRef::new("db", "t1", "customer_id"), 5).unwrap();
        assert_eq!(hits.len(), 1, "name edge expected");
        // And with the default (schema edges disabled) there is no edge.
        let w2 = {
            let mut w = Warehouse::new("w");
            let mut db = Database::new("db");
            db.add_table(Table::new("t1", vec![Column::text("customer_id", ["a", "b"])]).unwrap());
            db.add_table(
                Table::new("t2", vec![Column::text("customer_id", ["zz", "qq"])]).unwrap(),
            );
            w.add_database(db);
            w
        };
        let aurum = Aurum::build(&CdwConnector::new(w2, CdwConfig::free()), AurumConfig::default())
            .unwrap();
        assert!(aurum.neighbors(&ColumnRef::new("db", "t1", "customer_id"), 5).unwrap().is_empty());
    }
}
