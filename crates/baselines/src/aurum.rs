//! Aurum: profile columns, build an enterprise knowledge graph (EKG) of
//! syntactic relationships, answer discovery queries from the graph.
//!
//! Indexing: scan every column once (Aurum assumes a full pass — the very
//! assumption the paper challenges), MinHash the distinct values, and use a
//! banded MinHash LSH to find candidate pairs. An edge is drawn when the
//! estimated Jaccard crosses 0.4. Edges are content edges only, as in the
//! content-driven Aurum configuration the paper evaluates: its Figure 4(c)
//! shows Aurum missing same-named PK/FK pairs that any name matcher would
//! catch (name evidence is what D3L adds).
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

/// MinHash signature width.
const MINHASH_K: usize = 128;
/// LSH banding for candidate generation (`BANDS` × rows = `MINHASH_K`).
const BANDS: usize = 32;
const _: () = assert!(MINHASH_K % BANDS == 0, "BANDS must divide MINHASH_K");
/// Estimated-Jaccard threshold for an edge.
const CONTENT_THRESHOLD: f64 = 0.4;
/// Sampling pushed into the indexing scan: Aurum's published design reads
/// everything.
const SAMPLE: SampleSpec = SampleSpec::Full;
/// Seed for the MinHash permutations.
const SEED: u64 = 0xA0B1;

/// One weighted (value-overlap) edge of the EKG.
#[derive(Debug, Clone, Copy)]
struct Edge {
    to: u32,
    weight: f64,
}

/// The Aurum system: column profiles + enterprise knowledge graph.
pub struct Aurum {
    profiles: Vec<ColumnProfile>,
    id_of: FxHashMap<ColumnRef, u32>,
    adjacency: Vec<Vec<Edge>>,
}

impl Aurum {
    /// Build the EKG over every column of the backend's warehouse. This is
    /// the expensive offline phase: one scan per column plus pairwise edge
    /// detection via MinHash LSH.
    pub fn build(backend: &dyn WarehouseBackend) -> StoreResult<Aurum> {
        let hasher = MinHasher::new(MINHASH_K, SEED);
        let refs: Vec<ColumnRef> =
            backend.list_tables()?.iter().flat_map(|m| m.column_refs()).collect();

        let mut profiles = Vec::with_capacity(refs.len());
        let mut id_of = FxHashMap::default();
        let mut lsh = MinHashLshIndex::new(BANDS, MINHASH_K / BANDS);
        for (id, r) in refs.iter().enumerate() {
            let column = backend.scan_column(r, SAMPLE)?;
            let profile = ColumnProfile::build(r.clone(), &column, &hasher);
            lsh.insert(id as u32, profile.content_signature.clone());
            id_of.insert(r.clone(), id as u32);
            profiles.push(profile);
        }

        // Edges from LSH candidate pairs.
        let mut adjacency: Vec<Vec<Edge>> = vec![Vec::new(); profiles.len()];
        for (id, profile) in profiles.iter().enumerate() {
            for cand in lsh.candidates(&profile.content_signature) {
                let cand = cand as usize;
                if cand <= id {
                    continue; // each unordered pair once
                }
                let j = profile.content_similarity(&profiles[cand]);
                if j >= CONTENT_THRESHOLD {
                    adjacency[id].push(Edge { to: cand as u32, weight: j });
                    adjacency[cand].push(Edge { to: id as u32, weight: j });
                }
            }
        }
        for edges in &mut adjacency {
            edges.sort_by(|a, b| b.weight.partial_cmp(&a.weight).unwrap().then(a.to.cmp(&b.to)));
        }
        Ok(Aurum { profiles, id_of, adjacency })
    }

    /// Number of profiled columns.
    pub fn num_columns(&self) -> usize {
        self.profiles.len()
    }

    /// Total number of (undirected) edges in the EKG.
    pub fn num_edges(&self) -> usize {
        self.adjacency.iter().map(|e| e.len()).sum::<usize>() / 2
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
        let aurum = Aurum::build(&connector()).unwrap();
        assert_eq!(aurum.num_columns(), 4);
        let q = ColumnRef::new("db", "users", "email");
        let hits = aurum.neighbors(&q, 5).unwrap();
        assert!(!hits.is_empty(), "overlapping email columns must be linked");
        assert_eq!(hits[0].0, ColumnRef::new("db", "contacts", "email"));
        assert!(hits[0].1 > 0.8);
    }

    #[test]
    fn no_edge_for_disjoint_columns() {
        let aurum = Aurum::build(&connector()).unwrap();
        let q = ColumnRef::new("db", "products", "sku");
        let hits = aurum.neighbors(&q, 5).unwrap();
        // sku overlaps no other column's values.
        assert!(hits.is_empty(), "unexpected neighbors: {hits:?}");
    }

    #[test]
    fn neighbors_exclude_own_table() {
        let aurum = Aurum::build(&connector()).unwrap();
        let q = ColumnRef::new("db", "users", "email");
        for (r, _) in aurum.neighbors(&q, 10).unwrap() {
            assert!(!(r.database == "db" && r.table == "users"));
        }
    }

    #[test]
    fn unknown_query_errors() {
        let aurum = Aurum::build(&connector()).unwrap();
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
        let aurum = Aurum::build(&CdwConnector::new(w, CdwConfig::free())).unwrap();
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
        let aurum = Aurum::build(&CdwConnector::new(w, CdwConfig::free())).unwrap();
        let hits = aurum.neighbors(&ColumnRef::new("db", "fact", "dim_ref"), 5).unwrap();
        assert!(
            hits.iter().all(|(_, w)| *w < 0.5),
            "FK⊂PK should not form a strong content edge: {hits:?}"
        );
    }

    #[test]
    fn overlapping_columns_form_one_undirected_edge() {
        let aurum = Aurum::build(&connector()).unwrap();
        assert_eq!(aurum.num_edges(), 1, "email overlap must create exactly one edge");
    }

    #[test]
    fn same_names_without_value_overlap_are_not_linked() {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(Table::new("t1", vec![Column::text("customer_id", ["a", "b"])]).unwrap());
        db.add_table(Table::new("t2", vec![Column::text("customer_id", ["zz", "qq"])]).unwrap());
        w.add_database(db);
        let aurum = Aurum::build(&CdwConnector::new(w, CdwConfig::free())).unwrap();
        assert!(aurum.neighbors(&ColumnRef::new("db", "t1", "customer_id"), 5).unwrap().is_empty());
    }
}
