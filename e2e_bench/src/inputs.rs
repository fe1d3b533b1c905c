//! Everything a run feeds the system, made from `--seed` alone: the
//! warehouse, the query list with its ground truth, the order queries are
//! asked in, and the table mutations of the churn workload. The program
//! under test receives only these generated inputs, never the seed.

use warpgate_core::WarpGateConfig;
use wg_corpora::{build_testbed, Domain, TestbedSpec};
use wg_store::{CdwConnector, Column, ColumnRef, Table, TableMeta, Warehouse};
use wg_util::rng::{Rng64, Xoshiro256pp};

/// How big the generated inputs are. `Tiny` exists for the smoke tests: the
/// same code paths over an XS testbed and a 2,000-column fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One workload's generated inputs.
pub struct Inputs {
    pub warehouse: Warehouse,
    /// Query columns, in list order (the *asking* order is [`QueryOrder`]).
    pub queries: Vec<ColumnRef>,
    /// Ground-truth joinable columns of each query, aligned with `queries`.
    pub truth: Vec<Vec<ColumnRef>>,
    /// Base system configuration (workloads adjust cache sizes on top).
    pub config: WarpGateConfig,
}

/// Results requested per query — the paper's largest reported cutoff.
pub const TOP_K: usize = 10;

/// The NextiaJD-shaped testbed with planted ground truth: testbedS at
/// row scale 0.01 (2,553 columns, ~2.1k rows per table), or testbedXS for
/// smoke runs.
///
/// The corpus does *not* vary with `--seed`: the generator draws table
/// sizes log-normally, so another seed is another warehouse — ten seeds
/// spread billed bytes by 22% and P@10 by 10%, drowning every bound. On
/// these workloads the seed drives the order queries are asked in and the
/// tables churn mutates; the fleet workloads vary their corpus too.
pub fn testbed(scale: Scale) -> Inputs {
    let spec = match scale {
        Scale::Full => TestbedSpec::s(0.01),
        Scale::Tiny => TestbedSpec::xs(0.1),
    };
    let corpus = build_testbed(&spec);
    let truth = corpus.queries.iter().map(|q| corpus.truth.answers(q).to_vec()).collect();
    Inputs {
        warehouse: corpus.warehouse,
        queries: corpus.queries,
        truth,
        config: WarpGateConfig::default(),
    }
}

/// Fleet geometry: many small tables, so the index — not a scan — is the big
/// object (the paper's §5.1 fleet has a median of ~20 rows-per-table decades
/// below its column count).
pub const FLEET_COLS_PER_TABLE: usize = 10;
const FLEET_ROWS: usize = 20;
/// Columns per value family (on average): each family is one "joinable
/// neighbourhood" the LSH buckets must separate from its same-domain
/// neighbours.
const FLEET_FAMILY_SIZE: usize = 40;
/// Entity indices a family's columns draw from, and the stride between
/// families' windows (disjoint, so different families never share a value).
const FLEET_WINDOW: u64 = 60;
const FLEET_STRIDE: u64 = 5000;

/// Number of tables in the synthetic fleet at a scale.
pub fn fleet_tables(scale: Scale) -> usize {
    match scale {
        Scale::Full => 3_000,
        Scale::Tiny => 200,
    }
}

/// A synthetic fleet-shaped warehouse: `tables × 10` text columns of 20
/// rows. Each column belongs to a seeded value family `f` and draws its rows
/// from `Domain::all()[f % 13]` over `[5000·f, 5000·f + 60)`. Ground truth
/// for a query is every other-table column of its family.
pub fn fleet(seed: u64, scale: Scale) -> Inputs {
    let tables = fleet_tables(scale);
    let columns = tables * FLEET_COLS_PER_TABLE;
    let families = (columns / FLEET_FAMILY_SIZE).max(1);
    let mut rng = Xoshiro256pp::new(seed ^ 0xF1EE_7000);
    let domains = Domain::all();

    let mut family_of = Vec::with_capacity(columns);
    let mut warehouse = Warehouse::new("fleet");
    for t in 0..tables {
        let cols: Vec<Column> = (0..FLEET_COLS_PER_TABLE)
            .map(|c| {
                let f = rng.gen_index(families);
                family_of.push(f);
                let domain = domains[f % domains.len()];
                let base = FLEET_STRIDE * f as u64;
                let rows: Vec<String> = (0..FLEET_ROWS)
                    .map(|_| domain.value(base + rng.gen_range(FLEET_WINDOW)))
                    .collect();
                Column::text(format!("c{c}"), rows)
            })
            .collect();
        let table = Table::new(format!("t{t}"), cols).expect("equal-length columns");
        warehouse.database_mut("fleet").add_table(table);
    }

    let col_ref = |ordinal: usize| {
        ColumnRef::new(
            "fleet",
            format!("t{}", ordinal / FLEET_COLS_PER_TABLE),
            format!("c{}", ordinal % FLEET_COLS_PER_TABLE),
        )
    };
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); families];
    for (ordinal, &f) in family_of.iter().enumerate() {
        members[f].push(ordinal);
    }
    let n_queries = 1_000.min(columns / 10);
    let mut picks = rng.sample_indices(columns, n_queries);
    picks.sort_unstable();
    let queries: Vec<ColumnRef> = picks.iter().map(|&o| col_ref(o)).collect();
    let truth = picks
        .iter()
        .map(|&o| {
            members[family_of[o]]
                .iter()
                .filter(|&&m| m / FLEET_COLS_PER_TABLE != o / FLEET_COLS_PER_TABLE)
                .map(|&m| col_ref(m))
                .collect()
        })
        .collect();
    Inputs { warehouse, queries, truth, config: WarpGateConfig::default() }
}

/// The order queries are asked in: seeded shuffled passes over `0..n`,
/// without end. Two runs with one seed ask the same questions in the same
/// order for as long as they both run.
pub struct QueryOrder {
    rng: Xoshiro256pp,
    pass: Vec<usize>,
    next: usize,
}

impl QueryOrder {
    pub fn new(seed: u64, n: usize) -> Self {
        assert!(n > 0, "a workload needs at least one query");
        let mut order =
            Self { rng: Xoshiro256pp::new(seed ^ 0x0DE2_0DE2), pass: (0..n).collect(), next: 0 };
        order.rng.shuffle(&mut order.pass);
        order
    }
}

impl Iterator for QueryOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.next == self.pass.len() {
            self.rng.shuffle(&mut self.pass);
            self.next = 0;
        }
        self.next += 1;
        Some(self.pass[self.next - 1])
    }
}

/// Seeded table mutations for the churn workload: each call picks `count`
/// distinct tables and replaces each with a rotated copy missing one row, so
/// the content (and with it the version token) always moves.
pub struct Mutator {
    rng: Xoshiro256pp,
    /// `(database, table)` of every table in catalog order.
    tables: Vec<(String, String)>,
}

impl Mutator {
    pub fn new(seed: u64, warehouse: &Warehouse) -> Self {
        let tables = warehouse.table_metas().into_iter().map(|m| (m.database, m.table)).collect();
        Self { rng: Xoshiro256pp::new(seed ^ 0x00C4_0A11), tables }
    }

    /// Mutate `count` distinct tables in place; returns their new metadata —
    /// the columns the next `sync()` must re-scan, exactly.
    pub fn mutate(&mut self, connector: &CdwConnector, count: usize) -> Vec<TableMeta> {
        let picks = self.rng.sample_indices(self.tables.len(), count.min(self.tables.len()));
        let mut mutated = Vec::with_capacity(picks.len());
        for pick in picks {
            let (database, table) = &self.tables[pick];
            let mut warehouse = connector.warehouse_mut();
            let old = warehouse.table(database, table).expect("mutated table exists");
            let rows = old.num_rows();
            // Tables never shrink below the generator's floor; past it, the
            // rotation alone moves the fingerprint.
            let keep = if rows > 60 { rows - 1 } else { rows };
            let shift = 1 + self.rng.gen_index(rows - 1);
            let idx: Vec<usize> = (0..keep).map(|i| (i + shift) % rows).collect();
            let new = old.take(&idx);
            warehouse.database_mut(database).add_table(new);
            mutated.push(warehouse.table_meta(database, table).expect("mutated table exists"));
        }
        mutated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_order_repeats_per_seed_and_differs_across_seeds() {
        let a: Vec<usize> = QueryOrder::new(11, 50).take(175).collect();
        let b: Vec<usize> = QueryOrder::new(11, 50).take(175).collect();
        let c: Vec<usize> = QueryOrder::new(12, 50).take(175).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        // Each pass is a permutation.
        let mut first = a[..50].to_vec();
        first.sort_unstable();
        assert_eq!(first, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fleet_is_seeded_and_truth_excludes_own_table() {
        let a = fleet(3, Scale::Tiny);
        let b = fleet(3, Scale::Tiny);
        let c = fleet(4, Scale::Tiny);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.truth, b.truth);
        assert_ne!(a.queries, c.queries);
        assert_eq!(a.warehouse.num_columns(), 2_000);
        for (q, answers) in a.queries.iter().zip(&a.truth) {
            assert!(answers.iter().all(|r| !r.same_table(q)));
        }
    }
}
