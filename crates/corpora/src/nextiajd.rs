//! NextiaJD-style testbed generation.
//!
//! Flores et al. assembled four testbeds (XS/S/M/L) of open datasets and
//! labeled join quality between attribute pairs. We generate testbeds with
//! the same corpus shape (paper Table 1) and, crucially, the structure that
//! differentiates the three discovery systems:
//!
//! * **join communities** — groups of columns over one entity universe,
//!   planted across tables at controlled containment/cardinality, half of
//!   them re-formatted by a [`Variant`] (the *semantic* joins syntactic
//!   systems miss);
//! * **hard negatives** — same-domain columns over disjoint entity ranges
//!   (semantically close, containment ≈ 0);
//! * **filler** — numeric/date/id/categorical columns that populate the
//!   remaining schema like real datasets.
//!
//! Row values are zipf-distributed over each column's universe with a
//! popularity order shared inside a community, mirroring how real joinable
//! columns share their *frequent* values — this is what makes small row
//! samples informative (§4.4).

use wg_store::{Column, Database, Table, Warehouse};
use wg_util::rng::{Rng64, Xoshiro256pp};
use wg_util::{FxHashMap, FxHashSet};

use crate::groundtruth::{label_quality, Corpus, GroundTruth, Quality};
use crate::vocab::{Domain, Variant};

/// Shape parameters of one testbed (paper Table 1 row).
#[derive(Debug, Clone, Copy)]
pub struct TestbedSpec {
    /// Corpus label.
    pub name: &'static str,
    /// Number of tables.
    pub tables: usize,
    /// Total number of columns.
    pub columns: usize,
    /// Average rows per table *before* scaling.
    pub avg_rows: usize,
    /// Target number of evaluation queries.
    pub target_queries: usize,
    /// Multiplier on `avg_rows` (1.0 = paper scale; evaluation defaults
    /// scale down — the shape of the results is row-count independent,
    /// the wall-clock numbers are reported at the configured scale).
    pub row_scale: f64,
    /// Generator seed.
    pub seed: u64,
}

impl TestbedSpec {
    /// testbedXS: 28 tables, 257 columns, 1,938 avg rows, 35 queries.
    pub fn xs(row_scale: f64) -> Self {
        Self {
            name: "testbedXS",
            tables: 28,
            columns: 257,
            avg_rows: 1_938,
            target_queries: 35,
            row_scale,
            seed: 0x0005_0001,
        }
    }

    /// testbedS: 46 tables, 2,553 columns, 209,646 avg rows, 177 queries.
    pub fn s(row_scale: f64) -> Self {
        Self {
            name: "testbedS",
            tables: 46,
            columns: 2_553,
            avg_rows: 209_646,
            target_queries: 177,
            row_scale,
            seed: 0x0005_0002,
        }
    }

    /// testbedM: 46 tables, 1,067 columns, 3,175,904 avg rows, 188 queries.
    pub fn m(row_scale: f64) -> Self {
        Self {
            name: "testbedM",
            tables: 46,
            columns: 1_067,
            avg_rows: 3_175_904,
            target_queries: 188,
            row_scale,
            seed: 0x0005_0003,
        }
    }

    /// testbedL: 19 tables, 541 columns, 12,288,165 avg rows, 92 queries.
    pub fn l(row_scale: f64) -> Self {
        Self {
            name: "testbedL",
            tables: 19,
            columns: 541,
            avg_rows: 12_288_165,
            target_queries: 92,
            row_scale,
            seed: 0x0005_0004,
        }
    }

    /// Effective average rows after scaling (floor 60).
    fn scaled_avg_rows(&self) -> usize {
        ((self.avg_rows as f64 * self.row_scale) as usize).max(60)
    }
}

/// One planted community member before materialization.
struct Member {
    table: usize,
    name: String,
    domain: Domain,
    variant: Variant,
    /// Entity indices (into the domain) realized by this column.
    indices: Vec<u64>,
    community: usize,
}

/// Build a testbed corpus from its spec.
pub fn build_testbed(spec: &TestbedSpec) -> Corpus {
    let mut rng = Xoshiro256pp::new(spec.seed);
    let avg_rows = spec.scaled_avg_rows();

    // ---- table shapes -----------------------------------------------------
    let rows_per_table: Vec<usize> = (0..spec.tables)
        .map(|_| {
            let r = rng.gen_log_normal((avg_rows as f64).ln() - 0.18, 0.6);
            (r as usize).clamp(60, avg_rows * 6)
        })
        .collect();
    let mut cols_per_table = distribute(spec.columns, spec.tables, &mut rng);
    // Every table keeps at least 2 columns.
    for c in cols_per_table.iter_mut() {
        *c = (*c).max(2);
    }
    let mut remaining: Vec<usize> = cols_per_table.clone();

    // ---- plant communities -------------------------------------------------
    let domains = Domain::all();
    let n_communities = spec.target_queries.div_ceil(3).max(2);
    let mut members: Vec<Member> = Vec::new();
    for community in 0..n_communities {
        let domain = *rng.choose(domains);
        // Disjoint entity range per community.
        let base = community as u64 * 1_000_000;
        let hub_universe = (rng.gen_log_normal(4.8, 0.9) as usize).clamp(20, 800);
        let size = 4 + rng.gen_index(4); // 4..=7 members

        // Tables hosting this community: distinct, with capacity.
        let mut hosts: Vec<usize> = (0..spec.tables).filter(|&t| remaining[t] > 0).collect();
        rng.shuffle(&mut hosts);
        hosts.truncate(size);
        if hosts.len() < 2 {
            continue; // not enough room anywhere; skip community
        }

        // Hub goes to the roomiest host (largest table) so its universe fits.
        hosts.sort_by_key(|&t| std::cmp::Reverse(rows_per_table[t]));
        for (slot, &table) in hosts.iter().enumerate() {
            remaining[table] -= 1;
            let cap = (rows_per_table[table] as f64 * 0.8) as usize;
            let is_hub = slot == 0;
            let (count, containment) = if is_hub {
                (hub_universe.min(cap).max(5), 1.0)
            } else {
                let ratio = 0.3 + 0.7 * rng.gen_f64();
                let c = match rng.gen_index(100) {
                    // A quarter of members sit at Moderate-or-below
                    // containment: semantically close, *not* answers —
                    // the precision pressure real testbeds exhibit.
                    0..=39 => 1.0,
                    40..=74 => 0.55 + 0.4 * rng.gen_f64(),
                    _ => 0.25 + 0.3 * rng.gen_f64(),
                };
                (((hub_universe as f64 * ratio) as usize).clamp(5, cap.max(5)), c)
            };
            // `containment` of this member's values lie inside the hub
            // universe [base, base+hub); the rest comes from the disjoint
            // noise range [base+hub, ...).
            let n_inside = ((count as f64) * containment).round() as usize;
            let n_inside = n_inside.min(count).min(hub_universe);
            let mut idx: Vec<u64> = rng
                .sample_indices(hub_universe, n_inside)
                .into_iter()
                .map(|i| base + i as u64)
                .collect();
            for j in 0..(count - n_inside) as u64 {
                idx.push(base + hub_universe as u64 + j);
            }
            // Popularity order shared across the community: sort by entity
            // index so zipf ranks agree between members.
            idx.sort_unstable();

            let variant =
                if rng.gen_bool(0.5) { *rng.choose(domain.variants()) } else { Variant::Identity };
            members.push(Member {
                table,
                name: member_name(domain, community, slot, &mut rng),
                domain,
                variant,
                indices: idx,
                community,
            });
        }

        // Hard negatives: same domain, disjoint range, somewhere else.
        let n_negatives = 1 + usize::from(rng.gen_bool(0.5));
        for neg in 0..n_negatives {
            let candidates: Vec<usize> =
                (0..spec.tables).filter(|&t| remaining[t] > 0 && !hosts.contains(&t)).collect();
            if let Some(&table) = candidates.get(neg % candidates.len().max(1)) {
                remaining[table] -= 1;
                let count =
                    (hub_universe / 2).clamp(5, (rows_per_table[table] as f64 * 0.8) as usize);
                let neg_base = base + 500_000 + neg as u64 * 10_000;
                members.push(Member {
                    table,
                    name: member_name(domain, community, 90 + neg, &mut rng),
                    domain,
                    variant: Variant::Identity,
                    indices: (0..count as u64).map(|i| neg_base + i).collect(),
                    community: usize::MAX, // belongs to no community
                });
            }
        }
    }

    // ---- ground truth from planted universes --------------------------------
    let mut truth = GroundTruth::new();
    let refs: Vec<wg_store::ColumnRef> = members
        .iter()
        .map(|m| wg_store::ColumnRef::new("nextiajd", table_name(m.table), m.name.clone()))
        .collect();
    // Normalized (AlphaNum) key sets per member.
    let keysets: Vec<FxHashSet<u64>> = members
        .iter()
        .map(|m| {
            m.indices.iter().map(|&i| alphanum_key(&m.variant.apply(&m.domain.value(i)))).collect()
        })
        .collect();
    let mut by_community: FxHashMap<usize, Vec<usize>> = FxHashMap::default();
    for (i, m) in members.iter().enumerate() {
        if m.community != usize::MAX {
            by_community.entry(m.community).or_default().push(i);
        }
    }
    for group in by_community.values() {
        for &a in group {
            for &b in group {
                if a == b {
                    continue;
                }
                let inter = keysets[a].iter().filter(|k| keysets[b].contains(*k)).count();
                let c = inter as f64 / keysets[a].len().max(1) as f64;
                let (na, nb) = (keysets[a].len(), keysets[b].len());
                let prop = na.min(nb) as f64 / na.max(nb).max(1) as f64;
                if label_quality(c, prop) >= Quality::Good {
                    truth.add(refs[a].clone(), refs[b].clone());
                }
            }
        }
    }

    // ---- materialize tables --------------------------------------------------
    let mut tables: Vec<Vec<Column>> = vec![Vec::new(); spec.tables];
    for m in &members {
        let mut col_rng = rng.fork(wg_util::stable_hash_str(&m.name));
        tables[m.table].push(materialize_member(m, rows_per_table[m.table], &mut col_rng));
    }
    for (t, slots) in remaining.iter().enumerate() {
        for s in 0..*slots {
            let mut col_rng = rng.fork((t * 1000 + s) as u64);
            tables[t].push(filler_column(t, s, rows_per_table[t], &mut col_rng));
        }
    }

    let mut db = Database::new("nextiajd");
    for (t, columns) in tables.into_iter().enumerate() {
        db.add_table(Table::new(table_name(t), columns).expect("generated schema is valid"));
    }
    let mut warehouse = Warehouse::new(spec.name);
    warehouse.add_database(db);

    // ---- query workload --------------------------------------------------------
    let mut queries = truth.queries();
    if queries.len() > spec.target_queries {
        // Deterministic subsample to the target count.
        let keep_idx = rng.sample_indices(queries.len(), spec.target_queries);
        let mut keep: Vec<wg_store::ColumnRef> =
            keep_idx.into_iter().map(|i| queries[i].clone()).collect();
        keep.sort();
        truth.retain_queries(&keep);
        queries = keep;
    }

    Corpus { name: spec.name.to_string(), warehouse, truth, queries }
}

fn table_name(t: usize) -> String {
    format!("ds_{t:03}")
}

fn member_name(domain: Domain, community: usize, slot: usize, rng: &mut Xoshiro256pp) -> String {
    // Real dataset columns have erratic names; sometimes informative,
    // sometimes not. Suffixes keep names unique per table.
    let suffixes = ["", "_name", "_code", "_key", "_ref", "_value"];
    if rng.gen_bool(0.6) {
        format!("{}{}_c{community}s{slot}", domain.label(), rng.choose(&suffixes))
    } else {
        format!("attr_{community}_{slot}")
    }
}

/// Materialize a member column: every universe value appears at least once,
/// remaining rows fill by zipf over the shared popularity order.
fn materialize_member(m: &Member, rows: usize, rng: &mut Xoshiro256pp) -> Column {
    let universe: Vec<String> =
        m.indices.iter().map(|&i| m.variant.apply(&m.domain.value(i))).collect();
    Column::text(m.name.clone(), fill_zipf(&universe, rows, rng))
}

/// All universe values once, then zipf-distributed repetition.
fn fill_zipf(universe: &[String], rows: usize, rng: &mut Xoshiro256pp) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(rows);
    let s = 0.6 + 0.6 * rng.gen_f64();
    for i in 0..rows {
        if i < universe.len() {
            out.push(universe[i].clone());
        } else {
            out.push(universe[rng.gen_zipf(universe.len(), s)].clone());
        }
    }
    // Shuffle so the guaranteed-once prefix is not positionally biased.
    rng.shuffle(&mut out);
    out
}

/// A filler column that is not part of any community (shared with the
/// Sigma generator for its padding tables).
pub(crate) fn filler_column_public(
    t: usize,
    s: usize,
    rows: usize,
    rng: &mut Xoshiro256pp,
) -> Column {
    filler_column(t, s, rows, rng)
}

/// A filler column that is not part of any community.
fn filler_column(t: usize, s: usize, rows: usize, rng: &mut Xoshiro256pp) -> Column {
    match rng.gen_index(5) {
        0 => {
            // Numeric measure.
            let scale = 10f64.powi(rng.gen_index(6) as i32);
            let name = *rng.choose(&["amount", "price", "total", "score", "count", "weight"]);
            Column::floats(
                format!("{name}_{t}_{s}"),
                (0..rows).map(|_| (rng.gen_f64() * scale * 100.0).round() / 100.0).collect(),
            )
        }
        1 => {
            // Integer id-ish.
            Column::ints(
                format!("num_{t}_{s}"),
                (0..rows as i64).map(|i| i * 7 + t as i64).collect(),
            )
        }
        2 => {
            // Low-cardinality category.
            let k = 3 + rng.gen_index(12);
            let base = rng.gen_range(1_000) * 50;
            let universe: Vec<String> =
                (0..k as u64).map(|i| Domain::Sector.value(base + i)).collect();
            Column::text(format!("category_{t}_{s}"), fill_zipf(&universe, rows, rng))
        }
        3 => {
            // Dates.
            let start = rng.gen_range(2_000);
            let span = 30 + rng.gen_range(700);
            let universe: Vec<String> = (0..span).map(|i| Domain::Date.value(start + i)).collect();
            Column::text(format!("date_{t}_{s}"), fill_zipf(&universe, rows, rng))
        }
        _ => {
            // Free-text-ish names from an unused entity range.
            let domain = *rng.choose(Domain::all());
            let base = 900_000_000 + (t as u64 * 10_000 + s as u64) * 1_000;
            let k = (20 + rng.gen_index(200)).min((rows as f64 * 0.8) as usize).max(5);
            let universe: Vec<String> = (0..k as u64).map(|i| domain.value(base + i)).collect();
            Column::text(format!("{}_{t}_{s}", domain.label()), fill_zipf(&universe, rows, rng))
        }
    }
}

fn alphanum_key(s: &str) -> u64 {
    let folded: String =
        s.chars().filter(|c| c.is_alphanumeric()).flat_map(|c| c.to_lowercase()).collect();
    wg_util::stable_hash_str(&folded)
}

/// Split `total` into `parts` positive integers with mild jitter.
fn distribute(total: usize, parts: usize, rng: &mut Xoshiro256pp) -> Vec<usize> {
    let base = total / parts;
    let mut out: Vec<usize> = (0..parts)
        .map(|_| {
            let jitter = 0.7 + 0.6 * rng.gen_f64();
            ((base as f64 * jitter) as usize).max(1)
        })
        .collect();
    // Fix the sum exactly.
    let mut sum: usize = out.iter().sum();
    let mut i = 0;
    while sum < total {
        out[i % parts] += 1;
        sum += 1;
        i += 1;
    }
    while sum > total {
        if out[i % parts] > 1 {
            out[i % parts] -= 1;
            sum -= 1;
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_store::KeyNorm;

    fn xs() -> Corpus {
        build_testbed(&TestbedSpec::xs(0.1))
    }

    #[test]
    fn shape_matches_spec() {
        let c = xs();
        let (tables, columns, avg_rows, queries, avg_answers) = c.stats();
        assert_eq!(tables, 28);
        assert_eq!(columns, 257);
        assert!(avg_rows > 50.0, "avg rows {avg_rows}");
        assert!((20..=35).contains(&queries), "queries {queries}");
        assert!(avg_answers >= 1.0, "avg answers {avg_answers}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = xs();
        let b = xs();
        assert_eq!(a.queries, b.queries);
        let ra = a.warehouse.iter_columns().count();
        let rb = b.warehouse.iter_columns().count();
        assert_eq!(ra, rb);
        // Spot-check actual data equality.
        let qa = a.warehouse.column(&a.queries[0]).unwrap();
        let qb = b.warehouse.column(&b.queries[0]).unwrap();
        assert_eq!(qa, qb);
    }

    #[test]
    fn answers_exist_and_are_cross_table() {
        let c = xs();
        for q in &c.queries {
            let answers = c.truth.answers(q);
            assert!(!answers.is_empty());
            for a in answers {
                assert!(!a.same_table(q), "answer in query's own table");
                assert!(c.warehouse.column(a).is_ok(), "answer column missing: {a}");
            }
        }
    }

    #[test]
    fn ground_truth_labels_hold_on_materialized_data() {
        let c = xs();
        // The labels were computed on planted universes; verify they hold
        // on the actual stored columns under AlphaNum normalization.
        for q in c.queries.iter().take(10) {
            let qc = c.warehouse.column(q).unwrap();
            for a in c.truth.answers(q) {
                let ac = c.warehouse.column(a).unwrap();
                let cont = wg_store::containment(qc, ac, KeyNorm::AlphaNum);
                assert!(cont >= 0.45, "materialized containment {cont:.2} too low for {q} -> {a}");
            }
        }
    }

    #[test]
    fn semantic_pairs_exist() {
        // At least some answers must be invisible to exact matching but
        // visible after normalization — the paper's core motivation.
        let c = xs();
        let mut semantic = 0;
        let mut total = 0;
        for q in &c.queries {
            let qc = c.warehouse.column(q).unwrap();
            for a in c.truth.answers(q) {
                let ac = c.warehouse.column(a).unwrap();
                total += 1;
                let exact = wg_store::containment(qc, ac, KeyNorm::Exact);
                let semantic_cont = wg_store::containment(qc, ac, KeyNorm::AlphaNum);
                if semantic_cont >= 0.5 && exact < 0.25 {
                    semantic += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(semantic * 5 >= total, "too few semantic-only pairs: {semantic}/{total}");
    }

    #[test]
    fn row_scale_scales_rows() {
        let small = build_testbed(&TestbedSpec::xs(0.05));
        let large = build_testbed(&TestbedSpec::xs(0.5));
        assert!(large.warehouse.num_rows() > small.warehouse.num_rows() * 3);
    }

    #[test]
    fn distribute_sums_exactly() {
        let mut rng = Xoshiro256pp::new(1);
        for (total, parts) in [(257, 28), (2553, 46), (100, 7), (7, 7)] {
            let d = distribute(total, parts, &mut rng);
            assert_eq!(d.iter().sum::<usize>(), total);
            assert!(d.iter().all(|&x| x >= 1));
        }
    }

    #[test]
    fn specs_match_table1() {
        assert_eq!(TestbedSpec::s(1.0).tables, 46);
        assert_eq!(TestbedSpec::s(1.0).columns, 2553);
        assert_eq!(TestbedSpec::m(1.0).columns, 1067);
        assert_eq!(TestbedSpec::l(1.0).tables, 19);
        assert_eq!(TestbedSpec::xs(1.0).avg_rows, 1938);
    }
}
