//! Beyond-RAM eviction-correctness parity suite (ISSUE 9).
//!
//! The bar: a paged system serving a corpus ≥10× its block-cache budget
//! under a pathologically small (two-block) budget must return rankings
//! **bit-identical** to the all-in-RAM system over an identical query
//! stream, with monotone block-read accounting and a resident set that
//! never outgrows the budget — eviction pressure may cost I/O, never
//! correctness. Since ISSUE 16 the suite also holds the row bounds to
//! their job (at most a sixth of a pass's candidate blocks read at the
//! default page size, none when the hot tier has already filled the heap)
//! and a damaged cold block to a typed error; since ISSUE 23 it runs at
//! every page size from one row to 64.

use std::path::PathBuf;
use std::sync::Arc;

use warpgate::prelude::*;

/// A clustered corpus: `tables × cols_per_table` columns in `families`
/// value families, so most columns have genuinely joinable partners in
/// other tables and discovery produces score-sensitive rankings.
fn clustered_warehouse(tables: usize, cols_per_table: usize, families: usize) -> Warehouse {
    let mut w = Warehouse::new("beyond-ram");
    for t in 0..tables {
        let cols: Vec<Column> = (0..cols_per_table)
            .map(|c| {
                let family = (t * cols_per_table + c) % families;
                // Overlapping value windows within a family: joinable well
                // above the LSH threshold, but shifted so scores differ.
                let shift = (t + c) % 7;
                let values: Vec<String> =
                    (0..40).map(|i| format!("fam{family} item {}", i + shift)).collect();
                Column::text(format!("col{c}"), values)
            })
            .collect();
        w.database_mut("db").add_table(Table::new(format!("t{t}"), cols).unwrap());
    }
    w
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wg_paged_parity_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const DIM: usize = 64;

/// The 400-column clustered corpus indexed all-in-RAM (sealing
/// `block_rows`-row pages under a two-page cache budget), the query stream
/// both systems serve — every 11th column — and the rankings the RAM
/// system gives it.
fn ram_reference(
    block_rows: usize,
) -> (WarpGate, Arc<CdwConnector>, Vec<ColumnRef>, Vec<Vec<JoinCandidate>>) {
    let config = WarpGateConfig { dim: DIM, threads: 2, ..Default::default() }
        .with_block_rows(block_rows)
        .with_block_cache_bytes(2 * block_rows * DIM * 4);
    let connector = Arc::new(CdwConnector::new(clustered_warehouse(100, 4, 32), CdwConfig::free()));
    let ram = WarpGate::with_backend(config, connector.clone());
    ram.index_warehouse().unwrap();
    let queries: Vec<ColumnRef> = (0..100)
        .flat_map(|t| (0..4).map(move |c| (t, c)))
        .filter(|(t, c)| (t * 4 + c) % 11 == 0)
        .map(|(t, c)| ColumnRef::new("db", format!("t{t}"), format!("col{c}")))
        .collect();
    let want: Vec<Vec<JoinCandidate>> =
        queries.iter().map(|q| ram.discover(q, 5).unwrap().candidates).collect();
    assert!(
        want.iter().filter(|r| !r.is_empty()).count() >= queries.len() / 2,
        "fixture must make most queries productive"
    );
    (ram, connector, queries, want)
}

/// Seal the RAM system into `block_rows`-row pages, serve the query stream
/// from them three times under a budget of exactly two pages, and hold
/// every answer to the RAM ranking, the accounting to monotone, and the
/// resident set to the budget. Returns each pass's `(blocks read, blocks
/// pruned)`.
fn serve_under_a_two_block_budget(block_rows: usize) -> Vec<(u64, u64)> {
    let block_bytes = block_rows * DIM * 4;
    // The pathological budget: exactly two blocks resident at a time.
    let budget = 2 * block_bytes;
    let (ram, connector, queries, want) = ram_reference(block_rows);
    let tag = format!("{block_rows}-row pages");

    let dir = tmp_dir(&format!("parity_{block_rows}"));
    ram.save_paged(&dir).unwrap();
    let mut paged = WarpGate::with_backend(*ram.config(), connector);
    paged.load_paged(&dir).unwrap();
    assert_eq!(paged.len(), ram.len());
    assert_eq!(paged.cold_len(), ram.len(), "{tag}: every row must serve from disk");
    assert_eq!(
        paged.block_cache_stats().len,
        0,
        "{tag}: restore is lazy: no payload hydrates before the first query"
    );

    // Three passes over the stream: a cold pass and two warm ones, so
    // eviction churn under the two-block budget gets exercised hard.
    let mut total_reads = 0u64;
    let mut last_traffic = 0u64;
    let mut passes = Vec::new();
    for pass in 0..3 {
        let (mut pass_reads, mut pass_pruned) = (0u64, 0u64);
        for (q, expect) in queries.iter().zip(&want) {
            let d = paged.discover(q, 5).unwrap();
            assert_eq!(
                &d.candidates, expect,
                "{tag}, pass {pass}, query {q}: paged ranking diverged from RAM"
            );
            total_reads += d.timing.blocks_read;
            pass_reads += d.timing.blocks_read;
            pass_pruned += d.timing.blocks_pruned;
            let stats = paged.block_cache_stats();
            // Monotone accounting: per-query reads all flow through the
            // shared cache, so cumulative traffic never decreases and
            // matches the timing counters exactly.
            let traffic = stats.hits + stats.misses;
            assert!(traffic >= last_traffic, "{tag}: cache traffic went backwards");
            assert_eq!(
                traffic, total_reads,
                "{tag}: every counted block read must be a cache hit or miss"
            );
            last_traffic = traffic;
            // Bounded residency: eviction holds the budget after every
            // single query — the resident set never grows with the corpus.
            assert!(
                stats.resident_bytes <= budget,
                "{tag}, pass {pass}, query {q}: resident {} exceeds the {budget}-byte budget",
                stats.resident_bytes
            );
        }
        assert!(pass_reads > 0, "{tag}, pass {pass}: cold candidates must be read from disk");
        passes.push((pass_reads, pass_pruned));
    }
    let stats = paged.block_cache_stats();
    assert!(stats.peak_resident_bytes <= budget, "{tag}: high-water mark must respect the budget");
    assert!(
        stats.evictions > 0,
        "{tag}: a 2-block budget over a {}-block working set must evict",
        ram.len().div_ceil(block_rows)
    );
    // No hit assertion here: with only two resident blocks and per-query
    // working sets larger than that, thrashing every read is the expected
    // (and correct) behavior — the unbounded control below pins hits.
    std::fs::remove_dir_all(&dir).ok();
    passes
}

#[test]
fn two_block_budget_serves_identical_rankings_with_bounded_residency() {
    // The default page.
    let block_rows = WarpGateConfig::default().block_rows;
    let corpus_bytes = 400 * DIM * 4;
    assert!(
        corpus_bytes >= 10 * 2 * block_rows * DIM * 4,
        "fixture must be ≥10× the budget: {corpus_bytes} bytes in {block_rows}-row blocks"
    );
    for (pass, (reads, pruned)) in
        serve_under_a_two_block_budget(block_rows).into_iter().enumerate()
    {
        // Every block holding a candidate row is either read or pruned;
        // the row bounds must leave at most a sixth of them to read (256
        // of 3,770 here in 2-row pages, 69 of 747 in the previous 16-row
        // default: a family's dozen near-duplicates sit in a few pages,
        // its other candidates are bounded away).
        assert!(
            6 * reads <= reads + pruned,
            "pass {pass}: read {reads} of {} candidate blocks",
            reads + pruned
        );
    }
}

#[test]
fn any_page_size_serves_identical_rankings_within_budget() {
    // From one row a page to 64: the default, the pages it was chosen
    // from, the previous two defaults, and a last block that is not full
    // (3 does not divide 400).
    let mut sizes = vec![1, 2, 3, 4, 16, 64, WarpGateConfig::default().block_rows];
    sizes.sort_unstable();
    sizes.dedup();
    for block_rows in sizes {
        // The larger the page, the more of a pass's candidate pages hold a
        // row worth reading: a tenth at one row, a fifth at 64.
        for (reads, pruned) in serve_under_a_two_block_budget(block_rows) {
            assert!(
                4 * reads <= reads + pruned,
                "{block_rows}-row pages: read {reads} of {} candidate blocks",
                reads + pruned
            );
        }
    }
}

/// What a node running an earlier default left on disk, sealed in
/// `block_rows`-row pages, loads under today's default and ranks like RAM:
/// the page size is the file's, read from its header, whatever the loading
/// system would seal with itself.
fn a_directory_sealed_in_other_pages_loads_under_the_default(block_rows: usize) {
    let (ram, connector, queries, want) = ram_reference(block_rows);
    let dir = tmp_dir(&format!("sealed_at_{block_rows}"));
    ram.save_paged(&dir).unwrap();
    let config = WarpGateConfig { dim: DIM, threads: 2, ..Default::default() };
    assert_ne!(config.block_rows, block_rows, "the loader seals with another page size");
    let mut paged = WarpGate::with_backend(config, connector);
    paged.load_paged(&dir).unwrap();
    assert_eq!(paged.cold_len(), ram.len());
    for (q, expect) in queries.iter().zip(&want) {
        assert_eq!(&paged.discover(q, 5).unwrap().candidates, expect, "{q}");
    }
    // 400 rows in the file's pages, not the loader's.
    assert!(paged.block_cache_stats().len <= 400usize.div_ceil(block_rows));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_directory_sealed_in_64_row_pages_loads_under_the_default_and_ranks_identically() {
    a_directory_sealed_in_other_pages_loads_under_the_default(64);
}

#[test]
fn a_directory_sealed_in_16_row_pages_loads_under_the_default_and_ranks_identically() {
    a_directory_sealed_in_other_pages_loads_under_the_default(16);
}

#[test]
fn unbounded_budget_matches_too_and_stops_evicting() {
    // Control: the same corpus with budget 0 (unbounded) also matches the
    // RAM rankings and never evicts — isolating the eviction machinery as
    // the only variable in the test above.
    const DIM: usize = 64;
    let config = WarpGateConfig { dim: DIM, threads: 2, ..Default::default() }
        .with_block_rows(8)
        .with_block_cache_bytes(0);
    let connector = Arc::new(CdwConnector::new(clustered_warehouse(12, 3, 6), CdwConfig::free()));
    let ram = WarpGate::with_backend(config, connector.clone());
    ram.index_warehouse().unwrap();
    let queries: Vec<ColumnRef> =
        (0..12).map(|t| ColumnRef::new("db", format!("t{t}"), "col0")).collect();
    let want: Vec<_> = queries.iter().map(|q| ram.discover(q, 5).unwrap().candidates).collect();

    let dir = tmp_dir("unbounded");
    ram.save_paged(&dir).unwrap();
    let mut paged = WarpGate::with_backend(config, connector);
    paged.load_paged(&dir).unwrap();
    for pass in 0..2 {
        for (q, expect) in queries.iter().zip(&want) {
            assert_eq!(&paged.discover(q, 5).unwrap().candidates, expect, "pass {pass}: {q}");
        }
    }
    let stats = paged.block_cache_stats();
    assert_eq!(stats.evictions, 0, "unbounded budget must never evict");
    assert!(stats.len > 0, "unbounded budget keeps read blocks resident");
    assert!(stats.hits > 0, "the warm pass must serve from memory");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_heap_the_hot_pass_filled_lets_the_cold_pass_read_nothing() {
    // Mixed tiers: the sealed corpus serves cold, six tables indexed after
    // the restore serve hot. Each new table carries one column with the
    // same values — half of them a sealed family's, so that family's rows
    // are LSH candidates at cosine ~0.72 — and a query for one of them
    // finds five exact duplicates in the arena before it looks at a single
    // cold candidate.
    const DIM: usize = 64;
    const K: usize = 5;
    let config = WarpGateConfig { dim: DIM, threads: 2, ..Default::default() }
        .with_block_rows(8)
        .with_block_cache_bytes(0);
    let connector = Arc::new(CdwConnector::new(clustered_warehouse(100, 4, 32), CdwConfig::free()));
    let ram = WarpGate::with_backend(config, connector.clone());
    ram.index_warehouse().unwrap();
    let sealed_len = ram.len();
    let dir = tmp_dir("mixed");
    ram.save_paged(&dir).unwrap();
    let mut mixed = WarpGate::with_backend(config, connector.clone());
    mixed.load_paged(&dir).unwrap();

    // Both systems sync the new tables in one by one, so they number them
    // alike and even exact ties rank identically.
    let duplicate: Vec<String> = (0..40)
        .map(|i| if i % 2 == 0 { format!("fam3 item {i}") } else { format!("hot only {i}") })
        .collect();
    for t in 0..=K {
        let table = Table::new(format!("hot{t}"), vec![Column::text("dup", duplicate.clone())]);
        connector.warehouse_mut().database_mut("db").add_table(table.unwrap());
        assert_eq!(ram.sync().unwrap().tables_added, 1);
        assert_eq!(mixed.sync().unwrap().tables_added, 1);
    }
    assert_eq!(mixed.len(), ram.len());
    assert_eq!(mixed.cold_len(), sealed_len, "the sealed rows still serve from disk");

    // The heap is full of 1.0s when the cold pass starts: every cold
    // candidate is bounded away, and no block is fetched.
    let query = ColumnRef::new("db", "hot0", "dup");
    let d = mixed.discover(&query, K).unwrap();
    assert_eq!(d.candidates, ram.discover(&query, K).unwrap().candidates);
    assert!(d.candidates.iter().all(|c| c.score == 1.0), "{d:?}");
    assert!(d.timing.blocks_pruned > 0, "the sealed family must have been a candidate");
    assert_eq!(d.timing.blocks_read, 0, "a full heap of exact duplicates needs no cold read");
    assert_eq!(mixed.block_cache_stats().misses, 0);

    // Control: the same system still reads cold blocks when the hot tier
    // cannot fill the heap — and ranks hot and cold rows as one index.
    let query = ColumnRef::new("db", "t0", "col3");
    let d = mixed.discover(&query, K).unwrap();
    assert_eq!(d.candidates, ram.discover(&query, K).unwrap().candidates);
    assert!(d.timing.blocks_read > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A 96-column corpus in 8 value families, indexed all-in-RAM, and the
/// same corpus served from 8-row pages with no block cache, one byte of
/// whose first block's payload was flipped after the restore validated the
/// directory.
fn damaged_paged(tag: &str) -> (WarpGate, WarpGate, PathBuf) {
    const DIM: usize = 64;
    let config = WarpGateConfig { dim: DIM, threads: 2, ..Default::default() }
        .with_block_rows(8)
        .with_block_cache_bytes(0);
    let connector = Arc::new(CdwConnector::new(clustered_warehouse(24, 4, 8), CdwConfig::free()));
    let ram = WarpGate::with_backend(config, connector.clone());
    ram.index_warehouse().unwrap();
    let dir = tmp_dir(tag);
    ram.save_paged(&dir).unwrap();
    let mut paged = WarpGate::with_backend(config, connector);
    paged.load_paged(&dir).unwrap();

    // Flip the byte in place: same inode the segment holds open.
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "seg"))
        .expect("one sealed segment");
    let mut image = std::fs::read(&segment).unwrap();
    image[wg_util::segment::PREAMBLE_LEN + 8] ^= 0x04;
    std::fs::write(&segment, &image).unwrap();
    (ram, paged, dir)
}

#[test]
fn a_damaged_cold_block_is_a_typed_error_not_a_panic() {
    let (ram, paged, dir) = damaged_paged("damaged");
    // Every column asks once. A query that needs the damaged block fails
    // with the typed backend error — again on retry, because the block was
    // never cached — and every other query answers exactly like RAM.
    let (mut failed, mut answered) = (0, 0);
    for t in 0..24 {
        for c in 0..4 {
            let q = ColumnRef::new("db", format!("t{t}"), format!("col{c}"));
            match paged.discover(&q, 5) {
                Ok(d) => {
                    assert_eq!(d.candidates, ram.discover(&q, 5).unwrap().candidates, "{q}");
                    answered += 1;
                }
                Err(StoreError::Backend(msg)) => {
                    assert!(msg.contains("checksum mismatch"), "{msg}");
                    assert!(matches!(paged.discover(&q, 5), Err(StoreError::Backend(_))), "{q}");
                    failed += 1;
                }
                Err(other) => panic!("{q}: unexpected error {other}"),
            }
        }
    }
    assert!(failed > 0, "some query must have needed the damaged block");
    assert!(answered > 0, "queries that do not touch the damaged block still answer");
    // Unbounded cache: every block that loaded is resident, and each of
    // the two fetches per failed query that failed its checksum missed and
    // admitted nothing.
    let stats = paged.block_cache_stats();
    assert_eq!(stats.len as u64 + 2 * failed, stats.misses);
    std::fs::remove_dir_all(&dir).ok();
}

/// A pasted value list takes the same lookup as a column-backed query, so
/// the damaged block fails it the same typed way.
#[test]
fn a_damaged_cold_block_fails_a_value_lookup_typed() {
    let (ram, paged, dir) = damaged_paged("damaged_values");
    let (mut failed, mut answered) = (0, 0);
    for family in 0..8 {
        let values: Vec<String> = (0..40).map(|i| format!("fam{family} item {i}")).collect();
        match paged.discover_values(&values, 5, &DiscoverScope::All) {
            Ok(hits) => {
                let want = ram.discover_values(&values, 5, &DiscoverScope::All).unwrap();
                assert_eq!(hits, want, "family {family}");
                answered += 1;
            }
            Err(StoreError::Backend(msg)) => {
                assert!(msg.contains("checksum mismatch"), "{msg}");
                failed += 1;
            }
            Err(other) => panic!("family {family}: unexpected error {other}"),
        }
    }
    assert!(failed > 0, "some value list must have needed the damaged block");
    assert!(answered > 0, "value lists that do not touch the damaged block still answer");
    std::fs::remove_dir_all(&dir).ok();
}
