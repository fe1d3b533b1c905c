//! The paper's narrative (§1, §3.2, §4.3.3) as an executable test: every
//! step of Joey's sales-campaign walkthrough must hold on the generated
//! Sigma corpus.

use warpgate::corpora::build_sigma;
use warpgate::prelude::*;

#[test]
fn joey_walkthrough_end_to_end() {
    let corpus = build_sigma(0.02, 0x51);
    let connector = std::sync::Arc::new(CdwConnector::new(corpus.warehouse, CdwConfig::free()));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();

    // Step 1-2: recommendations for ACCOUNT.Name include both the
    // same-database LEAD.Company and the cross-database INDUSTRIES variant.
    let query = ColumnRef::new("SALESFORCE", "ACCOUNT", "Name");
    let discovery = wg.discover(&query, 3).unwrap();
    let tables: Vec<&str> =
        discovery.candidates.iter().map(|c| c.reference.table.as_str()).collect();
    assert!(tables.contains(&"LEAD"), "LEAD.Company not in top-3: {tables:?}");
    assert!(tables.contains(&"INDUSTRIES"), "INDUSTRIES not in top-3: {tables:?}");
    for c in &discovery.candidates {
        assert!(c.score > 0.5, "weak recommendation {c:?}");
    }

    // Step 3: enrich with Industry Group + Ticker; cardinality preserved.
    let industries = discovery
        .candidates
        .iter()
        .map(|c| &c.reference)
        .find(|r| r.table == "INDUSTRIES")
        .unwrap();
    let account = connector.scan_table("SALESFORCE", "ACCOUNT", SampleSpec::Full).unwrap();
    let enriched = wg
        .augment_via_lookup(
            &account,
            "Name",
            industries,
            &["Industry Group", "Ticker"],
            KeyNorm::AlphaNum,
        )
        .unwrap();
    assert_eq!(enriched.num_rows(), account.num_rows(), "cardinality must be preserved");
    let sector = enriched.column("Industry Group").unwrap();
    let filled = (0..sector.len()).filter(|&i| !sector.get(i).is_null()).count();
    assert!(
        filled * 10 >= enriched.num_rows() * 8,
        "sector enrichment coverage too low: {filled}/{}",
        enriched.num_rows()
    );

    // The chained join: Ticker leads to stock prices in the same database.
    let prices = ColumnRef::new("STOCKS", "PRICES", "Ticker");
    let with_prices =
        wg.augment_via_lookup(&enriched, "Ticker", &prices, &["Close"], KeyNorm::Exact).unwrap();
    assert_eq!(with_prices.num_rows(), account.num_rows());
    let close = with_prices.column("Close").unwrap();
    let priced = (0..close.len()).filter(|&i| !close.get(i).is_null()).count();
    assert!(priced > 0, "ticker chain produced no prices");

    // Filtering by sector then works like Joey's customer selection.
    let found_sector = (0..sector.len())
        .filter_map(|i| sector.get(i).as_text().map(str::to_string))
        .next()
        .expect("at least one sector");
    assert!(!found_sector.is_empty());
}

#[test]
fn adhoc_queries_answer_quickly_with_sampling() {
    let corpus = build_sigma(0.02, 0x51);
    let connector = std::sync::Arc::new(CdwConnector::with_defaults(corpus.warehouse));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();
    for q in &corpus.queries {
        let d = wg.discover(q, 3).unwrap();
        assert!(
            d.timing.response_secs() < 0.5,
            "{q} answered in {:.3}s — not interactive",
            d.timing.response_secs()
        );
    }
}

#[test]
fn discover_values_matches_column_backed_query() {
    // A user pasting values by hand should land in the same neighborhood as
    // querying the backing column.
    let corpus = build_sigma(0.02, 0x51);
    let connector = std::sync::Arc::new(CdwConnector::new(corpus.warehouse, CdwConfig::free()));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();

    let pasted: Vec<String> =
        (0..40u64).map(|i| warpgate::corpora::Domain::Company.value(i)).collect();
    let hits = wg.discover_values(&pasted, 5, &DiscoverScope::All).unwrap();
    assert!(!hits.is_empty());
    let company_ish = hits.iter().any(|h| {
        h.reference.column.to_lowercase().contains("name")
            || h.reference.column.to_lowercase().contains("company")
    });
    assert!(company_ish, "pasted company names found nothing sensible: {hits:?}");
}
