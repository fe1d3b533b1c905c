//! Table 2's ordering on XS, in a test binary of its own.
//!
//! The test compares wall-clock response times of three systems. Cargo
//! runs test binaries one after another, so here no sibling test shares
//! its timing window.

use wg_corpora::TestbedSpec;
use wg_eval::experiments::connect;
use wg_eval::experiments::table2::{check_ordering, run};

#[test]
fn ordering_matches_paper_on_xs() {
    let corpus = wg_corpora::build_testbed(&TestbedSpec::xs(0.1));
    let connector = connect(corpus.warehouse.clone());
    let rows = run(&corpus, &connector);
    assert_eq!(rows.len(), 3);
    assert_eq!(check_ordering(&rows), None, "rows: {rows:?}");
}
