//! §4.4 sample efficiency on XS, in a test binary of its own.
//!
//! The test times sampled scans against full scans. Cargo runs test
//! binaries one after another, so here no sibling test shares its timing
//! window.

use wg_corpora::TestbedSpec;
use wg_eval::experiments::connect;
use wg_eval::experiments::samples::{check_robustness, run};

#[test]
fn sampling_is_robust_and_fast_on_xs() {
    let corpus = wg_corpora::build_testbed(&TestbedSpec::xs(0.25));
    let connector = connect(corpus.warehouse.clone());
    let rows = run(&corpus, &connector);
    assert_eq!(rows.len(), 4);
    // 1000-value samples on XS columns are full columns: identical
    // effectiveness, response equal up to noise (0.9 slack).
    assert_eq!(check_robustness(&rows, "1000", 0.02, 0.9), None, "{rows:?}");
    // 100-value samples stay close in effectiveness.
    assert_eq!(check_robustness(&rows, "100", 0.12, 0.9), None, "{rows:?}");
    // The real speedup shows where sampling actually reduces bytes:
    // sample 10 must respond well under the full-scan time.
    let full = rows.iter().find(|r| r.sample == "full").unwrap();
    let ten = rows.iter().find(|r| r.sample == "10").unwrap();
    assert!(
        ten.response_secs < full.response_secs * 0.6,
        "sample 10 {} vs full {}",
        ten.response_secs,
        full.response_secs
    );
}
