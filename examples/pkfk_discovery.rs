//! PK/FK detection on a Spider-style multi-database corpus (§4.3.2 /
//! Figure 4(c)): compare WarpGate against the syntactic Aurum baseline on
//! the join shape that defeats Jaccard thresholds — foreign keys fully
//! *contained* in much larger primary keys.
//!
//! ```text
//! cargo run --release --example pkfk_discovery
//! ```

use warpgate::baselines::Aurum;
use warpgate::corpora::build_spider;
use warpgate::eval::metrics::precision_recall_at_k;
use warpgate::prelude::*;

fn main() {
    let corpus = build_spider(0.1, 0x5919);
    let connector =
        std::sync::Arc::new(CdwConnector::new(corpus.warehouse.clone(), CdwConfig::free()));
    println!(
        "spider-style corpus: {} tables / {} columns / {} FK queries\n",
        corpus.warehouse.num_tables(),
        corpus.warehouse.num_columns(),
        corpus.queries.len()
    );

    // Build both systems over the same warehouse.
    let warpgate = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    warpgate.index_warehouse().expect("warpgate indexing");
    let aurum = Aurum::build(connector.as_ref()).expect("aurum build");
    println!("Aurum EKG: {} columns, {} edges", aurum.num_columns(), aurum.num_edges());

    // Evaluate both on the FK→PK workload.
    for k in [2usize, 10] {
        let mut wg_p = 0.0;
        let mut wg_r = 0.0;
        let mut au_p = 0.0;
        let mut au_r = 0.0;
        for q in &corpus.queries {
            let answers = corpus.truth.answers(q);
            let wg_hits: Vec<ColumnRef> = warpgate
                .discover(q, k)
                .expect("discover")
                .candidates
                .into_iter()
                .map(|c| c.reference)
                .collect();
            let (p, r) = precision_recall_at_k(&wg_hits, answers, k);
            wg_p += p;
            wg_r += r;
            let au_hits: Vec<ColumnRef> =
                aurum.neighbors(q, k).expect("aurum").into_iter().map(|(r, _)| r).collect();
            let (p, r) = precision_recall_at_k(&au_hits, answers, k);
            au_p += p;
            au_r += r;
        }
        let n = corpus.queries.len() as f64;
        println!(
            "\nk={k}:  WarpGate P {:.3} / R {:.3}   |   Aurum P {:.3} / R {:.3}",
            wg_p / n,
            wg_r / n,
            au_p / n,
            au_r / n
        );
    }

    // Show one concrete FK→PK discovery with the containment/Jaccard
    // asymmetry that explains the gap.
    let q = &corpus.queries[0];
    let answer = &corpus.truth.answers(q)[0];
    let fk = connector.scan_column(q, SampleSpec::Full).expect("scan fk");
    let pk = connector.scan_column(answer, SampleSpec::Full).expect("scan pk");
    println!(
        "\nexample pair {q} -> {answer}:\n  containment(FK in PK) = {:.2}, jaccard = {:.2}",
        warpgate::store::containment(&fk, &pk, KeyNorm::Exact),
        warpgate::store::jaccard(&fk, &pk, KeyNorm::Exact),
    );
    let top = warpgate.discover(q, 3).expect("discover");
    println!("  WarpGate top-3 for the FK:");
    for c in &top.candidates {
        println!("    {}  ({:.3})", c.reference, c.score);
    }
}
