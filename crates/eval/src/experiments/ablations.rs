//! Ablations over WarpGate's tunable design choices, as P@5 / R@5 on
//! testbed XS: LSH threshold × multi-probe, aggregation scheme, embedding
//! dimension, and sampling strategy at an equal budget of 100 rows.
//! Effectiveness only: each variant is one cache-off WarpGate build, and
//! nothing is timed.

use warpgate_core::WarpGateConfig;
use wg_corpora::Corpus;
use wg_embed::Aggregation;
use wg_store::{BackendHandle, SampleSpec};

use crate::metrics::precision_recall_at_k;
use crate::report;
use crate::systems::{build_warpgate, System};

/// The cutoff every sweep reports.
const K: usize = 5;

/// One variant of one sweep, with its macro-averaged P@5 / R@5.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// The sweep: threshold × probes, aggregation, dim or sampling.
    pub sweep: &'static str,
    /// The variant within the sweep.
    pub variant: String,
    /// Precision at 5.
    pub precision: f64,
    /// Recall at 5.
    pub recall: f64,
}

/// Every variant of the four sweeps, each a change of one knob (two for
/// threshold × probes) from the default configuration. Aggregation sweeps
/// over a row sample of the default's size: the default distinct sample
/// holds each value once, and with equal counts the three schemes weigh
/// alike.
fn variants() -> Vec<(&'static str, String, WarpGateConfig)> {
    let base = WarpGateConfig::default();
    let rows = base.with_sample(SampleSpec::Reservoir { n: 1_000, seed: 0x5A17 });
    let mut out = Vec::new();
    for lsh_threshold in [0.5, 0.6, 0.7, 0.8] {
        for probes in [0, 1, 2] {
            let config = WarpGateConfig { lsh_threshold, probes, ..base };
            out.push(("threshold × probes", format!("{lsh_threshold:.1} × {probes}"), config));
        }
    }
    for aggregation in
        [Aggregation::MeanDistinct, Aggregation::FrequencyWeighted, Aggregation::Sif { a: 0.05 }]
    {
        let config = WarpGateConfig { aggregation, ..rows };
        out.push(("aggregation", aggregation.label().to_string(), config));
    }
    for dim in [32, 64, 128, 256] {
        out.push(("dim", dim.to_string(), WarpGateConfig { dim, ..base }));
    }
    for (label, sample) in [
        ("head", SampleSpec::Head(100)),
        ("reservoir", SampleSpec::Reservoir { n: 100, seed: 7 }),
        ("distinct", SampleSpec::DistinctReservoir { n: 100, seed: 7 }),
    ] {
        out.push(("sampling", label.to_string(), base.with_sample(sample)));
    }
    out
}

/// Build every variant over `backend` and score the corpus queries.
pub fn run(corpus: &Corpus, backend: &BackendHandle) -> Vec<AblationRow> {
    let n = corpus.queries.len().max(1) as f64;
    variants()
        .into_iter()
        .map(|(sweep, variant, config)| {
            let system = build_warpgate(backend, config, None).expect("warpgate build");
            let (mut precision, mut recall) = (0.0, 0.0);
            for q in &corpus.queries {
                let (hits, _) = system.query(backend.as_ref(), q, K).expect("query");
                let (p, r) = precision_recall_at_k(&hits, corpus.truth.answers(q), K);
                precision += p;
                recall += r;
            }
            AblationRow { sweep, variant, precision: precision / n, recall: recall / n }
        })
        .collect()
}

/// Render the four sweeps as one table.
pub fn render(corpus: &str, rows: &[AblationRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.sweep.to_string(),
                r.variant.clone(),
                report::f(r.precision, 3),
                report::f(r.recall, 3),
            ]
        })
        .collect();
    format!(
        "{}{}",
        report::section(&format!("Ablations on {corpus} (P@5 / R@5)")),
        report::table(&["sweep", "variant", "P@5", "R@5"], &body)
    )
}
