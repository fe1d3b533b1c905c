//! §4.4 BERT comparison: swap the embedding model for the transformer and
//! measure (a) effectiveness across sample sizes, (b) inference cost.

use std::sync::Arc;

use warpgate_core::WarpGateConfig;
use wg_corpora::Corpus;
use wg_embed::MiniBertModel;
use wg_store::{BackendHandle, SampleSpec};

use crate::experiments::KS;
use crate::metrics::precision_recall_at_k;
use crate::report;
use crate::systems::{build_warpgate, System};

/// One model × sample-size measurement.
#[derive(Debug, Clone)]
pub struct BertRow {
    /// Model name.
    pub model: String,
    /// Sample label.
    pub sample: String,
    /// `(k, precision, recall)` triplets.
    pub pr: Vec<(usize, f64, f64)>,
    /// Mean embed (inference) seconds per query.
    pub embed_secs: f64,
    /// Mean response seconds per query.
    pub response_secs: f64,
}

/// Sample sizes for the comparison (full is included to exhibit the paper's
/// "10x slower without sampling").
fn specs() -> Vec<(String, SampleSpec)> {
    vec![
        ("100".into(), SampleSpec::Reservoir { n: 100, seed: 0x5A17 }),
        ("1000".into(), SampleSpec::Reservoir { n: 1_000, seed: 0x5A17 }),
        ("full".into(), SampleSpec::Full),
    ]
}

/// Run both models over the corpus.
pub fn run(corpus: &Corpus, backend: &BackendHandle) -> Vec<BertRow> {
    let kmax = *KS.iter().max().expect("ks");
    let mut out = Vec::new();
    for model_name in ["web-table", "mini-bert"] {
        for (label, spec) in specs() {
            let config = WarpGateConfig::default().with_sample(spec);
            let system = match model_name {
                "web-table" => build_warpgate(backend, config, None),
                _ => {
                    build_warpgate(backend, config, Some(Arc::new(MiniBertModel::default_model())))
                }
            }
            .expect("build");
            let mut embed = 0.0;
            let mut response = 0.0;
            let mut rankings = Vec::with_capacity(corpus.queries.len());
            for q in &corpus.queries {
                let (hits, t) = system.query(backend.as_ref(), q, kmax).expect("query");
                embed += t.profile_secs;
                response += t.response_secs();
                rankings.push(hits);
            }
            let n = corpus.queries.len().max(1) as f64;
            let pr = KS
                .iter()
                .map(|&k| {
                    let mut p_sum = 0.0;
                    let mut r_sum = 0.0;
                    for (q, hits) in corpus.queries.iter().zip(&rankings) {
                        let (p, r) = precision_recall_at_k(hits, corpus.truth.answers(q), k);
                        p_sum += p;
                        r_sum += r;
                    }
                    (k, p_sum / n, r_sum / n)
                })
                .collect();
            out.push(BertRow {
                model: model_name.to_string(),
                sample: label,
                pr,
                embed_secs: embed / n,
                response_secs: response / n,
            });
        }
    }
    out
}

/// Render the comparison.
pub fn render(corpus: &str, rows: &[BertRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.model.clone(), r.sample.clone()];
            for (_, p, rec) in &r.pr {
                cells.push(format!("{:.3}/{:.3}", p, rec));
            }
            cells.push(report::secs(r.embed_secs));
            cells.push(report::secs(r.response_secs));
            cells
        })
        .collect();
    format!(
        "{}{}",
        report::section(&format!("§4.4 BERT comparison on {corpus} (P@k/R@k)")),
        report::table(
            &["model", "sample", "k=2", "k=3", "k=5", "k=10", "embed/query", "response/query"],
            &body
        )
    )
}

/// Check the paper's claims: (1) mini-bert effectiveness within `tolerance`
/// of web-table at every (sample, k); (2) full-scan mini-bert inference at
/// least `slowdown_floor`× slower. Returns the first violation.
pub fn check_claims(rows: &[BertRow], tolerance: f64, slowdown_floor: f64) -> Option<String> {
    for (label, _) in specs() {
        let wt = rows.iter().find(|r| r.model == "web-table" && r.sample == label)?;
        let mb = rows.iter().find(|r| r.model == "mini-bert" && r.sample == label)?;
        for ((k, p_w, r_w), (_, p_b, r_b)) in wt.pr.iter().zip(&mb.pr) {
            if (p_w - p_b).abs() > tolerance || (r_w - r_b).abs() > tolerance {
                return Some(format!(
                    "effectiveness diverges at sample {label}, k={k}: wt {:.3}/{:.3} vs bert {:.3}/{:.3}",
                    p_w, r_w, p_b, r_b
                ));
            }
        }
    }
    let wt_full = rows.iter().find(|r| r.model == "web-table" && r.sample == "full")?;
    let mb_full = rows.iter().find(|r| r.model == "mini-bert" && r.sample == "full")?;
    if mb_full.embed_secs < wt_full.embed_secs * slowdown_floor {
        return Some(format!(
            "mini-bert not {slowdown_floor}x slower: {} vs {}",
            report::secs(mb_full.embed_secs),
            report::secs(wt_full.embed_secs)
        ));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::connect_free;
    use wg_corpora::TestbedSpec;

    #[test]
    #[ignore = "minutes-long unoptimized: cargo test --release -p wg_eval --lib bert -- --ignored"]
    fn bert_on_par_but_slower_on_xs() {
        let corpus = wg_corpora::build_testbed(&TestbedSpec::xs(0.1));
        let connector = connect_free(corpus.warehouse.clone());
        let rows = run(&corpus, &connector);
        assert_eq!(rows.len(), 6);
        assert_eq!(check_claims(&rows, 0.2, 3.0), None, "{rows:?}");
    }
}
