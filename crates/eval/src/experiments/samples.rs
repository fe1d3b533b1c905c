//! §4.4 sample efficiency: effectiveness and latency across sample sizes
//! 10 / 100 / 1000 / full.
//!
//! For each sample size a fresh WarpGate index is built with the sampled
//! scan pushed into the CDW connector, then the full query workload runs at
//! the same sample size. Reported per size: P/R at k ∈ {2,3,5,10}, mean
//! lookup time and mean end-to-end response time — the paper's claims are
//! that effectiveness barely moves while both times collapse.

use warpgate_core::WarpGateConfig;
use wg_corpora::Corpus;
use wg_store::{BackendHandle, SampleSpec};

use crate::experiments::KS;
use crate::metrics::precision_recall_at_k;
use crate::report;
use crate::systems::{build_warpgate, System};

/// Results for one sample size.
#[derive(Debug, Clone)]
pub struct SampleRow {
    /// Sample label ("10", "100", "1000", "full").
    pub sample: String,
    /// `(k, precision, recall)` triplets.
    pub pr: Vec<(usize, f64, f64)>,
    /// Mean lookup seconds per query.
    pub lookup_secs: f64,
    /// Mean response seconds per query (incl. virtual load latency).
    pub response_secs: f64,
}

/// Sample sizes the paper sweeps.
fn sample_specs() -> Vec<(String, SampleSpec)> {
    vec![
        ("10".into(), SampleSpec::Reservoir { n: 10, seed: 0x5A17 }),
        ("100".into(), SampleSpec::Reservoir { n: 100, seed: 0x5A17 }),
        ("1000".into(), SampleSpec::Reservoir { n: 1_000, seed: 0x5A17 }),
        ("full".into(), SampleSpec::Full),
    ]
}

/// Run the sweep on one corpus.
pub fn run(corpus: &Corpus, backend: &BackendHandle) -> Vec<SampleRow> {
    let kmax = *KS.iter().max().expect("ks");
    let mut out = Vec::new();
    for (label, spec) in sample_specs() {
        let system = build_warpgate(backend, WarpGateConfig::default().with_sample(spec), None)
            .expect("warpgate build");
        let mut lookup = 0.0;
        let mut response = 0.0;
        let mut rankings = Vec::with_capacity(corpus.queries.len());
        for q in &corpus.queries {
            let (hits, t) = system.query(backend.as_ref(), q, kmax).expect("query");
            lookup += t.lookup_secs;
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
        out.push(SampleRow {
            sample: label,
            pr,
            lookup_secs: lookup / n,
            response_secs: response / n,
        });
    }
    out
}

/// Render the sweep.
pub fn render(corpus: &str, rows: &[SampleRow]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.sample.clone()];
            for (_, p, rec) in &r.pr {
                cells.push(format!("{:.3}/{:.3}", p, rec));
            }
            cells.push(report::secs(r.lookup_secs));
            cells.push(report::secs(r.response_secs));
            cells
        })
        .collect();
    format!(
        "{}{}",
        report::section(&format!("§4.4 sample efficiency on {corpus} (P@k/R@k)")),
        report::table(
            &["sample", "k=2", "k=3", "k=5", "k=10", "lookup/query", "response/query"],
            &body
        )
    )
}

/// Check the paper's two §4.4 properties: effectiveness at the given
/// sample size stays within `tolerance` (absolute P/R difference at every
/// k) of full values, and the sampled response time is at most
/// `speedup_floor`× the full response time. Returns the first violation.
pub fn check_robustness(
    rows: &[SampleRow],
    sample: &str,
    tolerance: f64,
    speedup_floor: f64,
) -> Option<String> {
    let full = rows.iter().find(|r| r.sample == "full")?;
    let s = rows.iter().find(|r| r.sample == sample)?;
    for ((k, p_s, r_s), (_, p_f, r_f)) in s.pr.iter().zip(&full.pr) {
        if (p_s - p_f).abs() > tolerance {
            return Some(format!(
                "precision@{k} moved {:.3} -> {:.3} at sample {sample}",
                p_f, p_s
            ));
        }
        if (r_s - r_f).abs() > tolerance {
            return Some(format!("recall@{k} moved {:.3} -> {:.3} at sample {sample}", r_f, r_s));
        }
    }
    if s.response_secs * speedup_floor > full.response_secs {
        return Some(format!(
            "response did not speed up {speedup_floor}x: full {} vs sampled {}",
            report::secs(full.response_secs),
            report::secs(s.response_secs)
        ));
    }
    None
}
