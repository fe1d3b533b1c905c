//! Figure 4: top-k precision and recall of Aurum / D3L / WarpGate on
//! testbedS (a), testbedM (b) and Spider (c).

use wg_corpora::Corpus;
use wg_store::{BackendHandle, SampleSpec};

use crate::experiments::KS;
use crate::metrics::precision_recall_at_k;
use crate::report;
use crate::systems::{build_systems, System};

/// One point of a figure panel: a system's P/R at one k.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// System name.
    pub system: String,
    /// Cutoff.
    pub k: usize,
    /// Macro-averaged precision@k.
    pub precision: f64,
    /// Macro-averaged recall@k.
    pub recall: f64,
}

/// Run one panel: evaluate all three systems over the corpus queries.
pub fn run(corpus: &Corpus, backend: &BackendHandle) -> Vec<Fig4Point> {
    let systems = build_systems(backend, SampleSpec::DistinctReservoir { n: 1_000, seed: 0x5A17 })
        .expect("system construction");
    run_with_systems(corpus, backend, &systems)
}

/// Evaluate pre-built systems (shared with Table 2, which reuses them).
pub fn run_with_systems(
    corpus: &Corpus,
    backend: &BackendHandle,
    systems: &[Box<dyn System>],
) -> Vec<Fig4Point> {
    let kmax = *KS.iter().max().expect("non-empty ks");
    let mut out = Vec::new();
    for system in systems {
        // One ranked list per query at the largest k; prefixes give the
        // smaller cutoffs.
        let rankings: Vec<(usize, Vec<wg_store::ColumnRef>)> = corpus
            .queries
            .iter()
            .enumerate()
            .map(|(qi, q)| {
                let (hits, _) = system
                    .query(backend.as_ref(), q, kmax)
                    .unwrap_or_else(|e| panic!("{} failed on {q}: {e}", system.name()));
                (qi, hits)
            })
            .collect();
        for &k in KS {
            let mut p_sum = 0.0;
            let mut r_sum = 0.0;
            for (qi, hits) in &rankings {
                let answers = corpus.truth.answers(&corpus.queries[*qi]);
                let (p, r) = precision_recall_at_k(hits, answers, k);
                p_sum += p;
                r_sum += r;
            }
            let n = rankings.len().max(1) as f64;
            out.push(Fig4Point {
                system: system.name().to_string(),
                k,
                precision: p_sum / n,
                recall: r_sum / n,
            });
        }
    }
    out
}

/// Render one panel as the two series the figure plots.
pub fn render(panel: &str, points: &[Fig4Point]) -> String {
    let mut rows = Vec::new();
    for p in points {
        rows.push(vec![
            p.system.clone(),
            p.k.to_string(),
            report::f(p.precision, 3),
            report::f(p.recall, 3),
        ]);
    }
    format!(
        "{}{}",
        report::section(&format!("Figure 4({panel}): top-k precision / recall")),
        report::table(&["system", "k", "precision", "recall"], &rows)
    )
}

/// The headline property of Figure 4(a)/(b): WarpGate dominates both
/// baselines. Returns the first violation found, if any (used by tests and
/// the reproduce binary's self-check).
pub fn check_warpgate_dominates(points: &[Fig4Point], margin: f64) -> Option<String> {
    for &k in KS {
        let get = |name: &str| {
            points.iter().find(|p| p.system == name && p.k == k).expect("complete grid")
        };
        let wg = get("WarpGate");
        for baseline in ["Aurum", "D3L"] {
            let b = get(baseline);
            if wg.recall + margin < b.recall {
                return Some(format!(
                    "recall@{k}: WarpGate {:.3} < {} {:.3}",
                    wg.recall, baseline, b.recall
                ));
            }
        }
    }
    None
}

/// The Figure 4(c) property is weaker (the paper: WarpGate "outperforms
/// the syntactic-only approach by a large margin" and "compares favorably"
/// against D3L): WarpGate's recall must clearly beat Aurum's at every k and
/// stay within `d3l_slack` of D3L's. Returns the first violation.
pub fn check_spider(points: &[Fig4Point], margin: f64, d3l_slack: f64) -> Option<String> {
    for &k in KS {
        let get = |name: &str| {
            points.iter().find(|p| p.system == name && p.k == k).expect("complete grid")
        };
        let wg = get("WarpGate");
        let aurum = get("Aurum");
        let d3l = get("D3L");
        if wg.recall < aurum.recall + margin {
            return Some(format!(
                "recall@{k}: WarpGate {:.3} does not beat Aurum {:.3} by a large margin",
                wg.recall, aurum.recall
            ));
        }
        if wg.recall + d3l_slack < d3l.recall {
            return Some(format!(
                "recall@{k}: WarpGate {:.3} not comparable to D3L {:.3}",
                wg.recall, d3l.recall
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::connect_free;
    use wg_corpora::TestbedSpec;

    #[test]
    fn panel_on_xs_has_expected_shape() {
        let corpus = wg_corpora::build_testbed(&TestbedSpec::xs(0.05));
        let connector = connect_free(corpus.warehouse.clone());
        let points = run(&corpus, &connector);
        assert_eq!(points.len(), 3 * KS.len());
        // Recall must be non-decreasing in k for every system.
        for system in ["Aurum", "D3L", "WarpGate"] {
            let series: Vec<f64> = KS
                .iter()
                .map(|&k| points.iter().find(|p| p.system == system && p.k == k).unwrap().recall)
                .collect();
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "{system} recall decreased: {series:?}");
            }
        }
        // WarpGate should not be dominated (XS is the smallest corpus, so
        // allow a small statistical wobble; the reproduce binary checks the
        // full S/M panels at a tight margin).
        assert_eq!(check_warpgate_dominates(&points, 0.05), None);
        // And should find something.
        let wg10 = points.iter().find(|p| p.system == "WarpGate" && p.k == 10).unwrap();
        assert!(wg10.recall > 0.3, "WarpGate recall@10 {:.3}", wg10.recall);
        // Every system's exact (P, R) at each k: the baselines' and the
        // embedding models' constants reproduce these figures, so a drifted
        // constant fails here by system and k.
        let pinned: [(&str, usize, f64, f64); 12] = [
            ("Aurum", 2, 0.4142857142857143, 0.41142857142857137),
            ("Aurum", 3, 0.30476190476190484, 0.42857142857142855),
            ("Aurum", 5, 0.20000000000000004, 0.4457142857142857),
            ("Aurum", 10, 0.10000000000000002, 0.4457142857142857),
            ("D3L", 2, 0.6142857142857143, 0.6157142857142858),
            ("D3L", 3, 0.5333333333333332, 0.7933333333333333),
            ("D3L", 5, 0.3942857142857142, 0.8976190476190478),
            ("D3L", 10, 0.2028571428571428, 0.9142857142857143),
            ("WarpGate", 2, 0.6714285714285714, 0.6666666666666666),
            ("WarpGate", 3, 0.5619047619047619, 0.7895238095238095),
            ("WarpGate", 5, 0.4114285714285713, 0.8680952380952381),
            ("WarpGate", 10, 0.20571428571428566, 0.8680952380952381),
        ];
        for (system, k, precision, recall) in pinned {
            let p = points.iter().find(|p| p.system == system && p.k == k).unwrap();
            assert_eq!((p.precision, p.recall), (precision, recall), "{system} P/R@{k}");
        }
    }
}
