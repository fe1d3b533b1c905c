//! Table 2: end-to-end query response time (seconds/query at k = 10), with
//! WarpGate's index-lookup time broken out.
//!
//! All systems run in their full-scan configuration (the paper's setting
//! for this table: sampling is studied separately in §4.4). The response
//! time includes the simulated CDW's virtual network latency, which is
//! what restores the "loading dominates" structure on scaled-down corpora.

use wg_corpora::Corpus;
use wg_store::{BackendHandle, SampleSpec};

use crate::report;
use crate::systems::{build_systems, SysTiming, System};

/// Mean per-query timing for one system on one corpus.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Corpus label.
    pub corpus: String,
    /// System name.
    pub system: String,
    /// Mean end-to-end response seconds per query.
    pub response_secs: f64,
    /// Mean index-lookup seconds per query.
    pub lookup_secs: f64,
    /// Mean load seconds (real + virtual) per query.
    pub load_secs: f64,
    /// Mean profile/embed seconds per query.
    pub profile_secs: f64,
}

/// Run the timing workload: every query at k = 10 against every system.
pub fn run(corpus: &Corpus, backend: &BackendHandle) -> Vec<Table2Row> {
    let systems = build_systems(backend, SampleSpec::Full).expect("system construction");
    run_with_systems(corpus, backend, &systems)
}

/// Timing over pre-built systems.
pub fn run_with_systems(
    corpus: &Corpus,
    backend: &BackendHandle,
    systems: &[Box<dyn System>],
) -> Vec<Table2Row> {
    let mut out = Vec::new();
    for system in systems {
        let mut acc = SysTiming::default();
        let mut n = 0usize;
        for q in &corpus.queries {
            let (_, t) = system
                .query(backend.as_ref(), q, 10)
                .unwrap_or_else(|e| panic!("{} failed on {q}: {e}", system.name()));
            acc.load_secs += t.load_secs + t.virtual_load_secs;
            acc.profile_secs += t.profile_secs;
            acc.lookup_secs += t.lookup_secs;
            n += 1;
        }
        let n = n.max(1) as f64;
        out.push(Table2Row {
            corpus: corpus.name.clone(),
            system: system.name().to_string(),
            response_secs: (acc.load_secs + acc.profile_secs + acc.lookup_secs) / n,
            lookup_secs: acc.lookup_secs / n,
            load_secs: acc.load_secs / n,
            profile_secs: acc.profile_secs / n,
        });
    }
    out
}

/// Render measured rows plus the decomposition the paper discusses.
pub fn render(rows: &[Table2Row]) -> String {
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let frac =
                if r.response_secs > 0.0 { r.lookup_secs / r.response_secs * 100.0 } else { 0.0 };
            vec![
                r.corpus.clone(),
                r.system.clone(),
                report::secs(r.response_secs),
                report::secs(r.lookup_secs),
                format!("{frac:.0}%"),
                report::secs(r.load_secs),
                report::secs(r.profile_secs),
            ]
        })
        .collect();
    format!(
        "{}{}",
        report::section("Table 2: end-to-end query response time (k=10, full scans)"),
        report::table(
            &[
                "corpus",
                "system",
                "response/query",
                "lookup/query",
                "lookup share",
                "load/query",
                "profile/query"
            ],
            &body
        )
    )
}

/// The orderings Table 2 exhibits: Aurum ≪ WarpGate < D3L, and WarpGate's
/// lookup is a minority share of its response. Returns the first violation.
pub fn check_ordering(rows: &[Table2Row]) -> Option<String> {
    let get = |name: &str| rows.iter().find(|r| r.system == name).expect("all systems present");
    let aurum = get("Aurum");
    let d3l = get("D3L");
    let wg = get("WarpGate");
    if aurum.response_secs >= wg.response_secs {
        return Some(format!(
            "Aurum ({}) not faster than WarpGate ({})",
            report::secs(aurum.response_secs),
            report::secs(wg.response_secs)
        ));
    }
    if wg.response_secs >= d3l.response_secs {
        return Some(format!(
            "WarpGate ({}) not faster than D3L ({})",
            report::secs(wg.response_secs),
            report::secs(d3l.response_secs)
        ));
    }
    if wg.lookup_secs > wg.response_secs * 0.30 {
        return Some(format!(
            "WarpGate lookup share too high: {} of {}",
            report::secs(wg.lookup_secs),
            report::secs(wg.response_secs)
        ));
    }
    None
}
