//! Smoke and determinism tests: a `--scale tiny` pass through every workload
//! in both modes, the contract file kept equal to its generator, and the
//! seed discipline (same seed ⇒ same ops and same exact metrics).

use std::collections::BTreeSet;
use std::path::PathBuf;

use wg_e2e_bench::inputs::Scale;
use wg_e2e_bench::run::{op_list, run, Outcome, RunConfig};
use wg_e2e_bench::{benchmark_json, Workload, END_TO_END, PER_LAYER, RUN_SECONDS};

fn tiny(workload: Workload, seed: u64, trace: bool, tag: &str) -> Outcome {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "{tag}-{}-{seed}-{}",
        workload.name(),
        trace as u8
    ));
    let outcome = run(&RunConfig {
        workload,
        seed,
        seconds: 0.25,
        trace,
        scale: Scale::Tiny,
        scratch: scratch.clone(),
    });
    let _ = std::fs::remove_dir_all(&scratch);
    outcome.expect("tiny run succeeds")
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome.metrics.iter().find(|(n, _)| *n == name).map(|&(_, v)| v).expect("metric present")
}

#[test]
fn tiny_pass_emits_exactly_the_declared_metrics() {
    for workload in Workload::ALL {
        for (trace, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
            let outcome = tiny(workload, 11, trace, "names");
            let printed: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
            let declared: Vec<&str> = declared.iter().map(|m| m.name).collect();
            assert_eq!(printed, declared, "{} trace={trace}", workload.name());
            assert_eq!(outcome.failed, 0, "{} trace={trace}", workload.name());
            assert!(outcome.attempted >= 1);
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", workload.name());
                if !trace {
                    assert!(*value > 0.0, "{} {name} must never be 0", workload.name());
                }
            }
        }
    }
}

#[test]
fn same_seed_same_ops_and_exact_metrics_other_seed_other_order() {
    for workload in [Workload::ColdInproc, Workload::WarmRam] {
        let a = op_list(workload, 11, Scale::Tiny, 300);
        assert_eq!(a, op_list(workload, 11, Scale::Tiny, 300));
        assert_ne!(a, op_list(workload, 12, Scale::Tiny, 300));

        let (x, y) = (tiny(workload, 11, false, "det-a"), tiny(workload, 11, false, "det-b"));
        for exact in ["billed_bytes_per_op", "quality_p_at_10", "quality_r_at_10"] {
            assert_eq!(metric(&x, exact), metric(&y, exact), "{} {exact}", workload.name());
        }
    }
    // Exact per-layer counts repeat too.
    let (x, y) = (
        tiny(Workload::ColdInproc, 11, true, "det-c"),
        tiny(Workload::ColdInproc, 11, true, "det-d"),
    );
    for exact in [
        "store.calls_per_op.validate",
        "store.calls_per_op.scan",
        "store.calls_per_op.costs",
        "store.scan_requests_per_op",
        "core.sync.billed_scans_per_changed_col",
        "lsh.recall_at_10_vs_exact",
    ] {
        assert_eq!(metric(&x, exact), metric(&y, exact), "{exact}");
    }
}

/// `"key": "value"` occurrences in a JSON text, in order.
fn string_values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[at + needle.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

#[test]
fn benchmark_json_is_current_and_inside_the_contract() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert_eq!(
        committed,
        benchmark_json(),
        "regenerate with: wg_bench --print-benchmark-json > BENCHMARK.json"
    );

    let valid_name = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let valid_unit = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    let mut names = BTreeSet::new();
    for w in Workload::ALL {
        assert!(valid_name(w.name()) && names.insert(w.name()), "{}", w.name());
        assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
        assert!(!w.why().contains('"') && !w.why().contains('\\'), "{}", w.name());
    }
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name) && names.insert(m.name), "{}", m.name);
        assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
        assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
    }
    let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(committed.len() <= 64 * 1024);
    assert_eq!(string_values(&committed, "name").len(), names.len());
}
