//! Reproduce the paper's tables and figures.
//!
//! ```text
//! cargo run -p wg_eval --release --bin reproduce -- all
//! cargo run -p wg_eval --release --bin reproduce -- table1 fig4a fig4b fig4c table2 samples bert sigma scale
//! ```
//!
//! Row scales default to the values in `wg_eval::scale_for`; set
//! `WG_ROW_SCALE_MULT` to scale all corpora up or down (a positive number;
//! anything else is refused).

use wg_corpora::{build_sigma, build_spider, build_testbed, Corpus, TestbedSpec};
use wg_eval::experiments::{bert, figure4, samples, scale, sigma_adhoc, table1, table2};
use wg_eval::experiments::{connect, connect_free};
use wg_eval::{report, row_scale_mult, scale_for};

const EXPERIMENTS: [&str; 9] =
    ["table1", "fig4a", "fig4b", "fig4c", "table2", "samples", "bert", "sigma", "scale"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let what: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXPERIMENTS.to_vec()
    } else {
        args.iter().map(|s| s.as_str()).collect()
    };
    // Refuse a misspelt name or a malformed scale before running anything:
    // a typo must fail the calling script, not print a line and report
    // success, or run every corpus at a scale nobody asked for.
    if let Some(other) = what.iter().find(|exp| !EXPERIMENTS.contains(exp)) {
        eprintln!("unknown experiment '{other}' (expected one of: all {})", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    if let Err(message) = row_scale_mult() {
        eprintln!("{message}");
        std::process::exit(2);
    }

    for exp in what {
        match exp {
            "table1" => run_table1(),
            "fig4a" => run_fig4("a", testbed_s(), false),
            "fig4b" => run_fig4("b", testbed_m(), false),
            "fig4c" => run_fig4("c", spider(), true),
            "table2" => run_table2(),
            "samples" => run_samples(),
            "bert" => run_bert(),
            "sigma" => run_sigma(),
            "scale" => run_scale(),
            other => unreachable!("'{other}' passed the name check"),
        }
    }
}

fn testbed_s() -> Corpus {
    build_testbed(&TestbedSpec::s(scale_for("testbedS")))
}

fn testbed_m() -> Corpus {
    build_testbed(&TestbedSpec::m(scale_for("testbedM")))
}

fn spider() -> Corpus {
    build_spider(scale_for("spider"), 0x5919)
}

fn run_table1() {
    println!("{}", report::section("Table 1: dataset statistics (measured / paper)"));
    let rows = table1::run();
    println!("{}", table1::render(&rows));
}

fn run_fig4(panel: &str, corpus: Corpus, spider_panel: bool) {
    eprintln!("[fig4{panel}] building systems over {} ...", corpus.name);
    let connector = connect_free(corpus.warehouse.clone());
    let points = figure4::run(&corpus, &connector);
    println!("{}", figure4::render(panel, &points));
    let verdict = if spider_panel {
        // Panel (c): the paper claims a large margin over Aurum and
        // favorable comparison against D3L, not strict dominance.
        figure4::check_spider(&points, 0.1, 0.25).map_or_else(
            || "WarpGate beats Aurum by a large margin, comparable to D3L [ok]".to_string(),
            |v| format!("VIOLATION - {v}"),
        )
    } else {
        figure4::check_warpgate_dominates(&points, 0.02).map_or_else(
            || "WarpGate dominates both baselines [ok]".to_string(),
            |v| format!("VIOLATION - {v}"),
        )
    };
    println!("check: {verdict}");
}

fn run_table2() {
    for corpus in [testbed_s(), testbed_m()] {
        eprintln!("[table2] timing workload on {} ...", corpus.name);
        let connector = connect(corpus.warehouse.clone());
        let rows = table2::run(&corpus, &connector);
        println!("{}", table2::render(&rows));
        match table2::check_ordering(&rows) {
            None => println!("check: Aurum << WarpGate < D3L, lookup is a minority share [ok]"),
            Some(v) => println!("check: VIOLATION - {v}"),
        }
    }
}

fn run_samples() {
    for corpus in [testbed_s(), testbed_m()] {
        eprintln!("[samples] sweep on {} ...", corpus.name);
        let connector = connect(corpus.warehouse.clone());
        let rows = samples::run(&corpus, &connector);
        println!("{}", samples::render(&corpus.name, &rows));
        match samples::check_robustness(&rows, "1000", 0.05, 1.0) {
            None => println!("check: sample 1000 within tolerance of full, faster [ok]"),
            Some(v) => println!("check: VIOLATION - {v}"),
        }
    }
}

fn run_bert() {
    // BERT inference is deliberately expensive; XS keeps the sweep minutes-
    // scale while exercising identical code paths (documented deviation).
    let corpus = build_testbed(&TestbedSpec::xs(scale_for("testbedXS")));
    eprintln!("[bert] model comparison on {} ...", corpus.name);
    let connector = connect(corpus.warehouse.clone());
    let rows = bert::run(&corpus, &connector);
    println!("{}", bert::render(&corpus.name, &rows));
    match bert::check_claims(&rows, 0.2, 3.0) {
        None => println!("check: on-par effectiveness, materially slower inference [ok]"),
        Some(v) => println!("check: VIOLATION - {v}"),
    }
}

fn run_sigma() {
    eprintln!("[sigma] ad-hoc walkthrough ...");
    let corpus = build_sigma(scale_for("sigma"), 0x51);
    let connector = connect_free(corpus.warehouse.clone());
    let result = sigma_adhoc::run(&connector);
    println!("{}", sigma_adhoc::render(&result));
}

fn run_scale() {
    let r = scale::run(4_000, 7);
    println!("{}", scale::render(&r));
}
