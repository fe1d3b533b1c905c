//! Evaluation harness: regenerates every table and figure of the paper.
//!
//! * [`metrics`] — top-k precision/recall macro-averaged over queries,
//!   exactly as §4.2 reports them;
//! * [`systems`] — one adapter interface over Aurum, D3L and WarpGate so
//!   experiments treat the three systems uniformly;
//! * [`experiments`] — one module per table/figure (see the per-experiment
//!   index in `DESIGN.md`);
//! * [`paper`] — the paper's published numbers, printed side by side with
//!   measurements;
//! * [`report`] — plain-text table rendering.
//!
//! The `reproduce` binary drives everything:
//! `cargo run -p wg-eval --release --bin reproduce -- all`.

pub mod experiments;
pub mod metrics;
pub mod paper;
pub mod report;
pub mod systems;

/// Default corpus scales used by the experiments, overridable with the
/// `WG_ROW_SCALE_MULT` environment variable (a multiplier on all of them).
/// The paper's absolute row counts (hundreds of millions of cells) are
/// reachable but pointless for shape validation; scaled corpora keep the
/// same tables/columns/queries and scale only rows.
pub fn scale_for(corpus: &str) -> f64 {
    let base = match corpus {
        "testbedXS" => 0.25,
        "testbedS" => 0.01,
        "testbedM" => 0.003,
        "testbedL" => 0.001,
        "spider" => 0.1,
        "sigma" => 0.02,
        _ => 0.01,
    };
    // `reproduce` checks the variable before it runs anything; any other
    // caller learns of a bad value here rather than running at a scale it
    // did not ask for.
    base * row_scale_mult().unwrap_or_else(|e| panic!("{e}"))
}

/// The `WG_ROW_SCALE_MULT` multiplier: 1.0 when unset, and an error (the
/// message to show the user) when set to anything but a finite positive
/// number.
pub fn row_scale_mult() -> Result<f64, String> {
    match std::env::var_os("WG_ROW_SCALE_MULT") {
        None => Ok(1.0),
        Some(raw) => parse_row_scale_mult(&raw.to_string_lossy()),
    }
}

fn parse_row_scale_mult(s: &str) -> Result<f64, String> {
    match s.trim().parse::<f64>() {
        Ok(mult) if mult.is_finite() && mult > 0.0 => Ok(mult),
        _ => Err(format!("WG_ROW_SCALE_MULT must be a positive number, got '{s}'")),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn row_scale_mult_accepts_only_positive_numbers() {
        assert_eq!(super::parse_row_scale_mult("2"), Ok(2.0));
        assert_eq!(super::parse_row_scale_mult(" 0.25 "), Ok(0.25));
        for bad in ["", "abc", "0", "-1", "nan", "inf", "1x"] {
            let err = super::parse_row_scale_mult(bad).unwrap_err();
            assert!(err.contains(&format!("'{bad}'")), "{err}");
        }
    }

    #[test]
    fn scales_are_positive() {
        for c in ["testbedXS", "testbedS", "testbedM", "testbedL", "spider", "sigma", "?"] {
            assert!(super::scale_for(c) > 0.0);
        }
    }
}
