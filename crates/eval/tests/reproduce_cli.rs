//! The `reproduce` binary's command line.

use std::process::Command;

#[test]
fn an_unknown_experiment_fails_before_anything_runs() {
    // `sigma` is valid and comes first: the run must still be refused
    // whole, with nothing printed on stdout.
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["sigma", "tabel1"])
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no experiment may run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown experiment 'tabel1'"), "{stderr}");
}

#[test]
fn a_malformed_row_scale_fails_before_anything_runs() {
    for bad in ["abc", "0", "-2", "nan", ""] {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg("sigma")
            .env("WG_ROW_SCALE_MULT", bad)
            .output()
            .expect("run reproduce");
        assert_eq!(out.status.code(), Some(2), "WG_ROW_SCALE_MULT={bad:?}");
        assert!(out.stdout.is_empty(), "no experiment may run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("WG_ROW_SCALE_MULT must be a positive number"), "{stderr}");
    }
}

#[test]
fn a_numeric_row_scale_is_accepted() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("sigma")
        .env("WG_ROW_SCALE_MULT", "0.5")
        .output()
        .expect("run reproduce");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(!out.stdout.is_empty());
}
