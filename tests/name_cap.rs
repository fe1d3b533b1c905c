//! A snapshot load in a process whose backend-name table is full fails
//! typed instead of panicking.
//!
//! The interner is process-global and append-only, so this binary holds a
//! single test: a child run of it writes snapshots naming a backend, then
//! the parent fills its own table with other names and loads them.

use std::path::Path;
use std::process::Command;
use std::sync::Arc;

use warpgate::prelude::*;
use warpgate::util::names;

/// Set in the child run: the directory to write the snapshots into.
const CHILD_DIR: &str = "WG_NAME_CAP_SNAPSHOT_DIR";
const TEST: &str = "a_snapshot_load_fails_typed_when_the_name_table_is_full";
const LAKE: &str = "name-cap-lake";

fn config() -> WarpGateConfig {
    WarpGateConfig { threads: 1, ..WarpGateConfig::default() }
}

/// The child's half: one system over a backend named [`LAKE`], saved as a
/// snapshot file, a paged directory and a checkpoint.
fn write_snapshots(dir: &Path) {
    let mut w = Warehouse::new("lake");
    w.database_mut("db").add_table(
        Table::new(
            "t",
            vec![Column::text("c", (0..30).map(|i| format!("v{i}")).collect::<Vec<_>>())],
        )
        .unwrap(),
    );
    let wg = WarpGate::new(config());
    wg.attach_named(LAKE, Arc::new(CdwConnector::new(w, CdwConfig::free())));
    wg.index_warehouse().unwrap();
    wg.save_to_file(dir.join("snapshot.bin")).unwrap();
    wg.save_paged(dir.join("paged")).unwrap();
    Checkpointer::new(dir.join("checkpoint.bin")).checkpoint(&wg).unwrap();
}

#[test]
fn a_snapshot_load_fails_typed_when_the_name_table_is_full() {
    if let Some(dir) = std::env::var_os(CHILD_DIR) {
        write_snapshots(Path::new(&dir));
        return;
    }
    let dir = std::env::temp_dir().join(format!("wg_name_cap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let child = Command::new(std::env::current_exe().unwrap())
        .args([TEST, "--exact"])
        .env(CHILD_DIR, &dir)
        .output()
        .unwrap();
    assert!(child.status.success(), "child failed: {}", String::from_utf8_lossy(&child.stdout));

    // "default" holds id 0; 255 more names fill this process's table.
    for i in 1..names::MAX_NAMES {
        names::intern(&format!("name-cap-filler-{i}"));
    }
    assert_eq!(names::lookup(LAKE), None, "the snapshot's name is new to this process");

    let mut wg = WarpGate::new(config());
    let bytes = std::fs::read(dir.join("snapshot.bin")).unwrap();
    let outcomes = [
        ("load_from_file", wg.load_from_file(dir.join("snapshot.bin"))),
        ("load_bytes", wg.load_bytes(&bytes)),
        ("load_paged", wg.load_paged(dir.join("paged"))),
        ("recover", Checkpointer::new(dir.join("checkpoint.bin")).recover(&mut wg).map(|_| ())),
    ];
    for (path, outcome) in outcomes {
        match outcome {
            Err(StoreError::Schema(message)) => {
                assert!(message.contains(LAKE) && message.contains("table is full"), "{message}")
            }
            other => panic!("{path}: expected a typed full-table error, got {other:?}"),
        }
    }
    assert_eq!(wg.len(), 0, "nothing was installed");
    assert_eq!(names::lookup(LAKE), None);

    // A live attach keeps its documented panic.
    assert!(std::panic::catch_unwind(|| BackendId::named(LAKE)).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
