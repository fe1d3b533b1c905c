//! Concurrency stress tests for the hot path — a system's namespaces,
//! registry and index behind one reader–writer lock: reader threads mixing
//! `discover`, `joinability` and checkpoints beside
//! writer threads that each drop, restore or add warehouse tables of their
//! own and `sync` after each change (so their syncs contend, and one may
//! pick up another writer's change), or that detach and re-attach
//! backends. The invariants under test:
//!
//! * **no lost inserts** — after the churn settles and every table is
//!   synced back in, the index holds exactly one entry per warehouse
//!   column, and one more sync has nothing to do;
//! * **no stale candidates** — once a dropped table is synced out (and the
//!   churn has stopped), it never comes back in results, and re-indexed
//!   content is discovered under its new embedding (the cache must not
//!   serve stale vectors);
//! * **attach / detach are atomic with the epoch** — a checkpoint sealed
//!   while backends come and go always loads, and a sync afterwards ranks
//!   like a fresh build;
//! * **no deadlocks/panics** — the mixed workload completes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use warpgate::prelude::*;

/// A warehouse with a stable core (queried throughout) plus dedicated
/// churn tables that writer threads refresh and drop concurrently.
fn churn_warehouse(churn_tables: usize) -> Warehouse {
    let mut w = Warehouse::new("stress");
    w.database_mut("core").add_table(
        Table::new(
            "accounts",
            vec![
                Column::text("name", (0..60).map(|i| format!("Company {i}")).collect::<Vec<_>>()),
                Column::ints("employees", (0..60).map(|i| i * 3).collect()),
            ],
        )
        .unwrap(),
    );
    w.database_mut("core").add_table(
        Table::new(
            "industries",
            vec![Column::text(
                "company_name",
                (0..50).map(|i| format!("COMPANY {i}")).collect::<Vec<_>>(),
            )],
        )
        .unwrap(),
    );
    for t in 0..churn_tables {
        w.database_mut("churn").add_table(
            Table::new(
                format!("t{t}"),
                vec![Column::text(
                    "company",
                    (0..40).map(|i| format!("company {i} v{t}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
    }
    w
}

/// `sync()` until one succeeds: a table another writer drops between a
/// sync's listing and its scan fails that sync with `NotFound`, and the
/// next one finds it gone.
fn sync_through_churn(wg: &WarpGate) -> SyncReport {
    loop {
        match wg.sync() {
            Ok(report) => return report,
            Err(StoreError::NotFound(_)) => continue,
            Err(e) => panic!("sync failed: {e}"),
        }
    }
}

#[test]
fn mixed_discover_index_remove_stress() {
    const CHURN_TABLES: usize = 3;
    const ROUNDS: usize = 8;
    const READER_THREADS: usize = 4;

    let connector = std::sync::Arc::new(CdwConnector::with_defaults(churn_warehouse(CHURN_TABLES)));
    let wg = WarpGate::with_backend(
        WarpGateConfig { threads: 2, ..Default::default() },
        connector.clone(),
    );
    wg.index_warehouse().unwrap();
    let total_columns = connector.warehouse().iter_columns().count();
    assert_eq!(wg.len(), total_columns);

    let query = ColumnRef::new("core", "accounts", "name");
    std::thread::scope(|scope| {
        // Readers: discover + joinability against the stable core.
        for r in 0..READER_THREADS {
            let wg = &wg;
            let query = &query;
            scope.spawn(move || {
                let other = ColumnRef::new("core", "industries", "company_name");
                for i in 0..ROUNDS * 4 {
                    let d = wg.discover(query, 5).unwrap();
                    // The stable cross-database variant must always be
                    // present no matter what the writers are doing.
                    assert!(
                        d.candidates.iter().any(|c| c.reference == other),
                        "reader {r} lost the stable candidate at iteration {i}: {:?}",
                        d.candidates
                    );
                    if i % 3 == 0 {
                        let j = wg.joinability(query, &other, &QueryOptions::default()).unwrap();
                        assert!(j > 0.8, "joinability collapsed to {j}");
                    }
                    if i % 5 == 0 {
                        for q in [query, &other] {
                            wg.discover(q, 3).unwrap();
                        }
                    }
                }
            });
        }
        // Writers: each owns one churn table and, round after round, drops
        // it from the warehouse and syncs it out, then restores it and syncs
        // it back in (the CDW-with-high-update-rate pattern).
        for t in 0..CHURN_TABLES {
            let (wg, connector) = (&wg, &connector);
            scope.spawn(move || {
                let table = format!("t{t}");
                for _ in 0..ROUNDS {
                    let dropped =
                        connector.warehouse_mut().database_mut("churn").remove_table(&table);
                    sync_through_churn(wg);
                    connector.warehouse_mut().database_mut("churn").add_table(dropped.unwrap());
                    sync_through_churn(wg);
                }
            });
        }
    });

    // No lost inserts: every writer's last sync ran after it restored its
    // table, so the index must hold exactly one live entry per warehouse
    // column, and the tokens must say so.
    assert_eq!(wg.len(), total_columns, "inserts lost or duplicated under churn");
    let after = wg.sync().unwrap();
    assert!(after.is_noop(), "the churn left work behind: {after:?}");

    // Steady state answers are exact.
    let d = wg.discover(&query, 10).unwrap();
    assert!(d
        .candidates
        .iter()
        .any(|c| c.reference == ColumnRef::new("core", "industries", "company_name")));
}

#[test]
fn removed_tables_never_resurface() {
    let connector = std::sync::Arc::new(CdwConnector::with_defaults(churn_warehouse(4)));
    let wg = WarpGate::with_backend(WarpGateConfig::default(), connector.clone());
    wg.index_warehouse().unwrap();
    let query = ColumnRef::new("core", "accounts", "name");

    let removed = std::thread::scope(|scope| {
        for _ in 0..2 {
            let wg = &wg;
            let query = &query;
            scope.spawn(move || {
                for _ in 0..10 {
                    wg.discover(query, 10).unwrap();
                }
            });
        }
        // Writers: each drops its own churn table and syncs, while the
        // readers query.
        (0..4)
            .map(|t| {
                let (wg, connector) = (&wg, &connector);
                scope.spawn(move || {
                    connector.warehouse_mut().database_mut("churn").remove_table(&format!("t{t}"));
                    wg.sync().unwrap().columns_removed
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|writer| writer.join().unwrap())
            .sum::<usize>()
    });
    // Whichever sync found a table gone removed it, and no other did.
    assert_eq!(removed, 4, "each dropped column is removed exactly once");

    // After every removal has completed, no stale candidate may survive —
    // neither from the index nor via a stale cached query embedding.
    for _ in 0..2 {
        let d = wg.discover(&query, 10).unwrap();
        assert!(
            d.candidates.iter().all(|c| c.reference.database != "churn"),
            "removed table resurfaced: {:?}",
            d.candidates
        );
    }
    assert_eq!(wg.len(), connector.warehouse().iter_columns().count());
}

#[test]
fn concurrent_batch_indexing_loses_nothing() {
    // Many small tables synced in from parallel writers while readers
    // query the ones already in: the per-table installs must neither
    // drop nor double-count columns.
    const WRITERS: usize = 3;
    let table = |t: usize| {
        Table::new(
            format!("t{t}"),
            vec![
                Column::text("a", (0..20).map(|i| format!("value {t} {i}")).collect::<Vec<_>>()),
                Column::ints("b", (0..20).map(|i| i + t as i64).collect()),
            ],
        )
        .unwrap()
    };
    let mut w = Warehouse::new("fanout");
    w.database_mut("db").add_table(table(0));
    let connector = std::sync::Arc::new(CdwConnector::with_defaults(w));
    let wg = WarpGate::with_backend(
        WarpGateConfig { threads: 2, ..Default::default() },
        connector.clone(),
    );
    wg.index_warehouse().unwrap();
    let done = AtomicBool::new(false);
    let indexed = std::thread::scope(|scope| {
        for _ in 0..2 {
            let (wg, done) = (&wg, &done);
            scope.spawn(move || {
                let queries = [ColumnRef::new("db", "t0", "a"), ColumnRef::new("db", "t0", "b")];
                while !done.load(Ordering::SeqCst) {
                    for q in &queries {
                        wg.discover(q, 5).unwrap();
                    }
                }
            });
        }
        // Writer `w` adds tables `t` with `t % WRITERS == w`, syncing after
        // each.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (wg, connector) = (&wg, &connector);
                scope.spawn(move || {
                    let mut indexed = 0;
                    for t in (1..12).filter(|t| t % WRITERS == w) {
                        connector.warehouse_mut().database_mut("db").add_table(table(t));
                        indexed += wg.sync().unwrap().columns_indexed;
                    }
                    indexed
                })
            })
            .collect();
        let indexed = writers.into_iter().map(|w| w.join().unwrap()).sum::<usize>();
        done.store(true, Ordering::SeqCst);
        indexed
    });
    assert_eq!(indexed, 22, "each added column is indexed by exactly one sync");
    assert_eq!(wg.len(), 24, "12 tables × 2 columns must all be indexed exactly once");
    assert!(wg.sync().unwrap().is_noop());
}

/// Per-query timing reports what *that query's* scan was charged, not a
/// window of the shared meter: with cold discovers racing on one
/// connector, the per-query virtual load sums to exactly the connector's
/// total, and nobody inherits a neighbour's charges.
#[test]
fn concurrent_cold_discovers_each_report_only_their_own_scan() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 50;

    let connector =
        std::sync::Arc::new(CdwConnector::new(churn_warehouse(0), CdwConfig::default()));
    let wg =
        WarpGate::with_backend(WarpGateConfig::default().with_cache_capacity(0), connector.clone());
    wg.index_warehouse().expect("index");
    connector.reset_costs();

    let queries = [
        ColumnRef::new("core", "accounts", "name"),
        ColumnRef::new("core", "accounts", "employees"),
        ColumnRef::new("core", "industries", "company_name"),
    ];
    let start = std::sync::Barrier::new(THREADS);
    let timings: Vec<QueryTiming> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let (wg, queries, start) = (&wg, &queries, &start);
                scope.spawn(move || {
                    start.wait();
                    (0..PER_THREAD)
                        .map(|i| {
                            let q = &queries[(t + i) % queries.len()];
                            wg.discover(q, 3).expect("cold discover").timing
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("no panics")).collect()
    });

    assert_eq!(timings.len(), THREADS * PER_THREAD);
    assert!(timings.iter().all(|t| !t.cache_hit && t.retries == 0));
    let total = connector.costs();
    assert_eq!(total.requests as usize, THREADS * PER_THREAD, "one billed scan per cold discover");
    let summed: f64 = timings.iter().map(|t| t.virtual_load_secs).sum();
    assert!(
        (summed - total.virtual_secs).abs() < 1e-9,
        "per-query virtual load {summed} must add up to the meter's {}",
        total.virtual_secs
    );
}

/// A data lake of three one-column tables of company-name variants.
fn lake_warehouse() -> Warehouse {
    let mut w = Warehouse::new("lake");
    for t in 0..3 {
        w.database_mut("raw").add_table(
            Table::new(
                format!("dump{t}"),
                vec![Column::text(
                    "company",
                    (0..40).map(|i| format!("COMPANY {i} v{t}")).collect::<Vec<_>>(),
                )],
            )
            .unwrap(),
        );
    }
    w
}

#[test]
fn attach_detach_racing_discover_and_checkpoint() {
    const ROUNDS: usize = 12;
    let config = WarpGateConfig { threads: 1, ..Default::default() };
    let hot: BackendHandle = Arc::new(CdwConnector::with_defaults(churn_warehouse(2)));
    let lake: BackendHandle = Arc::new(CdwConnector::with_defaults(lake_warehouse()));
    let (hot_name, paged_name) = ("concurrency-hot", "concurrency-paged");

    // The lake's rows are attached lazily from a sealed segment; the hot
    // namespace's are indexed into RAM.
    let dir = std::env::temp_dir().join(format!("wg_concurrency_attach_{}", std::process::id()));
    let sealer = WarpGate::new(config);
    sealer.attach_named(paged_name, lake.clone());
    sealer.index_warehouse().unwrap();
    sealer.save_paged(&dir).unwrap();
    let mut wg = WarpGate::new(config);
    wg.attach_named(paged_name, lake.clone());
    wg.load_paged(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    wg.attach_named(hot_name, hot.clone());
    wg.sync().unwrap();
    assert!(wg.cold_len() > 0 && wg.cold_len() < wg.len(), "one paged, one hot namespace");
    let wg = wg;

    let queries = [
        ColumnRef::scoped(BackendId::named(hot_name), "core", "accounts", "name"),
        ColumnRef::scoped(BackendId::named(paged_name), "raw", "dump0", "company"),
    ];
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let (wg, queries, done) = (&wg, &queries, &done);
            scope.spawn(move || {
                let mut rounds = 0;
                while rounds < 3 || !done.load(Ordering::SeqCst) {
                    for q in queries {
                        // A detached namespace refuses its own queries, typed.
                        match wg.discover(q, 5) {
                            Ok(_) | Err(StoreError::Backend(_)) => {}
                            Err(e) => panic!("{q}: {e}"),
                        }
                    }
                    wg.discover_values(&["COMPANY 1", "COMPANY 2"], 5, &DiscoverScope::All)
                        .expect("value lookup");
                    let image = wg.to_bytes();
                    let mut restored = WarpGate::new(config);
                    restored.load_bytes(&image).expect("every checkpoint loads");
                    rounds += 1;
                }
            });
        }
        let (wg, done) = (&wg, &done);
        scope.spawn(move || {
            for _ in 0..ROUNDS {
                for name in [paged_name, hot_name] {
                    let handle = wg.detach_named(name).expect("attached");
                    std::thread::yield_now();
                    wg.attach_named(name, handle);
                }
            }
            done.store(true, Ordering::SeqCst);
        });
    });

    // The detaches dropped the lake's paged rows; a sync re-scans both
    // namespaces (their epochs moved) and must rank like a fresh build.
    wg.sync().unwrap();
    let fresh = WarpGate::new(config);
    fresh.attach_named(paged_name, lake.clone());
    fresh.attach_named(hot_name, hot.clone());
    fresh.index_warehouse().unwrap();
    assert_eq!((wg.len(), wg.cold_len()), (fresh.len(), 0));
    for (name, backend) in [(paged_name, &lake), (hot_name, &hot)] {
        for meta in backend.list_tables().unwrap() {
            for q in meta.scoped_column_refs(BackendId::named(name)) {
                let got = wg.discover(&q, 10).unwrap().candidates;
                assert_eq!(got, fresh.discover(&q, 10).unwrap().candidates, "{q}");
            }
        }
    }
}
