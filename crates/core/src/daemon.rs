//! Scheduled-sync daemon: the service loop that keeps a [`WarpGate`]
//! index fresh without anyone calling [`WarpGate::sync`] by hand.
//!
//! A [`SyncDaemon`] owns one background thread. Each tick syncs every
//! attached backend in turn, then runs the checkpoint policy:
//!
//! ```text
//! wait(interval | wake | stop) → for each attached backend: sync_with(Some(id))
//!                              → maybe checkpoint → wait …
//! stop → final checkpoint flush → exit
//! ```
//!
//! * **Failures are counted, not acted on.** A failed sync keeps the tables
//!   it finished (each whole, with its token), so the daemon counts it,
//!   keeps the error as [`DaemonReport::last_error`] prefixed with the
//!   backend's name, and the next tick re-scans only the rest. One failing
//!   backend never stops the others in the same tick.
//!   Retrying *within* a sync is the backend middleware's job
//!   (`wg_store::RetryBackend`); its retries and cost show in
//!   [`DaemonReport::cost`].
//! * **Observability** — the counters, cumulative scan costs, the last
//!   error and the last [`SyncReport`] are visible through
//!   [`SyncDaemon::report`] at any time.
//! * **Checkpointing** — with a [`CheckpointPolicy`] (set via
//!   [`SyncDaemonConfig::with_checkpoint`]) the daemon persists the system
//!   through a rotating [`crate::durability::Checkpointer`] after every N
//!   successful syncs, and flushes one final checkpoint on shutdown. A
//!   failed checkpoint (unwritable path, full disk) never panics the loop
//!   — it is counted in [`DaemonReport::checkpoint_failures`] and surfaces
//!   through [`DaemonReport::last_error`].
//! * **Clean shutdown** — [`SyncDaemon::shutdown`] (or dropping the
//!   daemon) wakes the loop immediately, joins the thread, and returns
//!   the final report. A sync in flight completes first; none is ever
//!   torn mid-run.

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wg_store::{BackendId, CostSnapshot};
use wg_util::Deadline;

use crate::durability::Checkpointer;
use crate::ingest::SyncReport;
use crate::system::WarpGate;

/// Periodic durable snapshots of the synced system (see
/// [`crate::durability::Checkpointer`] for the on-disk rotation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Newest-generation snapshot path; the previous generation rotates
    /// to `<path>.prev`.
    pub path: PathBuf,
    /// Checkpoint after this many successful syncs (0 counts as 1). Shutdown
    /// always flushes a final checkpoint if any sync succeeded since the
    /// last one.
    pub every_n_syncs: u32,
}

/// Tunables of a [`SyncDaemon`].
#[derive(Debug, Clone)]
pub struct SyncDaemonConfig {
    /// Time between sync ticks.
    pub interval: Duration,
    /// Durable snapshot policy; `None` (the default) never checkpoints.
    pub checkpoint: Option<CheckpointPolicy>,
}

impl Default for SyncDaemonConfig {
    fn default() -> Self {
        Self { interval: Duration::from_secs(30), checkpoint: None }
    }
}

impl SyncDaemonConfig {
    /// Same config with a different tick interval.
    pub fn with_interval(self, interval: Duration) -> Self {
        Self { interval, ..self }
    }

    /// Same config, checkpointing to `path` after every `every_n_syncs`
    /// successful syncs (0 counts as 1).
    pub fn with_checkpoint(self, path: impl Into<PathBuf>, every_n_syncs: u32) -> Self {
        let policy = CheckpointPolicy { path: path.into(), every_n_syncs };
        Self { checkpoint: Some(policy), ..self }
    }
}

/// Point-in-time view of everything the daemon has done. Cheap to clone;
/// obtained via [`SyncDaemon::report`]. A sync is one backend's sync in
/// one tick; the counters add up across backends.
#[derive(Debug, Clone, Default)]
pub struct DaemonReport {
    /// Scheduler wakeups processed (interval expiries + explicit wakes).
    pub ticks: u64,
    /// Syncs that completed successfully.
    pub syncs_ok: u64,
    /// Syncs that returned an error.
    pub syncs_failed: u64,
    /// Cumulative tables added across successful syncs.
    pub tables_added: u64,
    /// Cumulative tables re-indexed across successful syncs.
    pub tables_updated: u64,
    /// Cumulative tables dropped across successful syncs.
    pub tables_removed: u64,
    /// Cumulative columns (re-)indexed.
    pub columns_indexed: u64,
    /// Cumulative columns removed.
    pub columns_removed: u64,
    /// Cumulative scan costs of the daemon's successful syncs;
    /// `cost.retries` is the total retry count the backend middleware
    /// reported through them.
    pub cost: CostSnapshot,
    /// Checkpoints written successfully (periodic plus the shutdown flush).
    pub checkpoints_written: u64,
    /// Checkpoints that failed to write; the error is in `last_error`.
    pub checkpoint_failures: u64,
    /// The most recent error, if any ever occurred: a failed sync as
    /// `"<backend name>: <error>"`, or a failed checkpoint.
    pub last_error: Option<String>,
    /// The most recent successful sync's report.
    pub last_report: Option<SyncReport>,
}

struct Inner {
    stop: bool,
    wake: bool,
    /// Successful syncs since the last checkpoint (only tracked when a
    /// [`CheckpointPolicy`] is configured).
    syncs_since_checkpoint: u64,
    report: DaemonReport,
}

struct Shared {
    wg: Arc<WarpGate>,
    config: SyncDaemonConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
}

/// Handle to a running scheduled-sync loop. See the module docs.
pub struct SyncDaemon {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for SyncDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SyncDaemon").field("config", &self.shared.config).finish_non_exhaustive()
    }
}

impl SyncDaemon {
    /// Start the daemon over `wg`. The first sync runs one interval after
    /// spawn (call [`Self::wake`] for an immediate tick).
    pub fn spawn(wg: Arc<WarpGate>, config: SyncDaemonConfig) -> Self {
        let shared = Arc::new(Shared {
            wg,
            config,
            inner: Mutex::new(Inner {
                stop: false,
                wake: false,
                syncs_since_checkpoint: 0,
                report: DaemonReport::default(),
            }),
            cv: Condvar::new(),
        });
        let loop_shared = shared.clone();
        let handle = std::thread::Builder::new()
            .name("wg-sync-daemon".into())
            .spawn(move || run_loop(&loop_shared))
            .expect("spawn sync daemon thread");
        Self { shared, handle: Some(handle) }
    }

    /// Snapshot of the daemon's counters.
    pub fn report(&self) -> DaemonReport {
        self.shared.inner.lock().expect("daemon state lock").report.clone()
    }

    /// Trigger a tick now instead of waiting out the interval.
    pub fn wake(&self) {
        let mut inner = self.shared.inner.lock().expect("daemon state lock");
        inner.wake = true;
        drop(inner);
        self.shared.cv.notify_all();
    }

    /// Stop the loop, join the thread, and return the final report. A sync
    /// in flight completes before the daemon exits.
    pub fn shutdown(mut self) -> DaemonReport {
        self.stop_and_join();
        self.shared.inner.lock().expect("daemon state lock").report.clone()
    }

    fn stop_and_join(&mut self) {
        {
            let mut inner = self.shared.inner.lock().expect("daemon state lock");
            inner.stop = true;
        }
        self.shared.cv.notify_all();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for SyncDaemon {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn run_loop(shared: &Shared) {
    loop {
        // Sleep until the interval elapses, a wake is requested, or
        // shutdown begins. Predicate loop: condvars may wake spuriously,
        // and an early wakeup must re-wait the *remaining* interval
        // rather than tick off-schedule.
        {
            let mut inner = shared.inner.lock().expect("daemon state lock");
            let deadline = std::time::Instant::now() + shared.config.interval;
            while !inner.stop && !inner.wake {
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let (guard, _) =
                    shared.cv.wait_timeout(inner, remaining).expect("daemon state lock");
                inner = guard;
            }
            if inner.stop {
                // Final flush: the index the daemon maintained must not
                // die with the process if anything changed since the last
                // checkpoint. Runs on the daemon thread so `Drop` only
                // ever joins — an unwritable path is recorded, not thrown.
                drop(inner);
                maybe_checkpoint(shared, true);
                return;
            }
            inner.wake = false;
            inner.report.ticks += 1;
        }
        tick(shared);
        maybe_checkpoint(shared, false);
    }
}

/// Write a checkpoint if the policy says so: every `every_n_syncs`
/// successful syncs, or on shutdown (`force`) whenever any sync succeeded
/// since the last one. The snapshot is taken without holding the state
/// lock, so `report()`/`wake()` stay responsive during large writes.
fn maybe_checkpoint(shared: &Shared, force: bool) {
    let Some(policy) = &shared.config.checkpoint else { return };
    {
        let inner = shared.inner.lock().expect("daemon state lock");
        let due = if force {
            inner.syncs_since_checkpoint > 0
        } else {
            inner.syncs_since_checkpoint >= u64::from(policy.every_n_syncs.max(1))
        };
        if !due {
            return;
        }
    }
    let result = Checkpointer::new(&policy.path).checkpoint(&shared.wg);
    let mut inner = shared.inner.lock().expect("daemon state lock");
    match result {
        Ok(()) => {
            inner.syncs_since_checkpoint = 0;
            inner.report.checkpoints_written += 1;
        }
        Err(e) => {
            inner.report.checkpoint_failures += 1;
            inner.report.last_error = Some(format!("checkpoint to {:?}: {e}", policy.path));
        }
    }
}

/// One scheduler tick: sync every attached backend in turn. Each sync
/// runs without holding the daemon's lock, so `report()` and `wake()`
/// stay responsive mid-sync.
fn tick(shared: &Shared) {
    let mut targets = shared.wg.attached_backends();
    if targets.is_empty() {
        // Nothing attached: still attempt the default namespace so the
        // failure (and its error message) surfaces in the report.
        targets.push(BackendId::DEFAULT);
    }
    for id in targets {
        let outcome = shared.wg.sync_with(Some(id), Deadline::none());
        let mut guard = shared.inner.lock().expect("daemon state lock");
        let inner = &mut *guard;
        let report = &mut inner.report;
        match outcome {
            Ok(sync) => {
                inner.syncs_since_checkpoint += 1;
                report.syncs_ok += 1;
                report.tables_added += sync.tables_added as u64;
                report.tables_updated += sync.tables_updated as u64;
                report.tables_removed += sync.tables_removed as u64;
                report.columns_indexed += sync.columns_indexed as u64;
                report.columns_removed += sync.columns_removed as u64;
                report.cost = report.cost.plus(&sync.cost);
                report.last_report = Some(sync);
            }
            Err(e) => {
                report.syncs_failed += 1;
                report.last_error = Some(format!("{}: {e}", id.name()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WarpGateConfig;
    use std::time::Instant;
    use wg_store::{
        BackendHandle, CdwConfig, CdwConnector, Column, Database, FaultInjector, FaultPlan, Table,
        Warehouse,
    };

    fn connector() -> std::sync::Arc<CdwConnector> {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "t",
                vec![Column::text("c", (0..30).map(|i| format!("v{i}")).collect::<Vec<_>>())],
            )
            .unwrap(),
        );
        w.add_database(db);
        std::sync::Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    fn fast_config() -> SyncDaemonConfig {
        SyncDaemonConfig { interval: Duration::from_millis(2), checkpoint: None }
    }

    /// Poll `report()` until `pred` holds or a generous deadline passes.
    fn wait_for(daemon: &SyncDaemon, pred: impl Fn(&DaemonReport) -> bool) -> DaemonReport {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let r = daemon.report();
            if pred(&r) {
                return r;
            }
            assert!(Instant::now() < deadline, "daemon never reached state: {r:?}");
            daemon.wake();
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn daemon_syncs_periodically_and_shuts_down_cleanly() {
        let c = connector();
        let backend: BackendHandle = c.clone();
        let wg = Arc::new(WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() },
            backend,
        ));
        let daemon = SyncDaemon::spawn(wg.clone(), fast_config());
        let r = wait_for(&daemon, |r| r.syncs_ok >= 2);
        assert_eq!(r.syncs_failed, 0);
        // First sync indexed the whole warehouse; later ones were no-ops.
        assert_eq!(r.tables_added, 1);
        assert_eq!(wg.len(), 1);
        let fin = daemon.shutdown();
        assert!(fin.syncs_ok >= r.syncs_ok);
        // After shutdown the thread is gone; the report is final.
    }

    #[test]
    fn a_zero_checkpoint_policy_never_checkpoints_failed_syncs() {
        let flaky: BackendHandle =
            Arc::new(FaultInjector::new(connector(), FaultPlan::fail_every(1)));
        let wg = Arc::new(WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() },
            flaky,
        ));
        let dir =
            std::env::temp_dir().join(format!("wg_daemon_zero_policy_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snapshot.bin");
        let config = SyncDaemonConfig {
            checkpoint: Some(CheckpointPolicy { path: path.clone(), every_n_syncs: 0 }),
            ..fast_config()
        };
        let daemon = SyncDaemon::spawn(wg, config);
        let r = wait_for(&daemon, |r| r.syncs_failed >= 3);
        assert_eq!(r.syncs_ok, 0);
        let r = daemon.shutdown();
        assert_eq!(r.checkpoints_written, 0, "no sync succeeded, so nothing is due: {r:?}");
        assert_eq!(r.checkpoint_failures, 0, "{r:?}");
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wake_triggers_an_immediate_tick() {
        let c = connector();
        let backend: BackendHandle = c;
        let wg = Arc::new(WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() },
            backend,
        ));
        // An hour-long interval: only wake() can drive ticks.
        let daemon = SyncDaemon::spawn(
            wg,
            SyncDaemonConfig::default().with_interval(Duration::from_secs(3600)),
        );
        assert_eq!(daemon.report().ticks, 0);
        daemon.wake();
        let r = wait_for(&daemon, |r| r.syncs_ok >= 1);
        assert!(r.ticks >= 1);
        let report = daemon.shutdown();
        assert_eq!(report.syncs_failed, 0);
    }

    #[test]
    fn one_dead_backend_does_not_stop_the_others() {
        let c = connector();
        let healthy: BackendHandle = c.clone();
        let dead: BackendHandle =
            Arc::new(FaultInjector::new(connector(), FaultPlan::fail_every(1)));
        let wg = Arc::new(WarpGate::new(WarpGateConfig { threads: 1, ..Default::default() }));
        wg.attach_named("daemon-test-good", healthy);
        wg.attach_named("daemon-test-dead", dead);
        let daemon = SyncDaemon::spawn(wg.clone(), fast_config());

        // Every tick syncs both: the dead warehouse fails each time, the
        // healthy one keeps syncing right through it.
        let r = wait_for(&daemon, |r| r.syncs_ok >= 2 && r.syncs_failed >= 2);
        assert!(r.ticks >= 2);
        let err = r.last_error.as_deref().unwrap_or("");
        assert!(err.starts_with("daemon-test-dead: "), "the failing backend is named: {err}");
        assert!(err.contains("injected fault"), "{err}");
        assert_eq!(wg.len(), 1, "the healthy warehouse's column is indexed");
        daemon.shutdown();
    }
}
