//! Scheduled-sync daemon: the service loop that keeps a [`WarpGate`]
//! index fresh without anyone calling [`WarpGate::sync`] by hand.
//!
//! A [`SyncDaemon`] owns one background thread that periodically
//! reconciles the system against its attached backends. Around the bare
//! per-backend sync call it adds what a production refresh loop needs:
//!
//! * **Retry-aware error handling** — a failed sync records nothing (the
//!   system's token-commit discipline guarantees that), so the daemon
//!   simply counts the failure and lets the next tick retry the same
//!   change set. Transient-failure *retrying within* a single sync is the
//!   backend middleware's job (`wg_store::RetryBackend`); the daemon
//!   handles the case where a whole sync still failed.
//! * **Per-backend circuit breaking** — each attached backend gets its own
//!   breaker: after [`SyncDaemonConfig::failure_threshold`] consecutive
//!   failures *of that backend* its circuit opens and its syncs are
//!   skipped for [`SyncDaemonConfig::open_intervals`] ticks (no pointless
//!   load on a down warehouse), then one half-open probe runs. A dead data
//!   lake never stops the CDW's refresh loop. Every tick reconciles every
//!   attached backend. The aggregate [`DaemonReport::circuit`] is the worst
//!   state across breakers; [`DaemonReport::backends`] carries each one.
//! * **Observability** — every counter, the circuit states, cumulative
//!   scan costs and retry counts, the last error, and the last
//!   [`SyncReport`] are visible through [`SyncDaemon::report`] at any
//!   time.
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
//!
//! The per-breaker state machine (see DESIGN.md §7):
//!
//! ```text
//!          sync ok                       sync failed, consecutive < threshold
//!        ┌─────────┐                     ┌─────────┐
//!        ▼         │                     ▼         │
//!      CLOSED ─────┴──── failures ≥ threshold ──▶ OPEN ◀────────┐
//!        ▲                                         │ cooldown   │ probe
//!        │                                         ▼ elapsed    │ failed
//!        └────────────── probe ok ──────────── HALF-OPEN ───────┘
//! ```

use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use wg_store::{BackendId, CostSnapshot};
use wg_util::FxHashMap;

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
    /// Checkpoint after this many successful syncs (minimum 1). Shutdown
    /// always flushes a final checkpoint if any sync succeeded since the
    /// last one.
    pub every_n_syncs: u32,
}

/// Tunables of a [`SyncDaemon`].
#[derive(Debug, Clone)]
pub struct SyncDaemonConfig {
    /// Time between sync ticks.
    pub interval: Duration,
    /// Consecutive failures of one backend that open its circuit.
    pub failure_threshold: u32,
    /// Ticks a backend's circuit stays open before a half-open probe.
    pub open_intervals: u32,
    /// Durable snapshot policy; `None` (the default) never checkpoints.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Per-sync time budget; `None` (the default) lets a sync run as long
    /// as it takes. With a budget, each backend sync runs under a
    /// cooperative [`wg_util::Deadline`]: expiry stops it *between* column
    /// scans (zero further scans billed, nothing recorded — the next tick
    /// retries the same change set), fails the sync with
    /// `DeadlineExceeded`, and counts in
    /// [`DaemonReport::deadline_exceeded`]. A slow warehouse can then
    /// never pin the refresh loop past its interval; the breaker treats
    /// the timeout as an ordinary failure.
    pub tick_deadline: Option<Duration>,
}

impl Default for SyncDaemonConfig {
    fn default() -> Self {
        Self {
            interval: Duration::from_secs(30),
            failure_threshold: 3,
            open_intervals: 4,
            checkpoint: None,
            tick_deadline: None,
        }
    }
}

impl SyncDaemonConfig {
    /// Same config with a different tick interval.
    pub fn with_interval(self, interval: Duration) -> Self {
        Self { interval, ..self }
    }

    /// Same config, checkpointing to `path` after every `every_n_syncs`
    /// successful syncs (clamped to at least 1).
    pub fn with_checkpoint(self, path: impl Into<PathBuf>, every_n_syncs: u32) -> Self {
        let policy = CheckpointPolicy { path: path.into(), every_n_syncs: every_n_syncs.max(1) };
        Self { checkpoint: Some(policy), ..self }
    }

    /// Same config with a per-sync time budget (see
    /// [`Self::tick_deadline`]).
    pub fn with_tick_deadline(self, budget: Duration) -> Self {
        Self { tick_deadline: Some(budget), ..self }
    }
}

/// Circuit-breaker state of one backend's sync loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CircuitState {
    /// Healthy: every scheduled tick syncs.
    #[default]
    Closed,
    /// Tripped: ticks skip this backend until the cooldown elapses.
    Open,
    /// Cooldown over: the next scheduled tick runs a single probe sync.
    HalfOpen,
}

impl CircuitState {
    /// Severity order for the aggregate report (Open > HalfOpen > Closed).
    fn severity(self) -> u8 {
        match self {
            CircuitState::Closed => 0,
            CircuitState::HalfOpen => 1,
            CircuitState::Open => 2,
        }
    }
}

/// One backend's breaker: its circuit state plus the per-backend slice of
/// the daemon's counters. Exposed through [`DaemonReport::backends`].
#[derive(Debug, Clone, PartialEq)]
pub struct BackendCircuit {
    /// The backend namespace this breaker guards.
    pub backend: BackendId,
    /// Current circuit state.
    pub circuit: CircuitState,
    /// Current run of back-to-back failures (resets on success).
    pub consecutive_failures: u32,
    /// This backend's successful syncs.
    pub syncs_ok: u64,
    /// This backend's failed syncs.
    pub syncs_failed: u64,
    /// Scheduled attempts skipped because this circuit was open.
    pub skipped_while_open: u64,
    /// Transitions *into* Open (initial trips plus failed probes).
    pub circuit_opened: u64,
    /// Half-open probes that succeeded and closed the circuit.
    pub circuit_closed: u64,
    /// Message of this backend's most recent sync error, if any.
    pub last_error: Option<String>,
}

impl BackendCircuit {
    fn new(backend: BackendId) -> Self {
        Self {
            backend,
            circuit: CircuitState::Closed,
            consecutive_failures: 0,
            syncs_ok: 0,
            syncs_failed: 0,
            skipped_while_open: 0,
            circuit_opened: 0,
            circuit_closed: 0,
            last_error: None,
        }
    }
}

/// Point-in-time view of everything the daemon has done. Cheap to clone;
/// obtained via [`SyncDaemon::report`]. Counters aggregate across
/// backends; [`Self::backends`] carries the per-backend slices.
#[derive(Debug, Clone, Default)]
pub struct DaemonReport {
    /// Scheduler wakeups processed (interval expiries + explicit wakes).
    pub ticks: u64,
    /// Syncs actually started (scheduled attempts minus circuit-open skips).
    pub syncs_attempted: u64,
    /// Syncs that completed successfully.
    pub syncs_ok: u64,
    /// Syncs that returned an error.
    pub syncs_failed: u64,
    /// Scheduled attempts skipped because the backend's circuit was open.
    pub skipped_while_open: u64,
    /// Worst current failure run across backends (resets on success).
    pub consecutive_failures: u32,
    /// Worst current circuit state across backends: Open if any backend's
    /// breaker is open, HalfOpen if any is probing, Closed otherwise.
    pub circuit: CircuitState,
    /// Transitions *into* Open across all breakers: initial Closed → Open
    /// trips plus failed half-open probes that re-open (a backend that
    /// stays down keeps incrementing this once per probe cycle).
    pub circuit_opened: u64,
    /// Half-open probes that succeeded and closed a circuit.
    pub circuit_closed: u64,
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
    /// Cumulative scan costs of the daemon's syncs; `cost.retries` is the
    /// total retry count the backend middleware reported through them.
    pub cost: CostSnapshot,
    /// Checkpoints written successfully (periodic plus the shutdown flush).
    pub checkpoints_written: u64,
    /// Checkpoints that failed to write; the error is in `last_error`.
    pub checkpoint_failures: u64,
    /// Syncs that ran out of their [`SyncDaemonConfig::tick_deadline`]
    /// budget (a subset of `syncs_failed`; always 0 without a budget).
    pub deadline_exceeded: u64,
    /// Message of the most recent sync error, if any ever occurred.
    pub last_error: Option<String>,
    /// The most recent successful sync's report.
    pub last_report: Option<SyncReport>,
    /// Per-backend breaker states and counters, in [`BackendId`] order.
    pub backends: Vec<BackendCircuit>,
}

impl DaemonReport {
    /// True when the daemon has observed its backends at least once and
    /// every breaker is currently healthy.
    pub fn is_healthy(&self) -> bool {
        self.circuit == CircuitState::Closed && self.syncs_ok > 0
    }
}

struct Breaker {
    stats: BackendCircuit,
    /// Ticks left before this open circuit half-opens.
    cooldown_remaining: u32,
}

impl Breaker {
    fn new(backend: BackendId) -> Self {
        Self { stats: BackendCircuit::new(backend), cooldown_remaining: 0 }
    }
}

struct Inner {
    stop: bool,
    wake: bool,
    /// Successful syncs since the last checkpoint (only tracked when a
    /// [`CheckpointPolicy`] is configured).
    syncs_since_checkpoint: u64,
    breakers: FxHashMap<BackendId, Breaker>,
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
        assert!(config.failure_threshold >= 1, "failure_threshold must be at least 1");
        let shared = Arc::new(Shared {
            wg,
            config,
            inner: Mutex::new(Inner {
                stop: false,
                wake: false,
                syncs_since_checkpoint: 0,
                breakers: FxHashMap::default(),
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

    /// Snapshot of the daemon's counters and circuit states.
    pub fn report(&self) -> DaemonReport {
        self.shared.inner.lock().expect("daemon state lock").report.clone()
    }

    /// Trigger a tick now instead of waiting out the interval. (The tick
    /// still honors the circuit breakers.)
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
        self.cv_notify();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }

    fn cv_notify(&self) {
        self.shared.cv.notify_all();
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
            inner.syncs_since_checkpoint >= u64::from(policy.every_n_syncs)
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

/// One scheduler tick: for every attached backend, advance its circuit
/// breaker and run its sync unless the circuit is open. Each sync runs
/// without holding the daemon's lock, so `report()` and `wake()` stay
/// responsive mid-sync.
fn tick(shared: &Shared) {
    let mut targets = shared.wg.attached_backends();
    if targets.is_empty() {
        // Nothing attached: still attempt the default namespace so the
        // failure (and its error message) surfaces in the report, as the
        // single-backend daemon always did.
        targets.push(BackendId::DEFAULT);
    }

    for id in targets {
        let attempt = {
            let mut guard = shared.inner.lock().expect("daemon state lock");
            let inner = &mut *guard;
            let breaker = inner.breakers.entry(id).or_insert_with(|| Breaker::new(id));
            match breaker.stats.circuit {
                CircuitState::Closed | CircuitState::HalfOpen => true,
                CircuitState::Open => {
                    breaker.stats.skipped_while_open += 1;
                    inner.report.skipped_while_open += 1;
                    breaker.cooldown_remaining = breaker.cooldown_remaining.saturating_sub(1);
                    if breaker.cooldown_remaining == 0 {
                        breaker.stats.circuit = CircuitState::HalfOpen;
                    }
                    false
                }
            }
        };
        if !attempt {
            continue;
        }

        let deadline = shared
            .config
            .tick_deadline
            .map_or(wg_util::Deadline::none(), wg_util::Deadline::within);
        let outcome = shared.wg.sync_with(Some(id), deadline);

        let mut guard = shared.inner.lock().expect("daemon state lock");
        let inner = &mut *guard;
        let breaker = inner.breakers.get_mut(&id).expect("breaker installed before attempt");
        let report = &mut inner.report;
        report.syncs_attempted += 1;
        match outcome {
            Ok(sync) => {
                inner.syncs_since_checkpoint += 1;
                report.syncs_ok += 1;
                breaker.stats.syncs_ok += 1;
                breaker.stats.consecutive_failures = 0;
                if breaker.stats.circuit == CircuitState::HalfOpen {
                    breaker.stats.circuit = CircuitState::Closed;
                    breaker.stats.circuit_closed += 1;
                    report.circuit_closed += 1;
                }
                report.tables_added += sync.tables_added as u64;
                report.tables_updated += sync.tables_updated as u64;
                report.tables_removed += sync.tables_removed as u64;
                report.columns_indexed += sync.columns_indexed as u64;
                report.columns_removed += sync.columns_removed as u64;
                report.cost = report.cost.plus(&sync.cost);
                report.last_report = Some(sync);
            }
            Err(e) => {
                if matches!(e, wg_store::StoreError::DeadlineExceeded { .. }) {
                    report.deadline_exceeded += 1;
                }
                let message = e.to_string();
                report.syncs_failed += 1;
                breaker.stats.syncs_failed += 1;
                breaker.stats.consecutive_failures += 1;
                breaker.stats.last_error = Some(message.clone());
                report.last_error = Some(message);
                let trip = match breaker.stats.circuit {
                    // A failed half-open probe re-opens immediately.
                    CircuitState::HalfOpen => true,
                    CircuitState::Closed => {
                        breaker.stats.consecutive_failures >= shared.config.failure_threshold
                    }
                    CircuitState::Open => false,
                };
                if trip {
                    breaker.stats.circuit = CircuitState::Open;
                    breaker.stats.circuit_opened += 1;
                    report.circuit_opened += 1;
                    breaker.cooldown_remaining = shared.config.open_intervals;
                }
            }
        }
    }

    // Refresh the aggregate view: worst circuit, worst failure run, and
    // the per-backend slices in id order.
    let mut guard = shared.inner.lock().expect("daemon state lock");
    let inner = &mut *guard;
    let mut backends: Vec<BackendCircuit> =
        inner.breakers.values().map(|b| b.stats.clone()).collect();
    backends.sort_by_key(|b| b.backend.bits());
    inner.report.circuit = backends
        .iter()
        .map(|b| b.circuit)
        .max_by_key(|c| c.severity())
        .unwrap_or(CircuitState::Closed);
    inner.report.consecutive_failures =
        backends.iter().map(|b| b.consecutive_failures).max().unwrap_or(0);
    inner.report.backends = backends;
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
        SyncDaemonConfig {
            interval: Duration::from_millis(2),
            failure_threshold: 2,
            open_intervals: 2,
            checkpoint: None,
            tick_deadline: None,
        }
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
        assert!(r.is_healthy());
        // First sync indexed the whole warehouse; later ones were no-ops.
        assert_eq!(r.tables_added, 1);
        assert_eq!(wg.len(), 1);
        let fin = daemon.shutdown();
        assert!(fin.syncs_ok >= r.syncs_ok);
        // After shutdown the thread is gone; the report is final.
    }

    #[test]
    fn circuit_opens_after_threshold_and_recovers() {
        let c = connector();
        let healthy: BackendHandle = c.clone();
        let flaky: BackendHandle =
            Arc::new(FaultInjector::new(healthy.clone(), FaultPlan::fail_every(1)));
        // Nothing indexed yet, so every sync must scan — and every scan
        // fails: consecutive failures mount until the circuit opens.
        let wg = Arc::new(WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() },
            flaky,
        ));
        let daemon = SyncDaemon::spawn(wg.clone(), fast_config());

        let r = wait_for(&daemon, |r| r.circuit == CircuitState::Open);
        assert!(r.syncs_failed >= 2, "threshold is 2: {r:?}");
        assert_eq!(r.circuit_opened, 1);
        assert!(r.last_error.as_deref().unwrap_or("").contains("injected fault"));

        // While open, ticks skip (no new sync attempts pile up against the
        // dead backend).
        let r = wait_for(&daemon, |r| r.skipped_while_open >= 1);
        assert!(r.syncs_attempted <= r.ticks);

        // Heal the backend: attach the raw connector. The next half-open
        // probe succeeds and closes the circuit; the index converges. (The
        // default name keeps its breaker across the re-attach.)
        wg.attach_named(wg_util::names::DEFAULT_NAME, healthy);
        let r = wait_for(&daemon, |r| r.circuit == CircuitState::Closed && r.syncs_ok >= 1);
        assert_eq!(r.circuit_closed, 1, "recovery must come through a half-open probe");
        assert_eq!(wg.len(), 1, "index converged after recovery");
        daemon.shutdown();
    }

    #[test]
    fn failed_probe_reopens_the_circuit() {
        let c = connector();
        let inner: BackendHandle = c;
        let flaky: BackendHandle = Arc::new(FaultInjector::new(inner, FaultPlan::fail_every(1)));
        let wg = Arc::new(WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() },
            flaky,
        ));
        let daemon = SyncDaemon::spawn(wg, fast_config());
        // Backend never heals: open → half-open probe fails → open again.
        let r = wait_for(&daemon, |r| r.circuit_opened >= 2);
        assert_eq!(r.circuit_closed, 0);
        assert!(r.syncs_failed >= 3, "threshold failures plus a failed probe: {r:?}");
        daemon.shutdown();
    }

    #[test]
    fn tick_deadline_fails_the_sync_and_counts_separately() {
        let c = connector();
        let backend: BackendHandle = c;
        let wg = Arc::new(WarpGate::with_backend(
            WarpGateConfig { threads: 1, ..Default::default() },
            backend,
        ));
        // A zero budget is already expired at the first pre-scan check:
        // the change-set sync must fail typed, bill no scans, and record
        // nothing (every later tick retries the same change set).
        let daemon =
            SyncDaemon::spawn(wg.clone(), fast_config().with_tick_deadline(Duration::ZERO));
        let r = wait_for(&daemon, |r| r.deadline_exceeded >= 2);
        assert_eq!(r.syncs_ok, 0, "an expired budget never completes a change-set sync");
        assert!(r.last_error.as_deref().unwrap_or("").contains("deadline exceeded"));
        assert_eq!(wg.len(), 0, "nothing was indexed under the expired budget");
        daemon.shutdown();
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
        assert!(report.is_healthy());
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

        // The dead warehouse's breaker opens; the healthy one keeps
        // syncing right through it.
        let r = wait_for(&daemon, |r| {
            r.backends.iter().any(|b| b.circuit == CircuitState::Open) && r.syncs_ok >= 2
        });
        let breaker = |name| r.backends.iter().find(|b| b.backend == BackendId::named(name));
        let (good, bad) =
            (breaker("daemon-test-good").unwrap(), breaker("daemon-test-dead").unwrap());
        assert_eq!(good.circuit, CircuitState::Closed);
        assert_eq!(good.syncs_failed, 0);
        assert!(good.syncs_ok >= 2);
        assert_eq!(bad.circuit, CircuitState::Open);
        assert!(bad.syncs_failed >= 2);
        assert!(bad.last_error.as_deref().unwrap_or("").contains("injected fault"));
        // Aggregate view reports the worst breaker.
        assert_eq!(r.circuit, CircuitState::Open);
        assert_eq!(wg.len(), 1, "the healthy warehouse's column is indexed");
        daemon.shutdown();
    }
}
