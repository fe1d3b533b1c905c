//! Retrying middleware for warehouse backends.
//!
//! Cloud warehouses fail transiently — links flap, warehouses suspend and
//! resume, quotas trip and clear. [`RetryBackend`] wraps any
//! [`WarehouseBackend`] and retries calls that fail with a *retryable*
//! error ([`StoreError::is_retryable`]) under an exponential-backoff
//! schedule with deterministic jitter and a per-call backoff budget.
//!
//! Design points:
//!
//! * **Deterministic.** Jitter comes from a seeded PRNG and time comes
//!   from an injectable [`RetryClock`], so resilience tests assert exact
//!   backoff schedules without a flaky suite. The default
//!   [`VirtualClock`] never blocks: backoff time is *charged* (it lands in
//!   [`CostSnapshot::virtual_secs`]) but not slept, mirroring how the
//!   simulated CDW charges network latency.
//! * **Observable.** Every repeated attempt increments a retry counter
//!   surfaced through [`CostSnapshot::retries`], so `QueryTiming`,
//!   `IndexReport::cost` and `SyncReport::cost` all show how hard the
//!   middleware had to work.
//! * **Bounded.** A call gives up when its attempt budget
//!   ([`RetryPolicy::max_attempts`]) or its backoff-time budget
//!   ([`RetryPolicy::budget_secs`]) is exhausted, wrapping the last
//!   transient error in [`StoreError::RetriesExhausted`]. Fatal errors
//!   propagate immediately, unwrapped.
//!
//! Composition order matters: `RetryBackend(FaultInjector(inner))`
//! retries *over* the injected faults (the resilient stack), while
//! `FaultInjector(RetryBackend(inner))` would fault the already-retried
//! calls. See DESIGN.md §7.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wg_util::rng::Xoshiro256pp;
use wg_util::sync::Mutex;

use crate::backend::{BackendHandle, TableMeta, TableVersion, WarehouseBackend};
use crate::catalog::ColumnRef;
use crate::cdw::CostSnapshot;
use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::sample::SampleSpec;
use crate::table::Table;

/// Backoff schedule and budgets for [`RetryBackend`].
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Maximum total attempts per call, the initial one included. 1 means
    /// "never retry".
    pub max_attempts: u32,
    /// Backoff before the first retry, seconds.
    pub base_delay_secs: f64,
    /// Multiplier applied to the delay after every retry (2.0 doubles).
    pub multiplier: f64,
    /// Upper bound on any single backoff delay, seconds (pre-jitter).
    pub max_delay_secs: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor drawn
    /// uniformly from `[1 - jitter, 1 + jitter)`. 0 disables jitter.
    pub jitter: f64,
    /// Per-call budget on *total* backoff time, seconds. A retry whose
    /// delay would push the call past this budget is not attempted.
    pub budget_secs: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay_secs: 0.05,
            multiplier: 2.0,
            max_delay_secs: 2.0,
            jitter: 0.2,
            budget_secs: 10.0,
            seed: 0x52_4554_5259, // "RETRY"
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — wraps a backend transparently (useful
    /// to keep one composition shape everywhere).
    pub fn none() -> Self {
        Self { max_attempts: 1, ..Self::default() }
    }

    /// The nominal (pre-jitter) backoff before retry number `retry`
    /// (1-based): `base · multiplier^(retry-1)`, capped at
    /// [`Self::max_delay_secs`].
    pub fn nominal_delay_secs(&self, retry: u32) -> f64 {
        let exp = self.base_delay_secs * self.multiplier.powi(retry.saturating_sub(1) as i32);
        exp.min(self.max_delay_secs)
    }
}

/// Source of backoff waiting for [`RetryBackend`] — injectable so tests
/// control time.
pub trait RetryClock: Send + Sync {
    /// Wait out one backoff delay of `secs` seconds.
    fn sleep(&self, secs: f64);
}

/// A clock that never blocks: backoff time is charged to the cost model
/// (see [`CostSnapshot::virtual_secs`]) but not slept. The default — the
/// workspace's benches and tests stay fast, exactly like the simulated
/// CDW's virtual network latency.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtualClock;

impl RetryClock for VirtualClock {
    fn sleep(&self, _secs: f64) {}
}

/// A clock that really sleeps — what a deployed service loop would use.
#[derive(Debug, Default, Clone, Copy)]
pub struct SystemClock;

impl RetryClock for SystemClock {
    fn sleep(&self, secs: f64) {
        if secs > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(secs));
        }
    }
}

/// A [`WarehouseBackend`] decorator that retries transient failures of the
/// inner backend per a [`RetryPolicy`]. See the module docs.
pub struct RetryBackend {
    inner: BackendHandle,
    policy: RetryPolicy,
    clock: Arc<dyn RetryClock>,
    jitter_rng: Mutex<Xoshiro256pp>,
    /// Repeated attempts made (not counting each call's first attempt).
    retries: AtomicU64,
    /// Total backoff charged, nanoseconds.
    backoff_nanos: AtomicU64,
}

impl std::fmt::Debug for RetryBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RetryBackend")
            .field("inner", &self.inner.name())
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

impl RetryBackend {
    /// Wrap `inner` with the given policy and the non-blocking
    /// [`VirtualClock`]: backoff is *charged* (visible in
    /// [`CostSnapshot::virtual_secs`]) but not slept, so all attempts of
    /// a call fire back-to-back in real time. That is the right model for
    /// this workspace's simulated warehouses, whose faults clear between
    /// calls, not with the passage of time. A deployment whose outages
    /// take real seconds to clear should use
    /// [`Self::with_clock`]`(…, Arc::new(SystemClock))` so the backoff
    /// (and `budget_secs`) actually spans the outage.
    pub fn new(inner: BackendHandle, policy: RetryPolicy) -> Self {
        Self::with_clock(inner, policy, Arc::new(VirtualClock))
    }

    /// Wrap `inner` with the default policy and the non-blocking
    /// [`VirtualClock`] (see [`Self::new`] for when to prefer
    /// [`SystemClock`]).
    pub fn with_defaults(inner: BackendHandle) -> Self {
        Self::new(inner, RetryPolicy::default())
    }

    /// Wrap with a caller-provided clock (tests inject recorders; service
    /// loops inject [`SystemClock`] so backoff really waits out outages).
    pub fn with_clock(
        inner: BackendHandle,
        policy: RetryPolicy,
        clock: Arc<dyn RetryClock>,
    ) -> Self {
        assert!(policy.max_attempts >= 1, "max_attempts must be at least 1");
        assert!((0.0..=1.0).contains(&policy.jitter), "jitter must be in [0,1]");
        Self {
            inner,
            policy,
            clock,
            jitter_rng: Mutex::new(Xoshiro256pp::new(policy.seed)),
            retries: AtomicU64::new(0),
            backoff_nanos: AtomicU64::new(0),
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &BackendHandle {
        &self.inner
    }

    /// Repeated attempts made since construction or the last cost reset.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// One jittered delay: nominal schedule value scaled by a factor drawn
    /// from `[1 - jitter, 1 + jitter)` on the deterministic stream.
    fn jittered_delay_secs(&self, retry: u32) -> f64 {
        let nominal = self.policy.nominal_delay_secs(retry);
        if self.policy.jitter <= 0.0 {
            return nominal;
        }
        // 53-bit uniform in [0, 1).
        let u = (self.jitter_rng.lock().next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        nominal * (1.0 + self.policy.jitter * (2.0 * u - 1.0))
    }

    /// Run `op`, retrying transient failures under the policy.
    fn call<T>(&self, op: impl Fn() -> StoreResult<T>) -> StoreResult<T> {
        self.call_metered(op).map(|(v, _)| v)
    }

    /// [`Self::call`], also returning what this call added to the
    /// middleware's own meter: its retries and the backoff charged for
    /// them.
    fn call_metered<T>(&self, op: impl Fn() -> StoreResult<T>) -> StoreResult<(T, CostSnapshot)> {
        let mut attempts: u32 = 1;
        let mut spent_secs = 0.0_f64;
        let mut spent_nanos = 0u64;
        loop {
            let err = match op() {
                Ok(v) => {
                    let own = CostSnapshot {
                        virtual_secs: spent_nanos as f64 / 1e9,
                        retries: u64::from(attempts - 1),
                        ..CostSnapshot::default()
                    };
                    return Ok((v, own));
                }
                Err(e) => e,
            };
            if !err.is_retryable() {
                return Err(err);
            }
            let give_up = |last: StoreError| {
                if attempts > 1 {
                    StoreError::RetriesExhausted { attempts, last: Box::new(last) }
                } else {
                    // max_attempts == 1: no retry ever happened; the bare
                    // error is the honest answer.
                    last
                }
            };
            if attempts >= self.policy.max_attempts {
                return Err(give_up(err));
            }
            let delay = self.jittered_delay_secs(attempts);
            if spent_secs + delay > self.policy.budget_secs {
                return Err(give_up(err));
            }
            spent_secs += delay;
            let nanos = (delay * 1e9) as u64;
            spent_nanos += nanos;
            self.backoff_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.retries.fetch_add(1, Ordering::Relaxed);
            self.clock.sleep(delay);
            attempts += 1;
        }
    }
}

impl WarehouseBackend for RetryBackend {
    fn name(&self) -> String {
        format!("retry:{}", self.inner.name())
    }

    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.call(|| self.inner.list_tables())
    }

    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        self.call(|| self.inner.table_meta(database, table))
    }

    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        self.call(|| self.inner.scan_column(r, sample))
    }

    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(Column, CostSnapshot)> {
        // Only the attempt that succeeded reports a charge; the failed
        // ones are the retries counted here.
        let ((column, inner), own) =
            self.call_metered(|| self.inner.scan_column_metered(r, sample))?;
        Ok((column, inner.plus(&own)))
    }

    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        self.call(|| self.inner.scan_table(database, table, sample))
    }

    fn costs(&self) -> CostSnapshot {
        let own = CostSnapshot {
            virtual_secs: self.backoff_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            retries: self.retries.load(Ordering::Relaxed),
            ..CostSnapshot::default()
        };
        self.inner.costs().plus(&own)
    }

    fn reset_costs(&self) {
        self.inner.reset_costs();
        self.backoff_nanos.store(0, Ordering::Relaxed);
        self.retries.store(0, Ordering::Relaxed);
    }

    fn validate_column(&self, r: &ColumnRef) -> StoreResult<()> {
        self.call(|| self.inner.validate_column(r))
    }

    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        self.call(|| self.inner.snapshot_versions())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, Warehouse};
    use crate::cdw::{CdwConfig, CdwConnector};
    use crate::fault::{FaultInjector, FaultPlan};

    /// Records every sleep it is asked for.
    #[derive(Default)]
    struct RecordingClock(Mutex<Vec<f64>>);

    impl RetryClock for RecordingClock {
        fn sleep(&self, secs: f64) {
            self.0.lock().push(secs);
        }
    }

    fn inner() -> BackendHandle {
        let mut w = Warehouse::new("w");
        let mut db = Database::new("db");
        db.add_table(
            Table::new(
                "t",
                vec![Column::text("a", (0..20).map(|i| format!("v{i}")).collect::<Vec<_>>())],
            )
            .unwrap(),
        );
        w.add_database(db);
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    fn no_jitter(max_attempts: u32, base: f64, budget: f64) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_delay_secs: base,
            multiplier: 2.0,
            max_delay_secs: 100.0,
            jitter: 0.0,
            budget_secs: budget,
            seed: 7,
        }
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        let p = RetryPolicy {
            base_delay_secs: 0.1,
            multiplier: 2.0,
            max_delay_secs: 0.5,
            ..RetryPolicy::default()
        };
        let schedule: Vec<f64> = (1..=5).map(|r| p.nominal_delay_secs(r)).collect();
        assert_eq!(schedule, vec![0.1, 0.2, 0.4, 0.5, 0.5]);
    }

    #[test]
    fn retries_until_success_with_exact_schedule() {
        // Every scan fails: 3 failures burn the 4-attempt budget, with
        // delays exactly [base, 2·base, 4·base] on the recording clock.
        let flaky: BackendHandle = Arc::new(FaultInjector::new(inner(), FaultPlan::fail_every(1)));
        let clock = Arc::new(RecordingClock::default());
        let b = RetryBackend::with_clock(flaky, no_jitter(4, 0.25, 100.0), clock.clone());
        let err = b.scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Full).unwrap_err();
        assert!(
            matches!(err, StoreError::RetriesExhausted { attempts: 4, .. }),
            "unexpected: {err:?}"
        );
        assert_eq!(*clock.0.lock(), vec![0.25, 0.5, 1.0]);
        assert_eq!(b.retries(), 3);
        // Backoff landed in the cost model as virtual latency.
        assert!((b.costs().virtual_secs - 1.75).abs() < 1e-9);
        assert_eq!(b.costs().retries, 3);
    }

    #[test]
    fn recovers_when_a_retry_succeeds() {
        // Every 2nd scan fails: each faulted attempt is followed by one
        // successful retry, so the call always completes.
        let flaky = Arc::new(FaultInjector::new(inner(), FaultPlan::fail_every(2)));
        let b = RetryBackend::with_clock(
            flaky.clone(),
            no_jitter(4, 0.01, 100.0),
            Arc::new(VirtualClock),
        );
        let r = ColumnRef::new("db", "t", "a");
        for _ in 0..6 {
            b.scan_column(&r, SampleSpec::Full).unwrap();
        }
        assert_eq!(flaky.faults_injected(), b.retries());
        assert!(b.retries() >= 1);
    }

    #[test]
    fn budget_exhaustion_stops_retrying_early() {
        // base 1.0 s, budget 2.5 s: retry 1 sleeps 1.0, retry 2 sleeps 2.0
        // — but that would spend 3.0 > 2.5, so the call gives up after two
        // attempts even though max_attempts allows ten.
        let flaky: BackendHandle = Arc::new(FaultInjector::new(inner(), FaultPlan::fail_every(1)));
        let clock = Arc::new(RecordingClock::default());
        let b = RetryBackend::with_clock(flaky, no_jitter(10, 1.0, 2.5), clock.clone());
        let err = b.scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Full).unwrap_err();
        assert!(
            matches!(err, StoreError::RetriesExhausted { attempts: 2, .. }),
            "unexpected: {err:?}"
        );
        assert_eq!(*clock.0.lock(), vec![1.0], "second backoff must not be slept");
    }

    #[test]
    fn jitter_stays_within_bounds_and_is_deterministic() {
        let mk = || {
            let flaky: BackendHandle =
                Arc::new(FaultInjector::new(inner(), FaultPlan::fail_every(1)));
            let clock = Arc::new(RecordingClock::default());
            let policy = RetryPolicy {
                max_attempts: 8,
                base_delay_secs: 0.1,
                multiplier: 2.0,
                max_delay_secs: 100.0,
                jitter: 0.5,
                budget_secs: 1e9,
                seed: 42,
            };
            let b = RetryBackend::with_clock(flaky, policy, clock.clone());
            b.scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Full).unwrap_err();
            let delays = clock.0.lock().clone();
            (b, delays)
        };
        let (b, delays) = mk();
        assert_eq!(delays.len(), 7);
        for (i, d) in delays.iter().enumerate() {
            let nominal = b.policy().nominal_delay_secs(i as u32 + 1);
            assert!(
                *d >= nominal * 0.5 && *d < nominal * 1.5,
                "delay {d} outside jitter bounds of nominal {nominal}"
            );
        }
        // Same seed, same stream: the schedule reproduces exactly.
        let (_, delays2) = mk();
        assert_eq!(delays, delays2, "jitter must be deterministic per seed");
    }

    #[test]
    fn fatal_errors_propagate_without_retry() {
        let b = RetryBackend::with_defaults(inner());
        let err = b.scan_column(&ColumnRef::new("db", "t", "nope"), SampleSpec::Full).unwrap_err();
        assert!(matches!(err, StoreError::NotFound(_)), "unexpected: {err:?}");
        assert_eq!(b.retries(), 0, "fatal errors must not burn retries");
        assert_eq!(b.costs().virtual_secs, 0.0);
    }

    #[test]
    fn max_attempts_one_returns_the_bare_error() {
        let flaky: BackendHandle = Arc::new(FaultInjector::new(inner(), FaultPlan::fail_every(1)));
        let b = RetryBackend::new(flaky, RetryPolicy::none());
        let err = b.scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Full).unwrap_err();
        assert!(matches!(err, StoreError::Unavailable(_)), "unexpected: {err:?}");
    }

    #[test]
    fn transparent_when_inner_never_fails() {
        let b = RetryBackend::with_defaults(inner());
        let r = ColumnRef::new("db", "t", "a");
        for _ in 0..5 {
            b.scan_column(&r, SampleSpec::Full).unwrap();
        }
        let c = b.costs();
        assert_eq!(c.requests, 5, "inner billing passes through");
        assert_eq!(c.retries, 0);
        assert_eq!(b.list_tables().unwrap().len(), 1);
        assert!(b.validate_column(&r).is_ok());
        b.reset_costs();
        assert_eq!(b.costs(), CostSnapshot::default());
    }

    /// Metadata calls retry too: a backend whose list_tables fails once.
    struct FlakyCatalog {
        inner: BackendHandle,
        remaining_failures: AtomicU64,
    }

    impl WarehouseBackend for FlakyCatalog {
        fn name(&self) -> String {
            "flaky-catalog".into()
        }
        fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
            if self.remaining_failures.load(Ordering::Relaxed) > 0 {
                self.remaining_failures.fetch_sub(1, Ordering::Relaxed);
                return Err(StoreError::Unavailable("catalog flap".into()));
            }
            self.inner.list_tables()
        }
        fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
            self.inner.table_meta(database, table)
        }
        fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
            self.inner.scan_column(r, sample)
        }
        fn scan_table(
            &self,
            database: &str,
            table: &str,
            sample: SampleSpec,
        ) -> StoreResult<Table> {
            self.inner.scan_table(database, table, sample)
        }
        fn costs(&self) -> CostSnapshot {
            self.inner.costs()
        }
        fn reset_costs(&self) {
            self.inner.reset_costs()
        }
    }

    #[test]
    fn metadata_calls_are_retried() {
        let flaky =
            Arc::new(FlakyCatalog { inner: inner(), remaining_failures: AtomicU64::new(2) });
        let b = RetryBackend::new(flaky, RetryPolicy::default());
        let metas = b.list_tables().expect("two flaps fit in a 4-attempt budget");
        assert_eq!(metas.len(), 1);
        assert_eq!(b.retries(), 2);
    }
}
