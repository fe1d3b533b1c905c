//! Admission control, per-tenant quotas, and the overload-protection
//! vocabulary of a serving [`crate::WarpGate`] node.
//!
//! The paper pitches WarpGate as a discovery service embedded in a cloud
//! warehouse, which means thousands of tenants can hammer one node at
//! once. This module makes the node resilient to *its own clients*, the
//! way `wg_store::RetryBackend` and the sync daemon's circuit breakers
//! made it resilient to backend failures:
//!
//! * [`AdmissionController`] — a hard concurrency cap plus a bounded FIFO
//!   wait queue with a bounded wait time. Work beyond cap + queue (or
//!   waiting longer than the bound) is shed with the *retryable*
//!   `StoreError::Overloaded`, never queued invisibly: the caller learns
//!   in bounded time whether it runs.
//! * [`QuotaPolicy`] — per-tenant token buckets over the billed cost
//!   surface (warehouse scans and scanned bytes, the same units the
//!   `CostMeter` reports). One tenant exhausting its budget gets the
//!   typed, retryable `StoreError::QuotaExceeded`; every other tenant's
//!   requests — and results — are untouched.
//! * [`TenantId`] — process-wide interned tenant names (the same
//!   `wg_util::names` table type as backends, capped separately), so
//!   per-request tenant handling costs an integer, not a string.
//!
//! The admission state machine (see DESIGN.md §12):
//!
//! ```text
//!             in_flight < cap and queue empty
//!  request ──────────────────────────────────────▶ ADMITTED (permit)
//!     │                                                ▲
//!     │ cap full, queue has room                       │ front of queue
//!     ▼                                                │ and slot free
//!  QUEUED (FIFO ticket) ───────────────────────────────┘
//!     │                │
//!     │ queue full     │ waited past max_wait
//!     ▼                ▼
//!  SHED: Overloaded { retry_after_ms }   (retryable, bounded-time answer)
//! ```
//!
//! Quotas are *post-paid*: admission requires a positive balance, the
//! actual metered cost debits after the work (possibly driving the
//! balance negative, which blocks the tenant until refill covers the
//! debt). Pre-paying would require knowing a scan's byte cost before
//! running it — the warehouse only reports cost afterwards.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wg_store::{StoreError, StoreResult};
use wg_util::names::NameTable;
use wg_util::FxHashMap;

// ---------------------------------------------------------------------------
// Tenant interning.

/// Hard cap on distinct tenant names a process can intern. Generous for
/// tests and single-node serving; a registry this size signals a leak
/// (e.g. request ids used as tenant names), not a workload.
pub const MAX_TENANTS: usize = 4096;

static TENANTS: NameTable = NameTable::new("tenant", MAX_TENANTS, &[]);

/// Process-wide interned tenant name (a `wg_util::names::NameTable` of its
/// own). Equal names always intern to the same id; ids are stable for the
/// process lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(u32);

impl TenantId {
    /// Intern `name`, returning its stable id. Panics past
    /// [`MAX_TENANTS`] distinct names — by then something is using
    /// non-tenant strings as tenants.
    pub fn intern(name: &str) -> Self {
        Self(TENANTS.intern(name))
    }

    /// The id already interned for `name`, if any.
    pub fn lookup(name: &str) -> Option<Self> {
        TENANTS.lookup(name).map(Self)
    }

    /// The interned name.
    pub fn name(self) -> String {
        TENANTS.resolve(self.0)
    }

    /// Raw id bits (for logs and tests).
    pub fn bits(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

// ---------------------------------------------------------------------------
// Admission controller.

/// Tunables of an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Requests allowed to execute concurrently (≥ 1).
    pub cap: usize,
    /// Requests allowed to wait for a slot beyond the cap. `0` = no
    /// queue: anything beyond the cap sheds immediately.
    pub queue: usize,
    /// Longest a queued request waits before it sheds. Bounded waiting is
    /// the point: a caller always gets an answer in `max_wait` + one
    /// service time.
    pub max_wait: Duration,
    /// Backoff hint carried in the `Overloaded` errors this controller
    /// sheds with.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self { cap: 4, queue: 8, max_wait: Duration::from_millis(100), retry_after_ms: 50 }
    }
}

/// Monotonic counters plus the live gauges of an [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Requests admitted straight through an idle slot.
    pub admitted: u64,
    /// Requests admitted after waiting in the queue.
    pub queued_admitted: u64,
    /// Requests shed because the wait queue was full.
    pub shed_queue_full: u64,
    /// Requests shed because their queue wait exceeded `max_wait`.
    pub shed_timeout: u64,
    /// Requests currently holding a slot.
    pub in_flight: usize,
    /// Requests currently waiting in the queue.
    pub queued: usize,
}

struct AdmState {
    in_flight: usize,
    /// FIFO tickets of the waiting requests, front = next to admit.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// Concurrency cap + bounded FIFO wait queue. See the module docs for the
/// state machine. All waiting uses `std::sync::Condvar` (the workspace's
/// `parking_lot` shim carries no condvar), matching the sync daemon.
pub struct AdmissionController {
    config: AdmissionConfig,
    state: Mutex<AdmState>,
    cv: Condvar,
    admitted: AtomicU64,
    queued_admitted: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_timeout: AtomicU64,
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionController").field("config", &self.config).finish_non_exhaustive()
    }
}

impl AdmissionController {
    /// Build a controller. Panics on `cap == 0` (that is "reject all
    /// work", which no serving node means; disable admission control by
    /// not constructing one).
    pub fn new(config: AdmissionConfig) -> Self {
        assert!(config.cap >= 1, "admission cap must be at least 1");
        Self {
            config,
            state: Mutex::new(AdmState { in_flight: 0, queue: VecDeque::new(), next_ticket: 0 }),
            cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            queued_admitted: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_timeout: AtomicU64::new(0),
        }
    }

    /// The config in effect.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    fn overloaded(&self) -> StoreError {
        StoreError::Overloaded { retry_after_ms: self.config.retry_after_ms }
    }

    /// Acquire one execution slot, waiting in FIFO order up to
    /// `max_wait`. Sheds with the retryable `Overloaded` when the queue
    /// is full or the wait times out — never blocks unboundedly.
    pub fn acquire(&self) -> StoreResult<AdmissionPermit<'_>> {
        let mut st = self.state.lock().expect("admission state lock");
        // Fast path: free slot and nobody queued ahead.
        if st.in_flight < self.config.cap && st.queue.is_empty() {
            st.in_flight += 1;
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(AdmissionPermit { ctrl: self });
        }
        if st.queue.len() >= self.config.queue {
            self.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            return Err(self.overloaded());
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        let wait_deadline = Instant::now() + self.config.max_wait;
        loop {
            if st.queue.front() == Some(&ticket) && st.in_flight < self.config.cap {
                st.queue.pop_front();
                st.in_flight += 1;
                self.queued_admitted.fetch_add(1, Ordering::Relaxed);
                // More slots may be free (releases batch up); let the
                // next ticket re-check.
                self.cv.notify_all();
                return Ok(AdmissionPermit { ctrl: self });
            }
            let remaining = wait_deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                st.queue.retain(|&t| t != ticket);
                self.shed_timeout.fetch_add(1, Ordering::Relaxed);
                // Our departure may unblock the ticket behind us.
                self.cv.notify_all();
                return Err(self.overloaded());
            }
            let (guard, _) = self.cv.wait_timeout(st, remaining).expect("admission state lock");
            st = guard;
        }
    }

    /// Counter + gauge snapshot.
    pub fn stats(&self) -> AdmissionStats {
        let st = self.state.lock().expect("admission state lock");
        AdmissionStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued_admitted: self.queued_admitted.load(Ordering::Relaxed),
            shed_queue_full: self.shed_queue_full.load(Ordering::Relaxed),
            shed_timeout: self.shed_timeout.load(Ordering::Relaxed),
            in_flight: st.in_flight,
            queued: st.queue.len(),
        }
    }

    fn release(&self) {
        let mut st = self.state.lock().expect("admission state lock");
        st.in_flight = st.in_flight.saturating_sub(1);
        drop(st);
        self.cv.notify_all();
    }
}

/// RAII execution slot from [`AdmissionController::acquire`]; dropping it
/// releases the slot and wakes the queue.
pub struct AdmissionPermit<'a> {
    ctrl: &'a AdmissionController,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit").finish_non_exhaustive()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        self.ctrl.release();
    }
}

// ---------------------------------------------------------------------------
// Per-tenant quotas.

/// One tenant's token-bucket budget over the billed cost surface. Units
/// match the `CostMeter`: scan *requests* and *bytes scanned*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Bucket capacity in billed scans (also the starting balance).
    pub scan_capacity: f64,
    /// Scans refilled per second, up to capacity.
    pub scan_refill_per_sec: f64,
    /// Bucket capacity in scanned bytes. `f64::INFINITY` = unmetered.
    pub byte_capacity: f64,
    /// Bytes refilled per second, up to capacity.
    pub byte_refill_per_sec: f64,
}

impl TenantQuota {
    /// A scans-only budget (bytes unmetered).
    pub fn scans(capacity: f64, refill_per_sec: f64) -> Self {
        Self {
            scan_capacity: capacity,
            scan_refill_per_sec: refill_per_sec,
            byte_capacity: f64::INFINITY,
            byte_refill_per_sec: 0.0,
        }
    }

    /// Same quota with a byte budget on top.
    pub fn with_bytes(self, capacity: f64, refill_per_sec: f64) -> Self {
        Self { byte_capacity: capacity, byte_refill_per_sec: refill_per_sec, ..self }
    }
}

#[derive(Debug, Clone, Copy)]
struct Bucket {
    scan_tokens: f64,
    byte_tokens: f64,
    /// Clock reading (seconds) at the last refill.
    refilled_at: f64,
}

struct QuotaState {
    quotas: FxHashMap<TenantId, TenantQuota>,
    buckets: FxHashMap<TenantId, Bucket>,
    /// `Some(now)` = a manually advanced test clock; `None` = monotonic
    /// wall clock relative to `epoch`.
    manual_secs: Option<f64>,
    epoch: Instant,
}

/// Per-tenant token buckets over billed scans and bytes. Tenants without
/// a configured quota are unlimited. Thread-safe; one shared instance
/// serves every entry point of a node.
pub struct QuotaPolicy {
    state: Mutex<QuotaState>,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for QuotaPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock().expect("quota state lock");
        f.debug_struct("QuotaPolicy").field("tenants", &st.quotas.len()).finish_non_exhaustive()
    }
}

impl QuotaPolicy {
    /// An empty policy on the monotonic clock: every tenant unlimited
    /// until [`Self::set_quota`] says otherwise.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(QuotaState {
                quotas: FxHashMap::default(),
                buckets: FxHashMap::default(),
                manual_secs: None,
                epoch: Instant::now(),
            }),
        }
    }

    /// Same policy on a manually advanced clock (see [`Self::advance`]) —
    /// deterministic refill for tests.
    pub fn with_manual_clock() -> Self {
        let policy = Self::new();
        policy.state.lock().expect("quota state lock").manual_secs = Some(0.0);
        policy
    }

    /// Advance the manual clock by `secs`. Panics on a monotonic-clock
    /// policy — mixing the two would silently break refill accounting.
    pub fn advance(&self, secs: f64) {
        let mut st = self.state.lock().expect("quota state lock");
        let now = st.manual_secs.expect("advance() requires with_manual_clock()");
        st.manual_secs = Some(now + secs);
    }

    /// Install (or replace) `tenant`'s budget. The bucket starts full.
    pub fn set_quota(&self, tenant: TenantId, quota: TenantQuota) {
        let mut st = self.state.lock().expect("quota state lock");
        let now = now_secs(&st);
        st.quotas.insert(tenant, quota);
        st.buckets.insert(
            tenant,
            Bucket {
                scan_tokens: quota.scan_capacity,
                byte_tokens: quota.byte_capacity,
                refilled_at: now,
            },
        );
    }

    /// Remove `tenant`'s budget: unlimited again.
    pub fn clear_quota(&self, tenant: TenantId) {
        let mut st = self.state.lock().expect("quota state lock");
        st.quotas.remove(&tenant);
        st.buckets.remove(&tenant);
    }

    /// Gate one request: refill `tenant`'s bucket for elapsed time, then
    /// require at least one scan token and a positive byte balance.
    /// Unconfigured tenants always pass. Fails with the retryable
    /// `QuotaExceeded` — the bucket refills with time.
    pub fn admit(&self, tenant: TenantId) -> StoreResult<()> {
        let mut st = self.state.lock().expect("quota state lock");
        let now = now_secs(&st);
        let Some(quota) = st.quotas.get(&tenant).copied() else { return Ok(()) };
        let bucket = st.buckets.get_mut(&tenant).expect("quota implies bucket");
        refill(bucket, &quota, now);
        if bucket.scan_tokens >= 1.0 && bucket.byte_tokens > 0.0 {
            Ok(())
        } else {
            Err(StoreError::QuotaExceeded { tenant: tenant.name() })
        }
    }

    /// Debit the *measured* cost of finished work (post-paid; may drive
    /// the balance negative, blocking the tenant until refill covers the
    /// debt). No-op for unconfigured tenants.
    pub fn debit(&self, tenant: TenantId, scans: u64, bytes: u64) {
        let mut st = self.state.lock().expect("quota state lock");
        if !st.quotas.contains_key(&tenant) {
            return;
        }
        let bucket = st.buckets.get_mut(&tenant).expect("quota implies bucket");
        bucket.scan_tokens -= scans as f64;
        bucket.byte_tokens -= bytes as f64;
    }

    /// Current `(scan_tokens, byte_tokens)` balance after refill; `None`
    /// for unconfigured tenants.
    pub fn balance(&self, tenant: TenantId) -> Option<(f64, f64)> {
        let mut st = self.state.lock().expect("quota state lock");
        let now = now_secs(&st);
        let quota = st.quotas.get(&tenant).copied()?;
        let bucket = st.buckets.get_mut(&tenant).expect("quota implies bucket");
        refill(bucket, &quota, now);
        Some((bucket.scan_tokens, bucket.byte_tokens))
    }
}

fn now_secs(st: &QuotaState) -> f64 {
    match st.manual_secs {
        Some(s) => s,
        None => st.epoch.elapsed().as_secs_f64(),
    }
}

fn refill(bucket: &mut Bucket, quota: &TenantQuota, now: f64) {
    let dt = (now - bucket.refilled_at).max(0.0);
    bucket.refilled_at = now;
    bucket.scan_tokens =
        (bucket.scan_tokens + dt * quota.scan_refill_per_sec).min(quota.scan_capacity);
    bucket.byte_tokens =
        (bucket.byte_tokens + dt * quota.byte_refill_per_sec).min(quota.byte_capacity);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn tenant_ids_are_stable_and_distinct() {
        let a = TenantId::intern("tenant-stable-a");
        let b = TenantId::intern("tenant-stable-b");
        assert_ne!(a, b);
        assert_eq!(TenantId::intern("tenant-stable-a"), a);
        assert_eq!(TenantId::lookup("tenant-stable-b"), Some(b));
        assert_eq!(TenantId::lookup("tenant-never-interned"), None);
        assert_eq!(a.name(), "tenant-stable-a");
        assert_eq!(a.to_string(), "tenant-stable-a");
    }

    #[test]
    fn admits_up_to_cap_then_sheds_when_queue_full() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            cap: 2,
            queue: 0,
            max_wait: Duration::from_millis(10),
            retry_after_ms: 7,
        });
        let p1 = ctrl.acquire().unwrap();
        let p2 = ctrl.acquire().unwrap();
        let err = ctrl.acquire().unwrap_err();
        assert!(matches!(err, StoreError::Overloaded { retry_after_ms: 7 }), "{err:?}");
        assert!(err.is_retryable());
        let stats = ctrl.stats();
        assert_eq!((stats.admitted, stats.shed_queue_full, stats.in_flight), (2, 1, 2));
        drop(p1);
        let _p3 = ctrl.acquire().unwrap();
        drop(p2);
        assert_eq!(ctrl.stats().in_flight, 1);
    }

    #[test]
    fn queued_request_admits_when_slot_frees() {
        let ctrl = Arc::new(AdmissionController::new(AdmissionConfig {
            cap: 1,
            queue: 4,
            max_wait: Duration::from_secs(10),
            retry_after_ms: 5,
        }));
        let held = ctrl.acquire().unwrap();
        let waiter = {
            let ctrl = ctrl.clone();
            std::thread::spawn(move || ctrl.acquire().map(|_p| ()).is_ok())
        };
        // Give the waiter time to enqueue, then free the slot.
        while ctrl.stats().queued == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        assert!(waiter.join().unwrap(), "queued request must admit after release");
        let stats = ctrl.stats();
        assert_eq!(stats.queued_admitted, 1);
        assert_eq!(stats.in_flight, 0);
    }

    #[test]
    fn queue_wait_is_bounded() {
        let ctrl = AdmissionController::new(AdmissionConfig {
            cap: 1,
            queue: 4,
            max_wait: Duration::from_millis(30),
            retry_after_ms: 9,
        });
        let _held = ctrl.acquire().unwrap();
        let start = Instant::now();
        let err = ctrl.acquire().unwrap_err();
        let waited = start.elapsed();
        assert!(matches!(err, StoreError::Overloaded { .. }), "{err:?}");
        assert!(waited >= Duration::from_millis(30), "shed too early: {waited:?}");
        assert!(waited < Duration::from_secs(5), "wait must be bounded: {waited:?}");
        let stats = ctrl.stats();
        assert_eq!(stats.shed_timeout, 1);
        assert_eq!(stats.queued, 0, "timed-out ticket must leave the queue");
    }

    #[test]
    fn queue_admits_in_fifo_order() {
        let ctrl = Arc::new(AdmissionController::new(AdmissionConfig {
            cap: 1,
            queue: 8,
            max_wait: Duration::from_secs(10),
            retry_after_ms: 5,
        }));
        let held = ctrl.acquire().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let started = Arc::new(AtomicUsize::new(0));
        let mut waiters = Vec::new();
        for i in 0..3 {
            let ctrl = ctrl.clone();
            let order = order.clone();
            let started = started.clone();
            // Stagger the enqueues so ticket order is deterministic.
            while ctrl.stats().queued < i {
                std::thread::sleep(Duration::from_millis(1));
            }
            waiters.push(std::thread::spawn(move || {
                started.fetch_add(1, Ordering::SeqCst);
                let permit = ctrl.acquire().unwrap();
                order.lock().unwrap().push(i);
                // Hold briefly so admissions serialize observably.
                std::thread::sleep(Duration::from_millis(5));
                drop(permit);
            }));
        }
        while ctrl.stats().queued < 3 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held);
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2], "admissions must be FIFO");
    }

    #[test]
    fn unconfigured_tenant_is_unlimited() {
        let q = QuotaPolicy::new();
        let t = TenantId::intern("quota-unlimited");
        for _ in 0..1000 {
            q.admit(t).unwrap();
        }
        q.debit(t, 10, 1 << 30);
        q.admit(t).unwrap();
        assert_eq!(q.balance(t), None);
    }

    #[test]
    fn exhausted_tenant_rejects_until_refill() {
        let q = QuotaPolicy::with_manual_clock();
        let t = TenantId::intern("quota-exhaust");
        q.set_quota(t, TenantQuota::scans(2.0, 1.0));
        q.admit(t).unwrap();
        q.debit(t, 2, 0);
        let err = q.admit(t).unwrap_err();
        assert!(matches!(&err, StoreError::QuotaExceeded { tenant } if tenant == "quota-exhaust"));
        assert!(err.is_retryable(), "quota rejections must be retryable");
        // One second refills one scan token.
        q.advance(1.0);
        q.admit(t).unwrap();
        // Refill never exceeds capacity.
        q.advance(1e6);
        assert_eq!(q.balance(t).unwrap().0, 2.0);
    }

    #[test]
    fn post_paid_debt_blocks_until_covered() {
        let q = QuotaPolicy::with_manual_clock();
        let t = TenantId::intern("quota-debt");
        q.set_quota(t, TenantQuota::scans(5.0, 1.0));
        q.admit(t).unwrap();
        // The admitted request turned out expensive: 9 scans against a
        // balance of 5 leaves a debt of 4.
        q.debit(t, 9, 0);
        assert_eq!(q.balance(t).unwrap().0, -4.0);
        assert!(q.admit(t).is_err());
        q.advance(4.0);
        assert!(q.admit(t).is_err(), "balance 0 still lacks a whole token");
        q.advance(1.0);
        q.admit(t).unwrap();
    }

    #[test]
    fn byte_budget_gates_independently_of_scans() {
        let q = QuotaPolicy::with_manual_clock();
        let t = TenantId::intern("quota-bytes");
        q.set_quota(t, TenantQuota::scans(100.0, 0.0).with_bytes(1000.0, 500.0));
        q.admit(t).unwrap();
        q.debit(t, 1, 1000);
        let err = q.admit(t).unwrap_err();
        assert!(matches!(err, StoreError::QuotaExceeded { .. }), "{err:?}");
        assert!(q.balance(t).unwrap().0 > 90.0, "scan balance untouched by byte exhaustion");
        q.advance(1.0);
        q.admit(t).unwrap();
    }

    #[test]
    fn tenants_are_isolated() {
        let q = QuotaPolicy::with_manual_clock();
        let broke = TenantId::intern("quota-iso-broke");
        let healthy = TenantId::intern("quota-iso-healthy");
        q.set_quota(broke, TenantQuota::scans(1.0, 0.0));
        q.set_quota(healthy, TenantQuota::scans(100.0, 0.0));
        q.debit(broke, 5, 0);
        assert!(q.admit(broke).is_err());
        for _ in 0..50 {
            q.admit(healthy).unwrap();
        }
        q.clear_quota(broke);
        q.admit(broke).unwrap();
    }
}
