//! Admission control: the overload protection of a serving
//! [`crate::WarpGate`] node.
//!
//! The paper pitches WarpGate as a discovery service embedded in a cloud
//! warehouse, where many callers can hammer one node at once. This module
//! makes the node resilient to *its own clients*, the way
//! `wg_store::RetryBackend` and the sync daemon's circuit breakers made it
//! resilient to backend failures. [`AdmissionController`] is a hard
//! concurrency cap plus a bounded FIFO wait queue with a bounded wait
//! time. Work beyond cap + queue (or waiting longer than the bound) is
//! shed with the *retryable* `StoreError::Overloaded`, never queued
//! invisibly: the caller learns in bounded time whether it runs.
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

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use wg_store::{StoreError, StoreResult};

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
/// state machine. All waiting uses `std::sync::Condvar`, as the sync
/// daemon's does.
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

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
}
