//! Fault- and latency-injecting wrapper backend.
//!
//! Cloud warehouses fail: queries time out, warehouses suspend, quotas
//! trip. [`FaultInjector`] wraps any [`WarehouseBackend`] and injects
//! *deterministic* scan failures and extra virtual latency, so resilience
//! scenarios (indexing aborts, retry loops, sync over a flaky link) are
//! testable without a flaky test suite.
//!
//! By default only the billed scan surface misbehaves; metadata calls
//! pass through, mirroring how catalog queries hit a different (and far
//! more reliable) service tier than warehouse compute. Durability tests
//! that need the catalog tier itself to die — "the backend vanished
//! between a checkpoint and the next sync" — opt in via
//! [`FaultPlan::metadata_fail_every`], which gates `list_tables` /
//! `table_meta` / `snapshot_versions` on their own deterministic counter
//! (scan faulting is unaffected, and `validate_column` stays reliable so
//! query validation never flakes).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::backend::{BackendHandle, TableMeta, TableVersion, WarehouseBackend};
use crate::catalog::ColumnRef;
use crate::cdw::CostSnapshot;
use crate::column::Column;
use crate::error::{StoreError, StoreResult};
use crate::sample::SampleSpec;
use crate::table::Table;

/// What the injector does to scans. The default plan injects nothing, so a
/// wrapped backend behaves identically to the inner one (the parity suite
/// pins this).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail every Nth matching scan (1 = every scan, 0 = never).
    pub fail_every: u64,
    /// Restrict faults to scans of one `(database, table)`; `None` targets
    /// every scan.
    pub only_table: Option<(String, String)>,
    /// Extra virtual latency charged per successful matching scan,
    /// seconds — a degraded-link model.
    pub extra_latency_secs: f64,
    /// Fail every Nth *metadata* call — `list_tables`, `table_meta`,
    /// `snapshot_versions` — on a counter separate from the scan gate
    /// (1 = every call, 0 = never, the default). `only_table` scoping does
    /// not apply (the catalog tier fails as a whole), and
    /// `validate_column` is never faulted.
    pub metadata_fail_every: u64,
    /// *Hang* every Nth matching scan for [`FaultPlan::hang_secs`] of real
    /// wall-clock time before it proceeds (1 = every scan, 0 = never, the
    /// default). Unlike `extra_latency_secs` — which only charges *virtual*
    /// time to the cost meter — a hang actually blocks the calling thread,
    /// which is what deadline checks, write timeouts, and shedding paths
    /// need to prove themselves against deterministically. The hung scan
    /// then runs normally (it may still fail if the fail gate also
    /// triggers).
    pub hang_every: u64,
    /// Real blocking delay per triggered hang, seconds.
    pub hang_secs: f64,
}

impl FaultPlan {
    /// Fail every `n`th scan, everywhere.
    pub fn fail_every(n: u64) -> Self {
        Self { fail_every: n, ..Self::default() }
    }

    /// Fail every `n`th metadata call, leaving scans healthy.
    pub fn fail_metadata_every(n: u64) -> Self {
        Self { metadata_fail_every: n, ..Self::default() }
    }

    /// Add `secs` of virtual latency to every scan, failing none.
    pub fn slow(secs: f64) -> Self {
        Self { extra_latency_secs: secs, ..Self::default() }
    }

    /// Block every scan for `secs` of *real* wall-clock time (a stalled
    /// warehouse model), failing none.
    pub fn hang(secs: f64) -> Self {
        Self { hang_every: 1, hang_secs: secs, ..Self::default() }
    }

    fn matches(&self, database: &str, table: &str) -> bool {
        match &self.only_table {
            None => true,
            Some((db, t)) => db == database && t == table,
        }
    }
}

/// A [`WarehouseBackend`] decorator injecting faults per a [`FaultPlan`].
pub struct FaultInjector {
    inner: BackendHandle,
    plan: FaultPlan,
    /// Matching scans attempted (failed ones included).
    scans: AtomicU64,
    /// Metadata calls attempted (failed ones included) — a separate
    /// stream, so enabling metadata faults never shifts the deterministic
    /// scan-fault schedule.
    meta_calls: AtomicU64,
    /// Faults injected so far (scan and metadata combined).
    faults: AtomicU64,
    /// Real blocking hangs injected so far.
    hangs: AtomicU64,
    /// Injected virtual latency, nanoseconds.
    injected_nanos: AtomicU64,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("inner", &self.inner.name())
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Wrap `inner` with the given plan.
    pub fn new(inner: BackendHandle, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            scans: AtomicU64::new(0),
            meta_calls: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            hangs: AtomicU64::new(0),
            injected_nanos: AtomicU64::new(0),
        }
    }

    /// The plan in effect.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// How many faults have been injected.
    pub fn faults_injected(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// How many real blocking hangs have been injected.
    pub fn hangs_injected(&self) -> u64 {
        self.hangs.load(Ordering::Relaxed)
    }

    /// Decide the fate of one matching scan: count it, then either inject
    /// a fault or charge the extra latency. Returns the virtual latency
    /// this scan was charged, nanoseconds.
    fn gate(&self, database: &str, table: &str, what: &str) -> StoreResult<u64> {
        if !self.plan.matches(database, table) {
            return Ok(0);
        }
        let n = self.scans.fetch_add(1, Ordering::Relaxed) + 1;
        if self.plan.hang_every > 0 && self.plan.hang_secs > 0.0 && n % self.plan.hang_every == 0 {
            // A real stall, not a virtual charge: the caller's thread
            // blocks exactly as it would on a wedged warehouse. Runs
            // before the fail gate so a scan can hang *and then* fail,
            // like a timeout observed only after the stall.
            self.hangs.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_secs_f64(self.plan.hang_secs));
        }
        if self.plan.fail_every > 0 && n % self.plan.fail_every == 0 {
            self.faults.fetch_add(1, Ordering::Relaxed);
            // Injected faults model the transient class of failure
            // (timeouts, suspended warehouses), so they are retryable —
            // which is what lets `RetryBackend` prove itself against this
            // wrapper.
            return Err(StoreError::Unavailable(format!(
                "injected fault on scan #{n} ({what} of {database}.{table})"
            )));
        }
        if self.plan.extra_latency_secs <= 0.0 {
            return Ok(0);
        }
        let nanos = (self.plan.extra_latency_secs * 1e9) as u64;
        self.injected_nanos.fetch_add(nanos, Ordering::Relaxed);
        Ok(nanos)
    }

    /// Decide the fate of one metadata call (the catalog tier).
    fn gate_metadata(&self, what: &str) -> StoreResult<()> {
        if self.plan.metadata_fail_every == 0 {
            return Ok(());
        }
        let n = self.meta_calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n % self.plan.metadata_fail_every == 0 {
            self.faults.fetch_add(1, Ordering::Relaxed);
            return Err(StoreError::Unavailable(format!(
                "injected fault on metadata call #{n} ({what})"
            )));
        }
        Ok(())
    }
}

/// Injected virtual latency as a cost: nothing but `virtual_secs`.
fn latency(nanos: u64) -> CostSnapshot {
    CostSnapshot { virtual_secs: nanos as f64 / 1e9, ..CostSnapshot::default() }
}

impl WarehouseBackend for FaultInjector {
    fn name(&self) -> String {
        format!("faulty:{}", self.inner.name())
    }

    fn list_tables(&self) -> StoreResult<Vec<TableMeta>> {
        self.gate_metadata("list_tables")?;
        self.inner.list_tables()
    }

    fn table_meta(&self, database: &str, table: &str) -> StoreResult<TableMeta> {
        self.gate_metadata("table_meta")?;
        self.inner.table_meta(database, table)
    }

    fn scan_column(&self, r: &ColumnRef, sample: SampleSpec) -> StoreResult<Column> {
        self.gate(&r.database, &r.table, "scan_column")?;
        self.inner.scan_column(r, sample)
    }

    fn scan_column_metered(
        &self,
        r: &ColumnRef,
        sample: SampleSpec,
    ) -> StoreResult<(Column, CostSnapshot)> {
        let injected = self.gate(&r.database, &r.table, "scan_column")?;
        let (column, inner) = self.inner.scan_column_metered(r, sample)?;
        Ok((column, inner.plus(&latency(injected))))
    }

    fn scan_table(&self, database: &str, table: &str, sample: SampleSpec) -> StoreResult<Table> {
        self.gate(database, table, "scan_table")?;
        self.inner.scan_table(database, table, sample)
    }

    fn costs(&self) -> CostSnapshot {
        self.inner.costs().plus(&latency(self.injected_nanos.load(Ordering::Relaxed)))
    }

    fn reset_costs(&self) {
        self.inner.reset_costs();
        self.injected_nanos.store(0, Ordering::Relaxed);
    }

    fn validate_column(&self, r: &ColumnRef) -> StoreResult<()> {
        self.inner.validate_column(r)
    }

    fn snapshot_versions(&self) -> StoreResult<Vec<TableVersion>> {
        self.gate_metadata("snapshot_versions")?;
        self.inner.snapshot_versions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Database, Warehouse};
    use crate::cdw::{CdwConfig, CdwConnector};
    use std::sync::Arc;

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
        db.add_table(Table::new("u", vec![Column::ints("b", (0..20).collect())]).unwrap());
        w.add_database(db);
        Arc::new(CdwConnector::new(w, CdwConfig::free()))
    }

    #[test]
    fn default_plan_is_transparent() {
        let f = FaultInjector::new(inner(), FaultPlan::default());
        let r = ColumnRef::new("db", "t", "a");
        for _ in 0..10 {
            assert!(f.scan_column(&r, SampleSpec::Full).is_ok());
        }
        assert_eq!(f.faults_injected(), 0);
        assert_eq!(f.costs().requests, 10);
    }

    #[test]
    fn fail_every_n_is_deterministic() {
        let f = FaultInjector::new(inner(), FaultPlan::fail_every(3));
        let r = ColumnRef::new("db", "t", "a");
        let outcomes: Vec<bool> =
            (0..9).map(|_| f.scan_column(&r, SampleSpec::Full).is_ok()).collect();
        assert_eq!(outcomes, vec![true, true, false, true, true, false, true, true, false]);
        assert_eq!(f.faults_injected(), 3);
    }

    #[test]
    fn faults_scope_to_one_table() {
        let plan = FaultPlan {
            fail_every: 1,
            only_table: Some(("db".into(), "t".into())),
            ..FaultPlan::default()
        };
        let f = FaultInjector::new(inner(), plan);
        assert!(f.scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Full).is_err());
        assert!(f.scan_column(&ColumnRef::new("db", "u", "b"), SampleSpec::Full).is_ok());
        assert!(f.scan_table("db", "u", SampleSpec::Full).is_ok());
        assert!(f.scan_table("db", "t", SampleSpec::Full).is_err());
    }

    #[test]
    fn extra_latency_lands_in_costs_and_resets() {
        let f = FaultInjector::new(inner(), FaultPlan::slow(0.25));
        let r = ColumnRef::new("db", "t", "a");
        f.scan_column(&r, SampleSpec::Full).unwrap();
        f.scan_column(&r, SampleSpec::Full).unwrap();
        let c = f.costs();
        assert!(c.virtual_secs >= 0.5, "injected latency missing: {c:?}");
        assert_eq!(c.requests, 2, "inner billing must pass through");
        f.reset_costs();
        assert_eq!(f.costs().virtual_secs, 0.0);
        assert_eq!(f.costs().requests, 0);
    }

    #[test]
    fn metadata_never_faults_by_default() {
        let f = FaultInjector::new(inner(), FaultPlan::fail_every(1));
        assert!(f.list_tables().is_ok());
        assert!(f.table_meta("db", "t").is_ok());
        assert!(f.validate_column(&ColumnRef::new("db", "t", "a")).is_ok());
        assert!(f.snapshot_versions().is_ok());
        assert_eq!(f.faults_injected(), 0);
    }

    #[test]
    fn metadata_faults_are_deterministic_and_leave_scans_healthy() {
        let f = FaultInjector::new(inner(), FaultPlan::fail_metadata_every(3));
        // The three metadata entry points share one counter: every third
        // call dies, whatever mix of calls made up the stream.
        let outcomes = [
            f.list_tables().is_ok(),
            f.table_meta("db", "t").is_ok(),
            f.snapshot_versions().is_ok(),
            f.snapshot_versions().is_ok(),
            f.list_tables().is_ok(),
            f.table_meta("db", "u").is_ok(),
        ];
        assert_eq!(outcomes, [true, true, false, true, true, false]);
        assert_eq!(f.faults_injected(), 2);
        // Scans ride a separate counter and separate plan knob.
        let r = ColumnRef::new("db", "t", "a");
        for _ in 0..5 {
            assert!(f.scan_column(&r, SampleSpec::Full).is_ok());
        }
        // Validation is never part of the metadata fault surface.
        assert!(f.validate_column(&r).is_ok());
    }

    #[test]
    fn hang_fault_blocks_real_wall_clock_time() {
        let f = FaultInjector::new(inner(), FaultPlan::hang(0.05));
        let r = ColumnRef::new("db", "t", "a");
        let start = std::time::Instant::now();
        f.scan_column(&r, SampleSpec::Full).unwrap();
        let elapsed = start.elapsed();
        assert!(elapsed >= std::time::Duration::from_millis(50), "no real stall: {elapsed:?}");
        assert_eq!(f.hangs_injected(), 1);
        // Hangs are not failures: nothing lands in the fault counter and
        // the scan's bill passes through untouched.
        assert_eq!(f.faults_injected(), 0);
        assert_eq!(f.costs().requests, 1);
    }

    #[test]
    fn hang_every_n_is_deterministic_and_scoped() {
        let plan = FaultPlan {
            hang_every: 2,
            hang_secs: 0.03,
            only_table: Some(("db".into(), "t".into())),
            ..FaultPlan::default()
        };
        let f = FaultInjector::new(inner(), plan);
        // Non-matching scans never hang.
        let start = std::time::Instant::now();
        for _ in 0..4 {
            f.scan_column(&ColumnRef::new("db", "u", "b"), SampleSpec::Full).unwrap();
        }
        assert!(start.elapsed() < std::time::Duration::from_millis(30));
        assert_eq!(f.hangs_injected(), 0);
        // Matching scans hang on the even counts only.
        for expected in [0u64, 1, 1, 2] {
            f.scan_column(&ColumnRef::new("db", "t", "a"), SampleSpec::Full).unwrap();
            assert_eq!(f.hangs_injected(), expected);
        }
    }

    #[test]
    fn hang_composes_with_fail_gate() {
        // Every scan hangs, every second scan then fails: the stalled-
        // then-timed-out shape. One shared counter keeps it deterministic.
        let plan = FaultPlan { hang_every: 1, hang_secs: 0.01, ..FaultPlan::fail_every(2) };
        let f = FaultInjector::new(inner(), plan);
        let r = ColumnRef::new("db", "t", "a");
        let outcomes: Vec<bool> =
            (0..4).map(|_| f.scan_column(&r, SampleSpec::Full).is_ok()).collect();
        assert_eq!(outcomes, vec![true, false, true, false]);
        assert_eq!(f.hangs_injected(), 4);
        assert_eq!(f.faults_injected(), 2);
    }

    #[test]
    fn metadata_faults_do_not_shift_the_scan_schedule() {
        // Same scan outcomes as `fail_every_n_is_deterministic`, even with
        // metadata faulting enabled and interleaved metadata calls.
        let plan = FaultPlan { metadata_fail_every: 2, ..FaultPlan::fail_every(3) };
        let f = FaultInjector::new(inner(), plan);
        let r = ColumnRef::new("db", "t", "a");
        let outcomes: Vec<bool> = (0..9)
            .map(|_| {
                let _ = f.list_tables();
                f.scan_column(&r, SampleSpec::Full).is_ok()
            })
            .collect();
        assert_eq!(outcomes, vec![true, true, false, true, true, false, true, true, false]);
    }
}
