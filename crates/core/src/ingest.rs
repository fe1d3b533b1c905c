//! The indexing pipeline (paper Fig. 2, left): scan → embed → insert, for a
//! whole warehouse, one table, or — [`WarpGate::sync`] — exactly what
//! changed since the last run; and the one ordered fan-out
//! ([`in_order`]) that both pipelines spread their per-column work with.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use wg_lsh::Signature;
use wg_store::{BackendId, ColumnRef, CostSnapshot, StoreResult, TableMeta, TableRef};
use wg_util::deadline::{Deadline, Phase};
use wg_util::timing::Stopwatch;
use wg_util::FxHashMap;

use crate::system::{deadline_err, Attached, TableState, WarpGate};

/// The most items one claim of [`in_order`] takes, and therefore the most
/// one `commit` receives: indexing's commit holds the state's write guard
/// across one chunk, so this bounds how long a concurrent query can wait
/// behind a build.
const MAX_CHUNK: usize = 64;

/// Summary of one indexing run.
#[derive(Debug, Clone, Copy)]
pub struct IndexReport {
    /// Columns whose embeddings entered the index.
    pub columns_indexed: usize,
    /// Columns skipped (no embeddable content — all NULL or symbols).
    pub columns_skipped: usize,
    /// Wall-clock seconds for the whole run.
    pub elapsed_secs: f64,
    /// Warehouse scan costs incurred by the run's own scans (what each one
    /// metered, summed: a concurrent query's scans are not in it).
    pub cost: CostSnapshot,
}

/// Summary of one [`WarpGate::sync`] reconciliation.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// Tables seen for the first time (scanned and indexed in full).
    pub tables_added: usize,
    /// Tables whose version token changed (re-scanned and re-indexed).
    pub tables_updated: usize,
    /// Tables that vanished from the backend (dropped from the index).
    pub tables_removed: usize,
    /// Columns (re-)embedded and inserted by this sync.
    pub columns_indexed: usize,
    /// Columns scanned but skipped (no embeddable content).
    pub columns_skipped: usize,
    /// Columns dropped: vanished tables, vanished columns of changed
    /// tables, and indexed columns whose new content no longer embeds
    /// (those count as skipped too, as a fresh build would count them).
    pub columns_removed: usize,
    /// Wall-clock seconds for the reconciliation.
    pub elapsed_secs: f64,
    /// Warehouse scan costs of the sync's own scans — proportional to what
    /// changed, not to warehouse size.
    pub cost: CostSnapshot,
    /// Per-backend slices of a federated [`WarpGate::sync`] run, in
    /// [`BackendId`] order: each entry's counters and cost bill exactly
    /// one namespace. Empty for single-backend reports (the entries
    /// themselves, and what `sync_with(Some(id), ..)` returns).
    pub per_backend: Vec<(BackendId, SyncReport)>,
}

impl SyncReport {
    /// True when the backend matched the index and nothing was touched.
    pub fn is_noop(&self) -> bool {
        self.tables_added == 0 && self.tables_updated == 0 && self.tables_removed == 0
    }

    /// Fold one backend's reconciliation into this federated total.
    fn absorb(&mut self, id: BackendId, one: SyncReport) {
        self.tables_added += one.tables_added;
        self.tables_updated += one.tables_updated;
        self.tables_removed += one.tables_removed;
        self.columns_indexed += one.columns_indexed;
        self.columns_skipped += one.columns_skipped;
        self.columns_removed += one.columns_removed;
        self.cost = self.cost.plus(&one.cost);
        self.per_backend.push((id, one));
    }
}

impl WarpGate {
    /// Index every column of every attached warehouse: scan (sampled) →
    /// embed → insert, one backend at a time. Scanning and embedding fan
    /// out over worker threads (`ingest::in_order`); columns register **in
    /// catalog order**, so item ids — and everything placed by id — are a
    /// function of the warehouse, not of thread timing.
    pub fn index_warehouse(&self) -> StoreResult<IndexReport> {
        let ids = self.require_attached()?;
        let sw = Stopwatch::start();
        let mut report = IndexReport {
            columns_indexed: 0,
            columns_skipped: 0,
            elapsed_secs: 0.0,
            cost: CostSnapshot::default(),
        };
        for id in ids {
            let run = self.resolve(id)?;
            // Version tokens are fetched *before* scanning but recorded only
            // after the run succeeds: if content changes mid-run the recorded
            // token is the older one and the next sync re-scans
            // (conservative), and a failed run records nothing at all.
            let metas = run.backend.list_tables()?;
            let (one, _) = self.index_tables(&run, &metas, Deadline::none())?;
            self.record_synced(&run, &metas);
            report.columns_indexed += one.columns_indexed;
            report.columns_skipped += one.columns_skipped;
            report.cost = report.cost.plus(&one.cost);
        }
        report.elapsed_secs = sw.elapsed_secs();
        Ok(report)
    }

    /// Index (or refresh) a single table in its ref's namespace — the
    /// incremental path for CDWs with high update rates.
    pub fn index_table(&self, table: &TableRef) -> StoreResult<IndexReport> {
        let run = self.resolve(table.backend)?;
        let meta = run.backend.table_meta(&table.database, &table.table)?;
        let (report, _) = self.index_tables(&run, std::slice::from_ref(&meta), Deadline::none())?;
        self.record_synced(&run, std::slice::from_ref(&meta));
        Ok(report)
    }

    /// Reconcile the index with every attached backend, touching only what
    /// changed: [`Self::sync_with`] over all namespaces, no deadline.
    pub fn sync(&self) -> StoreResult<SyncReport> {
        self.sync_with(None, Deadline::none())
    }

    /// Reconcile the index with one backend (`Some(id)`) or with every
    /// attached one (`None`), under a cooperative deadline. Each namespace
    /// diffs independently against its own recorded version tokens:
    ///
    /// * tables whose token changed are re-scanned, re-embedded, and
    ///   re-indexed (their cached query embeddings are evicted; their
    ///   existing ids are kept, so only their own LSH entries are
    ///   rewritten); a column whose new content no longer embeds drops
    ///   out, exactly as a fresh build would skip it;
    /// * columns that vanished from a changed table, and whole vanished
    ///   tables, drop out of the registry, index, and cache;
    /// * everything else — index entries, cache entries, every other
    ///   namespace — stays warm and untouched.
    ///
    /// Scan cost (and [`SyncReport::cost`]) is therefore proportional to
    /// the change set, not the warehouse; an all-backends report carries
    /// each namespace's slice in [`SyncReport::per_backend`].
    ///
    /// The run checks the deadline before every column scan, so an expired
    /// one stops the reconciliation *between* scans — zero further columns
    /// billed — and fails with `StoreError::DeadlineExceeded`. Nothing is
    /// recorded for the interrupted backend (tokens commit only after its
    /// scans succeed), so the next sync retries the same change set.
    ///
    /// Counts against admission like every serving entry point (a long
    /// sync holds one slot for its whole run).
    pub fn sync_with(
        &self,
        backend: Option<BackendId>,
        deadline: Deadline,
    ) -> StoreResult<SyncReport> {
        let _permit = self.acquire_admission()?;
        let Some(id) = backend else {
            let sw = Stopwatch::start();
            let mut total = SyncReport::default();
            for id in self.require_attached()? {
                total.absorb(id, self.sync_one(id, deadline)?);
            }
            total.elapsed_secs = sw.elapsed_secs();
            return Ok(total);
        };
        self.sync_one(id, deadline)
    }

    /// Diff one namespace's version tokens and re-scan only its change
    /// set (see [`Self::sync_with`]).
    fn sync_one(&self, id: BackendId, deadline: Deadline) -> StoreResult<SyncReport> {
        let run = self.resolve(id)?;
        let backend = run.backend.as_ref();
        let sw = Stopwatch::start();
        // Diff on the cheap change-token surface; full metadata (column
        // lists) is fetched per table below, and only for the change set —
        // on a file-backed backend this is the difference between hashing
        // every file and parsing every file on a no-op sync.
        let versions = backend.snapshot_versions()?;

        let recorded: FxHashMap<(String, String), TableState> =
            self.state.read().namespaces.get(&id).map(|n| n.tables.clone()).unwrap_or_default();
        let mut report = SyncReport::default();

        // Vanished tables drop out entirely.
        let current: wg_util::FxHashSet<(&str, &str)> =
            versions.iter().map(|v| (v.database.as_str(), v.table.as_str())).collect();
        for (database, table) in recorded.keys() {
            if !current.contains(&(database.as_str(), table.as_str())) {
                report.columns_removed += self.remove_table(&TableRef::scoped(id, database, table));
                report.tables_removed += 1;
            }
        }

        // Added and changed tables re-index; unchanged tables are skipped.
        let mut changed: Vec<TableMeta> = Vec::new();
        for v in &versions {
            let key = (v.database.clone(), v.table.clone());
            let known = match recorded.get(&key) {
                Some(st) if st.epoch == run.epoch && st.version == v.version => continue,
                Some(_) => true,
                None => false,
            };
            let meta = backend.table_meta(&v.database, &v.table)?;
            if known {
                report.tables_updated += 1;
                // Columns that vanished from the still-present table. Their
                // cached embeddings go with the table's in `index_tables`.
                let mut state = self.state.write();
                let table = TableRef::scoped(id, &meta.database, &meta.table);
                let mut vanished = state.registry.table_refs(&table);
                vanished.retain(|r| !meta.columns.contains(&r.column));
                report.columns_removed += state.remove(&vanished);
            } else {
                report.tables_added += 1;
            }
            changed.push(meta);
        }

        let (indexed, unembeddable) = self.index_tables(&run, &changed, deadline)?;
        // Tokens (fetched before the scans) are committed only now that
        // the scans succeeded — a failed sync records nothing, so the next
        // one retries the same change set.
        self.record_synced(&run, &changed);
        report.columns_indexed = indexed.columns_indexed;
        report.columns_skipped = indexed.columns_skipped;
        report.columns_removed += unembeddable;
        report.elapsed_secs = sw.elapsed_secs();
        report.cost = indexed.cost;
        Ok(report)
    }

    /// Embed a scanned column, blending in §5.2.1 schema context with
    /// weight `beta` when it is positive. Context comes from free catalog
    /// metadata: `table_columns` is the column list of `r`'s table (the
    /// siblings are the others on it).
    pub(crate) fn embed_with_context(
        &self,
        r: &ColumnRef,
        column: &wg_store::Column,
        table_columns: &[String],
        beta: f32,
    ) -> wg_embed::Vector {
        let values = self.embedder.embed_column(column);
        if beta <= 0.0 {
            return values;
        }
        let context = wg_embed::ColumnContext {
            column_name: r.column.clone(),
            table_name: r.table.clone(),
            siblings: table_columns.iter().filter(|n| *n != &r.column).cloned().collect(),
        };
        let ctx = wg_embed::context_vector(self.embedder.model().as_ref(), &context);
        wg_embed::blend_context(&values, &ctx, beta)
    }

    /// Scan → embed → insert every column of `tables`, in that order: the
    /// report, and how many previously indexed columns dropped out because
    /// their content no longer embeds. Every worker checks the deadline
    /// before each scan, so expiry — like any scan error — stops the run
    /// between scans with no further column billed. The report's cost is
    /// the sum of what each of the run's own scans metered — metadata is
    /// free — so a concurrent query's scans are never billed to it. Schema
    /// context reads the column lists the caller already holds: no metadata
    /// call is made here.
    fn index_tables(
        &self,
        run: &Attached,
        tables: &[TableMeta],
        deadline: Deadline,
    ) -> StoreResult<(IndexReport, usize)> {
        let sw = Stopwatch::start();
        let backend = run.backend.as_ref();

        // (Re-)indexing means these tables' warehouse data may have
        // changed; cached query embeddings for them are stale.
        for meta in tables {
            self.cache.invalidate_table(&TableRef::scoped(run.id, &meta.database, &meta.table));
        }
        let refs: Vec<(ColumnRef, &TableMeta)> = tables
            .iter()
            .flat_map(|meta| meta.scoped_column_refs(run.id).into_iter().map(move |r| (r, meta)))
            .collect();

        let (mut indexed, mut skipped, mut unembeddable) = (0usize, 0usize, 0usize);
        let mut cost = CostSnapshot::default();
        in_order(
            &refs,
            self.config.effective_threads(),
            |(r, meta)| -> StoreResult<(wg_embed::Vector, Option<Signature>, CostSnapshot)> {
                deadline.check(Phase::Scan).map_err(deadline_err)?;
                let (column, billed) = backend.scan_column_metered(r, self.config.sample)?;
                let vector =
                    self.embed_with_context(r, &column, &meta.columns, self.config.context_weight);
                // Signed here, on the worker, so the commit's write guard
                // covers bucket pushes only. A zero vector is not indexed.
                let sig = (!vector.is_zero()).then(|| self.hasher.sign(vector.as_slice()));
                Ok((vector, sig, billed))
            },
            |refs, scanned| {
                // One write guard maps the chunk's refs to ids, in catalog
                // order, and inserts their rows. A ref the registry knows
                // whose vector came back zero must not keep its old row.
                let mut state = self.state.write();
                let mut stale = Vec::new();
                for ((r, _), (vector, sig, billed)) in refs.iter().zip(scanned) {
                    cost = cost.plus(&billed);
                    match sig {
                        Some(sig) => {
                            let id = state.registry.insert(r.clone());
                            state.index.insert_signed(id, vector.as_slice(), sig);
                        }
                        None => stale.push(r.clone()),
                    }
                }
                indexed += refs.len() - stale.len();
                skipped += stale.len();
                unembeddable += state.remove(&stale);
            },
        )?;
        let report = IndexReport {
            columns_indexed: indexed,
            columns_skipped: skipped,
            elapsed_secs: sw.elapsed_secs(),
            cost,
        };
        Ok((report, unembeddable))
    }

    /// Remove one (namespaced) table's columns from the index (e.g. after
    /// a drop), and forget its recorded token. Returns how many columns
    /// were removed. One write guard covers the victims, the token, the
    /// registry and the index.
    pub fn remove_table(&self, table: &TableRef) -> usize {
        let removed = {
            let mut state = self.state.write();
            if let Some(namespace) = state.namespaces.get_mut(&table.backend) {
                namespace.tables.remove(&(table.database.clone(), table.table.clone()));
            }
            let victims = state.registry.table_refs(table);
            state.remove(&victims)
        };
        self.cache.invalidate_table(table);
        removed
    }
}

/// The system's one fan-out: run `work` over `items` on `threads` threads
/// — the caller is one of them, so one thread or one item spawns nothing —
/// and hand the results to `commit` **on the calling thread, in item
/// order**, one chunk at a time, each as soon as every earlier chunk is
/// done. Results therefore stream: what is held back is only what finished
/// ahead of a straggler.
///
/// Work is claimed in contiguous chunks off one atomic counter (about four
/// per thread, at most [`MAX_CHUNK`] items), so dispatch costs one
/// increment per chunk and a slow chunk cannot gate the rest on one worker.
/// The first error raises a flag that every worker checks before each
/// item, so nobody starts (and bills) another one; a failed chunk never
/// commits, and so neither does any chunk after it. The first error to
/// arrive is the one returned.
pub(crate) fn in_order<T, R, E>(
    items: &[T],
    threads: usize,
    work: impl Fn(&T) -> Result<R, E> + Sync,
    mut commit: impl FnMut(&[T], Vec<R>),
) -> Result<(), E>
where
    T: Sync,
    R: Send,
    E: Send,
{
    let threads = threads.clamp(1, items.len().max(1));
    let chunk = items.len().div_ceil(threads * 4).clamp(1, MAX_CHUNK);
    let chunks: Vec<&[T]> = items.chunks(chunk).collect();
    // Relaxed on both: the counter hands out indices into `chunks`, which
    // is complete before any thread starts, and the flag publishes nothing
    // (the error itself travels through the channel).
    let claimed = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Claim and work one chunk. `None`: nothing left to claim, or stopped.
    let run_chunk = || -> Option<(usize, Result<Vec<R>, E>)> {
        let i = claimed.fetch_add(1, Ordering::Relaxed);
        let chunk = *chunks.get(i)?;
        let mut out = Vec::with_capacity(chunk.len());
        for item in chunk {
            if stop.load(Ordering::Relaxed) {
                return None;
            }
            match work(item) {
                Ok(r) => out.push(r),
                Err(e) => {
                    stop.store(true, Ordering::Relaxed);
                    return Some((i, Err(e)));
                }
            }
        }
        Some((i, Ok(out)))
    };

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 1..threads {
            let done_tx = done_tx.clone();
            let run_chunk = &run_chunk;
            scope.spawn(move || {
                while let Some(done) = run_chunk() {
                    if done_tx.send(done).is_err() {
                        break;
                    }
                }
            });
        }
        drop(done_tx);

        // Chunks that finished ahead of an earlier one wait here.
        let mut early: BTreeMap<usize, Vec<R>> = BTreeMap::new();
        let mut next = 0usize;
        let mut failed: Option<E> = None;
        let mut absorb = |(i, out): (usize, Result<Vec<R>, E>)| match out {
            Ok(results) => {
                early.insert(i, results);
                while let Some(results) = early.remove(&next) {
                    commit(chunks[next], results);
                    next += 1;
                }
            }
            Err(e) => {
                failed.get_or_insert(e);
            }
        };
        while let Some(done) = run_chunk() {
            absorb(done);
            done_rx.try_iter().for_each(&mut absorb);
        }
        // Ends when every worker has exited (a panicking one included: its
        // sender drops, and the scope re-raises the panic on the way out).
        done_rx.iter().for_each(&mut absorb);
        failed.map_or(Ok(()), Err)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wg_util::rng::{Rng64, Xoshiro256pp};

    /// `in_order` over `0..n`, committing into one flat list; also returns
    /// the size of every commit.
    fn fan_out(
        n: usize,
        threads: usize,
        work: impl Fn(&usize) -> Result<usize, String> + Sync,
    ) -> (Result<(), String>, Vec<usize>, Vec<usize>) {
        let items: Vec<usize> = (0..n).collect();
        let (mut committed, mut sizes) = (Vec::new(), Vec::new());
        let outcome = in_order(&items, threads, work, |chunk, results| {
            assert_eq!(chunk.len(), results.len());
            sizes.push(results.len());
            committed.extend(results);
        });
        (outcome, committed, sizes)
    }

    #[test]
    fn fan_out_commits_every_item_once_in_item_order() {
        for n in [0, 1, 63, 64, 65, 1_000] {
            for threads in [1, 2, 8, 64] {
                let (outcome, committed, sizes) = fan_out(n, threads, |i| Ok(*i));
                assert_eq!(outcome, Ok(()));
                assert_eq!(committed, (0..n).collect::<Vec<_>>(), "{n} items, {threads} threads");
                assert!(sizes.iter().all(|s| (1..=MAX_CHUNK).contains(s)), "{sizes:?}");
            }
        }
    }

    #[test]
    fn fan_out_commits_in_item_order_when_the_first_chunk_is_the_slowest() {
        // 1,000 items on 8 threads is 32 chunks of 32: the first takes ~60 ms
        // while every other one finishes in well under one.
        let mut rng = Xoshiro256pp::new(21);
        let micros: Vec<u64> =
            (0..1_000).map(|i| if i < 32 { 2_000 } else { rng.gen_range(20) }).collect();
        let (outcome, committed, sizes) = fan_out(1_000, 8, |i| {
            std::thread::sleep(std::time::Duration::from_micros(micros[*i]));
            Ok(*i)
        });
        assert_eq!(outcome, Ok(()));
        assert_eq!(committed, (0..1_000).collect::<Vec<_>>());
        assert_eq!(sizes.len(), 32, "one commit per chunk, none merged: {sizes:?}");
    }

    #[test]
    fn fan_out_spawns_nothing_for_one_thread_or_one_item() {
        let caller = std::thread::current().id();
        for (n, threads) in [(1_000, 1), (1, 8)] {
            let (outcome, committed, _) = fan_out(n, threads, |i| {
                assert_eq!(std::thread::current().id(), caller, "work left the calling thread");
                Ok(*i)
            });
            assert_eq!((outcome, committed.len()), (Ok(()), n));
        }
    }

    #[test]
    fn fan_out_stops_at_the_first_error() {
        // One thread: exactly the items before the failing one ran, and
        // only the chunks before its chunk committed.
        let calls = AtomicUsize::new(0);
        let (outcome, committed, _) = fan_out(1_000, 1, |i| {
            calls.fetch_add(1, Ordering::SeqCst);
            if *i == 500 {
                Err(format!("item {i}"))
            } else {
                Ok(*i)
            }
        });
        assert_eq!(outcome, Err("item 500".to_string()));
        assert_eq!(calls.load(Ordering::SeqCst), 501);
        assert_eq!(committed, (0..448).collect::<Vec<_>>(), "chunks of 64: 500 is in the eighth");

        // Eight threads: whoever is mid-item finishes it, and nobody starts
        // another. `failing` is raised a few instructions before the
        // fan-out's own flag; the pause covers that gap (it orders nothing —
        // without it the bound below could only be missed, never met
        // wrongly).
        let failing = AtomicBool::new(false);
        let started_after = AtomicUsize::new(0);
        let (outcome, committed, _) = fan_out(1_000, 8, |i| {
            if failing.load(Ordering::SeqCst) {
                started_after.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            if *i == 500 {
                failing.store(true, Ordering::SeqCst);
                return Err(format!("item {i}"));
            }
            Ok(*i)
        });
        assert_eq!(outcome, Err("item 500".to_string()));
        assert!(started_after.load(Ordering::SeqCst) <= 8, "{started_after:?} items started late");
        assert!(committed.len() <= 480, "500 is in the chunk of 480..512: {}", committed.len());
        assert_eq!(committed, (0..committed.len()).collect::<Vec<_>>());
    }

    #[test]
    fn fan_out_propagates_a_panic_in_work() {
        for threads in [1, 4] {
            let outcome = std::panic::catch_unwind(|| {
                fan_out(1_000, threads, |i| {
                    assert_ne!(*i, 700, "work panics on item 700");
                    Ok(*i)
                })
            });
            assert!(outcome.is_err(), "{threads} threads: the panic was swallowed");
        }
    }
}
