//! The search pipeline (paper Fig. 2, right): scan → embed → LSH lookup →
//! exact re-rank, and the lookup-join product interaction around it
//! (Fig. 3). Every serving verb enters through one request preamble
//! ([`WarpGate::admitted`]) and fetches embeddings through one function
//! ([`WarpGate::embedding`]).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use wg_lsh::{DiscoverScope, SearchError, SearchOutcome};
use wg_store::{BackendId, ColumnRef, KeyNorm, StoreError, StoreResult, Table};
use wg_util::deadline::{Deadline, Phase};
use wg_util::timing::Stopwatch;

use crate::admission::TenantId;
use crate::cache::EmbeddingKey;
use crate::ingest::in_order;
use crate::system::{deadline_err, Attached, WarpGate};
use crate::timing::QueryTiming;

/// One ranked join recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinCandidate {
    /// The candidate column (database, table, column — what the Sigma
    /// Workbooks window in Fig. 3 displays per row).
    pub reference: ColumnRef,
    /// Cosine similarity to the query column's embedding.
    pub score: f32,
}

/// The result of one discovery query.
#[derive(Debug, Clone)]
pub struct Discovery {
    /// The query column.
    pub query: ColumnRef,
    /// Ranked candidates, best first.
    pub candidates: Vec<JoinCandidate>,
    /// Wall-clock decomposition; `timing.backend` attributes the scan to
    /// the query column's namespace.
    pub timing: QueryTiming,
    /// LSH candidate-set diagnostics.
    pub outcome: SearchOutcome,
}

/// Per-request serving options of [`WarpGate::discover_with`],
/// [`WarpGate::discover_batch`] and [`WarpGate::joinability`] —
/// DESIGN.md §12.
///
/// `QueryOptions::default()` is the plain call: unscoped, no deadline,
/// anonymous tenant, no degraded serving.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Which backend namespaces the lookup may answer from: "find joins
    /// for this CDW column in the data lake only", or "everywhere but
    /// where it came from". The scope is pushed into LSH candidate
    /// generation — out-of-scope namespaces cost no exact scoring — and
    /// only the query column's own backend is ever scanned (and billed).
    pub scope: DiscoverScope,
    /// Cooperative request budget, checked at every pipeline phase
    /// boundary (validate → scan → embed → candidate-gen → re-rank →
    /// block-read). An expired deadline fails with
    /// [`StoreError::DeadlineExceeded`] *before* the next billed scan or
    /// cold block read — never mid-phase.
    pub deadline: Deadline,
    /// Tenant the request bills to, for [`crate::QuotaPolicy`]
    /// enforcement. `None` is anonymous: never quota-checked, never
    /// debited.
    pub tenant: Option<TenantId>,
    /// When admission control sheds a single [`WarpGate::discover_with`],
    /// opt into a **degraded** warm-cache-only answer instead of the
    /// `Overloaded` error: if the query embedding is cached, the index
    /// lookup (which bills no scans) still runs and the result is flagged
    /// [`QueryTiming::degraded`]. On a cache miss the `Overloaded` error
    /// propagates — degradation is opt-in and never silent, but it is also
    /// never a cold scan.
    pub allow_degraded: bool,
}

impl QueryOptions {
    /// Default options restricted to a backend scope.
    pub fn scoped(scope: DiscoverScope) -> Self {
        Self { scope, ..Self::default() }
    }
}

/// What one serving call's own metered scans charged — what its tenant is
/// debited. Batch workers add to it concurrently.
#[derive(Default)]
struct Bill {
    scans: AtomicU64,
    bytes: AtomicU64,
}

/// Whether an embedding miss may reach the backend.
enum Access<'a> {
    /// Scan, and charge the scan to the call's bill.
    Billed(&'a Bill),
    /// Admission shed the call, which opted into degraded serving: answer
    /// from a warm cache or fail with this `Overloaded` error.
    Shed(StoreError),
}

/// The resolved namespace of `id` — present because the preamble resolved
/// every namespace the request involves.
fn namespace(resolved: &[Attached], id: BackendId) -> &Attached {
    resolved.iter().find(|n| n.id == id).expect("the preamble resolved every involved namespace")
}

impl WarpGate {
    /// Discovery query for a warehouse column: load (sampled) → embed →
    /// LSH lookup → exact re-rank, over every attached namespace —
    /// [`Self::discover_with`] under default options.
    pub fn discover(&self, query: &ColumnRef, k: usize) -> StoreResult<Discovery> {
        self.discover_with(query, k, &QueryOptions::default())
    }

    /// Discovery under per-request serving options (§12): scope,
    /// cooperative deadline, tenant quota billing, and opt-in degraded
    /// serving under admission pressure.
    ///
    /// After the request preamble (`admitted`): cache probe → hit:
    /// validate → lookup / miss: metered scan → embed → lookup, with the
    /// deadline re-checked at every phase boundary. The scan and embed
    /// phases are skipped when the query embedding is cached from an
    /// earlier call (see [`QueryTiming::cache_hit`]). The scan is its own
    /// existence check (an unknown column fails `NotFound` before anything
    /// is billed), so a cold query costs the backend one call.
    pub fn discover_with(
        &self,
        query: &ColumnRef,
        k: usize,
        opts: &QueryOptions,
    ) -> StoreResult<Discovery> {
        self.admitted(
            opts,
            [query.backend],
            |resolved, overloaded| {
                if !opts.allow_degraded {
                    return Err(overloaded);
                }
                self.discover_one(&resolved[0], query, k, opts, true, Access::Shed(overloaded))
            },
            |resolved, bill| {
                self.discover_one(&resolved[0], query, k, opts, false, Access::Billed(bill))
            },
        )
    }

    /// The request preamble, written once for every serving verb: deadline
    /// gate → tenant quota gate → [`Self::resolve`] of each involved
    /// namespace → admission → `serve`, then the tenant's debit.
    ///
    /// Admission comes before the first backend call: shedding exists to
    /// protect a saturated warehouse, and over WGRP even a free existence
    /// check is a round trip. A shed request goes to `shed` with the
    /// `Overloaded` error instead — to return it, or to answer without the
    /// backend. Quota debits are **post-paid**: the tenant is billed what
    /// the call's own metered scans charged ([`Bill`]) — even a call that
    /// failed mid-flight, since those scans happened regardless — which may
    /// push its bucket negative (recovered by refill). Scans other callers
    /// make on the same backend meanwhile are theirs, never this tenant's.
    fn admitted<R>(
        &self,
        opts: &QueryOptions,
        involved: impl IntoIterator<Item = BackendId>,
        shed: impl FnOnce(&[Attached], StoreError) -> StoreResult<R>,
        serve: impl FnOnce(&[Attached], &Bill) -> StoreResult<R>,
    ) -> StoreResult<R> {
        opts.deadline.check(Phase::Validate).map_err(deadline_err)?;
        if let Some(tenant) = opts.tenant {
            self.quotas.admit(tenant)?;
        }
        let mut resolved: Vec<Attached> = Vec::new();
        for id in involved {
            if !resolved.iter().any(|n| n.id == id) {
                resolved.push(self.resolve(id)?);
            }
        }
        let _permit = match self.acquire_admission() {
            Ok(permit) => permit,
            Err(overloaded) => return shed(&resolved, overloaded),
        };
        let bill = Bill::default();
        let result = serve(&resolved, &bill);
        if let Some(tenant) = opts.tenant {
            self.quotas.debit(tenant, bill.scans.into_inner(), bill.bytes.into_inner());
        }
        result
    }

    /// One query after the preamble — the shared body of single queries,
    /// batch workers, and the degraded answer. `validated` says no
    /// existence check is wanted (batches validate everything up front and
    /// must not re-pay a catalog lookup per query; a degraded answer may
    /// not touch the backend); otherwise a cache hit checks existence
    /// itself, and a miss leaves it to the scan. A request admission shed
    /// ([`Access::Shed`]) is answered from a warm cache without a single
    /// backend call, flagged [`QueryTiming::degraded`], or not at all.
    fn discover_one(
        &self,
        run: &Attached,
        query: &ColumnRef,
        k: usize,
        opts: &QueryOptions,
        validated: bool,
        access: Access<'_>,
    ) -> StoreResult<Discovery> {
        let mut timing = QueryTiming {
            backend: Some(query.backend),
            degraded: matches!(access, Access::Shed(_)),
            ..QueryTiming::default()
        };
        let weight = self.config.context_weight;
        let vector =
            self.embedding(run, query, weight, opts.deadline, Some(&mut timing), access)?;
        if timing.cache_hit && !validated {
            run.backend.validate_column(query)?;
        }
        let (mut candidates, mut outcome) = (Vec::new(), SearchOutcome::default());
        if !vector.is_zero() {
            (candidates, outcome, timing.lookup_secs) =
                self.search_vector(&vector, query, k, &opts.scope, opts.deadline)?;
            timing.blocks_read = outcome.blocks_read as u64;
            timing.blocks_pruned = outcome.blocks_pruned as u64;
        }
        Ok(Discovery { query: query.clone(), candidates, timing, outcome })
    }

    /// A column's embedding, through the cache: probe → [`Phase::Scan`]
    /// check → metered scan → [`Phase::Embed`] check → embed → put, filling
    /// `timing` when the caller reports one. `context_weight` is both part
    /// of the cache key and the §5.2.1 blend applied on a miss; `0.0` is
    /// the value-only embedding (which coincides with discovery's when the
    /// system runs without contextual blending — the paper's
    /// configuration). Expiry fails with [`StoreError::DeadlineExceeded`]
    /// naming the phase that would have run next; a cache hit costs nothing
    /// and always succeeds. On a miss, [`Access::Billed`] scans and charges
    /// the scan to the call's bill; [`Access::Shed`] forbids the backend and
    /// returns its error instead. The put is dropped if a sync or removal
    /// invalidated the cache meanwhile: the scan may have read the content
    /// that invalidation was for.
    fn embedding(
        &self,
        run: &Attached,
        r: &ColumnRef,
        context_weight: f32,
        deadline: Deadline,
        timing: Option<&mut QueryTiming>,
        access: Access<'_>,
    ) -> StoreResult<Arc<wg_embed::Vector>> {
        let mut unreported = QueryTiming::default();
        let timing = timing.unwrap_or(&mut unreported);
        let key =
            EmbeddingKey::new(r, self.config.sample, self.config.seed, context_weight, run.epoch);
        let miss = match self.cache.get(&key) {
            Ok(vector) => {
                timing.cache_hit = true;
                return Ok(vector);
            }
            Err(miss) => miss,
        };
        let bill = match access {
            Access::Billed(bill) => bill,
            Access::Shed(overloaded) => return Err(overloaded),
        };
        deadline.check(Phase::Scan).map_err(deadline_err)?;
        let sw = Stopwatch::start();
        let (column, metered) = run.backend.scan_column_metered(r, self.config.sample)?;
        bill.scans.fetch_add(metered.requests, Ordering::Relaxed);
        bill.bytes.fetch_add(metered.bytes_scanned, Ordering::Relaxed);
        timing.load_secs = sw.elapsed_secs();
        timing.virtual_load_secs = metered.virtual_secs;
        timing.retries = metered.retries;

        deadline.check(Phase::Embed).map_err(deadline_err)?;
        let sw = Stopwatch::start();
        // Schema context costs the query one (free) metadata call.
        let table_columns = if context_weight > 0.0 {
            run.backend.table_meta(&r.database, &r.table).map(|m| m.columns).unwrap_or_default()
        } else {
            Vec::new()
        };
        let vector = Arc::new(self.embed_with_context(r, &column, &table_columns, context_weight));
        timing.embed_secs = sw.elapsed_secs();
        // Zero vectors are cached too: the (empty) answer is just as
        // repeatable, and skipping the re-scan is the whole point.
        self.cache.put(miss, key, vector.clone());
        Ok(vector)
    }

    /// Batched discovery: answer many queries in one call, fanning the
    /// scan → embed → lookup pipeline out over worker threads (the same
    /// `in_order` fan-out indexing uses). This is the warehouse-wide
    /// join-graph workload: results come back in input order, and repeated
    /// or previously seen query columns hit the embedding cache. Queries
    /// may span namespaces; each scans only its own backend.
    ///
    /// The whole batch runs under **one** admission slot (a batch is one
    /// caller; the cap bounds callers, not columns) and is shed whole —
    /// there is no degraded fallback for batches
    /// ([`QueryOptions::allow_degraded`] is ignored). Once admitted, every
    /// query is validated up front — one bad ref fails the batch before
    /// any column is scanned (and billed) — and workers skip the per-query
    /// catalog lookup. The deadline is re-checked before every per-query
    /// phase, and the named tenant is debited the batch's total metered
    /// scans/bytes across every backend it touched. The configured
    /// `threads` value is honored even past the hardware thread count:
    /// against a blocking backend (e.g. a remote warehouse over TCP)
    /// oversubscription is how in-flight scans overlap; the default
    /// (`threads == 0`) resolves to one worker per hardware thread, which
    /// is right for the in-process compute-bound backends.
    pub fn discover_batch(
        &self,
        queries: &[ColumnRef],
        k: usize,
        opts: &QueryOptions,
    ) -> StoreResult<Vec<Discovery>> {
        self.admitted(
            opts,
            queries.iter().map(|q| q.backend),
            |_, overloaded| Err(overloaded),
            |resolved, bill| {
                for q in queries {
                    namespace(resolved, q.backend).backend.validate_column(q)?;
                }
                let mut answers = Vec::with_capacity(queries.len());
                in_order(
                    queries,
                    self.config.effective_threads(),
                    |q| {
                        let run = namespace(resolved, q.backend);
                        self.discover_one(run, q, k, opts, true, Access::Billed(bill))
                    },
                    |_, chunk| answers.extend(chunk),
                )?;
                Ok(answers)
            },
        )
    }

    /// Ad-hoc discovery from raw values (no warehouse column backing the
    /// query — e.g. a user-pasted list), answered from `scope`'s
    /// namespaces. Works without an attached backend: only the index is
    /// consulted.
    pub fn discover_values<S: AsRef<str>>(
        &self,
        values: &[S],
        k: usize,
        scope: &DiscoverScope,
    ) -> Vec<JoinCandidate> {
        let vector = self.embedder.embed_values(values);
        if vector.is_zero() {
            return Vec::new();
        }
        let nowhere = ColumnRef::new("", "", "");
        self.search_vector(&vector, &nowhere, k, scope, Deadline::none())
            .unwrap_or_else(|e| panic!("lookup without a deadline failed: {e}"))
            .0
    }

    /// LSH lookup + exact re-rank of one query vector, signed before the
    /// state's read guard is taken; the exclusion predicate, the search and
    /// the id → ref mapping then share that one guard. The deadline is
    /// threaded into the lookup itself: candidate generation, re-rank, and
    /// every paged-tier block fetch each check the budget first, so an
    /// expired deadline never triggers another cold read.
    fn search_vector(
        &self,
        vector: &wg_embed::Vector,
        query: &ColumnRef,
        k: usize,
        scope: &DiscoverScope,
        deadline: Deadline,
    ) -> StoreResult<(Vec<JoinCandidate>, SearchOutcome, f64)> {
        let sw = Stopwatch::start();
        let v = vector.as_slice();
        let sig = self.hasher.sign(v);
        let state = self.state.read();
        let exclude = state.registry.excluder(query, self.config.exclude_same_table);
        let (hits, outcome) = state
            .index
            .search_signed_scoped_deadline_with_outcome(v, &sig, k, scope, deadline, exclude)
            .map_err(|e| match e {
                SearchError::Expired(phase) => deadline_err(phase),
                // A cold block that no longer reads back intact: the paged
                // tier is this system's own storage backend.
                storage @ SearchError::Storage(_) => StoreError::Backend(storage.to_string()),
            })?;
        let lookup_secs = sw.elapsed_secs();
        let candidates = hits
            .into_iter()
            .filter_map(|(id, score)| {
                state.registry.reference(id).map(|r| JoinCandidate { reference: r.clone(), score })
            })
            .collect();
        Ok((candidates, outcome, lookup_secs))
    }

    /// Execute the product interaction of Fig. 3 step 3 ("Add column via
    /// lookup"): pull the candidate's table and lookup-join the selected
    /// columns onto the base table, preserving its cardinality. The
    /// candidate's table is fetched from *its own* namespace's backend, so
    /// a cross-warehouse augmentation pulls from the warehouse the
    /// candidate actually lives in.
    ///
    /// `norm` controls the key transformation — [`KeyNorm::AlphaNum`]
    /// realizes the "joinable after transformation" semantics for format
    /// variants.
    pub fn augment_via_lookup(
        &self,
        base: &Table,
        base_key: &str,
        candidate: &ColumnRef,
        add_columns: &[&str],
        norm: KeyNorm,
    ) -> StoreResult<Table> {
        let lookup_table = self.resolve(candidate.backend)?.backend.scan_table(
            &candidate.database,
            &candidate.table,
            wg_store::SampleSpec::Full,
        )?;
        wg_store::join::lookup_join(
            base,
            base_key,
            &lookup_table,
            &candidate.column,
            add_columns,
            norm,
        )
    }

    /// Direct cosine similarity between two warehouse columns under this
    /// system's embedding — the paper's `J(A,B)` made inspectable, and
    /// cross-warehouse capable (each ref scans its own namespace's
    /// backend). Embeds values only (no schema-context blend); embeddings
    /// come from (and feed) the cache under the value-only key.
    ///
    /// Takes the same preamble as discovery: deadline gate, tenant quota
    /// gate + post-paid debit, and one admission slot for the pair.
    /// [`QueryOptions::scope`] and [`QueryOptions::allow_degraded`] are
    /// irrelevant here (no lookup, no degraded variant) and ignored.
    pub fn joinability(
        &self,
        a: &ColumnRef,
        b: &ColumnRef,
        opts: &QueryOptions,
    ) -> StoreResult<f32> {
        self.admitted(
            opts,
            [a.backend, b.backend],
            |_, overloaded| Err(overloaded),
            |resolved, bill| {
                let values = |r: &ColumnRef| {
                    let run = namespace(resolved, r.backend);
                    self.embedding(run, r, 0.0, opts.deadline, None, Access::Billed(bill))
                };
                Ok(values(a)?.cosine(&*values(b)?))
            },
        )
    }
}
