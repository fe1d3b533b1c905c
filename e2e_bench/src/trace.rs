//! The traced run: spans recorded from *outside* the program.
//!
//! Per operation the facade call is timed as the root span, then the same
//! operation is replayed through the layers' public functions in the
//! facade's order — `validate_column` → `costs` → `scan_column` →
//! `embed_column` → `sign` → `candidates_signed_into` →
//! `search_signed_scoped_with_outcome` (→ `VectorSegment::block` when the
//! facade read cold blocks) — one child span per call. The `lsh` spans run
//! against a benchmark-owned mirror index filled by an index-build replay;
//! block reads run against a replica segment sealed from that mirror.
//!
//! A span is *shadow* when the facade did not do that work on this
//! operation (scan/embed on a cache hit) or when another child already
//! covers it (`lsh.candidates`, which `lsh.search` repeats). Shadow spans
//! feed the per-layer timing metrics but never the attribution sums.
//!
//! After the window a fixed set of layer probes (WGRP round trips, sync,
//! checkpoint/recover, block loads, kernels …) runs on every workload, so
//! every per-layer metric is measured on every workload's own data.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use warpgate_core::{
    AdmissionConfig, AdmissionController, Checkpointer, Discovery, JoinCandidate, WarpGate,
    WarpGateConfig,
};
use wg_embed::Vector;
use wg_lsh::paged::write_vector_segment;
use wg_lsh::{BlockCache, DiscoverScope, LshParams, SimHashLshIndex, VectorSegment};
use wg_store::{
    BackendHandle, ColumnRef, RemoteBackend, RemoteBackendServer, StoreError, StoreResult,
    WarehouseBackend,
};
use wg_util::{checksum, kernel, FxHashMap};

use crate::inputs::{Inputs, Mutator, TOP_K};
use crate::rig::Rig;
use crate::run::{checkpoint_round, io_err, same_up_to_ties, sync_round, Tally};
use crate::stats::{mean, median, percentile, self_time_ns};

/// Spans kept in memory (pre-allocated; later spans are dropped and
/// counted) and the prefix of them written to the trace file.
const SPAN_CAPACITY: usize = 1 << 19;
const SPANS_IN_FILE: usize = 50_000;

/// `warpgate_core` derives the index's hyperplane seed as `seed ^ 0x1DB5`.
/// The mirror copies it so its candidate sets — and therefore its rankings —
/// can be compared with the facade's (`trace.replay_match_ratio`).
const INDEX_SEED_MIX: u64 = 0x1DB5;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Operation id; spans of one operation share it.
    pub op: u32,
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The counter read at this boundary (rows, candidates, blocks … — see
    /// the README's span table).
    pub n: u64,
    pub shadow: bool,
}

/// In-memory span buffer plus derived per-sample values that are not
/// intervals (differences of spans, batched nanosecond timings).
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
    samples: Vec<(&'static str, f64)>,
    next_op: u32,
    /// The span covering the traced window; every facade call's span is its
    /// child.
    window: Option<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(SPAN_CAPACITY),
            dropped: 0,
            samples: Vec::new(),
            next_op: 0,
            window: None,
        }
    }

    fn new_op(&mut self) -> u32 {
        self.next_op += 1;
        self.next_op - 1
    }

    /// A write-side operation of the window, or a probe: one operation, one
    /// span. Returns the value and the span's duration in nanoseconds.
    pub fn time_write<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> (T, u64) {
        let (op, at) = (self.new_op(), self.spans.len());
        let value = self.time(op, name, self.window, false, f);
        (value, self.spans.get(at).map_or(0, |s| s.end_ns - s.start_ns))
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its index (usable as a parent).
    pub fn push(&mut self, span: Span) -> Option<u32> {
        if self.spans.len() == SPAN_CAPACITY {
            self.dropped += 1;
            return None;
        }
        self.spans.push(span);
        Some(self.spans.len() as u32 - 1)
    }

    /// Time `f` as one span. `f` returns its value and the boundary counter.
    pub fn time<T>(
        &mut self,
        op: u32,
        name: &'static str,
        parent: Option<u32>,
        shadow: bool,
        f: impl FnOnce() -> (T, u64),
    ) -> T {
        let start_ns = self.now();
        let (value, n) = f();
        let end_ns = self.now();
        self.push(Span { op, name, parent, start_ns, end_ns, n, shadow });
        value
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.push((name, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations of every span called `name`, microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect()
    }

    fn total_ns(&self, name: &str) -> f64 {
        self.named(name).map(|s| (s.end_ns - s.start_ns) as f64).sum()
    }

    fn total_n(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.n as f64).sum()
    }

    fn samples_of(&self, name: &str) -> Vec<f64> {
        self.samples.iter().filter(|(n, _)| *n == name).map(|&(_, v)| v).collect()
    }

    /// Write the first [`SPANS_IN_FILE`] spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().take(SPANS_IN_FILE) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"op_id\": {}, \"name\": \"{}\", \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}, \"n\": {}, \"shadow\": {}}}",
                s.op, s.name, parent, s.start_ns, s.end_ns, s.n, s.shadow
            )?;
        }
        out.flush()
    }
}

/// Sums the replay keeps per operation, beside the spans.
#[derive(Default)]
struct OpSums {
    ops: u64,
    calls: [u64; 6],
    billed_bytes: u64,
    billed_requests: u64,
    rows_kept: u64,
    rows_full: u64,
    candidates: u64,
    scored: u64,
    returned: u64,
    blocks_read: u64,
    blocks_pruned: u64,
    replay_matches: u64,
    replay_compared: u64,
    root_ns: u64,
    unattributed_ns: i64,
    store_ns: u64,
    embed_ns: u64,
    lsh_ns: u64,
    paged_ns: u64,
    lookup_ns: u64,
    /// Spans recorded while the window was open.
    window_spans: u64,
}

/// The benchmark-owned mirror of the index plus everything a replay needs.
pub struct Replayer {
    pub tracer: Tracer,
    mirror: SimHashLshIndex,
    /// Column of each mirror id (ids are catalog ordinals), and back.
    refs: Vec<ColumnRef>,
    id_of: FxHashMap<ColumnRef, u32>,
    replica: VectorSegment,
    replica_cursor: usize,
    sums: OpSums,
    scratch_ids: Vec<u32>,
    /// Query embeddings the replay reuses on cache-hit operations.
    vectors: FxHashMap<ColumnRef, Vector>,
}

impl Replayer {
    /// Fill the mirror by replaying the index build single-threaded over
    /// `rig.backend` — scan → embed → insert, a span each — then seal the
    /// replica segment from it.
    pub fn build(rig: &Rig, dir: &Path) -> StoreResult<Replayer> {
        let cfg = &rig.config;
        let mut tracer = Tracer::new();
        let mut mirror = SimHashLshIndex::new(
            cfg.dim,
            LshParams::for_threshold(cfg.lsh_threshold, cfg.lsh_bits),
            cfg.seed ^ INDEX_SEED_MIX,
        );
        mirror.set_probes(cfg.probes);
        let mut refs = Vec::new();
        for meta in rig.backend.list_tables()? {
            for r in meta.column_refs() {
                let id = refs.len() as u32;
                let col = tracer.time(id, "build.scan", None, false, || {
                    let col = rig.backend.scan_column(&r, cfg.sample);
                    let n = col.as_ref().map_or(0, |c| c.len() as u64);
                    (col, n)
                })?;
                let v = tracer.time(id, "build.embed", None, false, || {
                    (rig.wg.embedder().embed_column(&col), col.len() as u64)
                });
                tracer
                    .time(id, "build.insert", None, false, || (mirror.insert(id, v.as_slice()), 1));
                refs.push(r);
            }
        }
        std::fs::create_dir_all(dir).map_err(|e| io_err("replica directory", e))?;
        let path = dir.join("replica.seg");
        write_vector_segment(
            &path,
            cfg.dim,
            mirror.params().bits(),
            cfg.block_rows,
            mirror.export_rows(),
        )
        .map_err(|e| io_err("replica segment", e))?;
        let replica = VectorSegment::open(&path, BlockCache::new(cfg.block_cache_bytes))
            .map_err(|e| StoreError::Backend(format!("replica segment: {e}")))?;
        let id_of = refs.iter().enumerate().map(|(id, r)| (r.clone(), id as u32)).collect();
        Ok(Replayer {
            tracer,
            mirror,
            refs,
            id_of,
            replica,
            replica_cursor: 0,
            sums: OpSums::default(),
            scratch_ids: Vec::new(),
            vectors: FxHashMap::default(),
        })
    }

    /// Open the span that covers the traced window.
    pub fn begin_window(&mut self) {
        let now = self.tracer.now();
        self.tracer.window = self.tracer.push(Span {
            op: u32::MAX,
            name: "window",
            parent: None,
            start_ns: now,
            end_ns: now,
            n: 0,
            shadow: false,
        });
    }

    /// Close the window span.
    pub fn end_window(&mut self) {
        if let Some(w) = self.tracer.window {
            self.tracer.spans[w as usize].end_ns = self.tracer.now();
            self.tracer.spans[w as usize].n = self.sums.ops;
            self.sums.window_spans =
                self.tracer.spans.len() as u64 - w as u64 + self.tracer.dropped;
        }
    }

    /// Replay a sync's index maintenance on the mirror: re-scan and re-embed
    /// the mutated tables' columns, then remove and re-insert each.
    pub fn resync(&mut self, rig: &Rig, mutated: &[wg_store::TableMeta]) -> StoreResult<()> {
        let op = self.tracer.new_op();
        for r in mutated.iter().flat_map(|m| m.column_refs()) {
            self.vectors.remove(&r);
            let Some(&id) = self.id_of.get(&r) else { continue };
            let col = self.tracer.time(op, "sync.scan", None, false, || {
                let col = rig.backend.scan_column(&r, rig.config.sample);
                let n = col.as_ref().map_or(0, |c| c.len() as u64);
                (col, n)
            })?;
            let v = self.tracer.time(op, "sync.embed", None, false, || {
                (rig.wg.embedder().embed_column(&col), col.len() as u64)
            });
            self.tracer.time(op, "lsh.remove", None, false, || (self.mirror.remove(id), 1));
            self.tracer
                .time(op, "sync.insert", None, false, || (self.mirror.insert(id, v.as_slice()), 1));
        }
        Ok(())
    }

    fn search_mirror(
        &self,
        q: &ColumnRef,
        v: &Vector,
        sig: &wg_lsh::Signature,
    ) -> (Vec<(u32, f32)>, wg_lsh::SearchOutcome) {
        let refs = &self.refs;
        self.mirror.search_signed_scoped_with_outcome(
            v.as_slice(),
            sig,
            TOP_K,
            &DiscoverScope::All,
            |id| {
                let r = &refs[id as usize];
                r == q || r.same_table(q)
            },
        )
    }

    /// One traced operation: the facade call as the root span, then the
    /// layer replay as its children.
    pub fn discover(&mut self, rig: &Rig, q: &ColumnRef) -> StoreResult<(Discovery, u64)> {
        let op = self.tracer.new_op();
        // Counters are read at the root span's boundaries, so the replay's
        // own backend calls never leak into the per-op counts.
        let calls_before = rig.counting.as_ref().map(|c| c.counts.read());
        let cost_before = rig.connector.costs();
        let start_ns = self.tracer.now();
        let result = rig.wg.discover(q, TOP_K);
        let end_ns = self.tracer.now();
        let billed = rig.connector.costs().since(&cost_before);
        if let (Some(before), Some(c)) = (calls_before, rig.counting.as_ref()) {
            for (sum, (after, before)) in
                self.sums.calls.iter_mut().zip(c.counts.read().into_iter().zip(before))
            {
                *sum += after - before;
            }
        }
        let d = result?;
        let root = self.tracer.push(Span {
            op,
            name: "discover",
            parent: self.tracer.window,
            start_ns,
            end_ns,
            n: d.candidates.len() as u64,
            shadow: false,
        });
        let root_ns = end_ns - start_ns;
        self.sums.ops += 1;
        self.sums.billed_bytes += billed.bytes_scanned;
        self.sums.billed_requests += billed.requests;
        self.sums.candidates += d.outcome.candidates as u64;
        self.sums.scored += d.outcome.scored as u64;
        self.sums.returned += d.candidates.len() as u64;
        self.sums.blocks_read += d.timing.blocks_read;
        self.sums.blocks_pruned += d.timing.blocks_pruned;
        self.sums.root_ns += root_ns;
        let gap = (d.timing.total_secs() * 1e9 - root_ns as f64).abs() / root_ns.max(1) as f64;
        self.tracer.sample("core.timing_gap", gap);

        let first_child = self.tracer.spans.len();
        let paged_extra_ns = self.replay(rig, q, &d, op, root)?;
        let (mut attributed, mut by_layer) = (paged_extra_ns, [0u64; 3]);
        for s in self.tracer.spans[first_child..].iter().filter(|s| !s.shadow) {
            let ns = s.end_ns - s.start_ns;
            attributed += ns;
            let layer = match s.name {
                n if n.starts_with("store.") => 0,
                n if n.starts_with("embed.") => 1,
                _ => 2,
            };
            by_layer[layer] += ns;
        }
        self.sums.store_ns += by_layer[0];
        self.sums.embed_ns += by_layer[1];
        self.sums.lsh_ns += by_layer[2];
        self.sums.paged_ns += paged_extra_ns;
        self.sums.lookup_ns += (d.timing.lookup_secs * 1e9) as u64;
        let unattributed = root_ns as i64 - attributed as i64;
        self.sums.unattributed_ns += unattributed;
        self.tracer.sample("core.overhead_us", unattributed as f64 / 1e3);
        Ok((d, root_ns))
    }

    /// Scan and embed `q` the way the facade does on a cache miss, a span
    /// each; `shadow` when the facade itself skipped this work.
    fn scan_and_embed(
        &mut self,
        rig: &Rig,
        q: &ColumnRef,
        op: u32,
        root: Option<u32>,
        shadow: bool,
    ) -> StoreResult<Vector> {
        let col = self.tracer.time(op, "store.scan", root, shadow, || {
            let col = rig.backend.scan_column(q, rig.config.sample);
            let n = col.as_ref().map_or(0, |c| c.len() as u64);
            (col, n)
        })?;
        self.sums.rows_kept += col.len() as u64;
        self.sums.rows_full += rig.connector.warehouse().column(q).map_or(0, |c| c.len()) as u64;
        Ok(self.tracer.time(op, "embed.column", root, shadow, || {
            (rig.wg.embedder().embed_column(&col), col.len() as u64)
        }))
    }

    /// Replay one facade call through the layers. Returns the nanoseconds
    /// the paged tier added: the facade's own lookup time beyond what the
    /// RAM mirror needed for the same query (0 when no cold block was read).
    fn replay(
        &mut self,
        rig: &Rig,
        q: &ColumnRef,
        d: &Discovery,
        op: u32,
        root: Option<u32>,
    ) -> StoreResult<u64> {
        let hit = d.timing.cache_hit;
        let backend = &rig.backend;
        self.tracer.time(op, "store.validate", root, false, || (backend.validate_column(q), 1))?;
        // The facade snapshots the meter once per call, and twice more
        // around a cold scan.
        for _ in 0..if hit { 1 } else { 3 } {
            self.tracer.time(op, "store.costs", root, false, || (backend.costs(), 1));
        }
        // On a hit the facade took the vector from its cache; so does the
        // replay, after computing it once (as shadow spans) per query.
        let v = match self.vectors.get(q).filter(|_| hit) {
            Some(v) => v.clone(),
            None => {
                let v = self.scan_and_embed(rig, q, op, root, hit)?;
                if hit {
                    self.vectors.insert(q.clone(), v.clone());
                }
                v
            }
        };
        if v.is_zero() {
            return Ok(0);
        }
        let sig = self
            .tracer
            .time(op, "lsh.sign", root, false, || (self.mirror.hasher().sign(v.as_slice()), 1));
        let sign_us =
            self.tracer.spans.last().map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e3);
        // Shadow: `lsh.search` below generates the candidates again.
        let mut ids = std::mem::take(&mut self.scratch_ids);
        self.tracer.time(op, "lsh.candidates", root, true, || {
            self.mirror.candidates_signed_into(&sig, &mut ids);
            ((), ids.len() as u64)
        });
        let cand_us =
            self.tracer.spans.last().map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e3);
        self.scratch_ids = ids;
        let search_start = self.tracer.now();
        let (hits, outcome) = self.search_mirror(q, &v, &sig);
        let search_end = self.tracer.now();
        self.tracer.push(Span {
            op,
            name: "lsh.search",
            parent: root,
            start_ns: search_start,
            end_ns: search_end,
            n: outcome.scored as u64,
            shadow: false,
        });
        let search_us = (search_end - search_start) as f64 / 1e3;
        self.tracer.sample("lsh.rerank_us", search_us - cand_us);

        // Cold blocks: fetch as many from the replica, through a cache with
        // the facade's budget. A component of the paged tier's cost, so
        // shadow — the attribution takes the whole of it from the facade's
        // own lookup time instead (zone-map bounds and row grouping have no
        // public entry point to replay).
        let lookup_us = d.timing.lookup_secs * 1e6;
        let mut fetch_us = 0.0;
        let mut paged_extra_ns = 0;
        if d.timing.blocks_read > 0 {
            let blocks = self.replica.block_count();
            let start = self.tracer.now();
            for _ in 0..d.timing.blocks_read {
                let block = self.replica.block(self.replica_cursor);
                std::hint::black_box(block.map_err(|e| StoreError::Backend(e.to_string()))?);
                self.replica_cursor = (self.replica_cursor + 1) % blocks;
            }
            let end = self.tracer.now();
            self.tracer.push(Span {
                op,
                name: "lsh.paged.blocks",
                parent: root,
                start_ns: start,
                end_ns: end,
                n: d.timing.blocks_read,
                shadow: true,
            });
            fetch_us = (end - start) as f64 / 1e3;
            paged_extra_ns = ((lookup_us - sign_us - search_us).max(0.0) * 1e3) as u64;
        }
        self.tracer.sample("lsh.shard_merge_us", lookup_us - sign_us - search_us - fetch_us);

        // The mirror's ids are catalog ordinals, not the facade's, so tied
        // scores may come back in another order.
        let replayed: Vec<JoinCandidate> = hits
            .iter()
            .map(|&(id, score)| JoinCandidate { reference: self.refs[id as usize].clone(), score })
            .collect();
        self.sums.replay_compared += 1;
        self.sums.replay_matches += same_up_to_ties(&replayed, &d.candidates) as u64;
        Ok(paged_extra_ns)
    }
}

/// The facade's cache counters, read where the window starts and ends.
pub struct CacheMarks {
    pub cache: warpgate_core::CacheStats,
    pub blocks: wg_lsh::CacheStats,
}

impl CacheMarks {
    pub fn read(rig: &Rig) -> Self {
        Self { cache: rig.wg.cache_stats(), blocks: rig.wg.block_cache_stats() }
    }
}

/// The fixed probe set, run after the window on every workload. Probes on
/// the write side use the RAM-resident system (`rig.ram` on the paged
/// workloads).
pub fn probes(
    rp: &mut Replayer,
    rig: &Rig,
    inputs: &Inputs,
    seed: u64,
    dir: &Path,
    seconds: f64,
    tally: &mut Tally,
) -> StoreResult<ProbeFacts> {
    let queries = &inputs.queries;
    let sample = &queries[..queries.len().min(100)];

    // store: the change-token surface, and the wire's fixed costs measured
    // on a loopback server over this workload's own connector.
    for _ in 0..30 {
        rp.tracer
            .time_write("store.snapshot_versions", || {
                (rig.backend.snapshot_versions().map(|v| v.len()), 1)
            })
            .0?;
    }
    {
        let inner: BackendHandle = rig.connector.clone();
        let server = RemoteBackendServer::serve(inner.clone(), "127.0.0.1:0")?;
        let remote = RemoteBackend::connect(server.local_addr().to_string())?;
        for _ in 0..300 {
            rp.tracer.time_write("store.remote.rtt", || (remote.costs(), 1));
        }
        for q in sample {
            let (far, far_ns) = rp
                .tracer
                .time_write("store.remote.scan", || (remote.scan_column(q, rig.config.sample), 1));
            let (near, near_ns) = rp
                .tracer
                .time_write("store.inner.scan", || (inner.scan_column(q, rig.config.sample), 1));
            tally.check(far? == near?, || format!("remote scan of {q} differs from local"));
            rp.tracer
                .sample("store.remote.scan_overhead_us", (far_ns as f64 - near_ns as f64) / 1e3);
        }
        drop(remote);
        server.shutdown();
    }

    // lsh: removal and re-insertion on the mirror, ANN recall against the
    // exhaustive scan, and cold block loads from the replica segment.
    let step = (rp.refs.len() / 500).max(1);
    for id in (0..rp.refs.len() as u32).step_by(step) {
        let Some(v) = rp.mirror.vector_owned(id) else { continue };
        rp.tracer.time(u32::MAX, "lsh.remove", None, false, || (rp.mirror.remove(id), 1));
        rp.mirror.insert(id, &v);
    }
    let (mut found, mut wanted) = (0usize, 0usize);
    for q in sample {
        let v = rp.scan_and_embed(rig, q, u32::MAX, None, true)?;
        if v.is_zero() {
            continue;
        }
        let sig = rp.mirror.hasher().sign(v.as_slice());
        let (approx, _) = rp.search_mirror(q, &v, &sig);
        let refs = &rp.refs;
        let exact = rp.mirror.search_exact(v.as_slice(), TOP_K, |id| {
            let r = &refs[id as usize];
            r == q || r.same_table(q)
        });
        wanted += exact.len();
        found += exact.iter().filter(|(id, _)| approx.iter().any(|(a, _)| a == id)).count();
    }
    rp.tracer.sample("lsh.recall_vs_exact", found as f64 / wanted.max(1) as f64);
    for i in 0..200 {
        rp.replica.evict_from_cache();
        let block = i % rp.replica.block_count();
        rp.tracer
            .time_write("lsh.paged.block_load", || (rp.replica.block(block).map(|b| b.len()), 1))
            .0
            .map_err(|e| StoreError::Backend(e.to_string()))?;
    }

    // core, write side: sync after seeded mutations, snapshot encode/decode,
    // checkpoint/recover, paged save/load.
    let system = rig.ram.as_ref().unwrap_or(&rig.wg);
    let fresh = |config: WarpGateConfig| WarpGate::with_backend(config, rig.backend.clone());
    let mut mutator = Mutator::new(seed ^ 0x9B0B, &inputs.warehouse);
    for _ in 0..5 {
        sync_round(Some(&mut *rp), rig, system, &mut mutator, tally)?;
    }
    let checkpointer = Checkpointer::new(dir.join("probe.ckpt"));
    for _ in 0..3 {
        checkpoint_round(Some(&mut *rp), rig, system, &checkpointer, &inputs.queries, tally)?;
        let (bytes, _) = rp.tracer.time_write("core.persist.save", || {
            let bytes = system.to_bytes();
            let n = bytes.len() as u64;
            (bytes, n)
        });
        let mut target = fresh(rig.config);
        rp.tracer.time_write("core.persist.load", || (target.load_bytes(&bytes), 1)).0?;
    }
    let paged_dir = dir.join("probe-paged");
    rp.tracer
        .time_write("core.persist.save_paged", || (system.save_paged(&paged_dir), 1))
        .0
        .map_err(|e| io_err("save_paged", e))?;
    let mut target = fresh(rig.config);
    rp.tracer.time_write("core.persist.load_paged", || (target.load_paged(&paged_dir), 1)).0?;
    drop(target);
    let facts = ProbeFacts {
        columns: system.len(),
        index_cols_per_s: rig.index.columns_indexed as f64 / rig.index_secs,
        snapshot_bytes: std::fs::metadata(checkpointer.path()).map_or(0, |m| m.len()),
        segment_bytes: crate::rig::dir_bytes(&paged_dir),
        // The first single-client stretch only re-warms what the probes
        // above left cold.
        qps_1c: {
            closed_loop(rig, queries, 1, seconds);
            closed_loop(rig, queries, 1, seconds)
        },
        qps_2c: closed_loop(rig, queries, 2, seconds),
    };

    // core: an uncontended admission slot; util: the kernels under lsh and
    // the checksum under every block read and snapshot.
    let gate = AdmissionController::new(AdmissionConfig::default());
    batched_ns(&mut rp.tracer, "core.admission.acquire_ns", 100, || {
        drop(std::hint::black_box(gate.acquire()));
    });
    let a: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
    let planes: Vec<f32> = (0..128 * 128).map(|i| (i as f32).cos()).collect();
    let mut out = vec![0.0f32; 128];
    batched_ns(&mut rp.tracer, "util.kernel.dot_ns", 1000, || {
        std::hint::black_box(kernel::dot(std::hint::black_box(&a), &planes[..128]));
    });
    batched_ns(&mut rp.tracer, "util.kernel.gemv_ns", 20, || {
        kernel::gemv(std::hint::black_box(&a), &planes, 128, &mut out);
        std::hint::black_box(&out);
    });
    let megabyte = vec![0xA5u8; 1 << 20];
    batched_ns(&mut rp.tracer, "util.checksum.ns_per_mb", 1, || {
        std::hint::black_box(checksum::crc32(std::hint::black_box(&megabyte)));
    });
    Ok(facts)
}

/// What the probes learned that is not a span.
pub struct ProbeFacts {
    columns: usize,
    /// Columns indexed per wall second of the run's `index_warehouse()`.
    index_cols_per_s: f64,
    snapshot_bytes: u64,
    segment_bytes: u64,
    qps_1c: f64,
    qps_2c: f64,
}

/// 60 samples of `f`'s cost in nanoseconds, each the mean over `batch`
/// calls — for work too short to time one call at a time.
fn batched_ns(tracer: &mut Tracer, name: &'static str, batch: u32, mut f: impl FnMut()) {
    for _ in 0..60 {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        tracer.sample(name, t.elapsed().as_nanos() as f64 / batch as f64);
    }
}

/// `clients` closed-loop readers over the query list for a short fixed
/// time; completed discovers per second.
fn closed_loop(rig: &Rig, queries: &[ColumnRef], clients: usize, seconds: f64) -> f64 {
    let budget = Duration::from_secs_f64((seconds * 0.05).clamp(0.05, 0.5));
    let started = Instant::now();
    let done: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut n = 0usize;
                    for q in queries.iter().cycle().skip(c * queries.len() / clients) {
                        if started.elapsed() >= budget {
                            break;
                        }
                        std::hint::black_box(rig.wg.discover(q, TOP_K).ok());
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("closed-loop client panicked")).sum()
    });
    done as f64 / started.elapsed().as_secs_f64()
}

/// Every per-layer metric, from the spans, samples and counters.
pub fn per_layer_metrics(
    rp: &Replayer,
    (start, end): (&CacheMarks, &CacheMarks),
    facts: &ProbeFacts,
    untraced_p50_us: f64,
) -> Vec<(&'static str, f64)> {
    let t = &rp.tracer;
    let s = &rp.sums;
    let ops = s.ops.max(1) as f64;
    let pct = |name: &str, p: f64| {
        let mut d = t.durations_us(name);
        if d.is_empty() {
            0.0
        } else {
            percentile(&mut d, p)
        }
    };
    let sample_median = |name: &str| {
        let mut v = t.samples_of(name);
        if v.is_empty() {
            0.0
        } else {
            median(&mut v)
        }
    };
    let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };

    let cache = &end.cache;
    let (hits, misses) = (cache.hits - start.cache.hits, cache.misses - start.cache.misses);
    let blocks = &end.blocks;
    let (bhits, bmisses) = (blocks.hits - start.blocks.hits, blocks.misses - start.blocks.misses);
    let build_ns =
        t.total_ns("build.scan") + t.total_ns("build.embed") + t.total_ns("build.insert");
    let sync_secs = t.total_ns("core.sync") / 1e9;
    let root_p50 = pct("discover", 50.0);

    // The window span's self time is what the harness spent outside facade
    // calls: replay, probes' bookkeeping and output checks.
    let harness_share = t.window.map_or(0.0, |w| {
        let window = t.spans()[w as usize];
        let facade: Vec<(u64, u64)> = t
            .spans()
            .iter()
            .filter(|c| c.parent == Some(w))
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        let own = self_time_ns((window.start_ns, window.end_ns), &facade);
        ratio(own as f64, (window.end_ns - window.start_ns) as f64)
    });

    vec![
        ("store.scan_us_p50", pct("store.scan", 50.0)),
        ("store.scan_us_p90", pct("store.scan", 90.0)),
        ("store.validate_us_p50", pct("store.validate", 50.0)),
        ("store.costs_us_p50", pct("store.costs", 50.0)),
        ("store.calls_per_op.validate", s.calls[0] as f64 / ops),
        ("store.calls_per_op.scan", s.calls[1] as f64 / ops),
        ("store.calls_per_op.costs", s.calls[2] as f64 / ops),
        ("store.calls_per_op.table_meta", s.calls[3] as f64 / ops),
        ("store.calls_per_op.list_tables", s.calls[4] as f64 / ops),
        ("store.calls_per_op.snapshot_versions", s.calls[5] as f64 / ops),
        ("store.remote.rtt_us_p50", pct("store.remote.rtt", 50.0)),
        ("store.remote.scan_overhead_us_p50", sample_median("store.remote.scan_overhead_us")),
        ("store.scan_bytes_per_op", s.billed_bytes as f64 / ops),
        ("store.scan_requests_per_op", s.billed_requests as f64 / ops),
        ("store.sample.rows_kept_ratio", ratio(s.rows_kept as f64, s.rows_full as f64)),
        ("store.snapshot_versions_us_p50", pct("store.snapshot_versions", 50.0)),
        ("embed.column_us_p50", pct("embed.column", 50.0)),
        ("embed.column_us_p90", pct("embed.column", 90.0)),
        (
            "embed.values_per_op",
            ratio(t.total_n("embed.column"), t.durations_us("embed.column").len() as f64),
        ),
        ("embed.ns_per_value", ratio(t.total_ns("embed.column"), t.total_n("embed.column"))),
        ("embed.build_us_per_col", {
            let d = t.durations_us("build.embed");
            if d.is_empty() {
                0.0
            } else {
                mean(&d)
            }
        }),
        ("lsh.sign_us_p50", pct("lsh.sign", 50.0)),
        ("lsh.candidates_us_p50", pct("lsh.candidates", 50.0)),
        ("lsh.rerank_us_p50", sample_median("lsh.rerank_us")),
        ("lsh.search_us_p50", pct("lsh.search", 50.0)),
        ("lsh.search_us_p90", pct("lsh.search", 90.0)),
        ("lsh.shard_merge_us_p50", sample_median("lsh.shard_merge_us")),
        ("lsh.candidates_per_op", s.candidates as f64 / ops),
        ("lsh.scored_per_op", s.scored as f64 / ops),
        ("lsh.useful_ratio", ratio(s.returned as f64, s.scored as f64)),
        ("lsh.recall_at_10_vs_exact", sample_median("lsh.recall_vs_exact")),
        (
            "lsh.insert_us_per_col",
            ratio(t.total_ns("build.insert") / 1e3, t.total_n("build.insert")),
        ),
        ("lsh.remove_us_per_col", ratio(t.total_ns("lsh.remove") / 1e3, t.total_n("lsh.remove"))),
        ("lsh.paged.blocks_read_per_op", s.blocks_read as f64 / ops),
        ("lsh.paged.blocks_pruned_per_op", s.blocks_pruned as f64 / ops),
        ("lsh.paged.cache_hit_rate", ratio(bhits as f64, (bhits + bmisses) as f64)),
        ("lsh.paged.evictions_per_op", (blocks.evictions - start.blocks.evictions) as f64 / ops),
        ("lsh.paged.block_load_us_p50", pct("lsh.paged.block_load", 50.0)),
        ("lsh.paged.resident_bytes_peak", blocks.peak_resident_bytes as f64),
        ("core.discover_p50_us", root_p50),
        ("core.discover_p99_us", pct("discover", 99.0)),
        ("core.discover_p999_us", pct("discover", 99.9)),
        ("core.overhead_us_p50", sample_median("core.overhead_us")),
        ("core.unattributed_share", ratio(s.unattributed_ns as f64, s.root_ns as f64)),
        ("core.timing_gap_share", sample_median("core.timing_gap")),
        ("core.cache.hit_rate", ratio(hits as f64, (hits + misses) as f64)),
        ("core.discover_qps_2c", facts.qps_2c),
        ("core.scaling_2c", ratio(facts.qps_2c, facts.qps_1c)),
        ("core.sync_p50_ms", pct("core.sync", 50.0) / 1e3),
        ("core.sync_p90_ms", pct("core.sync", 90.0) / 1e3),
        ("core.sync_cols_per_s", ratio(t.total_n("core.sync"), sync_secs)),
        ("core.sync.billed_scans_per_changed_col", sample_median("core.sync.billed_per_changed")),
        ("core.index.scan_share", ratio(t.total_ns("build.scan"), build_ns)),
        ("core.index.embed_share", ratio(t.total_ns("build.embed"), build_ns)),
        ("core.index.insert_share", ratio(t.total_ns("build.insert"), build_ns)),
        ("core.index_cols_per_s", facts.index_cols_per_s),
        ("core.checkpoint_p50_ms", pct("core.checkpoint", 50.0) / 1e3),
        ("core.recover_p50_ms", pct("core.recover", 50.0) / 1e3),
        ("core.snapshot_bytes_per_col", ratio(facts.snapshot_bytes as f64, facts.columns as f64)),
        ("core.persist.save_ms_p50", pct("core.persist.save", 50.0) / 1e3),
        ("core.persist.load_ms_p50", pct("core.persist.load", 50.0) / 1e3),
        ("core.persist.save_paged_s", pct("core.persist.save_paged", 50.0) / 1e6),
        ("core.persist.load_paged_s", pct("core.persist.load_paged", 50.0) / 1e6),
        (
            "core.persist.segment_bytes_per_col",
            ratio(facts.segment_bytes as f64, facts.columns as f64),
        ),
        ("core.admission.acquire_ns_p50", sample_median("core.admission.acquire_ns")),
        ("util.kernel.dot_ns", sample_median("util.kernel.dot_ns")),
        ("util.kernel.gemv_us", sample_median("util.kernel.gemv_ns") / 1e3),
        ("util.checksum.mb_per_s", ratio(1e9, sample_median("util.checksum.ns_per_mb"))),
        ("trace.share.store", ratio(s.store_ns as f64, s.root_ns as f64)),
        ("trace.share.embed", ratio(s.embed_ns as f64, s.root_ns as f64)),
        ("trace.share.lsh", ratio(s.lsh_ns as f64, s.root_ns as f64)),
        ("trace.share.lsh_paged", ratio(s.paged_ns as f64, s.root_ns as f64)),
        ("trace.share.facade_lookup", ratio(s.lookup_ns as f64, s.root_ns as f64)),
        ("trace.replay_match_ratio", ratio(s.replay_matches as f64, s.replay_compared as f64)),
        ("trace.overhead_share", ratio(root_p50 - untraced_p50_us, untraced_p50_us)),
        ("trace.harness_share", harness_share),
        ("trace.spans_per_op", s.window_spans as f64 / ops),
        ("bench.reference_us_p50", sample_median("bench.reference_ns") / 1e3),
    ]
}
