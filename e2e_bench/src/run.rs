//! One benchmark run: set-up, first pass, the measured window and the
//! output checks. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the same window through [`crate::trace`] and reports per-layer ones.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use warpgate_core::{Checkpointer, JoinCandidate, WarpGate};
use wg_eval::metrics::precision_recall_at_k;
use wg_store::{ColumnRef, StoreError, StoreResult};

use crate::affinity::Pinned;
use crate::inputs::{self, Inputs, Mutator, QueryOrder, Scale, TOP_K};
use crate::reference::{self, Reference};
use crate::rig::{setup, Rig};
use crate::stats::{median, percentile};
use crate::trace::{self, CacheMarks, Replayer};
use crate::Workload;

/// Times the whole set-up is repeated in an untraced run: `setup_s` is the
/// median repeat.
const SETUP_REPEATS: usize = 3;
/// Equal consecutive blocks the window's timing metrics are computed over —
/// fewer when the window holds too few discovers to give each block
/// [`BLOCK_MIN_DISCOVERS`].
const BLOCKS: usize = 16;
const BLOCK_MIN_DISCOVERS: usize = 20;
/// Reads per churn round.
const CHURN_READS: usize = 200;
/// The window takes one reference pass between operations whenever this
/// long has gone by since the last: 0.3% of the window, ~200 passes a block.
const REFERENCE_EVERY: Duration = Duration::from_millis(2);
/// Distinct queries the spill workload asks: each costs tens of
/// milliseconds even to pre-warm, so the list is kept short.
const SPILL_QUERIES: usize = 64;
/// Share of a traced window that runs untraced, at its end, to price the
/// tracing.
const UNTRACED_SHARE: f64 = 0.15;

/// What to run.
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Directory for paged segments, checkpoints and the trace file.
    pub scratch: PathBuf,
}

/// What a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

/// Operations attempted and failed; an output check is an operation.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one check; on failure log the first few reasons.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("wg_bench: FAILED: {}", why());
            }
        }
    }
}

type Ranking = Vec<JoinCandidate>;

/// Ask every query in `picks` once, in list order.
fn pass(wg: &WarpGate, queries: &[ColumnRef], picks: &[usize]) -> StoreResult<Vec<Ranking>> {
    picks.iter().map(|&i| wg.discover(&queries[i], TOP_K).map(|d| d.candidates)).collect()
}

/// What the fixed-size first pass measures exactly (for a given seed).
struct Exact {
    billed_bytes_per_op: f64,
    p_at_10: f64,
    r_at_10: f64,
}

/// [`pass`] plus the exact metrics: bytes the warehouse billed per query,
/// and macro-averaged precision/recall at [`TOP_K`] against ground truth.
fn exact_pass(
    wg: &WarpGate,
    rig: &Rig,
    inputs: &Inputs,
    picks: &[usize],
) -> StoreResult<(Vec<Ranking>, Exact)> {
    let before = rig.connector.costs();
    let rankings = pass(wg, &inputs.queries, picks)?;
    let billed = rig.connector.costs().since(&before);
    let (mut p_sum, mut r_sum) = (0.0, 0.0);
    for (&i, ranking) in picks.iter().zip(&rankings) {
        let refs: Vec<ColumnRef> = ranking.iter().map(|c| c.reference.clone()).collect();
        let (p, r) = precision_recall_at_k(&refs, &inputs.truth[i], TOP_K);
        p_sum += p;
        r_sum += r;
    }
    let n = picks.len() as f64;
    let exact = Exact {
        billed_bytes_per_op: billed.bytes_scanned as f64 / n,
        p_at_10: p_sum / n,
        r_at_10: r_sum / n,
    };
    Ok((rankings, exact))
}

/// Ranking equality between two *separately built* systems: scores must
/// match bit for bit at every rank, and every group of tied scores must hold
/// the same columns — in any order, because the index breaks exact ties by
/// item id and ids follow the (thread-timing-dependent) order in which a
/// parallel build registered its columns. A tie that runs into the cut-off
/// may continue past it, so its membership is not compared.
pub fn same_up_to_ties(a: &[JoinCandidate], b: &[JoinCandidate]) -> bool {
    if a.len() != b.len() || a.iter().zip(b).any(|(x, y)| x.score != y.score) {
        return false;
    }
    let mut i = 0;
    while i < a.len() {
        let tie = a[i..].iter().take_while(|c| c.score == a[i].score).count();
        let (ga, gb) = (&a[i..i + tie], &b[i..i + tie]);
        let cut = i + tie == a.len();
        if !cut && !ga.iter().all(|x| gb.iter().any(|y| y.reference == x.reference)) {
            return false;
        }
        i += tie;
    }
    true
}

/// Check two systems rank `queries` alike: bit-identically in order when
/// they share one build's item ids (`strict`), else [`same_up_to_ties`].
pub fn check_same_rankings(
    a: &WarpGate,
    b: &WarpGate,
    queries: &[ColumnRef],
    strict: bool,
    tally: &mut Tally,
) -> StoreResult<()> {
    for q in queries {
        let (ra, rb) = (a.discover(q, TOP_K)?.candidates, b.discover(q, TOP_K)?.candidates);
        let same = if strict { ra == rb } else { same_up_to_ties(&ra, &rb) };
        tally.check(same, || format!("rankings diverge at {q}"));
    }
    Ok(())
}

/// One timed step of the window, in order of execution; nanoseconds.
#[derive(Clone, Copy)]
enum Step {
    Discover(u64),
    Write(u64),
    /// A pass of the reference kernel, between two operations.
    Reference(f64),
}

/// One of the window's equal consecutive blocks.
#[derive(Default)]
struct Block {
    /// Time inside facade calls, reads and writes alike.
    busy_ns: u64,
    /// Discover response times, microseconds.
    lat_us: Vec<f64>,
    /// The reference passes taken inside the block, nanoseconds.
    reference_ns: Vec<f64>,
}

/// Cut a window into (up to) [`BLOCKS`] blocks holding equal numbers of
/// discovers — a multiple of `unit`, so churn blocks hold whole rounds, and
/// at least [`BLOCK_MIN_DISCOVERS`], so a percentile has a sample. A write's time
/// counts in the block of the discovers that follow it. Time spent in the
/// harness between steps (shuffling, output checks, reference passes,
/// replay) is in no block; a tail shorter than one block is dropped.
fn cut_blocks(steps: &[Step], unit: usize) -> Vec<Block> {
    let discovers = steps.iter().filter(|s| matches!(s, Step::Discover(_))).count();
    let per = (discovers / BLOCKS).max(BLOCK_MIN_DISCOVERS).div_ceil(unit) * unit;
    let mut blocks = Vec::with_capacity(BLOCKS);
    let mut open = Block::default();
    for step in steps {
        match *step {
            Step::Write(ns) => open.busy_ns += ns,
            Step::Reference(ns) => open.reference_ns.push(ns),
            Step::Discover(ns) => {
                open.busy_ns += ns;
                open.lat_us.push(ns as f64 / 1e3);
                if open.lat_us.len() == per {
                    blocks.push(std::mem::take(&mut open));
                }
            }
        }
    }
    // A window too short for one whole block still reports what it saw.
    if blocks.is_empty() && !open.lat_us.is_empty() {
        blocks.push(open);
    }
    blocks.truncate(BLOCKS);
    blocks
}

/// Every reference pass of a window, nanoseconds.
fn reference_passes(steps: &[Step]) -> Vec<f64> {
    steps
        .iter()
        .filter_map(|s| if let Step::Reference(ns) = s { Some(*ns) } else { None })
        .collect()
}

/// `(discover_qps, discover_p50_us, discover_p90_us)` of a window whose
/// rounds hold `round` discovers (1 for a read-only window). Each is
/// computed per block, in reference time by the block's own reference
/// passes (see [`crate::reference`]), and the **median block** is reported:
/// the scaling takes out what a busy neighbour adds, the median a one-off
/// stall.
fn window_metrics(steps: &[Step], round: usize) -> StoreResult<(f64, f64, f64)> {
    let mut blocks = cut_blocks(steps, round);
    if blocks.is_empty() {
        return Err(StoreError::Backend("the window completed no discover".into()));
    }
    // A block too short to hold a pass goes by the whole window's passes.
    let whole = reference::scale(&mut reference_passes(steps));
    let mut per_block: [Vec<f64>; 3] = Default::default();
    for b in &mut blocks {
        let scale =
            if b.reference_ns.is_empty() { whole } else { reference::scale(&mut b.reference_ns) };
        per_block[0].push(b.lat_us.len() as f64 / (b.busy_ns as f64 / 1e9 * scale));
        per_block[1].push(percentile(&mut b.lat_us, 50.0) * scale);
        per_block[2].push(percentile(&mut b.lat_us, 90.0) * scale);
    }
    let [qps, p50, p90] = per_block.map(|mut v| median(&mut v));
    Ok((qps, p50, p90))
}

/// The measured window's mutable state.
struct Window<'a> {
    rig: &'a Rig,
    queries: &'a [ColumnRef],
    steps: Vec<Step>,
    tally: Tally,
    replayer: Option<Replayer>,
    reference: Reference,
    last_pass: Instant,
}

impl Window<'_> {
    /// Between two operations: take a reference pass if one is due.
    fn tick(&mut self) {
        if self.last_pass.elapsed() < REFERENCE_EVERY {
            return;
        }
        let ns = self.reference.pass();
        self.steps.push(Step::Reference(ns));
        if let Some(rp) = self.replayer.as_mut() {
            rp.tracer.sample("bench.reference_ns", ns);
        }
        self.last_pass = Instant::now();
    }

    /// One discover, timed around the facade call (and replayed when a
    /// replayer is installed and `traced`).
    fn discover(&mut self, qi: usize, traced: bool) -> Option<Ranking> {
        let q = &self.queries[qi];
        let result = match self.replayer.as_mut().filter(|_| traced) {
            Some(rp) => rp.discover(self.rig, q).map(|(d, ns)| (d.candidates, ns)),
            None => {
                let t = Instant::now();
                let d = self.rig.wg.discover(q, TOP_K);
                let ns = t.elapsed().as_nanos() as u64;
                d.map(|d| (d.candidates, ns))
            }
        };
        let ranking = match result {
            Ok((ranking, ns)) => {
                self.steps.push(Step::Discover(ns));
                Some(ranking)
            }
            Err(e) => {
                self.tally.check(false, || format!("discover {q}: {e}"));
                None
            }
        };
        self.tick();
        ranking
    }

    /// Record a timed write-side step.
    fn wrote(&mut self, ns: u64) {
        self.steps.push(Step::Write(ns));
        self.tick();
    }

    /// Closed-loop reads in seeded order until `budget` is spent; each
    /// answer must equal `expected` (where the data holds still).
    fn read_until(
        &mut self,
        order: &mut impl Iterator<Item = usize>,
        expected: Option<&[Ranking]>,
        budget: Duration,
        traced: bool,
    ) {
        let started = Instant::now();
        while started.elapsed() < budget {
            let qi = order.next().expect("query order is endless");
            if let Some(ranking) = self.discover(qi, traced) {
                let q = &self.queries[qi];
                let same = expected.is_none_or(|e| ranking == e[qi]);
                self.tally.check(same, || format!("ranking of {q} changed"));
            }
        }
    }
}

/// Time one write-side step: as a span when tracing, with a plain stopwatch
/// otherwise. `f` returns its value and the span's boundary counter.
pub fn timed<T>(
    rp: Option<&mut Replayer>,
    name: &'static str,
    f: impl FnOnce() -> (T, u64),
) -> (T, u64) {
    match rp {
        Some(rp) => rp.tracer.time_write(name, f),
        None => {
            let ((value, _), took) = wg_util::timing::timed(f);
            (value, took.as_nanos() as u64)
        }
    }
}

pub(crate) fn io_err(what: &str, e: std::io::Error) -> StoreError {
    StoreError::Backend(format!("{what}: {e}"))
}

/// The write half of a churn round: mutate two seeded tables, `sync()`, and
/// check that exactly the mutated tables' columns were billed. Returns the
/// sync's duration in nanoseconds.
pub fn sync_round(
    mut rp: Option<&mut Replayer>,
    rig: &Rig,
    system: &WarpGate,
    mutator: &mut Mutator,
    tally: &mut Tally,
) -> StoreResult<u64> {
    let mutated = mutator.mutate(&rig.connector, 2);
    let changed = mutated.iter().map(|m| m.columns.len() as u64).sum::<u64>();
    let before = rig.connector.costs();
    let (report, ns) = timed(rp.as_deref_mut(), "core.sync", || {
        let report = system.sync();
        let n = report.as_ref().map_or(0, |r| r.columns_indexed as u64);
        (report, n)
    });
    report?;
    let billed = rig.connector.costs().since(&before).requests;
    if let Some(rp) = rp {
        rp.tracer.sample("core.sync.billed_per_changed", billed as f64 / changed.max(1) as f64);
        // Replay the write on the mirror, so later read replays still rank
        // like the facade.
        rp.resync(rig, &mutated)?;
    }
    tally.check(billed == changed, || {
        format!("sync billed {billed} scans for {changed} changed columns")
    });
    Ok(ns)
}

/// Checkpoint `system`, recover a fresh system from the file, and check the
/// recovered system ranks like the checkpointed one. Returns the two
/// durations in nanoseconds.
pub fn checkpoint_round(
    mut rp: Option<&mut Replayer>,
    rig: &Rig,
    system: &WarpGate,
    checkpointer: &Checkpointer,
    queries: &[ColumnRef],
    tally: &mut Tally,
) -> StoreResult<(u64, u64)> {
    let (done, save_ns) =
        timed(rp.as_deref_mut(), "core.checkpoint", || (checkpointer.checkpoint(system), 1));
    done.map_err(|e| io_err("checkpoint", e))?;
    let mut recovered = WarpGate::with_backend(rig.config, rig.backend.clone());
    let (report, load_ns) = timed(rp, "core.recover", || (checkpointer.recover(&mut recovered), 1));
    report?;
    // A snapshot keeps item ids, so even tie order must survive it.
    check_same_rankings(system, &recovered, &queries[..queries.len().min(20)], true, tally)?;
    Ok((save_ns, load_ns))
}

/// Churn rounds until `budget` is spent: a [`sync_round`], [`CHURN_READS`]
/// discovers, then a [`checkpoint_round`]. Every round does the same work,
/// so every block of the window holds the same mix of reads and writes.
fn churn_until(
    w: &mut Window<'_>,
    inputs: &Inputs,
    cfg: &RunConfig,
    order: &mut impl Iterator<Item = usize>,
    budget: Duration,
) -> StoreResult<()> {
    let rig = w.rig;
    let mut mutator = Mutator::new(cfg.seed, &inputs.warehouse);
    let checkpointer = Checkpointer::new(cfg.scratch.join("churn.ckpt"));
    let started = Instant::now();
    while started.elapsed() < budget {
        let ns = sync_round(w.replayer.as_mut(), rig, &rig.wg, &mut mutator, &mut w.tally)?;
        w.wrote(ns);
        for _ in 0..CHURN_READS {
            let qi = order.next().expect("query order is endless");
            // The data moves under the reads, so there is no fixed ranking
            // to expect; the round-trip and rebuild checks cover answers.
            if w.discover(qi, true).is_some() {
                w.tally.check(true, String::new);
            }
        }
        let (save_ns, load_ns) = checkpoint_round(
            w.replayer.as_mut(),
            rig,
            &rig.wg,
            &checkpointer,
            &inputs.queries,
            &mut w.tally,
        )?;
        w.wrote(save_ns);
        w.wrote(load_ns);
    }
    Ok(())
}

/// `VmHWM` of this process, megabytes.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The order a run asks its queries in — exposed so tests can pin it.
pub fn op_list(workload: Workload, seed: u64, scale: Scale, n: usize) -> Vec<ColumnRef> {
    let inputs = make_inputs(workload, seed, scale);
    let active = active_queries(workload, &inputs);
    QueryOrder::new(seed, active).take(n).map(|i| inputs.queries[i].clone()).collect()
}

fn make_inputs(workload: Workload, seed: u64, scale: Scale) -> Inputs {
    if workload.uses_testbed() {
        inputs::testbed(scale)
    } else {
        inputs::fleet(seed, scale)
    }
}

/// How many of the listed queries the window draws from.
fn active_queries(workload: Workload, inputs: &Inputs) -> usize {
    match workload {
        Workload::PagedSpill => inputs.queries.len().min(SPILL_QUERIES),
        _ => inputs.queries.len(),
    }
}

/// Run one workload once.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.scratch).map_err(|e| format!("scratch dir: {e}"))?;
    run_inner(cfg).map_err(|e| format!("{}: {e}", cfg.workload.name()))
}

fn run_inner(cfg: &RunConfig) -> StoreResult<Outcome> {
    let workload = cfg.workload;
    let inputs = make_inputs(workload, cfg.seed, cfg.scale);
    let queries = &inputs.queries;
    let picks: Vec<usize> = (0..active_queries(workload, &inputs)).collect();

    // Set-up, repeated; the last repeat's system is the one measured. A
    // traced run sets up once, with the call counter installed.
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut rig: Option<Rig> = None;
    for repeat in 0..if cfg.trace { 1 } else { SETUP_REPEATS } {
        drop(rig.take());
        let warehouse = inputs.warehouse.clone();
        let dir = cfg.scratch.join(format!("paged-{repeat}"));
        let built = setup(workload, inputs.config, warehouse, &dir, cfg.trace)?;
        setup_secs.push(built.setup_secs);
        rig = Some(built);
    }
    let rig = rig.expect("at least one set-up");
    let mut tally = Tally::default();

    // First pass: every active query once. It pins the rankings the window
    // must keep returning, warms whatever caches the workload has, and is the
    // fixed-size pass the exact metrics (billed bytes, quality) come from.
    let (expected, exact) = match rig.ram.as_ref() {
        None => exact_pass(&rig.wg, &rig, &inputs, &picks)?,
        // Paged: the exact metrics come from the all-in-RAM system over the
        // whole list (a spilled query costs tens of milliseconds even to
        // pre-warm), and paging must not change an answer, bit for bit.
        Some(ram) => {
            let all: Vec<usize> = (0..queries.len()).collect();
            let (want, exact) = exact_pass(ram, &rig, &inputs, &all)?;
            let got = pass(&rig.wg, queries, &picks)?;
            for (&i, got) in picks.iter().zip(&got) {
                tally.check(*got == want[i], || format!("{} ranks differently paged", queries[i]));
            }
            (got, exact)
        }
    };
    if workload == Workload::ColdWgrp {
        // The wire must not change an answer: compare with an in-process
        // build of the same warehouse.
        let dir = cfg.scratch.join("reference");
        let local =
            setup(Workload::ColdInproc, inputs.config, inputs.warehouse.clone(), &dir, false)?;
        for (&i, got) in picks.iter().zip(&expected) {
            let want = local.wg.discover(&queries[i], TOP_K)?.candidates;
            tally.check(same_up_to_ties(got, &want), || {
                format!("{} ranks differently over the wire", queries[i])
            });
        }
    }

    // The measured window.
    let replayer = match cfg.trace {
        true => Some(Replayer::build(&rig, &cfg.scratch.join("replica"))?),
        false => None,
    };
    let mut w = Window {
        rig: &rig,
        queries,
        steps: Vec::with_capacity(1 << 20),
        tally,
        replayer,
        reference: Reference::new(),
        last_pass: Instant::now(),
    };
    let mut order = QueryOrder::new(cfg.seed, picks.len());
    let total = Duration::from_secs_f64(cfg.seconds);
    // See `affinity`: the loopback hand-off is measured on one CPU.
    let pinned = (workload == Workload::ColdWgrp).then(Pinned::all_threads_to_one_cpu);
    let budget = if cfg.trace { total.mul_f64(1.0 - UNTRACED_SHARE) } else { total };
    let start = CacheMarks::read(&rig);
    if let Some(rp) = w.replayer.as_mut() {
        rp.begin_window();
    }
    if workload == Workload::Churn {
        churn_until(&mut w, &inputs, cfg, &mut order, budget)?;
    } else {
        w.read_until(&mut order, Some(&expected), budget, true);
    }
    if let Some(rp) = w.replayer.as_mut() {
        rp.end_window();
    }
    let end = CacheMarks::read(&rig);
    let mut untraced_p50_us = 0.0;
    if cfg.trace {
        // Price the tracing: the last stretch of the window runs untraced,
        // in the same warmed-up state, and its median is what the traced
        // root spans are compared with.
        let traced_steps = w.steps.len();
        let checked = if workload == Workload::Churn { None } else { Some(&expected[..]) };
        w.read_until(&mut order, checked, total.mul_f64(UNTRACED_SHARE), false);
        let mut lat: Vec<f64> = w
            .steps
            .drain(traced_steps..)
            .filter_map(|s| if let Step::Discover(ns) = s { Some(ns as f64 / 1e3) } else { None })
            .collect();
        if !lat.is_empty() {
            untraced_p50_us = median(&mut lat);
        }
    }
    drop(pinned);

    // Output checks that need the finished window.
    match workload {
        Workload::WarmRam | Workload::PagedFit | Workload::PagedSpill => {
            // Every window query was an embedding-cache hit. (The traced
            // replay never touches the facade's cache.)
            let misses = end.cache.misses - start.cache.misses;
            w.tally.check(misses == 0, || format!("{misses} embedding-cache misses in the window"));
        }
        Workload::Churn => {
            // The incrementally synced system ranks like a from-scratch
            // rebuild over the warehouse as it now stands.
            let now = rig.connector.warehouse().clone();
            let rebuilt = setup(workload, inputs.config, now, &cfg.scratch.join("rebuild"), false)?;
            // The rebuilt system scans its own copy, so ask both the same
            // questions and compare answers.
            check_same_rankings(&rig.wg, &rebuilt.wg, queries, false, &mut w.tally)?;
        }
        _ => {}
    }

    let metrics = if let Some(mut rp) = w.replayer.take() {
        let facts = trace::probes(
            &mut rp,
            &rig,
            &inputs,
            cfg.seed,
            &cfg.scratch,
            cfg.seconds,
            &mut w.tally,
        )?;
        let file = cfg.scratch.join(format!("trace-{}.jsonl", workload.name()));
        rp.tracer.write_jsonl(&file).map_err(|e| io_err("trace file", e))?;
        trace::per_layer_metrics(&rp, (&start, &end), &facts, untraced_p50_us)
    } else {
        let round = if workload == Workload::Churn { CHURN_READS } else { 1 };
        let (qps, p50, p90) = window_metrics(&w.steps, round)?;
        vec![
            // Set-up is one long call on every core, with no room between
            // operations for reference passes: reported as measured.
            ("setup_s", median(&mut setup_secs)),
            ("discover_qps", qps),
            ("discover_p50_us", p50),
            ("discover_p90_us", p90),
            ("billed_bytes_per_op", exact.billed_bytes_per_op),
            ("quality_p_at_10", exact.p_at_10),
            ("quality_r_at_10", exact.r_at_10),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    };
    let discovers = w.steps.iter().filter(|s| matches!(s, Step::Discover(_))).count() as u64;
    let mut passes = reference_passes(&w.steps);
    eprintln!(
        "wg_bench: {} seed {} measured {} discovers, {} checks, {} failed; \
         time scaled by {:.3} ({} reference passes)",
        workload.name(),
        cfg.seed,
        discovers,
        w.tally.attempted,
        w.tally.failed,
        reference::scale(&mut passes),
        passes.len()
    );
    Ok(Outcome { attempted: w.tally.attempted.max(1), failed: w.tally.failed, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn candidate(name: &str, score: f32) -> JoinCandidate {
        JoinCandidate { reference: ColumnRef::new("db", "t", name), score }
    }

    #[test]
    fn ties_may_reorder_but_scores_and_members_may_not_change() {
        let a = vec![
            candidate("a", 0.9),
            candidate("b", 0.5),
            candidate("c", 0.5),
            candidate("d", 0.1),
        ];
        let swapped = vec![a[0].clone(), a[2].clone(), a[1].clone(), a[3].clone()];
        assert!(same_up_to_ties(&a, &swapped));
        // A different member inside a tie, a different score, a different length.
        let mut other = swapped.clone();
        other[1] = candidate("x", 0.5);
        assert!(!same_up_to_ties(&a, &other));
        let mut rescored = a.clone();
        rescored[0].score = 0.8;
        assert!(!same_up_to_ties(&a, &rescored));
        assert!(!same_up_to_ties(&a, &a[..3]));
        // A tie that reaches the cut-off may have kept different members.
        let mut cut = a.clone();
        cut[3] = candidate("z", 0.1);
        assert!(same_up_to_ties(&a, &cut));
    }

    #[test]
    fn median_block_in_reference_time_sheds_a_slow_box_and_counts_writes() {
        // 16 blocks of 80 discovers at 10 µs, a 100 µs write before every
        // 20th, one reference pass in every 10. For blocks 5–7 the box
        // is 10× slower: discovers, writes and passes alike.
        let nominal = reference::NOMINAL_NS;
        let mut steps = Vec::new();
        for i in 0..1280u64 {
            let slow = if (400..640).contains(&i) { 10 } else { 1 };
            if i % 20 == 0 {
                steps.push(Step::Write(100_000 * slow));
            }
            steps.push(Step::Discover(10_000 * slow));
            if i % 10 == 4 {
                steps.push(Step::Reference(nominal * slow as f64));
            }
        }
        let blocks = cut_blocks(&steps, 1);
        assert_eq!(blocks.len(), 16);
        assert!(blocks.iter().all(|b| b.lat_us.len() == 80 && b.reference_ns.len() == 8));
        let (qps, p50, p90) = window_metrics(&steps, 1).unwrap();
        assert_eq!((p50, p90), (10.0, 10.0));
        // 80 discovers in 80 × 10 µs + four 100 µs writes.
        assert!((qps - 80.0 / 1200e-6).abs() < 1e-6);

        // Were the whole window on a box half as fast, the reference passes
        // would say so and the metrics would not move.
        let halved: Vec<Step> = steps
            .iter()
            .map(|s| match *s {
                Step::Discover(ns) => Step::Discover(2 * ns),
                Step::Write(ns) => Step::Write(2 * ns),
                Step::Reference(ns) => Step::Reference(2.0 * ns),
            })
            .collect();
        let (qps2, p50_2, p90_2) = window_metrics(&halved, 1).unwrap();
        assert!((qps2 - qps).abs() < 1e-6);
        assert_eq!((p50_2, p90_2), (10.0, 10.0));

        // Without passes, times are reported as measured.
        let bare: Vec<Step> =
            steps.iter().copied().filter(|s| !matches!(s, Step::Reference(_))).collect();
        assert_eq!(window_metrics(&bare, 1).unwrap().1, 10.0);
        // Churn blocks hold whole rounds.
        assert!(cut_blocks(&steps, 200).iter().all(|b| b.lat_us.len() == 200));
        // Too short for one block: report the partial one.
        assert_eq!(cut_blocks(&steps[..5], 1).len(), 1);
        assert!(window_metrics(&[], 1).is_err());
    }
}
