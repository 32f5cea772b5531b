//! Parallel batch allocation: many functions in, one ordered report out.
//!
//! The decoupled allocate-then-assign design makes the pipeline
//! embarrassingly parallel per function — no allocation round ever
//! looks at another function. [`BatchAllocator`] exploits that: it
//! takes a slice of [`Function`]s plus one [`AllocationPipeline`]
//! configuration and fans the allocate → spill → assign → verify runs
//! across a fixed-size [`std::thread::scope`] worker pool with chunked
//! work distribution, returning a [`BatchReport`] whose items are in
//! input order regardless of which worker finished first.
//!
//! Determinism is a contract, not an accident: every per-function run
//! is self-contained (the pipeline carries no shared mutable state and
//! any RNG seeding happens per function, upstream), and the report is
//! reassembled by input index, so a batch run renders **byte-identical**
//! to the sequential path ([`BatchReport::render`] deliberately excludes
//! wall-clock timings; those live in [`BatchReport::elapsed`] and
//! [`BatchItem::elapsed`]).
//!
//! The same worker pool is exposed as [`parallel_map`] so the figure
//! runners and suite generators in `lra-bench` ride one engine instead
//! of growing private thread code.
//!
//! # Example
//!
//! ```
//! use lra_core::batch::BatchAllocator;
//! use lra_core::driver::AllocationPipeline;
//! use lra_ir::builder::FunctionBuilder;
//! use lra_targets::{Target, TargetKind};
//!
//! let functions: Vec<_> = (0..4)
//!     .map(|i| {
//!         let mut b = FunctionBuilder::new(format!("f{i}"));
//!         let e = b.entry_block();
//!         let x = b.op(e, &[]);
//!         let y = b.op(e, &[x]);
//!         b.op(e, &[x, y]);
//!         b.finish()
//!     })
//!     .collect();
//!
//! let pipeline = AllocationPipeline::new(Target::new(TargetKind::St231)).registers(2);
//! let report = BatchAllocator::new(pipeline).threads(2).run(&functions);
//! assert_eq!(report.summary.functions, 4);
//! assert_eq!(report.summary.failed, 0);
//! ```

use crate::driver::{AllocatedFunction, AllocationPipeline, PipelineError};
use lra_ir::{AnalysisScratch, Function};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Process-wide default worker count override (0 = resolve
/// automatically). Set by CLI `--threads` flags so deep callers
/// (the figures' cost tables, suite generators) need no plumbing.
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Overrides the process-wide default worker count used by
/// [`default_threads`]. `0` restores automatic resolution.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count used when a caller does not pick one explicitly:
/// the [`set_default_threads`] override if set, else
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    let n = DEFAULT_THREADS.load(Ordering::Relaxed);
    if n > 0 {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every item of `items` on a pool of `threads` scoped
/// workers and returns the results **in input order**.
///
/// Work is distributed in chunks claimed from a shared atomic cursor
/// (cheap dynamic load balancing without per-item contention); each
/// worker buffers its `(index, result)` pairs locally and the final
/// vector is reassembled by index, so the output is independent of
/// scheduling. With `threads <= 1` (or one item) the map runs inline
/// on the caller's thread — the sequential path and the parallel path
/// produce identical results by construction.
///
/// A panic inside `f` propagates to the caller once the scope joins.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    parallel_map_with(items, threads, || (), |(), i, t| f(i, t))
}

/// [`parallel_map`] with per-worker state: `init` runs once on each
/// worker thread (and once inline for the sequential path) and the
/// resulting value is passed by `&mut` to every `f` call that worker
/// executes. This is how batch workers keep one [`AnalysisScratch`]
/// alive across all the functions they process — state reuse without
/// sharing, so determinism is untouched (output order is still
/// reassembled by input index and `f` still sees every item exactly
/// once).
pub fn parallel_map_with<T, U, S, I, F>(items: &[T], threads: usize, init: I, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    if threads == 1 {
        let mut state = init();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }

    // Chunks small enough to balance uneven per-item costs, large
    // enough that the cursor is not a hot spot.
    let chunk = (n / (threads * 4)).max(1);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                let mut local: Vec<(usize, U)> = Vec::new();
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= n {
                        break;
                    }
                    let end = (start + chunk).min(n);
                    for (i, item) in items.iter().enumerate().take(end).skip(start) {
                        local.push((i, f(&mut state, i, item)));
                    }
                }
                collected
                    .lock()
                    .expect("worker poisoned batch")
                    .extend(local);
            });
        }
    });

    let mut pairs = collected.into_inner().expect("worker poisoned batch");
    pairs.sort_by_key(|&(i, _)| i);
    debug_assert_eq!(pairs.len(), n);
    pairs.into_iter().map(|(_, u)| u).collect()
}

/// Fans one [`AllocationPipeline`] configuration over many functions.
/// See the [module docs](self).
#[derive(Clone, Debug)]
pub struct BatchAllocator {
    pipeline: AllocationPipeline,
    threads: Option<usize>,
}

impl BatchAllocator {
    /// A batch driver running `pipeline` on every submitted function,
    /// with the worker count resolved by [`default_threads`].
    pub fn new(pipeline: AllocationPipeline) -> Self {
        BatchAllocator {
            pipeline,
            threads: None,
        }
    }

    /// Fixes the worker-pool size. `0` restores the default
    /// ([`default_threads`]).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = (n > 0).then_some(n);
        self
    }

    /// The pipeline configuration each function runs through.
    pub fn pipeline(&self) -> &AllocationPipeline {
        &self.pipeline
    }

    /// The worker count a run over `items` functions would use (never
    /// more workers than items).
    pub fn effective_threads(&self, items: usize) -> usize {
        self.threads
            .unwrap_or_else(default_threads)
            .max(1)
            .min(items.max(1))
    }

    /// Runs the full pipeline on every function and returns the
    /// ordered report. Per-function failures (unknown allocator, view
    /// mismatch, non-chordal input, and even a panicking pipeline run)
    /// surface as per-item errors — one bad function never aborts the
    /// batch.
    pub fn run(&self, functions: &[Function]) -> BatchReport {
        self.run_refs(&functions.iter().collect::<Vec<_>>())
    }

    /// [`BatchAllocator::run`] over borrowed functions, for callers
    /// (suite sweeps) whose corpus lives inside a larger structure.
    ///
    /// A panic inside one function's pipeline run is caught and
    /// recorded as that item's [`PipelineError::Panic`] instead of
    /// unwinding through the worker — an unwinding worker would poison
    /// the result mutex and abort the whole batch, violating the
    /// per-item failure contract. (The panic message still goes to
    /// stderr via the process panic hook; the report stays
    /// deterministic because the hook writes to a different stream.)
    ///
    /// The batch is traced ([`BatchItem::trace`]) when the calling
    /// thread holds a [`crate::trace::arm`] guard or `LRA_TRACE` is set.
    pub fn run_refs(&self, functions: &[&Function]) -> BatchReport {
        let threads = self.effective_threads(functions.len());
        let traced = crate::trace::enabled() || crate::trace::env_requested();
        let start = Instant::now();
        let items = parallel_map_with(functions, threads, AnalysisScratch::new, |scratch, _, f| {
            allocate_item(&self.pipeline, f, scratch, traced)
        });
        let elapsed = start.elapsed();
        let summary = BatchSummary::from_items(&items);
        BatchReport {
            items,
            threads,
            elapsed,
            summary,
        }
    }
}

/// Runs `pipeline` on one function exactly the way a batch worker
/// does: wall-clock timed, with a panicking run caught and recorded as
/// the item's [`PipelineError::Panic`]. This is the per-item engine
/// behind [`BatchAllocator::run_refs`], exported so long-lived drivers
/// (the `lra-service` worker pool) produce items byte-compatible with
/// a batch run.
///
/// Each batch (and service) worker owns one [`AnalysisScratch`] for its
/// whole lifetime and passes it to every call, so the analysis buffers
/// are allocated once per worker instead of once per function per
/// round. The output is identical to a fresh `AnalysisScratch::new()`
/// (a property test pins this), and the scratch crossing the
/// `catch_unwind` boundary is sound: every analysis entry point resets
/// its buffers to the function at hand before reading them, so a panic
/// that leaves the scratch mid-write cannot leak state into the next
/// item's result.
///
/// With `traced` set, the run is bracketed by a per-item collection on
/// the calling thread ([`crate::trace::begin`] … [`crate::trace::take`]).
/// The trace rides along as a side channel on the item — rows and
/// rendering never read it, so output bytes are identical either way.
pub fn allocate_item(
    pipeline: &AllocationPipeline,
    f: &Function,
    scratch: &mut AnalysisScratch,
    traced: bool,
) -> BatchItem {
    if traced {
        crate::trace::begin(false);
    }
    let t0 = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pipeline.run_with(f, scratch)
    }))
    .unwrap_or_else(|payload| Err(PipelineError::Panic(panic_message(&payload))));
    let elapsed = t0.elapsed();
    let trace = if traced { crate::trace::take() } else { None };
    BatchItem {
        function: f.name.clone(),
        outcome,
        elapsed,
        trace,
    }
}

/// Renders a caught panic payload as the human-readable message
/// `panic!` was invoked with (the payload is a `&str` or `String` for
/// every formatted panic; anything else is reported opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One function's slot in a [`BatchReport`]. Its position in
/// [`BatchReport::items`] is its position in the submitted batch.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The function's name.
    pub function: String,
    /// The pipeline result: a full [`AllocatedFunction`] report, or the
    /// per-item error that kept this function from being allocated.
    pub outcome: Result<AllocatedFunction, PipelineError>,
    /// Wall-clock time this item spent in the pipeline (excluded from
    /// [`BatchReport::render`] to keep batch output deterministic).
    pub elapsed: Duration,
    /// Per-phase trace collected while this item ran, when its
    /// submitter asked for tracing ([`crate::trace`]); `None`
    /// otherwise. Like `elapsed`, a side channel: [`BatchItem::row`]
    /// and every renderer ignore it, so traced and untraced runs stay
    /// byte-identical.
    pub trace: Option<crate::trace::TraceReport>,
}

impl BatchItem {
    /// The successful report, if any.
    pub fn report(&self) -> Option<&AllocatedFunction> {
        self.outcome.as_ref().ok()
    }

    /// Collapses this item to the report row it renders as. Rows carry
    /// only the rendered columns (no IR, no assignment), so they are
    /// what crosses the wire in the `lra-service` protocol — and
    /// [`render_rows`] over them is byte-identical to
    /// [`BatchReport::render`] over the originals.
    pub fn row(&self) -> ReportRow {
        ReportRow {
            function: self.function.clone(),
            outcome: match &self.outcome {
                Ok(r) => Ok(RowStats {
                    spill_cost: r.spill_cost,
                    rounds: r.rounds,
                    stores: r.stores,
                    loads: r.loads,
                    converged: r.converged,
                    verified: r.verdict.is_feasible(),
                    escalated: r.escalated,
                }),
                Err(e) => Err(e.to_string()),
            },
        }
    }
}

/// The rendered columns of one successful report row — everything
/// [`render_rows`] prints for an allocated function.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowStats {
    /// Total spill cost over all rounds.
    pub spill_cost: u64,
    /// Allocation rounds executed.
    pub rounds: u32,
    /// Spill stores inserted.
    pub stores: usize,
    /// Spill reloads inserted.
    pub loads: usize,
    /// Whether the final round spilled nothing.
    pub converged: bool,
    /// Whether the final allocation verified feasible.
    pub verified: bool,
    /// Whether the accepted result came from the split + remat
    /// escalation tier ([`AllocatedFunction::escalated`]).
    pub escalated: bool,
}

/// One report row: a function name plus its stats or error message.
/// The wire-transportable projection of a [`BatchItem`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReportRow {
    /// The function's name.
    pub function: String,
    /// Rendered stats, or the per-item error message.
    pub outcome: Result<RowStats, String>,
}

/// Renders report rows exactly as [`BatchReport::render`] renders the
/// corresponding items: the aligned per-row table followed by the
/// [`BatchSummary`] lines recomputed from the rows. Shared by the
/// batch driver and the service load generator so "byte-identical to a
/// batch run" is a property of the code path, not a convention.
pub fn render_rows(rows: &[ReportRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{:>5} {:<28} {:>11} {:>7} {:>7} {:>7} {:>10} {:>9}",
        "#", "function", "spill cost", "rounds", "stores", "loads", "converged", "verified"
    );
    for (index, row) in rows.iter().enumerate() {
        match &row.outcome {
            Ok(r) => {
                let _ = writeln!(
                    s,
                    "{:>5} {:<28} {:>11} {:>7} {:>7} {:>7} {:>10} {:>9}",
                    index,
                    row.function,
                    r.spill_cost,
                    r.rounds,
                    r.stores,
                    r.loads,
                    r.converged,
                    r.verified
                );
            }
            Err(e) => {
                let _ = writeln!(s, "{:>5} {:<28} error: {e}", index, row.function);
            }
        }
    }
    let m = BatchSummary::from_rows(rows);
    let _ = writeln!(
        s,
        "functions {} | ok {} | failed {} | converged {} | non-converged {} | escalated {}",
        m.functions, m.succeeded, m.failed, m.converged, m.non_converged, m.escalated
    );
    let _ = writeln!(
        s,
        "total spill cost {} (stores {}, loads {})",
        m.total_spill_cost, m.total_stores, m.total_loads
    );
    if let Some([min, q1, med, q3, max]) = m.spill_cost_quartiles {
        let _ = writeln!(
            s,
            "spill cost per function: min {min} | q1 {q1} | median {med} | q3 {q3} | max {max}"
        );
    }
    s
}

/// Aggregate statistics over a batch, computed once at the end of
/// [`BatchAllocator::run`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchSummary {
    /// Functions submitted.
    pub functions: usize,
    /// Functions whose pipeline run returned a report.
    pub succeeded: usize,
    /// Functions whose pipeline run returned a [`PipelineError`].
    pub failed: usize,
    /// Successful runs that converged (last round spilled nothing).
    pub converged: usize,
    /// Successful runs that hit the round budget or the §4.3
    /// residual-pressure cutoff with values still unallocated. Before
    /// this summary existed the flag was only visible per-report; the
    /// batch view is where a stuck corpus actually shows up.
    pub non_converged: usize,
    /// Successful runs whose accepted result came from the split +
    /// remat escalation tier — a subset of `converged` by the
    /// acceptance rule, so `escalated` is exactly how many functions
    /// the tier rescued from the residual-pressure tail.
    pub escalated: usize,
    /// Total spill cost over all successful runs.
    pub total_spill_cost: u64,
    /// Spill stores inserted over all successful runs.
    pub total_stores: usize,
    /// Spill reloads inserted over all successful runs.
    pub total_loads: usize,
    /// Min/Q1/median/Q3/max of per-function spill cost (successful
    /// runs; `None` for an all-failed or empty batch). Quartiles are
    /// nearest-rank order statistics, so they stay integral and
    /// render identically everywhere.
    pub spill_cost_quartiles: Option<[u64; 5]>,
}

impl BatchSummary {
    fn from_items(items: &[BatchItem]) -> Self {
        Self::from_rows(&items.iter().map(BatchItem::row).collect::<Vec<_>>())
    }

    /// Aggregates report rows — the same statistics [`BatchReport`]
    /// carries, recomputable from the wire-transported rows on the
    /// client side of the service protocol.
    pub fn from_rows(rows: &[ReportRow]) -> Self {
        let mut s = BatchSummary {
            functions: rows.len(),
            succeeded: 0,
            failed: 0,
            converged: 0,
            non_converged: 0,
            escalated: 0,
            total_spill_cost: 0,
            total_stores: 0,
            total_loads: 0,
            spill_cost_quartiles: None,
        };
        let mut costs: Vec<u64> = Vec::with_capacity(rows.len());
        for row in rows {
            match &row.outcome {
                Ok(r) => {
                    s.succeeded += 1;
                    if r.converged {
                        s.converged += 1;
                    } else {
                        s.non_converged += 1;
                    }
                    if r.escalated {
                        s.escalated += 1;
                    }
                    s.total_spill_cost += r.spill_cost;
                    s.total_stores += r.stores;
                    s.total_loads += r.loads;
                    costs.push(r.spill_cost);
                }
                Err(_) => s.failed += 1,
            }
        }
        if !costs.is_empty() {
            costs.sort_unstable();
            let n = costs.len();
            let at = |k: usize| costs[(n - 1) * k / 4];
            s.spill_cost_quartiles = Some([at(0), at(1), at(2), at(3), at(4)]);
        }
        s
    }
}

/// The ordered result of a batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Per-function results, in submission order.
    pub items: Vec<BatchItem>,
    /// Worker-pool size the run actually used.
    pub threads: usize,
    /// Wall-clock time of the whole batch (pool spin-up to join).
    pub elapsed: Duration,
    /// Aggregate statistics.
    pub summary: BatchSummary,
}

impl BatchReport {
    /// Renders the report as an aligned text table (via
    /// [`render_rows`], which service clients reuse on wire-received
    /// rows).
    ///
    /// The output is **deterministic**: it contains per-item results
    /// and aggregate statistics but neither timings nor the thread
    /// count, so runs at any `--threads` setting are byte-identical —
    /// the property the CI determinism check diffs for.
    pub fn render(&self) -> String {
        render_rows(&self.items.iter().map(BatchItem::row).collect::<Vec<_>>())
    }

    /// The wire-transportable projection of every item, in order.
    pub fn rows(&self) -> Vec<ReportRow> {
        self.items.iter().map(BatchItem::row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_ir::builder::FunctionBuilder;
    use lra_ir::genprog::{random_ssa_function, SsaConfig};
    use lra_targets::{Target, TargetKind};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn corpus(n: u64) -> Vec<Function> {
        (0..n)
            .map(|seed| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let cfg = SsaConfig {
                    target_instrs: 50,
                    liveness_window: 9,
                    ..SsaConfig::default()
                };
                random_ssa_function(&mut rng, &cfg, format!("f{seed}"))
            })
            .collect()
    }

    fn pipeline() -> AllocationPipeline {
        AllocationPipeline::new(Target::new(TargetKind::St231)).registers(3)
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 5, 16] {
            let out = parallel_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn parallel_map_handles_more_threads_than_items() {
        let items = [7usize, 8];
        let out = parallel_map(&items, 64, |_, &x| x + 1);
        assert_eq!(out, vec![8, 9]);
    }

    #[test]
    fn parallel_map_on_empty_slice() {
        let items: [u32; 0] = [];
        let out = parallel_map(&items, 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_with_runs_init_once_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        let inits = AtomicUsize::new(0);
        let out = parallel_map_with(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |count, _, &x| {
                *count += 1;
                (x, *count)
            },
        );
        // Every item was mapped exactly once, in order, and state was
        // created per worker (not per item): the running count each
        // item observed is at least 1 and never exceeds the item total.
        assert_eq!(out.len(), 64);
        assert!(out.iter().enumerate().all(|(i, &(x, _))| x == i));
        assert!(out.iter().all(|&(_, c)| (1..=64).contains(&c)));
        let inits = inits.load(Ordering::Relaxed);
        assert!(inits <= 4, "init ran {inits} times for 4 workers");
    }

    #[test]
    fn reused_scratch_matches_fresh_scratch_byte_for_byte() {
        // One scratch threaded through functions of very different
        // sizes must produce exactly what fresh scratch does.
        let mut fs = corpus(6);
        fs.insert(2, {
            let mut b = FunctionBuilder::new("tiny");
            let e = b.entry_block();
            let x = b.op(e, &[]);
            b.op(e, &[x]);
            b.finish()
        });
        let p = pipeline();
        let mut scratch = AnalysisScratch::new();
        for f in &fs {
            let reused = allocate_item(&p, f, &mut scratch, false);
            let fresh = allocate_item(&p, f, &mut AnalysisScratch::new(), false);
            assert_eq!(reused.row(), fresh.row());
        }
    }

    #[test]
    fn scratch_survives_a_caught_panic_without_contaminating_results() {
        use lra_ir::cfg::{Block, BlockId};
        let mut blocks = vec![Block::default()];
        blocks[0].succs = vec![BlockId(7)];
        let broken = Function {
            name: "broken".into(),
            blocks,
            entry: BlockId(0),
            value_count: 1,
            params: vec![],
        };
        let p = pipeline();
        let fs = corpus(2);
        let mut scratch = AnalysisScratch::new();
        let before = allocate_item(&p, &fs[0], &mut scratch, false);
        let bad = allocate_item(&p, &broken, &mut scratch, false);
        assert!(matches!(bad.outcome, Err(PipelineError::Panic(_))));
        let after = allocate_item(&p, &fs[1], &mut scratch, false);
        let fresh = |f| allocate_item(&p, f, &mut AnalysisScratch::new(), false).row();
        assert_eq!(before.row(), fresh(&fs[0]));
        assert_eq!(after.row(), fresh(&fs[1]));
    }

    #[test]
    fn batch_matches_sequential_byte_for_byte() {
        let fs = corpus(8);
        let seq = BatchAllocator::new(pipeline()).threads(1).run(&fs);
        let par = BatchAllocator::new(pipeline()).threads(4).run(&fs);
        assert_eq!(seq.render(), par.render());
        assert_eq!(seq.summary, par.summary);
        for (a, b) in seq.items.iter().zip(&par.items) {
            assert_eq!(a.function, b.function);
        }
    }

    #[test]
    fn empty_batch_reports_cleanly() {
        let report = BatchAllocator::new(pipeline()).run(&[]);
        assert_eq!(report.summary.functions, 0);
        assert_eq!(report.summary.spill_cost_quartiles, None);
        assert!(report.items.is_empty());
        assert!(report.render().contains("functions 0"));
    }

    #[test]
    fn effective_threads_never_exceeds_items() {
        let b = BatchAllocator::new(pipeline()).threads(16);
        assert_eq!(b.effective_threads(3), 3);
        assert_eq!(b.effective_threads(0), 1);
        assert_eq!(b.effective_threads(100), 16);
    }

    #[test]
    fn non_converged_runs_are_counted() {
        // Seven values consumed by one instruction: with R = 2 the
        // reloads exceed R at the use point, so the run cannot
        // converge (same construction as the driver's test).
        let mut b = FunctionBuilder::new("wide");
        let e = b.entry_block();
        let vs: Vec<_> = (0..7).map(|_| b.op(e, &[])).collect();
        b.op(e, &vs);
        let wide = b.finish();
        let mut fs: Vec<Function> = (0..2)
            .map(|i| {
                let mut b = FunctionBuilder::new(format!("tiny{i}"));
                let e = b.entry_block();
                let x = b.op(e, &[]);
                b.op(e, &[x]);
                b.finish()
            })
            .collect();
        fs.push(wide);
        let report = BatchAllocator::new(
            AllocationPipeline::new(Target::new(TargetKind::St231)).registers(2),
        )
        .run(&fs);
        assert_eq!(report.summary.succeeded, 3);
        assert_eq!(report.summary.non_converged, 1);
        assert_eq!(report.summary.converged, 2);
        assert!(report.render().contains("non-converged 1"));
    }

    #[test]
    fn panicking_pipeline_run_is_a_per_item_error_not_an_abort() {
        use lra_ir::cfg::{Block, BlockId};
        // A structurally broken function (dangling successor) makes
        // the analysis phase panic; the batch must capture that as
        // this item's error while the rest of the corpus completes.
        let mut blocks = vec![Block::default()];
        blocks[0].succs = vec![BlockId(7)];
        let broken = Function {
            name: "broken".into(),
            blocks,
            entry: BlockId(0),
            value_count: 1,
            params: vec![],
        };
        let mut fs = corpus(3);
        fs.insert(1, broken);
        let report = BatchAllocator::new(pipeline()).threads(2).run(&fs);
        assert_eq!(report.summary.functions, 4);
        assert_eq!(report.summary.failed, 1);
        assert_eq!(report.summary.succeeded, 3);
        assert!(matches!(
            report.items[1].outcome,
            Err(PipelineError::Panic(_))
        ));
        assert!(report.render().contains("error: pipeline panicked"));
    }

    #[test]
    fn rows_render_byte_identical_to_the_report() {
        let fs = corpus(5);
        let report = BatchAllocator::new(pipeline()).run(&fs);
        assert_eq!(render_rows(&report.rows()), report.render());
        assert_eq!(BatchSummary::from_rows(&report.rows()), report.summary);
    }

    #[test]
    fn allocate_item_matches_a_single_item_batch() {
        let fs = corpus(1);
        let p = pipeline();
        let item = allocate_item(&p, &fs[0], &mut AnalysisScratch::new(), false);
        let batch = BatchAllocator::new(p).run(&fs);
        assert_eq!(item.row(), batch.items[0].row());
    }

    #[test]
    fn default_threads_override_round_trips() {
        set_default_threads(3);
        assert_eq!(default_threads(), 3);
        set_default_threads(0);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn quartiles_are_order_statistics() {
        let items: Vec<BatchItem> = [5u64, 1, 9, 3, 7]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let f = {
                    let mut b = FunctionBuilder::new(format!("f{i}"));
                    let e = b.entry_block();
                    b.op(e, &[]);
                    b.finish()
                };
                let mut r = pipeline().run(&f).unwrap();
                r.spill_cost = c;
                BatchItem {
                    function: f.name.clone(),
                    outcome: Ok(r),
                    elapsed: Duration::ZERO,
                    trace: None,
                }
            })
            .collect();
        let s = BatchSummary::from_items(&items);
        assert_eq!(s.spill_cost_quartiles, Some([1, 3, 5, 7, 9]));
        assert_eq!(s.total_spill_cost, 25);
    }
}
