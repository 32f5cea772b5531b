//! The two batch workloads, `huge-2t` and `layered-1t`.
//!
//! A workload is a list of *slices*: one repository corpus generated
//! from one seed, with the pipeline that corpus runs under. Slice `i`
//! of a run with seed `s` is generated from seed `s + i`, so the slice
//! for seed 2013 is exactly the corpus `BENCH_batch.json` records. A
//! *pass* batches every slice once; a run repeats whole passes until it
//! has timed `--seconds` of batch wall-clock, so every run of a seed
//! times the same mix of functions however fast the program is.
//!
//! Many slices per pass are what keep the figures steady across seeds:
//! per-function cost is heavily skewed (one `jit-huge` method can cost
//! more than the other 503 together), so one corpus alone moves
//! throughput and convergence by more than a regression bound.

use crate::metrics::Report;
use crate::{layers, Config, Policy, Quality, Reference};
use lra_bench::suites;
use lra_core::batch::{BatchAllocator, BatchItem};
use lra_core::cache::CacheStats;
use lra_core::driver::AllocationPipeline;
use lra_core::portfolio::portfolio_cache;
use lra_core::trace::{self, Phase, TraceReport};
use lra_ir::Function;
use std::time::Duration;

/// `jit-huge` corpora per `huge-2t` pass (504 methods each).
pub const HUGE_SLICES: u64 = 8;

/// Seeds per `layered-1t` pass (24 lao-kernels + 54 SPEC JVM98
/// functions each).
pub const LAYERED_SLICES: u64 = 60;

/// One corpus and the pipeline it runs under.
pub struct Slice {
    /// Repository suite name.
    pub suite: &'static str,
    /// Seed the corpus was generated from.
    pub seed: u64,
    /// Pipeline parts (for the layer probes).
    pub config: Config,
    /// The built pipeline.
    pub pipeline: AllocationPipeline,
    /// The corpus.
    pub functions: Vec<Function>,
}

impl Slice {
    /// A slice running `functions` under `config`.
    pub fn new(suite: &'static str, seed: u64, config: Config, functions: Vec<Function>) -> Self {
        Slice {
            suite,
            seed,
            pipeline: config.pipeline(),
            config,
            functions,
        }
    }

    /// Whether the slice runs the portfolio, whose result cache is
    /// cleared before every batch so every pass starts cold.
    pub fn uses_portfolio(&self) -> bool {
        matches!(self.config.policy, Policy::Portfolio(_))
    }
}

/// A batch workload ready to run.
pub struct BatchWorkload {
    /// Worker threads per batch.
    pub threads: usize,
    /// The slices, in pass order.
    pub slices: Vec<Slice>,
}

impl BatchWorkload {
    /// `huge-2t` from `seed`: `slices` consecutive `jit-huge` corpora.
    pub fn huge(seed: u64, slices: u64, threads: usize) -> Self {
        BatchWorkload {
            threads,
            slices: (0..slices)
                .map(|i| {
                    let s = seed.wrapping_add(i);
                    Slice::new(
                        "jit-huge",
                        s,
                        Config::jit_huge(),
                        suites::jit_huge_functions(s),
                    )
                })
                .collect(),
        }
    }

    /// `layered-1t` from `seed`: `slices` consecutive seeds, each a
    /// lao-kernels slice and a SPEC JVM98 slice.
    pub fn layered(seed: u64, slices: u64) -> Self {
        BatchWorkload {
            threads: 1,
            slices: (0..slices)
                .flat_map(|i| {
                    let s = seed.wrapping_add(i);
                    [
                        Slice::new(
                            "lao-kernels",
                            s,
                            Config::lao_kernels(),
                            suites::lao_kernel_functions(s),
                        ),
                        Slice::new(
                            "specjvm98",
                            s,
                            Config::specjvm98(),
                            suites::specjvm98_functions(s),
                        ),
                    ]
                })
                .collect(),
        }
    }

    /// Functions per pass.
    pub fn functions(&self) -> usize {
        self.slices.iter().map(|s| s.functions.len()).sum()
    }
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Σ batch wall-clock (pool start to join).
    pub wall: Duration,
    /// Σ per-function pipeline time.
    pub busy: Duration,
    /// Per-function latency, ms.
    pub latencies_ms: Vec<f64>,
    /// Merged per-item traces (traced passes only).
    pub trace: TraceReport,
    /// Result-cache counter deltas.
    pub cache: CacheStats,
    /// Functions run.
    pub functions: u64,
    /// Functions whose answer failed or differed from the reference.
    pub failed: u64,
}

/// The references of every slice, filled by the first pass.
pub type References = Vec<Vec<Reference>>;

impl BatchWorkload {
    /// Runs every slice once. The first pass checks each answer and
    /// stores it as the reference; later passes compare against it.
    /// Only the batches themselves are timed.
    pub fn pass(&self, traced: bool, refs: &mut References, report: &mut Report) -> Pass {
        let mut pass = Pass::default();
        let _armed = traced.then(trace::arm);
        for (si, slice) in self.slices.iter().enumerate() {
            if slice.uses_portfolio() {
                portfolio_cache().clear();
            }
            let before = portfolio_cache().stats();
            let batch = BatchAllocator::new(slice.pipeline.clone())
                .threads(self.threads)
                .run(&slice.functions);
            pass.cache = pass.cache.merge(&portfolio_cache().stats().since(&before));
            pass.wall += batch.elapsed;
            for item in &batch.items {
                pass.busy += item.elapsed;
                pass.latencies_ms.push(crate::ms(item.elapsed));
                if let Some(t) = &item.trace {
                    pass.trace.merge(t);
                }
            }
            pass.functions += batch.items.len() as u64;
            pass.failed += self.compare(si, &batch.items, refs, report);
        }
        pass
    }

    fn compare(
        &self,
        si: usize,
        items: &[BatchItem],
        refs: &mut References,
        report: &mut Report,
    ) -> u64 {
        let slice = &self.slices[si];
        if refs.len() <= si {
            let checked: Vec<Reference> = items
                .iter()
                .zip(&slice.functions)
                .map(|(item, f)| crate::reference(item, f, &slice.config, report))
                .collect();
            let q = Quality::of(&checked);
            report.line(format!(
                "slice {} seed {}: {} functions, spill_cost_total {}, converged {}/{} \
                 ({} of them without a total register assignment)",
                slice.suite,
                slice.seed,
                q.functions,
                q.spill_cost_total,
                q.converged,
                q.ok,
                q.unassigned
            ));
            refs.push(checked);
            return refs[si].iter().filter(|r| !r.ok).count() as u64;
        }
        items
            .iter()
            .zip(&refs[si])
            .filter(|(item, r)| {
                let same = crate::matches(item, r);
                if !same && r.ok {
                    report.line(format!("{} differs from its reference", item.function));
                }
                !same
            })
            .count() as u64
    }
}

/// The end-to-end run: whole untraced passes until `seconds` of batch
/// wall-clock are timed.
pub fn measure(w: &BatchWorkload, seconds: f64, report: &mut Report) {
    let mut refs = References::new();
    let mut walls = Vec::new();
    let mut latencies = Vec::new();
    while walls.is_empty() || walls.iter().sum::<f64>() < seconds {
        let p = w.pass(false, &mut refs, report);
        walls.push(p.wall.as_secs_f64());
        report.line(format!(
            "pass {}: {} functions in {:.3} s",
            walls.len(),
            p.functions,
            p.wall.as_secs_f64()
        ));
        latencies.push(p.latencies_ms);
        report.attempted += p.functions;
        report.failed += p.failed;
    }
    // The host's speed swings by a quarter from one pass to the next;
    // the median pass keeps one slow stretch from moving the figure.
    let n = w.functions();
    report.set(
        "funcs_per_s",
        n as f64 / crate::metrics::median(&walls),
        format!(
            "{n} functions per pass / median wall-clock of {} passes ({:.3} s timed), {} threads",
            walls.len(),
            walls.iter().sum::<f64>(),
            w.threads
        ),
    );
    crate::record_latency(&latencies, report);
    Quality::of(refs.iter().flatten()).record(report);
    report.set(
        "ok_share",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
        format!("{} of {} answers failed", report.failed, report.attempted),
    );
}

/// The traced run: untraced and traced passes alternate until each
/// side has timed half of `seconds`; the traced passes give the
/// `core.*` budget, the untraced ones the batch and cache counters,
/// and the layer probes run once over the distinct functions. Returns
/// the references.
pub fn measure_traced(w: &BatchWorkload, seconds: f64, report: &mut Report) -> References {
    let mut refs = References::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let side = |passes: &[Pass]| passes.iter().map(|p| p.wall.as_secs_f64()).sum::<f64>();
    while plain.is_empty() || side(&plain) < seconds / 2.0 || side(&traced) < seconds / 2.0 {
        for on in [false, true] {
            let p = w.pass(on, &mut refs, report);
            report.attempted += p.functions;
            report.failed += p.failed;
            if on {
                traced.push(p);
            } else {
                plain.push(p);
            }
        }
    }
    let per_pass = |x: f64, passes: &[Pass]| x / passes.len() as f64;
    let mut merged = TraceReport::default();
    for p in &traced {
        merged.merge(&p.trace);
    }
    let busy: f64 = traced.iter().map(|p| p.busy.as_secs_f64()).sum();
    layers::record_core(&merged, busy, traced.len(), report);
    report.set(
        "core.spill_cost_total",
        Quality::of(refs.iter().flatten()).spill_cost_total as f64,
        "one pass over the distinct functions",
    );

    let fps =
        |passes: &[Pass]| passes.iter().map(|p| p.functions).sum::<u64>() as f64 / side(passes);
    report.set(
        "trace.overhead_share",
        1.0 - fps(&traced) / fps(&plain),
        format!(
            "{:.1} traced vs {:.1} untraced functions/s",
            fps(&traced),
            fps(&plain)
        ),
    );
    let busy_ms: f64 = plain.iter().map(|p| crate::ms(p.busy)).sum();
    let wall_ms: f64 = plain.iter().map(|p| crate::ms(p.wall)).sum();
    report.set(
        "batch.busy_ms",
        per_pass(busy_ms, &plain),
        "Σ per-function time, per untraced pass",
    );
    report.set(
        "batch.idle_share",
        1.0 - busy_ms / (w.threads as f64 * wall_ms),
        format!("{} threads", w.threads),
    );
    let mut cache = CacheStats::default();
    for p in &plain {
        cache = cache.merge(&p.cache);
    }
    layers::record_cache(&cache, plain.len(), report);
    crate::serve::probe_service(w, &refs, report);
    report.set(
        "check.unassigned_converged",
        Quality::of(refs.iter().flatten()).unassigned as f64,
        "converged rows in which a value live at a write holds no register",
    );
    report.set(
        "verify.unknown",
        refs.iter().flatten().filter(|r| r.unverified).count() as f64,
        "rows whose own verdict is not Feasible",
    );
    report.set(
        "ir.spill_instrs",
        refs.iter().flatten().map(|r| r.spill_instrs).sum::<u64>() as f64,
        "stores + loads + remats, one pass",
    );

    let probes: Vec<(&Function, &Config)> = w
        .slices
        .iter()
        .flat_map(|s| s.functions.iter().map(move |f| (f, &s.config)))
        .collect();
    layers::probe(&probes, w.threads, report);
    if merged.phases[Phase::Pipeline as usize].count == 0 {
        report
            .problems
            .push("traced passes recorded no pipeline span".into());
    }
    refs
}
