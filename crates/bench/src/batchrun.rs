//! The `lra-bench batch` / `record` corpora and the persisted
//! benchmark baseline (`BENCH_batch.json`).
//!
//! [`standard_experiments`] defines the corpora the CLI batches over:
//! the random lao-kernels SSA suite (`BFPL`), the SPEC JVM98 JIT
//! methods (non-chordal, `LH`), the large-method JIT corpus under
//! the budgeted `Portfolio` policy, and the 504-method `jit-huge`
//! scaling corpus (many small methods — the thread-scaling
//! measurement). `batch` renders each
//! [`lra_core::BatchReport`] deterministically (timings go to stderr),
//! so CI can diff two runs — and a `--threads 4` run against the
//! sequential path — byte for byte. The portfolio's only cap is its
//! node fuel, so its escalation decisions are part of that
//! determinism contract.
//!
//! [`record`] reruns the same corpora at several worker counts,
//! takes per-experiment **min and median** wall-clock times, and
//! writes the `BENCH_batch.json` baseline at the repo root so the
//! perf trajectory is tracked in-tree (see ROADMAP.md:
//! `BENCH_*.json` convention).

use crate::suites;
use lra_core::batch::BatchAllocator;
use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::InstanceKind;
use lra_core::portfolio::PortfolioConfig;
use lra_core::BatchReport;
use lra_ir::Function;
use lra_targets::{Target, TargetKind};
use std::time::Duration;

/// One named batch corpus: a pipeline configuration plus the functions
/// it fans over.
pub struct BatchExperiment {
    /// Stable experiment name (`suite/allocator/R`).
    pub name: String,
    /// The per-function pipeline configuration.
    pub pipeline: AllocationPipeline,
    /// The function corpus, in suite order.
    pub functions: Vec<Function>,
}

impl BatchExperiment {
    /// Runs the corpus on `threads` workers (0 = default).
    pub fn run(&self, threads: usize) -> BatchReport {
        BatchAllocator::new(self.pipeline.clone())
            .threads(threads)
            .run(&self.functions)
    }
}

/// The fuels `lra-bench portfolio` compares: 1×, ½, ¼, ⅒ and
/// 1⁄20 of the 50,000 nodes the standard corpora ran under while an
/// exhausted search still discarded what it had found.
pub const FUEL_SWEEP: [u64; 5] = [50_000, 25_000, 12_500, 5_000, 2_500];

/// The portfolio configuration the standard corpora run under:
/// [`PortfolioConfig::default`], whose 5,000-node fuel the
/// [`FUEL_SWEEP`] frontier picked. Fuel is counted, not timed, so the
/// escalation outcome (and therefore the rendered report) is
/// byte-identical at any worker count.
///
/// It only returns the default, but the name stays: the frozen
/// benchmark package calls it (`perfbench/src/lib.rs` and
/// `perfbench/src/layers.rs`), so removing it breaks the benchmark
/// build.
pub fn standard_portfolio_config() -> PortfolioConfig {
    PortfolioConfig::default()
}

/// The pipeline the `jit-large` batch corpus runs — and the one the
/// `serve` CLI subcommand hosts, so a `loadgen` dump over TCP is
/// byte-comparable to the in-tree `jit-large/Portfolio/R6` batch
/// experiment: ARM JIT target, precise graphs, R = 6, 4 rounds, the
/// standard fuel-only portfolio.
pub fn jit_large_pipeline() -> AllocationPipeline {
    AllocationPipeline::new(Target::new(TargetKind::ArmCortexA8))
        .instance_kind(InstanceKind::PreciseGraph)
        .registers(6)
        .max_rounds(4)
        .escalation(true)
        .portfolio(standard_portfolio_config())
}

/// The corpora behind `lra-bench -- batch` and `-- record`: the
/// random lao-kernels SSA suite under `BFPL` (interval view, R = 4),
/// the SPEC JVM98 JIT methods under `LH` (precise non-chordal graphs,
/// R = 6), and the large-method [`suites::jit_large`] corpus under the
/// budgeted `Portfolio` policy ([`standard_portfolio_config`], R = 6).
pub fn standard_experiments(seed: u64) -> Vec<BatchExperiment> {
    standard_experiments_with_policy(seed, None)
}

/// [`standard_experiments`] with an optional allocation-policy
/// override: `Some("portfolio")` (case-insensitive) moves every corpus
/// onto the budgeted portfolio policy; any other registry name runs
/// that allocator on every corpus (per-item errors, e.g. an interval
/// allocator on the precise-graph corpora, stay per-item); `None`
/// keeps each corpus's default shown above.
pub fn standard_experiments_with_policy(seed: u64, policy: Option<&str>) -> Vec<BatchExperiment> {
    experiments(seed, policy, standard_portfolio_config())
}

/// [`standard_experiments`] with the portfolio corpora under `cfg`
/// instead of [`standard_portfolio_config`] (the fuel sweep).
pub fn standard_experiments_with_portfolio(
    seed: u64,
    cfg: PortfolioConfig,
) -> Vec<BatchExperiment> {
    experiments(seed, None, cfg)
}

fn experiments(
    seed: u64,
    policy: Option<&str>,
    portfolio_cfg: PortfolioConfig,
) -> Vec<BatchExperiment> {
    let experiment = |suite: &'static str,
                      default_allocator: &'static str,
                      kind: InstanceKind,
                      r: u32,
                      max_rounds: u32,
                      functions: Vec<Function>| {
        // Every corpus opts into the split + remat escalation tier —
        // the §4.3 residual-pressure tail is exactly what these
        // converged counts track.
        let base = AllocationPipeline::new(Target::new(TargetKind::ArmCortexA8))
            .instance_kind(kind)
            .registers(r)
            .max_rounds(max_rounds)
            .escalation(true);
        let chosen = policy.unwrap_or(default_allocator);
        let (label, pipeline) = if chosen.eq_ignore_ascii_case("portfolio") {
            ("Portfolio", base.portfolio(portfolio_cfg.clone()))
        } else {
            (chosen, base.allocator(chosen))
        };
        BatchExperiment {
            name: format!("{suite}/{label}/R{r}"),
            pipeline,
            functions,
        }
    };
    vec![
        experiment(
            "lao-kernels",
            "BFPL",
            InstanceKind::LinearIntervals,
            4,
            8,
            suites::lao_kernel_functions(seed),
        ),
        experiment(
            "specjvm98",
            "LH",
            InstanceKind::PreciseGraph,
            6,
            8,
            suites::specjvm98_functions(seed),
        ),
        // The 200-temporary methods take the most work per round; a
        // tighter round budget keeps the batch wall-clock bounded
        // while still exercising the spill-then-reanalyse loop.
        experiment(
            "jit-large",
            "Portfolio",
            InstanceKind::PreciseGraph,
            6,
            4,
            suites::jit_large_functions(seed),
        ),
        // The scaling corpus: 504 mostly-small methods, so per-item
        // cost is low and the *pool* (queue churn, scratch reuse,
        // cache sharding) is what the timing measures.
        experiment(
            "jit-huge",
            "Portfolio",
            InstanceKind::PreciseGraph,
            6,
            3,
            suites::jit_huge_functions(seed),
        ),
    ]
}

/// One experiment's timing series in the recorded baseline.
#[derive(Clone, Debug)]
pub struct RecordedTiming {
    /// Worker-pool size of this series.
    pub threads: usize,
    /// Fastest wall-clock time over the repetitions, in milliseconds
    /// (the least noise-contaminated run — on a loaded host the min
    /// tracks the code's real cost better than the median).
    pub min_ms: f64,
    /// Median wall-clock time over the repetitions, in milliseconds.
    pub median_ms: f64,
    /// Repetitions the statistics were taken over.
    pub samples: usize,
}

/// One experiment's entry in the recorded baseline.
#[derive(Clone, Debug)]
pub struct RecordedExperiment {
    /// Experiment name (`suite/allocator/R`).
    pub name: String,
    /// Functions in the corpus.
    pub functions: usize,
    /// Total spill cost over the corpus (thread-count invariant).
    pub total_spill_cost: u64,
    /// Runs that converged.
    pub converged: usize,
    /// Runs that hit the round budget / residual-pressure cutoff.
    pub non_converged: usize,
    /// Converged runs rescued by the split + remat escalation tier.
    pub escalated: usize,
    /// Min/Q1/median/Q3/max of per-function spill cost.
    pub spill_cost_quartiles: Option<[u64; 5]>,
    /// Wall-clock medians, one per recorded thread count.
    pub timings: Vec<RecordedTiming>,
}

/// Records every standard experiment at each of `thread_counts`
/// (`reps` repetitions each, median taken), panicking if any thread
/// count renders a different report than the sequential path — the
/// baseline must never persist non-deterministic numbers. Each
/// repetition runs every thread count in turn, 1 first.
///
/// # Panics
///
/// Panics unless `thread_counts` starts with `1`: the sequential run
/// is the determinism reference, so it must come first.
pub fn record(seed: u64, thread_counts: &[usize], reps: usize) -> Vec<RecordedExperiment> {
    assert_eq!(
        thread_counts.first(),
        Some(&1),
        "thread_counts must start with 1 (the sequential determinism reference)"
    );
    // The recorded baselines must track *solver* cost: with the
    // process-wide portfolio result cache on, every sample after the
    // first would be mostly cache lookups and a real solver
    // regression would never move the median. The batch CLI keeps the
    // cache (it is the shipped default); record disables it.
    experiments(seed, None, standard_portfolio_config().cache(false))
        .iter()
        .map(|exp| {
            // The first sample doubles as the determinism reference
            // (thread_counts starts at 1, so it is the sequential
            // path) — no extra untimed warm-up sweep.
            let mut reference: Option<(String, lra_core::BatchSummary)> = None;
            let mut samples: Vec<Vec<Duration>> = vec![Vec::new(); thread_counts.len()];
            for (i, threads) in sample_order(thread_counts, reps) {
                let report = exp.run(threads);
                match &reference {
                    Some((render, _)) => assert_eq!(
                        &report.render(),
                        render,
                        "{}: non-deterministic batch output at {threads} threads",
                        exp.name
                    ),
                    None => reference = Some((report.render(), report.summary.clone())),
                }
                samples[i].push(report.elapsed);
            }
            let timings = thread_counts
                .iter()
                .zip(samples)
                .map(|(&threads, mut samples)| {
                    samples.sort();
                    RecordedTiming {
                        threads,
                        min_ms: samples[0].as_secs_f64() * 1e3,
                        median_ms: samples[samples.len() / 2].as_secs_f64() * 1e3,
                        samples: samples.len(),
                    }
                })
                .collect();
            let (_, m) = reference.expect("at least one thread count and one rep");
            RecordedExperiment {
                name: exp.name.clone(),
                functions: m.functions,
                total_spill_cost: m.total_spill_cost,
                converged: m.converged,
                non_converged: m.non_converged,
                escalated: m.escalated,
                spill_cost_quartiles: m.spill_cost_quartiles,
                timings,
            }
        })
        .collect()
}

/// The order [`record`] takes its samples in, as `(index into
/// thread_counts, threads)`: rep by rep, every thread count within a
/// rep. A burst of host load then lands on every row alike instead of
/// covering one row's samples back to back.
fn sample_order(thread_counts: &[usize], reps: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
    (0..reps.max(1)).flat_map(move |_| thread_counts.iter().copied().enumerate())
}

/// One worker count's service-throughput measurement in the recorded
/// baseline: the jit-large corpus pushed through a live
/// [`lra_service::AllocationService`] twice — cache-cold, then
/// cache-warm — under backpressure (queue capacity below the corpus
/// size).
#[derive(Clone, Debug)]
pub struct RecordedServiceRun {
    /// Worker-pool size of this run.
    pub workers: usize,
    /// Requests per pass (the corpus size).
    pub requests: usize,
    /// Wall-clock of the cache-cold pass, in milliseconds.
    pub cold_ms: f64,
    /// Wall-clock of the cache-warm pass, in milliseconds.
    pub warm_ms: f64,
    /// Functions served per second, cache-cold.
    pub throughput_cold: f64,
    /// Functions served per second, cache-warm.
    pub throughput_warm: f64,
    /// Median service time over both passes, in microseconds.
    pub p50_us: u64,
    /// 95th-percentile service time over both passes, in microseconds.
    pub p95_us: u64,
    /// Portfolio-cache hit rate of the cold pass alone (near 0 unless
    /// the corpus itself repeats instances).
    pub cache_hit_rate_cold: f64,
    /// Portfolio-cache hit rate of the warm pass alone (should
    /// approach 1.0 — every instance was solved in the cold pass).
    pub cache_hit_rate_warm: f64,
    /// Most requests ever queued at once.
    pub queue_high_water: usize,
}

/// Queue capacity the service-throughput experiment runs under —
/// deliberately below the 27-function jit-large corpus so the
/// recorded numbers include real backpressure cycles.
pub const SERVICE_RECORD_QUEUE_CAPACITY: usize = 8;

/// Measures service throughput over the jit-large corpus at each of
/// `worker_counts`: for every count a fresh
/// [`lra_service::AllocationService`]
/// (shared process-wide result cache **cleared first**) serves the
/// corpus twice — cold then warm — and both passes are checked
/// byte-identical to the sequential [`BatchAllocator`] reference.
///
/// # Panics
///
/// Panics if any service pass renders differently from the batch
/// reference — the baseline must never persist numbers from a run
/// that broke the identity contract.
pub fn record_service(seed: u64, worker_counts: &[usize]) -> Vec<RecordedServiceRun> {
    use lra_core::batch::render_rows;
    use lra_core::portfolio::portfolio_cache;
    use lra_service::{AllocationService, ServiceConfig};

    let functions = suites::jit_large_functions(seed);
    let reference = BatchAllocator::new(jit_large_pipeline())
        .threads(1)
        .run(&functions)
        .render();
    worker_counts
        .iter()
        .map(|&workers| {
            portfolio_cache().clear();
            let service = AllocationService::start(
                ServiceConfig::new(jit_large_pipeline())
                    .workers(workers)
                    .queue_capacity(SERVICE_RECORD_QUEUE_CAPACITY),
            );
            let pass = |label: &str| {
                let t0 = std::time::Instant::now();
                let items = service.run_all(&functions);
                let elapsed = t0.elapsed();
                let rows: Vec<_> = items.iter().map(lra_core::batch::BatchItem::row).collect();
                assert_eq!(
                    render_rows(&rows),
                    reference,
                    "{workers}-worker service ({label}) diverged from the batch reference"
                );
                elapsed
            };
            // Snapshot the shared portfolio cache around each pass so
            // the hit rates are attributable per pass instead of one
            // blended number (which would sit near 0.5 by
            // construction and hide a broken warm path).
            let stats_start = portfolio_cache().stats();
            let cold = pass("cold");
            let stats_cold = portfolio_cache().stats();
            let warm = pass("warm");
            let stats_warm = portfolio_cache().stats();
            let metrics = service.shutdown();
            let per_sec = |d: Duration| {
                if d.as_secs_f64() > 0.0 {
                    functions.len() as f64 / d.as_secs_f64()
                } else {
                    0.0
                }
            };
            RecordedServiceRun {
                workers,
                requests: functions.len(),
                cold_ms: cold.as_secs_f64() * 1e3,
                warm_ms: warm.as_secs_f64() * 1e3,
                throughput_cold: per_sec(cold),
                throughput_warm: per_sec(warm),
                p50_us: metrics.p50.as_micros() as u64,
                p95_us: metrics.p95.as_micros() as u64,
                cache_hit_rate_cold: stats_cold.since(&stats_start).hit_rate(),
                cache_hit_rate_warm: stats_warm.since(&stats_cold).hit_rate(),
                queue_high_water: metrics.queue_high_water,
            }
        })
        .collect()
}

/// Serialises recorded experiments (plus the service-throughput runs)
/// as the `BENCH_batch.json` document (hand-rolled: the build
/// environment has no serde).
pub fn to_json(
    seed: u64,
    host: &str,
    experiments: &[RecordedExperiment],
    service: &[RecordedServiceRun],
) -> String {
    use std::fmt::Write as _;
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"lra-bench/batch-v6\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"host\": {host},");
    s.push_str("  \"experiments\": [\n");
    for (i, e) in experiments.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", escape(&e.name));
        let _ = writeln!(s, "      \"functions\": {},", e.functions);
        let _ = writeln!(s, "      \"total_spill_cost\": {},", e.total_spill_cost);
        let _ = writeln!(s, "      \"converged\": {},", e.converged);
        let _ = writeln!(s, "      \"non_converged\": {},", e.non_converged);
        let _ = writeln!(s, "      \"escalated\": {},", e.escalated);
        match e.spill_cost_quartiles {
            Some([min, q1, med, q3, max]) => {
                let _ = writeln!(
                    s,
                    "      \"spill_cost_quartiles\": [{min}, {q1}, {med}, {q3}, {max}],"
                );
            }
            None => {
                let _ = writeln!(s, "      \"spill_cost_quartiles\": null,");
            }
        }
        s.push_str("      \"timings\": [\n");
        for (j, t) in e.timings.iter().enumerate() {
            let _ = write!(
                s,
                "        {{\"threads\": {}, \"min_ms\": {:.3}, \"median_ms\": {:.3}, \"samples\": {}}}",
                t.threads, t.min_ms, t.median_ms, t.samples
            );
            s.push_str(if j + 1 < e.timings.len() { ",\n" } else { "\n" });
        }
        s.push_str("      ]\n");
        s.push_str(if i + 1 < experiments.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ],\n");
    s.push_str("  \"service\": [\n");
    for (i, r) in service.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workers\": {}, \"requests\": {}, \"queue_capacity\": {}, \"cold_ms\": {:.3}, \"warm_ms\": {:.3}, \"throughput_cold_per_s\": {:.1}, \"throughput_warm_per_s\": {:.1}, \"p50_us\": {}, \"p95_us\": {}, \"cache_hit_rate_cold\": {:.3}, \"cache_hit_rate_warm\": {:.3}, \"queue_high_water\": {}}}",
            r.workers,
            r.requests,
            SERVICE_RECORD_QUEUE_CAPACITY,
            r.cold_ms,
            r.warm_ms,
            r.throughput_cold,
            r.throughput_warm,
            r.p50_us,
            r.p95_us,
            r.cache_hit_rate_cold,
            r.cache_hit_rate_warm,
            r.queue_high_water
        );
        s.push_str(if i + 1 < service.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> String {
        crate::host::stamp_json(std::path::Path::new("."))
    }

    #[test]
    fn the_standard_corpora_run_the_default_portfolio_config() {
        // The default is the frontier's pick; the frozen benchmark
        // package reaches it through `standard_portfolio_config`.
        assert_eq!(standard_portfolio_config(), PortfolioConfig::default());
        assert_eq!(PortfolioConfig::default().node_budget, 5_000);
        assert!(FUEL_SWEEP.contains(&5_000));
    }

    #[test]
    fn standard_experiments_have_all_four_corpora() {
        let exps = standard_experiments(3);
        assert_eq!(exps.len(), 4);
        assert_eq!(exps[0].name, "lao-kernels/BFPL/R4");
        assert_eq!(exps[1].name, "specjvm98/LH/R6");
        assert_eq!(exps[2].name, "jit-large/Portfolio/R6");
        assert_eq!(exps[3].name, "jit-huge/Portfolio/R6");
        for exp in &exps {
            assert!(!exp.functions.is_empty());
        }
        assert!(
            exps[3].functions.len() >= 500,
            "the scaling corpus must be large enough to amortise pool startup"
        );
    }

    #[test]
    fn policy_override_renames_and_reconfigures_every_corpus() {
        let exps = standard_experiments_with_policy(3, Some("portfolio"));
        assert!(exps.iter().all(|e| e.name.contains("/Portfolio/")));
        let exps = standard_experiments_with_policy(3, Some("GC"));
        assert!(exps.iter().all(|e| e.name.contains("/GC/")));
    }

    #[test]
    fn record_produces_valid_json_with_two_thread_counts() {
        // One rep per thread count keeps this fast enough for debug
        // CI while still driving record()'s sample/median/reference
        // loop end to end on the real corpora.
        let recorded = record(3, &[1, 2], 1);
        assert_eq!(recorded.len(), 4);
        for e in &recorded {
            assert_eq!(e.timings.len(), 2);
            assert_eq!(e.timings[0].threads, 1);
            assert_eq!(e.timings[1].threads, 2);
            assert!(e.timings.iter().all(|t| t.samples == 1));
            assert!(e.timings.iter().all(|t| t.median_ms > 0.0));
            assert!(e.timings.iter().all(|t| t.min_ms <= t.median_ms));
            assert!(e.functions > 0);
        }

        let json = to_json(3, &host(), &recorded, &[]);
        assert!(json.contains("\"schema\": \"lra-bench/batch-v6\""));
        assert!(json.contains("\"host\": {\"nproc\": "));
        assert!(json.contains("\"escalated\""));
        assert!(json.contains("\"min_ms\""));
        assert!(json.contains("\"threads\": 1"));
        assert!(json.contains("\"threads\": 2"));
        // Balanced braces/brackets — cheap structural sanity check.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced JSON"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn json_escapes_quotes_and_backslashes_in_names() {
        let rec = RecordedExperiment {
            name: "odd\"name\\here".to_string(),
            functions: 1,
            total_spill_cost: 0,
            converged: 1,
            non_converged: 0,
            escalated: 0,
            spill_cost_quartiles: None,
            timings: vec![RecordedTiming {
                threads: 1,
                min_ms: 1.0,
                median_ms: 1.0,
                samples: 1,
            }],
        };
        let json = to_json(0, &host(), &[rec], &[]);
        assert!(json.contains("odd\\\"name\\\\here"));
    }

    #[test]
    fn jit_large_pipeline_matches_the_batch_experiment() {
        // The serve subcommand and the batch corpus must run the
        // exact same pipeline or the loadgen-vs-batch diff is
        // comparing different problems. AllocationPipeline has no
        // PartialEq; the debug rendering covers every knob.
        let exps = standard_experiments(3);
        let jit = exps
            .iter()
            .find(|e| e.name.starts_with("jit-large"))
            .unwrap();
        assert_eq!(
            format!("{:?}", jit.pipeline),
            format!("{:?}", jit_large_pipeline())
        );
    }

    #[test]
    fn record_service_produces_consistent_numbers_and_json() {
        let runs = record_service(3, &[2]);
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.workers, 2);
        assert_eq!(r.requests, 27);
        assert!(r.cold_ms > 0.0 && r.warm_ms > 0.0);
        assert!(r.throughput_cold > 0.0 && r.throughput_warm > 0.0);
        assert!(r.p95_us >= r.p50_us);
        assert!(
            r.cache_hit_rate_warm > 0.5,
            "the warm pass must hit the shared cache (got {:.3})",
            r.cache_hit_rate_warm
        );
        assert!(
            r.cache_hit_rate_warm > r.cache_hit_rate_cold,
            "warm pass ({:.3}) should out-hit the cold pass ({:.3})",
            r.cache_hit_rate_warm,
            r.cache_hit_rate_cold
        );
        assert!(r.queue_high_water <= SERVICE_RECORD_QUEUE_CAPACITY);
        let json = to_json(3, &host(), &[], &runs);
        assert!(json.contains("\"service\": ["));
        assert!(json.contains("\"workers\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn record_interleaves_thread_counts_rep_by_rep() {
        let order: Vec<_> = sample_order(&[1, 2, 4], 2).collect();
        assert_eq!(order, [(0, 1), (1, 2), (2, 4), (0, 1), (1, 2), (2, 4)]);
        // Zero reps still take one sample per thread count.
        assert_eq!(sample_order(&[1, 2], 0).count(), 2);
    }

    #[test]
    #[should_panic(expected = "must start with 1")]
    fn record_rejects_thread_counts_without_sequential_reference() {
        let _ = record(3, &[2, 4], 1);
    }
}
