//! The per-layer budget of a traced run.
//!
//! Two sources. The `core.*` phases come from the allocator's own
//! `lra_core::trace` report, read back from `BatchItem::trace` while a
//! traced pass holds `trace::arm()`. Every other layer is timed from
//! outside: [`probe`] calls each layer's public entry point on the
//! workload's own inputs — liveness and interference (`lra-ir`), MCS
//! ordering and Frank's stable set (`lra-graph`), `Portfolio::decide`
//! and `verify::check` (`lra-core`) — on each function's first-round
//! instance, outside any timed phase of the untraced runs; the service
//! layer is priced by a short open loop (`serve::probe_service`).

use crate::metrics::Report;
use crate::{Config, Policy};
use lra_bench::batchrun::standard_portfolio_config;
use lra_core::batch::parallel_map;
use lra_core::cache::CacheStats;
use lra_core::pipeline::build_instance;
use lra_core::portfolio::{Portfolio, PortfolioSource};
use lra_core::registry::AllocatorRegistry;
use lra_core::trace::{Phase, TraceReport};
use lra_core::verify;
use lra_graph::{peo, stable};
use lra_ir::{interference, liveness, Function};
use std::time::Instant;

/// Records the `core.*` budget from `merged`, the traces of `passes`
/// traced passes whose per-function times sum to `busy_s` seconds.
pub fn record_core(merged: &TraceReport, busy_s: f64, passes: usize, report: &mut Report) {
    let passes = passes.max(1) as f64;
    let self_ms = |p: Phase| merged.phases[p as usize].self_ns as f64 / 1e6 / passes;
    for (name, phase) in [
        ("core.analysis_ms", Phase::Analysis),
        ("core.spill_costs_ms", Phase::SpillCosts),
        ("core.instance_build_ms", Phase::InstanceBuild),
        ("core.allocate_ms", Phase::Allocate),
        ("core.verify_ms", Phase::Verify),
        ("core.rewrite_ms", Phase::Rewrite),
        ("core.reanalyse_ms", Phase::Reanalyse),
        ("core.escalate_prep_ms", Phase::EscalatePrep),
    ] {
        report.set(name, self_ms(phase), "self time per traced pass");
    }
    report.set(
        "core.overhead_ms",
        self_ms(Phase::Pipeline) + self_ms(Phase::Round),
        "self time of pipeline + round spans per traced pass",
    );
    report.set(
        "core.rounds",
        merged.rounds as f64 / passes,
        "allocation rounds per pass",
    );
    report.set(
        "core.fuel_granted",
        merged.fuel as f64 / passes,
        "exact-tier node fuel granted per pass",
    );
    let coverage = if busy_s > 0.0 {
        merged.total_self_ns() as f64 / 1e9 / busy_s
    } else {
        0.0
    };
    report.set(
        "core.coverage",
        coverage,
        "Σ phase self time / Σ per-function time",
    );
    report.line(format!(
        "budget: phases tile {:.2}% of per-function time (must be ≥ 90%)",
        100.0 * coverage
    ));
    if coverage < 0.9 {
        report
            .problems
            .push(format!("core.coverage {coverage:.3} is below 0.9"));
    }
}

/// Records `cache.*` from counter deltas summed over `passes` passes.
pub fn record_cache(cache: &CacheStats, passes: usize, report: &mut Report) {
    let passes = passes.max(1) as f64;
    report.set("cache.hits", cache.hits as f64 / passes, "per pass");
    report.set("cache.misses", cache.misses as f64 / passes, "per pass");
    report.set(
        "cache.evictions",
        cache.evictions as f64 / passes,
        "per pass",
    );
    report.set("cache.hit_rate", cache.hit_rate(), "hits / lookups");
}

/// Outside timings of one function's layers, in nanoseconds, plus the
/// counts that go with them.
#[derive(Clone, Copy, Default)]
struct Probe {
    liveness: u64,
    interference: u64,
    mcs: u64,
    stable: u64,
    decide: u64,
    check: u64,
    values: u64,
    adjacency_bytes: u64,
    escalations: u64,
    won: u64,
    tied: u64,
    exhausted: u64,
}

fn clock<T>(acc: &mut u64, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = std::hint::black_box(f());
    *acc += u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    out
}

fn probe_one(f: &Function, cfg: &Config) -> Probe {
    let mut p = Probe {
        values: u64::from(f.value_count),
        ..Probe::default()
    };
    let live = clock(&mut p.liveness, || liveness::analyze(f));
    clock(&mut p.interference, || {
        interference::interference_graph(f, &live)
    });
    let inst = build_instance(f, &cfg.target(), cfg.kind);
    p.adjacency_bytes = inst.graph().resident_bytes() as u64;
    clock(&mut p.mcs, || peo::mcs_order(inst.graph()));
    if let Some(order) = inst.peo() {
        clock(&mut p.stable, || {
            stable::max_weight_stable_set(inst.weighted_graph(), order)
        });
    }
    let r = cfg.registers;
    // The exact tier's outcome on the first round, with the cache off
    // so every call really decides. A workload without a portfolio is
    // probed with one whose cheap tier is the workload's allocator:
    // the counts then say how often that heuristic is provably
    // suboptimal on the first round.
    let portfolio = match &cfg.policy {
        Policy::Portfolio(pc) => pc.clone(),
        Policy::Allocator(name) => standard_portfolio_config().cheap(*name),
    };
    let policy = Portfolio::new(portfolio.cache(false)).expect("registered cheap tier");
    let out = clock(&mut p.decide, || policy.decide(&inst, r));
    if out.escalated {
        p.escalations += 1;
        match (out.certified, out.source) {
            (_, PortfolioSource::Exact) => p.won += 1,
            (true, PortfolioSource::Cheap) => p.tied += 1,
            (false, PortfolioSource::Cheap) => p.exhausted += 1,
        }
    }
    let alloc = match &cfg.policy {
        Policy::Portfolio(_) => out.allocation,
        Policy::Allocator(name) => AllocatorRegistry::get(name)
            .expect("registered allocator")
            .allocate(&inst, r),
    };
    clock(&mut p.check, || verify::check(&inst, &alloc, r));
    p
}

/// Probes every function of one pass and records the `ir.*` (except
/// `ir.spill_instrs`), `graph.*`, `verify.check_ms` and `portfolio.*`
/// metrics. Timings are summed per function (CPU time of the layer, not
/// wall-clock of the probe) over one pass of the distinct functions.
pub fn probe(functions: &[(&Function, &Config)], threads: usize, report: &mut Report) {
    let probes = parallel_map(functions, threads, |_, (f, cfg)| probe_one(f, cfg));
    let sum = |get: fn(&Probe) -> u64| probes.iter().map(get).sum::<u64>() as f64;
    let ms = |get: fn(&Probe) -> u64| sum(get) / 1e6;
    let n = probes.len();
    report.set(
        "ir.liveness_ms",
        ms(|p| p.liveness),
        format!("liveness::analyze over {n} functions"),
    );
    report.set(
        "ir.interference_ms",
        ms(|p| p.interference),
        "interference::interference_graph, same functions",
    );
    report.set("ir.values", sum(|p| p.values), "Σ input value_count");
    report.set(
        "graph.mcs_ms",
        ms(|p| p.mcs),
        "peo::mcs_order on first-round instance graphs",
    );
    let chordal = probes.iter().filter(|p| p.stable > 0).count();
    report.set(
        "graph.stable_set_ms",
        ms(|p| p.stable),
        format!("stable::max_weight_stable_set on {chordal} chordal instances"),
    );
    report.set(
        "graph.adjacency_bytes",
        sum(|p| p.adjacency_bytes),
        "Σ Graph::resident_bytes of first-round instances",
    );
    report.set(
        "verify.check_ms",
        ms(|p| p.check),
        "verify::check of each first-round allocation",
    );
    let direct = functions
        .iter()
        .any(|(_, cfg)| matches!(cfg.policy, Policy::Portfolio(_)));
    let note = if direct {
        "Portfolio::decide on first-round instances, cache off (first rounds only)"
    } else {
        "probe only: Portfolio::decide with the workload's allocator as cheap tier"
    };
    report.set("portfolio.decide_ms", ms(|p| p.decide), note);
    let escalations = sum(|p| p.escalations);
    report.set("portfolio.escalations", escalations, note);
    report.set("portfolio.exact_won", sum(|p| p.won), note);
    report.set("portfolio.exact_tied", sum(|p| p.tied), note);
    let exhausted = sum(|p| p.exhausted);
    report.set("portfolio.exact_exhausted", exhausted, note);
    report.set(
        "portfolio.exhausted_share",
        if escalations > 0.0 {
            exhausted / escalations
        } else {
            0.0
        },
        "exhausted / escalations",
    );
    report.line(format!(
        "exact tier on first rounds (cache off): {escalations} escalations, {} won, {} tied, \
         {exhausted} exhausted their fuel ({note})",
        sum(|p| p.won),
        sum(|p| p.tied)
    ));
}
