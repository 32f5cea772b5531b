//! Integration tests for the budgeted portfolio policy: determinism
//! across worker counts (the PR-2 byte-identity guarantee extended to
//! the escalating policy), graceful degradation on a zero budget, and
//! the never-worse-than-cheap contract.

use lra::bench::suites;
use lra::core::pipeline::InstanceKind;
use lra::targets::{Target, TargetKind};
use lra::{AllocationPipeline, BatchAllocator, PortfolioConfig};

fn jit_subset(n: usize) -> Vec<lra::ir::Function> {
    suites::jit_large_functions(5).into_iter().take(n).collect()
}

fn base_pipeline() -> AllocationPipeline {
    AllocationPipeline::new(Target::new(TargetKind::ArmCortexA8))
        .instance_kind(InstanceKind::PreciseGraph)
        .registers(6)
        .max_rounds(3)
}

/// A fuel-only portfolio batch must render byte-identically at any
/// worker count — the escalation decision is part of the determinism
/// contract, not an exception to it.
#[test]
fn portfolio_batch_reports_are_byte_identical_across_thread_counts() {
    let fs = jit_subset(6);
    let pipeline = base_pipeline().portfolio(PortfolioConfig::default().node_budget(20_000));
    let seq = BatchAllocator::new(pipeline.clone()).threads(1).run(&fs);
    let par = BatchAllocator::new(pipeline).threads(4).run(&fs);
    assert_eq!(seq.render(), par.render());
    assert_eq!(seq.summary, par.summary);
    assert_eq!(seq.summary.failed, 0);
}

/// A zero node budget disables escalation: the whole batch must be
/// byte-identical to running the cheap allocator directly — and must
/// not error.
#[test]
fn zero_node_budget_degrades_to_the_cheap_allocator() {
    let fs = jit_subset(4);
    let cheap = BatchAllocator::new(base_pipeline().allocator("LH")).run(&fs);
    let zero =
        BatchAllocator::new(base_pipeline().portfolio(PortfolioConfig::default().node_budget(0)))
            .run(&fs);
    assert_eq!(cheap.render(), zero.render());
    assert_eq!(zero.summary.failed, 0);
}

/// On the paper's metric (first-round allocation cost) the portfolio
/// can only match or improve on its cheap tier, function by function.
#[test]
fn portfolio_first_round_cost_never_exceeds_the_cheap_tier() {
    let fs = jit_subset(6);
    let one_round = |pipeline: AllocationPipeline| {
        BatchAllocator::new(pipeline.max_rounds(1))
            .run(&fs)
            .items
            .into_iter()
            .map(|i| i.outcome.expect("allocates").first_round_spill_cost())
            .collect::<Vec<u64>>()
    };
    let cheap = one_round(base_pipeline().allocator("LH"));
    let portfolio =
        one_round(base_pipeline().portfolio(PortfolioConfig::default().node_budget(50_000)));
    for ((c, p), f) in cheap.iter().zip(&portfolio).zip(&fs) {
        assert!(p <= c, "{}: portfolio {p} worse than cheap {c}", f.name);
    }
}

/// The default budget is a fixed node fuel, so a batch under
/// `PortfolioConfig::default()` must stay byte-identical at any
/// worker count — fuel-only determinism covers the default too.
#[test]
fn adaptive_budget_batches_are_byte_identical_across_thread_counts() {
    let fs = jit_subset(6);
    let cfg = PortfolioConfig::default();
    assert_eq!(cfg.node_budget, 2_500, "the default budget is a fixed fuel");
    let pipeline = base_pipeline().portfolio(cfg);
    let seq = BatchAllocator::new(pipeline.clone()).threads(1).run(&fs);
    let par = BatchAllocator::new(pipeline.clone()).threads(2).run(&fs);
    let wide = BatchAllocator::new(pipeline).threads(4).run(&fs);
    assert_eq!(seq.render(), par.render());
    assert_eq!(seq.render(), wide.render());
    assert_eq!(seq.summary.failed, 0);
}

/// The registry name alone (no explicit config) also works end to end
/// through the pipeline, with the default budget.
#[test]
fn portfolio_is_selectable_by_registry_name() {
    let fs = jit_subset(2);
    let report = BatchAllocator::new(base_pipeline().allocator("Portfolio")).run(&fs);
    assert_eq!(report.summary.failed, 0);
    assert_eq!(report.summary.functions, 2);
}

/// Naming `Portfolio` after configuring it keeps the configuration: a
/// spent node budget still degrades the run to the cheap tier.
#[test]
fn naming_portfolio_keeps_an_explicit_config() {
    let fs = jit_subset(4);
    let spent = PortfolioConfig::default().node_budget(0);
    let renamed = base_pipeline()
        .portfolio(spent.clone())
        .allocator("Portfolio");
    let report = BatchAllocator::new(renamed).run(&fs);
    let configured = BatchAllocator::new(base_pipeline().portfolio(spent)).run(&fs);
    let cheap = BatchAllocator::new(base_pipeline().allocator("LH")).run(&fs);
    let default = BatchAllocator::new(base_pipeline().allocator("Portfolio")).run(&fs);
    assert_eq!(report.render(), configured.render());
    assert_eq!(report.render(), cheap.render(), "the zero budget survived");
    assert_ne!(report.render(), default.render(), "the default escalates");
}

/// Naming another allocator after configuring a portfolio runs that
/// allocator, unescalated as every directly-selected allocator is.
#[test]
fn naming_another_allocator_drops_the_portfolio() {
    let fs = jit_subset(4);
    let lh = base_pipeline()
        .portfolio(PortfolioConfig::default())
        .allocator("LH");
    let report = BatchAllocator::new(lh).run(&fs);
    let direct = BatchAllocator::new(base_pipeline().allocator("LH")).run(&fs);
    assert_eq!(report.render(), direct.render());
    for item in &report.items {
        let run = item.outcome.as_ref().expect("allocates");
        assert_eq!(run.allocator, "LH");
        assert!(!run.escalated);
    }
}

/// The registry name, in any case, is the default-config portfolio.
#[test]
fn portfolio_by_name_is_the_default_config() {
    let fs = jit_subset(4);
    let by_name = BatchAllocator::new(base_pipeline().allocator("portfolio")).run(&fs);
    let by_config =
        BatchAllocator::new(base_pipeline().portfolio(PortfolioConfig::default())).run(&fs);
    assert_eq!(by_name.render(), by_config.render());
    assert_eq!(by_name.summary, by_config.summary);
    for item in &by_name.items {
        assert_eq!(
            item.outcome.as_ref().expect("allocates").allocator,
            "Portfolio"
        );
    }
}
