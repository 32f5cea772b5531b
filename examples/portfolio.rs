//! The budgeted portfolio policy on server-class JIT methods.
//!
//! The paper keeps its JVM98 methods under ~35 temporaries so the
//! exact `Optimal` baseline stays tractable. This example goes past
//! that cap: it takes methods from the `jit-large` corpus (up to ~200
//! temporaries, non-chordal graphs) and allocates them three ways —
//!
//! * the cheap `LH` heuristic alone,
//! * the `Portfolio` policy (LH first, exact escalation under a
//!   deterministic node-fuel budget), with the split + remat tier on
//!   for the methods whose spill loop stalls,
//! * the same policy with a zero budget, demonstrating the graceful
//!   degradation contract: no budget means the cheap result, never an
//!   error.
//!
//! Run with: `cargo run --release --example portfolio`

use lra::bench::suites;
use lra::core::pipeline::InstanceKind;
use lra::targets::{Target, TargetKind};
use lra::{AllocationPipeline, BatchAllocator, PortfolioConfig};

fn main() {
    let methods: Vec<lra::ir::Function> = suites::jit_large_functions(2013)
        .into_iter()
        .take(8)
        .collect();
    let target = Target::new(TargetKind::ArmCortexA8);
    let registers = 6;
    println!(
        "corpus: {} large non-SSA methods, {} temporaries total, R = {registers}",
        methods.len(),
        methods.iter().map(|f| f.value_count).sum::<u32>()
    );
    println!();
    println!(
        "{:>24} {:>12} {:>10} {:>14}",
        "policy", "spill cost", "converged", "non-converged"
    );

    let base = || {
        AllocationPipeline::new(target)
            .instance_kind(InstanceKind::PreciseGraph)
            .registers(registers)
            .max_rounds(4)
    };
    let configs: [(&str, AllocationPipeline); 3] = [
        ("LH (cheap tier alone)", base().allocator("LH")),
        (
            "Portfolio (100k nodes)",
            base()
                .portfolio(PortfolioConfig::default().node_budget(100_000))
                .escalation(true),
        ),
        (
            "Portfolio (zero budget)",
            base().portfolio(PortfolioConfig::default().node_budget(0)),
        ),
    ];

    let mut costs = Vec::new();
    for (label, pipeline) in configs {
        let report = BatchAllocator::new(pipeline).run(&methods);
        assert_eq!(report.summary.failed, 0, "every method must allocate");
        println!(
            "{label:>24} {:>12} {:>10} {:>14}",
            report.summary.total_spill_cost, report.summary.converged, report.summary.non_converged
        );
        costs.push(report.summary.total_spill_cost);
    }

    // The policy's contracts, checked on real output: escalation never
    // loses to the cheap tier, and a zero budget *is* the cheap tier.
    assert!(costs[1] <= costs[0], "portfolio never loses to LH");
    assert_eq!(costs[2], costs[0], "zero budget degrades to LH exactly");
    println!();
    println!(
        "portfolio saved {} spill cost over LH alone; zero-budget run matched LH exactly",
        costs[0] - costs[1]
    );
}
