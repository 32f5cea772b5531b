//! End-to-end SSA pipeline: generate a function, print it, then let
//! [`AllocationPipeline`] run the whole allocate → spill-code rewrite →
//! reanalyse → assign → verify flow and show that register pressure
//! actually drops to the target.
//!
//! Run with: `cargo run --example ssa_pipeline`

use lra::ir::genprog::{random_ssa_function, SsaConfig};
use lra::ir::{liveness, textio};
use lra::targets::{Target, TargetKind};
use lra::AllocationPipeline;
use rand::SeedableRng;

fn main() {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    let config = SsaConfig {
        target_instrs: 60,
        max_loop_depth: 2,
        branch_percent: 20,
        loop_percent: 15,
        call_percent: 5,
        copy_percent: 0,
        params: 3,
        liveness_window: 10,
    };
    let function = random_ssa_function(&mut rng, &config, "demo::kernel");
    println!("{}", textio::print(&function));

    let target = Target::new(TargetKind::St231).with_register_count(4);
    let report = AllocationPipeline::new(target)
        .allocator("BFPL")
        .run(&function)
        .expect("BFPL handles SSA functions");

    println!("MaxLive before allocation: {}", report.max_live_before);
    println!(
        "BFPL with R={}: {} spilled values, spill cost {}, over {} round(s)",
        report.registers,
        report.spilled_count(),
        report.spill_cost,
        report.rounds,
    );
    println!(
        "spill code inserted: {} stores, {} loads; MaxLive {} -> {}",
        report.stores, report.loads, report.max_live_before, report.max_live_after,
    );
    println!(
        "assignment uses {} registers; converged = {}, verified = {}",
        report.assignment.registers_used(),
        report.converged,
        report.verdict.is_feasible(),
    );

    // The report's function is the rewritten one — reanalysing it
    // reproduces max_live_after.
    let live = liveness::analyze(&report.function);
    assert_eq!(live.max_live, report.max_live_after);
}
