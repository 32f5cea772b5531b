//! The trace determinism contract, in a process of its own: arming the
//! recorder must not move a single output byte, and with tracing off no
//! trace is collected. The second half needs the global arming counter
//! to itself — other tests arm it for their own jobs, and `LRA_TRACE`
//! is re-probed through a reset — so this is the only test in its
//! binary.

use lra_core::batch::BatchAllocator;
use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::InstanceKind;
use lra_core::portfolio::PortfolioConfig;
use lra_ir::genprog::{random_jit_function, JitConfig};
use lra_ir::Function;
use lra_targets::{Target, TargetKind};
use rand::SeedableRng as _;
use rand_chacha::ChaCha8Rng;

fn jit_corpus(n: u64) -> Vec<Function> {
    (0..n)
        .map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 + seed);
            let cfg = JitConfig {
                vars: 30,
                blocks: 12,
                ..JitConfig::default()
            };
            random_jit_function(&mut rng, &cfg, format!("svc::m{seed}"))
        })
        .collect()
}

fn portfolio_pipeline() -> AllocationPipeline {
    AllocationPipeline::new(Target::new(TargetKind::ArmCortexA8))
        .instance_kind(InstanceKind::PreciseGraph)
        .registers(4)
        .portfolio(PortfolioConfig::default())
}

#[test]
fn tracing_on_vs_off_is_byte_identical_for_batch_output() {
    // The determinism contract of lra_core::trace: arming the recorder
    // (guard or LRA_TRACE env) must not move a single output byte.
    let fs = jit_corpus(6);
    let batch = BatchAllocator::new(portfolio_pipeline()).threads(1);
    let reference = batch.run(&fs);
    assert!(
        reference.items.iter().all(|i| i.trace.is_none()),
        "tracing off: no traces collected"
    );

    // Door 1: the RAII guard.
    let armed = {
        let _on = lra_core::trace::arm();
        batch.run(&fs)
    };
    assert_eq!(
        armed.render(),
        reference.render(),
        "armed tracing must not change the rendered report"
    );
    for item in &armed.items {
        let trace = item.trace.as_ref().expect("armed run collects per item");
        assert_eq!(
            trace.phases[lra_core::trace::Phase::Pipeline as usize].count,
            1
        );
        assert!(trace.total_self_ns() > 0);
    }

    // Door 2: the LRA_TRACE environment variable, re-probed after a
    // reset.
    lra_core::trace::reset_for_tests();
    std::env::set_var("LRA_TRACE", "1");
    let from_env = batch.run(&fs);
    std::env::remove_var("LRA_TRACE");
    lra_core::trace::reset_for_tests();
    assert_eq!(
        from_env.render(),
        reference.render(),
        "LRA_TRACE=1 must not change the rendered report"
    );
    assert!(
        from_env.items.iter().all(|i| i.trace.is_some()),
        "LRA_TRACE=1 collects per item"
    );
}
