//! The `LRA_TRACE` door of the trace determinism contract, in a
//! process of its own because `std::env::set_var` is not thread-safe:
//! setting the variable must not move a single output byte, and it
//! traces every batch item and every service job. The `arm()` door is
//! tested in `service.rs`.

use lra_core::batch::BatchAllocator;
use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::InstanceKind;
use lra_core::portfolio::PortfolioConfig;
use lra_ir::genprog::{random_jit_function, JitConfig};
use lra_ir::Function;
use lra_service::{AllocationService, ServiceConfig, SubmitOptions};
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
    let fs = jit_corpus(6);
    let batch = BatchAllocator::new(portfolio_pipeline()).threads(2);
    let reference = batch.run(&fs);
    assert!(
        reference.items.iter().all(|i| i.trace.is_none()),
        "tracing off: no traces collected"
    );

    std::env::set_var("LRA_TRACE", "1");
    let from_env = batch.run(&fs);
    let service = AllocationService::start(ServiceConfig::new(portfolio_pipeline()).workers(2));
    std::env::remove_var("LRA_TRACE");
    assert_eq!(
        from_env.render(),
        reference.render(),
        "LRA_TRACE=1 must not change the rendered report"
    );
    assert!(
        from_env.items.iter().all(|i| i.trace.is_some()),
        "LRA_TRACE=1 collects per item"
    );

    // The service read the variable once, at start: plain submissions
    // made after it was unset are still traced.
    for (k, f) in fs.iter().enumerate() {
        let item = service
            .submit(f.clone(), SubmitOptions::default())
            .expect("queue has room")
            .wait();
        assert_eq!(item.row(), reference.items[k].row());
        assert!(
            item.trace.is_some(),
            "a service started under LRA_TRACE traces every job"
        );
    }
    service.shutdown();
}
