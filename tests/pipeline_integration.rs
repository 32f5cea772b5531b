//! End-to-end pipeline tests across all crates: program generation →
//! analysis → interference → allocation → spill-code insertion.

use lra::core::baselines::{BeladyLinearScan, ChaitinBriggs, LinearScan};
use lra::core::layered::Layered;
use lra::core::pipeline::{build_instance, InstanceKind};
use lra::core::problem::Allocator;
use lra::core::{verify, LayeredHeuristic, Optimal};
use lra::ir::genprog::{
    random_jit_function, random_ssa_function, validate_strict_ssa, JitConfig, SsaConfig,
};
use lra::ir::{liveness, spill_code, AnalysisScratch};
use lra::targets::{Target, TargetKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

#[test]
fn full_ssa_pipeline_feasible_for_every_allocator() {
    let target = Target::new(TargetKind::St231);
    for seed in 0..5u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let f = random_ssa_function(&mut rng, &SsaConfig::default(), format!("f{seed}"));
        validate_strict_ssa(&f).expect("strict SSA");
        let inst = build_instance(&f, &target, InstanceKind::LinearIntervals);
        for r in [1u32, 2, 4, 8] {
            let opt = Optimal.allocate(&inst, r);
            assert!(verify::check(&inst, &opt, r).is_feasible());
            for a in [
                Layered::nl().allocate(&inst, r),
                Layered::bl().allocate(&inst, r),
                Layered::fpl().allocate(&inst, r),
                Layered::bfpl().allocate(&inst, r),
                ChaitinBriggs::new().allocate(&inst, r),
                LinearScan::new().allocate(&inst, r),
                BeladyLinearScan::new().allocate(&inst, r),
                LayeredHeuristic::new().allocate(&inst, r),
            ] {
                assert!(
                    verify::check(&inst, &a, r).is_feasible(),
                    "seed {seed}, R={r}"
                );
                assert!(a.spill_cost >= opt.spill_cost, "someone beat Optimal");
            }
        }
    }
}

#[test]
fn spilling_the_optimal_set_reduces_pressure_towards_r() {
    let target = Target::new(TargetKind::St231);
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let cfg = SsaConfig {
        target_instrs: 120,
        liveness_window: 20,
        ..SsaConfig::default()
    };
    let f = random_ssa_function(&mut rng, &cfg, "pressure");
    let before = liveness::analyze(&f).max_live;
    let inst = build_instance(&f, &target, InstanceKind::PreciseGraph);
    assert!(
        before > 4,
        "need real pressure for this test (got {before})"
    );

    let r = 4u32;
    let alloc = Layered::bfpl().allocate(&inst, r);
    let spilled = alloc.spilled_set(&inst);
    let scratch = &mut AnalysisScratch::new();
    let rw = spill_code::rewrite_spill_code(&f, &spilled, None, scratch);
    let after = liveness::analyze(&rw.function).max_live;
    assert!(rw.stats.stores > 0 && rw.stats.loads > 0);
    assert!(
        after < before,
        "spilling must lower MaxLive ({before} -> {after})"
    );
    // Reload operands keep some residual pressure (§4.3), but the bulk
    // of the long ranges is gone.
    assert!(
        after <= r as usize + 3,
        "residual pressure too high: {after}"
    );
}

#[test]
fn jit_pipeline_with_all_jvm_allocators() {
    let target = Target::new(TargetKind::ArmCortexA8);
    for seed in 0..5u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let f = random_jit_function(&mut rng, &JitConfig::default(), format!("m{seed}"));
        let precise = build_instance(&f, &target, InstanceKind::PreciseGraph);
        let coarse = build_instance(&f, &target, InstanceKind::LinearIntervals);
        for r in [2u32, 4, 6] {
            let lh = LayeredHeuristic::new().allocate(&precise, r);
            let gc = ChaitinBriggs::new().allocate(&precise, r);
            let ls = LinearScan::new().allocate(&coarse, r);
            assert!(verify::check(&precise, &lh, r).is_feasible());
            assert!(verify::check(&precise, &gc, r).is_feasible());
            assert!(verify::check(&coarse, &ls, r).is_feasible());
            // The linear-scan registers are proper on the precise graph
            // too (the interval graph is a supergraph).
            assert!(verify::check(&precise, &ls, r).is_feasible());
        }
    }
}

#[test]
fn precise_and_interval_views_agree_on_weights() {
    let target = Target::new(TargetKind::St231);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let f = random_ssa_function(&mut rng, &SsaConfig::default(), "w");
    let a = build_instance(&f, &target, InstanceKind::PreciseGraph);
    let b = build_instance(&f, &target, InstanceKind::LinearIntervals);
    assert_eq!(a.weighted_graph().weights(), b.weighted_graph().weights());
    assert_eq!(a.total_weight(), b.total_weight());
}

#[test]
fn arm_target_costs_differ_from_st231() {
    // The ABI/latency model must actually flow into the costs.
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let f = random_ssa_function(&mut rng, &SsaConfig::default(), "t");
    let st = build_instance(
        &f,
        &Target::new(TargetKind::St231),
        InstanceKind::PreciseGraph,
    );
    let arm = build_instance(
        &f,
        &Target::new(TargetKind::ArmCortexA8),
        InstanceKind::PreciseGraph,
    );
    assert_ne!(
        st.weighted_graph().weights(),
        arm.weighted_graph().weights(),
        "store-cost difference must show up in spill costs"
    );
}
