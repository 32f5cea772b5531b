//! Integration tests for the extension features: register
//! assignment, live-range splitting and SSA conversion — used together
//! as a downstream compiler would — and the `BFPL` ≥ `Optimal` bound on
//! generated functions.

use lra::core::layered::Layered;
use lra::core::pipeline::{build_instance, InstanceKind};
use lra::core::problem::Allocator;
use lra::core::{assign, verify, Optimal};
use lra::ir::genprog::{random_ssa_function, validate_strict_ssa, SsaConfig};
use lra::ir::split::split_at_uses;
use lra::targets::{Target, TargetKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn ssa_function(seed: u64) -> lra::ir::Function {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cfg = SsaConfig {
        target_instrs: 100,
        branch_percent: 25,
        loop_percent: 14,
        copy_percent: 8,
        ..SsaConfig::default()
    };
    random_ssa_function(&mut rng, &cfg, format!("x{seed}"))
}

#[test]
fn bfpl_is_feasible_and_bounded_by_optimal_on_suite_functions() {
    let target = Target::new(TargetKind::St231);
    for seed in 0..4u64 {
        let f = ssa_function(seed);
        let inst = build_instance(&f, &target, InstanceKind::LinearIntervals);
        for r in [2u32, 4] {
            let opt = Optimal.allocate(&inst, r).spill_cost;
            let a = Layered::bfpl().allocate(&inst, r);
            assert!(verify::check(&inst, &a, r).is_feasible());
            assert!(a.spill_cost >= opt);
        }
    }
}

#[test]
fn allocation_then_assignment_end_to_end() {
    let target = Target::new(TargetKind::ArmCortexA8);
    for seed in 0..4u64 {
        let f = ssa_function(seed);
        let inst = build_instance(&f, &target, InstanceKind::PreciseGraph);
        let r = 6;
        let alloc = Layered::bfpl().allocate(&inst, r);
        let asg = assign::assign(&inst, &alloc, r).expect("feasible allocation assigns");
        assert!(asg.registers_used() <= r as usize);
        for (u, v) in inst.graph().edges() {
            if let (Some(a), Some(b)) = (asg.register_of(u.index()), asg.register_of(v.index())) {
                assert_ne!(a, b);
            }
        }
    }
}

#[test]
fn split_then_allocate_models_reload_pressure() {
    let target = Target::new(TargetKind::St231).with_memory_costs(3, 0);
    for seed in 0..3u64 {
        let f = ssa_function(seed);
        let s = split_at_uses(&f);
        validate_strict_ssa(&s.function).expect("split preserves SSA");
        let whole = build_instance(&f, &target, InstanceKind::LinearIntervals);
        let split = build_instance(&s.function, &target, InstanceKind::LinearIntervals);
        let r = 4;
        let c_whole = Optimal.allocate(&whole, r).spill_cost;
        let c_split = Optimal.allocate(&split, r).spill_cost;
        // The split model accounts for reload sub-ranges, so it can
        // only be as cheap or costlier than the whole-range model.
        assert!(
            c_split >= c_whole,
            "seed {seed}: split {c_split} cheaper than whole {c_whole}?"
        );
    }
}

#[test]
fn ssa_conversion_unlocks_layered_allocation() {
    use lra::ir::genprog::{random_jit_function, JitConfig};
    use lra::ir::ssa::into_ssa;
    let target = Target::new(TargetKind::ArmCortexA8);
    for seed in 0..4u64 {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let f = random_jit_function(&mut rng, &JitConfig::default(), format!("m{seed}"));
        let ssa = into_ssa(&f);
        validate_strict_ssa(&ssa.function).expect("conversion is strict SSA");
        let inst = build_instance(&ssa.function, &target, InstanceKind::LinearIntervals);
        assert!(inst.is_chordal(), "converted methods must be chordal");
        let r = 6;
        let bfpl = Layered::bfpl().allocate(&inst, r);
        let opt = Optimal.allocate(&inst, r);
        assert!(verify::check(&inst, &bfpl, r).is_feasible());
        assert!(bfpl.spill_cost >= opt.spill_cost);
        assert!(
            bfpl.spill_cost as f64 <= opt.spill_cost as f64 * 1.10 + 1.0,
            "seed {seed}: layered not quasi-optimal after conversion \
             ({} vs {})",
            bfpl.spill_cost,
            opt.spill_cost
        );
    }
}

#[test]
fn copy_percent_generates_copies() {
    let f = ssa_function(7);
    let copies = f
        .blocks
        .iter()
        .flat_map(|b| b.instrs.iter())
        .filter(|i| i.opcode == lra::ir::Opcode::Copy)
        .count();
    assert!(copies > 0, "copy_percent: 8 should generate copies");
}
