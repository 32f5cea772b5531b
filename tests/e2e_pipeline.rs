//! End-to-end pipeline integration tests (ISSUE 1 satellite): for
//! seeded small chordal SSA functions, the `AllocationPipeline` with
//! `BFPL` yields a spill cost bounded below by `Optimal` and above by
//! full-spill, and the verifier accepts the result, for every register
//! count in `2..=8`.

use lra::bench::batchrun;
use lra::core::pipeline::{build_instance, InstanceKind};
use lra::targets::{Target, TargetKind};
use lra::AllocationPipeline;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn small_chordal_function(seed: u64) -> lra::ir::Function {
    use lra::ir::genprog::{random_ssa_function, validate_strict_ssa, SsaConfig};
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let cfg = SsaConfig {
        target_instrs: 70,
        max_loop_depth: 2,
        branch_percent: 18,
        loop_percent: 14,
        call_percent: 4,
        copy_percent: 0,
        params: 3,
        liveness_window: 12,
    };
    let f = random_ssa_function(&mut rng, &cfg, format!("e2e{seed}"));
    validate_strict_ssa(&f).expect("generator emits strict SSA");
    f
}

#[test]
fn bfpl_between_optimal_and_full_spill_for_every_r() {
    let target = Target::new(TargetKind::St231);
    for seed in 0..6u64 {
        let f = small_chordal_function(seed);
        let inst = build_instance(&f, &target, InstanceKind::PreciseGraph);
        assert!(inst.is_chordal(), "SSA instances are chordal");
        let full_spill = inst.total_weight();

        for r in 2u32..=8 {
            let bfpl = AllocationPipeline::new(target)
                .allocator("BFPL")
                .registers(r)
                .run(&f)
                .expect("BFPL runs on chordal SSA instances");
            let opt = AllocationPipeline::new(target)
                .allocator("Optimal")
                .registers(r)
                .max_rounds(1)
                .run(&f)
                .expect("Optimal runs on every instance");

            let c = bfpl.first_round_spill_cost();
            assert!(
                c >= opt.first_round_spill_cost(),
                "seed {seed}, R={r}: BFPL ({c}) beat Optimal ({})",
                opt.first_round_spill_cost()
            );
            assert!(
                c <= full_spill,
                "seed {seed}, R={r}: BFPL cost {c} above full-spill {full_spill}"
            );
            assert!(
                bfpl.verdict.is_feasible(),
                "seed {seed}, R={r}: verifier rejected BFPL's allocation"
            );
            assert!(
                opt.verdict.is_feasible(),
                "seed {seed}, R={r}: verifier rejected Optimal's allocation"
            );
        }
    }
}

#[test]
fn pipeline_spill_code_and_assignment_are_consistent() {
    let target = Target::new(TargetKind::St231);
    for seed in 0..4u64 {
        let f = small_chordal_function(seed);
        let report = AllocationPipeline::new(target)
            .allocator("BFPL")
            .registers(3)
            .run(&f)
            .unwrap();

        // The rewritten function still validates and is SSA-shaped.
        assert_eq!(report.function.validate(), Ok(()));
        // Load/store bookkeeping matches the function contents (the
        // generator may emit memory ops of its own, so compare deltas
        // against the original function).
        let count = |g: &lra::ir::Function| {
            g.blocks.iter().flat_map(|b| b.instrs.iter()).fold(
                (0usize, 0usize),
                |(s, l), i| match i.opcode {
                    lra::ir::Opcode::Store => (s + 1, l),
                    lra::ir::Opcode::Load => (s, l + 1),
                    _ => (s, l),
                },
            )
        };
        let (stores_before, loads_before) = count(&f);
        let (stores_after, loads_after) = count(&report.function);
        assert_eq!(
            stores_after - stores_before,
            report.stores,
            "seed {seed}: store count mismatch"
        );
        assert_eq!(
            loads_after - loads_before,
            report.loads,
            "seed {seed}: load count mismatch"
        );

        if report.converged {
            // Every interfering pair of assigned values gets distinct
            // registers, and no more than R registers are in use.
            assert!(report.assignment.registers_used() <= report.registers as usize);
            let inst = build_instance(&report.function, &target, InstanceKind::PreciseGraph);
            for (u, v) in inst.graph().edges() {
                if let (Some(a), Some(b)) = (
                    report.assignment.register_of(u.index()),
                    report.assignment.register_of(v.index()),
                ) {
                    assert_ne!(a, b, "seed {seed}: {u} and {v} share register {a}");
                }
            }
        }
    }
}

#[test]
fn iteration_reduces_pressure_to_r_when_it_converges() {
    let target = Target::new(TargetKind::St231);
    for seed in 0..4u64 {
        let f = small_chordal_function(seed);
        for r in [3u32, 5] {
            let report = AllocationPipeline::new(target)
                .allocator("BFPL")
                .registers(r)
                .run(&f)
                .unwrap();
            if report.converged {
                assert!(
                    report.max_live_after <= r as usize,
                    "seed {seed}, R={r}: converged but MaxLive {} > R",
                    report.max_live_after
                );
            }
        }
    }
}

#[test]
fn interval_view_pipeline_matches_flow_optimum() {
    // On the linearised-interval view the exact optimum is polynomial;
    // the pipeline's Optimal must agree with a direct flow solve.
    use lra::core::problem::Allocator as _;
    let target = Target::new(TargetKind::St231);
    let f = small_chordal_function(9);
    let inst = build_instance(&f, &target, InstanceKind::LinearIntervals);
    for r in 2u32..=8 {
        let direct = lra::core::Optimal.allocate(&inst, r).spill_cost;
        let piped = AllocationPipeline::new(target)
            .allocator("Optimal")
            .instance_kind(InstanceKind::LinearIntervals)
            .registers(r)
            .max_rounds(1)
            .run(&f)
            .unwrap();
        assert_eq!(piped.first_round_spill_cost(), direct, "R={r}");
    }
}

/// Rows of the standard corpora that once shipped `converged` with no
/// register assignment at all, because the verifier searched for a
/// colouring of a general graph and gave up, and every converged row
/// of the seed-2013 jit-huge corpus. A converged row must carry a
/// `Feasible` verdict, and every value the final function defines or
/// uses must hold a register. `crypto::h6` still converges;
/// `sunflow::h24` no longer does since branch-and-bound branches on the
/// most blocked vertex first, and is held to the rule if it does again.
#[test]
fn converged_rows_carry_a_total_assignment() {
    let check = |experiment: &str, name: &str, report: &lra::core::AllocatedFunction| {
        assert!(
            report.verdict.is_feasible(),
            "{experiment} {name}: verdict {:?}",
            report.verdict
        );
        let unassigned: Vec<usize> = report
            .function
            .blocks
            .iter()
            .flat_map(|b| &b.instrs)
            .flat_map(|i| i.def.iter().chain(&i.uses))
            .map(|v| v.index())
            .filter(|&v| report.assignment.register_of(v).is_none())
            .collect();
        assert!(
            unassigned.is_empty(),
            "{experiment} {name}: values without a register: {unassigned:?}"
        );
    };
    let experiment = |seed: u64, name: &str| {
        batchrun::standard_experiments(seed)
            .into_iter()
            .find(|e| e.name == name)
            .unwrap_or_else(|| panic!("standard experiment {name}"))
    };

    let exp = experiment(2036, "specjvm98/LH/R6");
    let f = exp.functions.iter().find(|f| f.name == "raytrace::m0");
    let report = exp
        .pipeline
        .run(f.expect("raytrace::m0"))
        .expect("allocates");
    assert!(report.converged, "raytrace::m0: not converged");
    check(&exp.name, "raytrace::m0", &report);

    let exp = experiment(2013, "jit-huge/Portfolio/R6");
    let mut converged = Vec::new();
    for f in &exp.functions {
        let report = exp.pipeline.run(f).expect(&f.name);
        if report.converged {
            check(&exp.name, &f.name, &report);
            converged.push(f.name.as_str());
        }
    }
    assert!(
        converged.contains(&"crypto::h6"),
        "crypto::h6: not converged"
    );
    assert!(exp.functions.iter().any(|f| f.name == "sunflow::h24"));
    assert_eq!(
        converged.len(),
        323,
        "converged rows of jit-huge at seed 2013"
    );
}
