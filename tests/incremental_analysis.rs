//! The incremental re-analysis contract, end to end:
//!
//! * property test — after a randomized spill rewrite of a random
//!   (SSA or JIT) function, with or without a remat table,
//!   `liveness::analyze_incremental` seeded
//!   from the previous fixed point equals a fresh
//!   `liveness::analyze` of the rewritten function, field for field;
//! * regression — `AllocationPipeline` reports (and whole
//!   `BatchReport`s) are byte-identical whether rounds share the
//!   incremental `FunctionAnalysis` (the default) or force a full
//!   recomputation (`full_reanalysis(true)`, the `LRA_FULL_REANALYSIS`
//!   CI path).

use lra::core::pipeline::InstanceKind;
use lra::graph::BitSet;
use lra::ir::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
use lra::ir::remat::RematTable;
use lra::ir::spill_code::{rewrite_spill_code, SpillRewrite};
use lra::ir::{liveness, AnalysisScratch, Function, FunctionAnalysis};
use lra::targets::{Target, TargetKind};
use lra::{AllocationPipeline, BatchAllocator};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_function(rng: &mut ChaCha8Rng, jit: bool) -> Function {
    if jit {
        random_jit_function(rng, &JitConfig::default(), "jit")
    } else {
        let cfg = SsaConfig {
            branch_percent: 30,
            loop_percent: 20,
            ..SsaConfig::default()
        };
        random_ssa_function(rng, &cfg, "ssa")
    }
}

/// Rewrites `spilled` in the rewriter configuration `config` (0..2):
/// 1 selects a fresh [`RematTable`].
fn rewrite(f: &Function, spilled: &BitSet, config: u64, s: &mut AnalysisScratch) -> SpillRewrite {
    let mut table = (config == 1).then(|| RematTable::compute(f));
    rewrite_spill_code(f, spilled, table.as_mut(), s)
}

fn random_spill_set(rng: &mut ChaCha8Rng, f: &Function, percent: u32) -> BitSet {
    BitSet::from_iter_with_capacity(
        f.value_count as usize,
        (0..f.value_count as usize).filter(|_| rng.gen_range(0u32..100) < percent),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn incremental_liveness_equals_fresh_analysis(seed in 0u64..10_000, percent in 5u32..60) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let jit = seed % 2 == 0;
        let f = random_function(&mut rng, jit);
        let prev = liveness::analyze(&f);
        let spilled = random_spill_set(&mut rng, &f, percent);
        let s = &mut AnalysisScratch::new();
        for config in 0..2 {
            let rw = rewrite(&f, &spilled, config, s);
            let (dirty, changed) = (&rw.delta.dirty_blocks, &rw.delta.changed_values);
            let incremental = liveness::analyze_incremental(&rw.function, &prev, dirty, changed, s);
            let fresh = liveness::analyze(&rw.function);
            prop_assert_eq!(
                &incremental, &fresh,
                "seed {} jit {} config {} diverged", seed, jit, config
            );
        }
    }

    #[test]
    fn incremental_liveness_chains_over_two_rewrites(seed in 0u64..10_000) {
        // Round-over-round seeding, the shape the pipeline actually
        // uses: the second incremental solve starts from the first
        // incremental result, not from a fresh analysis.
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        // Each configuration of the rewriter keeps one remat table
        // across both rounds, as the escalated spill loop does.
        let f = random_function(&mut rng, seed % 2 == 1);
        let a0 = liveness::analyze(&f);
        let s1 = random_spill_set(&mut rng, &f, 25);
        let s = &mut AnalysisScratch::new();
        for config in 0..2u64 {
            let mut table = (config == 1).then(|| RematTable::compute(&f));
            let r1 = rewrite_spill_code(&f, &s1, table.as_mut(), s);
            let a1 = liveness::analyze_incremental(
                &r1.function, &a0, &r1.delta.dirty_blocks, &r1.delta.changed_values, s,
            );
            let s2 = random_spill_set(&mut rng, &r1.function, 20);
            let r2 = rewrite_spill_code(&r1.function, &s2, table.as_mut(), s);
            let a2 = liveness::analyze_incremental(
                &r2.function, &a1, &r2.delta.dirty_blocks, &r2.delta.changed_values, s,
            );
            prop_assert_eq!(
                &a2, &liveness::analyze(&r2.function), "seed {} config {} diverged", seed, config
            );
        }
    }
}

#[test]
fn function_analysis_after_spill_matches_compute() {
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    for jit in [false, true] {
        let f = random_function(&mut rng, jit);
        let s = &mut AnalysisScratch::new();
        let analysis = FunctionAnalysis::compute(&f, s);
        let spilled = random_spill_set(&mut rng, &f, 30);
        for config in 0..2 {
            let rw = rewrite(&f, &spilled, config, s);
            let incremental = analysis.after_spill(&rw.function, &rw.delta, s);
            let fresh = FunctionAnalysis::compute(&rw.function, s);
            assert_eq!(incremental.liveness, fresh.liveness, "config {config}");
            assert_eq!(incremental.linearization.order, fresh.linearization.order);
            assert_eq!(incremental.linearization.base, fresh.linearization.base);
            assert_eq!(incremental.linearization.end, fresh.linearization.end);
        }
    }
}

/// One pipeline per (allocator, view) pair that exercises multiple
/// spill rounds on the shared-analysis path.
fn pipelines() -> Vec<AllocationPipeline> {
    let t = Target::new(TargetKind::ArmCortexA8);
    vec![
        AllocationPipeline::new(t)
            .allocator("LH")
            .instance_kind(InstanceKind::PreciseGraph)
            .registers(4)
            .max_rounds(4),
        AllocationPipeline::new(t)
            .allocator("BFPL")
            .instance_kind(InstanceKind::LinearIntervals)
            .registers(4)
            .max_rounds(4),
    ]
}

fn corpus() -> Vec<Function> {
    let mut rng = ChaCha8Rng::seed_from_u64(2013);
    let mut fs = Vec::new();
    for i in 0..6 {
        fs.push(random_function(&mut rng, i % 2 == 0));
    }
    fs
}

#[test]
fn shared_analysis_reports_match_full_reanalysis_reports() {
    for pipeline in pipelines() {
        for f in corpus() {
            let incremental = pipeline.clone().full_reanalysis(false).run(&f).unwrap();
            let full = pipeline.clone().full_reanalysis(true).run(&f).unwrap();
            assert_eq!(incremental.rounds, full.rounds);
            assert_eq!(incremental.converged, full.converged);
            assert_eq!(incremental.round_costs, full.round_costs);
            assert_eq!(incremental.spilled, full.spilled);
            assert_eq!(incremental.stores, full.stores);
            assert_eq!(incremental.loads, full.loads);
            assert_eq!(incremental.assignment, full.assignment);
            assert_eq!(incremental.function, full.function);
            assert_eq!(incremental.max_live_before, full.max_live_before);
            assert_eq!(incremental.max_live_after, full.max_live_after);
        }
    }
}

#[test]
fn batch_reports_are_byte_identical_across_reanalysis_modes() {
    let functions = corpus();
    for pipeline in pipelines() {
        let incremental = BatchAllocator::new(pipeline.clone().full_reanalysis(false))
            .threads(2)
            .run(&functions);
        let full = BatchAllocator::new(pipeline.full_reanalysis(true))
            .threads(1)
            .run(&functions);
        assert_eq!(
            incremental.render(),
            full.render(),
            "batch output must not depend on the re-analysis mode"
        );
    }
}
