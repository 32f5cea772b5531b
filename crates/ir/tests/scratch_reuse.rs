//! Byte-identity of the recycled-scratch rewrite paths.
//!
//! Every entry point taking an [`AnalysisScratch`] promises that
//! reusing one scratch across arbitrary functions produces output
//! identical to a fresh `AnalysisScratch::new()` per call. These tests
//! drive the spill rewrite (with and without a remat table) and the
//! pressure splitter through one long-lived scratch over functions
//! whose sizes swing up and down (so the recycled block-edit buffers
//! are exercised both growing and shrinking) and compare every result
//! against a fresh scratch.

use lra_graph::BitSet;
use lra_ir::genprog::{random_ssa_function, SsaConfig};
use lra_ir::remat::RematTable;
use lra_ir::spill_code::rewrite_spill_code;
use lra_ir::split::split_pressure_ranges;
use lra_ir::{liveness, AnalysisScratch, Function};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Functions whose block and value counts swing by an order of
/// magnitude in both directions, so a shared scratch must shrink as
/// well as grow between calls.
fn swinging_functions() -> Vec<Function> {
    [30usize, 300, 60, 400, 20, 150]
        .iter()
        .enumerate()
        .map(|(i, &sz)| {
            let mut rng = ChaCha8Rng::seed_from_u64(i as u64 * 7 + 1);
            let cfg = SsaConfig {
                target_instrs: sz,
                liveness_window: 8,
                ..SsaConfig::default()
            };
            random_ssa_function(&mut rng, &cfg, format!("swing{i}"))
        })
        .collect()
}

/// Every other defined value, as a spill set.
fn alternating_spill_set(f: &Function) -> BitSet {
    let nv = f.value_count as usize;
    BitSet::from_iter_with_capacity(nv, (0..nv).step_by(2))
}

#[test]
fn spill_rewrites_reuse_matches_fresh_across_size_swings() {
    let mut shared = AnalysisScratch::new();
    for f in &swinging_functions() {
        let spilled = alternating_spill_set(f);
        for with_table in [false, true] {
            let mut fresh_table = with_table.then(|| RematTable::compute(f));
            let mut reused_table = fresh_table.clone();
            let scratch = &mut AnalysisScratch::new();
            let fresh = rewrite_spill_code(f, &spilled, fresh_table.as_mut(), scratch);
            let reused = rewrite_spill_code(f, &spilled, reused_table.as_mut(), &mut shared);
            let config = format!("{}: table {with_table}", f.name);
            assert_eq!(fresh.function, reused.function, "{config}");
            assert_eq!(fresh.stats, reused.stats, "{config}");
            assert_eq!(fresh.delta, reused.delta, "{config}");
        }
    }
}

#[test]
fn remat_rewrite_reuse_matches_fresh_across_size_swings() {
    // Chained rounds: the second rewrite re-evicts values the first
    // one created, so the table's reload and clone classes are
    // exercised through the shared scratch too.
    let mut shared = AnalysisScratch::new();
    for f in &swinging_functions() {
        let mut fresh_table = RematTable::compute(f);
        let mut reused_table = RematTable::compute(f);
        let (mut fresh_f, mut reused_f) = (f.clone(), f.clone());
        for round in 0..2 {
            let spilled = alternating_spill_set(&fresh_f);
            let scratch = &mut AnalysisScratch::new();
            let fresh = rewrite_spill_code(&fresh_f, &spilled, Some(&mut fresh_table), scratch);
            let reused =
                rewrite_spill_code(&reused_f, &spilled, Some(&mut reused_table), &mut shared);
            assert_eq!(fresh.function, reused.function, "{} round {round}", f.name);
            assert_eq!(fresh.stats, reused.stats);
            (fresh_f, reused_f) = (fresh.function, reused.function);
        }
    }
}

#[test]
fn split_rewrites_reuse_matches_fresh_across_size_swings() {
    let mut shared = AnalysisScratch::new();
    for f in &swinging_functions() {
        let live = liveness::analyze(f);
        let fresh = split_pressure_ranges(f, &live, 3, &mut AnalysisScratch::new());
        let reused = split_pressure_ranges(f, &live, 3, &mut shared);
        match (fresh, reused) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.function, b.function, "{}: pressure", f.name);
                assert_eq!(a.origin, b.origin);
                assert_eq!(a.copies, b.copies);
            }
            _ => panic!("{}: splittability must not depend on scratch reuse", f.name),
        }
    }
}
