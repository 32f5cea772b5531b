//! The worker-scratch reuse contract, end to end:
//!
//! * property test — one long-lived [`lra::AnalysisScratch`] threaded
//!   through a stream of random SSA and JIT functions of wildly
//!   different sizes produces reports byte-identical to fresh scratch
//!   per function (buffer recycling never changes output bits). Both
//!   pipelines run the escalation tier, so the stalled items also
//!   drive the pressure split and the remat-aware spill rewrite
//!   through the reused scratch;
//! * the low-level analyses (`liveness::analyze_in`,
//!   `interference_graph_in`, `live_intervals`) on the same reused
//!   buffers agree with their scratch-free forms, or with a fresh
//!   `AnalysisScratch::new()` where no scratch-free form exists;
//! * a panicking pipeline run mid-stream leaves the scratch usable
//!   and uncontaminating.

use lra::core::batch::allocate_item;
use lra::core::pipeline::InstanceKind;
use lra::ir::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
use lra::ir::{interference, liveness, Function};
use lra::targets::{Target, TargetKind};
use lra::{AllocationPipeline, AnalysisScratch};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A function whose size swings with `scale` so consecutive items
/// force the scratch buffers to both grow and shrink.
fn random_function(rng: &mut ChaCha8Rng, jit: bool, scale: u32) -> Function {
    if jit {
        let cfg = JitConfig {
            vars: (8 + scale * 7) as usize,
            blocks: (4 + scale * 2) as usize,
            ..JitConfig::default()
        };
        random_jit_function(rng, &cfg, "jit")
    } else {
        let cfg = SsaConfig {
            target_instrs: (20 + scale * 30) as usize,
            branch_percent: 30,
            loop_percent: 20,
            liveness_window: 6 + scale as usize * 3,
            ..SsaConfig::default()
        };
        random_ssa_function(rng, &cfg, "ssa")
    }
}

fn pipelines() -> Vec<AllocationPipeline> {
    let t = Target::new(TargetKind::ArmCortexA8);
    vec![
        AllocationPipeline::new(t)
            .allocator("LH")
            .instance_kind(InstanceKind::PreciseGraph)
            .registers(4)
            .max_rounds(4)
            .escalation(true),
        AllocationPipeline::new(t)
            .allocator("BFPL")
            .instance_kind(InstanceKind::LinearIntervals)
            .registers(4)
            .max_rounds(4)
            .escalation(true),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reused_worker_scratch_is_byte_identical_to_fresh(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for pipeline in pipelines() {
            // One scratch across the whole stream, exactly as a batch
            // or service worker holds it.
            let mut scratch = AnalysisScratch::new();
            for i in 0..4u32 {
                // Big → small → big: shrinking reuse is the risky
                // direction (stale high bits), so force it every pair.
                let scale = if i % 2 == 0 { 3 } else { 0 };
                let f = random_function(&mut rng, (seed + i as u64).is_multiple_of(2), scale);
                let reused = allocate_item(&pipeline, &f, &mut scratch, false);
                let fresh = allocate_item(&pipeline, &f, &mut AnalysisScratch::new(), false);
                prop_assert_eq!(
                    reused.row(),
                    fresh.row(),
                    "seed {} item {} diverged under scratch reuse",
                    seed,
                    i
                );
            }
        }
    }

    #[test]
    fn reused_analysis_scratch_matches_scratch_free_analyses(seed in 0u64..10_000) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut scratch = AnalysisScratch::new();
        for i in 0..3u32 {
            let scale = [2, 0, 3][i as usize];
            let f = random_function(&mut rng, (seed + i as u64) % 2 == 1, scale);
            let live_in = liveness::analyze_in(&f, &mut scratch);
            let live = liveness::analyze(&f);
            prop_assert_eq!(&live_in, &live, "seed {} item {}: liveness", seed, i);

            let g_in = interference::interference_graph_in(&f, &live, &mut scratch);
            let g = interference::interference_graph(&f, &live);
            prop_assert_eq!(g_in.edge_count(), g.edge_count(), "seed {} item {}: edges", seed, i);

            let lin = interference::linearize(&f);
            let iv_in = interference::live_intervals(&f, &live, &lin, &mut scratch);
            let iv = interference::live_intervals(&f, &live, &lin, &mut AnalysisScratch::new());
            prop_assert_eq!(iv_in, iv, "seed {} item {}: intervals", seed, i);
        }
    }
}

#[test]
fn scratch_survives_a_panicking_run_between_good_runs() {
    use lra::ir::cfg::{Block, BlockId};
    let mut blocks = vec![Block::default()];
    blocks[0].succs = vec![BlockId(7)]; // dangling successor panics analysis
    let broken = Function {
        name: "broken".into(),
        blocks,
        entry: BlockId(0),
        value_count: 1,
        params: vec![],
    };
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    for pipeline in pipelines() {
        let mut scratch = AnalysisScratch::new();
        let good = random_function(&mut rng, true, 2);
        let first = allocate_item(&pipeline, &good, &mut scratch, false);
        let bad = allocate_item(&pipeline, &broken, &mut scratch, false);
        assert!(bad.outcome.is_err(), "broken function must fail");
        let second = allocate_item(&pipeline, &good, &mut scratch, false);
        assert_eq!(first.row(), second.row());
        let fresh = allocate_item(&pipeline, &good, &mut AnalysisScratch::new(), false);
        assert_eq!(first.row(), fresh.row());
    }
}
