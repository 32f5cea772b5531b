//! Bridges the compiler IR to allocation [`Instance`]s.
//!
//! Two instance shapes mirror the paper's two evaluation tracks:
//!
//! * [`InstanceKind::PreciseGraph`] — the exact interference graph
//!   (chordal for SSA functions, general for JIT functions), the §6.2
//!   setting.
//! * [`InstanceKind::LinearIntervals`] — live ranges over-approximated
//!   by one interval each over a linearisation, the linear-scan view.
//!   The resulting graph is an interval graph, so the exact optimum is
//!   available at any scale via min-cost flow — this is how the §6.1
//!   figures normalise against `Optimal` without an ILP solver.

use crate::problem::Instance;
use lra_ir::{interference, spill_cost, AnalysisScratch, Function, FunctionAnalysis};
use lra_targets::Target;

/// Which view of the function's live ranges to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstanceKind {
    /// Exact def/live interference (chordal iff SSA).
    PreciseGraph,
    /// One interval per value over a linearisation (interval graph).
    LinearIntervals,
}

/// Compiles `f` down to a spill-everywhere instance for `target`.
///
/// Runs the full [`FunctionAnalysis`] (dominators, loops, liveness,
/// linearisation) and the spill-cost estimate, then builds the
/// instance with [`build_instance_from_costs`]. Callers inside the
/// spill-then-reanalyse loop compute (or re-analyse after a spill) one
/// `FunctionAnalysis` per round and call [`build_instance_from_costs`]
/// directly so nothing is analysed twice.
pub fn build_instance(f: &Function, target: &Target, kind: InstanceKind) -> Instance {
    let scratch = &mut AnalysisScratch::new();
    let analysis = FunctionAnalysis::compute(f, scratch);
    let costs = spill_cost::spill_costs(f, &analysis.liveness, &analysis.loops, target);
    build_instance_from_costs(f, &analysis, kind, scratch, costs)
}

/// Builds the instance of `f` from a precomputed [`FunctionAnalysis`]
/// and caller-provided spill costs, borrowing the shared liveness and
/// linearisation results. `costs` carries the cost model — plain
/// spill-everywhere ([`spill_cost::spill_costs`]) or the
/// rematerialization discounts
/// ([`lra_ir::spill_cost::spill_costs_with_remat`]) the escalation
/// tier allocates under — and must have one entry per value of `f`.
/// `scratch` supplies recycled sweep buffers (see [`AnalysisScratch`]).
pub fn build_instance_from_costs(
    f: &Function,
    analysis: &FunctionAnalysis,
    kind: InstanceKind,
    scratch: &mut AnalysisScratch,
    costs: Vec<lra_graph::Cost>,
) -> Instance {
    let live = &analysis.liveness;

    match kind {
        InstanceKind::PreciseGraph => {
            let g = interference::interference_graph_in(f, live, scratch);
            Instance::from_weighted_graph(lra_graph::WeightedGraph::new(g, costs))
        }
        InstanceKind::LinearIntervals => {
            let ivs = interference::live_intervals(f, live, &analysis.linearization, scratch);
            Instance::from_intervals(ivs, costs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_ir::genprog::{self, JitConfig, SsaConfig};
    use lra_targets::TargetKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ssa_precise_instances_are_chordal() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let t = Target::new(TargetKind::St231);
        for _ in 0..10 {
            let f = genprog::random_ssa_function(&mut rng, &SsaConfig::default(), "f");
            let inst = build_instance(&f, &t, InstanceKind::PreciseGraph);
            assert!(inst.is_chordal());
            assert!(inst.intervals().is_none());
        }
    }

    #[test]
    fn interval_instances_carry_intervals() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let t = Target::new(TargetKind::St231);
        let f = genprog::random_ssa_function(&mut rng, &SsaConfig::default(), "f");
        let inst = build_instance(&f, &t, InstanceKind::LinearIntervals);
        assert!(inst.is_chordal());
        assert!(inst.intervals().is_some());
        assert_eq!(inst.vertex_count(), f.value_count as usize);
    }

    #[test]
    fn interval_view_over_approximates_precise_view() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t = Target::new(TargetKind::St231);
        let f = genprog::random_ssa_function(&mut rng, &SsaConfig::default(), "f");
        let precise = build_instance(&f, &t, InstanceKind::PreciseGraph);
        let coarse = build_instance(&f, &t, InstanceKind::LinearIntervals);
        for (u, v) in precise.graph().edges() {
            assert!(
                coarse.graph().has_edge(u.index(), v.index()),
                "precise edge ({u}, {v}) missing from interval graph"
            );
        }
        assert!(coarse.max_live() >= precise.max_live());
    }

    #[test]
    fn jit_precise_instances_exist_and_have_costs() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let t = Target::new(TargetKind::ArmCortexA8);
        let f = genprog::random_jit_function(&mut rng, &JitConfig::default(), "jit");
        let inst = build_instance(&f, &t, InstanceKind::PreciseGraph);
        assert_eq!(inst.vertex_count(), f.value_count as usize);
        assert!(inst.weighted_graph().weights().iter().all(|&w| w >= 1));
    }
}
