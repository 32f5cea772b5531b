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
use lra_ir::dom::DomTree;
use lra_ir::loops::LoopInfo;
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
/// spill-then-reanalyse loop compute (or incrementally update) one
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

/// Extracts copy-affinities from `f` for the coalescing passes:
///
/// * each [`lra_ir::Opcode::Copy`] contributes an affinity between its
///   destination and source, weighted by the block frequency (the cost
///   of the move that coalescing would remove);
/// * each φ contributes an affinity between its def and every use,
///   weighted by the incoming predecessor's frequency (the cost of the
///   move that SSA destruction would otherwise insert on that edge).
pub fn copy_affinities(f: &Function) -> crate::coalesce::Affinities {
    let dom = DomTree::compute(f);
    let loops = LoopInfo::compute(f, &dom);
    copy_affinities_with(f, &loops)
}

/// [`copy_affinities`] on a precomputed loop analysis — the variant the
/// pipeline's coalescing rounds use so the shared
/// [`FunctionAnalysis::loops`] is not recomputed per round.
pub fn copy_affinities_with(f: &Function, loops: &LoopInfo) -> crate::coalesce::Affinities {
    use lra_ir::Opcode;
    let mut aff = crate::coalesce::Affinities::new();
    for b in f.block_ids() {
        let freq = loops.frequency(b);
        let block = f.block(b);
        for instr in &block.instrs {
            match instr.opcode {
                Opcode::Copy => {
                    if let (Some(d), Some(u)) = (instr.def, instr.uses.first()) {
                        aff.add(d.index(), u.index(), freq.max(1));
                    }
                }
                Opcode::Phi => {
                    if let Some(d) = instr.def {
                        for (i, u) in instr.uses.iter().enumerate() {
                            let pf = loops.frequency(block.preds[i]);
                            aff.add(d.index(), u.index(), pf.max(1));
                        }
                    }
                }
                _ => {}
            }
        }
    }
    aff
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
    fn phi_affinities_extracted() {
        use lra_ir::builder::FunctionBuilder;
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.set_succs(e, &[l, r]);
        b.set_succs(l, &[j]);
        b.set_succs(r, &[j]);
        let xl = b.op(l, &[]);
        let xr = b.op(r, &[]);
        let m = b.phi(j, &[xl, xr]);
        let c = b.copy(j, m);
        b.op(j, &[c]);
        let f = b.finish();
        let aff = copy_affinities(&f);
        // Two φ affinities plus one copy affinity.
        assert_eq!(aff.len(), 3);
        let pairs: Vec<(usize, usize)> = aff.pairs().iter().map(|&(a, b, _)| (a, b)).collect();
        assert!(pairs.contains(&(xl.index().min(m.index()), xl.index().max(m.index()))));
        assert!(pairs.contains(&(m.index().min(c.index()), m.index().max(c.index()))));
    }

    #[test]
    fn coalescing_a_real_function_removes_moves() {
        use crate::coalesce;
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        let t = Target::new(TargetKind::St231);
        let cfg = SsaConfig {
            branch_percent: 30,
            loop_percent: 15,
            ..SsaConfig::default()
        };
        let f = genprog::random_ssa_function(&mut rng, &cfg, "f");
        let inst = build_instance(&f, &t, InstanceKind::PreciseGraph);
        let aff = copy_affinities(&f);
        if aff.is_empty() {
            return; // this seed produced no φs; other tests cover φs
        }
        let c = coalesce::aggressive_coalesce(&inst, &aff);
        assert!(c.instance.vertex_count() <= inst.vertex_count());
        assert_eq!(
            c.instance.total_weight(),
            inst.total_weight(),
            "coalescing preserves total spill weight"
        );
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
