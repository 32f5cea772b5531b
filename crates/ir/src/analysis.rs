//! Shared per-round function analysis.
//!
//! The spill-then-reanalyse loop (§4.3) needs the same three analyses
//! in every round — liveness, loop frequencies and the block
//! linearisation — and historically each consumer recomputed its own
//! copy: instance construction, the driver's stall check and the
//! spill-cost estimator all ran [`liveness::analyze`] separately.
//! [`FunctionAnalysis`] computes each analysis **once per round** and
//! is threaded through all of them.
//!
//! Across rounds, spill-code insertion never touches the CFG, so
//! [`FunctionAnalysis::after_spill`] keeps the loop analysis and
//! re-runs only liveness (from scratch) and the linearisation. The
//! result equals a fresh [`FunctionAnalysis::compute`].

use crate::cfg::Function;
use crate::dom::DomTree;
use crate::interference::{self, Linearization};
use crate::liveness::{self, Liveness};
use crate::loops::LoopInfo;
use crate::scratch::AnalysisScratch;

/// Everything one allocation round needs to know about a function:
/// block-level liveness (with `MaxLive`), natural-loop frequencies and
/// the reverse-postorder linearisation.
#[derive(Clone, Debug)]
pub struct FunctionAnalysis {
    /// Backward liveness with per-block pressure summaries.
    pub liveness: Liveness,
    /// Natural-loop nesting and static block frequencies.
    pub loops: LoopInfo,
    /// Reverse-postorder block layout with program-point bases.
    pub linearization: Linearization,
}

impl FunctionAnalysis {
    /// Analyses `f` from scratch: liveness, dominators → loops, and
    /// the linearisation. `scratch` supplies recycled buffers (see
    /// [`AnalysisScratch`]); reusing it never changes the output.
    pub fn compute(f: &Function, scratch: &mut AnalysisScratch) -> Self {
        let liveness = liveness::analyze_in(f, scratch);
        let dom = DomTree::compute(f);
        let loops = LoopInfo::compute(f, &dom);
        let linearization = interference::linearize(f);
        FunctionAnalysis {
            liveness,
            loops,
            linearization,
        }
    }

    /// Re-analyses `f` after a spill rewrite of the function this
    /// analysis describes.
    ///
    /// Spill insertion changes instructions, never control flow, so the
    /// loop analysis carries over unchanged. Liveness is solved afresh
    /// ([`liveness::analyze_in`]), and the linearisation is re-laid-out
    /// over the same block order because instruction counts shifted.
    /// The result equals [`FunctionAnalysis::compute`] of `f`.
    pub fn after_spill(&self, f: &Function, scratch: &mut AnalysisScratch) -> Self {
        FunctionAnalysis {
            liveness: liveness::analyze_in(f, scratch),
            loops: self.loops.clone(),
            linearization: interference::linearize(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::spill_code::rewrite_spill_code;
    use lra_graph::BitSet;

    /// A loopy function with a φ, calls and enough pressure to spill.
    fn loopy_function() -> Function {
        let mut b = FunctionBuilder::new("loopy");
        let e = b.entry_block();
        let init = b.op(e, &[]);
        let other = b.op(e, &[]);
        let h = b.block();
        let body = b.block();
        let exit = b.block();
        b.set_succs(e, &[h]);
        b.set_succs(h, &[body, exit]);
        b.set_succs(body, &[h]);
        let carried = b.phi(h, &[init, init]);
        let t = b.op(body, &[carried, other]);
        let next = b.op(body, &[t, carried]);
        b.patch_phi_arg(h, carried, 1, next);
        b.call(exit, &[carried]);
        b.op(exit, &[other, carried]);
        b.finish()
    }

    /// `carried` equals a fresh analysis of `f` in every part.
    fn assert_matches_fresh(carried: &FunctionAnalysis, f: &Function, s: &mut AnalysisScratch) {
        let fresh = FunctionAnalysis::compute(f, s);
        assert_eq!(carried.liveness, fresh.liveness);
        // `LoopInfo` stores only per-block nesting depths (it keeps no
        // headers); block frequencies follow from them.
        assert_eq!(carried.loops, fresh.loops);
        assert_eq!(carried.linearization.base, fresh.linearization.base);
        assert_eq!(carried.linearization.order, fresh.linearization.order);
        assert_eq!(carried.linearization.end, fresh.linearization.end);
    }

    #[test]
    fn after_spill_matches_fresh_compute() {
        let f = loopy_function();
        let s = &mut AnalysisScratch::new();
        let analysis = FunctionAnalysis::compute(&f, s);
        assert!(analysis.loops.max_depth() > 0);
        for victim in 0..f.value_count as usize {
            let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [victim]);
            let rewrite = rewrite_spill_code(&f, &spilled, None, s);
            let carried = analysis.after_spill(&rewrite.function, s);
            assert_matches_fresh(&carried, &rewrite.function, s);
        }
    }

    #[test]
    fn after_spill_chains_across_rounds() {
        // Two consecutive rewrites, the second re-analysed from the
        // first round's carried analysis.
        let f = loopy_function();
        let s = &mut AnalysisScratch::new();
        let analysis = FunctionAnalysis::compute(&f, s);
        let spilled1 = BitSet::from_iter_with_capacity(f.value_count as usize, [0]);
        let r1 = rewrite_spill_code(&f, &spilled1, None, s);
        let a1 = analysis.after_spill(&r1.function, s);

        let spilled2 = BitSet::from_iter_with_capacity(r1.function.value_count as usize, [1, 2]);
        let r2 = rewrite_spill_code(&r1.function, &spilled2, None, s);
        let a2 = a1.after_spill(&r2.function, s);
        assert_matches_fresh(&a2, &r2.function, s);
    }
}
