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
//! Across rounds the work shrinks further: spill-code insertion never
//! touches the CFG, so [`FunctionAnalysis::after_spill`] carries the
//! loop analysis over verbatim and re-solves liveness incrementally
//! from the rewrite's [`SpillDelta`] instead of starting from scratch.
//! The result is identical to a fresh [`FunctionAnalysis::compute`];
//! the `LRA_FULL_REANALYSIS` environment variable (see
//! [`full_reanalysis_forced`]) forces the full recomputation so CI can
//! diff the two paths byte for byte.

use crate::cfg::Function;
use crate::dom::DomTree;
use crate::interference::{self, Linearization};
use crate::liveness::{self, Liveness};
use crate::loops::LoopInfo;
use crate::scratch::AnalysisScratch;
use crate::spill_code::SpillDelta;

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

    /// Re-analyses `f` after a spill rewrite described by `delta`,
    /// reusing this (pre-rewrite) analysis.
    ///
    /// Spill insertion changes instructions, never control flow, so the
    /// loop analysis carries over unchanged; liveness is re-solved only
    /// from the rewrite's dirty frontier
    /// ([`liveness::analyze_incremental`]); the linearisation is
    /// re-laid-out over the same block order because instruction counts
    /// shifted. The result equals [`FunctionAnalysis::compute`] of `f`.
    pub fn after_spill(
        &self,
        f: &Function,
        delta: &SpillDelta,
        scratch: &mut AnalysisScratch,
    ) -> Self {
        FunctionAnalysis {
            liveness: liveness::analyze_incremental(
                f,
                &self.liveness,
                &delta.dirty_blocks,
                &delta.changed_values,
                scratch,
            ),
            loops: self.loops.clone(),
            linearization: interference::linearize(f),
        }
    }
}

/// `true` when the `LRA_FULL_REANALYSIS` environment variable demands
/// the pre-incremental behaviour: every analysis recomputed from
/// scratch every round. Any non-empty value other than `0` counts.
/// CI runs one batch under this flag and diffs it against the default
/// incremental path for byte-identity.
pub fn full_reanalysis_forced() -> bool {
    std::env::var_os("LRA_FULL_REANALYSIS").is_some_and(|v| !v.is_empty() && v != "0")
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

    #[test]
    fn after_spill_matches_fresh_compute() {
        let f = loopy_function();
        let s = &mut AnalysisScratch::new();
        let analysis = FunctionAnalysis::compute(&f, s);
        for victim in 0..f.value_count as usize {
            let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [victim]);
            let rewrite = rewrite_spill_code(&f, &spilled, None, s);
            let incremental = analysis.after_spill(&rewrite.function, &rewrite.delta, s);
            let fresh = FunctionAnalysis::compute(&rewrite.function, s);
            assert_eq!(incremental.liveness, fresh.liveness, "victim {victim}");
            assert_eq!(incremental.linearization.base, fresh.linearization.base);
            assert_eq!(incremental.linearization.order, fresh.linearization.order);
        }
    }

    #[test]
    fn after_spill_chains_across_rounds() {
        // Two consecutive rewrites, each incrementally re-analysed from
        // the previous round's result.
        let f = loopy_function();
        let s = &mut AnalysisScratch::new();
        let analysis = FunctionAnalysis::compute(&f, s);
        let spilled1 = BitSet::from_iter_with_capacity(f.value_count as usize, [0]);
        let r1 = rewrite_spill_code(&f, &spilled1, None, s);
        let a1 = analysis.after_spill(&r1.function, &r1.delta, s);

        let spilled2 = BitSet::from_iter_with_capacity(r1.function.value_count as usize, [1, 2]);
        let r2 = rewrite_spill_code(&r1.function, &spilled2, None, s);
        let a2 = a1.after_spill(&r2.function, &r2.delta, s);
        assert_eq!(
            a2.liveness,
            FunctionAnalysis::compute(&r2.function, s).liveness
        );
    }

    #[test]
    fn full_reanalysis_flag_parses_conventionally() {
        // The variable is read from the process environment by the
        // driver; here we only pin the parsing convention (unset/empty/
        // "0" = off) via the same predicate the driver uses.
        fn forced(v: Option<&str>) -> bool {
            v.is_some_and(|v| !v.is_empty() && v != "0")
        }
        assert!(!forced(None));
        assert!(!forced(Some("")));
        assert!(!forced(Some("0")));
        assert!(forced(Some("1")));
        assert!(forced(Some("yes")));
    }
}
