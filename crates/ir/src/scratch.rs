//! Reusable analysis buffers for batch and service workers.
//!
//! Per-function drivers used to pay a fresh round of allocations for
//! every function they analysed: the liveness transfer sets, the
//! dataflow worklist, the per-block pressure-sweep live set, the
//! interference sweep's live set and the interval endpoint arrays.
//! None of those outlive one analysis call, so a long-lived worker can
//! allocate them once and recycle them across every function it
//! processes.
//!
//! [`AnalysisScratch`] is that recycled state. Every entry point that
//! takes one ([`crate::liveness::analyze_in`],
//! [`crate::interference::interference_graph_in`],
//! [`crate::interference::live_intervals`],
//! [`crate::FunctionAnalysis::compute`],
//! [`crate::FunctionAnalysis::after_spill`]) resets the buffers it
//! takes to the function at hand before using them, so a scratch can
//! be reused across functions of any sizes — and even after a caller
//! caught a panic mid-analysis — without affecting a single output
//! bit. Reuse is a pure allocation saving; results are identical to
//! a fresh `AnalysisScratch::new()`, and a property test pins that.
//!
//! The per-round IR rewrites ([`crate::spill_code::rewrite_spill_code`],
//! [`crate::split::split_pressure_ranges`]) recycle their block-edit
//! buffers the same way: see [`crate::block_edits::BlockEdits`], owned
//! here and handed out to the rewrites.
//!
//! What is deliberately **not** in here: the interference adjacency
//! matrix. `lra_graph::Graph::from_bit_matrix` retains the packed
//! matrix inside the returned graph (it backs `neighbor_row`), so it
//! is output, not scratch.

use crate::block_edits::BlockEdits;
use lra_graph::BitSet;

/// Recyclable buffers for one worker's analyses. See the
/// [module docs](self).
#[derive(Default)]
pub struct AnalysisScratch {
    /// One live set for backward per-block sweeps (pressure,
    /// interference, call-crossing scans).
    pub(crate) live: BitSet,
    /// Worklist membership flags for the liveness solver.
    pub(crate) on_list: Vec<bool>,
    /// The liveness solver's worklist stack.
    pub(crate) stack: Vec<usize>,
    /// Per-value interval start points.
    pub(crate) starts: Vec<u32>,
    /// Per-value interval end points.
    pub(crate) ends: Vec<u32>,
    /// Recycled per-block transfer sets (upward-exposed uses).
    pub(crate) ue: Vec<Option<BitSet>>,
    /// Recycled per-block transfer sets (non-φ defs).
    pub(crate) defs: Vec<Option<BitSet>>,
    /// Recycled per-block transfer sets (φ defs).
    pub(crate) phi_defs: Vec<Option<BitSet>>,
    /// Recycled per-block transfer sets (φ uses charged to preds).
    pub(crate) phi_out: Vec<Option<BitSet>>,
    /// Recycled block-edit buffers for the per-round IR rewrites.
    pub(crate) edits: BlockEdits,
}

impl AnalysisScratch {
    /// An empty scratch. Buffers grow to the sizes of the functions
    /// analysed through it and are then reused.
    pub fn new() -> Self {
        AnalysisScratch::default()
    }

    /// The scratch live set, emptied and sized to `nv` values.
    pub(crate) fn live_for(&mut self, nv: usize) -> &mut BitSet {
        self.live.reset(nv);
        &mut self.live
    }

    /// The recycled block-edit buffers, emptied and sized to `n`
    /// blocks.
    pub(crate) fn edits_for(&mut self, n: usize) -> &mut BlockEdits {
        self.edits.reset(n);
        &mut self.edits
    }
}

/// Resets one recycled `Option<BitSet>` table to `n` entries whose
/// materialised sets hold `nv` values, keeping every allocation.
pub(crate) fn reset_local_table(table: &mut Vec<Option<BitSet>>, n: usize, nv: usize) {
    table.truncate(n);
    for set in table.iter_mut().flatten() {
        set.reset(nv);
    }
    table.resize_with(n, || None);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_local_table_keeps_materialised_sets_empty_and_sized() {
        let mut table = vec![
            Some(BitSet::from_iter_with_capacity(10, [1, 7])),
            None,
            Some(BitSet::from_iter_with_capacity(10, [3])),
        ];
        reset_local_table(&mut table, 2, 4);
        assert_eq!(table.len(), 2);
        let s = table[0].as_ref().unwrap();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 4);
        assert!(table[1].is_none());
        reset_local_table(&mut table, 5, 8);
        assert_eq!(table.len(), 5);
        assert_eq!(table[0].as_ref().unwrap().capacity(), 8);
        assert!(table[4].is_none());
    }

    #[test]
    fn live_for_resizes_in_both_directions() {
        let mut s = AnalysisScratch::new();
        s.live_for(100).insert(99);
        let small = s.live_for(3);
        assert!(small.is_empty());
        assert_eq!(small.capacity(), 3);
    }
}
