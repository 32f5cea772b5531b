//! Recycled per-block instruction-edit buffers for IR rewrites.
//!
//! The spill rewrite ([`crate::spill_code`]) and the live-range
//! splitter ([`crate::split`]) follow the same shape: walk every
//! block, emit a new instruction body, and append reloads / copies to
//! the *tails* of predecessor blocks (φ operands materialise at the
//! end of the incoming edge). The spill rewrite also stages the stores
//! of spilled φ defs until the block's φ run ends.
//!
//! [`BlockEdits`] holds those buffers: one body and one tail per block,
//! plus the φ-store staging buffer. It lives inside
//! [`crate::AnalysisScratch`], so the spill-then-reanalyse loop does
//! not allocate them afresh every round. Every rewrite resets it to the
//! function at hand (`reset` keeps all inner allocations), pushes
//! instructions into `bodies`/`tails`, and drains the buffers into
//! exact-capacity block bodies with `finish`, which emits each block
//! as body-then-tail in block order. Reusing the buffers never changes
//! the output.

use crate::cfg::{Block, Function, Instr};

/// Recyclable per-block edit buffers shared by every IR rewrite. See
/// the [module docs](self).
#[derive(Default)]
pub struct BlockEdits {
    /// New instruction body of each block, in block order.
    pub(crate) bodies: Vec<Vec<Instr>>,
    /// Instructions appended after each block's body (φ-edge reloads,
    /// copies, materializations landing in predecessors).
    pub(crate) tails: Vec<Vec<Instr>>,
    /// Stores for spilled φ defs, staged until the φ run of the
    /// current block ends (φs are parallel and must stay first).
    pub(crate) phi_stores: Vec<Instr>,
}

impl BlockEdits {
    /// An empty edit buffer. Grows to the sizes of the functions
    /// rewritten through it and is then reused.
    pub fn new() -> Self {
        BlockEdits::default()
    }

    /// Empties every buffer and re-sizes the block spines to `n`
    /// blocks, keeping inner allocations for reuse.
    pub(crate) fn reset(&mut self, n: usize) {
        for v in &mut self.bodies {
            v.clear();
        }
        for v in &mut self.tails {
            v.clear();
        }
        self.bodies.truncate(n);
        self.tails.truncate(n);
        self.bodies.resize_with(n, Vec::new);
        self.tails.resize_with(n, Vec::new);
        self.phi_stores.clear();
    }

    /// Appends the staged φ-def stores to block `b`'s body, leaving
    /// the staging buffer empty.
    pub(crate) fn flush_phi_stores(&mut self, b: usize) {
        self.bodies[b].append(&mut self.phi_stores);
    }

    /// Drains the buffers into one [`Block`] per block of `f`: body
    /// first, then the tail, each with an exact-capacity instruction
    /// vector. Successor lists are copied from `f`; predecessor lists
    /// are left for `recompute_preds`. The spines and inner
    /// allocations stay warm for the next rewrite.
    pub(crate) fn finish(&mut self, f: &Function) -> Vec<Block> {
        self.bodies
            .iter_mut()
            .zip(self.tails.iter_mut())
            .enumerate()
            .map(|(b, (body, tail))| {
                let mut instrs = Vec::with_capacity(body.len() + tail.len());
                instrs.append(body);
                instrs.append(tail);
                Block {
                    instrs,
                    succs: f.blocks[b].succs.clone(),
                    preds: Vec::new(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::cfg::{Opcode, Value};

    #[test]
    fn reset_recycles_across_size_swings() {
        let mut e = BlockEdits::new();
        e.reset(3);
        e.bodies[2].push(Instr::new(Opcode::Op, None, vec![]));
        e.tails[0].push(Instr::new(Opcode::Load, None, vec![]));
        e.phi_stores.push(Instr::new(Opcode::Store, None, vec![]));
        e.reset(1);
        assert_eq!(e.bodies.len(), 1);
        assert_eq!(e.tails.len(), 1);
        assert!(e.bodies[0].is_empty());
        assert!(e.phi_stores.is_empty());
        e.reset(4);
        assert!(e.bodies.iter().all(Vec::is_empty));
        assert!(e.tails.iter().all(Vec::is_empty));
    }

    #[test]
    fn finish_emits_body_then_tail_and_leaves_buffers_empty() {
        let mut b = FunctionBuilder::new("f");
        let e0 = b.entry_block();
        let n1 = b.block();
        b.set_succs(e0, &[n1]);
        let f = b.finish();

        let mut e = BlockEdits::new();
        e.reset(2);
        let body = Instr::new(Opcode::Op, Some(Value(0)), vec![]);
        let tail = Instr::new(Opcode::Load, Some(Value(1)), vec![]);
        e.bodies[0].push(body.clone());
        e.tails[0].push(tail.clone());
        let blocks = e.finish(&f);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].instrs, vec![body, tail]);
        assert_eq!(blocks[0].succs, f.blocks[0].succs);
        assert!(blocks[0].preds.is_empty());
        assert!(blocks[1].instrs.is_empty());
        assert!(e.bodies.iter().all(Vec::is_empty));
        assert!(e.tails.iter().all(Vec::is_empty));
    }

    #[test]
    fn flush_phi_stores_appends_in_order() {
        let mut e = BlockEdits::new();
        e.reset(1);
        e.bodies[0].push(Instr::new(Opcode::Phi, Some(Value(0)), vec![]));
        e.phi_stores
            .push(Instr::new(Opcode::Store, None, vec![Value(0)]));
        e.flush_phi_stores(0);
        assert_eq!(e.bodies[0].len(), 2);
        assert_eq!(e.bodies[0][1].opcode, Opcode::Store);
        assert!(e.phi_stores.is_empty());
    }
}
