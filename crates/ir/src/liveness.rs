//! Backward liveness analysis with SSA φ semantics.
//!
//! The central quantity of decoupled register allocation is **MaxLive**:
//! the maximum number of variables simultaneously live at any program
//! point. If `MaxLive ≤ R` the assignment phase needs no spill, so the
//! spilling problem is exactly "lower MaxLive to R at minimum cost".
//!
//! φ conventions (standard for SSA-based allocation):
//! * a φ's *uses* are live at the end of the corresponding predecessor,
//! * a φ's *def* is live-in of its block,
//!
//! so φ-related values of different predecessors do not artificially
//! interfere.

use crate::cfg::{Function, Opcode};
use crate::scratch::{reset_local_table, AnalysisScratch};
use lra_graph::BitSet;

/// Per-block live sets plus register-pressure summaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Liveness {
    /// Values live at block entry (φ defs included), indexed by block.
    pub live_in: Vec<BitSet>,
    /// Values live at block exit (φ uses of successors included).
    pub live_out: Vec<BitSet>,
    /// Maximum pressure over every program point of the function.
    pub max_live: usize,
    /// Maximum pressure within each block.
    pub block_max_live: Vec<usize>,
}

/// Per-block transfer-function inputs of the backward dataflow
/// problem. `None` entries stand for the empty set (`no_keys`), so an
/// incremental scan of a few dirty blocks allocates a few sets, not
/// four per block.
struct LocalSets {
    nv: usize,
    /// The shared empty set returned for unmaterialised blocks.
    no_keys: BitSet,
    /// Upward-exposed uses (used before any def in the block).
    ue: Vec<Option<BitSet>>,
    /// Values defined by non-φ instructions.
    defs: Vec<Option<BitSet>>,
    /// Values defined by φs (live-in of the block, dead in preds).
    phi_defs: Vec<Option<BitSet>>,
    /// φ uses of successors, charged to this block's live-out.
    phi_out: Vec<Option<BitSet>>,
}

impl LocalSets {
    /// Sets are materialised per block only when a scan touches them,
    /// so the incremental path pays for the dirty frontier, not for
    /// every block of the function.
    ///
    /// The tables (and any set a previous function materialised) are
    /// borrowed from `scratch` and handed back by
    /// [`LocalSets::recycle`], so a long-lived worker re-fills the
    /// same allocations function after function. A recycled set is
    /// reset empty at the right capacity first, which the accessors
    /// below treat exactly like an unmaterialised `None`.
    fn from_scratch(n: usize, nv: usize, scratch: &mut AnalysisScratch) -> Self {
        let mut ue = std::mem::take(&mut scratch.ue);
        let mut defs = std::mem::take(&mut scratch.defs);
        let mut phi_defs = std::mem::take(&mut scratch.phi_defs);
        let mut phi_out = std::mem::take(&mut scratch.phi_out);
        reset_local_table(&mut ue, n, nv);
        reset_local_table(&mut defs, n, nv);
        reset_local_table(&mut phi_defs, n, nv);
        reset_local_table(&mut phi_out, n, nv);
        LocalSets {
            nv,
            no_keys: BitSet::new(nv),
            ue,
            defs,
            phi_defs,
            phi_out,
        }
    }

    /// Returns the tables to `scratch` for the next function.
    fn recycle(self, scratch: &mut AnalysisScratch) {
        scratch.ue = self.ue;
        scratch.defs = self.defs;
        scratch.phi_defs = self.phi_defs;
        scratch.phi_out = self.phi_out;
    }

    fn ue(&self, b: usize) -> &BitSet {
        self.ue[b].as_ref().unwrap_or(&self.no_keys)
    }

    fn defs(&self, b: usize) -> &BitSet {
        self.defs[b].as_ref().unwrap_or(&self.no_keys)
    }

    fn phi_defs(&self, b: usize) -> &BitSet {
        self.phi_defs[b].as_ref().unwrap_or(&self.no_keys)
    }

    fn phi_out(&self, b: usize) -> &BitSet {
        self.phi_out[b].as_ref().unwrap_or(&self.no_keys)
    }

    /// Scans `block` of `f` into the local sets. With `mask` set, only
    /// values in the mask are recorded — the restriction used by
    /// [`analyze_incremental`], sound because block-level liveness is
    /// independent per value.
    fn scan_block(&mut self, f: &Function, b: usize, mask: Option<&BitSet>) {
        let nv = self.nv;
        fn materialize(v: &mut [Option<BitSet>], b: usize, nv: usize) -> &mut BitSet {
            v[b].get_or_insert_with(|| BitSet::new(nv))
        }
        let keep = |v: usize| mask.is_none_or(|m| m.contains(v));
        let block = &f.blocks[b];
        for instr in block.instrs.iter().rev() {
            if instr.opcode == Opcode::Phi {
                if let Some(d) = instr.def {
                    if keep(d.index()) {
                        materialize(&mut self.phi_defs, b, nv).insert(d.index());
                    }
                }
                continue;
            }
            if let Some(d) = instr.def {
                if let Some(ue) = self.ue[b].as_mut() {
                    ue.remove(d.index());
                }
                if keep(d.index()) {
                    materialize(&mut self.defs, b, nv).insert(d.index());
                }
            }
            for u in &instr.uses {
                if keep(u.index()) {
                    materialize(&mut self.ue, b, nv).insert(u.index());
                }
            }
        }
        for instr in block.phis() {
            for (i, u) in instr.uses.iter().enumerate() {
                if keep(u.index()) {
                    let p = block.preds[i];
                    materialize(&mut self.phi_out, p.index(), nv).insert(u.index());
                }
            }
        }
    }
}

/// Solves the backward dataflow equations with a worklist, mutating
/// `live_in`/`live_out` in place from their current state (the bottom
/// element for a full analysis; empty partial sets for the masked
/// incremental solve). `seeds` must be given in reverse postorder:
/// the stack then pops blocks in postorder, the fast order for
/// backward problems. Only blocks with `reachable` set are processed —
/// unreachable blocks keep their (empty) sets, matching the full
/// analysis, which never visits them.
fn solve(
    f: &Function,
    local: &LocalSets,
    reachable: &[bool],
    seeds: &[usize],
    live_in: &mut [BitSet],
    live_out: &mut [BitSet],
    scratch: &mut AnalysisScratch,
) {
    let n = f.block_count();
    let on_list = &mut scratch.on_list;
    on_list.clear();
    on_list.resize(n, false);
    let stack = &mut scratch.stack;
    stack.clear();
    for &b in seeds {
        if reachable[b] && !on_list[b] {
            on_list[b] = true;
            stack.push(b);
        }
    }
    while let Some(bi) = stack.pop() {
        on_list[bi] = false;
        // live_out(b) = Σ_succ (live_in(s) \ phi_defs(s)) ∪ phi_out(b)
        let mut out = local.phi_out(bi).clone();
        for &s in &f.blocks[bi].succs {
            let mut from_s = live_in[s.index()].clone();
            from_s.difference_with(local.phi_defs(s.index()));
            out.union_with(&from_s);
        }
        // live_in(b) = phi_defs ∪ ue ∪ (out \ defs)
        let mut inn = out.clone();
        inn.difference_with(local.defs(bi));
        inn.union_with(local.ue(bi));
        inn.union_with(local.phi_defs(bi));
        if out != live_out[bi] {
            live_out[bi] = out;
        }
        if inn != live_in[bi] {
            live_in[bi] = inn;
            // Only a live-in change is visible to predecessors.
            for &p in &f.blocks[bi].preds {
                let pi = p.index();
                if reachable[pi] && !on_list[pi] {
                    on_list[pi] = true;
                    stack.push(pi);
                }
            }
        }
    }
}

/// Backward pressure sweep of one block: the maximum live-set size over
/// its program points. `live` is caller-provided sweep scratch (reset
/// to the value-space capacity); its contents on entry are ignored.
fn block_pressure(
    f: &Function,
    b: usize,
    live_in: &BitSet,
    live_out: &BitSet,
    live: &mut BitSet,
) -> usize {
    live.copy_from(live_out);
    let mut local_max = live.len();
    for instr in f.blocks[b].instrs.iter().rev() {
        if instr.opcode == Opcode::Phi {
            // φ defs are conceptually parallel at block entry; they
            // are all in live_in already. Stop the sweep here.
            break;
        }
        if let Some(d) = instr.def {
            live.remove(d.index());
        }
        for u in &instr.uses {
            live.insert(u.index());
        }
        local_max = local_max.max(live.len());
    }
    local_max.max(live_in.len())
}

fn reachable_and_rpo(f: &Function) -> (Vec<bool>, Vec<usize>) {
    let rpo: Vec<usize> = f.reverse_postorder().iter().map(|b| b.index()).collect();
    let mut reachable = vec![false; f.block_count()];
    for &b in &rpo {
        reachable[b] = true;
    }
    (reachable, rpo)
}

/// Runs liveness analysis over `f`.
///
/// Solves the backward dataflow equations with a worklist (seeded in
/// reverse postorder, so blocks are first processed in postorder and
/// re-processed only when a successor's live-in actually changes), then
/// sweeps each block once to measure per-point pressure.
pub fn analyze(f: &Function) -> Liveness {
    analyze_in(f, &mut AnalysisScratch::new())
}

/// [`analyze`] with caller-provided scratch buffers: identical output,
/// but a worker recycling one [`AnalysisScratch`] across functions
/// skips the per-function allocation of the transfer sets, the
/// worklist and the pressure-sweep live set.
pub fn analyze_in(f: &Function, scratch: &mut AnalysisScratch) -> Liveness {
    let n = f.block_count();
    let nv = f.value_count as usize;

    let mut local = LocalSets::from_scratch(n, nv, scratch);
    for b in 0..n {
        local.scan_block(f, b, None);
    }

    let mut live_in = vec![BitSet::new(nv); n];
    let mut live_out = vec![BitSet::new(nv); n];
    let (reachable, rpo) = reachable_and_rpo(f);
    solve(
        f,
        &local,
        &reachable,
        &rpo,
        &mut live_in,
        &mut live_out,
        scratch,
    );
    local.recycle(scratch);

    let mut block_max_live = vec![0usize; n];
    let mut max_live = 0usize;
    let sweep = scratch.live_for(nv);
    for b in 0..n {
        let local_max = block_pressure(f, b, &live_in[b], &live_out[b], sweep);
        block_max_live[b] = local_max;
        max_live = max_live.max(local_max);
    }

    Liveness {
        live_in,
        live_out,
        max_live,
        block_max_live,
    }
}

/// Re-solves liveness after a rewrite that changed instructions only in
/// `dirty_blocks` and live ranges only of `changed_values`, seeding
/// from the previous fixed point `prev` instead of starting over.
///
/// Spill-code insertion is exactly such a rewrite (see
/// [`crate::spill_code::SpillDelta`]): the CFG is untouched, every
/// occurrence of a changed value (the spilled originals and the fresh
/// reloads) sits in a dirty block, and block-level liveness is
/// independent per value — so the carried-over sets stay exact for
/// every unchanged value, and only the changed values need a (masked,
/// dirty-seeded) dataflow solve. The result is **identical** to a
/// fresh [`analyze`] of `f`; CI diffs the two paths end to end via the
/// `LRA_FULL_REANALYSIS` escape hatch. `scratch` supplies recycled
/// buffers, as for [`analyze_in`].
///
/// # Panics
///
/// Panics if `prev` has a different block count than `f`, if
/// `changed_values`' capacity is not `f.value_count`, or if
/// `dirty_blocks`' capacity is not the block count.
pub fn analyze_incremental(
    f: &Function,
    prev: &Liveness,
    dirty_blocks: &BitSet,
    changed_values: &BitSet,
    scratch: &mut AnalysisScratch,
) -> Liveness {
    let n = f.block_count();
    let nv = f.value_count as usize;
    assert_eq!(prev.live_in.len(), n, "block count changed across rounds");
    assert_eq!(changed_values.capacity(), nv, "changed-value mask capacity");
    assert_eq!(dirty_blocks.capacity(), n, "dirty-block mask capacity");

    // Masked local sets: changed values occur only in dirty blocks.
    let mut local = LocalSets::from_scratch(n, nv, scratch);
    for b in dirty_blocks.iter() {
        local.scan_block(f, b, Some(changed_values));
    }

    // Partial solve over the changed values only. Seeds: the dirty
    // blocks plus any block that picked up a φ-edge contribution, in
    // reverse postorder. The partial sets are dense on purpose: the
    // returned `Liveness` owns a full set per block anyway, so the
    // merge below is already O(blocks) word-level passes — the
    // incremental saving lives in the solver iterations and the
    // pressure sweeps, not here.
    let mut pin = vec![BitSet::new(nv); n];
    let mut pout = vec![BitSet::new(nv); n];
    let (reachable, rpo) = reachable_and_rpo(f);
    let seeds: Vec<usize> = rpo
        .iter()
        .copied()
        .filter(|&b| dirty_blocks.contains(b) || !local.phi_out(b).is_empty())
        .collect();
    solve(f, &local, &reachable, &seeds, &mut pin, &mut pout, scratch);
    local.recycle(scratch);

    // Merge: carry the previous sets (grown to the new value space,
    // changed values cleared) and union in the partial solution. A
    // block whose live-out kept every bit and whose instructions are
    // untouched reuses its recorded pressure; everything else is
    // re-swept.
    let mut live_in = Vec::with_capacity(n);
    let mut live_out = Vec::with_capacity(n);
    let mut out_carried_exactly = vec![false; n];
    for b in 0..n {
        let mut inn = prev.live_in[b].clone();
        inn.grow(nv);
        inn.difference_with(changed_values);
        inn.union_with(&pin[b]);
        live_in.push(inn);

        let mut out = prev.live_out[b].clone();
        out.grow(nv);
        let lost = out.intersection_len(changed_values) > 0;
        out.difference_with(changed_values);
        out.union_with(&pout[b]);
        out_carried_exactly[b] = !lost && pout[b].is_empty();
        live_out.push(out);
    }

    let mut block_max_live = vec![0usize; n];
    let mut max_live = 0usize;
    let sweep = scratch.live_for(nv);
    for b in 0..n {
        let local_max = if out_carried_exactly[b] && !dirty_blocks.contains(b) {
            prev.block_max_live[b]
        } else {
            block_pressure(f, b, &live_in[b], &live_out[b], sweep)
        };
        block_max_live[b] = local_max;
        max_live = max_live.max(local_max);
    }

    Liveness {
        live_in,
        live_out,
        max_live,
        block_max_live,
    }
}

/// Returns the values live across at least one [`Opcode::Call`] site —
/// candidates for the ABI call-crossing cost penalty.
pub fn live_across_calls(f: &Function, live: &Liveness) -> BitSet {
    let nv = f.value_count as usize;
    let mut crossing = BitSet::new(nv);
    // One scratch live set reused across blocks instead of a fresh
    // clone (and allocation) per block.
    let mut live_set = BitSet::new(nv);
    for b in f.block_ids() {
        let bi = b.index();
        live_set.copy_from(&live.live_out[bi]);
        for instr in f.blocks[bi].instrs.iter().rev() {
            if instr.opcode == Opcode::Phi {
                break;
            }
            if let Some(d) = instr.def {
                live_set.remove(d.index());
            }
            if instr.opcode == Opcode::Call {
                // Values live across the call (not its own operands'
                // last uses, which die at the call).
                crossing.union_with(&live_set);
            }
            for u in &instr.uses {
                live_set.insert(u.index());
            }
        }
    }
    crossing
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;

    #[test]
    fn straight_line_liveness() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let y = b.op(e, &[x]);
        let _z = b.op(e, &[x, y]);
        let f = b.finish();
        let live = analyze(&f);
        assert!(live.live_in[0].is_empty());
        assert!(live.live_out[0].is_empty());
        // x and y live simultaneously between y's def and z.
        assert_eq!(live.max_live, 2);
    }

    #[test]
    fn value_live_across_blocks() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let next = b.block();
        b.set_succs(e, &[next]);
        let x = b.op(e, &[]);
        b.op(next, &[x]);
        let f = b.finish();
        let live = analyze(&f);
        assert!(live.live_out[0].contains(x.index()));
        assert!(live.live_in[1].contains(x.index()));
    }

    #[test]
    fn phi_def_live_in_and_uses_live_out_of_preds() {
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
        b.op(j, &[m]);
        let f = b.finish();
        let live = analyze(&f);
        // φ uses live out of their own predecessor only.
        assert!(live.live_out[l.index()].contains(xl.index()));
        assert!(!live.live_out[l.index()].contains(xr.index()));
        assert!(live.live_out[r.index()].contains(xr.index()));
        // φ def live-in of join but NOT live-out of preds.
        assert!(live.live_in[j.index()].contains(m.index()));
        assert!(!live.live_out[l.index()].contains(m.index()));
    }

    #[test]
    fn loop_carried_value_live_around_backedge() {
        let mut b = FunctionBuilder::new("loop");
        let e = b.entry_block();
        let init = b.op(e, &[]);
        let h = b.block();
        let body = b.block();
        let exit = b.block();
        b.set_succs(e, &[h]);
        b.set_succs(h, &[body, exit]);
        b.set_succs(body, &[h]);
        let carried = b.phi(h, &[init, init]);
        let next = b.op(body, &[carried]);
        b.patch_phi_arg(h, carried, 1, next);
        b.op(exit, &[carried]);
        let f = b.finish();
        let live = analyze(&f);
        // carried is live everywhere in the loop.
        assert!(live.live_in[h.index()].contains(carried.index()));
        assert!(live.live_out[h.index()].contains(carried.index()));
        assert!(live.live_out[body.index()].contains(next.index()));
    }

    #[test]
    fn max_live_counts_peak_pressure() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let vs: Vec<_> = (0..5).map(|_| b.op(e, &[])).collect();
        b.op(e, &vs); // all five live here
        let f = b.finish();
        let live = analyze(&f);
        assert_eq!(live.max_live, 5);
        assert_eq!(live.block_max_live[0], 5);
    }

    #[test]
    fn dead_value_not_live_anywhere() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let _dead = b.op(e, &[]);
        let f = b.finish();
        let live = analyze(&f);
        assert!(live.live_in[0].is_empty());
        assert!(live.live_out[0].is_empty());
    }

    #[test]
    fn incremental_matches_fresh_analysis_after_spilling() {
        use crate::spill_code;
        use lra_graph::BitSet;
        // Loop-carried φ plus a long-lived value: spilling either
        // reshapes liveness across the whole loop.
        let mut b = FunctionBuilder::new("loop");
        let e = b.entry_block();
        let init = b.op(e, &[]);
        let long = b.op(e, &[]);
        let h = b.block();
        let body = b.block();
        let exit = b.block();
        b.set_succs(e, &[h]);
        b.set_succs(h, &[body, exit]);
        b.set_succs(body, &[h]);
        let carried = b.phi(h, &[init, init]);
        let next = b.op(body, &[carried, long]);
        b.patch_phi_arg(h, carried, 1, next);
        b.op(exit, &[carried, long]);
        let f = b.finish();
        let prev = analyze(&f);
        for victim in 0..f.value_count as usize {
            let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [victim]);
            let s = &mut AnalysisScratch::new();
            let rw = spill_code::rewrite_spill_code(&f, &spilled, None, s);
            let (dirty, changed) = (&rw.delta.dirty_blocks, &rw.delta.changed_values);
            let inc = analyze_incremental(&rw.function, &prev, dirty, changed, s);
            assert_eq!(inc, analyze(&rw.function), "victim {victim}");
        }
    }

    #[test]
    fn incremental_with_nothing_dirty_is_the_identity() {
        use lra_graph::BitSet;
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let n1 = b.block();
        b.set_succs(e, &[n1]);
        b.op(n1, &[x]);
        let f = b.finish();
        let prev = analyze(&f);
        let inc = analyze_incremental(
            &f,
            &prev,
            &BitSet::new(f.block_count()),
            &BitSet::new(f.value_count as usize),
            &mut AnalysisScratch::new(),
        );
        assert_eq!(inc, prev);
    }

    #[test]
    fn incremental_leaves_unreachable_blocks_empty() {
        use crate::cfg::{Block, BlockId, Instr};
        use lra_graph::BitSet;
        // An unreachable block that reads a value and branches into
        // the reachable CFG: the full analysis never visits it, so the
        // incremental one must not either.
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        b.op(e, &[x]);
        b.op(e, &[x]);
        let mut f = b.finish();
        f.blocks.push(Block {
            instrs: vec![Instr::new(Opcode::Op, None, vec![crate::cfg::Value(0)])],
            succs: vec![BlockId(0)],
            preds: Vec::new(),
        });
        f.recompute_preds();
        let prev = analyze(&f);
        assert!(prev.live_in[1].is_empty() && prev.live_out[1].is_empty());
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [x.index()]);
        let s = &mut AnalysisScratch::new();
        let rw = crate::spill_code::rewrite_spill_code(&f, &spilled, None, s);
        let (dirty, changed) = (&rw.delta.dirty_blocks, &rw.delta.changed_values);
        let inc = analyze_incremental(&rw.function, &prev, dirty, changed, s);
        assert_eq!(inc, analyze(&rw.function));
        assert!(inc.live_in[1].is_empty() && inc.live_out[1].is_empty());
    }

    #[test]
    fn live_across_calls_detects_crossing_values() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]); // live across the call
        let arg = b.op(e, &[]); // dies at the call
        let r = b.call(e, &[arg]);
        b.op(e, &[x, r]);
        let f = b.finish();
        let live = analyze(&f);
        let crossing = live_across_calls(&f, &live);
        assert!(crossing.contains(x.index()));
        assert!(!crossing.contains(arg.index()));
        // The call result is defined, not live across its own call.
        assert!(!crossing.contains(r.index()));
    }
}
