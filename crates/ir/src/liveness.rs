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
//!
//! There is one solver. The spill loop runs it from scratch on every
//! rewritten function ([`crate::FunctionAnalysis::after_spill`]).

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
/// problem. `None` entries stand for the empty set (`no_keys`), so a
/// block with no φ pays for no φ sets.
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
    /// Sets are materialised per block only when a scan touches them.
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

    /// Scans `block` of `f` into the local sets.
    fn scan_block(&mut self, f: &Function, b: usize) {
        let nv = self.nv;
        fn materialize(v: &mut [Option<BitSet>], b: usize, nv: usize) -> &mut BitSet {
            v[b].get_or_insert_with(|| BitSet::new(nv))
        }
        let block = &f.blocks[b];
        for instr in block.instrs.iter().rev() {
            if instr.opcode == Opcode::Phi {
                if let Some(d) = instr.def {
                    materialize(&mut self.phi_defs, b, nv).insert(d.index());
                }
                continue;
            }
            if let Some(d) = instr.def {
                if let Some(ue) = self.ue[b].as_mut() {
                    ue.remove(d.index());
                }
                materialize(&mut self.defs, b, nv).insert(d.index());
            }
            for u in &instr.uses {
                materialize(&mut self.ue, b, nv).insert(u.index());
            }
        }
        for instr in block.phis() {
            for (i, u) in instr.uses.iter().enumerate() {
                let p = block.preds[i];
                materialize(&mut self.phi_out, p.index(), nv).insert(u.index());
            }
        }
    }
}

/// Solves the backward dataflow equations with a worklist seeded in
/// reverse postorder, so the stack pops blocks in postorder, the fast
/// order for backward problems. Only reachable blocks are processed;
/// unreachable ones keep empty sets. Returns `(live_in, live_out)`.
fn solve(
    f: &Function,
    local: &LocalSets,
    scratch: &mut AnalysisScratch,
) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = f.block_count();
    let mut live_in = vec![BitSet::new(local.nv); n];
    let mut live_out = vec![BitSet::new(local.nv); n];
    let mut reachable = vec![false; n];
    let on_list = &mut scratch.on_list;
    on_list.clear();
    on_list.resize(n, false);
    let stack = &mut scratch.stack;
    stack.clear();
    for b in f.reverse_postorder() {
        let b = b.index();
        reachable[b] = true;
        on_list[b] = true;
        stack.push(b);
    }
    // One buffer for every set difference below, so an iteration
    // allocates nothing.
    let mut tmp = BitSet::new(local.nv);
    while let Some(bi) = stack.pop() {
        on_list[bi] = false;
        // live_out(b) = Σ_succ (live_in(s) \ phi_defs(s)) ∪ phi_out(b)
        let out = &mut live_out[bi];
        out.copy_from(local.phi_out(bi));
        for &s in &f.blocks[bi].succs {
            tmp.copy_from(&live_in[s.index()]);
            tmp.difference_with(local.phi_defs(s.index()));
            out.union_with(&tmp);
        }
        // live_in(b) = phi_defs ∪ ue ∪ (out \ defs)
        tmp.copy_from(out);
        tmp.difference_with(local.defs(bi));
        tmp.union_with(local.ue(bi));
        tmp.union_with(local.phi_defs(bi));
        if tmp != live_in[bi] {
            live_in[bi].copy_from(&tmp);
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
    (live_in, live_out)
}

/// Backward pressure sweep of one block: the maximum live-set size over
/// its program points. `live` is caller-provided sweep scratch (reset
/// to the value-space capacity); its contents on entry are ignored.
/// The live count is kept from what `insert` and `remove` report, so
/// the sweep never counts the set's bits.
fn block_pressure(
    f: &Function,
    b: usize,
    live_in: &BitSet,
    live_out: &BitSet,
    live: &mut BitSet,
) -> usize {
    live.copy_from(live_out);
    let mut count = live.len();
    let mut local_max = count;
    for instr in f.blocks[b].instrs.iter().rev() {
        if instr.opcode == Opcode::Phi {
            // φ defs are conceptually parallel at block entry; they
            // are all in live_in already. Stop the sweep here.
            break;
        }
        if let Some(d) = instr.def {
            count -= usize::from(live.remove(d.index()));
        }
        for u in &instr.uses {
            count += usize::from(live.insert(u.index()));
        }
        local_max = local_max.max(count);
    }
    local_max.max(live_in.len())
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
        local.scan_block(f, b);
    }
    let (live_in, live_out) = solve(f, &local, scratch);
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

    /// Per-block pressure by counting the live set's bits at every
    /// program point: the oracle for the counted sweep.
    fn popcount_pressure(f: &Function, live: &Liveness) -> Vec<usize> {
        (0..f.block_count())
            .map(|b| {
                let mut set = live.live_out[b].clone();
                let mut max = set.len();
                for instr in f.blocks[b].instrs.iter().rev() {
                    if instr.opcode == Opcode::Phi {
                        break;
                    }
                    if let Some(d) = instr.def {
                        set.remove(d.index());
                    }
                    for u in &instr.uses {
                        set.insert(u.index());
                    }
                    max = max.max(set.len());
                }
                max.max(live.live_in[b].len())
            })
            .collect()
    }

    #[test]
    fn counted_pressure_equals_a_popcount_sweep() {
        use crate::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
        use crate::spill_code::rewrite_spill_code;
        use rand::{Rng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut f = if seed % 2 == 0 {
                random_ssa_function(&mut rng, &SsaConfig::default(), "ssa")
            } else {
                random_jit_function(&mut rng, &JitConfig::default(), "jit")
            };
            let s = &mut AnalysisScratch::new();
            for round in 0..3 {
                let live = analyze_in(&f, s);
                let expected = popcount_pressure(&f, &live);
                assert_eq!(live.block_max_live, expected, "seed {seed} round {round}");
                assert_eq!(live.max_live, expected.iter().copied().max().unwrap_or(0));
                let spilled = BitSet::from_iter_with_capacity(
                    f.value_count as usize,
                    (0..f.value_count as usize).filter(|_| rng.gen_range(0..4) == 0),
                );
                f = rewrite_spill_code(&f, &spilled, None, s).function;
            }
        }
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
