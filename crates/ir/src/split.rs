//! Live-range splitting: from spill-everywhere to load-store optimisation.
//!
//! Section 2.1 of the paper observes that the Appel–George "a variable
//! is in memory or in register but not both" formulation *is* spill
//! everywhere on a program whose **live ranges are split at every use**
//! (item 3), and that a spill-everywhere solution serves as an oracle
//! for the finer-grained load-store optimisation problem (item 4).
//!
//! The split rewrite performs that transformation on a chosen set of
//! values: before every use of such a value a fresh [`Opcode::Copy`] is
//! inserted and the use is rewritten to the copy. Each original value
//! then carries only the *connector* range (def to last copy); each
//! copy is a short single-use range. Spilling a connector while keeping
//! its copies in registers is exactly "store once, reload before each
//! use" — the allocator now decides load-store placement through
//! ordinary spill-everywhere choices. The inserted copies are φ-free,
//! so strict SSA (and hence chordality of the interference graph) is
//! preserved.
//!
//! [`split_pressure_ranges`] is the entry point, used by the pipeline's
//! escalation tier: it splits only the values that are live across the
//! boundary of an **over-pressure** block (`block_max_live > R`), so
//! the long ranges binding a stall point become several short,
//! independently-spillable ones while the rest of the function keeps
//! its original ranges (and its original spill costs).

#![allow(clippy::needless_range_loop)] // parallel arrays indexed by block id

use crate::cfg::{Function, Instr, Opcode, Value};
use crate::liveness::Liveness;
use crate::scratch::AnalysisScratch;
use lra_graph::BitSet;

/// Result of a live-range split ([`split_pressure_ranges`]).
#[derive(Clone, Debug)]
pub struct SplitFunction {
    /// The rewritten function.
    pub function: Function,
    /// For every new value: the original value it was split from
    /// (identity for the originals). Indexed by value.
    pub origin: Vec<Value>,
    /// Number of copies inserted.
    pub copies: usize,
}

/// Splits the live ranges binding a stall point: every use of a value
/// that is live into or out of a block whose maximum pressure exceeds
/// `r` gets a fresh copy (see the [module docs](self)). Values that
/// never cross an over-pressure boundary are left whole.
///
/// Returns `None` when no block exceeds `r` (nothing is stalled) or
/// when the over-pressure ranges have no splittable use — the caller
/// then has nothing to escalate. `scratch` supplies the recycled
/// block-edit buffers; reusing it never changes the output.
///
/// # Examples
///
/// ```
/// use lra_ir::builder::FunctionBuilder;
/// use lra_ir::{liveness, split, AnalysisScratch};
///
/// let mut b = FunctionBuilder::new("f");
/// let e = b.entry_block();
/// let x = b.op(e, &[]);
/// let y = b.op(e, &[]);
/// b.op(e, &[x, y]);
/// let f = b.finish();
/// let live = liveness::analyze(&f);
/// let scratch = &mut AnalysisScratch::new();
/// assert!(split::split_pressure_ranges(&f, &live, 8, scratch).is_none()); // fits
/// ```
pub fn split_pressure_ranges(
    f: &Function,
    live: &Liveness,
    r: usize,
    scratch: &mut AnalysisScratch,
) -> Option<SplitFunction> {
    let nv = f.value_count as usize;
    let mut hot = BitSet::new(nv);
    let mut any_hot_block = false;
    for b in 0..f.block_count() {
        if live.block_max_live[b] > r {
            any_hot_block = true;
            hot.union_with(&live.live_in[b]);
            hot.union_with(&live.live_out[b]);
        }
    }
    if !any_hot_block || hot.is_empty() {
        return None;
    }
    let split = split_uses_where(f, |v| hot.contains(v), scratch);
    (split.copies > 0).then_some(split)
}

/// The split rewrite: one fresh copy before every use of a value
/// selected by `want`. φ uses are split at the tail of the incoming
/// predecessor (the same placement spill reloads would take). The
/// operand of an existing copy is left alone: a copy is already a
/// split point.
pub(crate) fn split_uses_where(
    f: &Function,
    want: impl Fn(usize) -> bool,
    scratch: &mut AnalysisScratch,
) -> SplitFunction {
    let mut next = f.value_count;
    let mut origin: Vec<Value> = (0..f.value_count).map(Value).collect();
    let mut copies = 0usize;
    let mut fresh = |of: Value, origin: &mut Vec<Value>| {
        let v = Value(next);
        next += 1;
        origin.push(of);
        v
    };

    let n = f.block_count();
    let edits = scratch.edits_for(n);

    for b in 0..n {
        for instr in &f.blocks[b].instrs {
            let mut instr = instr.clone();
            match instr.opcode {
                Opcode::Phi => {
                    for (i, u) in instr.uses.iter_mut().enumerate() {
                        if !want(u.index()) {
                            continue;
                        }
                        let s = fresh(origin[u.index()], &mut origin);
                        copies += 1;
                        let p = f.blocks[b].preds[i];
                        edits.tails[p.index()].push(Instr::new(Opcode::Copy, Some(s), vec![*u]));
                        *u = s;
                    }
                }
                Opcode::Copy => {} // already a split point
                _ => {
                    for u in instr.uses.iter_mut() {
                        if !want(u.index()) {
                            continue;
                        }
                        let s = fresh(origin[u.index()], &mut origin);
                        copies += 1;
                        edits.bodies[b].push(Instr::new(Opcode::Copy, Some(s), vec![*u]));
                        *u = s;
                    }
                }
            }
            edits.bodies[b].push(instr);
        }
    }

    let blocks = edits.finish(f);
    let mut function = Function {
        name: format!("{}.split", f.name),
        blocks,
        entry: f.entry,
        value_count: next,
        params: f.params.clone(),
    };
    function.recompute_preds();
    debug_assert_eq!(function.validate(), Ok(()));
    SplitFunction {
        function,
        origin,
        copies,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::genprog::{random_ssa_function, validate_strict_ssa, SsaConfig};
    use crate::{interference, liveness};
    use lra_graph::peo;
    use rand::SeedableRng;

    #[test]
    fn splits_every_use() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        b.op(e, &[x]);
        b.op(e, &[x]);
        let f = b.finish();
        let s = split_uses_where(&f, |_| true, &mut AnalysisScratch::new());
        assert_eq!(s.copies, 2);
        assert_eq!(s.function.value_count, f.value_count + 2);
        validate_strict_ssa(&s.function).expect("still strict SSA");
        // Every split value maps back to x.
        for v in f.value_count..s.function.value_count {
            assert_eq!(s.origin[v as usize], x);
        }
    }

    #[test]
    fn phi_uses_split_in_predecessor() {
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
        let s = split_uses_where(&f, |_| true, &mut AnalysisScratch::new());
        validate_strict_ssa(&s.function).expect("strict SSA");
        // The copy for xl sits at the end of block l.
        let last = s.function.blocks[l.index()].instrs.last().unwrap();
        assert_eq!(last.opcode, Opcode::Copy);
        assert_eq!(last.uses, vec![xl]);
    }

    #[test]
    fn split_functions_stay_chordal() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        for _ in 0..8 {
            let f = random_ssa_function(&mut rng, &SsaConfig::default(), "f");
            let s = split_uses_where(&f, |_| true, &mut AnalysisScratch::new());
            validate_strict_ssa(&s.function).expect("strict SSA");
            let live = liveness::analyze(&s.function);
            let g = interference::interference_graph(&s.function, &live);
            assert!(peo::is_chordal(&g));
        }
    }

    #[test]
    fn splitting_cannot_raise_pressure_beyond_one_instruction() {
        // Splitting shortens the original ranges, but the copies it
        // inserts for one instruction's operands are simultaneously
        // live right before that instruction (and φ copies stack at
        // block ends), so MaxLive can rise by a small constant bounded
        // by the operand count of a single instruction — never by a
        // function-sized amount. The generator emits at most two
        // operands per instruction.
        for seed in [1u64, 3, 9, 16, 29] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let cfg = SsaConfig {
                target_instrs: 120,
                liveness_window: 20,
                ..SsaConfig::default()
            };
            let f = random_ssa_function(&mut rng, &cfg, "f");
            let before = liveness::analyze(&f).max_live;
            let s = split_uses_where(&f, |_| true, &mut AnalysisScratch::new());
            let after = liveness::analyze(&s.function).max_live;
            assert!(
                after <= before + 2,
                "seed {seed}: splitting raised MaxLive {before} -> {after}"
            );
        }
    }

    #[test]
    fn pressure_split_is_a_no_op_below_the_threshold() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let y = b.op(e, &[]);
        b.op(e, &[x, y]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let scratch = &mut AnalysisScratch::new();
        assert!(split_pressure_ranges(&f, &live, 8, scratch).is_none());
        assert!(split_pressure_ranges(&f, &live, live.max_live, scratch).is_none());
    }

    #[test]
    fn pressure_split_targets_only_over_pressure_ranges() {
        // Block 0 is over-pressure at R = 2 (three long ranges cross
        // into block 1); block 2's private value stays unsplit.
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let mid = b.block();
        let tail = b.block();
        b.set_succs(e, &[mid]);
        b.set_succs(mid, &[tail]);
        let vs: Vec<_> = (0..3).map(|_| b.op(e, &[])).collect();
        b.op(mid, &[vs[0]]);
        b.op(mid, &[vs[1]]);
        let local = b.op(tail, &[vs[2]]);
        b.op(tail, &[local]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let s = split_pressure_ranges(&f, &live, 2, &mut AnalysisScratch::new())
            .expect("three ranges exceed R=2");
        // The three hot values' uses are split; `local` (born and dead
        // in the fitting tail block) is not.
        assert_eq!(s.copies, 3);
        for v in f.value_count..s.function.value_count {
            assert_ne!(s.origin[v as usize], local, "local range must stay whole");
        }
        validate_strict_ssa(&s.function).expect("still strict SSA");
    }

    #[test]
    fn pressure_split_preserves_chordality_on_random_ssa() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        for _ in 0..6 {
            let f = random_ssa_function(&mut rng, &SsaConfig::default(), "f");
            let live = liveness::analyze(&f);
            let Some(s) = split_pressure_ranges(&f, &live, 3, &mut AnalysisScratch::new()) else {
                continue;
            };
            validate_strict_ssa(&s.function).expect("strict SSA");
            let live2 = liveness::analyze(&s.function);
            let g = interference::interference_graph(&s.function, &live2);
            assert!(peo::is_chordal(&g));
        }
    }

    #[test]
    fn existing_copies_are_not_resplit() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let c = b.copy(e, x);
        b.op(e, &[c]);
        let f = b.finish();
        let s = split_uses_where(&f, |_| true, &mut AnalysisScratch::new());
        // Only the final use is split; the copy's own use stays.
        assert_eq!(s.copies, 1);
    }
}
