//! Spill-code insertion: the one rewrite behind every spill round.
//!
//! Given a set of spilled values, [`rewrite_spill_code`] rewrites the
//! function so that each spilled value lives in memory: a
//! [`Opcode::Store`] is inserted after its definition and a fresh
//! [`Opcode::Load`] value is inserted before each use (φ uses reload at
//! the end of the incoming predecessor). The reload values are
//! short-lived, which is how spilling lowers the register pressure —
//! the paper's §4.3 discusses exactly this residual pressure of
//! reloads.
//!
//! Two options refine that spill-everywhere rewrite:
//!
//! * `share_reloads` applies the basic load-store optimisation of
//!   §2.1: within a basic block, consecutive uses of the same spilled
//!   value share one reload ("if the variable can stay in a register
//!   between two consecutive uses, a load is saved"), and uses in the
//!   defining block read the defined value directly. Sound for SSA
//!   inputs because the spill slot of an SSA value is written exactly
//!   once.
//! * a [`RematTable`] lets the escalation tier rematerialize instead of
//!   spill: values classified [`RematClass::Const`](crate::remat::RematClass)
//!   are re-issued before each use with no store, and evicted
//!   slot-backed reloads re-issue their load with no second store (see
//!   [`crate::remat`]). Without a table every value is treated as
//!   `RematClass::Spill`.

#![allow(clippy::needless_range_loop)] // parallel arrays indexed by block id

use crate::cfg::{Function, Instr, Opcode, Value};
use crate::remat::RematTable;
use crate::scratch::AnalysisScratch;
use lra_graph::BitSet;

/// Statistics of a spill rewrite.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Stores inserted (one per definition of a spilled value that is
    /// not rematerializable).
    pub stores: usize,
    /// Reloads inserted (one per use of a spilled value, fewer with
    /// shared reloads).
    pub loads: usize,
    /// Materializations inserted instead of reloads (always 0 without a
    /// [`RematTable`]).
    pub remats: usize,
}

/// What a spill rewrite touched, in terms the incremental re-analysis
/// ([`crate::liveness::analyze_incremental`]) consumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpillDelta {
    /// Blocks whose instruction list differs from the input function
    /// (a use was remapped, or a load/store was inserted). Capacity =
    /// block count.
    pub dirty_blocks: BitSet,
    /// Values whose live ranges may have changed: the spilled originals
    /// plus every freshly inserted reload. Every occurrence of a
    /// changed value sits inside a dirty block. Capacity = the
    /// **rewritten** function's `value_count`.
    pub changed_values: BitSet,
}

impl SpillDelta {
    fn new(f: &Function, spilled: &BitSet, new_value_count: u32, dirty_blocks: BitSet) -> Self {
        let changed_values = BitSet::from_iter_with_capacity(
            new_value_count as usize,
            spilled
                .iter()
                .chain(f.value_count as usize..new_value_count as usize),
        );
        SpillDelta {
            dirty_blocks,
            changed_values,
        }
    }
}

/// The full result of a spill rewrite: the function, the insertion
/// statistics, the loads saved by reload sharing, and the
/// [`SpillDelta`] feeding incremental re-analysis.
#[derive(Clone, Debug)]
pub struct SpillRewrite {
    /// The rewritten function.
    pub function: Function,
    /// Stores/loads/materializations inserted.
    pub stats: SpillStats,
    /// Reloads (and materializations) saved relative to plain spill
    /// everywhere by the §2.1 load-store optimisation; always 0 without
    /// `share_reloads`.
    pub saved_loads: usize,
    /// Which blocks and values the rewrite touched.
    pub delta: SpillDelta,
}

/// Rewrites `f`, spilling every value in `spilled`, and reports which
/// blocks and values were touched so the next analysis round can be
/// incremental. See the [module docs](self) for the two options.
///
/// With `remat` set, spilled [`RematClass::Const`](crate::remat::RematClass)
/// values are materialized before each use instead of stored and
/// reloaded. `table` must cover exactly the values of `f`; on return it
/// covers the rewritten function (clones inherit their origin's class,
/// fresh reloads become `RematClass::Reload` — their slot is written
/// once, so a later eviction re-issues the load instead of storing
/// again), so the caller can feed the result straight into the next
/// spill round. With `remat` unset, each reload is a plain
/// [`Opcode::Load`] and every spilled definition is stored.
///
/// The rewritten function is in SSA form again if `f` was (each reload
/// is a fresh value). `scratch` supplies the recycled block-edit
/// buffers; reusing it never changes the output.
///
/// # Panics
///
/// Panics if `remat` is set and its table's length differs from
/// `f.value_count`.
pub fn rewrite_spill_code(
    f: &Function,
    spilled: &BitSet,
    mut remat: Option<&mut RematTable>,
    share_reloads: bool,
    scratch: &mut AnalysisScratch,
) -> SpillRewrite {
    if let Some(table) = &remat {
        assert_eq!(
            table.len(),
            f.value_count as usize,
            "remat table out of step with the function"
        );
    }
    let mut next_value = f.value_count;
    let mut stats = SpillStats::default();
    let mut saved = 0usize;

    let n = f.block_count();
    let edits = scratch.edits_for(n);
    let mut dirty = BitSet::new(n);

    // One fresh value per reload *or* materialization, registered in
    // the table as it is created so value indices stay in lockstep.
    let mut fresh = |remat: &mut Option<&mut RematTable>, stats: &mut SpillStats, of: Value| {
        let v = Value(next_value);
        next_value += 1;
        let instr = match remat {
            Some(table) => table.replacement(v, of, stats),
            None => {
                stats.loads += 1;
                Instr::new(Opcode::Load, Some(v), vec![])
            }
        };
        (v, instr)
    };

    for b in 0..n {
        // Spilled value -> replacement already materialised in this
        // block. Only the shared-reload path touches the map.
        if share_reloads {
            edits.avail.clear();
        }
        // Stores for spilled φ defs wait until after the whole φ run
        // (φs are parallel and must stay first in the block).
        for instr in &f.blocks[b].instrs {
            let mut instr = instr.clone();
            let is_phi = instr.opcode == Opcode::Phi;
            if is_phi {
                for (i, u) in instr.uses.iter_mut().enumerate() {
                    if spilled.contains(u.index()) {
                        let p = f.blocks[b].preds[i];
                        let (v, repl) = fresh(&mut remat, &mut stats, *u);
                        edits.tails[p.index()].push(repl);
                        *u = v;
                        dirty.insert(b);
                        dirty.insert(p.index());
                    }
                }
            } else {
                edits.flush_phi_stores(b);
                for u in instr.uses.iter_mut() {
                    if !spilled.contains(u.index()) {
                        continue;
                    }
                    dirty.insert(b);
                    if let Some(&v) = share_reloads.then(|| edits.avail.get(u)).flatten() {
                        saved += 1;
                        *u = v;
                        continue;
                    }
                    let (v, repl) = fresh(&mut remat, &mut stats, *u);
                    edits.bodies[b].push(repl);
                    if share_reloads {
                        edits.avail.insert(*u, v);
                    }
                    *u = v;
                }
            }
            let def = instr.def.filter(|d| spilled.contains(d.index()));
            if let Some(d) = def {
                // A spilled def is a changed value, so its block is
                // dirty even when a rematerializable def is not stored.
                dirty.insert(b);
                if share_reloads {
                    // The freshly computed value is itself usable until
                    // the end of the block.
                    edits.avail.insert(d, d);
                }
            }
            edits.bodies[b].push(instr);
            // Rematerializable values are never stored: their spill
            // slot is the defining instruction itself.
            let stored = def.filter(|d| !remat.as_ref().is_some_and(|t| t.is_remat(d.index())));
            if let Some(d) = stored {
                stats.stores += 1;
                let store = Instr::new(Opcode::Store, None, vec![d]);
                if is_phi {
                    edits.phi_stores.push(store);
                } else {
                    edits.bodies[b].push(store);
                }
            }
        }
        edits.flush_phi_stores(b);
    }

    let blocks = edits.finish(f);
    let mut out = Function {
        name: f.name.clone(),
        blocks,
        entry: f.entry,
        value_count: next_value,
        params: f.params.clone(),
    };
    out.recompute_preds();
    debug_assert_eq!(out.validate(), Ok(()));
    SpillRewrite {
        stats,
        saved_loads: saved,
        delta: SpillDelta::new(f, spilled, next_value, dirty),
        function: out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::liveness;

    /// The rewrite without a remat table, through a fresh scratch.
    fn rewrite(f: &Function, spilled: &BitSet, share_reloads: bool) -> SpillRewrite {
        rewrite_spill_code(f, spilled, None, share_reloads, &mut AnalysisScratch::new())
    }

    /// Runs `check` on the rewrite of `spilled` under every
    /// configuration: `remat` ∈ {None, Some(fresh table)} ×
    /// `share_reloads` ∈ {false, true}.
    fn each_config(f: &Function, spilled: &BitSet, mut check: impl FnMut(bool, SpillRewrite)) {
        for with_table in [false, true] {
            for share_reloads in [false, true] {
                let mut table = with_table.then(|| RematTable::compute(f));
                let scratch = &mut AnalysisScratch::new();
                let rw = rewrite_spill_code(f, spilled, table.as_mut(), share_reloads, scratch);
                check(share_reloads, rw);
            }
        }
    }

    /// Five values all live at once; spilling three of them drops the
    /// pressure to roughly two plus a reload.
    #[test]
    fn spilling_lowers_pressure() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let vs: Vec<Value> = (0..5).map(|_| b.op(e, &[])).collect();
        // Use them one per instruction so reloads stay short-lived.
        for v in &vs {
            b.op(e, &[*v]);
        }
        let f = b.finish();
        assert_eq!(liveness::analyze(&f).max_live, 5);

        let spilled = BitSet::from_iter_with_capacity(
            f.value_count as usize,
            vs[..3].iter().map(|v| v.index()),
        );
        let rw = rewrite(&f, &spilled, false);
        assert_eq!(rw.stats.stores, 3);
        assert_eq!(rw.stats.loads, 3);
        let live_after = liveness::analyze(&rw.function).max_live;
        assert!(live_after < 5, "pressure {live_after} should drop below 5");
    }

    #[test]
    fn reloads_are_fresh_single_use_values() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        b.op(e, &[x]);
        b.op(e, &[x]);
        let f = b.finish();
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [x.index()]);
        let rw = rewrite(&f, &spilled, false);
        assert_eq!(rw.stats.stores, 1);
        assert_eq!(rw.stats.loads, 2);
        assert_eq!(rw.function.value_count, f.value_count + 2);
        // x itself is no longer used by any non-store instruction.
        for blk in &rw.function.blocks {
            for instr in &blk.instrs {
                if instr.opcode != Opcode::Store {
                    assert!(!instr.uses.contains(&x));
                }
            }
        }
    }

    #[test]
    fn phi_use_reloads_in_predecessor() {
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
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [xl.index()]);
        let rw = rewrite(&f, &spilled, false);
        assert_eq!(rw.stats.loads, 1);
        // The reload lands at the end of `l`, not in the join block.
        let last_in_l = rw.function.blocks[l.index()].instrs.last().unwrap();
        assert_eq!(last_in_l.opcode, Opcode::Load);
        assert!(rw.function.validate().is_ok());
    }

    #[test]
    fn spilling_nothing_is_identity_shaped() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        b.op(e, &[x]);
        let f = b.finish();
        let rw = rewrite(&f, &BitSet::new(f.value_count as usize), false);
        assert_eq!(rw.stats, SpillStats::default());
        assert_eq!(rw.function.instr_count(), f.instr_count());
        assert_eq!(rw.function.value_count, f.value_count);
    }

    #[test]
    fn optimized_spilling_shares_reloads_within_a_block() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let next = b.block();
        b.set_succs(e, &[next]);
        let x = b.op(e, &[]);
        b.op(e, &[x]);
        b.op(e, &[x]); // same block: reload shared
        b.op(next, &[x]); // new block: fresh reload
        let f = b.finish();
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [x.index()]);

        assert_eq!(rewrite(&f, &spilled, false).stats.loads, 3);

        let rw = rewrite(&f, &spilled, true);
        // Uses in the defining block reuse x's register directly; the
        // second block needs the only real reload.
        assert_eq!(rw.stats.loads, 1);
        assert_eq!(rw.saved_loads, 2);
        assert!(rw.function.validate().is_ok());
    }

    #[test]
    fn optimized_spilling_reuses_the_defining_value() {
        // Uses of a spilled value in its *defining* block need no
        // reload at all: the value is still in its register.
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        b.op(e, &[x]);
        b.op(e, &[x]);
        let f = b.finish();
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [x.index()]);
        let rw = rewrite(&f, &spilled, true);
        assert_eq!(rw.stats.loads, 0);
        assert_eq!(rw.stats.stores, 1);
        assert_eq!(rw.saved_loads, 2);
        assert!(rw.function.validate().is_ok());
    }

    #[test]
    fn optimized_never_inserts_more_than_plain() {
        use crate::genprog::{random_ssa_function, SsaConfig};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        let f = random_ssa_function(&mut rng, &SsaConfig::default(), "f");
        // Spill every other value.
        let spilled = BitSet::from_iter_with_capacity(
            f.value_count as usize,
            (0..f.value_count as usize).filter(|v| v % 2 == 0),
        );
        // Per table configuration, the unshared rewrite runs first and
        // the shared one must insert the same stores and account for
        // every unshared reload or materialization as inserted or saved.
        let mut plain = SpillStats::default();
        each_config(&f, &spilled, |share_reloads, rw| {
            assert!(rw.function.validate().is_ok());
            if !share_reloads {
                assert_eq!(rw.saved_loads, 0);
                plain = rw.stats;
                return;
            }
            assert_eq!(rw.stats.stores, plain.stores);
            assert_eq!(
                rw.stats.loads + rw.stats.remats + rw.saved_loads,
                plain.loads + plain.remats
            );
        });
    }

    #[test]
    fn delta_reports_dirty_blocks_and_changed_values() {
        // Diamond with a φ: spilling a φ use dirties the join block
        // (the φ's use list changed) AND the predecessor that received
        // the tail reload — and nothing else.
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
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [xl.index()]);
        let rw = rewrite(&f, &spilled, false);
        let dirty: Vec<usize> = rw.delta.dirty_blocks.iter().collect();
        assert_eq!(dirty, vec![l.index(), j.index()]);
        // Changed values: the spilled original plus the one reload.
        assert_eq!(rw.function.value_count, f.value_count + 1);
        assert_eq!(
            rw.delta.changed_values.iter().collect::<Vec<_>>(),
            vec![xl.index(), f.value_count as usize]
        );
        assert_eq!(
            rw.delta.changed_values.capacity(),
            rw.function.value_count as usize
        );
    }

    #[test]
    fn delta_every_changed_value_occurrence_is_in_a_dirty_block() {
        // The contract analyze_incremental relies on, checked over
        // random SSA and JIT functions and spill sets for every
        // rewriter configuration (constants included, so the remat
        // configurations materialize as well as reload).
        use crate::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let functions = [
            random_jit_function(&mut rng, &JitConfig::default(), "jit"),
            random_ssa_function(&mut rng, &SsaConfig::default(), "ssa"),
        ];
        for f in &functions {
            let spilled = BitSet::from_iter_with_capacity(
                f.value_count as usize,
                (0..f.value_count as usize).filter(|v| v % 3 == 0),
            );
            each_config(f, &spilled, |_, rw| {
                for (b, blk) in rw.function.blocks.iter().enumerate() {
                    if rw.delta.dirty_blocks.contains(b) {
                        continue;
                    }
                    // Clean block: instruction list byte-identical, no
                    // occurrence of any changed value.
                    assert_eq!(blk.instrs, f.blocks[b].instrs, "block {b} silently changed");
                    for instr in &blk.instrs {
                        for v in instr.def.iter().chain(instr.uses.iter()) {
                            assert!(
                                !rw.delta.changed_values.contains(v.index()),
                                "changed value {v} in clean block {b}"
                            );
                        }
                    }
                }
            });
        }
    }

    #[test]
    fn spilling_everything_leaves_single_instruction_pressure() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let vs: Vec<Value> = (0..6).map(|_| b.op(e, &[])).collect();
        b.op(e, &vs); // one instruction using all six at once
        let f = b.finish();
        let all =
            BitSet::from_iter_with_capacity(f.value_count as usize, vs.iter().map(|v| v.index()));
        // All six reloads feed one instruction, so the reloads themselves
        // are simultaneously live: pressure = 6 at that point, but the
        // original long ranges are gone elsewhere.
        let ml = liveness::analyze(&rewrite(&f, &all, false).function).max_live;
        assert!(ml >= 6); // spill-everywhere cannot fix single-instruction pressure
    }
}
