//! Static spill-cost estimation.
//!
//! Following the paper's methodology, the spill cost of a variable is
//! computed "based on the basic blocks' frequency and on the number of
//! accesses to the variables within the basic blocks": spilling a
//! variable everywhere costs one store after its definition plus one
//! load before each use, each weighted by the static frequency of the
//! enclosing block and by the target's memory-access costs. Values live
//! across calls receive the ABI multiplier (they would otherwise occupy
//! a callee-saved register).

#![allow(clippy::needless_range_loop)] // parallel arrays indexed by block id

use crate::cfg::{Function, Opcode};
use crate::liveness::{self, Liveness};
use crate::loops::LoopInfo;
use lra_graph::Cost;
use lra_targets::Target;

/// Computes the spill-everywhere cost of each value of `f`.
///
/// `cost[v] = Σ_defs store × freq(block) + Σ_uses load × freq(block)`,
/// where φ uses count at the frequency of the incoming predecessor,
/// multiplied by the target's call-crossing penalty when `v` is live
/// across a call. Every value gets cost ≥ 1 so that spilling is never
/// free.
pub fn spill_costs(f: &Function, live: &Liveness, loops: &LoopInfo, target: &Target) -> Vec<Cost> {
    let nv = f.value_count as usize;
    let mut cost: Vec<Cost> = vec![0; nv];

    for b in f.block_ids() {
        let freq = loops.frequency(b);
        let block = f.block(b);
        for instr in &block.instrs {
            if let Some(d) = instr.def {
                cost[d.index()] =
                    cost[d.index()].saturating_add(target.store_cost().saturating_mul(freq));
            }
            if instr.opcode == Opcode::Phi {
                for (i, u) in instr.uses.iter().enumerate() {
                    // A reload for a φ use is inserted at the end of the
                    // corresponding predecessor.
                    let pf = loops.frequency(block.preds[i]);
                    cost[u.index()] =
                        cost[u.index()].saturating_add(target.load_cost().saturating_mul(pf));
                }
            } else {
                for u in &instr.uses {
                    cost[u.index()] =
                        cost[u.index()].saturating_add(target.load_cost().saturating_mul(freq));
                }
            }
        }
    }

    // Parameters arrive in registers; spilling one costs a store at
    // entry frequency.
    for p in &f.params {
        cost[p.index()] = cost[p.index()].saturating_add(target.store_cost());
    }

    let crossing = liveness::live_across_calls(f, live);
    for v in 0..nv {
        if crossing.contains(v) {
            cost[v] = cost[v].saturating_mul(target.call_crossing_multiplier());
        }
        cost[v] = cost[v].max(1);
    }
    cost
}

/// [`spill_costs`] with rematerialization discounts — the vector fed
/// to the allocator as *guidance*: a value the `remat` table
/// classifies [`RematClass::Const`](crate::remat::RematClass) never
/// touches memory when evicted, so its cost is one
/// [`Target::remat_cost`] per use (φ uses at the predecessor's
/// frequency) — no store at the definition and **no call-crossing
/// multiplier**, because a constant needs no callee-saved register:
/// it is simply re-issued after the call.
///
/// [`RematClass::Reload`](crate::remat::RematClass) values keep their
/// full [`spill_costs`] estimate here, deliberately: a reload sits
/// directly before its use, so evicting it cannot lower pressure —
/// its re-issue lands in the very same place. Discounting reloads
/// steers the allocator into those futile evictions and the spill
/// loop stops converging; the cheap re-issue is instead reflected in
/// the *accounting* vector, [`spill_insert_costs`]. Non-remat values
/// keep their [`spill_costs`] estimate unchanged.
pub fn spill_costs_with_remat(
    f: &Function,
    live: &Liveness,
    loops: &LoopInfo,
    target: &Target,
    remat: &crate::remat::RematTable,
) -> Vec<Cost> {
    use crate::remat::RematClass;
    let mut cost = discounted_costs(f, live, loops, target, |v| match remat.class(v) {
        RematClass::Const => Some(target.remat_cost()),
        RematClass::Spill | RematClass::Reload => None,
    });
    // Evicting a point range — a split copy or a reload,
    // which lives only from the instruction directly before its single
    // use — cannot lower pressure: its replacement re-issue occupies
    // the very same program point. Steer allocators away from those
    // futile evictions and towards ranges whose eviction actually
    // shortens something.
    let nv = f.value_count as usize;
    let mut defs = vec![0u32; nv];
    let mut uses = vec![0u32; nv];
    let mut point_def = vec![false; nv];
    for block in &f.blocks {
        for instr in &block.instrs {
            if let Some(d) = instr.def {
                defs[d.index()] += 1;
                point_def[d.index()] = matches!(instr.opcode, Opcode::Copy | Opcode::Load);
            }
            for u in &instr.uses {
                uses[u.index()] += 1;
            }
        }
    }
    for v in 0..nv {
        if point_def[v] && defs[v] == 1 && uses[v] == 1 {
            cost[v] = cost[v].saturating_mul(POINT_RANGE_PENALTY);
        }
    }
    cost
}

/// Guidance multiplier applied by [`spill_costs_with_remat`] to
/// single-def single-use values defined by a copy or a load: their
/// live range spans one instruction, so evicting them cannot lower
/// pressure and the spill budget is better spent on real ranges.
const POINT_RANGE_PENALTY: Cost = 16;

/// The cost of the spill code the remat-aware rewrite **actually
/// inserts** when a value is evicted — the per-round accounting
/// vector:
///
/// * [`RematClass::Spill`](crate::remat::RematClass): identical to
///   [`spill_costs`] (a store plus a load per use is exactly what the
///   rewrite emits; the call-crossing multiplier stays as the same
///   callee-saved proxy the base loop charges),
/// * [`RematClass::Const`](crate::remat::RematClass): one
///   [`Target::remat_cost`] per use — the eviction is rewritten as
///   re-issues of the defining instruction, no memory traffic,
/// * [`RematClass::Reload`](crate::remat::RematClass): one
///   [`Target::load_cost`] per use — the eviction re-issues the load
///   from the origin's already-written slot, so there is no second
///   store and no callee-saved register across calls.
///
/// [`spill_costs_with_remat`] is the matching *guidance* vector; see
/// its docs for why the two deliberately differ on reloads.
pub fn spill_insert_costs(
    f: &Function,
    live: &Liveness,
    loops: &LoopInfo,
    target: &Target,
    remat: &crate::remat::RematTable,
) -> Vec<Cost> {
    use crate::remat::RematClass;
    discounted_costs(f, live, loops, target, |v| match remat.class(v) {
        RematClass::Const => Some(target.remat_cost()),
        RematClass::Reload => Some(target.load_cost()),
        RematClass::Spill => None,
    })
}

/// Shared walk for the remat-aware vectors: values for which `per_use`
/// yields a price are charged that price per use (φ uses at the
/// predecessor's frequency), no store and no call-crossing multiplier;
/// the rest keep their [`spill_costs`] estimate.
fn discounted_costs(
    f: &Function,
    live: &Liveness,
    loops: &LoopInfo,
    target: &Target,
    per_use: impl Fn(usize) -> Option<Cost>,
) -> Vec<Cost> {
    let mut cost = spill_costs(f, live, loops, target);
    let nv = f.value_count as usize;
    let mut discounted: Vec<Cost> = vec![0; nv];
    let mut has_discount = vec![false; nv];
    for v in 0..nv {
        has_discount[v] = per_use(v).is_some();
    }
    for b in f.block_ids() {
        let freq = loops.frequency(b);
        let block = f.block(b);
        for instr in &block.instrs {
            if instr.opcode == Opcode::Phi {
                for (i, u) in instr.uses.iter().enumerate() {
                    if let Some(c) = per_use(u.index()) {
                        let pf = loops.frequency(block.preds[i]);
                        discounted[u.index()] =
                            discounted[u.index()].saturating_add(c.saturating_mul(pf));
                    }
                }
            } else {
                for u in &instr.uses {
                    if let Some(c) = per_use(u.index()) {
                        discounted[u.index()] =
                            discounted[u.index()].saturating_add(c.saturating_mul(freq));
                    }
                }
            }
        }
    }
    for v in 0..nv {
        if has_discount[v] {
            cost[v] = discounted[v].max(1);
        }
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::dom::DomTree;
    use lra_targets::TargetKind;

    fn analyse(f: &Function) -> (Liveness, LoopInfo) {
        let live = liveness::analyze(f);
        let dom = DomTree::compute(f);
        let loops = LoopInfo::compute(f, &dom);
        (live, loops)
    }

    #[test]
    fn uses_in_loops_cost_more() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let cold = b.op(e, &[]);
        let hot = b.op(e, &[]);
        let h = b.block();
        let body = b.block();
        let exit = b.block();
        b.set_succs(e, &[h]);
        b.set_succs(h, &[body, exit]);
        b.set_succs(body, &[h]);
        b.op(body, &[hot]); // used in the loop
        b.op(exit, &[cold, hot]); // both used once outside
        let f = b.finish();
        let (live, loops) = analyse(&f);
        let t = Target::new(TargetKind::St231);
        let costs = spill_costs(&f, &live, &loops, &t);
        assert!(
            costs[hot.index()] > costs[cold.index()],
            "hot {} should exceed cold {}",
            costs[hot.index()],
            costs[cold.index()]
        );
    }

    #[test]
    fn every_value_costs_at_least_one() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let dead = b.op(e, &[]);
        let f = b.finish();
        let (live, loops) = analyse(&f);
        let t = Target::new(TargetKind::St231);
        let costs = spill_costs(&f, &live, &loops, &t);
        assert!(costs[dead.index()] >= 1);
    }

    #[test]
    fn call_crossing_penalised() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let crossing = b.op(e, &[]);
        let local = b.op(e, &[]);
        b.op(e, &[local]); // local dies before the call
        b.call(e, &[]);
        b.op(e, &[crossing]);
        let f = b.finish();
        let (live, loops) = analyse(&f);
        let t = Target::new(TargetKind::St231);
        let costs = spill_costs(&f, &live, &loops, &t);
        // Same def/use profile (1 def + 1 use at depth 0), but crossing
        // is multiplied by the ABI factor.
        assert_eq!(
            costs[crossing.index()],
            costs[local.index()] * t.call_crossing_multiplier()
        );
    }

    #[test]
    fn remat_values_cost_one_issue_per_use() {
        use crate::remat::RematTable;
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let k = b.op(e, &[]); // constant: remat-able
        let y = b.op(e, &[k]); // computation: not
        b.call(e, &[]);
        b.op(e, &[k, y]); // both live across the call
        let f = b.finish();
        let (live, loops) = analyse(&f);
        let t = Target::new(TargetKind::St231);
        let remat = RematTable::compute(&f);
        let plain = spill_costs(&f, &live, &loops, &t);
        let discounted = spill_costs_with_remat(&f, &live, &loops, &t, &remat);
        // k: 2 uses × remat_cost, no store, no ABI multiplier.
        assert_eq!(discounted[k.index()], 2 * t.remat_cost());
        assert!(discounted[k.index()] < plain[k.index()]);
        // y keeps its spill-everywhere estimate.
        assert_eq!(discounted[y.index()], plain[y.index()]);
    }

    #[test]
    fn reloads_account_at_one_load_per_use_but_guide_at_full_price() {
        use crate::remat::RematTable;
        use lra_graph::BitSet;
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let y = b.op(e, &[x]);
        b.call(e, &[]);
        b.op(e, &[y]); // y lives across the call
        let f = b.finish();
        let spilled = BitSet::from_iter_with_capacity(f.value_count as usize, [y.index()]);
        let mut table = RematTable::compute(&f);
        let scratch = &mut crate::AnalysisScratch::new();
        let rw = crate::spill_code::rewrite_spill_code(&f, &spilled, Some(&mut table), scratch);
        // The rewrite introduced one reload of y, tagged Reload.
        let reload = f.value_count as usize;
        assert_eq!(rw.function.value_count as usize, reload + 1);
        assert_eq!(table.class(reload), crate::remat::RematClass::Reload);
        let (live, loops) = analyse(&rw.function);
        let t = Target::new(TargetKind::St231);
        let plain = spill_costs(&rw.function, &live, &loops, &t);
        let accounted = spill_insert_costs(&rw.function, &live, &loops, &t, &table);
        let guidance = spill_costs_with_remat(&rw.function, &live, &loops, &t, &table);
        // Accounting: evicting the reload re-issues one load from y's
        // slot — no store, no call-crossing multiplier.
        assert_eq!(accounted[reload], t.load_cost());
        assert!(accounted[reload] < plain[reload]);
        // Guidance: the reload is a point range whose eviction cannot
        // lower pressure, so the allocator sees it above full price.
        assert!(
            guidance[reload] > plain[reload],
            "guidance {} must discourage futile reload evictions (plain {})",
            guidance[reload],
            plain[reload]
        );
    }

    #[test]
    fn single_use_copies_are_penalised_in_guidance_only() {
        use crate::remat::RematTable;
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let k = b.op(e, &[]);
        // `x` has an operand so it classifies as Spill, not Const.
        let x = b.op(e, &[k]);
        let c = b.copy(e, x);
        b.op(e, &[c]);
        let f = b.finish();
        let (live, loops) = analyse(&f);
        let t = Target::new(TargetKind::St231);
        let table = RematTable::compute(&f);
        let plain = spill_costs(&f, &live, &loops, &t);
        let guidance = spill_costs_with_remat(&f, &live, &loops, &t, &table);
        let accounted = spill_insert_costs(&f, &live, &loops, &t, &table);
        assert_eq!(guidance[c.index()], plain[c.index()] * POINT_RANGE_PENALTY);
        assert_eq!(accounted[c.index()], plain[c.index()]);
        // x is a real range: same price everywhere.
        assert_eq!(guidance[x.index()], plain[x.index()]);
        assert_eq!(accounted[x.index()], plain[x.index()]);
    }

    #[test]
    fn phi_uses_charged_at_predecessor_frequency() {
        let mut b = FunctionBuilder::new("f");
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
        let (live, loops) = analyse(&f);
        let t = Target::new(TargetKind::St231);
        let costs = spill_costs(&f, &live, &loops, &t);
        // `next` is used only by the φ, via the back edge at loop
        // frequency: cost ≥ store(body freq) + load(body freq).
        let freq = loops.frequency(body);
        assert!(costs[next.index()] >= (t.store_cost() + t.load_cost()) * freq);
    }
}
