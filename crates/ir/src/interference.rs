//! Interference-graph construction and linearised live intervals.
//!
//! Two views of the same function feed the allocators:
//!
//! * [`interference_graph`] — the precise graph: a definition interferes
//!   with every value live just after it. For strict-SSA functions live
//!   ranges are subtrees of the dominance tree, so this graph is
//!   **chordal**; for non-SSA functions (multiple defs per value, live
//!   ranges with holes) it is a general graph — the JikesRVM setting of
//!   the paper's §6.2.
//! * [`live_intervals`] — the linear-scan view: each value is
//!   over-approximated by one interval over a reverse-postorder
//!   linearisation of the code. The intersection graph of these
//!   intervals is an interval graph (hence chordal), and its maximal
//!   cliques are program points, so the exact spill-everywhere optimum
//!   is computable in polynomial time by min-cost flow (see
//!   `lra-core::optimal::flow`).

use crate::cfg::{Function, Opcode};
use crate::liveness::Liveness;
use crate::scratch::AnalysisScratch;
use lra_graph::{BitMatrix, Graph, Interval};

/// Builds the precise interference graph of `f` (one vertex per value).
///
/// A def interferes with every value live immediately after it; φ defs
/// of the same block interfere pairwise (they exist simultaneously at
/// block entry); function parameters interfere pairwise when live.
///
/// Construction works directly on a packed adjacency [`BitMatrix`]:
/// each definition unions the current live set into its own row with
/// one word-level [`BitMatrix::union_row_with`] — O(n/64) per
/// definition instead of one `add_edge` call per live value — and
/// [`Graph::from_bit_matrix`] mirrors the edges by 64×64 word blocks
/// and clears the diagonal in one final pass. That matrix is the
/// graph's only adjacency: **one allocation**, not one `BitSet` or
/// neighbour list per value.
pub fn interference_graph(f: &Function, live: &Liveness) -> Graph {
    interference_graph_in(f, live, &mut AnalysisScratch::new())
}

/// [`interference_graph`] with caller-provided scratch for the
/// backward live-set sweep; identical output. The adjacency matrix
/// itself is *not* recycled — [`Graph::from_bit_matrix`] retains it
/// inside the returned graph, so it is output, not scratch.
pub fn interference_graph_in(
    f: &Function,
    live: &Liveness,
    scratch: &mut AnalysisScratch,
) -> Graph {
    let nv = f.value_count as usize;
    let mut rows = BitMatrix::new(nv, nv);
    let live_set = scratch.live_for(nv);

    for blk in f.block_ids() {
        let bi = blk.index();
        live_set.copy_from(&live.live_out[bi]);
        for instr in f.blocks[bi].instrs.iter().rev() {
            if instr.opcode == Opcode::Phi {
                break; // φs handled below
            }
            if let Some(d) = instr.def {
                // d interferes with everything live after the def
                // (other than itself, for non-SSA redefinitions).
                live_set.remove(d.index());
                rows.union_row_with(d.index(), live_set);
            }
            for u in &instr.uses {
                live_set.insert(u.index());
            }
        }
        // φ defs: all live-in simultaneously — they interfere with
        // everything else live-in, which includes every other φ def of
        // the block.
        for instr in f.blocks[bi].phis() {
            if let Some(d) = instr.def {
                rows.union_row_with(d.index(), &live.live_in[bi]);
            }
        }
    }

    // Parameters are defined simultaneously at function entry.
    let entry_in = &live.live_in[f.entry.index()];
    for (i, p) in f.params.iter().enumerate() {
        for q in &f.params[i + 1..] {
            if entry_in.contains(p.index()) && entry_in.contains(q.index()) {
                rows.insert(p.index(), q.index());
            }
        }
    }

    Graph::from_bit_matrix(rows)
}

/// A linearisation of `f`: block order plus the starting program point
/// of each block.
#[derive(Clone, Debug)]
pub struct Linearization {
    /// Blocks in layout (reverse-postorder) order.
    pub order: Vec<crate::cfg::BlockId>,
    /// Starting point of each block, indexed by block id.
    pub base: Vec<u32>,
    /// One past the last program point.
    pub end: u32,
}

/// Lays out the blocks of `f` in reverse postorder and assigns each
/// block a contiguous range of program points (one per instruction plus
/// a boundary point).
pub fn linearize(f: &Function) -> Linearization {
    let order = f.reverse_postorder();
    let mut base = vec![0u32; f.block_count()];
    let mut next = 0u32;
    for &b in &order {
        base[b.index()] = next;
        next += f.block(b).instrs.len() as u32 + 1;
    }
    Linearization {
        order,
        base,
        end: next,
    }
}

/// Computes one live interval per value over the linearisation `lin`,
/// using the block-level liveness `live`.
///
/// The interval spans from the value's definition (or the start of any
/// block where it is live-in) to one past its last use (or the boundary
/// of any block where it is live-out). Holes are *not* represented —
/// this is the deliberate over-approximation made by linear-scan
/// allocators, and it is what makes the intersection graph an interval
/// graph. Dead values get empty intervals. `scratch` supplies the
/// recycled endpoint arrays; reusing it never changes the output.
pub fn live_intervals(
    f: &Function,
    live: &Liveness,
    lin: &Linearization,
    scratch: &mut AnalysisScratch,
) -> Vec<Interval> {
    let nv = f.value_count as usize;
    let start = &mut scratch.starts;
    start.clear();
    start.resize(nv, u32::MAX);
    let end = &mut scratch.ends;
    end.clear();
    end.resize(nv, 0);
    let mut touch = |v: usize, s: u32, e: u32| {
        start[v] = start[v].min(s);
        end[v] = end[v].max(e);
    };

    for &b in &lin.order {
        let bi = b.index();
        let b0 = lin.base[bi];
        let bend = b0 + f.blocks[bi].instrs.len() as u32 + 1;
        for v in live.live_in[bi].iter() {
            touch(v, b0, b0 + 1);
        }
        for v in live.live_out[bi].iter() {
            touch(v, bend - 1, bend);
        }
        for (i, instr) in f.blocks[bi].instrs.iter().enumerate() {
            let p = b0 + i as u32 + 1;
            if let Some(d) = instr.def {
                // A definition occupies its register for at least one
                // point, even if the value is never used — this keeps
                // the interval graph a supergraph of the precise one.
                touch(d.index(), p, p + 1);
            }
            if instr.opcode != Opcode::Phi {
                for u in &instr.uses {
                    touch(u.index(), p, p + 1);
                }
            }
        }
        // φ uses live out of the matching predecessor: already covered
        // by live_out of that pred via the liveness analysis.
    }

    // Parameters are defined at the function's first point.
    for p in &f.params {
        if end[p.index()] > 0 {
            start[p.index()] = 0;
        }
    }

    (0..nv)
        .map(|v| {
            if start[v] == u32::MAX || end[v] <= start[v] {
                // Dead or never-live value: empty interval at its def.
                let at = if start[v] == u32::MAX { 0 } else { start[v] };
                Interval::new(at, at)
            } else {
                Interval::new(start[v], end[v])
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::liveness;
    use lra_graph::interval::{interval_graph, max_overlap};
    use lra_graph::peo;

    #[test]
    fn straight_line_interference() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let x = b.op(e, &[]);
        let y = b.op(e, &[x]);
        let z = b.op(e, &[x, y]);
        b.op(e, &[z]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let g = interference_graph(&f, &live);
        // x-y interfere (x live across y's def); z kills both.
        assert!(g.has_edge(x.index(), y.index()));
        assert!(!g.has_edge(x.index(), z.index()));
        assert!(!g.has_edge(y.index(), z.index()));
    }

    #[test]
    fn ssa_graph_is_chordal() {
        // Diamond with a phi and a loop.
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let a = b.op(e, &[]);
        let c = b.op(e, &[a]);
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.set_succs(e, &[l, r]);
        b.set_succs(l, &[j]);
        b.set_succs(r, &[j]);
        let xl = b.op(l, &[a]);
        let xr = b.op(r, &[c]);
        let m = b.phi(j, &[xl, xr]);
        b.op(j, &[m, a]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let g = interference_graph(&f, &live);
        assert!(peo::is_chordal(&g));
    }

    #[test]
    fn phi_defs_in_same_block_interfere() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let l = b.block();
        let r = b.block();
        let j = b.block();
        b.set_succs(e, &[l, r]);
        b.set_succs(l, &[j]);
        b.set_succs(r, &[j]);
        let a1 = b.op(l, &[]);
        let a2 = b.op(l, &[]);
        let b1 = b.op(r, &[]);
        let b2 = b.op(r, &[]);
        let p = b.phi(j, &[a1, b1]);
        let q = b.phi(j, &[a2, b2]);
        b.op(j, &[p, q]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let g = interference_graph(&f, &live);
        assert!(g.has_edge(p.index(), q.index()));
        // Values flowing through different φ arms do not interfere.
        assert!(!g.has_edge(a1.index(), b1.index()));
    }

    #[test]
    fn params_interfere() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let p = b.param();
        let q = b.param();
        b.op(e, &[p, q]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let g = interference_graph(&f, &live);
        assert!(g.has_edge(p.index(), q.index()));
    }

    #[test]
    fn linearization_is_contiguous() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let n1 = b.block();
        b.set_succs(e, &[n1]);
        b.op(e, &[]);
        b.op(n1, &[]);
        let f = b.finish();
        let lin = linearize(&f);
        assert_eq!(lin.order.len(), 2);
        assert_eq!(lin.base[0], 0);
        assert_eq!(lin.base[1], 2); // entry has 1 instr + boundary
        assert_eq!(lin.end, 4);
    }

    #[test]
    fn intervals_cover_live_ranges() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let n1 = b.block();
        b.set_succs(e, &[n1]);
        let x = b.op(e, &[]);
        let y = b.op(e, &[x]);
        b.op(n1, &[x, y]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let lin = linearize(&f);
        let ivs = live_intervals(&f, &live, &lin, &mut AnalysisScratch::new());
        // x live from its def through the use in n1.
        assert!(ivs[x.index()].overlaps(&ivs[y.index()]));
        assert!(max_overlap(&ivs) >= 2);
        // The interval graph over-approximates the precise graph.
        let precise = interference_graph(&f, &live);
        let coarse = interval_graph(&ivs);
        for (u, v) in precise.edges() {
            assert!(coarse.has_edge(u.index(), v.index()));
        }
    }

    #[test]
    fn dead_defs_get_one_point_intervals() {
        let mut b = FunctionBuilder::new("f");
        let e = b.entry_block();
        let unused_param = b.param();
        let dead = b.op(e, &[]);
        let x = b.op(e, &[]);
        b.op(e, &[x]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let lin = linearize(&f);
        let ivs = live_intervals(&f, &live, &lin, &mut AnalysisScratch::new());
        // A dead def still occupies its register for one point.
        assert_eq!(ivs[dead.index()].len(), 1);
        assert!(!ivs[x.index()].is_empty());
        // An unused parameter is never materialised at all.
        assert!(ivs[unused_param.index()].is_empty());
    }

    #[test]
    fn interval_graphs_are_chordal_even_for_loopy_cfgs() {
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
        let t = b.op(body, &[carried]);
        let next = b.op(body, &[t, carried]);
        b.patch_phi_arg(h, carried, 1, next);
        b.op(exit, &[carried]);
        let f = b.finish();
        let live = liveness::analyze(&f);
        let lin = linearize(&f);
        let ivs = live_intervals(&f, &live, &lin, &mut AnalysisScratch::new());
        assert!(peo::is_chordal(&interval_graph(&ivs)));
    }
}
