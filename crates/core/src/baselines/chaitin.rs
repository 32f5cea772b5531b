//! Chaitin–Briggs optimistic graph colouring (`GC`).
//!
//! The classic static-compilation allocator the paper uses as its main
//! baseline. Simplify: repeatedly remove (push) vertices with degree
//! `< R`; when stuck, pick the vertex minimising `cost(v)/degree(v)`
//! (Chaitin's spill metric) and push it *optimistically* (Briggs).
//! Select: pop the stack, giving each vertex the lowest colour unused by
//! its coloured neighbours; vertices that find no colour become actual
//! spills. In the spill-everywhere model, spilled variables leave the
//! graph entirely and the process repeats until a colouring succeeds;
//! that colouring is the allocation's witness.
//!
//! Simplify keeps a worklist: a bit set of the remaining vertices whose
//! degree is below `R`, lowest index first, with degrees lowered as
//! neighbours leave, so a step never rescans the graph. Select marks
//! the colours of a vertex's coloured neighbours in a mask of
//! `min(R, degree + 1)` bits: its lowest free colour is at most its
//! degree, so no buffer grows with `R`.
//!
//! This is exactly the behaviour the paper's introduction criticises:
//! the `cost/degree` metric may spill a variable with many neighbours
//! even when it covers no high-pressure program point.

use crate::problem::{Allocation, Allocator, Instance};
use lra_graph::BitSet;

/// The `GC` baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaitinBriggs;

impl ChaitinBriggs {
    /// Creates the allocator.
    pub fn new() -> Self {
        ChaitinBriggs
    }
}

impl Allocator for ChaitinBriggs {
    fn name(&self) -> &'static str {
        "GC"
    }

    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        let g = instance.graph();
        let wg = instance.weighted_graph();
        let n = g.vertex_count();
        let r_us = r as usize;
        if r == 0 {
            return instance.allocation_from_set(BitSet::new(n));
        }

        // The vertices not (yet) spilled.
        let mut present = BitSet::full(n);
        // Simplify state: vertices still in the graph, those of them
        // with degree < R, and their degrees among the ones still in.
        let mut active = BitSet::new(n);
        let mut simplifiable = BitSet::new(n);
        let mut degree = vec![0usize; n];
        let mut stack: Vec<usize> = Vec::with_capacity(n);
        let mut color = vec![NO_COLOR; n];
        let mut colored = BitSet::new(n);
        let mut used: Vec<u64> = Vec::new();
        loop {
            active.copy_from(&present);
            simplifiable.clear();
            for v in present.iter() {
                degree[v] = g.adjacent_count_in(v, &present);
                if degree[v] < r_us {
                    simplifiable.insert(v);
                }
            }

            // Simplify: push the lowest-indexed vertex of degree < R;
            // when there is none, the spill candidate minimising
            // cost/degree (compared by cross-multiplication to stay in
            // integers), pushed optimistically.
            stack.clear();
            while let Some(v) = simplifiable.iter().next().or_else(|| {
                active.iter().min_by(|&a, &b| {
                    let lhs = wg.weight(a) as u128 * degree[b].max(1) as u128;
                    let rhs = wg.weight(b) as u128 * degree[a].max(1) as u128;
                    lhs.cmp(&rhs).then(a.cmp(&b))
                })
            }) {
                active.remove(v);
                simplifiable.remove(v);
                stack.push(v);
                for u in g.neighbor_row(v).iter_and(&active) {
                    degree[u] -= 1;
                    if degree[u] < r_us {
                        simplifiable.insert(u);
                    }
                }
            }

            // Select phase: optimistic colouring. A vertex's lowest free
            // colour is at most its degree, so the colours it can take
            // fit a mask of min(R, degree + 1) bits, and only coloured
            // neighbours set any of them.
            color.fill(NO_COLOR);
            colored.clear();
            let mut spilled_any = false;
            while let Some(v) = stack.pop() {
                let span = r_us.min(g.degree(v) + 1);
                used.clear();
                used.resize(span.div_ceil(64), 0);
                for u in g.neighbor_row(v).iter_and(&colored) {
                    let c = color[u] as usize;
                    if c < span {
                        used[c / 64] |= 1 << (c % 64);
                    }
                }
                let free = used
                    .iter()
                    .enumerate()
                    .find(|(_, &word)| word != u64::MAX)
                    .map(|(k, word)| k * 64 + word.trailing_ones() as usize)
                    .filter(|&c| c < span);
                match free {
                    Some(c) => {
                        color[v] = c as u32;
                        colored.insert(v);
                    }
                    None => {
                        present.remove(v);
                        spilled_any = true;
                    }
                }
            }

            if !spilled_any {
                return instance.allocation_with_colors(present, color);
            }
        }
    }
}

/// `color` entry of a vertex without a colour.
const NO_COLOR: u32 = u32::MAX;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{generate, Graph, GraphBuilder, WeightedGraph};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn instance(g: Graph, w: Vec<u64>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    /// The quadratic simplify/select this allocator used to run: the
    /// reference the worklist version must match pick for pick.
    fn reference_allocate(instance: &Instance, r: u32) -> Allocation {
        let g = instance.graph();
        let wg = instance.weighted_graph();
        let n = g.vertex_count();
        let r_us = r as usize;

        let mut spilled = BitSet::new(n);
        if r == 0 {
            return instance.allocation_from_set(BitSet::new(n));
        }

        loop {
            // Working degrees over the remaining (unspilled) vertices.
            let mut present = BitSet::full(n);
            present.difference_with(&spilled);
            let mut degree: Vec<usize> = (0..n)
                .map(|v| {
                    if present.contains(v) {
                        g.adjacent_count_in(v, &present)
                    } else {
                        0
                    }
                })
                .collect();

            let mut stack: Vec<usize> = Vec::with_capacity(present.len());
            let mut removed = BitSet::new(n);
            let mut remaining = present.len();

            while remaining > 0 {
                // Simplify: any vertex with degree < R.
                let simplifiable = present
                    .iter()
                    .find(|&v| !removed.contains(v) && degree[v] < r_us);
                let v = match simplifiable {
                    Some(v) => v,
                    None => {
                        // Spill candidate: minimise cost/degree
                        // (compare by cross-multiplication to stay in
                        // integers).
                        present
                            .iter()
                            .filter(|&v| !removed.contains(v))
                            .min_by(|&a, &b| {
                                let lhs = wg.weight(a) as u128 * degree[b].max(1) as u128;
                                let rhs = wg.weight(b) as u128 * degree[a].max(1) as u128;
                                lhs.cmp(&rhs).then(a.cmp(&b))
                            })
                            .expect("graph nonempty while remaining > 0")
                    }
                };
                removed.insert(v);
                remaining -= 1;
                stack.push(v);
                for u in g.neighbor_indices(v) {
                    if present.contains(u) && !removed.contains(u) {
                        degree[u] = degree[u].saturating_sub(1);
                    }
                }
            }

            // Select phase: optimistic colouring.
            let mut color: Vec<Option<u32>> = vec![None; n];
            let mut new_spills = Vec::new();
            while let Some(v) = stack.pop() {
                let mut used = vec![false; r_us];
                for u in g.neighbor_indices(v) {
                    if let Some(c) = color[u] {
                        if (c as usize) < r_us {
                            used[c as usize] = true;
                        }
                    }
                }
                match used.iter().position(|&b| !b) {
                    Some(c) => color[v] = Some(c as u32),
                    None => new_spills.push(v),
                }
            }

            if new_spills.is_empty() {
                let mut allocated = present;
                debug_assert!(allocated.iter().all(|v| color[v].is_some()));
                allocated.difference_with(&spilled);
                return instance.allocation_from_set(allocated);
            }
            for v in new_spills {
                spilled.insert(v);
            }
        }
    }

    #[test]
    fn worklist_matches_the_quadratic_reference() {
        let mut rng = ChaCha8Rng::seed_from_u64(2013);
        for trial in 0..2000 {
            // 5–200 vertices, skewed small so the quadratic reference
            // stays cheap in a debug build.
            let x = rng.gen_range(0..=195usize);
            let n = 5 + x * x / 195;
            // Denser for small graphs: up to ~25 neighbours a vertex.
            let edge_percent = rng.gen_range(1..=(2500 / n as u32).min(60));
            let g = generate::random_general(&mut rng, n, edge_percent);
            let inst = instance(g, generate::random_weights(&mut rng, n, 3));
            for r in [1, 2, 3, 4, 6, 8, 64, 65, 1000] {
                assert_eq!(
                    ChaitinBriggs::new().allocate(&inst, r).allocated,
                    reference_allocate(&inst, r).allocated,
                    "trial {trial}: {n} vertices, {edge_percent}% edges, R={r}"
                );
            }
            // No R-sized buffer: an absurd R colours everything.
            assert_eq!(ChaitinBriggs::new().allocate(&inst, u32::MAX).spill_cost, 0);
        }
    }

    #[test]
    fn colors_without_spilling_when_possible() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let inst = instance(g, vec![1, 1, 1, 1]);
        let a = ChaitinBriggs::new().allocate(&inst, 2);
        assert_eq!(a.spill_cost, 0);
        assert!(verify::check(&inst, &a, 2).is_feasible());
    }

    #[test]
    fn spills_cheapest_per_degree_on_clique() {
        let mut b = GraphBuilder::new(4);
        b.add_clique(&[0, 1, 2, 3]);
        let inst = instance(b.build(), vec![10, 20, 30, 5]);
        let a = ChaitinBriggs::new().allocate(&inst, 3);
        // One vertex must go; the cheapest (3, cost 5) is the right pick.
        assert_eq!(a.spill_cost, 5);
        assert!(!a.allocated.contains(3));
        assert!(verify::check(&inst, &a, 3).is_feasible());
    }

    #[test]
    fn optimistic_coloring_beats_pessimistic() {
        // Diamond (C4 + chord is not needed): C4 is 2-colourable even
        // though every vertex has degree 2 = R; Briggs' optimism colours
        // it with zero spills where pure Chaitin would spill.
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let inst = instance(g, vec![1, 1, 1, 1]);
        let a = ChaitinBriggs::new().allocate(&inst, 2);
        assert_eq!(a.spill_cost, 0);
    }

    #[test]
    fn zero_registers_spills_everything() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let inst = instance(g, vec![3, 4]);
        let a = ChaitinBriggs::new().allocate(&inst, 0);
        assert_eq!(a.spill_cost, 7);
        assert!(a.allocated.is_empty());
    }

    #[test]
    fn always_feasible_on_random_like_graph() {
        let g = Graph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (1, 4),
            ],
        );
        let inst = instance(g, vec![4, 7, 2, 9, 1, 3]);
        for r in 1..=4 {
            let a = ChaitinBriggs::new().allocate(&inst, r);
            assert!(verify::check(&inst, &a, r).is_feasible(), "R={r}");
        }
    }

    #[test]
    fn high_degree_cheap_vertex_spilled_despite_low_pressure() {
        // The paper's motivating pathology: a star centre interferes
        // with many cheap leaves but pressure is only 2. GC with R=2
        // still colours a star (centre + leaves = 2 colours), so use
        // R=1: GC spills the centre (cost/degree minimal) even though
        // spilling leaves would be cheaper per unit.
        let mut b = GraphBuilder::new(5);
        for leaf in 1..5 {
            b.add_edge(0, leaf);
        }
        let inst = instance(b.build(), vec![12, 4, 4, 4, 4]);
        let a = ChaitinBriggs::new().allocate(&inst, 1);
        // cost/degree: centre = 12/4 = 3, leaves = 4/1 = 4 -> centre goes.
        assert!(!a.allocated.contains(0));
        assert_eq!(a.spill_cost, 12);
        assert!(verify::check(&inst, &a, 1).is_feasible());
    }
}
