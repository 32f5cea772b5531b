//! Feasibility checking for allocations.
//!
//! An allocation with `R` registers is feasible when its allocated
//! variables can share `R` registers without two interfering ones
//! meeting. Every allocator hands over the colouring it built with the
//! allocated set ([`Allocation::colors`]): a layer of the layered
//! allocators, an `LH` cluster, a `GC` select colour and a
//! branch-and-bound colour row are each one register, and a set chosen
//! on a chordal graph is coloured along the reverse PEO (the tree-scan).
//! [`check`] does not search for a colouring; it checks that one: every
//! allocated variable has a colour below `R`, and no edge joins two
//! allocated variables of the same colour. The second test is
//! word-level: the allocated variables are sorted into one bit set per
//! colour, and each one's neighbour row is ANDed with its own colour's
//! set, O(V²/64) word operations in all and no walk over the edges.

use crate::problem::{Allocation, Instance};
use lra_graph::BitSet;

/// The result of a feasibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Feasibility {
    /// The allocation's colouring checked out; it is carried here as
    /// the register assignment (entries of spilled variables mean
    /// nothing).
    Feasible(Vec<u32>),
    /// The colouring fails: a colour is out of range, or two
    /// interfering allocated variables share one.
    Infeasible(String),
    /// Never returned: [`check`] always decides. It stays because the
    /// frozen benchmark package matches on every verdict by name
    /// (`perfbench/src/lib.rs`, its verdict label); deleting it breaks
    /// the benchmark build.
    Unknown,
}

impl Feasibility {
    /// `true` for [`Feasibility::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, Feasibility::Feasible(_))
    }
}

/// Checks that `alloc`'s colouring fits in `r` registers on `instance`.
pub fn check(instance: &Instance, alloc: &Allocation, r: u32) -> Feasibility {
    let colors = &alloc.colors;
    if let Some(v) = alloc.allocated.iter().find(|&v| colors[v] >= r) {
        return Feasibility::Infeasible(format!(
            "variable {v} has colour {} of {r} registers",
            colors[v]
        ));
    }
    let g = instance.graph();
    let used = alloc
        .allocated
        .iter()
        .map(|v| colors[v] as usize + 1)
        .max()
        .unwrap_or(0);
    let mut classes = vec![BitSet::new(g.vertex_count()); used];
    for v in alloc.allocated.iter() {
        classes[colors[v] as usize].insert(v);
    }
    let clash = alloc
        .allocated
        .iter()
        .any(|v| !g.neighbor_row(v).is_disjoint(&classes[colors[v] as usize]));
    if clash {
        return Feasibility::Infeasible("two interfering variables share a colour".into());
    }
    Feasibility::Feasible(colors.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::{coloring, Graph, WeightedGraph};

    fn instance(n: usize, edges: &[(usize, usize)]) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::unit(Graph::from_edges(n, edges)))
    }

    #[test]
    fn triangle_needs_three_registers() {
        let inst = instance(3, &[(0, 1), (1, 2), (0, 2)]);
        let all = inst.allocation_from_set(BitSet::full(3));
        assert!(check(&inst, &all, 3).is_feasible());
        assert!(!check(&inst, &all, 2).is_feasible());
    }

    #[test]
    fn spilling_restores_feasibility() {
        let inst = instance(3, &[(0, 1), (1, 2), (0, 2)]);
        let two = inst.allocation_from_set(BitSet::from_iter_with_capacity(3, [0, 2]));
        assert!(check(&inst, &two, 2).is_feasible());
    }

    #[test]
    fn witness_coloring_is_proper() {
        let inst = instance(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let all = BitSet::full(4);
        let alloc = inst.allocation_from_set(all.clone());
        if let Feasibility::Feasible(colors) = check(&inst, &alloc, 3) {
            assert!(coloring::is_proper_coloring(
                inst.graph(),
                &colors,
                Some(&all)
            ));
        } else {
            panic!("expected feasible");
        }
    }

    #[test]
    fn non_chordal_witness_decides() {
        // C5 has no PEO: the set is coloured first-fit in vertex order
        // (0, 1, 0, 1, 2), which fits 3 registers and not 2.
        let inst = instance(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let all = inst.allocation_from_set(BitSet::full(5));
        assert_eq!(all.colors, vec![0, 1, 0, 1, 2]);
        assert!(!check(&inst, &all, 2).is_feasible());
        assert!(check(&inst, &all, 3).is_feasible());
    }

    #[test]
    fn colour_at_or_above_r_is_infeasible() {
        let inst = instance(3, &[(0, 1)]);
        let all = BitSet::full(3);
        let alloc = inst.allocation_with_colors(all.clone(), vec![0, 1, 2]);
        assert!(check(&inst, &alloc, 3).is_feasible());
        assert!(matches!(
            check(&inst, &alloc, 2),
            Feasibility::Infeasible(_)
        ));
        // A spilled variable's entry is not checked.
        let spilled = BitSet::from_iter_with_capacity(3, [0, 1]);
        let alloc = inst.allocation_with_colors(spilled, vec![0, 1, 7]);
        assert!(check(&inst, &alloc, 2).is_feasible());
    }

    #[test]
    fn adjacent_vertices_sharing_a_colour_are_infeasible() {
        let inst = instance(3, &[(0, 1), (1, 2)]);
        let clash = inst.allocation_with_colors(BitSet::full(3), vec![0, 0, 1]);
        assert!(matches!(
            check(&inst, &clash, 3),
            Feasibility::Infeasible(_)
        ));
        // The same colours are fine once one end of the edge is spilled.
        let spilled = BitSet::from_iter_with_capacity(3, [1, 2]);
        let alloc = inst.allocation_with_colors(spilled, vec![0, 0, 1]);
        assert!(check(&inst, &alloc, 2).is_feasible());
    }

    #[test]
    fn empty_allocation_always_feasible() {
        let inst = instance(3, &[(0, 1), (1, 2), (0, 2)]);
        let none = inst.allocation_from_set(BitSet::new(3));
        assert!(check(&inst, &none, 0).is_feasible());
    }

    #[test]
    fn word_level_check_agrees_with_the_edge_walk() {
        // `is_proper_coloring` walks every edge; `check` must reach the
        // same verdict on random graphs, allocated sets and colourings,
        // many of them bad, across 64-vertex word boundaries.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(27);
        let mut verdicts = [0usize; 2];
        for _ in 0..300 {
            let n = rng.gen_range(1..=150usize);
            let density = rng.gen_range(1..=30u32);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if rng.gen_range(0..100u32) < density {
                        edges.push((u, v));
                    }
                }
            }
            let inst = instance(n, &edges);
            let allocated =
                BitSet::from_iter_with_capacity(n, (0..n).filter(|_| rng.gen_range(0..4u32) > 0));
            // A proper first-fit colouring, then (mostly) a few entries
            // recoloured at random, up to `r` inclusive so some fall out
            // of range.
            let mut colors = coloring::greedy_coloring_in_order(
                inst.graph(),
                (0..n).map(lra_graph::Vertex::new),
            );
            let r = colors.iter().max().map_or(1, |&c| c + 1);
            for _ in 0..rng.gen_range(0..4usize) {
                colors[rng.gen_range(0..n)] = rng.gen_range(0..=r);
            }
            let want = allocated.iter().all(|v| colors[v] < r)
                && coloring::is_proper_coloring(inst.graph(), &colors, Some(&allocated));
            let alloc = inst.allocation_with_colors(allocated, colors);
            let got = check(&inst, &alloc, r).is_feasible();
            assert_eq!(got, want, "n {n}, density {density}%, r {r}");
            verdicts[usize::from(got)] += 1;
        }
        assert!(verdicts.iter().all(|&k| k > 20), "{verdicts:?}");
    }
}
