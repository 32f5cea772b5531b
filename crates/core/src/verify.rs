//! Feasibility checking for allocations.
//!
//! An allocation with `R` registers is feasible when its allocated
//! variables can share `R` registers without two interfering ones
//! meeting. Every allocator hands over the colouring it built with the
//! allocated set ([`Allocation::colors`]): a layer of the layered
//! allocators, an `LH` cluster, a `GC` select colour and a
//! branch-and-bound colour row are each one register, and a set chosen
//! on a chordal graph is coloured along the reverse PEO (the tree-scan).
//! [`check`] does not search for a colouring; it checks that one in a
//! single O(V + E) pass: every allocated variable has a colour below
//! `R`, and no edge joins two allocated variables of the same colour.

use crate::problem::{Allocation, Instance};
use lra_graph::coloring;

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
    if !coloring::is_proper_coloring(instance.graph(), colors, Some(&alloc.allocated)) {
        return Feasibility::Infeasible("two interfering variables share a colour".into());
    }
    Feasibility::Feasible(colors.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::{BitSet, Graph, WeightedGraph};

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
}
