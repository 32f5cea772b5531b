//! Register assignment (the decoupled second phase).
//!
//! Once the allocation has chosen *which* variables live in registers,
//! the assignment picks *which register* each one gets. Every
//! [`Allocation`] already carries that choice as its colouring: on
//! chordal graphs a greedy sweep along the reverse perfect elimination
//! order — the *tree-scan* of SSA-based allocation, optimal there; on
//! general graphs the allocator's own colouring, such as one register
//! per `LH` cluster. [`assign`] checks it ([`crate::verify`]) and hands
//! it over.

use crate::problem::{Allocation, Instance};
use crate::verify::{self, Feasibility};

/// A register assignment: `Some(register)` for allocated variables,
/// `None` for spilled ones.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    regs: Vec<Option<u32>>,
}

impl Assignment {
    /// Wraps a per-variable register vector (`None` = spilled). Used by
    /// the pipeline driver to expand witness colourings; callers should
    /// normally obtain assignments from [`assign`].
    pub fn from_registers(regs: Vec<Option<u32>>) -> Self {
        Assignment { regs }
    }

    /// Extends the assignment with `None` entries up to `n` variables
    /// (no-op if it already covers `n`).
    pub fn pad_to(mut self, n: usize) -> Self {
        if self.regs.len() < n {
            self.regs.resize(n, None);
        }
        self
    }

    /// The register of variable `v`, or `None` if spilled.
    pub fn register_of(&self, v: usize) -> Option<u32> {
        self.regs.get(v).copied().flatten()
    }

    /// The number of distinct registers used.
    pub fn registers_used(&self) -> usize {
        let mut seen = std::collections::BTreeSet::new();
        for r in self.regs.iter().flatten() {
            seen.insert(*r);
        }
        seen.len()
    }

    /// Iterates over `(variable, register)` pairs for allocated
    /// variables.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.regs
            .iter()
            .enumerate()
            .filter_map(|(v, r)| r.map(|r| (v, r)))
    }
}

/// Assigns concrete registers to an allocation.
///
/// Returns `None` if the allocation is infeasible for `r` registers
/// (which indicates an allocator bug — every allocator in this crate
/// produces feasible allocations).
pub fn assign(instance: &Instance, allocation: &Allocation, r: u32) -> Option<Assignment> {
    match verify::check(instance, allocation, r) {
        Feasibility::Feasible(colors) => {
            let regs = (0..instance.vertex_count())
                .map(|v| allocation.allocated.contains(v).then(|| colors[v]))
                .collect();
            Some(Assignment { regs })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layered::Layered;
    use crate::problem::Allocator;
    use lra_graph::{generate, Graph, WeightedGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn assignment_is_a_proper_coloring() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let g = generate::random_chordal(&mut rng, 30, 40, 5);
        let w = generate::random_weights(&mut rng, 30, 2);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(g, w));
        let r = 3;
        let alloc = Layered::bfpl().allocate(&inst, r);
        let asg = assign(&inst, &alloc, r).expect("feasible allocation");
        assert!(asg.registers_used() <= r as usize);
        for (u, v) in inst.graph().edges() {
            if let (Some(a), Some(b)) = (asg.register_of(u.index()), asg.register_of(v.index())) {
                assert_ne!(a, b, "neighbours {u} and {v} share register {a}");
            }
        }
        // Spilled variables carry no register.
        for v in alloc.spilled_set(&inst).iter() {
            assert_eq!(asg.register_of(v), None);
        }
    }

    #[test]
    fn assignment_uses_at_most_r_registers() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (0, 2)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![5, 6, 7, 8]));
        let alloc = Layered::nl().allocate(&inst, 2);
        let asg = assign(&inst, &alloc, 2).unwrap();
        assert!(asg.registers_used() <= 2);
        assert_eq!(asg.iter().count(), alloc.allocated.len());
    }

    #[test]
    fn infeasible_allocation_returns_none() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::unit(g));
        // Force an infeasible "allocation": all three of a triangle
        // with 2 registers.
        let bogus = inst.allocation_from_set(lra_graph::BitSet::full(3));
        assert!(assign(&inst, &bogus, 2).is_none());
    }
}
