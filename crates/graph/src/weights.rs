//! Weighted graphs: spill costs attached to vertices.
//!
//! Every variable carries an estimated **spill cost** — in the paper, the
//! access frequency of the variable (high when frequently accessed). The
//! allocation problem maximises the total weight of allocated vertices,
//! equivalently minimises the total weight of spilled ones.

use crate::bitset::BitSet;
use crate::graph::Graph;

/// A spill cost (access-frequency estimate) in abstract cost units.
///
/// Costs are integers: frequency estimates of the form `10^loop_depth ×
/// accesses` are integral, and integer arithmetic keeps the optimal
/// solvers exact. Keep individual costs below `2^40` so that the biased
/// weight `w·|V| + deg` of the BL allocator cannot overflow.
pub type Cost = u64;

/// A [`Graph`] whose vertices carry spill costs.
///
/// # Examples
///
/// ```
/// use lra_graph::{Graph, WeightedGraph};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let wg = WeightedGraph::new(g, vec![5, 1, 5]);
/// assert_eq!(wg.weight(0), 5);
/// assert_eq!(wg.total_weight(), 11);
/// ```
#[derive(Clone, Debug)]
pub struct WeightedGraph {
    graph: Graph,
    weights: Vec<Cost>,
}

impl WeightedGraph {
    /// Associates `weights` with the vertices of `graph`.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != graph.vertex_count()`.
    pub fn new(graph: Graph, weights: Vec<Cost>) -> Self {
        assert_eq!(
            weights.len(),
            graph.vertex_count(),
            "one weight per vertex required"
        );
        WeightedGraph { graph, weights }
    }

    /// Gives every vertex of `graph` unit weight.
    pub fn unit(graph: Graph) -> Self {
        let n = graph.vertex_count();
        WeightedGraph::new(graph, vec![1; n])
    }

    /// The underlying unweighted graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The spill cost of vertex `v`.
    pub fn weight(&self, v: usize) -> Cost {
        self.weights[v]
    }

    /// All weights, indexed by vertex.
    pub fn weights(&self) -> &[Cost] {
        &self.weights
    }

    /// The number of vertices (variables).
    pub fn vertex_count(&self) -> usize {
        self.graph.vertex_count()
    }

    /// Sum of all vertex weights.
    pub fn total_weight(&self) -> Cost {
        self.weights.iter().sum()
    }

    /// Sum of the weights of the vertices in `set`.
    pub fn weight_of_set(&self, set: &BitSet) -> Cost {
        set.iter().map(|v| self.weights[v]).sum()
    }

    /// Sum of the weights of the vertices in `vs`.
    pub fn weight_of_slice(&self, vs: &[usize]) -> Cost {
        vs.iter().map(|&v| self.weights[v]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_accessors() {
        let g = Graph::from_edges(3, &[(0, 1)]);
        let wg = WeightedGraph::new(g, vec![2, 3, 4]);
        assert_eq!(wg.weight(1), 3);
        assert_eq!(wg.total_weight(), 9);
        assert_eq!(wg.weights(), &[2, 3, 4]);
    }

    #[test]
    fn unit_weights() {
        let wg = WeightedGraph::unit(Graph::empty(4));
        assert_eq!(wg.total_weight(), 4);
    }

    #[test]
    fn set_and_slice_weights() {
        let g = Graph::empty(4);
        let wg = WeightedGraph::new(g, vec![1, 2, 4, 8]);
        let s = BitSet::from_iter_with_capacity(4, [0, 2]);
        assert_eq!(wg.weight_of_set(&s), 5);
        assert_eq!(wg.weight_of_slice(&[1, 3]), 10);
    }

    #[test]
    #[should_panic(expected = "one weight per vertex")]
    fn mismatched_weights_panic() {
        let _ = WeightedGraph::new(Graph::empty(3), vec![1]);
    }
}
