//! Frank's maximum weighted stable set algorithm on chordal graphs.
//!
//! This is Algorithm 1 of the paper (due to Frank, 1975): two passes over
//! a perfect elimination order compute a **maximum weighted stable set**
//! of a chordal graph in O(|V| + |E|) on adjacency lists, O(|V|²/64 +
//! |E|) on the bit rows this crate keeps.
//!
//! The first pass scans the PEO; each vertex whose *residual* weight is
//! still positive is marked **red** and its residual weight is subtracted
//! from all neighbours (clamped at zero). The second pass pops red
//! vertices in reverse (LIFO) order and greedily keeps those not adjacent
//! to an already-kept (**blue**) vertex. The blue set is a stable set of
//! maximum total weight.
//!
//! In the layered allocator each *layer* is one such stable set: a set of
//! variables that can all be given the same register.

use crate::bitset::BitSet;
use crate::graph::Vertex;
use crate::weights::{Cost, WeightedGraph};

/// A stable set together with its total weight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StableSet {
    /// Members of the stable set, in increasing vertex order.
    pub vertices: Vec<Vertex>,
    /// Total weight of the members.
    pub weight: Cost,
}

/// Computes a maximum weighted stable set of the chordal graph `wg`.
///
/// `order` must be a perfect elimination order of `wg.graph()` (see
/// [`crate::peo::perfect_elimination_order`]). Vertices of zero weight
/// are never selected — in allocation terms, a variable with zero spill
/// cost gains nothing from a register, which mirrors the `w' > 0` test in
/// the paper's Algorithm 1.
///
/// Runs in O(|V|²/64 + |E|).
///
/// # Panics
///
/// Panics if `order` is not a permutation of the vertices. The result is
/// only guaranteed optimal when `order` is a genuine PEO.
///
/// # Examples
///
/// ```
/// use lra_graph::{Graph, WeightedGraph, peo, stable};
///
/// // Path a—b—c with weights 1, 5, 1: the best stable set is {b}.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
/// let wg = WeightedGraph::new(g, vec![1, 5, 1]);
/// let order = peo::perfect_elimination_order(wg.graph()).unwrap();
/// let s = stable::max_weight_stable_set(&wg, &order);
/// assert_eq!(s.weight, 5);
/// ```
pub fn max_weight_stable_set(wg: &WeightedGraph, order: &[Vertex]) -> StableSet {
    max_weight_stable_set_restricted(wg, order, None)
}

/// Like [`max_weight_stable_set`], but restricted to the sub-universe
/// `candidates` (vertices outside it are ignored entirely).
///
/// The restriction of a PEO to an induced subgraph is still a PEO, so
/// passing the full-graph order with a candidate filter stays optimal.
/// This is the form the layered allocator uses: after each layer the
/// allocated vertices leave the candidate set, but the graph and its PEO
/// are computed once.
pub fn max_weight_stable_set_restricted(
    wg: &WeightedGraph,
    order: &[Vertex],
    candidates: Option<&BitSet>,
) -> StableSet {
    let g = wg.graph();
    let n = g.vertex_count();
    assert_eq!(order.len(), n, "order must cover all vertices");

    // Pass 1: residual weights along the PEO; mark red. A residual is
    // read only when its vertex comes up, so a red vertex charges just
    // the neighbours still `pending` in the universe.
    let mut pending = candidates.cloned().unwrap_or_else(|| BitSet::full(n));
    let mut residual: Vec<Cost> = (0..n).map(|v| wg.weight(v)).collect();
    let mut red_stack: Vec<u32> = Vec::new();
    for &v in order {
        let v = v.index();
        if !pending.remove(v) {
            continue;
        }
        let rv = residual[v];
        if rv > 0 {
            red_stack.push(v as u32);
            for u in g.neighbor_row(v).iter_and(&pending) {
                residual[u] = residual[u].saturating_sub(rv);
            }
        }
    }

    // Pass 2: pop red vertices LIFO; keep (mark blue) those not adjacent
    // to an already-blue vertex.
    let mut blue = BitSet::new(n);
    let mut vertices = Vec::new();
    let mut weight: Cost = 0;
    for &v in red_stack.iter().rev() {
        let v = v as usize;
        if g.neighbor_row(v).is_disjoint(&blue) {
            blue.insert(v);
            vertices.push(Vertex::new(v));
            weight += wg.weight(v);
        }
    }
    vertices.sort();
    StableSet { vertices, weight }
}

/// Exhaustively computes a maximum weighted stable set of **any** graph.
///
/// Exponential-time reference implementation used by tests and by the
/// exact solver on tiny graphs; works on non-chordal graphs too.
///
/// # Panics
///
/// Panics if the (candidate-restricted) universe exceeds 63 vertices.
pub fn max_weight_stable_set_brute(wg: &WeightedGraph, candidates: Option<&BitSet>) -> StableSet {
    let g = wg.graph();
    let universe: Vec<usize> = match candidates {
        Some(c) => c.iter().collect(),
        None => (0..g.vertex_count()).collect(),
    };
    assert!(universe.len() <= 63, "brute force limited to 63 vertices");

    // Branch-and-bound over the universe ordered by decreasing weight.
    let mut by_weight = universe.clone();
    by_weight.sort_by_key(|&v| std::cmp::Reverse(wg.weight(v)));
    let suffix_weight: Vec<Cost> = {
        let mut s = vec![0; by_weight.len() + 1];
        for i in (0..by_weight.len()).rev() {
            s[i] = s[i + 1] + wg.weight(by_weight[i]);
        }
        s
    };

    struct Search<'a> {
        wg: &'a WeightedGraph,
        vs: Vec<usize>,
        suffix: Vec<Cost>,
        best: Cost,
        best_set: Vec<usize>,
    }
    impl Search<'_> {
        fn go(&mut self, i: usize, picked: &mut Vec<usize>, w: Cost) {
            if w > self.best {
                self.best = w;
                self.best_set = picked.clone();
            }
            if i == self.vs.len() || w + self.suffix[i] <= self.best {
                return;
            }
            let v = self.vs[i];
            let compatible = picked.iter().all(|&p| !self.wg.graph().has_edge(p, v));
            if compatible {
                picked.push(v);
                self.go(i + 1, picked, w + self.wg.weight(v));
                picked.pop();
            }
            self.go(i + 1, picked, w);
        }
    }

    let mut s = Search {
        wg,
        vs: by_weight,
        suffix: suffix_weight,
        best: 0,
        best_set: Vec::new(),
    };
    s.go(0, &mut Vec::new(), 0);
    let mut vertices: Vec<Vertex> = s.best_set.iter().map(|&v| Vertex::new(v)).collect();
    vertices.sort();
    StableSet {
        vertices,
        weight: s.best,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Graph, GraphBuilder};
    use crate::peo;

    /// The weighted chordal graph of Figure 5(a): vertices a..g = 0..6
    /// with weights a=1, b=2, c=2, d=5, e=2, f=6, g=1.
    ///
    /// Edges reconstructed from the Figure 5(b) trace (see
    /// `peo::tests::figure4`): marking `b` red reduces `g` and `c`, and
    /// the paper's PEO forces `c–g`.
    fn figure5() -> WeightedGraph {
        let mut b = GraphBuilder::new(7);
        for &(u, v) in &[
            (0, 3),
            (0, 5),
            (3, 5),
            (3, 4),
            (4, 5),
            (2, 3),
            (2, 4),
            (1, 2),
            (1, 6),
            (2, 6),
        ] {
            b.add_edge(u, v);
        }
        WeightedGraph::new(b.build(), vec![1, 2, 2, 5, 2, 6, 1])
    }

    /// The paper's PEO for Figure 4/5: [a, f, d, e, b, g, c].
    fn paper_order() -> Vec<Vertex> {
        [0, 5, 3, 4, 1, 6, 2].map(Vertex::new).to_vec()
    }

    #[test]
    fn frank_fig5_weight_and_set() {
        let wg = figure5();
        let s = max_weight_stable_set(&wg, &paper_order());
        // The paper finds {b, f} with weight 8.
        assert_eq!(s.weight, 8);
        assert_eq!(s.vertices, vec![Vertex::new(1), Vertex::new(5)]);
        assert!(wg.graph().is_stable_set(&[1, 5]));
    }

    #[test]
    fn frank_fig5_red_then_blue_trace() {
        // With the paper's PEO the red stack is [a, f, b]; popping LIFO
        // keeps b, then f (a is rejected: adjacent to f). Verified by the
        // final set in `frank_fig5_weight_and_set`; here we check the
        // weight equals the brute-force optimum.
        let wg = figure5();
        let brute = max_weight_stable_set_brute(&wg, None);
        assert_eq!(brute.weight, 8);
    }

    #[test]
    fn frank_matches_brute_on_any_peo() {
        let wg = figure5();
        let order = peo::perfect_elimination_order(wg.graph()).unwrap();
        let s = max_weight_stable_set(&wg, &order);
        assert_eq!(s.weight, 8);
    }

    #[test]
    fn restricted_universe() {
        let wg = figure5();
        let order = paper_order();
        // Remove f (5) and b (1) from the universe. Stable sets on
        // {a,c,d,e,g}: {d,g}=6, {a,e,g}=4, {a,c}=3 — optimum is {d,g}=6.
        let mut cand = BitSet::full(7);
        cand.remove(5);
        cand.remove(1);
        let s = max_weight_stable_set_restricted(&wg, &order, Some(&cand));
        assert_eq!(s.weight, 6);
        assert_eq!(s.vertices, vec![Vertex::new(3), Vertex::new(6)]);
        let brute = max_weight_stable_set_brute(&wg, Some(&cand));
        assert_eq!(brute.weight, 6);
    }

    #[test]
    fn zero_weight_vertices_ignored() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let wg = WeightedGraph::new(g, vec![0, 0]);
        let order = peo::perfect_elimination_order(wg.graph()).unwrap();
        let s = max_weight_stable_set(&wg, &order);
        assert_eq!(s.weight, 0);
        assert!(s.vertices.is_empty());
    }

    #[test]
    fn empty_graph() {
        let wg = WeightedGraph::new(Graph::empty(0), vec![]);
        let s = max_weight_stable_set(&wg, &[]);
        assert_eq!(s.weight, 0);
        assert!(s.vertices.is_empty());
    }

    #[test]
    fn stable_set_on_clique_is_single_heaviest() {
        let mut b = GraphBuilder::new(4);
        b.add_clique(&[0, 1, 2, 3]);
        let wg = WeightedGraph::new(b.build(), vec![3, 9, 2, 7]);
        let order = peo::perfect_elimination_order(wg.graph()).unwrap();
        let s = max_weight_stable_set(&wg, &order);
        assert_eq!(s.weight, 9);
        assert_eq!(s.vertices, vec![Vertex::new(1)]);
    }

    #[test]
    fn stable_set_on_edgeless_graph_is_everything() {
        let wg = WeightedGraph::new(Graph::empty(5), vec![1, 2, 3, 4, 5]);
        let order = peo::perfect_elimination_order(wg.graph()).unwrap();
        let s = max_weight_stable_set(&wg, &order);
        assert_eq!(s.weight, 15);
        assert_eq!(s.vertices.len(), 5);
    }

    #[test]
    fn brute_force_respects_edges() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]); // C4, non-chordal
        let wg = WeightedGraph::new(g, vec![3, 4, 3, 4]);
        let s = max_weight_stable_set_brute(&wg, None);
        assert_eq!(s.weight, 8); // {1, 3}
        assert_eq!(s.vertices, vec![Vertex::new(1), Vertex::new(3)]);
    }
}
