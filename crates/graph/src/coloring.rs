//! Graph colouring: the assignment stage of decoupled register allocation.
//!
//! On a chordal graph, colouring greedily along the *reverse* of a
//! perfect elimination order is optimal and uses exactly `ω(G)` colours
//! — this is the *tree-scan* assignment of SSA-based allocation. On
//! general graphs greedy colouring is a heuristic. [`is_proper_coloring`]
//! checks a colouring in one pass over the edges; [`exact_coloring`], a
//! small exhaustive search, is a reference for tests.

use crate::bitset::BitSet;
use crate::graph::{Graph, Vertex};

/// A register (colour) index.
pub type Color = u32;

/// Greedily colours the vertices of `g` that `order` visits, in that
/// order.
///
/// Assigns each vertex the smallest colour not used by an
/// already-coloured neighbour; vertices `order` skips get colour 0 and
/// constrain no one, so a filtered order colours an induced subgraph.
/// Optimal for chordal graphs when the order is a reversed PEO, using
/// exactly as many colours as the largest clique; a heuristic
/// otherwise.
///
/// # Examples
///
/// ```
/// use lra_graph::{Graph, peo, coloring};
///
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let order = peo::perfect_elimination_order(&g).unwrap();
/// let colors = coloring::greedy_coloring_in_order(&g, order.iter().rev().copied());
/// assert_eq!(colors.iter().max(), Some(&2));
/// ```
pub fn greedy_coloring_in_order(g: &Graph, order: impl Iterator<Item = Vertex>) -> Vec<Color> {
    let n = g.vertex_count();
    let mut colors: Vec<Option<Color>> = vec![None; n];
    let mut used = Vec::new();
    for v in order {
        let v = v.index();
        used.clear();
        used.resize(g.degree(v) + 1, false);
        for &u in g.neighbor_indices(v) {
            if let Some(c) = colors[u as usize] {
                if (c as usize) < used.len() {
                    used[c as usize] = true;
                }
            }
        }
        let c = used
            .iter()
            .position(|&b| !b)
            .expect("first-fit colour exists") as Color;
        colors[v] = Some(c);
    }
    colors.into_iter().map(|c| c.unwrap_or(0)).collect()
}

/// Checks that `colors` is a proper colouring of `g` restricted to
/// `domain` (or of the whole graph when `domain` is `None`).
pub fn is_proper_coloring(g: &Graph, colors: &[Color], domain: Option<&BitSet>) -> bool {
    g.edges().all(|(u, v)| {
        let inside = domain.is_none_or(|d| d.contains(u.index()) && d.contains(v.index()));
        !inside || colors[u.index()] != colors[v.index()]
    })
}

/// Decides by exhaustive search whether the subgraph of `g` induced by
/// `domain` is `k`-colourable, returning a witness colouring.
///
/// Exponential; a reference for tests on small graphs (allocations are
/// checked against the colouring their allocator hands over). Colour
/// symmetry is broken by allowing at most one previously-unused colour
/// per vertex.
///
/// # Panics
///
/// Panics if the domain exceeds 64 vertices.
pub fn exact_coloring(g: &Graph, domain: &BitSet, k: u32) -> Option<Vec<Color>> {
    let vs: Vec<usize> = domain.iter().collect();
    assert!(vs.len() <= 64, "exact colouring limited to 64 vertices");
    if vs.is_empty() {
        return Some(vec![0; g.vertex_count()]);
    }
    // Order by decreasing degree within the domain for faster failure.
    let mut vs = vs;
    vs.sort_by_key(|&v| std::cmp::Reverse(g.adjacent_count_in(v, domain)));

    let n = g.vertex_count();
    let mut colors: Vec<Option<Color>> = vec![None; n];

    fn go(
        g: &Graph,
        vs: &[usize],
        i: usize,
        k: u32,
        used_colors: u32,
        colors: &mut Vec<Option<Color>>,
    ) -> bool {
        if i == vs.len() {
            return true;
        }
        let v = vs[i];
        let limit = (used_colors + 1).min(k);
        'next_color: for c in 0..limit {
            for &u in g.neighbor_indices(v) {
                if colors[u as usize] == Some(c) {
                    continue 'next_color;
                }
            }
            colors[v] = Some(c);
            let new_used = used_colors.max(c + 1);
            if go(g, vs, i + 1, k, new_used, colors) {
                return true;
            }
            colors[v] = None;
        }
        false
    }

    if go(g, &vs, 0, k, 0, &mut colors) {
        Some(colors.into_iter().map(|c| c.unwrap_or(0)).collect())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::peo;

    #[test]
    fn triangle_needs_three() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let order = peo::perfect_elimination_order(&g).unwrap();
        let colors = greedy_coloring_in_order(&g, order.iter().rev().copied());
        assert!(is_proper_coloring(&g, &colors, None));
        assert_eq!(colors.iter().max(), Some(&2));
    }

    #[test]
    fn chordal_coloring_uses_omega_colors() {
        // Figure 4 graph: ω = 3.
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
        let g = b.build();
        let order = peo::perfect_elimination_order(&g).unwrap();
        let colors = greedy_coloring_in_order(&g, order.iter().rev().copied());
        assert!(is_proper_coloring(&g, &colors, None));
        assert_eq!(colors.iter().max(), Some(&2));
    }

    #[test]
    fn edgeless_uses_one_color() {
        let g = Graph::empty(4);
        let order = peo::perfect_elimination_order(&g).unwrap();
        let colors = greedy_coloring_in_order(&g, order.iter().rev().copied());
        assert_eq!(colors.iter().max(), Some(&0));
    }

    #[test]
    fn coloring_restricted_to_domain() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        // Colour 0 twice is improper overall but fine if vertex 2 is
        // outside the domain.
        let colors = vec![0, 1, 0];
        let domain = BitSet::from_iter_with_capacity(3, [0, 1]);
        assert!(is_proper_coloring(&g, &colors, Some(&domain)));
        assert!(!is_proper_coloring(&g, &colors, None));
    }

    #[test]
    fn exact_coloring_finds_or_refutes() {
        // C5 is 3-chromatic.
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let all = BitSet::full(5);
        assert!(exact_coloring(&c5, &all, 2).is_none());
        let w = exact_coloring(&c5, &all, 3).unwrap();
        assert!(is_proper_coloring(&c5, &w, None));
    }

    #[test]
    fn exact_coloring_empty_domain() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        assert!(exact_coloring(&g, &BitSet::new(2), 0).is_some());
    }

    #[test]
    fn greedy_general_order_is_proper() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let colors = greedy_coloring_in_order(&g, g.vertices());
        assert!(is_proper_coloring(&g, &colors, None));
    }
}
