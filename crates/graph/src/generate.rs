//! Seeded random graph generators.
//!
//! The evaluation of the paper runs on interference graphs produced by
//! real compilers. The generators here produce the same graph *classes*
//! with controllable size, density and register-pressure profiles:
//!
//! * [`random_chordal`] — intersection graphs of random subtrees of a
//!   random tree. By Gavril's theorem these are exactly the chordal
//!   graphs; SSA live ranges are subtrees of the dominance tree, so this
//!   is the natural model of SSA interference graphs.
//! * [`random_interval_set`] — random live intervals over a linear code
//!   order with a target register-pressure profile (the linear-scan
//!   view of a function).
//! * [`random_general`] — Erdős–Rényi graphs, generally non-chordal, as
//!   produced by non-SSA (JIT) interference.
//! * [`random_weights`] — skewed spill costs mimicking
//!   `frequency × accesses` estimates with loop nesting.
//!
//! All generators are deterministic given the RNG state, so every
//! experiment in the paper reproduction is reproducible from a seed.

use crate::graph::{Graph, GraphBuilder};
use crate::interval::Interval;
use crate::weights::Cost;
use rand::seq::SliceRandom;
use rand::Rng;

/// Generates a random chordal graph on `n` vertices as the intersection
/// graph of `n` random subtrees of a random host tree on `tree_size`
/// nodes.
///
/// `subtree_nodes` controls the expected subtree size (and therefore
/// density): each subtree is grown by randomised BFS from a random root
/// to roughly that many host nodes.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let g = lra_graph::generate::random_chordal(&mut rng, 30, 40, 5);
/// assert!(lra_graph::peo::is_chordal(&g));
/// ```
pub fn random_chordal(
    rng: &mut impl Rng,
    n: usize,
    tree_size: usize,
    subtree_nodes: usize,
) -> Graph {
    let tree_size = tree_size.max(1);
    // Random host tree: parent of node i is uniform in 0..i.
    let mut tree_adj: Vec<Vec<usize>> = vec![Vec::new(); tree_size];
    for i in 1..tree_size {
        let p = rng.gen_range(0..i);
        tree_adj[i].push(p);
        tree_adj[p].push(i);
    }

    // Grow each subtree by randomised BFS.
    let mut membership: Vec<Vec<usize>> = Vec::with_capacity(n); // subtree -> host nodes
    for _ in 0..n {
        let target = rng.gen_range(1..=subtree_nodes.max(1));
        let root = rng.gen_range(0..tree_size);
        let mut nodes = vec![root];
        let mut frontier: Vec<usize> = tree_adj[root].clone();
        let mut in_subtree = vec![false; tree_size];
        in_subtree[root] = true;
        while nodes.len() < target && !frontier.is_empty() {
            let k = rng.gen_range(0..frontier.len());
            let next = frontier.swap_remove(k);
            if in_subtree[next] {
                continue;
            }
            in_subtree[next] = true;
            nodes.push(next);
            frontier.extend(tree_adj[next].iter().filter(|&&x| !in_subtree[x]));
        }
        membership.push(nodes);
    }

    // Two subtrees of a tree intersect iff they share a node.
    let mut holders: Vec<Vec<usize>> = vec![Vec::new(); tree_size]; // host node -> subtrees
    for (s, nodes) in membership.iter().enumerate() {
        for &t in nodes {
            holders[t].push(s);
        }
    }
    let mut b = GraphBuilder::new(n);
    for hs in &holders {
        for (i, &u) in hs.iter().enumerate() {
            for &v in &hs[i + 1..] {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Configuration for [`random_interval_set`].
#[derive(Clone, Debug)]
pub struct IntervalProfile {
    /// Number of intervals (variables).
    pub n: usize,
    /// Length of the linearised code, in program points.
    pub points: u32,
    /// Mean live-range length in program points.
    pub mean_len: u32,
    /// Fraction (0..=100) of long-lived ranges spanning most of the code
    /// (globals, loop-carried values).
    pub long_lived_percent: u32,
}

/// Generates random live intervals over a linear code order.
///
/// Most intervals are short and local (length geometric around
/// `mean_len`); a `long_lived_percent` fraction spans a large part of the
/// function, which is what creates high-pressure regions.
pub fn random_interval_set(rng: &mut impl Rng, profile: &IntervalProfile) -> Vec<Interval> {
    let IntervalProfile {
        n,
        points,
        mean_len,
        long_lived_percent,
    } = *profile;
    let points = points.max(2);
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen_range(0..100) < long_lived_percent {
            // Long-lived: covers 40–95% of the code.
            let len = points * rng.gen_range(40..=95) / 100;
            let start = rng.gen_range(0..=points - len.max(1));
            out.push(Interval::new(start, (start + len.max(1)).min(points)));
        } else {
            // Short: geometric-ish around mean_len.
            let mut len = 1;
            let cont = 100 - (100 / mean_len.max(1)).min(99);
            while len < points / 2 && rng.gen_range(0..100) < cont {
                len += 1;
            }
            let start = rng.gen_range(0..points - len.min(points - 1));
            out.push(Interval::new(start, (start + len).min(points)));
        }
    }
    out
}

/// Erdős–Rényi random graph `G(n, p)` with edge probability
/// `edge_percent`/100. Typically non-chordal for moderate densities —
/// the model for non-SSA (JikesRVM-style) interference graphs.
pub fn random_general(rng: &mut impl Rng, n: usize, edge_percent: u32) -> Graph {
    let mut b = GraphBuilder::new(n);
    for u in 0..n {
        for v in u + 1..n {
            if rng.gen_range(0..100) < edge_percent {
                b.add_edge(u, v);
            }
        }
    }
    b.build()
}

/// Generates skewed spill costs for `n` variables.
///
/// Each variable receives `accesses × 10^depth` where `depth` is a
/// loop-nesting depth in `0..=max_depth` (deep nests are rarer) and
/// `accesses` is small — the standard static spill-cost estimate.
pub fn random_weights(rng: &mut impl Rng, n: usize, max_depth: u32) -> Vec<Cost> {
    (0..n)
        .map(|_| {
            // Geometric depth: each extra level with probability 1/3.
            let mut depth = 0;
            while depth < max_depth && rng.gen_range(0..3) == 0 {
                depth += 1;
            }
            let accesses = rng.gen_range(1..=6) as Cost;
            accesses * (10 as Cost).pow(depth)
        })
        .collect()
}

/// Shuffles vertex identities of `g`, returning the isomorphic graph and
/// the permutation used (`perm[old] = new`). Useful for order-robustness
/// property tests.
pub fn shuffle_vertices(rng: &mut impl Rng, g: &Graph) -> (Graph, Vec<usize>) {
    let n = g.vertex_count();
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    let edges: Vec<(usize, usize)> = g
        .edges()
        .map(|(u, v)| (perm[u.index()], perm[v.index()]))
        .collect();
    (Graph::from_edges(n, &edges), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::{interval_graph, max_overlap};
    use crate::peo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn chordal_generator_is_chordal() {
        for seed in 0..20 {
            let g = random_chordal(&mut rng(seed), 40, 60, 6);
            assert!(
                peo::is_chordal(&g),
                "seed {seed} produced non-chordal graph"
            );
        }
    }

    #[test]
    fn chordal_generator_is_deterministic() {
        let g1 = random_chordal(&mut rng(7), 25, 30, 4);
        let g2 = random_chordal(&mut rng(7), 25, 30, 4);
        assert_eq!(g1, g2);
    }

    #[test]
    fn interval_profile_roughly_respected() {
        let profile = IntervalProfile {
            n: 200,
            points: 300,
            mean_len: 8,
            long_lived_percent: 10,
        };
        let ivs = random_interval_set(&mut rng(11), &profile);
        assert_eq!(ivs.len(), 200);
        assert!(ivs.iter().all(|iv| iv.end <= 300));
        let g = interval_graph(&ivs);
        assert!(peo::is_chordal(&g));
        assert!(max_overlap(&ivs) > 2);
    }

    #[test]
    fn general_generator_density() {
        let g = random_general(&mut rng(5), 40, 20);
        let possible = 40 * 39 / 2;
        let density = g.edge_count() * 100 / possible;
        assert!(
            (10..=30).contains(&density),
            "density {density}% out of band"
        );
    }

    #[test]
    fn weights_are_positive_and_skewed() {
        let ws = random_weights(&mut rng(9), 500, 3);
        assert!(ws.iter().all(|&w| w >= 1));
        assert!(
            ws.iter().any(|&w| w >= 100),
            "some deep-loop weights expected"
        );
    }

    #[test]
    fn shuffle_preserves_structure() {
        let g = random_chordal(&mut rng(2), 20, 25, 4);
        let (h, perm) = shuffle_vertices(&mut rng(3), &g);
        assert_eq!(g.edge_count(), h.edge_count());
        for (u, v) in g.edges() {
            assert!(h.has_edge(perm[u.index()], perm[v.index()]));
        }
        assert!(peo::is_chordal(&h));
    }
}
