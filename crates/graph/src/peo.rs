//! Perfect elimination orders and chordality testing.
//!
//! A graph is *chordal* iff it admits a **perfect elimination order**
//! (PEO): an ordering `v1, …, vn` such that each `vi` is simplicial in the
//! subgraph induced by `{vi, …, vn}` (its later neighbours form a clique).
//! Interference graphs of strict-SSA programs are chordal (Hack et al.),
//! which is the structural fact the layered allocator exploits.
//!
//! Two classic linear-time orderings are provided:
//!
//! * **Maximum cardinality search** (MCS, Tarjan & Yannakakis): repeatedly
//!   visit the unvisited vertex with the most visited neighbours. The
//!   *reverse* of the visit order is a PEO iff the graph is chordal.
//! * **Lexicographic BFS** (Rose, Tarjan & Lueker): partition-refinement
//!   search whose reverse visit order is likewise a PEO iff chordal.
//!
//! MCS keeps the unvisited vertices in intrusive bucket lists, one per
//! current weight (`head`/`next`/`prev` arrays, no allocation per
//! bucket). A vertex whose weight grows moves to the *head* of the next
//! bucket, and the walk visits the head of the heaviest non-empty
//! bucket, so among equally heavy vertices the one that reached that
//! weight last goes first, and at weight 0 the highest index does.
//!
//! [`perfect_elimination_order`] runs that walk with the elimination
//! check fused in (Tarjan & Yannakakis): when `v` is visited, its
//! visited neighbours are exactly its later neighbours in the reversed
//! order, the most recently visited of them is its *parent*, and every
//! other one must be adjacent to the parent. The walk stops at the first
//! violation, so a non-chordal graph is usually rejected long before
//! MCS would have finished. [`is_perfect_elimination_order`] is the
//! independent after-the-fact check of any candidate order.

use crate::bitset::BitSet;
use crate::graph::{Graph, Vertex};

/// The end of a bucket list, and the visit step of an unvisited vertex.
const NONE: u32 = u32::MAX;

/// The unvisited vertices of an MCS by current weight: one doubly
/// linked list per weight, threaded through `next`/`prev`, with
/// `head[w]` the vertex that reached weight `w` last.
struct Buckets {
    head: Vec<u32>,
    next: Vec<u32>,
    prev: Vec<u32>,
}

impl Buckets {
    /// Inserts `v` at the head of bucket `w`.
    fn push(&mut self, w: usize, v: u32) {
        let h = self.head[w];
        self.next[v as usize] = h;
        self.prev[v as usize] = NONE;
        if h != NONE {
            self.prev[h as usize] = v;
        }
        self.head[w] = v;
    }

    /// Removes `v` from bucket `w`.
    fn unlink(&mut self, w: usize, v: u32) {
        let (p, nx) = (self.prev[v as usize], self.next[v as usize]);
        match p {
            NONE => self.head[w] = nx,
            p => self.next[p as usize] = nx,
        }
        if nx != NONE {
            self.prev[nx as usize] = p;
        }
    }
}

/// Maximum cardinality search over `g`, in visit order. With `CHECK`,
/// each vertex is checked against its parent as it is visited and the
/// walk returns `None` at the first vertex whose visited neighbours do
/// not form a clique; without it, the walk always completes.
fn mcs<const CHECK: bool>(g: &Graph) -> Option<Vec<Vertex>> {
    let n = g.vertex_count();
    let mut buckets = Buckets {
        head: vec![NONE; n + 1],
        next: vec![NONE; n],
        prev: vec![NONE; n],
    };
    for v in 0..n as u32 {
        buckets.push(0, v);
    }
    let mut weight = vec![0u32; n];
    // The step at which each vertex was visited, `NONE` until then, and
    // the visited vertices as a set and its complement: a visit walks
    // its unvisited neighbours bit by bit and checks the visited ones
    // word by word.
    let mut step = vec![NONE; n];
    let mut visited = BitSet::new(n);
    let mut unvisited = BitSet::full(n);
    let mut max_weight = 0usize;
    let mut order = Vec::with_capacity(n);

    for i in 0..n as u32 {
        while buckets.head[max_weight] == NONE {
            debug_assert!(max_weight > 0, "bucket scan ran past weight 0");
            max_weight -= 1;
        }
        let v = buckets.head[max_weight];
        buckets.unlink(max_weight, v);
        let v = v as usize;
        step[v] = i;
        order.push(Vertex::new(v));
        unvisited.remove(v);

        let row = g.neighbor_row(v);
        for u in row.iter_and(&unvisited) {
            let w = weight[u] as usize;
            buckets.unlink(w, u as u32);
            buckets.push(w + 1, u as u32);
            weight[u] += 1;
            max_weight = max_weight.max(w + 1);
        }
        // With at most one visited neighbour there is nothing to check.
        // Otherwise the parent (the neighbour visited last) must be the
        // only visited neighbour outside its own neighbourhood.
        if CHECK && weight[v] > 1 {
            let parent = row.iter_and(&visited).max_by_key(|&u| step[u]);
            let prow = g.neighbor_row(parent.expect("weight > 1")).words();
            let words = row.words().iter().zip(visited.words()).zip(prow);
            if words
                .map(|((a, b), p)| (a & b & !p).count_ones())
                .sum::<u32>()
                != 1
            {
                return None;
            }
        }
        visited.insert(v);
    }
    Some(order)
}

/// Computes a maximum-cardinality-search order of `g`.
///
/// The returned vector lists vertices in *visit* order. If `g` is
/// chordal, the reverse of this order is a perfect elimination order.
/// Runs in O(|V|²/64 + |E|): each neighbourhood is read off a bit row.
///
/// # Examples
///
/// ```
/// use lra_graph::{Graph, peo};
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
/// let order = peo::mcs_order(&g);
/// assert_eq!(order.len(), 3);
/// ```
pub fn mcs_order(g: &Graph) -> Vec<Vertex> {
    mcs::<false>(g).expect("an unchecked walk always completes")
}

/// Checks whether `order` (elimination order: first vertex eliminated
/// first) is a perfect elimination order of `g`.
///
/// Uses the standard single-pass check: for every vertex `v`, let its
/// *parent* `u` be its earliest-eliminated later neighbour; then all
/// other later neighbours of `v` must be adjacent to `u`. Two scans of
/// each neighbour row and one bit-row probe per edge: O(|V|²/64 + |E|),
/// with no allocation beyond the position table.
///
/// Returns `false` (rather than panicking) if `order` is not a
/// permutation of the vertices.
pub fn is_perfect_elimination_order(g: &Graph, order: &[Vertex]) -> bool {
    let n = g.vertex_count();
    if order.len() != n {
        return false;
    }
    let mut pos = vec![usize::MAX; n];
    for (i, v) in order.iter().enumerate() {
        if v.index() >= n || pos[v.index()] != usize::MAX {
            return false;
        }
        pos[v.index()] = i;
    }
    for (i, &v) in order.iter().enumerate() {
        let later = g.neighbor_indices(v.index()).filter(|&u| pos[u] > i);
        let Some(parent) = later.clone().min_by_key(|&u| pos[u]) else {
            continue;
        };
        let row = g.neighbor_row(parent);
        if !later.filter(|&u| u != parent).all(|u| row.contains(u)) {
            return false;
        }
    }
    true
}

/// Returns a perfect elimination order of `g` if one exists.
///
/// Runs MCS with the elimination check fused in and reverses the visit
/// order: the reverse MCS order is a PEO exactly when `g` is chordal, so
/// `None` means *not chordal*. The answer and the order are those of
/// [`mcs_order`] reversed and checked by [`is_perfect_elimination_order`].
///
/// # Examples
///
/// ```
/// use lra_graph::{Graph, peo};
/// // A 4-cycle has no chord, hence no PEO.
/// let c4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// assert!(peo::perfect_elimination_order(&c4).is_none());
/// ```
pub fn perfect_elimination_order(g: &Graph) -> Option<Vec<Vertex>> {
    let mut order = mcs::<true>(g)?;
    order.reverse();
    debug_assert!(is_perfect_elimination_order(g, &order));
    Some(order)
}

/// Returns `true` if `g` is chordal (every cycle of length ≥ 4 has a
/// chord).
pub fn is_chordal(g: &Graph) -> bool {
    perfect_elimination_order(g).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    /// The chordal graph of Figure 4 in the paper:
    /// a=0, b=1, c=2, d=3, e=4, f=5, g=6.
    ///
    /// Edges reconstructed from the worked trace of Figure 5(b): `a` is
    /// adjacent to `{d, f}`, `f` to `{a, d, e}`, marking `b` red reduces
    /// both `g` and `c`, and the paper's order `[a, f, d, e, b, g, c]` is
    /// a PEO — which forces edges `b–c`, `b–g` and `c–g`.
    pub(crate) fn figure4() -> Graph {
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
        b.build()
    }

    #[test]
    fn figure4_is_chordal() {
        assert!(is_chordal(&figure4()));
    }

    #[test]
    fn paper_peo_of_figure4_validates() {
        // The paper states [a, f, d, e, b, g, c] is a PEO of Figure 4.
        let order: Vec<Vertex> = [0, 5, 3, 4, 1, 6, 2].map(Vertex::new).to_vec();
        assert!(is_perfect_elimination_order(&figure4(), &order));
    }

    #[test]
    fn non_peo_order_rejected() {
        // Eliminating d (=3) first: its later neighbours a, c, e, f are
        // not a clique (a and c are not adjacent).
        let order: Vec<Vertex> = [3, 0, 5, 4, 1, 6, 2].map(Vertex::new).to_vec();
        assert!(!is_perfect_elimination_order(&figure4(), &order));
    }

    #[test]
    fn cycles_are_not_chordal() {
        for n in 4..9 {
            let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
            let g = Graph::from_edges(n, &edges);
            assert!(!is_chordal(&g), "C{n} must not be chordal");
        }
    }

    #[test]
    fn chorded_cycle_is_chordal() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert!(is_chordal(&g));
    }

    #[test]
    fn trees_and_cliques_are_chordal() {
        let tree = Graph::from_edges(6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
        assert!(is_chordal(&tree));
        let mut b = GraphBuilder::new(5);
        b.add_clique(&[0, 1, 2, 3, 4]);
        assert!(is_chordal(&b.build()));
    }

    #[test]
    fn empty_and_singleton() {
        assert!(is_chordal(&Graph::empty(0)));
        assert!(is_chordal(&Graph::empty(1)));
        assert_eq!(
            perfect_elimination_order(&Graph::empty(3)).unwrap().len(),
            3
        );
    }

    #[test]
    fn mcs_order_is_permutation() {
        let g = figure4();
        let mut seen = [false; 7];
        for v in mcs_order(&g) {
            assert!(!seen[v.index()]);
            seen[v.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn wrong_length_order_rejected() {
        let g = figure4();
        assert!(!is_perfect_elimination_order(&g, &[Vertex::new(0)]));
        let dup = vec![Vertex::new(0); 7];
        assert!(!is_perfect_elimination_order(&g, &dup));
    }

    /// The sort-based check `is_perfect_elimination_order` used to
    /// run: collect and sort every vertex's later neighbours.
    fn sorted_later_reference(g: &Graph, order: &[Vertex]) -> bool {
        let n = g.vertex_count();
        if order.len() != n {
            return false;
        }
        let mut pos = vec![usize::MAX; n];
        for (i, v) in order.iter().enumerate() {
            if v.index() >= n || pos[v.index()] != usize::MAX {
                return false;
            }
            pos[v.index()] = i;
        }
        for &v in order {
            let v = v.index();
            let mut later: Vec<usize> =
                g.neighbor_indices(v).filter(|&u| pos[u] > pos[v]).collect();
            if later.len() <= 1 {
                continue;
            }
            later.sort_by_key(|&u| pos[u]);
            let row = g.neighbor_row(later[0]);
            if !later[1..].iter().all(|&u| row.contains(u)) {
                return false;
            }
        }
        true
    }

    #[test]
    fn peo_check_matches_the_sort_based_reference() {
        use crate::generate;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x9e0);
        let (mut accepted, mut rejected) = (0, 0);
        for round in 0..300 {
            let n = rng.gen_range(1..40);
            let tree_size = n + rng.gen_range(0..n);
            let g = if round % 2 == 0 {
                generate::random_chordal(&mut rng, n, tree_size, 4)
            } else {
                let mut b = GraphBuilder::new(n);
                for _ in 0..rng.gen_range(0..3 * n) {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    if u != v {
                        b.add_edge(u, v);
                    }
                }
                b.build()
            };
            let mut mcs = mcs_order(&g);
            mcs.reverse();
            let mut shuffled: Vec<Vertex> = g.vertices().collect();
            shuffled.shuffle(&mut rng);
            let mut repeated = mcs.clone();
            repeated[rng.gen_range(0..n)] = mcs[rng.gen_range(0..n)];
            let mut out_of_range = mcs.clone();
            out_of_range[rng.gen_range(0..n)] = Vertex::new(n);
            for order in [
                &mcs[..],
                &shuffled[..],
                &repeated[..],
                &out_of_range[..],
                &mcs[1..],
            ] {
                let got = is_perfect_elimination_order(&g, order);
                assert_eq!(got, sorted_later_reference(&g, order), "round {round}");
                if got {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(accepted > 100 && rejected > 100, "{accepted} / {rejected}");
    }

    /// The Vec-of-buckets MCS (LIFO buckets with lazy deletion) that
    /// the bucket lists replaced.
    fn vec_bucket_mcs(g: &Graph) -> Vec<Vertex> {
        let n = g.vertex_count();
        let mut weight = vec![0usize; n];
        let mut visited = vec![false; n];
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); n + 1];
        buckets[0].extend(0..n);
        let mut max_weight = 0;
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let v = loop {
                match buckets[max_weight].pop() {
                    Some(c) if !visited[c] && weight[c] == max_weight => break c,
                    Some(_) => {}
                    None => max_weight -= 1,
                }
            };
            visited[v] = true;
            order.push(Vertex::new(v));
            for u in g.neighbor_indices(v) {
                if !visited[u] {
                    weight[u] += 1;
                    buckets[weight[u]].push(u);
                    max_weight = max_weight.max(weight[u]);
                }
            }
        }
        order
    }

    /// Seeded graphs of every shape the fused test must agree on:
    /// chordal, chordal minus one edge, general (sparse and dense),
    /// disconnected unions of those, and the empty and one-vertex graphs.
    fn differential_graphs() -> Vec<Graph> {
        use crate::generate;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x7a9);
        let mut graphs = vec![Graph::empty(0), Graph::empty(1), Graph::empty(5)];
        for _ in 0..120 {
            let n = rng.gen_range(2..60);
            let tree_size = n + rng.gen_range(0..n);
            let chordal = generate::random_chordal(&mut rng, n, tree_size, 5);
            let edges: Vec<(usize, usize)> = chordal
                .edges()
                .map(|(u, v)| (u.index(), v.index()))
                .collect();
            let minus_one = if edges.is_empty() {
                chordal.clone()
            } else {
                let cut = rng.gen_range(0..edges.len());
                let rest: Vec<(usize, usize)> = edges
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != cut)
                    .map(|(_, &e)| e)
                    .collect();
                Graph::from_edges(n, &rest)
            };
            let percent = rng.gen_range(2..40);
            let general = generate::random_general(&mut rng, n, percent);
            // Two components side by side: the chordal graph, then the
            // general one shifted past it.
            let m = general.vertex_count();
            let union: Vec<(usize, usize)> = edges
                .iter()
                .copied()
                .chain(general.edges().map(|(u, v)| (u.index() + n, v.index() + n)))
                .collect();
            let disconnected = Graph::from_edges(n + m, &union);
            graphs.extend([chordal, minus_one, general, disconnected]);
        }
        graphs
    }

    #[test]
    fn fused_walk_matches_mcs_then_golumbic() {
        let (mut chordal, mut not) = (0, 0);
        for (i, g) in differential_graphs().iter().enumerate() {
            let old = vec_bucket_mcs(g);
            assert_eq!(mcs_order(g), old, "graph {i}: visit order");
            let mut reversed = old;
            reversed.reverse();
            let want = is_perfect_elimination_order(g, &reversed).then_some(reversed);
            let got = perfect_elimination_order(g);
            assert_eq!(got, want, "graph {i}");
            if got.is_some() {
                chordal += 1;
            } else {
                not += 1;
            }
        }
        assert!(chordal > 150 && not > 150, "{chordal} chordal / {not} not");
    }

    #[test]
    fn disconnected_chordal() {
        // Two triangles, disconnected.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        assert!(is_chordal(&g));
    }
}
