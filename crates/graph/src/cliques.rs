//! Maximal cliques and clique trees of chordal graphs.
//!
//! Under SSA there is a perfect correspondence between the maximal
//! cliques of the interference graph and the sets of variables
//! simultaneously live at some program point (Hack et al.). The paper's
//! fixed-point improvement (Algorithm 4) tracks, for each maximal clique,
//! how many of its members are already allocated; the exact solver runs a
//! dynamic program over the **clique tree**.
//!
//! Maximal cliques are stored flat in one [`Cliques`] arena (members plus
//! offsets), never one `Vec` per clique. Two enumerations fill it:
//!
//! * [`maximal_cliques`], for any chordal graph with a PEO `σ`. Every
//!   maximal clique has the form `C(v) = {v} ∪ RN(v)`, where `RN(v)` are
//!   the neighbours of `v` eliminated after `v` (Fulkerson & Gross).
//!   `C(v)` fails to be maximal exactly when some earlier `u` whose
//!   first later neighbour is `v` has `|RN(u)| = |RN(v)| + 1`, a count
//!   comparison per vertex: O(|V|²/64 + |E|), no bit sets beyond the
//!   adjacency rows.
//! * [`crate::interval::maximal_cliques`], for interval graphs: the live
//!   sets where a start is followed by an end in one sweep over the sorted
//!   endpoints, O(n log n + Σ|C|).
//!
//! A **clique tree** is a maximum-weight spanning tree of the clique
//! intersection graph (weights = intersection sizes); it satisfies the
//! junction-tree property and serves as a tree decomposition.
//! [`CliqueTree::build`] takes an arena from either enumeration (in
//! `lra-core`, the one an instance caches), so the cliques are never
//! enumerated a second time; the bags of each vertex are one CSR array
//! and the candidate tree edges are deduplicated in one flat bit matrix.

use crate::bitset::{BitMatrix, BitSet};
use crate::graph::{Graph, Vertex};
use crate::peo;

/// A family of cliques in one flat arena: clique `i` is the slice
/// `members[offsets[i]..offsets[i + 1]]` of vertex indices.
///
/// # Examples
///
/// ```
/// use lra_graph::{maximal_cliques, Graph};
///
/// let g = Graph::from_edges(3, &[(0, 2)]);
/// let cs = maximal_cliques(&g, &[0, 1, 2].map(lra_graph::Vertex::new));
/// assert_eq!(cs.len(), 2);
/// assert_eq!(cs.get(0), &[0, 2]);
/// assert_eq!(cs.get(1), &[1]);
/// assert_eq!(cs.members().len(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cliques {
    members: Vec<u32>,
    offsets: Vec<u32>,
}

impl Cliques {
    /// An empty family.
    pub(crate) fn new() -> Self {
        Cliques {
            members: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Appends one clique.
    pub(crate) fn push(&mut self, clique: &[u32]) {
        self.members.extend_from_slice(clique);
        self.close();
    }

    /// Ends the clique whose members were appended since the last one.
    fn close(&mut self) {
        let end = u32::try_from(self.members.len()).expect("clique arena fits in u32");
        self.offsets.push(end);
    }

    /// The number of cliques.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Returns `true` if the family holds no clique.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The members of clique `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn get(&self, i: usize) -> &[u32] {
        &self.members[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The cliques in order, each as a slice of vertex indices.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        self.offsets
            .windows(2)
            .map(|w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// Every membership, clique after clique: its length is `Σ|C|`.
    pub fn members(&self) -> &[u32] {
        &self.members
    }
}

/// Enumerates the maximal cliques of a chordal graph.
///
/// `order` must be a perfect elimination order of `g`. Clique `C(v)`
/// comes at `v`'s place in `order`, listing its members in increasing
/// index order; a chordal graph on `n` vertices has at most
/// `n` maximal cliques.
///
/// Runs in O(|V|²/64 + |E|) with no bit sets but the adjacency rows:
/// `C(v)` is contained in a larger `C(u)` exactly when some earlier `u`
/// has `v` as its *parent* (its first later neighbour) and
/// `|RN(u)| = |RN(v)| + 1` (Blair & Peyton), and every such `u`
/// precedes `v` in `order`.
///
/// # Examples
///
/// ```
/// use lra_graph::{Graph, maximal_cliques, peo};
///
/// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
/// let order = peo::perfect_elimination_order(&g).unwrap();
/// let cliques = maximal_cliques(&g, &order);
/// let mut sets: Vec<&[u32]> = cliques.iter().collect();
/// sets.sort();
/// assert_eq!(sets, vec![&[0, 1, 2][..], &[2, 3][..]]);
/// ```
pub fn maximal_cliques(g: &Graph, order: &[Vertex]) -> Cliques {
    let n = g.vertex_count();
    debug_assert!(peo::is_perfect_elimination_order(g, order));
    let mut pos = vec![0u32; n];
    for (i, v) in order.iter().enumerate() {
        pos[v.index()] = i as u32;
    }
    // |RN(v)|: the neighbours of v eliminated after it.
    let later: Vec<u32> = (0..n)
        .map(|v| g.neighbor_indices(v).filter(|&u| pos[u] > pos[v]).count() as u32)
        .collect();
    let mut dominated = vec![false; n];
    let mut cliques = Cliques::new();
    for &v in order {
        let v = v.index();
        let rn = g.neighbor_indices(v).filter(|&u| pos[u] > pos[v]);
        if let Some(p) = rn.clone().min_by_key(|&u| pos[u]) {
            if later[v] == later[p] + 1 {
                dominated[p] = true;
            }
        }
        if !dominated[v] {
            // Neighbour lists are sorted: v slots in once.
            let base = cliques.members.len();
            cliques.members.extend(rn.map(|u| u as u32));
            let at = base + cliques.members[base..].partition_point(|&u| (u as usize) < v);
            cliques.members.insert(at, v as u32);
            cliques.close();
        }
    }
    cliques
}

/// The size of the largest clique of a chordal graph (its chromatic
/// number, and the MaxLive of the corresponding SSA program).
pub fn max_clique_size(g: &Graph, order: &[Vertex]) -> usize {
    let n = g.vertex_count();
    let mut pos = vec![0usize; n];
    for (i, v) in order.iter().enumerate() {
        pos[v.index()] = i;
    }
    (0..n)
        .map(|v| 1 + g.neighbor_indices(v).filter(|&u| pos[u] > pos[v]).count())
        .max()
        .unwrap_or(0)
}

/// A clique tree (junction tree) of a chordal graph.
///
/// Bags are the maximal cliques; for every vertex `v` the bags containing
/// `v` form a connected subtree. Disconnected graphs yield a forest:
/// every root has `parent == None`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueTree {
    /// The maximal cliques in the arena's order, each sorted by vertex
    /// index.
    pub bags: Vec<Vec<Vertex>>,
    /// Bag membership as bit sets, parallel to `bags`.
    pub bag_sets: Vec<BitSet>,
    /// Parent bag index, `None` for roots.
    pub parent: Vec<Option<usize>>,
    /// Children lists, parallel to `bags`.
    pub children: Vec<Vec<usize>>,
    /// Bag indices in a topological order (parents before children).
    pub topo: Vec<usize>,
}

impl CliqueTree {
    /// Builds a clique tree over the maximal cliques of a chordal graph,
    /// as [`maximal_cliques`] or [`crate::interval::maximal_cliques`]
    /// return them. Every vertex lies in some maximal clique, so the
    /// largest member fixes the vertex count of the bag sets.
    ///
    /// Uses a maximum-weight spanning forest of the clique intersection
    /// graph (weight = |Ki ∩ Kj|), which is a classical characterisation
    /// of clique trees.
    pub fn build(cliques: &Cliques) -> Self {
        let members = cliques.members();
        let n = members.iter().max().map_or(0, |&v| v as usize + 1);
        let k = cliques.len();
        // Sorted, so a separator's vertices come in the same order in
        // both of its bags (interval arenas list them in sweep order).
        let bags: Vec<Vec<Vertex>> = cliques
            .iter()
            .map(|c| {
                let mut bag: Vec<Vertex> = c.iter().map(|&v| Vertex::new(v as usize)).collect();
                bag.sort_unstable();
                bag
            })
            .collect();
        let bag_sets: Vec<BitSet> = cliques
            .iter()
            .map(|c| BitSet::from_iter_with_capacity(n, c.iter().map(|&v| v as usize)))
            .collect();

        // Candidate edges: bags sharing at least one vertex. Enumerate
        // via per-vertex bag lists (CSR: vertex v's bags, in increasing
        // order, are `holders[start[v]..start[v + 1]]`) to avoid the
        // full quadratic scan.
        let mut start = vec![0u32; n + 1];
        for &v in members {
            start[v as usize + 1] += 1;
        }
        for v in 0..n {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut holders = vec![0u32; members.len()];
        for (i, c) in cliques.iter().enumerate() {
            for &v in c {
                holders[fill[v as usize] as usize] = i as u32;
                fill[v as usize] += 1;
            }
        }
        // Candidate edges as (weight, i, j); pairs deduped in one k × k
        // bit matrix (row = the smaller index).
        let mut edges: Vec<(usize, usize, usize)> = Vec::new();
        let mut paired = BitMatrix::new(k, k);
        for v in 0..n {
            let list = &holders[start[v] as usize..start[v + 1] as usize];
            for (a, &i) in list.iter().enumerate() {
                for &j in &list[a + 1..] {
                    let (lo, hi) = (i.min(j) as usize, i.max(j) as usize);
                    if paired.insert(lo, hi) {
                        let w = bag_sets[lo].intersection_len(&bag_sets[hi]);
                        edges.push((w, lo, hi));
                    }
                }
            }
        }
        edges.sort_by_key(|&(w, _, _)| std::cmp::Reverse(w));

        // Kruskal maximum spanning forest.
        let mut dsu: Vec<usize> = (0..k).collect();
        fn find(dsu: &mut Vec<usize>, x: usize) -> usize {
            if dsu[x] != x {
                let r = find(dsu, dsu[x]);
                dsu[x] = r;
            }
            dsu[x]
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (_, i, j) in edges {
            let (ri, rj) = (find(&mut dsu, i), find(&mut dsu, j));
            if ri != rj {
                dsu[ri] = rj;
                adj[i].push(j);
                adj[j].push(i);
            }
        }

        // Root each component and derive parent/children/topo.
        let mut parent = vec![None; k];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut topo = Vec::with_capacity(k);
        let mut visited = vec![false; k];
        for root in 0..k {
            if visited[root] {
                continue;
            }
            let mut stack = vec![root];
            visited[root] = true;
            while let Some(b) = stack.pop() {
                topo.push(b);
                for &c in &adj[b] {
                    if !visited[c] {
                        visited[c] = true;
                        parent[c] = Some(b);
                        children[b].push(c);
                        stack.push(c);
                    }
                }
            }
        }

        CliqueTree {
            bags,
            bag_sets,
            parent,
            children,
            topo,
        }
    }

    /// The number of bags (maximal cliques).
    pub fn bag_count(&self) -> usize {
        self.bags.len()
    }

    /// The separator of bag `b`: its intersection with its parent bag
    /// (empty for roots).
    pub fn separator(&self, b: usize) -> BitSet {
        match self.parent[b] {
            Some(p) => {
                let mut s = self.bag_sets[b].clone();
                s.intersect_with(&self.bag_sets[p]);
                s
            }
            None => BitSet::new(self.bag_sets[b].capacity()),
        }
    }

    /// Checks the junction-tree property: for every vertex, the bags
    /// containing it form a connected subtree. Used by tests.
    pub fn junction_property_holds(&self) -> bool {
        let n = self.bag_sets.first().map_or(0, BitSet::capacity);
        let k = self.bags.len();
        for v in 0..n {
            let hold = BitSet::from_iter_with_capacity(
                k,
                (0..k).filter(|&b| self.bag_sets[b].contains(v)),
            );
            let holding = hold.len();
            if holding <= 1 {
                continue;
            }
            // BFS within holding bags via tree edges.
            let first = hold.iter().next().expect("holding >= 2");
            let mut reached = BitSet::new(k);
            reached.insert(first);
            let mut stack = vec![first];
            while let Some(b) = stack.pop() {
                let mut nbrs: Vec<usize> = self.children[b].clone();
                if let Some(p) = self.parent[b] {
                    nbrs.push(p);
                }
                for c in nbrs {
                    if hold.contains(c) && reached.insert(c) {
                        stack.push(c);
                    }
                }
            }
            if reached.len() != holding {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn figure4() -> Graph {
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

    fn cliques_of(g: &Graph) -> Vec<Vec<usize>> {
        let order = peo::perfect_elimination_order(g).unwrap();
        let mut cs: Vec<Vec<usize>> = maximal_cliques(g, &order)
            .iter()
            .map(|c| c.iter().map(|&v| v as usize).collect())
            .collect();
        cs.sort();
        cs
    }

    #[test]
    fn figure4_maximal_cliques() {
        // a=0,b=1,c=2,d=3,e=4,f=5,g=6. Maximal cliques:
        // {a,d,f}, {b,c,g}, {c,d,e}, {d,e,f}.
        let cs = cliques_of(&figure4());
        assert_eq!(
            cs,
            vec![vec![0, 3, 5], vec![1, 2, 6], vec![2, 3, 4], vec![3, 4, 5]]
        );
    }

    #[test]
    fn cliques_are_cliques_and_maximal() {
        let g = figure4();
        let cs = cliques_of(&g);
        for c in &cs {
            assert!(g.is_clique(c));
            // Maximality: no vertex outside c is adjacent to all of c.
            for v in 0..g.vertex_count() {
                if !c.contains(&v) {
                    assert!(
                        !c.iter().all(|&u| g.has_edge(u, v)),
                        "clique {c:?} not maximal: can add {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn figure7_maximal_cliques() {
        // Figure 7(a): a=0,b=1,c=2,d=3,e=4,f=5 with cliques
        // {a,d,f}, {b,c,e}, {c,d,e}, {d,e,f} (as stated in the paper).
        let mut b = GraphBuilder::new(6);
        for &(u, v) in &[
            (0, 3),
            (0, 5),
            (3, 5),
            (3, 4),
            (3, 2),
            (2, 4),
            (4, 5),
            (2, 1),
            (1, 4),
        ] {
            b.add_edge(u, v);
        }
        let cs = cliques_of(&b.build());
        assert_eq!(
            cs,
            vec![vec![0, 3, 5], vec![1, 2, 4], vec![2, 3, 4], vec![3, 4, 5]]
        );
    }

    #[test]
    fn clique_on_clique_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_clique(&[0, 1, 2, 3]);
        let g = b.build();
        let cs = cliques_of(&g);
        assert_eq!(cs, vec![vec![0, 1, 2, 3]]);
        let order = peo::perfect_elimination_order(&g).unwrap();
        assert_eq!(max_clique_size(&g, &order), 4);
    }

    #[test]
    fn edgeless_graph_cliques_are_singletons() {
        let g = Graph::empty(3);
        let cs = cliques_of(&g);
        assert_eq!(cs, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn max_clique_size_of_figure4() {
        let g = figure4();
        let order = peo::perfect_elimination_order(&g).unwrap();
        assert_eq!(max_clique_size(&g, &order), 3);
    }

    #[test]
    fn clique_tree_junction_property() {
        let g = figure4();
        let order = peo::perfect_elimination_order(&g).unwrap();
        let t = CliqueTree::build(&maximal_cliques(&g, &order));
        assert_eq!(t.bag_count(), 4);
        assert!(t.junction_property_holds());
        assert_eq!(t.bags.iter().map(Vec::len).max(), Some(3));
        // Exactly one root in a connected graph.
        assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 1);
        // Topo order starts at a root and lists every bag once.
        assert_eq!(t.topo.len(), 4);
        assert!(t.parent[t.topo[0]].is_none());
    }

    #[test]
    fn clique_forest_on_disconnected_graph() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let order = peo::perfect_elimination_order(&g).unwrap();
        let t = CliqueTree::build(&maximal_cliques(&g, &order));
        assert_eq!(t.bag_count(), 2);
        assert_eq!(t.parent.iter().filter(|p| p.is_none()).count(), 2);
        assert!(t.junction_property_holds());
    }

    /// The bit-set containment enumeration that the parent test
    /// replaced: `C(v)` is kept unless an earlier neighbour's candidate
    /// contains it.
    fn containment_cliques(g: &Graph, order: &[Vertex]) -> Cliques {
        let n = g.vertex_count();
        let mut pos = vec![0usize; n];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i;
        }
        let candidates: Vec<BitSet> = (0..n)
            .map(|v| {
                let later = g.neighbor_indices(v).filter(|&u| pos[u] > pos[v]);
                BitSet::from_iter_with_capacity(n, later.chain([v]))
            })
            .collect();
        let mut cliques = Cliques::new();
        for &v in order {
            let v = v.index();
            let dominated = g
                .neighbor_indices(v)
                .filter(|&u| pos[u] < pos[v])
                .any(|u| candidates[v].is_subset(&candidates[u]));
            if !dominated {
                let members: Vec<u32> = candidates[v].iter().map(|u| u as u32).collect();
                cliques.push(&members);
            }
        }
        cliques
    }

    /// The tree construction that enumerated the cliques itself from `(g, order)`,
    /// with per-vertex `Vec`s and one `BitSet` per bag for pair dedupe.
    fn graph_built_tree(g: &Graph, order: &[Vertex]) -> CliqueTree {
        let n = g.vertex_count();
        let bags: Vec<Vec<Vertex>> = containment_cliques(g, order)
            .iter()
            .map(|c| c.iter().map(|&v| Vertex::new(v as usize)).collect())
            .collect();
        let k = bags.len();
        let bag_sets: Vec<BitSet> = bags
            .iter()
            .map(|bag| BitSet::from_iter_with_capacity(n, bag.iter().map(|v| v.index())))
            .collect();
        let mut bags_of_vertex: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, bag) in bags.iter().enumerate() {
            for v in bag {
                bags_of_vertex[v.index()].push(i);
            }
        }
        let mut edges: Vec<(usize, usize, usize)> = Vec::new();
        let mut paired: Vec<BitSet> = vec![BitSet::new(k); k];
        for list in &bags_of_vertex {
            for (a, &i) in list.iter().enumerate() {
                for &j in &list[a + 1..] {
                    let (lo, hi) = (i.min(j), i.max(j));
                    if paired[lo].insert(hi) {
                        edges.push((bag_sets[lo].intersection_len(&bag_sets[hi]), lo, hi));
                    }
                }
            }
        }
        edges.sort_by_key(|&(w, _, _)| std::cmp::Reverse(w));
        let mut dsu: Vec<usize> = (0..k).collect();
        fn find(dsu: &mut [usize], x: usize) -> usize {
            if dsu[x] != x {
                dsu[x] = find(dsu, dsu[x]);
            }
            dsu[x]
        }
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); k];
        for (_, i, j) in edges {
            let (ri, rj) = (find(&mut dsu, i), find(&mut dsu, j));
            if ri != rj {
                dsu[ri] = rj;
                adj[i].push(j);
                adj[j].push(i);
            }
        }
        let mut parent = vec![None; k];
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut topo = Vec::with_capacity(k);
        let mut visited = vec![false; k];
        for root in 0..k {
            if visited[root] {
                continue;
            }
            let mut stack = vec![root];
            visited[root] = true;
            while let Some(b) = stack.pop() {
                topo.push(b);
                for &c in &adj[b] {
                    if !visited[c] {
                        visited[c] = true;
                        parent[c] = Some(b);
                        children[b].push(c);
                        stack.push(c);
                    }
                }
            }
        }
        CliqueTree {
            bags,
            bag_sets,
            parent,
            children,
            topo,
        }
    }

    #[test]
    fn arena_cliques_and_tree_match_the_graph_built_ones() {
        use crate::generate;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xc1e);
        let mut graphs = vec![Graph::empty(0), Graph::empty(1), Graph::empty(4), figure4()];
        for round in 0..200 {
            let n = rng.gen_range(1..80);
            let tree_size = n + rng.gen_range(0..2 * n);
            let g = generate::random_chordal(&mut rng, n, tree_size, 2 + round % 7);
            // Every other graph gains a second component.
            graphs.push(if round % 2 == 0 {
                g
            } else {
                let mut edges: Vec<(usize, usize)> =
                    g.edges().map(|(u, v)| (u.index(), v.index())).collect();
                edges.extend([(n, n + 1), (n + 1, n + 2), (n, n + 2)]);
                Graph::from_edges(n + 4, &edges)
            });
        }
        let mut pairs = 0;
        for (i, g) in graphs.iter().enumerate() {
            let order = peo::perfect_elimination_order(g).expect("chordal");
            let arena = maximal_cliques(g, &order);
            assert_eq!(arena, containment_cliques(g, &order), "graph {i}");
            let tree = CliqueTree::build(&arena);
            assert_eq!(tree, graph_built_tree(g, &order), "graph {i}");
            assert!(tree.junction_property_holds(), "graph {i}");
            pairs += tree.parent.iter().flatten().count();
        }
        assert!(pairs > 1000, "only {pairs} tree edges");
    }

    #[test]
    fn tree_from_an_interval_arena_sorts_its_bags() {
        use crate::{generate, interval};
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x1b7);
        let profile = generate::IntervalProfile {
            n: 60,
            points: 120,
            mean_len: 10,
            long_lived_percent: 15,
        };
        let ivs = generate::random_interval_set(&mut rng, &profile);
        let arena = interval::maximal_cliques(&ivs);
        assert!(
            arena.iter().any(|c| !c.is_sorted()),
            "the sweep lists some clique out of index order"
        );
        let tree = CliqueTree::build(&arena);
        for (bag, c) in tree.bags.iter().zip(arena.iter()) {
            assert!(bag.is_sorted());
            let mut members: Vec<u32> = c.to_vec();
            members.sort_unstable();
            assert!(bag.iter().map(|v| v.index() as u32).eq(members));
        }
        assert!(tree.junction_property_holds());
    }

    #[test]
    fn separators_are_bag_intersections() {
        let g = figure4();
        let order = peo::perfect_elimination_order(&g).unwrap();
        let t = CliqueTree::build(&maximal_cliques(&g, &order));
        for b in 0..t.bag_count() {
            let sep = t.separator(b);
            if let Some(p) = t.parent[b] {
                assert!(sep.is_subset(&t.bag_sets[b]));
                assert!(sep.is_subset(&t.bag_sets[p]));
            } else {
                assert!(sep.is_empty());
            }
        }
    }
}
