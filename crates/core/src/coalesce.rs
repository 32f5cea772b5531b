//! Register coalescing on weighted interference graphs.
//!
//! Coalescing merges copy-related variables that do not interfere, so
//! the copy disappears. The paper treats spilling and coalescing as the
//! two residual problems of decoupled allocation and leaves their
//! interaction to future work (§8); this module provides the standard
//! machinery so the layered allocators can be studied on coalesced
//! graphs:
//!
//! * [`Affinities`] — copy/φ-relatedness with move-cost weights,
//! * [`aggressive_coalesce`] — merge every affine non-interfering pair
//!   (maximises removed moves, may increase spilling: merged live
//!   ranges are longer, and the merged graph may lose chordality),
//! * [`conservative_coalesce`] — Briggs' rule: merge only when the
//!   merged vertex has fewer than `R` neighbours of significant degree
//!   (≥ R), which never turns a colourable graph uncolourable.

use crate::problem::Instance;
use lra_graph::{Cost, GraphBuilder, WeightedGraph};

/// Copy-affinities between variables: `(u, v, move_cost)` means a
/// register-to-register move of cost `move_cost` disappears if `u` and
/// `v` get the same register (are merged).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Affinities {
    pairs: Vec<(usize, usize, Cost)>,
}

impl Affinities {
    /// Creates an empty affinity set.
    pub fn new() -> Self {
        Affinities::default()
    }

    /// Records an affinity between `u` and `v` of weight `move_cost`.
    /// Self-affinities are ignored.
    pub fn add(&mut self, u: usize, v: usize, move_cost: Cost) {
        if u != v {
            self.pairs.push((u.min(v), u.max(v), move_cost));
        }
    }

    /// The recorded pairs.
    pub fn pairs(&self) -> &[(usize, usize, Cost)] {
        &self.pairs
    }

    /// Number of affinities.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Returns `true` if no affinity was recorded.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// The outcome of a coalescing pass.
#[derive(Clone, Debug)]
pub struct Coalesced {
    /// The coalesced instance (classes as vertices; weights summed).
    pub instance: Instance,
    /// Map from original vertex to its class (new vertex index).
    pub class_of: Vec<usize>,
    /// Total move cost eliminated by the merges.
    pub saved_moves: Cost,
}

struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let r = self.find(self.parent[x]);
            self.parent[x] = r;
        }
        self.parent[x]
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        self.parent[ra] = rb;
    }
}

/// Shared merge loop: `may_merge` decides whether two interference-free
/// classes may be united.
fn coalesce_with(
    instance: &Instance,
    affinities: &Affinities,
    mut may_merge: impl FnMut(&WeightedGraph, &[Vec<usize>], usize, usize) -> bool,
) -> Coalesced {
    let wg = instance.weighted_graph();
    let g = wg.graph();
    let n = g.vertex_count();
    let mut dsu = Dsu::new(n);
    let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
    let mut saved: Cost = 0;

    // Heaviest moves first, as in classical coalescing.
    let mut pairs = affinities.pairs.clone();
    pairs.sort_by_key(|&(_, _, w)| std::cmp::Reverse(w));

    for (u, v, move_cost) in pairs {
        let (ru, rv) = (dsu.find(u), dsu.find(v));
        if ru == rv {
            saved += move_cost; // already merged by an earlier affinity
            continue;
        }
        // Classes interfere if any cross-member edge exists.
        let interfere = members[ru]
            .iter()
            .any(|&a| members[rv].iter().any(|&b| g.has_edge(a, b)));
        if interfere || !may_merge(wg, &members, ru, rv) {
            continue;
        }
        dsu.union(ru, rv);
        let root = dsu.find(ru);
        let (absorbed, into) = if root == rv { (ru, rv) } else { (rv, ru) };
        let moved = std::mem::take(&mut members[absorbed]);
        members[into].extend(moved);
        saved += move_cost;
    }

    // Compact classes into a new instance.
    let mut class_of = vec![usize::MAX; n];
    let mut new_index = Vec::new(); // root -> new id
    let mut roots = Vec::new();
    for v in 0..n {
        let r = dsu.find(v);
        if class_of[r] == usize::MAX {
            class_of[r] = new_index.len();
            new_index.push(r);
            roots.push(r);
        }
    }
    for v in 0..n {
        let r = dsu.find(v);
        class_of[v] = class_of[r];
    }

    let m = roots.len();
    let mut b = GraphBuilder::new(m);
    for (u, v) in g.edges() {
        let (cu, cv) = (class_of[u.index()], class_of[v.index()]);
        if cu != cv {
            b.add_edge(cu, cv);
        }
    }
    let mut weights = vec![0; m];
    for v in 0..n {
        weights[class_of[v]] += wg.weight(v);
    }
    Coalesced {
        instance: Instance::from_weighted_graph(WeightedGraph::new(b.build(), weights)),
        class_of,
        saved_moves: saved,
    }
}

/// Merges every affine pair whose classes do not interfere, heaviest
/// moves first.
///
/// Aggressive coalescing maximises removed moves but can hurt the
/// allocator: merged classes have the union of the neighbourhoods, and
/// the quotient graph of a chordal graph need not be chordal (the
/// returned [`Instance`] re-detects chordality; non-chordal results are
/// still handled by `LH`/`GC`/branch-and-bound).
pub fn aggressive_coalesce(instance: &Instance, affinities: &Affinities) -> Coalesced {
    coalesce_with(instance, affinities, |_, _, _, _| true)
}

/// Briggs-conservative coalescing: merge only if the merged class has
/// fewer than `r` neighbours of degree ≥ `r` in the current quotient
/// graph (approximated on the original graph). Such merges can never
/// make an `r`-colourable graph uncolourable.
pub fn conservative_coalesce(instance: &Instance, affinities: &Affinities, r: u32) -> Coalesced {
    coalesce_with(instance, affinities, |wg, members, ru, rv| {
        let g = wg.graph();
        // Neighbour classes of the union, by original vertices.
        let mut neighbors: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for &a in members[ru].iter().chain(members[rv].iter()) {
            for u in g.neighbor_indices(a) {
                neighbors.insert(*u as usize);
            }
        }
        let significant = neighbors
            .iter()
            .filter(|&&x| {
                !members[ru].contains(&x) && !members[rv].contains(&x) && g.degree(x) >= r as usize
            })
            .count();
        significant < r as usize
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::Graph;

    fn instance(n: usize, edges: &[(usize, usize)], w: Vec<Cost>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(Graph::from_edges(n, edges), w))
    }

    #[test]
    fn merges_non_interfering_affine_pair() {
        // 0-1 interfere; 1-2 affine and non-interfering.
        let inst = instance(3, &[(0, 1)], vec![1, 2, 4]);
        let mut aff = Affinities::new();
        aff.add(1, 2, 10);
        let c = aggressive_coalesce(&inst, &aff);
        assert_eq!(c.instance.vertex_count(), 2);
        assert_eq!(c.saved_moves, 10);
        assert_eq!(c.class_of[1], c.class_of[2]);
        assert_ne!(c.class_of[0], c.class_of[1]);
        // Merged weight is the sum.
        let merged = c.class_of[1];
        assert_eq!(c.instance.weighted_graph().weight(merged), 6);
    }

    #[test]
    fn interfering_pair_is_not_merged() {
        let inst = instance(2, &[(0, 1)], vec![1, 1]);
        let mut aff = Affinities::new();
        aff.add(0, 1, 100);
        let c = aggressive_coalesce(&inst, &aff);
        assert_eq!(c.instance.vertex_count(), 2);
        assert_eq!(c.saved_moves, 0);
    }

    #[test]
    fn transitive_interference_blocks_merge() {
        // 0 and 2 are affine; merging them is fine. Then 2' (=0+2) and 1
        // interfere through 0, so a second affinity 1-2 must be refused.
        let inst = instance(3, &[(0, 1)], vec![1, 1, 1]);
        let mut aff = Affinities::new();
        aff.add(0, 2, 10);
        aff.add(1, 2, 5);
        let c = aggressive_coalesce(&inst, &aff);
        assert_eq!(c.instance.vertex_count(), 2);
        assert_eq!(c.saved_moves, 10);
    }

    #[test]
    fn heaviest_move_wins_conflicts() {
        // A chain where merging (0,1) [cost 3] and merging (1,2) [cost 9]
        // are both individually legal, but 0 and 2 interfere, so only
        // one can happen: the heavier one.
        let inst = instance(3, &[(0, 2)], vec![1, 1, 1]);
        let mut aff = Affinities::new();
        aff.add(0, 1, 3);
        aff.add(1, 2, 9);
        let c = aggressive_coalesce(&inst, &aff);
        assert_eq!(c.saved_moves, 9);
        assert_eq!(c.class_of[1], c.class_of[2]);
    }

    #[test]
    fn already_merged_pair_counts_its_move() {
        let inst = instance(3, &[], vec![1, 1, 1]);
        let mut aff = Affinities::new();
        aff.add(0, 1, 5);
        aff.add(0, 1, 2); // duplicate affinity: its move also disappears
        let c = aggressive_coalesce(&inst, &aff);
        assert_eq!(c.saved_moves, 7);
        assert_eq!(c.instance.vertex_count(), 2);
    }

    #[test]
    fn conservative_refuses_high_pressure_merge() {
        // Star of high-degree neighbours: merging the two centres would
        // create a node with 4 significant neighbours at R=2.
        let mut edges = vec![];
        // centres 0, 1; neighbours 2..6 each adjacent to a centre and to
        // each other enough to have degree >= 2.
        for x in 2..6 {
            edges.push((0, x));
        }
        for x in 2..6 {
            for y in (x + 1)..6 {
                edges.push((x, y));
            }
        }
        let n = 7;
        let inst = instance(n, &edges, vec![1; 7]);
        let mut aff = Affinities::new();
        aff.add(0, 6, 10); // vertex 6 isolated -> fine even conservatively? no:
                           // merged class neighbours = 2..6, all deg >= 2.
        let conservative = conservative_coalesce(&inst, &aff, 2);
        assert_eq!(conservative.saved_moves, 0, "Briggs must refuse");
        let aggressive = aggressive_coalesce(&inst, &aff);
        assert_eq!(aggressive.saved_moves, 10, "aggressive merges anyway");
    }

    #[test]
    fn conservative_allows_safe_merge() {
        let inst = instance(4, &[(0, 1)], vec![1; 4]);
        let mut aff = Affinities::new();
        aff.add(2, 3, 4);
        let c = conservative_coalesce(&inst, &aff, 2);
        assert_eq!(c.saved_moves, 4);
        assert_eq!(c.instance.vertex_count(), 3);
    }

    #[test]
    fn conservative_preserves_colourability() {
        use lra_graph::{coloring, generate};
        use rand::Rng as _;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        for _ in 0..10 {
            let g = generate::random_chordal(&mut rng, 24, 30, 4);
            let w = generate::random_weights(&mut rng, 24, 2);
            let inst = Instance::from_weighted_graph(WeightedGraph::new(g, w));
            let r = inst.max_live() as u32; // everything colourable
            let mut aff = Affinities::new();
            for _ in 0..12 {
                aff.add(
                    rng.gen_range(0..24),
                    rng.gen_range(0..24),
                    rng.gen_range(1..10),
                );
            }
            let c = conservative_coalesce(&inst, &aff, r);
            let all = lra_graph::BitSet::full(c.instance.vertex_count());
            assert!(
                coloring::exact_coloring(c.instance.graph(), &all, r).is_some(),
                "Briggs merge broke {r}-colourability"
            );
        }
    }

    #[test]
    fn empty_affinities_is_identity() {
        let inst = instance(3, &[(0, 1)], vec![1, 2, 3]);
        let c = aggressive_coalesce(&inst, &Affinities::new());
        assert_eq!(c.instance.vertex_count(), 3);
        assert_eq!(c.saved_moves, 0);
        assert_eq!(c.class_of, vec![0, 1, 2]);
        assert!(Affinities::new().is_empty());
    }
}
