//! The layered-optimal allocator for chordal (SSA) instances.
//!
//! This is the paper's central contribution (Algorithm 2 plus the two
//! improvements of §4.1 and §4.2). Instead of incrementally *spilling*
//! variables, the allocator incrementally *allocates* layers: each layer
//! is a **maximum weighted stable set** of the not-yet-allocated
//! variables, computed exactly by Frank's algorithm on the chordal
//! graph. A stable set raises the register pressure by at most one
//! everywhere, so `R` layers fill `R` registers and the union is
//! guaranteed `R`-colourable.
//!
//! Variants (paper names):
//!
//! * **NL** — plain Algorithm 2.
//! * **BL** — biased weights `w'(v) = w(v)·|V| + deg(v)` (§4.1): among
//!   equal-weight stable sets, prefer the one removing the most
//!   interferences.
//! * **FPL** — after the `R` layers, keep allocating single variables
//!   whose maximal cliques still have fewer than `R` allocated members,
//!   to a fixed point (§4.2, Algorithms 3–4).
//! * **BFPL** — bias + fixed point.
//!
//! Complexity: `O(R(|V|²/64 + |E|))` — each layer is one Frank pass
//! over the adjacency bit rows; the fixed-point bookkeeping touches each clique membership a
//! constant number of times per allocated vertex.

use crate::problem::{Allocation, Allocator, Instance};
use lra_graph::{stable, BitSet, Cost, Vertex, WeightedGraph};

/// Configuration of the layered allocator family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layered {
    /// Apply the §4.1 weight bias (`BL`/`BFPL`).
    pub bias: bool,
    /// Iterate to a fixed point after the `R` layers (`FPL`/`BFPL`).
    pub fixed_point: bool,
}

impl Layered {
    /// `NL`: naive layered allocation (Algorithm 2 as published).
    pub fn nl() -> Self {
        Layered {
            bias: false,
            fixed_point: false,
        }
    }

    /// `BL`: layered with biased weights.
    pub fn bl() -> Self {
        Layered {
            bias: true,
            fixed_point: false,
        }
    }

    /// `FPL`: layered iterated to a fixed point.
    pub fn fpl() -> Self {
        Layered {
            bias: false,
            fixed_point: true,
        }
    }

    /// `BFPL`: biased and iterated to a fixed point.
    pub fn bfpl() -> Self {
        Layered {
            bias: true,
            fixed_point: true,
        }
    }
}

/// Computes the §4.1 biased weights: `w'(v) = w(v)·|V| + deg(v)`.
///
/// The bias preserves the strict weight order and breaks ties towards
/// vertices with more neighbours, whose allocation removes more
/// interferences from the residual problem.
pub fn biased_weights(wg: &WeightedGraph) -> Vec<Cost> {
    let n = wg.vertex_count() as Cost;
    (0..wg.vertex_count())
        .map(|v| {
            wg.weight(v)
                .saturating_mul(n)
                .saturating_add(wg.graph().degree(v) as Cost)
        })
        .collect()
}

impl Allocator for Layered {
    fn name(&self) -> &'static str {
        match (self.bias, self.fixed_point) {
            (false, false) => "NL",
            (true, false) => "BL",
            (false, true) => "FPL",
            (true, true) => "BFPL",
        }
    }

    /// Runs layered allocation.
    ///
    /// # Panics
    ///
    /// Panics if `instance` is not chordal; use
    /// [`crate::cluster::LayeredHeuristic`] (`LH`) for general graphs.
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        let order = instance
            .peo()
            .expect("layered-optimal allocation requires a chordal instance");
        let wg = instance.weighted_graph();
        let n = wg.vertex_count();

        // Selection weights (possibly biased); reported costs always use
        // the raw weights via `allocation_from_set`.
        let selection = if self.bias {
            WeightedGraph::new(wg.graph().clone(), biased_weights(wg))
        } else {
            wg.clone()
        };

        let mut candidates = BitSet::full(n);
        let mut allocated = BitSet::new(n);

        // Algorithm 2: `r` layers, each one maximum weighted stable set
        // of the remaining candidates (Frank).
        for _ in 0..r {
            if candidates.is_empty() {
                break;
            }
            let layer =
                stable::max_weight_stable_set_restricted(&selection, order, Some(&candidates));
            if layer.vertices.is_empty() {
                break; // only zero-weight candidates remain
            }
            for v in &layer.vertices {
                allocated.insert(v.index());
                candidates.remove(v.index());
            }
        }

        if self.fixed_point && r > 0 {
            fixed_point_extension(
                instance,
                &selection,
                order,
                &mut allocated,
                &mut candidates,
                r,
            );
        }

        instance.allocation_from_set(allocated)
    }
}

/// Algorithms 3–4: keep allocating while some variable's maximal
/// cliques all have fewer than `r` allocated members.
fn fixed_point_extension(
    instance: &Instance,
    selection: &WeightedGraph,
    order: &[Vertex],
    allocated: &mut BitSet,
    candidates: &mut BitSet,
    r: u32,
) {
    let cliques = instance
        .maximal_cliques()
        .expect("chordal instance has maximal cliques");
    let n = instance.vertex_count();

    // vertex -> cliques containing it, flat: the ids of `v`'s cliques
    // are `ids[start[v]..start[v + 1]]` (counts, then prefix sums).
    let mut start = vec![0u32; n + 1];
    for &v in cliques.members() {
        start[v as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut ids = vec![0u32; cliques.members().len()];
    let mut cursor = start.clone();
    for (ci, clique) in cliques.iter().enumerate() {
        for &v in clique {
            ids[cursor[v as usize] as usize] = ci as u32;
            cursor[v as usize] += 1;
        }
    }
    let cliques_of = |v: usize| &ids[start[v] as usize..start[v + 1] as usize];
    let mut allocated_per_clique = vec![0u32; cliques.len()];
    let mut clique_full = vec![false; cliques.len()];

    // Algorithm 4 (UPDATE) for a batch of freshly allocated vertices.
    let update = |fresh: &[Vertex],
                  allocated_per_clique: &mut [u32],
                  clique_full: &mut [bool],
                  candidates: &mut BitSet| {
        for v in fresh {
            for &ci in cliques_of(v.index()) {
                let ci = ci as usize;
                if clique_full[ci] {
                    continue;
                }
                allocated_per_clique[ci] += 1;
                if allocated_per_clique[ci] >= r {
                    clique_full[ci] = true;
                    for &u in cliques.get(ci) {
                        candidates.remove(u as usize);
                    }
                }
            }
        }
    };

    // Initial update with everything allocated by the R layers.
    let initial: Vec<Vertex> = allocated.iter().map(Vertex::new).collect();
    update(
        &initial,
        &mut allocated_per_clique,
        &mut clique_full,
        candidates,
    );

    // Iterate to the fixed point.
    while !candidates.is_empty() {
        let layer = stable::max_weight_stable_set_restricted(selection, order, Some(candidates));
        if layer.vertices.is_empty() {
            break;
        }
        for v in &layer.vertices {
            allocated.insert(v.index());
            candidates.remove(v.index());
        }
        update(
            &layer.vertices,
            &mut allocated_per_clique,
            &mut clique_full,
            candidates,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{Graph, GraphBuilder};

    /// Figure 5(a)/6 of the paper: a..g = 0..6 with weights
    /// 1,2,2,5,2,6,1 (edges reconstructed from the Figure 5(b) trace).
    fn figure6() -> Instance {
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
        Instance::from_weighted_graph(WeightedGraph::new(b.build(), vec![1, 2, 2, 5, 2, 6, 1]))
    }

    /// Figure 7(a): a..f = 0..5. Weights chosen to satisfy the paper's
    /// narrative (the report's figure labels are ambiguous): NL with
    /// R=2 allocates exactly {a, b, d}; f is blocked by the full clique
    /// {a, d, f}; FPL can still add e (or c).
    fn figure7() -> Instance {
        let mut b = GraphBuilder::new(6);
        for &(u, v) in &[
            (0, 3),
            (0, 5),
            (3, 5),
            (3, 4),
            (2, 3),
            (2, 4),
            (4, 5),
            (1, 2),
            (1, 4),
        ] {
            b.add_edge(u, v);
        }
        Instance::from_weighted_graph(WeightedGraph::new(b.build(), vec![4, 5, 1, 3, 2, 1]))
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Layered::nl().name(), "NL");
        assert_eq!(Layered::bl().name(), "BL");
        assert_eq!(Layered::fpl().name(), "FPL");
        assert_eq!(Layered::bfpl().name(), "BFPL");
    }

    #[test]
    fn bias_preserves_weight_order() {
        let inst = figure6();
        let biased = biased_weights(inst.weighted_graph());
        let raw = inst.weighted_graph().weights();
        for u in 0..7 {
            for v in 0..7 {
                if raw[u] < raw[v] {
                    assert!(biased[u] < biased[v]);
                }
            }
        }
    }

    /// Figure 6: with R=2, the unbiased allocator may pick
    /// the stable set {b, f}; the bias makes it pick {c, f} (c has more
    /// neighbours), which lets the second layer allocate {b, d} and
    /// saves one cost unit overall.
    #[test]
    fn bias_fig6_improves_allocation() {
        let inst = figure6();
        let nl = Layered::nl().allocate(&inst, 2);
        let bl = Layered::bl().allocate(&inst, 2);
        // Both are feasible.
        assert!(verify::check(&inst, &nl, 2).is_feasible());
        assert!(verify::check(&inst, &bl, 2).is_feasible());
        // BL spills {a, e, g} = 4; NL at best spills {a, c, e} = 5.
        assert_eq!(bl.spill_cost, 4);
        assert!(
            bl.allocated.contains(2) && bl.allocated.contains(5),
            "BL picks c and f first"
        );
        assert!(
            bl.allocated.contains(1) && bl.allocated.contains(3),
            "then b and d"
        );
        assert!(nl.spill_cost >= bl.spill_cost);
    }

    /// Figure 7: the R layers allocate {a, b, d}; the fixed point can
    /// still add e (or c) because no maximal clique containing it has 2
    /// allocated vertices.
    #[test]
    fn fixed_point_fig7_adds_vertex() {
        let inst = figure7();
        let nl = Layered::nl().allocate(&inst, 2);
        assert_eq!(
            nl.allocated.iter().collect::<Vec<_>>(),
            vec![0, 1, 3],
            "NL allocates a, b, d"
        );
        let fpl = Layered::fpl().allocate(&inst, 2);
        assert!(
            fpl.allocated.len() > nl.allocated.len(),
            "FPL adds a vertex"
        );
        assert!(verify::check(&inst, &fpl, 2).is_feasible());
        // f (vertex 5) can never be added: clique {a, d, f} is full.
        assert!(!fpl.allocated.contains(5));
        assert!(fpl.spill_cost < nl.spill_cost);
    }

    #[test]
    fn zero_registers_allocates_nothing() {
        let inst = figure6();
        for alg in [
            Layered::nl(),
            Layered::bl(),
            Layered::fpl(),
            Layered::bfpl(),
        ] {
            let a = alg.allocate(&inst, 0);
            assert!(a.allocated.is_empty());
            assert_eq!(a.spill_cost, inst.total_weight());
        }
    }

    /// At R = MaxLive the whole graph is allocatable. The fixed-point
    /// variants achieve zero spills; plain NL/BL may not (stepwise
    /// optimality is not global optimality — this gap is precisely what
    /// motivates the §4.2 improvement).
    #[test]
    fn enough_registers_fixed_point_allocates_everything() {
        let inst = figure6();
        let ml = inst.max_live() as u32;
        for alg in [Layered::fpl(), Layered::bfpl()] {
            let a = alg.allocate(&inst, ml);
            assert_eq!(
                a.spill_cost,
                0,
                "{} should spill nothing at R=MaxLive",
                alg.name()
            );
            assert!(verify::check(&inst, &a, ml).is_feasible());
        }
        for alg in [Layered::nl(), Layered::bl()] {
            let a = alg.allocate(&inst, ml);
            assert!(verify::check(&inst, &a, ml).is_feasible());
        }
    }

    #[test]
    fn single_register_allocates_max_stable_set() {
        let inst = figure6();
        let a = Layered::nl().allocate(&inst, 1);
        // Max weighted stable set has weight 8 ({b,f} or {c,f}).
        assert_eq!(a.allocated_weight, 8);
        assert!(verify::check(&inst, &a, 1).is_feasible());
    }

    #[test]
    fn layers_are_feasible_on_a_path() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![5, 9, 5, 9, 5]));
        let a = Layered::nl().allocate(&inst, 1);
        // One register on a path: best stable set {1, 3} (18) beats
        // {0, 2, 4} (15).
        assert_eq!(a.allocated_weight, 18);
        assert!(verify::check(&inst, &a, 1).is_feasible());
    }

    /// The fixed point as it ran on per-clique `Vec`s and a
    /// `Vec<Vec<u32>>` vertex-to-clique index, on top of the same `R`
    /// layers (`BL`/`NL` are `BFPL`/`FPL` without the fixed point).
    fn reference_fixed_point(instance: &Instance, bias: bool, r: u32) -> Allocation {
        let layers = Layered {
            bias,
            fixed_point: false,
        };
        let mut allocated = layers.allocate(instance, r).allocated;
        if r == 0 {
            return instance.allocation_from_set(allocated);
        }
        let wg = instance.weighted_graph();
        let n = wg.vertex_count();
        let order = instance.peo().unwrap();
        let selection = if bias {
            WeightedGraph::new(wg.graph().clone(), biased_weights(wg))
        } else {
            wg.clone()
        };
        let cliques: Vec<Vec<Vertex>> = lra_graph::maximal_cliques(wg.graph(), order)
            .iter()
            .map(|c| c.iter().map(|&v| Vertex::new(v as usize)).collect())
            .collect();
        let mut cliques_of: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (ci, clique) in cliques.iter().enumerate() {
            for v in clique {
                cliques_of[v.index()].push(ci as u32);
            }
        }
        let mut count = vec![0u32; cliques.len()];
        let mut full = vec![false; cliques.len()];
        let mut candidates = BitSet::full(n);
        candidates.difference_with(&allocated);
        let mut fresh: Vec<Vertex> = allocated.iter().map(Vertex::new).collect();
        loop {
            for v in &fresh {
                for &ci in &cliques_of[v.index()] {
                    let ci = ci as usize;
                    if !full[ci] {
                        count[ci] += 1;
                        if count[ci] >= r {
                            full[ci] = true;
                            for u in &cliques[ci] {
                                candidates.remove(u.index());
                            }
                        }
                    }
                }
            }
            if candidates.is_empty() {
                break;
            }
            let layer =
                stable::max_weight_stable_set_restricted(&selection, order, Some(&candidates));
            if layer.vertices.is_empty() {
                break;
            }
            for v in &layer.vertices {
                allocated.insert(v.index());
                candidates.remove(v.index());
            }
            fresh = layer.vertices;
        }
        instance.allocation_from_set(allocated)
    }

    #[test]
    fn fixed_point_matches_the_per_clique_vec_reference() {
        use lra_graph::generate;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(29);
        for trial in 0..120 {
            let n = rng.gen_range(1..90);
            let inst = if trial % 2 == 0 {
                let profile = generate::IntervalProfile {
                    n,
                    points: rng.gen_range(2..3 * n as u32 + 3),
                    mean_len: rng.gen_range(1..8),
                    long_lived_percent: rng.gen_range(0..30),
                };
                let ivs = generate::random_interval_set(&mut rng, &profile);
                Instance::from_intervals(ivs, generate::random_weights(&mut rng, n, 3))
            } else {
                let g = generate::random_chordal(&mut rng, n, n + 10, 5);
                let w = generate::random_weights(&mut rng, n, 3);
                Instance::from_weighted_graph(WeightedGraph::new(g, w))
            };
            for r in [0, 1, 2, 3, 4, 6, 8] {
                for (alg, bias) in [(Layered::bfpl(), true), (Layered::fpl(), false)] {
                    assert_eq!(
                        alg.allocate(&inst, r),
                        reference_fixed_point(&inst, bias, r),
                        "trial {trial}: {n} vertices, {} at R={r}",
                        alg.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "chordal")]
    fn non_chordal_instance_panics() {
        let c4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::unit(c4));
        let _ = Layered::nl().allocate(&inst, 2);
    }
}
