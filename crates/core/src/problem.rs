//! Spill-everywhere problem instances and allocation results.
//!
//! An [`Instance`] is a weighted interference graph, optionally enriched
//! with structure the solvers can exploit: a perfect elimination order
//! (present exactly when the graph is chordal — the SSA case — and
//! computed the first time a solver asks for it) and the
//! live intervals of a linearised program (the linear-scan view, present
//! when the instance was built from intervals).
//!
//! Allocators return an [`Allocation`]: the set of variables kept in
//! registers, with a register for each; everything else is spilled, and
//! the **allocation cost** is the total spill cost of the spilled
//! variables — the quantity every figure of the paper reports
//! (normalised to the optimum).

use lra_graph::{
    cliques, coloring, interval, peo, BitSet, Cliques, Cost, Graph, Interval, Vertex, WeightedGraph,
};
use std::sync::OnceLock;

/// A spill-everywhere problem instance.
///
/// The PEO and the maximal cliques are computed on first use and
/// cached: an allocator that never asks for them (`LH`, `GC`) never
/// pays for the chordality test.
#[derive(Clone, Debug)]
pub struct Instance {
    wg: WeightedGraph,
    intervals: Option<Vec<Interval>>,
    // OnceLocks (not cell::OnceCell) so instances stay Sync and can be
    // shared across the `crate::batch` worker pool.
    peo: OnceLock<Option<Vec<Vertex>>>,
    cliques: OnceLock<Option<Cliques>>,
}

impl Instance {
    /// Wraps a weighted graph. Chordality is tested on the first call
    /// that needs a PEO ([`Instance::peo`] and the accessors built on
    /// it), not here.
    pub fn from_weighted_graph(wg: WeightedGraph) -> Self {
        Instance {
            wg,
            intervals: None,
            peo: OnceLock::new(),
            cliques: OnceLock::new(),
        }
    }

    /// Builds an instance from live intervals and per-variable weights.
    ///
    /// The graph is the interval-intersection graph; a PEO (by
    /// increasing right end point) comes for free.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != intervals.len()`.
    pub fn from_intervals(intervals: Vec<Interval>, weights: Vec<Cost>) -> Self {
        assert_eq!(intervals.len(), weights.len(), "one weight per interval");
        let g = interval::interval_graph(&intervals);
        let order = interval::interval_peo(&intervals);
        debug_assert!(peo::is_perfect_elimination_order(&g, &order));
        Instance {
            wg: WeightedGraph::new(g, weights),
            intervals: Some(intervals),
            peo: OnceLock::from(Some(order)),
            cliques: OnceLock::new(),
        }
    }

    /// The weighted interference graph.
    pub fn weighted_graph(&self) -> &WeightedGraph {
        &self.wg
    }

    /// The unweighted interference graph.
    pub fn graph(&self) -> &Graph {
        self.wg.graph()
    }

    /// Number of variables.
    pub fn vertex_count(&self) -> usize {
        self.wg.vertex_count()
    }

    /// `true` if the interference graph is chordal (SSA instances).
    pub fn is_chordal(&self) -> bool {
        self.peo().is_some()
    }

    /// A perfect elimination order, when the graph is chordal. The
    /// first call on an instance not built from intervals runs the
    /// chordality test, one maximum cardinality search that checks each
    /// vertex as it is visited and stops at the first violation (counted as
    /// [`crate::trace::TraceReport::chordality_tests`]); later calls
    /// and clones read the cached answer.
    pub fn peo(&self) -> Option<&[Vertex]> {
        self.peo
            .get_or_init(|| {
                crate::trace::add_chordality_test();
                peo::perfect_elimination_order(self.wg.graph())
            })
            .as_deref()
    }

    /// The live intervals, when the instance came from a linearised
    /// program.
    pub fn intervals(&self) -> Option<&[Interval]> {
        self.intervals.as_deref()
    }

    /// The maximal cliques of a chordal instance (computed once and
    /// cached); `None` for non-chordal instances. Interval instances
    /// take them from the endpoint sweep
    /// ([`lra_graph::interval::maximal_cliques`]), other chordal ones
    /// from the PEO. The fixed point of `FPL`/`BFPL` counts over them,
    /// and the chordal DP sizes its work and builds its clique tree
    /// from them, so neither enumerates the cliques again.
    pub fn maximal_cliques(&self) -> Option<&Cliques> {
        self.cliques
            .get_or_init(|| match &self.intervals {
                Some(ivs) => Some(interval::maximal_cliques(ivs)),
                None => self
                    .peo()
                    .map(|order| cliques::maximal_cliques(self.wg.graph(), order)),
            })
            .as_ref()
    }

    /// MaxLive: the size of the largest clique for chordal instances
    /// (equal to the chromatic number); for general instances, a greedy
    /// clique lower bound.
    pub fn max_live(&self) -> usize {
        // Interval instances carry their PEO from construction, so
        // asking for it here never runs a chordality test on them.
        match (&self.intervals, self.peo()) {
            (Some(ivs), _) => interval::max_overlap(ivs),
            (None, Some(order)) => cliques::max_clique_size(self.wg.graph(), order),
            (None, None) => {
                // Greedy clique heuristic (lower bound on ω).
                let g = self.wg.graph();
                let mut best = usize::from(g.vertex_count() > 0);
                for v in 0..g.vertex_count() {
                    let mut clique = vec![v];
                    for u in g.neighbor_indices(v) {
                        if clique.iter().all(|&c| g.has_edge(c, u)) {
                            clique.push(u);
                        }
                    }
                    best = best.max(clique.len());
                }
                best
            }
        }
    }

    /// Total weight of all variables (the cost of spilling everything).
    pub fn total_weight(&self) -> Cost {
        self.wg.total_weight()
    }

    /// Builds the [`Allocation`] that keeps exactly `allocated` in
    /// registers, colouring the set first-fit along the reverse PEO
    /// (the tree-scan assignment, optimal on chordal graphs). Without a
    /// PEO it colours first-fit in vertex order, which may need more
    /// than `R` colours: allocators on general graphs hand over their
    /// own colouring through [`Instance::allocation_with_colors`].
    /// An empty set needs no order, so it never forces the PEO.
    pub fn allocation_from_set(&self, allocated: BitSet) -> Allocation {
        if allocated.is_empty() {
            return self.allocation_with_colors(allocated, vec![0; self.vertex_count()]);
        }
        let g = self.graph();
        let kept = |v: &Vertex| allocated.contains(v.index());
        let colors = match self.peo() {
            Some(order) => {
                coloring::greedy_coloring_in_order(g, order.iter().rev().copied().filter(kept))
            }
            None => coloring::greedy_coloring_in_order(g, g.vertices().filter(kept)),
        };
        self.allocation_with_colors(allocated, colors)
    }

    /// Builds the [`Allocation`] that keeps exactly `allocated` in
    /// registers, with `colors[v]` the register of each allocated `v`.
    pub fn allocation_with_colors(&self, allocated: BitSet, colors: Vec<u32>) -> Allocation {
        let allocated_weight = self.wg.weight_of_set(&allocated);
        Allocation {
            spill_cost: self.total_weight() - allocated_weight,
            allocated_weight,
            allocated,
            colors,
        }
    }
}

/// The outcome of an allocator on an [`Instance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Variables kept in registers.
    pub allocated: BitSet,
    /// Total spill cost of the variables *not* in `allocated` — the
    /// paper's allocation cost.
    pub spill_cost: Cost,
    /// Total weight of the allocated variables (the dual view).
    pub allocated_weight: Cost,
    /// The witness colouring, one entry per variable: `colors[v]` is
    /// the register of allocated `v`; entries of spilled variables mean
    /// nothing. [`crate::verify::check`] checks it.
    pub colors: Vec<u32>,
}

impl Allocation {
    /// Number of spilled variables.
    pub fn spilled_count(&self, instance: &Instance) -> usize {
        instance.vertex_count() - self.allocated.len()
    }

    /// The spilled variables, as a bit set.
    pub fn spilled_set(&self, instance: &Instance) -> BitSet {
        let mut s = BitSet::full(instance.vertex_count());
        s.difference_with(&self.allocated);
        s
    }
}

/// A spill-everywhere allocator: selects the variables to keep in
/// registers given `r` available registers.
///
/// Implementations must return a *feasible* allocation: its colouring
/// gives every allocated variable a register below `r` and never the
/// same register to two interfering ones (see [`crate::verify`]).
/// Allocators are `Send + Sync`, so one instance
/// can serve every worker of a parallel run.
pub trait Allocator: Send + Sync {
    /// Short name used in experiment tables (`GC`, `NL`, `BFPL`, …).
    fn name(&self) -> &'static str;

    /// Solves `instance` with `r` registers.
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation;
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::Graph;

    fn triangle_instance() -> Instance {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        Instance::from_weighted_graph(WeightedGraph::new(g, vec![4, 5, 6]))
    }

    #[test]
    fn chordal_detection_and_cliques() {
        let inst = triangle_instance();
        assert!(inst.is_chordal());
        assert_eq!(inst.maximal_cliques().unwrap().len(), 1);
        assert_eq!(inst.max_live(), 3);
    }

    #[test]
    fn non_chordal_instance() {
        let c4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::unit(c4));
        assert!(!inst.is_chordal());
        assert!(inst.peo().is_none());
        assert!(inst.maximal_cliques().is_none());
        assert_eq!(inst.max_live(), 2); // greedy clique bound
    }

    #[test]
    fn interval_instance_has_everything() {
        let ivs = vec![
            Interval::new(0, 4),
            Interval::new(2, 6),
            Interval::new(5, 8),
        ];
        let inst = Instance::from_intervals(ivs, vec![1, 2, 3]);
        crate::trace::begin(false);
        assert!(inst.is_chordal());
        assert_eq!(
            crate::trace::take().unwrap().chordality_tests,
            0,
            "PEO came free"
        );
        assert!(inst.intervals().is_some());
        assert_eq!(inst.max_live(), 2);
        assert_eq!(inst.total_weight(), 6);
    }

    #[test]
    fn allocation_costs_are_complementary() {
        let inst = triangle_instance();
        let alloc = inst.allocation_from_set(BitSet::from_iter_with_capacity(3, [1]));
        assert_eq!(alloc.allocated_weight, 5);
        assert_eq!(alloc.spill_cost, 10);
        assert_eq!(alloc.spilled_count(&inst), 2);
        let spilled = alloc.spilled_set(&inst);
        assert!(spilled.contains(0) && spilled.contains(2) && !spilled.contains(1));
    }

    // Lazy caches must not cost the batch pool its shared instances.
    const _: fn() = || {
        fn shared<T: Send + Sync>() {}
        shared::<Instance>();
    };

    #[test]
    fn lh_on_a_non_chordal_precise_instance_never_tests_chordality() {
        use crate::pipeline::{build_instance, InstanceKind};
        use crate::{trace, verify, AllocationPipeline, LayeredHeuristic};
        use lra_ir::genprog::{self, JitConfig};
        use lra_targets::{Target, TargetKind};
        use rand::SeedableRng;

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let target = Target::new(TargetKind::ArmCortexA8);
        let (f, inst) = (0..100)
            .map(|i| {
                let f =
                    genprog::random_jit_function(&mut rng, &JitConfig::default(), format!("f{i}"));
                let inst = build_instance(&f, &target, InstanceKind::PreciseGraph);
                (f, inst)
            })
            .find(|(_, inst)| !peo::is_chordal(inst.graph()))
            .expect("a non-chordal JIT function");
        let n = inst.vertex_count();

        trace::begin(false);
        let alloc = LayeredHeuristic::new().allocate(&inst, 2);
        assert!(verify::check(&inst, &alloc, 2).is_feasible());
        let none = inst.allocation_from_set(BitSet::new(n));
        assert_eq!(none.colors, vec![0; n]);
        assert_eq!(none.spill_cost, inst.total_weight());
        let pipeline = AllocationPipeline::new(target).allocator("LH").registers(2);
        pipeline.run(&f).expect("LH runs on any graph");
        assert_eq!(trace::take().unwrap().chordality_tests, 0);

        trace::begin(false);
        assert!(!inst.is_chordal() && inst.peo().is_none());
        assert_eq!(trace::take().unwrap().chordality_tests, 1);
    }

    #[test]
    fn clones_share_the_one_lazily_computed_peo() {
        use crate::trace;
        use lra_graph::generate;
        use rand::SeedableRng;

        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let g = generate::random_chordal(&mut rng, 30, 40, 5);
        let want = peo::perfect_elimination_order(&g).expect("chordal");
        let inst = Instance::from_weighted_graph(WeightedGraph::unit(g));
        let before = inst.clone();

        trace::begin(false);
        assert_eq!(inst.peo(), Some(&want[..]));
        let after = inst.clone();
        assert_eq!(after.peo(), Some(&want[..]));
        assert_eq!(inst.maximal_cliques(), after.maximal_cliques());
        assert_eq!(
            trace::take().unwrap().chordality_tests,
            1,
            "a clone keeps the cache"
        );

        trace::begin(false);
        assert_eq!(before.peo(), Some(&want[..]));
        assert_eq!(
            trace::take().unwrap().chordality_tests,
            1,
            "an earlier clone tests anew"
        );
    }

    #[test]
    #[should_panic(expected = "one weight per interval")]
    fn interval_weight_mismatch_panics() {
        let _ = Instance::from_intervals(vec![Interval::new(0, 1)], vec![1, 2]);
    }
}
