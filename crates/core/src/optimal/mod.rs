//! Exact (optimal) spill-everywhere solvers.
//!
//! The paper's `Optimal` baseline is an ILP solved by a commercial
//! solver. This reproduction replaces it with three certified-exact
//! combinatorial solvers, dispatched on instance structure:
//!
//! * interval instances → [`flow`]: minimum-cost flow over interval
//!   endpoints (Carlisle–Lloyd / Arkin–Silverberg), polynomial for any
//!   `R` and instance size;
//! * chordal instances → [`chordal_dp`]: dynamic programming over the
//!   clique tree, exponential only in the largest clique;
//! * general instances → [`branch_bound`]: branch-and-bound over
//!   colour assignments with symmetry breaking, for the JVM-sized
//!   graphs of §6.2.
//!
//! [`Optimal::try_allocate`] is the one dispatch. Each solver charges
//! its work against one `&mut SolveBudget`, so a chordal instance
//! whose DP gives up hands branch-and-bound exactly the fuel that is
//! left. The caller picks the fuel: the portfolio grants every
//! escalation the same
//! [`PortfolioConfig::node_budget`](crate::portfolio::PortfolioConfig::node_budget).
//! Branch-and-bound is anytime: out of fuel, it still hands back a
//! cheaper allocation than the caller's incumbent if it found one,
//! marked uncertified. The unbudgeted [`Allocator::allocate`] is
//! `try_allocate` under [`OPTIMAL_NODE_LIMIT`], keeping certified
//! answers only and panicking if even that fuel runs out.

pub mod branch_bound;
pub mod chordal_dp;
pub mod flow;

use crate::baselines::ChaitinBriggs;
use crate::cluster::LayeredHeuristic;
use crate::problem::{Allocation, Allocator, Instance};

/// A cooperative work budget for the exact solvers: node fuel.
///
/// One unit is charged per branch-and-bound node and per clique-tree
/// DP mask, and exceeding the fuel aborts the solve. A DP's mask count
/// is fixed by its clique tree, so a DP that would exceed the fuel is
/// rejected before it enumerates anything, with the same outcome as
/// running out mid-way. Because fuel is counted, not timed, two runs
/// with the same fuel always abort (or complete) at exactly the same
/// point, across the [`crate::batch`] worker pool at any thread count.
///
/// When the fuel runs out, the DP returns `None` and branch-and-bound
/// returns its best allocation marked uncertified (or `None`) — a
/// *bounded* outcome the caller can distinguish from a certified
/// optimum. The solvers take the budget by `&mut` and
/// charge the work they did against [`SolveBudget::node_limit`], so a
/// caller chaining them (as `try_allocate` chains the DP and its
/// branch-and-bound fallback) pays the cap once, not once per solver.
#[derive(Clone, Copy, Debug)]
pub struct SolveBudget {
    /// Search nodes / DP masks left before the solver gives up. Each
    /// solve subtracts the work it charged.
    pub node_limit: u64,
}

impl SolveBudget {
    /// A deterministic budget of `n` work units.
    pub fn nodes(n: u64) -> Self {
        SolveBudget { node_limit: n }
    }

    /// Charges `work` units of node fuel.
    fn charge(&mut self, work: u64) {
        self.node_limit = self.node_limit.saturating_sub(work);
    }
}

/// The node fuel [`Optimal`]'s [`Allocator::allocate`] runs under:
/// far more than any evaluation instance needs, so running out means
/// the instance is too large for exact solving.
pub const OPTIMAL_NODE_LIMIT: u64 = 100_000_000;

/// The exact allocator, dispatching on instance structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Optimal;

impl Optimal {
    /// Budgeted exact solve that tries to beat `incumbent` (the
    /// portfolio's cheap-tier allocation, which is branch-and-bound's
    /// only seed). Reports how the solve ended:
    ///
    /// * `Some((optimum, true))` — a certified optimum, whether or not
    ///   it is cheaper than `incumbent`;
    /// * `Some((better, false))` — the budget tripped, but the search
    ///   held an allocation strictly cheaper than `incumbent`;
    /// * `None` — the budget tripped with nothing cheaper in hand.
    ///
    /// Interval instances always complete (min-cost flow is
    /// polynomial and far below any realistic budget). Chordal
    /// instances try the clique-tree DP first; if the DP gives up
    /// (oversized bag or exhausted fuel), branch-and-bound runs on the
    /// fuel the DP left — the two tiers share one budget, so the total
    /// work never exceeds `node_limit`. General instances go straight
    /// to branch-and-bound.
    pub fn try_allocate(
        &self,
        instance: &Instance,
        r: u32,
        budget: &SolveBudget,
        incumbent: &Allocation,
    ) -> Option<(Allocation, bool)> {
        if instance.intervals().is_some() {
            return Some((flow::solve(instance, r), true));
        }
        let mut budget = *budget;
        if instance.is_chordal() {
            if let Some(a) = chordal_dp::solve(instance, r, &mut budget) {
                return Some((a, true));
            }
            if budget.node_limit == 0 {
                return None;
            }
        }
        branch_bound::solve_from(instance, r, &mut budget, incumbent)
    }

    /// [`Optimal::try_allocate`] seeded with [`certified_seed`],
    /// keeping certified optima only: `None` when `budget` trips,
    /// whatever the search held.
    fn certified(&self, instance: &Instance, r: u32, budget: &SolveBudget) -> Option<Allocation> {
        match self.try_allocate(instance, r, budget, &certified_seed(instance, r))? {
            (a, true) => Some(a),
            (_, false) => None,
        }
    }
}

/// The incumbent of [`Optimal`]'s certified path: the cheaper of `LH`
/// and `GC`. Both matter: branch-and-bound visits vertices by weight,
/// and from `LH` alone it can search for millions of nodes for an
/// `R`-colouring that `GC` finds at once.
fn certified_seed(instance: &Instance, r: u32) -> Allocation {
    let lh = LayeredHeuristic::new().allocate(instance, r);
    let gc = ChaitinBriggs::new().allocate(instance, r);
    if gc.spill_cost < lh.spill_cost {
        gc
    } else {
        lh
    }
}

impl Allocator for Optimal {
    fn name(&self) -> &'static str {
        "Optimal"
    }

    /// Computes a certified optimal allocation under
    /// [`OPTIMAL_NODE_LIMIT`]. An uncertified answer is never
    /// returned: the paper's figures normalise to this one.
    ///
    /// # Panics
    ///
    /// Panics if the solve needs more than [`OPTIMAL_NODE_LIMIT`]
    /// nodes or DP masks (the instance is too large for exact
    /// solving).
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        self.certified(instance, r, &SolveBudget::nodes(OPTIMAL_NODE_LIMIT))
            .unwrap_or_else(|| {
                panic!(
                    "Optimal: branch-and-bound exceeded {} nodes on a {}-vertex instance",
                    OPTIMAL_NODE_LIMIT,
                    instance.vertex_count()
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use lra_graph::{Cost, Graph, GraphBuilder, Interval, WeightedGraph};

    #[test]
    fn dispatch_interval_instance() {
        let inst = Instance::from_intervals(
            vec![
                Interval::new(0, 4),
                Interval::new(1, 5),
                Interval::new(2, 6),
            ],
            vec![3, 5, 4],
        );
        let a = Optimal.allocate(&inst, 2);
        // Three mutually overlapping intervals, two registers: spill the
        // cheapest (3).
        assert_eq!(a.spill_cost, 3);
    }

    #[test]
    fn dispatch_chordal_graph_instance() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![3, 5, 4]));
        let a = Optimal.allocate(&inst, 2);
        assert_eq!(a.spill_cost, 3);
    }

    #[test]
    fn dispatch_general_graph_instance() {
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(c5, vec![1, 1, 1, 1, 1]));
        // C5 with 2 registers: at most 4 vertices allocatable (C5 is
        // 3-chromatic), so the optimum spills exactly one unit.
        let a = Optimal.allocate(&inst, 2);
        assert_eq!(a.spill_cost, 1);
    }

    #[test]
    fn try_allocate_shares_one_budget_across_chordal_tiers() {
        // Chordal, no intervals: the DP runs first. With fuel too
        // small for the DP, the branch-and-bound fallback gets only
        // the leftover (here zero), so the total work stays within
        // node_limit instead of paying the cap once per tier.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![3, 5, 4]));
        let lh = LayeredHeuristic::new().allocate(&inst, 2);
        let starved = Optimal.try_allocate(&inst, 2, &SolveBudget::nodes(2), &lh);
        assert_eq!(starved, None);
        let fueled = Optimal.try_allocate(&inst, 2, &SolveBudget::nodes(1000), &lh);
        let (a, certified) = fueled.expect("certifies");
        assert!(certified);
        assert_eq!(a.spill_cost, 3);

        // A clique beyond MAX_BAG: the DP declines without charging,
        // so branch-and-bound gets the whole budget: 329 nodes, the
        // size of its complete search tree (1,341 before the
        // forward-checking bound: once both colours are in use, every
        // later vertex is forced to spill).
        let n = chordal_dp::MAX_BAG + 2;
        let mut b = GraphBuilder::new(n);
        b.add_clique(&(0..n).collect::<Vec<_>>());
        let weights = (1..=n as Cost).collect();
        let inst = Instance::from_weighted_graph(WeightedGraph::new(b.build(), weights));
        assert!(inst.is_chordal() && inst.intervals().is_none());
        let lh = LayeredHeuristic::new().allocate(&inst, 2);
        // LH already keeps the two heaviest, so one node short of the
        // end the search holds nothing cheaper.
        assert_eq!(
            Optimal.try_allocate(&inst, 2, &SolveBudget::nodes(328), &lh),
            None
        );
        trace::begin(false);
        let (a, certified) = Optimal
            .try_allocate(&inst, 2, &SolveBudget::nodes(329), &lh)
            .expect("the fallback gets every unit");
        assert!(certified);
        assert_eq!(trace::take().expect("collecting").fuel_consumed, 329);
        // Keep the two heaviest: spill 1 + … + 22.
        assert_eq!(a.spill_cost, 253);
    }

    #[test]
    fn optimal_returns_certified_answers_only() {
        // Dense enough that 1,000 nodes cannot finish, while the
        // anytime search holds something cheaper than its seed.
        use lra_graph::generate;
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
        let g = generate::random_general(&mut rng, 30, 40);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(
            g,
            generate::random_weights(&mut rng, 30, 2),
        ));
        let starved = SolveBudget::nodes(1_000);
        // A worse incumbent than LH, so the exhausted search has
        // something to improve on.
        let poor = inst.allocation_from_set(lra_graph::BitSet::new(30));
        let (held, certified) = Optimal
            .try_allocate(&inst, 4, &starved, &poor)
            .expect("the search improves on spilling everything");
        assert!(!certified && held.spill_cost < poor.spill_cost);
        // The allocator's certified arm drops what an exhausted search
        // holds, so `allocate` can only panic at such a fuel.
        assert_eq!(Optimal.certified(&inst, 4, &starved), None);
        assert!(Optimal.allocate(&inst, 4).spill_cost <= held.spill_cost);
    }

    #[test]
    fn figure2_spill_set_inclusion_counterexample() {
        // In the spirit of Figure 2 of the paper (the report's figure
        // labels are ambiguous, so the weights are chosen to make both
        // optima unique): triangle {b, c, d} with pendants a–b and d–e,
        // weights a=3, b=2, c=1, d=2, e=3. Optimal with R=1 allocates
        // the stable set {a, c, e} (spills {b, d}); with R=2 it spills
        // only {c}: the R=2 spill set is NOT included in the R=1 one.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)]);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![3, 2, 1, 2, 3]));
        let r1 = Optimal.allocate(&inst, 1);
        let r2 = Optimal.allocate(&inst, 2);
        let s1 = r1.spilled_set(&inst);
        let s2 = r2.spilled_set(&inst);
        assert_eq!(s1.iter().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(s2.iter().collect::<Vec<_>>(), vec![2]);
        assert!(!s2.is_subset(&s1), "inclusion fails, as the paper shows");
    }
}
