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
//! [`Optimal::try_allocate`] is the one dispatch. Each solver has one
//! entry point, `solve(instance, r, &mut SolveBudget)`, which charges
//! its work against the budget, so a chordal instance whose DP gives
//! up hands branch-and-bound exactly the fuel that is left. The
//! unbudgeted [`Allocator::allocate`] is `try_allocate` under
//! [`OPTIMAL_NODE_LIMIT`], panicking if even that runs out.

pub mod branch_bound;
pub mod chordal_dp;
pub mod flow;

use crate::problem::{Allocation, Allocator, Instance};
use std::time::{Duration, Instant};

/// A cooperative work budget for the exact solvers.
///
/// Two independent caps, both optional in effect:
///
/// * **node fuel** — a deterministic cap on the search/DP work, one
///   unit per branch-and-bound node and per clique-tree DP mask.
///   Exceeding it aborts the solve. A DP's mask count is fixed by its
///   clique tree, so a DP that would exceed the cap is rejected before
///   it enumerates anything, with the same outcome as running out
///   mid-way. Because fuel is counted, not timed, two runs with the same
///   fuel always abort (or complete) at exactly the same point — this
///   is the budget to use when results must be reproducible, e.g.
///   across the [`crate::batch`] worker pool at different thread
///   counts.
/// * **deadline** — a wall-clock cutoff checked cooperatively every
///   few thousand work units. A deadline abort depends on machine
///   speed and load, so results guarded only by a deadline are *not*
///   deterministic; use it as a hard latency guard on top of the fuel.
///
/// [`Optimal::try_allocate`] and the two solvers return `None` when
/// either cap trips — a *bounded* outcome the caller can distinguish
/// from a certified optimum. The solvers take the budget by `&mut` and
/// charge the work they did against [`SolveBudget::node_limit`], so a
/// caller chaining them (as `try_allocate` chains the DP and its
/// branch-and-bound fallback) pays the cap once, not once per solver.
#[derive(Clone, Copy, Debug)]
pub struct SolveBudget {
    /// Search nodes / DP masks left before the solver gives up. Each
    /// solve subtracts the work it charged.
    pub node_limit: u64,
    /// Wall-clock instant after which the solver gives up.
    pub deadline: Option<Instant>,
}

/// Smallest fuel [`scaled_node_fuel`] ever grants: enough for the
/// exact tiers to certify any lao-kernel/JVM98-sized method outright.
pub const MIN_SCALED_NODE_FUEL: u64 = 20_000;

/// Largest fuel [`scaled_node_fuel`] ever grants: caps the worst-case
/// exact-tier latency on the ~200-temporary tail of a JIT corpus at a
/// few milliseconds per function.
pub const MAX_SCALED_NODE_FUEL: u64 = 400_000;

/// Fuel granted per temporary between the two clamps. The curve is
/// linear because branch-and-bound node cost is roughly linear in the
/// vertex count (each node scans a bit row), so constant fuel would
/// give big instances *less* wall-clock than small ones.
pub const SCALED_FUEL_PER_TEMP: u64 = 2_000;

/// The size-adaptive default node fuel:
/// `clamp(SCALED_FUEL_PER_TEMP × n_temps, MIN.., MAX..)`. Purely a
/// function of the instance size, so budgets stay deterministic at
/// any worker count.
pub fn scaled_node_fuel(n_temps: usize) -> u64 {
    (SCALED_FUEL_PER_TEMP.saturating_mul(n_temps as u64))
        .clamp(MIN_SCALED_NODE_FUEL, MAX_SCALED_NODE_FUEL)
}

impl SolveBudget {
    /// No caps: the solver runs to completion (or to the structural
    /// limits like [`chordal_dp::MAX_BAG`]).
    pub fn unlimited() -> Self {
        SolveBudget {
            node_limit: u64::MAX,
            deadline: None,
        }
    }

    /// A deterministic fuel-only budget of `n` work units.
    pub fn nodes(n: u64) -> Self {
        SolveBudget {
            node_limit: n,
            deadline: None,
        }
    }

    /// Adds a wall-clock deadline of `d` from now (`None` leaves the
    /// budget fuel-only). A zero `d` produces an already-expired
    /// budget: every budgeted solve returns `None` immediately.
    pub fn with_time(mut self, d: Option<Duration>) -> Self {
        self.deadline = d.map(|d| Instant::now() + d);
        self
    }

    /// `true` once the wall-clock deadline (if any) has passed.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
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
    /// Budgeted exact solve: like [`Allocator::allocate`] but returns
    /// `None` instead of panicking when `budget` trips before a
    /// certified optimum is found.
    ///
    /// Interval instances always complete (min-cost flow is
    /// polynomial and far below any realistic budget). Chordal
    /// instances try the clique-tree DP first; if the DP gives up
    /// (oversized bag or exhausted fuel), branch-and-bound runs on the
    /// fuel the DP left — the two tiers share one budget, so the total
    /// work never exceeds `node_limit`. General instances go straight
    /// to branch-and-bound. A `None` therefore means "no certified
    /// optimum within the budget", never an error.
    pub fn try_allocate(
        &self,
        instance: &Instance,
        r: u32,
        budget: &SolveBudget,
    ) -> Option<Allocation> {
        if budget.expired() {
            return None;
        }
        if instance.intervals().is_some() {
            return Some(flow::solve(instance, r));
        }
        let mut budget = *budget;
        if instance.is_chordal() {
            if let Some(a) = chordal_dp::solve(instance, r, &mut budget) {
                return Some(a);
            }
            if budget.node_limit == 0 {
                return None;
            }
        }
        branch_bound::solve(instance, r, &mut budget)
    }
}

impl Allocator for Optimal {
    fn name(&self) -> &'static str {
        "Optimal"
    }

    /// Computes a certified optimal allocation:
    /// [`Optimal::try_allocate`] under [`OPTIMAL_NODE_LIMIT`].
    ///
    /// # Panics
    ///
    /// Panics if the solve needs more than [`OPTIMAL_NODE_LIMIT`]
    /// nodes or DP masks (the instance is too large for exact
    /// solving).
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        self.try_allocate(instance, r, &SolveBudget::nodes(OPTIMAL_NODE_LIMIT))
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
        let starved = Optimal.try_allocate(&inst, 2, &SolveBudget::nodes(2));
        assert_eq!(starved, None);
        let fueled = Optimal.try_allocate(&inst, 2, &SolveBudget::nodes(1000));
        assert_eq!(fueled.expect("certifies").spill_cost, 3);

        // A clique beyond MAX_BAG: the DP declines without charging,
        // so branch-and-bound gets the whole budget: 1341 nodes, the
        // size of its complete search tree.
        let n = chordal_dp::MAX_BAG + 2;
        let mut b = GraphBuilder::new(n);
        b.add_clique(&(0..n).collect::<Vec<_>>());
        let weights = (1..=n as Cost).collect();
        let inst = Instance::from_weighted_graph(WeightedGraph::new(b.build(), weights));
        assert!(inst.is_chordal() && inst.intervals().is_none());
        assert_eq!(
            Optimal.try_allocate(&inst, 2, &SolveBudget::nodes(1340)),
            None
        );
        trace::begin(false);
        let a = Optimal
            .try_allocate(&inst, 2, &SolveBudget::nodes(1341))
            .expect("the fallback gets every unit");
        assert_eq!(trace::take().expect("collecting").fuel_consumed, 1341);
        // Keep the two heaviest: spill 1 + … + 22.
        assert_eq!(a.spill_cost, 253);
    }

    #[test]
    fn scaled_fuel_curve_is_pinned() {
        // The curve is part of the determinism contract (cache keys
        // embed the effective fuel), so its exact values are pinned.
        for (n, fuel) in [
            (0, 20_000),
            (5, 20_000),
            (10, 20_000),
            (35, 70_000),
            (100, 200_000),
            (200, 400_000),
            (10_000, 400_000),
        ] {
            assert_eq!(scaled_node_fuel(n), fuel, "scaled_node_fuel({n})");
        }
        // Monotone: more temporaries never means less fuel.
        let mut prev = 0;
        for n in 0..512 {
            let f = scaled_node_fuel(n);
            assert!(f >= prev);
            prev = f;
        }
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
