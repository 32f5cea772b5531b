//! Property-based tests of the allocator invariants, driven by seeded
//! random graphs (chordal, interval and general).

use lra::core::baselines::ChaitinBriggs;
use lra::core::layered::Layered;
use lra::core::optimal::{branch_bound, chordal_dp, flow, SolveBudget};
use lra::core::problem::{Allocator, Instance};
use lra::core::{verify, LayeredHeuristic, Optimal};
use lra::graph::{coloring, generate, peo, stable, WeightedGraph};
use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn chordal_instance(seed: u64, n: usize) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::random_chordal(&mut rng, n, n + n / 2, 4);
    let w = generate::random_weights(&mut rng, n, 2);
    Instance::from_weighted_graph(WeightedGraph::new(g, w))
}

fn general_instance(seed: u64, n: usize) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = generate::random_general(&mut rng, n, 30);
    let w = generate::random_weights(&mut rng, n, 2);
    Instance::from_weighted_graph(WeightedGraph::new(g, w))
}

fn interval_instance(seed: u64, n: usize) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let profile = generate::IntervalProfile {
        n,
        points: (n as u32) * 3,
        mean_len: 6,
        long_lived_percent: 15,
    };
    let ivs = generate::random_interval_set(&mut rng, &profile);
    let w = generate::random_weights(&mut rng, n, 2);
    Instance::from_intervals(ivs, w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every layered variant is feasible and bounded by the optimum on
    /// random chordal graphs.
    #[test]
    fn layered_feasible_and_bounded(seed in 0u64..10_000, n in 8usize..40, r in 1u32..6) {
        let inst = chordal_instance(seed, n);
        let opt = Optimal.allocate(&inst, r);
        prop_assert!(verify::check(&inst, &opt, r).is_feasible());
        for alg in [Layered::nl(), Layered::bl(), Layered::fpl(), Layered::bfpl()] {
            let a = alg.allocate(&inst, r);
            prop_assert!(verify::check(&inst, &a, r).is_feasible(), "{} infeasible", alg.name());
            prop_assert!(a.spill_cost >= opt.spill_cost, "{} beat the optimum", alg.name());
            prop_assert_eq!(a.spill_cost + a.allocated_weight, inst.total_weight());
        }
    }

    /// The fixed point never hurts: FPL extends NL's allocation, BFPL
    /// extends BL's.
    #[test]
    fn fixed_point_never_increases_cost(seed in 0u64..10_000, n in 8usize..40, r in 1u32..6) {
        let inst = chordal_instance(seed, n);
        let nl = Layered::nl().allocate(&inst, r);
        let fpl = Layered::fpl().allocate(&inst, r);
        prop_assert!(nl.allocated.is_subset(&fpl.allocated));
        prop_assert!(fpl.spill_cost <= nl.spill_cost);
        let bl = Layered::bl().allocate(&inst, r);
        let bfpl = Layered::bfpl().allocate(&inst, r);
        prop_assert!(bl.allocated.is_subset(&bfpl.allocated));
        prop_assert!(bfpl.spill_cost <= bl.spill_cost);
    }

    /// Frank's algorithm matches brute force on random chordal graphs.
    #[test]
    fn frank_is_exact(seed in 0u64..10_000, n in 4usize..18) {
        let inst = chordal_instance(seed, n);
        let order = peo::perfect_elimination_order(inst.graph()).expect("chordal");
        let fast = stable::max_weight_stable_set(inst.weighted_graph(), &order);
        let slow = stable::max_weight_stable_set_brute(inst.weighted_graph(), None);
        prop_assert_eq!(fast.weight, slow.weight);
        prop_assert!(inst.graph().is_stable_set(
            &fast.vertices.iter().map(|v| v.index()).collect::<Vec<_>>()
        ));
    }

    /// The clique-tree DP and the min-cost-flow solver agree on interval
    /// instances (both are exact).
    #[test]
    fn dp_and_flow_agree(seed in 0u64..10_000, n in 5usize..30, r in 1u32..6) {
        let inst = interval_instance(seed, n);
        let by_flow = flow::solve(&inst, r);
        if let Some(by_dp) = chordal_dp::solve(&inst, r, &mut SolveBudget::nodes(u64::MAX)) {
            prop_assert_eq!(by_flow.spill_cost, by_dp.spill_cost);
        }
        prop_assert!(verify::check(&inst, &by_flow, r).is_feasible());
    }

    /// Branch-and-bound matches the DP on chordal graphs (both exact,
    /// different machinery).
    #[test]
    fn branch_bound_matches_dp(seed in 0u64..10_000, n in 5usize..16, r in 1u32..4) {
        let inst = chordal_instance(seed, n);
        let dp = chordal_dp::solve(&inst, r, &mut SolveBudget::nodes(u64::MAX)).expect("small bags");
        let lh = LayeredHeuristic::new().allocate(&inst, r);
        let (bb, certified) = branch_bound::solve_from(&inst, r, &mut SolveBudget::nodes(50_000_000), &lh).expect("within budget");
        prop_assert!(certified);
        prop_assert_eq!(dp.spill_cost, bb.spill_cost);
    }

    /// LH, GC and branch-and-bound are feasible on arbitrary graphs,
    /// each `Feasible` verdict is confirmed by an exhaustive colouring
    /// search, and no heuristic beats the exact optimum.
    #[test]
    fn general_graph_allocators_sound(seed in 0u64..10_000, n in 5usize..18, r in 1u32..5) {
        let inst = general_instance(seed, n);
        let lh = LayeredHeuristic::new().allocate(&inst, r);
        let gc = ChaitinBriggs::new().allocate(&inst, r);
        let (opt, certified) = branch_bound::solve_from(&inst, r, &mut SolveBudget::nodes(50_000_000), &lh).expect("within budget");
        prop_assert!(certified);
        for (name, a) in [("LH", &lh), ("GC", &gc), ("B&B", &opt)] {
            prop_assert!(verify::check(&inst, a, r).is_feasible(), "{} infeasible", name);
            prop_assert!(
                coloring::exact_coloring(inst.graph(), &a.allocated, r).is_some(),
                "{} verified, yet no {}-colouring exists", name, r
            );
        }
        prop_assert!(lh.spill_cost >= opt.spill_cost);
        prop_assert!(gc.spill_cost >= opt.spill_cost);
    }

    /// Optimal cost is monotone non-increasing in the register count.
    #[test]
    fn optimal_cost_monotone_in_r(seed in 0u64..10_000, n in 6usize..25) {
        let inst = chordal_instance(seed, n);
        let mut prev = u64::MAX;
        for r in 1..=6u32 {
            let c = Optimal.allocate(&inst, r).spill_cost;
            prop_assert!(c <= prev);
            prev = c;
        }
    }

    /// Vertex relabelling does not change any allocator's cost profile
    /// beyond tie-breaking: the optimal cost is isomorphism-invariant.
    #[test]
    fn optimal_is_isomorphism_invariant(seed in 0u64..10_000, n in 6usize..20, r in 1u32..4) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::random_chordal(&mut rng, n, n + 5, 4);
        let w = generate::random_weights(&mut rng, n, 2);
        let (h, perm) = generate::shuffle_vertices(&mut rng, &g);
        let mut wp = vec![0; n];
        for v in 0..n {
            wp[perm[v]] = w[v];
        }
        let a = Optimal.allocate(&Instance::from_weighted_graph(WeightedGraph::new(g, w)), r);
        let b = Optimal.allocate(&Instance::from_weighted_graph(WeightedGraph::new(h, wp)), r);
        prop_assert_eq!(a.spill_cost, b.spill_cost);
    }

    /// A random extra stable set can never be added to an optimal
    /// allocation (optimality certificate sanity).
    #[test]
    fn optimum_is_maximal(seed in 0u64..10_000, n in 6usize..20, r in 1u32..4) {
        let inst = chordal_instance(seed, n);
        let opt = Optimal.allocate(&inst, r);
        // Adding any single spilled vertex must be infeasible or
        // weight-neutral (zero-weight vertices may be interchangeable).
        let spilled = opt.spilled_set(&inst);
        for v in spilled.iter() {
            if inst.weighted_graph().weight(v) == 0 {
                continue;
            }
            let mut bigger = opt.allocated.clone();
            bigger.insert(v);
            prop_assert!(
                coloring::exact_coloring(inst.graph(), &bigger, r).is_none(),
                "optimal allocation missed a free vertex {v}"
            );
        }
    }
}

/// Non-proptest randomised check: LS respects its interval semantics on
/// bigger instances than proptest would comfortably drive.
#[test]
fn linear_scan_feasibility_at_scale() {
    use lra::core::baselines::LinearScan;
    for seed in 0..5u64 {
        let inst = interval_instance(seed, 300);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xabcd);
        let r = rng.gen_range(2..20);
        let a = LinearScan::new().allocate(&inst, r);
        assert!(verify::check(&inst, &a, r).is_feasible());
    }
}
