//! Integration tests replaying the paper's worked examples end to end,
//! plus quasi-optimality checks on suite samples — the headline claims
//! of the evaluation, at test scale.

use lra::core::baselines::ChaitinBriggs;
use lra::core::layered::Layered;
use lra::core::problem::{Allocator, Instance};
use lra::core::{verify, LayeredHeuristic, Optimal};
use lra::graph::{GraphBuilder, WeightedGraph};
use lra_bench::suites;

/// Figure 5/6 graph (a..g = 0..6, weights 1,2,2,5,2,6,1).
fn figure6_instance() -> Instance {
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

#[test]
fn figure6_bias_closes_the_gap_to_optimal() {
    let inst = figure6_instance();
    let bl = Layered::bl().allocate(&inst, 2);
    let opt = Optimal.allocate(&inst, 2);
    assert_eq!(opt.spill_cost, 4);
    assert_eq!(bl.spill_cost, opt.spill_cost, "BL is optimal on Figure 6");
}

#[test]
fn figure6_all_layered_variants_feasible_across_r() {
    let inst = figure6_instance();
    for r in 0..=4u32 {
        for alg in [
            Layered::nl(),
            Layered::bl(),
            Layered::fpl(),
            Layered::bfpl(),
        ] {
            let a = alg.allocate(&inst, r);
            if r > 0 {
                assert!(
                    verify::check(&inst, &a, r).is_feasible(),
                    "{} infeasible at R={r}",
                    alg.name()
                );
            }
            let opt = Optimal.allocate(&inst, r);
            assert!(
                a.spill_cost >= opt.spill_cost,
                "{} beat Optimal",
                alg.name()
            );
        }
    }
}

#[test]
fn gc_is_dominated_by_layered_on_the_suite_sample() {
    // The paper's headline comparison, on a small slice of the EEMBC
    // suite: the layered allocators' total cost never exceeds GC's.
    let workloads: Vec<_> = suites::eembc(5).into_iter().take(9).collect();
    for r in [2u32, 4, 8] {
        let mut total_gc = 0u64;
        let mut total_bfpl = 0u64;
        let mut total_opt = 0u64;
        for w in &workloads {
            total_gc += ChaitinBriggs::new().allocate(&w.instance, r).spill_cost;
            total_bfpl += Layered::bfpl().allocate(&w.instance, r).spill_cost;
            total_opt += Optimal.allocate(&w.instance, r).spill_cost;
        }
        assert!(
            total_bfpl <= total_gc,
            "BFPL ({total_bfpl}) worse than GC ({total_gc}) at R={r}"
        );
        assert!(total_bfpl >= total_opt);
        // Quasi-optimality: within 10% of optimal on this sample.
        assert!(
            total_bfpl as f64 <= total_opt as f64 * 1.10 + 1.0,
            "BFPL {total_bfpl} not quasi-optimal vs {total_opt} at R={r}"
        );
    }
}

#[test]
fn lh_close_to_optimal_on_jvm_sample() {
    let workloads: Vec<_> = suites::specjvm98(5).into_iter().take(6).collect();
    for r in [4u32, 6] {
        let mut total_lh = 0u64;
        let mut total_opt = 0u64;
        for w in &workloads {
            let lh = LayeredHeuristic::new().allocate(&w.instance, r);
            assert!(verify::check(&w.instance, &lh, r).is_feasible());
            total_lh += lh.spill_cost;
            total_opt += Optimal.allocate(&w.instance, r).spill_cost;
        }
        assert!(total_lh >= total_opt);
        assert!(
            total_lh as f64 <= total_opt as f64 * 1.15 + 1.0,
            "LH {total_lh} too far from optimal {total_opt} at R={r}"
        );
    }
}

#[test]
fn monotonicity_in_registers() {
    // More registers never increase any allocator's spill cost — the
    // empirical monotonicity that motivates stepwise allocation (§2.3).
    let inst = figure6_instance();
    for alg in [
        Layered::nl(),
        Layered::bl(),
        Layered::fpl(),
        Layered::bfpl(),
    ] {
        let mut prev = u64::MAX;
        for r in 0..=4u32 {
            let cost = alg.allocate(&inst, r).spill_cost;
            assert!(cost <= prev, "{} cost increased with registers", alg.name());
            prev = cost;
        }
    }
}

#[test]
fn spill_set_inclusion_holds_empirically_on_suite_sample() {
    // §2.3: inclusion of optimal spill sets across R holds for the vast
    // majority of instances (99.83% in the paper). Check the weaker,
    // always-true direction: optimal cost is monotone in R; and count
    // that inclusion holds for most of a sample.
    let workloads: Vec<_> = suites::lao_kernels(5).into_iter().take(10).collect();
    let mut inclusion_holds = 0;
    let mut total = 0;
    for w in &workloads {
        let mut prev_spilled: Option<lra_graph::BitSet> = None;
        let mut ok = true;
        for r in 1..=4u32 {
            let a = Optimal.allocate(&w.instance, r);
            let spilled = a.spilled_set(&w.instance);
            if let Some(prev) = &prev_spilled {
                if !spilled.is_subset(prev) {
                    ok = false;
                }
            }
            prev_spilled = Some(spilled);
        }
        total += 1;
        if ok {
            inclusion_holds += 1;
        }
    }
    assert!(
        inclusion_holds * 10 >= total * 7,
        "inclusion held on only {inclusion_holds}/{total} workloads"
    );
}
