//! Replays the worked examples of the paper (Figures 2, 5, 6 and 7) and
//! prints each graph in Graphviz DOT syntax alongside the algorithmic
//! result the figure illustrates.
//!
//! Run with: `cargo run --example paper_figures`

use lra::core::layered::Layered;
use lra::core::problem::{Allocator, Instance};
use lra::core::Optimal;
use lra::graph::{dot, peo, stable, GraphBuilder, WeightedGraph};

fn figure5_graph() -> WeightedGraph {
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
    WeightedGraph::new(b.build(), vec![1, 2, 2, 5, 2, 6, 1])
}

fn main() {
    let names5 = ["a", "b", "c", "d", "e", "f", "g"];

    // ------------------------------------------------------------------
    println!("== Figure 5: Frank's maximum weighted stable set ==");
    let wg = figure5_graph();
    let order = peo::perfect_elimination_order(wg.graph()).expect("chordal");
    let set = stable::max_weight_stable_set(&wg, &order);
    let members: Vec<&str> = set.vertices.iter().map(|v| names5[v.index()]).collect();
    println!(
        "maximum weighted stable set = {{{}}} with weight {}",
        members.join(", "),
        set.weight
    );
    let highlight = set.vertices.iter().map(|v| v.index()).collect();
    println!("{}", dot::to_dot(&wg, &names5, Some(&highlight)));

    // ------------------------------------------------------------------
    println!("== Figure 6: the benefit of biasing the weights (R = 2) ==");
    let inst = Instance::from_weighted_graph(figure5_graph());
    let nl = Layered::nl().allocate(&inst, 2);
    let bl = Layered::bl().allocate(&inst, 2);
    println!(
        "NL spill cost = {}, BL spill cost = {}",
        nl.spill_cost, bl.spill_cost
    );
    println!(
        "BL allocates {{{}}}",
        bl.allocated
            .iter()
            .map(|v| names5[v])
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!();

    // ------------------------------------------------------------------
    println!("== Figure 7: the benefit of iterating to a fixed point (R = 2) ==");
    let names7 = ["a", "b", "c", "d", "e", "f"];
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
    let inst7 =
        Instance::from_weighted_graph(WeightedGraph::new(b.build(), vec![4, 5, 1, 3, 2, 1]));
    let nl = Layered::nl().allocate(&inst7, 2);
    let fpl = Layered::fpl().allocate(&inst7, 2);
    println!(
        "NL allocates {{{}}} (cost {}), FPL allocates {{{}}} (cost {})",
        nl.allocated
            .iter()
            .map(|v| names7[v])
            .collect::<Vec<_>>()
            .join(", "),
        nl.spill_cost,
        fpl.allocated
            .iter()
            .map(|v| names7[v])
            .collect::<Vec<_>>()
            .join(", "),
        fpl.spill_cost,
    );
    println!();

    // ------------------------------------------------------------------
    println!("== Figure 2: spill sets are not inclusion-monotone in R ==");
    let g2 = GraphBuilder::new(5);
    let mut g2 = g2;
    for &(u, v) in &[(0, 1), (1, 2), (2, 3), (1, 3), (3, 4)] {
        g2.add_edge(u, v);
    }
    let inst2 = Instance::from_weighted_graph(WeightedGraph::new(g2.build(), vec![3, 2, 1, 2, 3]));
    let names2 = ["a", "b", "c", "d", "e"];
    for r in [1u32, 2] {
        let opt = Optimal.allocate(&inst2, r);
        let spilled: Vec<&str> = opt.spilled_set(&inst2).iter().map(|v| names2[v]).collect();
        println!("R = {r}: optimal spill set = {{{}}}", spilled.join(", "));
    }
    println!("(the R=2 spill set is not contained in the R=1 spill set)");
}
