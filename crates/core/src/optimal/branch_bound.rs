//! Exact allocation on general graphs by branch-and-bound.
//!
//! For non-chordal (non-SSA) instances, "maximum-weight `R`-colourable
//! induced subgraph" has no polynomial structure to exploit, so we
//! search: vertices are processed in decreasing-weight order and each is
//! either assigned one of the colours `0..R` or spilled. Colour symmetry
//! is broken by allowing at most one previously unused colour per
//! vertex; the incumbent is seeded with the best heuristic solution
//! (`GC` and `LH`) so pruning bites immediately; the bound is the spill
//! cost accumulated so far (every completion only adds spills).
//!
//! The search runs in *search-position* space: vertices are renumbered
//! once into their visit order, so the vertex at position `i` can only
//! conflict with positions `< i` — the only ones holding a colour.
//! Every row is a bit set over positions of one fixed width of `W`
//! words, `W = ⌈n/64⌉`: position `i`'s row holds just its earlier
//! neighbours (the bits at `≥ i` stay zero), all rows packed at stride
//! `W` in one flat `Vec<u64>`, and the colours are one flat `R × W`
//! array of rows over positions. A colour is free for position `i` iff
//! its row misses the earlier neighbours. No per-node allocated set is
//! kept: an improving leaf copies the colour rows, which are both the
//! allocated set and its witness colouring.
//!
//! There is one search body, generic over the row width: instances of
//! up to 256 vertices run it at a compile-time width of 1–4 words, where
//! each colour test is an unrolled, branch-free AND over the whole row,
//! and wider ones at a run-time width, where it reads only the words
//! that can hold an earlier position and stops at the first shared bit.
//! Fuel and deadline are tested together at one precomputed node count
//! (the next deadline stride or the end of the fuel, whichever is
//! first), so counting a node costs one comparison. A child that cannot
//! beat the best solution is counted where it is generated — the same
//! node, fuel and deadline accounting a visit would do — instead of
//! being visited by a recursive call.
//!
//! The solver returns `None` if the budget is exhausted, so a caller can
//! distinguish *certified* optima from timeouts. Sparse graphs of a few
//! hundred vertices can complete; a dense 40-vertex one may not.

use super::SolveBudget;
use crate::baselines::ChaitinBriggs;
use crate::cluster::LayeredHeuristic;
use crate::problem::{Allocation, Allocator, Instance};
use crate::trace;
use lra_graph::{BitSet, Cost, Graph};
use std::time::Instant;

/// How many search nodes pass between cooperative deadline checks.
const DEADLINE_STRIDE: u64 = 4096;

/// A row width in `u64` words: [`Words`] fixes it at compile time,
/// a `usize` carries it at run time.
trait Width: Copy {
    /// The row stride in words.
    fn words(self) -> usize;

    /// How many leading words of position `i`'s row a colour test
    /// reads: all of them at a compile-time width, only those that can
    /// hold a position `< i` at a run-time width.
    fn live(self, i: usize) -> usize;

    /// `true` iff the rows `a` and `b` share no bit: one unrolled,
    /// branch-free pass at a compile-time width, a scan that stops at
    /// the first shared bit at a run-time width.
    fn disjoint(self, a: &[u64], b: &[u64]) -> bool;
}

/// The compile-time row width of `W` words.
#[derive(Clone, Copy)]
struct Words<const W: usize>;

impl<const W: usize> Width for Words<W> {
    #[inline(always)]
    fn words(self) -> usize {
        W
    }

    #[inline(always)]
    fn live(self, _: usize) -> usize {
        W
    }

    #[inline(always)]
    fn disjoint(self, a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).fold(0, |acc, (&x, &y)| acc | x & y) == 0
    }
}

impl Width for usize {
    #[inline(always)]
    fn words(self) -> usize {
        self
    }

    #[inline(always)]
    fn live(self, i: usize) -> usize {
        i / 64 + 1
    }

    #[inline(always)]
    fn disjoint(self, a: &[u64], b: &[u64]) -> bool {
        !a.iter().zip(b).any(|(&x, &y)| x & y != 0)
    }
}

/// The branch-and-bound search over rows of width `X`.
struct Kernel<'a, X> {
    width: X,
    /// Earlier neighbours of position `i`: the row
    /// `earlier[i * W..(i + 1) * W]`.
    earlier: Vec<u64>,
    /// Spill weight of the vertex at each position.
    weight: &'a [Cost],
    /// Positions holding each colour: row `c` is
    /// `colours[c * W..(c + 1) * W]`.
    colours: Vec<u64>,
    r: u32,
    best_spill: Cost,
    /// The colour rows of the best solution found.
    best_colours: Vec<u64>,
    nodes: u64,
    /// The next node count at which [`Kernel::count_node`] looks at
    /// the fuel or the clock: the first count past `node_limit` or the
    /// next multiple of [`DEADLINE_STRIDE`], whichever comes first.
    checkpoint: u64,
    node_limit: u64,
    deadline: Option<Instant>,
}

/// The search's input, in search-position space.
struct Problem<'a> {
    g: &'a Graph,
    /// The vertex at each position.
    order: Vec<usize>,
    /// Spill weight of the vertex at each position.
    weight: Vec<Cost>,
    r: u32,
    /// Spill cost of the heuristic incumbent the search must beat.
    incumbent_spill: Cost,
}

impl<'a, X: Width> Kernel<'a, X> {
    /// Builds the rows of `p`'s search at row width `width`.
    fn new(width: X, p: &'a Problem<'_>, budget: &SolveBudget) -> Self {
        let w = width.words();
        let n = p.order.len();
        let mut position = vec![0; n];
        for (i, &v) in p.order.iter().enumerate() {
            position[v] = i;
        }
        let mut earlier = vec![0; n * w];
        for (i, &v) in p.order.iter().enumerate() {
            for &u in p.g.neighbor_indices(v) {
                let q = position[u as usize];
                if q < i {
                    earlier[i * w + q / 64] |= 1 << (q % 64);
                }
            }
        }
        // min(r, n) rows: the search can never use more colours than
        // vertices, and an absurd caller-supplied R must not allocate R
        // bit rows.
        let colours = vec![0; (p.r as usize).min(n) * w];
        Kernel {
            width,
            earlier,
            weight: &p.weight,
            best_colours: colours.clone(),
            colours,
            r: p.r,
            // `run` records strictly better solutions only, so start one
            // above the incumbent; if nothing beats it, it stands.
            best_spill: p.incumbent_spill + 1,
            nodes: 0,
            checkpoint: budget.node_limit.saturating_add(1).min(DEADLINE_STRIDE),
            node_limit: budget.node_limit,
            deadline: budget.deadline,
        }
    }

    /// Charges one search node: `false` once the fuel is spent or, at
    /// every [`DEADLINE_STRIDE`]th node, the deadline has passed.
    #[inline(always)]
    fn count_node(&mut self) -> bool {
        self.nodes += 1;
        self.nodes < self.checkpoint || self.at_checkpoint()
    }

    /// [`Kernel::count_node`] at a checkpoint: the fuel test, the
    /// deadline test, and the next checkpoint.
    #[cold]
    fn at_checkpoint(&mut self) -> bool {
        if self.nodes > self.node_limit {
            return false;
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                return false;
            }
        }
        self.checkpoint = (self.nodes + DEADLINE_STRIDE).min(self.node_limit.saturating_add(1));
        true
    }

    /// Visits the child node at position `i`: one that cannot improve
    /// on the best solution is counted in place, the rest are searched.
    #[inline(always)]
    fn child(&mut self, i: usize, spill: Cost, used_colors: u32) -> bool {
        if spill >= self.best_spill {
            return self.count_node();
        }
        self.run(i, spill, used_colors)
    }

    /// Searches the subtree at position `i` with `spill` charged so
    /// far, which must be below the best spill. Returns `false` when
    /// the budget aborts the search.
    fn run(&mut self, i: usize, spill: Cost, used_colors: u32) -> bool {
        if !self.count_node() {
            return false;
        }
        if i == self.weight.len() {
            self.best_spill = spill;
            self.best_colours.copy_from_slice(&self.colours);
            return true;
        }
        let w = self.width.words();
        let (word, bit) = (i / 64, 1u64 << (i % 64));

        // Try colours first (allocating is never charged), with symmetry
        // breaking: at most one fresh colour.
        let limit = (used_colors + 1).min(self.r);
        let live = self.width.live(i);
        for c in 0..limit {
            let base = c as usize * w;
            let row = &self.earlier[i * w..i * w + live];
            if !self.width.disjoint(row, &self.colours[base..base + live]) {
                continue; // an earlier neighbour holds this colour
            }
            self.colours[base + word] |= bit;
            let ok = self.child(i + 1, spill, used_colors.max(c + 1));
            self.colours[base + word] &= !bit;
            if !ok {
                return false;
            }
        }

        // Spill branch.
        let spill = spill + self.weight[i];
        self.child(i + 1, spill, used_colors)
    }
}

/// What one search left behind: whether it completed, the nodes it
/// visited, and its best solution (meaningful only if it beat the
/// incumbent, i.e. `best_spill <= incumbent_spill`).
struct Outcome {
    completed: bool,
    nodes: u64,
    best_spill: Cost,
    best_colours: Vec<u64>,
}

/// Runs `p`'s search at row width `width`.
fn search<X: Width>(width: X, p: &Problem<'_>, budget: &SolveBudget) -> Outcome {
    let mut kernel = Kernel::new(width, p, budget);
    let completed = kernel.run(0, 0, 0);
    Outcome {
        completed,
        nodes: kernel.nodes,
        best_spill: kernel.best_spill,
        best_colours: kernel.best_colours,
    }
}

/// Solves `instance` exactly with `r` registers under `budget`: each
/// search node costs one unit of node fuel, charged against
/// `budget.node_limit` (an exhausted search is charged all of it), and
/// the wall-clock deadline is checked every few thousand nodes.
/// Returns `None` when either cap trips (no certified optimum). The
/// nodes visited go to [`trace::add_fuel_consumed`].
pub fn solve(instance: &Instance, r: u32, budget: &mut SolveBudget) -> Option<Allocation> {
    if budget.expired() {
        return None;
    }
    let n = instance.vertex_count();
    if r == 0 {
        return Some(instance.allocation_from_set(BitSet::new(n)));
    }

    // Incumbent: the better of the two polynomial heuristics. LH works
    // on any graph; GC too.
    let seed_a = LayeredHeuristic::new().allocate(instance, r);
    let seed_b = ChaitinBriggs::new().allocate(instance, r);
    let incumbent = std::cmp::min_by_key(seed_a, seed_b, |a| a.spill_cost);

    let g = instance.graph();
    let wg = instance.weighted_graph();
    // Decreasing weight puts expensive spills early (strong bounds);
    // ties broken by degree so constrained vertices are decided first.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&v| std::cmp::Reverse((wg.weight(v), g.degree(v))));
    let problem = Problem {
        g,
        weight: order.iter().map(|&v| wg.weight(v)).collect(),
        order,
        r,
        incumbent_spill: incumbent.spill_cost,
    };
    let outcome = match n.div_ceil(64) {
        0 | 1 => search(Words::<1>, &problem, budget),
        2 => search(Words::<2>, &problem, budget),
        3 => search(Words::<3>, &problem, budget),
        4 => search(Words::<4>, &problem, budget),
        words => search(words, &problem, budget),
    };
    let visited = outcome.nodes.min(budget.node_limit);
    budget.charge(visited);
    trace::add_fuel_consumed(visited);
    if !outcome.completed {
        return None;
    }
    if outcome.best_spill > incumbent.spill_cost {
        return Some(incumbent);
    }
    // Colour row `c` holds the positions of register `c`.
    let w = n.div_ceil(64);
    let mut allocated = BitSet::new(n);
    let mut colors = vec![0; n];
    for (c, row) in outcome.best_colours.chunks(w.max(1)).enumerate() {
        for (i, &v) in problem.order.iter().enumerate() {
            if row[i / 64] & (1 << (i % 64)) != 0 {
                allocated.insert(v);
                colors[v] = c as u32;
            }
        }
    }
    Some(instance.allocation_with_colors(allocated, colors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{generate, Graph, WeightedGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(g: Graph, w: Vec<Cost>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    #[test]
    fn c5_two_registers() {
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst = instance(c5, vec![5, 4, 3, 2, 1]);
        let a = solve(&inst, 2, &mut SolveBudget::nodes(1_000_000)).unwrap();
        // C5 is 3-chromatic: one vertex must go; the cheapest is 1.
        assert_eq!(a.spill_cost, 1);
        assert!(verify::check(&inst, &a, 2).is_feasible());
    }

    #[test]
    fn matches_exhaustive_on_random_graphs() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for trial in 0..8 {
            let g = generate::random_general(&mut rng, 10, 35);
            let w = generate::random_weights(&mut rng, 10, 2);
            let inst = instance(g, w);
            for r in 1..=3u32 {
                let a = solve(&inst, r, &mut SolveBudget::nodes(10_000_000)).unwrap();
                let best = exhaustive(&inst, r);
                assert_eq!(a.allocated_weight, best, "trial {trial} R={r}");
                assert!(verify::check(&inst, &a, r).is_feasible());
            }
        }
    }

    /// Reference: enumerate all subsets, check colourability exactly.
    fn exhaustive(inst: &Instance, r: u32) -> Cost {
        use lra_graph::coloring;
        let n = inst.vertex_count();
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let set = BitSet::from_iter_with_capacity(n, (0..n).filter(|&v| mask & (1 << v) != 0));
            if coloring::exact_coloring(inst.graph(), &set, r).is_some() {
                best = best.max(inst.weighted_graph().weight_of_set(&set));
            }
        }
        best
    }

    #[test]
    fn r_zero_spills_everything() {
        let g = Graph::from_edges(2, &[(0, 1)]);
        let inst = instance(g, vec![2, 3]);
        let a = solve(&inst, 0, &mut SolveBudget::nodes(1000)).unwrap();
        assert_eq!(a.spill_cost, 5);
    }

    #[test]
    fn expired_deadline_aborts_before_searching() {
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst = instance(c5, vec![5, 4, 3, 2, 1]);
        let mut budget = SolveBudget::nodes(1_000_000).with_time(Some(std::time::Duration::ZERO));
        assert!(solve(&inst, 2, &mut budget).is_none());
        // The same search without the dead deadline completes.
        assert!(solve(&inst, 2, &mut SolveBudget::nodes(1_000_000)).is_some());
    }

    #[test]
    fn a_deadline_is_checked_every_stride_nodes() {
        // Dense enough that ten million nodes cannot finish in time.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generate::random_general(&mut rng, 60, 30);
        let inst = instance(g, generate::random_weights(&mut rng, 60, 2));
        trace::begin(false);
        let fuel = 10_000_000;
        let mut budget =
            SolveBudget::nodes(fuel).with_time(Some(std::time::Duration::from_millis(1)));
        assert!(solve(&inst, 4, &mut budget).is_none());
        let consumed = trace::take().expect("collecting").fuel_consumed;
        assert!(consumed < fuel, "stopped by the clock, not the fuel");
        assert_eq!(consumed % DEADLINE_STRIDE, 0, "{consumed} nodes");
        assert_eq!(budget.node_limit, fuel - consumed);
    }

    #[test]
    fn node_limit_returns_none() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generate::random_general(&mut rng, 30, 40);
        let inst = instance(g, generate::random_weights(&mut rng, 30, 2));
        assert!(solve(&inst, 4, &mut SolveBudget::nodes(10)).is_none());
    }

    #[test]
    fn heuristic_incumbent_returned_when_already_optimal() {
        // Edgeless graph: everything allocated by every heuristic; the
        // search should confirm rather than regress.
        let inst = instance(Graph::empty(6), vec![1, 2, 3, 4, 5, 6]);
        let a = solve(&inst, 1, &mut SolveBudget::nodes(1000)).unwrap();
        assert_eq!(a.spill_cost, 0);
    }

    #[test]
    fn search_tree_is_pinned_by_its_smallest_completing_fuel() {
        // (seed, vertices, edge %, R, smallest fuel at which the search
        // completes, spill cost, spilled vertices). The smallest fuel is
        // the number of nodes the complete search visits, so it pins the
        // search tree itself, not just the optimum. The last seven
        // instances have more than 64 vertices, so their rows span
        // several words: two, three (150), four (220) and five (300),
        // one case per kernel width.
        #[allow(clippy::type_complexity)]
        const CASES: [(u64, usize, u32, u32, u64, Cost, &[usize]); 17] = [
            (1, 16, 30, 2, 334, 16, &[1, 3, 6, 9, 10, 13]),
            (2, 18, 35, 3, 346, 16, &[2, 3, 4, 9]),
            (3, 20, 25, 2, 224, 32, &[1, 3, 4, 10, 11, 13, 14, 16, 17]),
            (4, 22, 40, 4, 14471, 3, &[9, 10]),
            (5, 24, 30, 3, 10039, 11, &[0, 6, 12, 14, 17, 18]),
            (
                6,
                26,
                20,
                2,
                347,
                46,
                &[3, 6, 7, 10, 12, 14, 15, 16, 23, 24],
            ),
            (7, 28, 35, 4, 38551, 7, &[11, 17, 22, 26]),
            (8, 30, 25, 3, 2952, 28, &[2, 9, 13, 15, 16, 18, 25, 26]),
            (9, 32, 15, 2, 3824, 83, &[3, 9, 10, 14, 17, 18, 25]),
            (10, 36, 20, 3, 152074, 10, &[13, 29, 32, 34]),
            (31, 70, 4, 3, 729, 0, &[]),
            (53, 80, 5, 4, 6197, 0, &[]),
            (54, 66, 3, 3, 24827, 0, &[]),
            (12, 150, 1, 3, 6654, 0, &[]),
            (264, 220, 1, 4, 18875, 0, &[]),
            (516, 300, 1, 4, 6171, 0, &[]),
            (577, 300, 2, 5, 17685, 0, &[]),
        ];
        for (seed, n, edge_percent, r, fuel, spill, spilled) in CASES {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generate::random_general(&mut rng, n, edge_percent);
            let inst = instance(g, generate::random_weights(&mut rng, n, 3));
            assert!(
                solve(&inst, r, &mut SolveBudget::nodes(fuel - 1)).is_none(),
                "seed {seed}: done below {fuel}"
            );
            trace::begin(false);
            let mut budget = SolveBudget::nodes(fuel);
            let a = solve(&inst, r, &mut budget).expect("completes at the pinned fuel");
            let consumed = trace::take().expect("collecting").fuel_consumed;
            assert_eq!(consumed, fuel, "seed {seed}: nodes visited");
            assert_eq!(budget.node_limit, 0, "seed {seed}: charged every node");
            assert_eq!(a.spill_cost, spill, "seed {seed}");
            let got: Vec<usize> = (0..n).filter(|&v| !a.allocated.contains(v)).collect();
            assert_eq!(got, spilled, "seed {seed}");
            assert!(
                verify::check(&inst, &a, r).is_feasible(),
                "seed {seed}: feasible"
            );
        }
    }

    #[test]
    fn an_exhausted_search_consumes_exactly_its_fuel() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generate::random_general(&mut rng, 30, 40);
        let inst = instance(g, generate::random_weights(&mut rng, 30, 2));
        trace::begin(false);
        let mut budget = SolveBudget::nodes(10);
        assert!(solve(&inst, 4, &mut budget).is_none());
        assert_eq!(trace::take().expect("collecting").fuel_consumed, 10);
        assert_eq!(budget.node_limit, 0);
    }
}
