//! Exact allocation on general graphs by branch-and-bound.
//!
//! For non-chordal (non-SSA) instances, "maximum-weight `R`-colourable
//! induced subgraph" has no polynomial structure to exploit, so we
//! search: vertices are processed in decreasing-weight order and each is
//! either assigned one of the colours `0..R` or spilled. Colour symmetry
//! is broken by allowing at most one previously unused colour per
//! vertex. The caller's allocation (the portfolio's cheap tier) is the
//! only incumbent, so pruning bites immediately.
//!
//! The bound is *forward checking*: the spill charged so far plus the
//! weight of every later vertex that is already *forced* to spill,
//! because each of the `R` colours is held by one of its earlier
//! neighbours. It never overestimates, so certified answers stay exact,
//! and it cuts a subtree for what it must still spill, not only for
//! what it has spilled.
//!
//! The search runs in *search-position* space: vertices are renumbered
//! once into their visit order. Every row is a bit set over positions of
//! one fixed width of `W` words, `W = ⌈n/64⌉`, in one flat `Vec<u64>`:
//! - position `i`'s *later* row holds its neighbours at positions `> i`;
//! - colour `c`'s *blocked* row is the OR of the later rows of the
//!   positions holding `c`, so colour `c` is free for position `i` iff
//!   bit `i` of its blocked row is clear: a one-bit probe. The blocked
//!   rows are stored word-major, so word `k` of all `R` rows is one
//!   contiguous run.
//!
//! Colouring position `i` ORs its later row into the colour's blocked
//! row and saves the newly set bits, which undo clears again. A
//! position whose bit is then set in all `R` blocked rows (one AND
//! over a contiguous run per word) is newly forced, and its weight
//! joins the bound. Until all `R` colours are in use, an unused
//! colour's blocked row is empty, so nothing is forced.
//! An improving leaf copies the colour of each position, which is both
//! the allocated set and its witness colouring.
//!
//! There is one search body, generic over the row width: instances of
//! up to 256 vertices run it at a compile-time width of 1–4 words and
//! wider ones at a run-time width; either way a row update reads only
//! the words that can hold a later position. Counting a node costs one
//! comparison against the fuel. A child that cannot beat the best
//! solution is counted where it is generated — the same node and fuel
//! accounting a visit would do — instead of being visited by a
//! recursive call.
//!
//! The search is *anytime*: [`solve_from`] marks a completed search's
//! answer certified, and when the budget runs out it still hands back
//! the best allocation it holds, uncertified, if that is strictly
//! cheaper than the caller's.
//! Sparse graphs of a few hundred vertices can complete; a dense
//! 40-vertex one may not.

use super::SolveBudget;
use crate::problem::{Allocation, Instance};
use crate::trace;
use lra_graph::{BitSet, Cost, Graph};

/// The colour of a spilled position on the search path.
const SPILLED: u32 = u32::MAX;

/// A row width in `u64` words: [`Words`] fixes it at compile time,
/// a `usize` carries it at run time.
trait Width: Copy {
    /// The row stride in words.
    fn words(self) -> usize;
}

/// The compile-time row width of `W` words.
#[derive(Clone, Copy)]
struct Words<const W: usize>;

impl<const W: usize> Width for Words<W> {
    #[inline(always)]
    fn words(self) -> usize {
        W
    }
}

impl Width for usize {
    #[inline(always)]
    fn words(self) -> usize {
        self
    }
}

/// The branch-and-bound search over rows of width `X`.
struct Kernel<'a, X> {
    width: X,
    /// Later neighbours of position `i`: the row
    /// `later[i * W..(i + 1) * W]`.
    later: Vec<u64>,
    /// Spill weight of the vertex at each position.
    weight: &'a [Cost],
    /// Positions some holder of each colour neighbours, word-major so
    /// that one word of every colour's row is contiguous: word `k` of
    /// row `c` is `blocked[k * rows + c]`.
    blocked: Vec<u64>,
    /// The number of blocked rows, `min(R, n)`.
    rows: usize,
    /// The bits position `i`'s colour newly set in its blocked row:
    /// the row `undo[i * W..(i + 1) * W]`.
    undo: Vec<u64>,
    /// The colour of each position on the current path, [`SPILLED`]
    /// for a spilled one; meaningful only before the current position.
    colour: Vec<u32>,
    r: u32,
    best_spill: Cost,
    /// The colour of each position in the best solution found.
    best_colour: Vec<u32>,
    nodes: u64,
    node_limit: u64,
}

/// The search's input, in search-position space.
struct Problem<'a> {
    g: &'a Graph,
    /// The vertex at each position.
    order: Vec<usize>,
    /// Spill weight of the vertex at each position.
    weight: Vec<Cost>,
    r: u32,
    /// Spill cost of the incumbent the search must beat.
    incumbent_spill: Cost,
}

impl<'a> Problem<'a> {
    /// `instance`'s search at `r` registers against an incumbent
    /// spilling `incumbent_spill`. Decreasing weight puts expensive
    /// spills early (strong bounds); ties are broken by degree so
    /// constrained vertices are decided first.
    fn new(instance: &'a Instance, r: u32, incumbent_spill: Cost) -> Self {
        let g = instance.graph();
        let wg = instance.weighted_graph();
        let mut order: Vec<usize> = (0..g.vertex_count()).collect();
        order.sort_by_cached_key(|&v| std::cmp::Reverse((wg.weight(v), g.degree(v))));
        Problem {
            g,
            weight: order.iter().map(|&v| wg.weight(v)).collect(),
            order,
            r,
            incumbent_spill,
        }
    }
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
        // Position `i`'s later neighbours are its neighbours not yet
        // placed, so only that part of each row is walked bit by bit.
        let mut later = vec![0; n * w];
        let mut unplaced = BitSet::full(n);
        for (i, &v) in p.order.iter().enumerate() {
            unplaced.remove(v);
            for u in p.g.neighbor_row(v).iter_and(&unplaced) {
                let q = position[u];
                later[i * w + q / 64] |= 1 << (q % 64);
            }
        }
        // min(r, n) rows: the search can never use more colours than
        // vertices, and an absurd caller-supplied R must not allocate R
        // bit rows.
        let rows = (p.r as usize).min(n);
        Kernel {
            width,
            later,
            weight: &p.weight,
            blocked: vec![0; w * rows],
            rows,
            undo: vec![0; n * w],
            colour: vec![SPILLED; n],
            r: p.r,
            best_colour: vec![SPILLED; n],
            // `run` records strictly better solutions only, so start one
            // above the incumbent; if nothing beats it, it stands.
            best_spill: p.incumbent_spill + 1,
            nodes: 0,
            node_limit: budget.node_limit,
        }
    }

    /// Charges one search node: `false` once the fuel is spent.
    #[inline(always)]
    fn count_node(&mut self) -> bool {
        self.nodes += 1;
        self.nodes <= self.node_limit
    }

    /// Visits the child node at position `i`: one whose bound cannot
    /// improve on the best solution is counted in place, the rest are
    /// searched.
    #[inline(always)]
    fn child(&mut self, i: usize, spill: Cost, forced: Cost, used_colors: u32) -> bool {
        if spill + forced >= self.best_spill {
            return self.count_node();
        }
        self.run(i, spill, forced, used_colors)
    }

    /// Gives position `i` colour `c`: ORs its later row into `c`'s
    /// blocked row, saving the newly set bits for [`Kernel::unblock`].
    /// Returns the weight of the positions this forces to spill, which
    /// is zero unless every colour is in use (`all_used`).
    #[inline(always)]
    fn block(&mut self, i: usize, c: usize, all_used: bool) -> Cost {
        let (w, rows) = (self.width.words(), self.rows);
        let mut forced = 0;
        for k in i / 64..w {
            let blocked = &mut self.blocked[k * rows..(k + 1) * rows];
            let fresh = self.later[i * w + k] & !blocked[c];
            blocked[c] |= fresh;
            self.undo[i * w + k] = fresh;
            if all_used && fresh != 0 {
                let mut f = blocked.iter().fold(fresh, |f, &row| f & row);
                while f != 0 {
                    forced += self.weight[k * 64 + f.trailing_zeros() as usize];
                    f &= f - 1;
                }
            }
        }
        forced
    }

    /// Undoes [`Kernel::block`]`(i, c, _)`.
    #[inline(always)]
    fn unblock(&mut self, i: usize, c: usize) {
        let (w, rows) = (self.width.words(), self.rows);
        for k in i / 64..w {
            self.blocked[k * rows + c] &= !self.undo[i * w + k];
        }
    }

    /// Searches the subtree at position `i` with `spill` charged so
    /// far and `forced` the weight of the positions `≥ i` forced to
    /// spill; their sum must be below the best spill. Returns `false`
    /// when the budget aborts the search.
    fn run(&mut self, i: usize, spill: Cost, forced: Cost, used_colors: u32) -> bool {
        if !self.count_node() {
            return false;
        }
        if i == self.weight.len() {
            self.best_spill = spill;
            self.best_colour.copy_from_slice(&self.colour);
            return true;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));

        // Try colours first (allocating is never charged), with symmetry
        // breaking: at most one fresh colour.
        let limit = (used_colors + 1).min(self.r);
        let mut free = false;
        for c in 0..limit {
            if self.blocked[word * self.rows + c as usize] & bit != 0 {
                continue; // an earlier neighbour holds this colour
            }
            free = true;
            let used = used_colors.max(c + 1);
            let newly = self.block(i, c as usize, used == self.r);
            self.colour[i] = c;
            let ok = self.child(i + 1, spill, forced + newly, used);
            self.unblock(i, c as usize);
            if !ok {
                return false;
            }
        }

        // Spill branch. A position with no free colour was forced, so
        // its weight moves from the forced part of the bound to the
        // charged part.
        let weight = self.weight[i];
        self.colour[i] = SPILLED;
        let forced = if free { forced } else { forced - weight };
        self.child(i + 1, spill + weight, forced, used_colors)
    }
}

/// What one search left behind: whether it completed, the nodes it
/// visited, and its best solution (meaningful only if it beat the
/// incumbent, i.e. `best_spill <= incumbent_spill`).
struct Outcome {
    completed: bool,
    nodes: u64,
    best_spill: Cost,
    best_colour: Vec<u32>,
}

/// Runs `p`'s search at row width `width`.
fn search<X: Width>(width: X, p: &Problem<'_>, budget: &SolveBudget) -> Outcome {
    let mut kernel = Kernel::new(width, p, budget);
    let completed = kernel.run(0, 0, 0, 0);
    Outcome {
        completed,
        nodes: kernel.nodes,
        best_spill: kernel.best_spill,
        best_colour: kernel.best_colour,
    }
}

/// Searches for an allocation of `instance` with `r` registers cheaper
/// than `incumbent`, under `budget`: each search node costs one unit of
/// node fuel, charged against `budget.node_limit` (an exhausted search
/// is charged all of it). `incumbent` is the search's only seed: the
/// forward-checking bound prunes against it from the first node, and
/// nothing else runs first.
///
/// Returns `Some((optimum, true))` when the search completes — a
/// certified optimum, possibly no cheaper than `incumbent` — and, when
/// the fuel runs out, `Some((best, false))` with the best allocation held if
/// it is strictly cheaper than `incumbent`, else `None`. The nodes
/// visited go to [`trace::add_fuel_consumed`].
pub fn solve_from(
    instance: &Instance,
    r: u32,
    budget: &mut SolveBudget,
    incumbent: &Allocation,
) -> Option<(Allocation, bool)> {
    let n = instance.vertex_count();
    if r == 0 {
        return Some((instance.allocation_from_set(BitSet::new(n)), true));
    }
    let problem = Problem::new(instance, r, incumbent.spill_cost);
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
    if outcome.best_spill <= incumbent.spill_cost
        && (outcome.completed || outcome.best_spill < incumbent.spill_cost)
    {
        let mut allocated = BitSet::new(n);
        let mut colors = vec![0; n];
        for (&v, &c) in problem.order.iter().zip(&outcome.best_colour) {
            if c != SPILLED {
                allocated.insert(v);
                colors[v] = c;
            }
        }
        Some((
            instance.allocation_with_colors(allocated, colors),
            outcome.completed,
        ))
    } else {
        // A complete search that found nothing cheaper certifies the
        // incumbent.
        outcome.completed.then(|| (incumbent.clone(), true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::LayeredHeuristic;
    use crate::optimal::certified_seed;
    use crate::problem::Allocator;
    use crate::verify;
    use lra_graph::{generate, Graph, WeightedGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(g: Graph, w: Vec<Cost>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    /// The search seeded the way `Optimal` seeds it, keeping certified
    /// optima only.
    fn solve(inst: &Instance, r: u32, budget: &mut SolveBudget) -> Option<Allocation> {
        let (a, certified) = solve_from(inst, r, budget, &certified_seed(inst, r))?;
        certified.then_some(a)
    }

    /// The pinned instance of `seed` with `n` vertices and
    /// `edge_percent`% edges.
    fn pinned(seed: u64, n: usize, edge_percent: u32) -> Instance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::random_general(&mut rng, n, edge_percent);
        instance(g, generate::random_weights(&mut rng, n, 3))
    }

    /// The search before forward checking, kept as the reference the
    /// kernel must never lose to: its bound is the spill charged so
    /// far, and a colour is free iff no earlier neighbour holds it.
    /// Same order, symmetry breaking and node accounting.
    struct Reference {
        earlier: Vec<BitSet>,
        weight: Vec<Cost>,
        colours: Vec<BitSet>,
        r: u32,
        best_spill: Cost,
        nodes: u64,
        fuel: u64,
    }

    impl Reference {
        fn count_node(&mut self) -> bool {
            self.nodes += 1;
            self.nodes <= self.fuel
        }

        fn child(&mut self, i: usize, spill: Cost, used_colors: u32) -> bool {
            if spill >= self.best_spill {
                return self.count_node();
            }
            self.run(i, spill, used_colors)
        }

        fn run(&mut self, i: usize, spill: Cost, used_colors: u32) -> bool {
            if !self.count_node() {
                return false;
            }
            if i == self.weight.len() {
                self.best_spill = spill;
                return true;
            }
            for c in 0..(used_colors + 1).min(self.r) {
                if !self.earlier[i].is_disjoint(&self.colours[c as usize]) {
                    continue;
                }
                self.colours[c as usize].insert(i);
                let ok = self.child(i + 1, spill, used_colors.max(c + 1));
                self.colours[c as usize].remove(i);
                if !ok {
                    return false;
                }
            }
            self.child(i + 1, spill + self.weight[i], used_colors)
        }
    }

    /// Runs the reference search for `inst` at `r` registers against
    /// `incumbent` under `fuel` nodes: whether it completed, the nodes
    /// it was charged, and the cheaper of its best spill and the
    /// incumbent's.
    fn reference_search(inst: &Instance, r: u32, incumbent: Cost, fuel: u64) -> (bool, u64, Cost) {
        let p = Problem::new(inst, r, incumbent);
        let n = p.order.len();
        let mut position = vec![0; n];
        for (i, &v) in p.order.iter().enumerate() {
            position[v] = i;
        }
        let earlier = p.order.iter().enumerate().map(|(i, &v)| {
            let qs = p.g.neighbor_indices(v).map(|u| position[u]);
            BitSet::from_iter_with_capacity(n, qs.filter(|&q| q < i))
        });
        let mut search = Reference {
            earlier: earlier.collect(),
            weight: p.weight,
            colours: vec![BitSet::new(n); (r as usize).min(n)],
            r,
            best_spill: incumbent + 1,
            nodes: 0,
            fuel,
        };
        let completed = search.run(0, 0, 0);
        (
            completed,
            search.nodes.min(fuel),
            search.best_spill.min(incumbent),
        )
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
        // Two incumbents: LH, as the portfolio passes it, and spilling
        // everything, which leaves the whole pruning to the bound.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for (n, edge_percent) in [(8, 60), (10, 35), (12, 20), (14, 30), (14, 45)] {
            let g = generate::random_general(&mut rng, n, edge_percent);
            let w = generate::random_weights(&mut rng, n, 2);
            let inst = instance(g, w);
            for r in 1..=4u32 {
                let best = exhaustive(&inst, r);
                let lh = LayeredHeuristic::new().allocate(&inst, r);
                let none = inst.allocation_from_set(BitSet::new(n));
                for incumbent in [&lh, &none] {
                    let budget = &mut SolveBudget::nodes(10_000_000);
                    let (a, certified) = solve_from(&inst, r, budget, incumbent).unwrap();
                    assert!(certified, "{n} vertices, {edge_percent}%, R={r}");
                    assert_eq!(
                        a.allocated_weight, best,
                        "{n} vertices, {edge_percent}%, R={r}"
                    );
                    assert!(verify::check(&inst, &a, r).is_feasible());
                }
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

    /// The 17 pinned instances: (seed, vertices, edge %, R, smallest
    /// fuel at which the search completes, spill cost, spilled
    /// vertices). The smallest fuel is the number of nodes the complete
    /// search visits, so it pins the search tree itself, not just the
    /// optimum. The last seven instances have more than 64 vertices, so
    /// their rows span several words: two, three (150), four (220) and
    /// five (300), one case per kernel width. The trees are those of
    /// the forward-checking bound seeded the way `Optimal` seeds it;
    /// before the bound they were 2–22× larger (seed 10: 152,074 nodes),
    /// with the same optima and spill sets.
    #[allow(clippy::type_complexity)]
    const PINNED: [(u64, usize, u32, u32, u64, Cost, &[usize]); 17] = [
        (1, 16, 30, 2, 47, 16, &[1, 3, 6, 9, 10, 13]),
        (2, 18, 35, 3, 147, 16, &[2, 3, 4, 9]),
        (3, 20, 25, 2, 60, 32, &[1, 3, 4, 10, 11, 13, 14, 16, 17]),
        (4, 22, 40, 4, 2839, 3, &[9, 10]),
        (5, 24, 30, 3, 3444, 11, &[0, 6, 12, 14, 17, 18]),
        (6, 26, 20, 2, 87, 46, &[3, 6, 7, 10, 12, 14, 15, 16, 23, 24]),
        (7, 28, 35, 4, 5507, 7, &[11, 17, 22, 26]),
        (8, 30, 25, 3, 435, 28, &[2, 9, 13, 15, 16, 18, 25, 26]),
        (9, 32, 15, 2, 312, 83, &[3, 9, 10, 14, 17, 18, 25]),
        (10, 36, 20, 3, 6883, 10, &[13, 29, 32, 34]),
        (31, 70, 4, 3, 211, 0, &[]),
        (53, 80, 5, 4, 268, 0, &[]),
        (54, 66, 3, 3, 323, 0, &[]),
        (12, 150, 1, 3, 494, 0, &[]),
        (264, 220, 1, 4, 822, 0, &[]),
        (516, 300, 1, 4, 1739, 0, &[]),
        (577, 300, 2, 5, 1144, 0, &[]),
    ];

    #[test]
    fn search_tree_is_pinned_by_its_smallest_completing_fuel() {
        for (seed, n, edge_percent, r, fuel, spill, spilled) in PINNED {
            let inst = pinned(seed, n, edge_percent);
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
    fn the_bound_never_loses_to_the_search_it_replaced() {
        // Same incumbent, same fuel: the forward-checking search visits
        // the reference tree minus cut subtrees, in the same order, so
        // at every fuel it holds an allocation no costlier, and it
        // completes no later, at the same certified cost.
        for (seed, n, edge_percent, r, ..) in PINNED {
            let inst = pinned(seed, n, edge_percent);
            let incumbent = certified_seed(&inst, r);
            let (_, needed, optimum) = reference_search(&inst, r, incumbent.spill_cost, u64::MAX);
            let mut fuels: Vec<u64> = (0..40)
                .map(|k| 1 << k)
                .take_while(|&f| f < needed)
                .collect();
            fuels.push(needed);
            for fuel in fuels {
                let (done, _, held) = reference_search(&inst, r, incumbent.spill_cost, fuel);
                let got = solve_from(&inst, r, &mut SolveBudget::nodes(fuel), &incumbent);
                let (cost, certified) =
                    got.map_or((incumbent.spill_cost, false), |(a, c)| (a.spill_cost, c));
                assert!(cost <= held, "seed {seed}, fuel {fuel}: {cost} > {held}");
                if done {
                    assert!(certified, "seed {seed}: the reference completes at {fuel}");
                    assert_eq!(cost, optimum, "seed {seed}");
                }
            }
        }
    }

    #[test]
    fn a_gc_seed_is_what_lets_seed_516_complete() {
        // Visited by weight, the 300-vertex instance has a 4-colouring
        // that GC finds at once. Seeded with LH alone, the search spends
        // its whole fuel without certifying one, which is why
        // `Optimal`'s certified path seeds with the cheaper of the two.
        let (seed, n, edge_percent, r, ..) = PINNED[15];
        assert_eq!((seed, n), (516, 300));
        let inst = pinned(seed, n, edge_percent);
        assert_eq!(crate::Optimal.allocate(&inst, r).spill_cost, 0);
        let lh = LayeredHeuristic::new().allocate(&inst, r);
        assert!(lh.spill_cost > 0);
        trace::begin(false);
        let got = solve_from(&inst, r, &mut SolveBudget::nodes(1_000_000), &lh);
        assert!(!matches!(got, Some((_, true))), "certified from LH alone");
        assert_eq!(trace::take().expect("collecting").fuel_consumed, 1_000_000);
    }

    #[test]
    fn anytime_answers_improve_with_fuel_and_are_certified_only_when_complete() {
        // On fixed instances and a fixed incumbent the search order is
        // fixed, so the best allocation held is monotone in fuel. Two
        // incumbents: LH, as the portfolio passes it, and spilling
        // everything, which any search improves on at once.
        let mut uncertified = 0;
        for (seed, n, edge_percent, r) in [(1, 30, 40, 4), (5, 24, 30, 3), (7, 28, 35, 4)] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generate::random_general(&mut rng, n, edge_percent);
            let inst = instance(g, generate::random_weights(&mut rng, n, 3));
            let lh = LayeredHeuristic::new().allocate(&inst, r);
            let none = inst.allocation_from_set(BitSet::new(n));
            for incumbent in [&lh, &none] {
                trace::begin(false);
                let complete = solve_from(&inst, r, &mut SolveBudget::nodes(u64::MAX), incumbent);
                let needed = trace::take().expect("collecting").fuel_consumed;
                let (optimum, certified) = complete.expect("an unlimited search completes");
                assert!(certified, "seed {seed}");
                let mut fuels: Vec<u64> = (0..40)
                    .map(|k| 1 << k)
                    .take_while(|&f| f < 2 * needed)
                    .collect();
                fuels.extend([needed - 1, needed]);
                fuels.sort_unstable();
                let mut last = incumbent.spill_cost;
                for fuel in fuels {
                    let got = solve_from(&inst, r, &mut SolveBudget::nodes(fuel), incumbent);
                    let cost = match got {
                        Some((a, certified)) => {
                            assert_eq!(certified, fuel >= needed, "seed {seed}, fuel {fuel}");
                            assert!(
                                verify::check(&inst, &a, r).is_feasible(),
                                "seed {seed}, fuel {fuel}: feasible"
                            );
                            if !certified {
                                assert!(a.spill_cost < incumbent.spill_cost);
                                uncertified += 1;
                            }
                            a.spill_cost
                        }
                        None => {
                            assert!(fuel < needed, "seed {seed}: completes at {fuel}");
                            incumbent.spill_cost
                        }
                    };
                    assert!(cost <= last, "seed {seed}, fuel {fuel}: {cost} > {last}");
                    assert!(cost >= optimum.spill_cost);
                    last = cost;
                }
                assert_eq!(last, optimum.spill_cost, "seed {seed}");
            }
        }
        assert!(uncertified > 0, "no exhausted search held an improvement");
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
