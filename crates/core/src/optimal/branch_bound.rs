//! Exact allocation on general graphs by branch-and-bound.
//!
//! For non-chordal (non-SSA) instances, "maximum-weight `R`-colourable
//! induced subgraph" has no polynomial structure to exploit, so we
//! search: every node picks one undecided vertex and either assigns it
//! one of the colours `0..R` or spills it. Colour symmetry is broken by
//! allowing at most one previously unused colour per vertex. The
//! caller's allocation (the portfolio's cheap tier) is the only
//! incumbent, so pruning bites immediately.
//!
//! The branching order is dynamic, DSATUR-style (Brélaz, CACM 1979):
//! each node branches on the undecided vertex with the most *blocked*
//! colours, those some decided neighbour holds, ties broken by a static
//! rank (decreasing weight, then decreasing degree). A vertex with few
//! free colours is decided while it still has one, and a vertex with
//! none is spilled at once.
//!
//! The bound is *forward checking*: the spill charged so far plus the
//! weight of every undecided vertex that is already *forced* to spill,
//! because each of the `R` colours is held by one of its decided
//! neighbours. It never overestimates, so certified answers stay exact,
//! and it cuts a subtree for what it must still spill, not only for
//! what it has spilled.
//!
//! The search runs in *position* space: vertices are renumbered once
//! into their rank order. Every row is a bit set over positions of one
//! fixed width of `W` words, `W = ⌈n/64⌉`, in one flat `Vec<u64>`:
//! - position `i`'s *neighbour* row holds its neighbours;
//! - the *unplaced* row holds the undecided positions;
//! - colour `c`'s *blocked* row holds every position that was undecided
//!   when one of its neighbours took `c`, so colour `c` is free for an
//!   undecided position `q` iff bit `q` of that row is clear: a one-bit
//!   probe. The blocked rows are stored word-major, so word `k` of all
//!   `R` rows is one contiguous run.
//!
//! A node picks word by word. Only the colours in use can block, so it
//! reads the first `used` words of each run through a bit-sliced
//! counter: bit planes enough to count to `used` (three up to 7
//! colours, four up to 15, else 32) hold each position's count of
//! blocked rows in binary. They are built by a ripple-carry add of each
//! row's word and read from the top plane down for the highest count
//! among the unplaced positions. The earliest word with the strictly
//! highest count wins, and within it the lowest position: the rank
//! breaks ties.
//!
//! Colouring position `i` computes, before it changes anything, its
//! *fresh* bits (its unplaced neighbours not yet blocked for the
//! colour) and the weight they newly force to spill: a fresh position
//! set in every other blocked row (one AND over a contiguous run per
//! word). Until all `R` colours are in use, an unused colour's blocked
//! row is empty, so nothing is forced. A child that cannot beat the
//! best solution is counted where it is generated, the same node and
//! fuel accounting a visit would do, instead of being visited by a
//! recursive call; otherwise the fresh bits are ORed in, saved per
//! depth, and cleared again after the child. An improving leaf copies
//! the colour of each position, which is both the allocated set and
//! its witness colouring.
//!
//! There is one search body, generic over the row width: instances of
//! up to 256 vertices run it at a compile-time width of 1–4 words and
//! wider ones at a run-time width. Counting a node costs one comparison
//! against the fuel.
//!
//! The search is *anytime*: [`solve_from`] marks a completed search's
//! answer certified, and when the fuel runs out it still hands back
//! the best allocation it holds, uncertified, if that is strictly
//! cheaper than the caller's.
//! Sparse graphs of a few hundred vertices can complete; a dense
//! 40-vertex one may not.

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
    /// Neighbours of position `i`: the row `neighbours[i * W..(i + 1) * W]`.
    neighbours: Vec<u64>,
    /// The undecided positions.
    unplaced: Vec<u64>,
    /// Spill weight of the vertex at each position.
    weight: &'a [Cost],
    /// Positions some holder of each colour neighbours, word-major so
    /// that one word of every colour's row is contiguous: word `k` of
    /// row `c` is `blocked[k * rows + c]`.
    blocked: Vec<u64>,
    /// The number of blocked rows, `min(R, n)`.
    rows: usize,
    /// The bits the colour chosen at depth `d` newly set in its blocked
    /// row: the row `undo[d * W..(d + 1) * W]`.
    undo: Vec<u64>,
    /// The colour of each decided position on the current path,
    /// [`SPILLED`] for a spilled one.
    colour: Vec<u32>,
    r: u32,
    best_spill: Cost,
    /// The colour of each position in the best solution found.
    best_colour: Vec<u32>,
    nodes: u64,
    node_limit: u64,
}

/// The search's input, in position space.
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
    /// spilling `incumbent_spill`. Positions rank vertices by
    /// decreasing weight (expensive spills early: strong bounds), ties
    /// broken by degree so constrained vertices are decided first; the
    /// rank breaks ties between equally blocked positions.
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

    /// The position of each vertex.
    fn positions(&self) -> Vec<usize> {
        let mut position = vec![0; self.order.len()];
        for (i, &v) in self.order.iter().enumerate() {
            position[v] = i;
        }
        position
    }
}

impl<'a, X: Width> Kernel<'a, X> {
    /// Builds the rows of `p`'s search at row width `width`.
    fn new(width: X, p: &'a Problem<'_>, fuel: u64) -> Self {
        let w = width.words();
        let n = p.order.len();
        let position = p.positions();
        let mut neighbours = vec![0; n * w];
        for (i, &v) in p.order.iter().enumerate() {
            for q in p.g.neighbor_indices(v).map(|u| position[u]) {
                neighbours[i * w + q / 64] |= 1 << (q % 64);
            }
        }
        let mut unplaced = BitSet::full(n).words().to_vec();
        unplaced.resize(w, 0);
        // min(r, n) rows: the search can never use more colours than
        // vertices, and an absurd caller-supplied R must not allocate R
        // bit rows.
        let rows = (p.r as usize).min(n);
        Kernel {
            width,
            neighbours,
            unplaced,
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
            node_limit: fuel,
        }
    }

    /// Charges one search node: `false` once the fuel is spent.
    #[inline(always)]
    fn count_node(&mut self) -> bool {
        self.nodes += 1;
        self.nodes <= self.node_limit
    }

    /// The unplaced position with the most blocked colours, the lowest
    /// position among equals; `None` when every position is decided.
    /// Only the first `used` colours can block anything.
    #[inline(always)]
    fn pick(&self, used: u32) -> Option<usize> {
        let (w, rows) = (self.width.words(), self.rows);
        let used = used as usize;
        let mut best: Option<(usize, usize)> = None;
        for k in 0..w {
            let live = self.unplaced[k];
            if live == 0 {
                continue;
            }
            let run = &self.blocked[k * rows..k * rows + used];
            let (at, count) = match used {
                0..=7 => most_blocked::<3>(run, live),
                8..=15 => most_blocked::<4>(run, live),
                _ => most_blocked::<{ u32::BITS as usize }>(run, live),
            };
            if best.is_none_or(|(most, _)| count > most) {
                best = Some((count, k * 64 + at.trailing_zeros() as usize));
                if count == used {
                    break; // no later word can hold more
                }
            }
        }
        best.map(|(_, i)| i)
    }

    /// Saves at `depth` the fresh bits colour `c` gives position `i`:
    /// its unplaced neighbours not yet blocked for `c`. Returns the
    /// weight of the positions this forces to spill, those every other
    /// blocked row holds, which is zero unless every colour is in use
    /// (`all_used`). Changes no row.
    #[inline(always)]
    fn fresh(&mut self, i: usize, c: usize, depth: usize, all_used: bool) -> Cost {
        let (w, rows) = (self.width.words(), self.rows);
        let mut forced = 0;
        for k in 0..w {
            let blocked = &self.blocked[k * rows..(k + 1) * rows];
            let fresh = self.neighbours[i * w + k] & self.unplaced[k] & !blocked[c];
            self.undo[depth * w + k] = fresh;
            if all_used && fresh != 0 {
                let others = blocked[..c].iter().chain(&blocked[c + 1..]);
                let mut f = others.fold(fresh, |f, &row| f & row);
                while f != 0 {
                    forced += self.weight[k * 64 + f.trailing_zeros() as usize];
                    f &= f - 1;
                }
            }
        }
        forced
    }

    /// ORs the fresh bits saved at `depth` into colour `c`'s blocked
    /// row (`block`), or clears them again (`!block`).
    #[inline(always)]
    fn toggle(&mut self, c: usize, depth: usize, block: bool) {
        let (w, rows) = (self.width.words(), self.rows);
        for k in 0..w {
            let fresh = self.undo[depth * w + k];
            let row = &mut self.blocked[k * rows + c];
            *row = if block { *row | fresh } else { *row & !fresh };
        }
    }

    /// Visits a child node at `depth + 1`: one whose bound cannot
    /// improve on the best solution is counted in place, the rest are
    /// searched.
    #[inline(always)]
    fn child(&mut self, depth: usize, spill: Cost, forced: Cost, used_colors: u32) -> bool {
        if spill + forced >= self.best_spill {
            return self.count_node();
        }
        self.run(depth + 1, spill, forced, used_colors)
    }

    /// Searches the subtree at `depth` decided positions with `spill`
    /// charged so far and `forced` the weight of the unplaced positions
    /// forced to spill; their sum must be below the best spill.
    /// Returns `false` when the fuel runs out.
    fn run(&mut self, depth: usize, spill: Cost, forced: Cost, used_colors: u32) -> bool {
        if !self.count_node() {
            return false;
        }
        let Some(i) = self.pick(used_colors) else {
            self.best_spill = spill;
            self.best_colour.copy_from_slice(&self.colour);
            return true;
        };
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        self.unplaced[word] &= !bit;

        // Try colours first (allocating is never charged), with symmetry
        // breaking: at most one fresh colour.
        let limit = (used_colors + 1).min(self.r);
        let mut free = false;
        let mut ok = true;
        for c in 0..limit {
            if self.blocked[word * self.rows + c as usize] & bit != 0 {
                continue; // a decided neighbour holds this colour
            }
            free = true;
            let used = used_colors.max(c + 1);
            let newly = self.fresh(i, c as usize, depth, used == self.r);
            self.colour[i] = c;
            if spill + forced + newly >= self.best_spill {
                ok = self.count_node();
            } else {
                self.toggle(c as usize, depth, true);
                ok = self.run(depth + 1, spill, forced + newly, used);
                self.toggle(c as usize, depth, false);
            }
            if !ok {
                break;
            }
        }

        // Spill branch. A position with no free colour was forced, so
        // its weight moves from the forced part of the bound to the
        // charged part.
        if ok {
            let weight = self.weight[i];
            self.colour[i] = SPILLED;
            let forced = if free { forced } else { forced - weight };
            ok = self.child(depth, spill + weight, forced, used_colors);
        }
        self.unplaced[word] |= bit;
        ok
    }
}

/// Among the `live` bits of one word, those the most of the blocked
/// row words `run` hold, and how many hold them: a bit-sliced counter
/// of `P` planes (enough to count to `run.len()`) built by a
/// ripple-carry add of each row word, then read from the top plane
/// down, without a branch.
#[inline(always)]
fn most_blocked<const P: usize>(run: &[u64], live: u64) -> (u64, usize) {
    let mut plane = [0u64; P];
    for &row in run {
        let mut carry = row & live;
        for bits in &mut plane {
            let next = *bits & carry;
            *bits ^= carry;
            carry = next;
        }
    }
    let (mut at, mut count) = (live, 0);
    for p in (0..P).rev() {
        let high = at & plane[p];
        let set = (high != 0) as u64;
        let keep = set.wrapping_neg();
        at = (high & keep) | (at & !keep);
        count |= (set as usize) << p;
    }
    (at, count)
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
fn search<X: Width>(width: X, p: &Problem<'_>, fuel: u64) -> Outcome {
    let mut kernel = Kernel::new(width, p, fuel);
    let completed = kernel.run(0, 0, 0, 0);
    Outcome {
        completed,
        nodes: kernel.nodes,
        best_spill: kernel.best_spill,
        best_colour: kernel.best_colour,
    }
}

/// Searches for an allocation of `instance` with `r` registers cheaper
/// than `incumbent` within `fuel` search nodes, one unit of node fuel
/// each. `incumbent` is the search's only seed: the forward-checking
/// bound prunes against it from the first node, and nothing else runs
/// first. Fuel is counted, not timed, so the same fuel always stops
/// the search at the same node, at any thread count.
///
/// Returns `Some((optimum, true))` when the search completes — a
/// certified optimum, possibly no cheaper than `incumbent` — and, when
/// the fuel runs out, `Some((best, false))` with the best allocation
/// held if it is strictly cheaper than `incumbent`, else `None`. The
/// nodes visited, at most `fuel`, go to [`trace::add_fuel_consumed`].
pub fn solve_from(
    instance: &Instance,
    r: u32,
    fuel: u64,
    incumbent: &Allocation,
) -> Option<(Allocation, bool)> {
    let n = instance.vertex_count();
    if r == 0 {
        return Some((instance.allocation_from_set(BitSet::new(n)), true));
    }
    let problem = Problem::new(instance, r, incumbent.spill_cost);
    let outcome = match n.div_ceil(64) {
        0 | 1 => search(Words::<1>, &problem, fuel),
        2 => search(Words::<2>, &problem, fuel),
        3 => search(Words::<3>, &problem, fuel),
        4 => search(Words::<4>, &problem, fuel),
        words => search(words, &problem, fuel),
    };
    trace::add_fuel_consumed(outcome.nodes.min(fuel));
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
    use crate::optimal::flow;
    use crate::problem::Allocator;
    use crate::verify;
    use lra_graph::{generate, Graph, WeightedGraph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn instance(g: Graph, w: Vec<Cost>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    /// The search seeded the way `Optimal` seeds it (with `LH`),
    /// keeping certified optima only.
    fn solve(inst: &Instance, r: u32, fuel: u64) -> Option<Allocation> {
        let lh = LayeredHeuristic::new().allocate(inst, r);
        let (a, certified) = solve_from(inst, r, fuel, &lh)?;
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
    /// far, and a colour is free iff no decided neighbour holds it.
    /// Same branching rule (most blocked colours, then rank), symmetry
    /// breaking and node accounting.
    struct Reference {
        neighbours: Vec<BitSet>,
        weight: Vec<Cost>,
        colours: Vec<BitSet>,
        placed: BitSet,
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

        fn child(&mut self, spill: Cost, used_colors: u32) -> bool {
            if spill >= self.best_spill {
                return self.count_node();
            }
            self.run(spill, used_colors)
        }

        /// The undecided position with the most blocked colours, the
        /// lowest among equals.
        fn pick(&self) -> Option<usize> {
            let blocked = |q: usize| {
                let held = self.colours.iter();
                held.filter(|c| !self.neighbours[q].is_disjoint(c)).count()
            };
            (0..self.weight.len())
                .filter(|&q| !self.placed.contains(q))
                .max_by_key(|&q| (blocked(q), std::cmp::Reverse(q)))
        }

        fn run(&mut self, spill: Cost, used_colors: u32) -> bool {
            if !self.count_node() {
                return false;
            }
            let Some(i) = self.pick() else {
                self.best_spill = spill;
                return true;
            };
            self.placed.insert(i);
            for c in 0..(used_colors + 1).min(self.r) {
                if !self.neighbours[i].is_disjoint(&self.colours[c as usize]) {
                    continue;
                }
                self.colours[c as usize].insert(i);
                let ok = self.child(spill, used_colors.max(c + 1));
                self.colours[c as usize].remove(i);
                if !ok {
                    return false;
                }
            }
            let ok = self.child(spill + self.weight[i], used_colors);
            self.placed.remove(i);
            ok
        }
    }

    /// Runs the reference search for `inst` at `r` registers against
    /// `incumbent` under `fuel` nodes: whether it completed, the nodes
    /// it was charged, and the cheaper of its best spill and the
    /// incumbent's.
    fn reference_search(inst: &Instance, r: u32, incumbent: Cost, fuel: u64) -> (bool, u64, Cost) {
        let p = Problem::new(inst, r, incumbent);
        let n = p.order.len();
        let position = p.positions();
        let neighbours = p.order.iter().map(|&v| {
            BitSet::from_iter_with_capacity(n, p.g.neighbor_indices(v).map(|u| position[u]))
        });
        let mut search = Reference {
            neighbours: neighbours.collect(),
            weight: p.weight,
            colours: vec![BitSet::new(n); (r as usize).min(n)],
            placed: BitSet::new(n),
            r,
            best_spill: incumbent + 1,
            nodes: 0,
            fuel,
        };
        let completed = search.run(0, 0);
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
        let a = solve(&inst, 2, 1_000_000).unwrap();
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
                    let (a, certified) = solve_from(&inst, r, 10_000_000, incumbent).unwrap();
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
        let a = solve(&inst, 0, 1000).unwrap();
        assert_eq!(a.spill_cost, 5);
    }

    #[test]
    fn node_limit_returns_none() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generate::random_general(&mut rng, 30, 40);
        let inst = instance(g, generate::random_weights(&mut rng, 30, 2));
        assert!(solve(&inst, 4, 10).is_none());
    }

    #[test]
    fn heuristic_incumbent_returned_when_already_optimal() {
        // Edgeless graph: everything allocated by every heuristic; the
        // search should confirm rather than regress.
        let inst = instance(Graph::empty(6), vec![1, 2, 3, 4, 5, 6]);
        let a = solve(&inst, 1, 1000).unwrap();
        assert_eq!(a.spill_cost, 0);
    }

    /// The 17 pinned instances: (seed, vertices, edge %, R, smallest
    /// fuel at which the search completes, spill cost, spilled
    /// vertices). The smallest fuel is the number of nodes the complete
    /// search visits, so it pins the search tree itself, not just the
    /// optimum. The last seven instances have more than 64 vertices, so
    /// their rows span several words: two, three (150), four (220) and
    /// five (300), one case per kernel width. The trees are those of
    /// the most-blocked-first order and the forward-checking bound,
    /// seeded the way `Optimal` seeds it. Under the static weight order
    /// (seeded with the cheaper of `LH` and `GC`) the same optima took
    /// 47–6,883 nodes: 16 of the 17 trees are no larger now and most
    /// are several times smaller (seed 4: 2,839 → 177, seed 10: 6,883
    /// → 301), but seed 9 (R = 2) grew from 312 to 73,085. Seed 4 now
    /// certifies another optimum of the same cost: it spilled {9, 10}.
    #[allow(clippy::type_complexity)]
    const PINNED: [(u64, usize, u32, u32, u64, Cost, &[usize]); 17] = [
        (1, 16, 30, 2, 49, 16, &[1, 3, 6, 9, 10, 13]),
        (2, 18, 35, 3, 120, 16, &[2, 3, 4, 9]),
        (3, 20, 25, 2, 33, 32, &[1, 3, 4, 10, 11, 13, 14, 16, 17]),
        (4, 22, 40, 4, 177, 3, &[10, 20]),
        (5, 24, 30, 3, 774, 11, &[0, 6, 12, 14, 17, 18]),
        (6, 26, 20, 2, 84, 46, &[3, 6, 7, 10, 12, 14, 15, 16, 23, 24]),
        (7, 28, 35, 4, 381, 7, &[11, 17, 22, 26]),
        (8, 30, 25, 3, 125, 28, &[2, 9, 13, 15, 16, 18, 25, 26]),
        (9, 32, 15, 2, 73085, 83, &[3, 9, 10, 14, 17, 18, 25]),
        (10, 36, 20, 3, 301, 10, &[13, 29, 32, 34]),
        (31, 70, 4, 3, 203, 0, &[]),
        (53, 80, 5, 4, 263, 0, &[]),
        (54, 66, 3, 3, 195, 0, &[]),
        (12, 150, 1, 3, 477, 0, &[]),
        (264, 220, 1, 4, 831, 0, &[]),
        (516, 300, 1, 4, 1092, 0, &[]),
        (577, 300, 2, 5, 1074, 0, &[]),
    ];

    #[test]
    fn search_tree_is_pinned_by_its_smallest_completing_fuel() {
        for (seed, n, edge_percent, r, fuel, spill, spilled) in PINNED {
            let inst = pinned(seed, n, edge_percent);
            assert!(
                solve(&inst, r, fuel - 1).is_none(),
                "seed {seed}: done below {fuel}"
            );
            trace::begin(false);
            let a = solve(&inst, r, fuel).expect("completes at the pinned fuel");
            let consumed = trace::take().expect("collecting").fuel_consumed;
            assert_eq!(consumed, fuel, "seed {seed}: nodes visited");
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
            let incumbent = LayeredHeuristic::new().allocate(&inst, r);
            let (_, needed, optimum) = reference_search(&inst, r, incumbent.spill_cost, u64::MAX);
            let mut fuels: Vec<u64> = (0..40)
                .map(|k| 1 << k)
                .take_while(|&f| f < needed)
                .collect();
            fuels.push(needed);
            for fuel in fuels {
                let (done, _, held) = reference_search(&inst, r, incumbent.spill_cost, fuel);
                let got = solve_from(&inst, r, fuel, &incumbent);
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
    fn seed_516_certifies_from_lh_alone() {
        // The 300-vertex instance has a 4-colouring that `LH` misses.
        // Visited by weight, a search seeded with `LH` alone spent
        // 1,000,000 nodes without finding one, which is why `Optimal`
        // used to seed with the cheaper of `LH` and `GC`. Most blocked
        // first, it colours the instance at the pinned fuel.
        let (seed, n, edge_percent, r, fuel, ..) = PINNED[15];
        assert_eq!((seed, n), (516, 300));
        let inst = pinned(seed, n, edge_percent);
        let lh = LayeredHeuristic::new().allocate(&inst, r);
        assert!(lh.spill_cost > 0);
        let got = solve_from(&inst, r, fuel, &lh);
        let (a, certified) = got.expect("certifies from LH alone");
        assert!(certified);
        assert_eq!(a.spill_cost, 0);
        assert_eq!(crate::Optimal.allocate(&inst, r), a);
    }

    #[test]
    fn more_than_fifteen_colours_match_the_flow_optimum() {
        // At R ≥ 16 a count of blocked colours needs a fifth bit plane,
        // and at R ≥ 32 a sixth. Interval instances whose widest point
        // holds more than R intervals have min-cost flow as an
        // independent oracle.
        let mut rng = ChaCha8Rng::seed_from_u64(16);
        let mut tested = 0;
        let shapes = [
            (36, 16, 40),
            (40, 17, 40),
            (44, 20, 40),
            (40, 31, 100),
            (44, 33, 100),
        ];
        for (n, r, long_lived_percent) in shapes {
            let profile = generate::IntervalProfile {
                n,
                points: 24,
                mean_len: 8,
                long_lived_percent,
            };
            let ivs = generate::random_interval_set(&mut rng, &profile);
            let w = generate::random_weights(&mut rng, n, 3);
            let inst = Instance::from_intervals(ivs, w);
            let optimum = flow::solve(&inst, r);
            assert!(
                optimum.spill_cost > 0,
                "{n} intervals, R={r}: nothing spills"
            );
            let lh = LayeredHeuristic::new().allocate(&inst, r);
            let none = inst.allocation_from_set(BitSet::new(n));
            for incumbent in [&lh, &none] {
                let (a, certified) =
                    solve_from(&inst, r, 10_000_000, incumbent).expect("completes");
                assert!(certified, "{n} intervals, R={r}");
                assert_eq!(a.spill_cost, optimum.spill_cost, "{n} intervals, R={r}");
                assert!(verify::check(&inst, &a, r).is_feasible());
                tested += 1;
            }
        }
        assert_eq!(tested, 10);
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
                let complete = solve_from(&inst, r, u64::MAX, incumbent);
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
                    let got = solve_from(&inst, r, fuel, incumbent);
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
        assert!(solve(&inst, 4, 10).is_none());
        assert_eq!(trace::take().expect("collecting").fuel_consumed, 10);
    }
}
