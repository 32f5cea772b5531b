//! Exact allocation on chordal graphs by clique-tree dynamic programming.
//!
//! A subset `S` of a chordal graph's vertices induces an `R`-colourable
//! subgraph iff every **maximal clique** contains at most `R` members of
//! `S` (induced subgraphs of chordal graphs are chordal, and chordal
//! graphs are perfect). The clique tree is a tree decomposition whose
//! bags are the maximal cliques, so the maximum-weight such `S` is
//! computable by the standard tree-decomposition DP: for each bag,
//! enumerate the kept subsets (popcount ≤ R) and combine children
//! through their separators.
//!
//! The DP is exponential only in the largest clique (= MaxLive), which
//! is exactly the pseudo-polynomial structure the paper exploits. Bags
//! beyond [`MAX_BAG`] make the table too large; [`solve`] then returns
//! `None` and the caller falls back to branch-and-bound.
//!
//! # Tables
//!
//! A bag's table is indexed densely by the subset of its parent
//! separator that a mask keeps: `2^|separator|` entries, each holding
//! the best value and the first bag mask reaching it. Masks are visited
//! in increasing order and an entry is replaced only by a strictly
//! better value, so ties resolve to the smallest mask. A mask's
//! separator keys and owned weight are each read from two small tables,
//! one per half of the mask.

use crate::problem::{Allocation, Instance};
use lra_graph::{cliques::CliqueTree, BitSet, Cost, Vertex};

/// Largest bag size the DP will attempt (2^22 masks ≈ 4M per bag).
pub const MAX_BAG: usize = 22;

/// The mask of a table entry no bag mask has reached.
const UNSET: u32 = u32::MAX;

/// The best bag mask found for one separator subset, and its value.
#[derive(Clone, Copy)]
struct Entry {
    value: Cost,
    mask: u32,
}

/// A sum over the set bits of a bag mask, `mask ↦ Σ_{i ∈ mask} part[i]`,
/// tabulated separately over the low and the high half of the mask. It
/// serves both as the bag's owned weight and as a bit gather onto a
/// separator key (`part[i]` the key bit of position `i`, or 0).
struct Split {
    lo: Vec<u64>,
    hi: Vec<u64>,
    shift: u32,
}

impl Split {
    fn new(part: &[u64]) -> Self {
        let shift = part.len() / 2;
        let half = |part: &[u64]| {
            let mut t = vec![0u64; 1 << part.len()];
            for m in 1..t.len() {
                t[m] = t[m & (m - 1)] + part[m.trailing_zeros() as usize];
            }
            t
        };
        Split {
            lo: half(&part[..shift]),
            hi: half(&part[shift..]),
            shift: shift as u32,
        }
    }

    /// The key bits of a bag's positions on the separator it shares
    /// with `other` (separator vertices keyed in increasing order).
    fn gather(bag: &[Vertex], other: &BitSet) -> Self {
        let mut next = 1u64;
        let part: Vec<u64> = bag
            .iter()
            .map(|v| {
                if !other.contains(v.index()) {
                    return 0;
                }
                let bit = next;
                next <<= 1;
                bit
            })
            .collect();
        Split::new(&part)
    }

    #[inline]
    fn at(&self, mask: u32) -> u64 {
        self.lo[(mask & ((1 << self.shift) - 1)) as usize] + self.hi[(mask >> self.shift) as usize]
    }
}

/// Solves a chordal instance exactly. Returns `None`, before any work,
/// when a bag is beyond [`MAX_BAG`]: the caller decides what to fall
/// back to.
///
/// # Panics
///
/// Panics if the instance is not chordal.
pub fn solve(instance: &Instance, r: u32) -> Option<Allocation> {
    let cliques = instance
        .maximal_cliques()
        .expect("chordal DP requires a chordal instance");
    let wg = instance.weighted_graph();
    let n = wg.vertex_count();
    // The bags are the maximal cliques, so both early exits are decided
    // from the clique sizes before any tree exists.
    let max_bag = cliques.iter().map(<[u32]>::len).max().unwrap_or(0);
    if max_bag > MAX_BAG {
        return None;
    }

    // Shortcut: R ≥ MaxLive means everything fits.
    if r as usize >= max_bag {
        return Some(instance.allocation_from_set(BitSet::full(n)));
    }

    let tree = CliqueTree::build(cliques);
    let k = tree.bag_count();
    // tables[b]: parent-separator subset -> best (value, full-bag mask).
    let mut tables: Vec<Vec<Entry>> = vec![Vec::new(); k];
    // child_keys[b][j]: gathers a mask of b onto the separator of its
    // j-th child, kept for the reconstruction.
    let mut child_keys: Vec<Vec<Split>> = (0..k).map(|_| Vec::new()).collect();
    let no_parent = BitSet::new(n);

    // Children before parents.
    for &b in tree.topo.iter().rev() {
        let vs = &tree.bags[b];
        let children = &tree.children[b];
        let parent = tree.parent[b].map_or(&no_parent, |p| &tree.bag_sets[p]);
        // Weight of kept vertices owned by this bag (not shared with
        // the parent — those are counted higher up).
        let owned: Vec<Cost> = vs
            .iter()
            .map(|v| {
                if parent.contains(v.index()) {
                    0
                } else {
                    wg.weight(v.index())
                }
            })
            .collect();
        let owned = Split::new(&owned);
        let parent_key = Split::gather(vs, parent);
        let sep_len = tree.bag_sets[b].intersection_len(parent);
        let keys: Vec<Split> = children
            .iter()
            .map(|&c| Split::gather(vs, &tree.bag_sets[c]))
            .collect();

        let mut best = vec![
            Entry {
                value: 0,
                mask: UNSET
            };
            1 << sep_len
        ];
        let end = 1u32 << vs.len();
        let mut mask = 0u32;
        while mask < end {
            if mask.count_ones() > r {
                // Every mask below `mask + lowest bit` keeps all of
                // `mask` and more, so none of them fits either.
                mask += mask & mask.wrapping_neg();
                continue;
            }
            let mut value = owned.at(mask);
            let mut feasible = true;
            for (key, &c) in keys.iter().zip(children) {
                let e = tables[c][key.at(mask) as usize];
                if e.mask == UNSET {
                    feasible = false;
                    break;
                }
                value += e.value;
            }
            if feasible {
                let slot = &mut best[parent_key.at(mask) as usize];
                if slot.mask == UNSET || value > slot.value {
                    *slot = Entry { value, mask };
                }
            }
            mask += 1;
        }
        tables[b] = best;
        child_keys[b] = keys;
    }

    // Reconstruct top-down.
    let mut allocated = BitSet::new(n);
    let mut stack: Vec<(usize, usize)> = tree
        .topo
        .iter()
        .filter(|&&b| tree.parent[b].is_none())
        .map(|&b| (b, 0))
        .collect();
    while let Some((b, key)) = stack.pop() {
        let mask = tables[b][key].mask;
        assert_ne!(
            mask, UNSET,
            "every separator subset with ≤ R kept is realisable"
        );
        for (i, v) in tree.bags[b].iter().enumerate() {
            if mask & (1 << i) != 0 {
                allocated.insert(v.index());
            }
        }
        for (key, &c) in child_keys[b].iter().zip(&tree.children[b]) {
            stack.push((c, key.at(mask) as usize));
        }
    }

    Some(instance.allocation_from_set(allocated))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::{generate, Graph, GraphBuilder, WeightedGraph};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn instance(g: Graph, w: Vec<Cost>) -> Instance {
        Instance::from_weighted_graph(WeightedGraph::new(g, w))
    }

    #[test]
    fn clique_keeps_r_heaviest() {
        let mut b = GraphBuilder::new(5);
        b.add_clique(&[0, 1, 2, 3, 4]);
        let inst = instance(b.build(), vec![5, 9, 2, 7, 4]);
        let a = solve(&inst, 2).unwrap();
        // Keep 9 and 7; spill 5+2+4 = 11.
        assert_eq!(a.spill_cost, 11);
        assert!(a.allocated.contains(1) && a.allocated.contains(3));
        assert!(verify::check(&inst, &a, 2).is_feasible());
    }

    #[test]
    fn r_one_equals_max_weight_stable_set() {
        use lra_graph::stable;
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..10 {
            let g = generate::random_chordal(&mut rng, 18, 24, 4);
            let w = generate::random_weights(&mut rng, 18, 2);
            let inst = instance(g, w);
            let a = solve(&inst, 1).unwrap();
            let brute = stable::max_weight_stable_set_brute(inst.weighted_graph(), None);
            assert_eq!(a.allocated_weight, brute.weight);
            assert!(verify::check(&inst, &a, 1).is_feasible());
        }
    }

    #[test]
    fn r_at_maxlive_allocates_everything() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let g = generate::random_chordal(&mut rng, 25, 30, 5);
        let inst = instance(g, vec![3; 25]);
        let ml = inst.max_live() as u32;
        let a = solve(&inst, ml).unwrap();
        assert_eq!(a.spill_cost, 0);
    }

    #[test]
    fn disconnected_components_solved_independently() {
        // Two triangles; R=2 spills the cheapest vertex of each.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let inst = instance(g, vec![5, 1, 4, 2, 6, 3]);
        let a = solve(&inst, 2).unwrap();
        assert_eq!(a.spill_cost, 1 + 2);
        assert!(!a.allocated.contains(1));
        assert!(!a.allocated.contains(3));
    }

    #[test]
    fn matches_brute_force_over_rs() {
        // Exhaustive reference: enumerate all subsets, keep the feasible
        // maximum.
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for trial in 0..6 {
            let g = generate::random_chordal(&mut rng, 12, 16, 4);
            let w = generate::random_weights(&mut rng, 12, 2);
            let inst = instance(g.clone(), w.clone());
            for r in 1..=4u32 {
                let a = solve(&inst, r).unwrap();
                let best = brute_force(&inst, r);
                assert_eq!(
                    a.allocated_weight, best,
                    "trial {trial}, R={r}: DP {} vs brute {best}",
                    a.allocated_weight
                );
                assert!(verify::check(&inst, &a, r).is_feasible());
            }
        }
    }

    /// Exhaustive max-weight R-colourable subset for tiny graphs.
    fn brute_force(inst: &Instance, r: u32) -> Cost {
        let n = inst.vertex_count();
        assert!(n <= 20);
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let set = BitSet::from_iter_with_capacity(n, (0..n).filter(|&v| mask & (1 << v) != 0));
            // Feasibility on chordal graphs: every maximal clique ≤ r.
            let ok = inst
                .maximal_cliques()
                .unwrap()
                .iter()
                .all(|c| c.iter().filter(|&&v| set.contains(v as usize)).count() <= r as usize);
            if ok {
                best = best.max(inst.weighted_graph().weight_of_set(&set));
            }
        }
        best
    }

    #[test]
    fn oversized_bags_return_none() {
        let mut b = GraphBuilder::new(MAX_BAG + 2);
        let all: Vec<usize> = (0..MAX_BAG + 2).collect();
        b.add_clique(&all);
        let inst = instance(b.build(), vec![1; MAX_BAG + 2]);
        assert!(solve(&inst, 2).is_none());
    }

    #[test]
    fn tie_breaks_are_pinned_on_seeded_chordal_graphs() {
        // (seed, R, spill cost, spilled vertices) on seeded random
        // chordal graphs with weights in {1, 2}, so ties are everywhere
        // and the pinned allocation pins the tie-breaks.
        #[allow(clippy::type_complexity)]
        const CASES: [(u64, u32, Cost, &[usize]); 10] = [
            (0, 1, 14, &[1, 5, 6, 10, 11, 12, 13, 14, 17, 19]),
            (1, 2, 15, &[2, 6, 7, 9, 11, 13, 15, 16, 20, 21, 22]),
            (2, 3, 12, &[2, 5, 10, 14, 16, 18, 21, 23, 24, 25]),
            (
                3,
                1,
                22,
                &[1, 3, 6, 7, 8, 11, 13, 16, 17, 18, 20, 23, 26, 27, 28],
            ),
            (
                4,
                2,
                21,
                &[0, 1, 4, 6, 9, 14, 15, 16, 17, 18, 20, 23, 26, 28, 30, 31],
            ),
            (5, 3, 11, &[0, 1, 2, 11, 12, 16, 27, 28, 31]),
            (
                6,
                1,
                25,
                &[
                    3, 4, 5, 6, 9, 10, 11, 12, 15, 17, 18, 22, 23, 24, 25, 28, 29, 30, 33, 34, 35,
                    36,
                ],
            ),
            (
                7,
                2,
                21,
                &[1, 2, 3, 4, 7, 13, 20, 25, 31, 34, 35, 36, 37, 39, 40],
            ),
            (
                8,
                3,
                21,
                &[1, 5, 7, 8, 12, 13, 14, 15, 25, 28, 30, 32, 37, 38, 40, 42],
            ),
            (
                9,
                1,
                35,
                &[
                    0, 3, 5, 8, 9, 10, 11, 13, 14, 18, 22, 27, 28, 29, 30, 33, 34, 35, 37, 38, 39,
                    41, 42, 43, 44, 45, 46,
                ],
            ),
        ];
        for (seed, r, spill, spilled) in CASES {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let n = 20 + 3 * seed as usize;
            let g = generate::random_chordal(&mut rng, n, n + 10, 4 + seed as usize % 3);
            let w: Vec<Cost> = (0..n).map(|_| rng.gen_range(1..3)).collect();
            let inst = instance(g, w);
            let a = solve(&inst, r).expect("small bags");
            assert_eq!(a.spill_cost, spill, "seed {seed}");
            let got: Vec<usize> = (0..n).filter(|&v| !a.allocated.contains(v)).collect();
            assert_eq!(got, spilled, "seed {seed}");
        }
    }
}
