//! Linear-scan allocators over live intervals (`LS`/`DLS` and `BLS`).
//!
//! The JIT baselines of §6.2. Both scan intervals by increasing start
//! point, keeping at most `R` intervals active:
//!
//! * **LS** (the paper's `DLS`, JikesRVM's default): on overflow, spill
//!   the candidate with the lowest spill cost.
//! * **BLS**: among candidates whose cost is within 25% of the
//!   cheapest, spill the one whose interval extends *furthest* —
//!   Belady's furthest-first rule, which is optimal for unweighted
//!   straight-line code.

use crate::problem::{Allocation, Allocator, Instance};
use lra_graph::{BitSet, Cost};

/// The default linear scan (`DLS` in the paper's figures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinearScan;

impl LinearScan {
    /// Creates the allocator.
    pub fn new() -> Self {
        LinearScan
    }
}

/// Linear scan with Belady's furthest-first tie-breaking (`BLS`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BeladyLinearScan;

impl BeladyLinearScan {
    /// Creates the allocator.
    pub fn new() -> Self {
        BeladyLinearScan
    }
}

/// `BLS` treats overflow candidates within this percentage of the
/// cheapest one's cost as cost-equivalent and spills the
/// furthest-ending of them.
const BLS_BAND_PERCENT: Cost = 25;

/// Spill-choice rule on register overflow.
enum Victim {
    CheapestCost,
    FurthestWithinBand,
}

fn scan(instance: &Instance, r: u32, rule: Victim) -> Allocation {
    let intervals = instance
        .intervals()
        .expect("linear scan requires an instance with live intervals");
    let wg = instance.weighted_graph();
    let n = intervals.len();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| (intervals[i].start, intervals[i].end));

    let mut allocated = BitSet::new(n);
    // Active list: (end, vertex), kept small (≤ R).
    let mut active: Vec<(u32, usize)> = Vec::new();

    for &i in &order {
        let iv = intervals[i];
        if iv.is_empty() {
            // Dead value: costs nothing, conflicts with nothing.
            allocated.insert(i);
            continue;
        }
        active.retain(|&(end, _)| end > iv.start);
        if active.len() < r as usize {
            active.push((iv.end, i));
            allocated.insert(i);
            continue;
        }
        if r == 0 {
            continue; // spill i
        }
        // Overflow: pick a victim among active + the new interval.
        let mut candidates: Vec<usize> = active.iter().map(|&(_, v)| v).collect();
        candidates.push(i);
        let victim = match rule {
            Victim::CheapestCost => *candidates
                .iter()
                .min_by_key(|&&v| (wg.weight(v), v))
                .expect("candidates nonempty"),
            Victim::FurthestWithinBand => {
                let min_cost = candidates
                    .iter()
                    .map(|&v| wg.weight(v))
                    .min()
                    .expect("candidates nonempty");
                let band = min_cost + min_cost * BLS_BAND_PERCENT / 100;
                *candidates
                    .iter()
                    .filter(|&&v| wg.weight(v) <= band)
                    .max_by_key(|&&v| (intervals[v].end, v))
                    .expect("the cheapest candidate is within its own band")
            }
        };
        if victim == i {
            continue; // spill the incoming interval
        }
        active.retain(|&(_, v)| v != victim);
        allocated.remove(victim);
        active.push((iv.end, i));
        allocated.insert(i);
    }

    instance.allocation_from_set(allocated)
}

impl Allocator for LinearScan {
    fn name(&self) -> &'static str {
        "DLS"
    }

    /// # Panics
    ///
    /// Panics if the instance carries no live intervals.
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        scan(instance, r, Victim::CheapestCost)
    }
}

impl Allocator for BeladyLinearScan {
    fn name(&self) -> &'static str {
        "BLS"
    }

    /// # Panics
    ///
    /// Panics if the instance carries no live intervals.
    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        scan(instance, r, Victim::FurthestWithinBand)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify;
    use lra_graph::Interval;

    fn instance(ivs: Vec<Interval>, w: Vec<Cost>) -> Instance {
        Instance::from_intervals(ivs, w)
    }

    #[test]
    fn no_overflow_allocates_everything() {
        let inst = instance(
            vec![
                Interval::new(0, 4),
                Interval::new(5, 9),
                Interval::new(10, 12),
            ],
            vec![1, 2, 3],
        );
        let a = LinearScan::new().allocate(&inst, 1);
        assert_eq!(a.spill_cost, 0);
        assert!(verify::check(&inst, &a, 1).is_feasible());
    }

    #[test]
    fn ls_spills_cheapest() {
        // Three overlapping intervals, one register.
        let inst = instance(
            vec![
                Interval::new(0, 10),
                Interval::new(1, 9),
                Interval::new(2, 8),
            ],
            vec![5, 1, 7],
        );
        let a = LinearScan::new().allocate(&inst, 1);
        // Scanning: 0 active; 1 arrives -> cheapest of {0(5),1(1)} is 1,
        // spilled; 2 arrives -> cheapest of {0(5),2(7)} is 0, spilled.
        assert!(!a.allocated.contains(1));
        assert!(!a.allocated.contains(0));
        assert!(a.allocated.contains(2));
        assert!(verify::check(&inst, &a, 1).is_feasible());
    }

    #[test]
    fn bls_prefers_furthest_among_equal_costs() {
        // Equal costs: Belady spills the interval reaching furthest.
        let inst = instance(
            vec![
                Interval::new(0, 20),
                Interval::new(1, 5),
                Interval::new(2, 6),
            ],
            vec![4, 4, 4],
        );
        let bls = BeladyLinearScan::new().allocate(&inst, 1);
        // First overflow {0, 1}: furthest is 0 (end 20) -> spill 0.
        // Second overflow {1, 2}: furthest is 2 (end 6) -> spill 2.
        assert!(!bls.allocated.contains(0));
        assert!(bls.allocated.contains(1));
        assert!(!bls.allocated.contains(2));
        assert!(verify::check(&inst, &bls, 1).is_feasible());
    }

    #[test]
    fn bls_respects_cost_threshold() {
        // Interval 0 reaches furthest but is far more expensive than
        // the threshold band, so BLS must not choose it.
        let inst = instance(
            vec![
                Interval::new(0, 20),
                Interval::new(1, 5),
                Interval::new(2, 6),
            ],
            vec![100, 4, 4],
        );
        let a = BeladyLinearScan::new().allocate(&inst, 1);
        // First overflow {0(100), 1(4)}: band = 4+1 = 5 -> only 1
        // qualifies; spill 1. Second overflow {0, 2}: spill 2.
        assert!(a.allocated.contains(0));
        assert!(!a.allocated.contains(1));
        assert!(!a.allocated.contains(2));
    }

    #[test]
    fn active_set_never_exceeds_r() {
        let ivs: Vec<Interval> = (0..10).map(|i| Interval::new(i, i + 5)).collect();
        let inst = instance(ivs, (1..=10).collect());
        for r in 1..=4 {
            let a = LinearScan::new().allocate(&inst, r);
            assert!(verify::check(&inst, &a, r).is_feasible(), "R={r}");
        }
    }

    #[test]
    fn zero_registers_spills_all_live_intervals() {
        let inst = instance(vec![Interval::new(0, 3), Interval::new(1, 2)], vec![2, 3]);
        let a = LinearScan::new().allocate(&inst, 0);
        assert_eq!(a.spill_cost, 5);
    }

    #[test]
    fn dead_intervals_are_free() {
        let inst = instance(vec![Interval::new(0, 0), Interval::new(0, 5)], vec![9, 1]);
        let a = LinearScan::new().allocate(&inst, 1);
        assert!(a.allocated.contains(0));
        assert!(a.allocated.contains(1));
        assert_eq!(a.spill_cost, 0);
    }

    #[test]
    #[should_panic(expected = "live intervals")]
    fn graph_only_instance_panics() {
        let g = lra_graph::Graph::from_edges(2, &[(0, 1)]);
        let inst = Instance::from_weighted_graph(lra_graph::WeightedGraph::unit(g));
        let _ = LinearScan::new().allocate(&inst, 1);
    }
}
