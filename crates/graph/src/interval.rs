//! Interval graphs: live ranges over a linearised program order.
//!
//! Linear-scan style frameworks approximate each live range by one
//! interval `[start, end)` over a linearisation of the program. The
//! intersection graph of intervals is an **interval graph** — a subclass
//! of chordal graphs — and its maximal cliques correspond exactly to
//! program points, which makes register pressure (`MaxLive`) explicit.
//! The exact spill-everywhere solver for interval instances reduces to a
//! min-cost flow over interval endpoints (see `lra-core`).

use crate::bitset::{BitMatrix, BitSet};
use crate::cliques::Cliques;
use crate::graph::{Graph, Vertex};

/// A half-open interval `[start, end)` of program points.
///
/// Zero-length intervals (`start == end`) are legal and overlap nothing.
///
/// # Examples
///
/// ```
/// use lra_graph::Interval;
/// let a = Interval::new(0, 4);
/// let b = Interval::new(3, 6);
/// assert!(a.overlaps(&b));
/// assert!(!a.overlaps(&Interval::new(4, 5)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// First program point covered.
    pub start: u32,
    /// One past the last program point covered.
    pub end: u32,
}

impl Interval {
    /// Creates `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "interval start {start} exceeds end {end}");
        Interval { start, end }
    }

    /// Returns `true` if the two half-open intervals intersect.
    /// Empty intervals overlap nothing.
    pub fn overlaps(&self, other: &Interval) -> bool {
        !self.is_empty() && !other.is_empty() && self.start < other.end && other.start < self.end
    }

    /// The number of program points covered.
    pub fn len(&self) -> u32 {
        self.end - self.start
    }

    /// Returns `true` if the interval covers no program point.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

// The start flag and the index field of a sweep event.
const START: u64 = 1 << 31;
const INDEX_MASK: u64 = START - 1;

/// The endpoints of the non-empty intervals, sorted in sweep order.
///
/// Each event is one `u64`: the point in the high 32 bits, then a start
/// flag, then the interval index in the low 31 bits. Sorting the plain
/// integers puts ends before starts at equal points, which is what
/// half-open intervals need: `[a, p)` and `[p, b)` never meet.
///
/// # Panics
///
/// Panics if there are more than `2^31` intervals.
fn sweep_events(intervals: &[Interval]) -> Vec<u64> {
    assert!(
        intervals.len() <= INDEX_MASK as usize + 1,
        "at most 2^31 intervals"
    );
    let mut events: Vec<u64> = Vec::with_capacity(2 * intervals.len());
    for (i, iv) in intervals.iter().enumerate() {
        if !iv.is_empty() {
            events.push(u64::from(iv.start) << 32 | START | i as u64);
            events.push(u64::from(iv.end) << 32 | i as u64);
        }
    }
    events.sort_unstable();
    events
}

/// Builds the intersection graph of `intervals` (vertex `i` ↔
/// `intervals[i]`).
///
/// One sweep over the sorted endpoints keeps the live intervals as a bit
/// set; each start unions that set into its own adjacency row, a
/// word-level O(n/64) step, and [`Graph::from_bit_matrix`] mirrors the
/// rows by 64×64 word blocks. O(n log n + n²/64) in all.
///
/// # Examples
///
/// ```
/// use lra_graph::interval::{interval_graph, Interval};
/// let g = interval_graph(&[Interval::new(0, 3), Interval::new(2, 5), Interval::new(4, 6)]);
/// assert!(g.has_edge(0, 1));
/// assert!(g.has_edge(1, 2));
/// assert!(!g.has_edge(0, 2));
/// ```
pub fn interval_graph(intervals: &[Interval]) -> Graph {
    let n = intervals.len();
    let mut rows = BitMatrix::new(n, n);
    let mut active = BitSet::new(n);
    for e in sweep_events(intervals) {
        let i = (e & INDEX_MASK) as usize;
        if e & START != 0 {
            rows.union_row_with(i, &active);
            active.insert(i);
        } else {
            active.remove(i);
        }
    }
    Graph::from_bit_matrix(rows)
}

/// The maximal cliques of the interval graph of `intervals`, without
/// building the graph.
///
/// A maximal clique is the set of intervals live where a start is
/// followed by an end in the endpoint sweep (Gilmore & Hoffman). A
/// zero-length interval overlaps nothing and is a clique of its own.
/// Members are listed in no particular order; the family equals
/// [`crate::cliques::maximal_cliques`] on the interval graph, as sets.
/// O(n log n + Σ|C|).
///
/// # Examples
///
/// ```
/// use lra_graph::interval::{maximal_cliques, Interval};
/// let cs = maximal_cliques(&[Interval::new(0, 3), Interval::new(2, 5), Interval::new(4, 6)]);
/// let mut sets: Vec<Vec<u32>> = cs.iter().map(|c| { let mut c = c.to_vec(); c.sort(); c }).collect();
/// sets.sort();
/// assert_eq!(sets, vec![vec![0, 1], vec![1, 2]]);
/// ```
///
/// # Panics
///
/// Panics if there are more than `2^31` intervals.
pub fn maximal_cliques(intervals: &[Interval]) -> Cliques {
    let mut cliques = Cliques::new();
    for (i, iv) in intervals.iter().enumerate() {
        if iv.is_empty() {
            cliques.push(&[i as u32]);
        }
    }
    // The live intervals, with each one's slot for O(1) removal.
    let mut active: Vec<u32> = Vec::new();
    let mut slot = vec![0u32; intervals.len()];
    let mut rising = false;
    for e in sweep_events(intervals) {
        let i = (e & INDEX_MASK) as u32;
        if e & START != 0 {
            slot[i as usize] = active.len() as u32;
            active.push(i);
            rising = true;
        } else {
            if rising {
                cliques.push(&active);
                rising = false;
            }
            let s = slot[i as usize] as usize;
            active.swap_remove(s);
            if let Some(&moved) = active.get(s) {
                slot[moved as usize] = s as u32;
            }
        }
    }
    cliques
}

/// The maximum number of intervals simultaneously overlapping a point —
/// the `MaxLive` of the linearised program.
pub fn max_overlap(intervals: &[Interval]) -> usize {
    let (mut live, mut max) = (0, 0);
    for e in sweep_events(intervals) {
        if e & START != 0 {
            live += 1;
            max = max.max(live);
        } else {
            live -= 1;
        }
    }
    max
}

/// An interval-order PEO: sorting vertices by **increasing end point**
/// yields a perfect elimination order of the interval graph.
///
/// (A vertex's later neighbours all contain its end point, hence mutually
/// overlap.) Vertices are ordered by `(end, start)`, ties by index.
pub fn interval_peo(intervals: &[Interval]) -> Vec<Vertex> {
    let mut keyed: Vec<(u64, u32)> = intervals
        .iter()
        .enumerate()
        .map(|(i, iv)| (u64::from(iv.end) << 32 | u64::from(iv.start), i as u32))
        .collect();
    keyed.sort_unstable();
    keyed
        .into_iter()
        .map(|(_, i)| Vertex::new(i as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cliques, peo};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn sorted_sets(cs: &Cliques) -> Vec<Vec<u32>> {
        let mut sets: Vec<Vec<u32>> = cs
            .iter()
            .map(|c| {
                let mut c = c.to_vec();
                c.sort_unstable();
                c
            })
            .collect();
        sets.sort();
        sets
    }

    fn peo_cliques(ivs: &[Interval]) -> Vec<Vec<u32>> {
        sorted_sets(&cliques::maximal_cliques(
            &interval_graph(ivs),
            &interval_peo(ivs),
        ))
    }

    /// `n` intervals over `points` points starting at `base`: few points
    /// make shared endpoints and nesting common; about one in eight is
    /// zero-length and one in eight repeats an earlier interval.
    fn crowded(rng: &mut ChaCha8Rng, n: usize, points: u32, base: u32) -> Vec<Interval> {
        let mut ivs: Vec<Interval> = Vec::with_capacity(n);
        for _ in 0..n {
            let iv = match rng.gen_range(0..8) {
                0 if !ivs.is_empty() => ivs[rng.gen_range(0..ivs.len())],
                1 => {
                    let p = base + rng.gen_range(0..=points);
                    Interval::new(p, p)
                }
                _ => {
                    let a = base + rng.gen_range(0..=points);
                    let b = base + rng.gen_range(0..=points);
                    Interval::new(a.min(b), a.max(b))
                }
            };
            ivs.push(iv);
        }
        ivs
    }

    #[test]
    fn sweep_cliques_match_the_peo_enumeration() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        for trial in 0..400 {
            let n = rng.gen_range(0..60);
            let points = rng.gen_range(1..2 * n as u32 + 3);
            let base = if trial % 2 == 0 { 0 } else { u32::MAX - points };
            let ivs = crowded(&mut rng, n, points, base);
            assert_eq!(
                sorted_sets(&maximal_cliques(&ivs)),
                peo_cliques(&ivs),
                "trial {trial}: {ivs:?}"
            );
        }
    }

    #[test]
    fn sweep_cliques_on_the_corner_cases() {
        let top = u32::MAX;
        let ivs = [
            Interval::new(0, 4),         // 0: shares 4 with 1 and 2
            Interval::new(4, 8),         // 1
            Interval::new(4, 6),         // 2: nested in 1
            Interval::new(5, 6),         // 3: nested in 2
            Interval::new(5, 6),         // 4: identical to 3
            Interval::new(5, 5),         // 5: zero-length inside 3
            Interval::new(20, 30),       // 6: isolated
            Interval::new(top - 2, top), // 7: ends at u32::MAX
            Interval::new(top - 1, top), // 8
            Interval::new(top, top),     // 9: zero-length at u32::MAX
        ];
        let want = vec![
            vec![0],
            vec![1, 2, 3, 4],
            vec![5],
            vec![6],
            vec![7, 8],
            vec![9],
        ];
        assert_eq!(sorted_sets(&maximal_cliques(&ivs)), want);
        assert_eq!(peo_cliques(&ivs), want);
        assert!(maximal_cliques(&[]).is_empty());
    }

    /// The `(key, index)` sort must give the order of the stable sort
    /// on `(end, start)` it replaced, ties and all.
    #[test]
    fn interval_peo_matches_the_stable_sort() {
        let mut rng = ChaCha8Rng::seed_from_u64(41);
        for trial in 0..200 {
            let n = rng.gen_range(0..80);
            let base = if trial % 2 == 0 { 0 } else { u32::MAX - 6 };
            let ivs = crowded(&mut rng, n, 6, base);
            let mut want: Vec<usize> = (0..ivs.len()).collect();
            want.sort_by_key(|&i| (ivs[i].end, ivs[i].start));
            let got: Vec<usize> = interval_peo(&ivs).iter().map(|v| v.index()).collect();
            assert_eq!(got, want, "trial {trial}");
        }
    }

    #[test]
    fn overlap_semantics_half_open() {
        let a = Interval::new(0, 2);
        assert!(!a.overlaps(&Interval::new(2, 4)));
        assert!(a.overlaps(&Interval::new(1, 2)));
        assert!(!a.overlaps(&Interval::new(1, 1))); // empty interval
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds end")]
    fn backwards_interval_panics() {
        let _ = Interval::new(3, 2);
    }

    #[test]
    fn graph_matches_pairwise_overlap() {
        let ivs = [
            Interval::new(0, 5),
            Interval::new(3, 8),
            Interval::new(8, 10),
            Interval::new(4, 9),
            Interval::new(2, 2),
        ];
        let g = interval_graph(&ivs);
        for i in 0..ivs.len() {
            for j in i + 1..ivs.len() {
                assert_eq!(
                    g.has_edge(i, j),
                    ivs[i].overlaps(&ivs[j]),
                    "edge ({i},{j}) mismatch"
                );
            }
        }
    }

    #[test]
    fn interval_graphs_are_chordal() {
        let ivs = [
            Interval::new(0, 4),
            Interval::new(1, 6),
            Interval::new(5, 9),
            Interval::new(2, 8),
            Interval::new(7, 12),
        ];
        let g = interval_graph(&ivs);
        assert!(peo::is_chordal(&g));
        let order = interval_peo(&ivs);
        assert!(peo::is_perfect_elimination_order(&g, &order));
    }

    #[test]
    fn max_overlap_counts_pressure() {
        let ivs = [
            Interval::new(0, 10),
            Interval::new(2, 5),
            Interval::new(3, 4),
            Interval::new(6, 8),
        ];
        assert_eq!(max_overlap(&ivs), 3); // at point 3: all of 0,1,2
        assert_eq!(max_overlap(&[]), 0);
        assert_eq!(max_overlap(&[Interval::new(1, 1)]), 0);
    }

    #[test]
    fn max_overlap_touching_endpoints_do_not_stack() {
        let ivs = [Interval::new(0, 3), Interval::new(3, 6)];
        assert_eq!(max_overlap(&ivs), 1);
    }
}
