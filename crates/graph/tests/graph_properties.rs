//! Property-based tests of the graph substrate.

use lra_graph::{
    cliques, generate, interval, peo, stable, BitMatrix, BitSet, Graph, WeightedGraph,
};
use proptest::prelude::*;
use rand::Rng as _;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Subtree-intersection graphs are chordal, and the PEO the MCS
    /// produces passes the independent Golumbic check.
    #[test]
    fn generated_chordal_graphs_have_valid_peos(seed in 0u64..10_000, n in 2usize..60) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::random_chordal(&mut rng, n, n + 10, 4);
        let order = peo::perfect_elimination_order(&g).expect("chordal");
        prop_assert!(peo::is_perfect_elimination_order(&g, &order));
    }

    /// Maximal cliques are cliques, are maximal, and cover every edge.
    #[test]
    fn maximal_cliques_cover_edges(seed in 0u64..10_000, n in 2usize..50) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::random_chordal(&mut rng, n, n + 8, 4);
        let order = peo::perfect_elimination_order(&g).expect("chordal");
        let cs = cliques::maximal_cliques(&g, &order);
        for c in cs.iter() {
            let idx: Vec<usize> = c.iter().map(|&v| v as usize).collect();
            prop_assert!(g.is_clique(&idx));
            for v in 0..n {
                if !idx.contains(&v) {
                    prop_assert!(!idx.iter().all(|&u| g.has_edge(u, v)), "not maximal");
                }
            }
        }
        for (u, v) in g.edges() {
            prop_assert!(
                cs.iter().any(|c| c.contains(&(u.index() as u32)) && c.contains(&(v.index() as u32))),
                "edge ({u},{v}) not covered by any maximal clique"
            );
        }
        // A chordal graph has at most n maximal cliques.
        prop_assert!(cs.len() <= n);
    }

    /// The clique tree satisfies the junction property and its largest
    /// bag is the largest clique.
    #[test]
    fn clique_tree_consistent_with_coloring(seed in 0u64..10_000, n in 2usize..40) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::random_chordal(&mut rng, n, n + 8, 4);
        let order = peo::perfect_elimination_order(&g).expect("chordal");
        let t = cliques::CliqueTree::build(&cliques::maximal_cliques(&g, &order));
        prop_assert!(t.junction_property_holds());
        let largest = t.bags.iter().map(Vec::len).max().unwrap_or(0);
        prop_assert_eq!(largest, cliques::max_clique_size(&g, &order));
    }

    /// Frank's stable set is stable and weight-maximal (vs brute force).
    #[test]
    fn frank_stable_and_optimal(seed in 0u64..10_000, n in 2usize..16) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generate::random_chordal(&mut rng, n, n + 6, 3);
        let w = generate::random_weights(&mut rng, n, 2);
        let wg = WeightedGraph::new(g, w);
        let order = peo::perfect_elimination_order(wg.graph()).expect("chordal");
        let fast = stable::max_weight_stable_set(&wg, &order);
        let idx: Vec<usize> = fast.vertices.iter().map(|v| v.index()).collect();
        prop_assert!(wg.graph().is_stable_set(&idx));
        prop_assert_eq!(fast.weight, wg.weight_of_slice(&idx));
        let brute = stable::max_weight_stable_set_brute(&wg, None);
        prop_assert_eq!(fast.weight, brute.weight);
    }

    /// Interval graphs: edges are exactly pairwise overlaps, MaxLive
    /// equals the max clique, and the end-point order is a PEO, also
    /// with zero-length and repeated intervals mixed in.
    #[test]
    fn interval_graph_consistency(seed in 0u64..10_000, n in 1usize..50) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let profile = generate::IntervalProfile {
            n,
            points: (n as u32) * 3 + 2,
            mean_len: 5,
            long_lived_percent: 20,
        };
        let mut ivs = generate::random_interval_set(&mut rng, &profile);
        for _ in 0..rng.gen_range(0..=n) {
            let iv = ivs[rng.gen_range(0..ivs.len())];
            let at = rng.gen_range(iv.start..=iv.end);
            ivs.push(if rng.gen_range(0..2) == 0 { iv } else { interval::Interval::new(at, at) });
        }
        let n = ivs.len();
        let g = interval::interval_graph(&ivs);
        let mut pairs = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                prop_assert_eq!(g.has_edge(i, j), ivs[i].overlaps(&ivs[j]));
                if ivs[i].overlaps(&ivs[j]) {
                    pairs.push((i, j));
                }
            }
        }
        prop_assert_eq!(&g, &Graph::from_edges(n, &pairs));
        let order = interval::interval_peo(&ivs);
        prop_assert!(peo::is_perfect_elimination_order(&g, &order));
        prop_assert_eq!(
            interval::max_overlap(&ivs),
            cliques::max_clique_size(&g, &order)
        );
    }

    /// BitSet behaves like a reference BTreeSet under a random op
    /// sequence.
    #[test]
    fn bitset_matches_reference(seed in 0u64..10_000, ops in 1usize..200) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cap = 100;
        let mut bs = BitSet::new(cap);
        let mut reference = std::collections::BTreeSet::new();
        for _ in 0..ops {
            let k = rng.gen_range(0..cap);
            match rng.gen_range(0..3) {
                0 => {
                    prop_assert_eq!(bs.insert(k), reference.insert(k));
                }
                1 => {
                    prop_assert_eq!(bs.remove(k), reference.remove(&k));
                }
                _ => {
                    prop_assert_eq!(bs.contains(k), reference.contains(&k));
                }
            }
        }
        prop_assert_eq!(bs.len(), reference.len());
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
    }

    /// Every constructor lands on the same CSR graph: `from_edges`,
    /// `from_bit_rows` and `from_bit_matrix` built from the same edge
    /// set agree on edges, degrees and (sorted) neighbor order, with
    /// self-loops dropped and the symmetric closure taken.
    #[test]
    fn csr_constructors_agree(seed in 0u64..10_000, n in 1usize..40) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let m = rng.gen_range(0..n * 2 + 1);
        // Directed, possibly duplicated, possibly self-looped raw pairs:
        // construction must canonicalise all of that away.
        let edges: Vec<(usize, usize)> = (0..m)
            .map(|_| (rng.gen_range(0..n), rng.gen_range(0..n)))
            .collect();

        let from_edges = Graph::from_edges(n, &edges);

        let mut row_sets = vec![BitSet::new(n); n];
        let mut matrix = BitMatrix::new(n, n);
        for &(u, v) in &edges {
            if u != v {
                row_sets[u].insert(v);
                row_sets[v].insert(u);
            }
            // The matrix path gets only the one direction (and the
            // self-loops): from_bit_matrix owes us the closure.
            matrix.insert(u, v);
        }
        let from_rows = Graph::from_bit_rows(row_sets);
        let from_matrix = Graph::from_bit_matrix(matrix);

        prop_assert_eq!(&from_edges, &from_rows);
        prop_assert_eq!(&from_edges, &from_matrix);
        for g in [&from_edges, &from_rows, &from_matrix] {
            for v in 0..n {
                let nbrs = g.neighbor_indices(v);
                prop_assert_eq!(nbrs.len(), g.degree(v));
                prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
                prop_assert!(!nbrs.contains(&(v as u32)), "no self-loop survives");
                // The bit rows are the canonical adjacency the CSR
                // arena was unpacked from: they must agree bit for bit.
                prop_assert_eq!(
                    g.neighbor_row(v).iter().map(|u| u as u32).collect::<Vec<_>>(),
                    nbrs.to_vec()
                );
            }
        }
    }
}
