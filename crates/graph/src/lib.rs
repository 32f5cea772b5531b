//! Weighted interference-graph substrate for layered register allocation.
//!
//! This crate implements the graph-theoretic machinery that the layered
//! spilling heuristic of Diouf, Cohen & Rastello (*A Polynomial Spilling
//! Heuristic: Layered Allocation*, CGO 2013) is built on:
//!
//! * undirected [`Graph`]s and [`WeightedGraph`]s with spill costs
//!   ([`graph`], [`weights`]),
//! * perfect elimination orders via maximum-cardinality search and
//!   lexicographic BFS, and chordality testing ([`peo`]),
//! * Frank's linear-time **maximum weighted stable set** algorithm on
//!   chordal graphs — the engine of each allocation layer ([`stable`]),
//! * maximal-clique enumeration and **clique trees** of chordal graphs,
//!   used by the fixed-point improvement and by the exact solver
//!   ([`cliques`]),
//! * greedy elimination-order colouring (the *tree-scan* assignment
//!   stage) ([`coloring`]),
//! * interval graphs, the subclass produced by linearised live ranges
//!   ([`interval`]),
//! * seeded random generators for chordal, interval and general graphs
//!   ([`generate`]),
//! * Graphviz export ([`dot`]).
//!
//! # Example
//!
//! Find the maximum weighted stable set of the chordal graph from Figure 4
//! of the paper:
//!
//! ```
//! use lra_graph::{GraphBuilder, WeightedGraph, peo, stable};
//!
//! // Vertices: a=0, b=1, c=2, d=3, e=4, f=5, g=6 (Figure 4 / 5 of the paper).
//! let mut b = GraphBuilder::new(7);
//! for &(u, v) in &[(0, 3), (0, 5), (3, 5), (3, 4), (4, 5), (2, 3), (2, 4), (1, 2), (1, 6), (2, 6)] {
//!     b.add_edge(u, v);
//! }
//! let g = b.build();
//! let wg = WeightedGraph::new(g, vec![1, 2, 2, 5, 2, 6, 1]);
//! let order = peo::perfect_elimination_order(wg.graph()).expect("graph is chordal");
//! let set = stable::max_weight_stable_set(&wg, &order);
//! assert_eq!(set.weight, 8); // {b, f} as in Figure 5
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod cliques;
pub mod coloring;
pub mod dot;
pub mod generate;
pub mod graph;
pub mod interval;
pub mod peo;
pub mod stable;
pub mod weights;

pub use bitset::{BitMatrix, BitRow, BitSet};
pub use cliques::{maximal_cliques, CliqueTree, Cliques};
pub use graph::{Graph, GraphBuilder, Vertex};
pub use interval::Interval;
pub use weights::{Cost, WeightedGraph};
