//! Layered register allocation: a polynomial spilling heuristic.
//!
//! This crate implements the allocators of Diouf, Cohen & Rastello,
//! *A Polynomial Spilling Heuristic: Layered Allocation* (CGO 2013),
//! together with the baselines and exact solvers the paper evaluates
//! against.
//!
//! # The idea
//!
//! Decoupled (SSA-based) register allocation reduces spilling to:
//! *choose a maximum-weight set of variables whose interference subgraph
//! is R-colourable*. Conventional heuristics incrementally **spill**
//! variables; layered allocation incrementally **allocates** them, one
//! *layer* — a maximum weighted stable set, exactly computable on
//! chordal graphs in linear time — per register. Each layer raises the
//! register pressure everywhere by at most one, so `R` layers are
//! feasible by construction.
//!
//! # Allocators
//!
//! | Name | Type | Scope | Paper section |
//! |------|------|-------|---------------|
//! | `NL`   | [`layered::Layered::nl`]   | chordal | Alg. 2 |
//! | `BL`   | [`layered::Layered::bl`]   | chordal | §4.1 |
//! | `FPL`  | [`layered::Layered::fpl`]  | chordal | §4.2, Alg. 3–4 |
//! | `BFPL` | [`layered::Layered::bfpl`] | chordal | §4.1 + §4.2 |
//! | `LH`   | [`cluster::LayeredHeuristic`] | any graph | §5, Alg. 5–6 |
//! | `GC`   | [`baselines::ChaitinBriggs`] | any graph | baseline |
//! | `DLS`  | [`baselines::LinearScan`] | intervals | baseline |
//! | `BLS`  | [`baselines::BeladyLinearScan`] | intervals | baseline |
//! | `Optimal` | [`optimal::Optimal`] | any | exact reference |
//! | `Portfolio` | [`portfolio::Portfolio`] | any | cheap first, exact under budget |
//!
//! # Example
//!
//! ```
//! use lra_core::layered::Layered;
//! use lra_core::optimal::Optimal;
//! use lra_core::problem::{Allocator, Instance};
//! use lra_graph::{Graph, WeightedGraph};
//!
//! // A chordal interference graph with spill costs.
//! let g = Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
//! let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![4, 2, 7, 1]));
//!
//! let bfpl = Layered::bfpl().allocate(&inst, 2);
//! let opt = Optimal.allocate(&inst, 2);
//! assert_eq!(bfpl.spill_cost, opt.spill_cost); // quasi-optimal in practice
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod baselines;
pub mod batch;
pub mod cache;
pub mod cluster;
pub mod driver;
pub mod layered;
pub mod optimal;
pub mod pipeline;
pub mod portfolio;
pub mod problem;
pub mod registry;
pub mod trace;
pub mod verify;

pub use batch::{BatchAllocator, BatchItem, BatchReport, BatchSummary, ReportRow, RowStats};
pub use cluster::LayeredHeuristic;
pub use driver::{AllocatedFunction, AllocationPipeline, PipelineError};
pub use layered::Layered;
pub use optimal::Optimal;
pub use portfolio::{Portfolio, PortfolioConfig, PortfolioOutcome, PortfolioSource};
pub use problem::{Allocation, Allocator, Instance};
pub use registry::{AllocatorRegistry, AllocatorSpec, CHORDAL_FIGURE_SET, JVM_FIGURE_SET};
