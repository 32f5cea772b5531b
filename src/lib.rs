//! Facade crate for the layered-allocation workspace.
//!
//! Re-exports the member crates under short names so examples and
//! downstream users can depend on a single crate:
//!
//! * [`graph`] — chordal-graph machinery (PEO, Frank's stable set,
//!   cliques, clique trees, generators),
//! * [`ir`] — the SSA compiler substrate (CFG, dominators, liveness,
//!   interference, spill costs, spill code, program generators),
//! * [`targets`] — ST231 and ARM Cortex-A8 cost models,
//! * [`core`] — the allocators (`NL`/`BL`/`FPL`/`BFPL`/`LH`), the
//!   baselines (`GC`, `DLS`, `BLS`), the exact `Optimal` solvers, the
//!   [`AllocatorRegistry`] that names them all, the end-to-end
//!   [`AllocationPipeline`], and the parallel [`BatchAllocator`]
//!   driver that fans whole corpora across a worker pool,
//! * [`service`] — the long-lived allocation server: a bounded
//!   request queue with explicit backpressure feeding a persistent
//!   worker pool, shared result cache, per-server metrics, and a TCP
//!   JSON-lines front end plus client,
//! * [`mod@bench`] — benchmark suites and the paper's figures.
//!
//! The pipeline types are re-exported at the top level: the normal way
//! to allocate registers for a function is
//!
//! ```
//! use lra::ir::builder::FunctionBuilder;
//! use lra::targets::{Target, TargetKind};
//! use lra::AllocationPipeline;
//!
//! // x and y are live together; with one register, one of them spills.
//! let mut b = FunctionBuilder::new("demo");
//! let entry = b.entry_block();
//! let x = b.op(entry, &[]);
//! let y = b.op(entry, &[x]);
//! b.op(entry, &[x, y]);
//! let f = b.finish();
//!
//! let report = AllocationPipeline::new(Target::new(TargetKind::St231))
//!     .allocator("BFPL") // any AllocatorRegistry name works here
//!     .registers(1)
//!     .run(&f)
//!     .expect("BFPL handles every SSA function");
//! assert!(report.spill_cost > 0);
//! assert!(report.verdict.is_feasible());
//! ```
//!
//! Lower-level entry points (solving a bare weighted graph, not a
//! function) remain available through [`core`]:
//!
//! ```
//! use lra::core::layered::Layered;
//! use lra::core::problem::{Allocator, Instance};
//! use lra::graph::{Graph, WeightedGraph};
//!
//! let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
//! let inst = Instance::from_weighted_graph(WeightedGraph::new(g, vec![1, 5, 1]));
//! let a = Layered::bfpl().allocate(&inst, 1);
//! assert_eq!(a.spill_cost, 2); // keep the heavy middle vertex
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lra_bench as bench;
pub use lra_core as core;
pub use lra_graph as graph;
pub use lra_ir as ir;
pub use lra_service as service;
pub use lra_targets as targets;

pub use lra_core::{
    AllocatedFunction, AllocationPipeline, AllocatorRegistry, AllocatorSpec, BatchAllocator,
    BatchItem, BatchReport, BatchSummary, PipelineError, Portfolio, PortfolioConfig,
    PortfolioOutcome, PortfolioSource, ReportRow, RowStats, SolveBudget,
};
pub use lra_ir::AnalysisScratch;
pub use lra_service::{AllocationService, ServiceConfig, ServiceMetrics, SubmitOptions};
