//! Compiler IR substrate for the layered-allocation reproduction.
//!
//! The paper evaluates its allocators on interference graphs produced by
//! real compilers (Open64 for ST231/ARMv7, JikesRVM for SPEC JVM98).
//! This crate rebuilds that pipeline from scratch:
//!
//! * a small SSA-capable IR: control-flow graph, blocks, instructions,
//!   virtual registers ([`mod@cfg`], [`builder`]),
//! * dominator trees (Cooper–Harvey–Kennedy) ([`dom`]),
//! * natural-loop detection and block frequency estimation ([`loops`]),
//! * backward liveness analysis with SSA φ semantics, per-point register
//!   pressure and `MaxLive`, worklist-solved ([`liveness`]),
//! * the shared per-round analysis bundle threaded through the
//!   allocation pipeline ([`analysis`]),
//! * interference-graph construction — **chordal** for strict-SSA
//!   functions, general for non-SSA functions — plus linearised live
//!   intervals as used by linear-scan allocators ([`interference`]),
//! * spill-cost estimation (`frequency × accesses`, ABI-aware)
//!   ([`spill_cost`]),
//! * spill-everywhere code insertion ([`spill_code`]) — stores after
//!   definitions, reloads before uses — plus live-range splitting at
//!   uses and at over-pressure boundaries ([`split`]) and
//!   rematerialization of constant-like values ([`remat`]),
//! * seeded random program generators shaped like the benchmark suites
//!   of the paper ([`genprog`]),
//! * a canonical, round-trippable text codec ([`textio`]): the one
//!   printer of the IR, read by people and by the service wire format
//!   alike.
//!
//! # Example
//!
//! Build a tiny SSA function, compute liveness and the (chordal)
//! interference graph:
//!
//! ```
//! use lra_ir::builder::FunctionBuilder;
//! use lra_ir::{interference, liveness};
//!
//! let mut b = FunctionBuilder::new("demo");
//! let entry = b.entry_block();
//! let x = b.op(entry, &[]);          // x = const
//! let y = b.op(entry, &[x]);         // y = f(x)
//! let _z = b.op(entry, &[x, y]);     // z = g(x, y)
//! let f = b.finish();
//! let live = liveness::analyze(&f);
//! let ig = interference::interference_graph(&f, &live);
//! assert!(lra_graph::peo::is_chordal(&ig));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod block_edits;
pub mod builder;
pub mod cfg;
pub mod dom;
pub mod genprog;
pub mod interference;
pub mod liveness;
pub mod loops;
pub mod remat;
pub mod scratch;
pub mod spill_code;
pub mod spill_cost;
pub mod split;
pub mod ssa;
pub mod textio;

pub use analysis::FunctionAnalysis;
pub use block_edits::BlockEdits;
pub use cfg::{Block, BlockId, Function, Instr, Opcode, Value};
pub use scratch::AnalysisScratch;
