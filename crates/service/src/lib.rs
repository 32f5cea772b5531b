//! `lra-service`: a long-lived allocation server on top of the batch
//! infrastructure.
//!
//! The ROADMAP's serve-at-scale direction, made concrete: a JIT
//! deployment of the paper's spill-then-reanalyse pipeline
//! (Diouf–Cohen–Rastello, CGO 2013) is a *server* workload — streams
//! of small-to-medium methods arriving continuously, many of them
//! repeats. This crate turns the one-shot
//! [`lra_core::batch::BatchAllocator`] into that server:
//!
//! * [`AllocationService`] — a persistent worker pool fed by a
//!   **bounded** request queue. Submissions past the queue capacity
//!   are rejected ([`SubmitError::QueueFull`]) instead of blocking:
//!   backpressure is part of the API, not an accident of buffer
//!   sizes. Shutdown drains — every accepted request is served.
//! * a process-wide shared result cache — requests run under the
//!   `Portfolio` policy's exact-keyed
//!   [`lra_core::cache::ResultCache`], so repeat methods skip the
//!   solvers entirely with byte-identical output.
//! * [`ServiceMetrics`] — requests served, rejections, cache
//!   hits/misses/evictions, queue-depth high-water mark, p50/p95
//!   service time.
//! * a TCP front end ([`server::serve`]) speaking a JSON-lines
//!   protocol ([`proto`]) whose functions travel as
//!   [`lra_ir::textio`] text, plus the matching pipelined
//!   [`client::Client`] / load generator with a budgeted,
//!   jittered-backoff retry loop.
//! * an overload posture: `queue_full` backpressure, a request-size
//!   cap, read/write timeouts on every connection, and deterministic
//!   fault injection ([`fault`], off unless a plan is installed) for
//!   soak-testing the whole stack. Effort per request is bounded by
//!   the portfolio's node fuel alone, so every answer is a function
//!   of the request and the configuration.
//!
//! Because every item is produced by [`lra_core::batch::allocate_item`]
//! — the exact engine batch workers run — a service dump over a corpus
//! is **byte-identical** to [`BatchAllocator::run`] on the same
//! functions, at any worker count, cache-cold or cache-warm. CI diffs
//! all three.
//!
//! [`BatchAllocator::run`]: lra_core::batch::BatchAllocator::run

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod fault;
pub mod histogram;
pub mod metrics;
pub mod proto;
pub mod queue;
pub mod server;
mod service;

pub use client::{Client, LoadResult};
pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use metrics::ServiceMetrics;
pub use server::{serve, Server};
pub use service::{
    AllocationService, ServiceConfig, SubmitError, SubmitOptions, Ticket, DEFAULT_QUEUE_CAPACITY,
    DEFAULT_READ_TIMEOUT,
};
