//! Benchmark suites and experiment harness.
//!
//! Reproduces every figure of the evaluation section of *A Polynomial
//! Spilling Heuristic: Layered Allocation* (Diouf, Cohen & Rastello):
//!
//! | Figure | Content | Runner |
//! |--------|---------|--------|
//! | 8  | mean normalised cost, SPEC CPU2000int @ ST231 | [`experiments::mean_cost_figure`] |
//! | 9  | mean normalised cost, EEMBC @ ST231 | same runner |
//! | 10 | mean normalised cost, lao-kernels @ ARMv7 | same runner |
//! | 11–13 | per-program cost distributions for the three suites | [`experiments::distribution_figure`] |
//! | 14 | non-chordal SPEC JVM98, R ∈ 2..16 | [`experiments::jvm_mean_figure`] |
//! | 15 | per-benchmark JVM98 costs at R = 6 | [`experiments::jvm_per_benchmark_figure`] |
//! | all | 8–15 plus the §2.3 and §7 studies, as `BENCH_paper.json` | [`paper::reproduce`] |
//!
//! The original benchmarks and compilers (Open64, JikesRVM) are not
//! redistributable, so [`suites`] *simulates* them: seeded synthetic
//! programs with suite-shaped size, loop-depth and pressure profiles,
//! compiled through the `lra-ir` pipeline into interference instances.
//! README's "Reproducing the paper's figures" argues the substitution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batchrun;
pub mod chaos;
pub mod experiments;
pub mod host;
pub mod paper;
pub mod profile;
pub mod stats;
pub mod suites;
