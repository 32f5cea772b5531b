//! The paper's figures as views over one cost table per suite, and the
//! instance-level studies.
//!
//! Figures 8–15 report one number per (allocator, `R`, function): the
//! spill-everywhere allocation cost of the allocator on the function's
//! interference instance. [`cost_table`] computes that number once per
//! suite for every figure column at every register count, solving the
//! instances the suite already built ([`Workload::instance`], or
//! [`Workload::linear_scan_instance`] for the linear scans) and
//! checking every allocation with [`verify::check`]. Those instances
//! are what the allocation pipeline builds in its first round, so each
//! entry equals the pipeline's first-round spill cost (a test in
//! `tests/batch_determinism.rs` holds the two together).
//!
//! Costs are summed per *program* and normalised to the optimal
//! allocation's cost for the same program and register count, exactly
//! as in the paper. Programs whose optimal cost is zero at a given `R`
//! (no spilling needed) are excluded from that configuration's
//! normalised statistics. [`mean_figure`], [`distribution_figure`] and
//! [`per_benchmark_figure`] are the three views.
//!
//! Every runner fans its per-function work across
//! [`batch::parallel_map`] with the worker count resolved by
//! [`batch::default_threads`] (the CLI's `--threads` flag). Results are
//! combined in input order, so the numbers are identical at any thread
//! count.

use crate::stats::{self, FiveNum};
use crate::suites::Workload;
use lra_core::batch;
use lra_core::layered::Layered;
use lra_core::pipeline::InstanceKind;
use lra_core::problem::{Allocator, Instance};
use lra_core::registry::AllocatorRegistry;
use lra_core::{verify, Optimal};
use std::collections::BTreeMap;

/// The register counts of Figures 8–13.
pub const CHORDAL_REGISTER_COUNTS: [u32; 6] = [1, 2, 4, 8, 16, 32];
/// The register counts of Figures 14 and 15.
pub const JVM_REGISTER_COUNTS: [u32; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// One suite's spill costs: for every figure column and register
/// count, each program's total over its functions.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CostTable {
    /// The columns (registered allocator names), in figure order.
    pub columns: Vec<&'static str>,
    /// The register counts, in figure order.
    pub registers: Vec<u32>,
    /// `(program, costs)` in program-name order: `costs[c][i]` is the
    /// program's total under `columns[c]` at `registers[i]`.
    pub programs: Vec<(&'static str, Vec<Vec<u64>>)>,
}

/// Solves every workload with every allocator of `columns` at every
/// register count of `registers`, and sums the spill costs per
/// program.
///
/// # Panics
///
/// Panics if a column names no registered allocator, or if an
/// allocation fails [`verify::check`].
pub fn cost_table(workloads: &[Workload], columns: &[&str], registers: &[u32]) -> CostTable {
    let specs: Vec<_> = columns
        .iter()
        .map(|n| AllocatorRegistry::spec(n).expect("figure allocator is registered"))
        .collect();
    let per_function = batch::parallel_map(workloads, batch::default_threads(), |_, w| {
        specs
            .iter()
            .map(|spec| {
                let inst = if spec.needs_intervals {
                    w.linear_scan_instance()
                } else {
                    &w.instance
                };
                let allocator = spec.build();
                registers
                    .iter()
                    .map(|&r| {
                        let alloc = allocator.allocate(inst, r);
                        assert!(
                            verify::check(inst, &alloc, r).is_feasible(),
                            "{} produced an infeasible allocation on {} at R = {r}",
                            spec.name,
                            w.function
                        );
                        alloc.spill_cost
                    })
                    .collect::<Vec<u64>>()
            })
            .collect::<Vec<_>>()
    });
    let mut programs: BTreeMap<&'static str, Vec<Vec<u64>>> = BTreeMap::new();
    for (w, costs) in workloads.iter().zip(per_function) {
        let total = programs
            .entry(w.program)
            .or_insert_with(|| vec![vec![0; registers.len()]; specs.len()]);
        for (t, c) in total.iter_mut().flatten().zip(costs.iter().flatten()) {
            *t += c;
        }
    }
    CostTable {
        columns: specs.iter().map(|s| s.name).collect(),
        registers: registers.to_vec(),
        programs: programs.into_iter().collect(),
    }
}

impl CostTable {
    fn optimal(&self) -> usize {
        self.columns
            .iter()
            .position(|&c| c == "Optimal")
            .expect("column set includes Optimal")
    }

    /// Per column, `cost(alg, program) / cost(Optimal, program)` at
    /// `registers[i]` over the programs whose optimal cost is
    /// positive, in program order.
    fn normalised(&self, i: usize) -> Vec<Vec<f64>> {
        let opt = self.optimal();
        let included: Vec<&Vec<Vec<u64>>> = self
            .programs
            .iter()
            .map(|(_, costs)| costs)
            .filter(|costs| costs[opt][i] > 0)
            .collect();
        (0..self.columns.len())
            .map(|c| {
                included
                    .iter()
                    .map(|costs| costs[c][i] as f64 / costs[opt][i] as f64)
                    .collect()
            })
            .collect()
    }
}

/// One row of a mean-cost figure: register count plus the mean
/// normalised cost of each algorithm.
#[derive(Clone, Debug)]
pub struct MeanRow {
    /// Register count of this configuration.
    pub registers: u32,
    /// `(algorithm, mean normalised cost)` pairs, in column order.
    pub values: Vec<(&'static str, f64)>,
    /// Number of programs included (optimal cost > 0).
    pub programs: usize,
}

/// Figures 8, 9, 10 and 14: for each `R`, the mean over programs of
/// `cost(alg, program) / cost(Optimal, program)`.
pub fn mean_figure(table: &CostTable) -> Vec<MeanRow> {
    table
        .registers
        .iter()
        .enumerate()
        .map(|(i, &r)| {
            let ratios = table.normalised(i);
            MeanRow {
                registers: r,
                values: table
                    .columns
                    .iter()
                    .zip(&ratios)
                    .map(|(&c, x)| (c, stats::mean(x)))
                    .collect(),
                programs: ratios[0].len(),
            }
        })
        .collect()
}

/// One distribution entry: the five-number summary of per-program
/// normalised costs for one algorithm at one register count.
#[derive(Clone, Debug)]
pub struct DistributionRow {
    /// Register count.
    pub registers: u32,
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Distribution over programs of the normalised cost.
    pub summary: FiveNum,
}

/// Figures 11, 12 and 13: the distribution over programs of normalised
/// allocation costs, per algorithm and register count (Optimal
/// excluded — it is 1.0 by definition, and register counts at which no
/// program spills are skipped).
pub fn distribution_figure(table: &CostTable) -> Vec<DistributionRow> {
    let opt = table.optimal();
    let mut out = Vec::new();
    for (i, &r) in table.registers.iter().enumerate() {
        let ratios = table.normalised(i);
        if ratios[opt].is_empty() {
            continue;
        }
        for (c, (&algorithm, x)) in table.columns.iter().zip(&ratios).enumerate() {
            if c != opt {
                out.push(DistributionRow {
                    registers: r,
                    algorithm,
                    summary: stats::five_number_summary(x),
                });
            }
        }
    }
    out
}

/// One bar of Figure 15: a benchmark's normalised cost under one
/// algorithm at a fixed register count.
#[derive(Clone, Debug)]
pub struct PerBenchmarkRow {
    /// Benchmark (program) name.
    pub program: &'static str,
    /// `(algorithm, normalised cost)` pairs.
    pub values: Vec<(&'static str, f64)>,
}

/// Figure 15: per-benchmark normalised costs at `r` registers.
/// Benchmarks with zero optimal cost report 1.0 for every algorithm
/// that also spills nothing, and infinity for one that spills.
///
/// # Panics
///
/// Panics if `r` is not one of the table's register counts.
pub fn per_benchmark_figure(table: &CostTable, r: u32) -> Vec<PerBenchmarkRow> {
    let i = table
        .registers
        .iter()
        .position(|&x| x == r)
        .expect("the table covers the figure's register count");
    let opt = table.optimal();
    table
        .programs
        .iter()
        .map(|(program, costs)| {
            let opt_cost = costs[opt][i];
            let values = table
                .columns
                .iter()
                .zip(costs)
                .map(|(&c, col)| {
                    let cost = col[i];
                    let ratio = if opt_cost == 0 {
                        if cost == 0 {
                            1.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        cost as f64 / opt_cost as f64
                    };
                    (c, ratio)
                })
                .collect();
            PerBenchmarkRow { program, values }
        })
        .collect()
}

/// Result of the §2.3 spill-set inclusion study.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InclusionStats {
    /// Functions whose optimal spill sets were inclusion-monotone over
    /// the whole register sweep.
    pub monotone: usize,
    /// Functions checked.
    pub total: usize,
}

/// Replays the empirical study of §2.3 (Diouf et al.): how often is the
/// optimal spill set at `R` registers a superset of the optimal spill
/// set at `R+1` registers? The paper reports 99.83% over SPEC JVM98
/// methods; Figure 2 proves it cannot be 100%.
///
/// Optimal allocations are rarely unique, so we greedily search for an
/// inclusion-monotone *chain* of optima: at each `R` the exact solver
/// runs with weights scaled by `n+1` plus a unit bonus for variables
/// allocated at the previous register count. The scaled optimum is
/// still an optimum of the original weights, and among the optima it
/// maximises overlap with the previous allocation.
pub fn spill_set_inclusion_study(workloads: &[Workload], rs: &[u32]) -> InclusionStats {
    // Each function's register sweep is independent; fan functions
    // across the pool (the sweep itself is inherently sequential).
    let per_function = batch::parallel_map(workloads, batch::default_threads(), |_, w| {
        let base = w.linear_scan_instance();
        let wg = base.weighted_graph();
        let n = wg.vertex_count() as u64;
        let mut prev_alloc: Option<lra_graph::BitSet> = None;
        let mut ok = true;
        for &r in rs {
            let inst = match (&prev_alloc, base.intervals()) {
                (Some(prev), Some(ivs)) => {
                    let weights: Vec<u64> = (0..wg.vertex_count())
                        .map(|v| wg.weight(v) * (n + 1) + u64::from(prev.contains(v)))
                        .collect();
                    Instance::from_intervals(ivs.to_vec(), weights)
                }
                _ => base.clone(),
            };
            let a = Optimal.allocate(&inst, r);
            if let Some(p) = &prev_alloc {
                // More registers -> allocate a superset.
                if !p.is_subset(&a.allocated) {
                    ok = false;
                }
            }
            prev_alloc = Some(a.allocated);
        }
        ok
    });
    InclusionStats {
        monotone: per_function.iter().filter(|&&ok| ok).count(),
        total: per_function.len(),
    }
}

/// One row of the SSA-conversion study: allocation cost on the
/// original non-SSA method versus on its pruned-SSA conversion.
#[derive(Clone, Debug)]
pub struct SsaConversionRow {
    /// Register count.
    pub registers: u32,
    /// Total LH spill cost on the original (non-chordal) graphs.
    pub lh_non_ssa: u64,
    /// Total exact optimum on the original graphs.
    pub opt_non_ssa: u64,
    /// Total BFPL spill cost on the SSA-converted (chordal) graphs.
    pub bfpl_ssa: u64,
    /// Total exact optimum on the SSA-converted graphs.
    pub opt_ssa: u64,
}

impl SsaConversionRow {
    /// `LH / Opt` on the original graphs and `BFPL / Opt` on the
    /// converted ones; 1.0 where the optimum is zero.
    pub fn ratios(&self) -> [f64; 2] {
        let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 1.0 };
        [
            ratio(self.lh_non_ssa, self.opt_non_ssa),
            ratio(self.bfpl_ssa, self.opt_ssa),
        ]
    }
}

/// The "pre-spill phase in any compiler" study (§7): convert each JVM
/// method to pruned SSA (`lra_ir::ssa::into_ssa`) and compare the
/// layered-optimal allocator on the resulting chordal graph with the
/// `LH` approximation on the original non-chordal graph. SSA versioning
/// splits each variable at its merge points, so the SSA optimum is a
/// finer-grained (never worse-modelled) target.
///
/// The original side is each workload's precise-graph instance, so
/// `workloads` must use that view (the SPEC JVM98 suite does).
pub fn ssa_conversion_study(workloads: &[Workload], rs: &[u32]) -> Vec<SsaConversionRow> {
    use lra_core::pipeline::build_instance;
    use lra_core::LayeredHeuristic;
    use lra_ir::ssa::into_ssa;
    let converted: Vec<lra_ir::Function> =
        batch::parallel_map(workloads, batch::default_threads(), |_, w| {
            into_ssa(&w.ir).function
        });
    let pairs: Vec<(&Workload, &lra_ir::Function)> = workloads.iter().zip(&converted).collect();
    rs.iter()
        .map(|&r| {
            let cells = batch::parallel_map(&pairs, batch::default_threads(), |_, &(w, s)| {
                debug_assert_eq!(w.kind, InstanceKind::PreciseGraph);
                let orig = &w.instance;
                // The SSA side uses the linearised-interval view: still
                // chordal (intervals), and the exact optimum stays
                // polynomial (min-cost flow) at SSA-converted sizes.
                let ssa = build_instance(s, &w.target, InstanceKind::LinearIntervals);
                [
                    LayeredHeuristic::new().allocate(orig, r).spill_cost,
                    Optimal.allocate(orig, r).spill_cost,
                    Layered::bfpl().allocate(&ssa, r).spill_cost,
                    Optimal.allocate(&ssa, r).spill_cost,
                ]
            });
            let mut row = SsaConversionRow {
                registers: r,
                lh_non_ssa: 0,
                opt_non_ssa: 0,
                bfpl_ssa: 0,
                opt_ssa: 0,
            };
            for [lh, on, bf, os] in cells {
                row.lh_non_ssa += lh;
                row.opt_non_ssa += on;
                row.bfpl_ssa += bf;
                row.opt_ssa += os;
            }
            row
        })
        .collect()
}

/// Suite shape statistics (sizes and register pressure), for the
/// `stats` CLI command.
/// An empty workload set renders an explicit `(empty suite)` report
/// instead of aborting.
pub fn render_suite_stats(title: &str, workloads: &[Workload]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    if workloads.is_empty() {
        s.push_str("(empty suite)\n");
        return s;
    }
    let n = workloads.len();
    let verts: Vec<f64> = workloads
        .iter()
        .map(|w| w.instance.vertex_count() as f64)
        .collect();
    let edges: Vec<f64> = workloads
        .iter()
        .map(|w| w.instance.graph().edge_count() as f64)
        .collect();
    let pressure: Vec<f64> = workloads
        .iter()
        .map(|w| w.instance.max_live() as f64)
        .collect();
    let chordal = workloads.iter().filter(|w| w.instance.is_chordal()).count();
    let _ = writeln!(s, "functions: {n} ({chordal} chordal)");
    let _ = writeln!(
        s,
        "variables: mean {:.1}, max {:.0}",
        stats::mean(&verts),
        verts.iter().cloned().fold(0.0, f64::max)
    );
    let _ = writeln!(
        s,
        "interferences: mean {:.1}, max {:.0}",
        stats::mean(&edges),
        edges.iter().cloned().fold(0.0, f64::max)
    );
    let _ = writeln!(
        s,
        "MaxLive: mean {:.1}, max {:.0}",
        stats::mean(&pressure),
        pressure.iter().cloned().fold(0.0, f64::max)
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;
    use lra_core::registry::{CHORDAL_FIGURE_SET, JVM_FIGURE_SET};

    #[test]
    fn mean_figure_smoke_on_tiny_suite() {
        // A couple of lao workloads keep this fast.
        let ws: Vec<Workload> = suites::lao_kernels(3).into_iter().take(4).collect();
        let rows = mean_figure(&cost_table(&ws, &CHORDAL_FIGURE_SET, &[2, 4]));
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // Optimal normalises to exactly 1.
            let opt = row.values.iter().find(|(n, _)| *n == "Optimal").unwrap().1;
            if row.programs > 0 {
                assert!((opt - 1.0).abs() < 1e-12);
                // Every heuristic is >= optimal.
                for (name, v) in &row.values {
                    assert!(*v >= 1.0 - 1e-12, "{name} below optimal: {v}");
                }
            }
        }
    }

    #[test]
    fn distribution_figure_consistent_with_mean() {
        let ws: Vec<Workload> = suites::lao_kernels(3).into_iter().take(4).collect();
        let rows = distribution_figure(&cost_table(&ws, &CHORDAL_FIGURE_SET, &[2]));
        for r in &rows {
            assert!(r.summary.min <= r.summary.median);
            assert!(r.summary.median <= r.summary.max);
            assert!(r.summary.min >= 1.0 - 1e-12, "nobody beats Optimal");
        }
    }

    #[test]
    fn jvm_figures_smoke() {
        let ws: Vec<Workload> = suites::specjvm98(3).into_iter().take(6).collect();
        let table = cost_table(&ws, &JVM_FIGURE_SET, &[6]);
        let rows = mean_figure(&table);
        assert_eq!(rows.len(), 1);
        for (name, v) in &rows[0].values {
            assert!(*v >= 1.0 - 1e-12, "{name} beat Optimal: {v}");
        }
        let per = per_benchmark_figure(&table, 6);
        assert!(!per.is_empty());
    }

    #[test]
    fn empty_suite_stats_render_explicitly_instead_of_panicking() {
        let t = render_suite_stats("empty", &[]);
        assert!(t.contains("(empty suite)"));
    }
}
