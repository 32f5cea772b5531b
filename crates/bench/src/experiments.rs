//! Experiment runners: one per figure of the paper's evaluation.
//!
//! Costs are aggregated per *program* (summing over its functions) and
//! normalised to the optimal allocation's cost for the same program and
//! register count, exactly as in the paper. Programs whose optimal cost
//! is zero at a given `R` (no spilling needed) are excluded from that
//! configuration's normalised statistics.
//!
//! Every runner fans its per-function work across the
//! [`lra_core::batch`] worker pool — pipeline sweeps go through
//! [`BatchAllocator`], instance-level studies through
//! [`batch::parallel_map`] — with the worker count resolved by
//! [`batch::default_threads`] (the CLI's `--threads` flag). The
//! figures are aggregates of per-function results combined in input
//! order, so the numbers are identical at any thread count.

use crate::stats::{self, FiveNum};
use crate::suites::Workload;
use lra_core::batch::{self, BatchAllocator};
use lra_core::driver::AllocationPipeline;
use lra_core::layered::Layered;
use lra_core::pipeline::InstanceKind;
use lra_core::problem::{Allocator, Instance};
use lra_core::registry::{AllocatorRegistry, CHORDAL_FIGURE_SET, JVM_FIGURE_SET};
use lra_core::Optimal;
use std::collections::BTreeMap;

/// The register counts of Figures 8–13.
pub const CHORDAL_REGISTER_COUNTS: [u32; 6] = [1, 2, 4, 8, 16, 32];
/// The register counts of Figure 14.
pub const JVM_REGISTER_COUNTS: [u32; 8] = [2, 4, 6, 8, 10, 12, 14, 16];

/// An algorithm column of a figure, resolved from the
/// [`AllocatorRegistry`] — the single source of truth for which
/// allocators exist and what instance view each one needs.
struct Column {
    name: &'static str,
    needs_intervals: bool,
}

fn columns(names: &[&str]) -> Vec<Column> {
    names
        .iter()
        .map(|n| {
            let spec = AllocatorRegistry::spec(n).expect("figure allocator is registered");
            Column {
                name: spec.name,
                needs_intervals: spec.needs_intervals,
            }
        })
        .collect()
}

fn optimal_index(cols: &[Column]) -> usize {
    cols.iter()
        .position(|c| c.name == "Optimal")
        .expect("column set includes Optimal")
}

/// The instance view `col` must see for `w`: linear scans need
/// intervals; everyone else uses the suite's native view (interval for
/// the SSA suites, precise for JVM).
fn view_for(w: &Workload, col: &Column) -> InstanceKind {
    if col.needs_intervals {
        InstanceKind::LinearIntervals
    } else {
        w.kind
    }
}

/// Per-program absolute costs for one algorithm at one register count:
/// the paper's metric (first-round spill-everywhere allocation cost),
/// produced by fanning the full [`AllocationPipeline`] (allocate →
/// spill-code rewrite → assign → verify) over the workloads with a
/// [`BatchAllocator`] and summing per program.
///
/// Workloads are batched per `(target, view)` configuration — one
/// batch per suite in practice, since suites are homogeneous.
fn per_program_costs(workloads: &[Workload], col: &Column, r: u32) -> BTreeMap<&'static str, u64> {
    let mut acc: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Group indices by pipeline configuration without requiring
    // Ord/Hash on Target; the group count is tiny.
    let mut groups: Vec<(lra_targets::Target, InstanceKind, Vec<usize>)> = Vec::new();
    for (i, w) in workloads.iter().enumerate() {
        let kind = view_for(w, col);
        match groups
            .iter_mut()
            .find(|(t, k, _)| *t == w.target && *k == kind)
        {
            Some((_, _, idxs)) => idxs.push(i),
            None => groups.push((w.target, kind, vec![i])),
        }
    }
    for (target, kind, idxs) in groups {
        let pipeline = AllocationPipeline::new(target)
            .allocator(col.name)
            .instance_kind(kind)
            .registers(r)
            .max_rounds(1);
        let functions: Vec<&lra_ir::Function> = idxs.iter().map(|&i| &workloads[i].ir).collect();
        let report = BatchAllocator::new(pipeline).run_refs(&functions);
        for (item, &i) in report.items.iter().zip(&idxs) {
            let w = &workloads[i];
            let r = match &item.outcome {
                Ok(r) => r,
                Err(e) => panic!("{} on {}: {e}", col.name, w.function),
            };
            debug_assert!(
                r.verdict.is_feasible(),
                "{} produced an infeasible allocation on {}",
                col.name,
                w.function
            );
            *acc.entry(w.program).or_insert(0) += r.first_round_spill_cost();
        }
    }
    acc
}

/// The normalised costs behind Figures 8–14 at `r` registers: per
/// column, `cost(alg, program) / cost(Optimal, program)` over the
/// programs whose optimal cost is positive, in program order.
fn normalised_costs(workloads: &[Workload], cols: &[Column], r: u32) -> Vec<Vec<f64>> {
    let per_alg: Vec<BTreeMap<&'static str, u64>> = cols
        .iter()
        .map(|c| per_program_costs(workloads, c, r))
        .collect();
    let opt = &per_alg[optimal_index(cols)];
    let included: Vec<&'static str> = opt
        .iter()
        .filter(|&(_, &c)| c > 0)
        .map(|(&p, _)| p)
        .collect();
    per_alg
        .iter()
        .map(|costs| {
            included
                .iter()
                .map(|p| costs[p] as f64 / opt[p] as f64)
                .collect()
        })
        .collect()
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

/// Runs a Figure-8/9/10-style experiment: for each `R`, the mean over
/// programs of `cost(alg, program) / cost(Optimal, program)`.
pub fn mean_cost_figure(workloads: &[Workload], rs: &[u32]) -> Vec<MeanRow> {
    figure_with_columns(workloads, rs, columns(&CHORDAL_FIGURE_SET))
}

/// Figure 14: the same statistic on the non-chordal JVM suite with the
/// JIT algorithm set.
pub fn jvm_mean_figure(workloads: &[Workload], rs: &[u32]) -> Vec<MeanRow> {
    figure_with_columns(workloads, rs, columns(&JVM_FIGURE_SET))
}

fn figure_with_columns(workloads: &[Workload], rs: &[u32], cols: Vec<Column>) -> Vec<MeanRow> {
    rs.iter()
        .map(|&r| {
            let ratios = normalised_costs(workloads, &cols, r);
            MeanRow {
                registers: r,
                values: cols
                    .iter()
                    .zip(&ratios)
                    .map(|(c, x)| (c.name, stats::mean(x)))
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

/// Runs a Figure-11/12/13-style experiment: the distribution over
/// programs of normalised allocation costs, per algorithm and register
/// count (Optimal excluded — it is 1.0 by definition).
pub fn distribution_figure(workloads: &[Workload], rs: &[u32]) -> Vec<DistributionRow> {
    let cols = columns(&CHORDAL_FIGURE_SET);
    let opt_idx = optimal_index(&cols);
    let mut out = Vec::new();
    for &r in rs {
        let ratios = normalised_costs(workloads, &cols, r);
        if ratios[opt_idx].is_empty() {
            continue;
        }
        for (i, (c, x)) in cols.iter().zip(&ratios).enumerate() {
            if i != opt_idx {
                out.push(DistributionRow {
                    registers: r,
                    algorithm: c.name,
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

/// Figure 15: per-benchmark normalised costs on the JVM suite at `r`
/// registers. Benchmarks with zero optimal cost report 1.0 for every
/// algorithm that also spills nothing.
pub fn jvm_per_benchmark_figure(workloads: &[Workload], r: u32) -> Vec<PerBenchmarkRow> {
    let cols = columns(&JVM_FIGURE_SET);
    let opt_idx = optimal_index(&cols);
    let per_alg: Vec<BTreeMap<&'static str, u64>> = cols
        .iter()
        .map(|c| per_program_costs(workloads, c, r))
        .collect();
    let programs: Vec<&'static str> = per_alg[opt_idx].keys().copied().collect();
    programs
        .iter()
        .map(|&p| {
            let opt_cost = per_alg[opt_idx][p];
            let values = cols
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let cost = per_alg[i][p];
                    let ratio = if opt_cost == 0 {
                        if cost == 0 {
                            1.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        cost as f64 / opt_cost as f64
                    };
                    (c.name, ratio)
                })
                .collect();
            PerBenchmarkRow { program: p, values }
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

/// Renders the SSA-conversion study.
///
/// Absolute costs are not comparable across the two IRs (SSA versioning
/// changes the value set and the SSA side uses the interval view), so
/// the table also shows each heuristic normalised to *its own* exact
/// optimum — the quantity that tells whether layered quasi-optimality
/// survives the conversion.
pub fn render_ssa_conversion_table(title: &str, rows: &[SsaConversionRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(
        s,
        "{:>10} {:>12} {:>12} {:>9} {:>12} {:>12} {:>10}",
        "registers", "LH(non-SSA)", "Opt(non-SSA)", "LH/Opt", "BFPL(SSA)", "Opt(SSA)", "BFPL/Opt"
    );
    for r in rows {
        let [lh, bfpl] = r.ratios();
        let _ = writeln!(
            s,
            "{:>10} {:>12} {:>12} {:>9.4} {:>12} {:>12} {:>10.4}",
            r.registers, r.lh_non_ssa, r.opt_non_ssa, lh, r.bfpl_ssa, r.opt_ssa, bfpl
        );
    }
    s
}

/// One row of the portfolio study: a program's aggregate spill cost
/// under the cheap tier alone versus under the full budgeted policy,
/// plus the policy's escalation statistics.
#[derive(Clone, Debug, Default)]
pub struct PortfolioRow {
    /// Program (benchmark application) name.
    pub program: &'static str,
    /// Functions of this program in the suite.
    pub functions: usize,
    /// Total spill cost of the cheap tier's allocations.
    pub cheap_cost: u64,
    /// Total spill cost of the policy's final allocations.
    pub portfolio_cost: u64,
    /// Functions on which the policy escalated to the exact solver.
    pub escalated: usize,
    /// Escalations in which the exact solver finished inside the
    /// budget (the result is a certified optimum).
    pub certified: usize,
    /// Escalations in which the certified exact result strictly beat
    /// the cheap one.
    pub exact_wins: usize,
    /// Escalations that ran out of budget holding an allocation
    /// strictly cheaper than the cheap one, kept uncertified.
    pub improved: usize,
}

/// Runs the [`lra_core::portfolio::Portfolio`] policy over `workloads`
/// at `r` registers (on each workload's native instance view) and
/// aggregates per program, in first-appearance order.
///
/// Fans across the [`batch`] worker pool; the node fuel is counted,
/// not timed, so the outcome is deterministic at any thread count.
///
/// # Panics
///
/// Panics if [`PortfolioConfig::cheap`](lra_core::portfolio::PortfolioConfig::cheap)
/// names no registered allocator.
pub fn portfolio_study(
    workloads: &[Workload],
    r: u32,
    cfg: &lra_core::portfolio::PortfolioConfig,
) -> Vec<PortfolioRow> {
    use lra_core::portfolio::{Portfolio, PortfolioSource};
    let policy =
        Portfolio::new(cfg.clone()).expect("portfolio cheap tier is a registered allocator");
    let outcomes = batch::parallel_map(workloads, batch::default_threads(), |_, w| {
        policy.decide(&w.instance, r)
    });
    let mut rows: Vec<PortfolioRow> = Vec::new();
    for (w, out) in workloads.iter().zip(&outcomes) {
        let row = match rows.iter_mut().find(|row| row.program == w.program) {
            Some(row) => row,
            None => {
                rows.push(PortfolioRow {
                    program: w.program,
                    ..PortfolioRow::default()
                });
                rows.last_mut().expect("just pushed")
            }
        };
        row.functions += 1;
        row.cheap_cost += out.cheap_cost;
        row.portfolio_cost += out.allocation.spill_cost;
        row.escalated += usize::from(out.escalated);
        row.certified += usize::from(out.certified);
        let exact = out.source == PortfolioSource::Exact;
        row.exact_wins += usize::from(exact && out.certified);
        row.improved += usize::from(exact && !out.certified);
    }
    rows
}

/// Renders the portfolio study with a totals line.
pub fn render_portfolio_table(title: &str, rows: &[PortfolioRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    if rows.is_empty() {
        s.push_str("(empty suite)\n");
        return s;
    }
    let _ = writeln!(
        s,
        "{:>12} {:>5} {:>11} {:>11} {:>7} {:>9} {:>9} {:>6} {:>8}",
        "program",
        "fns",
        "cheap",
        "portfolio",
        "saved%",
        "escalated",
        "certified",
        "wins",
        "improved"
    );
    let mut total = PortfolioRow {
        program: "TOTAL",
        ..PortfolioRow::default()
    };
    let saved = |cheap: u64, portfolio: u64| {
        if cheap > 0 {
            100.0 * (cheap - portfolio) as f64 / cheap as f64
        } else {
            0.0
        }
    };
    for row in rows {
        let _ = writeln!(
            s,
            "{:>12} {:>5} {:>11} {:>11} {:>6.2}% {:>9} {:>9} {:>6} {:>8}",
            row.program,
            row.functions,
            row.cheap_cost,
            row.portfolio_cost,
            saved(row.cheap_cost, row.portfolio_cost),
            row.escalated,
            row.certified,
            row.exact_wins,
            row.improved
        );
        total.functions += row.functions;
        total.cheap_cost += row.cheap_cost;
        total.portfolio_cost += row.portfolio_cost;
        total.escalated += row.escalated;
        total.certified += row.certified;
        total.exact_wins += row.exact_wins;
        total.improved += row.improved;
    }
    let _ = writeln!(
        s,
        "{:>12} {:>5} {:>11} {:>11} {:>6.2}% {:>9} {:>9} {:>6} {:>8}",
        total.program,
        total.functions,
        total.cheap_cost,
        total.portfolio_cost,
        saved(total.cheap_cost, total.portfolio_cost),
        total.escalated,
        total.certified,
        total.exact_wins,
        total.improved
    );
    s
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

/// Renders mean rows as an aligned text table (the printed "figure").
pub fn render_mean_table(title: &str, rows: &[MeanRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    if rows.is_empty() {
        s.push_str("(no data)\n");
        return s;
    }
    let _ = write!(s, "{:>10} {:>6}", "registers", "progs");
    for (name, _) in &rows[0].values {
        let _ = write!(s, " {name:>8}");
    }
    s.push('\n');
    for row in rows {
        let _ = write!(s, "{:>10} {:>6}", row.registers, row.programs);
        for (_, v) in &row.values {
            let _ = write!(s, " {v:>8.3}");
        }
        s.push('\n');
    }
    s
}

/// Renders distribution rows as an aligned text table.
pub fn render_distribution_table(title: &str, rows: &[DistributionRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    let _ = writeln!(
        s,
        "{:>10} {:>6} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "registers", "alg", "min", "q1", "median", "q3", "max"
    );
    for r in rows {
        let f = r.summary;
        let _ = writeln!(
            s,
            "{:>10} {:>6} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            r.registers, r.algorithm, f.min, f.q1, f.median, f.q3, f.max
        );
    }
    s
}

/// Renders Figure-15-style rows.
pub fn render_per_benchmark_table(title: &str, rows: &[PerBenchmarkRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "# {title}");
    if rows.is_empty() {
        s.push_str("(no data)\n");
        return s;
    }
    let _ = write!(s, "{:>10}", "benchmark");
    for (name, _) in &rows[0].values {
        let _ = write!(s, " {name:>8}");
    }
    s.push('\n');
    for row in rows {
        let _ = write!(s, "{:>10}", row.program);
        for (_, v) in &row.values {
            let _ = write!(s, " {v:>8.3}");
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suites;

    #[test]
    fn mean_figure_smoke_on_tiny_suite() {
        // A couple of lao workloads keep this fast.
        let ws: Vec<Workload> = suites::lao_kernels(3).into_iter().take(4).collect();
        let rows = mean_cost_figure(&ws, &[2, 4]);
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
        let rows = distribution_figure(&ws, &[2]);
        for r in &rows {
            assert!(r.summary.min <= r.summary.median);
            assert!(r.summary.median <= r.summary.max);
            assert!(r.summary.min >= 1.0 - 1e-12, "nobody beats Optimal");
        }
    }

    #[test]
    fn jvm_figures_smoke() {
        let ws: Vec<Workload> = suites::specjvm98(3).into_iter().take(6).collect();
        let rows = jvm_mean_figure(&ws, &[6]);
        assert_eq!(rows.len(), 1);
        for (name, v) in &rows[0].values {
            assert!(*v >= 1.0 - 1e-12, "{name} beat Optimal: {v}");
        }
        let per = jvm_per_benchmark_figure(&ws, 6);
        assert!(!per.is_empty());
    }

    #[test]
    fn portfolio_study_smoke_on_large_jit_methods() {
        let ws: Vec<Workload> = suites::jit_large(3).into_iter().take(4).collect();
        let cfg = lra_core::portfolio::PortfolioConfig::default().node_budget(20_000);
        let rows = portfolio_study(&ws, 6, &cfg);
        assert!(!rows.is_empty());
        for row in &rows {
            assert!(
                row.portfolio_cost <= row.cheap_cost,
                "{}: the policy may never lose to its own cheap tier",
                row.program
            );
            assert!(row.exact_wins <= row.certified);
            assert!(row.certified + row.improved <= row.escalated);
            assert!(row.escalated <= row.functions);
        }
        let t = render_portfolio_table("portfolio", &rows);
        assert!(t.contains("TOTAL"));
        assert!(t.contains("escalated"));
    }

    #[test]
    fn empty_suite_stats_render_explicitly_instead_of_panicking() {
        let t = render_suite_stats("empty", &[]);
        assert!(t.contains("(empty suite)"));
        let t = render_portfolio_table("empty", &[]);
        assert!(t.contains("(empty suite)"));
    }

    #[test]
    fn tables_render() {
        let ws: Vec<Workload> = suites::lao_kernels(3).into_iter().take(2).collect();
        let rows = mean_cost_figure(&ws, &[2]);
        let t = render_mean_table("fig", &rows);
        assert!(t.contains("registers"));
        assert!(t.contains("BFPL"));
    }
}
