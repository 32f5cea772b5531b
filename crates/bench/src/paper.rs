//! The paper's evaluation as one catalogue, and the `lra-bench paper`
//! document built from it (`BENCH_paper.json`).
//!
//! [`FIGURES`] names Figures 8–15: the suite each runs on, its title
//! and its row builder. The `figN`, `inclusion` and `ssa` commands
//! print these tables; [`to_json`] writes the same rows, at the
//! precision the tables print, as one deterministic document with no
//! timings (schema `lra-bench/paper-v1`, see `docs/benchmarks.md`).
//! The rows are aggregates combined in input order, so the document is
//! identical at any `--threads` setting and CI diffs it against the
//! committed copy.

use crate::experiments::{
    self, distribution_figure, jvm_mean_figure, jvm_per_benchmark_figure, mean_cost_figure,
    DistributionRow, InclusionStats, MeanRow, PerBenchmarkRow, SsaConversionRow,
    CHORDAL_REGISTER_COUNTS, JVM_REGISTER_COUNTS,
};
use crate::suites::{self, Workload};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// A benchmark suite of the evaluation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Suite {
    /// SPEC CPU2000int on ST231.
    Spec,
    /// EEMBC on ST231.
    Eembc,
    /// lao-kernels on ARMv7.
    Lao,
    /// SPEC JVM98 on ARMv7.
    Jvm,
}

impl Suite {
    /// Every suite, in the order `stats` reports them.
    pub const ALL: [Suite; 4] = [Suite::Spec, Suite::Eembc, Suite::Lao, Suite::Jvm];

    /// Display name (`SPEC CPU2000int`, …).
    pub fn name(self) -> &'static str {
        match self {
            Suite::Spec => "SPEC CPU2000int",
            Suite::Eembc => "EEMBC",
            Suite::Lao => "lao-kernels",
            Suite::Jvm => "SPEC JVM98",
        }
    }
}

/// The four suites at one seed, each generated on first use.
pub struct Suites {
    seed: u64,
    cells: [OnceLock<Vec<Workload>>; 4],
}

impl Suites {
    /// The suites at `seed`; nothing is generated yet.
    pub fn new(seed: u64) -> Self {
        Suites {
            seed,
            cells: Default::default(),
        }
    }

    /// The workloads of `suite`, generating them on the first call.
    pub fn get(&self, suite: Suite) -> &[Workload] {
        self.cells[suite as usize].get_or_init(|| match suite {
            Suite::Spec => suites::spec2000int(self.seed),
            Suite::Eembc => suites::eembc(self.seed),
            Suite::Lao => suites::lao_kernels(self.seed),
            Suite::Jvm => suites::specjvm98(self.seed),
        })
    }
}

#[derive(Clone, Copy)]
enum Kind {
    /// Mean normalised cost per `R` over the chordal algorithm set.
    Mean,
    /// Five-number summaries per `R` and algorithm.
    Distribution,
    /// Mean normalised cost per `R` over the JIT algorithm set.
    JvmMean,
    /// Per-benchmark normalised cost at one `R`.
    PerBenchmark(u32),
}

/// One figure of the paper's evaluation.
pub struct Figure {
    /// CLI command and JSON key (`fig8` … `fig15`).
    pub name: &'static str,
    /// The suite it runs on.
    pub suite: Suite,
    /// Table title.
    pub title: &'static str,
    kind: Kind,
}

/// Figures 8–15.
pub const FIGURES: [Figure; 8] = [
    Figure {
        name: "fig8",
        suite: Suite::Spec,
        title: "Figure 8: allocation cost, SPEC CPU2000int on ST231 (normalised to Optimal)",
        kind: Kind::Mean,
    },
    Figure {
        name: "fig9",
        suite: Suite::Eembc,
        title: "Figure 9: allocation cost, EEMBC on ST231 (normalised to Optimal)",
        kind: Kind::Mean,
    },
    Figure {
        name: "fig10",
        suite: Suite::Lao,
        title: "Figure 10: allocation cost, lao-kernels on ARMv7 (normalised to Optimal)",
        kind: Kind::Mean,
    },
    Figure {
        name: "fig11",
        suite: Suite::Spec,
        title: "Figure 11: distribution over SPEC CPU2000int programs (ST231)",
        kind: Kind::Distribution,
    },
    Figure {
        name: "fig12",
        suite: Suite::Eembc,
        title: "Figure 12: distribution over EEMBC programs (ST231)",
        kind: Kind::Distribution,
    },
    Figure {
        name: "fig13",
        suite: Suite::Lao,
        title: "Figure 13: distribution over lao-kernels programs (ARMv7)",
        kind: Kind::Distribution,
    },
    Figure {
        name: "fig14",
        suite: Suite::Jvm,
        title:
            "Figure 14: layered-heuristic vs other allocators, SPEC JVM98 (normalised to Optimal)",
        kind: Kind::JvmMean,
    },
    Figure {
        name: "fig15",
        suite: Suite::Jvm,
        title: "Figure 15: per-benchmark normalised cost, SPEC JVM98 at R = 6",
        kind: Kind::PerBenchmark(6),
    },
];

/// A figure's rows.
pub enum Table {
    /// Figures 8–10 and 14.
    Mean(Vec<MeanRow>),
    /// Figures 11–13.
    Distribution(Vec<DistributionRow>),
    /// Figure 15.
    PerBenchmark(Vec<PerBenchmarkRow>),
}

impl Figure {
    /// Computes the figure's rows on its suite's `workloads`.
    pub fn run(&self, workloads: &[Workload]) -> Table {
        let (ws, chordal) = (workloads, &CHORDAL_REGISTER_COUNTS);
        match self.kind {
            Kind::Mean => Table::Mean(mean_cost_figure(ws, chordal)),
            Kind::Distribution => Table::Distribution(distribution_figure(ws, chordal)),
            Kind::JvmMean => Table::Mean(jvm_mean_figure(ws, &JVM_REGISTER_COUNTS)),
            Kind::PerBenchmark(r) => Table::PerBenchmark(jvm_per_benchmark_figure(ws, r)),
        }
    }

    /// The figure as the `figN` command prints it.
    pub fn render(&self, table: &Table) -> String {
        match table {
            Table::Mean(rows) => experiments::render_mean_table(self.title, rows),
            Table::Distribution(rows) => experiments::render_distribution_table(self.title, rows),
            Table::PerBenchmark(rows) => experiments::render_per_benchmark_table(self.title, rows),
        }
    }
}

/// The §2.3 inclusion study's sweeps: label, suite, register counts.
const INCLUSION_SWEEPS: [(&str, Suite, &[u32]); 2] = [
    ("lao-kernels, R = 1..8", Suite::Lao, &[1, 2, 3, 4, 6, 8]),
    (
        "specjvm98 (interval view), R = 2..16",
        Suite::Jvm,
        &[2, 4, 6, 8, 10, 12, 14, 16],
    ),
];

/// One sweep of the inclusion study.
pub struct InclusionRow {
    /// Printed label.
    pub label: &'static str,
    /// Suite key (`lao-kernels`, `specjvm98`).
    pub suite: &'static str,
    /// Register counts swept.
    pub registers: &'static [u32],
    /// Monotone and total function counts.
    pub stats: InclusionStats,
}

/// Runs the §2.3 spill-set inclusion study on lao-kernels and SPEC
/// JVM98 ([`experiments::spill_set_inclusion_study`]).
pub fn inclusion(suites: &Suites) -> Vec<InclusionRow> {
    INCLUSION_SWEEPS
        .iter()
        .map(|&(label, suite, registers)| {
            let ws = suites.get(suite);
            InclusionRow {
                label,
                suite: ws.first().map_or("", |w| w.suite),
                registers,
                stats: experiments::spill_set_inclusion_study(ws, registers),
            }
        })
        .collect()
}

const INCLUSION_TITLE: &str =
    "Spill-set inclusion study (§2.3): existence of inclusion-monotone optimal chains";

/// The inclusion study as the `inclusion` command prints it.
pub fn render_inclusion(rows: &[InclusionRow]) -> String {
    let mut s = format!("# {INCLUSION_TITLE}\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{}: {}/{} functions inclusion-monotone ({:.1}%)",
            r.label,
            r.stats.monotone,
            r.stats.total,
            100.0 * r.stats.monotone as f64 / r.stats.total.max(1) as f64
        );
    }
    s
}

const SSA_REGISTER_COUNTS: [u32; 3] = [4, 6, 8];
/// Title of the SSA-conversion table.
pub const SSA_TITLE: &str =
    "SSA conversion as a pre-spill phase (§7): JVM98 methods, total spill cost";

/// Runs the §7 SSA-conversion study on SPEC JVM98
/// ([`experiments::ssa_conversion_study`]).
pub fn ssa(suites: &Suites) -> Vec<SsaConversionRow> {
    experiments::ssa_conversion_study(suites.get(Suite::Jvm), &SSA_REGISTER_COUNTS)
}

/// Runs every figure and both studies, and serialises them as the
/// `BENCH_paper.json` document.
pub fn reproduce(suites: &Suites) -> String {
    let figures: Vec<(&Figure, Table)> = FIGURES
        .iter()
        .map(|f| (f, f.run(suites.get(f.suite))))
        .collect();
    to_json(suites.seed, &figures, &inclusion(suites), &ssa(suites))
}

/// A ratio at the precision the tables print; `null` where the table
/// has no finite value (a mean over zero programs, or a benchmark whose
/// optimum spills nothing while the algorithm spills).
fn cell(v: Option<f64>, decimals: usize) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v:.decimals$}"),
        _ => "null".to_string(),
    }
}

fn cells(values: impl Iterator<Item = Option<f64>>) -> String {
    values.map(|v| cell(v, 3)).collect::<Vec<_>>().join(", ")
}

/// The `"columns"` field naming the algorithms of `values`.
fn columns(values: &[(&str, f64)]) -> String {
    let names: Vec<String> = values.iter().map(|(n, _)| format!("\"{n}\"")).collect();
    format!("\"columns\": [{}]", names.join(", "))
}

/// Serialises the reproduction (schema `lra-bench/paper-v1`;
/// hand-rolled, no serde in the build environment). Every entry is
/// `{"title", <fields>, "rows"}` with one row per line. See
/// `docs/benchmarks.md` for the field reference.
pub fn to_json(
    seed: u64,
    figures: &[(&Figure, Table)],
    inclusion: &[InclusionRow],
    ssa: &[SsaConversionRow],
) -> String {
    // (key, title, fields before "rows", rows)
    let mut entries: Vec<(&str, &str, Vec<String>, Vec<String>)> = Vec::new();
    for (fig, table) in figures {
        let (fields, rows) = match table {
            Table::Mean(rows) => (
                rows.first()
                    .map(|r| columns(&r.values))
                    .into_iter()
                    .collect(),
                rows.iter()
                    .map(|r| {
                        let some = r.programs > 0;
                        format!(
                            "{{\"registers\": {}, \"programs\": {}, \"values\": [{}]}}",
                            r.registers,
                            r.programs,
                            cells(r.values.iter().map(|&(_, v)| some.then_some(v)))
                        )
                    })
                    .collect(),
            ),
            Table::Distribution(rows) => (
                Vec::new(),
                rows.iter()
                    .map(|r| {
                        let f = r.summary;
                        format!(
                            "{{\"registers\": {}, \"algorithm\": \"{}\", \"min\": {:.3}, \
                             \"q1\": {:.3}, \"median\": {:.3}, \"q3\": {:.3}, \"max\": {:.3}}}",
                            r.registers, r.algorithm, f.min, f.q1, f.median, f.q3, f.max
                        )
                    })
                    .collect(),
            ),
            Table::PerBenchmark(rows) => {
                let mut fields = Vec::new();
                if let Kind::PerBenchmark(r) = fig.kind {
                    fields.push(format!("\"registers\": {r}"));
                }
                fields.extend(rows.first().map(|r| columns(&r.values)));
                let rows = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"benchmark\": \"{}\", \"values\": [{}]}}",
                            r.program,
                            cells(r.values.iter().map(|&(_, v)| Some(v)))
                        )
                    })
                    .collect();
                (fields, rows)
            }
        };
        entries.push((fig.name, fig.title, fields, rows));
    }
    let inclusion_rows = inclusion.iter().map(|r| {
        let registers: Vec<String> = r.registers.iter().map(u32::to_string).collect();
        format!(
            "{{\"suite\": \"{}\", \"registers\": [{}], \"monotone\": {}, \"total\": {}}}",
            r.suite,
            registers.join(", "),
            r.stats.monotone,
            r.stats.total
        )
    });
    entries.push((
        "inclusion",
        INCLUSION_TITLE,
        Vec::new(),
        inclusion_rows.collect(),
    ));
    let ssa_rows = ssa.iter().map(|r| {
        let [lh, bfpl] = r.ratios();
        format!(
            "{{\"registers\": {}, \"lh_non_ssa\": {}, \"opt_non_ssa\": {}, \
             \"lh_over_opt\": {}, \"bfpl_ssa\": {}, \"opt_ssa\": {}, \"bfpl_over_opt\": {}}}",
            r.registers,
            r.lh_non_ssa,
            r.opt_non_ssa,
            cell(Some(lh), 4),
            r.bfpl_ssa,
            r.opt_ssa,
            cell(Some(bfpl), 4)
        )
    });
    entries.push(("ssa", SSA_TITLE, Vec::new(), ssa_rows.collect()));

    let mut s = format!("{{\n  \"schema\": \"lra-bench/paper-v1\",\n  \"seed\": {seed}");
    for (key, title, fields, rows) in entries {
        let _ = write!(s, ",\n  \"{key}\": {{\n    \"title\": \"{title}\",\n");
        for field in fields {
            let _ = writeln!(s, "    {field},");
        }
        let _ = write!(
            s,
            "    \"rows\": [\n      {}\n    ]\n  }}",
            rows.join(",\n      ")
        );
    }
    s.push_str("\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_json_is_balanced_and_carries_the_schema() {
        // Two workloads per suite keep the exact solvers fast; the
        // document's shape does not depend on the suite sizes.
        let full = Suites::new(3);
        let suites = Suites::new(3);
        for s in Suite::ALL {
            let small = full.get(s).iter().take(2).cloned().collect();
            assert!(suites.cells[s as usize].set(small).is_ok());
        }
        let json = reproduce(&suites);
        assert!(json.contains("\"schema\": \"lra-bench/paper-v1\""));
        assert!(json.contains("\"seed\": 3,"));
        for key in FIGURES.iter().map(|f| f.name).chain(["inclusion", "ssa"]) {
            assert_eq!(json.matches(&format!("\"{key}\": {{")).count(), 1, "{key}");
        }
        // Two programs spill nothing at R = 32: the mean rows there
        // average over zero programs and carry null cells.
        assert!(json.contains("{\"registers\": 32, \"programs\": 0, \"values\": [null, "));
        for timing in ["_ms", "_us", "_s\"", "wall", "time", "host"] {
            assert!(
                !json.contains(timing),
                "timing field {timing:?} in the document"
            );
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
