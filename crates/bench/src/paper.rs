//! The paper's evaluation as one catalogue, and the `lra-bench paper`
//! document built from it (`BENCH_paper.json`).
//!
//! `FIGURES` names Figures 8–15: the suite each runs on, its title
//! and its view of the suite's cost table. [`Suites`] generates each
//! suite and computes its [`CostTable`] once, on first use, so every
//! figure on one suite reads the same table. [`document`] is the one
//! writer: `paper` writes every entry ([`reproduce`]), and the `figN`,
//! `inclusion` and `ssa` commands each print a document holding only
//! their own entry, byte for byte as it appears in the whole one. The
//! document has no timings (schema `lra-bench/paper-v1`, see
//! `docs/benchmarks.md`). Its rows are aggregates combined in input
//! order, so it is identical at any `--threads` setting and CI diffs
//! it against the committed copy.

use crate::experiments::{
    self, distribution_figure, mean_figure, per_benchmark_figure, CostTable, InclusionStats,
    CHORDAL_REGISTER_COUNTS, JVM_REGISTER_COUNTS,
};
use crate::suites::{self, Workload};
use lra_core::registry::{CHORDAL_FIGURE_SET, JVM_FIGURE_SET};
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

    /// The columns and register counts of the suite's figures.
    fn figure_set(self) -> (&'static [&'static str], &'static [u32]) {
        match self {
            Suite::Jvm => (&JVM_FIGURE_SET, &JVM_REGISTER_COUNTS),
            Suite::Spec | Suite::Eembc | Suite::Lao => {
                (&CHORDAL_FIGURE_SET, &CHORDAL_REGISTER_COUNTS)
            }
        }
    }
}

/// The four suites at one seed and the cost table behind each suite's
/// figures, each computed on first use.
pub struct Suites {
    seed: u64,
    workloads: [OnceLock<Vec<Workload>>; 4],
    costs: [OnceLock<CostTable>; 4],
}

impl Suites {
    /// The suites at `seed`; nothing is generated yet.
    pub fn new(seed: u64) -> Self {
        Suites {
            seed,
            workloads: Default::default(),
            costs: Default::default(),
        }
    }

    /// The workloads of `suite`, generating them on the first call.
    pub fn get(&self, suite: Suite) -> &[Workload] {
        self.workloads[suite as usize].get_or_init(|| match suite {
            Suite::Spec => suites::spec2000int(self.seed),
            Suite::Eembc => suites::eembc(self.seed),
            Suite::Lao => suites::lao_kernels(self.seed),
            Suite::Jvm => suites::specjvm98(self.seed),
        })
    }

    /// The cost table of `suite`'s figures, every column of its figure
    /// set at every register count, computed on the first call.
    pub fn costs(&self, suite: Suite) -> &CostTable {
        self.costs[suite as usize].get_or_init(|| {
            let (columns, registers) = suite.figure_set();
            experiments::cost_table(self.get(suite), columns, registers)
        })
    }
}

#[derive(Clone, Copy)]
enum Kind {
    /// Mean normalised cost per `R`.
    Mean,
    /// Five-number summaries per `R` and algorithm.
    Distribution,
    /// Per-benchmark normalised cost at one `R`.
    PerBenchmark(u32),
}

/// One figure of the paper's evaluation.
struct Figure {
    /// CLI command and JSON key (`fig8` … `fig15`).
    name: &'static str,
    suite: Suite,
    title: &'static str,
    kind: Kind,
}

/// Figures 8–15.
const FIGURES: [Figure; 8] = [
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
        kind: Kind::Mean,
    },
    Figure {
        name: "fig15",
        suite: Suite::Jvm,
        title: "Figure 15: per-benchmark normalised cost, SPEC JVM98 at R = 6",
        kind: Kind::PerBenchmark(6),
    },
];

impl Figure {
    /// The figure's entry: its view of the suite's cost table.
    fn entry(&self, costs: &CostTable) -> Entry {
        let names: Vec<String> = costs.columns.iter().map(|c| format!("\"{c}\"")).collect();
        let columns = format!("\"columns\": [{}]", names.join(", "));
        let (fields, rows) = match self.kind {
            Kind::Mean => (
                vec![columns],
                mean_figure(costs)
                    .iter()
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
            Kind::Distribution => (
                Vec::new(),
                distribution_figure(costs)
                    .iter()
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
            Kind::PerBenchmark(r) => (
                vec![format!("\"registers\": {r}"), columns],
                per_benchmark_figure(costs, r)
                    .iter()
                    .map(|r| {
                        format!(
                            "{{\"benchmark\": \"{}\", \"values\": [{}]}}",
                            r.program,
                            cells(r.values.iter().map(|&(_, v)| Some(v)))
                        )
                    })
                    .collect(),
            ),
        };
        Entry {
            title: self.title,
            fields,
            rows,
        }
    }
}

/// The §2.3 inclusion study's sweeps: suite and register counts.
const INCLUSION_SWEEPS: [(Suite, &[u32]); 2] = [
    (Suite::Lao, &[1, 2, 3, 4, 6, 8]),
    (Suite::Jvm, &[2, 4, 6, 8, 10, 12, 14, 16]),
];

/// The §2.3 spill-set inclusion study on lao-kernels and SPEC JVM98
/// ([`experiments::spill_set_inclusion_study`]).
fn inclusion_entry(suites: &Suites) -> Entry {
    let rows = INCLUSION_SWEEPS.iter().map(|&(suite, registers)| {
        let ws = suites.get(suite);
        let InclusionStats { monotone, total } =
            experiments::spill_set_inclusion_study(ws, registers);
        let registers: Vec<String> = registers.iter().map(u32::to_string).collect();
        format!(
            "{{\"suite\": \"{}\", \"registers\": [{}], \"monotone\": {monotone}, \"total\": {total}}}",
            ws.first().map_or("", |w| w.suite),
            registers.join(", "),
        )
    });
    Entry {
        title: "Spill-set inclusion study (§2.3): existence of inclusion-monotone optimal chains",
        fields: Vec::new(),
        rows: rows.collect(),
    }
}

/// The §7 SSA-conversion study on SPEC JVM98
/// ([`experiments::ssa_conversion_study`]). Absolute costs are not
/// comparable across the two IRs, so each heuristic's cost is also
/// given relative to its own exact optimum.
fn ssa_entry(suites: &Suites) -> Entry {
    let rows = experiments::ssa_conversion_study(suites.get(Suite::Jvm), &[4, 6, 8]);
    let rows = rows.iter().map(|r| {
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
    Entry {
        title: "SSA conversion as a pre-spill phase (§7): JVM98 methods, total spill cost",
        fields: Vec::new(),
        rows: rows.collect(),
    }
}

/// A ratio at the document's precision; `null` where there is no
/// finite value (a mean over zero programs, or a benchmark whose
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

/// One entry of the document, written under its key as
/// `{"title", <fields>, "rows"}` with one row per line.
struct Entry {
    title: &'static str,
    fields: Vec<String>,
    rows: Vec<String>,
}

/// The keys of the whole document, in order: Figures 8–15, then the
/// inclusion and SSA studies.
fn keys() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|f| f.name).chain(["inclusion", "ssa"])
}

/// The `BENCH_paper.json` document restricted to `keys`, in the order
/// given (schema `lra-bench/paper-v1`; hand-rolled, no serde in the
/// build environment). See `docs/benchmarks.md` for the field
/// reference.
///
/// # Panics
///
/// Panics if a key is none of `fig8` … `fig15`, `inclusion` and
/// `ssa`.
pub fn document(suites: &Suites, keys: &[&str]) -> String {
    let mut s = format!(
        "{{\n  \"schema\": \"lra-bench/paper-v1\",\n  \"seed\": {}",
        suites.seed
    );
    for &key in keys {
        let entry = match key {
            "inclusion" => inclusion_entry(suites),
            "ssa" => ssa_entry(suites),
            _ => {
                let fig = FIGURES.iter().find(|f| f.name == key);
                let fig = fig.unwrap_or_else(|| panic!("{key:?} is not a paper entry"));
                fig.entry(suites.costs(fig.suite))
            }
        };
        let _ = write!(
            s,
            ",\n  \"{key}\": {{\n    \"title\": \"{}\",\n",
            entry.title
        );
        for field in entry.fields {
            let _ = writeln!(s, "    {field},");
        }
        let _ = write!(
            s,
            "    \"rows\": [\n      {}\n    ]\n  }}",
            entry.rows.join(",\n      ")
        );
    }
    s.push_str("\n}\n");
    s
}

/// Every figure and both studies: the whole `BENCH_paper.json`
/// document.
pub fn reproduce(suites: &Suites) -> String {
    document(suites, &keys().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two workloads per suite keep the exact solvers fast; the
    /// document's shape does not depend on the suite sizes.
    fn small_suites() -> Suites {
        let full = Suites::new(3);
        let suites = Suites::new(3);
        for s in Suite::ALL {
            let small = full.get(s).iter().take(2).cloned().collect();
            assert!(suites.workloads[s as usize].set(small).is_ok());
        }
        suites
    }

    #[test]
    fn paper_json_is_balanced_and_carries_the_schema() {
        let json = reproduce(&small_suites());
        assert!(json.contains("\"schema\": \"lra-bench/paper-v1\""));
        assert!(json.contains("\"seed\": 3,"));
        for key in keys() {
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

    /// What `figN`, `inclusion` and `ssa` print, the one-entry
    /// documents, splice back into the whole document byte for byte.
    #[test]
    fn each_key_prints_exactly_its_entry_of_the_whole_document() {
        let suites = small_suites();
        let whole = reproduce(&suites);
        let head = "{\n  \"schema\": \"lra-bench/paper-v1\",\n  \"seed\": 3";
        let tail = "\n}\n";
        let mut spliced = head.to_string();
        for key in keys() {
            let one = document(&suites, &[key]);
            let entry = one.strip_prefix(head).and_then(|s| s.strip_suffix(tail));
            let entry = entry.unwrap_or_else(|| panic!("{key}: not a one-entry document"));
            assert!(entry.starts_with(&format!(",\n  \"{key}\": {{")), "{key}");
            spliced.push_str(entry);
        }
        spliced.push_str(tail);
        assert_eq!(spliced, whole);
    }
}
