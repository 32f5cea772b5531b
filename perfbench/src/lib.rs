//! `perfbench`: the end-to-end and per-layer benchmark of the layered
//! register allocation workspace.
//!
//! Two batch workloads ([`batch`]), each built from a seed:
//!
//! * `huge-2t` — consecutive `jit-huge` corpora under the standard
//!   fuel-only `Portfolio`, batched at two threads;
//! * `layered-1t` — consecutive lao-kernels (`BFPL`) and SPEC JVM98
//!   (`LH`) corpora on one thread.
//!
//! An untraced run reports the end-to-end metrics of
//! [`metrics::END_TO_END`]; a traced run reports the per-layer budget
//! of [`metrics::PER_LAYER`] ([`layers`]), including a short open loop
//! through `lra-service` ([`serve`]). Every allocation is checked by an
//! independent [`checker`]. See `README.md` next to this crate.

pub mod batch;
pub mod checker;
pub mod host;
pub mod layers;
pub mod metrics;
pub mod serve;

use batch::BatchWorkload;
use lra_core::batch::{BatchItem, ReportRow};
use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::{build_instance, InstanceKind};
use lra_core::portfolio::PortfolioConfig;
use lra_core::verify::Feasibility;
use lra_ir::Function;
use lra_targets::{Target, TargetKind};
use metrics::Report;
use std::time::Duration;

/// Which allocator a pipeline runs.
#[derive(Clone, Debug)]
pub enum Policy {
    /// The budgeted cheap-then-exact `Portfolio`.
    Portfolio(PortfolioConfig),
    /// A registry allocator by name.
    Allocator(&'static str),
}

/// One pipeline configuration, kept in parts so the per-layer probes
/// can call the layers with the same target, view and register count
/// the pipeline uses.
#[derive(Clone, Debug)]
pub struct Config {
    /// Instance view of every round.
    pub kind: InstanceKind,
    /// Register count R.
    pub registers: u32,
    /// Round budget.
    pub max_rounds: u32,
    /// The allocator.
    pub policy: Policy,
}

impl Config {
    /// Every corpus here targets the ARM JIT cost model.
    pub fn target(&self) -> Target {
        Target::new(TargetKind::ArmCortexA8)
    }

    /// The pipeline this configuration describes, with the split +
    /// remat escalation tier on, as in the repository's standard
    /// corpora.
    pub fn pipeline(&self) -> AllocationPipeline {
        let base = AllocationPipeline::new(self.target())
            .instance_kind(self.kind)
            .registers(self.registers)
            .max_rounds(self.max_rounds)
            .escalation(true);
        match &self.policy {
            Policy::Portfolio(cfg) => base.portfolio(cfg.clone()),
            Policy::Allocator(name) => base.allocator(*name),
        }
    }

    /// `jit-huge/Portfolio/R6`: precise graphs, R = 6, 3 rounds, the
    /// standard fuel-only portfolio with its result cache on.
    pub fn jit_huge() -> Self {
        Config {
            kind: InstanceKind::PreciseGraph,
            registers: 6,
            max_rounds: 3,
            policy: Policy::Portfolio(lra_bench::batchrun::standard_portfolio_config()),
        }
    }

    /// `lao-kernels/BFPL/R4`: the paper's layered heuristic on
    /// interval instances.
    pub fn lao_kernels() -> Self {
        Config {
            kind: InstanceKind::LinearIntervals,
            registers: 4,
            max_rounds: 8,
            policy: Policy::Allocator("BFPL"),
        }
    }

    /// `specjvm98/LH/R6`: the layered heuristic on precise
    /// non-chordal graphs.
    pub fn specjvm98() -> Self {
        Config {
            kind: InstanceKind::PreciseGraph,
            registers: 6,
            max_rounds: 8,
            policy: Policy::Allocator("LH"),
        }
    }
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadName {
    /// Consecutive `jit-huge` corpora, Portfolio, two threads.
    Huge2t,
    /// Consecutive lao-kernels + SPEC JVM98 corpora, one thread.
    Layered1t,
}

impl WorkloadName {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [WorkloadName; 2] = [WorkloadName::Huge2t, WorkloadName::Layered1t];

    /// The name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadName::Huge2t => "huge-2t",
            WorkloadName::Layered1t => "layered-1t",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How many set-ups a run times; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 9;

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct RunSpec {
    /// The workload.
    pub workload: WorkloadName,
    /// Input seed.
    pub seed: u64,
    /// Timed work to measure.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

/// Runs one workload and returns what it measured.
pub fn run(spec: &RunSpec) -> Report {
    let (seed, threads) = (spec.seed, workload_threads(spec.workload));
    match spec.workload {
        WorkloadName::Huge2t => run_batch(spec.seconds, spec.trace, || {
            BatchWorkload::huge(seed, batch::HUGE_SLICES, threads)
        }),
        WorkloadName::Layered1t => run_batch(spec.seconds, spec.trace, || {
            BatchWorkload::layered(seed, batch::LAYERED_SLICES)
        }),
    }
}

/// Sets up the batch workload `setup` builds (timed, as `setup_s`),
/// measures it for `seconds` — traced or not — and returns the report.
pub fn run_batch(seconds: f64, trace: bool, setup: impl FnMut() -> BatchWorkload) -> Report {
    // Corpus generation fans out over `default_threads()` scoped
    // threads, and which malloc arena each piece lands in then varies
    // run to run — enough to move peak RSS by a fifth. Generated on
    // the calling thread, the corpus is the same and memory is steady,
    // so `setup_s` times single-threaded generation. Workload threads
    // are set explicitly and stay unaffected.
    lra_core::batch::set_default_threads(1);
    let mut report = Report::default();
    report.line(host::HostStamp::read(std::path::Path::new(".")).render());
    let w = timed_setup(&mut report, setup);
    if trace {
        batch::measure_traced(&w, seconds, &mut report);
    } else {
        batch::measure(&w, seconds, &mut report);
        report.set(
            "peak_rss_mib",
            host::peak_rss_mib(),
            "VmHWM of this process",
        );
    }
    report
}

/// Worker threads of a workload: its nominal count capped at the CPUs
/// this process may use, so no result comes from an oversubscribed
/// host.
pub fn workload_threads(w: WorkloadName) -> usize {
    let nominal = match w {
        WorkloadName::Layered1t => 1,
        WorkloadName::Huge2t => 2,
    };
    nominal.min(host::nproc())
}

/// The checked first answer for one distinct function, against which
/// every later answer for it is compared.
#[derive(Clone, Debug)]
pub struct Reference {
    /// The report row the answer rendered as.
    pub row: ReportRow,
    /// [`checker::digest`] of the final function and assignment (0 for
    /// an error row).
    pub digest: u64,
    /// Whether the answer is a report that passed the checker.
    pub ok: bool,
    /// Spill cost over the cost of spilling every value of the input
    /// function (0 for an error row).
    pub share: f64,
    /// Stores + loads + rematerializations inserted.
    pub spill_instrs: u64,
    /// The allocator's own verdict was not `Feasible`.
    pub unverified: bool,
    /// The allocator reports the row converged, yet a value live at
    /// some write holds no register, so the checker could not check a
    /// total assignment. Such a row counts as not converged.
    pub unassigned: bool,
}

/// Checks `item` (the allocation of `f` under `cfg`) with the
/// independent checker and turns it into the reference for `f`. A
/// failed item — an error, or a checker rejection — is described in
/// `report` and comes back with `ok` unset.
pub fn reference(item: &BatchItem, f: &Function, cfg: &Config, report: &mut Report) -> Reference {
    let row = item.row();
    let Ok(af) = &item.outcome else {
        report.line(format!(
            "failed {}: {}",
            f.name,
            row.outcome.as_ref().unwrap_err()
        ));
        return Reference {
            row,
            digest: 0,
            ok: false,
            share: 0.0,
            spill_instrs: 0,
            unverified: false,
            unassigned: false,
        };
    };
    let checked = checker::check_allocated(af);
    let unverified = !af.verdict.is_feasible();
    let unassigned = af.converged && checked.as_ref().is_ok_and(|v| v.unassigned > 0);
    match &checked {
        Err(why) => report.line(format!("checker rejected {}: {why}", f.name)),
        Ok(v) if unassigned => report.line(format!(
            "converged row {} counted as not converged: own verdict {}; independent \
             checker: none of {} writes clobbers a live value, but {} of {} live values \
             hold no register",
            f.name,
            verdict_name(&af.verdict),
            v.points,
            v.unassigned,
            v.live_values
        )),
        Ok(v) if unverified && af.converged => report.line(format!(
            "unverified converged row {}: own verdict {}; independent checker accepts its \
             total assignment ({} writes)",
            f.name,
            verdict_name(&af.verdict),
            v.points
        )),
        Ok(_) => {}
    }
    let all_spilled = build_instance(f, &cfg.target(), cfg.kind).total_weight();
    Reference {
        digest: checker::digest(af),
        ok: checked.is_ok(),
        share: if all_spilled > 0 {
            af.spill_cost as f64 / all_spilled as f64
        } else {
            0.0
        },
        spill_instrs: (af.stores + af.loads + af.remats) as u64,
        unverified,
        unassigned,
        row,
    }
}

fn verdict_name(v: &Feasibility) -> &'static str {
    match v {
        Feasibility::Feasible(_) => "Feasible",
        Feasibility::Infeasible(_) => "Infeasible",
        Feasibility::Unknown => "Unknown",
    }
}

/// Whether a later answer `item` for a function matches its reference.
pub fn matches(item: &BatchItem, reference: &Reference) -> bool {
    reference.ok
        && item.row() == reference.row
        && item
            .outcome
            .as_ref()
            .is_ok_and(|af| checker::digest(af) == reference.digest)
}

/// Quality over a set of references: the `spill_cost_share`,
/// `converged_share` and spill-cost total of one pass over the
/// distinct functions.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    /// Distinct functions.
    pub functions: usize,
    /// Functions with a checked report.
    pub ok: usize,
    /// Of those, converged by the allocator's own flag.
    pub converged: usize,
    /// Of the converged, rows without a total register assignment
    /// ([`Reference::unassigned`]).
    pub unassigned: usize,
    /// Mean spill-cost share over the checked reports.
    pub share: f64,
    /// Sum of spill cost over the checked reports.
    pub spill_cost_total: u64,
}

impl Quality {
    /// Aggregates references.
    pub fn of<'a>(refs: impl IntoIterator<Item = &'a Reference>) -> Self {
        let mut q = Quality::default();
        let mut share_sum = 0.0;
        for r in refs {
            q.functions += 1;
            if let (true, Ok(stats)) = (r.ok, &r.row.outcome) {
                q.ok += 1;
                q.converged += usize::from(stats.converged);
                q.unassigned += usize::from(r.unassigned);
                q.spill_cost_total += stats.spill_cost;
                share_sum += r.share;
            }
        }
        q.share = if q.ok > 0 {
            share_sum / q.ok as f64
        } else {
            0.0
        };
        q
    }

    /// Converged rows with a total register assignment.
    pub fn checked_converged(&self) -> usize {
        self.converged - self.unassigned
    }

    /// Records the quality metrics of an untraced run.
    pub fn record(&self, report: &mut Report) {
        report.set(
            "spill_cost_share",
            self.share,
            format!(
                "mean over {} functions of spill cost / cost of spilling every value",
                self.ok
            ),
        );
        report.set(
            "converged_share",
            if self.ok > 0 {
                self.checked_converged() as f64 / self.ok as f64
            } else {
                0.0
            },
            format!(
                "{}/{} converged with a total assignment ({} more flagged converged without one)",
                self.checked_converged(),
                self.ok,
                self.unassigned
            ),
        );
    }
}

/// Per-function latency percentiles: `func_p50_ms` and `func_p99_ms`
/// (or the highest rank with ten samples beyond it). `passes` holds the
/// per-function times of each pass, in the same function order. A
/// function's latency is the median of its times over the passes, so a
/// host stall that hits one function in one pass does not reach the
/// tail; the percentiles are taken over the distinct functions.
pub fn record_latency(passes: &[Vec<f64>], report: &mut Report) {
    let n = passes.first().map_or(0, Vec::len);
    let mut sorted: Vec<f64> = (0..n)
        .map(|i| metrics::median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect();
    sorted.sort_by(f64::total_cmp);
    let rank = metrics::tail_rank(n);
    let samples = format!("{n} functions, each the median of {} passes", passes.len());
    report.set(
        "func_p50_ms",
        metrics::percentile(&sorted, 50.0),
        format!("p50 over {samples}"),
    );
    report.set(
        "func_p99_ms",
        metrics::percentile(&sorted, rank),
        format!("p{rank:.2} over {samples}"),
    );
}

/// Median of `SETUP_REPEATS` timings of `setup`, keeping the last
/// result. Records `setup_s`.
pub fn timed_setup<T>(report: &mut Report, mut setup: impl FnMut() -> T) -> T {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Tear the previous set-up down before timing the next one.
        drop(last.take());
        let t0 = std::time::Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    report.set(
        "setup_s",
        metrics::median(&times),
        format!("median of {SETUP_REPEATS} set-ups"),
    );
    last.expect("at least one set-up")
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_match_the_repository_corpora() {
        // AllocationPipeline has no PartialEq; its Debug rendering
        // covers every knob.
        let exps = lra_bench::batchrun::standard_experiments(3);
        let debug = |p: &AllocationPipeline| format!("{p:?}");
        assert_eq!(
            debug(&Config::lao_kernels().pipeline()),
            debug(&exps[0].pipeline)
        );
        assert_eq!(
            debug(&Config::specjvm98().pipeline()),
            debug(&exps[1].pipeline)
        );
        assert_eq!(
            debug(&Config::jit_huge().pipeline()),
            debug(&exps[3].pipeline)
        );
    }

    #[test]
    fn workload_names_round_trip_and_threads_fit_the_host() {
        for w in WorkloadName::ALL {
            assert_eq!(WorkloadName::parse(w.name()), Some(w));
            assert!(workload_threads(w) <= host::nproc());
        }
        assert_eq!(WorkloadName::parse("nope"), None);
    }
}
