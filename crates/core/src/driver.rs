//! The end-to-end allocation pipeline.
//!
//! [`AllocationPipeline`] orchestrates the full decoupled-allocation
//! flow of the paper on an [`lra_ir::Function`]:
//!
//! 1. **analysis** — liveness, loop frequencies, spill costs and the
//!    interference instance ([`crate::pipeline::build_instance`]),
//! 2. **allocation** — a registry-selected allocator picks the variables
//!    kept in registers,
//! 3. **spill-code rewriting** — stores/reloads are inserted for the
//!    spilled set ([`lra_ir::spill_code`]),
//! 4. **re-analysis** — the rewritten function is re-analysed and
//!    re-allocated until no further spilling is needed (the reloads of
//!    §4.3 carry residual pressure, so one round is not always enough).
//!    Each round shares one [`lra_ir::FunctionAnalysis`]; after a
//!    rewrite its liveness is solved afresh and its loop forest kept,
//! 5. **assignment + verification** — the allocator's colouring is
//!    checked ([`crate::verify`]) and becomes the register assignment.
//!
//! A run that stalls above the register count can restart once from
//! the original function with its live ranges split and constants
//! rematerialized: the escalation tier. It is a plain switch, off
//! unless [`AllocationPipeline::escalation`] turns it on, for
//! `Portfolio` as for every other allocator. The restart is kept only
//! when it converges at no higher spill cost than the stalled run, so
//! the stalled run's total is its ceiling: a restart whose running cost
//! passes it stops at that round, before the round's rewrite.
//!
//! The pipeline is builder-configured and returns an
//! [`AllocatedFunction`] report with everything a client (or a test)
//! wants to know: cumulative and per-round spill costs, the spilled
//! set, inserted load/store counts, the register assignment and the
//! verification verdict.
//!
//! # Example
//!
//! ```
//! use lra_core::driver::AllocationPipeline;
//! use lra_core::pipeline::InstanceKind;
//! use lra_ir::builder::FunctionBuilder;
//! use lra_targets::{Target, TargetKind};
//!
//! let mut b = FunctionBuilder::new("demo");
//! let e = b.entry_block();
//! let x = b.op(e, &[]);
//! let y = b.op(e, &[x]);
//! b.op(e, &[x, y]);
//! let f = b.finish();
//!
//! let report = AllocationPipeline::new(Target::new(TargetKind::St231))
//!     .allocator("BFPL")
//!     .instance_kind(InstanceKind::PreciseGraph)
//!     .registers(2)
//!     .run(&f)
//!     .expect("BFPL is registered and the function is SSA");
//! assert!(report.converged);
//! assert!(report.verdict.is_feasible());
//! ```

use crate::assign::Assignment;
use crate::pipeline::{build_instance_from_costs, InstanceKind};
use crate::portfolio::{Portfolio, PortfolioConfig};
use crate::problem::{Allocator, Instance};
use crate::registry::{AllocatorRegistry, AllocatorSpec};
use crate::trace::EscalationOutcome;
use crate::verify::{self, Feasibility};
use lra_graph::BitSet;
use lra_ir::remat::RematTable;
use lra_ir::{liveness, spill_code, spill_cost, split};
use lra_ir::{AnalysisScratch, Function, FunctionAnalysis};
use lra_targets::Target;

/// Why a pipeline run could not start or finish.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipelineError {
    /// The requested allocator name is not in the
    /// [`AllocatorRegistry`].
    UnknownAllocator(String),
    /// The allocator needs live intervals but the pipeline was
    /// configured with [`InstanceKind::PreciseGraph`].
    NeedsIntervals(&'static str),
    /// The allocator needs a chordal interference graph but the
    /// function's instance is not chordal (non-SSA input with the
    /// precise-graph view).
    NeedsChordal(&'static str),
    /// The pipeline run panicked. Only produced by the
    /// [`crate::batch`] driver, which catches per-function panics so
    /// one pathological input cannot abort a whole batch; the payload
    /// is the panic message.
    Panic(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::UnknownAllocator(name) => write!(
                f,
                "unknown allocator {name:?}; registered: {}",
                AllocatorRegistry::names().join(", ")
            ),
            PipelineError::NeedsIntervals(name) => {
                write!(f, "allocator {name} requires InstanceKind::LinearIntervals")
            }
            PipelineError::NeedsChordal(name) => write!(
                f,
                "allocator {name} requires a chordal interference graph (SSA input)"
            ),
            PipelineError::Panic(msg) => write!(f, "pipeline panicked: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

/// Builder-configured orchestrator for allocate → spill-code rewrite →
/// re-analyse → assign → verify. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct AllocationPipeline {
    target: Target,
    kind: InstanceKind,
    allocator: String,
    registers: Option<u32>,
    max_rounds: u32,
    /// The [`Portfolio`] policy's configuration; `Some` exactly when
    /// the pipeline runs the `Portfolio` allocator.
    portfolio: Option<PortfolioConfig>,
    escalation: bool,
}

impl AllocationPipeline {
    /// A pipeline for `target` with the defaults: the `BFPL` allocator,
    /// the precise-graph instance view, the target's architectural
    /// register count, no escalation tier, and at most 8
    /// spill-then-reanalyse rounds.
    pub fn new(target: Target) -> Self {
        AllocationPipeline {
            target,
            kind: InstanceKind::PreciseGraph,
            allocator: "BFPL".to_string(),
            registers: None,
            max_rounds: 8,
            portfolio: None,
            escalation: false,
        }
    }

    /// Selects the allocator by registry name (case-insensitive).
    /// `Portfolio` keeps a configuration set by
    /// [`AllocationPipeline::portfolio`] and otherwise runs
    /// [`PortfolioConfig::default`]; any other name drops the
    /// portfolio configuration.
    pub fn allocator(mut self, name: impl Into<String>) -> Self {
        self.allocator = name.into();
        self.portfolio = if self.allocator.eq_ignore_ascii_case("Portfolio") {
            Some(self.portfolio.take().unwrap_or_default())
        } else {
            None
        };
        self
    }

    /// Selects the [`Portfolio`] policy with an explicit
    /// configuration (cheap tier, node fuel, decision cache).
    /// Equivalent to `.allocator("Portfolio")` except that
    /// the policy runs with `cfg` instead of
    /// [`PortfolioConfig::default`].
    pub fn portfolio(mut self, cfg: PortfolioConfig) -> Self {
        self.allocator = "Portfolio".to_string();
        self.portfolio = Some(cfg);
        self
    }

    /// Selects the instance view (precise graph vs linearised
    /// intervals).
    pub fn instance_kind(mut self, kind: InstanceKind) -> Self {
        self.kind = kind;
        self
    }

    /// Overrides the register count (defaults to the target's file
    /// size).
    pub fn registers(mut self, r: u32) -> Self {
        self.registers = Some(r);
        self
    }

    /// Caps the spill-then-reanalyse iteration.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn max_rounds(mut self, rounds: u32) -> Self {
        assert!(rounds >= 1, "the pipeline needs at least one round");
        self.max_rounds = rounds;
        self
    }

    /// Enables or disables the final-round **escalation tier**: when
    /// the normal allocate → spill loop exits without converging, the
    /// pipeline re-runs once from the original function with its
    /// over-pressure live ranges split
    /// ([`split::split_pressure_ranges`]) and constant-like values
    /// rematerialized instead of spilled
    /// ([`spill_code::rewrite_spill_code`] with a [`RematTable`]),
    /// keeping the escalated result only when it converges at no
    /// higher total spill cost. An escalated loop whose running cost
    /// passes the base run's total stops at that round.
    ///
    /// Off by default, for every allocator `Portfolio` included: the
    /// tier runs exactly when this was called with `true`.
    pub fn escalation(mut self, enabled: bool) -> Self {
        self.escalation = enabled;
        self
    }

    /// Runs the full pipeline on `f`.
    pub fn run(&self, f: &Function) -> Result<AllocatedFunction, PipelineError> {
        self.run_with(f, &mut AnalysisScratch::new())
    }

    /// [`AllocationPipeline::run`] with caller-provided analysis
    /// scratch: identical output, but a long-lived worker recycling
    /// one [`AnalysisScratch`] across functions skips the per-function
    /// (and per-round) allocation of the liveness transfer sets, the
    /// dataflow worklist, the pressure/interference sweep sets and the
    /// interval endpoint arrays. Every buffer is reset to the function
    /// at hand before use, so reuse across arbitrary functions — even
    /// after a caught panic — cannot change an output bit.
    pub fn run_with(
        &self,
        f: &Function,
        scratch: &mut AnalysisScratch,
    ) -> Result<AllocatedFunction, PipelineError> {
        // The root trace span: everything below (rounds, escalation,
        // final assembly) is its children; its self time is the
        // pipeline's own orchestration cost. One relaxed atomic load
        // when tracing is off — see [`crate::trace`].
        let _pipeline_span = crate::trace::span(crate::trace::Phase::Pipeline);
        let spec = AllocatorRegistry::spec(&self.allocator)
            .ok_or_else(|| PipelineError::UnknownAllocator(self.allocator.clone()))?;
        if spec.needs_intervals && self.kind != InstanceKind::LinearIntervals {
            return Err(PipelineError::NeedsIntervals(spec.name));
        }
        let allocator: Box<dyn Allocator> = match &self.portfolio {
            Some(cfg) => Box::new(Portfolio::new(cfg.clone())?),
            None => spec.build(),
        };
        let r = self
            .registers
            .unwrap_or_else(|| self.target.register_count());

        let base = self
            .run_loop(f, scratch, allocator.as_ref(), spec, r, None, None)?
            .expect("a loop without a ceiling is never cut");
        // The paper's spill-everywhere figure: the first base round's
        // cost on the original function. Saved before escalation can
        // replace the round history with the split function's.
        let first_round_cost = base.round_costs.first().copied().unwrap_or(0);

        // §4.3 residual-pressure escalation: a stalled base run gets
        // one restart from the ORIGINAL function with its over-pressure
        // ranges split and constants rematerialized. The escalated
        // result is kept only when it converges at no higher spill
        // cost, so escalation is monotone per function (and therefore
        // in every corpus aggregate).
        let (outcome, escalated, split_copies) = if !base.converged && self.escalation {
            match self.escalate(f, scratch, allocator.as_ref(), spec, r, &base) {
                Some((esc, copies)) => (esc, true, copies),
                None => (base, false, 0),
            }
        } else {
            (base, false, 0)
        };

        let spilled = BitSet::from_iter_with_capacity(
            outcome.function.value_count as usize,
            outcome.spilled_values.iter().copied(),
        );
        Ok(AllocatedFunction {
            // On a non-converged exit the final rewrite appended reload
            // values that the last allocation round never saw; pad the
            // assignment so it covers every value of `function`, with
            // `None` for the values the pipeline could not register-
            // allocate.
            assignment: outcome
                .assignment
                .pad_to(outcome.function.value_count as usize),
            function: outcome.function,
            allocator: spec.name,
            registers: r,
            kind: self.kind,
            rounds: outcome.rounds,
            converged: outcome.converged,
            spill_cost: outcome.round_costs.iter().sum(),
            round_costs: outcome.round_costs,
            first_round_cost,
            spilled,
            stores: outcome.stores,
            loads: outcome.loads,
            remats: outcome.remats,
            verdict: outcome.verdict,
            max_live_before: outcome.max_live_before,
            max_live_after: outcome.max_live_after,
            escalated,
            split_copies,
        })
    }

    /// The allocate → rewrite → reanalyse loop, shared by the base run
    /// and the escalation tier. With `remat` set the loop prices
    /// constant-like values at their re-issue cost
    /// ([`spill_cost::spill_costs_with_remat`]) and rewrites their
    /// evictions as rematerializations instead of stores + reloads
    /// ([`spill_code::rewrite_spill_code`]); the table is kept in
    /// lockstep with the fresh values every rewrite introduces.
    ///
    /// With `ceiling` set the loop returns `Ok(None)` as soon as the
    /// running sum of its round costs is above it, before that round's
    /// rewrite and reanalysis. Round costs never fall below zero, so
    /// such a loop could only have ended above the ceiling; a sum equal
    /// to it runs on, because a later round that spills nothing still
    /// ends at the ceiling. Without a ceiling the result is always
    /// `Some`.
    #[allow(clippy::too_many_arguments)] // internal plumbing behind run_with
    fn run_loop(
        &self,
        f: &Function,
        scratch: &mut AnalysisScratch,
        allocator: &dyn Allocator,
        spec: &'static AllocatorSpec,
        r: u32,
        mut remat: Option<RematTable>,
        ceiling: Option<u64>,
    ) -> Result<Option<LoopOutcome>, PipelineError> {
        // The one analysis of the round: built once here, then
        // re-analysed after each spill rewrite. Instance
        // construction, spill costs and the stall check below all
        // borrow it — no second liveness run per
        // round anywhere.
        let mut func_analysis = {
            let _s = crate::trace::span(crate::trace::Phase::Analysis);
            FunctionAnalysis::compute(f, scratch)
        };
        let max_live_before = func_analysis.liveness.max_live;

        let mut func = f.clone();
        let mut round_costs: Vec<u64> = Vec::new();
        let mut spilled_values: Vec<usize> = Vec::new();
        let mut stores = 0usize;
        let mut loads = 0usize;
        let mut remats = 0usize;
        let mut converged = false;
        let mut rounds = 0u32;
        let mut prev_max_live = max_live_before;

        let (assignment, verdict) = loop {
            rounds += 1;
            let _round_span = crate::trace::span(crate::trace::Phase::Round);
            let costs = {
                let _s = crate::trace::span(crate::trace::Phase::SpillCosts);
                match &remat {
                    Some(table) => spill_cost::spill_costs_with_remat(
                        &func,
                        &func_analysis.liveness,
                        &func_analysis.loops,
                        &self.target,
                        table,
                    ),
                    None => spill_cost::spill_costs(
                        &func,
                        &func_analysis.liveness,
                        &func_analysis.loops,
                        &self.target,
                    ),
                }
            };
            let inst = {
                let _s = crate::trace::span(crate::trace::Phase::InstanceBuild);
                build_instance_from_costs(&func, &func_analysis, self.kind, scratch, costs)
            };
            if spec.needs_chordal && !inst.is_chordal() {
                return Err(PipelineError::NeedsChordal(spec.name));
            }
            let round = allocate_round(&inst, allocator, r);
            let spill_set = BitSet::from_iter_with_capacity(
                func.value_count as usize,
                round.spilled.iter().copied(),
            );
            // With remat active the allocator's guidance vector and
            // the accounted round cost deliberately differ: guidance
            // keeps reloads at full price so the allocator is not
            // steered into futile reload evictions, while the
            // accounting charges what the remat-aware rewrite actually
            // inserts (re-issued loads and materializations instead of
            // store-plus-reload round trips) — see
            // [`spill_cost::spill_insert_costs`]. Copies whose source
            // just gained a slot are upgraded first so this round's
            // evictions of them are priced (and rewritten) as slot
            // re-loads.
            let charged = match remat.as_mut() {
                Some(table) if !round.spilled.is_empty() => {
                    table.upgrade_slot_copies(&func, &spill_set);
                    let ins = spill_cost::spill_insert_costs(
                        &func,
                        &func_analysis.liveness,
                        &func_analysis.loops,
                        &self.target,
                        table,
                    );
                    round
                        .spilled
                        .iter()
                        .map(|&v| ins.get(v).copied().unwrap_or(0))
                        .sum()
                }
                _ => round.cost,
            };
            round_costs.push(charged);
            crate::trace::add_round(charged);
            if ceiling.is_some_and(|c| round_costs.iter().sum::<u64>() > c) {
                return Ok(None);
            }
            if round.spilled.is_empty() {
                converged = round.verdict.is_feasible();
                break (round.assignment, round.verdict);
            }

            // Rewrite the function so the spilled values live in memory
            // (or, for remat-classed values, are re-issued at each use).
            // The rewrite draws its block-edit buffers from the shared
            // scratch, so per-round rewriting allocates from recycled
            // storage.
            let rewrite = {
                let _s = crate::trace::span(crate::trace::Phase::Rewrite);
                spill_code::rewrite_spill_code(&func, &spill_set, remat.as_mut(), scratch)
            };
            stores += rewrite.stats.stores;
            loads += rewrite.stats.loads;
            remats += rewrite.stats.remats;
            spilled_values.extend(round.spilled.iter().copied());
            func = rewrite.function;
            func_analysis = {
                let _s = crate::trace::span(crate::trace::Phase::Reanalyse);
                func_analysis.after_spill(&func, scratch)
            };

            // Stop when out of budget, or when spilling stopped lowering
            // MaxLive: the binding pressure point is then made of
            // reloads/φ-edge copies that re-spilling only recreates
            // (the §4.3 residual-pressure limit). Either way the last
            // round's (feasible) partial assignment is reported and
            // `converged` stays false — the flag is set exclusively by
            // a round that spills nothing and verifies, so a budget or
            // stall exit can never claim convergence. (Audited: relaxing the
            // stall cutoff to "only while MaxLive > R" lets allocators
            // that spill even at fitting pressure — the layered family
            // can leave values uncovered when MaxLive ≤ R — churn all
            // the way to `max_rounds`, tripling wall-clock on the
            // lao-kernels corpus for zero extra convergences, so the
            // cutoff is deliberately R-independent.) The escalated
            // loop is the one exception: it exists precisely to chase
            // the last few units of residual pressure, it only ever
            // runs on the stalled tail, and its rounds are bounded by
            // the same budget — so while MaxLive is still above R it
            // keeps spilling through flat rounds and applies the
            // churn cutoff only once the pressure fits.
            let max_live = func_analysis.liveness.max_live;
            let stuck = max_live >= prev_max_live && (remat.is_none() || max_live <= r as usize);
            prev_max_live = max_live;
            if rounds >= self.max_rounds || stuck {
                break (round.assignment, round.verdict);
            }
        };

        // `func_analysis` always describes `func` as it stands: on a
        // non-converged exit it was just updated after the final
        // rewrite, and on a converged exit `func` is unchanged since
        // it was analysed.
        let max_live_after = func_analysis.liveness.max_live;
        Ok(Some(LoopOutcome {
            function: func,
            rounds,
            converged,
            round_costs,
            spilled_values,
            stores,
            loads,
            remats,
            assignment,
            verdict,
            max_live_before,
            max_live_after,
        }))
    }

    /// The escalation tier: split the original function's over-pressure
    /// live ranges and re-run the whole loop on the transformed
    /// function ([`escalation_input`]). Returns the escalated outcome
    /// and the number of split copies when it converged at no higher
    /// spill cost than `base`; `None` (caller keeps `base`) when nothing
    /// was splittable, the escalated loop errored (e.g. the split cost a
    /// non-SSA function its chordality), or it did not converge. The
    /// loop runs under `base`'s total spill cost as its ceiling, so one
    /// that could only end costlier stops at the first round whose
    /// running cost passes the base run's, before that round's rewrite.
    /// Each call records its [`EscalationOutcome`] in the trace.
    fn escalate(
        &self,
        f: &Function,
        scratch: &mut AnalysisScratch,
        allocator: &dyn Allocator,
        spec: &'static AllocatorSpec,
        r: u32,
        base: &LoopOutcome,
    ) -> Option<(LoopOutcome, usize)> {
        let prep = {
            let _s = crate::trace::span(crate::trace::Phase::EscalatePrep);
            escalation_input(f, scratch, r)
        };
        let ended = match prep {
            None => Err(EscalationOutcome::NotSplittable),
            Some((split, table)) => match self.run_loop(
                &split.function,
                scratch,
                allocator,
                spec,
                r,
                Some(table),
                Some(base.spill_cost()),
            ) {
                Err(_) => Err(EscalationOutcome::Failed),
                Ok(None) => Err(EscalationOutcome::OverBaseCost),
                Ok(Some(esc)) if !esc.converged => Err(EscalationOutcome::Unconverged),
                Ok(Some(esc)) => Ok((esc, split.copies)),
            },
        };
        crate::trace::add_escalation_outcome(match &ended {
            Ok(_) => EscalationOutcome::Accepted,
            Err(outcome) => *outcome,
        });
        let (mut esc, copies) = ended.ok()?;
        // The report should describe the whole pipeline run: rounds
        // count the total allocation effort (base + escalated) and
        // MaxLive-before is the original function's, not the split's.
        esc.rounds += base.rounds;
        esc.max_live_before = base.max_live_before;
        Some((esc, copies))
    }
}

/// The escalation tier's input: `f` with its over-pressure live ranges
/// split ([`split::split_pressure_ranges`]) and its rematerializable
/// values classified across the split ([`RematTable::map_split`]);
/// `None` when no range was splittable.
fn escalation_input(
    f: &Function,
    scratch: &mut AnalysisScratch,
    r: u32,
) -> Option<(split::SplitFunction, RematTable)> {
    let live = liveness::analyze_in(f, scratch);
    let split = split::split_pressure_ranges(f, &live, r as usize, scratch)?;
    let table = RematTable::compute(f).map_split(&split.origin);
    Some((split, table))
}

/// One allocation round: allocate on `inst`, check the allocation
/// and turn its colouring into the register assignment.
fn allocate_round(inst: &Instance, allocator: &dyn Allocator, r: u32) -> RoundOutcome {
    let n = inst.vertex_count();
    let alloc = {
        let _s = crate::trace::span(crate::trace::Phase::Allocate);
        allocator.allocate(inst, r)
    };
    let verdict = {
        let _s = crate::trace::span(crate::trace::Phase::Verify);
        verify::check(inst, &alloc, r)
    };
    let assignment = match &verdict {
        Feasibility::Feasible(colors) => Assignment::from_registers(
            (0..n)
                .map(|v| alloc.allocated.contains(v).then(|| colors[v]))
                .collect(),
        ),
        _ => Assignment::from_registers(vec![None; n]),
    };
    RoundOutcome {
        cost: alloc.spill_cost,
        spilled: (0..n).filter(|&v| !alloc.allocated.contains(v)).collect(),
        assignment,
        verdict,
    }
}

struct RoundOutcome {
    cost: u64,
    spilled: Vec<usize>,
    assignment: Assignment,
    verdict: Feasibility,
}

/// Everything one allocate → rewrite loop produces; the base run and
/// the escalated run each yield one and [`AllocationPipeline::run_with`]
/// picks which becomes the [`AllocatedFunction`].
struct LoopOutcome {
    function: Function,
    rounds: u32,
    converged: bool,
    round_costs: Vec<u64>,
    spilled_values: Vec<usize>,
    stores: usize,
    loads: usize,
    remats: usize,
    assignment: Assignment,
    verdict: Feasibility,
    max_live_before: usize,
    max_live_after: usize,
}

impl LoopOutcome {
    fn spill_cost(&self) -> u64 {
        self.round_costs.iter().sum()
    }
}

/// The report returned by [`AllocationPipeline::run`].
#[derive(Clone, Debug)]
pub struct AllocatedFunction {
    /// The final function, with all inserted spill code.
    pub function: Function,
    /// Registry name of the allocator that ran.
    pub allocator: &'static str,
    /// Register count the pipeline targeted.
    pub registers: u32,
    /// Instance view used for every analysis round.
    pub kind: InstanceKind,
    /// Allocation rounds executed (1 = no residual-pressure iteration
    /// was needed beyond the initial allocation).
    pub rounds: u32,
    /// `true` when the last round spilled nothing and its verdict is
    /// [`Feasibility::Feasible`]: every remaining value (including all
    /// reloads) holds a register and [`AllocatedFunction::assignment`]
    /// is total on live values.
    pub converged: bool,
    /// Total spill cost over all rounds — the allocation cost.
    pub spill_cost: u64,
    /// Per-round spill costs of the accepted run (the escalated loop's
    /// rounds when [`AllocatedFunction::escalated`] is set; see
    /// [`AllocatedFunction::first_round_cost`] for the paper's
    /// escalation-independent figure). Always sums to
    /// [`AllocatedFunction::spill_cost`].
    pub round_costs: Vec<u64>,
    /// The first **base** round's spill cost: the spill-everywhere
    /// allocation cost on the original function, the quantity every
    /// figure of the paper reports. Unlike `round_costs[0]` this is
    /// never displaced by an accepted escalation.
    pub first_round_cost: u64,
    /// Every value the pipeline spilled, in the final function's value
    /// index space.
    pub spilled: BitSet,
    /// Spill stores inserted across all rounds.
    pub stores: usize,
    /// Spill reloads inserted across all rounds.
    pub loads: usize,
    /// Rematerializations inserted instead of reloads (always 0 unless
    /// the run escalated: only the escalation tier classifies values as
    /// rematerializable).
    pub remats: usize,
    /// Concrete register per value of [`AllocatedFunction::function`]
    /// (`None` for spilled values). When `converged` is `false` the
    /// entries for the final round's spilled values and for the reloads
    /// inserted by the final rewrite are `None`: those are exactly the
    /// values the pipeline could not fit into `registers`.
    pub assignment: Assignment,
    /// Verification verdict for the final round's allocation.
    pub verdict: Feasibility,
    /// `MaxLive` of the input function.
    pub max_live_before: usize,
    /// `MaxLive` of the final rewritten function.
    pub max_live_after: usize,
    /// `true` when the run stalled, entered the split + remat
    /// escalation tier, and the escalated result was accepted (it
    /// converged at no higher spill cost than the base run). When set,
    /// [`AllocatedFunction::function`] descends from the
    /// pressure-split function and `rounds` counts both loops.
    pub escalated: bool,
    /// Copies inserted by [`split::split_pressure_ranges`] on the
    /// accepted escalated run (0 when `escalated` is `false`).
    pub split_copies: usize,
}

impl AllocatedFunction {
    /// The first round's spill cost: the spill-everywhere allocation
    /// cost on the original function, the quantity every figure of the
    /// paper reports ([`AllocatedFunction::first_round_cost`]).
    pub fn first_round_spill_cost(&self) -> u64 {
        self.first_round_cost
    }

    /// Number of values spilled across all rounds.
    pub fn spilled_count(&self) -> usize {
        self.spilled.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_instance;
    use lra_ir::builder::FunctionBuilder;
    use lra_ir::genprog::{random_ssa_function, SsaConfig};
    use lra_ir::liveness;
    use lra_targets::TargetKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn small_function(seed: u64) -> Function {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let cfg = SsaConfig {
            target_instrs: 60,
            liveness_window: 10,
            ..SsaConfig::default()
        };
        random_ssa_function(&mut rng, &cfg, format!("f{seed}"))
    }

    #[test]
    fn pipeline_converges_and_verifies_on_ssa_functions() {
        let t = Target::new(TargetKind::St231);
        for seed in 0..4u64 {
            let f = small_function(seed);
            let report = AllocationPipeline::new(t)
                .allocator("BFPL")
                .registers(4)
                .run(&f)
                .expect("BFPL runs on SSA");
            assert!(report.verdict.is_feasible(), "seed {seed}");
            assert!(report.rounds >= 1);
            if report.converged {
                // A converged run assigns a register to every
                // interfering pair distinctly.
                let inst = build_instance(&report.function, &t, InstanceKind::PreciseGraph);
                for (u, v) in inst.graph().edges() {
                    if let (Some(a), Some(b)) = (
                        report.assignment.register_of(u.index()),
                        report.assignment.register_of(v.index()),
                    ) {
                        assert_ne!(a, b, "seed {seed}: neighbours share a register");
                    }
                }
            }
        }
    }

    #[test]
    fn spilling_rounds_reduce_pressure() {
        let t = Target::new(TargetKind::St231);
        let f = small_function(11);
        let before = liveness::analyze(&f).max_live;
        let report = AllocationPipeline::new(t).registers(3).run(&f).unwrap();
        if report.stores > 0 {
            assert!(report.max_live_after < before.max(4));
        }
        assert_eq!(report.max_live_before, before);
        assert_eq!(report.spill_cost, report.round_costs.iter().sum::<u64>());
    }

    #[test]
    fn unknown_allocator_is_an_error() {
        let t = Target::new(TargetKind::St231);
        let f = small_function(1);
        let err = AllocationPipeline::new(t)
            .allocator("XXL")
            .run(&f)
            .unwrap_err();
        assert!(matches!(err, PipelineError::UnknownAllocator(_)));
        assert!(
            err.to_string().contains("BFPL"),
            "error lists registered names"
        );
    }

    #[test]
    fn linear_scans_demand_the_interval_view() {
        let t = Target::new(TargetKind::St231);
        let f = small_function(2);
        let err = AllocationPipeline::new(t)
            .allocator("DLS")
            .run(&f)
            .unwrap_err();
        assert_eq!(err, PipelineError::NeedsIntervals("DLS"));
        let ok = AllocationPipeline::new(t)
            .allocator("DLS")
            .instance_kind(InstanceKind::LinearIntervals)
            .registers(6)
            .run(&f);
        assert!(ok.is_ok());
    }

    #[test]
    fn every_graph_allocator_runs_through_the_pipeline() {
        let t = Target::new(TargetKind::St231);
        let f = small_function(3);
        for spec in AllocatorRegistry::specs() {
            let report = AllocationPipeline::new(t)
                .allocator(spec.name)
                .instance_kind(spec.default_kind())
                .registers(4)
                .max_rounds(4)
                .run(&f)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            assert!(report.verdict.is_feasible(), "{} infeasible", spec.name);
        }
    }

    #[test]
    fn first_round_cost_matches_direct_allocation() {
        use crate::layered::Layered;
        let t = Target::new(TargetKind::St231);
        let f = small_function(5);
        let inst = build_instance(&f, &t, InstanceKind::PreciseGraph);
        let direct = Layered::bfpl().allocate(&inst, 3).spill_cost;
        let report = AllocationPipeline::new(t).registers(3).run(&f).unwrap();
        assert_eq!(report.first_round_spill_cost(), direct);
    }

    #[test]
    fn max_rounds_exit_with_residual_pressure_is_not_converged() {
        // One round is not enough for the wide pressure point below:
        // the pipeline must exit at the round budget with MaxLive
        // still above R and must NOT claim convergence — the flag
        // would otherwise promise a total register assignment that
        // does not exist.
        let mut b = FunctionBuilder::new("wide");
        let e = b.entry_block();
        let vs: Vec<_> = (0..7).map(|_| b.op(e, &[])).collect();
        b.op(e, &vs);
        let f = b.finish();
        let report = AllocationPipeline::new(Target::new(TargetKind::St231))
            .registers(2)
            .max_rounds(1)
            .run(&f)
            .unwrap();
        assert_eq!(report.rounds, 1, "the budget caps the iteration");
        assert!(!report.converged, "residual pressure must not converge");
        assert!(
            report.max_live_after > 2,
            "pressure stayed above R ({})",
            report.max_live_after
        );
        // The padded assignment leaves exactly the unallocatable
        // values register-less.
        assert!((0..report.function.value_count as usize)
            .any(|v| report.assignment.register_of(v).is_none()));
    }

    #[test]
    fn converged_flag_matches_a_total_assignment() {
        // The audited contract behind `converged`: it is set only by a
        // round that spilled nothing, in which case every value of the
        // final function holds a register; any stall/budget exit
        // leaves it false with a partial assignment. Checked across a
        // spread of register pressures.
        let t = Target::new(TargetKind::St231);
        for seed in 0..4u64 {
            for r in [3u32, 6, 12] {
                let f = small_function(seed);
                let report = AllocationPipeline::new(t).registers(r).run(&f).unwrap();
                let total = (0..report.function.value_count as usize)
                    .all(|v| report.assignment.register_of(v).is_some());
                assert_eq!(
                    report.converged, total,
                    "seed {seed} R={r}: converged must mean a total assignment"
                );
            }
        }
    }

    #[test]
    fn escalated_runs_converge_at_no_higher_cost() {
        // The acceptance contract of the split + remat tier: a report
        // with `escalated` set converged to a total assignment, split
        // at least one range, kept the paper's first-round metric from
        // the base run, and spent no more accounted spill cost than
        // the stalled base run it replaced.
        let t = Target::new(TargetKind::St231);
        let mut escalations = 0;
        for seed in 0..24u64 {
            let f = small_function(seed);
            let with = AllocationPipeline::new(t)
                .registers(3)
                .escalation(true)
                .run(&f)
                .unwrap();
            let without = AllocationPipeline::new(t)
                .registers(3)
                .escalation(false)
                .run(&f)
                .unwrap();
            assert!(!without.escalated, "seed {seed}: off-switch ignored");
            assert_eq!(without.split_copies, 0, "seed {seed}");
            if !with.escalated {
                continue;
            }
            escalations += 1;
            assert!(with.converged, "seed {seed}: accepted but not converged");
            assert!(
                with.split_copies > 0,
                "seed {seed}: escalated without a split"
            );
            assert!(with.verdict.is_feasible(), "seed {seed}");
            assert!(
                with.spill_cost <= without.spill_cost,
                "seed {seed}: escalation accepted a costlier run ({} > {})",
                with.spill_cost,
                without.spill_cost
            );
            assert_eq!(
                with.first_round_spill_cost(),
                without.first_round_spill_cost(),
                "seed {seed}: the paper's spill-everywhere metric is the base run's"
            );
            let total = (0..with.function.value_count as usize)
                .all(|v| with.assignment.register_of(v).is_some());
            assert!(total, "seed {seed}: escalated assignment must be total");
        }
        assert!(escalations > 0, "no seed exercised the escalation tier");
    }

    /// Everything a run reports except the allocator's name, as text:
    /// two runs render alike exactly when they made the same decisions.
    fn rendered(r: &AllocatedFunction) -> String {
        format!(
            "{}{:?}",
            lra_ir::textio::print(&r.function),
            (
                r.rounds,
                r.converged,
                &r.round_costs,
                (r.stores, r.loads, r.remats),
                &r.assignment,
                r.escalated,
                r.split_copies,
            )
        )
    }

    /// The random non-SSA methods of the jit-large (`large`) or
    /// jit-huge size classes, scaled down for an unoptimised test
    /// build.
    fn jit_function(seed: u64, large: bool) -> Function {
        use lra_ir::genprog::{random_jit_function, JitConfig};
        use rand::Rng;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (vars, blocks, instrs, cross, back, call) = if large {
            (rng.gen_range(24..=90), 10, rng.gen_range(6..=9), 55, 40, 6)
        } else {
            (rng.gen_range(10..=60), 6, rng.gen_range(4..=7), 50, 35, 5)
        };
        let cfg = JitConfig {
            vars,
            blocks: (vars / 6).max(blocks),
            instrs_per_block: instrs,
            cross_percent: cross,
            back_percent: back,
            call_percent: call,
        };
        random_jit_function(&mut rng, &cfg, format!("j{seed}"))
    }

    /// Everything a loop reports, as text.
    fn rendered_loop(l: &LoopOutcome) -> String {
        format!(
            "{}{:?}",
            lra_ir::textio::print(&l.function),
            (
                l.rounds,
                l.converged,
                &l.round_costs,
                &l.spilled_values,
                (l.stores, l.loads, l.remats),
                &l.assignment,
                &l.verdict,
                (l.max_live_before, l.max_live_after),
            )
        )
    }

    #[test]
    fn the_base_cost_ceiling_cuts_only_loops_that_would_be_rejected() {
        // Each escalated loop runs under the base run's total cost as
        // its ceiling and with none. A loop the ceiling cut must end
        // costlier than the base run (so `escalate` would have rejected
        // it); a loop it did not cut must end identically.
        use crate::portfolio::PortfolioConfig;
        let arm = Target::new(TargetKind::ArmCortexA8);
        let ssa: Vec<Function> = (0..8).map(small_function).collect();
        let jit: Vec<Function> = (0..12)
            .map(|s| jit_function(s, false))
            .chain((12..16).map(|s| jit_function(s, true)))
            .collect();
        let pipelines = [
            AllocationPipeline::new(arm).allocator("LH"),
            AllocationPipeline::new(arm)
                .allocator("BFPL")
                .instance_kind(InstanceKind::LinearIntervals),
            AllocationPipeline::new(arm).portfolio(PortfolioConfig::default().node_budget(2_000)),
        ];
        let (mut scratch, mut prep_scratch) = (AnalysisScratch::new(), AnalysisScratch::new());
        let mut ended = [0usize; 2]; // [cut, run to the end]
        for p in pipelines {
            let spec = AllocatorRegistry::spec(&p.allocator).unwrap();
            let allocator: Box<dyn Allocator> = match &p.portfolio {
                Some(cfg) => Box::new(Portfolio::new(cfg.clone()).unwrap()),
                None => spec.build(),
            };
            for (functions, r) in [(&ssa, 3u32), (&jit, 6)] {
                for f in functions {
                    let name = format!("{} {} R={r}", spec.name, f.name);
                    let mut run = |f: &Function, remat, ceiling| {
                        let a = allocator.as_ref();
                        p.run_loop(f, &mut scratch, a, spec, r, remat, ceiling)
                    };
                    let base = run(f, None, None).unwrap().unwrap();
                    if base.converged {
                        continue;
                    }
                    let Some((split, table)) = escalation_input(f, &mut prep_scratch, r) else {
                        continue;
                    };
                    let ceiling = base.spill_cost();
                    let mut run = |remat, ceiling| run(&split.function, remat, ceiling);
                    let full = run(Some(table.clone()), None).map(Option::unwrap);
                    if let Ok(full) = &full {
                        // The boundary: a loop whose running cost only
                        // reaches the ceiling runs to the end; one unit
                        // less cuts it.
                        let own = full.spill_cost();
                        let at = run(Some(table.clone()), Some(own)).unwrap();
                        assert_eq!(
                            at.as_ref().map(rendered_loop),
                            Some(rendered_loop(full)),
                            "{name}"
                        );
                        if own > 0 {
                            let below = run(Some(table.clone()), Some(own - 1)).unwrap();
                            assert!(below.is_none(), "{name}: ran past its ceiling");
                        }
                    }
                    match (run(Some(table), Some(ceiling)), full) {
                        // Cut: run to the end, the loop ended costlier
                        // (or failed in a later round).
                        (Ok(None), full) => {
                            if let Ok(full) = full {
                                assert!(full.spill_cost() > ceiling, "{name}: cut a keepable loop");
                            }
                            ended[0] += 1;
                        }
                        (Ok(Some(cut)), Ok(full)) => {
                            assert_eq!(rendered_loop(&cut), rendered_loop(&full), "{name}");
                            ended[1] += 1;
                        }
                        (Err(a), Err(b)) => assert_eq!(a, b, "{name}"),
                        (a, b) => panic!(
                            "{name}: with a ceiling {:?}, without {:?}",
                            a.map(|l| l.is_some()),
                            b.map(|l| l.spill_cost())
                        ),
                    }
                }
            }
        }
        assert!(ended.iter().all(|&k| k > 0), "{ended:?}");
    }

    #[test]
    fn portfolio_escalates_only_when_asked_even_at_zero_fuel() {
        // The split + remat tier is a plain switch: a Portfolio
        // pipeline runs it exactly when `.escalation(true)` was
        // called, whatever its fuel. At zero fuel it is the cheap tier
        // with the split + remat tier, byte for byte.
        use crate::portfolio::PortfolioConfig;
        let t = Target::new(TargetKind::St231);
        let p = |nodes| {
            AllocationPipeline::new(t)
                .portfolio(PortfolioConfig::default().node_budget(nodes))
                .registers(3)
        };
        let lh_on = AllocationPipeline::new(t)
            .allocator("LH")
            .registers(3)
            .escalation(true);
        let mut escalated = [0; 2];
        for seed in 0..24u64 {
            let f = small_function(seed);
            for nodes in [0, 5_000] {
                let off = p(nodes).run(&f).unwrap();
                assert!(!off.escalated, "seed {seed}, {nodes} nodes: unasked");
            }
            let on = p(5_000).escalation(true).run(&f).unwrap();
            let zero_on = p(0).escalation(true).run(&f).unwrap();
            assert_eq!(
                rendered(&zero_on),
                rendered(&lh_on.run(&f).unwrap()),
                "seed {seed}"
            );
            escalated[0] += usize::from(on.escalated);
            escalated[1] += usize::from(zero_on.escalated);
        }
        assert!(escalated[0] > 0 && escalated[1] > 0, "{escalated:?}");
    }

    #[test]
    fn single_instruction_pressure_cannot_converge() {
        // Seven values all consumed by one instruction: with R = 2 the
        // reloads themselves exceed R at the use point, so MaxLive
        // stops dropping and the pipeline must report converged ==
        // false after the no-progress cutoff — well before max_rounds.
        let mut b = FunctionBuilder::new("wide");
        let e = b.entry_block();
        let vs: Vec<_> = (0..7).map(|_| b.op(e, &[])).collect();
        b.op(e, &vs);
        let f = b.finish();
        let report = AllocationPipeline::new(Target::new(TargetKind::St231))
            .registers(2)
            .max_rounds(8)
            .run(&f)
            .unwrap();
        assert!(!report.converged);
        assert!(report.rounds < 8, "no-progress cutoff should fire early");
        assert!(report.max_live_after > 2);
    }
}
