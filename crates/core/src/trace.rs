//! Deterministic, zero-dependency phase tracing for the allocation
//! pipeline.
//!
//! The recorder attributes wall time to the hierarchy the paper's
//! evaluation reasons about — pipeline → spill round → phase
//! (analysis, spill costs, instance build, allocate, verify, rewrite,
//! reanalyse) — plus the side counters a phase budget needs, one row
//! each of [`COUNTERS`]: fuel granted to and consumed by exact solves,
//! per-round spill deltas, exact-tier and escalation-tier outcomes,
//! chordality tests and result-cache hits and misses.
//!
//! # Cost contract
//!
//! Tracing is **off by default**. Every probe ([`span`] and the
//! `add_*` counters) first reads one switch: this thread's collecting
//! flag, a `const`-initialised thread-local `Cell<bool>` set by
//! [`begin`] and cleared by [`take`]. While it is off a probe costs
//! that one read — no `Instant::now()` call, no `RefCell` borrow, no
//! allocation. While it is on, all state lives in a thread-local
//! [`TraceReport`] collector, so recording never takes a lock and never
//! synchronises with other workers.
//!
//! # Determinism contract
//!
//! Tracing observes; it never steers. The pipeline's output bytes are
//! identical with tracing on and off (pinned by tests and the CI
//! trace-on/trace-off diff): the recorder only ever *reads* clocks and
//! *writes* side-channel state that no allocation decision consults.
//!
//! # Enabling
//!
//! Whether a unit of work is traced is decided once, where it is
//! submitted, and handed to the thread that runs it:
//!
//! * [`crate::batch::BatchAllocator::run`] traces a batch when its
//!   calling thread holds an [`arm`] guard or the `LRA_TRACE`
//!   environment variable is set ([`env_requested`]); every worker
//!   then brackets each item with [`begin`] … [`take`];
//! * the service traces a job when its `SubmitOptions::trace` is set or
//!   `LRA_TRACE` was set when the service started.
//!
//! [`arm`] arms only the thread that calls it, for the guard's
//! lifetime: a thread it spawns starts unarmed, and untraced work on
//! other threads never collects.
//!
//! # Protocol
//!
//! A thread brackets each unit of work with [`begin`] … [`take`]:
//!
//! ```
//! use lra_core::trace;
//!
//! trace::begin(false);
//! {
//!     let _span = trace::span(trace::Phase::Allocate);
//!     // ... allocate ...
//! }
//! let report = trace::take().expect("begin started a collection");
//! assert_eq!(report.phases[trace::Phase::Allocate as usize].count, 1);
//! ```
//!
//! [`span`] guards record per-phase wall time on drop; a span's
//! *self* time is its elapsed time minus its children's elapsed time,
//! so summing self time over all phases reproduces the bracketed wall
//! time without double counting.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::time::Instant;

/// The phases the recorder attributes time to, in pipeline order.
/// `Pipeline` and `Round` are the two container spans; their *self*
/// time is the orchestration overhead between their children.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// The whole `AllocationPipeline::run_with` call.
    Pipeline = 0,
    /// One allocate → rewrite → reanalyse round.
    Round = 1,
    /// The initial `FunctionAnalysis` (liveness + loop forest).
    Analysis = 2,
    /// Per-value spill cost estimation.
    SpillCosts = 3,
    /// Interference/interval instance construction.
    InstanceBuild = 4,
    /// The allocator proper (cheap tier and, inside a portfolio, the
    /// fuel-bounded exact tier).
    Allocate = 5,
    /// Feasibility verification of the round's allocation.
    Verify = 6,
    /// Spill code rewrite (stores/reloads/remats inserted).
    Rewrite = 7,
    /// Liveness and linearisation redone after a rewrite.
    Reanalyse = 8,
    /// Escalation-tier preparation: liveness, pressure-range split,
    /// remat table mapping.
    EscalatePrep = 9,
}

/// Number of [`Phase`] variants (the length of per-phase arrays).
pub const PHASE_COUNT: usize = 10;

impl Phase {
    /// Every phase, in discriminant order.
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::Pipeline,
        Phase::Round,
        Phase::Analysis,
        Phase::SpillCosts,
        Phase::InstanceBuild,
        Phase::Allocate,
        Phase::Verify,
        Phase::Rewrite,
        Phase::Reanalyse,
        Phase::EscalatePrep,
    ];

    /// The stable snake_case name used in reports, Prometheus labels
    /// and `BENCH_phases.json`.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Pipeline => "pipeline",
            Phase::Round => "round",
            Phase::Analysis => "analysis",
            Phase::SpillCosts => "spill_costs",
            Phase::InstanceBuild => "instance_build",
            Phase::Allocate => "allocate",
            Phase::Verify => "verify",
            Phase::Rewrite => "rewrite",
            Phase::Reanalyse => "reanalyse",
            Phase::EscalatePrep => "escalate_prep",
        }
    }
}

/// Whether `LRA_TRACE` requests tracing (set, non-empty and not
/// `"0"`). Read afresh on every call, so callers read it once per
/// submission point: once per batch, once per service start.
pub fn env_requested() -> bool {
    std::env::var_os("LRA_TRACE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Whether this thread holds an [`arm`] guard.
pub fn enabled() -> bool {
    ARMS.with(Cell::get) > 0
}

/// Arms tracing on the calling thread for the guard's lifetime: a
/// batch submitted from this thread is traced on every worker it runs
/// on. Guards nest; other threads are unaffected.
#[must_use = "tracing is armed only while the guard lives"]
pub fn arm() -> ArmGuard {
    ARMS.with(|a| a.set(a.get() + 1));
    ArmGuard(PhantomData)
}

/// RAII handle from [`arm`]; dropping it disarms that one reason. Not
/// `Send`: it must drop on the thread it armed.
pub struct ArmGuard(PhantomData<*const ()>);

impl Drop for ArmGuard {
    fn drop(&mut self) {
        ARMS.with(|a| a.set(a.get() - 1));
    }
}

/// Wall time attributed to one [`Phase`] within a report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Spans of this phase that completed.
    pub count: u64,
    /// Total elapsed nanoseconds (children included).
    pub total_ns: u64,
    /// Self nanoseconds: elapsed minus the elapsed time of child
    /// spans. Summing `self_ns` over all phases reproduces the
    /// outermost span's elapsed time without double counting.
    pub self_ns: u64,
}

/// One completed span, kept only in detail mode (for the
/// chrome://tracing export). Timestamps are relative to [`begin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// The span's phase.
    pub phase: Phase,
    /// Start offset from the collector's origin, in nanoseconds.
    pub start_ns: u64,
    /// Elapsed nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth (1 = outermost).
    pub depth: u16,
}

/// One row of [`COUNTERS`]: a side counter of [`TraceReport`] and the
/// names it is published under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter {
    /// The field's name: its key in `BENCH_phases.json`, and with a
    /// `trace_` prefix its field on a traced wire line.
    pub key: &'static str,
    /// The Prometheus family the counter is a sample of.
    pub family: &'static str,
    /// The sample's `(name, value)` label, for a family of several
    /// counters.
    pub label: Option<(&'static str, &'static str)>,
    /// The family's `# HELP` text.
    pub help: &'static str,
}

/// Declares [`TraceReport`], one `u64` field per counter, and the
/// [`COUNTERS`] table in field order, from one list of Prometheus
/// families and their rows, so a family's rows are adjacent.
macro_rules! counters {
    (@label) => { None };
    (@label $name:ident = $value:literal) => { Some((stringify!($name), $value)) };
    ($(
        $family:literal, $help:literal {
            $( $(#[$doc:meta])* $field:ident $({ $lname:ident = $lvalue:literal })?, )+
        }
    )+) => {
        /// Everything one traced unit of work recorded. Returned by
        /// [`take`]; merged across items by [`TraceReport::merge`] for
        /// corpus-level aggregation.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct TraceReport {
            /// Per-phase wall-time attribution, indexed by `Phase as usize`.
            pub phases: [PhaseStats; PHASE_COUNT],
            $($( $(#[$doc])* pub $field: u64, )+)+
            /// Completed spans in completion order — populated only when the
            /// collector was started in detail mode ([`begin`] with `detail`).
            pub events: Vec<SpanEvent>,
        }

        /// Every side counter of [`TraceReport`], in field order: the
        /// order of `BENCH_phases.json`, the Prometheus exposition and
        /// the traced wire line, which all loop over this table.
        pub const COUNTERS: &[Counter] = &[$($(
            Counter {
                key: stringify!($field),
                family: $family,
                label: counters!(@label $($lname = $lvalue)?),
                help: $help,
            },
        )+)+];

        impl TraceReport {
            /// The side counters' values, in [`COUNTERS`] order.
            pub fn counters(&self) -> [u64; COUNTERS.len()] {
                [$($(self.$field,)+)+]
            }

            /// The side counters, in [`COUNTERS`] order.
            pub fn counters_mut(&mut self) -> [&mut u64; COUNTERS.len()] {
                [$($(&mut self.$field,)+)+]
            }
        }
    };
}

counters! {
    "lra_traced_rounds_total", "Allocation rounds run by traced requests." {
        /// Allocation rounds recorded via [`add_round`].
        rounds,
    }
    "lra_traced_spill_cost_total", "Spill cost charged by the rounds of traced requests." {
        /// Total spill cost charged across recorded rounds.
        spill_delta,
    }
    "lra_traced_fuel_granted_total", "Exact-solve node fuel granted to traced requests." {
        /// Exact-solve fuel (node budget) granted via [`add_fuel`].
        fuel,
    }
    "lra_traced_fuel_consumed_total", "Exact-solve nodes visited by traced requests." {
        /// Exact-solve work actually performed, recorded via
        /// [`add_fuel_consumed`]: branch-and-bound nodes visited.
        fuel_consumed,
    }
    "lra_exact_outcomes_total",
    "How escalations to the exact tier ended (populated for traced requests)." {
        /// Escalations to the exact tier that ended [`ExactOutcome::Won`],
        /// recorded via [`add_exact_outcome`]. The four `exact_*`
        /// counters sum to the escalations granted fuel.
        exact_won { outcome = "won" },
        /// Escalations that ended [`ExactOutcome::Tied`].
        exact_tied { outcome = "tied" },
        /// Escalations that ended [`ExactOutcome::Improved`].
        exact_improved { outcome = "improved" },
        /// Escalations that ended [`ExactOutcome::Exhausted`].
        exact_exhausted { outcome = "exhausted" },
    }
    "lra_escalation_outcomes_total",
    "How runs of the split + remat escalation tier ended (populated for traced requests)." {
        /// Runs of the split + remat escalation tier that ended
        /// [`EscalationOutcome::NotSplittable`], recorded via
        /// [`add_escalation_outcome`]. The five `escalation_*` counters
        /// sum to the [`Phase::EscalatePrep`] span count.
        escalation_not_splittable { outcome = "not_splittable" },
        /// Runs that ended [`EscalationOutcome::Failed`].
        escalation_failed { outcome = "failed" },
        /// Runs that ended [`EscalationOutcome::OverBaseCost`].
        escalation_over_base_cost { outcome = "over_base_cost" },
        /// Runs that ended [`EscalationOutcome::Unconverged`].
        escalation_unconverged { outcome = "unconverged" },
        /// Runs that ended [`EscalationOutcome::Accepted`].
        escalation_accepted { outcome = "accepted" },
    }
    "lra_chordality_tests_total",
    "Chordality tests run on instances (populated for traced requests)." {
        /// Chordality tests actually run, recorded via
        /// [`add_chordality_test`]: the first PEO request on an instance
        /// not built from intervals (see `Instance::peo`).
        chordality_tests,
    }
    "lra_traced_cache_lookups_total", "Result-cache lookups made by traced requests." {
        /// Result-cache hits, recorded via [`cache_access`].
        cache_hits { result = "hit" },
        /// Result-cache misses.
        cache_misses { result = "miss" },
    }
}

impl TraceReport {
    /// Self microseconds attributed to `phase`.
    pub fn phase_self_us(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].self_ns / 1_000
    }

    /// Sum of self time over all phases, in nanoseconds — the traced
    /// wall time, free of double counting.
    pub fn total_self_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.self_ns).sum()
    }

    /// Folds `other` into `self` (counter-wise; `events` are per-item
    /// detail and deliberately not merged).
    pub fn merge(&mut self, other: &TraceReport) {
        for (into, from) in self.phases.iter_mut().zip(other.phases.iter()) {
            into.count += from.count;
            into.total_ns += from.total_ns;
            into.self_ns += from.self_ns;
        }
        for (into, from) in self.counters_mut().into_iter().zip(other.counters()) {
            *into += from;
        }
    }
}

/// The per-thread recorder. `child_ns[d]` accumulates the elapsed
/// time of completed children of the currently-open span at depth `d`.
struct Collector {
    detail: bool,
    origin: Instant,
    depth: usize,
    child_ns: Vec<u64>,
    report: TraceReport,
}

thread_local! {
    /// Whether this thread is collecting: set by [`begin`], cleared by
    /// [`take`]. The one switch every probe reads.
    static COLLECTING: Cell<bool> = const { Cell::new(false) };
    /// Live [`arm`] guards on this thread.
    static ARMS: Cell<u32> = const { Cell::new(0) };
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector {
        detail: false,
        origin: Instant::now(),
        depth: 0,
        child_ns: Vec::new(),
        report: TraceReport::default(),
    });
}

/// Starts collecting on this thread, discarding any previous
/// collection. With `detail` set, completed spans are additionally
/// kept as [`SpanEvent`]s (the chrome://tracing export's input);
/// without it only the aggregate counters accrue.
pub fn begin(detail: bool) {
    COLLECTING.with(|on| on.set(true));
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.detail = detail;
        c.origin = Instant::now();
        c.depth = 0;
        c.child_ns.clear();
        c.report = TraceReport::default();
    });
}

/// Stops collecting on this thread and returns the report, or `None`
/// when no collection was active ([`begin`] was not called on this
/// thread since the last `take`).
pub fn take() -> Option<TraceReport> {
    if !COLLECTING.with(|on| on.replace(false)) {
        return None;
    }
    Some(COLLECTOR.with(|c| std::mem::take(&mut c.borrow_mut().report)))
}

/// Whether this thread is between [`begin`] and [`take`].
#[inline]
fn collecting() -> bool {
    COLLECTING.with(Cell::get)
}

/// An open phase span; records into the thread's collector on drop.
/// Inert (a no-op to create and drop) when no collection is active on
/// this thread.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    live: Option<(Phase, Instant)>,
}

/// Opens a span of `phase`. One thread-local read when this thread is
/// not collecting; otherwise the span clocks its scope and attributes
/// the elapsed/self time to `phase` when dropped.
pub fn span(phase: Phase) -> SpanGuard {
    if !collecting() {
        return SpanGuard { live: None };
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.depth += 1;
        let d = c.depth;
        if c.child_ns.len() <= d {
            c.child_ns.resize(d + 1, 0);
        }
        c.child_ns[d] = 0;
    });
    SpanGuard {
        live: Some((phase, Instant::now())),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((phase, start)) = self.live else {
            return;
        };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            // A begin() or take() between open and drop reset the
            // stack; this guard's bookkeeping no longer applies.
            if !collecting() || c.depth == 0 {
                return;
            }
            let d = c.depth;
            let child = c.child_ns[d];
            let stats = &mut c.report.phases[phase as usize];
            stats.count += 1;
            stats.total_ns += dur_ns;
            stats.self_ns += dur_ns.saturating_sub(child);
            c.child_ns[d - 1] += dur_ns;
            c.depth = d - 1;
            if c.detail {
                let start_ns =
                    u64::try_from(start.duration_since(c.origin).as_nanos()).unwrap_or(u64::MAX);
                c.report.events.push(SpanEvent {
                    phase,
                    start_ns,
                    dur_ns,
                    depth: d as u16,
                });
            }
        });
    }
}

/// Runs `record` against the collector's report, if this thread is
/// collecting.
fn with_report(record: impl FnOnce(&mut TraceReport)) {
    if collecting() {
        COLLECTOR.with(|c| record(&mut c.borrow_mut().report));
    }
}

/// Records fuel (an exact-solve node budget) granted to this unit of
/// work.
pub fn add_fuel(nodes: u64) {
    with_report(|r| r.fuel += nodes);
}

/// Records exact-solve work actually performed: the branch-and-bound
/// nodes a search visited. Only the portfolio grants fuel
/// ([`add_fuel`]); inside it consumption never exceeds the grant,
/// while an exact solve run outside it (the `Optimal` allocator,
/// stepped layers) consumes without one.
pub fn add_fuel_consumed(units: u64) {
    with_report(|r| r.fuel_consumed += units);
}

/// How one escalation to the exact tier ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactOutcome {
    /// The exact tier certified a strictly cheaper allocation.
    Won,
    /// The exact tier completed and certified the cheap cost optimal.
    Tied,
    /// The exact tier ran out of its budget holding a strictly cheaper
    /// allocation, kept uncertified.
    Improved,
    /// The exact tier ran out of its budget with nothing cheaper.
    Exhausted,
}

/// Records how one escalation to the exact tier ended.
pub fn add_exact_outcome(outcome: ExactOutcome) {
    with_report(|r| match outcome {
        ExactOutcome::Won => r.exact_won += 1,
        ExactOutcome::Tied => r.exact_tied += 1,
        ExactOutcome::Improved => r.exact_improved += 1,
        ExactOutcome::Exhausted => r.exact_exhausted += 1,
    });
}

/// How one run of the split + remat escalation tier ended (the
/// driver's `escalate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EscalationOutcome {
    /// No live range could be split, so no escalated loop ran.
    NotSplittable,
    /// The escalated loop failed, e.g. the split cost a non-SSA
    /// function its chordality.
    Failed,
    /// The escalated loop's running spill cost passed the base run's
    /// total, so it was stopped at that round.
    OverBaseCost,
    /// The escalated loop ended without converging.
    Unconverged,
    /// The escalated loop converged at no higher spill cost than the
    /// base run and replaced it.
    Accepted,
}

/// Records how one run of the escalation tier ended.
pub fn add_escalation_outcome(outcome: EscalationOutcome) {
    with_report(|r| match outcome {
        EscalationOutcome::NotSplittable => r.escalation_not_splittable += 1,
        EscalationOutcome::Failed => r.escalation_failed += 1,
        EscalationOutcome::OverBaseCost => r.escalation_over_base_cost += 1,
        EscalationOutcome::Unconverged => r.escalation_unconverged += 1,
        EscalationOutcome::Accepted => r.escalation_accepted += 1,
    });
}

/// Records one completed allocation round and the spill cost it
/// charged.
pub fn add_round(spill_cost: u64) {
    with_report(|r| {
        r.rounds += 1;
        r.spill_delta += spill_cost;
    });
}

/// Records one chordality test (an MCS order plus its PEO check).
pub fn add_chordality_test() {
    with_report(|r| r.chordality_tests += 1);
}

/// Records one result-cache lookup.
pub fn cache_access(hit: bool) {
    with_report(|r| {
        if hit {
            r.cache_hits += 1;
        } else {
            r.cache_misses += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_probes_record_nothing() {
        // An armed thread that never began does not collect.
        let _on = arm();
        {
            let _s = span(Phase::Allocate);
            add_fuel(10);
            add_fuel_consumed(10);
            add_round(5);
            add_chordality_test();
            add_escalation_outcome(EscalationOutcome::Accepted);
            cache_access(true);
        }
        assert_eq!(take(), None);
    }

    #[test]
    fn spans_attribute_self_time_to_the_right_phase() {
        begin(false);
        {
            let _outer = span(Phase::Pipeline);
            {
                let _round = span(Phase::Round);
                {
                    let _inner = span(Phase::Allocate);
                    std::thread::sleep(Duration::from_millis(2));
                }
                {
                    let _inner = span(Phase::Verify);
                }
            }
            add_fuel(100_000);
            add_fuel_consumed(2_500);
            add_round(42);
            add_chordality_test();
            add_escalation_outcome(EscalationOutcome::OverBaseCost);
            add_escalation_outcome(EscalationOutcome::OverBaseCost);
            add_escalation_outcome(EscalationOutcome::Accepted);
            cache_access(true);
            cache_access(false);
            cache_access(false);
        }
        let r = take().expect("collection was active");
        assert_eq!(take(), None, "take() drains");

        let [pipeline, round, allocate, verify] = [
            r.phases[Phase::Pipeline as usize],
            r.phases[Phase::Round as usize],
            r.phases[Phase::Allocate as usize],
            r.phases[Phase::Verify as usize],
        ];
        assert_eq!(pipeline.count, 1);
        assert_eq!(round.count, 1);
        assert_eq!(allocate.count, 1);
        assert_eq!(verify.count, 1);
        assert!(allocate.total_ns >= 2_000_000, "slept 2ms inside allocate");
        assert_eq!(allocate.total_ns, allocate.self_ns, "leaf span: all self");
        // Containers: total covers children, self excludes them.
        assert!(round.total_ns >= allocate.total_ns + verify.total_ns);
        assert!(round.self_ns <= round.total_ns - allocate.total_ns);
        assert!(pipeline.total_ns >= round.total_ns);
        // Self times tile the outermost span exactly.
        assert_eq!(r.total_self_ns(), pipeline.total_ns);

        assert_eq!(r.fuel, 100_000);
        assert_eq!(r.fuel_consumed, 2_500);
        assert_eq!(r.rounds, 1);
        assert_eq!(r.spill_delta, 42);
        assert_eq!(r.chordality_tests, 1);
        assert_eq!((r.escalation_over_base_cost, r.escalation_accepted), (2, 1));
        assert_eq!((r.cache_hits, r.cache_misses), (1, 2));
        assert!(r.events.is_empty(), "no detail requested");
    }

    #[test]
    fn detail_mode_keeps_span_events() {
        begin(true);
        {
            let _outer = span(Phase::Pipeline);
            let _inner = span(Phase::Analysis);
        }
        let r = take().expect("collection was active");
        assert_eq!(r.events.len(), 2);
        // Completion order: inner closes first.
        assert_eq!(r.events[0].phase, Phase::Analysis);
        assert_eq!(r.events[0].depth, 2);
        assert_eq!(r.events[1].phase, Phase::Pipeline);
        assert_eq!(r.events[1].depth, 1);
        assert!(r.events[1].dur_ns >= r.events[0].dur_ns);
    }

    #[test]
    fn merge_sums_counters_and_ignores_events() {
        // Every side counter is summed too: the table-driven test in
        // `lra-bench` checks each row through every writer.
        let mut a = TraceReport::default();
        a.phases[Phase::Allocate as usize] = PhaseStats {
            count: 2,
            total_ns: 100,
            self_ns: 80,
        };
        let mut b = TraceReport::default();
        b.phases[Phase::Allocate as usize] = PhaseStats {
            count: 1,
            total_ns: 50,
            self_ns: 50,
        };
        b.events.push(SpanEvent {
            phase: Phase::Allocate,
            start_ns: 0,
            dur_ns: 50,
            depth: 1,
        });
        a.merge(&b);
        let p = a.phases[Phase::Allocate as usize];
        assert_eq!((p.count, p.total_ns, p.self_ns), (3, 150, 130));
        assert!(a.events.is_empty());
    }

    #[test]
    fn arming_nests() {
        assert!(!enabled());
        let g1 = arm();
        assert!(enabled());
        let g2 = arm();
        std::thread::spawn(|| assert!(!enabled(), "a spawned thread starts unarmed"))
            .join()
            .expect("spawned thread");
        drop(g1);
        assert!(enabled(), "still armed by g2");
        drop(g2);
        assert!(!enabled(), "dropping the last guard disarms");
    }

    #[test]
    fn phase_names_are_stable_and_distinct() {
        let names: Vec<&str> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), PHASE_COUNT);
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "discriminants index the arrays");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names are unique");
    }

    #[test]
    fn every_counter_is_documented() {
        let doc = include_str!("../../../docs/benchmarks.md");
        let (_, phases) = doc.split_once("## `BENCH_phases.json`").unwrap();
        let phases = phases.split("\n## ").next().unwrap();
        for c in COUNTERS {
            let key = format!("`{}`", c.key);
            assert!(
                phases.contains(&key),
                "{key} undocumented in BENCH_phases.json"
            );
            let row = doc
                .lines()
                .find(|l| l.starts_with("| `") && l.contains(&format!("`{}", c.family)))
                .unwrap_or_else(|| panic!("{} has no Prometheus row", c.family));
            if let Some((name, value)) = c.label {
                assert!(
                    row.contains(&format!("{name}=")) && row.contains(&format!("\"{value}\"")),
                    "{}: label {name}={value} undocumented",
                    c.family
                );
            }
        }
    }
}
