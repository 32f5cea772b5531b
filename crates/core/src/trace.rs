//! Deterministic, zero-dependency phase tracing for the allocation
//! pipeline.
//!
//! The recorder attributes wall time to the hierarchy the paper's
//! evaluation reasons about — pipeline → spill round → phase
//! (analysis, spill costs, instance build, allocate, verify, rewrite,
//! reanalyse) — plus the side counters a phase budget needs: fuel
//! granted to and consumed by exact solves, per-round spill deltas,
//! and result-cache hit/miss attribution per shard.
//!
//! # Cost contract
//!
//! Tracing is **off by default** and costs exactly one relaxed atomic
//! load per instrumentation point while off ([`enabled`]). No
//! `Instant::now()` call, no thread-local access, no allocation
//! happens on a disabled probe. When enabled, all state lives in a
//! thread-local [`TraceReport`] collector, so recording never takes a
//! lock and never synchronises with other workers.
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
//! Two doors, same switch:
//!
//! * the `LRA_TRACE` environment variable (any non-empty value other
//!   than `0`) arms tracing process-wide — the env is read once, on
//!   the first probe;
//! * [`arm`] returns an RAII guard arming tracing for its lifetime —
//!   the per-request door the service's `trace:true` requests and the
//!   `lra-bench profile` subcommand use.
//!
//! # Protocol
//!
//! A worker brackets each unit of work with [`begin`] … [`take`]:
//!
//! ```
//! use lra_core::trace;
//!
//! let _on = trace::arm();
//! trace::begin(false);
//! {
//!     let _span = trace::span(trace::Phase::Allocate);
//!     // ... allocate ...
//! }
//! let report = trace::take().expect("tracing is armed");
//! assert_eq!(report.phases[trace::Phase::Allocate as usize].count, 1);
//! ```
//!
//! [`span`] guards record per-phase wall time on drop; a span's
//! *self* time is its elapsed time minus its children's elapsed time,
//! so summing self time over all phases reproduces the bracketed wall
//! time without double counting.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

pub use crate::cache::CACHE_SHARDS;

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
    /// Incremental (or forced-full) reanalysis after a rewrite.
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

/// Sentinel: the armed counter has not yet been initialised from the
/// `LRA_TRACE` environment variable.
const UNINIT: u32 = u32::MAX;

/// How many reasons tracing is currently on: the env contributes 1,
/// each live [`ArmGuard`] contributes 1. `UNINIT` until first probed.
static ARMED: AtomicU32 = AtomicU32::new(UNINIT);

/// Whether `LRA_TRACE` requests tracing (non-empty and not `"0"`).
fn env_requests_trace() -> bool {
    std::env::var_os("LRA_TRACE").is_some_and(|v| !v.is_empty() && v != "0")
}

/// The armed count, lazily initialised from the environment on first
/// use. Exactly one relaxed load on the fast path.
fn armed_count() -> u32 {
    let v = ARMED.load(Ordering::Relaxed);
    if v != UNINIT {
        return v;
    }
    let from_env = u32::from(env_requests_trace());
    match ARMED.compare_exchange(UNINIT, from_env, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => from_env,
        Err(current) => current,
    }
}

/// Whether tracing is currently armed. This is the disabled-path cost
/// of every probe: one relaxed atomic load (plus, once per process,
/// the lazy `LRA_TRACE` read).
#[inline]
pub fn enabled() -> bool {
    armed_count() > 0
}

/// Re-reads `LRA_TRACE` on the next probe, discarding the memoised
/// env decision (live [`ArmGuard`]s are discarded with it). Test-only
/// plumbing for exercising the env path; production code arms via
/// [`arm`] or the environment at process start.
#[doc(hidden)]
pub fn reset_for_tests() {
    ARMED.store(UNINIT, Ordering::Relaxed);
}

/// Arms tracing for the guard's lifetime (in addition to any other
/// arming reason). Used per-request by the service and per-run by the
/// profiler; guards nest freely across threads.
#[must_use = "tracing is armed only while the guard lives"]
pub fn arm() -> ArmGuard {
    armed_count(); // settle the lazy env init before counting up
    ARMED.fetch_add(1, Ordering::Relaxed);
    ArmGuard(())
}

/// RAII handle from [`arm`]; dropping it disarms that one reason.
pub struct ArmGuard(());

impl Drop for ArmGuard {
    fn drop(&mut self) {
        // fetch_update instead of fetch_sub: a test's reset_for_tests
        // may have re-sentineled the counter under us, and wrapping
        // below zero would arm tracing forever.
        let _ = ARMED.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            (v != UNINIT && v > 0).then(|| v - 1)
        });
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

/// Everything one traced unit of work recorded. Returned by [`take`];
/// merged across items by [`TraceReport::merge`] for corpus-level
/// aggregation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceReport {
    /// Per-phase wall-time attribution, indexed by `Phase as usize`.
    pub phases: [PhaseStats; PHASE_COUNT],
    /// Allocation rounds recorded via [`add_round`].
    pub rounds: u64,
    /// Total spill cost charged across recorded rounds.
    pub spill_delta: u64,
    /// Exact-solve fuel (node budget) granted via [`add_fuel`].
    pub fuel: u64,
    /// Exact-solve work actually performed, recorded via
    /// [`add_fuel_consumed`]: branch-and-bound nodes visited and
    /// clique-tree DP masks enumerated.
    pub fuel_consumed: u64,
    /// Escalations to the exact tier that found a strictly cheaper
    /// allocation than the cheap tier, recorded via
    /// [`add_exact_outcome`].
    pub exact_won: u64,
    /// Escalations whose exact search completed but certified the
    /// cheap tier's cost as optimal.
    pub exact_tied: u64,
    /// Escalations whose exact search ran out of fuel (or time).
    pub exact_exhausted: u64,
    /// Result-cache hits, per shard (see [`CACHE_SHARDS`]).
    pub shard_hits: [u64; CACHE_SHARDS],
    /// Result-cache misses, per shard.
    pub shard_misses: [u64; CACHE_SHARDS],
    /// Completed spans in completion order — populated only when the
    /// collector was started in detail mode ([`begin`] with `detail`).
    pub events: Vec<SpanEvent>,
}

impl TraceReport {
    /// Total cache hits across shards.
    pub fn cache_hits(&self) -> u64 {
        self.shard_hits.iter().sum()
    }

    /// Total cache misses across shards.
    pub fn cache_misses(&self) -> u64 {
        self.shard_misses.iter().sum()
    }

    /// Elapsed microseconds attributed to `phase` (children included).
    pub fn phase_total_us(&self, phase: Phase) -> u64 {
        self.phases[phase as usize].total_ns / 1_000
    }

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
        self.rounds += other.rounds;
        self.spill_delta += other.spill_delta;
        self.fuel += other.fuel;
        self.fuel_consumed += other.fuel_consumed;
        self.exact_won += other.exact_won;
        self.exact_tied += other.exact_tied;
        self.exact_exhausted += other.exact_exhausted;
        for (into, from) in self.shard_hits.iter_mut().zip(other.shard_hits.iter()) {
            *into += from;
        }
        for (into, from) in self.shard_misses.iter_mut().zip(other.shard_misses.iter()) {
            *into += from;
        }
    }
}

/// The per-thread recorder. `child_ns[d]` accumulates the elapsed
/// time of completed children of the currently-open span at depth `d`.
struct Collector {
    active: bool,
    detail: bool,
    origin: Instant,
    depth: usize,
    child_ns: Vec<u64>,
    report: TraceReport,
}

thread_local! {
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector {
        active: false,
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
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        c.active = true;
        c.detail = detail;
        c.origin = Instant::now();
        c.depth = 0;
        c.child_ns.clear();
        c.report = TraceReport::default();
    });
}

/// Stops collecting on this thread and returns the report, or `None`
/// when no collection was active (tracing disarmed, or [`begin`] was
/// never called on this thread).
pub fn take() -> Option<TraceReport> {
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        if !c.active {
            return None;
        }
        c.active = false;
        Some(std::mem::take(&mut c.report))
    })
}

/// An open phase span; records into the thread's collector on drop.
/// Inert (a no-op to create and drop) when tracing is disarmed or no
/// collection is active on this thread.
#[must_use = "a span measures the scope it is bound to"]
pub struct SpanGuard {
    live: Option<(Phase, Instant)>,
}

/// Opens a span of `phase`. One relaxed atomic load when tracing is
/// disarmed; otherwise the span clocks its scope and attributes the
/// elapsed/self time to `phase` when dropped.
pub fn span(phase: Phase) -> SpanGuard {
    if !enabled() {
        return SpanGuard { live: None };
    }
    let live = COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        if !c.active {
            return None;
        }
        c.depth += 1;
        let d = c.depth;
        if c.child_ns.len() <= d {
            c.child_ns.resize(d + 1, 0);
        }
        c.child_ns[d] = 0;
        Some((phase, Instant::now()))
    });
    SpanGuard { live }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((phase, start)) = self.live else {
            return;
        };
        let dur_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        COLLECTOR.with(|c| {
            let mut c = c.borrow_mut();
            // A begin() between open and drop reset the stack; this
            // guard's bookkeeping no longer applies.
            if !c.active || c.depth == 0 {
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

/// Runs `record` against the active collector's report, if tracing is
/// armed and this thread is collecting.
fn with_report(record: impl FnOnce(&mut TraceReport)) {
    if !enabled() {
        return;
    }
    COLLECTOR.with(|c| {
        let mut c = c.borrow_mut();
        if c.active {
            record(&mut c.report);
        }
    });
}

/// Records fuel (an exact-solve node budget) granted to this unit of
/// work.
pub fn add_fuel(nodes: u64) {
    with_report(|r| r.fuel += nodes);
}

/// Records exact-solve work actually performed: the branch-and-bound
/// nodes a search visited or the masks a clique-tree DP enumerated.
/// Only the portfolio grants fuel ([`add_fuel`]); inside it consumption
/// never exceeds the grant, while an exact solve run outside it (the
/// `Optimal` allocator, stepped layers) consumes without one.
pub fn add_fuel_consumed(units: u64) {
    with_report(|r| r.fuel_consumed += units);
}

/// How one escalation to the exact tier ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExactOutcome {
    /// The exact tier found a strictly cheaper allocation.
    Won,
    /// The exact tier completed and certified the cheap cost optimal.
    Tied,
    /// The exact tier ran out of its budget.
    Exhausted,
}

/// Records how one escalation to the exact tier ended.
pub fn add_exact_outcome(outcome: ExactOutcome) {
    with_report(|r| match outcome {
        ExactOutcome::Won => r.exact_won += 1,
        ExactOutcome::Tied => r.exact_tied += 1,
        ExactOutcome::Exhausted => r.exact_exhausted += 1,
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

/// Attributes one result-cache lookup to `shard`.
pub fn cache_access(shard: usize, hit: bool) {
    with_report(|r| {
        let counters = if hit {
            &mut r.shard_hits
        } else {
            &mut r.shard_misses
        };
        if let Some(c) = counters.get_mut(shard) {
            *c += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_probes_record_nothing() {
        // Whatever the process-wide state, an un-begun thread never
        // collects.
        {
            let _s = span(Phase::Allocate);
            add_fuel(10);
            add_fuel_consumed(10);
            add_round(5);
            cache_access(0, true);
        }
        assert_eq!(take(), None);
    }

    #[test]
    fn spans_attribute_self_time_to_the_right_phase() {
        let _on = arm();
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
            cache_access(3, true);
            cache_access(3, false);
            cache_access(CACHE_SHARDS + 5, true); // out of range: ignored
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
        assert_eq!(r.shard_hits[3], 1);
        assert_eq!(r.shard_misses[3], 1);
        assert_eq!(r.cache_hits(), 1);
        assert_eq!(r.cache_misses(), 1);
        assert!(r.events.is_empty(), "no detail requested");
    }

    #[test]
    fn detail_mode_keeps_span_events() {
        let _on = arm();
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
        let mut a = TraceReport::default();
        a.phases[Phase::Allocate as usize] = PhaseStats {
            count: 2,
            total_ns: 100,
            self_ns: 80,
        };
        a.fuel = 7;
        a.fuel_consumed = 5;
        a.exact_won = 1;
        a.exact_exhausted = 2;
        a.shard_hits[1] = 3;
        let mut b = TraceReport {
            rounds: 4,
            spill_delta: 9,
            fuel_consumed: 2,
            exact_tied: 3,
            exact_exhausted: 1,
            ..TraceReport::default()
        };
        b.phases[Phase::Allocate as usize] = PhaseStats {
            count: 1,
            total_ns: 50,
            self_ns: 50,
        };
        b.shard_misses[1] = 2;
        b.events.push(SpanEvent {
            phase: Phase::Allocate,
            start_ns: 0,
            dur_ns: 50,
            depth: 1,
        });
        a.merge(&b);
        let p = a.phases[Phase::Allocate as usize];
        assert_eq!((p.count, p.total_ns, p.self_ns), (3, 150, 130));
        assert_eq!(a.rounds, 4);
        assert_eq!(a.spill_delta, 9);
        assert_eq!(a.fuel, 7);
        assert_eq!(a.fuel_consumed, 7);
        assert_eq!((a.exact_won, a.exact_tied, a.exact_exhausted), (1, 3, 3));
        assert_eq!(a.shard_hits[1], 3);
        assert_eq!(a.shard_misses[1], 2);
        assert!(a.events.is_empty());
    }

    #[test]
    fn arming_nests() {
        // Other tests in this binary arm() concurrently, so only the
        // monotone direction is assertable here: while any guard
        // lives, tracing is on. (Full disarm-on-drop is covered by
        // the byte-identity integration tests, which run the batch
        // path after their guards dropped.)
        let g1 = arm();
        assert!(enabled());
        let g2 = arm();
        drop(g1);
        assert!(enabled(), "still armed by g2");
        drop(g2);
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
}
