//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] describes *where* faults land — worker panics every
//! Nth job, artificial per-job latency, connection drops mid-response —
//! and a seed that picks *which* phase of each cycle faults, so two
//! chaos runs with the same plan inject the same fault pattern. The
//! service materialises the plan into one [`FaultInjector`] whose
//! atomic counters hand out fault decisions; the injector also counts
//! what it injected so a harness can assert every enabled fault type
//! actually fired ([`FaultInjector::report`]).
//!
//! Injection is off unless a plan is installed
//! ([`ServiceConfig::faults`](crate::ServiceConfig::faults)); with the
//! default `None` nothing fires.

use crate::client::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A seeded, deterministic fault schedule. All fault kinds default to
/// **off** (`every = 0`); each is enabled by its builder.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    panic_every: u64,
    latency_every: u64,
    latency: Duration,
    drop_every: u64,
}

impl FaultPlan {
    /// An all-off plan; enable individual faults with the builders.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Seeds the phase of every fault cycle (same seed, same pattern).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Panics the worker on one job out of every `every` (0 disables).
    /// The panic unwinds into the per-item `catch_unwind`, so the job
    /// completes as an error row, never a dead worker.
    ///
    /// # Panics
    ///
    /// Panics if `every == 1`: every attempt of every job would fault,
    /// so a resubmitting harness could never finish.
    pub fn panic_every(mut self, every: u64) -> Self {
        assert!(every != 1, "panic_every(1) faults every attempt forever");
        self.panic_every = every;
        self
    }

    /// Sleeps `latency` before one job out of every `every` (0
    /// disables) — simulates a slow worker without touching results.
    pub fn latency_every(mut self, every: u64, latency: Duration) -> Self {
        self.latency_every = every;
        self.latency = latency;
        self
    }

    /// Severs the client connection instead of completing one response
    /// write out of every `every` (0 disables). Only the TCP front end
    /// observes this fault.
    ///
    /// # Panics
    ///
    /// Panics if `every == 1`: every response would be severed, so no
    /// client could ever make progress.
    pub fn drop_every(mut self, every: u64) -> Self {
        assert!(every != 1, "drop_every(1) severs every response forever");
        self.drop_every = every;
        self
    }

    /// `true` when no fault kind is enabled.
    pub fn is_empty(&self) -> bool {
        self.panic_every == 0 && self.latency_every == 0 && self.drop_every == 0
    }
}

/// What the injector decided for one job (see
/// [`FaultInjector::next_job`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobFaults {
    /// The worker must panic instead of running the pipeline.
    pub panic: bool,
    /// The worker must sleep this long before running the pipeline.
    pub latency: Option<Duration>,
}

/// How many faults a [`FaultInjector`] actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Worker panics injected.
    pub panics: u64,
    /// Latency injections.
    pub latencies: u64,
    /// Connections severed mid-response.
    pub drops: u64,
}

/// A materialised [`FaultPlan`]: shared atomic counters assign each
/// dequeued job and each response write a position in its fault cycle,
/// so the *set* of faulted positions is a pure function of the plan.
pub struct FaultInjector {
    plan: FaultPlan,
    jobs: AtomicU64,
    writes: AtomicU64,
    panics: AtomicU64,
    latencies: AtomicU64,
    drops: AtomicU64,
}

impl FaultInjector {
    /// Materialises `plan` with zeroed counters.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            jobs: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            latencies: AtomicU64::new(0),
            drops: AtomicU64::new(0),
        }
    }

    /// Whether position `pos` of the stream hashed as `stream` faults:
    /// one position per cycle of `every` does, and the seed picks which.
    fn fires(&self, stream: u64, every: u64, pos: u64) -> bool {
        every > 0 && pos % every == splitmix64(self.plan.seed ^ stream) % every
    }

    /// The fault decision for the next dequeued job.
    pub fn next_job(&self) -> JobFaults {
        let pos = self.jobs.fetch_add(1, Ordering::Relaxed);
        let panic = self.fires(1, self.plan.panic_every, pos);
        let latency = self
            .fires(2, self.plan.latency_every, pos)
            .then_some(self.plan.latency);
        if panic {
            self.panics.fetch_add(1, Ordering::Relaxed);
        }
        if latency.is_some() {
            self.latencies.fetch_add(1, Ordering::Relaxed);
        }
        JobFaults { panic, latency }
    }

    /// Whether the next response write must sever the connection
    /// instead of completing.
    pub fn next_write_drops(&self) -> bool {
        let pos = self.writes.fetch_add(1, Ordering::Relaxed);
        let drop = self.fires(3, self.plan.drop_every, pos);
        if drop {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
        drop
    }

    /// Counts of the faults injected so far.
    pub fn report(&self) -> FaultReport {
        FaultReport {
            panics: self.panics.load(Ordering::Relaxed),
            latencies: self.latencies.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plans_never_fault() {
        let inj = FaultInjector::new(FaultPlan::new());
        for _ in 0..100 {
            assert_eq!(inj.next_job(), JobFaults::default());
            assert!(!inj.next_write_drops());
        }
        assert_eq!(inj.report(), FaultReport::default());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn fault_rates_match_the_plan() {
        let plan = FaultPlan::new()
            .seed(42)
            .panic_every(5)
            .latency_every(4, Duration::from_millis(1))
            .drop_every(10);
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(plan);
        for _ in 0..100 {
            inj.next_job();
        }
        for _ in 0..100 {
            inj.next_write_drops();
        }
        let r = inj.report();
        assert_eq!(r.panics, 20, "one panic per cycle of 5 over 100 jobs");
        assert_eq!(r.latencies, 25);
        assert_eq!(r.drops, 10);
    }

    #[test]
    fn the_same_seed_faults_the_same_positions() {
        let plan = |seed| FaultPlan::new().seed(seed).panic_every(3);
        let pattern = |seed| {
            let inj = FaultInjector::new(plan(seed));
            (0..30).map(|_| inj.next_job().panic).collect::<Vec<_>>()
        };
        assert_eq!(pattern(7), pattern(7));
        // Different seeds shift the phase (3 possible phases; seeds 0..3
        // cannot all collide with seed 7's phase).
        assert!((0..3).any(|s| pattern(s) != pattern(7)));
    }

    #[test]
    #[should_panic(expected = "every attempt forever")]
    fn panic_every_one_is_rejected() {
        let _ = FaultPlan::new().panic_every(1);
    }
}
