//! The portfolio allocation policy: cheap first, exact under budget.
//!
//! Small JIT methods are worth solving exactly — the paper's §6.2
//! keeps SPEC JVM98 methods under ~35 temporaries precisely so its
//! `Optimal` baseline stays tractable. A larger corpus (hundreds of
//! temporaries, non-chordal graphs) breaks that bargain: the exact
//! branch-and-bound search is unbounded in the worst case, while the
//! polynomial heuristics are always fast but leave spill cost on the
//! table for the methods that happen to be easy.
//!
//! [`Portfolio`] resolves the tension with a two-tier policy:
//!
//! 1. run a **cheap** allocator (any [`AllocatorRegistry`] name;
//!    `LH` by default since it accepts any graph);
//! 2. if the cheap result still spills *and* the configured budget
//!    permits, escalate to an exact solver: min-cost flow
//!    ([`flow::solve`]) on interval instances, and on every other one
//!    branch-and-bound ([`branch_bound::solve_from`]) under a
//!    deterministic node-fuel cap, with the cheap allocation as the
//!    search's incumbent;
//! 3. keep whichever allocation costs less. The exact search is
//!    anytime: when the budget runs out it still hands back the best
//!    allocation it found, and the policy keeps that one, uncertified,
//!    if it is strictly cheaper. An exhausted budget with nothing
//!    cheaper in hand, or a zero budget, keeps the cheap result — the
//!    policy never errors and never runs unbounded.
//!
//! # Fuel
//!
//! [`PortfolioConfig::node_budget`] is the one fuel setting: every
//! escalation gets the same `n` nodes, 2,500 by default (the fuel
//! frontier's pick, see [`PortfolioConfig::default`]), and `0` never
//! escalates. Branch-and-bound is the only solver that spends it: the
//! escalation runs no chordality test and no clique-tree DP, which
//! stays inside [`Optimal`](crate::optimal::Optimal)'s unbudgeted
//! path.
//!
//! # Determinism
//!
//! Every decision is a function of the instance and the node fuel
//! alone, so batch reports are byte-identical at any worker count — the
//! same contract the [`crate::batch`] driver ships under.
//!
//! # Example
//!
//! ```
//! use lra_core::portfolio::{Portfolio, PortfolioConfig};
//! use lra_core::problem::{Allocator, Instance};
//! use lra_graph::{Graph, WeightedGraph};
//!
//! // C5 is 3-chromatic: with 2 registers someone must spill.
//! let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
//! let inst = Instance::from_weighted_graph(WeightedGraph::new(c5, vec![5, 4, 3, 2, 1]));
//! let policy = Portfolio::new(PortfolioConfig::default()).unwrap();
//! let a = policy.allocate(&inst, 2);
//! assert_eq!(a.spill_cost, 1); // the exact tier certifies the optimum
//! ```

use crate::cache::{InstanceKey, ResultCache};
use crate::cluster::LayeredHeuristic;
use crate::driver::PipelineError;
use crate::optimal::{branch_bound, flow};
use crate::problem::{Allocation, Allocator, Instance};
use crate::registry::{AllocatorRegistry, AllocatorSpec};
use crate::trace::{self, ExactOutcome};
use std::sync::OnceLock;

/// Configuration for the [`Portfolio`] policy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// Registry name of the cheap first-tier allocator. Defaults to
    /// `LH`, which accepts any interference graph. If the named
    /// allocator cannot run on a given instance (it needs intervals or
    /// chordality the instance lacks), the policy substitutes `LH` for
    /// that instance instead of failing.
    pub cheap: String,
    /// Deterministic node fuel for each exact escalation: the
    /// branch-and-bound nodes it may visit. Counted, not timed, so it
    /// keeps the thread-count byte-identity contract. `0` disables
    /// escalation entirely.
    pub node_budget: u64,
    /// Memoize decisions in the process-wide [`portfolio_cache`]
    /// (default `true`): a batch re-submitting an identical method —
    /// or a spill loop reproducing an identical instance — skips both
    /// tiers entirely. Exact-keyed, so results are byte-identical with
    /// the cache on or off; disable only to measure raw solver time.
    pub cache: bool,
}

impl Default for PortfolioConfig {
    /// `LH` first, then exact escalation under 2,500 nodes of fuel,
    /// cache on.
    ///
    /// The fuel is the data's pick, not a guess: it is the smallest
    /// `lra-bench portfolio` fuel (50,000, 25,000, 12,500, 5,000 and
    /// 2,500 nodes) at which the seed-2013 final `total_spill_cost` of
    /// both `jit-large/Portfolio/R6` and `jit-huge/Portfolio/R6` is no
    /// higher than under the old 50,000-node pin without anytime search
    /// (`docs/benchmarks.md`, "Fuel frontier"). The exact tier keeps
    /// what an exhausted search found, and branch-and-bound branches on
    /// the most constrained vertex first, so most of the gain arrives
    /// early in the search: the pick was 5,000 under the static order.
    fn default() -> Self {
        PortfolioConfig {
            cheap: "LH".to_string(),
            node_budget: 2_500,
            cache: true,
        }
    }
}

impl PortfolioConfig {
    /// Selects the cheap first-tier allocator by registry name.
    pub fn cheap(mut self, name: impl Into<String>) -> Self {
        self.cheap = name.into();
        self
    }

    /// Sets the deterministic node fuel of each exact escalation.
    pub fn node_budget(mut self, nodes: u64) -> Self {
        self.node_budget = nodes;
        self
    }

    /// Enables or disables the process-wide result cache
    /// ([`portfolio_cache`]).
    pub fn cache(mut self, enabled: bool) -> Self {
        self.cache = enabled;
        self
    }
}

/// Entries the process-wide portfolio cache holds before clearing
/// wholesale. Sized for a large batch's worth of distinct methods ×
/// spill rounds; at ~200-temporary instances one entry is a few KiB.
pub const PORTFOLIO_CACHE_CAPACITY: usize = 1024;

/// The process-wide memo table behind [`PortfolioConfig::cache`]:
/// shared by every [`Portfolio`] in the process (the batch driver
/// builds one pipeline — and thus one policy — per function, so a
/// per-policy cache would never see the cross-function repeats the
/// ROADMAP's result-cache item targets). Exact-keyed on the full
/// instance plus every decision-relevant config knob, so sharing never
/// changes an output byte.
pub fn portfolio_cache() -> &'static ResultCache<PortfolioOutcome> {
    static CACHE: OnceLock<ResultCache<PortfolioOutcome>> = OnceLock::new();
    CACHE.get_or_init(|| ResultCache::new(PORTFOLIO_CACHE_CAPACITY))
}

/// Where a [`PortfolioOutcome`]'s final allocation came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortfolioSource {
    /// The cheap tier's result was kept (no escalation, an exhausted
    /// budget with nothing cheaper in hand, or an exact result that was
    /// no better).
    Cheap,
    /// The exact tier found a strictly cheaper allocation: a certified
    /// optimum, or — with [`PortfolioOutcome::certified`] `false` — the
    /// best allocation an exhausted search held.
    Exact,
}

/// The full decision record of one [`Portfolio::decide`] call — what
/// the cheap tier cost, whether the policy escalated, and whether the
/// exact solver finished inside the budget.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// The allocation the policy settled on.
    pub allocation: Allocation,
    /// Spill cost of the cheap tier's allocation.
    pub cheap_cost: lra_graph::Cost,
    /// `true` if the exact tier was attempted.
    pub escalated: bool,
    /// `true` if the exact tier ran to completion within the budget —
    /// the final allocation is then a certified optimum (whether or
    /// not it beat the cheap one). `false` with
    /// [`PortfolioSource::Exact`] means the budget ran out and the
    /// allocation is the cheaper one the search held, not proven
    /// optimal.
    pub certified: bool,
    /// Which tier produced [`PortfolioOutcome::allocation`].
    pub source: PortfolioSource,
}

/// The two-tier budget-bounded allocator. See the [module docs](self).
pub struct Portfolio {
    cfg: PortfolioConfig,
    cheap_spec: &'static AllocatorSpec,
    cheap: Box<dyn Allocator>,
    fallback: LayeredHeuristic,
}

impl std::fmt::Debug for Portfolio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Portfolio")
            .field("cfg", &self.cfg)
            .field("cheap", &self.cheap_spec.name)
            .finish()
    }
}

impl Portfolio {
    /// Builds the policy, resolving the cheap tier from the registry.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::UnknownAllocator`] if
    /// [`PortfolioConfig::cheap`] names no registered allocator.
    pub fn new(cfg: PortfolioConfig) -> Result<Self, PipelineError> {
        let cheap_spec = AllocatorRegistry::spec(&cfg.cheap)
            .ok_or_else(|| PipelineError::UnknownAllocator(cfg.cheap.clone()))?;
        Ok(Portfolio {
            cheap: cheap_spec.build(),
            cheap_spec,
            fallback: LayeredHeuristic::new(),
            cfg,
        })
    }

    /// The policy's configuration.
    pub fn config(&self) -> &PortfolioConfig {
        &self.cfg
    }

    /// The cheap tier for `instance`: the configured allocator when
    /// its structural requirements hold, `LH` otherwise.
    fn cheap_for(&self, instance: &Instance) -> &dyn Allocator {
        let unusable = (self.cheap_spec.needs_chordal && !instance.is_chordal())
            || (self.cheap_spec.needs_intervals && instance.intervals().is_none());
        if unusable {
            &self.fallback
        } else {
            self.cheap.as_ref()
        }
    }

    /// Runs the full policy and returns the decision record; see the
    /// [module docs](self) for the escalation rule. With
    /// [`PortfolioConfig::cache`] set, an instance already decided
    /// anywhere in the process under the same configuration returns
    /// its memoized (bit-identical) outcome without running either
    /// tier.
    pub fn decide(&self, instance: &Instance, r: u32) -> PortfolioOutcome {
        if !self.cfg.cache {
            return self.decide_uncached(instance, r);
        }
        let key = InstanceKey::new(instance, r, self.cheap_spec.name, self.cfg.node_budget);
        if let Some(hit) = portfolio_cache().get(&key) {
            return hit;
        }
        let outcome = self.decide_uncached(instance, r);
        portfolio_cache().insert(key, outcome.clone());
        outcome
    }

    fn decide_uncached(&self, instance: &Instance, r: u32) -> PortfolioOutcome {
        let cheap = self.cheap_for(instance).allocate(instance, r);
        let cheap_cost = cheap.spill_cost;
        let fuel = self.cfg.node_budget;
        if cheap_cost == 0 || fuel == 0 {
            return PortfolioOutcome {
                allocation: cheap,
                cheap_cost,
                escalated: false,
                certified: false,
                source: PortfolioSource::Cheap,
            };
        }
        // The fuel *granted* to the exact tier, recorded at the
        // escalation decision; branch-and-bound records what it
        // consumes.
        trace::add_fuel(fuel);
        let exact = match instance.intervals() {
            Some(_) => Some((flow::solve(instance, r), true)),
            None => branch_bound::solve_from(instance, r, fuel, &cheap),
        };
        let (allocation, certified, source, settled) = match exact {
            Some((exact, certified)) if exact.spill_cost < cheap_cost => {
                let settled = if certified {
                    ExactOutcome::Won
                } else {
                    ExactOutcome::Improved
                };
                (exact, certified, PortfolioSource::Exact, settled)
            }
            // The exact solver certified that the cheap result is
            // already optimal (or tied); keep the cheap allocation
            // so the outcome is independent of solver tie-breaks.
            Some((_, true)) => (cheap, true, PortfolioSource::Cheap, ExactOutcome::Tied),
            _ => (
                cheap,
                false,
                PortfolioSource::Cheap,
                ExactOutcome::Exhausted,
            ),
        };
        trace::add_exact_outcome(settled);
        PortfolioOutcome {
            allocation,
            cheap_cost,
            escalated: true,
            certified,
            source,
        }
    }
}

impl Allocator for Portfolio {
    fn name(&self) -> &'static str {
        "Portfolio"
    }

    fn allocate(&self, instance: &Instance, r: u32) -> Allocation {
        self.decide(instance, r).allocation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::{Graph, WeightedGraph};

    fn c5() -> Instance {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        Instance::from_weighted_graph(WeightedGraph::new(g, vec![5, 4, 3, 2, 1]))
    }

    #[test]
    fn unknown_cheap_allocator_is_an_error() {
        let err = Portfolio::new(PortfolioConfig::default().cheap("XXL")).unwrap_err();
        assert!(matches!(err, PipelineError::UnknownAllocator(_)));
    }

    #[test]
    fn escalation_certifies_the_optimum_within_budget() {
        let p = Portfolio::new(PortfolioConfig::default()).unwrap();
        let out = p.decide(&c5(), 2);
        assert!(out.escalated);
        assert!(out.certified);
        assert_eq!(out.allocation.spill_cost, 1);
        assert!(out.allocation.spill_cost <= out.cheap_cost);
    }

    #[test]
    fn zero_node_budget_degrades_to_the_cheap_tier() {
        let cheap_only = Portfolio::new(PortfolioConfig::default().node_budget(0)).unwrap();
        let out = cheap_only.decide(&c5(), 2);
        assert!(!out.escalated);
        assert_eq!(out.source, PortfolioSource::Cheap);
        // Byte-equal to running the cheap allocator directly.
        let direct = LayeredHeuristic::new().allocate(&c5(), 2);
        assert_eq!(out.allocation, direct);
    }

    #[test]
    fn tiny_fuel_keeps_the_cheap_result_without_erroring() {
        let p = Portfolio::new(PortfolioConfig::default().node_budget(1)).unwrap();
        let out = p.decide(&c5(), 2);
        assert!(out.escalated);
        assert!(!out.certified);
        assert_eq!(out.source, PortfolioSource::Cheap);
    }

    #[test]
    fn zero_spill_cheap_result_never_escalates() {
        // Edgeless graph: the cheap tier allocates everything.
        let inst = Instance::from_weighted_graph(WeightedGraph::new(Graph::empty(4), vec![1; 4]));
        let p = Portfolio::new(PortfolioConfig::default()).unwrap();
        let out = p.decide(&inst, 1);
        assert!(!out.escalated);
        assert_eq!(out.allocation.spill_cost, 0);
    }

    #[test]
    fn uncached_escalations_count_how_they_ended() {
        use lra_graph::generate;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        // C5 at one node (exhausted) and at plenty (won), and a dense
        // 40-vertex graph whose LH allocation the search improves on
        // long before it can finish (improved) or certifies (tied).
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = generate::random_general(&mut rng, 40, 40);
        let dense = Instance::from_weighted_graph(WeightedGraph::new(
            g,
            generate::random_weights(&mut rng, 40, 2),
        ));
        let mut seen = [0; 4];
        for (inst, r, fuel) in [
            (c5(), 2, 1),
            (c5(), 2, 1_000_000),
            (dense.clone(), 4, 2_000),
            (dense, 1, 1_000_000),
        ] {
            let cfg = PortfolioConfig::default().node_budget(fuel).cache(false);
            trace::begin(false);
            let out = Portfolio::new(cfg).unwrap().decide(&inst, r);
            let t = trace::take().expect("collecting");
            assert!(out.escalated && out.allocation.spill_cost <= out.cheap_cost);
            assert_eq!(t.fuel, fuel, "one escalation granted fuel");
            let counted = [
                t.exact_won,
                t.exact_tied,
                t.exact_improved,
                t.exact_exhausted,
            ];
            let ended = match (out.certified, out.source) {
                (true, PortfolioSource::Exact) => 0,
                (true, PortfolioSource::Cheap) => 1,
                (false, PortfolioSource::Exact) => 2,
                (false, PortfolioSource::Cheap) => 3,
            };
            let mut expected = [0; 4];
            expected[ended] = 1;
            assert_eq!(counted, expected, "fuel {fuel}, R = {r}");
            assert_eq!(
                out.source == PortfolioSource::Exact,
                out.allocation.spill_cost < out.cheap_cost
            );
            seen[ended] += 1;
        }
        assert_eq!(seen, [1; 4], "won, tied, improved, exhausted");
    }

    #[test]
    fn chordal_escalations_run_no_chordality_test_and_stay_within_fuel() {
        use lra_graph::generate;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        // A chordal instance without intervals goes straight to
        // branch-and-bound: no chordality test, no clique-tree DP, and
        // no more nodes than the fuel.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = generate::random_chordal(&mut rng, 60, 90, 6);
        let inst = Instance::from_weighted_graph(WeightedGraph::new(
            g,
            generate::random_weights(&mut rng, 60, 3),
        ));
        assert!(inst.intervals().is_none());
        let cfg = PortfolioConfig::default().cache(false);
        trace::begin(false);
        let out = Portfolio::new(cfg.clone()).unwrap().decide(&inst, 2);
        let t = trace::take().expect("collecting");
        assert!(out.escalated);
        assert_eq!(t.chordality_tests, 0);
        assert!(t.fuel_consumed > 0 && t.fuel_consumed <= cfg.node_budget);
        // Tested only now, so the trace above did not count it.
        assert!(inst.is_chordal());
    }

    #[test]
    fn chordal_only_cheap_tier_falls_back_on_general_graphs() {
        // BFPL needs a PEO; on the non-chordal C5 the policy must
        // substitute LH rather than panic.
        let p = Portfolio::new(PortfolioConfig::default().cheap("BFPL")).unwrap();
        let out = p.decide(&c5(), 2);
        assert!(out.allocation.spill_cost <= out.cheap_cost);
    }

    #[test]
    fn exact_tier_wins_when_the_cheap_tier_is_suboptimal() {
        use lra_graph::generate;
        use rand::SeedableRng;
        use rand_chacha::ChaCha8Rng;
        // Deterministic scan of small random general graphs for ones
        // where LH leaves cost on the table (the paper's Figure 14
        // guarantees they exist); the exact tier must take those.
        let p = Portfolio::new(PortfolioConfig::default().node_budget(1_000_000)).unwrap();
        let mut wins = 0;
        for seed in 0..100u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let g = generate::random_general(&mut rng, 12, 30);
            let w = generate::random_weights(&mut rng, 12, 2);
            let inst = Instance::from_weighted_graph(lra_graph::WeightedGraph::new(g, w));
            let out = p.decide(&inst, 2);
            assert!(out.allocation.spill_cost <= out.cheap_cost);
            if out.source == PortfolioSource::Exact {
                assert!(out.certified);
                assert!(out.allocation.spill_cost < out.cheap_cost);
                wins += 1;
            }
        }
        assert!(
            wins > 0,
            "no instance where the exact tier beat LH in 100 draws"
        );
    }

    fn outcomes_equal(a: &PortfolioOutcome, b: &PortfolioOutcome) -> bool {
        a.allocation == b.allocation
            && a.cheap_cost == b.cheap_cost
            && a.escalated == b.escalated
            && a.certified == b.certified
            && a.source == b.source
    }

    #[test]
    fn cached_decisions_are_byte_identical_to_fresh_ones() {
        // Unusual weights so no other test shares this cache entry.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let inst =
            Instance::from_weighted_graph(WeightedGraph::new(g, vec![7001, 7002, 7003, 7004, 1]));
        let cached = Portfolio::new(PortfolioConfig::default()).unwrap();
        let uncached = Portfolio::new(PortfolioConfig::default().cache(false)).unwrap();
        let first = cached.decide(&inst, 2);
        let second = cached.decide(&inst, 2); // memo hit
        let reference = uncached.decide(&inst, 2); // never touches the cache
        assert!(outcomes_equal(&first, &second));
        assert!(outcomes_equal(&first, &reference));
        assert!(!portfolio_cache().is_empty());
    }

    #[test]
    fn cache_hits_skip_resolving_repeated_instances() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mk = || Instance::from_weighted_graph(WeightedGraph::new(g.clone(), vec![9901; 4]));
        let p = Portfolio::new(PortfolioConfig::default()).unwrap();
        let _ = p.decide(&mk(), 1);
        let h0 = portfolio_cache().stats().hits;
        // Two independently built but identical instances: both must
        // hit the entry the first decide created.
        let _ = p.decide(&mk(), 1);
        let _ = p.decide(&mk(), 1);
        let h1 = portfolio_cache().stats().hits;
        assert!(h1 >= h0 + 2, "expected 2 more hits ({h0} -> {h1})");
    }

    #[test]
    fn different_budgets_never_share_cache_entries() {
        // Same instance, tiny vs default fuel: the tiny-fuel decision
        // (uncertified) must not be served to the default-fuel policy.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let mk = || {
            Instance::from_weighted_graph(WeightedGraph::new(
                g.clone(),
                vec![8101, 8102, 8103, 8104, 1],
            ))
        };
        let tiny = Portfolio::new(PortfolioConfig::default().node_budget(1)).unwrap();
        let full = Portfolio::new(PortfolioConfig::default()).unwrap();
        let t = tiny.decide(&mk(), 2);
        let f = full.decide(&mk(), 2);
        assert!(!t.certified);
        assert!(f.certified);
        assert_eq!(f.allocation.spill_cost, 1);
    }

    #[test]
    fn portfolio_is_registered() {
        assert!(AllocatorRegistry::get("Portfolio").is_some());
        assert!(AllocatorRegistry::get("portfolio").is_some());
    }
}
