//! Central registry of every allocator in the workspace.
//!
//! The experiment runners, examples and the [`crate::driver`] pipeline
//! all select allocators **by name** through this registry, so the list
//! of available algorithms lives in exactly one place. Each entry
//! carries the metadata the callers need to drive the allocator
//! correctly: whether it requires the linearised-interval instance view
//! (the linear scans) and whether it requires a chordal interference
//! graph (the layered family built on Frank's algorithm).

use crate::baselines::{BeladyLinearScan, ChaitinBriggs, LinearScan};
use crate::cluster::LayeredHeuristic;
use crate::layered::Layered;
use crate::optimal::Optimal;
use crate::portfolio::{Portfolio, PortfolioConfig};
use crate::problem::Allocator;

/// Metadata and constructor for one registered allocator.
pub struct AllocatorSpec {
    /// Canonical short name (`NL`, `BFPL`, `Optimal`, …).
    pub name: &'static str,
    /// One-line description for help texts and the README table.
    pub description: &'static str,
    /// `true` if the allocator only works on instances that carry live
    /// intervals (built with
    /// [`crate::pipeline::InstanceKind::LinearIntervals`]).
    pub needs_intervals: bool,
    /// `true` if the allocator requires a chordal interference graph
    /// (a perfect elimination order) — the SSA guarantee.
    pub needs_chordal: bool,
    build: fn() -> Box<dyn Allocator>,
}

impl AllocatorSpec {
    /// Instantiates the allocator with its default configuration.
    pub fn build(&self) -> Box<dyn Allocator> {
        (self.build)()
    }

    /// The instance view this allocator should run on by default: the
    /// interval view when it demands intervals, the precise graph
    /// otherwise.
    pub fn default_kind(&self) -> crate::pipeline::InstanceKind {
        if self.needs_intervals {
            crate::pipeline::InstanceKind::LinearIntervals
        } else {
            crate::pipeline::InstanceKind::PreciseGraph
        }
    }
}

impl std::fmt::Debug for AllocatorSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllocatorSpec")
            .field("name", &self.name)
            .field("needs_intervals", &self.needs_intervals)
            .field("needs_chordal", &self.needs_chordal)
            .finish()
    }
}

/// The static allocator table — one row per algorithm of the paper.
static SPECS: &[AllocatorSpec] = &[
    AllocatorSpec {
        name: "NL",
        description: "naive layered allocation (Algorithm 2)",
        needs_intervals: false,
        needs_chordal: true,
        build: || Box::new(Layered::nl()),
    },
    AllocatorSpec {
        name: "BL",
        description: "layered with biased weights (§4.1)",
        needs_intervals: false,
        needs_chordal: true,
        build: || Box::new(Layered::bl()),
    },
    AllocatorSpec {
        name: "FPL",
        description: "layered iterated to a fixed point (§4.2)",
        needs_intervals: false,
        needs_chordal: true,
        build: || Box::new(Layered::fpl()),
    },
    AllocatorSpec {
        name: "BFPL",
        description: "biased fixed-point layered (§4.1 + §4.2)",
        needs_intervals: false,
        needs_chordal: true,
        build: || Box::new(Layered::bfpl()),
    },
    AllocatorSpec {
        name: "LH",
        description: "clustered layered heuristic for general graphs (§5)",
        needs_intervals: false,
        needs_chordal: false,
        build: || Box::new(LayeredHeuristic::new()),
    },
    AllocatorSpec {
        name: "GC",
        description: "Chaitin–Briggs optimistic graph colouring baseline",
        needs_intervals: false,
        needs_chordal: false,
        build: || Box::new(ChaitinBriggs::new()),
    },
    AllocatorSpec {
        name: "DLS",
        description: "JIT-style linear scan over live intervals",
        needs_intervals: true,
        needs_chordal: false,
        build: || Box::new(LinearScan::new()),
    },
    AllocatorSpec {
        name: "BLS",
        description: "Belady (furthest-use) linear scan over live intervals",
        needs_intervals: true,
        needs_chordal: false,
        build: || Box::new(BeladyLinearScan::new()),
    },
    AllocatorSpec {
        name: "Optimal",
        description: "certified exact solver (flow / clique-tree DP / branch-and-bound)",
        needs_intervals: false,
        needs_chordal: false,
        build: || Box::new(Optimal),
    },
    AllocatorSpec {
        name: "Portfolio",
        description: "LH first, exact escalation under a work budget (portfolio policy)",
        needs_intervals: false,
        needs_chordal: false,
        build: || Box::new(Portfolio::new(PortfolioConfig::default()).expect("LH is registered")),
    },
];

/// The chordal-suite figure columns (Figures 8–13), in the paper's
/// column order.
pub const CHORDAL_FIGURE_SET: [&str; 6] = ["GC", "NL", "FPL", "BL", "BFPL", "Optimal"];

/// The JIT/JVM figure columns (Figures 14–15), in the paper's order.
pub const JVM_FIGURE_SET: [&str; 5] = ["DLS", "BLS", "GC", "LH", "Optimal"];

/// Name-based lookup over the allocator table.
pub struct AllocatorRegistry;

impl AllocatorRegistry {
    /// All registered specs, in table order.
    pub fn specs() -> &'static [AllocatorSpec] {
        SPECS
    }

    /// The registered names, in table order.
    pub fn names() -> Vec<&'static str> {
        SPECS.iter().map(|s| s.name).collect()
    }

    /// Looks up a spec by name (case-insensitive).
    pub fn spec(name: &str) -> Option<&'static AllocatorSpec> {
        SPECS.iter().find(|s| s.name.eq_ignore_ascii_case(name))
    }

    /// Instantiates an allocator by name (case-insensitive).
    pub fn get(name: &str) -> Option<Box<dyn Allocator>> {
        Self::spec(name).map(|s| s.build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_agrees_with_its_allocator() {
        for spec in AllocatorRegistry::specs() {
            let a = spec.build();
            assert_eq!(a.name(), spec.name, "registry name mismatch");
            assert!(AllocatorRegistry::get(spec.name).is_some());
        }
    }

    #[test]
    fn lookup_is_case_insensitive_and_total() {
        assert!(AllocatorRegistry::get("bfpl").is_some());
        assert!(AllocatorRegistry::get("OPTIMAL").is_some());
        assert!(AllocatorRegistry::get("nope").is_none());
    }

    #[test]
    fn figure_sets_are_subsets_of_the_registry() {
        for name in CHORDAL_FIGURE_SET.iter().chain(JVM_FIGURE_SET.iter()) {
            assert!(
                AllocatorRegistry::spec(name).is_some(),
                "figure column {name} missing from registry"
            );
        }
    }

    #[test]
    fn interval_requirements_marked() {
        assert!(AllocatorRegistry::spec("DLS").unwrap().needs_intervals);
        assert!(AllocatorRegistry::spec("BLS").unwrap().needs_intervals);
        assert!(!AllocatorRegistry::spec("GC").unwrap().needs_intervals);
        assert!(AllocatorRegistry::spec("NL").unwrap().needs_chordal);
        assert!(!AllocatorRegistry::spec("LH").unwrap().needs_chordal);
    }
}
