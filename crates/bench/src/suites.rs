//! Simulated benchmark suites.
//!
//! Each suite mirrors the benchmark set the paper evaluates on, with
//! per-program seeded generators shaped to the suite's character:
//!
//! * [`spec2000int`] — 12 general-purpose integer applications
//!   (moderate loops, larger functions, calls) on ST231,
//! * [`eembc`] — 16 embedded kernels (small, loop-dominated) on ST231,
//! * [`lao_kernels`] — 12 very small STMicroelectronics kernels on
//!   ARMv7 (the paper notes these are "small benchmarks" that amplify
//!   bad allocation choices),
//! * [`specjvm98`] — 9 Java benchmarks compiled non-SSA (JikesRVM),
//!   giving non-chordal interference graphs; each workload carries
//!   *both* the precise graph instance (for `GC`/`LH`/`Optimal`) and
//!   the linearised interval instance (for the linear scans),
//! * [`jit_large`] — a server-class JIT corpus *beyond* the paper's
//!   evaluation: non-SSA methods up to ~200 temporaries with dense
//!   branching and irreducible-ish control flow (back edges to
//!   non-dominators). At this size the exact branch-and-bound baseline
//!   is no longer reliably tractable, which is exactly the workload
//!   the budgeted `Portfolio` policy exists for.
//!
//! The SSA suites use linearised-interval instances, so the interference
//! graphs are interval graphs (a subclass of the chordal graphs SSA
//! guarantees) and the exact optimum is available at any scale via
//! min-cost flow — this is the substitution for the paper's ILP.

use lra_core::batch;
use lra_core::pipeline::{build_instance, InstanceKind};
use lra_core::problem::Instance;
use lra_ir::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
use lra_targets::{Target, TargetKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One function-level allocation problem, tagged with its suite and
/// program (benchmark application) names.
///
/// A workload carries both the raw IR function (for the SSA-conversion
/// study, and for driving the full [`lra_core::AllocationPipeline`] on
/// it) and the prebuilt instances, which the figures' cost tables, the
/// inclusion study and the suite-shape stats solve or measure.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Suite identifier (`spec2000int`, `eembc`, …).
    pub suite: &'static str,
    /// Program (application/benchmark) this function belongs to.
    pub program: &'static str,
    /// Function name.
    pub function: String,
    /// The generated IR function the instances were built from.
    pub ir: lra_ir::Function,
    /// Cost-model target of this suite.
    pub target: Target,
    /// How [`Workload::instance`] was built from [`Workload::ir`].
    pub kind: InstanceKind,
    /// The allocation instance the graph-based allocators solve.
    pub instance: Instance,
    /// Interval view for the linear-scan baselines (JVM suite only; the
    /// SSA suites already use interval instances).
    pub interval_instance: Option<Instance>,
}

impl Workload {
    /// The instance the linear scans should run on.
    pub fn linear_scan_instance(&self) -> &Instance {
        self.interval_instance.as_ref().unwrap_or(&self.instance)
    }
}

/// Names of the 12 SPEC CPU2000int applications.
pub const SPEC2000INT_PROGRAMS: [&str; 12] = [
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "eon", "perlbmk", "gap", "vortex", "bzip2",
    "twolf",
];

/// Names of the 16 EEMBC kernels used.
pub const EEMBC_PROGRAMS: [&str; 16] = [
    "a2time", "aifftr", "aifirf", "aiifft", "basefp", "bitmnp", "cacheb", "canrdr", "idctrn",
    "iirflt", "matrix", "pntrch", "puwmod", "rspeed", "tblook", "ttsprk",
];

/// Names of the 12 lao-kernels.
pub const LAO_KERNELS_PROGRAMS: [&str; 12] = [
    "autcor", "bitonic", "dbuffer", "divider", "fir", "floydall", "huffman", "latanal", "lmsfir",
    "maxindex", "polysyn", "sads",
];

/// The 9 SPEC JVM98 benchmarks of Figure 15, in the paper's order.
pub const SPECJVM98_PROGRAMS: [&str; 9] = [
    "check",
    "compress",
    "jess",
    "raytrace",
    "db",
    "javac",
    "mpegaudio",
    "mtrt",
    "jack",
];

/// The 9 simulated server-class applications of the [`jit_large`]
/// corpus (SPECjvm2008-flavoured names, since the paper's JVM98 set is
/// taken by the small-method suite).
pub const JIT_LARGE_PROGRAMS: [&str; 9] = [
    "compiler",
    "crypto",
    "derby",
    "scimark",
    "serial",
    "sunflow",
    "xml",
    "montecarlo",
    "batik",
];

fn mix(seed: u64, salt: &str, k: u64) -> ChaCha8Rng {
    // Cheap, stable string hash for per-program sub-seeds.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for b in salt.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x1000_0000_01b3);
    }
    ChaCha8Rng::seed_from_u64(h.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Generates the `programs × per_program` entries of one suite
/// (workloads, or bare functions for the corpus-only callers) on the
/// [`lra_core::batch`] worker pool. Every entry is produced from its
/// own [`mix`]-seeded RNG (seeding stays per-function), so the
/// parallel sweep is byte-identical to the old sequential loop —
/// `parallel_map` returns results in key order.
fn generate_suite<T: Send>(
    programs: &'static [&'static str],
    per_program: u64,
    gen: impl Fn(&'static str, u64) -> T + Sync,
) -> Vec<T> {
    let keys: Vec<(&'static str, u64)> = programs
        .iter()
        .flat_map(|&p| (0..per_program).map(move |k| (p, k)))
        .collect();
    batch::parallel_map(&keys, batch::default_threads(), |_, &(p, k)| gen(p, k))
}

/// SPEC CPU2000int on ST231: larger mixed functions with calls and
/// moderate loop nesting.
pub fn spec2000int(seed: u64) -> Vec<Workload> {
    let target = Target::new(TargetKind::St231);
    generate_suite(&SPEC2000INT_PROGRAMS, 5, |program, k| {
        let mut rng = mix(seed, program, k);
        let cfg = SsaConfig {
            target_instrs: rng.gen_range(140..=360),
            max_loop_depth: 3,
            branch_percent: 22,
            loop_percent: 10,
            call_percent: 7,
            copy_percent: 0,
            params: rng.gen_range(2..=6),
            liveness_window: rng.gen_range(16..=40),
        };
        let f = random_ssa_function(&mut rng, &cfg, format!("{program}::f{k}"));
        let instance = build_instance(&f, &target, InstanceKind::LinearIntervals);
        Workload {
            suite: "spec2000int",
            program,
            function: f.name.clone(),
            ir: f,
            target,
            kind: InstanceKind::LinearIntervals,
            instance,
            interval_instance: None,
        }
    })
}

/// EEMBC on ST231: small, loop-dominated embedded kernels.
pub fn eembc(seed: u64) -> Vec<Workload> {
    let target = Target::new(TargetKind::St231);
    generate_suite(&EEMBC_PROGRAMS, 3, |program, k| {
        let mut rng = mix(seed, program, k);
        let cfg = SsaConfig {
            target_instrs: rng.gen_range(60..=160),
            max_loop_depth: 3,
            branch_percent: 12,
            loop_percent: 20,
            call_percent: 2,
            copy_percent: 0,
            params: rng.gen_range(2..=4),
            liveness_window: rng.gen_range(10..=26),
        };
        let f = random_ssa_function(&mut rng, &cfg, format!("{program}::k{k}"));
        let instance = build_instance(&f, &target, InstanceKind::LinearIntervals);
        Workload {
            suite: "eembc",
            program,
            function: f.name.clone(),
            ir: f,
            target,
            kind: InstanceKind::LinearIntervals,
            instance,
            interval_instance: None,
        }
    })
}

/// The IR generator behind [`lao_kernels`] and
/// [`lao_kernel_functions`] — one function per `(program, k)` key.
fn lao_kernel_ir(seed: u64, program: &'static str, k: u64) -> lra_ir::Function {
    let mut rng = mix(seed, program, k);
    let cfg = SsaConfig {
        target_instrs: rng.gen_range(35..=90),
        max_loop_depth: 2,
        branch_percent: 10,
        loop_percent: 24,
        call_percent: 1,
        copy_percent: 0,
        params: rng.gen_range(2..=4),
        liveness_window: rng.gen_range(8..=20),
    };
    random_ssa_function(&mut rng, &cfg, format!("{program}::k{k}"))
}

/// lao-kernels on ARMv7: very small kernels where a single bad
/// allocation choice dominates the program cost.
pub fn lao_kernels(seed: u64) -> Vec<Workload> {
    let target = Target::new(TargetKind::ArmCortexA8);
    generate_suite(&LAO_KERNELS_PROGRAMS, 2, |program, k| {
        let f = lao_kernel_ir(seed, program, k);
        let instance = build_instance(&f, &target, InstanceKind::LinearIntervals);
        Workload {
            suite: "lao-kernels",
            program,
            function: f.name.clone(),
            ir: f,
            target,
            kind: InstanceKind::LinearIntervals,
            instance,
            interval_instance: None,
        }
    })
}

/// The raw lao-kernels functions for corpus-level callers (the batch
/// CLI, the splitting study). Skips [`build_instance`] entirely — the
/// pipeline rebuilds instances per round anyway.
pub fn lao_kernel_functions(seed: u64) -> Vec<lra_ir::Function> {
    generate_suite(&LAO_KERNELS_PROGRAMS, 2, |program, k| {
        lao_kernel_ir(seed, program, k)
    })
}

/// The raw SPEC JVM98 methods for corpus-level callers (the batch
/// CLI, the SSA-conversion study). Skips both [`build_instance`]
/// views the full [`specjvm98`] workloads carry.
pub fn specjvm98_functions(seed: u64) -> Vec<lra_ir::Function> {
    generate_suite(&SPECJVM98_PROGRAMS, 6, |program, k| {
        specjvm98_ir(seed, program, k)
    })
}

/// The IR generator behind [`specjvm98`] and [`specjvm98_functions`]
/// — one non-SSA method per `(program, k)` key.
fn specjvm98_ir(seed: u64, program: &'static str, k: u64) -> lra_ir::Function {
    let mut rng = mix(seed, program, k);
    let cfg = JitConfig {
        vars: rng.gen_range(16..=30),
        blocks: rng.gen_range(7..=14),
        instrs_per_block: rng.gen_range(4..=8),
        cross_percent: 35,
        back_percent: 25,
        call_percent: 8,
    };
    random_jit_function(&mut rng, &cfg, format!("{program}::m{k}"))
}

/// SPEC JVM98 through a JikesRVM-style non-SSA JIT: non-chordal precise
/// graphs plus interval views for the linear scans.
///
/// Method sizes are kept JVM-typical (≲ 35 temporaries) so the exact
/// branch-and-bound baseline terminates quickly.
pub fn specjvm98(seed: u64) -> Vec<Workload> {
    let target = Target::new(TargetKind::ArmCortexA8); // JITs target small register files
    generate_suite(&SPECJVM98_PROGRAMS, 6, |program, k| {
        let f = specjvm98_ir(seed, program, k);
        let instance = build_instance(&f, &target, InstanceKind::PreciseGraph);
        let interval_instance = build_instance(&f, &target, InstanceKind::LinearIntervals);
        Workload {
            suite: "specjvm98",
            program,
            function: f.name.clone(),
            ir: f,
            target,
            kind: InstanceKind::PreciseGraph,
            instance,
            interval_instance: Some(interval_instance),
        }
    })
}

/// The IR generator behind [`jit_large`] and [`jit_large_functions`]
/// — one non-SSA method per `(program, k)` key. Method sizes follow a
/// JIT-realistic skew — mostly small methods, a fat tail reaching ~200
/// temporaries (far past the ~35-temporary cap the JVM98 suite keeps
/// for exact-baseline tractability). The mix is what exercises every
/// portfolio outcome: small methods certify inside the budget, the
/// tail exhausts it. Block counts scale with the variable count so the
/// temporaries actually get defined, and the forward- and back-edge
/// densities are well above the JVM98 suite's, which yields dense,
/// frequently irreducible flow graphs.
fn jit_large_ir(seed: u64, program: &'static str, k: u64) -> lra_ir::Function {
    // `100 + k` keeps this sub-seed stream disjoint from the JVM98
    // generator for programs both suites might one day share.
    let mut rng = mix(seed, program, 100 + k);
    let size_class = rng.gen_range(0..100);
    let vars = if size_class < 50 {
        rng.gen_range(24..=60) // typical bytecode method
    } else if size_class < 80 {
        rng.gen_range(60..=120) // hot inlined region
    } else {
        rng.gen_range(120..=200) // interpreter-loop-sized monster
    };
    let cfg = JitConfig {
        vars,
        blocks: (vars / 6).max(10),
        instrs_per_block: rng.gen_range(6..=9),
        cross_percent: 55,
        back_percent: 40,
        call_percent: 6,
    };
    random_jit_function(&mut rng, &cfg, format!("{program}::m{k}"))
}

/// The large non-SSA JIT corpus: server-class methods up to ~200
/// temporaries with non-chordal precise graphs plus interval views,
/// on the ARM JIT target. The workload class the `Portfolio` policy
/// (cheap allocator first, exact solver only under a work budget) is
/// designed for — unlike [`specjvm98`], an *unbudgeted* exact sweep
/// over this suite is not guaranteed to terminate in reasonable time.
pub fn jit_large(seed: u64) -> Vec<Workload> {
    let target = Target::new(TargetKind::ArmCortexA8);
    generate_suite(&JIT_LARGE_PROGRAMS, 3, |program, k| {
        let f = jit_large_ir(seed, program, k);
        let instance = build_instance(&f, &target, InstanceKind::PreciseGraph);
        let interval_instance = build_instance(&f, &target, InstanceKind::LinearIntervals);
        Workload {
            suite: "jit-large",
            program,
            function: f.name.clone(),
            ir: f,
            target,
            kind: InstanceKind::PreciseGraph,
            instance,
            interval_instance: Some(interval_instance),
        }
    })
}

/// The raw [`jit_large`] methods for corpus-level callers (the batch
/// CLI). Skips [`build_instance`] — the pipeline rebuilds instances
/// per round anyway.
pub fn jit_large_functions(seed: u64) -> Vec<lra_ir::Function> {
    generate_suite(&JIT_LARGE_PROGRAMS, 3, |program, k| {
        jit_large_ir(seed, program, k)
    })
}

/// Methods per program in the [`jit_huge_functions`] corpus
/// (9 programs × 56 = 504 functions).
pub const JIT_HUGE_PER_PROGRAM: u64 = 56;

/// The IR generator behind [`jit_huge_functions`] — one non-SSA
/// method per `(program, k)` key. Same JIT-realistic size skew as
/// [`jit_large`] (mostly small methods, a fat tail) but with the
/// classes shifted down so a 500-method sweep stays cheap enough to
/// repeat at several thread counts: the corpus is built to measure
/// *scheduling* (per-item cost variance, queue churn, scratch reuse),
/// not per-method solver depth.
fn jit_huge_ir(seed: u64, program: &'static str, k: u64) -> lra_ir::Function {
    // `1000 + k` keeps this sub-seed stream disjoint from both the
    // JVM98 (`k`) and jit-large (`100 + k`) generators, which share
    // program names.
    let mut rng = mix(seed, program, 1000 + k);
    let size_class = rng.gen_range(0..100);
    let vars = if size_class < 70 {
        rng.gen_range(10..=28) // typical bytecode method
    } else if size_class < 95 {
        rng.gen_range(28..=60) // hot inlined region
    } else {
        rng.gen_range(60..=110) // occasional monster
    };
    let cfg = JitConfig {
        vars,
        blocks: (vars / 6).max(6),
        instrs_per_block: rng.gen_range(4..=7),
        cross_percent: 50,
        back_percent: 35,
        call_percent: 5,
    };
    random_jit_function(&mut rng, &cfg, format!("{program}::h{k}"))
}

/// The scaling corpus: 504 seeded non-SSA JIT methods
/// ([`JIT_HUGE_PER_PROGRAM`] per [`JIT_LARGE_PROGRAMS`] entry) with
/// the `jit_huge_ir` size skew. Large enough that worker-pool
/// overheads (queue contention, per-function buffer churn) dominate
/// any fixed setup cost — the corpus the thread-scaling rows of
/// `BENCH_batch.json` are recorded on.
pub fn jit_huge_functions(seed: u64) -> Vec<lra_ir::Function> {
    generate_suite(&JIT_LARGE_PROGRAMS, JIT_HUGE_PER_PROGRAM, |program, k| {
        jit_huge_ir(seed, program, k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssa_suites_are_chordal_with_intervals() {
        for w in spec2000int(1).iter().take(6) {
            assert!(w.instance.is_chordal());
            assert!(w.instance.intervals().is_some());
        }
        for w in eembc(1).iter().take(6) {
            assert!(w.instance.is_chordal());
        }
        for w in lao_kernels(1).iter().take(6) {
            assert!(w.instance.is_chordal());
        }
    }

    #[test]
    fn suites_are_deterministic() {
        let a = lao_kernels(7);
        let b = lao_kernels(7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.function, y.function);
            assert_eq!(
                x.instance.weighted_graph().weights(),
                y.instance.weighted_graph().weights()
            );
            assert_eq!(
                x.instance.graph().edge_count(),
                y.instance.graph().edge_count()
            );
        }
    }

    #[test]
    fn suite_sizes_match_program_lists() {
        assert_eq!(spec2000int(1).len(), 12 * 5);
        assert_eq!(eembc(1).len(), 16 * 3);
        assert_eq!(lao_kernels(1).len(), 12 * 2);
        assert_eq!(specjvm98(1).len(), 9 * 6);
    }

    #[test]
    fn spec_pressure_is_high_enough_to_spill() {
        // The R-sweep only makes sense if functions actually overflow
        // mid-range register counts.
        let pressures: Vec<usize> = spec2000int(1)
            .iter()
            .map(|w| w.instance.max_live())
            .collect();
        let peak = pressures.iter().copied().max().expect("non-empty suite");
        let mean = pressures.iter().sum::<usize>() as f64 / pressures.len() as f64;
        assert!(peak > 16, "peak MaxLive {peak} too low");
        assert!(mean > 6.0, "mean MaxLive {mean:.1} too low");
    }

    #[test]
    fn jit_large_methods_are_big_dense_and_mostly_non_chordal() {
        let ws = jit_large(1);
        assert_eq!(ws.len(), 9 * 3);
        let max_vars = ws.iter().map(|w| w.instance.vertex_count()).max();
        let max_vars = max_vars.expect("non-empty");
        assert!(
            max_vars >= 150,
            "corpus should reach ~200 temporaries (max {max_vars})"
        );
        assert!(max_vars > 35, "must exceed the JVM98 tractability cap");
        let chordal = ws.iter().filter(|w| w.instance.is_chordal()).count();
        assert!(
            chordal * 4 < ws.len(),
            "large JIT graphs should be overwhelmingly non-chordal ({chordal}/{})",
            ws.len()
        );
        for w in &ws {
            assert!(w.interval_instance.is_some());
            assert!(w.linear_scan_instance().intervals().is_some());
        }
    }

    #[test]
    fn jit_large_is_deterministic_and_seed_sensitive() {
        let a = jit_large_functions(7);
        let b = jit_large_functions(7);
        assert_eq!(a, b);
        let c = jit_large_functions(8);
        assert!(a != c, "different seeds should produce different corpora");
    }

    #[test]
    fn jit_huge_is_big_skewed_and_deterministic() {
        let fs = jit_huge_functions(5);
        assert!(fs.len() >= 500, "scaling corpus too small ({})", fs.len());
        assert_eq!(fs.len() as u64, 9 * JIT_HUGE_PER_PROGRAM);
        let mut sizes: Vec<u32> = fs.iter().map(|f| f.value_count).collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        let max = *sizes.last().unwrap();
        assert!(
            median <= 60,
            "bulk of the corpus should be small methods (median {median})"
        );
        assert!(
            max >= 60,
            "the skew needs a fat tail of big methods (max {max})"
        );
        assert_eq!(fs, jit_huge_functions(5), "must be seed-deterministic");
        assert!(fs != jit_huge_functions(6));
    }

    #[test]
    fn jvm_workloads_have_both_views() {
        let ws = specjvm98(1);
        let mut non_chordal = 0;
        for w in &ws {
            assert!(w.interval_instance.is_some());
            assert!(w.linear_scan_instance().intervals().is_some());
            if !w.instance.is_chordal() {
                non_chordal += 1;
            }
        }
        assert!(
            non_chordal * 2 > ws.len(),
            "most JVM graphs should be non-chordal ({non_chordal}/{})",
            ws.len()
        );
    }
}
