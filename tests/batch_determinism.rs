//! Integration tests for the parallel [`BatchAllocator`] driver: the
//! batch path must produce byte-identical reports to the sequential
//! path on real suite corpora, handle degenerate batches, and surface
//! per-item failures without aborting the batch. The figures' cost
//! tables must be thread-count-invariant too, and equal the pipeline's
//! first round.

use lra::bench::{batchrun, suites};
use lra::core::batch;
use lra::core::pipeline::InstanceKind;
use lra::ir::genprog::{random_jit_function, random_ssa_function, JitConfig, SsaConfig};
use lra::targets::{Target, TargetKind};
use lra::{AllocationPipeline, BatchAllocator, PipelineError};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;

/// Serialises the tests that flip the process-global
/// [`batch::set_default_threads`] knob: the test harness runs tests
/// concurrently, and an interleaved override would make the
/// thread-count-invariance comparisons vacuous (both sides running at
/// the same worker count).
static THREADS_KNOB: Mutex<()> = Mutex::new(());

fn ssa_corpus(n: u64, salt: u64) -> Vec<lra::ir::Function> {
    (0..n)
        .map(|k| {
            let mut rng = ChaCha8Rng::seed_from_u64(salt + k);
            let cfg = SsaConfig {
                target_instrs: 70,
                liveness_window: 10,
                ..SsaConfig::default()
            };
            random_ssa_function(&mut rng, &cfg, format!("f{k}"))
        })
        .collect()
}

/// Runs `name` from the standard CLI corpora at threads=1 and
/// threads=4 and asserts byte-identical reports — the exact corpora
/// CI's bench-smoke job diffs, so these tests cannot drift from what
/// ships.
fn assert_standard_experiment_deterministic(name_prefix: &str) {
    let exp = batchrun::standard_experiments(2013)
        .into_iter()
        .find(|e| e.name.starts_with(name_prefix))
        .unwrap_or_else(|| panic!("standard experiment {name_prefix}* exists"));
    let seq = exp.run(1);
    let par = exp.run(4);
    assert_eq!(seq.render(), par.render());
    assert_eq!(seq.summary, par.summary);
}

/// threads=1 and threads=4 must render byte-identical reports on the
/// random SSA suite corpus (lao-kernels), per the acceptance criteria.
#[test]
fn batch_is_deterministic_on_the_random_suite() {
    assert_standard_experiment_deterministic("lao-kernels/");
}

/// Same property on the non-chordal JVM98 corpus.
#[test]
fn batch_is_deterministic_on_jvm98() {
    assert_standard_experiment_deterministic("specjvm98/");
}

/// Same property on the large-method corpus under the escalating
/// portfolio policy — the standard configuration is fuel-only, so the
/// escalation outcomes are thread-count-invariant too.
#[test]
fn batch_is_deterministic_on_jit_large_under_the_portfolio() {
    assert_standard_experiment_deterministic("jit-large/");
}

/// Suite generation itself fans across the pool; the corpus must not
/// depend on the worker count.
#[test]
fn suite_generation_is_thread_count_invariant() {
    let _serial = THREADS_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    batch::set_default_threads(1);
    let a = suites::lao_kernels(5);
    batch::set_default_threads(4);
    let b = suites::lao_kernels(5);
    batch::set_default_threads(0);
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
fn empty_batch_is_a_clean_no_op() {
    let pipeline = AllocationPipeline::new(Target::new(TargetKind::St231));
    let report = BatchAllocator::new(pipeline).threads(4).run(&[]);
    assert_eq!(report.summary.functions, 0);
    assert_eq!(report.summary.succeeded, 0);
    assert_eq!(report.summary.failed, 0);
    assert!(report.items.is_empty());
    assert_eq!(report.summary.spill_cost_quartiles, None);
}

#[test]
fn single_function_batch_matches_direct_pipeline_run() {
    let f = &ssa_corpus(1, 40)[0];
    let pipeline = AllocationPipeline::new(Target::new(TargetKind::St231)).registers(4);
    let direct = pipeline.run(f).expect("BFPL on SSA");
    let report = BatchAllocator::new(pipeline)
        .threads(4)
        .run(std::slice::from_ref(f));
    assert_eq!(report.summary.functions, 1);
    let item = report.items[0].report().expect("batch item succeeded");
    assert_eq!(item.spill_cost, direct.spill_cost);
    assert_eq!(item.rounds, direct.rounds);
    assert_eq!(item.converged, direct.converged);
    assert_eq!(
        item.assignment.registers_used(),
        direct.assignment.registers_used()
    );
}

/// A function the pipeline rejects (non-chordal input under a
/// chordal-only allocator) surfaces as a per-item error; the rest of
/// the batch completes normally.
#[test]
fn failing_function_is_a_per_item_error_not_a_batch_abort() {
    let mut functions = ssa_corpus(3, 60);
    // Find a JIT method whose precise interference graph is actually
    // non-chordal (small random methods are occasionally chordal).
    let target = Target::new(TargetKind::St231);
    let intruder = (0..64u64)
        .find_map(|seed| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let f = random_jit_function(&mut rng, &JitConfig::default(), "jit::bad");
            let inst = lra::core::pipeline::build_instance(&f, &target, InstanceKind::PreciseGraph);
            (!inst.is_chordal()).then_some(f)
        })
        .expect("some JIT seed yields a non-chordal graph");
    functions.insert(1, intruder);
    let pipeline = AllocationPipeline::new(Target::new(TargetKind::St231))
        .allocator("BFPL")
        .registers(4);
    let report = BatchAllocator::new(pipeline).threads(2).run(&functions);
    assert_eq!(report.summary.functions, 4);
    assert_eq!(report.summary.failed, 1);
    assert_eq!(report.summary.succeeded, 3);
    assert!(matches!(
        report.items[1].outcome,
        Err(PipelineError::NeedsChordal(_))
    ));
    for i in [0usize, 2, 3] {
        assert!(report.items[i].outcome.is_ok(), "item {i} should succeed");
    }
    assert!(report.render().contains("error:"));
}

/// Non-converged pipeline runs are counted in the batch summary — the
/// per-report flag alone is easy to lose in a large corpus.
#[test]
fn non_converged_runs_surface_in_summary() {
    use lra::ir::builder::FunctionBuilder;
    // Wide single-use pressure point: cannot converge at R = 2.
    let mut b = FunctionBuilder::new("wide");
    let e = b.entry_block();
    let vs: Vec<_> = (0..7).map(|_| b.op(e, &[])).collect();
    b.op(e, &vs);
    let mut functions = vec![b.finish()];
    // A trivial function that converges immediately.
    let mut t = FunctionBuilder::new("tiny");
    let e = t.entry_block();
    let x = t.op(e, &[]);
    t.op(e, &[x]);
    functions.push(t.finish());

    let pipeline = AllocationPipeline::new(Target::new(TargetKind::St231)).registers(2);
    let report = BatchAllocator::new(pipeline).run(&functions);
    assert_eq!(report.summary.succeeded, 2);
    assert_eq!(report.summary.non_converged, 1);
    assert_eq!(report.summary.converged, 1);
    assert!(report.render().contains("converged 1 | non-converged 1"));
}

/// The figures' cost tables ride the same pool: a table computed at 1
/// and 4 workers must be identical.
#[test]
fn figure_runner_is_thread_count_invariant() {
    use lra::bench::experiments::cost_table;
    use lra::core::registry::CHORDAL_FIGURE_SET;
    let _serial = THREADS_KNOB.lock().unwrap_or_else(|e| e.into_inner());
    let ws: Vec<suites::Workload> = suites::lao_kernels(3).into_iter().take(6).collect();
    batch::set_default_threads(1);
    let a = cost_table(&ws, &CHORDAL_FIGURE_SET, &[2, 4]);
    batch::set_default_threads(4);
    let b = cost_table(&ws, &CHORDAL_FIGURE_SET, &[2, 4]);
    batch::set_default_threads(0);
    assert_eq!(a, b);
}

/// The figures solve the instances each suite prebuilt, without the
/// pipeline; every cost-table entry must still equal the shipped
/// pipeline's first-round spill cost on the same function. Checked on
/// the first two workloads of every suite, for every column of the
/// suite's figure set at two register counts.
#[test]
fn cost_tables_equal_the_pipelines_first_round() {
    use lra::bench::experiments::cost_table;
    use lra::bench::paper::{Suite, Suites};
    use lra::core::registry::{AllocatorRegistry, CHORDAL_FIGURE_SET, JVM_FIGURE_SET};
    let suites = Suites::new(2013);
    for suite in Suite::ALL {
        let (columns, rs): (&[&str], [u32; 2]) = match suite {
            Suite::Jvm => (&JVM_FIGURE_SET, [4, 6]),
            _ => (&CHORDAL_FIGURE_SET, [2, 4]),
        };
        for w in &suites.get(suite)[..2] {
            let table = cost_table(std::slice::from_ref(w), columns, &rs);
            let (_, costs) = &table.programs[0];
            for (c, &name) in table.columns.iter().enumerate() {
                let spec = AllocatorRegistry::spec(name).expect("registered");
                let view = if spec.needs_intervals {
                    InstanceKind::LinearIntervals
                } else {
                    w.kind
                };
                for (i, &r) in rs.iter().enumerate() {
                    let report = AllocationPipeline::new(w.target)
                        .allocator(name)
                        .instance_kind(view)
                        .registers(r)
                        .max_rounds(1)
                        .run(&w.ir)
                        .unwrap_or_else(|e| panic!("{name} on {}: {e}", w.function));
                    assert_eq!(
                        costs[c][i],
                        report.first_round_spill_cost(),
                        "{name} on {} at R = {r}",
                        w.function
                    );
                }
            }
        }
    }
}
