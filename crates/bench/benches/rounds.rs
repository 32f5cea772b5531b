//! Spill-then-reanalyse round cost: `LH` pipelines over the largest
//! `jit-large` methods, where re-analysis weighs most in the loop.

use criterion::{criterion_group, criterion_main, Criterion};
use lra_bench::suites;
use lra_core::driver::AllocationPipeline;
use lra_core::pipeline::{build_instance, InstanceKind};
use lra_ir::Function;
use lra_targets::{Target, TargetKind};

/// The largest jit-large methods — the densest spill loops.
fn largest_functions(count: usize) -> Vec<Function> {
    let mut fs = suites::jit_large_functions(2013);
    fs.sort_by_key(|f| std::cmp::Reverse(f.value_count));
    fs.truncate(count);
    fs
}

/// Peak resident estimate of the heaviest first-round instance: the
/// packed adjacency matrix plus the weight vector. Re-analysis rounds
/// shrink the function's pressure, so the first round's instance bounds
/// the loop's allocation footprint.
fn peak_instance_bytes(fs: &[Function], target: &Target) -> u64 {
    fs.iter()
        .map(|f| {
            let inst = build_instance(f, target, InstanceKind::PreciseGraph);
            let weights = std::mem::size_of_val(inst.weighted_graph().weights());
            (inst.graph().resident_bytes() + weights) as u64
        })
        .max()
        .unwrap_or(0)
}

fn bench_rounds(c: &mut Criterion) {
    let fs = largest_functions(4);
    let target = Target::new(TargetKind::ArmCortexA8);
    let mut group = c.benchmark_group("pipeline_rounds");
    group.sample_size(10);
    group.metric("bytes_per_instance", peak_instance_bytes(&fs, &target));
    // LH (not Portfolio) so the result cache and exact tier don't
    // blur the round cost.
    let pipeline = AllocationPipeline::new(target)
        .allocator("LH")
        .instance_kind(InstanceKind::PreciseGraph)
        .registers(6)
        .max_rounds(4);
    group.bench_function("LH", |b| {
        b.iter(|| {
            for f in &fs {
                let report = pipeline.run(f).expect("LH accepts any graph");
                assert!(report.rounds >= 1);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_rounds);
criterion_main!(benches);
