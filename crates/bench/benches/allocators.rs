//! Throughput of each allocator on representative instances.
//!
//! The paper positions layered allocation as cheap enough for JIT use
//! (linear scan territory) while matching ILP quality; this bench backs
//! the "fast" half of the claim.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lra_core::baselines::{BeladyLinearScan, ChaitinBriggs, LinearScan};
use lra_core::layered::Layered;
use lra_core::optimal::{branch_bound, SolveBudget};
use lra_core::problem::{Allocator, Instance};
use lra_core::{LayeredHeuristic, Optimal};
use lra_graph::{generate, WeightedGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn chordal_instance(n: usize) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = generate::random_chordal(&mut rng, n, n + n / 2, 5);
    let w = generate::random_weights(&mut rng, n, 3);
    Instance::from_weighted_graph(WeightedGraph::new(g, w))
}

fn interval_instance(n: usize) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let profile = generate::IntervalProfile {
        n,
        points: n as u32 * 3,
        mean_len: 8,
        long_lived_percent: 12,
    };
    let ivs = generate::random_interval_set(&mut rng, &profile);
    let w = generate::random_weights(&mut rng, n, 3);
    Instance::from_intervals(ivs, w)
}

/// A general graph with about 12 neighbours per vertex: dense enough
/// that every `exact_tier` search runs out of its fuel.
fn general_instance(n: usize) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = generate::random_general(&mut rng, n, (1200 / n) as u32);
    let w = generate::random_weights(&mut rng, n, 3);
    Instance::from_weighted_graph(WeightedGraph::new(g, w))
}

/// The exact tier's two kernels: a branch-and-bound search under a
/// fixed 50,000-node fuel (ten times the standard corpora's, kept so
/// the rows stay comparable) at each row width (40 vertices
/// fit one word, 100 two, 200 four, and 300 need the run-time width),
/// and the `GC` run that seeds its incumbent.
fn bench_exact_tier(c: &mut Criterion) {
    let r = 6;
    let mut group = c.benchmark_group("exact_tier");
    group.sample_size(10);
    for n in [40usize, 100, 200, 300] {
        let inst = general_instance(n);
        group.bench_with_input(BenchmarkId::new("branch_bound", n), &inst, |b, inst| {
            b.iter(|| {
                let lh = LayeredHeuristic::new().allocate(inst, r);
                branch_bound::solve_from(inst, r, &mut SolveBudget::nodes(50_000), &lh)
            })
        });
        group.bench_with_input(BenchmarkId::new("GC", n), &inst, |b, inst| {
            b.iter(|| ChaitinBriggs::new().allocate(inst, r))
        });
    }
    group.finish();
}

fn bench_chordal_allocators(c: &mut Criterion) {
    let inst = chordal_instance(400);
    let r = 8;
    let mut group = c.benchmark_group("chordal_400v_r8");
    group.sample_size(20);
    group.bench_function("GC", |b| b.iter(|| ChaitinBriggs::new().allocate(&inst, r)));
    group.bench_function("NL", |b| b.iter(|| Layered::nl().allocate(&inst, r)));
    group.bench_function("BL", |b| b.iter(|| Layered::bl().allocate(&inst, r)));
    group.bench_function("FPL", |b| b.iter(|| Layered::fpl().allocate(&inst, r)));
    group.bench_function("BFPL", |b| b.iter(|| Layered::bfpl().allocate(&inst, r)));
    group.bench_function("LH", |b| {
        b.iter(|| LayeredHeuristic::new().allocate(&inst, r))
    });
    group.finish();
}

fn bench_interval_allocators(c: &mut Criterion) {
    let inst = interval_instance(400);
    let r = 8;
    let mut group = c.benchmark_group("interval_400v_r8");
    group.sample_size(20);
    group.bench_function("DLS", |b| b.iter(|| LinearScan::new().allocate(&inst, r)));
    group.bench_function("BLS", |b| {
        b.iter(|| BeladyLinearScan::new().allocate(&inst, r))
    });
    group.bench_function("BFPL", |b| b.iter(|| Layered::bfpl().allocate(&inst, r)));
    group.bench_function("Optimal(flow)", |b| b.iter(|| Optimal.allocate(&inst, r)));
    group.finish();
}

fn bench_instance_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfpl_by_size");
    group.sample_size(15);
    for n in [100usize, 200, 400, 800] {
        let inst = chordal_instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &inst, |b, inst| {
            b.iter(|| Layered::bfpl().allocate(inst, 8))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_chordal_allocators,
    bench_interval_allocators,
    bench_instance_sizes,
    bench_exact_tier
);
criterion_main!(benches);
