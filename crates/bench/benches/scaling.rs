//! Complexity evidence: Frank's algorithm is O(|V| + |E|) and the
//! layered allocator is O(R(|V| + |E|)) — the paper's §4 claims.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use lra_core::layered::Layered;
use lra_core::problem::{Allocator, Instance};
use lra_graph::{generate, peo, stable, WeightedGraph};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn weighted_chordal(n: usize) -> WeightedGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let g = generate::random_chordal(&mut rng, n, n + n / 2, 5);
    let w = generate::random_weights(&mut rng, n, 3);
    WeightedGraph::new(g, w)
}

/// Frank's maximum weighted stable set versus graph size: time per
/// vertex should stay flat (linear algorithm).
fn bench_frank_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("frank_scaling");
    group.sample_size(15);
    for n in [250usize, 500, 1000, 2000, 4000] {
        let wg = weighted_chordal(n);
        let order = peo::perfect_elimination_order(wg.graph()).expect("chordal");
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| stable::max_weight_stable_set(&wg, &order))
        });
    }
    group.finish();
}

/// Layered allocation versus register count: time should grow roughly
/// linearly in R until the candidate set empties.
fn bench_layered_vs_r(c: &mut Criterion) {
    let inst = Instance::from_weighted_graph(weighted_chordal(800));
    let mut group = c.benchmark_group("layered_vs_r");
    group.sample_size(15);
    for r in [1u32, 2, 4, 8, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| Layered::nl().allocate(&inst, r))
        });
    }
    group.finish();
}

/// The chordality test: maximum cardinality search with the
/// elimination check fused in. Chordal graphs run the whole walk; the
/// `general/<n>` rows (Erdős–Rényi, about 12 and 20 neighbours per
/// vertex) stop at the first violation.
fn bench_peo(c: &mut Criterion) {
    let mut group = c.benchmark_group("peo_mcs");
    group.sample_size(15);
    for n in [500usize, 2000, 8000] {
        let wg = weighted_chordal(n);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| peo::perfect_elimination_order(wg.graph()))
        });
    }
    for (n, edge_percent) in [(200usize, 6), (2000, 1)] {
        let g = generate::random_general(&mut ChaCha8Rng::seed_from_u64(4), n, edge_percent);
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("general", n), &n, |b, _| {
            b.iter(|| peo::perfect_elimination_order(&g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frank_scaling, bench_layered_vs_r, bench_peo);
criterion_main!(benches);
