//! One Criterion bench per paper figure: regenerates the figure's data
//! series end to end (suite generation excluded from timing). The
//! printable tables come from the `lra-bench` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use lra_bench::experiments;
use lra_bench::suites;

fn bench_fig8(c: &mut Criterion) {
    let ws = suites::spec2000int(2013);
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig8_spec2000int", |b| {
        b.iter(|| experiments::mean_cost_figure(&ws, &experiments::CHORDAL_REGISTER_COUNTS))
    });
    g.finish();
}

fn bench_fig9(c: &mut Criterion) {
    let ws = suites::eembc(2013);
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig9_eembc", |b| {
        b.iter(|| experiments::mean_cost_figure(&ws, &experiments::CHORDAL_REGISTER_COUNTS))
    });
    g.finish();
}

fn bench_fig10_and_13(c: &mut Criterion) {
    let ws = suites::lao_kernels(2013);
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig10_lao_kernels", |b| {
        b.iter(|| experiments::mean_cost_figure(&ws, &experiments::CHORDAL_REGISTER_COUNTS))
    });
    g.bench_function("fig13_lao_distribution", |b| {
        b.iter(|| experiments::distribution_figure(&ws, &experiments::CHORDAL_REGISTER_COUNTS))
    });
    g.finish();
}

fn bench_fig11_and_12(c: &mut Criterion) {
    let spec = suites::spec2000int(2013);
    let eembc = suites::eembc(2013);
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    g.bench_function("fig11_spec_distribution", |b| {
        b.iter(|| experiments::distribution_figure(&spec, &experiments::CHORDAL_REGISTER_COUNTS))
    });
    g.bench_function("fig12_eembc_distribution", |b| {
        b.iter(|| experiments::distribution_figure(&eembc, &experiments::CHORDAL_REGISTER_COUNTS))
    });
    g.finish();
}

fn bench_fig14_and_15(c: &mut Criterion) {
    let ws = suites::specjvm98(2013);
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    // The full Figure 14 sweep runs the exact solver 8×9×6 times; bench
    // a representative R instead of the whole sweep to keep `cargo
    // bench` under a minute for this target.
    g.bench_function("fig14_jvm_r6", |b| {
        b.iter(|| experiments::jvm_mean_figure(&ws, &[6]))
    });
    g.bench_function("fig15_jvm_per_benchmark", |b| {
        b.iter(|| experiments::jvm_per_benchmark_figure(&ws, 6))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fig8,
    bench_fig9,
    bench_fig10_and_13,
    bench_fig11_and_12,
    bench_fig14_and_15
);
criterion_main!(benches);
