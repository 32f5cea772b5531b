//! One Criterion bench per suite cost table: the per-function solves
//! behind the paper's figures (suite generation excluded from timing).
//! The figures are views over these tables; their documents come from
//! the `lra-bench` binary.

use criterion::{criterion_group, criterion_main, Criterion};
use lra_bench::experiments::{cost_table, CHORDAL_REGISTER_COUNTS};
use lra_bench::suites;
use lra_core::registry::{CHORDAL_FIGURE_SET, JVM_FIGURE_SET};

fn bench_chordal_tables(c: &mut Criterion) {
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    for (name, ws) in [
        ("fig8_fig11_spec2000int", suites::spec2000int(2013)),
        ("fig9_fig12_eembc", suites::eembc(2013)),
        ("fig10_fig13_lao_kernels", suites::lao_kernels(2013)),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| cost_table(&ws, &CHORDAL_FIGURE_SET, &CHORDAL_REGISTER_COUNTS))
        });
    }
    g.finish();
}

fn bench_jvm_table(c: &mut Criterion) {
    let ws = suites::specjvm98(2013);
    let mut g = c.benchmark_group("figures");
    g.sample_size(10);
    // The full Figure 14 sweep runs the exact solver at 8 register
    // counts; bench Figure 15's R = 6 instead of the whole sweep to
    // keep `cargo bench` under a minute for this target.
    g.bench_function("fig14_fig15_jvm_r6", |b| {
        b.iter(|| cost_table(&ws, &JVM_FIGURE_SET, &[6]))
    });
    g.finish();
}

criterion_group!(benches, bench_chordal_tables, bench_jvm_table);
criterion_main!(benches);
