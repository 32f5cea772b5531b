//! Tests of the benchmark itself: its metric names agree with
//! `BENCHMARK.json`, every run emits exactly its declared metrics, its
//! inputs are a function of the seed, it measures the same program the
//! repository's recorded baselines describe, and its checker catches a
//! corrupted allocation.

use perfbench::batch::{self, BatchWorkload};
use perfbench::metrics::{self, Report, END_TO_END, PER_LAYER};
use perfbench::{checker, Config, Quality, WorkloadName};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

/// The text of the JSON array that follows `"key": [`.
fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let rest = &json[start..];
    &rest[..rest.find(']').expect("array closes")]
}

#[test]
fn benchmark_json_declares_exactly_the_catalogue() {
    let json = benchmark_json();
    for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let text = section(&json, key);
        assert_eq!(
            text.matches("\"name\":").count(),
            catalogue.len(),
            "{key} lists a different number of metrics than the catalogue"
        );
        for def in catalogue {
            assert!(metrics::valid_name(def.name), "{}", def.name);
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name, def.unit, def.better
            );
            assert!(text.contains(&entry), "{key} lacks {entry}");
        }
    }
    let workloads = section(&json, "workloads");
    assert_eq!(
        workloads.matches("\"name\":").count(),
        WorkloadName::ALL.len()
    );
    for w in WorkloadName::ALL {
        let entry = format!("\"name\": \"{}\"", w.name());
        assert!(workloads.contains(&entry), "{} is not listed", w.name());
    }
}

/// Checks that the JSON line of `report` names only declared metrics,
/// each with a legal name, and all of `kind`.
fn assert_emits(report: &Report, kind: &[metrics::MetricDef]) {
    let line = report.json(kind);
    for def in kind {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", def.name)));
    }
    for (name, value, _) in &report.values {
        assert!(metrics::valid_name(name), "{name}");
        assert!(metrics::lookup(name).is_some(), "{name} is not declared");
        assert!(value.is_finite(), "{name} = {value}");
    }
}

/// Each workload shrunk to one slice.
fn shrunken(w: WorkloadName) -> BatchWorkload {
    match w {
        WorkloadName::Huge2t => BatchWorkload::huge(11, 1, perfbench::workload_threads(w)),
        WorkloadName::Layered1t => BatchWorkload::layered(11, 1),
    }
}

#[test]
fn every_workload_emits_its_declared_metrics() {
    for trace in [false, true] {
        let kind = if trace { PER_LAYER } else { END_TO_END };
        for w in WorkloadName::ALL {
            let report = perfbench::run_batch(0.2, trace, || shrunken(w));
            assert!(
                report.correct(),
                "{} trace={trace}: {:?}",
                w.name(),
                report.problems
            );
            assert_eq!(report.failed, 0);
            assert!(report.attempted > 0);
            assert_emits(&report, kind);
        }
    }
}

#[test]
fn the_seed_fixes_the_inputs_and_the_quality() {
    let quality = |seed| {
        let w = BatchWorkload::layered(seed, 2);
        let mut report = Report::default();
        let refs = batch::measure_traced(&w, 0.01, &mut report);
        (Quality::of(refs.iter().flatten()), w)
    };
    let (a, wa) = quality(2013);
    let (b, wb) = quality(2013);
    assert_eq!(a, b, "same seed, same spill cost and convergence");
    let same_inputs = |x: &BatchWorkload, y: &BatchWorkload| {
        x.slices
            .iter()
            .zip(&y.slices)
            .all(|(s, t)| s.functions == t.functions)
    };
    assert!(same_inputs(&wa, &wb));
    let (_, wc) = quality(2014);
    assert!(!same_inputs(&wa, &wc), "another seed, another corpus");
}

#[test]
fn the_seed_2013_slices_reproduce_the_recorded_baseline() {
    // BENCH_batch.json (seed 2013): jit-huge 113070729 / 308 of 504
    // converged; lao-kernels 96897; specjvm98 43854159.
    let mut report = Report::default();
    let huge = BatchWorkload::huge(2013, 1, 2);
    let mut refs = batch::References::new();
    huge.pass(false, &mut refs, &mut report);
    let q = Quality::of(&refs[0]);
    assert_eq!(
        (q.spill_cost_total, q.converged, q.functions),
        (113_070_729, 308, 504)
    );
    // Two of the 308 carry no register assignment; converged_share
    // counts them as not converged.
    assert_eq!((q.unassigned, q.checked_converged()), (2, 306));

    let layered = BatchWorkload::layered(2013, 1);
    let mut refs = batch::References::new();
    layered.pass(false, &mut refs, &mut report);
    assert_eq!(Quality::of(&refs[0]).spill_cost_total, 96_897);
    assert_eq!(Quality::of(&refs[1]).spill_cost_total, 43_854_159);
    assert_eq!(report.failed, 0);

    // They are the two converged rows the allocator could not verify
    // itself, and each is reported.
    for name in ["crypto::h6", "sunflow::h24"] {
        let prefix = format!("converged row {name} counted as not converged: own verdict Unknown");
        assert!(
            report.lines.iter().any(|l| l.starts_with(&prefix)),
            "{name} not reported"
        );
    }
}

#[test]
fn the_checker_rejects_two_interfering_values_in_one_register() {
    let functions = lra_bench::suites::jit_huge_functions(2013);
    let pipeline = Config::jit_huge().pipeline();
    let mut corrupted = 0;
    for f in functions.iter().take(40) {
        let af = pipeline.run(f).expect("jit-huge methods allocate");
        if !af.verdict.is_feasible() {
            continue;
        }
        checker::check_allocated(&af).expect("the allocator's answer is valid");
        // Any edge of the allocator's own interference graph between
        // two register-holding values: give both the same register.
        let live = lra_ir::liveness::analyze(&af.function);
        let g = lra_ir::interference::interference_graph(&af.function, &live);
        let reg = |v: usize| af.assignment.register_of(v);
        let Some((u, v)) = g
            .edges()
            .map(|(u, v)| (u.index(), v.index()))
            .find(|&(u, v)| reg(u).is_some() && reg(v).is_some())
        else {
            continue;
        };
        let bad = |x: usize| if x == v { reg(u) } else { reg(x) };
        let err = checker::check(&af.function, bad, af.registers).unwrap_err();
        assert!(err.contains("clobbers"), "{}: {err}", f.name);
        corrupted += 1;
    }
    assert!(
        corrupted >= 10,
        "only {corrupted} functions could be corrupted"
    );
}
