//! The `lra-bench profile` subcommand: per-phase self-time over the
//! standard corpora (`BENCH_phases.json`) and an optional
//! chrome://tracing export for a single function.
//!
//! Each corpus runs on one worker under an armed
//! [`lra_core::trace`] recorder; every item's [`TraceReport`] is
//! merged, so the persisted numbers are *attributed* wall time — the
//! self time of all phases tiles each item's pipeline span exactly,
//! and summing it across a corpus reproduces the corpus's end-to-end
//! allocation time to within the fixed per-item bracketing overhead
//! (CI asserts ≥ 90% coverage).

use crate::batchrun::{standard_experiments, BatchExperiment};
use lra_core::trace::{self, Phase, TraceReport, COUNTERS};
use lra_core::BatchSummary;
use std::time::{Duration, Instant};

/// One corpus's merged phase profile.
pub struct CorpusProfile {
    /// Experiment name (`suite/allocator/R`).
    pub name: String,
    /// Functions in the corpus.
    pub functions: usize,
    /// Wall-clock of the whole batch run (pool spin-up included).
    pub wall: Duration,
    /// Sum of per-item allocation times — the end-to-end time the
    /// phase self-times are measured against (excludes pool spin-up
    /// and queue idle time, which no phase could ever account for).
    pub alloc: Duration,
    /// Phase counters merged over every item.
    pub trace: TraceReport,
    /// The batch's aggregate outcome (spill cost, converged count).
    pub summary: BatchSummary,
}

impl CorpusProfile {
    /// Fraction of [`CorpusProfile::alloc`] attributed to phases
    /// (`Σ self_ns / alloc`); 1.0 when `alloc` is zero.
    pub fn coverage(&self) -> f64 {
        let alloc_ns = self.alloc.as_nanos() as f64;
        if alloc_ns > 0.0 {
            self.trace.total_self_ns() as f64 / alloc_ns
        } else {
            1.0
        }
    }
}

/// Profiles the four standard corpora on one worker with tracing
/// armed, merging every item's trace. Output bytes are not inspected
/// here — the trace-on/trace-off byte-identity is pinned by tests and
/// the CI diff; this run is about where the time went.
pub fn run(seed: u64) -> Vec<CorpusProfile> {
    profile(&standard_experiments(seed))
}

/// Profiles each of `experiments` as [`run`] profiles the standard
/// corpora.
pub fn profile(experiments: &[BatchExperiment]) -> Vec<CorpusProfile> {
    let _on = trace::arm();
    experiments
        .iter()
        .map(|exp| {
            let t0 = Instant::now();
            let report = exp.run(1);
            let wall = t0.elapsed();
            let mut merged = TraceReport::default();
            let mut alloc = Duration::ZERO;
            for item in &report.items {
                alloc += item.elapsed;
                if let Some(t) = &item.trace {
                    merged.merge(t);
                }
            }
            CorpusProfile {
                name: exp.name.clone(),
                functions: exp.functions.len(),
                wall,
                alloc,
                trace: merged,
                summary: report.summary,
            }
        })
        .collect()
}

/// Serialises corpus profiles as the `BENCH_phases.json` document
/// (schema `lra-bench/phases-v5`; hand-rolled, no serde in the build
/// environment). See `docs/benchmarks.md` for the field reference.
pub fn to_json(seed: u64, host: &str, profiles: &[CorpusProfile]) -> String {
    use std::fmt::Write as _;
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"lra-bench/phases-v5\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"host\": {host},");
    s.push_str("  \"corpora\": [\n");
    for (i, p) in profiles.iter().enumerate() {
        s.push_str("    {\n");
        let _ = writeln!(s, "      \"name\": \"{}\",", escape(&p.name));
        let _ = writeln!(s, "      \"functions\": {},", p.functions);
        let _ = writeln!(s, "      \"wall_ms\": {:.3},", p.wall.as_secs_f64() * 1e3);
        let _ = writeln!(s, "      \"alloc_ms\": {:.3},", p.alloc.as_secs_f64() * 1e3);
        let _ = writeln!(s, "      \"coverage\": {:.4},", p.coverage());
        for (c, v) in COUNTERS.iter().zip(p.trace.counters()) {
            let _ = writeln!(s, "      \"{}\": {v},", c.key);
        }
        s.push_str("      \"phases\": [\n");
        for (j, phase) in Phase::ALL.iter().enumerate() {
            let st = p.trace.phases[*phase as usize];
            let _ = write!(
                s,
                "        {{\"name\": \"{}\", \"count\": {}, \"total_us\": {}, \"self_us\": {}}}",
                phase.name(),
                st.count,
                st.total_ns / 1_000,
                st.self_ns / 1_000
            );
            s.push_str(if j + 1 < Phase::ALL.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("      ]\n");
        s.push_str(if i + 1 < profiles.len() {
            "    },\n"
        } else {
            "    }\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Runs the heaviest jit-large function with span-event detail on and
/// returns a chrome://tracing JSON document (`traceEvents` with
/// complete `"X"` events, timestamps in microseconds) — load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn chrome_trace(seed: u64) -> String {
    use std::fmt::Write as _;
    let functions = crate::suites::jit_large_functions(seed);
    let f = functions
        .iter()
        .max_by_key(|f| f.value_count)
        .expect("jit-large corpus is non-empty");
    trace::begin(true);
    let _ = crate::batchrun::jit_large_pipeline().run(f);
    let report = trace::take().expect("begin started a collection");
    let mut s = String::new();
    let _ = writeln!(s, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (i, e) in report.events.iter().enumerate() {
        let _ = write!(
            s,
            "  {{\"name\": \"{}\", \"cat\": \"lra\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
             \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"depth\": {}}}}}",
            e.phase.name(),
            e.start_ns as f64 / 1e3,
            e.dur_ns as f64 / 1e3,
            e.depth
        );
        s.push_str(if i + 1 < report.events.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    s.push_str("]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_covers_the_standard_corpora_with_tiled_self_time() {
        let profiles = run(3);
        assert_eq!(profiles.len(), 4);
        for p in &profiles {
            assert!(p.functions > 0);
            assert!(p.trace.rounds > 0, "{}: no rounds recorded", p.name);
            let pipeline = p.trace.phases[Phase::Pipeline as usize];
            assert_eq!(
                pipeline.count, p.functions as u64,
                "{}: one pipeline span per function",
                p.name
            );
            // Self time tiles each pipeline span exactly, so the sum
            // over phases equals the sum of pipeline totals.
            assert_eq!(
                p.trace.total_self_ns(),
                pipeline.total_ns,
                "{}: self times must tile the pipeline spans",
                p.name
            );
            assert!(
                p.trace.phases[Phase::Allocate as usize].count >= p.functions as u64,
                "{}: at least one allocate span per function",
                p.name
            );
        }
        // The portfolio corpora must have charged fuel somewhere
        // (jit-large escalates under the standard node budget), and no
        // corpus may consume more than it was granted.
        assert!(
            profiles.iter().any(|p| p.trace.fuel > 0),
            "no corpus recorded exact-solve fuel"
        );
        assert!(profiles.iter().any(|p| p.trace.fuel_consumed > 0));
        for p in &profiles {
            assert!(p.trace.fuel_consumed <= p.trace.fuel, "{}", p.name);
        }
        // Every escalation that was granted fuel settled one way: the
        // standard config pins one fuel per escalation, so the four
        // outcomes count the grants.
        let pin = crate::batchrun::standard_portfolio_config().node_budget;
        for p in &profiles {
            let t = &p.trace;
            let settled = t.exact_won + t.exact_tied + t.exact_improved + t.exact_exhausted;
            assert_eq!(settled * pin, t.fuel, "{}", p.name);
        }
        assert!(profiles.iter().any(|p| p.trace.exact_won > 0));
        assert!(profiles.iter().any(|p| p.trace.exact_improved > 0));
        assert!(profiles.iter().any(|p| p.trace.exact_exhausted > 0));
        // Every escalation ends one way, and every corpus escalates.
        for p in &profiles {
            let t = &p.trace;
            let escalations = t.escalation_not_splittable
                + t.escalation_failed
                + t.escalation_over_base_cost
                + t.escalation_unconverged
                + t.escalation_accepted;
            assert_eq!(
                escalations,
                p.trace.phases[Phase::EscalatePrep as usize].count,
                "{}",
                p.name
            );
            assert!(escalations > 0, "{}: no escalation", p.name);
        }
        // The interval corpus carries its PEO, LH never asks for one,
        // and the portfolio's escalation runs flow or branch-and-bound
        // without asking either: no corpus runs a chordality test.
        for p in &profiles {
            assert_eq!(p.trace.chordality_tests, 0, "{}", p.name);
        }
    }

    #[test]
    fn phases_json_is_balanced_and_carries_the_schema() {
        let profiles = run(3);
        let host = crate::host::stamp_json(std::path::Path::new("."));
        let json = to_json(3, &host, &profiles);
        assert!(json.contains("\"schema\": \"lra-bench/phases-v5\""));
        assert!(json.contains("\"host\": {\"nproc\": "));
        for name in [
            "lao-kernels/BFPL/R4",
            "specjvm98/LH/R6",
            "jit-large/Portfolio/R6",
            "jit-huge/Portfolio/R6",
        ] {
            assert!(json.contains(name), "missing corpus {name}");
        }
        for phase in Phase::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", phase.name())));
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    /// Every row of the counter table reaches every surface: summed by
    /// `merge`, and written under its key to `BENCH_phases.json`, under
    /// its family and label to the Prometheus exposition, and as
    /// `trace_<key>` to the traced wire line. A new row needs no edit.
    #[test]
    fn every_counter_reaches_every_surface() {
        use lra_core::batch::{ReportRow, RowStats};
        use lra_service::{proto, HistogramSnapshot, ServiceMetrics};

        let (mut a, mut b) = (TraceReport::default(), TraceReport::default());
        for (i, (x, y)) in a
            .counters_mut()
            .into_iter()
            .zip(b.counters_mut())
            .enumerate()
        {
            (*x, *y) = (100 * (i as u64 + 1), i as u64 + 1);
        }
        a.merge(&b);
        let profile = CorpusProfile {
            name: "corpus".to_string(),
            functions: 1,
            wall: Duration::ZERO,
            alloc: Duration::ZERO,
            trace: a.clone(),
            summary: BatchSummary::from_rows(&[]),
        };
        let json = to_json(3, "{}", &[profile]);
        let row = ReportRow {
            function: "f".to_string(),
            outcome: Ok(RowStats::default()),
        };
        let wire = proto::parse_object(&proto::alloc_response(1, &row, None, Some(&a))).unwrap();
        let metrics = ServiceMetrics {
            served: 0,
            rejected: 0,
            queue_high_water: 0,
            queue_capacity: 1,
            workers: 1,
            cache: Default::default(),
            p50: Duration::ZERO,
            p95: Duration::ZERO,
            latency: HistogramSnapshot::new(),
            trace: a.clone(),
        }
        .render_prometheus();
        for (i, (c, v)) in COUNTERS.iter().zip(a.counters()).enumerate() {
            let sum = 101 * (i as u64 + 1);
            assert_eq!(v, sum, "{} is not summed", c.key);
            assert!(
                json.contains(&format!("\"{}\": {sum},\n", c.key)),
                "{}",
                c.key
            );
            let sample = match c.label {
                Some((name, value)) => format!("{}{{{name}=\"{value}\"}} {sum}\n", c.family),
                None => format!("{} {sum}\n", c.family),
            };
            assert!(metrics.contains(&sample), "{sample}");
            assert!(metrics.contains(&format!("# HELP {} {}\n", c.family, c.help)));
            let field = wire[&format!("trace_{}", c.key)].as_u64();
            assert_eq!(field, Some(sum), "{}", c.key);
        }
    }

    #[test]
    fn chrome_trace_is_balanced_and_nonempty() {
        let json = chrome_trace(3);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"pipeline\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
