//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can emit is declared here with its unit
//! and direction; `BENCHMARK.json` lists the same names (a test keeps
//! the two in step). A run fills a [`Report`], which refuses names the
//! catalogue does not know and, when rendered, insists that the run
//! produced every metric of its kind.

use std::fmt::Write as _;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Stable name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed (`ms`, `s`, `1/s`, `fraction`, …).
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics: emitted by every untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("funcs_per_s", "1/s", "higher"),
    m("func_p50_ms", "ms", "lower"),
    m("func_p99_ms", "ms", "lower"),
    m("spill_cost_share", "fraction", "lower"),
    m("converged_share", "fraction", "higher"),
    m("ok_share", "fraction", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// Per-layer metrics: emitted by every traced run (`--trace 1`).
/// Counters of a layer a workload never enters read 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.analysis_ms", "ms", "lower"),
    m("core.spill_costs_ms", "ms", "lower"),
    m("core.instance_build_ms", "ms", "lower"),
    m("core.allocate_ms", "ms", "lower"),
    m("core.verify_ms", "ms", "lower"),
    m("core.rewrite_ms", "ms", "lower"),
    m("core.reanalyse_ms", "ms", "lower"),
    m("core.escalate_prep_ms", "ms", "lower"),
    m("core.overhead_ms", "ms", "lower"),
    m("core.rounds", "count", "lower"),
    m("core.fuel_granted", "count", "lower"),
    m("core.coverage", "fraction", "higher"),
    m("core.spill_cost_total", "cost", "lower"),
    m("portfolio.decide_ms", "ms", "lower"),
    m("portfolio.escalations", "count", "lower"),
    m("portfolio.exact_won", "count", "higher"),
    m("portfolio.exact_tied", "count", "higher"),
    m("portfolio.exact_exhausted", "count", "lower"),
    m("portfolio.exhausted_share", "fraction", "lower"),
    m("verify.check_ms", "ms", "lower"),
    m("verify.unknown", "count", "lower"),
    m("check.unassigned_converged", "count", "lower"),
    m("batch.busy_ms", "ms", "lower"),
    m("batch.idle_share", "fraction", "lower"),
    m("cache.hits", "count", "higher"),
    m("cache.misses", "count", "lower"),
    m("cache.evictions", "count", "lower"),
    m("cache.hit_rate", "fraction", "higher"),
    m("ir.liveness_ms", "ms", "lower"),
    m("ir.interference_ms", "ms", "lower"),
    m("ir.values", "count", "lower"),
    m("ir.spill_instrs", "count", "lower"),
    m("graph.mcs_ms", "ms", "lower"),
    m("graph.stable_set_ms", "ms", "lower"),
    m("graph.adjacency_bytes", "bytes", "lower"),
    m("svc.encode_us", "us", "lower"),
    m("svc.decode_us", "us", "lower"),
    m("svc.server_p50_ms", "ms", "lower"),
    m("svc.server_p99_ms", "ms", "lower"),
    m("svc.wire_p50_ms", "ms", "lower"),
    m("svc.queue_high_water", "count", "lower"),
    m("svc.queue_full", "count", "lower"),
    m("svc.gen_lag_p99_ms", "ms", "lower"),
    m("trace.overhead_share", "fraction", "lower"),
];

/// The declaration of `name`, in either catalogue.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// Whether `name` is a legal metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// `(name, value, note)` in emission order; the note says how the
    /// value was obtained (sample count, percentile rank, …).
    pub values: Vec<(&'static str, f64, String)>,
    /// Human-readable lines printed before the metric table.
    pub lines: Vec<String>,
    /// Operations (function allocations) attempted.
    pub attempted: u64,
    /// Operations that failed: errored, refused, rejected by the
    /// independent checker, or different from the run's reference.
    pub failed: u64,
    /// Other conditions that make the run incorrect.
    pub problems: Vec<String>,
}

impl Report {
    /// Records a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalogue or recorded twice:
    /// both are bugs in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        assert!(lookup(name).is_some(), "undeclared metric {name}");
        assert!(
            self.values.iter().all(|(n, _, _)| *n != name),
            "metric {name} recorded twice"
        );
        // Non-finite numbers are not JSON; a ratio over nothing is 0.
        let value = if value.is_finite() { value } else { 0.0 };
        self.values.push((name, value, note.into()));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// `true` when nothing failed and no problem was recorded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }

    /// The metric table: one line per metric with value, unit and note.
    pub fn table(&self) -> String {
        let mut s = String::new();
        for (name, value, note) in &self.values {
            let unit = lookup(name).map_or("", |d| d.unit);
            let _ = writeln!(s, "metric {name:<26} {value:>16.6} {unit:<8} {note}");
        }
        s
    }

    /// The final JSON result line, restricted to `kind` (the metrics a
    /// run of this mode must emit).
    ///
    /// # Panics
    ///
    /// Panics if a metric of `kind` was never recorded.
    pub fn json(&self, kind: &[MetricDef]) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, def) in kind.iter().enumerate() {
            let value = self
                .get(def.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A finite `f64` as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Nearest-rank `p`-th percentile of `sorted` (ascending); 0 when
/// empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    sorted[rank - 1]
}

/// The tail rank to report for `n` samples: 99, or — when fewer than
/// ten samples would lie beyond the 99th — the highest percentile that
/// still has ten samples beyond it (0 below ten samples).
pub fn tail_rank(n: usize) -> f64 {
    if n as f64 * 0.01 >= 10.0 {
        99.0
    } else if n > 10 {
        100.0 * (1.0 - 10.0 / n as f64)
    } else {
        0.0
    }
}

/// Median of `values` (sorted copy); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for name in &all {
            assert!(valid_name(name), "bad metric name {name}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "duplicate metric names");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(tail_rank(5000), 99.0);
        assert_eq!(tail_rank(200), 95.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn json_line_carries_every_metric_of_its_kind() {
        let mut r = Report::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            r.set(d.name, i as f64 + 0.5, "");
        }
        r.attempted = 3;
        let line = r.json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\"", d.name)));
        }
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(0.25), "0.25");
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_refused() {
        Report::default().set("no.such_metric", 1.0, "");
    }
}
