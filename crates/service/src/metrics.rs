//! Per-server metrics: requests served, rejections, cache behaviour,
//! queue depth high-water mark, service-time percentiles and per-phase
//! time attribution.
//!
//! Service-time percentiles come from lock-free per-worker
//! [`LatencyHistogram`] shards ([`crate::histogram`]) merged only at
//! snapshot time — recording a served request costs two relaxed
//! atomic increments on a worker-private shard, never a lock. (The
//! previous design pushed every sample into a mutex-guarded
//! reservoir; that mutex was the ROADMAP's next shared-state scaling
//! suspect.) Percentiles are log₂-bucketed: the reported value is the
//! upper bound of the bucket holding the nearest-rank sample, within
//! a factor of two of the exact order statistic. Per-phase attribution
//! is each traced request's [`TraceReport`], merged under one lock that
//! untraced requests never take.

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use lra_core::cache::CacheStats;
use lra_core::trace::{Phase, PhaseStats, TraceReport, COUNTERS};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The live counters the service updates as it runs; snapshotted into
/// a [`ServiceMetrics`] on demand.
pub(crate) struct MetricsInner {
    served: AtomicU64,
    rejected: AtomicU64,
    /// One latency shard per worker: worker `i` records only into
    /// `latency_shards[i]`, so the hot path is contention-free by
    /// construction. Merged on [`MetricsInner::snapshot`].
    latency_shards: Vec<LatencyHistogram>,
    /// Every traced job's report, merged. Untraced jobs never take
    /// this lock.
    trace: Mutex<TraceReport>,
    /// Cache counters at service start; metrics report the delta so a
    /// server's hit rate is not polluted by earlier process history.
    cache_base: CacheStats,
}

impl MetricsInner {
    pub(crate) fn new(cache_base: CacheStats, workers: usize) -> Self {
        MetricsInner {
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            latency_shards: (0..workers.max(1))
                .map(|_| LatencyHistogram::new())
                .collect(),
            trace: Mutex::new(TraceReport::default()),
            cache_base,
        }
    }

    /// Records one served request's latency on `worker`'s private
    /// shard. Lock-free: two relaxed atomic adds on memory only this
    /// worker writes.
    pub(crate) fn record_served(&self, worker: usize, service_time: Duration) {
        self.served.fetch_add(1, Ordering::Relaxed);
        self.latency_shards[worker % self.latency_shards.len()].record(service_time);
    }

    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one served item's trace into the merged report.
    pub(crate) fn record_trace(&self, trace: &TraceReport) {
        self.trace.lock().expect("metrics trace lock").merge(trace);
    }

    pub(crate) fn snapshot(
        &self,
        queue_high_water: usize,
        queue_capacity: usize,
        workers: usize,
        cache_now: CacheStats,
    ) -> ServiceMetrics {
        let mut latency = HistogramSnapshot::new();
        for shard in &self.latency_shards {
            latency.merge_shard(shard);
        }
        ServiceMetrics {
            served: self.served.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            queue_high_water,
            queue_capacity,
            workers,
            cache: cache_now.since(&self.cache_base),
            p50: Duration::from_micros(latency.percentile_us(50)),
            p95: Duration::from_micros(latency.percentile_us(95)),
            latency,
            trace: self.trace.lock().expect("metrics trace lock").clone(),
        }
    }
}

/// A point-in-time snapshot of one server's counters.
#[derive(Clone, Debug)]
pub struct ServiceMetrics {
    /// Requests completed (successfully or with a per-item error).
    pub served: u64,
    /// Submissions refused with `queue_full`.
    pub rejected: u64,
    /// Most requests ever queued at once.
    pub queue_high_water: usize,
    /// The configured queue capacity.
    pub queue_capacity: usize,
    /// Worker-pool size.
    pub workers: usize,
    /// Result-cache counters accumulated **by this server** (deltas
    /// since service start of the process-wide portfolio cache,
    /// including evictions).
    pub cache: CacheStats,
    /// Median service time (enqueue to completion), log₂-bucketed:
    /// the true median lies in `(p50/2, p50]`.
    pub p50: Duration,
    /// 95th-percentile service time, same bucketing.
    pub p95: Duration,
    /// The merged service-time histogram the percentiles came from
    /// (the `metrics` op exposes it bucket-by-bucket).
    pub latency: HistogramSnapshot,
    /// The traces of every traced request, merged
    /// ([`TraceReport::merge`]): per-phase attribution and exact-tier
    /// outcomes. All zero unless some request was traced.
    pub trace: TraceReport,
}

impl ServiceMetrics {
    /// Cache hits as a fraction of this server's lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// A one-paragraph human-readable rendering (for stderr/logs; not
    /// part of any determinism contract).
    pub fn render(&self) -> String {
        format!(
            "served {} | rejected {} | \
             queue high-water {}/{} | workers {} | \
             cache hits {} misses {} evictions {} (hit rate {:.1}%) | \
             service time p50 {:.3} ms p95 {:.3} ms",
            self.served,
            self.rejected,
            self.queue_high_water,
            self.queue_capacity,
            self.workers,
            self.cache.hits,
            self.cache.misses,
            self.cache.evictions,
            100.0 * self.cache_hit_rate(),
            self.p50.as_secs_f64() * 1e3,
            self.p95.as_secs_f64() * 1e3,
        )
    }

    /// Renders this snapshot in Prometheus text exposition format
    /// (the `metrics` proto op's payload): `# HELP`/`# TYPE` headers,
    /// counters and gauges, the service-time histogram with
    /// cumulative `le` buckets, per-phase counters labelled
    /// `phase="…"`, one sample per row of [`COUNTERS`] under its family
    /// and label, terminated by a `# EOF` line (no trailing newline —
    /// the transport appends it).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        };
        counter(
            "lra_requests_served_total",
            "Requests completed by the worker pool.",
            self.served,
        );
        counter(
            "lra_requests_rejected_total",
            "Submissions refused with queue_full backpressure.",
            self.rejected,
        );
        counter(
            "lra_cache_hits_total",
            "Result-cache hits since service start.",
            self.cache.hits,
        );
        counter(
            "lra_cache_misses_total",
            "Result-cache misses since service start.",
            self.cache.misses,
        );
        counter(
            "lra_cache_evictions_total",
            "Result-cache evictions since service start.",
            self.cache.evictions,
        );

        let mut gauge = |name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        };
        gauge(
            "lra_queue_high_water",
            "Most requests ever queued at once.",
            self.queue_high_water as u64,
        );
        gauge(
            "lra_queue_capacity",
            "Configured request-queue capacity.",
            self.queue_capacity as u64,
        );
        gauge("lra_workers", "Worker-pool size.", self.workers as u64);

        let _ = writeln!(
            out,
            "# HELP lra_service_time_us Service time (enqueue to completion), microseconds."
        );
        let _ = writeln!(out, "# TYPE lra_service_time_us histogram");
        // Cumulative buckets up to the last occupied one (always at
        // least le="0"), then the mandatory +Inf.
        let last = self
            .latency
            .counts
            .iter()
            .rposition(|&n| n > 0)
            .unwrap_or(0);
        let mut cumulative = 0u64;
        for b in 0..=last {
            cumulative += self.latency.counts[b];
            let _ = writeln!(
                out,
                "lra_service_time_us_bucket{{le=\"{}\"}} {cumulative}",
                crate::histogram::bucket_upper_us(b)
            );
        }
        let _ = writeln!(
            out,
            "lra_service_time_us_bucket{{le=\"+Inf\"}} {}",
            self.latency.count
        );
        let _ = writeln!(out, "lra_service_time_us_sum {}", self.latency.sum_us);
        let _ = writeln!(out, "lra_service_time_us_count {}", self.latency.count);

        for (family, help, stat) in [
            (
                "lra_phase_self_us_total",
                "Pipeline self-time per phase, microseconds (populated for traced requests).",
                (|s| s.self_ns / 1_000) as fn(PhaseStats) -> u64,
            ),
            (
                "lra_phase_spans_total",
                "Completed trace spans per phase.",
                |s| s.count,
            ),
        ] {
            let _ = writeln!(out, "# HELP {family} {help}\n# TYPE {family} counter");
            for phase in Phase::ALL {
                let v = stat(self.trace.phases[phase as usize]);
                let _ = writeln!(out, "{family}{{phase=\"{}\"}} {v}", phase.name());
            }
        }
        let mut family = "";
        for (c, v) in COUNTERS.iter().zip(self.trace.counters()) {
            if c.family != family {
                family = c.family;
                let _ = writeln!(out, "# HELP {family} {}\n# TYPE {family} counter", c.help);
            }
            let _ = match c.label {
                Some((name, value)) => writeln!(out, "{family}{{{name}=\"{value}\"}} {v}"),
                None => writeln!(out, "{family} {v}"),
            };
        }
        out.push_str("# EOF");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn snapshot_reports_deltas_against_the_cache_base() {
        let base = CacheStats {
            hits: 10,
            misses: 5,
            evictions: 1,
        };
        let inner = MetricsInner::new(base, 2);
        inner.record_served(0, Duration::from_micros(100));
        inner.record_served(1, Duration::from_micros(300));
        inner.record_rejected();
        let now = CacheStats {
            hits: 14,
            misses: 9,
            evictions: 1,
        };
        let m = inner.snapshot(3, 8, 2, now);
        assert_eq!(m.served, 2);
        assert_eq!(m.rejected, 1);
        assert_eq!(m.cache.hits, 4);
        assert_eq!(m.cache.misses, 4);
        assert_eq!(m.cache.evictions, 0);
        assert!((m.cache_hit_rate() - 0.5).abs() < 1e-9);
        // Log₂ bucketing: the reservoir reported the exact samples
        // (100 and 300 µs); the histogram reports each sample's bucket
        // upper bound — within one bucket, i.e. a factor of two.
        assert_eq!(m.p50, Duration::from_micros(127));
        assert_eq!(m.p95, Duration::from_micros(511));
        for (exact, reported) in [(100u64, m.p50), (300, m.p95)] {
            let rep = reported.as_micros() as u64;
            assert!(
                exact <= rep && exact > rep / 2,
                "exact {exact} must lie in (rep/2, rep] for rep {rep}"
            );
        }
        assert_eq!(m.latency.count, 2);
        assert_eq!(m.latency.sum_us, 400);
        assert!(m.render().contains("served 2"));
        assert!(m.render().contains("rejected 1"));
    }

    #[test]
    fn phase_aggregates_accumulate_from_traces() {
        let inner = MetricsInner::new(CacheStats::default(), 1);
        let mut t = TraceReport::default();
        t.phases[Phase::Allocate as usize].count = 3;
        t.phases[Phase::Allocate as usize].self_ns = 9_000;
        t.phases[Phase::Verify as usize].count = 3;
        t.phases[Phase::Verify as usize].self_ns = 1_000;
        inner.record_trace(&t);
        inner.record_trace(&t);
        let m = inner.snapshot(0, 8, 1, CacheStats::default()).trace;
        assert_eq!(m.phases[Phase::Allocate as usize].count, 6);
        assert_eq!(m.phases[Phase::Allocate as usize].self_ns, 18_000);
        assert_eq!(m.phases[Phase::Verify as usize].self_ns, 2_000);
        assert_eq!(m.phases[Phase::Rewrite as usize].count, 0);
    }

    /// A minimal Prometheus text-format checker: validates comment
    /// structure, that every sample belongs to a `# TYPE`-declared
    /// family, that values parse as numbers, and histogram invariants
    /// (cumulative buckets, +Inf == _count).
    fn check_prometheus(text: &str) -> BTreeMap<String, String> {
        let mut types: BTreeMap<String, String> = BTreeMap::new();
        let mut samples: BTreeMap<String, String> = BTreeMap::new();
        let mut saw_eof = false;
        for line in text.lines() {
            assert!(!saw_eof, "nothing may follow # EOF");
            if line == "# EOF" {
                saw_eof = true;
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.splitn(2, ' ');
                let name = parts.next().unwrap().to_string();
                let kind = parts.next().expect("TYPE carries a kind").to_string();
                assert!(
                    matches!(kind.as_str(), "counter" | "gauge" | "histogram"),
                    "unknown type {kind}"
                );
                assert!(types.insert(name, kind).is_none(), "family declared twice");
                continue;
            }
            if line.starts_with('#') {
                continue; // HELP
            }
            let (series, value) = line.rsplit_once(' ').expect("sample is `name value`");
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name {name:?}"
            );
            if series.contains('{') {
                assert!(series.ends_with('}'), "unbalanced labels in {series:?}");
            }
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value {value:?}"));
            // Histogram series reuse the family name with a suffix.
            let family = name
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                types.contains_key(name) || types.contains_key(family),
                "sample {name} has no TYPE declaration"
            );
            let dup = samples.insert(series.to_string(), value.to_string());
            assert!(dup.is_none(), "sample {series} appears twice");
        }
        assert!(saw_eof, "exposition must end with # EOF");
        samples
    }

    #[test]
    fn prometheus_exposition_parses_and_type_checks() {
        let inner = MetricsInner::new(CacheStats::default(), 2);
        inner.record_served(0, Duration::from_micros(90));
        inner.record_served(1, Duration::from_micros(700));
        inner.record_served(0, Duration::from_micros(100_000));
        inner.record_rejected();
        let mut t = TraceReport::default();
        t.phases[Phase::Allocate as usize].count = 1;
        t.phases[Phase::Allocate as usize].self_ns = 5_000;
        inner.record_trace(&t);
        let m = inner.snapshot(1, 8, 2, CacheStats::default());
        let text = m.render_prometheus();
        let samples = check_prometheus(&text);

        assert_eq!(samples["lra_requests_served_total"], "3");
        assert_eq!(samples["lra_requests_rejected_total"], "1");
        assert_eq!(samples["lra_workers"], "2");
        assert_eq!(samples["lra_service_time_us_count"], "3");
        assert_eq!(
            samples["lra_service_time_us_sum"],
            (90u64 + 700 + 100_000).to_string()
        );
        assert_eq!(samples["lra_service_time_us_bucket{le=\"+Inf\"}"], "3");
        assert_eq!(samples["lra_phase_self_us_total{phase=\"allocate\"}"], "5");
        assert_eq!(samples["lra_phase_spans_total{phase=\"allocate\"}"], "1");
        // Cumulative bucket counts are non-decreasing and end at count.
        let mut buckets: Vec<(u64, u64)> = samples
            .iter()
            .filter_map(|(k, v)| {
                let le = k.strip_prefix("lra_service_time_us_bucket{le=\"")?;
                let le = le.strip_suffix("\"}")?;
                let bound = if le == "+Inf" {
                    u64::MAX
                } else {
                    le.parse().ok()?
                };
                Some((bound, v.parse().unwrap()))
            })
            .collect();
        buckets.sort_unstable();
        assert!(buckets.len() >= 2);
        assert!(buckets.windows(2).all(|w| w[0].1 <= w[1].1), "cumulative");
        assert_eq!(buckets.last().unwrap().1, 3, "+Inf equals _count");
    }

    #[test]
    fn worker_indices_wrap_instead_of_panicking() {
        // Defensive: a caller passing an out-of-range worker index
        // (e.g. a test single-shard config) must not crash the pool.
        let inner = MetricsInner::new(CacheStats::default(), 1);
        inner.record_served(5, Duration::from_micros(10));
        let m = inner.snapshot(0, 8, 1, CacheStats::default());
        assert_eq!(m.served, 1);
        assert_eq!(m.latency.count, 1);
    }
}
