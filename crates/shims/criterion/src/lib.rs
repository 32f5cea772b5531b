//! Offline stand-in for `criterion`.
//!
//! Provides the builder/macro surface the workspace benches use —
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! [`BenchmarkGroup::bench_with_input`], [`Bencher::iter`],
//! [`criterion_group!`]/[`criterion_main!`] — backed by a simple
//! wall-clock timer instead of criterion's statistical machinery. Each
//! benchmark runs one warm-up pass plus a small number of timed passes
//! (capped; override with the `CRITERION_SHIM_SAMPLES` environment
//! variable) and prints the mean time per iteration.
//!
//! Results are lost when the process exits unless `CRITERION_SHIM_JSON`
//! names a file: then every benchmark also appends one JSON line
//! (`{"group": …, "bench": …, "mean_ns": …, "min_ns": …, "max_ns": …,
//! "iters": …}`, plus any [`BenchmarkGroup::metric`] columns; `min_ns`
//! and `max_ns` are the fastest and slowest timed pass, the noise band
//! around the mean), so bench numbers can be
//! persisted in-tree alongside `BENCH_batch.json` (see the repo's
//! `BENCH_*.json` convention).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Top-level benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("## bench group: {name}");
        BenchmarkGroup {
            _criterion: self,
            name,
            samples: default_samples(),
            throughput: None,
            metrics: Vec::new(),
        }
    }
}

fn default_samples() -> usize {
    std::env::var("CRITERION_SHIM_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// A group of related benchmarks.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
    metrics: Vec<(String, u64)>,
}

impl BenchmarkGroup<'_> {
    /// Requests `n` samples (capped at the shim's budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.min(default_samples());
        self
    }

    /// Declares the work per iteration for derived rates.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Attaches a bench-computed side metric (e.g. a resident-memory
    /// estimate) to every subsequent benchmark of this group: each
    /// persisted JSON line gains a `"key": value` column. Shim
    /// extension — upstream criterion has no equivalent, so benches
    /// that must also compile there should gate calls on the shim.
    pub fn metric(&mut self, key: impl Into<String>, value: u64) -> &mut Self {
        let key = key.into();
        self.metrics.retain(|(k, _)| k != &key);
        self.metrics.push((key, value));
        self
    }

    /// Runs a benchmark closure.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        self.run(id.to_string(), |b| f(b));
        self
    }

    /// Runs a benchmark closure parameterised by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Display,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        self.run(id.to_string(), |b| f(b, input));
        self
    }

    fn run(&mut self, id: String, mut f: impl FnMut(&mut Bencher)) {
        let mut bencher = Bencher {
            samples: self.samples.max(1),
            total: Duration::ZERO,
            min: Duration::MAX,
            max: Duration::ZERO,
            iters: 0,
        };
        f(&mut bencher);
        let (per_iter, min) = if bencher.iters > 0 {
            (bencher.total / bencher.iters as u32, bencher.min)
        } else {
            (Duration::ZERO, Duration::ZERO)
        };
        let rate = match (&self.throughput, per_iter.as_secs_f64()) {
            (Some(Throughput::Elements(n)), s) if s > 0.0 => {
                format!("  ({:.0} elem/s)", *n as f64 / s)
            }
            (Some(Throughput::Bytes(n)), s) if s > 0.0 => {
                format!("  ({:.0} B/s)", *n as f64 / s)
            }
            _ => String::new(),
        };
        eprintln!(
            "{}/{id}: {per_iter:?}/iter over {} iters{rate}",
            self.name, bencher.iters
        );
        let timing = Timing {
            mean: per_iter,
            min,
            max: bencher.max,
            iters: bencher.iters,
        };
        persist_json(&self.name, &id, &timing, &self.metrics);
    }

    /// Ends the group (printing is incremental, so this is a no-op).
    pub fn finish(&mut self) {}
}

/// One benchmark's timed passes: their mean, fastest and slowest.
struct Timing {
    mean: Duration,
    min: Duration,
    max: Duration,
    iters: usize,
}

/// Appends one JSON line per benchmark to the file named by
/// `CRITERION_SHIM_JSON`, if set, with any group-level
/// [`BenchmarkGroup::metric`] columns after the timing fields.
/// Failures are silent: persistence is best-effort and must never fail
/// a bench run.
fn persist_json(group: &str, id: &str, timing: &Timing, metrics: &[(String, u64)]) {
    let Ok(path) = std::env::var("CRITERION_SHIM_JSON") else {
        return;
    };
    if path.is_empty() {
        return;
    }
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let extra: String = metrics
        .iter()
        .map(|(k, v)| format!(", \"{}\": {v}", escape(k)))
        .collect();
    let line = format!(
        "{{\"group\": \"{}\", \"bench\": \"{}\", \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"iters\": {}{extra}}}\n",
        escape(group),
        escape(id),
        timing.mean.as_nanos(),
        timing.min.as_nanos(),
        timing.max.as_nanos(),
        timing.iters
    );
    use std::io::Write as _;
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        let _ = f.write_all(line.as_bytes());
    }
}

/// Per-benchmark iteration driver.
pub struct Bencher {
    samples: usize,
    total: Duration,
    min: Duration,
    max: Duration,
    iters: usize,
}

impl Bencher {
    /// Times `routine`: one warm-up call, then `samples` timed calls,
    /// keeping their total, the fastest and the slowest.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let _warmup = routine();
        for _ in 0..self.samples {
            let start = Instant::now();
            let out = routine();
            let took = start.elapsed();
            self.total += took;
            self.min = self.min.min(took);
            self.max = self.max.max(took);
            self.iters += 1;
            drop(out);
        }
    }
}

/// A parameterised benchmark identifier.
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// An id made from a parameter value alone.
    pub fn from_parameter(p: impl Display) -> Self {
        BenchmarkId(p.to_string())
    }

    /// An id made from a function name and a parameter value.
    pub fn new(name: impl Display, p: impl Display) -> Self {
        BenchmarkId(format!("{name}/{p}"))
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Work performed per iteration, for derived throughput rates.
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Opaque hint to the optimiser (pass-through in the shim).
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Bundles benchmark functions under one group name.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($bench:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $bench(&mut c); )+
        }
    };
}

/// Generates `main` for one or more [`criterion_group!`]s.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench`/`cargo test` pass harness flags; ignore them.
            $( $group(); )+
        }
    };
}
