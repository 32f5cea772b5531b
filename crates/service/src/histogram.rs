//! Lock-free fixed-bucket latency histograms.
//!
//! The replacement for the metrics reservoir mutex (the ROADMAP's
//! scaling suspect): each worker owns one [`LatencyHistogram`] shard
//! and records with two relaxed atomic increments — no lock, no
//! allocation, no cross-worker cache-line traffic on the hot path.
//! Shards are merged only on read ([`HistogramSnapshot`]), where a
//! stats request can afford the sweep.
//!
//! # Bucketing
//!
//! Buckets are log₂-scaled over microseconds: value `v` lands in the
//! bucket indexed by its bit width ([`bucket_of`]), so bucket `b`
//! covers `[2^(b-1), 2^b - 1]` (bucket 0 holds exactly `0`). That is
//! 65 buckets for the whole `u64` range — small enough to live in a
//! fixed array, precise enough that any percentile estimate is off by
//! at most a factor of two (it reports the bucket's inclusive upper
//! bound, see [`HistogramSnapshot::percentile_us`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: one per possible `u64` bit width, plus the
/// zero bucket.
pub const BUCKETS: usize = 65;

/// The bucket a microsecond value lands in: its bit width (0 → 0,
/// 1 → 1, 2..3 → 2, 4..7 → 3, …).
pub fn bucket_of(us: u64) -> usize {
    (u64::BITS - us.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `b` — what percentile
/// estimates report for samples in that bucket.
pub fn bucket_upper_us(b: usize) -> u64 {
    match b {
        0 => 0,
        1..=63 => (1u64 << b) - 1,
        _ => u64::MAX,
    }
}

/// One worker's latency shard: a fixed array of relaxed atomic bucket
/// counters plus a running sum. Concurrent `record_us` calls never
/// contend on anything but the hardware; reads ([`HistogramSnapshot`])
/// may observe a mid-update state, which at worst misattributes the
/// in-flight sample — fine for monitoring, and exact once quiescent.
pub struct LatencyHistogram {
    counts: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one sample, in microseconds. Two relaxed atomic
    /// increments; safe from any thread.
    pub fn record_us(&self, us: u64) {
        self.counts[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one sample given as a [`std::time::Duration`].
    pub fn record(&self, d: std::time::Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// A merged, plain-integer view of one or more shards: what snapshots
/// carry and percentiles/expositions are computed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (same indexing as [`bucket_of`]).
    pub counts: [u64; BUCKETS],
    /// Total samples across all buckets.
    pub count: u64,
    /// Sum of all recorded microsecond values.
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: [0; BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (fold [`HistogramSnapshot::merge_shard`] over
    /// the worker shards to fill it).
    pub fn new() -> Self {
        HistogramSnapshot::default()
    }

    /// Folds one live shard's counters into this snapshot.
    pub fn merge_shard(&mut self, shard: &LatencyHistogram) {
        for (into, c) in self.counts.iter_mut().zip(shard.counts.iter()) {
            let n = c.load(Ordering::Relaxed);
            *into += n;
            self.count += n;
        }
        self.sum_us += shard.sum_us.load(Ordering::Relaxed);
    }

    /// The nearest-rank `p`-th percentile estimate, in microseconds:
    /// the inclusive upper bound of the bucket holding the sample of
    /// that rank. Exact-to-within-one-bucket: the true order statistic
    /// lies in `(reported/2, reported]`. Returns 0 for an empty
    /// snapshot.
    pub fn percentile_us(&self, p: usize) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p as u64 * self.count).div_ceil(100)).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &n) in self.counts.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_us(b);
            }
        }
        bucket_upper_us(BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng as _;
    use rand::SeedableRng as _;
    use rand_chacha::ChaCha8Rng;
    use std::sync::Arc;

    #[test]
    fn buckets_are_log2_by_bit_width() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_us(0), 0);
        assert_eq!(bucket_upper_us(1), 1);
        assert_eq!(bucket_upper_us(2), 3);
        assert_eq!(bucket_upper_us(10), 1023);
        assert_eq!(bucket_upper_us(64), u64::MAX);
        // Every value sits at or below its bucket's upper bound, and
        // above the previous bucket's.
        for v in [0u64, 1, 2, 3, 4, 100, 1000, 65_535, 1 << 40] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper_us(b));
            if b > 0 {
                assert!(v > bucket_upper_us(b - 1));
            }
        }
    }

    #[test]
    fn percentiles_track_exact_sort_within_one_bucket() {
        // Randomized accuracy check: for arbitrary samples, the
        // histogram's nearest-rank percentile must report the upper
        // bound of the bucket containing the exact nearest-rank order
        // statistic — i.e. exact ∈ (reported/2, reported].
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        for round in 0..20 {
            let n = rng.gen_range(1..=500);
            let h = LatencyHistogram::new();
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    // Spread over many magnitudes, like service times do.
                    let magnitude = rng.gen_range(0..20);
                    rng.gen_range(0..(1u64 << magnitude).max(2))
                })
                .collect();
            for &s in &samples {
                h.record_us(s);
            }
            samples.sort_unstable();
            let mut snap = HistogramSnapshot::new();
            snap.merge_shard(&h);
            assert_eq!(snap.count, n as u64);
            assert_eq!(snap.sum_us, samples.iter().sum::<u64>());
            for p in [1usize, 25, 50, 90, 95, 99, 100] {
                let rank = (p * samples.len()).div_ceil(100).max(1);
                let exact = samples[rank - 1];
                let reported = snap.percentile_us(p);
                assert_eq!(
                    reported,
                    bucket_upper_us(bucket_of(exact)),
                    "round {round}: p{p} of {n} samples: exact {exact} \
                     must land in the reported bucket (got {reported})"
                );
            }
        }
    }

    #[test]
    fn empty_and_single_sample_edges() {
        let snap = HistogramSnapshot::new();
        assert_eq!(snap.percentile_us(50), 0);
        assert_eq!(snap.sum_us, 0);

        let h = LatencyHistogram::new();
        h.record_us(7);
        let mut snap = HistogramSnapshot::new();
        snap.merge_shard(&h);
        assert_eq!(snap.percentile_us(0), bucket_upper_us(bucket_of(7)));
        assert_eq!(snap.percentile_us(50), 7, "7 is its bucket's upper bound");
        assert_eq!(snap.percentile_us(100), 7);
        assert_eq!((snap.count, snap.sum_us), (1, 7));
    }

    #[test]
    fn concurrent_recording_merges_losslessly() {
        // N threads hammer disjoint shards (the service topology) and
        // one shared shard (the stress case); the merged snapshot must
        // account for every sample exactly.
        let threads = 4;
        let per_thread = 10_000u64;
        let shards: Vec<Arc<LatencyHistogram>> = (0..threads)
            .map(|_| Arc::new(LatencyHistogram::new()))
            .collect();
        let shared = Arc::new(LatencyHistogram::new());
        let handles: Vec<_> = shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let shard = Arc::clone(shard);
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut rng = ChaCha8Rng::seed_from_u64(i as u64);
                    for _ in 0..per_thread {
                        let v = rng.gen_range(0..1_000_000);
                        shard.record_us(v);
                        shared.record_us(v);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut merged = HistogramSnapshot::new();
        for shard in &shards {
            merged.merge_shard(shard);
        }
        let mut shared_snap = HistogramSnapshot::new();
        shared_snap.merge_shard(&shared);
        assert_eq!(merged.count, threads as u64 * per_thread);
        assert_eq!(
            merged, shared_snap,
            "per-worker shards and one contended shard agree sample-for-sample"
        );
    }
}
