//! Exact-keyed memoization of allocation results.
//!
//! JIT batches re-submit the same methods over and over (re-entrant
//! compilation, tiering, identical trampolines), and the
//! spill-then-reanalyse loop itself re-solves structurally identical
//! instances whenever two rounds produce the same graph. A
//! [`ResultCache`] lets a policy skip the whole solve in those cases.
//!
//! Keys are **exact**, not hashes-of-hashes: an [`InstanceKey`]
//! embeds the full adjacency bit matrix and weight vector (plus the
//! register count and any budget knobs), so a hit is guaranteed to be
//! the same problem and the memoized result is byte-identical to a
//! fresh solve. That makes the cache invisible to the batch driver's
//! determinism contract — hit/miss patterns (and any eviction policy)
//! can differ across thread counts and runs without changing a single
//! output byte.
//!
//! The table is **sharded and lossy**: the key hash selects one of
//! [`ResultCache::shard_count`] independently locked shards, and
//! within a shard a fixed slot. Inserting into an occupied slot
//! overwrites it (one eviction), so there is no global lock, no
//! eviction bookkeeping and no rehashing on the hot path — concurrent
//! workers only contend when their keys land in the same shard.
//! Correctness never depends on what stays cached, only future hit
//! rates do, which is exactly the trade a lossy cache makes.

use std::hash::{Hash, Hasher};
use std::sync::Mutex;
use std::time::Duration;

use crate::problem::Instance;
use lra_graph::{Cost, Interval};

/// An exact, self-contained description of one allocation query:
/// the instance's adjacency bit matrix, weights and (for interval
/// instances) the live intervals themselves, plus the query
/// parameters (register count, solver budgets, cheap-tier name).
///
/// Two keys compare equal **iff** a solver would see the identical
/// problem, so memoized results are always safe to reuse. The
/// intervals must be part of the key because both tiers can consume
/// them directly (linear-scan cheap tiers, the min-cost-flow exact
/// solver): two interval instances with the same intersection graph
/// but different endpoints are different problems.
///
/// Construction rolls every field — one mix step per adjacency word,
/// weight and interval, O(words) total — into a 64-bit `fingerprint`
/// stored alongside the data. The fingerprint is the key's hash
/// (consistent with `Eq`: equal keys roll to equal fingerprints) and
/// the equality fast path: comparisons bail on the first fingerprint
/// mismatch and only walk the adjacency/weight vectors when the
/// fingerprints agree. The mixer is constant-keyed, so fingerprints —
/// and therefore cache slot placement — are reproducible run to run.
#[derive(Clone, Debug)]
pub struct InstanceKey {
    /// Rolling hash of every other field, computed once in
    /// [`InstanceKey::new`].
    fingerprint: u64,
    vertices: usize,
    registers: u32,
    cheap: String,
    node_budget: u64,
    time_budget: Option<Duration>,
    weights: Vec<Cost>,
    /// Concatenated per-vertex adjacency rows (64 vertices per word).
    adjacency: Vec<u64>,
    /// The live intervals, when the instance carries them.
    intervals: Option<Vec<Interval>>,
}

/// One step of the constant-keyed rolling hash: absorb `v` into `h`
/// with a full splitmix64 finalizer, so single-bit input differences
/// avalanche across the state before the next word lands.
fn roll(h: u64, v: u64) -> u64 {
    let mut x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl InstanceKey {
    /// Fingerprints `instance` under the given query parameters.
    pub fn new(
        instance: &Instance,
        registers: u32,
        cheap: &str,
        node_budget: u64,
        time_budget: Option<Duration>,
    ) -> Self {
        let g = instance.graph();
        let n = g.vertex_count();
        // One contiguous copy of the packed adjacency matrix — same
        // layout as the old per-vertex row concatenation, so keys stay
        // byte-identical across cache versions.
        let adjacency = g.adjacency_words().to_vec();
        let weights = instance.weighted_graph().weights().to_vec();
        let intervals = instance.intervals().map(<[Interval]>::to_vec);

        let mut fp = roll(n as u64, registers as u64);
        fp = roll(fp, cheap.len() as u64);
        for b in cheap.bytes() {
            fp = roll(fp, b as u64);
        }
        fp = roll(fp, node_budget);
        fp = roll(
            fp,
            time_budget.map_or(u64::MAX, |d| d.as_nanos() as u64 | 1),
        );
        // A constant with no meaning of its own. Keys are exact, so it
        // moves no output, only which keys share a slot of this lossy
        // cache. Dropping it was measured on a 2-vCPU Xeon: `record`'s
        // warm jit-large hit rate rose from 0.88 to 0.93, but the debug
        // `lra-service` tests ran ~50% slower (4.0 s to 6.1 s over 8
        // alternating pairs) because their small corpora started to
        // evict each other. Neither move is noise, so it stays.
        fp = roll(fp, 1);
        for &w in &weights {
            fp = roll(fp, w);
        }
        for &word in &adjacency {
            fp = roll(fp, word);
        }
        match &intervals {
            None => fp = roll(fp, 0),
            Some(ivs) => {
                fp = roll(fp, ivs.len() as u64 | (1 << 63));
                for iv in ivs {
                    fp = roll(fp, (u64::from(iv.start) << 32) | u64::from(iv.end));
                }
            }
        }

        InstanceKey {
            fingerprint: fp,
            vertices: n,
            registers,
            cheap: cheap.to_string(),
            node_budget,
            time_budget,
            weights,
            adjacency,
            intervals,
        }
    }
}

impl PartialEq for InstanceKey {
    fn eq(&self, other: &Self) -> bool {
        // Fingerprint-first: a mismatch (the overwhelmingly common
        // case for distinct keys sharing a slot) is one u64 compare.
        // The exact field walk only runs on fingerprint agreement, so
        // a hit is still guaranteed to be the identical problem.
        self.fingerprint == other.fingerprint
            && self.vertices == other.vertices
            && self.registers == other.registers
            && self.node_budget == other.node_budget
            && self.time_budget == other.time_budget
            && self.cheap == other.cheap
            && self.weights == other.weights
            && self.adjacency == other.adjacency
            && self.intervals == other.intervals
    }
}

impl Eq for InstanceKey {}

impl Hash for InstanceKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Equal keys roll to equal fingerprints, so hashing the
        // fingerprint alone stays consistent with `Eq` and makes
        // every downstream hash O(1) instead of O(words).
        self.fingerprint.hash(state);
    }
}

/// Shards a [`ResultCache`] spreads its slots over. Independent locks,
/// so up to this many workers insert/look up without contending.
pub const CACHE_SHARDS: usize = 16;

/// A bounded, thread-safe, sharded memo table from [`InstanceKey`]s to
/// clonable results. See the [module docs](self).
pub struct ResultCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    slots_per_shard: usize,
}

struct Shard<V> {
    slots: Vec<Option<(InstanceKey, V)>>,
    stats: CacheStats,
}

/// Cumulative [`ResultCache`] counters. Hits and misses survive
/// evictions (the counters describe the cache's whole life, not the
/// current generation of entries); `evictions` counts every entry
/// overwritten by a slot collision or dropped by an explicit
/// [`ResultCache::clear`], so a long-running service can tell "cold
/// cache" from "thrashing cache" in its metrics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a memoized result.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries overwritten by slot collisions (and dropped by explicit
    /// [`ResultCache::clear`]) since construction.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when nothing was looked
    /// up yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counter deltas since an earlier snapshot (saturating, so a
    /// stale baseline never underflows).
    pub fn since(&self, baseline: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            evictions: self.evictions.saturating_sub(baseline.evictions),
        }
    }

    /// Component-wise sum — how per-shard counters fold into the
    /// aggregate [`ResultCache::stats`].
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits + other.hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
        }
    }
}

/// One deterministic hash per key, reused for both the shard pick and
/// the slot pick (disjoint bit regions so they don't correlate). This
/// is the fingerprint [`InstanceKey::new`] rolled once at
/// construction — no re-hash of the adjacency words per lookup — and
/// the mixer is constant-keyed, so slot placement is reproducible run
/// to run.
fn key_hash(key: &InstanceKey) -> u64 {
    key.fingerprint
}

impl<V: Clone> ResultCache<V> {
    /// An empty cache holding at most `capacity` entries, spread over
    /// up to `CACHE_SHARDS` (16) shards of fixed-size slot arrays.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity cache cannot hold anything");
        let shard_count = CACHE_SHARDS.min(capacity);
        let slots_per_shard = capacity.div_ceil(shard_count);
        let shards = (0..shard_count)
            .map(|_| {
                Mutex::new(Shard {
                    slots: vec![None; slots_per_shard],
                    stats: CacheStats::default(),
                })
            })
            .collect();
        ResultCache {
            shards,
            slots_per_shard,
        }
    }

    /// Shards this cache spreads its slots over.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total slots across all shards (≥ the requested capacity).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.slots_per_shard
    }

    /// The shard and in-shard slot a key lives in. The upper hash bits
    /// pick the shard, the lower bits the slot, so two keys sharing a
    /// slot index still usually land in different shards.
    fn place(&self, key: &InstanceKey) -> (usize, usize) {
        let h = key_hash(key);
        let shard = ((h >> 48) as usize) % self.shards.len();
        let slot = (h as usize) % self.slots_per_shard;
        (shard, slot)
    }

    /// Looks `key` up, counting a hit or miss on the key's shard (and,
    /// when the calling thread is collecting, in its trace).
    pub fn get(&self, key: &InstanceKey) -> Option<V> {
        let (si, slot) = self.place(key);
        let mut shard = self.shards[si].lock().expect("cache shard lock");
        let found = match &shard.slots[slot] {
            Some((k, v)) if k == key => {
                let v = v.clone();
                shard.stats.hits += 1;
                Some(v)
            }
            _ => {
                shard.stats.misses += 1;
                None
            }
        };
        drop(shard);
        crate::trace::cache_access(found.is_some());
        found
    }

    /// Memoizes `value` under `key`. The key's slot is overwritten
    /// unconditionally; displacing a *different* resident key counts
    /// one eviction (results are exact-keyed, so eviction never
    /// affects output bytes — only future hit rates).
    pub fn insert(&self, key: InstanceKey, value: V) {
        let (si, slot) = self.place(&key);
        let mut shard = self.shards[si].lock().expect("cache shard lock");
        if matches!(&shard.slots[slot], Some((k, _)) if k != &key) {
            shard.stats.evictions += 1;
        }
        shard.slots[slot] = Some((key, value));
    }

    /// Drops every memoized entry (counted as evictions), keeping the
    /// hit/miss history. Benchmarks use this to measure a cache-cold
    /// pass without restarting the process.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard lock");
            let occupied = shard.slots.iter().filter(|s| s.is_some()).count();
            shard.stats.evictions += occupied as u64;
            shard.slots.iter_mut().for_each(|s| *s = None);
        }
    }

    /// Entries currently memoized.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let shard = s.lock().expect("cache shard lock");
                shard.slots.iter().filter(|s| s.is_some()).count()
            })
            .sum()
    }

    /// `true` when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cumulative counters since construction (or the last
    /// [`ResultCache::reset_stats`]): the per-shard counters summed.
    pub fn stats(&self) -> CacheStats {
        self.shard_stats()
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merge(s))
    }

    /// One [`CacheStats`] per shard, in shard order. The aggregate
    /// [`ResultCache::stats`] is exactly their sum.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock").stats)
            .collect()
    }

    /// Zeroes every counter (tests and benchmark resets).
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard lock").stats = CacheStats::default();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lra_graph::{Graph, WeightedGraph};

    fn inst(edges: &[(usize, usize)], weights: Vec<Cost>) -> Instance {
        let g = Graph::from_edges(weights.len(), edges);
        Instance::from_weighted_graph(WeightedGraph::new(g, weights))
    }

    fn key_for(weight: Cost) -> InstanceKey {
        InstanceKey::new(&inst(&[], vec![weight]), 1, "LH", 0, None)
    }

    #[test]
    fn identical_instances_share_a_key() {
        let a = inst(&[(0, 1), (1, 2)], vec![1, 2, 3]);
        let b = inst(&[(1, 2), (0, 1)], vec![1, 2, 3]);
        let ka = InstanceKey::new(&a, 4, "LH", 100, None);
        let kb = InstanceKey::new(&b, 4, "LH", 100, None);
        assert_eq!(ka, kb);
    }

    #[test]
    fn any_parameter_difference_changes_the_key() {
        let a = inst(&[(0, 1), (1, 2)], vec![1, 2, 3]);
        let base = InstanceKey::new(&a, 4, "LH", 100, None);
        let diffs = [
            InstanceKey::new(&inst(&[(0, 1)], vec![1, 2, 3]), 4, "LH", 100, None),
            InstanceKey::new(&inst(&[(0, 1), (1, 2)], vec![1, 2, 4]), 4, "LH", 100, None),
            InstanceKey::new(&a, 5, "LH", 100, None),
            InstanceKey::new(&a, 4, "GC", 100, None),
            InstanceKey::new(&a, 4, "LH", 101, None),
            InstanceKey::new(&a, 4, "LH", 100, Some(Duration::from_millis(1))),
        ];
        for (i, k) in diffs.iter().enumerate() {
            assert_ne!(&base, k, "variant {i} must not collide");
        }
    }

    #[test]
    fn interval_endpoints_are_part_of_the_key() {
        // Same intersection graph and weights, different endpoints:
        // linear-scan tiers and the flow solver read the endpoints, so
        // these must be distinct problems.
        let a =
            Instance::from_intervals(vec![Interval::new(0, 2), Interval::new(1, 3)], vec![1, 1]);
        let b =
            Instance::from_intervals(vec![Interval::new(0, 10), Interval::new(1, 3)], vec![1, 1]);
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
        let ka = InstanceKey::new(&a, 1, "BLS", 100, None);
        let kb = InstanceKey::new(&b, 1, "BLS", 100, None);
        assert_ne!(ka, kb);
        // An interval instance never collides with the bare-graph
        // instance of the same intersection graph.
        let bare = inst(&[(0, 1)], vec![1, 1]);
        assert_ne!(ka, InstanceKey::new(&bare, 1, "BLS", 100, None));
    }

    #[test]
    fn get_insert_and_stats() {
        let cache: ResultCache<u64> = ResultCache::new(8);
        let a = inst(&[(0, 1)], vec![1, 2]);
        let k = InstanceKey::new(&a, 2, "LH", 10, None);
        assert_eq!(cache.get(&k), None);
        cache.insert(k.clone(), 42);
        assert_eq!(cache.get(&k), Some(42));
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        assert_eq!(cache.len(), 1);
        cache.reset_stats();
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn colliding_insert_overwrites_its_slot_and_counts_one_eviction() {
        // One shard, one slot: every key collides, so each distinct
        // insert displaces the resident entry in place.
        let cache: ResultCache<usize> = ResultCache::new(1);
        assert_eq!(cache.shard_count(), 1);
        assert_eq!(cache.capacity(), 1);
        let (a, b) = (key_for(1), key_for(2));
        cache.insert(a.clone(), 10);
        assert_eq!(cache.get(&a), Some(10));
        cache.insert(b.clone(), 20);
        assert_eq!(cache.len(), 1, "a full slot is overwritten, not grown");
        assert_eq!(cache.get(&b), Some(20));
        assert_eq!(cache.get(&a), None, "displaced key is gone");
        // Re-inserting the resident key is an update, not an eviction.
        cache.insert(b.clone(), 21);
        assert_eq!(cache.get(&b), Some(21));
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.hits, 3);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn stats_survive_evictions_and_explicit_clear() {
        let cache: ResultCache<usize> = ResultCache::new(1);
        let (a, b) = (key_for(50), key_for(51));
        cache.insert(a.clone(), 0);
        assert_eq!(cache.get(&a), Some(0)); // 1 hit
        assert_eq!(cache.get(&b), None); // 1 miss
        cache.insert(b.clone(), 1); // displaces `a`: 1 eviction
        let s = cache.stats();
        assert_eq!(
            s,
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 1
            },
            "hit/miss history must survive the eviction"
        );
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
        // An explicit clear evicts the remaining entry too.
        cache.clear();
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.is_empty());
        let delta = cache.stats().since(&s);
        assert_eq!(delta.evictions, 1);
        assert_eq!(delta.hits + delta.misses, 0);
    }

    #[test]
    fn per_shard_stats_sum_to_the_aggregate() {
        let cache: ResultCache<usize> = ResultCache::new(64);
        assert_eq!(cache.shard_count(), 16);
        let keys: Vec<InstanceKey> = (0..40).map(|w| key_for(w as Cost)).collect();
        for (i, k) in keys.iter().enumerate() {
            let _ = cache.get(k); // miss
            cache.insert(k.clone(), i);
        }
        for k in &keys {
            let _ = cache.get(k); // hit unless a collision displaced it
        }
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), cache.shard_count());
        let summed = per_shard
            .iter()
            .fold(CacheStats::default(), |acc, s| acc.merge(s));
        assert_eq!(summed, cache.stats());
        assert_eq!(summed.hits + summed.misses, 80, "every lookup was counted");
        assert!(
            per_shard.iter().filter(|s| s.hits + s.misses > 0).count() > 1,
            "40 distinct keys must spread over more than one shard"
        );
    }

    #[test]
    fn concurrent_hammering_preserves_get_insert_coherence() {
        use std::sync::Arc;
        // N threads racing gets and inserts over an overlapping key
        // space: every hit must return the value inserted under that
        // exact key (the slot holds the key alongside the value, so a
        // racing overwrite can only yield a miss, never a wrong value).
        let cache: Arc<ResultCache<u64>> = Arc::new(ResultCache::new(32));
        let keys: Arc<Vec<InstanceKey>> = Arc::new((0..48).map(|w| key_for(w as Cost)).collect());
        let threads = 4;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let keys = Arc::clone(&keys);
                std::thread::spawn(move || {
                    for round in 0..200u64 {
                        for (i, k) in keys.iter().enumerate() {
                            if (i + t + round as usize).is_multiple_of(3) {
                                cache.insert(k.clone(), i as u64 * 1000);
                            } else if let Some(v) = cache.get(k) {
                                assert_eq!(
                                    v,
                                    i as u64 * 1000,
                                    "hit on key {i} returned another key's value"
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("hammer thread panicked");
        }
        let s = cache.stats();
        assert!(s.hits > 0 && s.misses > 0);
        assert_eq!(
            s,
            cache
                .shard_stats()
                .iter()
                .fold(CacheStats::default(), |acc, x| acc.merge(x))
        );
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        let _ = ResultCache::<u8>::new(0);
    }
}
