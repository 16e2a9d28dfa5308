//! What every workload shares: the seeded generator, the per-run
//! bookkeeping of timed operations and their verdicts, and the process-
//! wide memo-cache controls.

use std::time::Instant;

use fusecu::pipeline::DiskCacheSession;
use fusecu::search::DataflowCache;

use crate::check::Check;
use crate::stats::Latencies;
use crate::trace::Tracer;

/// SplitMix64: a small, seedable generator (the inputs must be the same
/// for the same seed on every machine).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_F05E_C0DE_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Log-uniform in `lo..=hi`: every octave is equally likely.
    pub fn log_range(&mut self, lo: u64, hi: u64) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = (lo as f64) * ((hi as f64) / (lo as f64)).powf(u);
        (v.round() as u64).clamp(lo, hi)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

/// Drops every entry of every process-wide memo cache (counters kept).
pub fn evict_all_caches() {
    DataflowCache::global().evict_all();
    fusecu::arch::op_cache_evict_all();
    fusecu::fusion::optimizer::pair_cache_evict_all();
    fusecu::fusion::planner::plan_cache_evict_all();
    fusecu::fusion::chain::chain_cache_evict_all();
    fusecu::fusion::graph_planner::graph_cache_evict_all();
}

/// Hits, misses and entries summed over every memo cache, as
/// `DiskCacheSession::stats_sections()` reports them, plus the principle
/// section's misses (each one a principle computation).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheTally {
    pub hits: u64,
    pub misses: u64,
    pub entries: u64,
    pub principle_misses: u64,
}

impl CacheTally {
    pub fn now() -> CacheTally {
        // The sections are process-wide; a disabled session reads them
        // without touching the disk.
        let sections = DiskCacheSession::disabled().stats_sections();
        let principle_misses = sections
            .iter()
            .find(|s| s.name == "principle")
            .map_or(0, |s| s.stats.misses);
        sections.iter().fold(
            CacheTally {
                principle_misses,
                ..CacheTally::default()
            },
            |t, s| CacheTally {
                hits: t.hits + s.stats.hits,
                misses: t.misses + s.stats.misses,
                entries: t.entries + s.entries as u64,
                ..t
            },
        )
    }
}

/// Most failure reasons a run prints to stderr.
const REPORTED_FAILURES: usize = 5;

/// The bookkeeping of one measured run.
pub struct Ctx {
    pub tracer: Tracer,
    /// Latency samples of untraced operations.
    pub plain: Latencies,
    /// Latency samples of traced operations.
    pub traced: Latencies,
    pub attempted: u64,
    pub failed: u64,
    /// Failures other than the known-faulty probes.
    pub unexpected: u64,
    /// Hit/miss deltas accumulated over traced operations only.
    pub cache: CacheTally,
    pub max_entries: u64,
}

impl Ctx {
    /// `weight` is the number of operations one latency sample stands for.
    pub fn new(weight: u64) -> Ctx {
        Ctx {
            tracer: Tracer::new(),
            plain: Latencies::with_weight(weight),
            traced: Latencies::with_weight(weight),
            attempted: 0,
            failed: 0,
            unexpected: 0,
            cache: CacheTally::default(),
            max_entries: 0,
        }
    }

    /// Runs one timed operation: `f` gets the tracer, its wall time is
    /// recorded as one latency sample, and while tracing the memo-cache
    /// traffic it caused is added to the cache tally.
    pub fn timed<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.tracer.begin_op();
        let on = self.tracer.is_on();
        let before = if on {
            CacheTally::now()
        } else {
            CacheTally::default()
        };
        let t0 = Instant::now();
        let r = f(&mut self.tracer);
        let ns = t0.elapsed().as_nanos() as u64;
        if on {
            let after = CacheTally::now();
            self.cache.hits += after.hits - before.hits;
            self.cache.misses += after.misses - before.misses;
            self.tracer.count(
                "dataflow.principle_calls",
                after.principle_misses - before.principle_misses,
            );
            self.max_entries = self.max_entries.max(after.entries);
            self.traced.push(ns);
        } else {
            self.plain.push(ns);
        }
        r
    }

    /// Records the verdict of `ops` operations judged together. A failure
    /// the caller has identified as the known fault counts as failed but
    /// not as unexpected.
    pub fn verdict(&mut self, ops: u64, check: Check, known_fault: bool) {
        self.attempted += ops;
        if let Err(why) = check {
            self.failed += ops;
            if !known_fault {
                self.unexpected += ops;
            }
            if self.failed <= REPORTED_FAILURES as u64 {
                eprintln!("perfbench: failed operation: {why}");
            }
        }
    }

    /// Seconds of timed work so far, traced and untraced.
    pub fn busy_s(&self) -> f64 {
        self.plain.busy_s() + self.traced.busy_s()
    }
}

/// Every check of one operation, stopping at the first violation.
pub fn all(checks: impl IntoIterator<Item = Check>) -> Check {
    checks.into_iter().collect()
}
