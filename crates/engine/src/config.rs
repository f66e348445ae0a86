//! Engine configuration: worker-thread policy and cache bounding.

use serde::{Deserialize, Serialize};

/// How many worker threads the engine uses for batch evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ThreadCount {
    /// Use the machine's available parallelism (capped at
    /// [`EngineConfig::AUTO_CAP`]).
    Auto,
    /// Exactly this many workers (`1` = serial evaluation).
    Fixed(u32),
}

/// Configuration of the evaluation engine: how many workers score a
/// batch, and how many cache entries it may keep.
///
/// Results are **identical at any thread count and cache capacity** — the
/// engine assigns budget samples and records trace points in input order
/// regardless of which worker scores which genome, and evicted cache
/// entries are recomputed to bit-identical values — so both fields are
/// purely about wall-clock and memory.
///
/// # Examples
///
/// ```
/// use cocco_engine::EngineConfig;
///
/// assert_eq!(EngineConfig::serial().resolved_threads(), 1);
/// assert_eq!(EngineConfig::with_threads(4).resolved_threads(), 4);
/// assert!(EngineConfig::auto().resolved_threads() >= 1);
/// let bounded = EngineConfig::auto().with_cache_capacity(10_000);
/// assert_eq!(bounded.cache_capacity, 10_000);
/// ```
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Worker-thread policy.
    pub threads: ThreadCount,
    /// Upper bound on cached evaluation entries across the two cache
    /// levels (the memo-carrying partition level's share is additionally
    /// capped — see `EvalCache::with_capacity`). When a level fills up, a
    /// generation sweep evicts the entries not touched since the previous
    /// sweep (evictions are counted in `EngineStats`). Defaults to
    /// [`DEFAULT_CACHE_CAPACITY`](Self::DEFAULT_CACHE_CAPACITY) — generous
    /// enough that ordinary explorations never evict.
    pub cache_capacity: usize,
}

impl EngineConfig {
    /// Upper bound on `Auto` threads: evaluation batches are population-
    /// sized (~100 genomes), where more workers than this only add
    /// scheduling overhead.
    pub const AUTO_CAP: usize = 8;

    /// Default [`cache_capacity`](Self::cache_capacity): one million
    /// entries, far above what a 50k-sample exploration produces.
    pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 20;

    /// Auto-detected thread count.
    pub fn auto() -> Self {
        Self {
            threads: ThreadCount::Auto,
            cache_capacity: Self::DEFAULT_CACHE_CAPACITY,
        }
    }

    /// Serial evaluation (one worker, no spawned threads).
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// A fixed worker count; `0` is treated as `1`.
    pub fn with_threads(threads: u32) -> Self {
        Self {
            threads: ThreadCount::Fixed(threads.max(1)),
            ..Self::auto()
        }
    }

    /// Bounds the evaluation cache to `capacity` total entries (clamped to
    /// a small minimum so the sharded levels stay functional). Evictions
    /// never change results — evicted entries are recomputed bit-identical.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// The concrete worker count this configuration resolves to on the
    /// current machine.
    pub fn resolved_threads(&self) -> usize {
        match self.threads {
            ThreadCount::Fixed(n) => (n as usize).max(1),
            ThreadCount::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(Self::AUTO_CAP),
        }
    }

    /// Jobs per pool claim for a batch of `jobs`: `ceil(jobs / (threads *
    /// 4))`, at least 1. Four claims per worker keep the tail balanced
    /// while one claim covers several jobs. Claims never reorder results —
    /// jobs within a claim run in index order and the caller stores
    /// results per index.
    pub fn resolved_chunk(&self, jobs: usize) -> usize {
        jobs.div_ceil(self.resolved_threads() * 4).max(1)
    }
}

impl Default for EngineConfig {
    /// Auto-detected parallelism (determinism makes this safe everywhere).
    fn default() -> Self {
        Self::auto()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_counts_resolve_exactly() {
        assert_eq!(EngineConfig::with_threads(3).resolved_threads(), 3);
        assert_eq!(EngineConfig::with_threads(0).resolved_threads(), 1);
        assert_eq!(EngineConfig::serial().resolved_threads(), 1);
    }

    #[test]
    fn cache_capacity_defaults_generous() {
        assert_eq!(
            EngineConfig::auto().cache_capacity,
            EngineConfig::DEFAULT_CACHE_CAPACITY
        );
        assert_eq!(
            EngineConfig::auto().with_cache_capacity(64).cache_capacity,
            64
        );
    }

    #[test]
    fn auto_is_positive_and_capped() {
        let n = EngineConfig::auto().resolved_threads();
        assert!(n >= 1);
        assert!(n <= EngineConfig::AUTO_CAP);
    }

    #[test]
    fn chunk_sizes_resolve_sanely() {
        // Four claims per worker, never zero.
        let four = EngineConfig::with_threads(4);
        assert_eq!(four.resolved_chunk(64), 4);
        assert_eq!(four.resolved_chunk(100), 7);
        assert_eq!(four.resolved_chunk(16), 1);
        assert_eq!(four.resolved_chunk(0), 1);
        assert_eq!(EngineConfig::serial().resolved_chunk(7), 2);
    }

    #[test]
    fn serde_round_trip() {
        use serde::{Deserialize, Serialize};
        for config in [
            EngineConfig::auto(),
            EngineConfig::serial(),
            EngineConfig::with_threads(6),
            EngineConfig::auto().with_cache_capacity(12_345),
        ] {
            let back = EngineConfig::from_value(&config.to_value()).unwrap();
            assert_eq!(back, config);
        }
    }
}
