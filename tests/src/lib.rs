//! Integration test crate for the Cocco workspace (tests live in `tests/tests/`).

/// Engine counters fixed by the funding sequence alone: every batch probes
/// the cache as the previous batch end left it, so hits and misses match
/// at any thread count and with telemetry on or off.
pub const CACHE_COUNTERS: [&str; 5] = [
    "engine.evals",
    "engine.cache.partition.hits",
    "engine.cache.partition.misses",
    "engine.cache.subgraph.hits",
    "engine.cache.subgraph.misses",
];
