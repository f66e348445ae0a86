//! # cocco-telemetry — observation-only instrumentation substrate
//!
//! Structured tracing (spans + events), a metrics registry (counters,
//! gauges, fixed-bucket histograms with p50/p90/p99 extraction), and a
//! coarse per-phase wall-time profile — shared by the engine, the
//! searchers, the cost model, the facade, and the CLI.
//!
//! Three design rules, all load-bearing:
//!
//! 1. **Handle-passed, no globals.** [`Telemetry`] is an
//!    `Option<Arc<Sink>>` clone handed down at construction time
//!    (`Engine::with_telemetry`, `Cocco::with_telemetry`, …). Disabled
//!    is the default, and a disabled handle costs one branch per
//!    operation — no clock read, no lock, no allocation — so the 47 ns
//!    cached-score leaf is unaffected.
//! 2. **Observation-only.** Nothing read from a metric, span, or event
//!    ever feeds back into a search decision; seeded runs are
//!    bit-identical with telemetry enabled, disabled, or at different
//!    thread counts (asserted by `tests/tests/telemetry.rs`).
//! 3. **Sole timing authority.** Every wall-clock read in the
//!    workspace lives here ([`Stopwatch`]); the `cocco-audit` D3 rule
//!    plus `audit.toml` enforce that machine-checkably. Other crates
//!    measure by holding a `Stopwatch`, never by calling
//!    `Instant::now` themselves.
//!
//! ## Naming scheme
//!
//! Metric and event names are dot-separated `subsystem.object.metric`
//! paths, lower-case, with histograms suffixed by their unit:
//!
//! - `engine.batch.latency_ns`, `engine.pool.queue_wait_ns`
//! - `engine.batch.wall_ns` (gauge; the facade's `eval` phase): summed
//!   batch wall time, covering repair, cache probe and scoring of every
//!   batch job
//! - `engine.threads` (gauge; the resolved worker count) and
//!   `engine.evals` (partition-scoring requests: roll-up hits + misses)
//! - `engine.pool.dispatched` / `.chunks` / `.inline_batches` (jobs
//!   handed to the pool, the claim units they were split into, and
//!   batches run on the caller — one unit, or a one-worker engine)
//! - `engine.cache.partition.hits` / `.misses` / `.evictions` and the
//!   `.entries` gauge (and `…cache.subgraph.*` for the second level)
//! - `engine.subgraph.scorings` (subgraph terms computed fresh — the
//!   term cache's misses)
//! - `engine.hot_allocs` (the hot-path allocation tripwire: statistics
//!   misses that had to sort an out-of-order member list; 0 in
//!   production) and `engine.arena.bytes` / `.reuses` / `.grows`
//!   (per-worker scoring scratch)
//! - `search.step_ns` (span), `search.improvement` (event),
//!   `search.budget.used` (gauge)
//! - `sim.subgraph_stats_ns` (derivation latency on stats-cache misses)

mod clock;
mod metrics;
mod phase;
mod sink;

pub use clock::Stopwatch;
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricEntry, MetricsRegistry, MetricsSnapshot,
    LATENCY_BOUNDS_NS,
};
pub use phase::{Phase, PhaseGuard, PhaseProfile, PhaseSnapshot};
pub use sink::{Event, EventValue, SpanGuard, Telemetry, DEFAULT_EVENT_CAPACITY};
