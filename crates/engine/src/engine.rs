//! The engine core: memoized scoring plus run statistics.
//!
//! Scoring is **subgraph-granular**: a partition's objective terms are
//! composed from per-subgraph scores that are memoized individually (see
//! [`EvalCache`]). In the graph-level execution scheme the only coupling
//! between subgraphs is the successor's weight prefetch, so each term is a
//! pure function of `(members, next_wgt, buffer, options)` — exactly its
//! cache key — and every subgraph a mutation left untouched is answered by
//! the term cache; only the misses are scored. Cached composition is
//! bit-identical to the full evaluator (`Evaluator::eval_partition`, the
//! test oracle) by construction: `Evaluator::eval_subgraph` is a pure
//! function and the roll-up is an in-order fold.
//!
//! Cache identity is carried by 128-bit subgraph fingerprints
//! ([`NodeSetFp`]), derived once per scoring call from the flat partition
//! layout into the claimed scratch slot. No evaluation path allocates a
//! key or re-walks a member vector to probe the cache.

use crate::arena::{ComposeScratch, EvalArena, ScratchPool, Staged};
use crate::cache::{EvalCache, EvalKey};
use crate::config::EngineConfig;
use crate::pool::EnginePool;
use cocco_graph::{NodeId, NodeSetFp};
use cocco_partition::{Partition, PartitionLayout};
use cocco_sim::{BufferConfig, CostMetric, EvalOptions, Evaluator, SubgraphStats};
use cocco_telemetry::{Histogram, MetricsSnapshot, Stopwatch, Telemetry};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// One memoized partition evaluation: everything needed to reproduce the
/// objective cost under *any* objective (metric × Formula 1/2), so one
/// cache entry serves partition-only and co-exploration searches alike.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoredEval {
    /// Total DRAM traffic in bytes.
    pub ema_bytes: u64,
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Total bytes of the evaluated buffer configuration (Formula 2's
    /// `BUF_SIZE`).
    pub buffer_bytes: u64,
    /// Whether every subgraph fits the buffer configuration.
    pub fits: bool,
    /// `true` when the evaluator failed outright (a config bug, not a
    /// genuine misfit); such evaluations score infinite.
    pub error: bool,
}

impl ScoredEval {
    /// The raw metric value (infinite on evaluator errors).
    pub fn metric(&self, metric: CostMetric) -> f64 {
        if self.error {
            return f64::INFINITY;
        }
        match metric {
            CostMetric::Ema => self.ema_bytes as f64,
            CostMetric::Energy => self.energy_pj,
        }
    }

    /// The objective cost: Formula 1 (`alpha = None`) or Formula 2
    /// (`alpha = Some(α)`); infinite when the partition does not fit or the
    /// evaluator errored.
    pub fn cost(&self, metric: CostMetric, alpha: Option<f64>) -> f64 {
        if self.error || !self.fits {
            return f64::INFINITY;
        }
        match alpha {
            None => self.metric(metric),
            Some(alpha) => self.buffer_bytes as f64 + alpha * self.metric(metric),
        }
    }

    /// The evaluator-error sentinel under `buffer`.
    fn errored(buffer: &BufferConfig) -> Self {
        Self {
            ema_bytes: 0,
            energy_pj: 0.0,
            buffer_bytes: buffer.total_bytes(),
            fits: false,
            error: true,
        }
    }
}

/// A caught worker-job panic from [`Engine::try_dispatch`]: the panic
/// payload rendered as text. The engine itself remains fully usable — the
/// caller decides how to degrade (quarantine the batch, refund its
/// funding, surface a structured error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DispatchPanic {
    /// The panic payload (`&str`/`String` payloads verbatim; anything else
    /// as an opaque marker).
    pub message: String,
}

impl std::fmt::Display for DispatchPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "worker panic: {}", self.message)
    }
}

impl std::error::Error for DispatchPanic {}

/// How a freshly computed cache entry reaches the shared [`EvalCache`].
#[derive(Debug)]
enum Publish<'a> {
    /// Insert into the shared cache right away — the policy of every
    /// direct scoring entry point, so callers outside a batch observe
    /// their entries immediately.
    Immediate,
    /// Stage in the claimed slot's queue, tagged with the funding-order
    /// sequence number of the job that computed it; the engine publishes
    /// all staged entries in ascending sequence order at the batch-end
    /// quiescent point of [`Engine::dispatch`].
    Deferred(u64, &'a mut Staged),
}

/// Renders a panic payload as text (the same downcasts the std hook uses).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The additive objective terms of one subgraph — the unit the term cache
/// holds. A partition's [`ScoredEval`] is the
/// in-order sum (`ema_bytes`, `energy_pj`) and conjunction (`fits`) of its
/// subgraphs' scores.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubgraphScore {
    /// DRAM traffic of this subgraph in bytes.
    pub ema_bytes: u64,
    /// Energy of this subgraph in picojoules.
    pub energy_pj: f64,
    /// Whether this subgraph fits the buffer configuration.
    pub fits: bool,
}

/// The parallel, memoized evaluation engine.
///
/// One engine is shared (via `Arc`) by every context derived from a search:
/// the worker pool parallelizes batch evaluation, the two-level cache
/// memoizes per-subgraph terms and whole-partition roll-ups across
/// searchers, generations and two-step inner runs, and
/// [`metrics`](Engine::metrics) feeds the exploration report.
///
/// # Examples
///
/// ```
/// use cocco_engine::{Engine, EngineConfig};
/// use cocco_partition::Partition;
/// use cocco_sim::{AcceleratorConfig, BufferConfig, EvalOptions, Evaluator};
///
/// let g = cocco_graph::models::chain(4);
/// let eval = Evaluator::new(&g, AcceleratorConfig::default());
/// let engine = Engine::new(EngineConfig::serial());
/// let whole = Partition::from_assignment(vec![0; g.len()]);
/// let buffer = BufferConfig::shared(1 << 20);
/// let a = engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
/// let b = engine.score_partition(&eval, &whole, &buffer, EvalOptions::default());
/// assert_eq!(a, b);
/// assert_eq!(engine.metrics().counter("engine.cache.partition.hits"), 1);
/// ```
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    pool: EnginePool,
    cache: EvalCache,
    /// Per-worker scoring scratch (layout arenas + composition buffers);
    /// one more slot than worker threads, claimed per scoring call.
    scratch: ScratchPool,
    wall_nanos: AtomicU64,
    /// High-water mark of any evaluator's canonicalize-fallback count
    /// observed by this engine (see
    /// `Evaluator::stats_canonicalize_fallbacks`); 0 in production,
    /// exported as the `engine.hot_allocs` tripwire.
    stats_fallbacks: AtomicU64,
    /// Jobs handed to [`dispatch`](Self::dispatch)
    /// (`engine.pool.dispatched`).
    dispatched: AtomicU64,
    /// Dispatch units (`engine.pool.chunks`): the index claims a batch was
    /// split into, each covering [`chunk_len`] consecutive jobs.
    chunks: AtomicU64,
    /// Batches the pool ran on the caller's thread — a batch of one
    /// dispatch unit, or any batch of a one-worker engine
    /// (`engine.pool.inline_batches`).
    inline_batches: AtomicU64,
    /// Observation sink shared with the pool and cache; disabled by
    /// default ([`Engine::new`]), so nothing below ever pays more than a
    /// branch for it.
    telemetry: Telemetry,
    /// Per-batch dispatch latency (`engine.batch.latency_ns`); `None`
    /// when telemetry is disabled.
    batch_latency: Option<Histogram>,
    /// Per-batch scratch growth (`engine.batch.alloc_bytes`); `None`
    /// when telemetry is disabled.
    alloc_bytes: Option<Histogram>,
}

/// Bucket bounds of the `engine.batch.alloc_bytes` histogram: powers of
/// two from 64 B to 64 MiB (plus the automatic overflow bucket). Warmed
/// dispatches record 0 — growth only appears while arenas warm up.
const ALLOC_BOUNDS_BYTES: [u64; 21] = [
    1 << 6,
    1 << 7,
    1 << 8,
    1 << 9,
    1 << 10,
    1 << 11,
    1 << 12,
    1 << 13,
    1 << 14,
    1 << 15,
    1 << 16,
    1 << 17,
    1 << 18,
    1 << 19,
    1 << 20,
    1 << 21,
    1 << 22,
    1 << 23,
    1 << 24,
    1 << 25,
    1 << 26,
];

impl Engine {
    /// Creates an engine with the given thread/pool/cache policy and an
    /// empty cache. Telemetry is disabled — the zero-overhead default.
    pub fn new(config: EngineConfig) -> Self {
        Self::with_telemetry(config, Telemetry::disabled())
    }

    /// Like [`new`](Self::new), but instrumented: batch dispatches feed
    /// the `engine.batch.latency_ns` histogram and an `engine.batch`
    /// event, the pool records queue waits, and cache sweeps emit
    /// events. All of it is observation-only — scores, cache contents
    /// and scheduling are bit-identical to an uninstrumented engine.
    pub fn with_telemetry(config: EngineConfig, telemetry: Telemetry) -> Self {
        let pool = EnginePool::with_telemetry(&config, &telemetry);
        Self {
            config,
            cache: EvalCache::with_capacity_telemetry(config.cache_capacity, telemetry.clone()),
            scratch: ScratchPool::new(pool.threads() + 1),
            pool,
            wall_nanos: AtomicU64::new(0),
            stats_fallbacks: AtomicU64::new(0),
            dispatched: AtomicU64::new(0),
            chunks: AtomicU64::new(0),
            inline_batches: AtomicU64::new(0),
            batch_latency: telemetry.latency_histogram("engine.batch.latency_ns"),
            alloc_bytes: telemetry
                .registry()
                .map(|r| r.histogram("engine.batch.alloc_bytes", &ALLOC_BOUNDS_BYTES)),
            telemetry,
        }
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The telemetry handle this engine records through (disabled unless
    /// constructed via [`with_telemetry`](Self::with_telemetry)).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The worker pool.
    pub fn pool(&self) -> &EnginePool {
        &self.pool
    }

    /// The memoization cache.
    pub fn cache(&self) -> &EvalCache {
        &self.cache
    }

    /// Scores an ordered partition under `buffer`/`options`, memoized.
    /// The partition's member lists are materialized into this call's
    /// scratch slot as a flat [`PartitionLayout`] built without
    /// per-candidate allocations.
    ///
    /// Evaluator errors (including a partition with no subgraphs) are
    /// folded into the result (`error = true`, so [`ScoredEval::cost`] is
    /// infinite) and memoized like any other evaluation.
    pub fn score_partition(
        &self,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> ScoredEval {
        self.score_partition_publish(evaluator, partition, buffer, options, None)
    }

    /// Like [`score_partition`](Self::score_partition), but a freshly
    /// computed entry is *staged* in the claimed slot's queue under
    /// `seq` — the candidate's funding-order sequence number — instead of
    /// being inserted into the shared cache mid-batch. The engine
    /// publishes every staged entry in ascending `seq` order at the end
    /// of the enclosing [`dispatch`](Self::dispatch), so the shared
    /// cache's insertion history is independent of thread count, chunking
    /// and slot assignment. Call this only from jobs running under
    /// `dispatch`/[`try_dispatch`](Self::try_dispatch).
    pub fn score_partition_deferred(
        &self,
        seq: u64,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> ScoredEval {
        self.score_partition_publish(evaluator, partition, buffer, options, Some(seq))
    }

    fn score_partition_publish(
        &self,
        evaluator: &Evaluator<'_>,
        partition: &Partition,
        buffer: &BufferConfig,
        options: EvalOptions,
        seq: Option<u64>,
    ) -> ScoredEval {
        self.scratch.with_slot(|arena| {
            let EvalArena {
                layout,
                compose,
                staged,
            } = arena;
            let mut publish = match seq {
                Some(seq) => Publish::Deferred(seq, staged),
                None => Publish::Immediate,
            };
            let view = layout.build_from_partition(partition);
            self.score_inner(evaluator, &view, buffer, options, compose, &mut publish)
        })
    }

    /// Scores one subgraph as a standalone single-subgraph partition
    /// (`next_wgt = 0`) through the subgraph-term cache, without
    /// allocating an owned partition — the additive Formula-1 term used by
    /// the greedy/DP/enumeration hot loops.
    pub fn score_single(
        &self,
        evaluator: &Evaluator<'_>,
        members: &[NodeId],
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> ScoredEval {
        if members.is_empty() {
            return ScoredEval::errored(buffer);
        }
        let fp = NodeSetFp::of_members(members);
        let key = EvalKey::subgraph(evaluator.fingerprint(), fp, 0, buffer, options);
        let term = match self.cache.get_subgraph(&key) {
            Some(term) => term,
            None => match evaluator.subgraph_stats_keyed(fp, members) {
                Ok(stats) => {
                    let term = self.compute_term(evaluator, &stats, 0, buffer, options);
                    self.cache.insert_subgraph(key, term);
                    term
                }
                Err(_) => return ScoredEval::errored(buffer),
            },
        };
        ScoredEval {
            ema_bytes: term.ema_bytes,
            energy_pj: term.energy_pj,
            buffer_bytes: buffer.total_bytes(),
            fits: term.fits,
            error: false,
        }
    }

    /// Publishes a freshly computed roll-up per `publish` policy: staged
    /// for the batch-end drain, or inserted into the shared cache right
    /// away.
    fn publish_partition(&self, publish: &mut Publish<'_>, key: EvalKey, scored: ScoredEval) {
        match publish {
            Publish::Deferred(seq, staged) => staged.partitions.push((*seq, key, scored)),
            Publish::Immediate => self.cache.insert_partition(key, scored),
        }
    }

    /// Publishes a freshly computed subgraph term per `publish` policy.
    fn publish_subgraph(&self, publish: &mut Publish<'_>, key: EvalKey, term: SubgraphScore) {
        match publish {
            Publish::Deferred(seq, staged) => staged.subgraphs.push((*seq, key, term)),
            Publish::Immediate => self.cache.insert_subgraph(key, term),
        }
    }

    /// Derives the partition key, probes the shared cache and, on a
    /// miss, composes the score from per-subgraph terms and publishes it
    /// per `publish`.
    fn score_inner(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &PartitionLayout<'_>,
        buffer: &BufferConfig,
        options: EvalOptions,
        scratch: &mut ComposeScratch,
        publish: &mut Publish<'_>,
    ) -> ScoredEval {
        // Subgraph fingerprints, one per position: the only place key
        // material is derived — everything downstream folds these
        // fixed-size values.
        scratch.fps.clear();
        scratch
            .fps
            .extend(subgraphs.iter().map(NodeSetFp::of_members));
        let key = EvalKey::partition(
            evaluator.fingerprint(),
            scratch.fps.iter().copied(),
            buffer,
            options,
        );
        if let Some(cached) = self.cache.get_partition(&key) {
            self.note_stats_fallbacks(evaluator);
            return cached;
        }
        let scored = self.compose(evaluator, subgraphs, buffer, options, scratch, publish);
        self.publish_partition(publish, key, scored);
        self.note_stats_fallbacks(evaluator);
        scored
    }

    /// Folds the evaluator's canonicalize-fallback count into the
    /// engine's `hot_allocs` tripwire (high-water mark across the
    /// evaluators this engine has scored with; free while the count stays
    /// 0, the production invariant).
    fn note_stats_fallbacks(&self, evaluator: &Evaluator<'_>) {
        let fallbacks = evaluator.stats_canonicalize_fallbacks();
        if fallbacks != 0 {
            self.stats_fallbacks.fetch_max(fallbacks, Ordering::Relaxed);
        }
    }

    /// Computes one fresh `eval_subgraph` term, counted as a full scoring
    /// via the subgraph cache's miss counter (the caller just missed).
    fn compute_term(
        &self,
        evaluator: &Evaluator<'_>,
        stats: &SubgraphStats,
        next_wgt: u64,
        buffer: &BufferConfig,
        options: EvalOptions,
    ) -> SubgraphScore {
        let part = evaluator.eval_subgraph(stats, next_wgt, buffer, options);
        SubgraphScore {
            ema_bytes: part.ema_bytes,
            energy_pj: part.energy_pj,
            fits: part.fits,
        }
    }

    /// Composes a partition score from per-subgraph terms, answering each
    /// from the subgraph-term cache and scoring the misses. The fold runs
    /// in execution order, so the sums are bit-identical to
    /// `Evaluator::eval_partition`.
    fn compose(
        &self,
        evaluator: &Evaluator<'_>,
        subgraphs: &PartitionLayout<'_>,
        buffer: &BufferConfig,
        options: EvalOptions,
        scratch: &mut ComposeScratch,
        publish: &mut Publish<'_>,
    ) -> ScoredEval {
        // A layout built from a `Partition` never holds an empty subgraph;
        // an empty partition is the one structural error left.
        let n = subgraphs.num_subgraphs();
        if n == 0 {
            return ScoredEval::errored(buffer);
        }
        // Every position's (evaluator-cached) statistics: their weight
        // footprints drive the next_wgt chain.
        scratch.stats.clear();
        for (i, &fp) in scratch.fps.iter().enumerate() {
            match evaluator.subgraph_stats_keyed(fp, subgraphs.subgraph(i)) {
                Ok(stats) => scratch.stats.push(stats),
                Err(_) => return ScoredEval::errored(buffer),
            }
        }
        let mut ema_bytes: u64 = 0;
        let mut energy_pj: f64 = 0.0;
        let mut fits = true;
        for i in 0..n {
            let next_wgt = scratch.stats.get(i + 1).map_or(0, |s| s.ema_wgt_bytes);
            let key = EvalKey::subgraph(
                evaluator.fingerprint(),
                scratch.fps[i],
                next_wgt,
                buffer,
                options,
            );
            let score = match self.cache.get_subgraph(&key) {
                Some(term) => term,
                None => {
                    let term =
                        self.compute_term(evaluator, &scratch.stats[i], next_wgt, buffer, options);
                    self.publish_subgraph(publish, key, term);
                    term
                }
            };
            ema_bytes += score.ema_bytes;
            energy_pj += score.energy_pj;
            fits &= score.fits;
        }
        ScoredEval {
            ema_bytes,
            energy_pj,
            buffer_bytes: buffer.total_bytes(),
            fits,
            error: false,
        }
    }

    /// Runs `job(i)` for every `i` in `0..jobs` on the worker pool,
    /// timing the batch: the elapsed wall time accumulates into the
    /// `engine.batch.wall_ns` gauge, and — when telemetry is enabled — also
    /// lands in the `engine.batch.latency_ns` histogram plus an
    /// `engine.batch` event. This is the one timed dispatch path; search
    /// code calls this instead of timing `pool().run` itself, which is
    /// what lets the audit confine wall-clock reads to `cocco-telemetry`.
    ///
    /// Jobs are claimed in units of `ceil(jobs / (threads * 4))`
    /// consecutive indices; within a unit they run in index order, so a
    /// one-worker engine runs the whole batch in index order on the
    /// caller.
    pub fn dispatch(&self, jobs: usize, job: impl Fn(usize) + Sync) {
        // Scratch growth across the batch (dispatch boundaries are
        // quiescent, so the slot sum is exact); warmed batches record 0.
        let bytes_before = self.alloc_bytes.as_ref().map(|_| self.scratch.bytes());
        let sw = Stopwatch::start();
        let chunk = chunk_len(jobs, self.pool.threads());
        let units = jobs.div_ceil(chunk);
        self.dispatched.fetch_add(jobs as u64, Ordering::Relaxed);
        self.chunks.fetch_add(units as u64, Ordering::Relaxed);
        if units > 0 && self.pool.threads().min(units) == 1 {
            self.inline_batches.fetch_add(1, Ordering::Relaxed);
        }
        self.pool.run(units, |unit| {
            let start = unit * chunk;
            for i in start..(start + chunk).min(jobs) {
                job(i);
            }
        });
        // Batch-end quiescent point: publish every entry the jobs staged
        // in their slots' queues, in funding order.
        self.drain_published();
        let nanos = sw.elapsed_nanos();
        self.wall_nanos.fetch_add(nanos, Ordering::Relaxed);
        if let Some(hist) = &self.batch_latency {
            hist.record(nanos);
            self.telemetry.emit("engine.batch", || {
                vec![("jobs", jobs.into()), ("nanos", nanos.into())]
            });
        }
        if let (Some(hist), Some(before)) = (&self.alloc_bytes, bytes_before) {
            hist.record(self.scratch.bytes().saturating_sub(before));
        }
    }

    /// Like [`dispatch`](Self::dispatch), but a panic from any job — a
    /// worker dying on a poisoned invariant, an injected fault — is caught
    /// and returned as a structured [`DispatchPanic`] instead of unwinding
    /// through the caller. The pool already delivers worker panics to the
    /// dispatching thread (inline batches unwind directly; workers forward
    /// the payload and stay alive), so catching here covers both — and the
    /// engine stays fully usable afterwards: the pool keeps its threads
    /// and the cache tolerates poisoned shards.
    pub fn try_dispatch(
        &self,
        jobs: usize,
        job: impl Fn(usize) + Sync,
    ) -> Result<(), DispatchPanic> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(jobs, job))).map_err(
            |payload| DispatchPanic {
                message: panic_message(payload.as_ref()),
            },
        )
    }

    /// Publishes every staged entry to the shared cache, in ascending
    /// funding-order sequence (ties — the entries of one job — keep
    /// their slot-local compute order, which is deterministic). Runs at
    /// the batch-end quiescent point of [`dispatch`](Self::dispatch);
    /// entries left staged by a panicked batch are pure values and are
    /// simply published by the next batch's drain.
    fn drain_published(&self) {
        let (mut partitions, mut subgraphs) = self.scratch.drain_pending();
        if partitions.is_empty() && subgraphs.is_empty() {
            return;
        }
        // Vec-collected and stable-sorted by sequence number — no map
        // iteration order reaches the shared cache.
        subgraphs.sort_by_key(|entry| entry.0);
        partitions.sort_by_key(|entry| entry.0);
        for (_, key, term) in subgraphs {
            self.cache.insert_subgraph(key, term);
        }
        for (_, key, scored) in partitions {
            self.cache.insert_partition(key, scored);
        }
    }

    /// The authoritative metrics snapshot: everything live telemetry
    /// recorded (batch/queue histograms, sweep events' counters) plus
    /// the engine's own counters absorbed under their metric names —
    /// `engine.evals`, `engine.cache.{partition,subgraph}.*`,
    /// `engine.subgraph.scorings`, `engine.hot_allocs`,
    /// `engine.arena.{bytes,reuses,grows}`, `engine.threads`,
    /// `engine.batch.wall_ns`. Works with telemetry disabled (the
    /// absorbed names are always present).
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut m = self.telemetry.snapshot();
        let hits = self.cache.hits();
        let misses = self.cache.misses();
        m.set_gauge("engine.threads", self.pool.threads() as u64);
        m.set_counter("engine.evals", hits + misses);
        m.set_counter("engine.cache.partition.hits", hits);
        m.set_counter("engine.cache.partition.misses", misses);
        m.set_gauge(
            "engine.cache.partition.entries",
            self.cache.partition_entries() as u64,
        );
        m.set_counter("engine.cache.partition.evictions", self.cache.evictions());
        m.set_counter("engine.cache.subgraph.hits", self.cache.subgraph_hits());
        m.set_counter("engine.cache.subgraph.misses", self.cache.subgraph_misses());
        m.set_gauge(
            "engine.cache.subgraph.entries",
            self.cache.subgraph_entries() as u64,
        );
        m.set_counter(
            "engine.cache.subgraph.evictions",
            self.cache.subgraph_evictions(),
        );
        m.set_counter("engine.subgraph.scorings", self.cache.subgraph_misses());
        m.set_counter(
            "engine.hot_allocs",
            self.stats_fallbacks.load(Ordering::Relaxed),
        );
        m.set_gauge("engine.arena.bytes", self.scratch.bytes());
        m.set_counter("engine.arena.reuses", self.scratch.reuses());
        m.set_counter("engine.arena.grows", self.scratch.grows());
        m.set_counter(
            "engine.pool.dispatched",
            self.dispatched.load(Ordering::Relaxed),
        );
        m.set_counter("engine.pool.chunks", self.chunks.load(Ordering::Relaxed));
        m.set_counter(
            "engine.pool.inline_batches",
            self.inline_batches.load(Ordering::Relaxed),
        );
        m.set_gauge(
            "engine.batch.wall_ns",
            self.wall_nanos.load(Ordering::Relaxed),
        );
        m
    }
}

/// Jobs per pool claim for a batch of `jobs` on `threads` workers:
/// `ceil(jobs / (threads * 4))`, at least 1. Four claims per worker keep
/// the tail balanced while one claim covers several jobs. Claims never
/// reorder results — jobs within a claim run in index order and the
/// caller stores results per index.
fn chunk_len(jobs: usize, threads: usize) -> usize {
    jobs.div_ceil(threads * 4).max(1)
}

// The whole point of the engine is cross-thread sharing; fail the build if
// a field ever regresses that.
const _: () = {
    const fn assert_sync_send<T: Sync + Send>() {}
    assert_sync_send::<Engine>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use cocco_graph::NodeId;
    use cocco_sim::AcceleratorConfig;

    /// Scores `p` under default options.
    fn score(
        engine: &Engine,
        eval: &Evaluator<'_>,
        p: &Partition,
        buffer: &BufferConfig,
    ) -> ScoredEval {
        engine.score_partition(eval, p, buffer, EvalOptions::default())
    }

    fn repaired_depth_groups(g: &cocco_graph::Graph, l: usize) -> Partition {
        cocco_partition::repair(g, Partition::depth_groups(g, l), &|_| true)
    }

    #[test]
    fn try_dispatch_catches_panics_and_leaves_the_engine_usable() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let p = Partition::singletons(g.len());
        for config in [EngineConfig::serial(), EngineConfig::with_threads(2)] {
            let engine = Engine::new(config);
            let baseline = score(&engine, &eval, &p, &buffer);
            let err = engine
                .try_dispatch(4, |i| {
                    if i == 2 {
                        panic!("injected worker panic");
                    }
                })
                .expect_err("job 2 panics");
            assert!(err.message.contains("injected worker panic"), "{err}");
            // The engine survives: same pool, same cache, same results.
            engine.try_dispatch(4, |_| {}).expect("pool stays usable");
            assert_eq!(score(&engine, &eval, &p, &buffer), baseline);
        }
    }

    #[test]
    fn score_matches_direct_evaluation() {
        let g = cocco_graph::models::diamond();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let p = Partition::singletons(g.len());
        let buffer = BufferConfig::shared(1 << 20);
        let scored = score(&engine, &eval, &p, &buffer);
        let report = eval
            .eval_partition(&p.subgraphs(), &buffer, EvalOptions::default())
            .unwrap();
        assert_eq!(scored.ema_bytes, report.ema_bytes);
        assert_eq!(scored.energy_pj, report.energy_pj);
        assert_eq!(scored.fits, report.fits);
        assert_eq!(
            scored.cost(CostMetric::Ema, None),
            report.cost_formula1(CostMetric::Ema)
        );
        assert_eq!(
            scored.cost(CostMetric::Energy, Some(0.002)),
            report.cost_formula2(CostMetric::Energy, 0.002)
        );
        // The same subgraphs in the same order under ids up to
        // `u32::MAX - 1` score the same, through the same cache entry.
        let sparse = Partition::from_assignment(
            (0..g.len() as u32)
                .map(|i| {
                    if i == 0 {
                        0
                    } else {
                        u32::MAX - g.len() as u32 + i
                    }
                })
                .collect(),
        );
        assert_eq!(sparse.assignment().last(), Some(&(u32::MAX - 1)));
        assert_eq!(score(&engine, &eval, &sparse, &buffer), scored);
        assert_eq!(engine.metrics().counter("engine.cache.partition.hits"), 1);
    }

    #[test]
    fn incremental_and_full_paths_are_bit_identical() {
        // The composed (per-subgraph, cached) score equals the
        // whole-partition evaluator — the oracle — bit for bit, on the
        // cold compose and on the cache hit, and re-scoring changes
        // nothing the shared cache (or its snapshot) holds.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let once = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        for l in [1usize, 3, 7] {
            let p = repaired_depth_groups(&g, l);
            let full = eval
                .eval_partition(&p.subgraphs(), &buffer, options)
                .unwrap();
            let cold = engine.score_partition(&eval, &p, &buffer, options);
            assert_eq!(cold.ema_bytes, full.ema_bytes, "L={l}");
            assert_eq!(cold.energy_pj.to_bits(), full.energy_pj.to_bits(), "L={l}");
            assert_eq!(cold.fits, full.fits, "L={l}");
            let hits = engine.metrics().counter("engine.cache.partition.hits");
            let hit = engine.score_partition(&eval, &p, &buffer, options);
            assert_eq!(hit, cold, "L={l}");
            assert_eq!(
                engine.metrics().counter("engine.cache.partition.hits"),
                hits + 1
            );
            once.score_partition(&eval, &p, &buffer, options);
        }
        assert!(engine.metrics().counter("engine.subgraph.scorings") > 0);
        assert_eq!(engine.cache().snapshot(), once.cache().snapshot());
    }

    #[test]
    fn score_delta_with_stale_memo_falls_back() {
        // Terms are keyed by their buffer: after a buffer change the same
        // partition scores exactly, and no term recorded under the other
        // buffer answers a probe.
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let p = Partition::singletons(g.len());
        let small = BufferConfig::shared(1 << 20);
        let big = BufferConfig::shared(2 << 20);
        let options = EvalOptions::default();
        engine.score_partition(&eval, &p, &small, options);
        let scored = engine.score_partition(&eval, &p, &big, options);
        let direct = eval.eval_partition(&p.subgraphs(), &big, options).unwrap();
        assert_eq!(scored.ema_bytes, direct.ema_bytes);
        assert_eq!(scored.energy_pj.to_bits(), direct.energy_pj.to_bits());
        let m = engine.metrics();
        assert_eq!(m.counter("engine.cache.subgraph.hits"), 0);
        assert_eq!(
            m.counter("engine.cache.subgraph.misses"),
            2 * g.len() as u64
        );
    }

    #[test]
    fn score_single_matches_single_subgraph_partition() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let members: Vec<NodeId> = g.node_ids().collect();
        let buffer = BufferConfig::shared(1 << 20);
        let single = engine.score_single(&eval, &members, &buffer, EvalOptions::default());
        let via_partition = score(&engine, &eval, &Partition::whole(g.len()), &buffer);
        assert_eq!(single, via_partition);
        // And the second route reused the first's cached term.
        assert_eq!(engine.metrics().counter("engine.cache.subgraph.hits"), 1);
        assert!(
            engine
                .score_single(&eval, &[], &buffer, EvalOptions::default())
                .error
        );
    }

    #[test]
    fn errors_are_memoized_and_infinite() {
        let g = cocco_graph::models::chain(2);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        // No subgraphs at all: a structural evaluator error.
        let broken = Partition::from_assignment(vec![]);
        let buffer = BufferConfig::shared(1 << 20);
        let scored = score(&engine, &eval, &broken, &buffer);
        assert!(scored.error);
        assert!(scored.cost(CostMetric::Ema, None).is_infinite());
        assert!(scored.metric(CostMetric::Ema).is_infinite());
        assert_eq!(score(&engine, &eval, &broken, &buffer), scored);
        assert_eq!(engine.metrics().counter("engine.cache.partition.hits"), 1);
    }

    #[test]
    fn stats_snapshot_counts() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::with_threads(2));
        let p = Partition::whole(g.len());
        let buffer = BufferConfig::shared(1 << 20);
        // Warm the cache first: two jobs that missed concurrently would
        // both compose, so only a warmed batch has exact hit counts.
        score(&engine, &eval, &p, &buffer);
        engine.dispatch(2, |_| {
            score(&engine, &eval, &p, &buffer);
        });
        let m = engine.metrics();
        assert_eq!(m.gauge("engine.threads"), 2);
        assert_eq!(m.counter("engine.evals"), 3);
        assert_eq!(m.counter("engine.cache.partition.hits"), 2);
        assert_eq!(m.gauge("engine.cache.partition.entries"), 1);
        assert_eq!(m.counter("engine.subgraph.scorings"), 1);
        assert_eq!(m.gauge("engine.cache.subgraph.entries"), 1);
        assert_eq!(m.counter("engine.cache.partition.evictions"), 0);
        assert_eq!(m.counter("engine.cache.subgraph.evictions"), 0);
        assert_eq!(m.counter("engine.hot_allocs"), 0);
        assert!(m.gauge("engine.batch.wall_ns") > 0);
    }

    #[test]
    fn bounded_cache_evicts_but_stays_exact() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        // A tiny budget forces sweeps while scoring many distinct
        // partitions; every re-score after an eviction must still be
        // bit-identical to an unbounded engine's answer.
        let bounded = Engine::new(EngineConfig::serial().with_cache_capacity(64));
        let unbounded = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        for l in 1..=12usize {
            let p = repaired_depth_groups(&g, l);
            let a = score(&bounded, &eval, &p, &buffer);
            let b = score(&unbounded, &eval, &p, &buffer);
            assert_eq!(a, b, "L={l}");
        }
        let m = bounded.metrics();
        let roll_ups = m.gauge("engine.cache.partition.entries");
        let terms = m.gauge("engine.cache.subgraph.entries");
        assert!(
            roll_ups + terms <= 64,
            "entry budget exceeded: {roll_ups} roll-ups + {terms} terms"
        );
        let evictions = m.counter("engine.cache.partition.evictions")
            + m.counter("engine.cache.subgraph.evictions");
        assert!(evictions > 0, "the tiny budget must have evicted");
    }

    #[test]
    fn one_engine_shared_across_evaluators_never_cross_contaminates() {
        // chain(4) and diamond both index nodes 0..n, so without the
        // evaluator fingerprint in the key their whole-graph partitions
        // would collide in the cache.
        let chain = cocco_graph::models::chain(4);
        let diamond = cocco_graph::models::diamond();
        let chain_eval = Evaluator::new(&chain, AcceleratorConfig::default());
        let diamond_eval = Evaluator::new(&diamond, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let chain_whole = Partition::whole(chain.len());
        let diamond_whole = Partition::whole(diamond.len());
        let via_engine_chain = score(&engine, &chain_eval, &chain_whole, &buffer);
        let via_engine_diamond = score(&engine, &diamond_eval, &diamond_whole, &buffer);
        let direct_chain = chain_eval
            .eval_partition(&chain_whole.subgraphs(), &buffer, options)
            .unwrap();
        let direct_diamond = diamond_eval
            .eval_partition(&diamond_whole.subgraphs(), &buffer, options)
            .unwrap();
        assert_eq!(via_engine_chain.ema_bytes, direct_chain.ema_bytes);
        assert_eq!(via_engine_diamond.ema_bytes, direct_diamond.ema_bytes);
        assert_ne!(chain_eval.fingerprint(), diamond_eval.fingerprint());
        let m = engine.metrics();
        assert_eq!(
            m.counter("engine.cache.partition.hits"),
            0,
            "distinct keys, no false hits"
        );
        assert_eq!(engine.cache().partition_entries(), 2);
        assert_eq!(m.counter("engine.cache.subgraph.hits"), 0);
    }

    #[test]
    fn metrics_absorb_stats_and_time_batches() {
        let g = cocco_graph::models::chain(4);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let telemetry = Telemetry::enabled();
        let engine = Engine::with_telemetry(EngineConfig::serial(), telemetry.clone());
        let p = Partition::whole(g.len());
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(2, |_| {
            score(&engine, &eval, &p, &buffer);
        });
        let m = engine.metrics();
        // The engine's own counters are absorbed under their names.
        assert_eq!(m.counter("engine.evals"), 2);
        assert_eq!(m.counter("engine.cache.partition.hits"), 1);
        assert_eq!(m.gauge("engine.cache.subgraph.entries"), 1);
        // The dispatch was timed into both the wall gauge and the
        // histogram.
        assert!(m.gauge("engine.batch.wall_ns") > 0);
        let hist = m.histogram("engine.batch.latency_ns").expect("registered");
        assert_eq!(hist.count, 1);
        // And the batch event fired.
        let events = telemetry.events();
        assert!(events.iter().any(|e| e.name == "engine.batch"));
    }

    #[test]
    fn disabled_telemetry_still_feeds_stats() {
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        assert!(!engine.telemetry().is_enabled());
        let p = Partition::whole(g.len());
        let buffer = BufferConfig::shared(1 << 20);
        engine.dispatch(1, |_| {
            score(&engine, &eval, &p, &buffer);
        });
        let m = engine.metrics();
        assert_eq!(m.counter("engine.evals"), 1);
        assert!(
            m.gauge("engine.batch.wall_ns") > 0,
            "dispatch timing works without telemetry"
        );
        assert!(m.histogram("engine.batch.latency_ns").is_none());
    }
    #[test]
    fn cached_leaf_probes_record_no_telemetry() {
        // The zero-perturbation contract on the hot leaf: a cached
        // `score_single` probe must not emit events, bump histograms, or
        // touch the registry even with telemetry ENABLED — so the
        // disabled path is trivially free too.
        let g = cocco_graph::models::chain(3);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let telemetry = Telemetry::enabled();
        let engine = Engine::with_telemetry(EngineConfig::serial(), telemetry.clone());
        let members: Vec<NodeId> = g.node_ids().collect();
        let buffer = BufferConfig::shared(1 << 20);
        engine.score_single(&eval, &members, &buffer, EvalOptions::default());
        let events_before = telemetry.events().len();
        let snap_before = telemetry.snapshot();
        for _ in 0..100 {
            engine.score_single(&eval, &members, &buffer, EvalOptions::default());
        }
        assert_eq!(telemetry.events().len(), events_before);
        assert_eq!(telemetry.snapshot(), snap_before);
    }

    #[test]
    fn score_partition_delta_hint_reuses_terms() {
        // A one-subgraph edit re-scores only the terms it changed: the
        // term cache answers every other subgraph.
        let g = cocco_graph::models::chain(7);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        // Pairs {0,1} {2,3} {4,5} {6,7} as a partition assignment.
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 3, 3]);
        assert!(!engine.score_partition(&eval, &p, &buffer, options).error);
        // Split the last pair.
        let mutated = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 3, 4]);
        let before = engine.metrics();
        let scored = engine.score_partition(&eval, &mutated, &buffer, options);
        let after = engine.metrics();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        // Subgraphs 0 and 1 hit their terms; subgraph 2's next_wgt
        // changed ({6,7} -> {6}), so it re-scores along with the two new
        // ones.
        assert_eq!(delta("engine.cache.subgraph.hits"), 2);
        assert_eq!(delta("engine.cache.subgraph.misses"), 3);
        let direct = eval
            .eval_partition(&mutated.subgraphs(), &buffer, options)
            .unwrap();
        assert_eq!(scored.ema_bytes, direct.ema_bytes);
        assert_eq!(scored.energy_pj, direct.energy_pj);
        assert_eq!(
            after.counter("engine.hot_allocs"),
            0,
            "the scoring path must stay clean"
        );
    }

    #[test]
    fn arena_metrics_report_reuse_after_warmup() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let buffer = BufferConfig::shared(1 << 20);
        let p = repaired_depth_groups(&g, 3);
        // Distinct options defeat the partition cache so every call
        // rebuilds the layout into the warmed arena.
        for batch in 1..=8u32 {
            engine.score_partition(&eval, &p, &buffer, EvalOptions::with_batch(batch));
        }
        let m = engine.metrics();
        assert!(m.gauge("engine.arena.bytes") > 0);
        assert!(
            m.counter("engine.arena.reuses") >= 6,
            "warmed builds must reuse capacity: {} reuses, {} grows",
            m.counter("engine.arena.reuses"),
            m.counter("engine.arena.grows")
        );
        assert_eq!(m.counter("engine.hot_allocs"), 0);
    }

    #[test]
    fn batch_alloc_bytes_histogram_records_warmed_zero() {
        let g = cocco_graph::models::chain(6);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let telemetry = Telemetry::enabled();
        let engine = Engine::with_telemetry(EngineConfig::serial(), telemetry);
        let buffer = BufferConfig::shared(1 << 20);
        let p = Partition::from_assignment(vec![0, 0, 1, 1, 2, 2, 3]);
        for _ in 0..3 {
            engine.dispatch(1, |_| {
                engine.score_partition(&eval, &p, &buffer, EvalOptions::default());
            });
        }
        let m = engine.metrics();
        let hist = m.histogram("engine.batch.alloc_bytes").expect("registered");
        assert_eq!(hist.count, 3);
        // The first dispatch grows the arenas; the warmed repeats record
        // exactly zero growth (the cached probes allocate nothing).
        assert!(hist.counts[0] >= 2, "warmed dispatches must record 0 bytes");
    }

    #[test]
    fn l0_probes_hit_after_first_score_and_change_nothing() {
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let repeated = Engine::new(EngineConfig::serial());
        let once = Engine::new(EngineConfig::serial());
        let p = repaired_depth_groups(&g, 3);
        let first = once.score_partition(&eval, &p, &buffer, options);
        for _ in 0..3 {
            assert_eq!(repeated.score_partition(&eval, &p, &buffer, options), first);
        }
        // Repeats are answered by the cached roll-up and change nothing
        // the cache (or its snapshot) holds.
        let m = repeated.metrics();
        assert_eq!(m.counter("engine.cache.partition.hits"), 2);
        assert_eq!(repeated.cache().snapshot(), once.cache().snapshot());
    }

    #[test]
    fn adaptive_scheduling_and_chunking_are_observable() {
        let engine = Engine::new(EngineConfig::with_threads(2));
        let hits = AtomicU64::new(0);
        // One job is one dispatch unit: the pool runs it on the caller.
        engine.dispatch(1, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        // 64 jobs / (2 workers * 4) = 8 jobs per unit → 8 units.
        engine.dispatch(64, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 65);
        let m = engine.metrics();
        assert_eq!(m.counter("engine.pool.dispatched"), 65);
        assert_eq!(m.counter("engine.pool.chunks"), 9);
        assert_eq!(m.counter("engine.pool.inline_batches"), 1);
        // A one-worker engine runs every batch on the caller, in order.
        let serial = Engine::new(EngineConfig::serial());
        let order = std::sync::Mutex::new(Vec::new());
        serial.dispatch(7, |i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..7).collect::<Vec<_>>());
        let m = serial.metrics();
        assert_eq!(m.counter("engine.pool.chunks"), 4);
        assert_eq!(m.counter("engine.pool.inline_batches"), 1);
        // An empty batch dispatches nothing.
        serial.dispatch(0, |_| panic!("no job should run"));
        assert_eq!(serial.metrics().counter("engine.pool.inline_batches"), 1);
    }

    #[test]
    fn chunk_sizes_resolve_sanely() {
        // Four claims per worker, never zero.
        assert_eq!(chunk_len(64, 4), 4);
        assert_eq!(chunk_len(100, 4), 7);
        assert_eq!(chunk_len(16, 4), 1);
        assert_eq!(chunk_len(0, 4), 1);
        assert_eq!(chunk_len(7, 1), 2);
    }

    #[test]
    fn auto_engines_chunk_by_their_pool_thread_count() {
        // An `auto` engine resolves its worker count once, at
        // construction; every batch is split by that count.
        let engine = Engine::new(EngineConfig::auto());
        let threads = engine.pool().threads();
        let mut units = 0;
        for jobs in [1usize, 7, 64, 100] {
            engine.dispatch(jobs, |_| {});
            units += jobs.div_ceil(jobs.div_ceil(threads * 4));
            assert_eq!(
                engine.metrics().counter("engine.pool.chunks"),
                units as u64,
                "{jobs} jobs on {threads} threads"
            );
        }
    }

    #[test]
    fn deferred_publication_is_thread_count_invariant() {
        // Score the same distinct partitions as one deferred batch at 1,
        // 2 and 4 threads: the drained shared cache must be
        // byte-identical, and equal to immediate one-by-one scoring.
        let g = cocco_graph::models::googlenet();
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let buffer = BufferConfig::shared(1 << 20);
        let options = EvalOptions::default();
        let partitions: Vec<Partition> =
            (1..=6usize).map(|l| repaired_depth_groups(&g, l)).collect();
        let snapshot_of = |threads: u32| {
            let engine = Engine::new(EngineConfig::with_threads(threads));
            engine.dispatch(partitions.len(), |i| {
                engine.score_partition_deferred(i as u64, &eval, &partitions[i], &buffer, options);
            });
            engine.cache().snapshot()
        };
        let immediate = Engine::new(EngineConfig::serial());
        for p in &partitions {
            immediate.score_partition(&eval, p, &buffer, options);
        }
        let reference = immediate.cache().snapshot();
        for threads in [1, 2, 4] {
            assert_eq!(reference, snapshot_of(threads), "{threads} threads");
        }
    }

    #[test]
    fn unfit_partitions_cost_infinity_but_keep_metrics() {
        let g = cocco_graph::models::chain(5);
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let engine = Engine::new(EngineConfig::serial());
        let tiny = BufferConfig::shared(256);
        let scored = score(&engine, &eval, &Partition::whole(g.len()), &tiny);
        assert!(!scored.fits);
        assert!(!scored.error);
        assert!(scored.cost(CostMetric::Ema, None).is_infinite());
        assert!(scored.metric(CostMetric::Ema).is_finite());
    }
}
