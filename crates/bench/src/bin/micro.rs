//! Release-mode timings of the engine paths the repository benchmark
//! (`perfbench/`) does not measure: the partition cache-key build, bare
//! pool dispatch overhead, warmed cached-batch latency, the serial-vs-
//! parallel GA wall time, and telemetry's cost on the cached-score leaf.
//!
//! ```text
//! cargo run --release -p cocco-bench --bin micro [-- --threads <n>]
//! ```
//!
//! Two bounds are wall-clock bounds and only mean something in an
//! optimized build, so they live here rather than in `cargo test`: the
//! batched GA must run at least 2× faster at `--threads` workers than
//! serially on hosts with at least 4 CPUs, and a warmed cached
//! `score_single` probe must cost under 5 µs with telemetry off and on.
//! Deterministic checks (thread-count identity, fault recovery, two-step
//! reuse, checkpoint parity) are integration tests under `tests/`.

use cocco::prelude::*;
use cocco::telemetry::Stopwatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-6 {
        format!("{:.1} ns", seconds * 1e9)
    } else if seconds < 1e-3 {
        format!("{:.2} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{seconds:.3} s")
    }
}

/// The `pct`-th percentile of ascending `sorted`.
fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted[sorted.len() * pct / 100]
}

/// Measures the per-evaluation key-build cost: folding a resnet50
/// partition's subgraph fingerprints (computed once, outside the timed
/// loop) into a partition-level `EvalKey` (what every cache probe pays
/// per evaluation — no allocation, no member walk).
fn key_build_bench() {
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let partition = repair(&model, Partition::depth_groups(&model, 5), &|_| true);
    let fps: Vec<NodeSetFp> = partition
        .subgraphs()
        .iter()
        .map(|members| NodeSetFp::of_members(members))
        .collect();
    let buffer = BufferConfig::shared(2 << 20);
    let fingerprint = evaluator.fingerprint();
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let start = Stopwatch::start();
        for _ in 0..4096 {
            std::hint::black_box(cocco::engine::EvalKey::partition(
                fingerprint,
                fps.iter().copied(),
                &buffer,
                EvalOptions::default(),
            ));
        }
        samples.push(start.elapsed().as_secs_f64() / 4096.0);
    }
    samples.sort_by(f64::total_cmp);
    println!(
        "engine/eval_key_build_resnet50_depth5      {:>12} (zero allocations)",
        fmt_time(percentile(&samples, 50))
    );
}

/// Measures bare pool batch overhead: the median wall time of dispatching
/// a 64-job batch of trivial work through a `threads`-worker pool.
fn pool_overhead_bench(threads: u32) {
    let pool = cocco::engine::EnginePool::new(&EngineConfig::with_threads(threads));
    let sink = AtomicU64::new(0);
    let job = |i: usize| {
        sink.fetch_add(i as u64, Ordering::Relaxed);
    };
    // Warm up (spawns the workers).
    pool.run(64, job);
    let mut samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Stopwatch::start();
            pool.run(64, job);
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    std::hint::black_box(sink.load(Ordering::Relaxed));
    println!(
        "engine/pool_batch_overhead_64jobs          {:>12} ({threads} threads)",
        fmt_time(percentile(&samples, 50))
    );
}

/// Measures the warmed cached-batch latency: a fixed set of repaired
/// resnet50 partitions scored through `Engine::score_partition` until
/// every roll-up is a cache hit, then per-batch wall-time samples of
/// re-scoring the whole batch (pure hits — what a converged search
/// population pays per generation).
fn cached_batch_bench() {
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let engine = cocco::engine::Engine::new(EngineConfig::serial());
    let buffer = BufferConfig::shared(2 << 20);
    let partitions: Vec<Partition> = (2..=9)
        .map(|depth| repair(&model, Partition::depth_groups(&model, depth), &|_| true))
        .collect();
    let score_all = || {
        for partition in &partitions {
            std::hint::black_box(engine.score_partition(
                &evaluator,
                partition,
                &buffer,
                EvalOptions::default(),
            ));
        }
    };
    // Warm: every partition's roll-up lands in the cache, and the layout
    // buffers reach their steady-state capacity.
    for _ in 0..8 {
        score_all();
    }
    let mut samples: Vec<f64> = (0..256)
        .map(|_| {
            let start = Stopwatch::start();
            score_all();
            start.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    println!(
        "engine/cached_batch_resnet50_8_partitions  {:>12} p50 (p90 {}, p99 {})",
        fmt_time(percentile(&samples, 50)),
        fmt_time(percentile(&samples, 90)),
        fmt_time(percentile(&samples, 99)),
    );
}

/// One seeded GA on `model` with a fresh evaluator (cold caches): its
/// wall time and best cost.
fn ga_run(model: &Graph, engine: EngineConfig) -> (Duration, f64) {
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        3_000,
    )
    .with_engine(engine);
    let start = Stopwatch::start();
    let outcome = SearchMethod::ga().with_seed(42).run(&ctx);
    (start.elapsed(), outcome.best_cost)
}

/// The same seeded GA on resnet50 serially and at `threads` workers.
/// On a host with at least 4 CPUs the batched path must be at least 2×
/// faster; with fewer CPUs the ratio is printed, not asserted.
fn speedup_check(threads: u32) {
    let model = cocco::graph::models::resnet50();
    let (serial, serial_cost) = ga_run(&model, EngineConfig::serial());
    let (parallel, parallel_cost) = ga_run(&model, EngineConfig::with_threads(threads));
    // Equal results make the two wall times a like-for-like comparison.
    assert_eq!(
        serial_cost, parallel_cost,
        "serial and {threads}-thread GA disagree"
    );
    let speedup = serial.as_secs_f64() / parallel.as_secs_f64();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "\nga/resnet50_3000_samples serial             {:>12}",
        fmt_time(serial.as_secs_f64())
    );
    println!(
        "ga/resnet50_3000_samples {threads} threads          {:>12} ({speedup:.2}x, {cpus} host CPUs)",
        fmt_time(parallel.as_secs_f64())
    );
    if cpus >= 4 {
        assert!(
            speedup >= 2.0,
            "batched path must be >= 2x faster than serial at {threads} threads \
             on a {cpus}-CPU host (measured {speedup:.2}x)"
        );
    } else if cpus < 2 {
        println!(
            "note: the host has {cpus} CPU, so {threads} workers timeslice one core and the \
             ratio above measures overhead, not parallelism"
        );
    }
}

/// Bounds what telemetry may cost on the engine's hottest leaf: a warmed
/// `score_single` cache hit (tens of nanoseconds), answered by the
/// subgraph-term cache. Probes the same cached subgraph 20 000 times
/// through a disabled handle and through a live sink. Both arms must stay
/// under the same generous 5 µs/probe ceiling, which catches a regression
/// that puts a clock read, lock round-trip or allocation onto the cached
/// path. The cached leaf must also stay silent: after every probe the live
/// sink's event buffer is still empty.
fn telemetry_overhead_check() {
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let members: Vec<_> = model.node_ids().take(12).collect();
    let buffer = BufferConfig::shared(2 << 20);
    const PROBES: u32 = 20_000;
    const CEILING_NS: f64 = 5_000.0;
    println!();
    for (arm, telemetry) in [
        ("disabled", Telemetry::disabled()),
        ("enabled", Telemetry::enabled()),
    ] {
        let engine =
            cocco::engine::Engine::with_telemetry(EngineConfig::serial(), telemetry.clone());
        // Warm the subgraph-term cache so every timed probe is a hit.
        engine.score_single(&evaluator, &members, &buffer, EvalOptions::default());
        let hits_before = engine.metrics().counter("engine.cache.subgraph.hits");
        let start = Stopwatch::start();
        for _ in 0..PROBES {
            std::hint::black_box(engine.score_single(
                &evaluator,
                &members,
                &buffer,
                EvalOptions::default(),
            ));
        }
        let per_probe_ns = start.elapsed().as_secs_f64() * 1e9 / f64::from(PROBES);
        assert!(
            per_probe_ns < CEILING_NS,
            "telemetry ({arm}): cached score_single probe costs {per_probe_ns:.0} ns — \
             something put a clock, lock or allocation on the cached leaf \
             (ceiling {CEILING_NS:.0} ns)"
        );
        assert!(
            telemetry.events().is_empty(),
            "telemetry ({arm}): the cached score_single leaf must emit no events"
        );
        // Prove the timed probes exercised the cached leaf: every
        // post-warm probe is a subgraph-term hit.
        assert_eq!(
            engine.metrics().counter("engine.cache.subgraph.hits") - hits_before,
            u64::from(PROBES),
            "telemetry ({arm}): warmed probes must all be cache hits"
        );
        println!(
            "telemetry/cached_leaf_{arm:<13}         {:>12} per probe (< {} ceiling)",
            fmt_time(per_probe_ns / 1e9),
            fmt_time(CEILING_NS / 1e9),
        );
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut threads: u32 = 4;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threads" => {
                let value = args.next().unwrap_or_else(|| {
                    eprintln!("--threads needs a value");
                    std::process::exit(2);
                });
                threads = value.parse().unwrap_or_else(|e| {
                    eprintln!("bad --threads `{value}`: {e}");
                    std::process::exit(2);
                });
            }
            bad => {
                eprintln!("unknown argument `{bad}` (supported: --threads <n>)");
                std::process::exit(2);
            }
        }
    }
    let threads = threads.max(1);

    key_build_bench();
    pool_overhead_bench(threads);
    cached_batch_bench();
    speedup_check(threads);
    telemetry_overhead_check();
}
