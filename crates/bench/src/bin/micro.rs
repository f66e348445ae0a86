//! Micro-benchmarks of the framework's hot paths: model construction, the
//! consumption-centric derivation, subgraph statistics (cold and cached),
//! partition repair, full partition evaluation and the evaluation engine's
//! serial-vs-parallel batch path.
//!
//! Timed with a small std-only harness (the offline toolchain has no
//! criterion): each case is warmed up, then sampled until ~0.25 s of
//! wall-clock or 50 samples, whichever comes first, reporting the median
//! and minimum per-iteration time.
//!
//! Modes:
//!
//! * `cargo run --release -p cocco-bench --bin micro [-- --threads <n>]` —
//!   the full suite, ending with the stepped-vs-monolithic parity check,
//!   the engine benchmark (the same seeded GA on `resnet50` serially, at
//!   `--threads` workers, and at `--threads` workers with a live telemetry
//!   sink), the interleaved-vs-sequential two-step comparison, a
//!   cache-capacity sweep, the key-build, pool-overhead and warmed
//!   cached-batch micro-measurements, and a `BENCH_engine.json` summary at
//!   the repository root recording wall times, the subgraph-level hit
//!   rate, dispatch counters, scratch footprint, key-build cost,
//!   evictions, the two-step arms' cross-candidate stats-cache hit rates,
//!   the telemetry arm's per-batch dispatch-latency percentiles
//!   (p50/p90/p99) and the facade's per-phase wall profile;
//! * `cargo run --release -p cocco-bench --bin micro -- --smoke
//!   [--threads <n>]` — the CI smoke mode: a scaled-down run of the same
//!   arms that asserts bit-identical results serial vs parallel vs
//!   telemetry and across the {1, 2, 8}-thread determinism matrix (cost,
//!   genome, trace and cache snapshot), zero hot-path allocations
//!   (`engine.hot_allocs`: canonicalize fallbacks), live memo reuse on the
//!   delta path, the fault-injection matrix (seeded fault schedules ×
//!   {1, n} threads: bit-identical completion or a structured error with
//!   salvage — never a hang, a stranded budget sample or a leaked temp
//!   file), stepped-vs-monolithic parity (driver loop + JSON-resume ==
//!   `run()`), the interleaved two-step's strictly higher cross-candidate
//!   subgraph hit rate, and telemetry's zero-perturbation guarantee (a
//!   live sink leaves the seeded GA bit-identical) and bounded cost on
//!   the cached-score leaf — at the requested worker count.

use cocco::prelude::*;
use cocco::telemetry::{MetricsSnapshot, Stopwatch};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Times `f`, printing `name: median (min) per iteration`.
fn bench<T>(name: &str, mut f: impl FnMut() -> T) {
    // Warm-up and batch-size calibration: aim for batches of >= 1 ms.
    let mut batch = 1u32;
    loop {
        let start = Stopwatch::start();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= Duration::from_millis(1) || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let budget = Duration::from_millis(250);
    let mut samples = Vec::new();
    let run_start = Stopwatch::start();
    while samples.len() < 50 && (run_start.elapsed() < budget || samples.len() < 5) {
        let start = Stopwatch::start();
        for _ in 0..batch {
            std::hint::black_box(f());
        }
        samples.push(start.elapsed().as_secs_f64() / f64::from(batch));
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    let min = samples[0];
    println!(
        "{name:<42} {:>12} (min {})",
        fmt_time(median),
        fmt_time(min)
    );
}

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

/// Everything one seeded GA run leaves behind: wall time, outcome, trace,
/// the persisted cache image and the engine metrics.
struct GaRun {
    wall: Duration,
    cost: f64,
    best: Option<Genome>,
    trace: Vec<TracePoint>,
    snapshot: CacheSnapshot,
    metrics: MetricsSnapshot,
}

/// `part / whole` (0 when `whole` is 0).
fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Fraction of partition-scoring requests served from the roll-up cache.
fn hit_rate(m: &MetricsSnapshot) -> f64 {
    ratio(
        m.counter("engine.cache.partition.hits"),
        m.counter("engine.evals"),
    )
}

/// Fraction of subgraph-term requests that avoided a full scoring (cache
/// hit or memo reuse).
fn subgraph_hit_rate(m: &MetricsSnapshot) -> f64 {
    let avoided = m.counter("engine.cache.subgraph.hits") + m.counter("engine.subgraph.reused");
    ratio(avoided, avoided + m.counter("engine.subgraph.scorings"))
}

/// Entries evicted across both cache levels.
fn evictions(m: &MetricsSnapshot) -> u64 {
    m.counter("engine.cache.partition.evictions") + m.counter("engine.cache.subgraph.evictions")
}

/// One timed GA run under an explicit engine configuration (optionally
/// with a live telemetry sink).
fn ga_run(
    model: &Graph,
    budget: u64,
    population: usize,
    engine: EngineConfig,
    telemetry: Option<&Telemetry>,
) -> GaRun {
    // A fresh evaluator per run so every arm starts with cold caches.
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        budget,
    );
    let ctx = match telemetry {
        Some(t) => ctx.with_engine_telemetry(engine, t),
        None => ctx.with_engine(engine),
    };
    let ga = CoccoGa::default().with_population(population).with_seed(42);
    let start = Stopwatch::start();
    let outcome = ga.run(&ctx);
    GaRun {
        wall: start.elapsed(),
        cost: outcome.best_cost,
        best: outcome.best,
        trace: ctx.trace().points(),
        snapshot: ctx.engine().cache().snapshot(),
        metrics: ctx.engine().metrics(),
    }
}

/// Engine counters fixed by the funding sequence alone: every batch probes
/// the cache as the previous batch end left it, so these match at any
/// thread count.
const CACHE_COUNTERS: [&str; 6] = [
    "engine.evals",
    "engine.cache.partition.hits",
    "engine.cache.partition.misses",
    "engine.cache.subgraph.hits",
    "engine.cache.subgraph.misses",
    "engine.subgraph.reused",
];

/// Asserts two runs agree on every observable output, cache counters
/// included.
fn assert_runs_identical(reference: &GaRun, other: &GaRun, cell: &str) {
    assert_eq!(
        reference.cost, other.cost,
        "determinism violated: cost ({cell})"
    );
    assert_eq!(
        reference.best, other.best,
        "determinism violated: genome ({cell})"
    );
    assert_eq!(
        reference.trace, other.trace,
        "determinism violated: trace ({cell})"
    );
    assert_eq!(
        reference.snapshot, other.snapshot,
        "determinism violated: cache snapshot ({cell})"
    );
    for name in CACHE_COUNTERS {
        assert_eq!(
            reference.metrics.counter(name),
            other.metrics.counter(name),
            "determinism violated: {name} ({cell})"
        );
    }
}

/// Asserts the hot-path allocation tripwire of one run: zero
/// `engine.hot_allocs` (statistics misses that had to sort a copy of an
/// out-of-order member list).
fn assert_hot_path_clean(metrics: &MetricsSnapshot, cell: &str) {
    assert_eq!(
        metrics.counter("engine.hot_allocs"),
        0,
        "{cell}: the warmed scoring hot path must stay allocation-free"
    );
}

/// The engine benchmark: the same seeded GA on a ≥ 50-node model serially,
/// at `threads` workers, and at `threads` workers with a live telemetry
/// sink. Asserts bit-identical results across the three arms (every
/// host), live memo reuse on the delta path, zero hot-path allocations,
/// warmed layout-arena reuse, and the ≥ 2× batch-path speedup (hosts with
/// ≥ 4 CPUs — a single-core container cannot physically speed up, so
/// there the number is informational). Returns the JSON summary document.
fn engine_bench(smoke: bool, threads: u32) -> serde_json::Value {
    let model = cocco::graph::models::resnet50();
    let (budget, population) = if smoke { (600, 50) } else { (3_000, 100) };
    let host_cpus = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    println!(
        "\n== engine: GA on {} ({} nodes), budget {budget}, population {population}, host CPUs {} ==\n",
        model.name(),
        model.len(),
        host_cpus(),
    );

    let serial = ga_run(&model, budget, population, EngineConfig::serial(), None);
    // The parallel arm stamps the CPU count it actually ran with —
    // container CPU quotas can change between arms.
    let parallel_cpus = host_cpus();
    let parallel = ga_run(
        &model,
        budget,
        population,
        EngineConfig::with_threads(threads),
        None,
    );
    // Telemetry arm: the same seeded parallel GA with a live sink.
    // Observation only — results must stay bit-identical — and the sink
    // yields the per-batch dispatch latency histogram for the summary.
    let telemetry = Telemetry::enabled();
    let observed = ga_run(
        &model,
        budget,
        population,
        EngineConfig::with_threads(threads),
        Some(&telemetry),
    );
    assert_runs_identical(&serial, &parallel, &format!("serial vs {threads} threads"));
    assert_runs_identical(&serial, &observed, "telemetry arm");
    let batch_latency = telemetry
        .snapshot()
        .histogram("engine.batch.latency_ns")
        .cloned()
        .expect("a GA run dispatches batches");

    let serial_metrics = &serial.metrics;
    let metrics = &parallel.metrics;
    assert!(
        metrics.counter("engine.cache.partition.hits") > 0,
        "GA run never hit the eval cache"
    );
    assert!(
        serial_metrics.counter("engine.subgraph.reused") > 0,
        "GA offspring never reused a memoized subgraph term"
    );
    for (arm, arm_metrics) in [("serial", serial_metrics), ("parallel", metrics)] {
        assert_hot_path_clean(arm_metrics, arm);
    }
    assert!(
        metrics.counter("engine.arena.reuses") > 0,
        "the layout arenas never reused a warmed buffer"
    );

    let serial_ms = serial.wall.as_secs_f64() * 1e3;
    let parallel_ms = parallel.wall.as_secs_f64() * 1e3;
    let speedup = serial_ms / parallel_ms;
    println!(
        "serial (1 thr)       : {:>10}  ({} scorings, {} cached, {} reused)",
        fmt_time(serial.wall.as_secs_f64()),
        serial_metrics.counter("engine.subgraph.scorings"),
        serial_metrics.counter("engine.cache.subgraph.hits"),
        serial_metrics.counter("engine.subgraph.reused"),
    );
    println!(
        "parallel ({threads} thr)     : {:>10}  ({} jobs, {} units, {} inline batches)",
        fmt_time(parallel.wall.as_secs_f64()),
        metrics.counter("engine.pool.dispatched"),
        metrics.counter("engine.pool.chunks"),
        metrics.counter("engine.pool.inline_batches"),
    );
    println!(
        "telemetry ({threads} thr)    : {:>10}  ({} batches, p50 {}, p99 {})",
        fmt_time(observed.wall.as_secs_f64()),
        batch_latency.count,
        fmt_time(batch_latency.p50() as f64 / 1e9),
        fmt_time(batch_latency.p99() as f64 / 1e9),
    );
    println!("speedup (threads)    : {speedup:.2}x");
    println!(
        "subgraph hit rate    : {:.0}%",
        subgraph_hit_rate(serial_metrics) * 100.0
    );
    println!(
        "cache                : {} evals, {} hits ({:.0}%), {} roll-ups + {} terms, {} evicted",
        metrics.counter("engine.evals"),
        metrics.counter("engine.cache.partition.hits"),
        hit_rate(metrics) * 100.0,
        metrics.gauge("engine.cache.partition.entries"),
        metrics.gauge("engine.cache.subgraph.entries"),
        evictions(metrics),
    );
    println!(
        "scratch              : {} B, {} layout reuses, {} grows",
        metrics.gauge("engine.arena.bytes"),
        metrics.counter("engine.arena.reuses"),
        metrics.counter("engine.arena.grows"),
    );
    println!(
        "results              : bit-identical serial vs parallel vs telemetry ✓ \
         (0 hot-path allocations)"
    );
    let cpus_now = host_cpus();
    if cpus_now >= 4 && !smoke {
        assert!(
            speedup >= 2.0,
            "batched path must be >= 2x faster than serial at {threads} threads \
             on a {cpus_now}-CPU host (measured {speedup:.2}x)"
        );
    } else if cpus_now < 2 {
        println!(
            "note                 : host has {cpus_now} CPU — {threads} workers timeslice one core, \
             so the speedup above measures overhead, not parallelism"
        );
    }

    let u64_value = |v: u64| serde_json::to_value(&v);
    let doc = vec![
        ("model".to_string(), serde_json::to_value(&model.name())),
        ("nodes".to_string(), u64_value(model.len() as u64)),
        ("budget".to_string(), serde_json::to_value(&budget)),
        ("population".to_string(), u64_value(population as u64)),
        ("threads".to_string(), u64_value(u64::from(threads))),
        ("host_cpus".to_string(), u64_value(cpus_now as u64)),
        ("serial_ms".to_string(), serde_json::to_value(&serial_ms)),
        (
            "parallel".to_string(),
            serde_json::Value::Object(vec![
                ("wall_ms".to_string(), serde_json::to_value(&parallel_ms)),
                ("host_cpus".to_string(), u64_value(parallel_cpus as u64)),
                ("speedup".to_string(), serde_json::to_value(&speedup)),
            ]),
        ),
        (
            "evals".to_string(),
            u64_value(metrics.counter("engine.evals")),
        ),
        (
            "cache_hits".to_string(),
            u64_value(metrics.counter("engine.cache.partition.hits")),
        ),
        (
            "cache_hit_rate".to_string(),
            serde_json::to_value(&hit_rate(metrics)),
        ),
        (
            "subgraph_scorings".to_string(),
            u64_value(serial_metrics.counter("engine.subgraph.scorings")),
        ),
        (
            "subgraph_hit_rate".to_string(),
            serde_json::to_value(&subgraph_hit_rate(serial_metrics)),
        ),
        (
            "subgraph_reused".to_string(),
            u64_value(serial_metrics.counter("engine.subgraph.reused")),
        ),
        (
            "hot_allocs".to_string(),
            u64_value(metrics.counter("engine.hot_allocs")),
        ),
        ("cache_evictions".to_string(), u64_value(evictions(metrics))),
        (
            "dispatched_jobs".to_string(),
            u64_value(metrics.counter("engine.pool.dispatched")),
        ),
        (
            "dispatch_units".to_string(),
            u64_value(metrics.counter("engine.pool.chunks")),
        ),
        (
            "inline_batches".to_string(),
            u64_value(metrics.counter("engine.pool.inline_batches")),
        ),
        (
            "arena_bytes".to_string(),
            u64_value(metrics.gauge("engine.arena.bytes")),
        ),
        (
            "arena_reuses".to_string(),
            u64_value(metrics.counter("engine.arena.reuses")),
        ),
        (
            "arena_grows".to_string(),
            u64_value(metrics.counter("engine.arena.grows")),
        ),
        (
            "telemetry_ms".to_string(),
            serde_json::to_value(&(observed.wall.as_secs_f64() * 1e3)),
        ),
        (
            "batch_latency".to_string(),
            serde_json::Value::Object(vec![
                ("count".to_string(), u64_value(batch_latency.count)),
                ("p50_ns".to_string(), u64_value(batch_latency.p50())),
                ("p90_ns".to_string(), u64_value(batch_latency.p90())),
                ("p99_ns".to_string(), u64_value(batch_latency.p99())),
            ]),
        ),
        ("deterministic".to_string(), serde_json::to_value(&true)),
    ];
    serde_json::Value::Object(doc)
}

/// Measures the warmed cached-batch latency: a fixed set of repaired
/// resnet50 partitions scored through `Engine::score_partition` until
/// every roll-up is a cache hit, then per-batch wall-time samples of
/// re-scoring the whole batch (pure hits — what a converged search
/// population pays per generation). Returns p50/p90/p99 nanoseconds per
/// batch as JSON.
fn cached_batch_bench() -> serde_json::Value {
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let engine = cocco::engine::Engine::new(EngineConfig::serial());
    let buffer = BufferConfig::shared(2 << 20);
    let partitions: Vec<Partition> = (2..=9)
        .map(|depth| repair(&model, Partition::depth_groups(&model, depth), &|_| true))
        .collect();
    // Warm: every partition's roll-up lands in the cache, and the layout
    // buffers reach their steady-state capacity.
    for _ in 0..8 {
        for partition in &partitions {
            engine.score_partition(&evaluator, partition, &buffer, EvalOptions::default(), None);
        }
    }
    let mut samples = Vec::with_capacity(256);
    for _ in 0..256 {
        let start = Stopwatch::start();
        for partition in &partitions {
            std::hint::black_box(engine.score_partition(
                &evaluator,
                partition,
                &buffer,
                EvalOptions::default(),
                None,
            ));
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9);
    }
    samples.sort_by(f64::total_cmp);
    let (p50, p90, p99) = (
        samples[samples.len() / 2],
        samples[samples.len() * 9 / 10],
        samples[samples.len() * 99 / 100],
    );
    println!(
        "engine/cached_batch_resnet50_8_partitions  {:>12} p50 (p99 {})",
        fmt_time(p50 / 1e9),
        fmt_time(p99 / 1e9),
    );
    serde_json::Value::Object(vec![
        ("p50_ns".to_string(), serde_json::to_value(&p50)),
        ("p90_ns".to_string(), serde_json::to_value(&p90)),
        ("p99_ns".to_string(), serde_json::to_value(&p99)),
    ])
}

/// The determinism smoke matrix: the same seeded GA at {1, 2, 8} worker
/// threads — every cell must match the first on cost, genome, trace and
/// cache snapshot, and record zero hot-path allocations.
fn thread_matrix_check() {
    let model = cocco::graph::models::googlenet();
    let (budget, population) = (240, 24);
    let mut reference: Option<GaRun> = None;
    for threads in [1u32, 2, 8] {
        let run = ga_run(
            &model,
            budget,
            population,
            EngineConfig::with_threads(threads),
            None,
        );
        let cell = format!("{threads} threads");
        assert_hot_path_clean(&run.metrics, &cell);
        match &reference {
            Some(first) => assert_runs_identical(first, &run, &cell),
            None => reference = Some(run),
        }
    }
    println!(
        "thread matrix        : bit-identical cost, genome, trace, cache snapshot and \
         cache counters across {{1,2,8}} threads ✓ (0 hot-path allocations)"
    );
}

/// The fault-injection matrix: seeded fault schedules × {1, n} workers,
/// driven through the facade with cache and checkpoint files. Transparent schedules (save-path faults, evaluator
/// transients) must complete bit-identically to the fault-free baseline;
/// the worker-panic schedule must degrade to a structured error carrying
/// a salvaged best-so-far plus a resumable checkpoint; the
/// budget-revocation schedule must complete degraded with a conserved
/// trace. No cell may hang, abort the process, strand a budget sample,
/// or leak a `*.tmp.*` file.
fn fault_matrix_check(threads: u32) {
    let dir = std::env::temp_dir().join(format!("cocco-fault-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("fault-matrix scratch dir");
    let model = cocco::graph::models::googlenet();
    let cells = [1, threads.max(2)];
    let explore = |t: u32, faults: FaultPlan, tag: &str| {
        Cocco::new()
            .with_budget(300)
            .with_seed(5)
            .with_engine(EngineConfig::with_threads(t))
            .with_cache_file(dir.join(format!("{tag}.cache.json")))
            .with_checkpoint_file(dir.join(format!("{tag}.ckpt.json")))
            .with_checkpoint_every(1)
            .with_faults(faults)
            .explore(&model)
    };
    let baseline =
        explore(1, FaultPlan::disabled(), "baseline").expect("the fault-free baseline completes");

    // Transparent schedules: injected save failures retry, torn writes
    // get cleaned up, evaluator transients re-score. Fault draws happen
    // in the serial funding-order section, so an identically seeded plan
    // fires at the same points in every cell — and every cell must match
    // the fault-free baseline bit for bit.
    let io_rates = FaultRates::none()
        .with(FaultSite::SaveWrite, 0.3)
        .with(FaultSite::SaveTorn, 0.2);
    let eval_rates = FaultRates::none().with(FaultSite::EvalError, 0.2);
    for (schedule, rates) in [("io_faults", io_rates), ("eval_transients", eval_rates)] {
        for t in cells {
            let cell = format!("{schedule}, {t} threads");
            let tag = format!("{schedule}-{t}");
            let plan = FaultPlan::seeded(11, rates);
            let result = explore(t, plan.clone(), &tag)
                .unwrap_or_else(|e| panic!("{cell}: transparent schedule failed: {e}"));
            assert_eq!(
                baseline.cost, result.cost,
                "fault matrix: cost drifted ({cell})"
            );
            assert_eq!(
                baseline.genome, result.genome,
                "fault matrix: genome drifted ({cell})"
            );
            assert_eq!(
                baseline.trace, result.trace,
                "fault matrix: trace drifted ({cell})"
            );
            assert_eq!(
                result.trace.len() as u64,
                result.samples,
                "fault matrix: stranded budget samples ({cell})"
            );
            if schedule == "eval_transients" {
                assert!(
                    plan.health().eval_rescores > 0,
                    "fault matrix: the eval-transient schedule never fired ({cell})"
                );
                // Re-scores publish through the same funding-order path,
                // so the persisted cache is byte-identical too. (Save
                // faults may legitimately leave no file behind.)
                assert_eq!(
                    std::fs::read(dir.join("baseline.cache.json")).ok(),
                    std::fs::read(dir.join(format!("{tag}.cache.json"))).ok(),
                    "fault matrix: cache file drifted ({cell})"
                );
            }
        }
    }

    // Worker-panic schedule: a deterministic mid-run panic. Every cell
    // must return the same structured error with the same salvaged
    // best-so-far, keep its last periodic checkpoint, refund the
    // quarantined batch, and resume to completion once disarmed.
    let mut panic_reference: Option<(f64, u64)> = None;
    for t in cells {
        let cell = format!("worker_panic, {t} threads");
        let tag = format!("worker_panic-{t}");
        let ckpt = dir.join(format!("{tag}.ckpt.json"));
        let plan = FaultPlan::seeded(2, FaultRates::none().with(FaultSite::WorkerPanic, 0.002));
        // The injected panic is caught and quarantined by the engine, but
        // the default hook would still spew a backtrace into the CI log;
        // silence it for just this call, then restore so genuine
        // assertion failures stay loud.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = Cocco::new()
            .with_budget(2_000)
            .with_seed(9)
            .with_engine(EngineConfig::with_threads(t))
            .with_checkpoint_file(&ckpt)
            .with_checkpoint_every(1)
            .with_faults(plan.clone())
            .explore(&model);
        std::panic::set_hook(hook);
        let err = result.expect_err("an injected worker panic must surface as an error");
        let Error::WorkerPanic { salvage, .. } = err else {
            panic!("{cell}: expected WorkerPanic, got {err}");
        };
        let salvage = salvage.expect("generations before the fault leave a best-so-far");
        match &panic_reference {
            Some((cost, samples)) => {
                assert_eq!(
                    *cost, salvage.cost,
                    "fault matrix: salvage cost drifted ({cell})"
                );
                assert_eq!(
                    *samples, salvage.samples,
                    "fault matrix: salvage samples drifted ({cell})"
                );
            }
            None => panic_reference = Some((salvage.cost, salvage.samples)),
        }
        let health = plan.health();
        assert_eq!(
            health.quarantined_batches, 1,
            "fault matrix: the panicked batch must be quarantined ({cell})"
        );
        assert!(
            health.refunded_samples > 0,
            "fault matrix: quarantined funding must be refunded ({cell})"
        );
        assert!(
            ckpt.exists(),
            "fault matrix: aborted run lost its checkpoint ({cell})"
        );
        let resumed = Cocco::new()
            .with_budget(2_000)
            .with_seed(9)
            .with_engine(EngineConfig::with_threads(t))
            .with_checkpoint_file(&ckpt)
            .explore(&model)
            .unwrap_or_else(|e| panic!("{cell}: disarmed resume failed: {e}"));
        assert!(
            resumed.cost <= salvage.cost,
            "fault matrix: resume regressed past the salvage ({cell})"
        );
        assert_eq!(
            resumed.trace.len() as u64,
            resumed.samples,
            "fault matrix: stranded budget samples after resume ({cell})"
        );
        assert!(
            !ckpt.exists(),
            "fault matrix: completed resume left its checkpoint behind ({cell})"
        );
    }

    // Budget-revocation schedule: the run is cut short but completes
    // normally, degraded, with a conserved trace — identically in every
    // cell.
    let small = cocco::graph::models::diamond();
    let mut revoke_reference: Option<(f64, u64)> = None;
    for t in cells {
        let cell = format!("budget_revoke, {t} threads");
        let plan = FaultPlan::seeded(4, FaultRates::none().with(FaultSite::BudgetRevoke, 0.05));
        let result = Cocco::new()
            .with_budget(5_000)
            .with_seed(3)
            .with_engine(EngineConfig::with_threads(t))
            .with_faults(plan.clone())
            .explore(&small)
            .unwrap_or_else(|e| panic!("{cell}: revocation must degrade, not fail: {e}"));
        assert!(
            result.samples < 5_000,
            "fault matrix: revoked budget must cut the run short ({cell})"
        );
        assert_eq!(
            result.trace.len() as u64,
            result.samples,
            "fault matrix: stranded budget samples ({cell})"
        );
        assert!(
            result.is_degraded(),
            "fault matrix: revocation must degrade ({cell})"
        );
        assert_eq!(
            result.health.budget_revocations, 1,
            "fault matrix: the revocation must be accounted ({cell})"
        );
        match &revoke_reference {
            Some((cost, samples)) => {
                assert_eq!(
                    *cost, result.cost,
                    "fault matrix: revoked cost drifted ({cell})"
                );
                assert_eq!(
                    *samples, result.samples,
                    "fault matrix: revoked samples drifted ({cell})"
                );
            }
            None => revoke_reference = Some((result.cost, result.samples)),
        }
    }

    let stale: Vec<String> = std::fs::read_dir(&dir)
        .expect("fault-matrix scratch dir is readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|name| name.contains(".tmp."))
        .collect();
    assert!(
        stale.is_empty(),
        "fault matrix leaked temp files: {stale:?}"
    );
    // cocco-audit: allow(R2) scratch cleanup; every assertion above already passed
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "fault matrix         : {{io,eval,panic,revoke}} schedules × {{1,{}}} threads ✓ \
         (bit-identical or structured+salvaged, 0 stranded samples, 0 temp leaks)",
        threads.max(2)
    );
}

/// Measures bare pool batch overhead: the median wall time of
/// dispatching a 64-job batch of trivial work through a `threads`-worker
/// pool, in nanoseconds.
fn pool_overhead_bench(threads: u32) -> f64 {
    let pool = cocco::engine::EnginePool::new(&EngineConfig::with_threads(threads));
    let sink = std::sync::atomic::AtomicU64::new(0);
    // Warm up (spawns the workers).
    pool.run(64, |i| {
        sink.fetch_add(i as u64, std::sync::atomic::Ordering::Relaxed);
    });
    let mut samples: Vec<f64> = (0..200)
        .map(|_| {
            let start = Stopwatch::start();
            pool.run(64, |i| {
                sink.fetch_add(i as u64, std::sync::atomic::Ordering::Relaxed);
            });
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    std::hint::black_box(sink.load(std::sync::atomic::Ordering::Relaxed));
    let median = samples[samples.len() / 2];
    println!(
        "engine/pool_batch_overhead_64jobs          {:>12}",
        fmt_time(median / 1e9)
    );
    median
}

/// Measures the per-evaluation key-build cost on the incremental path:
/// folding a resnet50 partition's precomputed subgraph fingerprints into a
/// partition-level `EvalKey` (what every cache probe pays per evaluation —
/// no allocation, no member walk). Returns the median in nanoseconds.
fn key_build_bench() -> f64 {
    let model = cocco::graph::models::resnet50();
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let partition = repair(&model, Partition::depth_groups(&model, 5), &|_| true);
    let fps = PartitionFingerprints::compute(&partition);
    let buffer = BufferConfig::shared(2 << 20);
    let fingerprint = evaluator.fingerprint();
    let mut samples = Vec::with_capacity(64);
    for _ in 0..64 {
        let start = Stopwatch::start();
        for _ in 0..4096 {
            std::hint::black_box(cocco::engine::EvalKey::partition(
                fingerprint,
                fps.positions().iter().copied(),
                &buffer,
                EvalOptions::default(),
            ));
        }
        samples.push(start.elapsed().as_secs_f64() * 1e9 / 4096.0);
    }
    samples.sort_by(f64::total_cmp);
    let median = samples[samples.len() / 2];
    println!(
        "engine/eval_key_build_resnet50_depth5      {:>12} (zero allocations)",
        fmt_time(median / 1e9)
    );
    median
}

/// Cache-capacity sweep: the same seeded GA under shrinking entry budgets.
/// Results must stay bit-identical to the unbounded run; what changes is
/// eviction pressure (recorded per capacity).
fn capacity_sweep(threads: u32) -> serde_json::Value {
    let model = cocco::graph::models::resnet50();
    let (budget, population) = (1_500, 60);
    println!("\n== cache-capacity sweep: GA on resnet50, budget {budget} ==\n");
    let reference = ga_run(
        &model,
        budget,
        population,
        EngineConfig::with_threads(threads),
        None,
    );
    let mut rows = Vec::new();
    for capacity in [usize::MAX, 16_384, 2_048, 256] {
        let config = EngineConfig::with_threads(threads).with_cache_capacity(capacity);
        let run = ga_run(&model, budget, population, config, None);
        let (wall, metrics) = (run.wall, &run.metrics);
        assert_eq!(
            run.cost, reference.cost,
            "capacity {capacity}: eviction changed the best cost"
        );
        assert_eq!(
            run.best, reference.best,
            "capacity {capacity}: eviction changed the best genome"
        );
        let entries = metrics.gauge("engine.cache.partition.entries")
            + metrics.gauge("engine.cache.subgraph.entries");
        if capacity != usize::MAX {
            assert!(
                entries <= capacity as u64,
                "capacity {capacity}: {entries} entries exceed the budget"
            );
        }
        println!(
            "capacity {:>10} : {:>10}  ({} entries, {} evicted, {:.0}% hits)",
            if capacity == usize::MAX {
                "unbounded".to_string()
            } else {
                capacity.to_string()
            },
            fmt_time(wall.as_secs_f64()),
            entries,
            evictions(metrics),
            hit_rate(metrics) * 100.0,
        );
        rows.push(serde_json::Value::Object(vec![
            (
                "capacity".to_string(),
                serde_json::to_value(&(capacity.min(u64::MAX as usize) as u64)),
            ),
            (
                "wall_ms".to_string(),
                serde_json::to_value(&(wall.as_secs_f64() * 1e3)),
            ),
            ("entries".to_string(), serde_json::to_value(&entries)),
            (
                "evictions".to_string(),
                serde_json::to_value(&evictions(metrics)),
            ),
        ]));
    }
    println!("results              : bit-identical across every capacity ✓");
    serde_json::Value::Array(rows)
}

fn full_suite() {
    println!("== micro-benchmarks (median per iteration) ==\n");

    bench("models/build_resnet50", cocco::graph::models::resnet50);
    bench("models/build_googlenet", cocco::graph::models::googlenet);

    {
        let model = cocco::graph::models::googlenet();
        let members: Vec<_> = model.node_ids().collect();
        let mapper = Mapper::default();
        bench("tiling/derive_scheme_googlenet_whole", || {
            derive_scheme(&model, &members, &mapper).unwrap()
        });
    }

    {
        let model = cocco::graph::models::resnet50();
        let members: Vec<_> = model.node_ids().take(12).collect();
        bench("evaluator/subgraph_stats_cold", || {
            // A fresh evaluator per iteration so the cache never warms.
            let eval = Evaluator::new(&model, AcceleratorConfig::default());
            eval.subgraph_stats(&members).unwrap()
        });
        let eval = Evaluator::new(&model, AcceleratorConfig::default());
        eval.subgraph_stats(&members).unwrap();
        bench("evaluator/subgraph_stats_cached", || {
            eval.subgraph_stats(&members).unwrap()
        });
        let partition = repair(&model, Partition::depth_groups(&model, 5), &|_| true);
        let subgraphs = partition.subgraphs();
        let buffer = BufferConfig::shared(2 << 20);
        bench("evaluator/eval_partition_depth5", || {
            eval.eval_partition(&subgraphs, &buffer, EvalOptions::default())
                .unwrap()
        });
    }

    {
        let model = cocco::graph::models::googlenet();
        let mut rng = StdRng::seed_from_u64(42);
        let assignments: Vec<Vec<u32>> = (0..32)
            .map(|_| (0..model.len()).map(|_| rng.gen_range(0..12)).collect())
            .collect();
        let mut i = 0;
        bench("repair/random_googlenet", || {
            let a = assignments[i % assignments.len()].clone();
            i += 1;
            repair(&model, Partition::from_assignment(a), &|m| m.len() <= 16)
        });
    }

    {
        let model = cocco::graph::models::googlenet();
        let eval = Evaluator::new(&model, AcceleratorConfig::default());
        bench("search/ga_500_samples_googlenet", || {
            let ctx = SearchContext::new(
                &model,
                &eval,
                BufferSpace::paper_shared(),
                Objective::paper_energy_capacity(),
                500,
            );
            CoccoGa::default()
                .with_population(50)
                .with_seed(1)
                .run(&ctx)
        });
    }
}

/// Stepped-vs-monolithic parity: the same seeded GA through `run()` (now a
/// thin driver loop) and through an explicit step loop that round-trips the
/// whole `SearchSnapshot` through JSON at a mid step and resumes on a fresh
/// context. Asserts bit-identical best cost, genome and trace.
fn stepped_parity_check(threads: u32) {
    fn make_ctx<'a>(
        evaluator: &'a Evaluator<'a>,
        model: &'a Graph,
        threads: u32,
    ) -> SearchContext<'a> {
        SearchContext::new(
            model,
            evaluator,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            400,
        )
        .with_engine(EngineConfig::with_threads(threads))
    }
    let model = cocco::graph::models::googlenet();
    let method = SearchMethod::ga().with_seed(23);
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let ctx = make_ctx(&evaluator, &model, threads);
    let monolithic = method.run(&ctx);
    let monolithic_trace = ctx.trace().points();

    // Stepped arm: drive 3 steps, snapshot through JSON, resume fresh.
    let snapshot = {
        let ctx = make_ctx(&evaluator, &model, threads);
        let mut driver = method.driver();
        for _ in 0..3 {
            match driver.next_batch(&ctx) {
                Step::Evaluate(mut batch) => {
                    ctx.evaluate_chunks(&mut batch);
                    driver.absorb(&ctx, batch);
                }
                Step::Continue => {}
                Step::Done => break,
            }
        }
        SearchSnapshot::capture(&method, &*driver, &ctx)
    };
    let json = serde_json::to_string(&snapshot).expect("snapshot serializes");
    let snapshot: SearchSnapshot = serde_json::from_str(&json).expect("snapshot deserializes");
    let ctx = make_ctx(&evaluator, &model, threads);
    snapshot.replay_into(&ctx);
    let mut driver = method
        .driver_from_state(&snapshot.driver)
        .expect("state matches method");
    let stepped = run_driver(&mut *driver, &ctx);
    assert_eq!(
        monolithic.best_cost, stepped.best_cost,
        "stepped-vs-monolithic parity violated: best cost"
    );
    assert_eq!(
        monolithic.best, stepped.best,
        "stepped-vs-monolithic parity violated: best genome"
    );
    assert_eq!(
        monolithic.samples, stepped.samples,
        "stepped-vs-monolithic parity violated: samples"
    );
    assert_eq!(
        monolithic_trace,
        ctx.trace().points(),
        "stepped-vs-monolithic parity violated: trace"
    );
    println!("stepped parity       : run() == stepped+JSON-resumed GA ✓ ({threads} threads)");
}

/// One timed two-step run (interleaved or sequential) with a fresh
/// evaluator, so the evaluator's per-subgraph stats cache measures only
/// this arm. Returns wall time, the outcome, the evaluator stats-cache hit
/// rate (the cross-candidate reuse channel: statistics are
/// buffer-independent, so elite partitions migrating between capacity
/// candidates hit it) and the engine metrics.
fn twostep_run(
    model: &Graph,
    budget: u64,
    interleave: bool,
    threads: u32,
) -> (Duration, f64, f64, u64, MetricsSnapshot) {
    let evaluator = Evaluator::new(model, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        model,
        &evaluator,
        BufferSpace::paper_shared(),
        Objective::paper_energy_capacity(),
        budget,
    )
    .with_engine(EngineConfig::with_threads(threads));
    // A small inner population: each capacity candidate runs several
    // generations within its slice, so elite migration has rounds to act
    // across (with one or two generations per candidate the two arms
    // barely differ).
    let ga = GaConfig {
        population: 24,
        ..GaConfig::default()
    };
    let mut method = TwoStep {
        sampling: CapacitySampling::Random,
        per_candidate: (budget / 4).max(1),
        ga,
        seed: 29,
        interleave: true,
    };
    if !interleave {
        method = method.sequential();
    }
    let start = Stopwatch::start();
    let outcome = method.run(&ctx);
    (
        start.elapsed(),
        outcome.best_cost,
        evaluator.stats_cache_hit_rate(),
        evaluator.stats_cache_misses(),
        ctx.engine().metrics(),
    )
}

/// The interleaved-vs-sequential two-step comparison: same budget, same
/// candidate count, same seeds. The interleaved scheme batches all inner
/// GAs into shared engine dispatches and migrates elites across capacity
/// candidates, so its cross-candidate subgraph (stats-cache) hit rate must
/// be **strictly higher** than the sequential baseline's. Returns the JSON
/// summary fields.
fn twostep_bench(smoke: bool, threads: u32) -> serde_json::Value {
    let model = cocco::graph::models::resnet50();
    let budget = if smoke { 600 } else { 2_000 };
    let (seq_wall, seq_cost, seq_hit_rate, seq_misses, seq_metrics) =
        twostep_run(&model, budget, false, threads);
    let (int_wall, int_cost, int_hit_rate, int_misses, int_metrics) =
        twostep_run(&model, budget, true, threads);
    assert!(seq_cost.is_finite() && int_cost.is_finite());
    assert!(
        int_hit_rate > seq_hit_rate,
        "interleaved two-step must show a strictly higher cross-candidate subgraph hit rate \
         than the sequential baseline (interleaved {:.6} vs sequential {:.6})",
        int_hit_rate,
        seq_hit_rate,
    );
    assert!(
        int_misses <= seq_misses,
        "interleaved two-step must not derive more distinct subgraph statistics \
         ({int_misses} vs sequential {seq_misses})"
    );
    println!(
        "two-step sequential  : {:>10}  (stats-cache hit rate {:.2}%, {} derivations, cost {:.4e})",
        fmt_time(seq_wall.as_secs_f64()),
        seq_hit_rate * 100.0,
        seq_misses,
        seq_cost,
    );
    println!(
        "two-step interleaved : {:>10}  (stats-cache hit rate {:.2}%, {} derivations, cost {:.4e})",
        fmt_time(int_wall.as_secs_f64()),
        int_hit_rate * 100.0,
        int_misses,
        int_cost,
    );
    println!(
        "cross-candidate reuse: interleaved +{:.2} pp subgraph-stats hit rate, {} fewer \
         derivations than sequential ✓",
        (int_hit_rate - seq_hit_rate) * 100.0,
        seq_misses - int_misses,
    );
    serde_json::Value::Object(vec![
        ("budget".to_string(), serde_json::to_value(&budget)),
        (
            "sequential_ms".to_string(),
            serde_json::to_value(&(seq_wall.as_secs_f64() * 1e3)),
        ),
        (
            "interleaved_ms".to_string(),
            serde_json::to_value(&(int_wall.as_secs_f64() * 1e3)),
        ),
        (
            "sequential_cost".to_string(),
            serde_json::to_value(&seq_cost),
        ),
        (
            "interleaved_cost".to_string(),
            serde_json::to_value(&int_cost),
        ),
        (
            "sequential_stats_hit_rate".to_string(),
            serde_json::to_value(&seq_hit_rate),
        ),
        (
            "interleaved_stats_hit_rate".to_string(),
            serde_json::to_value(&int_hit_rate),
        ),
        (
            "sequential_stats_misses".to_string(),
            serde_json::to_value(&seq_misses),
        ),
        (
            "interleaved_stats_misses".to_string(),
            serde_json::to_value(&int_misses),
        ),
        (
            "sequential_engine_hit_rate".to_string(),
            serde_json::to_value(&hit_rate(&seq_metrics)),
        ),
        (
            "interleaved_engine_hit_rate".to_string(),
            serde_json::to_value(&hit_rate(&int_metrics)),
        ),
    ])
}

/// Bounds what telemetry may cost on the engine's hottest leaf: a warmed
/// `score_single` cache hit (tens of nanoseconds), answered by the
/// subgraph-term cache. Probes the same cached subgraph 20 000 times
/// through a disabled handle and through a live sink. Both arms must stay
/// under the same generous 5 µs/probe
/// ceiling, which catches a regression that puts a clock read, lock
/// round-trip or allocation onto the cached path. The cached leaf must
/// also stay silent: after every probe the live sink's event buffer is
/// still empty.
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

/// One seeded facade exploration with a live sink, reported as the
/// per-phase wall profile (setup / search / eval / cache / serialize).
/// Eval is nested inside search, so it can never exceed it. Returns the
/// phase snapshot as JSON for the summary.
fn phase_profile_bench(threads: u32) -> serde_json::Value {
    let model = cocco::graph::models::resnet50();
    let telemetry = Telemetry::enabled();
    Cocco::new()
        .with_method(SearchMethod::ga())
        .with_budget(1_500)
        .with_seed(7)
        .with_engine(EngineConfig::with_threads(threads))
        .with_telemetry(telemetry.clone())
        .explore(&model)
        .expect("exploration succeeds");
    let phases = telemetry.phases();
    println!("\n== phase profile: GA on resnet50, budget 1500, {threads} threads ==\n");
    for (name, ms) in phases.rows() {
        println!("phase/{name:<36} {:>12}", fmt_time(ms / 1e3));
    }
    assert!(
        phases.eval_ms <= phases.search_ms,
        "phase accounting violated: eval ({:.1} ms) is nested inside search ({:.1} ms)",
        phases.eval_ms,
        phases.search_ms,
    );
    serde_json::to_value(&phases)
}

/// Runs the workspace determinism audit in-process and prints its wall
/// time — the smoke's cheap proof that the gate stays both green and
/// fast enough to run on every CI push.
fn audit_gate_check() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let start = Stopwatch::start();
    let report = cocco_audit::audit_workspace(&root).expect("workspace audit runs");
    let wall_ms = start.elapsed_ms();
    assert!(
        report.is_clean(),
        "workspace audit found violations:\n{}",
        report.render_human()
    );
    println!(
        "\naudit gate: clean ({} files scanned, {} suppressed, {} path-allowed) in {wall_ms:.1} ms",
        report.files_scanned, report.suppressed, report.allowed
    );
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut smoke = false;
    let mut threads: u32 = 4;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
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
                eprintln!("unknown argument `{bad}` (supported: --smoke, --threads <n>)");
                std::process::exit(2);
            }
        }
    }
    let threads = threads.max(1);

    if smoke {
        // CI smoke: exercise the incremental delta path, the zero
        // hot-path allocation invariant, the determinism invariant, the
        // fault-injection matrix, stepped-vs-monolithic parity (driver +
        // JSON-resume) and the interleaved-vs-sequential two-step arm at
        // the requested worker count; skip the slow timing loops.
        engine_bench(true, threads);
        println!();
        thread_matrix_check();
        fault_matrix_check(threads);
        stepped_parity_check(threads);
        twostep_bench(true, threads);
        telemetry_overhead_check();
        audit_gate_check();
        println!("\nsmoke OK");
        return;
    }

    full_suite();
    println!();
    stepped_parity_check(threads);
    let key_build_ns = key_build_bench();
    let pool_overhead_ns = pool_overhead_bench(threads);
    let cached_batch = cached_batch_bench();
    let mut doc = match engine_bench(false, threads) {
        serde_json::Value::Object(fields) => fields,
        _ => unreachable!("engine_bench returns an object"),
    };
    doc.push(("twostep".to_string(), twostep_bench(false, threads)));
    doc.push((
        "key_build_ns".to_string(),
        serde_json::to_value(&key_build_ns),
    ));
    doc.push((
        "pool_batch_overhead_ns".to_string(),
        serde_json::to_value(&pool_overhead_ns),
    ));
    doc.push(("cached_batch_latency".to_string(), cached_batch));
    doc.push(("capacity_sweep".to_string(), capacity_sweep(threads)));
    doc.push(("phases".to_string(), phase_profile_bench(threads)));
    telemetry_overhead_check();
    let doc = serde_json::Value::Object(doc);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_engine.json");
    let text = serde_json::to_string_pretty(&doc).expect("summary serializes");
    match std::fs::write(&path, format!("{text}\n")) {
        Ok(()) => println!("\n(engine summary written to {})", path.display()),
        Err(e) => eprintln!("\n(could not write {}: {e})", path.display()),
    }
}
