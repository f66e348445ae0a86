//! Workspace-level tests of the evaluation engine: thread-count
//! invariance for every stochastic method, cache sharing across derived
//! contexts, and the `infeasible_errors` accounting.

use cocco::prelude::*;

fn explore(method: SearchMethod, threads: u32, budget: u64) -> Exploration {
    Cocco::new()
        .with_method(method)
        .with_budget(budget)
        .with_seed(21)
        .with_engine(EngineConfig::with_threads(threads))
        .explore(&cocco::graph::models::googlenet())
        .unwrap()
}

/// Entries evicted across both cache levels of a run.
fn evictions(x: &Exploration) -> u64 {
    x.metrics.counter("engine.cache.partition.evictions")
        + x.metrics.counter("engine.cache.subgraph.evictions")
}

#[test]
fn every_stochastic_method_is_thread_count_invariant() {
    for method in [
        SearchMethod::ga(),
        SearchMethod::sa(),
        SearchMethod::two_step(),
    ] {
        let name = method.name();
        let serial = explore(method.clone(), 1, 400);
        let parallel = explore(method, 4, 400);
        assert_eq!(serial.cost, parallel.cost, "{name}: cost diverged");
        assert_eq!(serial.genome, parallel.genome, "{name}: genome diverged");
        assert_eq!(serial.trace, parallel.trace, "{name}: trace diverged");
        assert_eq!(serial.samples, parallel.samples, "{name}: samples diverged");
    }
}

#[test]
fn two_step_inner_runs_share_the_engine_cache() {
    let result = explore(SearchMethod::two_step(), 2, 600);
    assert!(
        result.metrics.counter("engine.cache.partition.hits") > 0,
        "inner GAs re-propose partitions; the shared cache must see hits"
    );
    assert!(result.metrics.counter("engine.evals") >= result.samples);
}

#[test]
fn interleaved_two_step_reuses_more_statistics_than_sequential() {
    // The interleaved scheme batches every inner GA into shared engine
    // dispatches and migrates elites across capacity candidates. Subgraph
    // statistics are buffer-independent, so migrated elites hit the
    // evaluator's stats cache: its hit rate must be strictly higher than
    // the sequential baseline's, with no extra derivations, at the same
    // budget, candidate count and seeds.
    let model = cocco::graph::models::resnet50();
    let budget = 600;
    let run = |method: TwoStep, threads: u32| {
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &model,
            &evaluator,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            budget,
        )
        .with_engine(EngineConfig::with_threads(threads));
        let cost = SearchMethod::TwoStep(method).run(&ctx).best_cost;
        (
            cost,
            evaluator.stats_cache_hit_rate(),
            evaluator.stats_cache_misses(),
        )
    };
    // A small inner population: each capacity candidate runs several
    // generations within its slice, so elite migration has rounds to act
    // across (with one or two generations per candidate the two arms
    // barely differ).
    let interleaved = TwoStep {
        sampling: CapacitySampling::Random,
        per_candidate: budget / 4,
        ga: GaConfig {
            population: 24,
            ..GaConfig::default()
        },
        seed: 29,
        interleave: true,
    };
    for threads in [1, 8] {
        let (seq_cost, seq_hit_rate, seq_misses) = run(interleaved.clone().sequential(), threads);
        let (int_cost, int_hit_rate, int_misses) = run(interleaved.clone(), threads);
        assert!(seq_cost.is_finite() && int_cost.is_finite());
        assert!(
            int_hit_rate > seq_hit_rate,
            "{threads} threads: interleaved stats-cache hit rate {int_hit_rate:.6} must be \
             strictly higher than sequential {seq_hit_rate:.6}"
        );
        assert!(
            int_misses <= seq_misses,
            "{threads} threads: interleaved derived {int_misses} statistics, sequential \
             {seq_misses}"
        );
    }
}

#[test]
fn engine_stats_round_trip_through_json() {
    let result = explore(SearchMethod::ga(), 2, 300);
    let json = serde_json::to_string(&result).unwrap();
    let back: Exploration = serde_json::from_str(&json).unwrap();
    assert_eq!(back.metrics, result.metrics);
    assert_eq!(back.infeasible_errors, result.infeasible_errors);
}

#[test]
fn infeasible_errors_count_silent_evaluator_failures() {
    let g = cocco::graph::models::diamond();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let ctx = SearchContext::new(
        &g,
        &eval,
        BufferSpace::fixed(BufferConfig::shared(1 << 20)),
        Objective::partition_only(CostMetric::Ema),
        10,
    );
    let buffer = BufferConfig::shared(1 << 20);
    // An empty member set is an evaluator error, not a genuine misfit —
    // `fits` maps it to false but must count it.
    assert!(!ctx.fits(&[], &buffer));
    assert_eq!(ctx.trace().infeasible_errors(), 1);
    // Healthy queries leave the counter alone.
    let members: Vec<NodeId> = g.node_ids().collect();
    assert!(ctx.fits(&members, &buffer));
    assert_eq!(ctx.trace().infeasible_errors(), 1);
}

#[test]
fn healthy_runs_report_zero_infeasible_errors() {
    for method in [SearchMethod::ga(), SearchMethod::greedy()] {
        let name = method.name();
        let result = explore(method, 2, 300);
        assert_eq!(result.infeasible_errors, 0, "{name}");
    }
}

#[test]
fn bounded_cache_stays_within_budget_and_preserves_results() {
    // The memory-bounding criterion: a long exploration under a small
    // `cache_capacity` stays within the configured entry budget, reports
    // its evictions, and produces the exact result of an unbounded run.
    let capacity = 512usize;
    let run = |config: EngineConfig| {
        Cocco::new()
            .with_budget(2_000)
            .with_seed(17)
            .with_engine(config)
            .explore(&cocco::graph::models::googlenet())
            .unwrap()
    };
    let unbounded = run(EngineConfig::with_threads(2));
    let bounded = run(EngineConfig::with_threads(2).with_cache_capacity(capacity));
    assert_eq!(bounded.cost, unbounded.cost, "eviction changed the cost");
    assert_eq!(
        bounded.genome, unbounded.genome,
        "eviction changed the genome"
    );
    assert_eq!(bounded.trace, unbounded.trace, "eviction changed the trace");
    let entries = bounded.metrics.gauge("engine.cache.partition.entries")
        + bounded.metrics.gauge("engine.cache.subgraph.entries");
    assert!(
        entries <= capacity as u64,
        "{entries} cached entries exceed the {capacity}-entry budget"
    );
    assert!(
        evictions(&bounded) > 0,
        "a 2000-sample run against a 512-entry budget must evict"
    );
    assert_eq!(
        evictions(&unbounded),
        0,
        "the default budget must be generous enough to never evict here"
    );
}

#[test]
fn eviction_victims_are_deterministic_across_identical_runs() {
    // The regression test for nondeterministic victim selection: when a
    // generation sweep still overflows the shard budget, the entries shed
    // must be a function of the keys alone — never of map iteration
    // order — so two identical runs persist byte-identical snapshots.
    let dir = std::env::temp_dir().join(format!("cocco-evict-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let run = |tag: &str| {
        let path = dir.join(format!("snapshot-{tag}.json"));
        let result = Cocco::new()
            .with_budget(2_000)
            .with_seed(17)
            .with_engine(EngineConfig::serial().with_cache_capacity(512))
            .with_cache_file(&path)
            .explore(&cocco::graph::models::googlenet())
            .unwrap();
        assert!(
            evictions(&result) > 0,
            "the run must evict, or byte-identity proves nothing"
        );
        (std::fs::read(&path).unwrap(), result)
    };
    let (bytes_a, a) = run("a");
    let (bytes_b, b) = run("b");
    assert_eq!(
        a.cost, b.cost,
        "identical runs diverged before the snapshot"
    );
    assert_eq!(
        bytes_a, bytes_b,
        "identical runs persisted different cache snapshots after evictions"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn incremental_path_builds_zero_per_probe_keys() {
    // The zero-rehash criterion, observed end to end through the facade:
    // no instrumented hot-path allocation on the batch path.
    let result = explore(SearchMethod::ga(), 2, 400);
    assert_eq!(result.metrics.counter("engine.hot_allocs"), 0);
}

#[test]
fn roll_up_cache_hits_seed_offspring_memos() {
    // Re-proposed genomes hit the partition roll-up cache, and the term
    // cache answers most of the subgraph terms the remaining compositions
    // request: a mutation leaves most subgraphs untouched, so fresh
    // scorings stay a small fraction of term requests.
    let result = explore(SearchMethod::ga(), 1, 800);
    let m = &result.metrics;
    let hits = m.counter("engine.cache.subgraph.hits");
    let hit_rate = hits as f64 / (hits + m.counter("engine.subgraph.scorings")) as f64;
    assert!(m.counter("engine.cache.partition.hits") > 0);
    assert!(
        hit_rate > 0.5,
        "the term cache must answer most term requests (got {:.0}%)",
        hit_rate * 100.0
    );
}
