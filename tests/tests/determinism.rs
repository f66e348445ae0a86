//! Reproducibility: fixed seeds reproduce results end-to-end, including
//! under parallel fitness evaluation.

use cocco::prelude::*;
use cocco_tests::CACHE_COUNTERS;

#[test]
fn ga_is_bit_identical_at_any_thread_count() {
    // Cost, genome, samples, trace, the persisted cache image and the
    // funding-sequence counters must match the serial run at every worker
    // count, and with a live telemetry sink (observation only). Every run
    // must also keep the scoring hot path allocation-free and reuse its
    // warmed layout arenas.
    let g = cocco::graph::models::googlenet();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let run = |threads: u32, telemetry: Option<&Telemetry>| {
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            1_200,
        );
        let config = EngineConfig::with_threads(threads);
        let ctx = match telemetry {
            Some(t) => ctx.with_engine_telemetry(config, t),
            None => ctx.with_engine(config),
        };
        let ga = CoccoGa::default().with_population(40).with_seed(11);
        let out = ga.run(&ctx);
        let m = ctx.engine().metrics();
        let cell = format!("{threads} threads, telemetry {}", telemetry.is_some());
        assert_eq!(
            m.counter("engine.hot_allocs"),
            0,
            "hot allocations ({cell})"
        );
        assert!(
            m.counter("engine.arena.reuses") > 0,
            "no arena reuse ({cell})"
        );
        assert!(
            m.counter("engine.cache.partition.hits") > 0,
            "never hit the eval cache ({cell})"
        );
        assert!(
            m.counter("engine.subgraph.reused") > 0,
            "offspring never reused a memoized subgraph term ({cell})"
        );
        (
            out.best_cost,
            out.best,
            out.samples,
            ctx.trace().points(),
            CACHE_COUNTERS.map(|name| m.counter(name)),
            ctx.engine().cache().snapshot(),
        )
    };
    let serial = run(1, None);
    let telemetry = Telemetry::enabled();
    let cells = [2, 4, 8].map(|threads| (threads, None));
    for (threads, telemetry) in cells.into_iter().chain([(4, Some(&telemetry))]) {
        let cell = format!("{threads} threads, telemetry {}", telemetry.is_some());
        let parallel = run(threads, telemetry);
        assert_eq!(serial.0, parallel.0, "best cost ({cell})");
        assert_eq!(serial.1, parallel.1, "best genome ({cell})");
        assert_eq!(serial.2, parallel.2, "samples ({cell})");
        assert_eq!(serial.3, parallel.3, "trace ({cell})");
        assert_eq!(serial.4, parallel.4, "cache counters ({cell})");
        assert_eq!(serial.5, parallel.5, "cache snapshot ({cell})");
    }
}

#[test]
fn facade_ga_is_identical_serial_and_parallel() {
    // The acceptance check of the engine rework: `SearchMethod::Ga`
    // through the facade returns the identical best cost, genome and trace
    // at 1 and 4 threads.
    let model = cocco::graph::models::resnet50();
    let run = |threads: u32| {
        Cocco::new()
            .with_method(SearchMethod::ga())
            .with_budget(500)
            .with_seed(7)
            .with_engine(EngineConfig::with_threads(threads))
            .explore(&model)
            .unwrap()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.cost, parallel.cost);
    assert_eq!(serial.genome, parallel.genome);
    assert_eq!(serial.trace, parallel.trace);
    assert_eq!(serial.samples, parallel.samples);
}

#[test]
fn model_zoo_is_deterministic() {
    for name in cocco::graph::models::PAPER_MODELS {
        let a = cocco::graph::models::by_name(name).unwrap();
        let b = cocco::graph::models::by_name(name).unwrap();
        assert_eq!(a.len(), b.len(), "{name}");
        assert_eq!(a.total_macs(), b.total_macs(), "{name}");
        assert_eq!(
            a.total_weight_elements(),
            b.total_weight_elements(),
            "{name}"
        );
    }
}

#[test]
fn sa_and_twostep_reproduce() {
    let g = cocco::graph::models::diamond();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let sa = |seed| {
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            400,
        );
        SimulatedAnnealing::default()
            .with_seed(seed)
            .run(&ctx)
            .best_cost
    };
    assert_eq!(sa(3), sa(3));
    let ts = |seed| {
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            400,
        );
        TwoStep::random()
            .with_per_candidate(100)
            .with_seed(seed)
            .run(&ctx)
            .best_cost
    };
    assert_eq!(ts(4), ts(4));
}

#[test]
fn evaluator_results_are_pure() {
    let g = cocco::graph::models::resnet50();
    let e1 = Evaluator::new(&g, AcceleratorConfig::default());
    let e2 = Evaluator::new(&g, AcceleratorConfig::default());
    let p = Partition::connected_groups(&g, 3);
    let buffer = BufferConfig::shared(2 << 20);
    let r1 = e1
        .eval_partition(&p.subgraphs(), &buffer, EvalOptions::default())
        .unwrap();
    let r2 = e2
        .eval_partition(&p.subgraphs(), &buffer, EvalOptions::default())
        .unwrap();
    assert_eq!(r1.ema_bytes, r2.ema_bytes);
    assert_eq!(r1.energy_pj, r2.energy_pj);
    assert_eq!(r1.latency_cycles, r2.latency_cycles);
}
