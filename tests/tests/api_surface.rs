//! Integration tests of the unified exploration API: the method registry,
//! the method-agnostic `Cocco` facade, the unified error hierarchy and the
//! JSON round-trip of requests and results.

use cocco::prelude::*;
use std::error::Error as _;

/// A seeded GA config. Batch evaluation is deterministic at any thread
/// count, so facade and direct runs evaluate in identical order even at
/// budget-exhaustion boundaries — no sequential override needed.
fn seeded_ga(seed: u64) -> GaConfig {
    GaConfig {
        seed,
        ..GaConfig::default()
    }
}

/// The six registry methods, seeded.
fn all_methods(seed: u64) -> Vec<SearchMethod> {
    SearchMethod::all()
        .into_iter()
        .map(|m| m.with_seed(seed))
        .collect()
}

#[test]
fn every_method_yields_valid_partitions_via_the_facade() {
    for model in [
        cocco::graph::models::diamond(),
        cocco::graph::models::chain(4),
    ] {
        for method in all_methods(3) {
            let name = method.name();
            let result = Cocco::new()
                .with_method(method)
                .with_budget(400)
                .explore(&model)
                .unwrap_or_else(|e| panic!("{name} on {}: {e}", model.name()));
            assert!(
                result.genome.partition.validate(&model).is_ok(),
                "{name} produced an invalid partition on {}",
                model.name()
            );
            assert!(result.report.fits, "{name}: best genome does not fit");
            assert!(result.cost.is_finite(), "{name}: infinite best cost");
            assert!(result.samples <= 400, "{name}: overspent the budget");
        }
    }
}

#[test]
fn facade_matches_direct_searcher_invocation() {
    let model = cocco::graph::models::diamond();
    for method in all_methods(9) {
        let name = method.name();
        let facade = Cocco::new()
            .with_method(method.clone())
            .with_budget(350)
            .explore(&model)
            .unwrap_or_else(|e| panic!("{name}: {e}"));

        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &model,
            &evaluator,
            BufferSpace::paper_shared(),
            Objective::paper_energy_capacity(),
            350,
        );
        let direct = method.run(&ctx);

        assert_eq!(facade.cost, direct.best_cost, "{name}: cost diverged");
        assert_eq!(
            facade.genome,
            direct.best.expect("direct run found a genome"),
            "{name}: genome diverged"
        );
        assert_eq!(facade.samples, direct.samples, "{name}: samples diverged");
        assert_eq!(
            facade.trace.points(),
            ctx.trace().points(),
            "{name}: trace diverged"
        );
    }
}

#[test]
fn exploration_round_trips_through_json() {
    let model = cocco::graph::models::diamond();
    let result = Cocco::new()
        .with_ga(seeded_ga(1))
        .with_budget(120)
        .explore(&model)
        .unwrap();
    let json = serde_json::to_string_pretty(&result).unwrap();
    let back: Exploration = serde_json::from_str(&json).unwrap();
    assert_eq!(back.genome, result.genome);
    assert_eq!(back.report, result.report);
    assert_eq!(back.samples, result.samples);
    assert_eq!(back.completed, result.completed);
    // Finite trace points survive exactly; non-finite costs come back NaN,
    // so compare the finite subset.
    let finite = |t: &Trace| {
        t.points()
            .into_iter()
            .filter(|p| p.cost.is_finite())
            .collect::<Vec<_>>()
    };
    assert_eq!(finite(&back.trace), finite(&result.trace));
    assert_eq!(back.trace.len(), result.trace.len());
}

#[test]
fn search_methods_round_trip_through_json() {
    for method in all_methods(77) {
        let json = serde_json::to_string(&method).unwrap();
        let back: SearchMethod = serde_json::from_str(&json).unwrap();
        assert_eq!(back, method, "{json}");
    }
}

#[test]
fn unified_error_preserves_sources_across_crates() {
    // Tiling error -> Sim error -> cocco::Error keeps the full chain.
    let model = cocco::graph::models::chain(2);
    let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
    let empty: Vec<Vec<NodeId>> = vec![vec![]];
    let sim_err = evaluator
        .eval_partition(
            &empty,
            &BufferConfig::shared(1 << 20),
            EvalOptions::default(),
        )
        .unwrap_err();
    let unified: cocco::Error = sim_err.clone().into();
    assert_eq!(unified.source().unwrap().to_string(), sim_err.to_string());

    // Builder misuse surfaces as Error::Graph with the GraphError inside.
    let mut b = GraphBuilder::new("bad");
    let input = b.input(TensorShape::new(8, 8, 4));
    b.conv("dup", input, 4, Kernel::pointwise()).unwrap();
    let graph_err = b
        .conv("dup", input, 4, Kernel::pointwise())
        .expect_err("duplicate layer name must be rejected");
    let unified: cocco::Error = graph_err.clone().into();
    assert!(matches!(unified, cocco::Error::Graph(_)));
    assert_eq!(unified.source().unwrap().to_string(), graph_err.to_string());
}

#[test]
fn infeasible_and_incompatible_requests_use_unified_errors() {
    let model = cocco::graph::models::chain(3);
    let infeasible = Cocco::new()
        .with_space(BufferSpace::fixed(BufferConfig::shared(8)))
        .with_budget(40)
        .explore(&model)
        .unwrap_err();
    assert_eq!(infeasible, cocco::Error::NoFeasibleSolution);

    let incompatible = Cocco::new()
        .with_method(SearchMethod::two_step())
        .with_objective(Objective::partition_only(CostMetric::Ema))
        .with_budget(40)
        .explore(&model)
        .unwrap_err();
    assert!(matches!(
        incompatible,
        cocco::Error::IncompatibleObjective { .. }
    ));
    // The message names the method and the requirement.
    let msg = incompatible.to_string();
    assert!(msg.contains("RS+GA"), "{msg}");
    assert!(msg.contains("Formula-2"), "{msg}");

    // A method that gives up (enumeration over its state limits on an
    // irregular graph) is distinguished from proven infeasibility.
    let incomplete = Cocco::new()
        .with_method(SearchMethod::Exhaustive(cocco::search::ExhaustiveLimits {
            max_states: 4,
            max_expansions: 4,
        }))
        .with_budget(10)
        .explore(&cocco::graph::models::randwire_a())
        .unwrap_err();
    assert!(
        matches!(incomplete, cocco::Error::SearchIncomplete { .. }),
        "{incomplete}"
    );
}

#[test]
fn with_seed_controls_every_stochastic_method() {
    let model = cocco::graph::models::diamond();
    for method in [
        SearchMethod::ga(),
        SearchMethod::sa(),
        SearchMethod::two_step(),
    ] {
        let name = method.name();
        let run = |seed: u64| {
            Cocco::new()
                .with_method(match &method {
                    SearchMethod::Ga(_) => SearchMethod::Ga(seeded_ga(0)),
                    other => other.clone(),
                })
                .with_seed(seed)
                .with_budget(150)
                .explore(&model)
                .unwrap()
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.cost, b.cost, "{name} not deterministic under seed");
        assert_eq!(a.genome, b.genome, "{name} not deterministic under seed");
    }
}

#[test]
fn zero_per_candidate_two_step_explores_like_the_clamping_builder() {
    // `per_candidate` is a public field; 0 must not divide by zero, and
    // must mean what `with_per_candidate(0)` clamps it to, interleaved or
    // sequential.
    let model = cocco::graph::models::diamond();
    let run = |two_step: TwoStep| {
        Cocco::new()
            .with_method(SearchMethod::TwoStep(two_step))
            .with_budget(40)
            .explore(&model)
            .unwrap()
    };
    for interleave in [true, false] {
        let raw = run(TwoStep {
            per_candidate: 0,
            interleave,
            ..TwoStep::random()
        });
        let clamped = run(TwoStep {
            interleave,
            ..TwoStep::random().with_per_candidate(0)
        });
        assert_eq!(raw.cost.to_bits(), clamped.cost.to_bits());
        assert_eq!(raw.genome, clamped.genome);
        assert_eq!(raw.samples, clamped.samples);
        assert_eq!(raw.trace.points(), clamped.trace.points());
    }
}
