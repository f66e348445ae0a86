//! Every search method produces valid partitions on every paper model.

use cocco::prelude::*;

fn check_valid(model: &str, buffer: BufferConfig, budget: u64) {
    let g = cocco::graph::models::by_name(model).unwrap();
    let eval = Evaluator::new(&g, AcceleratorConfig::default());
    let make_ctx = || {
        SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(buffer),
            Objective::partition_only(CostMetric::Ema),
            budget,
        )
    };
    let methods = [
        ("greedy", SearchMethod::greedy()),
        ("dp", SearchMethod::depth_dp()),
        (
            "ga",
            SearchMethod::Ga(GaConfig {
                population: 24,
                ..GaConfig::default()
            })
            .with_seed(1),
        ),
        ("sa", SearchMethod::sa().with_seed(1)),
    ];
    for (name, method) in methods {
        let out = method.run(&make_ctx());
        let best = out
            .best
            .unwrap_or_else(|| panic!("{model}/{name}: no solution"));
        best.partition
            .validate(&g)
            .unwrap_or_else(|e| panic!("{model}/{name}: invalid partition: {e}"));
        // Every subgraph respects the capacity (streamed singletons aside).
        for members in best.partition.subgraphs() {
            let stats = eval.subgraph_stats(&members).unwrap();
            assert!(
                buffer.fits(stats.act_footprint_bytes, stats.wgt_resident_bytes),
                "{model}/{name}: oversized subgraph"
            );
        }
    }
}

#[test]
fn cnn_models_produce_valid_partitions() {
    for model in ["vgg16", "resnet50", "googlenet"] {
        check_valid(model, BufferConfig::separate(1 << 20, 1152 << 10), 400);
    }
}

#[test]
fn irregular_models_produce_valid_partitions() {
    for model in ["randwire-a", "nasnet"] {
        check_valid(model, BufferConfig::separate(1 << 20, 1152 << 10), 300);
    }
}

#[test]
fn sequence_models_produce_valid_partitions() {
    for model in ["transformer", "gpt"] {
        check_valid(model, BufferConfig::shared(2 << 20), 300);
    }
}

#[test]
fn resnet152_produces_valid_partitions() {
    check_valid("resnet152", BufferConfig::shared(2 << 20), 300);
}

#[test]
fn exhaustive_is_valid_where_it_completes() {
    for model in ["vgg16", "chain"] {
        let g = if model == "chain" {
            cocco::graph::models::chain(10)
        } else {
            cocco::graph::models::by_name(model).unwrap()
        };
        let eval = Evaluator::new(&g, AcceleratorConfig::default());
        let ctx = SearchContext::new(
            &g,
            &eval,
            BufferSpace::fixed(BufferConfig::separate(1 << 20, 1152 << 10)),
            Objective::partition_only(CostMetric::Ema),
            0,
        );
        let out = SearchMethod::exhaustive().run(&ctx);
        assert!(out.completed, "{model} enumeration did not complete");
        assert!(out.best.unwrap().partition.validate(&g).is_ok());
    }
}
