//! Table 2 — hardware-mapping co-exploration with one *shared* buffer
//! (energy-capacity objective, α = 0.002) on ResNet50 / GoogleNet /
//! RandWire / NasNet.
//!
//! Run with: `cargo bench -p cocco-bench --bench table2_shared`

use cocco::prelude::*;
use cocco_bench::harness::sci;
use cocco_bench::methods::{buffer_label, fixed_shared, ExperimentCfg, TABLE_MODELS};
use cocco_bench::{Scale, Table};

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Table 2: co-exploration, shared buffer ({} samples/method) ==\n",
        scale.coopt_samples
    );
    let mut table = Table::new(
        "table2_shared",
        &["model", "scheme", "method", "Size", "Cost"],
    );
    for name in TABLE_MODELS {
        let model = cocco::graph::models::by_name(name).unwrap();
        let evaluator = Evaluator::new(&model, AcceleratorConfig::default());
        let cfg = ExperimentCfg {
            model: &model,
            evaluator: &evaluator,
            metric: CostMetric::Energy,
            alpha: 0.002,
            budget: scale.coopt_samples,
            refine_budget: scale.coopt_samples / 2,
            population: scale.population,
            options: EvalOptions::default(),
            seed: 0xC0CC0,
        };
        let space = BufferSpace::paper_shared();
        let mut emit = |scheme: &str, method: &str, r: cocco_bench::methods::MethodResult| {
            let (size, _) = buffer_label(r.buffer);
            table.row(&[
                name.to_string(),
                scheme.to_string(),
                method.to_string(),
                size,
                sci(r.cost),
            ]);
        };
        for (label, buffer) in fixed_shared() {
            emit("Fixed HW", label, cfg.fixed_hw(buffer));
        }
        let per_candidate = (cfg.budget / 10).max(1);
        for (label, two_step) in [("RS+GA", TwoStep::random()), ("GS+GA", TwoStep::grid())] {
            let method = SearchMethod::TwoStep(two_step.with_per_candidate(per_candidate));
            emit("Two-Step", label, cfg.co_opt(method, space));
        }
        emit("Co-Opt", "SA", cfg.co_opt(SearchMethod::sa(), space));
        emit(
            "Co-Opt",
            "Cocco",
            cfg.co_opt(SearchMethod::Ga(cfg.ga()), space),
        );
    }
    table.emit();
    println!(
        "paper shapes: shared-buffer costs undercut the separate design\n\
         (Table 1) for most models, and Cocco again leads per model."
    );
}
