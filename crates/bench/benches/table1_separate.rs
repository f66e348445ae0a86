//! Table 1 — hardware-mapping co-exploration with *separate* activation and
//! weight buffers (energy-capacity objective, α = 0.002): fixed-HW
//! Buf(S/M/L), two-step RS+GA and GS+GA, and the co-optimizing SA and
//! Cocco, on ResNet50 / GoogleNet / RandWire / NasNet.
//!
//! Run with: `cargo bench -p cocco-bench --bench table1_separate`
//! (`COCCO_FULL=1` for the paper's 50 000-sample budgets)

use cocco::prelude::*;
use cocco_bench::harness::sci;
use cocco_bench::methods::{buffer_label, fixed_separate, ExperimentCfg, TABLE_MODELS};
use cocco_bench::{Scale, Table};

fn main() {
    let scale = Scale::from_env();
    println!(
        "== Table 1: co-exploration, separate buffers ({} samples/method) ==\n",
        scale.coopt_samples
    );
    let mut table = Table::new(
        "table1_separate",
        &["model", "scheme", "method", "Size(A)", "Size(W)", "Cost"],
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
        let space = BufferSpace::paper_separate();
        let mut emit = |scheme: &str, method: &str, r: cocco_bench::methods::MethodResult| {
            let (a, w) = buffer_label(r.buffer);
            table.row(&[
                name.to_string(),
                scheme.to_string(),
                method.to_string(),
                a,
                w,
                sci(r.cost),
            ]);
        };
        for (label, buffer) in fixed_separate() {
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
        "paper shapes: Cocco reaches the lowest (or tied-lowest) cost per\n\
         model; GoogleNet/RandWire prefer small capacities, NasNet large;\n\
         the two-step schemes trail the co-optimizers."
    );
}
